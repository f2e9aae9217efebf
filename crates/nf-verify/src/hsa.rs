//! Stateful header-space analysis over NFactor models.
//!
//! Classic HSA (Kazemian et al., NSDI'12) pushes *header spaces* —
//! symbolic sets of packets — through match/action rules. The paper's §4
//! extends it with state: the transfer function becomes `T(h, p, s)`.
//! Here a [`HeaderSpace`] is a conjunction of per-field interval sets,
//! and a [`StatefulNf`] is a synthesized [`Model`] paired with a concrete
//! state snapshot (the `s` of the transfer function). Applying the NF
//! refines the space through each entry's flow *and* state match and
//! rewrites the matching part, yielding the reachable output spaces —
//! state-dependent reachability that stateless HSA cannot express
//! (e.g. "replies reach the client *only after* the client's flow opened
//! the pinhole").

use nf_model::{Entry, FlowAction, Model, ModelState};
use nf_packet::Field;
use nfl_interp::Value;
use nfl_lang::BinOp;
use nfl_symex::SymVal;
use std::collections::BTreeMap;
use std::fmt;

/// A set of (lo, hi) inclusive ranges, kept disjoint and sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSet {
    ranges: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// The full domain of a field.
    pub fn full(field: Field) -> IntervalSet {
        IntervalSet {
            ranges: vec![(0, field.max_value())],
        }
    }

    /// A single point.
    pub fn point(v: u64) -> IntervalSet {
        IntervalSet {
            ranges: vec![(v, v)],
        }
    }

    /// A single inclusive range.
    pub fn range(lo: u64, hi: u64) -> IntervalSet {
        if lo > hi {
            IntervalSet { ranges: vec![] }
        } else {
            IntervalSet {
                ranges: vec![(lo, hi)],
            }
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Intersect with another set.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        for &(a1, a2) in &self.ranges {
            for &(b1, b2) in &other.ranges {
                let lo = a1.max(b1);
                let hi = a2.min(b2);
                if lo <= hi {
                    out.push((lo, hi));
                }
            }
        }
        IntervalSet { ranges: out }
    }

    /// Remove a point (for `!=` literals).
    pub fn remove_point(&self, v: u64) -> IntervalSet {
        let mut out = Vec::new();
        for &(lo, hi) in &self.ranges {
            if v < lo || v > hi {
                out.push((lo, hi));
            } else {
                if lo < v {
                    out.push((lo, v - 1));
                }
                if v < hi {
                    out.push((v + 1, hi));
                }
            }
        }
        IntervalSet { ranges: out }
    }

    /// Does the set contain `v`?
    pub fn contains(&self, v: u64) -> bool {
        self.ranges.iter().any(|&(lo, hi)| lo <= v && v <= hi)
    }

    /// Number of values in the set (saturating).
    pub fn size(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(lo, hi)| hi - lo + 1)
            .fold(0u64, u64::saturating_add)
    }
}

/// A header space: per-field interval sets (unconstrained fields are
/// implicit full domains).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeaderSpace {
    fields: BTreeMap<Field, IntervalSet>,
}

impl HeaderSpace {
    /// The space of all packets.
    pub fn all() -> HeaderSpace {
        HeaderSpace::default()
    }

    /// Constrain one field to a set.
    pub fn with(mut self, field: Field, set: IntervalSet) -> HeaderSpace {
        self.fields.insert(field, set);
        self
    }

    /// Constrain one field to a point.
    pub fn with_point(self, field: Field, v: u64) -> HeaderSpace {
        self.with(field, IntervalSet::point(v))
    }

    /// The constraint on a field (full domain if unconstrained).
    pub fn get(&self, field: Field) -> IntervalSet {
        self.fields
            .get(&field)
            .cloned()
            .unwrap_or_else(|| IntervalSet::full(field))
    }

    /// Is the space empty (some field has no allowed value)?
    pub fn is_empty(&self) -> bool {
        self.fields.values().any(|s| s.is_empty())
    }

    /// Does a concrete packet lie in the space?
    pub fn contains_packet(&self, pkt: &nf_packet::Packet) -> bool {
        self.fields
            .iter()
            .all(|(f, set)| pkt.get(*f).map(|v| set.contains(v)).unwrap_or(false))
    }
}

impl fmt::Display for HeaderSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.fields.is_empty() {
            return write!(f, "⊤");
        }
        let parts: Vec<String> = self
            .fields
            .iter()
            .map(|(fld, set)| {
                let rs: Vec<String> = set
                    .ranges
                    .iter()
                    .map(|&(lo, hi)| {
                        if lo == hi {
                            lo.to_string()
                        } else {
                            format!("{lo}..={hi}")
                        }
                    })
                    .collect();
                format!("{fld}∈{{{}}}", rs.join(","))
            })
            .collect();
        write!(f, "{}", parts.join(" ∧ "))
    }
}

/// A model plus the concrete state snapshot it is verified under — the
/// `(model, s)` of `T(h, p, s)`.
#[derive(Debug, Clone)]
pub struct StatefulNf {
    /// The synthesized model.
    pub model: Model,
    /// The state snapshot (configs + scalars + maps).
    pub state: ModelState,
}

/// One output of pushing a space through an NF.
#[derive(Debug, Clone)]
pub struct TransferResult {
    /// The sub-space of the input that took this entry.
    pub matched: HeaderSpace,
    /// The transformed space leaving the NF (`None` for drops).
    pub output: Option<HeaderSpace>,
    /// Which `(table, entry)` produced it.
    pub via: (usize, usize),
}

impl StatefulNf {
    /// Apply the NF as a transfer function to `space`; returns the
    /// per-entry results. Unsupported match forms fail *closed for
    /// verification soundness of reach queries*: the entry is reported
    /// with the unrefined space (over-approximation).
    pub fn transfer(&self, space: &HeaderSpace) -> Vec<TransferResult> {
        let mut out = Vec::new();
        let mut remaining = vec![space.clone()];
        for (ti, table) in self.model.tables.iter().enumerate() {
            if !self.config_holds(&table.config) {
                continue;
            }
            for (ei, entry) in table.entries.iter().enumerate() {
                let mut next_remaining = Vec::new();
                for rem in remaining.drain(..) {
                    let (hits, misses) = self.refine(&rem, entry);
                    for h in hits {
                        if h.is_empty() {
                            continue;
                        }
                        let output = match &entry.flow_action {
                            FlowAction::Drop => None,
                            FlowAction::Forward { rewrites } => {
                                Some(self.rewrite_space(&h, rewrites))
                            }
                        };
                        out.push(TransferResult {
                            matched: h,
                            output,
                            via: (ti, ei),
                        });
                    }
                    next_remaining.extend(misses.into_iter().filter(|m| !m.is_empty()));
                }
                remaining = next_remaining;
                if remaining.is_empty() {
                    return out;
                }
            }
        }
        // Leftover space hits the default drop.
        for rem in remaining {
            if !rem.is_empty() {
                out.push(TransferResult {
                    matched: rem,
                    output: None,
                    via: (usize::MAX, usize::MAX),
                });
            }
        }
        out
    }

    /// All header spaces that can *traverse* the NF (forwarded outputs).
    pub fn reachable_through(&self, space: &HeaderSpace) -> Vec<HeaderSpace> {
        self.transfer(space)
            .into_iter()
            .filter_map(|r| r.output)
            .collect()
    }

    fn config_holds(&self, config: &[SymVal]) -> bool {
        config.iter().all(|lit| {
            match self.state.eval(lit, &nf_packet::Packet::default()) {
                Ok(Value::Bool(b)) => b,
                _ => true, // unknown config literal: keep the table
            }
        })
    }

    /// Split `space` into (sub-spaces matching `entry`, sub-spaces
    /// missing it).
    fn refine(&self, space: &HeaderSpace, entry: &Entry) -> (Vec<HeaderSpace>, Vec<HeaderSpace>) {
        // State match first: literals that don't reference the packet
        // evaluate concretely under the snapshot.
        let mut packet_dependent_state: Vec<&SymVal> = Vec::new();
        for lit in &entry.state_match {
            if lit.mentions().pkt {
                packet_dependent_state.push(lit);
                continue;
            }
            match self.state.eval(lit, &nf_packet::Packet::default()) {
                Ok(Value::Bool(true)) => {}
                Ok(Value::Bool(false)) => return (vec![], vec![space.clone()]),
                _ => {} // unknown: over-approximate as matching
            }
        }
        let mut hit = space.clone();
        let mut misses: Vec<HeaderSpace> = Vec::new();
        for lit in &entry.flow_match {
            match self.apply_literal(&hit, lit) {
                Some((h, m)) => {
                    if let Some(m) = m {
                        misses.push(m);
                    }
                    hit = h;
                    if hit.is_empty() {
                        misses.push(space.clone());
                        return (vec![], misses);
                    }
                }
                None => { /* unsupported literal: keep over-approx */ }
            }
        }
        // Packet-dependent state literals: map memberships keyed on
        // packet fields — expand against the concrete map contents.
        let mut hits = vec![hit];
        for lit in packet_dependent_state {
            let mut expanded = Vec::new();
            for h in hits {
                match self.apply_state_literal(&h, lit) {
                    Some((sub_hits, sub_miss)) => {
                        expanded.extend(sub_hits);
                        misses.extend(sub_miss);
                    }
                    None => expanded.push(h), // over-approximate
                }
            }
            hits = expanded;
        }
        (hits, misses)
    }

    /// Apply a flow literal of shape `pkt.f ⋈ const-expr` (including
    /// prefix-mask forms `(pkt.f & MASK) ⋈ NET` for contiguous masks);
    /// returns `(matching space, non-matching remainder)` or `None` if
    /// the form is unsupported.
    fn apply_literal(
        &self,
        space: &HeaderSpace,
        lit: &SymVal,
    ) -> Option<(HeaderSpace, Option<HeaderSpace>)> {
        if let Some(result) = self.apply_prefix_literal(space, lit) {
            return Some(result);
        }
        let (field, op, value) = self.field_cmp_const(lit)?;
        let cur = space.get(field);
        let (hit_set, miss_set) = match op {
            BinOp::Eq => (
                cur.intersect(&IntervalSet::point(value)),
                cur.remove_point(value),
            ),
            BinOp::Ne => (
                cur.remove_point(value),
                cur.intersect(&IntervalSet::point(value)),
            ),
            BinOp::Lt => (
                cur.intersect(&IntervalSet::range(0, value.saturating_sub(1))),
                cur.intersect(&IntervalSet::range(value, u64::MAX)),
            ),
            BinOp::Le => (
                cur.intersect(&IntervalSet::range(0, value)),
                cur.intersect(&IntervalSet::range(value + 1, u64::MAX)),
            ),
            BinOp::Gt => (
                cur.intersect(&IntervalSet::range(value + 1, u64::MAX)),
                cur.intersect(&IntervalSet::range(0, value)),
            ),
            BinOp::Ge => (
                cur.intersect(&IntervalSet::range(value, u64::MAX)),
                cur.intersect(&IntervalSet::range(0, value.saturating_sub(1))),
            ),
            _ => return None,
        };
        let hit = space.clone().with(field, hit_set);
        let miss = if miss_set.is_empty() {
            None
        } else {
            Some(space.clone().with(field, miss_set))
        };
        Some((hit, miss))
    }

    /// Handle `(pkt.f & MASK) == NET` and its negation for *contiguous*
    /// (CIDR-style) masks: the matching set is the single range
    /// `[NET&MASK, (NET&MASK) | !MASK]`.
    fn apply_prefix_literal(
        &self,
        space: &HeaderSpace,
        lit: &SymVal,
    ) -> Option<(HeaderSpace, Option<HeaderSpace>)> {
        let SymVal::Bin(op, a, b) = lit else {
            return None;
        };
        if !matches!(op, BinOp::Eq | BinOp::Ne) {
            return None;
        }
        // One side is (pkt.f & mask); the other evaluates concretely.
        let (masked, rhs) = match (&**a, &**b) {
            (SymVal::Bin(BinOp::BitAnd, _, _), _) => (&**a, &**b),
            (_, SymVal::Bin(BinOp::BitAnd, _, _)) => (&**b, &**a),
            _ => return None,
        };
        let SymVal::Bin(BinOp::BitAnd, ma, mb) = masked else {
            return None;
        };
        let dummy = nf_packet::Packet::default();
        let (field, mask) = match (&**ma, &**mb) {
            (SymVal::Pkt(f), m) | (m, SymVal::Pkt(f)) => {
                (*f, self.state.eval(m, &dummy).ok()?.as_int()?)
            }
            _ => return None,
        };
        let rhs_val = self.state.eval(rhs, &dummy).ok()?.as_int()?;
        let mask = mask as u64 & field.max_value();
        // Contiguous high-bits mask? (mask | (mask >> 1) ... yields no
        // holes ⇔ mask+lowbits+1 is a power of two span.)
        let inv = !mask & field.max_value();
        if mask & (inv + 1) != 0 && inv != field.max_value() {
            // e.g. 0xff00ff00 — not CIDR, bail to over-approximation.
            if (inv + 1) & inv != 0 {
                return None;
            }
        }
        if (inv + 1) & inv != 0 {
            return None; // !mask not of form 2^k - 1
        }
        let base = (rhs_val as u64) & mask;
        let lo = base;
        let hi = base | inv;
        let cur = space.get(field);
        let in_range = cur.intersect(&IntervalSet::range(lo, hi));
        let below = if lo > 0 {
            cur.intersect(&IntervalSet::range(0, lo - 1))
        } else {
            IntervalSet::range(1, 0)
        };
        let above = cur.intersect(&IntervalSet::range(hi + 1, u64::MAX));
        let mut outside = below;
        outside.ranges.extend(above.ranges);
        let (hit_set, miss_set) = if *op == BinOp::Eq {
            (in_range, outside)
        } else {
            (outside, in_range)
        };
        let hit = space.clone().with(field, hit_set);
        let miss = if miss_set.is_empty() {
            None
        } else {
            Some(space.clone().with(field, miss_set))
        };
        Some((hit, miss))
    }

    /// Decompose `pkt.f ⋈ rhs` where rhs evaluates concretely under the
    /// snapshot (configs, state scalars).
    fn field_cmp_const(&self, lit: &SymVal) -> Option<(Field, BinOp, u64)> {
        let SymVal::Bin(op, a, b) = lit else {
            return None;
        };
        let (field, const_side, op) = match (&**a, &**b) {
            (SymVal::Pkt(f), rhs) => (*f, rhs, *op),
            (lhs, SymVal::Pkt(f)) => (*f, lhs, flip(*op)),
            _ => return None,
        };
        let value = self
            .state
            .eval(const_side, &nf_packet::Packet::default())
            .ok()?
            .as_int()?;
        u64::try_from(value).ok().map(|v| (field, op, v))
    }

    /// Expand a packet-keyed map-membership literal against concrete map
    /// contents: `(pkt.a, pkt.b) in m` matches exactly the point
    /// sub-spaces of the stored keys.
    fn apply_state_literal(
        &self,
        space: &HeaderSpace,
        lit: &SymVal,
    ) -> Option<(Vec<HeaderSpace>, Vec<HeaderSpace>)> {
        let (negated, map, key) = match lit {
            SymVal::MapContains(m, k) => (false, m, k),
            SymVal::Not(inner) => match &**inner {
                SymVal::MapContains(m, k) => (true, m, k),
                _ => return None,
            },
            _ => return None,
        };
        // Key must be a tuple/var of packet fields.
        let fields = key.key_fields()?;
        let mut keys: Vec<_> = self.state.map(map)?.keys().collect();
        keys.sort_unstable();
        // Point spaces for each stored key, in key order.
        let mut points = Vec::new();
        for &k in &keys {
            let vals: Vec<u64> = match k {
                nfl_interp::ValueKey::Tuple(t) => t.iter().map(|v| *v as u64).collect(),
                nfl_interp::ValueKey::Int(v) => vec![*v as u64],
                _ => continue,
            };
            if vals.len() != fields.len() {
                continue;
            }
            let mut sub = space.clone();
            let mut ok = true;
            for (f, v) in fields.iter().zip(&vals) {
                let refined = sub.get(*f).intersect(&IntervalSet::point(*v));
                if refined.is_empty() {
                    ok = false;
                    break;
                }
                sub = sub.with(*f, refined);
            }
            if ok {
                points.push(sub);
            }
        }
        if negated {
            // Complement of finitely many points: subtract each point
            // from the space field-wise (approximate by removing the
            // first key field's points — sound for disjointness checks).
            let mut miss_space = space.clone();
            for k in keys {
                if let nfl_interp::ValueKey::Tuple(t) = k {
                    if let (Some(f), Some(v)) = (fields.first(), t.first()) {
                        miss_space = miss_space
                            .clone()
                            .with(*f, miss_space.get(*f).remove_point(*v as u64));
                    }
                } else if let nfl_interp::ValueKey::Int(v) = k {
                    if let Some(f) = fields.first() {
                        miss_space = miss_space
                            .clone()
                            .with(*f, miss_space.get(*f).remove_point(*v as u64));
                    }
                }
            }
            Some((vec![miss_space], points))
        } else {
            Some((points, vec![space.clone()]))
        }
    }

    /// Apply rewrites to a matching space. Rewrites to values computable
    /// under the snapshot become points; anything else leaves the field
    /// unconstrained (over-approximation).
    fn rewrite_space(&self, space: &HeaderSpace, rewrites: &[(Field, SymVal)]) -> HeaderSpace {
        let mut out = space.clone();
        for (field, term) in rewrites {
            match self.state.eval(term, &nf_packet::Packet::default()) {
                Ok(Value::Int(v)) if v >= 0 => {
                    out = out.with(*field, IntervalSet::point(v as u64));
                }
                _ => {
                    out = out.with(*field, IntervalSet::full(*field));
                }
            }
        }
        out
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Push a space through a chain of stateful NFs; returns the spaces
/// emerging from the far end.
pub fn chain_reachable(chain: &[StatefulNf], input: &HeaderSpace) -> Vec<HeaderSpace> {
    let mut spaces = vec![input.clone()];
    for nf in chain {
        let mut next = Vec::new();
        for s in &spaces {
            next.extend(nf.reachable_through(s));
        }
        spaces = next;
        if spaces.is_empty() {
            break;
        }
    }
    spaces
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfactor_core::Pipeline;
    use nfl_interp::Value;

    fn fw_nf(pinholes: Vec<(u32, u16, u32, u16)>) -> StatefulNf {
        let syn = Pipeline::builder()
            .name("fw")
            .build()
            .unwrap()
            .synthesize(&nf_corpus::firewall::source())
            .unwrap();
        let mut state = ModelState::default()
            .with_config("PROTECTED_NET", Value::Int(0x0a000000))
            .with_config("PROTECTED_MASK", Value::Int(0xff000000))
            .with_config("ALLOW_PORT", Value::Int(80))
            .with_scalar("out_count", Value::Int(0))
            .with_scalar("in_count", Value::Int(0))
            .with_scalar("blocked_count", Value::Int(0))
            .with_map("pinholes");
        for (a, b, c, d) in pinholes {
            state.insert_entry(
                "pinholes",
                nfl_interp::ValueKey::Tuple(vec![
                    i64::from(a),
                    i64::from(b),
                    i64::from(c),
                    i64::from(d),
                ]),
                Value::Int(1),
            );
        }
        StatefulNf {
            model: syn.model,
            state,
        }
    }

    #[test]
    fn interval_set_algebra() {
        let a = IntervalSet::range(10, 20);
        let b = IntervalSet::range(15, 30);
        assert_eq!(a.intersect(&b), IntervalSet::range(15, 20));
        let holed = a.remove_point(15);
        assert!(!holed.contains(15));
        assert!(holed.contains(14) && holed.contains(16));
        assert_eq!(holed.size(), 10);
        assert!(IntervalSet::range(5, 4).is_empty());
    }

    #[test]
    fn stateless_fraction_of_firewall() {
        // With NO pinholes, outside traffic reaches inside only on the
        // allow port.
        let nf = fw_nf(vec![]);
        let outside = HeaderSpace::all().with(
            Field::IpSrc,
            IntervalSet::range(0x0b000000, 0xffffffff), // not 10/8
        );
        let through = nf.reachable_through(&outside);
        assert!(!through.is_empty());
        for space in &through {
            assert!(
                space.get(Field::TcpDport).contains(80),
                "only port 80 passes: {space}"
            );
            assert_eq!(space.get(Field::TcpDport).size(), 1);
        }
    }

    #[test]
    fn stateful_pinhole_admits_reply() {
        // Pinhole: 8.8.8.8:443 -> 10.0.0.5:5000 (reverse of an outbound
        // flow). The reply space reaches; other ports still blocked.
        let nf = fw_nf(vec![(0x08080808, 443, 0x0a000005, 5000)]);
        let reply = HeaderSpace::all()
            .with_point(Field::IpSrc, 0x08080808)
            .with_point(Field::TcpSport, 443)
            .with_point(Field::IpDst, 0x0a000005)
            .with_point(Field::TcpDport, 5000);
        assert!(
            !nf.reachable_through(&reply).is_empty(),
            "pinholed reply passes"
        );
        let other = HeaderSpace::all()
            .with_point(Field::IpSrc, 0x08080808)
            .with_point(Field::TcpSport, 444)
            .with_point(Field::IpDst, 0x0a000005)
            .with_point(Field::TcpDport, 5000);
        assert!(
            nf.reachable_through(&other).is_empty(),
            "non-pinholed port still blocked — stateless HSA cannot tell these apart"
        );
    }

    #[test]
    fn outbound_always_passes() {
        let nf = fw_nf(vec![]);
        let inside = HeaderSpace::all()
            .with(Field::IpSrc, IntervalSet::range(0x0a000000, 0x0affffff))
            .with_point(Field::TcpDport, 9999);
        assert!(!nf.reachable_through(&inside).is_empty());
    }

    #[test]
    fn transfer_partitions_input() {
        // Matched spaces plus the default-drop leftover must cover the
        // whole input for a total model.
        let nf = fw_nf(vec![]);
        let input = HeaderSpace::all().with_point(Field::IpSrc, 0x0b000001);
        let results = nf.transfer(&input);
        assert!(!results.is_empty());
        let drops = results.iter().filter(|r| r.output.is_none()).count();
        let fwds = results.iter().filter(|r| r.output.is_some()).count();
        assert!(drops > 0 && fwds > 0, "{results:?}");
    }

    #[test]
    fn chain_composes() {
        let fw = fw_nf(vec![]);
        let outside = HeaderSpace::all()
            .with(Field::IpSrc, IntervalSet::range(0x0b000000, 0xffffffff))
            .with_point(Field::TcpDport, 80);
        let through = chain_reachable(&[fw.clone(), fw], &outside);
        assert!(!through.is_empty(), "port 80 passes two firewalls");
    }

    #[test]
    fn header_space_display_and_membership() {
        let hs = HeaderSpace::all().with_point(Field::TcpDport, 80);
        let pkt = nf_packet::Packet::tcp(1, 2, 3, 80, nf_packet::TcpFlags::syn());
        assert!(hs.contains_packet(&pkt));
        let pkt2 = nf_packet::Packet::tcp(1, 2, 3, 81, nf_packet::TcpFlags::syn());
        assert!(!hs.contains_packet(&pkt2));
        assert!(hs.to_string().contains("tcp.dport"));
    }
}
