//! The SMT-lite constraint solver.
//!
//! The paper constrains the constraint language on purpose (§3.2: bounded
//! loops, few symbolic variables, techniques from Dobrescu/SymNet/BUZZ to
//! keep the branching space small). The path conditions NF slices produce
//! fall into a narrow fragment:
//!
//! * comparisons of a header/state variable (possibly plus a constant)
//!   against constants — `dp == 80`, `ttl < 1`,
//! * variable–variable equalities — `sp == dp`,
//! * bitmask tests — `flags & SYN != 0`,
//! * modular residues of uninterpreted terms — `hash(si) % N == i`,
//! * map-membership literals (kept consistent by the engine, re-checked
//!   here).
//!
//! The solver decides that fragment exactly (interval narrowing + holes +
//! union-find equalities + residue and bitmask facts) and answers
//! [`Verdict::Unknown`] on anything outside it — the engine treats
//! Unknown as satisfiable, which can only add spurious paths, never lose
//! real ones. [`Solver::model`] produces witness assignments used for
//! BUZZ-style test-packet generation (§4 Testing).

use crate::sym::SymVal;
use nfl_lang::BinOp;
use std::collections::{BTreeMap, HashMap};

/// Solver answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Definitely satisfiable within the understood fragment.
    Sat,
    /// Definitely unsatisfiable.
    Unsat,
    /// Outside the understood fragment; treated as possibly-sat.
    Unknown,
}

/// Per-variable knowledge accumulated from constraints.
#[derive(Debug, Clone)]
struct VarFacts {
    lo: i64,
    hi: i64,
    holes: Vec<i64>,
    /// `(modulus, residue)` equalities on this var.
    residues_eq: Vec<(i64, i64)>,
    /// `(modulus, residue)` disequalities.
    residues_ne: Vec<(i64, i64)>,
    /// Bits that must be zero.
    must_zero: i64,
    /// Masks that must contain at least one set bit.
    need_one: Vec<i64>,
    /// Exact masked-value requirements: `(mask, value)` with
    /// `v & mask == value`.
    bits_eq: Vec<(i64, i64)>,
    /// Masked-value exclusions: `v & mask != value`.
    bits_ne: Vec<(i64, i64)>,
    /// Values worth trying first during model generation.
    candidates: Vec<i64>,
}

impl Default for VarFacts {
    fn default() -> Self {
        VarFacts {
            lo: i64::MIN / 4,
            hi: i64::MAX / 4,
            holes: Vec::new(),
            residues_eq: Vec::new(),
            residues_ne: Vec::new(),
            must_zero: 0,
            need_one: Vec::new(),
            bits_eq: Vec::new(),
            bits_ne: Vec::new(),
            candidates: Vec::new(),
        }
    }
}

/// A normalised comparison side.
#[derive(Debug, Clone, PartialEq)]
enum Term {
    Const(i64),
    /// `var + offset`
    Affine(String, i64),
    /// `base % modulus` where base is a variable (possibly opaque).
    Mod(String, i64),
    /// `base & mask`.
    Bits(String, i64),
    Opaque,
}

/// The solver. Stateless; each call analyses one conjunction.
#[derive(Debug, Default, Clone, Copy)]
pub struct Solver;

impl Solver {
    /// Decide satisfiability of the conjunction of `constraints` (each a
    /// boolean [`SymVal`] asserted true).
    pub fn check(&self, constraints: &[SymVal]) -> Verdict {
        let mut st = State::default();
        let mut all_understood = true;
        for c in constraints {
            match st.assert_true(c) {
                Ok(understood) => all_understood &= understood,
                Err(()) => return Verdict::Unsat,
            }
        }
        if st.consistent() {
            if all_understood {
                Verdict::Sat
            } else {
                Verdict::Unknown
            }
        } else {
            Verdict::Unsat
        }
    }

    /// Produce a witness assignment for the free variables, using
    /// `domain` to bound each variable (e.g. packet-field widths).
    /// Returns `None` when the constraints are unsatisfiable. Variables
    /// in unrecognised constraints get best-effort values.
    pub fn model(
        &self,
        constraints: &[SymVal],
        domain: impl Fn(&str) -> (i64, i64),
    ) -> Option<HashMap<String, i64>> {
        let mut st = State::default();
        for c in constraints {
            if st.assert_true(c).is_err() {
                return None;
            }
        }
        if !st.consistent() {
            return None;
        }
        let mut model = HashMap::new();
        // Union-find roots get values first, members copy.
        let vars: Vec<String> = st.facts.keys().cloned().collect();
        for v in &vars {
            let root = st.find(v);
            if let std::collections::hash_map::Entry::Vacant(e) = model.entry(root.clone()) {
                let merged = st.merged_facts(&root);
                let (dlo, dhi) = domain(v);
                let val = pick_value(&merged, dlo, dhi)?;
                e.insert(val);
            }
        }
        for v in vars {
            let root = st.find(&v);
            let val = *model.get(&root).expect("root assigned");
            model.insert(v, val);
        }
        // Check pairwise disequalities.
        let diseq = st.diseq.clone();
        for (a, b) in &diseq {
            let va = model.get(&st.find(a)).copied();
            let vb = model.get(&st.find(b)).copied();
            if let (Some(x), Some(y)) = (va, vb) {
                if x == y {
                    // Nudge one side if its interval allows.
                    let root = st.find(b);
                    let mut f2 = st.merged_facts(&root);
                    f2.holes.push(x);
                    let (dlo, dhi) = domain(b);
                    let newv = pick_value(&f2, dlo, dhi)?;
                    model.insert(root.clone(), newv);
                    let members: Vec<String> = st.facts.keys().cloned().collect();
                    for v in members {
                        if st.find_ref(&v) == root {
                            model.insert(v, newv);
                        }
                    }
                }
            }
        }
        Some(model)
    }
}

#[derive(Debug, Default)]
struct State {
    facts: BTreeMap<String, VarFacts>,
    parent: HashMap<String, String>,
    diseq: Vec<(String, String)>,
    /// Map-membership literals: (map, key rendering) → polarity.
    map_facts: HashMap<(String, String), bool>,
    conflict: bool,
}

impl State {
    fn find(&mut self, v: &str) -> String {
        let p = match self.parent.get(v) {
            Some(p) if p != v => p.clone(),
            _ => return v.to_string(),
        };
        let root = self.find(&p);
        self.parent.insert(v.to_string(), root.clone());
        root
    }

    fn find_ref(&self, v: &str) -> String {
        let mut cur = v.to_string();
        while let Some(p) = self.parent.get(&cur) {
            if *p == cur {
                break;
            }
            cur = p.clone();
        }
        cur
    }

    fn union(&mut self, a: &str, b: &str) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }

    fn fact(&mut self, v: &str) -> &mut VarFacts {
        self.facts.entry(v.to_string()).or_default()
    }

    fn merged_facts(&self, root: &str) -> VarFacts {
        let mut out = VarFacts::default();
        for (v, f) in &self.facts {
            if self.find_ref(v) == root {
                out.lo = out.lo.max(f.lo);
                out.hi = out.hi.min(f.hi);
                out.holes.extend(f.holes.iter().copied());
                out.residues_eq.extend(f.residues_eq.iter().copied());
                out.residues_ne.extend(f.residues_ne.iter().copied());
                out.must_zero |= f.must_zero;
                out.need_one.extend(f.need_one.iter().copied());
                out.bits_eq.extend(f.bits_eq.iter().copied());
                out.bits_ne.extend(f.bits_ne.iter().copied());
                out.candidates.extend(f.candidates.iter().copied());
            }
        }
        out
    }

    /// Returns Ok(understood?) or Err(()) on definite conflict.
    fn assert_true(&mut self, c: &SymVal) -> Result<bool, ()> {
        match c {
            SymVal::Bool(true) => Ok(true),
            SymVal::Bool(false) => Err(()),
            SymVal::Bin(BinOp::And, a, b) => {
                let ua = self.assert_true(a)?;
                let ub = self.assert_true(b)?;
                Ok(ua && ub)
            }
            SymVal::Not(inner) => match &**inner {
                SymVal::MapContains(m, k) => {
                    self.map_fact(m, k, false)?;
                    Ok(true)
                }
                // General negation: try the inverted comparison.
                other => {
                    let inv = SymVal::negate(other.clone());
                    if matches!(inv, SymVal::Not(_)) {
                        Ok(false) // cannot invert further; unknown
                    } else {
                        self.assert_true(&inv)
                    }
                }
            },
            SymVal::MapContains(m, k) => {
                self.map_fact(m, k, true)?;
                Ok(true)
            }
            SymVal::Bin(op, a, b) if is_cmp(*op) => self.assert_cmp(*op, a, b),
            other => match other.var_name() {
                // A bare boolean variable: constrain to 1.
                Some(v) => {
                    let f = self.fact(&v);
                    f.lo = f.lo.max(1);
                    f.hi = f.hi.min(1);
                    Ok(true)
                }
                None => Ok(false),
            },
        }
    }

    fn map_fact(&mut self, map: &str, key: &SymVal, polarity: bool) -> Result<(), ()> {
        let k = (map.to_string(), key.to_string());
        if let Some(prev) = self.map_facts.insert(k, polarity) {
            if prev != polarity {
                return Err(());
            }
        }
        Ok(())
    }

    fn assert_cmp(&mut self, op: BinOp, a: &SymVal, b: &SymVal) -> Result<bool, ()> {
        let ta = normalise(a);
        let tb = normalise(b);
        use BinOp::*;
        match (&ta, &tb) {
            (Term::Const(x), Term::Const(y)) => {
                let holds = match op {
                    Eq => x == y,
                    Ne => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    _ => return Ok(false),
                };
                if holds {
                    Ok(true)
                } else {
                    Err(())
                }
            }
            (Term::Affine(v, off), Term::Const(c)) => self.affine_cmp(op, v, *off, *c),
            (Term::Const(c), Term::Affine(v, off)) => self.affine_cmp(flip(op), v, *off, *c),
            (Term::Mod(v, m), Term::Const(c)) => self.mod_cmp(op, v, *m, *c),
            (Term::Const(c), Term::Mod(v, m)) => self.mod_cmp(flip(op), v, *m, *c),
            (Term::Bits(v, mask), Term::Const(c)) => self.bits_cmp(op, v, *mask, *c),
            (Term::Const(c), Term::Bits(v, mask)) => self.bits_cmp(flip(op), v, *mask, *c),
            (Term::Affine(va, oa), Term::Affine(vb, ob)) => {
                if oa == ob {
                    match op {
                        Eq => {
                            self.union(va, vb);
                            self.fact(va);
                            self.fact(vb);
                            Ok(true)
                        }
                        Ne => {
                            self.fact(va);
                            self.fact(vb);
                            self.diseq.push((va.clone(), vb.clone()));
                            Ok(true)
                        }
                        _ => Ok(false),
                    }
                } else {
                    Ok(false)
                }
            }
            _ => Ok(false),
        }
    }

    fn affine_cmp(&mut self, op: BinOp, v: &str, off: i64, c: i64) -> Result<bool, ()> {
        // var + off  op  c   ⇔   var  op  c - off
        let c = c - off;
        let f = self.fact(v);
        use BinOp::*;
        match op {
            Eq => {
                f.lo = f.lo.max(c);
                f.hi = f.hi.min(c);
            }
            Ne => f.holes.push(c),
            Lt => f.hi = f.hi.min(c - 1),
            Le => f.hi = f.hi.min(c),
            Gt => f.lo = f.lo.max(c + 1),
            Ge => f.lo = f.lo.max(c),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn mod_cmp(&mut self, op: BinOp, v: &str, m: i64, c: i64) -> Result<bool, ()> {
        if m <= 0 {
            return Ok(false);
        }
        let f = self.fact(v);
        use BinOp::*;
        match op {
            Eq => {
                if !(0..m).contains(&c) {
                    return Err(());
                }
                f.residues_eq.push((m, c));
                Ok(true)
            }
            Ne => {
                f.residues_ne.push((m, c));
                Ok(true)
            }
            // base % m < c etc.: satisfiable iff some residue in range.
            Lt => {
                if c <= 0 {
                    Err(())
                } else {
                    Ok(true)
                }
            }
            Le => {
                if c < 0 {
                    Err(())
                } else {
                    Ok(true)
                }
            }
            Gt => {
                if c >= m - 1 {
                    Err(())
                } else {
                    Ok(true)
                }
            }
            Ge => {
                if c >= m {
                    Err(())
                } else {
                    Ok(true)
                }
            }
            _ => Ok(false),
        }
    }

    fn bits_cmp(&mut self, op: BinOp, v: &str, mask: i64, c: i64) -> Result<bool, ()> {
        let f = self.fact(v);
        use BinOp::*;
        match (op, c) {
            (Eq, 0) => {
                f.must_zero |= mask;
                Ok(true)
            }
            (Ne, 0) | (Gt, 0) => {
                f.need_one.push(mask);
                Ok(true)
            }
            (Eq, c) if c != 0 => {
                // (v & mask) == c : bits of c must be inside mask.
                if c & !mask != 0 {
                    return Err(());
                }
                f.bits_eq.push((mask, c));
                f.candidates.push(c);
                Ok(true)
            }
            (Ne, c) if c != 0 => {
                f.bits_ne.push((mask, c));
                // Values whose masked bits are zero avoid c (c != 0).
                f.candidates.push(0);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn consistent(&self) -> bool {
        if self.conflict {
            return false;
        }
        // Evaluate merged facts per union-find class.
        let mut roots: Vec<String> = Vec::new();
        for v in self.facts.keys() {
            let r = self.find_ref(v);
            if !roots.contains(&r) {
                roots.push(r);
            }
        }
        for r in roots {
            let f = self.merged_facts(&r);
            if facts_empty(&f) {
                return false;
            }
        }
        true
    }
}

fn facts_empty(f: &VarFacts) -> bool {
    if f.lo > f.hi {
        return true;
    }
    // Residue conflicts: two different required residues mod the same m.
    for (i, (m1, r1)) in f.residues_eq.iter().enumerate() {
        for (m2, r2) in &f.residues_eq[i + 1..] {
            if m1 == m2 && r1 != r2 {
                return true;
            }
        }
        if f.residues_ne.iter().any(|(m, r)| m == m1 && r == r1) {
            return true;
        }
    }
    // Bit conflicts: a needed mask entirely forced to zero.
    for need in &f.need_one {
        if need & !f.must_zero == 0 {
            return true;
        }
    }
    // Exact-mask conflicts: same mask, different required values; or a
    // required value intersecting must_zero; or eq contradicting ne.
    for (i, (m1, v1)) in f.bits_eq.iter().enumerate() {
        if v1 & f.must_zero != 0 {
            return true;
        }
        for (m2, v2) in &f.bits_eq[i + 1..] {
            if m1 == m2 && v1 != v2 {
                return true;
            }
        }
        if f.bits_ne.iter().any(|(m, v)| m == m1 && v == v1) {
            return true;
        }
    }
    // Point interval swallowed by a hole.
    if f.lo == f.hi && f.holes.contains(&f.lo) {
        return true;
    }
    // Small interval fully covered by holes.
    if f.hi.saturating_sub(f.lo) < 1024 {
        let count = (f.lo..=f.hi).filter(|v| !f.holes.contains(v)).count();
        if count == 0 {
            return true;
        }
    }
    false
}

fn pick_value(f: &VarFacts, dlo: i64, dhi: i64) -> Option<i64> {
    let lo = f.lo.max(dlo);
    let hi = f.hi.min(dhi);
    if lo > hi {
        return None;
    }
    let residue_ok = |v: i64| {
        f.residues_eq.iter().all(|(m, r)| v.rem_euclid(*m) == *r)
            && f.residues_ne.iter().all(|(m, r)| v.rem_euclid(*m) != *r)
    };
    let bits_ok = |v: i64| {
        v & f.must_zero == 0
            && f.need_one.iter().all(|mask| v & mask != 0)
            && f.bits_eq.iter().all(|(m, c)| v & m == *c)
            && f.bits_ne.iter().all(|(m, c)| v & m != *c)
    };
    // Constraint-suggested candidates first (exact masked values are
    // unreachable by linear scanning over 32-bit domains).
    for &v in &f.candidates {
        if v >= lo && v <= hi && !f.holes.contains(&v) && residue_ok(v) && bits_ok(v) {
            return Some(v);
        }
    }
    // Scan a window from lo; NF constants are small so this terminates
    // fast in practice.
    let window = 65_536.min(hi.saturating_sub(lo).saturating_add(1));
    for v in lo..lo + window {
        if v > hi {
            break;
        }
        if !f.holes.contains(&v) && residue_ok(v) && bits_ok(v) {
            return Some(v);
        }
    }
    // Try hi downwards briefly (for upper-bounded picks).
    (hi - window.clamp(0, 1024)..=hi)
        .rev()
        .find(|&v| v >= lo && !f.holes.contains(&v) && residue_ok(v) && bits_ok(v))
}

fn is_cmp(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
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

/// Normalise a symbolic term into the solver fragment. Opaque terms
/// (hash, map reads, projections, symbolic array reads) become synthetic
/// variables named by their canonical rendering, so repeated occurrences
/// of the same term correlate.
fn normalise(v: &SymVal) -> Term {
    if let Some(name) = v.var_name() {
        return Term::Affine(name, 0);
    }
    match v {
        SymVal::Int(c) => Term::Const(*c),
        SymVal::Bool(b) => Term::Const(i64::from(*b)),
        SymVal::Bin(BinOp::Add, a, b) => match (normalise(a), normalise(b)) {
            (Term::Affine(v, o), Term::Const(c)) | (Term::Const(c), Term::Affine(v, o)) => {
                Term::Affine(v, o + c)
            }
            _ => opaque(v),
        },
        SymVal::Bin(BinOp::Sub, a, b) => match (normalise(a), normalise(b)) {
            (Term::Affine(va, o), Term::Const(c)) => Term::Affine(va, o - c),
            _ => opaque(v),
        },
        SymVal::Bin(BinOp::Mod, a, b) => match (&**a, normalise(b)) {
            (_, Term::Const(m)) if m > 0 => {
                Term::Mod(a.var_name().unwrap_or_else(|| format!("opaque:{a}")), m)
            }
            _ => opaque(v),
        },
        SymVal::Bin(BinOp::BitAnd, a, b) => match (normalise(a), normalise(b)) {
            (Term::Affine(va, 0), Term::Const(mask)) => Term::Bits(va, mask),
            (Term::Const(mask), Term::Affine(va, 0)) => Term::Bits(va, mask),
            _ => opaque(v),
        },
        SymVal::Hash(_) | SymVal::MapGet(..) | SymVal::Proj(..) | SymVal::ArrayGet(..) => {
            Term::Affine(format!("opaque:{v}"), 0)
        }
        _ => Term::Opaque,
    }
}

fn opaque(_v: &SymVal) -> Term {
    Term::Opaque
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(n: &str) -> SymVal {
        SymVal::var(n)
    }
    fn eq(a: SymVal, b: SymVal) -> SymVal {
        SymVal::Bin(BinOp::Eq, Box::new(a), Box::new(b))
    }
    fn ne(a: SymVal, b: SymVal) -> SymVal {
        SymVal::Bin(BinOp::Ne, Box::new(a), Box::new(b))
    }
    fn lt(a: SymVal, b: SymVal) -> SymVal {
        SymVal::Bin(BinOp::Lt, Box::new(a), Box::new(b))
    }
    fn gt(a: SymVal, b: SymVal) -> SymVal {
        SymVal::Bin(BinOp::Gt, Box::new(a), Box::new(b))
    }

    #[test]
    fn simple_sat_unsat() {
        let s = Solver;
        assert_eq!(s.check(&[eq(var("x"), SymVal::Int(5))]), Verdict::Sat);
        assert_eq!(
            s.check(&[eq(var("x"), SymVal::Int(5)), eq(var("x"), SymVal::Int(6))]),
            Verdict::Unsat
        );
        assert_eq!(
            s.check(&[eq(var("x"), SymVal::Int(5)), ne(var("x"), SymVal::Int(5))]),
            Verdict::Unsat
        );
    }

    #[test]
    fn interval_narrowing() {
        let s = Solver;
        assert_eq!(
            s.check(&[gt(var("x"), SymVal::Int(10)), lt(var("x"), SymVal::Int(12))]),
            Verdict::Sat // x = 11
        );
        assert_eq!(
            s.check(&[gt(var("x"), SymVal::Int(10)), lt(var("x"), SymVal::Int(11))]),
            Verdict::Unsat
        );
    }

    #[test]
    fn affine_offsets() {
        let s = Solver;
        // x + 1 == 5  ∧  x == 4 : sat
        let x_plus = SymVal::Bin(BinOp::Add, Box::new(var("x")), Box::new(SymVal::Int(1)));
        assert_eq!(
            s.check(&[
                eq(x_plus.clone(), SymVal::Int(5)),
                eq(var("x"), SymVal::Int(4))
            ]),
            Verdict::Sat
        );
        assert_eq!(
            s.check(&[eq(x_plus, SymVal::Int(5)), eq(var("x"), SymVal::Int(9))]),
            Verdict::Unsat
        );
    }

    #[test]
    fn var_var_equality_propagates() {
        let s = Solver;
        assert_eq!(
            s.check(&[
                eq(var("a"), var("b")),
                eq(var("a"), SymVal::Int(1)),
                eq(var("b"), SymVal::Int(2)),
            ]),
            Verdict::Unsat
        );
        assert_eq!(
            s.check(&[
                eq(var("a"), var("b")),
                eq(var("a"), SymVal::Int(1)),
                eq(var("b"), SymVal::Int(1)),
            ]),
            Verdict::Sat
        );
    }

    #[test]
    fn hash_mod_residues() {
        let s = Solver;
        let h = SymVal::Bin(
            BinOp::Mod,
            Box::new(SymVal::Hash(Box::new(var("pkt.ip.src")))),
            Box::new(SymVal::Int(2)),
        );
        // hash % 2 == 0 is satisfiable; == 5 is not (5 ∉ [0,2)).
        assert_eq!(s.check(&[eq(h.clone(), SymVal::Int(0))]), Verdict::Sat);
        assert_eq!(s.check(&[eq(h.clone(), SymVal::Int(5))]), Verdict::Unsat);
        // Conflicting residues for the same opaque base.
        assert_eq!(
            s.check(&[eq(h.clone(), SymVal::Int(0)), eq(h.clone(), SymVal::Int(1))]),
            Verdict::Unsat
        );
        // Residue eq + matching ne conflicts.
        assert_eq!(
            s.check(&[eq(h.clone(), SymVal::Int(0)), ne(h, SymVal::Int(0))]),
            Verdict::Unsat
        );
    }

    #[test]
    fn bitmask_facts() {
        let s = Solver;
        let syn = SymVal::Bin(
            BinOp::BitAnd,
            Box::new(var("pkt.tcp.flags")),
            Box::new(SymVal::Int(0x02)),
        );
        assert_eq!(s.check(&[ne(syn.clone(), SymVal::Int(0))]), Verdict::Sat);
        assert_eq!(
            s.check(&[ne(syn.clone(), SymVal::Int(0)), eq(syn, SymVal::Int(0))]),
            Verdict::Unsat
        );
    }

    #[test]
    fn map_fact_consistency() {
        let s = Solver;
        let k = SymVal::Tuple(vec![var("pkt.ip.src"), var("pkt.tcp.sport")]);
        let c = SymVal::MapContains("nat".into(), Box::new(k.clone()));
        assert_eq!(s.check(std::slice::from_ref(&c)), Verdict::Sat);
        assert_eq!(
            s.check(&[c.clone(), SymVal::Not(Box::new(c))]),
            Verdict::Unsat
        );
    }

    #[test]
    fn unknown_on_exotic() {
        let s = Solver;
        // x * y == 42 is outside the fragment.
        let c = eq(
            SymVal::Bin(BinOp::Mul, Box::new(var("x")), Box::new(var("y"))),
            SymVal::Int(42),
        );
        assert_eq!(s.check(&[c]), Verdict::Unknown);
    }

    #[test]
    fn model_generation_satisfies() {
        let s = Solver;
        let cs = vec![
            gt(var("x"), SymVal::Int(100)),
            lt(var("x"), SymVal::Int(110)),
            ne(var("x"), SymVal::Int(101)),
            eq(var("y"), var("x")),
        ];
        let m = s.model(&cs, |_| (0, 65535)).unwrap();
        let x = m["x"];
        assert!(x > 100 && x < 110 && x != 101);
        assert_eq!(m["y"], x);
    }

    #[test]
    fn model_respects_domain() {
        let s = Solver;
        let m = s.model(&[gt(var("pkt.tcp.dport"), SymVal::Int(70000))], |_| {
            (0, 65535)
        });
        assert!(m.is_none(), "port cannot exceed its domain");
    }

    #[test]
    fn model_with_bits() {
        let s = Solver;
        let syn = SymVal::Bin(
            BinOp::BitAnd,
            Box::new(var("f")),
            Box::new(SymVal::Int(0x02)),
        );
        let m = s.model(&[ne(syn, SymVal::Int(0))], |_| (0, 63)).unwrap();
        assert!(m["f"] & 0x02 != 0);
    }

    #[test]
    fn model_with_diseq_nudges() {
        let s = Solver;
        let cs = vec![
            eq(var("a"), SymVal::Int(5)),
            ne(var("a"), var("b")),
            gt(var("b"), SymVal::Int(4)),
            lt(var("b"), SymVal::Int(7)),
        ];
        let m = s.model(&cs, |_| (0, 100)).unwrap();
        assert_ne!(m["a"], m["b"]);
        assert_eq!(m["a"], 5);
        assert_eq!(m["b"], 6);
    }

    #[test]
    fn residue_model() {
        let s = Solver;
        let h = SymVal::Bin(
            BinOp::Mod,
            Box::new(SymVal::Hash(Box::new(var("src")))),
            Box::new(SymVal::Int(3)),
        );
        let m = s.model(&[eq(h, SymVal::Int(2))], |_| (0, 1 << 30)).unwrap();
        let opaque_key = m
            .keys()
            .find(|k| k.starts_with("opaque:"))
            .expect("opaque var assigned");
        assert_eq!(m[opaque_key].rem_euclid(3), 2);
    }
}
