//! From verdicts to placement: turning a [`ShardingReport`] into an
//! executable [`ShardPlan`].
//!
//! The lint says *what kind* of state each variable is; the plan says
//! *where it lives* when the NF runs on `n` shards:
//!
//! | verdict    | placement                                          |
//! |------------|----------------------------------------------------|
//! | per-flow   | partitioned — each shard owns the entries its      |
//! |            | dispatch hash steers to it                         |
//! | read-only  | replicated — copied into every shard at startup    |
//! | log-only   | per-shard — independent copies, merged offline     |
//! | shared     | global — one copy behind an ordered lock           |
//!
//! The plan also combines the per-map [`DispatchKey`]s into one NF-wide
//! dispatch. Hashing a *subset* of a map's key fields is always sound
//! (the shard stays a function of the entry key), so plain keys combine
//! by field intersection; a symmetric key must be used exactly as
//! derived, so any mix of symmetric with other shapes falls back to the
//! global lock, as does any per-flow map whose key shape the lint could
//! not resolve.

use nf_packet::Field;
use nfl_lint::sharding::is_flow_field;
use nfl_lint::{DispatchKey, ShardingReport, StateShard};
use std::collections::BTreeSet;

/// Where state of a verdict lives at runtime (the placement column of
/// [`ShardPlan::render_table`]).
fn placement(verdict: StateShard) -> &'static str {
    match verdict {
        StateShard::PerFlow => "partitioned",
        StateShard::ReadOnly => "replicated",
        StateShard::LogOnly => "per-shard",
        StateShard::Shared => "global-lock",
    }
}

/// The executable placement decision for one NF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Each state's verdict, in declaration order.
    states: Vec<(String, StateShard)>,
    /// The NF-wide dispatch key when every shard runs independently,
    /// packets steered by it; `None` when at least one state needs
    /// cross-shard coupling and one evaluator steps every packet in
    /// arrival order.
    dispatch: Option<DispatchKey>,
    /// Why the plan fell back to the global lock (empty when
    /// partitioned).
    fallback_reason: String,
}

/// The dispatch used when the NF has no per-flow map at all (stateless
/// or log-only NFs): any stable distribution is correct, so spread load
/// over the full flow tuple.
fn full_tuple() -> DispatchKey {
    DispatchKey::new(
        vec![
            Field::IpSrc,
            Field::IpDst,
            Field::IpProto,
            Field::TcpSport,
            Field::TcpDport,
        ],
        false,
    )
}

impl ShardPlan {
    /// Derive the plan for `report`. Infallible: un-partitionable NFs
    /// get a correct (if slower) global-lock plan, never an error.
    pub fn from_report(report: &ShardingReport) -> ShardPlan {
        let states = report
            .states()
            .iter()
            .map(|s| (s.var().to_string(), s.verdict()))
            .collect();
        let (dispatch, fallback_reason) = match report
            .states()
            .iter()
            .find(|s| s.verdict() == StateShard::Shared)
        {
            Some(s) => (None, format!("state `{}` is shared across flows", s.var())),
            None => match combine_dispatch(report) {
                Ok(d) => (Some(d), String::new()),
                Err(why) => (None, why),
            },
        };
        // Under the global lock every state is effectively global; the
        // table keeps the per-verdict placements (they say what *would*
        // partition), but the dispatch is what the engine obeys.
        ShardPlan {
            states,
            dispatch,
            fallback_reason,
        }
    }

    /// The dispatch key, when the plan partitions.
    pub fn dispatch(&self) -> Option<&DispatchKey> {
        self.dispatch.as_ref()
    }

    /// Whether packets fan out across shards without locking.
    pub fn partitioned(&self) -> bool {
        self.dispatch.is_some()
    }

    /// Why the plan is global-locked (empty when partitioned).
    pub fn fallback_reason(&self) -> &str {
        &self.fallback_reason
    }

    /// Human-readable placement table for the CLI.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match &self.dispatch {
            Some(d) => {
                let _ = writeln!(out, "mode: partitioned [dispatch: {}]", d.render());
            }
            None => {
                let _ = writeln!(out, "mode: global-lock ({})", self.fallback_reason);
            }
        }
        if self.states.is_empty() {
            let _ = writeln!(out, "  (no state)");
            return out;
        }
        let width = self.states.iter().map(|(v, _)| v.len()).max().unwrap_or(0);
        for (var, verdict) in &self.states {
            let _ = writeln!(
                out,
                "  {var:<width$}  {:<9}  {}",
                verdict.as_str(),
                placement(*verdict),
            );
        }
        out
    }
}

/// Combine the per-map dispatch keys into one NF-wide dispatch, or say
/// why that is impossible.
fn combine_dispatch(report: &ShardingReport) -> Result<DispatchKey, String> {
    let mut plain: Option<BTreeSet<Field>> = None;
    let mut symmetric: Option<DispatchKey> = None;
    let mut any_map = false;
    for s in report.states() {
        if s.verdict() != StateShard::PerFlow || s.key_sites() == 0 {
            continue;
        }
        any_map = true;
        let Some(d) = s.dispatch() else {
            return Err(format!(
                "per-flow map `{}` has no derivable dispatch key",
                s.var()
            ));
        };
        if d.symmetric() {
            match &symmetric {
                None => symmetric = Some(d.clone()),
                Some(prev) if prev == d => {}
                Some(_) => {
                    return Err(format!(
                        "map `{}` needs a different symmetric dispatch",
                        s.var()
                    ));
                }
            }
        } else {
            let fields: BTreeSet<Field> = d.fields().iter().copied().collect();
            plain = Some(match plain {
                None => fields,
                Some(acc) => acc.intersection(&fields).copied().collect(),
            });
        }
    }
    if !any_map {
        return Ok(full_tuple());
    }
    match (plain, symmetric) {
        (None, Some(sym)) => Ok(sym),
        (Some(fields), None) => {
            if fields.is_empty() {
                return Err("per-flow maps share no common dispatch field".into());
            }
            // Canonical field order keeps the combined key stable
            // whatever order the maps were declared in.
            let ordered: Vec<Field> = Field::ALL
                .iter()
                .copied()
                .filter(|f| is_flow_field(*f) && fields.contains(f))
                .collect();
            Ok(DispatchKey::new(ordered, false))
        }
        (Some(_), Some(_)) => {
            Err("mixing symmetric and plain per-flow maps cannot share one dispatch".into())
        }
        (None, None) => Ok(full_tuple()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_lint::lint_source;

    fn plan_of(src: &str) -> ShardPlan {
        ShardPlan::from_report(&lint_source("t", src).unwrap().sharding)
    }

    #[test]
    fn per_flow_nf_partitions() {
        let p = plan_of(
            r#"
            state buckets = map();
            fn cb(pkt: packet) {
                let src = pkt.ip.src;
                if src not in buckets { buckets[src] = 1; }
                if buckets[src] > 0 { send(pkt); }
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(p.partitioned());
        assert_eq!(p.dispatch().unwrap().fields(), &[Field::IpSrc]);
        assert!(p.render_table().contains("partitioned"));
    }

    #[test]
    fn shared_state_forces_global_lock() {
        let p = plan_of(
            r#"
            state next = 0;
            state m = map();
            fn cb(pkt: packet) {
                if next in m { drop(pkt); } else { m[next] = 1; send(pkt); }
                next = next + 1;
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(!p.partitioned());
        assert!(
            p.fallback_reason().contains("shared"),
            "{}",
            p.fallback_reason()
        );
        assert!(p.render_table().contains("global-lock"));
    }

    #[test]
    fn underivable_dispatch_forces_global_lock() {
        let p = plan_of(
            r#"
            state m = map();
            fn cb(pkt: packet) {
                let k = hash(pkt.ip.src) % 64;
                m[k] = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(!p.partitioned());
        assert!(
            p.fallback_reason().contains("no derivable dispatch"),
            "{}",
            p.fallback_reason()
        );
    }

    #[test]
    fn plain_keys_combine_by_intersection() {
        // One map keyed by (src, sport), another by src alone: src is
        // in both entry keys, so dispatching on src alone is sound for
        // both.
        let p = plan_of(
            r#"
            state a = map();
            state b = map();
            fn cb(pkt: packet) {
                a[(pkt.ip.src, pkt.tcp.sport)] = 1;
                b[pkt.ip.src] = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(p.partitioned());
        assert_eq!(p.dispatch().unwrap().fields(), &[Field::IpSrc]);
    }

    #[test]
    fn disjoint_plain_keys_force_global_lock() {
        let p = plan_of(
            r#"
            state a = map();
            state b = map();
            fn cb(pkt: packet) {
                a[pkt.ip.src] = 1;
                b[pkt.tcp.dport] = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(!p.partitioned());
        assert!(
            p.fallback_reason().contains("no common dispatch field"),
            "{}",
            p.fallback_reason()
        );
    }

    #[test]
    fn stateless_nf_uses_full_tuple() {
        let p = plan_of(
            r#"
            fn cb(pkt: packet) { send(pkt); }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(p.partitioned());
        assert_eq!(p.dispatch().unwrap().fields().len(), 5);
    }
}
