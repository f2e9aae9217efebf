//! Deterministic fault injection for the shard runtime.
//!
//! A [`FaultPlan`] is a finite set of [`FaultPoint`]s, each addressed by
//! `(shard, nth)` — *the `nth` packet shard `shard` handles*, counting
//! from 0 in that shard's own arrival order. Addressing by per-shard
//! ordinal (rather than global sequence number) makes a plan
//! deterministic across every execution mode: a shard receives its
//! packets in the same order whether the run is threaded, simulated
//! sequentially, or collapsed to a single shard, so the same plan
//! always hits the same packets.
//!
//! Plans are written in a tiny spec grammar (`nfactor run
//! --fault-plan <spec>`):
//!
//! ```text
//! plan  := point (',' point)*
//! point := kind '@' shard ':' nth (':' arg)?
//! kind  := 'panic' | 'err' | 'delay' | 'ring-overflow' | 'garbage'
//! shard := decimal shard index ('*' = every shard)
//! nth   := decimal per-shard packet ordinal, 0-based
//! arg   := decimal (delay: microseconds, default 200;
//!                   ring-overflow: forced-full attempts, default 2^20)
//! ```
//!
//! The kinds:
//!
//! * `panic` — the worker panics mid-eval; the supervision layer must
//!   catch it, roll back, and quarantine the packet.
//! * `err` — the evaluator reports a synthetic runtime error; on the
//!   compiled backend this exercises the compiled→model fallback, on
//!   the other backends the quarantine.
//! * `delay` — the worker stalls before eval (exposes ordering bugs and
//!   ring back-pressure; never changes observable output).
//! * `ring-overflow` — the dispatcher sees the shard's ring as full for
//!   `arg` consecutive attempts (exercises bounded retry-with-backoff
//!   and, past the retry deadline, drop-with-accounting).
//! * `garbage` — the packet is scrambled in flight (simulated memory
//!   corruption); the worker detects and quarantines it without eval.
//!
//! [`FaultPlan::random`] derives a seeded plan from the [`Rng`], so
//! property tests can sweep arbitrary plans reproducibly.

use crate::rng::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// What to inject at a fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the worker's eval path.
    Panic,
    /// Synthetic evaluator error (string error, no unwinding).
    EvalError,
    /// Stall the worker for the given number of microseconds.
    Delay(u64),
    /// Dispatcher sees the ring as full for this many attempts.
    RingOverflow(u64),
    /// Scramble the packet in flight; detected and quarantined.
    Garbage,
}

impl FaultKind {
    /// The spec-grammar keyword.
    pub fn keyword(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::EvalError => "err",
            FaultKind::Delay(_) => "delay",
            FaultKind::RingOverflow(_) => "ring-overflow",
            FaultKind::Garbage => "garbage",
        }
    }
}

/// Where a fault applies: one shard, or every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ShardSel {
    /// A specific shard index.
    One(usize),
    /// Every shard (`*` in the spec).
    Any,
}

impl ShardSel {
    fn matches(&self, shard: usize) -> bool {
        match self {
            ShardSel::One(s) => *s == shard,
            ShardSel::Any => true,
        }
    }
}

/// One injection: do `kind` when shard `shard` handles its `nth`
/// packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    /// Which shard(s) the fault targets.
    pub shard: ShardSel,
    /// The per-shard packet ordinal (0-based) the fault fires on.
    pub nth: u64,
    /// What to inject.
    pub kind: FaultKind,
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shard {
            ShardSel::One(s) => write!(f, "{}@{s}:{}", self.kind.keyword(), self.nth)?,
            ShardSel::Any => write!(f, "{}@*:{}", self.kind.keyword(), self.nth)?,
        }
        match self.kind {
            FaultKind::Delay(us) => write!(f, ":{us}"),
            FaultKind::RingOverflow(n) => write!(f, ":{n}"),
            _ => Ok(()),
        }
    }
}

/// Default stall for `delay` points without an argument (µs).
pub const DEFAULT_DELAY_US: u64 = 200;
/// Default forced-full attempts for `ring-overflow` points without an
/// argument — far past any sane retry deadline, so the packet drops.
pub const DEFAULT_OVERFLOW_ATTEMPTS: u64 = 1 << 20;

/// A deterministic set of fault points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    points: Vec<FaultPoint>,
    /// `(shard, nth) -> indices into points` for exact-shard points;
    /// wildcard points are indexed by `nth` alone.
    exact: BTreeMap<(usize, u64), Vec<usize>>,
    any: BTreeMap<u64, Vec<usize>>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Add one fault point.
    pub fn push(&mut self, p: FaultPoint) {
        let i = self.points.len();
        match p.shard {
            ShardSel::One(s) => self.exact.entry((s, p.nth)).or_default().push(i),
            ShardSel::Any => self.any.entry(p.nth).or_default().push(i),
        }
        self.points.push(p);
    }

    /// All points, in insertion order.
    pub fn points(&self) -> &[FaultPoint] {
        &self.points
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The faults that fire when `shard` handles its `nth` packet, in
    /// insertion order. The point indices already encode the shard
    /// match: exact entries are keyed by `(shard, nth)`, wildcard
    /// entries by `nth` alone and match every shard.
    pub fn at(&self, shard: usize, nth: u64) -> impl Iterator<Item = FaultKind> + '_ {
        debug_assert!(self
            .exact
            .get(&(shard, nth))
            .map(|v| v.iter().all(|&i| self.points[i].shard.matches(shard)))
            .unwrap_or(true));
        let mut idx: Vec<usize> = self
            .exact
            .get(&(shard, nth))
            .into_iter()
            .chain(self.any.get(&nth))
            .flatten()
            .copied()
            .collect();
        idx.sort_unstable();
        idx.into_iter().map(|i| self.points[i].kind)
    }

    /// Shorthand: does any *eval-side* fault fire at `(shard, nth)`?
    pub fn fires(&self, shard: usize, nth: u64) -> bool {
        self.at(shard, nth).next().is_some()
    }

    /// Parse the spec grammar (see the module docs). Whitespace around
    /// points is tolerated; an empty spec is an empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for raw in spec.split(',') {
            let point = raw.trim();
            if point.is_empty() {
                continue;
            }
            let (kind_kw, addr) = point
                .split_once('@')
                .ok_or_else(|| format!("fault point `{point}`: expected kind@shard:nth"))?;
            let mut parts = addr.split(':');
            let shard_raw = parts
                .next()
                .ok_or_else(|| format!("fault point `{point}`: missing shard"))?;
            let nth_raw = parts
                .next()
                .ok_or_else(|| format!("fault point `{point}`: missing packet ordinal"))?;
            let arg_raw = parts.next();
            if parts.next().is_some() {
                return Err(format!("fault point `{point}`: too many `:` segments"));
            }
            let shard = if shard_raw == "*" {
                ShardSel::Any
            } else {
                ShardSel::One(
                    shard_raw
                        .parse::<usize>()
                        .map_err(|_| format!("fault point `{point}`: bad shard `{shard_raw}`"))?,
                )
            };
            let nth = nth_raw
                .parse::<u64>()
                .map_err(|_| format!("fault point `{point}`: bad ordinal `{nth_raw}`"))?;
            let arg = match arg_raw {
                Some(a) => Some(
                    a.parse::<u64>()
                        .map_err(|_| format!("fault point `{point}`: bad argument `{a}`"))?,
                ),
                None => None,
            };
            let kind = match kind_kw.trim() {
                "panic" => FaultKind::Panic,
                "err" => FaultKind::EvalError,
                "delay" => FaultKind::Delay(arg.unwrap_or(DEFAULT_DELAY_US)),
                "ring-overflow" => {
                    FaultKind::RingOverflow(arg.unwrap_or(DEFAULT_OVERFLOW_ATTEMPTS))
                }
                "garbage" => FaultKind::Garbage,
                other => {
                    return Err(format!(
                        "fault point `{point}`: unknown kind `{other}` \
                         (panic, err, delay, ring-overflow, garbage)"
                    ))
                }
            };
            if !matches!(kind, FaultKind::Delay(_) | FaultKind::RingOverflow(_)) && arg.is_some() {
                return Err(format!(
                    "fault point `{point}`: `{kind_kw}` takes no argument"
                ));
            }
            plan.push(FaultPoint { shard, nth, kind });
        }
        Ok(plan)
    }

    /// Render back to the spec grammar (parse ∘ render is identity).
    pub fn render(&self) -> String {
        self.points
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// A seeded random plan: `count` points over `shards` shards and
    /// per-shard ordinals below `max_nth`. Same seed, same plan.
    pub fn random(seed: u64, shards: usize, max_nth: u64, count: usize) -> FaultPlan {
        let mut rng = Rng::new(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let shard = ShardSel::One(rng.gen_index(shards.max(1)));
            let nth = rng.gen_below(max_nth.max(1));
            let kind = match rng.gen_below(5) {
                0 => FaultKind::Panic,
                1 => FaultKind::EvalError,
                2 => FaultKind::Delay(rng.gen_below(300) + 1),
                3 => FaultKind::RingOverflow(DEFAULT_OVERFLOW_ATTEMPTS),
                _ => FaultKind::Garbage,
            };
            plan.push(FaultPoint { shard, nth, kind });
        }
        plan
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_roundtrip() {
        let spec = "panic@1:3,err@0:7,delay@*:2:500,ring-overflow@2:10:64,garbage@3:0";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.points().len(), 5);
        assert_eq!(plan.render(), spec);
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
    }

    #[test]
    fn addressing_is_per_shard_ordinal() {
        let plan = FaultPlan::parse("panic@1:3").unwrap();
        assert!(plan.fires(1, 3));
        assert!(!plan.fires(1, 2));
        assert!(!plan.fires(0, 3));
        let wild = FaultPlan::parse("garbage@*:5").unwrap();
        assert!(wild.fires(0, 5) && wild.fires(7, 5));
        assert!(!wild.fires(7, 4));
    }

    #[test]
    fn defaults_applied_when_argument_omitted() {
        let plan = FaultPlan::parse("delay@0:1,ring-overflow@0:2").unwrap();
        assert_eq!(plan.points()[0].kind, FaultKind::Delay(DEFAULT_DELAY_US));
        assert_eq!(
            plan.points()[1].kind,
            FaultKind::RingOverflow(DEFAULT_OVERFLOW_ATTEMPTS)
        );
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "panic",
            "panic@",
            "panic@x:1",
            "panic@1:y",
            "panic@1:2:3",
            "boom@1:2",
            "err@1:2:9",
            "panic@1:2:3:4",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(99, 4, 50, 8);
        let b = FaultPlan::random(99, 4, 50, 8);
        assert_eq!(a, b);
        assert_eq!(a.points().len(), 8);
        let c = FaultPlan::random(100, 4, 50, 8);
        assert_ne!(a, c, "different seeds should differ (overwhelmingly)");
    }

    #[test]
    fn multiple_faults_at_one_point_fire_in_insertion_order() {
        let plan = FaultPlan::parse("delay@0:1:50,panic@0:1").unwrap();
        let kinds: Vec<FaultKind> = plan.at(0, 1).collect();
        assert_eq!(kinds, vec![FaultKind::Delay(50), FaultKind::Panic]);
    }
}
