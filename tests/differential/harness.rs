//! The reusable differential harness.
//!
//! A differential check is always the same shape: build several
//! engines for the same NF (different backends, different shard
//! counts), run each in one or more modes over the same packet stream,
//! and assert that every run is observationally identical — the same
//! per-packet outputs in arrival order and the same merged final
//! state. [`for_each_backend_pair`] is that shape, once.

use nfactor::core::{Pipeline, Synthesis};
use nfactor::interp::Value;
use nfactor::packet::Packet;
use nfactor::shard::{Backend, RunConfig, ShardEngine, ShardRun, SliceSource};
use std::collections::BTreeMap;

/// How to drive an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `RunMode::Threaded` — real worker threads over SPSC rings.
    Threaded,
    /// `RunMode::Sequential` — same dispatch, one thread.
    Sequential,
    /// `RunMode::Single` — the one-shard reference.
    Single,
}

/// Which part of the merged state to compare.
pub enum StateScope {
    /// Every merged variable must agree.
    Full,
    /// Only the named variables must agree. Cross-backend comparisons
    /// use this with the model's state variables: the interpreter also
    /// advances state the model provably prunes (e.g. log-only
    /// counters that never influence output), which is exactly the
    /// abstraction the model is allowed to make.
    Restrict(Vec<String>),
}

/// A labelled engine under test.
pub struct DiffEngine {
    /// Human-readable `backend/shards` label for failure messages.
    pub label: String,
    /// The engine.
    pub engine: ShardEngine,
}

pub fn backend_label(b: Backend) -> &'static str {
    match b {
        Backend::Interp => "interp",
        Backend::Model => "model",
        Backend::Compiled => "compiled",
    }
}

/// Synthesize `src` once and build an engine per backend × shard
/// count, all from the same [`Synthesis`] (so every engine shares one
/// placement plan and one initial state).
pub fn engines_from_synthesis(
    name: &str,
    src: &str,
    backends: &[Backend],
    shard_counts: &[usize],
) -> (Synthesis, Vec<DiffEngine>) {
    let base = Pipeline::builder()
        .name(name)
        .build()
        .unwrap_or_else(|e| panic!("{name}: builder: {e}"));
    let syn = base
        .synthesize(src)
        .unwrap_or_else(|e| panic!("{name}: synthesize: {e}"));
    let mut engines = Vec::new();
    for &shards in shard_counts {
        let pipeline = Pipeline::builder()
            .name(name)
            .shards(shards)
            .build()
            .unwrap_or_else(|e| panic!("{name}: builder: {e}"));
        for &backend in backends {
            engines.push(DiffEngine {
                label: format!("{}/{shards}", backend_label(backend)),
                engine: ShardEngine::from_synthesis(&pipeline, &syn, backend)
                    .unwrap_or_else(|e| panic!("{name}: build {backend:?}: {e}")),
            });
        }
    }
    (syn, engines)
}

/// The [`RunConfig`] a [`Mode`] maps to. The differential suites run
/// with skew-aware rebalancing enabled: any divert the dispatcher opens
/// must be invisible in outputs and merged state, so the suites prove
/// the rebalancer sound as a side effect.
pub fn mode_config(mode: Mode) -> RunConfig {
    match mode {
        Mode::Threaded => RunConfig::threaded(),
        Mode::Sequential => RunConfig::sequential(),
        Mode::Single => RunConfig::single(),
    }
    .with_rebalance(true)
}

pub fn run_mode(name: &str, de: &DiffEngine, mode: Mode, packets: &[Packet]) -> ShardRun {
    let r = de
        .engine
        .run_with(SliceSource::new(packets), &mode_config(mode));
    r.unwrap_or_else(|e| panic!("{name}: {}/{mode:?}: {e}", de.label))
}

fn scoped_state(merged: &BTreeMap<String, Value>, scope: &StateScope) -> BTreeMap<String, Value> {
    match scope {
        StateScope::Full => merged.clone(),
        StateScope::Restrict(names) => merged
            .iter()
            .filter(|(k, _)| names.contains(k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
    }
}

/// Run every `(engine, mode)` combination over `packets` and assert
/// each pair observationally identical — outputs against the first
/// run, scoped state against the first run (equality is transitive, so
/// first-vs-each covers all pairs).
pub fn for_each_backend_pair(
    name: &str,
    engines: &[DiffEngine],
    modes: &[Mode],
    packets: &[Packet],
    scope: &StateScope,
) {
    let mut outcomes = Vec::new();
    for de in engines {
        for &mode in modes {
            let run = run_mode(name, de, mode, packets);
            assert_eq!(
                run.total_pkts(),
                packets.len() as u64,
                "{name}: {}/{mode:?} lost packets",
                de.label
            );
            outcomes.push((
                format!("{}/{mode:?}", de.label),
                run.output_signature(),
                scoped_state(&run.merged, scope),
            ));
        }
    }
    let (ref_label, ref_sig, ref_state) = &outcomes[0];
    for (label, sig, state) in &outcomes[1..] {
        assert_signature_eq(name, ref_label, ref_sig, label, sig);
        assert_eq!(
            state, ref_state,
            "{name}: merged state diverges: {label} vs {ref_label}"
        );
    }
}

/// Pinpoint the first diverging packet instead of dumping two full
/// signatures.
fn assert_signature_eq(
    name: &str,
    a_label: &str,
    a: &[(u64, Vec<Packet>, bool)],
    b_label: &str,
    b: &[(u64, Vec<Packet>, bool)],
) {
    if a == b {
        return;
    }
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(
            x, y,
            "{name}: outputs diverge at seq {} ({b_label} vs {a_label})",
            x.0
        );
    }
    panic!(
        "{name}: output count diverges: {b_label} has {} vs {a_label} {}",
        b.len(),
        a.len()
    );
}
