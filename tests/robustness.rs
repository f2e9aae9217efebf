//! Robustness properties: fuzz-run determinism, budget monotonicity,
//! truncated-model round-trips, graceful degradation under a
//! wall-clock deadline on the paper-scale snort NF, and fault-plan
//! accounting on the supervised shard runtime.

use nfactor::core::{Pipeline, Synthesis};
use nfactor::fuzz::{run, FuzzConfig};
use nfactor::model::Completeness;
use nfactor::packet::PacketGen;
use nfactor::shard::{Backend, RunConfig, ShardEngine, SliceSource};
use nfactor::support::budget::Budget;
use nfactor::support::check::{check, tuple3, uint_range, Config};
use nfactor::support::fault::FaultPlan;
use nfactor::support::json::{FromJson, ToJson, Value};

fn corpus_source(name: &str) -> String {
    nfactor::corpus::default_corpus()
        .into_iter()
        .find(|nf| nf.name == name)
        .unwrap_or_else(|| panic!("corpus NF `{name}` missing"))
        .source
}

fn synthesize_with_solver_cap(src: &str, cap: usize) -> Synthesis {
    Pipeline::builder()
        .name("nat")
        .budget(Budget::unlimited().with_max_solver_calls(cap))
        .build()
        .unwrap()
        .synthesize(src)
        .expect("capped synthesis must still succeed")
}

/// A fuzz run is a pure function of its seed: same config, same report —
/// verdict counts and the (minimized) findings byte-for-byte.
#[test]
fn fuzz_runs_are_reproducible() {
    let cfg = FuzzConfig {
        seed: 42,
        cases: 80,
        diff_trials: 10,
        minimize: true,
    };
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a.cases, b.cases);
    assert_eq!(a.panics, b.panics);
    assert_eq!(a.mismatches, b.mismatches);
    assert_eq!(a.diff_checked, b.diff_checked);
    assert_eq!(a.diff_skipped, b.diff_skipped);
    assert_eq!(a.findings.len(), b.findings.len());
    for (fa, fb) in a.findings.iter().zip(&b.findings) {
        assert_eq!(fa.case, fb.case);
        assert_eq!(fa.input, fb.input);
    }
}

/// Raising the solver-call budget can only reveal paths, never hide
/// them: explored-path count is monotone in the cap, and a run that was
/// already complete stays complete.
#[test]
fn budget_monotonicity_never_loses_paths() {
    let src = corpus_source("nat");
    let cfg = Config::with_cases(12);
    let caps = uint_range(1, 60);
    check("budget_monotone", &cfg, &caps, |&lo| {
        let hi = lo * 2 + 5;
        let syn_lo = synthesize_with_solver_cap(&src, lo as usize);
        let syn_hi = synthesize_with_solver_cap(&src, hi as usize);
        assert!(
            syn_lo.exploration.paths.len() <= syn_hi.exploration.paths.len(),
            "cap {lo} found {} paths but cap {hi} only {}",
            syn_lo.exploration.paths.len(),
            syn_hi.exploration.paths.len()
        );
        if matches!(syn_lo.model.completeness, Completeness::Full) {
            assert!(matches!(syn_hi.model.completeness, Completeness::Full));
        }
    });
}

/// A truncated model survives the JSON round trip with its completeness
/// stamp (state and reason) intact, and `.nfm` text keeps the marker.
#[test]
fn truncated_model_round_trips_through_json_and_text() {
    let src = corpus_source("nat");
    let syn = synthesize_with_solver_cap(&src, 1);
    assert!(
        syn.model.completeness.is_truncated(),
        "solver cap 1 must truncate the nat exploration"
    );

    let json = syn.model.to_json().render();
    let val = Value::parse(&json).expect("model JSON must parse");
    let back = nfactor::model::Model::from_json(&val).expect("model JSON must decode");
    assert_eq!(back.completeness, syn.model.completeness);
    assert_eq!(back.entry_count(), syn.model.entry_count());

    let text = nfactor::model::to_text(&syn.model);
    assert!(text.contains("truncated"), "{text}");
    let back = nfactor::model::from_text(&text).expect(".nfm text must decode");
    assert_eq!(back.completeness, syn.model.completeness);
}

/// The acceptance scenario: a 10 ms deadline on the paper-scale snort NF
/// must yield a *partial* model — no hang, no panic, no bare error —
/// with the truncation reason visible in both renderings.
#[test]
fn snort_with_10ms_deadline_returns_truncated_model() {
    let src = corpus_source("snort");
    let tracer = nfactor::trace::Tracer::enabled();
    let syn = Pipeline::builder()
        .name("snort")
        .budget(Budget::unlimited().with_timeout_ms(10))
        .tracer(tracer.clone())
        .build()
        .unwrap()
        .synthesize(&src)
        .expect("deadline must degrade, not error");
    let reason = syn
        .model
        .completeness
        .reason()
        .expect("10 ms is far too little for snort — the model must be truncated");
    assert!(reason.contains("deadline"), "{reason}");

    let text = syn.render_model();
    assert!(text.contains("PARTIAL MODEL"), "{text}");
    assert!(text.contains(reason), "{text}");

    let json = syn.model.to_json().render();
    assert!(json.contains("\"truncated\""), "{json}");
    assert!(json.contains(reason), "{json}");

    // The degradation is also observable: the tracer reports the
    // truncation counter and the same reason label, and both survive the
    // metrics JSON (what `--metrics-json` writes).
    let metrics = tracer.metrics();
    assert_eq!(metrics.counter("pipeline.truncated"), Some(1));
    assert_eq!(
        metrics.labels.get("pipeline.truncated.reason").map(String::as_str),
        Some(reason)
    );
    let mjson = metrics.to_json().render_pretty();
    let parsed = Value::parse(&mjson).expect("metrics JSON re-parses");
    let counters = parsed.get("counters").expect("counters object");
    assert_eq!(counters.get("pipeline.truncated"), Some(&Value::Int(1)));
    assert!(mjson.contains(reason), "{mjson}");
}

/// Property: whatever deterministic faults are injected into whichever
/// corpus NF at whatever shard count, the supervised runtime never
/// loses a packet without a ledger entry (`processed + quarantined +
/// dropped == offered`) and never trips a merge-time
/// partitioning-violation or resurrection check — containment must not
/// corrupt state placement.
#[test]
fn random_fault_plans_never_break_accounting_or_merge() {
    let corpus = nfactor::corpus::default_corpus();
    let cfg = Config::with_cases(12);
    let gen = tuple3(
        uint_range(0, u64::MAX),
        uint_range(0, corpus.len() as u64 - 1),
        uint_range(1, 4),
    );
    check("random_fault_accounting", &cfg, &gen, |&(seed, which, shards)| {
        let nf = &corpus[which as usize];
        let pipeline = Pipeline::builder()
            .name(nf.name)
            .shards(shards as usize)
            .build()
            .unwrap();
        let engine = ShardEngine::from_source(&pipeline, &nf.source, Backend::Interp)
            .unwrap_or_else(|e| panic!("{}: {e}", nf.name));
        let packets = PacketGen::new(seed).batch(120);
        let faults = FaultPlan::random(seed, shards as usize, 120, 6);
        let mut runs = Vec::new();
        for run in [
            engine.run_with(
                SliceSource::new(&packets),
                &RunConfig::threaded().with_faults(faults.clone()),
            ),
            engine.run_with(
                SliceSource::new(&packets),
                &RunConfig::sequential().with_faults(faults.clone()),
            ),
        ] {
            // A fault plan must never surface as an engine error: the
            // merge checks stay silent and the run completes.
            let run = run.unwrap_or_else(|e| {
                panic!("{} under `{}`: {e}", nf.name, faults.render())
            });
            assert_eq!(
                run.offered(),
                packets.len() as u64,
                "{} under `{}`: accounting leak",
                nf.name,
                faults.render()
            );
            runs.push(run);
        }
        // Both executors account faults alike. Retries are left out:
        // real ring-full backoff on threads can add some.
        let (threaded, sequential) = (&runs[0], &runs[1]);
        let what = format!("{} under `{}`", nf.name, faults.render());
        assert_eq!(threaded.quarantined_seqs, sequential.quarantined_seqs, "{what}");
        assert_eq!(threaded.dropped_seqs, sequential.dropped_seqs, "{what}");
        assert_eq!(threaded.restarts, sequential.restarts, "{what}");
        assert_eq!(threaded.fallbacks, sequential.fallbacks, "{what}");
    });
}

/// An unlimited budget still yields a Full model on every corpus NF —
/// the budget machinery must be invisible when no cap is set.
#[test]
fn unlimited_budget_never_truncates_the_corpus() {
    for nf in nfactor::corpus::default_corpus() {
        let syn = Pipeline::builder()
            .name(nf.name)
            .build()
            .unwrap()
            .synthesize(&nf.source)
            .unwrap_or_else(|e| panic!("{}: {e}", nf.name));
        assert!(
            matches!(syn.model.completeness, Completeness::Full),
            "{} unexpectedly truncated: {:?}",
            nf.name,
            syn.model.completeness
        );
    }
}
