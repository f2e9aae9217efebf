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
use nfactor::support::json::{ToJson, Value};

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

/// A truncated model's JSON document carries its completeness stamp
/// (state and reason) and every entry, and `.nfm` text keeps the marker
/// through its round trip.
#[test]
fn truncated_model_round_trips_through_json_and_text() {
    let src = corpus_source("nat");
    let syn = synthesize_with_solver_cap(&src, 1);
    assert!(
        syn.model.completeness.is_truncated(),
        "solver cap 1 must truncate the nat exploration"
    );

    let json = syn.model.to_json().render();
    let doc = Value::parse(&json).expect("model JSON must parse");
    let stamp = doc
        .get("completeness")
        .expect("a truncated model is stamped");
    assert_eq!(
        stamp.get("state").and_then(Value::as_str),
        Some("truncated")
    );
    assert_eq!(
        stamp.get("reason").and_then(Value::as_str),
        syn.model.completeness.reason()
    );
    let entries: usize = doc
        .get("tables")
        .and_then(Value::as_array)
        .expect("a table array")
        .iter()
        .map(|t| {
            t.get("entries")
                .and_then(Value::as_array)
                .expect("an entry array")
                .len()
        })
        .sum();
    assert_eq!(entries, syn.model.entry_count());

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
        metrics
            .labels
            .get("pipeline.truncated.reason")
            .map(String::as_str),
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
    check(
        "random_fault_accounting",
        &cfg,
        &gen,
        |&(seed, which, shards)| {
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
                let run =
                    run.unwrap_or_else(|e| panic!("{} under `{}`: {e}", nf.name, faults.render()));
                assert_eq!(
                    run.offered(),
                    packets.len() as u64,
                    "{} under `{}`: accounting leak",
                    nf.name,
                    faults.render()
                );
                runs.push(run);
            }
            // Both executors account faults alike.
            let (threaded, sequential) = (&runs[0], &runs[1]);
            let what = format!("{} under `{}`", nf.name, faults.render());
            assert_eq!(
                threaded.quarantined_seqs, sequential.quarantined_seqs,
                "{what}"
            );
            assert_eq!(threaded.dropped_seqs, sequential.dropped_seqs, "{what}");
            assert_eq!(
                threaded.fault_summary(),
                sequential.fault_summary(),
                "{what}"
            );
        },
    );
}

/// Whether a run keeps its per-packet outputs changes nothing else it
/// reports, and its busy time covers every packet it stepped: every
/// corpus NF on every backend and executor, under a seeded fault plan.
/// With telemetry on, each shard's eval histogram holds one latency per
/// packet it stepped (processed or quarantined at eval), and the shard's
/// busy time, read once per run of back-to-back steps, covers them all.
#[test]
fn outputs_and_busy_time_agree_across_backends_and_executors() {
    const SHARDS: usize = 3;
    const PACKETS: usize = 150;
    for (i, nf) in nfactor::corpus::default_corpus().into_iter().enumerate() {
        let seed = 0x0B5E_55ED + i as u64;
        let packets = PacketGen::new(seed).batch(PACKETS);
        let faults = FaultPlan::random(seed, SHARDS, (PACKETS / SHARDS) as u64, 6);
        let pipeline = Pipeline::builder()
            .name(nf.name)
            .shards(SHARDS)
            .tracer(nfactor::trace::Tracer::enabled())
            .build()
            .unwrap();
        for backend in [Backend::Interp, Backend::Model, Backend::Compiled] {
            let engine = ShardEngine::from_source(&pipeline, &nf.source, backend)
                .unwrap_or_else(|e| panic!("{} on {backend:?}: {e}", nf.name));
            for mode in [
                RunConfig::threaded(),
                RunConfig::sequential(),
                RunConfig::single(),
            ] {
                let what = format!(
                    "{} on {backend:?}, {:?}, `{}`",
                    nf.name,
                    mode.mode,
                    faults.render()
                );
                let mut cfg = mode.with_faults(faults.clone());
                let kept = engine
                    .run_with(SliceSource::new(&packets), &cfg)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                cfg.keep_outputs = false;
                let streamed = engine
                    .run_with(SliceSource::new(&packets), &cfg)
                    .unwrap_or_else(|e| panic!("{what}, outputs off: {e}"));
                assert!(streamed.outputs.is_empty(), "{what}");
                assert_eq!(kept.outputs.len() as u64, kept.total_pkts(), "{what}");
                assert_eq!(
                    kept.outputs.iter().filter(|o| !o.dropped).count() as u64,
                    kept.forwarded,
                    "{what}"
                );
                assert_eq!(streamed.forwarded, kept.forwarded, "{what}");
                assert_eq!(streamed.per_shard_pkts, kept.per_shard_pkts, "{what}");
                assert_eq!(streamed.quarantined_seqs, kept.quarantined_seqs, "{what}");
                assert_eq!(streamed.merged, kept.merged, "{what}");
                assert_eq!(streamed.fault_summary(), kept.fault_summary(), "{what}");
                for run in [&kept, &streamed] {
                    let stats = run.stats.as_ref().expect("telemetry on");
                    // At most 6 faults: every quarantine record is kept.
                    assert_eq!(run.quarantined.len(), run.quarantined_seqs.len(), "{what}");
                    let shards = run.per_shard_pkts.iter().zip(&run.busy_ns).enumerate();
                    for (w, (&pkts, &busy)) in shards {
                        let stepped =
                            pkts + run.quarantined.iter().filter(|q| q.shard == w).count() as u64;
                        let eval = &stats.shards[w].eval;
                        assert_eq!(eval.count, stepped, "{what}: shard {w} latencies");
                        assert!(
                            busy >= eval.sum,
                            "{what}: shard {w} busy {busy} < {}",
                            eval.sum
                        );
                        assert!(stepped == 0 || busy > 0, "{what}: shard {w} never busy");
                    }
                }
            }
        }
    }
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
