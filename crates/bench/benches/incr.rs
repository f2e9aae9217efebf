//! Incremental-lint benchmark: cold (fresh engine, full 8-NF corpus)
//! vs warm (long-lived engine, one trailing-comment edit, full corpus
//! re-lint). The warm path must revalidate memoized queries instead of
//! re-deriving them, so this target *gates* on a ≥5× warm speedup and
//! on the warm recompute profile (exactly one re-parse, nothing
//! downstream) — a regression in the red-green machinery fails the
//! bench run, not just a number in a JSON file.

use nf_query::Engine;
use nf_support::bench::Harness;
use nf_support::json::Value;
use nf_trace::Tracer;

/// The warm re-lint must beat the cold corpus lint by at least this
/// factor (in practice it is orders of magnitude; 5× leaves headroom
/// for noisy CI machines).
const MIN_WARM_SPEEDUP: f64 = 5.0;

fn bench_incr(h: &mut Harness) {
    let corpus = nf_corpus::default_corpus();
    let mut g = h.benchmark_group("incr");
    g.sample_size(10);
    g.bench_function("cold-8nf", |b| {
        b.iter(|| {
            let mut engine = Engine::new();
            for nf in &corpus {
                engine.set_source(nf.name, &nf.source);
            }
            for nf in &corpus {
                engine.lint_report(nf.name);
            }
            engine.revision()
        })
    });
    // Warm: the engine outlives the timed region; each iteration is a
    // fresh trailing-comment edit to one NF followed by a full-corpus
    // re-lint — the editor loop `nfactor lint --watch` runs.
    let mut engine = Engine::new();
    for nf in &corpus {
        engine.set_source(nf.name, &nf.source);
    }
    for nf in &corpus {
        engine.lint_report(nf.name);
    }
    let mut edit = 0u64;
    g.bench_function("warm-edit-8nf", |b| {
        b.iter(|| {
            edit += 1;
            let edited = format!("{}\n// warm edit {edit}\n", corpus[0].source);
            engine.set_source(corpus[0].name, &edited);
            for nf in &corpus {
                engine.lint_report(nf.name);
            }
            engine.revision()
        })
    });
    g.finish();
}

fn mean_ns(report: &Value, name: &str) -> Option<f64> {
    report
        .get("results")?
        .as_array()?
        .iter()
        .find(|r| r.get("name").and_then(|n| n.as_str()) == Some(name))
        .and_then(|r| match r.get("mean_ns") {
            Some(Value::Float(f)) => Some(*f),
            Some(Value::Int(i)) => Some(*i as f64),
            _ => None,
        })
}

/// Hard gate 1: warm must be ≥ [`MIN_WARM_SPEEDUP`]× faster than cold.
fn enforce_speedup_gate(h: &Harness) {
    let report = h.report_json();
    let (Some(cold), Some(warm)) = (
        mean_ns(&report, "incr/cold-8nf"),
        mean_ns(&report, "incr/warm-edit-8nf"),
    ) else {
        eprintln!("incr: speedup gate skipped (filtered run)");
        return;
    };
    let speedup = cold / warm;
    eprintln!(
        "incr: cold {:.3} ms, warm {:.3} ms -> {speedup:.1}x warm speedup (gate: >= {MIN_WARM_SPEEDUP}x)",
        cold / 1e6,
        warm / 1e6
    );
    assert!(
        speedup >= MIN_WARM_SPEEDUP,
        "incremental warm re-lint is only {speedup:.2}x faster than cold (need >= {MIN_WARM_SPEEDUP}x)"
    );
}

/// Hard gate 2: a warm edit recomputes exactly one parse and derives
/// nothing downstream (the early cutoff fires on the unchanged program
/// fingerprint).
fn enforce_recompute_profile() {
    let corpus = nf_corpus::default_corpus();
    let mut engine = Engine::with_tracer(Tracer::enabled());
    for nf in &corpus {
        engine.set_source(nf.name, &nf.source);
    }
    for nf in &corpus {
        engine.lint_report(nf.name);
    }
    let counter = |e: &Engine, n: &str| e.tracer().metrics().counter(n).unwrap_or(0);
    let downstream = [
        "query.normalize.recompute",
        "query.ctx.recompute",
        "query.report.recompute",
    ];
    let parse_before = counter(&engine, "query.parse.recompute");
    let down_before: Vec<u64> = downstream.iter().map(|n| counter(&engine, n)).collect();

    let edited = format!("{}\n// profile edit\n", corpus[0].source);
    engine.set_source(corpus[0].name, &edited);
    for nf in &corpus {
        engine.lint_report(nf.name);
    }

    assert_eq!(
        counter(&engine, "query.parse.recompute"),
        parse_before + 1,
        "warm edit should re-run exactly one parse"
    );
    let down_after: Vec<u64> = downstream.iter().map(|n| counter(&engine, n)).collect();
    assert_eq!(
        down_after, down_before,
        "warm edit recomputed downstream queries — early cutoff broken"
    );
    eprintln!("incr: recompute profile OK (1 parse, 0 derived queries)");
}

fn main() {
    let mut h = Harness::from_args("incr");
    bench_incr(&mut h);
    enforce_recompute_profile();
    enforce_speedup_gate(&h);
    h.finish();
}
