//! End-to-end observability tests: the synthesis pipeline under an
//! enabled tracer must report one span per Algorithm-1 stage, nested
//! symex/slicer spans, the stable metric names, and — under a mock
//! clock — byte-identical output across runs.

use nfactor::core::Pipeline;
use nfactor::support::json::Value;
use nfactor::trace::{MockClock, Tracer};
use std::sync::Arc;

fn corpus_source(name: &str) -> String {
    nfactor::corpus::default_corpus()
        .into_iter()
        .find(|nf| nf.name == name)
        .map(|nf| nf.source)
        .unwrap_or_else(|| panic!("corpus NF `{name}` missing"))
}

const STAGES: [&str; 5] = [
    "pipeline.stage.frontend",
    "pipeline.stage.structure",
    "pipeline.stage.slice",
    "pipeline.stage.symex",
    "pipeline.stage.model",
];

#[test]
fn pipeline_emits_one_span_per_stage_with_nested_symex() {
    let tracer = Tracer::enabled();
    let syn = Pipeline::builder()
        .name("fig1-lb")
        .tracer(tracer.clone())
        .build()
        .unwrap()
        .synthesize(&corpus_source("fig1-lb"))
        .unwrap();
    assert!(tracer.balanced(), "all spans closed");

    let events = tracer.events();
    for stage in STAGES {
        let n = events
            .iter()
            .filter(|e| e.name == stage && e.dur_ns.is_some())
            .count();
        assert_eq!(n, 1, "expected exactly one `{stage}` span, got {n}");
    }

    // The symex.explore span nests inside pipeline.stage.symex on the
    // timeline, and the slicer spans inside pipeline.stage.slice.
    let span_of = |name: &str| {
        events
            .iter()
            .find(|e| e.name == name && e.dur_ns.is_some())
            .unwrap_or_else(|| panic!("span `{name}` missing"))
    };
    for (outer, inner) in [
        ("pipeline.stage.symex", "symex.explore"),
        ("pipeline.stage.slice", "slice.packet"),
        ("pipeline.stage.slice", "slice.state"),
    ] {
        let (o, i) = (span_of(outer), span_of(inner));
        assert!(i.depth > o.depth, "{inner} deeper than {outer}");
        assert!(i.ts_ns >= o.ts_ns, "{inner} starts within {outer}");
        assert!(
            i.ts_ns + i.dur_ns.unwrap() <= o.ts_ns + o.dur_ns.unwrap(),
            "{inner} ends within {outer}"
        );
    }

    // Per-path instant events, one per explored path.
    let path_events = events.iter().filter(|e| e.name == "symex.path").count();
    assert_eq!(path_events, syn.exploration.paths.len());

    // Stable metric names: the per-stage timers and the symex counters.
    let metrics = tracer.metrics();
    for stage in STAGES {
        let key = format!("{stage}.ns");
        assert!(metrics.counters.contains_key(&key), "missing {key}");
    }
    assert_eq!(
        metrics.counter("symex.paths.explored"),
        Some(syn.exploration.paths.len() as u64)
    );
    assert_eq!(
        metrics.counter("symex.solver.calls"),
        Some(syn.exploration.solver_calls as u64)
    );
    assert_eq!(
        metrics.counter("symex.forks"),
        Some(syn.exploration.forks as u64)
    );
    assert!(metrics.counter("slice.pdg.edges").unwrap_or(0) > 0);
}

#[test]
fn table2_timings_come_from_the_spans() {
    // Satellite "reported once": the Metrics durations are the span
    // durations, so the table and the trace can never disagree.
    let tracer = Tracer::with_clock(Arc::new(MockClock::new(1_000)));
    let syn = Pipeline::builder()
        .name("fig1-lb")
        .tracer(tracer.clone())
        .build()
        .unwrap()
        .synthesize(&corpus_source("fig1-lb"))
        .unwrap();
    let metrics = tracer.metrics();
    assert_eq!(
        metrics.counter("pipeline.stage.slice.ns"),
        Some(syn.metrics.slicing_time.as_nanos() as u64)
    );
    assert_eq!(
        metrics.counter("pipeline.stage.symex.ns"),
        Some(syn.metrics.se_time_slice.as_nanos() as u64)
    );
}

#[test]
fn chrome_trace_json_round_trips_with_stage_spans() {
    let tracer = Tracer::enabled();
    Pipeline::builder()
        .name("fig1-lb")
        .tracer(tracer.clone())
        .build()
        .unwrap()
        .synthesize(&corpus_source("fig1-lb"))
        .unwrap();
    let text = tracer.trace_json().render_pretty();
    let parsed = Value::parse(&text).expect("valid Chrome trace JSON");
    let Some(Value::Array(events)) = parsed.get("traceEvents") else {
        panic!("traceEvents array missing: {text}");
    };
    assert!(!events.is_empty());
    for stage in STAGES {
        assert!(
            events.iter().any(|e| {
                e.get("name") == Some(&Value::Str(stage.to_string()))
                    && e.get("ph") == Some(&Value::Str("X".to_string()))
            }),
            "no complete event for {stage}"
        );
    }
}

/// Acceptance criterion: with a mock clock (and the pipeline's
/// deterministic exploration), metrics and trace output are
/// byte-identical across runs.
#[test]
fn mock_clock_makes_all_observability_output_byte_identical() {
    let run_once = || {
        let tracer = Tracer::with_clock(Arc::new(MockClock::new(100)));
        Pipeline::builder()
            .name("fig1-lb")
            .tracer(tracer.clone())
            .build()
            .unwrap()
            .synthesize(&corpus_source("fig1-lb"))
            .unwrap();
        (
            tracer.metrics().render_table(),
            tracer.metrics().to_json().render_pretty(),
            tracer.trace_json().render_pretty(),
        )
    };
    let (table_a, mjson_a, tjson_a) = run_once();
    let (table_b, mjson_b, tjson_b) = run_once();
    assert_eq!(table_a, table_b);
    assert_eq!(mjson_a, mjson_b);
    assert_eq!(tjson_a, tjson_b);
    assert!(table_a.contains("symex.paths.explored"));
}
