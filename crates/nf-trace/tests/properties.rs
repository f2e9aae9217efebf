//! Property tests for nf-trace: span balance invariants, metrics
//! determinism under a mock clock, and Chrome trace-event JSON shape.

use nf_support::check::{check, uint_range, vec_of, Config};
use nf_support::json::Value;
use nf_trace::{MockClock, Tracer, DEFAULT_NS_BUCKETS};
use std::sync::Arc;

/// Interpret an op sequence against a fresh mock-clock tracer.
///
/// `op % 4`: 0 = open span, 1 = close newest span, 2 = instant event,
/// 3 = counter bump. `(op / 4) % 3` picks one of three span names, so
/// same-name nesting and interleaved closes are exercised. Returns the
/// tracer (all spans closed) plus how many opens/instants ran.
fn interpret(ops: &[u64]) -> (Tracer, usize, usize) {
    let tracer = Tracer::with_clock(Arc::new(MockClock::new(50)));
    let names = ["a", "b", "c"];
    let mut stack = Vec::new();
    let mut opens = 0;
    let mut instants = 0;
    for &op in ops {
        match op % 4 {
            0 => {
                stack.push(tracer.span(names[(op / 4) as usize % names.len()]));
                opens += 1;
            }
            1 => {
                if let Some(span) = stack.pop() {
                    span.end();
                }
            }
            2 => {
                tracer.instant_with("mark", &[("op", op as i64)]);
                instants += 1;
            }
            _ => tracer.count("ops.seen", 1),
        }
    }
    // Close any still-open spans (drop order: newest first).
    while let Some(span) = stack.pop() {
        span.end();
    }
    (tracer, opens, instants)
}

#[test]
fn prop_spans_always_balance() {
    let ops = vec_of(uint_range(0, 15), 0, 40);
    check("spans_balance", &Config::with_cases(200), &ops, |ops| {
        let (tracer, opens, instants) = interpret(ops);
        assert!(
            tracer.balanced(),
            "open spans left after closing all guards"
        );
        let events = tracer.events();
        assert_eq!(events.len(), opens + instants);
        // Every opened span produced exactly one complete event, and
        // its duration is on the timeline (end >= start).
        let spans: Vec<_> = events.iter().filter(|e| e.dur_ns.is_some()).collect();
        assert_eq!(spans.len(), opens);
        for e in &events {
            if let Some(dur) = e.dur_ns {
                assert!(dur > 0, "mock clock ticks, so spans cannot be zero-length");
            }
        }
    });
}

#[test]
fn prop_metrics_and_trace_deterministic_under_mock_clock() {
    let ops = vec_of(uint_range(0, 15), 0, 40);
    check(
        "metrics_deterministic",
        &Config::with_cases(100),
        &ops,
        |ops| {
            let (t1, _, _) = interpret(ops);
            let (t2, _, _) = interpret(ops);
            assert_eq!(t1.metrics().render_table(), t2.metrics().render_table());
            assert_eq!(
                t1.metrics().to_json().render_pretty(),
                t2.metrics().to_json().render_pretty()
            );
            assert_eq!(
                t1.trace_json().render_pretty(),
                t2.trace_json().render_pretty()
            );
        },
    );
}

#[test]
fn prop_chrome_json_round_trips_with_expected_shape() {
    let ops = vec_of(uint_range(0, 15), 0, 30);
    check("chrome_shape", &Config::with_cases(100), &ops, |ops| {
        let (tracer, opens, instants) = interpret(ops);
        let text = tracer.trace_json().render_pretty();
        let parsed = Value::parse(&text).expect("trace JSON must re-parse");
        let all = match parsed.get("traceEvents") {
            Some(Value::Array(es)) => es.clone(),
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        // `thread_name` metadata events lead; timed events follow.
        let (meta, events): (Vec<_>, Vec<_>) = all
            .iter()
            .partition(|ev| ev.get("ph") == Some(&Value::Str("M".into())));
        assert_eq!(events.len(), opens + instants);
        if opens + instants > 0 {
            assert_eq!(
                meta.len(),
                1,
                "single-threaded run names exactly one thread"
            );
            assert_eq!(events[0].get("tid"), Some(&Value::Int(0)));
        }
        for ev in &events {
            assert!(matches!(ev.get("name"), Some(Value::Str(_))));
            assert!(matches!(ev.get("ts"), Some(Value::Float(_))));
            match ev.get("ph") {
                Some(Value::Str(ph)) if ph == "X" => {
                    assert!(matches!(ev.get("dur"), Some(Value::Float(_))));
                }
                Some(Value::Str(ph)) if ph == "i" => {
                    assert_eq!(ev.get("s"), Some(&Value::Str("t".into())));
                }
                other => panic!("unexpected ph: {other:?}"),
            }
        }
    });
}

#[test]
fn prop_histogram_totals_match_observations() {
    let obs = vec_of(uint_range(0, 20_000_000_000), 0, 50);
    check("histogram_totals", &Config::with_cases(200), &obs, |obs| {
        let tracer = Tracer::enabled();
        for &v in obs {
            tracer.observe_ns("lat", v);
        }
        let metrics = tracer.metrics();
        if obs.is_empty() {
            assert!(metrics.histograms.is_empty());
            return;
        }
        let h = metrics.histograms.get("lat").expect("histogram recorded");
        assert_eq!(h.count, obs.len() as u64);
        assert_eq!(h.sum, obs.iter().fold(0u64, |a, &b| a.saturating_add(b)));
        assert_eq!(h.counts.iter().sum::<u64>(), h.count);
        assert_eq!(h.counts.len(), DEFAULT_NS_BUCKETS.len() + 1);
    });
}
