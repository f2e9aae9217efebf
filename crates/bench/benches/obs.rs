//! Telemetry-overhead gate: the shard telemetry plane (per-packet
//! latency/flight recording, periodic histogram flushes, the
//! dispatcher's hot-key sketch) must cost at most 10% of run time.
//!
//! Two configurations run the same firewall corpus workload through
//! `RunMode::Sequential` (the deterministic single-host mode the other shard
//! benches use): *off* pairs a disabled tracer with a disabled
//! telemetry config — the zero-instrumentation baseline — and *on* is
//! the `run --stats-json` configuration: recording tracer, default
//! telemetry. The gate compares best-of-N wall-clock time (not per-shard
//! busy-ns, which would hide the dispatcher's sketch and the flush
//! locking), interleaving the two arms to decorrelate drift.

use nf_packet::PacketGen;
use nf_shard::{Backend, RunConfig, ShardEngine, SliceSource, TelemetryConfig};
use nf_support::json::Value;
use nf_trace::Tracer;
use nfactor_core::Pipeline;
use std::time::Instant;

const SHARDS: usize = 4;
const PACKETS: usize = 3000;
const REPEATS: usize = 9;
const MAX_OVERHEAD: f64 = 1.10;

/// Best-of-N: both arms run the identical deterministic workload, so
/// the fastest observation is the least noise-contaminated one — the
/// right statistic for an overhead ratio on a shared host.
fn best(spans: &[u64]) -> u64 {
    spans.iter().copied().min().expect("non-empty")
}

fn build(src: &str, tracer: Tracer, telemetry: TelemetryConfig) -> ShardEngine {
    let pipeline = Pipeline::builder()
        .name("firewall")
        .shards(SHARDS)
        .tracer(tracer)
        .build()
        .expect("pipeline");
    let mut engine = ShardEngine::from_source(&pipeline, src, Backend::Interp).expect("engine");
    engine.set_telemetry(telemetry);
    engine
}

fn main() {
    let src = nf_corpus::firewall::source();
    let packets = PacketGen::new(0x0B5E).batch(PACKETS);

    let off_cfg = TelemetryConfig { enabled: false };
    let off = build(&src, Tracer::disabled(), off_cfg);
    let on = build(&src, Tracer::enabled(), TelemetryConfig::default());

    // Warm both arms before timing anything.
    let base = off
        .run_with(SliceSource::new(&packets), &RunConfig::sequential())
        .expect("warmup off");
    let inst = on
        .run_with(SliceSource::new(&packets), &RunConfig::sequential())
        .expect("warmup on");
    assert_eq!(
        base.output_signature(),
        inst.output_signature(),
        "telemetry must not change run behaviour"
    );
    assert!(inst.stats.is_some(), "instrumented run must collect stats");

    let (mut t_off, mut t_on) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let run = off
            .run_with(SliceSource::new(&packets), &RunConfig::sequential())
            .expect("off run");
        t_off.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(run.total_pkts(), PACKETS as u64);

        let t0 = Instant::now();
        let run = on
            .run_with(SliceSource::new(&packets), &RunConfig::sequential())
            .expect("on run");
        t_on.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(run.total_pkts(), PACKETS as u64);
    }
    let off_ns = best(&t_off);
    let on_ns = best(&t_on);
    let ratio = on_ns as f64 / off_ns as f64;
    eprintln!(
        "obs/firewall x{SHARDS}: off {:.3} ms, on {:.3} ms, ratio {ratio:.3} (gate <= {MAX_OVERHEAD})",
        off_ns as f64 / 1e6,
        on_ns as f64 / 1e6
    );

    assert!(
        ratio <= MAX_OVERHEAD,
        "telemetry overhead {ratio:.3}x exceeds the {MAX_OVERHEAD}x gate \
         (off {off_ns} ns, on {on_ns} ns)"
    );

    let report = Value::Object(vec![
        ("bench".into(), Value::Str("obs".into())),
        (
            "mode".into(),
            Value::Str(
                "RunMode::Sequential wall clock, telemetry-disabled baseline vs \
                 recording tracer + default TelemetryConfig, interleaved repeats"
                    .into(),
            ),
        ),
        ("nf".into(), Value::Str("firewall".into())),
        ("shards".into(), Value::Int(SHARDS as i64)),
        ("packets".into(), Value::Int(PACKETS as i64)),
        ("repeats_best_of".into(), Value::Int(REPEATS as i64)),
        ("baseline_ns".into(), Value::Int(off_ns as i64)),
        ("instrumented_ns".into(), Value::Int(on_ns as i64)),
        ("overhead_ratio".into(), Value::Float(ratio)),
        ("gate_max_ratio".into(), Value::Float(MAX_OVERHEAD)),
    ]);
    let dir = std::env::var("NF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_obs.json");
    match std::fs::write(&path, report.render_pretty()) {
        Ok(()) => eprintln!("bench obs: report -> {}", path.display()),
        Err(e) => eprintln!("bench obs: could not write {}: {e}", path.display()),
    }
}
