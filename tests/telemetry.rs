//! Integration tests for the shard telemetry plane: per-shard
//! eval/occupancy histograms, the dispatcher's hot-key profile, the
//! flight recorder, and the invariants the plane must hold — telemetry
//! never changes what a run computes, and under a mock clock the
//! sequential modes report byte-identical numbers.

use nfactor::core::Pipeline;
use nfactor::packet::{Packet, PacketGen, TcpFlags};
use nfactor::shard::{
    render_top, Backend, FlightOutcome, RunConfig, ShardEngine, SliceSource, TelemetryConfig,
};
use nfactor::support::fault::FaultPlan;
use nfactor::support::json::Value;
use nfactor::trace::{MockClock, Tracer};
use std::sync::Arc;

fn corpus_source(name: &str) -> String {
    nfactor::corpus::default_corpus()
        .into_iter()
        .find(|nf| nf.name == name)
        .unwrap_or_else(|| panic!("corpus NF `{name}` missing"))
        .source
}

fn engine(name: &str, shards: usize, tracer: Tracer) -> ShardEngine {
    let pipeline = Pipeline::builder()
        .name(name)
        .shards(shards)
        .tracer(tracer)
        .build()
        .expect("pipeline builds");
    ShardEngine::from_source(&pipeline, &corpus_source(name), Backend::Interp)
        .expect("engine builds")
}

/// A workload dominated by one flow: ~2/3 of the packets repeat the
/// same 4-tuple, the rest is a seeded spread.
fn skewed_workload(total: usize) -> Vec<Packet> {
    let spread = PacketGen::new(7).batch(total / 3);
    let heavy = Packet::tcp(0x0a00_0001, 443, 0x0a00_0002, 8080, TcpFlags(0x10));
    let mut pkts = Vec::with_capacity(total);
    let mut spread_iter = spread.into_iter();
    for i in 0..total {
        if i % 3 == 0 {
            if let Some(p) = spread_iter.next() {
                pkts.push(p);
                continue;
            }
        }
        pkts.push(heavy.clone());
    }
    pkts
}

/// Telemetry is observation only: the same workload with telemetry on
/// (enabled tracer) and fully off (disabled tracer) produces identical
/// outputs and merged state, threaded and sequential.
#[test]
fn telemetry_does_not_change_run_behaviour() {
    let packets = PacketGen::new(3).batch(600);
    for name in ["firewall", "nat"] {
        let on = engine(name, 4, Tracer::enabled());
        let off = engine(name, 4, Tracer::disabled());
        let run_on = on
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .expect("telemetry-on run");
        let run_off = off
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .expect("telemetry-off run");
        assert!(
            run_on.stats.is_some(),
            "{name}: enabled tracer collects stats"
        );
        assert!(
            run_off.stats.is_none(),
            "{name}: disabled tracer collects nothing"
        );
        assert_eq!(
            run_on.output_signature(),
            run_off.output_signature(),
            "{name}"
        );
        assert_eq!(run_on.merged, run_off.merged, "{name}");

        let seq_on = on
            .run_with(SliceSource::new(&packets), &RunConfig::sequential())
            .expect("sequential on");
        let seq_off = off
            .run_with(SliceSource::new(&packets), &RunConfig::sequential())
            .expect("sequential off");
        assert_eq!(
            seq_on.output_signature(),
            seq_off.output_signature(),
            "{name}"
        );
        assert_eq!(seq_on.merged, seq_off.merged, "{name}");
    }
}

/// The config switch alone also disables collection, even with a
/// recording tracer.
#[test]
fn telemetry_config_switch_disables_collection() {
    let mut e = engine("firewall", 2, Tracer::enabled());
    e.set_telemetry(TelemetryConfig { enabled: false });
    let run = e
        .run_with(
            SliceSource::new(&PacketGen::new(1).batch(100)),
            &RunConfig::threaded(),
        )
        .expect("run");
    assert!(run.stats.is_none());
}

/// A skewed workload surfaces its heavy hitter: the per-shard hot-key
/// profile is non-empty, the heavy flow ranks first on its shard, and
/// the tracer carries the `shard.N.hotkeys` label `top` renders.
#[test]
fn skewed_workload_reports_hot_keys() {
    let tracer = Tracer::enabled();
    let e = engine("firewall", 4, tracer.clone());
    let run = e
        .run_with(
            SliceSource::new(&skewed_workload(900)),
            &RunConfig::threaded(),
        )
        .expect("run");
    let stats = run.stats.expect("telemetry on");
    let profiled: Vec<_> = stats
        .shards
        .iter()
        .filter(|s| !s.hotkeys.is_empty())
        .collect();
    assert!(!profiled.is_empty(), "some shard must profile hot keys");
    // The heavy flow's estimate dwarfs everything else on its shard.
    let heaviest = stats
        .shards
        .iter()
        .flat_map(|s| s.hotkeys.first())
        .max_by_key(|h| h.count)
        .expect("a heaviest key");
    assert!(
        heaviest.count >= 500,
        "heavy flow (~600 pkts) must dominate, got {} ({})",
        heaviest.count,
        heaviest.key
    );
    assert!(
        heaviest.key.contains("tcp.dport="),
        "keys render field=value pairs"
    );
    let metrics = tracer.metrics();
    assert!(
        metrics.labels.keys().any(|k| k.ends_with(".hotkeys")),
        "hotkeys label published for top"
    );
    // Every shard that processed packets has its eval histogram.
    for (w, &pkts) in run.per_shard_pkts.iter().enumerate() {
        if pkts > 0 {
            let h = &metrics.histograms[&format!("shard.{w}.eval.ns")];
            assert_eq!(
                h.count, pkts,
                "shard {w} eval histogram counts every packet"
            );
            assert!(h.p50() <= h.p99() && h.p99() <= h.max);
            assert!(
                metrics
                    .histograms
                    .contains_key(&format!("shard.{w}.ring.occupancy")),
                "shard {w} sampled ring occupancy"
            );
        }
    }
}

/// The flight recorder keeps the most recent events by arrival seq,
/// marks quarantined packets, and its JSON dump's `trace` key re-parses
/// as a workload-shaped packet array.
#[test]
fn flight_recorder_captures_faults_and_replays() {
    let tracer = Tracer::enabled();
    let e = engine("ratelimiter", 2, tracer);
    let faults = FaultPlan::parse("panic@0:5,panic@1:9").expect("plan parses");
    let packets = PacketGen::new(11).batch(400);
    let run = e
        .run_with(
            SliceSource::new(&packets),
            &RunConfig::threaded().with_faults(faults.clone()),
        )
        .expect("faulted run");
    assert_eq!(run.quarantined_seqs.len(), 2);
    let stats = run.stats.as_ref().expect("telemetry on");
    let (events, recorded) = stats.flight(1_000_000);
    assert_eq!(recorded, 400, "every offered packet was recorded");
    // Each worker retains FLIGHT_CAP (64) events; with 2 workers at
    // most 128 survive, and they are the latest by seq.
    assert!(events.len() <= 128);
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted, "flight events are seq-ordered");
    let quarantined: Vec<_> = events
        .iter()
        .filter(|e| e.outcome == FlightOutcome::Quarantined)
        .collect();
    // The faults hit early packets; whether they survive the ring
    // depends on cap, so only check consistency when present.
    for q in &quarantined {
        assert!(run.quarantined_seqs.contains(&q.seq));
    }
    let dump = stats.flight_json(16);
    let text = dump.render_pretty();
    let parsed = Value::parse(&text).expect("flight dump is valid JSON");
    let Some(Value::Array(trace)) = parsed.get("trace") else {
        panic!("flight dump needs a replayable trace key");
    };
    assert!(!trace.is_empty() && trace.len() <= 16);
    for item in trace {
        assert!(
            matches!(item, Value::Object(_)),
            "trace entries are packet objects"
        );
    }
}

/// Under a mock clock the sequential modes are fully deterministic:
/// two identical runs render byte-identical stats documents and metric
/// tables — the property that lets the differential suites run with
/// telemetry enabled.
#[test]
fn sequential_stats_deterministic_under_mock_clock() {
    let run_once = || {
        let tracer = Tracer::with_clock(Arc::new(MockClock::new(75)));
        let e = engine("nat", 3, tracer.clone());
        let run = e
            .run_with(
                SliceSource::new(&PacketGen::new(5).batch(300)),
                &RunConfig::sequential(),
            )
            .expect("sequential run");
        let stats = run.stats_json().expect("stats collected").render_pretty();
        let table = tracer.metrics().render_table();
        (stats, table)
    };
    let (stats_a, table_a) = run_once();
    let (stats_b, table_b) = run_once();
    assert_eq!(stats_a, stats_b, "stats JSON must be byte-identical");
    assert_eq!(table_a, table_b, "metric table must be byte-identical");
    assert!(stats_a.contains("\"p99\""), "stats carry percentiles");
}

/// `render_top` shows one row per shard with the quarantine column
/// fed from the run's counters.
#[test]
fn top_renders_per_shard_rows_from_run_metrics() {
    let tracer = Tracer::enabled();
    let e = engine("firewall", 3, tracer.clone());
    let faults = FaultPlan::parse("panic@2:1").expect("plan parses");
    e.run_with(
        SliceSource::new(&PacketGen::new(2).batch(300)),
        &RunConfig::threaded().with_faults(faults.clone()),
    )
    .expect("run");
    let table = render_top(&tracer.metrics(), None);
    let rows: Vec<&str> = table.lines().collect();
    // Header + 3 shard rows at minimum (hot-key lines follow).
    assert!(rows.len() >= 4, "{table}");
    for w in 0..3 {
        assert!(
            rows.iter()
                .any(|r| r.trim_start().starts_with(&w.to_string())),
            "missing row for shard {w}: {table}"
        );
    }
    assert!(table.contains("quar"), "{table}");
}

/// The global-lock path (shared state) collects telemetry too.
#[test]
fn global_lock_runs_collect_stats() {
    let tracer = Tracer::enabled();
    // `balance` shards `shared`-verdict state, forcing the global lock.
    let e = engine("balance", 2, tracer);
    let run = e
        .run_with(
            SliceSource::new(&PacketGen::new(9).batch(200)),
            &RunConfig::threaded(),
        )
        .expect("run");
    assert!(!run.partitioned, "balance must run under the global lock");
    let stats = run.stats.expect("telemetry on");
    assert_eq!(stats.shards.len(), 2);
    let evals: u64 = stats.shards.iter().map(|s| s.eval.count).sum();
    assert_eq!(evals, 200);
    // No dispatch key under the lock: the hot-key profile is empty.
    assert!(stats.shards.iter().all(|s| s.hotkeys.is_empty()));
}
