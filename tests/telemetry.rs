//! Integration tests for the shard telemetry plane: per-shard
//! eval/occupancy histograms, the dispatcher's hot-key profile, the
//! flight recorder, and the invariants the plane must hold — telemetry
//! never changes what a run computes, under a mock clock the
//! sequential modes report byte-identical numbers, a packet costs one
//! clock read, and each shard's latencies sum to its busy time.

use nfactor::core::Pipeline;
use nfactor::packet::{Packet, PacketGen, TcpFlags};
use nfactor::shard::telemetry::HOTKEYS_K;
use nfactor::shard::{
    dispatch_values, render_top, shard_of, Backend, FlightOutcome, RunConfig, ShardEngine,
    ShardRun, SliceSource, TelemetryConfig,
};
use nfactor::support::fault::FaultPlan;
use nfactor::support::json::Value;
use nfactor::support::sketch::TopK;
use nfactor::trace::{Clock, MockClock, Tracer};
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

/// Each shard's latency samples chain from one clock stamp to the next,
/// so their sum is exactly the shard's busy time: partitioned and
/// global-lock, inline and threaded.
#[test]
fn eval_latencies_sum_to_busy_time() {
    let packets = PacketGen::new(21).batch(1_000);
    let cases = [
        ("firewall", RunConfig::sequential(), true),
        ("firewall", RunConfig::threaded(), true),
        ("balance", RunConfig::sequential(), false),
        ("balance", RunConfig::threaded(), false),
    ];
    for (name, cfg, partitioned) in cases {
        let e = engine(name, 4, Tracer::enabled());
        let run = e
            .run_with(SliceSource::new(&packets), &cfg)
            .expect("telemetry-on run");
        assert_eq!(run.partitioned, partitioned, "{name} {:?}", cfg.mode);
        let stats = run.stats.as_ref().expect("telemetry on");
        for s in &stats.shards {
            assert_eq!(s.eval.count, run.per_shard_pkts[s.shard]);
            assert_eq!(
                s.eval.sum, run.busy_ns[s.shard],
                "{name} {:?}: shard {} latencies must sum to its busy time",
                cfg.mode, s.shard
            );
        }
        assert!(run.busy_ns.iter().any(|&b| b > 0), "{name} {:?}", cfg.mode);
    }
}

/// A telemetry-on run reads the clock once per packet, plus once per
/// run of back-to-back steps and a few times per engine run (the merge
/// span), not twice per packet.
#[test]
fn telemetry_reads_the_clock_once_per_packet() {
    const PACKETS: u64 = 2_000;
    let clock = Arc::new(MockClock::new(1));
    let e = engine("firewall", 4, Tracer::with_clock(clock.clone()));
    let packets = PacketGen::new(4).batch(PACKETS as usize);
    let cfg = RunConfig::sequential();
    let before = clock.now();
    let run = e
        .run_with(SliceSource::new(&packets), &cfg)
        .expect("sequential run");
    // Each read advances the mock clock one tick; the read that ends
    // the measurement is one of them.
    let reads = clock.now().duration_since(before).as_nanos() as u64 - 1;
    assert!(run.partitioned && run.stats.is_some());
    // The inline executor steps each shard's share of a batch as one run.
    let runs = PACKETS.div_ceil(cfg.batch.size as u64) * e.shards() as u64;
    assert!(
        reads <= PACKETS + runs + 8,
        "{reads} clock reads for {PACKETS} packets in at most {runs} runs"
    );
}

/// The rendered hot keys of a run: per shard, `(key, count, err)`.
fn hot_keys(run: &ShardRun) -> Vec<Vec<(String, u64, u64)>> {
    let stats = run.stats.as_ref().expect("telemetry on");
    stats
        .shards
        .iter()
        .map(|s| {
            s.hotkeys
                .iter()
                .map(|h| (h.key.clone(), h.count, h.err))
                .collect()
        })
        .collect()
}

/// The hot-key sketch tracks flows by dispatch hash; it reports the same
/// keys, counts and error bounds as a sketch keyed on the dispatch-key
/// values themselves, fed the same packets per shard.
#[test]
fn hash_keyed_hot_keys_match_a_value_keyed_sketch() {
    const SHARDS: usize = 4;
    let workloads = [
        ("skewed", skewed_workload(900)),
        ("generated", PacketGen::new(0xF1AE).batch(2_000)),
    ];
    for (label, packets) in workloads {
        let e = engine("firewall", SHARDS, Tracer::enabled());
        let key = e.plan().dispatch().expect("firewall has a dispatch key");
        let mut reference: Vec<TopK<Vec<u64>>> =
            (0..SHARDS).map(|_| TopK::new(HOTKEYS_K)).collect();
        for p in &packets {
            reference[shard_of(key, p, SHARDS)].offer(dispatch_values(key, p));
        }
        let want: Vec<Vec<(String, u64, u64)>> = reference
            .iter()
            .map(|sketch| {
                sketch
                    .entries()
                    .into_iter()
                    .map(|e| {
                        let text = key
                            .fields()
                            .iter()
                            .zip(&e.key)
                            .map(|(f, v)| format!("{}={v}", f.path()))
                            .collect::<Vec<_>>()
                            .join(",");
                        (text, e.count, e.err)
                    })
                    .collect()
            })
            .collect();
        for cfg in [RunConfig::sequential(), RunConfig::threaded()] {
            let run = e
                .run_with(SliceSource::new(&packets), &cfg)
                .expect("telemetry-on run");
            assert_eq!(hot_keys(&run), want, "{label} {:?}", cfg.mode);
        }
        // Eviction, where a newly tracked key takes over an entry, is
        // exercised on both workloads.
        assert!(
            want.iter().flatten().any(|k| k.2 > 0),
            "{label}: no tracked key has an error bound"
        );
    }
}
