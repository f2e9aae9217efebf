//! Batched streaming dispatch: the firewall on the compiled backend
//! at 4 real worker shards (`RunMode::Threaded` — OS threads over
//! SPSC rings), per-packet dispatch (batch size 1) versus batched
//! dispatch (batch size 32).
//!
//! The batched path amortizes the per-packet dispatch costs across
//! each batch: one source pull and one binning pass per round, one
//! ring push (one allocation, one atomic handoff) per shard bin
//! instead of one per packet, and one rebalance/telemetry check per
//! round. On a multi-core host the dispatcher thread is the shared
//! bottleneck — every packet crosses it once — so dispatch-plane cost
//! per packet is the scaling quantity, and it is what this bench
//! gates on.
//!
//! Measurement: [`ShardRun::dispatch_ns`] is the dispatcher thread's
//! wall clock and [`ShardRun::dispatch_wait_ns`] is the share of it
//! spent in bounded backoff on full rings — worker-bound time, not
//! dispatch work. The gated metric is the *active* dispatch cost,
//! `dispatch_ns - dispatch_wait_ns`, per packet, taking the minimum
//! over repeats (preemption only adds time). This keeps the bench
//! on real threads (no simulated-parallel accounting) while staying
//! meaningful in the one-CPU container this runs in, where end-to-end
//! wall clock is worker-bound and identical for every batch size;
//! wall clock is still reported per batch size for context.
//!
//! The acceptance gate lives here: batched dispatch must beat
//! per-packet dispatch by 1.5x at 4 shards, or the bench aborts
//! loudly.

use nf_packet::PacketGen;
use nf_shard::{Backend, BatchConfig, RunConfig, ShardEngine, SliceSource};
use nf_support::json::Value;
use nfactor_core::Pipeline;

const SHARDS: usize = 4;
const PACKETS: usize = 40_000;
const REPEATS: usize = 7;
const BATCH_SIZES: [usize; 2] = [1, 32];

fn median(mut spans: Vec<u64>) -> u64 {
    spans.sort_unstable();
    spans[spans.len() / 2]
}

/// Cost estimator for the gated metric: preemption and cache pollution
/// only ever *add* time, so the minimum over repeats is the least
/// noise-contaminated observation of the true dispatch cost.
fn minimum(spans: &[u64]) -> u64 {
    *spans.iter().min().expect("at least one repeat")
}

fn config(batch: usize) -> RunConfig {
    let mut cfg = RunConfig::threaded().with_batch(BatchConfig {
        size: batch,
        ..BatchConfig::default()
    });
    // Throughput runs only need the counters, not a SeqOutput per
    // packet.
    cfg.keep_outputs = false;
    cfg
}

fn main() {
    let src = nf_corpus::firewall::source();
    let packets = PacketGen::new(0x57BE).batch(PACKETS);
    let pipeline = Pipeline::builder()
        .name("firewall")
        .shards(SHARDS)
        .build()
        .expect("pipeline");
    let engine = ShardEngine::from_source(&pipeline, &src, Backend::Compiled).expect("engine");

    let mut results = Vec::new();
    let mut active_ns_by_batch = Vec::new();
    for &batch in &BATCH_SIZES {
        let cfg = config(batch);
        let _ = engine
            .run_with(SliceSource::new(&packets), &cfg)
            .expect("warmup");
        let mut walls = Vec::with_capacity(REPEATS);
        let mut actives = Vec::with_capacity(REPEATS);
        let mut waits = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let started = std::time::Instant::now();
            let run = engine
                .run_with(SliceSource::new(&packets), &cfg)
                .expect("run");
            walls.push(started.elapsed().as_nanos() as u64);
            assert!(run.partitioned, "firewall must run partitioned");
            assert_eq!(run.total_pkts(), PACKETS as u64);
            actives.push(run.dispatch_ns.saturating_sub(run.dispatch_wait_ns));
            waits.push(run.dispatch_wait_ns);
        }
        let wall_ns = median(walls);
        let active_ns = minimum(&actives);
        let wait_ns = median(waits);
        let kpps = PACKETS as f64 / (wall_ns as f64 / 1e9) / 1e3;
        let active_per_pkt = active_ns as f64 / PACKETS as f64;
        active_ns_by_batch.push(active_per_pkt);
        eprintln!(
            "stream/firewall x{SHARDS} batch={batch}: wall {:.3} ms ({kpps:.0} kpkt/s), \
             dispatch {active_per_pkt:.0} ns/pkt active + {:.3} ms ring wait",
            wall_ns as f64 / 1e6,
            wait_ns as f64 / 1e6
        );
        results.push(Value::Object(vec![
            ("batch".into(), Value::Int(batch as i64)),
            ("wall_ns".into(), Value::Int(wall_ns as i64)),
            ("throughput_kpps".into(), Value::Float(kpps)),
            ("dispatch_active_ns".into(), Value::Int(active_ns as i64)),
            ("dispatch_wait_ns".into(), Value::Int(wait_ns as i64)),
            (
                "dispatch_active_ns_per_pkt".into(),
                Value::Float(active_per_pkt),
            ),
        ]));
    }

    let speedup = active_ns_by_batch[0] / active_ns_by_batch[1];
    eprintln!(
        "stream/firewall: batched dispatch is {speedup:.2}x per-packet dispatch \
         ({:.0} -> {:.0} ns/pkt)",
        active_ns_by_batch[0], active_ns_by_batch[1]
    );
    let report = Value::Object(vec![
        ("bench".into(), Value::Str("stream".into())),
        (
            "mode".into(),
            Value::Str(
                "threaded (RunMode::Threaded: real worker threads over SPSC rings; \
                 gated metric is active dispatcher-thread cost per packet, \
                 dispatch_ns - dispatch_wait_ns — ring-full backoff excluded because \
                 it is worker-bound wait, not dispatch work; wall clock reported for \
                 context and is worker-bound on this one-CPU container)"
                    .into(),
            ),
        ),
        ("nf".into(), Value::Str("firewall".into())),
        ("backend".into(), Value::Str("compiled".into())),
        ("shards".into(), Value::Int(SHARDS as i64)),
        ("packets".into(), Value::Int(PACKETS as i64)),
        ("repeats_median".into(), Value::Int(REPEATS as i64)),
        (
            "speedup_batched_vs_per_packet".into(),
            Value::Float(speedup),
        ),
        ("results".into(), Value::Array(results)),
    ]);
    let dir = std::env::var("NF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_stream.json");
    match std::fs::write(&path, report.render_pretty()) {
        Ok(()) => eprintln!("bench stream: report -> {}", path.display()),
        Err(e) => eprintln!("bench stream: could not write {}: {e}", path.display()),
    }

    // Gate last, so a failing run still leaves its numbers on disk.
    assert!(
        speedup >= 1.5,
        "batched dispatch reached only {speedup:.2}x per-packet dispatch (need >= 1.5x)"
    );
}
