//! Sharded-runtime scaling: throughput of the firewall (a per-flow NF
//! with a symmetric 4-tuple dispatch key) at 1/2/4/8 worker shards.
//!
//! The container this runs in has one CPU, so the numbers come from
//! `RunMode::Sequential` — the simulated-parallel mode that executes every
//! shard's work on one host thread while accounting busy nanoseconds
//! per shard. The reported makespan is the slowest shard's busy time,
//! i.e. the critical path a truly parallel run would have; the JSON is
//! labeled `simulated-parallel` so nobody mistakes it for wall clock.
//!
//! The acceptance gate lives here too: 4 shards must clear 2x the
//! single-shard throughput, or the bench aborts loudly.

use nf_packet::PacketGen;
use nf_shard::{Backend, RunConfig, ShardEngine, SliceSource};
use nf_support::json::Value;
use nfactor_core::Pipeline;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const PACKETS: usize = 4000;
const REPEATS: usize = 5;

fn median(mut spans: Vec<u64>) -> u64 {
    spans.sort_unstable();
    spans[spans.len() / 2]
}

fn main() {
    let src = nf_corpus::firewall::source();
    let packets = PacketGen::new(0xBE7C).batch(PACKETS);

    let mut results = Vec::new();
    let mut base_kpps = 0.0_f64;
    let mut speedup_at_4 = 0.0_f64;
    for &shards in &SHARD_COUNTS {
        let pipeline = Pipeline::builder()
            .name("firewall")
            .shards(shards)
            .build()
            .expect("pipeline");
        let engine = ShardEngine::from_source(&pipeline, &src, Backend::Interp).expect("engine");
        let _ = engine
            .run_with(SliceSource::new(&packets), &RunConfig::sequential())
            .expect("warmup");
        let mut spans = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let run = engine
                .run_with(SliceSource::new(&packets), &RunConfig::sequential())
                .expect("run");
            assert!(run.partitioned, "firewall must run partitioned");
            assert_eq!(run.total_pkts(), PACKETS as u64);
            spans.push(run.makespan_ns());
        }
        let makespan_ns = median(spans);
        let kpps = PACKETS as f64 / (makespan_ns as f64 / 1e9) / 1e3;
        if shards == 1 {
            base_kpps = kpps;
        }
        let speedup = kpps / base_kpps;
        if shards == 4 {
            speedup_at_4 = speedup;
        }
        eprintln!(
            "shard/firewall x{shards}: makespan {:.3} ms, {kpps:.0} kpkt/s, {speedup:.2}x vs 1 shard",
            makespan_ns as f64 / 1e6
        );
        results.push(Value::Object(vec![
            ("shards".into(), Value::Int(shards as i64)),
            ("makespan_ns".into(), Value::Int(makespan_ns as i64)),
            ("throughput_kpps".into(), Value::Float(kpps)),
            ("speedup_vs_1_shard".into(), Value::Float(speedup)),
        ]));
    }

    assert!(
        speedup_at_4 >= 2.0,
        "4 shards reached only {speedup_at_4:.2}x the 1-shard throughput (need >= 2x)"
    );

    let report = Value::Object(vec![
        ("bench".into(), Value::Str("shard".into())),
        (
            "mode".into(),
            Value::Str(
                "simulated-parallel (RunMode::Sequential: per-shard busy-ns accounting \
                 on one host thread; makespan = slowest shard)"
                    .into(),
            ),
        ),
        ("nf".into(), Value::Str("firewall".into())),
        ("packets".into(), Value::Int(PACKETS as i64)),
        ("repeats_median".into(), Value::Int(REPEATS as i64)),
        ("speedup_at_4_shards".into(), Value::Float(speedup_at_4)),
        ("results".into(), Value::Array(results)),
    ]);
    let dir = std::env::var("NF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_shard.json");
    match std::fs::write(&path, report.render_pretty()) {
        Ok(()) => eprintln!("bench shard: report -> {}", path.display()),
        Err(e) => eprintln!("bench shard: could not write {}: {e}", path.display()),
    }
}
