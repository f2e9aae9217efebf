//! Compiled-backend speedup: per-packet dispatch throughput of the
//! three backends stepped directly (no sharding, no rings) on the
//! firewall — the concrete interpreter, the model evaluator, and the
//! model lowered to the `nf-compile` decision-tree engine.
//!
//! The model evaluator and the compiled engine run on the same state
//! store. The evaluator scans entries in order, resolves every state
//! name through the store's name index and re-evaluates each state
//! predicate per entry; the compiled engine walks a binary-searched
//! field-test tree, reads slots and map arenas by indices resolved at
//! compile time and evaluates each distinct predicate once per packet,
//! so its step loop is where the speedup must show. The acceptance gate
//! lives here: compiled must clear 5x the interpreter's throughput or
//! the bench aborts loudly.
//!
//! The gate is a ratio of two timings, so both must see the same host.
//! Each repeat runs one pass of every backend, and the backend that
//! goes first rotates from repeat to repeat, so a phase of host load
//! that speeds or slows part of the run falls on every backend instead
//! of on one.

use nf_packet::{Packet, PacketGen};
use nf_support::json::Value;
use nfactor_core::accuracy::initial_model_state;
use nfactor_core::Pipeline;
use nfl_interp::Interp;
use std::time::Instant;

const PACKETS: usize = 4000;
const REPEATS: usize = 5;

fn median(mut spans: Vec<u64>) -> u64 {
    spans.sort_unstable();
    spans[spans.len() / 2]
}

/// Warm each backend up with one full pass of its `step` over the
/// stream, then run `REPEATS` rounds of one timed pass per backend,
/// round `r` starting with backend `r` (mod the backend count).
/// Returns each backend's median span in nanoseconds.
fn time_backends(packets: &[Packet], steps: &mut [&mut dyn FnMut(&Packet)]) -> Vec<u64> {
    for step in steps.iter_mut() {
        for p in packets {
            step(p);
        }
    }
    let mut spans = vec![Vec::with_capacity(REPEATS); steps.len()];
    for round in 0..REPEATS {
        for k in 0..steps.len() {
            let b = (round + k) % steps.len();
            let t0 = Instant::now();
            for p in packets {
                steps[b](p);
            }
            spans[b].push(t0.elapsed().as_nanos() as u64);
        }
    }
    spans.into_iter().map(median).collect()
}

fn main() {
    let src = nf_corpus::firewall::source();
    let packets = PacketGen::new(0xC0DE).batch(PACKETS);

    let syn = Pipeline::builder()
        .name("firewall")
        .build()
        .expect("pipeline")
        .synthesize(&src)
        .expect("synthesize");
    let interp0 = Interp::new(&syn.nf_loop).expect("interp");
    let init = initial_model_state(&syn, &interp0);

    let t0 = Instant::now();
    let prog = nf_compile::compile(&syn.model, &init).expect("compile");
    let compile_ns = t0.elapsed().as_nanos() as u64;
    eprintln!(
        "compile/firewall: lowered in {:.1} us ({} entries, {} nodes)",
        compile_ns as f64 / 1e3,
        prog.entry_count(),
        prog.node_count()
    );

    let mut interp = interp0;
    let mut ms = init.clone();
    let model = &syn.model;
    let mut cs = nf_compile::CompiledState::new(&prog);
    let spans = time_backends(
        &packets,
        &mut [
            &mut |p: &Packet| {
                interp.process(p).expect("interp step");
            },
            &mut |p: &Packet| {
                ms.step(model, p).expect("model step");
            },
            &mut |p: &Packet| {
                cs.step(&prog, p).expect("compiled step");
            },
        ],
    );
    let (interp_ns, model_ns, compiled_ns) = (spans[0], spans[1], spans[2]);

    let kpps = |span_ns: u64| PACKETS as f64 / (span_ns as f64 / 1e9) / 1e3;
    let mut results = Vec::new();
    for (label, span_ns) in [
        ("interp", interp_ns),
        ("model", model_ns),
        ("compiled", compiled_ns),
    ] {
        let speedup = interp_ns as f64 / span_ns as f64;
        eprintln!(
            "compile/firewall {label}: {:.3} ms / {PACKETS} pkts, {:.0} kpkt/s, {speedup:.2}x vs interp",
            span_ns as f64 / 1e6,
            kpps(span_ns)
        );
        results.push(Value::Object(vec![
            ("backend".into(), Value::Str(label.into())),
            ("span_ns".into(), Value::Int(span_ns as i64)),
            ("throughput_kpps".into(), Value::Float(kpps(span_ns))),
            ("speedup_vs_interp".into(), Value::Float(speedup)),
        ]));
    }

    let speedup = interp_ns as f64 / compiled_ns as f64;
    assert!(
        speedup >= 5.0,
        "compiled backend reached only {speedup:.2}x the interpreter (need >= 5x)"
    );

    let report = Value::Object(vec![
        ("bench".into(), Value::Str("compile".into())),
        ("nf".into(), Value::Str("firewall".into())),
        ("packets".into(), Value::Int(PACKETS as i64)),
        ("repeats_median".into(), Value::Int(REPEATS as i64)),
        ("compile_ns".into(), Value::Int(compile_ns as i64)),
        ("tree_nodes".into(), Value::Int(prog.node_count() as i64)),
        ("table_entries".into(), Value::Int(prog.entry_count() as i64)),
        ("compiled_speedup_vs_interp".into(), Value::Float(speedup)),
        ("results".into(), Value::Array(results)),
    ]);
    let dir = std::env::var("NF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&dir).join("BENCH_compile.json");
    match std::fs::write(&path, report.render_pretty()) {
        Ok(()) => eprintln!("bench compile: report -> {}", path.display()),
        Err(e) => eprintln!("bench compile: could not write {}: {e}", path.display()),
    }
}
