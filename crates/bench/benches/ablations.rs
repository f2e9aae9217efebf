//! Ablations of the design choices DESIGN.md calls out.
//!
//! * `statealyzer_input` — §3.1's claim that feeding StateAlyzer the
//!   packet slice instead of the whole program "reduces the amount of
//!   code to process".
//! * `loop_bound` — §3.2's loop bounding: path count and time as the
//!   unroll bound grows.
//! * `slice_kind` — dynamic vs. static slicing cost (Figure 1's
//!   dynamic-slice view).
//! * `solver` — the SMT-lite fragment's check cost on NF-shaped
//!   conjunctions.

use nf_packet::wire::{parse_ipv4, TcpFlags};
use nf_packet::Packet;
use nf_support::bench::Harness;
use nfactor_core::Pipeline;
use nfl_lang::BinOp;
use nfl_slicer::statealyzer::{statealyzer, StateAlyzerInput};
use nfl_symex::{PathLimits, Solver, SymExec, SymVal};

fn bench_statealyzer_input(h: &mut Harness) {
    let mut g = h.benchmark_group("ablation/statealyzer_input");
    let src = nf_corpus::snort::source(100);
    let syn = Pipeline::builder()
        .name("snort")
        .build()
        .unwrap()
        .synthesize(&src)
        .unwrap();
    let info = nfl_lang::types::check(&syn.nf_loop.program).unwrap();
    for (label, input) in [
        ("whole_program", StateAlyzerInput::WholeProgram),
        ("packet_slice", StateAlyzerInput::PacketSlice),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| statealyzer(&syn.nf_loop, &syn.packet_slice.stmts, &info, input))
        });
    }
    // Also report the statement-count reduction once.
    let whole = statealyzer(
        &syn.nf_loop,
        &syn.packet_slice.stmts,
        &info,
        StateAlyzerInput::WholeProgram,
    );
    let sliced = statealyzer(
        &syn.nf_loop,
        &syn.packet_slice.stmts,
        &info,
        StateAlyzerInput::PacketSlice,
    );
    eprintln!(
        "[ablation] statealyzer examined {} stmts (whole) vs {} (slice)",
        whole.stmts_examined, sliced.stmts_examined
    );
    g.finish();
}

fn bench_loop_bound(h: &mut Harness) {
    let mut g = h.benchmark_group("ablation/loop_bound");
    // An NF with a bounded retry loop whose unrolling multiplies paths.
    let src = r#"
        config N = 3;
        state acc = 0;
        fn cb(pkt: packet) {
            for i in 0..4 {
                if pkt.ip.ttl > i {
                    acc = acc + 1;
                }
            }
            if pkt.ip.ttl > 0 { send(pkt); }
        }
        fn main() { sniff(cb); }
    "#;
    let p = nfl_lang::parse_and_check(src).unwrap();
    let pl = nfl_analysis::normalize::normalize(&p).unwrap();
    for bound in [1usize, 2, 4, 8] {
        g.bench_with_input(bound.to_string(), &bound, |b, &bound| {
            b.iter(|| {
                SymExec::new(&pl)
                    .with_limits(PathLimits {
                        loop_bound: bound,
                        ..PathLimits::default()
                    })
                    .explore()
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn bench_slice_kind(h: &mut Harness) {
    let mut g = h.benchmark_group("ablation/slice_kind");
    let src = nf_corpus::fig1_lb::source();
    let syn = Pipeline::builder()
        .name("lb")
        .build()
        .unwrap()
        .synthesize(&src)
        .unwrap();
    // Static: PDG + backward reachability.
    g.bench_function("static", |b| {
        b.iter(|| {
            let boundary =
                nfl_analysis::pdg::default_boundary(&syn.nf_loop.program, &syn.nf_loop.func);
            let pdg =
                nfl_analysis::pdg::Pdg::build(&syn.nf_loop.program, &syn.nf_loop.func, &boundary);
            nfl_slicer::static_slice::packet_slice(&pdg, &syn.nf_loop.program, &syn.nf_loop.func)
        })
    });
    // Dynamic: interpret one packet, slice its trace.
    let pkt = Packet::tcp(
        parse_ipv4("10.0.0.1").unwrap(),
        1234,
        parse_ipv4("3.3.3.3").unwrap(),
        80,
        TcpFlags::syn(),
    );
    g.bench_function("dynamic", |b| {
        b.iter(|| {
            let mut interp = nfl_interp::Interp::new(&syn.nf_loop).unwrap();
            let run = interp.process(&pkt).unwrap();
            nfl_slicer::dynamic::dynamic_slice_of_output(&syn.nf_loop.program, &run.trace)
        })
    });
    g.finish();
}

fn bench_solver(h: &mut Harness) {
    let mut g = h.benchmark_group("ablation/solver");
    let solver = Solver;
    // NF-shaped conjunction: field equalities, intervals, mask, residue.
    let var = SymVal::var;
    let cs: Vec<SymVal> = vec![
        SymVal::bin(BinOp::Eq, var("pkt.tcp.dport"), SymVal::Int(80)),
        SymVal::bin(BinOp::Gt, var("pkt.ip.ttl"), SymVal::Int(1)),
        SymVal::bin(
            BinOp::Ne,
            SymVal::bin(BinOp::BitAnd, var("pkt.tcp.flags"), SymVal::Int(2)),
            SymVal::Int(0),
        ),
        SymVal::bin(
            BinOp::Eq,
            SymVal::bin(
                BinOp::Mod,
                SymVal::Hash(Box::new(var("pkt.ip.src"))),
                SymVal::Int(2),
            ),
            SymVal::Int(0),
        ),
    ];
    g.bench_function("check_sat", |b| b.iter(|| solver.check(&cs)));
    let mut unsat = cs.clone();
    unsat.push(SymVal::bin(
        BinOp::Eq,
        var("pkt.tcp.dport"),
        SymVal::Int(81),
    ));
    g.bench_function("check_unsat", |b| b.iter(|| solver.check(&unsat)));
    g.bench_function("model_gen", |b| {
        b.iter(|| solver.model(&cs, |_| (0, 65535)).unwrap())
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_args("ablations");
    bench_statealyzer_input(&mut h);
    bench_loop_bound(&mut h);
    bench_slice_kind(&mut h);
    bench_solver(&mut h);
    h.finish();
}
