//! Micro-benches behind Table 2: slicing time and symbolic-execution
//! time, slice vs. original, across corpus sizes.
//!
//! The `table2` *binary* prints the paper's exact table at paper scale;
//! these benches measure the same two pipeline stages with repeated
//! timed samples at sizes that keep `cargo bench` snappy.

use nf_support::bench::Harness;
use nfactor_core::Pipeline;
use nfl_analysis::pdg::{default_boundary, Pdg};
use nfl_slicer::static_slice::packet_slice;
use nfl_symex::{PathLimits, SymExec};

/// Slicing (PDG + packet slice) as a function of snort rule count.
fn bench_slicing(h: &mut Harness) {
    let mut g = h.benchmark_group("table2/slicing");
    g.sample_size(20);
    for rules in [25usize, 100, 250] {
        let src = nf_corpus::snort::source(rules);
        let program = nfl_lang::parse_and_check(&src).unwrap();
        let pl = nfl_analysis::normalize::normalize(&program).unwrap();
        g.bench_with_input(format!("snort/{rules}"), &pl, |b, pl| {
            b.iter(|| {
                let boundary = default_boundary(&pl.program, &pl.func);
                let pdg = Pdg::build(&pl.program, &pl.func, &boundary);
                packet_slice(&pdg, &pl.program, &pl.func)
            })
        });
    }
    let src = nf_corpus::balance::source(60);
    let program = nfl_lang::parse_and_check(&src).unwrap();
    let unfolded = nf_tcp::unfold_sockets(&program).unwrap();
    let pl = nfl_analysis::normalize::normalize(&unfolded).unwrap();
    g.bench_function("balance/60", |b| {
        b.iter(|| {
            let boundary = default_boundary(&pl.program, &pl.func);
            let pdg = Pdg::build(&pl.program, &pl.func, &boundary);
            packet_slice(&pdg, &pl.program, &pl.func)
        })
    });
    g.finish();
}

/// Symbolic execution: the slice (fast) vs. the original program
/// (explodes) — the paper's headline SE-time columns.
fn bench_symex(h: &mut Harness) {
    let mut g = h.benchmark_group("table2/symex");
    g.sample_size(10);
    let src = nf_corpus::snort::source(25);
    let syn = Pipeline::builder()
        .name("snort")
        .build()
        .unwrap()
        .synthesize(&src)
        .unwrap();
    g.bench_function("snort25/slice", |b| {
        b.iter(|| SymExec::new(&syn.sliced_loop).explore().unwrap())
    });
    g.bench_function("snort25/orig", |b| {
        b.iter(|| {
            SymExec::new(&syn.nf_loop)
                .with_limits(PathLimits {
                    max_paths: 512,
                    track_executed: false,
                    ..PathLimits::default()
                })
                .explore()
                .unwrap()
        })
    });
    let bsrc = nf_corpus::balance::source(10);
    let bsyn = Pipeline::builder()
        .name("balance")
        .build()
        .unwrap()
        .synthesize(&bsrc)
        .unwrap();
    g.bench_function("balance10/slice", |b| {
        b.iter(|| SymExec::new(&bsyn.sliced_loop).explore().unwrap())
    });
    g.bench_function("balance10/orig", |b| {
        b.iter(|| {
            SymExec::new(&bsyn.nf_loop)
                .with_limits(PathLimits {
                    track_executed: false,
                    ..PathLimits::default()
                })
                .explore()
                .unwrap()
        })
    });
    g.finish();
}

/// The whole pipeline end to end per corpus NF (what a vendor would run).
fn bench_pipeline(h: &mut Harness) {
    let mut g = h.benchmark_group("table2/pipeline");
    g.sample_size(10);
    for (name, src) in [
        ("fig1-lb", nf_corpus::fig1_lb::source()),
        ("nat", nf_corpus::nat::source()),
        ("firewall", nf_corpus::firewall::source()),
        ("snort25", nf_corpus::snort::source(25)),
        ("balance10", nf_corpus::balance::source(10)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                Pipeline::builder()
                    .name(name)
                    .build()
                    .unwrap()
                    .synthesize(&src)
                    .unwrap()
            })
        });
    }
    g.finish();
}

fn main() {
    let mut h = Harness::from_args("table2_bench");
    bench_slicing(&mut h);
    bench_symex(&mut h);
    bench_pipeline(&mut h);
    h.finish();
}
