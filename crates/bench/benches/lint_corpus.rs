//! Micro-bench for `nfactor lint`: full-report lint time per corpus NF,
//! plus the two dominant phases (context build vs. pass execution) at
//! growing snort scales up to the paper's — the lint must stay cheap
//! enough to run on every build, which `scripts/verify.sh` does and every
//! engine build does for its placement plan.

use nf_support::bench::Harness;
use nfl_lint::{AnalysisCtx, PassManager};

/// End-to-end lint (parse + check + context + passes + render) over the
/// small corpus NFs.
fn bench_lint_corpus(h: &mut Harness) {
    let mut g = h.benchmark_group("lint/corpus");
    g.sample_size(20);
    for (name, src) in [
        ("fig1-lb", nf_corpus::fig1_lb::source()),
        ("nat", nf_corpus::nat::source()),
        ("firewall", nf_corpus::firewall::source()),
        ("portknock", nf_corpus::portknock::source()),
        ("ratelimiter", nf_corpus::ratelimiter::source()),
        ("router", nf_corpus::router::source()),
        ("balance10", nf_corpus::balance::source(10)),
        ("snort25", nf_corpus::snort::source(25)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let report = nfl_lint::lint_source(name, &src).unwrap();
                report.render_text()
            })
        });
    }
    g.finish();
}

/// Context construction vs. pass execution, separated: the context
/// (normalise, types, PDG, dominators, slice, StateAlyzer) is built once
/// and every pass reuses it — this group shows how much each side costs
/// as the NF grows, up to the paper-scale snort where costs quadratic in
/// the statement or variable count show.
fn bench_lint_phases(h: &mut Harness) {
    let mut g = h.benchmark_group("lint/phases");
    g.sample_size(10);
    for rules in [25usize, 100, nf_corpus::snort::PAPER_SCALE_RULES] {
        let src = nf_corpus::snort::source(rules);
        let program = nfl_lang::parse_and_check(&src).unwrap();
        g.bench_function(format!("ctx/snort{rules}"), |b| {
            b.iter(|| AnalysisCtx::build(&program).unwrap())
        });
        let ctx = AnalysisCtx::build(&program).unwrap();
        let pm = PassManager::with_default_passes();
        g.bench_function(format!("passes/snort{rules}"), |b| b.iter(|| pm.run(&ctx)));
    }
    g.finish();
}

fn main() {
    let mut h = Harness::from_args("lint");
    bench_lint_corpus(&mut h);
    bench_lint_phases(&mut h);
    h.finish();
}
