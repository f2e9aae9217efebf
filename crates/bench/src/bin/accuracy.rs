//! Regenerate the paper's **§5 Accuracy** experiments.
//!
//! ```text
//! cargo run --release -p bench --bin accuracy
//! ```
//!
//! Two checks, per NF:
//!
//! 1. *Path-set equality* — "we use symbolic execution to exercise all
//!    possible execution paths on both sides … the two sets of paths are
//!    the same."
//! 2. *Random differential testing* — "we generate random inputs (i.e.,
//!    packets) to both NFactor model and the original program … repeat
//!    the experiments for 1000 times … the outputs in each experiment
//!    are the same."
//!
//! The paper runs 1000 trials on its 2 NFs; we run 1000 on five.

use nfactor_core::accuracy::{differential_test, path_sets_equal};
use nfactor_core::Pipeline;

fn main() {
    let trials = 1000;
    println!("§5 accuracy: model vs. original program\n");
    println!(
        "{:<10} {:>12} {:>22}",
        "NF",
        "paths equal",
        format!("agree ({trials} trials)")
    );
    println!("{}", "-".repeat(48));
    let mut all_ok = true;
    for nf in nf_corpus_small() {
        let syn = Pipeline::builder()
            .name(nf.0)
            .build()
            .unwrap()
            .synthesize(&nf.1)
            .unwrap_or_else(|e| panic!("{}: {e}", nf.0));
        let paths_eq = path_sets_equal(&syn).expect("path comparison");
        let report = differential_test(&syn, 2016, trials).expect("differential");
        println!(
            "{:<10} {:>12} {:>16}/{trials}",
            nf.0,
            if paths_eq { "yes" } else { "NO" },
            report.agreements,
        );
        if !report.perfect() {
            for (t, prog, model) in &report.mismatches {
                println!("    trial {t}: program={prog:?} model={model:?}");
            }
        }
        all_ok &= paths_eq && report.perfect();
    }
    println!();
    if all_ok {
        println!("All NFs: path sets equal, {trials}/{trials} random packets agree.");
    } else {
        println!("ACCURACY MISMATCHES FOUND");
        std::process::exit(1);
    }
}

/// The corpus at analysis-friendly sizes (the generators' bulk is
/// log-only code that the model provably ignores; size is exercised by
/// the table2 binary instead).
fn nf_corpus_small() -> Vec<(&'static str, String)> {
    vec![
        ("fig1-lb", nf_corpus::fig1_lb::source()),
        ("balance", nf_corpus::balance::source(10)),
        ("snort", nf_corpus::snort::source(25)),
        ("nat", nf_corpus::nat::source()),
        ("firewall", nf_corpus::firewall::source()),
    ]
}
