//! Integration: the paper's §5 accuracy experiments, at full 1000-trial
//! strength, across the corpus.

use nfactor::core::accuracy::{differential_test, path_sets_equal};
use nfactor::core::Pipeline;

fn corpus() -> Vec<(&'static str, String)> {
    vec![
        ("fig1-lb", nfactor::corpus::fig1_lb::source()),
        ("balance", nfactor::corpus::balance::source(8)),
        ("snort", nfactor::corpus::snort::source(20)),
        ("nat", nfactor::corpus::nat::source()),
        ("firewall", nfactor::corpus::firewall::source()),
    ]
}

#[test]
fn thousand_random_packets_agree_everywhere() {
    for (name, src) in corpus() {
        let syn = Pipeline::builder()
            .name(name)
            .build()
            .unwrap()
            .synthesize(&src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = differential_test(&syn, 2016, 1000).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            report.perfect(),
            "{name}: {}/{} agreed; first mismatches: {:?}",
            report.agreements,
            report.trials,
            report.mismatches
        );
    }
}

#[test]
fn path_sets_equal_everywhere() {
    for (name, src) in corpus() {
        let syn = Pipeline::builder()
            .name(name)
            .build()
            .unwrap()
            .synthesize(&src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            path_sets_equal(&syn).unwrap_or_else(|e| panic!("{name}: {e}")),
            "{name}: slice and original disagree on forwarding paths"
        );
    }
}

#[test]
fn different_seeds_still_agree() {
    // The paper fixes no seed; agreement must be seed-independent.
    let syn = Pipeline::builder()
        .name("nat")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::nat::source())
        .unwrap();
    for seed in [1u64, 7, 42, 99, 123456] {
        let report = differential_test(&syn, seed, 200).unwrap();
        assert!(report.perfect(), "seed {seed}: {:?}", report.mismatches);
    }
}

#[test]
fn stateful_agreement_over_long_runs() {
    // 2000 packets through the Figure 1 LB: the NAT tables grow and the
    // model must track every installed mapping.
    let syn = Pipeline::builder()
        .name("fig1-lb")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::fig1_lb::source())
        .unwrap();
    let report = differential_test(&syn, 77, 2000).unwrap();
    assert!(report.perfect(), "{:?}", report.mismatches);
}
