//! §4 Service Policy Composition: the paper's motivating question.
//!
//! ```text
//! cargo run --example service_chain
//! ```
//!
//! *"Consider two service chaining policies: {FW, IDS} and {LB}. What
//! should be the right order after composition, {FW, IDS, LB} or
//! {FW, LB, IDS}?"* — answered mechanically from the synthesized models'
//! input/output space footprints, PGA style.

use nfactor::core::Pipeline;
use nfactor::verify::chain::{footprint, recommend_order};

fn synth(name: &str, src: &str) -> nfactor::core::Synthesis {
    Pipeline::builder()
        .name(name)
        .build()
        .expect("pipeline")
        .synthesize(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn main() {
    println!("=== Service chain composition from synthesized models ===\n");
    let fw = synth("FW", &nfactor::corpus::firewall::source());
    let ids = synth("IDS", &nfactor::corpus::snort::source(10));
    let lb = synth("LB", &nfactor::corpus::fig1_lb::source());

    for (name, syn) in [("FW", &fw), ("IDS", &ids), ("LB", &lb)] {
        let fp = footprint(&syn.model);
        println!(
            "{name}: matches on {:?}",
            fp.matched.iter().map(|f| f.path()).collect::<Vec<_>>()
        );
        println!(
            "    rewrites    {:?}",
            fp.rewritten.iter().map(|f| f.path()).collect::<Vec<_>>()
        );
    }

    let report = recommend_order(&[("FW", &fw.model), ("IDS", &ids.model), ("LB", &lb.model)]);
    println!("\n{report}");
    assert_eq!(report.order, vec!["FW", "IDS", "LB"]);
    println!("→ the paper's {{FW, IDS, LB}} ordering, derived from the models alone.");
}
