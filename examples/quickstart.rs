//! Quickstart: the whole NFactor pipeline on the paper's Figure 1 load
//! balancer.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Prints, in order: the Table 1 variable classification, the Figure 1
//! highlighted slice, the Table 2 metrics for this NF, the Figure 2c
//! execution paths, and the synthesized Figure 2d/6 model.

use nfactor::core::Pipeline;
use nfactor::corpus::fig1_lb;

fn main() {
    let src = fig1_lb::source();
    println!("=== NFactor quickstart: the Figure 1 load balancer ===\n");

    let pipeline = Pipeline::builder()
        .name("fig1-lb")
        .build()
        .expect("pipeline");
    let syn = pipeline.synthesize(&src).expect("synthesis");

    // Table 1: variable classification.
    println!("--- StateAlyzer variable classes (Table 1) ---");
    println!("pktVar : {:?}", syn.classes.pkt_vars);
    println!("cfgVar : {:?}", syn.classes.cfg_vars);
    println!("oisVar : {:?}", syn.classes.ois_vars);
    println!(
        "logVar : {:?} (outside the packet slice)",
        syn.classes.log_vars
    );

    // Figure 1: the slice, highlighted in the source.
    println!("\n--- Packet ∪ state slice (Figure 1 highlighting) ---");
    println!("{}", syn.render_highlighted_slice());

    // Table 2 metrics for this NF.
    println!("--- Metrics (Table 2 row) ---");
    println!(
        "LoC orig = {}, slice = {}, path = {}",
        syn.metrics.loc_orig, syn.metrics.loc_slice, syn.metrics.loc_path
    );
    println!(
        "slicing time = {:?}, slice paths = {}, SE time = {:?}",
        syn.metrics.slicing_time, syn.metrics.ep_slice, syn.metrics.se_time_slice
    );

    // Figure 2c: the execution paths.
    println!("\n--- Execution paths of the slice ---");
    for (i, p) in syn.exploration.paths.iter().enumerate() {
        println!("path {i}: {}", p.canonical());
    }

    // The model (Figure 2d / Figure 6 format).
    println!("\n--- Synthesized model ---");
    println!("{}", syn.render_model());

    // And the §5 differential check, 1000 random packets.
    let report =
        nfactor::core::accuracy::differential_test(&syn, 2016, 1000).expect("differential test");
    println!(
        "accuracy: {}/{} random packets agree between model and program",
        report.agreements, report.trials
    );
}
