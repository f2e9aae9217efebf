//! §6 future work, §2.2 motivation: compare the synthesized model with a
//! hand-written one.
//!
//! ```text
//! cargo run --example model_comparison
//! ```
//!
//! The paper's §2.2: *"the variable 'mode' is used to configure how a
//! backend server is selected for a new flow, and it can be either round
//! robin or random hash. Some existing NF models fail to capture this
//! detail."* We build exactly such a mode-blind manual model
//! (Joseph–Stoica style) and let the behavioural diff expose the gap.

use nfactor::core::accuracy::initial_model_state;
use nfactor::core::Pipeline;
use nfactor::interp::{Interp, Value};
use nfactor::verify::{behavioural_diff, manual_lb_model};

fn main() {
    let syn = Pipeline::builder()
        .name("fig1-lb")
        .build()
        .expect("pipeline")
        .synthesize(&nfactor::corpus::fig1_lb::source())
        .expect("synthesis");
    let manual = manual_lb_model();
    let interp = Interp::new(&syn.nf_loop).expect("interp");
    let base_state = initial_model_state(&syn, &interp);

    println!("=== Synthesized vs. hand-written LB model ===\n");
    println!(
        "synthesized: {} tables ({} entries) — one per `mode` value",
        syn.model.tables.len(),
        syn.model.entry_count()
    );
    println!(
        "manual:      {} table  ({} entries) — mode-blind, assumes round robin\n",
        manual.tables.len(),
        manual.tables[0].entries.len()
    );

    // Under the configuration the manual author assumed: equivalent.
    let rr = behavioural_diff(&syn.model, &base_state, &manual, &base_state, 5, 500).expect("diff");
    println!("mode = ROUND_ROBIN: {rr}");
    assert!(rr.equivalent());

    // Flip the knob the manual model doesn't know exists.
    let mut hash_state = base_state.clone();
    hash_state.configs.insert("mode".into(), Value::Int(0));
    let hash =
        behavioural_diff(&syn.model, &hash_state, &manual, &hash_state, 5, 500).expect("diff");
    println!("mode = HASH:        {hash}");
    assert!(
        !hash.equivalent(),
        "the mode-blind model must diverge under hash mode"
    );
    println!(
        "→ the hand model forwards to the round-robin backend while the real NF \
         hashes — the §2.2 detail, caught automatically."
    );
}
