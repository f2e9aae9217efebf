//! The paper's §5 headline: extract the model of *balance*, a socket-API
//! load balancer whose forwarding state hides inside the OS TCP stack.
//!
//! ```text
//! cargo run --example balance_model
//! ```
//!
//! Walks the §3.2 story end to end: detect the Figure 4d nested-loop
//! structure, unfold the socket calls into explicit TCP state (Figure 5),
//! run Algorithm 1, and print the Figure 6 table.

use nfactor::analysis::normalize::{detect_structure, Structure};
use nfactor::core::Pipeline;
use nfactor::corpus::balance;
use nfactor::tcp::unfold_sockets;

fn main() {
    // A small balance (5 bookkeeping blocks) so the intermediate programs
    // stay printable; the table2 bench uses the paper-scale variant.
    let src = balance::source(5);
    let program = nfactor::lang::parse_and_check(&src).expect("parse");

    println!("=== balance: socket-API LB with hidden TCP state ===\n");
    println!(
        "structure detected: {:?} (the paper's Figure 4d)",
        detect_structure(&program)
    );
    assert_eq!(detect_structure(&program), Structure::NestedLoop);

    // §3.2: unfold listen/accept/connect/select into packet-level
    // operations with an explicit TCP state map (Figure 5).
    let unfolded = unfold_sockets(&program).expect("unfold");
    println!(
        "after unfolding: {:?}, with explicit state maps: {:?}",
        detect_structure(&unfolded),
        unfolded
            .states
            .iter()
            .map(|s| s.name.as_str())
            .filter(|n| n.starts_with("__"))
            .collect::<Vec<_>>()
    );

    // The full pipeline does the unfolding automatically.
    let syn = Pipeline::builder()
        .name("balance")
        .build()
        .expect("pipeline")
        .synthesize(&src)
        .expect("synthesis");

    println!("\n--- Figure 6: NFactor output for balance ---");
    println!("{}", syn.render_model());

    println!("--- state machine view (§2.4, used by BUZZ-style testing) ---");
    let fsm = nfactor::model::ModelFsm::from_model(&syn.model);
    println!(
        "{} abstract states, {} transitions ({} state-mutating)",
        fsm.states.len(),
        fsm.transitions.len(),
        fsm.mutating_transitions().count()
    );
    for t in fsm.mutating_transitions() {
        println!(
            "  [{}] --{}--> {}",
            t.from_state,
            if t.forwards { "fwd" } else { "drop" },
            t.effect
        );
    }

    println!("\n--- Table 2 row for this balance ---");
    println!(
        "LoC orig = {}, slice = {}, path = {} | slicing {:?} | EP slice = {} | SE {:?}",
        syn.metrics.loc_orig,
        syn.metrics.loc_slice,
        syn.metrics.loc_path,
        syn.metrics.slicing_time,
        syn.metrics.ep_slice,
        syn.metrics.se_time_slice
    );
}
