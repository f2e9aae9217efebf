//! Regenerate the paper's figures as text artifacts.
//!
//! ```text
//! cargo run --release -p bench --bin figures
//! ```
//!
//! * **Figure 1** — the load balancer source with its packet/state slice
//!   highlighted (`>>` markers), plus the *dynamic* slice for the first
//!   packet of a flow (the exact scenario the paper highlights).
//! * **Figure 4 / 5** — the four code structures and the unfolded
//!   (Figure 5) form of the nested-loop one.
//! * **Figure 6** — the NFactor output table for balance.

use nf_packet::wire::{parse_ipv4, TcpFlags};
use nf_packet::Packet;
use nfactor_core::Pipeline;
use nfl_analysis::normalize::{detect_structure, normalize};
use nfl_interp::Interp;
use nfl_slicer::dynamic::dynamic_slice_of_output;

fn main() {
    // ---------- Figure 1 ----------
    println!("==================== Figure 1 ====================");
    println!("Load balancer code and a slice (>> = slice lines)\n");
    let lb_src = nf_corpus::fig1_lb::source();
    let syn = Pipeline::builder()
        .name("fig1-lb")
        .build()
        .unwrap()
        .synthesize(&lb_src)
        .expect("lb");
    println!("{}", syn.render_highlighted_slice());

    println!("--- dynamic slice: relaying the FIRST packet of a flow ---");
    let mut interp = Interp::new(&syn.nf_loop).expect("interp");
    let first = Packet::tcp(
        parse_ipv4("10.0.0.1").unwrap(),
        1234,
        parse_ipv4("3.3.3.3").unwrap(),
        80,
        TcpFlags::syn(),
    );
    let run = interp.process(&first).expect("process");
    let dyn_slice = dynamic_slice_of_output(&syn.nf_loop.program, &run.trace);
    let text = nfl_lang::pretty::program_to_string_opts(
        &syn.nf_loop.program,
        &nfl_lang::pretty::RenderOpts {
            highlight: Some(dyn_slice.clone()),
            ..Default::default()
        },
    );
    println!("{text}");
    println!(
        "(dynamic slice: {} stmts; static slice: {} — the hash-mode branch and the reverse direction are absent dynamically)\n",
        dyn_slice.len(),
        syn.union_slice.stmts.len()
    );

    // ---------- Figures 4 & 5 ----------
    println!("==================== Figures 4 & 5 ====================");
    for (label, src) in [
        ("4a one-loop", nf_corpus::structures::one_loop()),
        ("4b callback", nf_corpus::structures::callback()),
        (
            "4c consumer-producer",
            nf_corpus::structures::consumer_producer(),
        ),
        ("4d nested-loop", nf_corpus::structures::nested_loop()),
    ] {
        let p = nfl_lang::parse_and_check(&src).expect(label);
        println!("{label}: detected {:?}", detect_structure(&p));
    }
    let nested = nfl_lang::parse_and_check(&nf_corpus::structures::nested_loop()).unwrap();
    let unfolded = nf_tcp::unfold_sockets(&nested).expect("unfold");
    println!("\nFigure 5: the nested loop after socket unfolding:");
    println!("{}", nfl_lang::pretty::program_to_string(&unfolded));
    let _ = normalize(&unfolded).expect("unfolded normalises");

    // ---------- Figure 6 ----------
    println!("==================== Figure 6 ====================");
    println!("NFactor output for balance\n");
    let bsyn = Pipeline::builder()
        .name("balance")
        .build()
        .unwrap()
        .synthesize(&nf_corpus::balance::source(5))
        .expect("balance");
    println!("{}", bsyn.render_model());
}
