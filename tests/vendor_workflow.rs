//! Integration: the paper's §1 deployment story, end to end.
//!
//! *"Our goal is to make our tool available to NF vendors who can run it
//! on their proprietary code and provide only the resultant models to
//! network operators for verification, troubleshooting and testing
//! purposes."*
//!
//! Vendor side: synthesize, export `.nfm`. Operator side: parse the
//! `.nfm` — *without the source* — and run verification and evaluation
//! on it.

use nfactor::core::accuracy::initial_model_state;
use nfactor::core::Pipeline;
use nfactor::interp::{Interp, Value};
use nfactor::model::{from_text, to_text};
use nfactor::packet::Field;
use nfactor::verify::hsa::{HeaderSpace, IntervalSet, StatefulNf};

#[test]
fn operator_verifies_from_shipped_model_only() {
    // --- vendor side ---
    let syn = Pipeline::builder()
        .name("fw")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::firewall::source())
        .unwrap();
    let shipped = to_text(&syn.model);

    // --- operator side: only `shipped` crosses the boundary ---
    let model = from_text(&shipped).expect("operator parses the .nfm");
    assert_eq!(model, syn.model, "lossless shipping");

    let state = nfactor::model::ModelState::default()
        .with_config("PROTECTED_NET", Value::Int(0x0a000000))
        .with_config("PROTECTED_MASK", Value::Int(0xff000000))
        .with_config("ALLOW_PORT", Value::Int(80))
        .with_scalar("out_count", Value::Int(0))
        .with_scalar("in_count", Value::Int(0))
        .with_scalar("blocked_count", Value::Int(0))
        .with_map("pinholes");
    let nf = StatefulNf { model, state };
    let outside =
        HeaderSpace::all().with(Field::IpSrc, IntervalSet::range(0x0b00_0000, 0xffff_ffff));
    let through = nf.reachable_through(&outside);
    assert!(!through.is_empty());
    assert!(through
        .iter()
        .all(|s| s.get(Field::TcpDport).contains(80) && s.get(Field::TcpDport).size() == 1));
}

#[test]
fn operator_evaluates_shipped_model_like_the_nf() {
    // The shipped model must *behave* like the NF: run the §5 diff with
    // the parsed-from-text model on the model side.
    let syn = Pipeline::builder()
        .name("nat")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::nat::source())
        .unwrap();
    let shipped = from_text(&to_text(&syn.model)).unwrap();
    let mut interp = Interp::new(&syn.nf_loop).unwrap();
    let mut model_state = initial_model_state(&syn, &interp);
    let mut gen = nfactor::packet::PacketGen::new(31);
    for trial in 0..500 {
        let pkt = gen.next_packet();
        let prog = interp.process(&pkt).unwrap();
        let step = model_state.step(&shipped, &pkt).unwrap();
        assert_eq!(
            prog.outputs.first(),
            step.output.as_deref(),
            "trial {trial} diverged"
        );
    }
}

#[test]
fn every_corpus_model_ships_losslessly() {
    for nf in nfactor::corpus::default_corpus() {
        // Keep the generators small for speed; shipping fidelity does not
        // depend on size.
        let src = match nf.name {
            "balance" => nfactor::corpus::balance::source(5),
            "snort" => nfactor::corpus::snort::source(10),
            _ => nf.source,
        };
        let syn = Pipeline::builder()
            .name(nf.name)
            .build()
            .unwrap()
            .synthesize(&src)
            .unwrap_or_else(|e| panic!("{}: {e}", nf.name));
        let round = from_text(&to_text(&syn.model)).unwrap_or_else(|e| panic!("{}: {e}", nf.name));
        assert_eq!(round, syn.model, "{} shipping round trip", nf.name);
    }
}
