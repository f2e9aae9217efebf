//! Integration: dynamic slices over the corpus (§2.1, Figure 1).
//!
//! A dynamic slice keeps the statements that *really* led to one
//! output; the static slices keep every statement that *might*. So on
//! any run, the dynamic slice of an emitted packet must fall inside the
//! PDG packet slice (Algorithm 1 lines 1–4) and inside the union slice
//! the model is built from.

use nfactor::core::Pipeline;
use nfactor::corpus::default_corpus;
use nfactor::interp::Interp;
use nfactor::packet::wire::{parse_ipv4, TcpFlags};
use nfactor::packet::{Packet, PacketGen};
use nfactor::slicer::dynamic::{dynamic_slice, dynamic_slice_of_output};

#[test]
fn dynamic_slices_lie_within_static_slices_across_corpus() {
    for nf in default_corpus() {
        let syn = Pipeline::builder()
            .name(nf.name)
            .build()
            .unwrap()
            .synthesize(&nf.source)
            .unwrap_or_else(|e| panic!("{}: {e}", nf.name));
        let program = &syn.nf_loop.program;
        let mut interp = Interp::new(&syn.nf_loop).unwrap();
        let mut gen = PacketGen::new(1);
        let mut emitting = 0;
        for n in 0..300 {
            let step = interp
                .process(&gen.next_packet())
                .unwrap_or_else(|e| panic!("{} packet {n}: {e}", nf.name));
            let emits = step.trace.emit_indices();
            if !emits.is_empty() {
                emitting += 1;
            }
            for criterion in emits {
                for sid in dynamic_slice(program, &step.trace, criterion) {
                    assert!(
                        syn.packet_slice.stmts.contains(&sid),
                        "{} packet {n}: dynamic stmt {sid} not in the packet slice",
                        nf.name
                    );
                    assert!(
                        syn.union_slice.stmts.contains(&sid),
                        "{} packet {n}: dynamic stmt {sid} not in the union slice",
                        nf.name
                    );
                }
            }
        }
        // `router` forwards nothing on this traffic, so its check above is
        // vacuous; every other NF must have had something to check.
        if nf.name != "router" {
            assert!(emitting > 0, "{}: no packet emitted", nf.name);
        }
    }
}

#[test]
fn figure1_first_packet_dynamic_slice_is_pinned() {
    // The `figures` scenario: the first inbound packet of a flow through
    // the Figure 1 load balancer.
    let syn = Pipeline::builder()
        .name("fig1-lb")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::fig1_lb::source())
        .unwrap();
    let first = Packet::tcp(
        parse_ipv4("10.0.0.1").unwrap(),
        1234,
        parse_ipv4("3.3.3.3").unwrap(),
        80,
        TcpFlags::syn(),
    );
    let step = Interp::new(&syn.nf_loop).unwrap().process(&first).unwrap();
    let dynamic = dynamic_slice_of_output(&syn.nf_loop.program, &step.trace);
    assert_eq!(dynamic.len(), 18, "dynamic slice of the first packet");
    assert_eq!(syn.union_slice.stmts.len(), 30, "union slice");
    assert!(dynamic.is_subset(&syn.union_slice.stmts));
}
