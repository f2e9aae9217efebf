//! A port-knocking gateway — a deliberately *multi-step* stateful NF.
//!
//! A client must "knock" on two secret ports in order; only then does
//! the protected service port open for that client. Per-client state is
//! a little FSM (`0 → 1 → 2`), which makes this the sharpest test of the
//! model's state-transition extraction and of BUZZ-style multi-packet
//! setup: reaching the "unlocked" entry takes a *sequence* of packets,
//! exactly the kind of context-dependent policy the paper cites BUZZ
//! for.

/// The NFL source of the port-knocking gateway.
pub fn source() -> String {
    r#"# Port-knocking gateway in NFL.
config KNOCK1 = 7001;
config KNOCK2 = 7002;
config SERVICE = 22;
state progress = map();   # client ip -> 0/1/2 knock progress
state unlocked_count = 0;
state denied = 0;

fn gate(pkt: packet) {
    let src = pkt.ip.src;
    let dp = pkt.tcp.dport;
    if src not in progress {
        progress[src] = 0;
    }
    let stage = progress[src];
    if dp == KNOCK1 {
        # First knock always (re)arms stage 1; knocks are absorbed.
        progress[src] = 1;
        return;
    }
    if dp == KNOCK2 {
        if stage == 1 {
            progress[src] = 2;
            unlocked_count = unlocked_count + 1;
        } else {
            # Out-of-order knock: reset.
            progress[src] = 0;
        }
        return;
    }
    if dp == SERVICE {
        if stage == 2 {
            send(pkt);
            return;
        }
        denied = denied + 1;
        return;
    }
    # Non-protected traffic passes untouched.
    send(pkt);
}

fn main() {
    sniff(gate, "eth0");
}
"#
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::wire::{parse_ipv4, TcpFlags};
    use nf_packet::Packet;
    use nfl_analysis::normalize::normalize;
    use nfl_interp::Interp;

    fn gw() -> Interp {
        let p = nfl_lang::parse_and_check(&source()).unwrap();
        Interp::new(&normalize(&p).unwrap()).unwrap()
    }

    fn pkt(dport: u16) -> Packet {
        Packet::tcp(
            parse_ipv4("10.0.0.1").unwrap(),
            4000,
            parse_ipv4("9.9.9.9").unwrap(),
            dport,
            TcpFlags::syn(),
        )
    }

    #[test]
    fn correct_knock_sequence_unlocks() {
        let mut gw = gw();
        assert!(gw.process(&pkt(22)).unwrap().dropped, "locked initially");
        assert!(gw.process(&pkt(7001)).unwrap().dropped, "knocks absorbed");
        assert!(gw.process(&pkt(7002)).unwrap().dropped);
        assert!(!gw.process(&pkt(22)).unwrap().dropped, "unlocked");
    }

    #[test]
    fn wrong_order_resets() {
        let mut gw = gw();
        gw.process(&pkt(7002)).unwrap(); // knock 2 first: reset
        gw.process(&pkt(7001)).unwrap(); // stage 1
        gw.process(&pkt(7001)).unwrap(); // re-arm stage 1 (still 1)
        assert!(gw.process(&pkt(22)).unwrap().dropped, "not unlocked yet");
        gw.process(&pkt(7002)).unwrap(); // completes
        assert!(!gw.process(&pkt(22)).unwrap().dropped);
    }

    #[test]
    fn other_traffic_unaffected() {
        let mut gw = gw();
        assert!(!gw.process(&pkt(443)).unwrap().dropped);
    }

    #[test]
    fn model_captures_the_three_stage_fsm() {
        let syn = nfactor_core::Pipeline::builder()
            .name("portknock")
            .build()
            .unwrap()
            .synthesize(&source())
            .unwrap();
        let fsm = nfactor_core::Synthesis::render_model(&syn);
        // The stage predicates appear as state matches.
        assert!(fsm.contains("== 1)") || fsm.contains("== 2)"), "{fsm}");
        let model_fsm = nf_model::ModelFsm::from_model(&syn.model);
        assert!(
            model_fsm.mutating_transitions().count() >= 3,
            "arm, complete, reset transitions: {:?}",
            model_fsm.transitions.len()
        );
    }

    #[test]
    fn model_agrees_with_program_on_random_traffic() {
        let syn = nfactor_core::Pipeline::builder()
            .name("portknock")
            .build()
            .unwrap()
            .synthesize(&source())
            .unwrap();
        let report = nfactor_core::accuracy::differential_test(&syn, 11, 600).unwrap();
        assert!(report.perfect(), "{:?}", report.mismatches);
    }

    #[test]
    fn model_agrees_on_the_exact_knock_sequence() {
        // Random traffic rarely knocks correctly; drive the exact
        // sequence through both sides.
        let syn = nfactor_core::Pipeline::builder()
            .name("portknock")
            .build()
            .unwrap()
            .synthesize(&source())
            .unwrap();
        let mut interp = Interp::new(&syn.nf_loop).unwrap();
        let mut model = nfactor_core::accuracy::initial_model_state(&syn, &interp);
        for dport in [22u16, 7001, 7002, 22, 443, 22] {
            let p = pkt(dport);
            let prog = interp.process(&p).unwrap();
            let step = model.step(&syn.model, &p).unwrap();
            assert_eq!(
                prog.outputs.first(),
                step.output.as_deref(),
                "divergence at dport {dport}"
            );
        }
    }
}
