//! A per-source token-bucket rate limiter.
//!
//! One of the "more open source NFs" the paper's §6 plans to test on.
//! Analysis-wise it exercises a pattern the other corpus NFs don't:
//! a state map whose *values* (not just membership) guard forwarding —
//! the model's state match includes an arithmetic predicate over
//! `MapGet`, and every packet transitions state (the bucket drains on
//! every accept).

/// The NFL source of the rate limiter.
pub fn source() -> String {
    r#"# Per-source token-bucket rate limiter in NFL.
config BUCKET_MAX = 8;
config REFILL = 2;          # tokens granted per observed packet tick
state buckets = map();      # src ip -> remaining tokens
state passed = 0;
state limited = 0;

fn limit(pkt: packet) {
    let src = pkt.ip.src;
    if src not in buckets {
        buckets[src] = BUCKET_MAX;
    }
    let tokens = buckets[src];
    if tokens > 0 {
        buckets[src] = tokens - 1;
        passed = passed + 1;
        send(pkt);
    } else {
        # Empty bucket: drop, but grant a refill so the source recovers.
        buckets[src] = min(REFILL, BUCKET_MAX);
        limited = limited + 1;
        return;
    }
}

fn main() {
    sniff(limit, "eth0");
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
    use nfl_interp::{Interp, Value};

    fn rl() -> Interp {
        let p = nfl_lang::parse_and_check(&source()).unwrap();
        Interp::new(&normalize(&p).unwrap()).unwrap()
    }

    fn pkt(src: &str) -> Packet {
        Packet::tcp(
            parse_ipv4(src).unwrap(),
            1000,
            parse_ipv4("9.9.9.9").unwrap(),
            80,
            TcpFlags::ack(),
        )
    }

    #[test]
    fn bucket_drains_then_limits() {
        let mut rl = rl();
        for i in 0..8 {
            assert!(!rl.process(&pkt("10.0.0.1")).unwrap().dropped, "pkt {i}");
        }
        // Ninth packet: bucket empty.
        assert!(rl.process(&pkt("10.0.0.1")).unwrap().dropped);
        assert_eq!(rl.global("limited"), Some(&Value::Int(1)));
        // Refill lets two more through, then limited again.
        assert!(!rl.process(&pkt("10.0.0.1")).unwrap().dropped);
        assert!(!rl.process(&pkt("10.0.0.1")).unwrap().dropped);
        assert!(rl.process(&pkt("10.0.0.1")).unwrap().dropped);
    }

    #[test]
    fn sources_have_independent_buckets() {
        let mut rl = rl();
        for _ in 0..8 {
            rl.process(&pkt("10.0.0.1")).unwrap();
        }
        assert!(rl.process(&pkt("10.0.0.1")).unwrap().dropped);
        assert!(
            !rl.process(&pkt("10.0.0.2")).unwrap().dropped,
            "fresh source unaffected"
        );
    }

    #[test]
    fn model_state_match_includes_token_predicate() {
        let syn = nfactor_core::Pipeline::builder()
            .name("ratelimit")
            .build()
            .unwrap()
            .synthesize(&source())
            .unwrap();
        // The forwarding entry is guarded by `buckets[src] > 0` — a value
        // predicate over state, not mere membership.
        let fwd: Vec<_> = syn.model.forward_entries().collect();
        assert!(
            fwd.iter().any(|e| e
                .state_match
                .iter()
                .any(|l| l.to_string().contains("buckets[") && l.to_string().contains("> 0"))),
            "{}",
            syn.render_model()
        );
    }

    #[test]
    fn model_agrees_with_program() {
        let syn = nfactor_core::Pipeline::builder()
            .name("ratelimit")
            .build()
            .unwrap()
            .synthesize(&source())
            .unwrap();
        let report = nfactor_core::accuracy::differential_test(&syn, 3, 600).unwrap();
        assert!(report.perfect(), "{:?}", report.mismatches);
    }
}
