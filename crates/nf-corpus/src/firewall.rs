//! A stateful perimeter firewall.
//!
//! Policy: traffic from the protected network may leave (opening a
//! pinhole for its reverse flow); inbound traffic is admitted only to an
//! allow-listed service port or through an existing pinhole; everything
//! else drops. The `{FW, IDS} + {LB}` service-chain composition of §4
//! uses this model.

/// The NFL source of the stateful firewall.
pub fn source() -> String {
    r#"# Stateful perimeter firewall in NFL.
config PROTECTED_NET = 10.0.0.0;
config PROTECTED_MASK = 4278190080; # 255.0.0.0
config ALLOW_PORT = 80;
state pinholes = map();  # reverse 4-tuple -> 1
state out_count = 0;
state in_count = 0;
state blocked_count = 0;

fn filter(pkt: packet) {
    let from_inside = (pkt.ip.src & PROTECTED_MASK) == (PROTECTED_NET & PROTECTED_MASK);
    if from_inside {
        # Outbound always allowed; open the reverse pinhole.
        let rev = (pkt.ip.dst, pkt.tcp.dport, pkt.ip.src, pkt.tcp.sport);
        pinholes[rev] = 1;
        out_count = out_count + 1;
        send(pkt);
    } else {
        let k = (pkt.ip.src, pkt.tcp.sport, pkt.ip.dst, pkt.tcp.dport);
        if k in pinholes {
            in_count = in_count + 1;
            send(pkt);
        } else {
            if pkt.tcp.dport == ALLOW_PORT {
                in_count = in_count + 1;
                send(pkt);
            } else {
                blocked_count = blocked_count + 1;
                return;
            }
        }
    }
}

fn main() {
    sniff(filter, "eth0");
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

    fn fw() -> Interp {
        let p = nfl_lang::parse_and_check(&source()).unwrap();
        Interp::new(&normalize(&p).unwrap()).unwrap()
    }

    fn pkt(src: &str, sport: u16, dst: &str, dport: u16) -> Packet {
        Packet::tcp(
            parse_ipv4(src).unwrap(),
            sport,
            parse_ipv4(dst).unwrap(),
            dport,
            TcpFlags::syn(),
        )
    }

    #[test]
    fn outbound_allowed_and_pinholed() {
        let mut fw = fw();
        assert!(
            !fw.process(&pkt("10.0.0.5", 5000, "8.8.8.8", 443))
                .unwrap()
                .dropped
        );
        // The reverse flow comes back in.
        assert!(
            !fw.process(&pkt("8.8.8.8", 443, "10.0.0.5", 5000))
                .unwrap()
                .dropped
        );
    }

    #[test]
    fn unsolicited_inbound_blocked_unless_allowlisted() {
        let mut fw = fw();
        assert!(
            fw.process(&pkt("8.8.8.8", 443, "10.0.0.5", 5000))
                .unwrap()
                .dropped
        );
        // The allow-listed web port is reachable.
        assert!(
            !fw.process(&pkt("8.8.8.8", 4000, "10.0.0.5", 80))
                .unwrap()
                .dropped
        );
    }

    #[test]
    fn pinhole_is_flow_specific() {
        let mut fw = fw();
        fw.process(&pkt("10.0.0.5", 5000, "8.8.8.8", 443)).unwrap();
        // A different remote port does not fit the pinhole.
        assert!(
            fw.process(&pkt("8.8.8.8", 444, "10.0.0.5", 5000))
                .unwrap()
                .dropped
        );
    }

    #[test]
    fn model_matches_program_on_random_traffic() {
        let syn = nfactor_core::Pipeline::builder()
            .name("firewall")
            .build()
            .unwrap()
            .synthesize(&source())
            .unwrap();
        let report = nfactor_core::accuracy::differential_test(&syn, 7, 300).unwrap();
        assert!(report.perfect(), "{:?}", report.mismatches);
        // Forwarding never rewrites headers in a firewall.
        for e in syn.model.forward_entries() {
            if let nf_model::FlowAction::Forward { rewrites } = &e.flow_action {
                assert!(rewrites.is_empty(), "firewall must not rewrite");
            }
        }
    }
}
