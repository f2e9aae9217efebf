//! A classic NAPT (network address/port translation) gateway.
//!
//! Inside hosts (`INSIDE_NET`) initiating outbound flows get a
//! `(NAT_IP, fresh port)` translation installed in both directions;
//! return traffic to an installed port is translated back; everything
//! else is dropped. This is the "different vendor, same function"
//! companion to the Figure 1 LB: same dictionary-state shape, different
//! match structure — useful for the service-chain composition study
//! (§4).

/// The NFL source of the NAPT gateway.
pub fn source() -> String {
    r#"# NAPT gateway in NFL.
config NAT_IP = 5.5.5.5;
config INSIDE_NET = 10.0.0.0;
config INSIDE_MASK = 4278190080; # 255.0.0.0
state out_map = map();   # (src ip, src port) -> external port
state in_map = map();    # external port -> (src ip, src port)
state next_port = 20000;
state translated = 0;
state rejected = 0;

fn process(pkt: packet) {
    let src_inside = (pkt.ip.src & INSIDE_MASK) == (INSIDE_NET & INSIDE_MASK);
    if src_inside {
        # Outbound: install or reuse a translation.
        let k = (pkt.ip.src, pkt.tcp.sport);
        if k not in out_map {
            out_map[k] = next_port;
            in_map[next_port] = k;
            next_port = next_port + 1;
        }
        let eport = out_map[k];
        pkt.ip.src = NAT_IP;
        pkt.tcp.sport = eport;
        translated = translated + 1;
        send(pkt);
    } else {
        # Inbound: only traffic to an installed external port returns.
        if pkt.ip.dst == NAT_IP {
            if pkt.tcp.dport in in_map {
                let orig = in_map[pkt.tcp.dport];
                pkt.ip.dst = orig[0];
                pkt.tcp.dport = orig[1];
                translated = translated + 1;
                send(pkt);
            } else {
                rejected = rejected + 1;
                return;
            }
        } else {
            rejected = rejected + 1;
            return;
        }
    }
}

fn main() {
    sniff(process, "eth0");
}
"#
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::wire::{parse_ipv4, TcpFlags};
    use nf_packet::{Field, Packet};
    use nfl_analysis::normalize::normalize;
    use nfl_interp::Interp;

    fn nat() -> Interp {
        let p = nfl_lang::parse_and_check(&source()).unwrap();
        Interp::new(&normalize(&p).unwrap()).unwrap()
    }

    fn outbound() -> Packet {
        Packet::tcp(
            parse_ipv4("10.1.2.3").unwrap(),
            5555,
            parse_ipv4("8.8.8.8").unwrap(),
            443,
            TcpFlags::syn(),
        )
    }

    #[test]
    fn outbound_translated_and_pinholed() {
        let mut nat = nat();
        let out = nat.process(&outbound()).unwrap().outputs;
        assert_eq!(
            out[0].get(Field::IpSrc).unwrap(),
            u64::from(parse_ipv4("5.5.5.5").unwrap())
        );
        assert_eq!(out[0].get(Field::TcpSport).unwrap(), 20000);
        // Return traffic through the pinhole.
        let back = Packet::tcp(
            parse_ipv4("8.8.8.8").unwrap(),
            443,
            parse_ipv4("5.5.5.5").unwrap(),
            20000,
            TcpFlags::syn_ack(),
        );
        let r = nat.process(&back).unwrap();
        assert!(!r.dropped);
        assert_eq!(
            r.outputs[0].get(Field::IpDst).unwrap(),
            u64::from(parse_ipv4("10.1.2.3").unwrap())
        );
        assert_eq!(r.outputs[0].get(Field::TcpDport).unwrap(), 5555);
    }

    #[test]
    fn unsolicited_inbound_dropped() {
        let mut nat = nat();
        let stranger = Packet::tcp(
            parse_ipv4("8.8.8.8").unwrap(),
            443,
            parse_ipv4("5.5.5.5").unwrap(),
            31337,
            TcpFlags::syn(),
        );
        assert!(nat.process(&stranger).unwrap().dropped);
        // Traffic not even addressed to the NAT is dropped too.
        let mis = Packet::tcp(
            parse_ipv4("8.8.8.8").unwrap(),
            1,
            parse_ipv4("9.9.9.9").unwrap(),
            2,
            TcpFlags::syn(),
        );
        assert!(nat.process(&mis).unwrap().dropped);
    }

    #[test]
    fn same_flow_keeps_port_new_flow_gets_next() {
        let mut nat = nat();
        let a = nat.process(&outbound()).unwrap().outputs;
        let b = nat.process(&outbound()).unwrap().outputs;
        assert_eq!(a, b);
        let mut other = outbound();
        other.set(Field::TcpSport, 6666).unwrap();
        let c = nat.process(&other).unwrap().outputs;
        assert_eq!(c[0].get(Field::TcpSport).unwrap(), 20001);
    }

    #[test]
    fn model_agrees_with_program_on_random_traffic() {
        let syn = nfactor_core::Pipeline::builder()
            .name("nat")
            .build()
            .unwrap()
            .synthesize(&source())
            .unwrap();
        let report = nfactor_core::accuracy::differential_test(&syn, 42, 300).unwrap();
        assert!(report.perfect(), "{:?}", report.mismatches);
    }
}
