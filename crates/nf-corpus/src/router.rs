//! An L3 router with a static longest-prefix-ish table and an ACL.
//!
//! The *stateless* end of the corpus: TTL decrement, expiry drop, a
//! prefix route table (CIDR masks — exercising the solver's and HSA's
//! bitmask handling), and a deny ACL. Its model should contain **no**
//! state at all — a useful negative control for StateAlyzer.

/// The NFL source of the router.
pub fn source() -> String {
    r#"# L3 router with ACL in NFL.
config NET_A = 10.0.0.0;        # 10/8     -> next hop A
config NET_B = 192.168.0.0;     # 192.168/16 -> next hop B
config MASK_A = 4278190080;     # 255.0.0.0
config MASK_B = 4294901760;     # 255.255.0.0
config NEXTHOP_A = 1.0.0.1;
config NEXTHOP_B = 2.0.0.1;
config DENY_PORT = 23;          # telnet never routed
state routed = 0;
state expired = 0;
state no_route = 0;

fn route(pkt: packet) {
    if pkt.ip.ttl < 2 {
        expired = expired + 1;
        return;
    }
    if pkt.tcp.dport == DENY_PORT {
        return;
    }
    pkt.ip.ttl = pkt.ip.ttl - 1;
    if (pkt.ip.dst & MASK_A) == (NET_A & MASK_A) {
        pkt.eth.dst = 1;        # next hop A's MAC (symbolic placeholder)
        routed = routed + 1;
        send(pkt, "ethA");
        return;
    }
    if (pkt.ip.dst & MASK_B) == (NET_B & MASK_B) {
        pkt.eth.dst = 2;
        routed = routed + 1;
        send(pkt, "ethB");
        return;
    }
    no_route = no_route + 1;
    return;
}

fn main() {
    sniff(route, "eth0");
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

    fn router() -> Interp {
        let p = nfl_lang::parse_and_check(&source()).unwrap();
        Interp::new(&normalize(&p).unwrap()).unwrap()
    }

    fn to(dst: &str, ttl: u8, dport: u16) -> Packet {
        let mut p = Packet::tcp(
            parse_ipv4("8.8.8.8").unwrap(),
            1000,
            parse_ipv4(dst).unwrap(),
            dport,
            TcpFlags::ack(),
        );
        p.ip_ttl = ttl;
        p
    }

    #[test]
    fn routes_by_prefix_and_decrements_ttl() {
        let mut r = router();
        let a = r.process(&to("10.1.2.3", 64, 80)).unwrap();
        assert_eq!(a.outputs[0].get(Field::EthDst).unwrap(), 1);
        assert_eq!(a.outputs[0].ip_ttl, 63);
        let b = r.process(&to("192.168.9.9", 64, 80)).unwrap();
        assert_eq!(b.outputs[0].get(Field::EthDst).unwrap(), 2);
    }

    #[test]
    fn ttl_expiry_and_acl_drop() {
        let mut r = router();
        assert!(r.process(&to("10.1.2.3", 1, 80)).unwrap().dropped);
        assert!(
            r.process(&to("10.1.2.3", 64, 23)).unwrap().dropped,
            "telnet denied"
        );
        assert!(
            r.process(&to("55.0.0.1", 64, 80)).unwrap().dropped,
            "no route"
        );
    }

    #[test]
    fn model_is_stateless() {
        let syn = nfactor_core::Pipeline::builder()
            .name("router")
            .build()
            .unwrap()
            .synthesize(&source())
            .unwrap();
        assert!(syn.classes.ois_vars.is_empty(), "{:?}", syn.classes);
        assert!(syn.model.state_maps().is_empty());
        assert!(syn.model.state_scalars().is_empty());
        // Every counter is a log var or pruned entirely.
        for v in ["routed", "expired", "no_route"] {
            assert_ne!(syn.classes.class_of(v), Some("oisVar"), "{v}");
        }
    }

    #[test]
    fn model_agrees_with_program() {
        let syn = nfactor_core::Pipeline::builder()
            .name("router")
            .build()
            .unwrap()
            .synthesize(&source())
            .unwrap();
        let report = nfactor_core::accuracy::differential_test(&syn, 21, 600).unwrap();
        assert!(report.perfect(), "{:?}", report.mismatches);
    }

    #[test]
    fn hsa_sees_the_prefix_split() {
        use nf_verify::hsa::{HeaderSpace, StatefulNf};
        let syn = nfactor_core::Pipeline::builder()
            .name("router")
            .build()
            .unwrap()
            .synthesize(&source())
            .unwrap();
        let interp = Interp::new(&syn.nf_loop).unwrap();
        let state = nfactor_core::accuracy::initial_model_state(&syn, &interp);
        let nf = StatefulNf {
            model: syn.model,
            state,
        };
        let everything = HeaderSpace::all().with_point(Field::IpTtl, 64);
        let out = nf.reachable_through(&everything);
        // Outputs partition into the 10/8 and 192.168/16 prefixes.
        assert!(out.len() >= 2, "{out:?}");
        let spaces: Vec<String> = out.iter().map(|s| s.to_string()).collect();
        assert!(
            spaces.iter().any(|s| s.contains("167772160..=184549375")),
            "10/8 range present: {spaces:?}"
        );
    }
}
