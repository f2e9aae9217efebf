//! A snort-1.0-like signature IDS, with a rule-set generator.
//!
//! Table 2 analyses snort 1.0 at 2,678 LoC whose symbolic execution
//! explodes (">1000" paths, ">1hr") while the packet/state slice is 129
//! lines with **3** execution paths. The anatomy that produces those
//! numbers:
//!
//! * a **preprocessor chain** (checksum/TTL/size sanity) and a long
//!   **alert-only rule chain** — branches that only touch log counters,
//!   so the *original* program's path count is exponential in the rule
//!   count, and all of it is sliced away ("the pruned code includes
//!   logs, failure handling, locking, etc.");
//! * exactly **two block rules** that set the forwarding `action` — so
//!   the slice has three paths: block-by-rule-1, block-by-rule-2,
//!   forward. That is precisely the paper's `EP(slice) = 3`.
//!
//! [`source`]`(n)` generates the NF with `n` alert-only rules;
//! [`PAPER_SCALE_RULES`] yields ≈ 2.7k LoC like the paper's snort.

use std::fmt::Write;

/// Rule count that lands the generated source at the paper's snort size.
pub const PAPER_SCALE_RULES: usize = 500;

/// Rotating predicate shapes for generated alert-only rules — diverse
/// enough to exercise every comparison form the solver handles.
fn rule_predicate(i: usize) -> String {
    match i % 6 {
        0 => format!("pkt.ip.proto == 6 && pkt.tcp.dport == {}", 1024 + i),
        1 => format!("pkt.ip.proto == 17 && pkt.tcp.sport == {}", 2000 + i),
        2 => format!("pkt.payload.b0 == {}", i % 256),
        3 => format!("pkt.ip.ttl < {}", 2 + (i % 30)),
        4 => format!("pkt.ip.len > {}", 500 + (i % 1000)),
        _ => format!(
            "pkt.ip.proto == 6 && pkt.tcp.flags & 2 != 0 && pkt.tcp.dport == {}",
            3000 + i
        ),
    }
}

/// Generate the snort-like IDS with `n_rules` alert-only rules.
pub fn source(n_rules: usize) -> String {
    let mut src = String::new();
    src.push_str(
        r#"# snort-1.0-like signature IDS in NFL.
# Configurations
config HOME_NET = 10.0.0.0;
config ALERT_MODE = 1;
config MAX_PKT = 65000;
config MIN_TTL = 1;
# Log / statistics state
state total_pkts = 0;
state tcp_pkts = 0;
state udp_pkts = 0;
state other_pkts = 0;
state oversize_evts = 0;
state lowttl_evts = 0;
state frag_evts = 0;
state alert_total = 0;
state blocked = 0;
state telnet_hits = 0;
state nopsled_hits = 0;
"#,
    );
    for i in 0..n_rules {
        let _ = writeln!(src, "state r{i}_hits = 0;");
    }
    src.push_str(
        r#"
fn detect(pkt: packet) {
    # ---- decoder / statistics (log-only) ----
    total_pkts = total_pkts + 1;
    if pkt.ip.proto == 6 {
        tcp_pkts = tcp_pkts + 1;
    } else {
        if pkt.ip.proto == 17 {
            udp_pkts = udp_pkts + 1;
        } else {
            other_pkts = other_pkts + 1;
        }
    }
    # ---- preprocessor chain (log-only failure handling) ----
    if pkt.ip.len > MAX_PKT {
        oversize_evts = oversize_evts + 1;
        log("oversize packet", pkt.ip.len);
    }
    if pkt.ip.ttl < MIN_TTL {
        lowttl_evts = lowttl_evts + 1;
        log("ttl expired");
    }
    if pkt.ip.id != 0 && pkt.ip.len < 40 {
        frag_evts = frag_evts + 1;
        log("runt fragment");
    }
    # ---- rule engine ----
    let action = 0;
    # Block rules (forwarding-relevant).
    if pkt.ip.proto == 6 && pkt.tcp.dport == 23 {
        telnet_hits = telnet_hits + 1;
        action = 1;
    }
    if action == 0 && pkt.payload.b0 == 144 && pkt.payload.b1 == 144 {
        nopsled_hits = nopsled_hits + 1;
        action = 1;
    }
    # Alert-only rules (generated; log counters, never block).
"#,
    );
    for i in 0..n_rules {
        let pred = rule_predicate(i);
        let _ = writeln!(src, "    if {pred} {{");
        let _ = writeln!(src, "        r{i}_hits = r{i}_hits + 1;");
        let _ = writeln!(src, "        alert_total = alert_total + 1;");
        let _ = writeln!(src, "        log(\"alert\", {i});");
        let _ = writeln!(src, "    }}");
    }
    src.push_str(
        r#"    # ---- verdict ----
    if action == 1 {
        blocked = blocked + 1;
        return;
    }
    send(pkt);
}

fn main() {
    sniff(detect, "eth0");
}
"#,
    );
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::wire::{parse_ipv4, TcpFlags};
    use nf_packet::Packet;
    use nfl_analysis::normalize::normalize;
    use nfl_interp::{Interp, Value};

    fn ids(rules: usize) -> Interp {
        let p = nfl_lang::parse_and_check(&source(rules)).unwrap();
        Interp::new(&normalize(&p).unwrap()).unwrap()
    }

    fn pkt_to(dport: u16) -> Packet {
        Packet::tcp(
            parse_ipv4("10.0.0.1").unwrap(),
            40000,
            parse_ipv4("8.8.8.8").unwrap(),
            dport,
            TcpFlags::syn(),
        )
    }

    #[test]
    fn telnet_blocked_http_forwarded() {
        let mut ids = ids(10);
        assert!(ids.process(&pkt_to(23)).unwrap().dropped);
        assert!(!ids.process(&pkt_to(80)).unwrap().dropped);
        assert_eq!(ids.global("blocked"), Some(&Value::Int(1)));
        assert_eq!(ids.global("telnet_hits"), Some(&Value::Int(1)));
    }

    #[test]
    fn nop_sled_payload_blocked() {
        let mut ids = ids(10);
        let mut p = pkt_to(80);
        p.payload = vec![144, 144, 1, 2];
        assert!(ids.process(&p).unwrap().dropped);
        assert_eq!(ids.global("nopsled_hits"), Some(&Value::Int(1)));
    }

    #[test]
    fn alert_rules_count_but_forward() {
        let mut ids = ids(10);
        // Rule 0 predicate: proto 6 && dport == 1024.
        let r = ids.process(&pkt_to(1024)).unwrap();
        assert!(!r.dropped, "alert-only rules never block");
        assert_eq!(ids.global("r0_hits"), Some(&Value::Int(1)));
        assert!(!r.logs.is_empty());
    }

    #[test]
    fn generated_size_scales_linearly() {
        let small = nfl_lang::parse(&source(10)).unwrap().loc();
        let big = nfl_lang::parse(&source(100)).unwrap().loc();
        assert!(big > small + 400, "{small} -> {big}");
    }

    #[test]
    fn paper_scale_loc() {
        let loc = nfl_lang::parse(&source(PAPER_SCALE_RULES)).unwrap().loc();
        assert!((2300..=3300).contains(&loc), "snort-like LoC = {loc}");
    }

    #[test]
    fn slice_has_exactly_three_paths() {
        // The headline Table 2 number: EP(slice) = 3 for snort.
        let syn = nfactor_core::Pipeline::builder()
            .name("snort")
            .build()
            .unwrap()
            .synthesize(&source(25))
            .unwrap();
        assert_eq!(syn.metrics.ep_slice, 3, "block1 / block2 / forward");
        // And the slice prunes every alert counter.
        let rendered = syn.render_model();
        assert!(!rendered.contains("r0_hits"), "{rendered}");
        assert!(!rendered.contains("alert_total"), "{rendered}");
    }
}
