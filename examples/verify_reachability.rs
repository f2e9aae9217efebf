//! §4 Network Verification: stateful header-space reachability.
//!
//! ```text
//! cargo run --example verify_reachability
//! ```
//!
//! Builds the transfer function `T(h, p, s)` from the synthesized
//! firewall model and answers reachability questions that *depend on
//! state* — the paper's extension of HSA that stateless data-plane
//! verification cannot express.

use nfactor::core::Pipeline;
use nfactor::interp::{Value, ValueKey};
use nfactor::model::ModelState;
use nfactor::packet::Field;
use nfactor::verify::hsa::{chain_reachable, HeaderSpace, IntervalSet, StatefulNf};

fn fw_with_pinholes(pinholes: &[(u32, u16, u32, u16)]) -> StatefulNf {
    let syn = Pipeline::builder()
        .name("fw")
        .build()
        .expect("pipeline")
        .synthesize(&nfactor::corpus::firewall::source())
        .expect("synthesis");
    let mut state = ModelState::default()
        .with_config("PROTECTED_NET", Value::Int(0x0a000000))
        .with_config("PROTECTED_MASK", Value::Int(0xff000000))
        .with_config("ALLOW_PORT", Value::Int(80))
        .with_scalar("out_count", Value::Int(0))
        .with_scalar("in_count", Value::Int(0))
        .with_scalar("blocked_count", Value::Int(0))
        .with_map("pinholes");
    for &(a, b, c, d) in pinholes {
        state.insert_entry(
            "pinholes",
            ValueKey::Tuple(vec![i64::from(a), i64::from(b), i64::from(c), i64::from(d)]),
            Value::Int(1),
        );
    }
    StatefulNf {
        model: syn.model,
        state,
    }
}

fn main() {
    println!("=== Stateful HSA over the synthesized firewall model ===\n");

    // Question 1: with NO open pinholes, what outside traffic reaches
    // the protected network?
    let fresh = fw_with_pinholes(&[]);
    let outside = HeaderSpace::all().with(
        Field::IpSrc,
        IntervalSet::range(0x0b00_0000, 0xffff_ffff), // anything not 10/8
    );
    let through = fresh.reachable_through(&outside);
    println!("fresh firewall, outside → inside:");
    for space in &through {
        println!("  reaches: {space}");
    }
    assert!(through
        .iter()
        .all(|s| s.get(Field::TcpDport).contains(80) && s.get(Field::TcpDport).size() == 1));
    println!("→ only the allow-listed port 80 is reachable.\n");

    // Question 2: after 10.0.0.5:5000 opened a flow to 8.8.8.8:443, does
    // the reply reach? (This is the stateful part.)
    let opened = fw_with_pinholes(&[(0x0808_0808, 443, 0x0a00_0005, 5000)]);
    let reply = HeaderSpace::all()
        .with_point(Field::IpSrc, 0x0808_0808)
        .with_point(Field::TcpSport, 443)
        .with_point(Field::IpDst, 0x0a00_0005)
        .with_point(Field::TcpDport, 5000);
    let reached = opened.reachable_through(&reply);
    println!("after outbound flow, its reply space:");
    for s in &reached {
        println!("  reaches: {s}");
    }
    assert!(!reached.is_empty(), "pinholed reply must pass");
    assert!(
        fresh.reachable_through(&reply).is_empty(),
        "the same reply is blocked before the outbound flow exists"
    );
    println!("→ reply reachable ONLY in the post-handshake state — T(h, p, s) at work.\n");

    // Question 3: chain the firewall twice (defence in depth): the
    // allow-port space still threads through both.
    let spaces = chain_reachable(&[fresh.clone(), fresh], &outside);
    println!(
        "two chained fresh firewalls: {} space(s) reach the inside",
        spaces.len()
    );
    assert!(!spaces.is_empty());
}
