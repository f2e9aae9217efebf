//! §4 Testing: BUZZ-style model-guided compliance testing.
//!
//! ```text
//! cargo run --example compliance_test
//! ```
//!
//! Generates test packets from every entry of the synthesized NAT model
//! (solving the match conditions, with setup packets to establish
//! required state), replays them against the real NF, and checks the
//! observed behaviour matches the model — then demonstrates the point of
//! compliance testing by catching a deliberately broken firewall.

use nfactor::core::Pipeline;
use nfactor::verify::compliance_test;

fn synth(name: &str, src: &str) -> nfactor::core::Synthesis {
    Pipeline::builder()
        .name(name)
        .build()
        .expect("pipeline")
        .synthesize(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn main() {
    println!("=== Model-guided compliance testing (BUZZ style) ===\n");

    for (name, src) in [
        ("nat", nfactor::corpus::nat::source()),
        ("firewall", nfactor::corpus::firewall::source()),
        ("snort", nfactor::corpus::snort::source(8)),
    ] {
        let syn = synth(name, &src);
        let report = compliance_test(&syn).expect("compliance run");
        println!("{name}: {report}");
        for (i, t) in report.tests.iter().enumerate() {
            println!(
                "  test {i}: entry {:?}, {} setup pkt(s), probe {}, expect {}",
                t.target,
                t.setup.len(),
                t.probe,
                if t.expect_forward { "FORWARD" } else { "DROP" }
            );
        }
        assert!(report.compliant(), "{name} must comply with its own model");
    }

    // The negative control: a firewall whose allow-port was fat-fingered
    // from 80 to 81. Tests generated from the *intended* model catch it.
    println!("\n--- negative control: broken firewall vs. intended model ---");
    let intended = synth("fw", &nfactor::corpus::firewall::source());
    let broken_src = nfactor::corpus::firewall::source().replace(
        "if pkt.tcp.dport == ALLOW_PORT {",
        "if pkt.tcp.dport == 81 {",
    );
    let broken = synth("fw-broken", &broken_src);

    // Replay the intended model's tests on the broken implementation.
    let report = compliance_test(&intended).expect("baseline");
    let mut caught = 0;
    for t in &report.tests {
        let mut interp = nfactor::interp::Interp::new(&broken.nf_loop).expect("interp");
        for s in &t.setup {
            interp.process(s).expect("setup");
        }
        let r = interp.process(&t.probe).expect("probe");
        if r.dropped == t.expect_forward {
            caught += 1;
            println!(
                "  VIOLATION: probe {} expected {} but observed {}",
                t.probe,
                if t.expect_forward { "FORWARD" } else { "DROP" },
                if !r.dropped { "FORWARD" } else { "DROP" }
            );
        }
    }
    assert!(caught > 0, "the broken allow-port must be detected");
    println!("→ {caught} violation(s) caught: the misconfiguration is detected.");
}
