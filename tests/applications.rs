//! Integration: the §4 applications end to end.

use nfactor::core::Pipeline;
use nfactor::interp::{Value, ValueKey};
use nfactor::model::ModelState;
use nfactor::packet::Field;
use nfactor::verify::hsa::{HeaderSpace, IntervalSet, StatefulNf};
use nfactor::verify::{compliance_test, recommend_order};

#[test]
fn composition_answers_the_papers_question() {
    let fw = Pipeline::builder()
        .name("FW")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::firewall::source())
    .unwrap();
    let ids = Pipeline::builder()
        .name("IDS")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::snort::source(6))
    .unwrap();
    let lb = Pipeline::builder()
        .name("LB")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::fig1_lb::source())
    .unwrap();
    let report = recommend_order(&[("FW", &fw.model), ("IDS", &ids.model), ("LB", &lb.model)]);
    assert_eq!(report.order, vec!["FW", "IDS", "LB"], "{report}");
    assert!(!report.has_conflict);
}

#[test]
fn stateful_reachability_distinguishes_states() {
    let syn = Pipeline::builder()
        .name("fw")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::firewall::source())
    .unwrap();
    let base_state = ModelState::default()
        .with_config("PROTECTED_NET", Value::Int(0x0a000000))
        .with_config("PROTECTED_MASK", Value::Int(0xff000000))
        .with_config("ALLOW_PORT", Value::Int(80))
        .with_scalar("out_count", Value::Int(0))
        .with_scalar("in_count", Value::Int(0))
        .with_scalar("blocked_count", Value::Int(0))
        .with_map("pinholes");
    let fresh = StatefulNf {
        model: syn.model.clone(),
        state: base_state.clone(),
    };
    let mut opened_state = base_state;
    opened_state.insert_entry(
        "pinholes",
        ValueKey::Tuple(vec![0x08080808, 443, 0x0a000005, 5000]),
        Value::Int(1),
    );
    let opened = StatefulNf {
        model: syn.model,
        state: opened_state,
    };
    let reply = HeaderSpace::all()
        .with_point(Field::IpSrc, 0x08080808)
        .with_point(Field::TcpSport, 443)
        .with_point(Field::IpDst, 0x0a000005)
        .with_point(Field::TcpDport, 5000);
    assert!(fresh.reachable_through(&reply).is_empty());
    assert!(!opened.reachable_through(&reply).is_empty());
    // Stateless fraction: outside → inside only via the allow port.
    let outside = HeaderSpace::all().with(
        Field::IpSrc,
        IntervalSet::range(0x0b00_0000, 0xffff_ffff),
    );
    for space in fresh.reachable_through(&outside) {
        assert!(space.get(Field::TcpDport).contains(80));
        assert_eq!(space.get(Field::TcpDport).size(), 1);
    }
}

#[test]
fn compliance_holds_for_the_corpus() {
    for (name, src) in [
        ("fw", nfactor::corpus::firewall::source()),
        ("nat", nfactor::corpus::nat::source()),
        ("ids", nfactor::corpus::snort::source(6)),
        ("lb", nfactor::corpus::fig1_lb::source()),
    ] {
        let syn = Pipeline::builder()
            .name(name)
            .build()
            .unwrap()
            .synthesize(&src).unwrap();
        let report = compliance_test(&syn).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            report.compliant(),
            "{name}: {report} {:?}",
            report.violations
        );
        assert!(!report.tests.is_empty(), "{name}: no tests generated");
    }
}

#[test]
fn model_fsm_drives_state_setup() {
    // The NAT's FSM has a mutating transition (install) that the test
    // generator uses as the setup donor for the state-guarded entries.
    let syn = Pipeline::builder()
        .name("nat")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::nat::source())
        .unwrap();
    let fsm = nfactor::model::ModelFsm::from_model(&syn.model);
    assert!(fsm.mutating_transitions().count() >= 1);
    let report = compliance_test(&syn).unwrap();
    assert!(
        report.tests.iter().any(|t| !t.setup.is_empty()),
        "some test required state setup"
    );
}
