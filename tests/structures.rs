//! Integration: the Figure 4 code structures — all four shapes of the
//! same NF must normalise and produce behaviourally equivalent models.

use nfactor::analysis::normalize::{detect_structure, Structure};
use nfactor::core::Pipeline;
use nfactor::interp::Value;
use nfactor::model::ModelState;
use nfactor::packet::{Field, Packet, TcpFlags};

#[test]
fn four_shapes_detected() {
    let cases = [
        (nfactor::corpus::structures::one_loop(), Structure::OneLoop),
        (nfactor::corpus::structures::callback(), Structure::Callback),
        (
            nfactor::corpus::structures::consumer_producer(),
            Structure::ConsumerProducer,
        ),
        (
            nfactor::corpus::structures::nested_loop(),
            Structure::NestedLoop,
        ),
    ];
    for (src, expected) in cases {
        let p = nfactor::lang::parse_and_check(&src).unwrap();
        assert_eq!(detect_structure(&p), expected);
    }
}

#[test]
fn first_three_shapes_give_equivalent_models() {
    // 4a, 4b, 4c implement the identical "count & forward port 80" NF;
    // their models must behave identically on the same packet set.
    let shapes = [
        ("4a", nfactor::corpus::structures::one_loop()),
        ("4b", nfactor::corpus::structures::callback()),
        ("4c", nfactor::corpus::structures::consumer_producer()),
    ];
    let probe_hit = Packet::tcp(1, 9, 2, 80, TcpFlags::syn());
    let probe_miss = Packet::tcp(1, 9, 2, 81, TcpFlags::syn());
    let mut behaviours = Vec::new();
    for (name, src) in shapes {
        let syn = Pipeline::builder()
            .name(name)
            .build()
            .unwrap()
            .synthesize(&src)
            .unwrap();
        // `hits` is a pure log counter (never output-impacting), so the
        // *forwarding* model rightly omits it — same as the paper's
        // pass_stat (outside the packet slice entirely, never oisVar).
        assert_ne!(
            syn.classes.class_of("hits"),
            Some("oisVar"),
            "{name}: {:?}",
            syn.classes
        );
        let mut st = ModelState::default().with_config("PORT", Value::Int(80));
        let hit = st.step(&syn.model, &probe_hit).unwrap().output.is_some();
        let miss = st.step(&syn.model, &probe_miss).unwrap().output.is_some();
        behaviours.push((name, hit, miss));
    }
    assert!(
        behaviours
            .windows(2)
            .all(|w| (w[0].1, w[0].2) == (w[1].1, w[1].2)),
        "{behaviours:?}"
    );
    assert!(behaviours[0].1, "port 80 forwards");
    assert!(!behaviours[0].2, "other ports drop");
}

#[test]
fn nested_shape_carries_tcp_semantics() {
    // 4d terminates TCP: its model must refuse the handshake-free data
    // the other three forward blindly — that is the hidden-state point.
    let syn = Pipeline::builder()
        .name("4d")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::structures::nested_loop())
        .unwrap();
    let mut interp = nfactor::interp::Interp::new(&syn.nf_loop).unwrap();
    let mut data = Packet::tcp(1, 9, 2, 80, TcpFlags::ack());
    data.payload = vec![1, 2, 3];
    assert!(
        interp.process(&data).unwrap().dropped,
        "no handshake → drop"
    );
    let synp = Packet::tcp(1, 9, 2, 80, TcpFlags::syn());
    let r = interp.process(&synp).unwrap();
    assert!(!r.dropped, "SYN answered");
    assert_eq!(
        r.outputs[0].get(Field::TcpFlags).unwrap(),
        18,
        "SYN-ACK back"
    );
}
