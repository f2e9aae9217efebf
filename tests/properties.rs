//! Cross-crate property-based tests (`nf_support::check`).
//!
//! The heavyweight property is the last one: *synthesize a model from a
//! randomly generated NF and check it agrees with the program on random
//! traffic* — a miniature, randomized version of the paper's whole
//! evaluation.

use nf_support::check::{
    any_bool, any_u16, any_u32, any_u64, any_u8, check, int_range, tuple2, tuple3, uint_range,
    vec_of, Config, Gen,
};
use nfactor::compile::{compile, CompiledProgram, CompiledState};
use nfactor::core::accuracy::{differential_test, initial_model_state};
use nfactor::core::{Pipeline, Synthesis};
use nfactor::interp::{Interp, Value};
use nfactor::model::ModelState;
use nfactor::packet::{Field, Packet, PacketGen, TcpFlags};
use nfactor::symex::{Solver, SymVal};
use std::collections::BTreeMap;

/// Wire-format round trip for arbitrary header values.
#[test]
fn packet_wire_roundtrip() {
    let cfg = Config::with_cases(64);
    let header = tuple3(
        tuple2(any_u32(), any_u32()),
        tuple2(any_u16(), any_u16()),
        tuple2(
            uint_range(0, 63).map_int(|v| v as u8),
            uint_range(1, u8::MAX as u64).map_int(|v| v as u8),
        ),
    );
    let input = tuple2(header, vec_of(any_u8(), 0, 255));
    check(
        "packet_wire_roundtrip",
        &cfg,
        &input,
        |((ips, ports, (flags, ttl)), payload)| {
            let (src, dst) = *ips;
            let (sport, dport) = *ports;
            let mut p = Packet::tcp(src, sport, dst, dport, TcpFlags(*flags));
            p.ip_ttl = *ttl;
            p.payload = payload.clone();
            let q = Packet::from_wire(&p.to_wire()).unwrap();
            assert_eq!(p, q);
        },
    );
}

/// Solver models satisfy the constraints they were generated from
/// (interval + disequality fragment).
#[test]
fn solver_models_satisfy() {
    let cfg = Config::with_cases(64);
    let input = tuple3(
        int_range(0, 29_999),
        int_range(1, 999),
        vec_of(int_range(0, 30_999), 0, 3),
    );
    check(
        "solver_models_satisfy",
        &cfg,
        &input,
        |(lo, width, holes)| {
            let (lo, width) = (*lo, *width);
            let hi = lo + width;
            let var = SymVal::Var("x".to_string());
            let mut cs = vec![
                SymVal::bin(nfactor::lang::BinOp::Ge, var.clone(), SymVal::Int(lo)),
                SymVal::bin(nfactor::lang::BinOp::Le, var.clone(), SymVal::Int(hi)),
            ];
            for h in holes {
                cs.push(SymVal::bin(
                    nfactor::lang::BinOp::Ne,
                    var.clone(),
                    SymVal::Int(*h),
                ));
            }
            let solver = Solver;
            if let Some(model) = solver.model(&cs, |_| (0, 65535)) {
                let x = model["x"];
                assert!(x >= lo && x <= hi);
                for h in holes {
                    assert!(x != *h);
                }
            } else {
                // Only allowed when the holes cover the whole interval.
                assert!((hi - lo + 1) as usize <= holes.len());
            }
        },
    );
}

/// A generator for small random NF sources: a chain of guarded actions
/// over header fields, counters, and an optional NAT map.
fn random_nf() -> Gen<String> {
    let guard_field = Gen::one_of(vec![
        Gen::just(("pkt.tcp.dport", 65535u64)),
        Gen::just(("pkt.tcp.sport", 65535)),
        Gen::just(("pkt.ip.ttl", 255)),
        Gen::just(("pkt.payload.b0", 255)),
    ]);
    let op = Gen::one_of(vec![
        Gen::just("=="),
        Gen::just("!="),
        Gen::just("<"),
        Gen::just(">"),
    ]);
    let guard = tuple3(guard_field, op, any_u64())
        .map(|((f, max), op, v)| format!("{f} {op} {}", v % (max + 1)));
    let action = Gen::one_of(vec![
        Gen::just("pkt.ip.ttl = pkt.ip.ttl - 1;".to_string()),
        Gen::just("pkt.tcp.dport = 8080;".to_string()),
        Gen::just("counter = counter + 1;".to_string()),
        Gen::just("send(pkt); return;".to_string()),
        Gen::just("return;".to_string()),
    ]);
    let rule = tuple2(guard, action).map(|(g, a)| format!("    if {g} {{\n        {a}\n    }}\n"));
    tuple2(vec_of(rule, 0, 3), any_bool()).map(|(rules, tail_send)| {
        let mut src =
            String::from("state counter = 0;\nstate seen = map();\nfn cb(pkt: packet) {\n");
        for r in rules {
            src.push_str(&r);
        }
        if tail_send {
            src.push_str("    let k = (pkt.ip.src, pkt.tcp.sport);\n");
            src.push_str("    if k not in seen {\n        seen[k] = 1;\n    }\n");
            src.push_str("    send(pkt);\n");
        }
        src.push_str("}\nfn main() { sniff(cb); }\n");
        src
    })
}

/// The synthesized model of a random NF agrees with the NF itself on
/// random traffic.
#[test]
fn random_nf_model_matches_program() {
    let cfg = Config::with_cases(24);
    let input = tuple2(random_nf(), any_u64());
    check(
        "random_nf_model_matches_program",
        &cfg,
        &input,
        |(src, seed)| {
            let syn = Pipeline::builder()
                .name("random")
                .build()
                .unwrap()
                .synthesize(src)
                .unwrap_or_else(|e| panic!("pipeline: {e}\n{src}"));
            let report =
                differential_test(&syn, *seed, 120).unwrap_or_else(|e| panic!("{e}\n{src}"));
            assert!(
                report.perfect(),
                "disagreements {:?}\nsource:\n{src}\nmodel:\n{}",
                report.mismatches,
                syn.render_model()
            );
        },
    );
}

#[test]
fn hash_is_stable_across_interp_and_model() {
    // The differential experiment is meaningless unless both sides hash
    // identically; pin the contract with a direct probe.
    let src = r#"
        config servers = [(1.1.1.1, 80), (2.2.2.2, 80), (9.9.9.9, 80)];
        fn cb(pkt: packet) {
            let s = servers[hash((pkt.ip.src, pkt.tcp.sport)) % len(servers)];
            pkt.ip.dst = s[0];
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#;
    let syn = Pipeline::builder()
        .name("hash-lb")
        .build()
        .unwrap()
        .synthesize(src).unwrap();
    let report = differential_test(&syn, 5, 500).unwrap();
    assert!(report.perfect(), "{:?}", report.mismatches);
    // And the backend choice actually varies across sources.
    let mut interp = nfactor::interp::Interp::new(&syn.nf_loop).unwrap();
    let mut dsts = std::collections::BTreeSet::new();
    for sport in 0..32u16 {
        let p = Packet::tcp(0x0a000001, sport, 0x03030303, 80, TcpFlags::syn());
        let out = interp.process(&p).unwrap().outputs;
        dsts.insert(out[0].get(Field::IpDst).unwrap());
    }
    assert!(dsts.len() > 1, "hash spreads load: {dsts:?}");
}

/// The undo logs behind per-packet rollback: on every corpus NF, after
/// a generated warm-up stream, stepping one more packet and reverting
/// it leaves each backend's state byte-identical to the pre-step
/// snapshot — whether the step committed, dropped, or failed part-way.
/// The compiled arenas are checked under both of their evaluators, the
/// compiled step and the reference model run in place (`model_step`),
/// and the latter must match `ModelState::step` packet for packet.
#[test]
fn step_then_revert_restores_state() {
    let corpus: Vec<(Synthesis, Interp, ModelState, CompiledProgram)> = [
        ("fig1-lb", nfactor::corpus::fig1_lb::source()),
        ("balance", nfactor::corpus::balance::source(6)),
        ("snort", nfactor::corpus::snort::source(25)),
        ("nat", nfactor::corpus::nat::source()),
        ("firewall", nfactor::corpus::firewall::source()),
        ("ratelimiter", nfactor::corpus::ratelimiter::source()),
        ("portknock", nfactor::corpus::portknock::source()),
        ("router", nfactor::corpus::router::source()),
    ]
    .into_iter()
    .map(|(name, src)| {
        let syn = Pipeline::builder()
            .name(name)
            .build()
            .unwrap()
            .synthesize(&src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let interp = Interp::new(&syn.nf_loop).unwrap();
        let model = initial_model_state(&syn, &interp);
        let prog = compile(&syn.model, &model).unwrap_or_else(|e| panic!("{name}: {e}"));
        (syn, interp, model, prog)
    })
    .collect();
    let interp_state = |i: &Interp| {
        let sorted: BTreeMap<_, _> = i.globals.iter().collect();
        format!("{sorted:?} packets_seen={}", i.packets_seen())
    };
    let model_state = |m: &ModelState| format!("{:?} {:?}", m.scalars, m.maps);
    // The model state in the by-name shape of `CompiledState::snapshot`.
    let model_snapshot = |m: &ModelState| {
        let mut out = m.configs.clone();
        out.extend(m.scalars.iter().map(|(k, v)| (k.clone(), v.clone())));
        out.extend(
            m.maps
                .iter()
                .map(|(k, v)| (k.clone(), Value::Map(v.clone()))),
        );
        out
    };
    let cfg = Config::with_cases(64);
    let input = tuple3(uint_range(0, 7), any_u64(), uint_range(0, 48));
    check(
        "step_then_revert_restores_state",
        &cfg,
        &input,
        |(nf, seed, warm)| {
            let (syn, interp0, model0, prog) = &corpus[*nf as usize];
            let (mut interp, mut model) = (interp0.clone(), model0.clone());
            // Warmed by `model_step`, the arenas follow the model's own
            // trajectory, so the two start every packet in one state.
            let mut arena = CompiledState::new(prog);
            let mut gen = PacketGen::new(*seed);
            // Failed warm-up packets are reverted, as the supervisor does.
            for (i, p) in gen.batch(*warm as usize).iter().enumerate() {
                if interp.process(p).is_err() {
                    interp.revert();
                }
                let want = model.step(&syn.model, p);
                assert_eq!(
                    arena.model_step(prog, &syn.model, p),
                    want,
                    "{}: packet {i}",
                    syn.name
                );
                if want.is_err() {
                    model.revert();
                    arena.revert();
                }
            }
            let p = gen.next_packet();
            let before = interp_state(&interp);
            let _ = interp.process(&p);
            interp.revert();
            assert_eq!(interp_state(&interp), before, "{}: interp", syn.name);
            let snap = arena.snapshot(prog);
            assert_eq!(snap, model_snapshot(&model), "{}: pre-state", syn.name);
            let _ = arena.step(prog, &p);
            arena.revert();
            assert_eq!(arena.snapshot(prog), snap, "{}: compiled", syn.name);
            let before = model_state(&model);
            let want = model.step(&syn.model, &p);
            assert_eq!(
                arena.model_step(prog, &syn.model, &p),
                want,
                "{}: model_step",
                syn.name
            );
            assert_eq!(
                arena.snapshot(prog),
                model_snapshot(&model),
                "{}: post-state",
                syn.name
            );
            model.revert();
            assert_eq!(model_state(&model), before, "{}: model", syn.name);
            arena.revert();
            assert_eq!(arena.snapshot(prog), snap, "{}: model_step", syn.name);
        },
    );
}
