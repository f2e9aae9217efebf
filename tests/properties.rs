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
use nfactor::fuzz::gen_program;
use nfactor::interp::Interp;
use nfactor::model::ModelState;
use nfactor::packet::{Field, Packet, PacketGen, TcpFlags};
use nfactor::support::rng::Rng;
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
        .synthesize(src)
        .unwrap();
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

/// Grammar-generated NFs the revert property covers, beside the corpus.
const GENERATED: usize = 24;

/// An NF's synthesis, its fresh interpreter, its initial model store and
/// its compiled program; `None` when any of them fails to build.
fn build_nf(name: &str, src: &str) -> Option<(Synthesis, Interp, ModelState, CompiledProgram)> {
    let pipeline = Pipeline::builder().name(name).build().ok()?;
    let syn = pipeline.synthesize(src).ok()?;
    let interp = Interp::new(&syn.nf_loop).ok()?;
    let model = initial_model_state(&syn, &interp);
    let prog = compile(&syn.model, &model).ok()?;
    Some((syn, interp, model, prog))
}

/// The undo logs behind per-packet rollback: on every corpus NF and on
/// grammar-generated NFs, after a generated warm-up stream, stepping one
/// more packet and reverting it leaves each backend's state equal to the
/// pre-step state — whether the step committed, dropped, or failed
/// part-way. The compiled state's store is checked under both of its
/// steps, the compiled step and the reference step run on it
/// (`store.step`), and the latter must match `ModelState::step` on the
/// model's own store packet for packet. A generated NF that does not
/// synthesize or compile is skipped.
#[test]
fn step_then_revert_restores_state() {
    let mut nfs: Vec<_> = [
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
    .map(|(name, src)| build_nf(name, &src).unwrap_or_else(|| panic!("{name} does not build")))
    .collect();
    nfs.extend(
        (1..=4 * GENERATED as u64)
            .filter_map(|seed| {
                let prog = gen_program(&mut Rng::new(seed));
                build_nf(&format!("gen-{seed}"), &prog.source)
            })
            .take(GENERATED),
    );
    assert_eq!(nfs.len(), 8 + GENERATED, "too few generated NFs build");
    let interp_state = |i: &Interp| {
        format!(
            "{:?} packets_seen={}",
            i.global_names()
                .iter()
                .zip(&i.globals)
                .collect::<BTreeMap<_, _>>(),
            i.packets_seen()
        )
    };
    let cfg = Config::with_cases(128);
    let last = nfs.len() as u64 - 1;
    let input = tuple3(uint_range(0, last), any_u64(), uint_range(0, 48));
    check(
        "step_then_revert_restores_state",
        &cfg,
        &input,
        |(nf, seed, warm)| {
            let (syn, interp0, model0, prog) = &nfs[*nf as usize];
            let (mut interp, mut model) = (interp0.clone(), model0.clone());
            // Warmed by the reference step on its own store, the
            // compiled state follows the model's own trajectory, so the
            // two start every packet in one state.
            let mut arena = CompiledState::new(prog);
            let mut gen = PacketGen::new(*seed);
            // Failed warm-up packets are reverted, as the supervisor does.
            for (i, p) in gen.batch(*warm as usize).iter().enumerate() {
                if interp.process(p).is_err() {
                    interp.revert();
                }
                let want = model.step(&syn.model, p);
                assert_eq!(
                    arena.store.step(&syn.model, p),
                    want,
                    "{}: packet {i}",
                    syn.name
                );
                if want.is_err() {
                    model.revert();
                    arena.store.revert();
                }
            }
            let p = gen.next_packet();
            let before = interp_state(&interp);
            let _ = interp.process(&p);
            interp.revert();
            assert_eq!(interp_state(&interp), before, "{}: interp", syn.name);
            let snap = arena.snapshot(prog);
            assert_eq!(snap, model.snapshot(), "{}: pre-state", syn.name);
            let _ = arena.step(prog, &p);
            arena.store.revert();
            assert_eq!(arena.snapshot(prog), snap, "{}: compiled", syn.name);
            let before = model.clone();
            let want = model.step(&syn.model, &p);
            assert_eq!(
                arena.store.step(&syn.model, &p),
                want,
                "{}: model_step",
                syn.name
            );
            assert_eq!(
                arena.snapshot(prog),
                model.snapshot(),
                "{}: post-state",
                syn.name
            );
            model.revert();
            assert_eq!(model, before, "{}: model", syn.name);
            arena.store.revert();
            assert_eq!(arena.snapshot(prog), snap, "{}: model_step", syn.name);
        },
    );
}
