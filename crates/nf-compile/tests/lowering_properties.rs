//! Properties of the model → decision-tree lowering, checked against
//! every corpus NF:
//!
//! * every original `(match, state)` entry survives lowering and is
//!   reachable in some leaf of the tree — the builder may *specialise*
//!   entries per path but never lose one;
//! * the tree has no dead structure — every node is reachable from the
//!   root and every leaf carries at least one candidate entry (the
//!   models' catch-all default entries guarantee this);
//! * on adversarial near-boundary packets — off by one on every exact
//!   arm value and every range cut in the compiled tree — the compiled
//!   engine agrees with the reference model evaluator packet-for-packet
//!   (one-sided: wherever the reference succeeds).

use nf_compile::{compile, CompiledProgram, CompiledState, Node};
use nf_model::{Model, ModelState};
use nf_packet::{Field, PacketGen};
use nf_support::check::{any_u64, check, tuple3, uint_range, Config};
use nfactor_core::Pipeline;
use nfl_interp::Interp;
use std::collections::BTreeSet;

fn corpus() -> Vec<(&'static str, String)> {
    vec![
        ("firewall", nf_corpus::firewall::source()),
        ("portknock", nf_corpus::portknock::source()),
        ("ratelimiter", nf_corpus::ratelimiter::source()),
        ("router", nf_corpus::router::source()),
        ("snort", nf_corpus::snort::source(25)),
        ("fig1-lb", nf_corpus::fig1_lb::source()),
        ("nat", nf_corpus::nat::source()),
        ("balance", nf_corpus::balance::source(6)),
    ]
}

fn compile_corpus(name: &str, src: &str) -> (Model, ModelState, CompiledProgram) {
    let pipeline = Pipeline::builder().name(name).build().unwrap();
    let syn = pipeline
        .synthesize(src)
        .unwrap_or_else(|e| panic!("{name}: synthesize: {e}"));
    let interp = Interp::new(&syn.nf_loop).unwrap();
    let init = nfactor_core::accuracy::initial_model_state(&syn, &interp);
    let prog = compile(&syn.model, &init).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
    (syn.model.clone(), init, prog)
}

fn node_children(n: &Node) -> Vec<usize> {
    match n {
        Node::Exact {
            arms,
            default,
            missing,
            ..
        } => {
            let mut out: Vec<usize> = arms.iter().map(|&(_, c)| c).collect();
            out.push(*default);
            out.extend(*missing);
            out
        }
        Node::Range {
            children, missing, ..
        } => {
            let mut out = children.clone();
            out.extend(*missing);
            out
        }
        Node::Leaf { .. } => Vec::new(),
    }
}

/// Every flattened entry appears as a candidate in at least one leaf.
#[test]
fn every_entry_reachable_in_some_leaf() {
    for (name, src) in corpus() {
        let (_, _, prog) = compile_corpus(name, &src);
        let mut seen = BTreeSet::new();
        for n in &prog.nodes {
            if let Node::Leaf { cands } = n {
                for c in cands {
                    seen.insert(c.entry);
                }
            }
        }
        for e in 0..prog.entries.len() {
            assert!(
                seen.contains(&e),
                "{name}: entry {e} ({:?}) unreachable in the tree",
                prog.entries[e].origin
            );
        }
    }
}

/// The arena holds no orphan nodes and no leaf is a dead end: every
/// node is reachable from the root, and every leaf has at least one
/// candidate (each model carries a catch-all default entry that is
/// passthrough at every split, so an empty leaf means the builder
/// dropped an entry).
#[test]
fn tree_has_no_dead_structure() {
    for (name, src) in corpus() {
        let (_, _, prog) = compile_corpus(name, &src);
        let mut reachable = vec![false; prog.nodes.len()];
        let mut stack = vec![prog.root];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut reachable[i], true) {
                continue;
            }
            stack.extend(node_children(&prog.nodes[i]));
        }
        for (i, n) in prog.nodes.iter().enumerate() {
            assert!(reachable[i], "{name}: node {i} unreachable from root");
            if let Node::Leaf { cands } = n {
                assert!(!cands.is_empty(), "{name}: leaf {i} has no candidates");
            }
        }
    }
}

/// Every `(field, value)` the compiled tree branches on, plus the
/// values one below and one above, clamped to the field's domain.
fn boundary_values(prog: &CompiledProgram) -> Vec<(Field, u64)> {
    let mut out = BTreeSet::new();
    let mut push = |field: Field, v: i64| {
        let fmax = field.max_value() as i64;
        for cand in [v - 1, v, v + 1] {
            if (0..=fmax).contains(&cand) {
                out.insert((field, cand as u64));
            }
        }
    };
    for n in &prog.nodes {
        match n {
            Node::Exact {
                field, mask, arms, ..
            } if *mask == -1 => {
                for &(v, _) in arms {
                    push(*field, v);
                }
            }
            Node::Range { field, cuts, .. } => {
                for &c in cuts {
                    push(*field, c);
                }
            }
            _ => {}
        }
    }
    out.into_iter().collect()
}

/// Adversarial near-boundary packets: take a random packet and slam
/// two of its fields onto tree-edge values (v-1 / v / v+1 for every
/// exact arm, c-1 / c / c+1 for every range cut). Wherever the
/// reference model evaluator succeeds, the compiled engine must
/// produce the identical output, fired entry, and post-state.
#[test]
fn near_boundary_packets_agree_with_model() {
    for (name, src) in corpus() {
        let (model, init, prog) = compile_corpus(name, &src);
        let edges = boundary_values(&prog);
        if edges.is_empty() {
            continue;
        }
        let n = edges.len() as u64;
        let cfg = Config::with_cases(96);
        let gen = tuple3(any_u64(), uint_range(0, n - 1), uint_range(0, n - 1));
        check(
            &format!("near_boundary_{name}"),
            &cfg,
            &gen,
            |&(seed, i, j)| {
                let mut pkt = PacketGen::new(seed).next_packet();
                for &(field, v) in [&edges[i as usize], &edges[j as usize]] {
                    // Transport-layer fields may not exist on this
                    // packet (e.g. TCP flags on UDP) — leave it as-is.
                    let _ = pkt.set(field, v);
                }
                let mut ms = init.clone();
                let Ok(want) = ms.step(&model, &pkt) else {
                    // One-sided contract: the compiled engine is only
                    // pinned where the reference succeeds.
                    return;
                };
                let mut cs = CompiledState::new(&prog);
                let got = cs
                    .step(&prog, &pkt)
                    .unwrap_or_else(|e| panic!("{name}: compiled step failed: {e}"));
                assert_eq!(got.output, want.output, "{name}: output");
                assert_eq!(got.fired, want.fired, "{name}: fired entry");
                assert_eq!(cs.snapshot(&prog), ms.snapshot(), "{name}: post-state");
            },
        );
    }
}
