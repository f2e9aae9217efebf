//! The runtime's fast path, pinned to `eval_expr`.
//!
//! `RunEnv::fast_bool`, `fast_int`, `fast_key` and `fast_value` evaluate
//! terms on unboxed integers and borrowed values, and decline (`None`)
//! wherever they do not answer; the compiled step then runs `eval_expr`
//! on the whole term. That is only exact if each entry point agrees
//! with `eval_expr`:
//!
//! * whenever an entry point answers, `eval_expr` returns `Ok` with the
//!   equal value (for keys, `as_key` of it);
//! * whenever `eval_expr` errs, every entry point declines;
//! * whenever `eval_expr` succeeds, every entry point whose result type
//!   fits answers — except on a term containing an array literal, the
//!   one shape the fast path leaves to `eval_expr`.
//!
//! The terms are every term of every corpus program (flow literals,
//! state predicates, rewrites, updates, map-op keys and values) and
//! generated terms over the whole `CExpr` grammar, ill-typed ones
//! included. They run on random TCP, UDP and transport-less packets
//! over random arena contents.

use nf_compile::{compile, eval_expr, CExpr, CFlowAction, CMapOp, CompiledProgram, RunEnv};
use nf_packet::packet::Transport;
use nf_packet::{Field, Packet, PacketGen};
use nf_support::check::{any_u64, check, Config};
use nf_support::rng::Rng;
use nfactor_core::Pipeline;
use nfl_interp::{Interp, Value, ValueKey};
use nfl_lang::BinOp;
use std::cell::Cell;
use std::collections::HashMap;

/// Every term a compiled program evaluates at packet time.
fn program_terms(prog: &CompiledProgram) -> Vec<CExpr> {
    let mut out = prog.state_preds.clone();
    for e in &prog.entries {
        out.extend(e.flow_lits.iter().cloned());
        if let CFlowAction::Forward { rewrites } = &e.flow_action {
            out.extend(rewrites.iter().map(|(_, t)| t.clone()));
        }
        out.extend(e.updates.iter().map(|(_, t)| t.clone()));
        for op in &e.map_ops {
            match op {
                CMapOp::Insert { key, value, .. } => out.extend([key.clone(), value.clone()]),
                CMapOp::Remove { key, .. } => out.push(key.clone()),
            }
        }
    }
    out
}

fn corpus() -> Vec<(CompiledProgram, Vec<CExpr>)> {
    [
        ("firewall", nf_corpus::firewall::source()),
        ("portknock", nf_corpus::portknock::source()),
        ("ratelimiter", nf_corpus::ratelimiter::source()),
        ("router", nf_corpus::router::source()),
        ("snort", nf_corpus::snort::source(25)),
        ("fig1-lb", nf_corpus::fig1_lb::source()),
        ("nat", nf_corpus::nat::source()),
        ("balance", nf_corpus::balance::source(6)),
    ]
    .into_iter()
    .map(|(name, src)| {
        let syn = Pipeline::builder()
            .name(name)
            .build()
            .unwrap()
            .synthesize(&src)
            .unwrap_or_else(|e| panic!("{name}: synthesize: {e}"));
        let interp = Interp::new(&syn.nf_loop).unwrap();
        let init = nfactor_core::accuracy::initial_model_state(&syn, &interp);
        let prog = compile(&syn.model, &init).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let terms = program_terms(&prog);
        (prog, terms)
    })
    .collect()
}

/// Small integers (zero and negatives included, for `/`, `%` and
/// indices) and the odd large one.
fn int(rng: &mut Rng) -> i64 {
    match rng.gen_index(6) {
        0 => rng.gen_range_i64(-1 << 40, 1 << 40),
        _ => rng.gen_range_i64(-4, 4),
    }
}

fn value(rng: &mut Rng, depth: u32) -> Value {
    match rng.gen_index(if depth == 0 { 4 } else { 6 }) {
        0 | 1 => Value::Int(int(rng)),
        2 => Value::Bool(rng.gen_bool(0.5)),
        3 => Value::Str(rng.choose(&["", "a", "eth0"]).to_string()),
        4 => Value::Tuple((0..rng.gen_index(5)).map(|_| int(rng)).collect()),
        _ => Value::Array(
            (0..rng.gen_index(4))
                .map(|_| value(rng, depth - 1))
                .collect(),
        ),
    }
}

/// A TCP, UDP or transport-less packet with an empty, short or longer
/// payload; half the time its addresses and ports are small, so they
/// meet generated constants and map keys.
fn packet(rng: &mut Rng) -> Packet {
    let mut p = PacketGen::new(rng.next_u64()).next_packet();
    let (sport, dport) = (rng.gen_u16(), rng.gen_u16());
    match rng.gen_index(3) {
        0 => {
            p.ip_proto = 6;
            p.transport = Transport::Tcp {
                sport,
                dport,
                seq: rng.next_u32(),
                ack: rng.next_u32(),
                flags: rng.gen_u8() & 0x3f,
            };
        }
        1 => {
            p.ip_proto = 17;
            p.transport = Transport::Udp { sport, dport };
        }
        _ => {
            p.ip_proto = *rng.choose(&[1, 47, 6, 17]);
            p.transport = Transport::Other;
        }
    }
    p.payload = match rng.gen_index(4) {
        0 => Vec::new(),
        1 => vec![0x90],
        2 => vec![0x90, rng.gen_u8()],
        _ => (0..rng.gen_index(8)).map(|_| rng.gen_u8()).collect(),
    };
    if rng.gen_bool(0.5) {
        for f in [Field::IpSrc, Field::IpDst, Field::TcpSport, Field::TcpDport] {
            let _ = p.set(f, rng.gen_below(4));
        }
    }
    p
}

/// Keys a map term is likely to probe: the packet's fields and tuples of
/// them, in both directions, and a few constants.
fn key_pool(p: &Packet) -> Vec<ValueKey> {
    let f = |field| p.get(field).map_or(0, |v| v as i64);
    let (s, sp, d, dp) = (
        f(Field::IpSrc),
        f(Field::TcpSport),
        f(Field::IpDst),
        f(Field::TcpDport),
    );
    vec![
        ValueKey::Int(s),
        ValueKey::Int(d),
        ValueKey::Int(sp),
        ValueKey::Int(dp),
        ValueKey::Int(0),
        ValueKey::Int(1),
        ValueKey::Tuple(vec![s, sp, d, dp]),
        ValueKey::Tuple(vec![d, dp, s, sp]),
        ValueKey::Tuple(vec![s, sp]),
        ValueKey::Tuple(vec![d, dp]),
        ValueKey::Bool(true),
        ValueKey::Str("a".into()),
    ]
}

/// Random arena contents: each slot keeps its initial value, takes a
/// value of any type, or is unset; each map gains random entries under
/// pool keys.
fn arena(
    rng: &mut Rng,
    p: &Packet,
    init_slots: &[Option<Value>],
    init_maps: &[HashMap<ValueKey, Value>],
) -> (Vec<Option<Value>>, Vec<HashMap<ValueKey, Value>>) {
    let slots = init_slots
        .iter()
        .map(|s| match rng.gen_index(5) {
            0 => None,
            1 => Some(value(rng, 2)),
            _ => s.clone(),
        })
        .collect();
    let pool = key_pool(p);
    let maps = init_maps
        .iter()
        .map(|m| {
            let mut m = m.clone();
            for k in &pool {
                if rng.gen_bool(0.5) {
                    m.insert(k.clone(), value(rng, 2));
                }
            }
            m
        })
        .collect();
    (slots, maps)
}

const SLOTS: usize = 4;
const MAPS: usize = 3;
const BIN_OPS: [BinOp; 17] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::In,
    BinOp::NotIn,
];

/// A term over the whole grammar, typed or not, on `SLOTS` slots and
/// `MAPS` maps.
fn term(rng: &mut Rng, depth: u32) -> CExpr {
    let b = |rng: &mut Rng| Box::new(term(rng, depth - 1));
    if depth == 0 || rng.gen_index(4) == 0 {
        return match rng.gen_index(8) {
            0..=2 => CExpr::Const(value(rng, 1)),
            3..=5 => CExpr::Pkt(*rng.choose(&Field::ALL)),
            6 => CExpr::Slot(rng.gen_index(SLOTS)),
            _ => CExpr::Stuck("stuck".into()),
        };
    }
    match rng.gen_index(13) {
        0 => CExpr::Tuple(
            (0..1 + rng.gen_index(4))
                .map(|_| term(rng, depth - 1))
                .collect(),
        ),
        1 => CExpr::Array(
            (0..rng.gen_index(4))
                .map(|_| term(rng, depth - 1))
                .collect(),
        ),
        2 | 3 => CExpr::Bin(*rng.choose(&BIN_OPS), b(rng), b(rng)),
        4 => CExpr::Not(b(rng)),
        5 => CExpr::Neg(b(rng)),
        6 => CExpr::Hash(b(rng)),
        7 => CExpr::Min(b(rng), b(rng)),
        8 => CExpr::Max(b(rng), b(rng)),
        9 => CExpr::MapGet(rng.gen_index(MAPS), Box::new(key_term(rng, depth - 1))),
        10 => CExpr::MapContains(rng.gen_index(MAPS), Box::new(key_term(rng, depth - 1))),
        11 => CExpr::ArrayGet(b(rng), b(rng)),
        _ => CExpr::Proj(b(rng), rng.gen_index(5)),
    }
}

/// A key term: half the time one of the shapes NFs key their maps by.
fn key_term(rng: &mut Rng, depth: u32) -> CExpr {
    let pkt = |fs: &[Field]| CExpr::Tuple(fs.iter().map(|&f| CExpr::Pkt(f)).collect());
    let (s, sp, d, dp) = (Field::IpSrc, Field::TcpSport, Field::IpDst, Field::TcpDport);
    match rng.gen_index(8) {
        0 => pkt(&[s, sp, d, dp]),
        1 => pkt(&[d, dp, s, sp]),
        2 => pkt(&[s, sp]),
        3 => CExpr::Pkt(s),
        _ => term(rng, depth),
    }
}

/// Whether the term contains an array literal: the one shape on which
/// the fast path may decline a term `eval_expr` succeeds on.
fn has_array_literal(t: &CExpr) -> bool {
    match t {
        CExpr::Array(_) => true,
        CExpr::Tuple(es) => es.iter().any(has_array_literal),
        CExpr::Bin(_, a, b) | CExpr::Min(a, b) | CExpr::Max(a, b) | CExpr::ArrayGet(a, b) => {
            has_array_literal(a) || has_array_literal(b)
        }
        CExpr::Not(a)
        | CExpr::Neg(a)
        | CExpr::Hash(a)
        | CExpr::Proj(a, _)
        | CExpr::MapGet(_, a)
        | CExpr::MapContains(_, a) => has_array_literal(a),
        CExpr::Const(_) | CExpr::Pkt(_) | CExpr::Slot(_) | CExpr::Stuck(_) => false,
    }
}

/// How often each entry point answered, and how often `eval_expr` erred
/// (where every entry point must decline).
#[derive(Default)]
struct Tally {
    bools: Cell<u32>,
    ints: Cell<u32>,
    keys: Cell<u32>,
    values: Cell<u32>,
    errs: Cell<u32>,
}

fn bump(c: &Cell<u32>, answered: bool) {
    c.set(c.get() + u32::from(answered));
}

/// Check every entry point on `term` against `eval_expr`.
fn agree(env: &RunEnv, term: &CExpr, tally: &Tally) {
    let got = (
        env.fast_bool(term),
        env.fast_int(term),
        env.fast_key(term),
        env.fast_value(term),
    );
    let ctx = || format!("term {term:?}\npacket {}\nslots {:?}", env.pkt, env.slots);
    match eval_expr(env, term) {
        Err(e) => {
            assert_eq!(
                got,
                (None, None, None, None),
                "eval_expr errs ({e}), {}",
                ctx()
            );
            bump(&tally.errs, true);
        }
        Ok(v) => {
            let want = (v.as_bool(), v.as_int(), v.as_key(), Some(v.clone()));
            if has_array_literal(term) {
                assert!(
                    got.0.is_none() || got.0 == want.0,
                    "fast_bool {:?}, {}",
                    got.0,
                    ctx()
                );
                assert!(
                    got.1.is_none() || got.1 == want.1,
                    "fast_int {:?}, {}",
                    got.1,
                    ctx()
                );
                assert!(
                    got.2.is_none() || got.2 == want.2,
                    "fast_key {:?}, {}",
                    got.2,
                    ctx()
                );
                assert!(
                    got.3.is_none() || got.3 == want.3,
                    "fast_value {:?}, {}",
                    got.3,
                    ctx()
                );
            } else {
                assert_eq!(got, want, "eval_expr gives {v}, {}", ctx());
            }
            bump(&tally.bools, got.0.is_some());
            bump(&tally.ints, got.1.is_some());
            bump(&tally.keys, got.2.is_some());
            bump(&tally.values, got.3.is_some());
        }
    }
}

#[test]
fn fast_path_agrees_with_eval_expr() {
    let corpus = corpus();
    let no_names: Vec<String> = (0..MAPS.max(SLOTS)).map(|i| format!("s{i}")).collect();
    let tally = Tally::default();
    check(
        "fast_path_agrees_with_eval_expr",
        &Config::with_cases(256),
        &any_u64(),
        |&seed| {
            let mut rng = Rng::new(seed);
            let pkt = packet(&mut rng);
            for (prog, terms) in &corpus {
                let (slots, maps) = arena(&mut rng, &pkt, &prog.init.scalars, &prog.init.maps);
                let env = RunEnv {
                    pkt: &pkt,
                    slots: &slots,
                    maps: &maps,
                    map_names: prog.init.layout().map_names(),
                    slot_names: prog.init.layout().slot_names(),
                    probes: None,
                };
                for t in terms {
                    agree(&env, t, &tally);
                }
            }
            let (slots, maps) = arena(
                &mut rng,
                &pkt,
                &vec![None; SLOTS],
                &vec![HashMap::new(); MAPS],
            );
            let env = RunEnv {
                pkt: &pkt,
                slots: &slots,
                maps: &maps,
                map_names: &no_names,
                slot_names: &no_names,
                probes: None,
            };
            for _ in 0..48 {
                agree(&env, &term(&mut rng, 4), &tally);
            }
        },
    );
    // Not vacuous: every entry point answered, and `eval_expr` erred,
    // many times.
    let counts = [
        ("fast_bool answers", tally.bools.get()),
        ("fast_int answers", tally.ints.get()),
        ("fast_key answers", tally.keys.get()),
        ("fast_value answers", tally.values.get()),
        ("eval_expr errors", tally.errs.get()),
    ];
    for (what, n) in counts {
        assert!(n >= 5_000, "only {n} {what}: {counts:?}");
    }
}
