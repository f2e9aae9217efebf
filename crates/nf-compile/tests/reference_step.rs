//! The compiled step against the reference step, on generated terms.
//!
//! `CompiledState::step` takes its fast path or, wherever that declines,
//! runs the reference step (`ModelState::step`) with the model the
//! program carries. Either way it must behave as the reference: from
//! the same deployment, both steps return `Ok` with equal output, fired
//! entry and post-state, or both return `Err` with the same text.
//!
//! Each case builds one-entry models, one per term position (a
//! state-match literal, a rewrite, a scalar update, a map insert's key
//! or value, a map remove's key), each with a term generated over the
//! whole `SymVal` grammar, ill-typed terms included. The generator
//! leans towards terms of the position's type, so both outcomes occur
//! thousands of times. The case's deployment sets or leaves unset each
//! config and scalar, with values of every type, and gives each map
//! entries under keys the case's packets carry. Each model steps the
//! case's TCP, UDP and transport-less packets.

use nf_compile::{compile, CompiledState};
use nf_model::{Completeness, ConfigTable, Entry, FlowAction, Model, ModelState, StateAction};
use nf_packet::packet::Transport;
use nf_packet::{Field, Packet, PacketGen};
use nf_support::check::{any_u64, check, Config};
use nf_support::rng::Rng;
use nfl_interp::{Value, ValueKey};
use nfl_lang::BinOp;
use nfl_symex::{MapOp, SymVal};
use std::cell::Cell;

const CONFIGS: [&str; 3] = ["c0", "c1", "c2"];
const SCALARS: [&str; 3] = ["s0", "s1", "s2"];
const MAPS: [&str; 2] = ["m0", "m1"];

const ARITH: [BinOp; 7] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::BitAnd,
    BinOp::BitOr,
];
const ORDER: [BinOp; 4] = [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge];
const ALL_OPS: [BinOp; 17] = [
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

/// Fields every packet has, and the ports, which UDP packets have too.
const PRESENT: [Field; 6] = [
    Field::IpSrc,
    Field::IpDst,
    Field::IpProto,
    Field::IpTtl,
    Field::TcpSport,
    Field::TcpDport,
];

/// Small integers (zero and negatives included, for `/`, `%` and
/// indices) and the odd large one.
fn int(rng: &mut Rng) -> i64 {
    match rng.gen_index(8) {
        0 => rng.gen_range_i64(-1 << 40, 1 << 40),
        1 | 2 => rng.gen_range_i64(-5, -1),
        _ => rng.gen_range_i64(0, 5),
    }
}

/// A value of any type, integers most often.
fn value(rng: &mut Rng, depth: u32) -> Value {
    match rng.gen_index(if depth == 0 { 7 } else { 9 }) {
        0..=3 => Value::Int(int(rng)),
        4 => Value::Bool(rng.gen_bool(0.5)),
        5 => Value::Str(rng.choose(&["", "a"]).to_string()),
        6 => Value::Tuple((0..rng.gen_index(5)).map(|_| int(rng)).collect()),
        _ => Value::Array(
            (0..rng.gen_index(4))
                .map(|_| value(rng, depth - 1))
                .collect(),
        ),
    }
}

/// The type a term position asks for.
#[derive(Clone, Copy)]
enum Ty {
    Bool,
    Int,
    Key,
    Any,
}

fn bx(t: SymVal) -> Box<SymVal> {
    Box::new(t)
}

/// A term of type `ty`, or now and then an arbitrary one. Its leaves
/// read names that may be unset or hold another type, so even a typed
/// term can fail.
fn term(rng: &mut Rng, ty: Ty, depth: u32) -> SymVal {
    if rng.gen_index(16) == 0 {
        return wild(rng, depth);
    }
    if depth == 0 || rng.gen_index(4) == 0 {
        return match (ty, rng.gen_index(12)) {
            (_, 0) => SymVal::Cfg(rng.choose(&CONFIGS).to_string()),
            (_, 1) => SymVal::St(rng.choose(&SCALARS).to_string()),
            (Ty::Bool, _) => SymVal::Bool(rng.gen_bool(0.5)),
            (_, 2..=6) => SymVal::Pkt(*rng.choose(&PRESENT)),
            (Ty::Any, 7) => SymVal::Str("a".into()),
            _ => SymVal::Int(int(rng)),
        };
    }
    let d = depth - 1;
    match ty {
        Ty::Bool => match rng.gen_index(6) {
            0 => SymVal::Bin(
                *rng.choose(&ORDER),
                bx(term(rng, Ty::Int, d)),
                bx(term(rng, Ty::Int, d)),
            ),
            1 => {
                let op = *rng.choose(&[BinOp::Eq, BinOp::Ne]);
                SymVal::Bin(op, bx(term(rng, Ty::Any, d)), bx(term(rng, Ty::Any, d)))
            }
            2 => {
                let op = *rng.choose(&[BinOp::And, BinOp::Or]);
                SymVal::Bin(op, bx(term(rng, Ty::Bool, d)), bx(term(rng, Ty::Bool, d)))
            }
            3 => SymVal::Not(bx(term(rng, Ty::Bool, d))),
            _ => SymVal::MapContains(rng.choose(&MAPS).to_string(), bx(term(rng, Ty::Key, d))),
        },
        Ty::Int => match rng.gen_index(9) {
            0..=2 => SymVal::Bin(
                *rng.choose(&ARITH),
                bx(term(rng, Ty::Int, d)),
                bx(term(rng, Ty::Int, d)),
            ),
            3 => SymVal::Neg(bx(term(rng, Ty::Int, d))),
            4 => {
                let (a, b) = (bx(term(rng, Ty::Int, d)), bx(term(rng, Ty::Int, d)));
                if rng.gen_bool(0.5) {
                    SymVal::Min(a, b)
                } else {
                    SymVal::Max(a, b)
                }
            }
            5 => SymVal::Hash(bx(term(rng, Ty::Any, d))),
            6 => SymVal::Proj(bx(tuple(rng, d)), rng.gen_index(3)),
            7 => SymVal::ArrayGet(bx(array(rng, d)), bx(term(rng, Ty::Int, d))),
            _ => SymVal::MapGet(rng.choose(&MAPS).to_string(), bx(term(rng, Ty::Key, d))),
        },
        Ty::Key => match rng.gen_index(4) {
            0 => tuple(rng, d),
            1 => SymVal::Tuple(
                [Field::IpSrc, Field::TcpSport, Field::IpDst, Field::TcpDport]
                    .into_iter()
                    .take(*rng.choose(&[2, 4]))
                    .map(SymVal::Pkt)
                    .collect(),
            ),
            _ => term(rng, Ty::Int, depth),
        },
        Ty::Any => match rng.gen_index(6) {
            0 => term(rng, Ty::Bool, depth),
            1 => tuple(rng, d),
            2 => array(rng, d),
            3 => SymVal::MapGet(rng.choose(&MAPS).to_string(), bx(term(rng, Ty::Key, d))),
            _ => term(rng, Ty::Int, depth),
        },
    }
}

/// A tuple-valued term: a tuple of integer terms, or a name.
fn tuple(rng: &mut Rng, depth: u32) -> SymVal {
    match rng.gen_index(4) {
        0 => SymVal::Cfg(rng.choose(&CONFIGS).to_string()),
        _ => SymVal::Tuple(
            (0..1 + rng.gen_index(3))
                .map(|_| term(rng, Ty::Int, depth))
                .collect(),
        ),
    }
}

/// An array-valued term: an array literal, or a name.
fn array(rng: &mut Rng, depth: u32) -> SymVal {
    match rng.gen_index(3) {
        0 => SymVal::Cfg(rng.choose(&CONFIGS).to_string()),
        1 => SymVal::St(rng.choose(&SCALARS).to_string()),
        _ => SymVal::Array(
            (0..rng.gen_index(4))
                .map(|_| term(rng, Ty::Any, depth))
                .collect(),
        ),
    }
}

/// A term over the whole grammar, typed or not.
fn wild(rng: &mut Rng, depth: u32) -> SymVal {
    let b = |rng: &mut Rng| bx(wild(rng, depth.saturating_sub(1)));
    if depth == 0 || rng.gen_index(4) == 0 {
        return match rng.gen_index(8) {
            0 => SymVal::Int(int(rng)),
            1 => SymVal::Bool(rng.gen_bool(0.5)),
            2 => SymVal::Str("a".into()),
            3 => SymVal::Pkt(*rng.choose(&Field::ALL)),
            4 => SymVal::Cfg(rng.choose(&CONFIGS).to_string()),
            5 => SymVal::St(rng.choose(&SCALARS).to_string()),
            // A name of no class, and names of the wrong class.
            6 => SymVal::Var(rng.choose(&["pkt.len", "x"]).to_string()),
            _ => SymVal::Cfg(rng.choose(&MAPS).to_string()),
        };
    }
    let items = |rng: &mut Rng| {
        (0..rng.gen_index(4))
            .map(|_| wild(rng, depth - 1))
            .collect()
    };
    let map = |rng: &mut Rng| rng.choose(&MAPS).to_string();
    match rng.gen_index(13) {
        0 => SymVal::Tuple(items(rng)),
        1 => SymVal::Array(items(rng)),
        2 | 3 => SymVal::Bin(*rng.choose(&ALL_OPS), b(rng), b(rng)),
        4 => SymVal::Not(b(rng)),
        5 => SymVal::Neg(b(rng)),
        6 => SymVal::Hash(b(rng)),
        7 => SymVal::Min(b(rng), b(rng)),
        8 => SymVal::Max(b(rng), b(rng)),
        9 => SymVal::MapGet(map(rng), b(rng)),
        10 => SymVal::MapContains(map(rng), b(rng)),
        11 => SymVal::ArrayGet(b(rng), b(rng)),
        _ => SymVal::Proj(b(rng), rng.gen_index(4)),
    }
}

/// A TCP, UDP or transport-less packet; half the time its addresses
/// and ports are small, so they meet generated constants and map keys.
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
    if rng.gen_bool(0.5) {
        for f in [Field::IpSrc, Field::IpDst, Field::TcpSport, Field::TcpDport] {
            let _ = p.set(f, rng.gen_below(4));
        }
    }
    p
}

/// Keys the packets carry: single fields, and tuples of them in both
/// directions.
fn key_pool(pkts: &[Packet]) -> Vec<ValueKey> {
    let mut pool = vec![ValueKey::Int(0), ValueKey::Int(1)];
    for p in pkts {
        let f = |field| p.get(field).map_or(0, |v| v as i64);
        let (s, sp, d, dp) = (
            f(Field::IpSrc),
            f(Field::TcpSport),
            f(Field::IpDst),
            f(Field::TcpDport),
        );
        pool.extend([
            ValueKey::Int(s),
            ValueKey::Int(sp),
            ValueKey::Tuple(vec![s, sp, d, dp]),
            ValueKey::Tuple(vec![d, dp, s, sp]),
            ValueKey::Tuple(vec![s, sp]),
        ]);
    }
    pool
}

/// A deployment: each config and scalar set to a value of any type or
/// left unset, each map declared with entries under pool keys or left
/// undeclared.
fn deployment(rng: &mut Rng, pool: &[ValueKey]) -> ModelState {
    let mut st = ModelState::default();
    for name in CONFIGS {
        if rng.gen_bool(0.8) {
            st = st.with_config(name, value(rng, 2));
        }
    }
    for name in SCALARS {
        if rng.gen_bool(0.8) {
            st = st.with_scalar(name, value(rng, 2));
        }
    }
    for name in MAPS {
        if rng.gen_bool(0.8) {
            st = st.with_map(name);
            for k in pool {
                if rng.gen_bool(0.4) {
                    st.insert_entry(name, k.clone(), value(rng, 2));
                }
            }
        }
    }
    st
}

/// Term positions: a state-match literal, a rewrite, a scalar update, a
/// map insert's key and its value, and a map remove's key.
const POSITIONS: usize = 6;

/// A one-entry model with a term generated for position `at`.
fn one_entry(rng: &mut Rng, at: usize) -> Model {
    let flow_match = match rng.gen_index(4) {
        0 | 1 => Vec::new(),
        2 => vec![SymVal::Bin(
            BinOp::Eq,
            bx(SymVal::Pkt(Field::IpProto)),
            bx(SymVal::Int(6)),
        )],
        // A field transport-less packets lack: the tree's missing-layer
        // child, and the reference's error.
        _ => vec![SymVal::Bin(
            BinOp::Le,
            bx(SymVal::Pkt(Field::TcpDport)),
            bx(SymVal::Int(rng.gen_range_i64(0, 3))),
        )],
    };
    let map = rng.choose(&MAPS).to_string();
    let mut entry = Entry {
        flow_match,
        state_match: Vec::new(),
        flow_action: if rng.gen_bool(0.5) {
            FlowAction::Drop
        } else {
            FlowAction::Forward {
                rewrites: Vec::new(),
            }
        },
        state_action: StateAction::default(),
        truncated: false,
    };
    let depth = 3;
    match at {
        0 => entry.state_match.push(term(rng, Ty::Bool, depth)),
        1 => {
            let field = *rng.choose(&Field::ALL);
            entry.flow_action = FlowAction::Forward {
                rewrites: vec![(field, term(rng, Ty::Int, depth))],
            };
        }
        2 => entry
            .state_action
            .updates
            .push((rng.choose(&SCALARS).to_string(), term(rng, Ty::Any, depth))),
        3 => entry.state_action.map_ops.push(MapOp::Insert {
            map,
            key: term(rng, Ty::Key, depth),
            value: SymVal::Int(1),
        }),
        4 => entry.state_action.map_ops.push(MapOp::Insert {
            map,
            key: SymVal::Pkt(Field::IpSrc),
            value: term(rng, Ty::Any, depth),
        }),
        _ => entry.state_action.map_ops.push(MapOp::Remove {
            map,
            key: term(rng, Ty::Key, depth),
        }),
    }
    Model {
        nf_name: "t".into(),
        tables: vec![ConfigTable {
            config: Vec::new(),
            entries: vec![entry],
        }],
        completeness: Completeness::Full,
    }
}

#[test]
fn compiled_step_equals_the_reference_step() {
    let (oks, errs) = (Cell::new(0u32), Cell::new(0u32));
    check(
        "compiled_step_equals_the_reference_step",
        &Config::with_cases(2048),
        &any_u64(),
        |&seed| {
            let mut rng = Rng::new(seed);
            let pkts: Vec<Packet> = (0..4).map(|_| packet(&mut rng)).collect();
            let init = deployment(&mut rng, &key_pool(&pkts));
            for at in 0..POSITIONS {
                let model = one_entry(&mut rng, at);
                let prog = compile(&model, &init).expect("a model with no config table compiles");
                let (mut cs, mut ms) = (CompiledState::new(&prog), init.clone());
                for p in &pkts {
                    let ctx = || format!("model {model:?}\ndeployment {init:?}\npacket {p}");
                    match (cs.step(&prog, p), ms.step(&model, p)) {
                        (Ok(got), Ok(want)) => {
                            assert_eq!(
                                (&got.output, got.fired),
                                (&want.output, want.fired),
                                "{}",
                                ctx()
                            );
                            oks.set(oks.get() + 1);
                        }
                        (Err(got), Err(want)) => {
                            assert_eq!(got.to_string(), want.to_string(), "{}", ctx());
                            errs.set(errs.get() + 1);
                        }
                        (got, want) => panic!("compiled {got:?}, reference {want:?}\n{}", ctx()),
                    }
                    assert_eq!(cs.store, ms, "post-state\n{}", ctx());
                }
            }
        },
    );
    // Not vacuous: both outcomes, many times.
    let (oks, errs) = (oks.get(), errs.get());
    assert!(oks >= 2_000 && errs >= 2_000, "{oks} Ok, {errs} Err");
}
