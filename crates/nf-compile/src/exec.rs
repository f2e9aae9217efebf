//! The compiled-program runtime.
//!
//! [`CompiledState`] is the state of one deployment: the program's
//! initial store ([`ModelState`], from `nf-model`), stepped, plus the
//! predicate memo and the buffer of pending writes. One
//! [`step`](CompiledState::step) walks the decision tree to a leaf,
//! checks the leaf candidates' obligations (residual flow literals,
//! then state tags) in reference order, and fires the first full match
//! exactly as the reference step would: all terms evaluated against the
//! *pre* state, then committed through the store's one commit path
//! ([`ModelState::commit`]), scalars before maps, in source order. For
//! a packet the compiled step fails on, the reference step
//! ([`ModelState::step`]) runs on the same store, and the store's undo
//! log reverts either step.
//!
//! Each packet pays once for each distinct piece of work. Flow literals
//! and state tags are interned predicates ([`mod@crate::compile`]), and one
//! generation-stamped memo serves them all, so a step evaluates each
//! distinct predicate at most once, whatever its polarity and however
//! many candidates test it. The memo holds the predicate's truth value;
//! each obligation compares it with its own expected polarity. Map reads
//! go through the step's probe memo ([`Probes`]), which lives on the
//! step's stack: each distinct `(map, key term)` pair is built and
//! probed once. Neither memo allocates per step.
//!
//! Every term the step evaluates goes through the fast path of
//! [`RunEnv`] first: predicates through `fast_bool`, rewrites through
//! `fast_int`, map-op keys through `fast_key`, updates and inserted
//! values through `fast_value` (see [`crate::expr`]). Where the fast
//! path declines, the step runs [`eval_expr`] on the whole term,
//! un-memoised, and keeps its value or its error, so outputs, `fired`,
//! post-state and error strings are those of [`eval_expr`] on every
//! packet.

use crate::compile::{CEntry, CFlowAction, CMapOp, CompiledProgram, PredLit};
use crate::expr::{eval_expr, CExpr, ProbeSlot, Probes, RunEnv, PROBE_SLOTS};
use crate::tree::{LeafCand, Node};
use nf_model::{EvalError, ModelState, ModelStep, Writes};
use nf_packet::Packet;
use nfl_interp::value::{Value, ValueKey};
use std::collections::BTreeMap;

/// Mutable runtime state of one compiled deployment.
#[derive(Debug, Clone)]
pub struct CompiledState {
    /// The store: slots and map arenas laid out by the program's closed
    /// layout, with the undo log both steps commit through. The
    /// reference step runs on it directly (`store.step(model, pkt)`),
    /// and `store.revert()` undoes the most recent step of either kind.
    pub store: ModelState,
    /// Predicate memo: `memo[p] = (generation, truth value)` for
    /// predicate `p` of the program's predicate table. The store bumps
    /// the generation at every step, so a truth value is never read
    /// after its packet, nor after a revert.
    memo: Vec<(u64, bool)>,
    /// The fired entry's writes between evaluation and commit; empty
    /// between steps, kept for its allocations.
    pending: Writes,
}

impl CompiledState {
    /// Fresh state at the program's initial deployment.
    pub fn new(prog: &CompiledProgram) -> CompiledState {
        CompiledState {
            store: prog.init.clone(),
            memo: vec![(0, false); prog.pred_count()],
            pending: Writes::default(),
        }
    }

    /// Forget every memoised predicate, in place: a supervisor restart
    /// exists because cached derivations are no longer trusted. Probes
    /// are memoised on the stack of one step, so between steps there
    /// are none to forget. The generation keeps counting up, so a
    /// journal taken before the reset still tells whether a step began
    /// after it.
    pub fn clear_memo(&mut self) {
        self.memo.fill((0, false));
    }

    /// Run one packet through the compiled program, mutating the state.
    ///
    /// For any packet on which the reference `ModelState::step`
    /// succeeds, this returns `Ok` with the identical output, fired
    /// entry, and post-state.
    pub fn step(&mut self, prog: &CompiledProgram, pkt: &Packet) -> Result<ModelStep, EvalError> {
        let generation = self.store.begin_step();
        let cands = leaf(prog, pkt)?;
        // The probe memo lives on the stack for this step; a program
        // that reads no map does not even build it.
        let probe_slots: [ProbeSlot; PROBE_SLOTS];
        let probes = if prog.probe_count > 0 {
            probe_slots = Default::default();
            Some(Probes::new(&prog.probe_keys, &probe_slots))
        } else {
            None
        };
        let layout = self.store.layout();
        let env = RunEnv {
            pkt,
            slots: &self.store.scalars,
            maps: &self.store.maps,
            map_names: layout.map_names(),
            slot_names: layout.slot_names(),
            probes,
        };
        let mut memo = Memo {
            truths: &mut self.memo,
            generation,
        };
        let Some(ei) = select(prog, &env, &mut memo, cands)? else {
            // Default action: drop.
            return Ok(ModelStep {
                output: None,
                fired: None,
            });
        };
        let entry = &prog.entries[ei];
        let output = evaluate(&env, entry, &mut self.pending)?;
        self.store.commit(&mut self.pending);
        Ok(ModelStep {
            output,
            fired: Some(entry.origin),
        })
    }

    /// The store's by-name view ([`ModelState::snapshot`]). The program
    /// is not read: the store carries its layout and configs.
    pub fn snapshot(&self, _prog: &CompiledProgram) -> BTreeMap<String, Value> {
        self.store.snapshot()
    }
}

/// Walk the decision tree to the leaf `pkt` reaches.
#[inline]
fn leaf<'p>(prog: &'p CompiledProgram, pkt: &Packet) -> Result<&'p [LeafCand], EvalError> {
    let mut node = prog.root;
    loop {
        match &prog.nodes[node] {
            Node::Exact {
                field,
                mask,
                arms,
                default,
                missing,
            } => match pkt.get(*field) {
                Ok(raw) => {
                    let v = (raw as i64) & *mask;
                    node = match arms.binary_search_by_key(&v, |(a, _)| *a) {
                        Ok(i) => arms[i].1,
                        Err(_) => *default,
                    };
                }
                Err(e) => match missing {
                    Some(m) => node = *m,
                    // Unreachable: every node over a fallible field
                    // is built with a missing child.
                    None => return Err(EvalError::Stuck(e.to_string())),
                },
            },
            Node::Range {
                field,
                cuts,
                children,
                missing,
            } => match pkt.get(*field) {
                Ok(raw) => {
                    let v = raw as i64;
                    node = children[cuts.partition_point(|&c| c <= v)];
                }
                Err(e) => match missing {
                    Some(m) => node = *m,
                    None => return Err(EvalError::Stuck(e.to_string())),
                },
            },
            Node::Leaf { cands } => return Ok(cands),
        }
    }
}

/// The predicate memo of one step.
struct Memo<'m> {
    truths: &'m mut [(u64, bool)],
    generation: u64,
}

impl Memo<'_> {
    /// Whether obligation `lit` holds: its predicate's truth value,
    /// evaluated at most once per step, against its own polarity.
    fn holds(
        &mut self,
        prog: &CompiledProgram,
        env: &RunEnv,
        lit: PredLit,
    ) -> Result<bool, EvalError> {
        let (generation, memoised) = self.truths[lit.pred];
        let truth = if generation == self.generation {
            memoised
        } else {
            let b = truth(env, prog.pred(lit.pred), lit.wrapped)?;
            self.truths[lit.pred] = (self.generation, b);
            b
        };
        Ok(truth == lit.expect)
    }
}

/// The first candidate, in priority order, whose obligations all hold.
#[inline]
fn select(
    prog: &CompiledProgram,
    env: &RunEnv,
    memo: &mut Memo,
    cands: &[LeafCand],
) -> Result<Option<usize>, EvalError> {
    'cand: for c in cands {
        for &lit in &c.lits {
            if !memo.holds(prog, env, lit)? {
                continue 'cand;
            }
        }
        return Ok(Some(c.entry));
    }
    Ok(None)
}

/// Evaluate a predicate to its truth value. A non-boolean value raises
/// the reference's error: `not of v` for a literal the source wrapped
/// in `!`, else `match literal evaluated to v`.
fn truth(env: &RunEnv, e: &CExpr, wrapped: bool) -> Result<bool, EvalError> {
    if let Some(b) = env.fast_bool(e) {
        return Ok(b);
    }
    match eval_expr(env, e)? {
        Value::Bool(b) => Ok(b),
        other => Err(EvalError::Stuck(if wrapped {
            format!("not of {other}")
        } else {
            format!("match literal evaluated to {other}")
        })),
    }
}

/// Evaluate the fired entry's rewrites, updates and map operations
/// against the pre-state, exactly as the reference step does: returns
/// the output packet and leaves the writes in `pending`.
#[inline]
fn evaluate(
    env: &RunEnv,
    entry: &CEntry,
    pending: &mut Writes,
) -> Result<Option<Packet>, EvalError> {
    // An earlier step that failed mid-evaluation may have left writes.
    pending.slots.clear();
    pending.maps.clear();
    let value = |term: &CExpr| {
        env.fast_value(term)
            .map_or_else(|| eval_expr(env, term), Ok)
    };
    let key = |term: &CExpr| -> Result<ValueKey, EvalError> {
        match env.fast_key(term) {
            Some(k) => Ok(k),
            None => eval_expr(env, term)?
                .as_key()
                .ok_or_else(|| EvalError::Stuck("unkeyable map key".into())),
        }
    };
    let output = match &entry.flow_action {
        CFlowAction::Drop => None,
        CFlowAction::Forward { rewrites } => {
            let mut out = env.pkt.clone();
            for (field, term) in rewrites {
                let iv = match env.fast_int(term) {
                    Some(iv) => iv,
                    None => {
                        let v = eval_expr(env, term)?;
                        v.as_int().ok_or_else(|| {
                            EvalError::Stuck(format!("rewrite of {field} to non-int {v}"))
                        })?
                    }
                };
                let uv = u64::try_from(iv)
                    .map_err(|_| EvalError::Field(format!("negative value {iv}")))?;
                out.set(*field, uv)
                    .map_err(|e| EvalError::Field(e.to_string()))?;
            }
            Some(out)
        }
    };
    for (slot, term) in &entry.updates {
        pending.slots.push((*slot, value(term)?));
    }
    for op in &entry.map_ops {
        match op {
            CMapOp::Insert {
                map,
                key: k,
                value: v,
            } => {
                pending.maps.push((*map, key(k)?, Some(value(v)?)));
            }
            CMapOp::Remove { map, key: k } => pending.maps.push((*map, key(k)?, None)),
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, render};
    use nf_model::{Completeness, ConfigTable, Entry, FlowAction, Model, ModelState, StateAction};
    use nf_packet::packet::Transport;
    use nf_packet::wire::{parse_ipv4, TcpFlags};
    use nfl_analysis::normalize::normalize;
    use nfl_lang::parse_and_check;
    use nfl_lang::BinOp;
    use nfl_symex::SymExec;
    use nfl_symex::SymVal;

    fn model_of(src: &str) -> Model {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl).explore().unwrap();
        Model::from_paths("t", &stats.paths)
    }

    fn tcp(sport: u16, dport: u16) -> Packet {
        Packet::tcp(
            parse_ipv4("10.0.0.1").unwrap(),
            sport,
            parse_ipv4("3.3.3.3").unwrap(),
            dport,
            TcpFlags::syn(),
        )
    }

    /// Run a packet sequence through the reference evaluator, the
    /// compiled step, and the reference evaluator over the compiled
    /// store (`store.step`); assert identical per-packet results and
    /// final snapshots. Halfway through, the compiled state is
    /// restarted as the supervisor does: its predicate memo is cleared,
    /// no probe memo is left, and its generation must not go back. After every packet, and after
    /// reverting a copy of it, the consuming snapshot must equal the
    /// copying one.
    fn lockstep(src: &str, init: ModelState, pkts: &[Packet]) {
        let m = model_of(src);
        let prog = compile(&m, &init).unwrap();
        let mut cs = CompiledState::new(&prog);
        let mut arena = CompiledState::new(&prog);
        let mut ms = init;
        let mut before = cs.snapshot(&prog);
        for (i, p) in pkts.iter().enumerate() {
            if i == pkts.len() / 2 {
                let g = cs.store.generation();
                cs.clear_memo();
                assert_eq!(cs.store.generation(), g, "restart keeps the generation");
                assert!(
                    cs.memo.iter().all(|&m| m == (0, false)),
                    "restart forgets every memoised predicate"
                );
            }
            let want = ms.step(&m, p).expect("reference step");
            let got = cs.step(&prog, p).expect("compiled step");
            assert_eq!(got.output, want.output, "packet {i} output");
            assert_eq!(got.fired, want.fired, "packet {i} fired entry");
            let on_arena = arena.store.step(&m, p).expect("model_step");
            assert_eq!(on_arena, want, "packet {i} model_step");
            let after = cs.snapshot(&prog);
            assert_eq!(
                cs.store.clone().into_snapshot(),
                after,
                "packet {i} into_snapshot"
            );
            let mut undone = cs.clone();
            undone.store.revert();
            assert_eq!(undone.snapshot(&prog), before, "packet {i} revert");
            assert_eq!(
                undone.store.into_snapshot(),
                before,
                "packet {i} reverted into_snapshot"
            );
            before = after;
        }
        let want = ms.snapshot();
        assert_eq!(cs.snapshot(&prog), want, "final state snapshot");
        assert_eq!(arena.snapshot(&prog), want, "final model_step snapshot");
    }

    const NAT: &str = r#"
        state nat = map();
        state next = 10000;
        fn cb(pkt: packet) {
            let k = (pkt.ip.src, pkt.tcp.sport);
            if k not in nat {
                nat[k] = next;
                next = next + 1;
            }
            pkt.tcp.sport = nat[k];
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#;

    #[test]
    fn nat_lockstep_with_reference() {
        let init = ModelState::default()
            .with_scalar("next", Value::Int(10000))
            .with_map("nat");
        lockstep(
            NAT,
            init,
            &[tcp(5555, 80), tcp(5555, 80), tcp(7777, 80), tcp(5555, 443)],
        );
    }

    #[test]
    fn nat_lockstep_materialises_an_undeclared_map() {
        // The initial state omits the map the model writes, so `nat`
        // materialises on the first packet: the snapshot before it has
        // no `nat`, and reverting that packet takes the map away again.
        let init = ModelState::default().with_scalar("next", Value::Int(10000));
        let prog = compile(&model_of(NAT), &init).unwrap();
        let fresh = CompiledState::new(&prog).snapshot(&prog);
        assert!(!fresh.contains_key("nat"));
        lockstep(
            NAT,
            init,
            &[tcp(5555, 80), tcp(5555, 80), tcp(7777, 80), tcp(5555, 443)],
        );
    }

    #[test]
    fn port_filter_lockstep() {
        let src = r#"
            config PORT = 80;
            fn cb(pkt: packet) {
                if pkt.tcp.dport == PORT { send(pkt); }
            }
            fn main() { sniff(cb); }
        "#;
        let init = ModelState::default().with_config("PORT", Value::Int(80));
        lockstep(src, init, &[tcp(1, 80), tcp(1, 81), tcp(2, 80)]);
    }

    #[test]
    fn udp_packet_takes_missing_layer_path() {
        // The dport test sits behind a proto literal in the source; a
        // UDP-only packet must not error on the hoisted tcp field read.
        let src = r#"
            fn cb(pkt: packet) {
                if pkt.ip.proto == 6 {
                    if pkt.tcp.flags & 2 != 0 { send(pkt); }
                } else {
                    send(pkt);
                }
            }
            fn main() { sniff(cb); }
        "#;
        let udp = Packet::udp(
            parse_ipv4("10.0.0.1").unwrap(),
            53,
            parse_ipv4("3.3.3.3").unwrap(),
            53,
        );
        lockstep(src, ModelState::default(), &[tcp(1, 80), udp]);
    }

    #[test]
    fn rr_counter_wraps_like_reference() {
        let src = r#"
            config servers = [(1.1.1.1, 80), (2.2.2.2, 80)];
            state idx = 0;
            fn cb(pkt: packet) {
                let server = servers[idx];
                idx = (idx + 1) % len(servers);
                pkt.ip.dst = server[0];
                pkt.tcp.dport = server[1];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let init = ModelState::default()
            .with_config(
                "servers",
                Value::Array(vec![
                    Value::Tuple(vec![0x01010101, 80]),
                    Value::Tuple(vec![0x02020202, 80]),
                ]),
            )
            .with_scalar("idx", Value::Int(0));
        lockstep(src, init, &[tcp(1, 1), tcp(2, 2), tcp(3, 3)]);
    }

    /// A NAT that reads `nat[(src, sport)]` in a state tag, a rewrite
    /// and an update: one interned probe serves all three, and the
    /// compiled step keeps in lockstep with the reference.
    #[test]
    fn one_probe_serves_tag_rewrite_and_update() {
        let src = r#"
            state nat = map();
            state next = 10000;
            state seen = 0;
            fn cb(pkt: packet) {
                let k = (pkt.ip.src, pkt.tcp.sport);
                if k in nat {
                    seen = seen + nat[k];
                    pkt.tcp.sport = nat[k];
                    send(pkt);
                } else {
                    nat[k] = next;
                    next = next + 1;
                }
            }
            fn main() { sniff(cb); }
        "#;
        let init = ModelState::default()
            .with_scalar("next", Value::Int(10000))
            .with_scalar("seen", Value::Int(0))
            .with_map("nat");
        let prog = compile(&model_of(src), &init).unwrap();
        assert_eq!(prog.probe_count, 1, "{:?}", prog.probe_keys);
        let pkts: Vec<Packet> = [5555, 5555, 7777, 5555, 7777, 6666, 6666, 5555]
            .into_iter()
            .map(|sport| tcp(sport, 80))
            .collect();
        lockstep(src, init, &pkts);
    }

    /// One map read under two key terms in one step: each pair has a
    /// probe-memo slot of its own.
    #[test]
    fn probes_of_one_map_are_told_apart_by_key() {
        let src = r#"
            state seen = map();
            fn cb(pkt: packet) {
                if pkt.ip.src in seen {
                    if pkt.ip.dst in seen {
                        send(pkt);
                    } else {
                        seen[pkt.ip.dst] = 2;
                    }
                } else {
                    seen[pkt.ip.src] = 1;
                }
            }
            fn main() { sniff(cb); }
        "#;
        let init = ModelState::default().with_map("seen");
        let prog = compile(&model_of(src), &init).unwrap();
        assert_eq!(prog.probe_count, 2, "{:?}", prog.probe_keys);
        let flow = |s: &str, d: &str| {
            Packet::tcp(
                parse_ipv4(s).unwrap(),
                1,
                parse_ipv4(d).unwrap(),
                2,
                TcpFlags::syn(),
            )
        };
        let (a, b, c) = ("10.0.0.1", "10.0.0.2", "10.0.0.3");
        lockstep(
            src,
            init,
            &[
                flow(a, b),
                flow(a, b),
                flow(a, b),
                flow(b, c),
                flow(c, a),
                flow(b, c),
            ],
        );
    }

    /// A program with more distinct `(map, key)` pairs than probe-memo
    /// slots: the pairs past the slots are probed afresh, and the step
    /// still keeps in lockstep with the reference.
    #[test]
    fn probes_past_the_memo_slots_are_read_afresh() {
        let keys: Vec<String> = (0..10).map(|i| format!("(s + {i}) in seen")).collect();
        let src = format!(
            "state seen = map();
            fn cb(pkt: packet) {{
                let s = pkt.ip.src;
                if {} {{
                    send(pkt);
                }} else {{
                    seen[s + pkt.tcp.sport % 10] = 1;
                }}
            }}
            fn main() {{ sniff(cb); }}",
            keys.join(" && ")
        );
        let init = ModelState::default().with_map("seen");
        let prog = compile(&model_of(&src), &init).unwrap();
        assert!(prog.probe_count > PROBE_SLOTS, "{:?}", prog.probe_keys);
        let pkts: Vec<Packet> = (0..24).map(|i| tcp(i * 7 % 10, 80)).collect();
        lockstep(&src, init, &pkts);
    }

    /// A packet with no transport layer.
    fn other(proto: u8) -> Packet {
        Packet {
            ip_proto: proto,
            transport: Transport::Other,
            ..Packet::default()
        }
    }

    /// A one-table model of `(flow literals, forward?)` entries.
    fn flow_model(entries: Vec<(Vec<SymVal>, bool)>) -> Model {
        let entries = entries
            .into_iter()
            .map(|(flow_match, forward)| Entry {
                flow_match,
                state_match: Vec::new(),
                flow_action: if forward {
                    FlowAction::Forward {
                        rewrites: Vec::new(),
                    }
                } else {
                    FlowAction::Drop
                },
                state_action: StateAction::default(),
                truncated: false,
            })
            .collect();
        Model {
            nf_name: "t".into(),
            tables: vec![ConfigTable {
                config: Vec::new(),
                entries,
            }],
            completeness: Completeness::Full,
        }
    }

    /// A residual literal shared by several entries, bare and under
    /// `!`, is evaluated once per packet, yet where it errs the compiled
    /// step returns the reference's exact error at the same packet:
    /// `match literal evaluated to v` or `not of v` for a non-boolean
    /// value, whichever use the reference reaches first, and the
    /// missing-layer text for a transport field read.
    #[test]
    fn shared_residual_literal_keeps_the_reference_errors() {
        let var = |name: &str| SymVal::Var(name.into());
        let not = |v: SymVal| SymVal::Not(Box::new(v));
        // `answers[proto]`: a boolean for TCP (6) and UDP (17), the
        // integer 7 for every other protocol.
        let answer = SymVal::ArrayGet(Box::new(var("cfg:answers")), Box::new(var("pkt.ip.proto")));
        let answers = Value::Array(
            (0..18)
                .map(|p| match p {
                    6 => Value::Bool(true),
                    17 => Value::Bool(false),
                    _ => Value::Int(7),
                })
                .collect(),
        );
        let ports = SymVal::Bin(
            BinOp::Gt,
            Box::new(SymVal::Bin(
                BinOp::Add,
                Box::new(var("pkt.tcp.sport")),
                Box::new(var("pkt.tcp.dport")),
            )),
            Box::new(SymVal::Int(100)),
        );
        let ttl = SymVal::Bin(
            BinOp::Eq,
            Box::new(var("pkt.ip.ttl")),
            Box::new(SymVal::Int(64)),
        );
        let udp = Packet::udp(
            parse_ipv4("10.0.0.1").unwrap(),
            53,
            parse_ipv4("3.3.3.3").unwrap(),
            53,
        );
        let pkts = [tcp(1, 80), udp, tcp(30, 40), other(1), tcp(1, 80), other(2)];
        let cases = [
            (answer.clone(), "match literal evaluated to 7", true),
            (answer, "not of 7", false),
            (ports, "packet has no layer for field tcp.sport", true),
        ];
        for (lit, error, bare_first) in cases {
            let (first, second) = if bare_first {
                (lit.clone(), not(lit.clone()))
            } else {
                (not(lit.clone()), lit.clone())
            };
            let m = flow_model(vec![
                (vec![first], true),
                (vec![second, ttl.clone()], false),
                (vec![lit.clone()], true),
                (vec![not(lit.clone())], true),
            ]);
            let init = ModelState::default().with_config("answers", answers.clone());
            let prog = compile(&m, &init).unwrap();
            assert_eq!(prog.flow_preds.len(), 1, "{}", render(&prog));
            let (mut cs, mut ms) = (CompiledState::new(&prog), init);
            let mut errors = 0;
            for p in &pkts {
                let (want, got) = (ms.step(&m, p), cs.step(&prog, p));
                match (&want, &got) {
                    (Ok(want), Ok(got)) => assert_eq!(
                        (&got.output, got.fired),
                        (&want.output, want.fired),
                        "{lit} on {p}"
                    ),
                    (Err(want), Err(got)) => {
                        assert_eq!(got.to_string(), want.to_string(), "{lit} on {p}");
                        assert!(got.to_string().contains(error), "{got}");
                        errors += 1;
                    }
                    _ => panic!("{lit} on {p}: reference {want:?}, compiled {got:?}"),
                }
            }
            assert_eq!(errors, 2, "{lit}: both transport-less packets err");
        }
    }

    #[test]
    fn model_step_rejects_unknown_state_before_writing() {
        let counter = model_of(
            r#"
            state count = 0;
            state seen = map();
            fn cb(pkt: packet) {
                count = count + 1;
                seen[pkt.tcp.sport] = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        let init = ModelState::default()
            .with_scalar("count", Value::Int(0))
            .with_map("seen");
        let prog = compile(&counter, &init).unwrap();
        let mut cs = CompiledState::new(&prog);
        cs.store.step(&counter, &tcp(1, 80)).unwrap();
        let before = cs.snapshot(&prog);
        // A model the program was not compiled from: its scalar and map
        // writes name states the arenas do not have. The scalar write
        // would commit first, so both must fail before any commit.
        for foreign in [
            "state total = 0; fn cb(pkt: packet) { total = 7; send(pkt); }",
            "state hist = map(); fn cb(pkt: packet) { hist[1] = 7; send(pkt); }",
            "state count = 0; state hist = map();
             fn cb(pkt: packet) { count = 5; hist[1] = 7; send(pkt); }",
        ] {
            let m = model_of(&format!("{foreign} fn main() {{ sniff(cb); }}"));
            let err = cs.store.step(&m, &tcp(2, 80)).unwrap_err();
            assert!(
                err.to_string().contains("is not in the compiled program"),
                "{err}"
            );
            assert_eq!(cs.snapshot(&prog), before, "{foreign}");
        }
    }
}
