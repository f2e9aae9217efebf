//! The compiled-program runtime.
//!
//! [`CompiledState`] is the state of one deployment: the program's
//! initial store ([`ModelState`], from `nf-model`), stepped, plus the
//! predicate memo. One [`step`](CompiledState::step) takes the compiled
//! fast step or runs the reference step, on the same store:
//!
//! * the fast step walks the decision tree to a leaf, checks the leaf
//!   candidates' obligations (residual flow literals, then state tags)
//!   in reference order, and fires the first full match exactly as the
//!   reference step would: all terms evaluated against the *pre* state
//!   into the store's pending writes ([`ModelState::pending`]), then
//!   committed through its one commit path ([`ModelState::commit`]),
//!   scalars before maps, in source order;
//! * wherever the fast path declines a term (see [`crate::expr`]), a
//!   rewrite does not fit its field, or the tree has no child for the
//!   packet, the fast step gives up before it commits anything, and the
//!   reference step ([`ModelState::step`]) runs the packet from the
//!   start with the model the program carries
//!   ([`CompiledProgram::model`]).
//!
//! So every error, and every value the fast path does not compute, is
//! the reference's by construction. The store's undo log reverts either
//! step.
//!
//! Each packet pays once for each distinct piece of work. Flow literals
//! and state tags are interned predicates ([`mod@crate::compile`]), and one
//! generation-stamped memo serves them all, so a step evaluates each
//! distinct predicate at most once, whatever its polarity and however
//! many candidates test it. The memo holds the predicate's truth value;
//! each obligation compares it with its own expected polarity. Map reads
//! go through the step's probe memo ([`Probes`]), which lives on the
//! step's stack: each distinct `(map, key term)` pair is built and
//! probed once. Neither memo allocates per step, and a fired entry that
//! rewrites nothing forwards the input packet by reference, as the
//! reference step does ([`ModelStep::output`]), so only a rewrite copies
//! the packet.

use crate::compile::{CEntry, CFlowAction, CMapOp, CompiledProgram, PredLit};
use crate::expr::{ProbeSlot, Probes, RunEnv, PROBE_SLOTS};
use crate::tree::{LeafCand, Node};
use nf_model::{EvalError, ModelState, ModelStep, Writes};
use nf_packet::Packet;
use nfl_interp::value::Value;
use std::borrow::Cow;
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
}

impl CompiledState {
    /// Fresh state at the program's initial deployment.
    pub fn new(prog: &CompiledProgram) -> CompiledState {
        CompiledState {
            store: prog.init.clone(),
            memo: vec![(0, false); prog.pred_count()],
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

    /// Run one packet through the compiled program, mutating the state:
    /// the fast step, or where it declines, the reference step
    /// ([`ModelState::step`]) with the program's model on this store.
    ///
    /// For any packet on which the reference step succeeds, this returns
    /// `Ok` with the identical output, fired entry, and post-state; an
    /// error is always the reference's.
    pub fn step<'p>(
        &mut self,
        prog: &CompiledProgram,
        pkt: &'p Packet,
    ) -> Result<ModelStep<'p>, EvalError> {
        match self.fast_step(prog, pkt) {
            Some(step) => Ok(step),
            None => self.store.step(&prog.model, pkt),
        }
    }

    /// The compiled step proper: `None` where it declines the packet,
    /// always before committing anything.
    #[inline]
    fn fast_step<'p>(&mut self, prog: &CompiledProgram, pkt: &'p Packet) -> Option<ModelStep<'p>> {
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
        let env = RunEnv {
            pkt,
            slots: &self.store.scalars,
            maps: &self.store.maps,
            probes,
        };
        let mut memo = Memo {
            truths: &mut self.memo,
            generation,
        };
        let Some(ei) = select(prog, &env, &mut memo, cands)? else {
            // Default action: drop.
            return Some(ModelStep {
                output: None,
                fired: None,
            });
        };
        let entry = &prog.entries[ei];
        let output = evaluate(&env, pkt, entry, &mut self.store.pending)?;
        self.store.commit();
        Some(ModelStep {
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

/// Walk the decision tree to the leaf `pkt` reaches. Every node over a
/// field a packet can lack has a missing-layer child, so `None` (no
/// child) does not happen on a tree `compile` built.
#[inline]
fn leaf<'p>(prog: &'p CompiledProgram, pkt: &Packet) -> Option<&'p [LeafCand]> {
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
                Err(_) => node = (*missing)?,
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
                Err(_) => node = (*missing)?,
            },
            Node::Leaf { cands } => return Some(cands),
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
    /// `None` where the fast path declines the predicate.
    fn holds(&mut self, prog: &CompiledProgram, env: &RunEnv, lit: PredLit) -> Option<bool> {
        let (generation, memoised) = self.truths[lit.pred];
        let truth = if generation == self.generation {
            memoised
        } else {
            let b = env.fast_bool(prog.pred(lit.pred))?;
            self.truths[lit.pred] = (self.generation, b);
            b
        };
        Some(truth == lit.expect)
    }
}

/// The first candidate, in priority order, whose obligations all hold
/// (`Some(None)`: none does).
#[inline]
fn select(
    prog: &CompiledProgram,
    env: &RunEnv,
    memo: &mut Memo,
    cands: &[LeafCand],
) -> Option<Option<usize>> {
    'cand: for c in cands {
        for &lit in &c.lits {
            if !memo.holds(prog, env, lit)? {
                continue 'cand;
            }
        }
        return Some(Some(c.entry));
    }
    Some(None)
}

/// Evaluate the fired entry's rewrites, updates and map operations
/// against the pre-state, exactly as the reference step does: returns
/// the output packet and leaves the writes in `pending`, which the
/// step began empty. `pkt` is `env`'s packet; an entry that rewrites
/// nothing forwards it by reference, as the reference step does.
#[inline]
fn evaluate<'p>(
    env: &RunEnv,
    pkt: &'p Packet,
    entry: &CEntry,
    pending: &mut Writes,
) -> Option<Option<Cow<'p, Packet>>> {
    let output = match &entry.flow_action {
        CFlowAction::Drop => None,
        CFlowAction::Forward { rewrites } => {
            let mut out = Cow::Borrowed(pkt);
            for (field, term) in rewrites {
                let v = u64::try_from(env.fast_int(term)?).ok()?;
                out.to_mut().set(*field, v).ok()?;
            }
            Some(out)
        }
    };
    for (slot, term) in &entry.updates {
        pending.slots.push((*slot, env.fast_value(term)?));
    }
    for op in &entry.map_ops {
        match op {
            CMapOp::Insert { map, key, value } => {
                pending
                    .maps
                    .push((*map, env.fast_key(key)?, Some(env.fast_value(value)?)));
            }
            CMapOp::Remove { map, key } => pending.maps.push((*map, env.fast_key(key)?, None)),
        }
    }
    Some(output)
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
    /// no probe memo is left, and its generation must not go back. A
    /// reverted copy of the state after every packet must equal the
    /// state before it.
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
            let borrowed = |s: &ModelStep| matches!(s.output, Some(Cow::Borrowed(_)));
            assert_eq!(
                borrowed(&got),
                borrowed(&want),
                "packet {i} forwarded by reference"
            );
            assert_eq!(got.fired, want.fired, "packet {i} fired entry");
            let on_arena = arena.store.step(&m, p).expect("model_step");
            assert_eq!(on_arena, want, "packet {i} model_step");
            let after = cs.snapshot(&prog);
            let mut undone = cs.clone();
            undone.store.revert();
            assert_eq!(undone.snapshot(&prog), before, "packet {i} revert");
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
        let var = SymVal::var;
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

    /// The fast step answers every packet of the corpus traffic, so the
    /// reference step runs only on packets the fast path cannot take. A
    /// lost fast-path arm would move packets to the reference step
    /// silently, and only throughput would show it.
    #[test]
    fn fast_step_answers_every_corpus_packet() {
        for (name, src) in [
            ("firewall", nf_corpus::firewall::source()),
            ("portknock", nf_corpus::portknock::source()),
            ("ratelimiter", nf_corpus::ratelimiter::source()),
            ("router", nf_corpus::router::source()),
            ("snort", nf_corpus::snort::source(25)),
            ("fig1-lb", nf_corpus::fig1_lb::source()),
            ("nat", nf_corpus::nat::source()),
            ("balance", nf_corpus::balance::source(6)),
        ] {
            let syn = nfactor_core::Pipeline::builder()
                .name(name)
                .build()
                .unwrap()
                .synthesize(&src)
                .unwrap_or_else(|e| panic!("{name}: synthesize: {e}"));
            let interp = nfl_interp::Interp::new(&syn.nf_loop).unwrap();
            let init = nfactor_core::accuracy::initial_model_state(&syn, &interp);
            let prog = compile(&syn.model, &init).unwrap();
            let mut cs = CompiledState::new(&prog);
            let mut gen = nf_packet::PacketGen::new(1);
            for i in 0..2_000 {
                let p = gen.next_packet();
                assert!(
                    cs.fast_step(&prog, &p).is_some(),
                    "{name}: the fast step declined packet {i}: {p}"
                );
            }
        }
    }
}
