//! Model comparison — the paper's §6 future work, implemented.
//!
//! *"We plan to compare the model generated by NFactor with existing
//! models generated from manual inspection."* And §2.2's motivation for
//! doing so: *"the variable 'mode' is used to configure how a backend
//! server is selected for a new flow … Some existing NF models \[14\] fail
//! to capture this detail."*
//!
//! [`behavioural_diff`] drives two models through the same packet
//! sequences from identical state and reports every divergence —
//! packet-level evidence of what a hand-written model missed.
//! [`manual_lb_model`] builds the Joseph–Stoica-style hand model of the
//! Figure 1 load balancer: round-robin only, no `mode` awareness — so
//! diffing it against the synthesized model reproduces exactly the
//! paper's finding.

use nf_compile::{CompiledProgram, CompiledState};
use nf_model::{
    ConfigTable, Entry, FlowAction, Model, ModelState, StateAction,
};
use nf_packet::{Field, Packet, PacketGen};
use nfl_lang::BinOp;
use nfl_symex::{MapOp, SymVal};
use std::fmt;

/// One observed divergence between two models.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the packet in the probe stream.
    pub trial: usize,
    /// The probe packet.
    pub packet: Packet,
    /// Output of model A (`None` = drop).
    pub a_output: Option<Packet>,
    /// Output of model B.
    pub b_output: Option<Packet>,
    /// What differed: `"output"`, `"fired entry"` or `"post-state"`
    /// (the first of these, in that order).
    pub aspect: &'static str,
}

/// Result of a behavioural diff.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Probes executed.
    pub trials: usize,
    /// Trials on which the models agreed.
    pub agreements: usize,
    /// First few divergences.
    pub divergences: Vec<Divergence>,
}

impl DiffReport {
    /// Are the two models behaviourally equivalent on this stream?
    pub fn equivalent(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}/{} probes agree; {} divergence(s)",
            self.agreements,
            self.trials,
            self.divergences.len()
        )?;
        for d in self.divergences.iter().take(4) {
            writeln!(
                f,
                "  trial {} ({}): {} → A: {:?} vs B: {:?}",
                d.trial,
                d.aspect,
                d.packet,
                d.a_output.as_ref().map(|p| p.to_string()),
                d.b_output.as_ref().map(|p| p.to_string())
            )?;
        }
        Ok(())
    }
}

/// Drive both models with the same seeded packet stream from the given
/// initial states and diff the outputs packet by packet.
pub fn behavioural_diff(
    a: &Model,
    a_state: &ModelState,
    b: &Model,
    b_state: &ModelState,
    seed: u64,
    trials: usize,
) -> Result<DiffReport, String> {
    let mut sa = a_state.clone();
    let mut sb = b_state.clone();
    let mut gen = PacketGen::new(seed);
    let mut agreements = 0;
    let mut divergences = Vec::new();
    for trial in 0..trials {
        let pkt = gen.next_packet();
        let ra = sa.step(a, &pkt).map_err(|e| format!("A, trial {trial}: {e}"))?;
        let rb = sb.step(b, &pkt).map_err(|e| format!("B, trial {trial}: {e}"))?;
        if ra.output == rb.output {
            agreements += 1;
        } else if divergences.len() < 16 {
            divergences.push(Divergence {
                trial,
                packet: pkt,
                a_output: ra.output,
                b_output: rb.output,
                aspect: "output",
            });
        }
    }
    Ok(DiffReport {
        trials,
        agreements,
        divergences,
    })
}

/// Equivalence mode for the compiled backend: lower `model` through
/// `nf-compile` and check the decision-tree engine against the
/// reference evaluator with [`program_vs_model`].
pub fn compiled_vs_model(
    model: &Model,
    state: &ModelState,
    seed: u64,
    trials: usize,
) -> Result<DiffReport, String> {
    let prog = nf_compile::compile(model, state).map_err(|e| e.to_string())?;
    program_vs_model(&prog, model, state, seed, trials)
}

/// Drive the compiled program `prog` against the reference evaluator
/// running `model` on the same seeded stream, both from `state`, and
/// diff what the compiled contract promises: after every packet, the
/// output, the fired entry and the post-state (the compiled state's
/// store against the model's, compared by name).
///
/// The contract is one-sided — the compiled engine is only pinned
/// where the reference evaluator succeeds. Trials on which the
/// reference itself errors (e.g. a match literal reading a missing
/// transport layer with no guarding literal before it) are counted as
/// vacuous agreements, and the compiled engine skips them too; a
/// compiled-side error on a reference-success trial is a hard error.
pub fn program_vs_model(
    prog: &CompiledProgram,
    model: &Model,
    state: &ModelState,
    seed: u64,
    trials: usize,
) -> Result<DiffReport, String> {
    let mut cs = CompiledState::new(prog);
    let mut ms = state.clone();
    let mut gen = PacketGen::new(seed);
    let mut agreements = 0;
    let mut divergences = Vec::new();
    for trial in 0..trials {
        let pkt = gen.next_packet();
        let Ok(want) = ms.step(model, &pkt) else {
            agreements += 1;
            continue;
        };
        let got = cs
            .step(prog, &pkt)
            .map_err(|e| format!("compiled, trial {trial}: {e}"))?;
        let aspect = if got.output != want.output {
            "output"
        } else if got.fired != want.fired {
            "fired entry"
        } else if cs.store != ms {
            "post-state"
        } else {
            agreements += 1;
            continue;
        };
        if divergences.len() < 16 {
            divergences.push(Divergence {
                trial,
                packet: pkt,
                a_output: want.output,
                b_output: got.output,
                aspect,
            });
        }
    }
    Ok(DiffReport {
        trials,
        agreements,
        divergences,
    })
}

fn pkt_var(field: Field) -> SymVal {
    SymVal::Var(format!("pkt.{}", field.path()))
}

fn cfg(name: &str) -> SymVal {
    SymVal::Var(format!("cfg:{name}"))
}

fn st(name: &str) -> SymVal {
    SymVal::Var(format!("st:{name}"))
}

fn eq(a: SymVal, b: SymVal) -> SymVal {
    SymVal::Bin(BinOp::Eq, Box::new(a), Box::new(b))
}

/// The hand-written, Joseph–Stoica-style model of the Figure 1 load
/// balancer — the kind of model §2.2 critiques: it describes round-robin
/// selection and the NAT translations, but has **no notion of the `mode`
/// configuration**, silently assuming RR. Diffing it against the
/// NFactor-synthesized model under `mode = HASH` exposes the gap.
pub fn manual_lb_model() -> Model {
    let four_tuple = SymVal::Tuple(vec![
        pkt_var(Field::IpSrc),
        pkt_var(Field::TcpSport),
        pkt_var(Field::IpDst),
        pkt_var(Field::TcpDport),
    ]);
    let servers = cfg("servers");
    let chosen = SymVal::ArrayGet(Box::new(servers.clone()), Box::new(st("rr_idx")));
    let nat_value = SymVal::Tuple(vec![
        cfg("LB_IP"),
        st("cur_port"),
        SymVal::Proj(Box::new(chosen.clone()), 0),
        SymVal::Proj(Box::new(chosen.clone()), 1),
    ]);
    // Entry 1: new inbound flow — ALWAYS round robin (the manual model's
    // blind spot).
    let new_flow = Entry {
        flow_match: vec![eq(pkt_var(Field::TcpDport), cfg("LB_PORT"))],
        state_match: vec![SymVal::negate(SymVal::MapContains(
            "f2b_nat".into(),
            Box::new(four_tuple.clone()),
        ))],
        flow_action: FlowAction::Forward {
            rewrites: vec![
                (Field::IpSrc, cfg("LB_IP")),
                (Field::TcpSport, st("cur_port")),
                (
                    Field::IpDst,
                    SymVal::Proj(Box::new(chosen.clone()), 0),
                ),
                (
                    Field::TcpDport,
                    SymVal::Proj(Box::new(chosen.clone()), 1),
                ),
            ],
        },
        state_action: StateAction {
            updates: vec![
                (
                    "rr_idx".into(),
                    SymVal::Bin(
                        BinOp::Mod,
                        Box::new(SymVal::Bin(
                            BinOp::Add,
                            Box::new(st("rr_idx")),
                            Box::new(SymVal::Int(1)),
                        )),
                        Box::new(SymVal::Int(2)),
                    ),
                ),
                (
                    "cur_port".into(),
                    SymVal::Bin(
                        BinOp::Add,
                        Box::new(st("cur_port")),
                        Box::new(SymVal::Int(1)),
                    ),
                ),
            ],
            map_ops: vec![
                MapOp::Insert {
                    map: "f2b_nat".into(),
                    key: four_tuple.clone(),
                    value: nat_value.clone(),
                },
                MapOp::Insert {
                    map: "b2f_nat".into(),
                    key: SymVal::Tuple(vec![
                        SymVal::Proj(Box::new(chosen.clone()), 0),
                        SymVal::Proj(Box::new(chosen), 1),
                        cfg("LB_IP"),
                        st("cur_port"),
                    ]),
                    value: SymVal::Tuple(vec![
                        pkt_var(Field::IpDst),
                        pkt_var(Field::TcpDport),
                        pkt_var(Field::IpSrc),
                        pkt_var(Field::TcpSport),
                    ]),
                },
            ],
        },
        truncated: false,
    };
    // Entry 2: existing inbound flow — translate via f2b_nat.
    let nat_lookup = SymVal::MapGet("f2b_nat".into(), Box::new(four_tuple.clone()));
    let existing_flow = Entry {
        flow_match: vec![eq(pkt_var(Field::TcpDport), cfg("LB_PORT"))],
        state_match: vec![SymVal::MapContains(
            "f2b_nat".into(),
            Box::new(four_tuple.clone()),
        )],
        flow_action: FlowAction::Forward {
            rewrites: vec![
                (Field::IpSrc, SymVal::proj(nat_lookup.clone(), 0)),
                (Field::TcpSport, SymVal::proj(nat_lookup.clone(), 1)),
                (Field::IpDst, SymVal::proj(nat_lookup.clone(), 2)),
                (Field::TcpDport, SymVal::proj(nat_lookup, 3)),
            ],
        },
        state_action: StateAction::default(),
        truncated: false,
    };
    // Entry 3: reverse direction via b2f_nat.
    let rev_lookup = SymVal::MapGet("b2f_nat".into(), Box::new(four_tuple.clone()));
    let reverse = Entry {
        flow_match: vec![SymVal::Bin(
            BinOp::Ne,
            Box::new(pkt_var(Field::TcpDport)),
            Box::new(cfg("LB_PORT")),
        )],
        state_match: vec![SymVal::MapContains(
            "b2f_nat".into(),
            Box::new(four_tuple),
        )],
        flow_action: FlowAction::Forward {
            rewrites: vec![
                (Field::IpSrc, SymVal::proj(rev_lookup.clone(), 0)),
                (Field::TcpSport, SymVal::proj(rev_lookup.clone(), 1)),
                (Field::IpDst, SymVal::proj(rev_lookup.clone(), 2)),
                (Field::TcpDport, SymVal::proj(rev_lookup, 3)),
            ],
        },
        state_action: StateAction::default(),
        truncated: false,
    };
    Model {
        nf_name: "manual-lb (Joseph-Stoica style)".into(),
        tables: vec![ConfigTable {
            config: vec![], // no mode awareness — the point
            entries: vec![new_flow, existing_flow, reverse],
        }],
        completeness: nf_model::Completeness::Full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_compile::{CExpr, CFlowAction};
    use nfactor_core::accuracy::initial_model_state;
    use nfactor_core::Pipeline;
    use nfl_interp::{Interp, Value};

    fn lb_synthesis() -> nfactor_core::Synthesis {
        Pipeline::builder()
            .name("fig1-lb")
            .build()
            .unwrap()
            .synthesize(&nf_corpus::fig1_lb::source())
        .unwrap()
    }

    #[test]
    fn manual_model_matches_in_rr_mode() {
        // Under the configuration the manual author assumed (mode = RR),
        // the hand model and the synthesized model agree.
        let syn = lb_synthesis();
        let interp = Interp::new(&syn.nf_loop).unwrap();
        let state = initial_model_state(&syn, &interp);
        let report = behavioural_diff(
            &syn.model,
            &state,
            &manual_lb_model(),
            &state,
            5,
            400,
        )
        .unwrap();
        assert!(report.equivalent(), "{report}");
    }

    #[test]
    fn manual_model_diverges_in_hash_mode() {
        // §2.2: the manual model "fail[s] to capture this detail" — flip
        // the mode config and the diff exposes it.
        let syn = lb_synthesis();
        let interp = Interp::new(&syn.nf_loop).unwrap();
        let mut state = initial_model_state(&syn, &interp);
        state.configs.insert("mode".into(), Value::Int(0)); // HASH
        let report = behavioural_diff(
            &syn.model,
            &state,
            &manual_lb_model(),
            &state,
            5,
            400,
        )
        .unwrap();
        assert!(
            !report.equivalent(),
            "the mode-blind manual model must diverge under hash mode"
        );
        // The divergence is in backend selection (different ip.dst), not
        // in whether the packet forwards.
        let d = &report.divergences[0];
        assert!(d.a_output.is_some() && d.b_output.is_some(), "{report}");
    }

    #[test]
    fn compiled_engine_equivalent_to_model() {
        // The compiled decision-tree engine is behaviourally identical
        // to the model it was lowered from — on the LB, whose model
        // exercises tuples, array indexing, map NAT state and the
        // mode config table.
        let syn = lb_synthesis();
        let interp = Interp::new(&syn.nf_loop).unwrap();
        let state = initial_model_state(&syn, &interp);
        let report = compiled_vs_model(&syn.model, &state, 11, 500).unwrap();
        assert!(report.equivalent(), "{report}");
        assert_eq!(report.trials, 500);
    }

    #[test]
    fn compiled_engine_tracks_its_model_where_the_manual_model_diverges() {
        // Diff the *manual* hand model against the synthesized one under
        // hash mode, where they diverge, and the synthesized model
        // against its own compiled lowering on the same stream.
        let syn = lb_synthesis();
        let interp = Interp::new(&syn.nf_loop).unwrap();
        let mut state = initial_model_state(&syn, &interp);
        state.configs.insert("mode".into(), Value::Int(0)); // HASH
        let a = behavioural_diff(
            &syn.model,
            &state,
            &manual_lb_model(),
            &state,
            5,
            400,
        )
        .unwrap();
        let b = compiled_vs_model(&syn.model, &state, 5, 400).unwrap();
        // The compiled engine tracks its own model even where the
        // manual model diverges from it.
        assert!(!a.equivalent());
        assert!(b.equivalent(), "{b}");
    }

    /// The LB's compiled program, its model and initial state.
    fn lb_program() -> (CompiledProgram, Model, ModelState) {
        let syn = lb_synthesis();
        let interp = Interp::new(&syn.nf_loop).unwrap();
        let state = initial_model_state(&syn, &interp);
        let prog = nf_compile::compile(&syn.model, &state).unwrap();
        (prog, syn.model, state)
    }

    #[test]
    fn program_vs_model_reports_an_edited_update() {
        // Negative control: `cur_port := cur_port + 1` becomes
        // `cur_port + 2`. On the first new flow the output is still
        // right (rewrites read the pre-state), so only the post-state
        // check can catch it there.
        let (mut prog, model, state) = lb_program();
        let step = prog
            .entries
            .iter_mut()
            .flat_map(|e| e.updates.iter_mut())
            .find_map(|(_, t)| match t {
                CExpr::Bin(BinOp::Add, _, c) if c.as_const_int() == Some(1) => Some(c),
                _ => None,
            })
            .expect("the LB increments cur_port");
        **step = CExpr::Const(Value::Int(2));
        let report = program_vs_model(&prog, &model, &state, 11, 500).unwrap();
        assert!(!report.equivalent(), "{report}");
        let first = &report.divergences[0];
        assert_eq!(first.aspect, "post-state", "{report}");
        assert_eq!(first.a_output, first.b_output, "{report}");
    }

    #[test]
    fn program_vs_model_reports_an_edited_rewrite() {
        // Negative control: the first `ip.src` rewrite writes 0. That
        // changes outputs only; no state is written differently.
        let (mut prog, model, state) = lb_program();
        let rewrite = prog
            .entries
            .iter_mut()
            .find_map(|e| match &mut e.flow_action {
                CFlowAction::Forward { rewrites } => {
                    rewrites.iter_mut().find(|(f, _)| *f == Field::IpSrc)
                }
                CFlowAction::Drop => None,
            })
            .expect("the LB rewrites ip.src");
        rewrite.1 = CExpr::Const(Value::Int(0));
        let report = program_vs_model(&prog, &model, &state, 11, 500).unwrap();
        assert!(!report.equivalent(), "{report}");
        assert!(
            report.divergences.iter().all(|d| d.aspect == "output"),
            "{report}"
        );
    }

    #[test]
    fn diff_is_deterministic() {
        let syn = lb_synthesis();
        let interp = Interp::new(&syn.nf_loop).unwrap();
        let state = initial_model_state(&syn, &interp);
        let a = behavioural_diff(&syn.model, &state, &manual_lb_model(), &state, 9, 200)
            .unwrap();
        let b = behavioural_diff(&syn.model, &state, &manual_lb_model(), &state, 9, 200)
            .unwrap();
        assert_eq!(a.agreements, b.agreements);
    }
}
