//! The finite-state-machine view of a model.
//!
//! §2.4: *"The state transition logic can be used to build a finite state
//! machine, which is proposed and used in network testing solutions
//! \[BUZZ\]."* Each distinct state-match condition becomes an FSM node;
//! each entry contributes a transition from its state-match node, guarded
//! by its flow match and performing its state action. BUZZ-style test
//! generation walks these transitions and asks the solver for packets
//! that drive the NF along them (implemented in `nf-verify`).

use crate::model::{Entry, Model};
use nfl_symex::SymVal;

/// One transition of the model FSM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Which `(table, entry)` this transition came from.
    pub source: (usize, usize),
    /// The state condition under which it fires (FSM node label).
    pub from_state: String,
    /// The packet condition that triggers it.
    pub guard: Vec<SymVal>,
    /// Human-readable description of the state action ("identity" for
    /// stateless entries).
    pub effect: String,
    /// Whether the packet is forwarded.
    pub forwards: bool,
}

/// The FSM extracted from a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelFsm {
    /// Node labels (canonical state-match strings; "⊤" for entries with
    /// no state condition).
    pub states: Vec<String>,
    /// All transitions.
    pub transitions: Vec<Transition>,
    /// Truncation reason when the source model was budget-truncated —
    /// an FSM missing transitions must say so.
    pub truncated: Option<String>,
}

fn state_label(e: &Entry) -> String {
    if e.state_match.is_empty() {
        "⊤".to_string()
    } else {
        let mut parts: Vec<String> = e.state_match.iter().map(|l| l.to_string()).collect();
        parts.sort();
        parts.join(" && ")
    }
}

fn effect_label(e: &Entry) -> String {
    if e.state_action.is_identity() {
        return "identity".to_string();
    }
    let mut parts: Vec<String> = e
        .state_action
        .updates
        .iter()
        .map(|(n, v)| format!("{n}:={v}"))
        .collect();
    parts.extend(e.state_action.map_ops.iter().map(|m| m.to_string()));
    parts.join("; ")
}

impl ModelFsm {
    /// Extract the FSM from a model.
    pub fn from_model(model: &Model) -> ModelFsm {
        let mut states: Vec<String> = Vec::new();
        let mut transitions = Vec::new();
        for (ti, table) in model.tables.iter().enumerate() {
            for (ei, e) in table.entries.iter().enumerate() {
                let label = state_label(e);
                if !states.contains(&label) {
                    states.push(label.clone());
                }
                transitions.push(Transition {
                    source: (ti, ei),
                    from_state: label,
                    guard: e.flow_match.clone(),
                    effect: effect_label(e),
                    forwards: !e.flow_action.is_drop(),
                });
            }
        }
        ModelFsm {
            states,
            transitions,
            truncated: model.completeness.reason().map(str::to_string),
        }
    }

    /// Transitions that mutate state (the interesting edges for test
    /// generation — they move the NF between abstract states).
    pub fn mutating_transitions(&self) -> impl Iterator<Item = &Transition> {
        self.transitions.iter().filter(|t| t.effect != "identity")
    }

    /// Render as Graphviz dot (for documentation and debugging).
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph nf_fsm {\n  rankdir=LR;\n");
        if let Some(reason) = &self.truncated {
            out.push_str(&format!(
                "  label=\"PARTIAL MODEL — {}\";\n  labelloc=t;\n",
                escape(reason)
            ));
        }
        for (i, s) in self.states.iter().enumerate() {
            out.push_str(&format!("  s{i} [label=\"{}\"];\n", escape(s)));
        }
        for t in &self.transitions {
            let from = self
                .states
                .iter()
                .position(|s| *s == t.from_state)
                .unwrap_or(0);
            let guard: Vec<String> = t.guard.iter().map(|g| g.to_string()).collect();
            let label = format!(
                "{} / {}{}",
                guard.join(" && "),
                t.effect,
                if t.forwards { " [fwd]" } else { " [drop]" }
            );
            // Self-edge unless the effect plausibly changes the state
            // condition; without SMT-level reasoning we draw effect edges
            // back to the same node annotated with the effect.
            out.push_str(&format!(
                "  s{from} -> s{from} [label=\"{}\"];\n",
                escape(&label)
            ));
        }
        out.push_str("}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use nfl_analysis::normalize::normalize;
    use nfl_lang::parse_and_check;
    use nfl_symex::SymExec;

    fn fsm_of(src: &str) -> ModelFsm {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl).explore().unwrap();
        ModelFsm::from_model(&Model::from_paths("t", &stats.paths))
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
    fn truncated_model_surfaces_in_dot() {
        let p = parse_and_check(NAT).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl).explore().unwrap();
        let model =
            Model::from_paths("t", &stats.paths).with_truncation("path budget exhausted (4 paths)");
        let fsm = ModelFsm::from_model(&model);
        assert_eq!(
            fsm.truncated.as_deref(),
            Some("path budget exhausted (4 paths)")
        );
        let dot = fsm.to_dot();
        assert!(dot.contains("PARTIAL MODEL"), "{dot}");
        // A full model's dot carries no banner.
        let full = ModelFsm::from_model(&Model::from_paths("t", &stats.paths));
        assert!(full.truncated.is_none());
        assert!(!full.to_dot().contains("PARTIAL"));
    }

    #[test]
    fn nat_fsm_has_two_states_one_mutating() {
        let fsm = fsm_of(NAT);
        // "k not in nat" and "k in nat" are the two abstract states.
        assert_eq!(fsm.states.len(), 2, "{:?}", fsm.states);
        assert_eq!(fsm.transitions.len(), 2);
        let mutating: Vec<_> = fsm.mutating_transitions().collect();
        assert_eq!(mutating.len(), 1, "only the install transition mutates");
        assert!(mutating[0].effect.contains("nat["));
        assert!(mutating[0].forwards);
    }

    #[test]
    fn stateless_nf_single_top_state() {
        let fsm = fsm_of(
            r#"
            fn cb(pkt: packet) { if pkt.ip.ttl > 1 { send(pkt); } }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(fsm.states, vec!["⊤".to_string()]);
        assert_eq!(fsm.mutating_transitions().count(), 0);
        // One forwarding, one dropping transition.
        assert_eq!(fsm.transitions.iter().filter(|t| t.forwards).count(), 1);
        assert_eq!(fsm.transitions.iter().filter(|t| !t.forwards).count(), 1);
    }

    #[test]
    fn dot_output_well_formed() {
        let fsm = fsm_of(NAT);
        let dot = fsm.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("->"));
        assert!(dot.ends_with("}\n"));
    }
}
