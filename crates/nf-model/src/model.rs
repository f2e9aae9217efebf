//! The model data structure and its construction from execution paths.
//!
//! Algorithm 1, lines 11–16:
//!
//! ```text
//! for p in execPaths:
//!     cndStmts := GetConditionStatements(p)
//!     config  := cndStmts ∩ cfgVars
//!     match   := (cndStmts ∩ pktVars, cndStmts ∩ oisVars)
//!     action  := (p ∩ pktSlice, p ∩ stateSlice)
//!     table[config].add(⟨match, action⟩)
//! ```
//!
//! In our symbolic setting `cndStmts` is the path condition; the
//! intersections become a *partition of the condition literals by the
//! variables they mention*, which the term language types
//! ([`SymVal::mentions`]): literals over configuration variables
//! ([`SymVal::Cfg`]) only select the table; literals mentioning packet
//! fields ([`SymVal::Pkt`], or the packet's length) form the flow match;
//! literals touching state scalars ([`SymVal::St`]) or state maps form
//! the state match.

use nf_packet::Field;
use nfl_symex::{MapOp, Path, SymVal};

/// What happens to the packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowAction {
    /// Forward, applying the header rewrites in order.
    Forward {
        /// `(field, new value term)` rewrites.
        rewrites: Vec<(Field, SymVal)>,
    },
    /// Drop the packet (the default action of §3.2).
    Drop,
}

impl FlowAction {
    /// Is this a drop?
    pub fn is_drop(&self) -> bool {
        matches!(self, FlowAction::Drop)
    }
}

/// What happens to the NF's state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateAction {
    /// New symbolic values for scalar state variables.
    pub updates: Vec<(String, SymVal)>,
    /// Map insertions / removals in order.
    pub map_ops: Vec<MapOp>,
}

impl StateAction {
    /// True when the entry transitions no state ("*" in Figure 6's hash
    /// row).
    pub fn is_identity(&self) -> bool {
        self.updates.is_empty() && self.map_ops.is_empty()
    }
}

/// One `⟨match, action⟩` row of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Conjunction of literals over packet fields (possibly referencing
    /// configs, e.g. `pkt.tcp.dport == cfg:LB_PORT`).
    pub flow_match: Vec<SymVal>,
    /// Conjunction of literals over state scalars / maps.
    pub state_match: Vec<SymVal>,
    /// Packet action.
    pub flow_action: FlowAction,
    /// State transition.
    pub state_action: StateAction,
    /// Whether the source path hit the loop bound (diagnostic).
    pub truncated: bool,
}

impl Entry {
    /// Build an entry from one symbolic path, partitioning its condition.
    pub fn from_path(path: &Path) -> (Vec<SymVal>, Entry) {
        let mut config = Vec::new();
        let mut flow_match = Vec::new();
        let mut state_match = Vec::new();
        for lit in &path.constraints {
            let m = lit.mentions();
            // State first: a membership predicate like
            // `(f.src, f.sport) in nat` spans flow *and* state — the
            // paper's `P(f, s)` — and belongs to the state side of the
            // match.
            if m.state {
                state_match.push(lit.clone());
            } else if m.pkt {
                flow_match.push(lit.clone());
            } else if m.cfg {
                config.push(lit.clone());
            } else {
                // Constant-only literal (shouldn't survive folding) —
                // keep with the flow match for completeness.
                flow_match.push(lit.clone());
            }
        }
        let flow_action = match path.outputs.first() {
            Some(p) => FlowAction::Forward {
                rewrites: p.rewrites(),
            },
            None => FlowAction::Drop,
        };
        let entry = Entry {
            flow_match,
            state_match,
            flow_action,
            state_action: StateAction {
                updates: path
                    .state_updates
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
                map_ops: path.map_ops.clone(),
            },
            truncated: path.truncated,
        };
        (config, entry)
    }
}

/// All entries sharing one configuration condition (one table of
/// Figure 2a, e.g. `c1: mode = RR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigTable {
    /// The configuration literals selecting this table (empty = the NF
    /// has a single unconditional table).
    pub config: Vec<SymVal>,
    /// Match/action rows.
    pub entries: Vec<Entry>,
}

impl ConfigTable {
    /// Canonical key of the config condition, for grouping.
    fn key(config: &[SymVal]) -> String {
        let mut parts: Vec<String> = config.iter().map(|c| c.to_string()).collect();
        parts.sort();
        parts.join(" && ")
    }
}

/// Is the model the *complete* behaviour of the NF, or a partial view
/// produced under an exhausted [budget](nf_support::budget::Budget)?
///
/// A `Truncated` model is still a valid model of every path it does
/// contain — the paper's Table 2 reports the un-sliced snort exploration
/// as "> 1000 paths" for exactly this case — but consumers (operators,
/// verifiers, the §4 applications) must not treat its default-drop as
/// authoritative.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Completeness {
    /// Every execution path of the (sliced) NF is represented.
    #[default]
    Full,
    /// Exploration or slicing was cut short by a budget; some behaviour
    /// is missing.
    Truncated {
        /// Human-readable cause (deadline, path cap, solver-call cap…).
        reason: String,
    },
}

impl Completeness {
    /// Is this the truncated case?
    pub fn is_truncated(&self) -> bool {
        matches!(self, Completeness::Truncated { .. })
    }

    /// The truncation reason, if any.
    pub fn reason(&self) -> Option<&str> {
        match self {
            Completeness::Full => None,
            Completeness::Truncated { reason } => Some(reason),
        }
    }
}

/// A synthesized NF forwarding model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    /// Name of the NF the model was extracted from.
    pub nf_name: String,
    /// Per-configuration tables.
    pub tables: Vec<ConfigTable>,
    /// Whether the model covers every path or was budget-truncated.
    pub completeness: Completeness,
}

impl Model {
    /// Build a model from symbolic execution paths (Algorithm 1 lines
    /// 11–16). Paths are grouped into tables by their configuration
    /// condition.
    pub fn from_paths(nf_name: &str, paths: &[Path]) -> Model {
        let mut tables: Vec<ConfigTable> = Vec::new();
        for p in paths {
            let (config, entry) = Entry::from_path(p);
            let key = ConfigTable::key(&config);
            match tables
                .iter_mut()
                .find(|t| ConfigTable::key(&t.config) == key)
            {
                Some(t) => t.entries.push(entry),
                None => tables.push(ConfigTable {
                    config,
                    entries: vec![entry],
                }),
            }
        }
        // Deterministic order: by config key.
        tables.sort_by_key(|t| ConfigTable::key(&t.config));
        Model {
            nf_name: nf_name.to_string(),
            tables,
            completeness: Completeness::Full,
        }
    }

    /// Stamp the model as budget-truncated (graceful-degradation path).
    pub fn with_truncation(mut self, reason: impl Into<String>) -> Model {
        self.completeness = Completeness::Truncated {
            reason: reason.into(),
        };
        self
    }

    /// Total number of entries across tables.
    pub fn entry_count(&self) -> usize {
        self.tables.iter().map(|t| t.entries.len()).sum()
    }

    /// All non-drop entries.
    pub fn forward_entries(&self) -> impl Iterator<Item = &Entry> {
        self.tables
            .iter()
            .flat_map(|t| &t.entries)
            .filter(|e| !e.flow_action.is_drop())
    }

    /// Names of state maps the model touches.
    pub fn state_maps(&self) -> Vec<String> {
        let mut names = Vec::new();
        for t in &self.tables {
            for e in &t.entries {
                for op in &e.state_action.map_ops {
                    let n = match op {
                        MapOp::Insert { map, .. } | MapOp::Remove { map, .. } => map.clone(),
                    };
                    if !names.contains(&n) {
                        names.push(n);
                    }
                }
                for lit in &e.state_match {
                    lit.walk(&mut |v| {
                        if let SymVal::MapGet(m, _) | SymVal::MapContains(m, _) = v {
                            if !names.contains(m) {
                                names.push(m.clone());
                            }
                        }
                    });
                }
            }
        }
        names
    }

    /// Names of scalar state variables the model reads or writes.
    pub fn state_scalars(&self) -> Vec<String> {
        let mut names = Vec::new();
        for t in &self.tables {
            for e in &t.entries {
                for (n, _) in &e.state_action.updates {
                    if !names.contains(n) {
                        names.push(n.clone());
                    }
                }
            }
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_analysis::normalize::normalize;
    use nfl_lang::{parse_and_check, BinOp};
    use nfl_symex::SymExec;

    fn model_of(src: &str) -> Model {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl).explore().unwrap();
        Model::from_paths("test-nf", &stats.paths)
    }

    const MODE_NF: &str = r#"
        const RR = 1;
        config mode = 1;
        config servers = [(1.1.1.1, 80), (2.2.2.2, 80)];
        state idx = 0;
        fn cb(pkt: packet) {
            let server = (0, 0);
            if mode == RR {
                server = servers[idx];
                idx = (idx + 1) % len(servers);
            } else {
                server = servers[hash(pkt.ip.src) % len(servers)];
            }
            pkt.ip.dst = server[0];
            pkt.tcp.dport = server[1];
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#;

    #[test]
    fn per_config_tables_like_figure6() {
        let m = model_of(MODE_NF);
        assert_eq!(m.tables.len(), 2, "one table per mode");
        // The RR table transitions idx; the hash table is stateless.
        let rr = m
            .tables
            .iter()
            .find(|t| t.config.iter().any(|c| c.to_string() == "(cfg:mode == 1)"))
            .expect("RR table");
        assert_eq!(rr.entries.len(), 1);
        assert!(!rr.entries[0].state_action.is_identity());
        assert_eq!(
            rr.entries[0].state_action.updates[0].1.to_string(),
            "((st:idx + 1) % 2)"
        );
        let hash = m
            .tables
            .iter()
            .find(|t| t.config.iter().any(|c| c.to_string() == "(cfg:mode != 1)"))
            .expect("hash table");
        assert!(
            hash.entries[0].state_action.is_identity(),
            "'*' in Figure 6"
        );
    }

    #[test]
    fn condition_partition() {
        let m = model_of(
            r#"
            config PORT = 80;
            state seen = map();
            fn cb(pkt: packet) {
                if pkt.tcp.dport == PORT {
                    if pkt.ip.src in seen {
                        send(pkt);
                    }
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        // The dport literal mentions pkt → flow match even though it also
        // references a config; the membership literal → state match.
        let fwd: Vec<&Entry> = m.forward_entries().collect();
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].flow_match.len(), 1);
        assert!(fwd[0].flow_match[0].to_string().contains("pkt.tcp.dport"));
        assert_eq!(fwd[0].state_match.len(), 1);
        assert!(fwd[0].state_match[0].to_string().contains("in seen"));
    }

    /// A literal over `len(pkt)` and a config is a flow literal: the
    /// packet's length counts as a packet mention though no field names it.
    #[test]
    fn packet_length_literals_join_the_flow_match() {
        let lits = [
            SymVal::bin(BinOp::Gt, SymVal::pkt_len(), SymVal::Cfg("MTU".into())),
            SymVal::bin(BinOp::Eq, SymVal::Cfg("mode".into()), SymVal::Int(1)),
            SymVal::bin(
                BinOp::Lt,
                SymVal::St("idx".into()),
                SymVal::Pkt(Field::IpTtl),
            ),
            SymVal::bin(BinOp::Ne, SymVal::map_len("nat"), SymVal::Int(0)),
        ];
        let path = Path {
            constraints: lits.to_vec(),
            decisions: Vec::new(),
            outputs: Vec::new(),
            state_updates: Default::default(),
            map_ops: Vec::new(),
            executed: Default::default(),
            truncated: false,
        };
        let (config, entry) = Entry::from_path(&path);
        assert_eq!(config, vec![lits[1].clone()]);
        assert_eq!(entry.flow_match, vec![lits[0].clone(), lits[3].clone()]);
        assert_eq!(entry.state_match, vec![lits[2].clone()]);
    }

    #[test]
    fn default_drop_entries_present() {
        let m = model_of(
            r#"
            fn cb(pkt: packet) {
                if pkt.ip.ttl > 1 { send(pkt); }
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(m.entry_count(), 2);
        let drops: Vec<_> = m
            .tables
            .iter()
            .flat_map(|t| &t.entries)
            .filter(|e| e.flow_action.is_drop())
            .collect();
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].flow_match[0].to_string(), "(pkt.ip.ttl <= 1)");
    }

    #[test]
    fn state_maps_and_scalars_discovered() {
        let m = model_of(
            r#"
            state nat = map();
            state counter = 0;
            fn cb(pkt: packet) {
                let k = pkt.ip.src;
                if k not in nat {
                    nat[k] = 1;
                    counter = counter + 1;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(m.state_maps(), vec!["nat".to_string()]);
        assert_eq!(m.state_scalars(), vec!["counter".to_string()]);
    }

    #[test]
    fn model_equality_is_structural() {
        let m = model_of(MODE_NF);
        let m2 = model_of(MODE_NF);
        assert_eq!(m, m2, "same program, same model");
    }
}
