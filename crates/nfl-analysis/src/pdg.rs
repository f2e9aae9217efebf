//! The program dependence graph (PDG).
//!
//! Nodes are the CFG's nodes; edges are data dependences (from
//! [`crate::reach`]) plus control dependences (from [`crate::cd`]).
//! A backward slice is backward reachability over this graph from a
//! criterion — exactly `BackwardSlice(stmt, vars)` in the paper's
//! Algorithm 1 (the slicer crate adds the variable-restriction layer).
//!
//! The edges are built one target node at a time and stored grouped by
//! target, so a node's dependences are one contiguous run of
//! [`Pdg::edges`].

use crate::cd::control_deps;
use crate::cfg::{build_cfg, Cfg, NodeId};
use crate::reach::{reaching_definitions, Reaching, VarId};
use nfl_lang::{Program, StmtId};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Why one node depends on another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepKind {
    /// `to` reads a variable defined at `from` (its id in the PDG's
    /// [`Reaching`] name table).
    Data(VarId),
    /// `to` executes (or not) according to the branch at `from`.
    Control,
}

/// A dependence edge `from → to` (`to` depends on `from`).
#[derive(Debug, Clone)]
pub struct DepEdge {
    /// The definition / branch node.
    pub from: NodeId,
    /// The dependent node.
    pub to: NodeId,
    /// The dependence kind.
    pub kind: DepKind,
}

/// A function's program dependence graph, with its underlying CFG and
/// reaching-definitions solution (reused by the slicer and StateAlyzer).
#[derive(Debug, Clone)]
pub struct Pdg {
    /// The function's CFG.
    pub cfg: Cfg,
    /// All dependence edges, grouped by target node in node order.
    pub edges: Vec<DepEdge>,
    /// Where each target's group starts: the edges arriving at node `n`
    /// are `edges[incoming[n]..incoming[n + 1]]`.
    incoming: Vec<usize>,
    /// The reaching-definitions solution.
    pub reaching: Reaching,
}

impl Pdg {
    /// Build the PDG of `func` in `program`. `boundary_vars` are treated
    /// as defined at function entry (parameters, configs, states, consts).
    pub fn build(program: &Program, func: &str, boundary_vars: &BTreeSet<String>) -> Pdg {
        let f = program
            .function(func)
            .unwrap_or_else(|| panic!("no function `{func}`"));
        let cfg = build_cfg(f);
        let reaching = reaching_definitions(program, &cfg, boundary_vars);
        // Persistent state flows across packets through the implicit
        // packet loop (Figure 1: the NAT entry installed for a flow's
        // first packet serves its later packets).
        let persistent = reaching.var_mask(
            program
                .consts
                .iter()
                .chain(&program.configs)
                .chain(&program.states)
                .map(|i| i.name.as_str()),
        );
        // Per target: its data dependences, then its control ones.
        let cd = control_deps(&cfg);
        let mut edges = Vec::new();
        let mut incoming = Vec::with_capacity(cfg.len() + 1);
        incoming.push(0);
        for (to, branches) in cd.deps.iter().enumerate() {
            reaching.data_deps_of(to, &persistent, |from, var| {
                edges.push(DepEdge {
                    from,
                    to,
                    kind: DepKind::Data(var),
                })
            });
            edges.extend(branches.iter().map(|&from| DepEdge {
                from,
                to,
                kind: DepKind::Control,
            }));
            incoming.push(edges.len());
        }
        Pdg {
            cfg,
            edges,
            incoming,
            reaching,
        }
    }

    /// Backward reachability from `seeds` over dependence edges; returns
    /// all nodes the criterion transitively depends on (seeds included).
    pub fn backward_reachable(&self, seeds: impl IntoIterator<Item = NodeId>) -> HashSet<NodeId> {
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        for s in seeds {
            if seen.insert(s) {
                queue.push_back(s);
            }
        }
        while let Some(n) = queue.pop_front() {
            for e in self.edges_into(n) {
                if seen.insert(e.from) {
                    queue.push_back(e.from);
                }
            }
        }
        seen
    }

    /// Translate a node set into the statement ids it covers.
    pub fn stmts_of(&self, nodes: &HashSet<NodeId>) -> HashSet<StmtId> {
        nodes
            .iter()
            .filter_map(|&n| self.cfg.nodes[n].stmt)
            .collect()
    }

    /// The CFG node of a statement, if it has one.
    pub fn node_of(&self, stmt: StmtId) -> Option<NodeId> {
        self.cfg.stmt_node.get(&stmt).copied()
    }

    /// Dependence sources of `node` as `(from, kind)` pairs: first the
    /// definitions of each variable it uses that reach it, then the other
    /// definitions of each persistent one it uses (the implicit packet
    /// loop), then the branches it is control dependent on.
    pub fn deps_of(&self, node: NodeId) -> Vec<(NodeId, &DepKind)> {
        self.edges_into(node)
            .iter()
            .map(|e| (e.from, &e.kind))
            .collect()
    }

    /// The edges arriving at `node`.
    fn edges_into(&self, node: NodeId) -> &[DepEdge] {
        &self.edges[self.incoming[node]..self.incoming[node + 1]]
    }
}

/// Compute the default boundary variable set for a program: all consts,
/// configs, states, plus the parameters of `func`.
pub fn default_boundary(program: &Program, func: &str) -> BTreeSet<String> {
    let mut b: BTreeSet<String> = BTreeSet::new();
    for it in program
        .consts
        .iter()
        .chain(&program.configs)
        .chain(&program.states)
    {
        b.insert(it.name.clone());
    }
    if let Some(f) = program.function(func) {
        for (p, _) in &f.params {
            b.insert(p.clone());
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_lang::{parse, StmtKind};

    fn pdg_of(src: &str) -> (nfl_lang::Program, Pdg) {
        let p = parse(src).unwrap();
        let b = default_boundary(&p, "main");
        let pdg = Pdg::build(&p, "main", &b);
        (p, pdg)
    }

    fn node_named(p: &nfl_lang::Program, pdg: &Pdg, name: &str) -> NodeId {
        let mut out = None;
        p.for_each_stmt(|s| {
            if let StmtKind::Let { name: n, .. } = &s.kind {
                if n == name {
                    out = Some(pdg.node_of(s.id).unwrap());
                }
            }
        });
        out.unwrap()
    }

    #[test]
    fn slice_pulls_in_data_and_control() {
        let (p, pdg) = pdg_of(
            r#"fn main() {
                let a = 1;
                let unrelated = 99;
                if a == 1 {
                    let b = a + 1;
                }
            }"#,
        );
        let b = node_named(&p, &pdg, "b");
        let slice = pdg.backward_reachable([b]);
        let a = node_named(&p, &pdg, "a");
        let unrelated = node_named(&p, &pdg, "unrelated");
        assert!(slice.contains(&a), "data dep source in slice");
        assert!(!slice.contains(&unrelated), "unrelated stmt not in slice");
        // The `if` cond node must be there via control dependence.
        let mut if_node = None;
        p.for_each_stmt(|s| {
            if matches!(s.kind, StmtKind::If { .. }) {
                if_node = pdg.node_of(s.id);
            }
        });
        assert!(slice.contains(&if_node.unwrap()), "guard in slice");
    }

    #[test]
    fn transitive_closure() {
        let (p, pdg) = pdg_of("fn main() { let a = 1; let b = a; let c = b; let d = c; }");
        let d = node_named(&p, &pdg, "d");
        let slice = pdg.backward_reachable([d]);
        for v in ["a", "b", "c"] {
            assert!(slice.contains(&node_named(&p, &pdg, v)), "{v} in slice");
        }
    }

    #[test]
    fn boundary_vars_terminate_at_entry() {
        let (p, pdg) = pdg_of("state s = 7; fn main() { let x = s; }");
        let x = node_named(&p, &pdg, "x");
        let slice = pdg.backward_reachable([x]);
        assert!(slice.contains(&pdg.cfg.entry), "entry holds the state def");
    }

    #[test]
    fn stmts_of_drops_synthetic_nodes() {
        let (p, pdg) = pdg_of("fn main() { let a = 1; if a == 1 { let b = 2; } }");
        let all: HashSet<NodeId> = (0..pdg.cfg.len()).collect();
        let stmts = pdg.stmts_of(&all);
        assert_eq!(stmts.len(), p.stmt_count());
    }

    #[test]
    fn loop_slice_includes_header() {
        let (p, pdg) = pdg_of("fn main() { let i = 0; while i < 3 { i = i + 1; } let z = i; }");
        let z = node_named(&p, &pdg, "z");
        let slice = pdg.backward_reachable([z]);
        let mut hdr = None;
        p.for_each_stmt(|s| {
            if matches!(s.kind, StmtKind::While { .. }) {
                hdr = pdg.node_of(s.id);
            }
        });
        assert!(slice.contains(&hdr.unwrap()));
    }
}
