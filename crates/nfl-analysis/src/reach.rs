//! Reaching definitions and data-dependence edges.
//!
//! A worklist dataflow over the CFG: a definition `(var, node)` reaches a
//! program point unless killed by a **strong** redefinition of `var`
//! (weak updates — map inserts, packet-field stores — generate but do not
//! kill, so earlier contents still flow). Data-dependence edges connect a
//! reaching definition to every node that *uses* its variable — the
//! between-statements dependency of the paper's §2.1.
//!
//! Definitions flowing in from outside the function (parameters, `state`
//! and `config` globals) are modelled as definitions at the entry node,
//! so slices correctly extend to the NF's persistent state.
//!
//! Implementation note: variable names are interned once into dense
//! [`VarId`]s and definition sites into dense indices, the flow sets are
//! bitsets, and dependence edges are keyed by variable id, so the
//! analysis stays linear-ish even on the paper-scale snort corpus
//! (≈2.6k statements, ≈500 state variables) — the naive
//! `HashSet<(String, NodeId)>` formulation took tens of seconds there;
//! this one takes milliseconds.

use crate::bitset::BitSet;
use crate::cfg::{Cfg, NodeId};
use crate::defuse::{def_use, DefKind, DefUse};
use nfl_lang::{Program, Stmt};
use std::collections::{BTreeSet, HashMap};

/// An interned variable name: an index into [`Reaching`]'s name table
/// (see [`Reaching::var_id`] / [`Reaching::var_name`]).
pub type VarId = usize;

/// Result of the reaching-definitions analysis.
#[derive(Debug, Clone)]
pub struct Reaching {
    /// Def/use sets per node (empty for synthetic nodes).
    pub node_du: Vec<DefUse>,
    /// Interned variable names, indexed by [`VarId`]: every defined
    /// variable (boundary variables included).
    var_names: Vec<String>,
    /// Name → [`VarId`].
    var_ids: HashMap<String, VarId>,
    /// The interned definition sites: which variable, at which node.
    defs: Vec<(VarId, NodeId)>,
    /// Definition-site indices per variable, indexed by [`VarId`].
    def_ids_by_var: Vec<Vec<usize>>,
    /// Per node: the definitions reaching its entry.
    reach_in: Vec<BitSet>,
}

impl Reaching {
    /// The id of `var`, if the function defines it anywhere (boundary
    /// variables count as defined at entry).
    pub fn var_id(&self, var: &str) -> Option<VarId> {
        self.var_ids.get(var).copied()
    }

    /// The name behind an interned id.
    pub fn var_name(&self, id: VarId) -> &str {
        &self.var_names[id]
    }

    /// The definitions `(variable, defining node)` reaching the entry of
    /// `node`.
    pub fn reaching_in(&self, node: NodeId) -> impl Iterator<Item = (&str, NodeId)> + '_ {
        self.reach_in[node].iter_ones().map(move |i| {
            let (var, def_node) = self.defs[i];
            (self.var_names[var].as_str(), def_node)
        })
    }

    /// Does the definition of `var` at `def_node` reach `use_node`'s
    /// entry?
    pub fn reaches(&self, var: &str, def_node: NodeId, use_node: NodeId) -> bool {
        self.var_id(var).is_some_and(|v| {
            self.def_ids_by_var[v]
                .iter()
                .any(|&i| self.defs[i].1 == def_node && self.reach_in[use_node].get(i))
        })
    }
}

/// Compute reaching definitions for `cfg`, whose statement payloads come
/// from `program`. `boundary_vars` are variables considered defined at
/// entry (parameters + globals).
pub fn reaching_definitions(
    program: &Program,
    cfg: &Cfg,
    boundary_vars: &BTreeSet<String>,
) -> Reaching {
    let n = cfg.len();
    // Def/use per node.
    let mut stmt_by_id: HashMap<nfl_lang::StmtId, &Stmt> = HashMap::new();
    program.for_each_stmt(|s| {
        stmt_by_id.insert(s.id, s);
    });
    let mut node_du: Vec<DefUse> = vec![DefUse::default(); n];
    for (node, data) in cfg.nodes.iter().enumerate() {
        if let Some(sid) = data.stmt {
            if let Some(s) = stmt_by_id.get(&sid) {
                node_du[node] = def_use(s);
            }
        }
    }

    // Intern definition sites (and their variables): boundary defs at
    // entry, then per-node defs.
    let mut var_names: Vec<String> = Vec::new();
    let mut var_ids: HashMap<String, VarId> = HashMap::new();
    let mut defs: Vec<(VarId, NodeId)> = Vec::new();
    let mut def_ids_by_var: Vec<Vec<usize>> = Vec::new();
    let mut intern = |var: &str, node: NodeId, defs: &mut Vec<(VarId, NodeId)>| {
        let v = match var_ids.get(var) {
            Some(&v) => v,
            None => {
                let v = var_names.len();
                var_names.push(var.to_string());
                var_ids.insert(var.to_string(), v);
                def_ids_by_var.push(Vec::new());
                v
            }
        };
        let id = defs.len();
        defs.push((v, node));
        def_ids_by_var[v].push(id);
        (v, id)
    };
    let mut boundary_ids = Vec::new();
    for v in boundary_vars {
        boundary_ids.push(intern(v, cfg.entry, &mut defs).1);
    }
    // gen set and strongly defined variables per node.
    let mut gen_ids: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut strong_vars: Vec<Vec<VarId>> = vec![Vec::new(); n];
    for node in 0..n {
        for (v, k) in &node_du[node].defs {
            let (var, id) = intern(v, node, &mut defs);
            gen_ids[node].push(id);
            if *k == DefKind::Strong {
                strong_vars[node].push(var);
            }
        }
    }
    let nbits = defs.len();

    // Kill masks: a node with a strong def of `var` kills every def of
    // `var` except its own gens.
    let mut kill: Vec<BitSet> = vec![BitSet::new(nbits); n];
    for node in 0..n {
        for &v in &strong_vars[node] {
            for &i in &def_ids_by_var[v] {
                kill[node].set(i);
            }
        }
    }
    let mut gen: Vec<BitSet> = vec![BitSet::new(nbits); n];
    for node in 0..n {
        for &i in &gen_ids[node] {
            gen[node].set(i);
        }
    }

    let mut reach_in: Vec<BitSet> = vec![BitSet::new(nbits); n];
    let mut reach_out: Vec<BitSet> = vec![BitSet::new(nbits); n];
    for &i in &boundary_ids {
        reach_out[cfg.entry].set(i);
    }

    let order = cfg.rpo();
    let mut changed = true;
    while changed {
        changed = false;
        for &node in &order {
            if node == cfg.entry {
                continue;
            }
            let mut inset = BitSet::new(nbits);
            for p in cfg.preds(node) {
                inset.union_with(&reach_out[p]);
            }
            let mut outset = inset.clone();
            outset.subtract(&kill[node]);
            outset.union_with(&gen[node]);
            if inset != reach_in[node] {
                reach_in[node] = inset;
                changed = true;
            }
            if outset != reach_out[node] {
                reach_out[node] = outset;
                changed = true;
            }
        }
    }
    Reaching {
        node_du,
        var_names,
        var_ids,
        defs,
        def_ids_by_var,
        reach_in,
    }
}

/// A data-dependence edge `from → to` on variable `var`: `to` uses a
/// variable defined at `from` (both CFG node ids; `from` may be the
/// entry node for boundary variables).
pub fn data_deps(cfg: &Cfg, reaching: &Reaching) -> Vec<(NodeId, NodeId, VarId)> {
    let mut edges = Vec::new();
    for node in 0..cfg.len() {
        for used in &reaching.node_du[node].uses {
            let Some(var) = reaching.var_id(used) else {
                continue;
            };
            for &i in &reaching.def_ids_by_var[var] {
                if reaching.reach_in[node].get(i) {
                    edges.push((reaching.defs[i].1, node, var));
                }
            }
        }
    }
    edges
}

/// Loop-carried dependences of the *implicit packet loop*.
///
/// The normalised per-packet function has no enclosing `while` any more,
/// but the NF still runs it once per packet: a `state` variable written
/// while processing packet *k* is read while processing packet *k+1* —
/// the Figure 1 story, where the NAT entry installed for a flow's first
/// packet is the entry looked up for its second. This function adds a
/// def→use edge for every (def, use) pair of each persistent variable,
/// regardless of intra-iteration CFG reachability.
pub fn cross_iteration_deps(
    cfg: &Cfg,
    reaching: &Reaching,
    persistent: &BTreeSet<String>,
) -> Vec<(NodeId, NodeId, VarId)> {
    // The in-function definition nodes of each persistent variable, in
    // node order.
    let mut def_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); reaching.var_names.len()];
    for node in 0..cfg.len() {
        for (v, _) in &reaching.node_du[node].defs {
            if persistent.contains(v) {
                if let Some(var) = reaching.var_id(v) {
                    def_nodes[var].push(node);
                }
            }
        }
    }
    let mut edges = Vec::new();
    for node in 0..cfg.len() {
        for used in &reaching.node_du[node].uses {
            let Some(var) = reaching.var_id(used) else {
                continue;
            };
            if !persistent.contains(used) {
                continue;
            }
            for &def_node in &def_nodes[var] {
                edges.push((def_node, node, var));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use nfl_lang::parse;

    fn analyze(src: &str) -> (nfl_lang::Program, Cfg, Reaching) {
        let p = parse(src).unwrap();
        let f = p.function("main").unwrap();
        let cfg = build_cfg(f);
        let mut boundary: BTreeSet<String> = BTreeSet::new();
        for it in p.configs.iter().chain(&p.states).chain(&p.consts) {
            boundary.insert(it.name.clone());
        }
        for (pn, _) in &f.params {
            boundary.insert(pn.clone());
        }
        let r = reaching_definitions(&p, &cfg, &boundary);
        (p.clone(), cfg, r)
    }

    fn node_of(p: &nfl_lang::Program, cfg: &Cfg, pred: impl Fn(&Stmt) -> bool) -> NodeId {
        let mut found = None;
        p.for_each_stmt(|s| {
            if pred(s) && found.is_none() {
                found = Some(cfg.stmt_node[&s.id]);
            }
        });
        found.expect("no matching stmt")
    }

    #[test]
    fn straight_line_dep() {
        let (p, cfg, r) = analyze("fn main() { let a = 1; let b = a + 1; }");
        let deps = data_deps(&cfg, &r);
        let a_node = node_of(
            &p,
            &cfg,
            |s| matches!(&s.kind, nfl_lang::StmtKind::Let { name, .. } if name == "a"),
        );
        let b_node = node_of(
            &p,
            &cfg,
            |s| matches!(&s.kind, nfl_lang::StmtKind::Let { name, .. } if name == "b"),
        );
        assert!(deps
            .iter()
            .any(|&(f, t, v)| f == a_node && t == b_node && r.var_name(v) == "a"));
        assert!(r.reaches("a", a_node, b_node));
    }

    #[test]
    fn strong_redefinition_kills() {
        let (p, cfg, r) = analyze("fn main() { let a = 1; a = 2; let b = a; }");
        let deps = data_deps(&cfg, &r);
        let let_a = node_of(
            &p,
            &cfg,
            |s| matches!(&s.kind, nfl_lang::StmtKind::Let { name, .. } if name == "a"),
        );
        let b_node = node_of(
            &p,
            &cfg,
            |s| matches!(&s.kind, nfl_lang::StmtKind::Let { name, .. } if name == "b"),
        );
        assert!(
            !deps.iter().any(|(f, t, _)| *f == let_a && *t == b_node),
            "killed def must not reach"
        );
        assert!(!r.reaches("a", let_a, b_node));
    }

    #[test]
    fn weak_update_does_not_kill() {
        let (p, cfg, r) =
            analyze("state m = map(); fn main() { m[1] = 2; m[3] = 4; let x = m[1]; }");
        let deps = data_deps(&cfg, &r);
        let first = node_of(&p, &cfg, |s| {
            matches!(&s.kind, nfl_lang::StmtKind::Assign { value, .. }
                if matches!(value.kind, nfl_lang::ExprKind::Int(2)))
        });
        let x_node = node_of(
            &p,
            &cfg,
            |s| matches!(&s.kind, nfl_lang::StmtKind::Let { name, .. } if name == "x"),
        );
        assert!(
            deps.iter()
                .any(|&(f, t, v)| f == first && t == x_node && r.var_name(v) == "m"),
            "both weak defs of m must reach the read"
        );
    }

    #[test]
    fn branch_merges_defs() {
        let (p, cfg, r) = analyze(
            r#"fn main() {
                let c = 1;
                let x = 0;
                if c == 1 { x = 10; } else { x = 20; }
                let y = x;
            }"#,
        );
        let deps = data_deps(&cfg, &r);
        let y_node = node_of(
            &p,
            &cfg,
            |s| matches!(&s.kind, nfl_lang::StmtKind::Let { name, .. } if name == "y"),
        );
        let defs_reaching_y: Vec<_> = deps
            .iter()
            .filter(|&&(_, t, v)| t == y_node && r.var_name(v) == "x")
            .collect();
        assert_eq!(defs_reaching_y.len(), 2, "both branch defs reach the merge");
    }

    #[test]
    fn loop_carried_dependence() {
        let (p, cfg, r) = analyze("fn main() { let i = 0; while i < 3 { i = i + 1; } }");
        let deps = data_deps(&cfg, &r);
        let assign = node_of(&p, &cfg, |s| {
            matches!(&s.kind, nfl_lang::StmtKind::Assign { .. })
        });
        // i = i + 1 depends on itself around the back edge.
        assert!(
            deps.iter()
                .any(|&(f, t, v)| f == assign && t == assign && r.var_name(v) == "i"),
            "loop-carried self dependence missing"
        );
    }

    #[test]
    fn boundary_state_reaches_use() {
        let (p, cfg, r) = analyze("state rr = 0; fn main() { let x = rr; }");
        let deps = data_deps(&cfg, &r);
        let x_node = node_of(
            &p,
            &cfg,
            |s| matches!(&s.kind, nfl_lang::StmtKind::Let { name, .. } if name == "x"),
        );
        assert!(
            deps.iter()
                .any(|&(f, t, v)| f == cfg.entry && t == x_node && r.var_name(v) == "rr"),
            "entry-boundary def of state must reach"
        );
        // The accessor view agrees.
        assert!(r
            .reaching_in(x_node)
            .any(|(v, n)| v == "rr" && n == cfg.entry));
    }
}
