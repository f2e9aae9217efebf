//! Reaching definitions and data-dependence edges.
//!
//! A worklist dataflow over the CFG: a definition `(var, node)` reaches a
//! program point unless killed by a **strong** redefinition of `var`
//! (weak updates — map inserts, packet-field stores — generate but do not
//! kill, so earlier contents still flow). Data-dependence edges connect a
//! reaching definition to every node that *uses* its variable — the
//! between-statements dependency of the paper's §2.1 — and, for the NF's
//! persistent variables, every definition to every use across the
//! implicit packet loop.
//!
//! Definitions flowing in from outside the function (parameters, `state`
//! and `config` globals) are modelled as definitions at the entry node,
//! so slices correctly extend to the NF's persistent state.
//!
//! Implementation note: variable names are interned once into dense
//! [`VarId`]s and definition sites into dense indices, one per
//! `(variable, node)`, and the flow sets are bitsets. A node's
//! dependences are read off its reaching set by bit tests, so no edge
//! is ever produced twice and none needs deduplicating. The analysis
//! stays linear-ish even on the paper-scale snort corpus (≈2.6k
//! statements, ≈500 state variables) — the naive
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
    /// Per node: the ids of the variables it uses that have a
    /// definition, in name order.
    use_ids: Vec<Vec<VarId>>,
    /// The interned definition sites, one per `(variable, defining
    /// node)`: the boundary sites at entry first, then the rest in node
    /// order.
    defs: Vec<(VarId, NodeId)>,
    /// How many of `defs` are boundary sites.
    boundary_sites: usize,
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
    /// `node`, each once.
    pub fn reaching_in(&self, node: NodeId) -> impl Iterator<Item = (&str, NodeId)> + '_ {
        self.reach_in[node].iter_ones().map(move |i| {
            let (var, def_node) = self.defs[i];
            (self.var_names[var].as_str(), def_node)
        })
    }

    /// The nodes defining `var` whose definitions reach the entry of
    /// `node`, in [`Reaching::reaching_in`]'s order.
    pub fn reaching_defs(&self, var: &str, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let sites = self
            .var_id(var)
            .map_or(&[][..], |v| &self.def_ids_by_var[v]);
        sites
            .iter()
            .filter(move |&&i| self.reach_in[node].get(i))
            .map(move |&i| self.defs[i].1)
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

    /// A per-[`VarId`] mask of `names` (names the function never
    /// defines are ignored).
    pub(crate) fn var_mask<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Vec<bool> {
        let mut mask = vec![false; self.var_names.len()];
        for v in names.into_iter().filter_map(|name| self.var_id(name)) {
            mask[v] = true;
        }
        mask
    }

    /// The data dependences of `to`, each once, as `(from, var)` pairs in
    /// two groups:
    ///
    /// 1. for each variable `to` uses, its definitions reaching `to`'s
    ///    entry;
    /// 2. for each used variable that `persistent` marks, its in-function
    ///    definitions that do **not** reach `to`.
    ///
    /// The second group is the loop-carried dependence of the *implicit
    /// packet loop*. The normalised per-packet function has no enclosing
    /// `while` any more, but the NF still runs it once per packet: a
    /// `state` variable written while processing packet *k* is read while
    /// processing packet *k+1* — the Figure 1 story, where the NAT entry
    /// installed for a flow's first packet is the entry looked up for its
    /// second. So every definition of a persistent variable reaches every
    /// use of it, regardless of intra-iteration CFG reachability; one that
    /// also reaches within the iteration is already in the first group.
    pub(crate) fn data_deps_of(
        &self,
        to: NodeId,
        persistent: &[bool],
        mut emit: impl FnMut(NodeId, VarId),
    ) {
        let reach = &self.reach_in[to];
        let used = &self.use_ids[to];
        for &var in used {
            for &site in &self.def_ids_by_var[var] {
                if reach.get(site) {
                    emit(self.defs[site].1, var);
                }
            }
        }
        for &var in used.iter().filter(|&&v| persistent[v]) {
            for &site in &self.def_ids_by_var[var] {
                if site >= self.boundary_sites && !reach.get(site) {
                    emit(self.defs[site].1, var);
                }
            }
        }
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
    let mut intern = |var: &str| match var_ids.get(var) {
        Some(&v) => v,
        None => {
            let v = var_names.len();
            var_names.push(var.to_string());
            var_ids.insert(var.to_string(), v);
            v
        }
    };
    let mut defs: Vec<(VarId, NodeId)> = boundary_vars
        .iter()
        .map(|v| (intern(v), cfg.entry))
        .collect();
    let boundary_sites = defs.len();
    // gen set and strongly defined variables per node. A statement may
    // define a variable twice (`q_push(q, q_pop(q))`); both definitions
    // would have the same gen/kill and reach sets, so the pair gets one
    // site, which the node kills with if either definition is strong.
    let mut gen_ids: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut strong_vars: Vec<Vec<VarId>> = vec![Vec::new(); n];
    for node in 0..n {
        for (v, k) in &node_du[node].defs {
            let var = intern(v);
            if !gen_ids[node].iter().any(|&i| defs[i].0 == var) {
                gen_ids[node].push(defs.len());
                defs.push((var, node));
            }
            if *k == DefKind::Strong {
                strong_vars[node].push(var);
            }
        }
    }
    let mut def_ids_by_var: Vec<Vec<usize>> = vec![Vec::new(); var_names.len()];
    for (i, &(var, _)) in defs.iter().enumerate() {
        def_ids_by_var[var].push(i);
    }
    let use_ids: Vec<Vec<VarId>> = node_du
        .iter()
        .map(|du| {
            du.uses
                .iter()
                .filter_map(|u| var_ids.get(u).copied())
                .collect()
        })
        .collect();
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
    for i in 0..boundary_sites {
        reach_out[cfg.entry].set(i);
    }

    // Two scratch sets; a changed one is swapped into place, so the
    // fixpoint allocates nothing.
    let mut inset = BitSet::new(nbits);
    let mut outset = BitSet::new(nbits);
    let order = cfg.rpo();
    let mut changed = true;
    while changed {
        changed = false;
        for &node in &order {
            if node == cfg.entry {
                continue;
            }
            inset.clear();
            for p in cfg.preds(node) {
                inset.union_with(&reach_out[p]);
            }
            outset.copy_from(&inset);
            outset.subtract(&kill[node]);
            outset.union_with(&gen[node]);
            if inset != reach_in[node] {
                std::mem::swap(&mut reach_in[node], &mut inset);
                changed = true;
            }
            if outset != reach_out[node] {
                std::mem::swap(&mut reach_out[node], &mut outset);
                changed = true;
            }
        }
    }
    Reaching {
        node_du,
        var_names,
        var_ids,
        use_ids,
        defs,
        boundary_sites,
        def_ids_by_var,
        reach_in,
    }
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

    /// Every node's reaching-definition edges `(from, to, var)`: no
    /// variable is persistent, so there are no loop-carried pairs.
    fn reaching_edges(cfg: &Cfg, r: &Reaching) -> Vec<(NodeId, NodeId, VarId)> {
        let none = vec![false; r.var_names.len()];
        let mut edges = Vec::new();
        for to in 0..cfg.len() {
            r.data_deps_of(to, &none, |from, var| edges.push((from, to, var)));
        }
        edges
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
        let deps = reaching_edges(&cfg, &r);
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
        let deps = reaching_edges(&cfg, &r);
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
        let deps = reaching_edges(&cfg, &r);
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
        let deps = reaching_edges(&cfg, &r);
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
        let deps = reaching_edges(&cfg, &r);
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
        let deps = reaching_edges(&cfg, &r);
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

    #[test]
    fn reaching_defs_is_reaching_in_of_one_variable() {
        let (_, cfg, r) = analyze(
            "state m = map(); fn main(x: int) { let a = 1; if x > 0 { a = 2; m[a] = x; } \
             let b = a + x; m[b] = 1; }",
        );
        for node in 0..cfg.len() {
            for var in ["a", "b", "m", "x", "undefined"] {
                let by_name: Vec<NodeId> = r
                    .reaching_in(node)
                    .filter(|&(v, _)| v == var)
                    .map(|(_, n)| n)
                    .collect();
                assert_eq!(r.reaching_defs(var, node).collect::<Vec<_>>(), by_name);
            }
        }
    }

    #[test]
    fn double_definition_is_one_site() {
        // `q_push(q, q_pop(q))` defines `q` twice in one statement.
        let (p, cfg, r) =
            analyze("state q = queue(); fn main() { q_push(q, q_pop(q)); let x = q; }");
        let push = node_of(&p, &cfg, |s| matches!(&s.kind, nfl_lang::StmtKind::Expr(_)));
        assert_eq!(
            r.node_du[push]
                .defs
                .iter()
                .filter(|(v, _)| v == "q")
                .count(),
            2,
            "the statement defines q twice"
        );
        let x_node = node_of(
            &p,
            &cfg,
            |s| matches!(&s.kind, nfl_lang::StmtKind::Let { name, .. } if name == "x"),
        );
        let reaching: Vec<_> = r.reaching_in(x_node).collect();
        assert_eq!(
            reaching
                .iter()
                .filter(|&&(v, n)| v == "q" && n == push)
                .count(),
            1,
            "each (var, node) reaches once: {reaching:?}"
        );
        // With `q` persistent, each node's dependences are still distinct:
        // the loop-carried pair from `push` to itself is the reaching one.
        let persistent = r.var_mask(["q"]);
        for to in 0..cfg.len() {
            let mut deps = Vec::new();
            r.data_deps_of(to, &persistent, |from, var| deps.push((from, var)));
            let distinct: BTreeSet<_> = deps.iter().collect();
            assert_eq!(
                distinct.len(),
                deps.len(),
                "n{to} repeats a dependence: {deps:?}"
            );
        }
        let q = r.var_id("q").unwrap();
        let mut into_push = Vec::new();
        r.data_deps_of(push, &persistent, |from, var| into_push.push((from, var)));
        assert_eq!(into_push, [(cfg.entry, q), (push, q)]);
    }
}
