//! Control dependence (Ferrante–Ottenstein–Warren).
//!
//! Node *w* is control dependent on branch *b* iff *b* has an edge to a
//! successor from which *w* is always reached (i.e. *w* post-dominates
//! that successor) while *w* does not post-dominate *b* itself. Computed
//! the classic way: for every CFG edge `a → s` where `s` does not
//! post-dominate `a`, every node on the post-dominator-tree path from `s`
//! up to (but excluding) `ipdom(a)` is control dependent on `a`.

use crate::cfg::{Cfg, NodeId};
use crate::dom::{post_dominators, DomTree};

/// Control-dependence edges: `deps[w]` is the set of branch nodes `w`
/// is control dependent on.
#[derive(Debug, Clone)]
pub struct ControlDeps {
    /// For each node, the branch nodes controlling it.
    pub deps: Vec<Vec<NodeId>>,
}

/// Compute control dependences from the CFG and its post-dominator tree.
pub fn control_deps_with(cfg: &Cfg, pdom: &DomTree) -> ControlDeps {
    let n = cfg.len();
    let mut deps: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for a in 0..n {
        for (s, _) in &cfg.nodes[a].succs {
            // Skip when s post-dominates a (edge not a control decision).
            if pdom.dominates(*s, a) {
                continue;
            }
            // Walk the post-dominator tree from s toward the root,
            // stopping at ipdom(a).
            let stop = pdom.idom[a];
            let mut cur = Some(*s);
            while let Some(w) = cur {
                if Some(w) == stop {
                    break;
                }
                if !deps[w].contains(&a) {
                    deps[w].push(a);
                }
                if w == pdom.root {
                    break;
                }
                cur = pdom.idom[w];
            }
        }
    }
    ControlDeps { deps }
}

/// Convenience: compute post-dominators then control deps.
pub fn control_deps(cfg: &Cfg) -> ControlDeps {
    control_deps_with(cfg, &post_dominators(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build_cfg, NodeKind};
    use nfl_lang::{parse, StmtKind};

    fn analyze(src: &str) -> (nfl_lang::Program, Cfg, ControlDeps) {
        let p = parse(src).unwrap();
        let cfg = build_cfg(p.function("main").unwrap());
        let cd = control_deps(&cfg);
        (p.clone(), cfg, cd)
    }

    #[test]
    fn then_branch_depends_on_cond() {
        let (p, cfg, cd) = analyze("fn main() { let x = 1; if x == 1 { let a = 2; } let c = 3; }");
        let mut cond = None;
        let mut a_node = None;
        let mut c_node = None;
        p.for_each_stmt(|s| match &s.kind {
            StmtKind::If { .. } => cond = Some(cfg.stmt_node[&s.id]),
            StmtKind::Let { name, .. } if name == "a" => a_node = Some(cfg.stmt_node[&s.id]),
            StmtKind::Let { name, .. } if name == "c" => c_node = Some(cfg.stmt_node[&s.id]),
            _ => {}
        });
        let (cond, a_node, c_node) = (cond.unwrap(), a_node.unwrap(), c_node.unwrap());
        assert!(cd.deps[a_node].contains(&cond), "then-branch controlled");
        assert!(
            !cd.deps[c_node].contains(&cond),
            "statement after the join is not controlled"
        );
    }

    #[test]
    fn both_sides_of_else_depend() {
        let (p, cfg, cd) =
            analyze("fn main() { let x = 1; if x == 1 { let a = 2; } else { let b = 3; } }");
        let mut cond = None;
        let mut a_node = None;
        let mut b_node = None;
        p.for_each_stmt(|s| match &s.kind {
            StmtKind::If { .. } => cond = Some(cfg.stmt_node[&s.id]),
            StmtKind::Let { name, .. } if name == "a" => a_node = Some(cfg.stmt_node[&s.id]),
            StmtKind::Let { name, .. } if name == "b" => b_node = Some(cfg.stmt_node[&s.id]),
            _ => {}
        });
        assert!(cd.deps[a_node.unwrap()].contains(&cond.unwrap()));
        assert!(cd.deps[b_node.unwrap()].contains(&cond.unwrap()));
    }

    #[test]
    fn loop_body_depends_on_header_and_header_on_itself() {
        let (p, cfg, cd) = analyze("fn main() { let i = 0; while i < 3 { i = i + 1; } }");
        let mut hdr = None;
        let mut body = None;
        p.for_each_stmt(|s| match &s.kind {
            StmtKind::While { .. } => hdr = Some(cfg.stmt_node[&s.id]),
            StmtKind::Assign { .. } => body = Some(cfg.stmt_node[&s.id]),
            _ => {}
        });
        let (hdr, body) = (hdr.unwrap(), body.unwrap());
        assert!(cd.deps[body].contains(&hdr));
        assert!(
            cd.deps[hdr].contains(&hdr),
            "a while header is control dependent on itself via the back edge"
        );
    }

    #[test]
    fn statements_after_early_return_depend_on_guard() {
        let (p, cfg, cd) = analyze(
            r#"fn main() {
                let x = 1;
                if x == 1 { return; }
                let y = 2;
            }"#,
        );
        let mut cond = None;
        let mut y_node = None;
        p.for_each_stmt(|s| match &s.kind {
            StmtKind::If { .. } => cond = Some(cfg.stmt_node[&s.id]),
            StmtKind::Let { name, .. } if name == "y" => y_node = Some(cfg.stmt_node[&s.id]),
            _ => {}
        });
        assert!(
            cd.deps[y_node.unwrap()].contains(&cond.unwrap()),
            "code after a guarded early return is control dependent on the guard"
        );
    }

    #[test]
    fn nested_if_stacks_dependences() {
        let (p, cfg, cd) = analyze(
            r#"fn main() {
                let x = 1;
                if x == 1 {
                    if x == 2 {
                        let deep = 3;
                    }
                }
            }"#,
        );
        let mut conds = Vec::new();
        let mut deep = None;
        p.for_each_stmt(|s| match &s.kind {
            StmtKind::If { .. } => conds.push(cfg.stmt_node[&s.id]),
            StmtKind::Let { name, .. } if name == "deep" => deep = Some(cfg.stmt_node[&s.id]),
            _ => {}
        });
        let deep = deep.unwrap();
        assert!(cd.deps[deep].contains(&conds[1]), "inner cond controls");
        // And transitively the outer one controls the inner cond.
        assert!(cd.deps[conds[1]].contains(&conds[0]));
    }

    #[test]
    fn straight_line_has_no_control_deps() {
        let (_, cfg, cd) = analyze("fn main() { let a = 1; let b = 2; }");
        for n in 0..cfg.len() {
            if cfg.nodes[n].kind == NodeKind::Stmt {
                assert!(cd.deps[n].is_empty(), "n{n} should be uncontrolled");
            }
        }
    }
}
