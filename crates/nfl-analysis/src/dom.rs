//! Dominators and post-dominators.
//!
//! Classic iterative algorithm (Cooper–Harvey–Kennedy "A Simple, Fast
//! Dominance Algorithm") over the CFG in reverse post-order; the
//! post-dominator tree is the same computation on the reversed graph
//! rooted at exit. Post-dominators feed control dependence ([`crate::cd`]).

use crate::cfg::{Cfg, NodeId};

/// A dominator tree: `idom[n]` is the immediate dominator of `n`
/// (`None` for the root and unreachable nodes).
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator of each node.
    pub idom: Vec<Option<NodeId>>,
    /// The tree root (entry for dominators, exit for post-dominators).
    pub root: NodeId,
}

impl DomTree {
    /// Does `a` dominate `b` (reflexively)?
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = Some(b);
        while let Some(n) = cur {
            if n == a {
                return true;
            }
            if n == self.root {
                return false;
            }
            cur = self.idom[n];
        }
        false
    }
}

fn compute(
    order: &[NodeId],
    preds: impl Fn(NodeId) -> Vec<NodeId>,
    root: NodeId,
    n: usize,
) -> DomTree {
    // rpo position of each node; unreachable nodes get usize::MAX.
    let mut pos = vec![usize::MAX; n];
    for (i, &node) in order.iter().enumerate() {
        pos[node] = i;
    }
    let mut idom: Vec<Option<NodeId>> = vec![None; n];
    idom[root] = Some(root);
    let intersect = |idom: &[Option<NodeId>], mut a: NodeId, mut b: NodeId| -> NodeId {
        while a != b {
            while pos[a] > pos[b] {
                a = idom[a].expect("processed");
            }
            while pos[b] > pos[a] {
                b = idom[b].expect("processed");
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &node in order {
            if node == root {
                continue;
            }
            let mut new_idom: Option<NodeId> = None;
            for p in preds(node) {
                if idom[p].is_some() {
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, p, cur),
                    });
                }
            }
            if let Some(ni) = new_idom {
                if idom[node] != Some(ni) {
                    idom[node] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    // Normalise: root's idom is None; unreachable nodes stay None.
    idom[root] = None;
    DomTree { idom, root }
}

/// Compute the dominator tree rooted at entry.
pub fn dominators(cfg: &Cfg) -> DomTree {
    let order = cfg.rpo();
    // Filter to reachable-from-entry prefix: rpo() appends unreachable
    // nodes at the end, but `compute` skips nodes with no processed preds,
    // so passing all is safe.
    compute(&order, |n| cfg.preds(n).collect(), cfg.entry, cfg.len())
}

/// Compute the post-dominator tree rooted at exit (dominators of the
/// reversed CFG).
pub fn post_dominators(cfg: &Cfg) -> DomTree {
    // Reverse post-order of the reversed graph.
    let n = cfg.len();
    let mut visited = vec![false; n];
    let mut post = Vec::new();
    let mut stack = vec![(cfg.exit, 0usize)];
    visited[cfg.exit] = true;
    while let Some((node, i)) = stack.pop() {
        let preds: Vec<NodeId> = cfg.preds(node).collect();
        if i < preds.len() {
            stack.push((node, i + 1));
            let p = preds[i];
            if !visited[p] {
                visited[p] = true;
                stack.push((p, 0));
            }
        } else {
            post.push(node);
        }
    }
    post.reverse();
    for (node, v) in visited.iter().enumerate() {
        if !v {
            post.push(node);
        }
    }
    compute(&post, |x| cfg.succs(x).collect(), cfg.exit, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use nfl_lang::parse;

    fn analyze(src: &str) -> (Cfg, DomTree, DomTree) {
        let p = parse(src).unwrap();
        let cfg = build_cfg(p.function("main").unwrap());
        let d = dominators(&cfg);
        let pd = post_dominators(&cfg);
        (cfg, d, pd)
    }

    #[test]
    fn entry_dominates_everything_reachable() {
        let (cfg, d, _) = analyze(
            "fn main() { let x = 1; if x == 1 { let a = 2; } else { let b = 3; } let c = 4; }",
        );
        for n in 0..cfg.len() {
            if n != cfg.entry && d.idom[n].is_some() {
                assert!(d.dominates(cfg.entry, n), "entry must dominate n{n}");
            }
        }
    }

    #[test]
    fn exit_postdominates_everything() {
        let (cfg, _, pd) =
            analyze("fn main() { let x = 1; while x < 3 { x = x + 1; } let y = 2; }");
        for n in 0..cfg.len() {
            if n != cfg.exit && pd.idom[n].is_some() {
                assert!(pd.dominates(cfg.exit, n), "exit must post-dominate n{n}");
            }
        }
    }

    #[test]
    fn branch_does_not_dominate_join_sides() {
        let (cfg, d, pd) = analyze(
            "fn main() { let x = 1; if x == 1 { let a = 2; } else { let b = 3; } let c = 4; }",
        );
        // Find the cond node and its two branch stmt nodes.
        let cond = cfg
            .nodes
            .iter()
            .position(|n| n.kind == crate::cfg::NodeKind::Cond)
            .unwrap();
        let (t, f) = {
            let succs = &cfg.nodes[cond].succs;
            (succs[0].0, succs[1].0)
        };
        // Cond dominates both branches...
        assert!(d.dominates(cond, t));
        assert!(d.dominates(cond, f));
        // ...but neither branch post-dominates the cond.
        assert!(!pd.dominates(t, cond));
        assert!(!pd.dominates(f, cond));
    }

    #[test]
    fn dominance_is_antisymmetric_on_diamond() {
        let (cfg, d, _) =
            analyze("fn main() { let x = 1; if x == 1 { let a = 2; } else { let b = 3; } }");
        for a in 0..cfg.len() {
            for b in 0..cfg.len() {
                if a != b && d.idom[a].is_some() && d.idom[b].is_some() {
                    assert!(
                        !(d.dominates(a, b) && d.dominates(b, a)),
                        "n{a} and n{b} dominate each other"
                    );
                }
            }
        }
    }

    #[test]
    fn loop_header_dominates_body() {
        let (cfg, d, _) = analyze("fn main() { let i = 0; while i < 3 { i = i + 1; } }");
        let hdr = cfg
            .nodes
            .iter()
            .position(|n| n.kind == crate::cfg::NodeKind::Cond)
            .unwrap();
        let body = cfg.nodes[hdr]
            .succs
            .iter()
            .find(|(_, k)| *k == crate::cfg::EdgeKind::True)
            .unwrap()
            .0;
        assert!(d.dominates(hdr, body));
    }
}
