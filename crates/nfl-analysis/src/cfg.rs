//! Control-flow graph construction from NFL function bodies.
//!
//! One CFG node per statement; `if`/`while`/`for` contribute a *condition*
//! node whose outgoing edges are labelled true/false. Synthetic entry,
//! exit, and join nodes carry no statement. `return` jumps to exit;
//! `break`/`continue` to the innermost loop's exit/header.

use nfl_lang::{Function, Stmt, StmtId, StmtKind};
use std::collections::HashMap;
use std::fmt;

/// Index of a node in a [`Cfg`].
pub type NodeId = usize;

/// Kinds of CFG nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Synthetic function entry.
    Entry,
    /// Synthetic function exit.
    Exit,
    /// A straight-line statement.
    Stmt,
    /// A branch condition (`if` / `while` / `for` header).
    Cond,
    /// A synthetic join point.
    Join,
}

/// Edge labels: which way a branch went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Unconditional fallthrough.
    Seq,
    /// The branch's true side.
    True,
    /// The branch's false side.
    False,
}

/// One CFG node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The statement this node represents, if any.
    pub stmt: Option<StmtId>,
    /// Node kind.
    pub kind: NodeKind,
    /// Outgoing edges.
    pub succs: Vec<(NodeId, EdgeKind)>,
    /// Incoming edges.
    pub preds: Vec<NodeId>,
}

/// A function's control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All nodes; indices are [`NodeId`]s.
    pub nodes: Vec<Node>,
    /// The entry node.
    pub entry: NodeId,
    /// The exit node.
    pub exit: NodeId,
    /// Map from statement id to its node.
    pub stmt_node: HashMap<StmtId, NodeId>,
}

impl Cfg {
    fn add(&mut self, kind: NodeKind, stmt: Option<StmtId>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            stmt,
            kind,
            succs: Vec::new(),
            preds: Vec::new(),
        });
        if let Some(s) = stmt {
            self.stmt_node.insert(s, id);
        }
        id
    }

    fn edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        if !self.nodes[from].succs.iter().any(|(t, _)| *t == to) {
            self.nodes[from].succs.push((to, kind));
            self.nodes[to].preds.push(from);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty (never true for a built CFG).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Successor node ids of `n`.
    pub fn succs(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[n].succs.iter().map(|(t, _)| *t)
    }

    /// Predecessor node ids of `n`.
    pub fn preds(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes[n].preds.iter().copied()
    }

    /// Reverse post-order from entry (unreachable nodes appended last so
    /// dataflow still visits them).
    pub fn rpo(&self) -> Vec<NodeId> {
        let mut visited = vec![false; self.nodes.len()];
        let mut post = Vec::new();
        // Iterative DFS.
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry] = true;
        while let Some((n, i)) = stack.pop() {
            let succs: Vec<NodeId> = self.succs(n).collect();
            if i < succs.len() {
                stack.push((n, i + 1));
                let s = succs[i];
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(n);
            }
        }
        post.reverse();
        for (n, v) in visited.iter().enumerate() {
            if !v {
                post.push(n);
            }
        }
        post
    }
}

impl fmt::Display for Cfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            let stmt = n
                .stmt
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".to_string());
            let succs: Vec<String> = n
                .succs
                .iter()
                .map(|(t, k)| {
                    format!(
                        "{t}{}",
                        match k {
                            EdgeKind::Seq => "",
                            EdgeKind::True => "T",
                            EdgeKind::False => "F",
                        }
                    )
                })
                .collect();
            writeln!(f, "n{i} [{:?} {stmt}] -> {}", n.kind, succs.join(", "))?;
        }
        Ok(())
    }
}

struct Builder {
    cfg: Cfg,
    /// (loop-header, loop-exit) stack for break/continue.
    loops: Vec<(NodeId, NodeId)>,
}

impl Builder {
    /// Lower a block starting from `cur` with edge kind `kind` for the
    /// first statement; returns the node control falls out of, or `None`
    /// if the block always transfers away (return/break/continue).
    fn block(&mut self, stmts: &[Stmt], mut cur: NodeId, mut kind: EdgeKind) -> Option<NodeId> {
        for s in stmts {
            match self.stmt(s, cur, kind) {
                Some(next) => {
                    cur = next;
                    kind = EdgeKind::Seq;
                }
                None => return None,
            }
        }
        Some(cur)
    }

    fn stmt(&mut self, s: &Stmt, cur: NodeId, kind: EdgeKind) -> Option<NodeId> {
        match &s.kind {
            StmtKind::Let { .. } | StmtKind::Assign { .. } | StmtKind::Expr(_) => {
                let n = self.cfg.add(NodeKind::Stmt, Some(s.id));
                self.cfg.edge(cur, n, kind);
                Some(n)
            }
            StmtKind::Return(_) => {
                let n = self.cfg.add(NodeKind::Stmt, Some(s.id));
                self.cfg.edge(cur, n, kind);
                let exit = self.cfg.exit;
                self.cfg.edge(n, exit, EdgeKind::Seq);
                None
            }
            StmtKind::Break => {
                let n = self.cfg.add(NodeKind::Stmt, Some(s.id));
                self.cfg.edge(cur, n, kind);
                if let Some(&(_, brk)) = self.loops.last() {
                    self.cfg.edge(n, brk, EdgeKind::Seq);
                }
                None
            }
            StmtKind::Continue => {
                let n = self.cfg.add(NodeKind::Stmt, Some(s.id));
                self.cfg.edge(cur, n, kind);
                if let Some(&(hdr, _)) = self.loops.last() {
                    self.cfg.edge(n, hdr, EdgeKind::Seq);
                }
                None
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let cond = self.cfg.add(NodeKind::Cond, Some(s.id));
                self.cfg.edge(cur, cond, kind);
                let join = self.cfg.add(NodeKind::Join, None);
                if let Some(t_end) = self.block(then_branch, cond, EdgeKind::True) {
                    self.cfg.edge(t_end, join, EdgeKind::Seq);
                }
                if else_branch.is_empty() {
                    self.cfg.edge(cond, join, EdgeKind::False);
                } else if let Some(e_end) = self.block(else_branch, cond, EdgeKind::False) {
                    self.cfg.edge(e_end, join, EdgeKind::Seq);
                }
                // If both branches transfer away the join is unreachable;
                // that is fine — dataflow handles unreachable nodes.
                Some(join)
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                let cond = self.cfg.add(NodeKind::Cond, Some(s.id));
                self.cfg.edge(cur, cond, kind);
                let exit = self.cfg.add(NodeKind::Join, None);
                self.cfg.edge(cond, exit, EdgeKind::False);
                self.loops.push((cond, exit));
                if let Some(b_end) = self.block(body, cond, EdgeKind::True) {
                    self.cfg.edge(b_end, cond, EdgeKind::Seq);
                }
                self.loops.pop();
                Some(exit)
            }
        }
    }
}

/// Build the CFG of a function.
pub fn build_cfg(func: &Function) -> Cfg {
    let mut cfg = Cfg {
        nodes: Vec::new(),
        entry: 0,
        exit: 0,
        stmt_node: HashMap::new(),
    };
    let entry = cfg.add(NodeKind::Entry, None);
    let exit = cfg.add(NodeKind::Exit, None);
    cfg.entry = entry;
    cfg.exit = exit;
    let mut b = Builder {
        cfg,
        loops: Vec::new(),
    };
    if let Some(end) = b.block(&func.body, entry, EdgeKind::Seq) {
        let exit = b.cfg.exit;
        b.cfg.edge(end, exit, EdgeKind::Seq);
    }
    b.cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_lang::parse;

    fn cfg_of(src: &str) -> (Cfg, nfl_lang::Program) {
        let p = parse(src).unwrap();
        let f = p.function("main").unwrap();
        (build_cfg(f), p.clone())
    }

    #[test]
    fn straight_line() {
        let (cfg, _) = cfg_of("fn main() { let a = 1; let b = 2; }");
        // entry, exit, two stmts
        assert_eq!(cfg.len(), 4);
        // entry -> a -> b -> exit
        let path: Vec<_> = cfg.rpo();
        assert_eq!(path[0], cfg.entry);
        assert!(cfg.succs(cfg.entry).count() == 1);
        assert!(cfg.preds(cfg.exit).count() == 1);
    }

    #[test]
    fn if_else_diamond() {
        let (cfg, p) = cfg_of(
            "fn main() { let x = 1; if x == 1 { let a = 2; } else { let b = 3; } let c = 4; }",
        );
        let mut cond_node = None;
        p.for_each_stmt(|s| {
            if matches!(s.kind, StmtKind::If { .. }) {
                cond_node = Some(cfg.stmt_node[&s.id]);
            }
        });
        let cond = cond_node.unwrap();
        assert_eq!(cfg.nodes[cond].kind, NodeKind::Cond);
        assert_eq!(cfg.nodes[cond].succs.len(), 2);
        let kinds: Vec<_> = cfg.nodes[cond].succs.iter().map(|(_, k)| *k).collect();
        assert!(kinds.contains(&EdgeKind::True) && kinds.contains(&EdgeKind::False));
    }

    #[test]
    fn while_loop_back_edge() {
        let (cfg, p) = cfg_of("fn main() { let i = 0; while i < 3 { i = i + 1; } }");
        let mut while_node = None;
        p.for_each_stmt(|s| {
            if matches!(s.kind, StmtKind::While { .. }) {
                while_node = Some(cfg.stmt_node[&s.id]);
            }
        });
        let w = while_node.unwrap();
        // The body's assign must loop back to the cond.
        assert!(
            cfg.preds(w).count() >= 2,
            "loop header needs entry + back edge"
        );
    }

    #[test]
    fn return_goes_to_exit() {
        let (cfg, p) = cfg_of("fn main() { let x = 1; if x == 1 { return; } let y = 2; }");
        let mut ret_node = None;
        p.for_each_stmt(|s| {
            if matches!(s.kind, StmtKind::Return(_)) {
                ret_node = Some(cfg.stmt_node[&s.id]);
            }
        });
        let r = ret_node.unwrap();
        assert_eq!(cfg.succs(r).collect::<Vec<_>>(), vec![cfg.exit]);
    }

    #[test]
    fn break_exits_loop_continue_reenters() {
        let (cfg, p) = cfg_of(
            r#"fn main() {
                let i = 0;
                while i < 10 {
                    i = i + 1;
                    if i == 2 { continue; }
                    if i == 5 { break; }
                }
                let done = 1;
            }"#,
        );
        let mut while_hdr = None;
        let mut brk = None;
        let mut cont = None;
        p.for_each_stmt(|s| match s.kind {
            StmtKind::While { .. } => while_hdr = Some(cfg.stmt_node[&s.id]),
            StmtKind::Break => brk = Some(cfg.stmt_node[&s.id]),
            StmtKind::Continue => cont = Some(cfg.stmt_node[&s.id]),
            _ => {}
        });
        let hdr = while_hdr.unwrap();
        // continue's successor is the header
        assert_eq!(cfg.succs(cont.unwrap()).collect::<Vec<_>>(), vec![hdr]);
        // break's successor is the loop-exit join, which reaches `done`
        let bsucc: Vec<_> = cfg.succs(brk.unwrap()).collect();
        assert_eq!(bsucc.len(), 1);
        assert_ne!(bsucc[0], hdr);
    }

    #[test]
    fn all_stmts_have_nodes() {
        let (cfg, p) = cfg_of(
            r#"fn main() {
                let i = 0;
                for j in 0..4 {
                    if j == 2 { i = i + j; } else { i = i - 1; }
                }
                return;
            }"#,
        );
        let mut count = 0;
        p.for_each_stmt(|s| {
            assert!(cfg.stmt_node.contains_key(&s.id), "missing node for {s:?}");
            count += 1;
        });
        assert!(count > 0);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_all() {
        let (cfg, _) =
            cfg_of("fn main() { let x = 0; while x < 2 { x = x + 1; } if x == 2 { return; } }");
        let order = cfg.rpo();
        assert_eq!(order[0], cfg.entry);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), cfg.len(), "rpo must enumerate every node");
    }

    #[test]
    fn both_branches_return_join_unreachable() {
        let (cfg, _) = cfg_of("fn main() { let x = 1; if x == 1 { return; } else { return; } }");
        // Graph still well-formed; rpo enumerates everything.
        assert_eq!(cfg.rpo().len(), cfg.len());
    }
}
