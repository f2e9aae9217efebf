//! Liveness analysis.
//!
//! Backward may-analysis over the CFG: a variable is *live* at a point if
//! some path onward reads it before any strong redefinition. Persistent
//! (`state`) variables are live at function exit — the next packet may
//! read them — which is precisely why per-packet liveness alone cannot
//! prune state updates and the paper needs the output-impact analysis
//! instead.
//!
//! The solver runs over a given CFG and its per-node def/use sets (the
//! ones [`crate::reach::Reaching`] already holds), with variables
//! interned to dense indices and the flow sets kept as bitsets. The
//! dead-store lints built on it (dead locals, dead/write-only state) live
//! in `nfl-lint` and surface through `nfactor lint` as `NFL001`–`NFL003`.

use crate::bitset::BitSet;
use crate::cfg::{Cfg, NodeId};
use crate::defuse::{DefKind, DefUse};
use std::collections::{BTreeSet, HashMap};

/// The liveness solution for one function.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Interned variable names: bit positions in the flow sets.
    vars: HashMap<String, usize>,
    /// Variables live at the *entry* of each CFG node.
    live_in: Vec<BitSet>,
    /// Variables live at the *exit* of each CFG node.
    live_out: Vec<BitSet>,
}

impl Liveness {
    /// Is `var` live at the entry of `node`?
    pub fn live_in(&self, node: NodeId, var: &str) -> bool {
        self.vars
            .get(var)
            .is_some_and(|&i| self.live_in[node].get(i))
    }

    /// Is `var` live at the exit of `node`?
    pub fn live_out(&self, node: NodeId, var: &str) -> bool {
        self.vars
            .get(var)
            .is_some_and(|&i| self.live_out[node].get(i))
    }
}

/// Compute liveness over `cfg`, whose per-node def/use sets are
/// `node_du` (indexed by node). `live_at_exit` seeds the exit node
/// (persistent state names, usually).
pub fn liveness(cfg: &Cfg, node_du: &[DefUse], live_at_exit: &BTreeSet<String>) -> Liveness {
    let n = cfg.len();
    let mut vars: HashMap<String, usize> = HashMap::new();
    let mut intern = |v: &str| match vars.get(v) {
        Some(&i) => i,
        None => {
            let i = vars.len();
            vars.insert(v.to_string(), i);
            i
        }
    };
    // Per node: the variables read (gen) and strongly redefined (kill).
    // Weak defs also *use* the old value; def_use already records that in
    // uses, so they kill nothing.
    let (uses, strong_defs): (Vec<Vec<usize>>, Vec<Vec<usize>>) = node_du
        .iter()
        .map(|du| {
            let uses = du.uses.iter().map(|v| intern(v)).collect();
            let strong = du
                .defs
                .iter()
                .filter(|(_, k)| *k == DefKind::Strong)
                .map(|(v, _)| intern(v))
                .collect();
            (uses, strong)
        })
        .unzip();
    let exit_seed: Vec<usize> = live_at_exit.iter().map(|v| intern(v)).collect();
    let nbits = vars.len();

    let mut live_in: Vec<BitSet> = vec![BitSet::new(nbits); n];
    let mut live_out: Vec<BitSet> = vec![BitSet::new(nbits); n];
    let mut order = cfg.rpo();
    order.reverse();
    let mut changed = true;
    while changed {
        changed = false;
        for &node in &order {
            let mut out = BitSet::new(nbits);
            if node == cfg.exit {
                for &v in &exit_seed {
                    out.set(v);
                }
            }
            for s in cfg.succs(node) {
                out.union_with(&live_in[s]);
            }
            let mut inn = out.clone();
            for &v in &strong_defs[node] {
                inn.unset(v);
            }
            for &v in &uses[node] {
                inn.set(v);
            }
            if inn != live_in[node] {
                live_in[node] = inn;
                changed = true;
            }
            if out != live_out[node] {
                live_out[node] = out;
                changed = true;
            }
        }
    }
    Liveness {
        vars,
        live_in,
        live_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdg::{default_boundary, Pdg};
    use nfl_lang::parse;

    /// Liveness at the node that defines `var` (its `live_out`).
    fn live_out_of(src: &str, var: &str, exit: &[&str]) -> bool {
        let p = parse(src).unwrap();
        let pdg = Pdg::build(&p, "main", &default_boundary(&p, "main"));
        let node_du = &pdg.reaching.node_du;
        let seed: BTreeSet<String> = exit.iter().map(|s| s.to_string()).collect();
        let live = liveness(&pdg.cfg, node_du, &seed);
        let node = (0..pdg.cfg.len())
            .find(|&node| node_du[node].defines_strongly(var))
            .unwrap_or_else(|| panic!("no strong def of {var}"));
        live.live_out(node, var)
    }

    #[test]
    fn unused_binding_is_dead() {
        let src = r#"
            fn main() {
                let unused = 42;
                let used = 1;
                let y = used + 1;
                log(y);
            }
        "#;
        assert!(!live_out_of(src, "unused", &[]));
        assert!(live_out_of(src, "used", &[]));
    }

    #[test]
    fn state_live_at_exit() {
        // A state write at the end of the function is NOT dead — the
        // next packet reads it — when the exit seed says so.
        let src = r#"
            state nat_port = 1000;
            fn main() {
                let x = nat_port;
                nat_port = x + 1;
                log(x);
            }
        "#;
        assert!(live_out_of(src, "nat_port", &["nat_port"]));
        assert!(!live_out_of(src, "nat_port", &[]));
    }

    #[test]
    fn liveness_through_branches() {
        let src = r#"
            fn main() {
                let a = 1;
                let b = 2;
                if a == 1 { log(b); }
            }
        "#;
        assert!(live_out_of(src, "a", &[]));
        assert!(live_out_of(src, "b", &[]));
    }

    #[test]
    fn loop_carried_liveness() {
        let src = r#"
            fn main() {
                let i = 0;
                while i < 10 {
                    i = i + 1;
                }
                log(i);
            }
        "#;
        assert!(live_out_of(src, "i", &[]));
    }

    #[test]
    fn use_is_live_in_not_out() {
        // `log(x)` reads `x`: live into the call, dead after it.
        let p = parse("fn main() { let x = 1; log(x); }").unwrap();
        let pdg = Pdg::build(&p, "main", &default_boundary(&p, "main"));
        let live = liveness(&pdg.cfg, &pdg.reaching.node_du, &BTreeSet::new());
        let call = (0..pdg.cfg.len())
            .find(|&n| pdg.reaching.node_du[n].uses.contains("x"))
            .unwrap();
        assert!(live.live_in(call, "x"));
        assert!(!live.live_out(call, "x"));
        assert!(!live.live_in(call, "never_mentioned"));
    }
}
