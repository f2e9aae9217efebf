//! The shared analysis context lint passes run over.
//!
//! Built once per linted program: the normalised per-packet loop, its
//! CFG/def-use/reaching solution (inside the [`Pdg`]), dominator and
//! post-dominator trees, the packet slice, and the StateAlyzer
//! classification — everything `nfl-analysis`/`nfl-slicer` already know
//! how to compute, materialised so each pass pays nothing extra.
//!
//! The synthesis pipeline builds the same context around the PDG it
//! slices on ([`AnalysisCtx::from_pdg`]), so one engine build analyses
//! its program once.

use nfl_analysis::dom::{dominators, post_dominators, DomTree};
use nfl_analysis::normalize::{normalize, PacketLoop, StructureError};
use nfl_analysis::pdg::{default_boundary, Pdg};
use nfl_lang::types::TypeInfo;
use nfl_lang::{Program, Stmt, StmtId};
use nfl_slicer::statealyzer::{statealyzer, StateAlyzerInput, VarClasses};
use nfl_slicer::static_slice::packet_slice;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// Why a program has no per-packet loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopError {
    /// Normalisation matched no NF structure (or failed to inline).
    Structure(String),
    /// The Figure 4d nested-loop shape failed to socket-unfold.
    Unfold(String),
}

impl fmt::Display for LoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopError::Structure(m) | LoopError::Unfold(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for LoopError {}

/// Everything a lint pass may consult.
#[derive(Debug, Clone)]
pub struct AnalysisCtx {
    /// The normalised (and, where needed, socket-unfolded) packet loop.
    pub nf_loop: PacketLoop,
    /// Types of the normalised program.
    pub info: TypeInfo,
    /// The PDG (carries the CFG, per-node def/use, and reaching defs).
    pub pdg: Pdg,
    /// Dominator tree rooted at entry.
    pub dom: DomTree,
    /// Post-dominator tree rooted at exit.
    pub post_dom: DomTree,
    /// Statements of the packet processing slice (Algorithm 1 lines 1–4).
    pub pkt_slice: HashSet<StmtId>,
    /// Whole-program StateAlyzer classification (Table 1) — the lint
    /// wants the `logVar` column, which the slice-restricted variant
    /// drops.
    pub classes: VarClasses,
    /// Variables defined at function entry (globals + parameters).
    pub boundary: BTreeSet<String>,
}

impl AnalysisCtx {
    /// Normalise `program` into its per-packet loop, unfolding sockets
    /// for the Figure 4d shape. This is the exact front half of
    /// [`AnalysisCtx::build`], exposed so incremental callers
    /// (`nf-query`) and the synthesis pipeline can run it on its own.
    pub fn normalize_loop(program: &Program) -> Result<PacketLoop, LoopError> {
        let structure = |e: StructureError| LoopError::Structure(e.to_string());
        match normalize(program) {
            Ok(pl) => Ok(pl),
            Err(StructureError::NestedLoop) => {
                let unfolded = nf_tcp::unfold_sockets(program)
                    .map_err(|e| LoopError::Unfold(e.to_string()))?;
                normalize(&unfolded).map_err(structure)
            }
            Err(e) => Err(structure(e)),
        }
    }

    /// Normalise `program` (unfolding sockets for the Figure 4d shape)
    /// and build the context.
    pub fn build(program: &Program) -> Result<AnalysisCtx, String> {
        AnalysisCtx::from_loop(AnalysisCtx::normalize_loop(program).map_err(|e| e.to_string())?)
    }

    /// Build the context from an already-normalised packet loop.
    pub fn from_loop(nf_loop: PacketLoop) -> Result<AnalysisCtx, String> {
        let info = nfl_lang::types::check(&nf_loop.program).map_err(|e| e.to_string())?;
        let boundary = default_boundary(&nf_loop.program, &nf_loop.func);
        let pdg = Pdg::build(&nf_loop.program, &nf_loop.func, &boundary);
        let pkt_slice = packet_slice(&pdg, &nf_loop.program, &nf_loop.func).stmts;
        Ok(AnalysisCtx::from_pdg(
            nf_loop, info, boundary, pdg, pkt_slice,
        ))
    }

    /// Finish the context around a PDG the caller already built over
    /// `nf_loop` from `boundary`, and the full packet slice taken on it:
    /// adds the dominator trees and the whole-program classes.
    pub fn from_pdg(
        nf_loop: PacketLoop,
        info: TypeInfo,
        boundary: BTreeSet<String>,
        pdg: Pdg,
        pkt_slice: HashSet<StmtId>,
    ) -> AnalysisCtx {
        let dom = dominators(&pdg.cfg);
        let post_dom = post_dominators(&pdg.cfg);
        let classes = statealyzer(&nf_loop, &pkt_slice, &info, StateAlyzerInput::WholeProgram);
        AnalysisCtx {
            nf_loop,
            info,
            pdg,
            dom,
            post_dom,
            pkt_slice,
            classes,
            boundary,
        }
    }

    /// The analysed program.
    pub fn program(&self) -> &Program {
        &self.nf_loop.program
    }

    /// Name of the per-packet function.
    pub fn func(&self) -> &str {
        &self.nf_loop.func
    }

    /// Statement lookup by id (includes every function, so spans of
    /// non-packet code resolve too).
    pub fn stmt_map(&self) -> HashMap<StmtId, &Stmt> {
        let mut m = HashMap::new();
        self.program().for_each_stmt(|s| {
            m.insert(s.id, s);
        });
        m
    }

    /// Names of `state` declarations.
    pub fn state_names(&self) -> BTreeSet<String> {
        self.program()
            .states
            .iter()
            .map(|i| i.name.clone())
            .collect()
    }

    /// Names of `config` and `const` declarations.
    pub fn config_names(&self) -> BTreeSet<String> {
        self.program()
            .configs
            .iter()
            .chain(&self.program().consts)
            .map(|i| i.name.clone())
            .collect()
    }

    /// All persistent names (consts + configs + states).
    pub fn persistent(&self) -> BTreeSet<String> {
        let mut p = self.config_names();
        p.extend(self.state_names());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_for_callback_shape() {
        let p = nfl_lang::parse_and_check(
            r#"
            state hits = 0;
            fn cb(pkt: packet) { hits = hits + 1; send(pkt); }
            fn main() { sniff(cb); }
            "#,
        )
        .unwrap();
        let ctx = AnalysisCtx::build(&p).unwrap();
        assert_eq!(ctx.func(), "cb");
        assert!(ctx.state_names().contains("hits"));
        assert!(ctx.boundary.contains("hits") && ctx.boundary.contains("pkt"));
        // The send is in the packet slice; some statement is classified.
        assert!(!ctx.pkt_slice.is_empty());
        assert_eq!(ctx.classes.class_of("hits"), Some("logVar"));
    }

    #[test]
    fn nested_loop_unfolds() {
        let p = nfl_lang::parse_and_check(
            r#"
            config PORT = 80;
            state idx = 0;
            config servers = [(1.1.1.1, 8080), (2.2.2.2, 8080)];
            fn main() {
                let lfd = listen(PORT);
                while true {
                    let cfd = accept(lfd);
                    let srv = servers[idx];
                    idx = (idx + 1) % len(servers);
                    if fork() == 0 {
                        let sfd = connect(srv[0], srv[1]);
                        while true {
                            let which = select2(cfd, sfd);
                            if which == 0 {
                                let buf = sock_read(cfd);
                                sock_write(sfd, buf);
                            } else {
                                let buf2 = sock_read(sfd);
                                sock_write(cfd, buf2);
                            }
                        }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let ctx = AnalysisCtx::build(&p).unwrap();
        assert!(
            ctx.state_names().contains("__tcp"),
            "{:?}",
            ctx.state_names()
        );
    }

    #[test]
    fn unstructured_program_errors() {
        let p = nfl_lang::parse_and_check("fn main() { let x = 1; }").unwrap();
        assert!(AnalysisCtx::build(&p).is_err());
    }
}
