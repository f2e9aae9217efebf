//! Symbolic execution over NFL — the reproduction's KLEE.
//!
//! NFactor (Algorithm 1, line 10) finds "all possible execution paths in
//! the union of both slices" by symbolic execution, then refactors each
//! path into a model entry (lines 11–16). This crate supplies that
//! engine:
//!
//! * [`sym`] — the symbolic value language: packet fields and
//!   configuration/state scalars are free variables, typed by
//!   Algorithm 1's classes (`SymVal::{Pkt, Cfg, St}`); map reads are
//!   uninterpreted `MapGet` terms; `hash` is uninterpreted; array reads
//!   with symbolic indices stay symbolic (`server[idx]` in Figure 6 is
//!   exactly such a term).
//! * [`solver`] — an SMT-lite decision procedure for the constraint
//!   fragment NF slices produce: interval narrowing per variable,
//!   disequality holes, bitmask facts (`tcp.flags & SYN`), equalities via
//!   union-find, and modular-range reasoning for `hash(x) % N` — with
//!   model generation for BUZZ-style test-packet synthesis.
//! * [`engine`] — fork-on-branch path exploration with bounded loops
//!   (§3.2: *"NF programs typically will not contain input-dependent
//!   loops"*), symbolic map membership forking (`k in nat` is the
//!   new-vs-existing-connection fork of Figure 1), and per-path
//!   collection of outputs, state updates and branch decisions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod json;
pub mod solver;
pub mod sym;

pub use engine::{ExplorationStats, Path, PathLimits, SymExec};
pub use solver::{Solver, Verdict};
pub use sym::{MapOp, Short, SymPacket, SymVal};
