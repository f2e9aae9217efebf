//! Compiled execution of synthesized NF models.
//!
//! The model evaluator in `nf-model` is an interpreter over the model's
//! symbolic terms: per packet it scans tables in order, re-resolves
//! config/state names through `BTreeMap`s, and re-walks every match
//! literal. This crate compiles a [`Model`](nf_model::Model) — together
//! with one concrete deployment (configuration + initial state) — into
//! a flattened XFSM dispatch engine, the form the paper's §2.3 model is
//! meant to take on a switch:
//!
//! * **Decision tree** ([`tree`]): flow-match literals of the
//!   recognised single-field shapes (`pkt.f == c`, masked prefix tests,
//!   interval comparisons) become shared `Exact`/`Range` dispatch nodes
//!   over packet fields, so one field read classifies every entry at
//!   once. Unrecognised literals stay *residual* and evaluate per-entry
//!   at the leaves, in source order.
//! * **Expression IR** ([`expr`]): match/action terms are lowered to
//!   [`CExpr`] with every name resolved — configs folded to constants,
//!   state scalars to dense arena slots, maps to arena indices — and
//!   constant subterms folded through the reference evaluator itself.
//! * **Interning** ([`compile`]): state-match literals and residual
//!   flow literals are canonicalised and interned into one predicate
//!   table, and the `(map, key term)` pairs the terms read into a probe
//!   table; per packet each distinct predicate is evaluated, and each
//!   distinct map key built and probed, at most once (memoised), like
//!   an XFSM's flow-context lookup.
//! * **Runtime** ([`exec`]): [`CompiledState`] holds the slot/map
//!   arenas; [`CompiledState::step`] walks the tree, checks residuals
//!   and tags, and fires the matched entry with the reference's exact
//!   pre-state-evaluate-then-commit discipline.
//!
//! # Semantics contract
//!
//! For every packet on which the reference `ModelState::step` succeeds,
//! the compiled program succeeds with the **identical** output packet,
//! fired `(table, entry)`, and post-state. The contract is one-sided:
//! on packets where the reference *errors* (e.g. a match literal reads
//! `pkt.tcp.flags` on a UDP packet after an earlier literal already
//! failed), the compiled program may instead classify the packet
//! without evaluating the erroring literal. Tree nodes over fields
//! whose read can fail carry a *missing-layer* child in which all tests
//! on that field demote back to residual literals, so reference error
//! behaviour is preserved wherever the reference actually reaches the
//! read.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod expr;
pub mod exec;
pub mod tree;

pub use compile::{
    compile, render, CEntry, CFlowAction, CMapOp, CompileError, CompiledProgram, PredLit,
};
pub use exec::{CompiledState, CompiledStep};
pub use expr::{eval_expr, fold, CExpr, Env, Probes, RunEnv};
pub use tree::{classify, FieldTest, Node, TestKind};
