//! Compiled execution of synthesized NF models.
//!
//! The model evaluator in `nf-model` is an interpreter over the model's
//! symbolic terms: per packet it scans tables in order, resolves
//! config/state names through the store's name index, and re-walks
//! every match literal. This crate compiles a [`Model`](nf_model::Model)
//! — together with one concrete deployment (configuration + initial
//! state) — into a flattened XFSM dispatch engine, the form the paper's
//! §2.3 model is meant to take on a switch. It keeps its state in the
//! same store ([`nf_model::ModelState`]) the evaluator steps:
//!
//! * **Decision tree** ([`tree`]): flow-match literals of the
//!   recognised single-field shapes (`pkt.f == c`, masked prefix tests,
//!   interval comparisons) become shared `Exact`/`Range` dispatch nodes
//!   over packet fields, so one field read classifies every entry at
//!   once. Unrecognised literals stay *residual* and evaluate per-entry
//!   at the leaves, in source order.
//! * **Expression IR** ([`expr`]): match/action terms are lowered to
//!   [`CExpr`] with every name resolved against the program's initial
//!   store ([`CompiledProgram::init`]) — configs folded to constants,
//!   state scalars to slots of its slot arena, maps to its map arenas —
//!   and closed subterms folded to constants. Lowering adds the state
//!   names the tables use to the store's layout, then closes it. Terms
//!   evaluate through a fast path on unboxed integers and borrowed
//!   values, which answers only with the model evaluator's value.
//! * **Interning** ([`mod@compile`]): state-match literals and residual
//!   flow literals are canonicalised and interned into one predicate
//!   table, and the `(map, key term)` pairs the terms read into a probe
//!   table; per packet each distinct predicate is evaluated, and each
//!   distinct map key built and probed, at most once (memoised), like
//!   an XFSM's flow-context lookup.
//! * **Runtime** ([`exec`]): [`CompiledState`] is the initial store,
//!   stepped, plus the predicate memo; [`CompiledState::step`] walks
//!   the tree, checks residuals and tags, and fires the matched entry
//!   with the reference's exact pre-state-evaluate-then-commit
//!   discipline, committing through the store's undo log. Where the
//!   fast path declines, the reference step
//!   ([`nf_model::ModelState::step`]) runs the packet on the same store
//!   with the model the program carries ([`CompiledProgram::model`]):
//!   the model evaluator stays the one definition of term semantics.
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
//! read. Every error the compiled program returns is the reference's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod exec;
pub mod expr;
pub mod tree;

pub use compile::{
    compile, render, CEntry, CFlowAction, CMapOp, CompileError, CompiledProgram, PredLit,
};
pub use exec::CompiledState;
pub use expr::{fold, CExpr, Probes, RunEnv};
pub use tree::{classify, FieldTest, Node, TestKind};
