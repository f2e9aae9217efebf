//! Concrete interpreter for NFL programs.
//!
//! Runs the canonical per-packet function (a [`nfl_analysis::PacketLoop`])
//! one packet at a time against persistent `state` globals — the ground
//! truth the paper's §5 accuracy experiment compares the synthesized model
//! against ("we generate random inputs (i.e., packets) to both NFactor
//! model and the original program, and test whether they output the same
//! result").
//!
//! [`Interp::new`] resolves every name once. It lowers the normalised
//! program into a tree in which each variable is a frame slot, a global
//! slot, or a global that the function also binds (read through the
//! local once its `let` has run on the current path, as NFL's flat
//! per-function scope has it), and each call is a builtin or a function
//! index. The globals are a vector indexed by slot
//! ([`Interp::globals`]); each call of a function runs in a frame of
//! slots; the undo log banks each global write's pre-image under the
//! global's slot. Conditions and integer operators compute on unboxed
//! `bool` and `i64`, and only a value that is stored or passed on
//! becomes a [`Value`]. A packet looks up no name and hashes no string.
//!
//! Every execution also produces a [`trace::Trace`]: the ids of the
//! executed statements in order, each branch's outcome and each
//! statement's dynamic control link (the branch instance it ran under).
//! The trace is what `nfl-slicer`'s *dynamic* slicer consumes (the
//! paper's Figure 1 highlights a dynamic slice, citing Agrawal & Horgan
//! \[3\]). What a statement reads and writes is a static property of its
//! text, so the slicer reads def/use from the program, not the trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interp;
mod lower;
pub mod trace;
pub mod value;

pub use interp::{Interp, RuntimeError, StepResult};
pub use trace::{Trace, TraceEvent};
pub use value::{Value, ValueKey};
