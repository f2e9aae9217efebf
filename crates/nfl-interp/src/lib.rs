//! Concrete interpreter for NFL programs.
//!
//! Runs the canonical per-packet function (a [`nfl_analysis::PacketLoop`])
//! one packet at a time against persistent `state` globals — the ground
//! truth the paper's §5 accuracy experiment compares the synthesized model
//! against ("we generate random inputs (i.e., packets) to both NFactor
//! model and the original program, and test whether they output the same
//! result").
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
pub mod trace;
pub mod value;

pub use interp::{Interp, RuntimeError, StepResult};
pub use trace::{Trace, TraceEvent};
pub use value::{Value, ValueKey};
