//! The NFactor model — §2.3 and Figure 2a of the paper.
//!
//! An NF's forwarding behaviour is "an OpenFlow-like model with a stateful
//! data plane extension": per-configuration tables of
//! `⟨flow match, state match⟩ → ⟨flow action, state update⟩` entries, with
//! a low-priority default **drop** (§3.2 "Drop Action").
//!
//! * [`model`] — the data structure and its construction from symbolic
//!   execution paths (Algorithm 1 lines 11–16: split each path's
//!   condition conjunction into config / flow / state parts; derive the
//!   actions from the path's packet rewrites and state updates).
//! * [`eval`] — a concrete evaluator: run the model like a switch on a
//!   real packet and real state. This is what the §5 accuracy experiment
//!   executes 1000 times against the original program.
//! * [`store`] — that state: one store of configs, scalar slots and map
//!   arenas behind a shared name layout, with the undo log every step
//!   commits through. The compiled engine (`nf-compile`) runs on the
//!   same store.
//! * [`render`] — the Figure 6 pretty-printer.
//! * [`fsm`] — the state-machine view (§2.4: "the state transition logic
//!   can be used to build a finite state machine", as BUZZ does).
//! * [`text`] — the `.nfm` exchange format: vendors run NFactor on
//!   proprietary code and ship operators *only the model* (§1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod fsm;
pub mod json;
pub mod model;
pub mod render;
pub mod store;
pub mod text;

pub use eval::{eval_bin, EvalError, ModelStep};
pub use fsm::{ModelFsm, Transition};
pub use model::{Completeness, ConfigTable, Entry, FlowAction, Model, StateAction};
pub use render::render_figure6;
pub use store::{Layout, ModelState, Writes};
pub use text::{from_text, parse_term, to_text};
