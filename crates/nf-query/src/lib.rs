//! nf-query — a demand-driven, memoized incremental analysis engine
//! over the NFL lint pipeline.
//!
//! The batch pipeline (`nfl-lint`) rebuilds every analysis fact from
//! scratch per invocation — fine for CI, wasteful for editor loops
//! where one NF changed and seven didn't. This crate memoizes the
//! lint's own four steps per document (parse → normalize → analysis
//! context → report) in a long-lived [`Engine`], each keyed on a
//! content fingerprint (salsa-style red-green revalidation with early
//! cutoff; see [`engine`] for the algorithm).
//! On top of the engine sit two front-ends:
//!
//! * [`watch`] — diffing state for `nfactor lint --watch`: re-lint
//!   dirty documents, print only the diagnostics that appeared or
//!   disappeared;
//! * [`lsp`] — a minimal stdio JSON-RPC language server
//!   (`nfactor lsp`): publishes NFL001–NFL009 diagnostics on
//!   open/change and answers hover with the variable's StateAlyzer
//!   class and sharding verdict.
//!
//! Cache behaviour is observable through `query.<label>.hit`,
//! `query.<label>.recompute`, `query.<label>.recompute.ns`, and
//! `query.<label>.cutoff` metrics on the engine's
//! [`Tracer`](nf_trace::Tracer).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lsp;
pub mod watch;

pub use engine::Engine;
pub use watch::{render_lines, WatchDelta, WatchState};
