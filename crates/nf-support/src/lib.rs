//! In-tree support substrate for the NFactor workspace.
//!
//! The NFactor pipeline (slicing → symbolic execution → model
//! refactoring) is pure in-memory program analysis; nothing in it needs a
//! crates.io dependency. This crate supplies, with zero external
//! dependencies, the four facilities the workspace previously pulled from
//! the network, so a clean checkout builds and tests fully offline:
//!
//! * [`rng`] — a seeded SplitMix64 / xoshiro256** PRNG (replaces `rand`).
//! * [`check`] — a minimal property-testing harness with generators,
//!   bounded shrinking, and deterministic seeds (replaces `proptest`).
//! * [`mod@bench`] — a `harness = false` micro-benchmark runner with warmup /
//!   iteration control and JSON reports (replaces `criterion`).
//! * [`json`] — a small JSON `Value` with `render` / `parse` and the
//!   [`json::ToJson`] trait the written documents implement by hand
//!   (replaces the `serde` derives; no document is read back into its
//!   type).
//! * [`bytes`] — big-endian append helpers for `Vec<u8>` wire buffers
//!   (replaces the `bytes` crate).
//! * [`budget`] — a wall-clock deadline plus a solver-call cap threaded
//!   through the pipeline for graceful degradation under a deadline
//!   (the path cap is the symbolic executor's `PathLimits::max_paths`).
//! * [`spsc`] — a bounded single-producer/single-consumer ring buffer
//!   (the `nf-shard` dispatcher→worker queues).
//! * [`fault`] — a seeded, deterministic fault-injection plan
//!   (panic/error/delay/ring-overflow/garbage points) consumed by the
//!   `nf-shard` supervisor and the chaos differential suite.
//! * [`sketch`] — a space-saving top-K frequency sketch (the `nf-shard`
//!   hot-key profiler behind `shard.N.hotkeys`).
//! * [`ring`] — a bounded overwrite-oldest ring log (the `nf-shard`
//!   flight recorder's storage).
//! * [`workload`] — the pull-based [`workload::WorkloadSource`] trait and
//!   the length-prefixed record framing behind the `.nfw` trace format
//!   (the `nf-shard` streaming packet path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod budget;
pub mod bytes;
pub mod check;
pub mod fault;
pub mod json;
pub mod ring;
pub mod rng;
pub mod sketch;
pub mod spsc;
pub mod workload;

pub use budget::Budget;
pub use fault::{FaultKind, FaultPlan};
pub use json::{JsonError, ToJson, Value};
pub use rng::Rng;
pub use workload::{SliceSource, WorkloadError, WorkloadSource};
