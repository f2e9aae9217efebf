//! # nf-shard — sharded packet-processing runtime
//!
//! Executes an NF across `N` worker shards through one of three
//! [`Backend`]s — the NFL interpreter, the synthesized model
//! evaluator, or the model compiled to a flattened dispatch engine by
//! `nf-compile` — with state placed according to `nfl-lint`'s
//! [`ShardingReport`](nfl_lint::ShardingReport):
//!
//! * **per-flow** maps are partitioned — the lint-derived
//!   [`DispatchKey`](nfl_lint::DispatchKey) hashes exactly the packet
//!   fields that key the map (bare `ip.src` for a rate limiter, a
//!   direction-canonicalised 4-tuple for a firewall's pinholes), so
//!   every access to an entry happens on the shard that owns it;
//! * **read-only** state replicates to every shard at startup;
//! * **log-only** counters keep independent per-shard copies that are
//!   delta-summed after the run;
//! * **shared** state (or a per-flow map whose key shape could not be
//!   resolved) drops the NF to a global lock: one instance steps every
//!   packet in arrival order on one thread — no faster than one shard,
//!   but bit-identical to the single-threaded run.
//!
//! Every run is one dispatcher, one per-packet worker body per shard,
//! and one of two executors. The dispatcher pulls, routes and numbers
//! packets and applies dispatch-side faults; the worker steps each
//! packet under supervision on the evaluator the plan's state-access
//! policy hands it (its own when partitioned, the one evaluator under
//! the lock). The threaded executor runs a partitioned run's workers as
//! `std::thread`s fed over the `nf_support::spsc` rings, the only thing
//! they share; the inline executor steps each batch as it is routed, on
//! the calling thread, in the slots the source refilled, and runs every
//! global-lock run. Per-shard
//! metrics (`shard.N.pkts` counters, `shard.N.ring.wait.ns`
//! histograms) flow into the session's `nf-trace` tracer. There is no
//! work stealing by design: moving a packet off its hash-assigned shard
//! would abandon the flow-state locality the dispatch exists to
//! provide.
//!
//! The runtime is **supervised** ([`supervise`]): each packet's eval is
//! isolated behind `catch_unwind` with journal-based state rollback, a
//! failing packet is quarantined instead of aborting the run, an
//! evaluator that fails repeatedly is restarted in place, and a
//! deterministic [`nf_support::fault`] plan can inject
//! panic/error/delay/ring-overflow/garbage faults at chosen
//! `(shard, nth-packet)` points — the chaos differential suite's
//! substrate.
//!
//! The runtime is also **observable** ([`telemetry`]): workers record
//! eval latency, ring occupancy, and a per-packet flight recorder of
//! [`FLIGHT_CAP`] events into private buffers merged at join, the
//! dispatcher profiles hot dispatch keys with a space-saving sketch,
//! and the run surfaces it all as `shard.N.*` histograms/labels (the
//! `nfactor top` live view) and a [`RunStats`] document
//! (`--stats-json`, `--flight-out`). Telemetry never changes what a run
//! computes.
//!
//! Packets reach the engine through a pull-based [`WorkloadSource`] — an
//! in-memory slice, the seeded generator, or a `.nfw` binary trace —
//! dispatched in configurable batches ([`BatchConfig`]) under one
//! unified entry point, [`ShardEngine::run_with`]:
//!
//! ```no_run
//! use nfactor_core::Pipeline;
//! use nf_shard::{Backend, RunConfig, ShardEngine, SliceSource};
//!
//! let pipeline = Pipeline::builder().name("rl").shards(4).build()?;
//! let engine = ShardEngine::from_source(&pipeline, "...nfl source...", Backend::Interp)?;
//! let packets = nf_packet::PacketGen::new(1).batch(1000);
//! let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded())?;
//! assert_eq!(run.total_pkts(), 1000);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod dispatch;
pub mod engine;
pub mod plan;
pub mod supervise;
pub mod telemetry;

pub use dispatch::{dispatch_hash, dispatch_values, shard_of};
pub use engine::{
    Backend, BatchConfig, FaultSummary, RunConfig, RunMode, SeqOutput, ShardEngine, ShardError,
    ShardRun,
};
pub use nf_support::workload::{SliceSource, WorkloadError, WorkloadSource};
pub use plan::ShardPlan;
pub use supervise::{panic_message, quarantine_to_json, QuarantineRecord};
pub use telemetry::{
    render_top, FlightEvent, FlightOutcome, RunStats, ShardStats, TelemetryConfig, FLIGHT_CAP,
};
