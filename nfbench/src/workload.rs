//! The four workloads and the seeded inputs each one runs on.
//!
//! Every workload is one NF scenario measured in both user-visible
//! costs: building the engine from NFL text, and streaming a seeded
//! `.nfw` trace through it on each of the three backends. The seed
//! decides the trace bytes and the fault positions; the program only
//! ever sees the generated files.
//!
//! Runtime runs are `nfactor run` on one thread: `RunMode::Sequential`,
//! one shard, batch 32, rebalancing off, no per-packet outputs retained.
//! The threaded mode puts a dispatcher and a worker on the host's two
//! shared vCPUs, where a run's time measures the scheduler as much as
//! the program; on one thread the same dispatch, supervision and merge
//! code runs and its time is the program's.

use nfactor::corpus;
use nfactor::packet::{GenSource, NfwWriter, Packet};
use nfactor::shard::{Backend, RunConfig};
use nfactor::support::fault::{FaultKind, FaultPlan, FaultPoint, ShardSel};
use nfactor::support::rng::Rng;
use nfactor::support::workload::WorkloadSource;
use std::path::{Path, PathBuf};

/// The three backends, in report order, with their metric suffixes.
pub const BACKENDS: [(Backend, &str); 3] = [
    (Backend::Interp, "interp"),
    (Backend::Model, "model"),
    (Backend::Compiled, "compiled"),
];

/// One workload: an NF, how many packets each backend streams per
/// timed run, and the run configuration around it. Why each workload
/// exists is recorded with it in `BENCHMARK.json` and the README.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// The NF's name inside the pipeline (and its reports).
    pub nf: &'static str,
    source: fn(tiny: bool) -> String,
    /// Packets per timed run for interp, model and compiled.
    pub packets: [u64; 3],
    /// Run with the telemetry plane on (the `run --stats-json`
    /// configuration: a recording tracer plus default telemetry).
    pub telemetry: bool,
    /// Inject one seeded fault per this many packets (0: none), half
    /// evaluator errors and half panics.
    pub fault_every: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    // Paper-scale source: lint and slicing dominate the build; the
    // interpreter walks 500 rules per packet, the model has 3 entries.
    Workload {
        name: "snort-paper",
        nf: "snort",
        source: |tiny| {
            corpus::snort::source(if tiny {
                25
            } else {
                corpus::snort::PAPER_SCALE_RULES
            })
        },
        packets: [60, 1_000, 30_000],
        telemetry: false,
        fault_every: 0,
    },
    // ~60% new 4-tuples: live state grows with the stream, so journaling,
    // state copies and merge dominate.
    Workload {
        name: "fresh-flows",
        nf: "firewall",
        source: |_| corpus::firewall::source(),
        packets: [1_000, 1_000, 20_000],
        telemetry: false,
        fault_every: 0,
    },
    // At most 4 live entries: decode, dispatch, eval and telemetry carry
    // the work, not state. The only workload that pays for telemetry.
    Workload {
        name: "few-flows",
        nf: "ratelimiter",
        source: |_| corpus::ratelimiter::source(),
        packets: [4_000, 25_000, 40_000],
        telemetry: true,
        fault_every: 0,
    },
    // fig1-lb shares `b2f_nat`, so the unpartitioned global-state loop
    // runs; the faults drive quarantine and the compiled-to-model
    // fallback.
    Workload {
        name: "shared-faults",
        nf: "fig1-lb",
        source: |_| corpus::fig1_lb::source(),
        packets: [800, 1_000, 8_000],
        telemetry: false,
        fault_every: 250,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The NF's NFL source.
    pub fn source(&self, tiny: bool) -> String {
        (self.source)(tiny)
    }

    /// Packets per timed run for backend index `b` (see [`BACKENDS`]).
    pub fn packets(&self, b: usize, tiny: bool) -> u64 {
        if tiny {
            (self.packets[b] / 1000).clamp(40, 400)
        } else {
            self.packets[b]
        }
    }

    /// The seeded fault plan: one point in each block of `fault_every`
    /// packets, at a random offset, alternating evaluator error and
    /// panic. One shard, so a packet's per-shard ordinal is its arrival
    /// sequence number.
    pub fn fault_plan(&self, seed: u64, packets: u64, tiny: bool) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let every = if tiny {
            self.fault_every / 10
        } else {
            self.fault_every
        };
        if every == 0 {
            return plan;
        }
        let mut rng = Rng::new(seed ^ 0xFA17_5EED);
        for block in 0..packets / every {
            let kind = if block % 2 == 0 {
                FaultKind::EvalError
            } else {
                FaultKind::Panic
            };
            plan.push(FaultPoint {
                shard: ShardSel::One(0),
                nth: block * every + rng.gen_below(every),
                kind,
            });
        }
        plan
    }

    /// The run configuration of a timed run for `faults`.
    pub fn run_config(&self, faults: &FaultPlan) -> RunConfig {
        let mut cfg = RunConfig::sequential().with_faults(faults.clone());
        cfg.keep_outputs = false;
        cfg
    }
}

/// Independent seeded packet streams per run. Each backend's trace runs
/// cycle through them, so a run's throughput is a median over this many
/// inputs instead of one. How much state a stream leaves live, and with
/// it what the interpreter and model pay per packet, moves by ~7% from
/// one stream to the next at these lengths (fig1-lb, 800 packets: 244
/// to 326 live entries over seeds 1–10).
pub const STREAMS: usize = 8;

/// The seeds of a run's [`STREAMS`] packet streams, derived from the
/// run's seed.
pub fn stream_seeds(seed: u64) -> [u64; STREAMS] {
    let mut rng = Rng::new(seed);
    [(); STREAMS].map(|_| rng.next_u64())
}

/// Injected faults of `kind` that fire within the first `packets`
/// packets.
pub fn injected(plan: &FaultPlan, kind: FaultKind, packets: u64) -> u64 {
    plan.points()
        .iter()
        .filter(|p| p.kind == kind && p.nth < packets)
        .count() as u64
}

/// Write the seeded packet stream as one `.nfw` trace per backend, each
/// a prefix of the same stream, in a single pass over the generator.
pub fn write_traces(
    dir: &Path,
    tag: &str,
    seed: u64,
    sizes: [u64; 3],
) -> Result<[PathBuf; 3], String> {
    let paths = BACKENDS.map(|(_, b)| dir.join(format!("{tag}.{b}.nfw")));
    let mut writers = Vec::with_capacity(3);
    for p in &paths {
        let path = p.to_str().ok_or("trace path is not UTF-8")?;
        writers.push(NfwWriter::create(path, seed).map_err(|e| format!("{path}: {e}"))?);
    }
    let total = sizes.iter().copied().max().unwrap_or(0);
    let mut source = GenSource::new(seed, total);
    let mut buf: Vec<Packet> = Vec::with_capacity(4096);
    let mut seq = 0u64;
    loop {
        buf.clear();
        if source
            .next_batch(&mut buf, 4096)
            .map_err(|e| e.to_string())?
            == 0
        {
            break;
        }
        for pkt in &buf {
            for (w, &size) in writers.iter_mut().zip(&sizes) {
                if seq < size {
                    w.push(pkt).map_err(|e| e.to_string())?;
                }
            }
            seq += 1;
        }
    }
    for ((w, &size), p) in writers.into_iter().zip(&sizes).zip(&paths) {
        let written = w.finish().map_err(|e| format!("{}: {e}", p.display()))?;
        if written != size {
            return Err(format!(
                "{}: wrote {written} of {size} packets",
                p.display()
            ));
        }
    }
    Ok(paths)
}
