//! The sharded execution engine.
//!
//! A [`ShardEngine`] runs one NF — its NFL interpreter, its synthesized
//! model, or that model compiled ([`Backend`]) — across `n` worker
//! shards. The [`ShardPlan`] picks the run's *state-access policy*:
//!
//! * **Partitioned** plans are shared-nothing: each packet goes to the
//!   shard its dispatch hash picks, and every shard owns an evaluator
//!   with its own copy of the program state. Per-flow maps partition
//!   because all packets of a flow (and, for symmetric keys, its reply
//!   direction) land on one shard. There is deliberately **no work
//!   stealing**: stealing a packet would move it away from the shard
//!   that owns its flow state, which is exactly the locality the
//!   dispatch hash exists to preserve.
//! * **Global-lock** plans (shared state) give all shards one evaluator
//!   that steps every packet in arrival order on the calling thread, so
//!   the result is bit-identical to a single-threaded run — correct,
//!   serialised, and measured as such. Worker threads could only take
//!   turns on that one evaluator, and measured slower than stepping
//!   inline, so such a run uses no threads in any mode.
//!
//! Every run, whatever its mode and policy, has three parts:
//!
//! * the **dispatcher** pulls packets from a streaming
//!   [`WorkloadSource`] in [`BatchConfig::size`] batches, routes each
//!   one (dispatch hash plus the skew rebalancer, or round-robin under
//!   the lock), numbers it within its shard, and applies and accounts
//!   dispatch-side faults;
//! * one **worker** per shard runs the per-packet body: the supervised
//!   step on the evaluator the policy hands it, telemetry, counters and
//!   retained outputs (built only when the run keeps them). It steps
//!   packets in *runs* of back-to-back steps and reads the clock twice
//!   per run for its busy time; with telemetry on it reads it once per
//!   packet instead, plus once per run, and chains the stamps, so each
//!   packet's latency is the time since the previous stamp and a
//!   shard's latencies sum to its busy time;
//! * an **executor** connects the two. The threaded executor runs a
//!   partitioned [`RunMode::Threaded`] run's workers on scoped
//!   `std::thread`s fed over SPSC rings, one bin of up to a batch of
//!   packets per push; a bin is a run, and the dispatcher moves each
//!   packet into its bin. The inline executor runs everything else
//!   ([`RunMode::Sequential`], [`RunMode::Single`] and every
//!   global-lock run): it routes a whole batch, then steps each shard's
//!   share of it as a run on the calling thread (under the global lock,
//!   the batch in arrival order, one run per stretch routed to the same
//!   shard); its per-shard busy time gives a deterministic makespan on
//!   a host without free cores. It routes and steps every packet in
//!   the batch slot it was pulled into, and pulls the next batch with
//!   [`WorkloadSource::refill`] over the same slots, so no packet moves.
//!
//! One function assembles every [`ShardRun`]. It consumes the
//! evaluators into one merged view ([`ShardRun::merged`]) through the
//! engine's join plan, moving their state instead of copying it. The
//! engine plans the join once, listing every name of its prototype's
//! by-name view in name order with the name's initial value, verdict
//! and position (an interpreter global slot, or a store's config,
//! scalar slot or map arena). Every evaluator is a clone of the
//! prototype and layouts only append, so the join takes each name's
//! values straight out of the evaluators, with no by-name view per
//! evaluator and no lookup by name. Partitioned maps union: the first
//! shard's map takes the other shards' entries over (their key sets are
//! disjoint by construction — a collision is reported as an engine
//! bug). Log-only counters sum their per-shard deltas, and replicated
//! state is checked untouched. A global-lock run is a join of its one
//! evaluator, as a [`RunMode::Single`] run is.
//!
//! With [`BatchConfig::rebalance`] a partitioned dispatcher also
//! counters skew: when a shard's queue stays above the high-water mark
//! and the dispatcher-side hot-key sketch confirms a guaranteed heavy
//! hitter there, genuinely *new* flows that hash to the hot shard are
//! pinned to the least-loaded shard through a seen-flow table (flow
//! hash → shard). Flows that have been seen before are never moved, so
//! every flow keeps exactly one owner for the whole run — which is why
//! the sharded≡single differential invariant survives rebalancing
//! unconditionally.
//!
//! Every run is **supervised**: each packet's eval is wrapped in
//! `catch_unwind` and journalled by the evaluator's undo log, so a
//! panic or runtime error rolls partial state writes back and
//! quarantines the packet ([`crate::supervise`]) instead of aborting the
//! run; after an injected eval error the compiled backend retries the
//! packet on the model evaluator, with the model its program carries,
//! over the same state. The failure streak
//! that triggers a restart belongs to the evaluator a restart refreshes,
//! so under the global lock it counts the one evaluator's failures in
//! arrival order, in every mode. A deterministic [`FaultPlan`] in the
//! [`RunConfig`] threads through dispatch and eval so the chaos
//! differential suite can prove that non-quarantined behaviour is
//! byte-identical to the fault-free run.

use crate::dispatch::{fnv1a, Steering};
use crate::plan::ShardPlan;
use crate::supervise::{
    panic_message, quiet_catch_unwind, scramble_packet, Quarantine, QuarantineRecord,
    INJECTED_RING_DEADLINE, QUARANTINE_CAP, RESTART_AFTER,
};
use crate::telemetry::{
    FlightOutcome, HotKeySketch, RunStats, TelemetryConfig, WorkerTelemetry, HOTKEYS_K,
};
use nf_compile::{CompiledProgram, CompiledState};
use nf_model::{Model, ModelState, ModelStep};
use nf_packet::Packet;
use nf_support::fault::{FaultKind, FaultPlan};
use nf_support::spsc::{Backoff, Consumer, Producer, TrySendError};
use nf_support::workload::WorkloadSource;
use nf_trace::{Histogram, Tracer, DEFAULT_NS_BUCKETS};
use nfactor_core::{Pipeline, Synthesis};
use nfl_interp::{Interp, StepResult, Value, ValueKey};
use nfl_lint::{ShardingReport, StateShard};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ring capacity per worker; deep enough to absorb dispatch bursts,
/// shallow enough to bound memory.
const RING_CAP: usize = 1024;

/// Capacity of the rebalancer's seen-flow table. When the table is
/// full, migration stops and new flows route by pure hash — bounded
/// memory, still sound.
const FLOW_TABLE_CAP: usize = 65_536;

/// Bounds for the `shard.N.batch.fill` histogram: how full dispatch
/// bins are when pushed over a ring (1 = degenerate per-packet
/// dispatch).
const BATCH_FILL_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// One dispatch bin: `(arrival seq, per-shard ordinal, packet)` rows
/// pushed over the ring as a unit.
type Bin = Vec<(u64, u64, Packet)>;

/// A packet the inline executor has routed: `(shard, seq, nth, slot)`,
/// where `slot` is the packet's index in the batch it was pulled into.
/// The packet stays in that slot: the worker steps it there, and the
/// next pull overwrites it.
type Routed = (usize, u64, u64, usize);

/// The `(seq, nth, packet)` a worker steps for a routed packet of
/// `batch`.
fn row<'b>(batch: &'b [Packet]) -> impl Fn(&Routed) -> (u64, u64, &'b Packet) {
    move |&(_, seq, nth, slot)| (seq, nth, &batch[slot])
}

/// What executes on each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The NFL interpreter over the normalised program.
    Interp,
    /// The synthesized model evaluator.
    Model,
    /// The model compiled to a flattened XFSM dispatch engine
    /// (`nf-compile`): decision-tree flow classification, predicates
    /// and map probes memoised per packet, dense state arenas.
    Compiled,
}

/// Errors from building or running a shard engine.
#[derive(Debug)]
pub enum ShardError {
    /// Analysis, synthesis or backend set-up failure while building.
    Build(String),
    /// A shard hit a runtime error processing a packet.
    Runtime(String),
    /// Thread spawn/join failure.
    Thread(String),
    /// State merge detected an invariant violation (a partitioning or
    /// replication bug).
    Merge(String),
    /// The workload source failed mid-stream (truncated trace file,
    /// malformed record).
    Workload(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Build(m) => write!(f, "build: {m}"),
            ShardError::Runtime(m) => write!(f, "runtime: {m}"),
            ShardError::Thread(m) => write!(f, "thread: {m}"),
            ShardError::Merge(m) => write!(f, "merge: {m}"),
            ShardError::Workload(m) => write!(f, "workload: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

fn build_error(e: impl std::fmt::Display) -> ShardError {
    ShardError::Build(e.to_string())
}

/// How [`ShardEngine::run_with`] executes the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Real `std::thread` workers fed over SPSC rings, one per shard of
    /// a partitioned plan. Under the global lock there is one evaluator
    /// to step, so the run is the [`Sequential`](RunMode::Sequential)
    /// one.
    Threaded,
    /// The same dispatch executed on one thread with per-shard
    /// busy-time accounting — the deterministic way to measure
    /// partitioned speedup on a host without enough free cores.
    Sequential,
    /// The one-shard reference run every sharded run must match.
    Single,
}

/// Batched-dispatch tuning for [`RunConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Packets hashed and binned per dispatch round — and per ring
    /// push. Clamped up to 1 (1 reproduces per-packet dispatch).
    pub size: usize,
    /// Enable skew-aware rebalancing of new flows off overloaded
    /// shards (partitioned plans only; a no-op under the global lock).
    pub rebalance: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            size: 32,
            rebalance: false,
        }
    }
}

/// The unified run configuration for [`ShardEngine::run_with`], the
/// engine's one run entry point.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Execution mode: threaded, sequential, or single-shard.
    pub mode: RunMode,
    /// Deterministic fault plan injected into dispatch and eval; an
    /// empty plan runs fault-free.
    pub fault_plan: FaultPlan,
    /// Batch size and rebalancing knobs.
    pub batch: BatchConfig,
    /// Keep per-packet [`SeqOutput`]s (the differential oracles need
    /// them). `false` streams at constant memory, counting outcomes
    /// into [`ShardRun::forwarded`] instead.
    pub keep_outputs: bool,
}

impl RunConfig {
    fn with_mode(mode: RunMode) -> RunConfig {
        RunConfig {
            mode,
            fault_plan: FaultPlan::new(),
            batch: BatchConfig::default(),
            keep_outputs: true,
        }
    }

    /// A threaded run with default batching and no faults.
    pub fn threaded() -> RunConfig {
        RunConfig::with_mode(RunMode::Threaded)
    }

    /// A sequential run with default batching and no faults.
    pub fn sequential() -> RunConfig {
        RunConfig::with_mode(RunMode::Sequential)
    }

    /// The single-shard reference run.
    pub fn single() -> RunConfig {
        RunConfig::with_mode(RunMode::Single)
    }

    /// Inject a deterministic fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> RunConfig {
        self.fault_plan = faults;
        self
    }

    /// Replace the batching knobs.
    pub fn with_batch(mut self, batch: BatchConfig) -> RunConfig {
        self.batch = batch;
        self
    }

    /// Toggle skew-aware rebalancing.
    pub fn with_rebalance(mut self, on: bool) -> RunConfig {
        self.batch.rebalance = on;
        self
    }
}

/// One view over a run's fault/supervision counters — the single home
/// the CLI's fault-summary block and `stats_json` read, so new
/// counters (rebalance migrations) have exactly one place to land.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Packets quarantined at eval.
    pub quarantined: u64,
    /// Packets dropped at dispatch past an injected ring-overflow
    /// fault's retry deadline.
    pub dropped: u64,
    /// Worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Forced ring-full attempts an injected ring-overflow fault cost
    /// at dispatch, up to the retry deadline. Real ring back-pressure
    /// is timed in [`ShardRun::dispatch_wait_ns`] instead.
    pub retries: u64,
    /// Per-packet compiled→model fallbacks after injected eval errors.
    pub fallbacks: u64,
    /// New flows the skew-aware rebalancer migrated off overloaded
    /// shards.
    pub migrations: u64,
}

impl FaultSummary {
    /// Whether anything in the summary is nonzero (the CLI prints the
    /// block only then).
    pub fn any(&self) -> bool {
        self.quarantined > 0
            || self.dropped > 0
            || self.restarts > 0
            || self.retries > 0
            || self.fallbacks > 0
            || self.migrations > 0
    }
}

/// Per-shard program state, each with what it steps on: an
/// interpreter, a model store with its model, or a compiled program
/// (which carries its model) with its state, a model store too. Models
/// and programs are immutable and shared across shards via `Arc`.
#[derive(Debug, Clone)]
enum BackendState {
    Interp(Interp),
    Model {
        model: Arc<Model>,
        state: ModelState,
    },
    Compiled {
        prog: Arc<CompiledProgram>,
        state: CompiledState,
    },
}

/// Packet `'p`'s result, as its backend returned it. The worker reads
/// whether the packet was dropped from it, and turns it into a packet
/// list only when it keeps outputs.
enum Stepped<'p> {
    /// The interpreter's step: every `send`, in order.
    Interp(StepResult),
    /// The model evaluator's or the compiled program's step. An entry
    /// that rewrites nothing forwards the input packet by reference, so
    /// a run that drops outputs never copies a forwarded packet.
    Model(ModelStep<'p>),
}

impl Stepped<'_> {
    fn dropped(&self) -> bool {
        match self {
            Stepped::Interp(r) => r.dropped,
            Stepped::Model(m) => m.output.is_none(),
        }
    }

    /// The packets sent, owned: a borrowed forward is copied here, and
    /// only here.
    fn into_outputs(self) -> Vec<Packet> {
        match self {
            Stepped::Interp(r) => r.outputs,
            Stepped::Model(m) => m.output.map(Cow::into_owned).into_iter().collect(),
        }
    }
}

impl BackendState {
    /// Process one packet.
    fn step<'p>(&mut self, pkt: &'p Packet) -> Result<Stepped<'p>, String> {
        match self {
            BackendState::Interp(i) => i
                .process(pkt)
                .map(Stepped::Interp)
                .map_err(|e| e.to_string()),
            BackendState::Model { model, state } => state
                .step(model, pkt)
                .map(Stepped::Model)
                .map_err(|e| e.to_string()),
            BackendState::Compiled { prog, state } => state
                .step(prog, pkt)
                .map(Stepped::Model)
                .map_err(|e| e.to_string()),
        }
    }

    /// Consume the evaluator into its state by position, for the join
    /// ([`JoinPlan`]).
    fn into_parts(self) -> Parts {
        match self {
            BackendState::Interp(i) => Parts::Globals(i.globals),
            BackendState::Model { state, .. } => Parts::Store(state.into_parts()),
            BackendState::Compiled { state, .. } => Parts::Store(state.store.into_parts()),
        }
    }

    /// Every name the evaluator's state has a position for: the
    /// interpreter's globals, or the store's configs, scalar slots and
    /// map arenas, in that order.
    fn positions(&self) -> Vec<(&str, At)> {
        let store = match self {
            BackendState::Interp(i) => {
                let names = i.global_names().iter().enumerate();
                return names.map(|(g, n)| (n.as_str(), At::Global(g))).collect();
            }
            BackendState::Model { state, .. } => state,
            BackendState::Compiled { state, .. } => &state.store,
        };
        let configs = store.configs.keys().enumerate();
        let configs = configs.map(|(c, n)| (n.as_str(), At::Config(c)));
        let slots = store.layout().slot_names().iter().enumerate();
        let slots = slots.map(|(i, n)| (n.as_str(), At::Scalar(i)));
        let maps = store.layout().map_names().iter().enumerate();
        let maps = maps.map(|(i, n)| (n.as_str(), At::Map(i)));
        configs.chain(slots).chain(maps).collect()
    }

    /// The backend's display name (quarantine records, metrics).
    fn label(&self) -> &'static str {
        match self {
            BackendState::Interp(_) => "interp",
            BackendState::Model { .. } => "model",
            BackendState::Compiled { .. } => "compiled",
        }
    }

    /// The backend's step generation: every evaluator bumps it when a
    /// step begins and banks the pre-image of each write as it makes
    /// it, so this number is the whole journal of a packet.
    fn journal(&self) -> Journal {
        match self {
            BackendState::Interp(i) => i.packets_seen(),
            BackendState::Model { state, .. } => state.generation(),
            BackendState::Compiled { state, .. } => state.store.generation(),
        }
    }

    /// Undo the packet journalled by [`journal`](Self::journal): a
    /// failed packet leaves no trace, however far into a fire it got.
    /// The evaluator's undo log is replayed only if a step began since
    /// — an injected fault fails *before* stepping, and replaying there
    /// would un-commit the previous, successful packet.
    fn rollback(&mut self, journal: Journal) {
        if self.journal() == journal {
            return;
        }
        match self {
            BackendState::Interp(i) => i.revert(),
            BackendState::Model { state, .. } => state.revert(),
            BackendState::Compiled { state, .. } => state.store.revert(),
        }
    }

    /// Supervisor restart: drop derived caches, in place. Only the
    /// compiled backend carries derived state (its memo); the
    /// interpreter and model evaluator *are* their persistent state, so
    /// a restart is a no-op for them beyond the supervisor's accounting.
    fn refresh(&mut self) {
        if let BackendState::Compiled { state, .. } = self {
            state.clear_memo();
        }
    }

    /// The per-packet compiled→model fallback after an injected eval
    /// error: the reference step, with the model the program carries, on
    /// the compiled state's own store. The compiled engine's one-sided
    /// contract (identical behaviour wherever the reference succeeds)
    /// makes this exact: any packet the model can evaluate produces the
    /// same output either way. `None` when the backend has no fallback.
    fn fallback_step<'p>(&mut self, pkt: &'p Packet) -> Option<Result<Stepped<'p>, String>> {
        let BackendState::Compiled { prog, state } = self else {
            return None;
        };
        Some(
            state
                .store
                .step(&prog.model, pkt)
                .map(Stepped::Model)
                .map_err(|e| e.to_string()),
        )
    }
}

/// One packet's journal: the backend's step generation, captured
/// before eval (see [`BackendState::journal`]). Every backend keeps an
/// undo log of the pre-images its most recent step overwrote, so
/// rollback costs O(entries the packet touched) — a full pre-image
/// copy would cost O(live flows) on every packet.
type Journal = u64;

/// One isolated eval: apply eval-side faults, journal, step under
/// `catch_unwind`, roll back on any failure. `Err` carries the
/// quarantine reason, and the state is pre-packet clean whenever it is
/// returned. An injected eval error on the compiled backend retries the
/// packet on the model evaluator over the same state, under the same
/// guard. An organic compiled error is not retried: the compiled step
/// already ran the reference step for any packet its fast path
/// declines, so the error is the model's own.
fn supervised_step<'p>(
    state: &mut BackendState,
    shard: usize,
    nth: u64,
    pkt: &'p Packet,
    faults: &FaultPlan,
    fallbacks: &mut u64,
) -> Result<Stepped<'p>, String> {
    let (mut inject_panic, mut inject_err, mut garbage) = (false, false, false);
    if !faults.is_empty() {
        for k in faults.at(shard, nth) {
            match k {
                FaultKind::Panic => inject_panic = true,
                FaultKind::EvalError => inject_err = true,
                FaultKind::Garbage => garbage = true,
                FaultKind::Delay(us) => std::thread::sleep(Duration::from_micros(us)),
                FaultKind::RingOverflow(_) => {} // dispatch-side, handled there
            }
        }
    }
    if garbage {
        // The dispatcher scrambled this packet in flight; reject it
        // before eval so no corrupted bytes reach the state.
        return Err("garbage packet detected before eval".into());
    }
    let journal = state.journal();
    let stepped = quiet_catch_unwind(|| {
        if inject_panic {
            panic!("injected fault: panic on shard {shard} packet {nth}");
        }
        if !inject_err {
            return state.step(pkt);
        }
        // The injected error fails before any step, so the fallback
        // starts on the pre-packet state; its writes stay under
        // `journal`, so the rollback below undoes them if it fails.
        let e = format!("injected fault: eval error on shard {shard} packet {nth}");
        match state.fallback_step(pkt) {
            None => Err(e),
            Some(Ok(out)) => {
                *fallbacks += 1;
                Ok(out)
            }
            Some(Err(fe)) => Err(format!("{e}; model fallback failed: {fe}")),
        }
    });
    match stepped {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => {
            state.rollback(journal);
            Err(e)
        }
        Err(msg) => {
            state.rollback(journal);
            Err(format!("panicked: {msg}"))
        }
    }
}

/// One evaluator and the supervision state that belongs to it: the
/// consecutive-failure streak a restart resets, and the restart and
/// fallback tallies. A partitioned run gives every shard its own; under
/// the global lock every shard's packets step on one, in arrival order
/// on one thread, so its streak counts failures in arrival order
/// whichever shard each packet came from.
struct Evaluator {
    state: BackendState,
    fail_streak: u32,
    restarts: u64,
    fallbacks: u64,
}

impl Evaluator {
    fn new(state: BackendState) -> Evaluator {
        Evaluator {
            state,
            fail_streak: 0,
            restarts: 0,
            fallbacks: 0,
        }
    }

    /// [`supervised_step`], then supervision: a success ends the
    /// streak, and [`RESTART_AFTER`] failures in a row restart the
    /// evaluator in place.
    fn step<'p>(
        &mut self,
        shard: usize,
        nth: u64,
        pkt: &'p Packet,
        faults: &FaultPlan,
    ) -> Result<Stepped<'p>, String> {
        let stepped = supervised_step(
            &mut self.state,
            shard,
            nth,
            pkt,
            faults,
            &mut self.fallbacks,
        );
        if stepped.is_ok() {
            self.fail_streak = 0;
        } else {
            self.fail_streak += 1;
            if self.fail_streak >= RESTART_AFTER {
                self.state.refresh();
                self.restarts += 1;
                self.fail_streak = 0;
            }
        }
        stepped
    }
}

/// Dispatch-side faults at `(shard, nth)`: forced ring-full attempts
/// and whether to scramble the packet.
fn dispatch_faults(faults: &FaultPlan, shard: usize, nth: u64) -> (u64, bool) {
    if faults.is_empty() {
        // Fault-free runs stay off the per-packet lookup path.
        return (0, false);
    }
    let (mut forced, mut garbage) = (0u64, false);
    for k in faults.at(shard, nth) {
        match k {
            FaultKind::RingOverflow(a) => forced = forced.max(a),
            FaultKind::Garbage => garbage = true,
            _ => {}
        }
    }
    (forced, garbage)
}

/// Simulate a per-packet retry loop for *forced* ring-full faults at
/// routing time, in every mode (bins mean the ring is pushed once per
/// batch, so a forced per-packet full can no longer collide with a
/// genuinely full ring). Every forced attempt is a retry until
/// [`INJECTED_RING_DEADLINE`] runs out. Returns whether the packet is
/// delivered.
fn simulate_dispatch(forced: u64, retries: &mut u64) -> bool {
    let deadline = u64::from(INJECTED_RING_DEADLINE);
    *retries += forced.min(deadline + 1);
    forced <= deadline
}

/// Enqueue one bin, with spin-then-yield backoff while the ring is
/// full: a draining worker always makes room. The backoff is timed
/// into `wait_ns`, not counted as retries: how often a ring is full
/// depends on thread timing, and a run's fault summary must not.
/// `Err(())` means the worker is gone (its join reports why).
fn send_bin(tx: &Producer<Bin>, mut bin: Bin, wait_ns: &mut u64) -> Result<(), ()> {
    let mut backoff = Backoff::new();
    // Time spent in the retry path is ring-full *waiting*, not
    // dispatch work; it is accounted separately so the dispatch-plane
    // cost (`dispatch_ns - dispatch_wait_ns`) stays meaningful even
    // when the workers are the bottleneck. The clock starts only on
    // the first full ring, so the delivered-first-try fast path never
    // touches it.
    let mut waited: Option<Instant> = None;
    let result = loop {
        match tx.try_send(bin) {
            Ok(()) => break Ok(()),
            Err((_, TrySendError::Disconnected)) => break Err(()),
            Err((b, TrySendError::Full)) => bin = b,
        }
        waited.get_or_insert_with(Instant::now);
        backoff.snooze();
    };
    if let Some(t0) = waited {
        *wait_ns += t0.elapsed().as_nanos() as u64;
    }
    result
}

/// Whether a shard's hot-key sketch proves a genuine heavy hitter: the
/// top entry's count lower bound (count − err) must clear the sketch's
/// tracking guarantee, so mere uniform load never opens a divert.
fn has_heavy_hitter(sketch: &HotKeySketch) -> bool {
    sketch
        .entries()
        .first()
        .is_some_and(|e| e.count.saturating_sub(e.err) > sketch.guarantee())
}

/// Dispatcher-side skew rebalancer.
///
/// Soundness rests on one rule: **only flows the dispatcher has never
/// seen migrate**. Every flow hash gets a pinned shard the first time
/// it appears (usually its hash shard; the divert target while a
/// divert is open) and keeps it for the whole run, so each flow has
/// exactly one owner and per-flow partitioned state never splits. When
/// the seen-flow table hits [`FLOW_TABLE_CAP`], migration simply stops —
/// flows not in the table route by pure hash, which is the same stable
/// assignment they would have had anyway.
struct Rebalancer {
    enabled: bool,
    /// The load that opens a divert: 3/4 of the executor's queue depth
    /// — ring depth in bins when threaded, the batch size inline (where
    /// the load signal is per-round bin fill).
    high_water: u64,
    /// flow hash → pinned shard.
    table: HashMap<u64, usize>,
    /// Open divert per shard: new flows hashing there go to the target.
    divert: Vec<Option<usize>>,
    migrations: u64,
}

impl Rebalancer {
    fn new(enabled: bool, shards: usize, depth: usize) -> Rebalancer {
        Rebalancer {
            enabled: enabled && shards > 1,
            high_water: (depth as u64 * 3 / 4).max(1),
            table: HashMap::new(),
            divert: vec![None; shards],
            migrations: 0,
        }
    }

    /// Route one packet: its hash shard, unless the flow is pinned
    /// elsewhere or is brand new while a divert is open on its shard.
    fn route(&mut self, hash: u64, hash_shard: usize) -> usize {
        if !self.enabled {
            return hash_shard;
        }
        if let Some(&shard) = self.table.get(&hash) {
            return shard;
        }
        if self.table.len() >= FLOW_TABLE_CAP {
            // Table full: this flow routes by hash forever — stable,
            // so still sound. Do not insert.
            return hash_shard;
        }
        let target = self.divert[hash_shard].unwrap_or(hash_shard);
        self.table.insert(hash, target);
        if target != hash_shard {
            self.migrations += 1;
        }
        target
    }

    /// Batch-boundary control step: close diverts whose shard has
    /// drained to half the high-water mark, open one (to the
    /// least-loaded shard) where load is high *and* the sketch proves a
    /// heavy hitter.
    fn boundary(&mut self, loads: &[u64], sketches: &[HotKeySketch]) {
        if !self.enabled {
            return;
        }
        for s in 0..self.divert.len() {
            if self.divert[s].is_some() {
                if loads[s] <= self.high_water / 2 {
                    self.divert[s] = None;
                }
            } else if loads[s] > self.high_water && sketches.get(s).is_some_and(has_heavy_hitter) {
                let target = (0..loads.len())
                    .filter(|&t| t != s)
                    .min_by_key(|&t| loads[t]);
                if let Some(t) = target {
                    self.divert[s] = Some(t);
                }
            }
        }
    }
}

/// One shard's per-packet body and its accounting: the supervised step
/// on the evaluator the state-access policy hands it, busy time,
/// telemetry, counters, quarantine and retained outputs. Both executors
/// step packets through [`run`](Self::run), a stretch at a time.
struct ShardWorker<'a> {
    shard: usize,
    label: &'static str,
    faults: &'a FaultPlan,
    keep_outputs: bool,
    tracer: &'a Tracer,
    quarantine: Quarantine,
    tel: Option<WorkerTelemetry>,
    outputs: Vec<SeqOutput>,
    pkts: u64,
    busy_ns: u64,
    forwarded: u64,
}

impl<'a> ShardWorker<'a> {
    /// Step a run of back-to-back packets `(seq, nth, packet)` on `ev`,
    /// and add the run's wall time to busy time. `start` is the run's
    /// first clock stamp when the caller already holds one (a ring
    /// wait's end, the previous stretch's last stamp); otherwise the
    /// run reads it. Returns the run's last stamp, or `start` for an
    /// empty run, which reads no clock.
    ///
    /// With telemetry on, the clock is read once per packet, right
    /// after its step, and the stamps chain: a packet's latency is the
    /// time since the previous stamp (its own step plus the previous
    /// packet's accounting), and busy time is the last stamp minus the
    /// first, so a shard's latency samples sum exactly to its busy
    /// time. With telemetry off the run reads the clock once more, at
    /// its end.
    fn run<'p>(
        &mut self,
        ev: &mut Evaluator,
        rows: impl IntoIterator<Item = (u64, u64, &'p Packet)>,
        start: Option<Instant>,
    ) -> Option<Instant> {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return start;
        }
        let first = start.unwrap_or_else(|| self.tracer.now());
        let mut last = first;
        for (seq, nth, pkt) in rows {
            self.handle(ev, seq, nth, pkt, &mut last);
        }
        if self.tel.is_none() {
            last = self.tracer.now();
        }
        self.busy_ns += ns_between(first, last);
        Some(last)
    }

    /// Step one packet on `ev` under supervision and account it. While
    /// telemetry records, the packet's stamp is read right after its
    /// step and becomes `last`.
    fn handle(&mut self, ev: &mut Evaluator, seq: u64, nth: u64, pkt: &Packet, last: &mut Instant) {
        let step = ev.step(self.shard, nth, pkt, self.faults);
        if let Some(tel) = self.tel.as_mut() {
            let now = self.tracer.now();
            let outcome = match &step {
                Ok(s) if s.dropped() => FlightOutcome::Dropped,
                Ok(_) => FlightOutcome::Forwarded,
                Err(_) => FlightOutcome::Quarantined,
            };
            tel.record(seq, ns_between(*last, now), outcome, pkt);
            tel.maybe_flush(self.tracer);
            *last = now;
        }
        match step {
            Ok(stepped) => {
                let dropped = stepped.dropped();
                self.pkts += 1;
                self.forwarded += u64::from(!dropped);
                if self.keep_outputs {
                    self.outputs.push(SeqOutput {
                        seq,
                        shard: self.shard,
                        outputs: stepped.into_outputs(),
                        dropped,
                    });
                }
            }
            Err(error) => self.quarantine.push(QuarantineRecord {
                seq,
                shard: self.shard,
                backend: self.label,
                error,
                packet: pkt.clone(),
            }),
        }
    }

    /// The threaded executor's worker loop: drain bins off the ring
    /// until the dispatcher hangs up, each bin one run on the worker's
    /// own evaluator, and hand both back. With a recording tracer, each
    /// ring wait runs from the previous run's last stamp to the bin's
    /// arrival, whose stamp also starts the bin's run; the waits
    /// collect in a local histogram, merged into the tracer once, when
    /// the ring closes.
    fn drain(mut self, rx: Consumer<Bin>, mut ev: Evaluator) -> (ShardWorker<'a>, Evaluator) {
        let mut waits = self
            .tracer
            .is_enabled()
            .then(|| Histogram::new(&DEFAULT_NS_BUCKETS));
        let mut last = waits.is_some().then(|| self.tracer.now());
        while let Some(bin) = rx.recv() {
            let start = match (waits.as_mut(), last) {
                (Some(waits), Some(waited)) => {
                    let now = self.tracer.now();
                    waits.observe(ns_between(waited, now));
                    Some(now)
                }
                _ => None,
            };
            if let Some(tel) = self.tel.as_mut() {
                // Bins still queued after this dequeue — the backlog
                // signal.
                tel.occupancy(rx.len() as u64);
            }
            let rows = bin.iter().map(|(seq, nth, pkt)| (*seq, *nth, pkt));
            last = self.run(&mut ev, rows, start);
        }
        if let Some(waits) = waits {
            let name = format!("shard.{}.ring.wait.ns", self.shard);
            self.tracer.merge_histogram(&name, &waits);
        }
        (self, ev)
    }
}

/// Nanoseconds from `from` to `to` (0 if `to` is earlier).
fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// The observable result of processing one packet, tagged with its
/// global arrival sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqOutput {
    /// Global arrival index of the input packet.
    pub seq: u64,
    /// The shard that processed it.
    pub shard: usize,
    /// Packets emitted by `send`, in order.
    pub outputs: Vec<Packet>,
    /// Whether the packet was dropped.
    pub dropped: bool,
}

/// The merged result of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Per-packet results, sorted by arrival sequence.
    pub outputs: Vec<SeqOutput>,
    /// Merged state: per-flow maps unioned, log counters delta-summed,
    /// replicated state verified, keyed by variable name.
    pub merged: BTreeMap<String, Value>,
    /// Packets processed by each shard.
    pub per_shard_pkts: Vec<u64>,
    /// Busy (processing) nanoseconds per shard.
    pub busy_ns: Vec<u64>,
    /// Whether every shard stepped its own evaluator (a partitioned
    /// plan, or a single run). `false` under the global lock, where one
    /// evaluator stepped every packet in arrival order.
    pub partitioned: bool,
    /// Retained quarantine records: the [`QUARANTINE_CAP`] with the
    /// lowest arrival seqs.
    pub quarantined: Vec<QuarantineRecord>,
    /// Arrival seqs of *all* quarantined packets (exact, sorted).
    pub quarantined_seqs: Vec<u64>,
    /// Arrival seqs dropped at dispatch past an injected ring-overflow
    /// fault's retry deadline.
    pub dropped_seqs: Vec<u64>,
    /// Worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Forced ring-full attempts an injected ring-overflow fault cost
    /// at dispatch, up to the retry deadline ([`FaultSummary::retries`]).
    pub retries: u64,
    /// Per-packet compiled→model fallbacks: compiled-backend packets an
    /// injected eval error failed and the model step then stepped (the
    /// run continues).
    pub fallbacks: u64,
    /// Packets forwarded (processed and not dropped by the NF) —
    /// counted even when per-packet outputs are not retained
    /// ([`RunConfig::keep_outputs`] = false).
    pub forwarded: u64,
    /// New flows the skew-aware rebalancer migrated off overloaded
    /// shards (0 when rebalancing is off).
    pub migrations: u64,
    /// Wall-clock nanoseconds the dispatcher thread spent from first
    /// to last packet on a threaded partitioned run; 0 when dispatch is
    /// inlined into the worker loop, as in sequential and single runs
    /// and every global-lock run.
    pub dispatch_ns: u64,
    /// The share of [`ShardRun::dispatch_ns`] spent in bounded backoff
    /// on full rings — worker-bound time, not dispatch work.
    /// `dispatch_ns - dispatch_wait_ns` is the active dispatch-plane
    /// cost: source pulls, hashing, binning, and ring pushes. This is
    /// the quantity batched dispatch amortizes (`--bench stream`).
    pub dispatch_wait_ns: u64,
    /// Telemetry-plane summary: per-shard latency/occupancy histograms,
    /// hot keys, and the flight recorder. `None` when telemetry is off
    /// (disabled config or disabled tracer).
    pub stats: Option<RunStats>,
}

impl ShardRun {
    /// Total packets processed.
    pub fn total_pkts(&self) -> u64 {
        self.per_shard_pkts.iter().sum()
    }

    /// The run's critical path: with partitioned shards the slowest
    /// shard bounds completion; under the global lock the work is
    /// serialised, so the critical path is the sum.
    pub fn makespan_ns(&self) -> u64 {
        if self.partitioned {
            self.busy_ns.iter().copied().max().unwrap_or(0)
        } else {
            self.busy_ns.iter().sum()
        }
    }

    /// The externally observable behaviour, shard assignment erased —
    /// what a differential oracle compares across shard counts.
    pub fn output_signature(&self) -> Vec<(u64, Vec<Packet>, bool)> {
        self.outputs
            .iter()
            .map(|o| (o.seq, o.outputs.clone(), o.dropped))
            .collect()
    }

    /// Packets offered to the run: processed + quarantined + dropped.
    /// Always equals the input length — the accounting invariant the
    /// robustness suite pins.
    pub fn offered(&self) -> u64 {
        self.total_pkts() + self.quarantined_seqs.len() as u64 + self.dropped_seqs.len() as u64
    }

    /// Sorted arrival seqs excluded from `outputs` (quarantined at eval
    /// or dropped at dispatch) — what a chaos oracle filters from the
    /// fault-free reference input before comparing.
    pub fn excluded_seqs(&self) -> Vec<u64> {
        let mut seqs: Vec<u64> = self
            .quarantined_seqs
            .iter()
            .chain(&self.dropped_seqs)
            .copied()
            .collect();
        seqs.sort_unstable();
        seqs
    }

    /// One view over the run's fault/supervision counters — what the
    /// CLI fault-summary block and [`stats_json`](Self::stats_json)
    /// both read.
    pub fn fault_summary(&self) -> FaultSummary {
        FaultSummary {
            quarantined: self.quarantined_seqs.len() as u64,
            dropped: self.dropped_seqs.len() as u64,
            restarts: self.restarts,
            retries: self.retries,
            fallbacks: self.fallbacks,
            migrations: self.migrations,
        }
    }

    /// The `--stats-json` document: run-level accounting plus the
    /// telemetry plane's per-shard detail. `None` when telemetry was
    /// off for the run.
    pub fn stats_json(&self) -> Option<nf_support::json::Value> {
        use nf_support::json::Value as J;
        let stats = self.stats.as_ref()?;
        let faults = self.fault_summary();
        let int = |v: u64| J::Int(i64::try_from(v).unwrap_or(i64::MAX));
        Some(J::Object(vec![
            ("packets".into(), int(self.total_pkts())),
            ("offered".into(), int(self.offered())),
            (
                "partitioned".into(),
                J::Str(if self.partitioned { "true" } else { "false" }.into()),
            ),
            ("quarantined".into(), int(faults.quarantined)),
            ("dropped".into(), int(faults.dropped)),
            ("restarts".into(), int(faults.restarts)),
            ("retries".into(), int(faults.retries)),
            ("fallbacks".into(), int(faults.fallbacks)),
            ("migrations".into(), int(faults.migrations)),
            ("makespan_ns".into(), int(self.makespan_ns())),
            (
                "telemetry".into(),
                stats.to_json(&self.per_shard_pkts, &self.busy_ns),
            ),
        ]))
    }
}

/// The dispatch plane both executors share: pulls batches, routes each
/// packet (the dispatch hash plus the [`Rebalancer`] for partitioned
/// plans, round-robin under the global lock), numbers it within its
/// shard, applies dispatch-side faults and accounts every drop.
struct Dispatcher<'a> {
    n: usize,
    /// The plan's dispatch key, prepared once per run; `None` under the
    /// global lock.
    steering: Option<Steering<'a>>,
    faults: &'a FaultPlan,
    batch: usize,
    rebalancer: Rebalancer,
    seq: u64,
    steered: Vec<u64>,
    /// Packets routed to each shard in the current round.
    round: Vec<u64>,
    retries: Vec<u64>,
    dropped_seqs: Vec<u64>,
    dropped_per_shard: Vec<u64>,
    /// Per-shard hot-key sketches: the telemetry plane's profile and
    /// the rebalancer's divert evidence.
    sketches: Vec<HotKeySketch>,
    fill: Vec<Histogram>,
}

/// What the dispatch plane hands [`ShardEngine::assemble`].
struct Dispatched {
    retries: Vec<u64>,
    dropped_seqs: Vec<u64>,
    dropped_per_shard: Vec<u64>,
    sketches: Vec<HotKeySketch>,
    migrations: u64,
}

impl<'a> Dispatcher<'a> {
    fn new(engine: &'a ShardEngine, cfg: &'a RunConfig, n: usize, depth: usize) -> Dispatcher<'a> {
        let key = engine.plan.dispatch();
        let telemetry_on = engine.telemetry_on();
        let rebalancer = Rebalancer::new(cfg.batch.rebalance && key.is_some(), n, depth);
        let sketched = key.is_some() && (telemetry_on || rebalancer.enabled);
        Dispatcher {
            n,
            steering: key.map(Steering::new),
            faults: &cfg.fault_plan,
            batch: cfg.batch.size.max(1),
            rebalancer,
            seq: 0,
            steered: vec![0; n],
            round: vec![0; n],
            retries: vec![0; n],
            dropped_seqs: Vec::new(),
            dropped_per_shard: vec![0; n],
            sketches: if sketched {
                (0..n).map(|_| HotKeySketch::with_data(HOTKEYS_K)).collect()
            } else {
                Vec::new()
            },
            fill: if telemetry_on {
                (0..n).map(|_| Histogram::new(&BATCH_FILL_BOUNDS)).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Start a round: refill `buf` with the next batch, overwriting the
    /// packets it still holds (the inline executor's last batch; the
    /// threaded executor drains `buf` into its bins). `false` at the
    /// end of the stream.
    fn pull(
        &mut self,
        source: &mut dyn WorkloadSource<Item = Packet>,
        buf: &mut Vec<Packet>,
    ) -> Result<bool, String> {
        self.round.fill(0);
        let got = source.refill(buf, self.batch).map_err(|e| e.to_string())?;
        Ok(got > 0)
    }

    /// Route the next packet in arrival order to `(shard, seq, nth)`,
    /// scrambling it in place under a garbage fault; `None` when
    /// dispatch dropped it. The packet's dispatch hash is computed once,
    /// when routing or the hot-key sketch needs it, and serves both.
    fn route(&mut self, pkt: &mut Packet) -> Option<(usize, u64, u64)> {
        let seq = self.seq;
        self.seq += 1;
        let w = match &self.steering {
            // One shard and no sketch: nothing reads the hash.
            Some(_) if self.n == 1 && self.sketches.is_empty() => 0,
            // The key's values are read once: hashed here, and copied
            // into the sketch when it takes the flow in.
            Some(steering) => steering.with_values(pkt, |values| {
                let h = fnv1a(values);
                let w = if self.n > 1 {
                    self.rebalancer.route(h, (h % self.n as u64) as usize)
                } else {
                    0
                };
                if let Some(sketch) = self.sketches.get_mut(w) {
                    sketch.offer_with(h, |data| {
                        data.clear();
                        data.extend_from_slice(values);
                    });
                }
                w
            }),
            // Round-robin: one evaluator steps every packet in arrival
            // order anyway.
            None => (seq % self.n as u64) as usize,
        };
        self.round[w] += 1;
        let nth = self.steered[w];
        self.steered[w] += 1;
        let (forced, garbage) = dispatch_faults(self.faults, w, nth);
        if !simulate_dispatch(forced, &mut self.retries[w]) {
            self.dropped_seqs.push(seq);
            self.dropped_per_shard[w] += 1;
            return None;
        }
        if garbage {
            scramble_packet(pkt, seq);
        }
        Some((w, seq, nth))
    }

    /// The threaded executor's ring push: record the bin's fill and
    /// send it. `Err(())` means the worker is gone.
    fn flush(
        &mut self,
        w: usize,
        bin: &mut Bin,
        tx: &Producer<Bin>,
        wait_ns: &mut u64,
    ) -> Result<(), ()> {
        if bin.is_empty() {
            return Ok(());
        }
        if let Some(h) = self.fill.get_mut(w) {
            h.observe(bin.len() as u64);
        }
        let out = std::mem::replace(bin, Vec::with_capacity(self.batch));
        send_bin(tx, out, wait_ns)
    }

    /// The inline executor's batch boundary: each shard's share of the
    /// round is both its bin fill and the rebalancer's load signal.
    fn end_round(&mut self) {
        for (h, &c) in self.fill.iter_mut().zip(&self.round) {
            if c > 0 {
                h.observe(c);
            }
        }
        self.rebalancer.boundary(&self.round, &self.sketches);
    }

    /// Publish the dispatch plane's metrics and hand over its
    /// accounting (hot keys only when telemetry is on).
    fn finish(self, tracer: &Tracer, telemetry_on: bool) -> Dispatched {
        for (w, h) in self.fill.iter().enumerate() {
            tracer.merge_histogram(&format!("shard.{w}.batch.fill"), h);
        }
        if self.rebalancer.migrations > 0 {
            tracer.count("shard.rebalance.migrations", self.rebalancer.migrations);
        }
        Dispatched {
            retries: self.retries,
            dropped_seqs: self.dropped_seqs,
            dropped_per_shard: self.dropped_per_shard,
            sketches: if telemetry_on {
                self.sketches
            } else {
                Vec::new()
            },
            migrations: self.rebalancer.migrations,
        }
    }
}

/// A sharded runtime instance for one NF: the prototype every run
/// clones its evaluators from, the placement plan, and the join plan
/// every run merges its evaluators' state by (see the module docs).
pub struct ShardEngine {
    name: String,
    shards: usize,
    plan: ShardPlan,
    report: ShardingReport,
    tracer: Tracer,
    /// The initial evaluator every run clones its own from (one per
    /// shard when partitioned, one under the global lock): the
    /// backend's state together with what it steps on (the model, or the
    /// compiled program and the model it carries).
    proto: BackendState,
    /// How a run joins its evaluators: `proto`'s by-name view with
    /// each name's verdict and position. `proto` never changes, so this
    /// is planned once, when the engine is built.
    join: JoinPlan,
    telemetry: TelemetryConfig,
}

impl ShardEngine {
    /// Build an engine from NFL source. The pipeline's front half
    /// ([`Pipeline::analyze`]) runs once: it parses, normalises and
    /// slices the program, and takes the placement verdict on the PDG
    /// it slices on. The interpreter backend runs the normalised
    /// program from there, with no symbolic execution. The model and
    /// compiled backends continue through [`Pipeline::finish`] into
    /// [`ShardEngine::from_synthesis`]. Shard count and tracer come
    /// from the [`Pipeline`].
    pub fn from_source(
        pipeline: &Pipeline,
        src: &str,
        backend: Backend,
    ) -> Result<ShardEngine, ShardError> {
        let analysis = pipeline.analyze(src).map_err(build_error)?;
        match backend {
            Backend::Interp => {
                let interp = Interp::new(&analysis.nf_loop).map_err(build_error)?;
                Ok(ShardEngine::new(
                    pipeline,
                    analysis.name,
                    analysis.sharding,
                    BackendState::Interp(interp),
                ))
            }
            Backend::Model | Backend::Compiled => {
                let syn = pipeline.finish(analysis).map_err(build_error)?;
                ShardEngine::from_synthesis(pipeline, &syn, backend)
            }
        }
    }

    /// Build an engine from an existing [`Synthesis`] (avoids
    /// re-running the pipeline when the caller already has one) for any
    /// backend: the interpreter runs the synthesis's normalised
    /// program, the model backend its synthesized model, and the
    /// compiled backend the model lowered by `nf-compile` against the
    /// program's initial configuration and state. State is placed by
    /// the verdict the synthesis carries ([`Synthesis::sharding`]); no
    /// analysis runs here.
    pub fn from_synthesis(
        pipeline: &Pipeline,
        syn: &Synthesis,
        backend: Backend,
    ) -> Result<ShardEngine, ShardError> {
        let tracer = pipeline.tracer();
        // The interpreter and, for the model backends, the model's
        // initial state: one span, closed before compiling.
        let init_span = tracer.span("engine.init_state");
        let interp = Interp::new(&syn.nf_loop).map_err(build_error)?;
        let proto = match backend {
            Backend::Interp => {
                init_span.end();
                BackendState::Interp(interp)
            }
            Backend::Model => {
                let state = nfactor_core::accuracy::initial_model_state(syn, &interp);
                init_span.end();
                BackendState::Model {
                    model: Arc::new(syn.model.clone()),
                    state,
                }
            }
            Backend::Compiled => {
                let init = nfactor_core::accuracy::initial_model_state(syn, &interp);
                init_span.end();
                let t0 = Instant::now();
                let prog = nf_compile::compile(&syn.model, &init).map_err(build_error)?;
                tracer.observe_ns("compile.ns", t0.elapsed().as_nanos() as u64);
                tracer.count("compiled.nodes", prog.node_count() as u64);
                tracer.count("compiled.table.entries", prog.entry_count() as u64);
                let state = nf_compile::CompiledState::new(&prog);
                BackendState::Compiled {
                    prog: Arc::new(prog),
                    state,
                }
            }
        };
        Ok(ShardEngine::new(
            pipeline,
            syn.name.clone(),
            syn.sharding.clone(),
            proto,
        ))
    }

    /// The one constructor both entry points end in: the plan follows
    /// from the verdict, the rest from the pipeline and the defaults.
    fn new(
        pipeline: &Pipeline,
        name: String,
        report: ShardingReport,
        proto: BackendState,
    ) -> ShardEngine {
        ShardEngine {
            name,
            shards: pipeline.shards(),
            plan: ShardPlan::from_report(&report),
            join: JoinPlan::new(&report, &proto),
            report,
            tracer: pipeline.tracer().clone(),
            proto,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// The NF name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shards this engine fans out to.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The placement plan in force.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The placement verdict the plan was derived from.
    pub fn report(&self) -> &ShardingReport {
        &self.report
    }

    /// Replace the telemetry configuration (its master switch).
    pub fn set_telemetry(&mut self, telemetry: TelemetryConfig) {
        self.telemetry = telemetry;
    }

    /// Whether runs collect telemetry: the config switch is on *and*
    /// the tracer records (a disabled tracer has no sink to flush to).
    fn telemetry_on(&self) -> bool {
        self.telemetry.enabled && self.tracer.is_enabled()
    }

    /// The unified entry point: pull packets from `source` in
    /// [`BatchConfig::size`] batches and execute them per `cfg` —
    /// threaded, sequential, or the single-shard reference; fault-free
    /// or under a deterministic [`FaultPlan`]; with or without
    /// per-packet output retention and skew-aware rebalancing. A
    /// global-lock run steps on the calling thread whatever its mode:
    /// its one evaluator takes every packet in arrival order.
    pub fn run_with<S>(&self, source: S, cfg: &RunConfig) -> Result<ShardRun, ShardError>
    where
        S: WorkloadSource<Item = Packet>,
    {
        let mut source = source;
        let n = if cfg.mode == RunMode::Single {
            1
        } else {
            self.shards
        };
        // The state-access policy: shared-nothing gives every shard its
        // own evaluator; the global lock gives all shards one.
        let partitioned = cfg.mode == RunMode::Single || self.plan.partitioned();
        let evals = (0..if partitioned { n } else { 1 })
            .map(|_| Evaluator::new(self.proto.clone()))
            .collect();
        let workers = (0..n).map(|w| self.worker(w, cfg)).collect();
        if cfg.mode == RunMode::Threaded && partitioned {
            self.run_threaded(workers, evals, &mut source, cfg)
        } else {
            self.run_inline(workers, evals, partitioned, &mut source, cfg)
        }
    }

    /// A fresh worker for shard `shard`.
    fn worker<'a>(&'a self, shard: usize, cfg: &'a RunConfig) -> ShardWorker<'a> {
        let label = self.proto.label();
        ShardWorker {
            shard,
            label,
            faults: &cfg.fault_plan,
            keep_outputs: cfg.keep_outputs,
            tracer: &self.tracer,
            quarantine: Quarantine::default(),
            tel: self
                .telemetry_on()
                .then(|| WorkerTelemetry::new(shard, label)),
            outputs: Vec::new(),
            pkts: 0,
            busy_ns: 0,
            forwarded: 0,
        }
    }

    /// The inline executor: route each batch, then step it on this
    /// thread. Shared-nothing, each shard steps its share of the batch
    /// as one run, in arrival order. Under the global lock the one
    /// evaluator steps the whole batch in arrival order, one run per
    /// stretch of packets routed to the same shard. Every packet is
    /// routed and stepped in the slot it was pulled into, and the next
    /// pull refills those slots, so a source that decodes in place
    /// (`.nfw`) moves, allocates and frees no packet once the first
    /// batch is in.
    fn run_inline(
        &self,
        mut workers: Vec<ShardWorker<'_>>,
        mut evals: Vec<Evaluator>,
        partitioned: bool,
        source: &mut dyn WorkloadSource<Item = Packet>,
        cfg: &RunConfig,
    ) -> Result<ShardRun, ShardError> {
        let mut d = Dispatcher::new(self, cfg, workers.len(), cfg.batch.size.max(1));
        let mut buf = Vec::with_capacity(d.batch);
        let mut routed: Vec<Routed> = Vec::with_capacity(d.batch);
        while d.pull(source, &mut buf).map_err(ShardError::Workload)? {
            routed.extend(buf.iter_mut().enumerate().filter_map(|(slot, pkt)| {
                let (w, seq, nth) = d.route(pkt)?;
                Some((w, seq, nth, slot))
            }));
            let row = row(&buf);
            if partitioned {
                for (w, (worker, ev)) in workers.iter_mut().zip(&mut evals).enumerate() {
                    worker.run(ev, routed.iter().filter(|r| r.0 == w).map(&row), None);
                }
            } else {
                // The stretches step back to back on one evaluator, so
                // each one's last stamp starts the next.
                let mut at = None;
                for stretch in routed.chunk_by(|a, b| a.0 == b.0) {
                    let worker = &mut workers[stretch[0].0];
                    at = worker.run(&mut evals[0], stretch.iter().map(&row), at);
                }
            }
            routed.clear();
            d.end_round();
        }
        let dispatched = d.finish(&self.tracer, self.telemetry_on());
        self.assemble(workers, evals, partitioned, dispatched, 0, 0)
    }

    /// The threaded executor, for partitioned runs: one scoped thread
    /// per worker, each with its own evaluator, fed bins over an SPSC
    /// ring by the dispatcher on this thread.
    fn run_threaded(
        &self,
        workers: Vec<ShardWorker<'_>>,
        evals: Vec<Evaluator>,
        source: &mut dyn WorkloadSource<Item = Packet>,
        cfg: &RunConfig,
    ) -> Result<ShardRun, ShardError> {
        let n = workers.len();
        let batch = cfg.batch.size.max(1);
        let ring_bins = (RING_CAP / batch).max(2);
        let mut d = Dispatcher::new(self, cfg, n, ring_bins);
        let joined = std::thread::scope(|scope| -> Result<_, ShardError> {
            let mut producers = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for (worker, ev) in workers.into_iter().zip(evals) {
                let (tx, rx) = nf_support::spsc::ring::<Bin>(ring_bins);
                producers.push(tx);
                let handle = std::thread::Builder::new()
                    .name(format!("nf-shard-{}", worker.shard))
                    .spawn_scoped(scope, move || worker.drain(rx, ev))
                    .map_err(|e| ShardError::Thread(e.to_string()))?;
                handles.push(handle);
            }
            let mut bins: Vec<Bin> = (0..n).map(|_| Vec::with_capacity(batch)).collect();
            let mut buf = Vec::with_capacity(batch);
            let mut wait_ns = 0u64;
            let mut source_err = None;
            let dispatch_span = self.tracer.span("shard.dispatch");
            let d0 = self.tracer.now();
            'dispatch: loop {
                match d.pull(source, &mut buf) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => {
                        source_err = Some(e);
                        break;
                    }
                }
                for mut pkt in buf.drain(..) {
                    let Some((w, seq, nth)) = d.route(&mut pkt) else {
                        continue;
                    };
                    bins[w].push((seq, nth, pkt));
                    if bins[w].len() >= batch
                        && d.flush(w, &mut bins[w], &producers[w], &mut wait_ns)
                            .is_err()
                    {
                        // The worker exited early; its join reports why.
                        break 'dispatch;
                    }
                }
                // Batch boundary: queued bins per ring are the load
                // signal the rebalancer watches.
                if d.rebalancer.enabled {
                    let loads: Vec<u64> = producers.iter().map(|tx| tx.len() as u64).collect();
                    d.rebalancer.boundary(&loads, &d.sketches);
                }
            }
            for (w, bin) in bins.iter_mut().enumerate() {
                if d.flush(w, bin, &producers[w], &mut wait_ns).is_err() {
                    break;
                }
            }
            drop(producers);
            let dispatch_ns = self.tracer.now().saturating_duration_since(d0).as_nanos() as u64;
            dispatch_span.end();
            // Join every worker, then report the first one that panicked.
            let (mut done, mut evals, mut failure) = (Vec::new(), Vec::new(), None);
            for (w, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok((worker, ev)) => {
                        done.push(worker);
                        evals.push(ev);
                    }
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        failure = failure.or(Some(ShardError::Thread(format!(
                            "shard {w} panicked: {msg}"
                        ))));
                    }
                }
            }
            if let Some(err) = failure {
                return Err(err);
            }
            if let Some(e) = source_err {
                return Err(ShardError::Workload(e));
            }
            Ok((done, evals, dispatch_ns, wait_ns))
        });
        let (workers, evals, dispatch_ns, wait_ns) = joined?;
        let dispatched = d.finish(&self.tracer, self.telemetry_on());
        self.assemble(workers, evals, true, dispatched, dispatch_ns, wait_ns)
    }

    /// Build the run's [`ShardRun`] — the one place every run ends:
    /// consume the evaluators into one merged state (the engine's
    /// [`JoinPlan`] joins them by position, the one evaluator of a
    /// global-lock or single run included), fold the workers' and the
    /// dispatcher's accounting into the run and its metrics, sort what
    /// was retained, and assemble the telemetry plane's [`RunStats`].
    fn assemble(
        &self,
        workers: Vec<ShardWorker<'_>>,
        evals: Vec<Evaluator>,
        partitioned: bool,
        d: Dispatched,
        dispatch_ns: u64,
        dispatch_wait_ns: u64,
    ) -> Result<ShardRun, ShardError> {
        let merge_span = self.tracer.span("shard.merge");
        let m0 = self.tracer.now();
        // Restarts belong to evaluators: under the global lock the one
        // evaluator reports as shard 0.
        let (mut restarts, mut fallbacks) = (0, 0);
        let mut states = Vec::with_capacity(evals.len());
        for (e, ev) in evals.into_iter().enumerate() {
            if ev.restarts > 0 {
                self.tracer
                    .count(&format!("shard.{e}.restarts"), ev.restarts);
            }
            restarts += ev.restarts;
            fallbacks += ev.fallbacks;
            states.push(ev.state);
        }
        let merged = self.join.join(states)?;
        let merge_ns = self.tracer.now().saturating_duration_since(m0).as_nanos() as u64;
        merge_span.end();
        let (mut outputs, mut quarantined, mut quarantined_seqs) =
            (Vec::new(), Vec::new(), Vec::new());
        let (mut per_shard_pkts, mut busy_ns, mut forwarded) = (Vec::new(), Vec::new(), 0);
        let mut shard_stats = Vec::new();
        for w in workers {
            let s = w.shard;
            self.tracer.count(&format!("shard.{s}.pkts"), w.pkts);
            let (records, seqs) = w.quarantine.into_parts();
            if !seqs.is_empty() {
                self.tracer
                    .count(&format!("shard.{s}.quarantined"), seqs.len() as u64);
            }
            per_shard_pkts.push(w.pkts);
            busy_ns.push(w.busy_ns);
            forwarded += w.forwarded;
            outputs.extend(w.outputs);
            quarantined.extend(records);
            quarantined_seqs.extend(seqs);
            shard_stats.extend(w.tel.map(|t| t.finish(&self.tracer)));
        }
        for (w, (&r, &x)) in d.retries.iter().zip(&d.dropped_per_shard).enumerate() {
            if r > 0 {
                self.tracer.count(&format!("shard.{w}.retries"), r);
            }
            if x > 0 {
                self.tracer.count(&format!("shard.{w}.dropped"), x);
            }
        }
        if fallbacks > 0 {
            self.tracer.count("backend.fallbacks", fallbacks);
        }
        outputs.sort_by_key(|o| o.seq);
        quarantined.sort_by_key(|r| r.seq);
        quarantined.truncate(QUARANTINE_CAP);
        quarantined_seqs.sort_unstable();
        let mut dropped_seqs = d.dropped_seqs;
        dropped_seqs.sort_unstable();
        let stats = (!shard_stats.is_empty()).then(|| {
            let key = self.plan.dispatch();
            RunStats::assemble(
                shard_stats,
                d.sketches,
                key,
                dispatch_ns,
                merge_ns,
                &self.tracer,
            )
        });
        Ok(ShardRun {
            outputs,
            merged,
            per_shard_pkts,
            busy_ns,
            partitioned,
            quarantined,
            quarantined_seqs,
            dropped_seqs,
            restarts,
            retries: d.retries.iter().sum(),
            fallbacks,
            forwarded,
            migrations: d.migrations,
            dispatch_ns,
            dispatch_wait_ns,
            stats,
        })
    }
}

/// Where a name of the initial view lives in an evaluator's state.
/// Every evaluator is a clone of the engine's prototype and layouts only
/// append, so a position in the prototype holds in every shard.
#[derive(Clone, Copy)]
enum At {
    /// An interpreter global, by slot.
    Global(usize),
    /// A store config, by rank in name order.
    Config(usize),
    /// A store scalar slot.
    Scalar(usize),
    /// A store map arena.
    Map(usize),
}

/// One evaluator's state taken apart by position.
enum Parts {
    /// The interpreter's globals, by slot.
    Globals(Vec<Value>),
    /// A model store's configs, slots and arenas.
    Store(nf_model::Parts),
}

impl Parts {
    /// Move out the value at `at`: `None` where this state holds none
    /// (an unset slot, a map that has not materialised). A map arena
    /// moves into key order.
    fn take(&mut self, at: At) -> Option<Value> {
        match (self, at) {
            (Parts::Globals(g), At::Global(i)) => g.get_mut(i).map(take_value),
            (Parts::Store(s), At::Config(i)) => s.configs.get_mut(i).map(take_value),
            (Parts::Store(s), At::Scalar(i)) => s.scalars.get_mut(i)?.take(),
            (Parts::Store(s), At::Map(i)) => {
                let arena = s.maps.get_mut(i)?.take()?;
                Some(Value::Map(arena.into_iter().collect()))
            }
            _ => None,
        }
    }
}

fn take_value(v: &mut Value) -> Value {
    std::mem::replace(v, Value::Unit)
}

/// One name of the initial view, as the join merges it.
struct Joined {
    name: String,
    /// The prototype's value: the baseline the shards' changes merge
    /// over.
    init: Value,
    /// The placement verdict; `None` for configs and consts.
    verdict: Option<StateShard>,
    at: At,
}

/// The join every run ends in, planned once per engine: every name of
/// the prototype's by-name view, in name order, with its initial value,
/// its verdict and its position. A join takes each name's value out of
/// every evaluator by position and merges it per its verdict, so a run
/// pays no by-name view per evaluator and no lookup by name. A run with
/// one evaluator (a single or global-lock run) is a join of one. A name
/// a run appended to an open layout has no entry, so the join drops it.
struct JoinPlan {
    names: Vec<Joined>,
}

impl JoinPlan {
    fn new(report: &ShardingReport, proto: &BackendState) -> JoinPlan {
        // The first verdict for a name wins, as with `ShardingReport::get`.
        let mut verdicts: HashMap<&str, StateShard> = HashMap::with_capacity(report.len());
        for s in report.states() {
            verdicts.entry(s.var()).or_insert(s.verdict());
        }
        // The by-name view: names the state holds a value for, a later
        // position winning a name as in the store's `snapshot`.
        let mut parts = proto.clone().into_parts();
        let mut view = BTreeMap::new();
        for (name, at) in proto.positions() {
            if let Some(init) = parts.take(at) {
                view.insert(name, (init, at));
            }
        }
        let names = view.into_iter().map(|(name, (init, at))| Joined {
            name: name.to_string(),
            init,
            verdict: verdicts.get(name).copied(),
            at,
        });
        JoinPlan {
            names: names.collect(),
        }
    }

    /// Merge the evaluators' states into one by-name view, consuming
    /// them: each name's values move out of the shards that hold one
    /// and merge per the name's verdict, and a name no shard holds
    /// keeps its initial value.
    fn join(&self, evals: Vec<BackendState>) -> Result<BTreeMap<String, Value>, ShardError> {
        let mut shards: Vec<Parts> = evals.into_iter().map(BackendState::into_parts).collect();
        let mut values = Vec::with_capacity(shards.len());
        let mut merged = Vec::with_capacity(self.names.len());
        for j in &self.names {
            values.extend(shards.iter_mut().filter_map(|s| s.take(j.at)));
            let out = if values.is_empty() {
                j.init.clone()
            } else {
                j.merge(values.drain(..))?
            };
            merged.push((j.name.clone(), out));
        }
        // Already in name order: the map is built without a search.
        Ok(merged.into_iter().collect())
    }
}

impl Joined {
    /// Merge the shards' values of this name, per its verdict.
    /// `values` yields at least one.
    fn merge(&self, mut values: impl Iterator<Item = Value>) -> Result<Value, ShardError> {
        let (name, init) = (self.name.as_str(), &self.init);
        match self.verdict {
            Some(StateShard::PerFlow) => merge_partitioned_map(name, init, values),
            Some(StateShard::LogOnly) => merge_log(name, init, values),
            Some(StateShard::Shared) => Ok(values.next().unwrap_or(Value::Unit)),
            // Read-only state and configs/consts (no verdict) must be
            // identical everywhere — drift means a placement bug.
            Some(StateShard::ReadOnly) | None => {
                let first = values.next().unwrap_or(Value::Unit);
                if let Some(bad) = values.find(|v| *v != first) {
                    return Err(ShardError::Merge(format!(
                        "replicated `{name}` diverged across shards: {first:?} vs {bad:?}"
                    )));
                }
                Ok(first)
            }
        }
    }
}

/// Union a partitioned map's per-shard copies. Entries that changed
/// from their initial value must come from exactly one shard. The
/// union starts as the first shard's map and takes the other shards'
/// changed entries over by move, so a one-shard merge is that shard's
/// map.
fn merge_partitioned_map(
    name: &str,
    init: &Value,
    mut values: impl Iterator<Item = Value>,
) -> Result<Value, ShardError> {
    let Value::Map(init_map) = init else {
        // A per-flow verdict on a non-map is unexpected; keep the first
        // copy rather than invent semantics.
        return Ok(values.next().unwrap_or(Value::Unit));
    };
    let mut maps = values.map(|v| match v {
        Value::Map(m) => Ok(m),
        _ => Err(ShardError::Merge(format!(
            "partitioned `{name}` is not a map on some shard"
        ))),
    });
    let Some(first) = maps.next() else {
        return Ok(init.clone());
    };
    let mut union = first?;
    // Entries deleted (map_remove) on their owning shard must not
    // survive via another shard's untouched initial copy.
    let mut removed: BTreeSet<&ValueKey> = init_map
        .keys()
        .filter(|k| !union.contains_key(*k))
        .collect();
    for m in maps {
        let m = m?;
        removed.extend(init_map.keys().filter(|k| !m.contains_key(*k)));
        for (k, val) in m {
            let base = init_map.get(&k);
            if base == Some(&val) {
                continue; // unchanged initial entry, owned by no one
            }
            match union.get(&k) {
                Some(existing) if *existing != val && base != Some(existing) => {
                    return Err(ShardError::Merge(format!(
                        "partitioned `{name}` key {k:?} written by multiple shards"
                    )));
                }
                _ => {
                    union.insert(k, val);
                }
            }
        }
    }
    for k in removed {
        union.remove(k);
    }
    Ok(Value::Map(union))
}

/// Merge log-only state by summing per-shard deltas over the initial
/// value (integers; integer-valued map entries likewise).
fn merge_log(
    name: &str,
    init: &Value,
    mut values: impl Iterator<Item = Value>,
) -> Result<Value, ShardError> {
    match init {
        Value::Int(base) => {
            let mut total = *base;
            for v in values {
                let Value::Int(x) = v else {
                    return Err(ShardError::Merge(format!(
                        "log-only `{name}` is not an integer on some shard"
                    )));
                };
                total += x - base;
            }
            Ok(Value::Int(total))
        }
        Value::Map(init_map) => {
            let mut out = init_map.clone();
            for v in values {
                let Value::Map(m) = v else {
                    return Err(ShardError::Merge(format!(
                        "log-only `{name}` is not a map on some shard"
                    )));
                };
                for (k, val) in m {
                    let base = init_map.get(&k).and_then(|b| b.as_int()).unwrap_or(0);
                    let Some(x) = val.as_int() else {
                        return Err(ShardError::Merge(format!(
                            "log-only `{name}` entry {k:?} is not an integer"
                        )));
                    };
                    let cur = out.get(&k).and_then(|c| c.as_int()).unwrap_or(base);
                    out.insert(k, Value::Int(cur + (x - base)));
                }
            }
            Ok(Value::Map(out))
        }
        other => {
            // Non-numeric log state: all shards must agree or the merge
            // has no meaning.
            if let Some(bad) = values.find(|v| v != other) {
                return Err(ShardError::Merge(format!(
                    "log-only `{name}` has non-mergeable type and diverged: {bad:?}"
                )));
            }
            Ok(other.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::{PacketGen, TcpFlags};
    use nf_support::workload::SliceSource;

    fn engine_for(src: &str, shards: usize) -> ShardEngine {
        ShardEngine::from_source(&pipeline("rl", shards), src, Backend::Interp).unwrap()
    }

    fn pipeline(name: &str, shards: usize) -> Pipeline {
        match Pipeline::builder().name(name).shards(shards).build() {
            Ok(p) => p,
            Err(e) => unreachable!("builder: {e}"),
        }
    }

    const RATELIMITER_ISH: &str = r#"
        config MAX = 3;
        state buckets = map();
        state passed = 0;
        fn cb(pkt: packet) {
            let src = pkt.ip.src;
            if src not in buckets { buckets[src] = MAX; }
            if buckets[src] > 0 {
                buckets[src] = buckets[src] - 1;
                passed = passed + 1;
                send(pkt);
            } else {
                drop(pkt);
            }
        }
        fn main() { sniff(cb); }
    "#;

    #[test]
    fn threaded_matches_single_on_per_flow_nf() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp).unwrap();
        assert!(engine.plan().partitioned());
        let packets = PacketGen::new(42).batch(300);
        let sharded = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .unwrap();
        let single = engine
            .run_with(SliceSource::new(&packets), &RunConfig::single())
            .unwrap();
        assert_eq!(sharded.output_signature(), single.output_signature());
        assert_eq!(sharded.merged, single.merged);
        assert_eq!(sharded.total_pkts(), 300);
        assert_eq!(sharded.per_shard_pkts.len(), 4);
    }

    #[test]
    fn sequential_matches_threaded() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp).unwrap();
        let packets = PacketGen::new(7).batch(200);
        let seq = engine
            .run_with(SliceSource::new(&packets), &RunConfig::sequential())
            .unwrap();
        let thr = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .unwrap();
        assert_eq!(seq.output_signature(), thr.output_signature());
        assert_eq!(seq.merged, thr.merged);
        assert!(seq.partitioned);
    }

    #[test]
    fn global_lock_matches_single_on_shared_nf() {
        let engine =
            ShardEngine::from_source(&pipeline("alloc", 4), ALLOCATOR, Backend::Interp).unwrap();
        assert!(!engine.plan().partitioned());
        let packets = PacketGen::new(3).batch(250);
        let sharded = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .unwrap();
        let single = engine
            .run_with(SliceSource::new(&packets), &RunConfig::single())
            .unwrap();
        assert_eq!(sharded.output_signature(), single.output_signature());
        assert_eq!(sharded.merged, single.merged);
        assert!(!sharded.partitioned);
    }

    #[test]
    fn log_counters_delta_sum_across_shards() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp).unwrap();
        let packets = PacketGen::new(9).batch(120);
        let sharded = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .unwrap();
        let single = engine
            .run_with(SliceSource::new(&packets), &RunConfig::single())
            .unwrap();
        // `passed` is log-only: per-shard copies must sum to the
        // single-threaded count.
        assert_eq!(sharded.merged.get("passed"), single.merged.get("passed"));
        let sent = sharded.outputs.iter().filter(|o| !o.dropped).count() as i64;
        assert_eq!(sharded.merged.get("passed"), Some(&Value::Int(sent)));
    }

    #[test]
    fn map_remove_does_not_resurrect_across_shards() {
        // Every packet toggles its flow's entry: insert on first sight,
        // remove on second. With entries created and removed on the
        // owning shard, the merged map must equal the single-threaded
        // result (no resurrection from other shards' initial copies).
        let src = r#"
            state m = map();
            fn cb(pkt: packet) {
                let k = pkt.ip.src;
                if k in m { map_remove(m, k); drop(pkt); } else { m[k] = 1; send(pkt); }
            }
            fn main() { sniff(cb); }
        "#;
        let engine =
            ShardEngine::from_source(&pipeline("toggle", 4), src, Backend::Interp).unwrap();
        let packets = PacketGen::new(5).batch(300);
        let sharded = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .unwrap();
        let single = engine
            .run_with(SliceSource::new(&packets), &RunConfig::single())
            .unwrap();
        assert_eq!(sharded.merged, single.merged);
        assert_eq!(sharded.output_signature(), single.output_signature());
    }

    #[test]
    fn tracer_records_per_shard_metrics() {
        let tracer = Tracer::enabled();
        let p = match Pipeline::builder()
            .name("rl")
            .shards(2)
            .tracer(tracer.clone())
            .build()
        {
            Ok(p) => p,
            Err(e) => unreachable!("builder: {e}"),
        };
        let engine = ShardEngine::from_source(&p, RATELIMITER_ISH, Backend::Interp).unwrap();
        let packets = PacketGen::new(1).batch(50);
        engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .unwrap();
        let metrics = tracer.metrics();
        let total: u64 = (0..2)
            .filter_map(|w| metrics.counter(&format!("shard.{w}.pkts")))
            .sum();
        assert_eq!(total, 50);
    }

    /// The chaos oracle: everything the faulted run did not exclude
    /// (quarantine or dispatch drop) must match, positionally, a
    /// fault-free reference run over the surviving packets — outputs
    /// and merged state alike.
    fn assert_matches_reference(engine: &ShardEngine, packets: &[Packet], run: &ShardRun) {
        let excluded = run.excluded_seqs();
        let kept: Vec<Packet> = packets
            .iter()
            .enumerate()
            .filter(|(i, _)| excluded.binary_search(&(*i as u64)).is_err())
            .map(|(_, p)| p.clone())
            .collect();
        let reference = engine
            .run_with(SliceSource::new(&kept), &RunConfig::single())
            .unwrap();
        assert_eq!(run.outputs.len(), reference.outputs.len());
        for (got, want) in run.outputs.iter().zip(&reference.outputs) {
            assert_eq!(got.outputs, want.outputs);
            assert_eq!(got.dropped, want.dropped);
        }
        assert_eq!(run.merged, reference.merged);
    }

    #[test]
    fn injected_panic_is_quarantined_not_fatal() {
        // Before supervision this run died with `ShardError::Thread`;
        // now the packet is quarantined and everything else proceeds.
        let engine =
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp).unwrap();
        let packets = PacketGen::new(42).batch(300);
        let faults = FaultPlan::parse("panic@1:3").unwrap();
        let run = engine
            .run_with(
                SliceSource::new(&packets),
                &RunConfig::threaded().with_faults(faults.clone()),
            )
            .unwrap();
        assert_eq!(run.quarantined_seqs.len(), 1);
        assert_eq!(run.quarantined.len(), 1);
        assert_eq!(run.quarantined[0].shard, 1);
        assert!(run.quarantined[0].error.contains("injected fault: panic"));
        assert_eq!(run.offered(), 300);
        assert_matches_reference(&engine, &packets, &run);
    }

    #[test]
    fn organic_mid_fire_error_rolls_back_partial_writes() {
        // `total` is bumped before the missing-key read faults; without
        // journal rollback the counter would leak one per bad packet.
        let src = r#"
            state total = 0;
            state m = map();
            fn cb(pkt: packet) {
                total = total + 1;
                if m[pkt.ip.src] > 0 { send(pkt); } else { drop(pkt); }
            }
            fn main() { sniff(cb); }
        "#;
        let engine = ShardEngine::from_source(&pipeline("leak", 1), src, Backend::Interp).unwrap();
        let packets = PacketGen::new(8).batch(10);
        let run = engine
            .run_with(SliceSource::new(&packets), &RunConfig::single())
            .unwrap();
        assert_eq!(run.total_pkts(), 0);
        assert_eq!(run.quarantined_seqs.len(), 10);
        assert_eq!(run.offered(), 10);
        assert_eq!(run.merged.get("total"), Some(&Value::Int(0)));
        // Every third consecutive failure trips a supervised restart.
        assert_eq!(run.restarts, 3);
    }

    #[test]
    fn fault_before_a_step_keeps_the_previous_packet_committed() {
        // Injected errors and garbage fail before the evaluator steps,
        // so the journalled generation has not moved: rollback must not
        // replay the undo log, which still holds the previous (already
        // committed) packet's pre-images.
        let src = r#"
            state seen = map();
            state count = 0;
            fn cb(pkt: packet) {
                count = count + 1;
                pkt.ip.id = count;
                if pkt.ip.src in seen { send(pkt); } else { seen[pkt.ip.src] = 1; drop(pkt); }
            }
            fn main() { sniff(cb); }
        "#;
        let packets = PacketGen::new(21).batch(6);
        for backend in [Backend::Interp, Backend::Model, Backend::Compiled] {
            let engine = ShardEngine::from_source(&pipeline("commit", 1), src, backend).unwrap();
            for plan in ["err@0:1", "garbage@0:1", "err@0:1,err@0:4"] {
                let faults = FaultPlan::parse(plan).unwrap();
                let cfg = RunConfig::sequential().with_faults(faults);
                let run = engine.run_with(SliceSource::new(&packets), &cfg).unwrap();
                // Quarantined, or (compiled errors) retried on the model.
                assert!(run.fault_summary().any(), "{backend:?} {plan}");
                // Every processed packet's bump survived, packet 0's
                // included.
                assert_eq!(
                    run.merged.get("count"),
                    Some(&Value::Int(run.total_pkts() as i64)),
                    "{backend:?} {plan}"
                );
                assert_matches_reference(&engine, &packets, &run);
            }
        }
    }

    #[test]
    fn consecutive_injected_errors_trip_a_restart() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 2), RATELIMITER_ISH, Backend::Interp).unwrap();
        let packets = PacketGen::new(7).batch(200);
        let faults = FaultPlan::parse("err@0:0,err@0:1,err@0:2").unwrap();
        let run = engine
            .run_with(
                SliceSource::new(&packets),
                &RunConfig::threaded().with_faults(faults.clone()),
            )
            .unwrap();
        assert_eq!(run.quarantined_seqs.len(), 3);
        assert_eq!(run.restarts, 1);
        assert_matches_reference(&engine, &packets, &run);
    }

    #[test]
    fn quarantine_keeps_the_lowest_seqs_up_to_the_cap_and_counts_all() {
        let engine = engine_for(RATELIMITER_ISH, 4);
        let packets = PacketGen::new(17).batch(400);
        // Each shard's first `per_shard` packets fail: more failures
        // than the cap, spread over every shard.
        let per_shard = 25;
        let clean = engine
            .run_with(SliceSource::new(&packets), &RunConfig::sequential())
            .unwrap();
        assert!(
            clean.per_shard_pkts.iter().all(|&p| p >= per_shard),
            "{clean:?}"
        );
        let plan: Vec<String> = (0..per_shard).map(|nth| format!("err@*:{nth}")).collect();
        let faults = FaultPlan::parse(&plan.join(",")).unwrap();
        assert!(4 * per_shard as usize > QUARANTINE_CAP);
        for cfg in [RunConfig::threaded(), RunConfig::sequential()] {
            let cfg = cfg.with_faults(faults.clone());
            let run = engine.run_with(SliceSource::new(&packets), &cfg).unwrap();
            assert_eq!(
                run.quarantined_seqs.len() as u64,
                4 * per_shard,
                "{:?}",
                cfg.mode
            );
            assert_eq!(run.offered(), 400);
            let kept: Vec<u64> = run.quarantined.iter().map(|r| r.seq).collect();
            assert_eq!(
                kept.as_slice(),
                &run.quarantined_seqs[..QUARANTINE_CAP],
                "{:?}",
                cfg.mode
            );
        }
    }

    #[test]
    fn compiled_error_falls_back_to_model_and_continues() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 2), RATELIMITER_ISH, Backend::Compiled)
                .unwrap();
        let packets = PacketGen::new(11).batch(120);
        let faults = FaultPlan::parse("err@0:2,err@1:5").unwrap();
        let run = engine
            .run_with(
                SliceSource::new(&packets),
                &RunConfig::threaded().with_faults(faults.clone()),
            )
            .unwrap();
        // The compiled engine's injected errors retried on the model
        // evaluator: nothing quarantined, outputs exactly fault-free.
        assert_eq!(run.fallbacks, 2);
        assert!(run.quarantined_seqs.is_empty());
        let clean = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .unwrap();
        assert_eq!(run.output_signature(), clean.output_signature());
        assert_eq!(run.merged, clean.merged);
    }

    #[test]
    fn organic_compiled_error_is_the_model_error_and_not_retried() {
        // Every packet reads a key the map lacks, so the model step
        // fails. The compiled step runs that reference step itself, so
        // its quarantine record must carry exactly the model's error,
        // with no retry on top.
        let src = r#"
            state m = map();
            fn cb(pkt: packet) {
                if m[pkt.ip.src] > 0 { send(pkt); } else { drop(pkt); }
            }
            fn main() { sniff(cb); }
        "#;
        let packets = PacketGen::new(8).batch(10);
        let run = |backend| {
            ShardEngine::from_source(&pipeline("missing", 1), src, backend)
                .unwrap()
                .run_with(SliceSource::new(&packets), &RunConfig::single())
                .unwrap()
        };
        let errors = |run: &ShardRun| -> Vec<(u64, String)> {
            let records = run.quarantined.iter();
            records.map(|r| (r.seq, r.error.clone())).collect()
        };
        let (model, compiled) = (run(Backend::Model), run(Backend::Compiled));
        assert_eq!(compiled.quarantined_seqs.len(), 10);
        assert_eq!(compiled.fallbacks, 0);
        assert_eq!(errors(&compiled), errors(&model));
        assert!(!errors(&compiled)[0].1.contains("fallback"));
    }

    /// An NF whose `next` counter every flow shares: its plan takes the
    /// global lock.
    const ALLOCATOR: &str = r#"
        state next = 0;
        state m = map();
        fn cb(pkt: packet) {
            if pkt.ip.src in m { send(pkt); } else {
                m[pkt.ip.src] = next;
                next = next + 1;
                drop(pkt);
            }
        }
        fn main() { sniff(cb); }
    "#;

    #[test]
    fn global_lock_quarantines_and_restarts_in_arrival_order() {
        // Under the global lock one evaluator steps every packet in
        // arrival order on the calling thread, in every mode: a threaded
        // run is the sequential run, faults, retries and per-shard
        // numbering included, with no dispatcher thread and no ring to
        // wait on. A quarantined seq leaves no trace and the run carries
        // on with the next seq.
        let tracer = Tracer::enabled();
        let p = match Pipeline::builder()
            .name("alloc")
            .shards(4)
            .tracer(tracer.clone())
            .build()
        {
            Ok(p) => p,
            Err(e) => unreachable!("builder: {e}"),
        };
        let engine = ShardEngine::from_source(&p, ALLOCATOR, Backend::Interp).unwrap();
        assert!(!engine.plan().partitioned());
        let packets = PacketGen::new(3).batch(100);
        // Round-robin: shard 1's packet 0 is seq 1, shard 2's packet 5
        // is seq 2 + 4*5 = 22, and shard 3's packet 2 (seq 11) drops at
        // dispatch. The restart streak belongs to the one evaluator, so
        // both modes count its failures in arrival order: seqs 0, 1, 2
        // fail in a row and restart it once; seqs 0, 4, 8 have successes
        // in between and never do.
        for (plan, quarantined, dropped, restarts) in [
            ("panic@1:0,err@2:5", vec![1, 22], vec![], 0),
            (
                "panic@1:0,err@2:5,ring-overflow@3:2",
                vec![1, 22],
                vec![11],
                0,
            ),
            ("err@0:0,err@1:0,err@2:0", vec![0, 1, 2], vec![], 1),
            ("err@0:0,err@0:1,err@0:2", vec![0, 4, 8], vec![], 0),
        ] {
            let faults = FaultPlan::parse(plan).unwrap();
            let thr = engine
                .run_with(
                    SliceSource::new(&packets),
                    &RunConfig::threaded().with_faults(faults.clone()),
                )
                .unwrap();
            let seq = engine
                .run_with(
                    SliceSource::new(&packets),
                    &RunConfig::sequential().with_faults(faults),
                )
                .unwrap();
            assert!(!thr.partitioned, "{plan}");
            assert_eq!(thr.quarantined_seqs, quarantined, "{plan}");
            assert_eq!(thr.dropped_seqs, dropped, "{plan}");
            assert_eq!(thr.restarts, restarts, "{plan}");
            assert_matches_reference(&engine, &packets, &thr);
            assert_eq!(thr.outputs, seq.outputs, "{plan}");
            assert_eq!(thr.merged, seq.merged, "{plan}");
            assert_eq!(thr.per_shard_pkts, seq.per_shard_pkts, "{plan}");
            assert_eq!(thr.quarantined_seqs, seq.quarantined_seqs, "{plan}");
            assert_eq!(thr.dropped_seqs, seq.dropped_seqs, "{plan}");
            assert_eq!(thr.fault_summary(), seq.fault_summary(), "{plan}");
            assert_eq!(thr.dispatch_ns, 0, "{plan}");
        }
        let metrics = tracer.metrics();
        assert!(!metrics.histograms.is_empty());
        let names = metrics.counters.keys().chain(metrics.histograms.keys());
        let waits: Vec<&String> = names.filter(|n| n.ends_with(".wait.ns")).collect();
        assert!(waits.is_empty(), "{waits:?}");
    }

    #[test]
    fn ring_overflow_drops_past_deadline_with_accounting() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 2), RATELIMITER_ISH, Backend::Interp).unwrap();
        let packets = PacketGen::new(5).batch(100);
        // The default overflow burst outlasts the injected deadline:
        // the packet drops, with retry accounting.
        let plan = FaultPlan::parse("ring-overflow@0:1").unwrap();
        let run = engine
            .run_with(
                SliceSource::new(&packets),
                &RunConfig::threaded().with_faults(plan.clone()),
            )
            .unwrap();
        assert_eq!(run.dropped_seqs.len(), 1);
        assert_eq!(run.offered(), 100);
        assert_eq!(run.retries, u64::from(INJECTED_RING_DEADLINE) + 1);
        assert_matches_reference(&engine, &packets, &run);
        // A bounded burst is absorbed by backoff retries instead.
        let plan = FaultPlan::parse("ring-overflow@0:1:64").unwrap();
        let run = engine
            .run_with(
                SliceSource::new(&packets),
                &RunConfig::threaded().with_faults(plan.clone()),
            )
            .unwrap();
        assert!(run.dropped_seqs.is_empty());
        assert_eq!(run.retries, 64);
        assert_eq!(run.total_pkts(), 100);
    }

    #[test]
    fn fault_free_threaded_run_reports_no_retries() {
        // Ring back-pressure is timed, not counted: interpreter workers
        // fall behind the dispatcher and fill their rings, yet a run
        // with no fault plan has nothing to report.
        let engine = engine_for(RATELIMITER_ISH, 4);
        let packets = PacketGen::new(11).batch(20_000);
        let run = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .unwrap();
        assert!(run.partitioned);
        assert_eq!(run.fault_summary(), FaultSummary::default());
    }

    /// A source that yields a few packets then fails, for the
    /// mid-stream error path.
    struct FailingSource {
        left: usize,
    }

    impl WorkloadSource for FailingSource {
        type Item = Packet;

        fn next_batch(
            &mut self,
            out: &mut Vec<Packet>,
            max: usize,
        ) -> Result<usize, nf_support::workload::WorkloadError> {
            if self.left == 0 {
                return Err(nf_support::workload::WorkloadError::at(
                    640,
                    "truncated record",
                ));
            }
            let n = self.left.min(max);
            let gen = PacketGen::new(9).batch(n);
            out.extend(gen);
            self.left -= n;
            Ok(n)
        }
    }

    #[test]
    fn batch_size_does_not_change_behaviour() {
        let engine = engine_for(RATELIMITER_ISH, 4);
        let packets = PacketGen::new(13).batch(400);
        let base = engine
            .run_with(SliceSource::new(&packets), &RunConfig::single())
            .unwrap();
        for size in [1usize, 7, 32, 256] {
            let batch = BatchConfig {
                size,
                ..BatchConfig::default()
            };
            for mode in [RunMode::Threaded, RunMode::Sequential] {
                let cfg = RunConfig {
                    mode,
                    ..RunConfig::threaded().with_batch(batch)
                };
                let run = engine.run_with(SliceSource::new(&packets), &cfg).unwrap();
                assert_eq!(
                    run.output_signature(),
                    base.output_signature(),
                    "batch {size} {mode:?}"
                );
                assert_eq!(run.merged, base.merged, "batch {size} {mode:?}");
                assert_eq!(run.total_pkts(), 400);
                assert_eq!(run.forwarded, base.forwarded);
            }
        }
    }

    #[test]
    fn rebalancing_migrates_new_flows_and_preserves_outputs() {
        let engine = engine_for(RATELIMITER_ISH, 4);
        // One heavy flow, 7 of every 8 packets, interleaved with fresh
        // sources, at the default batching. Inline, the heavy hitter
        // alone fills its shard's share of a batch past the high-water
        // mark (3/4 of the batch). Threaded, the mark is 3/4 of the
        // ring's 32 bins: the hot shard gets about 130 bins over 4,800
        // packets, and its ring passes the mark once its worker lags
        // the dispatcher by that many. Either way new flows hashing
        // there get pinned elsewhere.
        let mut packets = Vec::new();
        for i in 0..4800u32 {
            let src = if i % 8 != 0 {
                0x0a00_0001
            } else {
                0x2000_0000 + i
            };
            packets.push(Packet::tcp(
                src,
                1000,
                0x0a00_00fe,
                80,
                TcpFlags(TcpFlags::SYN),
            ));
        }
        let single = engine
            .run_with(SliceSource::new(&packets), &RunConfig::single())
            .unwrap();
        let cfg = RunConfig::sequential().with_rebalance(true);
        let run = engine.run_with(SliceSource::new(&packets), &cfg).unwrap();
        assert!(run.migrations > 0, "skewed load should migrate new flows");
        assert_eq!(run.fault_summary().migrations, run.migrations);
        assert_eq!(run.output_signature(), single.output_signature());
        assert_eq!(run.merged, single.merged);
        // Rebalancing in the threaded dispatcher preserves the same
        // invariant. Divert timing is racy there (the hot ring passes
        // the mark only while its worker lags), so every run must match
        // and one of a few must divert.
        let tcfg = RunConfig::threaded().with_rebalance(true);
        let diverted = (0..5).any(|_| {
            let trun = engine.run_with(SliceSource::new(&packets), &tcfg).unwrap();
            assert_eq!(trun.fault_summary().migrations, trun.migrations);
            assert_eq!(trun.output_signature(), single.output_signature());
            assert_eq!(trun.merged, single.merged);
            trun.migrations > 0
        });
        assert!(diverted, "a lagging hot ring should migrate new flows");
    }

    #[test]
    fn keep_outputs_off_still_counts_forwarded() {
        let engine = engine_for(RATELIMITER_ISH, 2);
        let packets = PacketGen::new(5).batch(300);
        let kept = engine
            .run_with(SliceSource::new(&packets), &RunConfig::threaded())
            .unwrap();
        let mut cfg = RunConfig::threaded();
        cfg.keep_outputs = false;
        let lean = engine.run_with(SliceSource::new(&packets), &cfg).unwrap();
        assert!(lean.outputs.is_empty());
        assert_eq!(lean.total_pkts(), kept.total_pkts());
        let kept_forwarded = kept.outputs.iter().filter(|o| !o.dropped).count() as u64;
        assert_eq!(kept.forwarded, kept_forwarded);
        assert_eq!(lean.forwarded, kept_forwarded);
    }

    #[test]
    fn workload_error_surfaces_mid_run() {
        let engine = engine_for(RATELIMITER_ISH, 2);
        for cfg in [RunConfig::threaded(), RunConfig::sequential()] {
            let err = engine
                .run_with(FailingSource { left: 70 }, &cfg)
                .unwrap_err();
            match err {
                ShardError::Workload(m) => {
                    assert!(m.contains("byte offset 640"), "{m}")
                }
                other => panic!("expected workload error, got {other:?}"),
            }
        }
    }

    /// The merge rules of the join by position, pinned against a
    /// clone-based merge over by-name views, kept here as the oracle.
    mod merge_rules {
        use super::*;
        use nf_support::check::{check, Config, Gen};
        use nf_support::rng::Rng;
        use nfl_lint::StateVerdict;
        use std::cell::Cell;

        type Snapshot = BTreeMap<String, Value>;

        /// The one name with no verdict: a store config, which every
        /// shard holds.
        const CONFIG: &str = "LIMIT";

        /// The clone-based merge: every shard's values stay borrowed, and
        /// the union copies each entry it keeps.
        mod oracle {
            use super::*;

            pub(super) fn merge_states(
                report: &ShardingReport,
                initial: &Snapshot,
                shards: &[Snapshot],
            ) -> Result<Snapshot, ShardError> {
                let mut merged = BTreeMap::new();
                for (name, init) in initial {
                    let verdict = report.get(name).map(|s| s.verdict());
                    let values: Vec<&Value> = shards.iter().filter_map(|s| s.get(name)).collect();
                    let Some(first) = values.first() else {
                        merged.insert(name.clone(), init.clone());
                        continue;
                    };
                    let out = match verdict {
                        Some(StateShard::PerFlow) => merge_partitioned_map(name, init, &values)?,
                        Some(StateShard::LogOnly) => merge_log(name, init, &values)?,
                        Some(StateShard::Shared) => (*first).clone(),
                        Some(StateShard::ReadOnly) | None => {
                            if let Some(bad) = values.iter().find(|v| **v != *first) {
                                return Err(ShardError::Merge(format!(
                                    "replicated `{name}` diverged across shards: {first:?} vs {bad:?}"
                                )));
                            }
                            (*first).clone()
                        }
                    };
                    merged.insert(name.clone(), out);
                }
                Ok(merged)
            }

            fn merge_partitioned_map(
                name: &str,
                init: &Value,
                values: &[&Value],
            ) -> Result<Value, ShardError> {
                let Value::Map(init_map) = init else {
                    return Ok((*values[0]).clone());
                };
                let mut union = init_map.clone();
                for v in values {
                    let Value::Map(m) = v else {
                        return Err(ShardError::Merge(format!(
                            "partitioned `{name}` is not a map on some shard"
                        )));
                    };
                    for (k, val) in m {
                        if init_map.get(k) == Some(val) {
                            continue;
                        }
                        match union.get(k) {
                            Some(existing)
                                if existing != val && init_map.get(k) != Some(existing) =>
                            {
                                return Err(ShardError::Merge(format!(
                                    "partitioned `{name}` key {k:?} written by multiple shards"
                                )));
                            }
                            _ => {
                                union.insert(k.clone(), val.clone());
                            }
                        }
                    }
                }
                let mut removed: Vec<ValueKey> = Vec::new();
                for k in init_map.keys() {
                    if values.iter().any(|v| match v {
                        Value::Map(m) => !m.contains_key(k),
                        _ => false,
                    }) {
                        removed.push(k.clone());
                    }
                }
                for k in removed {
                    union.remove(&k);
                }
                Ok(Value::Map(union))
            }

            fn merge_log(name: &str, init: &Value, values: &[&Value]) -> Result<Value, ShardError> {
                match init {
                    Value::Int(base) => {
                        let mut total = *base;
                        for v in values {
                            let Value::Int(x) = v else {
                                return Err(ShardError::Merge(format!(
                                    "log-only `{name}` is not an integer on some shard"
                                )));
                            };
                            total += x - base;
                        }
                        Ok(Value::Int(total))
                    }
                    Value::Map(init_map) => {
                        let mut out = init_map.clone();
                        for v in values {
                            let Value::Map(m) = v else {
                                return Err(ShardError::Merge(format!(
                                    "log-only `{name}` is not a map on some shard"
                                )));
                            };
                            for (k, val) in m {
                                let base = init_map.get(k).and_then(|b| b.as_int()).unwrap_or(0);
                                let Some(x) = val.as_int() else {
                                    return Err(ShardError::Merge(format!(
                                        "log-only `{name}` entry {k:?} is not an integer"
                                    )));
                                };
                                let cur = out.get(k).and_then(|c| c.as_int()).unwrap_or(base);
                                out.insert(k.clone(), Value::Int(cur + (x - base)));
                            }
                        }
                        Ok(Value::Map(out))
                    }
                    other => {
                        if let Some(bad) = values.iter().find(|v| **v != other) {
                            return Err(ShardError::Merge(format!(
                                "log-only `{name}` has non-mergeable type and diverged: {bad:?}"
                            )));
                        }
                        Ok(other.clone())
                    }
                }
            }
        }

        /// One merge input: the verdict of each state name, the initial
        /// view, and the by-name views of 1–4 shards derived from it.
        #[derive(Debug, Clone)]
        struct MergeCase {
            verdicts: Vec<(String, StateShard)>,
            initial: Snapshot,
            shards: Vec<Snapshot>,
        }

        impl MergeCase {
            fn report(&self) -> ShardingReport {
                ShardingReport::from_states(
                    self.verdicts
                        .iter()
                        .map(|(name, v)| {
                            StateVerdict::new(name.as_str(), *v, "generated", Default::default(), 0)
                        })
                        .collect(),
                )
            }

            /// The case as real stores sharing one layout: a store that
            /// declares every name of the initial view, and clones of it
            /// holding the initial view (the prototype) and each shard's
            /// view. A name a shard lacks stays unset or unmaterialised
            /// in its store, and a name only a shard has (`scratch`) is
            /// appended to that shard's own layout, as a run on an open
            /// layout appends what it writes.
            fn stores(&self) -> (ModelState, Vec<ModelState>) {
                let mut layout = ModelState::default();
                for (name, init) in &self.initial {
                    match init {
                        _ if name == CONFIG => {}
                        Value::Map(_) => _ = layout.declare_map(name),
                        _ => _ = layout.declare_slot(name),
                    }
                }
                let store = |view: &Snapshot| {
                    let mut st = layout.clone();
                    for (name, v) in view {
                        st = match v {
                            _ if name == CONFIG => st.with_config(name, v.clone()),
                            Value::Map(m) => {
                                let mut st = st.with_map(name);
                                for (k, x) in m {
                                    st.insert_entry(name, k.clone(), x.clone());
                                }
                                st
                            }
                            _ => st.with_scalar(name, v.clone()),
                        };
                    }
                    assert_eq!(&st.snapshot(), view, "the store holds the view");
                    let names = st.layout();
                    let maps = names.map_names();
                    assert!(names.slot_names().iter().all(|n| !maps.contains(n)));
                    st
                };
                (
                    store(&self.initial),
                    self.shards.iter().map(store).collect(),
                )
            }

            /// Both merges' results, `Err` carrying the merge message:
            /// the engine's join by position over the stores, and the
            /// oracle over their by-name views.
            fn merge(&self) -> (Result<Snapshot, String>, Result<Snapshot, String>) {
                let report = self.report();
                let (proto, shards) = self.stores();
                let views: Vec<Snapshot> = shards.iter().map(ModelState::snapshot).collect();
                let want = oracle::merge_states(&report, &proto.snapshot(), &views);
                let model = Arc::new(Model::from_paths("merge", &[]));
                let eval = |state| BackendState::Model {
                    model: model.clone(),
                    state,
                };
                let plan = JoinPlan::new(&report, &eval(proto));
                let got = plan.join(shards.into_iter().map(eval).collect());
                (outcome(got), outcome(want))
            }
        }

        fn outcome(r: Result<Snapshot, ShardError>) -> Result<Snapshot, String> {
            r.map_err(|e| match e {
                ShardError::Merge(msg) => msg,
                other => panic!("a merge fails only with ShardError::Merge, got {other:?}"),
            })
        }

        fn int(rng: &mut Rng, hi: u64) -> Value {
            Value::Int(rng.gen_below(hi) as i64)
        }

        /// A small flow map: keys from 0..12, so shards' writes overlap.
        fn flow_map(rng: &mut Rng, max_len: u64) -> BTreeMap<ValueKey, Value> {
            (0..rng.gen_below(max_len + 1))
                .map(|_| (ValueKey::Int(rng.gen_below(12) as i64), int(rng, 4)))
                .collect()
        }

        /// Shard `s` of `n`'s copy of a per-flow map: it changes or
        /// deletes the initial keys and adds the new keys it owns (key
        /// mod `n`), and now and then writes a key another shard owns.
        fn per_flow_shard(
            rng: &mut Rng,
            init: &BTreeMap<ValueKey, Value>,
            s: usize,
            n: usize,
        ) -> Value {
            let owns = |rng: &mut Rng, k: &ValueKey| {
                matches!(k, ValueKey::Int(i) if *i as usize % n == s) || rng.gen_bool(0.1)
            };
            let mut m = init.clone();
            for k in init.keys() {
                if owns(rng, k) {
                    match rng.gen_index(3) {
                        0 => {}
                        1 => {
                            m.insert(k.clone(), int(rng, 4));
                        }
                        _ => {
                            m.remove(k);
                        }
                    }
                }
            }
            for (k, v) in flow_map(rng, 4) {
                if owns(rng, &k) {
                    m.insert(k, v);
                }
            }
            Value::Map(m)
        }

        /// Shard copy of a log-only value: the initial value plus a
        /// delta, now and then of another type (a map stays a map: its
        /// arena holds only maps).
        fn log_shard(rng: &mut Rng, init: &Value) -> Value {
            match init {
                Value::Int(base) if !rng.gen_bool(0.03) => {
                    Value::Int(base + rng.gen_below(5) as i64)
                }
                Value::Map(init_map) => {
                    let mut m = init_map.clone();
                    for (k, _) in flow_map(rng, 3) {
                        let base = m.get(&k).and_then(Value::as_int).unwrap_or(0);
                        let bumped = if rng.gen_bool(0.03) {
                            Value::Str("?".into())
                        } else {
                            Value::Int(base + rng.gen_below(5) as i64)
                        };
                        m.insert(k, bumped);
                    }
                    Value::Map(m)
                }
                Value::Str(_) if rng.gen_bool(0.9) => init.clone(),
                _ => Value::Str("other".into()),
            }
        }

        fn gen_case(rng: &mut Rng) -> MergeCase {
            let n = 1 + rng.gen_index(4);
            let mut case = MergeCase {
                verdicts: Vec::new(),
                initial: BTreeMap::new(),
                shards: vec![BTreeMap::new(); n],
            };
            // (name, verdict, initial value) for every verdict, and
            // log-only state as an integer, a map and neither.
            let flows = if rng.gen_bool(0.05) {
                Value::Int(1)
            } else {
                Value::Map(flow_map(rng, 5))
            };
            let log = if rng.gen_bool(0.1) {
                Value::Str("s".into())
            } else {
                int(rng, 10)
            };
            let mut counts = flow_map(rng, 3);
            if rng.gen_bool(0.05) {
                counts.insert(ValueKey::Int(99), Value::Str("x".into()));
            }
            let states = [
                ("flows", Some(StateShard::PerFlow), flows),
                ("hits", Some(StateShard::LogOnly), log),
                ("per_src", Some(StateShard::LogOnly), Value::Map(counts)),
                ("owner", Some(StateShard::Shared), int(rng, 4)),
                (
                    "table",
                    Some(StateShard::ReadOnly),
                    Value::Map(flow_map(rng, 3)),
                ),
                (CONFIG, None, int(rng, 4)),
            ];
            for (name, verdict, init) in states {
                if !rng.gen_bool(0.7) {
                    continue;
                }
                for (s, shard) in case.shards.iter_mut().enumerate() {
                    if name != CONFIG && rng.gen_bool(0.1) {
                        continue; // the shard's evaluator lacks the name
                    }
                    let v = match (verdict, &init) {
                        (Some(StateShard::PerFlow), Value::Map(m)) => per_flow_shard(rng, m, s, n),
                        (Some(StateShard::LogOnly), _) => log_shard(rng, &init),
                        (Some(StateShard::Shared), _) => int(rng, 4),
                        // Drift, of the name's own kind.
                        (_, Value::Map(_)) if rng.gen_bool(0.05) => Value::Map(flow_map(rng, 3)),
                        (_, Value::Map(_)) => init.clone(),
                        _ if rng.gen_bool(0.05) => int(rng, 4),
                        _ => init.clone(),
                    };
                    shard.insert(name.to_string(), v);
                }
                if let Some(v) = verdict {
                    case.verdicts.push((name.to_string(), v));
                }
                case.initial.insert(name.to_string(), init);
            }
            for shard in &mut case.shards {
                if rng.gen_bool(0.2) {
                    // A name the initial view lacks: the join drops it.
                    shard.insert("scratch".into(), int(rng, 4));
                }
            }
            case
        }

        /// Smaller cases: one shard fewer, or one state name fewer.
        fn shrink_case(c: &MergeCase) -> Vec<MergeCase> {
            let mut out = Vec::new();
            for i in 0..c.shards.len() {
                if c.shards.len() > 1 {
                    let mut d = c.clone();
                    d.shards.remove(i);
                    out.push(d);
                }
            }
            for name in c.initial.keys() {
                let mut d = c.clone();
                d.initial.remove(name);
                d.shards.iter_mut().for_each(|s| {
                    s.remove(name);
                });
                out.push(d);
            }
            out
        }

        #[test]
        fn by_move_merge_equals_the_clone_based_oracle() {
            let gen = Gen::new(gen_case).with_shrink(shrink_case);
            let (ok, conflict, diverged, other) =
                (Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0));
            check("merge-by-move", &Config::with_cases(2000), &gen, |case| {
                let (got, want) = case.merge();
                assert_eq!(got, want);
                let tally = match &want {
                    Ok(_) => &ok,
                    Err(m) if m.contains("written by multiple shards") => &conflict,
                    Err(m) if m.contains("diverged") => &diverged,
                    Err(_) => &other,
                };
                tally.set(tally.get() + 1);
            });
            // Every rule must have been reached, not just the happy path.
            for (what, n) in [
                ("ok", &ok),
                ("conflict", &conflict),
                ("diverged", &diverged),
                ("other", &other),
            ] {
                assert!(
                    n.get() >= 20,
                    "only {} {what} outcomes in 2000 cases",
                    n.get()
                );
            }
        }

        fn flows(entries: &[(i64, i64)]) -> Value {
            Value::Map(
                entries
                    .iter()
                    .map(|&(k, v)| (ValueKey::Int(k), Value::Int(v)))
                    .collect(),
            )
        }

        fn case(initial: Snapshot, shards: Vec<Snapshot>) -> MergeCase {
            MergeCase {
                verdicts: vec![
                    ("flows".into(), StateShard::PerFlow),
                    ("hits".into(), StateShard::LogOnly),
                ],
                initial,
                shards,
            }
        }

        fn snapshot(flows: Value, hits: i64) -> Snapshot {
            BTreeMap::from([
                ("flows".to_string(), flows),
                ("hits".to_string(), Value::Int(hits)),
                (CONFIG.to_string(), Value::Int(3)),
            ])
        }

        #[test]
        fn interpreter_globals_join_by_slot() {
            // `buckets` is per-flow, `passed` log-only and `MAX` a config.
            let engine = engine_for(RATELIMITER_ISH, 2);
            let BackendState::Interp(proto) = &engine.proto else {
                unreachable!("an interpreter engine")
            };
            let slot = |name: &str| {
                let names = proto.global_names();
                names.iter().position(|n| n == name).unwrap()
            };
            let shard = |buckets: Value, passed: i64| {
                let mut i = proto.clone();
                i.globals[slot("buckets")] = buckets;
                i.globals[slot("passed")] = Value::Int(passed);
                BackendState::Interp(i)
            };
            let merged = engine
                .join
                .join(vec![shard(flows(&[(1, 2)]), 2), shard(flows(&[(7, 1)]), 3)])
                .unwrap();
            assert_eq!(merged["buckets"], flows(&[(1, 2), (7, 1)]));
            assert_eq!(merged["passed"], Value::Int(5));
            assert_eq!(merged["MAX"], Value::Int(3));
            // A per-flow global that is no map on some shard.
            let err = engine
                .join
                .join(vec![shard(flows(&[]), 0), shard(Value::Int(0), 0)])
                .unwrap_err();
            assert!(
                matches!(&err, ShardError::Merge(m) if m == "partitioned `buckets` is not a map on some shard"),
                "{err}"
            );
        }

        #[test]
        fn one_shard_merge_is_that_shards_snapshot() {
            // Key 1 unchanged, 2 changed, 3 deleted, 4 new.
            let shard = snapshot(flows(&[(1, 10), (2, 21), (4, 40)]), 9);
            let c = case(
                snapshot(flows(&[(1, 10), (2, 20), (3, 30)]), 5),
                vec![shard.clone()],
            );
            let (got, want) = c.merge();
            assert_eq!(got, Ok(shard));
            assert_eq!(got, want);
        }

        #[test]
        fn initial_key_deleted_on_its_owner_stays_deleted() {
            // Shard 0 owns key 1 and deletes it; shard 1 still holds its
            // untouched initial copy.
            let initial = snapshot(flows(&[(1, 10), (2, 20)]), 0);
            let c = case(
                initial.clone(),
                vec![snapshot(flows(&[(2, 20)]), 0), initial],
            );
            let (got, want) = c.merge();
            assert_eq!(got.as_ref().map(|m| &m["flows"]), Ok(&flows(&[(2, 20)])));
            assert_eq!(got, want);
        }

        #[test]
        fn two_shards_changing_one_key_is_a_merge_error() {
            let c = case(
                snapshot(flows(&[(1, 10)]), 0),
                vec![
                    snapshot(flows(&[(1, 11)]), 0),
                    snapshot(flows(&[(1, 12)]), 0),
                ],
            );
            let (got, want) = c.merge();
            assert_eq!(
                got,
                Err("partitioned `flows` key Int(1) written by multiple shards".to_string())
            );
            assert_eq!(got, want);
        }
    }
}
