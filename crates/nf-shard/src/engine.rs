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
//! * **Global-lock** plans (shared state) give all shards one shared
//!   evaluator behind a ticket: shards take packets round-robin but
//!   step them in global arrival order, so the result is bit-identical
//!   to a single-threaded run — correct, serialised, and measured as
//!   such.
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
//!   packets in *runs* of back-to-back steps and reads the clock once
//!   per run for its busy time;
//! * an **executor** connects the two. The threaded executor
//!   ([`RunMode::Threaded`]) runs the workers on scoped `std::thread`s
//!   fed over SPSC rings, one bin of up to a batch of packets per push;
//!   a bin is a run, and so is each packet under the global lock. The
//!   inline executor ([`RunMode::Sequential`], [`RunMode::Single`])
//!   routes a whole batch, then steps each shard's share of it as a run
//!   on the calling thread (under the global lock, the batch in arrival
//!   order, one run per stretch routed to the same shard); its
//!   per-shard busy time gives a deterministic makespan on a host
//!   without free cores.
//!
//! One function assembles every [`ShardRun`]. It consumes the
//! evaluators into one merged view ([`ShardRun::merged`]), moving their
//! state instead of copying it. Partitioned maps union: the first
//! shard's map takes the other shards' entries over (their key sets are
//! disjoint by construction — a collision is reported as an engine
//! bug). Log-only counters sum their per-shard deltas, and replicated
//! state is checked untouched. A run with one evaluator (one shard, or
//! the global lock) merges to that evaluator's state, moved.
//!
//! With [`BatchConfig::rebalance`] a partitioned dispatcher also
//! counters skew: when a shard's queue stays above the high-water mark
//! and the dispatcher-side hot-key sketch confirms a guaranteed heavy
//! hitter there, genuinely *new* flows that hash to the hot shard are
//! pinned to the least-loaded shard through an epoch-stamped seen-flow
//! table. Flows that have been seen before are never moved, so every
//! flow keeps exactly one owner for the whole run — which is why the
//! sharded≡single differential invariant survives rebalancing
//! unconditionally.
//!
//! Every run is **supervised**: each packet's eval is wrapped in
//! `catch_unwind` and journalled by the evaluator's undo log, so a
//! panic or runtime error rolls partial state writes back and
//! quarantines the packet ([`crate::supervise`]) instead of aborting the
//! run; the compiled backend additionally falls back to the model
//! evaluator per packet on a compiled-engine error. The failure streak
//! that triggers a restart belongs to the evaluator a restart refreshes,
//! so under the global lock it counts the shared evaluator's failures in
//! arrival order, in every mode. A deterministic [`FaultPlan`] in the
//! [`RunConfig`] threads through dispatch and eval so the chaos
//! differential suite can prove that non-quarantined behaviour is
//! byte-identical to the fault-free run.

use crate::dispatch::{dispatch_hash, dispatch_values_into};
use crate::plan::ShardPlan;
use crate::supervise::{
    panic_message, quiet_catch_unwind, scramble_packet, Quarantine, QuarantineRecord,
    SupervisorPolicy, INJECTED_RING_DEADLINE,
};
use crate::telemetry::{FlightOutcome, RunStats, TelemetryConfig, WorkerTelemetry};
use nf_compile::{CompiledProgram, CompiledState};
use nf_model::{Model, ModelState, ModelStep};
use nf_packet::Packet;
use nf_support::fault::{FaultKind, FaultPlan};
use nf_support::sketch::TopK;
use nf_support::spsc::{Backoff, Consumer, Producer, TrySendError};
use nf_support::workload::WorkloadSource;
use nf_trace::{Histogram, Tracer};
use nfactor_core::{Pipeline, Synthesis};
use nfl_interp::{Interp, StepResult, Value, ValueKey};
use nfl_lint::{DispatchKey, ShardingReport, StateShard};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Ring capacity per worker; deep enough to absorb dispatch bursts,
/// shallow enough to bound memory.
const RING_CAP: usize = 1024;

/// Bounds for the `shard.N.batch.fill` histogram: how full dispatch
/// bins are when pushed over a ring (1 = degenerate per-packet
/// dispatch).
const BATCH_FILL_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// One dispatch bin: `(arrival seq, per-shard ordinal, packet)` rows
/// pushed over the ring as a unit.
type Bin = Vec<(u64, u64, Packet)>;

/// A packet the inline executor has routed: `(shard, seq, nth, packet)`.
type Routed = (usize, u64, u64, Packet);

/// The `(seq, nth, packet)` a worker steps for a routed packet.
fn row((_, seq, nth, pkt): &Routed) -> (u64, u64, &Packet) {
    (*seq, *nth, pkt)
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
    /// Real `std::thread` workers fed over SPSC rings.
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
    /// Queue-depth high-water mark that opens a divert; `0` picks a
    /// mode-appropriate default (3/4 of the ring in bins for threaded
    /// runs, 3/4 of the batch size for sequential ones).
    pub high_water: u64,
    /// Seen-flow table capacity. When the table is full, migration
    /// stops and new flows route by pure hash — bounded memory, still
    /// sound.
    pub table_cap: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            size: 32,
            rebalance: false,
            high_water: 0,
            table_cap: 65_536,
        }
    }
}

/// The unified run configuration for [`ShardEngine::run_with`], the
/// engine's one run entry point.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Execution mode: threaded, sequential, or single-shard.
    pub mode: RunMode,
    /// Deterministic fault plan injected into dispatch and eval;
    /// `None` runs fault-free.
    pub fault_plan: Option<FaultPlan>,
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
            fault_plan: None,
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
        self.fault_plan = Some(faults);
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
    /// Packets dropped at dispatch past the ring retry deadline.
    pub dropped: u64,
    /// Worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Failed enqueue attempts (ring full) absorbed by dispatch
    /// backoff.
    pub retries: u64,
    /// Per-packet compiled→model fallbacks.
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

/// Per-shard program state: an interpreter, a model store, or a
/// compiled program plus its state, which is a model store too (the
/// program itself is immutable and shared across shards via `Arc`).
#[derive(Debug, Clone)]
enum BackendState {
    Interp(Interp),
    Model(ModelState),
    Compiled {
        prog: Arc<CompiledProgram>,
        state: CompiledState,
    },
}

/// One packet's result, as its backend returned it. The worker reads
/// whether the packet was dropped from it, and turns it into a packet
/// list only when it keeps outputs.
enum Stepped {
    /// The interpreter's step: every `send`, in order.
    Interp(StepResult),
    /// The model evaluator's or the compiled program's step.
    Model(ModelStep),
}

impl Stepped {
    fn dropped(&self) -> bool {
        match self {
            Stepped::Interp(r) => r.dropped,
            Stepped::Model(m) => m.output.is_none(),
        }
    }

    fn into_outputs(self) -> Vec<Packet> {
        match self {
            Stepped::Interp(r) => r.outputs,
            Stepped::Model(m) => m.output.into_iter().collect(),
        }
    }
}

impl BackendState {
    /// Process one packet.
    fn step(&mut self, model: Option<&Model>, pkt: &Packet) -> Result<Stepped, String> {
        match self {
            BackendState::Interp(i) => i
                .process(pkt)
                .map(Stepped::Interp)
                .map_err(|e| e.to_string()),
            BackendState::Model(ms) => {
                let Some(m) = model else {
                    return Err("model backend without a model".into());
                };
                ms.step(m, pkt)
                    .map(Stepped::Model)
                    .map_err(|e| e.to_string())
            }
            BackendState::Compiled { prog, state } => state
                .step(prog, pkt)
                .map(Stepped::Model)
                .map_err(|e| e.to_string()),
        }
    }

    /// Consume the evaluator into a by-name view of all its persistent
    /// state. Every backend moves its values into the view whole; a
    /// store's map entries move into key order.
    fn into_snapshot(self) -> BTreeMap<String, Value> {
        match self {
            BackendState::Interp(i) => i.globals.into_iter().collect(),
            BackendState::Model(ms) => ms.into_snapshot(),
            BackendState::Compiled { state, .. } => state.store.into_snapshot(),
        }
    }

    /// The backend's display name (quarantine records, metrics).
    fn label(&self) -> &'static str {
        match self {
            BackendState::Interp(_) => "interp",
            BackendState::Model(_) => "model",
            BackendState::Compiled { .. } => "compiled",
        }
    }

    /// The backend's step generation: every evaluator bumps it when a
    /// step begins and banks the pre-image of each write as it makes
    /// it, so this number is the whole journal of a packet.
    fn journal(&self) -> Journal {
        match self {
            BackendState::Interp(i) => i.packets_seen(),
            BackendState::Model(ms) => ms.generation(),
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
            BackendState::Model(ms) => ms.revert(),
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

    /// The per-packet compiled→model fallback: the reference step on
    /// the compiled state's own store. The compiled engine's one-sided
    /// contract (identical behaviour wherever the reference succeeds)
    /// makes this exact: any packet the model can evaluate produces the
    /// same output either way. `None` when the backend has no fallback.
    fn fallback_step(
        &mut self,
        model: Option<&Model>,
        pkt: &Packet,
    ) -> Option<Result<Stepped, String>> {
        let (BackendState::Compiled { state, .. }, Some(model)) = (self, model) else {
            return None;
        };
        Some(
            state
                .store
                .step(model, pkt)
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
/// returned. A compiled-engine *error* (not a panic) retries the packet
/// on the model evaluator over the same state, under the same guard.
fn supervised_step(
    state: &mut BackendState,
    model: Option<&Model>,
    shard: usize,
    nth: u64,
    pkt: &Packet,
    faults: &FaultPlan,
    fallbacks: &mut u64,
) -> Result<Stepped, String> {
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
        let e = if inject_err {
            format!("injected fault: eval error on shard {shard} packet {nth}")
        } else {
            match state.step(model, pkt) {
                Ok(out) => return Ok(out),
                Err(e) => e,
            }
        };
        // The fallback writes into the live state: undo the failed
        // step first. The fallback's own writes then stay under
        // `journal`, so the rollback below undoes them if it fails.
        state.rollback(journal);
        match state.fallback_step(model, pkt) {
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
/// the global lock all shards step one, so its streak counts failures
/// in arrival order whichever shard each packet came from.
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
    /// streak, and `restart_after` failures in a row restart the
    /// evaluator in place.
    fn step(
        &mut self,
        model: Option<&Model>,
        shard: usize,
        nth: u64,
        pkt: &Packet,
        faults: &FaultPlan,
        restart_after: u32,
    ) -> Result<Stepped, String> {
        let stepped = supervised_step(
            &mut self.state,
            model,
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
            if self.fail_streak >= restart_after {
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
/// genuinely full ring). Every forced attempt is a retry until the
/// deadline — the policy's, or the injected default — runs out.
/// Returns whether the packet is delivered.
fn simulate_dispatch(forced: u64, policy: &SupervisorPolicy, retries: &mut u64) -> bool {
    let deadline = u64::from(policy.ring_deadline.unwrap_or(INJECTED_RING_DEADLINE));
    *retries += forced.min(deadline + 1);
    forced <= deadline
}

/// Enqueue one bin with bounded retry: spin-then-yield backoff on a
/// full ring, giving the bin back once the policy deadline is
/// exhausted. `Ok(None)` = delivered, `Ok(Some(bin))` = undelivered
/// past the deadline, `Err(())` = the worker is gone (its join reports
/// why).
fn send_bin(
    tx: &Producer<Bin>,
    mut bin: Bin,
    policy: &SupervisorPolicy,
    retries: &mut u64,
    wait_ns: &mut u64,
) -> Result<Option<Bin>, ()> {
    let mut attempts = 0u64;
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
            Ok(()) => break Ok(None),
            Err((_, TrySendError::Disconnected)) => break Err(()),
            Err((b, TrySendError::Full)) => bin = b,
        }
        waited.get_or_insert_with(Instant::now);
        attempts += 1;
        *retries += 1;
        if policy
            .ring_deadline
            .is_some_and(|d| attempts > u64::from(d))
        {
            break Ok(Some(bin));
        }
        backoff.snooze();
    };
    if let Some(t0) = waited {
        *wait_ns += t0.elapsed().as_nanos() as u64;
    }
    result
}

/// The default divert high-water mark: 3/4 of the executor's queue
/// depth — ring depth in bins when threaded, the batch size inline
/// (where the load signal is per-round bin fill).
fn high_water(cfg: &BatchConfig, depth: usize) -> u64 {
    if cfg.high_water > 0 {
        cfg.high_water
    } else {
        (depth as u64 * 3 / 4).max(1)
    }
}

/// Whether a shard's hot-key sketch proves a genuine heavy hitter: the
/// top entry's count lower bound (count − err) must clear the sketch's
/// tracking guarantee, so mere uniform load never opens a divert.
fn has_heavy_hitter(sketch: &TopK<Vec<u64>>) -> bool {
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
/// the seen-flow table hits its capacity, migration simply stops —
/// flows not in the table route by pure hash, which is the same stable
/// assignment they would have had anyway.
struct Rebalancer {
    enabled: bool,
    high_water: u64,
    /// flow hash → (pinned shard, epoch the pin was made in).
    table: HashMap<u64, (usize, u64)>,
    cap: usize,
    /// Open divert per shard: new flows hashing there go to the target.
    divert: Vec<Option<usize>>,
    epoch: u64,
    migrations: u64,
}

impl Rebalancer {
    fn new(cfg: &BatchConfig, shards: usize, high_water: u64, allowed: bool) -> Rebalancer {
        Rebalancer {
            enabled: cfg.rebalance && allowed && shards > 1,
            high_water,
            table: HashMap::new(),
            cap: cfg.table_cap.max(1),
            divert: vec![None; shards],
            epoch: 0,
            migrations: 0,
        }
    }

    /// Route one packet: its hash shard, unless the flow is pinned
    /// elsewhere or is brand new while a divert is open on its shard.
    fn route(&mut self, hash: u64, hash_shard: usize) -> usize {
        if !self.enabled {
            return hash_shard;
        }
        if let Some(&(shard, _)) = self.table.get(&hash) {
            return shard;
        }
        if self.table.len() >= self.cap {
            // Table full: this flow routes by hash forever — stable,
            // so still sound. Do not insert.
            return hash_shard;
        }
        let target = self.divert[hash_shard].unwrap_or(hash_shard);
        self.table.insert(hash, (target, self.epoch));
        if target != hash_shard {
            self.migrations += 1;
        }
        target
    }

    /// Batch-boundary control step: close diverts whose shard has
    /// drained to half the high-water mark, open one (to the
    /// least-loaded shard) where load is high *and* the sketch proves a
    /// heavy hitter.
    fn boundary(&mut self, loads: &[u64], sketches: &[TopK<Vec<u64>>]) {
        if !self.enabled {
            return;
        }
        for s in 0..self.divert.len() {
            if self.divert[s].is_some() {
                if loads[s] <= self.high_water / 2 {
                    self.divert[s] = None;
                }
            } else if loads[s] > self.high_water
                && sketches.get(s).is_some_and(has_heavy_hitter)
            {
                let target = (0..loads.len())
                    .filter(|&t| t != s)
                    .min_by_key(|&t| loads[t]);
                if let Some(t) = target {
                    self.epoch += 1;
                    self.divert[s] = Some(t);
                }
            }
        }
    }
}

/// The global lock as a state-access policy: one evaluator for all
/// shards, taken strictly in arrival order so a threaded run is
/// bit-identical to the single-threaded reference.
struct Ticket {
    eval: Mutex<Evaluator>,
    /// The arrival seq whose turn it is; `u64::MAX` poisons the ticket
    /// so no shard spins on a turn that will not come.
    turn: AtomicU64,
    /// Seqs dropped at dispatch: a waiter whose turn never comes checks
    /// here and advances the ticket past them, so a drop cannot stall
    /// the run.
    skipped: Mutex<BTreeSet<u64>>,
}

impl Ticket {
    /// Record a dispatch drop: a hole in the arrival order.
    fn skip(&self, seq: u64) {
        self.skipped
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(seq);
        let _ = self
            .turn
            .compare_exchange(seq, seq + 1, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Wait for `seq`'s turn and take the evaluator; `None` once
    /// another shard has poisoned the ticket.
    fn acquire(&self, seq: u64) -> Option<MutexGuard<'_, Evaluator>> {
        let mut backoff = Backoff::new();
        loop {
            match self.turn.load(Ordering::Acquire) {
                t if t == seq => return Some(self.eval.lock().unwrap_or_else(|e| e.into_inner())),
                u64::MAX => return None,
                t => {
                    if backoff.yields()
                        && self
                            .skipped
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .contains(&t)
                    {
                        let _ = self.turn.compare_exchange(
                            t,
                            t + 1,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        );
                        continue;
                    }
                    backoff.snooze();
                }
            }
        }
    }

    /// Release the evaluator and hand the turn to the next seq.
    fn release(&self, eval: MutexGuard<'_, Evaluator>, seq: u64) {
        drop(eval);
        self.turn.store(seq + 1, Ordering::Release);
    }
}

/// Poisons the ticket unless disarmed — so a worker that exits
/// abnormally can never leave its peers spinning on its turn.
struct PoisonTicket<'t>(Option<&'t Ticket>);

impl Drop for PoisonTicket<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.0 {
            t.turn.store(u64::MAX, Ordering::Release);
        }
    }
}

/// How a threaded worker reaches its evaluator: its own
/// (shared-nothing), or the shared one through the ticket.
enum Access<'t> {
    Own(Box<Evaluator>),
    Ticket(&'t Ticket),
}

/// One shard's per-packet body and its accounting: the supervised step
/// on the evaluator the state-access policy hands it, busy time,
/// telemetry, counters, quarantine and retained outputs. Both executors
/// step packets through [`run`](Self::run), a stretch at a time.
struct ShardWorker<'a> {
    shard: usize,
    label: &'static str,
    model: Option<&'a Model>,
    faults: &'a FaultPlan,
    restart_after: u32,
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
    /// and add the run's wall time to busy time: the clock is read once
    /// per run, not per packet. An empty run reads no clock.
    fn run<'p>(
        &mut self,
        ev: &mut Evaluator,
        rows: impl IntoIterator<Item = (u64, u64, &'p Packet)>,
    ) {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return;
        }
        let t0 = self.tracer.now();
        for (seq, nth, pkt) in rows {
            self.handle(ev, seq, nth, pkt);
        }
        self.busy_ns += self.tracer.now().saturating_duration_since(t0).as_nanos() as u64;
    }

    /// Step one packet on `ev` under supervision and account it. The
    /// packet's own eval latency is timed only while telemetry records
    /// it.
    fn handle(&mut self, ev: &mut Evaluator, seq: u64, nth: u64, pkt: &Packet) {
        let t0 = self.tel.is_some().then(|| self.tracer.now());
        let step = ev.step(
            self.model,
            self.shard,
            nth,
            pkt,
            self.faults,
            self.restart_after,
        );
        if let (Some(tel), Some(t0)) = (self.tel.as_mut(), t0) {
            let step_ns = self.tracer.now().saturating_duration_since(t0).as_nanos() as u64;
            let outcome = match &step {
                Ok(s) if s.dropped() => FlightOutcome::Dropped,
                Ok(_) => FlightOutcome::Forwarded,
                Err(_) => FlightOutcome::Quarantined,
            };
            tel.record(seq, step_ns, outcome, pkt);
            tel.maybe_flush(self.tracer);
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
    /// until the dispatcher hangs up. A bin is one run on the worker's
    /// own evaluator; under the global lock each packet is a run of its
    /// own between ticket acquire and release, so lock waits stay out
    /// of busy time. `Err` means another shard poisoned the ticket.
    fn drain<'t>(
        mut self,
        rx: Consumer<Bin>,
        mut access: Access<'t>,
    ) -> Result<(ShardWorker<'a>, Access<'t>), ()> {
        let mut poison = PoisonTicket(match access {
            Access::Own(_) => None,
            Access::Ticket(t) => Some(t),
        });
        let wait_name = format!("shard.{}.ring.wait.ns", self.shard);
        loop {
            let wait = self.tracer.now();
            let Some(bin) = rx.recv() else { break };
            let waited = self.tracer.now().saturating_duration_since(wait);
            self.tracer.observe_ns(&wait_name, waited.as_nanos() as u64);
            if let Some(tel) = self.tel.as_mut() {
                // Bins still queued after this dequeue — the backlog
                // signal.
                tel.occupancy(rx.len() as u64);
            }
            match &mut access {
                Access::Own(ev) => {
                    self.run(ev, bin.iter().map(|(seq, nth, pkt)| (*seq, *nth, pkt)))
                }
                Access::Ticket(ticket) => {
                    for (seq, nth, pkt) in &bin {
                        let wait = self.tracer.now();
                        let mut ev = ticket.acquire(*seq).ok_or(())?;
                        let waited = self.tracer.now().saturating_duration_since(wait);
                        self.tracer
                            .observe_ns("lock.wait.ns", waited.as_nanos() as u64);
                        self.run(&mut ev, [(*seq, *nth, pkt)]);
                        ticket.release(ev, *seq);
                    }
                }
            }
        }
        poison.0 = None;
        Ok((self, access))
    }
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
    /// Whether shards ran without cross-shard locking.
    pub partitioned: bool,
    /// Retained quarantine records, bounded by the policy's cap.
    pub quarantined: Vec<QuarantineRecord>,
    /// Arrival seqs of *all* quarantined packets (exact, sorted).
    pub quarantined_seqs: Vec<u64>,
    /// Arrival seqs dropped at dispatch after the ring retry deadline.
    pub dropped_seqs: Vec<u64>,
    /// Worker restarts performed by the supervisor.
    pub restarts: u64,
    /// Failed enqueue attempts (ring full) absorbed by dispatch backoff.
    pub retries: u64,
    /// Per-packet compiled→model fallbacks (each is a recorded
    /// divergence; the run continues).
    pub fallbacks: u64,
    /// Packets forwarded (processed and not dropped by the NF) —
    /// counted even when per-packet outputs are not retained
    /// ([`RunConfig::keep_outputs`] = false).
    pub forwarded: u64,
    /// New flows the skew-aware rebalancer migrated off overloaded
    /// shards (0 when rebalancing is off).
    pub migrations: u64,
    /// Wall-clock nanoseconds the dispatcher thread spent from first
    /// to last packet (threaded modes; 0 when dispatch is inlined
    /// into the worker loop, as in sequential and single modes).
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
            ("telemetry".into(), stats.to_json(&self.per_shard_pkts, &self.busy_ns)),
        ]))
    }
}

/// The dispatch plane both executors share: pulls batches, routes each
/// packet (the dispatch hash plus the [`Rebalancer`] for partitioned
/// plans, round-robin under the global lock), numbers it within its
/// shard, applies dispatch-side faults and accounts every drop.
struct Dispatcher<'a> {
    n: usize,
    /// The plan's dispatch key; `None` under the global lock.
    key: Option<&'a DispatchKey>,
    faults: &'a FaultPlan,
    policy: SupervisorPolicy,
    batch: usize,
    /// The global lock's ticket, told about every dispatch drop.
    ticket: Option<&'a Ticket>,
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
    sketches: Vec<TopK<Vec<u64>>>,
    /// The packet's dispatch-key values, offered to its shard's sketch
    /// by reference: one buffer for every packet.
    key_values: Vec<u64>,
    fill: Vec<Histogram>,
}

/// What the dispatch plane hands [`ShardEngine::assemble`].
struct Dispatched {
    retries: Vec<u64>,
    dropped_seqs: Vec<u64>,
    dropped_per_shard: Vec<u64>,
    sketches: Vec<TopK<Vec<u64>>>,
    migrations: u64,
}

impl<'a> Dispatcher<'a> {
    fn new(
        engine: &'a ShardEngine,
        cfg: &RunConfig,
        faults: &'a FaultPlan,
        n: usize,
        depth: usize,
        ticket: Option<&'a Ticket>,
    ) -> Dispatcher<'a> {
        let key = engine.plan.dispatch();
        let telemetry_on = engine.telemetry_on();
        let rebalancer =
            Rebalancer::new(&cfg.batch, n, high_water(&cfg.batch, depth), key.is_some());
        let sketched = key.is_some() && (telemetry_on || rebalancer.enabled);
        Dispatcher {
            n,
            key,
            faults,
            policy: engine.policy,
            batch: cfg.batch.size.max(1),
            ticket,
            rebalancer,
            seq: 0,
            steered: vec![0; n],
            round: vec![0; n],
            retries: vec![0; n],
            dropped_seqs: Vec::new(),
            dropped_per_shard: vec![0; n],
            sketches: if sketched {
                (0..n)
                    .map(|_| TopK::new(engine.telemetry.hotkeys_k))
                    .collect()
            } else {
                Vec::new()
            },
            key_values: Vec::new(),
            fill: if telemetry_on {
                (0..n).map(|_| Histogram::new(&BATCH_FILL_BOUNDS)).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Start a round: pull the next batch into `buf`. `false` at the
    /// end of the stream.
    fn pull(
        &mut self,
        source: &mut dyn WorkloadSource<Item = Packet>,
        buf: &mut Vec<Packet>,
    ) -> Result<bool, String> {
        buf.clear();
        self.round.fill(0);
        let got = source
            .next_batch(buf, self.batch)
            .map_err(|e| e.to_string())?;
        Ok(got > 0)
    }

    /// Route the next packet in arrival order to `(shard, seq, nth)`,
    /// scrambling it in place under a garbage fault; `None` when
    /// dispatch dropped it.
    fn route(&mut self, pkt: &mut Packet) -> Option<(usize, u64, u64)> {
        let seq = self.seq;
        self.seq += 1;
        let w = match self.key {
            Some(key) => {
                let w = if self.n > 1 {
                    let h = dispatch_hash(key, pkt);
                    self.rebalancer.route(h, (h % self.n as u64) as usize)
                } else {
                    0
                };
                if let Some(sketch) = self.sketches.get_mut(w) {
                    dispatch_values_into(key, pkt, &mut self.key_values);
                    sketch.offer_ref(self.key_values.as_slice());
                }
                w
            }
            // Round-robin: the ticket serialises processing anyway.
            None => (seq % self.n as u64) as usize,
        };
        self.round[w] += 1;
        let nth = self.steered[w];
        self.steered[w] += 1;
        let (forced, garbage) = dispatch_faults(self.faults, w, nth);
        if !simulate_dispatch(forced, &self.policy, &mut self.retries[w]) {
            self.drop_seq(w, seq);
            return None;
        }
        if garbage {
            scramble_packet(pkt, seq);
        }
        Some((w, seq, nth))
    }

    /// Account one packet dropped at dispatch, and tell the ticket
    /// about the hole so waiters can skip it.
    fn drop_seq(&mut self, w: usize, seq: u64) {
        if let Some(t) = self.ticket {
            t.skip(seq);
        }
        self.dropped_seqs.push(seq);
        self.dropped_per_shard[w] += 1;
    }

    /// The threaded executor's ring push: record the bin's fill, send
    /// it, and account a whole-bin drop past the policy deadline.
    /// `Err(())` means the worker is gone.
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
        if let Some(undelivered) = send_bin(tx, out, &self.policy, &mut self.retries[w], wait_ns)? {
            for (seq, _, _) in undelivered {
                self.drop_seq(w, seq);
            }
        }
        Ok(())
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

/// A sharded runtime instance for one NF.
pub struct ShardEngine {
    name: String,
    shards: usize,
    plan: ShardPlan,
    report: ShardingReport,
    tracer: Tracer,
    proto: BackendState,
    /// `proto`'s by-name view: the baseline a partitioned merge unions
    /// the shards' changes over. `proto` never changes, so this is
    /// taken once, when the engine is built.
    initial: BTreeMap<String, Value>,
    /// The synthesized model: what the model backend evaluates, and
    /// the compiled backend's per-packet fallback.
    model: Option<Arc<Model>>,
    policy: SupervisorPolicy,
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
                    None,
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
        let interp = Interp::new(&syn.nf_loop).map_err(build_error)?;
        let tracer = pipeline.tracer();
        let proto = match backend {
            Backend::Interp => BackendState::Interp(interp),
            Backend::Model => {
                BackendState::Model(nfactor_core::accuracy::initial_model_state(syn, &interp))
            }
            Backend::Compiled => {
                let init = nfactor_core::accuracy::initial_model_state(syn, &interp);
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
        let model = (backend != Backend::Interp).then(|| Arc::new(syn.model.clone()));
        Ok(ShardEngine::new(
            pipeline,
            syn.name.clone(),
            syn.sharding.clone(),
            proto,
            model,
        ))
    }

    /// The one constructor both entry points end in: the plan follows
    /// from the verdict, the rest from the pipeline and the defaults.
    fn new(
        pipeline: &Pipeline,
        name: String,
        report: ShardingReport,
        proto: BackendState,
        model: Option<Arc<Model>>,
    ) -> ShardEngine {
        ShardEngine {
            name,
            shards: pipeline.shards(),
            plan: ShardPlan::from_report(&report),
            report,
            tracer: pipeline.tracer().clone(),
            initial: proto.clone().into_snapshot(),
            proto,
            model,
            policy: SupervisorPolicy::default(),
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

    /// The supervision policy in force.
    pub fn policy(&self) -> SupervisorPolicy {
        self.policy
    }

    /// Replace the supervision policy (restart threshold, quarantine
    /// cap, ring retry deadline).
    pub fn set_policy(&mut self, policy: SupervisorPolicy) {
        self.policy = policy;
    }

    /// The telemetry configuration in force.
    pub fn telemetry(&self) -> TelemetryConfig {
        self.telemetry
    }

    /// Replace the telemetry configuration (hot-key sketch capacity,
    /// flight-recorder depth, flush cadence, master switch).
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
    /// per-packet output retention and skew-aware rebalancing.
    pub fn run_with<S>(&self, source: S, cfg: &RunConfig) -> Result<ShardRun, ShardError>
    where
        S: WorkloadSource<Item = Packet>,
    {
        let mut source = source;
        let faults = cfg.fault_plan.clone().unwrap_or_else(FaultPlan::new);
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
        let workers = (0..n).map(|w| self.worker(w, cfg, &faults)).collect();
        match cfg.mode {
            RunMode::Threaded => {
                self.run_threaded(workers, evals, partitioned, &mut source, cfg, &faults)
            }
            RunMode::Sequential | RunMode::Single => {
                self.run_inline(workers, evals, partitioned, &mut source, cfg, &faults)
            }
        }
    }

    /// A fresh worker for shard `shard`.
    fn worker<'a>(
        &'a self,
        shard: usize,
        cfg: &RunConfig,
        faults: &'a FaultPlan,
    ) -> ShardWorker<'a> {
        let label = self.proto.label();
        ShardWorker {
            shard,
            label,
            model: self.model.as_deref(),
            faults,
            restart_after: self.policy.restart_after,
            keep_outputs: cfg.keep_outputs,
            tracer: &self.tracer,
            quarantine: Quarantine::new(self.policy.quarantine_cap),
            tel: self
                .telemetry_on()
                .then(|| WorkerTelemetry::new(shard, label, &self.telemetry)),
            outputs: Vec::new(),
            pkts: 0,
            busy_ns: 0,
            forwarded: 0,
        }
    }

    /// The inline executor: route each batch, then step it on this
    /// thread. Shared-nothing, each shard steps its share of the batch
    /// as one run, in arrival order. Under the global lock the shared
    /// evaluator steps the whole batch in arrival order, one run per
    /// stretch of packets routed to the same shard.
    fn run_inline(
        &self,
        mut workers: Vec<ShardWorker<'_>>,
        mut evals: Vec<Evaluator>,
        partitioned: bool,
        source: &mut dyn WorkloadSource<Item = Packet>,
        cfg: &RunConfig,
        faults: &FaultPlan,
    ) -> Result<ShardRun, ShardError> {
        let mut d = Dispatcher::new(
            self,
            cfg,
            faults,
            workers.len(),
            cfg.batch.size.max(1),
            None,
        );
        let mut buf = Vec::with_capacity(d.batch);
        let mut routed: Vec<Routed> = Vec::with_capacity(d.batch);
        while d.pull(source, &mut buf).map_err(ShardError::Workload)? {
            routed.extend(buf.drain(..).filter_map(|mut pkt| {
                let (w, seq, nth) = d.route(&mut pkt)?;
                Some((w, seq, nth, pkt))
            }));
            if partitioned {
                for (w, (worker, ev)) in workers.iter_mut().zip(&mut evals).enumerate() {
                    worker.run(ev, routed.iter().filter(|r| r.0 == w).map(row));
                }
            } else {
                for stretch in routed.chunk_by(|a, b| a.0 == b.0) {
                    workers[stretch[0].0].run(&mut evals[0], stretch.iter().map(row));
                }
            }
            routed.clear();
            d.end_round();
        }
        let dispatched = d.finish(&self.tracer, self.telemetry_on());
        self.assemble(workers, evals, partitioned, dispatched, 0, 0)
    }

    /// The threaded executor: one scoped thread per worker, fed bins
    /// over an SPSC ring by the dispatcher on this thread.
    fn run_threaded(
        &self,
        workers: Vec<ShardWorker<'_>>,
        mut evals: Vec<Evaluator>,
        partitioned: bool,
        source: &mut dyn WorkloadSource<Item = Packet>,
        cfg: &RunConfig,
        faults: &FaultPlan,
    ) -> Result<ShardRun, ShardError> {
        let n = workers.len();
        let batch = cfg.batch.size.max(1);
        let ring_bins = (RING_CAP / batch).max(2);
        let ticket = if partitioned { None } else { evals.pop() }.map(|ev| Ticket {
            eval: Mutex::new(ev),
            turn: AtomicU64::new(0),
            skipped: Mutex::new(BTreeSet::new()),
        });
        let accesses: Vec<Access<'_>> = match &ticket {
            Some(t) => (0..n).map(|_| Access::Ticket(t)).collect(),
            None => evals
                .into_iter()
                .map(|ev| Access::Own(Box::new(ev)))
                .collect(),
        };
        let mut d = Dispatcher::new(self, cfg, faults, n, ring_bins, ticket.as_ref());
        let joined = std::thread::scope(|scope| -> Result<_, ShardError> {
            let mut producers = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for (worker, access) in workers.into_iter().zip(accesses) {
                let (tx, rx) = nf_support::spsc::ring::<Bin>(ring_bins);
                producers.push(tx);
                let handle = std::thread::Builder::new()
                    .name(format!("nf-shard-{}", worker.shard))
                    .spawn_scoped(scope, move || worker.drain(rx, access))
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
            // Join everything, then report the root cause rather than a
            // bystander's abort.
            let (mut done, mut own, mut aborted, mut failure) =
                (Vec::new(), Vec::new(), false, None);
            for (w, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(Ok((worker, access))) => {
                        done.push(worker);
                        if let Access::Own(ev) = access {
                            own.push(*ev);
                        }
                    }
                    Ok(Err(())) => aborted = true,
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
            if aborted {
                return Err(ShardError::Thread("worker aborted without a cause".into()));
            }
            if let Some(e) = source_err {
                return Err(ShardError::Workload(e));
            }
            Ok((done, own, dispatch_ns, wait_ns))
        });
        let (workers, mut evals, dispatch_ns, wait_ns) = joined?;
        let dispatched = d.finish(&self.tracer, self.telemetry_on());
        if let Some(t) = ticket {
            evals.push(t.eval.into_inner().unwrap_or_else(|e| e.into_inner()));
        }
        self.assemble(
            workers,
            evals,
            partitioned,
            dispatched,
            dispatch_ns,
            wait_ns,
        )
    }

    /// Build the run's [`ShardRun`] — the one place every run ends:
    /// consume the evaluators into one merged state, fold the workers'
    /// and the dispatcher's accounting into the run and its metrics,
    /// sort what was retained, and assemble the telemetry plane's
    /// [`RunStats`].
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
        // Each evaluator is consumed into its snapshot, and the merge
        // moves entries out of the snapshots, so the join holds one copy
        // of live state and never copies a live entry.
        // Restarts belong to evaluators: under the global lock the one
        // shared evaluator reports as shard 0.
        let (mut restarts, mut fallbacks) = (0, 0);
        let mut snapshots = Vec::with_capacity(evals.len());
        for (e, ev) in evals.into_iter().enumerate() {
            if ev.restarts > 0 {
                self.tracer
                    .count(&format!("shard.{e}.restarts"), ev.restarts);
            }
            restarts += ev.restarts;
            fallbacks += ev.fallbacks;
            snapshots.push(ev.state.into_snapshot());
        }
        let merged = if partitioned {
            merge_states(&self.report, &self.initial, snapshots)?
        } else {
            snapshots.pop().unwrap_or_default()
        };
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
        quarantined.truncate(self.policy.quarantine_cap);
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

/// Merge per-shard state snapshots into one view, per the report's
/// verdicts. The snapshots are consumed: what the merged view keeps of
/// them is moved, not copied.
fn merge_states(
    report: &ShardingReport,
    initial: &BTreeMap<String, Value>,
    mut shards: Vec<BTreeMap<String, Value>>,
) -> Result<BTreeMap<String, Value>, ShardError> {
    let mut merged = BTreeMap::new();
    for (name, init) in initial {
        let values: Vec<Value> = shards.iter_mut().filter_map(|s| s.remove(name)).collect();
        if values.is_empty() {
            merged.insert(name.clone(), init.clone());
            continue;
        }
        let out = match report.get(name).map(|s| s.verdict()) {
            Some(StateShard::PerFlow) => merge_partitioned_map(name, init, values)?,
            Some(StateShard::LogOnly) => merge_log(name, init, values)?,
            Some(StateShard::Shared) => first_of(values),
            // Read-only state and configs/consts (no verdict) must be
            // identical everywhere — drift means a placement bug.
            Some(StateShard::ReadOnly) | None => {
                let first = &values[0];
                if let Some(bad) = values.iter().find(|v| *v != first) {
                    return Err(ShardError::Merge(format!(
                        "replicated `{name}` diverged across shards: {first:?} vs {bad:?}"
                    )));
                }
                first_of(values)
            }
        };
        merged.insert(name.clone(), out);
    }
    Ok(merged)
}

/// The first shard's value, moved out. The merge passes only names
/// some shard holds, so `values` is never empty.
fn first_of(values: Vec<Value>) -> Value {
    values.into_iter().next().unwrap_or(Value::Unit)
}

/// Union a partitioned map's per-shard copies. Entries that changed
/// from their initial value must come from exactly one shard. The
/// union starts as the first shard's map and takes the other shards'
/// changed entries over by move, so a one-shard merge is that shard's
/// map.
fn merge_partitioned_map(
    name: &str,
    init: &Value,
    values: Vec<Value>,
) -> Result<Value, ShardError> {
    let Value::Map(init_map) = init else {
        // A per-flow verdict on a non-map is unexpected; keep the first
        // copy rather than invent semantics.
        return Ok(first_of(values));
    };
    let mut maps = values.into_iter().map(|v| match v {
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
fn merge_log(name: &str, init: &Value, values: Vec<Value>) -> Result<Value, ShardError> {
    match init {
        Value::Int(base) => {
            let mut total = *base;
            for v in &values {
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
            if let Some(bad) = values.iter().find(|v| *v != other) {
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
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        assert!(engine.plan().partitioned());
        let packets = PacketGen::new(42).batch(300);
        let sharded = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        let single = engine.run_with(SliceSource::new(&packets), &RunConfig::single()).unwrap();
        assert_eq!(sharded.output_signature(), single.output_signature());
        assert_eq!(sharded.merged, single.merged);
        assert_eq!(sharded.total_pkts(), 300);
        assert_eq!(sharded.per_shard_pkts.len(), 4);
    }

    #[test]
    fn sequential_matches_threaded() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        let packets = PacketGen::new(7).batch(200);
        let seq = engine.run_with(SliceSource::new(&packets), &RunConfig::sequential()).unwrap();
        let thr = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        assert_eq!(seq.output_signature(), thr.output_signature());
        assert_eq!(seq.merged, thr.merged);
        assert!(seq.partitioned);
    }

    #[test]
    fn global_lock_matches_single_on_shared_nf() {
        let src = r#"
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
        let engine = ShardEngine::from_source(&pipeline("alloc", 4), src, Backend::Interp).unwrap();
        assert!(!engine.plan().partitioned());
        let packets = PacketGen::new(3).batch(250);
        let sharded = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        let single = engine.run_with(SliceSource::new(&packets), &RunConfig::single()).unwrap();
        assert_eq!(sharded.output_signature(), single.output_signature());
        assert_eq!(sharded.merged, single.merged);
        assert!(!sharded.partitioned);
    }

    #[test]
    fn log_counters_delta_sum_across_shards() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        let packets = PacketGen::new(9).batch(120);
        let sharded = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        let single = engine.run_with(SliceSource::new(&packets), &RunConfig::single()).unwrap();
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
        let engine = ShardEngine::from_source(&pipeline("toggle", 4), src, Backend::Interp).unwrap();
        let packets = PacketGen::new(5).batch(300);
        let sharded = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        let single = engine.run_with(SliceSource::new(&packets), &RunConfig::single()).unwrap();
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
        engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
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
        let reference = engine.run_with(SliceSource::new(&kept), &RunConfig::single()).unwrap();
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
            ShardEngine::from_source(&pipeline("rl", 4), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        let packets = PacketGen::new(42).batch(300);
        let faults = FaultPlan::parse("panic@1:3").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(faults.clone())).unwrap();
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
        let engine =
            ShardEngine::from_source(&pipeline("leak", 1), src, Backend::Interp).unwrap();
        let packets = PacketGen::new(8).batch(10);
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::single()).unwrap();
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
            let engine =
                ShardEngine::from_source(&pipeline("commit", 1), src, backend).unwrap();
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
            ShardEngine::from_source(&pipeline("rl", 2), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        let packets = PacketGen::new(7).batch(200);
        let faults = FaultPlan::parse("err@0:0,err@0:1,err@0:2").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(faults.clone())).unwrap();
        assert_eq!(run.quarantined_seqs.len(), 3);
        assert_eq!(run.restarts, 1);
        assert_matches_reference(&engine, &packets, &run);
    }

    #[test]
    fn compiled_error_falls_back_to_model_and_continues() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 2), RATELIMITER_ISH, Backend::Compiled)
                .unwrap();
        let packets = PacketGen::new(11).batch(120);
        let faults = FaultPlan::parse("err@0:2,err@1:5").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(faults.clone())).unwrap();
        // The compiled engine's injected errors retried on the model
        // evaluator: nothing quarantined, outputs exactly fault-free.
        assert_eq!(run.fallbacks, 2);
        assert!(run.quarantined_seqs.is_empty());
        let clean = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded()).unwrap();
        assert_eq!(run.output_signature(), clean.output_signature());
        assert_eq!(run.merged, clean.merged);
    }

    #[test]
    fn global_lock_quarantine_advances_the_ticket() {
        // A quarantined seq under the ticket lock must hand the turn to
        // the next seq or the run deadlocks.
        let src = r#"
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
        let engine =
            ShardEngine::from_source(&pipeline("alloc", 4), src, Backend::Interp).unwrap();
        assert!(!engine.plan().partitioned());
        let packets = PacketGen::new(3).batch(100);
        // Round-robin: shard 1's packet 0 is seq 1, shard 2's packet 5
        // is seq 2 + 4*5 = 22.
        let faults = FaultPlan::parse("panic@1:0,err@2:5").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(faults.clone())).unwrap();
        assert_eq!(run.quarantined_seqs, vec![1, 22]);
        assert_matches_reference(&engine, &packets, &run);
        let seq = engine.run_with(SliceSource::new(&packets), &RunConfig::sequential().with_faults(faults.clone())).unwrap();
        assert_eq!(run.output_signature(), seq.output_signature());
        assert_eq!(run.merged, seq.merged);
        // The restart streak belongs to the shared evaluator, so both
        // modes count its failures in arrival order: seqs 0, 1, 2 fail
        // in a row and restart it once; seqs 0, 4, 8 have successes in
        // between and never do.
        for (plan, restarts) in [("err@0:0,err@1:0,err@2:0", 1), ("err@0:0,err@0:1,err@0:2", 0)] {
            let faults = FaultPlan::parse(plan).unwrap();
            let thr = engine
                .run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(faults.clone()))
                .unwrap();
            let seq = engine
                .run_with(SliceSource::new(&packets), &RunConfig::sequential().with_faults(faults))
                .unwrap();
            assert_eq!(thr.fault_summary(), seq.fault_summary(), "{plan}");
            assert_eq!(thr.restarts, restarts, "{plan}");
            assert_eq!(thr.quarantined_seqs.len(), 3, "{plan}");
        }
    }

    #[test]
    fn ring_overflow_drops_past_deadline_with_accounting() {
        let engine =
            ShardEngine::from_source(&pipeline("rl", 2), RATELIMITER_ISH, Backend::Interp)
                .unwrap();
        let packets = PacketGen::new(5).batch(100);
        // The default overflow burst outlasts the injected deadline:
        // the packet drops, with retry accounting.
        let plan = FaultPlan::parse("ring-overflow@0:1").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(plan.clone())).unwrap();
        assert_eq!(run.dropped_seqs.len(), 1);
        assert_eq!(run.offered(), 100);
        assert!(run.retries > u64::from(INJECTED_RING_DEADLINE));
        assert_matches_reference(&engine, &packets, &run);
        // A bounded burst is absorbed by backoff retries instead.
        let plan = FaultPlan::parse("ring-overflow@0:1:64").unwrap();
        let run = engine.run_with(SliceSource::new(&packets), &RunConfig::threaded().with_faults(plan.clone())).unwrap();
        assert!(run.dropped_seqs.is_empty());
        assert!(run.retries >= 64);
        assert_eq!(run.total_pkts(), 100);
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
            let batch = BatchConfig { size, ..BatchConfig::default() };
            for mode in [RunMode::Threaded, RunMode::Sequential] {
                let cfg = RunConfig { mode, ..RunConfig::threaded().with_batch(batch) };
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
        // One heavy flow interleaved with a stream of fresh sources:
        // the heavy hitter keeps its shard hot, so new flows hashing
        // there get pinned elsewhere.
        let mut packets = Vec::new();
        for i in 0..600u32 {
            let src = if i % 2 == 0 { 0x0a00_0001 } else { 0x2000_0000 + i };
            packets.push(Packet::tcp(src, 1000, 0x0a00_00fe, 80, TcpFlags(TcpFlags::SYN)));
        }
        let single = engine
            .run_with(SliceSource::new(&packets), &RunConfig::single())
            .unwrap();
        let batch = BatchConfig { size: 32, high_water: 1, ..BatchConfig::default() };
        let cfg = RunConfig::sequential().with_batch(batch).with_rebalance(true);
        let run = engine.run_with(SliceSource::new(&packets), &cfg).unwrap();
        assert!(run.migrations > 0, "skewed load should migrate new flows");
        assert_eq!(run.fault_summary().migrations, run.migrations);
        assert_eq!(run.output_signature(), single.output_signature());
        assert_eq!(run.merged, single.merged);
        // Rebalancing in the threaded dispatcher preserves the same
        // invariant (divert timing is racy, placement is not observable).
        let tcfg = RunConfig::threaded().with_batch(batch).with_rebalance(true);
        let trun = engine.run_with(SliceSource::new(&packets), &tcfg).unwrap();
        assert_eq!(trun.output_signature(), single.output_signature());
        assert_eq!(trun.merged, single.merged);
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
        let kept_forwarded =
            kept.outputs.iter().filter(|o| !o.dropped).count() as u64;
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

    /// The merge rules pinned against the clone-based merge the by-move
    /// one replaced, kept here as the oracle.
    mod merge_rules {
        use super::*;
        use nf_support::check::{check, Config, Gen};
        use nf_support::rng::Rng;
        use nfl_lint::StateVerdict;
        use std::cell::Cell;

        type Snapshot = BTreeMap<String, Value>;

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
        /// view, and 1–4 shard snapshots derived from it.
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

            /// Both merges' results, `Err` carrying the merge message.
            fn merge(&self) -> (Result<Snapshot, String>, Result<Snapshot, String>) {
                let report = self.report();
                let want = oracle::merge_states(&report, &self.initial, &self.shards);
                let got = merge_states(&report, &self.initial, self.shards.clone());
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
            if rng.gen_bool(0.03) {
                return Value::Int(0);
            }
            Value::Map(m)
        }

        /// Shard copy of a log-only value: the initial value plus a delta.
        fn log_shard(rng: &mut Rng, init: &Value) -> Value {
            match init {
                Value::Int(base) if !rng.gen_bool(0.03) => {
                    Value::Int(base + rng.gen_below(5) as i64)
                }
                Value::Map(init_map) if !rng.gen_bool(0.03) => {
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
                ("LIMIT", None, int(rng, 4)),
            ];
            for (name, verdict, init) in states {
                if !rng.gen_bool(0.7) {
                    continue;
                }
                for (s, shard) in case.shards.iter_mut().enumerate() {
                    if rng.gen_bool(0.1) {
                        continue; // the shard's evaluator lacks the name
                    }
                    let v = match (verdict, &init) {
                        (Some(StateShard::PerFlow), Value::Map(m)) => per_flow_shard(rng, m, s, n),
                        (Some(StateShard::LogOnly), _) => log_shard(rng, &init),
                        (Some(StateShard::Shared), _) => int(rng, 4),
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
                    // A name the initial view lacks: the merge drops it.
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
                ("LIMIT".to_string(), Value::Int(3)),
            ])
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
