//! The shard telemetry plane: per-shard latency histograms, ring
//! occupancy, a hot-key profiler, and a bounded flight recorder.
//!
//! Telemetry is recorded **off the hot path**: each worker owns a
//! [`WorkerTelemetry`] of private buffers — no shared-sink lock per
//! packet — and folds them into the run's `nf-trace` tracer every
//! [`FLUSH_EVERY`] packets plus once at join, where
//! they surface as `shard.N.eval.ns` / `shard.N.ring.occupancy`
//! histograms for the live `nfactor top` view. A packet costs the
//! plane one clock read: the worker chains its stamps, so a packet's
//! latency is the time since the previous stamp, and recording it
//! neither allocates nor locks. At join the engine also
//! assembles a [`RunStats`] (`nfactor run --stats-json`) carrying the
//! full per-shard summaries, the dispatcher's space-saving sketch of
//! the top [`HOTKEYS_K`] dispatch keys ([`HotKey`], exported as
//! `shard.N.hotkeys` — the evidence skew-aware rebalancing consumes),
//! and the merged flight recorder: the last [`FLIGHT_CAP`] per-packet
//! events, replayable as a `--workload` via the dump's `trace` key
//! exactly like quarantine records.
//!
//! Everything here is observation only: with telemetry enabled or
//! disabled, a run's outputs and merged state are identical, and under
//! a `MockClock` the recorded numbers themselves are deterministic in
//! the sequential modes — the differential and chaos suites run with
//! telemetry on.

use crate::supervise::packet_to_json;
use nf_packet::Packet;
use nf_support::json::Value;
use nf_support::ring::RingLog;
use nf_support::sketch::TopK;
use nf_trace::{Histogram, MetricsSnapshot, Tracer, DEFAULT_NS_BUCKETS};
use nfl_lint::DispatchKey;
use std::fmt::Write as _;

/// Bucket bounds for ring-occupancy histograms: queue depth sampled at
/// dequeue, from an empty ring up to the full `RING_CAP`.
pub const OCCUPANCY_BUCKETS: [u64; 8] = [0, 1, 2, 4, 16, 64, 256, 1024];

/// Tracked keys per shard in the hot-key profiler (the space-saving
/// sketch's capacity).
pub const HOTKEYS_K: usize = 8;

/// The dispatcher's per-shard hot-key sketch: it tracks a flow by its
/// 64-bit dispatch hash (the quantity routing computes and the
/// rebalancer's flow identity), and a tracked flow keeps its
/// dispatch-key values only to render them.
pub type HotKeySketch = TopK<u64, Vec<u64>>;

/// Flight-recorder capacity: per-packet events retained per worker
/// while running, and in the merged run-level recorder's dump.
pub const FLIGHT_CAP: usize = 64;

/// Worker-local histogram flush cadence, in packets: often enough for
/// a fresh `nfactor top`, rarely enough that the shared sink lock is
/// not taken per packet.
pub const FLUSH_EVERY: u64 = 64;

/// The telemetry plane's switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch. Effective telemetry additionally requires the
    /// engine's tracer to be recording — with a disabled tracer there
    /// is nowhere to flush to and nothing is collected.
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig { enabled: true }
    }
}

/// What happened to one packet, as the flight recorder saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// Evaluated normally and emitted at least one packet.
    Forwarded,
    /// Evaluated normally and dropped.
    Dropped,
    /// Contained failure: the packet was quarantined.
    Quarantined,
}

impl FlightOutcome {
    /// Lowercase label for JSON and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightOutcome::Forwarded => "forwarded",
            FlightOutcome::Dropped => "dropped",
            FlightOutcome::Quarantined => "quarantined",
        }
    }
}

/// One flight-recorder entry: everything needed to say, after a fault,
/// what the runtime was doing just before.
#[derive(Debug, Clone)]
pub struct FlightEvent {
    /// Global arrival sequence number.
    pub seq: u64,
    /// The shard that evaluated the packet.
    pub shard: usize,
    /// Backend label (`"interp"`, `"model"`, `"compiled"`).
    pub backend: &'static str,
    /// How the evaluation ended.
    pub outcome: FlightOutcome,
    /// Latency in nanoseconds: the time since the worker's previous
    /// clock stamp, i.e. this packet's step plus the accounting of the
    /// packet before it in the same run.
    pub latency_ns: u64,
    /// The input packet, for replay.
    pub packet: Packet,
}

impl FlightEvent {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("seq".into(), Value::Int(self.seq as i64)),
            ("shard".into(), Value::Int(self.shard as i64)),
            ("backend".into(), Value::Str(self.backend.into())),
            ("outcome".into(), Value::Str(self.outcome.as_str().into())),
            (
                "latency_ns".into(),
                Value::Int(i64::try_from(self.latency_ns).unwrap_or(i64::MAX)),
            ),
            ("packet".into(), packet_to_json(&self.packet)),
        ])
    }
}

/// Per-worker telemetry buffers. Lives on the worker thread (or the
/// sequential driver); nothing here takes a lock until
/// [`flush`](Self::flush) folds the pending histograms into the tracer.
#[derive(Debug)]
pub struct WorkerTelemetry {
    shard: usize,
    backend: &'static str,
    eval_name: String,
    occupancy_name: String,
    /// Cumulative histograms, handed over at join.
    eval: Histogram,
    occupancy: Histogram,
    /// Not-yet-flushed observations since the last tracer merge.
    pending_eval: Histogram,
    pending_occupancy: Histogram,
    flight: RingLog<FlightEvent>,
    since_flush: u64,
}

impl WorkerTelemetry {
    /// Buffers for shard `shard` running `backend`.
    pub fn new(shard: usize, backend: &'static str) -> WorkerTelemetry {
        WorkerTelemetry {
            shard,
            backend,
            eval_name: format!("shard.{shard}.eval.ns"),
            occupancy_name: format!("shard.{shard}.ring.occupancy"),
            eval: Histogram::new(&DEFAULT_NS_BUCKETS),
            occupancy: Histogram::new(&OCCUPANCY_BUCKETS),
            pending_eval: Histogram::new(&DEFAULT_NS_BUCKETS),
            pending_occupancy: Histogram::new(&OCCUPANCY_BUCKETS),
            flight: RingLog::new(FLIGHT_CAP),
            since_flush: 0,
        }
    }

    /// Record one evaluated packet: its latency plus a flight-recorder
    /// entry. Once the recorder is full, the event overwrites the
    /// oldest one in place, packet buffers included, so recording does
    /// not allocate.
    pub fn record(&mut self, seq: u64, latency_ns: u64, outcome: FlightOutcome, pkt: &Packet) {
        self.pending_eval.observe(latency_ns);
        match self.flight.recycle() {
            Some(ev) => {
                ev.seq = seq;
                ev.outcome = outcome;
                ev.latency_ns = latency_ns;
                ev.packet.clone_from(pkt);
            }
            None => self.flight.push(FlightEvent {
                seq,
                shard: self.shard,
                backend: self.backend,
                outcome,
                latency_ns,
                packet: pkt.clone(),
            }),
        }
        self.since_flush += 1;
    }

    /// Record the ring depth observed at dequeue (threaded partitioned
    /// runs only; inline runs have no rings).
    pub fn occupancy(&mut self, depth: u64) {
        self.pending_occupancy.observe(depth);
    }

    /// Flush to the tracer if the cadence says so.
    pub fn maybe_flush(&mut self, tracer: &Tracer) {
        if self.since_flush >= FLUSH_EVERY {
            self.flush(tracer);
        }
    }

    /// Fold all pending observations into the tracer's shared registry
    /// (one lock acquisition per non-empty histogram) and into the
    /// cumulative per-worker totals, then empty the pending histograms
    /// in place.
    pub fn flush(&mut self, tracer: &Tracer) {
        if self.pending_eval.count > 0 {
            tracer.merge_histogram(&self.eval_name, &self.pending_eval);
            self.eval.merge(&self.pending_eval);
            self.pending_eval.clear();
        }
        if self.pending_occupancy.count > 0 {
            tracer.merge_histogram(&self.occupancy_name, &self.pending_occupancy);
            self.occupancy.merge(&self.pending_occupancy);
            self.pending_occupancy.clear();
        }
        self.since_flush = 0;
    }

    /// Final flush, then hand the cumulative buffers over for the run's
    /// [`RunStats`].
    pub fn finish(mut self, tracer: &Tracer) -> ShardStats {
        self.flush(tracer);
        ShardStats {
            shard: self.shard,
            eval: self.eval,
            occupancy: self.occupancy,
            hotkeys: Vec::new(),
            hotkeys_total: 0,
            flight: self.flight,
        }
    }
}

/// One tracked hot dispatch key, rendered for humans and JSON.
#[derive(Debug, Clone)]
pub struct HotKey {
    /// `field=value` pairs of the dispatch-key values, comma-joined
    /// (canonical direction for symmetric keys).
    pub key: String,
    /// Estimated packet count (never below the true count).
    pub count: u64,
    /// Maximum overestimate inherited from sketch evictions.
    pub err: u64,
}

/// Per-shard telemetry summary at join time.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The shard index.
    pub shard: usize,
    /// Eval-latency histogram (nanoseconds).
    pub eval: Histogram,
    /// Ring occupancy sampled at dequeue (empty in sequential modes).
    pub occupancy: Histogram,
    /// Hot dispatch keys steered to this shard, heaviest first.
    pub hotkeys: Vec<HotKey>,
    /// Total packets the hot-key sketch observed for this shard.
    pub hotkeys_total: u64,
    /// This worker's slice of the flight recorder.
    pub flight: RingLog<FlightEvent>,
}

impl ShardStats {
    fn to_json(&self, pkts: u64, busy_ns: u64) -> Value {
        let hotkeys = Value::Object(vec![
            (
                "total".into(),
                Value::Int(i64::try_from(self.hotkeys_total).unwrap_or(i64::MAX)),
            ),
            (
                "top".into(),
                Value::Array(
                    self.hotkeys
                        .iter()
                        .map(|h| {
                            Value::Object(vec![
                                ("key".into(), Value::Str(h.key.clone())),
                                (
                                    "count".into(),
                                    Value::Int(i64::try_from(h.count).unwrap_or(i64::MAX)),
                                ),
                                (
                                    "err".into(),
                                    Value::Int(i64::try_from(h.err).unwrap_or(i64::MAX)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        Value::Object(vec![
            ("shard".into(), Value::Int(self.shard as i64)),
            (
                "pkts".into(),
                Value::Int(i64::try_from(pkts).unwrap_or(i64::MAX)),
            ),
            (
                "busy_ns".into(),
                Value::Int(i64::try_from(busy_ns).unwrap_or(i64::MAX)),
            ),
            ("eval_ns".into(), self.eval.to_json()),
            ("ring_occupancy".into(), self.occupancy.to_json()),
            ("hotkeys".into(), hotkeys),
        ])
    }
}

/// Run-level telemetry: what `--stats-json` serialises and the flight
/// recorder dump is cut from.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Per-shard summaries, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Wall-clock nanoseconds the dispatcher spent steering packets
    /// (threaded partitioned runs; 0 in inline runs, where dispatch and
    /// eval interleave on one thread).
    pub dispatch_ns: u64,
    /// Wall-clock nanoseconds merging per-shard state at join.
    pub merge_ns: u64,
}

impl RunStats {
    /// Assemble run stats: attach the dispatcher's hot-key sketches to
    /// their shards, render each tracked flow's key values against the
    /// dispatch key's field names, and publish a compact
    /// `shard.N.hotkeys` label per shard into the tracer (so `nfactor
    /// top` can show the hot flows without the stats file).
    pub fn assemble(
        mut shards: Vec<ShardStats>,
        sketches: Vec<HotKeySketch>,
        key: Option<&DispatchKey>,
        dispatch_ns: u64,
        merge_ns: u64,
        tracer: &Tracer,
    ) -> RunStats {
        shards.sort_by_key(|s| s.shard);
        if let Some(key) = key {
            for (w, sketch) in sketches.into_iter().enumerate() {
                let Some(stats) = shards.iter_mut().find(|s| s.shard == w) else {
                    continue;
                };
                stats.hotkeys_total = sketch.total();
                stats.hotkeys = sketch
                    .entries()
                    .into_iter()
                    .map(|e| HotKey {
                        key: render_key(key, &e.data),
                        count: e.count,
                        err: e.err,
                    })
                    .collect();
                if !stats.hotkeys.is_empty() {
                    let label: String = stats
                        .hotkeys
                        .iter()
                        .take(4)
                        .map(|h| format!("{}:{}", h.key, h.count))
                        .collect::<Vec<_>>()
                        .join(" ");
                    tracer.label(&format!("shard.{w}.hotkeys"), &label);
                }
            }
        }
        RunStats {
            shards,
            dispatch_ns,
            merge_ns,
        }
    }

    /// The run's stats document (`--stats-json`). `per_shard_pkts` and
    /// `busy_ns` come from the owning `ShardRun`.
    pub fn to_json(&self, per_shard_pkts: &[u64], busy_ns: &[u64]) -> Value {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                s.to_json(
                    per_shard_pkts.get(s.shard).copied().unwrap_or(0),
                    busy_ns.get(s.shard).copied().unwrap_or(0),
                )
            })
            .collect();
        Value::Object(vec![
            (
                "dispatch_ns".into(),
                Value::Int(i64::try_from(self.dispatch_ns).unwrap_or(i64::MAX)),
            ),
            (
                "merge_ns".into(),
                Value::Int(i64::try_from(self.merge_ns).unwrap_or(i64::MAX)),
            ),
            ("shards".into(), Value::Array(shards)),
        ])
    }

    /// The merged flight recorder: every worker's retained events,
    /// sorted by arrival seq, keeping the `cap` most recent overall.
    pub fn flight(&self, cap: usize) -> (Vec<FlightEvent>, u64) {
        let recorded: u64 = self.shards.iter().map(|s| s.flight.pushed()).sum();
        let mut events: Vec<FlightEvent> = self
            .shards
            .iter()
            .flat_map(|s| s.flight.iter().cloned())
            .collect();
        events.sort_by_key(|e| e.seq);
        let cap = cap.max(1);
        if events.len() > cap {
            events.drain(..events.len() - cap);
        }
        (events, recorded)
    }

    /// The flight-recorder dump (`--flight-out`). Like quarantine
    /// dumps, the top-level `trace` key is a valid `--workload` file:
    /// replaying it re-runs exactly the packets the recorder last saw.
    pub fn flight_json(&self, cap: usize) -> Value {
        let (events, recorded) = self.flight(cap);
        Value::Object(vec![
            (
                "recorded".into(),
                Value::Int(i64::try_from(recorded).unwrap_or(i64::MAX)),
            ),
            ("retained".into(), Value::Int(events.len() as i64)),
            (
                "records".into(),
                Value::Array(events.iter().map(FlightEvent::to_json).collect()),
            ),
            (
                "trace".into(),
                Value::Array(events.iter().map(|e| packet_to_json(&e.packet)).collect()),
            ),
        ])
    }
}

/// Render one sketch key (dispatch-key values) as `field=value` pairs.
fn render_key(key: &DispatchKey, values: &[u64]) -> String {
    key.fields()
        .iter()
        .zip(values)
        .map(|(f, v)| format!("{}={}", f.path(), v))
        .collect::<Vec<_>>()
        .join(",")
}

/// Render the `nfactor top` table from a metrics snapshot: one row per
/// shard that has an eval histogram, plus hot-key lines underneath.
///
/// `interval_ms` is the polling interval when `snapshot` is a
/// [`MetricsSnapshot::delta`] (live mode, rates are per-interval);
/// `None` renders cumulative totals (`--once`).
pub fn render_top(snapshot: &MetricsSnapshot, interval_ms: Option<u64>) -> String {
    let mut shards: Vec<usize> = snapshot
        .histograms
        .keys()
        .filter_map(|k| {
            k.strip_prefix("shard.")?
                .strip_suffix(".eval.ns")?
                .parse()
                .ok()
        })
        .collect();
    shards.sort_unstable();
    let mut out = String::new();
    if shards.is_empty() {
        out.push_str("(no shard telemetry yet)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "{:<6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>6} {:>6}",
        "shard", "pkts", "rate/s", "p50(us)", "p99(us)", "max(us)", "ring", "quar"
    );
    for w in &shards {
        let h = &snapshot.histograms[&format!("shard.{w}.eval.ns")];
        let rate = match interval_ms {
            Some(ms) if ms > 0 => format!("{}", h.count.saturating_mul(1000) / ms),
            _ => "-".into(),
        };
        let ring = snapshot
            .histograms
            .get(&format!("shard.{w}.ring.occupancy"))
            .map(|o| o.p99().to_string())
            .unwrap_or_else(|| "-".into());
        let quar = snapshot
            .counter(&format!("shard.{w}.quarantined"))
            .map(|q| q.to_string())
            .unwrap_or_else(|| "0".into());
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>10} {:>10} {:>10} {:>10} {:>6} {:>6}",
            w,
            h.count,
            rate,
            h.p50() / 1_000,
            h.p99() / 1_000,
            h.max / 1_000,
            ring,
            quar
        );
    }
    for w in &shards {
        if let Some(label) = snapshot.labels.get(&format!("shard.{w}.hotkeys")) {
            let _ = writeln!(out, "hot[{w}]  {label}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::PacketGen;

    #[test]
    fn worker_telemetry_flushes_on_cadence_and_at_finish() {
        let tracer = Tracer::enabled();
        let mut tel = WorkerTelemetry::new(1, "interp");
        let pkt = PacketGen::new(1).batch(1).pop().unwrap();
        let recorded = FLUSH_EVERY + 6;
        for seq in 0..recorded {
            tel.record(seq, 1_500, FlightOutcome::Forwarded, &pkt);
            tel.maybe_flush(&tracer);
        }
        // One cadence's worth of observations flushed; 6 pending.
        let mid = tracer.metrics();
        assert_eq!(mid.histograms["shard.1.eval.ns"].count, FLUSH_EVERY);
        let stats = tel.finish(&tracer);
        assert_eq!(
            tracer.metrics().histograms["shard.1.eval.ns"].count,
            recorded
        );
        assert_eq!(stats.eval.count, recorded);
        assert_eq!(stats.flight.len(), FLIGHT_CAP);
    }

    #[test]
    fn flight_merge_keeps_most_recent_by_seq() {
        let tracer = Tracer::disabled();
        let pkt = PacketGen::new(2).batch(1).pop().unwrap();
        let mut a = WorkerTelemetry::new(0, "interp");
        let mut b = WorkerTelemetry::new(1, "interp");
        // Each worker records one event past its recorder's capacity.
        let recorded = 2 * FLIGHT_CAP as u64 + 2;
        for seq in 0..recorded {
            let tel = if seq % 2 == 0 { &mut a } else { &mut b };
            tel.record(seq, 100, FlightOutcome::Forwarded, &pkt);
        }
        let stats = RunStats::assemble(
            vec![a.finish(&tracer), b.finish(&tracer)],
            Vec::new(),
            None,
            0,
            0,
            &tracer,
        );
        let (events, total) = stats.flight(FLIGHT_CAP);
        assert_eq!(total, recorded);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let last: Vec<u64> = (recorded - FLIGHT_CAP as u64..recorded).collect();
        assert_eq!(seqs, last);
        // The dump is valid JSON with a replayable trace.
        let dump = stats.flight_json(FLIGHT_CAP);
        let rendered = dump.render();
        let parsed = Value::parse(&rendered).expect("flight dump re-parses");
        let Some(Value::Array(trace)) = parsed.get("trace") else {
            panic!("flight dump lacks a trace array");
        };
        assert_eq!(trace.len(), FLIGHT_CAP);
    }

    #[test]
    fn render_top_shows_each_shard_row() {
        let tracer = Tracer::enabled();
        let pkt = PacketGen::new(3).batch(1).pop().unwrap();
        for w in 0..2 {
            let mut tel = WorkerTelemetry::new(w, "interp");
            tel.record(0, 2_000_000, FlightOutcome::Forwarded, &pkt);
            tel.occupancy(5);
            tel.finish(&tracer);
        }
        tracer.count("shard.1.quarantined", 2);
        let table = render_top(&tracer.metrics(), None);
        assert!(table.contains("shard"), "{table}");
        let rows: Vec<&str> = table.lines().collect();
        assert!(rows.len() >= 3, "{table}");
        assert!(rows[2].trim_start().starts_with('1'), "{table}");
        assert!(
            rows[2].trim_end().ends_with('2'),
            "quarantine column: {table}"
        );
    }
}
