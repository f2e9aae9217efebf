//! The supervision layer: quarantine records, the restart and
//! dispatch-deadline limits, and the panic-capture plumbing the
//! engine's per-packet isolation is built on.
//!
//! A fault-tolerant shard runtime has three jobs this module supports:
//!
//! 1. **Contain** — a packet whose eval panics or errors must not take
//!    the run down. The engine wraps each eval in
//!    `quiet_catch_unwind` (a `catch_unwind` whose panic output is
//!    suppressed, because an *injected* or *contained* panic is not an
//!    emergency worth a stderr backtrace) and rolls partial state
//!    writes back by replaying the evaluator's undo log.
//! 2. **Account** — every contained failure becomes a
//!    [`QuarantineRecord`] carrying the packet, the error, and where it
//!    happened. A run retains at most [`QUARANTINE_CAP`] records, those
//!    with the lowest arrival seqs (the *count* of failures is always
//!    exact; only the retained records are capped), and they render to
//!    JSON whose `trace` form `nfactor run --workload` can replay
//!    directly — a quarantined packet is a ready-made fuzz/ddmin input.
//! 3. **Recover** — after [`RESTART_AFTER`] consecutive failures on one
//!    evaluator the engine restarts it in place, clearing any derived
//!    caches a misbehaving packet may have corrupted.

use nf_packet::{Field, Packet};
use nf_support::json::{ToJson, Value as Json};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Consecutive quarantined packets on one evaluator that restart it.
pub const RESTART_AFTER: u32 = 3;

/// Full quarantine records a run retains; the quarantined *count* is
/// always exact.
pub const QUARANTINE_CAP: usize = 64;

/// The retry deadline of an *injected* ring-overflow fault: large
/// enough that a plan exercising retry-with-backoff (small forced-full
/// count) never drops, small enough that the default overflow injection
/// (`fault::DEFAULT_OVERFLOW_ATTEMPTS`) reliably exercises
/// drop-with-accounting. A genuinely full ring is retried until the
/// worker drains it.
pub const INJECTED_RING_DEADLINE: u32 = 4096;

/// One contained per-packet failure.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineRecord {
    /// Global arrival sequence number of the failing packet.
    pub seq: u64,
    /// The shard on which the failure happened.
    pub shard: usize,
    /// Which backend was evaluating (`"interp"`, `"model"`,
    /// `"compiled"`).
    pub backend: &'static str,
    /// The captured error or panic message.
    pub error: String,
    /// The offending packet, exactly as the worker saw it.
    pub packet: Packet,
}

/// A packet as a `field path -> value` JSON object — the same shape
/// `nfactor run --workload` accepts in a `trace` array.
pub(crate) fn packet_to_json(pkt: &Packet) -> Json {
    let mut fields = Vec::new();
    for f in Field::ALL {
        if let Ok(v) = pkt.get(f) {
            fields.push((f.path().to_string(), Json::Int(v as i64)));
        }
    }
    Json::Object(fields)
}

impl ToJson for QuarantineRecord {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("seq".into(), Json::Int(self.seq as i64)),
            ("shard".into(), Json::Int(self.shard as i64)),
            ("backend".into(), Json::Str(self.backend.into())),
            ("error".into(), Json::Str(self.error.clone())),
            ("packet".into(), packet_to_json(&self.packet)),
        ])
    }
}

/// Render a run's quarantine as one JSON document (`nfactor run
/// --quarantine-out`). The top-level `trace` key holds the quarantined
/// packets in workload-trace form, so the dump itself is a valid
/// `--workload` file: feeding it back replays exactly the packets that
/// failed, which is the input `nf-fuzz`'s ddmin minimizer wants.
pub fn quarantine_to_json(records: &[QuarantineRecord], total: u64) -> Json {
    Json::Object(vec![
        ("quarantined".into(), Json::Int(total as i64)),
        (
            "records".into(),
            Json::Array(records.iter().map(|r| r.to_json()).collect()),
        ),
        (
            "trace".into(),
            Json::Array(records.iter().map(|r| packet_to_json(&r.packet)).collect()),
        ),
    ])
}

/// Bounded quarantine buffer: retains up to [`QUARANTINE_CAP`] full
/// records while tracking the arrival seq of *every* push exactly (the
/// seqs are what accounting and the chaos oracle need; the full records
/// are for humans and replay, so capping them bounds memory without
/// losing the count).
#[derive(Debug, Default)]
pub(crate) struct Quarantine {
    records: Vec<QuarantineRecord>,
    seqs: Vec<u64>,
}

impl Quarantine {
    pub(crate) fn push(&mut self, r: QuarantineRecord) {
        self.seqs.push(r.seq);
        if self.records.len() < QUARANTINE_CAP {
            self.records.push(r);
        }
    }

    pub(crate) fn into_parts(self) -> (Vec<QuarantineRecord>, Vec<u64>) {
        (self.records, self.seqs)
    }
}

/// Extract a readable message from a panic payload (the satellite fix
/// for the old `"worker panicked"` join-site message that discarded
/// both the payload and the shard index).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// Set while a supervised eval runs, so the process-wide panic hook
    /// knows a panic here is contained and should not spam stderr.
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Run `f`, catching any panic and returning its message.
///
/// While `f` runs, this thread's panics print nothing: a process-wide
/// hook (installed once, delegating to whatever hook was registered
/// before for every *other* thread/context) checks a thread-local
/// suppression flag. Contained panics are reported through the
/// quarantine, not the console.
pub(crate) fn quiet_catch_unwind<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    QUIET_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    result.map_err(|p| panic_message(p.as_ref()))
}

/// Deterministically corrupt a packet in flight (the `garbage` fault):
/// every field is overwritten from a seeded SplitMix64 stream, clamped
/// to its domain. The worker quarantines the packet before eval, so the
/// exact corruption only matters for the quarantine record.
pub(crate) fn scramble_packet(pkt: &mut Packet, seed: u64) {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    for f in Field::ALL {
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        let _ = pkt.set(f, x % (f.max_value() + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::PacketGen;

    #[test]
    fn panic_messages_survive_both_payload_shapes() {
        let e = quiet_catch_unwind(|| -> () { panic!("static str") }).unwrap_err();
        assert_eq!(e, "static str");
        let e = quiet_catch_unwind(|| -> () { panic!("formatted {}", 7) }).unwrap_err();
        assert_eq!(e, "formatted 7");
        assert_eq!(quiet_catch_unwind(|| 41 + 1), Ok(42));
    }

    #[test]
    fn quarantine_caps_records_but_counts_everything() {
        let pkt = PacketGen::new(1).batch(1).pop().unwrap();
        let mut q = Quarantine::default();
        let pushed = QUARANTINE_CAP as u64 + 3;
        for seq in 0..pushed {
            q.push(QuarantineRecord {
                seq,
                shard: 0,
                backend: "interp",
                error: "boom".into(),
                packet: pkt.clone(),
            });
        }
        let (records, seqs) = q.into_parts();
        assert_eq!(records.len(), QUARANTINE_CAP);
        assert_eq!(seqs, (0..pushed).collect::<Vec<_>>());
    }

    #[test]
    fn quarantine_dump_trace_is_a_replayable_workload() {
        let pkt = PacketGen::new(2).batch(1).pop().unwrap();
        let rec = QuarantineRecord {
            seq: 3,
            shard: 1,
            backend: "compiled",
            error: "injected".into(),
            packet: pkt.clone(),
        };
        let dump = quarantine_to_json(&[rec], 1);
        // The trace entries round-trip through Field::from_path + set —
        // the exact contract load_workload enforces.
        let Some(Json::Array(trace)) = dump.get("trace") else {
            panic!("dump lacks trace array")
        };
        assert_eq!(trace.len(), 1);
        let Json::Object(fields) = &trace[0] else {
            panic!("trace entry not an object")
        };
        let mut rebuilt = PacketGen::new(99).batch(1).pop().unwrap();
        for (path, v) in fields {
            let f = Field::from_path(path).expect("known field path");
            let Json::Int(n) = v else {
                panic!("non-int field")
            };
            rebuilt.set(f, *n as u64).expect("settable value");
        }
        for f in Field::ALL {
            assert_eq!(rebuilt.get(f).ok(), pkt.get(f).ok(), "{}", f.path());
        }
    }

    #[test]
    fn scramble_is_deterministic_and_changes_the_packet() {
        let base = PacketGen::new(3).batch(1).pop().unwrap();
        let mut a = base.clone();
        let mut b = base.clone();
        scramble_packet(&mut a, 17);
        scramble_packet(&mut b, 17);
        assert_eq!(a, b);
        assert_ne!(a, base);
        let mut c = base.clone();
        scramble_packet(&mut c, 18);
        assert_ne!(a, c);
    }
}
