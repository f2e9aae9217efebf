//! Heap allocations per packet, pinned.
//!
//! A warm compiled or model step whose fired entry rewrites nothing
//! forwards the input packet by reference, and stages its state writes
//! in the store's one pending-writes buffer, so it allocates nothing
//! beyond the map keys it builds. A `.nfw` record decodes straight out
//! of the reader's buffer: pulled with `next_batch`, its payload is the
//! one allocation it makes; refilled into the previous batch's packet,
//! it reuses that packet's payload buffer. The inline executor routes
//! and steps each packet in the slot it was refilled into, so a warm
//! sequential run over a `.nfw` trace allocates nothing per packet. A
//! warm shard worker's telemetry records and flushes without
//! allocating. A counting global allocator keeps per-thread tallies, so
//! each test counts only what its own thread allocates while the
//! harness runs tests side by side.

use nfactor::compile::{compile, CompiledState};
use nfactor::core::accuracy::initial_model_state;
use nfactor::core::Pipeline;
use nfactor::interp::Interp;
use nfactor::packet::{NfwReader, NfwWriter, Packet, PacketGen};
use nfactor::shard::telemetry::WorkerTelemetry;
use nfactor::shard::{Backend, FlightOutcome, RunConfig, ShardEngine, FLIGHT_CAP};
use nfactor::support::workload::WorkloadSource;
use nfactor::trace::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) this thread has made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count() {
    // A thread's allocations after its locals are torn down go
    // uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` implementation is sound; the counter only
// observes that a call happened.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, hence by
        // `System`, with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, plus the caller's guarantees on
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What `f` returns, and how many allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The packets every test steps or decodes.
fn packets() -> Vec<Packet> {
    PacketGen::new(0xC0DE).batch(4_000)
}

/// Synthesize `src`, then count the allocations of a second pass of
/// `pkts` through the compiled step and through the model step, each on
/// a state the first pass warmed. Returns `(compiled, model)` counts.
fn step_allocations(name: &str, src: &str, pkts: &[Packet]) -> (u64, u64) {
    let pipeline = Pipeline::builder().name(name).build().unwrap();
    let syn = pipeline.synthesize(src).unwrap();
    let interp = Interp::new(&syn.nf_loop).unwrap();
    let init = initial_model_state(&syn, &interp);
    let prog = compile(&syn.model, &init).unwrap();

    let mut cs = CompiledState::new(&prog);
    let mut forwarded = 0;
    for p in pkts {
        forwarded += usize::from(cs.step(&prog, p).unwrap().output.is_some());
    }
    assert!(forwarded > 0, "{name}: no packet forwarded");
    let ((), compiled) = allocations(|| {
        for p in pkts {
            std::hint::black_box(cs.step(&prog, p).unwrap());
        }
    });

    let mut ms = init;
    for p in pkts {
        ms.step(&syn.model, p).unwrap();
    }
    let ((), model) = allocations(|| {
        for p in pkts {
            std::hint::black_box(ms.step(&syn.model, p).unwrap());
        }
    });
    (compiled, model)
}

#[test]
fn warm_snort_steps_allocate_nothing() {
    let src = nfactor::corpus::snort::source(25);
    let (compiled, model) = step_allocations("snort", &src, &packets());
    assert_eq!((compiled, model), (0, 0), "(compiled, model)");
}

#[test]
fn warm_compiled_ratelimiter_steps_allocate_nothing() {
    // Every packet writes one map entry: both steps stage it in the
    // store's one pending-writes buffer, which keeps its allocations.
    let src = nfactor::corpus::ratelimiter::source();
    let (compiled, model) = step_allocations("ratelimiter", &src, &packets());
    assert_eq!((compiled, model), (0, 0), "(compiled, model)");
}

#[test]
fn warm_firewall_model_steps_allocate_like_compiled_ones() {
    // Each packet builds its 4-tuple key once for the pinhole probe and,
    // on an outbound SYN, once for the insert; both steps move that
    // tuple into the map key instead of copying it.
    let src = nfactor::corpus::firewall::source();
    let (compiled, model) = step_allocations("firewall", &src, &packets());
    assert_eq!((compiled, model), (8_000, 8_000), "(compiled, model)");
}

#[test]
fn warm_fig1_lb_model_steps_move_their_map_keys() {
    // The model step moves each evaluated map key into the map (or the
    // probe) instead of copying it out of its value.
    let src = nfactor::corpus::fig1_lb::source();
    let (compiled, model) = step_allocations("fig1-lb", &src, &packets());
    assert_eq!(
        model, 16_959,
        "model step allocations (compiled: {compiled})"
    );
}

#[test]
fn warm_worker_telemetry_records_and_flushes_without_allocating() {
    let tracer = Tracer::enabled();
    let mut tel = WorkerTelemetry::new(0, "compiled");
    let pkts = packets();
    // Warm: create the tracer's histogram entry and fill the flight
    // ring. 4,000 is not a multiple of the ring's 64 slots, so two passes
    // leave every slot's packet buffer sized for each packet the timed
    // pass writes into it.
    for _ in 0..2 {
        for (seq, p) in pkts.iter().enumerate() {
            tel.record(seq as u64, 100, FlightOutcome::Forwarded, p);
            tel.maybe_flush(&tracer);
        }
    }
    tel.flush(&tracer);
    let ((), n) = allocations(|| {
        for (seq, p) in pkts.iter().enumerate() {
            tel.record(seq as u64, 100, FlightOutcome::Forwarded, p);
            tel.maybe_flush(&tracer);
        }
        tel.flush(&tracer);
    });
    assert_eq!(
        n,
        0,
        "allocations recording and flushing {} packets",
        pkts.len()
    );
    let stats = tel.finish(&tracer);
    assert_eq!(stats.eval.count, 3 * pkts.len() as u64);
    assert_eq!(stats.flight.len(), FLIGHT_CAP);
}

/// A `.nfw` trace in the system temp dir, removed on drop.
struct Trace(String);

impl Trace {
    fn new(tag: &str, pkts: &[Packet]) -> Trace {
        let path =
            std::env::temp_dir().join(format!("nfw-allocations-{}-{tag}.nfw", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        let mut w = NfwWriter::create(&path, 0).unwrap();
        for p in pkts {
            w.push(p).unwrap();
        }
        w.finish().unwrap();
        Trace(path)
    }

    fn reader(&self) -> NfwReader {
        NfwReader::open(&self.0).unwrap()
    }
}

impl Drop for Trace {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// A reader's own allocations: its read buffer, its fallback record
/// buffer and that buffer's growth.
const PER_READER: u64 = 4;

#[test]
fn a_decoded_record_allocates_only_its_payload() {
    let pkts = packets();
    let trace = Trace::new("next-batch", &pkts);
    let payloads = pkts.iter().filter(|p| !p.payload.is_empty()).count() as u64;
    let mut out = Vec::with_capacity(pkts.len());
    let ((), n) = allocations(|| {
        let mut r = trace.reader();
        while r.next_batch(&mut out, 32).unwrap() > 0 {}
    });
    assert_eq!(out, pkts);
    assert!(
        (payloads..=payloads + PER_READER).contains(&n),
        "{n} allocations decoding {payloads} records with a payload"
    );
}

#[test]
fn a_refilled_batch_reuses_its_packets() {
    /// At most this many allocations for the whole pass: the reader's
    /// own, the first batch's payloads, and each slot's payload buffer
    /// growing to the longest payload the slot is refilled with. Pulled
    /// with `next_batch` into a cleared batch, the same pass allocates
    /// once per record with a payload (~3,900).
    const MAX: u64 = 100;
    let pkts = packets();
    let trace = Trace::new("refill", &pkts);
    let mut out = Vec::with_capacity(32);
    let mut at = 0;
    let ((), n) = allocations(|| {
        let mut r = trace.reader();
        loop {
            let got = r.refill(&mut out, 32).unwrap();
            if got == 0 {
                break;
            }
            assert!(out[..] == pkts[at..at + got], "batch at {at}");
            at += got;
        }
    });
    assert_eq!(at, pkts.len());
    assert!(
        n <= MAX,
        "{n} allocations refilling {} records in batches of 32",
        pkts.len()
    );
}

#[test]
fn sequential_snort_runs_allocate_nothing_per_packet() {
    /// Allocations a run may make more over twice the packets: none per
    /// packet, and a little slack for what a run sizes once (its
    /// buffers, the stores it clones and joins).
    const SLACK: u64 = 8;
    let src = nfactor::corpus::snort::source(25);
    let pkts = packets();
    let full = Trace::new("snort-full", &pkts);
    let prefix = Trace::new("snort-prefix", &pkts[..pkts.len() / 2]);
    let pipeline = Pipeline::builder().name("snort").build().unwrap();
    let mut cfg = RunConfig::sequential();
    cfg.keep_outputs = false;
    for backend in [Backend::Compiled, Backend::Model] {
        let engine = ShardEngine::from_source(&pipeline, &src, backend).unwrap();
        let count = |trace: &Trace| {
            let (run, n) = allocations(|| engine.run_with(trace.reader(), &cfg).unwrap());
            (run.total_pkts(), n)
        };
        let (prefix_pkts, short) = count(&prefix);
        let (full_pkts, long) = count(&full);
        assert_eq!((prefix_pkts, full_pkts), (2_000, 4_000), "{backend:?}");
        assert!(
            long <= short + SLACK,
            "{backend:?}: {long} allocations over 4,000 packets, {short} over 2,000"
        );
    }
}
