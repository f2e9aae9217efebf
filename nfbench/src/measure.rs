//! Set-up, the timed loop, and the metrics each mode reports.
//!
//! A run sets up at least [`SETUP_REPEATS`] times (`setup_s` is the
//! median), then interleaves four kinds of timed operation: one engine build,
//! and one trace run on each backend. The loop always runs the kind
//! that has used the least time so far, so each kind gets a quarter of
//! `--seconds` whatever its operations cost, and every kind's samples
//! spread over the whole run instead of bunching in one phase of it.
//!
//! Untraced runs report the end-to-end metrics: the median over the
//! run of each operation's wall time scaled to reference speed by a
//! [`SpeedClock`]. Traced runs record a bench span around every call
//! into the program, with the program's own spans nested under them,
//! and derive the per-layer metrics (raw wall times) from those spans
//! and the counters the program already publishes.

use crate::gate::{self, Expected, RunShape};
use crate::workload::{self, Workload, BACKENDS, STREAMS};
use crate::{Options, Report, SpeedClock, TimedSource};
use nfactor::compile::{compile, CompiledProgram, CompiledState};
use nfactor::core::accuracy::initial_model_state;
use nfactor::core::{Pipeline, Synthesis};
use nfactor::interp::Interp;
use nfactor::model::ModelState;
use nfactor::packet::{Packet, PacketGen};
use nfactor::shard::{Backend, RunConfig, ShardEngine, ShardRun, SliceSource, TelemetryConfig};
use nfactor::support::fault::{FaultKind, FaultPlan};
use nfactor::support::workload::WorkloadSource;
use nfactor::trace::{MetricsSnapshot, Tracer};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest operations of each kind an untraced run makes, however long
/// they take. Only snort's ~1 s paper-scale build needs more than
/// `--seconds` to reach it: its single builds spread by ~12% on a shared
/// host, and the median of 15 of them repeats within ~5% from run to run.
pub const MIN_SAMPLES: usize = 15;

/// The same for a traced run, whose per-layer metrics have no bound to
/// hold; a traced snort build op takes ~3 s.
pub const TRACED_MIN_SAMPLES: usize = 5;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Set-ups repeat until they have taken this long in all: a small
/// workload's set-up takes ~0.5 s, and the median of three such samples
/// moves by ~10% from run to run.
const SETUP_SECONDS: f64 = 2.0;

/// Packets each freshly built engine is checked on.
const PROBE_PACKETS: usize = 64;

/// A runtime `unattributed_frac` above this is printed as a named gap.
pub const GAP_THRESHOLD: f64 = 0.10;

/// The lint passes `nfl-lint` runs by default, in pass order.
pub const LINT_PASSES: [&str; 7] = [
    "dead-store",
    "unreachable-code",
    "unused-config",
    "use-before-init",
    "unguarded-map-read",
    "class-mismatch",
    "sharding",
];

/// Synthesis stages: (`pipeline.stage.<stage>` span, reported layer).
const STAGES: [(&str, &str); 5] = [
    ("frontend", "nfl-lang.parse_ms"),
    ("structure", "nfl-analysis.normalize_ms"),
    ("slice", "nfl-slicer.slice_ms"),
    ("symex", "nfl-symex.explore_ms"),
    ("model", "nf-model.build_ms"),
];

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The `.nfw` traces of a run, deleted when dropped: per input stream,
/// one trace per backend, each a prefix of the stream.
struct Traces(Vec<[PathBuf; 3]>);

impl Drop for Traces {
    fn drop(&mut self) {
        for t in self.0.iter().flatten() {
            let _ = std::fs::remove_file(t);
        }
    }
}

/// Everything the timed loop runs on, produced before any timing.
struct Setup {
    src: String,
    syn: Synthesis,
    traces: Traces,
    /// One engine per backend, configured like the timed runs.
    engines: Vec<ShardEngine>,
    faults: FaultPlan,
    expected: [Expected; 3],
    probe: Vec<Packet>,
    probe_sig: Vec<(u64, Vec<Packet>, bool)>,
}

/// The tracer a workload's untraced runs use: recording only when the
/// telemetry plane is on, since telemetry flushes into it.
fn run_tracer(w: &Workload) -> Tracer {
    if w.telemetry {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    }
}

fn pipeline(w: &Workload, tracer: Tracer) -> Result<Pipeline, String> {
    Pipeline::builder()
        .name(w.nf)
        .shards(1)
        .tracer(tracer)
        .build()
        .map_err(err)
}

fn setup(w: &Workload, opts: &Options, repeat: usize) -> Result<Setup, String> {
    gate::golden(&opts.golden_dir)?;
    let src = w.source(opts.tiny);
    let sizes = [0, 1, 2].map(|b| w.packets(b, opts.tiny));
    let mut traces = Traces(Vec::with_capacity(STREAMS));
    for (k, seed) in workload::stream_seeds(opts.seed).into_iter().enumerate() {
        let tag = format!("{}-{}-{repeat}-{k}", w.name, std::process::id());
        traces
            .0
            .push(workload::write_traces(&opts.out_dir, &tag, seed, sizes)?);
    }
    let p = pipeline(w, run_tracer(w))?;
    let syn = p.synthesize(&src).map_err(err)?;
    gate::complete(&syn)?;
    let engines = BACKENDS
        .iter()
        .map(|&(b, _)| ShardEngine::from_synthesis(&p, &syn, b).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    for t in &traces.0 {
        gate::three_way(&syn, &engines, &t[0])?;
    }
    let faults = w.fault_plan(opts.seed, sizes[2], opts.tiny);
    let expected = [0, 1, 2].map(|b| {
        let errs = workload::injected(&faults, FaultKind::EvalError, sizes[b]);
        let panics = workload::injected(&faults, FaultKind::Panic, sizes[b]);
        // Only the compiled backend has a per-packet model fallback, so
        // its evaluator errors are recovered instead of quarantined.
        if BACKENDS[b].0 == Backend::Compiled {
            Expected {
                quarantined: panics,
                fallbacks: errs,
            }
        } else {
            Expected {
                quarantined: panics + errs,
                fallbacks: 0,
            }
        }
    });
    let probe = PacketGen::new(opts.seed).batch(PROBE_PACKETS);
    let probe_sig = probe_signature(&engines[2], &probe)?;
    Ok(Setup {
        src,
        syn,
        traces,
        engines,
        faults,
        expected,
        probe,
        probe_sig,
    })
}

fn probe_signature(
    engine: &ShardEngine,
    probe: &[Packet],
) -> Result<Vec<(u64, Vec<Packet>, bool)>, String> {
    let run = engine
        .run_with(SliceSource::new(probe), &RunConfig::single())
        .map_err(err)?;
    Ok(run.output_signature())
}

impl Setup {
    /// A freshly built compiled engine must behave like the set-up's.
    fn check_engine(&self, built: &ShardEngine) -> Result<(), String> {
        if probe_signature(built, &self.probe)? == self.probe_sig {
            Ok(())
        } else {
            Err("a rebuilt engine's outputs differ from the set-up engine's".into())
        }
    }

    /// Check a timed run of backend `b` over stream `k` against the
    /// expected accounting and the first timed run of that pair.
    fn check_run(
        &self,
        w: &Workload,
        opts: &Options,
        (k, b): (usize, usize),
        run: &ShardRun,
        first: &mut [[Option<RunShape>; 3]],
    ) -> Result<(), String> {
        let shape = RunShape::of(run);
        let checked = shape
            .check(
                w.packets(b, opts.tiny),
                &self.expected[b],
                first[k][b].as_ref(),
            )
            .map_err(|e| format!("{} {} stream {k}: {e}", w.name, BACKENDS[b].1));
        first[k][b].get_or_insert(shape);
        checked
    }
}

/// Which stream each backend's next trace run reads: every backend
/// cycles through all [`STREAMS`] in turn.
#[derive(Default)]
struct Cycle([usize; 3]);

impl Cycle {
    /// The stream for backend `b`'s next run.
    fn next(&mut self, b: usize) -> usize {
        let k = self.0[b] % STREAMS;
        self.0[b] += 1;
        k
    }
}

/// Set up [`SETUP_REPEATS`] times or for [`SETUP_SECONDS`], whichever
/// takes longer, keeping the last; returns it with the set-up times in
/// seconds at reference speed.
fn timed_setup(
    w: &Workload,
    opts: &Options,
    clock: &mut SpeedClock,
) -> Result<(Setup, Vec<f64>), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let s = setup(w, opts, times.len())?;
        times.push(clock.scale(ns(t0.elapsed())) / 1e9);
        let enough =
            times.len() >= SETUP_REPEATS && started.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if opts.tiny || enough {
            return Ok((s, times));
        }
    }
}

/// Run one workload in the mode `opts` selects.
pub fn run(w: &Workload, opts: &Options) -> Result<Report, String> {
    let mut clock = SpeedClock::new();
    let (setup, setup_s) = timed_setup(w, opts, &mut clock)?;
    let mut report = Report::default();
    if opts.trace {
        per_layer(w, &setup, opts, &mut report)?;
    } else {
        end_to_end(w, &setup, opts, &mut clock, &mut report)?;
        report.push("setup_s", "s", &setup_s);
        report.push("peak_heap_mb", "MB", &[crate::peak_heap_mb()]);
    }
    Ok(report)
}

/// Interleave `kinds` kinds of timed operation: always run the kind
/// that has used the least time so far, until `opts.seconds` have
/// elapsed; then run only the kinds still short of `min_samples`.
fn interleave(
    opts: &Options,
    kinds: usize,
    min_samples: usize,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut spent = vec![Duration::ZERO; kinds];
    let mut count = vec![0; kinds];
    loop {
        let in_budget = started.elapsed() < budget;
        let Some(kind) = (0..kinds)
            .filter(|&k| in_budget || count[k] < min_samples)
            .min_by_key(|&k| spent[k])
        else {
            return Ok(());
        };
        let t0 = Instant::now();
        op(kind)?;
        spent[kind] += t0.elapsed();
        count[kind] += 1;
    }
}

/// One timed trace run as `nfactor run` performs it: open the trace,
/// stream it, merge. Returns the run and its wall time in ns.
fn stream(engine: &ShardEngine, path: &Path, cfg: &RunConfig) -> Result<(ShardRun, f64), String> {
    let t0 = Instant::now();
    let run = engine.run_with(gate::open(path)?, cfg).map_err(err)?;
    Ok((run, ns(t0.elapsed())))
}

fn end_to_end(
    w: &Workload,
    s: &Setup,
    opts: &Options,
    clock: &mut SpeedClock,
    report: &mut Report,
) -> Result<(), String> {
    let cfg = w.run_config(&s.faults);
    let mut build_ms = Vec::new();
    let mut kpps: [Vec<f64>; 3] = Default::default();
    let mut cycle = Cycle::default();
    let mut first = vec![<[Option<RunShape>; 3]>::default(); STREAMS];
    interleave(opts, 4, MIN_SAMPLES, |kind| {
        if kind == 0 {
            // A fresh pipeline per build, as each `nfactor run` has: a
            // recording tracer shared across builds would keep every
            // build's spans, and peak memory would grow with the number
            // of builds the time budget allows.
            let p = pipeline(w, run_tracer(w))?;
            let t0 = Instant::now();
            let built = ShardEngine::from_source(&p, &s.src, Backend::Compiled).map_err(err)?;
            build_ms.push(clock.scale(ns(t0.elapsed())) / 1e6);
            report.record(s.check_engine(&built));
        } else {
            let b = kind - 1;
            let k = cycle.next(b);
            let (run, wall_ns) = stream(&s.engines[b], &s.traces.0[k][b], &cfg)?;
            kpps[b].push(w.packets(b, opts.tiny) as f64 / clock.scale(wall_ns) * 1e6);
            report.record(s.check_run(w, opts, (k, b), &run, &mut first));
        }
        Ok(())
    })?;
    report.push("build_ms", "ms", &build_ms);
    for (b, (_, label)) in BACKENDS.iter().enumerate() {
        report.push(format!("run_kpps.{label}"), "kpkt/s", &kpps[b]);
    }
    Ok(())
}

/// The standalone evaluators of one NF, stepped outside the shard
/// runtime: what a packet costs with no journal, supervision, rings or
/// telemetry around it.
struct Evaluators {
    interp: Interp,
    model: ModelState,
    prog: CompiledProgram,
    compiled: CompiledState,
}

impl Evaluators {
    fn new(syn: &Synthesis) -> Result<Evaluators, String> {
        let interp = Interp::new(&syn.nf_loop).map_err(err)?;
        let model = initial_model_state(syn, &interp);
        let prog = compile(&syn.model, &model).map_err(err)?;
        let compiled = CompiledState::new(&prog);
        Ok(Evaluators {
            interp,
            model,
            prog,
            compiled,
        })
    }

    /// Step every packet through a fresh copy of backend `b`'s initial
    /// state; returns the eval time in ns and the median time in ns of
    /// one full copy of the final state.
    fn eval(&self, syn: &Synthesis, b: usize, packets: &[Packet]) -> Result<(f64, f64), String> {
        match BACKENDS[b].0 {
            Backend::Interp => step_loop(
                &self.interp,
                packets,
                |st, p| st.process(p).map(|r| drop(black_box(r))).map_err(err),
                |st| drop(black_box(st.globals.clone())),
            ),
            Backend::Model => step_loop(
                &self.model,
                packets,
                |st, p| {
                    st.step(&syn.model, p)
                        .map(|r| drop(black_box(r)))
                        .map_err(err)
                },
                |st| drop(black_box((st.scalars.clone(), st.maps.clone()))),
            ),
            Backend::Compiled => step_loop(
                &self.compiled,
                packets,
                |st, p| {
                    st.step(&self.prog, p)
                        .map(|r| drop(black_box(r)))
                        .map_err(err)
                },
                |st| drop(black_box(st.snapshot(&self.prog))),
            ),
        }
    }
}

/// Time `step` over `packets` from a clone of `init`, then time `copy`
/// of the final state a few times; returns (eval ns, median copy ns).
fn step_loop<S: Clone>(
    init: &S,
    packets: &[Packet],
    mut step: impl FnMut(&mut S, &Packet) -> Result<(), String>,
    copy: impl Fn(&S),
) -> Result<(f64, f64), String> {
    let mut st = init.clone();
    let t0 = Instant::now();
    for p in packets {
        step(&mut st, p)?;
    }
    let eval_ns = ns(t0.elapsed());
    let copies: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            copy(&st);
            ns(t0.elapsed())
        })
        .collect();
    Ok((eval_ns, crate::median(&copies)))
}

fn read_trace(path: &Path) -> Result<Vec<Packet>, String> {
    let mut reader = gate::open(path)?;
    let mut out = Vec::new();
    while reader.next_batch(&mut out, 4096).map_err(err)? > 0 {}
    Ok(out)
}

fn counter(m: &MetricsSnapshot, name: &str) -> f64 {
    m.counter(name).unwrap_or(0) as f64
}

fn histogram_sum(m: &MetricsSnapshot, name: &str) -> f64 {
    m.histograms.get(name).map_or(0.0, |h| h.sum as f64)
}

/// Per-layer samples, one vector per metric, in first-seen order.
#[derive(Default)]
struct Samples(Vec<(String, &'static str, Vec<f64>)>);

impl Samples {
    fn add(&mut self, name: &str, unit: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, _, vs)) => vs.push(v),
            None => self.0.push((name.to_string(), unit, vec![v])),
        }
    }
}

fn telemetry(on: bool) -> TelemetryConfig {
    TelemetryConfig {
        enabled: on,
        ..TelemetryConfig::default()
    }
}

/// The traced loop: the same operations as [`end_to_end`], each wrapped
/// in a bench span and taken apart into layers.
fn per_layer(w: &Workload, s: &Setup, opts: &Options, report: &mut Report) -> Result<(), String> {
    let tracer = Tracer::enabled();
    let tp = pipeline(w, tracer.clone())?;
    let cfg = w.run_config(&s.faults);
    let mut traced = BACKENDS
        .iter()
        .map(|&(b, _)| {
            let mut e = ShardEngine::from_synthesis(&tp, &s.syn, b).map_err(err)?;
            e.set_telemetry(telemetry(w.telemetry));
            Ok(e)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let evals = Evaluators::new(&s.syn)?;
    let loc_orig = s.syn.metrics.loc_orig.max(1) as f64;
    let mut x = Samples::default();
    let mut cycle = Cycle::default();
    let mut first = vec![<[Option<RunShape>; 3]>::default(); STREAMS];

    interleave(opts, 4, TRACED_MIN_SAMPLES, |kind| {
        if kind == 0 {
            // One engine build exactly as untraced runs time it, then the
            // two calls it makes internally without spans (lint, initial
            // state), timed from outside on the same input.
            let before = tracer.metrics();
            let span = tracer.span("bench.build");
            let t0 = Instant::now();
            let built = ShardEngine::from_source(&tp, &s.src, Backend::Compiled).map_err(err)?;
            let wall = ns(t0.elapsed());
            span.end();
            report.record(s.check_engine(&built));
            let span = tracer.span("bench.lint");
            let t0 = Instant::now();
            black_box(
                nfactor::lint::lint_program_traced(&s.syn.name, &s.syn.nf_loop.program, &tracer)
                    .map_err(err)?,
            );
            let lint = ns(t0.elapsed());
            span.end();
            let span = tracer.span("bench.init_state");
            let t0 = Instant::now();
            let interp = Interp::new(&s.syn.nf_loop).map_err(err)?;
            black_box(initial_model_state(&s.syn, &interp));
            let init = ns(t0.elapsed());
            span.end();

            let d = tracer.metrics().delta(&before);
            let mut attributed = lint + init;
            for (stage, layer) in STAGES {
                let v = counter(&d, &format!("pipeline.stage.{stage}.ns"));
                attributed += v;
                x.add(layer, "ms", v / 1e6);
            }
            let compile_ns = histogram_sum(&d, "compile.ns");
            attributed += compile_ns;
            x.add("nf-compile.compile_ms", "ms", compile_ns / 1e6);
            x.add("nfl-lint.lint_ms", "ms", lint / 1e6);
            x.add(
                "nfl-lint.ctx_ms",
                "ms",
                counter(&d, "lint.ctx.build.ns") / 1e6,
            );
            for pass in LINT_PASSES {
                let v = counter(&d, &format!("lint.pass.{pass}.ns"));
                x.add(&format!("nfl-lint.pass_ms.{pass}"), "ms", v / 1e6);
            }
            x.add("nfactor-core.init_state_ms", "ms", init / 1e6);
            x.add(
                "bench.build_unattributed_ms",
                "ms",
                (wall - attributed) / 1e6,
            );
            x.add(
                "nfl-slicer.pdg_edges",
                "count",
                counter(&d, "slice.pdg.edges"),
            );
            x.add(
                "nfl-slicer.kept_loc_frac",
                "frac",
                s.syn.metrics.loc_slice as f64 / loc_orig,
            );
            let explored = counter(&d, "symex.paths.explored");
            let pruned = counter(&d, "symex.paths.pruned");
            x.add("nfl-symex.paths", "count", explored);
            x.add(
                "nfl-symex.feasible_frac",
                "frac",
                explored / (explored + pruned).max(1.0),
            );
            x.add(
                "nf-model.entries",
                "count",
                s.syn.model.entry_count() as f64,
            );
            x.add("nf-compile.nodes", "count", counter(&d, "compiled.nodes"));
            return Ok(());
        }

        // One backend: an untraced run (the tracing-overhead baseline), a
        // traced run, a telemetry-toggled companion run, and a
        // standalone eval loop over the same packets.
        let b = kind - 1;
        let k = cycle.next(b);
        let trace = &s.traces.0[k][b];
        let label = BACKENDS[b].1;
        let n = w.packets(b, opts.tiny) as f64;
        let (run, untraced) = stream(&s.engines[b], trace, &cfg)?;
        report.record(s.check_run(w, opts, (k, b), &run, &mut first));

        let before = tracer.metrics();
        let span = tracer.span(format!("bench.run.{label}"));
        let t0 = Instant::now();
        let mut source = TimedSource::new(gate::open(trace)?);
        let run = traced[b].run_with(&mut source, &cfg).map_err(err)?;
        let wall = ns(t0.elapsed());
        span.end();
        let d = tracer.metrics().delta(&before);
        report.record(s.check_run(w, opts, (k, b), &run, &mut first));

        let decode = ns(source.pulled());
        let busy = run.busy_ns.iter().sum::<u64>() as f64;
        let merge = counter(&d, "shard.merge.ns");
        x.add(
            "bench.trace_overhead_frac",
            "frac",
            (wall - untraced) / untraced,
        );
        if b == 2 {
            // The longest trace: least affected by the file open.
            x.add("nf-packet.decode_ns_per_pkt", "ns/pkt", decode / n);
            x.add(
                "nf-shard.live_entries",
                "count",
                RunShape::of(&run).live_entries() as f64,
            );
        }
        let mut add = |layer: &str, unit, v| x.add(&format!("{layer}.{label}"), unit, v);
        add("nf-shard.busy_ns_per_pkt", "ns/pkt", busy / n);
        add("nf-shard.merge_ms", "ms", merge / 1e6);
        // On one thread the run's wall time is trace decode, evaluator
        // steps (busy), merge, and the loop around them: dispatch
        // hashing, fault-plan lookups, telemetry recording and the
        // join-time state snapshot, none of which has a span or counter.
        add(
            "nf-shard.unattributed_frac",
            "frac",
            (wall - decode - busy - merge) / wall,
        );
        let f = run.fault_summary();
        add("nf-shard.fallbacks", "count", f.fallbacks as f64);
        add("nf-shard.quarantined", "count", f.quarantined as f64);
        add("nf-shard.restarts", "count", f.restarts as f64);

        // The same run with the telemetry plane toggled: the wall time
        // difference is what telemetry costs per packet. (On one thread
        // telemetry is recorded outside the timed evaluator step, so
        // busy time does not see it.)
        traced[b].set_telemetry(telemetry(!w.telemetry));
        let span = tracer.span(format!("bench.run.{label}.telemetry_toggled"));
        let other = stream(&traced[b], trace, &cfg);
        span.end();
        traced[b].set_telemetry(telemetry(w.telemetry));
        let (other, other_wall) = other?;
        report.record(s.check_run(w, opts, (k, b), &other, &mut first));
        let (on, off) = if w.telemetry {
            (wall, other_wall)
        } else {
            (other_wall, wall)
        };
        add("nf-trace.telemetry_ns_per_pkt", "ns/pkt", (on - off) / n);

        let packets = read_trace(trace)?;
        let span = tracer.span(format!("bench.eval.{label}"));
        let evaluated = evals.eval(&s.syn, b, &packets);
        span.end();
        let (eval, copy) = evaluated?;
        add("eval_ns_per_pkt", "ns/pkt", eval / n);
        add("nf-shard.supervise_ns_per_pkt", "ns/pkt", (busy - eval) / n);
        add("state_copy_us", "us", copy / 1e3);
        Ok(())
    })?;

    for (name, unit, samples) in &x.0 {
        report.push(name.clone(), unit, samples);
    }
    for m in &report.metrics {
        if m.name.starts_with("nf-shard.unattributed_frac.") && m.value > GAP_THRESHOLD {
            println!(
                "gap: {} = {:.3} > {GAP_THRESHOLD}: wall time outside trace decode, \
                 evaluator steps and merge is unmeasured",
                m.name, m.value
            );
        }
    }
    write_artifacts(w, opts, &tracer, report)
}

/// Write `<workload>.trace.json` (Chrome trace-event format) and
/// `<workload>.layers.json` (the per-layer report) under the output
/// directory.
fn write_artifacts(
    w: &Workload,
    opts: &Options,
    tracer: &Tracer,
    report: &Report,
) -> Result<(), String> {
    let write = |file: String, text: String| {
        let path = opts.out_dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(
        format!("{}.trace.json", w.name),
        tracer.trace_json().render(),
    )?;
    write(
        format!("{}.layers.json", w.name),
        report.to_json().render_pretty(),
    )
}
