//! The `nfactor` command-line tool.
//!
//! ```text
//! nfactor synthesize <file.nfl | --corpus name>   # synthesize & print the model
//! nfactor export     <file.nfl | --corpus name>   # machine-readable .nfm model
//! nfactor run        <file.nfl | --corpus name>   # execute across worker shards (--shards N)
//! nfactor slice      <file.nfl | --corpus name>   # Figure-1-style highlighted slice
//! nfactor classes    <file.nfl | --corpus name>   # Table-1 variable classification
//! nfactor paths      <file.nfl | --corpus name>   # execution paths of the slice
//! nfactor fsm        <file.nfl | --corpus name>   # Graphviz dot of the model FSM
//! nfactor metrics    <file.nfl | --corpus name>   # Table-2 row (add --orig for the slow column)
//! nfactor test       <file.nfl | --corpus name>   # model-guided compliance tests
//! nfactor lint       <file.nfl | --corpus name>   # NFL0xx diagnostics + sharding verdict (--json for machine output)
//! nfactor lint       <file.nfl> --watch           # re-lint on change, print only changed findings
//! nfactor lsp                                     # stdio JSON-RPC language server (diagnostics + hover)
//! nfactor fuzz       [--seed N] [--cases N]       # seeded crash/differential fuzzing of the whole pipeline
//! nfactor corpus                                  # list bundled corpus NFs
//! nfactor json-check <file.json>                  # validate a JSON file (used by scripts/verify.sh)
//! nfactor help                                    # the full flag reference
//! ```
//!
//! `run` feeds a packet workload through the [`nf-shard`](nfactor::shard)
//! runtime: the cross-flow lint report decides state placement, flows are
//! hash-dispatched to `--shards N` workers, and the merged state plus
//! per-shard counters are printed afterwards. `--workload FILE` supplies
//! the traffic as JSON (`{"seed": S, "packets": N}` for generated
//! streams, or `{"trace": [{"ip.src": A, "tcp.dport": 80, ...}, ...]}`
//! for explicit packets); without it a default seeded stream is used.
//! `--backend model` runs the synthesized model instead of the NFL
//! interpreter; `--backend compiled` runs the model lowered to the
//! `nf-compile` decision-tree engine.
//!
//! The run is supervised: a packet whose eval panics or errors is
//! quarantined (with journal rollback of partial state writes) instead
//! of aborting the run. `--fault-plan SPEC` injects deterministic
//! faults (`panic@1:3,delay@*:2:500,...`) for chaos testing, and
//! `--quarantine-out FILE` dumps the quarantined packets as JSON whose
//! `trace` key is itself a valid `--workload` file — a ready-made
//! replay/ddmin input.
//!
//! Synthesis-based commands accept `--timeout-ms N`, which bounds the
//! run with a [`Budget`](nfactor::support::budget::Budget), and
//! `--max-paths N`, which lowers the symbolic executor's
//! [`PathLimits::max_paths`](nfactor::symex::PathLimits::max_paths);
//! on exhaustion the model is returned partial and stamped `Truncated`
//! rather than hanging. `synthesize --json` prints the model as JSON.
//!
//! Every command also takes the observability flags, which attach an
//! [`nf-trace`](nfactor::trace) [`Tracer`](nfactor::trace::Tracer) to
//! the run:
//!
//! * `--trace-json FILE` — write Chrome trace-event JSON (one span per
//!   Algorithm-1 stage, nested symex/slicer/lint spans; open it in
//!   `chrome://tracing` or Perfetto);
//! * `--metrics` — print the sorted name→value metric table to stderr;
//! * `--metrics-json FILE` — write the metrics registry as JSON,
//!   including the `pipeline.truncated` counter and budget-exhaustion
//!   reason label when the model is partial.
//!
//! This is the workflow the paper proposes for NF vendors: run the tool
//! on proprietary NF code, ship only the resulting model to operators.

use nfactor::core::{Pipeline, Synthesis};
use nfactor::packet::{GenSource, JsonTraceSource, NfwReader, NfwWriter, Packet};
use nfactor::shard::{Backend, BatchConfig, RunConfig, ShardEngine, WorkloadSource};
use nfactor::support::json::Value;
use std::io::Write;
use std::process::ExitCode;

/// Write `text` (plus `\n` when `nl`) to stdout, exiting quietly if the
/// reader has gone away (`nfactor ... | head` closes the pipe early —
/// that is not an error worth unwinding over).
fn emit(text: &str, nl: bool) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let r = if nl {
        writeln!(out, "{text}")
    } else {
        write!(out, "{text}")
    };
    if r.is_err() {
        std::process::exit(0);
    }
}

fn outln(text: impl AsRef<str>) {
    emit(text.as_ref(), true);
}

fn out(text: impl AsRef<str>) {
    emit(text.as_ref(), false);
}

/// The unified `--help` layout: one USAGE line, commands grouped by
/// purpose, then the flag groups shared across commands. Mirrored in
/// the README's CLI section.
const HELP: &str = "\
nfactor — synthesize and run NF forwarding models (HotNets'16 reproduction)

USAGE
  nfactor <COMMAND> <file.nfl | --corpus NAME> [OPTIONS]

SYNTHESIS COMMANDS
  synthesize   synthesize and print the model (--json for machine output)
  export       machine-readable .nfm model (ship to operators)
  slice        Figure-1-style highlighted program slice
  classes      Table-1 variable classification
  paths        execution paths of the slice
  fsm          Graphviz dot of the model FSM
  metrics      Table-2 row (--orig adds the slow unsliced columns)

EXECUTION COMMANDS
  run          execute the NF on a packet workload across worker shards
  top          per-shard live telemetry view of a run (--once for a
               single scriptable snapshot)
  test         model-guided compliance tests against the NF itself
  lint         NFL0xx diagnostics + cross-flow sharding report (--json)
  lsp          stdio JSON-RPC language server (diagnostics + hover)
  fuzz         seeded crash/differential fuzzing [--seed N] [--cases N]

UTILITY COMMANDS
  corpus       list the bundled corpus NFs
  workload     generate a binary .nfw packet trace [--seed N] [--packets N]
  json-check   validate a JSON file
  help         this reference

RUN OPTIONS
  --shards N        worker shards (default 1, max 256)
  --backend B       execution backend: interp (default), model, or
                    compiled (model lowered to a decision-tree engine)
  --workload FILE   packet workload, streamed in batches: a binary .nfw
                    trace (see `workload`), or JSON — {\"seed\": S,
                    \"packets\": N} for a generated stream, or
                    {\"trace\": [{\"ip.src\": A, \"tcp.dport\": 80,
                    ...}, ...]} for explicit packets
  --batch N         packets per dispatch batch / ring push (default 32)
  --rebalance       skew-aware rebalancing: pin new flows away from
                    overloaded shards (outputs provably unchanged)
  --fault-plan SPEC comma-separated fault points `kind@shard:nth[:arg]`
                    with kind panic | err | delay | ring-overflow |
                    garbage and shard `*` for any shard, injected at the
                    nth packet steered to that shard (chaos testing)
  --quarantine-out FILE
                    write quarantined packets as JSON; the `trace` key
                    is a valid --workload file for direct replay
  --stats-json FILE write the telemetry plane's run stats as JSON:
                    per-shard eval-latency percentiles, ring occupancy,
                    hot dispatch keys, dispatch/merge timing
  --flight-out FILE write the flight recorder (last 64 per-packet events)
                    as JSON; its `trace` key is a valid --workload file

TOP OPTIONS
  --once               run the workload to completion, print one final
                       per-shard telemetry table, exit (scriptable)
  --poll-ms N          live-view refresh interval in ms (default 500)
  --watch-max-polls N  stop refreshing after N polls (0 = until the run
                       finishes); the run itself always completes

LINT OPTIONS
  --watch              poll the file and re-lint on change, printing only
                       the diagnostics that appeared (+) or disappeared (-)
  --poll-ms N          watch poll interval in milliseconds (default 500)
  --watch-max-polls N  stop after N polls (0 = run until interrupted)

BUDGET OPTIONS
  --timeout-ms N    wall-clock deadline; on exhaustion the model is
                    returned PARTIAL (stamped Truncated), never an error
  --max-paths N     cap on explored symbolic paths

OBSERVABILITY OPTIONS (any command)
  --trace-json FILE    write Chrome trace-event JSON (one span per stage)
  --metrics            print the name→value metric table to stderr
  --metrics-json FILE  write the metrics registry as JSON
";

fn usage() -> ExitCode {
    eprint!("{HELP}");
    ExitCode::from(2)
}

/// Remove `flag N` from `args`, returning the parsed `N` when present.
fn take_num_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} requires a value"));
    }
    let raw = args.remove(i + 1);
    args.remove(i);
    raw.parse::<u64>()
        .map(Some)
        .map_err(|_| format!("{flag}: expected a non-negative integer, got `{raw}`"))
}

/// Remove `flag VALUE` from `args`, returning `VALUE` when present.
fn take_str_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} requires a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

fn corpus_source(name: &str) -> Option<String> {
    nfactor::corpus::default_corpus()
        .into_iter()
        .find(|nf| nf.name == name)
        .map(|nf| nf.source)
}

fn load_source(args: &[String]) -> Result<(String, String), String> {
    match args {
        [flag, name, ..] if flag == "--corpus" => corpus_source(name)
            .map(|s| (name.clone(), s))
            .ok_or_else(|| format!("unknown corpus NF `{name}` (try `nfactor corpus`)")),
        [path, ..] => std::fs::read_to_string(path)
            .map(|s| (path.clone(), s))
            .map_err(|e| format!("{path}: {e}")),
        [] => Err("missing input (file path or --corpus NAME)".into()),
    }
}

fn run_synthesis(args: &[String], pipeline: &Pipeline) -> Result<Synthesis, String> {
    let (name, src) = load_source(args)?;
    pipeline
        .synthesize_named(&name, &src)
        .map_err(|e| e.to_string())
}

/// Load the `run` workload as a streaming [`WorkloadSource`]: a seeded
/// generated stream by default; with `--workload`, a binary `.nfw`
/// trace, a JSON `trace` array (streamed object by object, so a
/// malformed record is reported with its byte offset), or a JSON
/// generator config.
fn load_workload(
    path: Option<&str>,
) -> Result<Box<dyn WorkloadSource<Item = Packet> + Send>, String> {
    let Some(path) = path else {
        return Ok(Box::new(GenSource::new(0, 1000)));
    };
    if path.ends_with(".nfw") {
        let reader = NfwReader::open(path).map_err(|e| format!("{path}: {e}"))?;
        return Ok(Box::new(reader));
    }
    if let Some(trace) = JsonTraceSource::open(path).map_err(|e| format!("{path}: {e}"))? {
        return Ok(Box::new(trace));
    }
    // No top-level `trace` key: a (small) generator-config document.
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let int_key = |key: &str| match v.get(key) {
        Some(Value::Int(n)) if *n >= 0 => Ok(Some(*n as u64)),
        Some(_) => Err(format!("{path}: `{key}` must be a non-negative integer")),
        None => Ok(None),
    };
    let seed = int_key("seed")?.unwrap_or(0);
    let count = int_key("packets")?.unwrap_or(1000);
    Ok(Box::new(GenSource::new(seed, count)))
}

/// The `workload` command: generate a seeded packet stream into a
/// binary `.nfw` trace file that `run --workload file.nfw` replays.
fn run_workload_gen(mut args: Vec<String>) -> Result<(), String> {
    let seed = take_num_flag(&mut args, "--seed")?.unwrap_or(0);
    let count = take_num_flag(&mut args, "--packets")?.unwrap_or(1000);
    let path = match args.as_slice() {
        [p] => p.clone(),
        [] => return Err("workload: missing output path (e.g. trace.nfw)".into()),
        _ => return Err(format!("workload: unexpected arguments: {args:?}")),
    };
    let mut writer = NfwWriter::create(&path, seed).map_err(|e| format!("{path}: {e}"))?;
    let mut source = GenSource::new(seed, count);
    let mut buf = Vec::with_capacity(4096);
    loop {
        buf.clear();
        let got = source
            .next_batch(&mut buf, 4096)
            .map_err(|e| format!("{path}: {e}"))?;
        if got == 0 {
            break;
        }
        for pkt in &buf {
            writer.push(pkt).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    let written = writer.finish().map_err(|e| format!("{path}: {e}"))?;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    outln(format!("wrote {written} packets ({bytes} bytes) -> {path}"));
    Ok(())
}

/// `base` renamed for the NF `run` and `top` execute: the path limits,
/// budget, tracer and shard count carry over; Table 2's `--orig`
/// exploration does not, since neither command reports it.
fn named_pipeline(base: &Pipeline, name: &str) -> Result<Pipeline, String> {
    Pipeline::builder()
        .name(name)
        .shards(base.shards())
        .limits(base.config().limits)
        .budget(*base.budget())
        .tracer(base.tracer().clone())
        .build()
        .map_err(|e| e.to_string())
}

/// The `run` command: build a [`ShardEngine`] from the pipeline's
/// placement plan, feed it the workload, print plan + merged results.
#[allow(clippy::too_many_arguments)]
fn run_shards(
    args: &[String],
    base: &Pipeline,
    backend: Backend,
    workload: Option<&str>,
    fault_plan: Option<&str>,
    quarantine_out: Option<&str>,
    stats_out: Option<&str>,
    flight_out: Option<&str>,
    batch: Option<u64>,
    rebalance: bool,
) -> Result<(), String> {
    let (name, src) = load_source(args)?;
    let faults = match fault_plan {
        Some(spec) => nfactor::support::fault::FaultPlan::parse(spec)
            .map_err(|e| format!("--fault-plan: {e}"))?,
        None => nfactor::support::fault::FaultPlan::new(),
    };
    let pipeline = named_pipeline(base, &name)?;
    let engine = ShardEngine::from_source(&pipeline, &src, backend).map_err(|e| e.to_string())?;
    let source = load_workload(workload)?;
    let mut cfg = RunConfig::threaded()
        .with_faults(faults.clone())
        .with_batch(BatchConfig {
            size: batch.unwrap_or(32).clamp(1, 4096) as usize,
            rebalance,
        });
    // The CLI only reports aggregates, so stream at constant memory
    // instead of retaining a SeqOutput per packet.
    cfg.keep_outputs = false;
    let run = engine.run_with(source, &cfg).map_err(|e| e.to_string())?;

    let backend_name = match backend {
        Backend::Interp => "interp",
        Backend::Model => "model",
        Backend::Compiled => "compiled",
    };
    outln(format!(
        "== {name}: {} shard(s), {backend_name} backend ==",
        engine.shards()
    ));
    out(engine.plan().render_table());
    let total = run.total_pkts();
    let summary = run.fault_summary();
    outln("");
    outln(format!("packets        : {total}"));
    outln(format!("forwarded      : {}", run.forwarded));
    outln(format!("dropped        : {}", total - run.forwarded));
    // Supervision accounting: shown whenever faults were injected or
    // something actually went wrong, silent on a clean default run.
    if !faults.is_empty() || run.offered() != total || summary.any() {
        outln(format!("offered        : {}", run.offered()));
        outln(format!("quarantined    : {}", summary.quarantined));
        outln(format!("ring-dropped   : {}", summary.dropped));
        outln(format!("restarts       : {}", summary.restarts));
        outln(format!("retries        : {}", summary.retries));
        outln(format!("fallbacks      : {}", summary.fallbacks));
        if summary.migrations > 0 {
            outln(format!("migrations     : {}", summary.migrations));
        }
    }
    outln(format!("per-shard pkts : {:?}", run.per_shard_pkts));
    let makespan = run.makespan_ns();
    outln(format!(
        "makespan       : {:.3} ms{}",
        makespan as f64 / 1e6,
        if run.partitioned {
            ""
        } else {
            " (global lock: serialised)"
        }
    ));
    if makespan > 0 {
        outln(format!(
            "throughput     : {:.0} kpkt/s",
            total as f64 / (makespan as f64 / 1e9) / 1e3
        ));
    }
    outln("");
    outln("== merged state ==");
    for (var, value) in &run.merged {
        match value {
            nfactor::interp::Value::Map(m) => {
                outln(format!("{var} = map({} entries)", m.len()));
            }
            other => outln(format!("{var} = {other}")),
        }
    }
    if let Some(path) = quarantine_out {
        let dump =
            nfactor::shard::quarantine_to_json(&run.quarantined, run.quarantined_seqs.len() as u64);
        std::fs::write(path, dump.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = stats_out {
        let doc = run
            .stats_json()
            .ok_or_else(|| "--stats-json: telemetry is disabled for this run".to_string())?;
        std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = flight_out {
        let stats = run
            .stats
            .as_ref()
            .ok_or_else(|| "--flight-out: telemetry is disabled for this run".to_string())?;
        let dump = stats.flight_json(nfactor::shard::FLIGHT_CAP);
        std::fs::write(path, dump.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    } else if !run.quarantined_seqs.is_empty() {
        // Faults with no dump file requested: surface the flight
        // recorder's tail on stderr so the crash context isn't lost.
        if let Some(stats) = &run.stats {
            let (events, recorded) = stats.flight(8);
            eprintln!(
                "flight recorder: last {} of {recorded} events (rerun with --flight-out FILE for the full ring)",
                events.len()
            );
            for e in &events {
                eprintln!(
                    "  seq {:>6}  shard {}  {:<8} {:<11} {} ns",
                    e.seq,
                    e.shard,
                    e.backend,
                    e.outcome.as_str(),
                    e.latency_ns
                );
            }
        }
    }
    Ok(())
}

/// The `top` command: run the workload and render the telemetry plane's
/// per-shard table — once at the end (`--once`), or live by polling the
/// tracer's metrics at `--poll-ms` while the run progresses and
/// printing interval deltas ([`MetricsSnapshot::delta`]-based, so rates
/// are per-refresh, not cumulative).
fn run_top(
    mut args: Vec<String>,
    base: &Pipeline,
    backend: Backend,
    workload: Option<&str>,
) -> Result<(), String> {
    let once = if let Some(i) = args.iter().position(|a| a == "--once") {
        args.remove(i);
        true
    } else {
        false
    };
    let poll_ms = take_num_flag(&mut args, "--poll-ms")?.unwrap_or(500).max(1);
    let max_polls = take_num_flag(&mut args, "--watch-max-polls")?.unwrap_or(0);
    let (name, src) = load_source(&args)?;
    let pipeline = named_pipeline(base, &name)?;
    let engine = ShardEngine::from_source(&pipeline, &src, backend).map_err(|e| e.to_string())?;
    let source = load_workload(workload)?;
    let mut cfg = RunConfig::threaded();
    cfg.keep_outputs = false;
    let tracer = pipeline.tracer().clone();
    let run = if once {
        engine.run_with(source, &cfg).map_err(|e| e.to_string())?
    } else {
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| engine.run_with(source, &cfg));
            let mut prev = tracer.metrics();
            let mut polls: u64 = 0;
            while !handle.is_finished() && (max_polls == 0 || polls < max_polls) {
                std::thread::sleep(std::time::Duration::from_millis(poll_ms));
                let cur = tracer.metrics();
                out(nfactor::shard::render_top(&cur.delta(&prev), Some(poll_ms)));
                outln("");
                prev = cur;
                polls += 1;
            }
            // The scope joins the run either way; a poll cap only stops
            // the refreshes, never abandons the workload.
            handle.join()
        })
        .map_err(|p| {
            format!(
                "run panicked: {}",
                nfactor::shard::panic_message(p.as_ref())
            )
        })?
        .map_err(|e| e.to_string())?
    };
    outln(format!(
        "== {name}: {} shard(s), totals ==",
        engine.shards()
    ));
    out(nfactor::shard::render_top(&tracer.metrics(), None));
    outln(format!(
        "packets {}  quarantined {}  dropped {}  makespan {:.3} ms",
        run.total_pkts(),
        run.quarantined_seqs.len(),
        run.dropped_seqs.len(),
        run.makespan_ns() as f64 / 1e6
    ));
    Ok(())
}

fn run_fuzz(mut args: Vec<String>, tracer: &nfactor::trace::Tracer) -> Result<bool, String> {
    let seed = take_num_flag(&mut args, "--seed")?.unwrap_or(0);
    let cases = take_num_flag(&mut args, "--cases")?.unwrap_or(500) as usize;
    if let Some(extra) = args.first() {
        return Err(format!("fuzz: unexpected argument `{extra}`"));
    }
    let cfg = nfactor::fuzz::FuzzConfig { seed, cases };
    let report = nfactor::fuzz::run_traced(&cfg, tracer);
    outln(report.summary());
    for f in &report.findings {
        outln(format!(
            "--- case {} [{}] minimized input ---",
            f.case, f.kind
        ));
        outln(&f.input);
    }
    Ok(report.clean())
}

/// Write the requested observability outputs once the command has run.
fn emit_observability(
    tracer: &nfactor::trace::Tracer,
    trace_path: Option<&str>,
    metrics_path: Option<&str>,
    show_metrics: bool,
) -> Result<(), String> {
    if let Some(path) = trace_path {
        std::fs::write(path, tracer.trace_json().render_pretty())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = metrics_path {
        std::fs::write(path, tracer.metrics().to_json().render_pretty())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if show_metrics {
        eprint!("{}", tracer.metrics().render_table());
    }
    Ok(())
}

/// `nfactor lint --watch`: poll `path`'s mtime, feed edits into a
/// long-lived incremental [`Engine`](nfactor::query::Engine), and print
/// only the diagnostics that changed since the previous iteration.
/// Returns whether the *last* report was error-free (the exit status).
fn run_watch(
    path: &str,
    poll_ms: u64,
    max_polls: u64,
    tracer: &nfactor::trace::Tracer,
) -> Result<bool, String> {
    let mut engine = nfactor::query::Engine::with_tracer(tracer.clone());
    let mut watch = nfactor::query::WatchState::new();
    let mut clean = true;
    let mut polls: u64 = 0;
    let mut stamp: Option<(std::time::SystemTime, u64)> = None;
    loop {
        // mtime+len is only a cheap dirtiness hint: the engine hashes
        // the bytes itself, so a touch without an edit re-lints free.
        let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
        let now = (
            meta.modified().map_err(|e| format!("{path}: {e}"))?,
            meta.len(),
        );
        if stamp != Some(now) {
            stamp = Some(now);
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let first = polls == 0;
            if engine.set_source(path, &src) || first {
                let report = engine.lint_report(path);
                let delta = watch.diff(path, report.as_ref());
                if !delta.is_empty() || first {
                    outln(format!(
                        "[{path}] {} total ({} new, {} fixed)",
                        delta.total,
                        delta.added.len(),
                        delta.removed.len()
                    ));
                    for line in &delta.removed {
                        outln(format!("- {line}"));
                    }
                    for line in &delta.added {
                        outln(format!("+ {line}"));
                    }
                }
                clean = match report.as_ref() {
                    Ok(r) => !r.has_errors(),
                    Err(_) => false,
                };
            }
        }
        polls += 1;
        if max_polls != 0 && polls >= max_polls {
            return Ok(clean);
        }
        std::thread::sleep(std::time::Duration::from_millis(poll_ms));
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h")
        || argv.first().map(String::as_str) == Some("help")
    {
        out(HELP);
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = argv.first() else {
        return usage();
    };
    let orig = argv.iter().any(|a| a == "--orig");
    let json = argv.iter().any(|a| a == "--json");
    let show_metrics = argv.iter().any(|a| a == "--metrics");
    let mut rest: Vec<String> = argv[1..]
        .iter()
        .filter(|a| *a != "--orig" && *a != "--json" && *a != "--metrics")
        .cloned()
        .collect();
    type Parsed = (
        Pipeline,
        Backend,
        Option<String>,
        Option<String>,
        Option<String>,
        Option<String>,
        Option<String>,
    );
    let (pipeline, backend, workload, trace_path, metrics_path, stats_path, flight_path) =
        match (|| -> Result<Parsed, String> {
            let trace_path = take_str_flag(&mut rest, "--trace-json")?;
            let metrics_path = take_str_flag(&mut rest, "--metrics-json")?;
            let stats_path = take_str_flag(&mut rest, "--stats-json")?;
            let flight_path = take_str_flag(&mut rest, "--flight-out")?;
            let workload = take_str_flag(&mut rest, "--workload")?;
            let shards = take_num_flag(&mut rest, "--shards")?.unwrap_or(1) as usize;
            let backend = match take_str_flag(&mut rest, "--backend")?.as_deref() {
                None | Some("interp") => Backend::Interp,
                Some("model") => Backend::Model,
                Some("compiled") => Backend::Compiled,
                Some(other) => {
                    return Err(format!(
                        "--backend: expected `interp`, `model`, or `compiled`, got `{other}`"
                    ))
                }
            };
            let mut budget = nfactor::support::budget::Budget::unlimited();
            if let Some(ms) = take_num_flag(&mut rest, "--timeout-ms")? {
                budget = budget.with_timeout_ms(ms);
            }
            let mut limits = nfactor::symex::PathLimits::default();
            if let Some(n) = take_num_flag(&mut rest, "--max-paths")? {
                limits.max_paths = limits.max_paths.min(n as usize);
            }
            // Only attach a sink when some output was requested; otherwise
            // the pipeline runs with the (near-free) disabled tracer. The
            // telemetry outputs (`--stats-json`, `--flight-out`, `top`)
            // need the sink too — that's where workers flush.
            let tracer = if trace_path.is_some()
                || metrics_path.is_some()
                || show_metrics
                || stats_path.is_some()
                || flight_path.is_some()
                || cmd.as_str() == "top"
            {
                nfactor::trace::Tracer::enabled()
            } else {
                nfactor::trace::Tracer::disabled()
            };
            let pipeline = Pipeline::builder()
                .measure_original(orig)
                .limits(limits)
                .budget(budget)
                .tracer(tracer)
                .shards(shards)
                .build()
                .map_err(|e| e.to_string())?;
            Ok((
                pipeline,
                backend,
                workload,
                trace_path,
                metrics_path,
                stats_path,
                flight_path,
            ))
        })() {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("nfactor: {e}");
                return ExitCode::from(2);
            }
        };
    let tracer = pipeline.tracer().clone();
    // Non-zero exit without an error message (lint errors, fuzz
    // findings, compliance violations); observability still emits.
    let mut soft_fail = false;
    let result: Result<(), String> = match cmd.as_str() {
        "corpus" => {
            for nf in nfactor::corpus::default_corpus() {
                let loc = nfactor::lang::parse(&nf.source)
                    .map(|p| p.loc())
                    .unwrap_or(0);
                outln(format!("{:<12} {:>5} LoC", nf.name, loc));
            }
            Ok(())
        }
        "fuzz" => match run_fuzz(rest, &tracer) {
            Ok(clean) => {
                soft_fail = !clean;
                Ok(())
            }
            Err(e) => Err(e),
        },
        "json-check" => (|| -> Result<(), String> {
            let path = rest
                .first()
                .ok_or_else(|| "json-check: missing file argument".to_string())?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            nfactor::support::json::Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok(())
        })(),
        "run" => (|| {
            let fault_plan = take_str_flag(&mut rest, "--fault-plan")?;
            let quarantine_out = take_str_flag(&mut rest, "--quarantine-out")?;
            let batch = take_num_flag(&mut rest, "--batch")?;
            let rebalance = if let Some(i) = rest.iter().position(|a| a == "--rebalance") {
                rest.remove(i);
                true
            } else {
                false
            };
            run_shards(
                &rest,
                &pipeline,
                backend,
                workload.as_deref(),
                fault_plan.as_deref(),
                quarantine_out.as_deref(),
                stats_path.as_deref(),
                flight_path.as_deref(),
                batch,
                rebalance,
            )
        })(),
        "workload" => run_workload_gen(rest.clone()),
        "top" => run_top(rest.clone(), &pipeline, backend, workload.as_deref()),
        "synthesize" => run_synthesis(&rest, &pipeline).map(|syn| {
            if json {
                use nfactor::support::json::ToJson;
                out(syn.model.to_json().render_pretty());
            } else {
                outln(syn.render_model());
            }
        }),
        "export" => run_synthesis(&rest, &pipeline).map(|syn| {
            // The vendor workflow: print the machine-readable .nfm model
            // (redirect to a file and ship it to the operator).
            out(nfactor::model::to_text(&syn.model));
        }),
        "slice" => run_synthesis(&rest, &pipeline).map(|syn| {
            outln(syn.render_highlighted_slice());
        }),
        "classes" => run_synthesis(&rest, &pipeline).map(|syn| {
            outln(format!("pktVar : {:?}", syn.classes.pkt_vars));
            outln(format!("cfgVar : {:?}", syn.classes.cfg_vars));
            outln(format!("oisVar : {:?}", syn.classes.ois_vars));
            outln(format!("logVar : {:?}", syn.classes.log_vars));
        }),
        "paths" => run_synthesis(&rest, &pipeline).map(|syn| {
            for (i, p) in syn.exploration.paths.iter().enumerate() {
                outln(format!("path {i}: {}", p.canonical()));
            }
        }),
        "fsm" => run_synthesis(&rest, &pipeline).map(|syn| {
            let fsm = nfactor::model::ModelFsm::from_model(&syn.model);
            outln(fsm.to_dot());
        }),
        "metrics" => run_synthesis(&rest, &pipeline).map(|syn| {
            let m = &syn.metrics;
            outln(format!("LoC orig       : {}", m.loc_orig));
            outln(format!("LoC slice      : {}", m.loc_slice));
            outln(format!("LoC path (max) : {}", m.loc_path));
            outln(format!("slicing time   : {:?}", m.slicing_time));
            outln(format!("EP slice       : {}", m.ep_slice));
            outln(format!("SE time slice  : {:?}", m.se_time_slice));
            outln(format!("EP orig        : {}", m.ep_orig_str()));
            match m.se_time_orig {
                Some(t) => outln(format!("SE time orig   : {t:?}")),
                None => outln("SE time orig   : - (pass --orig to measure)"),
            }
        }),
        "lint" => {
            let r: Result<bool, String> = (|| {
                let mut largs = rest.clone();
                let poll_ms = take_num_flag(&mut largs, "--poll-ms")?.unwrap_or(500);
                let max_polls = take_num_flag(&mut largs, "--watch-max-polls")?.unwrap_or(0);
                if let Some(i) = largs.iter().position(|a| a == "--watch") {
                    largs.remove(i);
                    let path = match largs.as_slice() {
                        [p] if p != "--corpus" => p.clone(),
                        _ => return Err("--watch requires a file path (not --corpus)".into()),
                    };
                    // Watch reports errors via diagnostics lines; its
                    // exit status reflects the final report.
                    return run_watch(&path, poll_ms, max_polls, &tracer).map(|clean| !clean);
                }
                let (name, src) = load_source(&largs)?;
                let report = nfactor::lint::lint_source_traced(&name, &src, &tracer)?;
                if json {
                    use nfactor::support::json::ToJson;
                    out(report.to_json().render_pretty());
                } else {
                    out(report.render_text());
                }
                Ok(report.has_errors())
            })();
            match r {
                // Exit non-zero iff an error-severity diagnostic fired.
                Ok(has_errors) => {
                    soft_fail = has_errors;
                    Ok(())
                }
                Err(e) => Err(e),
            }
        }
        "lsp" => {
            let mut engine = nfactor::query::Engine::with_tracer(tracer.clone());
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut reader = stdin.lock();
            let mut writer = stdout.lock();
            nfactor::query::lsp::serve(&mut engine, &mut reader, &mut writer)
                .map_err(|e| format!("lsp: {e}"))
        }
        "test" => run_synthesis(&rest, &pipeline).and_then(|syn| {
            let report = nfactor::verify::compliance_test(&syn).map_err(|e| e.to_string())?;
            outln(format!("{report}"));
            for (i, t) in report.tests.iter().enumerate() {
                outln(format!(
                    "  test {i}: entry {:?}, {} setup, probe {}, expect {}",
                    t.target,
                    t.setup.len(),
                    t.probe,
                    if t.expect_forward { "FORWARD" } else { "DROP" }
                ));
            }
            if report.compliant() {
                Ok(())
            } else {
                Err(format!("compliance violations: {:?}", report.violations))
            }
        }),
        _ => return usage(),
    };
    // Trace/metrics files are written even when the command failed —
    // a truncated or failing run is exactly when the numbers matter.
    if let Err(e) = emit_observability(
        &tracer,
        trace_path.as_deref(),
        metrics_path.as_deref(),
        show_metrics,
    ) {
        eprintln!("nfactor: {e}");
        return ExitCode::FAILURE;
    }
    match result {
        Ok(()) if soft_fail => ExitCode::FAILURE,
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nfactor: {e}");
            ExitCode::FAILURE
        }
    }
}
