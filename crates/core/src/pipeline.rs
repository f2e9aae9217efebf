//! The synthesis pipeline (Algorithm 1 end to end) with Table 2 metrics.

use crate::filter::filter_loop;
use nf_model::Model;
use nf_support::budget::Budget;
use nf_trace::Tracer;
use nfl_analysis::normalize::PacketLoop;
use nfl_analysis::pdg::{default_boundary, Pdg};
use nfl_lang::types::TypeInfo;
use nfl_lint::{AnalysisCtx, LoopError, ShardingReport};
use nfl_slicer::statealyzer::{statealyzer, StateAlyzerInput, VarClasses};
use nfl_slicer::static_slice::{
    packet_slice, packet_slice_budgeted, slice_union, state_slice_budgeted, SliceResult,
};
use nfl_symex::{ExplorationStats, PathLimits, SymExec};
use std::fmt;
use std::time::Duration;

/// Pipeline errors, tagged with the failing stage.
#[derive(Debug, Clone)]
pub enum Error {
    /// The builder was given an invalid configuration.
    Config(String),
    /// Parsing or type checking failed.
    Frontend(String),
    /// Structure normalisation failed.
    Structure(String),
    /// Socket unfolding failed.
    Unfold(String),
    /// Symbolic execution failed.
    Symex(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(m) => write!(f, "config: {m}"),
            Error::Frontend(m) => write!(f, "frontend: {m}"),
            Error::Structure(m) => write!(f, "structure: {m}"),
            Error::Unfold(m) => write!(f, "unfold: {m}"),
            Error::Symex(m) => write!(f, "symbolic execution: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<LoopError> for Error {
    fn from(e: LoopError) -> Error {
        match e {
            LoopError::Structure(m) => Error::Structure(m),
            LoopError::Unfold(m) => Error::Unfold(m),
        }
    }
}

/// The validated configuration a [`Pipeline`] runs with.
///
/// Construct one through [`Pipeline::builder`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Limits for the model-extraction symbolic execution (on the slice).
    pub limits: PathLimits,
    /// Also symbolically execute the *original* (unsliced) per-packet
    /// function, stopping just past 1,000 paths, to fill Table 2's
    /// "orig" columns. Off by default — this is the expensive side the
    /// paper reports as ">1 hr" for snort.
    pub measure_original: bool,
    /// Resource budget for the whole pipeline (wall-clock deadline plus
    /// solver-call cap; the path cap is [`PathLimits::max_paths`] in
    /// [`limits`](Self::limits)). On exhaustion the pipeline degrades
    /// gracefully: it returns a *partial* model stamped
    /// [`Completeness::Truncated`](nf_model::Completeness) instead of
    /// hanging or erroring — Table 2's ">1000 paths" made first-class.
    pub budget: Budget,
    /// Observability handle, threaded alongside the budget (same
    /// convention: an explicit value, no globals). Every Algorithm-1
    /// stage becomes a span; the Table 2 timings are read back from
    /// those spans, so timing is measured once and is mockable. The
    /// default is a disabled tracer (records nothing).
    pub tracer: Tracer,
    /// Worker shards the `nf-shard` runtime should execute the result
    /// with (`1` = single-threaded). The pipeline itself is unaffected;
    /// the value rides along so one builder owns the whole run
    /// (synthesis *and* execution) and `nfactor run --shards N` has a
    /// single source of truth.
    pub shards: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            limits: PathLimits::default(),
            measure_original: false,
            budget: Budget::unlimited(),
            tracer: Tracer::disabled(),
            shards: 1,
        }
    }
}

/// Which statements feed StateAlyzer: NFactor's packet slice. The
/// `ablation/statealyzer_input` bench compares the alternatives by
/// calling `statealyzer` directly.
const STATEALYZER_INPUT: StateAlyzerInput = StateAlyzerInput::PacketSlice;

/// Limits for the original-program exploration
/// ([`PipelineConfig::measure_original`]).
const ORIGINAL_LIMITS: PathLimits = PathLimits {
    loop_bound: 4,
    max_paths: 1001, // just past the paper's ">1000"
    max_steps: 20_000,
    track_executed: false,
};

/// Most shards a pipeline will accept; past this the dispatch hash
/// spreads flows thinner than any plausible core count and a typo'd
/// `--shards 10000` would allocate that many rings and threads.
pub const MAX_SHARDS: usize = 256;

/// Builder for a [`Pipeline`] — the one place every knob of a run
/// (synthesis limits, budget, tracer, shard count) is set.
///
/// ```
/// use nfactor_core::Pipeline;
///
/// let pipeline = Pipeline::builder()
///     .name("port-filter")
///     .shards(4)
///     .build()
///     .unwrap();
/// let syn = pipeline
///     .synthesize(
///         "config PORT = 80;
///          fn cb(pkt: packet) { if pkt.tcp.dport == PORT { send(pkt); } }
///          fn main() { sniff(cb); }",
///     )
///     .unwrap();
/// assert_eq!(syn.name, "port-filter");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PipelineBuilder {
    name: Option<String>,
    config: PipelineConfig,
}

impl PipelineBuilder {
    /// Name the NF (used in reports and the model header). Defaults to
    /// `"nf"`; [`Pipeline::synthesize_named`] overrides it per call.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Path limits for the model-extraction symbolic execution.
    pub fn limits(mut self, limits: PathLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Also explore the unsliced program (Table 2's "orig" columns).
    pub fn measure_original(mut self, on: bool) -> Self {
        self.config.measure_original = on;
        self
    }

    /// Resource budget (deadline plus solver-call cap) for the run; the
    /// path cap is set through [`limits`](Self::limits).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Observability handle; every Algorithm-1 stage becomes a span.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.config.tracer = tracer;
        self
    }

    /// Worker shards for the `nf-shard` execution runtime.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Validate and produce the [`Pipeline`].
    pub fn build(self) -> Result<Pipeline, Error> {
        if self.config.shards == 0 {
            return Err(Error::Config("shards must be at least 1".into()));
        }
        if self.config.shards > MAX_SHARDS {
            return Err(Error::Config(format!(
                "shards must be at most {MAX_SHARDS}, got {}",
                self.config.shards
            )));
        }
        if self.config.limits.max_paths == 0 {
            return Err(Error::Config("limits.max_paths must be at least 1".into()));
        }
        Ok(Pipeline {
            name: self.name.unwrap_or_else(|| "nf".to_string()),
            config: self.config,
        })
    }
}

/// A configured synthesis pipeline: build once, synthesize any number
/// of sources with the same budget/tracer/shard settings.
#[derive(Debug, Clone)]
pub struct Pipeline {
    name: String,
    config: PipelineConfig,
}

impl Pipeline {
    /// Start configuring a pipeline.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// The configured NF name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The validated configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Worker shards the execution runtime should use.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// The tracer attached to this pipeline.
    pub fn tracer(&self) -> &Tracer {
        &self.config.tracer
    }

    /// The resource budget attached to this pipeline.
    pub fn budget(&self) -> &Budget {
        &self.config.budget
    }

    /// Run Algorithm 1 on NFL source text under the configured name.
    pub fn synthesize(&self, src: &str) -> Result<Synthesis, Error> {
        self.synthesize_named(&self.name, src)
    }

    /// Run Algorithm 1 on NFL source text, overriding the NF name (for
    /// callers reusing one pipeline across a corpus).
    pub fn synthesize_named(&self, name: &str, src: &str) -> Result<Synthesis, Error> {
        self.finish(analyze_source(name, src, &self.config)?)
    }

    /// Run the front half of Algorithm 1 on NFL source text under the
    /// configured name: parse, normalise, slice, classify, and take the
    /// placement verdict. No symbolic execution runs, so this accepts
    /// every program an interpreter can run.
    pub fn analyze(&self, src: &str) -> Result<Analysis, Error> {
        analyze_source(&self.name, src, &self.config)
    }

    /// Run the back half of Algorithm 1 on a front half: symbolic
    /// execution of the slice, then the model.
    pub fn finish(&self, analysis: Analysis) -> Result<Synthesis, Error> {
        finish(analysis, &self.config)
    }
}

/// The Table 2 row for one NF.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// LoC of the original program (comments excluded).
    pub loc_orig: usize,
    /// LoC of the packet∪state slice.
    pub loc_slice: usize,
    /// LoC of the largest single execution path in the slice.
    pub loc_path: usize,
    /// Wall-clock time of slicing (PDG + slices + classification).
    pub slicing_time: Duration,
    /// Execution paths in the slice.
    pub ep_slice: usize,
    /// Symbolic-execution time on the slice.
    pub se_time_slice: Duration,
    /// Execution paths of the original program (`(count, exhausted)`),
    /// when measured. `exhausted == false` renders as ">count".
    pub ep_orig: Option<(usize, bool)>,
    /// Symbolic-execution time on the original program, when measured.
    pub se_time_orig: Option<Duration>,
}

impl Metrics {
    /// Format the original-EP column the way Table 2 does (">1000").
    pub fn ep_orig_str(&self) -> String {
        match self.ep_orig {
            Some((n, true)) => n.to_string(),
            Some((n, false)) => format!(">{n}"),
            None => "-".to_string(),
        }
    }
}

/// The front half of Algorithm 1 for one NF, from [`Pipeline::analyze`]:
/// the normalised loop, its slices and classes, and the placement
/// verdict. [`Pipeline::finish`] continues it into a [`Synthesis`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// NF name (for reports).
    pub name: String,
    /// The normalised (and, if needed, socket-unfolded) per-packet loop.
    pub nf_loop: PacketLoop,
    /// The placement verdict (see [`Synthesis::sharding`]).
    pub sharding: ShardingReport,
    type_info: TypeInfo,
    packet_slice: SliceResult,
    state_slice: SliceResult,
    union_slice: SliceResult,
    classes: VarClasses,
    loc_orig: usize,
    slicing_time: Duration,
    /// Why slicing stopped early, when the budget ran out.
    slicing_stop: Option<String>,
}

/// Everything the pipeline produced.
///
/// It holds no analysis context and no PDG: the pipeline drops both once
/// the slices and the placement verdict are taken, so a `Synthesis`
/// stays a small fraction of the analysis that made it.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// NF name (for reports).
    pub name: String,
    /// The normalised (and, if needed, socket-unfolded) per-packet loop.
    pub nf_loop: PacketLoop,
    /// Type information of the normalised program.
    pub type_info: TypeInfo,
    /// Packet processing slice (Algorithm 1 lines 1–4).
    pub packet_slice: SliceResult,
    /// State transition slice (lines 6–9).
    pub state_slice: SliceResult,
    /// Their union (line 10's input).
    pub union_slice: SliceResult,
    /// StateAlyzer classification (line 5, Table 1).
    pub classes: VarClasses,
    /// The placement verdict: `nfl_lint::sharding::analyze` on the same
    /// PDG the slices were taken on, equal to the `sharding` report
    /// `nfactor lint` gives for the source. The sharded runtime places
    /// state by it.
    pub sharding: ShardingReport,
    /// The slice as a runnable program.
    pub sliced_loop: PacketLoop,
    /// All execution paths of the slice.
    pub exploration: ExplorationStats,
    /// The synthesized model (lines 11–16, Figure 2a).
    pub model: Model,
    /// Table 2 metrics.
    pub metrics: Metrics,
}

impl Synthesis {
    /// The Figure 6 rendering of the model.
    pub fn render_model(&self) -> String {
        nf_model::render_figure6(&self.model)
    }

    /// The Figure 1 view: the original per-packet function with the
    /// slice-union highlighted.
    pub fn render_highlighted_slice(&self) -> String {
        self.union_slice.render_highlighted(&self.nf_loop.program)
    }
}

fn analyze_source(name: &str, src: &str, opts: &PipelineConfig) -> Result<Analysis, Error> {
    let tracer = &opts.tracer;
    let span = tracer.span("pipeline.stage.frontend");
    let program = nfl_lang::parse_and_check(src).map_err(Error::Frontend)?;
    span.end();

    // 1. Structure normalisation (+ socket unfolding).
    let span = tracer.span("pipeline.stage.structure");
    let nf_loop = AnalysisCtx::normalize_loop(&program)?;
    let type_info =
        nfl_lang::types::check(&nf_loop.program).map_err(|e| Error::Frontend(e.to_string()))?;
    span.end();

    // 2–4. Slicing + classification, timed together ("Slicing Time").
    // The stage span doubles as the Table 2 timer: its duration *is*
    // `Metrics.slicing_time`, so the number is measured exactly once.
    let slice_span = tracer.span("pipeline.stage.slice");
    let boundary = default_boundary(&nf_loop.program, &nf_loop.func);
    let pdg = Pdg::build(&nf_loop.program, &nf_loop.func, &boundary);
    if tracer.is_enabled() {
        tracer.count("slice.pdg.edges", pdg.edges.len() as u64);
    }
    let (pkt_slice, pkt_stop) =
        packet_slice_budgeted(&pdg, &nf_loop.program, &nf_loop.func, &opts.budget, tracer);
    let classes = statealyzer(&nf_loop, &pkt_slice.stmts, &type_info, STATEALYZER_INPUT);
    let (st_slice, st_stop) = state_slice_budgeted(
        &pdg,
        &nf_loop.program,
        &nf_loop.func,
        &classes.ois_vars,
        &opts.budget,
        tracer,
    );
    let slicing_stop = pkt_stop.clone().or(st_stop);
    let union = slice_union(&pkt_slice, &st_slice);
    let slicing_time = slice_span.end();

    // The placement verdict, on the same PDG: finish the lint's analysis
    // context around it and run the sharding analysis. The context wants
    // the full packet slice, so a budget-stopped one is grown again.
    let span = tracer.span("lint.ctx.build");
    let full_pkt_slice = match pkt_stop {
        None => pkt_slice.stmts.clone(),
        Some(_) => packet_slice(&pdg, &nf_loop.program, &nf_loop.func).stmts,
    };
    let ctx = AnalysisCtx::from_pdg(nf_loop, type_info, boundary, pdg, full_pkt_slice);
    span.end();
    let span = tracer.span("lint.pass.sharding");
    let (sharding, _) = nfl_lint::sharding::analyze(&ctx);
    span.end();
    // Keep the loop and its types; the PDG and dominator trees go here.
    let AnalysisCtx {
        nf_loop,
        info: type_info,
        ..
    } = ctx;

    Ok(Analysis {
        name: name.to_string(),
        nf_loop,
        sharding,
        type_info,
        packet_slice: pkt_slice,
        state_slice: st_slice,
        union_slice: union,
        classes,
        loc_orig: program.loc(),
        slicing_time,
        slicing_stop,
    })
}

fn finish(analysis: Analysis, opts: &PipelineConfig) -> Result<Synthesis, Error> {
    let tracer = &opts.tracer;
    let Analysis {
        name,
        nf_loop,
        sharding,
        type_info,
        packet_slice: pkt_slice,
        state_slice: st_slice,
        union_slice: union,
        classes,
        loc_orig,
        slicing_time,
        slicing_stop,
    } = analysis;

    // 5. Symbolic execution on the slice, under the same budget.
    let sliced_loop = filter_loop(&nf_loop, &union.stmts);
    let se_span = tracer.span("pipeline.stage.symex");
    let exploration = SymExec::new(&sliced_loop)
        .with_limits(opts.limits)
        .with_budget(opts.budget)
        .with_tracer(tracer.clone())
        .explore()
        .map_err(|e| Error::Symex(e.to_string()))?;
    let se_time_slice = se_span.end();

    // Optional: the expensive original-program exploration for Table 2.
    // Only the stage span is traced — attaching the tracer to this
    // second executor would double-count the `symex.*` counters.
    let (ep_orig, se_time_orig) = if opts.measure_original {
        let orig_span = tracer.span("pipeline.stage.orig");
        let stats = SymExec::new(&nf_loop)
            .with_limits(ORIGINAL_LIMITS)
            .explore()
            .map_err(|e| Error::Symex(e.to_string()))?;
        let dur = orig_span.end();
        (Some((stats.paths.len(), stats.exhausted)), Some(dur))
    } else {
        (None, None)
    };

    // 6. Refactor paths into the model. A budget stop anywhere in the
    // pipeline stamps the model as a partial one, reason attached.
    let model_span = tracer.span("pipeline.stage.model");
    let model = Model::from_paths(&name, &exploration.paths);
    let truncation = slicing_stop.or_else(|| exploration.stop_reason.clone());
    if let Some(reason) = &truncation {
        tracer.count("pipeline.truncated", 1);
        tracer.label("pipeline.truncated.reason", reason);
    }
    let model = match truncation {
        Some(reason) => model.with_truncation(reason),
        None => model,
    };

    let loc_path = exploration
        .paths
        .iter()
        .map(|p| {
            nfl_lang::pretty::slice_loc(&sliced_loop.program, &p.executed.iter().copied().collect())
        })
        .max()
        .unwrap_or(0);
    model_span.end();
    if let Some(rem) = opts.budget.remaining() {
        tracer.gauge("budget.remaining_ms", rem.as_millis() as i64);
    }

    let metrics = Metrics {
        loc_orig,
        loc_slice: union.loc(&nf_loop.program),
        loc_path,
        slicing_time,
        ep_slice: exploration.paths.len(),
        se_time_slice,
        ep_orig,
        se_time_orig,
    };

    Ok(Synthesis {
        name,
        nf_loop,
        type_info,
        packet_slice: pkt_slice,
        state_slice: st_slice,
        union_slice: union,
        classes,
        sharding,
        sliced_loop,
        exploration,
        model,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot synthesis with default settings, builder-style.
    fn synth(name: &str, src: &str) -> Result<Synthesis, Error> {
        Pipeline::builder().name(name).build()?.synthesize(src)
    }

    const LB_SRC: &str = r#"
        const ROUND_ROBIN = 1;
        config mode = 1;
        config LB_IP = 3.3.3.3;
        config LB_PORT = 80;
        config servers = [(1.1.1.1, 80), (2.2.2.2, 80)];
        state f2b_nat = map();
        state b2f_nat = map();
        state rr_idx = 0;
        state cur_port = 10000;
        state pass_stat = 0;
        state drop_stat = 0;

        fn pkt_callback(pkt: packet) {
            let si = pkt.ip.src;
            let di = pkt.ip.dst;
            let sp = pkt.tcp.sport;
            let dp = pkt.tcp.dport;
            let nat_tpl = (0, 0, 0, 0);
            if dp == LB_PORT {
                let cs_ftpl = (si, sp, di, dp);
                if cs_ftpl not in f2b_nat {
                    let server = (0, 0);
                    if mode == ROUND_ROBIN {
                        server = servers[rr_idx];
                        rr_idx = (rr_idx + 1) % len(servers);
                    } else {
                        server = servers[hash(si) % len(servers)];
                    }
                    let n_port = cur_port;
                    cur_port = cur_port + 1;
                    let cs_btpl = (LB_IP, n_port, server[0], server[1]);
                    f2b_nat[cs_ftpl] = cs_btpl;
                    b2f_nat[(server[0], server[1], LB_IP, n_port)] = (di, dp, si, sp);
                    nat_tpl = cs_btpl;
                } else {
                    nat_tpl = f2b_nat[cs_ftpl];
                }
            } else {
                let sc_btpl = (si, sp, di, dp);
                if sc_btpl in b2f_nat {
                    nat_tpl = b2f_nat[sc_btpl];
                } else {
                    drop_stat = drop_stat + 1;
                    return;
                }
            }
            pass_stat = pass_stat + 1;
            pkt.ip.src = nat_tpl[0];
            pkt.tcp.sport = nat_tpl[1];
            pkt.ip.dst = nat_tpl[2];
            pkt.tcp.dport = nat_tpl[3];
            send(pkt);
        }

        fn main() { sniff(pkt_callback); }
    "#;

    #[test]
    fn figure1_lb_full_pipeline() {
        let syn = synth("fig1-lb", LB_SRC).unwrap();
        // Table 1 classes.
        assert!(syn.classes.ois_vars.contains("f2b_nat"));
        assert!(syn.classes.ois_vars.contains("rr_idx"));
        assert!(syn.classes.cfg_vars.contains("mode"));
        // Slice strictly smaller than original.
        assert!(
            syn.metrics.loc_slice < syn.metrics.loc_orig,
            "slice {} < orig {}",
            syn.metrics.loc_slice,
            syn.metrics.loc_orig
        );
        assert!(syn.metrics.loc_path <= syn.metrics.loc_slice);
        // Paths: inbound-new (RR + hash), inbound-existing, outbound-known,
        // outbound-unknown (drop) = 5.
        assert_eq!(syn.metrics.ep_slice, 5, "{:?}", syn.metrics);
        // The model has the mode split: at least two tables.
        assert!(syn.model.tables.len() >= 2, "{}", syn.render_model());
        // Drop path present (outbound unknown flow).
        assert!(syn
            .model
            .tables
            .iter()
            .flat_map(|t| &t.entries)
            .any(|e| e.flow_action.is_drop()));
        // Log counters pruned from the model's state actions.
        let rendered = syn.render_model();
        assert!(!rendered.contains("pass_stat"), "{rendered}");
        assert!(!rendered.contains("drop_stat"), "{rendered}");
    }

    #[test]
    fn measure_original_populates_table2_columns() {
        let syn = Pipeline::builder()
            .measure_original(true)
            .build()
            .unwrap()
            .synthesize_named("fig1-lb", LB_SRC)
            .unwrap();
        let (ep, _) = syn.metrics.ep_orig.unwrap();
        assert!(ep >= syn.metrics.ep_slice, "orig ≥ slice paths");
        assert!(syn.metrics.se_time_orig.is_some());
    }

    #[test]
    fn nested_loop_unfolds_automatically() {
        let balance = r#"
            config LB_PORT = 80;
            config servers = [(1.1.1.1, 8080), (2.2.2.2, 8080)];
            state idx = 0;
            fn main() {
                let lfd = listen(LB_PORT);
                while true {
                    let cfd = accept(lfd);
                    let srv = servers[idx];
                    idx = (idx + 1) % len(servers);
                    if fork() == 0 {
                        let sfd = connect(srv[0], srv[1]);
                        while true {
                            let which = select2(cfd, sfd);
                            if which == 0 {
                                let buf = sock_read(cfd);
                                sock_write(sfd, buf);
                            } else {
                                let buf2 = sock_read(sfd);
                                sock_write(cfd, buf2);
                            }
                        }
                    }
                }
            }
        "#;
        let syn = synth("balance", balance).unwrap();
        // The hidden TCP state is visible in the model.
        let maps = syn.model.state_maps();
        assert!(maps.iter().any(|m| m == "__tcp"), "{maps:?}");
        // Round-robin index is an oisVar and transitions in the model.
        assert!(syn.classes.ois_vars.contains("idx"), "{:?}", syn.classes);
        let rendered = syn.render_model();
        assert!(rendered.contains("idx := ((idx + 1) % 2)"), "{rendered}");
    }

    #[test]
    fn expired_deadline_degrades_to_truncated_model() {
        // A pre-expired deadline must not hang, panic, or error out: the
        // pipeline returns a partial model that says why it is partial.
        let syn = Pipeline::builder()
            .budget(Budget::unlimited().with_timeout_ms(0))
            .build()
            .unwrap()
            .synthesize_named("fig1-lb", LB_SRC)
            .unwrap();
        assert!(
            syn.model.completeness.is_truncated(),
            "{:?}",
            syn.model.completeness
        );
        let reason = syn.model.completeness.reason().unwrap();
        assert!(reason.contains("deadline"), "{reason}");
        // The reason is visible in the Figure 6 rendering…
        assert!(syn.render_model().contains("PARTIAL MODEL"));
        // …and in the JSON document.
        use nf_support::json::{ToJson, Value};
        let doc = Value::parse(&syn.model.to_json().render()).unwrap();
        let stamp = doc.get("completeness").unwrap();
        assert_eq!(
            stamp.get("state").and_then(Value::as_str),
            Some("truncated")
        );
        assert_eq!(stamp.get("reason").and_then(Value::as_str), Some(reason));
    }

    #[test]
    fn truncated_slicing_keeps_the_lints_verdict() {
        // An expired deadline stops the packet slice before its first
        // criterion; the verdict must still come from the full slice.
        let syn = Pipeline::builder()
            .budget(Budget::unlimited().with_timeout_ms(0))
            .build()
            .unwrap()
            .synthesize_named("fig1-lb", LB_SRC)
            .unwrap();
        assert!(syn.packet_slice.stmts.is_empty());
        let lint = nfl_lint::lint_source("fig1-lb", LB_SRC).unwrap();
        assert_eq!(syn.sharding, lint.sharding);
    }

    #[test]
    fn generous_budget_leaves_model_complete() {
        let syn = Pipeline::builder()
            .budget(
                Budget::unlimited()
                    .with_timeout_ms(120_000)
                    .with_max_solver_calls(1_000_000),
            )
            .build()
            .unwrap()
            .synthesize_named("fig1-lb", LB_SRC)
            .unwrap();
        assert!(!syn.model.completeness.is_truncated());
        assert_eq!(syn.metrics.ep_slice, 5);
    }

    #[test]
    fn solver_budget_truncates_with_reason() {
        let syn = Pipeline::builder()
            .budget(Budget::unlimited().with_max_solver_calls(1))
            .build()
            .unwrap()
            .synthesize_named("fig1-lb", LB_SRC)
            .unwrap();
        assert!(syn.model.completeness.is_truncated());
        assert!(syn
            .model
            .completeness
            .reason()
            .unwrap()
            .contains("solver-call budget"));
        // Partial ≤ full path count.
        assert!(syn.metrics.ep_slice <= 5);
    }

    #[test]
    fn tracer_records_stage_spans_and_truncation() {
        let tracer = Tracer::enabled();
        let syn = Pipeline::builder()
            .tracer(tracer.clone())
            .budget(Budget::unlimited().with_timeout_ms(0))
            .build()
            .unwrap()
            .synthesize_named("fig1-lb", LB_SRC)
            .unwrap();
        assert!(syn.model.completeness.is_truncated());
        let metrics = tracer.metrics();
        for stage in ["frontend", "structure", "slice", "symex", "model"] {
            let key = format!("pipeline.stage.{stage}.ns");
            assert!(metrics.counters.contains_key(&key), "missing {key}");
        }
        assert!(metrics.counters.contains_key("slice.pdg.edges"));
        // The placement verdict is timed outside the slice stage.
        for span in ["lint.ctx.build", "lint.pass.sharding"] {
            let key = format!("{span}.ns");
            assert!(metrics.counters.contains_key(&key), "missing {key}");
        }
        assert!(metrics.counters.contains_key("symex.paths.explored"));
        assert_eq!(metrics.counter("pipeline.truncated"), Some(1));
        let reason = metrics.labels.get("pipeline.truncated.reason").unwrap();
        assert!(reason.contains("deadline"), "{reason}");
        assert!(metrics.gauges.contains_key("budget.remaining_ms"));
        assert!(tracer.balanced());
    }

    #[test]
    fn stage_spans_are_absent_on_a_disabled_tracer() {
        let pipeline = Pipeline::builder().build().unwrap();
        let _ = pipeline.synthesize_named("fig1-lb", LB_SRC).unwrap();
        assert!(pipeline.tracer().metrics().is_empty());
        assert!(pipeline.tracer().events().is_empty());
    }

    #[test]
    fn builder_rejects_bad_shard_counts() {
        assert!(matches!(
            Pipeline::builder().shards(0).build(),
            Err(Error::Config(_))
        ));
        assert!(matches!(
            Pipeline::builder().shards(MAX_SHARDS + 1).build(),
            Err(Error::Config(_))
        ));
        assert_eq!(
            Pipeline::builder()
                .shards(MAX_SHARDS)
                .build()
                .unwrap()
                .shards(),
            MAX_SHARDS
        );
    }

    #[test]
    fn builder_defaults_match_config_defaults() {
        let p = Pipeline::builder().build().unwrap();
        assert_eq!(p.name(), "nf");
        assert_eq!(p.shards(), 1);
        assert!(!p.config().measure_original);
        assert!(!p.tracer().is_enabled());
    }

    #[test]
    fn frontend_errors_surface() {
        assert!(matches!(
            synth("bad", "fn main( {"),
            Err(Error::Frontend(_))
        ));
        assert!(matches!(
            synth("bad", "fn main() { x = 1; }"),
            Err(Error::Frontend(_))
        ));
    }

    #[test]
    fn unrecognised_structure_errors() {
        assert!(matches!(
            synth("odd", "fn main() { let x = 1; }"),
            Err(Error::Structure(_))
        ));
    }

    #[test]
    fn failed_unfolding_errors() {
        // A Figure 4d shape with no `listen(port)` matches no socket
        // template.
        let src = "fn main() {
            while true {
                let cfd = accept(0);
                while true { let buf = sock_read(cfd); }
            }
        }";
        assert!(matches!(synth("odd", src), Err(Error::Unfold(_))));
    }

    #[test]
    fn highlighted_slice_renders() {
        let syn = synth("fig1-lb", LB_SRC).unwrap();
        let hl = syn.render_highlighted_slice();
        assert!(hl.lines().any(|l| l.starts_with(">> ")), "{hl}");
        assert!(hl.lines().any(|l| l.starts_with("   ")), "{hl}");
    }
}
