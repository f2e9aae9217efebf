//! The red-green incremental query engine.
//!
//! Every analysis fact the lint pipeline derives — parse, the
//! normalised packet loop, types, CFG, PDG, dominators, the packet
//! slice, StateAlyzer classes, each lint pass, the ShardingReport, and
//! the final [`LintReport`] — is a *query*: a memoized function of the
//! document text keyed by `(document, QueryKind)`. Queries record the
//! other queries they read (their dependency edges), and the engine
//! tracks two revisions per memo à la salsa:
//!
//! * `verified_at` — the last engine revision at which this memo was
//!   known up to date;
//! * `changed_at` — the revision at which its *value* last actually
//!   changed.
//!
//! A fetch first tries the green path: if the memo was verified at the
//! current revision it is returned outright; otherwise its recorded
//! dependencies are fetched (recursively) and if none `changed_at`
//! later than this memo's `verified_at`, the memo is revalidated
//! without recomputing. Only then does the red path run the query
//! function — and if the freshly computed value fingerprints identical
//! to the old one, the engine *backdates*: it keeps the old value (and
//! its `changed_at`), so every downstream query still validates green.
//! That is the early-cutoff that makes a trailing-comment edit cost one
//! re-parse and nothing else.
//!
//! Values are stored as `Arc<Result<T, String>>`: broken documents
//! memoize their error exactly like facts, so an engine-driven lint of
//! unparseable source returns the same `Err` string a from-scratch
//! [`nfl_lint::lint_source`] call would.

use nf_support::json::ToJson;
use nf_trace::Tracer;
use nfl_analysis::cfg::{build_cfg, Cfg};
use nfl_analysis::dom::{dominators, post_dominators, DomTree};
use nfl_analysis::normalize::PacketLoop;
use nfl_analysis::pdg::{default_boundary, Pdg};
use nfl_lang::fingerprint::{self, Fnv64};
use nfl_lang::types::TypeInfo;
use nfl_lang::{Span, StmtId};
use nfl_lint::{AnalysisCtx, Diagnostic, LintPass, LintReport, LintSink, ShardingReport};
use nfl_slicer::statealyzer::{statealyzer, StateAlyzerInput, VarClasses};
use nfl_slicer::static_slice::packet_slice;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// One kind of derived fact. Together with a document name this keys a
/// memo slot; the variants mirror the stages of
/// [`AnalysisCtx::build`] + [`nfl_lint::PassManager`] exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryKind {
    /// `parse_and_check` of the document text.
    Parse,
    /// The normalised (socket-unfolded where needed) packet loop.
    Normalize,
    /// Type information of the normalised program.
    Types,
    /// Boundary variables (globals + parameters defined at entry).
    Boundary,
    /// CFG of the per-packet function.
    Cfg,
    /// PDG (def-use + reaching defs + control deps) over that CFG.
    Pdg,
    /// Dominator tree.
    Dominators,
    /// Post-dominator tree.
    PostDominators,
    /// The packet-processing slice (Algorithm 1 lines 1–4).
    PacketSlice,
    /// StateAlyzer classification (Table 1).
    StateAlyzer,
    /// The assembled [`AnalysisCtx`] lint passes run over.
    Ctx,
    /// One lint pass, by index into [`nfl_lint::default_passes`] order.
    LintPass(u8),
    /// The [`ShardingReport`] extracted from the sharding pass.
    Sharding,
    /// The merged, sorted [`LintReport`].
    Report,
}

/// A dependency edge recorded by a memo: either the raw document text
/// or another query on the same document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dep {
    /// The document's source text (the only input the graph reads).
    Source,
    /// A derived fact.
    Query(QueryKind),
}

/// Diagnostics plus the optional sharding report one lint pass emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassOutput {
    /// The pass's findings, in emission order (unsorted — the report
    /// query merges and sorts across passes).
    pub diagnostics: Vec<Diagnostic>,
    /// Set by the sharding pass only.
    pub sharding: Option<ShardingReport>,
}

/// A memoized query value. Every variant wraps `Arc<Result<..>>` so
/// cached facts (and cached *errors*) are shared, not recloned.
#[derive(Clone)]
pub enum QueryValue {
    /// [`QueryKind::Parse`].
    Parse(Arc<Result<nfl_lang::Program, String>>),
    /// [`QueryKind::Normalize`].
    Loop(Arc<Result<PacketLoop, String>>),
    /// [`QueryKind::Types`].
    Types(Arc<Result<TypeInfo, String>>),
    /// [`QueryKind::Boundary`].
    Boundary(Arc<Result<BTreeSet<String>, String>>),
    /// [`QueryKind::Cfg`].
    Cfg(Arc<Result<Cfg, String>>),
    /// [`QueryKind::Pdg`].
    Pdg(Arc<Result<Pdg, String>>),
    /// [`QueryKind::Dominators`] / [`QueryKind::PostDominators`].
    Dom(Arc<Result<DomTree, String>>),
    /// [`QueryKind::PacketSlice`].
    Slice(Arc<Result<HashSet<StmtId>, String>>),
    /// [`QueryKind::StateAlyzer`].
    Classes(Arc<Result<VarClasses, String>>),
    /// [`QueryKind::Ctx`].
    Ctx(Arc<Result<AnalysisCtx, String>>),
    /// [`QueryKind::LintPass`].
    Pass(Arc<Result<PassOutput, String>>),
    /// [`QueryKind::Sharding`].
    Sharding(Arc<Result<ShardingReport, String>>),
    /// [`QueryKind::Report`].
    Report(Arc<Result<LintReport, String>>),
}

/// Accessor error for a memo holding an unexpected variant — cannot
/// happen for keys the engine itself writes, but the accessors stay
/// total rather than panicking.
const WRONG_KIND: &str = "internal query error: memo holds an unexpected value kind";

macro_rules! accessor {
    ($fn_name:ident, $variant:ident, $ty:ty) => {
        fn $fn_name(&self) -> Arc<Result<$ty, String>> {
            match self {
                QueryValue::$variant(v) => v.clone(),
                _ => Arc::new(Err(WRONG_KIND.to_string())),
            }
        }
    };
}

impl QueryValue {
    accessor!(as_parse, Parse, nfl_lang::Program);
    accessor!(as_loop, Loop, PacketLoop);
    accessor!(as_types, Types, TypeInfo);
    accessor!(as_boundary, Boundary, BTreeSet<String>);
    accessor!(as_cfg, Cfg, Cfg);
    accessor!(as_pdg, Pdg, Pdg);
    accessor!(as_dom, Dom, DomTree);
    accessor!(as_slice, Slice, HashSet<StmtId>);
    accessor!(as_classes, Classes, VarClasses);
    accessor!(as_ctx, Ctx, AnalysisCtx);
    accessor!(as_pass, Pass, PassOutput);
    accessor!(as_sharding, Sharding, ShardingReport);
    accessor!(as_report, Report, LintReport);
}

struct Memo {
    value: QueryValue,
    fingerprint: u64,
    deps: Vec<Dep>,
    verified_at: u64,
    changed_at: u64,
}

struct DocInput {
    text: Arc<String>,
    hash: u64,
    changed_at: u64,
}

/// The long-lived incremental engine. Feed documents in with
/// [`Engine::set_source`]; ask for facts with [`Engine::lint_report`]
/// and friends. Edits bump the engine revision only when the text
/// actually changed, so re-feeding identical bytes is free.
pub struct Engine {
    tracer: Tracer,
    rev: u64,
    docs: BTreeMap<String, DocInput>,
    memo: HashMap<(String, QueryKind), Memo>,
    passes: Vec<Box<dyn LintPass>>,
    sharding_idx: u8,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with tracing disabled.
    pub fn new() -> Engine {
        Engine::with_tracer(Tracer::disabled())
    }

    /// An engine recording `query.*` hit/recompute metrics into
    /// `tracer`.
    pub fn with_tracer(tracer: Tracer) -> Engine {
        let passes = nfl_lint::default_passes();
        let sharding_idx = passes
            .iter()
            .position(|p| p.name() == "sharding")
            .unwrap_or(passes.len().saturating_sub(1)) as u8;
        Engine {
            tracer,
            rev: 0,
            docs: BTreeMap::new(),
            memo: HashMap::new(),
            passes,
            sharding_idx,
        }
    }

    /// The tracer metrics are recorded into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The current engine revision (bumped per real edit).
    pub fn revision(&self) -> u64 {
        self.rev
    }

    /// The current text of a loaded document.
    pub fn source(&self, doc: &str) -> Option<Arc<String>> {
        self.docs.get(doc).map(|d| d.text.clone())
    }

    /// Load or edit a document. Returns `true` when the text differed
    /// from what the engine already held (and therefore bumped the
    /// revision); feeding identical bytes is a no-op, so callers may
    /// re-read files on coarse signals (mtime) without invalidating.
    pub fn set_source(&mut self, doc: &str, text: &str) -> bool {
        let hash = fingerprint::fnv64_str(text);
        if let Some(d) = self.docs.get(doc) {
            if d.hash == hash {
                return false;
            }
        }
        self.rev += 1;
        self.docs.insert(
            doc.to_string(),
            DocInput {
                text: Arc::new(text.to_string()),
                hash,
                changed_at: self.rev,
            },
        );
        if self.tracer.is_enabled() {
            self.tracer.count("query.invalidations", 1);
        }
        true
    }

    /// Unload a document and drop its memos. Returns `true` if it was
    /// loaded.
    pub fn remove_source(&mut self, doc: &str) -> bool {
        if self.docs.remove(doc).is_some() {
            self.rev += 1;
            self.memo.retain(|(d, _), _| d != doc);
            true
        } else {
            false
        }
    }

    /// The merged lint report for `doc` — byte-identical (JSON and
    /// diagnostics) to a from-scratch [`nfl_lint::lint_source`] with
    /// the same name and text.
    pub fn lint_report(&mut self, doc: &str) -> Arc<Result<LintReport, String>> {
        self.fetch(doc, QueryKind::Report).as_report()
    }

    /// The sharding report for `doc`.
    pub fn sharding_report(&mut self, doc: &str) -> Arc<Result<ShardingReport, String>> {
        self.fetch(doc, QueryKind::Sharding).as_sharding()
    }

    /// The assembled analysis context for `doc` (hover and other
    /// IDE-ish consumers read classes/types out of it).
    pub fn analysis_ctx(&mut self, doc: &str) -> Arc<Result<AnalysisCtx, String>> {
        self.fetch(doc, QueryKind::Ctx).as_ctx()
    }

    /// Metric label of a query kind (`query.<label>.hit` etc.).
    fn label(&self, kind: QueryKind) -> String {
        match kind {
            QueryKind::Parse => "parse".into(),
            QueryKind::Normalize => "normalize".into(),
            QueryKind::Types => "types".into(),
            QueryKind::Boundary => "boundary".into(),
            QueryKind::Cfg => "cfg".into(),
            QueryKind::Pdg => "pdg".into(),
            QueryKind::Dominators => "dom".into(),
            QueryKind::PostDominators => "postdom".into(),
            QueryKind::PacketSlice => "slice".into(),
            QueryKind::StateAlyzer => "statealyzer".into(),
            QueryKind::Ctx => "ctx".into(),
            QueryKind::LintPass(i) => format!(
                "pass.{}",
                self.passes
                    .get(i as usize)
                    .map(|p| p.name())
                    .unwrap_or("unknown")
            ),
            QueryKind::Sharding => "sharding".into(),
            QueryKind::Report => "report".into(),
        }
    }

    /// The revision at which a dependency's value last changed,
    /// bringing it up to date first.
    fn dep_changed_at(&mut self, doc: &str, dep: Dep) -> u64 {
        match dep {
            Dep::Source => self
                .docs
                .get(doc)
                .map(|d| d.changed_at)
                .unwrap_or(self.rev),
            Dep::Query(kind) => {
                self.fetch(doc, kind);
                self.memo
                    .get(&(doc.to_string(), kind))
                    .map(|m| m.changed_at)
                    .unwrap_or(self.rev)
            }
        }
    }

    /// Fetch a dependency and return its value fingerprint (for
    /// queries whose own fingerprint derives from their inputs).
    fn dep_fp(&mut self, doc: &str, kind: QueryKind) -> u64 {
        self.fetch(doc, kind);
        self.memo
            .get(&(doc.to_string(), kind))
            .map(|m| m.fingerprint)
            .unwrap_or(0)
    }

    /// The core red-green fetch (see the module docs).
    fn fetch(&mut self, doc: &str, kind: QueryKind) -> QueryValue {
        let key = (doc.to_string(), kind);
        // Green fast path: verified this revision.
        if let Some(m) = self.memo.get(&key) {
            if m.verified_at == self.rev {
                let v = m.value.clone();
                if self.tracer.is_enabled() {
                    self.tracer.count(&format!("query.{}.hit", self.label(kind)), 1);
                }
                return v;
            }
            // Green slow path: revalidate recorded deps in order.
            let deps = m.deps.clone();
            let verified_at = m.verified_at;
            let mut clean = true;
            for d in deps {
                if self.dep_changed_at(doc, d) > verified_at {
                    clean = false;
                    break;
                }
            }
            if clean {
                if let Some(m) = self.memo.get_mut(&key) {
                    m.verified_at = self.rev;
                    let v = m.value.clone();
                    if self.tracer.is_enabled() {
                        self.tracer.count(&format!("query.{}.hit", self.label(kind)), 1);
                    }
                    return v;
                }
            }
        }
        // Red path: recompute.
        let start = Instant::now();
        let (value, fp, deps) = self.compute(doc, kind);
        if self.tracer.is_enabled() {
            let label = self.label(kind);
            self.tracer.count(&format!("query.{label}.recompute"), 1);
            self.tracer.observe_ns(
                &format!("query.{label}.recompute.ns"),
                start.elapsed().as_nanos() as u64,
            );
        }
        // Early cutoff with backdating: same fingerprint ⇒ keep the old
        // value Arc and its changed_at, so downstream validates green.
        let (value, changed_at) = match self.memo.get(&key) {
            Some(old) if old.fingerprint == fp => {
                if self.tracer.is_enabled() {
                    self.tracer
                        .count(&format!("query.{}.cutoff", self.label(kind)), 1);
                }
                (old.value.clone(), old.changed_at)
            }
            _ => (value, self.rev),
        };
        self.memo.insert(
            key,
            Memo {
                value: value.clone(),
                fingerprint: fp,
                deps,
                verified_at: self.rev,
                changed_at,
            },
        );
        value
    }

    /// Run one query function. Each arm mirrors the corresponding step
    /// of [`AnalysisCtx::build`]/[`AnalysisCtx::from_loop`] or the pass
    /// manager, so engine results equal from-scratch results exactly.
    fn compute(&mut self, doc: &str, kind: QueryKind) -> (QueryValue, u64, Vec<Dep>) {
        match kind {
            QueryKind::Parse => {
                let res = match self.docs.get(doc).map(|d| d.text.clone()) {
                    None => Err(format!("document `{doc}` is not loaded")),
                    Some(text) => nfl_lang::parse_and_check(&text),
                };
                let fp = match &res {
                    Ok(p) => fingerprint::program_fingerprint(p),
                    Err(e) => err_fp("parse", e),
                };
                (QueryValue::Parse(Arc::new(res)), fp, vec![Dep::Source])
            }
            QueryKind::Normalize => {
                let parse = self.fetch(doc, QueryKind::Parse).as_parse();
                let res = match parse.as_ref() {
                    Err(e) => Err(e.clone()),
                    Ok(p) => AnalysisCtx::normalize_loop(p).map_err(|e| e.to_string()),
                };
                let fp = match &res {
                    Ok(pl) => {
                        let mut h = Fnv64::new();
                        h.u64(fingerprint::program_fingerprint(&pl.program));
                        h.str(&pl.func);
                        h.str(&pl.pkt_param);
                        h.finish()
                    }
                    Err(e) => err_fp("normalize", e),
                };
                (
                    QueryValue::Loop(Arc::new(res)),
                    fp,
                    vec![Dep::Query(QueryKind::Parse)],
                )
            }
            QueryKind::Types => {
                let lp = self.fetch(doc, QueryKind::Normalize).as_loop();
                let res = match lp.as_ref() {
                    Err(e) => Err(e.clone()),
                    Ok(pl) => nfl_lang::types::check(&pl.program).map_err(|e| e.to_string()),
                };
                let fp = match &res {
                    Ok(_) => mix_tag("types", self.dep_fp(doc, QueryKind::Normalize)),
                    Err(e) => err_fp("types", e),
                };
                (
                    QueryValue::Types(Arc::new(res)),
                    fp,
                    vec![Dep::Query(QueryKind::Normalize)],
                )
            }
            QueryKind::Boundary => {
                let lp = self.fetch(doc, QueryKind::Normalize).as_loop();
                let res = match lp.as_ref() {
                    Err(e) => Err(e.clone()),
                    Ok(pl) => Ok(default_boundary(&pl.program, &pl.func)),
                };
                let fp = match &res {
                    Ok(b) => {
                        let mut h = Fnv64::new();
                        h.str("boundary");
                        for name in b {
                            h.str(name);
                        }
                        h.finish()
                    }
                    Err(e) => err_fp("boundary", e),
                };
                (
                    QueryValue::Boundary(Arc::new(res)),
                    fp,
                    vec![Dep::Query(QueryKind::Normalize)],
                )
            }
            QueryKind::Cfg => {
                let lp = self.fetch(doc, QueryKind::Normalize).as_loop();
                // Fingerprint on the *function* alone: an edit elsewhere
                // in the program re-runs this cheap constructor but cuts
                // off before the expensive downstream queries.
                let (res, fp) = match lp.as_ref() {
                    Err(e) => (Err(e.clone()), err_fp("cfg", e)),
                    Ok(pl) => match pl.program.function(&pl.func) {
                        None => {
                            let e = format!("internal: no function `{}`", pl.func);
                            (Err(e.clone()), err_fp("cfg", &e))
                        }
                        Some(f) => (
                            Ok(build_cfg(f)),
                            mix_tag("cfg", fingerprint::function_fingerprint(f)),
                        ),
                    },
                };
                (
                    QueryValue::Cfg(Arc::new(res)),
                    fp,
                    vec![Dep::Query(QueryKind::Normalize)],
                )
            }
            QueryKind::Pdg => {
                let lp = self.fetch(doc, QueryKind::Normalize).as_loop();
                let boundary = self.fetch(doc, QueryKind::Boundary).as_boundary();
                let cfg = self.fetch(doc, QueryKind::Cfg).as_cfg();
                let res = match (lp.as_ref(), boundary.as_ref(), cfg.as_ref()) {
                    (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e.clone()),
                    (Ok(pl), Ok(b), Ok(c)) => Ok(Pdg::build_with_cfg(&pl.program, b, c.clone())),
                };
                let fp = match &res {
                    Ok(_) => {
                        let mut h = Fnv64::new();
                        h.str("pdg");
                        h.u64(self.dep_fp(doc, QueryKind::Normalize));
                        h.u64(self.dep_fp(doc, QueryKind::Boundary));
                        h.u64(self.dep_fp(doc, QueryKind::Cfg));
                        h.finish()
                    }
                    Err(e) => err_fp("pdg", e),
                };
                (
                    QueryValue::Pdg(Arc::new(res)),
                    fp,
                    vec![
                        Dep::Query(QueryKind::Normalize),
                        Dep::Query(QueryKind::Boundary),
                        Dep::Query(QueryKind::Cfg),
                    ],
                )
            }
            QueryKind::Dominators | QueryKind::PostDominators => {
                let cfg = self.fetch(doc, QueryKind::Cfg).as_cfg();
                let res = match cfg.as_ref() {
                    Err(e) => Err(e.clone()),
                    Ok(c) => Ok(if kind == QueryKind::Dominators {
                        dominators(c)
                    } else {
                        post_dominators(c)
                    }),
                };
                let tag = if kind == QueryKind::Dominators { "dom" } else { "postdom" };
                let fp = match &res {
                    Ok(t) => {
                        let mut h = Fnv64::new();
                        h.str(tag);
                        h.u64(t.root as u64);
                        for idom in &t.idom {
                            match idom {
                                None => h.byte(0),
                                Some(n) => {
                                    h.byte(1);
                                    h.u64(*n as u64);
                                }
                            }
                        }
                        h.finish()
                    }
                    Err(e) => err_fp(tag, e),
                };
                (
                    QueryValue::Dom(Arc::new(res)),
                    fp,
                    vec![Dep::Query(QueryKind::Cfg)],
                )
            }
            QueryKind::PacketSlice => {
                let lp = self.fetch(doc, QueryKind::Normalize).as_loop();
                let pdg = self.fetch(doc, QueryKind::Pdg).as_pdg();
                let res = match (lp.as_ref(), pdg.as_ref()) {
                    (Err(e), _) | (_, Err(e)) => Err(e.clone()),
                    (Ok(pl), Ok(p)) => Ok(packet_slice(p, &pl.program, &pl.func).stmts),
                };
                let fp = match &res {
                    Ok(stmts) => {
                        let mut ids: Vec<u32> = stmts.iter().map(|s| s.0).collect();
                        ids.sort_unstable();
                        let mut h = Fnv64::new();
                        h.str("slice");
                        for id in ids {
                            h.u64(u64::from(id));
                        }
                        h.finish()
                    }
                    Err(e) => err_fp("slice", e),
                };
                (
                    QueryValue::Slice(Arc::new(res)),
                    fp,
                    vec![Dep::Query(QueryKind::Normalize), Dep::Query(QueryKind::Pdg)],
                )
            }
            QueryKind::StateAlyzer => {
                let lp = self.fetch(doc, QueryKind::Normalize).as_loop();
                let slice = self.fetch(doc, QueryKind::PacketSlice).as_slice();
                let info = self.fetch(doc, QueryKind::Types).as_types();
                let res = match (lp.as_ref(), slice.as_ref(), info.as_ref()) {
                    (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e.clone()),
                    (Ok(pl), Ok(s), Ok(i)) => {
                        Ok(statealyzer(pl, s, i, StateAlyzerInput::WholeProgram))
                    }
                };
                let fp = match &res {
                    Ok(c) => {
                        let mut h = Fnv64::new();
                        h.str("statealyzer");
                        for set in [&c.pkt_vars, &c.cfg_vars, &c.ois_vars, &c.log_vars] {
                            h.u64(set.len() as u64);
                            for v in set.iter() {
                                h.str(v);
                            }
                        }
                        h.u64(c.stmts_examined as u64);
                        h.finish()
                    }
                    Err(e) => err_fp("statealyzer", e),
                };
                (
                    QueryValue::Classes(Arc::new(res)),
                    fp,
                    vec![
                        Dep::Query(QueryKind::Normalize),
                        Dep::Query(QueryKind::PacketSlice),
                        Dep::Query(QueryKind::Types),
                    ],
                )
            }
            QueryKind::Ctx => {
                let deps = vec![
                    Dep::Query(QueryKind::Normalize),
                    Dep::Query(QueryKind::Types),
                    Dep::Query(QueryKind::Boundary),
                    Dep::Query(QueryKind::Pdg),
                    Dep::Query(QueryKind::Dominators),
                    Dep::Query(QueryKind::PostDominators),
                    Dep::Query(QueryKind::PacketSlice),
                    Dep::Query(QueryKind::StateAlyzer),
                ];
                let lp = self.fetch(doc, QueryKind::Normalize).as_loop();
                let info = self.fetch(doc, QueryKind::Types).as_types();
                let boundary = self.fetch(doc, QueryKind::Boundary).as_boundary();
                let pdg = self.fetch(doc, QueryKind::Pdg).as_pdg();
                let dom = self.fetch(doc, QueryKind::Dominators).as_dom();
                let post_dom = self.fetch(doc, QueryKind::PostDominators).as_dom();
                let slice = self.fetch(doc, QueryKind::PacketSlice).as_slice();
                let classes = self.fetch(doc, QueryKind::StateAlyzer).as_classes();
                // Error precedence mirrors AnalysisCtx::build: the
                // normalisation error first, then the type error.
                let res = match (
                    lp.as_ref(),
                    info.as_ref(),
                    boundary.as_ref(),
                    pdg.as_ref(),
                    dom.as_ref(),
                    post_dom.as_ref(),
                    slice.as_ref(),
                    classes.as_ref(),
                ) {
                    (Err(e), ..) => Err(e.clone()),
                    (_, Err(e), ..) => Err(e.clone()),
                    (_, _, Err(e), ..) => Err(e.clone()),
                    (_, _, _, Err(e), ..) => Err(e.clone()),
                    (_, _, _, _, Err(e), ..) => Err(e.clone()),
                    (_, _, _, _, _, Err(e), ..) => Err(e.clone()),
                    (_, _, _, _, _, _, Err(e), _) => Err(e.clone()),
                    (_, _, _, _, _, _, _, Err(e)) => Err(e.clone()),
                    (
                        Ok(nf_loop),
                        Ok(info),
                        Ok(boundary),
                        Ok(pdg),
                        Ok(dom),
                        Ok(post_dom),
                        Ok(pkt_slice),
                        Ok(classes),
                    ) => Ok(AnalysisCtx {
                        nf_loop: nf_loop.clone(),
                        info: info.clone(),
                        pdg: pdg.clone(),
                        dom: dom.clone(),
                        post_dom: post_dom.clone(),
                        pkt_slice: pkt_slice.clone(),
                        classes: classes.clone(),
                        boundary: boundary.clone(),
                    }),
                };
                let fp = match &res {
                    Ok(_) => {
                        let mut h = Fnv64::new();
                        h.str("ctx");
                        for d in &deps {
                            if let Dep::Query(k) = d {
                                h.u64(self.dep_fp(doc, *k));
                            }
                        }
                        h.finish()
                    }
                    Err(e) => err_fp("ctx", e),
                };
                (QueryValue::Ctx(Arc::new(res)), fp, deps)
            }
            QueryKind::LintPass(i) => {
                let ctx = self.fetch(doc, QueryKind::Ctx).as_ctx();
                let res = match ctx.as_ref() {
                    Err(e) => Err(e.clone()),
                    Ok(ctx) => match self.passes.get(i as usize) {
                        None => Err(format!("internal: no lint pass at index {i}")),
                        Some(pass) => {
                            let mut sink = LintSink::default();
                            pass.run(ctx, &mut sink);
                            Ok(PassOutput {
                                diagnostics: sink.diagnostics,
                                sharding: sink.sharding,
                            })
                        }
                    },
                };
                let fp = match &res {
                    Ok(out) => {
                        let mut h = Fnv64::new();
                        h.str("pass");
                        h.u64(u64::from(i));
                        for d in &out.diagnostics {
                            hash_diag(&mut h, d);
                        }
                        match &out.sharding {
                            None => h.byte(0),
                            Some(sh) => {
                                h.byte(1);
                                h.str(&sh.to_json().render());
                            }
                        }
                        h.finish()
                    }
                    Err(e) => err_fp("pass", e),
                };
                (
                    QueryValue::Pass(Arc::new(res)),
                    fp,
                    vec![Dep::Query(QueryKind::Ctx)],
                )
            }
            QueryKind::Sharding => {
                let pass_kind = QueryKind::LintPass(self.sharding_idx);
                let out = self.fetch(doc, pass_kind).as_pass();
                let res = match out.as_ref() {
                    Err(e) => Err(e.clone()),
                    Ok(po) => Ok(po.sharding.clone().unwrap_or_default()),
                };
                let fp = match &res {
                    Ok(sh) => {
                        let mut h = Fnv64::new();
                        h.str("sharding");
                        h.str(&sh.to_json().render());
                        h.finish()
                    }
                    Err(e) => err_fp("sharding", e),
                };
                (
                    QueryValue::Sharding(Arc::new(res)),
                    fp,
                    vec![Dep::Query(pass_kind)],
                )
            }
            QueryKind::Report => {
                let mut deps = vec![Dep::Query(QueryKind::Normalize)];
                for i in 0..self.passes.len() {
                    deps.push(Dep::Query(QueryKind::LintPass(i as u8)));
                }
                let lp = self.fetch(doc, QueryKind::Normalize).as_loop();
                let mut sink = LintSink::default();
                let mut first_err: Option<String> = None;
                for i in 0..self.passes.len() {
                    let out = self.fetch(doc, QueryKind::LintPass(i as u8)).as_pass();
                    match out.as_ref() {
                        Err(e) => {
                            first_err = Some(e.clone());
                            break;
                        }
                        Ok(po) => {
                            sink.diagnostics.extend(po.diagnostics.iter().cloned());
                            if let Some(sh) = &po.sharding {
                                sink.sharding = Some(sh.clone());
                            }
                        }
                    }
                }
                let res = match (first_err, lp.as_ref()) {
                    (Some(e), _) => Err(e),
                    (None, Err(e)) => Err(e.clone()),
                    (None, Ok(pl)) => {
                        nfl_lint::finish_sink(&mut sink);
                        Ok(LintReport {
                            name: doc.to_string(),
                            diagnostics: sink.diagnostics,
                            sharding: sink.sharding.unwrap_or_default(),
                            source: pl.program.source.clone(),
                        })
                    }
                };
                let fp = match &res {
                    Ok(r) => {
                        let mut h = Fnv64::new();
                        h.str("report");
                        h.str(&r.to_json().render());
                        h.finish()
                    }
                    Err(e) => err_fp("report", e),
                };
                (QueryValue::Report(Arc::new(res)), fp, deps)
            }
        }
    }
}

fn err_fp(tag: &str, e: &str) -> u64 {
    let mut h = Fnv64::new();
    h.str("err");
    h.str(tag);
    h.str(e);
    h.finish()
}

fn mix_tag(tag: &str, fp: u64) -> u64 {
    let mut h = Fnv64::new();
    h.str(tag);
    h.u64(fp);
    h.finish()
}

fn hash_span(h: &mut Fnv64, s: Span) {
    h.u64(s.start as u64);
    h.u64(s.end as u64);
    h.u64(u64::from(s.line));
}

fn hash_diag(h: &mut Fnv64, d: &Diagnostic) {
    h.str(d.code.as_str());
    h.str(d.severity.as_str());
    hash_span(h, d.span);
    match &d.var {
        None => h.byte(0),
        Some(v) => {
            h.byte(1);
            h.str(v);
        }
    }
    h.str(&d.message);
}
