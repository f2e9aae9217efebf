//! The red-green incremental query engine.
//!
//! A document's lint is four queries, each a memoized call of the
//! constructor the batch lint ([`nfl_lint::lint_source`]) runs:
//!
//! ```text
//! Source ─ Parse ─ Normalize ─ Ctx ─ Report
//! ```
//!
//! Every query reads exactly one input, the document text or the query
//! before it, and the engine tracks two revisions per memo à la salsa:
//!
//! * `verified_at` — the last engine revision at which this memo was
//!   known up to date;
//! * `changed_at` — the revision at which its *value* last actually
//!   changed.
//!
//! A fetch first tries the green path: if the memo was verified at the
//! current revision it is returned outright; otherwise its input is
//! fetched (recursively) and if it has not `changed_at` later than this
//! memo's `verified_at`, the memo is revalidated without recomputing.
//! Only then does the red path run the query function — and if the
//! freshly computed value fingerprints identical to the old one, the
//! engine *backdates*: it keeps the old value (and its `changed_at`), so
//! every downstream query still validates green. That is the
//! early-cutoff that makes a trailing-comment edit cost one re-parse and
//! nothing else: a [`Program`] hashes its
//! declarations, spans, ids and literals, not its source text.
//!
//! Values are stored as `Arc<Result<T, String>>`: broken documents
//! memoize their error exactly like facts, so an engine-driven lint of
//! unparseable source returns the same `Err` string a from-scratch
//! [`nfl_lint::lint_source`] call would.

use nf_trace::Tracer;
use nfl_analysis::normalize::{detect_structure, PacketLoop, Structure};
use nfl_lang::Program;
use nfl_lint::{AnalysisCtx, LintReport};
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// One kind of derived fact. Together with a document name this keys a
/// memo slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum QueryKind {
    /// `parse_and_check` of the document text.
    Parse,
    /// [`AnalysisCtx::normalize_loop`]: the normalised (socket-unfolded
    /// where needed) packet loop.
    Normalize,
    /// [`AnalysisCtx::from_loop`]: the analysis context lint passes run
    /// over.
    Ctx,
    /// [`LintReport::from_ctx`]: the default passes' merged, sorted
    /// report.
    Report,
}

impl QueryKind {
    /// The query this one reads; `None` for the document text.
    fn input(self) -> Option<QueryKind> {
        match self {
            QueryKind::Parse => None,
            QueryKind::Normalize => Some(QueryKind::Parse),
            QueryKind::Ctx => Some(QueryKind::Normalize),
            QueryKind::Report => Some(QueryKind::Ctx),
        }
    }

    /// Metric label (`query.<label>.hit` etc.).
    fn label(self) -> &'static str {
        match self {
            QueryKind::Parse => "parse",
            QueryKind::Normalize => "normalize",
            QueryKind::Ctx => "ctx",
            QueryKind::Report => "report",
        }
    }
}

/// A memoized query value. Every fact wraps `Arc<Result<..>>` so cached
/// facts (and cached *errors*) are shared, not recloned.
#[derive(Clone)]
enum QueryValue {
    /// The document text [`QueryKind::Parse`] reads; `None` when the
    /// document is not loaded.
    Text(Option<Arc<String>>),
    Parse(Arc<Result<Program, String>>),
    /// The normalised loop, until [`QueryKind::Ctx`] takes it.
    Loop(Arc<Result<PacketLoop, String>>),
    /// A loop Ctx took by move. Ctx reads the loop only right after
    /// Normalize recomputed it, and Normalize's cutoff compares
    /// fingerprints only, so the memo keeps just its fingerprint.
    Taken,
    Ctx(Arc<Result<AnalysisCtx, String>>),
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
    accessor!(as_parse, Parse, Program);
    accessor!(as_ctx, Ctx, AnalysisCtx);
    accessor!(as_report, Report, LintReport);

    /// The loop by value, copied only if something else shares it.
    fn into_loop(self) -> Result<PacketLoop, String> {
        match self {
            QueryValue::Loop(pl) => Arc::try_unwrap(pl).unwrap_or_else(|shared| (*shared).clone()),
            _ => Err(WRONG_KIND.to_string()),
        }
    }
}

/// 64-bit FNV-1a: a [`Hasher`] with no per-process keys, so a
/// fingerprint is stable for the engine's lifetime.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn fingerprint(v: &(impl Hash + ?Sized)) -> u64 {
    let mut h = Fnv::default();
    v.hash(&mut h);
    h.finish()
}

#[derive(Clone)]
struct Memo {
    value: QueryValue,
    fingerprint: u64,
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
/// (the last of the four queries: parse → normalize → ctx → report)
/// and [`Engine::analysis_ctx`] (the third). Edits bump the engine
/// revision only when the text actually changed, so re-feeding
/// identical bytes is free.
pub struct Engine {
    tracer: Tracer,
    rev: u64,
    docs: BTreeMap<String, DocInput>,
    memo: HashMap<(String, QueryKind), Memo>,
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
        Engine {
            tracer,
            rev: 0,
            docs: BTreeMap::new(),
            memo: HashMap::new(),
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
        let hash = fingerprint(text);
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

    /// The merged lint report for `doc` — byte-identical (JSON,
    /// diagnostics and carried source) to a from-scratch
    /// [`nfl_lint::lint_source`] with the same name and text.
    pub fn lint_report(&mut self, doc: &str) -> Arc<Result<LintReport, String>> {
        let report = self.fetch(doc, QueryKind::Report).value.as_report();
        // A Parse cutoff keeps the program parsed from the older text,
        // and with it everything derived, source included. Its spans
        // index the new text just as well, so the report carries that,
        // unless what was analysed is the socket unfolding's own text.
        let (Ok(r), Some(d)) = (report.as_ref(), self.docs.get(doc)) else {
            return report;
        };
        if r.source == *d.text || self.unfolded(doc) {
            return report;
        }
        let current = Arc::new(Ok(LintReport {
            source: d.text.to_string(),
            ..r.clone()
        }));
        if let Some(m) = self.memo.get_mut(&(doc.to_string(), QueryKind::Report)) {
            m.value = QueryValue::Report(current.clone());
        }
        current
    }

    /// Whether `doc`'s analysed program is its socket unfolding (the
    /// Figure 4d shape) rather than the document itself.
    fn unfolded(&self, doc: &str) -> bool {
        let parsed = self.memo.get(&(doc.to_string(), QueryKind::Parse));
        parsed.is_some_and(|m| match m.value.as_parse().as_ref() {
            Ok(p) => detect_structure(p) == Structure::NestedLoop,
            Err(_) => false,
        })
    }

    /// The analysis context for `doc` (hover reads StateAlyzer classes
    /// out of it).
    pub fn analysis_ctx(&mut self, doc: &str) -> Arc<Result<AnalysisCtx, String>> {
        self.fetch(doc, QueryKind::Ctx).value.as_ctx()
    }

    /// A memo served without recomputing, counted as a `hit`.
    fn hit(&self, kind: QueryKind, m: Memo) -> Memo {
        if self.tracer.is_enabled() {
            self.tracer.count(&format!("query.{}.hit", kind.label()), 1);
        }
        m
    }

    /// The core red-green fetch (see the module docs).
    fn fetch(&mut self, doc: &str, kind: QueryKind) -> Memo {
        let key = (doc.to_string(), kind);
        // Green fast path: verified this revision.
        if let Some(m) = self.memo.get(&key) {
            if m.verified_at == self.rev {
                return self.hit(kind, m.clone());
            }
        }
        // Bring the input up to date.
        let input = match kind.input() {
            None => self.text(doc),
            Some(k) => self.fetch(doc, k),
        };
        // Green slow path: the input has not changed since we last
        // verified.
        if let Some(m) = self.memo.get_mut(&key) {
            if input.changed_at <= m.verified_at {
                m.verified_at = self.rev;
                let m = m.clone();
                return self.hit(kind, m);
            }
        }
        // Red path: recompute. Ctx takes the loop out of Normalize's
        // memo, so one copy of it lives on, inside the context.
        if kind == QueryKind::Ctx {
            if let Some(m) = self.memo.get_mut(&(doc.to_string(), QueryKind::Normalize)) {
                m.value = QueryValue::Taken;
            }
        }
        let start = Instant::now();
        let (value, fp) = compute(doc, kind, input);
        if self.tracer.is_enabled() {
            let label = kind.label();
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
                        .count(&format!("query.{}.cutoff", kind.label()), 1);
                }
                (old.value.clone(), old.changed_at)
            }
            _ => (value, self.rev),
        };
        let m = Memo {
            value,
            fingerprint: fp,
            verified_at: self.rev,
            changed_at,
        };
        self.memo.insert(key, m.clone());
        m
    }

    /// The document text, as the input memo [`QueryKind::Parse`] reads.
    fn text(&self, doc: &str) -> Memo {
        let (text, fingerprint, changed_at) = match self.docs.get(doc) {
            Some(d) => (Some(d.text.clone()), d.hash, d.changed_at),
            None => (None, 0, self.rev),
        };
        Memo {
            value: QueryValue::Text(text),
            fingerprint,
            verified_at: self.rev,
            changed_at,
        }
    }
}

/// Run one query function on its up-to-date `input`. Parse and
/// Normalize fingerprint their value; Ctx and Report are pure functions
/// of their input and take its fingerprint.
fn compute(doc: &str, kind: QueryKind, input: Memo) -> (QueryValue, u64) {
    match kind {
        QueryKind::Parse => {
            let res = match &input.value {
                QueryValue::Text(Some(text)) => nfl_lang::parse_and_check(text),
                _ => Err(format!("document `{doc}` is not loaded")),
            };
            let fp = fingerprint(&res);
            (QueryValue::Parse(Arc::new(res)), fp)
        }
        QueryKind::Normalize => {
            let res = then(&input.value.as_parse(), |p| {
                AnalysisCtx::normalize_loop(p).map_err(|e| e.to_string())
            });
            let fp = fingerprint(&res);
            (QueryValue::Loop(Arc::new(res)), fp)
        }
        QueryKind::Ctx => {
            let res = input.value.into_loop().and_then(AnalysisCtx::from_loop);
            (QueryValue::Ctx(Arc::new(res)), input.fingerprint)
        }
        QueryKind::Report => {
            let res = then(&input.value.as_ctx(), |ctx| {
                Ok(LintReport::from_ctx(doc, ctx, &Tracer::disabled()))
            });
            (QueryValue::Report(Arc::new(res)), input.fingerprint)
        }
    }
}

/// `f` of an `Ok` input; an input error passes through unchanged, so a
/// broken document reports the first step's error.
fn then<T, U>(
    input: &Result<T, String>,
    f: impl FnOnce(&T) -> Result<U, String>,
) -> Result<U, String> {
    match input {
        Ok(v) => f(v),
        Err(e) => Err(e.clone()),
    }
}
