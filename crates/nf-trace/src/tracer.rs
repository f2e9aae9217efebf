//! The [`Tracer`] handle: hierarchical spans plus the metrics registry.
//!
//! A `Tracer` is an explicit value threaded through the pipeline
//! alongside `Budget` — no globals, no thread-locals. Cloning is cheap
//! (two `Arc` bumps); all clones share one sink, so spans opened deep in
//! `nfl-symex` land in the same trace as the pipeline-stage spans that
//! contain them.
//!
//! A *disabled* tracer (no sink) still answers [`Tracer::now`] from its
//! clock, so pipeline timing always flows through one mockable source,
//! but records nothing and skips all allocation.

use crate::clock::{Clock, SystemClock};
use crate::metrics::{Histogram, MetricsSnapshot, DEFAULT_NS_BUCKETS};
use nf_support::json::Value;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded trace event: a completed span (`dur_ns` set) or an
/// instant event (`dur_ns` empty).
///
/// Timestamps are nanoseconds since the tracer's origin, so they are
/// deterministic under a mock clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stable dotted event name (`pipeline.stage.slice`, `symex.path`, …).
    pub name: String,
    /// Start time, nanoseconds since the tracer origin.
    pub ts_ns: u64,
    /// Duration in nanoseconds for spans; `None` for instant events.
    pub dur_ns: Option<u64>,
    /// Nesting depth at the time the event was recorded (0 = top level).
    pub depth: usize,
    /// Dense index of the recording thread (0 = first thread to record;
    /// single-threaded runs therefore always read 0). Maps into
    /// [`Tracer::thread_names`].
    pub tid: usize,
    /// Optional integer arguments (path index, constraint count, …).
    pub args: Vec<(String, i64)>,
}

#[derive(Default)]
struct Sink {
    events: Vec<TraceEvent>,
    /// Stack of currently-open spans: (name, start_ns).
    open: Vec<(String, u64)>,
    /// Recording threads in first-record order; the position is the
    /// event `tid` and the name (when the thread has one) feeds the
    /// Chrome `thread_name` metadata.
    threads: Vec<(std::thread::ThreadId, Option<String>)>,
    metrics: MetricsSnapshot,
}

impl Sink {
    /// The dense tid for the calling thread, registering it on first
    /// use.
    fn tid_for_current(&mut self) -> usize {
        let cur = std::thread::current();
        let id = cur.id();
        if let Some(i) = self.threads.iter().position(|(t, _)| *t == id) {
            return i;
        }
        self.threads.push((id, cur.name().map(String::from)));
        self.threads.len() - 1
    }
}

/// The tracing handle. See the [module docs](self) for the threading
/// model.
#[derive(Clone)]
pub struct Tracer {
    clock: Arc<dyn Clock>,
    origin: Instant,
    sink: Option<Arc<Mutex<Sink>>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Default for Tracer {
    /// The default tracer is disabled: always safe to thread through.
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer with no sink: records nothing, but still tells time via
    /// the system clock so instrumented code has one timing source.
    pub fn disabled() -> Tracer {
        Tracer {
            clock: Arc::new(SystemClock),
            origin: Instant::now(),
            sink: None,
        }
    }

    /// A recording tracer on the system clock.
    pub fn enabled() -> Tracer {
        Tracer::with_clock(Arc::new(SystemClock))
    }

    /// A recording tracer on an explicit clock (tests pass a
    /// [`crate::MockClock`] here for deterministic output).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Tracer {
        let origin = clock.now();
        Tracer {
            clock,
            origin,
            sink: Some(Arc::new(Mutex::new(Sink::default()))),
        }
    }

    /// True when this tracer records events and metrics.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The current instant according to this tracer's clock.
    ///
    /// Instrumented code uses this instead of `Instant::now()` so all
    /// timing — including `Budget` deadline checks — is mockable.
    pub fn now(&self) -> Instant {
        self.clock.now()
    }

    fn with_sink<R>(&self, f: impl FnOnce(&mut Sink) -> R) -> Option<R> {
        let sink = self.sink.as_ref()?;
        match sink.lock() {
            Ok(mut guard) => Some(f(&mut guard)),
            // A poisoned sink means a panic elsewhere; drop the record
            // rather than propagate.
            Err(_) => None,
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a hierarchical span. Close it with [`Span::end`] to get the
    /// elapsed wall-clock `Duration`; dropping the guard closes it too.
    ///
    /// On close, the span is recorded as a trace event and its duration
    /// is added to the `<name>.ns` counter, so per-stage totals
    /// (`pipeline.stage.slice.ns`, …) fall out of the span tree.
    pub fn span(&self, name: impl Into<String>) -> Span {
        let start = self.clock.now();
        let name = if self.sink.is_some() {
            let name = name.into();
            let ts = self.ns_since_origin(start);
            self.with_sink(|s| s.open.push((name.clone(), ts)));
            Some(name)
        } else {
            None
        };
        Span {
            tracer: self.clone(),
            start,
            name,
        }
    }

    /// Record an instant (zero-duration) event.
    pub fn instant(&self, name: &str) {
        self.instant_with(name, &[]);
    }

    /// Record an instant event with integer arguments.
    pub fn instant_with(&self, name: &str, args: &[(&str, i64)]) {
        if self.sink.is_none() {
            return;
        }
        let ts = self.ns_since_origin(self.clock.now());
        let args: Vec<(String, i64)> = args.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        self.with_sink(|s| {
            let depth = s.open.len();
            let tid = s.tid_for_current();
            s.events.push(TraceEvent {
                name: name.to_string(),
                ts_ns: ts,
                dur_ns: None,
                depth,
                tid,
                args,
            });
        });
    }

    /// Add `delta` to the counter `name`. Like every registry write,
    /// it looks the entry up by `&str` and allocates the name only
    /// when it inserts it.
    pub fn count(&self, name: &str, delta: u64) {
        self.with_sink(|s| match s.metrics.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                s.metrics.counters.insert(name.to_string(), delta);
            }
        });
    }

    /// Set the gauge `name` to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: i64) {
        self.with_sink(|s| {
            s.metrics.gauges.insert(name.to_string(), value);
        });
    }

    /// Set the string label `name` to `value` (last write wins).
    pub fn label(&self, name: &str, value: &str) {
        self.with_sink(|s| {
            s.metrics.labels.insert(name.to_string(), value.to_string());
        });
    }

    /// Record `ns` into the fixed-bucket histogram `name`
    /// (default nanosecond buckets, 1 µs – 10 s).
    pub fn observe_ns(&self, name: &str, ns: u64) {
        self.with_sink(|s| with_histogram(s, name, &DEFAULT_NS_BUCKETS, |h| h.observe(ns)));
    }

    /// Fold a locally-accumulated histogram into the registry under
    /// `name` in one lock acquisition.
    ///
    /// This is the off-hot-path flush: shard workers batch observations
    /// into a private [`Histogram`] and merge it here every few dozen
    /// packets, instead of taking the sink lock per packet. A no-op for
    /// an empty histogram or a disabled tracer.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        if h.count == 0 {
            return;
        }
        self.with_sink(|s| with_histogram(s, name, &h.bounds, |into| into.merge(h)));
    }

    /// Snapshot of all metrics recorded so far (empty when disabled).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.with_sink(|s| s.metrics.clone()).unwrap_or_default()
    }

    /// All recorded trace events so far (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.with_sink(|s| s.events.clone()).unwrap_or_default()
    }

    /// Number of spans currently open (0 when disabled).
    pub fn open_spans(&self) -> usize {
        self.with_sink(|s| s.open.len()).unwrap_or(0)
    }

    /// True when every opened span has been closed.
    pub fn balanced(&self) -> bool {
        self.open_spans() == 0
    }

    /// Display names of every thread that has recorded an event, in
    /// `tid` order. Unnamed threads render as `thread-<tid>`.
    pub fn thread_names(&self) -> Vec<String> {
        self.with_sink(|s| {
            s.threads
                .iter()
                .enumerate()
                .map(|(i, (_, name))| name.clone().unwrap_or_else(|| format!("thread-{i}")))
                .collect()
        })
        .unwrap_or_default()
    }

    /// Chrome trace-event-format JSON for everything recorded so far.
    pub fn trace_json(&self) -> Value {
        crate::chrome::trace_json(&self.events(), &self.thread_names())
    }
}

/// Apply `f` to the registry's histogram `name`, created over `bounds`
/// (and its name allocated) only if it does not exist yet.
fn with_histogram(s: &mut Sink, name: &str, bounds: &[u64], f: impl FnOnce(&mut Histogram)) {
    match s.metrics.histograms.get_mut(name) {
        Some(h) => f(h),
        None => {
            let mut h = Histogram::new(bounds);
            f(&mut h);
            s.metrics.histograms.insert(name.to_string(), h);
        }
    }
}

/// Guard for an open span. [`Span::end`] (or drop) closes it and
/// records the elapsed time; early returns via `?` therefore still
/// leave the trace balanced.
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    start: Instant,
    /// `Some` while open on an enabled tracer; taken on close.
    name: Option<String>,
}

impl Span {
    /// Close the span and return its wall-clock duration.
    ///
    /// The duration is measured even on a disabled tracer, so callers
    /// can use one code path for both tracing and their own metrics
    /// (e.g. Table 2's slicing/exploration times).
    pub fn end(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let end = self.tracer.clock.now();
        let dur = end.saturating_duration_since(self.start);
        if let Some(name) = self.name.take() {
            let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
            self.tracer.with_sink(|s| {
                // Pop the matching open entry nearest the top; a miss
                // (foreign pop) is recorded at depth 0 rather than lost.
                let (ts_ns, depth) = match s.open.iter().rposition(|(n, _)| *n == name) {
                    Some(i) => {
                        let (_, ts) = s.open.remove(i);
                        (ts, i)
                    }
                    None => (self.tracer.ns_since_origin(self.start), 0),
                };
                let tid = s.tid_for_current();
                s.events.push(TraceEvent {
                    name: name.clone(),
                    ts_ns,
                    dur_ns: Some(dur_ns),
                    depth,
                    tid,
                    args: Vec::new(),
                });
                *s.metrics.counters.entry(format!("{name}.ns")).or_insert(0) += dur_ns;
            });
        }
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.name.is_some() {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;

    #[test]
    fn disabled_tracer_records_nothing_but_tells_time() {
        let t = Tracer::disabled();
        let span = t.span("x");
        t.count("c", 1);
        t.instant("i");
        let dur = span.end();
        assert!(dur >= Duration::ZERO);
        assert!(t.metrics().is_empty());
        assert!(t.events().is_empty());
        assert!(t.balanced());
    }

    #[test]
    fn span_close_records_event_and_ns_counter() {
        let clock = Arc::new(MockClock::new(100));
        let t = Tracer::with_clock(clock);
        let span = t.span("stage");
        let dur = span.end();
        assert_eq!(dur, Duration::from_nanos(100));
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "stage");
        assert_eq!(events[0].dur_ns, Some(100));
        assert_eq!(events[0].depth, 0);
        assert_eq!(t.metrics().counter("stage.ns"), Some(100));
        assert!(t.balanced());
    }

    #[test]
    fn nested_spans_get_increasing_depth() {
        let t = Tracer::with_clock(Arc::new(MockClock::new(10)));
        let outer = t.span("outer");
        let inner = t.span("inner");
        assert_eq!(t.open_spans(), 2);
        inner.end();
        outer.end();
        let events = t.events();
        // Inner closes first, so it is recorded first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].depth, 0);
        // Inner is contained within outer on the timeline.
        let (o, i) = (&events[1], &events[0]);
        assert!(i.ts_ns >= o.ts_ns);
        assert!(i.ts_ns + i.dur_ns.unwrap() <= o.ts_ns + o.dur_ns.unwrap());
    }

    #[test]
    fn dropping_a_span_closes_it() {
        let t = Tracer::with_clock(Arc::new(MockClock::new(1)));
        {
            let _span = t.span("scoped");
        }
        assert!(t.balanced());
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::with_clock(Arc::new(MockClock::new(1)));
        let t2 = t.clone();
        t2.count("shared", 3);
        assert_eq!(t.metrics().counter("shared"), Some(3));
    }

    #[test]
    fn gauges_and_labels_are_last_write_wins() {
        let t = Tracer::enabled();
        t.gauge("g", 1);
        t.gauge("g", -2);
        t.label("l", "a");
        t.label("l", "b");
        let m = t.metrics();
        assert_eq!(m.gauges.get("g"), Some(&-2));
        assert_eq!(m.labels.get("l").map(String::as_str), Some("b"));
    }

    #[test]
    fn instant_events_carry_args_and_depth() {
        let t = Tracer::with_clock(Arc::new(MockClock::new(1)));
        let span = t.span("outer");
        t.instant_with("mark", &[("index", 4)]);
        span.end();
        let events = t.events();
        assert_eq!(events[0].name, "mark");
        assert_eq!(events[0].dur_ns, None);
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[0].args, vec![("index".to_string(), 4)]);
    }
}
