//! `nfbench` — one benchmark for the two costs an NFactor user pays:
//! the time from NFL text to a ready engine, and packets per second from
//! `.nfw` trace bytes to merged state.
//!
//! Each run measures one [`workload`] in its own process. An untraced
//! run reports the end-to-end metrics; a traced run (`--trace 1`)
//! reports per-layer metrics, timed only from outside the program by
//! wrapping calls into its public functions and reading counters it
//! already publishes. Correctness gates ([`gate`]) run untimed before
//! the timed loop, and every timed operation is checked after it ends.
//!
//! This file holds the shared measurement helpers: order statistics,
//! [`TimedSource`], the [`SpeedClock`], and the [`Report`] the binary
//! prints.

#![deny(unsafe_code)]

pub mod gate;
#[allow(unsafe_code)]
mod heap;
pub mod measure;
pub mod workload;

pub use heap::peak_heap_mb;

use nfactor::support::json::Value;
use nfactor::support::workload::{WorkloadError, WorkloadSource};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).median
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the default "exclusive" method), so spreads printed here match the
/// ones an acceptance script computes from the same values. With fewer
/// than two samples every quartile is the one value.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    if s.len() < 2 {
        return (s[0], s[0], s[0]);
    }
    let m = s.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Summarize a non-empty sample.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "a metric needs at least one sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    let median = if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    };
    let (q1, _, q3) = quartiles(&s);
    Summary {
        n: s.len(),
        min: s[0],
        q1,
        median,
        q3,
        max: s[s.len() - 1],
    }
}

/// A [`WorkloadSource`] wrapper that accumulates the wall time spent
/// pulling from the inner source — for an `NfwReader`, the cost of
/// reading and decoding trace records, which the engine's dispatcher
/// otherwise counts as dispatch work.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    pulled: Duration,
}

impl<S> TimedSource<S> {
    pub fn new(inner: S) -> TimedSource<S> {
        TimedSource {
            inner,
            pulled: Duration::ZERO,
        }
    }

    /// Total time spent inside the inner source's `next_batch`.
    pub fn pulled(&self) -> Duration {
        self.pulled
    }
}

impl<S: WorkloadSource> WorkloadSource for TimedSource<S> {
    type Item = S::Item;

    fn next_batch(&mut self, out: &mut Vec<S::Item>, max: usize) -> Result<usize, WorkloadError> {
        let t0 = Instant::now();
        let got = self.inner.next_batch(out, max);
        self.pulled += t0.elapsed();
        got
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }
}

/// Time of one [`calibrate`] run at the reference speed every
/// end-to-end time is reported at.
pub const REFERENCE_CAL_NS: f64 = 4.5e6;

/// A fixed, deterministic piece of work in the program's own mix of
/// operations. A third of its time is xorshift arithmetic, a sort, and
/// hash-map inserts and lookups; two thirds is cloning a string-keyed
/// ordered map of small vectors, the allocation-heavy state copy the
/// interpreter and model journals make per packet. Returns a checksum
/// so none of it can be optimized away.
pub fn calibrate() -> u64 {
    const KEYS: usize = 20_000;
    const ENTRIES: u64 = 3_000;
    const CLONES: usize = 10;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut keys: Vec<u64> = (0..KEYS).map(|_| next()).collect();
    keys.sort_unstable();
    let hashed: std::collections::HashMap<u64, u64> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    let mut sum = 0u64;
    for k in keys.iter().rev() {
        sum = sum.wrapping_add(hashed.get(k).copied().unwrap_or(0));
    }
    let state: std::collections::BTreeMap<String, Vec<u64>> = (0..ENTRIES)
        .map(|i| {
            let v = next();
            (
                format!("var_{}_{i}", v % 977),
                vec![v; (v % 7) as usize + 1],
            )
        })
        .collect();
    for _ in 0..CLONES {
        let copy = state.clone();
        for (k, v) in copy.iter().step_by(8) {
            sum = sum.wrapping_add(k.len() as u64 ^ v[0]);
        }
    }
    std::hint::black_box(sum)
}

fn calibration_ns() -> f64 {
    let t0 = Instant::now();
    calibrate();
    t0.elapsed().as_nanos() as f64
}

/// Scales wall times to [`REFERENCE_CAL_NS`] speed.
///
/// The benchmark's host is a small VM on a shared machine, and how fast
/// its vCPUs run drifts by tens of percent over minutes with the other
/// tenants' load. [`calibrate`] runs before and after every timed
/// operation; dividing the operation's wall time by the mean of the two
/// calibration times, taken on the same core moments apart, cancels the
/// host's speed and leaves the program's.
#[derive(Debug)]
pub struct SpeedClock {
    before: f64,
}

impl SpeedClock {
    /// Warm the calibration up, then take the first sample.
    pub fn new() -> SpeedClock {
        calibration_ns();
        SpeedClock {
            before: calibration_ns(),
        }
    }

    /// `wall_ns` of an operation that ran since the previous call (or
    /// since [`SpeedClock::new`]), scaled to reference speed.
    pub fn scale(&mut self, wall_ns: f64) -> f64 {
        let after = calibration_ns();
        let scaled = wall_ns * REFERENCE_CAL_NS * 2.0 / (self.before + after);
        self.before = after;
        scaled
    }
}

impl Default for SpeedClock {
    fn default() -> Self {
        SpeedClock::new()
    }
}

/// One reported metric: the value the run reports (the median of its
/// samples), plus the order statistics of its samples for the
/// human-readable table.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Summary,
}

/// What one benchmark run found.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Timed operations performed (engine builds and trace runs).
    pub attempted: u64,
    /// Timed operations whose result failed its correctness check.
    pub failed: u64,
    /// Why each failed operation failed, in order.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Count one timed operation; `check` is its correctness verdict.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            self.failures.push(e);
        }
    }

    /// Report the median of `samples`.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        let summary = summarize(samples);
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: summary.median,
            summary,
        });
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// each metric's value with its unit.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let int = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), int(self.attempted)),
            ("failed".into(), int(self.failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }

    /// A fixed-width table: the median, quartiles, min, max and sample
    /// count per metric.
    pub fn render_table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = format!(
            "{:<width$}  {:>14} {:>14} {:>14} {:>14} {:>14} {:>5}  unit\n",
            "metric", "median", "q1", "q3", "min", "max", "n"
        );
        for m in &self.metrics {
            let s = &m.summary;
            out.push_str(&format!(
                "{:<width$}  {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>5}  {}\n",
                m.name, s.median, s.q1, s.q3, s.min, s.max, s.n, m.unit
            ));
        }
        out
    }
}

/// Everything one run needs besides the workload itself.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Measuring time: the timed loop runs until this much has elapsed
    /// (and every kind of operation ran [`measure::MIN_SAMPLES`] times,
    /// or [`measure::TRACED_MIN_SAMPLES`] in a traced run).
    pub seconds: f64,
    /// `false`: the end-to-end metrics; `true`: the per-layer metrics.
    pub trace: bool,
    /// Shrink every input to a smoke-test size (tests only).
    pub tiny: bool,
    /// Where generated traces and traced-run artifacts are written.
    pub out_dir: PathBuf,
    /// The checked-in golden model renderings the correctness gate
    /// compares synthesis against.
    pub golden_dir: PathBuf,
}

impl Options {
    /// The defaults the binary starts from: paths relative to the
    /// benchmark package inside the repository checkout.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Options {
        let pkg = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        Options {
            seed,
            seconds,
            trace,
            tiny: false,
            out_dir: PathBuf::from(".nfbench"),
            golden_dir: pkg.join("../tests/golden"),
        }
    }
}

/// Run one workload by name.
pub fn run(workload: &str, opts: &Options) -> Result<Report, String> {
    let w = workload::find(workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{workload}` (expected one of {})",
            names.join(", ")
        )
    })?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    measure::run(w, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
