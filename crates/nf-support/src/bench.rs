//! A `harness = false` micro-benchmark runner.
//!
//! API shape follows criterion's narrow waist — groups, `bench_function`,
//! a [`Bencher`] with `iter` — so bench files port with local edits only.
//! Each benchmark is warmed up, then timed for a fixed number of samples
//! of auto-calibrated batch size. Results print as a table and are
//! written as `BENCH_<name>.json` (override the directory with
//! `NF_BENCH_DIR`), giving the repo a machine-readable perf trajectory.
//!
//! Run via `cargo bench` (each `[[bench]]` target calls
//! [`Harness::from_args`]) or `cargo bench -- <filter>` to select
//! benchmarks by substring.

use crate::json::Value;
use std::time::{Duration, Instant};

/// Re-export of the optimizer barrier used around benchmark inputs.
pub use std::hint::black_box;

/// One measured benchmark result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Full benchmark id, `group/name`.
    pub id: String,
    /// Number of timed samples.
    pub samples: u32,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Mean time per iteration in nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample, ns/iter.
    pub min_ns: f64,
    /// Slowest sample, ns/iter.
    pub max_ns: f64,
}

/// Passed to benchmark closures; call [`Bencher::iter`] exactly once.
pub struct Bencher {
    warmup: Duration,
    samples: u32,
    result: Option<(u32, u64, f64, f64, f64)>,
}

impl Bencher {
    /// Measure `f`, running it in calibrated batches.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warmup, and calibrate the batch size so one sample costs
        // roughly warmup/samples but at least one iteration.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = self.warmup.as_nanos() as f64 / warm_iters.max(1) as f64;
        let target_sample_ns = 10_000_000.0; // 10 ms per sample
        let batch = ((target_sample_ns / per_iter).ceil() as u64).clamp(1, 1_000_000);

        let mut total_ns = 0f64;
        let mut min_ns = f64::INFINITY;
        let mut max_ns = 0f64;
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let ns = t.elapsed().as_nanos() as f64 / batch as f64;
            total_ns += ns;
            min_ns = min_ns.min(ns);
            max_ns = max_ns.max(ns);
        }
        self.result = Some((
            self.samples,
            batch,
            total_ns / f64::from(self.samples),
            min_ns,
            max_ns,
        ));
    }
}

/// A named group of benchmarks sharing configuration.
pub struct Group<'h> {
    harness: &'h mut Harness,
    name: String,
    samples: u32,
}

impl Group<'_> {
    /// Set the number of timed samples per benchmark (criterion's
    /// `sample_size`).
    pub fn sample_size(&mut self, n: u32) -> &mut Self {
        self.samples = n.max(2);
        self
    }

    /// Run one benchmark under this group.
    pub fn bench_function(&mut self, name: impl AsRef<str>, f: impl FnOnce(&mut Bencher)) {
        let id = format!("{}/{}", self.name, name.as_ref());
        if !self.harness.filter_matches(&id) {
            return;
        }
        let mut b = Bencher {
            warmup: self.harness.warmup,
            samples: self.samples,
            result: None,
        };
        f(&mut b);
        let (samples, batch, mean, min, max) =
            b.result.expect("benchmark closure must call Bencher::iter");
        let m = Measurement {
            id,
            samples,
            iters_per_sample: batch,
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
        };
        eprintln!(
            "bench {:<44} {:>12}  ({} samples × {} iters, {:.0}..{:.0} ns)",
            m.id,
            fmt_ns(m.mean_ns),
            m.samples,
            m.iters_per_sample,
            m.min_ns,
            m.max_ns
        );
        self.harness.results.push(m);
    }

    /// Criterion-compatible spelling: bench with a displayed input.
    pub fn bench_with_input<I>(
        &mut self,
        name: impl AsRef<str>,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) {
        self.bench_function(name, |b| f(b, input));
    }

    /// No-op, kept for criterion API compatibility.
    pub fn finish(&mut self) {}
}

/// The per-binary benchmark harness; owns config and collected results.
pub struct Harness {
    name: String,
    warmup: Duration,
    filter: Option<String>,
    results: Vec<Measurement>,
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

impl Harness {
    /// Create a harness with an explicit config.
    pub fn new(name: &str) -> Harness {
        Harness {
            name: name.to_string(),
            warmup: Duration::from_millis(300),
            filter: None,
            results: Vec::new(),
        }
    }

    /// Create a harness from CLI args, skipping cargo's `--bench` flag
    /// and treating the first free argument as a name filter. This is
    /// the entry point for `harness = false` bench targets.
    pub fn from_args(name: &str) -> Harness {
        let mut h = Harness::new(name);
        for arg in std::env::args().skip(1) {
            if arg.starts_with('-') {
                continue; // --bench and friends
            }
            h.filter = Some(arg);
            break;
        }
        if let Ok(ms) = std::env::var("NF_BENCH_WARMUP_MS") {
            if let Ok(ms) = ms.parse::<u64>() {
                h.warmup = Duration::from_millis(ms);
            }
        }
        h
    }

    /// Override the warmup period.
    pub fn warmup(&mut self, d: Duration) -> &mut Self {
        self.warmup = d;
        self
    }

    fn filter_matches(&self, id: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| id.contains(f))
    }

    /// Open a benchmark group.
    pub fn benchmark_group(&mut self, name: impl AsRef<str>) -> Group<'_> {
        Group {
            name: name.as_ref().to_string(),
            samples: 20,
            harness: self,
        }
    }

    /// Serialize collected results to the report JSON. The `meta` block
    /// stamps every `BENCH_*.json` with the git revision, UTC timestamp
    /// and cargo profile, so the perf trajectory across PRs is
    /// attributable to a specific commit and build.
    pub fn report_json(&self) -> Value {
        Value::Object(vec![
            ("bench".into(), Value::Str(self.name.clone())),
            ("meta".into(), run_meta()),
            (
                "results".into(),
                Value::Array(
                    self.results
                        .iter()
                        .map(|m| {
                            Value::Object(vec![
                                ("name".into(), Value::Str(m.id.clone())),
                                ("samples".into(), Value::Int(i64::from(m.samples))),
                                (
                                    "iters_per_sample".into(),
                                    Value::Int(m.iters_per_sample as i64),
                                ),
                                ("mean_ns".into(), Value::Float(m.mean_ns)),
                                ("min_ns".into(), Value::Float(m.min_ns)),
                                ("max_ns".into(), Value::Float(m.max_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Write `BENCH_<name>.json` and print the summary footer. Call last
    /// from the bench target's `main`.
    pub fn finish(self) {
        let dir = std::env::var("NF_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
        let body = self.report_json().render_pretty();
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!(
                "bench {}: {} results -> {}",
                self.name,
                self.results.len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "bench {}: could not write {}: {e}",
                self.name,
                path.display()
            ),
        }
    }
}

/// Run metadata stamped into every bench report.
fn run_meta() -> Value {
    Value::Object(vec![
        ("git_rev".into(), Value::Str(git_rev())),
        ("timestamp_utc".into(), Value::Str(utc_now())),
        (
            "profile".into(),
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
    ])
}

/// Current `HEAD` revision, or `"unknown"` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The current UTC time as ISO-8601 (`2026-08-06T12:34:56Z`), computed
/// from the Unix epoch with the standard civil-from-days algorithm — no
/// external time crate.
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_secs() as i64;
    let days = secs.div_euclid(86_400);
    let tod = secs.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        tod / 3600,
        (tod % 3600) / 60,
        tod % 60
    )
}

/// Days since 1970-01-01 → (year, month, day) in the proleptic Gregorian
/// calendar (Howard Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_from_days_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(19_782), (2024, 2, 29)); // leap day
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn utc_now_is_iso8601_shaped() {
        let ts = utc_now();
        // 2026-08-06T12:34:56Z
        assert_eq!(ts.len(), 20, "{ts}");
        assert_eq!(&ts[4..5], "-");
        assert_eq!(&ts[10..11], "T");
        assert!(ts.ends_with('Z'));
    }

    #[test]
    fn report_json_carries_run_meta() {
        let h = Harness::new("meta-test");
        let json = h.report_json();
        let meta = json.get("meta").expect("meta block present");
        for key in ["git_rev", "timestamp_utc", "profile"] {
            assert!(
                matches!(meta.get(key), Some(Value::Str(s)) if !s.is_empty()),
                "missing/empty meta.{key}"
            );
        }
        let profile = match meta.get("profile") {
            Some(Value::Str(s)) => s.clone(),
            _ => unreachable!(),
        };
        assert!(profile == "debug" || profile == "release");
    }

    #[test]
    fn measures_and_reports() {
        let mut h = Harness::new("selftest");
        h.warmup(Duration::from_millis(5));
        let mut g = h.benchmark_group("grp");
        g.sample_size(3);
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.finish();
        assert_eq!(h.results.len(), 1);
        let m = &h.results[0];
        assert_eq!(m.id, "grp/sum");
        assert!(m.mean_ns > 0.0);
        assert!(m.min_ns <= m.mean_ns && m.mean_ns <= m.max_ns);
        let json = h.report_json().render();
        assert!(json.contains("\"grp/sum\""), "{json}");
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut h = Harness::new("selftest2");
        h.warmup(Duration::from_millis(1));
        h.filter = Some("only-this".to_string());
        let mut g = h.benchmark_group("grp");
        g.sample_size(2);
        g.bench_function("skipped", |b| b.iter(|| 1 + 1));
        g.finish();
        assert!(h.results.is_empty());
    }
}
