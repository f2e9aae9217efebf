//! nf-fuzz — seeded fuzzing and fault-injection harness for the NFactor
//! pipeline.
//!
//! The paper's pipeline consumes *source code* and *packets*, both of
//! which arrive from outside the trust boundary; this crate drives the
//! whole stack with four seeded input diets and two oracles:
//!
//! | diet (case `i % 4`)           | oracle(s)                                      |
//! |-------------------------------|------------------------------------------------|
//! | grammar-generated NFL program | crash + differential (interp, model, compiled) |
//! | byte-mutated NFL text         | crash (parse / lint / synthesize)              |
//! | byte-mutated wire packet      | crash (decode / re-encode)                     |
//! | pure random bytes             | crash (both surfaces)                          |
//!
//! Everything is deterministic in the seed — same seed, same cases, same
//! verdicts — because synthesis runs under a caps-only
//! [`Budget`](nf_support::budget::Budget) with no wall-clock deadline.
//! Failures are shrunk by the [`minimize`] delta-debugger before being
//! reported. Zero external dependencies: randomness and checking come
//! from `nf-support`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grammar;
pub mod minimize;
pub mod mutate;
pub mod oracle;

pub use grammar::{gen_program, GenProgram};
pub use minimize::{minimize_text, minimize_wire};
pub use mutate::{mutate_text, mutate_wire, random_bytes};
pub use oracle::{check_differential, check_source, check_wire, fuzz_pipeline, Stage, Verdict};

use nf_packet::PacketGen;
use nf_support::rng::{splitmix64, Rng};
use nf_trace::Tracer;
use std::fmt;

/// What kind of input a fuzz case fed the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseKind {
    /// A well-formed grammar-generated NF program.
    Grammar,
    /// A grammar program's text after byte mutation.
    TextMutation,
    /// A valid packet's wire bytes after byte mutation.
    WireMutation,
    /// Uniform random bytes fed to both surfaces.
    RandomBytes,
}

impl fmt::Display for CaseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CaseKind::Grammar => "grammar",
            CaseKind::TextMutation => "text-mutation",
            CaseKind::WireMutation => "wire-mutation",
            CaseKind::RandomBytes => "random-bytes",
        };
        write!(f, "{s}")
    }
}

/// One failing case, with the input that provoked it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Index of the case within the run.
    pub case: usize,
    /// Input diet that produced it.
    pub kind: CaseKind,
    /// The failing verdict ([`Verdict::Panic`] or [`Verdict::Mismatch`]).
    pub verdict: Verdict,
    /// The provoking input, rendered for a human (source text, or hex
    /// bytes for wire inputs), minimized by the delta-debugger except
    /// for random bytes.
    pub input: String,
}

/// Configuration of a fuzz run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; the entire run is a pure function of it.
    pub seed: u64,
    /// Number of cases to execute.
    pub cases: usize,
}

/// Packets per differential comparison.
const DIFF_TRIALS: usize = 20;

/// Aggregate result of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Cases that panicked somewhere in the pipeline.
    pub panics: usize,
    /// Differential mismatches: interpreter vs model, or compiled
    /// program vs model.
    pub mismatches: usize,
    /// Differential comparisons actually performed.
    pub diff_checked: usize,
    /// Differential comparisons skipped as incomparable (with reasons
    /// counted, not stored per-case).
    pub diff_skipped: usize,
    /// All failing cases.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// Did the run finish with zero panics and zero mismatches?
    pub fn clean(&self) -> bool {
        self.panics == 0 && self.mismatches == 0
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} cases: {} panics, {} differential mismatches ({} compared, {} skipped)",
            self.cases, self.panics, self.mismatches, self.diff_checked, self.diff_skipped
        );
        for f in self.findings.iter().take(8) {
            s.push_str(&format!(
                "\n  case {} [{}]: {:?}",
                f.case, f.kind, f.verdict
            ));
        }
        s
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn record(report: &mut FuzzReport, case: usize, kind: CaseKind, verdict: Verdict, input: String) {
    match &verdict {
        Verdict::Panic { .. } => report.panics += 1,
        Verdict::Mismatch { .. } => report.mismatches += 1,
        _ => return,
    }
    report.findings.push(Finding {
        case,
        kind,
        verdict,
        input,
    });
}

/// Shrink a failing source input so the report carries the smallest
/// program that still fails the same way.
fn shrink_source(src: &str, verdict: &Verdict) -> String {
    let same = |v: &Verdict| match (v, verdict) {
        (Verdict::Panic { stage: a, .. }, Verdict::Panic { stage: b, .. }) => a == b,
        (Verdict::Mismatch { .. }, Verdict::Mismatch { .. }) => true,
        _ => false,
    };
    minimize_text(src, |cand| same(&check_source("min", cand)))
}

fn shrink_wire(bytes: &[u8], verdict: &Verdict) -> Vec<u8> {
    minimize_wire(bytes, |cand| {
        matches!(
            (&check_wire(cand), verdict),
            (Verdict::Panic { .. }, Verdict::Panic { .. })
        )
    })
}

/// Execute a fuzz run. Deterministic: the report (cases, verdicts,
/// findings) is a pure function of `cfg`.
pub fn run(cfg: &FuzzConfig) -> FuzzReport {
    run_traced(cfg, &Tracer::disabled())
}

/// [`run`] with observability: each case's wall-clock latency lands in
/// the `fuzz.case.ns` histogram and the oracle verdicts are summarised
/// as `fuzz.*` counters. The verdicts themselves stay a pure function
/// of `cfg` — only the timings vary run to run.
pub fn run_traced(cfg: &FuzzConfig, tracer: &Tracer) -> FuzzReport {
    let mut report = FuzzReport::default();
    for case in 0..cfg.cases {
        let case_start = tracer.is_enabled().then(|| tracer.now());
        // Every case owns an independent generator derived from
        // (seed, case), so a single case can be replayed in isolation.
        let mut st = cfg.seed ^ (case as u64).wrapping_mul(0x9e3779b97f4a7c15);
        let case_seed = splitmix64(&mut st);
        let mut rng = Rng::new(case_seed);
        match case % 4 {
            0 => {
                let prog = gen_program(&mut rng);
                let name = format!("fuzz-{case}");
                let mut verdict = check_source(&name, &prog.source);
                if !verdict.is_failure() {
                    verdict = check_differential(&name, &prog.source, case_seed, DIFF_TRIALS);
                    match &verdict {
                        Verdict::Skipped(_) => report.diff_skipped += 1,
                        Verdict::Panic { .. } => {}
                        _ => report.diff_checked += 1,
                    }
                }
                if verdict.is_failure() {
                    let input = shrink_source(&prog.source, &verdict);
                    record(&mut report, case, CaseKind::Grammar, verdict, input);
                }
            }
            1 => {
                let prog = gen_program(&mut rng);
                let mutated = mutate_text(&mut rng, &prog.source);
                let verdict = check_source("fuzz-mut", &mutated);
                if verdict.is_failure() {
                    let input = shrink_source(&mutated, &verdict);
                    record(&mut report, case, CaseKind::TextMutation, verdict, input);
                }
            }
            2 => {
                let pkt = PacketGen::new(case_seed).next_packet();
                let mutated = mutate_wire(&mut rng, &pkt.to_wire());
                let verdict = check_wire(&mutated);
                if verdict.is_failure() {
                    let input = hex(&shrink_wire(&mutated, &verdict));
                    record(&mut report, case, CaseKind::WireMutation, verdict, input);
                }
            }
            _ => {
                let text_len = rng.gen_index(256);
                let bytes = random_bytes(&mut rng, text_len);
                let text = String::from_utf8_lossy(&bytes).into_owned();
                let verdict = check_source("fuzz-rand", &text);
                if verdict.is_failure() {
                    record(&mut report, case, CaseKind::RandomBytes, verdict, text);
                }
                let wire_len = rng.gen_index(128);
                let wire = random_bytes(&mut rng, wire_len);
                let verdict = check_wire(&wire);
                if verdict.is_failure() {
                    record(
                        &mut report,
                        case,
                        CaseKind::RandomBytes,
                        verdict,
                        hex(&wire),
                    );
                }
            }
        }
        report.cases += 1;
        if let Some(start) = case_start {
            let ns = tracer.now().saturating_duration_since(start).as_nanos();
            tracer.observe_ns("fuzz.case.ns", u64::try_from(ns).unwrap_or(u64::MAX));
        }
    }
    if tracer.is_enabled() {
        tracer.count("fuzz.cases", report.cases as u64);
        tracer.count("fuzz.verdict.panic", report.panics as u64);
        tracer.count("fuzz.verdict.mismatch", report.mismatches as u64);
        tracer.count("fuzz.diff.checked", report.diff_checked as u64);
        tracer.count("fuzz.diff.skipped", report.diff_skipped as u64);
        tracer.count("fuzz.findings", report.findings.len() as u64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_is_clean() {
        let report = run(&FuzzConfig { seed: 0, cases: 60 });
        assert!(report.clean(), "{}", report.summary());
        assert_eq!(report.cases, 60);
        // The grammar diet must actually exercise the differential oracle.
        assert!(report.diff_checked > 0, "{}", report.summary());
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let cfg = FuzzConfig {
            seed: 1234,
            cases: 40,
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.panics, b.panics);
        assert_eq!(a.mismatches, b.mismatches);
        assert_eq!(a.diff_checked, b.diff_checked);
        assert_eq!(a.diff_skipped, b.diff_skipped);
        assert_eq!(a.findings.len(), b.findings.len());
    }

    #[test]
    fn traced_run_records_latency_histogram_and_verdict_counters() {
        let tracer = Tracer::enabled();
        let cfg = FuzzConfig { seed: 0, cases: 12 };
        let report = run_traced(&cfg, &tracer);
        let metrics = tracer.metrics();
        assert_eq!(metrics.counter("fuzz.cases"), Some(12));
        assert_eq!(
            metrics.counter("fuzz.verdict.panic"),
            Some(report.panics as u64)
        );
        assert_eq!(
            metrics.counter("fuzz.findings"),
            Some(report.findings.len() as u64)
        );
        let hist = metrics.histograms.get("fuzz.case.ns").unwrap();
        assert_eq!(hist.count, 12);
        // Verdicts must be unaffected by tracing.
        let untraced = run(&cfg);
        assert_eq!(untraced.panics, report.panics);
        assert_eq!(untraced.mismatches, report.mismatches);
    }

    #[test]
    fn different_seeds_generate_different_cases() {
        let mut r1 = Rng::new(1);
        let mut r2 = Rng::new(2);
        let p1 = gen_program(&mut r1);
        let p2 = gen_program(&mut r2);
        assert_ne!(p1.source, p2.source);
    }
}
