//! The two fuzzing oracles.
//!
//! * **Crash oracle** — the library pipeline must never panic on any
//!   input: `parse_all` / `lint_program` / `synthesize` on arbitrary
//!   text, `Packet::from_wire` on arbitrary bytes. Errors are fine;
//!   unwinding is a bug.
//! * **Differential oracle** — for grammar-generated (well-formed) NFs
//!   whose exploration completed, the synthesized model and the concrete
//!   interpreter must agree packet-for-packet on a seeded stream. Cases
//!   the model legitimately cannot mirror (truncated exploration,
//!   interpreter runtime errors) are reported as skipped, not failed.
//!   Once they agree, the model's compiled lowering must match the
//!   model on the same stream in output, fired entry and post-state,
//!   wherever the model succeeds.

use nf_compile::CompiledProgram;
use nf_model::ModelState;
use nf_support::budget::Budget;
use nfactor_core::accuracy::{differential_test, initial_model_state};
use nfactor_core::{Pipeline, Synthesis};
use nfl_interp::Interp;
use nfl_symex::PathLimits;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Pipeline stage a verdict refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `nfl_lang::parse_all`.
    Parse,
    /// `nfl_lint::lint_program`.
    Lint,
    /// `nfactor_core::Pipeline::synthesize`.
    Synthesize,
    /// `nf_packet::Packet::from_wire`.
    WireDecode,
    /// Interpreter-vs-model and compiled-vs-model agreement.
    Differential,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::Parse => "parse",
            Stage::Lint => "lint",
            Stage::Synthesize => "synthesize",
            Stage::WireDecode => "wire-decode",
            Stage::Differential => "differential",
        };
        write!(f, "{s}")
    }
}

/// Outcome of running the oracles on one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No panic, and (where applicable) model and program agreed.
    Pass,
    /// The input was not differential-comparable; the reason says why.
    Skipped(String),
    /// A stage unwound — the bug class this harness exists to find.
    Panic {
        /// Stage that panicked.
        stage: Stage,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Model and interpreter, or compiled program and model,
    /// disagreed on a packet.
    Mismatch {
        /// Human-readable description of the first disagreement.
        detail: String,
    },
}

impl Verdict {
    /// Is this verdict a failure (panic or mismatch)?
    pub fn is_failure(&self) -> bool {
        matches!(self, Verdict::Panic { .. } | Verdict::Mismatch { .. })
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn guarded<T>(stage: Stage, f: impl FnOnce() -> T) -> Result<T, Verdict> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| Verdict::Panic {
        stage,
        message: panic_message(p),
    })
}

/// Path limits used for every oracle synthesis.
fn fuzz_limits() -> PathLimits {
    PathLimits {
        max_paths: 128,
        max_steps: 20_000,
        ..PathLimits::default()
    }
}

/// Pipeline used for every oracle synthesis: deterministic caps only.
/// A wall-clock deadline would make verdicts depend on machine speed and
/// break the same-seed-same-report guarantee, so the budget here is
/// paths/steps/solver-calls exclusively.
pub fn fuzz_pipeline(name: &str) -> Result<Pipeline, nfactor_core::Error> {
    Pipeline::builder()
        .name(name)
        .limits(fuzz_limits())
        .budget(Budget::unlimited().with_max_solver_calls(10_000))
        .build()
}

/// Crash oracle over NFL source text: parse, and when that succeeds,
/// lint and synthesize. Returns [`Verdict::Pass`] for clean errors.
pub fn check_source(name: &str, src: &str) -> Verdict {
    let parsed = match guarded(Stage::Parse, || nfl_lang::parse_all(src)) {
        Ok(r) => r,
        Err(v) => return v,
    };
    let Ok(program) = parsed else {
        return Verdict::Pass; // clean parse errors are the desired outcome
    };
    if let Err(v) = guarded(Stage::Lint, || nfl_lint::lint_program(name, &program)) {
        return v;
    }
    match guarded(Stage::Synthesize, || {
        fuzz_pipeline(name).and_then(|p| p.synthesize(src))
    }) {
        Ok(_) => Verdict::Pass,
        Err(v) => v,
    }
}

/// Crash oracle over wire bytes: decoding must reject junk with an error,
/// never a panic. A successful decode is additionally re-encoded, since
/// `to_wire` on a decoded packet is an input-facing path too.
pub fn check_wire(bytes: &[u8]) -> Verdict {
    match guarded(Stage::WireDecode, || {
        if let Ok(pkt) = nf_packet::Packet::from_wire(bytes) {
            let _ = pkt.to_wire();
        }
    }) {
        Ok(()) => Verdict::Pass,
        Err(v) => v,
    }
}

/// Differential oracle: synthesize `src`, then drive the concrete
/// interpreter and the model evaluator with the same `trials`-packet
/// seeded stream and demand identical outputs. When they agree, check
/// the model's compiled lowering against the model on that stream
/// ([`nf_verify::modeldiff::program_vs_model`]); a model that does not
/// compile is skipped.
pub fn check_differential(name: &str, src: &str, seed: u64, trials: usize) -> Verdict {
    let syn = match guarded(Stage::Synthesize, || {
        fuzz_pipeline(name).and_then(|p| p.synthesize(src))
    }) {
        Ok(Ok(syn)) => syn,
        Ok(Err(e)) => return Verdict::Skipped(format!("synthesis error: {e}")),
        Err(v) => return v,
    };
    if let Some(reason) = syn.model.completeness.reason() {
        return Verdict::Skipped(format!("model truncated: {reason}"));
    }
    if !syn.exploration.exhausted {
        return Verdict::Skipped("exploration not exhausted".to_string());
    }
    match guarded(Stage::Differential, || {
        differential_test(&syn, seed, trials)
    }) {
        Err(v) => v,
        // Interpreter runtime errors (e.g. arithmetic overflow) make the
        // streams incomparable from that packet on — skip, don't fail.
        Ok(Err(e)) => Verdict::Skipped(format!("incomparable: {e}")),
        Ok(Ok(report)) if report.perfect() => check_compiled(&syn, seed, trials),
        Ok(Ok(report)) => {
            let (trial, prog, model) = &report.mismatches[0];
            Verdict::Mismatch {
                detail: format!(
                    "trial {trial}: program {:?} vs model {:?} ({} of {} agreed)",
                    prog.as_ref().map(|p| p.to_string()),
                    model.as_ref().map(|p| p.to_string()),
                    report.agreements,
                    report.trials
                ),
            }
        }
    }
}

/// The compiled half of [`check_differential`]: compile the model at
/// the interpreter's initial state and run it against the model on the
/// same stream. One-sided, like the contract: trials where the model
/// errs are skipped. It compiles here rather than through
/// `compiled_vs_model`, which reports both as one error string, so
/// that a compile error (skipped) stays apart from a compiled-step
/// error (a mismatch).
fn check_compiled(syn: &Synthesis, seed: u64, trials: usize) -> Verdict {
    let state = match Interp::new(&syn.nf_loop) {
        Ok(interp) => initial_model_state(syn, &interp),
        Err(e) => return Verdict::Skipped(format!("interpreter error: {e}")),
    };
    match nf_compile::compile(&syn.model, &state) {
        Ok(prog) => compiled_verdict(&prog, &state, seed, trials),
        Err(e) => Verdict::Skipped(format!("compile error: {e}")),
    }
}

/// Run `prog` against the model it was lowered from, both from `state`;
/// any divergence, or a compiled-step error where the model succeeded,
/// is a mismatch.
fn compiled_verdict(
    prog: &CompiledProgram,
    state: &ModelState,
    seed: u64,
    trials: usize,
) -> Verdict {
    let run = guarded(Stage::Differential, || {
        nf_verify::modeldiff::program_vs_model(prog, state, seed, trials)
    });
    match run {
        Err(v) => v,
        // The compiled step failed where the model succeeded.
        Ok(Err(e)) => Verdict::Mismatch {
            detail: format!("compiled vs model: {e}"),
        },
        Ok(Ok(report)) if report.equivalent() => Verdict::Pass,
        Ok(Ok(report)) => {
            let d = &report.divergences[0];
            Verdict::Mismatch {
                detail: format!(
                    "compiled vs model, trial {} ({}): model {:?} vs compiled {:?} ({} of {} agreed)",
                    d.trial,
                    d.aspect,
                    d.a_output.as_ref().map(|p| p.to_string()),
                    d.b_output.as_ref().map(|p| p.to_string()),
                    report.agreements,
                    report.trials
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_passes_all_oracles() {
        let src = r#"
            state hits = 0;
            fn cb(pkt: packet) {
                if pkt.ip.ttl > 1 { hits = hits + 1; send(pkt); }
            }
            fn main() { sniff(cb); }
        "#;
        assert_eq!(check_source("t", src), Verdict::Pass);
        assert_eq!(check_differential("t", src, 3, 50), Verdict::Pass);
    }

    #[test]
    fn corpus_nfs_pass_both_differential_halves() {
        // fig1-lb exercises tuples, array indexing and NAT maps in the
        // compiled half; the firewall its fresh-flow pinholes.
        for (name, src) in [
            ("fig1-lb", nf_corpus::fig1_lb::source()),
            ("firewall", nf_corpus::firewall::source()),
        ] {
            assert_eq!(
                check_differential(name, &src, 7, 200),
                Verdict::Pass,
                "{name}"
            );
        }
    }

    #[test]
    fn compiled_divergence_is_a_mismatch() {
        let src = nf_corpus::fig1_lb::source();
        let syn = fuzz_pipeline("lb").unwrap().synthesize(&src).unwrap();
        let state = initial_model_state(&syn, &Interp::new(&syn.nf_loop).unwrap());
        let mut prog = nf_compile::compile(&syn.model, &state).unwrap();
        assert_eq!(compiled_verdict(&prog, &state, 7, 200), Verdict::Pass);
        // Every forwarding entry now writes ip.src := 0.
        for e in &mut prog.entries {
            if let nf_compile::CFlowAction::Forward { rewrites } = &mut e.flow_action {
                rewrites.push((
                    nf_packet::Field::IpSrc,
                    nf_compile::CExpr::Const(nfl_interp::Value::Int(0)),
                ));
            }
        }
        match compiled_verdict(&prog, &state, 7, 200) {
            Verdict::Mismatch { detail } => {
                assert!(detail.starts_with("compiled vs model, trial"), "{detail}");
                assert!(detail.contains("(output)"), "{detail}");
            }
            v => panic!("expected a mismatch, got {v:?}"),
        }
    }

    #[test]
    fn malformed_source_is_a_clean_pass() {
        // Garbage must produce parse errors, not panics.
        assert_eq!(check_source("t", "fn {{{{"), Verdict::Pass);
        assert_eq!(check_source("t", ""), Verdict::Pass);
        assert_eq!(check_source("t", "\u{0}\u{1}\u{2}"), Verdict::Pass);
    }

    #[test]
    fn junk_wire_bytes_pass_the_crash_oracle() {
        assert_eq!(check_wire(&[]), Verdict::Pass);
        assert_eq!(check_wire(&[0xff; 13]), Verdict::Pass);
        assert_eq!(check_wire(&[0x45; 64]), Verdict::Pass);
    }

    #[test]
    fn truncated_synthesis_skips_differential() {
        let src = r#"
            config NAT_PORT = 80;
            state nat = map();
            state next_port = 10000;
            fn cb(pkt: packet) {
                if pkt.tcp.dport == NAT_PORT {
                    let k = (pkt.ip.src, pkt.tcp.sport);
                    if k not in nat {
                        nat[k] = next_port;
                        next_port = next_port + 1;
                    }
                    pkt.tcp.sport = nat[k];
                    send(pkt);
                }
            }
            fn main() { sniff(cb); }
        "#;
        let syn = Pipeline::builder()
            .name("t")
            .limits(fuzz_limits())
            .budget(Budget::unlimited().with_max_solver_calls(1))
            .build()
            .unwrap()
            .synthesize(src)
            .unwrap();
        assert!(syn.model.completeness.is_truncated());
        // check_differential uses its own options, so exercise the skip
        // path through the public surface with a solver-capped variant:
        // the helper above proves the truncated path exists; the oracle
        // must classify it as Skipped rather than Mismatch.
        let v = check_differential("t", src, 1, 10);
        assert!(matches!(v, Verdict::Pass | Verdict::Skipped(_)), "{v:?}");
    }
}
