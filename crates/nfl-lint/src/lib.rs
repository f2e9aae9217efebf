//! nfl-lint — a diagnostics framework over the NFL analyses.
//!
//! The synthesis pipeline (`nfl-slicer`, `nfl-symex`) consumes the
//! CFG/def-use/dominator/PDG machinery of `nfl-analysis` to *extract*
//! models; this crate points the same machinery back at the NF source to
//! *judge* it. A [`PassManager`] runs registered [`LintPass`]es over
//! one shared [`AnalysisCtx`] (built once: normalisation, types,
//! PDG, dominators, packet slice, StateAlyzer classes), and every pass
//! reports through a common [`Diagnostic`] carrying a stable `NFL0xx`
//! [`Code`], a [`Severity`], and a byte [`Span`](nfl_lang::Span).
//!
//! The headline pass is the **cross-flow state-sharing analysis**
//! ([`sharding`]): for every `state` map it traces each access's key
//! expression back through the def/use chains and decides whether the
//! key derives purely from the packet's flow tuple (`per-flow` — the map
//! partitions under RSS and the NF shards across cores) or mixes
//! non-flow data (`shared` — a global shard is unavoidable). That is the
//! question the paper's oisVar/logVar taxonomy stops short of answering,
//! and the one that decides whether a synthesised model can be deployed
//! scale-out.
//!
//! Renderers: rustc-style text snippets ([`render::render_text`]) and
//! machine JSON via `nf_support::json` ([`LintReport::to_json`]).
//!
//! ```
//! let report = nfl_lint::lint_source(
//!     "demo",
//!     r#"
//!     state buckets = map();
//!     fn cb(pkt: packet) {
//!         let src = pkt.ip.src;
//!         if src not in buckets { buckets[src] = 10; }
//!         if buckets[src] > 0 { buckets[src] = buckets[src] - 1; send(pkt); }
//!     }
//!     fn main() { sniff(cb); }
//!     "#,
//! )
//! .unwrap();
//! assert!(report.sharding.shardable());
//! assert!(!report.has_errors());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctx;
pub mod diag;
pub mod passes;
pub mod render;
pub mod sharding;

pub use ctx::{AnalysisCtx, LoopError};
pub use diag::{Code, Diagnostic, Severity};
pub use passes::{LintPass, LintSink, PassManager};
pub use sharding::{mirror_field, DispatchKey, ShardingReport, StateShard, StateVerdict};

use nf_support::json::{ToJson, Value};
use nfl_lang::Program;

/// The result of linting one NF.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// NF name (corpus id or file stem).
    pub name: String,
    /// Sorted diagnostics.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-state sharding verdicts.
    pub sharding: ShardingReport,
    /// The *analysed* source text the diagnostic spans index — for
    /// socket-shaped NFs this is the unfolded program, not the input.
    /// Carried for rendering; not serialised.
    pub source: String,
}

impl LintReport {
    /// Did any [`Severity::Error`] diagnostic fire? (`nfactor lint`'s
    /// exit status.)
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Run the default passes over `ctx` and assemble their report,
    /// timing each pass into `tracer` as [`PassManager::run_traced`]
    /// does.
    pub fn from_ctx(name: &str, ctx: &AnalysisCtx, tracer: &nf_trace::Tracer) -> LintReport {
        let sink = PassManager::with_default_passes().run_traced(ctx, tracer);
        LintReport {
            name: name.to_string(),
            diagnostics: sink.diagnostics,
            sharding: sink.sharding.unwrap_or_default(),
            source: ctx.program().source.clone(),
        }
    }

    /// Render the human-readable text form.
    pub fn render_text(&self) -> String {
        render::render_text(self)
    }
}

impl ToJson for LintReport {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            (
                "diagnostics".into(),
                Value::Array(self.diagnostics.iter().map(ToJson::to_json).collect()),
            ),
            ("sharding".into(), self.sharding.to_json()),
            ("has_errors".into(), Value::Bool(self.has_errors())),
        ])
    }
}

/// Lint an already-parsed program with the default passes.
pub fn lint_program(name: &str, program: &Program) -> Result<LintReport, String> {
    lint_program_traced(name, program, &nf_trace::Tracer::disabled())
}

/// [`lint_program`] with per-pass timing recorded into `tracer`
/// (`lint.ctx.build` for the shared analysis context, then one
/// `lint.pass.<name>` span per registered pass).
pub fn lint_program_traced(
    name: &str,
    program: &Program,
    tracer: &nf_trace::Tracer,
) -> Result<LintReport, String> {
    let span = tracer.span("lint.ctx.build");
    let ctx = AnalysisCtx::build(program)?;
    span.end();
    Ok(LintReport::from_ctx(name, &ctx, tracer))
}

/// Parse, check and lint NFL source with the default passes.
pub fn lint_source(name: &str, src: &str) -> Result<LintReport, String> {
    lint_source_traced(name, src, &nf_trace::Tracer::disabled())
}

/// [`lint_source`] with per-pass timing recorded into `tracer`.
pub fn lint_source_traced(
    name: &str,
    src: &str,
    tracer: &nf_trace::Tracer,
) -> Result<LintReport, String> {
    let program = nfl_lang::parse_and_check(src)?;
    lint_program_traced(name, &program, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_omits_source_but_carries_the_rest() {
        let report = lint_source(
            "demo",
            r#"
            config UNUSED = 1;
            state next = 0;
            state m = map();
            fn cb(pkt: packet) {
                m[next] = 1;
                next = next + 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
            "#,
        )
        .unwrap();
        let rendered = report.to_json().render();
        assert!(!rendered.contains("fn cb"), "source leaked into JSON");
        let doc = Value::parse(&rendered).unwrap();
        assert_eq!(
            doc.get("name").and_then(Value::as_str),
            Some(report.name.as_str())
        );
        let diagnostics = doc.get("diagnostics").and_then(Value::as_array).unwrap();
        assert_eq!(diagnostics.len(), report.diagnostics.len());
        for (d, dj) in report.diagnostics.iter().zip(diagnostics) {
            diag::tests::assert_written(d, dj);
        }
        sharding::tests::assert_written(&report.sharding, doc.get("sharding").unwrap());
        assert_eq!(
            doc.get("has_errors").and_then(Value::as_bool),
            Some(report.has_errors())
        );
    }

    #[test]
    fn unfolded_source_is_carried_for_rendering() {
        // balance-shaped NF: spans refer to the unfolded text, which the
        // report must carry so the renderer shows real snippets.
        let src = nf_corpus::balance::source(0);
        let report = lint_source("balance", &src).unwrap();
        assert!(report.source.contains("__tcp"), "expected unfolded source");
        // Rendering must not panic and must mention the verdict.
        assert!(report
            .render_text()
            .contains("sharding verdict for balance"));
    }
}
