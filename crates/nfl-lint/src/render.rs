//! Rendering lint reports: rustc-style text and machine JSON.
//!
//! The text renderer resolves each diagnostic's byte span against a
//! [`LineIndex`] of the *analysed* source (which, for socket-shaped NFs,
//! is the unfolded program `nf-tcp` synthesised — its spans point into
//! that text, not the original). Synthetic spans (line 0) degrade
//! gracefully to a location-less header. Output is deterministic: the
//! pass manager sorts diagnostics, and the sharding table follows
//! declaration order.

use crate::diag::{Diagnostic, Severity};
use crate::sharding::ShardingReport;
use crate::LintReport;
use nfl_lang::LineIndex;
use std::fmt::Write as _;

/// Render one diagnostic in rustc style:
///
/// ```text
/// warning[NFL009]: state `b2f_nat` cannot be sharded per-flow: ...
///   --> fig1-lb:31:13
///    |
/// 31 |         b2f_nat[(server, LB_IP, n_port)] = (pkt.ip.src, pkt.tcp.sport);
///    |             ^^^^^^^^^^^^^^^^^^^^^^^^
/// ```
pub fn render_diagnostic(name: &str, src: &str, index: &LineIndex, d: &Diagnostic) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    if d.span.line == 0 || d.span.start >= src.len() {
        let _ = writeln!(out, "  --> {name}");
        return out;
    }
    let r = d.span.resolve(index);
    let _ = writeln!(out, "  --> {}:{}:{}", name, r.line, r.col);
    let text = index.line_text(src, r.line).unwrap_or("");
    let gutter = r.line.to_string();
    let pad = " ".repeat(gutter.len());
    let _ = writeln!(out, "{pad} |");
    let _ = writeln!(out, "{gutter} | {text}");
    let carets = format!(
        "{}{}",
        " ".repeat(r.col.saturating_sub(1) as usize),
        "^".repeat(r.width)
    );
    let _ = writeln!(out, "{pad} | {carets}");
    out
}

/// Render the per-state sharding table and NF verdict.
pub fn render_sharding(name: &str, report: &ShardingReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sharding verdict for {name}: {}",
        report.nf_verdict().as_str()
    );
    if report.is_empty() {
        let _ = writeln!(out, "  (no state declarations)");
        return out;
    }
    let width = report
        .states()
        .iter()
        .map(|s| s.var().len())
        .max()
        .unwrap_or(0);
    for s in report.states() {
        match s.dispatch() {
            Some(d) => {
                let _ = writeln!(
                    out,
                    "  {:<width$}  {:<9}  {} [dispatch: {}]",
                    s.var(),
                    s.verdict().as_str(),
                    s.reason(),
                    d.render(),
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {:<width$}  {:<9}  {}",
                    s.var(),
                    s.verdict().as_str(),
                    s.reason(),
                );
            }
        }
    }
    out
}

/// Render the whole report as human-readable text.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    let index = LineIndex::new(&report.source);
    for d in &report.diagnostics {
        out.push_str(&render_diagnostic(&report.name, &report.source, &index, d));
        out.push('\n');
    }
    out.push_str(&render_sharding(&report.name, &report.sharding));
    let (mut errors, mut warnings, mut notes) = (0usize, 0usize, 0usize);
    for d in &report.diagnostics {
        match d.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
            Severity::Note => notes += 1,
        }
    }
    let _ = writeln!(
        out,
        "\n{}: {} error(s), {} warning(s), {} note(s)",
        report.name, errors, warnings, notes
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Code, Diagnostic};
    use nfl_lang::Span;

    #[test]
    fn renders_snippet_with_carets() {
        let src = "state m = map();\nfn f() { let x = 1; }\n";
        let index = LineIndex::new(src);
        // Span of `m` on line 1 (offset 6, width 1).
        let d = Diagnostic::new(
            Code::SharedState,
            Span::new(6, 7, 1),
            Some("m".into()),
            "state `m` cannot be sharded per-flow",
        );
        let text = render_diagnostic("demo", src, &index, &d);
        assert!(text.contains("warning[NFL009]"), "{text}");
        assert!(text.contains("--> demo:1:7"), "{text}");
        assert!(text.contains("state m = map();"), "{text}");
        assert!(
            text.lines().last().unwrap().trim_end().ends_with('^'),
            "{text}"
        );
    }

    #[test]
    fn synthetic_span_degrades() {
        let src = "fn f() {}\n";
        let index = LineIndex::new(src);
        let d = Diagnostic::new(Code::UnreachableCode, Span::default(), None, "dead");
        let text = render_diagnostic("demo", src, &index, &d);
        assert!(text.contains("--> demo\n"), "{text}");
        assert!(!text.contains('^'), "{text}");
    }

    #[test]
    fn full_report_renders() {
        let src = r#"
            state next = 0;
            state m = map();
            fn cb(pkt: packet) {
                if next in m { drop(pkt); } else { m[next] = 1; send(pkt); }
                next = next + 1;
            }
            fn main() { sniff(cb); }
        "#;
        let report = crate::lint_source("demo", src).unwrap();
        let text = render_text(&report);
        assert!(text.contains("sharding verdict for demo: shared"), "{text}");
        assert!(text.contains("NFL009"), "{text}");
        assert!(text.contains("error(s)"), "{text}");
    }
}
