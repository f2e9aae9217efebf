//! Diagnostic diffing for `nfactor lint --watch`.
//!
//! Watch mode re-lints dirty documents through the [`Engine`] and
//! reprints only what *changed*: a [`WatchState`] remembers the
//! rendered one-line diagnostics per document and [`WatchState::diff`]
//! returns the lines that appeared and disappeared since the previous
//! report. Lines are compared as multisets, so two identical messages
//! on different iterations don't ping-pong.
//!
//! [`Engine`]: crate::Engine

use nfl_lint::LintReport;
use std::collections::BTreeMap;

/// One-line renderings of a lint result, e.g.
/// `warning[NFL001] fw.nfl:12: value assigned to `x` is never read`.
/// A failed lint renders as a single `error <doc>: <message>` line.
pub fn render_lines(doc: &str, report: &Result<LintReport, String>) -> Vec<String> {
    match report {
        Err(e) => vec![format!("error {doc}: {e}")],
        Ok(r) => r
            .diagnostics
            .iter()
            .map(|d| {
                let mut line = format!(
                    "{}[{}] {}:{}: {}",
                    d.severity,
                    d.code.as_str(),
                    doc,
                    d.span.line,
                    d.message
                );
                if let Some(v) = &d.var {
                    line.push_str(&format!(" ({v})"));
                }
                line
            })
            .collect(),
    }
}

/// What changed for one document between two lint runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WatchDelta {
    /// Diagnostics present now but not before.
    pub added: Vec<String>,
    /// Diagnostics present before but gone now.
    pub removed: Vec<String>,
    /// Total diagnostics now.
    pub total: usize,
}

impl WatchDelta {
    /// Did anything change?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Remembered diagnostics per document across watch iterations.
#[derive(Debug, Default)]
pub struct WatchState {
    last: BTreeMap<String, Vec<String>>,
}

impl WatchState {
    /// Empty state: the first `diff` per document reports every
    /// diagnostic as added.
    pub fn new() -> WatchState {
        WatchState::default()
    }

    /// Record `report` for `doc` and return the delta against the
    /// previous record.
    pub fn diff(&mut self, doc: &str, report: &Result<LintReport, String>) -> WatchDelta {
        let lines = render_lines(doc, report);
        let old = self.last.insert(doc.to_string(), lines.clone());
        let old = old.unwrap_or_default();
        WatchDelta {
            added: multiset_sub(&lines, &old),
            removed: multiset_sub(&old, &lines),
            total: lines.len(),
        }
    }

    /// Forget a document (e.g. its file disappeared).
    pub fn forget(&mut self, doc: &str) -> Vec<String> {
        self.last.remove(doc).unwrap_or_default()
    }
}

/// Lines of `a` not matched one-for-one by lines of `b`, preserving
/// `a`'s order.
fn multiset_sub(a: &[String], b: &[String]) -> Vec<String> {
    let mut budget: BTreeMap<&str, usize> = BTreeMap::new();
    for line in b {
        *budget.entry(line.as_str()).or_insert(0) += 1;
    }
    a.iter()
        .filter(|line| match budget.get_mut(line.as_str()) {
            Some(n) if *n > 0 => {
                *n -= 1;
                false
            }
            _ => true,
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = r#"
        state m = map();
        fn cb(pkt: packet) {
            let src = pkt.ip.src;
            if src not in m { m[src] = 0; }
            m[src] = m[src] + 1;
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#;

    const DEAD_STORE: &str = r#"
        state m = map();
        fn cb(pkt: packet) {
            let src = pkt.ip.src;
            let unused = 7;
            if src not in m { m[src] = 0; }
            m[src] = m[src] + 1;
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#;

    #[test]
    fn first_diff_reports_everything_added() {
        let mut state = WatchState::new();
        let report = nfl_lint::lint_source("nf", DEAD_STORE).map_err(|e| e.to_string());
        let delta = state.diff("nf", &report);
        assert!(!delta.added.is_empty());
        assert!(delta.removed.is_empty());
        assert_eq!(delta.total, delta.added.len());
        assert!(delta.added.iter().any(|l| l.contains("NFL001")));
    }

    #[test]
    fn unchanged_rerun_is_empty_delta() {
        let mut state = WatchState::new();
        let report = nfl_lint::lint_source("nf", DEAD_STORE).map_err(|e| e.to_string());
        state.diff("nf", &report);
        let delta = state.diff("nf", &report);
        assert!(delta.is_empty());
        assert_eq!(delta.total, state.forget("nf").len());
    }

    #[test]
    fn fixing_the_source_reports_removals() {
        let mut state = WatchState::new();
        let broken = nfl_lint::lint_source("nf", DEAD_STORE).map_err(|e| e.to_string());
        let fixed = nfl_lint::lint_source("nf", CLEAN).map_err(|e| e.to_string());
        state.diff("nf", &broken);
        let delta = state.diff("nf", &fixed);
        assert!(delta.added.is_empty());
        assert!(delta.removed.iter().any(|l| l.contains("NFL001")));
    }

    #[test]
    fn parse_error_renders_single_line() {
        let lines = render_lines("bad", &Err("oops".to_string()));
        assert_eq!(lines, vec!["error bad: oops".to_string()]);
    }
}
