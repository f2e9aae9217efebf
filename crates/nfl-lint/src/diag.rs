//! The shared diagnostic type: stable codes, severities, spans.
//!
//! Every lint pass reports through [`Diagnostic`]; the codes are part of
//! the tool's public contract (scripts grep for them, goldens pin them),
//! so existing codes must never be renumbered — new lints append.

use nf_support::json::{ToJson, Value};
use nfl_lang::Span;
use std::fmt;

/// How serious a diagnostic is. `nfactor lint` exits non-zero iff at
/// least one [`Severity::Error`] diagnostic fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational.
    Note,
    /// Suspicious but not necessarily wrong.
    Warning,
    /// An analysis-certain bug.
    Error,
}

impl Severity {
    /// The lowercase rendering used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes. The numeric part never changes; the slug is
/// the human-readable alias shown in brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `NFL001` — a `let` binding whose value is never read.
    DeadLocal,
    /// `NFL002` — a `state` declaration never touched by the packet loop.
    DeadState,
    /// `NFL003` — a `state` variable only ever written.
    WriteOnlyState,
    /// `NFL004` — code unreachable from the function entry.
    UnreachableCode,
    /// `NFL005` — a `config`/`const` never read by the packet loop.
    UnusedConfig,
    /// `NFL006` — a local variable used with no initializing definition.
    UseBeforeInit,
    /// `NFL007` — a state-map read not guarded by any dominating
    /// membership test or insertion.
    UnguardedMapRead,
    /// `NFL008` — StateAlyzer inconsistency: a `logVar` feeds a flow
    /// action.
    ClassMismatch,
    /// `NFL009` — state that cannot be sharded per-flow (needs a global
    /// shard).
    SharedState,
}

impl Code {
    /// Every code, in numeric order.
    pub const ALL: [Code; 9] = [
        Code::DeadLocal,
        Code::DeadState,
        Code::WriteOnlyState,
        Code::UnreachableCode,
        Code::UnusedConfig,
        Code::UseBeforeInit,
        Code::UnguardedMapRead,
        Code::ClassMismatch,
        Code::SharedState,
    ];

    /// The stable `NFL0xx` code.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::DeadLocal => "NFL001",
            Code::DeadState => "NFL002",
            Code::WriteOnlyState => "NFL003",
            Code::UnreachableCode => "NFL004",
            Code::UnusedConfig => "NFL005",
            Code::UseBeforeInit => "NFL006",
            Code::UnguardedMapRead => "NFL007",
            Code::ClassMismatch => "NFL008",
            Code::SharedState => "NFL009",
        }
    }

    /// The human-readable slug.
    pub fn slug(self) -> &'static str {
        match self {
            Code::DeadLocal => "dead-local",
            Code::DeadState => "dead-state",
            Code::WriteOnlyState => "write-only-state",
            Code::UnreachableCode => "unreachable-code",
            Code::UnusedConfig => "unused-config",
            Code::UseBeforeInit => "use-before-init",
            Code::UnguardedMapRead => "unguarded-map-read",
            Code::ClassMismatch => "class-mismatch",
            Code::SharedState => "shared-state",
        }
    }

    /// The severity the framework assigns this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::UseBeforeInit | Code::ClassMismatch => Severity::Error,
            Code::UnusedConfig => Severity::Note,
            _ => Severity::Warning,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, span-anchored in the analysed source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (normally [`Code::severity`]).
    pub severity: Severity,
    /// Where in the source, best effort (synthesized statements carry the
    /// default span).
    pub span: Span,
    /// The variable the finding is about, if any.
    pub var: Option<String>,
    /// Human-readable message.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic with the code's default severity.
    pub fn new(code: Code, span: Span, var: Option<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            var,
            message: message.into(),
        }
    }

    /// The total order diagnostics are reported in: source position first,
    /// then code, then variable — deterministic across runs by
    /// construction.
    pub fn sort_key(&self) -> (usize, usize, &'static str, &Option<String>, &String) {
        (
            self.span.start,
            self.span.end,
            self.code.as_str(),
            &self.var,
            &self.message,
        )
    }
}

impl ToJson for Diagnostic {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("code".into(), Value::Str(self.code.as_str().into())),
            ("slug".into(), Value::Str(self.code.slug().into())),
            ("severity".into(), Value::Str(self.severity.as_str().into())),
            ("line".into(), Value::Int(i64::from(self.span.line))),
            ("start".into(), Value::Int(self.span.start as i64)),
            ("end".into(), Value::Int(self.span.end as i64)),
            (
                "var".into(),
                match &self.var {
                    Some(v) => Value::Str(v.clone()),
                    None => Value::Null,
                },
            ),
            ("message".into(), Value::Str(self.message.clone())),
        ])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut codes = std::collections::BTreeSet::new();
        let mut slugs = std::collections::BTreeSet::new();
        for (i, c) in Code::ALL.into_iter().enumerate() {
            assert_eq!(c.as_str(), format!("NFL{:03}", i + 1));
            assert!(codes.insert(c.as_str()), "duplicate code {}", c.as_str());
            assert!(slugs.insert(c.slug()), "duplicate slug {}", c.slug());
        }
    }

    #[test]
    fn severities_are_ordered() {
        let all = [Severity::Note, Severity::Warning, Severity::Error];
        assert_eq!(all.map(Severity::as_str), ["note", "warning", "error"]);
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    /// Read every field of `d` back out of its parsed JSON document.
    /// Shared with the report tests in `lib.rs`.
    pub(crate) fn assert_written(d: &Diagnostic, doc: &Value) {
        let str_of = |k: &str| doc.get(k).and_then(Value::as_str);
        let int_of = |k: &str| doc.get(k).and_then(Value::as_int);
        assert_eq!(str_of("code"), Some(d.code.as_str()));
        assert_eq!(str_of("slug"), Some(d.code.slug()));
        assert_eq!(str_of("severity"), Some(d.severity.as_str()));
        assert_eq!(int_of("line"), Some(i64::from(d.span.line)));
        assert_eq!(int_of("start"), Some(d.span.start as i64));
        assert_eq!(int_of("end"), Some(d.span.end as i64));
        match &d.var {
            Some(v) => assert_eq!(str_of("var"), Some(v.as_str())),
            None => assert_eq!(doc.get("var"), Some(&Value::Null)),
        }
        assert_eq!(str_of("message"), Some(d.message.as_str()));
    }

    #[test]
    fn diagnostic_json_carries_every_field() {
        let d = Diagnostic::new(
            Code::SharedState,
            Span::new(10, 20, 3),
            Some("b2f_nat".into()),
            "state `b2f_nat` needs a global shard",
        );
        assert_written(&d, &Value::parse(&d.to_json().render()).unwrap());
        assert_eq!(
            d.to_json().render(),
            r#"{"code":"NFL009","slug":"shared-state","severity":"warning","line":3,"start":10,"end":20,"var":"b2f_nat","message":"state `b2f_nat` needs a global shard"}"#
        );
        // A var-less diagnostic too.
        let d2 = Diagnostic::new(Code::UnreachableCode, Span::default(), None, "dead");
        assert_written(&d2, &Value::parse(&d2.to_json().render()).unwrap());
    }
}
