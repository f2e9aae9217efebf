//! Property tests for `nfactor lint`: determinism, span-ordering, and
//! the JSON report's content over a randomized family of small NFs.
//!
//! The generator assembles NF programs from orthogonal choices (key
//! expression, membership guard, counter updates, unused knobs) so the
//! lint sees per-flow and shared keyings, guarded and unguarded reads,
//! and used and unused configs — then checks the *framework* invariants
//! that must hold for every program, whatever the findings are.

use nf_support::check::{check, tuple3, uint_range, Config};
use nf_support::json::{ToJson, Value};
use nfactor::lint::{lint_source, Code, Diagnostic, Severity, ShardingReport};

/// Key expressions the generator can key the state map with, from
/// flow-pure to definitely-shared.
const KEYS: &[&str] = &[
    "pkt.ip.src",
    "(pkt.ip.src, pkt.tcp.sport)",
    "hash(pkt.ip.dst) % 64",
    "pkt.ip.ttl",
    "knob",
    "cursor",
];

fn render_program(key: usize, guarded: bool, extras: u64) -> String {
    let key_expr = KEYS[key % KEYS.len()];
    let unused_cfg = if extras & 1 != 0 {
        "config SPARE = 9;\n"
    } else {
        ""
    };
    let counter = if extras & 2 != 0 {
        "    seen = seen + 1;\n"
    } else {
        ""
    };
    let cursor_bump = if extras & 4 != 0 {
        "    cursor = cursor + 1;\n"
    } else {
        ""
    };
    let body = if guarded {
        format!(
            "    if {key_expr} not in tbl {{ tbl[{key_expr}] = 0; }}\n    \
             if tbl[{key_expr}] > 2 {{ drop(pkt); }} else {{ tbl[{key_expr}] = tbl[{key_expr}] + 1; send(pkt); }}\n"
        )
    } else {
        format!(
            "    if tbl[{key_expr}] > 2 {{ drop(pkt); }} else {{ tbl[{key_expr}] = tbl[{key_expr}] + 1; send(pkt); }}\n"
        )
    };
    format!(
        "config knob = 7;\n{unused_cfg}state cursor = 0;\nstate seen = 0;\nstate tbl = map();\n\
         fn cb(pkt: packet) {{\n{counter}{cursor_bump}{body}}}\n\
         fn main() {{ sniff(cb); }}\n"
    )
}

fn cases() -> (Config, nf_support::check::Gen<(u64, u64, u64)>) {
    (
        Config::with_cases(64),
        tuple3(
            uint_range(0, KEYS.len() as u64 - 1),
            uint_range(0, 1),
            uint_range(0, 7),
        ),
    )
}

/// Linting the same program twice yields byte-identical reports.
#[test]
fn lint_is_deterministic() {
    let (cfg, gen) = cases();
    check(
        "lint_is_deterministic",
        &cfg,
        &gen,
        |&(key, guarded, extras)| {
            let src = render_program(key as usize, guarded == 1, extras);
            let a = lint_source("prop", &src).expect("lint");
            let b = lint_source("prop", &src).expect("lint");
            assert_eq!(a.diagnostics, b.diagnostics);
            assert_eq!(a.sharding, b.sharding);
            assert_eq!(a.render_text(), b.render_text());
            assert_eq!(a.to_json().render(), b.to_json().render());
        },
    );
}

/// Diagnostics come out span-sorted (then code/var/message), with no
/// duplicates, and each one carries its code's default severity.
#[test]
fn diagnostics_are_span_sorted_and_consistent() {
    let (cfg, gen) = cases();
    check(
        "diagnostics_are_span_sorted_and_consistent",
        &cfg,
        &gen,
        |&(key, guarded, extras)| {
            let src = render_program(key as usize, guarded == 1, extras);
            let report = lint_source("prop", &src).expect("lint");
            let keys: Vec<_> = report.diagnostics.iter().map(|d| d.sort_key()).collect();
            let mut sorted = keys.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(keys, sorted, "unsorted or duplicated diagnostics");
            for d in &report.diagnostics {
                assert_eq!(
                    d.severity,
                    d.code.severity(),
                    "severity drift on {}",
                    d.code
                );
            }
            assert_eq!(
                report.has_errors(),
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.severity == Severity::Error)
            );
        },
    );
}

/// Read every field of `d` back out of its parsed JSON document.
fn assert_diagnostic_written(d: &Diagnostic, doc: &Value) {
    let str_of = |k: &str| doc.get(k).and_then(Value::as_str);
    let int_of = |k: &str| doc.get(k).and_then(Value::as_int);
    assert_eq!(str_of("code"), Some(d.code.as_str()));
    assert_eq!(str_of("slug"), Some(d.code.slug()));
    assert_eq!(str_of("severity"), Some(d.severity.as_str()));
    assert_eq!(int_of("line"), Some(i64::from(d.span.line)));
    assert_eq!(int_of("start"), Some(d.span.start as i64));
    assert_eq!(int_of("end"), Some(d.span.end as i64));
    assert!(doc.get("var").is_some(), "var is written even when null");
    assert_eq!(str_of("var"), d.var.as_deref());
    assert_eq!(str_of("message"), Some(d.message.as_str()));
}

/// Read every verdict of `r` back out of its parsed JSON document.
fn assert_sharding_written(r: &ShardingReport, doc: &Value) {
    assert_eq!(
        doc.get("verdict").and_then(Value::as_str),
        Some(r.nf_verdict().as_str())
    );
    let states = doc.get("states").and_then(Value::as_array).expect("states");
    assert_eq!(states.len(), r.len());
    for (s, sj) in r.states().iter().zip(states) {
        let str_of = |k: &str| sj.get(k).and_then(Value::as_str);
        let int_of = |k: &str| sj.get(k).and_then(Value::as_int);
        assert_eq!(str_of("var"), Some(s.var()));
        assert_eq!(str_of("verdict"), Some(s.verdict().as_str()));
        assert_eq!(str_of("reason"), Some(s.reason()));
        assert_eq!(int_of("line"), Some(i64::from(s.span().line)));
        assert_eq!(int_of("start"), Some(s.span().start as i64));
        assert_eq!(int_of("end"), Some(s.span().end as i64));
        assert_eq!(int_of("key_sites"), Some(s.key_sites() as i64));
        let fields = sj
            .get("dispatch_fields")
            .and_then(Value::as_array)
            .map(|fs| fs.iter().filter_map(Value::as_str).collect::<Vec<_>>());
        let expected = s
            .dispatch()
            .map(|d| d.fields().iter().map(|f| f.path()).collect::<Vec<_>>());
        assert_eq!(fields, expected);
        assert_eq!(
            sj.get("dispatch_symmetric").and_then(Value::as_bool),
            s.dispatch().map(|d| d.symmetric())
        );
    }
}

/// The machine report carries every diagnostic and verdict, read back
/// from the rendered text with `nf_support::json` (the analysed source
/// is deliberately not serialised).
#[test]
fn report_json_roundtrips() {
    let (cfg, gen) = cases();
    check(
        "report_json_roundtrips",
        &cfg,
        &gen,
        |&(key, guarded, extras)| {
            let src = render_program(key as usize, guarded == 1, extras);
            let report = lint_source("prop", &src).expect("lint");
            let doc = Value::parse(&report.to_json().render()).expect("parse");
            let diagnostics = doc
                .get("diagnostics")
                .and_then(Value::as_array)
                .expect("diagnostics");
            assert_eq!(diagnostics.len(), report.diagnostics.len());
            for (d, dj) in report.diagnostics.iter().zip(diagnostics) {
                assert_diagnostic_written(d, dj);
            }
            assert_sharding_written(&report.sharding, doc.get("sharding").expect("sharding"));
            assert_eq!(
                doc.get("name").and_then(Value::as_str),
                Some(report.name.as_str())
            );
        },
    );
}

/// The sharding verdict tracks the generator's key choice: flow-derived
/// keys shard per-flow, non-flow keys force a global shard. (The map
/// must be read — the unguarded variant — or guarded; both gate output,
/// so `tbl` is never a log sink here.)
#[test]
fn verdict_tracks_key_origin() {
    let (cfg, gen) = cases();
    check(
        "verdict_tracks_key_origin",
        &cfg,
        &gen,
        |&(key, guarded, extras)| {
            use nfactor::lint::StateShard;
            let src = render_program(key as usize, guarded == 1, extras);
            let report = lint_source("prop", &src).expect("lint");
            let tbl = report.sharding.get("tbl").expect("tbl verdict");
            let flow_pure = (key as usize % KEYS.len()) < 3;
            if flow_pure {
                assert_eq!(tbl.verdict(), StateShard::PerFlow, "{tbl:?}");
            } else {
                assert_eq!(tbl.verdict(), StateShard::Shared, "{tbl:?}");
                assert!(
                    report
                        .diagnostics
                        .iter()
                        .any(|d| d.code == Code::SharedState && d.var.as_deref() == Some("tbl")),
                    "NFL009 missing for shared tbl"
                );
            }
        },
    );
}

/// Random well-formed diagnostics are written whole and read back from
/// the rendered text — the serialisation is total over the diagnostic
/// space, not just over what today's passes happen to emit.
#[test]
fn arbitrary_diagnostics_roundtrip() {
    let cfg = Config::with_cases(128);
    let gen = tuple3(
        uint_range(0, Code::ALL.len() as u64 - 1),
        uint_range(0, 5000),
        uint_range(0, 200),
    );
    check(
        "arbitrary_diagnostics_roundtrip",
        &cfg,
        &gen,
        |&(c, start, width)| {
            let code = Code::ALL[c as usize];
            let d = Diagnostic::new(
                code,
                nfl_lang::Span::new(
                    start as usize,
                    (start + width) as usize,
                    (start / 40) as u32,
                ),
                if width % 2 == 0 {
                    Some(format!("v{start}"))
                } else {
                    None
                },
                format!("synthetic {code} at {start}"),
            );
            let parsed = Value::parse(&d.to_json().render()).expect("parse");
            assert_diagnostic_written(&d, &parsed);
        },
    );
}
