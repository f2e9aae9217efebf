//! Invalidation soundness for the nf-query incremental engine: under
//! arbitrary edit sequences, a long-lived engine must answer exactly
//! like a from-scratch `lint_source` at every step — same JSON, same
//! error strings — and trivia-only edits must early-cut (re-parse,
//! re-derive nothing).

use nf_support::check::{check, tuple2, uint_range, vec_of, Config};
use nf_support::json::ToJson;
use nfactor::query::Engine;
use nfactor::trace::Tracer;

/// Canonical comparable form of a lint outcome.
fn render(r: &Result<nfactor::lint::LintReport, String>) -> String {
    match r {
        Ok(report) => report.to_json().render(),
        Err(e) => format!("ERR: {e}"),
    }
}

/// One deterministic edit. Ops cover the interesting invalidation
/// classes: trivia (cutoff), span shifts, new functions, parse
/// errors, no-op rewrites, and reverts to the original.
fn apply_edit(base: &str, current: &str, op: u64, step: usize) -> String {
    match op % 6 {
        0 => format!("{current}\n// trivia edit {step}\n"),
        1 => format!("// leading note {step} (shifts every span)\n{current}"),
        2 => format!("{current}\nfn helper_{step}() {{ let v{step} = {step}; }}\n"),
        3 => format!("{current}\nfn broken_{step}( {{\n"),
        4 => base.to_string(),
        _ => current.to_string(), // identical bytes: must not invalidate
    }
}

#[test]
fn random_edit_sequences_preserve_equivalence() {
    let subjects: Vec<(&str, String)> = vec![
        ("firewall", nfactor::corpus::firewall::source()),
        ("ratelimiter", nfactor::corpus::ratelimiter::source()),
    ];
    let gen = tuple2(uint_range(0, 1), vec_of(uint_range(0, 5), 1, 6));
    check(
        "incremental ≡ from-scratch under edit sequences",
        &Config::with_cases(24),
        &gen,
        |(subject, ops)| {
            let (name, base) = &subjects[*subject as usize];
            let mut engine = Engine::new();
            let mut current = base.clone();
            engine.set_source(name, &current);
            for (step, op) in ops.iter().enumerate() {
                current = apply_edit(base, &current, *op, step);
                engine.set_source(name, &current);
                let incremental = engine.lint_report(name);
                let fresh = nfactor::lint::lint_source(name, &current);
                assert_eq!(
                    render(incremental.as_ref()),
                    render(&fresh),
                    "step {step} (op {op}) diverged for {name}"
                );
            }
        },
    );
}

#[test]
fn comment_only_edit_reparses_but_derives_nothing() {
    let mut engine = Engine::with_tracer(Tracer::enabled());
    let base = nfactor::corpus::firewall::source();
    engine.set_source("firewall", &base);
    engine.lint_report("firewall");

    let counter = |e: &Engine, name: &str| e.tracer().metrics().counter(name).unwrap_or(0);
    let downstream = [
        "query.normalize.recompute",
        "query.ctx.recompute",
        "query.report.recompute",
    ];
    let parse_before = counter(&engine, "query.parse.recompute");
    let cutoff_before = counter(&engine, "query.parse.cutoff");
    let down_before: Vec<u64> = downstream.iter().map(|n| counter(&engine, n)).collect();

    engine.set_source("firewall", &format!("{base}\n// just a comment\n"));
    engine.lint_report("firewall");

    assert_eq!(
        counter(&engine, "query.parse.recompute"),
        parse_before + 1,
        "the comment edit must re-run exactly one parse"
    );
    assert_eq!(
        counter(&engine, "query.parse.cutoff"),
        cutoff_before + 1,
        "the re-parse must early-cut on an identical program fingerprint"
    );
    let down_after: Vec<u64> = downstream.iter().map(|n| counter(&engine, n)).collect();
    assert_eq!(
        down_after, down_before,
        "no downstream pass may recompute after a comment-only edit"
    );
}

/// An edit of comment text alone keeps every span, so the re-parse
/// cuts off on an identical program. The report must still carry the
/// new text: its snippets, and the language server's line index, read
/// it.
#[test]
fn comment_text_edit_reports_the_new_text() {
    let nf = |note: &str| {
        format!(
            "state hits = 0;\nfn cb(pkt: packet) {{\n    let unused = pkt.ip.ttl; // note {note}\n    hits = hits + 1;\n    send(pkt);\n}}\nfn main() {{ sniff(cb); }}\n"
        )
    };
    let mut engine = Engine::with_tracer(Tracer::enabled());
    engine.set_source("nf", &nf("AAAA"));
    let first = engine.lint_report("nf");
    assert!(render_text(first.as_ref()).contains("// note AAAA"));

    let counter = |e: &Engine, name: &str| e.tracer().metrics().counter(name).unwrap_or(0);
    let names = [
        "query.parse.recompute",
        "query.parse.cutoff",
        "query.normalize.recompute",
        "query.ctx.recompute",
        "query.report.recompute",
    ];
    let before: Vec<u64> = names.iter().map(|n| counter(&engine, n)).collect();
    let edited = nf("BBBB");
    engine.set_source("nf", &edited);
    let report = engine.lint_report("nf");
    let delta: Vec<u64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| counter(&engine, n) - b)
        .collect();
    assert_eq!(delta, [1, 1, 0, 0, 0], "{names:?}");

    let text = render_text(report.as_ref());
    assert!(text.contains("// note BBBB"), "{text}");
    let fresh = nfactor::lint::lint_source("nf", &edited).unwrap();
    assert_eq!(text, fresh.render_text());
    assert_eq!(report.as_ref().as_ref().unwrap().source, edited);
    // The carried text is kept: a second read serves it from the memo.
    assert_eq!(render_text(engine.lint_report("nf").as_ref()), text);
}

fn render_text(r: &Result<nfactor::lint::LintReport, String>) -> String {
    r.as_ref().expect("lints").render_text()
}

/// Socket unfolding re-parses generated text, so balance's normalised
/// loop carries no span of the document: an edit that only shifts spans
/// re-normalises, cuts off there, and re-runs no ctx or report.
#[test]
fn span_shift_in_unfolded_nf_cuts_off_at_normalize() {
    let mut engine = Engine::with_tracer(Tracer::enabled());
    let base = nfactor::corpus::balance::source(1);
    engine.set_source("balance", &base);
    engine.lint_report("balance");

    let counter = |e: &Engine, name: &str| e.tracer().metrics().counter(name).unwrap_or(0);
    let names = [
        "query.parse.cutoff",
        "query.normalize.recompute",
        "query.normalize.cutoff",
        "query.ctx.recompute",
        "query.report.recompute",
    ];
    let before: Vec<u64> = names.iter().map(|n| counter(&engine, n)).collect();

    let edited = format!("// leading note (shifts every span)\n{base}");
    engine.set_source("balance", &edited);
    let incremental = engine.lint_report("balance");

    let delta: Vec<u64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| counter(&engine, n) - b)
        .collect();
    assert_eq!(delta, [0, 1, 1, 0, 0], "{names:?}");
    assert_eq!(
        render(incremental.as_ref()),
        render(&nfactor::lint::lint_source("balance", &edited)),
        "the cut-off report diverged from lint_source"
    );
}

#[test]
fn cold_and_cached_reports_are_byte_identical() {
    let src = nfactor::corpus::nat::source();
    let mut engine = Engine::new();
    engine.set_source("nat", &src);
    let cold = render(engine.lint_report("nat").as_ref());
    let cached = render(engine.lint_report("nat").as_ref());
    let fresh = render(&nfactor::lint::lint_source("nat", &src));
    assert_eq!(cold, cached, "cached rerun changed bytes");
    assert_eq!(cold, fresh, "engine diverged from lint_source");
}
