//! Engine correctness: incremental results must be indistinguishable
//! from from-scratch `nfl_lint::lint_source` runs, and the red-green
//! machinery must actually skip work (hits, early cutoff).

use nf_query::Engine;
use nf_trace::Tracer;

fn counter(engine: &Engine, name: &str) -> u64 {
    engine.tracer().metrics().counter(name).unwrap_or(0)
}

const ALL_LABELS: &[&str] = &["parse", "normalize", "ctx", "report"];

fn recompute_counts(engine: &Engine) -> Vec<(String, u64)> {
    ALL_LABELS
        .iter()
        .map(|l| {
            (
                l.to_string(),
                counter(engine, &format!("query.{l}.recompute")),
            )
        })
        .collect()
}

#[test]
fn cold_engine_matches_lint_source_over_corpus() {
    let mut engine = Engine::new();
    for nf in nf_corpus::default_corpus() {
        engine.set_source(nf.name, &nf.source);
    }
    for nf in nf_corpus::default_corpus() {
        let fresh = nfl_lint::lint_source(nf.name, &nf.source);
        let incr = engine.lint_report(nf.name);
        match (&fresh, incr.as_ref()) {
            (Ok(f), Ok(i)) => {
                use nf_support::json::ToJson;
                assert_eq!(
                    f.to_json().render(),
                    i.to_json().render(),
                    "JSON mismatch for {}",
                    nf.name
                );
                assert_eq!(
                    f.render_text(),
                    i.render_text(),
                    "text mismatch for {}",
                    nf.name
                );
                assert_eq!(
                    f.source, i.source,
                    "carried source mismatch for {}",
                    nf.name
                );
            }
            (Err(f), Err(i)) => assert_eq!(f, i, "error mismatch for {}", nf.name),
            (f, i) => panic!(
                "divergent outcome for {}: fresh {:?} vs incremental {:?}",
                nf.name,
                f.is_ok(),
                i.is_ok()
            ),
        }
    }
}

#[test]
fn fully_cached_rerun_recomputes_nothing() {
    let mut engine = Engine::with_tracer(Tracer::enabled());
    for nf in nf_corpus::default_corpus() {
        engine.set_source(nf.name, &nf.source);
    }
    let mut first = Vec::new();
    for nf in nf_corpus::default_corpus() {
        first.push(engine.lint_report(nf.name));
    }
    let before = recompute_counts(&engine);
    let hits_before = counter(&engine, "query.report.hit");
    for (i, nf) in nf_corpus::default_corpus().iter().enumerate() {
        use nf_support::json::ToJson;
        let again = engine.lint_report(nf.name);
        let a = again.as_ref().as_ref().map(|r| r.to_json().render());
        let b = first[i].as_ref().as_ref().map(|r| r.to_json().render());
        assert_eq!(a, b, "warm rerun changed the report for {}", nf.name);
    }
    assert_eq!(
        recompute_counts(&engine),
        before,
        "a fully cached rerun recomputed something"
    );
    assert_eq!(
        counter(&engine, "query.report.hit"),
        hits_before + nf_corpus::default_corpus().len() as u64,
        "warm reruns should be report-level cache hits"
    );
}

#[test]
fn trailing_comment_edit_recomputes_only_parse() {
    let mut engine = Engine::with_tracer(Tracer::enabled());
    for nf in nf_corpus::default_corpus() {
        engine.set_source(nf.name, &nf.source);
    }
    for nf in nf_corpus::default_corpus() {
        engine.lint_report(nf.name);
    }
    let nf = &nf_corpus::default_corpus()[0];
    let before_report = engine.lint_report(nf.name);
    let before = recompute_counts(&engine);
    let cutoffs_before = counter(&engine, "query.parse.cutoff");

    let edited = format!("{}\n// a trailing comment, analysis-invisible\n", nf.source);
    assert!(
        engine.set_source(nf.name, &edited),
        "edit must dirty the doc"
    );
    let after_report = engine.lint_report(nf.name);

    let after = recompute_counts(&engine);
    for ((label, b), (_, a)) in before.iter().zip(after.iter()) {
        if label == "parse" {
            assert_eq!(*a, b + 1, "parse should recompute exactly once");
        } else {
            assert_eq!(a, b, "{label} recomputed after a trivia-only edit");
        }
    }
    assert_eq!(
        counter(&engine, "query.parse.cutoff"),
        cutoffs_before + 1,
        "the re-parse should early-cut (identical program fingerprint)"
    );
    use nf_support::json::ToJson;
    assert_eq!(
        before_report
            .as_ref()
            .as_ref()
            .map(|r| r.to_json().render()),
        after_report.as_ref().as_ref().map(|r| r.to_json().render()),
        "trivia edit changed the report"
    );
}

#[test]
fn semantic_edit_reanalyzes_and_matches_fresh() {
    let mut engine = Engine::with_tracer(Tracer::enabled());
    let base = r#"
        state m = map();
        fn cb(pkt: packet) {
            let src = pkt.ip.src;
            if src not in m { m[src] = 0; }
            m[src] = m[src] + 1;
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#;
    let edited = r#"
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
    engine.set_source("nf", base);
    let clean = engine.lint_report("nf");
    assert!(clean
        .as_ref()
        .as_ref()
        .is_ok_and(|r| r.diagnostics.is_empty()));

    engine.set_source("nf", edited);
    let dirty = engine.lint_report("nf");
    let fresh = nfl_lint::lint_source("nf", edited);
    use nf_support::json::ToJson;
    assert_eq!(
        dirty.as_ref().as_ref().map(|r| r.to_json().render()).ok(),
        fresh.as_ref().map(|r| r.to_json().render()).ok(),
        "incremental result diverged from from-scratch after a semantic edit"
    );
    assert!(dirty
        .as_ref()
        .as_ref()
        .is_ok_and(|r| r.diagnostics.iter().any(|d| d.code.as_str() == "NFL001")));
}

#[test]
fn error_documents_memoize_and_recover() {
    let mut engine = Engine::new();
    let broken = "fn cb(pkt: packet { send(pkt); }";
    engine.set_source("nf", broken);
    let fresh_err = nfl_lint::lint_source("nf", broken).err();
    let incr = engine.lint_report("nf");
    assert_eq!(
        incr.as_ref().as_ref().err(),
        fresh_err.as_ref(),
        "error strings must match"
    );
    // Cached error: asking again returns the same Arc'd error.
    let again = engine.lint_report("nf");
    assert_eq!(again.as_ref().as_ref().err(), fresh_err.as_ref());

    let fixed = r#"
        state m = map();
        fn cb(pkt: packet) {
            let src = pkt.ip.src;
            if src not in m { m[src] = 0; }
            m[src] = m[src] + 1;
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#;
    engine.set_source("nf", fixed);
    let ok = engine.lint_report("nf");
    assert!(
        ok.as_ref().as_ref().is_ok(),
        "engine did not recover from a parse error"
    );
}

#[test]
fn unloaded_document_is_an_error_not_a_panic() {
    let mut engine = Engine::new();
    let r = engine.lint_report("missing");
    assert!(r
        .as_ref()
        .as_ref()
        .err()
        .is_some_and(|e| e.contains("not loaded")));
}

#[test]
fn edits_are_isolated_across_documents() {
    let mut engine = Engine::with_tracer(Tracer::enabled());
    for nf in nf_corpus::default_corpus() {
        engine.set_source(nf.name, &nf.source);
    }
    for nf in nf_corpus::default_corpus() {
        engine.lint_report(nf.name);
    }
    let parse_before = counter(&engine, "query.parse.recompute");
    // Semantic edit to one document only.
    let nf = &nf_corpus::default_corpus()[0];
    let edited = format!("{}\nfn extra_helper() {{ let x = 1; }}\n", nf.source);
    engine.set_source(nf.name, &edited);
    for nf in nf_corpus::default_corpus() {
        engine.lint_report(nf.name);
    }
    assert_eq!(
        counter(&engine, "query.parse.recompute"),
        parse_before + 1,
        "only the edited document should re-parse"
    );
}

#[test]
fn identical_set_source_is_a_noop() {
    let mut engine = Engine::new();
    let nf = &nf_corpus::default_corpus()[0];
    assert!(engine.set_source(nf.name, &nf.source));
    let rev = engine.revision();
    assert!(!engine.set_source(nf.name, &nf.source));
    assert_eq!(
        engine.revision(),
        rev,
        "identical bytes must not bump the revision"
    );
}
