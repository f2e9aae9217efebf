//! Golden-file tests for the JSON writers: the documents
//! `nfactor synthesize --json` and `nfactor lint --json` print, pinned
//! byte for byte as checked-in files.
//!
//! JSON is an output format only (the one model reader is `.nfm`), so
//! these files are what keeps the writers' encoding from drifting. To
//! refresh after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test json_golden
//! ```

use nfactor::core::Pipeline;
use nfactor::lint::lint_source;
use nfactor::support::json::ToJson;
use std::path::PathBuf;

fn check_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/json")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test json_golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "JSON golden mismatch for {file}; if intentional, rerun with UPDATE_GOLDEN=1"
    );
}

/// The model document `synthesize --json` prints.
fn check_model(name: &str, src: &str) {
    let syn = Pipeline::builder()
        .name(name)
        .build()
        .unwrap()
        .synthesize(src)
        .unwrap_or_else(|e| panic!("pipeline failed on {name}: {e}"));
    check_golden(
        &format!("{name}.model.json"),
        &syn.model.to_json().render_pretty(),
    );
}

/// The report document `lint --json` prints.
fn check_lint(name: &str, src: &str) {
    let report = lint_source(name, src).unwrap_or_else(|e| panic!("lint failed on {name}: {e}"));
    check_golden(
        &format!("{name}.lint.json"),
        &report.to_json().render_pretty(),
    );
}

#[test]
fn model_json_firewall() {
    check_model("firewall", &nfactor::corpus::firewall::source());
}

#[test]
fn model_json_nat() {
    check_model("nat", &nfactor::corpus::nat::source());
}

#[test]
fn model_json_router() {
    check_model("router", &nfactor::corpus::router::source());
}

#[test]
fn model_json_snort() {
    check_model("snort25", &nfactor::corpus::snort::source(25));
}

#[test]
fn lint_json_firewall() {
    check_lint("firewall", &nfactor::corpus::firewall::source());
}

#[test]
fn lint_json_nat() {
    check_lint("nat", &nfactor::corpus::nat::source());
}
