//! Golden-file tests: the full synthesis pipeline over every corpus NF,
//! compared against checked-in renderings.
//!
//! Each golden file carries the Figure-6 rendering of the synthesized
//! model followed by its `.nfm` exchange-format text, so a diff in
//! either the synthesis pipeline or the printers shows up as a reviewable
//! text change. To refresh after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use nfactor::core::Pipeline;
use nfactor::model::to_text;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check_golden(name: &str, src: &str) {
    let syn = Pipeline::builder()
        .name(name)
        .build()
        .unwrap()
        .synthesize(src)
        .unwrap_or_else(|e| panic!("pipeline failed on {name}: {e}"));
    let actual = format!(
        "# golden: {name}\n# regenerate with UPDATE_GOLDEN=1 cargo test --test golden\n\n\
         == figure6 ==\n{}\n== nfm ==\n{}",
        syn.render_model(),
        to_text(&syn.model)
    );
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden mismatch for {name}; if intentional, rerun with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_fig1_lb() {
    check_golden("fig1_lb", &nfactor::corpus::fig1_lb::source());
}

#[test]
fn golden_firewall() {
    check_golden("firewall", &nfactor::corpus::firewall::source());
}

#[test]
fn golden_nat() {
    check_golden("nat", &nfactor::corpus::nat::source());
}

#[test]
fn golden_portknock() {
    check_golden("portknock", &nfactor::corpus::portknock::source());
}

#[test]
fn golden_ratelimiter() {
    check_golden("ratelimiter", &nfactor::corpus::ratelimiter::source());
}

#[test]
fn golden_router() {
    check_golden("router", &nfactor::corpus::router::source());
}

#[test]
fn golden_balance() {
    check_golden("balance10", &nfactor::corpus::balance::source(10));
}

#[test]
fn golden_snort() {
    check_golden("snort25", &nfactor::corpus::snort::source(25));
}
