//! Regenerate the paper's **Table 2** — "NFactor on Snort and Balance".
//!
//! ```text
//! cargo run --release -p bench --bin table2            # paper scale (~5–6 min: the
//! cargo run --release -p bench --bin table2 -- --quick # snort orig column is the
//!                                                      # ">1 hr" cell, by design)
//! ```
//!
//! Paper's numbers for reference:
//!
//! ```text
//!          LoC                    Slicing   # of EP        SE time
//!          orig  slice  path      Time      orig   slice   orig    slice
//! snort    2678  129    112       158s      >1000  3       >1hr    484ms
//! balance  1559  64     34        79s       20     10      3.4s    404ms
//! ```
//!
//! Absolute numbers differ (our substrate is a reimplementation, and our
//! analyses are far faster than 2016-era giri/KLEE); every *relation*
//! must hold: slice ≪ orig LoC, path ≤ slice, EP collapse, SE collapse,
//! snort benefiting most.

use nfactor_core::{Pipeline, Synthesis};
use std::time::Duration;

fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{}ms", d.as_millis())
    } else {
        format!("{}µs", d.as_micros())
    }
}

fn row(name: &str, syn: &Synthesis) -> String {
    let m = &syn.metrics;
    format!(
        "{name:<9} {:>5}  {:>5}  {:>4}   {:>9}   {:>6}  {:>5}   {:>8}  {:>8}",
        m.loc_orig,
        m.loc_slice,
        m.loc_path,
        fmt_dur(m.slicing_time),
        m.ep_orig_str(),
        m.ep_slice,
        m.se_time_orig.map(fmt_dur).unwrap_or_else(|| "-".into()),
        fmt_dur(m.se_time_slice),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (snort_rules, balance_extras) = if quick {
        (60, 40)
    } else {
        (
            nf_corpus::snort::PAPER_SCALE_RULES,
            nf_corpus::balance::PAPER_SCALE_EXTRAS,
        )
    };
    let pipeline = Pipeline::builder()
        .measure_original(true)
        .build()
        .expect("pipeline");

    println!("Table 2: NFactor on Snort and Balance (this reproduction)");
    if quick {
        println!("[--quick mode: snort({snort_rules}) / balance({balance_extras})]");
    } else {
        println!("[paper scale: snort({snort_rules} rules) / balance({balance_extras} extras); the snort 'orig' SE column is the paper's '>1hr' cell and takes minutes]");
    }
    println!();
    println!(
        "{:<9} {:>5}  {:>5}  {:>4}   {:>9}   {:>6}  {:>5}   {:>8}  {:>8}",
        "", "LoC", "slice", "path", "SlicingT", "EPorig", "EPsl", "SEorig", "SEslice"
    );
    println!("{}", "-".repeat(78));

    let snort_src = nf_corpus::snort::source(snort_rules);
    let snort = pipeline
        .synthesize_named("snort", &snort_src)
        .expect("snort synthesis");
    println!("{}", row("snort", &snort));

    let balance_src = nf_corpus::balance::source(balance_extras);
    let balance = pipeline
        .synthesize_named("balance", &balance_src)
        .expect("balance synthesis");
    println!("{}", row("balance", &balance));

    println!();
    println!("--- shape checks against the paper ---");
    let checks: Vec<(&str, bool)> = vec![
        (
            "snort: slice LoC ≪ orig LoC",
            snort.metrics.loc_slice * 4 < snort.metrics.loc_orig,
        ),
        (
            "snort: path LoC ≤ slice LoC",
            snort.metrics.loc_path <= snort.metrics.loc_slice,
        ),
        (
            "snort: EP orig explodes past the cap (paper: >1000)",
            matches!(snort.metrics.ep_orig, Some((_, false))),
        ),
        (
            "snort: EP slice = 3 (paper: 3)",
            snort.metrics.ep_slice == 3,
        ),
        (
            "snort: SE slice ≫ faster than orig (paper: >1hr → 484ms)",
            snort.metrics.se_time_orig.unwrap() > snort.metrics.se_time_slice * 100,
        ),
        (
            "balance: slice LoC ≪ orig LoC",
            balance.metrics.loc_slice * 4 < balance.metrics.loc_orig,
        ),
        (
            "balance: EP orig > EP slice (paper: 20 → 10)",
            balance.metrics.ep_orig.unwrap().0 > balance.metrics.ep_slice,
        ),
        (
            "balance: EP slice single/low double digits (paper: 10)",
            (3..=16).contains(&balance.metrics.ep_slice),
        ),
        (
            "snort benefits more: EP reduction factor larger",
            snort.metrics.ep_orig.unwrap().0 * balance.metrics.ep_slice
                > balance.metrics.ep_orig.unwrap().0 * snort.metrics.ep_slice,
        ),
    ];
    let mut all_ok = true;
    for (desc, ok) in checks {
        println!("  [{}] {desc}", if ok { "PASS" } else { "FAIL" });
        all_ok &= ok;
    }
    if all_ok {
        println!("\nAll Table 2 shape relations hold.");
    } else {
        println!("\nSOME SHAPE RELATIONS FAILED");
        std::process::exit(1);
    }
}
