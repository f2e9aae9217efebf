//! Run one nfbench workload and print its metrics.
//!
//! ```text
//! nfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a table (median, quartiles, min, max, sample count per
//! metric) and, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Exits 1 if any correctness check failed, 2 on a usage or set-up
//! error.

use nfbench::{workload, Options, DEFAULT_SEED};
use std::process::ExitCode;

/// Measuring time when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: nfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok((workload, Options::new(seed, seconds, trace)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("nfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match nfbench::run(&workload, &opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("nfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render_table());
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    println!("{}", report.to_json().render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
