//! The benchmark's own contract: every workload, run through the
//! library at smoke-test sizes, prints exactly the metric names
//! `BENCHMARK.json` declares (in both directions, for both modes), and
//! the correctness gate rejects a golden model that does not match.

use nfactor::support::json::Value;
use nfbench::{workload::WORKLOADS, Options};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> BTreeSet<String> {
    manifest()
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named entry")
                .to_string()
        })
        .collect()
}

/// A fresh directory under Cargo's per-target temp dir, unique per
/// test so parallel tests never share files.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("nfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn tiny(trace: bool, out_dir: PathBuf) -> Options {
    Options {
        tiny: true,
        out_dir,
        ..Options::new(nfbench::DEFAULT_SEED, 0.0, trace)
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let ours: BTreeSet<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    assert_eq!(ours, declared("workloads"));
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(section);
        for w in &WORKLOADS {
            let out = fresh_dir(&format!("names-{}-{trace}", w.name));
            let report = nfbench::run(w.name, &tiny(trace, out.clone()))
                .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", w.name));
            assert!(report.correct(), "{}: {:?}", w.name, report.failures);
            assert!(report.attempted > 0);
            let got: BTreeSet<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(
                got.len(),
                report.metrics.len(),
                "{}: a metric is printed twice",
                w.name
            );
            let missing: Vec<_> = want.difference(&got).collect();
            let undeclared: Vec<_> = got.difference(&want).collect();
            assert!(
                missing.is_empty() && undeclared.is_empty(),
                "{} ({section}): not printed {missing:?}, not declared {undeclared:?}",
                w.name
            );
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{}: {} = {}", w.name, m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{}: {} = {}", w.name, m.name, m.value);
                }
            }
            if trace {
                for suffix in ["trace.json", "layers.json"] {
                    let file = out.join(format!("{}.{suffix}", w.name));
                    let text = std::fs::read_to_string(&file).expect("traced run artifact");
                    Value::parse(&text).expect("artifact is JSON");
                }
            }
            let leftovers: Vec<_> = std::fs::read_dir(&out)
                .expect("out dir")
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".nfw"))
                .collect();
            assert!(leftovers.is_empty(), "{}: traces left behind", w.name);
        }
    }
}

#[test]
fn corrupted_golden_fails_the_gate() {
    let golden = fresh_dir("golden");
    let source = tiny(false, golden.clone()).golden_dir;
    for entry in std::fs::read_dir(&source).expect("golden dir") {
        let path = entry.expect("golden entry").path();
        if path.extension().is_some_and(|e| e == "txt") {
            std::fs::copy(&path, golden.join(path.file_name().expect("file name")))
                .expect("copy golden");
        }
    }
    nfbench::gate::golden(&golden).expect("untouched goldens pass");

    let firewall = golden.join("firewall.txt");
    let text = std::fs::read_to_string(&firewall).expect("firewall golden");
    let (head, nfm) = text.split_once("== nfm ==\n").expect("nfm section");
    std::fs::write(
        &firewall,
        format!("{head}== nfm ==\n{}", nfm.replacen("drop", "forward", 1)),
    )
    .expect("corrupt golden");
    let err = nfbench::gate::golden(&golden).expect_err("a corrupted golden must fail the gate");
    assert!(err.contains("firewall"), "{err}");

    let mut opts = tiny(false, fresh_dir("golden-run"));
    opts.golden_dir = golden;
    assert!(
        nfbench::run("fresh-flows", &opts).is_err(),
        "the run must refuse to measure"
    );
}
