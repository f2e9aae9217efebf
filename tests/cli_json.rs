//! The JSON documents the `nfactor` binary prints or writes end in
//! exactly one newline: `synthesize --json` and `lint --json` print the
//! checked-in goldens byte for byte, and the files `run` writes for
//! `--stats-json`, `--flight-out` and `--quarantine-out` end in a
//! single `\n`. The `--metrics-json` document also shows that `run` and
//! `top`, which rebuild the pipeline under the NF's name, keep the
//! `--max-paths` cap.

use nfactor::support::json::Value;
use std::path::PathBuf;
use std::process::Command;

fn nfactor(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_nfactor"))
        .args(args)
        .output()
        .expect("run nfactor");
    assert!(
        out.status.success(),
        "nfactor {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn golden(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/json")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn printed_documents_equal_the_goldens() {
    assert_eq!(
        nfactor(&["synthesize", "--corpus", "nat", "--json"]),
        golden("nat.model.json")
    );
    assert_eq!(
        nfactor(&["lint", "--corpus", "nat", "--json"]),
        golden("nat.lint.json")
    );
}

#[test]
fn written_documents_end_in_one_newline() {
    let dir = std::env::temp_dir().join(format!("nfactor-cli-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let file = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (stats, flight, quarantine) = (file("stats.json"), file("flight.json"), file("q.json"));
    nfactor(&[
        "run",
        "--corpus",
        "firewall",
        "--stats-json",
        &stats,
        "--flight-out",
        &flight,
    ]);
    nfactor(&[
        "run",
        "--corpus",
        "firewall",
        "--fault-plan",
        "panic@0:3",
        "--quarantine-out",
        &quarantine,
    ]);
    for path in [&stats, &flight, &quarantine] {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            text.ends_with("}\n") && !text.ends_with("\n\n"),
            "{path} does not end in exactly one newline"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_and_top_keep_the_path_cap() {
    let dir = std::env::temp_dir().join(format!("nfactor-cli-paths-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for cmd in [&["run"][..], &["top", "--once"][..]] {
        let metrics = dir.join("metrics.json").to_string_lossy().into_owned();
        let mut args = cmd.to_vec();
        args.extend([
            "--corpus",
            "nat",
            "--backend",
            "model",
            "--max-paths",
            "1",
            "--metrics-json",
            &metrics,
        ]);
        nfactor(&args);
        let text = std::fs::read_to_string(&metrics).unwrap_or_else(|e| panic!("{metrics}: {e}"));
        let doc = Value::parse(&text).unwrap_or_else(|e| panic!("{metrics}: {e}"));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("pipeline.truncated")),
            Some(&Value::Int(1)),
            "{cmd:?} explored past --max-paths 1: {text}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
