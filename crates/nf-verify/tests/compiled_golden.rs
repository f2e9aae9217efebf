//! Golden files for the compiled decision trees.
//!
//! `nf_compile::render` produces a deterministic text form of the
//! lowered program — flattened entries, interned state predicates, and
//! the dispatch tree. Pinning it for two corpus NFs catches silent
//! changes to the lowering (split-key selection, literal consumption,
//! constant folding) that the behavioural differentials could miss
//! when two shapes happen to behave identically.
//!
//! Regenerate after an intentional lowering change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p nf-verify --test compiled_golden
//! ```

use nfactor_core::accuracy::initial_model_state;
use nfactor_core::Pipeline;
use nfl_interp::Interp;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.tree.txt"))
}

fn rendered_tree(name: &str, src: &str) -> String {
    let syn = Pipeline::builder()
        .name(name)
        .build()
        .unwrap()
        .synthesize(src)
        .unwrap_or_else(|e| panic!("{name}: synthesize: {e}"));
    let interp = Interp::new(&syn.nf_loop).unwrap();
    let init = initial_model_state(&syn, &interp);
    let prog =
        nf_compile::compile(&syn.model, &init).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
    format!(
        "# golden: {name}\n# regenerate with UPDATE_GOLDEN=1 cargo test -p nf-verify --test compiled_golden\n{}",
        nf_compile::render(&prog)
    )
}

fn assert_golden(name: &str, src: &str) {
    let got = rendered_tree(name, src);
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run with UPDATE_GOLDEN=1 to create the golden file)",
            path.display()
        )
    });
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        let hint = match first {
            Some((i, (g, w))) => format!("first diff at line {}:\n  got:  {g}\n  want: {w}", i + 1),
            None => "one rendering is a prefix of the other".to_string(),
        };
        panic!(
            "{name}: rendered tree diverges from {} — {hint}\n\
             (regenerate with UPDATE_GOLDEN=1 if the lowering change is intentional)",
            path.display()
        );
    }
}

#[test]
fn firewall_tree_matches_golden() {
    assert_golden("firewall", &nf_corpus::firewall::source());
}

#[test]
fn router_tree_matches_golden() {
    assert_golden("router", &nf_corpus::router::source());
}
