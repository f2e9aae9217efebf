//! A balance-3.5-like TCP relay load balancer, with a size generator.
//!
//! This is the paper's Figure 3 NF: a nested-loop (Figure 4d) socket
//! program — `listen`/`accept`, round-robin backend choice, `fork`, and
//! a per-connection relay loop over `select`/`read`/`write`. Its
//! forwarding state (which connections exist, which backend serves them)
//! is **hidden in the OS**; the `nf-tcp` unfolding makes it explicit
//! before analysis (§3.2, Figure 5).
//!
//! Like the real balance (1,559 LoC), most of the code is *not*
//! forwarding logic: statistics, health bookkeeping and failure handling
//! around the accept loop. [`source`]`(extras)` generates that bulk —
//! straight-line counter maintenance plus two branching failure
//! handlers, so the original path count grows modestly (the paper
//! measures 20 paths) while the slice stays small (10).

use std::fmt::Write;

/// Extras count that lands the generated source at the paper's balance
/// size (≈1.5k LoC).
pub const PAPER_SCALE_EXTRAS: usize = 375;

/// Generate the balance-like NF with `extras` bookkeeping blocks.
pub fn source(extras: usize) -> String {
    let mut src = String::new();
    src.push_str(
        r#"# balance-3.5-like TCP relay load balancer in NFL (Figure 3 shape).
config LB_PORT = 80;
config servers = [(1.1.1.1, 8080), (2.2.2.2, 8080)];
config MAX_CONN = 10000;
state idx = 0;
state conn_total = 0;
state conn_refused = 0;
state health_window = 0;
"#,
    );
    for i in 0..extras {
        let _ = writeln!(src, "state bk{i} = 0;");
    }
    src.push_str(
        r#"
fn main() {
    let lfd = listen(LB_PORT);
    while true {
        let cfd = accept(lfd);
        # --- connection bookkeeping (log-only) ---
        conn_total = conn_total + 1;
        if conn_total > MAX_CONN {
            conn_refused = conn_refused + 1;
            log("connection table full");
        }
        if health_window > 100 {
            health_window = 0;
            log("health checkpoint", conn_total);
        }
        health_window = health_window + 1;
"#,
    );
    for i in 0..extras {
        // Straight-line bookkeeping: rolling statistics per backend,
        // timing windows, byte estimates — the kind of non-forwarding
        // code that dominates the real balance's line count.
        let _ = writeln!(src, "        bk{i} = (bk{i} + conn_total + {i}) % 65536;");
        let _ = writeln!(src, "        bk{i} = bk{i} + health_window;");
        let _ = writeln!(src, "        log(\"bk\", {i}, bk{i});");
    }
    src.push_str(
        r#"        # --- backend selection (round robin) ---
        let srv = servers[idx];
        idx = (idx + 1) % len(servers);
        if fork() == 0 {
            let sfd = connect(srv[0], srv[1]);
            while true {
                let which = select2(cfd, sfd);
                if which == 0 {
                    let buf = sock_read(cfd);
                    sock_write(sfd, buf);
                } else {
                    let buf2 = sock_read(sfd);
                    sock_write(cfd, buf2);
                }
            }
        }
    }
}
"#,
    );
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_analysis::normalize::{detect_structure, Structure};

    #[test]
    fn is_nested_loop_shape() {
        let p = nfl_lang::parse_and_check(&source(3)).unwrap();
        assert_eq!(detect_structure(&p), Structure::NestedLoop);
    }

    #[test]
    fn paper_scale_loc() {
        let loc = nfl_lang::parse(&source(PAPER_SCALE_EXTRAS)).unwrap().loc();
        assert!((1200..=1900).contains(&loc), "balance-like LoC = {loc}");
    }

    #[test]
    fn pipeline_synthesizes_model_with_hidden_state() {
        let syn = nfactor_core::Pipeline::builder()
            .name("balance")
            .build()
            .unwrap()
            .synthesize(&source(5))
            .unwrap();
        // The hidden TCP state shows up as model state.
        assert!(syn.model.state_maps().iter().any(|m| m == "__tcp"));
        // The RR index transitions exactly as Figure 6's first row.
        let rendered = syn.render_model();
        assert!(rendered.contains("idx := ((idx + 1) % 2)"), "{rendered}");
        // Bookkeeping pruned.
        assert!(!rendered.contains("bk0"), "{rendered}");
        assert!(!rendered.contains("conn_total"), "{rendered}");
    }

    #[test]
    fn slice_paths_match_paper_scale() {
        let syn = nfactor_core::Pipeline::builder()
            .name("balance")
            .measure_original(true)
            .build()
            .unwrap()
            .synthesize(&source(5))
            .unwrap();
        // Table 2 shape: slice paths ≈ 10, orig ≈ 20, orig > slice.
        let (ep_orig, _) = syn.metrics.ep_orig.unwrap();
        assert!(
            (5..=16).contains(&syn.metrics.ep_slice),
            "slice EP = {}",
            syn.metrics.ep_slice
        );
        assert!(
            ep_orig > syn.metrics.ep_slice,
            "orig {} > slice {}",
            ep_orig,
            syn.metrics.ep_slice
        );
    }
}
