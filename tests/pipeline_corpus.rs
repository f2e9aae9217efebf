//! Integration: the full pipeline on every corpus NF, with the paper's
//! headline assertions (Table 1 classes, Table 2 relations, Figure 6
//! content).

use nfactor::core::Pipeline;

#[test]
fn every_corpus_nf_synthesizes() {
    for (name, src) in [
        ("fig1-lb", nfactor::corpus::fig1_lb::source()),
        ("balance", nfactor::corpus::balance::source(10)),
        ("snort", nfactor::corpus::snort::source(25)),
        ("nat", nfactor::corpus::nat::source()),
        ("firewall", nfactor::corpus::firewall::source()),
    ] {
        let syn = Pipeline::builder()
            .name(name)
            .build()
            .unwrap()
            .synthesize(&src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(syn.model.entry_count() > 0, "{name}: empty model");
        assert!(
            syn.metrics.loc_slice <= syn.metrics.loc_orig,
            "{name}: slice bigger than program"
        );
        assert!(syn.metrics.ep_slice >= 1, "{name}: no paths");
        // Every model has a reachable drop (the default action §3.2
        // guarantees) or forwards everything.
        let _ = syn.render_model();
    }
}

#[test]
fn table1_variable_classes() {
    let syn = Pipeline::builder()
        .name("fig1-lb")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::fig1_lb::source())
        .unwrap();
    // The paper's Table 1, column by column.
    assert!(syn.classes.pkt_vars.contains("pkt"));
    for cfg in ["mode", "LB_IP"] {
        assert!(
            syn.classes.cfg_vars.contains(cfg),
            "{cfg} must be cfgVar: {:?}",
            syn.classes
        );
    }
    for ois in ["f2b_nat", "rr_idx"] {
        assert!(
            syn.classes.ois_vars.contains(ois),
            "{ois} must be oisVar: {:?}",
            syn.classes
        );
    }
    // pass_stat / drop_stat are log counters: never in the model.
    let rendered = syn.render_model();
    assert!(!rendered.contains("pass_stat"));
    assert!(!rendered.contains("drop_stat"));
}

#[test]
fn table2_relations_hold_at_small_scale() {
    let pipeline = Pipeline::builder().measure_original(true).build().unwrap();
    let snort = pipeline
        .synthesize_named("snort", &nfactor::corpus::snort::source(40))
        .unwrap();
    assert_eq!(
        snort.metrics.ep_slice, 3,
        "snort slice EP = 3, like the paper"
    );
    let (ep_orig, exhausted) = snort.metrics.ep_orig.unwrap();
    assert!(!exhausted && ep_orig >= 1000, "snort orig EP explodes");
    assert!(snort.metrics.se_time_orig.unwrap() > snort.metrics.se_time_slice);
    assert!(snort.metrics.loc_slice * 4 < snort.metrics.loc_orig);

    let balance = pipeline
        .synthesize_named("balance", &nfactor::corpus::balance::source(10))
        .unwrap();
    let (bep_orig, _) = balance.metrics.ep_orig.unwrap();
    assert!(
        bep_orig > balance.metrics.ep_slice,
        "balance orig > slice EP"
    );
    assert!((3..=16).contains(&balance.metrics.ep_slice));
}

#[test]
fn figure6_balance_model_content() {
    let syn = Pipeline::builder()
        .name("balance")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::balance::source(3))
        .unwrap();
    let table = syn.render_model();
    // Figure 6's RR row: state idx, action send to server[idx], update
    // (idx+1)%N.
    assert!(table.contains("idx := ((idx + 1) % 2)"), "{table}");
    assert!(table.contains("send(f;"), "{table}");
    // The hidden TCP handshake state shows up (our §3.2 unfolding).
    assert!(table.contains("__tcp"), "{table}");
    // SYN-ACK reply rewrites flags to 18.
    assert!(table.contains("tcp.flags := 18"), "{table}");
}

#[test]
fn figure6_lb_modes_match_paper_rows() {
    // The Figure 1 LB gives the cleaner Figure 6 analogue: one table per
    // mode; RR transitions rr_idx, hash mode leaves it alone.
    let syn = Pipeline::builder()
        .name("lb")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::fig1_lb::source())
        .unwrap();
    let rr_tables: Vec<_> = syn
        .model
        .tables
        .iter()
        .filter(|t| t.config.iter().any(|c| c.to_string() == "(cfg:mode == 1)"))
        .collect();
    assert_eq!(rr_tables.len(), 1);
    assert!(rr_tables[0].entries.iter().any(|e| e
        .state_action
        .updates
        .iter()
        .any(|(n, v)| n == "rr_idx" && v.to_string() == "((st:rr_idx + 1) % 2)")));
    let hash_tables: Vec<_> = syn
        .model
        .tables
        .iter()
        .filter(|t| t.config.iter().any(|c| c.to_string() == "(cfg:mode != 1)"))
        .collect();
    assert_eq!(hash_tables.len(), 1);
    for e in &hash_tables[0].entries {
        assert!(
            !e.state_action.updates.iter().any(|(n, _)| n == "rr_idx"),
            "hash mode must not touch rr_idx"
        );
    }
}

#[test]
fn slice_is_a_valid_program() {
    // The sliced loop must itself type-check and interpret.
    let syn = Pipeline::builder()
        .name("nat")
        .build()
        .unwrap()
        .synthesize(&nfactor::corpus::nat::source())
        .unwrap();
    nfactor::lang::types::check(&syn.sliced_loop.program).expect("slice type-checks");
    let mut interp = nfactor::interp::Interp::new(&syn.sliced_loop).expect("slice runs");
    let pkt = nfactor::packet::Packet::tcp(
        0x0a000001,
        5555,
        0x08080808,
        443,
        nfactor::packet::TcpFlags::syn(),
    );
    let r = interp.process(&pkt).expect("slice processes packets");
    assert!(!r.outputs.is_empty(), "outbound NAT flow forwards");
}
