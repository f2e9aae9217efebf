//! Equivalence properties for the integer dataflow in `nfl-analysis`.
//!
//! Liveness solves over interned variable ids on bitsets, and the PDG
//! keys its data edges by variable id. Both are checked here against
//! references written the plain way, over names:
//!
//! * every node's live-in and live-out sets equal a naive
//!   `BTreeSet<String>` fixpoint;
//! * `Pdg::build`'s data edges equal the `(from, to, var)` set rebuilt
//!   from `def_use`, `reaching_in` and every persistent def × use pair
//!   (the implicit packet loop), with no edge emitted twice;
//! * every node's `deps_of` sequence equals one built in order from the
//!   public API: each used variable's reaching definitions, then each
//!   used persistent variable's other definition nodes, then the
//!   node's control dependences.
//!
//! The subjects are the 8 corpus NFs, snort at 25 rules and
//! grammar-generated NFs, each analysed as its normalised per-packet
//! loop. The paper-scale snort PDG's edge count is pinned too.

use nfactor::analysis::cd::control_deps;
use nfactor::analysis::defuse::{def_use, DefUse};
use nfactor::analysis::liveness;
use nfactor::analysis::pdg::{default_boundary, DepKind, Pdg};
use nfactor::corpus::{default_corpus, snort};
use nfactor::fuzz::gen_program;
use nfactor::lang::{Stmt, StmtId};
use nfactor::lint::AnalysisCtx;
use nfactor::support::check::{check, uint_range, Config, Gen};
use nfactor::support::rng::Rng;
use std::collections::{BTreeSet, HashMap};

/// A normalised per-packet loop, its PDG and the def/use of each CFG
/// node recomputed from the statements (not taken from the PDG).
struct Subject {
    pdg: Pdg,
    node_du: Vec<DefUse>,
    persistent: BTreeSet<String>,
}

fn subject(name: &str, src: &str) -> Subject {
    let parsed = nfactor::lang::parse_and_check(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let nf_loop = AnalysisCtx::normalize_loop(&parsed).unwrap_or_else(|e| panic!("{name}: {e}"));
    let program = nf_loop.program;
    let pdg = Pdg::build(
        &program,
        &nf_loop.func,
        &default_boundary(&program, &nf_loop.func),
    );
    let mut stmts: HashMap<StmtId, &Stmt> = HashMap::new();
    program.for_each_stmt(|s| {
        stmts.insert(s.id, s);
    });
    let node_du = pdg
        .cfg
        .nodes
        .iter()
        .map(|n| {
            n.stmt
                .and_then(|sid| stmts.get(&sid))
                .map(|s| def_use(s))
                .unwrap_or_default()
        })
        .collect();
    let persistent = program
        .consts
        .iter()
        .chain(&program.configs)
        .chain(&program.states)
        .map(|i| i.name.clone())
        .collect();
    Subject {
        pdg,
        node_du,
        persistent,
    }
}

/// The reference liveness: round-robin fixpoint over name sets, exit
/// seeded with the persistent names.
fn naive_liveness(s: &Subject) -> (Vec<BTreeSet<String>>, Vec<BTreeSet<String>>) {
    let cfg = &s.pdg.cfg;
    let n = cfg.len();
    let mut live_in: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut live_out: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for node in (0..n).rev() {
            let mut out: BTreeSet<String> = if node == cfg.exit {
                s.persistent.clone()
            } else {
                BTreeSet::new()
            };
            for succ in cfg.succs(node) {
                out.extend(live_in[succ].iter().cloned());
            }
            let du = &s.node_du[node];
            let mut inn: BTreeSet<String> = out
                .iter()
                .filter(|v| !du.defines_strongly(v))
                .cloned()
                .collect();
            inn.extend(du.uses.iter().cloned());
            if inn != live_in[node] || out != live_out[node] {
                live_in[node] = inn;
                live_out[node] = out;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

fn assert_liveness_matches(name: &str, s: &Subject) {
    let live = liveness(&s.pdg.cfg, &s.pdg.reaching.node_du, &s.persistent);
    let (ref_in, ref_out) = naive_liveness(s);
    let mut universe: BTreeSet<&str> = s.persistent.iter().map(String::as_str).collect();
    for du in &s.node_du {
        universe.extend(du.uses.iter().map(String::as_str));
        universe.extend(du.defs.iter().map(|(v, _)| v.as_str()));
    }
    for node in 0..s.pdg.cfg.len() {
        for &v in &universe {
            assert_eq!(
                live.live_in(node, v),
                ref_in[node].contains(v),
                "{name}: live_in(n{node}, {v})"
            );
            assert_eq!(
                live.live_out(node, v),
                ref_out[node].contains(v),
                "{name}: live_out(n{node}, {v})"
            );
        }
    }
}

fn assert_data_edges_match(name: &str, s: &Subject) {
    let reaching = &s.pdg.reaching;
    let cfg = &s.pdg.cfg;
    let mut expected: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    for to in 0..cfg.len() {
        for used in &s.node_du[to].uses {
            for (v, from) in reaching.reaching_in(to) {
                if v == used {
                    expected.insert((from, to, used.clone()));
                }
            }
            if s.persistent.contains(used) {
                for from in 0..cfg.len() {
                    if s.node_du[from].defines(used) {
                        expected.insert((from, to, used.clone()));
                    }
                }
            }
        }
    }
    let mut actual: Vec<(usize, usize, String)> = Vec::new();
    for e in &s.pdg.edges {
        if let DepKind::Data(var) = e.kind {
            actual.push((e.from, e.to, reaching.var_name(var).to_string()));
        }
    }
    let emitted = actual.len();
    let actual: BTreeSet<_> = actual.into_iter().collect();
    assert_eq!(
        actual.len(),
        emitted,
        "{name}: a data edge was emitted twice"
    );
    let missing: Vec<_> = expected.difference(&actual).take(5).collect();
    let extra: Vec<_> = actual.difference(&expected).take(5).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{name}: data edges differ from the reference; missing {missing:?}, extra {extra:?}"
    );
}

/// A dependence as `deps_of` reports it, with the variable by name.
#[derive(Debug, PartialEq)]
enum Dep {
    Data(usize, String),
    Control(usize),
}

fn assert_deps_order_matches(name: &str, s: &Subject) {
    let reaching = &s.pdg.reaching;
    let cfg = &s.pdg.cfg;
    let cd = control_deps(cfg);
    for to in 0..cfg.len() {
        let mut expected = Vec::new();
        let mut reached: BTreeSet<(usize, &str)> = BTreeSet::new();
        for used in &s.node_du[to].uses {
            for (v, from) in reaching.reaching_in(to) {
                if v == used {
                    expected.push(Dep::Data(from, used.clone()));
                    reached.insert((from, v));
                }
            }
        }
        for used in s.node_du[to]
            .uses
            .iter()
            .filter(|u| s.persistent.contains(*u))
        {
            for from in 0..cfg.len() {
                if s.node_du[from].defines(used) && !reached.contains(&(from, used.as_str())) {
                    expected.push(Dep::Data(from, used.clone()));
                }
            }
        }
        expected.extend(cd.deps[to].iter().map(|&from| Dep::Control(from)));
        let actual: Vec<Dep> = s
            .pdg
            .deps_of(to)
            .into_iter()
            .map(|(from, kind)| match kind {
                DepKind::Data(var) => Dep::Data(from, reaching.var_name(*var).to_string()),
                DepKind::Control => Dep::Control(from),
            })
            .collect();
        assert_eq!(actual, expected, "{name}: deps_of(n{to})");
    }
}

/// Subjects by number: the 8 corpus NFs, then snort at 25 rules, then a
/// grammar-generated NF seeded by the number for everything above.
fn subject_source(pick: u64) -> (String, String) {
    let corpus = default_corpus();
    let n = corpus.len() as u64;
    if pick < n {
        let nf = &corpus[pick as usize];
        (nf.name.to_string(), nf.source.clone())
    } else if pick == n {
        ("snort25".to_string(), snort::source(25))
    } else {
        let prog = gen_program(&mut Rng::new(pick));
        (format!("gen-{pick}"), prog.source)
    }
}

/// The property: bitset liveness, id-keyed PDG data edges and each
/// node's dependence order agree with the name-based references on
/// subject `pick`.
fn dataflow_matches(&pick: &u64) {
    let (name, src) = subject_source(pick);
    let s = subject(&name, &src);
    assert_liveness_matches(&name, &s);
    assert_data_edges_match(&name, &s);
    assert_deps_order_matches(&name, &s);
}

/// Number of fixed subjects (corpus + snort at 25 rules).
fn fixed_subjects() -> u64 {
    default_corpus().len() as u64 + 1
}

/// Each fixed subject, once. Paper-scale snort's name-set reference is
/// slow in a debug build, so these are not drawn at random.
#[test]
fn corpus_dataflow_matches_name_based_reference() {
    for pick in 0..fixed_subjects() {
        check(
            "corpus_dataflow_matches_name_based_reference",
            &Config::with_cases(1),
            &Gen::just(pick),
            dataflow_matches,
        );
    }
}

/// Grammar-generated NFs.
#[test]
fn generated_dataflow_matches_name_based_reference() {
    check(
        "generated_dataflow_matches_name_based_reference",
        &Config::with_cases(64),
        &uint_range(fixed_subjects(), u64::MAX),
        dataflow_matches,
    );
}

/// The paper-scale snort PDG keeps exactly the edge set it had when
/// edges were deduplicated on owned variable names.
#[test]
fn paper_scale_snort_pdg_edges_pinned() {
    let s = subject("snort", &snort::source(snort::PAPER_SCALE_RULES));
    assert_eq!(s.pdg.edges.len(), 253_555);
}
