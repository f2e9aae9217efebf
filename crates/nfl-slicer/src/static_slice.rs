//! Static backward slicing over the PDG.
//!
//! Algorithm 1, lines 1–4 (packet slice) and 6–9 (state slice):
//!
//! ```text
//! for stmt in prog:
//!     if stmt calls PKT_OUTPUT_FUNC:
//!         pktSlice ∪= BackwardSlice(stmt, Vars(stmt.RHS))
//! …
//! for stmt in prog:
//!     if Vars(stmt.LHS) in oisVars:
//!         stateSlice ∪= BackwardSlice(stmt, Vars(stmt.LHS))
//! ```

use nf_support::budget::Budget;
use nf_trace::Tracer;
use nfl_analysis::pdg::Pdg;
use nfl_lang::{builtins, pretty, Program, Stmt, StmtId, StmtKind};
use std::collections::{BTreeSet, HashSet};

/// A computed slice: the statement ids it keeps plus bookkeeping for the
/// Table 2 metrics.
#[derive(Debug, Clone, Default)]
pub struct SliceResult {
    /// Statements in the slice.
    pub stmts: HashSet<StmtId>,
    /// The criterion statements the slice was grown from.
    pub criteria: Vec<StmtId>,
}

impl SliceResult {
    /// Lines of code the slice keeps when rendered — Table 2's
    /// "LoC (slice)".
    pub fn loc(&self, program: &Program) -> usize {
        pretty::slice_loc(program, &self.stmts)
    }

    /// Render the program with the slice highlighted, Figure 1 style.
    pub fn render_highlighted(&self, program: &Program) -> String {
        pretty::program_to_string_opts(
            program,
            &pretty::RenderOpts {
                highlight: Some(self.stmts.clone()),
                ..Default::default()
            },
        )
    }
}

/// Union of two slices (`pktSlice ∪ stateSlice`, Algorithm 1 line 10).
pub fn slice_union(a: &SliceResult, b: &SliceResult) -> SliceResult {
    SliceResult {
        stmts: a.stmts.union(&b.stmts).copied().collect(),
        criteria: a.criteria.iter().chain(&b.criteria).copied().collect(),
    }
}

/// Does the statement call the packet output function anywhere?
fn calls_pkt_output(s: &Stmt) -> bool {
    let exprs: Vec<&nfl_lang::Expr> = match &s.kind {
        StmtKind::Let { value, .. } => vec![value],
        StmtKind::Assign { value, .. } => vec![value],
        StmtKind::Expr(e) => vec![e],
        StmtKind::Return(Some(e)) => vec![e],
        _ => vec![],
    };
    exprs
        .iter()
        .any(|e| e.calls().iter().any(|c| builtins::is_packet_output(c)))
}

/// The statements of `func` that `pick` selects, in program order — a
/// slice's criteria.
fn criteria(program: &Program, func: &str, mut pick: impl FnMut(&Stmt) -> bool) -> Vec<StmtId> {
    let mut out = Vec::new();
    if let Some(f) = program.function(func) {
        visit(&f.body, &mut |s| {
            if pick(s) {
                out.push(s.id);
            }
        });
    }
    out
}

/// Algorithm 1 lines 1–4's criteria: every statement that calls `send`.
fn packet_criteria(program: &Program, func: &str) -> Vec<StmtId> {
    criteria(program, func, calls_pkt_output)
}

/// Algorithm 1 lines 6–9's criteria: every statement that defines an
/// output-impacting state variable.
fn state_criteria(program: &Program, func: &str, ois_vars: &BTreeSet<String>) -> Vec<StmtId> {
    criteria(program, func, |s| {
        let du = nfl_analysis::defuse::def_use(s);
        du.defs.iter().any(|(v, _)| ois_vars.contains(v))
    })
}

/// Grow a slice backwards from all `criteria` at once, closed over jumps.
fn grow(pdg: &Pdg, program: &Program, func: &str, criteria: Vec<StmtId>) -> SliceResult {
    let seeds: Vec<_> = criteria.iter().filter_map(|c| pdg.node_of(*c)).collect();
    let nodes = pdg.backward_reachable(seeds);
    let mut stmts = pdg.stmts_of(&nodes);
    if !stmts.is_empty() {
        close_over_jumps(program, func, &mut stmts);
    }
    SliceResult { stmts, criteria }
}

/// Algorithm 1 lines 1–4: the packet processing slice, grown backwards
/// from every statement that calls `send`.
pub fn packet_slice(pdg: &Pdg, program: &Program, func: &str) -> SliceResult {
    grow(pdg, program, func, packet_criteria(program, func))
}

/// Algorithm 1 lines 6–9: the state transition slice, grown backwards
/// from every assignment whose LHS is an output-impacting state variable.
pub fn state_slice(
    pdg: &Pdg,
    program: &Program,
    func: &str,
    ois_vars: &BTreeSet<String>,
) -> SliceResult {
    grow(pdg, program, func, state_criteria(program, func, ois_vars))
}

/// [`packet_slice`] under a [`Budget`]: the slice is grown one criterion
/// at a time with a deadline check between criteria, so an expired
/// budget yields a *partial* (under-approximate) slice instead of a
/// stall. Returns the slice plus `Some(reason)` when it stopped early —
/// the pipeline stamps the resulting model `Completeness::Truncated`.
///
/// With no deadline set this is exactly `packet_slice` (reachability
/// distributes over seed union).
pub fn packet_slice_budgeted(
    pdg: &Pdg,
    program: &Program,
    func: &str,
    budget: &Budget,
    tracer: &Tracer,
) -> (SliceResult, Option<String>) {
    let span = tracer.span("slice.packet");
    let criteria = packet_criteria(program, func);
    let (result, stopped) = grow_budgeted(pdg, program, func, criteria, budget, "packet slicing");
    span.end();
    if tracer.is_enabled() {
        tracer.count("slice.packet.stmts", result.stmts.len() as u64);
        tracer.count("slice.packet.criteria", result.criteria.len() as u64);
    }
    (result, stopped)
}

/// [`state_slice`] under a [`Budget`] — see [`packet_slice_budgeted`].
pub fn state_slice_budgeted(
    pdg: &Pdg,
    program: &Program,
    func: &str,
    ois_vars: &BTreeSet<String>,
    budget: &Budget,
    tracer: &Tracer,
) -> (SliceResult, Option<String>) {
    let span = tracer.span("slice.state");
    let criteria = state_criteria(program, func, ois_vars);
    let (result, stopped) = grow_budgeted(pdg, program, func, criteria, budget, "state slicing");
    span.end();
    if tracer.is_enabled() {
        tracer.count("slice.state.stmts", result.stmts.len() as u64);
        tracer.count("slice.state.criteria", result.criteria.len() as u64);
    }
    (result, stopped)
}

/// Shared budgeted growth: with no deadline, [`grow`] from every
/// criterion at once; otherwise one backward-reachability pass per
/// criterion, stopping (and reporting why) once the deadline passes.
fn grow_budgeted(
    pdg: &Pdg,
    program: &Program,
    func: &str,
    criteria: Vec<StmtId>,
    budget: &Budget,
    stage: &str,
) -> (SliceResult, Option<String>) {
    if budget.deadline.is_none() {
        return (grow(pdg, program, func, criteria), None);
    }
    let mut stmts: HashSet<StmtId> = HashSet::new();
    let mut done = Vec::new();
    let mut stopped = None;
    for c in criteria {
        if budget.expired() {
            stopped = Some(format!("wall-clock deadline exceeded during {stage}"));
            break;
        }
        if let Some(node) = pdg.node_of(c) {
            let nodes = pdg.backward_reachable([node]);
            stmts.extend(pdg.stmts_of(&nodes));
        }
        done.push(c);
    }
    if !stmts.is_empty() {
        close_over_jumps(program, func, &mut stmts);
    }
    (
        SliceResult {
            stmts,
            criteria: done,
        },
        stopped,
    )
}

fn visit<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match &s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit(then_branch, f);
                visit(else_branch, f);
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => visit(body, f),
            _ => {}
        }
    }
}

/// Close a slice over jump statements (Ball–Horwitz "slicing programs
/// with arbitrary control flow", simplified): `return` / `break` /
/// `continue` carry no data and are no one's dependence *source*, yet
/// omitting them changes which kept statements execute — the Figure 1
/// LB's `return` in the unknown-outbound branch is what makes the packet
/// rewrite unreachable on that path. Any jump lying inside a control
/// structure the slice keeps is therefore added to the slice.
pub fn close_over_jumps(program: &Program, func: &str, stmts: &mut HashSet<StmtId>) {
    fn subtree_hits(s: &Stmt, keep: &HashSet<StmtId>) -> bool {
        if keep.contains(&s.id) {
            return true;
        }
        match &s.kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => then_branch
                .iter()
                .chain(else_branch)
                .any(|c| subtree_hits(c, keep)),
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                body.iter().any(|c| subtree_hits(c, keep))
            }
            _ => false,
        }
    }
    fn walk(stmts: &[Stmt], keep: &mut HashSet<StmtId>) {
        for s in stmts {
            let is_jump = matches!(
                s.kind,
                StmtKind::Return(_) | StmtKind::Break | StmtKind::Continue
            );
            if !subtree_hits(s, keep) && !is_jump {
                continue;
            }
            match &s.kind {
                StmtKind::Return(_) | StmtKind::Break | StmtKind::Continue => {
                    keep.insert(s.id);
                }
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, keep);
                    walk(else_branch, keep);
                }
                StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk(body, keep),
                _ => {}
            }
        }
    }
    if let Some(f) = program.function(func) {
        // Iterate to a fixpoint: newly added jumps can make enclosing
        // structures "hit" and reveal deeper jumps.
        loop {
            let before = stmts.len();
            walk(&f.body, stmts);
            if stmts.len() == before {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_analysis::normalize::normalize;
    use nfl_analysis::pdg::default_boundary;
    use nfl_lang::parse_and_check;

    fn setup(src: &str) -> (nfl_lang::Program, String, Pdg) {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let b = default_boundary(&pl.program, &pl.func);
        let pdg = Pdg::build(&pl.program, &pl.func, &b);
        (pl.program, pl.func, pdg)
    }

    /// The program cut down to the slice's statements.
    fn sliced_text(slice: &SliceResult, p: &Program) -> String {
        pretty::program_to_string_opts(
            p,
            &pretty::RenderOpts {
                keep_only: Some(slice.stmts.clone()),
                ..Default::default()
            },
        )
    }

    const NF: &str = r#"
        config PORT = 80;
        state hits = 0;
        state log_count = 0;
        fn cb(pkt: packet) {
            log_count = log_count + 1;
            log(log_count);
            if pkt.tcp.dport == PORT {
                hits = hits + 1;
                pkt.ip.ttl = pkt.ip.ttl - 1;
                send(pkt);
            }
        }
        fn main() { sniff(cb); }
    "#;

    #[test]
    fn packet_slice_keeps_forwarding_drops_logging() {
        let (p, func, pdg) = setup(NF);
        let ps = packet_slice(&pdg, &p, &func);
        let text = sliced_text(&ps, &p);
        assert!(text.contains("send(pkt)"), "{text}");
        assert!(text.contains("ttl"), "header rewrite kept:\n{text}");
        assert!(text.contains("if"), "guard kept:\n{text}");
        assert!(
            !text.contains("log_count = (log_count + 1)"),
            "log update pruned:\n{text}"
        );
        assert!(!text.contains("log("), "log call pruned:\n{text}");
        assert!(!ps.criteria.is_empty());
    }

    #[test]
    fn slice_is_smaller_than_program() {
        let (p, func, pdg) = setup(NF);
        let ps = packet_slice(&pdg, &p, &func);
        let all = p.stmt_count();
        assert!(
            ps.stmts.len() < all,
            "slice {} < total {all}",
            ps.stmts.len()
        );
    }

    #[test]
    fn state_slice_from_ois_assignments() {
        let (p, func, pdg) = setup(NF);
        let ois: BTreeSet<String> = ["hits".to_string()].into();
        let ss = state_slice(&pdg, &p, &func, &ois);
        let text = sliced_text(&ss, &p);
        assert!(text.contains("hits = (hits + 1)"), "{text}");
        assert!(text.contains("if"), "guard of the update kept:\n{text}");
        assert!(
            !text.contains("send"),
            "send not a state criterion:\n{text}"
        );
    }

    #[test]
    fn union_covers_both() {
        let (p, func, pdg) = setup(NF);
        let ps = packet_slice(&pdg, &p, &func);
        let ois: BTreeSet<String> = ["hits".to_string()].into();
        let ss = state_slice(&pdg, &p, &func, &ois);
        let u = slice_union(&ps, &ss);
        assert!(u.stmts.len() >= ps.stmts.len());
        assert!(u.stmts.len() >= ss.stmts.len());
        assert_eq!(u.criteria.len(), ps.criteria.len() + ss.criteria.len());
    }

    #[test]
    fn slice_closure_under_dependence() {
        // Every statement in the slice has all its PDG dependence sources
        // in the slice — the defining property of a backward slice.
        let (p, func, pdg) = setup(NF);
        let ps = packet_slice(&pdg, &p, &func);
        for &sid in &ps.stmts {
            let node = pdg.node_of(sid).unwrap();
            for (from, _) in pdg.deps_of(node) {
                if let Some(from_stmt) = pdg.cfg.nodes[from].stmt {
                    assert!(
                        ps.stmts.contains(&from_stmt),
                        "{sid} depends on {from_stmt} which is outside the slice"
                    );
                }
            }
        }
        let _ = func;
    }

    #[test]
    fn loc_metric_positive_and_less_than_total() {
        let (p, func, pdg) = setup(NF);
        let ps = packet_slice(&pdg, &p, &func);
        let loc = ps.loc(&p);
        assert!(loc > 0);
        assert!(loc < p.loc() + 20, "sanity");
    }

    #[test]
    fn nf_with_no_send_has_empty_packet_slice() {
        let (p, func, pdg) = setup(
            r#"
            state n = 0;
            fn cb(pkt: packet) { n = n + 1; }
            fn main() { sniff(cb); }
        "#,
        );
        let ps = packet_slice(&pdg, &p, &func);
        assert!(ps.stmts.is_empty());
        assert!(ps.criteria.is_empty());
    }

    #[test]
    fn budgeted_slice_matches_unbudgeted_when_time_remains() {
        let (p, func, pdg) = setup(NF);
        let budget = Budget::unlimited().with_timeout_ms(60_000);
        let tracer = Tracer::enabled();
        let (ps, stop) = packet_slice_budgeted(&pdg, &p, &func, &budget, &tracer);
        assert_eq!(stop, None);
        assert_eq!(ps.stmts, packet_slice(&pdg, &p, &func).stmts);
        let ois: BTreeSet<String> = ["hits".to_string()].into();
        let (ss, stop) = state_slice_budgeted(&pdg, &p, &func, &ois, &budget, &tracer);
        assert_eq!(stop, None);
        assert_eq!(ss.stmts, state_slice(&pdg, &p, &func, &ois).stmts);
        // Both slices recorded a span and their size counters.
        let metrics = tracer.metrics();
        assert!(metrics.counters.contains_key("slice.packet.ns"));
        assert!(metrics.counters.contains_key("slice.state.ns"));
        assert_eq!(
            metrics.counter("slice.packet.stmts"),
            Some(ps.stmts.len() as u64)
        );
        assert_eq!(
            metrics.counter("slice.state.stmts"),
            Some(ss.stmts.len() as u64)
        );
        assert!(tracer.balanced());
    }

    #[test]
    fn expired_budget_yields_partial_slice_with_reason() {
        let (p, func, pdg) = setup(NF);
        let budget = Budget::unlimited().with_timeout_ms(0);
        let (ps, stop) = packet_slice_budgeted(&pdg, &p, &func, &budget, &Tracer::disabled());
        assert!(stop.as_deref().unwrap().contains("packet slicing"));
        assert!(ps.stmts.len() <= packet_slice(&pdg, &p, &func).stmts.len());
        assert!(ps.criteria.is_empty(), "no criterion processed at 0ms");
    }
}
