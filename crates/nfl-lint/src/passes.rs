//! The pass manager and the built-in lint passes.
//!
//! A [`LintPass`] is a stateless rule that inspects the shared
//! [`AnalysisCtx`] and reports [`Diagnostic`]s into a [`LintSink`]. The
//! [`PassManager`] owns a registry of passes, runs them in registration
//! order, and sorts the combined findings into the deterministic order
//! [`Diagnostic::sort_key`] defines — so two runs over the same program
//! always produce byte-identical reports.

use crate::ctx::AnalysisCtx;
use crate::diag::{Code, Diagnostic};
use crate::sharding::{self, ShardingReport};
use nf_trace::Tracer;
use nfl_analysis::defuse::def_use;
use nfl_analysis::liveness;
use nfl_lang::{BinOp, Expr, ExprKind, LValue, Stmt, StmtKind};
use std::collections::{BTreeSet, HashSet};

/// Where passes deposit their findings.
#[derive(Debug, Default)]
pub struct LintSink {
    /// All diagnostics reported so far.
    pub diagnostics: Vec<Diagnostic>,
    /// Set by the sharding pass.
    pub sharding: Option<ShardingReport>,
}

impl LintSink {
    /// Report one diagnostic.
    pub fn report(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }
}

/// One registered lint rule.
pub trait LintPass {
    /// Stable pass name (used in `--help`-style listings).
    fn name(&self) -> &'static str;
    /// The codes this pass may emit.
    fn codes(&self) -> &'static [Code];
    /// Inspect `ctx` and report into `sink`.
    fn run(&self, ctx: &AnalysisCtx, sink: &mut LintSink);
}

/// Runs registered passes over a shared [`AnalysisCtx`].
pub struct PassManager {
    passes: Vec<Box<dyn LintPass>>,
}

impl PassManager {
    /// The default registry: every built-in pass, in code order.
    pub fn with_default_passes() -> PassManager {
        PassManager {
            passes: vec![
                Box::new(DeadStorePass),
                Box::new(UnreachableCodePass),
                Box::new(UnusedConfigPass),
                Box::new(UseBeforeInitPass),
                Box::new(UnguardedMapReadPass),
                Box::new(ClassMismatchPass),
                Box::new(ShardingPass),
            ],
        }
    }

    /// Run every pass and return the sorted findings.
    pub fn run(&self, ctx: &AnalysisCtx) -> LintSink {
        self.run_traced(ctx, &Tracer::disabled())
    }

    /// [`PassManager::run`] with per-pass timing: each pass runs under a
    /// `lint.pass.<name>` span, and the diagnostic total lands in the
    /// `lint.diagnostics` counter.
    pub fn run_traced(&self, ctx: &AnalysisCtx, tracer: &Tracer) -> LintSink {
        let mut sink = LintSink::default();
        for pass in &self.passes {
            let span = tracer.span(format!("lint.pass.{}", pass.name()));
            pass.run(ctx, &mut sink);
            span.end();
        }
        // Sort into `Diagnostic::sort_key` order and drop exact
        // duplicates, so two runs over one program give byte-identical
        // reports.
        sink.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        sink.diagnostics.dedup();
        if tracer.is_enabled() {
            tracer.count("lint.diagnostics", sink.diagnostics.len() as u64);
        }
        sink
    }
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::with_default_passes()
    }
}

// ---------------------------------------------------------------------------
// NFL001/NFL002/NFL003 — dead stores (ported from nfl-analysis::live).

/// `let` bindings never read (NFL001), `state` never used (NFL002) and
/// state only ever written (NFL003) in the per-packet function.
pub struct DeadStorePass;

impl LintPass for DeadStorePass {
    fn name(&self) -> &'static str {
        "dead-store"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::DeadLocal, Code::DeadState, Code::WriteOnlyState]
    }
    fn run(&self, ctx: &AnalysisCtx, sink: &mut LintSink) {
        let persistent = ctx.persistent();
        let cfg = &ctx.pdg.cfg;
        let node_du = &ctx.pdg.reaching.node_du;
        let live = liveness(cfg, node_du, &persistent);
        let stmts = ctx.stmt_map();

        // Dead locals: a `let` whose variable is not live out of the
        // defining node.
        for node in 0..cfg.len() {
            let Some(sid) = cfg.nodes[node].stmt else {
                continue;
            };
            let Some(s) = stmts.get(&sid) else { continue };
            if let StmtKind::Let { name, .. } = &s.kind {
                if !persistent.contains(name) && !live.live_out(node, name) {
                    sink.report(Diagnostic::new(
                        Code::DeadLocal,
                        s.span,
                        Some(name.clone()),
                        format!(
                            "the value bound to `{name}` here is never read \
                             (every path overwrites or ignores it)"
                        ),
                    ));
                }
            }
        }

        // Real reads vs writes of each variable across the per-packet
        // function's CFG nodes (a weak update's self-read does not count
        // as a read). Statements after a `return`/`break`/`continue` get
        // no node: they never run, so they neither read nor write (NFL004
        // reports them).
        let mut read: BTreeSet<&str> = BTreeSet::new();
        let mut written: BTreeSet<&str> = BTreeSet::new();
        for du in node_du {
            for u in &du.uses {
                if !du.defines(u) {
                    read.insert(u);
                }
            }
            for (d, _) in &du.defs {
                written.insert(d);
            }
        }
        for st in &ctx.program().states {
            let name = st.name.as_str();
            if written.contains(name) && !read.contains(name) {
                sink.report(Diagnostic::new(
                    Code::WriteOnlyState,
                    st.span,
                    Some(st.name.clone()),
                    format!(
                        "state `{}` is only ever written (a log counter at best; \
                         consider whether it should influence forwarding)",
                        st.name
                    ),
                ));
            } else if !written.contains(name) && !read.contains(name) {
                sink.report(Diagnostic::new(
                    Code::DeadState,
                    st.span,
                    Some(st.name.clone()),
                    format!("state `{}` is never used", st.name),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NFL004 — unreachable code.

/// Statements the CFG cannot reach from entry. Two flavours exist:
/// statements after a `return`/`break`/`continue` in the same block are
/// never even lowered into the CFG (no node), and statements chained
/// after an unreachable join (both `if` arms transfer away) get nodes
/// with no dominator-tree parent. Only the first statement of each
/// unreachable run is reported, not the whole cascade.
pub struct UnreachableCodePass;

impl LintPass for UnreachableCodePass {
    fn name(&self) -> &'static str {
        "unreachable-code"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::UnreachableCode]
    }
    fn run(&self, ctx: &AnalysisCtx, sink: &mut LintSink) {
        let Some(f) = ctx.program().function(ctx.func()) else {
            return;
        };

        fn is_unreachable(ctx: &AnalysisCtx, s: &Stmt) -> bool {
            match ctx.pdg.cfg.stmt_node.get(&s.id) {
                None => true,
                Some(&n) => n != ctx.dom.root && ctx.dom.idom[n].is_none(),
            }
        }

        fn walk(ctx: &AnalysisCtx, stmts: &[Stmt], sink: &mut LintSink) {
            let mut in_dead_run = false;
            for s in stmts {
                if is_unreachable(ctx, s) {
                    if !in_dead_run {
                        sink.report(Diagnostic::new(
                            Code::UnreachableCode,
                            s.span,
                            None,
                            "this statement is unreachable".to_string(),
                        ));
                        in_dead_run = true;
                    }
                    continue;
                }
                in_dead_run = false;
                match &s.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(ctx, then_branch, sink);
                        walk(ctx, else_branch, sink);
                    }
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                        walk(ctx, body, sink)
                    }
                    _ => {}
                }
            }
        }

        walk(ctx, &f.body, sink);
    }
}

// ---------------------------------------------------------------------------
// NFL005 — unused config.

/// `config`/`const` declarations never read anywhere in the program.
/// Dead configuration is a smell: either the knob was meant to gate
/// behaviour and does not, or it should be deleted.
pub struct UnusedConfigPass;

impl LintPass for UnusedConfigPass {
    fn name(&self) -> &'static str {
        "unused-config"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::UnusedConfig]
    }
    fn run(&self, ctx: &AnalysisCtx, sink: &mut LintSink) {
        let mut used: BTreeSet<String> = BTreeSet::new();
        ctx.program().for_each_stmt(|s| {
            used.extend(def_use(s).uses.iter().cloned());
        });
        // A const referenced by another global's initializer is used too.
        let items = ctx
            .program()
            .consts
            .iter()
            .chain(&ctx.program().configs)
            .chain(&ctx.program().states);
        for it in items {
            let mut names = Vec::new();
            collect_vars(&it.init, &mut names);
            used.extend(names);
        }
        for it in ctx.program().consts.iter().chain(&ctx.program().configs) {
            if !used.contains(&it.name) {
                sink.report(Diagnostic::new(
                    Code::UnusedConfig,
                    it.span,
                    Some(it.name.clone()),
                    format!("`{}` is declared but never read", it.name),
                ));
            }
        }
    }
}

fn collect_vars(e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::Var(v) => out.push(v.clone()),
        ExprKind::Field(base, _) => out.push(base.clone()),
        ExprKind::Tuple(es) | ExprKind::Array(es) => {
            for x in es {
                collect_vars(x, out);
            }
        }
        ExprKind::Index(a, b) | ExprKind::Binary(_, a, b) => {
            collect_vars(a, out);
            collect_vars(b, out);
        }
        ExprKind::Unary(_, x) => collect_vars(x, out),
        ExprKind::Call(_, args) => {
            for a in args {
                collect_vars(a, out);
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// NFL006 — use before initialization.

/// A variable read at a point no definition reaches. The type checker
/// rejects unknown names outright, so on checked programs this only
/// fires for genuinely uninitialised paths — it is an [`Code::severity`]
/// error when it does.
pub struct UseBeforeInitPass;

impl LintPass for UseBeforeInitPass {
    fn name(&self) -> &'static str {
        "use-before-init"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::UseBeforeInit]
    }
    fn run(&self, ctx: &AnalysisCtx, sink: &mut LintSink) {
        let cfg = &ctx.pdg.cfg;
        let stmts = ctx.stmt_map();
        let mut seen: HashSet<(String, usize)> = HashSet::new();
        for node in 0..cfg.len() {
            let du = &ctx.pdg.reaching.node_du[node];
            for u in &du.uses {
                if ctx.boundary.contains(u) {
                    continue;
                }
                let reached = ctx.pdg.reaching.reaching_in(node).any(|(v, _)| v == u);
                if reached {
                    continue;
                }
                let Some(sid) = cfg.nodes[node].stmt else {
                    continue;
                };
                let Some(s) = stmts.get(&sid) else { continue };
                if seen.insert((u.clone(), node)) {
                    sink.report(Diagnostic::new(
                        Code::UseBeforeInit,
                        s.span,
                        Some(u.clone()),
                        format!("`{u}` is used here but no definition reaches this point"),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NFL007 — unguarded map read.

/// A read of a `state` map (`m[k]`) with no dominating membership test
/// (`k in m` / `k not in m`) or write to `m`: if the key is absent the
/// NF's behaviour depends on the map's miss semantics, which portable
/// NFL programs must not rely on.
pub struct UnguardedMapReadPass;

impl LintPass for UnguardedMapReadPass {
    fn name(&self) -> &'static str {
        "unguarded-map-read"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::UnguardedMapRead]
    }
    fn run(&self, ctx: &AnalysisCtx, sink: &mut LintSink) {
        let states = ctx.state_names();
        let Some(f) = ctx.program().function(ctx.func()) else {
            return;
        };

        // Per-map guard nodes (membership tests + writes) and read sites.
        let mut guards: Vec<(String, usize)> = Vec::new();
        let mut reads: Vec<(String, usize, nfl_lang::Span)> = Vec::new();

        fn scan_expr(
            states: &BTreeSet<String>,
            node: usize,
            e: &Expr,
            guards: &mut Vec<(String, usize)>,
            reads: &mut Vec<(String, usize, nfl_lang::Span)>,
        ) {
            match &e.kind {
                ExprKind::Index(base, key) => {
                    if let ExprKind::Var(m) = &base.kind {
                        if states.contains(m) {
                            reads.push((m.clone(), node, e.span));
                        }
                    }
                    scan_expr(states, node, base, guards, reads);
                    scan_expr(states, node, key, guards, reads);
                }
                ExprKind::Binary(op, a, b) => {
                    if matches!(op, BinOp::In | BinOp::NotIn) {
                        if let ExprKind::Var(m) = &b.kind {
                            if states.contains(m) {
                                guards.push((m.clone(), node));
                            }
                        }
                    }
                    scan_expr(states, node, a, guards, reads);
                    scan_expr(states, node, b, guards, reads);
                }
                ExprKind::Tuple(es) | ExprKind::Array(es) => {
                    for x in es {
                        scan_expr(states, node, x, guards, reads);
                    }
                }
                ExprKind::Unary(_, x) => scan_expr(states, node, x, guards, reads),
                ExprKind::Call(_, args) => {
                    for a in args {
                        scan_expr(states, node, a, guards, reads);
                    }
                }
                _ => {}
            }
        }

        fn scan_stmts(
            ctx: &AnalysisCtx,
            states: &BTreeSet<String>,
            stmts: &[Stmt],
            guards: &mut Vec<(String, usize)>,
            reads: &mut Vec<(String, usize, nfl_lang::Span)>,
        ) {
            for s in stmts {
                let Some(&node) = ctx.pdg.cfg.stmt_node.get(&s.id) else {
                    continue;
                };
                match &s.kind {
                    StmtKind::Let { value, .. } | StmtKind::Expr(value) => {
                        scan_expr(states, node, value, guards, reads)
                    }
                    StmtKind::Assign { target, value } => {
                        if let LValue::Index(m, key) = target {
                            if states.contains(m) {
                                guards.push((m.clone(), node));
                            }
                            scan_expr(states, node, key, guards, reads);
                        }
                        scan_expr(states, node, value, guards, reads);
                    }
                    StmtKind::If {
                        cond,
                        then_branch,
                        else_branch,
                    } => {
                        scan_expr(states, node, cond, guards, reads);
                        scan_stmts(ctx, states, then_branch, guards, reads);
                        scan_stmts(ctx, states, else_branch, guards, reads);
                    }
                    StmtKind::While { cond, body } => {
                        scan_expr(states, node, cond, guards, reads);
                        scan_stmts(ctx, states, body, guards, reads);
                    }
                    StmtKind::For { iter, body, .. } => {
                        match iter {
                            nfl_lang::ForIter::Range(lo, hi) => {
                                scan_expr(states, node, lo, guards, reads);
                                scan_expr(states, node, hi, guards, reads);
                            }
                            nfl_lang::ForIter::Array(a) => {
                                scan_expr(states, node, a, guards, reads)
                            }
                        }
                        scan_stmts(ctx, states, body, guards, reads);
                    }
                    StmtKind::Return(Some(e)) => scan_expr(states, node, e, guards, reads),
                    _ => {}
                }
            }
        }

        scan_stmts(ctx, &states, &f.body, &mut guards, &mut reads);
        for (m, node, span) in reads {
            let guarded = guards
                .iter()
                .any(|(gm, gn)| *gm == m && *gn != node && ctx.dom.dominates(*gn, node));
            if !guarded {
                sink.report(Diagnostic::new(
                    Code::UnguardedMapRead,
                    span,
                    Some(m.clone()),
                    format!(
                        "read of state map `{m}` is not guarded by any dominating \
                         membership test or insertion"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NFL008 — StateAlyzer consistency.

/// A variable StateAlyzer classified as `logVar` ("never impacts the
/// output") that is nevertheless *used* by a statement inside the packet
/// processing slice. The two analyses answering differently about the
/// same variable means one of them is wrong — an internal error worth
/// failing the build over.
pub struct ClassMismatchPass;

impl LintPass for ClassMismatchPass {
    fn name(&self) -> &'static str {
        "class-mismatch"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::ClassMismatch]
    }
    fn run(&self, ctx: &AnalysisCtx, sink: &mut LintSink) {
        let stmts = ctx.stmt_map();
        let mut reported: BTreeSet<String> = BTreeSet::new();
        let mut sids: Vec<_> = ctx.pkt_slice.iter().copied().collect();
        sids.sort();
        for sid in sids {
            let Some(s) = stmts.get(&sid) else { continue };
            for u in &def_use(s).uses {
                if ctx.classes.log_vars.contains(u) && reported.insert(u.clone()) {
                    sink.report(Diagnostic::new(
                        Code::ClassMismatch,
                        s.span,
                        Some(u.clone()),
                        format!(
                            "`{u}` is classified logVar (never output-impacting) \
                             yet feeds a packet-slice statement here"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// NFL009 — cross-flow state sharing.

/// The headline pass: traces every state-map key back through the
/// def/use chains and decides per-flow vs shared (see [`sharding`]).
pub struct ShardingPass;

impl LintPass for ShardingPass {
    fn name(&self) -> &'static str {
        "sharding"
    }
    fn codes(&self) -> &'static [Code] {
        &[Code::SharedState]
    }
    fn run(&self, ctx: &AnalysisCtx, sink: &mut LintSink) {
        let (report, diags) = sharding::analyze(ctx);
        sink.diagnostics.extend(diags);
        sink.sharding = Some(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_all(src: &str) -> LintSink {
        let p = nfl_lang::parse_and_check(src).unwrap();
        let ctx = AnalysisCtx::build(&p).unwrap();
        PassManager::with_default_passes().run(&ctx)
    }

    fn has(sink: &LintSink, code: Code, var: &str) -> bool {
        sink.diagnostics
            .iter()
            .any(|d| d.code == code && d.var.as_deref() == Some(var))
    }

    #[test]
    fn dead_local_and_states_port() {
        let sink = run_all(
            r#"
            state counter = 0;
            state never = 0;
            fn cb(pkt: packet) {
                let unused = 42;
                counter = counter + 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
            "#,
        );
        assert!(has(&sink, Code::DeadLocal, "unused"));
        assert!(has(&sink, Code::WriteOnlyState, "counter"));
        assert!(has(&sink, Code::DeadState, "never"));
    }

    #[test]
    fn unreachable_after_return() {
        let sink = run_all(
            r#"
            fn cb(pkt: packet) {
                send(pkt);
                return;
                drop(pkt);
            }
            fn main() { sniff(cb); }
            "#,
        );
        let unreachable: Vec<_> = sink
            .diagnostics
            .iter()
            .filter(|d| d.code == Code::UnreachableCode)
            .collect();
        assert_eq!(unreachable.len(), 1, "{unreachable:?}");
    }

    #[test]
    fn read_after_return_does_not_count() {
        let sink = run_all(
            r#"
            state hits = 0;
            fn cb(pkt: packet) {
                hits = hits + 1;
                send(pkt);
                return;
                log(hits);
            }
            fn main() { sniff(cb); }
            "#,
        );
        assert!(has(&sink, Code::WriteOnlyState, "hits"));
    }

    #[test]
    fn unused_config_noted() {
        let sink = run_all(
            r#"
            config USED = 1;
            config UNUSED = 2;
            fn cb(pkt: packet) {
                if pkt.tcp.dport == USED { send(pkt); }
            }
            fn main() { sniff(cb); }
            "#,
        );
        assert!(has(&sink, Code::UnusedConfig, "UNUSED"));
        assert!(!has(&sink, Code::UnusedConfig, "USED"));
    }

    #[test]
    fn config_used_only_by_initializer_counts() {
        let sink = run_all(
            r#"
            const BASE = 1000;
            state next = BASE;
            fn cb(pkt: packet) {
                next = next + 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
            "#,
        );
        assert!(!has(&sink, Code::UnusedConfig, "BASE"));
    }

    #[test]
    fn guarded_map_read_is_clean() {
        let sink = run_all(
            r#"
            state m = map();
            fn cb(pkt: packet) {
                let k = pkt.ip.src;
                if k not in m { m[k] = 0; }
                if m[k] > 3 { drop(pkt); } else { send(pkt); }
            }
            fn main() { sniff(cb); }
            "#,
        );
        assert!(!sink
            .diagnostics
            .iter()
            .any(|d| d.code == Code::UnguardedMapRead));
    }

    #[test]
    fn unguarded_map_read_warns() {
        let sink = run_all(
            r#"
            state m = map();
            fn cb(pkt: packet) {
                if m[pkt.ip.src] > 3 { drop(pkt); } else { send(pkt); }
                m[pkt.ip.src] = 1;
            }
            fn main() { sniff(cb); }
            "#,
        );
        assert!(has(&sink, Code::UnguardedMapRead, "m"));
    }

    #[test]
    fn diagnostics_are_sorted_and_deduped() {
        let sink = run_all(
            r#"
            config A = 1;
            config B = 2;
            state s = 0;
            fn cb(pkt: packet) {
                let x = 1;
                s = s + 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
            "#,
        );
        let keys: Vec<_> = sink.diagnostics.iter().map(|d| d.sort_key()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(keys, sorted);
        // Sharding report is attached.
        assert!(sink.sharding.is_some());
    }

    #[test]
    fn clean_corpus_has_no_errors() {
        use crate::diag::Severity;
        for (name, src) in [
            ("fig1-lb", nf_corpus::fig1_lb::source()),
            ("nat", nf_corpus::nat::source()),
            ("firewall", nf_corpus::firewall::source()),
            ("ratelimiter", nf_corpus::ratelimiter::source()),
        ] {
            let p = nfl_lang::parse_and_check(&src).unwrap();
            let ctx = AnalysisCtx::build(&p).unwrap();
            let sink = PassManager::with_default_passes().run(&ctx);
            assert!(
                sink.diagnostics
                    .iter()
                    .all(|d| d.severity != Severity::Error),
                "{name}: {:?}",
                sink.diagnostics
            );
        }
    }
}
