//! The path-exploration engine.
//!
//! Executes the normalised per-packet function on a fully symbolic packet
//! and (optionally) symbolic configuration and state, forking at every
//! branch whose condition is not concrete and pruning infeasible forks
//! with the [`crate::solver`]. Loops are unrolled up to
//! [`PathLimits::loop_bound`] iterations (§3.2: NF loops are bounded;
//! paths that hit the bound are marked `truncated`). Each completed path
//! records everything Algorithm 1 lines 11–16 need: the branch decisions
//! and constraints (→ match fields), the emitted packets with their
//! field rewrites (→ flow action), and scalar-state updates plus map
//! operations (→ state transition).

use crate::solver::{Solver, Verdict};
use crate::sym::{MapOp, SymPacket, SymVal};
use nf_support::budget::Budget;
use nf_trace::Tracer;
use nfl_analysis::normalize::PacketLoop;
use nfl_lang::{BinOp, Expr, ExprKind, ForIter, LValue, Program, Stmt, StmtId, StmtKind, UnOp};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::time::Instant;

/// Exploration limits (§3.2's loop-bounding and path-budget techniques).
#[derive(Debug, Clone, Copy)]
pub struct PathLimits {
    /// Maximum unrolled iterations per loop.
    pub loop_bound: usize,
    /// Stop exploring after this many completed paths.
    pub max_paths: usize,
    /// Per-path statement budget.
    pub max_steps: usize,
    /// Record the executed-statement set per path (needed for the
    /// per-path LoC metric; cloning it at every fork dominates the cost
    /// of exploring branch-heavy originals, so Table 2's orig runs turn
    /// it off).
    pub track_executed: bool,
}

impl Default for PathLimits {
    fn default() -> Self {
        PathLimits {
            loop_bound: 4,
            max_paths: 4096,
            max_steps: 20_000,
            track_executed: true,
        }
    }
}

/// Engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymexError {
    /// A builtin that cannot appear in a normalised per-packet function.
    BadBuiltin(String),
    /// A user function call survived inlining.
    UnresolvedCall(String),
    /// Malformed program (unknown variable etc.).
    Malformed(String),
}

impl fmt::Display for SymexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymexError::BadBuiltin(n) => {
                write!(f, "builtin `{n}` invalid in per-packet function")
            }
            SymexError::UnresolvedCall(n) => write!(f, "un-inlined call to `{n}`"),
            SymexError::Malformed(m) => write!(f, "malformed program: {m}"),
        }
    }
}

impl std::error::Error for SymexError {}

/// One fully-explored execution path.
#[derive(Debug, Clone)]
pub struct Path {
    /// Path condition: boolean terms asserted true, in branch order.
    pub constraints: Vec<SymVal>,
    /// `(branch stmt, taken?)` decisions — `GetConditionStatements(p)`.
    pub decisions: Vec<(StmtId, bool)>,
    /// Packets emitted along the path (symbolic; empty = drop).
    pub outputs: Vec<SymPacket>,
    /// Final symbolic values of scalar state variables that changed.
    pub state_updates: BTreeMap<String, SymVal>,
    /// Map mutations in order.
    pub map_ops: Vec<MapOp>,
    /// Statements the path executed.
    pub executed: BTreeSet<StmtId>,
    /// Did the path hit the loop bound?
    pub truncated: bool,
}

impl Path {
    /// The paper's implicit low-priority drop: no output ⇒ drop (§3.2).
    pub fn is_drop(&self) -> bool {
        self.outputs.is_empty()
    }

    /// A canonical one-line rendering (used for path-set equality in the
    /// §5 accuracy experiment).
    pub fn canonical(&self) -> String {
        let cs: Vec<String> = self.constraints.iter().map(|c| c.to_string()).collect();
        let outs: Vec<String> = self
            .outputs
            .iter()
            .map(|p| {
                let rw: Vec<String> = p
                    .rewrites()
                    .iter()
                    .map(|(f, v)| format!("{}={v}", f.path()))
                    .collect();
                format!("send[{}]", rw.join(","))
            })
            .collect();
        let sts: Vec<String> = self
            .state_updates
            .iter()
            .map(|(k, v)| format!("{k}:={v}"))
            .collect();
        let maps: Vec<String> = self.map_ops.iter().map(|m| m.to_string()).collect();
        format!(
            "IF {} THEN {} STATE {} MAPS {}",
            cs.join(" && "),
            outs.join(";"),
            sts.join(";"),
            maps.join(";")
        )
    }
}

/// Aggregate exploration result.
#[derive(Debug, Clone)]
pub struct ExplorationStats {
    /// All completed paths.
    pub paths: Vec<Path>,
    /// False if `max_paths` cut exploration short (Table 2's ">1000").
    pub exhausted: bool,
    /// Solver invocations (for the efficiency benches).
    pub solver_calls: usize,
    /// Branch forks taken on symbolic conditions (`if`/`while` with an
    /// undecided guard). Each fork spawns up to two feasibility checks.
    pub forks: usize,
    /// Forked states discarded because their path condition was UNSAT.
    pub pruned: usize,
    /// Why exploration stopped early (`None` when it ran to completion):
    /// path cap, wall-clock deadline, or solver-call budget. Set iff
    /// `exhausted` is false; the pipeline turns it into
    /// `Completeness::Truncated`.
    pub stop_reason: Option<String>,
}

/// Mutable exploration bookkeeping threaded through `run_block` /
/// `run_stmt` / `push_and_check`: counters plus the effective limits and
/// the budget's hard stops.
struct ExploreCtx {
    limits: PathLimits,
    solver_calls: usize,
    forks: usize,
    pruned: usize,
    exhausted: bool,
    stop_reason: Option<String>,
    deadline: Option<Instant>,
    max_solver_calls: Option<usize>,
    /// Deadline checks read this tracer's clock, never `Instant::now()`
    /// directly, so budget expiry is mockable alongside the timings.
    tracer: Tracer,
}

impl ExploreCtx {
    fn new(limits: PathLimits, budget: &Budget, tracer: Tracer) -> ExploreCtx {
        ExploreCtx {
            limits,
            solver_calls: 0,
            forks: 0,
            pruned: 0,
            exhausted: true,
            stop_reason: None,
            deadline: budget.deadline,
            max_solver_calls: budget.max_solver_calls,
            tracer,
        }
    }

    /// Record an early stop; the first reason wins.
    fn stop(&mut self, reason: String) {
        self.exhausted = false;
        if self.stop_reason.is_none() {
            self.stop_reason = Some(reason);
        }
    }

    /// Should exploration halt now? Checked between statements — once
    /// true, every enclosing `run_block` unwinds, marking in-flight
    /// states truncated so their partial paths still become entries.
    fn budget_stop(&mut self) -> bool {
        if self.stop_reason.is_some() {
            return true;
        }
        if self.deadline.is_some_and(|d| self.tracer.now() >= d) {
            self.stop("wall-clock deadline exceeded during symbolic execution".into());
            return true;
        }
        if let Some(cap) = self.max_solver_calls {
            if self.solver_calls >= cap {
                self.stop(format!("solver-call budget exhausted ({cap} calls)"));
                return true;
            }
        }
        false
    }
}

/// Environment values.
#[derive(Debug, Clone, PartialEq)]
enum SV {
    Val(SymVal),
    Packet(SymPacket),
    /// An array of packets (result of `fragment`); `for` binds each.
    PacketArray(Vec<SymPacket>),
    MapRef(String),
    Unit,
}

impl SV {
    fn val(self) -> Result<SymVal, SymexError> {
        match self {
            SV::Val(v) => Ok(v),
            other => Err(SymexError::Malformed(format!(
                "expected scalar, got {other:?}"
            ))),
        }
    }
}

/// Per-path view of one state map: an overlay of writes plus membership
/// facts learned from forks.
#[derive(Debug, Clone, Default, PartialEq)]
struct MapState {
    /// Ordered writes: key → Some(value) for insert, None for remove.
    writes: Vec<(SymVal, Option<SymVal>)>,
    /// Membership facts from forks: key → contained?
    facts: Vec<(SymVal, bool)>,
}

impl MapState {
    /// What do we know about `key`'s membership?
    fn contains(&self, key: &SymVal) -> Option<bool> {
        for (k, w) in self.writes.iter().rev() {
            if k == key {
                return Some(w.is_some());
            }
        }
        for (k, f) in self.facts.iter().rev() {
            if k == key {
                return Some(*f);
            }
        }
        None
    }

    /// What value would a lookup return, if determinable?
    fn get(&self, key: &SymVal) -> Option<SymVal> {
        for (k, w) in self.writes.iter().rev() {
            if k == key {
                return w.clone();
            }
        }
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Normal,
    Returned,
    Broke,
    Continued,
}

#[derive(Debug, Clone)]
struct ExecState {
    env: HashMap<String, SV>,
    maps: HashMap<String, MapState>,
    constraints: Vec<SymVal>,
    /// Free variables mentioned anywhere in `constraints` — used for the
    /// disjointness fast path at forks.
    constraint_vars: HashSet<SymVal>,
    decisions: Vec<(StmtId, bool)>,
    outputs: Vec<SymPacket>,
    map_ops: Vec<MapOp>,
    executed: BTreeSet<StmtId>,
    truncated: bool,
    flow: Flow,
    steps: usize,
}

/// The symbolic executor for one normalised NF.
pub struct SymExec {
    program: Program,
    func: String,
    pkt_param: String,
    /// Exploration limits.
    pub limits: PathLimits,
    /// Wall-clock / solver-call budget; tightens `limits` and adds the
    /// hard stops `PathLimits` can't express.
    pub budget: Budget,
    /// Observability handle; deadline checks and the `symex.explore`
    /// span both run off its clock. Disabled by default.
    pub tracer: Tracer,
    solver: Solver,
}

impl SymExec {
    /// Create an executor for a normalised packet loop.
    pub fn new(pl: &PacketLoop) -> SymExec {
        SymExec {
            program: pl.program.clone(),
            func: pl.func.clone(),
            pkt_param: pl.pkt_param.clone(),
            limits: PathLimits::default(),
            budget: Budget::unlimited(),
            tracer: Tracer::disabled(),
            solver: Solver,
        }
    }

    /// Override limits.
    pub fn with_limits(mut self, limits: PathLimits) -> SymExec {
        self.limits = limits;
        self
    }

    /// Attach a budget (deadline / solver-call cap, plus optional
    /// tightening of the path and step caps).
    pub fn with_budget(mut self, budget: Budget) -> SymExec {
        self.budget = budget;
        self
    }

    /// Attach a tracer (threaded from the pipeline alongside the
    /// budget). All exploration timing runs off its clock.
    pub fn with_tracer(mut self, tracer: Tracer) -> SymExec {
        self.tracer = tracer;
        self
    }

    /// Evaluate a global initialiser concretely (globals may only use
    /// literals, constructors and earlier globals).
    fn init_value(&self, e: &Expr, env: &HashMap<String, SV>) -> Result<SV, SymexError> {
        match &e.kind {
            ExprKind::Int(v) => Ok(SV::Val(SymVal::Int(*v))),
            ExprKind::Bool(b) => Ok(SV::Val(SymVal::Bool(*b))),
            ExprKind::Str(s) => Ok(SV::Val(SymVal::Str(s.clone()))),
            ExprKind::Var(v) => env
                .get(v)
                .cloned()
                .ok_or_else(|| SymexError::Malformed(format!("init uses unknown `{v}`"))),
            ExprKind::Tuple(es) => {
                let mut items = Vec::new();
                for x in es {
                    items.push(self.init_value(x, env)?.val()?);
                }
                Ok(SV::Val(SymVal::Tuple(items)))
            }
            ExprKind::Array(es) => {
                let mut items = Vec::new();
                for x in es {
                    items.push(self.init_value(x, env)?.val()?);
                }
                Ok(SV::Val(SymVal::Array(items)))
            }
            ExprKind::Call(name, _) if name == "map" => Ok(SV::Unit), // handled by caller
            ExprKind::Call(name, _) if name == "queue" => Ok(SV::Unit),
            ExprKind::Binary(op, a, b) => {
                let va = self.init_value(a, env)?.val()?;
                let vb = self.init_value(b, env)?.val()?;
                Ok(SV::Val(SymVal::bin(*op, va, vb)))
            }
            other => Err(SymexError::Malformed(format!(
                "unsupported global initialiser {other:?}"
            ))),
        }
    }

    fn initial_state(&self) -> Result<ExecState, SymexError> {
        let mut env: HashMap<String, SV> = HashMap::new();
        let mut maps: HashMap<String, MapState> = HashMap::new();
        // Consts: concrete.
        for item in &self.program.consts {
            let v = self.init_value(&item.init, &env)?;
            env.insert(item.name.clone(), v);
        }
        // Configs: symbolic scalars; compound stay concrete — a
        // deployment's backend list is data, not a knob the table
        // enumerates.
        for item in &self.program.configs {
            let v = match self.init_value(&item.init, &env)? {
                SV::Val(SymVal::Int(_)) | SV::Val(SymVal::Bool(_)) => {
                    SV::Val(SymVal::Cfg(item.name.clone()))
                }
                concrete => concrete,
            };
            env.insert(item.name.clone(), v);
        }
        // States: scalars symbolic, maps symbolic-empty overlays.
        for item in &self.program.states {
            match &item.init.kind {
                ExprKind::Call(n, _) if n == "map" => {
                    maps.insert(item.name.clone(), MapState::default());
                    env.insert(item.name.clone(), SV::MapRef(item.name.clone()));
                }
                ExprKind::Call(n, _) if n == "queue" => {
                    env.insert(item.name.clone(), SV::Unit);
                }
                _ => {
                    env.insert(item.name.clone(), SV::Val(SymVal::St(item.name.clone())));
                }
            }
        }
        env.insert(self.pkt_param.clone(), SV::Packet(SymPacket::fresh()));
        Ok(ExecState {
            env,
            maps,
            constraints: Vec::new(),
            constraint_vars: HashSet::new(),
            decisions: Vec::new(),
            outputs: Vec::new(),
            map_ops: Vec::new(),
            executed: BTreeSet::new(),
            truncated: false,
            flow: Flow::Normal,
            steps: 0,
        })
    }

    /// Explore all paths of the per-packet function.
    pub fn explore(&self) -> Result<ExplorationStats, SymexError> {
        let span = self.tracer.span("symex.explore");
        let f = self
            .program
            .function(&self.func)
            .ok_or_else(|| SymexError::Malformed(format!("no function `{}`", self.func)))?
            .clone();
        let init = self.initial_state()?;
        let mut cx = ExploreCtx::new(self.limits, &self.budget, self.tracer.clone());
        let finals = self.run_block(vec![init], &f.body, &mut cx)?;
        let state_names: BTreeSet<String> =
            self.program.states.iter().map(|i| i.name.clone()).collect();
        let paths = finals
            .into_iter()
            .map(|st| {
                let mut state_updates = BTreeMap::new();
                for name in &state_names {
                    if let Some(SV::Val(v)) = st.env.get(name) {
                        if !matches!(v, SymVal::St(n) if n == name) {
                            state_updates.insert(name.clone(), v.clone());
                        }
                    }
                }
                Path {
                    constraints: st.constraints,
                    decisions: st.decisions,
                    outputs: st.outputs,
                    state_updates,
                    map_ops: st.map_ops,
                    executed: st.executed,
                    truncated: st.truncated,
                }
            })
            .collect::<Vec<Path>>();
        span.end();
        if self.tracer.is_enabled() {
            self.tracer
                .count("symex.paths.explored", paths.len() as u64);
            self.tracer
                .count("symex.solver.calls", cx.solver_calls as u64);
            self.tracer.count("symex.forks", cx.forks as u64);
            self.tracer.count("symex.paths.pruned", cx.pruned as u64);
            let truncated = paths.iter().filter(|p| p.truncated).count();
            self.tracer.count("symex.paths.truncated", truncated as u64);
            for (i, p) in paths.iter().enumerate() {
                self.tracer.instant_with(
                    "symex.path",
                    &[
                        ("index", i as i64),
                        ("constraints", p.constraints.len() as i64),
                        ("outputs", p.outputs.len() as i64),
                    ],
                );
            }
        }
        Ok(ExplorationStats {
            paths,
            exhausted: cx.exhausted,
            solver_calls: cx.solver_calls,
            forks: cx.forks,
            pruned: cx.pruned,
            stop_reason: cx.stop_reason,
        })
    }

    fn run_block(
        &self,
        states: Vec<ExecState>,
        stmts: &[Stmt],
        cx: &mut ExploreCtx,
    ) -> Result<Vec<ExecState>, SymexError> {
        let mut states = states;
        for s in stmts {
            if cx.budget_stop() {
                // Unwind gracefully: in-flight states become truncated
                // partial paths rather than being discarded.
                for stt in &mut states {
                    if stt.flow == Flow::Normal {
                        stt.truncated = true;
                    }
                }
                return Ok(states);
            }
            let mut next = Vec::new();
            for st in states {
                if st.flow != Flow::Normal {
                    next.push(st);
                    continue;
                }
                next.extend(self.run_stmt(st, s, cx)?);
                if next.len() > cx.limits.max_paths {
                    cx.stop(format!(
                        "path budget exhausted ({} paths)",
                        cx.limits.max_paths
                    ));
                    next.truncate(cx.limits.max_paths);
                }
            }
            states = next;
        }
        Ok(states)
    }

    fn run_stmt(
        &self,
        mut st: ExecState,
        s: &Stmt,
        cx: &mut ExploreCtx,
    ) -> Result<Vec<ExecState>, SymexError> {
        st.steps += 1;
        if st.steps > cx.limits.max_steps {
            st.truncated = true;
            st.flow = Flow::Returned;
            return Ok(vec![st]);
        }
        if cx.limits.track_executed {
            st.executed.insert(s.id);
        }
        match &s.kind {
            StmtKind::Let { name, value } => {
                let v = self.eval(&mut st, value)?;
                st.env.insert(name.clone(), v);
                Ok(vec![st])
            }
            StmtKind::Assign { target, value } => {
                let v = self.eval(&mut st, value)?;
                self.assign(&mut st, target, v)?;
                Ok(vec![st])
            }
            StmtKind::Expr(e) => {
                self.eval(&mut st, e)?;
                Ok(vec![st])
            }
            StmtKind::Return(_) => {
                st.flow = Flow::Returned;
                Ok(vec![st])
            }
            StmtKind::Break => {
                st.flow = Flow::Broke;
                Ok(vec![st])
            }
            StmtKind::Continue => {
                st.flow = Flow::Continued;
                Ok(vec![st])
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(&mut st, cond)?.val()?;
                let mut out = Vec::new();
                match c.as_bool() {
                    Some(true) => {
                        st.decisions.push((s.id, true));
                        out.extend(self.run_block(vec![st], then_branch, cx)?);
                    }
                    Some(false) => {
                        st.decisions.push((s.id, false));
                        out.extend(self.run_block(vec![st], else_branch, cx)?);
                    }
                    None => {
                        cx.forks += 1;
                        for (taken, branch) in [(true, then_branch), (false, else_branch)] {
                            let mut forked = st.clone();
                            let lit = if taken {
                                c.clone()
                            } else {
                                SymVal::negate(c.clone())
                            };
                            forked.decisions.push((s.id, taken));
                            if !self.push_and_check(&mut forked, lit, cx) {
                                continue;
                            }
                            out.extend(self.run_block(vec![forked], branch, cx)?);
                        }
                    }
                }
                Ok(out)
            }
            StmtKind::While { cond, body } => self.run_loop(st, s, cond, body, cx),
            StmtKind::For { var, iter, body } => {
                match iter {
                    ForIter::Range(lo, hi) => {
                        let lov = self.eval(&mut st, lo)?.val()?;
                        let hiv = self.eval(&mut st, hi)?.val()?;
                        match (lov.as_int(), hiv.as_int()) {
                            (Some(a), Some(b)) => {
                                let mut states = vec![st];
                                let count = (b - a).max(0) as usize;
                                let bounded = count.min(cx.limits.loop_bound);
                                for (iter_no, i) in (a..b).take(bounded).enumerate() {
                                    let _ = iter_no;
                                    let mut next = Vec::new();
                                    for mut stt in states {
                                        if stt.flow != Flow::Normal {
                                            next.push(stt);
                                            continue;
                                        }
                                        stt.env.insert(var.clone(), SV::Val(SymVal::Int(i)));
                                        next.extend(self.run_block(vec![stt], body, cx)?);
                                    }
                                    // Convert Broke/Continued flows.
                                    states = next
                                        .into_iter()
                                        .map(|mut stt| {
                                            if stt.flow == Flow::Continued {
                                                stt.flow = Flow::Normal;
                                            }
                                            stt
                                        })
                                        .collect();
                                    if states.iter().all(|x| x.flow != Flow::Normal) {
                                        break;
                                    }
                                }
                                if count > bounded {
                                    for stt in &mut states {
                                        stt.truncated = true;
                                    }
                                }
                                Ok(states
                                    .into_iter()
                                    .map(|mut stt| {
                                        if stt.flow == Flow::Broke {
                                            stt.flow = Flow::Normal;
                                        }
                                        stt
                                    })
                                    .collect())
                            }
                            _ => {
                                // Symbolic bounds: §3.2's input-dependent
                                // loop; truncate.
                                st.truncated = true;
                                Ok(vec![st])
                            }
                        }
                    }
                    ForIter::Array(arr) => {
                        let av = self.eval(&mut st, arr)?;
                        let items: Vec<SV> = match av {
                            SV::Val(SymVal::Array(items)) => {
                                items.into_iter().map(SV::Val).collect()
                            }
                            SV::PacketArray(pkts) => pkts.into_iter().map(SV::Packet).collect(),
                            SV::Val(other) => vec![SV::Val(other)],
                            _ => return Err(SymexError::Malformed("for-in over non-array".into())),
                        };
                        let mut states = vec![st];
                        for item in items.into_iter().take(cx.limits.loop_bound) {
                            let mut next = Vec::new();
                            for mut stt in states {
                                if stt.flow != Flow::Normal {
                                    next.push(stt);
                                    continue;
                                }
                                stt.env.insert(var.clone(), item.clone());
                                next.extend(self.run_block(vec![stt], body, cx)?);
                            }
                            states = next
                                .into_iter()
                                .map(|mut stt| {
                                    if stt.flow == Flow::Continued {
                                        stt.flow = Flow::Normal;
                                    }
                                    stt
                                })
                                .collect();
                        }
                        Ok(states
                            .into_iter()
                            .map(|mut stt| {
                                if stt.flow == Flow::Broke {
                                    stt.flow = Flow::Normal;
                                }
                                stt
                            })
                            .collect())
                    }
                }
            }
        }
    }

    /// Packet iteration special case: `for f in fragment(pkt, n)` — the
    /// forwarding model treats fragmentation as identity (one symbolic
    /// fragment). Loops over packet arrays bind the packet itself.
    fn run_loop(
        &self,
        st: ExecState,
        s: &Stmt,
        cond: &Expr,
        body: &[Stmt],
        cx: &mut ExploreCtx,
    ) -> Result<Vec<ExecState>, SymexError> {
        let mut done: Vec<ExecState> = Vec::new();
        let mut active = vec![st];
        for _round in 0..cx.limits.loop_bound {
            let mut continuing = Vec::new();
            for mut stt in active {
                if stt.flow != Flow::Normal {
                    done.push(stt);
                    continue;
                }
                let c = self.eval(&mut stt, cond)?.val()?;
                match c.as_bool() {
                    Some(false) => {
                        stt.decisions.push((s.id, false));
                        done.push(stt);
                    }
                    Some(true) => {
                        stt.decisions.push((s.id, true));
                        let after = self.run_block(vec![stt], body, cx)?;
                        for mut a in after {
                            match a.flow {
                                Flow::Broke => {
                                    a.flow = Flow::Normal;
                                    done.push(a);
                                }
                                Flow::Continued | Flow::Normal => {
                                    a.flow = Flow::Normal;
                                    continuing.push(a);
                                }
                                Flow::Returned => done.push(a),
                            }
                        }
                    }
                    None => {
                        // Fork exit and entry.
                        cx.forks += 1;
                        let mut exit = stt.clone();
                        exit.decisions.push((s.id, false));
                        if self.push_and_check(&mut exit, SymVal::negate(c.clone()), cx) {
                            done.push(exit);
                        }
                        let mut enter = stt;
                        enter.decisions.push((s.id, true));
                        if self.push_and_check(&mut enter, c.clone(), cx) {
                            let after = self.run_block(vec![enter], body, cx)?;
                            for mut a in after {
                                match a.flow {
                                    Flow::Broke => {
                                        a.flow = Flow::Normal;
                                        done.push(a);
                                    }
                                    Flow::Continued | Flow::Normal => {
                                        a.flow = Flow::Normal;
                                        continuing.push(a);
                                    }
                                    Flow::Returned => done.push(a),
                                }
                            }
                        }
                    }
                }
            }
            active = continuing;
            if active.is_empty() {
                break;
            }
        }
        // Anything still active hit the loop bound.
        for mut stt in active {
            stt.truncated = true;
            done.push(stt);
        }
        Ok(done)
    }

    /// Push `lit` onto a state's path condition and decide feasibility.
    ///
    /// Fast path: when the literal shares no free variables with the
    /// existing condition, checking the literal alone is equivalent to
    /// the full conjunction check — on branch-heavy NFs (the snort rule
    /// chain) this removes the quadratic re-checking the paper's ">1 hr"
    /// cell suffers from. Map-membership consistency is enforced by the
    /// engine's overlay facts independently of the solver.
    fn push_and_check(&self, st: &mut ExecState, lit: SymVal, cx: &mut ExploreCtx) -> bool {
        let lit_vars = lit.free_vars();
        let disjoint = lit_vars.iter().all(|v| !st.constraint_vars.contains(*v));
        st.constraint_vars.extend(lit_vars.into_iter().cloned());
        self.learn_map_fact(st, &lit);
        st.constraints.push(lit);
        cx.solver_calls += 1;
        let feasible = if disjoint {
            self.solver
                .check(std::slice::from_ref(st.constraints.last().unwrap()))
                != Verdict::Unsat
        } else {
            self.solver.check(&st.constraints) != Verdict::Unsat
        };
        if !feasible {
            cx.pruned += 1;
        }
        feasible
    }

    /// If a freshly asserted literal is a map-membership fact, record it
    /// in the map overlay so later queries resolve concretely.
    fn learn_map_fact(&self, st: &mut ExecState, lit: &SymVal) {
        match lit {
            SymVal::MapContains(m, k) => {
                if let Some(ms) = st.maps.get_mut(m) {
                    ms.facts.push(((**k).clone(), true));
                }
            }
            SymVal::Not(inner) => {
                if let SymVal::MapContains(m, k) = &**inner {
                    if let Some(ms) = st.maps.get_mut(m) {
                        ms.facts.push(((**k).clone(), false));
                    }
                }
            }
            _ => {}
        }
    }

    fn assign(&self, st: &mut ExecState, target: &LValue, v: SV) -> Result<(), SymexError> {
        match target {
            LValue::Var(name) => {
                st.env.insert(name.clone(), v);
                Ok(())
            }
            LValue::Index(base, key) => {
                let k = self.eval(st, key)?.val()?;
                let slot = st.env.get(base).cloned();
                match slot {
                    Some(SV::MapRef(mname)) => {
                        let value = v.val()?;
                        st.map_ops.push(MapOp::Insert {
                            map: mname.clone(),
                            key: k.clone(),
                            value: value.clone(),
                        });
                        st.maps
                            .entry(mname)
                            .or_default()
                            .writes
                            .push((k, Some(value)));
                        Ok(())
                    }
                    Some(SV::Val(SymVal::Array(items))) => {
                        let mut items = items;
                        let idx = k.as_int().ok_or_else(|| {
                            SymexError::Malformed("symbolic array store index".into())
                        })?;
                        let i = usize::try_from(idx)
                            .map_err(|_| SymexError::Malformed("negative array index".into()))?;
                        if i >= items.len() {
                            return Err(SymexError::Malformed("array store OOB".into()));
                        }
                        items[i] = v.val()?;
                        st.env.insert(base.clone(), SV::Val(SymVal::Array(items)));
                        Ok(())
                    }
                    _ => Err(SymexError::Malformed(format!("index-assign into `{base}`"))),
                }
            }
            LValue::Field(base, field) => {
                let value = v.val()?;
                match st.env.get_mut(base) {
                    Some(SV::Packet(p)) => {
                        p.set(*field, value);
                        Ok(())
                    }
                    _ => Err(SymexError::Malformed(format!(
                        "field store on non-packet `{base}`"
                    ))),
                }
            }
        }
    }

    fn eval(&self, st: &mut ExecState, e: &Expr) -> Result<SV, SymexError> {
        match &e.kind {
            ExprKind::Int(v) => Ok(SV::Val(SymVal::Int(*v))),
            ExprKind::Bool(b) => Ok(SV::Val(SymVal::Bool(*b))),
            ExprKind::Str(s) => Ok(SV::Val(SymVal::Str(s.clone()))),
            ExprKind::Var(name) => st
                .env
                .get(name)
                .cloned()
                .ok_or_else(|| SymexError::Malformed(format!("unbound `{name}`"))),
            ExprKind::Field(base, field) => match st.env.get(base) {
                Some(SV::Packet(p)) => Ok(SV::Val(p.get(*field))),
                _ => Err(SymexError::Malformed(format!(
                    "field read on non-packet `{base}`"
                ))),
            },
            ExprKind::Tuple(es) => {
                let mut items = Vec::new();
                for x in es {
                    items.push(self.eval(st, x)?.val()?);
                }
                Ok(SV::Val(SymVal::Tuple(items)))
            }
            ExprKind::Array(es) => {
                let mut items = Vec::new();
                for x in es {
                    items.push(self.eval(st, x)?.val()?);
                }
                Ok(SV::Val(SymVal::Array(items)))
            }
            ExprKind::Index(base, idx) => {
                let b = self.eval(st, base)?;
                let i = self.eval(st, idx)?.val()?;
                match b {
                    SV::MapRef(mname) => {
                        let ms = st.maps.entry(mname.clone()).or_default();
                        if let Some(v) = ms.get(&i) {
                            return Ok(SV::Val(v));
                        }
                        Ok(SV::Val(SymVal::MapGet(mname, Box::new(i))))
                    }
                    SV::Val(SymVal::Array(items)) => match i.as_int() {
                        Some(n) => {
                            let ix = usize::try_from(n)
                                .map_err(|_| SymexError::Malformed("negative index".into()))?;
                            items
                                .get(ix)
                                .cloned()
                                .map(SV::Val)
                                .ok_or_else(|| SymexError::Malformed("array index OOB".into()))
                        }
                        None => Ok(SV::Val(SymVal::ArrayGet(
                            Box::new(SymVal::Array(items)),
                            Box::new(i),
                        ))),
                    },
                    SV::Val(SymVal::Tuple(items)) => match i.as_int() {
                        Some(n) => {
                            let ix = usize::try_from(n)
                                .map_err(|_| SymexError::Malformed("negative index".into()))?;
                            items
                                .get(ix)
                                .cloned()
                                .map(SV::Val)
                                .ok_or_else(|| SymexError::Malformed("tuple index OOB".into()))
                        }
                        None => Err(SymexError::Malformed("symbolic tuple index".into())),
                    },
                    SV::Val(other) => {
                        // Projection from a symbolic tuple-valued term.
                        match i.as_int() {
                            Some(n) => Ok(SV::Val(SymVal::proj(
                                other,
                                usize::try_from(n)
                                    .map_err(|_| SymexError::Malformed("negative index".into()))?,
                            ))),
                            None => Ok(SV::Val(SymVal::ArrayGet(Box::new(other), Box::new(i)))),
                        }
                    }
                    _ => Err(SymexError::Malformed("indexing non-container".into())),
                }
            }
            ExprKind::Binary(op, a, b) => {
                // Membership over maps is special-cased; everything else
                // is a term.
                if matches!(op, BinOp::In | BinOp::NotIn) {
                    let key = self.eval(st, a)?.val()?;
                    let container = self.eval(st, b)?;
                    return match container {
                        SV::MapRef(mname) => {
                            let ms = st.maps.entry(mname.clone()).or_default();
                            let known = ms.contains(&key);
                            let v = match known {
                                Some(c) => SymVal::Bool(c),
                                None => SymVal::MapContains(mname, Box::new(key)),
                            };
                            Ok(SV::Val(if *op == BinOp::NotIn {
                                SymVal::negate(v)
                            } else {
                                v
                            }))
                        }
                        SV::Val(SymVal::Array(items)) => {
                            // Membership in a concrete array: disjunction
                            // of equalities.
                            let mut acc = SymVal::Bool(false);
                            for item in items {
                                acc = SymVal::bin(
                                    BinOp::Or,
                                    acc,
                                    SymVal::bin(BinOp::Eq, key.clone(), item),
                                );
                            }
                            Ok(SV::Val(if *op == BinOp::NotIn {
                                SymVal::negate(acc)
                            } else {
                                acc
                            }))
                        }
                        _ => Err(SymexError::Malformed("`in` over non-container".into())),
                    };
                }
                let va = self.eval(st, a)?.val()?;
                let vb = self.eval(st, b)?.val()?;
                Ok(SV::Val(SymVal::bin(*op, va, vb)))
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval(st, inner)?.val()?;
                Ok(SV::Val(match op {
                    UnOp::Not => SymVal::negate(v),
                    UnOp::Neg => match v {
                        SymVal::Int(i) => SymVal::Int(-i),
                        other => SymVal::Neg(Box::new(other)),
                    },
                }))
            }
            ExprKind::Call(name, args) => self.eval_call(st, name, args),
        }
    }

    fn eval_call(&self, st: &mut ExecState, name: &str, args: &[Expr]) -> Result<SV, SymexError> {
        match name {
            "send" => {
                let p = self.eval(st, &args[0])?;
                match p {
                    SV::Packet(pkt) => {
                        st.outputs.push(pkt);
                        Ok(SV::Unit)
                    }
                    _ => Err(SymexError::Malformed("send of non-packet".into())),
                }
            }
            "drop" | "log" => {
                for a in args {
                    self.eval(st, a)?;
                }
                Ok(SV::Unit)
            }
            "hash" => {
                let v = self.eval(st, &args[0])?.val()?;
                Ok(SV::Val(SymVal::Hash(Box::new(v))))
            }
            "len" => {
                let v = self.eval(st, &args[0])?;
                match v {
                    SV::Val(SymVal::Array(items)) => Ok(SV::Val(SymVal::Int(items.len() as i64))),
                    SV::Val(SymVal::Tuple(items)) => Ok(SV::Val(SymVal::Int(items.len() as i64))),
                    SV::Val(SymVal::Str(s)) => Ok(SV::Val(SymVal::Int(s.len() as i64))),
                    SV::Packet(_) => Ok(SV::Val(SymVal::pkt_len())),
                    SV::MapRef(m) => Ok(SV::Val(SymVal::map_len(&m))),
                    _ => Err(SymexError::Malformed("len of unsupported value".into())),
                }
            }
            "min" | "max" => {
                let a = self.eval(st, &args[0])?.val()?;
                let b = self.eval(st, &args[1])?.val()?;
                if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
                    Ok(SV::Val(SymVal::Int(if name == "min" {
                        x.min(y)
                    } else {
                        x.max(y)
                    })))
                } else if name == "min" {
                    Ok(SV::Val(SymVal::Min(Box::new(a), Box::new(b))))
                } else {
                    Ok(SV::Val(SymVal::Max(Box::new(a), Box::new(b))))
                }
            }
            "checksum" => {
                let _ = self.eval(st, &args[0])?;
                Ok(SV::Val(SymVal::checksum()))
            }
            "fragment" => {
                // Forwarding model: fragmentation is identity (§2.3 —
                // the model captures forwarding, not MTU mechanics), so
                // symbolically a packet fragments into itself.
                let p = self.eval(st, &args[0])?;
                let _ = self.eval(st, &args[1])?;
                match p {
                    SV::Packet(pkt) => Ok(SV::PacketArray(vec![pkt])),
                    _ => Err(SymexError::Malformed("fragment of non-packet".into())),
                }
            }
            "map_remove" => {
                let ExprKind::Var(base) = &args[0].kind else {
                    return Err(SymexError::Malformed("map_remove target".into()));
                };
                let k = self.eval(st, &args[1])?.val()?;
                let Some(SV::MapRef(mname)) = st.env.get(base).cloned() else {
                    return Err(SymexError::Malformed("map_remove on non-map".into()));
                };
                st.map_ops.push(MapOp::Remove {
                    map: mname.clone(),
                    key: k.clone(),
                });
                st.maps.entry(mname).or_default().writes.push((k, None));
                Ok(SV::Unit)
            }
            "recv" | "sniff" | "spawn" | "q_push" | "q_pop" => {
                Err(SymexError::BadBuiltin(name.to_string()))
            }
            "listen" | "accept" | "connect" | "sock_read" | "sock_write" | "sock_close"
            | "fork" | "select2" => Err(SymexError::BadBuiltin(name.to_string())),
            other => {
                if nfl_lang::builtins::lookup(other).is_some() {
                    Err(SymexError::BadBuiltin(other.to_string()))
                } else {
                    Err(SymexError::UnresolvedCall(other.to_string()))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_analysis::normalize::normalize;
    use nfl_lang::parse_and_check;

    fn explore(src: &str) -> ExplorationStats {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        SymExec::new(&pl).explore().unwrap()
    }

    #[test]
    fn straight_line_one_path() {
        let stats = explore(
            r#"
            fn cb(pkt: packet) { send(pkt); }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(stats.paths.len(), 1);
        assert!(stats.exhausted);
        assert!(!stats.paths[0].is_drop());
        assert!(stats.paths[0].constraints.is_empty());
    }

    #[test]
    fn one_branch_two_paths() {
        let stats = explore(
            r#"
            config PORT = 80;
            fn cb(pkt: packet) {
                if pkt.tcp.dport == PORT { send(pkt); }
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(stats.paths.len(), 2);
        let sends: Vec<_> = stats.paths.iter().filter(|p| !p.is_drop()).collect();
        let drops: Vec<_> = stats.paths.iter().filter(|p| p.is_drop()).collect();
        assert_eq!(sends.len(), 1);
        assert_eq!(drops.len(), 1);
        assert_eq!(
            sends[0].constraints[0].to_string(),
            "(pkt.tcp.dport == cfg:PORT)"
        );
    }

    #[test]
    fn infeasible_path_pruned() {
        let stats = explore(
            r#"
            fn cb(pkt: packet) {
                if pkt.ip.ttl > 10 {
                    if pkt.ip.ttl < 5 {
                        send(pkt);
                    }
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        // ttl>10 && ttl<5 is unsat: only 2 feasible paths (ttl<=10; ttl>10&&ttl>=5).
        assert_eq!(stats.paths.len(), 2);
        assert!(stats.paths.iter().all(|p| p.is_drop()));
    }

    #[test]
    fn map_membership_forks_new_vs_existing() {
        let stats = explore(
            r#"
            state nat = map();
            state next = 10000;
            fn cb(pkt: packet) {
                let k = (pkt.ip.src, pkt.tcp.sport);
                if k not in nat {
                    nat[k] = next;
                    next = next + 1;
                }
                pkt.tcp.sport = nat[k];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(
            stats.paths.len(),
            2,
            "new-connection and existing-connection"
        );
        // New-connection path: has the insert, rewrites sport to st:next.
        let new_path = stats
            .paths
            .iter()
            .find(|p| !p.map_ops.is_empty())
            .expect("insert path");
        assert!(matches!(new_path.map_ops[0], MapOp::Insert { .. }));
        assert_eq!(
            new_path.state_updates.get("next").map(|v| v.to_string()),
            Some("(st:next + 1)".to_string())
        );
        let rw = new_path.outputs[0].rewrites();
        assert_eq!(rw.len(), 1);
        assert_eq!(rw[0].1.to_string(), "st:next");
        // Existing-connection path: lookup term, no state change.
        let old_path = stats
            .paths
            .iter()
            .find(|p| p.map_ops.is_empty())
            .expect("lookup path");
        let rw = old_path.outputs[0].rewrites();
        assert!(
            rw[0].1.to_string().contains("nat["),
            "symbolic map read: {}",
            rw[0].1
        );
        assert!(old_path.state_updates.is_empty());
    }

    #[test]
    fn overlay_makes_membership_concrete_after_insert() {
        let stats = explore(
            r#"
            state seen = map();
            fn cb(pkt: packet) {
                let k = pkt.ip.src;
                seen[k] = 1;
                if k in seen {
                    send(pkt);
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        // After the insert, `k in seen` is concretely true: one path.
        assert_eq!(stats.paths.len(), 1);
        assert!(!stats.paths[0].is_drop());
    }

    #[test]
    fn symbolic_config_generates_per_mode_paths() {
        let stats = explore(
            r#"
            const RR = 1;
            config mode = 1;
            config servers = [(1.1.1.1, 80), (2.2.2.2, 80)];
            state idx = 0;
            fn cb(pkt: packet) {
                let server = (0, 0);
                if mode == RR {
                    server = servers[idx];
                    idx = (idx + 1) % len(servers);
                } else {
                    server = servers[hash(pkt.ip.src) % len(servers)];
                }
                pkt.ip.dst = server[0];
                pkt.tcp.dport = server[1];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(stats.paths.len(), 2, "one per mode");
        let rr = stats
            .paths
            .iter()
            .find(|p| {
                p.constraints
                    .iter()
                    .any(|c| c.to_string() == "(cfg:mode == 1)")
            })
            .expect("RR path");
        // Figure 6: state update (idx+1)%N with N=2.
        assert_eq!(
            rr.state_updates.get("idx").map(|v| v.to_string()),
            Some("((st:idx + 1) % 2)".to_string())
        );
        // Destination rewritten to server[idx] — symbolic array get.
        let rw = rr.outputs[0].rewrites();
        assert!(
            rw.iter().any(|(_, v)| v.to_string().contains("st:idx")),
            "{rw:?}"
        );
        let hash_path = stats
            .paths
            .iter()
            .find(|p| {
                p.constraints
                    .iter()
                    .any(|c| c.to_string() == "(cfg:mode != 1)")
            })
            .expect("hash path");
        assert!(hash_path.state_updates.is_empty(), "hash mode is stateless");
        let rw = hash_path.outputs[0].rewrites();
        assert!(rw.iter().any(|(_, v)| v.to_string().contains("hash(")));
    }

    #[test]
    fn bounded_loop_unrolls() {
        let stats = explore(
            r#"
            state n = 0;
            fn cb(pkt: packet) {
                for i in 0..3 {
                    n = n + 1;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(stats.paths.len(), 1);
        assert_eq!(
            stats.paths[0].state_updates.get("n").map(|v| v.to_string()),
            Some("(((st:n + 1) + 1) + 1)".to_string())
        );
        assert!(!stats.paths[0].truncated);
    }

    #[test]
    fn unbounded_symbolic_loop_truncates() {
        let stats = explore(
            r#"
            state n = 0;
            fn cb(pkt: packet) {
                while n < pkt.ip.len {
                    n = n + 1;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(stats.paths.iter().any(|p| p.truncated));
        // Paths that exited before the bound also exist.
        assert!(stats.paths.iter().any(|p| !p.truncated));
    }

    #[test]
    fn fragment_loop_sends_symbolic_packet() {
        let stats = explore(
            r#"
            const MTU = 1500;
            fn cb(pkt: packet) {
                for f in fragment(pkt, MTU) {
                    send(f);
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(stats.paths.len(), 1);
        assert_eq!(stats.paths[0].outputs.len(), 1);
    }

    #[test]
    fn early_return_is_drop_path() {
        let stats = explore(
            r#"
            state drops = 0;
            fn cb(pkt: packet) {
                if pkt.ip.ttl == 0 {
                    drops = drops + 1;
                    return;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(stats.paths.len(), 2);
        let dropped = stats.paths.iter().find(|p| p.is_drop()).unwrap();
        assert_eq!(dropped.constraints[0].to_string(), "(pkt.ip.ttl == 0)");
        assert!(dropped.state_updates.contains_key("drops"));
    }

    #[test]
    fn canonical_is_deterministic() {
        let a = explore(
            r#"
            fn cb(pkt: packet) { if pkt.ip.ttl > 1 { send(pkt); } }
            fn main() { sniff(cb); }
        "#,
        );
        let b = explore(
            r#"
            fn cb(pkt: packet) { if pkt.ip.ttl > 1 { send(pkt); } }
            fn main() { sniff(cb); }
        "#,
        );
        let ca: Vec<_> = a.paths.iter().map(|p| p.canonical()).collect();
        let cb: Vec<_> = b.paths.iter().map(|p| p.canonical()).collect();
        assert_eq!(ca, cb);
    }

    #[test]
    fn executed_stmts_recorded() {
        let stats = explore(
            r#"
            fn cb(pkt: packet) {
                let x = pkt.ip.ttl;
                if x > 1 { send(pkt); }
            }
            fn main() { sniff(cb); }
        "#,
        );
        for p in &stats.paths {
            assert!(p.executed.len() >= 2);
        }
        // The two paths share the prefix but differ in total size.
        let sizes: std::collections::BTreeSet<usize> =
            stats.paths.iter().map(|p| p.executed.len()).collect();
        assert_eq!(sizes.len(), 2);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use nfl_analysis::normalize::normalize;
    use nfl_lang::parse_and_check;

    fn explore(src: &str) -> ExplorationStats {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        SymExec::new(&pl).explore().unwrap()
    }

    #[test]
    fn map_remove_makes_membership_false() {
        let stats = explore(
            r#"
            state seen = map();
            fn cb(pkt: packet) {
                let k = pkt.ip.src;
                seen[k] = 1;
                map_remove(seen, k);
                if k in seen {
                    send(pkt);
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        // After insert+remove the membership is concretely false: the
        // send is unreachable, one drop path, with both map ops recorded.
        assert_eq!(stats.paths.len(), 1);
        assert!(stats.paths[0].is_drop());
        assert_eq!(stats.paths[0].map_ops.len(), 2);
        assert!(matches!(stats.paths[0].map_ops[1], MapOp::Remove { .. }));
    }

    #[test]
    fn multiple_sends_on_one_path() {
        let stats = explore(
            r#"
            fn cb(pkt: packet) {
                send(pkt);
                pkt.ip.ttl = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(stats.paths.len(), 1);
        assert_eq!(stats.paths[0].outputs.len(), 2);
        // First output unmodified, second carries the rewrite.
        assert!(stats.paths[0].outputs[0].rewrites().is_empty());
        assert_eq!(stats.paths[0].outputs[1].rewrites().len(), 1);
    }

    #[test]
    fn concrete_while_executes_without_forking() {
        let stats = explore(
            r#"
            state n = 0;
            fn cb(pkt: packet) {
                let i = 0;
                while i < 3 {
                    i = i + 1;
                    n = n + 1;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(stats.paths.len(), 1);
        assert_eq!(
            stats.paths[0].state_updates["n"].to_string(),
            "(((st:n + 1) + 1) + 1)"
        );
    }

    #[test]
    fn break_and_continue_in_concrete_loop() {
        let stats = explore(
            r#"
            state acc = 0;
            fn cb(pkt: packet) {
                for i in 0..10 {
                    if i == 1 { continue; }
                    if i == 3 { break; }
                    acc = acc + i;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(stats.paths.len(), 1);
        // i = 0 and 2 accumulate (the +0 folds away): acc = st:acc + 2.
        assert_eq!(
            stats.paths[0].state_updates["acc"].to_string(),
            "(st:acc + 2)"
        );
    }

    #[test]
    fn array_element_store() {
        let stats = explore(
            r#"
            fn cb(pkt: packet) {
                let arr = [1, 2, 3];
                arr[1] = pkt.ip.ttl;
                pkt.ip.id = arr[1];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_eq!(stats.paths.len(), 1);
        let rw = stats.paths[0].outputs[0].rewrites();
        assert_eq!(rw[0].1.to_string(), "pkt.ip.ttl");
    }

    #[test]
    fn socket_builtin_rejected() {
        let p = parse_and_check(
            r#"
            fn cb(pkt: packet) {
                let fd = listen(80);
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        )
        .unwrap();
        let pl = normalize(&p).unwrap();
        assert!(matches!(
            SymExec::new(&pl).explore(),
            Err(SymexError::BadBuiltin(_))
        ));
    }

    #[test]
    fn max_paths_cap_reported_as_not_exhausted() {
        // 12 independent bit-test branches = 4096 satisfiable paths,
        // far past a cap of 64. (Equality tests on the same field would
        // be mutually exclusive and collapse to 13 paths.)
        let mut body = String::new();
        for i in 0..12 {
            body.push_str(&format!(
                "if pkt.tcp.dport & {} != 0 {{ n = n + 1; }}\n",
                1 << i
            ));
        }
        let src = format!(
            "state n = 0;\nfn cb(pkt: packet) {{\n{body}send(pkt);\n}}\nfn main() {{ sniff(cb); }}"
        );
        let p = parse_and_check(&src).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl)
            .with_limits(PathLimits {
                max_paths: 64,
                ..PathLimits::default()
            })
            .explore()
            .unwrap();
        assert!(!stats.exhausted);
        assert!(stats.paths.len() <= 64);
    }

    #[test]
    fn nested_membership_forks_compose() {
        let stats = explore(
            r#"
            state a = map();
            state b = map();
            fn cb(pkt: packet) {
                if pkt.ip.src in a {
                    if pkt.ip.dst in b {
                        send(pkt);
                    }
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        // in-a×in-b, in-a×not-in-b, not-in-a = 3 paths.
        assert_eq!(stats.paths.len(), 3);
        let fwd: Vec<_> = stats.paths.iter().filter(|p| !p.is_drop()).collect();
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].constraints.len(), 2);
    }

    #[test]
    fn disjointness_fast_path_preserves_unsat_detection() {
        // Same variable in both constraints — the slow path must engage
        // and prune the contradiction.
        let stats = explore(
            r#"
            fn cb(pkt: packet) {
                if pkt.ip.ttl > 100 {
                    if pkt.ip.ttl < 50 {
                        send(pkt);
                    }
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(
            stats.paths.iter().all(|p| p.is_drop()),
            "contradictory nested branch must be pruned"
        );
        assert_eq!(stats.paths.len(), 2);
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use nfl_analysis::normalize::normalize;
    use nfl_lang::parse_and_check;

    fn branchy_nf() -> PacketLoop {
        // 6 independent bit-tests: 64 satisfiable paths.
        let mut body = String::new();
        for i in 0..6 {
            body.push_str(&format!(
                "if pkt.tcp.dport & {} != 0 {{ n = n + 1; }}\n",
                1 << i
            ));
        }
        let src = format!(
            "state n = 0;\nfn cb(pkt: packet) {{\n{body}send(pkt);\n}}\nfn main() {{ sniff(cb); }}"
        );
        let p = parse_and_check(&src).unwrap();
        normalize(&p).unwrap()
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let pl = branchy_nf();
        let a = SymExec::new(&pl).explore().unwrap();
        let b = SymExec::new(&pl)
            .with_budget(Budget::unlimited())
            .explore()
            .unwrap();
        assert_eq!(a.paths.len(), b.paths.len());
        assert!(a.exhausted && b.exhausted);
        assert_eq!(a.stop_reason, None);
        assert_eq!(b.stop_reason, None);
    }

    #[test]
    fn expired_deadline_degrades_to_truncated_partial_paths() {
        let pl = branchy_nf();
        let stats = SymExec::new(&pl)
            .with_budget(Budget::unlimited().with_timeout_ms(0))
            .explore()
            .unwrap();
        assert!(!stats.exhausted);
        assert!(
            stats.stop_reason.as_deref().unwrap().contains("deadline"),
            "{:?}",
            stats.stop_reason
        );
        assert!(!stats.paths.is_empty(), "partial paths, not an abort");
        assert!(stats.paths.iter().all(|p| p.truncated));
    }

    #[test]
    fn solver_call_budget_stops_exploration() {
        let pl = branchy_nf();
        let full = SymExec::new(&pl).explore().unwrap();
        let capped = SymExec::new(&pl)
            .with_budget(Budget::unlimited().with_max_solver_calls(4))
            .explore()
            .unwrap();
        assert!(!capped.exhausted);
        assert!(
            capped
                .stop_reason
                .as_deref()
                .unwrap()
                .contains("solver-call"),
            "{:?}",
            capped.stop_reason
        );
        assert!(capped.paths.len() < full.paths.len());
    }

    #[test]
    fn max_paths_limit_stops_with_path_budget_reason() {
        let pl = branchy_nf();
        let stats = SymExec::new(&pl)
            .with_limits(PathLimits {
                max_paths: 8,
                ..PathLimits::default()
            })
            .explore()
            .unwrap();
        assert!(!stats.exhausted);
        assert!(stats.paths.len() <= 8);
        assert!(
            stats
                .stop_reason
                .as_deref()
                .unwrap()
                .contains("path budget"),
            "{:?}",
            stats.stop_reason
        );
    }

    #[test]
    fn path_cap_monotone_and_lossless() {
        // A larger path cap never loses paths: every path set is a
        // superset (by canonical form) of the smaller cap's set.
        let pl = branchy_nf();
        let mut prev: Option<Vec<String>> = None;
        for cap in [1usize, 2, 8, 32, 128] {
            let stats = SymExec::new(&pl)
                .with_limits(PathLimits {
                    max_paths: cap,
                    ..PathLimits::default()
                })
                .explore()
                .unwrap();
            let mut canon: Vec<String> = stats.paths.iter().map(|p| p.canonical()).collect();
            canon.sort();
            if let Some(p) = &prev {
                assert!(
                    canon.len() >= p.len(),
                    "budget {cap} lost paths: {} < {}",
                    canon.len(),
                    p.len()
                );
            }
            prev = Some(canon);
        }
    }
}
