//! Lowering a [`Model`] to a [`CompiledProgram`].
//!
//! The compiler runs once per deployment (model + concrete
//! configuration + initial state) and produces a flattened dispatch
//! structure the runtime walks per packet:
//!
//! 1. **Name resolution.** Every `cfg:` variable folds to its concrete
//!    value (configurations never change at runtime), every `st:`
//!    scalar becomes a slot of the program's store, every state map an
//!    arena of it; a name the deployment lacks joins the store's
//!    layout, which is closed once lowering ends. Constant subterms
//!    fold through the reference evaluator.
//! 2. **Table selection.** Config-table conditions are evaluated *now*:
//!    a table whose condition folds to `false` is dropped entirely, one
//!    that folds to `true` contributes its entries. A condition that
//!    does not fold to a concrete boolean is a [`CompileError`] — the
//!    deployment's configuration is incomplete, which the reference
//!    evaluator would report on the first packet.
//! 3. **Flattening.** Surviving entries are concatenated in table
//!    order, preserving the reference evaluator's first-match priority.
//! 4. **Tree construction.** Flow literals of the recognised
//!    single-field shapes become shared decision-tree nodes
//!    ([`crate::tree`]); the rest stay residual at the leaves.
//! 5. **Interning.** State-match literals and the flow literals the
//!    tree leaves residual are canonicalised (leading negations stripped
//!    into an expected polarity) and deduplicated into one predicate
//!    table; each leaf candidate lists its obligations against it. The
//!    distinct `(map, key term)` pairs that `MapGet` and `MapContains`
//!    read are interned too. The runtime memoises both per packet, so a
//!    step evaluates each distinct predicate, and builds and probes
//!    each distinct map key, at most once, whichever entries share it.

use crate::expr::{fold, CExpr};
use crate::tree::{build, classify, Cand, Node};
use nf_model::{Entry, FlowAction, Model, ModelState};
use nf_packet::Field;
use nfl_interp::value::Value;
use nfl_symex::{MapOp, SymVal};
use std::fmt;

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A config-table condition did not fold to a concrete boolean —
    /// the configuration this model was deployed with is incomplete.
    Config {
        /// Index of the offending table.
        table: usize,
        /// The condition literal, rendered.
        lit: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Config { table, lit } => write!(
                f,
                "config condition of table {table} does not fold to a boolean: {lit}"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiled packet action.
#[derive(Debug, Clone, PartialEq)]
pub enum CFlowAction {
    /// Forward with in-order header rewrites.
    Forward {
        /// `(field, value term)` rewrites.
        rewrites: Vec<(Field, CExpr)>,
    },
    /// Drop.
    Drop,
}

/// Compiled map operation.
#[derive(Debug, Clone, PartialEq)]
pub enum CMapOp {
    /// `map[key] = value`.
    Insert {
        /// Map index.
        map: usize,
        /// Key term.
        key: CExpr,
        /// Value term.
        value: CExpr,
    },
    /// `map_remove(map, key)`.
    Remove {
        /// Map index.
        map: usize,
        /// Key term.
        key: CExpr,
    },
}

/// One match obligation: interned predicate `pred` must evaluate to
/// `expect`. State-match literals and residual flow literals both take
/// this form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredLit {
    /// Index into the predicate table ([`CompiledProgram::pred`]): the
    /// state predicates, then the residual flow predicates.
    pub pred: usize,
    /// Required truth value (negations folded into the polarity).
    pub expect: bool,
    /// Whether the source literal was wrapped in `!` — decides which
    /// reference error message a non-boolean predicate value raises.
    pub wrapped: bool,
}

/// One flattened table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CEntry {
    /// `(table, entry)` position in the source model — reported as the
    /// fired entry, identically to the reference evaluator.
    pub origin: (usize, usize),
    /// Lowered flow-match literals, in source order. The decision tree
    /// proves a subset of these on the path to a leaf; the leaf lists
    /// the rest as residuals.
    pub flow_lits: Vec<CExpr>,
    /// State-match obligations, in source order.
    pub state_lits: Vec<PredLit>,
    /// Packet action.
    pub flow_action: CFlowAction,
    /// Scalar state writes `(slot, value term)`, committed in order.
    pub updates: Vec<(usize, CExpr)>,
    /// Map writes, committed in order (after scalars, as the reference
    /// does).
    pub map_ops: Vec<CMapOp>,
}

/// The compiled form of a model: decision tree + flattened entries +
/// interned predicates and probes + the initial store.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Name of the NF the model was extracted from.
    pub nf_name: String,
    /// Tree node arena.
    pub nodes: Vec<Node>,
    /// Root node index.
    pub root: usize,
    /// Flattened entries in global priority order.
    pub entries: Vec<CEntry>,
    /// Interned state-match predicates (canonical, negation-stripped).
    pub state_preds: Vec<CExpr>,
    /// Interned residual flow predicates, likewise canonical; they
    /// follow `state_preds` in the predicate table.
    pub flow_preds: Vec<CExpr>,
    /// The distinct key terms each map is read under by `MapGet` and
    /// `MapContains`, indexed like the layout's map names, each with its
    /// slot in the per-step probe memo.
    pub(crate) probe_keys: Vec<Vec<(CExpr, usize)>>,
    /// Number of probe-memo slots (distinct `(map, key term)` pairs).
    pub(crate) probe_count: usize,
    /// The initial store: the deployment's configs, initial scalars
    /// and maps, laid out by the closed layout every [`CExpr::Slot`] and
    /// map index refers to. Each `CompiledState` starts as a clone of
    /// it and shares its layout.
    pub init: ModelState,
}

impl CompiledProgram {
    /// Number of decision-tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of flattened table entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Interned predicate `p` ([`PredLit::pred`]).
    pub fn pred(&self, p: usize) -> &CExpr {
        match p.checked_sub(self.state_preds.len()) {
            Some(f) => &self.flow_preds[f],
            None => &self.state_preds[p],
        }
    }

    /// Size of the predicate table: state predicates plus residual flow
    /// predicates.
    pub(crate) fn pred_count(&self) -> usize {
        self.state_preds.len() + self.flow_preds.len()
    }
}

/// Name-resolution context during lowering: the program's store, whose
/// configs fold and whose layout gains each state name a term uses.
struct Lowerer {
    store: ModelState,
}

impl Lowerer {
    /// Lower one symbolic term, folding constants as we go. Terms the
    /// reference evaluator would fail on lower to [`CExpr::Stuck`]
    /// carrying the reference's exact message, so the error surfaces at
    /// the same packet, not at compile time.
    fn lower(&mut self, v: &SymVal) -> CExpr {
        let e = match v {
            SymVal::Int(i) => CExpr::Const(Value::Int(*i)),
            SymVal::Bool(b) => CExpr::Const(Value::Bool(*b)),
            SymVal::Str(s) => CExpr::Const(Value::Str(s.clone())),
            SymVal::Var(name) => {
                if let Some(path) = name.strip_prefix("pkt.") {
                    match Field::from_path(path) {
                        Some(f) => CExpr::Pkt(f),
                        None => CExpr::Stuck(format!("unknown field {path}")),
                    }
                } else if let Some(cfg) = name.strip_prefix("cfg:") {
                    match self.store.configs.get(cfg) {
                        Some(v) => CExpr::Const(v.clone()),
                        None => CExpr::Stuck(format!("config `{cfg}` unset")),
                    }
                } else if let Some(stv) = name.strip_prefix("st:") {
                    CExpr::Slot(self.store.declare_slot(stv))
                } else {
                    CExpr::Stuck(format!("free variable `{name}`"))
                }
            }
            SymVal::Tuple(es) => CExpr::Tuple(es.iter().map(|e| self.lower(e)).collect()),
            SymVal::Array(es) => CExpr::Array(es.iter().map(|e| self.lower(e)).collect()),
            SymVal::Bin(op, a, b) => {
                CExpr::Bin(*op, Box::new(self.lower(a)), Box::new(self.lower(b)))
            }
            SymVal::Not(a) => CExpr::Not(Box::new(self.lower(a))),
            SymVal::Neg(a) => CExpr::Neg(Box::new(self.lower(a))),
            SymVal::Hash(a) => CExpr::Hash(Box::new(self.lower(a))),
            SymVal::Min(a, b) => CExpr::Min(Box::new(self.lower(a)), Box::new(self.lower(b))),
            SymVal::Max(a, b) => CExpr::Max(Box::new(self.lower(a)), Box::new(self.lower(b))),
            SymVal::MapGet(m, k) => {
                let mi = self.store.declare_map(m);
                CExpr::MapGet(mi, Box::new(self.lower(k)))
            }
            SymVal::MapContains(m, k) => {
                let mi = self.store.declare_map(m);
                CExpr::MapContains(mi, Box::new(self.lower(k)))
            }
            SymVal::ArrayGet(a, i) => {
                CExpr::ArrayGet(Box::new(self.lower(a)), Box::new(self.lower(i)))
            }
            SymVal::Proj(a, i) => CExpr::Proj(Box::new(self.lower(a)), *i),
        };
        fold(e)
    }
}

/// Canonicalise a match literal: strip leading negations into the
/// expected polarity and intern the remaining predicate in `preds`,
/// whose first entry sits at `base` in the predicate table.
fn intern_lit(lowered: CExpr, preds: &mut Vec<CExpr>, base: usize) -> PredLit {
    let mut expect = true;
    let mut wrapped = false;
    let mut e = lowered;
    while let CExpr::Not(inner) = e {
        expect = !expect;
        wrapped = true;
        e = *inner;
    }
    let pred = match preds.iter().position(|p| *p == e) {
        Some(i) => i,
        None => {
            preds.push(e);
            preds.len() - 1
        }
    };
    PredLit {
        pred: base + pred,
        expect,
        wrapped,
    }
}

/// Give every leaf candidate its obligations in evaluation order: its
/// residual flow literals, interned into a predicate table after the
/// `state` predicates, then its entry's state tags. Returns the flow
/// predicates.
fn intern_leaves(nodes: &mut [Node], entries: &[CEntry], state: usize) -> Vec<CExpr> {
    let mut preds = Vec::new();
    let mut tags: Vec<Vec<Option<PredLit>>> = entries
        .iter()
        .map(|e| vec![None; e.flow_lits.len()])
        .collect();
    for node in nodes {
        let Node::Leaf { cands } = node else { continue };
        for c in cands {
            let entry = &entries[c.entry];
            let mut lits = Vec::with_capacity(c.residuals.len() + entry.state_lits.len());
            for &ri in &c.residuals {
                let lit = *tags[c.entry][ri].get_or_insert_with(|| {
                    intern_lit(entry.flow_lits[ri].clone(), &mut preds, state)
                });
                lits.push(lit);
            }
            lits.extend_from_slice(&entry.state_lits);
            c.lits = lits;
        }
    }
    preds
}

/// Intern the `(map, key term)` pair of every `MapGet` and `MapContains`
/// in `term`, keys included, into `keys` (one list per map); `count`
/// numbers the pairs.
fn intern_probes(term: &CExpr, keys: &mut [Vec<(CExpr, usize)>], count: &mut usize) {
    match term {
        CExpr::MapGet(m, k) | CExpr::MapContains(m, k) => {
            if !keys[*m].iter().any(|(known, _)| known == &**k) {
                keys[*m].push(((**k).clone(), *count));
                *count += 1;
            }
            intern_probes(k, keys, count);
        }
        CExpr::Const(_) | CExpr::Pkt(_) | CExpr::Slot(_) | CExpr::Stuck(_) => {}
        CExpr::Tuple(es) | CExpr::Array(es) => {
            for e in es {
                intern_probes(e, keys, count);
            }
        }
        CExpr::Bin(_, a, b) | CExpr::Min(a, b) | CExpr::Max(a, b) | CExpr::ArrayGet(a, b) => {
            intern_probes(a, keys, count);
            intern_probes(b, keys, count);
        }
        CExpr::Not(a) | CExpr::Neg(a) | CExpr::Hash(a) | CExpr::Proj(a, _) => {
            intern_probes(a, keys, count)
        }
    }
}

/// Compile `model` against the concrete deployment in `init`
/// (configuration values, initial scalars, declared maps) — the same
/// `ModelState` the reference backend starts from.
///
/// The program's store ([`CompiledProgram::init`]) lays out `init`'s
/// set scalars, then its declared maps, each in name order; lowering
/// appends the state names the selected tables use that `init` lacks,
/// in the order it meets them, and then the layout is closed.
///
/// The contract with the reference evaluator is one-sided: for every
/// packet on which `ModelState::step` succeeds, the compiled program
/// succeeds with the identical output, fired entry, and post-state. On
/// packets where the reference *errors*, the compiled program may
/// differ (the tree can prove an entry unmatchable without evaluating
/// the literal that would have raised the error).
pub fn compile(model: &Model, init: &ModelState) -> Result<CompiledProgram, CompileError> {
    let mut store = ModelState::default();
    store.configs = init.configs.clone();
    for (name, v) in init.scalars_by_name() {
        store = store.with_scalar(name, v.clone());
    }
    for (name, entries) in init.maps_by_name() {
        store = store.with_map(name);
        for (k, v) in entries {
            store.insert_entry(name, k.clone(), v.clone());
        }
    }
    let mut lw = Lowerer { store };
    let mut entries: Vec<CEntry> = Vec::new();
    let mut cands: Vec<Cand> = Vec::new();
    let mut preds: Vec<CExpr> = Vec::new();
    for (ti, table) in model.tables.iter().enumerate() {
        let mut selected = true;
        for lit in &table.config {
            match lw.lower(lit) {
                CExpr::Const(Value::Bool(true)) => {}
                CExpr::Const(Value::Bool(false)) => {
                    selected = false;
                    break;
                }
                _ => {
                    return Err(CompileError::Config {
                        table: ti,
                        lit: lit.to_string(),
                    })
                }
            }
        }
        if !selected {
            continue;
        }
        for (ei, entry) in table.entries.iter().enumerate() {
            let ce = lower_entry(&mut lw, entry, (ti, ei), &mut preds);
            // Literals that folded to `true` hold on every packet; they
            // need no tree test and no residual. Everything else either
            // classifies into a tree test or stays residual.
            let lits = ce
                .flow_lits
                .iter()
                .enumerate()
                .filter(|(_, l)| !matches!(l, CExpr::Const(Value::Bool(true))))
                .map(|(i, l)| (i, classify(l)))
                .collect();
            cands.push(Cand {
                entry: entries.len(),
                lits,
            });
            entries.push(ce);
        }
    }
    let mut nodes = Vec::new();
    let root = build(&mut nodes, cands);
    let flow_preds = intern_leaves(&mut nodes, &entries, preds.len());
    let mut probe_keys = vec![Vec::new(); lw.store.layout().map_names().len()];
    let mut probe_count = 0;
    let actions = entries.iter().flat_map(|e| {
        let rewrites = match &e.flow_action {
            CFlowAction::Forward { rewrites } => rewrites.as_slice(),
            CFlowAction::Drop => &[],
        };
        let ops = e.map_ops.iter().flat_map(|op| match op {
            CMapOp::Insert { key, value, .. } => [Some(key), Some(value)],
            CMapOp::Remove { key, .. } => [Some(key), None],
        });
        rewrites
            .iter()
            .map(|(_, t)| t)
            .chain(e.updates.iter().map(|(_, t)| t))
            .chain(ops.flatten())
    });
    for term in preds.iter().chain(&flow_preds).chain(actions) {
        intern_probes(term, &mut probe_keys, &mut probe_count);
    }
    let mut init = lw.store;
    init.close();
    Ok(CompiledProgram {
        nf_name: model.nf_name.clone(),
        nodes,
        root,
        entries,
        state_preds: preds,
        flow_preds,
        probe_keys,
        probe_count,
        init,
    })
}

fn lower_entry(
    lw: &mut Lowerer,
    entry: &Entry,
    origin: (usize, usize),
    preds: &mut Vec<CExpr>,
) -> CEntry {
    let flow_lits = entry.flow_match.iter().map(|l| lw.lower(l)).collect();
    let state_lits = entry
        .state_match
        .iter()
        .map(|l| intern_lit(lw.lower(l), preds, 0))
        .collect();
    let flow_action = match &entry.flow_action {
        FlowAction::Drop => CFlowAction::Drop,
        FlowAction::Forward { rewrites } => CFlowAction::Forward {
            rewrites: rewrites
                .iter()
                .map(|(f, term)| (*f, lw.lower(term)))
                .collect(),
        },
    };
    let updates = entry
        .state_action
        .updates
        .iter()
        .map(|(name, term)| (lw.store.declare_slot(name), lw.lower(term)))
        .collect();
    let map_ops = entry
        .state_action
        .map_ops
        .iter()
        .map(|op| match op {
            MapOp::Insert { map, key, value } => CMapOp::Insert {
                map: lw.store.declare_map(map),
                key: lw.lower(key),
                value: lw.lower(value),
            },
            MapOp::Remove { map, key } => CMapOp::Remove {
                map: lw.store.declare_map(map),
                key: lw.lower(key),
            },
        })
        .collect();
    CEntry {
        origin,
        flow_lits,
        state_lits,
        flow_action,
        updates,
        map_ops,
    }
}

/// Render a compiled program as deterministic text — the golden-file
/// format, and what `modeldiff --mode compiled-vs-model` prints.
pub fn render(p: &CompiledProgram) -> String {
    let (slot_names, map_names) = (p.init.layout().slot_names(), p.init.layout().map_names());
    let mut s = String::new();
    s.push_str(&format!(
        "compiled {}: {} entries, {} nodes, {} state preds, {} slots, {} maps\n",
        p.nf_name,
        p.entries.len(),
        p.nodes.len(),
        p.state_preds.len(),
        slot_names.len(),
        map_names.len(),
    ));
    if !slot_names.is_empty() {
        s.push_str(&format!("slots: [{}]\n", slot_names.join(", ")));
    }
    if !map_names.is_empty() {
        s.push_str(&format!("maps: [{}]\n", map_names.join(", ")));
    }
    s.push_str("entries:\n");
    for (i, e) in p.entries.iter().enumerate() {
        s.push_str(&format!("  e{i} <- (t{},e{})\n", e.origin.0, e.origin.1));
        if !e.flow_lits.is_empty() {
            let lits: Vec<String> = e.flow_lits.iter().map(|l| fmt_expr(p, l)).collect();
            s.push_str(&format!("    flow: [{}]\n", lits.join(", ")));
        }
        if !e.state_lits.is_empty() {
            let lits: Vec<String> = e
                .state_lits
                .iter()
                .map(|sl| {
                    let bang = if sl.expect { "" } else { "!" };
                    format!("{bang}p{}", sl.pred)
                })
                .collect();
            s.push_str(&format!("    state: [{}]\n", lits.join(", ")));
        }
        match &e.flow_action {
            CFlowAction::Drop => s.push_str("    action: drop\n"),
            CFlowAction::Forward { rewrites } => {
                let rw: Vec<String> = rewrites
                    .iter()
                    .map(|(f, t)| format!("pkt.{} := {}", f.path(), fmt_expr(p, t)))
                    .collect();
                s.push_str(&format!("    action: forward [{}]\n", rw.join(", ")));
            }
        }
        if !e.updates.is_empty() {
            let ups: Vec<String> = e
                .updates
                .iter()
                .map(|(slot, t)| format!("st:{} := {}", slot_names[*slot], fmt_expr(p, t)))
                .collect();
            s.push_str(&format!("    updates: [{}]\n", ups.join(", ")));
        }
        if !e.map_ops.is_empty() {
            let ops: Vec<String> = e
                .map_ops
                .iter()
                .map(|op| match op {
                    CMapOp::Insert { map, key, value } => format!(
                        "{}[{}] := {}",
                        map_names[*map],
                        fmt_expr(p, key),
                        fmt_expr(p, value)
                    ),
                    CMapOp::Remove { map, key } => {
                        format!("del {}[{}]", map_names[*map], fmt_expr(p, key))
                    }
                })
                .collect();
            s.push_str(&format!("    mapops: [{}]\n", ops.join(", ")));
        }
    }
    if !p.state_preds.is_empty() {
        s.push_str("preds:\n");
        for (i, pr) in p.state_preds.iter().enumerate() {
            s.push_str(&format!("  p{i}: {}\n", fmt_expr(p, pr)));
        }
    }
    s.push_str(&format!("tree (root n{}):\n", p.root));
    for (i, n) in p.nodes.iter().enumerate() {
        match n {
            Node::Exact {
                field,
                mask,
                arms,
                default,
                missing,
            } => {
                let lhs = if *mask == -1 {
                    format!("pkt.{}", field.path())
                } else {
                    format!("(pkt.{} & {:#x})", field.path(), mask)
                };
                let aa: Vec<String> = arms.iter().map(|(v, c)| format!("{v} -> n{c}")).collect();
                let miss = match missing {
                    Some(m) => format!(" missing n{m}"),
                    None => String::new(),
                };
                s.push_str(&format!(
                    "  n{i}: exact {lhs} {{ {} }} else n{default}{miss}\n",
                    aa.join(", ")
                ));
            }
            Node::Range {
                field,
                cuts,
                children,
                missing,
            } => {
                let cc: Vec<String> = cuts.iter().map(|c| c.to_string()).collect();
                let ch: Vec<String> = children.iter().map(|c| format!("n{c}")).collect();
                let miss = match missing {
                    Some(m) => format!(" missing n{m}"),
                    None => String::new(),
                };
                s.push_str(&format!(
                    "  n{i}: range pkt.{} cuts [{}] -> [{}]{miss}\n",
                    field.path(),
                    cc.join(", "),
                    ch.join(", ")
                ));
            }
            Node::Leaf { cands } => {
                let cc: Vec<String> = cands
                    .iter()
                    .map(|c| {
                        let rr: Vec<String> =
                            c.residuals.iter().map(|r| r.to_string()).collect();
                        format!("e{} res[{}]", c.entry, rr.join(","))
                    })
                    .collect();
                s.push_str(&format!("  n{i}: leaf {{ {} }}\n", cc.join("; ")));
            }
        }
    }
    s
}

/// Pretty-print a compiled expression with slot/map names restored.
pub fn fmt_expr(p: &CompiledProgram, e: &CExpr) -> String {
    let layout = p.init.layout();
    match e {
        CExpr::Const(v) => format!("{v}"),
        CExpr::Pkt(f) => format!("pkt.{}", f.path()),
        CExpr::Slot(i) => format!("st:{}", layout.slot_names()[*i]),
        CExpr::Stuck(m) => format!("stuck<{m}>"),
        CExpr::Tuple(es) => {
            let parts: Vec<String> = es.iter().map(|x| fmt_expr(p, x)).collect();
            format!("({})", parts.join(", "))
        }
        CExpr::Array(es) => {
            let parts: Vec<String> = es.iter().map(|x| fmt_expr(p, x)).collect();
            format!("[{}]", parts.join(", "))
        }
        CExpr::Bin(op, a, b) => {
            format!("({} {} {})", fmt_expr(p, a), op.symbol(), fmt_expr(p, b))
        }
        CExpr::Not(a) => format!("!({})", fmt_expr(p, a)),
        CExpr::Neg(a) => format!("-({})", fmt_expr(p, a)),
        CExpr::Hash(a) => format!("hash({})", fmt_expr(p, a)),
        CExpr::Min(a, b) => format!("min({}, {})", fmt_expr(p, a), fmt_expr(p, b)),
        CExpr::Max(a, b) => format!("max({}, {})", fmt_expr(p, a), fmt_expr(p, b)),
        CExpr::MapGet(m, k) => format!("{}[{}]", layout.map_names()[*m], fmt_expr(p, k)),
        CExpr::MapContains(m, k) => format!("({} in {})", fmt_expr(p, k), layout.map_names()[*m]),
        CExpr::ArrayGet(a, i) => format!("{}[{}]", fmt_expr(p, a), fmt_expr(p, i)),
        CExpr::Proj(a, i) => format!("{}.{}", fmt_expr(p, a), i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_analysis::normalize::normalize;
    use nfl_lang::parse_and_check;
    use nfl_symex::SymExec;

    fn model_of(src: &str) -> Model {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl).explore().unwrap();
        Model::from_paths("t", &stats.paths)
    }

    const MODE_NF: &str = r#"
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
    "#;

    #[test]
    fn config_folding_selects_one_table() {
        let m = model_of(MODE_NF);
        assert_eq!(m.tables.len(), 2);
        let init = ModelState::default()
            .with_config("mode", Value::Int(1))
            .with_config(
                "servers",
                Value::Array(vec![
                    Value::Tuple(vec![0x01010101, 80]),
                    Value::Tuple(vec![0x02020202, 80]),
                ]),
            )
            .with_scalar("idx", Value::Int(0));
        let p = compile(&m, &init).unwrap();
        // Only the mode==1 table survives; its single entry remains.
        assert_eq!(p.entry_count(), 1);
        assert_eq!(p.init.layout().slot_names(), ["idx".to_string()]);
    }

    #[test]
    fn unset_config_in_table_condition_is_a_compile_error() {
        let m = model_of(MODE_NF);
        let err = compile(&m, &ModelState::default()).unwrap_err();
        assert!(matches!(err, CompileError::Config { .. }), "{err}");
    }

    #[test]
    fn state_preds_are_deduplicated() {
        let m = model_of(
            r#"
            state seen = map();
            fn cb(pkt: packet) {
                if pkt.ip.src in seen {
                    send(pkt);
                } else {
                    seen[pkt.ip.src] = 1;
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        let init = ModelState::default().with_map("seen");
        let p = compile(&m, &init).unwrap();
        // Both paths test the same membership predicate (one positively,
        // one negated): a single interned predicate.
        assert_eq!(p.state_preds.len(), 1, "{}", render(&p));
        let polarities: Vec<bool> = p
            .entries
            .iter()
            .flat_map(|e| e.state_lits.iter().map(|l| l.expect))
            .collect();
        assert!(polarities.contains(&true) && polarities.contains(&false));
    }

    #[test]
    fn render_is_deterministic() {
        let m = model_of(MODE_NF);
        let init = ModelState::default()
            .with_config("mode", Value::Int(1))
            .with_config(
                "servers",
                Value::Array(vec![
                    Value::Tuple(vec![0x01010101, 80]),
                    Value::Tuple(vec![0x02020202, 80]),
                ]),
            )
            .with_scalar("idx", Value::Int(0));
        let a = render(&compile(&m, &init).unwrap());
        let b = render(&compile(&m, &init).unwrap());
        assert_eq!(a, b);
        assert!(a.contains("tree (root n"), "{a}");
    }
}
