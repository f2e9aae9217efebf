//! Cross-flow state-sharing analysis — is this NF shardable by RSS?
//!
//! The StateAlyzer classes say *what* each persistent variable is; this
//! pass decides *how state is keyed*, which is what determines whether
//! the NF can be scaled out across cores or replicas (Maestro's
//! observation): if every access to a `state` map is keyed by data
//! derived **purely from the packet's flow tuple** (src/dst address,
//! protocol, src/dst port), then RSS steers all packets of a flow to one
//! shard and the map partitions cleanly — `per-flow`. A key that mixes
//! **non-flow data** (another state variable, an allocator counter, a
//! non-flow header field, an effectful call) couples flows together and
//! forces a global shard — `shared`.
//!
//! Mechanically, each access site's key expression is traced backwards
//! through the reaching-definitions relation (the same def/use chains
//! the slicer walks), in one walk that yields three facts at once: the
//! key's origin, its exact shape (which becomes the dispatch key), and
//! the first state it reads (for the log-only rule below). **Strong**
//! definitions replace a variable's origin, **weak** definitions taint
//! it, branches join. Sources terminate at packet fields (flow or
//! non-flow), `config`/`const` (constant across packets — a constant key
//! means every flow collides on it, so constants do *not* make a key
//! per-flow), `state` reads (non-flow by definition), and calls (pure
//! builtins classify by their arguments; effectful ones are non-flow).
//!
//! A flow field is flow data only as the packet arrived, because that
//! is what dispatch hashes and what the synthesized model keys its maps
//! over: `v.f` is flow-derived when `v` is the per-packet parameter or a
//! plain copy of it and no store to `v.f` reaches the read. A key read
//! after the NF rewrote the field, or from a packet taken out of a
//! queue, is non-flow, and the reason names the rewrite's line or where
//! the packet came from.
//!
//! Scalar state has no key: if it is written on the packet path it is a
//! single cell every flow updates — `shared`, unless StateAlyzer proved
//! it never impacts output (`logVar`) and every write adds to it
//! (`x = x + e`, `x = e + x` or `x = x - e`, with `e` traced through
//! locals like a key and free of state), in which case per-shard copies
//! sum to the single-shard value — `log-only`. An overwrite (`x = 7`) or
//! an increment that reads state does not sum. A `logVar` map under a
//! non-flow key is held to the same rule entry by entry: `log-only` only
//! when every write is `m[k] = m[k] + e`, `m[k] = e + m[k]` or
//! `m[k] = m[k] - e` (one key on both sides, `e` free of state); any
//! other entry write, or a remove, makes it `shared`. State never
//! written is `read-only` and replicates freely.

use crate::ctx::AnalysisCtx;
use crate::diag::{Code, Diagnostic};
use nf_packet::Field;
use nf_support::json::{ToJson, Value};
use nfl_analysis::cfg::NodeId;
use nfl_lang::types::Ty;
use nfl_lang::{BinOp, Expr, ExprKind, ForIter, LValue, Span, Stmt, StmtKind};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Is `f` part of the flow tuple RSS hashes on?
pub fn is_flow_field(f: Field) -> bool {
    matches!(
        f,
        Field::IpSrc | Field::IpDst | Field::IpProto | Field::TcpSport | Field::TcpDport
    )
}

/// The direction-reversed counterpart of a flow field: swapping source
/// and destination maps a packet onto its reply direction. `ip.proto`
/// is its own mirror.
pub fn mirror_field(f: Field) -> Field {
    match f {
        Field::IpSrc => Field::IpDst,
        Field::IpDst => Field::IpSrc,
        Field::TcpSport => Field::TcpDport,
        Field::TcpDport => Field::TcpSport,
        other => other,
    }
}

/// One positional component of a resolved key *shape*.
///
/// A shape is the exact structure of a map key as a tuple of packet
/// fields and constants — strictly finer information than [`Origin`],
/// which only says *whether* the key is flow-derived. The shape is what
/// a sharded runtime needs to pick a dispatch hash that keeps every
/// access to one map entry on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ShapeElem {
    /// A bare flow-tuple packet field.
    Flow(Field),
    /// A value constant across packets (literal, `config`, `const`).
    /// The value itself is not recorded: constants never vary between
    /// packets, so they contribute nothing to dispatch — but their
    /// *position* matters when matching shapes across sites.
    Const,
}

/// Elementwise direction-mirror of a shape.
fn mirror_shape(shape: &[ShapeElem]) -> Vec<ShapeElem> {
    shape
        .iter()
        .map(|e| match e {
            ShapeElem::Flow(f) => ShapeElem::Flow(mirror_field(*f)),
            ShapeElem::Const => ShapeElem::Const,
        })
        .collect()
}

/// The packet-field hash a sharded runtime must dispatch on so that a
/// per-flow map partitions cleanly — every access to one map entry
/// lands on the shard that owns it.
///
/// Part of the stable `nfl-lint` API. Two flavours:
///
/// * **Plain** (`symmetric() == false`): hash the listed fields'
///   values. Sound because every key site uses the *same* shape, so
///   the shard is a function of the entry key itself.
/// * **Symmetric** (`symmetric() == true`): the map is keyed by a
///   direction-reversed pair of shapes (e.g. a firewall pinhole
///   written with `(dst, dport, src, sport)` and probed with
///   `(src, sport, dst, dport)`). Hash the lexicographic minimum of
///   the listed fields' values and their [`mirror_field`] values, so a
///   flow and its reply direction land on one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchKey {
    fields: Vec<Field>,
    symmetric: bool,
}

impl DispatchKey {
    /// Assemble a dispatch key (used by [`analyze`] and the shard planner).
    pub fn new(fields: Vec<Field>, symmetric: bool) -> DispatchKey {
        DispatchKey { fields, symmetric }
    }

    /// The packet fields to hash, in key-shape order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Whether dispatch must canonicalise direction (hash the minimum
    /// of the field values and their mirrored values).
    pub fn symmetric(&self) -> bool {
        self.symmetric
    }

    /// Compact rendering, e.g. `ip.src` or
    /// `sym(ip.src, tcp.sport, ip.dst, tcp.dport)`.
    pub fn render(&self) -> String {
        let list = self
            .fields
            .iter()
            .map(|f| f.path())
            .collect::<Vec<_>>()
            .join(", ");
        if self.symmetric {
            format!("sym({list})")
        } else {
            list
        }
    }
}

/// Builtins whose result is a pure function of their arguments, so a key
/// through them inherits the arguments' origin.
fn is_pure_builtin(name: &str) -> bool {
    matches!(name, "hash" | "len" | "min" | "max" | "checksum")
}

/// Where a key expression's value ultimately comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Origin {
    /// Constant across packets (literals, `config`, `const`, loop
    /// counters over constant ranges). Every flow sees the same value.
    Const,
    /// Derived from the packet's flow tuple (and possibly constants).
    Flow,
    /// Mixes data that is not a function of the flow tuple; the string
    /// names the first culprit found.
    NonFlow(String),
}

impl Origin {
    fn join(self, other: Origin) -> Origin {
        match (self, other) {
            (o @ Origin::NonFlow(_), _) => o,
            (_, o @ Origin::NonFlow(_)) => o,
            (Origin::Flow, _) | (_, Origin::Flow) => Origin::Flow,
            _ => Origin::Const,
        }
    }
}

/// How a state map was accessed at a key site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    /// `m[k]` in expression position.
    Read,
    /// `m[k] = v`.
    Write,
    /// `k in m` / `k not in m`.
    Membership,
    /// `map_remove(m, k)`.
    Remove,
}

impl AccessKind {
    /// Lowercase label for reports.
    fn as_str(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Membership => "membership",
            AccessKind::Remove => "remove",
        }
    }
}

/// One keyed access to a state map.
#[derive(Debug, Clone)]
struct KeySite {
    /// The map.
    var: String,
    /// Access flavour.
    kind: AccessKind,
    /// Span of the key expression.
    span: Span,
    /// Traced origin of the key.
    origin: Origin,
    /// The key's resolved shape ([`Fact::shape`]).
    shape: Option<Vec<ShapeElem>>,
}

/// The sharding verdict for one `state` variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateShard {
    /// Keyed purely by flow-tuple data — partitions under RSS.
    PerFlow,
    /// Requires a global shard (cross-flow coupling).
    Shared,
    /// Never written during packet processing — replicate freely.
    ReadOnly,
    /// Written but never output-impacting — per-shard copies, aggregate
    /// offline.
    LogOnly,
}

impl StateShard {
    /// The lowercase rendering (stable; goldens pin it).
    pub fn as_str(self) -> &'static str {
        match self {
            StateShard::PerFlow => "per-flow",
            StateShard::Shared => "shared",
            StateShard::ReadOnly => "read-only",
            StateShard::LogOnly => "log-only",
        }
    }
}

/// Verdict plus evidence for one state variable.
///
/// Part of the stable `nfl-lint` API: construct with
/// [`StateVerdict::new`], read through the accessors. The fields are
/// private so the evidence set can grow without breaking `nf-shard` or
/// external consumers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateVerdict {
    var: String,
    verdict: StateShard,
    reason: String,
    span: Span,
    key_sites: usize,
    dispatch: Option<DispatchKey>,
}

impl StateVerdict {
    /// Assemble a verdict (used by [`analyze`]).
    pub fn new(
        var: impl Into<String>,
        verdict: StateShard,
        reason: impl Into<String>,
        span: Span,
        key_sites: usize,
    ) -> StateVerdict {
        StateVerdict {
            var: var.into(),
            verdict,
            reason: reason.into(),
            span,
            key_sites,
            dispatch: None,
        }
    }

    /// Attach the dispatch key a sharded runtime must use to partition
    /// this map (meaningful only for [`StateShard::PerFlow`] maps).
    pub fn with_dispatch(mut self, dispatch: Option<DispatchKey>) -> StateVerdict {
        self.dispatch = dispatch;
        self
    }

    /// The state variable's name.
    pub fn var(&self) -> &str {
        &self.var
    }

    /// The placement verdict.
    pub fn verdict(&self) -> StateShard {
        self.verdict
    }

    /// Why, in one sentence.
    pub fn reason(&self) -> &str {
        &self.reason
    }

    /// Span of the `state` declaration.
    pub fn span(&self) -> Span {
        self.span
    }

    /// Number of keyed accesses analysed (0 for scalars).
    pub fn key_sites(&self) -> usize {
        self.key_sites
    }

    /// The dispatch hash that partitions this map, when one exists.
    ///
    /// `Some` only for [`StateShard::PerFlow`] maps whose key shapes
    /// resolved to a single shape or a direction-mirrored pair. A
    /// per-flow map with `None` here is *colocatable in principle* but
    /// the analysis could not derive a packet-field hash for it (e.g.
    /// the key is `hash(...) % N`), so a runtime must fall back to a
    /// global shard for the whole NF.
    pub fn dispatch(&self) -> Option<&DispatchKey> {
        self.dispatch.as_ref()
    }
}

/// The per-NF sharding report — the contract between the lint analysis
/// and everything that places state (the `nf-shard` runtime, external
/// deployment tooling).
///
/// This type and its JSON encoding are **stable**. The JSON shape is:
///
/// ```json
/// {
///   "verdict": "per-flow" | "shared",
///   "states": [
///     {"var": "...", "verdict": "per-flow" | "shared" | "read-only" | "log-only",
///      "reason": "...", "line": 1, "start": 0, "end": 0, "key_sites": 0,
///      "dispatch_fields": ["ip.src", ...], "dispatch_symmetric": false}
///   ]
/// }
/// ```
///
/// `dispatch_fields`/`dispatch_symmetric` appear only when the state is
/// a per-flow map with a resolved [`DispatchKey`]; consumers must
/// tolerate their absence.
///
/// The document is written by the in-tree `nf_support::json`
/// (serde-free) and read by no tool here; new object keys may be added,
/// existing ones are never renamed or retyped.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardingReport {
    states: Vec<StateVerdict>,
}

impl ShardingReport {
    /// Assemble a report from per-state verdicts (declaration order).
    pub fn from_states(states: Vec<StateVerdict>) -> ShardingReport {
        ShardingReport { states }
    }

    /// The verdicts, one per `state` declaration, in declaration order.
    pub fn states(&self) -> &[StateVerdict] {
        &self.states
    }

    /// Look up the verdict for one state variable.
    pub fn get(&self, var: &str) -> Option<&StateVerdict> {
        self.states.iter().find(|s| s.var == var)
    }

    /// Number of state declarations analysed.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the NF declares no state at all.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The NF-level verdict: `per-flow` iff no state needs a global
    /// shard.
    pub fn nf_verdict(&self) -> StateShard {
        if self.states.iter().any(|s| s.verdict == StateShard::Shared) {
            StateShard::Shared
        } else {
            StateShard::PerFlow
        }
    }

    /// Can the NF be sharded by RSS with no cross-shard state?
    pub fn shardable(&self) -> bool {
        self.nf_verdict() == StateShard::PerFlow
    }
}

impl ToJson for ShardingReport {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "verdict".into(),
                Value::Str(self.nf_verdict().as_str().into()),
            ),
            (
                "states".into(),
                Value::Array(
                    self.states
                        .iter()
                        .map(|s| {
                            let mut obj = vec![
                                ("var".into(), Value::Str(s.var.clone())),
                                ("verdict".into(), Value::Str(s.verdict.as_str().into())),
                                ("reason".into(), Value::Str(s.reason.clone())),
                                ("line".into(), Value::Int(i64::from(s.span.line))),
                                ("start".into(), Value::Int(s.span.start as i64)),
                                ("end".into(), Value::Int(s.span.end as i64)),
                                ("key_sites".into(), Value::Int(s.key_sites as i64)),
                            ];
                            if let Some(d) = &s.dispatch {
                                obj.push((
                                    "dispatch_fields".into(),
                                    Value::Array(
                                        d.fields()
                                            .iter()
                                            .map(|f| Value::Str(f.path().into()))
                                            .collect(),
                                    ),
                                ));
                                obj.push(("dispatch_symmetric".into(), Value::Bool(d.symmetric())));
                            }
                            Value::Object(obj)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// What the key tracer learns about one value, in one walk: the three
/// facts the analysis asks of a key or an increment.
#[derive(Debug, Clone)]
struct Fact {
    /// Where the value comes from, as a key.
    origin: Origin,
    /// The first state the value depends on, for the log-only increment
    /// rule; `None` when it is a function of the packet and constants
    /// alone.
    state: Option<String>,
    /// The value's exact shape as a key, when it is a plain tuple of
    /// flow fields and constants; `None` when it is derived (arithmetic,
    /// hashing, container reads) or joins differently shaped
    /// definitions. Deliberately stricter than `origin`: a key can be
    /// flow-*derived* (`hash(pkt.ip.src) % 64`) without having a shape a
    /// dispatcher could hash the raw fields of.
    shape: Option<Vec<ShapeElem>>,
}

/// How [`Fact::join`] combines two shapes.
type ShapeJoin = fn(Option<Vec<ShapeElem>>, Option<Vec<ShapeElem>>) -> Option<Vec<ShapeElem>>;

/// An operator's result has no shape.
fn derived(_: Option<Vec<ShapeElem>>, _: Option<Vec<ShapeElem>>) -> Option<Vec<ShapeElem>> {
    None
}

/// A tuple's shape is its components' shapes in order.
fn concat(a: Option<Vec<ShapeElem>>, b: Option<Vec<ShapeElem>>) -> Option<Vec<ShapeElem>> {
    let mut a = a?;
    a.extend(b?);
    Some(a)
}

/// Definitions joining at a read keep a shape only when they agree on
/// it.
fn same(a: Option<Vec<ShapeElem>>, b: Option<Vec<ShapeElem>>) -> Option<Vec<ShapeElem>> {
    if a == b {
        a
    } else {
        None
    }
}

impl Fact {
    /// A value that adds nothing: constant, reading no state, no shape.
    /// The start of every fold, and what a dependence cycle contributes.
    const NOTHING: Fact = Fact {
        origin: Origin::Const,
        state: None,
        shape: None,
    };

    /// A value constant across packets (literal, `config`, `const`).
    fn constant() -> Fact {
        Fact {
            shape: Some(vec![ShapeElem::Const]),
            ..Fact::NOTHING
        }
    }

    /// A value the tracer cannot see through; `key` says why for a key,
    /// `increment` for an increment.
    fn opaque(key: String, increment: String) -> Fact {
        Fact {
            origin: Origin::NonFlow(key),
            state: Some(increment),
            shape: None,
        }
    }

    /// The fact of a value computed from, or joining, `self` and
    /// `other`: the origins join, the first state read wins, and `shape`
    /// combines the shapes.
    fn join(self, other: Fact, shape: ShapeJoin) -> Fact {
        Fact {
            origin: self.origin.join(other.origin),
            state: self.state.or(other.state),
            shape: shape(self.shape, other.shape),
        }
    }
}

/// The (variable, node) pairs a walk is inside of, so that a dependence
/// cycle ends it.
type Visiting<'a> = HashSet<(&'a str, NodeId)>;

/// The key tracer: walks an expression's reaching definitions once and
/// returns what it is as a key and as an increment ([`Fact`]).
struct Tracer<'a> {
    ctx: &'a AnalysisCtx,
    stmts: HashMap<nfl_lang::StmtId, &'a Stmt>,
    states: BTreeSet<String>,
    configs: BTreeSet<String>,
}

impl<'a> Tracer<'a> {
    fn new(ctx: &'a AnalysisCtx) -> Tracer<'a> {
        Tracer {
            states: ctx.state_names(),
            configs: ctx.config_names(),
            stmts: ctx.stmt_map(),
            ctx,
        }
    }

    /// The fact of `expr` evaluated at CFG node `node`.
    fn expr(&self, node: NodeId, expr: &'a Expr, visiting: &mut Visiting<'a>) -> Fact {
        match &expr.kind {
            ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Str(_) => Fact::constant(),
            ExprKind::Field(v, f) => {
                // The field holds packet data; the value depends on state
                // only through where the packet `v` came from.
                let state = self.var(node, v, visiting).state;
                let (origin, shape) = if !is_flow_field(*f) {
                    (
                        Origin::NonFlow(format!("non-flow packet field `{f:?}`")),
                        None,
                    )
                } else if let Some(why) = self.not_arrived(node, v, *f, &mut HashSet::new()) {
                    (Origin::NonFlow(why), None)
                } else {
                    (Origin::Flow, Some(vec![ShapeElem::Flow(*f)]))
                };
                Fact {
                    origin,
                    state,
                    shape,
                }
            }
            ExprKind::Var(v) => self.var(node, v, visiting),
            ExprKind::Tuple(es) => {
                let unit = Fact {
                    shape: Some(Vec::new()),
                    ..Fact::NOTHING
                };
                self.fold(node, es, unit, concat, visiting)
            }
            ExprKind::Array(es) => self.fold(node, es, Fact::NOTHING, derived, visiting),
            ExprKind::Index(base, key) => {
                // Reading a container: a state map's *value* is non-flow
                // data even under a flow key (it was written by some other
                // packet); config/const containers contribute constants.
                let mut container = self.expr(node, base, visiting);
                if let ExprKind::Var(v) = &base.kind {
                    if self.states.contains(v) {
                        container.origin = Origin::NonFlow(format!("value read from state `{v}`"));
                    }
                }
                container.join(self.expr(node, key, visiting), derived)
            }
            ExprKind::Binary(_, a, b) => self
                .expr(node, a, visiting)
                .join(self.expr(node, b, visiting), derived),
            ExprKind::Unary(_, e) => Fact {
                shape: None,
                ..self.expr(node, e, visiting)
            },
            ExprKind::Call(name, args) if is_pure_builtin(name) => {
                self.fold(node, args, Fact::NOTHING, derived, visiting)
            }
            ExprKind::Call(name, _) => {
                Fact::opaque(format!("call to `{name}`"), format!("a call to `{name}`"))
            }
        }
    }

    /// `init` joined with the fact of each of `es` in turn.
    fn fold(
        &self,
        node: NodeId,
        es: &'a [Expr],
        init: Fact,
        shape: ShapeJoin,
        visiting: &mut Visiting<'a>,
    ) -> Fact {
        es.iter()
            .fold(init, |acc, e| acc.join(self.expr(node, e, visiting), shape))
    }

    /// The fact of variable `v` as read at `node`: the join of its
    /// reaching definitions.
    fn var(&self, node: NodeId, v: &'a str, visiting: &mut Visiting<'a>) -> Fact {
        if self.configs.contains(v) {
            return Fact::constant();
        }
        if self.states.contains(v) {
            return Fact::opaque(format!("state `{v}`"), format!("state `{v}`"));
        }
        let mut fact = if visiting.insert((v, node)) {
            let mut joined: Option<Fact> = None;
            for def in self.ctx.pdg.reaching.reaching_defs(v, node) {
                let f = self.def(def, v, visiting);
                joined = Some(match joined {
                    None => f,
                    Some(acc) => acc.join(f, same),
                });
            }
            visiting.remove(&(v, node));
            // No initializing definition — NFL006's territory; stay
            // conservative here.
            joined.unwrap_or_else(|| {
                Fact::opaque(
                    format!("`{v}` has no reaching definition"),
                    format!("`{v}`, which has no reaching definition"),
                )
            })
        } else {
            // Already tracing this (var, point): a dependence cycle. The
            // cycle itself adds nothing new; other reaching defs decide.
            Fact::NOTHING
        };
        if self.ctx.info.var_ty(self.ctx.func(), v) == Some(Ty::Packet) {
            // A whole packet value as key includes non-flow headers.
            fact.origin = Origin::NonFlow(format!("whole packet `{v}` used as key"));
            fact.shape = None;
        }
        fact
    }

    /// The fact the definition of `v` at `def_node` gives it.
    fn def(&self, def_node: NodeId, v: &'a str, visiting: &mut Visiting<'a>) -> Fact {
        if def_node == self.ctx.pdg.cfg.entry {
            // Boundary definition: configs, state and the packet are
            // handled in `var`; anything else entering here is a
            // non-packet parameter.
            return Fact {
                origin: Origin::NonFlow(format!("parameter `{v}`")),
                ..Fact::NOTHING
            };
        }
        let opaque = |what: &str| {
            Fact::opaque(
                format!("{what} definition of `{v}`"),
                format!("an opaque definition of `{v}`"),
            )
        };
        let Some(sid) = self.ctx.pdg.cfg.nodes[def_node].stmt else {
            return opaque("synthetic");
        };
        let Some(stmt) = self.stmts.get(&sid).copied() else {
            return opaque("unknown");
        };
        // Weak definitions (map/field stores, mutating builtins) taint:
        // the variable holds partially-updated contents the tracer does
        // not model element-wise.
        if !self.ctx.pdg.reaching.node_du[def_node].defines_strongly(v) {
            return Fact::opaque(
                format!("partial update of `{v}`"),
                format!("a partial update of `{v}`"),
            );
        }
        match &stmt.kind {
            StmtKind::Let { value, .. }
            | StmtKind::Assign {
                target: LValue::Var(_),
                value,
            } => self.expr(def_node, value, visiting),
            // A loop counter enumerates its range within one packet — it
            // is not flow-identifying, so only the bounds' origins flow
            // through (constant bounds ⇒ Const ⇒ shared keys).
            StmtKind::For { iter, .. } => match iter {
                ForIter::Range(lo, hi) => self
                    .expr(def_node, lo, visiting)
                    .join(self.expr(def_node, hi, visiting), derived),
                ForIter::Array(a) => Fact {
                    shape: None,
                    ..self.expr(def_node, a, visiting)
                },
            },
            _ => opaque("opaque"),
        }
    }

    /// Why `v.f` read at `node` may not hold field `f` as the packet
    /// arrived, or `None` when it does: `v` is the per-packet parameter
    /// or a plain copy of it, and no store to `v.f` reaches the read.
    /// Dispatch hashes the arriving packet's fields, and the model keys
    /// every map over them, before any rewrite (Algorithm 1).
    fn not_arrived(
        &self,
        node: NodeId,
        v: &'a str,
        f: Field,
        seen: &mut Visiting<'a>,
    ) -> Option<String> {
        if !seen.insert((v, node)) {
            // Checked already, or a copy cycle: nothing new.
            return None;
        }
        self.ctx
            .pdg
            .reaching
            .reaching_defs(v, node)
            .find_map(|def| {
                let stmt = self.ctx.pdg.cfg.nodes[def].stmt;
                let Some(stmt) = stmt.and_then(|sid| self.stmts.get(&sid).copied()) else {
                    let arrived = def == self.ctx.pdg.cfg.entry && v == self.ctx.nf_loop.pkt_param;
                    return (!arrived).then(|| format!("`{v}` is not the arriving packet"));
                };
                let line = stmt.span.line;
                match &stmt.kind {
                    StmtKind::Assign {
                        target: LValue::Field(_, g),
                        ..
                    } => {
                        (*g == f).then(|| format!("`{v}.{}` is rewritten at line {line}", f.path()))
                    }
                    StmtKind::Let {
                        value:
                            Expr {
                                kind: ExprKind::Var(w),
                                ..
                            },
                        ..
                    }
                    | StmtKind::Assign {
                        target: LValue::Var(_),
                        value:
                            Expr {
                                kind: ExprKind::Var(w),
                                ..
                            },
                    } => self.not_arrived(def, w, f, seen),
                    _ => Some(format!(
                        "`{v}` is not the arriving packet (set at line {line})"
                    )),
                }
            })
    }

    /// Why per-shard copies of scalar state `x`, written at the CFG
    /// nodes `writes`, would not sum to the single-shard value, or `None`
    /// when every write adds a state-free amount: `x = x + e`,
    /// `x = e + x` or `x = x - e`. The shard join merges a log-only
    /// integer by summing per-shard deltas, which is exact only for such
    /// updates.
    fn non_additive_write(&self, x: &str, writes: &[NodeId]) -> Option<String> {
        let is_x = |e: &Expr| matches!(&e.kind, ExprKind::Var(v) if v == x);
        self.non_additive(writes, "one cell", |stmt| match &stmt.kind {
            StmtKind::Assign {
                target: LValue::Var(t),
                value,
            } if t == x => increment(value, is_x),
            _ => None,
        })
    }

    /// [`Tracer::non_additive_write`] for the entries of state map `m`:
    /// every write must be `m[k] = m[k] + e`, `m[k] = e + m[k]` or
    /// `m[k] = m[k] - e`, with one key `k` on both sides and `e` free of
    /// state. The shard join sums each entry's per-shard deltas. Any
    /// other write, or a remove, does not sum; neither does a first
    /// write such as `m[k] = 0`, even under a `k not in m` guard.
    fn non_additive_entry_write(&self, m: &str, writes: &[NodeId]) -> Option<String> {
        self.non_additive(writes, "one map", |stmt| match &stmt.kind {
            StmtKind::Assign {
                target: LValue::Index(t, k),
                value,
            } if t == m => increment(value, |e| {
                matches!(&e.kind, ExprKind::Index(b, j)
                    if matches!(&b.kind, ExprKind::Var(v) if v == m) && same_expr(j, k))
            }),
            _ => None,
        })
    }

    /// Why the writes at `writes` would not sum across shards: the
    /// first whose statement `increment_of` finds no increment in, or
    /// whose increment reads state. `None` when every write adds a
    /// state-free amount to `what` (the reason's wording).
    fn non_additive(
        &self,
        writes: &[NodeId],
        what: &str,
        increment_of: impl Fn(&'a Stmt) -> Option<&'a Expr>,
    ) -> Option<String> {
        for &node in writes {
            let stmt = self.ctx.pdg.cfg.nodes[node].stmt;
            let Some(stmt) = stmt.and_then(|sid| self.stmts.get(&sid).copied()) else {
                continue;
            };
            let line = stmt.span.line;
            let Some(e) = increment_of(stmt) else {
                return Some(format!(
                    "the write at line {line} is not an increment, so per-shard copies \
                     do not sum to {what}"
                ));
            };
            if let Some(culprit) = self.expr(node, e, &mut HashSet::new()).state {
                return Some(format!(
                    "the increment at line {line} reads {culprit}, so per-shard copies \
                     do not sum to {what}"
                ));
            }
        }
        None
    }
}

fn flow_fields(shape: &[ShapeElem]) -> Vec<Field> {
    shape
        .iter()
        .filter_map(|e| match e {
            ShapeElem::Flow(f) => Some(*f),
            ShapeElem::Const => None,
        })
        .collect()
}

/// Is a mirrored shape pair *closed* under direction reversal — does
/// the shape carry the same multiset of flow fields as its mirror?
///
/// Only then is a symmetric dispatch hash sound: for a closed pair
/// (`{src, dst}`, `{src, sport, dst, dport}`) the hash input is exactly
/// the entry key's own values (in either orientation), so the write and
/// every probe of one entry agree on a shard. For an *open* pair —
/// `m[pkt.ip.src]` written, `m[pkt.ip.dst]` probed — the canonical hash
/// mixes in the packet's *other* endpoint, which is not part of the
/// entry key, and the write for endpoint X and the probe for endpoint X
/// can land on different shards.
fn mirror_closed(shape: &[ShapeElem]) -> bool {
    let mut fwd = flow_fields(shape);
    let mut rev: Vec<Field> = fwd.iter().map(|f| mirror_field(*f)).collect();
    fwd.sort();
    rev.sort();
    fwd == rev
}

/// The distinct resolved shapes across `sites`, or `None` if any site's
/// key has no exact shape.
fn distinct_shapes<'s>(sites: &[&'s KeySite]) -> Option<Vec<&'s Vec<ShapeElem>>> {
    let mut shapes: Vec<&Vec<ShapeElem>> = Vec::new();
    for site in sites {
        let shape = site.shape.as_ref()?;
        if !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    Some(shapes)
}

/// Detect the unsound mirror-pair case: the sites resolve to exactly a
/// shape and its mirror, but the pair is not mirror-closed. Returns the
/// two field lists for the report.
fn open_mirror_pair(sites: &[&KeySite]) -> Option<(Vec<Field>, Vec<Field>)> {
    let shapes = distinct_shapes(sites)?;
    if shapes.len() != 2 || mirror_shape(shapes[0]) != *shapes[1] || mirror_closed(shapes[0]) {
        return None;
    }
    Some((flow_fields(shapes[0]), flow_fields(shapes[1])))
}

/// Derive the dispatch key for one per-flow map from its key sites:
/// all sites share one shape → plain hash of its flow fields; the
/// sites split into a shape and its mirror-closed direction-mirror →
/// symmetric hash; anything else (unresolved shapes, open mirror
/// pairs, three or more shapes) → `None`.
fn resolve_dispatch(sites: &[&KeySite]) -> Option<DispatchKey> {
    let shapes = distinct_shapes(sites)?;
    match shapes.len() {
        1 => {
            let fields = flow_fields(shapes[0]);
            if fields.is_empty() {
                None
            } else {
                Some(DispatchKey::new(fields, false))
            }
        }
        2 => {
            // Exactly a shape and its mirror (a direction-symmetric
            // map, e.g. firewall pinholes). Orient deterministically on
            // the smaller shape so reports do not depend on site order.
            // Open pairs are unsound to hash symmetrically — `analyze`
            // demotes them to `shared` before ever asking for a key.
            if mirror_shape(shapes[0]) != *shapes[1] || !mirror_closed(shapes[0]) {
                return None;
            }
            let canon = if shapes[0] <= shapes[1] {
                shapes[0]
            } else {
                shapes[1]
            };
            let fields = flow_fields(canon);
            if fields.is_empty() {
                None
            } else {
                Some(DispatchKey::new(fields, true))
            }
        }
        _ => None,
    }
}

/// The amount `e` when `value` is `x + e`, `e + x` or `x - e`, where
/// `is_x` tells the written cell `x` apart.
fn increment(value: &Expr, is_x: impl Fn(&Expr) -> bool) -> Option<&Expr> {
    match &value.kind {
        ExprKind::Binary(BinOp::Add, a, e) | ExprKind::Binary(BinOp::Sub, a, e) if is_x(a) => {
            Some(e)
        }
        ExprKind::Binary(BinOp::Add, e, b) if is_x(b) => Some(e),
        _ => None,
    }
}

/// Whether `a` and `b` are one expression, spans aside.
fn same_expr(a: &Expr, b: &Expr) -> bool {
    let all = |xs: &[Expr], ys: &[Expr]| {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_expr(x, y))
    };
    match (&a.kind, &b.kind) {
        (ExprKind::Tuple(xs), ExprKind::Tuple(ys)) | (ExprKind::Array(xs), ExprKind::Array(ys)) => {
            all(xs, ys)
        }
        (ExprKind::Index(x, i), ExprKind::Index(y, j)) => same_expr(x, y) && same_expr(i, j),
        (ExprKind::Binary(o, x, i), ExprKind::Binary(p, y, j)) => {
            o == p && same_expr(x, y) && same_expr(i, j)
        }
        (ExprKind::Unary(o, x), ExprKind::Unary(p, y)) => o == p && same_expr(x, y),
        (ExprKind::Call(f, xs), ExprKind::Call(g, ys)) => f == g && all(xs, ys),
        // The rest hold no expression, so no span.
        (x, y) => x == y,
    }
}

/// Collect every keyed access to a state map in the per-packet function.
fn collect_key_sites<'a>(tracer: &Tracer<'a>) -> Vec<KeySite> {
    struct Scan<'t, 'a> {
        t: &'t Tracer<'a>,
        sites: Vec<KeySite>,
    }

    impl<'a> Scan<'_, 'a> {
        /// Record a `kind` access to `m` under `key` at `node`, when `m`
        /// is state.
        fn site(&mut self, node: NodeId, m: &str, kind: AccessKind, key: &'a Expr) -> bool {
            if !self.t.states.contains(m) {
                return false;
            }
            let Fact { origin, shape, .. } = self.t.expr(node, key, &mut HashSet::new());
            self.sites.push(KeySite {
                var: m.to_string(),
                kind,
                span: key.span,
                origin,
                shape,
            });
            true
        }

        fn expr(&mut self, node: NodeId, e: &'a Expr) {
            match &e.kind {
                ExprKind::Index(base, key) => {
                    if let ExprKind::Var(m) = &base.kind {
                        self.site(node, m, AccessKind::Read, key);
                    }
                    self.expr(node, base);
                    self.expr(node, key);
                }
                ExprKind::Binary(op, a, b) => {
                    if let (BinOp::In | BinOp::NotIn, ExprKind::Var(m)) = (op, &b.kind) {
                        self.site(node, m, AccessKind::Membership, a);
                    }
                    self.expr(node, a);
                    self.expr(node, b);
                }
                ExprKind::Call(name, args) => {
                    if let ("map_remove", Some(m), Some(key)) =
                        (name.as_str(), args.first(), args.get(1))
                    {
                        if let ExprKind::Var(m) = &m.kind {
                            self.site(node, m, AccessKind::Remove, key);
                        }
                    }
                    for a in args {
                        self.expr(node, a);
                    }
                }
                ExprKind::Tuple(es) | ExprKind::Array(es) => {
                    for x in es {
                        self.expr(node, x);
                    }
                }
                ExprKind::Unary(_, x) => self.expr(node, x),
                _ => {}
            }
        }

        fn stmts(&mut self, stmts: &'a [Stmt]) {
            for s in stmts {
                let Some(&node) = self.t.ctx.pdg.cfg.stmt_node.get(&s.id) else {
                    continue;
                };
                match &s.kind {
                    StmtKind::Let { value, .. } | StmtKind::Expr(value) => self.expr(node, value),
                    StmtKind::Assign { target, value } => {
                        if let LValue::Index(m, key) = target {
                            if self.site(node, m, AccessKind::Write, key) {
                                self.expr(node, key);
                            }
                        }
                        self.expr(node, value);
                    }
                    StmtKind::If {
                        cond,
                        then_branch,
                        else_branch,
                    } => {
                        self.expr(node, cond);
                        self.stmts(then_branch);
                        self.stmts(else_branch);
                    }
                    StmtKind::While { cond, body } => {
                        self.expr(node, cond);
                        self.stmts(body);
                    }
                    StmtKind::For { iter, body, .. } => {
                        match iter {
                            ForIter::Range(lo, hi) => {
                                self.expr(node, lo);
                                self.expr(node, hi);
                            }
                            ForIter::Array(a) => self.expr(node, a),
                        }
                        self.stmts(body);
                    }
                    StmtKind::Return(Some(e)) => self.expr(node, e),
                    _ => {}
                }
            }
        }
    }

    let func = tracer
        .ctx
        .program()
        .function(tracer.ctx.func())
        .expect("normalised function");
    let mut scan = Scan {
        t: tracer,
        sites: Vec::new(),
    };
    scan.stmts(&func.body);
    scan.sites
}

/// Run the analysis: per-state verdicts plus `NFL009` diagnostics for
/// everything that needs a global shard.
pub fn analyze(ctx: &AnalysisCtx) -> (ShardingReport, Vec<Diagnostic>) {
    let tracer = Tracer::new(ctx);
    let sites = collect_key_sites(&tracer);

    // Which states are read at all in the per-packet function, and the
    // nodes that write each.
    let mut writes: HashMap<&str, Vec<NodeId>> = HashMap::new();
    let mut read: BTreeSet<String> = BTreeSet::new();
    for node in 0..ctx.pdg.cfg.len() {
        let du = &ctx.pdg.reaching.node_du[node];
        for (d, _) in &du.defs {
            let at = writes.entry(d.as_str()).or_default();
            if at.last() != Some(&node) {
                at.push(node);
            }
        }
        for u in &du.uses {
            // A weak update's self-read does not count as a real read.
            if !du.defs.iter().any(|(d, _)| d == u) {
                read.insert(u.clone());
            }
        }
    }

    let mut verdicts = Vec::new();
    let mut diags = Vec::new();
    for item in &ctx.program().states {
        let name = &item.name;
        let my_sites: Vec<&KeySite> = sites.iter().filter(|s| &s.var == name).collect();
        let is_map = matches!(ctx.info.var_ty(ctx.func(), name), Some(Ty::Map(_, _)))
            || !my_sites.is_empty();
        let my_writes = writes.get(name.as_str()).map_or(&[][..], Vec::as_slice);
        let is_written = !my_writes.is_empty();
        let is_log = ctx.classes.log_vars.contains(name);

        let (verdict, reason, bad_site): (StateShard, String, Option<&KeySite>) =
            if !is_written && !read.contains(name) {
                (
                    StateShard::ReadOnly,
                    "never touched by the packet loop".into(),
                    None,
                )
            } else if !is_written {
                (
                    StateShard::ReadOnly,
                    "never written during packet processing; replicate to every shard".into(),
                    None,
                )
            } else if is_map {
                match my_sites.iter().find(|s| !matches!(s.origin, Origin::Flow)) {
                    None => {
                        if let Some((fwd, rev)) = open_mirror_pair(&my_sites) {
                            // Every key is flow-pure, but the sites form a
                            // mirror pair that is not closed under direction
                            // reversal (e.g. written under `ip.src`, probed
                            // under `ip.dst`): no packet-field hash keeps the
                            // write and the probe for one endpoint on one
                            // shard, so the map couples flows after all.
                            let render = |fs: &[Field]| {
                                fs.iter().map(|f| f.path()).collect::<Vec<_>>().join(", ")
                            };
                            let reason = format!(
                                "keys form an open mirror pair ({} vs {}): the write and \
                                 the probe for one endpoint mix in the packet's other \
                                 endpoint, so they can land on different shards",
                                render(&fwd),
                                render(&rev)
                            );
                            (StateShard::Shared, reason, my_sites.first().copied())
                        } else {
                            (
                                StateShard::PerFlow,
                                format!(
                                    "all {} keys derive from the packet flow tuple",
                                    my_sites.len()
                                ),
                                None,
                            )
                        }
                    }
                    Some(bad) => {
                        let culprit = match &bad.origin {
                            Origin::Const => "constant key shared by every flow".to_string(),
                            Origin::NonFlow(why) => why.clone(),
                            Origin::Flow => unreachable!(),
                        };
                        let reason = format!(
                            "{} key at line {} is not flow-derived: {}",
                            bad.kind.as_str(),
                            bad.span.line,
                            culprit
                        );
                        if !is_log {
                            (StateShard::Shared, reason, Some(bad))
                        } else if let Some(why) = tracer.non_additive_entry_write(name, my_writes) {
                            (StateShard::Shared, format!("{reason}; {why}"), Some(bad))
                        } else {
                            (
                                StateShard::LogOnly,
                                format!(
                                    "{reason}; never output-impacting, so per-shard copies \
                                 can be aggregated"
                                ),
                                None,
                            )
                        }
                    }
                }
            } else if is_log {
                match tracer.non_additive_write(name, my_writes) {
                    None => (
                        StateShard::LogOnly,
                        "counter never impacts output; keep per-shard copies and aggregate".into(),
                        None,
                    ),
                    Some(reason) => (StateShard::Shared, reason, None),
                }
            } else {
                (
                    StateShard::Shared,
                    "single cell updated on the packet path couples all flows".into(),
                    None,
                )
            };

        if verdict == StateShard::Shared {
            let span = bad_site.map(|s| s.span).unwrap_or(item.span);
            diags.push(Diagnostic::new(
                Code::SharedState,
                span,
                Some(name.clone()),
                format!("state `{name}` cannot be sharded per-flow: {reason}"),
            ));
        }
        let dispatch = if verdict == StateShard::PerFlow && !my_sites.is_empty() {
            resolve_dispatch(&my_sites)
        } else {
            None
        };
        verdicts.push(
            StateVerdict::new(name.clone(), verdict, reason, item.span, my_sites.len())
                .with_dispatch(dispatch),
        );
    }
    (ShardingReport::from_states(verdicts), diags)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn run(src: &str) -> ShardingReport {
        let p = nfl_lang::parse_and_check(src).unwrap();
        let ctx = AnalysisCtx::build(&p).unwrap();
        analyze(&ctx).0
    }

    fn verdict_of<'r>(r: &'r ShardingReport, var: &str) -> &'r StateVerdict {
        r.get(var).unwrap()
    }

    #[test]
    fn flow_keyed_map_is_per_flow() {
        let r = run(r#"
            state buckets = map();
            fn cb(pkt: packet) {
                let src = pkt.ip.src;
                if src not in buckets { buckets[src] = 1; }
                if buckets[src] > 0 { send(pkt); }
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "buckets");
        assert_eq!(v.verdict, StateShard::PerFlow, "{v:?}");
        assert_eq!(v.key_sites, 3); // membership, write, read
        assert!(r.shardable());
    }

    #[test]
    fn strong_redefinition_kills_flow_origin() {
        // `k` starts flow-derived but is strongly overwritten with a
        // constant before the access: only the constant def reaches, so
        // the key is constant → shared.
        let r = run(r#"
            state m = map();
            fn cb(pkt: packet) {
                let k = pkt.ip.src;
                k = 7;
                if k in m { drop(pkt); } else { m[k] = 1; send(pkt); }
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::Shared, "{v:?}");
        assert!(v.reason.contains("constant"), "{}", v.reason);
    }

    #[test]
    fn weak_defs_do_not_launder_state_reads() {
        // The key is a value read out of another state map: a *weak*
        // def chain that must stay non-flow even though the outer index
        // is flow-derived.
        let r = run(r#"
            state alias = map();
            state m = map();
            fn cb(pkt: packet) {
                let k = alias[pkt.ip.src];
                if k in m { drop(pkt); } else { m[k] = 1; send(pkt); }
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::Shared, "{v:?}");
        assert!(v.reason.contains("state `alias`"), "{}", v.reason);
        assert!(!r.shardable());
    }

    #[test]
    fn branch_join_taints_key() {
        // One branch derives the key from the flow, the other from an
        // allocator state — both defs reach the access, so it is shared.
        let r = run(r#"
            state next = 0;
            state m = map();
            fn cb(pkt: packet) {
                let k = pkt.tcp.dport;
                if pkt.ip.src == 1 {
                    k = next;
                    next = next + 1;
                }
                if k in m { drop(pkt); } else { m[k] = 1; send(pkt); }
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::Shared, "{v:?}");
        assert!(v.reason.contains("state `next`"), "{}", v.reason);
    }

    #[test]
    fn rewritten_field_key_is_shared() {
        // Dispatch hashes the field as the packet arrived; the key reads
        // it after the NF rewrote it, so every packet collides on 5.
        let r = run(r#"
            state m = map();
            fn cb(pkt: packet) {
                pkt.ip.dst = 5;
                if pkt.ip.dst in m { send(pkt); } else { m[pkt.ip.dst] = 1; }
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::Shared, "{v:?}");
        assert!(
            v.reason.contains("`pkt.ip.dst` is rewritten at line 4"),
            "{}",
            v.reason
        );
        assert!(v.dispatch().is_none());
        // A rewrite on one path reaches the key too; one of another
        // field, or one after the key is read, does not.
        let r = run(r#"
            state branch = map();
            state other = map();
            state after = map();
            fn cb(pkt: packet) {
                after[pkt.ip.src] = 1;
                if pkt.tcp.dport == 80 { pkt.tcp.sport = 7; }
                branch[(pkt.ip.src, pkt.tcp.sport)] = 1;
                pkt.ip.ttl = 3;
                other[(pkt.ip.src, pkt.ip.dst)] = 1;
                pkt.ip.src = 9;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        let branch = verdict_of(&r, "branch");
        assert_eq!(branch.verdict, StateShard::Shared, "{branch:?}");
        assert!(
            branch
                .reason
                .contains("`pkt.tcp.sport` is rewritten at line 7"),
            "{}",
            branch.reason
        );
        for var in ["other", "after"] {
            assert_eq!(verdict_of(&r, var).verdict, StateShard::PerFlow, "{var}");
        }
    }

    #[test]
    fn popped_packet_key_is_shared() {
        // `p` is a packet taken from state, not the one this step
        // received: its source address says nothing about the shard.
        let r = run(r#"
            state q = queue();
            state m = map();
            fn cb(pkt: packet) {
                q_push(q, pkt);
                let p = q_pop(q);
                m[p.ip.src] = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::Shared, "{v:?}");
        assert!(
            v.reason
                .contains("`p` is not the arriving packet (set at line 6)"),
            "{}",
            v.reason
        );
    }

    #[test]
    fn copied_packet_key_stays_per_flow() {
        // A plain copy of the packet is the packet; a rewrite before the
        // copy reaches it, one of the original after the copy does not.
        let r = run(r#"
            state m = map();
            state late = map();
            state early = map();
            fn cb(pkt: packet) {
                let p = pkt;
                m[p.ip.src] = 1;
                pkt.ip.src = 1;
                late[p.ip.src] = 1;
                let e = pkt;
                early[e.ip.src] = 1;
                send(p);
            }
            fn main() { sniff(cb); }
        "#);
        let m = verdict_of(&r, "m");
        assert_eq!(m.verdict, StateShard::PerFlow, "{m:?}");
        assert_eq!(m.dispatch().unwrap().fields(), &[Field::IpSrc]);
        assert_eq!(verdict_of(&r, "late").verdict, StateShard::PerFlow);
        let early = verdict_of(&r, "early");
        assert_eq!(early.verdict, StateShard::Shared, "{early:?}");
        assert!(
            early.reason.contains("`pkt.ip.src` is rewritten at line 8"),
            "{}",
            early.reason
        );
    }

    #[test]
    fn hash_of_flow_fields_stays_flow() {
        let r = run(r#"
            state m = map();
            fn cb(pkt: packet) {
                let k = hash(pkt.ip.src) % 64;
                m[k] = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        assert_eq!(verdict_of(&r, "m").verdict, StateShard::PerFlow);
    }

    #[test]
    fn tuple_key_mixing_config_and_flow_is_flow() {
        // Configs are constant across flows; they neither make a key
        // per-flow on their own nor taint a flow-derived one.
        let r = run(r#"
            config PORT = 80;
            state m = map();
            fn cb(pkt: packet) {
                m[(pkt.ip.src, PORT)] = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        assert_eq!(verdict_of(&r, "m").verdict, StateShard::PerFlow);
    }

    #[test]
    fn config_only_key_is_shared() {
        let r = run(r#"
            config PORT = 80;
            state m = map();
            fn cb(pkt: packet) {
                if PORT in m { drop(pkt); } else { m[PORT] = 1; send(pkt); }
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::Shared, "{v:?}");
    }

    #[test]
    fn non_flow_packet_field_key_is_shared() {
        // Two different flows can carry the same TTL; RSS will not keep
        // them on one core.
        let r = run(r#"
            state m = map();
            fn cb(pkt: packet) {
                if pkt.ip.ttl in m { drop(pkt); } else { m[pkt.ip.ttl] = 1; send(pkt); }
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::Shared);
        assert!(v.reason.contains("non-flow packet field"), "{}", v.reason);
    }

    #[test]
    fn scalar_verdicts() {
        let r = run(r#"
            state seen = 0;
            state budget = 10;
            state floor = 3;
            fn cb(pkt: packet) {
                seen = seen + 1;
                if budget > floor {
                    budget = budget - 1;
                    send(pkt);
                }
            }
            fn main() { sniff(cb); }
        "#);
        // `seen` never impacts output → log-only.
        assert_eq!(verdict_of(&r, "seen").verdict, StateShard::LogOnly);
        // `budget` guards the send and is written → shared.
        assert_eq!(verdict_of(&r, "budget").verdict, StateShard::Shared);
        // `floor` is read-only.
        assert_eq!(verdict_of(&r, "floor").verdict, StateShard::ReadOnly);
        assert_eq!(r.nf_verdict(), StateShard::Shared);
    }

    #[test]
    fn log_scalar_stays_log_only_only_when_every_write_adds() {
        // The shard join sums a log-only scalar's per-shard deltas, so
        // only additive, state-free updates keep that verdict.
        let r = run(r#"
            state seen = map();
            state up = 0;
            state up_rev = 0;
            state down = 0;
            state via_local = 0;
            state last = 0;
            state a = 0;
            state b = 0;
            state c = 0;
            state q = queue();
            state popped = 0;
            fn cb(pkt: packet) {
                seen[pkt.ip.src] = 1;
                up = up + 1;
                up_rev = pkt.ip.ttl + up_rev;
                down = down - 2;
                let d = pkt.tcp.sport % 7;
                via_local = via_local + d;
                last = 7;
                a = a + 1;
                b = b + a;
                let t = a;
                c = c + t;
                q_push(q, pkt);
                let p = q_pop(q);
                popped = popped + p.ip.ttl;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        for var in ["up", "up_rev", "down", "via_local", "a"] {
            assert_eq!(verdict_of(&r, var).verdict, StateShard::LogOnly, "{var}");
        }
        let last = verdict_of(&r, "last");
        assert_eq!(last.verdict, StateShard::Shared);
        assert!(last.reason.contains("not an increment"), "{}", last.reason);
        for var in ["b", "c"] {
            let v = verdict_of(&r, var);
            assert_eq!(v.verdict, StateShard::Shared, "{var}");
            assert!(v.reason.contains("reads state `a`"), "{var}: {}", v.reason);
        }
        // A field of a packet taken from state is traced to its source.
        let popped = verdict_of(&r, "popped");
        assert_eq!(popped.verdict, StateShard::Shared);
        assert!(popped.reason.contains("`q_pop`"), "{}", popped.reason);
        assert_eq!(r.nf_verdict(), StateShard::Shared);
    }

    #[test]
    fn log_map_stays_log_only_only_when_every_entry_write_adds() {
        // The shard join sums each entry's per-shard deltas of a log-only
        // map, so only additive, state-free entry updates keep that
        // verdict. Every key here is the non-flow `ip.ttl`.
        let r = run(r#"
            state n = 3;
            state up = map();
            state up_rev = map();
            state down = map();
            state set = map();
            state moved = map();
            state reads = map();
            state guarded = map();
            state removed = map();
            fn cb(pkt: packet) {
                let t = pkt.ip.ttl;
                up[t] = up[t] + 1;
                up_rev[t] = pkt.ip.id + up_rev[t];
                down[pkt.ip.ttl] = down[pkt.ip.ttl] - 2;
                set[t] = 7;
                moved[t] = moved[pkt.ip.id] + 1;
                reads[t] = reads[t] + n;
                if t not in guarded { guarded[t] = 0; }
                guarded[t] = guarded[t] + 1;
                removed[t] = removed[t] + 1;
                map_remove(removed, pkt.ip.id);
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        for var in ["up", "up_rev", "down"] {
            let v = verdict_of(&r, var);
            assert_eq!(v.verdict, StateShard::LogOnly, "{var}: {}", v.reason);
        }
        for (var, line, why) in [
            ("set", 16, "not an increment"),
            ("moved", 17, "not an increment"),
            ("reads", 18, "reads state `n`"),
            ("guarded", 19, "not an increment"),
            ("removed", 22, "not an increment"),
        ] {
            let v = verdict_of(&r, var);
            assert_eq!(v.verdict, StateShard::Shared, "{var}");
            let at = format!("line {line} ");
            assert!(
                v.reason.contains(&at) && v.reason.contains(why),
                "{var}: {}",
                v.reason
            );
        }
        assert_eq!(r.nf_verdict(), StateShard::Shared);
    }

    #[test]
    fn loop_counter_key_is_shared() {
        // Iterating every slot each packet is the opposite of per-flow.
        let r = run(r#"
            config N = 4;
            state slots = map();
            fn cb(pkt: packet) {
                for i in 0..N {
                    if i in slots { drop(pkt); return; }
                }
                slots[pkt.ip.src] = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        assert_eq!(verdict_of(&r, "slots").verdict, StateShard::Shared);
    }

    #[test]
    fn map_remove_key_is_traced() {
        let r = run(r#"
            state m = map();
            fn cb(pkt: packet) {
                let k = (pkt.ip.src, pkt.tcp.sport);
                if k in m {
                    map_remove(m, k);
                } else {
                    m[k] = 1;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::PerFlow, "{v:?}");
        assert_eq!(v.key_sites, 3);
    }

    #[test]
    fn src_keyed_map_dispatches_on_src_alone() {
        // Portknock-shaped: the map is keyed by source IP only. A
        // five-tuple dispatch would scatter one client's knocks (they
        // differ in dport) across shards; the resolved key must be the
        // bare `ip.src`.
        let r = run(r#"
            state progress = map();
            fn cb(pkt: packet) {
                let src = pkt.ip.src;
                if src not in progress { progress[src] = 0; }
                if progress[src] > 1 { send(pkt); } else { progress[src] = progress[src] + 1; drop(pkt); }
            }
            fn main() { sniff(cb); }
        "#);
        let d = verdict_of(&r, "progress").dispatch().expect("dispatch");
        assert_eq!(d.fields(), &[Field::IpSrc]);
        assert!(!d.symmetric());
        assert_eq!(d.render(), "ip.src");
    }

    #[test]
    fn mirrored_shapes_resolve_symmetric_dispatch() {
        // Firewall-shaped: written with the reversed 4-tuple, probed
        // with the forward one. Plain hashing of either shape would put
        // the two directions on different shards; the verdict must ask
        // for a symmetric (direction-canonicalising) hash.
        let r = run(r#"
            state pinholes = map();
            fn cb(pkt: packet) {
                if pkt.ip.src == 1 {
                    pinholes[(pkt.ip.dst, pkt.tcp.dport, pkt.ip.src, pkt.tcp.sport)] = 1;
                    send(pkt);
                } else {
                    if (pkt.ip.src, pkt.tcp.sport, pkt.ip.dst, pkt.tcp.dport) in pinholes {
                        send(pkt);
                    } else {
                        drop(pkt);
                    }
                }
            }
            fn main() { sniff(cb); }
        "#);
        let d = verdict_of(&r, "pinholes").dispatch().expect("dispatch");
        assert!(d.symmetric());
        // Oriented on the lexicographically smaller shape; both
        // orientations hash identically at runtime.
        assert_eq!(
            d.fields(),
            &[Field::IpSrc, Field::TcpSport, Field::IpDst, Field::TcpDport]
        );
    }

    #[test]
    fn open_mirror_pair_single_field_demotes_to_shared() {
        // Written under the source endpoint, probed under the
        // destination endpoint: a mirror pair, but not mirror-closed —
        // a symmetric hash would mix in the packet's other endpoint,
        // scattering one entry's write and probe across shards.
        let r = run(r#"
            state m = map();
            fn cb(pkt: packet) {
                if pkt.ip.dst in m { send(pkt); } else { drop(pkt); }
                m[pkt.ip.src] = 1;
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::Shared, "{v:?}");
        assert!(v.reason.contains("open mirror pair"), "{}", v.reason);
        assert!(
            v.reason.contains("ip.src") && v.reason.contains("ip.dst"),
            "{}",
            v.reason
        );
        assert!(v.dispatch().is_none());
        assert!(!r.shardable());
    }

    #[test]
    fn open_mirror_pair_two_field_demotes_to_shared() {
        // Same defect with a (addr, port) pair per direction: still a
        // mirror pair, still open ({src, sport} ≠ {dst, dport}).
        let r = run(r#"
            state m = map();
            fn cb(pkt: packet) {
                if (pkt.ip.dst, pkt.tcp.dport) in m { send(pkt); } else { drop(pkt); }
                m[(pkt.ip.src, pkt.tcp.sport)] = 1;
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::Shared, "{v:?}");
        assert!(v.reason.contains("open mirror pair"), "{}", v.reason);
    }

    #[test]
    fn open_mirror_pair_emits_nfl009() {
        let p = nfl_lang::parse_and_check(
            r#"
            state m = map();
            fn cb(pkt: packet) {
                if pkt.ip.dst in m { send(pkt); } else { drop(pkt); }
                m[pkt.ip.src] = 1;
            }
            fn main() { sniff(cb); }
        "#,
        )
        .unwrap();
        let ctx = AnalysisCtx::build(&p).unwrap();
        let (_, diags) = analyze(&ctx);
        assert!(
            diags.iter().any(|d| d.code == Code::SharedState
                && d.var.as_deref() == Some("m")
                && d.message.contains("open mirror pair")),
            "{diags:?}"
        );
    }

    #[test]
    fn closed_mirror_pair_keeps_symmetric_dispatch() {
        // The two-endpoint pair {src, dst} mirrors onto itself — the
        // symmetric hash input is exactly the entry key, so the
        // firewall-style demotion must NOT fire here.
        let r = run(r#"
            state peers = map();
            fn cb(pkt: packet) {
                if (pkt.ip.dst, pkt.ip.src) in peers { send(pkt); } else { drop(pkt); }
                peers[(pkt.ip.src, pkt.ip.dst)] = 1;
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "peers");
        assert_eq!(v.verdict, StateShard::PerFlow, "{v:?}");
        let d = v.dispatch().expect("dispatch");
        assert!(d.symmetric());
    }

    #[test]
    fn derived_key_has_no_dispatch() {
        // Flow-derived but not a bare field tuple: per-flow verdict,
        // yet no dispatch hash can be synthesised from raw fields.
        let r = run(r#"
            state m = map();
            fn cb(pkt: packet) {
                let k = hash(pkt.ip.src) % 64;
                m[k] = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::PerFlow);
        assert!(v.dispatch().is_none());
    }

    #[test]
    fn unrelated_shapes_have_no_dispatch() {
        // Two shapes that are not mirrors of each other: both keys are
        // flow-pure, but no single hash colocates both access paths.
        let r = run(r#"
            state m = map();
            fn cb(pkt: packet) {
                if pkt.ip.src == 1 {
                    m[pkt.ip.src] = 1;
                } else {
                    m[pkt.tcp.sport] = 1;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        let v = verdict_of(&r, "m");
        assert_eq!(v.verdict, StateShard::PerFlow);
        assert!(v.dispatch().is_none());
    }

    #[test]
    fn constants_align_but_do_not_dispatch() {
        // A config component is positionally part of the shape but
        // contributes no hash input.
        let r = run(r#"
            config PORT = 80;
            state m = map();
            fn cb(pkt: packet) {
                m[(pkt.ip.src, PORT)] = 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#);
        let d = verdict_of(&r, "m").dispatch().expect("dispatch");
        assert_eq!(d.fields(), &[Field::IpSrc]);
        assert!(!d.symmetric());
    }

    /// Read every verdict of `r` back out of its parsed JSON document.
    /// Shared with the report tests in `lib.rs`.
    pub(crate) fn assert_written(r: &ShardingReport, doc: &Value) {
        assert_eq!(
            doc.get("verdict").and_then(Value::as_str),
            Some(r.nf_verdict().as_str())
        );
        let states = doc.get("states").and_then(Value::as_array).unwrap();
        assert_eq!(states.len(), r.len());
        for (s, sj) in r.states().iter().zip(states) {
            let str_of = |k: &str| sj.get(k).and_then(Value::as_str);
            let int_of = |k: &str| sj.get(k).and_then(Value::as_int);
            assert_eq!(str_of("var"), Some(s.var()));
            assert_eq!(str_of("verdict"), Some(s.verdict().as_str()));
            assert_eq!(str_of("reason"), Some(s.reason()));
            assert_eq!(int_of("line"), Some(i64::from(s.span().line)));
            assert_eq!(int_of("start"), Some(s.span().start as i64));
            assert_eq!(int_of("end"), Some(s.span().end as i64));
            assert_eq!(int_of("key_sites"), Some(s.key_sites() as i64));
            let fields = sj
                .get("dispatch_fields")
                .and_then(Value::as_array)
                .map(|fs| fs.iter().map(|f| f.as_str().unwrap()).collect::<Vec<_>>());
            let symmetric = sj.get("dispatch_symmetric").and_then(Value::as_bool);
            match s.dispatch() {
                Some(d) => {
                    let paths: Vec<_> = d.fields().iter().map(|f| f.path()).collect();
                    assert_eq!(fields, Some(paths));
                    assert_eq!(symmetric, Some(d.symmetric()));
                }
                None => {
                    assert_eq!(fields, None);
                    assert_eq!(symmetric, None);
                }
            }
        }
    }

    #[test]
    fn dispatch_is_written_to_json() {
        let r = run(r#"
            state m = map();
            fn cb(pkt: packet) {
                let k = (pkt.ip.src, pkt.tcp.sport);
                if k in m { drop(pkt); } else { m[k] = 1; send(pkt); }
            }
            fn main() { sniff(cb); }
        "#);
        assert!(verdict_of(&r, "m").dispatch().is_some());
        let rendered = r.to_json().render();
        assert!(
            rendered.contains(r#""dispatch_fields":["ip.src","tcp.sport"]"#),
            "{rendered}"
        );
        assert_written(&r, &Value::parse(&rendered).unwrap());
    }

    #[test]
    fn report_json_carries_every_verdict() {
        let r = run(r#"
            state next = 0;
            state m = map();
            fn cb(pkt: packet) {
                if next in m { drop(pkt); } else { m[next] = 1; send(pkt); }
                next = next + 1;
            }
            fn main() { sniff(cb); }
        "#);
        assert_written(&r, &Value::parse(&r.to_json().render()).unwrap());
        assert_eq!(r.nf_verdict(), StateShard::Shared);
    }
}
