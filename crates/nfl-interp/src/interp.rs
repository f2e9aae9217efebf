//! The interpreter proper.
//!
//! [`Interp`] owns the NF's persistent state (the `state` globals, living
//! across packets exactly as the paper's load balancer keeps `f2b_nat`
//! between callback invocations) and executes the per-packet function on
//! demand. `config` and `const` globals are evaluated once and are
//! read-only thereafter; a deployment can override configs before the
//! first packet ([`Interp::set_config`]) — that is the `mode = RR | HASH`
//! knob of Figure 6.
//!
//! Every write to a global banks the value it replaces in an undo log,
//! so [`Interp::revert`] can undo a failed packet in O(writes it made)
//! rather than the caller copying all state before every packet.

use crate::trace::{Trace, TraceEvent};
use crate::value::{stable_hash, Value, ValueKey};
use nf_packet::{frag, Packet};
use nfl_analysis::normalize::PacketLoop;
use nfl_lang::{BinOp, Expr, ExprKind, ForIter, LValue, Program, Stmt, StmtKind, UnOp};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Runtime errors. NFL is checked before execution, so most of these
/// indicate corpus bugs rather than user-facing conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Read of an unbound variable.
    Unbound(String),
    /// Operation applied to the wrong runtime type.
    Type(String),
    /// Map lookup for a key that is not present.
    MissingKey(String),
    /// Array/tuple index out of range.
    Index(String),
    /// Arithmetic overflow or division by zero.
    Arith(String),
    /// The per-packet execution exceeded the step budget — an unbounded
    /// loop (the paper's §3.2 requires NF loops be bounded).
    StepLimit,
    /// A socket builtin reached the interpreter; run the `nf-tcp`
    /// unfolding first.
    SocketNotUnfolded(String),
    /// Packet field access failed.
    Packet(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Unbound(v) => write!(f, "unbound variable `{v}`"),
            RuntimeError::Type(m) => write!(f, "type error: {m}"),
            RuntimeError::MissingKey(k) => write!(f, "map has no key {k}"),
            RuntimeError::Index(m) => write!(f, "index error: {m}"),
            RuntimeError::Arith(m) => write!(f, "arithmetic error: {m}"),
            RuntimeError::StepLimit => write!(f, "step limit exceeded (unbounded loop?)"),
            RuntimeError::SocketNotUnfolded(n) => {
                write!(f, "socket builtin `{n}` not unfolded; run nf-tcp first")
            }
            RuntimeError::Packet(m) => write!(f, "packet error: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The observable result of processing one packet.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Packets emitted by `send`, in order.
    pub outputs: Vec<Packet>,
    /// Log lines from `log`.
    pub logs: Vec<String>,
    /// Whether the packet was dropped (no output emitted — the paper's
    /// low-priority default drop action).
    pub dropped: bool,
    /// The dynamic execution trace.
    pub trace: Trace,
}

/// Maximum interpreter steps per packet; NF loops are bounded (§3.2), so
/// hitting this means a corpus bug.
const STEP_LIMIT: usize = 200_000;

enum Flow {
    Normal,
    Return,
    Break,
    Continue,
}

/// The interpreter: program + persistent globals.
#[derive(Debug, Clone)]
pub struct Interp {
    /// Shared, immutable: a packet borrows function bodies from it and
    /// a clone of the interpreter copies a pointer, not the AST.
    program: Arc<Program>,
    func: String,
    pkt_param: String,
    /// Globals: consts, configs and states, by name.
    pub globals: HashMap<String, Value>,
    /// Names that are `config`s (settable before the first packet).
    config_names: Vec<String>,
    packets_seen: u64,
    /// Pre-images of every write the most recent
    /// [`process`](Self::process) made, in write order;
    /// [`revert`](Self::revert) replays it backwards.
    undo: Vec<Undo>,
}

/// One banked pre-image.
#[derive(Debug, Clone)]
enum Undo {
    /// `packets_seen` before the step's bump.
    Counter(u64),
    /// A write to the named global.
    Global(String, SlotUndo),
}

/// What one write replaced inside a variable's value.
#[derive(Debug, Clone)]
enum SlotUndo {
    /// The whole previous value (plain assignment; packet-field stores,
    /// whose payload writes a field-level undo could not invert).
    Whole(Value),
    /// A map entry's previous value (`None`: the key was absent).
    Key(ValueKey, Option<Value>),
    /// An array element's previous value.
    Elem(usize, Value),
    /// A `q_push` appended one packet at the back.
    Pushed,
    /// A `q_pop` removed this packet from the front.
    Popped(Packet),
}

/// Resolve a variable to its storage — a local shadows a global — and
/// whether it is a global, whose writes must be undo-logged.
fn resolve<'a>(
    locals: &'a mut HashMap<String, Value>,
    globals: &'a mut HashMap<String, Value>,
    name: &str,
) -> Result<(&'a mut Value, bool), RuntimeError> {
    if let Some(v) = locals.get_mut(name) {
        return Ok((v, false));
    }
    globals
        .get_mut(name)
        .map(|v| (v, true))
        .ok_or_else(|| RuntimeError::Unbound(name.to_string()))
}

/// Whether evaluating `e` can write a variable: a mutating builtin or a
/// user function call anywhere inside it.
fn may_write(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Str(_) => false,
        ExprKind::Var(_) | ExprKind::Field(..) => false,
        ExprKind::Tuple(es) | ExprKind::Array(es) => es.iter().any(may_write),
        ExprKind::Index(a, b) | ExprKind::Binary(_, a, b) => may_write(a) || may_write(b),
        ExprKind::Unary(_, a) => may_write(a),
        ExprKind::Call(name, args) => {
            !matches!(
                name.as_str(),
                "send" | "drop" | "log" | "hash" | "len" | "min" | "max" | "checksum"
                    | "fragment" | "map" | "queue"
            ) || args.iter().any(may_write)
        }
    }
}

/// `base[i]` over a map, array or tuple.
fn index_value(b: &Value, i: &Value) -> Result<Value, RuntimeError> {
    match b {
        Value::Map(m) => {
            let k = i
                .as_key()
                .ok_or_else(|| RuntimeError::Type(format!("{} not keyable", i.type_name())))?;
            m.get(&k)
                .cloned()
                .ok_or_else(|| RuntimeError::MissingKey(k.to_string()))
        }
        Value::Array(a) => {
            let n = i
                .as_int()
                .ok_or_else(|| RuntimeError::Type("array index not int".into()))?;
            let idx = usize::try_from(n)
                .map_err(|_| RuntimeError::Index(format!("negative index {n}")))?;
            a.get(idx).cloned().ok_or_else(|| {
                RuntimeError::Index(format!("index {idx} out of bounds ({})", a.len()))
            })
        }
        Value::Tuple(t) => {
            let n = i
                .as_int()
                .ok_or_else(|| RuntimeError::Type("tuple index not int".into()))?;
            let idx = usize::try_from(n)
                .map_err(|_| RuntimeError::Index(format!("negative index {n}")))?;
            t.get(idx).map(|v| Value::Int(*v)).ok_or_else(|| {
                RuntimeError::Index(format!("tuple index {idx} (arity {})", t.len()))
            })
        }
        other => Err(RuntimeError::Type(format!(
            "cannot index {}",
            other.type_name()
        ))),
    }
}

/// `a in b` (or `not in`) over a map or array.
fn contains(op: BinOp, a: &Value, b: &Value) -> Result<Value, RuntimeError> {
    let contained = match b {
        Value::Map(m) => {
            let k = a
                .as_key()
                .ok_or_else(|| RuntimeError::Type(format!("{} not keyable", a.type_name())))?;
            m.contains_key(&k)
        }
        Value::Array(items) => items.contains(a),
        other => {
            return Err(RuntimeError::Type(format!(
                "`in` over {}",
                other.type_name()
            )))
        }
    };
    Ok(Value::Bool(if op == BinOp::In {
        contained
    } else {
        !contained
    }))
}

/// The `len` builtin.
fn len_of(v: &Value) -> Result<Value, RuntimeError> {
    match v {
        Value::Array(a) => Ok(Value::Int(a.len() as i64)),
        Value::Map(m) => Ok(Value::Int(m.len() as i64)),
        Value::Str(s) => Ok(Value::Int(s.len() as i64)),
        Value::Tuple(t) => Ok(Value::Int(t.len() as i64)),
        Value::Queue(q) => Ok(Value::Int(q.len() as i64)),
        Value::Packet(p) => Ok(Value::Int(p.wire_len() as i64)),
        other => Err(RuntimeError::Type(format!("len of {}", other.type_name()))),
    }
}

struct Ctx {
    outputs: Vec<Packet>,
    logs: Vec<String>,
    trace: Trace,
    steps: usize,
    ctrl: Vec<usize>,
}

impl Interp {
    /// Build an interpreter from a normalised packet loop, evaluating all
    /// global initialisers.
    pub fn new(pl: &PacketLoop) -> Result<Interp, RuntimeError> {
        let mut interp = Interp {
            program: Arc::new(pl.program.clone()),
            func: pl.func.clone(),
            pkt_param: pl.pkt_param.clone(),
            globals: HashMap::new(),
            config_names: pl.program.configs.iter().map(|i| i.name.clone()).collect(),
            packets_seen: 0,
            undo: Vec::new(),
        };
        let mut ctx = Ctx {
            outputs: Vec::new(),
            logs: Vec::new(),
            trace: Trace::default(),
            steps: 0,
            ctrl: Vec::new(),
        };
        let items: Vec<_> = pl
            .program
            .consts
            .iter()
            .chain(&pl.program.configs)
            .chain(&pl.program.states)
            .cloned()
            .collect();
        for item in items {
            let mut locals = HashMap::new();
            let v = interp.eval(&item.init, &mut locals, &mut ctx)?;
            interp.globals.insert(item.name.clone(), v);
        }
        Ok(interp)
    }

    /// Override a `config` before processing packets (e.g. the Figure 6
    /// `mode` knob). Returns an error if `name` is not a config.
    pub fn set_config(&mut self, name: &str, v: Value) -> Result<(), RuntimeError> {
        if self.packets_seen > 0 {
            return Err(RuntimeError::Type(
                "configs are fixed once traffic starts".into(),
            ));
        }
        if !self.config_names.iter().any(|c| c == name) {
            return Err(RuntimeError::Unbound(format!("config `{name}`")));
        }
        self.globals.insert(name.to_string(), v);
        Ok(())
    }

    /// Number of packets processed so far. It doubles as the step
    /// generation: [`process`](Self::process) bumps it before executing
    /// and [`revert`](Self::revert) restores it, so a caller can tell
    /// whether a failure happened before a step began (nothing to
    /// undo) or during one.
    pub fn packets_seen(&self) -> u64 {
        self.packets_seen
    }

    /// Undo the most recent [`process`](Self::process): restore every
    /// global it wrote, in reverse write order, and the packet counter
    /// — O(writes the packet made). A failed packet then leaves no
    /// trace however far into the function it got. Idempotent: the log
    /// drains as it replays.
    pub fn revert(&mut self) {
        while let Some(u) = self.undo.pop() {
            let (name, u) = match u {
                Undo::Counter(n) => {
                    self.packets_seen = n;
                    continue;
                }
                Undo::Global(name, u) => (name, u),
            };
            let Some(slot) = self.globals.get_mut(&name) else {
                continue;
            };
            // Entries replay in reverse onto the value each was taken
            // from, so the shapes always match.
            match (u, slot) {
                (SlotUndo::Whole(v), slot) => *slot = v,
                (SlotUndo::Key(k, Some(v)), Value::Map(m)) => {
                    m.insert(k, v);
                }
                (SlotUndo::Key(k, None), Value::Map(m)) => {
                    m.remove(&k);
                }
                (SlotUndo::Elem(i, v), Value::Array(a)) => {
                    if let Some(x) = a.get_mut(i) {
                        *x = v;
                    }
                }
                (SlotUndo::Pushed, Value::Queue(q)) => {
                    q.pop_back();
                }
                (SlotUndo::Popped(p), Value::Queue(q)) => q.push_front(p),
                _ => {}
            }
        }
    }

    /// Bank a write's pre-image when it hit a global.
    fn log(&mut self, global: bool, name: &str, u: SlotUndo) {
        if global {
            self.undo.push(Undo::Global(name.to_string(), u));
        }
    }

    /// Read a global (state inspection for tests and the verifier).
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Process one packet through the per-packet function.
    pub fn process(&mut self, pkt: &Packet) -> Result<StepResult, RuntimeError> {
        self.undo.clear();
        self.undo.push(Undo::Counter(self.packets_seen));
        self.packets_seen += 1;
        let program = Arc::clone(&self.program);
        let f = program
            .function(&self.func)
            .ok_or_else(|| RuntimeError::Unbound(self.func.clone()))?;
        let mut locals: HashMap<String, Value> = HashMap::new();
        locals.insert(self.pkt_param.clone(), Value::Packet(pkt.clone()));
        let mut ctx = Ctx {
            outputs: Vec::new(),
            logs: Vec::new(),
            trace: Trace::default(),
            steps: 0,
            ctrl: Vec::new(),
        };
        self.exec_block(&f.body, &mut locals, &mut ctx)?;
        Ok(StepResult {
            dropped: ctx.outputs.is_empty(),
            outputs: ctx.outputs,
            logs: ctx.logs,
            trace: ctx.trace,
        })
    }

    fn exec_block(
        &mut self,
        stmts: &[Stmt],
        locals: &mut HashMap<String, Value>,
        ctx: &mut Ctx,
    ) -> Result<Flow, RuntimeError> {
        for s in stmts {
            match self.exec_stmt(s, locals, ctx)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Trace one executed instance of `s`, under the innermost branch
    /// instance still open.
    fn record(&mut self, s: &Stmt, branch: Option<bool>, emitted: bool, ctx: &mut Ctx) -> usize {
        let ctrl = ctx.ctrl.last().copied();
        ctx.trace.push(TraceEvent {
            stmt: s.id,
            branch,
            ctrl,
            emitted,
        })
    }

    fn exec_stmt(
        &mut self,
        s: &Stmt,
        locals: &mut HashMap<String, Value>,
        ctx: &mut Ctx,
    ) -> Result<Flow, RuntimeError> {
        ctx.steps += 1;
        if ctx.steps > STEP_LIMIT {
            return Err(RuntimeError::StepLimit);
        }
        match &s.kind {
            StmtKind::Let { name, value } => {
                let emitted_before = ctx.outputs.len();
                let v = self.eval(value, locals, ctx)?;
                locals.insert(name.clone(), v);
                self.record(s, None, ctx.outputs.len() > emitted_before, ctx);
                Ok(Flow::Normal)
            }
            StmtKind::Assign { target, value } => {
                let emitted_before = ctx.outputs.len();
                let v = self.eval(value, locals, ctx)?;
                self.assign(target, v, locals, ctx)?;
                self.record(s, None, ctx.outputs.len() > emitted_before, ctx);
                Ok(Flow::Normal)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval_bool(cond, locals, ctx, "if condition not bool")?;
                let ev = self.record(s, Some(c), false, ctx);
                ctx.ctrl.push(ev);
                let r = if c {
                    self.exec_block(then_branch, locals, ctx)
                } else {
                    self.exec_block(else_branch, locals, ctx)
                };
                ctx.ctrl.pop();
                r
            }
            StmtKind::While { cond, body } => {
                loop {
                    ctx.steps += 1;
                    if ctx.steps > STEP_LIMIT {
                        return Err(RuntimeError::StepLimit);
                    }
                    let c = self.eval_bool(cond, locals, ctx, "while condition not bool")?;
                    let ev = self.record(s, Some(c), false, ctx);
                    if !c {
                        break;
                    }
                    ctx.ctrl.push(ev);
                    let flow = self.exec_block(body, locals, ctx)?;
                    ctx.ctrl.pop();
                    match flow {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Continue | Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For { var, iter, body } => {
                // A range is iterated lazily, never collected: its bound
                // may come from the packet, and the step limit below must
                // stop a huge one before it costs memory.
                let (range, array) = match iter {
                    ForIter::Range(lo, hi) => {
                        let lo = self
                            .eval(lo, locals, ctx)?
                            .as_int()
                            .ok_or_else(|| RuntimeError::Type("range bound not int".into()))?;
                        let hi = self
                            .eval(hi, locals, ctx)?
                            .as_int()
                            .ok_or_else(|| RuntimeError::Type("range bound not int".into()))?;
                        (lo..hi, Vec::new())
                    }
                    ForIter::Array(a) => match self.eval(a, locals, ctx)? {
                        Value::Array(items) => (0..0, items),
                        other => {
                            return Err(RuntimeError::Type(format!(
                                "for-in over {}",
                                other.type_name()
                            )))
                        }
                    },
                };
                for item in range.map(Value::Int).chain(array) {
                    ctx.steps += 1;
                    if ctx.steps > STEP_LIMIT {
                        return Err(RuntimeError::StepLimit);
                    }
                    let ev = self.record(s, Some(true), false, ctx);
                    locals.insert(var.clone(), item);
                    ctx.ctrl.push(ev);
                    let flow = self.exec_block(body, locals, ctx)?;
                    ctx.ctrl.pop();
                    match flow {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Continue | Flow::Normal => {}
                    }
                }
                self.record(s, Some(false), false, ctx);
                Ok(Flow::Normal)
            }
            StmtKind::Return(v) => {
                if let Some(e) = v {
                    let val = self.eval(e, locals, ctx)?;
                    locals.insert("__return".into(), val);
                }
                self.record(s, None, false, ctx);
                Ok(Flow::Return)
            }
            StmtKind::Break => {
                self.record(s, None, false, ctx);
                Ok(Flow::Break)
            }
            StmtKind::Continue => {
                self.record(s, None, false, ctx);
                Ok(Flow::Continue)
            }
            StmtKind::Expr(e) => {
                let emitted_before = ctx.outputs.len();
                self.eval(e, locals, ctx)?;
                self.record(s, None, ctx.outputs.len() > emitted_before, ctx);
                Ok(Flow::Normal)
            }
        }
    }

    fn assign(
        &mut self,
        target: &LValue,
        v: Value,
        locals: &mut HashMap<String, Value>,
        ctx: &mut Ctx,
    ) -> Result<(), RuntimeError> {
        match target {
            LValue::Var(name) => {
                let (slot, global) = resolve(locals, &mut self.globals, name)?;
                let prev = std::mem::replace(slot, v);
                self.log(global, name, SlotUndo::Whole(prev));
                Ok(())
            }
            LValue::Index(base, key) => {
                let k = self.eval(key, locals, ctx)?;
                let (slot, global) = resolve(locals, &mut self.globals, base)?;
                let undo = match slot {
                    Value::Map(m) => {
                        let key = k.as_key().ok_or_else(|| {
                            RuntimeError::Type(format!("{} is not keyable", k.type_name()))
                        })?;
                        let prev = m.insert(key.clone(), v);
                        SlotUndo::Key(key, prev)
                    }
                    Value::Array(a) => {
                        let i = k
                            .as_int()
                            .ok_or_else(|| RuntimeError::Type("array index not int".into()))?;
                        let idx = usize::try_from(i)
                            .map_err(|_| RuntimeError::Index(format!("negative index {i}")))?;
                        let Some(elem) = a.get_mut(idx) else {
                            return Err(RuntimeError::Index(format!(
                                "index {idx} out of bounds (len {})",
                                a.len()
                            )));
                        };
                        SlotUndo::Elem(idx, std::mem::replace(elem, v))
                    }
                    other => {
                        return Err(RuntimeError::Type(format!(
                            "cannot index-assign into {}",
                            other.type_name()
                        )))
                    }
                };
                self.log(global, base, undo);
                Ok(())
            }
            LValue::Field(base, field) => {
                let iv = v
                    .as_int()
                    .ok_or_else(|| RuntimeError::Type("packet fields take ints".into()))?;
                let (slot, global) = resolve(locals, &mut self.globals, base)?;
                let Value::Packet(p) = slot else {
                    return Err(RuntimeError::Type(format!(
                        "field store on {}",
                        slot.type_name()
                    )));
                };
                let uv = u64::try_from(iv)
                    .map_err(|_| RuntimeError::Packet(format!("negative field value {iv}")))?;
                let prev = global.then(|| p.clone());
                p.set(*field, uv)
                    .map_err(|e| RuntimeError::Packet(e.to_string()))?;
                if let Some(prev) = prev {
                    self.log(global, base, SlotUndo::Whole(Value::Packet(prev)));
                }
                Ok(())
            }
        }
    }

    /// Borrow a variable — a local shadows a global. Reads borrow; only
    /// a value that escapes into a new binding is cloned.
    fn lookup<'a>(
        &'a self,
        name: &str,
        locals: &'a HashMap<String, Value>,
    ) -> Result<&'a Value, RuntimeError> {
        locals
            .get(name)
            .or_else(|| self.globals.get(name))
            .ok_or_else(|| RuntimeError::Unbound(name.to_string()))
    }

    fn eval(
        &mut self,
        e: &Expr,
        locals: &mut HashMap<String, Value>,
        ctx: &mut Ctx,
    ) -> Result<Value, RuntimeError> {
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Str(s) => Ok(Value::Str(s.clone())),
            ExprKind::Var(name) => self.lookup(name, locals).cloned(),
            ExprKind::Field(base, field) => {
                let p = self
                    .lookup(base, locals)?
                    .as_packet()
                    .ok_or_else(|| RuntimeError::Type(format!("{base} is not a packet")))?;
                let raw = p
                    .get(*field)
                    .map_err(|e| RuntimeError::Packet(e.to_string()))?;
                Ok(Value::Int(raw as i64))
            }
            ExprKind::Tuple(es) => {
                let mut items = Vec::with_capacity(es.len());
                for x in es {
                    let v = self.eval(x, locals, ctx)?;
                    items.push(
                        v.as_int()
                            .ok_or_else(|| RuntimeError::Type("tuple element not int".into()))?,
                    );
                }
                Ok(Value::Tuple(items))
            }
            ExprKind::Array(es) => {
                let mut items = Vec::with_capacity(es.len());
                for x in es {
                    items.push(self.eval(x, locals, ctx)?);
                }
                Ok(Value::Array(items))
            }
            ExprKind::Index(base, idx) => {
                // `m[k]` on a variable borrows the container instead of
                // cloning it — unless evaluating the index could write
                // the container, which must then see the pre-image.
                if let ExprKind::Var(name) = &base.kind {
                    if !may_write(idx) {
                        self.lookup(name, locals)?;
                        let i = self.eval(idx, locals, ctx)?;
                        return index_value(self.lookup(name, locals)?, &i);
                    }
                }
                let b = self.eval(base, locals, ctx)?;
                let i = self.eval(idx, locals, ctx)?;
                index_value(&b, &i)
            }
            ExprKind::Binary(op, a, b) => self.eval_binary(*op, a, b, locals, ctx),
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner, locals, ctx)?;
                match op {
                    UnOp::Neg => v
                        .as_int()
                        .map(|i| Value::Int(-i))
                        .ok_or_else(|| RuntimeError::Type("negating non-int".into())),
                    UnOp::Not => v
                        .as_bool()
                        .map(|b| Value::Bool(!b))
                        .ok_or_else(|| RuntimeError::Type("not of non-bool".into())),
                }
            }
            ExprKind::Call(name, args) => self.eval_call(name, args, locals, ctx),
        }
    }

    /// A binary operator. Every operator is dispatched exactly once, so
    /// the match is exhaustive.
    fn eval_binary(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        locals: &mut HashMap<String, Value>,
        ctx: &mut Ctx,
    ) -> Result<Value, RuntimeError> {
        const ARITH: &str = "arith operand not int";
        const ORDER: &str = "ordering non-ints";
        let checked = |r: Option<i64>| {
            r.map(Value::Int)
                .ok_or_else(|| RuntimeError::Arith("overflow".into()))
        };
        match op {
            // Short-circuit: a false `a` decides `&&`, a true one `||`.
            BinOp::And | BinOp::Or => {
                const LOGIC: &str = "logical operand not bool";
                let va = self.eval_bool(a, locals, ctx, LOGIC)?;
                if va == (op == BinOp::Or) {
                    return Ok(Value::Bool(va));
                }
                self.eval_bool(b, locals, ctx, LOGIC).map(Value::Bool)
            }
            BinOp::In | BinOp::NotIn => {
                let va = self.eval(a, locals, ctx)?;
                if let ExprKind::Var(name) = &b.kind {
                    // `k in m` borrows the container instead of cloning it.
                    return contains(op, &va, self.lookup(name, locals)?);
                }
                let vb = self.eval(b, locals, ctx)?;
                contains(op, &va, &vb)
            }
            BinOp::Eq | BinOp::Ne => {
                let va = self.eval(a, locals, ctx)?;
                let vb = self.eval(b, locals, ctx)?;
                Ok(Value::Bool((va == vb) == (op == BinOp::Eq)))
            }
            BinOp::Lt => self.int_op(a, b, locals, ctx, ORDER, |x, y| Ok(Value::Bool(x < y))),
            BinOp::Le => self.int_op(a, b, locals, ctx, ORDER, |x, y| Ok(Value::Bool(x <= y))),
            BinOp::Gt => self.int_op(a, b, locals, ctx, ORDER, |x, y| Ok(Value::Bool(x > y))),
            BinOp::Ge => self.int_op(a, b, locals, ctx, ORDER, |x, y| Ok(Value::Bool(x >= y))),
            BinOp::Add => self.int_op(a, b, locals, ctx, ARITH, |x, y| checked(x.checked_add(y))),
            BinOp::Sub => self.int_op(a, b, locals, ctx, ARITH, |x, y| checked(x.checked_sub(y))),
            BinOp::Mul => self.int_op(a, b, locals, ctx, ARITH, |x, y| checked(x.checked_mul(y))),
            BinOp::Div => self.int_op(a, b, locals, ctx, ARITH, |x, y| match y {
                0 => Err(RuntimeError::Arith("division by zero".into())),
                _ => checked(x.checked_div(y)),
            }),
            BinOp::Mod => self.int_op(a, b, locals, ctx, ARITH, |x, y| match y {
                0 => Err(RuntimeError::Arith("mod by zero".into())),
                _ => checked(x.checked_rem_euclid(y)),
            }),
            BinOp::BitAnd => self.int_op(a, b, locals, ctx, ARITH, |x, y| Ok(Value::Int(x & y))),
            BinOp::BitOr => self.int_op(a, b, locals, ctx, ARITH, |x, y| Ok(Value::Int(x | y))),
        }
    }

    /// Evaluate `e` as a condition; `what` names a non-bool result.
    fn eval_bool(
        &mut self,
        e: &Expr,
        locals: &mut HashMap<String, Value>,
        ctx: &mut Ctx,
        what: &str,
    ) -> Result<bool, RuntimeError> {
        self.eval(e, locals, ctx)?
            .as_bool()
            .ok_or_else(|| RuntimeError::Type(what.into()))
    }

    /// Evaluate both operands of an integer operator, `a` then `b`, and
    /// apply `f`; `what` names a non-int operand.
    fn int_op(
        &mut self,
        a: &Expr,
        b: &Expr,
        locals: &mut HashMap<String, Value>,
        ctx: &mut Ctx,
        what: &str,
        f: impl FnOnce(i64, i64) -> Result<Value, RuntimeError>,
    ) -> Result<Value, RuntimeError> {
        let va = self.eval(a, locals, ctx)?;
        let vb = self.eval(b, locals, ctx)?;
        let int = |v: &Value| v.as_int().ok_or_else(|| RuntimeError::Type(what.into()));
        f(int(&va)?, int(&vb)?)
    }

    fn eval_call(
        &mut self,
        name: &str,
        args: &[Expr],
        locals: &mut HashMap<String, Value>,
        ctx: &mut Ctx,
    ) -> Result<Value, RuntimeError> {
        // Mutating builtins need l-value access; handle before generic
        // argument evaluation.
        match name {
            "map_remove" => {
                let ExprKind::Var(base) = &args[0].kind else {
                    return Err(RuntimeError::Type("map_remove needs a variable".into()));
                };
                let k = self.eval(&args[1], locals, ctx)?;
                let key = k
                    .as_key()
                    .ok_or_else(|| RuntimeError::Type("unkeyable".into()))?;
                let (slot, global) = resolve(locals, &mut self.globals, base)?;
                if let Value::Map(m) = slot {
                    if let Some(prev) = m.remove(&key) {
                        self.log(global, base, SlotUndo::Key(key, Some(prev)));
                    }
                    return Ok(Value::Unit);
                }
                return Err(RuntimeError::Type("map_remove on non-map".into()));
            }
            "q_push" => {
                let ExprKind::Var(base) = &args[0].kind else {
                    return Err(RuntimeError::Type("q_push needs a variable".into()));
                };
                let v = self.eval(&args[1], locals, ctx)?;
                let Value::Packet(p) = v else {
                    return Err(RuntimeError::Type("q_push takes a packet".into()));
                };
                let (slot, global) = resolve(locals, &mut self.globals, base)?;
                if let Value::Queue(q) = slot {
                    q.push_back(p);
                    self.log(global, base, SlotUndo::Pushed);
                    return Ok(Value::Unit);
                }
                return Err(RuntimeError::Type("q_push on non-queue".into()));
            }
            "q_pop" => {
                let ExprKind::Var(base) = &args[0].kind else {
                    return Err(RuntimeError::Type("q_pop needs a variable".into()));
                };
                let (slot, global) = resolve(locals, &mut self.globals, base)?;
                if let Value::Queue(q) = slot {
                    let p = q
                        .pop_front()
                        .ok_or_else(|| RuntimeError::Index("pop from empty queue".into()))?;
                    if global {
                        self.log(global, base, SlotUndo::Popped(p.clone()));
                    }
                    return Ok(Value::Packet(p));
                }
                return Err(RuntimeError::Type("q_pop on non-queue".into()));
            }
            "len" => {
                if let [Expr {
                    kind: ExprKind::Var(v),
                    ..
                }] = args
                {
                    // `len(m)` borrows the container instead of cloning it.
                    return len_of(self.lookup(v, locals)?);
                }
            }
            _ => {}
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, locals, ctx)?);
        }
        match name {
            "send" => {
                let p = vals
                    .first()
                    .and_then(|v| v.as_packet())
                    .ok_or_else(|| RuntimeError::Type("send takes a packet".into()))?;
                ctx.outputs.push(p.clone());
                Ok(Value::Unit)
            }
            "drop" => Ok(Value::Unit),
            "log" => {
                let line = vals
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                ctx.logs.push(line);
                Ok(Value::Unit)
            }
            "hash" => Ok(Value::Int(stable_hash(&vals[0]))),
            "len" => len_of(&vals[0]),
            "min" | "max" => {
                let x = vals[0]
                    .as_int()
                    .ok_or_else(|| RuntimeError::Type("min/max of non-int".into()))?;
                let y = vals[1]
                    .as_int()
                    .ok_or_else(|| RuntimeError::Type("min/max of non-int".into()))?;
                Ok(Value::Int(if name == "min" {
                    x.min(y)
                } else {
                    x.max(y)
                }))
            }
            "checksum" => {
                let p = vals[0]
                    .as_packet()
                    .ok_or_else(|| RuntimeError::Type("checksum of non-packet".into()))?;
                Ok(Value::Int(i64::from(nf_packet::wire::internet_checksum(
                    &p.to_wire(),
                ))))
            }
            "fragment" => {
                let p = vals[0]
                    .as_packet()
                    .ok_or_else(|| RuntimeError::Type("fragment of non-packet".into()))?;
                let size = vals[1]
                    .as_int()
                    .ok_or_else(|| RuntimeError::Type("fragment size not int".into()))?;
                let size = usize::try_from(size)
                    .map_err(|_| RuntimeError::Arith("negative fragment size".into()))?;
                Ok(Value::Array(
                    frag::fragment(p, size.max(8))
                        .into_iter()
                        .map(Value::Packet)
                        .collect(),
                ))
            }
            "map" => Ok(Value::Map(BTreeMap::new())),
            "queue" => Ok(Value::Queue(VecDeque::new())),
            "recv" | "sniff" | "spawn" => Err(RuntimeError::Type(format!(
                "`{name}` must not appear in a per-packet function (normalise first)"
            ))),
            "listen" | "accept" | "connect" | "sock_read" | "sock_write" | "sock_close"
            | "fork" | "select2" => Err(RuntimeError::SocketNotUnfolded(name.to_string())),
            _ => {
                // User function (when interpreting non-inlined programs).
                let program = Arc::clone(&self.program);
                let f = program
                    .function(name)
                    .ok_or_else(|| RuntimeError::Unbound(format!("function `{name}`")))?;
                let mut frame: HashMap<String, Value> = HashMap::new();
                for ((pname, _), v) in f.params.iter().zip(vals) {
                    frame.insert(pname.clone(), v);
                }
                self.exec_block(&f.body, &mut frame, ctx)?;
                Ok(frame.remove("__return").unwrap_or(Value::Unit))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::wire::{parse_ipv4, TcpFlags};
    use nfl_analysis::normalize;
    use nfl_lang::parse_and_check;

    fn interp_of(src: &str) -> Interp {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        Interp::new(&pl).unwrap()
    }

    const COUNTER_NF: &str = r#"
        config PORT = 80;
        state hits = 0;
        state misses = 0;
        fn cb(pkt: packet) {
            if pkt.tcp.dport == PORT {
                hits = hits + 1;
                send(pkt);
            } else {
                misses = misses + 1;
            }
        }
        fn main() { sniff(cb); }
    "#;

    fn tcp_to(port: u16) -> Packet {
        Packet::tcp(
            parse_ipv4("10.0.0.1").unwrap(),
            1234,
            parse_ipv4("3.3.3.3").unwrap(),
            port,
            TcpFlags::syn(),
        )
    }

    #[test]
    fn forwards_matching_drops_other() {
        let mut i = interp_of(COUNTER_NF);
        let r = i.process(&tcp_to(80)).unwrap();
        assert_eq!(r.outputs.len(), 1);
        assert!(!r.dropped);
        let r2 = i.process(&tcp_to(81)).unwrap();
        assert!(r2.dropped);
        assert_eq!(i.global("hits"), Some(&Value::Int(1)));
        assert_eq!(i.global("misses"), Some(&Value::Int(1)));
    }

    #[test]
    fn state_persists_across_packets() {
        let mut i = interp_of(COUNTER_NF);
        for _ in 0..5 {
            i.process(&tcp_to(80)).unwrap();
        }
        assert_eq!(i.global("hits"), Some(&Value::Int(5)));
    }

    #[test]
    fn set_config_changes_behaviour() {
        let mut i = interp_of(COUNTER_NF);
        i.set_config("PORT", Value::Int(443)).unwrap();
        assert!(i.process(&tcp_to(80)).unwrap().dropped);
        assert!(!i.process(&tcp_to(443)).unwrap().dropped);
    }

    #[test]
    fn set_config_after_traffic_rejected() {
        let mut i = interp_of(COUNTER_NF);
        i.process(&tcp_to(80)).unwrap();
        assert!(i.set_config("PORT", Value::Int(1)).is_err());
    }

    #[test]
    fn nat_map_behaviour() {
        let src = r#"
            state nat = map();
            state next_port = 10000;
            fn cb(pkt: packet) {
                let key = (pkt.ip.src, pkt.tcp.sport);
                if key not in nat {
                    nat[key] = next_port;
                    next_port = next_port + 1;
                }
                pkt.tcp.sport = nat[key];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let mut i = interp_of(src);
        let r1 = i.process(&tcp_to(80)).unwrap();
        assert_eq!(r1.outputs[0].get(nf_packet::Field::TcpSport).unwrap(), 10000);
        // Same flow, same mapping.
        let r2 = i.process(&tcp_to(80)).unwrap();
        assert_eq!(r2.outputs[0].get(nf_packet::Field::TcpSport).unwrap(), 10000);
        // Different source port → new mapping.
        let mut other = tcp_to(80);
        other.set(nf_packet::Field::TcpSport, 9999).unwrap();
        let r3 = i.process(&other).unwrap();
        assert_eq!(r3.outputs[0].get(nf_packet::Field::TcpSport).unwrap(), 10001);
    }

    #[test]
    fn trace_records_branches_and_emits() {
        let mut i = interp_of(COUNTER_NF);
        let r = i.process(&tcp_to(80)).unwrap();
        let branch_ev = r
            .trace
            .events
            .iter()
            .find(|e| e.branch.is_some())
            .expect("if recorded");
        assert_eq!(branch_ev.branch, Some(true));
        assert_eq!(r.trace.emit_indices().len(), 1);
        // The send event is controlled by the branch.
        let send_idx = r.trace.emit_indices()[0];
        assert!(r.trace.events[send_idx].ctrl.is_some());
    }

    #[test]
    fn division_by_zero_caught() {
        let src = r#"
            fn cb(pkt: packet) {
                let x = 1 / (pkt.ip.ttl - pkt.ip.ttl);
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let mut i = interp_of(src);
        assert!(matches!(
            i.process(&tcp_to(80)),
            Err(RuntimeError::Arith(_))
        ));
    }

    #[test]
    fn unbounded_loop_hits_step_limit() {
        let src = r#"
            state n = 0;
            fn cb(pkt: packet) {
                while true {
                    n = n + 1;
                }
            }
            fn main() { sniff(cb); }
        "#;
        let mut i = interp_of(src);
        assert!(matches!(i.process(&tcp_to(80)), Err(RuntimeError::StepLimit)));
    }

    #[test]
    fn huge_for_range_hits_step_limit_and_reverts() {
        // A trillion iterations: the step limit must stop the loop as it
        // runs. Collecting the range up front would abort the process on
        // the allocation before the limit was ever checked.
        let src = r#"
            state n = 0;
            fn cb(pkt: packet) {
                for i in 0..1000000000000 {
                    n = n + 1;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let mut i = interp_of(src);
        assert!(matches!(
            i.process(&tcp_to(80)),
            Err(RuntimeError::StepLimit)
        ));
        let Some(Value::Int(ran)) = i.global("n") else {
            panic!("n is an int")
        };
        assert!(
            *ran > 0 && (*ran as usize) < STEP_LIMIT,
            "{ran} iterations ran"
        );
        assert_eq!(i.packets_seen(), 1);
        i.revert();
        assert_eq!(i.global("n"), Some(&Value::Int(0)));
        assert_eq!(i.packets_seen(), 0);
    }

    #[test]
    fn fragment_and_forward() {
        let src = r#"
            const MTU = 64;
            fn cb(pkt: packet) {
                for f in fragment(pkt, MTU) {
                    send(f);
                }
            }
            fn main() { sniff(cb); }
        "#;
        let mut i = interp_of(src);
        let mut big = tcp_to(80);
        big.payload = vec![7u8; 300];
        let r = i.process(&big).unwrap();
        assert!(r.outputs.len() > 1, "fragmented into {}", r.outputs.len());
    }

    #[test]
    fn map_remove_builtin() {
        let src = r#"
            state seen = map();
            fn cb(pkt: packet) {
                seen[pkt.ip.src] = 1;
                if pkt.tcp.flags == 17 {
                    map_remove(seen, pkt.ip.src);
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let mut i = interp_of(src);
        i.process(&tcp_to(80)).unwrap();
        let Value::Map(m) = i.global("seen").unwrap() else {
            panic!()
        };
        assert_eq!(m.len(), 1);
        let mut fin = tcp_to(80);
        fin.set(nf_packet::Field::TcpFlags, 17).unwrap();
        i.process(&fin).unwrap();
        let Value::Map(m) = i.global("seen").unwrap() else {
            panic!()
        };
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn missing_map_key_is_error() {
        let src = r#"
            state nat = map();
            fn cb(pkt: packet) {
                let v = nat[(1, 2)];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let mut i = interp_of(src);
        assert!(matches!(
            i.process(&tcp_to(80)),
            Err(RuntimeError::MissingKey(_))
        ));
    }

    #[test]
    fn logs_are_collected() {
        let src = r#"
            fn cb(pkt: packet) {
                log("saw", pkt.tcp.dport);
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let mut i = interp_of(src);
        let r = i.process(&tcp_to(80)).unwrap();
        assert_eq!(r.logs, vec![r#""saw" 80"#.to_string()]);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use nf_packet::wire::{parse_ipv4, TcpFlags};
    use nfl_analysis::normalize;
    use nfl_lang::parse_and_check;

    fn interp_of(src: &str) -> Interp {
        let p = parse_and_check(src).unwrap();
        Interp::new(&normalize::normalize(&p).unwrap()).unwrap()
    }

    fn pkt() -> Packet {
        Packet::tcp(
            parse_ipv4("10.0.0.1").unwrap(),
            1234,
            parse_ipv4("3.3.3.3").unwrap(),
            80,
            TcpFlags::syn(),
        )
    }

    #[test]
    fn for_range_with_break_and_continue() {
        let mut i = interp_of(
            r#"
            state acc = 0;
            fn cb(pkt: packet) {
                for i in 0..100 {
                    if i == 2 { continue; }
                    if i == 5 { break; }
                    acc = acc + i;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        i.process(&pkt()).unwrap();
        // 0 + 1 + 3 + 4 = 8 (2 skipped, stop at 5).
        assert_eq!(i.global("acc"), Some(&Value::Int(8)));
    }

    #[test]
    fn tuple_index_out_of_bounds_is_error() {
        let mut i = interp_of(
            r#"
            state t = (1, 2);
            state idx = 5;
            fn cb(pkt: packet) {
                let x = t[idx];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(matches!(i.process(&pkt()), Err(RuntimeError::Index(_))));
    }

    #[test]
    fn array_element_assignment() {
        let mut i = interp_of(
            r#"
            state arr = [10, 20, 30];
            fn cb(pkt: packet) {
                arr[1] = 99;
                pkt.ip.id = arr[1];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        let out = i.process(&pkt()).unwrap().outputs;
        assert_eq!(out[0].ip_id, 99);
    }

    #[test]
    fn array_store_out_of_bounds_is_error() {
        let mut i = interp_of(
            r#"
            state arr = [1];
            state k = 7;
            fn cb(pkt: packet) {
                arr[k] = 2;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(matches!(i.process(&pkt()), Err(RuntimeError::Index(_))));
    }

    #[test]
    fn min_max_checksum_len_builtins() {
        let mut i = interp_of(
            r#"
            fn cb(pkt: packet) {
                pkt.ip.id = min(7, 3) + max(7, 3);
                let c = checksum(pkt);
                let n = len(pkt);
                if c >= 0 && n > 0 {
                    send(pkt);
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        let out = i.process(&pkt()).unwrap().outputs;
        assert_eq!(out[0].ip_id, 10);
    }

    #[test]
    fn short_circuit_protects_missing_layer() {
        let mut i = interp_of(
            r#"
            fn cb(pkt: packet) {
                if pkt.ip.proto == 6 && pkt.tcp.flags & 2 != 0 {
                    send(pkt);
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        // A UDP packet: flags read must be short-circuited away.
        let udp = Packet::udp(1, 2, 3, 80);
        let r = i.process(&udp).unwrap();
        assert!(r.dropped);
        // TCP SYN passes.
        assert!(!i.process(&pkt()).unwrap().dropped);
    }

    #[test]
    fn overflow_is_caught() {
        let mut i = interp_of(
            r#"
            state big = 9223372036854775807;
            fn cb(pkt: packet) {
                big = big + 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(matches!(i.process(&pkt()), Err(RuntimeError::Arith(_))));
    }

    #[test]
    fn nested_while_loops() {
        let mut i = interp_of(
            r#"
            state total = 0;
            fn cb(pkt: packet) {
                let i = 0;
                while i < 3 {
                    let j = 0;
                    while j < 4 {
                        total = total + 1;
                        j = j + 1;
                    }
                    i = i + 1;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        i.process(&pkt()).unwrap();
        assert_eq!(i.global("total"), Some(&Value::Int(12)));
    }

    fn sorted_globals(i: &Interp) -> BTreeMap<String, Value> {
        i.globals.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    #[test]
    fn mid_eval_division_by_zero_reverts_writes_and_packets_seen() {
        let mut i = interp_of(
            r#"
            state seen = map();
            state count = 0;
            fn cb(pkt: packet) {
                seen[pkt.ip.src] = pkt.tcp.dport;
                count = count + 1;
                let x = 1 / (pkt.ip.ttl - pkt.ip.ttl);
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        let before = sorted_globals(&i);
        assert!(matches!(i.process(&pkt()), Err(RuntimeError::Arith(_))));
        // The failed packet got as far as both writes.
        assert_eq!(i.global("count"), Some(&Value::Int(1)));
        assert_eq!(i.packets_seen(), 1);
        i.revert();
        assert_eq!(sorted_globals(&i), before);
        assert_eq!(i.packets_seen(), 0);
        // The log drains as it replays: a second revert is a no-op.
        i.revert();
        assert_eq!(i.packets_seen(), 0);
    }

    #[test]
    fn revert_undoes_every_kind_of_global_write() {
        let mut i = interp_of(
            r#"
            state m = map();
            state arr = [1, 2, 3];
            state q = queue();
            state n = 0;
            fn cb(pkt: packet) {
                let arr2 = [0];
                arr2[0] = 5;
                m[1] = 10;
                m[2] = 20;
                if n > 0 {
                    map_remove(m, 1);
                    m[2] = 21;
                    arr[1] = 99;
                    q_push(q, pkt);
                    let old = q_pop(q);
                }
                q_push(q, pkt);
                n = n + 1;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        i.process(&pkt()).unwrap();
        let before = sorted_globals(&i);
        i.process(&pkt()).unwrap();
        assert_ne!(sorted_globals(&i), before);
        i.revert();
        assert_eq!(sorted_globals(&i), before);
        assert_eq!(i.packets_seen(), 1);
    }

    #[test]
    fn trace_ctrl_nesting_is_dynamic() {
        let mut i = interp_of(
            r#"
            fn cb(pkt: packet) {
                if pkt.ip.ttl > 0 {
                    if pkt.tcp.dport == 80 {
                        send(pkt);
                    }
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        let r = i.process(&pkt()).unwrap();
        let send_idx = r.trace.emit_indices()[0];
        let inner_ctrl = r.trace.events[send_idx].ctrl.unwrap();
        let outer_ctrl = r.trace.events[inner_ctrl].ctrl.unwrap();
        assert!(r.trace.events[outer_ctrl].ctrl.is_none(), "two levels deep");
    }
}
