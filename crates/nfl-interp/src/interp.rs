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
//! [`Interp::new`] resolves every name once, lowering the program into
//! a tree whose variables are slots: the globals live in a vector
//! indexed by slot ([`Interp::globals`]), each call runs in a frame of
//! slots, and a packet looks up no name. Ints and bools evaluate
//! unboxed: operators, conditions and integer operands compute on
//! `i64` and `bool`, and only a value that is stored or passed on
//! becomes a [`Value`].
//!
//! Every write to a global banks the value it replaces, under the
//! global's slot, in an undo log, so [`Interp::revert`] can undo a
//! failed packet in O(writes it made) rather than the caller copying all
//! state before every packet.

use crate::lower::{self, Builtin, Callee, Code, Ex, Func, Iter, Place, St, StKind, Var};
use crate::trace::{Trace, TraceEvent};
use crate::value::{stable_hash, Value, ValueKey};
use nf_packet::{frag, Field, Packet};
use nfl_analysis::normalize::PacketLoop;
use nfl_lang::{BinOp, StmtId, UnOp};
use std::collections::BTreeMap;
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

/// The interpreter: the lowered program and its persistent globals.
#[derive(Debug, Clone)]
pub struct Interp {
    /// Shared, immutable: a clone of the interpreter copies a pointer,
    /// not the tree.
    code: Arc<Code>,
    /// Globals — consts, configs and states — by slot, in declaration
    /// order, named by [`global_names`](Self::global_names);
    /// [`global`](Self::global) reads one by name.
    pub globals: Vec<Value>,
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
    /// A write to the global in this slot.
    Global(usize, SlotUndo),
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

/// `a in b` over a map or array.
fn contains(a: &Value, b: &Value) -> Result<bool, RuntimeError> {
    match b {
        Value::Map(m) => {
            let k = a
                .as_key()
                .ok_or_else(|| RuntimeError::Type(format!("{} not keyable", a.type_name())))?;
            Ok(m.contains_key(&k))
        }
        Value::Array(items) => Ok(items.contains(a)),
        other => Err(RuntimeError::Type(format!(
            "`in` over {}",
            other.type_name()
        ))),
    }
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

/// A value as an operator sees it: an int or a bool unboxed, anything
/// else as a [`Value`]. Two operands are equal exactly when their
/// values are. Only equality and type errors see a boxed operand, so
/// it lives on the heap: every evaluation step returns an operand, and
/// a small one is much cheaper to pass back.
#[derive(PartialEq)]
enum Operand {
    Int(i64),
    Bool(bool),
    /// Never a `Value::Int` or `Value::Bool`.
    Boxed(Box<Value>),
}

impl Operand {
    fn of(v: Value) -> Operand {
        match v {
            Value::Int(i) => Operand::Int(i),
            Value::Bool(b) => Operand::Bool(b),
            other => Operand::Boxed(Box::new(other)),
        }
    }

    fn int(self) -> Option<i64> {
        match self {
            Operand::Int(i) => Some(i),
            _ => None,
        }
    }

    fn bool(self) -> Option<bool> {
        match self {
            Operand::Bool(b) => Some(b),
            _ => None,
        }
    }

    fn value(self) -> Value {
        match self {
            Operand::Int(i) => Value::Int(i),
            Operand::Bool(b) => Value::Bool(b),
            Operand::Boxed(v) => *v,
        }
    }
}

/// One call's locals, by slot; `None` until a binding has run.
struct Frame<'c> {
    slots: Vec<Option<Value>>,
    /// The slots' names, for errors.
    names: &'c [String],
}

impl<'c> Frame<'c> {
    fn of(func: &'c Func) -> Frame<'c> {
        Frame {
            slots: vec![None; func.locals.len()],
            names: &func.locals,
        }
    }
}

/// The storage `v` names — a set local first — and the global slot a
/// write to it must bank, if it is a global.
fn place<'v>(
    code: &Code,
    globals: &'v mut [Value],
    fr: &'v mut Frame,
    v: Var,
) -> Result<(&'v mut Value, Option<usize>), RuntimeError> {
    let names = fr.names;
    let found = match v {
        Var::Local(l) => fr.slots[l].as_mut().map(|x| (x, None)),
        Var::Global(g) => globals.get_mut(g).map(|x| (x, Some(g))),
        Var::Shadowed(l, g) => match fr.slots[l].as_mut() {
            Some(x) => Some((x, None)),
            None => globals.get_mut(g).map(|x| (x, Some(g))),
        },
    };
    found.ok_or_else(|| RuntimeError::Unbound(v.name(&code.globals, names).to_string()))
}

/// One run of the lowered code over the globals: a packet, or the
/// global initialisers.
struct Machine<'a> {
    code: &'a Code,
    globals: &'a mut Vec<Value>,
    undo: &'a mut Vec<Undo>,
    outputs: Vec<Packet>,
    logs: Vec<String>,
    trace: Trace,
    steps: usize,
    ctrl: Vec<usize>,
}

impl Interp {
    /// Build an interpreter from a normalised packet loop: lower it, and
    /// evaluate all global initialisers in declaration order. An
    /// initialiser sees only the globals declared before it.
    pub fn new(pl: &PacketLoop) -> Result<Interp, RuntimeError> {
        let (code, inits) = lower::lower(pl);
        let mut interp = Interp {
            globals: Vec::with_capacity(code.globals.len()),
            code: Arc::new(code),
            packets_seen: 0,
            undo: Vec::new(),
        };
        let Interp {
            code,
            globals,
            undo,
            ..
        } = &mut interp;
        let mut m = Machine::new(code, globals, undo);
        let mut frame = Frame {
            slots: vec![None; inits.locals.len()],
            names: &inits.locals,
        };
        for (slot, init) in &inits.items {
            let v = m.eval(init, &mut frame)?;
            // A global's slot is pushed when its first declaration is
            // evaluated, so a later global's is not there yet.
            match m.globals.get_mut(*slot) {
                Some(redeclared) => *redeclared = v,
                None => m.globals.push(v),
            }
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
        let slot = self
            .code
            .index
            .get(name)
            .filter(|s| self.code.configs.contains(s))
            .ok_or_else(|| RuntimeError::Unbound(format!("config `{name}`")))?;
        self.globals[*slot] = v;
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
            let (slot, u) = match u {
                Undo::Counter(n) => {
                    self.packets_seen = n;
                    continue;
                }
                Undo::Global(slot, u) => (slot, u),
            };
            let Some(slot) = self.globals.get_mut(slot) else {
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

    /// The globals' names by slot: `global_names()[g]` names
    /// `globals[g]`. Clones share them, so a slot names the same global
    /// in every clone.
    pub fn global_names(&self) -> &[String] {
        &self.code.globals
    }

    /// Read a global by name (state inspection for tests and the
    /// verifier).
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(*self.code.index.get(name)?)
    }

    /// Process one packet through the per-packet function.
    pub fn process(&mut self, pkt: &Packet) -> Result<StepResult, RuntimeError> {
        self.undo.clear();
        self.undo.push(Undo::Counter(self.packets_seen));
        self.packets_seen += 1;
        let Interp {
            code,
            globals,
            undo,
            ..
        } = self;
        let func = &code.funcs[*code.entry.as_ref().map_err(Clone::clone)?];
        let mut frame = Frame::of(func);
        frame.slots[0] = Some(Value::Packet(Box::new(pkt.clone())));
        let mut m = Machine::new(code, globals, undo);
        m.block(&func.body, &mut frame)?;
        Ok(StepResult {
            dropped: m.outputs.is_empty(),
            outputs: m.outputs,
            logs: m.logs,
            trace: m.trace,
        })
    }
}

impl<'a> Machine<'a> {
    fn new(code: &'a Code, globals: &'a mut Vec<Value>, undo: &'a mut Vec<Undo>) -> Machine<'a> {
        Machine {
            code,
            globals,
            undo,
            outputs: Vec::new(),
            logs: Vec::new(),
            trace: Trace::default(),
            steps: 0,
            ctrl: Vec::new(),
        }
    }

    /// Bank a write's pre-image when it hit a global.
    fn bank(&mut self, global: Option<usize>, u: SlotUndo) {
        if let Some(g) = global {
            self.undo.push(Undo::Global(g, u));
        }
    }

    /// Count one step against the per-packet limit.
    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        if self.steps > STEP_LIMIT {
            return Err(RuntimeError::StepLimit);
        }
        Ok(())
    }

    fn block(&mut self, stmts: &[St], fr: &mut Frame) -> Result<Flow, RuntimeError> {
        for s in stmts {
            match self.stmt(s, fr)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Trace one executed instance of statement `id`, under the
    /// innermost branch instance still open.
    fn record(&mut self, id: StmtId, branch: Option<bool>, emitted: bool) -> usize {
        let ctrl = self.ctrl.last().copied();
        self.trace.push(TraceEvent {
            stmt: id,
            branch,
            ctrl,
            emitted,
        })
    }

    fn stmt(&mut self, s: &St, fr: &mut Frame) -> Result<Flow, RuntimeError> {
        self.tick()?;
        match &s.kind {
            StKind::Let(slot, value) => {
                let emitted_before = self.outputs.len();
                let v = self.eval(value, fr)?;
                fr.slots[*slot] = Some(v);
                self.record(s.id, None, self.outputs.len() > emitted_before);
                Ok(Flow::Normal)
            }
            StKind::Assign(target, value) => {
                let emitted_before = self.outputs.len();
                let v = self.eval(value, fr)?;
                self.assign(target, v, fr)?;
                self.record(s.id, None, self.outputs.len() > emitted_before);
                Ok(Flow::Normal)
            }
            StKind::If(cond, then_branch, else_branch) => {
                let c = self.cond(cond, fr, "if condition not bool")?;
                let ev = self.record(s.id, Some(c), false);
                self.ctrl.push(ev);
                let r = self.block(if c { then_branch } else { else_branch }, fr);
                self.ctrl.pop();
                r
            }
            StKind::While(cond, body) => {
                loop {
                    self.tick()?;
                    let c = self.cond(cond, fr, "while condition not bool")?;
                    let ev = self.record(s.id, Some(c), false);
                    if !c {
                        break;
                    }
                    self.ctrl.push(ev);
                    let flow = self.block(body, fr)?;
                    self.ctrl.pop();
                    match flow {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Continue | Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StKind::For(slot, iter, body) => {
                // A range is iterated lazily, never collected: its bound
                // may come from the packet, and the step limit below must
                // stop a huge one before it costs memory.
                let (range, array) = match iter {
                    Iter::Range(lo, hi) => {
                        const BOUND: &str = "range bound not int";
                        let lo = self.int(lo, fr, BOUND)?;
                        let hi = self.int(hi, fr, BOUND)?;
                        (lo..hi, Vec::new())
                    }
                    Iter::Array(a) => match self.eval(a, fr)? {
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
                    self.tick()?;
                    let ev = self.record(s.id, Some(true), false);
                    fr.slots[*slot] = Some(item);
                    self.ctrl.push(ev);
                    let flow = self.block(body, fr)?;
                    self.ctrl.pop();
                    match flow {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Continue | Flow::Normal => {}
                    }
                }
                self.record(s.id, Some(false), false);
                Ok(Flow::Normal)
            }
            StKind::Return(v) => {
                if let Some((slot, e)) = v {
                    let val = self.eval(e, fr)?;
                    fr.slots[*slot] = Some(val);
                }
                self.record(s.id, None, false);
                Ok(Flow::Return)
            }
            StKind::Break => {
                self.record(s.id, None, false);
                Ok(Flow::Break)
            }
            StKind::Continue => {
                self.record(s.id, None, false);
                Ok(Flow::Continue)
            }
            StKind::Expr(e) => {
                let emitted_before = self.outputs.len();
                self.eval(e, fr)?;
                self.record(s.id, None, self.outputs.len() > emitted_before);
                Ok(Flow::Normal)
            }
        }
    }

    fn assign(&mut self, target: &Place, v: Value, fr: &mut Frame) -> Result<(), RuntimeError> {
        match target {
            Place::Var(var) => {
                let (slot, global) = place(self.code, self.globals, fr, *var)?;
                let prev = std::mem::replace(slot, v);
                self.bank(global, SlotUndo::Whole(prev));
                Ok(())
            }
            Place::Index(base, key) => {
                let k = self.eval(key, fr)?;
                let (slot, global) = place(self.code, self.globals, fr, *base)?;
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
                self.bank(global, undo);
                Ok(())
            }
            Place::Field(base, field) => {
                let iv = v
                    .as_int()
                    .ok_or_else(|| RuntimeError::Type("packet fields take ints".into()))?;
                let (slot, global) = place(self.code, self.globals, fr, *base)?;
                let Value::Packet(p) = slot else {
                    return Err(RuntimeError::Type(format!(
                        "field store on {}",
                        slot.type_name()
                    )));
                };
                let uv = u64::try_from(iv)
                    .map_err(|_| RuntimeError::Packet(format!("negative field value {iv}")))?;
                let prev = global.map(|_| p.clone());
                p.set(*field, uv)
                    .map_err(|e| RuntimeError::Packet(e.to_string()))?;
                if let Some(prev) = prev {
                    self.bank(global, SlotUndo::Whole(Value::Packet(prev)));
                }
                Ok(())
            }
        }
    }

    /// Borrow a variable — a set local first. Reads borrow; only a value
    /// that escapes into a new binding is cloned.
    fn read<'v>(&'v self, fr: &'v Frame, v: Var) -> Result<&'v Value, RuntimeError> {
        match v {
            Var::Local(l) => fr.slots[l].as_ref(),
            Var::Global(g) => self.globals.get(g),
            Var::Shadowed(l, g) => fr.slots[l].as_ref().or_else(|| self.globals.get(g)),
        }
        .ok_or_else(|| RuntimeError::Unbound(v.name(&self.code.globals, fr.names).to_string()))
    }

    /// The packet field `v.field`.
    fn field(&self, fr: &Frame, v: Var, field: Field) -> Result<i64, RuntimeError> {
        let p = self.read(fr, v)?.as_packet().ok_or_else(|| {
            RuntimeError::Type(format!(
                "{} is not a packet",
                v.name(&self.code.globals, fr.names)
            ))
        })?;
        let raw = p
            .get(field)
            .map_err(|e| RuntimeError::Packet(e.to_string()))?;
        Ok(raw as i64)
    }

    fn eval(&mut self, e: &Ex, fr: &mut Frame) -> Result<Value, RuntimeError> {
        match e {
            Ex::Str(s) => Ok(Value::Str(s.clone())),
            Ex::Var(v) => self.read(fr, *v).cloned(),
            Ex::Tuple(es) => {
                let mut items = Vec::with_capacity(es.len());
                for x in es {
                    items.push(self.int(x, fr, "tuple element not int")?);
                }
                Ok(Value::Tuple(items))
            }
            Ex::Array(es) => {
                let mut items = Vec::with_capacity(es.len());
                for x in es {
                    items.push(self.eval(x, fr)?);
                }
                Ok(Value::Array(items))
            }
            Ex::IndexVar(base, idx) => {
                self.read(fr, *base)?;
                let i = self.eval(idx, fr)?;
                index_value(self.read(fr, *base)?, &i)
            }
            Ex::Index(base, idx) => {
                let b = self.eval(base, fr)?;
                let i = self.eval(idx, fr)?;
                index_value(&b, &i)
            }
            Ex::Call(callee, args) => self.call(callee, args, fr),
            Ex::MapRemove(base, key) => {
                let k = self.eval(key, fr)?;
                let key = k
                    .as_key()
                    .ok_or_else(|| RuntimeError::Type("unkeyable".into()))?;
                let (slot, global) = place(self.code, self.globals, fr, *base)?;
                let Value::Map(m) = slot else {
                    return Err(RuntimeError::Type("map_remove on non-map".into()));
                };
                if let Some(prev) = m.remove(&key) {
                    self.bank(global, SlotUndo::Key(key, Some(prev)));
                }
                Ok(Value::Unit)
            }
            Ex::QPush(base, pkt) => {
                let Value::Packet(p) = self.eval(pkt, fr)? else {
                    return Err(RuntimeError::Type("q_push takes a packet".into()));
                };
                let (slot, global) = place(self.code, self.globals, fr, *base)?;
                let Value::Queue(q) = slot else {
                    return Err(RuntimeError::Type("q_push on non-queue".into()));
                };
                q.push_back(*p);
                self.bank(global, SlotUndo::Pushed);
                Ok(Value::Unit)
            }
            Ex::QPop(base) => {
                let (slot, global) = place(self.code, self.globals, fr, *base)?;
                let Value::Queue(q) = slot else {
                    return Err(RuntimeError::Type("q_pop on non-queue".into()));
                };
                let p = q
                    .pop_front()
                    .ok_or_else(|| RuntimeError::Index("pop from empty queue".into()))?;
                if global.is_some() {
                    self.bank(global, SlotUndo::Popped(p.clone()));
                }
                Ok(Value::Packet(Box::new(p)))
            }
            Ex::Int(_) | Ex::Bool(_) | Ex::Field(..) | Ex::Binary(..) | Ex::Unary(..) => {
                self.operand(e, fr).map(Operand::value)
            }
        }
    }

    /// Evaluate `e` with an int or bool result left unboxed.
    fn operand(&mut self, e: &Ex, fr: &mut Frame) -> Result<Operand, RuntimeError> {
        match e {
            Ex::Int(v) => Ok(Operand::Int(*v)),
            Ex::Bool(b) => Ok(Operand::Bool(*b)),
            Ex::Var(v) => Ok(match self.read(fr, *v)? {
                Value::Int(i) => Operand::Int(*i),
                Value::Bool(b) => Operand::Bool(*b),
                other => Operand::Boxed(Box::new(other.clone())),
            }),
            Ex::Field(v, field) => self.field(fr, *v, *field).map(Operand::Int),
            Ex::Binary(op, a, b) => self.binary(*op, a, b, fr),
            Ex::Unary(op, a) => {
                let v = self.operand(a, fr)?;
                match op {
                    UnOp::Neg => v
                        .int()
                        .map(|i| Operand::Int(-i))
                        .ok_or_else(|| RuntimeError::Type("negating non-int".into())),
                    UnOp::Not => v
                        .bool()
                        .map(|b| Operand::Bool(!b))
                        .ok_or_else(|| RuntimeError::Type("not of non-bool".into())),
                }
            }
            _ => self.eval(e, fr).map(Operand::of),
        }
    }

    /// Evaluate `e` as a condition; `what` names a non-bool result.
    fn cond(&mut self, e: &Ex, fr: &mut Frame, what: &str) -> Result<bool, RuntimeError> {
        self.operand(e, fr)?
            .bool()
            .ok_or_else(|| RuntimeError::Type(what.into()))
    }

    /// Evaluate `e` as an int; `what` names a non-int result.
    fn int(&mut self, e: &Ex, fr: &mut Frame, what: &str) -> Result<i64, RuntimeError> {
        self.operand(e, fr)?
            .int()
            .ok_or_else(|| RuntimeError::Type(what.into()))
    }

    /// A binary operator. Every operator is dispatched exactly once, so
    /// the match is exhaustive.
    fn binary(
        &mut self,
        op: BinOp,
        a: &Ex,
        b: &Ex,
        fr: &mut Frame,
    ) -> Result<Operand, RuntimeError> {
        const ARITH: &str = "arith operand not int";
        const ORDER: &str = "ordering non-ints";
        let checked = |r: Option<i64>| {
            r.map(Operand::Int)
                .ok_or_else(|| RuntimeError::Arith("overflow".into()))
        };
        match op {
            // Short-circuit: a false `a` decides `&&`, a true one `||`.
            BinOp::And | BinOp::Or => {
                const LOGIC: &str = "logical operand not bool";
                let va = self.cond(a, fr, LOGIC)?;
                if va == (op == BinOp::Or) {
                    return Ok(Operand::Bool(va));
                }
                self.cond(b, fr, LOGIC).map(Operand::Bool)
            }
            BinOp::In | BinOp::NotIn => {
                let va = self.eval(a, fr)?;
                let contained = match b {
                    // `k in m` borrows the container instead of cloning it.
                    Ex::Var(v) => contains(&va, self.read(fr, *v)?)?,
                    _ => {
                        let vb = self.eval(b, fr)?;
                        contains(&va, &vb)?
                    }
                };
                Ok(Operand::Bool(contained == (op == BinOp::In)))
            }
            BinOp::Eq | BinOp::Ne => {
                let va = self.operand(a, fr)?;
                let vb = self.operand(b, fr)?;
                Ok(Operand::Bool((va == vb) == (op == BinOp::Eq)))
            }
            BinOp::Lt => self.int_op(a, b, fr, ORDER, |x, y| Ok(Operand::Bool(x < y))),
            BinOp::Le => self.int_op(a, b, fr, ORDER, |x, y| Ok(Operand::Bool(x <= y))),
            BinOp::Gt => self.int_op(a, b, fr, ORDER, |x, y| Ok(Operand::Bool(x > y))),
            BinOp::Ge => self.int_op(a, b, fr, ORDER, |x, y| Ok(Operand::Bool(x >= y))),
            BinOp::Add => self.int_op(a, b, fr, ARITH, |x, y| checked(x.checked_add(y))),
            BinOp::Sub => self.int_op(a, b, fr, ARITH, |x, y| checked(x.checked_sub(y))),
            BinOp::Mul => self.int_op(a, b, fr, ARITH, |x, y| checked(x.checked_mul(y))),
            BinOp::Div => self.int_op(a, b, fr, ARITH, |x, y| match y {
                0 => Err(RuntimeError::Arith("division by zero".into())),
                _ => checked(x.checked_div(y)),
            }),
            BinOp::Mod => self.int_op(a, b, fr, ARITH, |x, y| match y {
                0 => Err(RuntimeError::Arith("mod by zero".into())),
                _ => checked(x.checked_rem_euclid(y)),
            }),
            BinOp::BitAnd => self.int_op(a, b, fr, ARITH, |x, y| Ok(Operand::Int(x & y))),
            BinOp::BitOr => self.int_op(a, b, fr, ARITH, |x, y| Ok(Operand::Int(x | y))),
        }
    }

    /// Evaluate both operands of an integer operator, `a` then `b`, and
    /// only then check that both are ints and apply `f`; `what` names a
    /// non-int operand.
    fn int_op(
        &mut self,
        a: &Ex,
        b: &Ex,
        fr: &mut Frame,
        what: &str,
        f: impl FnOnce(i64, i64) -> Result<Operand, RuntimeError>,
    ) -> Result<Operand, RuntimeError> {
        let va = self.operand(a, fr)?.int();
        let vb = self.operand(b, fr)?.int();
        match (va, vb) {
            (Some(x), Some(y)) => f(x, y),
            _ => Err(RuntimeError::Type(what.into())),
        }
    }

    fn call(
        &mut self,
        callee: &Callee,
        args: &[Ex],
        fr: &mut Frame,
    ) -> Result<Value, RuntimeError> {
        if let (Callee::Builtin(Builtin::Len), [Ex::Var(v)]) = (callee, args) {
            // `len(m)` borrows the container instead of cloning it.
            return len_of(self.read(fr, *v)?);
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, fr)?);
        }
        match callee {
            Callee::Builtin(b) => self.builtin(*b, vals),
            Callee::Func(f) => self.invoke(*f, vals),
            Callee::Fail(e) => Err(e.clone()),
        }
    }

    /// Run user function `f` (a program that was not inlined) in a frame
    /// of its own; its value is what its `return` left in `__return`.
    fn invoke(&mut self, f: usize, vals: Vec<Value>) -> Result<Value, RuntimeError> {
        let code = self.code;
        let func = &code.funcs[f];
        let mut frame = Frame::of(func);
        for (&slot, v) in func.params.iter().zip(vals) {
            frame.slots[slot] = Some(v);
        }
        self.block(&func.body, &mut frame)?;
        Ok(func
            .ret
            .and_then(|r| frame.slots[r].take())
            .unwrap_or(Value::Unit))
    }

    /// A builtin over its evaluated arguments (as many as its arity, at
    /// least; lowering saw to that).
    fn builtin(&mut self, b: Builtin, vals: Vec<Value>) -> Result<Value, RuntimeError> {
        match b {
            Builtin::Send => {
                let Some(Value::Packet(p)) = vals.into_iter().next() else {
                    return Err(RuntimeError::Type("send takes a packet".into()));
                };
                self.outputs.push(*p);
                Ok(Value::Unit)
            }
            Builtin::Drop => Ok(Value::Unit),
            Builtin::Log => {
                let line = vals
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                self.logs.push(line);
                Ok(Value::Unit)
            }
            Builtin::Hash => Ok(Value::Int(stable_hash(&vals[0]))),
            Builtin::Len => len_of(&vals[0]),
            Builtin::Min | Builtin::Max => {
                let int = |v: &Value| {
                    v.as_int()
                        .ok_or_else(|| RuntimeError::Type("min/max of non-int".into()))
                };
                let (x, y) = (int(&vals[0])?, int(&vals[1])?);
                Ok(Value::Int(if matches!(b, Builtin::Min) {
                    x.min(y)
                } else {
                    x.max(y)
                }))
            }
            Builtin::Checksum => {
                let p = vals[0]
                    .as_packet()
                    .ok_or_else(|| RuntimeError::Type("checksum of non-packet".into()))?;
                Ok(Value::Int(i64::from(nf_packet::wire::internet_checksum(
                    &p.to_wire(),
                ))))
            }
            Builtin::Fragment => {
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
                        .map(|p| Value::Packet(Box::new(p)))
                        .collect(),
                ))
            }
            Builtin::Map => Ok(Value::Map(BTreeMap::new())),
            Builtin::Queue => Ok(Value::Queue(Box::default())),
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
        assert_eq!(
            r1.outputs[0].get(nf_packet::Field::TcpSport).unwrap(),
            10000
        );
        // Same flow, same mapping.
        let r2 = i.process(&tcp_to(80)).unwrap();
        assert_eq!(
            r2.outputs[0].get(nf_packet::Field::TcpSport).unwrap(),
            10000
        );
        // Different source port → new mapping.
        let mut other = tcp_to(80);
        other.set(nf_packet::Field::TcpSport, 9999).unwrap();
        let r3 = i.process(&other).unwrap();
        assert_eq!(
            r3.outputs[0].get(nf_packet::Field::TcpSport).unwrap(),
            10001
        );
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
        assert!(matches!(
            i.process(&tcp_to(80)),
            Err(RuntimeError::StepLimit)
        ));
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
        i.global_names()
            .iter()
            .cloned()
            .zip(i.globals.iter().cloned())
            .collect()
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
            config FROM = 1;
            state m = map();
            state arr = [1, 2, 3];
            state q = queue();
            state n = 0;
            fn cb(pkt: packet) {
                let arr2 = [0];
                arr2[0] = 5;
                m[1] = 10;
                m[2] = 20;
                if n >= FROM {
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
        // Configs are set, and globals read, by name.
        assert_eq!(
            i.set_config("n", Value::Int(0)),
            Err(RuntimeError::Unbound("config `n`".into()))
        );
        assert_eq!(i.global("nope"), None);
        i.set_config("FROM", Value::Int(2)).unwrap();
        assert_eq!(i.global("FROM"), Some(&Value::Int(2)));
        i.process(&pkt()).unwrap();
        i.process(&pkt()).unwrap();
        assert!(i.set_config("FROM", Value::Int(1)).is_err());
        assert_eq!(
            i.global("arr"),
            Some(&Value::Array(
                vec![1, 2, 3].into_iter().map(Value::Int).collect()
            ))
        );
        let before = sorted_globals(&i);
        i.process(&pkt()).unwrap();
        assert_ne!(sorted_globals(&i), before);
        assert_eq!(i.global("n"), Some(&Value::Int(3)));
        i.revert();
        assert_eq!(sorted_globals(&i), before);
        assert_eq!(i.global("n"), Some(&Value::Int(2)));
        assert_eq!(i.global("FROM"), Some(&Value::Int(2)));
        assert_eq!(i.packets_seen(), 2);
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
