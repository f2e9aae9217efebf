//! Names resolved once: the normalised program lowered into the tree
//! that [`Interp`](crate::Interp) runs.
//!
//! NFL's scope is flat per function, as the checker's is: a `let`, a
//! `for` variable, a parameter or a `return e` (which binds `__return`)
//! binds its name for the rest of the call, whichever block it sits
//! in. Until such a binding has run on the current path, the name means
//! the global of that name, if there is one. Lowering gives each global
//! a slot in declaration order and each name a function binds or reads
//! a slot in that function's frame, and turns every variable into a
//! [`Var`]:
//! - [`Var::Global`]: a global the function never binds;
//! - [`Var::Local`]: a name that is not a global, which raises
//!   `Unbound` when read before any binding of it has run;
//! - [`Var::Shadowed`]: a global the function also binds, which reads
//!   the local once that is set.
//!
//! Each call becomes a [`Builtin`], a function index, or the error it
//! raises once its arguments have run.

use crate::interp::RuntimeError;
use nf_packet::Field;
use nfl_analysis::normalize::PacketLoop;
use nfl_lang::{BinOp, Expr, ExprKind, ForIter, Function, LValue, Stmt, StmtId, StmtKind, UnOp};
use std::collections::HashMap;

/// The local a `return e` leaves its value in.
const RETURN: &str = "__return";

/// A variable, resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Var {
    /// A frame slot.
    Local(usize),
    /// A global slot.
    Global(usize),
    /// A global the function also binds: the frame slot once it is set,
    /// the global until then.
    Shadowed(usize, usize),
}

impl Var {
    /// The variable's source name, for errors.
    pub(crate) fn name<'n>(self, globals: &'n [String], locals: &'n [String]) -> &'n str {
        match self {
            Var::Local(l) | Var::Shadowed(l, _) => &locals[l],
            Var::Global(g) => &globals[g],
        }
    }
}

/// A builtin the interpreter runs; the mutators are [`Ex`] nodes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Builtin {
    Send,
    Drop,
    Log,
    Hash,
    Len,
    Min,
    Max,
    Checksum,
    Fragment,
    Map,
    Queue,
}

impl Builtin {
    fn of(name: &str) -> Option<Builtin> {
        Some(match name {
            "send" => Builtin::Send,
            "drop" => Builtin::Drop,
            "log" => Builtin::Log,
            "hash" => Builtin::Hash,
            "len" => Builtin::Len,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "checksum" => Builtin::Checksum,
            "fragment" => Builtin::Fragment,
            "map" => Builtin::Map,
            "queue" => Builtin::Queue,
            _ => return None,
        })
    }

    /// How many leading arguments the builtin reads.
    fn arity(self) -> usize {
        match self {
            Builtin::Send | Builtin::Drop | Builtin::Log | Builtin::Map | Builtin::Queue => 0,
            Builtin::Hash | Builtin::Len | Builtin::Checksum => 1,
            Builtin::Min | Builtin::Max | Builtin::Fragment => 2,
        }
    }
}

/// What a call runs once its arguments are evaluated.
#[derive(Debug, Clone)]
pub(crate) enum Callee {
    Builtin(Builtin),
    /// A user function, by index.
    Func(usize),
    /// A call the interpreter cannot run: an unknown function, a loop or
    /// socket builtin, a builtin short of arguments.
    Fail(RuntimeError),
}

/// A lowered expression.
#[derive(Debug, Clone)]
pub(crate) enum Ex {
    Int(i64),
    Bool(bool),
    Str(String),
    Var(Var),
    /// `v.field` on a packet variable.
    Field(Var, Field),
    Tuple(Vec<Ex>),
    Array(Vec<Ex>),
    /// `v[i]` on a variable whose index cannot write it: the container
    /// is borrowed, not copied.
    IndexVar(Var, Box<Ex>),
    /// `b[i]` on any other base.
    Index(Box<Ex>, Box<Ex>),
    Binary(BinOp, Box<Ex>, Box<Ex>),
    Unary(UnOp, Box<Ex>),
    Call(Callee, Vec<Ex>),
    /// `map_remove(m, k)`.
    MapRemove(Var, Box<Ex>),
    /// `q_push(q, p)`.
    QPush(Var, Box<Ex>),
    /// `q_pop(q)`.
    QPop(Var),
}

/// An assignment target.
#[derive(Debug, Clone)]
pub(crate) enum Place {
    Var(Var),
    Index(Var, Ex),
    Field(Var, Field),
}

/// A `for` loop's iteration space.
#[derive(Debug, Clone)]
pub(crate) enum Iter {
    Range(Ex, Ex),
    Array(Ex),
}

/// A lowered statement; `id` is the source statement's, for the trace.
#[derive(Debug, Clone)]
pub(crate) struct St {
    pub id: StmtId,
    pub kind: StKind,
}

/// Statement kinds; a `usize` binder is the frame slot it sets.
#[derive(Debug, Clone)]
pub(crate) enum StKind {
    Let(usize, Ex),
    Assign(Place, Ex),
    If(Ex, Vec<St>, Vec<St>),
    While(Ex, Vec<St>),
    For(usize, Iter, Vec<St>),
    /// `return e` sets the frame's `__return` slot.
    Return(Option<(usize, Ex)>),
    Break,
    Continue,
    Expr(Ex),
}

/// A lowered function.
#[derive(Debug, Clone)]
pub(crate) struct Func {
    /// Local names by frame slot: every name the function binds, and
    /// every name it reads that is not a global.
    pub locals: Vec<String>,
    /// Each parameter's slot, in order.
    pub params: Vec<usize>,
    /// The `__return` slot, if the function binds it.
    pub ret: Option<usize>,
    pub body: Vec<St>,
}

/// The lowered program: everything a packet needs, with no names left
/// to look up.
#[derive(Debug)]
pub(crate) struct Code {
    pub funcs: Vec<Func>,
    /// The per-packet function, whose frame slot 0 holds the packet, or
    /// the error each packet raises when the function does not exist.
    pub entry: Result<usize, RuntimeError>,
    /// Global names by slot, in declaration order (a name declared
    /// twice keeps its first slot).
    pub globals: Vec<String>,
    /// Global slots by name.
    pub index: HashMap<String, usize>,
    /// The `config` globals' slots.
    pub configs: Vec<usize>,
}

/// The global initialisers, in declaration order, evaluated once.
pub(crate) struct Inits {
    /// The slot each initialiser sets, and its expression.
    pub items: Vec<(usize, Ex)>,
    /// The names initialisers read that are not globals: the slots of a
    /// frame nothing binds.
    pub locals: Vec<String>,
}

/// Lower `pl`'s whole program.
pub(crate) fn lower(pl: &PacketLoop) -> (Code, Inits) {
    let p = &pl.program;
    let items = || p.consts.iter().chain(&p.configs).chain(&p.states);
    let mut index = HashMap::new();
    let mut globals = Vec::new();
    let slots: Vec<usize> = items()
        .map(|it| match index.get(&it.name) {
            Some(&slot) => slot,
            None => {
                index.insert(it.name.clone(), globals.len());
                globals.push(it.name.clone());
                globals.len() - 1
            }
        })
        .collect();
    let configs = slots[p.consts.len()..p.consts.len() + p.configs.len()].to_vec();

    let entry = p.functions.iter().position(|f| f.name == pl.func);
    let funcs = p
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut scope = Scope::new(&index, &p.functions);
            if entry == Some(i) {
                scope.local(&pl.pkt_param);
            }
            scope.function(f)
        })
        .collect();
    let entry = entry.ok_or_else(|| RuntimeError::Unbound(pl.func.clone()));

    let mut scope = Scope::new(&index, &p.functions);
    let items = items()
        .zip(slots)
        .map(|(it, slot)| (slot, scope.expr(&it.init)))
        .collect();
    let inits = Inits {
        items,
        locals: scope.names,
    };
    let code = Code {
        funcs,
        entry,
        globals,
        index,
        configs,
    };
    (code, inits)
}

/// One function's names while it is lowered.
struct Scope<'p> {
    globals: &'p HashMap<String, usize>,
    functions: &'p [Function],
    locals: HashMap<&'p str, usize>,
    names: Vec<String>,
}

impl<'p> Scope<'p> {
    fn new(globals: &'p HashMap<String, usize>, functions: &'p [Function]) -> Scope<'p> {
        Scope {
            globals,
            functions,
            locals: HashMap::new(),
            names: Vec::new(),
        }
    }

    fn function(mut self, f: &'p Function) -> Func {
        let params = f.params.iter().map(|(name, _)| self.local(name)).collect();
        self.bind(&f.body);
        let body = self.block(&f.body);
        Func {
            ret: self.locals.get(RETURN).copied(),
            locals: self.names,
            params,
            body,
        }
    }

    /// The frame slot of `name`, made on first sight.
    fn local(&mut self, name: &'p str) -> usize {
        let names = &mut self.names;
        *self.locals.entry(name).or_insert_with(|| {
            names.push(name.to_string());
            names.len() - 1
        })
    }

    /// Give every name `stmts` bind a slot, before any read resolves.
    fn bind(&mut self, stmts: &'p [Stmt]) {
        for s in stmts {
            match &s.kind {
                StmtKind::Let { name, .. } => {
                    self.local(name);
                }
                StmtKind::For { var, body, .. } => {
                    self.local(var);
                    self.bind(body);
                }
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.bind(then_branch);
                    self.bind(else_branch);
                }
                StmtKind::While { body, .. } => self.bind(body),
                StmtKind::Return(Some(_)) => {
                    self.local(RETURN);
                }
                StmtKind::Assign { .. }
                | StmtKind::Return(None)
                | StmtKind::Break
                | StmtKind::Continue
                | StmtKind::Expr(_) => {}
            }
        }
    }

    fn var(&mut self, name: &'p str) -> Var {
        match (self.locals.get(name), self.globals.get(name)) {
            (Some(&l), Some(&g)) => Var::Shadowed(l, g),
            (Some(&l), None) => Var::Local(l),
            (None, Some(&g)) => Var::Global(g),
            (None, None) => Var::Local(self.local(name)),
        }
    }

    fn block(&mut self, stmts: &'p [Stmt]) -> Vec<St> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &'p Stmt) -> St {
        let kind = match &s.kind {
            StmtKind::Let { name, value } => StKind::Let(self.local(name), self.expr(value)),
            StmtKind::Assign { target, value } => {
                let place = match target {
                    LValue::Var(name) => Place::Var(self.var(name)),
                    LValue::Index(name, key) => Place::Index(self.var(name), self.expr(key)),
                    LValue::Field(name, field) => Place::Field(self.var(name), *field),
                };
                StKind::Assign(place, self.expr(value))
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => StKind::If(
                self.expr(cond),
                self.block(then_branch),
                self.block(else_branch),
            ),
            StmtKind::While { cond, body } => StKind::While(self.expr(cond), self.block(body)),
            StmtKind::For { var, iter, body } => {
                let iter = match iter {
                    ForIter::Range(lo, hi) => Iter::Range(self.expr(lo), self.expr(hi)),
                    ForIter::Array(a) => Iter::Array(self.expr(a)),
                };
                StKind::For(self.local(var), iter, self.block(body))
            }
            StmtKind::Return(v) => {
                StKind::Return(v.as_ref().map(|e| (self.local(RETURN), self.expr(e))))
            }
            StmtKind::Break => StKind::Break,
            StmtKind::Continue => StKind::Continue,
            StmtKind::Expr(e) => StKind::Expr(self.expr(e)),
        };
        St { id: s.id, kind }
    }

    fn exprs(&mut self, es: &'p [Expr]) -> Vec<Ex> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn boxed(&mut self, e: &'p Expr) -> Box<Ex> {
        Box::new(self.expr(e))
    }

    fn expr(&mut self, e: &'p Expr) -> Ex {
        match &e.kind {
            ExprKind::Int(v) => Ex::Int(*v),
            ExprKind::Bool(b) => Ex::Bool(*b),
            ExprKind::Str(s) => Ex::Str(s.clone()),
            ExprKind::Var(name) => Ex::Var(self.var(name)),
            ExprKind::Field(name, field) => Ex::Field(self.var(name), *field),
            ExprKind::Tuple(es) => Ex::Tuple(self.exprs(es)),
            ExprKind::Array(es) => Ex::Array(self.exprs(es)),
            ExprKind::Index(base, idx) => match &base.kind {
                // The container must be copied before an index that
                // could write it runs.
                ExprKind::Var(name) if !may_write(idx) => {
                    Ex::IndexVar(self.var(name), self.boxed(idx))
                }
                _ => Ex::Index(self.boxed(base), self.boxed(idx)),
            },
            ExprKind::Binary(op, a, b) => Ex::Binary(*op, self.boxed(a), self.boxed(b)),
            ExprKind::Unary(op, a) => Ex::Unary(*op, self.boxed(a)),
            ExprKind::Call(name, args) => self.call(name, args),
        }
    }

    fn call(&mut self, name: &'p str, args: &'p [Expr]) -> Ex {
        let fail = |scope: &mut Self, e: RuntimeError| Ex::Call(Callee::Fail(e), scope.exprs(args));
        let callee = match name {
            "map_remove" | "q_push" | "q_pop" => return self.mutator(name, args),
            "recv" | "sniff" | "spawn" => {
                return fail(
                    self,
                    RuntimeError::Type(format!(
                        "`{name}` must not appear in a per-packet function (normalise first)"
                    )),
                )
            }
            "listen" | "accept" | "connect" | "sock_read" | "sock_write" | "sock_close"
            | "fork" | "select2" => {
                return fail(self, RuntimeError::SocketNotUnfolded(name.to_string()))
            }
            _ => match Builtin::of(name) {
                Some(b) if args.len() < b.arity() => {
                    return fail(self, short_of_args(name, b.arity()))
                }
                Some(b) => Callee::Builtin(b),
                None => match self.functions.iter().position(|f| f.name == name) {
                    Some(f) => Callee::Func(f),
                    None => return fail(self, RuntimeError::Unbound(format!("function `{name}`"))),
                },
            },
        };
        Ex::Call(callee, self.exprs(args))
    }

    /// `map_remove`, `q_push` and `q_pop`, which write the variable
    /// their first argument names.
    fn mutator(&mut self, name: &'p str, args: &'p [Expr]) -> Ex {
        let Some(ExprKind::Var(base)) = args.first().map(|a| &a.kind) else {
            return Ex::Call(
                Callee::Fail(RuntimeError::Type(format!("{name} needs a variable"))),
                Vec::new(),
            );
        };
        let arity = if name == "q_pop" { 1 } else { 2 };
        if args.len() < arity {
            return Ex::Call(Callee::Fail(short_of_args(name, arity)), self.exprs(args));
        }
        let v = self.var(base);
        match name {
            "map_remove" => Ex::MapRemove(v, self.boxed(&args[1])),
            "q_push" => Ex::QPush(v, self.boxed(&args[1])),
            _ => Ex::QPop(v),
        }
    }
}

fn short_of_args(name: &str, arity: usize) -> RuntimeError {
    RuntimeError::Type(format!("`{name}` takes {arity} arguments"))
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
        ExprKind::Call(name, args) => Builtin::of(name).is_none() || args.iter().any(may_write),
    }
}
