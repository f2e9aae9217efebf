//! The NFL type system and checker.
//!
//! Types are deliberately shallow: maps and arrays hold scalars or flat
//! tuples of ints (exactly what NF code keys NAT dictionaries on —
//! 4-tuples), never other containers. This keeps the whole system
//! const-constructible (no boxing) and the symbolic executor's value
//! domain finite-depth.
//!
//! Checking is flow-insensitive per function with a single refinement
//! pass: an empty `map()` starts as `Map(Unknown, Unknown)` and adopts the
//! key/value types of its first use — the same inference a reader of
//! Figure 1 performs on `f2b_nat = {}`.

use crate::ast::{BinOp, Expr, ExprKind, ForIter, Function, LValue, Program, Stmt, StmtKind, UnOp};
use crate::builtins;
use crate::span::Span;
use std::collections::HashMap;
use std::fmt;

/// Element types — what may live inside a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemTy {
    /// 64-bit signed integer.
    Int,
    /// Boolean.
    Bool,
    /// String.
    Str,
    /// Flat tuple of `n` integers.
    Tuple(usize),
    /// A packet.
    Packet,
    /// Not yet known; unifies with anything.
    Unknown,
}

/// NFL types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer (also IPv4 addresses, ports, fds).
    Int,
    /// Boolean.
    Bool,
    /// String (interface names, log text, rule patterns).
    Str,
    /// No value (statement-position calls).
    Unit,
    /// A network packet.
    Packet,
    /// Flat tuple of `n` integers.
    Tuple(usize),
    /// Homogeneous array.
    Array(ElemTy),
    /// Hash map.
    Map(ElemTy, ElemTy),
    /// FIFO of packets (consumer-producer structure, Figure 4c).
    Queue,
    /// Not yet known; unifies with anything.
    Unknown,
}

impl Ty {
    /// Shorthand used by the builtin table.
    pub const ARRAY_OF_PACKET: Ty = Ty::Array(ElemTy::Packet);
    /// Shorthand used by the builtin table.
    pub const MAP_UNKNOWN: Ty = Ty::Map(ElemTy::Unknown, ElemTy::Unknown);

    /// View as an element type, if this type may live in a container.
    pub fn as_elem(self) -> Option<ElemTy> {
        match self {
            Ty::Int => Some(ElemTy::Int),
            Ty::Bool => Some(ElemTy::Bool),
            Ty::Str => Some(ElemTy::Str),
            Ty::Tuple(n) => Some(ElemTy::Tuple(n)),
            Ty::Packet => Some(ElemTy::Packet),
            Ty::Unknown => Some(ElemTy::Unknown),
            _ => None,
        }
    }
}

impl From<ElemTy> for Ty {
    fn from(e: ElemTy) -> Ty {
        match e {
            ElemTy::Int => Ty::Int,
            ElemTy::Bool => Ty::Bool,
            ElemTy::Str => Ty::Str,
            ElemTy::Tuple(n) => Ty::Tuple(n),
            ElemTy::Packet => Ty::Packet,
            ElemTy::Unknown => Ty::Unknown,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Bool => write!(f, "bool"),
            Ty::Str => write!(f, "str"),
            Ty::Unit => write!(f, "unit"),
            Ty::Packet => write!(f, "packet"),
            Ty::Tuple(n) => write!(f, "tuple{n}"),
            Ty::Array(e) => write!(f, "array<{}>", Ty::from(*e)),
            Ty::Map(k, v) => write!(f, "map<{}, {}>", Ty::from(*k), Ty::from(*v)),
            Ty::Queue => write!(f, "queue"),
            Ty::Unknown => write!(f, "?"),
        }
    }
}

/// Unify two types; `Unknown` adopts the other side. `None` on mismatch.
pub fn unify(a: Ty, b: Ty) -> Option<Ty> {
    match (a, b) {
        (Ty::Unknown, t) | (t, Ty::Unknown) => Some(t),
        (Ty::Map(k1, v1), Ty::Map(k2, v2)) => {
            Some(Ty::Map(unify_elem(k1, k2)?, unify_elem(v1, v2)?))
        }
        (Ty::Array(e1), Ty::Array(e2)) => Some(Ty::Array(unify_elem(e1, e2)?)),
        _ if a == b => Some(a),
        _ => None,
    }
}

fn unify_elem(a: ElemTy, b: ElemTy) -> Option<ElemTy> {
    match (a, b) {
        (ElemTy::Unknown, t) | (t, ElemTy::Unknown) => Some(t),
        _ if a == b => Some(a),
        _ => None,
    }
}

/// A type error with location and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for TypeError {}

/// The kind of a global binding, for mutability rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GlobalKind {
    Const,
    Config,
    State,
}

/// The typing environment produced by [`check`]; other crates use it to
/// query variable types.
#[derive(Debug, Clone, Default)]
pub struct TypeInfo {
    /// Global variable types (consts, configs, states).
    pub globals: HashMap<String, Ty>,
    /// Per-function local types, keyed by `"func::local"`.
    pub locals: HashMap<String, Ty>,
    /// Function return types.
    pub returns: HashMap<String, Ty>,
}

impl TypeInfo {
    /// Type of `name` as seen from inside `func`.
    pub fn var_ty(&self, func: &str, name: &str) -> Option<Ty> {
        self.locals
            .get(&format!("{func}::{name}"))
            .or_else(|| self.globals.get(name))
            .copied()
    }
}

struct Checker<'p> {
    program: &'p Program,
    globals: HashMap<String, (Ty, GlobalKind)>,
    info: TypeInfo,
    errors: Vec<TypeError>,
}

/// Check a program; on success returns the inferred [`TypeInfo`].
pub fn check(program: &Program) -> Result<TypeInfo, TypeError> {
    let mut ck = Checker {
        program,
        globals: HashMap::new(),
        info: TypeInfo::default(),
        errors: Vec::new(),
    };
    ck.check_program();
    match ck.errors.into_iter().next() {
        Some(e) => Err(e),
        None => Ok(ck.info),
    }
}

impl<'p> Checker<'p> {
    fn error(&mut self, span: Span, message: impl Into<String>) {
        self.errors.push(TypeError {
            message: message.into(),
            span,
        });
    }

    fn check_program(&mut self) {
        // Globals first: consts, then configs, then states — later groups
        // may reference earlier ones in initializers.
        for (items, kind) in [
            (&self.program.consts, GlobalKind::Const),
            (&self.program.configs, GlobalKind::Config),
            (&self.program.states, GlobalKind::State),
        ] {
            for item in items {
                let ty = self.infer_global_init(&item.init);
                if self.globals.contains_key(&item.name) {
                    self.error(item.span, format!("duplicate global `{}`", item.name));
                }
                self.globals.insert(item.name.clone(), (ty, kind));
                self.info.globals.insert(item.name.clone(), ty);
            }
        }
        // Pre-declare user functions (arity only; returns inferred lazily).
        let funcs: Vec<&Function> = self.program.functions.iter().collect();
        for f in &funcs {
            if builtins::lookup(&f.name).is_some() {
                self.error(f.span, format!("function `{}` shadows a builtin", f.name));
            }
        }
        for f in funcs {
            self.check_function(f);
        }
        if self.program.function("main").is_none() {
            self.error(Span::default(), "program has no `main` function");
        }
    }

    /// Globals are initialised outside any function: only literals,
    /// constructor builtins and references to earlier globals.
    fn infer_global_init(&mut self, e: &Expr) -> Ty {
        let mut locals = HashMap::new();
        self.infer_expr(e, "", &mut locals)
    }

    fn param_ty(&mut self, name: &str, span: Span) -> Ty {
        match name {
            "int" => Ty::Int,
            "bool" => Ty::Bool,
            "str" => Ty::Str,
            "packet" => Ty::Packet,
            "queue" => Ty::Queue,
            other => {
                if let Some(n) = other.strip_prefix("tuple").and_then(|s| s.parse().ok()) {
                    Ty::Tuple(n)
                } else {
                    self.error(span, format!("unknown parameter type `{other}`"));
                    Ty::Unknown
                }
            }
        }
    }

    fn check_function(&mut self, f: &Function) {
        let mut locals: HashMap<String, Ty> = HashMap::new();
        for (pname, pty) in &f.params {
            let ty = self.param_ty(pty, f.span);
            locals.insert(pname.clone(), ty);
        }
        self.check_block(&f.body, &f.name, &mut locals);
        for (name, ty) in locals {
            self.info.locals.insert(format!("{}::{name}", f.name), ty);
        }
        self.info.returns.entry(f.name.clone()).or_insert(Ty::Unit);
    }

    fn check_block(&mut self, stmts: &[Stmt], func: &str, locals: &mut HashMap<String, Ty>) {
        for s in stmts {
            self.check_stmt(s, func, locals);
        }
    }

    fn lookup_var(&self, func: &str, name: &str, locals: &HashMap<String, Ty>) -> Option<Ty> {
        locals
            .get(name)
            .copied()
            .or_else(|| self.globals.get(name).map(|(t, _)| *t))
            .or_else(|| {
                // Functions are first-class only as callback names.
                self.program.function(name).map(|_| Ty::Unknown)
            })
            .or_else(|| self.info.var_ty(func, name))
    }

    fn refine_var(&mut self, func: &str, name: &str, ty: Ty, locals: &mut HashMap<String, Ty>) {
        if let Some(slot) = locals.get_mut(name) {
            if let Some(u) = unify(*slot, ty) {
                *slot = u;
            }
        } else if let Some((slot, _)) = self.globals.get_mut(name) {
            if let Some(u) = unify(*slot, ty) {
                *slot = u;
                self.info.globals.insert(name.to_string(), u);
            }
        }
        let _ = func;
    }

    fn check_stmt(&mut self, s: &Stmt, func: &str, locals: &mut HashMap<String, Ty>) {
        match &s.kind {
            StmtKind::Let { name, value } => {
                let ty = self.infer_expr(value, func, locals);
                if ty == Ty::Unit {
                    self.error(s.span, format!("`{name}` bound to unit expression"));
                }
                locals.insert(name.clone(), ty);
            }
            StmtKind::Assign { target, value } => {
                let vty = self.infer_expr(value, func, locals);
                self.check_assign(target, vty, s.span, func, locals);
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cty = self.infer_expr(cond, func, locals);
                if unify(cty, Ty::Bool).is_none() {
                    self.error(cond.span, format!("if condition has type {cty}, not bool"));
                }
                self.check_block(then_branch, func, locals);
                self.check_block(else_branch, func, locals);
            }
            StmtKind::While { cond, body } => {
                let cty = self.infer_expr(cond, func, locals);
                if unify(cty, Ty::Bool).is_none() {
                    self.error(
                        cond.span,
                        format!("while condition has type {cty}, not bool"),
                    );
                }
                self.check_block(body, func, locals);
            }
            StmtKind::For { var, iter, body } => {
                let elem = match iter {
                    ForIter::Range(lo, hi) => {
                        for b in [lo, hi] {
                            let t = self.infer_expr(b, func, locals);
                            if unify(t, Ty::Int).is_none() {
                                self.error(b.span, format!("range bound has type {t}, not int"));
                            }
                        }
                        Ty::Int
                    }
                    ForIter::Array(arr) => {
                        let t = self.infer_expr(arr, func, locals);
                        match t {
                            Ty::Array(e) => Ty::from(e),
                            Ty::Unknown => Ty::Unknown,
                            other => {
                                self.error(
                                    arr.span,
                                    format!("for-in iterates {other}, expected array"),
                                );
                                Ty::Unknown
                            }
                        }
                    }
                };
                let shadowed = locals.insert(var.clone(), elem);
                self.check_block(body, func, locals);
                match shadowed {
                    Some(t) => {
                        locals.insert(var.clone(), t);
                    }
                    None => {
                        // Keep the loop var visible for TypeInfo, mirroring
                        // how analyses treat it, but it is not usable after
                        // the loop in well-formed programs.
                    }
                }
            }
            StmtKind::Return(Some(e)) => {
                let ty = self.infer_expr(e, func, locals);
                let prev = self.info.returns.get(func).copied().unwrap_or(Ty::Unknown);
                match unify(prev, ty) {
                    Some(u) => {
                        self.info.returns.insert(func.to_string(), u);
                    }
                    None => self.error(
                        s.span,
                        format!("conflicting return types {prev} and {ty} in `{func}`"),
                    ),
                }
            }
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Expr(e) => {
                self.infer_expr(e, func, locals);
            }
        }
    }

    fn check_assign(
        &mut self,
        target: &LValue,
        vty: Ty,
        span: Span,
        func: &str,
        locals: &mut HashMap<String, Ty>,
    ) {
        // Mutability: consts and configs are read-only inside functions.
        if let Some((_, kind)) = self.globals.get(target.base()) {
            match kind {
                GlobalKind::Const => {
                    self.error(span, format!("cannot assign to const `{}`", target.base()))
                }
                GlobalKind::Config => self.error(
                    span,
                    format!(
                        "cannot assign to config `{}` (configs are fixed at deploy time)",
                        target.base()
                    ),
                ),
                GlobalKind::State => {}
            }
        }
        match target {
            LValue::Var(name) => {
                let cur = self.lookup_var(func, name, locals);
                match cur {
                    Some(cur) => match unify(cur, vty) {
                        Some(u) => self.refine_var(func, name, u, locals),
                        None => {
                            self.error(span, format!("assigning {vty} to `{name}` of type {cur}"))
                        }
                    },
                    None => self.error(
                        span,
                        format!("assignment to undeclared variable `{name}` (use `let`)"),
                    ),
                }
            }
            LValue::Index(base, key) => {
                let kty = self.infer_expr(key, func, locals);
                let bty = self.lookup_var(func, base, locals);
                match bty {
                    Some(Ty::Map(k, v)) => {
                        let (Some(ke), Some(ve)) = (kty.as_elem(), vty.as_elem()) else {
                            self.error(span, "map keys/values must be scalars or tuples");
                            return;
                        };
                        match (unify_elem(k, ke), unify_elem(v, ve)) {
                            (Some(nk), Some(nv)) => {
                                self.refine_var(func, base, Ty::Map(nk, nv), locals)
                            }
                            _ => self.error(
                                span,
                                format!(
                                    "map `{base}` is map<{},{}>, got key {kty} value {vty}",
                                    Ty::from(k),
                                    Ty::from(v)
                                ),
                            ),
                        }
                    }
                    Some(Ty::Array(e)) => {
                        if unify(kty, Ty::Int).is_none() {
                            self.error(span, "array index must be int");
                        }
                        match vty.as_elem().and_then(|ve| unify_elem(e, ve)) {
                            Some(ne) => self.refine_var(func, base, Ty::Array(ne), locals),
                            None => self.error(
                                span,
                                format!("array `{base}` holds {}, got {vty}", Ty::from(e)),
                            ),
                        }
                    }
                    Some(Ty::Unknown) => {
                        // Refine to a map, the common case.
                        if let (Some(ke), Some(ve)) = (kty.as_elem(), vty.as_elem()) {
                            self.refine_var(func, base, Ty::Map(ke, ve), locals);
                        }
                    }
                    Some(other) => {
                        self.error(span, format!("cannot index into `{base}` of type {other}"))
                    }
                    None => self.error(span, format!("unknown variable `{base}`")),
                }
            }
            LValue::Field(base, _field) => {
                let bty = self.lookup_var(func, base, locals);
                match bty {
                    Some(Ty::Packet) | Some(Ty::Unknown) => {
                        if unify(vty, Ty::Int).is_none() {
                            self.error(span, format!("packet fields are int, got {vty}"));
                        }
                    }
                    Some(other) => self.error(
                        span,
                        format!("field store on `{base}` of type {other}, expected packet"),
                    ),
                    None => self.error(span, format!("unknown variable `{base}`")),
                }
            }
        }
    }

    fn infer_expr(&mut self, e: &Expr, func: &str, locals: &mut HashMap<String, Ty>) -> Ty {
        match &e.kind {
            ExprKind::Int(_) => Ty::Int,
            ExprKind::Bool(_) => Ty::Bool,
            ExprKind::Str(_) => Ty::Str,
            ExprKind::Var(name) => match self.lookup_var(func, name, locals) {
                Some(t) => t,
                None => {
                    self.error(e.span, format!("unknown variable `{name}`"));
                    Ty::Unknown
                }
            },
            ExprKind::Field(base, _field) => {
                match self.lookup_var(func, base, locals) {
                    Some(Ty::Packet) | Some(Ty::Unknown) => {}
                    Some(other) => self.error(
                        e.span,
                        format!("field read on `{base}` of type {other}, expected packet"),
                    ),
                    None => self.error(e.span, format!("unknown variable `{base}`")),
                }
                Ty::Int
            }
            ExprKind::Tuple(es) => {
                for el in es {
                    let t = self.infer_expr(el, func, locals);
                    if unify(t, Ty::Int).is_none() {
                        self.error(el.span, format!("tuple element has type {t}, not int"));
                    }
                }
                Ty::Tuple(es.len())
            }
            ExprKind::Array(es) => {
                let mut elem = ElemTy::Unknown;
                for el in es {
                    let t = self.infer_expr(el, func, locals);
                    match t.as_elem().and_then(|te| unify_elem(elem, te)) {
                        Some(ne) => elem = ne,
                        None => self.error(
                            el.span,
                            format!("array element {t} conflicts with {}", Ty::from(elem)),
                        ),
                    }
                }
                Ty::Array(elem)
            }
            ExprKind::Index(base, idx) => {
                let bty = self.infer_expr(base, func, locals);
                let ity = self.infer_expr(idx, func, locals);
                match bty {
                    Ty::Map(k, v) => {
                        if ity.as_elem().and_then(|ie| unify_elem(k, ie)).is_none() {
                            self.error(
                                idx.span,
                                format!("map key has type {ity}, expected {}", Ty::from(k)),
                            );
                        }
                        Ty::from(v)
                    }
                    Ty::Array(el) => {
                        if unify(ity, Ty::Int).is_none() {
                            self.error(idx.span, "array index must be int");
                        }
                        Ty::from(el)
                    }
                    Ty::Tuple(n) => {
                        if unify(ity, Ty::Int).is_none() {
                            self.error(idx.span, "tuple index must be int");
                        }
                        if let ExprKind::Int(i) = idx.kind {
                            if i < 0 || i as usize >= n {
                                self.error(
                                    idx.span,
                                    format!("tuple index {i} out of range 0..{n}"),
                                );
                            }
                        }
                        Ty::Int
                    }
                    Ty::Unknown => Ty::Unknown,
                    other => {
                        self.error(e.span, format!("cannot index into value of type {other}"));
                        Ty::Unknown
                    }
                }
            }
            ExprKind::Binary(op, a, b) => {
                let ta = self.infer_expr(a, func, locals);
                let tb = self.infer_expr(b, func, locals);
                match op {
                    BinOp::Add
                    | BinOp::Sub
                    | BinOp::Mul
                    | BinOp::Div
                    | BinOp::Mod
                    | BinOp::BitAnd
                    | BinOp::BitOr => {
                        for (t, ex) in [(ta, a), (tb, b)] {
                            if unify(t, Ty::Int).is_none() {
                                self.error(
                                    ex.span,
                                    format!("arithmetic operand has type {t}, not int"),
                                );
                            }
                        }
                        Ty::Int
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if unify(ta, tb).is_none() {
                            self.error(e.span, format!("comparison between {ta} and {tb}"));
                        }
                        Ty::Bool
                    }
                    BinOp::And | BinOp::Or => {
                        for (t, ex) in [(ta, a), (tb, b)] {
                            if unify(t, Ty::Bool).is_none() {
                                self.error(
                                    ex.span,
                                    format!("logical operand has type {t}, not bool"),
                                );
                            }
                        }
                        Ty::Bool
                    }
                    BinOp::In | BinOp::NotIn => {
                        match tb {
                            Ty::Map(k, _) => {
                                if ta.as_elem().and_then(|ae| unify_elem(k, ae)).is_none() {
                                    self.error(
                                        e.span,
                                        format!("membership key {ta} vs map key {}", Ty::from(k)),
                                    );
                                } else if let (ExprKind::Var(base), Some(ke)) =
                                    (&b.kind, ta.as_elem())
                                {
                                    // Refine the map's key type from use.
                                    self.refine_var(
                                        func,
                                        base,
                                        Ty::Map(ke, ElemTy::Unknown),
                                        locals,
                                    );
                                }
                            }
                            Ty::Array(el) => {
                                if ta.as_elem().and_then(|ae| unify_elem(el, ae)).is_none() {
                                    self.error(
                                        e.span,
                                        format!("membership of {ta} in array<{}>", Ty::from(el)),
                                    );
                                }
                            }
                            Ty::Unknown => {}
                            other => self.error(
                                e.span,
                                format!("`in` requires a map or array, got {other}"),
                            ),
                        }
                        Ty::Bool
                    }
                }
            }
            ExprKind::Unary(op, inner) => {
                let t = self.infer_expr(inner, func, locals);
                match op {
                    UnOp::Neg => {
                        if unify(t, Ty::Int).is_none() {
                            self.error(inner.span, format!("negating {t}"));
                        }
                        Ty::Int
                    }
                    UnOp::Not => {
                        if unify(t, Ty::Bool).is_none() {
                            self.error(inner.span, format!("logical-not of {t}"));
                        }
                        Ty::Bool
                    }
                }
            }
            ExprKind::Call(name, args) => self.infer_call(e, name, args, func, locals),
        }
    }

    fn infer_call(
        &mut self,
        e: &Expr,
        name: &str,
        args: &[Expr],
        func: &str,
        locals: &mut HashMap<String, Ty>,
    ) -> Ty {
        if let Some(b) = builtins::lookup(name) {
            if args.len() < b.min_args || args.len() > b.max_args {
                self.error(
                    e.span,
                    format!(
                        "`{name}` takes {}..={} arguments, got {}",
                        b.min_args,
                        b.max_args,
                        args.len()
                    ),
                );
            }
            for (i, a) in args.iter().enumerate() {
                let at = self.infer_expr(a, func, locals);
                if let Some(expect) = b.params.get(i) {
                    if unify(at, *expect).is_none() {
                        self.error(
                            a.span,
                            format!("argument {i} of `{name}` has type {at}, expected {expect}"),
                        );
                    }
                }
            }
            // `sniff(callback)` — the callback must be a unary fn(packet);
            // `spawn(body)` — the thread body takes no arguments.
            if b.effect == crate::builtins::Effect::Loop {
                if let Some(Expr {
                    kind: ExprKind::Var(cb),
                    ..
                }) = args.first()
                {
                    let want = if name == "spawn" { 0 } else { 1 };
                    match self.program.function(cb) {
                        Some(f) if f.params.len() == want => {}
                        Some(_) => self.error(
                            e.span,
                            format!("callback `{cb}` must take {want} parameter(s)"),
                        ),
                        None => self.error(e.span, format!("unknown callback `{cb}`")),
                    }
                }
            }
            return b.ret;
        }
        // User function.
        match self.program.function(name) {
            Some(f) => {
                if f.params.len() != args.len() {
                    self.error(
                        e.span,
                        format!(
                            "`{name}` takes {} arguments, got {}",
                            f.params.len(),
                            args.len()
                        ),
                    );
                }
                let ptys: Vec<(Span, String)> =
                    f.params.iter().map(|(_, t)| (f.span, t.clone())).collect();
                for (a, (pspan, pty_name)) in args.iter().zip(ptys) {
                    let at = self.infer_expr(a, func, locals);
                    let pt = self.param_ty(&pty_name, pspan);
                    if unify(at, pt).is_none() {
                        self.error(
                            a.span,
                            format!("argument to `{name}` has type {at}, expected {pt}"),
                        );
                    }
                }
                self.info.returns.get(name).copied().unwrap_or(Ty::Unknown)
            }
            None => {
                self.error(e.span, format!("unknown function `{name}`"));
                Ty::Unknown
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn check_src(src: &str) -> Result<TypeInfo, TypeError> {
        check(&parse(src).expect("parse"))
    }

    #[test]
    fn figure1_core_typechecks() {
        let src = r#"
            config LB_IP = 3.3.3.3;
            config LB_PORT = 80;
            state f2b_nat = map();
            state rr_idx = 0;
            fn cb(pkt: packet) {
                let si = pkt.ip.src;
                let sp = pkt.tcp.sport;
                let tpl = (si, sp, pkt.ip.dst, pkt.tcp.dport);
                if tpl not in f2b_nat {
                    f2b_nat[tpl] = (LB_IP, 10000, 1.1.1.1, 80);
                }
                let nat = f2b_nat[tpl];
                pkt.ip.src = nat[0];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let info = check_src(src).unwrap();
        assert_eq!(
            info.globals.get("f2b_nat"),
            Some(&Ty::Map(ElemTy::Tuple(4), ElemTy::Tuple(4)))
        );
        assert_eq!(info.globals.get("LB_PORT"), Some(&Ty::Int));
        assert_eq!(info.var_ty("cb", "si"), Some(Ty::Int));
        assert_eq!(info.var_ty("cb", "tpl"), Some(Ty::Tuple(4)));
    }

    #[test]
    fn config_assignment_rejected() {
        let err = check_src("config m = 1; fn main() { m = 2; }").unwrap_err();
        assert!(err.message.contains("config"), "{err}");
    }

    #[test]
    fn const_assignment_rejected() {
        let err = check_src("const C = 1; fn main() { C = 2; }").unwrap_err();
        assert!(err.message.contains("const"), "{err}");
    }

    #[test]
    fn undeclared_assignment_rejected() {
        let err = check_src("fn main() { x = 1; }").unwrap_err();
        assert!(err.message.contains("undeclared"), "{err}");
    }

    #[test]
    fn condition_must_be_bool() {
        let err = check_src("fn main() { if 1 { } }").unwrap_err();
        assert!(err.message.contains("not bool"), "{err}");
    }

    #[test]
    fn arithmetic_on_tuple_rejected() {
        let err = check_src("fn main() { let t = (1, 2); let x = t + 1; }").unwrap_err();
        assert!(err.message.contains("not int"), "{err}");
    }

    #[test]
    fn map_key_conflict_rejected() {
        let err = check_src(
            r#"
            state m = map();
            fn main() {
                m[1] = 2;
                m[(1, 2)] = 3;
            }
        "#,
        )
        .unwrap_err();
        assert!(err.message.contains("map"), "{err}");
    }

    #[test]
    fn tuple_index_bounds_checked() {
        let err = check_src("fn main() { let t = (1, 2); let x = t[5]; }").unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
    }

    #[test]
    fn builtin_arity_checked() {
        let err = check_src("fn main() { hash(); }").unwrap_err();
        assert!(err.message.contains("arguments"), "{err}");
    }

    #[test]
    fn unknown_function_rejected() {
        let err = check_src("fn main() { zorp(1); }").unwrap_err();
        assert!(err.message.contains("unknown function"), "{err}");
    }

    #[test]
    fn missing_main_rejected() {
        let err = check_src("fn helper() { }").unwrap_err();
        assert!(err.message.contains("main"), "{err}");
    }

    #[test]
    fn sniff_callback_validated() {
        let err =
            check_src("fn cb(a: packet, b: packet) { } fn main() { sniff(cb); }").unwrap_err();
        assert!(err.message.contains("callback"), "{err}");
    }

    #[test]
    fn user_fn_return_type_inferred() {
        let info = check_src(
            r#"
            fn pick(x: int) { return x + 1; }
            fn main() { let y = pick(2); }
        "#,
        )
        .unwrap();
        assert_eq!(info.returns.get("pick"), Some(&Ty::Int));
    }

    #[test]
    fn unify_rules() {
        assert_eq!(unify(Ty::Unknown, Ty::Int), Some(Ty::Int));
        assert_eq!(
            unify(
                Ty::Map(ElemTy::Unknown, ElemTy::Int),
                Ty::Map(ElemTy::Tuple(4), ElemTy::Unknown)
            ),
            Some(Ty::Map(ElemTy::Tuple(4), ElemTy::Int))
        );
        assert_eq!(unify(Ty::Int, Ty::Bool), None);
        assert_eq!(unify(Ty::Tuple(2), Ty::Tuple(3)), None);
    }

    #[test]
    fn shadowing_builtin_rejected() {
        let err = check_src("fn send(p: packet) { } fn main() { }").unwrap_err();
        assert!(err.message.contains("shadows"), "{err}");
    }

    #[test]
    fn for_over_array_binds_elem_type() {
        let info = check_src(
            r#"
            config servers = [(1.1.1.1, 80), (2.2.2.2, 80)];
            fn main() {
                for s in servers {
                    let ip = s[0];
                }
            }
        "#,
        )
        .unwrap();
        assert_eq!(
            info.globals.get("servers"),
            Some(&Ty::Array(ElemTy::Tuple(2)))
        );
    }
}
