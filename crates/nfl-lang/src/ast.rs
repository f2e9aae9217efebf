//! The NFL abstract syntax tree.
//!
//! Every statement carries a unique [`StmtId`] and a [`Span`]; slices are
//! sets of `StmtId`s and Table 2's LoC numbers come from the spans. The
//! tree is deliberately flat and clone-friendly — analyses transform
//! programs by rebuilding statement vectors (inlining, loop normalisation,
//! socket unfolding) rather than by mutating shared nodes.

use crate::span::Span;
use nf_packet::Field;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Unique identifier of a statement within one [`Program`].
///
/// Ids are dense, assigned in parse order, and re-assigned by
/// [`Program::renumber`] after transformations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StmtId(pub u32);

impl fmt::Display for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `&` bitwise
    BitAnd,
    /// `|` bitwise
    BitOr,
    /// `k in m` — map/array membership.
    In,
    /// `k not in m`.
    NotIn,
}

impl BinOp {
    /// Surface syntax of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::In => "in",
            BinOp::NotIn => "not in",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// Integer literal (plain, hex, or dotted-quad IPv4).
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// Variable reference.
    Var(String),
    /// Packet field read: `pkt.ip.src`. The `String` is the packet-typed
    /// variable; nested packet expressions are not allowed.
    Field(String, Field),
    /// Tuple literal `(a, b, …)` of integer expressions.
    Tuple(Vec<Expr>),
    /// Array literal `[a, b, …]`.
    Array(Vec<Expr>),
    /// Indexing: map get `m[k]`, array element `a[i]`, or tuple element
    /// `t[0]` (constant index).
    Index(Box<Expr>, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Builtin or user function call.
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Convenience constructor with a default span.
    pub fn synthetic(kind: ExprKind) -> Expr {
        Expr {
            kind,
            span: Span::default(),
        }
    }

    /// All variable names read by this expression (including map/array
    /// bases and packet variables).
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match &self.kind {
            ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Str(_) => {}
            ExprKind::Var(v) => out.push(v.clone()),
            ExprKind::Field(base, _) => out.push(base.clone()),
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                for e in es {
                    e.collect_vars(out);
                }
            }
            ExprKind::Index(a, b) | ExprKind::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            ExprKind::Unary(_, e) => e.collect_vars(out),
            ExprKind::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// All function names called anywhere inside this expression.
    pub fn calls(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_calls(&mut out);
        out
    }

    fn collect_calls(&self, out: &mut Vec<String>) {
        match &self.kind {
            ExprKind::Call(name, args) => {
                out.push(name.clone());
                for a in args {
                    a.collect_calls(out);
                }
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                for e in es {
                    e.collect_calls(out);
                }
            }
            ExprKind::Index(a, b) | ExprKind::Binary(_, a, b) => {
                a.collect_calls(out);
                b.collect_calls(out);
            }
            ExprKind::Unary(_, e) => e.collect_calls(out),
            _ => {}
        }
    }
}

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LValue {
    /// `x = …`
    Var(String),
    /// `m[k] = …` (map insert / array store).
    Index(String, Expr),
    /// `pkt.ip.src = …` (packet header rewrite).
    Field(String, Field),
}

impl LValue {
    /// The variable ultimately defined by this l-value (the map or packet
    /// variable itself for indexed/field stores — a *weak* update).
    pub fn base(&self) -> &str {
        match self {
            LValue::Var(v) | LValue::Index(v, _) | LValue::Field(v, _) => v,
        }
    }

    /// Variables *read* in order to perform the store (index keys), plus
    /// the base for weak updates.
    pub fn uses(&self) -> Vec<String> {
        match self {
            LValue::Var(_) => vec![],
            LValue::Index(base, key) => {
                let mut v = key.vars();
                v.push(base.clone());
                v
            }
            LValue::Field(base, _) => vec![base.clone()],
        }
    }
}

/// What a `for` loop iterates over.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ForIter {
    /// `for i in lo..hi` — an integer range.
    Range(Expr, Expr),
    /// `for x in arr` — the elements of an array expression.
    Array(Expr),
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Stmt {
    /// Unique id, dense within the program.
    pub id: StmtId,
    /// Source location.
    pub span: Span,
    /// What the statement is.
    pub kind: StmtKind,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StmtKind {
    /// `let x = e;` — introduces a local.
    Let {
        /// The new local's name.
        name: String,
        /// Initializer.
        value: Expr,
    },
    /// `lv = e;`
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
    },
    /// `if cond { … } else { … }` — `else` may be empty.
    If {
        /// Branch condition; this statement's id is the "condition
        /// statement" Algorithm 1 collects into the match field.
        cond: Expr,
        /// Then branch.
        then_branch: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_branch: Vec<Stmt>,
    },
    /// `while cond { … }` — must be boundable (§3.2).
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for v in iter { … }`.
    For {
        /// Loop variable.
        var: String,
        /// Iteration space.
        iter: ForIter,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return;` or `return e;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A bare expression statement — almost always a call
    /// (`send(pkt);`, `log(…);`, `map_remove(m, k);`).
    Expr(Expr),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameters as `(name, declared type)`; the type annotation is a
    /// simple identifier (`packet`, `int`, …) resolved by the checker.
    pub params: Vec<(String, String)>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location of the `fn` keyword.
    pub span: Span,
}

/// A top-level declaration other than a function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Item {
    /// Declared name.
    pub name: String,
    /// Initializer expression.
    pub init: Expr,
    /// Source location.
    pub span: Span,
}

/// A whole NFL program.
///
/// Its [`Hash`] covers every declaration and function, spans, ids and
/// literals included, but not `source`: a trivia-only edit (a comment,
/// whitespace past the last span) hashes the same, while any edit that
/// moves a span, and so a diagnostic, does not.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// `const` declarations — compile-time constants, folded freely.
    pub consts: Vec<Item>,
    /// `config` declarations — the NF's deploy-time configuration
    /// (candidate `cfgVar`s).
    pub configs: Vec<Item>,
    /// `state` declarations — variables persisting across packets
    /// (candidate `oisVar`s / `logVar`s).
    pub states: Vec<Item>,
    /// Function definitions; the entry point is `main`.
    pub functions: Vec<Function>,
    /// The original source text, kept for LoC accounting and diagnostics.
    pub source: String,
}

impl Hash for Program {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.consts.hash(state);
        self.configs.hash(state);
        self.states.hash(state);
        self.functions.hash(state);
    }
}

impl Program {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Count non-blank, non-comment source lines — the paper's Table 2
    /// "LoC (orig)" metric ("excluding comments").
    pub fn loc(&self) -> usize {
        self.source
            .lines()
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with("//") && !t.starts_with('#')
            })
            .count()
    }

    /// Visit every statement in the program (pre-order, nested bodies
    /// included).
    pub fn for_each_stmt<'a>(&'a self, mut f: impl FnMut(&'a Stmt)) {
        fn walk<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
            for s in stmts {
                f(s);
                match &s.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, f);
                        walk(else_branch, f);
                    }
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk(body, f),
                    _ => {}
                }
            }
        }
        for func in &self.functions {
            walk(&func.body, &mut f);
        }
    }

    /// Total number of statements.
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.for_each_stmt(|_| n += 1);
        n
    }

    /// Reassign dense statement ids in visit order. Returns the number of
    /// statements. Call after any transformation that clones statements.
    pub fn renumber(&mut self) -> usize {
        fn walk(stmts: &mut [Stmt], next: &mut u32) {
            for s in stmts {
                s.id = StmtId(*next);
                *next += 1;
                match &mut s.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, next);
                        walk(else_branch, next);
                    }
                    StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk(body, next),
                    _ => {}
                }
            }
        }
        let mut next = 0;
        for func in &mut self.functions {
            walk(&mut func.body, &mut next);
        }
        next as usize
    }

    /// Look up a statement by id.
    pub fn stmt(&self, id: StmtId) -> Option<&Stmt> {
        let mut found = None;
        self.for_each_stmt(|s| {
            if s.id == id {
                found = Some(s);
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Expr {
        Expr::synthetic(ExprKind::Int(v))
    }

    #[test]
    fn expr_vars_collects_all() {
        let e = Expr::synthetic(ExprKind::Binary(
            BinOp::Add,
            Box::new(Expr::synthetic(ExprKind::Var("a".into()))),
            Box::new(Expr::synthetic(ExprKind::Index(
                Box::new(Expr::synthetic(ExprKind::Var("m".into()))),
                Box::new(Expr::synthetic(ExprKind::Var("k".into()))),
            ))),
        ));
        let mut vars = e.vars();
        vars.sort();
        assert_eq!(vars, vec!["a", "k", "m"]);
    }

    #[test]
    fn field_expr_reads_packet_var() {
        let e = Expr::synthetic(ExprKind::Field("pkt".into(), Field::IpSrc));
        assert_eq!(e.vars(), vec!["pkt"]);
    }

    #[test]
    fn lvalue_base_and_uses() {
        let lv = LValue::Index("m".into(), Expr::synthetic(ExprKind::Var("k".into())));
        assert_eq!(lv.base(), "m");
        let mut uses = lv.uses();
        uses.sort();
        assert_eq!(uses, vec!["k", "m"]);
        assert!(LValue::Var("x".into()).uses().is_empty());
    }

    #[test]
    fn renumber_is_dense_and_preorder() {
        let mk = |kind| Stmt {
            id: StmtId(99),
            span: Span::default(),
            kind,
        };
        let mut p = Program {
            functions: vec![Function {
                name: "f".into(),
                params: vec![],
                body: vec![
                    mk(StmtKind::Let {
                        name: "x".into(),
                        value: int(1),
                    }),
                    mk(StmtKind::If {
                        cond: Expr::synthetic(ExprKind::Bool(true)),
                        then_branch: vec![mk(StmtKind::Return(None))],
                        else_branch: vec![mk(StmtKind::Break)],
                    }),
                ],
                span: Span::default(),
            }],
            ..Program::default()
        };
        assert_eq!(p.renumber(), 4);
        let mut ids = Vec::new();
        p.for_each_stmt(|s| ids.push(s.id.0));
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(p.stmt(StmtId(3)).is_some());
        assert!(p.stmt(StmtId(4)).is_none());
    }

    #[test]
    fn loc_skips_comments_and_blanks() {
        let p = Program {
            source: "let x = 1;\n\n// comment\n# also\nlet y = 2;\n".into(),
            ..Program::default()
        };
        assert_eq!(p.loc(), 2);
    }

    fn hash_of(src: &str) -> u64 {
        let p = crate::parse_and_check(src).unwrap();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        p.hash(&mut h);
        h.finish()
    }

    const BASE: &str = "\
state hits = 0;
fn cb(pkt: packet) { hits = hits + 1; send(pkt); }
fn main() { sniff(cb); }
";

    #[test]
    fn program_hash_skips_trivia_but_not_spans_or_literals() {
        assert_eq!(hash_of(BASE), hash_of(BASE));
        assert_eq!(
            hash_of(BASE),
            hash_of(&format!("{BASE}// a trailing comment\n"))
        );
        assert_ne!(hash_of(BASE), hash_of(&format!("// leading\n{BASE}")));
        assert_ne!(
            hash_of(BASE),
            hash_of(&BASE.replace("hits + 1", "hits + 2"))
        );
    }

    #[test]
    fn expr_calls_nested() {
        let e = Expr::synthetic(ExprKind::Call(
            "hash".into(),
            vec![Expr::synthetic(ExprKind::Call("len".into(), vec![]))],
        ));
        assert_eq!(e.calls(), vec!["hash", "len"]);
    }
}
