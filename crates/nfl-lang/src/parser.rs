//! Recursive-descent parser for NFL.
//!
//! One token of lookahead, standard precedence climbing for expressions.
//! Statement ids are assigned densely in parse order; every node carries
//! the span of its source text.

use crate::ast::*;
use crate::lexer::{tokenize, LexError};
use crate::span::Span;
use crate::token::{Token, TokenKind};
use nf_packet::Field;
use std::fmt;

/// A syntax error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Location of the offending token.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
        }
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: u32,
    /// Diagnostics accumulated while recovering. Recovery never invents
    /// AST nodes: a statement or item that fails to parse is dropped and
    /// its error recorded, so a program is only returned error-free when
    /// `errors` is empty.
    errors: Vec<ParseError>,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> PResult<Token> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected `{kind}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            span: self.span(),
        }
    }

    fn ident(&mut self) -> PResult<(String, Span)> {
        let sp = self.span();
        match self.bump().kind {
            TokenKind::Ident(s) => Ok((s, sp)),
            other => Err(ParseError {
                message: format!("expected identifier, found `{other}`"),
                span: sp,
            }),
        }
    }

    fn fresh_id(&mut self) -> StmtId {
        let id = StmtId(self.next_id);
        self.next_id += 1;
        id
    }

    // ---- error recovery --------------------------------------------------

    /// Skip a balanced `{ … }` block (assumes the next token is `{`).
    fn skip_balanced_block(&mut self) {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    self.bump();
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Statement-level synchronisation: skip past the next `;` (consumed)
    /// or up to the enclosing `}` (left for the block to consume), treating
    /// nested `{ … }` blocks as opaque.
    fn sync_stmt(&mut self) {
        loop {
            match self.peek() {
                TokenKind::Eof | TokenKind::RBrace => return,
                TokenKind::Semi => {
                    self.bump();
                    return;
                }
                TokenKind::LBrace => self.skip_balanced_block(),
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Top-level synchronisation: skip to the next item keyword.
    fn sync_item(&mut self) {
        loop {
            match self.peek() {
                TokenKind::Eof
                | TokenKind::Const
                | TokenKind::Config
                | TokenKind::State
                | TokenKind::Fn => return,
                TokenKind::LBrace => self.skip_balanced_block(),
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ---- items ----------------------------------------------------------

    fn program(&mut self, source: &str) -> Program {
        let mut p = Program {
            source: source.to_string(),
            ..Program::default()
        };
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Const => {
                    self.bump();
                    match self.item() {
                        Ok(i) => p.consts.push(i),
                        Err(e) => {
                            self.errors.push(e);
                            self.sync_stmt();
                        }
                    }
                }
                TokenKind::Config => {
                    self.bump();
                    match self.item() {
                        Ok(i) => p.configs.push(i),
                        Err(e) => {
                            self.errors.push(e);
                            self.sync_stmt();
                        }
                    }
                }
                TokenKind::State => {
                    self.bump();
                    match self.item() {
                        Ok(i) => p.states.push(i),
                        Err(e) => {
                            self.errors.push(e);
                            self.sync_stmt();
                        }
                    }
                }
                TokenKind::Fn => {
                    self.bump();
                    match self.function() {
                        Ok(f) => p.functions.push(f),
                        Err(e) => {
                            self.errors.push(e);
                            self.sync_item();
                        }
                    }
                }
                other => {
                    let e = self.err(format!(
                        "expected `const`, `config`, `state` or `fn`, found `{other}`"
                    ));
                    self.errors.push(e);
                    self.bump();
                    self.sync_item();
                }
            }
        }
        p
    }

    fn item(&mut self) -> PResult<Item> {
        let (name, span) = self.ident()?;
        self.expect(TokenKind::Assign)?;
        let init = self.expr()?;
        self.expect(TokenKind::Semi)?;
        Ok(Item { name, init, span })
    }

    fn function(&mut self) -> PResult<Function> {
        let (name, span) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                let (pname, _) = self.ident()?;
                self.expect(TokenKind::Colon)?;
                let (pty, _) = self.ident()?;
                params.push((pname, pty));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Function {
            name,
            params,
            body,
            span,
        })
    }

    // ---- statements -------------------------------------------------------

    fn block(&mut self) -> PResult<Vec<Stmt>> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(self.err("unterminated block"));
            }
            match self.stmt() {
                Ok(s) => stmts.push(s),
                Err(e) => {
                    // Record and resynchronise on `;` / `}` so one bad
                    // statement doesn't hide the rest of the file's errors.
                    self.errors.push(e);
                    self.sync_stmt();
                }
            }
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        let start = self.span();
        let id = self.fresh_id();
        let kind = match self.peek().clone() {
            TokenKind::Let => {
                self.bump();
                let (name, _) = self.ident()?;
                self.expect(TokenKind::Assign)?;
                let value = self.expr()?;
                self.expect(TokenKind::Semi)?;
                StmtKind::Let { name, value }
            }
            TokenKind::If => {
                self.bump();
                self.if_stmt()?
            }
            TokenKind::While => {
                self.bump();
                let cond = self.expr()?;
                let body = self.block()?;
                StmtKind::While { cond, body }
            }
            TokenKind::For => {
                self.bump();
                let (var, _) = self.ident()?;
                self.expect(TokenKind::In)?;
                let first = self.expr()?;
                let iter = if self.eat(&TokenKind::DotDot) {
                    let hi = self.expr()?;
                    ForIter::Range(first, hi)
                } else {
                    ForIter::Array(first)
                };
                let body = self.block()?;
                StmtKind::For { var, iter, body }
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                StmtKind::Return(value)
            }
            TokenKind::Break => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                StmtKind::Break
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                StmtKind::Continue
            }
            _ => {
                let e = self.expr()?;
                if self.eat(&TokenKind::Assign) {
                    let target = self.lvalue_of(e)?;
                    let value = self.expr()?;
                    self.expect(TokenKind::Semi)?;
                    StmtKind::Assign { target, value }
                } else {
                    self.expect(TokenKind::Semi)?;
                    StmtKind::Expr(e)
                }
            }
        };
        Ok(Stmt {
            id,
            span: start.merge(self.prev_span()),
            kind,
        })
    }

    fn if_stmt(&mut self) -> PResult<StmtKind> {
        let cond = self.expr()?;
        let then_branch = self.block()?;
        let else_branch = if self.eat(&TokenKind::Else) {
            if self.peek() == &TokenKind::If {
                // `else if …` desugars to an else-block with one nested if.
                let start = self.span();
                let id = self.fresh_id();
                self.bump();
                let kind = self.if_stmt()?;
                vec![Stmt {
                    id,
                    span: start.merge(self.prev_span()),
                    kind,
                }]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(StmtKind::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn lvalue_of(&self, e: Expr) -> PResult<LValue> {
        match e.kind {
            ExprKind::Var(name) => Ok(LValue::Var(name)),
            ExprKind::Field(base, field) => Ok(LValue::Field(base, field)),
            ExprKind::Index(base, key) => match base.kind {
                ExprKind::Var(name) => Ok(LValue::Index(name, *key)),
                _ => Err(ParseError {
                    message: "indexed assignment target must be a variable".into(),
                    span: e.span,
                }),
            },
            _ => Err(ParseError {
                message: "invalid assignment target".into(),
                span: e.span,
            }),
        }
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::OrOr) {
            let rhs = self.and_expr()?;
            lhs = bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&TokenKind::AndAnd) {
            let rhs = self.cmp_expr()?;
            lhs = bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let lhs = self.bitor_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::In => BinOp::In,
            TokenKind::Not if self.peek2() == &TokenKind::In => BinOp::NotIn,
            _ => return Ok(lhs),
        };
        if op == BinOp::NotIn {
            self.bump(); // `not`
        }
        self.bump(); // operator / `in`
        let rhs = self.bitor_expr()?;
        Ok(bin(op, lhs, rhs))
    }

    fn bitor_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.bitand_expr()?;
        while self.peek() == &TokenKind::Pipe {
            self.bump();
            let rhs = self.bitand_expr()?;
            lhs = bin(BinOp::BitOr, lhs, rhs);
        }
        Ok(lhs)
    }

    fn bitand_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.add_expr()?;
        while self.peek() == &TokenKind::Amp {
            self.bump();
            let rhs = self.add_expr()?;
            lhs = bin(BinOp::BitAnd, lhs, rhs);
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        let span = self.span();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let inner = self.unary_expr()?;
                Ok(Expr {
                    span: span.merge(inner.span),
                    kind: ExprKind::Unary(UnOp::Neg, Box::new(inner)),
                })
            }
            TokenKind::Bang | TokenKind::Not => {
                self.bump();
                let inner = self.unary_expr()?;
                Ok(Expr {
                    span: span.merge(inner.span),
                    kind: ExprKind::Unary(UnOp::Not, Box::new(inner)),
                })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    let span = e.span.merge(self.prev_span());
                    e = Expr {
                        span,
                        kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                    };
                }
                TokenKind::Dot => {
                    // Dotted packet-field path: `pkt.ip.src`. Collect all
                    // `.segment` parts and resolve against the Field table.
                    let base = match &e.kind {
                        ExprKind::Var(name) => name.clone(),
                        _ => {
                            return Err(
                                self.err("field access requires a packet variable on the left")
                            )
                        }
                    };
                    let mut segments = Vec::new();
                    while self.peek() == &TokenKind::Dot {
                        self.bump();
                        let (seg, _) = self.ident()?;
                        segments.push(seg);
                    }
                    let path = segments.join(".");
                    let field = Field::from_path(&path).ok_or_else(|| ParseError {
                        message: format!("unknown packet field `{path}`"),
                        span: e.span.merge(self.prev_span()),
                    })?;
                    let span = e.span.merge(self.prev_span());
                    e = Expr {
                        span,
                        kind: ExprKind::Field(base, field),
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr {
                    span,
                    kind: ExprKind::Int(v),
                })
            }
            TokenKind::Bool(b) => {
                self.bump();
                Ok(Expr {
                    span,
                    kind: ExprKind::Bool(b),
                })
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr {
                    span,
                    kind: ExprKind::Str(s),
                })
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.peek() == &TokenKind::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    Ok(Expr {
                        span: span.merge(self.prev_span()),
                        kind: ExprKind::Call(name, args),
                    })
                } else {
                    Ok(Expr {
                        span,
                        kind: ExprKind::Var(name),
                    })
                }
            }
            TokenKind::LParen => {
                self.bump();
                let first = self.expr()?;
                if self.eat(&TokenKind::Comma) {
                    // Tuple literal.
                    let mut elems = vec![first];
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            elems.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                    Ok(Expr {
                        span: span.merge(self.prev_span()),
                        kind: ExprKind::Tuple(elems),
                    })
                } else {
                    self.expect(TokenKind::RParen)?;
                    Ok(first)
                }
            }
            TokenKind::LBracket => {
                self.bump();
                let mut elems = Vec::new();
                if self.peek() != &TokenKind::RBracket {
                    loop {
                        elems.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RBracket)?;
                Ok(Expr {
                    span: span.merge(self.prev_span()),
                    kind: ExprKind::Array(elems),
                })
            }
            other => Err(self.err(format!("expected expression, found `{other}`"))),
        }
    }
}

fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr {
        span: lhs.span.merge(rhs.span),
        kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
    }
}

/// Parse a complete program, reporting only the first syntax error.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_all(src).map_err(|mut errs| errs.swap_remove(0))
}

/// Parse a complete program with error recovery: on a bad statement the
/// parser records the diagnostic, synchronises on `;` / `}` (or the next
/// top-level item keyword), and keeps going — so a single pass reports
/// *every* syntax error, not just the first. Returns the program only
/// when it parsed cleanly.
pub fn parse_all(src: &str) -> Result<Program, Vec<ParseError>> {
    let tokens = tokenize(src).map_err(|e| vec![ParseError::from(e)])?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        next_id: 0,
        errors: Vec::new(),
    };
    let p = parser.program(src);
    if parser.errors.is_empty() {
        Ok(p)
    } else {
        Err(parser.errors)
    }
}

/// Parse a single expression — used by tests and the REPL-ish tooling.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        next_id: 0,
        errors: Vec::new(),
    };
    let e = parser.expr()?;
    parser.expect(TokenKind::Eof)?;
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_figure1_fragment() {
        let src = r#"
            # Configurations
            config mode = 1;
            config LB_IP = 3.3.3.3;
            config LB_PORT = 80;
            config servers = [(1.1.1.1, 80), (2.2.2.2, 80)];
            # Output-Impacting States
            state f2b_nat = map();
            state rr_idx = 0;
            state cur_port = 10000;
            # Log States
            state pass_stat = 0;
            state drop_stat = 0;

            fn pkt_callback(pkt: packet) {
                let si = pkt.ip.src;
                let di = pkt.ip.dst;
                let sp = pkt.tcp.sport;
                let dp = pkt.tcp.dport;
                if dp == LB_PORT {
                    let cs_ftpl = (si, sp, di, dp);
                    if cs_ftpl not in f2b_nat {
                        let server = servers[rr_idx];
                        rr_idx = (rr_idx + 1) % len(servers);
                    }
                } else {
                    drop_stat = drop_stat + 1;
                    return;
                }
                pass_stat = pass_stat + 1;
                send(pkt);
            }

            fn main() {
                sniff(pkt_callback);
            }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.configs.len(), 4);
        assert_eq!(p.states.len(), 5);
        assert_eq!(p.functions.len(), 2);
        // Ids are dense.
        let mut ids = Vec::new();
        p.for_each_stmt(|s| ids.push(s.id.0));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn not_in_parses() {
        let e = parse_expr("k not in m").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::NotIn, _, _)));
    }

    #[test]
    fn in_parses() {
        let e = parse_expr("k in m").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary(BinOp::In, _, _)));
    }

    #[test]
    fn precedence() {
        // a + b * c == d  →  ((a + (b*c)) == d)
        let e = parse_expr("a + b * c == d").unwrap();
        let ExprKind::Binary(BinOp::Eq, lhs, _) = e.kind else {
            panic!("expected ==");
        };
        let ExprKind::Binary(BinOp::Add, _, rhs) = lhs.kind else {
            panic!("expected +");
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn field_path() {
        let e = parse_expr("pkt.tcp.sport").unwrap();
        assert!(
            matches!(e.kind, ExprKind::Field(ref b, Field::TcpSport) if b == "pkt"),
            "{e:?}"
        );
    }

    #[test]
    fn unknown_field_rejected() {
        assert!(parse_expr("pkt.ip.bogus").is_err());
    }

    #[test]
    fn tuple_vs_paren() {
        assert!(matches!(
            parse_expr("(1, 2, 3)").unwrap().kind,
            ExprKind::Tuple(ref v) if v.len() == 3
        ));
        assert!(matches!(
            parse_expr("(1 + 2)").unwrap().kind,
            ExprKind::Binary(BinOp::Add, _, _)
        ));
    }

    #[test]
    fn assignment_targets() {
        let p = parse_program(
            r#"
            state m = map();
            fn main() {
                let pkt = recv();
                m[1] = 2;
                pkt.ip.src = 3;
                let x = 0;
                x = 4;
            }
        "#,
        )
        .unwrap();
        let body = &p.function("main").unwrap().body;
        assert!(matches!(
            body[1].kind,
            StmtKind::Assign {
                target: LValue::Index(..),
                ..
            }
        ));
        assert!(matches!(
            body[2].kind,
            StmtKind::Assign {
                target: LValue::Field(..),
                ..
            }
        ));
        assert!(matches!(
            body[4].kind,
            StmtKind::Assign {
                target: LValue::Var(..),
                ..
            }
        ));
    }

    #[test]
    fn invalid_assignment_target() {
        assert!(parse_program("fn main() { 1 + 2 = 3; }").is_err());
    }

    #[test]
    fn else_if_chain() {
        let p = parse_program(
            r#"
            fn main() {
                let x = 1;
                if x == 1 { } else if x == 2 { } else { x = 3; }
            }
        "#,
        )
        .unwrap();
        let body = &p.function("main").unwrap().body;
        let StmtKind::If { else_branch, .. } = &body[1].kind else {
            panic!()
        };
        assert_eq!(else_branch.len(), 1);
        assert!(matches!(else_branch[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn for_range_and_array() {
        let p = parse_program(
            r#"
            fn main() {
                for i in 0..10 { }
                for x in [1, 2, 3] { }
            }
        "#,
        )
        .unwrap();
        let body = &p.function("main").unwrap().body;
        assert!(matches!(
            body[0].kind,
            StmtKind::For {
                iter: ForIter::Range(..),
                ..
            }
        ));
        assert!(matches!(
            body[1].kind,
            StmtKind::For {
                iter: ForIter::Array(..),
                ..
            }
        ));
    }

    #[test]
    fn unterminated_block() {
        assert!(parse_program("fn main() { let x = 1;").is_err());
    }

    #[test]
    fn spans_carry_lines() {
        let p = parse_program("fn main() {\n let x = 1;\n send(x);\n}").unwrap();
        let body = &p.function("main").unwrap().body;
        assert_eq!(body[0].span.line, 2);
        assert_eq!(body[1].span.line, 3);
    }

    #[test]
    fn while_and_flow_keywords() {
        let p = parse_program(
            r#"
            fn main() {
                let i = 0;
                while i < 3 {
                    i = i + 1;
                    if i == 2 { continue; }
                    if i == 3 { break; }
                }
                return;
            }
        "#,
        )
        .unwrap();
        assert_eq!(p.stmt_count(), 8);
    }

    #[test]
    fn recovery_reports_every_error() {
        // Three distinct mistakes in three statements; recovery must
        // surface all of them in one pass (golden diagnostics below).
        let src = r#"
            state n = 0;
            fn cb(pkt: packet) {
                let a = ;
                n = n + 1;
                b = = 2;
                if pkt.ip.ttl > { send(pkt); }
                n = n + 2;
            }
            fn main() { sniff(cb); }
        "#;
        let errs = parse_all(src).unwrap_err();
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        assert_eq!(errs.len(), 3, "{msgs:?}");
        assert!(
            msgs[0].contains("expected expression, found `;`"),
            "{msgs:?}"
        );
        assert!(
            msgs[1].contains("expected expression, found `=`"),
            "{msgs:?}"
        );
        assert!(
            msgs[2].contains("expected expression, found `{`"),
            "{msgs:?}"
        );
        // Errors come out in source order with correct lines.
        assert_eq!(errs[0].span.line, 4);
        assert_eq!(errs[1].span.line, 6);
        assert_eq!(errs[2].span.line, 7);
    }

    #[test]
    fn recovery_spans_top_level_items() {
        let src = r#"
            config port = ;
            state ok = 0;
            fn broken( { }
            fn main() { ok = 1; }
        "#;
        let errs = parse_all(src).unwrap_err();
        assert!(errs.len() >= 2, "{errs:?}");
        // The well-formed items around the bad ones still parse.
        // (The program is only *returned* on success, so check via a
        // clean sibling source.)
        let clean = parse_all("state ok = 0;\nfn main() { ok = 1; }").unwrap();
        assert_eq!(clean.states.len(), 1);
        assert_eq!(clean.functions.len(), 1);
    }

    #[test]
    fn recovery_skips_nested_blocks_when_syncing() {
        // The bad statement contains a braced block; sync must treat it
        // as opaque and not resume parsing in its middle.
        let src = r#"
            fn main() {
                let x = 1;
                while { let y = 2; } ;
                x = 3;
            }
        "#;
        let errs = parse_all(src).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
    }

    #[test]
    fn parse_program_still_reports_first_error() {
        let err = parse_program("fn main() { let a = ; let b = ; }").unwrap_err();
        assert!(err.message.contains("expected expression"));
    }

    #[test]
    fn clean_source_roundtrips_through_parse_all() {
        let p = parse_all("fn main() { let x = 1; send(x); }").unwrap();
        assert_eq!(p.functions.len(), 1);
    }

    #[test]
    fn unary_not_forms() {
        assert!(matches!(
            parse_expr("!x").unwrap().kind,
            ExprKind::Unary(UnOp::Not, _)
        ));
        assert!(matches!(
            parse_expr("not x").unwrap().kind,
            ExprKind::Unary(UnOp::Not, _)
        ));
        assert!(matches!(
            parse_expr("-x").unwrap().kind,
            ExprKind::Unary(UnOp::Neg, _)
        ));
    }
}
