//! Pretty printer: regenerates NFL source from an AST.
//!
//! Used to display transformed programs (inlined, loop-normalised,
//! socket-unfolded), to render slices the way the paper's Figure 1
//! highlights them, and in property tests (`parse ∘ pretty ∘ parse = parse`).

use crate::ast::*;
use std::collections::HashSet;

/// Render an expression as source text.
pub fn expr_to_string(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Int(v) => v.to_string(),
        ExprKind::Bool(b) => b.to_string(),
        ExprKind::Str(s) => format!("{s:?}"),
        ExprKind::Var(v) => v.clone(),
        ExprKind::Field(base, f) => format!("{base}.{}", f.path()),
        ExprKind::Tuple(es) => {
            let inner: Vec<_> = es.iter().map(expr_to_string).collect();
            format!("({})", inner.join(", "))
        }
        ExprKind::Array(es) => {
            let inner: Vec<_> = es.iter().map(expr_to_string).collect();
            format!("[{}]", inner.join(", "))
        }
        ExprKind::Index(b, i) => format!("{}[{}]", expr_to_string(b), expr_to_string(i)),
        ExprKind::Binary(op, a, b) => {
            format!(
                "({} {} {})",
                expr_to_string(a),
                op.symbol(),
                expr_to_string(b)
            )
        }
        ExprKind::Unary(UnOp::Neg, a) => format!("(-{})", expr_to_string(a)),
        ExprKind::Unary(UnOp::Not, a) => format!("(!{})", expr_to_string(a)),
        ExprKind::Call(name, args) => {
            let inner: Vec<_> = args.iter().map(expr_to_string).collect();
            format!("{name}({})", inner.join(", "))
        }
    }
}

fn lvalue_to_string(lv: &LValue) -> String {
    match lv {
        LValue::Var(v) => v.clone(),
        LValue::Index(b, k) => format!("{b}[{}]", expr_to_string(k)),
        LValue::Field(b, f) => format!("{b}.{}", f.path()),
    }
}

/// Options controlling statement rendering.
#[derive(Debug, Clone, Default)]
pub struct RenderOpts {
    /// If set, statements whose id is in this set are prefixed with `>> `
    /// and all others with three spaces — the Figure 1 "highlighted slice"
    /// view.
    pub highlight: Option<HashSet<StmtId>>,
    /// If set, only statements in this set (plus enclosing control
    /// structure) are printed at all — the sliced-program view.
    pub keep_only: Option<HashSet<StmtId>>,
}

struct Printer<'o> {
    out: String,
    indent: usize,
    opts: &'o RenderOpts,
}

impl<'o> Printer<'o> {
    fn line(&mut self, id: Option<StmtId>, text: &str) {
        if let (Some(hl), Some(id)) = (&self.opts.highlight, id) {
            if hl.contains(&id) {
                self.out.push_str(">> ");
            } else {
                self.out.push_str("   ");
            }
        }
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Should this statement be printed under `keep_only`? Control
    /// statements are kept when any nested statement is kept, so the
    /// printed slice stays well-formed.
    fn keeps(&self, s: &Stmt) -> bool {
        let Some(keep) = &self.opts.keep_only else {
            return true;
        };
        if keep.contains(&s.id) {
            return true;
        }
        let mut any = false;
        walk_stmt(s, &mut |inner| {
            if keep.contains(&inner.id) {
                any = true;
            }
        });
        any
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            if !self.keeps(s) {
                continue;
            }
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Let { name, value } => {
                self.line(
                    Some(s.id),
                    &format!("let {name} = {};", expr_to_string(value)),
                );
            }
            StmtKind::Assign { target, value } => {
                self.line(
                    Some(s.id),
                    &format!("{} = {};", lvalue_to_string(target), expr_to_string(value)),
                );
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.line(Some(s.id), &format!("if {} {{", expr_to_string(cond)));
                self.indent += 1;
                self.stmts(then_branch);
                self.indent -= 1;
                if else_branch.is_empty() {
                    self.line(None, "}");
                } else {
                    self.line(None, "} else {");
                    self.indent += 1;
                    self.stmts(else_branch);
                    self.indent -= 1;
                    self.line(None, "}");
                }
            }
            StmtKind::While { cond, body } => {
                self.line(Some(s.id), &format!("while {} {{", expr_to_string(cond)));
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line(None, "}");
            }
            StmtKind::For { var, iter, body } => {
                let head = match iter {
                    ForIter::Range(lo, hi) => format!(
                        "for {var} in {}..{} {{",
                        expr_to_string(lo),
                        expr_to_string(hi)
                    ),
                    ForIter::Array(a) => format!("for {var} in {} {{", expr_to_string(a)),
                };
                self.line(Some(s.id), &head);
                self.indent += 1;
                self.stmts(body);
                self.indent -= 1;
                self.line(None, "}");
            }
            StmtKind::Return(None) => self.line(Some(s.id), "return;"),
            StmtKind::Return(Some(e)) => {
                self.line(Some(s.id), &format!("return {};", expr_to_string(e)))
            }
            StmtKind::Break => self.line(Some(s.id), "break;"),
            StmtKind::Continue => self.line(Some(s.id), "continue;"),
            StmtKind::Expr(e) => self.line(Some(s.id), &format!("{};", expr_to_string(e))),
        }
    }
}

fn walk_stmt<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a Stmt)) {
    f(s);
    match &s.kind {
        StmtKind::If {
            then_branch,
            else_branch,
            ..
        } => {
            for c in then_branch.iter().chain(else_branch) {
                walk_stmt(c, f);
            }
        }
        StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
            for c in body {
                walk_stmt(c, f);
            }
        }
        _ => {}
    }
}

/// Render a whole program as source text with the given options.
pub fn program_to_string_opts(p: &Program, opts: &RenderOpts) -> String {
    let mut pr = Printer {
        out: String::new(),
        indent: 0,
        opts,
    };
    for (kw, items) in [
        ("const", &p.consts),
        ("config", &p.configs),
        ("state", &p.states),
    ] {
        for item in items.iter() {
            pr.line(
                None,
                &format!("{kw} {} = {};", item.name, expr_to_string(&item.init)),
            );
        }
        if !items.is_empty() {
            pr.line(None, "");
        }
    }
    for f in &p.functions {
        let params: Vec<_> = f.params.iter().map(|(n, t)| format!("{n}: {t}")).collect();
        pr.line(None, &format!("fn {}({}) {{", f.name, params.join(", ")));
        pr.indent += 1;
        pr.stmts(&f.body);
        pr.indent -= 1;
        pr.line(None, "}");
        pr.line(None, "");
    }
    pr.out
}

/// Render a whole program with default options.
pub fn program_to_string(p: &Program) -> String {
    program_to_string_opts(p, &RenderOpts::default())
}

/// Count the lines a slice keeps when rendered — Table 2's "LoC (slice)".
///
/// Only *statement* lines count: the declaration preamble (consts,
/// configs, states) is the program's environment, not part of the slice,
/// exactly as the paper's 129-line snort slice excludes its thousands of
/// rule definitions.
pub fn slice_loc(p: &Program, keep: &HashSet<StmtId>) -> usize {
    let opts = RenderOpts {
        keep_only: Some(keep.clone()),
        ..RenderOpts::default()
    };
    program_to_string_opts(p, &opts)
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("fn "))
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && t != "}" && !t.starts_with("} else") && !t.starts_with("fn ")
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    const SRC: &str = r#"
        config LB_PORT = 80;
        state hits = 0;
        fn cb(pkt: packet) {
            if pkt.tcp.dport == LB_PORT {
                hits = hits + 1;
                send(pkt);
            } else {
                return;
            }
        }
        fn main() { sniff(cb); }
    "#;

    #[test]
    fn roundtrip_through_pretty() {
        let p1 = parse(SRC).unwrap();
        let text = program_to_string(&p1);
        let mut p2 = parse(&text).unwrap();
        // Sources differ; structure must not (after normalising ids/spans).
        let mut p1n = p1.clone();
        p1n.renumber();
        p2.renumber();
        p1n.source = String::new();
        p2.source = String::new();
        strip_spans(&mut p1n);
        strip_spans(&mut p2);
        assert_eq!(p1n, p2);
    }

    fn strip_spans(p: &mut Program) {
        fn fix_expr(e: &mut Expr) {
            e.span = Default::default();
            match &mut e.kind {
                ExprKind::Tuple(es) | ExprKind::Array(es) => es.iter_mut().for_each(fix_expr),
                ExprKind::Index(a, b) | ExprKind::Binary(_, a, b) => {
                    fix_expr(a);
                    fix_expr(b);
                }
                ExprKind::Unary(_, a) => fix_expr(a),
                ExprKind::Call(_, args) => args.iter_mut().for_each(fix_expr),
                _ => {}
            }
        }
        fn fix_stmts(stmts: &mut [Stmt]) {
            for s in stmts {
                s.span = Default::default();
                match &mut s.kind {
                    StmtKind::Let { value, .. } => fix_expr(value),
                    StmtKind::Assign { target, value } => {
                        if let LValue::Index(_, k) = target {
                            fix_expr(k);
                        }
                        fix_expr(value);
                    }
                    StmtKind::If {
                        cond,
                        then_branch,
                        else_branch,
                    } => {
                        fix_expr(cond);
                        fix_stmts(then_branch);
                        fix_stmts(else_branch);
                    }
                    StmtKind::While { cond, body } => {
                        fix_expr(cond);
                        fix_stmts(body);
                    }
                    StmtKind::For { iter, body, .. } => {
                        match iter {
                            ForIter::Range(a, b) => {
                                fix_expr(a);
                                fix_expr(b);
                            }
                            ForIter::Array(a) => fix_expr(a),
                        }
                        fix_stmts(body);
                    }
                    StmtKind::Return(Some(e)) | StmtKind::Expr(e) => fix_expr(e),
                    _ => {}
                }
            }
        }
        for item in p
            .consts
            .iter_mut()
            .chain(p.configs.iter_mut())
            .chain(p.states.iter_mut())
        {
            item.span = Default::default();
            fix_expr(&mut item.init);
        }
        for f in &mut p.functions {
            f.span = Default::default();
            fix_stmts(&mut f.body);
        }
    }

    #[test]
    fn highlight_marks_slice_lines() {
        let p = parse(SRC).unwrap();
        let mut ids = Vec::new();
        p.for_each_stmt(|s| ids.push(s.id));
        let hl: HashSet<_> = ids.iter().copied().take(2).collect();
        let text = program_to_string_opts(
            &p,
            &RenderOpts {
                highlight: Some(hl),
                ..Default::default()
            },
        );
        assert!(text.lines().any(|l| l.starts_with(">> ")));
        assert!(text.lines().any(|l| l.starts_with("   ")));
    }

    #[test]
    fn keep_only_retains_enclosing_control() {
        let p = parse(SRC).unwrap();
        // Keep only the innermost `send(pkt);`.
        let mut send_id = None;
        p.for_each_stmt(|s| {
            if let StmtKind::Expr(e) = &s.kind {
                if matches!(&e.kind, ExprKind::Call(n, _) if n == "send") {
                    send_id = Some(s.id);
                }
            }
        });
        let keep: HashSet<_> = [send_id.unwrap()].into_iter().collect();
        let text = program_to_string_opts(
            &p,
            &RenderOpts {
                keep_only: Some(keep.clone()),
                ..Default::default()
            },
        );
        assert!(text.contains("if"), "control structure kept:\n{text}");
        assert!(text.contains("send(pkt)"));
        assert!(
            !text.contains("hits = (hits + 1)"),
            "unrelated statement pruned:\n{text}"
        );
        assert!(slice_loc(&p, &keep) >= 2);
    }

    #[test]
    fn expr_rendering() {
        let e = crate::parser::parse_expr("(a + 1) % len(servers)").unwrap();
        assert_eq!(expr_to_string(&e), "((a + 1) % len(servers))");
    }
}
