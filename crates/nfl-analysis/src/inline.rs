//! Function inlining.
//!
//! NFactor's dependence analyses are intraprocedural over the single
//! packet-processing function (the paper's giri handles interprocedural
//! slicing; we get the same effect more simply by inlining every user
//! call into the entry function — NF helpers are small, non-recursive and
//! called at one or two sites).
//!
//! Mechanics: each user call site is replaced by the callee's body with
//! parameters bound to `let` copies of the arguments and locals
//! α-renamed (`__<callee><n>_…`). A call in expression position stores
//! the callee's return value in a fresh temporary. Early `return`s are
//! compiled with a *completion guard*: the callee body sets
//! `__<callee><n>_done = true` and every statement after a potential
//! return point is wrapped in `if !done { … }`, preserving semantics
//! without gotos.

use nfl_lang::{builtins, Expr, ExprKind, ForIter, Function, LValue, Program, Stmt, StmtKind};
use std::collections::HashSet;
use std::fmt;

/// Errors the inliner can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InlineError {
    /// Direct or mutual recursion — not allowed in NFL.
    Recursion(String),
    /// Call to an undefined function.
    Unknown(String),
}

impl fmt::Display for InlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InlineError::Recursion(n) => write!(f, "recursive call to `{n}` cannot be inlined"),
            InlineError::Unknown(n) => write!(f, "call to unknown function `{n}`"),
        }
    }
}

impl std::error::Error for InlineError {}

struct Inliner<'p> {
    program: &'p Program,
    counter: u32,
    stack: Vec<String>,
}

impl<'p> Inliner<'p> {
    /// Rewrite an expression, extracting user calls into `pre` statements
    /// and replacing them with temp variables.
    fn rewrite_expr(&mut self, e: &Expr, pre: &mut Vec<Stmt>) -> Result<Expr, InlineError> {
        let kind = match &e.kind {
            ExprKind::Call(name, args) if builtins::lookup(name).is_none() => {
                // User call: rewrite args first (they may contain calls).
                let mut new_args = Vec::new();
                for a in args {
                    new_args.push(self.rewrite_expr(a, pre)?);
                }
                let ret_var = self.inline_call(name, &new_args, pre)?;
                ExprKind::Var(ret_var)
            }
            ExprKind::Call(name, args) => {
                let mut new_args = Vec::new();
                for a in args {
                    new_args.push(self.rewrite_expr(a, pre)?);
                }
                ExprKind::Call(name.clone(), new_args)
            }
            ExprKind::Tuple(es) => ExprKind::Tuple(
                es.iter()
                    .map(|x| self.rewrite_expr(x, pre))
                    .collect::<Result<_, _>>()?,
            ),
            ExprKind::Array(es) => ExprKind::Array(
                es.iter()
                    .map(|x| self.rewrite_expr(x, pre))
                    .collect::<Result<_, _>>()?,
            ),
            ExprKind::Index(a, b) => ExprKind::Index(
                Box::new(self.rewrite_expr(a, pre)?),
                Box::new(self.rewrite_expr(b, pre)?),
            ),
            ExprKind::Binary(op, a, b) => ExprKind::Binary(
                *op,
                Box::new(self.rewrite_expr(a, pre)?),
                Box::new(self.rewrite_expr(b, pre)?),
            ),
            ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(self.rewrite_expr(a, pre)?)),
            other => other.clone(),
        };
        Ok(Expr { kind, span: e.span })
    }

    /// Inline a call to `name` with already-rewritten `args`. Emits the
    /// inlined body into `pre` and returns the name of the variable that
    /// holds the return value.
    fn inline_call(
        &mut self,
        name: &str,
        args: &[Expr],
        pre: &mut Vec<Stmt>,
    ) -> Result<String, InlineError> {
        if self.stack.iter().any(|f| f == name) {
            return Err(InlineError::Recursion(name.to_string()));
        }
        let callee: &Function = self
            .program
            .function(name)
            .ok_or_else(|| InlineError::Unknown(name.to_string()))?;
        self.stack.push(name.to_string());

        let tag = {
            self.counter += 1;
            format!("__{name}{}", self.counter)
        };
        let ret_var = format!("{tag}_ret");
        let done_var = format!("{tag}_done");

        // Parameter bindings.
        for ((pname, _), arg) in callee.params.iter().zip(args) {
            pre.push(synth_stmt(StmtKind::Let {
                name: format!("{tag}_{pname}"),
                value: arg.clone(),
            }));
        }
        // Return slot + guard. (Initialised to 0/false; type checker runs
        // before inlining, so the Unknown-typed slot is harmless.)
        pre.push(synth_stmt(StmtKind::Let {
            name: ret_var.clone(),
            value: Expr::synthetic(ExprKind::Int(0)),
        }));
        pre.push(synth_stmt(StmtKind::Let {
            name: done_var.clone(),
            value: Expr::synthetic(ExprKind::Bool(false)),
        }));

        // Rename locals and compile returns.
        let renames: HashSet<String> = callee.params.iter().map(|(p, _)| p.clone()).collect();
        let mut body = self.rewrite_body(&callee.body, &tag, &renames, &ret_var, &done_var)?;
        pre.append(&mut body);

        self.stack.pop();
        Ok(ret_var)
    }

    /// Rewrite a callee body: α-rename locals/params with `tag`, replace
    /// `return` with ret/done assignments, guard trailing statements, and
    /// recursively inline nested calls.
    fn rewrite_body(
        &mut self,
        stmts: &[Stmt],
        tag: &str,
        renamed: &HashSet<String>,
        ret_var: &str,
        done_var: &str,
    ) -> Result<Vec<Stmt>, InlineError> {
        let mut renamed = renamed.clone();
        self.rewrite_body_inner(stmts, tag, &mut renamed, ret_var, done_var)
    }

    /// Worker for [`Inliner::rewrite_body`]. After a statement that may
    /// have executed a `return` (set the `done` flag), the remainder of
    /// the block is wrapped in `if done == false { … }` — built by
    /// recursing on the statement tail.
    fn rewrite_body_inner(
        &mut self,
        stmts: &[Stmt],
        tag: &str,
        renamed: &mut HashSet<String>,
        ret_var: &str,
        done_var: &str,
    ) -> Result<Vec<Stmt>, InlineError> {
        let mut out: Vec<Stmt> = Vec::new();
        for (i, s) in stmts.iter().enumerate() {
            let (new_stmts, may_return) = self.rewrite_stmt(s, tag, renamed, ret_var, done_var)?;
            out.extend(new_stmts);
            if may_return && i + 1 < stmts.len() {
                let rest =
                    self.rewrite_body_inner(&stmts[i + 1..], tag, renamed, ret_var, done_var)?;
                out.push(synth_stmt(StmtKind::If {
                    cond: Expr::synthetic(ExprKind::Binary(
                        nfl_lang::BinOp::Eq,
                        Box::new(Expr::synthetic(ExprKind::Var(done_var.to_string()))),
                        Box::new(Expr::synthetic(ExprKind::Bool(false))),
                    )),
                    then_branch: rest,
                    else_branch: Vec::new(),
                }));
                return Ok(out);
            }
        }
        Ok(out)
    }

    /// Rewrite one statement of a callee body. Returns the replacement
    /// statements and whether the statement may have executed a `return`.
    fn rewrite_stmt(
        &mut self,
        s: &Stmt,
        tag: &str,
        renamed: &mut HashSet<String>,
        ret_var: &str,
        done_var: &str,
    ) -> Result<(Vec<Stmt>, bool), InlineError> {
        let rn = |name: &str, renamed: &HashSet<String>| -> String {
            if renamed.contains(name) {
                format!("{tag}_{name}")
            } else {
                name.to_string()
            }
        };
        let mut pre: Vec<Stmt> = Vec::new();
        let result = match &s.kind {
            StmtKind::Let { name, value } => {
                let v = self.rewrite_expr(&rename_expr(value, tag, renamed), &mut pre)?;
                renamed.insert(name.clone());
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::Let {
                        name: rn(name, renamed),
                        value: v,
                    },
                });
                (pre, false)
            }
            StmtKind::Assign { target, value } => {
                let v = self.rewrite_expr(&rename_expr(value, tag, renamed), &mut pre)?;
                let t = match target {
                    LValue::Var(x) => LValue::Var(rn(x, renamed)),
                    LValue::Index(b, k) => LValue::Index(
                        rn(b, renamed),
                        self.rewrite_expr(&rename_expr(k, tag, renamed), &mut pre)?,
                    ),
                    LValue::Field(b, f) => LValue::Field(rn(b, renamed), *f),
                };
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::Assign {
                        target: t,
                        value: v,
                    },
                });
                (pre, false)
            }
            StmtKind::Return(val) => {
                if let Some(v) = val {
                    let v = self.rewrite_expr(&rename_expr(v, tag, renamed), &mut pre)?;
                    pre.push(synth_stmt(StmtKind::Assign {
                        target: LValue::Var(ret_var.to_string()),
                        value: v,
                    }));
                }
                pre.push(synth_stmt(StmtKind::Assign {
                    target: LValue::Var(done_var.to_string()),
                    value: Expr::synthetic(ExprKind::Bool(true)),
                }));
                (pre, true)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.rewrite_expr(&rename_expr(cond, tag, renamed), &mut pre)?;
                let t = self.rewrite_body(then_branch, tag, renamed, ret_var, done_var)?;
                let e = self.rewrite_body(else_branch, tag, renamed, ret_var, done_var)?;
                let may_ret = contains_return(then_branch) || contains_return(else_branch);
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::If {
                        cond: c,
                        then_branch: t,
                        else_branch: e,
                    },
                });
                (pre, may_ret)
            }
            StmtKind::While { cond, body } => {
                let c = self.rewrite_expr(&rename_expr(cond, tag, renamed), &mut pre)?;
                let b = self.rewrite_body(body, tag, renamed, ret_var, done_var)?;
                let may_ret = contains_return(body);
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::While { cond: c, body: b },
                });
                (pre, may_ret)
            }
            StmtKind::For { var, iter, body } => {
                let it = match iter {
                    ForIter::Range(lo, hi) => ForIter::Range(
                        self.rewrite_expr(&rename_expr(lo, tag, renamed), &mut pre)?,
                        self.rewrite_expr(&rename_expr(hi, tag, renamed), &mut pre)?,
                    ),
                    ForIter::Array(a) => {
                        ForIter::Array(self.rewrite_expr(&rename_expr(a, tag, renamed), &mut pre)?)
                    }
                };
                renamed.insert(var.clone());
                let b = self.rewrite_body(body, tag, renamed, ret_var, done_var)?;
                let may_ret = contains_return(body);
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::For {
                        var: rn(var, renamed),
                        iter: it,
                        body: b,
                    },
                });
                (pre, may_ret)
            }
            StmtKind::Break | StmtKind::Continue => {
                pre.push(s.clone());
                (pre, false)
            }
            StmtKind::Expr(e) => {
                let v = self.rewrite_expr(&rename_expr(e, tag, renamed), &mut pre)?;
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::Expr(v),
                });
                (pre, false)
            }
        };
        Ok(result)
    }
}

fn contains_return(stmts: &[Stmt]) -> bool {
    let mut found = false;
    fn walk(stmts: &[Stmt], found: &mut bool) {
        for s in stmts {
            match &s.kind {
                StmtKind::Return(_) => *found = true,
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    walk(then_branch, found);
                    walk(else_branch, found);
                }
                StmtKind::While { body, .. } | StmtKind::For { body, .. } => walk(body, found),
                _ => {}
            }
        }
    }
    walk(stmts, &mut found);
    found
}

/// α-rename variables in an expression according to the callee's local
/// set.
fn rename_expr(e: &Expr, tag: &str, renamed: &HashSet<String>) -> Expr {
    let kind = match &e.kind {
        ExprKind::Var(v) if renamed.contains(v) => ExprKind::Var(format!("{tag}_{v}")),
        ExprKind::Field(b, f) if renamed.contains(b) => ExprKind::Field(format!("{tag}_{b}"), *f),
        ExprKind::Tuple(es) => {
            ExprKind::Tuple(es.iter().map(|x| rename_expr(x, tag, renamed)).collect())
        }
        ExprKind::Array(es) => {
            ExprKind::Array(es.iter().map(|x| rename_expr(x, tag, renamed)).collect())
        }
        ExprKind::Index(a, b) => ExprKind::Index(
            Box::new(rename_expr(a, tag, renamed)),
            Box::new(rename_expr(b, tag, renamed)),
        ),
        ExprKind::Binary(op, a, b) => ExprKind::Binary(
            *op,
            Box::new(rename_expr(a, tag, renamed)),
            Box::new(rename_expr(b, tag, renamed)),
        ),
        ExprKind::Unary(op, a) => ExprKind::Unary(*op, Box::new(rename_expr(a, tag, renamed))),
        ExprKind::Call(n, args) => ExprKind::Call(
            n.clone(),
            args.iter().map(|x| rename_expr(x, tag, renamed)).collect(),
        ),
        other => other.clone(),
    };
    Expr { kind, span: e.span }
}

fn synth_stmt(kind: StmtKind) -> Stmt {
    Stmt {
        id: nfl_lang::StmtId(u32::MAX),
        span: Default::default(),
        kind,
    }
}

/// Inline every user-function call inside `entry`, producing a program
/// whose `entry` function is self-contained. Other functions are retained
/// (the normaliser may need them) but `entry`'s body no longer calls them.
/// Statement ids are renumbered.
pub fn inline_program(program: &Program, entry: &str) -> Result<Program, InlineError> {
    let f = program
        .function(entry)
        .ok_or_else(|| InlineError::Unknown(entry.to_string()))?;
    let mut inliner = Inliner {
        program,
        counter: 0,
        stack: vec![entry.to_string()],
    };
    let mut new_body: Vec<Stmt> = Vec::new();
    let renamed = HashSet::new();
    // The entry function's own returns keep their meaning (end of packet
    // processing = implicit drop), so we do NOT guard them: rewrite with a
    // dummy ret/done that is never consulted, then restore plain returns.
    for s in &f.body {
        let (stmts, _) = inliner.rewrite_entry_stmt(s, &renamed)?;
        new_body.extend(stmts);
    }
    let mut out = program.clone();
    let fm = out
        .functions
        .iter_mut()
        .find(|g| g.name == entry)
        .expect("entry exists");
    fm.body = new_body;
    out.renumber();
    Ok(out)
}

impl<'p> Inliner<'p> {
    /// Entry-function statements: nested calls are inlined but `return`
    /// keeps its original semantics.
    fn rewrite_entry_stmt(
        &mut self,
        s: &Stmt,
        _renamed: &HashSet<String>,
    ) -> Result<(Vec<Stmt>, bool), InlineError> {
        let mut pre = Vec::new();
        match &s.kind {
            StmtKind::Return(v) => {
                let v = match v {
                    Some(e) => Some(self.rewrite_expr(e, &mut pre)?),
                    None => None,
                };
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::Return(v),
                });
                Ok((pre, false))
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.rewrite_expr(cond, &mut pre)?;
                let mut t = Vec::new();
                for cs in then_branch {
                    t.extend(self.rewrite_entry_stmt(cs, _renamed)?.0);
                }
                let mut e = Vec::new();
                for cs in else_branch {
                    e.extend(self.rewrite_entry_stmt(cs, _renamed)?.0);
                }
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::If {
                        cond: c,
                        then_branch: t,
                        else_branch: e,
                    },
                });
                Ok((pre, false))
            }
            StmtKind::While { cond, body } => {
                let c = self.rewrite_expr(cond, &mut pre)?;
                let mut b = Vec::new();
                for cs in body {
                    b.extend(self.rewrite_entry_stmt(cs, _renamed)?.0);
                }
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::While { cond: c, body: b },
                });
                Ok((pre, false))
            }
            StmtKind::For { var, iter, body } => {
                let it = match iter {
                    ForIter::Range(lo, hi) => ForIter::Range(
                        self.rewrite_expr(lo, &mut pre)?,
                        self.rewrite_expr(hi, &mut pre)?,
                    ),
                    ForIter::Array(a) => ForIter::Array(self.rewrite_expr(a, &mut pre)?),
                };
                let mut b = Vec::new();
                for cs in body {
                    b.extend(self.rewrite_entry_stmt(cs, _renamed)?.0);
                }
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::For {
                        var: var.clone(),
                        iter: it,
                        body: b,
                    },
                });
                Ok((pre, false))
            }
            StmtKind::Let { name, value } => {
                let v = self.rewrite_expr(value, &mut pre)?;
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::Let {
                        name: name.clone(),
                        value: v,
                    },
                });
                Ok((pre, false))
            }
            StmtKind::Assign { target, value } => {
                let v = self.rewrite_expr(value, &mut pre)?;
                let t = match target {
                    LValue::Index(b, k) => {
                        LValue::Index(b.clone(), self.rewrite_expr(k, &mut pre)?)
                    }
                    other => other.clone(),
                };
                pre.push(Stmt {
                    id: s.id,
                    span: s.span,
                    kind: StmtKind::Assign {
                        target: t,
                        value: v,
                    },
                });
                Ok((pre, false))
            }
            StmtKind::Expr(e) => {
                let v = self.rewrite_expr(e, &mut pre)?;
                // A bare user call has been replaced by its body; the
                // leftover `__ret` var read is dropped if it is a pure var.
                if !matches!(v.kind, ExprKind::Var(_)) {
                    pre.push(Stmt {
                        id: s.id,
                        span: s.span,
                        kind: StmtKind::Expr(v),
                    });
                }
                Ok((pre, false))
            }
            StmtKind::Break | StmtKind::Continue => {
                pre.push(s.clone());
                Ok((pre, false))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_lang::parse;

    #[test]
    fn simple_call_inlined() {
        let p = parse(
            r#"
            fn helper(x: int) { return x + 1; }
            fn main() { let y = helper(41); send_result(y); }
            fn send_result(v: int) { log(v); }
        "#,
        )
        .unwrap();
        let q = inline_program(&p, "main").unwrap();
        let body = &q.function("main").unwrap().body;
        let text = nfl_lang::pretty::program_to_string(&q);
        assert!(
            !text.contains("helper(41)"),
            "call replaced by body:\n{text}"
        );
        assert!(text.contains("+ 1"), "callee arithmetic present:\n{text}");
        assert!(body.len() > 2);
    }

    #[test]
    fn early_return_guarded() {
        let p = parse(
            r#"
            fn classify(x: int) {
                if x > 10 { return 1; }
                log(x);
                return 0;
            }
            fn main() { let c = classify(5); }
        "#,
        )
        .unwrap();
        let q = inline_program(&p, "main").unwrap();
        let text = nfl_lang::pretty::program_to_string(&q);
        assert!(
            text.contains("_done = true"),
            "early return sets guard:\n{text}"
        );
        assert!(
            text.contains("_done == false"),
            "trailing code guarded:\n{text}"
        );
    }

    #[test]
    fn recursion_rejected() {
        let p = parse(
            r#"
            fn loopy(x: int) { let y = loopy(x); return y; }
            fn main() { let z = loopy(1); }
        "#,
        )
        .unwrap();
        assert!(matches!(
            inline_program(&p, "main"),
            Err(InlineError::Recursion(_))
        ));
    }

    #[test]
    fn nested_calls_inlined() {
        let p = parse(
            r#"
            fn inner(x: int) { return x * 2; }
            fn outer(x: int) { return inner(x) + 1; }
            fn main() { let r = outer(10); }
        "#,
        )
        .unwrap();
        let q = inline_program(&p, "main").unwrap();
        let text = nfl_lang::pretty::program_to_string(&q);
        let main_text: String = text
            .lines()
            .skip_while(|l| !l.contains("fn main"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!main_text.contains("outer("), "{main_text}");
        assert!(!main_text.contains("inner("), "{main_text}");
        assert!(main_text.contains("* 2"), "{main_text}");
    }

    #[test]
    fn locals_alpha_renamed() {
        let p = parse(
            r#"
            fn helper(x: int) { let t = x + 1; return t; }
            fn main() { let t = 100; let u = helper(t); let check = t; }
        "#,
        )
        .unwrap();
        let q = inline_program(&p, "main").unwrap();
        let text = nfl_lang::pretty::program_to_string(&q);
        // The caller's `t` must survive: the callee's `t` is renamed.
        assert!(text.contains("let t = 100;"), "{text}");
        assert!(text.contains("_t ="), "renamed callee local:\n{text}");
    }

    #[test]
    fn ids_renumbered_dense() {
        let p = parse(
            r#"
            fn helper(x: int) { return x; }
            fn main() { let a = helper(1); let b = helper(2); }
        "#,
        )
        .unwrap();
        let q = inline_program(&p, "main").unwrap();
        let mut ids = Vec::new();
        q.for_each_stmt(|s| ids.push(s.id.0));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..ids.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn entry_return_not_guarded() {
        let p = parse(
            r#"
            fn main() {
                let pkt = recv();
                if pkt.tcp.dport != 80 { return; }
                send(pkt);
            }
        "#,
        )
        .unwrap();
        let q = inline_program(&p, "main").unwrap();
        let text = nfl_lang::pretty::program_to_string(&q);
        assert!(text.contains("return;"), "{text}");
        assert!(!text.contains("_done"), "{text}");
    }
}
