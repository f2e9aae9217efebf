//! Structure normalisation — the paper's §3.2 "Code Structure".
//!
//! Figure 4 catalogues four NF program shapes:
//!
//! * **(a) one processing loop** — `while true { pkt = recv(); …; send }`
//! * **(b) callback** — `sniff(iface, callback)`
//! * **(c) consumer-producer** — a read loop feeding a queue drained by a
//!   processing loop in another thread
//! * **(d) nested loops** — an accept loop forking per-connection relay
//!   loops over the socket API
//!
//! The paper: *"The code structure of Figure 4b and 4c are easy to
//! transform into that in Figure 4a. Thus, NFactor can be easily applied
//! into these three kinds."* This module performs those transformations,
//! producing the canonical [`PacketLoop`]: a single per-packet processing
//! function. Shape (d) is rejected with [`StructureError::NestedLoop`];
//! the `nf-tcp` crate's socket unfolding turns it into shape (a) first
//! (Figure 5).

use crate::inline::{inline_program, InlineError};
use nfl_lang::{builtins, Expr, ExprKind, Function, Program, Stmt, StmtKind};
use std::fmt;

/// The canonical normalised form: `program.function(func)` is the
/// per-packet processing body, `pkt_param` its packet parameter — the
/// `pktVar` of Algorithm 1.
#[derive(Debug, Clone, Hash)]
pub struct PacketLoop {
    /// The transformed program (entry calls inlined, ids renumbered).
    pub program: Program,
    /// Name of the per-packet function.
    pub func: String,
    /// Name of its packet parameter.
    pub pkt_param: String,
}

/// Which of the Figure 4 shapes a program has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// Figure 4a.
    OneLoop,
    /// Figure 4b.
    Callback,
    /// Figure 4c.
    ConsumerProducer,
    /// Figure 4d.
    NestedLoop,
    /// None of the four.
    Unknown,
}

/// Errors raised by normalisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StructureError {
    /// Shape (d): run the `nf-tcp` socket unfolding first.
    NestedLoop,
    /// The program's main matches no known NF structure.
    Unrecognised(String),
    /// Inlining failed.
    Inline(String),
}

impl fmt::Display for StructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructureError::NestedLoop => write!(
                f,
                "nested-loop NF (Figure 4d): unfold socket calls with nf-tcp first"
            ),
            StructureError::Unrecognised(m) => write!(f, "unrecognised NF structure: {m}"),
            StructureError::Inline(m) => write!(f, "inlining failed: {m}"),
        }
    }
}

impl std::error::Error for StructureError {}

impl From<InlineError> for StructureError {
    fn from(e: InlineError) -> Self {
        StructureError::Inline(e.to_string())
    }
}

fn is_while_true(s: &Stmt) -> Option<&Vec<Stmt>> {
    if let StmtKind::While { cond, body } = &s.kind {
        if matches!(cond.kind, ExprKind::Bool(true)) {
            return Some(body);
        }
    }
    None
}

fn call_name(e: &Expr) -> Option<(&str, &[Expr])> {
    if let ExprKind::Call(name, args) = &e.kind {
        Some((name.as_str(), args))
    } else {
        None
    }
}

/// Does this statement list (recursively) call a socket builtin?
fn uses_sockets(stmts: &[Stmt]) -> bool {
    let mut found = false;
    fn expr_has_socket(e: &Expr) -> bool {
        e.calls().iter().any(|c| builtins::is_socket(c))
    }
    fn walk(stmts: &[Stmt], found: &mut bool) {
        for s in stmts {
            match &s.kind {
                StmtKind::Let { value, .. } | StmtKind::Return(Some(value))
                    if expr_has_socket(value) =>
                {
                    *found = true;
                }
                StmtKind::Assign { value, .. } if expr_has_socket(value) => {
                    *found = true;
                }
                StmtKind::Expr(e) if expr_has_socket(e) => {
                    *found = true;
                }
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    if expr_has_socket(cond) {
                        *found = true;
                    }
                    walk(then_branch, found);
                    walk(else_branch, found);
                }
                StmtKind::While { cond, body } => {
                    if expr_has_socket(cond) {
                        *found = true;
                    }
                    walk(body, found);
                }
                StmtKind::For { body, .. } => walk(body, found),
                _ => {}
            }
        }
    }
    walk(stmts, &mut found);
    found
}

fn has_nested_while_true(body: &[Stmt]) -> bool {
    let mut found = false;
    fn walk(stmts: &[Stmt], found: &mut bool) {
        for s in stmts {
            if is_while_true(s).is_some() {
                *found = true;
            }
            match &s.kind {
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
    walk(body, &mut found);
    found
}

/// Classify a program's `main` into one of the Figure 4 shapes.
pub fn detect_structure(program: &Program) -> Structure {
    let Some(main) = program.function("main") else {
        return Structure::Unknown;
    };
    // (b) callback: a sniff(...) call anywhere in main.
    let sniffs = main
        .body
        .iter()
        .filter_map(|s| {
            if let StmtKind::Expr(e) = &s.kind {
                call_name(e).filter(|(n, _)| *n == "sniff")
            } else {
                None
            }
        })
        .count();
    if sniffs == 1 {
        return Structure::Callback;
    }
    // (c) consumer-producer: two or more spawn(...) calls.
    let spawns: Vec<&str> = main
        .body
        .iter()
        .filter_map(|s| {
            if let StmtKind::Expr(e) = &s.kind {
                if let Some(("spawn", args)) = call_name(e) {
                    if let Some(ExprKind::Var(f)) = args.first().map(|a| &a.kind) {
                        return Some(f.as_str());
                    }
                }
            }
            None
        })
        .collect();
    if spawns.len() >= 2 {
        return Structure::ConsumerProducer;
    }
    // (a)/(d): a top-level while-true loop.
    for s in &main.body {
        if let Some(body) = is_while_true(s) {
            if has_nested_while_true(body) && uses_sockets(body) {
                return Structure::NestedLoop;
            }
            return Structure::OneLoop;
        }
    }
    Structure::Unknown
}

/// The name given to the synthesised per-packet function.
pub const PROCESS_FN: &str = "__process";

fn synth_process_fn(pkt_param: &str, body: Vec<Stmt>) -> Function {
    Function {
        name: PROCESS_FN.to_string(),
        params: vec![(pkt_param.to_string(), "packet".to_string())],
        body,
        span: Default::default(),
    }
}

/// Normalise `program` into the canonical per-packet [`PacketLoop`],
/// applying the Figure 4b/4c→4a transformations and inlining all user
/// calls inside the processing function.
pub fn normalize(program: &Program) -> Result<PacketLoop, StructureError> {
    let structure = detect_structure(program);
    let (mut prog, func, pkt_param) = match structure {
        Structure::Callback => normalize_callback(program)?,
        Structure::OneLoop => normalize_one_loop(program)?,
        Structure::ConsumerProducer => normalize_consumer_producer(program)?,
        Structure::NestedLoop => return Err(StructureError::NestedLoop),
        Structure::Unknown => {
            return Err(StructureError::Unrecognised(
                "main has no sniff/spawn/processing loop".into(),
            ))
        }
    };
    prog.renumber();
    let inlined = inline_program(&prog, &func)?;
    Ok(PacketLoop {
        program: inlined,
        func,
        pkt_param,
    })
}

/// (b) `sniff(cb)` — the callback *is* the per-packet function.
fn normalize_callback(program: &Program) -> Result<(Program, String, String), StructureError> {
    let main = program.function("main").expect("detected");
    for s in &main.body {
        if let StmtKind::Expr(e) = &s.kind {
            if let Some(("sniff", args)) = call_name(e) {
                let ExprKind::Var(cb) = &args[0].kind else {
                    return Err(StructureError::Unrecognised(
                        "sniff callback must be a function name".into(),
                    ));
                };
                let f = program.function(cb).ok_or_else(|| {
                    StructureError::Unrecognised(format!("unknown callback `{cb}`"))
                })?;
                let pkt_param = f.params.first().map(|(n, _)| n.clone()).ok_or_else(|| {
                    StructureError::Unrecognised("callback takes no packet".into())
                })?;
                return Ok((program.clone(), cb.clone(), pkt_param));
            }
        }
    }
    unreachable!("detect_structure said Callback")
}

/// (a) `while true { let pkt = recv(); … }` — hoist the loop body into a
/// fresh function parameterised by the packet.
fn normalize_one_loop(program: &Program) -> Result<(Program, String, String), StructureError> {
    let main = program.function("main").expect("detected");
    for s in &main.body {
        if let Some(body) = is_while_true(s) {
            let Some(first) = body.first() else {
                return Err(StructureError::Unrecognised("empty processing loop".into()));
            };
            let StmtKind::Let { name, value } = &first.kind else {
                return Err(StructureError::Unrecognised(
                    "processing loop must start with `let pkt = recv();`".into(),
                ));
            };
            if !matches!(call_name(value), Some(("recv", _))) {
                return Err(StructureError::Unrecognised(
                    "processing loop must start with `let pkt = recv();`".into(),
                ));
            }
            let mut prog = program.clone();
            prog.functions
                .push(synth_process_fn(name, body[1..].to_vec()));
            return Ok((prog, PROCESS_FN.to_string(), name.clone()));
        }
    }
    unreachable!("detect_structure said OneLoop")
}

/// (c) `spawn(read_loop); spawn(proc_loop);` — fuse the producer (recv +
/// q_push) with the consumer (q_pop + process) into a single per-packet
/// function, eliding the queue: the consumer's popped packet becomes the
/// function parameter.
fn normalize_consumer_producer(
    program: &Program,
) -> Result<(Program, String, String), StructureError> {
    let main = program.function("main").expect("detected");
    let mut producer: Option<&Function> = None;
    let mut consumer: Option<&Function> = None;
    for s in &main.body {
        if let StmtKind::Expr(e) = &s.kind {
            if let Some(("spawn", args)) = call_name(e) {
                if let ExprKind::Var(fname) = &args[0].kind {
                    let f = program.function(fname).ok_or_else(|| {
                        StructureError::Unrecognised(format!("unknown thread body `{fname}`"))
                    })?;
                    let text = nfl_lang::pretty::program_to_string(&Program {
                        functions: vec![f.clone()],
                        ..Program::default()
                    });
                    if text.contains("q_push") && text.contains("recv") {
                        producer = Some(f);
                    } else if text.contains("q_pop") {
                        consumer = Some(f);
                    }
                }
            }
        }
    }
    let (Some(_producer), Some(consumer)) = (producer, consumer) else {
        return Err(StructureError::Unrecognised(
            "consumer-producer needs a recv+q_push loop and a q_pop loop".into(),
        ));
    };
    // Consumer shape: while true { let pkt = q_pop(q); … }  (or a bare
    // body with the pop first).
    let body = consumer
        .body
        .iter()
        .find_map(is_while_true)
        .map(|b| b.as_slice())
        .unwrap_or(&consumer.body);
    let Some(first) = body.first() else {
        return Err(StructureError::Unrecognised("empty consumer loop".into()));
    };
    let StmtKind::Let { name, value } = &first.kind else {
        return Err(StructureError::Unrecognised(
            "consumer loop must start with `let pkt = q_pop(q);`".into(),
        ));
    };
    if !matches!(call_name(value), Some(("q_pop", _))) {
        return Err(StructureError::Unrecognised(
            "consumer loop must start with `let pkt = q_pop(q);`".into(),
        ));
    }
    let mut prog = program.clone();
    prog.functions
        .push(synth_process_fn(name, body[1..].to_vec()));
    Ok((prog, PROCESS_FN.to_string(), name.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_lang::parse;

    const CALLBACK_SRC: &str = r#"
        state hits = 0;
        fn cb(pkt: packet) {
            hits = hits + 1;
            send(pkt);
        }
        fn main() { sniff(cb, "eth0"); }
    "#;

    const ONE_LOOP_SRC: &str = r#"
        state hits = 0;
        fn main() {
            while true {
                let pkt = recv("eth0");
                hits = hits + 1;
                send(pkt);
            }
        }
    "#;

    const CONSUMER_PRODUCER_SRC: &str = r#"
        state q = queue();
        state hits = 0;
        fn read_loop() {
            while true {
                let pkt = recv();
                q_push(q, pkt);
            }
        }
        fn proc_loop() {
            while true {
                let pkt = q_pop(q);
                hits = hits + 1;
                send(pkt);
            }
        }
        fn main() { spawn(read_loop); spawn(proc_loop); }
    "#;

    const NESTED_SRC: &str = r#"
        state idx = 0;
        config servers = [(1.1.1.1, 80)];
        fn main() {
            let lfd = listen(80);
            while true {
                let cfd = accept(lfd);
                let srv = servers[idx];
                idx = (idx + 1) % len(servers);
                if fork() == 0 {
                    let sfd = connect(srv[0], srv[1]);
                    while true {
                        let which = select2(cfd, sfd);
                        if which == 0 {
                            let buf = sock_read(cfd);
                            sock_write(sfd, buf);
                        } else {
                            let buf = sock_read(sfd);
                            sock_write(cfd, buf);
                        }
                    }
                }
            }
        }
    "#;

    #[test]
    fn detects_all_four_shapes() {
        assert_eq!(
            detect_structure(&parse(CALLBACK_SRC).unwrap()),
            Structure::Callback
        );
        assert_eq!(
            detect_structure(&parse(ONE_LOOP_SRC).unwrap()),
            Structure::OneLoop
        );
        assert_eq!(
            detect_structure(&parse(CONSUMER_PRODUCER_SRC).unwrap()),
            Structure::ConsumerProducer
        );
        assert_eq!(
            detect_structure(&parse(NESTED_SRC).unwrap()),
            Structure::NestedLoop
        );
    }

    #[test]
    fn callback_normalises_to_its_function() {
        let pl = normalize(&parse(CALLBACK_SRC).unwrap()).unwrap();
        assert_eq!(pl.func, "cb");
        assert_eq!(pl.pkt_param, "pkt");
        assert!(pl.program.function("cb").is_some());
    }

    #[test]
    fn one_loop_hoists_body() {
        let pl = normalize(&parse(ONE_LOOP_SRC).unwrap()).unwrap();
        assert_eq!(pl.func, PROCESS_FN);
        assert_eq!(pl.pkt_param, "pkt");
        let f = pl.program.function(PROCESS_FN).unwrap();
        // recv() stripped; processing + send remain.
        let text = nfl_lang::pretty::program_to_string(&pl.program);
        assert!(text.contains("send(pkt)"), "{text}");
        assert_eq!(f.params[0].0, "pkt");
        assert!(
            !format!("{:?}", f.body).contains("recv"),
            "recv removed from per-packet body"
        );
    }

    #[test]
    fn consumer_producer_fuses_queue_away() {
        let pl = normalize(&parse(CONSUMER_PRODUCER_SRC).unwrap()).unwrap();
        assert_eq!(pl.func, PROCESS_FN);
        let f = pl.program.function(PROCESS_FN).unwrap();
        let body_dbg = format!("{:?}", f.body);
        assert!(!body_dbg.contains("q_pop"), "queue elided");
        assert!(body_dbg.contains("send"));
    }

    #[test]
    fn nested_loop_rejected_with_guidance() {
        assert!(matches!(
            normalize(&parse(NESTED_SRC).unwrap()),
            Err(StructureError::NestedLoop)
        ));
    }

    #[test]
    fn unknown_structure_rejected() {
        let p = parse("fn main() { let x = 1; }").unwrap();
        assert!(matches!(
            normalize(&p),
            Err(StructureError::Unrecognised(_))
        ));
    }

    #[test]
    fn normalized_callback_with_helpers_is_inlined() {
        let src = r#"
            state hits = 0;
            fn bump() { hits = hits + 1; }
            fn cb(pkt: packet) {
                bump();
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let pl = normalize(&parse(src).unwrap()).unwrap();
        let text = nfl_lang::pretty::program_to_string(&pl.program);
        let f_text: String = text
            .lines()
            .skip_while(|l| !l.contains("fn cb"))
            .take_while(|l| !l.starts_with('}'))
            .collect();
        assert!(!f_text.contains("bump()"), "helper inlined:\n{text}");
    }
}
