//! The interpreter's observable semantics, pinned on small programs:
//! how a name resolves (a function's flat scope, a local shadowing a
//! global once its `let` has run), what each call's frame holds, and
//! which error a failing expression raises when several could.

use nf_packet::wire::{parse_ipv4, TcpFlags};
use nf_packet::Packet;
use nfl_analysis::normalize::{normalize, PacketLoop};
use nfl_interp::{Interp, RuntimeError, Value};
use nfl_lang::{parse, parse_and_check};

fn tcp_to(port: u16) -> Packet {
    Packet::tcp(
        parse_ipv4("10.0.0.1").unwrap(),
        1234,
        parse_ipv4("3.3.3.3").unwrap(),
        port,
        TcpFlags::syn(),
    )
}

/// A checked, normalised program.
fn interp_of(src: &str) -> Interp {
    let p = parse_and_check(src).unwrap();
    Interp::new(&normalize(&p).unwrap()).unwrap()
}

/// The packet function `cb` of `src`, neither checked nor inlined:
/// only the interpreter stands between the program and a packet.
fn packet_loop(program: nfl_lang::Program) -> PacketLoop {
    PacketLoop {
        program,
        func: "cb".into(),
        pkt_param: "pkt".into(),
    }
}

fn unchecked(src: &str) -> Result<Interp, RuntimeError> {
    Interp::new(&packet_loop(parse(src).unwrap()))
}

fn int(i: &Interp, name: &str) -> i64 {
    match i.global(name) {
        Some(Value::Int(v)) => *v,
        other => panic!("{name} = {other:?}"),
    }
}

#[test]
fn a_local_shadows_its_global_only_once_its_let_has_run() {
    let mut i = interp_of(
        r#"
        state x = 5;
        state y = 0;
        fn cb(pkt: packet) {
            y = x;
            if pkt.tcp.dport == 80 {
                let x = 1;
                x = x + 10;
                y = y + x;
            }
            x = x + 1;
            send(pkt);
        }
        fn main() { sniff(cb); }
        "#,
    );
    // Taken: `y = x` reads the global, the `let` binds a local that the
    // rest of the function reads and writes, and the global is untouched.
    i.process(&tcp_to(80)).unwrap();
    assert_eq!((int(&i, "x"), int(&i, "y")), (5, 5 + 11));
    // Untaken, in a fresh frame: the last statement writes the global.
    i.process(&tcp_to(81)).unwrap();
    assert_eq!((int(&i, "x"), int(&i, "y")), (6, 5));
    i.revert();
    assert_eq!((int(&i, "x"), int(&i, "y")), (5, 16));
}

#[test]
fn a_let_that_did_not_run_leaves_its_name_unbound() {
    let src = r#"
        state y = 0;
        fn cb(pkt: packet) {
            if pkt.tcp.dport == 80 {
                let z = 3;
            }
            y = z;
            send(pkt);
        }
        fn main() { sniff(cb); }
    "#;
    // The checker's scope is flat per function, so it accepts the read.
    let mut i = interp_of(src);
    assert_eq!(
        i.process(&tcp_to(81)).unwrap_err(),
        RuntimeError::Unbound("z".into())
    );
    i.revert();
    i.process(&tcp_to(80)).unwrap();
    assert_eq!(int(&i, "y"), 3);
    // A binding does not outlive its packet.
    assert_eq!(
        i.process(&tcp_to(81)).unwrap_err(),
        RuntimeError::Unbound("z".into())
    );
}

#[test]
fn a_global_initialiser_sees_only_earlier_globals() {
    const CB: &str = "fn cb(pkt: packet) { send(pkt); } fn main() { sniff(cb); }";
    let later = format!("state a = b + 1; state b = 2; {CB}");
    assert_eq!(
        unchecked(&later).unwrap_err(),
        RuntimeError::Unbound("b".into())
    );
    // Configs initialise before states, whatever the source order.
    let config = format!("state s = 1; config c = s; {CB}");
    assert_eq!(
        unchecked(&config).unwrap_err(),
        RuntimeError::Unbound("s".into())
    );
    // A helper the initialiser calls is no way round it.
    let helper = format!("state a = peek(); state b = 2; fn peek() {{ return b; }} {CB}");
    assert_eq!(
        unchecked(&helper).unwrap_err(),
        RuntimeError::Unbound("b".into())
    );
    let earlier = format!("state b = 2; state a = b + 1; {CB}");
    assert_eq!(int(&unchecked(&earlier).unwrap(), "a"), 3);
}

#[test]
fn each_call_of_a_helper_runs_in_a_fresh_frame() {
    // Not inlined, so `helper` runs as a call.
    let program = parse_and_check(
        r#"
        state g = 100;
        state calls = 0;
        state out = 0;
        fn helper(first: int) {
            calls = calls + 1;
            let before = g;
            if first == 1 {
                let g = 1;
            }
            return before + g;
        }
        fn cb(pkt: packet) {
            let a = helper(1);
            let b = helper(0);
            out = a * 1000 + b;
            send(pkt);
        }
        fn main() { sniff(cb); }
        "#,
    )
    .unwrap();
    let mut i = Interp::new(&packet_loop(program)).unwrap();
    i.process(&tcp_to(80)).unwrap();
    // The first call's local `g` shadows the global for the rest of that
    // call only: 100 + 1, then 100 + 100 from a frame of its own.
    assert_eq!(int(&i, "out"), 101 * 1000 + 200);
    assert_eq!(int(&i, "calls"), 2);
    assert_eq!(int(&i, "g"), 100);
}

#[test]
fn a_helper_without_a_return_value_yields_unit() {
    let program = parse_and_check(
        r#"
        state seen = 0;
        fn note(n: int) {
            seen = seen + n;
        }
        fn cb(pkt: packet) {
            note(2);
            note(3);
            send(pkt);
        }
        fn main() { sniff(cb); }
        "#,
    )
    .unwrap();
    let mut i = Interp::new(&packet_loop(program)).unwrap();
    i.process(&tcp_to(80)).unwrap();
    assert_eq!(int(&i, "seen"), 5);
}

/// The error one packet raises through `cb`'s body `body`.
fn error_of(globals: &str, body: &str) -> RuntimeError {
    let src =
        format!("{globals} fn cb(pkt: packet) {{ {body} send(pkt); }} fn main() {{ sniff(cb); }}");
    unchecked(&src)
        .unwrap()
        .process(&tcp_to(80))
        .expect_err(body)
}

#[test]
fn operators_evaluate_operands_in_order_before_their_type_checks() {
    let missing = RuntimeError::MissingKey("(1, 2)".into());
    let m = "state m = map();";
    // An integer operator evaluates both operands before checking
    // either: a non-int left operand loses to the right one's error.
    for op in ["+", "-", "*", "/", "%", "&", "|", "<", "<=", ">", ">="] {
        assert_eq!(
            error_of(m, &format!("let x = true {op} m[(1, 2)];")),
            missing,
            "{op}"
        );
        assert_eq!(
            error_of(m, &format!("let x = m[(1, 2)] {op} true;")),
            missing,
            "{op}"
        );
    }
    let arith = RuntimeError::Type("arith operand not int".into());
    assert_eq!(error_of("", "let x = 1 + true;"), arith);
    assert_eq!(error_of("", "let x = true - 1;"), arith);
    assert_eq!(
        error_of("", "let x = true < 1;"),
        RuntimeError::Type("ordering non-ints".into())
    );
    // A logical operator checks its left operand before the right runs.
    let logic = RuntimeError::Type("logical operand not bool".into());
    assert_eq!(error_of(m, "let x = 1 && m[(1, 2)];"), logic);
    assert_eq!(error_of(m, "let x = false || 7;"), logic);
    assert_eq!(error_of(m, "let x = m[(1, 2)] && 1;"), missing);
    // Equality compares any two values and never raises a type error.
    assert_eq!(
        error_of(m, "if 1 == true { send(pkt); } let x = m[(1, 2)];"),
        missing
    );
    assert_eq!(
        error_of(m, "if !(1 != true) { send(pkt); } let x = m[(1, 2)];"),
        missing
    );
    // Conditions and unary operators.
    assert_eq!(
        error_of("", "if 1 { send(pkt); }"),
        RuntimeError::Type("if condition not bool".into())
    );
    assert_eq!(
        error_of("", "while 0 { send(pkt); }"),
        RuntimeError::Type("while condition not bool".into())
    );
    assert_eq!(
        error_of("", "let x = -true;"),
        RuntimeError::Type("negating non-int".into())
    );
    assert_eq!(
        error_of("", "let x = !1;"),
        RuntimeError::Type("not of non-bool".into())
    );
    // A range checks its lower bound before evaluating the upper one.
    assert_eq!(
        error_of(m, "for i in true..m[(1, 2)] { send(pkt); }"),
        RuntimeError::Type("range bound not int".into())
    );
    // A tuple checks each item as it evaluates it.
    assert_eq!(
        error_of(m, "let t = (true, m[(1, 2)]);"),
        RuntimeError::Type("tuple element not int".into())
    );
    assert_eq!(error_of(m, "let t = (m[(1, 2)], true);"), missing);
    // A builtin evaluates every argument before checking any.
    assert_eq!(error_of(m, "let x = min(true, m[(1, 2)]);"), missing);
    assert_eq!(
        error_of("", "let x = max(1, true);"),
        RuntimeError::Type("min/max of non-int".into())
    );
    // An assignment evaluates its value, then its index, then its target.
    assert_eq!(
        error_of(m, "nope[m[(1, 2)]] = m[(3, 4)];"),
        RuntimeError::MissingKey("(3, 4)".into())
    );
    assert_eq!(error_of(m, "nope[m[(1, 2)]] = 1;"), missing);
    assert_eq!(
        error_of("", "nope[1] = 1;"),
        RuntimeError::Unbound("nope".into())
    );
    assert_eq!(
        error_of("", "pkt.ip.id = true;"),
        RuntimeError::Type("packet fields take ints".into())
    );
    // An index on a variable reads the variable before the index.
    assert_eq!(
        error_of(m, "let x = nope[m[(1, 2)]];"),
        RuntimeError::Unbound("nope".into())
    );
    assert_eq!(
        error_of("", "let x = ttl.ip.ttl;"),
        RuntimeError::Unbound("ttl".into())
    );
    assert_eq!(
        error_of("state n = 1;", "let x = n.ip.ttl;"),
        RuntimeError::Type("n is not a packet".into())
    );
    // Calls: an unknown function and a loop builtin fail after their
    // arguments, a mutator on a non-variable before them.
    assert_eq!(error_of(m, "let x = nofn(m[(1, 2)]);"), missing);
    assert_eq!(
        error_of("", "let x = nofn(1);"),
        RuntimeError::Unbound("function `nofn`".into())
    );
    assert_eq!(
        error_of("", "let p = recv();"),
        RuntimeError::Type(
            "`recv` must not appear in a per-packet function (normalise first)".into()
        )
    );
    assert_eq!(
        error_of("", "let s = listen(80);"),
        RuntimeError::SocketNotUnfolded("listen".into())
    );
    assert_eq!(
        error_of(m, "map_remove(map(), m[(1, 2)]);"),
        RuntimeError::Type("map_remove needs a variable".into())
    );
}
