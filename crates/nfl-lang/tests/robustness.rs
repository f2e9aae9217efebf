//! Frontend robustness: the lexer and parser must never panic, and the
//! pretty-printer must be a parser fixpoint on everything the corpus
//! grammar can produce.

use nf_support::check::{
    self, ascii_printable, check, identifier, int_range, string_of, tuple2, Config, Gen,
};
use nfl_lang::{lexer, parse, parser, pretty};

/// Arbitrary byte soup: tokenize returns Ok or Err, never panics.
#[test]
fn lexer_total_on_arbitrary_input() {
    let cfg = Config::with_cases(256);
    check(
        "lexer_total_on_arbitrary_input",
        &cfg,
        &ascii_printable(120),
        |s| {
            let _ = lexer::tokenize(s);
        },
    );
}

/// Arbitrary ASCII with NFL-ish characters: parser never panics.
#[test]
fn parser_total_on_nflish_input() {
    let cfg = Config::with_cases(256);
    let soup = string_of(
        "abcdefghijklmnopqrstuvwxyz0123456789(){}[];=<>!&|.,+*/% \n\"_-",
        0,
        200,
    );
    check("parser_total_on_nflish_input", &cfg, &soup, |s| {
        let _ = parse(s);
    });
}

/// Integer literals round-trip through the lexer.
#[test]
fn int_literals_roundtrip() {
    let cfg = Config::with_cases(256);
    check(
        "int_literals_roundtrip",
        &cfg,
        &int_range(0, i64::MAX),
        |&v| {
            let toks = lexer::tokenize(&v.to_string()).unwrap();
            assert_eq!(toks[0].kind, nfl_lang::token::TokenKind::Int(v));
        },
    );
}

/// Dotted quads lex to the packed address.
#[test]
fn ip_literals_pack() {
    let cfg = Config::with_cases(256);
    let octet = || int_range(0, 255);
    let quad = tuple2(tuple2(octet(), octet()), tuple2(octet(), octet()));
    check("ip_literals_pack", &cfg, &quad, |((a, b), (c, d))| {
        let src = format!("{a}.{b}.{c}.{d}");
        let toks = lexer::tokenize(&src).unwrap();
        let expect = (a << 24) | (b << 16) | (c << 8) | d;
        assert_eq!(toks[0].kind, nfl_lang::token::TokenKind::Int(expect));
    });
}

/// Generator for random well-formed NFL expressions.
fn expr_gen() -> Gen<String> {
    let leaf = Gen::one_of(vec![
        int_range(0, 99_999).map(|v| v.to_string()),
        Gen::just("true".to_string()),
        Gen::just("false".to_string()),
        identifier(6),
        Gen::just("pkt.ip.src".to_string()),
        Gen::just("pkt.tcp.dport".to_string()),
    ]);
    check::recursive(leaf.clone(), 3, move |inner| {
        Gen::one_of(vec![
            leaf.clone(),
            tuple2(inner.clone(), inner.clone()).map(|(a, b)| format!("({a} + {b})")),
            tuple2(inner.clone(), inner.clone()).map(|(a, b)| format!("({a} == {b})")),
            tuple2(inner.clone(), inner.clone()).map(|(a, b)| format!("({a} % {b})")),
            inner.clone().map(|a| format!("hash({a})")),
            tuple2(inner.clone(), inner.clone()).map(|(a, b)| format!("min({a}, {b})")),
        ])
    })
}

/// parse ∘ pretty is a fixpoint on generated expressions.
#[test]
fn expr_pretty_parse_fixpoint() {
    let cfg = Config::with_cases(128);
    check("expr_pretty_parse_fixpoint", &cfg, &expr_gen(), |e| {
        let parsed = parser::parse_expr(e).unwrap();
        let printed = pretty::expr_to_string(&parsed);
        let reparsed = parser::parse_expr(&printed).unwrap();
        let reprinted = pretty::expr_to_string(&reparsed);
        assert_eq!(printed, reprinted);
    });
}

#[test]
fn deeply_nested_expressions_parse() {
    // Recursion-depth sanity: 64 levels of parens.
    let mut e = String::from("1");
    for _ in 0..64 {
        e = format!("({e} + 1)");
    }
    assert!(parser::parse_expr(&e).is_ok());
}

#[test]
fn error_messages_carry_line_numbers() {
    let err = parse("fn main() {\n let x = ;\n}").unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
}
