//! The NFL lexer.
//!
//! Hand-written, single pass, no backtracking beyond one character of
//! lookahead — except dotted-quad IPv4 literals (`3.3.3.3`), which are
//! disambiguated from range syntax (`0..N`) and field access by peeking:
//! a digit directly after a `.` that directly follows an integer makes an
//! address literal.

use crate::span::Span;
use crate::token::{keyword_or_ident, Token, TokenKind};
use std::fmt;

/// A lexical error with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// Where it happened.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'#') => {
                    // Python-style comments too, to keep corpus sources
                    // close to the paper's Figure 1.
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn err(&self, start: usize, line: u32, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            span: Span::new(start, self.pos, line),
        }
    }

    fn lex_number(&mut self, start: usize, line: u32) -> Result<TokenKind, LexError> {
        // Hex?
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let digits_start = self.pos;
            while self.peek().map(|c| c.is_ascii_hexdigit()).unwrap_or(false) {
                self.bump();
            }
            if self.pos == digits_start {
                return Err(self.err(start, line, "hex literal needs digits"));
            }
            let text = std::str::from_utf8(&self.src[digits_start..self.pos]).unwrap();
            let v = i64::from_str_radix(text, 16)
                .map_err(|_| self.err(start, line, "hex literal overflows i64"))?;
            return Ok(TokenKind::Int(v));
        }
        let mut first = 0i64;
        let mut any = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                first = first
                    .checked_mul(10)
                    .and_then(|v| v.checked_add(i64::from(c - b'0')))
                    .ok_or_else(|| self.err(start, line, "integer literal overflows i64"))?;
                any = true;
                self.bump();
            } else {
                break;
            }
        }
        debug_assert!(any);
        // Dotted-quad address literal: digit '.' digit, but NOT '..'.
        if self.peek() == Some(b'.') && self.peek2().map(|c| c.is_ascii_digit()).unwrap_or(false) {
            let mut octets = vec![first];
            while self.peek() == Some(b'.')
                && self.peek2().map(|c| c.is_ascii_digit()).unwrap_or(false)
            {
                self.bump(); // '.'
                let mut v = 0i64;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        v = v * 10 + i64::from(c - b'0');
                        self.bump();
                    } else {
                        break;
                    }
                }
                octets.push(v);
            }
            if octets.len() != 4 || octets.iter().any(|&o| o > 255) {
                return Err(self.err(start, line, "malformed IPv4 address literal"));
            }
            let addr = octets.iter().fold(0i64, |acc, &o| (acc << 8) | o);
            return Ok(TokenKind::Int(addr));
        }
        Ok(TokenKind::Int(first))
    }

    fn lex_string(&mut self, start: usize, line: u32) -> Result<TokenKind, LexError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(TokenKind::Str(s)),
                Some(b'\\') => match self.bump() {
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    _ => return Err(self.err(start, line, "bad escape in string")),
                },
                Some(c) => s.push(c as char),
                None => return Err(self.err(start, line, "unterminated string")),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia();
        let start = self.pos;
        let line = self.line;
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                span: Span::new(start, start, line),
            });
        };
        let kind = match c {
            b'0'..=b'9' => self.lex_number(start, line)?,
            b'"' => self.lex_string(start, line)?,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                while self
                    .peek()
                    .map(|c| c.is_ascii_alphanumeric() || c == b'_')
                    .unwrap_or(false)
                {
                    self.bump();
                }
                let word = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                keyword_or_ident(word)
            }
            _ => {
                self.bump();
                match c {
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b'{' => TokenKind::LBrace,
                    b'}' => TokenKind::RBrace,
                    b'[' => TokenKind::LBracket,
                    b']' => TokenKind::RBracket,
                    b',' => TokenKind::Comma,
                    b';' => TokenKind::Semi,
                    b':' => TokenKind::Colon,
                    b'.' => {
                        if self.peek() == Some(b'.') {
                            self.bump();
                            TokenKind::DotDot
                        } else {
                            TokenKind::Dot
                        }
                    }
                    b'=' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            TokenKind::Eq
                        } else {
                            TokenKind::Assign
                        }
                    }
                    b'!' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            TokenKind::Ne
                        } else {
                            TokenKind::Bang
                        }
                    }
                    b'<' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            TokenKind::Le
                        } else {
                            TokenKind::Lt
                        }
                    }
                    b'>' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            TokenKind::Ge
                        } else {
                            TokenKind::Gt
                        }
                    }
                    b'+' => TokenKind::Plus,
                    b'-' => TokenKind::Minus,
                    b'*' => TokenKind::Star,
                    b'/' => TokenKind::Slash,
                    b'%' => TokenKind::Percent,
                    b'&' => {
                        if self.peek() == Some(b'&') {
                            self.bump();
                            TokenKind::AndAnd
                        } else {
                            TokenKind::Amp
                        }
                    }
                    b'|' => {
                        if self.peek() == Some(b'|') {
                            self.bump();
                            TokenKind::OrOr
                        } else {
                            TokenKind::Pipe
                        }
                    }
                    other => {
                        return Err(self.err(
                            start,
                            line,
                            format!("unexpected character {:?}", other as char),
                        ))
                    }
                }
            }
        };
        Ok(Token {
            kind,
            span: Span::new(start, self.pos, line),
        })
    }
}

/// Tokenize a whole source string. The final token is always
/// [`TokenKind::Eof`].
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let t = lx.next_token()?;
        let done = t.kind == TokenKind::Eof;
        out.push(t);
        if done {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("let x = 42;"),
            vec![
                TokenKind::Let,
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Int(42),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn ip_literal() {
        assert_eq!(
            kinds("3.3.3.3"),
            vec![TokenKind::Int(0x03030303), TokenKind::Eof]
        );
        assert_eq!(
            kinds("10.0.0.1"),
            vec![TokenKind::Int(0x0a000001), TokenKind::Eof]
        );
    }

    #[test]
    fn range_is_not_ip() {
        assert_eq!(
            kinds("0..10"),
            vec![
                TokenKind::Int(0),
                TokenKind::DotDot,
                TokenKind::Int(10),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn field_access_dots() {
        assert_eq!(
            kinds("pkt.ip.src"),
            vec![
                TokenKind::Ident("pkt".into()),
                TokenKind::Dot,
                TokenKind::Ident("ip".into()),
                TokenKind::Dot,
                TokenKind::Ident("src".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn malformed_ip_rejected() {
        assert!(tokenize("1.2.3").is_err());
        assert!(tokenize("1.2.3.4.5").is_err());
        assert!(tokenize("1.2.3.999").is_err());
    }

    #[test]
    fn hex_and_overflow() {
        assert_eq!(kinds("0x10"), vec![TokenKind::Int(16), TokenKind::Eof]);
        assert!(tokenize("99999999999999999999").is_err());
        assert!(tokenize("0x").is_err());
    }

    #[test]
    fn comments_both_styles() {
        assert_eq!(
            kinds("// c style\n# py style\n1"),
            vec![TokenKind::Int(1), TokenKind::Eof]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""eth0" "a\nb""#),
            vec![
                TokenKind::Str("eth0".into()),
                TokenKind::Str("a\nb".into()),
                TokenKind::Eof
            ]
        );
        assert!(tokenize("\"unterminated").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a == b != c <= d >= e && f || !g"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Eq,
                TokenKind::Ident("b".into()),
                TokenKind::Ne,
                TokenKind::Ident("c".into()),
                TokenKind::Le,
                TokenKind::Ident("d".into()),
                TokenKind::Ge,
                TokenKind::Ident("e".into()),
                TokenKind::AndAnd,
                TokenKind::Ident("f".into()),
                TokenKind::OrOr,
                TokenKind::Bang,
                TokenKind::Ident("g".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn line_numbers_advance() {
        let toks = tokenize("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[2].span.line, 4);
    }

    #[test]
    fn unexpected_char() {
        assert!(tokenize("let $x = 1;").is_err());
    }
}
