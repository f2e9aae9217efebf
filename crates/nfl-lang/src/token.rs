//! Lexical tokens of NFL.

use crate::span::Span;
use std::fmt;

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    // Literals ----------------------------------------------------------
    /// Integer literal (decimal, hex `0x…`, or dotted-quad IPv4 which lexes
    /// to its 32-bit value — `3.3.3.3` is the integer `0x03030303`).
    Int(i64),
    /// String literal (interface names, log messages, rule patterns).
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// An identifier or a dotted packet path (`pkt` is an identifier; the
    /// dots of `pkt.ip.src` are separate [`TokenKind::Dot`] tokens).
    Ident(String),

    // Keywords ----------------------------------------------------------
    /// `const`
    Const,
    /// `config`
    Config,
    /// `state`
    State,
    /// `fn`
    Fn,
    /// `let`
    Let,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `in`
    In,
    /// `not`
    Not,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,

    // Punctuation / operators --------------------------------------------
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `=`
    Assign,
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
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `!`
    Bang,

    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Str(s) => write!(f, "{s:?}"),
            TokenKind::Bool(b) => write!(f, "{b}"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Const => write!(f, "const"),
            TokenKind::Config => write!(f, "config"),
            TokenKind::State => write!(f, "state"),
            TokenKind::Fn => write!(f, "fn"),
            TokenKind::Let => write!(f, "let"),
            TokenKind::If => write!(f, "if"),
            TokenKind::Else => write!(f, "else"),
            TokenKind::While => write!(f, "while"),
            TokenKind::For => write!(f, "for"),
            TokenKind::In => write!(f, "in"),
            TokenKind::Not => write!(f, "not"),
            TokenKind::Return => write!(f, "return"),
            TokenKind::Break => write!(f, "break"),
            TokenKind::Continue => write!(f, "continue"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Semi => write!(f, ";"),
            TokenKind::Colon => write!(f, ":"),
            TokenKind::Dot => write!(f, "."),
            TokenKind::DotDot => write!(f, ".."),
            TokenKind::Assign => write!(f, "="),
            TokenKind::Eq => write!(f, "=="),
            TokenKind::Ne => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::AndAnd => write!(f, "&&"),
            TokenKind::OrOr => write!(f, "||"),
            TokenKind::Amp => write!(f, "&"),
            TokenKind::Pipe => write!(f, "|"),
            TokenKind::Bang => write!(f, "!"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

/// Map an identifier to a keyword token, or keep it as an identifier.
pub fn keyword_or_ident(word: &str) -> TokenKind {
    match word {
        "const" => TokenKind::Const,
        "config" => TokenKind::Config,
        "state" => TokenKind::State,
        "fn" => TokenKind::Fn,
        "let" => TokenKind::Let,
        "if" => TokenKind::If,
        "else" => TokenKind::Else,
        "while" => TokenKind::While,
        "for" => TokenKind::For,
        "in" => TokenKind::In,
        "not" => TokenKind::Not,
        "return" => TokenKind::Return,
        "break" => TokenKind::Break,
        "continue" => TokenKind::Continue,
        "true" => TokenKind::Bool(true),
        "false" => TokenKind::Bool(false),
        _ => TokenKind::Ident(word.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_resolve() {
        assert_eq!(keyword_or_ident("if"), TokenKind::If);
        assert_eq!(keyword_or_ident("true"), TokenKind::Bool(true));
        assert_eq!(keyword_or_ident("pkt"), TokenKind::Ident("pkt".to_string()));
    }

    #[test]
    fn display_roundtrips_punct() {
        assert_eq!(TokenKind::DotDot.to_string(), "..");
        assert_eq!(TokenKind::Ne.to_string(), "!=");
    }
}
