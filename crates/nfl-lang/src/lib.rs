//! NFL — the *Network Function Language*.
//!
//! The NFactor paper analyzes NF source code through LLVM (giri for slicing,
//! KLEE for symbolic execution). This crate is the reproduction's language
//! substrate: a small, C/Python-flavoured imperative language in which the
//! corpus NFs (the Figure 1 load balancer, a balance-like TCP relay, a
//! snort-like IDS, NAT, firewall …) are written. It deliberately exposes
//! exactly the program objects NFactor's Algorithm 1 manipulates:
//!
//! * **statements** with def/use sets (for slicing),
//! * **`config` / `state` / local variables** (for StateAlyzer-style
//!   classification into `pktVar` / `cfgVar` / `oisVar` / `logVar`),
//! * **packet I/O builtins** (`recv`, `send`, `sniff`) so the analyses can
//!   "locate packet read/write statements" as §3.1 prescribes,
//! * **socket builtins** (`listen`, `accept`, `connect`, …) whose hidden
//!   OS state is unfolded by the `nf-tcp` crate (§3.2 "Hidden States"),
//! * **bounded loops only** (§3.2 "Execution Paths": NF programs are
//!   written with bounded loops so symbolic execution terminates).
//!
//! Pipeline: [`lexer`] → [`parser`] → [`ast`] → [`types`] (checking) →
//! consumed by `nfl-analysis` (CFG/PDG), `nfl-interp`, `nfl-slicer`,
//! `nfl-symex`.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     config LB_PORT = 80;
//!     state hits = 0;
//!     fn process(pkt: packet) {
//!         if pkt.tcp.dport == LB_PORT {
//!             hits = hits + 1;
//!             send(pkt);
//!         }
//!     }
//!     fn main() { sniff(process); }
//! "#;
//! let program = nfl_lang::parse(src).unwrap();
//! nfl_lang::types::check(&program).unwrap();
//! assert_eq!(program.functions.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
pub mod types;

pub use ast::{
    BinOp, Expr, ExprKind, ForIter, Function, Item, LValue, Program, Stmt, StmtId, StmtKind, UnOp,
};
pub use builtins::{Builtin, Effect};
pub use span::{LineIndex, ResolvedSpan, Span};

pub use parser::{parse_all, ParseError};

/// Parse NFL source into a [`Program`]. Convenience over
/// [`parser::parse_program`].
pub fn parse(src: &str) -> Result<Program, parser::ParseError> {
    parser::parse_program(src)
}

/// Parse and type-check in one step; the common front door for the rest of
/// the workspace. Parsing runs with error recovery, so the message carries
/// *every* syntax error (newline-separated), not just the first.
pub fn parse_and_check(src: &str) -> Result<Program, String> {
    let p = parse_all(src).map_err(|errs| {
        errs.iter()
            .map(ParseError::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    })?;
    types::check(&p).map_err(|e| e.to_string())?;
    Ok(p)
}
