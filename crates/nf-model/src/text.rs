//! The `.nfm` model exchange format.
//!
//! The paper's deployment story (§1): *"Our goal is to make our tool
//! available to NF vendors who can run it on their proprietary code and
//! provide only the resultant models to network operators."* Shipping a
//! model requires a format; `.nfm` is a line-oriented, human-readable
//! serialization that round-trips exactly:
//!
//! ```text
//! model fig1-lb
//! table
//!   config (cfg:mode == 1)
//!   entry
//!     flow (pkt.tcp.dport == cfg:LB_PORT)
//!     state !((pkt.ip.src, pkt.tcp.sport, pkt.ip.dst, pkt.tcp.dport) in f2b_nat)
//!     forward
//!       ip.src := cfg:LB_IP
//!     set rr_idx := ((st:rr_idx + 1) % 2)
//!     insert f2b_nat[(…)] := (…)
//!   end
//! end
//! ```
//!
//! Terms use the canonical [`SymVal`] rendering; [`parse_term`] is the
//! inverse of `Display`.

use crate::model::{Completeness, ConfigTable, Entry, FlowAction, Model, StateAction};
use nf_packet::Field;
use nfl_lang::BinOp;
use nfl_symex::{MapOp, SymVal};
use std::fmt;

/// Errors from parsing `.nfm` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the failure (0 when the failure is inside a term).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nfm parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------------
// Term parser — the inverse of SymVal's Display.
// ---------------------------------------------------------------------

struct TermParser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> TermParser<'a> {
    fn new(src: &'a str) -> Self {
        TermParser {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: 0,
            message: format!(
                "{} (at term offset {}: …{})",
                msg.into(),
                self.pos,
                String::from_utf8_lossy(&self.src[self.pos..(self.pos + 16).min(self.src.len())])
            ),
        }
    }

    fn skip_ws(&mut self) {
        while self.src.get(self.pos) == Some(&b' ') {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            // A `.` followed by a digit is a tuple projection, not part
            // of the name (`st:t.0` is Proj(St("t"), 0); names like
            // `pkt.ip.src` have alphabetic segments and are unaffected).
            if c == b'.'
                && self
                    .src
                    .get(self.pos + 1)
                    .map(|n| n.is_ascii_digit())
                    .unwrap_or(true)
            {
                break;
            }
            let ok = c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b':';
            if ok {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            None
        } else {
            Some(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
        }
    }

    fn number(&mut self) -> Option<i64> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            self.pos = start;
            return None;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    /// Top level: a term optionally followed by `in <map>` chains
    /// (left-associative, matching `Display`).
    fn term(&mut self) -> Result<SymVal, ParseError> {
        let mut base = self.postfix()?;
        loop {
            self.skip_ws();
            if self.src[self.pos..].starts_with(b"in ") {
                self.pos += 3;
                let map = self
                    .ident()
                    .ok_or_else(|| self.err("map name after `in`"))?;
                base = SymVal::MapContains(map, Box::new(base));
            } else {
                return Ok(base);
            }
        }
    }

    fn postfix(&mut self) -> Result<SymVal, ParseError> {
        let mut e = self.primary()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'[') => {
                    self.pos += 1;
                    let idx = self.term()?;
                    self.expect("]")?;
                    e = match e {
                        SymVal::Var(name) if !name.contains('.') && !name.contains(':') => {
                            SymVal::MapGet(name, Box::new(idx))
                        }
                        other => SymVal::ArrayGet(Box::new(other), Box::new(idx)),
                    };
                }
                Some(b'.')
                    if self
                        .src
                        .get(self.pos + 1)
                        .map(|c| c.is_ascii_digit())
                        .unwrap_or(false) =>
                {
                    self.pos += 1;
                    let n = self.number().ok_or_else(|| self.err("projection index"))?;
                    e = SymVal::Proj(Box::new(e), n as usize);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn call2(&mut self) -> Result<(SymVal, SymVal), ParseError> {
        self.expect("(")?;
        let a = self.term()?;
        self.expect(",")?;
        let b = self.term()?;
        self.expect(")")?;
        Ok((a, b))
    }

    fn primary(&mut self) -> Result<SymVal, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let first = self.term()?;
                self.skip_ws();
                if self.eat(")") {
                    return Ok(first); // bare parenthesised term
                }
                if self.peek() == Some(b',') {
                    // Tuple.
                    let mut items = vec![first];
                    while self.eat(",") {
                        items.push(self.term()?);
                    }
                    self.expect(")")?;
                    return Ok(SymVal::Tuple(items));
                }
                // Binary operator.
                let op = self.binop()?;
                let rhs = self.term()?;
                self.expect(")")?;
                Ok(SymVal::Bin(op, Box::new(first), Box::new(rhs)))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() != Some(b']') {
                    items.push(self.term()?);
                    while self.eat(",") {
                        items.push(self.term()?);
                    }
                }
                self.expect("]")?;
                Ok(SymVal::Array(items))
            }
            Some(b'!') => {
                self.pos += 1;
                self.expect("(")?;
                let inner = self.term()?;
                self.expect(")")?;
                Ok(SymVal::Not(Box::new(inner)))
            }
            Some(b'-') if self.src.get(self.pos + 1) == Some(&b'(') => {
                self.pos += 1;
                self.expect("(")?;
                let inner = self.term()?;
                self.expect(")")?;
                Ok(SymVal::Neg(Box::new(inner)))
            }
            Some(b'"') => {
                self.pos += 1;
                let start = self.pos;
                while self.peek().map(|c| c != b'"').unwrap_or(false) {
                    self.pos += 1;
                }
                let s = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.expect("\"")?;
                Ok(SymVal::Str(s))
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => self
                .number()
                .map(SymVal::Int)
                .ok_or_else(|| self.err("number")),
            _ => {
                let name = self.ident().ok_or_else(|| self.err("term"))?;
                match name.as_str() {
                    "true" => Ok(SymVal::Bool(true)),
                    "false" => Ok(SymVal::Bool(false)),
                    "hash" => {
                        self.expect("(")?;
                        let inner = self.term()?;
                        self.expect(")")?;
                        Ok(SymVal::Hash(Box::new(inner)))
                    }
                    "min" => {
                        let (a, b) = self.call2()?;
                        Ok(SymVal::Min(Box::new(a), Box::new(b)))
                    }
                    "max" => {
                        let (a, b) = self.call2()?;
                        Ok(SymVal::Max(Box::new(a), Box::new(b)))
                    }
                    "checksum" if self.eat("(pkt)") => Ok(SymVal::checksum()),
                    _ => Ok(SymVal::var(&name)),
                }
            }
        }
    }

    fn binop(&mut self) -> Result<BinOp, ParseError> {
        self.skip_ws();
        // Longest match first.
        let table: &[(&str, BinOp)] = &[
            ("==", BinOp::Eq),
            ("!=", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("&&", BinOp::And),
            ("||", BinOp::Or),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
            ("+", BinOp::Add),
            ("-", BinOp::Sub),
            ("*", BinOp::Mul),
            ("/", BinOp::Div),
            ("%", BinOp::Mod),
            ("&", BinOp::BitAnd),
            ("|", BinOp::BitOr),
        ];
        for (sym, op) in table {
            if self.eat(sym) {
                return Ok(*op);
            }
        }
        Err(self.err("binary operator"))
    }
}

/// Parse a canonical term rendering back into a [`SymVal`].
pub fn parse_term(src: &str) -> Result<SymVal, ParseError> {
    let mut p = TermParser::new(src);
    let t = p.term()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing input after term"));
    }
    Ok(t)
}

// ---------------------------------------------------------------------
// Model serialization.
// ---------------------------------------------------------------------

/// Serialize a model to `.nfm` text.
pub fn to_text(model: &Model) -> String {
    let mut out = String::new();
    out.push_str(&format!("model {}\n", model.nf_name));
    // Budget-truncated models carry the reason so the operator side can
    // see the model is partial; full models emit nothing extra.
    if let Completeness::Truncated { reason } = &model.completeness {
        out.push_str(&format!("truncated {reason}\n"));
    }
    for table in &model.tables {
        out.push_str("table\n");
        for c in &table.config {
            out.push_str(&format!("  config {c}\n"));
        }
        for e in &table.entries {
            out.push_str("  entry\n");
            for l in &e.flow_match {
                out.push_str(&format!("    flow {l}\n"));
            }
            for l in &e.state_match {
                out.push_str(&format!("    state {l}\n"));
            }
            match &e.flow_action {
                FlowAction::Drop => out.push_str("    drop\n"),
                FlowAction::Forward { rewrites } => {
                    out.push_str("    forward\n");
                    for (f, v) in rewrites {
                        out.push_str(&format!("      {} := {v}\n", f.path()));
                    }
                }
            }
            for (n, v) in &e.state_action.updates {
                out.push_str(&format!("    set {n} := {v}\n"));
            }
            for op in &e.state_action.map_ops {
                match op {
                    MapOp::Insert { map, key, value } => {
                        out.push_str(&format!("    insert {map}[{key}] := {value}\n"))
                    }
                    MapOp::Remove { map, key } => {
                        out.push_str(&format!("    remove {map}[{key}]\n"))
                    }
                }
            }
            out.push_str("  end\n");
        }
        out.push_str("end\n");
    }
    out
}

fn term_err(line_no: usize, e: ParseError) -> ParseError {
    ParseError {
        line: line_no,
        message: e.message,
    }
}

/// Parse `.nfm` text back into a [`Model`].
pub fn from_text(src: &str) -> Result<Model, ParseError> {
    let mut name = String::new();
    let mut completeness = Completeness::Full;
    let mut tables: Vec<ConfigTable> = Vec::new();
    let mut cur_table: Option<ConfigTable> = None;
    let mut cur_entry: Option<Entry> = None;
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (kw, rest) = match line.split_once(' ') {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        let fail = |m: &str| ParseError {
            line: line_no,
            message: m.to_string(),
        };
        match kw {
            "model" => name = rest.to_string(),
            "truncated" => {
                if rest.is_empty() {
                    return Err(fail("`truncated` requires a reason"));
                }
                completeness = Completeness::Truncated {
                    reason: rest.to_string(),
                };
            }
            "table" => {
                if let Some(t) = cur_table.take() {
                    tables.push(t);
                }
                cur_table = Some(ConfigTable {
                    config: Vec::new(),
                    entries: Vec::new(),
                });
            }
            "config" => {
                cur_table
                    .as_mut()
                    .ok_or_else(|| fail("`config` outside table"))?
                    .config
                    .push(parse_term(rest).map_err(|e| term_err(line_no, e))?);
            }
            "entry" => {
                cur_entry = Some(Entry {
                    flow_match: Vec::new(),
                    state_match: Vec::new(),
                    flow_action: FlowAction::Drop,
                    state_action: StateAction::default(),
                    truncated: false,
                });
            }
            "flow" => {
                cur_entry
                    .as_mut()
                    .ok_or_else(|| fail("`flow` outside entry"))?
                    .flow_match
                    .push(parse_term(rest).map_err(|e| term_err(line_no, e))?);
            }
            "state" => {
                cur_entry
                    .as_mut()
                    .ok_or_else(|| fail("`state` outside entry"))?
                    .state_match
                    .push(parse_term(rest).map_err(|e| term_err(line_no, e))?);
            }
            "drop" => {
                cur_entry
                    .as_mut()
                    .ok_or_else(|| fail("`drop` outside entry"))?
                    .flow_action = FlowAction::Drop;
            }
            "forward" => {
                cur_entry
                    .as_mut()
                    .ok_or_else(|| fail("`forward` outside entry"))?
                    .flow_action = FlowAction::Forward {
                    rewrites: Vec::new(),
                };
            }
            "set" => {
                let (var, term) = rest
                    .split_once(":=")
                    .ok_or_else(|| fail("`set` needs `var := term`"))?;
                cur_entry
                    .as_mut()
                    .ok_or_else(|| fail("`set` outside entry"))?
                    .state_action
                    .updates
                    .push((
                        var.trim().to_string(),
                        parse_term(term.trim()).map_err(|e| term_err(line_no, e))?,
                    ));
            }
            "insert" => {
                let (lhs, value) = rest
                    .split_once(":=")
                    .ok_or_else(|| fail("`insert` needs `map[key] := value`"))?;
                let lhs = lhs.trim();
                let open = lhs.find('[').ok_or_else(|| fail("missing `[`"))?;
                let map = lhs[..open].to_string();
                let key_src = lhs[open + 1..]
                    .strip_suffix(']')
                    .ok_or_else(|| fail("missing `]`"))?;
                cur_entry
                    .as_mut()
                    .ok_or_else(|| fail("`insert` outside entry"))?
                    .state_action
                    .map_ops
                    .push(MapOp::Insert {
                        map,
                        key: parse_term(key_src).map_err(|e| term_err(line_no, e))?,
                        value: parse_term(value.trim()).map_err(|e| term_err(line_no, e))?,
                    });
            }
            "remove" => {
                let open = rest.find('[').ok_or_else(|| fail("missing `[`"))?;
                let map = rest[..open].to_string();
                let key_src = rest[open + 1..]
                    .strip_suffix(']')
                    .ok_or_else(|| fail("missing `]`"))?;
                cur_entry
                    .as_mut()
                    .ok_or_else(|| fail("`remove` outside entry"))?
                    .state_action
                    .map_ops
                    .push(MapOp::Remove {
                        map,
                        key: parse_term(key_src).map_err(|e| term_err(line_no, e))?,
                    });
            }
            "end" => {
                if let Some(e) = cur_entry.take() {
                    cur_table
                        .as_mut()
                        .ok_or_else(|| fail("`end` outside table"))?
                        .entries
                        .push(e);
                } else if let Some(t) = cur_table.take() {
                    tables.push(t);
                }
            }
            other => {
                // A rewrite line inside `forward`: `<field.path> := term`.
                if let Some(entry) = cur_entry.as_mut() {
                    if let Some((field_path, term)) = line.split_once(":=") {
                        let field = Field::from_path(field_path.trim())
                            .ok_or_else(|| fail("unknown field in rewrite"))?;
                        if let FlowAction::Forward { rewrites } = &mut entry.flow_action {
                            rewrites.push((
                                field,
                                parse_term(term.trim()).map_err(|e| term_err(line_no, e))?,
                            ));
                            continue;
                        }
                    }
                }
                return Err(fail(&format!("unknown directive `{other}`")));
            }
        }
    }
    if let Some(t) = cur_table.take() {
        tables.push(t);
    }
    Ok(Model {
        nf_name: name,
        tables,
        completeness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_analysis::normalize::normalize;
    use nfl_lang::parse_and_check;
    use nfl_symex::SymExec;

    fn model_of(src: &str) -> Model {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl).explore().unwrap();
        Model::from_paths("t", &stats.paths)
    }

    #[test]
    fn truncated_stamp_roundtrips() {
        let m = model_of(
            r#"
            fn cb(pkt: packet) { send(pkt); }
            fn main() { sniff(cb); }
        "#,
        )
        .with_truncation("wall-clock deadline exceeded during symbolic execution");
        let text = to_text(&m);
        assert!(text.contains("truncated wall-clock deadline"), "{text}");
        let m2 = from_text(&text).unwrap();
        assert_eq!(m2, m);
        // And a full model emits no directive.
        let full = model_of(
            r#"
            fn cb(pkt: packet) { send(pkt); }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(!to_text(&full).contains("truncated"));
    }

    #[test]
    fn term_roundtrip_basics() {
        for src in [
            "42",
            "-7",
            "true",
            "pkt.tcp.dport",
            "cfg:LB_PORT",
            "st:rr_idx",
            "(pkt.tcp.dport == cfg:LB_PORT)",
            "((st:rr_idx + 1) % 2)",
            "hash(pkt.ip.src)",
            "min(cfg:REFILL, cfg:BUCKET_MAX)",
            "(pkt.ip.src, pkt.tcp.sport)",
            "[(16843009, 80), (33686018, 80)]",
            "nat[(pkt.ip.src, pkt.tcp.sport)]",
            "nat[(pkt.ip.src, pkt.tcp.sport)].2",
            "((pkt.ip.src, pkt.tcp.sport) in nat)",
            "!(((pkt.ip.src, pkt.tcp.sport) in nat))",
            "[(1, 80), (2, 80)][st:idx]",
            "[(1, 80), (2, 80)][(hash(pkt.ip.src) % 2)].0",
            "((pkt.tcp.flags & 2) != 0)",
        ] {
            let t = parse_term(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(t.to_string(), src, "canonical rendering");
            // And a second round for idempotence.
            let t2 = parse_term(&t.to_string()).unwrap();
            assert_eq!(t, t2);
        }
    }

    /// Variables parse to their typed variant; names of no class stay
    /// untyped, and every one prints back as it was read.
    #[test]
    fn variables_parse_typed() {
        for (src, want) in [
            ("pkt.tcp.dport", SymVal::Pkt(Field::TcpDport)),
            ("cfg:LB_PORT", SymVal::Cfg("LB_PORT".into())),
            ("st:rr_idx", SymVal::St("rr_idx".into())),
            ("st:t.0", SymVal::Proj(Box::new(SymVal::St("t".into())), 0)),
            ("pkt.len", SymVal::Var("pkt.len".into())),
            ("pkt.nonsense", SymVal::Var("pkt.nonsense".into())),
            ("len:nat", SymVal::Var("len:nat".into())),
            ("checksum(pkt)", SymVal::Var("checksum(pkt)".into())),
        ] {
            let t = parse_term(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(t, want, "{src}");
            assert_eq!(t.to_string(), src);
        }
    }

    #[test]
    fn bad_terms_error() {
        for src in ["", "(1 +", "nat[", "((a b))", "1 2"] {
            assert!(parse_term(src).is_err(), "{src} should fail");
        }
    }

    #[test]
    fn model_roundtrip_nat() {
        let m = model_of(
            r#"
            state nat = map();
            state next = 10000;
            fn cb(pkt: packet) {
                let k = (pkt.ip.src, pkt.tcp.sport);
                if k not in nat {
                    nat[k] = next;
                    next = next + 1;
                }
                pkt.tcp.sport = nat[k];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#,
        );
        let text = to_text(&m);
        let m2 = from_text(&text).unwrap();
        assert_eq!(m, m2, "round trip:\n{text}");
    }

    #[test]
    fn model_roundtrip_whole_corpus() {
        for nf in nf_corpus_sources() {
            let m = model_of(&nf.1);
            let text = to_text(&m);
            let m2 = from_text(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", nf.0));
            assert_eq!(m, m2, "{} round trip failed", nf.0);
        }
    }

    fn nf_corpus_sources() -> Vec<(&'static str, String)> {
        // Small local corpus to avoid a dependency cycle with nf-corpus;
        // mirrors its NF shapes.
        vec![
            (
                "filter",
                r#"
                config PORT = 80;
                fn cb(pkt: packet) { if pkt.tcp.dport == PORT { send(pkt); } }
                fn main() { sniff(cb); }
                "#
                .to_string(),
            ),
            (
                "lb-modes",
                r#"
                const RR = 1;
                config mode = 1;
                config servers = [(1.1.1.1, 80), (2.2.2.2, 80)];
                state idx = 0;
                fn cb(pkt: packet) {
                    let server = (0, 0);
                    if mode == RR {
                        server = servers[idx];
                        idx = (idx + 1) % len(servers);
                    } else {
                        server = servers[hash(pkt.ip.src) % len(servers)];
                    }
                    pkt.ip.dst = server[0];
                    pkt.tcp.dport = server[1];
                    send(pkt);
                }
                fn main() { sniff(cb); }
                "#
                .to_string(),
            ),
            (
                "teardown",
                r#"
                state conns = map();
                fn cb(pkt: packet) {
                    let k = pkt.ip.src;
                    if pkt.tcp.flags & 4 != 0 {
                        map_remove(conns, k);
                        return;
                    }
                    conns[k] = 1;
                    send(pkt);
                }
                fn main() { sniff(cb); }
                "#
                .to_string(),
            ),
        ]
    }

    #[test]
    fn parse_error_reports_line() {
        let err = from_text("model x\ntable\n  bogus directive\n").unwrap_err();
        assert_eq!(err.line, 3);
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use nf_support::check::{
        self, any_bool, any_i64, check, identifier, int_range, string_of, tuple2, vec_of, Config,
        Gen,
    };

    /// The term parser is total: arbitrary input parses or errors,
    /// never panics.
    #[test]
    fn parse_term_total() {
        let cfg = Config::with_cases(256);
        check("parse_term_total", &cfg, &check::ascii_printable(80), |s| {
            let _ = parse_term(s);
        });
    }

    /// The model parser is total on arbitrary line soup.
    #[test]
    fn from_text_total() {
        let cfg = Config::with_cases(256);
        let soup = string_of("abcdefghijklmnopqrstuvwxyz0123456789[]():=. \n", 0, 400);
        check("from_text_total", &cfg, &soup, |s| {
            let _ = from_text(s);
        });
    }

    /// Round trip for randomly generated terms.
    #[test]
    fn random_term_roundtrip() {
        let cfg = Config::with_cases(256);
        check("random_term_roundtrip", &cfg, &term_gen(), |t| {
            let printed = t.to_string();
            let parsed = parse_term(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
            assert_eq!(parsed, *t);
        });
    }

    /// Historical fuzzer counterexamples (formerly `proptest-regressions/
    /// text.txt`), pinned as fixed deterministic cases so every run
    /// re-checks them regardless of the random stream.
    #[test]
    fn regression_proj_of_bool_roundtrips() {
        let t = SymVal::Proj(Box::new(SymVal::Bool(false)), 0);
        let printed = t.to_string();
        assert_eq!(parse_term(&printed).unwrap(), t, "{printed}");
    }

    #[test]
    fn regression_nested_map_contains_roundtrips() {
        let t = SymVal::MapContains(
            "a".into(),
            Box::new(SymVal::MapContains("a".into(), Box::new(SymVal::Int(0)))),
        );
        let printed = t.to_string();
        assert_eq!(parse_term(&printed).unwrap(), t, "{printed}");
    }

    fn term_gen() -> Gen<SymVal> {
        let leaf = Gen::one_of(vec![
            any_i64().map(SymVal::Int),
            any_bool().map(SymVal::Bool),
            identifier(5).map(SymVal::Var),
            Gen::one_of(vec![
                Gen::just(SymVal::Pkt(Field::IpSrc)),
                identifier(5).map(SymVal::Cfg),
                identifier(5).map(SymVal::St),
                Gen::just(SymVal::pkt_len()),
                Gen::just(SymVal::checksum()),
            ]),
        ]);
        check::recursive(leaf.clone(), 3, move |inner| {
            let map_name = string_of("abcdefghijklmnopqrstuvwxyz", 1, 5);
            Gen::one_of(vec![
                leaf.clone(),
                tuple2(inner.clone(), inner.clone())
                    .map(|(a, b)| SymVal::Bin(BinOp::Add, Box::new(a), Box::new(b))),
                tuple2(inner.clone(), inner.clone())
                    .map(|(a, b)| SymVal::Bin(BinOp::Eq, Box::new(a), Box::new(b))),
                inner.clone().map(|a| SymVal::Hash(Box::new(a))),
                tuple2(inner.clone(), inner.clone())
                    .map(|(a, b)| SymVal::Min(Box::new(a), Box::new(b))),
                vec_of(inner.clone(), 2, 3).map(SymVal::Tuple),
                vec_of(inner.clone(), 0, 2).map(SymVal::Array),
                tuple2(map_name.clone(), inner.clone())
                    .map(|(m, k)| SymVal::MapGet(m, Box::new(k))),
                tuple2(map_name, inner.clone()).map(|(m, k)| SymVal::MapContains(m, Box::new(k))),
                tuple2(inner.clone(), int_range(0, 3))
                    .map(|(a, i)| SymVal::Proj(Box::new(a), i as usize)),
            ])
        })
    }
}
