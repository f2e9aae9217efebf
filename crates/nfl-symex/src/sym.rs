//! The symbolic value language.
//!
//! A [`SymVal`] is either concrete or a term over free variables. The
//! variables are typed by Algorithm 1's classes: packet fields
//! ([`SymVal::Pkt`], rendered `pkt.tcp.dport`), scalar configs
//! ([`SymVal::Cfg`], `cfg:mode`) and scalar states ([`SymVal::St`],
//! `st:rr_idx`); [`SymVal::Var`] names the rest (`pkt.len`, `len:<map>`,
//! `checksum(pkt)`, solver and test variables). Terms also hold
//! uninterpreted `hash(…)`, map reads (`nat[⟨k⟩]`), and array reads with
//! symbolic index (`servers[st:rr_idx]` — the `server[idx]` of Figure 6).
//! Constructors constant-fold so concrete programs stay concrete.
//!
//! This module is the only one that knows the rendered prefixes: `Display`
//! writes them and [`SymVal::var`] reads them back. [`SymVal::short`] and
//! [`MapOp::short`] write the Figure 6 table's style without them.

use nf_packet::Field;
use nfl_lang::BinOp;
use std::collections::BTreeMap;
use std::fmt;

/// A symbolic value / term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SymVal {
    /// Concrete integer.
    Int(i64),
    /// Concrete boolean.
    Bool(bool),
    /// Concrete string.
    Str(String),
    /// A header field of the input packet (`pkt.<path>`).
    Pkt(Field),
    /// A scalar configuration variable (`cfg:<name>`).
    Cfg(String),
    /// A scalar state variable (`st:<name>`).
    St(String),
    /// A free variable of no class, rendered as its name: `pkt.len`
    /// ([`SymVal::pkt_len`]), `len:<map>` ([`SymVal::map_len`]),
    /// `checksum(pkt)` ([`SymVal::checksum`]), solver and test variables.
    Var(String),
    /// Tuple of terms.
    Tuple(Vec<SymVal>),
    /// Array of terms (concrete length).
    Array(Vec<SymVal>),
    /// Binary operation.
    Bin(BinOp, Box<SymVal>, Box<SymVal>),
    /// Logical negation.
    Not(Box<SymVal>),
    /// Arithmetic negation.
    Neg(Box<SymVal>),
    /// Uninterpreted hash.
    Hash(Box<SymVal>),
    /// Minimum of two integer terms.
    Min(Box<SymVal>, Box<SymVal>),
    /// Maximum of two integer terms.
    Max(Box<SymVal>, Box<SymVal>),
    /// Read of state map `name` at a (possibly symbolic) key.
    MapGet(String, Box<SymVal>),
    /// Membership test of state map `name` at a key — a boolean term.
    MapContains(String, Box<SymVal>),
    /// Array read with symbolic index (base is a concrete-length array).
    ArrayGet(Box<SymVal>, Box<SymVal>),
    /// Tuple projection from a symbolic tuple-valued term.
    Proj(Box<SymVal>, usize),
}

impl SymVal {
    /// Is this a concrete (fully evaluated) value?
    pub fn is_concrete(&self) -> bool {
        match self {
            SymVal::Int(_) | SymVal::Bool(_) | SymVal::Str(_) => true,
            SymVal::Tuple(es) | SymVal::Array(es) => es.iter().all(|e| e.is_concrete()),
            _ => false,
        }
    }

    /// The concrete boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            SymVal::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The concrete integer, if this is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            SymVal::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The variable a rendered name denotes — the inverse of `Display` on
    /// variables: `pkt.<path>` of a known field is [`SymVal::Pkt`],
    /// `cfg:<name>` is [`SymVal::Cfg`], `st:<name>` is [`SymVal::St`], and
    /// every other name (`pkt.len`, `len:nat`, `x`) is a [`SymVal::Var`].
    pub fn var(name: &str) -> SymVal {
        if let Some(f) = name.strip_prefix("pkt.").and_then(Field::from_path) {
            SymVal::Pkt(f)
        } else if let Some(c) = name.strip_prefix("cfg:") {
            SymVal::Cfg(c.to_string())
        } else if let Some(s) = name.strip_prefix("st:") {
            SymVal::St(s.to_string())
        } else {
            SymVal::Var(name.to_string())
        }
    }

    /// `len(pkt)`: the packet's length, which no [`Field`] names. It still
    /// counts as a packet mention ([`Mentions::pkt`]).
    pub fn pkt_len() -> SymVal {
        SymVal::Var("pkt.len".into())
    }

    /// `len(map)`: the number of entries in state map `map`.
    pub fn map_len(map: &str) -> SymVal {
        SymVal::Var(format!("len:{map}"))
    }

    /// `checksum(pkt)`: the packet's checksum, an opaque value.
    pub fn checksum() -> SymVal {
        SymVal::Var("checksum(pkt)".into())
    }

    /// A variable's name in `style`, split at its prefix; `None` for any
    /// term that is not a variable.
    fn var_parts(&self, style: Style) -> Option<(&'static str, &str)> {
        match (self, style) {
            (SymVal::Pkt(f), Style::Full) => Some(("pkt.", f.path())),
            (SymVal::Cfg(n), Style::Full) => Some(("cfg:", n)),
            (SymVal::St(n), Style::Full) => Some(("st:", n)),
            (SymVal::Var(n), Style::Full) => Some(("", n)),
            (SymVal::Pkt(f), Style::Short) => Some(("f.", f.path())),
            (SymVal::Cfg(n) | SymVal::St(n), Style::Short) => Some(("", n)),
            (SymVal::Var(n), Style::Short) => Some(match n.strip_prefix("pkt.") {
                Some(property) => ("f.", property),
                None => ("", n),
            }),
            _ => None,
        }
    }

    /// The rendered name of a variable (`pkt.ip.src`, `cfg:mode`,
    /// `st:idx`, `pkt.len`); `None` for any other term. The solver keys
    /// its facts and witnesses by it, and [`SymVal::var`] reads it back.
    pub fn var_name(&self) -> Option<String> {
        self.var_parts(Style::Full)
            .map(|(prefix, name)| [prefix, name].concat())
    }

    /// The term in the Figure 6 table's style: packet fields and
    /// properties as `f.<path>`, configs and states by their bare names
    /// (`idx`, not `st:idx`). Unlike `Display`, not read back.
    pub fn short(&self) -> Short<'_, SymVal> {
        Short(self)
    }

    /// The packet fields a map key is made of: one field, or a tuple of
    /// fields. `None` for any other key — one holding a state, a config,
    /// or arithmetic.
    pub fn key_fields(&self) -> Option<Vec<Field>> {
        match self {
            SymVal::Pkt(f) => Some(vec![*f]),
            SymVal::Tuple(es) => es
                .iter()
                .map(|e| match e {
                    SymVal::Pkt(f) => Some(*f),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }

    /// Smart constructor: binary op with constant folding and light
    /// algebraic simplification.
    pub fn bin(op: BinOp, a: SymVal, b: SymVal) -> SymVal {
        use BinOp::*;
        if let (Some(x), Some(y)) = (a.as_int(), b.as_int()) {
            return match op {
                Add => SymVal::Int(x.wrapping_add(y)),
                Sub => SymVal::Int(x.wrapping_sub(y)),
                Mul => SymVal::Int(x.wrapping_mul(y)),
                Div if y != 0 => SymVal::Int(x.wrapping_div(y)),
                Mod if y != 0 => SymVal::Int(x.rem_euclid(y)),
                BitAnd => SymVal::Int(x & y),
                BitOr => SymVal::Int(x | y),
                Eq => SymVal::Bool(x == y),
                Ne => SymVal::Bool(x != y),
                Lt => SymVal::Bool(x < y),
                Le => SymVal::Bool(x <= y),
                Gt => SymVal::Bool(x > y),
                Ge => SymVal::Bool(x >= y),
                _ => SymVal::Bin(op, Box::new(a), Box::new(b)),
            };
        }
        if let (Some(x), Some(y)) = (a.as_bool(), b.as_bool()) {
            return match op {
                And => SymVal::Bool(x && y),
                Or => SymVal::Bool(x || y),
                Eq => SymVal::Bool(x == y),
                Ne => SymVal::Bool(x != y),
                _ => SymVal::Bin(op, Box::new(a), Box::new(b)),
            };
        }
        // Equality of identical terms.
        if matches!(op, Eq) && a == b {
            return SymVal::Bool(true);
        }
        if matches!(op, Ne) && a == b {
            return SymVal::Bool(false);
        }
        // Tuple equality decomposes structurally when arities match.
        if let (SymVal::Tuple(xs), SymVal::Tuple(ys)) = (&a, &b) {
            if xs.len() == ys.len() && matches!(op, Eq) {
                let mut acc = SymVal::Bool(true);
                for (x, y) in xs.iter().zip(ys) {
                    acc = SymVal::and(acc, SymVal::bin(Eq, x.clone(), y.clone()));
                }
                return acc;
            }
        }
        // Boolean identities.
        match (op, &a, &b) {
            (And, SymVal::Bool(true), _) => return b,
            (And, _, SymVal::Bool(true)) => return a,
            (And, SymVal::Bool(false), _) | (And, _, SymVal::Bool(false)) => {
                return SymVal::Bool(false)
            }
            (Or, SymVal::Bool(false), _) => return b,
            (Or, _, SymVal::Bool(false)) => return a,
            (Or, SymVal::Bool(true), _) | (Or, _, SymVal::Bool(true)) => return SymVal::Bool(true),
            (Add, SymVal::Int(0), _) => return b,
            (Add, _, SymVal::Int(0)) => return a,
            (Mul, SymVal::Int(1), _) => return b,
            (Mul, _, SymVal::Int(1)) => return a,
            _ => {}
        }
        SymVal::Bin(op, Box::new(a), Box::new(b))
    }

    /// Logical conjunction with folding.
    pub fn and(a: SymVal, b: SymVal) -> SymVal {
        SymVal::bin(BinOp::And, a, b)
    }

    /// Logical negation with folding (double negation, concrete bools,
    /// comparison inversion).
    pub fn negate(v: SymVal) -> SymVal {
        use BinOp::*;
        match v {
            SymVal::Bool(b) => SymVal::Bool(!b),
            SymVal::Not(inner) => *inner,
            SymVal::Bin(Eq, a, b) => SymVal::Bin(Ne, a, b),
            SymVal::Bin(Ne, a, b) => SymVal::Bin(Eq, a, b),
            SymVal::Bin(Lt, a, b) => SymVal::Bin(Ge, a, b),
            SymVal::Bin(Ge, a, b) => SymVal::Bin(Lt, a, b),
            SymVal::Bin(Gt, a, b) => SymVal::Bin(Le, a, b),
            SymVal::Bin(Le, a, b) => SymVal::Bin(Gt, a, b),
            SymVal::MapContains(m, k) => SymVal::Not(Box::new(SymVal::MapContains(m, k))),
            other => SymVal::Not(Box::new(other)),
        }
    }

    /// Project element `i` from a tuple-valued term.
    pub fn proj(v: SymVal, i: usize) -> SymVal {
        match v {
            SymVal::Tuple(es) if i < es.len() => es[i].clone(),
            other => SymVal::Proj(Box::new(other), i),
        }
    }

    /// Call `f` on every node of the term, each before its children.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a SymVal)) {
        f(self);
        match self {
            SymVal::Tuple(es) | SymVal::Array(es) => es.iter().for_each(|e| e.walk(f)),
            SymVal::Bin(_, a, b)
            | SymVal::ArrayGet(a, b)
            | SymVal::Min(a, b)
            | SymVal::Max(a, b) => {
                a.walk(f);
                b.walk(f);
            }
            SymVal::Not(a)
            | SymVal::Neg(a)
            | SymVal::Hash(a)
            | SymVal::Proj(a, _)
            | SymVal::MapGet(_, a)
            | SymVal::MapContains(_, a) => a.walk(f),
            _ => {}
        }
    }

    /// The distinct free variables of the term — its `Pkt`, `Cfg`, `St`
    /// and `Var` leaves — in order of first occurrence.
    pub fn free_vars(&self) -> Vec<&SymVal> {
        let mut out: Vec<&SymVal> = Vec::new();
        self.walk(&mut |v| {
            if v.var_parts(Style::Full).is_some() && !out.contains(&v) {
                out.push(v);
            }
        });
        out
    }

    /// Which variable classes the term mentions (Algorithm 1's pktVars,
    /// cfgVars and oisVars).
    pub fn mentions(&self) -> Mentions {
        let mut m = Mentions::default();
        self.walk(&mut |v| match v {
            SymVal::Pkt(_) => m.pkt = true,
            SymVal::Var(name) if name.starts_with("pkt.") => m.pkt = true,
            SymVal::Cfg(_) => m.cfg = true,
            SymVal::St(_) | SymVal::MapGet(..) | SymVal::MapContains(..) => m.state = true,
            _ => {}
        });
        m
    }
}

/// The variable classes a term mentions — see [`SymVal::mentions`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mentions {
    /// A packet field, or a packet property no field names (`pkt.len`).
    pub pkt: bool,
    /// A scalar config.
    pub cfg: bool,
    /// A scalar state, or any map read or membership test.
    pub state: bool,
}

/// How a term writes its variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Style {
    /// `Display`'s: every variable carries its class prefix.
    Full,
    /// The Figure 6 table's (see [`SymVal::short`]).
    Short,
}

/// A term or map op written in the Figure 6 table's style; see
/// [`SymVal::short`] and [`MapOp::short`].
#[derive(Debug, Clone, Copy)]
pub struct Short<'a, T>(&'a T);

impl SymVal {
    fn write(&self, f: &mut fmt::Formatter<'_>, style: Style) -> fmt::Result {
        match self {
            SymVal::Int(v) => write!(f, "{v}"),
            SymVal::Bool(b) => write!(f, "{b}"),
            SymVal::Str(s) => write!(f, "{s:?}"),
            SymVal::Pkt(_) | SymVal::Cfg(_) | SymVal::St(_) | SymVal::Var(_) => {
                let (prefix, name) = self.var_parts(style).unwrap_or_default();
                write!(f, "{prefix}{name}")
            }
            SymVal::Tuple(es) => write_list(f, style, "(", es, ")"),
            SymVal::Array(es) => write_list(f, style, "[", es, "]"),
            SymVal::Bin(op, a, b) => {
                f.write_str("(")?;
                a.write(f, style)?;
                write!(f, " {} ", op.symbol())?;
                b.write(f, style)?;
                f.write_str(")")
            }
            SymVal::Not(a) => write_list(f, style, "!(", [&**a], ")"),
            SymVal::Neg(a) => write_list(f, style, "-(", [&**a], ")"),
            SymVal::Hash(a) => write_list(f, style, "hash(", [&**a], ")"),
            SymVal::Min(a, b) => write_list(f, style, "min(", [&**a, &**b], ")"),
            SymVal::Max(a, b) => write_list(f, style, "max(", [&**a, &**b], ")"),
            SymVal::MapGet(m, k) => {
                write!(f, "{m}[")?;
                k.write(f, style)?;
                f.write_str("]")
            }
            SymVal::MapContains(m, k) => {
                f.write_str("(")?;
                k.write(f, style)?;
                write!(f, " in {m})")
            }
            SymVal::ArrayGet(a, i) => {
                a.write(f, style)?;
                f.write_str("[")?;
                i.write(f, style)?;
                f.write_str("]")
            }
            SymVal::Proj(a, i) => {
                a.write(f, style)?;
                write!(f, ".{i}")
            }
        }
    }
}

/// `open`, the terms `es` separated by `, `, then `close`.
fn write_list<'t>(
    f: &mut fmt::Formatter<'_>,
    style: Style,
    open: &str,
    es: impl IntoIterator<Item = &'t SymVal>,
    close: &str,
) -> fmt::Result {
    f.write_str(open)?;
    for (i, e) in es.into_iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        e.write(f, style)?;
    }
    f.write_str(close)
}

impl fmt::Display for SymVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, Style::Full)
    }
}

impl fmt::Display for Short<'_, SymVal> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.write(f, Style::Short)
    }
}

/// A symbolic packet: every header field is a term. A fresh input packet
/// has `field → Pkt(field)`; rewrites replace entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymPacket {
    /// Field terms.
    pub fields: BTreeMap<Field, SymVal>,
}

impl SymPacket {
    /// A fully symbolic packet whose fields are free variables named
    /// after their paths.
    pub fn fresh() -> SymPacket {
        SymPacket {
            fields: Field::ALL.iter().map(|&f| (f, SymVal::Pkt(f))).collect(),
        }
    }

    /// Read a field term.
    pub fn get(&self, f: Field) -> SymVal {
        self.fields.get(&f).cloned().unwrap_or(SymVal::Pkt(f))
    }

    /// Write a field term.
    pub fn set(&mut self, f: Field, v: SymVal) {
        self.fields.insert(f, v);
    }

    /// The fields whose terms differ from the fresh packet — the header
    /// rewrites this path performs (the model's flow action).
    pub fn rewrites(&self) -> Vec<(Field, SymVal)> {
        self.fields
            .iter()
            .filter(|(f, v)| **v != SymVal::Pkt(**f))
            .map(|(f, v)| (*f, v.clone()))
            .collect()
    }
}

impl Default for SymPacket {
    fn default() -> Self {
        SymPacket::fresh()
    }
}

/// A state-map mutation recorded along a path (the model's state
/// transition for dictionary state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapOp {
    /// `map[key] = value`.
    Insert {
        /// Map name.
        map: String,
        /// Key term.
        key: SymVal,
        /// Value term.
        value: SymVal,
    },
    /// `map_remove(map, key)`.
    Remove {
        /// Map name.
        map: String,
        /// Key term.
        key: SymVal,
    },
}

impl MapOp {
    /// The op in the Figure 6 table's style (see [`SymVal::short`]).
    pub fn short(&self) -> Short<'_, MapOp> {
        Short(self)
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, style: Style) -> fmt::Result {
        match self {
            MapOp::Insert { map, key, value } => {
                write!(f, "{map}[")?;
                key.write(f, style)?;
                f.write_str("] := ")?;
                value.write(f, style)
            }
            MapOp::Remove { map, key } => {
                write!(f, "del {map}[")?;
                key.write(f, style)?;
                f.write_str("]")
            }
        }
    }
}

impl fmt::Display for MapOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, Style::Full)
    }
}

impl fmt::Display for Short<'_, MapOp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.write(f, Style::Short)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_support::check::{check, identifier, Config};

    #[test]
    fn constant_folding() {
        assert_eq!(
            SymVal::bin(BinOp::Add, SymVal::Int(2), SymVal::Int(3)),
            SymVal::Int(5)
        );
        assert_eq!(
            SymVal::bin(BinOp::Eq, SymVal::Int(2), SymVal::Int(3)),
            SymVal::Bool(false)
        );
        assert_eq!(
            SymVal::bin(BinOp::Mod, SymVal::Int(-1), SymVal::Int(5)),
            SymVal::Int(4),
            "euclidean mod like the interpreter"
        );
    }

    #[test]
    fn short_style_drops_prefixes_but_not_literal_text() {
        let t = SymVal::bin(
            BinOp::Eq,
            SymVal::Pkt(Field::IpSrc),
            SymVal::St("idx".into()),
        );
        assert_eq!(t.to_string(), "(pkt.ip.src == st:idx)");
        assert_eq!(t.short().to_string(), "(f.ip.src == idx)");
        assert_eq!(SymVal::pkt_len().short().to_string(), "f.len");
        let lit = SymVal::Str("pkt.x cfg:y st:z".into());
        assert_eq!(lit.short().to_string(), lit.to_string());
        let op = MapOp::Insert {
            map: "m".into(),
            key: SymVal::Cfg("k".into()),
            value: SymVal::Int(1),
        };
        assert_eq!(op.to_string(), "m[cfg:k] := 1");
        assert_eq!(op.short().to_string(), "m[k] := 1");
    }

    #[test]
    fn symbolic_stays_symbolic() {
        let v = SymVal::bin(BinOp::Add, SymVal::Var("x".into()), SymVal::Int(1));
        assert!(!v.is_concrete());
        assert_eq!(v.to_string(), "(x + 1)");
    }

    #[test]
    fn negate_inverts_comparisons() {
        let lt = SymVal::bin(BinOp::Lt, SymVal::Var("x".into()), SymVal::Int(5));
        let ge = SymVal::negate(lt);
        assert_eq!(ge.to_string(), "(x >= 5)");
        let back = SymVal::negate(SymVal::negate(SymVal::Var("b".into())));
        assert_eq!(back, SymVal::Var("b".into()));
    }

    #[test]
    fn identity_equality_folds() {
        let x = SymVal::Var("x".into());
        assert_eq!(
            SymVal::bin(BinOp::Eq, x.clone(), x.clone()),
            SymVal::Bool(true)
        );
        assert_eq!(SymVal::bin(BinOp::Ne, x.clone(), x), SymVal::Bool(false));
    }

    #[test]
    fn tuple_equality_decomposes() {
        let t1 = SymVal::Tuple(vec![SymVal::Var("a".into()), SymVal::Int(1)]);
        let t2 = SymVal::Tuple(vec![SymVal::Int(5), SymVal::Int(1)]);
        let eq = SymVal::bin(BinOp::Eq, t1, t2);
        // (a == 5) && true  →  (a == 5)
        assert_eq!(eq.to_string(), "(a == 5)");
    }

    #[test]
    fn boolean_identities() {
        let x = SymVal::Var("x".into());
        assert_eq!(SymVal::and(SymVal::Bool(true), x.clone()), x);
        assert_eq!(
            SymVal::and(SymVal::Bool(false), x.clone()),
            SymVal::Bool(false)
        );
    }

    #[test]
    fn fresh_packet_and_rewrites() {
        let mut p = SymPacket::fresh();
        assert!(p.rewrites().is_empty());
        p.set(Field::IpSrc, SymVal::Int(0x03030303));
        let rw = p.rewrites();
        assert_eq!(rw.len(), 1);
        assert_eq!(rw[0].0, Field::IpSrc);
    }

    #[test]
    fn free_vars_collects() {
        let rr_idx = SymVal::St("rr_idx".into());
        let v = SymVal::bin(
            BinOp::Add,
            rr_idx.clone(),
            SymVal::MapGet(
                "nat".into(),
                Box::new(SymVal::Tuple(vec![
                    SymVal::Pkt(Field::IpSrc),
                    rr_idx.clone(),
                ])),
            ),
        );
        assert_eq!(v.free_vars(), vec![&rr_idx, &SymVal::Pkt(Field::IpSrc)]);
        assert_eq!(
            v.mentions(),
            Mentions {
                pkt: true,
                cfg: false,
                state: true
            }
        );
        // A map read alone is a state mention; a config alone is neither
        // packet nor state.
        let read = SymVal::MapGet("nat".into(), Box::new(SymVal::Int(1)));
        assert!(read.free_vars().is_empty());
        assert!(read.mentions().state);
        let cfg = SymVal::Cfg("mode".into()).mentions();
        assert!(cfg.cfg && !cfg.pkt && !cfg.state);
    }

    #[test]
    fn pkt_len_is_a_packet_mention_of_no_field() {
        let lit = SymVal::bin(BinOp::Gt, SymVal::pkt_len(), SymVal::Cfg("MTU".into()));
        let m = lit.mentions();
        assert!(m.pkt && m.cfg && !m.state);
        assert_eq!(SymVal::pkt_len().to_string(), "pkt.len");
        assert!(!SymVal::map_len("nat").mentions().pkt);
    }

    #[test]
    fn var_reads_back_every_rendered_variable() {
        for f in Field::ALL {
            let v = SymVal::Pkt(f);
            assert_eq!(v.to_string(), format!("pkt.{}", f.path()));
            assert_eq!(SymVal::var(&v.to_string()), v);
            assert_eq!(v.var_name(), Some(v.to_string()));
        }
        check(
            "cfg_and_st_names_roundtrip",
            &Config::with_cases(64),
            &identifier(8),
            |name| {
                for v in [SymVal::Cfg(name.clone()), SymVal::St(name.clone())] {
                    assert_eq!(SymVal::var(&v.to_string()), v);
                    assert_eq!(v.var_name(), Some(v.to_string()));
                }
            },
        );
        // Names of no class stay untyped.
        for name in ["pkt.len", "pkt.nonsense", "len:nat", "checksum(pkt)", "x"] {
            assert_eq!(SymVal::var(name), SymVal::Var(name.into()), "{name}");
            assert_eq!(SymVal::var(name).to_string(), name);
        }
        assert_eq!(SymVal::var("pkt.len"), SymVal::pkt_len());
        assert_eq!(SymVal::var("len:nat"), SymVal::map_len("nat"));
        assert_eq!(SymVal::var("checksum(pkt)"), SymVal::checksum());
        assert_eq!(SymVal::Int(3).var_name(), None);
    }

    #[test]
    fn key_fields_of_packet_keys_only() {
        let (src, sport) = (SymVal::Pkt(Field::IpSrc), SymVal::Pkt(Field::TcpSport));
        assert_eq!(
            SymVal::Tuple(vec![src.clone(), sport.clone()]).key_fields(),
            Some(vec![Field::IpSrc, Field::TcpSport])
        );
        assert_eq!(sport.key_fields(), Some(vec![Field::TcpSport]));
        let plus_one = SymVal::bin(BinOp::Add, src.clone(), SymVal::Int(1));
        for key in [
            SymVal::Tuple(vec![src.clone(), SymVal::St("port".into())]),
            SymVal::Tuple(vec![SymVal::Cfg("net".into()), sport]),
            SymVal::St("idx".into()),
            SymVal::Cfg("ip".into()),
            SymVal::Tuple(vec![plus_one.clone(), src]),
            plus_one,
            SymVal::pkt_len(),
        ] {
            assert_eq!(key.key_fields(), None, "{key}");
        }
    }

    #[test]
    fn proj_folds_on_tuples() {
        let t = SymVal::Tuple(vec![SymVal::Int(1), SymVal::Var("x".into())]);
        assert_eq!(SymVal::proj(t, 1), SymVal::Var("x".into()));
        let opaque = SymVal::MapGet("m".into(), Box::new(SymVal::Int(1)));
        assert_eq!(
            SymVal::proj(opaque.clone(), 0),
            SymVal::Proj(Box::new(opaque), 0)
        );
    }

    #[test]
    fn display_figure6_action_shape() {
        // send(f, server[idx]) — array get with symbolic state index.
        let term = SymVal::ArrayGet(
            Box::new(SymVal::Array(vec![
                SymVal::Tuple(vec![SymVal::Int(1), SymVal::Int(80)]),
                SymVal::Tuple(vec![SymVal::Int(2), SymVal::Int(80)]),
            ])),
            Box::new(SymVal::St("rr_idx".into())),
        );
        assert!(term.to_string().contains("st:rr_idx"));
    }
}
