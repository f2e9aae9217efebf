//! The compiled expression IR.
//!
//! A [`CExpr`] is a [`SymVal`](nfl_symex::SymVal) with every name
//! resolved at compile time: configuration variables are folded to
//! their concrete [`Value`]s (configs never change at runtime — only
//! `st:` scalars and maps are written by state actions), state scalars
//! become slot indices and state maps arena indices of the program's
//! store layout. Closed subterms are folded to constants as they are
//! built ([`fold`]), through the same fast path that runs at packet
//! time.
//!
//! # The fast path
//!
//! The one definition of what a term means is the model evaluator,
//! `nf_model::ModelState::eval`: short-circuit `&&`/`||`, euclidean `%`,
//! wrapping arithmetic, the interpreter's `stable_hash`, and every
//! error. The runtime evaluates terms through a fast path on [`RunEnv`]
//! that computes the same values without building them, with one entry
//! point per result type:
//!
//! * [`fast_bool`](RunEnv::fast_bool): residual literals and state
//!   predicates;
//! * [`fast_int`](RunEnv::fast_int): rewrites;
//! * [`fast_key`](RunEnv::fast_key): map-op keys, and the keys of
//!   `MapGet` and `MapContains`, built straight into a [`ValueKey`]
//!   (one allocation per tuple key);
//! * [`fast_value`](RunEnv::fast_value): updates and inserted values.
//!
//! Integers and booleans stay unboxed, and constants, slots and map
//! entries are read by reference. With a [`Probes`] memo, each
//! `(map, key term)` pair the program reads is built and probed once
//! per step, whichever terms read it. An entry point answers (`Some`)
//! only where the model evaluator returns `Ok` with the same value on
//! the term this one was lowered from (for keys, `as_key` of it).
//! Otherwise it declines (`None`), and the compiled step hands the
//! whole packet to the reference step (see [`crate::exec`]), so the
//! fast path never produces a value or an error of its own. It declines
//! on every term the reference fails on, and answers every term it
//! succeeds on except one shape: a term containing an array literal
//! that did not fold to a constant.

use nf_packet::{Field, Packet};
use nfl_interp::value::{stable_hash, Value, ValueKey};
use nfl_lang::BinOp;
use std::cell::Cell;

/// A compile-time-resolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A concrete value (literals, folded configs, folded subterms).
    Const(Value),
    /// A packet header field read.
    Pkt(Field),
    /// A scalar state read from arena slot `i`.
    Slot(usize),
    /// A term that can never evaluate (an unset config, a free
    /// variable): the fast path declines it, and the reference step
    /// raises the error. The message is for display only.
    Stuck(String),
    /// Tuple of terms.
    Tuple(Vec<CExpr>),
    /// Array of terms.
    Array(Vec<CExpr>),
    /// Binary operation.
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    /// Logical negation.
    Not(Box<CExpr>),
    /// Arithmetic negation.
    Neg(Box<CExpr>),
    /// The interpreter's stable hash.
    Hash(Box<CExpr>),
    /// Minimum of two integer terms.
    Min(Box<CExpr>, Box<CExpr>),
    /// Maximum of two integer terms.
    Max(Box<CExpr>, Box<CExpr>),
    /// Read of state map `i` at a key.
    MapGet(usize, Box<CExpr>),
    /// Membership test of state map `i` at a key.
    MapContains(usize, Box<CExpr>),
    /// Array read with a computed index.
    ArrayGet(Box<CExpr>, Box<CExpr>),
    /// Tuple projection.
    Proj(Box<CExpr>, usize),
}

impl CExpr {
    /// The concrete value, if this node is one.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            CExpr::Const(v) => Some(v),
            _ => None,
        }
    }

    /// The concrete integer, if this node is one.
    pub fn as_const_int(&self) -> Option<i64> {
        self.as_const().and_then(|v| v.as_int())
    }
}

/// The per-packet runtime environment: `'a` borrows the packet and the
/// state, `'p` the step's probe memo.
pub struct RunEnv<'a, 'p> {
    /// The packet being classified.
    pub pkt: &'a Packet,
    /// Scalar slots (`None` = unset), as in `ModelState::scalars`.
    pub slots: &'a [Option<Value>],
    /// Map arenas, as in `ModelState::maps`.
    pub maps: &'a [std::collections::HashMap<ValueKey, Value>],
    /// The step's probe memo; `None` probes every map read afresh.
    pub probes: Option<Probes<'a, 'p>>,
}

/// One probe-memo slot: `None` until the step first reads its
/// `(map, key term)`, then what that probe found.
pub(crate) type ProbeSlot<'a> = Cell<Option<Option<&'a Value>>>;

/// Probe-memo slots per step. The step keeps them on its stack, so the
/// memo never allocates; a program's first `PROBE_SLOTS` distinct
/// `(map, key term)` pairs (state tags' first) are memoised, and reads
/// of any further pair probe afresh.
pub(crate) const PROBE_SLOTS: usize = 8;

/// A step's probe memo: the fast path builds the key of each
/// `(map, key term)` pair the program reads, and probes the map, once
/// per step, and serves every later read of the pair from here. The
/// state does not change while a step evaluates, so within a step
/// equal pairs always find the same entry.
#[derive(Clone, Copy)]
pub struct Probes<'a, 'p> {
    /// Per map, the program's distinct key terms with their slots.
    keys: &'p [Vec<(CExpr, usize)>],
    slots: &'p [ProbeSlot<'a>],
}

impl<'a, 'p> Probes<'a, 'p> {
    pub(crate) fn new(keys: &'p [Vec<(CExpr, usize)>], slots: &'p [ProbeSlot<'a>]) -> Self {
        Probes { keys, slots }
    }

    /// The slot of `(map, key)`, if the program reads that pair and it
    /// has one. The lookup compares the key term with the map's few
    /// interned ones; it never hashes a term.
    #[inline]
    fn slot(&self, map: usize, key: &CExpr) -> Option<&'p ProbeSlot<'a>> {
        let keys = self.keys.get(map)?;
        let &(_, slot) = keys.iter().find(|(k, _)| k == key)?;
        self.slots.get(slot)
    }
}

/// A fast-path result: an unboxed integer or boolean, or a borrowed
/// value of any other type. It never owns a [`Value`].
#[derive(Clone, Copy)]
enum Fast<'v> {
    Int(i64),
    Bool(bool),
    /// Never an integer or a boolean: [`Fast::of`] unboxes those.
    Ref(&'v Value),
}

impl<'v> Fast<'v> {
    #[inline]
    fn of(v: &'v Value) -> Fast<'v> {
        match v {
            Value::Int(x) => Fast::Int(*x),
            Value::Bool(b) => Fast::Bool(*b),
            other => Fast::Ref(other),
        }
    }

    /// `Value` equality, without building either side.
    #[inline]
    fn same(self, other: Fast<'_>) -> bool {
        match (self, other) {
            (Fast::Int(x), Fast::Int(y)) => x == y,
            (Fast::Bool(x), Fast::Bool(y)) => x == y,
            (Fast::Ref(a), Fast::Ref(b)) => a == b,
            _ => false,
        }
    }

    fn to_value(self) -> Value {
        match self {
            Fast::Int(x) => Value::Int(x),
            Fast::Bool(b) => Value::Bool(b),
            Fast::Ref(v) => v.clone(),
        }
    }
}

/// The model evaluator's integer arithmetic on two integers (wrapping,
/// euclidean `%`), for the operators that yield an integer; `None`
/// where it errs (division by zero) or yields a boolean.
#[inline]
fn int_bin(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div if y != 0 => x.wrapping_div(y),
        BinOp::Mod if y != 0 => x.rem_euclid(y),
        BinOp::BitAnd => x & y,
        BinOp::BitOr => x | y,
        _ => return None,
    })
}

#[inline]
fn is_arith(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add
            | BinOp::Sub
            | BinOp::Mul
            | BinOp::Div
            | BinOp::Mod
            | BinOp::BitAnd
            | BinOp::BitOr
    )
}

/// The fast path (see the module docs). Each entry point answers only
/// where the model evaluator returns `Ok` with the same value, and
/// declines (`None`) otherwise.
impl<'a> RunEnv<'a, '_> {
    /// A boolean term: a residual flow literal or a state predicate.
    pub fn fast_bool(&self, term: &CExpr) -> Option<bool> {
        match term {
            CExpr::Bin(BinOp::And, a, b) => Some(self.fast_bool(a)? && self.fast_bool(b)?),
            CExpr::Bin(BinOp::Or, a, b) => Some(self.fast_bool(a)? || self.fast_bool(b)?),
            CExpr::Bin(BinOp::Eq, a, b) => self.fast_eq(a, b),
            CExpr::Bin(BinOp::Ne, a, b) => Some(!self.fast_eq(a, b)?),
            CExpr::Bin(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), a, b) => {
                let (x, y) = (self.int_operand(a)?, self.int_operand(b)?);
                Some(match op {
                    BinOp::Lt => x < y,
                    BinOp::Le => x <= y,
                    BinOp::Gt => x > y,
                    _ => x >= y,
                })
            }
            CExpr::Not(a) => Some(!self.fast_bool(a)?),
            CExpr::MapContains(m, key) => Some(self.probe(*m, key)?.is_some()),
            _ => self.borrow(term)?.as_bool(),
        }
    }

    /// An integer term: a rewrite, or an operand of arithmetic, an
    /// ordering, an index or a tuple item.
    pub fn fast_int(&self, term: &CExpr) -> Option<i64> {
        match term {
            CExpr::Pkt(f) => self.field(*f),
            CExpr::Bin(op, a, b) if is_arith(*op) => {
                int_bin(*op, self.int_operand(a)?, self.int_operand(b)?)
            }
            CExpr::Neg(a) => Some(-self.int_operand(a)?),
            CExpr::Min(a, b) => Some(self.int_operand(a)?.min(self.int_operand(b)?)),
            CExpr::Max(a, b) => Some(self.int_operand(a)?.max(self.int_operand(b)?)),
            CExpr::Hash(a) => Some(match &**a {
                CExpr::Tuple(items) => stable_hash(&Value::Tuple(self.ints(items)?)),
                _ => match self.operand(a)? {
                    Fast::Int(x) => stable_hash(&Value::Int(x)),
                    Fast::Bool(b) => stable_hash(&Value::Bool(b)),
                    Fast::Ref(v) => stable_hash(v),
                },
            }),
            CExpr::Proj(base, i) => match &**base {
                // The reference builds the whole tuple before projecting,
                // so every item must be an integer.
                CExpr::Tuple(items) => {
                    let mut picked = None;
                    for (j, e) in items.iter().enumerate() {
                        let x = self.int_operand(e)?;
                        if j == *i {
                            picked = Some(x);
                        }
                    }
                    picked
                }
                _ => match self.borrow(base)? {
                    Value::Tuple(items) => items.get(*i).copied(),
                    _ => None,
                },
            },
            _ => self.borrow(term)?.as_int(),
        }
    }

    /// A map key: `as_key` of the term's value, built straight into the
    /// key type.
    pub fn fast_key(&self, term: &CExpr) -> Option<ValueKey> {
        if let CExpr::Tuple(items) = term {
            return self.ints(items).map(ValueKey::Tuple);
        }
        match self.fast(term)? {
            Fast::Int(x) => Some(ValueKey::Int(x)),
            Fast::Bool(b) => Some(ValueKey::Bool(b)),
            Fast::Ref(v) => v.as_key(),
        }
    }

    /// A term of any type, owned: a scalar update or an inserted map
    /// value.
    pub fn fast_value(&self, term: &CExpr) -> Option<Value> {
        match term {
            CExpr::Tuple(items) => self.ints(items).map(Value::Tuple),
            _ => self.fast(term).map(Fast::to_value),
        }
    }

    /// Map `m`'s entry at `key`'s value (`Some(None)` when absent), or
    /// `None` where the key does not build. With a probe memo the key
    /// is built and probed once per step.
    #[inline]
    fn probe(&self, m: usize, key: &CExpr) -> Option<Option<&'a Value>> {
        let slot = self.probes.and_then(|p| p.slot(m, key));
        if let Some(found) = slot.and_then(Cell::get) {
            return Some(found);
        }
        let maps: &'a [std::collections::HashMap<ValueKey, Value>] = self.maps;
        let found = maps[m].get(&self.fast_key(key)?);
        if let Some(slot) = slot {
            slot.set(Some(found));
        }
        Some(found)
    }

    /// The items of a tuple term, each of which must be an integer.
    fn ints(&self, items: &[CExpr]) -> Option<Vec<i64>> {
        let mut out = Vec::with_capacity(items.len());
        for e in items {
            out.push(self.int_operand(e)?);
        }
        Some(out)
    }

    #[inline]
    fn field(&self, f: Field) -> Option<i64> {
        self.pkt.get(f).ok().map(|raw| raw as i64)
    }

    /// `a == b`, evaluating both sides as the reference does.
    #[inline]
    fn fast_eq(&self, a: &CExpr, b: &CExpr) -> Option<bool> {
        match (a, b) {
            (CExpr::Tuple(_), _) | (_, CExpr::Tuple(_)) => {
                Some(self.fast_value(a)? == self.fast_value(b)?)
            }
            _ => Some(self.operand(a)?.same(self.operand(b)?)),
        }
    }

    /// [`fast`](Self::fast), with the leaves most operands are (fields
    /// and constants) inlined into the caller.
    #[inline(always)]
    fn operand<'s>(&'s self, term: &'s CExpr) -> Option<Fast<'s>> {
        match term {
            CExpr::Const(v) => Some(Fast::of(v)),
            CExpr::Pkt(f) => self.field(*f).map(Fast::Int),
            _ => self.fast(term),
        }
    }

    /// [`fast_int`](Self::fast_int), with its leaves inlined likewise.
    #[inline(always)]
    fn int_operand(&self, term: &CExpr) -> Option<i64> {
        match term {
            CExpr::Const(v) => v.as_int(),
            CExpr::Pkt(f) => self.field(*f),
            _ => self.fast_int(term),
        }
    }

    /// A term of any type except a tuple or array built from terms,
    /// unboxed or borrowed.
    fn fast<'s>(&'s self, term: &'s CExpr) -> Option<Fast<'s>> {
        Some(match term {
            CExpr::Const(v) => Fast::of(v),
            CExpr::Pkt(f) => Fast::Int(self.field(*f)?),
            CExpr::Slot(i) => Fast::of(self.slots[*i].as_ref()?),
            CExpr::MapGet(..) | CExpr::ArrayGet(..) => Fast::of(self.borrow(term)?),
            CExpr::Bin(op, ..) if !is_arith(*op) => Fast::Bool(self.fast_bool(term)?),
            CExpr::Not(_) | CExpr::MapContains(..) => Fast::Bool(self.fast_bool(term)?),
            CExpr::Bin(..)
            | CExpr::Neg(_)
            | CExpr::Hash(_)
            | CExpr::Min(..)
            | CExpr::Max(..)
            | CExpr::Proj(..) => Fast::Int(self.fast_int(term)?),
            CExpr::Stuck(_) | CExpr::Tuple(_) | CExpr::Array(_) => return None,
        })
    }

    /// The value a constant, slot, map entry or array element holds,
    /// by reference.
    fn borrow<'s>(&'s self, term: &'s CExpr) -> Option<&'s Value> {
        match term {
            CExpr::Const(v) => Some(v),
            CExpr::Slot(i) => self.slots[*i].as_ref(),
            CExpr::MapGet(m, key) => self.probe(*m, key)?,
            CExpr::ArrayGet(base, idx) => match self.borrow(base)? {
                Value::Array(items) => items.get(usize::try_from(self.int_operand(idx)?).ok()?),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Fold a freshly built node whose children are constants into a
/// constant: a tuple of integers or an array becomes its value, and any
/// other such node the value the fast path gives it. A node the fast
/// path declines (a division by zero, an ill-typed operand) stays
/// unfolded, so the reference step raises its error at packet time, on
/// the packets that reach it.
pub fn fold(e: CExpr) -> CExpr {
    // A closed node reads no packet field, slot or map.
    let closed = |e: &CExpr| {
        let pkt = Packet::default();
        let env = RunEnv {
            pkt: &pkt,
            slots: &[],
            maps: &[],
            probes: None,
        };
        env.fast_value(e)
    };
    let value = match &e {
        CExpr::Tuple(es) => es
            .iter()
            .map(CExpr::as_const_int)
            .collect::<Option<_>>()
            .map(Value::Tuple),
        CExpr::Array(es) => es
            .iter()
            .map(|c| c.as_const().cloned())
            .collect::<Option<_>>()
            .map(Value::Array),
        CExpr::Bin(_, a, b) | CExpr::Min(a, b) | CExpr::Max(a, b) | CExpr::ArrayGet(a, b)
            if a.as_const().is_some() && b.as_const().is_some() =>
        {
            closed(&e)
        }
        CExpr::Not(a) | CExpr::Neg(a) | CExpr::Hash(a) | CExpr::Proj(a, _)
            if a.as_const().is_some() =>
        {
            closed(&e)
        }
        _ => None,
    };
    value.map_or(e, CExpr::Const)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_closes_arithmetic() {
        let e = fold(CExpr::Bin(
            BinOp::Add,
            Box::new(CExpr::Const(Value::Int(2))),
            Box::new(CExpr::Const(Value::Int(40))),
        ));
        assert_eq!(e, CExpr::Const(Value::Int(42)));
    }

    #[test]
    fn fold_keeps_div_by_zero_for_runtime() {
        let e = fold(CExpr::Bin(
            BinOp::Div,
            Box::new(CExpr::Const(Value::Int(1))),
            Box::new(CExpr::Const(Value::Int(0))),
        ));
        assert!(
            matches!(e, CExpr::Bin(..)),
            "division by zero must not fold"
        );
    }

    #[test]
    fn fold_mirrors_euclidean_mod() {
        let e = fold(CExpr::Bin(
            BinOp::Mod,
            Box::new(CExpr::Const(Value::Int(-7))),
            Box::new(CExpr::Const(Value::Int(3))),
        ));
        assert_eq!(
            e,
            CExpr::Const(Value::Int(2)),
            "rem_euclid, like the interpreter"
        );
    }

    #[test]
    fn fold_hash_matches_stable_hash() {
        let e = fold(CExpr::Hash(Box::new(CExpr::Const(Value::Int(17)))));
        assert_eq!(e, CExpr::Const(Value::Int(stable_hash(&Value::Int(17)))));
    }

    #[test]
    fn fold_builds_int_tuples_and_constant_arrays() {
        let c = |v: Value| CExpr::Const(v);
        let ints = vec![c(Value::Int(1)), c(Value::Int(2))];
        assert_eq!(
            fold(CExpr::Tuple(ints.clone())),
            c(Value::Tuple(vec![1, 2]))
        );
        let mixed = vec![c(Value::Int(1)), c(Value::Bool(true))];
        assert_eq!(
            fold(CExpr::Array(mixed.clone())),
            c(Value::Array(vec![Value::Int(1), Value::Bool(true)]))
        );
        // A tuple item that is not an integer is the reference's error.
        let tuple = CExpr::Tuple(mixed);
        assert_eq!(fold(tuple.clone()), tuple);
        let open = CExpr::Array(vec![c(Value::Int(1)), CExpr::Pkt(Field::IpSrc)]);
        assert_eq!(fold(open.clone()), open);
    }
}
