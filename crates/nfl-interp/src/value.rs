//! Runtime values.
//!
//! NFL has value semantics throughout — assigning a packet or map copies
//! it. (The paper's Python example mutates one packet object in place; our
//! corpus programs never alias, so value semantics is observationally
//! identical and far easier to reason about in the symbolic executor.)

use nf_packet::Packet;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A hashable map key: the subset of values NFL allows as dictionary keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueKey {
    /// Integer key.
    Int(i64),
    /// Boolean key.
    Bool(bool),
    /// String key.
    Str(String),
    /// Flat integer tuple key (NAT 4-tuples).
    Tuple(Vec<i64>),
}

impl fmt::Display for ValueKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueKey::Int(v) => write!(f, "{v}"),
            ValueKey::Bool(b) => write!(f, "{b}"),
            ValueKey::Str(s) => write!(f, "{s:?}"),
            ValueKey::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A runtime value. The two large payloads, a packet and a packet
/// queue, are boxed, so a value takes 32 bytes instead of 72: every map
/// entry, undo record and merged entry holds one.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Flat integer tuple.
    Tuple(Vec<i64>),
    /// Array of values.
    Array(Vec<Value>),
    /// Dictionary. `BTreeMap` keeps iteration deterministic.
    Map(BTreeMap<ValueKey, Value>),
    /// A packet.
    Packet(Box<Packet>),
    /// A packet FIFO (consumer-producer programs).
    Queue(Box<VecDeque<Packet>>),
    /// No value.
    Unit,
}

impl Value {
    /// Convert to a map key, if this value is keyable.
    pub fn as_key(&self) -> Option<ValueKey> {
        match self {
            Value::Int(v) => Some(ValueKey::Int(*v)),
            Value::Bool(b) => Some(ValueKey::Bool(*b)),
            Value::Str(s) => Some(ValueKey::Str(s.clone())),
            Value::Tuple(t) => Some(ValueKey::Tuple(t.clone())),
            _ => None,
        }
    }

    /// [`as_key`](Self::as_key) for a value that is not needed
    /// afterwards: a string's or tuple's buffer moves into the key
    /// instead of being copied.
    pub fn into_key(self) -> Option<ValueKey> {
        match self {
            Value::Int(v) => Some(ValueKey::Int(v)),
            Value::Bool(b) => Some(ValueKey::Bool(b)),
            Value::Str(s) => Some(ValueKey::Str(s)),
            Value::Tuple(t) => Some(ValueKey::Tuple(t)),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Packet view.
    pub fn as_packet(&self) -> Option<&Packet> {
        match self {
            Value::Packet(p) => Some(p.as_ref()),
            _ => None,
        }
    }

    /// A short type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
            Value::Tuple(_) => "tuple",
            Value::Array(_) => "array",
            Value::Map(_) => "map",
            Value::Packet(_) => "packet",
            Value::Queue(_) => "queue",
            Value::Unit => "unit",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Packet(p) => write!(f, "<{p}>"),
            Value::Queue(q) => write!(f, "<queue len={}>", q.len()),
            Value::Unit => write!(f, "()"),
        }
    }
}

/// Deterministic FNV-1a hash of a value — the `hash()` builtin. Stable
/// across runs and platforms so model/program equivalence is meaningful.
pub fn stable_hash(v: &Value) -> i64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fn mix(h: &mut u64, bytes: &[u8]) {
        for b in bytes {
            *h ^= u64::from(*b);
            *h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    fn go(v: &Value, h: &mut u64) {
        match v {
            Value::Int(i) => mix(h, &i.to_le_bytes()),
            Value::Bool(b) => mix(h, &[u8::from(*b)]),
            Value::Str(s) => mix(h, s.as_bytes()),
            Value::Tuple(t) => {
                for i in t {
                    mix(h, &i.to_le_bytes());
                }
            }
            Value::Array(a) => {
                for x in a {
                    go(x, h);
                }
            }
            Value::Map(m) => {
                for (k, x) in m {
                    mix(h, k.to_string().as_bytes());
                    go(x, h);
                }
            }
            Value::Packet(p) => mix(h, &p.to_wire()),
            Value::Queue(q) => {
                for p in q.iter() {
                    mix(h, &p.to_wire());
                }
            }
            Value::Unit => {}
        }
    }
    go(v, &mut h);
    // Keep it positive so `hash(x) % n` behaves like the paper's Python.
    (h & 0x7fff_ffff_ffff_ffff) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_roundtrip() {
        assert_eq!(Value::Int(7).as_key(), Some(ValueKey::Int(7)));
        assert_eq!(
            Value::Tuple(vec![1, 2]).as_key(),
            Some(ValueKey::Tuple(vec![1, 2]))
        );
        assert_eq!(Value::Array(vec![]).as_key(), None);
        for v in [
            Value::Int(7),
            Value::Bool(true),
            Value::Str("k".into()),
            Value::Tuple(vec![1, 2]),
            Value::Unit,
        ] {
            assert_eq!(v.as_key(), v.clone().into_key());
        }
    }

    #[test]
    fn stable_hash_is_deterministic_and_positive() {
        let v = Value::Tuple(vec![167772161, 1234, 50529027, 80]);
        assert_eq!(stable_hash(&v), stable_hash(&v.clone()));
        assert!(stable_hash(&v) >= 0);
        assert_ne!(stable_hash(&v), stable_hash(&Value::Int(0)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Tuple(vec![1, 2]).to_string(), "(1, 2)");
        let mut m = BTreeMap::new();
        m.insert(ValueKey::Int(1), Value::Int(2));
        assert_eq!(Value::Map(m).to_string(), "{1: 2}");
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Unit.type_name(), "unit");
        assert_eq!(Value::Queue(Box::default()).type_name(), "queue");
    }

    #[test]
    fn a_value_takes_four_words() {
        // 32 bytes on a 64-bit target.
        assert_eq!(
            std::mem::size_of::<Value>(),
            4 * std::mem::size_of::<usize>()
        );
    }
}
