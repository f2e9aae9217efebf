//! Hand-written JSON serialization for symbolic terms.
//!
//! Replaces the former `serde` derives: each [`SymVal`] node becomes a
//! tagged object (`{"t": "bin", "op": "==", ...}`), so the encoding is
//! explicit, stable across compiler versions, and reviewable in diffs.
//! `from_json(to_json(v)) == v` for every constructible term; the
//! round-trip property is pinned by tests here and in the workspace
//! property suite.

use crate::sym::{MapOp, SymPacket, SymVal};
use nf_support::json::{FromJson, JsonError, ToJson, Value};
use nfl_lang::BinOp;
use std::collections::BTreeMap;

fn op_from_symbol(s: &str) -> Option<BinOp> {
    Some(match s {
        "+" => BinOp::Add,
        "-" => BinOp::Sub,
        "*" => BinOp::Mul,
        "/" => BinOp::Div,
        "%" => BinOp::Mod,
        "==" => BinOp::Eq,
        "!=" => BinOp::Ne,
        "<" => BinOp::Lt,
        "<=" => BinOp::Le,
        ">" => BinOp::Gt,
        ">=" => BinOp::Ge,
        "&&" => BinOp::And,
        "||" => BinOp::Or,
        "&" => BinOp::BitAnd,
        "|" => BinOp::BitOr,
        "in" => BinOp::In,
        "not in" => BinOp::NotIn,
        _ => return None,
    })
}

fn tagged(tag: &str, rest: Vec<(String, Value)>) -> Value {
    let mut fields = vec![("t".to_string(), Value::Str(tag.to_string()))];
    fields.extend(rest);
    Value::Object(fields)
}

fn sub(v: &Value, key: &str) -> Result<SymVal, JsonError> {
    SymVal::from_json(v.field(key)?)
}

fn str_field(v: &Value, key: &str) -> Result<String, JsonError> {
    v.field(key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| JsonError::msg(format!("field '{key}' must be a string")))
}

impl ToJson for SymVal {
    fn to_json(&self) -> Value {
        match self {
            SymVal::Int(v) => tagged("int", vec![("v".into(), Value::Int(*v))]),
            SymVal::Bool(b) => tagged("bool", vec![("v".into(), Value::Bool(*b))]),
            SymVal::Str(s) => tagged("str", vec![("v".into(), Value::Str(s.clone()))]),
            SymVal::Pkt(_) | SymVal::Cfg(_) | SymVal::St(_) | SymVal::Var(_) => {
                tagged("var", vec![("name".into(), Value::Str(self.to_string()))])
            }
            SymVal::Tuple(es) => tagged(
                "tuple",
                vec![(
                    "items".into(),
                    Value::Array(es.iter().map(|e| e.to_json()).collect()),
                )],
            ),
            SymVal::Array(es) => tagged(
                "array",
                vec![(
                    "items".into(),
                    Value::Array(es.iter().map(|e| e.to_json()).collect()),
                )],
            ),
            SymVal::Bin(op, a, b) => tagged(
                "bin",
                vec![
                    ("op".into(), Value::Str(op.symbol().to_string())),
                    ("a".into(), a.to_json()),
                    ("b".into(), b.to_json()),
                ],
            ),
            SymVal::Not(a) => tagged("not", vec![("a".into(), a.to_json())]),
            SymVal::Neg(a) => tagged("neg", vec![("a".into(), a.to_json())]),
            SymVal::Hash(a) => tagged("hash", vec![("a".into(), a.to_json())]),
            SymVal::Min(a, b) => tagged(
                "min",
                vec![("a".into(), a.to_json()), ("b".into(), b.to_json())],
            ),
            SymVal::Max(a, b) => tagged(
                "max",
                vec![("a".into(), a.to_json()), ("b".into(), b.to_json())],
            ),
            SymVal::MapGet(m, k) => tagged(
                "map_get",
                vec![
                    ("map".into(), Value::Str(m.clone())),
                    ("key".into(), k.to_json()),
                ],
            ),
            SymVal::MapContains(m, k) => tagged(
                "map_contains",
                vec![
                    ("map".into(), Value::Str(m.clone())),
                    ("key".into(), k.to_json()),
                ],
            ),
            SymVal::ArrayGet(a, i) => tagged(
                "array_get",
                vec![("base".into(), a.to_json()), ("index".into(), i.to_json())],
            ),
            SymVal::Proj(a, i) => tagged(
                "proj",
                vec![
                    ("base".into(), a.to_json()),
                    ("field".into(), Value::Int(*i as i64)),
                ],
            ),
        }
    }
}

impl FromJson for SymVal {
    fn from_json(v: &Value) -> Result<SymVal, JsonError> {
        let tag = str_field(v, "t")?;
        let items = |v: &Value| -> Result<Vec<SymVal>, JsonError> {
            v.field("items")?
                .as_array()
                .ok_or_else(|| JsonError::msg("'items' must be an array"))?
                .iter()
                .map(SymVal::from_json)
                .collect()
        };
        Ok(match tag.as_str() {
            "int" => SymVal::Int(
                v.field("v")?
                    .as_int()
                    .ok_or_else(|| JsonError::msg("int term needs an integer 'v'"))?,
            ),
            "bool" => SymVal::Bool(
                v.field("v")?
                    .as_bool()
                    .ok_or_else(|| JsonError::msg("bool term needs a boolean 'v'"))?,
            ),
            "str" => SymVal::Str(str_field(v, "v")?),
            "var" => SymVal::var(&str_field(v, "name")?),
            "tuple" => SymVal::Tuple(items(v)?),
            "array" => SymVal::Array(items(v)?),
            "bin" => {
                let sym = str_field(v, "op")?;
                let op = op_from_symbol(&sym)
                    .ok_or_else(|| JsonError::msg(format!("unknown operator '{sym}'")))?;
                SymVal::Bin(op, Box::new(sub(v, "a")?), Box::new(sub(v, "b")?))
            }
            "not" => SymVal::Not(Box::new(sub(v, "a")?)),
            "neg" => SymVal::Neg(Box::new(sub(v, "a")?)),
            "hash" => SymVal::Hash(Box::new(sub(v, "a")?)),
            "min" => SymVal::Min(Box::new(sub(v, "a")?), Box::new(sub(v, "b")?)),
            "max" => SymVal::Max(Box::new(sub(v, "a")?), Box::new(sub(v, "b")?)),
            "map_get" => SymVal::MapGet(str_field(v, "map")?, Box::new(sub(v, "key")?)),
            "map_contains" => SymVal::MapContains(str_field(v, "map")?, Box::new(sub(v, "key")?)),
            "array_get" => {
                SymVal::ArrayGet(Box::new(sub(v, "base")?), Box::new(sub(v, "index")?))
            }
            "proj" => {
                let i = v
                    .field("field")?
                    .as_int()
                    .ok_or_else(|| JsonError::msg("proj needs an integer 'field'"))?;
                if i < 0 {
                    return Err(JsonError::msg("proj field must be non-negative"));
                }
                SymVal::Proj(Box::new(sub(v, "base")?), i as usize)
            }
            other => return Err(JsonError::msg(format!("unknown term tag '{other}'"))),
        })
    }
}

impl ToJson for MapOp {
    fn to_json(&self) -> Value {
        match self {
            MapOp::Insert { map, key, value } => tagged(
                "insert",
                vec![
                    ("map".into(), Value::Str(map.clone())),
                    ("key".into(), key.to_json()),
                    ("value".into(), value.to_json()),
                ],
            ),
            MapOp::Remove { map, key } => tagged(
                "remove",
                vec![
                    ("map".into(), Value::Str(map.clone())),
                    ("key".into(), key.to_json()),
                ],
            ),
        }
    }
}

impl FromJson for MapOp {
    fn from_json(v: &Value) -> Result<MapOp, JsonError> {
        match str_field(v, "t")?.as_str() {
            "insert" => Ok(MapOp::Insert {
                map: str_field(v, "map")?,
                key: sub(v, "key")?,
                value: sub(v, "value")?,
            }),
            "remove" => Ok(MapOp::Remove {
                map: str_field(v, "map")?,
                key: sub(v, "key")?,
            }),
            other => Err(JsonError::msg(format!("unknown map op tag '{other}'"))),
        }
    }
}

impl ToJson for SymPacket {
    fn to_json(&self) -> Value {
        Value::Object(
            self.fields
                .iter()
                .map(|(f, v)| (f.path().to_string(), v.to_json()))
                .collect(),
        )
    }
}

impl FromJson for SymPacket {
    fn from_json(v: &Value) -> Result<SymPacket, JsonError> {
        let Value::Object(entries) = v else {
            return Err(JsonError::msg("symbolic packet must be an object"));
        };
        let mut fields = BTreeMap::new();
        for (path, term) in entries {
            let field = nf_packet::Field::from_path(path)
                .ok_or_else(|| JsonError::msg(format!("unknown packet field '{path}'")))?;
            fields.insert(field, SymVal::from_json(term)?);
        }
        Ok(SymPacket { fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> SymVal {
        SymVal::from_json(&Value::parse(json).unwrap()).unwrap()
    }

    fn roundtrip(v: &SymVal) {
        let json = v.to_json().render();
        assert_eq!(&parse(&json), v, "{json}");
    }

    #[test]
    fn every_node_kind_roundtrips() {
        let x = SymVal::Pkt(nf_packet::Field::IpSrc);
        for v in [
            SymVal::Int(-5),
            SymVal::Bool(true),
            SymVal::Str("GET /".into()),
            x.clone(),
            SymVal::Cfg("mode".into()),
            SymVal::St("idx".into()),
            SymVal::pkt_len(),
            SymVal::map_len("nat"),
            SymVal::checksum(),
            SymVal::Var("x".into()),
            SymVal::Tuple(vec![SymVal::Int(1), x.clone()]),
            SymVal::Array(vec![]),
            SymVal::Bin(BinOp::NotIn, Box::new(x.clone()), Box::new(SymVal::Int(1))),
            SymVal::Not(Box::new(SymVal::Bool(false))),
            SymVal::Neg(Box::new(x.clone())),
            SymVal::Hash(Box::new(x.clone())),
            SymVal::Min(Box::new(x.clone()), Box::new(SymVal::Int(2))),
            SymVal::Max(Box::new(x.clone()), Box::new(SymVal::Int(2))),
            SymVal::MapGet("nat".into(), Box::new(x.clone())),
            SymVal::MapContains("nat".into(), Box::new(x.clone())),
            SymVal::ArrayGet(Box::new(SymVal::Array(vec![x.clone()])), Box::new(x.clone())),
            SymVal::Proj(Box::new(x.clone()), 3),
        ] {
            roundtrip(&v);
        }
    }

    #[test]
    fn every_operator_roundtrips() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::And,
            BinOp::Or,
            BinOp::BitAnd,
            BinOp::BitOr,
            BinOp::In,
            BinOp::NotIn,
        ] {
            roundtrip(&SymVal::Bin(
                op,
                Box::new(SymVal::Var("x".into())),
                Box::new(SymVal::Int(1)),
            ));
        }
    }

    #[test]
    fn map_ops_roundtrip() {
        for op in [
            MapOp::Insert {
                map: "nat".into(),
                key: SymVal::Var("k".into()),
                value: SymVal::Int(1),
            },
            MapOp::Remove {
                map: "conns".into(),
                key: SymVal::Tuple(vec![SymVal::Int(1), SymVal::Int(2)]),
            },
        ] {
            let json = op.to_json().render();
            let parsed = MapOp::from_json(&Value::parse(&json).unwrap()).unwrap();
            assert_eq!(parsed, op, "{json}");
        }
    }

    #[test]
    fn sym_packet_roundtrips() {
        let mut p = SymPacket::fresh();
        p.set(
            nf_packet::Field::IpDst,
            SymVal::MapGet("nat".into(), Box::new(SymVal::Pkt(nf_packet::Field::IpSrc))),
        );
        let json = p.to_json().render();
        let parsed = SymPacket::from_json(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, p);
    }

    /// Every variable is written as its rendered name and read back typed;
    /// names of no class stay untyped.
    #[test]
    fn variables_read_back_typed() {
        let var = |name: &str| format!(r#"{{"t": "var", "name": "{name}"}}"#);
        assert_eq!(
            parse(&var("pkt.tcp.dport")),
            SymVal::Pkt(nf_packet::Field::TcpDport)
        );
        assert_eq!(parse(&var("cfg:mode")), SymVal::Cfg("mode".into()));
        assert_eq!(parse(&var("st:idx")), SymVal::St("idx".into()));
        for name in ["pkt.len", "pkt.nonsense", "len:nat", "checksum(pkt)"] {
            assert_eq!(parse(&var(name)), SymVal::Var(name.into()), "{name}");
        }
        assert_eq!(
            SymVal::Cfg("mode".into()).to_json().render(),
            SymVal::Var("cfg:mode".into()).to_json().render(),
            "the encoding is unchanged"
        );
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            r#"{"t": "wat"}"#,
            r#"{"t": "bin", "op": "**", "a": {"t":"int","v":1}, "b": {"t":"int","v":2}}"#,
            r#"{"t": "int"}"#,
            r#"{"t": "proj", "base": {"t":"int","v":1}, "field": -1}"#,
            r#"[1,2]"#,
        ] {
            let v = Value::parse(bad).unwrap();
            assert!(SymVal::from_json(&v).is_err(), "{bad}");
        }
    }
}
