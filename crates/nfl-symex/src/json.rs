//! Hand-written JSON serialization for symbolic terms.
//!
//! Replaces the former `serde` derives: each [`SymVal`] node becomes a
//! tagged object (`{"t": "bin", "op": "==", ...}`), so the encoding is
//! explicit, stable across compiler versions, and reviewable in diffs.
//! The encoding is write-only (models are read back from `.nfm` text,
//! not JSON); the tests here pin it for every node kind and operator.

use crate::sym::{MapOp, SymVal};
use nf_support::json::{ToJson, Value};

fn tagged(tag: &str, rest: Vec<(String, Value)>) -> Value {
    let mut fields = vec![("t".to_string(), Value::Str(tag.to_string()))];
    fields.extend(rest);
    Value::Object(fields)
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

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_lang::BinOp;

    /// Render `v` compactly and check the text parses back to the same
    /// document.
    fn written(v: &impl ToJson) -> String {
        let doc = v.to_json();
        let text = doc.render();
        assert_eq!(Value::parse(&text).unwrap(), doc, "{text}");
        text
    }

    #[test]
    fn every_node_kind_is_encoded() {
        let x = SymVal::Pkt(nf_packet::Field::IpSrc);
        let xj = r#"{"t":"var","name":"pkt.ip.src"}"#;
        for (v, expected) in [
            (SymVal::Int(-5), r#"{"t":"int","v":-5}"#.to_string()),
            (SymVal::Bool(true), r#"{"t":"bool","v":true}"#.to_string()),
            (
                SymVal::Str("GET /".into()),
                r#"{"t":"str","v":"GET /"}"#.to_string(),
            ),
            (x.clone(), xj.to_string()),
            (
                SymVal::Cfg("mode".into()),
                r#"{"t":"var","name":"cfg:mode"}"#.to_string(),
            ),
            (
                SymVal::St("idx".into()),
                r#"{"t":"var","name":"st:idx"}"#.to_string(),
            ),
            (
                SymVal::pkt_len(),
                r#"{"t":"var","name":"pkt.len"}"#.to_string(),
            ),
            (
                SymVal::map_len("nat"),
                r#"{"t":"var","name":"len:nat"}"#.to_string(),
            ),
            (
                SymVal::checksum(),
                r#"{"t":"var","name":"checksum(pkt)"}"#.to_string(),
            ),
            (
                SymVal::Var("x".into()),
                r#"{"t":"var","name":"x"}"#.to_string(),
            ),
            (
                SymVal::Tuple(vec![SymVal::Int(1), x.clone()]),
                format!(r#"{{"t":"tuple","items":[{{"t":"int","v":1}},{xj}]}}"#),
            ),
            (
                SymVal::Array(vec![]),
                r#"{"t":"array","items":[]}"#.to_string(),
            ),
            (
                SymVal::Bin(BinOp::NotIn, Box::new(x.clone()), Box::new(SymVal::Int(1))),
                format!(r#"{{"t":"bin","op":"not in","a":{xj},"b":{{"t":"int","v":1}}}}"#),
            ),
            (
                SymVal::Not(Box::new(SymVal::Bool(false))),
                r#"{"t":"not","a":{"t":"bool","v":false}}"#.to_string(),
            ),
            (
                SymVal::Neg(Box::new(x.clone())),
                format!(r#"{{"t":"neg","a":{xj}}}"#),
            ),
            (
                SymVal::Hash(Box::new(x.clone())),
                format!(r#"{{"t":"hash","a":{xj}}}"#),
            ),
            (
                SymVal::Min(Box::new(x.clone()), Box::new(SymVal::Int(2))),
                format!(r#"{{"t":"min","a":{xj},"b":{{"t":"int","v":2}}}}"#),
            ),
            (
                SymVal::Max(Box::new(x.clone()), Box::new(SymVal::Int(2))),
                format!(r#"{{"t":"max","a":{xj},"b":{{"t":"int","v":2}}}}"#),
            ),
            (
                SymVal::MapGet("nat".into(), Box::new(x.clone())),
                format!(r#"{{"t":"map_get","map":"nat","key":{xj}}}"#),
            ),
            (
                SymVal::MapContains("nat".into(), Box::new(x.clone())),
                format!(r#"{{"t":"map_contains","map":"nat","key":{xj}}}"#),
            ),
            (
                SymVal::ArrayGet(
                    Box::new(SymVal::Array(vec![x.clone()])),
                    Box::new(x.clone()),
                ),
                format!(
                    r#"{{"t":"array_get","base":{{"t":"array","items":[{xj}]}},"index":{xj}}}"#
                ),
            ),
            (
                SymVal::Proj(Box::new(x.clone()), 3),
                format!(r#"{{"t":"proj","base":{xj},"field":3}}"#),
            ),
        ] {
            assert_eq!(written(&v), expected, "{v:?}");
        }
    }

    #[test]
    fn every_operator_is_encoded() {
        for (op, symbol) in [
            (BinOp::Add, "+"),
            (BinOp::Sub, "-"),
            (BinOp::Mul, "*"),
            (BinOp::Div, "/"),
            (BinOp::Mod, "%"),
            (BinOp::Eq, "=="),
            (BinOp::Ne, "!="),
            (BinOp::Lt, "<"),
            (BinOp::Le, "<="),
            (BinOp::Gt, ">"),
            (BinOp::Ge, ">="),
            (BinOp::And, "&&"),
            (BinOp::Or, "||"),
            (BinOp::BitAnd, "&"),
            (BinOp::BitOr, "|"),
            (BinOp::In, "in"),
            (BinOp::NotIn, "not in"),
        ] {
            let v = SymVal::Bin(
                op,
                Box::new(SymVal::Var("x".into())),
                Box::new(SymVal::Int(1)),
            );
            assert_eq!(
                written(&v),
                format!(
                    r#"{{"t":"bin","op":"{symbol}","a":{{"t":"var","name":"x"}},"b":{{"t":"int","v":1}}}}"#
                ),
                "{op:?}"
            );
        }
    }

    #[test]
    fn map_ops_are_encoded() {
        for (op, expected) in [
            (
                MapOp::Insert {
                    map: "nat".into(),
                    key: SymVal::Var("k".into()),
                    value: SymVal::Int(1),
                },
                r#"{"t":"insert","map":"nat","key":{"t":"var","name":"k"},"value":{"t":"int","v":1}}"#,
            ),
            (
                MapOp::Remove {
                    map: "conns".into(),
                    key: SymVal::Tuple(vec![SymVal::Int(1), SymVal::Int(2)]),
                },
                r#"{"t":"remove","map":"conns","key":{"t":"tuple","items":[{"t":"int","v":1},{"t":"int","v":2}]}}"#,
            ),
        ] {
            assert_eq!(written(&op), expected);
        }
    }

    /// A typed variable is written as its rendered name, exactly as the
    /// untyped name it renders to.
    #[test]
    fn variables_are_written_by_rendered_name() {
        assert_eq!(
            SymVal::Cfg("mode".into()).to_json().render(),
            SymVal::Var("cfg:mode".into()).to_json().render(),
            "the encoding is unchanged"
        );
    }
}
