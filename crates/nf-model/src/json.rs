//! Hand-written JSON serialization for synthesized models.
//!
//! Replaces the former `serde` derives with explicit `ToJson` impls: a
//! [`Model`] serializes to a stable, human-diffable document (what
//! `nfactor synthesize --json` prints) in which symbolic terms use the
//! tagged encoding from `nfl_symex::json` and packet fields appear by
//! their dotted path (e.g. `"ip.dst"`). The document is output only:
//! models are shipped and read back as `.nfm` text ([`crate::text`]).

use crate::model::{Completeness, ConfigTable, Entry, FlowAction, Model, StateAction};
use nf_support::json::{ToJson, Value};
use nfl_symex::SymVal;

fn terms_to_json(terms: &[SymVal]) -> Value {
    Value::Array(terms.iter().map(|t| t.to_json()).collect())
}

impl ToJson for FlowAction {
    fn to_json(&self) -> Value {
        match self {
            FlowAction::Drop => {
                Value::Object(vec![("action".to_string(), Value::Str("drop".to_string()))])
            }
            FlowAction::Forward { rewrites } => Value::Object(vec![
                ("action".to_string(), Value::Str("forward".to_string())),
                (
                    "rewrites".to_string(),
                    Value::Array(
                        rewrites
                            .iter()
                            .map(|(f, t)| {
                                Value::Object(vec![
                                    ("field".to_string(), Value::Str(f.path().to_string())),
                                    ("value".to_string(), t.to_json()),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

impl ToJson for StateAction {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "updates".to_string(),
                Value::Array(
                    self.updates
                        .iter()
                        .map(|(name, t)| {
                            Value::Object(vec![
                                ("var".to_string(), Value::Str(name.clone())),
                                ("value".to_string(), t.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "map_ops".to_string(),
                Value::Array(self.map_ops.iter().map(|op| op.to_json()).collect()),
            ),
        ])
    }
}

impl ToJson for Entry {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("flow_match".to_string(), terms_to_json(&self.flow_match)),
            ("state_match".to_string(), terms_to_json(&self.state_match)),
            ("flow_action".to_string(), self.flow_action.to_json()),
            ("state_action".to_string(), self.state_action.to_json()),
            ("truncated".to_string(), Value::Bool(self.truncated)),
        ])
    }
}

impl ToJson for ConfigTable {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("config".to_string(), terms_to_json(&self.config)),
            (
                "entries".to_string(),
                Value::Array(self.entries.iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }
}

impl ToJson for Model {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("nf_name".to_string(), Value::Str(self.nf_name.clone())),
            (
                "tables".to_string(),
                Value::Array(self.tables.iter().map(|t| t.to_json()).collect()),
            ),
        ];
        // The key is present iff the model is partial, so full-model
        // documents (and their goldens) are unchanged.
        if let Completeness::Truncated { reason } = &self.completeness {
            fields.push((
                "completeness".to_string(),
                Value::Object(vec![
                    ("state".to_string(), Value::Str("truncated".to_string())),
                    ("reason".to_string(), Value::Str(reason.clone())),
                ]),
            ));
        }
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::Field;
    use nfl_analysis::normalize::normalize;
    use nfl_lang::parse_and_check;
    use nfl_symex::SymExec;

    fn model_of(src: &str) -> Model {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl).explore().unwrap();
        Model::from_paths("test-nf", &stats.paths)
    }

    /// Each term is written in the tagged encoding `nfl_symex::json`
    /// pins, in order.
    fn assert_terms(terms: &[SymVal], doc: Option<&Value>) {
        let items = doc.and_then(Value::as_array).expect("a term array");
        assert_eq!(items.len(), terms.len());
        for (t, item) in terms.iter().zip(items) {
            assert_eq!(item, &t.to_json(), "{t}");
        }
    }

    fn assert_flow_action(a: &FlowAction, doc: &Value) {
        let action = doc.get("action").and_then(Value::as_str);
        match a {
            FlowAction::Drop => {
                assert_eq!(action, Some("drop"));
                assert!(doc.get("rewrites").is_none());
            }
            FlowAction::Forward { rewrites } => {
                assert_eq!(action, Some("forward"));
                let written = doc.get("rewrites").and_then(Value::as_array).unwrap();
                assert_eq!(written.len(), rewrites.len());
                for ((f, t), rw) in rewrites.iter().zip(written) {
                    assert_eq!(rw.get("field").and_then(Value::as_str), Some(f.path()));
                    assert_eq!(rw.get("value"), Some(&t.to_json()));
                }
            }
        }
    }

    fn assert_state_action(a: &StateAction, doc: &Value) {
        let updates = doc.get("updates").and_then(Value::as_array).unwrap();
        assert_eq!(updates.len(), a.updates.len());
        for ((name, t), u) in a.updates.iter().zip(updates) {
            assert_eq!(u.get("var").and_then(Value::as_str), Some(name.as_str()));
            assert_eq!(u.get("value"), Some(&t.to_json()));
        }
        let ops = doc.get("map_ops").and_then(Value::as_array).unwrap();
        assert_eq!(ops.len(), a.map_ops.len());
        for (op, written) in a.map_ops.iter().zip(ops) {
            assert_eq!(written, &op.to_json());
        }
    }

    /// Render `m` as `synthesize --json` does, parse the text, and read
    /// every part of the model back out of the document.
    fn assert_written(m: &Model) {
        let doc = Value::parse(&m.to_json().render_pretty()).unwrap();
        assert_eq!(
            doc.get("nf_name").and_then(Value::as_str),
            Some(m.nf_name.as_str())
        );
        let tables = doc.get("tables").and_then(Value::as_array).unwrap();
        assert_eq!(tables.len(), m.tables.len());
        for (t, tj) in m.tables.iter().zip(tables) {
            assert_terms(&t.config, tj.get("config"));
            let entries = tj.get("entries").and_then(Value::as_array).unwrap();
            assert_eq!(entries.len(), t.entries.len());
            for (e, ej) in t.entries.iter().zip(entries) {
                assert_terms(&e.flow_match, ej.get("flow_match"));
                assert_terms(&e.state_match, ej.get("state_match"));
                assert_flow_action(&e.flow_action, ej.get("flow_action").unwrap());
                assert_state_action(&e.state_action, ej.get("state_action").unwrap());
                assert_eq!(
                    ej.get("truncated").and_then(Value::as_bool),
                    Some(e.truncated)
                );
            }
        }
        let completeness = doc.get("completeness");
        match &m.completeness {
            Completeness::Full => assert!(completeness.is_none()),
            Completeness::Truncated { reason } => {
                let c = completeness.expect("a completeness stamp");
                assert_eq!(c.get("state").and_then(Value::as_str), Some("truncated"));
                assert_eq!(
                    c.get("reason").and_then(Value::as_str),
                    Some(reason.as_str())
                );
            }
        }
    }

    #[test]
    fn synthesized_model_is_written_whole() {
        let m = model_of(
            r#"
            config PORT = 80;
            state nat = map();
            state counter = 0;
            fn cb(pkt: packet) {
                if pkt.tcp.dport == PORT {
                    if pkt.ip.src not in nat {
                        nat[pkt.ip.src] = counter;
                        counter = counter + 1;
                    }
                    pkt.ip.dst = 1.2.3.4;
                    send(pkt);
                }
            }
            fn main() { sniff(cb); }
        "#,
        );
        assert_written(&m);
    }

    #[test]
    fn drop_and_forward_actions_are_written() {
        for (a, expected) in [
            (FlowAction::Drop, r#"{"action":"drop"}"#),
            (
                FlowAction::Forward { rewrites: vec![] },
                r#"{"action":"forward","rewrites":[]}"#,
            ),
            (
                FlowAction::Forward {
                    rewrites: vec![(Field::TcpDport, SymVal::Int(8080))],
                },
                r#"{"action":"forward","rewrites":[{"field":"tcp.dport","value":{"t":"int","v":8080}}]}"#,
            ),
        ] {
            let json = a.to_json().render();
            assert_eq!(json, expected);
            assert_flow_action(&a, &Value::parse(&json).unwrap());
        }
    }

    #[test]
    fn truncated_model_is_written_with_reason() {
        let m = model_of(
            r#"
            state hits = 0;
            fn cb(pkt: packet) { hits = hits + 1; send(pkt); }
            fn main() { sniff(cb); }
        "#,
        )
        .with_truncation("path budget exhausted (8 paths)");
        let json = m.to_json().render_pretty();
        assert!(json.contains("truncated"), "{json}");
        assert!(json.contains("path budget exhausted"), "{json}");
        assert_written(&m);
        assert_eq!(
            m.completeness.reason(),
            Some("path budget exhausted (8 paths)")
        );
    }

    #[test]
    fn full_model_json_has_no_completeness_key() {
        let m = model_of(
            r#"
            fn cb(pkt: packet) { send(pkt); }
            fn main() { sniff(cb); }
        "#,
        );
        assert!(!m.to_json().render_pretty().contains("completeness"));
    }
}
