//! Chrome trace-event-format JSON emission.
//!
//! The output object `{"traceEvents": [...], "displayTimeUnit": "ms"}`
//! loads directly in `chrome://tracing` or <https://ui.perfetto.dev>.
//! Spans become `"ph": "X"` (complete) events, instants become
//! `"ph": "i"` with thread scope; `ts`/`dur` are microseconds as the
//! format requires. Each recording thread gets its own `tid` plus a
//! `"ph": "M"` `thread_name` metadata event, so shard workers render as
//! separate rows in the viewer instead of collapsing onto one track.

use crate::tracer::TraceEvent;
use nf_support::json::Value;

fn micros(ns: u64) -> Value {
    Value::Float(ns as f64 / 1_000.0)
}

fn int(v: usize) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Render recorded events as a Chrome trace-event JSON object.
///
/// `threads[i]` names the thread behind `tid == i` (see
/// [`crate::Tracer::thread_names`]); one `thread_name` metadata event
/// is emitted per entry ahead of the timed events.
pub fn trace_json(events: &[TraceEvent], threads: &[String]) -> Value {
    let mut rendered: Vec<Value> = threads
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Value::Object(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::Int(1)),
                ("tid".into(), int(i)),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::Str(name.clone()))]),
                ),
            ])
        })
        .collect();
    rendered.extend(events.iter().map(|e| {
        let mut fields: Vec<(String, Value)> = vec![
            ("name".into(), Value::Str(e.name.clone())),
            ("cat".into(), Value::Str("nfactor".into())),
            (
                "ph".into(),
                Value::Str(if e.dur_ns.is_some() { "X" } else { "i" }.into()),
            ),
            ("ts".into(), micros(e.ts_ns)),
        ];
        match e.dur_ns {
            Some(dur) => fields.push(("dur".into(), micros(dur))),
            // Instant events need a scope; "t" = thread.
            None => fields.push(("s".into(), Value::Str("t".into()))),
        }
        fields.push(("pid".into(), Value::Int(1)));
        fields.push(("tid".into(), int(e.tid)));
        if !e.args.is_empty() {
            let args = e
                .args
                .iter()
                .map(|(k, v)| (k.clone(), Value::Int(*v)))
                .collect();
            fields.push(("args".into(), Value::Object(args)));
        }
        Value::Object(fields)
    }));
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(rendered)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts_ns: u64, dur_ns: u64, depth: usize, tid: usize) -> TraceEvent {
        TraceEvent {
            name: name.into(),
            ts_ns,
            dur_ns: Some(dur_ns),
            depth,
            tid,
            args: Vec::new(),
        }
    }

    #[test]
    fn spans_render_as_complete_events_in_micros() {
        let json = trace_json(&[span("stage", 2_000, 1_500, 0, 0)], &[]);
        let text = json.render();
        let parsed = Value::parse(&text).expect("valid JSON");
        let Value::Object(top) = parsed else {
            panic!("expected object")
        };
        assert_eq!(top[0].0, "traceEvents");
        let Value::Array(events) = &top[0].1 else {
            panic!("expected array")
        };
        assert_eq!(events.len(), 1);
        let Value::Object(ev) = &events[0] else {
            panic!("expected object")
        };
        let get = |k: &str| ev.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(get("name"), Some(Value::Str("stage".into())));
        assert_eq!(get("ph"), Some(Value::Str("X".into())));
        assert_eq!(get("ts"), Some(Value::Float(2.0)));
        assert_eq!(get("dur"), Some(Value::Float(1.5)));
        assert_eq!(get("pid"), Some(Value::Int(1)));
        assert_eq!(get("tid"), Some(Value::Int(0)));
    }

    #[test]
    fn instants_get_thread_scope_and_args() {
        let ev = TraceEvent {
            name: "symex.path".into(),
            ts_ns: 0,
            dur_ns: None,
            depth: 2,
            tid: 0,
            args: vec![("index".into(), 7)],
        };
        let text = trace_json(&[ev], &[]).render_pretty();
        assert!(text.contains("\"ph\": \"i\""));
        assert!(text.contains("\"s\": \"t\""));
        assert!(text.contains("\"index\": 7"));
    }

    #[test]
    fn threads_emit_metadata_and_per_event_tids() {
        let events = [
            span("dispatch", 0, 10, 0, 0),
            span("worker.step", 2, 5, 0, 1),
        ];
        let names = ["main".to_string(), "shard-1".to_string()];
        let text = trace_json(&events, &names).render_pretty();
        assert!(text.contains("\"ph\": \"M\""));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"shard-1\""));
        assert!(text.contains("\"tid\": 1"));
        // Metadata events come first so viewers name rows before use.
        let parsed = Value::parse(&text).expect("valid JSON");
        let Value::Object(top) = parsed else {
            panic!("expected object")
        };
        let Value::Array(all) = &top[0].1 else {
            panic!("expected array")
        };
        assert_eq!(all.len(), 4);
        let Value::Object(first) = &all[0] else {
            panic!("expected object")
        };
        assert_eq!(first[0].1, Value::Str("thread_name".into()));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let text = trace_json(&[], &[]).render();
        let parsed = Value::parse(&text).expect("valid JSON");
        let Value::Object(top) = parsed else {
            panic!("expected object")
        };
        assert_eq!(top.len(), 2);
    }
}
