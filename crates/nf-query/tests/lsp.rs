//! Drive the LSP server through an in-memory stdio pair: handshake,
//! open-with-findings, hover, fix-the-source, shutdown.

use nf_query::{lsp, Engine};
use nf_support::json::Value;
use std::io::Cursor;

const DEAD_STORE: &str = r#"state m = map();
fn cb(pkt: packet) {
    let src = pkt.ip.src;
    let unused = 7;
    if src not in m { m[src] = 0; }
    m[src] = m[src] + 1;
    send(pkt);
}
fn main() { sniff(cb); }
"#;

const CLEAN: &str = r#"state m = map();
fn cb(pkt: packet) {
    let src = pkt.ip.src;
    if src not in m { m[src] = 0; }
    m[src] = m[src] + 1;
    send(pkt);
}
fn main() { sniff(cb); }
"#;

fn frame(body: &Value) -> String {
    let body = body.render();
    format!("Content-Length: {}\r\n\r\n{}", body.len(), body)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn request(id: i64, method: &str, params: Value) -> Value {
    obj(vec![
        ("jsonrpc", Value::Str("2.0".into())),
        ("id", Value::Int(id)),
        ("method", Value::Str(method.into())),
        ("params", params),
    ])
}

fn notification(method: &str, params: Value) -> Value {
    obj(vec![
        ("jsonrpc", Value::Str("2.0".into())),
        ("method", Value::Str(method.into())),
        ("params", params),
    ])
}

fn text_doc(uri: &str) -> Value {
    obj(vec![("uri", Value::Str(uri.into()))])
}

/// Split `Content-Length`-framed messages out of the server's output.
fn parse_frames(out: &[u8]) -> Vec<Value> {
    let text = String::from_utf8_lossy(out);
    let mut frames = Vec::new();
    let mut rest = text.as_ref();
    while let Some(idx) = rest.find("\r\n\r\n") {
        let header = &rest[..idx];
        let len: usize = header
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("missing Content-Length header");
        let body = &rest[idx + 4..idx + 4 + len];
        frames.push(Value::parse(body).expect("bad JSON frame"));
        rest = &rest[idx + 4 + len..];
    }
    frames
}

fn response_for(frames: &[Value], id: i64) -> Option<&Value> {
    frames
        .iter()
        .find(|f| f.get("id").and_then(|i| i.as_int()) == Some(id))
}

fn diagnostics_published(frames: &[Value]) -> Vec<&[Value]> {
    frames
        .iter()
        .filter(|f| {
            f.get("method").and_then(|m| m.as_str()) == Some("textDocument/publishDiagnostics")
        })
        .filter_map(|f| f.get("params")?.get("diagnostics")?.as_array())
        .collect()
}

#[test]
fn full_session() {
    let uri = "file:///nf/demo.nfl";
    let mut input = String::new();
    input.push_str(&frame(&request(1, "initialize", obj(vec![]))));
    input.push_str(&frame(&notification("initialized", obj(vec![]))));
    input.push_str(&frame(&notification(
        "textDocument/didOpen",
        obj(vec![(
            "textDocument",
            obj(vec![
                ("uri", Value::Str(uri.into())),
                ("languageId", Value::Str("nfl".into())),
                ("version", Value::Int(1)),
                ("text", Value::Str(DEAD_STORE.into())),
            ]),
        )]),
    )));
    // Hover over `m` in `state m = map();` (line 0, character 6).
    input.push_str(&frame(&request(
        2,
        "textDocument/hover",
        obj(vec![
            ("textDocument", text_doc(uri)),
            (
                "position",
                obj(vec![("line", Value::Int(0)), ("character", Value::Int(6))]),
            ),
        ]),
    )));
    // Unknown request must earn a -32601, not a hang.
    input.push_str(&frame(&request(3, "textDocument/definition", obj(vec![]))));
    input.push_str(&frame(&notification(
        "textDocument/didChange",
        obj(vec![
            ("textDocument", text_doc(uri)),
            (
                "contentChanges",
                Value::Array(vec![obj(vec![("text", Value::Str(CLEAN.into()))])]),
            ),
        ]),
    )));
    input.push_str(&frame(&request(4, "shutdown", Value::Null)));
    input.push_str(&frame(&notification("exit", Value::Null)));

    let mut engine = Engine::new();
    let mut reader = Cursor::new(input.into_bytes());
    let mut out: Vec<u8> = Vec::new();
    lsp::serve(&mut engine, &mut reader, &mut out).expect("serve failed");

    let frames = parse_frames(&out);

    // 1. initialize response advertises full sync + hover.
    let init = response_for(&frames, 1).expect("no initialize response");
    let caps = init
        .get("result")
        .and_then(|r| r.get("capabilities"))
        .expect("no capabilities");
    assert_eq!(
        caps.get("textDocumentSync").and_then(|v| v.as_int()),
        Some(1)
    );
    assert_eq!(
        caps.get("hoverProvider").and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        init.get("result")
            .and_then(|r| r.get("serverInfo"))
            .and_then(|s| s.get("name"))
            .and_then(|n| n.as_str()),
        Some("nfactor-lsp")
    );

    // 2. didOpen published the dead-store warning.
    let published = diagnostics_published(&frames);
    assert!(
        published.len() >= 2,
        "expected publishes for open and change"
    );
    let first = published[0];
    assert!(
        first.iter().any(|d| d
            .get("message")
            .and_then(|m| m.as_str())
            .is_some_and(|m| m.contains("NFL001"))),
        "didOpen publish missing NFL001: {first:?}"
    );
    // Ranges are 0-based and on the `let unused` line (line 3).
    assert!(first.iter().any(|d| d
        .get("range")
        .and_then(|r| r.get("start"))
        .and_then(|s| s.get("line"))
        .and_then(|l| l.as_int())
        == Some(3)));

    // 3. Hover over the state map names its class and verdict.
    let hover = response_for(&frames, 2).expect("no hover response");
    let text = hover
        .get("result")
        .and_then(|r| r.get("contents"))
        .and_then(|c| c.get("value"))
        .and_then(|v| v.as_str())
        .expect("hover has no markdown contents");
    assert!(text.contains("`m`"), "hover missing variable name: {text}");
    assert!(
        text.contains("per-flow") || text.contains("pktVar") || text.contains("oisVar"),
        "hover missing class/verdict: {text}"
    );

    // 4. Unknown method → method-not-found.
    let unknown = response_for(&frames, 3).expect("no response for unknown method");
    assert_eq!(
        unknown
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_int()),
        Some(-32601)
    );

    // 5. The fix cleared the diagnostics.
    let last = published.last().expect("no final publish");
    assert!(
        last.is_empty(),
        "expected empty diagnostics after fix: {last:?}"
    );

    // 6. shutdown answered with null.
    let shutdown = response_for(&frames, 4).expect("no shutdown response");
    assert_eq!(shutdown.get("result"), Some(&Value::Null));
}

#[test]
fn parse_error_becomes_a_diagnostic() {
    let uri = "file:///nf/broken.nfl";
    let mut input = String::new();
    input.push_str(&frame(&request(1, "initialize", obj(vec![]))));
    input.push_str(&frame(&notification(
        "textDocument/didOpen",
        obj(vec![(
            "textDocument",
            obj(vec![
                ("uri", Value::Str(uri.into())),
                ("text", Value::Str("fn cb(pkt: packet { }".into())),
            ]),
        )]),
    )));
    input.push_str(&frame(&notification("exit", Value::Null)));

    let mut engine = Engine::new();
    let mut reader = Cursor::new(input.into_bytes());
    let mut out: Vec<u8> = Vec::new();
    lsp::serve(&mut engine, &mut reader, &mut out).expect("serve failed");

    let frames = parse_frames(&out);
    let published = diagnostics_published(&frames);
    assert_eq!(published.len(), 1);
    assert_eq!(
        published[0].len(),
        1,
        "parse error should publish one diagnostic"
    );
    assert_eq!(
        published[0][0].get("severity").and_then(|s| s.as_int()),
        Some(1),
        "parse errors are LSP severity 1"
    );
}
