//! A minimal NFL language server (`nfactor lsp`).
//!
//! Speaks JSON-RPC 2.0 over stdio with `Content-Length` framing — the
//! subset editors actually need for a lint-driven workflow:
//!
//! * `initialize` / `initialized` / `shutdown` / `exit`;
//! * `textDocument/didOpen`, `didChange` (full sync), `didClose` —
//!   each feeds the [`Engine`] and publishes
//!   `textDocument/publishDiagnostics` with the NFL001–NFL009
//!   findings (the incremental engine means an unchanged dependency
//!   chain costs a re-parse, not a re-analysis);
//! * `textDocument/hover` — the word under the cursor is looked up in
//!   the StateAlyzer classes (pktVar/cfgVar/oisVar/logVar) and, for
//!   `state` maps, the per-state sharding verdict.
//!
//! Known limitation: for socket-shaped NFs the analysis runs over the
//! *unfolded* program, so published diagnostic ranges index the
//! unfolded source, which can drift from the client's buffer. Plain
//! packet-callback NFs (the common case) line up exactly.

use crate::engine::Engine;
use nf_support::json::Value;
use nfl_lang::{LineIndex, Span};
use nfl_lint::Severity;
use std::io::{self, BufRead, Write};

/// Serve LSP requests from `reader`, writing responses to `writer`,
/// until `exit` or EOF. Diagnostics are computed by `engine`, so a
/// long-lived server accumulates warm caches across edits.
pub fn serve(
    engine: &mut Engine,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> io::Result<()> {
    while let Some(body) = read_message(reader)? {
        let msg = match Value::parse(&body) {
            Ok(v) => v,
            Err(_) => continue,
        };
        let id = msg.get("id").cloned();
        let method = msg.get("method").and_then(|m| m.as_str()).unwrap_or("");
        let params = msg.get("params").cloned().unwrap_or(Value::Null);
        match method {
            "initialize" => {
                if let Some(id) = id {
                    let result = obj(vec![
                        (
                            "capabilities",
                            obj(vec![
                                ("textDocumentSync", Value::Int(1)),
                                ("hoverProvider", Value::Bool(true)),
                            ]),
                        ),
                        (
                            "serverInfo",
                            obj(vec![("name", Value::Str("nfactor-lsp".into()))]),
                        ),
                    ]);
                    respond(writer, id, result)?;
                }
            }
            "initialized" => {}
            "shutdown" => {
                if let Some(id) = id {
                    respond(writer, id, Value::Null)?;
                }
            }
            "exit" => return Ok(()),
            "textDocument/didOpen" => {
                let doc = params.get("textDocument");
                let uri = doc.and_then(|d| d.get("uri")).and_then(|u| u.as_str());
                let text = doc.and_then(|d| d.get("text")).and_then(|t| t.as_str());
                if let (Some(uri), Some(text)) = (uri, text) {
                    let uri = uri.to_string();
                    engine.set_source(&uri, text);
                    publish(engine, writer, &uri)?;
                }
            }
            "textDocument/didChange" => {
                let uri = params
                    .get("textDocument")
                    .and_then(|d| d.get("uri"))
                    .and_then(|u| u.as_str())
                    .map(str::to_string);
                let text = params
                    .get("contentChanges")
                    .and_then(|c| c.as_array())
                    .and_then(|a| a.last())
                    .and_then(|c| c.get("text"))
                    .and_then(|t| t.as_str());
                if let (Some(uri), Some(text)) = (uri, text) {
                    engine.set_source(&uri, text);
                    publish(engine, writer, &uri)?;
                }
            }
            "textDocument/didClose" => {
                let uri = params
                    .get("textDocument")
                    .and_then(|d| d.get("uri"))
                    .and_then(|u| u.as_str())
                    .map(str::to_string);
                if let Some(uri) = uri {
                    engine.remove_source(&uri);
                    publish_diags(writer, &uri, Vec::new())?;
                }
            }
            "textDocument/hover" => {
                if let Some(id) = id {
                    let result = hover(engine, &params);
                    respond(writer, id, result)?;
                }
            }
            _ => {
                // Unknown *request* (has an id): JSON-RPC method-not-found.
                // Unknown notifications are ignored, per the spec.
                if let Some(id) = id {
                    let err = obj(vec![
                        ("code", Value::Int(-32601)),
                        ("message", Value::Str(format!("method not found: {method}"))),
                    ]);
                    let resp = obj(vec![
                        ("jsonrpc", Value::Str("2.0".into())),
                        ("id", id),
                        ("error", err),
                    ]);
                    write_message(writer, &resp)?;
                }
            }
        }
    }
    Ok(())
}

/// Read one `Content-Length`-framed message; `None` at EOF.
fn read_message(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(None); // EOF
        }
        let line = line.trim_end();
        if line.is_empty() {
            break; // end of headers
        }
        if let Some(rest) = header_value(line, "Content-Length") {
            content_length = rest.trim().parse::<usize>().ok();
        }
    }
    let len = match content_length {
        Some(n) => n,
        None => return Ok(None), // malformed frame: bail out cleanly
    };
    let mut buf = vec![0u8; len];
    reader.read_exact(&mut buf)?;
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// Case-insensitive `Header: value` match.
fn header_value<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let (head, rest) = line.split_once(':')?;
    if head.trim().eq_ignore_ascii_case(name) {
        Some(rest)
    } else {
        None
    }
}

fn write_message(writer: &mut impl Write, v: &Value) -> io::Result<()> {
    let body = v.render();
    write!(writer, "Content-Length: {}\r\n\r\n{}", body.len(), body)?;
    writer.flush()
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn respond(writer: &mut impl Write, id: Value, result: Value) -> io::Result<()> {
    let resp = obj(vec![
        ("jsonrpc", Value::Str("2.0".into())),
        ("id", id),
        ("result", result),
    ]);
    write_message(writer, &resp)
}

/// Lint `uri` through the engine and publish its diagnostics.
fn publish(engine: &mut Engine, writer: &mut impl Write, uri: &str) -> io::Result<()> {
    let report = engine.lint_report(uri);
    let diags = match report.as_ref() {
        Err(e) => vec![lsp_diag(zero_range(), 1, &format!("nfl: {e}"))],
        Ok(r) => {
            let index = LineIndex::new(&r.source);
            r.diagnostics
                .iter()
                .map(|d| {
                    let severity = match d.severity {
                        Severity::Error => 1,
                        Severity::Warning => 2,
                        Severity::Note => 3,
                    };
                    let mut message = format!("[{}] {}", d.code.as_str(), d.message);
                    if let Some(v) = &d.var {
                        message.push_str(&format!(" ({v})"));
                    }
                    lsp_diag(span_range(&index, d.span), severity, &message)
                })
                .collect()
        }
    };
    publish_diags(writer, uri, diags)
}

fn publish_diags(writer: &mut impl Write, uri: &str, diags: Vec<Value>) -> io::Result<()> {
    let note = obj(vec![
        ("jsonrpc", Value::Str("2.0".into())),
        (
            "method",
            Value::Str("textDocument/publishDiagnostics".into()),
        ),
        (
            "params",
            obj(vec![
                ("uri", Value::Str(uri.to_string())),
                ("diagnostics", Value::Array(diags)),
            ]),
        ),
    ]);
    write_message(writer, &note)
}

fn lsp_diag(range: Value, severity: i64, message: &str) -> Value {
    obj(vec![
        ("range", range),
        ("severity", Value::Int(severity)),
        ("source", Value::Str("nfactor".into())),
        ("message", Value::Str(message.to_string())),
    ])
}

fn position(line: u32, character: u32) -> Value {
    obj(vec![
        ("line", Value::Int(i64::from(line))),
        ("character", Value::Int(i64::from(character))),
    ])
}

fn zero_range() -> Value {
    obj(vec![("start", position(0, 0)), ("end", position(0, 0))])
}

/// Convert a byte [`Span`] into a 0-based LSP range.
fn span_range(index: &LineIndex, span: Span) -> Value {
    let (sl, sc) = index.line_col(span.start);
    let (el, ec) = index.line_col(span.end);
    obj(vec![
        (
            "start",
            position(sl.saturating_sub(1), sc.saturating_sub(1)),
        ),
        ("end", position(el.saturating_sub(1), ec.saturating_sub(1))),
    ])
}

/// Answer a hover request: the word under the cursor, classified.
fn hover(engine: &mut Engine, params: &Value) -> Value {
    let uri = match params
        .get("textDocument")
        .and_then(|d| d.get("uri"))
        .and_then(|u| u.as_str())
    {
        Some(u) => u.to_string(),
        None => return Value::Null,
    };
    let line = params
        .get("position")
        .and_then(|p| p.get("line"))
        .and_then(|l| l.as_int())
        .unwrap_or(0);
    let character = params
        .get("position")
        .and_then(|p| p.get("character"))
        .and_then(|c| c.as_int())
        .unwrap_or(0);
    let text = match engine.source(&uri) {
        Some(t) => t,
        None => return Value::Null,
    };
    let word = match word_at(&text, line as u32, character as usize) {
        Some(w) => w,
        None => return Value::Null,
    };

    let mut sections: Vec<String> = Vec::new();
    let ctx = engine.analysis_ctx(&uri);
    if let Ok(ctx) = ctx.as_ref() {
        if let Some(class) = ctx.classes.class_of(&word) {
            sections.push(format!("`{word}` — StateAlyzer class **{class}**"));
        }
    }
    let report = engine.lint_report(&uri);
    if let Ok(report) = report.as_ref() {
        if let Some(v) = report.sharding.get(&word) {
            let mut s = format!(
                "sharding verdict: **{}** — {}",
                v.verdict().as_str(),
                v.reason()
            );
            if let Some(d) = v.dispatch() {
                s.push_str(&format!("\n\ndispatch key: `{}`", d.render()));
            }
            sections.push(s);
        }
    }
    if sections.is_empty() {
        return Value::Null;
    }
    obj(vec![(
        "contents",
        obj(vec![
            ("kind", Value::Str("markdown".into())),
            ("value", Value::Str(sections.join("\n\n"))),
        ]),
    )])
}

/// The identifier at 0-based (line, character) in `text`, if any.
fn word_at(text: &str, line: u32, character: usize) -> Option<String> {
    let index = LineIndex::new(text);
    let line_str = index.line_text(text, line + 1)?;
    let bytes = line_str.as_bytes();
    let at = character.min(bytes.len());
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    // Allow hovering just past the last character of a word.
    let mut start = at;
    if start >= bytes.len() || !is_word(bytes[start]) {
        if start > 0 && is_word(bytes[start - 1]) {
            start -= 1;
        } else {
            return None;
        }
    }
    while start > 0 && is_word(bytes[start - 1]) {
        start -= 1;
    }
    let mut end = start;
    while end < bytes.len() && is_word(bytes[end]) {
        end += 1;
    }
    let word = line_str.get(start..end)?;
    if word.is_empty() || word.as_bytes().first().is_some_and(|b| b.is_ascii_digit()) {
        None
    } else {
        Some(word.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_extraction() {
        assert_eq!(word_at("let counts = 1;", 0, 5), Some("counts".into()));
        assert_eq!(word_at("let counts = 1;", 0, 4), Some("counts".into()));
        // Just past the end of the word.
        assert_eq!(word_at("let counts = 1;", 0, 10), Some("counts".into()));
        assert_eq!(word_at("let counts = 1;", 0, 11), None);
        assert_eq!(word_at("m[src] = 1;", 0, 2), Some("src".into()));
        // Numbers are not identifiers.
        assert_eq!(word_at("x = 42;", 0, 4), None);
        // Out-of-range line.
        assert_eq!(word_at("x", 3, 0), None);
    }

    #[test]
    fn header_matching_is_case_insensitive() {
        assert_eq!(
            header_value("content-length: 12", "Content-Length"),
            Some(" 12")
        );
        assert_eq!(header_value("Content-Type: x", "Content-Length"), None);
    }
}
