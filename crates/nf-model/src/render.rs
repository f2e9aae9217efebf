//! Figure-6-style rendering of a model.
//!
//! The paper prints the balance model as a four-column table split per
//! configuration:
//!
//! ```text
//! Match            |  Action
//! Flow  | State    |  Flow                        | State
//! mode = RR
//! f     | idx      |  send(f, server[idx])        | (idx+1)%N
//! mode = HASH
//! f     | *        |  send(f, server[hash(f)%N])  | *
//! ```
//!
//! [`render_figure6`] reproduces that layout from a [`Model`].

use crate::model::{Entry, FlowAction, Model};
use nfl_symex::SymVal;
use std::fmt::Write;

fn join_lits(lits: &[SymVal], star: &str) -> String {
    if lits.is_empty() {
        star.to_string()
    } else {
        lits.iter()
            .map(|l| l.short().to_string())
            .collect::<Vec<_>>()
            .join(" && ")
    }
}

fn flow_action_str(a: &FlowAction) -> String {
    match a {
        FlowAction::Drop => "drop".to_string(),
        FlowAction::Forward { rewrites } if rewrites.is_empty() => "send(f)".to_string(),
        FlowAction::Forward { rewrites } => {
            let parts: Vec<String> = rewrites
                .iter()
                .map(|(f, v)| format!("{} := {}", f.path(), v.short()))
                .collect();
            format!("send(f; {})", parts.join(", "))
        }
    }
}

fn state_action_str(e: &Entry) -> String {
    if e.state_action.is_identity() {
        return "*".to_string();
    }
    let mut parts: Vec<String> = e
        .state_action
        .updates
        .iter()
        .map(|(n, v)| format!("{n} := {}", v.short()))
        .collect();
    parts.extend(
        e.state_action
            .map_ops
            .iter()
            .map(|op| op.short().to_string()),
    );
    parts.join("; ")
}

/// Render the model as the paper's Figure 6 table.
pub fn render_figure6(model: &Model) -> String {
    let mut rows: Vec<(Option<String>, [String; 4])> = Vec::new();
    for table in &model.tables {
        let cfg = if table.config.is_empty() {
            "any configuration".to_string()
        } else {
            join_lits(&table.config, "*")
        };
        rows.push((Some(cfg), Default::default()));
        for e in &table.entries {
            rows.push((
                None,
                [
                    join_lits(&e.flow_match, "f"),
                    join_lits(&e.state_match, "*"),
                    flow_action_str(&e.flow_action),
                    state_action_str(e),
                ],
            ));
        }
    }
    // Column widths.
    let headers = ["Flow", "State", "Flow", "State"];
    let mut widths = headers.map(str::len);
    for (_, cols) in &rows {
        for (i, c) in cols.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let total: usize = widths.iter().sum::<usize>() + 3 * 3;
    let mut out = String::new();
    let _ = writeln!(out, "NFactor model: {}", model.nf_name);
    if let Some(reason) = model.completeness.reason() {
        let _ = writeln!(out, "!! PARTIAL MODEL — {reason}");
    }
    let _ = writeln!(out, "{}", "=".repeat(total));
    let _ = writeln!(
        out,
        "{:wm$} | {:ws$}   {:am$} | {:as$}",
        "Match",
        "",
        "Action",
        "",
        wm = widths[0],
        ws = widths[1],
        am = widths[2],
        as = widths[3],
    );
    let _ = writeln!(
        out,
        "{:w0$} | {:w1$} | {:w2$} | {:w3$}",
        headers[0],
        headers[1],
        headers[2],
        headers[3],
        w0 = widths[0],
        w1 = widths[1],
        w2 = widths[2],
        w3 = widths[3],
    );
    let _ = writeln!(out, "{}", "-".repeat(total));
    for (cfg, cols) in &rows {
        match cfg {
            Some(c) => {
                let _ = writeln!(out, "[ {c} ]");
            }
            None => {
                let _ = writeln!(
                    out,
                    "{:w0$} | {:w1$} | {:w2$} | {:w3$}",
                    cols[0],
                    cols[1],
                    cols[2],
                    cols[3],
                    w0 = widths[0],
                    w1 = widths[1],
                    w2 = widths[2],
                    w3 = widths[3],
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfl_analysis::normalize::normalize;
    use nfl_lang::parse_and_check;
    use nfl_symex::SymExec;

    #[test]
    fn renders_figure6_shape() {
        let src = r#"
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
        "#;
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl).explore().unwrap();
        let m = Model::from_paths("balance", &stats.paths);
        let text = render_figure6(&m);
        // Figure 6 content checks: both config sections, the RR state
        // transition, the hash action, the stateless '*'.
        assert!(text.contains("(mode == 1)"), "{text}");
        assert!(text.contains("(mode != 1)"), "{text}");
        assert!(text.contains("idx := ((idx + 1) % 2)"), "{text}");
        assert!(text.contains("hash("), "{text}");
        assert!(text.contains("| *"), "{text}");
        assert!(text.contains("send(f;"), "{text}");
    }

    #[test]
    fn drop_entry_renders() {
        let src = r#"
            fn cb(pkt: packet) { if pkt.ip.ttl > 1 { send(pkt); } }
            fn main() { sniff(cb); }
        "#;
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let stats = SymExec::new(&pl).explore().unwrap();
        let m = Model::from_paths("filter", &stats.paths);
        let text = render_figure6(&m);
        assert!(text.contains("drop"), "{text}");
        assert!(text.contains("(f.ip.ttl <= 1)"), "{text}");
    }
}
