//! Dynamic slicing (Agrawal & Horgan), over interpreter traces.
//!
//! §2.1: *"A 'dynamic' program slice is all statements that* really *lead
//! to the final behavior, which requires execution analysis based on
//! actual variable values."* Figure 1's highlighted lines are a dynamic
//! slice — the statements that relayed *the first packet of a flow*, with
//! the hash-mode branch and the reverse-direction branch absent because
//! they did not execute.
//!
//! Algorithm: walk the trace backwards from the criterion event keeping a
//! *needed-variables* set. An event that defines a needed variable joins
//! the slice; its uses become needed; a **strong** definition retires the
//! variable, a weak one (map insert, packet-field store) leaves it needed
//! (earlier writes may still matter). Control dependences follow the
//! recorded dynamic `ctrl` links. The trace records only which statements
//! ran; what each reads and writes is a property of the statement's text,
//! so it is derived here from the program, once per distinct statement.

use nfl_analysis::defuse::{def_use, DefKind, DefUse};
use nfl_interp::trace::Trace;
use nfl_lang::{Program, Stmt, StmtId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Compute the dynamic slice of `trace` for the criterion event at index
/// `criterion` (e.g. the `send` event). Returns the statement ids whose
/// executed instances really contributed. `program` must be the one the
/// trace was recorded on.
pub fn dynamic_slice(program: &Program, trace: &Trace, criterion: usize) -> HashSet<StmtId> {
    let Some((crit_ev, earlier)) = trace.events.get(..=criterion).and_then(<[_]>::split_last)
    else {
        return HashSet::new();
    };
    let mut stmt_map: HashMap<StmtId, &Stmt> = HashMap::new();
    program.for_each_stmt(|s| {
        stmt_map.insert(s.id, s);
    });
    let mut def_uses: HashMap<StmtId, DefUse> = HashMap::new();
    for ev in earlier.iter().chain([crit_ev]) {
        if let Some(s) = stmt_map.get(&ev.stmt) {
            def_uses.entry(ev.stmt).or_insert_with(|| def_use(s));
        }
    }
    let unknown = DefUse::default();
    let du_of = |id: StmtId| def_uses.get(&id).unwrap_or(&unknown);

    let mut in_slice_events: HashSet<usize> = HashSet::new();
    let mut needed: BTreeSet<String> = BTreeSet::new();
    let mut pending_ctrl: Vec<usize> = Vec::new();

    in_slice_events.insert(criterion);
    needed.extend(du_of(crit_ev.stmt).uses.iter().cloned());
    if let Some(c) = crit_ev.ctrl {
        pending_ctrl.push(c);
    }

    for (idx, ev) in earlier.iter().enumerate().rev() {
        let du = du_of(ev.stmt);
        // Control dependence: a branch instance some included event hangs
        // off. Data dependence: defines a needed variable.
        let include =
            pending_ctrl.contains(&idx) || du.defs.iter().any(|(d, _)| needed.contains(d));
        if !include {
            continue;
        }
        in_slice_events.insert(idx);
        // Retire strongly-defined variables; weak defs stay needed.
        for (v, kind) in &du.defs {
            if *kind == DefKind::Strong {
                needed.remove(v);
            }
        }
        needed.extend(du.uses.iter().cloned());
        if let Some(c) = ev.ctrl {
            if !in_slice_events.contains(&c) {
                pending_ctrl.push(c);
            }
        }
    }

    in_slice_events
        .into_iter()
        .filter_map(|i| trace.events.get(i).map(|e| e.stmt))
        .collect()
}

/// Dynamic slice for the *last emit* of a trace — the common "why was
/// this packet sent like this" question.
pub fn dynamic_slice_of_output(program: &Program, trace: &Trace) -> HashSet<StmtId> {
    match trace.emit_indices().last() {
        Some(&i) => dynamic_slice(program, trace, i),
        None => HashSet::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::wire::{parse_ipv4, TcpFlags};
    use nf_packet::Packet;
    use nfl_analysis::normalize::normalize;
    use nfl_interp::Interp;
    use nfl_lang::{parse_and_check, pretty};

    fn run(src: &str, pkts: &[Packet]) -> (nfl_lang::Program, Vec<Trace>) {
        let p = parse_and_check(src).unwrap();
        let pl = normalize(&p).unwrap();
        let mut interp = Interp::new(&pl).unwrap();
        let traces = pkts
            .iter()
            .map(|pkt| interp.process(pkt).unwrap().trace)
            .collect();
        (pl.program, traces)
    }

    fn tcp(sport: u16, dport: u16) -> Packet {
        Packet::tcp(
            parse_ipv4("10.0.0.1").unwrap(),
            sport,
            parse_ipv4("3.3.3.3").unwrap(),
            dport,
            TcpFlags::syn(),
        )
    }

    #[test]
    fn untaken_branch_excluded() {
        let src = r#"
            config MODE = 1;
            state a = 0;
            state b = 0;
            fn cb(pkt: packet) {
                if MODE == 1 {
                    a = a + 1;
                    pkt.ip.ttl = a;
                } else {
                    b = b + 1;
                    pkt.ip.ttl = b;
                }
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let (prog, traces) = run(src, &[tcp(1, 80)]);
        let slice = dynamic_slice_of_output(&prog, &traces[0]);
        let text = pretty::program_to_string_opts(
            &prog,
            &pretty::RenderOpts {
                keep_only: Some(slice),
                ..Default::default()
            },
        );
        assert!(text.contains("a = (a + 1)"), "taken branch kept:\n{text}");
        assert!(
            !text.contains("b = (b + 1)"),
            "untaken branch pruned:\n{text}"
        );
    }

    #[test]
    fn criterion_with_no_emit_gives_empty_slice() {
        let src = r#"
            fn cb(pkt: packet) {
                if pkt.tcp.dport == 9999 { send(pkt); }
            }
            fn main() { sniff(cb); }
        "#;
        let (prog, traces) = run(src, &[tcp(1, 80)]);
        assert!(dynamic_slice_of_output(&prog, &traces[0]).is_empty());
    }

    #[test]
    fn unrelated_computation_excluded() {
        let src = r#"
            state stat = 0;
            fn cb(pkt: packet) {
                stat = stat + 1;
                let x = pkt.ip.ttl - 1;
                pkt.ip.ttl = x;
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let (prog, traces) = run(src, &[tcp(1, 80)]);
        let slice = dynamic_slice_of_output(&prog, &traces[0]);
        let text = pretty::program_to_string_opts(
            &prog,
            &pretty::RenderOpts {
                keep_only: Some(slice),
                ..Default::default()
            },
        );
        assert!(!text.contains("stat = (stat + 1)"), "stat pruned:\n{text}");
        assert!(text.contains("let x"), "ttl computation kept:\n{text}");
    }

    #[test]
    fn dynamic_slice_subset_of_static() {
        use crate::static_slice::packet_slice;
        use nfl_analysis::pdg::{default_boundary, Pdg};
        let src = r#"
            config PORT = 80;
            state nat = map();
            state next = 5000;
            fn cb(pkt: packet) {
                let k = (pkt.ip.src, pkt.tcp.sport);
                if pkt.tcp.dport == PORT {
                    if k not in nat {
                        nat[k] = next;
                        next = next + 1;
                    }
                    pkt.tcp.sport = nat[k];
                    send(pkt);
                }
            }
            fn main() { sniff(cb); }
        "#;
        let (prog, traces) = run(src, &[tcp(1, 80), tcp(1, 80)]);
        let b = default_boundary(&prog, "cb");
        let pdg = Pdg::build(&prog, "cb", &b);
        let stat = packet_slice(&pdg, &prog, "cb");
        for t in &traces {
            let dynamic = dynamic_slice_of_output(&prog, t);
            for sid in &dynamic {
                assert!(
                    stat.stmts.contains(sid),
                    "dynamic stmt {sid} not in static slice"
                );
            }
        }
        // Second packet's dynamic slice skips the insert branch body
        // (existing connection), so it is strictly smaller than the first.
        let d1 = dynamic_slice_of_output(&prog, &traces[0]);
        let d2 = dynamic_slice_of_output(&prog, &traces[1]);
        assert!(d2.len() < d1.len(), "{} < {}", d2.len(), d1.len());
    }

    #[test]
    fn first_packet_slice_matches_figure1_story() {
        // The Figure 1 story: for the first packet of a flow, the slice
        // includes the mapping installation; for later packets it reads
        // the mapping instead.
        let src = r#"
            state nat = map();
            fn cb(pkt: packet) {
                let k = (pkt.ip.src, pkt.tcp.sport);
                if k not in nat {
                    nat[k] = 10000;
                }
                pkt.tcp.sport = nat[k];
                send(pkt);
            }
            fn main() { sniff(cb); }
        "#;
        let (prog, traces) = run(src, &[tcp(7, 80), tcp(7, 80)]);
        let d1 = dynamic_slice_of_output(&prog, &traces[0]);
        let t1 = pretty::program_to_string_opts(
            &prog,
            &pretty::RenderOpts {
                keep_only: Some(d1),
                ..Default::default()
            },
        );
        assert!(t1.contains("nat[k] = 10000"), "install kept:\n{t1}");
    }
}
