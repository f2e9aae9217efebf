//! Socket-call unfolding: Figure 4d → Figure 5.
//!
//! Input: a nested-loop socket NF shaped like *balance* (Figure 3):
//!
//! ```text
//! fn main() {
//!     let lfd = listen(PORT);
//!     while true {
//!         let cfd = accept(lfd);
//!         …backend selection…            // e.g. let srv = servers[idx];
//!         if fork() == 0 {
//!             let sfd = connect(ip, port);
//!             while true {
//!                 let which = select2(cfd, sfd);
//!                 if which == 0 { relay client→server } else { relay server→client }
//!             }
//!         }
//!     }
//! }
//! ```
//!
//! Output: a single packet-processing loop (Figure 5) in which the OS's
//! hidden TCP state is an explicit `state` map — `__tcp : flow → fsm
//! code` — driven by the same transitions as [`crate::fsm`]:
//!
//! * SYN for a new flow ⇒ run the *backend selection* statements (hoisted
//!   verbatim from the accept loop), record the chosen backend, answer
//!   SYN-ACK, `__tcp[k] = SYN_RCVD`;
//! * ACK in `SYN_RCVD` ⇒ `ESTABLISHED` (control message processing);
//! * data in `ESTABLISHED` ⇒ relay to the recorded backend (the inner
//!   relay loop's job, now per-packet);
//! * FIN/RST ⇒ tear down;
//! * anything else — in particular **data without a completed
//!   handshake** — is dropped, exactly the hidden behaviour §3.2 says
//!   pure program analysis would miss.
//!
//! The transformation is source-to-source: extracted fragments are
//! re-rendered and spliced into the Figure 5 template, then re-parsed
//! and type-checked, so downstream analyses see an ordinary NFL program.

use nfl_analysis::normalize::{detect_structure, Structure};
use nfl_lang::pretty::expr_to_string;
use nfl_lang::{parse_and_check, Expr, ExprKind, Program, Stmt, StmtKind};
use std::fmt;

/// Errors raised by the unfolding pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnfoldError {
    /// The program is not a nested-loop socket NF.
    NotNestedLoop,
    /// The nested loop doesn't match the balance template.
    Template(String),
    /// The generated program failed to parse/check (internal error).
    Generated(String),
}

impl fmt::Display for UnfoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnfoldError::NotNestedLoop => {
                write!(f, "program is not a nested-loop socket NF (Figure 4d)")
            }
            UnfoldError::Template(m) => write!(f, "unsupported socket template: {m}"),
            UnfoldError::Generated(m) => write!(f, "generated program invalid: {m}"),
        }
    }
}

impl std::error::Error for UnfoldError {}

fn call_of<'e>(e: &'e Expr, name: &str) -> Option<&'e [Expr]> {
    if let ExprKind::Call(n, args) = &e.kind {
        if n == name {
            return Some(args);
        }
    }
    None
}

struct Extracted {
    listen_port: String,
    selection: Vec<Stmt>,
    backend_ip: String,
    backend_port: String,
}

fn extract(program: &Program) -> Result<Extracted, UnfoldError> {
    let main = program.function("main").ok_or(UnfoldError::NotNestedLoop)?;
    // let lfd = listen(PORT);
    let mut listen_port = None;
    for s in &main.body {
        if let StmtKind::Let { value, .. } = &s.kind {
            if let Some(args) = call_of(value, "listen") {
                listen_port = Some(expr_to_string(&args[0]));
            }
        }
    }
    let listen_port =
        listen_port.ok_or_else(|| UnfoldError::Template("no `listen(port)`".into()))?;
    // The accept loop.
    let accept_loop = main
        .body
        .iter()
        .find_map(|s| match &s.kind {
            StmtKind::While { cond, body } if matches!(cond.kind, ExprKind::Bool(true)) => {
                Some(body)
            }
            _ => None,
        })
        .ok_or_else(|| UnfoldError::Template("no accept loop".into()))?;
    // Partition the accept loop: `let cfd = accept(..)`, selection
    // statements, `if fork() == 0 { … }`.
    let mut selection: Vec<Stmt> = Vec::new();
    let mut fork_body: Option<&Vec<Stmt>> = None;
    for s in accept_loop {
        match &s.kind {
            StmtKind::Let { value, .. } if call_of(value, "accept").is_some() => {}
            StmtKind::If {
                cond, then_branch, ..
            } => {
                let is_fork = matches!(
                    &cond.kind,
                    ExprKind::Binary(nfl_lang::BinOp::Eq, a, _)
                        if call_of(a, "fork").is_some()
                );
                if is_fork {
                    fork_body = Some(then_branch);
                } else {
                    selection.push(s.clone());
                }
            }
            _ => selection.push(s.clone()),
        }
    }
    let fork_body =
        fork_body.ok_or_else(|| UnfoldError::Template("no `if fork() == 0` body".into()))?;
    // let sfd = connect(ip, port);
    let mut backend = None;
    for s in fork_body {
        if let StmtKind::Let { value, .. } = &s.kind {
            if let Some(args) = call_of(value, "connect") {
                backend = Some((expr_to_string(&args[0]), expr_to_string(&args[1])));
            }
        }
    }
    let (backend_ip, backend_port) =
        backend.ok_or_else(|| UnfoldError::Template("no `connect(ip, port)`".into()))?;
    Ok(Extracted {
        listen_port,
        selection,
        backend_ip,
        backend_port,
    })
}

fn render_stmts(stmts: &[Stmt], indent: &str) -> String {
    let tmp = Program {
        functions: vec![nfl_lang::Function {
            name: "__tmp".into(),
            params: vec![],
            body: stmts.to_vec(),
            span: Default::default(),
        }],
        ..Program::default()
    };
    let text = nfl_lang::pretty::program_to_string(&tmp);
    text.lines()
        .skip_while(|l| !l.contains("fn __tmp"))
        .skip(1)
        .take_while(|l| !l.starts_with('}'))
        .map(|l| format!("{indent}{}\n", l.trim_start()))
        .collect()
}

/// Unfold a nested-loop socket NF into the Figure 5 single-loop form.
///
/// The result is a fresh, type-checked [`Program`] whose declarations are
/// the original's plus `__tcp` (flow → TCP-FSM code, encodings from
/// [`crate::fsm::TcpState`]) and `__backend` / `__client` NAT-style maps.
pub fn unfold_sockets(program: &Program) -> Result<Program, UnfoldError> {
    if detect_structure(program) != Structure::NestedLoop {
        return Err(UnfoldError::NotNestedLoop);
    }
    let ex = extract(program)?;
    // Preserve the original declarations verbatim.
    let mut decls = String::new();
    for (kw, items) in [
        ("const", &program.consts),
        ("config", &program.configs),
        ("state", &program.states),
    ] {
        for it in items {
            decls.push_str(&format!(
                "{kw} {} = {};\n",
                it.name,
                expr_to_string(&it.init)
            ));
        }
    }
    // Keep helper functions (minus main).
    let mut helpers = String::new();
    for f in &program.functions {
        if f.name == "main" {
            continue;
        }
        let tmp = Program {
            functions: vec![f.clone()],
            ..Program::default()
        };
        helpers.push_str(&nfl_lang::pretty::program_to_string(&tmp));
    }
    let selection = render_stmts(&ex.selection, "                    ");
    let src = format!(
        r#"{decls}
# Hidden OS state, made explicit (paper §3.2 / Figure 5):
state __tcp = map();      # flow 4-tuple -> TCP FSM code (2=SYN_RCVD, 3=ESTABLISHED)
state __backend = map();  # client flow -> chosen backend (ip, port)
state __client = map();   # (client ip, port) -> address the client targeted

{helpers}
fn main() {{
    while true {{
        let pkt = recv();
        if pkt.ip.proto != 6 {{
            # A TCP socket never delivers non-TCP traffic.
            return;
        }}
        let k = (pkt.ip.src, pkt.tcp.sport, pkt.ip.dst, pkt.tcp.dport);
        if pkt.tcp.dport == {port} {{
            # Client-to-NF direction.
            if k not in __tcp {{
                if pkt.tcp.flags & 2 != 0 {{
                    # SYN: passive open. Run the accept-loop's backend
                    # selection, record the mapping, answer SYN-ACK.
{selection}
                    __backend[k] = ({bip}, {bport});
                    __client[(pkt.ip.src, pkt.tcp.sport)] = (pkt.ip.dst, pkt.tcp.dport);
                    __tcp[k] = 2;
                    let csrc = pkt.ip.src;
                    let csport = pkt.tcp.sport;
                    pkt.ip.src = pkt.ip.dst;
                    pkt.tcp.sport = pkt.tcp.dport;
                    pkt.ip.dst = csrc;
                    pkt.tcp.dport = csport;
                    pkt.tcp.flags = 18;
                    send(pkt);
                }}
                # else: no handshake -> hidden-state drop.
            }} else {{
                let st = __tcp[k];
                if pkt.tcp.flags & 4 != 0 {{
                    # RST tears the connection down.
                    map_remove(__tcp, k);
                    map_remove(__backend, k);
                    return;
                }}
                if st != 3 {{
                    # ProcessCtrlMsg: ACK completes the handshake.
                    if pkt.tcp.flags & 16 != 0 {{
                        __tcp[k] = 3;
                    }}
                }} else {{
                    if pkt.tcp.flags & 1 != 0 {{
                        # FIN: passive close.
                        map_remove(__tcp, k);
                        map_remove(__backend, k);
                        return;
                    }}
                    # ProcessDataMsg: relay to the chosen backend.
                    let b = __backend[k];
                    pkt.ip.dst = b[0];
                    pkt.tcp.dport = b[1];
                    send(pkt);
                }}
            }}
        }} else {{
            # NF-to-client direction: backend replies relayed back with
            # the NF's address restored.
            let ck = (pkt.ip.dst, pkt.tcp.dport);
            if ck in __client {{
                let nfaddr = __client[ck];
                pkt.ip.src = nfaddr[0];
                pkt.tcp.sport = nfaddr[1];
                send(pkt);
            }}
            # else: unknown reverse flow -> drop.
        }}
    }}
}}
"#,
        decls = decls,
        helpers = helpers,
        port = ex.listen_port,
        selection = selection,
        bip = ex.backend_ip,
        bport = ex.backend_port,
    );
    parse_and_check(&src).map_err(UnfoldError::Generated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::{ConnTable, TcpAction};
    use nf_packet::wire::{parse_ipv4, TcpFlags};
    use nf_packet::Packet;
    use nfl_analysis::normalize::normalize;
    use nfl_interp::Interp;
    use nfl_lang::parse;

    /// The balance-like NF of the paper's Figure 3, in NFL.
    pub const BALANCE_SRC: &str = r#"
        config LB_PORT = 80;
        config servers = [(1.1.1.1, 8080), (2.2.2.2, 8080)];
        state idx = 0;
        fn main() {
            let lfd = listen(LB_PORT);
            while true {
                let cfd = accept(lfd);
                let srv = servers[idx];
                idx = (idx + 1) % len(servers);
                if fork() == 0 {
                    let sfd = connect(srv[0], srv[1]);
                    while true {
                        let which = select2(cfd, sfd);
                        if which == 0 {
                            let buf = sock_read(cfd);
                            sock_write(sfd, buf);
                        } else {
                            let buf2 = sock_read(sfd);
                            sock_write(cfd, buf2);
                        }
                    }
                }
            }
        }
    "#;

    fn client_pkt(flags: TcpFlags, payload: usize) -> Packet {
        let mut p = Packet::tcp(
            parse_ipv4("10.0.0.1").unwrap(),
            5555,
            parse_ipv4("3.3.3.3").unwrap(),
            80,
            flags,
        );
        p.payload = vec![0xaa; payload];
        p
    }

    #[test]
    fn unfolds_to_one_loop() {
        let p = parse(BALANCE_SRC).unwrap();
        let q = unfold_sockets(&p).unwrap();
        assert_eq!(detect_structure(&q), Structure::OneLoop);
        // Hidden state materialised.
        assert!(q.states.iter().any(|s| s.name == "__tcp"));
        assert!(q.states.iter().any(|s| s.name == "__backend"));
        // Original RR state preserved.
        assert!(q.states.iter().any(|s| s.name == "idx"));
        // No socket builtins remain.
        let text = nfl_lang::pretty::program_to_string(&q);
        for sock in [
            "listen(",
            "accept(",
            "connect(",
            "sock_read",
            "select2",
            "fork(",
        ] {
            assert!(!text.contains(sock), "{sock} survived:\n{text}");
        }
    }

    #[test]
    fn non_nested_program_rejected() {
        let p = parse("fn cb(pkt: packet) { send(pkt); } fn main() { sniff(cb); }").unwrap();
        assert_eq!(unfold_sockets(&p), Err(UnfoldError::NotNestedLoop));
    }

    #[test]
    fn unfolded_program_runs_handshake_then_relays() {
        let p = parse(BALANCE_SRC).unwrap();
        let q = unfold_sockets(&p).unwrap();
        let pl = normalize(&q).unwrap();
        let mut i = Interp::new(&pl).unwrap();

        // Data before handshake: dropped (the §3.2 hidden behaviour).
        let early = i.process(&client_pkt(TcpFlags::ack(), 50)).unwrap();
        assert!(early.dropped, "no handshake yet");

        // SYN: answered with SYN-ACK.
        let syn = i.process(&client_pkt(TcpFlags::syn(), 0)).unwrap();
        assert_eq!(syn.outputs.len(), 1);
        let synack = &syn.outputs[0];
        assert_eq!(synack.tcp_flags().unwrap().0, 18, "SYN|ACK");
        assert_eq!(synack.ip_dst, parse_ipv4("10.0.0.1").unwrap());

        // ACK completes the handshake (control message — no forward).
        let ack = i.process(&client_pkt(TcpFlags::ack(), 0)).unwrap();
        assert!(ack.dropped);

        // Data now relays to backend #0 (round robin started at 0).
        let data = i.process(&client_pkt(TcpFlags::ack(), 100)).unwrap();
        assert_eq!(data.outputs.len(), 1);
        assert_eq!(data.outputs[0].ip_dst, parse_ipv4("1.1.1.1").unwrap());
        assert_eq!(
            data.outputs[0].get(nf_packet::Field::TcpDport).unwrap(),
            8080
        );

        // The RR index advanced exactly once (at the SYN).
        assert_eq!(
            i.global("idx"),
            Some(&nfl_interp::Value::Int(1)),
            "round-robin advanced"
        );
    }

    #[test]
    fn second_connection_gets_next_backend() {
        let p = parse(BALANCE_SRC).unwrap();
        let q = unfold_sockets(&p).unwrap();
        let pl = normalize(&q).unwrap();
        let mut i = Interp::new(&pl).unwrap();
        // Connection 1 handshake.
        i.process(&client_pkt(TcpFlags::syn(), 0)).unwrap();
        i.process(&client_pkt(TcpFlags::ack(), 0)).unwrap();
        // Connection 2 from a different client port.
        let mut syn2 = client_pkt(TcpFlags::syn(), 0);
        syn2.set(nf_packet::Field::TcpSport, 6666).unwrap();
        i.process(&syn2).unwrap();
        let mut ack2 = client_pkt(TcpFlags::ack(), 0);
        ack2.set(nf_packet::Field::TcpSport, 6666).unwrap();
        i.process(&ack2).unwrap();
        let mut data2 = client_pkt(TcpFlags::ack(), 10);
        data2.set(nf_packet::Field::TcpSport, 6666).unwrap();
        let out = i.process(&data2).unwrap();
        assert_eq!(
            out.outputs[0].ip_dst,
            parse_ipv4("2.2.2.2").unwrap(),
            "second connection to second backend"
        );
    }

    #[test]
    fn rst_tears_down_requires_new_handshake() {
        let p = parse(BALANCE_SRC).unwrap();
        let q = unfold_sockets(&p).unwrap();
        let pl = normalize(&q).unwrap();
        let mut i = Interp::new(&pl).unwrap();
        i.process(&client_pkt(TcpFlags::syn(), 0)).unwrap();
        i.process(&client_pkt(TcpFlags::ack(), 0)).unwrap();
        i.process(&client_pkt(TcpFlags::rst(), 0)).unwrap();
        let data = i.process(&client_pkt(TcpFlags::ack(), 10)).unwrap();
        assert!(data.dropped, "connection gone after RST");
    }

    #[test]
    fn unfolded_nfl_agrees_with_reference_fsm() {
        // Drive the generated NFL program and the Rust ConnTable with the
        // same packet sequence; forwarding decisions must agree once the
        // handshake diverges (the NFL LB answers SYN-ACK itself, which
        // ConnTable reports as ReplySynAck).
        let p = parse(BALANCE_SRC).unwrap();
        let q = unfold_sockets(&p).unwrap();
        let pl = normalize(&q).unwrap();
        let mut i = Interp::new(&pl).unwrap();
        let mut t = ConnTable::default();
        let seq = [
            (TcpFlags::ack(), 20), // out-of-state data
            (TcpFlags::syn(), 0),  // open
            (TcpFlags::ack(), 0),  // complete
            (TcpFlags::ack(), 30), // data
            (TcpFlags::fin_ack(), 0),
            (TcpFlags::ack(), 10), // data after FIN
        ];
        for (flags, payload) in seq {
            let pkt = client_pkt(flags, payload);
            let nfl = i.process(&pkt).unwrap();
            let fsm = t.on_packet(&pkt);
            let nfl_forwards = !nfl.dropped;
            let fsm_accepts = matches!(fsm, TcpAction::Accept | TcpAction::ReplySynAck);
            // The pure ACK completing the handshake is a control message:
            // the FSM accepts it, the LB forwards nothing. Data packets
            // and out-of-state packets must agree exactly.
            if payload > 0 {
                assert_eq!(
                    nfl_forwards, fsm_accepts,
                    "disagreement on {flags} len={payload}"
                );
            }
        }
    }
}
