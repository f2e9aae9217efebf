//! The four NF code-structure archetypes of Figure 4.
//!
//! All four implement the *same* trivial NF — count packets to a port
//! and forward them — so tests and the structure bench can check that
//! normalisation makes them analysis-equivalent.

/// Figure 4a: one processing loop.
pub fn one_loop() -> String {
    r#"
config PORT = 80;
state hits = 0;
fn main() {
    while true {
        let pkt = recv("eth0");
        if pkt.tcp.dport == PORT {
            hits = hits + 1;
            send(pkt);
        }
    }
}
"#
    .to_string()
}

/// Figure 4b: a packet loop hidden behind a callback (`sniff`).
pub fn callback() -> String {
    r#"
config PORT = 80;
state hits = 0;
fn handle(pkt: packet) {
    if pkt.tcp.dport == PORT {
        hits = hits + 1;
        send(pkt);
    }
}
fn main() {
    sniff(handle, "eth0");
}
"#
    .to_string()
}

/// Figure 4c: consumer-producer loops joined by a queue.
pub fn consumer_producer() -> String {
    r#"
config PORT = 80;
state hits = 0;
state q = queue();
fn read_loop() {
    while true {
        let pkt = recv("eth0");
        q_push(q, pkt);
    }
}
fn proc_loop() {
    while true {
        let pkt = q_pop(q);
        if pkt.tcp.dport == PORT {
            hits = hits + 1;
            send(pkt);
        }
    }
}
fn main() {
    spawn(read_loop);
    spawn(proc_loop);
}
"#
    .to_string()
}

/// Figure 4d: nested loops over the socket API (accept + per-connection
/// relay). Functionally richer than the other three — it needs the
/// TCP unfolding — but drives the same "to port, count, forward" logic.
pub fn nested_loop() -> String {
    r#"
config PORT = 80;
config servers = [(9.9.9.9, 80)];
state hits = 0;
state idx = 0;
fn main() {
    let lfd = listen(PORT);
    while true {
        let cfd = accept(lfd);
        hits = hits + 1;
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
"#
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_packet::wire::{parse_ipv4, TcpFlags};
    use nf_packet::Packet;
    use nfl_analysis::normalize::{detect_structure, normalize, Structure};
    use nfl_interp::Interp;

    #[test]
    fn shapes_detected() {
        let cases = [
            (one_loop(), Structure::OneLoop),
            (callback(), Structure::Callback),
            (consumer_producer(), Structure::ConsumerProducer),
            (nested_loop(), Structure::NestedLoop),
        ];
        for (src, expect) in cases {
            let p = nfl_lang::parse_and_check(&src).unwrap();
            assert_eq!(detect_structure(&p), expect);
        }
    }

    #[test]
    fn first_three_shapes_behave_identically() {
        let mut results = Vec::new();
        for src in [one_loop(), callback(), consumer_producer()] {
            let p = nfl_lang::parse_and_check(&src).unwrap();
            let mut i = Interp::new(&normalize(&p).unwrap()).unwrap();
            let hit = i
                .process(&Packet::tcp(
                    parse_ipv4("1.1.1.1").unwrap(),
                    9,
                    parse_ipv4("2.2.2.2").unwrap(),
                    80,
                    TcpFlags::syn(),
                ))
                .unwrap();
            let miss = i
                .process(&Packet::tcp(
                    parse_ipv4("1.1.1.1").unwrap(),
                    9,
                    parse_ipv4("2.2.2.2").unwrap(),
                    81,
                    TcpFlags::syn(),
                ))
                .unwrap();
            results.push((hit.dropped, miss.dropped, i.global("hits").cloned()));
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
        assert!(!results[0].0);
        assert!(results[0].1);
    }

    #[test]
    fn all_four_synthesize_models() {
        for (name, src) in [
            ("4a", one_loop()),
            ("4b", callback()),
            ("4c", consumer_producer()),
            ("4d", nested_loop()),
        ] {
            let syn = nfactor_core::Pipeline::builder()
                .name(name)
                .build()
                .unwrap()
                .synthesize(&src)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(syn.model.entry_count() > 0, "{name} produced no entries");
        }
    }
}
