//! Micro-benchmarks of the substrates the pipeline is built on: the
//! packet wire codec, the TCP state machine, the concrete interpreter,
//! and the model evaluator (the §5 experiment's two inner loops).

use nf_packet::wire::{parse_ipv4, TcpFlags};
use nf_packet::{Packet, PacketGen};
use nf_support::bench::Harness;
use nf_tcp::{ConnTable, TcpState};
use nfactor_core::accuracy::initial_model_state;
use nfactor_core::Pipeline;
use nfl_interp::Interp;

fn bench_packet_codec(h: &mut Harness) {
    let mut g = h.benchmark_group("substrate/packet");
    let mut pkt = Packet::tcp(
        parse_ipv4("10.0.0.1").unwrap(),
        40000,
        parse_ipv4("3.3.3.3").unwrap(),
        80,
        TcpFlags::syn(),
    );
    pkt.payload = vec![0xab; 512];
    let wire = pkt.to_wire();
    g.bench_function("emit", |b| b.iter(|| pkt.to_wire()));
    g.bench_function("parse", |b| b.iter(|| Packet::from_wire(&wire).unwrap()));
    g.bench_function("generate", |b| {
        let mut gen = PacketGen::new(7);
        b.iter(|| gen.next_packet())
    });
    g.finish();
}

fn bench_tcp_fsm(h: &mut Harness) {
    let mut g = h.benchmark_group("substrate/tcp_fsm");
    let syn = Packet::tcp(1, 2, 3, 80, TcpFlags::syn());
    let ack = Packet::tcp(1, 2, 3, 80, TcpFlags::ack());
    let mut data = Packet::tcp(1, 2, 3, 80, TcpFlags::ack());
    data.payload = vec![0; 64];
    let fin = Packet::tcp(1, 2, 3, 80, TcpFlags::fin_ack());
    g.bench_function("handshake_data_teardown", |b| {
        b.iter(|| {
            let mut t = ConnTable::default();
            t.on_packet(&syn);
            t.on_packet(&ack);
            for _ in 0..8 {
                t.on_packet(&data);
            }
            t.on_packet(&fin);
            assert_ne!(
                t.state(&nf_packet::FlowKey::of(&syn).unwrap()),
                TcpState::Established
            );
        })
    });
    g.finish();
}

fn bench_interp_vs_model(h: &mut Harness) {
    let mut g = h.benchmark_group("substrate/per_packet");
    let syn = Pipeline::builder()
        .name("nat")
        .build()
        .unwrap()
        .synthesize(&nf_corpus::nat::source())
        .unwrap();
    let pkts = PacketGen::new(11).batch(256);
    g.bench_function("interpreter", |b| {
        b.iter(|| {
            let mut i = Interp::new(&syn.nf_loop).unwrap();
            for p in &pkts {
                let _ = i.process(p).unwrap();
            }
        })
    });
    g.bench_function("model_eval", |b| {
        let interp0 = Interp::new(&syn.nf_loop).unwrap();
        b.iter(|| {
            let mut st = initial_model_state(&syn, &interp0);
            for p in &pkts {
                let _ = st.step(&syn.model, p).unwrap();
            }
        })
    });
    g.finish();
}

fn main() {
    let mut h = Harness::from_args("substrates");
    bench_packet_codec(&mut h);
    bench_tcp_fsm(&mut h);
    bench_interp_vs_model(&mut h);
    h.finish();
}
