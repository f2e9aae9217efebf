//! Deterministic random packet generation.
//!
//! The paper's §5 accuracy experiment "generate\[s\] random inputs (i.e.,
//! packets) to both NFactor model and the original program ... repeat\[ed\]
//! 1000 times". [`PacketGen`] is that workload generator: a seeded,
//! reproducible stream of packets drawn from fixed pools. Sources come
//! from four client addresses and destinations from three server
//! addresses (the corpus NFs' VIPs and backends); 60% of new flows
//! target a listening port (80 or 443), so random testing exercises both
//! match and miss paths; 40% of packets replay a recent 4-tuple, so
//! "existing connection" paths fire too.

use crate::packet::Packet;
use crate::wire::TcpFlags;
use nf_support::rng::Rng;

/// Client addresses sources are drawn from.
const CLIENT_IPS: [u32; 4] = [0x0a000001, 0x0a000002, 0x0a000003, 0x0a000004];
/// Server-side addresses (NF VIPs, backends) destinations are drawn from.
const SERVER_IPS: [u32; 3] = [0x03030303, 0x01010101, 0x02020202];
/// Ports the corpus NFs listen on.
const LISTEN_PORTS: [u16; 2] = [80, 443];
/// Probability that a new flow targets one of [`LISTEN_PORTS`].
const BIAS_LISTEN: f64 = 0.6;
/// Probability that a new flow is UDP instead of TCP.
const UDP_RATIO: f64 = 0.1;
/// Probability that a packet reuses a recently generated 4-tuple.
const REUSE_FLOW: f64 = 0.4;
/// Maximum payload length.
const MAX_PAYLOAD: u64 = 64;

/// A seeded random packet generator.
#[derive(Debug)]
pub struct PacketGen {
    rng: Rng,
    history: Vec<(u32, u16, u32, u16)>,
}

impl PacketGen {
    /// Create a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        PacketGen {
            rng: Rng::new(seed),
            history: Vec::new(),
        }
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[self.rng.gen_index(pool.len())]
    }

    /// Generate the next packet in the stream.
    pub fn next_packet(&mut self) -> Packet {
        // Possibly replay a known flow to hit "existing connection" logic.
        if !self.history.is_empty() && self.rng.gen_bool(REUSE_FLOW) {
            let idx = self.rng.gen_index(self.history.len());
            let (si, sp, di, dp) = self.history[idx];
            let mut p = Packet::tcp(si, sp, di, dp, TcpFlags::ack());
            p.payload = self.payload();
            return p;
        }
        let si = self.pick(&CLIENT_IPS);
        let sp = self.rng.gen_range_u64(1024, u64::from(u16::MAX)) as u16;
        let di = self.pick(&SERVER_IPS);
        let dp = if self.rng.gen_bool(BIAS_LISTEN) {
            self.pick(&LISTEN_PORTS)
        } else {
            self.rng.gen_range_u64(1, u64::from(u16::MAX)) as u16
        };
        self.history.push((si, sp, di, dp));
        if self.history.len() > 256 {
            self.history.remove(0);
        }
        let mut p = if self.rng.gen_bool(UDP_RATIO) {
            Packet::udp(si, sp, di, dp)
        } else {
            let flags = match self.rng.gen_index(4) {
                0 => TcpFlags::syn(),
                1 => TcpFlags::ack(),
                2 => TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
                _ => TcpFlags::fin_ack(),
            };
            Packet::tcp(si, sp, di, dp, flags)
        };
        p.payload = self.payload();
        p.ip_id = self.rng.gen_u16();
        p
    }

    fn payload(&mut self) -> Vec<u8> {
        let n = self.rng.gen_range_u64(0, MAX_PAYLOAD) as usize;
        let mut out = vec![0u8; n];
        self.rng.fill(&mut out);
        out
    }

    /// Generate a batch of `n` packets.
    pub fn batch(&mut self, n: usize) -> Vec<Packet> {
        (0..n).map(|_| self.next_packet()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = PacketGen::new(42).batch(50);
        let b = PacketGen::new(42).batch(50);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = PacketGen::new(1).batch(50);
        let b = PacketGen::new(2).batch(50);
        assert_ne!(a, b);
    }

    #[test]
    fn respects_pools() {
        let pkts = PacketGen::new(0).batch(500);
        for p in &pkts {
            assert!(CLIENT_IPS.contains(&p.ip_src), "{:#x}", p.ip_src);
            assert!(SERVER_IPS.contains(&p.ip_dst), "{:#x}", p.ip_dst);
            assert!(p.payload.len() <= MAX_PAYLOAD as usize);
        }
        // BIAS_LISTEN = 0.6 of flows target a listening port.
        let listening = pkts
            .iter()
            .filter(|p| LISTEN_PORTS.contains(&(p.get(crate::Field::TcpDport).unwrap() as u16)))
            .count();
        assert!((225..=375).contains(&listening), "{listening} of 500");
    }

    #[test]
    fn reuse_produces_duplicate_tuples() {
        let pkts = PacketGen::new(3).batch(200);
        let tuples: Vec<_> = pkts
            .iter()
            .map(|p| crate::FlowKey::of(p).unwrap())
            .collect();
        let unique: std::collections::HashSet<_> = tuples.iter().collect();
        // With REUSE_FLOW = 0.4, about 80 of 200 packets replay a flow.
        let reused = tuples.len() - unique.len();
        assert!(
            (40..=120).contains(&reused),
            "{reused} reused of {}",
            tuples.len()
        );
    }

    #[test]
    fn all_generated_packets_serialize() {
        let mut g = PacketGen::new(99);
        for p in g.batch(100) {
            let q = Packet::from_wire(&p.to_wire()).unwrap();
            assert_eq!(p, q);
        }
    }
}
