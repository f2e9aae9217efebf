//! Flow identification.
//!
//! The paper's NF code keys its NAT dictionaries on 4-tuples
//! (`(si, sp, di, dp)` in Figure 1). [`FlowKey`] is that 4-tuple;
//! [`FiveTuple`] adds the protocol for NFs that multiplex TCP and UDP.

use crate::packet::{Packet, PacketError};
use crate::Field;
use std::fmt;

/// A transport 4-tuple `(src ip, src port, dst ip, dst port)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Source port.
    pub src_port: u16,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Destination port.
    pub dst_port: u16,
}

impl FlowKey {
    /// Extract the 4-tuple from a packet. Fails for portless protocols.
    pub fn of(pkt: &Packet) -> Result<FlowKey, PacketError> {
        Ok(FlowKey {
            src_ip: pkt.get(Field::IpSrc)? as u32,
            src_port: pkt.get(Field::TcpSport)? as u16,
            dst_ip: pkt.get(Field::IpDst)? as u32,
            dst_port: pkt.get(Field::TcpDport)? as u16,
        })
    }

    /// The reverse direction of this flow (`sc_ftpl` from `cs_ftpl` in the
    /// paper's Figure 1 naming).
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            src_port: self.dst_port,
            dst_ip: self.src_ip,
            dst_port: self.src_port,
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} > {}:{}",
            crate::wire::fmt_ipv4(self.src_ip),
            self.src_port,
            crate::wire::fmt_ipv4(self.dst_ip),
            self.dst_port
        )
    }
}

/// A transport 5-tuple: [`FlowKey`] plus IP protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// The 4-tuple.
    pub key: FlowKey,
    /// IP protocol number.
    pub proto: u8,
}

impl FiveTuple {
    /// Extract the 5-tuple from a packet.
    pub fn of(pkt: &Packet) -> Result<FiveTuple, PacketError> {
        Ok(FiveTuple {
            key: FlowKey::of(pkt)?,
            proto: pkt.get(Field::IpProto)? as u8,
        })
    }

    /// The reverse direction, same protocol.
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            key: self.key.reversed(),
            proto: self.proto,
        }
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} proto={}", self.key, self.proto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{parse_ipv4, TcpFlags};

    #[test]
    fn extract_and_reverse() {
        let p = Packet::tcp(
            parse_ipv4("10.0.0.1").unwrap(),
            1234,
            parse_ipv4("3.3.3.3").unwrap(),
            80,
            TcpFlags::syn(),
        );
        let k = FlowKey::of(&p).unwrap();
        assert_eq!(k.src_port, 1234);
        assert_eq!(k.reversed().reversed(), k);
        assert_eq!(k.reversed().dst_port, 1234);
    }

    #[test]
    fn five_tuple() {
        let p = Packet::udp(1, 2, 3, 4);
        let t = FiveTuple::of(&p).unwrap();
        assert_eq!(t.proto, 17);
        assert_eq!(t.reversed().key.src_port, 4);
    }

    #[test]
    fn display() {
        let k = FlowKey {
            src_ip: parse_ipv4("1.2.3.4").unwrap(),
            src_port: 5,
            dst_ip: parse_ipv4("6.7.8.9").unwrap(),
            dst_port: 10,
        };
        assert_eq!(k.to_string(), "1.2.3.4:5 > 6.7.8.9:10");
    }
}
