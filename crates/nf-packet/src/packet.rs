//! The abstract [`Packet`] — the object NFL programs and NFactor models
//! manipulate.
//!
//! A `Packet` is the parsed, field-addressable view of one frame: every
//! header field is readable and writable through [`Field`], and the whole
//! thing converts losslessly to and from wire bytes (modulo checksums,
//! which are recomputed on emit). This is the role scapy's packet object
//! plays in the paper's Figure 1 code.

use crate::field::Field;
use crate::wire::{
    fmt_ipv4, EtherType, EthernetFrame, IpProtocol, Ipv4Header, MacAddr, TcpFlags, TcpHeader,
    UdpHeader, WireError,
};
use std::fmt;

/// Errors raised by packet construction or field access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// The wire bytes did not parse.
    Wire(WireError),
    /// A field was read that the packet's protocol does not carry
    /// (e.g. `tcp.sport` on an ICMP packet).
    MissingLayer(Field),
    /// A field was assigned a value outside its domain.
    ValueOutOfRange {
        /// The field being written.
        field: Field,
        /// The offending value.
        value: u64,
    },
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Wire(e) => write!(f, "wire error: {e}"),
            PacketError::MissingLayer(fld) => write!(f, "packet has no layer for field {fld}"),
            PacketError::ValueOutOfRange { field, value } => {
                write!(f, "value {value} out of range for field {field}")
            }
        }
    }
}

impl std::error::Error for PacketError {}

impl From<WireError> for PacketError {
    fn from(e: WireError) -> Self {
        PacketError::Wire(e)
    }
}

/// Transport-layer content of a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// A TCP segment.
    Tcp {
        /// Source port.
        sport: u16,
        /// Destination port.
        dport: u16,
        /// Sequence number.
        seq: u32,
        /// Acknowledgement number.
        ack: u32,
        /// Flag bits (low 6 bits).
        flags: u8,
    },
    /// A UDP datagram.
    Udp {
        /// Source port.
        sport: u16,
        /// Destination port.
        dport: u16,
    },
    /// Any other protocol, opaque to NF programs.
    Other,
}

/// A parsed, field-addressable packet.
#[derive(Debug, PartialEq, Eq)]
pub struct Packet {
    /// Ethernet source (packed 48-bit).
    pub eth_src: u64,
    /// Ethernet destination (packed 48-bit).
    pub eth_dst: u64,
    /// EtherType.
    pub eth_type: u16,
    /// IPv4 source address (host order).
    pub ip_src: u32,
    /// IPv4 destination address (host order).
    pub ip_dst: u32,
    /// IPv4 protocol number.
    pub ip_proto: u8,
    /// IPv4 TTL.
    pub ip_ttl: u8,
    /// IPv4 identification.
    pub ip_id: u16,
    /// Transport layer.
    pub transport: Transport,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Clone for Packet {
    fn clone(&self) -> Packet {
        Packet {
            transport: self.transport.clone(),
            payload: self.payload.clone(),
            ..*self
        }
    }

    /// Reuses `self`'s payload buffer, so a recycled packet is
    /// overwritten without allocating.
    fn clone_from(&mut self, source: &Packet) {
        let mut payload = std::mem::take(&mut self.payload);
        payload.clone_from(&source.payload);
        *self = Packet {
            transport: source.transport.clone(),
            payload,
            ..*source
        };
    }
}

impl Default for Packet {
    fn default() -> Self {
        Packet {
            eth_src: 0,
            eth_dst: 0,
            eth_type: 0x0800,
            ip_src: 0,
            ip_dst: 0,
            ip_proto: 6,
            ip_ttl: 64,
            ip_id: 0,
            transport: Transport::Tcp {
                sport: 0,
                dport: 0,
                seq: 0,
                ack: 0,
                flags: 0,
            },
            payload: Vec::new(),
        }
    }
}

impl Packet {
    /// Build a TCP packet with the given 4-tuple and flags.
    pub fn tcp(ip_src: u32, sport: u16, ip_dst: u32, dport: u16, flags: TcpFlags) -> Self {
        Packet {
            ip_src,
            ip_dst,
            ip_proto: 6,
            transport: Transport::Tcp {
                sport,
                dport,
                seq: 0,
                ack: 0,
                flags: flags.0,
            },
            ..Packet::default()
        }
    }

    /// Build a UDP packet with the given 4-tuple.
    pub fn udp(ip_src: u32, sport: u16, ip_dst: u32, dport: u16) -> Self {
        Packet {
            ip_src,
            ip_dst,
            ip_proto: 17,
            transport: Transport::Udp { sport, dport },
            ..Packet::default()
        }
    }

    /// Read a field. Returns [`PacketError::MissingLayer`] when the packet's
    /// protocol does not carry it.
    pub fn get(&self, field: Field) -> Result<u64, PacketError> {
        let v = match field {
            Field::EthSrc => self.eth_src,
            Field::EthDst => self.eth_dst,
            Field::EthType => u64::from(self.eth_type),
            Field::IpSrc => u64::from(self.ip_src),
            Field::IpDst => u64::from(self.ip_dst),
            Field::IpProto => u64::from(self.ip_proto),
            Field::IpTtl => u64::from(self.ip_ttl),
            Field::IpLen => (Ipv4Header::LEN + self.transport_len() + self.payload.len()) as u64,
            Field::IpId => u64::from(self.ip_id),
            Field::TcpSport => match self.transport {
                Transport::Tcp { sport, .. } => u64::from(sport),
                Transport::Udp { sport, .. } => u64::from(sport),
                Transport::Other => return Err(PacketError::MissingLayer(field)),
            },
            Field::TcpDport => match self.transport {
                Transport::Tcp { dport, .. } => u64::from(dport),
                Transport::Udp { dport, .. } => u64::from(dport),
                Transport::Other => return Err(PacketError::MissingLayer(field)),
            },
            Field::TcpFlags => match self.transport {
                Transport::Tcp { flags, .. } => u64::from(flags),
                _ => return Err(PacketError::MissingLayer(field)),
            },
            Field::TcpSeq => match self.transport {
                Transport::Tcp { seq, .. } => u64::from(seq),
                _ => return Err(PacketError::MissingLayer(field)),
            },
            Field::TcpAck => match self.transport {
                Transport::Tcp { ack, .. } => u64::from(ack),
                _ => return Err(PacketError::MissingLayer(field)),
            },
            Field::PayloadLen => self.payload.len() as u64,
            Field::PayloadByte0 => u64::from(self.payload.first().copied().unwrap_or(0)),
            Field::PayloadByte1 => u64::from(self.payload.get(1).copied().unwrap_or(0)),
        };
        Ok(v)
    }

    /// Write a field, validating the value's domain.
    pub fn set(&mut self, field: Field, value: u64) -> Result<(), PacketError> {
        if value > field.max_value() {
            return Err(PacketError::ValueOutOfRange { field, value });
        }
        match field {
            Field::EthSrc => self.eth_src = value,
            Field::EthDst => self.eth_dst = value,
            Field::EthType => self.eth_type = value as u16,
            Field::IpSrc => self.ip_src = value as u32,
            Field::IpDst => self.ip_dst = value as u32,
            Field::IpProto => self.ip_proto = value as u8,
            Field::IpTtl => self.ip_ttl = value as u8,
            Field::IpLen => { /* derived; ignore writes */ }
            Field::IpId => self.ip_id = value as u16,
            Field::TcpSport => match &mut self.transport {
                Transport::Tcp { sport, .. } | Transport::Udp { sport, .. } => {
                    *sport = value as u16
                }
                Transport::Other => return Err(PacketError::MissingLayer(field)),
            },
            Field::TcpDport => match &mut self.transport {
                Transport::Tcp { dport, .. } | Transport::Udp { dport, .. } => {
                    *dport = value as u16
                }
                Transport::Other => return Err(PacketError::MissingLayer(field)),
            },
            Field::TcpFlags => match &mut self.transport {
                Transport::Tcp { flags, .. } => *flags = value as u8,
                _ => return Err(PacketError::MissingLayer(field)),
            },
            Field::TcpSeq => match &mut self.transport {
                Transport::Tcp { seq, .. } => *seq = value as u32,
                _ => return Err(PacketError::MissingLayer(field)),
            },
            Field::TcpAck => match &mut self.transport {
                Transport::Tcp { ack, .. } => *ack = value as u32,
                _ => return Err(PacketError::MissingLayer(field)),
            },
            Field::PayloadLen => {
                self.payload.resize(value as usize, 0);
            }
            Field::PayloadByte0 => {
                if self.payload.is_empty() {
                    self.payload.push(0);
                }
                self.payload[0] = value as u8;
            }
            Field::PayloadByte1 => {
                while self.payload.len() < 2 {
                    self.payload.push(0);
                }
                self.payload[1] = value as u8;
            }
        }
        Ok(())
    }

    /// TCP flag view of the packet, if it is TCP.
    pub fn tcp_flags(&self) -> Option<TcpFlags> {
        match self.transport {
            Transport::Tcp { flags, .. } => Some(TcpFlags(flags)),
            _ => None,
        }
    }

    fn transport_len(&self) -> usize {
        match self.transport {
            Transport::Tcp { .. } => TcpHeader::LEN,
            Transport::Udp { .. } => UdpHeader::LEN,
            Transport::Other => 0,
        }
    }

    /// Total on-wire length (Ethernet + IP + transport + payload).
    pub fn wire_len(&self) -> usize {
        EthernetFrame::LEN + Ipv4Header::LEN + self.transport_len() + self.payload.len()
    }

    /// Serialize to wire bytes, computing all checksums.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out: Vec<u8> = Vec::with_capacity(self.wire_len());
        EthernetFrame {
            dst: MacAddr::from_u64(self.eth_dst),
            src: MacAddr::from_u64(self.eth_src),
            ethertype: EtherType::from(self.eth_type),
        }
        .emit(&mut out);
        let ip_start = out.len();
        Ipv4Header {
            dscp_ecn: 0,
            total_len: (Ipv4Header::LEN + self.transport_len() + self.payload.len()) as u16,
            ident: self.ip_id,
            dont_frag: false,
            more_frags: false,
            frag_offset: 0,
            ttl: self.ip_ttl,
            protocol: IpProtocol::from(self.ip_proto),
            src: self.ip_src,
            dst: self.ip_dst,
        }
        .emit(&mut out);
        let seg_start = out.len();
        match self.transport {
            Transport::Tcp {
                sport,
                dport,
                seq,
                ack,
                flags,
            } => {
                TcpHeader {
                    sport,
                    dport,
                    seq,
                    ack,
                    flags: TcpFlags(flags),
                    window: 65535,
                }
                .emit(&mut out);
                out.extend_from_slice(&self.payload);
                let (src, dst) = (self.ip_src, self.ip_dst);
                TcpHeader::fill_checksum(&mut out[seg_start..], src, dst);
            }
            Transport::Udp { sport, dport } => {
                UdpHeader {
                    sport,
                    dport,
                    length: (UdpHeader::LEN + self.payload.len()) as u16,
                }
                .emit(&mut out);
                out.extend_from_slice(&self.payload);
            }
            Transport::Other => {
                out.extend_from_slice(&self.payload);
            }
        }
        debug_assert!(out.len() >= ip_start);
        out
    }

    /// Parse from wire bytes. Verifies the IPv4 checksum; TCP checksum is
    /// verified when the segment is intact.
    pub fn from_wire(buf: &[u8]) -> Result<Packet, PacketError> {
        let (eth, mut off) = EthernetFrame::parse(buf)?;
        if eth.ethertype != EtherType::Ipv4 {
            return Err(PacketError::Wire(WireError::Malformed));
        }
        let (ip, ip_len) = Ipv4Header::parse(&buf[off..])?;
        off += ip_len;
        let seg_end = (off + ip.payload_len()).min(buf.len());
        let segment = &buf[off..seg_end];
        let (transport, payload) = match ip.protocol {
            IpProtocol::Tcp => {
                let (tcp, hl) = TcpHeader::parse(segment)?;
                if !TcpHeader::verify_checksum(segment, ip.src, ip.dst) {
                    return Err(PacketError::Wire(WireError::BadChecksum));
                }
                (
                    Transport::Tcp {
                        sport: tcp.sport,
                        dport: tcp.dport,
                        seq: tcp.seq,
                        ack: tcp.ack,
                        flags: tcp.flags.0,
                    },
                    segment[hl..].to_vec(),
                )
            }
            IpProtocol::Udp => {
                let (udp, hl) = UdpHeader::parse(segment)?;
                (
                    Transport::Udp {
                        sport: udp.sport,
                        dport: udp.dport,
                    },
                    segment[hl..].to_vec(),
                )
            }
            _ => (Transport::Other, segment.to_vec()),
        };
        Ok(Packet {
            eth_src: eth.src.to_u64(),
            eth_dst: eth.dst.to_u64(),
            eth_type: eth.ethertype.into(),
            ip_src: ip.src,
            ip_dst: ip.dst,
            ip_proto: ip.protocol.into(),
            ip_ttl: ip.ttl,
            ip_id: ip.ident,
            transport,
            payload,
        })
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.transport {
            Transport::Tcp {
                sport,
                dport,
                flags,
                ..
            } => write!(
                f,
                "TCP {}:{} > {}:{} [{}] len={}",
                fmt_ipv4(self.ip_src),
                sport,
                fmt_ipv4(self.ip_dst),
                dport,
                TcpFlags(flags),
                self.payload.len()
            ),
            Transport::Udp { sport, dport } => write!(
                f,
                "UDP {}:{} > {}:{} len={}",
                fmt_ipv4(self.ip_src),
                sport,
                fmt_ipv4(self.ip_dst),
                dport,
                self.payload.len()
            ),
            Transport::Other => write!(
                f,
                "IP proto={} {} > {} len={}",
                self.ip_proto,
                fmt_ipv4(self.ip_src),
                fmt_ipv4(self.ip_dst),
                self.payload.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::parse_ipv4;

    fn sample() -> Packet {
        let mut p = Packet::tcp(
            parse_ipv4("10.0.0.1").unwrap(),
            40000,
            parse_ipv4("3.3.3.3").unwrap(),
            80,
            TcpFlags::syn(),
        );
        p.payload = b"GET /".to_vec();
        p
    }

    #[test]
    fn wire_roundtrip_tcp() {
        let p = sample();
        let bytes = p.to_wire();
        let q = Packet::from_wire(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn wire_roundtrip_udp() {
        let mut p = Packet::udp(0x01010101, 53, 0x02020202, 5353);
        p.payload = vec![1, 2, 3];
        let q = Packet::from_wire(&p.to_wire()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn get_set_all_fields() {
        let mut p = sample();
        for f in Field::ALL {
            let v = p.get(f).unwrap();
            assert!(v <= f.max_value(), "{f} value {v} exceeds domain");
            if f != Field::IpLen {
                p.set(f, v).unwrap();
                assert_eq!(p.get(f).unwrap(), v, "{f} did not round-trip");
            }
        }
    }

    #[test]
    fn nat_rewrite_like_figure1() {
        // The Figure 1 LB rewrites src to (LB_IP, n_port) and dst to the
        // backend server — exactly what the model's flow action does.
        let mut p = sample();
        p.set(Field::IpSrc, u64::from(parse_ipv4("3.3.3.3").unwrap()))
            .unwrap();
        p.set(Field::TcpSport, 10000).unwrap();
        p.set(Field::IpDst, u64::from(parse_ipv4("1.1.1.1").unwrap()))
            .unwrap();
        p.set(Field::TcpDport, 80).unwrap();
        assert_eq!(p.get(Field::IpSrc).unwrap(), 0x03030303);
        assert_eq!(p.get(Field::TcpSport).unwrap(), 10000);
    }

    #[test]
    fn missing_layer_errors() {
        let mut p = sample();
        p.transport = Transport::Other;
        assert_eq!(
            p.get(Field::TcpSport),
            Err(PacketError::MissingLayer(Field::TcpSport))
        );
        assert_eq!(
            p.set(Field::TcpFlags, 2),
            Err(PacketError::MissingLayer(Field::TcpFlags))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut p = sample();
        assert!(matches!(
            p.set(Field::TcpSport, 1 << 20),
            Err(PacketError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn payload_fields() {
        let mut p = Packet::default();
        assert_eq!(p.get(Field::PayloadByte0).unwrap(), 0);
        p.set(Field::PayloadByte1, 0xab).unwrap();
        assert_eq!(p.payload, vec![0, 0xab]);
        assert_eq!(p.get(Field::PayloadLen).unwrap(), 2);
        p.set(Field::PayloadLen, 5).unwrap();
        assert_eq!(p.payload.len(), 5);
    }

    #[test]
    fn corrupt_wire_rejected() {
        let p = sample();
        let mut bytes = p.to_wire();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // corrupt payload -> TCP checksum fails
        assert!(matches!(
            Packet::from_wire(&bytes),
            Err(PacketError::Wire(WireError::BadChecksum))
        ));
    }

    #[test]
    fn display_formats() {
        let p = sample();
        let s = p.to_string();
        assert!(s.contains("10.0.0.1:40000"), "{s}");
        assert!(s.contains("[S]"), "{s}");
    }

    #[test]
    fn from_wire_survives_truncation_at_every_offset() {
        let bytes = sample().to_wire();
        for n in 0..bytes.len() {
            // Every strict prefix must be rejected cleanly, not panic.
            assert!(Packet::from_wire(&bytes[..n]).is_err(), "prefix {n}");
        }
    }

    #[test]
    fn from_wire_survives_adversarial_mutations() {
        let bytes = sample().to_wire();
        let mut rng = nf_support::rng::Rng::new(42);
        for _ in 0..2000 {
            let mut b = bytes.clone();
            // Flip 1–8 random bytes and decode; any Err is fine, a panic
            // is not.
            for _ in 0..1 + rng.gen_below(8) {
                let i = rng.gen_below(b.len() as u64) as usize;
                b[i] ^= rng.gen_below(256) as u8;
            }
            let _ = Packet::from_wire(&b);
        }
    }

    #[test]
    fn ip_len_is_derived() {
        let p = sample();
        assert_eq!(
            p.get(Field::IpLen).unwrap() as usize,
            Ipv4Header::LEN + TcpHeader::LEN + p.payload.len()
        );
    }
}
