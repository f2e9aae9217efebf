//! Named packet fields.
//!
//! NFL programs address packet headers by dotted paths (`pkt.ip.src`,
//! `pkt.tcp.sport`), and synthesized NFactor models match and rewrite the
//! same names (Figure 2a / Figure 6). [`Field`] is the shared vocabulary:
//! every layer of the system — interpreter, symbolic executor, model
//! evaluator, verifier — speaks in these fields.

use std::fmt;

/// A named, integer-valued packet header field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Field {
    /// Ethernet source MAC (48 bits, packed into an integer).
    EthSrc,
    /// Ethernet destination MAC.
    EthDst,
    /// EtherType.
    EthType,
    /// IPv4 source address.
    IpSrc,
    /// IPv4 destination address.
    IpDst,
    /// IPv4 protocol number.
    IpProto,
    /// IPv4 time-to-live.
    IpTtl,
    /// IPv4 total length.
    IpLen,
    /// IPv4 identification.
    IpId,
    /// TCP source port (also used for UDP when `IpProto` = 17).
    TcpSport,
    /// TCP destination port.
    TcpDport,
    /// TCP flag bits.
    TcpFlags,
    /// TCP sequence number.
    TcpSeq,
    /// TCP acknowledgement number.
    TcpAck,
    /// Payload length in bytes.
    PayloadLen,
    /// First payload byte (snort-style shallow content check).
    PayloadByte0,
    /// Second payload byte.
    PayloadByte1,
}

impl Field {
    /// Every field, in canonical order.
    pub const ALL: [Field; 17] = [
        Field::EthSrc,
        Field::EthDst,
        Field::EthType,
        Field::IpSrc,
        Field::IpDst,
        Field::IpProto,
        Field::IpTtl,
        Field::IpLen,
        Field::IpId,
        Field::TcpSport,
        Field::TcpDport,
        Field::TcpFlags,
        Field::TcpSeq,
        Field::TcpAck,
        Field::PayloadLen,
        Field::PayloadByte0,
        Field::PayloadByte1,
    ];

    /// The NFL dotted path for this field (what source programs write).
    pub fn path(&self) -> &'static str {
        match self {
            Field::EthSrc => "eth.src",
            Field::EthDst => "eth.dst",
            Field::EthType => "eth.type",
            Field::IpSrc => "ip.src",
            Field::IpDst => "ip.dst",
            Field::IpProto => "ip.proto",
            Field::IpTtl => "ip.ttl",
            Field::IpLen => "ip.len",
            Field::IpId => "ip.id",
            Field::TcpSport => "tcp.sport",
            Field::TcpDport => "tcp.dport",
            Field::TcpFlags => "tcp.flags",
            Field::TcpSeq => "tcp.seq",
            Field::TcpAck => "tcp.ack",
            Field::PayloadLen => "payload.len",
            Field::PayloadByte0 => "payload.b0",
            Field::PayloadByte1 => "payload.b1",
        }
    }

    /// Look up a field by its NFL dotted path.
    pub fn from_path(path: &str) -> Option<Field> {
        Field::ALL.iter().copied().find(|f| f.path() == path)
    }

    /// The inclusive upper bound of this field's value domain. Used by the
    /// symbolic executor's interval solver and by the packet generator.
    pub fn max_value(&self) -> u64 {
        match self {
            Field::EthSrc | Field::EthDst => (1 << 48) - 1,
            Field::EthType => u64::from(u16::MAX),
            Field::IpSrc | Field::IpDst => u64::from(u32::MAX),
            Field::IpProto | Field::IpTtl => u64::from(u8::MAX),
            Field::IpLen | Field::IpId => u64::from(u16::MAX),
            Field::TcpSport | Field::TcpDport => u64::from(u16::MAX),
            Field::TcpFlags => 0x3f,
            Field::TcpSeq | Field::TcpAck => u64::from(u32::MAX),
            Field::PayloadLen => 65_495,
            Field::PayloadByte0 | Field::PayloadByte1 => u64::from(u8::MAX),
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.path())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_roundtrip() {
        for f in Field::ALL {
            assert_eq!(Field::from_path(f.path()), Some(f), "field {f:?}");
        }
    }

    #[test]
    fn unknown_path() {
        assert_eq!(Field::from_path("ip.nonsense"), None);
    }

    #[test]
    fn domains_are_sane() {
        assert_eq!(Field::TcpSport.max_value(), 65535);
        assert_eq!(Field::IpSrc.max_value(), u64::from(u32::MAX));
        assert!(Field::TcpFlags.max_value() < 64);
    }

    #[test]
    fn all_is_exhaustive_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for f in Field::ALL {
            assert!(seen.insert(f.path()), "duplicate {f:?}");
        }
        assert_eq!(seen.len(), Field::ALL.len());
    }
}
