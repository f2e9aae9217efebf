//! Wire-format headers: Ethernet II, IPv4, TCP, UDP.
//!
//! Each header type owns its fields as plain integers and converts to and
//! from bytes with [`emit`](Ipv4Header::emit) / [`parse`](Ipv4Header::parse).
//! Checksums are computed with the standard Internet one's-complement sum;
//! `parse` verifies them and `emit` fills them in.

use nf_support::bytes::PutBytes;
use std::fmt;

/// Errors raised while parsing a wire-format header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header.
    Truncated,
    /// A version / header-length field has an unsupported value.
    Malformed,
    /// The checksum did not verify.
    BadChecksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::Malformed => write!(f, "malformed header"),
            WireError::BadChecksum => write!(f, "bad checksum"),
        }
    }
}

impl std::error::Error for WireError {}

/// A six-byte IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// Pack into a `u64` (lower 48 bits) for storage in NFL integers.
    pub fn to_u64(&self) -> u64 {
        self.0
            .iter()
            .fold(0u64, |acc, b| (acc << 8) | u64::from(*b))
    }

    /// Unpack from the lower 48 bits of a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut b = [0u8; 6];
        for (i, byte) in b.iter_mut().enumerate() {
            *byte = ((v >> (8 * (5 - i))) & 0xff) as u8;
        }
        MacAddr(b)
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`) — recognised but not processed by NF programs.
    Arp,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(o) => o,
        }
    }
}

/// An Ethernet II frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
}

impl EthernetFrame {
    /// Fixed length of an Ethernet II header in bytes.
    pub const LEN: usize = 14;

    /// Parse a header from the front of `buf`, returning the header and the
    /// number of bytes consumed.
    pub fn parse(buf: &[u8]) -> Result<(Self, usize), WireError> {
        if buf.len() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        let ethertype = u16::from_be_bytes([buf[12], buf[13]]).into();
        Ok((
            EthernetFrame {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype,
            },
            Self::LEN,
        ))
    }

    /// Append the wire form of this header to `out`.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.put_slice(&self.dst.0);
        out.put_slice(&self.src.0);
        out.put_u16(self.ethertype.into());
    }
}

impl Default for EthernetFrame {
    fn default() -> Self {
        EthernetFrame {
            dst: MacAddr::default(),
            src: MacAddr::default(),
            ethertype: EtherType::Ipv4,
        }
    }
}

/// IP protocol numbers this stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(v: IpProtocol) -> u8 {
        match v {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(o) => o,
        }
    }
}

/// Compute the Internet checksum (RFC 1071) over `data`.
///
/// The returned value is the final one's-complement, ready to be stored in a
/// checksum field. Verification: a buffer whose checksum field is filled in
/// sums to zero.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// An IPv4 header (without options — options are rejected as
/// [`WireError::Malformed`], mirroring smoltcp's policy of the features NF
/// code actually exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services / TOS byte.
    pub dscp_ecn: u8,
    /// Total length of header plus payload in bytes.
    pub total_len: u16,
    /// Identification field, used to correlate fragments.
    pub ident: u16,
    /// Don't-fragment flag.
    pub dont_frag: bool,
    /// More-fragments flag.
    pub more_frags: bool,
    /// Fragment offset in units of 8 bytes.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: IpProtocol,
    /// Source address, host byte order.
    pub src: u32,
    /// Destination address, host byte order.
    pub dst: u32,
}

impl Default for Ipv4Header {
    fn default() -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: Self::LEN as u16,
            ident: 0,
            dont_frag: false,
            more_frags: false,
            frag_offset: 0,
            ttl: 64,
            protocol: IpProtocol::Tcp,
            src: 0,
            dst: 0,
        }
    }
}

impl Ipv4Header {
    /// Fixed length of an option-less IPv4 header in bytes.
    pub const LEN: usize = 20;

    /// Parse and checksum-verify a header from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<(Self, usize), WireError> {
        if buf.len() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let ver_ihl = buf[0];
        if ver_ihl >> 4 != 4 {
            return Err(WireError::Malformed);
        }
        let ihl = usize::from(ver_ihl & 0x0f) * 4;
        if ihl != Self::LEN {
            // Options unsupported.
            return Err(WireError::Malformed);
        }
        if internet_checksum(&buf[..Self::LEN]) != 0 {
            return Err(WireError::BadChecksum);
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if usize::from(total_len) < ihl {
            return Err(WireError::Malformed);
        }
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        Ok((
            Ipv4Header {
                dscp_ecn: buf[1],
                total_len,
                ident: u16::from_be_bytes([buf[4], buf[5]]),
                dont_frag: flags_frag & 0x4000 != 0,
                more_frags: flags_frag & 0x2000 != 0,
                frag_offset: flags_frag & 0x1fff,
                ttl: buf[8],
                protocol: buf[9].into(),
                src: u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]),
                dst: u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]),
            },
            Self::LEN,
        ))
    }

    /// Append the wire form, computing the header checksum.
    pub fn emit(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.put_u8(0x45);
        out.put_u8(self.dscp_ecn);
        out.put_u16(self.total_len);
        out.put_u16(self.ident);
        let mut flags_frag = self.frag_offset & 0x1fff;
        if self.dont_frag {
            flags_frag |= 0x4000;
        }
        if self.more_frags {
            flags_frag |= 0x2000;
        }
        out.put_u16(flags_frag);
        out.put_u8(self.ttl);
        out.put_u8(self.protocol.into());
        out.put_u16(0); // checksum placeholder
        out.put_u32(self.src);
        out.put_u32(self.dst);
        let csum = internet_checksum(&out[start..start + Self::LEN]);
        out[start + 10..start + 12].copy_from_slice(&csum.to_be_bytes());
    }

    /// Payload length implied by `total_len`.
    pub fn payload_len(&self) -> usize {
        usize::from(self.total_len).saturating_sub(Self::LEN)
    }
}

/// TCP flag bits, stored in the low 6 bits of a byte as on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag bit.
    pub const FIN: u8 = 0x01;
    /// SYN flag bit.
    pub const SYN: u8 = 0x02;
    /// RST flag bit.
    pub const RST: u8 = 0x04;
    /// PSH flag bit.
    pub const PSH: u8 = 0x08;
    /// ACK flag bit.
    pub const ACK: u8 = 0x10;
    /// URG flag bit.
    pub const URG: u8 = 0x20;

    /// A bare SYN.
    pub fn syn() -> Self {
        TcpFlags(Self::SYN)
    }
    /// SYN+ACK.
    pub fn syn_ack() -> Self {
        TcpFlags(Self::SYN | Self::ACK)
    }
    /// A bare ACK.
    pub fn ack() -> Self {
        TcpFlags(Self::ACK)
    }
    /// FIN+ACK.
    pub fn fin_ack() -> Self {
        TcpFlags(Self::FIN | Self::ACK)
    }
    /// A bare RST.
    pub fn rst() -> Self {
        TcpFlags(Self::RST)
    }

    /// Is the SYN bit set?
    pub fn has_syn(&self) -> bool {
        self.0 & Self::SYN != 0
    }
    /// Is the ACK bit set?
    pub fn has_ack(&self) -> bool {
        self.0 & Self::ACK != 0
    }
    /// Is the FIN bit set?
    pub fn has_fin(&self) -> bool {
        self.0 & Self::FIN != 0
    }
    /// Is the RST bit set?
    pub fn has_rst(&self) -> bool {
        self.0 & Self::RST != 0
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (Self::SYN, "S"),
            (Self::ACK, "A"),
            (Self::FIN, "F"),
            (Self::RST, "R"),
            (Self::PSH, "P"),
            (Self::URG, "U"),
        ];
        let mut any = false;
        for (bit, n) in names {
            if self.0 & bit != 0 {
                write!(f, "{n}")?;
                any = true;
            }
        }
        if !any {
            write!(f, ".")?;
        }
        Ok(())
    }
}

/// A TCP header (option-less, like the IPv4 header above).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl Default for TcpHeader {
    fn default() -> Self {
        TcpHeader {
            sport: 0,
            dport: 0,
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
            window: 65535,
        }
    }
}

impl TcpHeader {
    /// Fixed length of an option-less TCP header in bytes.
    pub const LEN: usize = 20;

    /// Parse a header from the front of `buf`.
    ///
    /// The TCP checksum requires the IP pseudo-header, so verification is
    /// done by [`TcpHeader::verify_checksum`] with the surrounding
    /// addresses; `parse` alone does not verify.
    pub fn parse(buf: &[u8]) -> Result<(Self, usize), WireError> {
        if buf.len() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let data_off = usize::from(buf[12] >> 4) * 4;
        if data_off < Self::LEN {
            return Err(WireError::Malformed);
        }
        if buf.len() < data_off {
            return Err(WireError::Truncated);
        }
        Ok((
            TcpHeader {
                sport: u16::from_be_bytes([buf[0], buf[1]]),
                dport: u16::from_be_bytes([buf[2], buf[3]]),
                seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
                flags: TcpFlags(buf[13] & 0x3f),
                window: u16::from_be_bytes([buf[14], buf[15]]),
            },
            data_off,
        ))
    }

    /// Append the wire form with a zero checksum; [`TcpHeader::fill_checksum`]
    /// patches it once the payload is in place.
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.put_u16(self.sport);
        out.put_u16(self.dport);
        out.put_u32(self.seq);
        out.put_u32(self.ack);
        out.put_u8(5 << 4); // data offset = 5 words, no options
        out.put_u8(self.flags.0);
        out.put_u16(self.window);
        out.put_u16(0); // checksum placeholder
        out.put_u16(0); // urgent pointer
    }

    /// Compute the TCP checksum over `segment` (header + payload) given the
    /// IPv4 pseudo-header addresses, and patch it into the segment bytes.
    pub fn fill_checksum(segment: &mut [u8], src: u32, dst: u32) {
        if segment.len() < Self::LEN {
            // No room for the checksum field — nothing to patch.
            return;
        }
        segment[16] = 0;
        segment[17] = 0;
        let csum = tcp_udp_checksum(segment, src, dst, IpProtocol::Tcp);
        segment[16..18].copy_from_slice(&csum.to_be_bytes());
    }

    /// Verify the checksum of `segment` (header + payload).
    pub fn verify_checksum(segment: &[u8], src: u32, dst: u32) -> bool {
        tcp_udp_checksum_raw(segment, src, dst, IpProtocol::Tcp) == 0
    }
}

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UdpHeader {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Length of header plus payload.
    pub length: u16,
}

impl UdpHeader {
    /// Fixed length of a UDP header in bytes.
    pub const LEN: usize = 8;

    /// Parse a header from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<(Self, usize), WireError> {
        if buf.len() < Self::LEN {
            return Err(WireError::Truncated);
        }
        let length = u16::from_be_bytes([buf[4], buf[5]]);
        if usize::from(length) < Self::LEN {
            return Err(WireError::Malformed);
        }
        Ok((
            UdpHeader {
                sport: u16::from_be_bytes([buf[0], buf[1]]),
                dport: u16::from_be_bytes([buf[2], buf[3]]),
                length,
            },
            Self::LEN,
        ))
    }

    /// Append the wire form with a zero checksum (legal for IPv4 UDP).
    pub fn emit(&self, out: &mut Vec<u8>) {
        out.put_u16(self.sport);
        out.put_u16(self.dport);
        out.put_u16(self.length);
        out.put_u16(0); // checksum: 0 = not computed (valid on IPv4)
    }
}

fn pseudo_header_sum(src: u32, dst: u32, proto: IpProtocol, len: usize) -> u32 {
    let mut sum = 0u32;
    sum += src >> 16;
    sum += src & 0xffff;
    sum += dst >> 16;
    sum += dst & 0xffff;
    sum += u32::from(u8::from(proto));
    sum += len as u32;
    sum
}

fn tcp_udp_checksum_raw(segment: &[u8], src: u32, dst: u32, proto: IpProtocol) -> u16 {
    let mut sum = pseudo_header_sum(src, dst, proto, segment.len());
    let mut chunks = segment.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Compute the TCP/UDP checksum of `segment` under the given pseudo-header.
pub fn tcp_udp_checksum(segment: &[u8], src: u32, dst: u32, proto: IpProtocol) -> u16 {
    match tcp_udp_checksum_raw(segment, src, dst, proto) {
        // 0 is transmitted as 0xffff for UDP; harmless for TCP too.
        0 => 0xffff,
        c => c,
    }
}

/// Format a host-byte-order IPv4 address in dotted-quad notation.
pub fn fmt_ipv4(addr: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        addr >> 24,
        (addr >> 16) & 0xff,
        (addr >> 8) & 0xff,
        addr & 0xff
    )
}

/// Parse a dotted-quad IPv4 address into host byte order.
pub fn parse_ipv4(s: &str) -> Option<u32> {
    let mut parts = s.split('.');
    let mut addr = 0u32;
    for _ in 0..4 {
        let octet: u32 = parts.next()?.parse().ok()?;
        if octet > 255 {
            return None;
        }
        addr = (addr << 8) | octet;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(addr)
}

/// Skip past a parsed region of a buffer. Utility for chained parsing.
pub fn advance(buf: &mut &[u8], n: usize) {
    nf_support::bytes::advance(buf, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_u64_roundtrip() {
        let m = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]);
        assert_eq!(MacAddr::from_u64(m.to_u64()), m);
    }

    #[test]
    fn mac_display() {
        let m = MacAddr([0x01, 0, 0, 0, 0, 1]);
        assert_eq!(m.to_string(), "01:00:00:00:00:01");
    }

    #[test]
    fn ethertype_roundtrip() {
        for v in [0x0800u16, 0x0806, 0x86dd, 0x1234] {
            assert_eq!(u16::from(EtherType::from(v)), v);
        }
    }

    #[test]
    fn ethernet_roundtrip() {
        let f = EthernetFrame {
            dst: MacAddr([1, 2, 3, 4, 5, 6]),
            src: MacAddr([7, 8, 9, 10, 11, 12]),
            ethertype: EtherType::Ipv4,
        };
        let mut b: Vec<u8> = Vec::new();
        f.emit(&mut b);
        let (g, n) = EthernetFrame::parse(&b).unwrap();
        assert_eq!(n, EthernetFrame::LEN);
        assert_eq!(f, g);
    }

    #[test]
    fn ethernet_truncated() {
        assert_eq!(
            EthernetFrame::parse(&[0u8; 13]).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn ipv4_roundtrip_and_checksum() {
        let h = Ipv4Header {
            dscp_ecn: 0,
            total_len: 40,
            ident: 0x1234,
            dont_frag: true,
            more_frags: false,
            frag_offset: 0,
            ttl: 63,
            protocol: IpProtocol::Tcp,
            src: parse_ipv4("10.0.0.1").unwrap(),
            dst: parse_ipv4("10.0.0.2").unwrap(),
        };
        let mut b: Vec<u8> = Vec::new();
        h.emit(&mut b);
        let (g, n) = Ipv4Header::parse(&b).unwrap();
        assert_eq!(n, Ipv4Header::LEN);
        assert_eq!(h, g);
        // Corrupt a byte: checksum must fail.
        b[8] ^= 0xff;
        assert_eq!(Ipv4Header::parse(&b).unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn ipv4_rejects_options_and_bad_version() {
        let h = Ipv4Header::default();
        let mut b: Vec<u8> = Vec::new();
        h.emit(&mut b);
        let mut with_opts = b.clone();
        with_opts[0] = 0x46; // ihl = 6 words
        assert_eq!(
            Ipv4Header::parse(&with_opts).unwrap_err(),
            WireError::Malformed
        );
        let mut v6 = b.clone();
        v6[0] = 0x65;
        assert_eq!(Ipv4Header::parse(&v6).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn tcp_roundtrip_and_checksum() {
        let h = TcpHeader {
            sport: 12345,
            dport: 80,
            seq: 1,
            ack: 2,
            flags: TcpFlags::syn_ack(),
            window: 4096,
        };
        let mut b: Vec<u8> = Vec::new();
        h.emit(&mut b);
        b.put_slice(b"hello");
        let src = parse_ipv4("1.1.1.1").unwrap();
        let dst = parse_ipv4("2.2.2.2").unwrap();
        let mut seg = b.clone();
        TcpHeader::fill_checksum(&mut seg, src, dst);
        assert!(TcpHeader::verify_checksum(&seg, src, dst));
        seg[20] ^= 0x01; // flip payload bit
        assert!(!TcpHeader::verify_checksum(&seg, src, dst));
        let (g, n) = TcpHeader::parse(&seg).unwrap();
        assert_eq!(n, TcpHeader::LEN);
        assert_eq!(g.sport, 12345);
        assert_eq!(g.flags, TcpFlags::syn_ack());
    }

    #[test]
    fn udp_roundtrip() {
        let h = UdpHeader {
            sport: 53,
            dport: 5353,
            length: 8 + 4,
        };
        let mut b: Vec<u8> = Vec::new();
        h.emit(&mut b);
        let (g, n) = UdpHeader::parse(&b).unwrap();
        assert_eq!(n, UdpHeader::LEN);
        assert_eq!(g, h);
    }

    #[test]
    fn udp_rejects_short_length() {
        let h = UdpHeader {
            sport: 1,
            dport: 2,
            length: 4,
        };
        let mut b: Vec<u8> = Vec::new();
        h.emit(&mut b);
        assert_eq!(UdpHeader::parse(&b).unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn checksum_odd_length() {
        // RFC 1071 example-style check: complementing makes the total zero.
        let data = [0x45u8, 0x00, 0x00, 0x03, 0xaa];
        let c = internet_checksum(&data);
        let mut with = data.to_vec();
        with.extend_from_slice(&c.to_be_bytes());
        // Sum including stored checksum verifies to zero only for even
        // alignment of the checksum field, so just sanity-check determinism.
        assert_eq!(c, internet_checksum(&data));
    }

    #[test]
    fn ipv4_addr_parse_format() {
        assert_eq!(parse_ipv4("3.3.3.3"), Some(0x03030303));
        assert_eq!(fmt_ipv4(0x03030303), "3.3.3.3");
        assert_eq!(parse_ipv4("256.0.0.1"), None);
        assert_eq!(parse_ipv4("1.2.3"), None);
        assert_eq!(parse_ipv4("1.2.3.4.5"), None);
    }

    #[test]
    fn tcp_flags_display() {
        assert_eq!(TcpFlags::syn_ack().to_string(), "SA");
        assert_eq!(TcpFlags::default().to_string(), ".");
    }

    #[test]
    fn fill_checksum_tolerates_short_segments() {
        // Regression: used to index [16..18] unconditionally and panic on
        // segments shorter than a TCP header.
        for n in 0..TcpHeader::LEN {
            let mut seg = vec![0u8; n];
            TcpHeader::fill_checksum(&mut seg, 1, 2);
            assert_eq!(seg, vec![0u8; n], "short segment must be untouched");
        }
    }

    #[test]
    fn header_parsers_survive_adversarial_bytes() {
        // Every parser must return Err — never panic — on arbitrary junk.
        let mut rng = nf_support::rng::Rng::new(0xadbeef);
        for _ in 0..2000 {
            let len = rng.gen_below(64) as usize;
            let buf: Vec<u8> = (0..len).map(|_| rng.gen_below(256) as u8).collect();
            let _ = EthernetFrame::parse(&buf);
            let _ = Ipv4Header::parse(&buf);
            let _ = TcpHeader::parse(&buf);
            let _ = UdpHeader::parse(&buf);
        }
    }
}
