//! Packet workload sources for the sharded runtime's streaming path.
//!
//! Three [`WorkloadSource`] implementations over [`Packet`]:
//!
//! * [`GenSource`] — the seeded [`PacketGen`] as a bounded stream.
//! * [`NfwReader`] — the compact `.nfw` binary trace format: a 20-byte
//!   header (`NFW1` magic, seed, packet count) followed by
//!   length-prefixed packet records, written by [`NfwWriter`]. The
//!   reader streams through a 64 KiB `BufReader` (no mmap), so a
//!   million-packet trace streams at constant memory. A record that
//!   sits whole in the buffer is decoded in place and consumed; one
//!   that straddles the buffer's end, and every error, goes through the
//!   framed [`read_record`], so each error keeps its text and byte
//!   offset. `next_batch` decodes each record into a new packet, whose
//!   payload is its one allocation; `refill` decodes each into the
//!   packet the batch already holds at its position ([`decode_into`]),
//!   reusing its payload buffer, so a warm batch decodes without
//!   allocating.
//! * [`JsonTraceSource`] — the CLI's JSON `{"trace": [{...}, ...]}`
//!   workload files, scanned record by record instead of materializing
//!   the whole document; a malformed record is reported with its byte
//!   offset.
//!
//! The in-memory case is covered by `nf_support::workload::SliceSource`.
//!
//! The `.nfw` record codec encodes every [`Packet`] field directly
//! (big-endian), unlike `to_wire`/`from_wire` which round-trip through
//! real headers and so cannot represent non-IPv4 ethertypes or
//! `Transport::Other` losslessly.

use crate::field::Field;
use crate::gen::PacketGen;
use crate::packet::{Packet, Transport};
use crate::wire::TcpFlags;
use nf_support::bytes::PutBytes;
use nf_support::json::Value;
use nf_support::workload::{read_record, write_record, WorkloadError, WorkloadSource};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};

/// `.nfw` file magic, first 4 bytes of the header.
pub const NFW_MAGIC: &[u8; 4] = b"NFW1";

/// `.nfw` header length: magic (4) + seed (8) + count (8).
pub const NFW_HEADER_LEN: u64 = 20;

/// [`NfwReader`]'s read buffer, in bytes: records that sit whole in it
/// decode in place.
const READ_BUF_LEN: usize = 64 * 1024;

const TAG_TCP: u8 = 0;
const TAG_UDP: u8 = 1;
const TAG_OTHER: u8 = 2;

/// Append the lossless `.nfw` record encoding of `pkt` to `buf`.
pub fn encode_packet(pkt: &Packet, buf: &mut Vec<u8>) {
    buf.put_u64(pkt.eth_src);
    buf.put_u64(pkt.eth_dst);
    buf.put_u16(pkt.eth_type);
    buf.put_u32(pkt.ip_src);
    buf.put_u32(pkt.ip_dst);
    buf.put_u8(pkt.ip_proto);
    buf.put_u8(pkt.ip_ttl);
    buf.put_u16(pkt.ip_id);
    match &pkt.transport {
        Transport::Tcp {
            sport,
            dport,
            seq,
            ack,
            flags,
        } => {
            buf.put_u8(TAG_TCP);
            buf.put_u16(*sport);
            buf.put_u16(*dport);
            buf.put_u32(*seq);
            buf.put_u32(*ack);
            buf.put_u8(*flags);
        }
        Transport::Udp { sport, dport } => {
            buf.put_u8(TAG_UDP);
            buf.put_u16(*sport);
            buf.put_u16(*dport);
        }
        Transport::Other => buf.put_u8(TAG_OTHER),
    }
    buf.put_u32(pkt.payload.len() as u32);
    buf.put_slice(&pkt.payload);
}

/// Length of a record's fixed part: Ethernet (source 0..8, destination
/// 8..16, type 16..18), IPv4 (source 18..22, destination 22..26,
/// protocol 26, TTL 27, id 28..30) and the transport tag (30).
const FIXED_LEN: usize = 31;
/// Length of a TCP transport section: ports, sequence, ack and flags.
const TCP_LEN: usize = 13;
/// Length of a UDP transport section: the ports.
const UDP_LEN: usize = 4;

/// Decode one `.nfw` record produced by [`encode_packet`] into a new
/// packet. The record must be consumed exactly; trailing bytes are an
/// error.
pub fn decode_packet(b: &[u8]) -> Result<Packet, String> {
    let (mut pkt, payload) = parse(b)?;
    pkt.payload = payload.to_vec();
    Ok(pkt)
}

/// Decode one `.nfw` record produced by [`encode_packet`] into `pkt`,
/// overwriting every field and reusing `pkt`'s payload buffer, so a
/// packet recycled from an earlier batch takes a record without
/// allocating unless its payload is longer than the buffer's capacity.
/// The record must be consumed exactly; trailing bytes are an error, and
/// an error leaves `pkt` as it was.
pub fn decode_into(b: &[u8], pkt: &mut Packet) -> Result<(), String> {
    let (fields, payload) = parse(b)?;
    let mut buf = std::mem::take(&mut pkt.payload);
    buf.clear();
    buf.extend_from_slice(payload);
    *pkt = Packet {
        payload: buf,
        ..fields
    };
    Ok(())
}

/// Decode `record` into `out[at]`, or push it onto `out` when `at` is
/// `out`'s length.
#[inline(always)]
fn decode_at(record: &[u8], out: &mut Vec<Packet>, at: usize) -> Result<(), String> {
    match out.get_mut(at) {
        Some(slot) => decode_into(record, slot),
        None => decode_packet(record).map(|pkt| out.push(pkt)),
    }
}

/// The one record parser behind [`decode_packet`] and [`decode_into`]:
/// every field of the record's packet, with an empty payload, and the
/// payload's bytes.
///
/// Each section (the fixed part, the transport section, the payload
/// length and the payload) is length-checked once; its fields are then
/// read at fixed offsets.
#[inline(always)]
fn parse(b: &[u8]) -> Result<(Packet, &[u8]), String> {
    let (fixed, rest) = section::<FIXED_LEN>(b)?;
    let (transport, rest) = match fixed[30] {
        TAG_TCP => {
            let (t, rest) = section::<TCP_LEN>(rest)?;
            let tcp = Transport::Tcp {
                sport: u16::from_be_bytes(word::<0, _, _>(t)),
                dport: u16::from_be_bytes(word::<2, _, _>(t)),
                seq: u32::from_be_bytes(word::<4, _, _>(t)),
                ack: u32::from_be_bytes(word::<8, _, _>(t)),
                flags: t[12],
            };
            (tcp, rest)
        }
        TAG_UDP => {
            let (t, rest) = section::<UDP_LEN>(rest)?;
            let udp = Transport::Udp {
                sport: u16::from_be_bytes(word::<0, _, _>(t)),
                dport: u16::from_be_bytes(word::<2, _, _>(t)),
            };
            (udp, rest)
        }
        TAG_OTHER => (Transport::Other, rest),
        t => return Err(format!("unknown transport tag {t}")),
    };
    let (plen, rest) = section::<4>(rest)?;
    let plen = u32::from_be_bytes(*plen) as usize;
    let Some((payload, trailing)) = rest.split_at_checked(plen) else {
        return Err(short(plen, rest.len()));
    };
    if !trailing.is_empty() {
        return Err(format!("{} trailing bytes after payload", trailing.len()));
    }
    let pkt = Packet {
        eth_src: u64::from_be_bytes(word::<0, _, _>(fixed)),
        eth_dst: u64::from_be_bytes(word::<8, _, _>(fixed)),
        eth_type: u16::from_be_bytes(word::<16, _, _>(fixed)),
        ip_src: u32::from_be_bytes(word::<18, _, _>(fixed)),
        ip_dst: u32::from_be_bytes(word::<22, _, _>(fixed)),
        ip_proto: fixed[26],
        ip_ttl: fixed[27],
        ip_id: u16::from_be_bytes(word::<28, _, _>(fixed)),
        transport,
        payload: Vec::new(),
    };
    Ok((pkt, payload))
}

/// Split an `N`-byte section off the front of `b`.
#[inline(always)]
fn section<const N: usize>(b: &[u8]) -> Result<(&[u8; N], &[u8]), String> {
    b.split_first_chunk().ok_or_else(|| short(N, b.len()))
}

/// The `N` bytes at offset `AT` of an `L`-byte section. `AT + N <= L`
/// is checked when the call compiles, so the read cannot fail.
#[inline(always)]
fn word<const AT: usize, const N: usize, const L: usize>(s: &[u8; L]) -> [u8; N] {
    const { assert!(AT + N <= L) };
    let mut w = [0; N];
    w.copy_from_slice(&s[AT..AT + N]);
    w
}

/// The error for a section that wanted `wanted` bytes and had `have`.
fn short(wanted: usize, have: usize) -> String {
    format!("record short: wanted {wanted} more bytes, have {have}")
}

/// Streaming writer for the `.nfw` trace format.
///
/// The header's count field is written as a placeholder on
/// [`create`](Self::create) and patched on [`finish`](Self::finish), so
/// packets can be pushed one at a time without knowing the total up
/// front. A file that is dropped without `finish` keeps count 0 and is
/// rejected by the reader's count check.
#[derive(Debug)]
pub struct NfwWriter {
    w: BufWriter<File>,
    count: u64,
    buf: Vec<u8>,
}

impl NfwWriter {
    /// Create (truncate) `path` and write the header with `seed` and a
    /// zero packet count.
    pub fn create(path: &str, seed: u64) -> std::io::Result<NfwWriter> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(NFW_MAGIC)?;
        w.write_all(&seed.to_be_bytes())?;
        w.write_all(&0u64.to_be_bytes())?;
        Ok(NfwWriter {
            w,
            count: 0,
            buf: Vec::with_capacity(64),
        })
    }

    /// Append one packet record.
    pub fn push(&mut self, pkt: &Packet) -> std::io::Result<()> {
        self.buf.clear();
        encode_packet(pkt, &mut self.buf);
        write_record(&mut self.w, &self.buf)?;
        self.count += 1;
        Ok(())
    }

    /// Patch the header's packet count and flush; returns the count.
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.w.flush()?;
        let f = self.w.get_mut();
        f.seek(SeekFrom::Start(12))?;
        f.write_all(&self.count.to_be_bytes())?;
        f.flush()?;
        Ok(self.count)
    }
}

/// Chunked reader for `.nfw` traces; a [`WorkloadSource`] yielding the
/// recorded packets in order at constant memory.
#[derive(Debug)]
pub struct NfwReader {
    r: BufReader<File>,
    seed: u64,
    count: u64,
    read: u64,
    offset: u64,
    buf: Vec<u8>,
    done: bool,
}

impl NfwReader {
    /// Open `path` and validate its header.
    pub fn open(path: &str) -> Result<NfwReader, WorkloadError> {
        let f = File::open(path).map_err(|e| WorkloadError::msg(format!("{path}: {e}")))?;
        let mut r = BufReader::with_capacity(READ_BUF_LEN, f);
        let mut header = [0u8; NFW_HEADER_LEN as usize];
        r.read_exact(&mut header)
            .map_err(|e| WorkloadError::at(0, format!("short .nfw header: {e}")))?;
        if &header[..4] != NFW_MAGIC {
            return Err(WorkloadError::at(
                0,
                "not an .nfw file (bad magic)".to_string(),
            ));
        }
        // The header array is fixed-size, so the range conversions
        // cannot fail; report rather than panic if they ever do.
        let word = |range: std::ops::Range<usize>| -> Result<u64, WorkloadError> {
            Ok(u64::from_be_bytes(header[range].try_into().map_err(
                |_| WorkloadError::at(0, "malformed .nfw header".to_string()),
            )?))
        };
        let seed = word(4..12)?;
        let count = word(12..20)?;
        Ok(NfwReader {
            r,
            seed,
            count,
            read: 0,
            offset: NFW_HEADER_LEN,
            buf: Vec::with_capacity(64),
            done: false,
        })
    }

    /// The seed recorded in the header (provenance of generated traces).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The packet count recorded in the header.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The decode loop behind both pulls: decode up to `max` records
    /// into `out[start..]`, overwriting the packets already there and
    /// pushing new ones past its end, then cut `out` to `start` plus the
    /// records decoded, so that on an error it ends with the records
    /// before the bad one. Returns how many records were decoded.
    fn decode(
        &mut self,
        out: &mut Vec<Packet>,
        start: usize,
        max: usize,
    ) -> Result<usize, WorkloadError> {
        let mut n = 0;
        let mut ended = Ok(());
        while n < max && !self.done {
            match self.decode_next(out, start + n) {
                Ok(true) => n += 1,
                Ok(false) => break,
                Err(e) => {
                    ended = Err(e);
                    break;
                }
            }
        }
        out.truncate(start + n);
        ended.map(|()| n)
    }

    /// Decode the next record into `out[at]`, or onto `out`'s end when
    /// `at` is its length; `Ok(false)` at the end of the trace. A record
    /// whose length prefix and bytes all sit in the read buffer decodes
    /// in place. Any other (one that straddles the buffer's end, EOF, a
    /// truncation, an implausible length) goes through `read_record`,
    /// which refills the buffer and words each error.
    #[inline]
    fn decode_next(&mut self, out: &mut Vec<Packet>, at: usize) -> Result<bool, WorkloadError> {
        let record_at = self.offset;
        let buffered = self.r.buffer().split_first_chunk::<4>();
        let buffered =
            buffered.and_then(|(len, rest)| rest.get(..u32::from_be_bytes(*len) as usize));
        let decoded = match buffered {
            Some(record) => {
                let (decoded, len) = (decode_at(record, out, at), record.len());
                self.r.consume(4 + len);
                self.offset += 4 + len as u64;
                decoded
            }
            None => {
                if !read_record(&mut self.r, &mut self.offset, &mut self.buf)? {
                    self.done = true;
                    if self.read != self.count {
                        return Err(WorkloadError::at(
                            record_at,
                            format!(
                                "trace ended after {} of {} packets (truncated or unfinished writer)",
                                self.read, self.count
                            ),
                        ));
                    }
                    return Ok(false);
                }
                decode_at(&self.buf, out, at)
            }
        };
        decoded.map_err(|e| WorkloadError::at(record_at, format!("bad packet record: {e}")))?;
        self.read += 1;
        Ok(true)
    }
}

impl WorkloadSource for NfwReader {
    type Item = Packet;

    fn next_batch(&mut self, out: &mut Vec<Packet>, max: usize) -> Result<usize, WorkloadError> {
        let start = out.len();
        self.decode(out, start, max)
    }

    /// Decodes each record into the packet `out` already holds at its
    /// position, reusing that packet's payload buffer.
    fn refill(&mut self, out: &mut Vec<Packet>, max: usize) -> Result<usize, WorkloadError> {
        self.decode(out, 0, max)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.count)
    }
}

/// The seeded [`PacketGen`] as a bounded [`WorkloadSource`].
#[derive(Debug)]
pub struct GenSource {
    gen: PacketGen,
    remaining: u64,
    total: u64,
}

impl GenSource {
    /// A source yielding `total` packets from `PacketGen::new(seed)`.
    pub fn new(seed: u64, total: u64) -> GenSource {
        GenSource {
            gen: PacketGen::new(seed),
            remaining: total,
            total,
        }
    }
}

impl WorkloadSource for GenSource {
    type Item = Packet;

    fn next_batch(&mut self, out: &mut Vec<Packet>, max: usize) -> Result<usize, WorkloadError> {
        let n = (max as u64).min(self.remaining) as usize;
        for _ in 0..n {
            out.push(self.gen.next_packet());
        }
        self.remaining -= n as u64;
        Ok(n)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

/// Streaming reader for the CLI's JSON workload traces
/// (`{"trace": [{"ip.src": 1, ...}, ...]}`).
///
/// The file is scanned byte by byte: once the top-level `"trace"` array
/// is located, each balanced `{...}` element is extracted and parsed
/// individually, so packets reach the engine in batches instead of as
/// one materialized vector — and a malformed or truncated trailing
/// record is diagnosed with the byte offset where it starts.
#[derive(Debug)]
pub struct JsonTraceSource {
    r: BufReader<File>,
    offset: u64,
    peeked: Option<u8>,
    index: u64,
    done: bool,
}

impl JsonTraceSource {
    /// Open `path` and scan to the start of its top-level `"trace"`
    /// array. Returns `Ok(None)` when the document has no such key (the
    /// caller falls back to the small seed/packets form).
    pub fn open(path: &str) -> Result<Option<JsonTraceSource>, WorkloadError> {
        let f = File::open(path).map_err(|e| WorkloadError::msg(format!("{path}: {e}")))?;
        let mut src = JsonTraceSource {
            r: BufReader::new(f),
            offset: 0,
            peeked: None,
            index: 0,
            done: false,
        };
        if !src.seek_trace_array()? {
            return Ok(None);
        }
        Ok(Some(src))
    }

    fn next_byte(&mut self) -> Result<Option<u8>, WorkloadError> {
        if let Some(b) = self.peeked.take() {
            self.offset += 1;
            return Ok(Some(b));
        }
        let mut one = [0u8; 1];
        loop {
            match self.r.read(&mut one) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    self.offset += 1;
                    return Ok(Some(one[0]));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(WorkloadError::at(self.offset, format!("read failed: {e}")));
                }
            }
        }
    }

    fn peek_byte(&mut self) -> Result<Option<u8>, WorkloadError> {
        if self.peeked.is_none() {
            if let Some(b) = self.next_byte()? {
                self.peeked = Some(b);
                self.offset -= 1;
            }
        }
        Ok(self.peeked)
    }

    fn skip_ws(&mut self) -> Result<(), WorkloadError> {
        while let Some(b) = self.peek_byte()? {
            if b.is_ascii_whitespace() {
                self.next_byte()?;
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Scan for a depth-1 `"trace"` key followed by `:` and `[`,
    /// consuming through the opening bracket. Tracks string/escape
    /// state so `"trace"` inside values or nested objects never
    /// matches.
    fn seek_trace_array(&mut self) -> Result<bool, WorkloadError> {
        let mut depth: u32 = 0;
        loop {
            self.skip_ws()?;
            let Some(b) = self.next_byte()? else {
                return Ok(false);
            };
            match b {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth = depth.saturating_sub(1),
                b'"' => {
                    let s = self.read_string_body()?;
                    if depth == 1 && s == "trace" {
                        self.skip_ws()?;
                        if self.peek_byte()? == Some(b':') {
                            self.next_byte()?;
                            self.skip_ws()?;
                            let at = self.offset;
                            match self.next_byte()? {
                                Some(b'[') => return Ok(true),
                                _ => {
                                    return Err(WorkloadError::at(
                                        at,
                                        "`trace` must be an array of packet objects".to_string(),
                                    ));
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Consume a JSON string body (opening quote already consumed),
    /// returning its raw content with escapes left intact — good enough
    /// for key matching, which never needs unescaping for `trace`.
    fn read_string_body(&mut self) -> Result<String, WorkloadError> {
        let start = self.offset;
        let mut out = Vec::new();
        loop {
            let Some(b) = self.next_byte()? else {
                return Err(WorkloadError::at(start, "unterminated string".to_string()));
            };
            match b {
                b'"' => break,
                b'\\' => {
                    out.push(b);
                    if let Some(esc) = self.next_byte()? {
                        out.push(esc);
                    }
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| WorkloadError::at(start, "non-UTF-8 string".to_string()))
    }

    /// Extract the next balanced `{...}` element of the trace array as
    /// text; `Ok(None)` when the closing `]` is reached.
    fn next_object_text(&mut self) -> Result<Option<(u64, String)>, WorkloadError> {
        self.skip_ws()?;
        if self.peek_byte()? == Some(b',') {
            self.next_byte()?;
            self.skip_ws()?;
        }
        let at = self.offset;
        match self.peek_byte()? {
            Some(b']') => {
                self.next_byte()?;
                self.done = true;
                return Ok(None);
            }
            Some(b'{') => {}
            Some(b) => {
                return Err(WorkloadError::at(
                    at,
                    format!(
                        "trace[{}] must be an object, found `{}`",
                        self.index, b as char
                    ),
                ));
            }
            None => {
                return Err(WorkloadError::at(
                    at,
                    format!("trace array truncated before trace[{}] closed", self.index),
                ));
            }
        }
        let mut text = Vec::new();
        let mut depth: u32 = 0;
        let mut in_string = false;
        loop {
            let Some(b) = self.next_byte()? else {
                return Err(WorkloadError::at(
                    at,
                    format!("trace[{}] truncated mid-record", self.index),
                ));
            };
            text.push(b);
            if in_string {
                match b {
                    b'\\' => {
                        if let Some(esc) = self.next_byte()? {
                            text.push(esc);
                        }
                    }
                    b'"' => in_string = false,
                    _ => {}
                }
                continue;
            }
            match b {
                b'"' => in_string = true,
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        let text = String::from_utf8(text)
            .map_err(|_| WorkloadError::at(at, format!("trace[{}] is not UTF-8", self.index)))?;
        Ok(Some((at, text)))
    }
}

/// Convert one parsed trace object into a [`Packet`], mirroring the
/// CLI's historical field semantics (TCP base packet, `Field` paths as
/// keys, integer values).
fn trace_object_to_packet(index: u64, v: &Value) -> Result<Packet, String> {
    let Value::Object(fields) = v else {
        return Err(format!("trace[{index}] must be an object"));
    };
    let mut pkt = Packet::tcp(0, 0, 0, 0, TcpFlags(0));
    for (key, fv) in fields {
        let field = Field::from_path(key)
            .ok_or_else(|| format!("trace[{index}]: unknown field `{key}`"))?;
        let Value::Int(n) = fv else {
            return Err(format!("trace[{index}].{key} must be an integer"));
        };
        pkt.set(field, *n as u64)
            .map_err(|e| format!("trace[{index}].{key}: {e}"))?;
    }
    Ok(pkt)
}

impl WorkloadSource for JsonTraceSource {
    type Item = Packet;

    fn next_batch(&mut self, out: &mut Vec<Packet>, max: usize) -> Result<usize, WorkloadError> {
        if self.done {
            return Ok(0);
        }
        let mut n = 0;
        while n < max {
            let Some((at, text)) = self.next_object_text()? else {
                break;
            };
            let v = Value::parse(&text)
                .map_err(|e| WorkloadError::at(at, format!("trace[{}]: {e}", self.index)))?;
            let pkt =
                trace_object_to_packet(self.index, &v).map_err(|e| WorkloadError::at(at, e))?;
            out.push(pkt);
            self.index += 1;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_support::check::{self, Config, Gen};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> String {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir()
            .join(format!("nfw-test-{}-{tag}-{n}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn arb_packet() -> Gen<Packet> {
        Gen::new(|rng| {
            let mut pkt = Packet {
                eth_src: rng.next_u64() & 0xffff_ffff_ffff,
                eth_dst: rng.next_u64() & 0xffff_ffff_ffff,
                eth_type: rng.next_u64() as u16,
                ip_src: rng.next_u64() as u32,
                ip_dst: rng.next_u64() as u32,
                ip_proto: rng.next_u64() as u8,
                ip_ttl: rng.next_u64() as u8,
                ip_id: rng.next_u64() as u16,
                transport: Transport::Other,
                payload: (0..rng.gen_below(32))
                    .map(|_| rng.next_u64() as u8)
                    .collect(),
            };
            pkt.transport = match rng.gen_below(3) {
                0 => Transport::Tcp {
                    sport: rng.next_u64() as u16,
                    dport: rng.next_u64() as u16,
                    seq: rng.next_u64() as u32,
                    ack: rng.next_u64() as u32,
                    flags: rng.next_u64() as u8,
                },
                1 => Transport::Udp {
                    sport: rng.next_u64() as u16,
                    dport: rng.next_u64() as u16,
                },
                _ => Transport::Other,
            };
            pkt
        })
    }

    #[test]
    fn record_codec_round_trips_any_packet() {
        check::check(
            "nfw_record_round_trip",
            &Config::with_cases(200),
            &check::vec_of(arb_packet(), 0, 8),
            |pkts| {
                for pkt in pkts {
                    let mut buf = Vec::new();
                    encode_packet(pkt, &mut buf);
                    assert_eq!(&decode_packet(&buf).unwrap(), pkt);
                }
            },
        );
    }

    #[test]
    fn every_cut_or_overlong_record_is_an_error() {
        check::check(
            "nfw_record_prefixes_err",
            &Config::with_cases(200),
            &arb_packet(),
            |pkt| {
                let mut buf = Vec::new();
                encode_packet(pkt, &mut buf);
                for cut in 0..buf.len() {
                    let err = decode_packet(&buf[..cut]).unwrap_err();
                    assert!(err.starts_with("record short: "), "{cut}: {err}");
                }
                buf.push(0);
                let err = decode_packet(&buf).unwrap_err();
                assert_eq!(err, "1 trailing bytes after payload");
            },
        );
    }

    /// Write `pkts` to a fresh `.nfw` trace; returns its path and each
    /// record's byte offset.
    fn write_trace(tag: &str, pkts: &[Packet]) -> (String, Vec<u64>) {
        let path = temp_path(tag);
        let mut w = NfwWriter::create(&path, 0).unwrap();
        let mut at = Vec::with_capacity(pkts.len());
        let mut offset = NFW_HEADER_LEN;
        let mut buf = Vec::new();
        for p in pkts {
            w.push(p).unwrap();
            at.push(offset);
            buf.clear();
            encode_packet(p, &mut buf);
            offset += 4 + buf.len() as u64;
        }
        w.finish().unwrap();
        (path, at)
    }

    /// Every packet of the trace at `path`, read in batches of `batch`,
    /// or the first error.
    fn read_trace(path: &str, batch: usize) -> (Vec<Packet>, Option<WorkloadError>) {
        let mut r = NfwReader::open(path).unwrap();
        let mut out = Vec::new();
        loop {
            match r.next_batch(&mut out, batch) {
                Ok(0) => return (out, None),
                Ok(_) => {}
                Err(e) => return (out, Some(e)),
            }
        }
    }

    /// [`read_trace`] through `refill` into one reused `Vec`: every
    /// packet pulled and the first error. Each pull must return what
    /// `next_batch` into a fresh `Vec` returns at the same point, and
    /// leave in `out` what that `Vec` holds: the batch, or on an error
    /// the batch's records before the bad one. Past the end, `refill`
    /// keeps returning 0 and leaves `out` empty.
    fn refill_trace(path: &str, batch: usize) -> (Vec<Packet>, Option<WorkloadError>) {
        let (mut r, mut fresh) = (
            NfwReader::open(path).unwrap(),
            NfwReader::open(path).unwrap(),
        );
        let (mut out, mut all) = (Vec::new(), Vec::new());
        loop {
            let (got, mut want) = (r.refill(&mut out, batch), Vec::new());
            let pulled = fresh.next_batch(&mut want, batch);
            assert_eq!((&got, &out), (&pulled, &want), "batch {batch}");
            all.extend_from_slice(&out);
            match got {
                Ok(0) => {
                    assert_eq!(r.refill(&mut out, batch), Ok(0), "stays exhausted");
                    assert!(out.is_empty());
                    return (all, None);
                }
                Ok(n) => assert_eq!(n, out.len()),
                Err(e) => return (all, Some(e)),
            }
        }
    }

    #[test]
    fn traces_past_the_read_buffer_stream_every_packet() {
        // Several read buffers' worth of records: most decode in place,
        // and the ones that straddle a buffer's end take `read_record`.
        let pkts = PacketGen::new(3).batch(4_000);
        let (path, at) = write_trace("long", &pkts);
        assert!(at[at.len() - 1] > 3 * READ_BUF_LEN as u64);
        for batch in [1, 7, 32, 4_096, 5_000] {
            let want = (pkts.clone(), None);
            assert_eq!(read_trace(&path, batch), want, "batch {batch}");
            assert_eq!(refill_trace(&path, batch), want, "refill, batch {batch}");
        }
        std::fs::remove_file(&path).ok();

        // A record larger than the buffer, between ordinary ones: the
        // refilled slot that held it takes short records, and the
        // reverse.
        let mut pkts = PacketGen::new(4).batch(600);
        pkts[300].payload = (0..100 * 1024).map(|i| i as u8).collect();
        let (path, _) = write_trace("huge", &pkts);
        for batch in [1, 7, 32, 4_096] {
            let want = (pkts.clone(), None);
            assert_eq!(read_trace(&path, batch), want, "batch {batch}");
            assert_eq!(refill_trace(&path, batch), want, "refill, batch {batch}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_bad_record_keeps_its_byte_offset_in_and_past_the_buffer() {
        let pkts = PacketGen::new(5).batch(2_000);
        let (path, at) = write_trace("badtag", &pkts);
        let bytes = std::fs::read(&path).unwrap();
        // The first record, one in the first buffer, the one that
        // straddles its end, and the last.
        let buf_end = READ_BUF_LEN as u64;
        let straddler = at.iter().rposition(|&a| a < buf_end).unwrap();
        assert!(at[straddler + 1] > buf_end, "record {straddler} straddles");
        for bad in [0, 100, straddler, pkts.len() - 1] {
            let mut corrupt = bytes.clone();
            // The transport tag: after the length prefix and the 30
            // bytes of Ethernet and IPv4.
            corrupt[at[bad] as usize + 4 + 30] = 9;
            std::fs::write(&path, &corrupt).unwrap();
            let (good, err) = read_trace(&path, 64);
            assert_eq!(refill_trace(&path, 64), (good.clone(), err.clone()));
            let err = err.expect("a bad tag is an error");
            assert_eq!(err.offset, Some(at[bad]), "record {bad}: {err}");
            assert!(err.msg.contains("unknown transport tag 9"), "{err}");
            assert_eq!(good, pkts[..bad], "record {bad}: the records before it");
        }

        // Cut mid-record past the first buffer: still `truncated`, at the
        // cut record.
        let cut = at[1_500] as usize + 10;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let (good, err) = read_trace(&path, 64);
        assert_eq!(refill_trace(&path, 64), (good.clone(), err.clone()));
        let err = err.expect("a cut trace is an error");
        assert_eq!(err.offset, Some(at[1_500]), "{err}");
        assert!(err.msg.contains("truncated"), "{err}");
        assert_eq!(good, pkts[..1_500]);
        std::fs::remove_file(&path).ok();
    }

    /// A packet with every field set to a value no generated packet
    /// has, the way a garbage fault scrambles a packet in its slot.
    fn scrambled() -> Packet {
        let mut pkt = Packet::udp(1, 2, 3, 4);
        for (i, f) in Field::ALL.into_iter().enumerate() {
            let _ = pkt.set(f, (0x5A5A_5A5A_5A5A + i as u64) % (f.max_value() + 1));
        }
        pkt.payload = vec![0xEE; 40];
        pkt
    }

    #[test]
    fn decode_into_a_used_slot_equals_decode_packet() {
        let tcp = Packet::tcp(10, 1_000, 20, 80, TcpFlags(0x12));
        let udp = Packet::udp(30, 53, 40, 5_353);
        let other = Packet {
            transport: Transport::Other,
            ip_proto: 1,
            ..Packet::default()
        };
        let with_payload = |p: &Packet, len: usize| Packet {
            payload: (0..len).map(|i| i as u8).collect(),
            ..p.clone()
        };
        let cases = [
            (scrambled(), tcp.clone()),
            (tcp.clone(), scrambled()),
            (tcp.clone(), udp.clone()),
            (tcp.clone(), other.clone()),
            (udp.clone(), tcp.clone()),
            (other.clone(), tcp.clone()),
            (with_payload(&tcp, 8), with_payload(&udp, 100 * 1024)),
            (with_payload(&udp, 100 * 1024), with_payload(&tcp, 8)),
            (with_payload(&other, 3), tcp.clone()),
        ];
        for (i, (slot, record)) in cases.into_iter().enumerate() {
            let mut bytes = Vec::new();
            encode_packet(&record, &mut bytes);
            let mut slot = slot;
            let (buf, cap) = (slot.payload.as_ptr(), slot.payload.capacity());
            decode_into(&bytes, &mut slot).unwrap();
            assert_eq!(slot, decode_packet(&bytes).unwrap(), "case {i}");
            assert_eq!(slot, record, "case {i}");
            if record.payload.len() <= cap {
                assert_eq!(
                    slot.payload.as_ptr(),
                    buf,
                    "case {i}: payload buffer reused"
                );
            }
        }
        // Any packet over any other.
        check::check(
            "nfw_decode_into_any_slot",
            &Config::with_cases(200),
            &check::vec_of(arb_packet(), 2, 2),
            |pair| {
                let (mut slot, record) = (pair[0].clone(), &pair[1]);
                let mut bytes = Vec::new();
                encode_packet(record, &mut bytes);
                decode_into(&bytes, &mut slot).unwrap();
                assert_eq!(&slot, record);
            },
        );
    }

    #[test]
    fn a_failed_decode_into_leaves_the_slot_as_it_was() {
        let mut bytes = Vec::new();
        encode_packet(&Packet::udp(5, 6, 7, 8), &mut bytes);
        for cut in 0..bytes.len() {
            let mut slot = scrambled();
            assert!(decode_into(&bytes[..cut], &mut slot).is_err(), "{cut}");
            assert_eq!(slot, scrambled(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[30] = 9;
        let mut slot = scrambled();
        assert!(decode_into(&bad, &mut slot).is_err());
        assert_eq!(slot, scrambled());
    }

    #[test]
    fn nfw_file_round_trips_and_reports_header() {
        let path = temp_path("roundtrip");
        let pkts = PacketGen::new(42).batch(257);
        let mut w = NfwWriter::create(&path, 42).unwrap();
        for p in &pkts {
            w.push(p).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 257);

        let mut r = NfwReader::open(&path).unwrap();
        assert_eq!(r.seed(), 42);
        assert_eq!(r.count(), 257);
        assert_eq!(r.size_hint(), Some(257));
        let mut out = Vec::new();
        loop {
            if r.next_batch(&mut out, 32).unwrap() == 0 {
                break;
            }
        }
        assert_eq!(out, pkts);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_nfw_reports_byte_offset() {
        let path = temp_path("trunc");
        let pkts = PacketGen::new(7).batch(10);
        let mut w = NfwWriter::create(&path, 7).unwrap();
        for p in &pkts {
            w.push(p).unwrap();
        }
        w.finish().unwrap();
        // Chop the tail off mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let mut r = NfwReader::open(&path).unwrap();
        let mut out = Vec::new();
        let err = loop {
            match r.next_batch(&mut out, 4) {
                Ok(0) => panic!("truncation must surface as an error"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.offset.is_some(), "{err}");
        assert!(err.msg.contains("truncated"), "{err}");
        assert!(out.len() < 10, "the bad record never reaches the engine");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unfinished_writer_is_detected_by_count_check() {
        let path = temp_path("unfinished");
        let mut w = NfwWriter::create(&path, 0).unwrap();
        for p in &PacketGen::new(0).batch(3) {
            w.push(p).unwrap();
        }
        // Simulate a crash: flush records but never patch the count.
        w.w.flush().unwrap();
        drop(w);
        let mut r = NfwReader::open(&path).unwrap();
        let mut out = Vec::new();
        let err = loop {
            match r.next_batch(&mut out, 8) {
                Ok(0) => panic!("count mismatch must surface as an error"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.msg.contains("unfinished"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gen_source_matches_batch() {
        let mut src = GenSource::new(5, 100);
        assert_eq!(src.size_hint(), Some(100));
        let mut out = Vec::new();
        while src.next_batch(&mut out, 33).unwrap() > 0 {}
        assert_eq!(out, PacketGen::new(5).batch(100));
    }

    #[test]
    fn json_trace_streams_records() {
        let path = temp_path("json");
        std::fs::write(
            &path,
            r#"{ "comment": "trace",
                "trace": [
                  {"ip.src": 1, "tcp.dport": 80},
                  {"ip.src": 2, "ip.proto": 17}
                ] }"#,
        )
        .unwrap();
        let mut src = JsonTraceSource::open(&path).unwrap().expect("has trace");
        let mut out = Vec::new();
        while src.next_batch(&mut out, 1).unwrap() > 0 {}
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ip_src, 1);
        assert!(matches!(out[0].transport, Transport::Tcp { dport: 80, .. }));
        assert_eq!(out[1].ip_src, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_without_trace_falls_back() {
        let path = temp_path("seed");
        std::fs::write(&path, r#"{"seed": 3, "packets": 10}"#).unwrap();
        assert!(JsonTraceSource::open(&path).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_trailing_record_names_its_byte_offset() {
        let path = temp_path("badjson");
        let text = r#"{"trace": [{"ip.src": 1}, {"ip.src": "oops"}]}"#;
        std::fs::write(&path, text).unwrap();
        let bad_at = text.find(r#"{"ip.src": "oops"#).unwrap() as u64;
        let mut src = JsonTraceSource::open(&path).unwrap().expect("has trace");
        let mut out = Vec::new();
        let err = loop {
            match src.next_batch(&mut out, 8) {
                Ok(0) => panic!("malformed record must error"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.offset, Some(bad_at), "{err}");
        assert!(err.msg.contains("trace[1]"), "{err}");
        assert_eq!(out.len(), 1, "the good leading record still streamed");

        // A trace cut off mid-record diagnoses the truncation point.
        let cut = &text[..text.len() - 10];
        std::fs::write(&path, cut).unwrap();
        let mut src = JsonTraceSource::open(&path).unwrap().expect("has trace");
        let mut out = Vec::new();
        let err = loop {
            match src.next_batch(&mut out, 8) {
                Ok(0) => panic!("truncated trace must error"),
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(
            err.offset.is_some() && err.msg.contains("truncated"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
