//! Pull-based streaming workload sources.
//!
//! The sharded runtime used to take its whole workload as an in-memory
//! slice, which caps a run at whatever fits in RAM. A
//! [`WorkloadSource`] instead hands the engine items a bounded batch at
//! a time, so a million-packet trace streams through a constant-size
//! buffer. The trait is generic over the item type — this crate sits
//! below the packet crate, so the packet-specific sources (the seeded
//! generator, `.nfw` binary traces, JSON traces) implement it one layer
//! up; [`SliceSource`] covers the in-memory case for any `Clone` item.
//!
//! The module also provides the length-prefixed record framing the
//! `.nfw` trace format is built on: [`write_record`] / [`read_record`]
//! move opaque byte records through any `io::Write` / `io::Read`,
//! tracking byte offsets so a truncated or corrupt file is reported as
//! *where* it broke, not just *that* it broke.

use std::io::{Read, Write};

/// Largest record [`read_record`] will accept. A corrupt length prefix
/// otherwise turns into a multi-gigabyte allocation; real packet
/// records are a few dozen bytes.
pub const MAX_RECORD_LEN: u32 = 16 * 1024 * 1024;

/// An error while pulling from a workload source: what went wrong and,
/// when the source is positional (a file, a byte stream), at which byte
/// offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// Byte offset of the failing record, when the source has one.
    pub offset: Option<u64>,
    /// What went wrong.
    pub msg: String,
}

impl WorkloadError {
    /// An error with no meaningful byte offset.
    pub fn msg(msg: impl Into<String>) -> WorkloadError {
        WorkloadError {
            offset: None,
            msg: msg.into(),
        }
    }

    /// An error anchored at a byte offset.
    pub fn at(offset: u64, msg: impl Into<String>) -> WorkloadError {
        WorkloadError {
            offset: Some(offset),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.offset {
            Some(o) => write!(f, "byte offset {o}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A pull-based stream of workload items.
///
/// The consumer repeatedly calls [`next_batch`](Self::next_batch) with
/// a bounded `max`; the source appends up to `max` items to `out` and
/// returns how many it appended. Zero means the stream is exhausted —
/// a source must keep returning zero once it has ended.
///
/// A consumer that is done with a batch before it pulls the next one
/// calls [`refill`](Self::refill) instead: the source replaces `out`'s
/// items with the next ones and may overwrite the items already there,
/// so a source that decodes into existing items (`.nfw` records into
/// the previous batch's packets) recycles their buffers instead of
/// allocating new ones.
pub trait WorkloadSource {
    /// The item type the source yields (packets, for the shard engine).
    type Item;

    /// Append up to `max` items to `out`, returning the number
    /// appended; `Ok(0)` signals end of stream. `out` is not cleared —
    /// the caller owns the buffer and its reuse policy.
    fn next_batch(&mut self, out: &mut Vec<Self::Item>, max: usize)
        -> Result<usize, WorkloadError>;

    /// Replace `out`'s items with up to `max` new ones, returning how
    /// many `out` now holds; `Ok(0)` signals end of stream and leaves
    /// `out` empty. The source may overwrite the items `out` held. On
    /// an error `out` holds the items of this batch that came before
    /// the failing one.
    ///
    /// The default clears `out` and calls
    /// [`next_batch`](Self::next_batch), as `Clone::clone_from`
    /// defaults to `clone`.
    fn refill(&mut self, out: &mut Vec<Self::Item>, max: usize) -> Result<usize, WorkloadError> {
        out.clear();
        self.next_batch(out, max)
    }

    /// Total items this source expects to yield, when known up front
    /// (a counted trace file, a sized generator). Purely advisory.
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

impl<S: WorkloadSource + ?Sized> WorkloadSource for &mut S {
    type Item = S::Item;

    fn next_batch(
        &mut self,
        out: &mut Vec<Self::Item>,
        max: usize,
    ) -> Result<usize, WorkloadError> {
        (**self).next_batch(out, max)
    }

    fn refill(&mut self, out: &mut Vec<Self::Item>, max: usize) -> Result<usize, WorkloadError> {
        (**self).refill(out, max)
    }

    fn size_hint(&self) -> Option<u64> {
        (**self).size_hint()
    }
}

impl<S: WorkloadSource + ?Sized> WorkloadSource for Box<S> {
    type Item = S::Item;

    fn next_batch(
        &mut self,
        out: &mut Vec<Self::Item>,
        max: usize,
    ) -> Result<usize, WorkloadError> {
        (**self).next_batch(out, max)
    }

    fn refill(&mut self, out: &mut Vec<Self::Item>, max: usize) -> Result<usize, WorkloadError> {
        (**self).refill(out, max)
    }

    fn size_hint(&self) -> Option<u64> {
        (**self).size_hint()
    }
}

/// A [`WorkloadSource`] over a borrowed in-memory slice; items are
/// cloned out in order.
#[derive(Debug)]
pub struct SliceSource<'a, T> {
    items: &'a [T],
    pos: usize,
}

impl<'a, T> SliceSource<'a, T> {
    /// A source yielding `items` front to back.
    pub fn new(items: &'a [T]) -> SliceSource<'a, T> {
        SliceSource { items, pos: 0 }
    }
}

impl<T: Clone> WorkloadSource for SliceSource<'_, T> {
    type Item = T;

    fn next_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<usize, WorkloadError> {
        let n = max.min(self.items.len() - self.pos);
        out.extend_from_slice(&self.items[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.items.len() as u64)
    }
}

/// Append one length-prefixed record (`u32` big-endian length, then the
/// payload bytes) to `w`.
pub fn write_record(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "record too long"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
}

/// Read one length-prefixed record from `r` into `buf` (cleared first).
///
/// `offset` must hold the reader's current byte position and is
/// advanced past the record on success. Returns `Ok(true)` with the
/// payload in `buf`, `Ok(false)` on clean end-of-stream at a record
/// boundary, and an offset-stamped [`WorkloadError`] when the stream
/// ends mid-record or the length prefix is implausible.
pub fn read_record(
    r: &mut impl Read,
    offset: &mut u64,
    buf: &mut Vec<u8>,
) -> Result<bool, WorkloadError> {
    let mut len_bytes = [0u8; 4];
    match read_exact_or_eof(r, &mut len_bytes) {
        Ok(0) => return Ok(false),
        Ok(4) => {}
        Ok(n) => {
            return Err(WorkloadError::at(
                *offset,
                format!("truncated record: {n} of 4 length-prefix bytes"),
            ));
        }
        Err(e) => return Err(WorkloadError::at(*offset, format!("read failed: {e}"))),
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_RECORD_LEN {
        return Err(WorkloadError::at(
            *offset,
            format!("implausible record length {len} (max {MAX_RECORD_LEN})"),
        ));
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf).map_err(|e| {
        WorkloadError::at(
            *offset,
            format!("truncated record: expected {len} payload bytes: {e}"),
        )
    })?;
    *offset += 4 + u64::from(len);
    Ok(true)
}

/// Fill `buf` from `r`, tolerating end-of-stream: returns how many
/// bytes were actually read (0 = clean EOF before the first byte).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_yields_in_bounded_batches() {
        let items: Vec<u32> = (0..10).collect();
        let mut src = SliceSource::new(&items);
        assert_eq!(src.size_hint(), Some(10));
        let mut out = Vec::new();
        assert_eq!(src.next_batch(&mut out, 4).unwrap(), 4);
        assert_eq!(src.next_batch(&mut out, 4).unwrap(), 4);
        assert_eq!(src.next_batch(&mut out, 4).unwrap(), 2);
        assert_eq!(src.next_batch(&mut out, 4).unwrap(), 0, "stays exhausted");
        assert_eq!(out, items);
    }

    #[test]
    fn default_refill_replaces_the_batch() {
        let items: Vec<u32> = (0..10).collect();
        let mut src = SliceSource::new(&items);
        let mut out = vec![99; 7];
        assert_eq!(src.refill(&mut out, 4).unwrap(), 4);
        assert_eq!(out, [0, 1, 2, 3]);
        assert_eq!(src.refill(&mut out, 4).unwrap(), 4);
        assert_eq!(out, [4, 5, 6, 7]);
        assert_eq!(src.refill(&mut out, 4).unwrap(), 2);
        assert_eq!(out, [8, 9]);
        assert_eq!(src.refill(&mut out, 4).unwrap(), 0);
        assert!(out.is_empty(), "end of stream leaves `out` empty");
    }

    /// A source whose `refill` overwrites its slots: item `i` of the
    /// stream is `i`, and a refilled slot keeps a mark of its reuse.
    struct Recycling {
        next: u32,
    }

    impl WorkloadSource for Recycling {
        type Item = (u32, bool);

        fn next_batch(
            &mut self,
            out: &mut Vec<(u32, bool)>,
            max: usize,
        ) -> Result<usize, WorkloadError> {
            for _ in 0..max {
                out.push((self.next, false));
                self.next += 1;
            }
            Ok(max)
        }

        fn refill(
            &mut self,
            out: &mut Vec<(u32, bool)>,
            max: usize,
        ) -> Result<usize, WorkloadError> {
            out.truncate(max);
            for slot in out.iter_mut() {
                *slot = (self.next, true);
                self.next += 1;
            }
            let reused = out.len();
            self.next_batch(out, max - reused)?;
            Ok(max)
        }
    }

    #[test]
    fn borrowed_and_boxed_sources_forward_refill() {
        fn refill<S: WorkloadSource<Item = (u32, bool)>>(mut src: S, out: &mut Vec<(u32, bool)>) {
            src.refill(out, 3).unwrap();
        }
        let mut src = Recycling { next: 0 };
        let mut out = vec![(0, false); 2];
        refill(&mut src, &mut out);
        assert_eq!(out, [(0, true), (1, true), (2, false)]);
        refill(Box::new(src), &mut out);
        assert_eq!(out, [(3, true), (4, true), (5, true)]);
    }

    #[test]
    fn records_round_trip() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], vec![1, 2, 3], vec![0xFF; 300]];
        let mut bytes = Vec::new();
        for p in &payloads {
            write_record(&mut bytes, p).unwrap();
        }
        let mut r = bytes.as_slice();
        let mut offset = 0u64;
        let mut buf = Vec::new();
        for p in &payloads {
            assert!(read_record(&mut r, &mut offset, &mut buf).unwrap());
            assert_eq!(&buf, p);
        }
        assert!(!read_record(&mut r, &mut offset, &mut buf).unwrap());
        assert_eq!(offset, bytes.len() as u64);
    }

    #[test]
    fn truncation_reports_the_byte_offset() {
        let mut bytes = Vec::new();
        write_record(&mut bytes, &[1, 2, 3, 4]).unwrap();
        write_record(&mut bytes, &[5, 6, 7, 8]).unwrap();
        // Cut mid-way through the second record's payload.
        bytes.truncate(8 + 4 + 2);
        let mut r = bytes.as_slice();
        let mut offset = 0u64;
        let mut buf = Vec::new();
        assert!(read_record(&mut r, &mut offset, &mut buf).unwrap());
        let err = read_record(&mut r, &mut offset, &mut buf).unwrap_err();
        assert_eq!(err.offset, Some(8), "error anchored at the bad record");
        assert!(err.msg.contains("truncated"), "{err}");
        // Cut inside a length prefix instead.
        let mut r = &bytes[..10][..];
        let mut offset = 0u64;
        assert!(read_record(&mut r, &mut offset, &mut buf).unwrap());
        let err = read_record(&mut r, &mut offset, &mut buf).unwrap_err();
        assert_eq!(err.offset, Some(8));
        assert!(err.msg.contains("length-prefix"), "{err}");
    }

    #[test]
    fn implausible_length_is_rejected_not_allocated() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = bytes.as_slice();
        let mut offset = 0u64;
        let mut buf = Vec::new();
        let err = read_record(&mut r, &mut offset, &mut buf).unwrap_err();
        assert!(err.msg.contains("implausible"), "{err}");
    }
}
