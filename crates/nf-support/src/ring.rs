//! A bounded overwrite-oldest ring log — the storage behind the shard
//! runtime's flight recorder.
//!
//! Unlike [`crate::spsc`] (a channel), a [`RingLog`] is a plain
//! single-owner container: pushes past capacity silently evict the
//! oldest entry, and the total number of pushes is tracked so a reader
//! can tell how much history was shed. Iteration is oldest-first.

use std::collections::VecDeque;

/// A bounded log retaining only the most recent `capacity` entries.
#[derive(Debug, Clone)]
pub struct RingLog<T> {
    cap: usize,
    buf: VecDeque<T>,
    pushed: u64,
}

impl<T> RingLog<T> {
    /// An empty log retaining at most `capacity` entries (clamped up
    /// to 1).
    pub fn new(capacity: usize) -> RingLog<T> {
        let cap = capacity.max(1);
        RingLog {
            cap,
            buf: VecDeque::with_capacity(cap),
            pushed: 0,
        }
    }

    /// Append `value`, evicting the oldest retained entry when full.
    pub fn push(&mut self, value: T) {
        self.push_with(|_| value);
    }

    /// Append the entry `make` builds. When the log is full, `make` is
    /// handed the entry this push evicts, so it can reuse its buffers.
    pub fn push_with(&mut self, make: impl FnOnce(Option<T>) -> T) {
        let evicted = if self.buf.len() == self.cap {
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(make(evicted));
        self.pushed += 1;
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum retained entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total pushes over the log's lifetime (`pushed - len` entries
    /// have been evicted).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Iterate retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_only_the_newest_entries() {
        let mut r = RingLog::new(3);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
    }

    #[test]
    fn push_with_hands_over_the_evicted_entry() {
        let mut r = RingLog::new(2);
        let mut evicted = Vec::new();
        for i in 0..4 {
            r.push_with(|old| {
                evicted.push(old);
                i
            });
        }
        assert_eq!(evicted, vec![None, None, Some(0), Some(1)]);
        assert_eq!(r.pushed(), 4);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let mut r = RingLog::new(0);
        r.push('a');
        r.push('b');
        assert_eq!(r.capacity(), 1);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec!['b']);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut r = RingLog::new(8);
        r.push(1);
        r.push(2);
        assert!(!r.is_empty());
        assert_eq!(r.len(), 2);
        assert_eq!(r.pushed(), 2);
    }
}
