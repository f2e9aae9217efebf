//! A bounded overwrite-oldest ring log — the storage behind the shard
//! runtime's flight recorder.
//!
//! Unlike [`crate::spsc`] (a channel), a [`RingLog`] is a plain
//! single-owner container: pushes past capacity evict the oldest entry,
//! and the total number of pushes is tracked so a reader can tell how
//! much history was shed. Iteration is oldest-first.
//!
//! The entries live in one fixed buffer that never moves once full: a
//! push overwrites the oldest slot and advances the write position, so
//! [`RingLog::recycle`] can hand that slot to the caller to overwrite in
//! place, reusing whatever buffers the evicted entry owns.

/// A bounded log retaining only the most recent `capacity` entries.
#[derive(Debug, Clone)]
pub struct RingLog<T> {
    cap: usize,
    buf: Vec<T>,
    /// Where the next push goes once the log is full: the oldest entry.
    next: usize,
    pushed: u64,
}

impl<T> RingLog<T> {
    /// An empty log retaining at most `capacity` entries (clamped up
    /// to 1).
    pub fn new(capacity: usize) -> RingLog<T> {
        let cap = capacity.max(1);
        RingLog {
            cap,
            buf: Vec::with_capacity(cap),
            next: 0,
            pushed: 0,
        }
    }

    /// Append `value`, evicting the oldest retained entry when full.
    pub fn push(&mut self, value: T) {
        match self.recycle() {
            Some(slot) => *slot = value,
            None => {
                self.buf.push(value);
                self.pushed += 1;
            }
        }
    }

    /// Once the log is full, count a push and hand back the entry it
    /// evicts, now the newest, for the caller to overwrite in place.
    /// `None` while the log still has room: [`push`](Self::push) then.
    pub fn recycle(&mut self) -> Option<&mut T> {
        if self.buf.len() < self.cap {
            return None;
        }
        let at = self.next;
        self.next = (at + 1) % self.cap;
        self.pushed += 1;
        self.buf.get_mut(at)
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
        let (newer, older) = self.buf.split_at(self.next);
        older.iter().chain(newer)
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
    fn recycle_hands_over_the_oldest_entry_once_full() {
        let mut r = RingLog::new(2);
        let mut evicted = Vec::new();
        for i in 0..4 {
            match r.recycle() {
                Some(slot) => {
                    evicted.push(Some(*slot));
                    *slot = i;
                }
                None => {
                    evicted.push(None);
                    r.push(i);
                }
            }
        }
        assert_eq!(evicted, vec![None, None, Some(0), Some(1)]);
        assert_eq!(r.pushed(), 4);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn iterates_oldest_first_across_many_wraps() {
        for cap in [1, 2, 5, 64] {
            let mut r = RingLog::new(cap);
            for i in 0..1_000u64 {
                if i % 2 == 0 {
                    r.push(i);
                } else if let Some(slot) = r.recycle() {
                    *slot = i;
                } else {
                    r.push(i);
                }
                assert_eq!(r.pushed(), i + 1, "cap {cap}");
                let kept = (i + 1).min(cap as u64);
                let want: Vec<u64> = (i + 1 - kept..=i).collect();
                assert_eq!(r.iter().copied().collect::<Vec<_>>(), want, "cap {cap}");
            }
        }
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
