//! A space-saving top-K frequency sketch (Metwally et al.), the
//! zero-dependency hot-key profiler behind `nf-shard`'s
//! `shard.N.hotkeys` telemetry.
//!
//! The sketch keeps at most `cap` counters. An offered key that is
//! already tracked increments its counter; a new key takes a free slot
//! while one exists, and otherwise *replaces* the minimum-count slot,
//! inheriting its count as the new entry's error bound. Two guarantees
//! follow, both pinned by property tests:
//!
//! * **No undercounting:** for every tracked key, `count >=` the key's
//!   true frequency (the inherited minimum can only overestimate).
//! * **Heavy hitters are present:** any key whose true frequency
//!   exceeds `total / cap` (the [`TopK::guarantee`] threshold) is
//!   guaranteed to be tracked — the property skew-aware shard
//!   rebalancing relies on.
//!
//! `cap` is small (8–16 for the shard profiler), so slots are a plain
//! `Vec` scanned linearly: one cache line beats a heap for these sizes.
//!
//! A tracked key can carry data `D` the sketch never compares (the
//! shard profiler tracks a flow by its 64-bit dispatch hash and keeps
//! the flow's field values only to render them). [`TopK::offer_with`]
//! writes it only when the key starts being tracked, into the evicted
//! entry's data when it evicts one, so a sketch whose data owns buffers
//! stops allocating once every slot has been filled.

/// One tracked key with its (over-)estimate and error bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopEntry<K, D = ()> {
    /// The tracked key.
    pub key: K,
    /// Estimated frequency; never below the true frequency.
    pub count: u64,
    /// Maximum overestimate (the count inherited when the key evicted
    /// a previous minimum). `count - err` is a lower bound on the true
    /// frequency.
    pub err: u64,
    /// What the caller keeps with the key, written when it started
    /// being tracked.
    pub data: D,
}

/// The space-saving sketch. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct TopK<K, D = ()> {
    cap: usize,
    slots: Vec<TopEntry<K, D>>,
    total: u64,
}

impl<K: Eq + Clone> TopK<K> {
    /// A sketch tracking at most `cap` keys (`cap` is clamped up to 1).
    pub fn new(cap: usize) -> TopK<K> {
        TopK::with_data(cap)
    }

    /// Count one occurrence of `key`.
    pub fn offer(&mut self, key: K) {
        self.offer_n(key, 1);
    }

    /// Count `n` occurrences of `key` at once.
    pub fn offer_n(&mut self, key: K, n: u64) {
        self.offer_n_with(key, n, |_| {});
    }
}

impl<K: Eq + Clone, D: Default + Clone> TopK<K, D> {
    /// A sketch tracking at most `cap` keys (`cap` is clamped up to 1),
    /// each with its data `D`.
    pub fn with_data(cap: usize) -> TopK<K, D> {
        let cap = cap.max(1);
        TopK {
            cap,
            slots: Vec::with_capacity(cap),
            total: 0,
        }
    }

    /// Count one occurrence of `key`. When the sketch starts tracking
    /// it, `fill` writes the key's data over what its slot held: a
    /// default `D` in a free slot, the evicted entry's data otherwise.
    pub fn offer_with(&mut self, key: K, fill: impl FnOnce(&mut D)) {
        self.offer_n_with(key, 1, fill);
    }

    fn offer_n_with(&mut self, key: K, n: u64, fill: impl FnOnce(&mut D)) {
        if n == 0 {
            return;
        }
        self.total += n;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.key == key) {
            slot.count += n;
            return;
        }
        if self.slots.len() < self.cap {
            let mut data = D::default();
            fill(&mut data);
            self.slots.push(TopEntry {
                key,
                count: n,
                err: 0,
                data,
            });
            return;
        }
        // Evict the current minimum; the newcomer inherits its count as
        // the error bound (it may have occurred up to `min` times while
        // untracked, never more). `None` only with a zero-cap sketch,
        // which tracks nothing by construction.
        if let Some(min) = self.slots.iter_mut().min_by_key(|s| s.count) {
            min.key = key;
            fill(&mut min.data);
            min.err = min.count;
            min.count += n;
        }
    }

    /// Total observations offered.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of keys currently tracked.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The heavy-hitter threshold: any key with true frequency strictly
    /// above `total / cap` is guaranteed to be tracked.
    pub fn guarantee(&self) -> u64 {
        self.total / self.cap as u64
    }

    /// True when `key` is currently tracked.
    pub fn contains(&self, key: &K) -> bool {
        self.slots.iter().any(|s| s.key == *key)
    }

    /// The estimated count for `key`, if tracked.
    pub fn estimate(&self, key: &K) -> Option<u64> {
        self.slots.iter().find(|s| s.key == *key).map(|s| s.count)
    }

    /// Tracked entries, heaviest first (ties keep insertion order).
    pub fn entries(&self) -> Vec<TopEntry<K, D>> {
        let mut out = self.slots.clone();
        out.sort_by_key(|s| std::cmp::Reverse(s.count));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut s = TopK::new(4);
        for k in ["a", "b", "a", "c", "a", "b"] {
            s.offer(k);
        }
        assert_eq!(s.estimate(&"a"), Some(3));
        assert_eq!(s.estimate(&"b"), Some(2));
        assert_eq!(s.estimate(&"c"), Some(1));
        assert_eq!(s.total(), 6);
        let e = s.entries();
        assert_eq!(e[0].key, "a");
        assert_eq!(e[0].err, 0, "no eviction happened, estimates are exact");
    }

    #[test]
    fn eviction_inherits_minimum_as_error() {
        let mut s = TopK::new(2);
        s.offer(1u64);
        s.offer(2);
        s.offer(2);
        s.offer(3); // evicts key 1 (count 1): key 3 enters at count 2, err 1
        assert!(!s.contains(&1));
        assert_eq!(s.estimate(&3), Some(2));
        assert_eq!(s.entries().iter().find(|e| e.key == 3).unwrap().err, 1);
    }

    #[test]
    fn data_is_written_only_when_a_key_starts_being_tracked() {
        // Keys offered with their square as data; `fills` logs each write.
        let mut s: TopK<u64, Vec<u64>> = TopK::with_data(2);
        let mut fills = Vec::new();
        for k in [1u64, 2, 1, 3, 3, 2] {
            s.offer_with(k, |d| {
                fills.push((k, d.clone()));
                d.clear();
                d.push(k * k);
            });
        }
        // 3 evicts 2 (count 1) and takes over its buffer; the second 2
        // then evicts 1 (count 2 against 3's 3) and takes over 1's.
        assert_eq!(
            fills,
            vec![(1, vec![]), (2, vec![]), (3, vec![4]), (2, vec![1])]
        );
        for e in s.entries() {
            assert_eq!(e.data, vec![e.key * e.key]);
        }
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn heavy_hitter_survives_noise() {
        let mut s = TopK::new(4);
        for i in 0..300u64 {
            s.offer(1000); // the hot key, every other packet
            s.offer(i); // 300 distinct cold keys
        }
        assert!(s.contains(&1000));
        assert!(s.estimate(&1000).unwrap() >= 300, "never undercounts");
    }

    #[test]
    fn cap_clamped_and_offer_zero_is_noop() {
        let mut s: TopK<u8> = TopK::new(0);
        s.offer_n(7, 0);
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
        s.offer(7);
        assert_eq!(s.len(), 1);
    }
}
