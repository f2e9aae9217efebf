//! The fixed-width bitset the dataflow solvers ([`crate::reach`],
//! [`crate::live`]) keep their per-node sets in.

/// A fixed-width bitset over `0..bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn new(bits: usize) -> BitSet {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn unset(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Unset every bit.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self = other`, in place; both must have the same width.
    pub(crate) fn copy_from(&mut self, other: &BitSet) {
        self.words.copy_from_slice(&other.words);
    }

    /// `self |= other`; returns whether anything changed.
    pub(crate) fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            if new != *a {
                *a = new;
                changed = true;
            }
        }
        changed
    }

    /// `self &= !mask`.
    pub(crate) fn subtract(&mut self, mask: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&mask.words) {
            *a &= !*b;
        }
    }

    /// The set bits, in increasing order.
    pub(crate) fn iter_ones(&self) -> Ones<'_> {
        Ones {
            words: self.words.iter().enumerate(),
            base: 0,
            word: 0,
        }
    }
}

/// Iterator over a [`BitSet`]'s set bits: walks the words, peeling the
/// lowest set bit of the current one with `trailing_zeros`.
pub(crate) struct Ones<'a> {
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    /// Bit index of the current word's bit 0.
    base: usize,
    /// The current word's bits not yet yielded.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (wi, &w) = self.words.next()?;
            self.base = wi * 64;
            self.word = w;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_basics() {
        let mut b = BitSet::new(130);
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(64) && b.get(129));
        assert!(!b.get(1));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
        let mut c = BitSet::new(130);
        c.set(5);
        assert!(c.union_with(&b));
        assert!(!c.union_with(&b), "idempotent");
        c.subtract(&b);
        assert_eq!(c.iter_ones().collect::<Vec<_>>(), vec![5]);
        c.unset(5);
        assert_eq!(c.iter_ones().next(), None);
        c.copy_from(&b);
        assert_eq!(c, b);
        c.clear();
        assert_eq!(c, BitSet::new(130));
        assert_eq!(BitSet::new(0).iter_ones().next(), None);
    }

    #[test]
    fn iter_ones_crosses_words() {
        let mut b = BitSet::new(256);
        let bits = [1, 63, 64, 127, 128, 200, 255];
        for i in bits {
            b.set(i);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), bits);
    }
}
