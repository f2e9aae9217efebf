//! Seeded pseudo-random number generation.
//!
//! [`Rng`] is xoshiro256** (Blackman & Vigna) seeded through SplitMix64,
//! the standard pairing: SplitMix64 expands an arbitrary 64-bit seed into
//! the 256-bit xoshiro state without fixed points, and xoshiro256** passes
//! BigCrush while running in a handful of cycles per draw. Everything the
//! workspace draws — packets, property-test inputs — flows through this
//! one deterministic generator, so a seed reproduces a run exactly on any
//! platform.

/// Advance a SplitMix64 state and return the next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A seeded xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed (SplitMix64 expansion).
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut sm);
        }
        // An all-zero state would be a fixed point; SplitMix64 cannot
        // produce four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9e3779b97f4a7c15;
        }
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (upper half of a 64-bit draw).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `u8`.
    pub fn gen_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// A uniform `u16`.
    pub fn gen_u16(&mut self) -> u16 {
        (self.next_u64() >> 48) as u16
    }

    /// A uniform `u64` in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire-style widening multiply with rejection to avoid
    /// modulo bias.
    pub fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_below(0)");
        // Lemire's widening-multiply method: hi of x*n is uniform in
        // [0, n) once draws in the biased sliver (lo < (-n) mod n) are
        // rejected.
        let threshold = n.wrapping_neg() % n;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(n);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// A uniform `u64` in the inclusive range `[lo, hi]`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_below(span + 1)
    }

    /// A uniform `i64` in the inclusive range `[lo, hi]`.
    pub fn gen_range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = lo.abs_diff(hi);
        if span == u64::MAX {
            return self.next_u64() as i64;
        }
        lo.wrapping_add(self.gen_below(span + 1) as i64)
    }

    /// A uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_below(n as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // 53 bits of mantissa: draw a uniform float in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Fill a byte slice with uniform bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[self.gen_index(pool.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Cross-checked against the reference C implementation seeded via
        // splitmix64(0): state = {e220a8397b1dcdaf, 6e789e6aa1b965f4,
        // 06c45d188009454f, f88bb8a8724c81ec}.
        let mut sm = 0u64;
        assert_eq!(splitmix64(&mut sm), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(&mut sm), 0x6e789e6aa1b965f4);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..2000 {
            let v = r.gen_range_u64(10, 20);
            assert!((10..=20).contains(&v));
            let w = r.gen_range_i64(-5, 5);
            assert!((-5..=5).contains(&w));
            let i = r.gen_index(3);
            assert!(i < 3);
        }
    }

    #[test]
    fn full_range_draws() {
        let mut r = Rng::new(9);
        let _ = r.gen_range_u64(0, u64::MAX);
        let _ = r.gen_range_i64(i64::MIN, i64::MAX);
    }

    #[test]
    fn bool_bias_roughly_holds() {
        let mut r = Rng::new(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "p=0.25 gave {hits}/10000");
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(0.0));
    }

    #[test]
    fn fill_covers_tail() {
        let mut r = Rng::new(5);
        let mut buf = [0u8; 13];
        r.fill(&mut buf);
        // 13 bytes from a seeded draw: all-zero is (2^-104)-improbable.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gen_below_is_unbiased_over_small_modulus() {
        let mut r = Rng::new(11);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[r.gen_below(3) as usize] += 1;
        }
        for c in counts {
            assert!((9000..11000).contains(&c), "skewed: {counts:?}");
        }
    }
}
