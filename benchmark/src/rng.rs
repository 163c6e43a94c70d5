//! The benchmark's own seeded generator (SplitMix64), so that corpus
//! parameters and draws cannot change when the repository's `rand`
//! stand-in does.

/// SplitMix64: 64 bits of state, full period, good enough to place trips.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for sub-stream `stream` of `seed` (one per trajectory),
    /// so adding trajectories never shifts the draws of earlier ones.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
