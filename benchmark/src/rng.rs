//! Seed handling: a splitmix64 stream, the mixer that derives sub-seeds,
//! and the two samplers the workloads use. Everything a run generates
//! comes from `--seed` through these, so the same seed gives the same
//! inputs and the program under test only ever sees generated inputs.

/// splitmix64's finaliser over `a` xor a golden-ratio multiple of `b`:
/// derives an independent sub-seed per (seed, purpose) pair.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splitmix64 generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct items of `v` in seeded order (all of `v`, shuffled,
    /// when it holds fewer than `k`).
    pub fn sample<T: Clone>(&mut self, v: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx.into_iter().map(|i| v[i].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let draw = |s| {
            let mut r = Rng::new(s);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_ne!(mix(1, 2), mix(2, 1));
    }

    #[test]
    fn shuffle_is_a_permutation_and_sample_is_distinct() {
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        let mut s = Rng::new(3).sample(&v, 16);
        assert_eq!(s.len(), 16);
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 16);
        assert_eq!(Rng::new(3).sample(&v[..4], 16).len(), 4);
    }
}
