//! The FxHash function (as used throughout rustc): a very fast,
//! non-cryptographic hash well suited to the small integer keys (node id,
//! context) that dominate this workload.
//!
//! Implemented locally to keep the dependency set to the approved list; the
//! algorithm is the well-known multiply-and-rotate byte/word mixer.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The Fx hasher state.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hashes a single value with FxHash (convenience for shard selection).
pub(crate) fn fx_hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(fx_hash_one(&42u32), fx_hash_one(&42u32));
        assert_ne!(fx_hash_one(&42u32), fx_hash_one(&43u32));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
    }

    #[test]
    fn byte_stream_tail_handling() {
        // write() must consume non-multiple-of-8 inputs.
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let a = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a, h2.finish());
    }

    #[test]
    fn spread_over_small_integers() {
        // Consecutive keys should not collide in the low bits used for
        // shard selection.
        let shards = 64u64;
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            seen.insert(fx_hash_one(&i) % shards);
        }
        assert!(seen.len() > 32, "hash spreads over shards: {}", seen.len());
    }
}
