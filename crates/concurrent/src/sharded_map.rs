//! A sharded concurrent hash map — our stand-in for the paper's
//! `java.util.concurrent.ConcurrentHashMap` that manages `jmp` edges
//! (Section IV-A).
//!
//! Keys are hashed with FxHash to pick one of `S` shards (a power of two);
//! each shard is an independent `parking_lot::RwLock<FxHashMap>`. Reads take
//! a shared lock on one shard only, writes an exclusive lock on one shard
//! only, so disjoint keys proceed in parallel.
//!
//! The map intentionally exposes *insert-if-absent* (`try_insert`) as its
//! primary write, matching the paper's race rules: a finished `jmp` set is
//! inserted atomically under its `(x, c)` key, and when two threads race to
//! insert an unfinished `jmp` edge "only one of the two will succeed".

use crate::fxhash::{fx_hash_one, FxHashMap};
use parking_lot::RwLock;
use std::hash::Hash;

/// A sharded concurrent map from `K` to `V`.
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<FxHashMap<K, V>>>,
    mask: usize,
}

impl<K: Eq + Hash, V> ShardedMap<K, V> {
    /// Creates a map with the default shard count (64).
    pub fn new() -> Self {
        Self::with_shards(64)
    }

    /// Creates a map with `shards` shards, rounded up to a power of two.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedMap {
            shards: (0..n).map(|_| RwLock::new(FxHashMap::default())).collect(),
            mask: n - 1,
        }
    }

    #[inline]
    fn shard_of(&self, key: &K) -> &RwLock<FxHashMap<K, V>> {
        // Use the upper bits: Fx mixes them best.
        let h = fx_hash_one(key);
        &self.shards[(h >> 48) as usize & self.mask]
    }

    /// Inserts `value` only if `key` is absent. Returns `true` when this
    /// call inserted the value (first writer wins).
    pub fn try_insert(&self, key: K, value: V) -> bool {
        let shard = self.shard_of(&key);
        let mut guard = shard.write();
        match guard.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value);
                true
            }
        }
    }

    /// Unconditional insert; returns the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_of(&key).write().insert(key, value)
    }

    /// Applies `f` to the value under `key`, if present, under the shard's
    /// read lock, and returns its result. Values never escape the lock by
    /// reference, so `V` does not need to be `Clone`.
    pub fn with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shard_of(key).read().get(key).map(f)
    }

    /// Clones the value under `key` out of the map.
    pub fn get_cloned(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shard_of(key).read().get(key).cloned()
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_of(key).read().contains_key(key)
    }

    /// Total number of entries (takes each shard's read lock in turn; the
    /// result is a snapshot, not a linearisable count).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the map is empty (same snapshot caveat as [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Removes everything.
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().clear();
        }
    }

    /// Keeps only the entries for which `f` returns `true`, taking one
    /// shard's write lock at a time (entries inserted into an
    /// already-visited shard during the sweep survive untouched). Returns
    /// the number of entries removed — the jmp store's delta invalidation
    /// uses it to count what it dropped.
    pub fn retain(&self, mut f: impl FnMut(&K, &mut V) -> bool) -> usize {
        let mut removed = 0;
        for s in &self.shards {
            let mut guard = s.write();
            let before = guard.len();
            guard.retain(|k, v| f(k, v));
            removed += before - guard.len();
        }
        removed
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Visits every entry under per-shard read locks.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for s in &self.shards {
            for (k, v) in s.read().iter() {
                f(k, v);
            }
        }
    }

    /// Approximate heap footprint in bytes: entries × (key + value + bucket
    /// overhead). Used by the memory-usage experiment (paper Section IV-D5).
    pub fn approx_bytes(&self) -> usize {
        let per_entry = std::mem::size_of::<K>() + std::mem::size_of::<V>() + 16;
        self.len() * per_entry
    }
}

impl<K: Eq + Hash, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_get_contains() {
        let m: ShardedMap<u64, String> = ShardedMap::new();
        assert!(m.is_empty());
        assert!(m.try_insert(1, "a".into()));
        assert!(!m.try_insert(1, "b".into()), "first writer wins");
        assert_eq!(m.get_cloned(&1).as_deref(), Some("a"));
        assert!(m.contains_key(&1));
        assert!(!m.contains_key(&2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn with_borrows_value() {
        let m: ShardedMap<u32, Vec<u32>> = ShardedMap::new();
        m.insert(7, vec![1, 2, 3]);
        let sum: Option<u32> = m.with(&7, |v| v.iter().sum());
        assert_eq!(sum, Some(6));
        assert_eq!(m.with(&8, |v: &Vec<u32>| v.len()), None);
    }

    #[test]
    fn unconditional_insert_replaces() {
        let m: ShardedMap<u32, u32> = ShardedMap::new();
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 20), Some(10));
        assert_eq!(m.get_cloned(&1), Some(20));
    }

    #[test]
    fn clear_and_for_each() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(4);
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        let mut count = 0;
        let mut sum = 0;
        m.for_each(|_, v| {
            count += 1;
            sum += *v;
        });
        assert_eq!(count, 100);
        assert_eq!(sum, (0..100).map(|i| i * 2).sum::<u32>());
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(3);
        assert_eq!(m.shards.len(), 4);
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(0);
        assert_eq!(m.shards.len(), 1);
    }

    #[test]
    fn concurrent_first_writer_wins_exactly_once() {
        // 8 threads race to insert the same 1000 keys; exactly one insert
        // per key may report success.
        let m: Arc<ShardedMap<u32, usize>> = Arc::new(ShardedMap::new());
        let wins: Vec<usize> = (0..8)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let mut wins = 0;
                    for k in 0..1000u32 {
                        if m.try_insert(k, t) {
                            wins += 1;
                        }
                    }
                    wins
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        assert_eq!(wins.iter().sum::<usize>(), 1000);
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn retain_filters_and_counts() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(4);
        for i in 0..100 {
            m.insert(i, i);
        }
        let removed = m.retain(|_, v| *v % 2 == 0);
        assert_eq!(removed, 50);
        assert_eq!(m.len(), 50);
        m.for_each(|_, v| assert_eq!(*v % 2, 0));
        assert_eq!(m.retain(|_, _| true), 0, "no-op retain removes nothing");
    }

    #[test]
    fn shard_iteration_covers_every_entry() {
        let m: ShardedMap<u32, u32> = ShardedMap::with_shards(8);
        for i in 0..64 {
            m.insert(i, i * 3);
        }
        assert_eq!(m.shard_count(), 8);
        let mut seen = Vec::new();
        m.for_each(|k, v| {
            assert_eq!(*v, *k * 3);
            seen.push(*k);
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn approx_bytes_scales_with_len() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        assert_eq!(m.approx_bytes(), 0);
        m.insert(1, 1);
        m.insert(2, 2);
        assert_eq!(m.approx_bytes(), 2 * (8 + 8 + 16));
    }
}
