//! Hash-consed calling-context interner.
//!
//! A calling context is a stack of call sites. The solver's hot loops
//! push, pop and compare contexts on every work-list step; representing
//! each context as an owned `Vec<u32>` (the seed implementation) makes
//! every one of those operations a heap allocation or an O(depth)
//! compare. This module hash-conses call strings into a shared persistent
//! tree instead: every distinct context is a node `(parent, site)` in an
//! append-only table and is named by a `Copy` 32-bit [`CtxId`]
//! (id 0 = the empty context). Equal call strings always intern to the
//! same id, so
//!
//! * `push` is a table lookup (allocating one node the *first* time a
//!   context is seen anywhere in the run),
//! * `pop`/`top` are single array reads,
//! * equality and hashing are integer ops, and
//! * visited sets, memo tables and jmp-store keys shrink to fixed-size
//!   tuples.
//!
//! Concurrency: the node table is a chunked append-only array of atomic
//! slots, so the hot *resolve* path (`parent`/`top`/`stack_of`/
//! `cmp_stacks`) is lock-free. Only first-time interning takes a lock,
//! and only on one of 64 shards of the dedup map `(parent, site) → id` —
//! the same sharding discipline as [`crate::ShardedMap`]. Ids are never
//! freed; an interner lives as long as the store/session that owns it, so
//! every id it ever produced stays resolvable. A solver lane resolves
//! through its own [`CtxMirror`], a flat copy of the slots it has met.
//!
//! Determinism caveat: which *numeric* id a call string receives depends
//! on interning order, so ids must never be compared across interners or
//! persisted. Anything that leaves the solver (answers, traces, display)
//! materialises ids back into call-site stacks first.

use crate::fxhash::{fx_hash_one, FxHashMap};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// An interned calling context: an index into a [`CtxInterner`]'s node
/// table. `Copy`, 4 bytes, integer equality/hash. Only meaningful
/// together with the interner that produced it.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(u32);

impl CtxId {
    /// The empty context `∅` — id 0 in every interner.
    pub const EMPTY: CtxId = CtxId(0);

    /// Whether this is the empty context.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The raw table index.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a `CtxId` from a raw table index — the inverse of
    /// [`CtxId::raw`], for code (bitset rows, wire formats) that stores
    /// contexts as dense integers. The caller must have obtained `raw`
    /// from the same interner this id will be resolved against.
    #[inline]
    pub fn from_raw(raw: u32) -> CtxId {
        CtxId(raw)
    }
}

impl std::fmt::Display for CtxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Chunk 0 capacity; chunk `c` holds `FIRST_CHUNK << c` nodes, so 23
/// doubling chunks cover the full 32-bit id space without ever moving a
/// slot (appends never invalidate concurrent readers).
const FIRST_CHUNK: usize = 1 << 10;
const NUM_CHUNKS: usize = 23;
const DEDUP_SHARDS: usize = 64;

/// The concurrent, append-only context interner (see module docs).
pub struct CtxInterner {
    /// Node table: slot `id` packs `parent << 32 | site`. Chunks are
    /// allocated on demand and never reallocated, so readers index them
    /// without locks. Slot 0 (the empty context) is reserved.
    chunks: [OnceLock<Box<[AtomicU64]>>; NUM_CHUNKS],
    /// Dedup map `(parent << 32 | site) → id`, sharded like
    /// [`crate::ShardedMap`]: reads take one shard's read lock, only a
    /// genuinely new context takes a write lock.
    shards: Vec<RwLock<FxHashMap<u64, u32>>>,
    /// Next free id. Bumped only under a dedup shard's write lock (on a
    /// vacant entry), so ids are dense and each maps to exactly one node.
    next: AtomicU32,
}

impl CtxInterner {
    /// An interner holding only the empty context.
    pub fn new() -> Self {
        CtxInterner {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            shards: (0..DEDUP_SHARDS)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            next: AtomicU32::new(1),
        }
    }

    /// `(chunk, offset)` of a node id under the doubling-chunk layout:
    /// ids `[FIRST·(2^c − 1), FIRST·(2^{c+1} − 1))` live in chunk `c`.
    #[inline]
    fn locate(id: u32) -> (usize, usize) {
        let t = id as usize / FIRST_CHUNK + 1;
        let c = (usize::BITS - 1 - t.leading_zeros()) as usize;
        (c, id as usize - FIRST_CHUNK * ((1 << c) - 1))
    }

    #[inline]
    fn chunk(&self, c: usize) -> &[AtomicU64] {
        self.chunks[c].get_or_init(|| (0..(FIRST_CHUNK << c)).map(|_| AtomicU64::new(0)).collect())
    }

    /// The packed `(parent, site)` of an interned (non-empty) node.
    #[inline]
    fn slot(&self, id: CtxId) -> u64 {
        let (c, off) = Self::locate(id.0);
        self.chunk(c)[off].load(Ordering::Acquire)
    }

    /// Interns `parent` extended by `site` (the context-push operation).
    /// O(1) shard-map read when the child already exists anywhere in the
    /// run — the overwhelmingly common case on dense graphs.
    pub fn intern(&self, parent: CtxId, site: u32) -> CtxId {
        let packed = ((parent.0 as u64) << 32) | site as u64;
        let shard = &self.shards[(fx_hash_one(&packed) >> 48) as usize & (DEDUP_SHARDS - 1)];
        if let Some(&id) = shard.read().get(&packed) {
            return CtxId(id);
        }
        let mut guard = shard.write();
        match guard.entry(packed) {
            std::collections::hash_map::Entry::Occupied(e) => CtxId(*e.get()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.next.fetch_add(1, Ordering::Relaxed);
                assert!(id != u32::MAX, "context interner exhausted (2^32 contexts)");
                let (c, off) = Self::locate(id);
                // Publish the node before the dedup entry that names it:
                // any thread that learns `id` (via this map or via data it
                // keys) observes the slot.
                self.chunk(c)[off].store(packed, Ordering::Release);
                e.insert(id);
                CtxId(id)
            }
        }
    }

    /// The context below the top of `id` (the context-pop operation).
    /// Popping the empty context yields the empty context.
    #[inline]
    pub fn parent(&self, id: CtxId) -> CtxId {
        if id.is_empty() {
            CtxId::EMPTY
        } else {
            CtxId((self.slot(id) >> 32) as u32)
        }
    }

    /// The topmost call site of `id`, if any.
    #[inline]
    pub fn top(&self, id: CtxId) -> Option<u32> {
        if id.is_empty() {
            None
        } else {
            Some(self.slot(id) as u32)
        }
    }

    /// Stack depth of `id` (walks the parent chain).
    pub fn depth(&self, mut id: CtxId) -> usize {
        let mut d = 0;
        while !id.is_empty() {
            id = self.parent(id);
            d += 1;
        }
        d
    }

    /// Materialises `id` as a call-site stack in bottom-to-top order.
    pub fn stack_of(&self, mut id: CtxId) -> Vec<u32> {
        let mut out = Vec::new();
        while !id.is_empty() {
            let packed = self.slot(id);
            out.push(packed as u32);
            id = CtxId((packed >> 32) as u32);
        }
        out.reverse();
        out
    }

    /// Orders two contexts as their call strings order: exactly
    /// `stack_of(a).cmp(&stack_of(b))` (bottom-to-top lexicographic, a
    /// prefix before its extensions), computed on the trie without
    /// materialising either string. Hash-consing makes this possible: two
    /// ids at the same depth are the same string iff they are the same id,
    /// so the first differing site sits where the lockstep parent walks
    /// meet. The order depends on the strings alone, never on which ids
    /// interning happened to assign. No allocation; two slot loads for
    /// siblings, O(depth) loads otherwise.
    pub fn cmp_stacks(&self, a: CtxId, b: CtxId) -> std::cmp::Ordering {
        cmp_by_slots(a, b, |id| self.slot(id))
    }

    /// Interns a whole bottom-to-top call-site stack.
    pub fn intern_stack(&self, stack: &[u32]) -> CtxId {
        stack
            .iter()
            .fold(CtxId::EMPTY, |ctx, &site| self.intern(ctx, site))
    }

    /// Number of interned contexts, including the empty one.
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed) as usize
    }

    /// Always false — the empty context is always present.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Approximate heap footprint: allocated node-table chunks plus the
    /// dedup map (entries × (key + value + bucket overhead)).
    pub fn approx_bytes(&self) -> usize {
        let table: usize = (0..NUM_CHUNKS)
            .filter(|&c| self.chunks[c].get().is_some())
            .map(|c| (FIRST_CHUNK << c) * std::mem::size_of::<AtomicU64>())
            .sum();
        table + self.len().saturating_sub(1) * (8 + 4 + 16)
    }
}

impl Default for CtxInterner {
    fn default() -> Self {
        Self::new()
    }
}

/// [`CtxInterner::cmp_stacks`] over a source of packed slots.
fn cmp_by_slots(a: CtxId, b: CtxId, mut slot: impl FnMut(CtxId) -> u64) -> std::cmp::Ordering {
    use std::cmp::Ordering::{Equal, Greater, Less};
    if a == b {
        return Equal;
    }
    if a.is_empty() {
        return Less;
    }
    if b.is_empty() {
        return Greater;
    }
    // Siblings — the common case in a result set, whose contexts grow
    // from one query context — differ in their last site only.
    let (sa, sb) = (slot(a), slot(b));
    if sa >> 32 == sb >> 32 {
        return (sa as u32).cmp(&(sb as u32));
    }
    let mut parent = |id: CtxId| CtxId((slot(id) >> 32) as u32);
    let mut depth = |mut id: CtxId| {
        let mut d = 0usize;
        while !id.is_empty() {
            id = parent(id);
            d += 1;
        }
        d
    };
    let (da, db) = (depth(a), depth(b));
    let (mut x, mut y) = (a, b);
    for _ in db..da {
        x = parent(x);
    }
    for _ in da..db {
        y = parent(y);
    }
    if x == y {
        // One string is a prefix of the other: shorter first.
        return da.cmp(&db);
    }
    // Equal depth, distinct ids: the walks meet at the longest common
    // prefix (the empty context at the latest), one site below it.
    loop {
        let (sx, sy) = (slot(x), slot(y));
        if sx >> 32 == sy >> 32 {
            return (sx as u32).cmp(&(sy as u32));
        }
        x = CtxId((sx >> 32) as u32);
        y = CtxId((sy >> 32) as u32);
    }
}

/// A mirror slot not filled yet. No slot holds it: its parent field
/// would be id `u32::MAX`, which the interner never hands out.
const UNKNOWN: u64 = u64::MAX;

/// One lane's private copy of the interner slots it has resolved, so that
/// resolving an id on the solver's hot path — `parent` and `top` where a
/// traversal leaves a callee, [`CtxMirror::cmp_stacks`] where a result set
/// is sorted — is one indexed load instead of a walk to the id's chunk.
///
/// A slot is copied the first time its id is resolved, from the one
/// interner every call of the lane names (a solver's interner is fixed at
/// its construction). Only an id the lane holds is known to be published
/// — the interner stores a slot before any thread can learn its id — so
/// the mirror copies exactly the slots it is asked for, never a range: a
/// slot past them may be reserved by another thread and not yet written.
/// Slots never change once written, so a copy never goes stale.
#[derive(Default)]
pub struct CtxMirror {
    /// Slot `id`'s packed `(parent, site)`, or [`UNKNOWN`].
    slots: Vec<u64>,
}

impl CtxMirror {
    /// The packed `(parent, site)` of a non-empty `id` of `ctxs`.
    #[inline]
    fn slot(&mut self, ctxs: &CtxInterner, id: CtxId) -> u64 {
        match self.slots.get(id.0 as usize) {
            Some(&packed) if packed != UNKNOWN => packed,
            _ => self.fill(ctxs, id),
        }
    }

    #[cold]
    #[inline(never)]
    fn fill(&mut self, ctxs: &CtxInterner, id: CtxId) -> u64 {
        let i = id.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, UNKNOWN);
        }
        self.slots[i] = ctxs.slot(id);
        self.slots[i]
    }

    /// The parent and the top site of a non-empty `id` (the pop and what
    /// it pops), from one slot: [`CtxInterner::parent`] and
    /// [`CtxInterner::top`] at once.
    #[inline]
    pub fn resolve(&mut self, ctxs: &CtxInterner, id: CtxId) -> (CtxId, u32) {
        debug_assert!(!id.is_empty(), "the empty context has no slot");
        let packed = self.slot(ctxs, id);
        (CtxId((packed >> 32) as u32), packed as u32)
    }

    /// [`CtxInterner::cmp_stacks`], reading the lane's copies.
    #[inline]
    pub fn cmp_stacks(&mut self, ctxs: &CtxInterner, a: CtxId, b: CtxId) -> std::cmp::Ordering {
        cmp_by_slots(a, b, |id| self.slot(ctxs, id))
    }
}

impl std::fmt::Debug for CtxInterner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtxInterner")
            .field("contexts", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn empty_context_semantics() {
        let t = CtxInterner::new();
        assert!(CtxId::EMPTY.is_empty());
        assert_eq!(t.top(CtxId::EMPTY), None);
        assert_eq!(
            t.parent(CtxId::EMPTY),
            CtxId::EMPTY,
            "pop of empty is empty"
        );
        assert_eq!(t.depth(CtxId::EMPTY), 0);
        assert!(t.stack_of(CtxId::EMPTY).is_empty());
        assert_eq!(t.len(), 1, "the empty context is always resident");
    }

    #[test]
    fn push_pop_top_roundtrip() {
        let t = CtxInterner::new();
        let c1 = t.intern(CtxId::EMPTY, 3);
        let c2 = t.intern(c1, 7);
        assert_eq!(t.depth(c2), 2);
        assert_eq!(t.top(c2), Some(7));
        assert_eq!(t.parent(c2), c1);
        assert_eq!(t.parent(c1), CtxId::EMPTY);
        assert_eq!(t.stack_of(c2), vec![3, 7]);
        // Hash-consing: the same call string is the same id.
        assert_eq!(t.intern(CtxId::EMPTY, 3), c1);
        assert_eq!(t.intern(c1, 7), c2);
        assert_eq!(t.intern_stack(&[3, 7]), c2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn distinct_strings_distinct_ids() {
        let t = CtxInterner::new();
        let a = t.intern_stack(&[1, 2]);
        let b = t.intern_stack(&[2, 1]);
        let c = t.intern_stack(&[1]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.stack_of(a), vec![1, 2]);
        assert_eq!(t.stack_of(b), vec![2, 1]);
    }

    #[test]
    fn deep_chains_cross_chunk_boundaries() {
        let t = CtxInterner::new();
        // Deeper than FIRST_CHUNK so ids span at least two chunks.
        let n = (FIRST_CHUNK + 500) as u32;
        let mut c = CtxId::EMPTY;
        for i in 0..n {
            c = t.intern(c, i);
        }
        assert_eq!(t.depth(c), n as usize);
        assert_eq!(t.top(c), Some(n - 1));
        let stack = t.stack_of(c);
        assert_eq!(stack.len(), n as usize);
        assert_eq!(stack[0], 0);
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn cmp_stacks_orders_ids_as_their_call_strings() {
        let t = CtxInterner::new();
        // A spine deeper than one chunk, prefixes of it, branches off it
        // (siblings of spine nodes, and their children), short strings
        // that share nothing with it, and the empty context.
        let spine: Vec<u32> = (0..(FIRST_CHUNK + 40) as u32).collect();
        let mut ids = vec![CtxId::EMPTY, t.intern_stack(&spine)];
        for at in [0, 1, 2, 7, FIRST_CHUNK - 1, FIRST_CHUNK, FIRST_CHUNK + 39] {
            let prefix = t.intern_stack(&spine[..at]);
            let branch = t.intern(prefix, 5);
            ids.extend([prefix, branch, t.intern(branch, 0), t.intern(branch, 9)]);
        }
        for s in [&[9u32][..], &[9, 9], &[0, 0], &[0, 2], &[1], &[1, 0, 0]] {
            ids.push(t.intern_stack(s));
        }
        // A lane's mirror answers the same, from its own copies.
        let mut mirror = CtxMirror::default();
        for &a in &ids {
            for &b in &ids {
                let (sa, sb) = (t.stack_of(a), t.stack_of(b));
                assert_eq!(t.cmp_stacks(a, b), sa.cmp(&sb), "{a} vs {b}");
                assert_eq!(mirror.cmp_stacks(&t, a, b), sa.cmp(&sb), "{a} vs {b}");
            }
            if !a.is_empty() {
                assert_eq!(mirror.resolve(&t, a), (t.parent(a), t.top(a).unwrap()));
            }
        }
    }

    /// The mirror copies the slot of each id it is asked about and no
    /// other, so an id interned after its last copy still resolves.
    #[test]
    fn mirror_fills_per_id_and_sees_later_ids() {
        let t = CtxInterner::new();
        let mut mirror = CtxMirror::default();
        let a = t.intern(CtxId::EMPTY, 3);
        assert_eq!(mirror.resolve(&t, a), (CtxId::EMPTY, 3));
        let b = t.intern(a, 9);
        let c = t.intern(b, 0);
        assert_eq!(mirror.resolve(&t, c), (b, 0));
        assert_eq!(mirror.slots[b.0 as usize], UNKNOWN, "only what was asked");
        assert_eq!(mirror.resolve(&t, b), (a, 9));
    }

    #[test]
    fn locate_matches_doubling_layout() {
        assert_eq!(CtxInterner::locate(0), (0, 0));
        assert_eq!(
            CtxInterner::locate((FIRST_CHUNK - 1) as u32,),
            (0, FIRST_CHUNK - 1)
        );
        assert_eq!(CtxInterner::locate(FIRST_CHUNK as u32), (1, 0));
        assert_eq!(
            CtxInterner::locate((3 * FIRST_CHUNK - 1) as u32),
            (1, 2 * FIRST_CHUNK - 1)
        );
        assert_eq!(CtxInterner::locate((3 * FIRST_CHUNK) as u32), (2, 0));
        // The last chunk covers the top of the id space.
        let (c, off) = CtxInterner::locate(u32::MAX);
        assert!(c < NUM_CHUNKS);
        assert!(off < FIRST_CHUNK << c);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        // 8 threads intern overlapping chains; every id returned must
        // resolve to the call string that produced it, and equal strings
        // must have received equal ids.
        let t = Arc::new(CtxInterner::new());
        let handles: Vec<_> = (0..8)
            .map(|seed| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut out = Vec::new();
                    for a in 0..20u32 {
                        for b in 0..20u32 {
                            let stack = vec![a, b, seed % 4];
                            out.push((stack.clone(), t.intern_stack(&stack)));
                        }
                    }
                    out
                })
            })
            .collect();
        let mut by_stack: FxHashMap<Vec<u32>, CtxId> = FxHashMap::default();
        for h in handles {
            for (stack, id) in h.join().unwrap() {
                assert_eq!(t.stack_of(id), stack, "id resolves to its string");
                assert_eq!(*by_stack.entry(stack).or_insert(id), id, "hash-consed");
            }
        }
        // 20·20 two-deep prefixes × 4 suffixes + 20 one-deep + empty.
        assert_eq!(t.len(), 1 + 20 + 400 + 1600);
    }
}
