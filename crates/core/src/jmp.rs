//! The `jmp` shortcut-edge store — the data-sharing scheme of Section III-B,
//! recast as a graph-rewriting overlay on the read-only PAG (paper Fig. 4).
//!
//! Two kinds of entries live under a `(node, context)` key:
//!
//! * **Finished** (Fig. 3a): the complete `rch` result of a
//!   `ReachableNodes(x, c)` call together with its recomputation cost in
//!   steps. A later query takes the shortcut instead of re-traversing.
//! * **Unfinished** (Fig. 3b): `x ⇐jmp(s)= O` — evidence that any query
//!   reaching `(x, c)` with remaining budget below `s` will inevitably run
//!   out; such queries terminate early.
//!
//! Race rules follow the paper (Section IV-A): finished sets are inserted
//! atomically under their key; for unfinished entries the first writer wins
//! (selecting the larger `s` was judged cost-ineffective). A finished entry
//! may upgrade an unfinished one — it is strictly more informative.
//!
//! Every entry carries the *virtual time* of its creation, and a lookup
//! names the instant it is made at: it sees the entries created at or
//! before that instant. Which instant is the reader's business, not the
//! store's — a simulated worker looks up at its own virtual clock, which
//! models the interleaving-dependent visibility of shared data, and a real
//! thread at `u64::MAX`, which sees everything (see DESIGN.md §7).
//!
//! ## Persistence and eviction (DESIGN.md §7)
//!
//! [`SharedJmpStore`] is cheaply cloneable (one `Arc`): an
//! `AnalysisSession` keeps one store alive across query batches so later
//! batches warm-start from earlier batches' entries. Long-lived stores need
//! bounded memory, so a store may carry an entry budget
//! ([`SharedJmpStore::with_max_entries`]). When a publish pushes the store
//! over budget, victims are evicted least-recently-used first, preferring
//! **finished** entries over unfinished ones and, within a recency class,
//! the entries that save the fewest steps: a finished set is large and can
//! always be recomputed, while an unfinished edge is a single number whose
//! early-termination evidence cannot be cheaply rediscovered. Eviction only
//! ever *removes* shared information, so it can change cost, never answers.

use crate::footprint::{DirtySet, Footprint};
use parcfl_concurrent::{CtxId, CtxInterner, FxHashSet, ShardedMap};
use parcfl_pag::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Traversal direction of the `ReachableNodes` call a jmp entry summarises.
///
/// The paper details sharing for the `PointsTo`-side `ReachableNodes` and
/// notes `FlowsTo` "is analogous ... and thus omitted"; we share both, and
/// the direction is part of the key so a node serving as both a load
/// destination (backward) and a store source (forward) cannot collide.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// Backward traversal (`PointsTo`): shortcut over incoming loads.
    Bwd,
    /// Forward traversal (`FlowsTo`): shortcut over outgoing stores.
    Fwd,
}

/// Key of a jmp entry: direction, node and (interned) context of the
/// `ReachableNodes` call. Contexts are [`CtxId`]s from the store's own
/// interner ([`SharedJmpStore::interner`]), so a key is a fixed-size
/// ~12-byte tuple instead of owning a call string.
pub type JmpKey = (Dir, NodeId, CtxId);

/// The recorded reachable set of a finished `ReachableNodes(x, c)` call:
/// `(y, c'')` pairs with interned contexts, shared immutably.
pub type RchSet = Arc<Vec<(NodeId, CtxId)>>;

/// One jmp entry.
#[derive(Clone, Debug)]
pub enum JmpEntry {
    /// Fig. 3(a): the complete result, reusable as a shortcut.
    Finished {
        /// Steps the original computation took (the `s` of `jmp(s)`); a
        /// reader pays this once instead of re-traversing.
        total_steps: u64,
        /// The recorded `rch` set.
        rch: RchSet,
        /// Virtual creation time.
        created_at: u64,
    },
    /// Fig. 3(b): `x ⇐jmp(s)= O` — early-termination evidence.
    Unfinished {
        /// A query with remaining budget `< s` at this key will run out.
        s: u64,
        /// Virtual creation time.
        created_at: u64,
    },
}

impl JmpEntry {
    /// Virtual time the entry was published at.
    pub fn created_at(&self) -> u64 {
        match self {
            JmpEntry::Finished { created_at, .. } | JmpEntry::Unfinished { created_at, .. } => {
                *created_at
            }
        }
    }

    /// Whether this is a finished (complete-result) entry.
    pub fn is_finished(&self) -> bool {
        matches!(self, JmpEntry::Finished { .. })
    }

    /// The steps figure of the entry: recomputation cost for finished,
    /// the early-termination bound `s` for unfinished.
    pub fn steps(&self) -> u64 {
        match self {
            JmpEntry::Finished { total_steps, .. } => *total_steps,
            JmpEntry::Unfinished { s, .. } => *s,
        }
    }
}

/// Aggregate statistics over a jmp store (Table I columns and Fig. 7).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JmpStoreStats {
    /// Number of finished entries (recorded `ReachableNodes` results).
    pub finished_entries: usize,
    /// Number of individual finished jmp edges (sum of `rch` sizes) —
    /// Table I's `#Jumps` counts edges.
    pub finished_edges: usize,
    /// Number of unfinished entries/edges.
    pub unfinished: usize,
    /// Entries evicted over the store's lifetime (0 when unbounded).
    pub evictions: u64,
    /// Successful (visible) lookups served over the store's lifetime.
    pub lookup_hits: u64,
}

impl JmpStoreStats {
    /// Total jmp edges (`#Jumps` in Table I).
    pub fn total_edges(&self) -> usize {
        self.finished_edges + self.unfinished
    }

    /// Entries currently resident.
    pub fn entries(&self) -> usize {
        self.finished_entries + self.unfinished
    }
}

/// A visible entry and the reverse-dependency footprint it was published
/// with (`None` when the publisher recorded none).
pub type JmpLookup = (JmpEntry, Option<Arc<Footprint>>);

/// What crosses the solver↔store boundary: the three calls Algorithm 2
/// makes, and the interner that gives the ids in keys and payloads their
/// meaning. Everything else a store can do — statistics, iteration,
/// eviction, invalidation — belongs to whoever owns the store, and lives
/// on [`SharedJmpStore`] itself.
pub trait JmpStore: Sync {
    /// Looks up the entry under `key` visible at virtual time `now`: one
    /// created at or before it. A reader that is itself recording absorbs
    /// the hit's footprint — or poisons its own when the hit has none.
    fn lookup(&self, key: &JmpKey, now: u64) -> Option<JmpLookup>;

    /// Publishes a finished entry (already filtered by `τF` at the call
    /// site), with the recording traversal's footprint when it kept one
    /// (selective invalidation, DESIGN.md §12). Returns `None` if the
    /// entry was not stored, and otherwise how many resident entries the
    /// store evicted to make room for it — the publisher's own eviction
    /// count, whoever else evicts from the same store meanwhile.
    /// Unfinished entries never carry footprints: their `s` bound
    /// summarises an *aborted* traversal whose full read-set was never
    /// seen, so they are unconditionally invalidated by every delta.
    fn publish_finished(
        &self,
        key: JmpKey,
        total_steps: u64,
        rch: RchSet,
        now: u64,
        fp: Option<Arc<Footprint>>,
    ) -> Option<u32>;

    /// Publishes an unfinished entry (already filtered by `τU`). First
    /// writer wins. Returns as [`Self::publish_finished`] does.
    fn publish_unfinished(&self, key: JmpKey, s: u64, now: u64) -> Option<u32>;

    /// The context interner whose ids this store's keys and payloads use.
    /// Solvers sharing a store must share its interner (ids are only
    /// meaningful within one interner). `None` says the store holds
    /// nothing ([`NoJmpStore`]): a solver built over it decides, once, not
    /// to share at all, and uses a private interner.
    fn ctx_interner(&self) -> Option<Arc<CtxInterner>>;
}

/// A store that never shares anything: `SeqCFL` and the naive parallel
/// strategy. A [`crate::Solver`] built over it never calls it.
#[derive(Debug, Default)]
pub struct NoJmpStore;

impl JmpStore for NoJmpStore {
    fn lookup(&self, _key: &JmpKey, _now: u64) -> Option<JmpLookup> {
        None
    }

    fn publish_finished(
        &self,
        _k: JmpKey,
        _t: u64,
        _r: RchSet,
        _n: u64,
        _fp: Option<Arc<Footprint>>,
    ) -> Option<u32> {
        None
    }

    fn publish_unfinished(&self, _k: JmpKey, _s: u64, _n: u64) -> Option<u32> {
        None
    }

    fn ctx_interner(&self) -> Option<Arc<CtxInterner>> {
        None
    }
}

/// A stored entry plus its access accounting: how often it was served and
/// the (store-local) logical instant it was last useful. Both are atomics
/// so lookups can bump them under the shard's *read* lock.
struct Stored {
    entry: JmpEntry,
    /// Reverse-dependency footprint of the recording traversal, when the
    /// publisher recorded one ([`crate::SolverConfig::record_footprints`]).
    /// Deliberately excluded from [`SharedJmpStore::approx_bytes`]: it is
    /// invalidation metadata, not answer payload, and keeping it out holds
    /// the gated bench memory fields stable whether recording is on or
    /// off.
    fp: Option<Arc<Footprint>>,
    hits: AtomicU64,
    last_use: AtomicU64,
}

/// The state every clone of a [`SharedJmpStore`] shares.
struct StoreInner {
    map: ShardedMap<JmpKey, Stored>,
    /// The interner giving meaning to every [`CtxId`] in keys and
    /// payloads. Shared by every solver using the store;
    /// survives [`SharedJmpStore::clear`] so resident ids stay valid.
    interner: Arc<CtxInterner>,
    /// Logical access clock: ticks on every insert and visible lookup,
    /// giving `last_use` its LRU order.
    access_clock: AtomicU64,
    /// Entry budget; `None` = unbounded.
    max_entries: Option<usize>,
    /// Entries evicted over the store's lifetime.
    evictions: AtomicU64,
    /// Visible lookups served over the store's lifetime.
    lookup_hits: AtomicU64,
}

/// The concurrent shared store (the paper's `ConcurrentHashMap`): one map
/// every query thread reads and writes.
///
/// [`Clone`] is a handle to the *same* entries, accounting and budget, so
/// a session can hand a long-lived store to successive batch runs (and to
/// real-thread workers) without copying. What differs per reader — the
/// instant its lookups are made at, the evictions its publishes cause —
/// is an argument or a return value of the call ([`JmpStore`]), never
/// state of the handle.
#[derive(Clone)]
pub struct SharedJmpStore {
    inner: Arc<StoreInner>,
}

impl SharedJmpStore {
    fn with_budget(max_entries: Option<usize>) -> Self {
        SharedJmpStore {
            inner: Arc::new(StoreInner {
                map: ShardedMap::new(),
                interner: Arc::new(CtxInterner::new()),
                access_clock: AtomicU64::new(0),
                max_entries,
                evictions: AtomicU64::new(0),
                lookup_hits: AtomicU64::new(0),
            }),
        }
    }

    /// An empty, unbounded store.
    pub fn new() -> Self {
        Self::with_budget(None)
    }

    /// Bounds the store to at most `max` entries: any publish that leaves
    /// the store over budget triggers an eviction sweep back down to `max`.
    /// Construction-time builder — it rebuilds the (still empty) inner
    /// state, so apply it immediately after [`Self::new`], before entries
    /// or other handles exist. Budget 0 is clamped to 1.
    pub fn with_max_entries(self, max: usize) -> Self {
        Self::with_budget(Some(max.max(1)))
    }

    /// The store's context interner (shared by every handle).
    pub fn interner(&self) -> &Arc<CtxInterner> {
        &self.inner.interner
    }

    /// The configured entry budget, if any.
    pub fn max_entries(&self) -> Option<usize> {
        self.inner.max_entries
    }

    /// Entries evicted over the store's lifetime.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Visible lookups served over the store's lifetime.
    pub fn lookup_hits(&self) -> u64 {
        self.inner.lookup_hits.load(Ordering::Relaxed)
    }

    /// Removes every entry (accounting totals are kept).
    pub fn clear(&self) {
        self.inner.map.clear();
    }

    /// Visits every entry together with its access accounting
    /// `(hits, last_use)`.
    pub fn for_each_with_meta(&self, mut f: impl FnMut(&JmpKey, &JmpEntry, u64, u64)) {
        self.inner.map.for_each(|k, st| {
            f(
                k,
                &st.entry,
                st.hits.load(Ordering::Relaxed),
                st.last_use.load(Ordering::Relaxed),
            )
        });
    }

    #[inline]
    fn tick(&self) -> u64 {
        self.inner.access_clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn stored(&self, entry: JmpEntry, fp: Option<Arc<Footprint>>) -> Stored {
        Stored {
            entry,
            fp,
            hits: AtomicU64::new(0),
            last_use: AtomicU64::new(self.tick()),
        }
    }

    /// Selective invalidation after an applied delta (DESIGN.md §12):
    /// drops every entry whose footprint is missing or intersects `dirty`,
    /// returning `(invalidated, retained)`. Unfinished entries never carry
    /// footprints, so they always go. Deliberately does **not** count as
    /// eviction — evictions are a memory-pressure signal, invalidation a
    /// correctness one, and conflating them would skew the eviction-policy
    /// stats sessions tune on.
    pub fn invalidate_delta(&self, dirty: &DirtySet) -> (u64, u64) {
        let mut retained = 0u64;
        let removed = self.inner.map.retain(|_, st| {
            let keep =
                st.entry.is_finished() && st.fp.as_ref().is_some_and(|fp| !fp.intersects(dirty));
            retained += keep as u64;
            keep
        });
        (removed as u64, retained)
    }

    /// Evicts down to the budget if over it, returning the number of
    /// entries evicted; a no-op for unbounded stores. Every publish that
    /// stores an entry ends with one. Victim order: finished
    /// entries before unfinished, then least-recently-used, then fewest
    /// steps saved (see the module docs for the policy rationale). The
    /// count is a snapshot — concurrent publishes may transiently leave
    /// the store slightly over budget until the next publish sweeps again.
    pub fn evict_to_budget(&self) -> usize {
        let Some(budget) = self.inner.max_entries else {
            return 0;
        };
        let len = self.inner.map.len();
        if len <= budget {
            return 0;
        }
        let excess = len - budget;
        // (unfinished?, last_use, steps, key): the natural tuple order is
        // exactly the victim priority — finished (false) first, stale
        // first, cheap first.
        let mut candidates: Vec<(bool, u64, u64, JmpKey)> = Vec::with_capacity(len);
        self.inner.map.for_each(|k, st| {
            candidates.push((
                !st.entry.is_finished(),
                st.last_use.load(Ordering::Relaxed),
                st.entry.steps(),
                *k,
            ));
        });
        candidates.sort_unstable_by(|a, b| (a.0, a.1, a.2, &a.3).cmp(&(b.0, b.1, b.2, &b.3)));
        candidates.truncate(excess);
        let victims: FxHashSet<JmpKey> = candidates.into_iter().map(|(_, _, _, k)| k).collect();
        let removed = self.inner.map.retain(|k, _| !victims.contains(k));
        self.inner
            .evictions
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Store-wide statistics.
    pub fn stats(&self) -> JmpStoreStats {
        let mut st = JmpStoreStats {
            evictions: self.evictions(),
            lookup_hits: self.lookup_hits(),
            ..JmpStoreStats::default()
        };
        self.inner.map.for_each(|_, stored| match &stored.entry {
            JmpEntry::Finished { rch, .. } => {
                st.finished_entries += 1;
                st.finished_edges += rch.len();
            }
            JmpEntry::Unfinished { .. } => st.unfinished += 1,
        });
        st
    }

    /// Visits every entry (for Fig. 7 histograms).
    pub fn for_each(&self, mut f: impl FnMut(&JmpKey, &JmpEntry)) {
        self.inner.map.for_each(|k, st| f(k, &st.entry));
    }

    /// Approximate extra memory held by the store, in bytes (Section
    /// IV-D5).
    pub fn approx_bytes(&self) -> usize {
        // Keys are fixed-size; only the finished payload vectors and the
        // (shared, amortised) interner add to the per-entry cost.
        let mut bytes = self.inner.map.approx_bytes() + self.inner.interner.approx_bytes();
        self.inner.map.for_each(|_, st| {
            if let JmpEntry::Finished { rch, .. } = &st.entry {
                bytes += rch.len() * std::mem::size_of::<(NodeId, CtxId)>();
            }
        });
        bytes
    }

    /// Entries currently resident.
    pub fn entry_count(&self) -> usize {
        self.inner.map.len()
    }

    /// Keeps only the entries for which `f` returns `true`; returns the
    /// number removed, which counts as evicted.
    pub fn retain(&self, mut f: impl FnMut(&JmpKey, &JmpEntry) -> bool) -> usize {
        let removed = self.inner.map.retain(|k, st| f(k, &st.entry));
        self.inner
            .evictions
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }
}

impl Default for SharedJmpStore {
    fn default() -> Self {
        Self::new()
    }
}

impl JmpStore for SharedJmpStore {
    fn lookup(&self, key: &JmpKey, now: u64) -> Option<JmpLookup> {
        let hit = self
            .inner
            .map
            .with(key, |st| {
                if st.entry.created_at() > now {
                    return None;
                }
                st.hits.fetch_add(1, Ordering::Relaxed);
                st.last_use.store(self.tick(), Ordering::Relaxed);
                Some((st.entry.clone(), st.fp.clone()))
            })
            .flatten()?;
        self.inner.lookup_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    fn publish_finished(
        &self,
        key: JmpKey,
        total_steps: u64,
        rch: RchSet,
        now: u64,
        fp: Option<Arc<Footprint>>,
    ) -> Option<u32> {
        // First writer wins, regardless of kind: Algorithm 2 tests the
        // unfinished case *before* the finished one, so once an unfinished
        // edge exists at a key its finished branch is unreachable — the
        // paper's store keeps unfinished edges permanently (its Fig. 7
        // counts them in the final state). Replacing them here would
        // silently erase the early-termination evidence.
        let stored = self.stored(
            JmpEntry::Finished {
                total_steps,
                rch,
                created_at: now,
            },
            fp,
        );
        let inserted = self.inner.map.update_with(key, |cur| match cur {
            None => Some(stored),
            Some(_) => None,
        });
        inserted.then(|| self.evict_to_budget() as u32)
    }

    fn publish_unfinished(&self, key: JmpKey, s: u64, now: u64) -> Option<u32> {
        let inserted = self.inner.map.try_insert(
            key,
            self.stored(JmpEntry::Unfinished { s, created_at: now }, None),
        );
        inserted.then(|| self.evict_to_budget() as u32)
    }

    fn ctx_interner(&self) -> Option<Arc<CtxInterner>> {
        Some(Arc::clone(&self.inner.interner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u32) -> JmpKey {
        (Dir::Bwd, NodeId::new(n), CtxId::EMPTY)
    }

    /// A footprint-less finished publish of an empty set.
    fn publish(s: &SharedJmpStore, n: u32, total_steps: u64) -> bool {
        s.publish_finished(key(n), total_steps, Arc::new(vec![]), 0, None)
            .is_some()
    }

    fn entry(s: &SharedJmpStore, n: u32, now: u64) -> Option<JmpEntry> {
        s.lookup(&key(n), now).map(|(e, _)| e)
    }

    #[test]
    fn no_store_is_inert() {
        let s = NoJmpStore;
        assert!(s
            .publish_finished(key(1), 10, Arc::new(vec![]), 0, None)
            .is_none());
        assert!(s.publish_unfinished(key(1), 10, 0).is_none());
        assert!(s.lookup(&key(1), u64::MAX).is_none());
        assert!(s.ctx_interner().is_none());
    }

    #[test]
    fn finished_roundtrip_and_stats() {
        let s = SharedJmpStore::new();
        let rch = Arc::new(vec![(NodeId::new(9), CtxId::EMPTY)]);
        assert_eq!(s.publish_finished(key(1), 250, rch, 0, None), Some(0));
        match entry(&s, 1, 0) {
            Some(JmpEntry::Finished {
                total_steps, rch, ..
            }) => {
                assert_eq!(total_steps, 250);
                assert_eq!(rch.len(), 1);
            }
            other => panic!("expected finished entry, got {other:?}"),
        }
        let st = s.stats();
        assert_eq!(st.finished_entries, 1);
        assert_eq!(st.finished_edges, 1);
        assert_eq!(st.unfinished, 0);
        assert_eq!(st.total_edges(), 1);
        assert_eq!(st.entries(), 1);
        assert_eq!(st.lookup_hits, 1);
        assert_eq!(st.evictions, 0);
        assert!(s.approx_bytes() > 0);
        assert_eq!(s.entry_count(), 1);
    }

    #[test]
    fn unfinished_first_writer_wins() {
        let s = SharedJmpStore::new();
        assert_eq!(s.publish_unfinished(key(2), 100, 0), Some(0));
        assert_eq!(
            s.publish_unfinished(key(2), 999, 0),
            None,
            "first writer wins"
        );
        match entry(&s, 2, 0) {
            Some(JmpEntry::Unfinished { s, .. }) => assert_eq!(s, 100),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn first_writer_wins_across_kinds() {
        // An unfinished edge is permanent: Algorithm 2's unfinished check
        // precedes the finished one, so the finished branch is unreachable
        // at that key and recording a finished set would erase the
        // early-termination evidence.
        let s = SharedJmpStore::new();
        assert!(s.publish_unfinished(key(3), 50, 0).is_some());
        assert!(!publish(&s, 3, 70));
        assert!(matches!(
            entry(&s, 3, 0),
            Some(JmpEntry::Unfinished { s: 50, .. })
        ));
        // A second finished publish after a first finished one is a no-op.
        assert!(publish(&s, 4, 70));
        assert!(!publish(&s, 4, 71));
        match entry(&s, 4, 0) {
            Some(JmpEntry::Finished { total_steps, .. }) => assert_eq!(total_steps, 70),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn timestamp_visibility() {
        let s = SharedJmpStore::new();
        s.publish_unfinished(key(4), 10, 500);
        assert!(s.lookup(&key(4), 499).is_none(), "not yet visible");
        assert!(s.lookup(&key(4), 500).is_some());
        assert!(s.lookup(&key(4), 501).is_some());
        assert!(s.lookup(&key(4), u64::MAX).is_some());
    }

    #[test]
    fn distinct_contexts_are_distinct_keys() {
        let s = SharedJmpStore::new();
        let c1 = s.interner().intern(CtxId::EMPTY, 1);
        s.publish_unfinished((Dir::Bwd, NodeId::new(5), c1), 10, 0);
        assert!(s
            .lookup(&(Dir::Bwd, NodeId::new(5), CtxId::EMPTY), 0)
            .is_none());
        assert!(s.lookup(&(Dir::Fwd, NodeId::new(5), c1), 0).is_none());
        assert!(s.lookup(&(Dir::Bwd, NodeId::new(5), c1), 0).is_some());
        // Hash-consing through the store's interner: re-interning the same
        // call string addresses the same entry.
        assert_eq!(s.interner().intern(CtxId::EMPTY, 1), c1);
        assert!(s.ctx_interner().is_some());
        assert!(NoJmpStore.ctx_interner().is_none());
    }

    #[test]
    fn lookup_accounting_tracks_hits_and_recency() {
        let s = SharedJmpStore::new();
        s.publish_unfinished(key(1), 10, 0);
        s.publish_unfinished(key(2), 10, 0);
        for _ in 0..3 {
            s.lookup(&key(2), 0);
        }
        let mut meta = Vec::new();
        s.for_each_with_meta(|k, _, hits, last_use| meta.push((*k, hits, last_use)));
        meta.sort_by_key(|(k, _, _)| *k);
        assert_eq!(meta[0].1, 0, "key 1 never looked up");
        assert_eq!(meta[1].1, 3, "key 2 hit three times");
        assert!(meta[1].2 > meta[0].2, "key 2 more recently used");
        assert_eq!(s.lookup_hits(), 3);
        // A lookup made before the entry's instant is not a hit and does
        // not touch recency.
        let t = SharedJmpStore::new();
        t.publish_unfinished(key(3), 10, 100);
        assert!(t.lookup(&key(3), 50).is_none());
        assert_eq!(t.lookup_hits(), 0);
    }

    #[test]
    fn eviction_enforces_budget_lru_least_saving_first() {
        let s = SharedJmpStore::new().with_max_entries(3);
        assert_eq!(s.max_entries(), Some(3));
        // Three finished entries with distinct costs.
        for (n, cost) in [(1u32, 500u64), (2, 100), (3, 900)] {
            assert!(publish(&s, n, cost));
        }
        assert_eq!(s.entry_count(), 3);
        assert_eq!(s.evictions(), 0, "at budget, nothing evicted");
        // Touch 1 and 2 so entry 3 is the least recently used... then
        // publish a fourth: 3 must be the victim (stalest; cost is the
        // tie-break within a recency class, not across).
        s.lookup(&key(1), 0);
        s.lookup(&key(2), 0);
        assert!(publish(&s, 4, 50));
        assert_eq!(s.entry_count(), 3, "budget enforced");
        assert_eq!(s.evictions(), 1);
        assert!(s.lookup(&key(3), 0).is_none(), "LRU entry evicted");
        assert!(s.lookup(&key(1), 0).is_some());
        assert!(s.lookup(&key(2), 0).is_some());
        assert!(s.lookup(&key(4), 0).is_some());
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn eviction_prefers_finished_over_unfinished() {
        let s = SharedJmpStore::new().with_max_entries(2);
        // An old unfinished edge, then a newer finished one, then overflow:
        // the finished entry is evicted even though the unfinished one is
        // staler — unfinished evidence is irreplaceable (DESIGN.md §7).
        assert_eq!(s.publish_unfinished(key(1), 10_000, 0), Some(0));
        assert!(publish(&s, 2, 5_000));
        assert_eq!(s.publish_unfinished(key(3), 20_000, 0), Some(1));
        assert_eq!(s.entry_count(), 2);
        assert!(s.lookup(&key(2), 0).is_none(), "finished entry sacrificed");
        assert!(s.lookup(&key(1), 0).is_some());
        assert!(s.lookup(&key(3), 0).is_some());
        // When only unfinished entries remain, the budget still binds.
        assert_eq!(s.publish_unfinished(key(4), 30_000, 0), Some(1));
        assert_eq!(s.entry_count(), 2);
        assert_eq!(s.evictions(), 2);
    }

    #[test]
    fn retain_drops_matching_entries_and_counts_as_eviction() {
        let s = SharedJmpStore::new();
        s.publish_unfinished(key(1), 10, 0);
        publish(&s, 2, 200);
        let removed = s.retain(|_, e| e.is_finished());
        assert_eq!(removed, 1);
        assert_eq!(s.entry_count(), 1);
        assert!(s.lookup(&key(2), 0).is_some());
        assert_eq!(s.evictions(), 1);
    }

    #[test]
    fn unbounded_store_never_evicts() {
        let s = SharedJmpStore::new();
        for n in 0..100u32 {
            s.publish_unfinished(key(n), 10, 0);
        }
        assert_eq!(s.entry_count(), 100);
        assert_eq!(s.evict_to_budget(), 0);
        assert_eq!(s.evictions(), 0);
    }

    #[test]
    fn footprints_round_trip_and_gate_invalidation() {
        use crate::footprint::{reading, DirtySet};
        let s = SharedJmpStore::new();
        let fp = Some(reading(&[42], &[]));
        assert!(s
            .publish_finished(key(1), 100, Arc::new(vec![]), 0, fp)
            .is_some());
        // A footprint-less finished entry and an unfinished one.
        assert!(publish(&s, 2, 100));
        assert!(s.publish_unfinished(key(3), 10_000, 0).is_some());
        let (_, got) = s.lookup(&key(1), 0).unwrap();
        assert!(got.unwrap().touches_node(NodeId::new(42)));
        assert!(s.lookup(&key(2), 0).unwrap().1.is_none());
        // Disjoint dirty set: the footprinted entry survives; the
        // footprint-less and unfinished ones are unconditionally dropped.
        let mut d = DirtySet::default();
        d.insert_node(NodeId::new(9));
        assert_eq!(s.invalidate_delta(&d), (2, 1));
        assert!(s.lookup(&key(1), 0).is_some());
        assert_eq!(s.evictions(), 0, "invalidation is not eviction");
        // Dirtying a footprinted node takes the survivor too.
        let mut d2 = DirtySet::default();
        d2.insert_node(NodeId::new(42));
        assert_eq!(s.invalidate_delta(&d2), (1, 0));
        assert_eq!(s.entry_count(), 0);
    }

    #[test]
    fn default_fp_methods_drop_footprints() {
        // A store that shares nothing has nowhere to keep a footprint.
        let fp = Some(crate::footprint::reading(&[1], &[]));
        let s = NoJmpStore;
        assert!(s
            .publish_finished(key(1), 10, Arc::new(vec![]), 0, fp)
            .is_none());
        assert!(s.lookup(&key(1), 0).is_none());
    }

    /// A publish reports what its own sweep evicted, so two publishers
    /// sharing one bounded store each count their own and the counts
    /// partition the store-wide total.
    #[test]
    fn publishes_report_their_own_evictions() {
        let store = SharedJmpStore::new().with_max_entries(2);
        let (a, b) = (store.clone(), store.clone());
        let publish = |s: &SharedJmpStore, n| s.publish_unfinished(key(n), 10, 0).unwrap();
        // A fills the store and overflows it once; B overflows it twice.
        let by_a: u32 = (0..3).map(|n| publish(&a, n)).sum();
        let by_b: u32 = (10..12).map(|n| publish(&b, n)).sum();
        assert_eq!((by_a, by_b), (1, 2));
        assert_eq!(store.evictions(), 3);
        // A refused publish stores nothing and evicts nothing.
        assert_eq!(a.publish_unfinished(key(11), 10, 0), None);
        assert_eq!(store.evictions(), 3);
    }
}
