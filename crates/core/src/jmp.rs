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
//! Beside them the store keeps [`ExhaustedStarts`]: the same Fig. 3(b)
//! evidence for the one frame the paper's `S` leaves out, a query's own
//! top-level walk — `(dir, x)` with `s = B + 1` once a query on `x` has run
//! out of its budget `B` (DESIGN.md §7).
//!
//! Race rules follow the paper (Section IV-A): finished sets are inserted
//! atomically under their key; for unfinished entries the first writer wins
//! (selecting the larger `s` was judged cost-ineffective). A finished set
//! never replaces an unfinished edge either: Algorithm 2 tests the
//! unfinished case first, so the edge is permanent.
//!
//! Every entry carries the *virtual time* of its creation, and a lookup
//! names the instant it is made at: it sees the entries created at or
//! before that instant. Which instant is the reader's business, not the
//! store's — a simulated worker looks up at its own virtual clock, which
//! models the interleaving-dependent visibility of shared data, and a real
//! thread at `u64::MAX`, which sees everything (see DESIGN.md §7).
//!
//! ## Persistence (DESIGN.md §7)
//!
//! [`SharedJmpStore`] is cheaply cloneable (one `Arc`): an
//! `AnalysisSession` keeps one store alive across query batches so later
//! batches warm-start from earlier batches' entries. Like the paper's map,
//! the store is unbounded: an entry leaves only when a delta invalidates
//! it ([`SharedJmpStore::invalidate_delta`]) or the owner clears the store.

use crate::footprint::{DirtySet, Footprint};
use parcfl_concurrent::{CtxId, CtxInterner, ShardedMap};
use parcfl_pag::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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
    pub(crate) fn is_finished(&self) -> bool {
        matches!(self, JmpEntry::Finished { .. })
    }

    /// The steps figure of the entry: recomputation cost for finished,
    /// the early-termination bound `s` for unfinished.
    pub(crate) fn steps(&self) -> u64 {
        match self {
            JmpEntry::Finished { total_steps, .. } => *total_steps,
            JmpEntry::Unfinished { s, .. } => *s,
        }
    }

    /// The jmp edges the entry records, as Table I's `#Jumps`, Fig. 7 and
    /// `jmp_inserts` count them: one per pair of a finished set (at least
    /// one), and one for an unfinished entry.
    pub(crate) fn edges(&self) -> u64 {
        match self {
            JmpEntry::Finished { rch, .. } => Self::set_edges(rch.len()),
            JmpEntry::Unfinished { .. } => 1,
        }
    }

    /// Edges a finished set of `len` pairs counts as. An empty set is still
    /// one recorded `jmp(s)` fact that a later query takes, so it counts 1.
    pub(crate) fn set_edges(len: usize) -> u64 {
        len.max(1) as u64
    }
}

/// Aggregate statistics over a jmp store (Table I columns and Fig. 7).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JmpStoreStats {
    /// Number of finished entries (recorded `ReachableNodes` results).
    pub(crate) finished_entries: usize,
    /// Number of individual finished jmp edges (the sum of
    /// [`JmpEntry::edges`]) — Table I's `#Jumps` counts edges.
    pub(crate) finished_edges: usize,
    /// Number of unfinished entries/edges.
    pub(crate) unfinished: usize,
}

impl JmpStoreStats {
    /// Total jmp edges (`#Jumps` in Table I).
    pub fn total_edges(&self) -> usize {
        self.finished_edges + self.unfinished
    }
}

/// A visible entry and the reverse-dependency footprint it was published
/// with (`None` when the publisher recorded none).
pub type JmpLookup = (JmpEntry, Option<Arc<Footprint>>);

/// What crosses the solver↔store boundary: the three calls Algorithm 2
/// makes, the interner that gives the ids in keys and payloads their
/// meaning, and the epoch that says when a reader's copies went stale.
/// Everything else a store can do — statistics, iteration, invalidation —
/// belongs to whoever owns the store, and lives on [`SharedJmpStore`]
/// itself.
pub trait JmpStore: Sync {
    /// Looks up the entry under `key` visible at virtual time `now`: one
    /// created at or before it. A reader that is itself recording absorbs
    /// the hit's footprint — or poisons its own when the hit has none.
    fn lookup(&self, key: &JmpKey, now: u64) -> Option<JmpLookup>;

    /// Publishes a finished entry (already filtered by `τF` at the call
    /// site), with the recording traversal's footprint when it kept one
    /// (selective invalidation, DESIGN.md §12). Returns whether the entry
    /// was stored: first writer wins, of either kind.
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
    ) -> bool;

    /// Publishes an unfinished entry (already filtered by `τU`). First
    /// writer wins. Returns as [`Self::publish_finished`] does.
    fn publish_unfinished(&self, key: JmpKey, s: u64, now: u64) -> bool;

    /// The context interner whose ids this store's keys and payloads use.
    /// Solvers sharing a store must share its interner (ids are only
    /// meaningful within one interner). `None` says the store holds
    /// nothing ([`NoJmpStore`]): a solver built over it decides, once, not
    /// to share at all, and uses a private interner.
    fn ctx_interner(&self) -> Option<Arc<CtxInterner>>;

    /// A count that moves whenever an entry leaves the store. Between two
    /// equal readings every entry a lookup returned is still stored,
    /// unchanged, so a copy of it answers that key as the store would.
    fn epoch(&self) -> u64;

    /// The starts of queries that ran out of budget, which a solver reads
    /// and records into directly: its reads are one load per pop, too
    /// many to make through this boundary. `None` when the store keeps
    /// none ([`NoJmpStore`]).
    fn exhausted_starts(&self) -> Option<&ExhaustedStarts>;
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
    ) -> bool {
        false
    }

    fn publish_unfinished(&self, _k: JmpKey, _s: u64, _n: u64) -> bool {
        false
    }

    fn ctx_interner(&self) -> Option<Arc<CtxInterner>> {
        None
    }

    fn epoch(&self) -> u64 {
        0
    }

    fn exhausted_starts(&self) -> Option<&ExhaustedStarts> {
        None
    }
}

/// `ExhaustedStarts`' bit table: one bit per `(dir, node)`, so exact for
/// every node id below `1 << 17`; larger ids share bits, which the map
/// behind them tells apart.
const START_BITS: usize = 1 << 18;

/// Evidence that a whole walk is out of budget (DESIGN.md §7): `(dir, x)`
/// with bound `s` says a query on `x` in direction `dir` ran out of a
/// budget of `s - 1`. A walk in `dir` that pops `(x, ∅)` pops every state
/// that query's walk popped, at the same charge, so a query under a
/// budget below `s` that gets there runs out too.
///
/// Recorded at most once per out-of-budget query, read at every pop at
/// the empty context: the read is one load from a bit table, and only a
/// set bit goes on to the map that holds each start's bound and virtual
/// creation time. First writer wins. Like unfinished entries, the
/// evidence summarises a traversal whose read set was never completed,
/// so every delta drops all of it.
pub struct ExhaustedStarts {
    /// [`START_BITS`] bits, allocated by the first record: a set bit says
    /// the map may hold its `(dir, node)`.
    bits: OnceLock<Box<[AtomicU64]>>,
    /// `(s, created_at)` per start.
    map: ShardedMap<(Dir, NodeId), (u64, u64)>,
    /// Whether the map holds a start: set by every record, cleared with
    /// the map.
    held: AtomicBool,
}

impl ExhaustedStarts {
    fn new() -> Self {
        ExhaustedStarts {
            bits: OnceLock::new(),
            map: ShardedMap::with_shards(8),
            held: AtomicBool::new(false),
        }
    }

    /// The bit of `(dir, x)`: its word and its mask.
    #[inline]
    fn bit(dir: Dir, x: NodeId) -> (usize, u64) {
        let i = ((x.raw() as usize) << 1 | dir as usize) & (START_BITS - 1);
        (i / 64, 1 << (i % 64))
    }

    /// Whether a start may be recorded for `(dir, x)`: its bit is set. The
    /// one load a solver makes per pop at the empty context.
    #[inline]
    pub(crate) fn may_hold(&self, dir: Dir, x: NodeId) -> bool {
        let (word, mask) = Self::bit(dir, x);
        self.bits
            .get()
            .is_some_and(|bits| bits[word].load(Ordering::Acquire) & mask != 0)
    }

    /// The bound `s` and creation time recorded for a walk in `dir` from
    /// `x`, whatever its time.
    pub fn get(&self, dir: Dir, x: NodeId) -> Option<(u64, u64)> {
        if self.may_hold(dir, x) {
            self.map.get_cloned(&(dir, x))
        } else {
            None
        }
    }

    /// Records that a query on `x` in direction `dir` ran out of a budget
    /// of `s - 1`, at virtual time `now`. Returns whether it was stored:
    /// first writer wins.
    pub(crate) fn record(&self, dir: Dir, x: NodeId, s: u64, now: u64) -> bool {
        if !self.map.try_insert((dir, x), (s, now)) {
            return false;
        }
        let bits = self
            .bits
            .get_or_init(|| (0..START_BITS / 64).map(|_| AtomicU64::new(0)).collect());
        let (word, mask) = Self::bit(dir, x);
        bits[word].fetch_or(mask, Ordering::Release);
        self.held.store(true, Ordering::Relaxed);
        true
    }

    /// Starts recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is recorded: one load, which a query makes once to
    /// choose how its walk pops (DESIGN.md §7).
    #[inline]
    pub fn is_empty(&self) -> bool {
        !self.held.load(Ordering::Relaxed)
    }

    /// Drops every start.
    fn clear(&self) {
        self.held.store(false, Ordering::Relaxed);
        self.map.clear();
        for word in self.bits.get().into_iter().flatten() {
            word.store(0, Ordering::Relaxed);
        }
    }

    fn approx_bytes(&self) -> usize {
        self.map.approx_bytes() + self.bits.get().map_or(0, |b| b.len() * 8)
    }
}

/// A stored entry plus the footprint it was published with.
struct Stored {
    entry: JmpEntry,
    /// Reverse-dependency footprint of the recording traversal, when the
    /// publisher recorded one ([`crate::SolverConfig::record_footprints`]).
    /// Deliberately excluded from [`SharedJmpStore::approx_bytes`]: it is
    /// invalidation metadata, not answer payload, and keeping it out holds
    /// the gated bench memory fields stable whether recording is on or
    /// off.
    fp: Option<Arc<Footprint>>,
}

/// The state every clone of a [`SharedJmpStore`] shares.
struct StoreInner {
    map: ShardedMap<JmpKey, Stored>,
    /// The interner giving meaning to every [`CtxId`] in keys and
    /// payloads. Shared by every solver using the store;
    /// survives [`SharedJmpStore::clear`] so resident ids stay valid.
    interner: Arc<CtxInterner>,
    /// Bumped by every removal ([`JmpStore::epoch`]); written only between
    /// batches, so readers' loads of it share the line.
    epoch: AtomicU64,
    /// Out-of-budget query starts; solvers read them without a copy, so
    /// their removal does not move `epoch`.
    starts: ExhaustedStarts,
}

/// The concurrent shared store (the paper's `ConcurrentHashMap`): one map
/// every query thread reads and writes.
///
/// [`Clone`] is a handle to the *same* entries and accounting, so a
/// session can hand a long-lived store to successive batch runs (and to
/// real-thread workers) without copying. What differs per reader — the
/// instant its lookups are made at — is an argument of the call
/// ([`JmpStore`]), never state of the handle.
#[derive(Clone)]
pub struct SharedJmpStore {
    inner: Arc<StoreInner>,
}

impl SharedJmpStore {
    /// An empty store.
    pub fn new() -> Self {
        SharedJmpStore {
            inner: Arc::new(StoreInner {
                map: ShardedMap::new(),
                interner: Arc::new(CtxInterner::new()),
                epoch: AtomicU64::new(0),
                starts: ExhaustedStarts::new(),
            }),
        }
    }

    /// The store's context interner (shared by every handle).
    pub fn interner(&self) -> &Arc<CtxInterner> {
        &self.inner.interner
    }

    /// Removes every entry and every exhausted start.
    pub fn clear(&self) {
        self.inner.map.clear();
        self.inner.starts.clear();
        self.inner.epoch.fetch_add(1, Ordering::Release);
    }

    /// Selective invalidation after an applied delta (DESIGN.md §12):
    /// drops every entry whose footprint is missing or intersects `dirty`,
    /// returning `(invalidated, retained)`. Unfinished entries never carry
    /// footprints, so they always go, and so does every exhausted start
    /// (not counted in the pair).
    pub fn invalidate_delta(&self, dirty: &DirtySet) -> (u64, u64) {
        self.inner.starts.clear();
        let mut retained = 0u64;
        let removed = self.inner.map.retain(|_, st| {
            let keep =
                st.entry.is_finished() && st.fp.as_ref().is_some_and(|fp| !fp.intersects(dirty));
            retained += keep as u64;
            keep
        });
        if removed > 0 {
            self.inner.epoch.fetch_add(1, Ordering::Release);
        }
        (removed as u64, retained)
    }

    /// Store-wide statistics.
    pub fn stats(&self) -> JmpStoreStats {
        let mut st = JmpStoreStats::default();
        self.inner.map.for_each(|_, stored| {
            if stored.entry.is_finished() {
                st.finished_entries += 1;
                st.finished_edges += stored.entry.edges() as usize;
            } else {
                st.unfinished += 1;
            }
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
        let mut bytes = self.inner.map.approx_bytes()
            + self.inner.interner.approx_bytes()
            + self.inner.starts.approx_bytes();
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
}

impl Default for SharedJmpStore {
    fn default() -> Self {
        Self::new()
    }
}

impl JmpStore for SharedJmpStore {
    fn lookup(&self, key: &JmpKey, now: u64) -> Option<JmpLookup> {
        self.inner
            .map
            .with(key, |st| {
                (st.entry.created_at() <= now).then(|| (st.entry.clone(), st.fp.clone()))
            })
            .flatten()
    }

    fn publish_finished(
        &self,
        key: JmpKey,
        total_steps: u64,
        rch: RchSet,
        now: u64,
        fp: Option<Arc<Footprint>>,
    ) -> bool {
        // First writer wins, regardless of kind: Algorithm 2 tests the
        // unfinished case *before* the finished one, so once an unfinished
        // edge exists at a key its finished branch is unreachable — the
        // paper's store keeps unfinished edges permanently (its Fig. 7
        // counts them in the final state). Replacing them here would
        // silently erase the early-termination evidence.
        let entry = JmpEntry::Finished {
            total_steps,
            rch,
            created_at: now,
        };
        self.inner.map.try_insert(key, Stored { entry, fp })
    }

    fn publish_unfinished(&self, key: JmpKey, s: u64, now: u64) -> bool {
        let entry = JmpEntry::Unfinished { s, created_at: now };
        self.inner.map.try_insert(key, Stored { entry, fp: None })
    }

    fn ctx_interner(&self) -> Option<Arc<CtxInterner>> {
        Some(Arc::clone(&self.inner.interner))
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    fn exhausted_starts(&self) -> Option<&ExhaustedStarts> {
        Some(&self.inner.starts)
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
    }

    fn entry(s: &SharedJmpStore, n: u32, now: u64) -> Option<JmpEntry> {
        s.lookup(&key(n), now).map(|(e, _)| e)
    }

    #[test]
    fn no_store_is_inert() {
        let s = NoJmpStore;
        assert!(!s.publish_finished(key(1), 10, Arc::new(vec![]), 0, None));
        assert!(!s.publish_unfinished(key(1), 10, 0));
        assert!(s.lookup(&key(1), u64::MAX).is_none());
        assert!(s.ctx_interner().is_none());
        assert_eq!(s.epoch(), 0);
        assert!(s.exhausted_starts().is_none());
    }

    #[test]
    fn exhausted_starts_first_writer_wins_and_every_delta_drops_them() {
        use crate::footprint::DirtySet;
        let s = SharedJmpStore::new();
        let starts = s.exhausted_starts().unwrap();
        let (x, far) = (NodeId::new(5), NodeId::new(5 + (1 << 17)));
        assert_eq!(starts.get(Dir::Bwd, x), None);
        assert_eq!(s.approx_bytes(), 0, "nothing allocated before a record");
        assert!(starts.record(Dir::Bwd, x, 41, 7));
        assert!(!starts.record(Dir::Bwd, x, 99, 8), "first writer wins");
        assert_eq!(starts.get(Dir::Bwd, x), Some((41, 7)));
        // The other direction, and an id sharing `x`'s bit, are not `x`.
        assert_eq!(starts.get(Dir::Fwd, x), None);
        assert_eq!(starts.get(Dir::Bwd, far), None);
        assert!(starts.record(Dir::Bwd, far, 11, 0));
        assert_eq!(starts.get(Dir::Bwd, far), Some((11, 0)));
        assert_eq!(starts.get(Dir::Bwd, x), Some((41, 7)));
        assert_eq!(starts.len(), 2);
        assert!(s.approx_bytes() > 0);
        // Not jmp entries: no key, no count, no epoch.
        assert_eq!((s.entry_count(), s.stats().total_edges()), (0, 0));
        assert_eq!(s.invalidate_delta(&DirtySet::default()), (0, 0));
        assert!(starts.is_empty());
        assert_eq!(starts.get(Dir::Bwd, x), None);
        assert!(starts.record(Dir::Bwd, x, 41, 7));
        s.clear();
        assert!(starts.is_empty());
    }

    #[test]
    fn finished_roundtrip_and_stats() {
        let s = SharedJmpStore::new();
        let rch = Arc::new(vec![(NodeId::new(9), CtxId::EMPTY)]);
        assert!(s.publish_finished(key(1), 250, rch, 0, None));
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
        assert!(s.approx_bytes() > 0);
        assert_eq!(s.entry_count(), 1);
    }

    #[test]
    fn unfinished_first_writer_wins() {
        let s = SharedJmpStore::new();
        assert!(s.publish_unfinished(key(2), 100, 0));
        assert!(!s.publish_unfinished(key(2), 999, 0), "first writer wins");
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
        assert!(s.publish_unfinished(key(3), 50, 0));
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

    /// A query counts the visible entries its lookups found, whether the
    /// shared map or the lane's copy served them. A miss, and an entry
    /// stamped after the lookup's instant, are not hits — also once the
    /// lane holds a copy of it.
    #[test]
    fn lookup_accounting_counts_visible_hits() {
        let src = "class Obj { } class Box { field f: Obj; }
            class A { method m() {
              var p: Box; var v: Obj; var x: Obj; var y: Obj;
              p = new Box; v = new Obj; p.f = v; x = p.f; y = x;
            } }";
        let pag = parcfl_frontend::build_pag(src).unwrap().pag;
        let var = |name: &str| pag.node_by_name(name).unwrap();
        let cfg = crate::SolverConfig::default().without_tau_thresholds();
        let s = SharedJmpStore::new();
        let hits = |solver: &mut crate::Solver, q: &str, at: u64| {
            solver.points_to_query(var(q), at).stats.lookup_hits
        };
        // `x`'s one `ReachableNodes` misses and publishes at the query's
        // virtual now, past 100.
        let mut lane = crate::Solver::new(&pag, &cfg, &s).in_batch(0, true);
        assert_eq!(hits(&mut lane, "x@A.m", 100), 0);
        assert_eq!(s.entry_count(), 1);
        // `y` reaches `x`: the first hit reads the map, the repeats the copy.
        for _ in 0..3 {
            assert_eq!(hits(&mut lane, "y@A.m", 1_000), 1);
        }
        // Before the stamp neither the copy nor a fresh lane sees it.
        assert_eq!(hits(&mut lane, "y@A.m", 0), 0);
        let mut fresh = crate::Solver::new(&pag, &cfg, &s).in_batch(0, true);
        assert_eq!(hits(&mut fresh, "y@A.m", 0), 0);
    }

    /// Table I's `#Jumps`, Fig. 7's histogram and the solver's
    /// `jmp_inserts` agree on what an entry counts as, including an empty
    /// finished set.
    #[test]
    fn empty_finished_set_counts_as_one_edge_everywhere() {
        let s = SharedJmpStore::new();
        assert!(publish(&s, 1, 100));
        assert!(s.publish_unfinished(key(2), 10_000, 0));
        let h = crate::JmpHistogram::of(&s);
        let total = s.stats().total_edges() as u64;
        assert_eq!(total, h.finished_total() + h.unfinished_total());
        assert_eq!(total, 2);
    }

    #[test]
    fn footprints_round_trip_and_gate_invalidation() {
        use crate::footprint::{dirtying, reading};
        let s = SharedJmpStore::new();
        let fp = Some(reading(&[42], &[]));
        assert!(s.publish_finished(key(1), 100, Arc::new(vec![]), 0, fp));
        // A footprint-less finished entry and an unfinished one.
        assert!(publish(&s, 2, 100));
        assert!(s.publish_unfinished(key(3), 10_000, 0));
        let (_, got) = s.lookup(&key(1), 0).unwrap();
        assert!(got.unwrap().intersects(&dirtying(&[42], &[])));
        assert!(s.lookup(&key(2), 0).unwrap().1.is_none());
        // Disjoint dirty set: the footprinted entry survives; the
        // footprint-less and unfinished ones are unconditionally dropped.
        let d = dirtying(&[9], &[]);
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.invalidate_delta(&d), (2, 1));
        assert!(s.lookup(&key(1), 0).is_some());
        // Every removal moves the epoch; an invalidation that keeps
        // everything does not.
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.invalidate_delta(&d), (0, 1));
        assert_eq!(s.epoch(), 1);
        // Dirtying a footprinted node takes the survivor too.
        let d2 = dirtying(&[42], &[]);
        assert_eq!(s.invalidate_delta(&d2), (1, 0));
        assert_eq!(s.entry_count(), 0);
        assert_eq!(s.epoch(), 2);
        s.clear();
        assert_eq!(s.epoch(), 3);
    }

    #[test]
    fn default_fp_methods_drop_footprints() {
        // A store that shares nothing has nowhere to keep a footprint.
        let fp = Some(crate::footprint::reading(&[1], &[]));
        let s = NoJmpStore;
        assert!(!s.publish_finished(key(1), 10, Arc::new(vec![]), 0, fp));
        assert!(s.lookup(&key(1), 0).is_none());
    }
}
