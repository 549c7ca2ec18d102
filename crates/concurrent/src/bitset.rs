//! Chunked bitsets over dense id spaces, and the solver's visited-state
//! tables built from them (DESIGN.md §11).
//!
//! [`CtxInterner`](crate::interner::CtxInterner) hands out *dense* 32-bit
//! context ids, which makes a bitset the natural set representation for
//! "which contexts has this node been visited in". Context ids grow
//! monotonically over a run but any single traversal touches a small,
//! clustered subset, so the bitset is **chunked**: a `Vec` of
//! lazily-allocated fixed-size `u64`-word blocks. Untouched regions of the
//! id space cost one `Option` pointer per chunk; touched regions pay one
//! cache line per 512 ids.
//!
//! [`DenseVisitSet`] layers inline-first rows on top (a few ctx ids stored
//! directly in the row, spilling to a chunked bitset only on overflow),
//! indexed by node id and held in lazily allocated fixed-size pages, so a
//! table costs what traversals touched and not a row per graph node — the
//! dense replacement for the solver's historical
//! `FxHashMap<NodeId, FxHashSet<CtxId>>` visit sets — and [`StateSet`]
//! is the small trait that keeps the hash implementation
//! ([`HashVisitSet`]) selectable for differential testing.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::interner::CtxId;

/// `u64` words per chunk: 8 words = 512 bits = one cache line.
pub const CHUNK_WORDS: usize = 8;
/// Ids covered by one chunk.
pub const CHUNK_BITS: usize = CHUNK_WORDS * 64;

/// One storage chunk: eight `u64` words = 512 bits = one cache line, and
/// exactly one AVX-512 register (two NEON pair ops) for the kernels below.
pub type Chunk = [u64; CHUNK_WORDS];

/// Chunk kernels: straight-line u64×8 block ops with no data-dependent
/// branches or early exits, so LLVM autovectorises each loop into a single
/// full-width vector operation per chunk.
pub mod kernel {
    use super::{Chunk, CHUNK_WORDS};

    /// `dst |= src`; returns how many bits the union newly set.
    #[inline]
    pub fn union_into(dst: &mut Chunk, src: &Chunk) -> u32 {
        let mut added = 0u32;
        for w in 0..CHUNK_WORDS {
            added += (src[w] & !dst[w]).count_ones();
            dst[w] |= src[w];
        }
        added
    }

    /// Population count of the whole chunk.
    #[inline]
    pub fn count_ones(c: &Chunk) -> u32 {
        c.iter().map(|w| w.count_ones()).sum()
    }

    /// `dst = 0` (the retained-capacity clear).
    #[inline]
    pub fn zero(dst: &mut Chunk) {
        dst.fill(0);
    }
}

/// A lazily-allocated bitset over a dense `u32` id space.
///
/// Storage is a vector of optional fixed-size chunks; a chunk is allocated
/// the first time any id inside it is inserted. Cleared sets keep their
/// chunk allocations ([`ChunkedBitset::clear`]), so reuse across
/// traversals costs a `memset` of the touched chunks, not an allocation.
#[derive(Default, Debug, Clone)]
pub struct ChunkedBitset {
    chunks: Vec<Option<Box<[u64; CHUNK_WORDS]>>>,
    len: usize,
}

impl ChunkedBitset {
    /// Creates an empty set.
    pub fn new() -> Self {
        ChunkedBitset::default()
    }

    /// Number of ids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `id`; returns `true` iff it was not already present.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let chunk_idx = id as usize / CHUNK_BITS;
        if chunk_idx >= self.chunks.len() {
            self.chunks.resize_with(chunk_idx + 1, || None);
        }
        let chunk = self.chunks[chunk_idx].get_or_insert_with(|| Box::new([0u64; CHUNK_WORDS]));
        let bit = id as usize % CHUNK_BITS;
        let word = &mut chunk[bit / 64];
        let mask = 1u64 << (bit % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let chunk_idx = id as usize / CHUNK_BITS;
        match self.chunks.get(chunk_idx) {
            Some(Some(chunk)) => {
                let bit = id as usize % CHUNK_BITS;
                chunk[bit / 64] & (1u64 << (bit % 64)) != 0
            }
            _ => false,
        }
    }

    /// Empties the set, **retaining** chunk allocations for reuse.
    pub fn clear(&mut self) {
        for chunk in self.chunks.iter_mut().flatten() {
            kernel::zero(chunk);
        }
        self.len = 0;
    }

    /// Unions `other` into `self` — one [`kernel::union_into`] per
    /// allocated source chunk.
    pub fn union_with(&mut self, other: &ChunkedBitset) {
        if other.chunks.len() > self.chunks.len() {
            self.chunks.resize_with(other.chunks.len(), || None);
        }
        for (i, oc) in other.chunks.iter().enumerate() {
            let Some(oc) = oc else { continue };
            let sc = self.chunks[i].get_or_insert_with(|| Box::new([0u64; CHUNK_WORDS]));
            self.len += kernel::union_into(sc, oc) as usize;
        }
    }

    /// Recounts the members chunk-by-chunk with [`kernel::count_ones`].
    /// Always equals [`ChunkedBitset::len`]; exists so the kernels (and
    /// the incremental `len` bookkeeping) can be cross-checked.
    pub fn count_ones(&self) -> usize {
        self.chunks
            .iter()
            .flatten()
            .map(|c| kernel::count_ones(c) as usize)
            .sum()
    }

    /// Number of chunk slots (allocated or not) — the iteration bound for
    /// [`ChunkedBitset::chunk`].
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The `ci`-th chunk, or `None` if that slot was never touched. Chunk
    /// `ci` covers ids `ci * CHUNK_BITS ..`.
    #[inline]
    pub fn chunk(&self, ci: usize) -> Option<&Chunk> {
        self.chunks.get(ci).and_then(|c| c.as_deref())
    }

    /// Iterates the set ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.chunks.iter().enumerate().flat_map(|(ci, chunk)| {
            let base = (ci * CHUNK_BITS) as u32;
            chunk
                .as_deref()
                .map(|words| SetBits::new(words, base))
                .into_iter()
                .flatten()
        })
    }

    /// `u64` words currently allocated: the chunks plus one pointer-sized
    /// directory slot per chunk position, allocated or not (the honest
    /// memory figure dense state reporting uses; `len()` counts logical
    /// members instead).
    pub fn allocated_words(&self) -> u64 {
        (self.chunks.iter().flatten().count() * CHUNK_WORDS + self.chunks.len()) as u64
    }
}

/// Iterator over the set bits of one chunk's words.
struct SetBits<'a> {
    words: &'a [u64; CHUNK_WORDS],
    word_idx: usize,
    current: u64,
    base: u32,
}

impl<'a> SetBits<'a> {
    fn new(words: &'a [u64; CHUNK_WORDS], base: u32) -> Self {
        SetBits {
            words,
            word_idx: 0,
            current: words[0],
            base,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some(self.base + self.word_idx as u32 * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= CHUNK_WORDS {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// A visited-state table keyed `(node, ctx)`: the contract the solver's
/// traversal loops need from their `visited` / `pts_seen` / `alias` sets.
///
/// Implementations must make [`StateSet::insert`] *pure membership*, in
/// both directions. Out: no iteration order is ever observed through this
/// trait except [`StateSet::for_ctxs`], whose callers are required to be
/// order-insensitive (the solver canonically sorts what it collects from
/// it). In: what a table holds, what [`StateSet::for_ctxs`] visits as a
/// set, and [`StateSet::approx_words`] depend on *which* states were
/// inserted since the last reset, never on the order they arrived in —
/// the solver unions `FlowsTo` results into its `alias` table in
/// traversal order, not a canonical one. (Inline slots spill at a count,
/// a spill bitset grows to its highest chunk, a hash set's capacity
/// follows its length.) Together that is what keeps hash- and
/// dense-backed runs bit-identical.
///
/// A table outlives the query that first needed it (the solver keeps a
/// pool per lane), so memory accounting is per *query generation*:
/// [`StateSet::begin_query`] names the query a table is about to serve and
/// [`StateSet::approx_words`] reads a counter the insert path keeps — the
/// words the table has touched for that query, the same number whatever
/// it served before.
pub trait StateSet: Default {
    /// Records `(node, ctx)`; returns `true` iff the state was new.
    fn insert(&mut self, node: u32, ctx: CtxId) -> bool;
    /// Whether `(node, ctx)` has been recorded.
    fn contains(&self, node: u32, ctx: CtxId) -> bool;
    /// Calls `f` for every ctx recorded against `node` (any order).
    fn for_ctxs(&self, node: u32, f: impl FnMut(CtxId));
    /// Empties the table, retaining allocations where possible.
    fn reset(&mut self);
    /// Tells an empty table which query it serves next. A generation it
    /// has not seen restarts [`StateSet::approx_words`] from zero; the
    /// generation it already carries changes nothing.
    fn begin_query(&mut self, gen: u64);
    /// `u64` words of memory the table has touched for the current query
    /// generation, read in O(1). Dense sets count the pages and spill
    /// bitsets inserts landed in; hash sets a two-words-per-slot estimate
    /// (key + bucket overhead).
    fn approx_words(&self) -> u64;
}

/// The historical hash-of-hashes visit set (`node → {ctx}`), kept as the
/// differential-testing reference for [`DenseVisitSet`]. It keeps the
/// historical lifetime too: nothing survives into the next query
/// generation, so its cost and its accounting are those of a table built
/// for one query and dropped after it.
#[derive(Default)]
pub struct HashVisitSet {
    map: FxHashMap<u32, FxHashSet<CtxId>>,
    gen: u64,
    words: u64,
}

impl StateSet for HashVisitSet {
    #[inline]
    fn insert(&mut self, node: u32, ctx: CtxId) -> bool {
        let nodes = self.map.len();
        let set = self.map.entry(node).or_default();
        let cap = set.capacity();
        let fresh = set.insert(ctx);
        // Two words per slot of the node's set plus two for its map entry,
        // counted as they appear (`reset` keeps both).
        let grown = set.capacity() - cap + self.map.len() - nodes;
        self.words += 2 * grown as u64;
        fresh
    }

    #[inline]
    fn contains(&self, node: u32, ctx: CtxId) -> bool {
        self.map.get(&node).is_some_and(|s| s.contains(&ctx))
    }

    fn for_ctxs(&self, node: u32, mut f: impl FnMut(CtxId)) {
        if let Some(s) = self.map.get(&node) {
            for &c in s {
                f(c);
            }
        }
    }

    fn reset(&mut self) {
        // Clear in place, keeping node entries and set capacity for the
        // query's next traversal.
        for s in self.map.values_mut() {
            s.clear();
        }
    }

    fn begin_query(&mut self, gen: u64) {
        if self.gen != gen {
            *self = HashVisitSet {
                gen,
                ..HashVisitSet::default()
            };
        }
    }

    fn approx_words(&self) -> u64 {
        self.words
    }
}

/// Inline ctx slots per [`DenseRow`] before spilling to a bitset. Solver
/// visit sets are heavily skewed: on the Table I suite the typical node is
/// visited in 1–3 contexts, so four slots cover almost every row.
const INLINE_CTXS: usize = 4;

/// One row of a [`DenseVisitSet`]. The epoch stamp makes `reset` O(1) —
/// a row whose stamp is stale is logically empty and is re-initialised
/// (inline slots emptied) on its first touch of the new epoch.
///
/// The row is **inline-first**: the first [`INLINE_CTXS`] contexts live in
/// the row itself, so the hot membership test is one linear scan in the
/// same cache line as the epoch — no second pointer chase and no hashing.
/// Only rows that overflow pay for a [`Spill`].
#[derive(Default)]
struct DenseRow {
    epoch: u64,
    /// Inline slots in use; meaningless once `spilled`.
    len: u8,
    spilled: bool,
    inline: [u32; INLINE_CTXS],
    spill: Option<Box<Spill>>,
}

/// The overflow bitset of a [`DenseRow`]. It is recycled across the epochs
/// of one query generation (a hot row allocates once per query) and
/// rebuilt empty by the first overflow of a later one, so every word it
/// holds was allocated for — and counted against — the current query.
#[derive(Default)]
struct Spill {
    gen: u64,
    bits: ChunkedBitset,
}

impl Spill {
    /// Inserts `id`, first adding to `words` what the insert is about to
    /// grow [`ChunkedBitset::allocated_words`] by: the directory slots up
    /// to `id`'s chunk, and the chunk if it is new.
    fn insert(&mut self, id: u32, words: &mut u64) -> bool {
        let ci = id as usize / CHUNK_BITS;
        let slots = (ci + 1).saturating_sub(self.bits.chunk_count());
        let chunk = if self.bits.chunk(ci).is_none() {
            CHUNK_WORDS
        } else {
            0
        };
        *words += (slots + chunk) as u64;
        self.bits.insert(id)
    }
}

/// Rows per [`Page`]: the allocation, zero-fill and accounting unit of a
/// [`DenseVisitSet`]. Times are flat from 16 to 256 rows; touched words
/// double with each doubling while the directory a table zero-fills to
/// reach a high node id halves — at 32 it is 27 KB over a 108 k-node
/// graph (`results/pr17_pairs.txt` has the sweep).
const PAGE_ROWS: usize = 32;

/// `u64` words one [`Page`] occupies.
const PAGE_WORDS: u64 = (std::mem::size_of::<Page>() / 8) as u64;

/// [`PAGE_ROWS`] consecutive rows, allocated together the first time any
/// of them is touched.
struct Page {
    /// The query generation that last counted this page (0 = none yet).
    gen: u64,
    rows: [DenseRow; PAGE_ROWS],
}

impl Default for Page {
    fn default() -> Self {
        Page {
            gen: 0,
            rows: std::array::from_fn(|_| DenseRow::default()),
        }
    }
}

/// The dense visited-state table: inline-first `DenseRow`s indexed by
/// node id, each holding the interned `CtxId`s the node was visited in.
///
/// Rows live in fixed-size `Page`s behind a directory of one pointer per
/// page, and a page is allocated the first time one of its rows is
/// touched — a table costs the directory up to the highest node id it has
/// seen plus the pages traversals actually landed in, never a row per
/// graph node. The whole table resets in O(1) via an epoch bump and is
/// meant to be kept: the solver pools tables for the life of a lane, so a
/// warm table serves a traversal without allocating at all.
///
/// [`StateSet::approx_words`] is the words of the pages (and spill
/// bitsets) touched since [`StateSet::begin_query`] last named a new query
/// generation. A page is counted the first time the generation touches
/// it, whether that allocates it or finds it warm, so the figure is what
/// a table created for this query alone would hold.
pub struct DenseVisitSet {
    pages: Vec<Option<Box<Page>>>,
    /// Starts at 1: a zeroed row (epoch 0) is stale.
    epoch: u64,
    /// Starts at 1: a zeroed page or spill (gen 0) is uncounted.
    gen: u64,
    words: u64,
}

impl Default for DenseVisitSet {
    fn default() -> Self {
        DenseVisitSet {
            pages: Vec::new(),
            epoch: 1,
            gen: 1,
            words: 0,
        }
    }
}

impl DenseVisitSet {
    /// `node`'s row, if it has been touched this epoch.
    #[inline]
    fn row(&self, node: u32) -> Option<&DenseRow> {
        let page = self.pages.get(node as usize / PAGE_ROWS)?.as_deref()?;
        let row = &page.rows[node as usize % PAGE_ROWS];
        (row.epoch == self.epoch).then_some(row)
    }
}

impl StateSet for DenseVisitSet {
    #[inline]
    fn insert(&mut self, node: u32, ctx: CtxId) -> bool {
        let pi = node as usize / PAGE_ROWS;
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, || None);
        }
        let page = &mut **self.pages[pi].get_or_insert_with(Box::default);
        let row = &mut page.rows[node as usize % PAGE_ROWS];
        if row.epoch != self.epoch {
            row.epoch = self.epoch;
            row.len = 0;
            row.spilled = false;
            // Every epoch of a query is younger than any row an earlier
            // query left behind, so a page new to the query is always met
            // here first.
            if page.gen != self.gen {
                page.gen = self.gen;
                self.words += PAGE_WORDS;
            }
        }
        let raw = ctx.raw();
        if row.spilled {
            return row
                .spill
                .as_mut()
                .expect("spilled row has bits")
                .insert(raw, &mut self.words);
        }
        let n = row.len as usize;
        if row.inline[..n].contains(&raw) {
            return false;
        }
        if n < INLINE_CTXS {
            row.inline[n] = raw;
            row.len = n as u8 + 1;
            return true;
        }
        // Overflow: move the inline slots into the spill bitset.
        let spill = row.spill.get_or_insert_with(Box::default);
        if spill.gen == self.gen {
            spill.bits.clear();
        } else {
            **spill = Spill {
                gen: self.gen,
                bits: ChunkedBitset::new(),
            };
        }
        for &v in &row.inline {
            spill.insert(v, &mut self.words);
        }
        row.spilled = true;
        spill.insert(raw, &mut self.words)
    }

    #[inline]
    fn contains(&self, node: u32, ctx: CtxId) -> bool {
        let Some(row) = self.row(node) else {
            return false;
        };
        let raw = ctx.raw();
        if row.spilled {
            row.spill.as_ref().is_some_and(|s| s.bits.contains(raw))
        } else {
            row.inline[..row.len as usize].contains(&raw)
        }
    }

    fn for_ctxs(&self, node: u32, mut f: impl FnMut(CtxId)) {
        let Some(row) = self.row(node) else {
            return;
        };
        if row.spilled {
            if let Some(spill) = row.spill.as_deref() {
                for raw in spill.bits.iter() {
                    f(CtxId::from_raw(raw));
                }
            }
        } else {
            for &raw in &row.inline[..row.len as usize] {
                f(CtxId::from_raw(raw));
            }
        }
    }

    #[inline]
    fn reset(&mut self) {
        self.epoch += 1;
    }

    #[inline]
    fn begin_query(&mut self, gen: u64) {
        if self.gen != gen {
            self.gen = gen;
            self.words = 0;
        }
    }

    #[inline]
    fn approx_words(&self) -> u64 {
        self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_insert_contains_len() {
        let mut b = ChunkedBitset::new();
        assert!(b.is_empty());
        assert!(b.insert(3));
        assert!(!b.insert(3));
        assert!(b.insert(0));
        assert!(b.insert(511));
        assert!(b.insert(512)); // second chunk
        assert!(b.insert(100_000)); // far chunk
        assert_eq!(b.len(), 5);
        assert!(b.contains(3));
        assert!(b.contains(512));
        assert!(!b.contains(4));
        assert!(!b.contains(99_999));
    }

    #[test]
    fn bitset_iter_is_sorted_and_complete() {
        let ids = [7u32, 0, 513, 64, 65, 8191, 100_000];
        let mut b = ChunkedBitset::new();
        for &i in &ids {
            b.insert(i);
        }
        let got: Vec<u32> = b.iter().collect();
        let mut want = ids.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn bitset_clear_retains_chunks() {
        let mut b = ChunkedBitset::new();
        b.insert(1000);
        let words = b.allocated_words();
        b.clear();
        assert!(b.is_empty());
        assert!(!b.contains(1000));
        assert_eq!(b.allocated_words(), words, "clear keeps allocations");
        assert!(b.insert(1000));
    }

    #[test]
    fn bitset_union() {
        let mut a = ChunkedBitset::new();
        let mut b = ChunkedBitset::new();
        for i in [1u32, 5, 600] {
            a.insert(i);
        }
        for i in [5u32, 6, 2000] {
            b.insert(i);
        }
        a.union_with(&b);
        let got: Vec<u32> = a.iter().collect();
        assert_eq!(got, vec![1, 5, 6, 600, 2000]);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn chunk_kernels_match_scalar_semantics() {
        let mut a: Chunk = [0; CHUNK_WORDS];
        let mut b: Chunk = [0; CHUNK_WORDS];
        assert_eq!(kernel::count_ones(&a), 0);
        a[0] = 0b1011;
        a[7] = 1 << 63;
        b[0] = 0b0110;
        b[3] = 0xFF;
        assert_eq!(kernel::count_ones(&a), 4);
        // union adds exactly the bits of b missing from a
        let mut u = a;
        assert_eq!(kernel::union_into(&mut u, &b), 9);
        assert_eq!(kernel::count_ones(&u), 13);
        assert_eq!(u[0], 0b1111);
        kernel::zero(&mut u);
        assert_eq!(u, [0; CHUNK_WORDS]);
    }

    #[test]
    fn chunk_accessors_follow_allocation() {
        let mut a = ChunkedBitset::new();
        for i in [3u32, 511, 512, 1999] {
            a.insert(i);
        }
        assert_eq!(a.chunk_count(), 4);
        assert_eq!(kernel::count_ones(a.chunk(0).unwrap()), 2);
        assert!(a.chunk(2).is_none(), "untouched slot stays unallocated");
        assert!(a.chunk(4).is_none(), "past the directory");
        a.clear();
        assert_eq!(a.chunk(0), Some(&[0; CHUNK_WORDS]), "cleared, still held");
    }

    /// Deterministic model test: a cheap LCG drives interleaved
    /// insert/contains/clear/union against a `BTreeSet` model.
    #[test]
    fn bitset_matches_btreeset_model() {
        use std::collections::BTreeSet;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut b = ChunkedBitset::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        let mut other = ChunkedBitset::new();
        let mut other_model: BTreeSet<u32> = BTreeSet::new();
        for step in 0..20_000 {
            let id = rng() % 5000;
            match rng() % 10 {
                0..=5 => {
                    assert_eq!(b.insert(id), model.insert(id), "insert {id}");
                }
                6 | 7 => {
                    assert_eq!(b.contains(id), model.contains(&id), "contains {id}");
                }
                8 => {
                    other.insert(id);
                    other_model.insert(id);
                }
                _ => {
                    if step % 1000 == 999 {
                        b.clear();
                        model.clear();
                    } else {
                        b.union_with(&other);
                        model.extend(other_model.iter().copied());
                    }
                }
            }
            assert_eq!(b.len(), model.len(), "len after step {step}");
            assert_eq!(b.count_ones(), model.len(), "recount after step {step}");
        }
        let got: Vec<u32> = b.iter().collect();
        let want: Vec<u32> = model.into_iter().collect();
        assert_eq!(got, want);
    }

    /// A row that overflows its inline slots spills to a bitset; after a
    /// reset the recycled spill must not resurrect contexts from the
    /// previous epoch.
    #[test]
    fn dense_row_spills_and_recycles_across_epochs() {
        let mut d = DenseVisitSet::default();
        for c in 0..10u32 {
            assert!(d.insert(7, CtxId::from_raw(c)));
            assert!(!d.insert(7, CtxId::from_raw(c)));
        }
        assert!(d.contains(7, CtxId::from_raw(9)));
        let spilled_words = d.approx_words();
        d.reset();
        assert!(!d.contains(7, CtxId::from_raw(3)));
        // The fresh epoch goes inline again; the spill allocation is kept
        // for the query generation's next overflow.
        assert!(d.insert(7, CtxId::from_raw(3)));
        assert!(d.contains(7, CtxId::from_raw(3)));
        assert_eq!(d.approx_words(), spilled_words, "nothing new touched");
        // Overflowing again must not leak last epoch's contexts.
        for c in 100..105u32 {
            assert!(d.insert(7, CtxId::from_raw(c)));
        }
        assert!(!d.contains(7, CtxId::from_raw(9)));
        assert!(d.contains(7, CtxId::from_raw(104)));
        let mut seen: Vec<u32> = Vec::new();
        d.for_ctxs(7, |c| seen.push(c.raw()));
        seen.sort_unstable();
        assert_eq!(seen, vec![3, 100, 101, 102, 103, 104]);
    }

    /// Every page and spill bitset `d` holds, by walking them: what the
    /// insert-path counter must equal on a table that has served a single
    /// query generation.
    fn held_words(d: &DenseVisitSet) -> u64 {
        let spills = |p: &Page| -> u64 {
            p.rows
                .iter()
                .filter_map(|r| r.spill.as_deref())
                .map(|s| s.bits.allocated_words())
                .sum()
        };
        d.pages
            .iter()
            .flatten()
            .map(|p| PAGE_WORDS + spills(p))
            .sum()
    }

    /// Hash and dense state sets must answer identically under any
    /// operation sequence — the bit-for-bit equivalence the solver's
    /// backend switch rests on — and each keeps its words counter equal to
    /// what a walk of the table finds.
    #[test]
    fn dense_and_hash_state_sets_agree() {
        let mut seed = 42u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut dense = DenseVisitSet::default();
        let mut hash = HashVisitSet::default();
        let mut inserts: Vec<Vec<(u32, CtxId)>> = Vec::new();
        for round in 0..4 {
            inserts.push(Vec::new());
            for _ in 0..5000 {
                let n = rng() % 300;
                let c = CtxId::from_raw(rng() % 2000);
                match rng() % 4 {
                    0..=2 => {
                        assert_eq!(dense.insert(n, c), hash.insert(n, c));
                        inserts[round].push((n, c));
                    }
                    _ => assert_eq!(dense.contains(n, c), hash.contains(n, c)),
                }
            }
            for n in 0..300 {
                // `for_ctxs` promises no order (inline rows emit insertion
                // order, spilled rows ascending, hash rows hash order), so
                // compare as sorted sets.
                let mut d: Vec<u32> = Vec::new();
                dense.for_ctxs(n, |c| d.push(c.raw()));
                let mut h: Vec<u32> = Vec::new();
                hash.for_ctxs(n, |c| h.push(c.raw()));
                d.sort_unstable();
                h.sort_unstable();
                assert_eq!(d, h, "ctxs of node {n} in round {round}");
            }
            assert_eq!(dense.approx_words(), held_words(&dense), "round {round}");
            let slots: u64 = hash.map.values().map(|s| 2 * s.capacity() as u64 + 2).sum();
            assert_eq!(hash.approx_words(), slots, "round {round}");
            dense.reset();
            hash.reset();
            assert!(!dense.contains(0, CtxId::EMPTY));
        }
        // A later generation on the warm table is charged what a table
        // made for it would hold, round by round.
        let mut fresh = DenseVisitSet::default();
        dense.begin_query(2);
        assert_eq!(dense.approx_words(), 0);
        for round in &inserts {
            for &(n, c) in round {
                assert_eq!(dense.insert(n, c), fresh.insert(n, c));
            }
            assert_eq!(dense.approx_words(), fresh.approx_words());
            assert_eq!(fresh.approx_words(), held_words(&fresh));
            dense.reset();
            fresh.reset();
        }
        // The hash reference keeps nothing across generations.
        hash.begin_query(2);
        assert_eq!(hash.approx_words(), 0);
        assert!(hash.map.is_empty());
    }

    /// The directory is one pointer-sized slot per chunk position.
    #[test]
    fn allocated_words_count_the_directory_slot_for_slot() {
        let mut b = ChunkedBitset::new();
        assert_eq!(b.allocated_words(), 0);
        b.insert(3);
        assert_eq!(b.allocated_words(), (CHUNK_WORDS + 1) as u64);
        // A far id grows the directory to reach it and allocates one chunk.
        b.insert(100 * CHUNK_BITS as u32);
        assert_eq!(b.allocated_words(), (2 * CHUNK_WORDS + 101) as u64);
    }
}
