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
//! kept as a sparse set — rows in first-touch order behind a lazily paged
//! node → row index — so a table costs what traversals touched and not a
//! row per graph node, and resets by truncation. It is the dense
//! replacement for the solver's historical
//! `FxHashMap<NodeId, FxHashSet<CtxId>>` visit sets, and [`StateSet`] is
//! the small trait that keeps the hash implementation ([`HashVisitSet`])
//! selectable for differential testing.

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
        self.insert_first(id).is_some()
    }

    /// [`ChunkedBitset::insert`] that also tells, for an `id` that was not
    /// present, whether it is the first of its chunk the set holds: `None`
    /// if present, `Some(first)` otherwise. What a spill counts its words
    /// by; the whole chunk is only read when `id`'s word was empty.
    #[inline]
    fn insert_first(&mut self, id: u32) -> Option<bool> {
        let chunk_idx = id as usize / CHUNK_BITS;
        if chunk_idx >= self.chunks.len() {
            self.chunks.resize_with(chunk_idx + 1, || None);
        }
        let chunk = self.chunks[chunk_idx].get_or_insert_with(|| Box::new([0u64; CHUNK_WORDS]));
        let bit = id as usize % CHUNK_BITS;
        let (word, mask) = (chunk[bit / 64], 1u64 << (bit % 64));
        if word & mask != 0 {
            return None;
        }
        let first = word == 0 && chunk.iter().all(|&w| w == 0);
        chunk[bit / 64] = word | mask;
        self.len += 1;
        Some(first)
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
        self.clear_below(self.chunks.len());
    }

    /// Empties a set that holds no id of chunk `chunks` or above, zeroing
    /// only the chunks below it.
    fn clear_below(&mut self, chunks: usize) {
        for chunk in self.chunks.iter_mut().take(chunks).flatten() {
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

/// Inline ctx slots per [`Row`] before spilling to a bitset. Solver visit
/// sets are heavily skewed: on the Table I suite the typical node is
/// visited in 1–3 contexts, so four slots cover almost every row.
const INLINE_CTXS: usize = 4;

/// A [`Row`]'s `len` once its contexts have moved to a spill bitset.
const SPILLED: u32 = u32::MAX;

/// One visited node of a [`DenseVisitSet`]: the node itself — what
/// validates a slot that names this row — and, **inline-first**, the first
/// [`INLINE_CTXS`] contexts it was visited in, so the hot membership test
/// is one linear scan in the row's own cache line. A row that outgrows
/// them is `SPILLED`: `inline[0]` is then the table's spill bitset holding
/// its contexts.
#[derive(Clone, Copy)]
struct Row {
    node: u32,
    /// Inline slots in use, or [`SPILLED`].
    len: u32,
    inline: [u32; INLINE_CTXS],
}

/// `u64` words one [`Row`] occupies.
const ROW_WORDS: u64 = (std::mem::size_of::<Row>() / 8) as u64;

/// Slots per [`SlotPage`]: the allocation and accounting unit of a
/// table's node → row index. (Pages of 64 slots measured ≈ 5 % more per
/// traversal step than 256, and a flat index ≈ 4 % less.)
const SLOT_PAGE: usize = 256;

/// [`SLOT_PAGE`] consecutive nodes' row indexes, allocated together the
/// first time any of them is touched. A slot is only a hint: it names a
/// row, and the row says whether it is this node's.
type SlotPage = [u32; SLOT_PAGE];

/// A directory entry of the index: the query generation that last counted
/// the page (0 = none yet) beside it, so that counting a page takes no
/// second line of it.
type PageEntry = (u64, Option<Box<SlotPage>>);

/// `u64` words a page and its directory entry occupy.
const PAGE_WORDS: u64 =
    ((std::mem::size_of::<SlotPage>() + std::mem::size_of::<PageEntry>()) / 8) as u64;

/// The dense visited-state table: a sparse set (Briggs and Torczon) of
/// rows, one per visited node, each holding the interned `CtxId`s the node
/// was visited in.
///
/// Rows sit in a `Vec` in first-touch order. A node's slot in a paged
/// index names its row, and the slot counts only if that row is the
/// node's: so a reset is `rows.clear()`, with no stale row to recognise
/// later, and a first touch is a push. The index's pages are allocated the
/// first time one of their nodes is touched, so a table costs a directory
/// entry per `SLOT_PAGE` (256) nodes up to the highest id it has seen plus the
/// pages traversals landed in, never a slot per graph node. Rows that
/// outgrow their inline slots take a bitset from the table's own pool, and
/// a reset clears and keeps them. The table is meant to be kept: the
/// solver pools tables for the life of a lane, so a warm table serves a
/// traversal without allocating at all.
///
/// [`StateSet::approx_words`] is what a table made for the current query
/// generation alone would hold, counted on the insert path: the index
/// pages the generation touched, whether that allocates them or finds
/// them warm, plus the most rows and the most spill words any one epoch
/// (reset to reset) of the generation held, a row's spill counted as a
/// bitset built for it alone.
pub struct DenseVisitSet {
    pages: Vec<PageEntry>,
    rows: Vec<Row>,
    /// Spill bitsets; the first `spilled` belong to rows of this epoch.
    spills: Vec<Spill>,
    spilled: usize,
    /// Starts at 1: a zeroed page (gen 0) is uncounted.
    gen: u64,
    words: u64,
    /// The most rows an epoch of this generation has held.
    peak_rows: usize,
    /// Spill words this epoch holds, and the most any epoch of this
    /// generation has.
    spill_words: u64,
    peak_spill_words: u64,
}

impl Default for DenseVisitSet {
    fn default() -> Self {
        DenseVisitSet {
            pages: Vec::new(),
            rows: Vec::new(),
            spills: Vec::new(),
            spilled: 0,
            gen: 1,
            words: 0,
            peak_rows: 0,
            spill_words: 0,
            peak_spill_words: 0,
        }
    }
}

/// Inserts `id` into a row's spill bitset, adding to `words` what a bitset
/// made for the row alone would grow by: the directory slots from the
/// `slots` counted so far up to `id`'s chunk, and the chunk if `id` is the
/// first of it the row holds (the bitset was cleared below `slots` before
/// the row took it).
fn spill_insert(spill: &mut Spill, id: u32, words: &mut u64) -> bool {
    let Some(first) = spill.bits.insert_first(id) else {
        return false;
    };
    let grown = (id / CHUNK_BITS as u32 + 1).saturating_sub(spill.slots);
    spill.slots += grown;
    *words += u64::from(grown) + if first { CHUNK_WORDS as u64 } else { 0 };
    true
}

/// A spill bitset of a [`DenseVisitSet`]'s pool, and how many directory
/// slots its current row has counted: the chunks below that are all its
/// row can have set, and all a reset clears.
#[derive(Default)]
struct Spill {
    bits: ChunkedBitset,
    slots: u32,
}

impl DenseVisitSet {
    /// `node`'s row, if it has been touched this epoch.
    #[inline]
    fn row(&self, node: u32) -> Option<&Row> {
        let page = self.pages.get(node as usize / SLOT_PAGE)?.1.as_deref()?;
        let row = self.rows.get(page[node as usize % SLOT_PAGE] as usize)?;
        (row.node == node).then_some(row)
    }

    /// Adds `grown` spill words to this epoch's, and what that takes the
    /// epoch past the generation's most to the count.
    fn count_spill(&mut self, grown: u64) {
        self.spill_words += grown;
        if self.spill_words > self.peak_spill_words {
            self.words += self.spill_words - self.peak_spill_words;
            self.peak_spill_words = self.spill_words;
        }
    }
}

impl StateSet for DenseVisitSet {
    #[inline]
    fn insert(&mut self, node: u32, ctx: CtxId) -> bool {
        let pi = node as usize / SLOT_PAGE;
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, || (0, None));
        }
        let (page_gen, page) = &mut self.pages[pi];
        let page = page.get_or_insert_with(|| Box::new([0; SLOT_PAGE]));
        let slot = &mut page[node as usize % SLOT_PAGE];
        let raw = ctx.raw();
        let row = match self.rows.get_mut(*slot as usize) {
            Some(row) if row.node == node => row,
            _ => {
                *slot = self.rows.len() as u32;
                self.rows.push(Row {
                    node,
                    len: 1,
                    inline: [raw, 0, 0, 0],
                });
                if self.rows.len() > self.peak_rows {
                    self.peak_rows += 1;
                    self.words += ROW_WORDS;
                }
                // A generation starts on an empty table, so a page new to
                // it is always met by a first touch.
                if *page_gen != self.gen {
                    *page_gen = self.gen;
                    self.words += PAGE_WORDS;
                }
                return true;
            }
        };
        let n = row.len as usize;
        if row.len == SPILLED {
            let mut grown = 0;
            if !spill_insert(&mut self.spills[row.inline[0] as usize], raw, &mut grown) {
                return false;
            }
            self.count_spill(grown);
            return true;
        }
        if row.inline[..n].contains(&raw) {
            return false;
        }
        if n < INLINE_CTXS {
            row.inline[n] = raw;
            row.len += 1;
            return true;
        }
        // Overflow: move the inline slots into a spill bitset.
        if self.spilled == self.spills.len() {
            self.spills.push(Spill::default());
        }
        let spill = &mut self.spills[self.spilled];
        let mut grown = 0;
        for v in row.inline {
            spill_insert(spill, v, &mut grown);
        }
        spill_insert(spill, raw, &mut grown);
        row.len = SPILLED;
        row.inline[0] = self.spilled as u32;
        self.spilled += 1;
        self.count_spill(grown);
        true
    }

    #[inline]
    fn contains(&self, node: u32, ctx: CtxId) -> bool {
        let Some(row) = self.row(node) else {
            return false;
        };
        let raw = ctx.raw();
        if row.len == SPILLED {
            self.spills[row.inline[0] as usize].bits.contains(raw)
        } else {
            row.inline[..row.len as usize].contains(&raw)
        }
    }

    fn for_ctxs(&self, node: u32, mut f: impl FnMut(CtxId)) {
        let Some(row) = self.row(node) else {
            return;
        };
        if row.len == SPILLED {
            for raw in self.spills[row.inline[0] as usize].bits.iter() {
                f(CtxId::from_raw(raw));
            }
        } else {
            for &raw in &row.inline[..row.len as usize] {
                f(CtxId::from_raw(raw));
            }
        }
    }

    #[inline]
    fn reset(&mut self) {
        self.rows.clear();
        for spill in &mut self.spills[..self.spilled] {
            spill.bits.clear_below(spill.slots as usize);
            spill.slots = 0;
        }
        self.spilled = 0;
        self.spill_words = 0;
    }

    #[inline]
    fn begin_query(&mut self, gen: u64) {
        if self.gen != gen {
            self.gen = gen;
            self.words = 0;
            self.peak_rows = 0;
            self.peak_spill_words = 0;
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

    /// What the insert-path counter must read after a query generation has
    /// inserted `epochs` (reset between them), computed from the states
    /// alone: the index pages of every node inserted, plus the most rows
    /// and the most spill words of any epoch, a spilled row's bitset built
    /// fresh from its contexts.
    fn modelled_words(epochs: &[Vec<(u32, CtxId)>]) -> u64 {
        use std::collections::{BTreeMap, BTreeSet};
        let pages: BTreeSet<u32> = epochs
            .iter()
            .flatten()
            .map(|&(n, _)| n / SLOT_PAGE as u32)
            .collect();
        let (mut rows, mut spill) = (0, 0);
        for epoch in epochs {
            let mut ctxs: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
            for &(n, c) in epoch {
                ctxs.entry(n).or_default().insert(c.raw());
            }
            let spilled = ctxs.values().filter(|cs| cs.len() > INLINE_CTXS);
            let bitset = |cs: &BTreeSet<u32>| {
                let mut b = ChunkedBitset::new();
                cs.iter().for_each(|&c| _ = b.insert(c));
                b.allocated_words()
            };
            rows = rows.max(ctxs.len() as u64);
            spill = spill.max(spilled.map(bitset).sum());
        }
        pages.len() as u64 * PAGE_WORDS + rows * ROW_WORDS + spill
    }

    /// Hash and dense state sets must answer identically under any
    /// operation sequence — the bit-for-bit equivalence the solver's
    /// backend switch rests on — and each keeps its words counter equal to
    /// what the states it was given say it should hold.
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
            let words = modelled_words(&inserts[..=round]);
            assert_eq!(dense.approx_words(), words, "round {round}");
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
        for (round, epoch) in inserts.iter().enumerate() {
            for &(n, c) in epoch {
                assert_eq!(dense.insert(n, c), fresh.insert(n, c));
            }
            assert_eq!(dense.approx_words(), fresh.approx_words());
            assert_eq!(fresh.approx_words(), modelled_words(&inserts[..=round]));
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
