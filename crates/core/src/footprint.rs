//! Reverse-dependency footprints for selective invalidation (DESIGN.md
//! §12).
//!
//! A [`Footprint`] is the read set of a recorded traversal: the PAG nodes
//! whose adjacency it consulted, plus the fields whose load/store
//! populations it consulted. Two things carry one: a *finished* jmp entry
//! (what the `ReachableNodes` frame that computed it read) and a complete
//! answer ([`crate::QueryOutput::footprint`]: everything its query read).
//! When a [`parcfl_pag::PagDelta`] lands, the effective edge changes
//! define a [`DirtySet`]; whatever a footprint guards stays warm iff the
//! footprint is present and disjoint from the dirty set — a graph edit
//! that never touched anything the traversal read cannot change its
//! result. Missing footprints (recording disabled, or a traversal that
//! absorbed an un-footprinted dependency) are always invalidated:
//! over-invalidation is sound, under-invalidation is not.
//!
//! The invalidation law, stated once: **an entry survives a delta iff it
//! has a footprint and that footprint intersects neither the dirty node
//! set nor the dirty field set.** Dirty nodes are *both* endpoints of every
//! effective added/removed edge, so a traversal only needs to record the
//! nodes whose `incoming`/`outgoing` slices it read — any edge change
//! incident to them is caught from either side. Dirty fields are the
//! fields of effective `ld(f)`/`st(f)` changes, covering the
//! `loads_of`/`stores_of` index consultations that are not attributable to
//! a traversed node. Contexts are deliberately ignored: a footprint
//! over-approximates across contexts, which only ever invalidates more.

use parcfl_concurrent::bitset::{Chunk, CHUNK_BITS, CHUNK_WORDS};
use parcfl_pag::{DeltaEffect, FieldId, NodeId};
use std::sync::Arc;

/// One 512-id chunk of a footprint's set: which chunk, and its words.
#[derive(Clone, Debug)]
struct Block {
    chunk: u32,
    words: Chunk,
}

/// The node/field read-set of one recorded traversal. Immutable once
/// built and shared via `Arc`: by the jmp entry or kept answer it guards,
/// and by every footprint-in-progress that absorbed it. It is metadata
/// about a result, never part of one.
///
/// Stored sparse, in one allocation: the chunks it touches, the nodes'
/// and then the fields', each in ascending order. Its size grows with
/// the chunks a traversal read, not with the highest id it read.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    blocks: Box<[Block]>,
    /// Where the field blocks begin.
    fields_at: usize,
}

/// Whether `blocks` hold any of `ids` (sorted ascending): one walk over
/// both, so a handful of ids costs the blocks it passes.
fn blocks_meet(blocks: &[Block], ids: &[u32]) -> bool {
    let mut blocks = blocks.iter().peekable();
    ids.iter().any(|&id| {
        let chunk = id / CHUNK_BITS as u32;
        while blocks.next_if(|b| b.chunk < chunk).is_some() {}
        let bit = id as usize % CHUNK_BITS;
        let has = |b: &&Block| b.chunk == chunk && b.words[bit / 64] >> (bit % 64) & 1 != 0;
        blocks.peek().is_some_and(has)
    })
}

impl Footprint {
    fn nodes(&self) -> &[Block] {
        &self.blocks[..self.fields_at]
    }

    fn fields(&self) -> &[Block] {
        &self.blocks[self.fields_at..]
    }

    /// Whether this footprint overlaps `dirty` (in nodes or fields) —
    /// i.e. whether what it guards must be invalidated.
    pub fn intersects(&self, dirty: &DirtySet) -> bool {
        blocks_meet(self.nodes(), &dirty.nodes) || blocks_meet(self.fields(), &dirty.fields)
    }

    /// Nodes recorded (distinct count).
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        let words = self.nodes().iter().flat_map(|b| b.words);
        words.map(|w| w.count_ones() as usize).sum()
    }

    /// The `u64` words the stored sets hold.
    #[cfg(test)]
    fn words(&self) -> usize {
        self.blocks.len() * CHUNK_WORDS
    }
}

/// A dense bitset a lane folds footprints into, all zero between folds:
/// a bit per id up to the highest id it has held, and a bit per chunk
/// that holds one now, so a fold's emptying and emitting cost the chunks
/// it touched.
#[derive(Debug, Default)]
struct Dense {
    words: Vec<u64>,
    /// One bit per chunk of `words` that is not all zero.
    touched: Vec<u64>,
}

impl Dense {
    /// Grows the table to hold chunk `ci` and marks that chunk touched.
    #[inline]
    fn touch(&mut self, ci: usize) {
        if ci / 64 >= self.touched.len() {
            self.touched.resize(ci / 64 + 1, 0);
            self.words.resize(self.touched.len() * 64 * CHUNK_WORDS, 0);
        }
        self.touched[ci / 64] |= 1u64 << (ci % 64);
    }

    #[inline]
    fn insert(&mut self, id: u32) {
        let id = id as usize;
        self.touch(id / CHUNK_BITS);
        self.words[id / 64] |= 1u64 << (id % 64);
    }

    fn union_block(&mut self, b: &Block) {
        let ci = b.chunk as usize;
        self.touch(ci);
        let dst = &mut self.words[ci * CHUNK_WORDS..][..CHUNK_WORDS];
        for (d, s) in dst.iter_mut().zip(&b.words) {
            *d |= s;
        }
    }

    /// Chunks that hold an id.
    fn chunks(&self) -> usize {
        self.touched.iter().map(|t| t.count_ones() as usize).sum()
    }

    /// Moves the chunks that hold an id onto `out`, in ascending order,
    /// and leaves the table zero.
    fn drain_into(&mut self, out: &mut Vec<Block>) {
        for (i, t) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(t);
            while bits != 0 {
                let ci = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let src = &mut self.words[ci * CHUNK_WORDS..][..CHUNK_WORDS];
                let mut words = [0; CHUNK_WORDS];
                words.copy_from_slice(src);
                src.fill(0);
                out.push(Block {
                    chunk: ci as u32,
                    words,
                });
            }
        }
    }
}

/// One lane's append-only read log: what the traversals of the query in
/// flight have consulted, in the order they consulted it.
///
/// A node or field read is a `Vec::push`. A `ReachableNodes` frame is a
/// [`Mark`] its caller holds — the three log lengths and the poison count
/// at its opening — and owns the suffix of the log from there: frames
/// nest in stack order, so everything a frame's children read lies inside
/// the frame's own suffix, and a child needs folding into its parent by
/// nobody. A frame becomes a [`Footprint`] only when somebody will keep it
/// ([`ReadLog::close`] with `keep`, [`ReadLog::finish`]): its suffix is
/// folded into a dense table the log reuses, emitted from there in one
/// allocation, and then collapses into that one absorbed `Arc`, so each
/// read is folded once however many enclosing frames are kept later.
///
/// An absorbed footprint is held by an `Arc` the caller owns alone (the
/// solver absorbs a jmp hit's through the lane's own copy of the entry),
/// so absorbing writes no cache line another lane reads.
///
/// Absorbing a dependency that has no footprint (a jmp hit on an entry
/// published without one) **poisons** every open frame and the query: the
/// read-set is unknown, nothing kept from it may claim one, and whatever
/// it guards is invalidated by every delta — the only sound option.
/// Frames opened afterwards are clean.
///
/// A log that is not recording ([`ReadLog::begin`] with `false`, what
/// every one-shot run does) turns each call into one predictable branch.
#[derive(Debug, Default)]
pub(crate) struct ReadLog {
    recording: bool,
    nodes: Vec<NodeId>,
    fields: Vec<FieldId>,
    /// Footprints folded in whole: jmp hits' and collapsed frames'.
    absorbed: Vec<Arc<Footprint>>,
    /// Footprint-less dependencies absorbed so far in this query.
    poison: u32,
    /// Where a fold unions a suffix's nodes and fields: zero between folds.
    fold_nodes: Dense,
    fold_fields: Dense,
}

/// Where a frame's suffix of the log begins.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Mark {
    nodes: usize,
    fields: usize,
    absorbed: usize,
    poison: u32,
}

impl ReadLog {
    /// Opens a query: empties the log (keeping its allocations) and says
    /// whether this query records.
    pub(crate) fn begin(&mut self, recording: bool) {
        self.recording = recording;
        self.nodes.clear();
        self.fields.clear();
        self.absorbed.clear();
        self.poison = 0;
    }

    /// Records that `n`'s adjacency (incoming/outgoing slices) was
    /// consulted.
    #[inline]
    pub(crate) fn node(&mut self, n: NodeId) {
        if self.recording {
            self.nodes.push(n);
        }
    }

    /// Records that field `f`'s `loads_of`/`stores_of` index was consulted.
    #[inline]
    pub(crate) fn field(&mut self, f: FieldId) {
        if self.recording {
            self.fields.push(f);
        }
    }

    /// Folds a dependency's reads in whole, keeping a clone of `dep` (whose
    /// count a lane should be the only writer of); `None` (its read-set is
    /// unknown) poisons every open frame and the query.
    pub(crate) fn absorb(&mut self, dep: Option<&Arc<Footprint>>) {
        if self.recording {
            match dep {
                Some(fp) => self.absorbed.push(Arc::clone(fp)),
                None => self.poison += 1,
            }
        }
    }

    /// Opens a frame at the current end of the log: the mark to close it by.
    pub(crate) fn open(&self) -> Mark {
        Mark {
            nodes: self.nodes.len(),
            fields: self.fields.len(),
            absorbed: self.absorbed.len(),
            poison: self.poison,
        }
    }

    /// Closes the innermost open frame, the one `mark` opened. With `keep`
    /// (its result is being published) returns the frame's footprint —
    /// `None` when poisoned — and collapses its suffix; otherwise the
    /// suffix simply stays part of the enclosing frame's.
    pub(crate) fn close(&mut self, mark: Mark, keep: bool) -> Option<Arc<Footprint>> {
        (self.recording && keep).then(|| self.fold(mark)).flatten()
    }

    /// Closes a completed query: the footprint of everything it read,
    /// `None` when poisoned or not recording.
    pub(crate) fn finish(&mut self) -> Option<Arc<Footprint>> {
        self.recording.then(|| self.fold(Mark::default())).flatten()
    }

    /// Turns the suffix from `mark` into one footprint and leaves that in
    /// the suffix's place.
    fn fold(&mut self, mark: Mark) -> Option<Arc<Footprint>> {
        if self.poison > mark.poison {
            return None;
        }

        for n in self.nodes.drain(mark.nodes..) {
            self.fold_nodes.insert(n.raw());
        }
        for f in self.fields.drain(mark.fields..) {
            self.fold_fields.insert(f.raw());
        }
        for dep in self.absorbed.drain(mark.absorbed..) {
            for b in dep.nodes() {
                self.fold_nodes.union_block(b);
            }
            for b in dep.fields() {
                self.fold_fields.union_block(b);
            }
        }
        let mut blocks = Vec::with_capacity(self.fold_nodes.chunks() + self.fold_fields.chunks());
        self.fold_nodes.drain_into(&mut blocks);
        let fields_at = blocks.len();
        self.fold_fields.drain_into(&mut blocks);
        let fp = Arc::new(Footprint {
            blocks: blocks.into_boxed_slice(),
            fields_at,
        });
        self.absorbed.push(Arc::clone(&fp));
        Some(fp)
    }
}

/// The dirty node/field sets of one applied delta: the handful of ids an
/// edit's edges name, each set sorted and duplicate-free.
#[derive(Clone, Debug, Default)]
pub struct DirtySet {
    nodes: Vec<u32>,
    fields: Vec<u32>,
}

/// `ids`, sorted and duplicate-free.
fn sorted(ids: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut ids: Vec<u32> = ids.collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

impl DirtySet {
    /// Builds the dirty set of an applied delta's *effective* changes:
    /// both endpoints of every added/removed edge, plus the fields of
    /// changed load/store edges.
    pub fn from_effect(effect: &DeltaEffect) -> Self {
        DirtySet {
            nodes: sorted(effect.dirty_nodes().map(NodeId::raw)),
            fields: sorted(effect.dirty_fields().map(FieldId::raw)),
        }
    }
}

/// The footprint of a traversal that read exactly `nodes` and `fields`.
#[cfg(test)]
pub(crate) fn reading(nodes: &[u32], fields: &[u32]) -> Arc<Footprint> {
    let mut log = ReadLog::default();
    log.begin(true);
    nodes.iter().for_each(|&n| log.node(NodeId::new(n)));
    fields.iter().for_each(|&f| log.field(FieldId::new(f)));
    log.finish().expect("nothing poisons a plain read")
}

/// The dirty set of exactly `nodes` and `fields`.
#[cfg(test)]
pub(crate) fn dirtying(nodes: &[u32], fields: &[u32]) -> DirtySet {
    DirtySet {
        nodes: sorted(nodes.iter().copied()),
        fields: sorted(fields.iter().copied()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn fp(nodes: &[u32], fields: &[u32]) -> Arc<Footprint> {
        reading(nodes, fields)
    }

    #[test]
    fn disjoint_footprint_survives_overlapping_does_not() {
        let f = fp(&[1, 2, 700], &[3]);
        let clean = dirtying(&[5], &[9]);
        assert!(!f.intersects(&clean), "disjoint in both dimensions");
        let node_hit = dirtying(&[5, 700], &[9]);
        assert!(f.intersects(&node_hit), "node overlap in a later chunk");
        let field_hit = dirtying(&[5], &[3, 9]);
        assert!(f.intersects(&field_hit), "field overlap alone suffices");
    }

    #[test]
    fn empty_dirty_set_never_invalidates() {
        let f = fp(&[0, 1, 2], &[0]);
        assert!(!f.intersects(&DirtySet::default()));
    }

    /// The reference the log is held to: a frame's footprint is the set
    /// union of what was read and absorbed while it was open.
    #[derive(Clone, Default, PartialEq, Eq, Debug)]
    struct Model {
        nodes: BTreeSet<u32>,
        fields: BTreeSet<u32>,
    }

    fn ids(blocks: &[Block]) -> BTreeSet<u32> {
        let ids = |b: &Block| {
            let (base, words) = (b.chunk * CHUNK_BITS as u32, b.words);
            (0..CHUNK_BITS as u32)
                .filter(move |&i| words[i as usize / 64] >> (i % 64) & 1 != 0)
                .map(move |i| base + i)
        };
        blocks.iter().flat_map(ids).collect()
    }

    impl Model {
        fn of(fp: &Footprint) -> Model {
            Model {
                nodes: ids(fp.nodes()),
                fields: ids(fp.fields()),
            }
        }
    }

    /// A scripted query: reads, jmp hits and nested frames, some kept.
    enum Op {
        Node(u32),
        Field(u32),
        Hit(Option<Arc<Footprint>>),
        Open,
        /// Closes the innermost frame; `true` keeps (publishes) it.
        Close(bool),
    }

    /// Runs `script` as one query through `log` and through per-frame sets
    /// folded into their parents at every close (what the frame stack
    /// did). Returns, per `Close(true)` and then for the whole query, the
    /// log's footprint beside the model's (`None` = poisoned).
    fn run_on(log: &mut ReadLog, script: &[Op]) -> Vec<(Option<Arc<Footprint>>, Option<Model>)> {
        log.begin(true);
        // The model's frames: reads so far and whether poisoned; and the
        // log's marks of the open ones.
        let mut frames = vec![(Model::default(), false)];
        let mut marks = Vec::new();
        let mut out = Vec::new();
        for op in script {
            let top = frames.last_mut().unwrap();
            match op {
                Op::Node(n) => {
                    log.node(NodeId::new(*n));
                    top.0.nodes.insert(*n);
                }
                Op::Field(f) => {
                    log.field(FieldId::new(*f));
                    top.0.fields.insert(*f);
                }
                Op::Hit(dep) => {
                    log.absorb(dep.as_ref());
                    match dep {
                        Some(fp) => {
                            let m = Model::of(fp);
                            top.0.nodes.extend(m.nodes);
                            top.0.fields.extend(m.fields);
                        }
                        None => top.1 = true,
                    }
                }
                Op::Open => {
                    marks.push(log.open());
                    frames.push((Model::default(), false));
                }
                Op::Close(keep) => {
                    let got = log.close(marks.pop().unwrap(), *keep);
                    let (child, poisoned) = frames.pop().unwrap();
                    let parent = frames.last_mut().unwrap();
                    parent.0.nodes.extend(child.nodes.iter().copied());
                    parent.0.fields.extend(child.fields.iter().copied());
                    parent.1 |= poisoned;
                    if *keep {
                        out.push((got, (!poisoned).then_some(child)));
                    } else {
                        assert!(got.is_none(), "an unkept frame materialises nothing");
                    }
                }
            }
        }
        let (root, poisoned) = frames.pop().unwrap();
        assert!(frames.is_empty(), "the script closes what it opens");
        out.push((log.finish(), (!poisoned).then_some(root)));
        out
    }

    /// [`run_on`] on a fresh log, with the log's footprints as models.
    fn run(script: &[Op]) -> Vec<(Option<Model>, Option<Model>)> {
        let results = run_on(&mut ReadLog::default(), script).into_iter();
        results
            .map(|(got, want)| (got.as_deref().map(Model::of), want))
            .collect()
    }

    /// splitmix64: the generator of the property test below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// An id: mostly in the first four chunks, now and then far past.
        fn id(&mut self) -> u32 {
            let id = match self.below(8) {
                0 => 100_000 + self.below(3) * CHUNK_BITS + self.below(4),
                1 => 1_000_000,
                _ => self.below(4 * CHUNK_BITS),
            };
            id as u32
        }

        /// Often a member of `set`, otherwise any id.
        fn id_near(&mut self, set: &BTreeSet<u32>) -> u32 {
            match self.below(3) {
                0 if !set.is_empty() => *set.iter().nth(self.below(set.len())).unwrap(),
                _ => self.id(),
            }
        }
    }

    /// A random query: reads, hits on `deps` or on footprint-less entries,
    /// and frames nested up to six deep, kept or not, all closed by its end.
    fn script(rng: &mut Rng, deps: &[Arc<Footprint>]) -> Vec<Op> {
        let mut ops = Vec::new();
        let mut depth = 0;
        for _ in 0..rng.below(80) {
            let op = match rng.below(10) {
                0..=3 => Op::Node(rng.id()),
                4 => Op::Field(rng.id()),
                5 if rng.below(12) == 0 => Op::Hit(None),
                5 => Op::Hit(Some(deps[rng.below(deps.len())].clone())),
                6 | 7 if depth < 6 => {
                    depth += 1;
                    Op::Open
                }
                _ if depth > 0 => {
                    depth -= 1;
                    Op::Close(rng.below(2) == 0)
                }
                _ => Op::Node(rng.id()),
            };
            ops.push(op);
        }
        ops.extend((0..depth).map(|_| Op::Close(rng.below(2) == 0)));
        ops
    }

    /// Every footprint a log folds — of kept frames and of whole queries,
    /// over reads, absorbed footprints (plain ones, then what earlier
    /// queries folded) and poison, with one log reused throughout — is the
    /// set union the model computes, and it intersects a dirty set exactly
    /// when the model's sets meet it.
    #[test]
    fn folded_footprints_are_the_sets_read_and_intersect_as_sets_do() {
        let mut rng = Rng(38);
        let mut deps: Vec<Arc<Footprint>> = (0..4)
            .map(|_| {
                let nodes: Vec<u32> = (0..rng.below(20)).map(|_| rng.id()).collect();
                let fields: Vec<u32> = (0..rng.below(4)).map(|_| rng.id()).collect();
                fp(&nodes, &fields)
            })
            .collect();
        let mut log = ReadLog::default();
        let (mut kept, mut met) = (0, 0);
        for _ in 0..400 {
            let ops = script(&mut rng, &deps);
            for (got, want) in run_on(&mut log, &ops) {
                assert_eq!(got.as_deref().map(Model::of), want);
                let (Some(got), Some(want)) = (got, want) else {
                    continue;
                };
                for _ in 0..4 {
                    let (mut nodes, mut fields, mut read) = (vec![], vec![], false);
                    for _ in 0..rng.below(6) {
                        let n = rng.id_near(&want.nodes);
                        nodes.push(n);
                        read |= want.nodes.contains(&n);
                    }
                    for _ in 0..rng.below(3) {
                        let f = rng.id_near(&want.fields);
                        fields.push(f);
                        read |= want.fields.contains(&f);
                    }
                    assert_eq!(got.intersects(&dirtying(&nodes, &fields)), read);
                    met += usize::from(read);
                }
                kept += 1;
                let slot = rng.below(64);
                match deps.get_mut(slot) {
                    Some(dep) => *dep = got,
                    None => deps.push(got),
                }
            }
        }
        assert!(
            kept > 500 && met > 200,
            "the script exercises folds ({kept}) and hits ({met})"
        );
    }

    /// The stored form grows with the chunks read, not with the highest
    /// id: read directly or absorbed, ids 0 and 1 000 000 cost two chunks.
    #[test]
    fn a_footprint_holds_only_the_chunks_it_touches() {
        let far = fp(&[0, 1_000_000], &[]);
        assert!(far.words() <= 2 * CHUNK_WORDS, "{} words", far.words());
        let mut log = ReadLog::default();
        log.begin(true);
        log.node(NodeId::new(1));
        log.absorb(Some(&far));
        log.field(FieldId::new(1_000_000));
        let whole = log.finish().unwrap();
        assert_eq!(whole.node_count(), 3);
        assert!(whole.intersects(&dirtying(&[1_000_000], &[])));
        assert!(whole.intersects(&dirtying(&[], &[1_000_000])));
        assert!(!whole.intersects(&dirtying(&[], &[1])));
        assert!(whole.words() <= 3 * CHUNK_WORDS, "{} words", whole.words());
    }

    #[test]
    fn absorb_unions_dependency_reads() {
        use Op::*;
        let dep = fp(&[40, 900], &[2]);
        let results = run(&[
            Node(1),
            Open,
            Node(2),
            Field(7),
            Open,
            Node(3),
            Hit(Some(dep.clone())),
            Close(false), // below τF: stays part of the enclosing suffix
            Node(4),
            Close(true),
            Open,
            Node(5),
            Close(true),
            Node(6),
        ]);
        assert_eq!(results.len(), 3);
        for (got, want) in &results {
            assert_eq!(got, want);
        }
        let outer = results[0].0.as_ref().unwrap();
        assert_eq!(outer.nodes, BTreeSet::from([2, 3, 4, 40, 900]));
        assert_eq!(outer.fields, BTreeSet::from([2, 7]));
        let sibling = results[1].0.as_ref().unwrap();
        assert_eq!(
            sibling.nodes,
            BTreeSet::from([5]),
            "not its elder sibling's"
        );
        let whole = results[2].0.as_ref().unwrap();
        assert_eq!(whole.nodes, BTreeSet::from([1, 2, 3, 4, 5, 6, 40, 900]));
    }

    #[test]
    fn poisoned_frames_finish_to_none_and_propagate() {
        use Op::*;
        let results = run(&[
            Open,
            Node(1),
            Open,
            Node(2),
            Close(true), // closed before the poison: keeps its footprint
            Open,
            Node(3),
            Hit(None),
            Close(true), // the poisoned frame
            Open,
            Node(4),
            Close(true), // opened after it: clean
            Close(true), // encloses it: poisoned
        ]);
        let got: Vec<bool> = results.iter().map(|(g, _)| g.is_some()).collect();
        assert_eq!(got, [true, false, true, false, false]);
        for (got, want) in &results {
            assert_eq!(got, want);
        }
    }

    /// A kept child collapses into one absorbed footprint: the parent sees
    /// its reads through that, and the log no longer holds them.
    #[test]
    fn a_closed_child_is_folded_into_its_parent_exactly_once() {
        let mut log = ReadLog::default();
        log.begin(true);
        let outer = log.open();
        log.node(NodeId::new(1));
        let inner = log.open();
        for n in 10..20 {
            log.node(NodeId::new(n));
        }
        log.field(FieldId::new(3));
        let child = log.close(inner, true).unwrap();
        assert_eq!(child.node_count(), 10);
        assert_eq!((log.nodes.len(), log.fields.len()), (1, 0));
        assert_eq!(log.absorbed.len(), 1);
        assert!(Arc::ptr_eq(&log.absorbed[0], &child));
        let parent = log.close(outer, true).unwrap();
        assert_eq!(parent.node_count(), 11);
        assert!(parent.intersects(&dirtying(&[], &[3])));
        assert_eq!(
            log.absorbed.len(),
            1,
            "the parent's collapse replaces the child's"
        );
        let whole = log.finish().unwrap();
        assert_eq!(Model::of(&whole), Model::of(&parent));
    }

    #[test]
    fn a_log_that_is_not_recording_keeps_nothing() {
        let mut log = ReadLog::default();
        log.begin(false);
        let mark = log.open();
        log.node(NodeId::new(1));
        log.field(FieldId::new(1));
        log.absorb(None);
        assert!(log.close(mark, true).is_none());
        assert!(log.finish().is_none());
        assert!(log.nodes.is_empty() && log.absorbed.is_empty());
        // Recording again, the earlier query's poison is gone.
        log.begin(true);
        log.node(NodeId::new(2));
        assert_eq!(log.finish().unwrap().node_count(), 1);
    }

    #[test]
    fn dirty_set_from_effect_covers_endpoints_and_fields() {
        use parcfl_pag::{Edge, EdgeKind};
        let effect = DeltaEffect {
            added_edges: vec![Edge {
                src: NodeId::new(3),
                dst: NodeId::new(9),
                kind: EdgeKind::Load(FieldId::new(1)),
            }],
            removed_edges: vec![Edge {
                src: NodeId::new(600),
                dst: NodeId::new(601),
                kind: EdgeKind::AssignLocal,
            }],
            revision: 1,
            rejected_ops: 0,
        };
        let d = DirtySet::from_effect(&effect);
        assert_eq!(d.nodes.len(), 4);
        assert!(fp(&[9], &[]).intersects(&d));
        assert!(fp(&[600], &[]).intersects(&d));
        assert!(fp(&[], &[1]).intersects(&d), "field-only reader is dirty");
        assert!(!fp(&[10, 11], &[0]).intersects(&d));
    }
}
