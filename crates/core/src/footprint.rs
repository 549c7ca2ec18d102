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

use parcfl_concurrent::bitset::{ChunkedBitset, CHUNK_WORDS};
use parcfl_pag::{DeltaEffect, FieldId, NodeId};
use std::sync::Arc;

/// The node/field read-set of one recorded traversal. Immutable once
/// built and shared via `Arc`: by the jmp entry or kept answer it guards,
/// and by every footprint-in-progress that absorbed it. It is metadata
/// about a result, never part of one.
#[derive(Clone, Debug, Default)]
pub struct Footprint {
    nodes: ChunkedBitset,
    fields: ChunkedBitset,
}

fn chunks_intersect(a: &ChunkedBitset, b: &ChunkedBitset) -> bool {
    let n = a.chunk_count().min(b.chunk_count());
    for ci in 0..n {
        if let (Some(ca), Some(cb)) = (a.chunk(ci), b.chunk(ci)) {
            for w in 0..CHUNK_WORDS {
                if ca[w] & cb[w] != 0 {
                    return true;
                }
            }
        }
    }
    false
}

impl Footprint {
    /// Whether this footprint overlaps `dirty` (in nodes or fields) —
    /// i.e. whether what it guards must be invalidated.
    pub fn intersects(&self, dirty: &DirtySet) -> bool {
        chunks_intersect(&self.nodes, &dirty.nodes) || chunks_intersect(&self.fields, &dirty.fields)
    }

    /// Nodes recorded (distinct count).
    pub fn node_count(&self) -> usize {
        self.nodes.count_ones()
    }

    /// Whether `n` is in the recorded node set.
    pub fn touches_node(&self, n: NodeId) -> bool {
        self.nodes.contains(n.raw())
    }

    /// Whether `f` is in the recorded field set.
    pub fn touches_field(&self, f: FieldId) -> bool {
        self.fields.contains(f.raw())
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
/// nobody. A frame becomes a bitset [`Footprint`] only when somebody will
/// keep it ([`ReadLog::close`] with `keep`, [`ReadLog::finish`]); its
/// suffix then collapses into that one absorbed `Arc`, so each read is
/// folded into a bitset once however many enclosing frames are kept later.
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

    /// Folds a dependency's reads in whole; `None` (its read-set is
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

        let mut fp = Footprint::default();
        for n in self.nodes.drain(mark.nodes..) {
            fp.nodes.insert(n.raw());
        }
        for f in self.fields.drain(mark.fields..) {
            fp.fields.insert(f.raw());
        }
        for dep in self.absorbed.drain(mark.absorbed..) {
            fp.nodes.union_with(&dep.nodes);
            fp.fields.union_with(&dep.fields);
        }
        let fp = Arc::new(fp);
        self.absorbed.push(Arc::clone(&fp));
        Some(fp)
    }
}

/// The dirty node/field sets of one applied delta, in the same chunked
/// representation as the footprints they are intersected against.
#[derive(Clone, Debug, Default)]
pub struct DirtySet {
    nodes: ChunkedBitset,
    fields: ChunkedBitset,
}

impl DirtySet {
    /// Builds the dirty set of an applied delta's *effective* changes:
    /// both endpoints of every added/removed edge, plus the fields of
    /// changed load/store edges.
    pub fn from_effect(effect: &DeltaEffect) -> Self {
        let mut d = DirtySet::default();
        for n in effect.dirty_nodes() {
            d.nodes.insert(n.raw());
        }
        for f in effect.dirty_fields() {
            d.fields.insert(f.raw());
        }
        d
    }

    /// Whether nothing is dirty (a no-op delta).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.fields.is_empty()
    }

    /// Marks a node dirty directly (tests and synthetic invalidation).
    pub fn insert_node(&mut self, n: NodeId) {
        self.nodes.insert(n.raw());
    }

    /// Marks a field dirty directly.
    pub fn insert_field(&mut self, f: FieldId) {
        self.fields.insert(f.raw());
    }

    /// Distinct dirty nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.count_ones()
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
        let mut clean = DirtySet::default();
        clean.insert_node(NodeId::new(5));
        clean.insert_field(FieldId::new(9));
        assert!(!f.intersects(&clean), "disjoint in both dimensions");
        let mut node_hit = clean.clone();
        node_hit.insert_node(NodeId::new(700));
        assert!(f.intersects(&node_hit), "node overlap in a later chunk");
        let mut field_hit = clean;
        field_hit.insert_field(FieldId::new(3));
        assert!(f.intersects(&field_hit), "field overlap alone suffices");
    }

    #[test]
    fn empty_dirty_set_never_invalidates() {
        let f = fp(&[0, 1, 2], &[0]);
        let d = DirtySet::default();
        assert!(d.is_empty());
        assert!(!f.intersects(&d));
    }

    /// The reference the log is held to: a frame's footprint is the set
    /// union of what was read and absorbed while it was open.
    #[derive(Clone, Default, PartialEq, Eq, Debug)]
    struct Model {
        nodes: BTreeSet<u32>,
        fields: BTreeSet<u32>,
    }

    impl Model {
        fn of(fp: &Footprint) -> Model {
            Model {
                nodes: fp.nodes.iter().collect(),
                fields: fp.fields.iter().collect(),
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

    /// Runs `script` through a log and through per-frame sets folded into
    /// their parents at every close (what the frame stack did). Returns,
    /// per `Close(true)` and then for the whole query, the log's footprint
    /// beside the model's (`None` = poisoned).
    fn run(script: &[Op]) -> Vec<(Option<Model>, Option<Model>)> {
        let mut log = ReadLog::default();
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
                        out.push((got.as_deref().map(Model::of), (!poisoned).then_some(child)));
                    } else {
                        assert!(got.is_none(), "an unkept frame materialises nothing");
                    }
                }
            }
        }
        let (root, poisoned) = frames.pop().unwrap();
        assert!(frames.is_empty(), "the script closes what it opens");
        let whole = log.finish();
        out.push((whole.as_deref().map(Model::of), (!poisoned).then_some(root)));
        out
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
        assert!(parent.touches_field(FieldId::new(3)));
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
        assert_eq!(d.node_count(), 4);
        assert!(fp(&[9], &[]).intersects(&d));
        assert!(fp(&[600], &[]).intersects(&d));
        assert!(fp(&[], &[1]).intersects(&d), "field-only reader is dirty");
        assert!(!fp(&[10, 11], &[0]).intersects(&d));
    }
}
