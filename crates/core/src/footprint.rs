//! Reverse-dependency footprints for selective invalidation (DESIGN.md
//! §12).
//!
//! Every *finished* jmp entry can carry a [`Footprint`]: the set of PAG
//! nodes whose adjacency its recording traversal consulted, plus the set
//! of fields whose load/store populations it consulted. When a [`parcfl_pag::PagDelta`] lands, the
//! effective edge changes define a [`DirtySet`]; an entry stays warm iff
//! its footprint is present and disjoint from the dirty set — a graph edit
//! that never touched anything the traversal read cannot change its
//! answer. Missing footprints (legacy entries, recording disabled, or a
//! traversal that absorbed an un-footprinted dependency) are always
//! invalidated: over-invalidation is sound, under-invalidation is not.
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
/// built; shared via `Arc` between the store entry and nothing else (it is
/// *not* part of the published answer).
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
    /// i.e. whether the entry it guards must be invalidated.
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

/// Accumulates a [`Footprint`] during one traversal. A frame is pushed per
/// recorded sub-call; child frames [`FpBuilder::merge_child`] into their
/// parent so a published parent inherits everything its children read.
/// Absorbing a dependency that has no footprint (a warm pre-delta jmp hit,
/// or recording disabled in whoever produced it) **poisons** the frame:
/// the resulting entry stores no footprint and is invalidated by every
/// delta — the only sound option when the read-set is unknown.
#[derive(Clone, Debug, Default)]
pub struct FpBuilder {
    nodes: ChunkedBitset,
    fields: ChunkedBitset,
    poisoned: bool,
}

impl FpBuilder {
    /// A fresh, empty frame.
    pub fn new() -> Self {
        FpBuilder::default()
    }

    /// Records that `n`'s adjacency (incoming/outgoing slices) was
    /// consulted.
    pub fn record_node(&mut self, n: NodeId) {
        self.nodes.insert(n.raw());
    }

    /// Records that field `f`'s `loads_of`/`stores_of` index was consulted.
    pub fn record_field(&mut self, f: FieldId) {
        self.fields.insert(f.raw());
    }

    /// Marks the frame's read-set unknowable (see type docs).
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Whether the frame is poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Unions a dependency's footprint into this frame; `None` (the
    /// dependency's read-set is unknown) poisons it.
    pub fn absorb(&mut self, dep: Option<&Footprint>) {
        match dep {
            Some(fp) => {
                self.nodes.union_with(&fp.nodes);
                self.fields.union_with(&fp.fields);
            }
            None => self.poisoned = true,
        }
    }

    /// Folds a completed child frame into this (parent) frame.
    pub fn merge_child(&mut self, child: FpBuilder) {
        self.nodes.union_with(&child.nodes);
        self.fields.union_with(&child.fields);
        self.poisoned |= child.poisoned;
    }

    /// Finishes the frame: the footprint to store alongside the entry, or
    /// `None` when poisoned (entry must then always be invalidated).
    pub fn finish(self) -> Option<Arc<Footprint>> {
        if self.poisoned {
            return None;
        }
        Some(Arc::new(Footprint {
            nodes: self.nodes,
            fields: self.fields,
        }))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(nodes: &[u32], fields: &[u32]) -> Footprint {
        let mut b = FpBuilder::new();
        for &n in nodes {
            b.record_node(NodeId::new(n));
        }
        for &f in fields {
            b.record_field(FieldId::new(f));
        }
        Arc::try_unwrap(b.finish().unwrap()).unwrap()
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

    #[test]
    fn poisoned_frames_finish_to_none_and_propagate() {
        let mut b = FpBuilder::new();
        b.record_node(NodeId::new(1));
        b.absorb(None);
        assert!(b.is_poisoned());
        assert!(b.finish().is_none());
        // Poison crosses merge_child.
        let mut parent = FpBuilder::new();
        let mut child = FpBuilder::new();
        child.poison();
        parent.merge_child(child);
        assert!(parent.finish().is_none());
    }

    #[test]
    fn absorb_unions_dependency_reads() {
        let dep = fp(&[40], &[2]);
        let mut b = FpBuilder::new();
        b.record_node(NodeId::new(1));
        b.absorb(Some(&dep));
        let out = b.finish().unwrap();
        assert!(out.touches_node(NodeId::new(40)));
        assert!(out.touches_node(NodeId::new(1)));
        assert!(out.touches_field(FieldId::new(2)));
        assert_eq!(out.node_count(), 2);
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
            added_nodes: vec![],
            added_methods: vec![],
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
