//! First-class program edits: [`PagDelta`] batches edge changes and
//! [`Pag::apply_delta`] freezes the edited edge set over the graph's
//! shared node, type and method tables — the path [`Pag::with_edges`] and
//! [`crate::PagBuilder::freeze`] take, so the edited graph is a fresh
//! freeze by construction.
//!
//! The returned [`DeltaEffect`] records only the *effective* changes
//! (adding an edge that already exists, or removing one that does not, is
//! a no-op), which is what the incremental session layers key their
//! selective jmp/schedule invalidation on: the dirty node set is the
//! endpoints of the effective edge changes, the dirty field set the fields
//! of effective load/store changes. A delta whose effect
//! [`DeltaEffect::is_noop`] leaves the revision counter untouched, so
//! callers can skip invalidation entirely.

use crate::edge::{Edge, EdgeKind};
use crate::graph::{in_order, Pag};
use crate::ids::{FieldId, NodeId};
use std::collections::BTreeMap;

/// One atomic edge edit. Both directions are idempotent: adding a present
/// edge and removing an absent one are no-ops (the frozen graph is a
/// deduplicated edge *set*).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// Insert `edge` (no-op if already present).
    AddEdge(Edge),
    /// Remove `edge` (no-op if absent).
    RemoveEdge(Edge),
}

impl DeltaOp {
    /// The edge this op targets.
    pub fn edge(&self) -> Edge {
        match *self {
            DeltaOp::AddEdge(e) | DeltaOp::RemoveEdge(e) => e,
        }
    }
}

/// A batch of edge edits, applied atomically by [`Pag::apply_delta`].
///
/// A delta edits the edge set only. Node, method and call-site ids never
/// move, so every interned context, jmp-store key and cached answer keeps
/// referring to the same entity across revisions. Severing a call site is
/// removing its `param`/`ret` edges; the id itself (and any contexts
/// interned over it) stays valid but unreachable.
#[derive(Clone, Debug, Default)]
pub struct PagDelta {
    ops: Vec<DeltaOp>,
}

impl PagDelta {
    /// An empty delta.
    pub fn new() -> Self {
        PagDelta::default()
    }

    /// Appends a raw edit op.
    pub fn push(&mut self, op: DeltaOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Adds an edge (no-op if present).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) -> &mut Self {
        self.push(DeltaOp::AddEdge(Edge { src, dst, kind }))
    }

    /// Removes an edge (no-op if absent).
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId, kind: EdgeKind) -> &mut Self {
        self.push(DeltaOp::RemoveEdge(Edge { src, dst, kind }))
    }
}

/// The *effective* changes one [`Pag::apply_delta`] call produced, after
/// idempotent ops cancel out. This — not the delta itself — is what the
/// invalidation layers consume.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaEffect {
    /// Edges present after but not before, in canonical order.
    pub added_edges: Vec<Edge>,
    /// Edges present before but not after, in canonical order.
    pub removed_edges: Vec<Edge>,
    /// The revision of the resulting graph (unchanged when the delta was
    /// a no-op).
    pub revision: u64,
    /// Edge ops that were not applied because they name a node, a field
    /// or a call site the graph does not have. They change nothing — not
    /// the edge set, the dirty sets or the revision — but a caller that
    /// sent them should hear about it.
    pub rejected_ops: u64,
}

impl DeltaEffect {
    /// Whether the graph is unchanged (every op cancelled out). A no-op
    /// effect keeps the revision and requires zero invalidation work.
    pub fn is_noop(&self) -> bool {
        self.added_edges.is_empty() && self.removed_edges.is_empty()
    }

    /// Every node an effective edge change touches (both endpoints, with
    /// repeats). The invalidation layers union these into their dirty
    /// bitsets.
    pub fn dirty_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.added_edges
            .iter()
            .chain(self.removed_edges.iter())
            .flat_map(|e| [e.src, e.dst])
    }

    /// Every field whose load/store population an effective edge change
    /// altered.
    pub fn dirty_fields(&self) -> impl Iterator<Item = FieldId> + '_ {
        self.added_edges
            .iter()
            .chain(self.removed_edges.iter())
            .filter_map(|e| e.kind.field())
    }
}

impl Pag {
    /// Applies `delta`, returning the edited graph and the effective
    /// changes. The result *is* the freeze of the edited edge set
    /// ([`Pag::with_edges`]) at the next revision: same CSR layout, same
    /// field indexes, offset tables, outgoing side and by-site indexes
    /// left to their first reads.
    ///
    /// Ops naming an out-of-range node, field or call site are not
    /// applied (callers that fuzz edit scripts shrink node sets
    /// independently of the scripts); [`DeltaEffect::rejected_ops`]
    /// counts them.
    pub fn apply_delta(&self, delta: &PagDelta) -> (Pag, DeltaEffect) {
        let old_rev = self.revision();
        let mut effect = DeltaEffect {
            revision: old_rev,
            ..DeltaEffect::default()
        };

        // Every edge the delta names, by canonical key (so iterating
        // gives the order the effect lists are in), with whether the
        // edited graph has it: what its last op says.
        let mut named = BTreeMap::new();
        for op in &delta.ops {
            let e = op.edge();
            if self.has_ids_of(&e) {
                named.insert(in_order(&e), (e, matches!(op, DeltaOp::AddEdge(_))));
            } else {
                effect.rejected_ops += 1;
            }
        }
        for &(e, after) in named.values() {
            match (self.has_edge(&e), after) {
                (false, true) => effect.added_edges.push(e),
                (true, false) => effect.removed_edges.push(e),
                _ => {}
            }
        }

        if effect.is_noop() {
            return (self.clone(), effect);
        }
        effect.revision = old_rev + 1;
        // Both lists are in canonical order: each removed edge is met
        // where it stands.
        let mut removed = effect.removed_edges.iter().peekable();
        let stays = |e: &&Edge| removed.next_if_eq(e).is_none();
        let kept = self.edges().iter().filter(stays);
        let edges: Vec<Edge> = kept.chain(&effect.added_edges).copied().collect();
        let mut pag = self.with_edges(&edges);
        pag.revision = effect.revision;
        (pag, effect)
    }

    /// Whether the graph has every id `e` names: both endpoints, and its
    /// field or call site.
    fn has_ids_of(&self, e: &Edge) -> bool {
        let n = self.node_count();
        let (fields, sites) = (self.types().field_count(), self.call_site_count());
        e.src.index() < n
            && e.dst.index() < n
            && e.kind.field().is_none_or(|f| f.index() < fields)
            && e.kind.call_site().is_none_or(|s| s.index() < sites)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PagBuilder;
    use crate::ids::CallSiteId;
    use crate::node::{NodeInfo, NodeKind};
    use crate::types::TypeInfo;
    use crate::EdgeClass as EC;

    fn sample() -> Pag {
        let mut b = PagBuilder::new();
        let m = b.add_method("main");
        let t = b.types_mut().add_type(TypeInfo {
            name: "T".into(),
            is_ref: true,
            fields: Vec::new(),
            supertype: None,
        });
        let f = b.types_mut().add_field("f");
        let cs = b.fresh_call_site();
        let mk = |name: &str, kind: NodeKind| NodeInfo {
            kind,
            ty: t,
            name: name.into(),
            is_application: true,
        };
        let nodes: Vec<_> = (0..80)
            .map(|i| {
                let kind = if i % 7 == 0 {
                    NodeKind::Object { method: m }
                } else {
                    NodeKind::Local { method: m }
                };
                b.add_node(mk(&format!("n{i}"), kind))
            })
            .collect();
        for i in 0..nodes.len() - 1 {
            match i % 5 {
                0 => b.add_edge(nodes[i], nodes[i + 1], EdgeKind::New),
                1 | 2 => b.add_edge(nodes[i], nodes[i + 1], EdgeKind::AssignLocal),
                3 => b.add_edge(nodes[i], nodes[i + 1], EdgeKind::Load(f)),
                _ => b.add_edge(nodes[i], nodes[i + 1], EdgeKind::Param(cs)),
            }
        }
        for i in 30..40 {
            b.add_edge(nodes[i], nodes[0], EdgeKind::AssignLocal);
        }
        b.freeze()
    }

    /// Field-for-field equality with a fresh freeze of the same edits.
    fn assert_equals_fresh(edited: &Pag, fresh: &Pag) {
        assert_eq!(edited.node_count(), fresh.node_count());
        assert_eq!(edited.edges(), fresh.edges());
        assert!(edited.revision() > 0);
        for n in fresh.node_ids() {
            assert_eq!(edited.incoming(n), fresh.incoming(n), "incoming {n:?}");
            assert_eq!(edited.outgoing(n), fresh.outgoing(n), "outgoing {n:?}");
            for class in [
                EC::New,
                EC::AssignLocal,
                EC::AssignGlobal,
                EC::Load,
                EC::Store,
                EC::Param,
                EC::Ret,
            ] {
                assert_eq!(
                    edited.incoming_kind(n, class),
                    fresh.incoming_kind(n, class)
                );
                assert_eq!(
                    edited.outgoing_classes(n).of(class),
                    fresh.outgoing_classes(n).of(class)
                );
            }
        }
        for f in 0..fresh.types().field_count() {
            let f = FieldId::from_usize(f);
            assert_eq!(edited.loads_of(f), fresh.loads_of(f));
            assert_eq!(edited.stores_of(f), fresh.stores_of(f));
        }
    }

    fn rebuild_fresh(pag: &Pag) -> Pag {
        let mut b = PagBuilder::with_types(pag.types().clone());
        for n in pag.node_ids() {
            b.add_node(pag.node(n).clone());
        }
        for _ in 0..pag.method_count() {
            b.add_method("m");
        }
        for _ in 0..pag.call_site_count() {
            b.fresh_call_site();
        }
        for e in pag.edges() {
            b.add_edge(e.src, e.dst, e.kind);
        }
        b.freeze()
    }

    #[test]
    fn add_and_remove_edges_match_fresh_freeze() {
        let pag = sample();
        assert_eq!(pag.revision(), 0);
        let a = NodeId::new(3);
        let b2 = NodeId::new(60);
        let mut d = PagDelta::new();
        d.add_edge(a, b2, EdgeKind::AssignLocal).remove_edge(
            NodeId::new(0),
            NodeId::new(1),
            EdgeKind::New,
        );
        let (edited, effect) = pag.apply_delta(&d);
        assert_eq!(edited.revision(), 1);
        assert_eq!(effect.revision, 1);
        assert_eq!(effect.added_edges.len(), 1);
        assert_eq!(effect.removed_edges.len(), 1);
        assert!(!effect.is_noop());
        let fresh = rebuild_fresh(&edited);
        assert_equals_fresh(&edited, &fresh);
        // Chained deltas keep counting.
        let mut d2 = PagDelta::new();
        d2.add_edge(b2, a, EdgeKind::New);
        let (edited2, effect2) = edited.apply_delta(&d2);
        assert_eq!(edited2.revision(), 2);
        assert_eq!(effect2.revision, 2);
    }

    #[test]
    fn noop_delta_keeps_revision_and_reports_empty_effect() {
        let pag = sample();
        // Adding a present edge and removing an absent one cancel to
        // nothing; so does an add+remove pair of the same new edge.
        let present = pag.edges()[0];
        let mut d = PagDelta::new();
        d.push(DeltaOp::AddEdge(present))
            .remove_edge(NodeId::new(70), NodeId::new(72), EdgeKind::New)
            .add_edge(NodeId::new(12), NodeId::new(50), EdgeKind::AssignLocal)
            .remove_edge(NodeId::new(12), NodeId::new(50), EdgeKind::AssignLocal);
        let (same, effect) = pag.apply_delta(&d);
        assert!(effect.is_noop());
        assert_eq!(effect.revision, 0);
        assert_eq!(same.revision(), 0);
        assert_eq!(same.edges(), pag.edges());
        assert!(effect.dirty_nodes().next().is_none());
        // Empty delta is trivially a no-op too.
        let (_, e2) = pag.apply_delta(&PagDelta::new());
        assert!(e2.is_noop());
    }

    /// Severing a call site is removing its `param`/`ret` edges: they go,
    /// and the site's id stays allocated.
    #[test]
    fn remove_call_site_drops_its_param_ret_edges() {
        let pag = sample();
        let at_site = |e: &&Edge| e.kind.call_site() == Some(CallSiteId::new(0));
        let mut d = PagDelta::new();
        for &e in pag.edges().iter().filter(at_site) {
            d.push(DeltaOp::RemoveEdge(e));
        }
        let had = d.ops.len();
        assert!(had > 0);
        let (edited, effect) = pag.apply_delta(&d);
        assert_eq!(effect.removed_edges.len(), had);
        assert_eq!(edited.edges().iter().filter(at_site).count(), 0);
        assert_eq!(edited.call_site_count(), pag.call_site_count());
        assert_equals_fresh(&edited, &rebuild_fresh(&edited));
    }

    /// Seeded edit scripts — adds, removes, repeats that cancel — against
    /// the set model the hash-set implementation was: the spliced graph is
    /// the fresh freeze of the model's edge set, and the effect lists are
    /// the set differences in canonical order.
    #[test]
    fn random_edit_scripts_match_a_fresh_freeze_of_the_edited_set() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move |below: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % below
        };
        let kinds = |i: usize| match i % 7 {
            0 => EdgeKind::New,
            1 => EdgeKind::AssignLocal,
            2 => EdgeKind::AssignGlobal,
            3 => EdgeKind::Load(FieldId::new(1)),
            4 => EdgeKind::Store(FieldId::new(1)),
            5 => EdgeKind::Param(CallSiteId::new(0)),
            _ => EdgeKind::Ret(CallSiteId::new(0)),
        };
        let mut pag = sample();
        let n = pag.node_count();
        for round in 0..60 {
            let mut d = PagDelta::new();
            let keyed = |pag: &Pag| -> BTreeMap<_, Edge> {
                pag.edges().iter().map(|e| (in_order(e), *e)).collect()
            };
            let (before, mut model) = (keyed(&pag), keyed(&pag));
            // The node that ends both edge arrays gets an edge of the last
            // class, so splices reach the arrays' ends.
            let last = NodeId::from_usize(n - 1);
            let tail = Edge {
                src: last,
                dst: last,
                kind: kinds(6),
            };
            d.push(DeltaOp::AddEdge(tail));
            model.insert(in_order(&tail), tail);
            for _ in 0..1 + draw(6) {
                // Half the ops aim at an edge the graph has, and the tail
                // of the node range is drawn often.
                let e = if draw(2) == 0 {
                    pag.edges()[draw(pag.edge_count())]
                } else {
                    let end = |r: usize| NodeId::from_usize(n - 1 - r % 8);
                    let (src, dst) = (end(draw(64)), NodeId::from_usize(draw(n)));
                    Edge {
                        src,
                        dst,
                        kind: kinds(draw(7)),
                    }
                };
                if draw(2) == 0 {
                    d.push(DeltaOp::AddEdge(e));
                    model.insert(in_order(&e), e);
                } else {
                    d.push(DeltaOp::RemoveEdge(e));
                    model.remove(&in_order(&e));
                }
            }
            let (edited, effect) = pag.apply_delta(&d);
            let only = |a: &BTreeMap<_, Edge>, b: &BTreeMap<_, Edge>| -> Vec<Edge> {
                let kept = a.iter().filter(|&(k, _)| !b.contains_key(k));
                kept.map(|(_, &e)| e).collect()
            };
            assert_eq!(effect.added_edges, only(&model, &before), "round {round}");
            assert_eq!(effect.removed_edges, only(&before, &model), "round {round}");
            let want: Vec<Edge> = model.values().copied().collect();
            assert_eq!(edited.edges(), want, "round {round}");
            if !effect.is_noop() {
                assert_equals_fresh(&edited, &rebuild_fresh(&edited));
            }
            pag = edited;
        }
        assert!(pag.revision() > 40, "most scripts were effective");
    }

    #[test]
    fn out_of_range_ops_are_ignored() {
        let pag = sample();
        let mut d = PagDelta::new();
        d.add_edge(NodeId::new(9_999), NodeId::new(0), EdgeKind::New);
        let (_, effect) = pag.apply_delta(&d);
        assert!(effect.is_noop());
        assert_eq!((effect.rejected_ops, effect.revision), (1, 0));
    }

    /// A rejected op is counted and otherwise invisible: the in-range ops
    /// of the same delta apply, and the revision and the dirty sets are
    /// those of the delta without it.
    #[test]
    fn rejected_ops_are_counted_and_the_rest_applies() {
        let pag = sample();
        let n = pag.node_count() as u32;
        let mut good = PagDelta::new();
        good.add_edge(NodeId::new(3), NodeId::new(60), EdgeKind::AssignLocal);
        let mut mixed = good.clone();
        mixed
            .remove_edge(NodeId::new(0), NodeId::new(n), EdgeKind::New)
            .add_edge(NodeId::new(n + 7), NodeId::new(n), EdgeKind::AssignLocal);
        let (want_pag, want) = pag.apply_delta(&good);
        let (got_pag, got) = pag.apply_delta(&mixed);
        assert_eq!((want.rejected_ops, got.rejected_ops), (0, 2));
        assert_eq!(got_pag.edges(), want_pag.edges());
        assert_eq!(got.revision, 1);
        assert_eq!(
            DeltaEffect {
                rejected_ops: 0,
                ..got
            },
            want,
            "added edges, dirty sets and revision ignore the rejected ops"
        );
    }

    /// A field or call site past the graph's tables is rejected like a
    /// node past its node table; an added `ld` used to index past the
    /// field table and panic.
    #[test]
    fn ops_naming_unknown_fields_or_call_sites_are_rejected() {
        let pag = sample();
        let (a, b) = (NodeId::new(3), NodeId::new(60));
        let field = FieldId::from_usize(pag.types().field_count());
        let site = CallSiteId::from_usize(pag.call_site_count());
        let mut d = PagDelta::new();
        d.add_edge(a, b, EdgeKind::Load(field))
            .remove_edge(b, a, EdgeKind::Store(field))
            .add_edge(a, b, EdgeKind::Param(site))
            .add_edge(b, a, EdgeKind::Ret(site));
        let (same, effect) = pag.apply_delta(&d);
        assert!(effect.is_noop());
        assert_eq!((effect.rejected_ops, effect.revision), (4, 0));
        assert_eq!(same.edges(), pag.edges());
    }

    #[test]
    fn dirty_sets_cover_both_endpoints_and_fields() {
        let pag = sample();
        let f = FieldId::new(1);
        let mut d = PagDelta::new();
        d.add_edge(NodeId::new(10), NodeId::new(20), EdgeKind::Store(f))
            .remove_edge(NodeId::new(3), NodeId::new(4), EdgeKind::Load(f));
        let (_, effect) = pag.apply_delta(&d);
        let nodes: std::collections::HashSet<u32> = effect.dirty_nodes().map(NodeId::raw).collect();
        assert!(nodes.contains(&10) && nodes.contains(&20));
        assert!(nodes.contains(&3) && nodes.contains(&4));
        let fields: Vec<FieldId> = effect.dirty_fields().collect();
        assert_eq!(fields, vec![f, f]);
    }
}
