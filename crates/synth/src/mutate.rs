//! PAG mutation helpers for `parcfl-check`'s fuzzer and counterexample
//! shrinker: the canonical scrubbed copy a snapshot round-trips to, the
//! orphan-dropping compaction, and seeded edit scripts. A graph with a
//! different edge set over the same node ids is [`Pag::with_edges`], the
//! freeze every graph takes.

use parcfl_pag::algo::tarjan_scc;
use parcfl_pag::{types::TypeInfo, types::TypeTable, MethodId};
use parcfl_pag::{
    CallSiteId, DeltaOp, Edge, EdgeKind, FieldId, NodeId, NodeInfo, NodeKind, Pag, PagBuilder,
    TypeId,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Canonical scrubbed copy of `pag`: node names become `n<i>`, every node
/// gets the single type `T`, every method-scoped node the single method
/// `m`. Kinds, `is_application` flags, edges (with their field and
/// call-site ids) and node ids are preserved — everything the solver's
/// semantics depend on. The shrinker canonicalises *before* minimising so
/// the graph it verifies is byte-identical to what a snapshot round-trip
/// reconstructs (the snapshot format stores exactly this canonical form).
pub fn canonicalize(pag: &Pag) -> Pag {
    let (types, t0) = canonical_types(pag.types().field_count());
    let mut b = PagBuilder::with_types(types);
    let m0 = b.add_method("m");
    for _ in 0..pag.call_site_count() {
        b.fresh_call_site();
    }
    for n in pag.node_ids() {
        let info = pag.node(n);
        let kind = match info.kind {
            NodeKind::Local { .. } => NodeKind::Local { method: m0 },
            NodeKind::Global => NodeKind::Global,
            NodeKind::Object { .. } => NodeKind::Object { method: m0 },
        };
        b.add_node(NodeInfo {
            kind,
            ty: t0,
            name: format!("n{}", n.index()),
            is_application: info.is_application,
        });
    }
    for e in pag.edges() {
        b.add_edge(e.src, e.dst, e.kind);
    }
    b.freeze()
}

/// Drops every node with no incident edge that is not in `pinned`,
/// compacting node ids. Returns the compacted graph and `pinned` remapped
/// to the new ids (order preserved). Used as the shrinker's final pass so
/// serialized counterexamples do not carry orphan nodes.
pub fn compact(pag: &Pag, pinned: &[NodeId]) -> (Pag, Vec<NodeId>) {
    let mut used = vec![false; pag.node_count()];
    for e in pag.edges() {
        used[e.src.index()] = true;
        used[e.dst.index()] = true;
    }
    for &n in pinned {
        used[n.index()] = true;
    }
    let mut b = PagBuilder::with_types(pag.types().clone());
    for m in 0..pag.method_count() {
        b.add_method(pag.method_name(MethodId::from_usize(m)));
    }
    for _ in 0..pag.call_site_count() {
        b.fresh_call_site();
    }
    let mut map: Vec<Option<NodeId>> = vec![None; pag.node_count()];
    for n in pag.node_ids() {
        if used[n.index()] {
            map[n.index()] = Some(b.add_node(pag.node(n).clone()));
        }
    }
    for e in pag.edges() {
        b.add_edge(
            map[e.src.index()].expect("edge endpoint is used"),
            map[e.dst.index()].expect("edge endpoint is used"),
            e.kind,
        );
    }
    let remapped = pinned
        .iter()
        .map(|&n| map[n.index()].expect("pinned node is used"))
        .collect();
    (b.freeze(), remapped)
}

/// How many call-payload (param/ret) edges sit inside a directed cycle
/// (both endpoints in one SCC). Each such edge is a context-push cycle:
/// traversals re-enter it under ever-longer call strings, so the demand
/// solver can only answer by burning its entire budget (superlinearly —
/// per-step cost grows with context depth) and the naive oracle can only
/// hit its step cap. Edit sampling refuses to create new ones.
fn cyclic_call_edges(n: usize, edges: &[Edge]) -> usize {
    let mut succ = vec![Vec::new(); n];
    for e in edges {
        succ[e.src.index()].push(e.dst.index());
    }
    let scc = tarjan_scc(n, |v| succ[v].iter().copied());
    let inside = |e: &&Edge| scc.component_of(e.src.index()) == scc.component_of(e.dst.index());
    let call_edges = edges.iter().filter(|e| e.kind.call_site().is_some());
    call_edges.filter(inside).count()
}

/// Samples a deterministic `count`-op edit script over `pag` for the
/// mutate-then-requery fuzz dimension: removals of edges the graph
/// actually has (guaranteed-effective edits) interleaved with additions
/// between existing nodes, payloads drawn in range. `New` edges are only
/// added out of object nodes so the edited graph stays within the
/// semantics both the solver and the naive oracle agree on. Ops may still
/// cancel to no-ops (adding a present edge) — that exercises the
/// zero-invalidation path on purpose.
///
/// One structural invariant is enforced: no sampled addition may put a
/// param/ret edge inside a directed cycle (see `cyclic_call_edges`) —
/// such graphs have unbounded context growth, which neither the budgeted
/// solver nor the step-capped oracle can answer, so every comparison
/// would degenerate to an OutOfBudget-vs-StepCap skip after minutes of
/// grinding. Candidates that would create one are resampled; after 8
/// tries the op falls back to a (always-safe) removal.
pub fn sample_edits(pag: &Pag, seed: u64, count: usize) -> Vec<DeltaOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = pag.node_count();
    let mut ops = Vec::with_capacity(count);
    if n == 0 {
        return ops;
    }
    let objects: Vec<NodeId> = pag
        .node_ids()
        .filter(|&v| pag.kind(v).is_object())
        .collect();
    // Working edge set tracking the script so far, for the cycle check.
    let mut cur: Vec<Edge> = pag.edges().to_vec();
    let mut cyclic = cyclic_call_edges(n, &cur);
    let remove = |rng: &mut StdRng, cur: &mut Vec<Edge>, ops: &mut Vec<DeltaOp>| {
        let e = pag.edges()[rng.random_range(0usize..pag.edge_count())];
        if let Some(i) = cur.iter().position(|&c| c == e) {
            cur.swap_remove(i);
        }
        ops.push(DeltaOp::RemoveEdge(e));
    };
    for _ in 0..count {
        if pag.edge_count() > 0 && rng.random_bool(0.5) {
            remove(&mut rng, &mut cur, &mut ops);
            cyclic = cyclic_call_edges(n, &cur);
            continue;
        }
        let mut accepted = false;
        for _attempt in 0..8 {
            let src = NodeId::from_usize(rng.random_range(0usize..n));
            let dst = NodeId::from_usize(rng.random_range(0usize..n));
            let fields = pag.types().field_count();
            let sites = pag.call_site_count();
            let candidate = match rng.random_range(0usize..6) {
                0 if !objects.is_empty() => {
                    // Allocation edges leave object nodes.
                    let o = objects[rng.random_range(0usize..objects.len())];
                    Edge {
                        src: o,
                        dst,
                        kind: EdgeKind::New,
                    }
                }
                1 if fields > 0 => Edge {
                    src,
                    dst,
                    kind: EdgeKind::Load(FieldId::from_usize(rng.random_range(0usize..fields))),
                },
                2 if fields > 0 => Edge {
                    src,
                    dst,
                    kind: EdgeKind::Store(FieldId::from_usize(rng.random_range(0usize..fields))),
                },
                3 if sites > 0 => Edge {
                    src,
                    dst,
                    kind: EdgeKind::Param(CallSiteId::from_usize(rng.random_range(0usize..sites))),
                },
                4 if sites > 0 => Edge {
                    src,
                    dst,
                    kind: EdgeKind::Ret(CallSiteId::from_usize(rng.random_range(0usize..sites))),
                },
                _ => Edge {
                    src,
                    dst,
                    kind: EdgeKind::AssignLocal,
                },
            };
            cur.push(candidate);
            let now_cyclic = cyclic_call_edges(n, &cur);
            if now_cyclic > cyclic {
                cur.pop();
                continue;
            }
            cyclic = now_cyclic;
            ops.push(DeltaOp::AddEdge(candidate));
            accepted = true;
            break;
        }
        if !accepted {
            if pag.edge_count() > 0 {
                remove(&mut rng, &mut cur, &mut ops);
                cyclic = cyclic_call_edges(n, &cur);
            } else {
                // Edgeless graph: a payload-free add cannot touch a call
                // edge, so it is always safe.
                let src = NodeId::from_usize(rng.random_range(0usize..n));
                let dst = NodeId::from_usize(rng.random_range(0usize..n));
                let e = Edge {
                    src,
                    dst,
                    kind: EdgeKind::AssignLocal,
                };
                cur.push(e);
                ops.push(DeltaOp::AddEdge(e));
            }
        }
    }
    ops
}

/// Builds a fresh single-type [`TypeTable`] with `field_count` interned
/// fields (including the builtin `arr`) — the canonical table snapshot
/// parsing reconstructs. Returns the table and the id of its one type.
pub fn canonical_types(field_count: usize) -> (TypeTable, TypeId) {
    let mut types = TypeTable::new();
    let t0 = types.add_type(TypeInfo {
        name: "T".into(),
        is_ref: true,
        fields: Vec::new(),
        supertype: None,
    });
    for i in 1..field_count.max(1) {
        types.add_field(format!("f{i}"));
    }
    (types, t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::suite::build_bench;
    use parcfl_pag::EdgeKind;

    #[test]
    fn rebuild_with_all_edges_is_identity() {
        let b = build_bench(&Profile::tiny(11));
        let g2 = b.pag.with_edges(b.pag.edges());
        assert_eq!(g2.node_count(), b.pag.node_count());
        assert_eq!(g2.edge_count(), b.pag.edge_count());
        assert_eq!(g2.edges(), b.pag.edges());
        assert_eq!(g2.call_site_count(), b.pag.call_site_count());
    }

    #[test]
    fn rebuild_can_drop_an_edge() {
        let b = build_bench(&Profile::tiny(11));
        let mut edges = b.pag.edges().to_vec();
        edges.remove(0);
        let g2 = b.pag.with_edges(&edges);
        assert_eq!(g2.edge_count(), b.pag.edge_count() - 1);
        assert_eq!(g2.node_count(), b.pag.node_count());
    }

    #[test]
    fn canonicalize_preserves_structure() {
        let b = build_bench(&Profile::tiny(3));
        let c = canonicalize(&b.pag);
        assert_eq!(c.node_count(), b.pag.node_count());
        assert_eq!(c.edge_count(), b.pag.edge_count());
        assert_eq!(c.edges(), b.pag.edges());
        assert_eq!(c.types().field_count(), b.pag.types().field_count());
        for n in b.pag.node_ids() {
            assert_eq!(
                c.kind(n).is_object(),
                b.pag.kind(n).is_object(),
                "kind class preserved"
            );
            assert_eq!(c.node(n).is_application, b.pag.node(n).is_application);
        }
        // Idempotent: canonical of canonical is identical in structure.
        let cc = canonicalize(&c);
        assert_eq!(cc.edges(), c.edges());
    }

    #[test]
    fn compact_drops_orphans_and_remaps() {
        let b = build_bench(&Profile::tiny(7));
        // Keep only the first edge: almost every node becomes an orphan.
        let e0 = b.pag.edges()[0];
        let g = b.pag.with_edges(&[e0]);
        let pinned = vec![e0.dst];
        let (small, remapped) = compact(&g, &pinned);
        assert!(small.node_count() <= 2);
        assert_eq!(small.edge_count(), 1);
        let e = small.edges()[0];
        assert_eq!(remapped.len(), 1);
        assert_eq!(e.dst, remapped[0]);
        assert!(matches!(e.kind, k if k == e0.kind));
    }

    #[test]
    fn sample_edits_is_deterministic_and_in_range() {
        let b = build_bench(&Profile::tiny(9));
        let a = sample_edits(&b.pag, 42, 8);
        assert_eq!(a, sample_edits(&b.pag, 42, 8), "same seed, same script");
        assert_eq!(a.len(), 8);
        for op in &a {
            let e = op.edge();
            assert!(e.src.index() < b.pag.node_count());
            assert!(e.dst.index() < b.pag.node_count());
            if let DeltaOp::RemoveEdge(e) = op {
                assert!(b.pag.edges().contains(e), "removals target real edges");
            }
            if let DeltaOp::AddEdge(e) = op {
                if e.kind == EdgeKind::New {
                    assert!(b.pag.kind(e.src).is_object(), "new edges leave objects");
                }
            }
        }
        assert_ne!(sample_edits(&b.pag, 43, 8), a, "seed moves the script");
    }

    /// No sampled script may put a param/ret edge inside a directed
    /// cycle: such graphs have unbounded context growth, which turns
    /// every downstream consumer (budgeted solver, step-capped oracle)
    /// into a minutes-long burn with nothing comparable at the end.
    #[test]
    fn sample_edits_never_create_context_push_cycles() {
        use parcfl_pag::PagDelta;
        for seed in 0..24u64 {
            let b = build_bench(&Profile::tiny(seed));
            let base = cyclic_call_edges(b.pag.node_count(), b.pag.edges());
            let mut delta = PagDelta::new();
            for op in sample_edits(&b.pag, seed.wrapping_mul(31) + 7, 6) {
                delta.push(op);
            }
            let (edited, _) = b.pag.apply_delta(&delta);
            assert!(
                cyclic_call_edges(edited.node_count(), edited.edges()) <= base,
                "seed {seed}: edit script created a context-push cycle"
            );
        }
    }

    #[test]
    fn canonical_types_interns_field_count() {
        let (t, t0) = canonical_types(4);
        assert_eq!(t.field_count(), 4);
        assert_eq!(t.get(t0).name, "T");
        let (t1, _) = canonical_types(0);
        assert_eq!(t1.field_count(), 1, "builtin arr always present");
    }

    #[test]
    fn rebuild_preserves_field_indexes() {
        let b = build_bench(&Profile::tiny(5));
        let g2 = b.pag.with_edges(b.pag.edges());
        for e in b.pag.edges() {
            if let EdgeKind::Load(f) = e.kind {
                assert_eq!(g2.loads_of(f), b.pag.loads_of(f));
            }
            if let EdgeKind::Store(f) = e.kind {
                assert_eq!(g2.stores_of(f), b.pag.stores_of(f));
            }
        }
    }
}
