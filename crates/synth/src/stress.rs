//! A layered fan-out graph: two roots, each assigned from 32 hubs, each
//! hub from 16 private leaves, each leaf allocating one object.
//!
//! It was built to push the matrix engine's sweeps past their fan-out
//! gate. That engine is gone (DESIGN.md §11); the generator stays because
//! the frozen `benchmark/` crate's traced `dense_small` pass still builds
//! and queries it.

use crate::suite::Bench;
use parcfl_pag::{EdgeKind, NodeKind, Pag, PagBuilder, TypeInfo};
use std::fmt;

/// Roots of the fan-out: each is a query whose sweep walks the full web.
const ROOTS: usize = 2;
/// Assignment hubs per root — the first (narrow) wave.
const HUBS: usize = 32;
/// Leaves per hub — the wide wave (`HUBS * LEAVES_PER_HUB` nodes).
const LEAVES_PER_HUB: usize = 16;

/// Builds the sweep-stress bench: `ROOTS` roots, each assigned from
/// [`HUBS`] hubs, each hub assigned from [`LEAVES_PER_HUB`] private
/// leaves, each leaf allocating one private object. A points-to query on
/// a root therefore walks layers of width 1 → [`HUBS`] →
/// `HUBS * LEAVES_PER_HUB` (= 512) → objects. The graph is acyclic,
/// context-free and built deterministically — every solver observable is
/// bit-reproducible.
#[doc(hidden)]
pub fn sweep_stress_bench() -> Bench {
    let mut b = PagBuilder::new();
    let m = b.add_method("stress");
    let t = b.types_mut().add_type(TypeInfo {
        name: "S".into(),
        is_ref: true,
        fields: Vec::new(),
        supertype: None,
    });
    let local = |b: &mut PagBuilder, name: fmt::Arguments| {
        b.add_named(NodeKind::Local { method: m }, t, name, true)
    };
    let mut queries = Vec::with_capacity(ROOTS);
    for r in 0..ROOTS {
        let root = local(&mut b, format_args!("root{r}"));
        queries.push(root);
        for h in 0..HUBS {
            let hub = local(&mut b, format_args!("hub{r}_{h}"));
            b.add_edge(hub, root, EdgeKind::AssignLocal);
            for l in 0..LEAVES_PER_HUB {
                let leaf = local(&mut b, format_args!("leaf{r}_{h}_{l}"));
                b.add_edge(leaf, hub, EdgeKind::AssignLocal);
                let kind = NodeKind::Object { method: m };
                let obj = b.add_named(kind, t, format_args!("obj{r}_{h}_{l}"), true);
                b.add_edge(obj, leaf, EdgeKind::New);
            }
        }
    }
    let pag: Pag = b.freeze();
    let raw_nodes = pag.node_count();
    let raw_edges = pag.edge_count();
    let solver = parcfl_core::SolverConfig::default();
    let budget = solver.budget;
    Bench {
        name: "sweepstress".to_string(),
        solver,
        pag,
        queries,
        budget,
        raw_nodes,
        raw_edges,
        classes: 1,
        methods: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_graph_has_the_documented_layers() {
        let b = sweep_stress_bench();
        assert_eq!(b.queries.len(), ROOTS);
        let per_hub = 1 + 2 * LEAVES_PER_HUB;
        assert_eq!(b.pag.node_count(), ROOTS * (1 + HUBS * per_hub));
        assert_eq!(b.pag.edge_count(), ROOTS * HUBS * per_hub);
    }
}
