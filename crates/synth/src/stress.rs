//! A purpose-built sweep-stress workload for the matrix engine's
//! observability pipeline.
//!
//! The Table-I profiles mirror the paper's benchmarks: PAGs with one-ish
//! edge per node per class, whose per-query frontiers stay a few dozen
//! bits wide. That never crosses the matrix engine's fan-out gate
//! (`FAN_OUT_MIN_SCANS`) and never builds a packed adjacency row, so a
//! trace of a Table-I matrix run is a single-lane timeline with every
//! gather on the CSR fallback — faithful, but it exercises neither the
//! scoped fan-out nor the packed kernels. This bench is the complement: a
//! layered fan-out graph engineered so one query produces waves wide
//! enough to spread across every sweep worker (multi-lane trace) and
//! routes its gathers through both the packed rows (fat assignment hubs)
//! and the CSR fallback (thin allocation rows). CI traces it via
//! `table2 --trace-engine matrix-stress` and the runtime's tier-1 tests
//! assert the fan-out deterministically.

use crate::suite::Bench;
use parcfl_pag::{EdgeKind, NodeInfo, NodeKind, Pag, PagBuilder, TypeInfo};

/// Roots of the fan-out: each is a query whose sweep walks the full web.
const ROOTS: usize = 2;
/// Assignment hubs per root — the first (narrow) wave.
const HUBS: usize = 32;
/// Leaves per hub — the wide wave (`HUBS * LEAVES_PER_HUB` scans, well
/// past `FAN_OUT_MIN_SCANS = 256`).
const LEAVES_PER_HUB: usize = 16;

/// Builds the sweep-stress bench: `ROOTS` roots, each assigned from
/// [`HUBS`] hubs, each hub assigned from [`LEAVES_PER_HUB`] private
/// leaves, each leaf allocating one private object. A points-to query on
/// a root therefore sweeps waves of width 1 → [`HUBS`] →
/// `HUBS * LEAVES_PER_HUB` (= 512, past the fan-out gate) → objects.
/// Roots and hubs carry ≥ 4 incoming `assign_l` edges (packed rows,
/// `packed_gathers`); leaves carry a single `new` edge (thin rows,
/// `csr_fallback_rows`). The graph is acyclic, context-free and built
/// deterministically — every solver observable is bit-reproducible.
pub fn sweep_stress_bench() -> Bench {
    let mut b = PagBuilder::new();
    let m = b.add_method("stress");
    let t = b.types_mut().add_type(TypeInfo {
        name: "S".into(),
        is_ref: true,
        fields: Vec::new(),
        supertype: None,
    });
    let local = |b: &mut PagBuilder, name: String| {
        b.add_node(NodeInfo {
            kind: NodeKind::Local { method: m },
            ty: t,
            name,
            is_application: true,
        })
    };
    let mut queries = Vec::with_capacity(ROOTS);
    for r in 0..ROOTS {
        let root = local(&mut b, format!("root{r}"));
        queries.push(root);
        for h in 0..HUBS {
            let hub = local(&mut b, format!("hub{r}_{h}"));
            b.add_edge(hub, root, EdgeKind::AssignLocal);
            for l in 0..LEAVES_PER_HUB {
                let leaf = local(&mut b, format!("leaf{r}_{h}_{l}"));
                b.add_edge(leaf, hub, EdgeKind::AssignLocal);
                let obj = b.add_node(NodeInfo {
                    kind: NodeKind::Object { method: m },
                    ty: t,
                    name: format!("obj{r}_{h}_{l}"),
                    is_application: true,
                });
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
    use parcfl_pag::{EdgeClass, ROW_MIN_BITS};

    #[test]
    fn stress_graph_packs_and_exceeds_the_fan_out_threshold() {
        let b = sweep_stress_bench();
        assert_eq!(b.queries.len(), ROOTS);
        // Small enough to pack, wide enough to fan out: the widest wave
        // of a root query is every leaf of that root at once.
        assert!(b.pag.node_count() < parcfl_pag::MAX_PACKED_NODES);
        const { assert!(HUBS * LEAVES_PER_HUB >= 512, "wide wave covers 8 workers") };
        // Roots/hubs are fat assign rows (packed), leaves thin new rows
        // (CSR fallback), so both gather counters must fire.
        let packed = b.pag.packed();
        let assign = packed
            .in_packed(EdgeClass::AssignLocal)
            .expect("assign_l dense enough to pack");
        for &q in &b.queries {
            assert!(assign.row(q.raw()).is_some(), "roots have packed rows");
        }
        assert!(
            packed.in_packed(EdgeClass::New).is_none()
                || (0..b.pag.node_count() as u32).all(|n| packed
                    .in_packed(EdgeClass::New)
                    .unwrap()
                    .row(n)
                    .is_none()),
            "every new row is thinner than ROW_MIN_BITS ({ROW_MIN_BITS}) -> CSR fallback"
        );
    }
}
