//! The end-to-end benchmark pipeline: profile → generated program → PAG
//! extraction → points-to cycle collapsing → query set. This is what every
//! experiment harness loads.

use crate::generator::generate;
use crate::profile::{table1_profiles, Profile};
use parcfl_frontend::cycles::collapse_assign_cycles;
use parcfl_frontend::extract::extract;
use parcfl_pag::{NodeId, Pag};

/// A ready-to-analyse benchmark.
pub struct Bench {
    /// Benchmark name (Table I row).
    pub name: String,
    /// Solver configuration for this benchmark's experiments (budget and
    /// scaled thresholds from the profile).
    pub solver: parcfl_core::SolverConfig,
    /// The preprocessed PAG (cycles collapsed).
    pub pag: Pag,
    /// The query batch: all application-code locals of reference type,
    /// deduplicated (cycle collapsing may merge several locals into one
    /// node).
    pub queries: Vec<NodeId>,
    /// Structural counts before collapsing (Table I's #Nodes/#Edges are
    /// reported on the original PAG).
    pub raw_nodes: usize,
    /// Edge count before collapsing.
    pub raw_edges: usize,
    /// Class count of the generated program.
    pub classes: usize,
    /// Method count of the generated program.
    pub methods: usize,
}

/// Builds one benchmark from its profile.
pub fn build_bench(profile: &Profile) -> Bench {
    let program = generate(profile);
    let classes = program.classes.len();
    let methods = program.method_count();
    let e = extract(&program).expect("generated programs always extract");
    debug_assert!(e.warnings.is_empty(), "{:?}", e.warnings);
    let raw_nodes = e.pag.node_count();
    let raw_edges = e.pag.edge_count();
    let collapsed = collapse_assign_cycles(&e.pag);
    let mut queries = collapsed.pag.application_locals();
    queries.sort_unstable();
    queries.dedup();
    Bench {
        name: profile.name.clone(),
        solver: profile.solver_config(),
        pag: collapsed.pag,
        queries,
        raw_nodes,
        raw_edges,
        classes,
        methods,
    }
}

/// Builds the full 20-benchmark Table I suite.
pub fn build_suite() -> Vec<Bench> {
    table1_profiles().iter().map(build_bench).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_pipeline_produces_queries() {
        let b = build_bench(&Profile::tiny(5));
        assert!(!b.queries.is_empty());
        assert!(b.raw_nodes >= b.pag.node_count(), "collapsing only shrinks");
        assert!(b.classes > 0);
        assert!(b.methods > 0);
        // Queries all exist, are app locals, and are unique.
        let mut q = b.queries.clone();
        q.dedup();
        assert_eq!(q.len(), b.queries.len());
        for &v in &b.queries {
            assert!(b.pag.node(v).is_application);
            assert!(b.pag.kind(v).is_local());
        }
    }

    #[test]
    fn suite_builds_all_twenty() {
        // Generation + extraction only (no analysis): fast enough to run
        // in unit tests.
        let suite = build_suite();
        assert_eq!(suite.len(), 20);
        for b in &suite {
            assert!(b.queries.len() >= 30, "{}: {}", b.name, b.queries.len());
        }
        // Size ordering shape: tomcat is the biggest app benchmark.
        let nodes = |n: &str| suite.iter().find(|b| b.name == n).unwrap().raw_nodes;
        assert!(nodes("tomcat") > nodes("_200_check"));
    }
}
