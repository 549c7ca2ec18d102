//! The metric schema: names, units and directions, defined once.
//! `BENCHMARK.json` at the repo root lists the same rows (a unit test
//! holds the two together).

use std::collections::BTreeMap;

/// `(name, unit, better)`.
pub type Def = (&'static str, &'static str, &'static str);

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[Def] = &[
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_heap_mb", "MB", "lower"),
    ("completed_share", "ratio", "higher"),
];

/// The share of the parent's median by which each end-to-end metric may
/// get worse before a change counts as a regression, in `END_TO_END`
/// order. The three times carry the widest bound the contract allows:
/// on this shared box `table1_cold`'s pass drifts by 10 % from one
/// half-minute to the next (its interquartile range over ten runs was
/// 6-16 % of the median, whatever statistic of the passes is taken),
/// while the two small-footprint workloads repeat to 2 %. Peak heap at
/// two threads depends on which solvers peak together (`table1_cold`:
/// 5-6 % over ten runs, to the byte at one thread).
pub const BOUNDS: [f64; 5] = [0.25, 0.25, 0.25, 0.15, 0.005];

/// Single layers; traced run only. Layers are the crates. Every traced
/// run prints every row; a row its workload does not exercise reads 0
/// (benchmark/README.md says which workload owns which row).
pub const PER_LAYER: &[Def] = &[
    // frontend + freeze — owned by open_project
    ("frontend.parse.busy_s", "s", "lower"),
    ("frontend.parse.mb_per_s", "MB/s", "higher"),
    ("frontend.lex.tokens", "count", "lower"),
    ("frontend.extract.busy_s", "s", "lower"),
    ("frontend.extract.nodes_per_s", "1/s", "higher"),
    ("frontend.collapse.busy_s", "s", "lower"),
    ("frontend.collapse.merged_nodes", "count", "higher"),
    ("pag.freeze.busy_s", "s", "lower"),
    ("pag.freeze.edges_per_s", "1/s", "higher"),
    // demand solver, per-query fixed cost — open_project, table1_cold
    ("core.solver.us_per_query_fixed", "us", "lower"),
    ("core.solver.peak_state_words", "count", "lower"),
    ("core.solver.hash_over_dense", "ratio", "higher"),
    // demand solver traversal + jmp store — table1_cold
    ("core.solver.seq_s", "s", "lower"),
    ("core.solver.traversed_steps", "count", "lower"),
    ("core.solver.ns_per_step", "ns", "lower"),
    ("core.solver.out_of_budget", "count", "lower"),
    ("core.jmp.inserts", "count", "lower"),
    ("core.jmp.shortcuts_taken", "count", "higher"),
    ("core.jmp.steps_saved", "count", "higher"),
    ("core.jmp.saved_share", "ratio", "higher"),
    ("core.jmp.bytes", "count", "lower"),
    // concurrent primitives under the demand solver — table1_cold
    ("concurrent.interner.intern_ns", "ns", "lower"),
    ("concurrent.interner.resolve_ns", "ns", "lower"),
    ("concurrent.sharded_map.insert_ns", "ns", "lower"),
    ("concurrent.sharded_map.get_ns", "ns", "lower"),
    // dispatch — table1_cold
    ("concurrent.worklist.pop_ns", "ns", "lower"),
    ("concurrent.stealing.next_ns", "ns", "lower"),
    ("runtime.threaded.wall_s", "s", "lower"),
    ("runtime.threaded.speedup_over_seq", "ratio", "higher"),
    ("runtime.threaded.lock_wait_s", "s", "lower"),
    ("runtime.threaded.traversed_steps", "count", "lower"),
    ("runtime.stealing.wall_s", "s", "lower"),
    ("runtime.stealing.steal_wait_s", "s", "lower"),
    // DQ schedule — table1_cold
    ("sched.build.busy_s", "s", "lower"),
    ("sched.build.groups", "count", "lower"),
    ("sched.build.avg_group_size", "count", "higher"),
    // the paper's step unit — table1_cold
    ("runtime.sim.makespan_t2", "count", "lower"),
    ("runtime.sim.makespan_t16", "count", "lower"),
    ("runtime.sim.speedup_t16", "ratio", "higher"),
    ("runtime.sim.wall_s", "s", "lower"),
    // warm sessions and deltas — edit_requery
    ("runtime.session.cold_submit_s", "s", "lower"),
    ("runtime.session.apply_delta_s", "s", "lower"),
    ("runtime.session.requery_over_cold", "ratio", "lower"),
    ("runtime.session.requery_p50_ms", "ms", "lower"),
    ("runtime.session.requery_p95_ms", "ms", "lower"),
    ("runtime.session.requery_steps", "count", "lower"),
    ("runtime.session.warm_hits", "count", "higher"),
    ("runtime.session.invalidated_jmps", "count", "lower"),
    ("runtime.session.retained_jmps", "count", "higher"),
    ("runtime.session.retained_share", "ratio", "higher"),
    ("sched.cache.hit_share", "ratio", "higher"),
    ("pag.apply_delta.busy_s", "s", "lower"),
    ("pag.apply_delta.over_freeze", "ratio", "lower"),
    ("core.footprint.record_overhead", "ratio", "lower"),
    // matrix engine and what it stands on — dense_small
    ("core.matrix.seq_s", "s", "lower"),
    ("core.matrix.traversed_steps", "count", "lower"),
    ("core.matrix.ns_per_step", "ns", "lower"),
    ("core.matrix.over_demand", "ratio", "higher"),
    ("core.matrix.par_over_seq", "ratio", "higher"),
    ("core.matrix.packed_gathers", "count", "higher"),
    ("core.matrix.csr_fallback_rows", "count", "lower"),
    ("pag.packed.build_s", "s", "lower"),
    ("pag.packed.words", "count", "lower"),
    ("concurrent.bitset.union_ns_per_chunk.1k", "ns", "lower"),
    ("concurrent.bitset.union_ns_per_chunk.100k", "ns", "lower"),
    ("concurrent.bitset.insert_ns.1k", "ns", "lower"),
    ("concurrent.bitset.insert_ns.100k", "ns", "lower"),
    ("concurrent.bitset.clear_ns.1k", "ns", "lower"),
    ("concurrent.bitset.clear_ns.100k", "ns", "lower"),
    ("concurrent.pool.dispatch_us", "us", "lower"),
    ("concurrent.pool.wakes", "count", "higher"),
    ("runtime.auto.matrix_share", "ratio", "higher"),
    // answer materialisation — table1_cold, dense_small
    ("runtime.materialise.busy_s", "s", "lower"),
    // the program's own tracing, a ledger row — table1_cold
    ("obs.spans.overhead", "ratio", "lower"),
    ("obs.full.overhead", "ratio", "lower"),
    ("obs.full.events", "count", "lower"),
    ("obs.full.dropped", "count", "lower"),
    // whole-program comparator — dense_small
    ("andersen.solve_s", "s", "lower"),
    // the harness's own cost and noise — all workloads
    ("bench.trace.overhead", "ratio", "lower"),
    ("bench.trace.coverage", "ratio", "higher"),
    ("bench.check.busy_s", "s", "lower"),
    ("bench.pass.median_s", "s", "lower"),
    ("bench.pass.iqr_share", "ratio", "lower"),
    ("bench.rss.peak_mb", "MB", "lower"),
];

/// Measured values keyed by a schema name. Setting a name the schema
/// lacks is a harness bug and panics at once rather than printing a row
/// nobody declared.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.0 == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the schema"));
        self.0.insert(def.0, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `a / b`, or 0 when `b` is 0 (an idle layer has no rate).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(*better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_this_schema() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(root).unwrap()).unwrap();
        let rows = |key: &str| -> Vec<(String, String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing")
            };
            let field = |m: &Json, k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
            items
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
                .collect()
        };
        let own = |defs: &[Def]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.0.into(), d.1.into(), d.2.into()))
                .collect()
        };
        assert_eq!(rows("end_to_end"), own(END_TO_END));
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            panic!("end_to_end missing")
        };
        let bounds: Vec<f64> = e2e
            .iter()
            .map(|m| m.get("bound").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(bounds, BOUNDS);
        assert_eq!(rows("per_layer"), own(PER_LAYER));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("workloads missing")
        };
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn undeclared_names_are_refused() {
        Metrics::default().set("core.solver.typo", 1.0);
    }
}
