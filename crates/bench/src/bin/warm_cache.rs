//! Warm-session benchmark: what a persistent [`AnalysisSession`] buys
//! over one-shot runs when query batches overlap.
//!
//! For every suite benchmark, three configurations answer the full query
//! batch under DQ × 16 simulated threads:
//!
//! * **cold** — the one-shot [`run_simulated`] baseline (fresh store);
//! * **warm** — a session primed with the first half of the queries, then
//!   given the full (overlapping) batch;
//! * **bounded** — the same two-batch session with the store capped at
//!   half the unbounded residency, so eviction is exercised.
//!
//! The acceptance properties are asserted, not just printed: the warm
//! batch must traverse strictly fewer steps than cold with identical
//! sorted answers, and the bounded session must never exceed its entry
//! budget (still answering identically).
//!
//! All three configurations run with the τ insertion thresholds disabled
//! (every jmp edge recorded, cold included): the smallest benchmarks never
//! clear the paper's τF under their scaled profiles, and an empty store
//! has nothing to stay warm. τ policy itself is the `ablation_tau` bench's
//! subject, not this one's.
//!
//! `--json [PATH]` additionally writes a machine-readable artifact
//! (default `BENCH_warm.json`): per-bench cold/warm traversed steps, warm
//! hits, and p50/p90/p99 of the warm batch's query-latency histogram
//! (simulated backend, so latency is in *traversal steps*).
//!
//! With `--delta [PATH]` the bench instead measures *incremental*
//! analysis (DESIGN.md §12): each suite session answers its full batch,
//! takes a seeded 3-op PAG edit script through
//! [`AnalysisSession::apply_delta`] (selective jmp/schedule
//! invalidation), and re-queries warm. The warm re-query must answer
//! bit-identically to a cold session on the edited graph, and across the
//! suite selective invalidation must retain at least one warm entry (a
//! full flush would also pass equality — retention is the point). The
//! artifact (default `BENCH_incremental.json`) records cold/incremental
//! re-query steps and the invalidation counters per bench.

use parcfl_bench::cfg_for;
use parcfl_core::SolverConfig;
use parcfl_pag::PagDelta;
use parcfl_runtime::{run_simulated, AnalysisSession, Backend, Mode, RunResult};
use parcfl_synth::mutate::sample_edits;
use std::io::Write;

/// One `BENCH_warm.json` record: warm-vs-cold step counts plus the warm
/// batch's query-latency percentiles (histogram bucket upper bounds, in
/// simulated traversal steps). Hand-rendered — every field is a scalar.
fn warm_record(name: &str, cold: &RunResult, warm: &RunResult) -> String {
    let h = &warm.stats.hists.query_latency;
    format!(
        concat!(
            "{{\"bench\":\"{}\",\"cold_steps\":{},\"warm_steps\":{},",
            "\"warm_hits\":{},\"latency_p50\":{},\"latency_p90\":{},",
            "\"latency_p99\":{}}}"
        ),
        name,
        cold.stats.traversed_steps,
        warm.stats.traversed_steps,
        warm.stats.warm_hits,
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.0),
    )
}

/// Writes the `--json` artifact.
fn emit_warm_json(path: &str, records: &[String]) {
    let body = format!(
        "{{\"schema\":\"parcfl-bench-warm/1\",\"latency_unit\":\"steps\",\"benches\":[\n  {}\n]}}\n",
        records.join(",\n  "),
    );
    let mut f = std::fs::File::create(path).expect("create warm json");
    f.write_all(body.as_bytes()).expect("write warm json");
    println!("\nwrote {path} ({} benches)", records.len());
}

/// `--delta`: the incremental-analysis comparison. Each bench primes a
/// session with its full batch, applies a seeded edit script, and
/// re-queries warm; a cold session on the edited graph is the oracle and
/// the step baseline. Writes the `BENCH_incremental.json` artifact.
fn run_delta_comparison(json_path: &str) {
    println!(
        "{:<16} {:>10} {:>10} {:>7} {:>8} {:>8} {:>6}",
        "Benchmark", "ColdS", "IncrS", "Saved%", "InvJmp", "RetJmp", "InvSch"
    );
    let suite = parcfl_synth::build_suite();
    let mode = Mode::DataSharingSched;
    let mut records = Vec::new();
    let mut suite_retained = 0u64;
    for (i, b) in suite.iter().enumerate() {
        let solver: SolverConfig = b.solver.clone().without_tau_thresholds();
        let mut session = AnalysisSession::new(&b.pag)
            .with_threads(16)
            .with_solver(solver.clone());
        session.submit(&b.queries, mode, Backend::Simulated);

        let mut delta = PagDelta::new();
        // Seed by suite position so the artifact is reproducible run to
        // run and distinct bench to bench.
        for op in sample_edits(&b.pag, 0xD17A + i as u64, 3) {
            delta.push(op);
        }
        let report = session.apply_delta(&delta);
        let incr = session.submit(&b.queries, mode, Backend::Simulated);

        let edited = session.pag().clone();
        let mut cold_sess = AnalysisSession::new(&edited)
            .with_threads(16)
            .with_solver(solver);
        let cold = cold_sess.submit(&b.queries, mode, Backend::Simulated);
        assert_eq!(
            incr.sorted_answers(),
            cold.sorted_answers(),
            "{}: incremental re-query diverged from cold on the edited graph",
            b.name
        );
        suite_retained += report.retained_jmps;

        let saved =
            100.0 * (1.0 - incr.stats.traversed_steps as f64 / cold.stats.traversed_steps as f64);
        println!(
            "{:<16} {:>10} {:>10} {:>6.1}% {:>8} {:>8} {:>6}",
            b.name,
            cold.stats.traversed_steps,
            incr.stats.traversed_steps,
            saved,
            report.invalidated_jmps,
            report.retained_jmps,
            report.invalidated_schedules,
        );
        records.push(format!(
            concat!(
                "{{\"bench\":\"{}\",\"edits\":{},\"cold_steps\":{},",
                "\"incremental_steps\":{},\"warm_hits\":{},",
                "\"invalidated_jmps\":{},\"retained_jmps\":{},",
                "\"invalidated_schedules\":{}}}"
            ),
            b.name,
            delta.ops().len(),
            cold.stats.traversed_steps,
            incr.stats.traversed_steps,
            incr.stats.warm_hits,
            report.invalidated_jmps,
            report.retained_jmps,
            report.invalidated_schedules,
        ));
    }
    assert!(
        suite_retained > 0,
        "selective invalidation retained nothing across the whole suite — \
         equality alone would also hold for a full flush"
    );
    let body = format!(
        "{{\"schema\":\"parcfl-bench-incremental/1\",\"step_unit\":\"traversal steps\",\
         \"benches\":[\n  {}\n]}}\n",
        records.join(",\n  "),
    );
    let mut f = std::fs::File::create(json_path).expect("create incremental json");
    f.write_all(body.as_bytes())
        .expect("write incremental json");
    println!(
        "\nall benchmarks: incremental == cold on edited graphs, {suite_retained} warm \
         entries retained; wrote {json_path}"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--delta") {
        let path = args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_incremental.json".to_string());
        run_delta_comparison(&path);
        return;
    }
    // `--json` takes an optional path operand; a following flag (or
    // nothing) means "use the default artifact name".
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "BENCH_warm.json".to_string())
    });
    let mut records = Vec::new();
    println!(
        "{:<16} {:>10} {:>10} {:>7} {:>7} {:>6} {:>8} {:>8} {:>7}",
        "Benchmark", "ColdS", "WarmS", "Saved%", "WarmHit", "#Ent", "Budget", "BndEnt", "Evict"
    );
    let suite = parcfl_synth::build_suite();
    for b in &suite {
        let half = &b.queries[..b.queries.len() / 2];
        let mode = Mode::DataSharingSched;
        let solver: SolverConfig = b.solver.clone().without_tau_thresholds();

        let mut cold_cfg = cfg_for(b, mode, 16);
        cold_cfg.solver = solver.clone();
        let cold = run_simulated(&b.pag, &b.queries, &cold_cfg);

        let mut warm_sess = AnalysisSession::new(&b.pag)
            .with_threads(16)
            .with_solver(solver.clone());
        warm_sess.submit(half, mode, Backend::Simulated);
        let warm = warm_sess.submit(&b.queries, mode, Backend::Simulated);

        assert_eq!(
            warm.sorted_answers(),
            cold.sorted_answers(),
            "{}: warm answers diverged from cold",
            b.name
        );
        assert!(
            warm.stats.traversed_steps < cold.stats.traversed_steps,
            "{}: warm batch {} steps !< cold {}",
            b.name,
            warm.stats.traversed_steps,
            cold.stats.traversed_steps
        );

        let budget = (warm_sess.store_entries() / 2).max(4);
        let mut bounded_sess = AnalysisSession::new(&b.pag)
            .with_threads(16)
            .with_solver(solver.clone())
            .with_store_budget(budget);
        bounded_sess.submit(half, mode, Backend::Simulated);
        let bounded = bounded_sess.submit(&b.queries, mode, Backend::Simulated);

        assert_eq!(
            bounded.sorted_answers(),
            cold.sorted_answers(),
            "{}: bounded answers diverged from cold",
            b.name
        );
        assert!(
            bounded_sess.store_entries() <= budget,
            "{}: resident {} exceeds budget {}",
            b.name,
            bounded_sess.store_entries(),
            budget
        );

        if json_path.is_some() {
            records.push(warm_record(&b.name, &cold, &warm));
        }
        let saved =
            100.0 * (1.0 - warm.stats.traversed_steps as f64 / cold.stats.traversed_steps as f64);
        println!(
            "{:<16} {:>10} {:>10} {:>6.1}% {:>7} {:>6} {:>8} {:>8} {:>7}",
            b.name,
            cold.stats.traversed_steps,
            warm.stats.traversed_steps,
            saved,
            warm.stats.warm_hits,
            warm_sess.store_entries(),
            budget,
            bounded_sess.store_entries(),
            bounded_sess.evictions(),
        );
    }
    println!(
        "\nall benchmarks: warm < cold traversals, identical answers, bounded residency ≤ budget"
    );
    if let Some(path) = &json_path {
        emit_warm_json(path, &records);
    }
}
