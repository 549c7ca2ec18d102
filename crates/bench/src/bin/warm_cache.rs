//! Warm-session benchmark: what a persistent [`AnalysisSession`] buys
//! over one-shot runs when query batches overlap.
//!
//! For every suite benchmark, two configurations answer the full query
//! batch under DQ × 16 simulated threads:
//!
//! * **cold** — the one-shot [`run_simulated`] baseline (fresh store);
//! * **warm** — a session primed with the first half of the queries, then
//!   given the full (overlapping) batch.
//!
//! The acceptance property is asserted, not just printed: the warm batch
//! must traverse strictly fewer steps than cold with identical sorted
//! answers.
//!
//! Both configurations run with the τ insertion thresholds disabled
//! (every jmp edge recorded, cold included), so what the warm batch saves
//! does not depend on the τ policy. τ policy itself is the `ablation_tau`
//! bench's subject, not this one's.
//!
//! With `--delta` the bench instead measures *incremental*
//! analysis (DESIGN.md §12): each suite session answers its full batch,
//! takes a seeded 3-op PAG edit script through
//! [`AnalysisSession::apply_delta`] (selective answer/jmp
//! invalidation), and re-queries warm: `Kept` of the batch's answers
//! survive the edit and are not traversed again. The warm re-query must
//! answer bit-identically to a cold session on the edited graph, and
//! across the suite selective invalidation must retain at least one warm
//! entry (a full flush would also pass equality — retention is the point).

use parcfl_bench::cfg_for;
use parcfl_core::SolverConfig;
use parcfl_pag::PagDelta;
use parcfl_runtime::{run_simulated, AnalysisSession, Backend, Mode};
use parcfl_synth::mutate::sample_edits;

/// `--delta`: the incremental-analysis comparison. Each bench primes a
/// session with its full batch, applies a seeded edit script, and
/// re-queries warm; a cold session on the edited graph is the oracle and
/// the step baseline.
fn run_delta_comparison() {
    println!(
        "{:<16} {:>10} {:>10} {:>7} {:>6} {:>8} {:>8}",
        "Benchmark", "ColdS", "IncrS", "Saved%", "Kept", "InvJmp", "RetJmp"
    );
    let suite = parcfl_synth::build_suite();
    let mode = Mode::DataSharingSched;
    let mut suite_retained = 0u64;
    for (i, b) in suite.iter().enumerate() {
        let solver: SolverConfig = b.solver.clone().without_tau_thresholds();
        let mut session = AnalysisSession::new(&b.pag)
            .with_threads(16)
            .with_solver(solver.clone());
        session.submit(&b.queries, mode, Backend::Simulated);

        let mut delta = PagDelta::new();
        // Seed by suite position so the table is reproducible run to run
        // and distinct bench to bench.
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
            "{:<16} {:>10} {:>10} {:>6.1}% {:>6} {:>8} {:>8}",
            b.name,
            cold.stats.traversed_steps,
            incr.stats.traversed_steps,
            saved,
            incr.stats.retained_answers,
            report.invalidated_jmps,
            report.retained_jmps,
        );
    }
    assert!(
        suite_retained > 0,
        "selective invalidation retained nothing across the whole suite — \
         equality alone would also hold for a full flush"
    );
    println!(
        "\nall benchmarks: incremental == cold on edited graphs, {suite_retained} warm \
         entries retained"
    );
}

fn main() {
    if std::env::args().any(|a| a == "--delta") {
        run_delta_comparison();
        return;
    }
    println!(
        "{:<16} {:>10} {:>10} {:>7} {:>7} {:>6}",
        "Benchmark", "ColdS", "WarmS", "Saved%", "WarmHit", "#Ent"
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
            .with_solver(solver);
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

        let saved =
            100.0 * (1.0 - warm.stats.traversed_steps as f64 / cold.stats.traversed_steps as f64);
        println!(
            "{:<16} {:>10} {:>10} {:>6.1}% {:>7} {:>6}",
            b.name,
            cold.stats.traversed_steps,
            warm.stats.traversed_steps,
            saved,
            warm.stats.warm_hits,
            warm_sess.store_entries(),
        );
    }
    println!("\nall benchmarks: warm < cold traversals, identical answers");
}
