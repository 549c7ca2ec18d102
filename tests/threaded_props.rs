//! Property-based tests for the threaded backend's one dispatcher — the
//! paper's lock-protected shared work list: across random benchmarks it
//! must answer exactly what the sequential baseline answers — cold and
//! warm, at every thread count — and the per-worker observability records
//! must account for every query, step, and fetch.
//!
//! The CI stress job raises the sampling with `PROPTEST_CASES` and widens
//! the sweep with `PARCFL_STRESS_THREADS` (comma-separated counts;
//! default `1,2,4,8`).

use parcfl::runtime::{run_seq, run_threaded, AnalysisSession, Backend, Mode, RunConfig};
use parcfl::synth::{build_bench, Profile};
use proptest::prelude::*;

/// Case count: `PROPTEST_CASES` when set (the CI stress job raises it),
/// else a small default suitable for tier-1 runs.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Thread counts to sweep: `PARCFL_STRESS_THREADS` (e.g. `"2"` for one
/// leg of the CI job matrix) or the full default ladder.
fn thread_counts() -> Vec<usize> {
    std::env::var("PARCFL_STRESS_THREADS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// Ample budget so answers cannot depend on traversal order (a tight `B`
/// legitimately flips out-of-budget verdicts between interleavings).
fn bench_for(seed: u64) -> parcfl::synth::Bench {
    let mut b = build_bench(&Profile::tiny(seed));
    b.solver = b
        .solver
        .clone()
        .with_budget(5_000_000)
        .without_tau_thresholds();
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Cold one-shot runs agree with the sequential baseline in every
    /// mode, at every thread count.
    #[test]
    fn cold_threaded_matches_sequential(seed in 0u64..1_000) {
        let b = bench_for(seed);
        let seq = run_seq(&b.pag, &b.queries, &b.solver);
        for mode in [Mode::Naive, Mode::DataSharing, Mode::DataSharingSched] {
            for threads in thread_counts() {
                let cfg = RunConfig::new(mode, threads, Backend::Threaded)
                    .with_solver(b.solver.clone());
                let r = run_threaded(&b.pag, &b.queries, &cfg);
                prop_assert_eq!(
                    r.sorted_answers(),
                    seq.sorted_answers(),
                    "{:?} x{} seed {}", mode, threads, seed
                );
            }
        }
    }

    /// Warm two-batch sessions: the second batch, answered on top of the
    /// first batch's jmp edges, still equals the cold sequential baseline
    /// at every thread count.
    #[test]
    fn warm_threaded_matches_sequential(seed in 0u64..1_000) {
        let b = bench_for(seed);
        let seq = run_seq(&b.pag, &b.queries, &b.solver);
        let half = &b.queries[..b.queries.len() / 2];
        for threads in thread_counts() {
            let mut s = AnalysisSession::new(&b.pag)
                .with_threads(threads)
                .with_solver(b.solver.clone());
            s.submit(half, Mode::DataSharingSched, Backend::Threaded);
            let warm = s.submit(&b.queries, Mode::DataSharingSched, Backend::Threaded);
            prop_assert_eq!(
                warm.sorted_answers(),
                seq.sorted_answers(),
                "x{} seed {}", threads, seed
            );
        }
    }

    /// Per-worker observability closes the books: summed worker records
    /// equal the batch totals, and every scheduled group is popped off the
    /// work list exactly once.
    #[test]
    fn worker_records_sum_to_batch_totals(seed in 0u64..1_000) {
        let b = bench_for(seed);
        for threads in thread_counts() {
            let cfg = RunConfig::new(Mode::DataSharingSched, threads, Backend::Threaded)
                .with_solver(b.solver.clone());
            let schedule = parcfl::runtime::schedule_with_cap(
                &b.pag, &b.queries, cfg.mode, cfg.group_cap,
            );
            let r = run_threaded(&b.pag, &b.queries, &cfg);
            prop_assert_eq!(r.stats.workers.len(), threads.max(1));
            let totals = r.stats.obs_totals();
            prop_assert_eq!(totals.queries as usize, r.stats.queries);
            prop_assert_eq!(totals.steps, r.stats.traversed_steps);
            prop_assert_eq!(
                totals.local_pops,
                schedule.groups.len() as u64,
                "x{} seed {}", threads, seed
            );
        }
    }
}
