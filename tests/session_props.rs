//! Property-based tests for the persistent `AnalysisSession`: whatever
//! the mode, backend or batch split, a warm session must answer exactly
//! what a cold single-batch run answers. Sharing may only change *cost*,
//! never *answers*.

use parcfl::runtime::{run_seq, AnalysisSession, Backend, Mode};
use parcfl::synth::{build_bench, Profile};
use proptest::prelude::*;

/// Ample budget so answers do not depend on traversal order: a tight `B`
/// can legitimately flip out-of-budget verdicts between runs that
/// traverse different amounts (see `tests/equivalence.rs`).
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
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Multi-batch warm sessions agree with the cold sequential baseline
    /// in every mode × backend, on overlapping batches.
    #[test]
    fn warm_session_matches_cold_answers(seed in 0u64..1_000) {
        let b = bench_for(seed);
        let cold = run_seq(&b.pag, &b.queries, &b.solver);
        let half = &b.queries[..b.queries.len() / 2];
        for mode in [Mode::Naive, Mode::DataSharing, Mode::DataSharingSched] {
            for backend in [Backend::Simulated, Backend::Threaded] {
                let mut s = AnalysisSession::new(&b.pag)
                    .with_threads(4)
                    .with_solver(b.solver.clone());
                s.submit(half, mode, backend);
                let warm = s.submit(&b.queries, mode, backend);
                prop_assert_eq!(
                    warm.sorted_answers(),
                    cold.sorted_answers(),
                    "{:?} {:?} seed {}", mode, backend, seed
                );
            }
        }
    }

    /// One-thread batches on real threads through the warm store are
    /// also answer-preserving, and the session's cumulative counters equal
    /// the per-batch sums.
    #[test]
    fn one_thread_submit_matches_and_accumulates(seed in 0u64..1_000) {
        let b = bench_for(seed);
        let cold = run_seq(&b.pag, &b.queries, &b.solver);
        let mut s = AnalysisSession::new(&b.pag).with_solver(b.solver.clone());
        let first = s.submit(&b.queries, Mode::DataSharing, Backend::Threaded);
        let second = s.submit(&b.queries, Mode::DataSharing, Backend::Threaded);
        prop_assert_eq!(first.sorted_answers(), cold.sorted_answers());
        prop_assert_eq!(second.sorted_answers(), cold.sorted_answers());
        prop_assert_eq!(s.cumulative().batches, 2);
        prop_assert_eq!(
            s.cumulative().queries,
            first.stats.queries + second.stats.queries
        );
        prop_assert_eq!(
            s.cumulative().traversed_steps,
            first.stats.traversed_steps + second.stats.traversed_steps
        );
        prop_assert_eq!(
            s.cumulative().warm_hits,
            first.stats.warm_hits + second.stats.warm_hits
        );
    }
}
