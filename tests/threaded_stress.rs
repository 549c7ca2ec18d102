//! Stress tests for the real-thread backend: many workers against one
//! shared jmp store with a tight budget, repeated to shake out races.
//! (This machine has one core, but the scheduler still interleaves
//! threads preemptively.)
//!
//! Benchmark seeds derive from `PARCFL_TEST_SEED` (default fixed) and
//! every failure message prints the seed, so a failing run is
//! reproducible with `PARCFL_TEST_SEED=<n> cargo test`.

use parcfl::check::seed::derive;
use parcfl::check::test_seed;
use parcfl::core::{Answer, SolverConfig};
use parcfl::runtime::{run_threaded, Backend, Mode, RunConfig};
use parcfl::synth::{build_bench, table1_profiles, Profile};

#[test]
fn threaded_sharing_under_contention_is_safe_and_consistent() {
    let seed = test_seed();
    let b = build_bench(&Profile::tiny(derive(seed, 99)));
    // Ample budget: all runs must agree exactly, no matter the interleaving.
    let mut cfg = RunConfig::new(Mode::DataSharing, 8, Backend::Threaded);
    cfg.solver = SolverConfig::default().with_budget(5_000_000);
    cfg.solver.tau_finished = 0;
    cfg.solver.tau_unfinished = 0;

    let reference = run_threaded(&b.pag, &b.queries, &cfg).sorted_answers();
    for round in 0..5 {
        let r = run_threaded(&b.pag, &b.queries, &cfg);
        assert_eq!(
            r.sorted_answers(),
            reference,
            "PARCFL_TEST_SEED={seed} round {round}"
        );
    }
}

#[test]
fn threaded_tight_budget_never_loses_queries() {
    let seed = test_seed();
    let b = build_bench(&Profile::tiny(derive(seed, 7)));
    let mut cfg = RunConfig::new(Mode::DataSharingSched, 6, Backend::Threaded);
    cfg.solver = SolverConfig::default().with_budget(50);
    cfg.solver.tau_unfinished = 0;
    for _ in 0..5 {
        let r = run_threaded(&b.pag, &b.queries, &cfg);
        assert_eq!(r.stats.queries, b.queries.len(), "PARCFL_TEST_SEED={seed}");
        assert_eq!(r.answers.len(), b.queries.len(), "PARCFL_TEST_SEED={seed}");
        assert_eq!(
            r.stats.completed + r.stats.out_of_budget,
            b.queries.len(),
            "every query gets a verdict (PARCFL_TEST_SEED={seed})"
        );
        // Completed answers, whenever they appear, are always the same as
        // a sequential run's (shared state cannot change results).
        let seq = parcfl::runtime::run_seq(&b.pag, &b.queries, &cfg.solver);
        for ((qa, a), (qb, s)) in r.sorted_answers().iter().zip(seq.sorted_answers().iter()) {
            assert_eq!(qa, qb, "PARCFL_TEST_SEED={seed}");
            if let (Answer::Complete(_), Answer::Complete(_)) = (a, s) {
                assert_eq!(a, s, "PARCFL_TEST_SEED={seed} query {qa}");
            }
        }
    }
}

/// Table-I programs under the paper's DQ mode on real workers, as
/// `table1_cold` runs them: their lanes intern and resolve contexts side
/// by side at a rate the `tiny` programs above never reach (pmd interns
/// a thousand), so a lane that resolved a context id before its interning
/// thread had written it (DESIGN.md §8, the lane's mirror of the
/// interner) would answer wrong here. Every completed answer of every run
/// must be `run_seq`'s.
#[test]
fn dq_workers_on_a_table_one_program_answer_as_run_seq() {
    for name in ["_209_db", "pmd"] {
        let profile = table1_profiles().into_iter().find(|p| p.name == name);
        let b = build_bench(&profile.expect("a Table-I row"));
        let seq = parcfl::runtime::run_seq(&b.pag, &b.queries, &b.solver).sorted_answers();
        for threads in [2, 3, 4] {
            for round in 0..12 {
                let cfg = RunConfig::new(Mode::DataSharingSched, threads, Backend::Threaded);
                let r = run_threaded(&b.pag, &b.queries, &cfg.with_solver(b.solver.clone()));
                let got = r.sorted_answers();
                assert_eq!(got.len(), seq.len(), "{name} t={threads} round {round}");
                for ((q, a), (_, want)) in got.iter().zip(&seq) {
                    if let (Answer::Complete(_), Answer::Complete(_)) = (a, want) {
                        assert_eq!(a, want, "{name} t={threads} round {round} query {q}");
                    }
                }
                let compared = r.stats.completed * 10 > 9 * b.queries.len();
                assert!(
                    compared,
                    "{name} t={threads} round {round}: most answers complete"
                );
            }
        }
    }
}

#[test]
fn thread_count_does_not_change_ample_budget_results() {
    let seed = test_seed();
    let b = build_bench(&Profile::tiny(derive(seed, 3)));
    let solver = SolverConfig::default().with_budget(5_000_000);
    let mut reference = None;
    for threads in [1, 2, 4, 8, 16] {
        let mut cfg = RunConfig::new(Mode::DataSharing, threads, Backend::Threaded);
        cfg.solver = solver.clone();
        let r = run_threaded(&b.pag, &b.queries, &cfg).sorted_answers();
        match &reference {
            None => reference = Some(r),
            Some(expect) => assert_eq!(&r, expect, "t={threads} PARCFL_TEST_SEED={seed}"),
        }
    }
}
