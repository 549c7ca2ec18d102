//! Cross-mode equivalence: the parallel strategies must never change what
//! the analysis computes, only what it costs.
//!
//! With a budget high enough that no query aborts, every mode × backend ×
//! thread-count combination must return exactly the same answers as the
//! sequential baseline. (With tight budgets, out-of-budget verdicts may
//! legitimately differ across modes — shortcut charges depend on what was
//! shared — so there the invariant is: queries completed by *both* runs
//! agree.)

use parcfl::core::{Answer, SolverConfig};
use parcfl::runtime::{
    matrix_pays_off, run, run_matrix, run_seq, run_simulated, run_threaded, Backend, Engine, Mode,
    RunConfig,
};
use parcfl::synth::{build_bench, table1_profiles, Profile};

fn bench() -> parcfl::synth::Bench {
    build_bench(&Profile::tiny(1234))
}

#[test]
fn all_modes_agree_with_ample_budget() {
    let b = bench();
    let solver = SolverConfig::default().with_budget(5_000_000);
    let seq = run_seq(&b.pag, &b.queries, &solver);
    assert_eq!(
        seq.stats.out_of_budget, 0,
        "budget must be ample for this test"
    );
    for mode in [Mode::Naive, Mode::DataSharing, Mode::DataSharingSched] {
        for backend in [Backend::Simulated, Backend::Threaded] {
            for threads in [1, 3, 16] {
                let mut cfg = RunConfig::new(mode, threads, backend);
                cfg.solver = solver.clone();
                let r = run(&b.pag, &b.queries, &cfg);
                assert_eq!(
                    r.sorted_answers(),
                    seq.sorted_answers(),
                    "{mode:?}/{backend:?} x{threads}"
                );
            }
        }
    }
}

/// The paper's `ParCFL(1, naive) ≈ SeqCFL` (Section IV-D1), literally:
/// the three executors are one batch driver, so at one worker with
/// sharing off they do the same work in the same order — same answers,
/// same step and budget accounting, same interned contexts — and the
/// simulator's virtual clock adds exactly one fetch per query on top of
/// the sequential makespan. Run under each bench's own (tight) budget, so
/// out-of-budget verdicts are compared too.
#[test]
fn one_worker_naive_is_seq_on_every_executor() {
    let profiles = table1_profiles();
    let check = profiles.iter().find(|p| p.name == "_200_check").unwrap();
    for b in [build_bench(check), bench()] {
        let seq = run_seq(&b.pag, &b.queries, &b.solver);
        let sim_cfg =
            RunConfig::new(Mode::Naive, 1, Backend::Simulated).with_solver(b.solver.clone());
        let sim = run_simulated(&b.pag, &b.queries, &sim_cfg);
        let thr_cfg =
            RunConfig::new(Mode::Naive, 1, Backend::Threaded).with_solver(b.solver.clone());
        let thr = run_threaded(&b.pag, &b.queries, &thr_cfg);
        for (name, par) in [("simulated", &sim), ("threaded", &thr)] {
            assert_eq!(par.sorted_answers(), seq.sorted_answers(), "{name}");
            assert_eq!(
                par.stats.traversed_steps, seq.stats.traversed_steps,
                "{name}"
            );
            assert_eq!(par.stats.charged_steps, seq.stats.charged_steps, "{name}");
            assert_eq!(par.stats.completed, seq.stats.completed, "{name}");
            assert_eq!(par.stats.out_of_budget, seq.stats.out_of_budget, "{name}");
            assert_eq!(par.stats.interner_ctxs, seq.stats.interner_ctxs, "{name}");
            let (w, s) = (par.stats.obs_totals(), seq.stats.obs_totals());
            assert_eq!(par.stats.workers.len(), 1, "{name}");
            assert_eq!(
                (w.local_pops, w.queries, w.steps),
                (s.local_pops, s.queries, s.steps),
                "{name}: the one worker's record"
            );
        }
        assert_eq!(seq.stats.makespan, seq.stats.traversed_steps);
        assert_eq!(thr.stats.makespan, seq.stats.makespan);
        assert_eq!(
            sim.stats.makespan,
            seq.stats.makespan + parcfl::runtime::sim::FETCH_STEPS * b.queries.len() as u64
        );
    }
}

#[test]
fn tight_budget_completed_answers_agree() {
    let b = bench();
    let solver = SolverConfig::default().with_budget(400);
    let seq = run_seq(&b.pag, &b.queries, &solver);
    for mode in [Mode::DataSharing, Mode::DataSharingSched] {
        let mut cfg = RunConfig::new(mode, 4, Backend::Simulated);
        cfg.solver = solver.clone();
        let par = run(&b.pag, &b.queries, &cfg);
        let seq_sorted = seq.sorted_answers();
        let par_sorted = par.sorted_answers();
        assert_eq!(seq_sorted.len(), par_sorted.len());
        let mut compared = 0;
        for ((qa, a), (qb, b)) in seq_sorted.iter().zip(par_sorted.iter()) {
            assert_eq!(qa, qb);
            if let (Answer::Complete(_), Answer::Complete(_)) = (a, b) {
                assert_eq!(a, b, "completed answers diverge on {qa:?} under {mode:?}");
                compared += 1;
            }
        }
        assert!(compared > 0, "some queries complete under the tight budget");
    }
}

#[test]
fn simulated_run_is_reproducible_across_invocations() {
    let b = bench();
    let mk = || {
        let mut cfg = RunConfig::new(Mode::DataSharingSched, 8, Backend::Simulated);
        cfg.solver = b.solver.clone();
        run(&b.pag, &b.queries, &cfg)
    };
    let a = mk();
    let c = mk();
    assert_eq!(a.sorted_answers(), c.sorted_answers());
    assert_eq!(a.stats.makespan, c.stats.makespan);
    assert_eq!(a.stats.traversed_steps, c.stats.traversed_steps);
    assert_eq!(a.stats.charged_steps, c.stats.charged_steps);
    assert_eq!(a.stats.jmp_edges, c.stats.jmp_edges);
    assert_eq!(a.stats.early_terminations, c.stats.early_terminations);
}

#[test]
fn budget_monotonicity() {
    // Raising the budget can only move queries from OutOfBudget to
    // Complete, never change a completed answer.
    let b = bench();
    let lo = run_seq(&b.pag, &b.queries, &SolverConfig::default().with_budget(40));
    let hi = run_seq(
        &b.pag,
        &b.queries,
        &SolverConfig::default().with_budget(5_000_000),
    );
    assert_eq!(hi.stats.out_of_budget, 0);
    assert!(
        lo.stats.out_of_budget > 0,
        "test needs a binding low budget"
    );
    for ((qa, a), (qb, h)) in lo.sorted_answers().iter().zip(hi.sorted_answers().iter()) {
        assert_eq!(qa, qb);
        if let Answer::Complete(_) = a {
            assert_eq!(a, h, "low-budget completion differs on {qa:?}");
        }
    }
}

#[test]
fn threaded_and_simulated_agree_on_sharing_runs_with_ample_budget() {
    let b = bench();
    let solver = SolverConfig::default().with_budget(5_000_000);
    let mut cfg = RunConfig::new(Mode::DataSharing, 4, Backend::Threaded);
    cfg.solver = solver.clone();
    let thr = run(&b.pag, &b.queries, &cfg);
    cfg.backend = Backend::Simulated;
    let sim = run(&b.pag, &b.queries, &cfg);
    assert_eq!(thr.sorted_answers(), sim.sorted_answers());
}

/// The six shims the frozen `benchmark/` crate still compiles against
/// (`Engine`, `RunConfig::with_engine`, `run_matrix`, `matrix_pays_off`,
/// `Pag::packed`, the zeroed `RunStats` counters) select nothing: every
/// spelling is the one demand run, down to the virtual makespan.
#[test]
fn engine_shims_all_run_the_demand_solver() {
    let profiles = table1_profiles();
    let b = build_bench(profiles.iter().find(|p| p.name == "_200_check").unwrap());
    let cfg =
        RunConfig::new(Mode::DataSharingSched, 4, Backend::Simulated).with_solver(b.solver.clone());
    let plain = run(&b.pag, &b.queries, &cfg);
    assert!(plain.stats.traversed_steps > 0);
    let shimmed = [
        run(&b.pag, &b.queries, &cfg.clone().with_engine(Engine::Auto)),
        run(&b.pag, &b.queries, &cfg.clone().with_engine(Engine::Matrix)),
        run_matrix(&b.pag, &b.queries, &cfg),
    ];
    for r in &shimmed {
        assert_eq!(r.sorted_answers(), plain.sorted_answers());
        assert_eq!(r.stats.traversed_steps, plain.stats.traversed_steps);
        assert_eq!(r.stats.charged_steps, plain.stats.charged_steps);
        assert_eq!(r.stats.makespan, plain.stats.makespan);
        assert_eq!(r.stats.interner_ctxs, plain.stats.interner_ctxs);
        let s = &r.stats;
        assert_eq!(
            (
                s.packed_gathers,
                s.csr_fallback_rows,
                s.pool_wakes,
                s.pool_dispatch_ns
            ),
            (0, 0, 0, 0)
        );
    }
    // Every application local of a small program: as dense as a batch
    // gets, and still not sent anywhere else.
    assert!(!matrix_pays_off(&b.pag, &b.queries));
    assert_eq!(b.pag.packed().packed_words(), 0);
}
