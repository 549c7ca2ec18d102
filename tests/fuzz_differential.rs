//! Differential-testing entrypoints: the production solver against the
//! naive oracle and the Andersen whole-program solution, across modes,
//! backends and seeded schedule perturbations (DESIGN.md §10).
//!
//! All randomness derives from `PARCFL_TEST_SEED` (default fixed); every
//! failure message prints the seed to replay with. `PARCFL_FUZZ_ITERS`
//! scales the fuzz loop (default 100).

use parcfl::check::diff::normalize;
use parcfl::check::seed::derive;
use parcfl::check::{
    check_soundness, diff_answers, run_fuzz, scenario_fails, test_seed, with_big_stack, FuzzConfig,
    Oracle, OracleCache, OracleConfig, Scenario,
};
use parcfl::core::{NoJmpStore, Solver, SolverConfig, StateBackend};
use parcfl::runtime::run_seq;
use parcfl::synth::{build_bench, table1_profiles, Profile};

fn fuzz_iters() -> u64 {
    std::env::var("PARCFL_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// The sequential baseline agrees exactly with the oracle on ample-budget
/// runs — the semantic anchor every other comparison builds on.
#[test]
fn seq_matches_oracle_exactly() {
    let seed = test_seed();
    for i in 0..4u64 {
        let bench = build_bench(&Profile::tiny(derive(seed, i)));
        let cfg = SolverConfig {
            budget: 5_000_000,
            ..SolverConfig::default()
        };
        let result = run_seq(&bench.pag, &bench.queries, &cfg);
        let mut oracle = OracleCache::new(&bench.pag, OracleConfig::default());
        let report = diff_answers(&result.answers, &mut oracle);
        assert!(
            report.ok(),
            "PARCFL_TEST_SEED={seed} profile tiny({}): {:?}",
            derive(seed, i),
            report.mismatches
        );
        assert!(report.compared > 0, "nothing completed under ample budget");
    }
}

/// Top-level `FlowsTo` answers equal the oracle's as full `(node, call
/// string)` sets, for every object of a dozen programs, on both state
/// backends, context-sensitive and not. Everything else checks the
/// forward traversal only through `PointsTo` answers it contributed to, or
/// at node level against its own backward dual (`properties.rs`).
#[test]
fn flows_to_matches_oracle_exactly() {
    let seed = test_seed();
    let mut compared = 0;
    for i in 0..12u64 {
        let profile_seed = derive(seed, 0xF70_0000 + i);
        let bench = build_bench(&Profile::tiny(profile_seed));
        let pag = &bench.pag;
        let objects: Vec<_> = pag
            .node_ids()
            .filter(|&n| !pag.kind(n).is_variable())
            .collect();
        for context_sensitive in [true, false] {
            let want = with_big_stack(|| {
                let cfg = OracleConfig {
                    context_sensitive,
                    ..OracleConfig::default()
                };
                let mut oracle = Oracle::with_config(pag, cfg);
                objects
                    .iter()
                    .map(|&o| oracle.flows_to(o))
                    .collect::<Vec<_>>()
            });
            for state in [StateBackend::Hash, StateBackend::Dense] {
                let cfg = SolverConfig {
                    budget: 5_000_000,
                    context_sensitive,
                    state,
                    ..SolverConfig::default()
                };
                let mut solver = Solver::new(pag, &cfg, &NoJmpStore);
                for (&o, want) in objects.iter().zip(&want) {
                    // Complete answers only: out of budget says nothing.
                    let out = solver.flows_to_query(o, 0);
                    let Some(got) = out.answer.complete().map(normalize) else {
                        continue;
                    };
                    assert_eq!(
                        Some(got.as_slice()),
                        want.complete(),
                        "PARCFL_TEST_SEED={seed} tiny({profile_seed}) FlowsTo({o}) \
                         ctx={context_sensitive} state={state}: oracle said {want:?}"
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 0, "nothing completed under ample budget");
}

/// 100 seeded fuzz iterations across Naive/D/DQ × Simulated/Threaded,
/// ample and tight budgets, perturbed schedules, traced runs: zero
/// oracle mismatches, zero soundness violations.
#[test]
fn fuzz_differential_zero_mismatches() {
    let seed = test_seed();
    let cfg = FuzzConfig {
        iters: fuzz_iters(),
        seed,
        shrink: false,
        threaded_every: 10,
        chaos: false,
        use_small: true,
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&cfg);
    if let Some(f) = &report.failure {
        panic!(
            "PARCFL_TEST_SEED={seed} iteration {}: {}\n{}",
            f.iteration,
            f.detail,
            f.scenario.to_snapshot()
        );
    }
    assert!(report.compared > 0, "fuzzer compared nothing");
    let ratio = report.precision_ratio();
    assert!(
        ratio <= 1.0,
        "demand answers larger than the inclusion-based over-approximation \
         (ratio {ratio}, seed {seed})"
    );
}

/// Demand ⊆ Andersen on every table1 synthetic benchmark under its own
/// evaluation budget (completed answers only; OutOfBudget says nothing).
///
/// Each bench checks a deterministic stride sample of ≤ 100 queries to
/// keep debug-build test time bounded; set `PARCFL_SOUNDNESS_FULL=1` for
/// the exhaustive sweep (what nightly CI runs via `parcfl check`).
#[test]
fn andersen_soundness_on_table1_suite() {
    let full = std::env::var("PARCFL_SOUNDNESS_FULL").is_ok();
    for profile in table1_profiles() {
        let bench = build_bench(&profile);
        let queries: Vec<_> = if full || bench.queries.len() <= 100 {
            bench.queries.clone()
        } else {
            let stride = bench.queries.len().div_ceil(100);
            bench.queries.iter().copied().step_by(stride).collect()
        };
        let result = run_seq(&bench.pag, &queries, &bench.solver);
        let report = check_soundness(&bench.pag, &result.answers);
        assert!(
            report.ok(),
            "{}: {} soundness violations, first {:?}",
            bench.name,
            report.violations.len(),
            report.violations.first()
        );
        assert!(
            report.precision_ratio() <= 1.0,
            "{}: demand answers exceed inclusion sizes",
            bench.name
        );
    }
}

/// Fault-injection self-test: with `Fault::blind_jmp_keys` (context-blind
/// jmp sharing) the fuzzer must catch the corruption and shrink it to a
/// counterexample of ≤ 10 edges and ≤ 2 queries that round-trips through
/// the snapshot format and disappears when the fault is disabled.
#[test]
fn chaos_bug_is_caught_and_shrinks_small() {
    let seed = test_seed();
    // Greedy shrinking is 1-minimal, not globally minimal: an unlucky
    // instance can bottom out just above the bound. Scan a few attempts
    // and keep the smallest counterexample, stopping as soon as one
    // meets the target.
    let mut found: Option<parcfl::check::FuzzFailure> = None;
    for attempt in 0..8u64 {
        let cfg = FuzzConfig {
            iters: 15,
            seed: derive(seed, 0xC4A0_5000 + attempt),
            shrink: true,
            threaded_every: 0,
            chaos: true,
            use_small: false,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg);
        if let Some(f) = report.failure {
            let better = found
                .as_ref()
                .is_none_or(|b| f.scenario.pag.edge_count() < b.scenario.pag.edge_count());
            if better {
                found = Some(f);
            }
            let best = found.as_ref().unwrap();
            if best.scenario.pag.edge_count() <= 10 && best.scenario.queries.len() <= 2 {
                break;
            }
        }
    }
    let f = found.unwrap_or_else(|| {
        panic!("PARCFL_TEST_SEED={seed}: injected sharing bug was never caught")
    });
    let sc = &f.scenario;
    assert!(
        sc.pag.edge_count() <= 10,
        "PARCFL_TEST_SEED={seed}: shrunk to {} edges (> 10)\n{}",
        sc.pag.edge_count(),
        sc.to_snapshot()
    );
    assert!(
        sc.queries.len() <= 2,
        "PARCFL_TEST_SEED={seed}: shrunk to {} queries (> 2)",
        sc.queries.len()
    );
    // The minimised counterexample survives a snapshot round-trip…
    let back = Scenario::from_snapshot(&sc.to_snapshot()).expect("snapshot parses");
    assert!(
        scenario_fails(&back),
        "PARCFL_TEST_SEED={seed}: round-tripped counterexample no longer fails"
    );
    // …and the failure is the injected fault, not the input: the same
    // scenario passes with the fault disabled.
    let mut clean = back.clone();
    clean.fault.blind_jmp_keys = false;
    assert!(
        !scenario_fails(&clean),
        "PARCFL_TEST_SEED={seed}: scenario fails even without the injected fault"
    );
}
