//! The seeded schedule fuzzer: random scenarios, differential-checked.
//!
//! Each iteration derives an independent RNG stream from the base seed,
//! samples a scenario — synthetic program (tiny/small profile), query
//! subset, mode, backend, thread count, budget regime, τ thresholds,
//! context sensitivity, state backend (hash/dense), simulator
//! perturbation, tracing — runs it, and checks every completed answer two
//! ways:
//!
//! * **exactly** against the naive oracle ([`crate::diff`]);
//! * **for soundness** against the Andersen whole-program solution
//!   ([`crate::andersen_check`]);
//!
//! and every out-of-budget answer whose query start the run's jmp store
//! recorded as exhausted against a solver without a store under the same
//! budget ([`exhausted_start_divergence`]): the early terminations such a
//! start causes are exact only if that solver runs out too.
//!
//! A quarter of eligible iterations carry a mutate-then-requery edit
//! script ([`Scenario::deltas`]): the run answers cold, applies each PAG
//! delta with selective warm-state invalidation, and re-queries. All
//! oracle/soundness checks then run against the *edited* graph
//! ([`Scenario::final_pag`]), and [`incremental_divergence`] additionally
//! replays the edited graph cold — warm incremental answers must be
//! bit-identical. The `skip_invalidation` self-test skips invalidation
//! on purpose and expects the battery to fail.
//!
//! On the first failing iteration the scenario is (optionally) shrunk to
//! a 1-minimal counterexample ([`mod@crate::shrink`]) and returned along with
//! its snapshot. Everything is reproducible from `(seed, iteration)`.

use crate::andersen_check::{check_soundness, SoundnessReport};
use crate::diff::{diff_answers, DiffReport, OracleCache};
use crate::inject::{Fault, SimPerturb};
use crate::oracle::OracleConfig;
use crate::seed::derive;
use crate::shrink::{shrink, ShrinkStats};
use crate::snapshot::Scenario;
use parcfl_core::{
    Answer, Dir, JmpStore, NoJmpStore, SharedJmpStore, Solver, SolverConfig, StateBackend,
};
use parcfl_pag::{DeltaOp, EdgeKind, NodeId, Pag};
use parcfl_runtime::{Backend, Mode, RunResult, TraceLevel};
use parcfl_synth::mutate::sample_edits;
use parcfl_synth::{build_bench, Profile};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Fuzzer configuration.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Iterations to run (stops early at the first failure).
    pub iters: u64,
    /// Base seed; each iteration uses an independent derived stream.
    pub seed: u64,
    /// Shrink the first failing scenario before returning it.
    pub shrink: bool,
    /// Every `n`-th iteration runs on real threads instead of the
    /// simulator (0 = simulator only).
    pub threaded_every: u64,
    /// Fault injection self-test: set [`Fault::blind_jmp_keys`] and bias
    /// scenarios toward the sharing modes that expose it. The fuzzer is
    /// expected to FAIL when this is on — it proves the harness catches
    /// real sharing bugs.
    pub chaos: bool,
    /// Include `Profile::small` in the program pool (otherwise tiny only).
    pub use_small: bool,
    /// Force the mutate-then-requery dimension on: every eligible
    /// (simulated, ample-budget) iteration carries an edit script
    /// instead of one in four.
    pub delta: bool,
    /// Fault injection self-test for the incremental path: set
    /// [`Fault::skip_invalidation`] (deltas swap the graph
    /// but leave every warm jmp entry stale) and bias scenarios
    /// toward sharing modes, zero τ and ample budgets so the stale
    /// state is re-served. The fuzzer is expected to FAIL when this is
    /// on — it proves the battery catches broken invalidation.
    pub skip_invalidation: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 25,
            seed: crate::seed::DEFAULT_SEED,
            shrink: true,
            threaded_every: 10,
            chaos: false,
            use_small: true,
            delta: false,
            skip_invalidation: false,
        }
    }
}

/// The first failing scenario found.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Iteration index (replay with the same base seed).
    pub iteration: u64,
    /// Base seed of the run.
    pub seed: u64,
    /// What disagreed.
    pub detail: String,
    /// The failing scenario, shrunk when shrinking was enabled.
    pub scenario: Scenario,
    /// Shrink statistics, when shrinking ran.
    pub shrink_stats: Option<ShrinkStats>,
}

/// Aggregate fuzz outcome.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iters_run: u64,
    /// Answers compared exactly against the oracle.
    pub compared: u64,
    /// Answers skipped (solver out of budget).
    pub skipped_oob: u64,
    /// Answers skipped (oracle step cap).
    pub skipped_cap: u64,
    /// Σ demand points-to sizes over soundness-checked answers.
    pub demand_pts: u64,
    /// Σ Andersen points-to sizes over the same answers.
    pub inclusion_pts: u64,
    /// The first failure, if any.
    pub failure: Option<FuzzFailure>,
}

impl FuzzReport {
    /// True when no iteration failed.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }

    /// Demand/inclusion precision ratio over everything checked.
    pub fn precision_ratio(&self) -> f64 {
        if self.inclusion_pts == 0 {
            1.0
        } else {
            self.demand_pts as f64 / self.inclusion_pts as f64
        }
    }
}

/// Oracle step cap for fuzzing and shrinking. Far above what any
/// completed query on a fuzz-sized graph needs, far below the library
/// default: the shrinker evaluates the failure predicate hundreds of
/// times, and a candidate mutation that sends the naive oracle into a
/// huge exact fixpoint must be rejected in bounded time (as a `StepCap`
/// skip), not ground through.
const FUZZ_STEP_CAP: u64 = 2_000_000;

/// Whether `scenario` exhibits a failure (differential mismatch or
/// soundness violation). Threaded scenarios are run three times — real
/// interleavings vary — and fail if any run disagrees.
pub fn scenario_fails(scenario: &Scenario) -> bool {
    failure_detail(scenario).is_some()
}

/// Like [`scenario_fails`], with a description of the first disagreement.
pub fn failure_detail(scenario: &Scenario) -> Option<String> {
    let attempts = match scenario.backend {
        Backend::Threaded => 3,
        Backend::Simulated => 1,
    };
    check(scenario, attempts, |_, _| {})
}

/// The one check body behind [`failure_detail`] and [`run_fuzz`]: runs
/// `scenario` `attempts` times, hands each run's oracle diff and
/// soundness report to `tally`, and describes the first disagreement — an
/// oracle mismatch, a soundness violation, an
/// [`exhausted_start_divergence`], then (after the last run) an
/// [`incremental_divergence`]. Delta scenarios answer on the *edited*
/// graph, so both referees read [`Scenario::final_pag`]: a stale warm
/// entry served after an edit is a mismatch against that graph's truth.
fn check(
    scenario: &Scenario,
    attempts: usize,
    mut tally: impl FnMut(&DiffReport, &SoundnessReport),
) -> Option<String> {
    let oracle_cfg = OracleConfig {
        context_sensitive: scenario.solver.context_sensitive,
        step_cap: FUZZ_STEP_CAP,
        ..OracleConfig::default()
    };
    let truth = scenario.final_pag();
    let mut oracle = OracleCache::new(&truth, oracle_cfg);
    for _ in 0..attempts {
        let store = SharedJmpStore::new();
        let result = scenario.run_on(&store);
        let diff = diff_answers(&result.answers, &mut oracle);
        let sound = check_soundness(&truth, &result.answers);
        tally(&diff, &sound);
        if let Some(m) = diff.mismatches.first() {
            return Some(format!("query {}: {}", m.query, m.detail));
        }
        if let Some(&(q, o)) = sound.violations.first() {
            return Some(format!(
                "soundness violation: demand pts({q}) contains {o}, Andersen's does not"
            ));
        }
        if let Some(detail) = exhausted_start_divergence(&truth, &scenario.solver, &store, &result)
        {
            return Some(detail);
        }
    }
    incremental_divergence(scenario)
}

/// The exactness of exhausted query starts (DESIGN.md §7): a query the
/// run answered `OutOfBudget` whose start `store` holds — it ran out, or
/// a walk of it popped an earlier exhausted start and stopped — must run
/// out on a solver with no store under the same budget too. Every query
/// that rule ended is among them, its start recorded by the rule itself
/// or already there. The first that completes is described.
pub fn exhausted_start_divergence(
    pag: &Pag,
    cfg: &SolverConfig,
    store: &SharedJmpStore,
    result: &RunResult,
) -> Option<String> {
    let starts = store.exhausted_starts()?;
    let recorded = |q: NodeId| starts.get(Dir::Bwd, q).is_some();
    let mut plain = Solver::new(pag, cfg, &NoJmpStore);
    result
        .answers
        .iter()
        .filter(|(q, a)| *a == Answer::OutOfBudget && recorded(*q))
        .find(|(q, _)| plain.points_to_query(*q, 0).answer != Answer::OutOfBudget)
        .map(|(q, _)| {
            format!(
                "query {q}: out of budget at a recorded exhausted start, \
                 but a solver without a store completes it under budget {}",
                cfg.budget
            )
        })
}

/// The incremental dimension: replays a delta scenario's edited graph
/// cold (fresh session, no warm state) and reports the first completed
/// answer that differs from the warm incremental run. Only
/// Complete-vs-Complete pairs are compared — warm stores legitimately
/// move budget verdicts (fewer steps to the same fixpoint). `None` for
/// scenarios without an edit script.
pub fn incremental_divergence(scenario: &Scenario) -> Option<String> {
    if scenario.deltas.is_empty() {
        return None;
    }
    let (warm, _, _) = scenario.run_incremental();
    let mut cold = scenario.clone();
    cold.pag = scenario.final_pag();
    cold.deltas.clear();
    let cold = cold.run();
    for ((qw, aw), (qc, ac)) in warm.sorted_answers().iter().zip(cold.sorted_answers()) {
        debug_assert_eq!(*qw, qc);
        if let (Some(w), Some(c)) = (aw.complete(), ac.complete()) {
            if w != c {
                return Some(format!(
                    "incremental answer for query {qw} diverges from a cold run on the edited graph \
                     (warm {} targets, cold {})",
                    w.len(),
                    c.len()
                ));
            }
        }
    }
    None
}

/// Runs the fuzzer. Deterministic for a given configuration (modulo
/// threaded-backend interleavings, which only widen what is caught).
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..cfg.iters {
        report.iters_run = i + 1;
        let scenario = sample_scenario(cfg, i);
        let detail = check(&scenario, 1, |diff, sound| {
            report.compared += diff.compared as u64;
            report.skipped_oob += diff.skipped_oob as u64;
            report.skipped_cap += diff.skipped_cap as u64;
            report.demand_pts += sound.demand_pts as u64;
            report.inclusion_pts += sound.inclusion_pts as u64;
        });
        if let Some(detail) = detail {
            let (scenario, shrink_stats) = if cfg.shrink {
                let (s, st) = shrink(scenario, &scenario_fails);
                (s, Some(st))
            } else {
                (scenario, None)
            };
            report.failure = Some(FuzzFailure {
                iteration: i,
                seed: cfg.seed,
                detail,
                scenario,
                shrink_stats,
            });
            return report;
        }
    }
    report
}

/// Samples iteration `i`'s scenario from the derived stream.
fn sample_scenario(cfg: &FuzzConfig, i: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(derive(cfg.seed, i));
    // Both fault-injection self-tests want the same scenario shape:
    // micro graphs (shrinkable), sharing modes (stale entries get
    // re-served), ample budgets and zero τ (everything publishes).
    let chaoslike = cfg.chaos || cfg.skip_invalidation;
    let profile_seed = rng.random_range(0u64..1 << 32);
    let profile = if chaoslike {
        // Chaos runs exist to be shrunk: start from the smallest graphs
        // that still exercise calls, containers and field access, so
        // greedy delta-debugging lands near the true minimal core
        // instead of a large local minimum.
        Profile {
            name: "chaos-micro".into(),
            seed: profile_seed,
            value_classes: 1,
            box_classes: 1,
            collections: 1,
            app_classes: 1,
            methods_per_class: 2,
            idioms_per_method: 2,
            idiom_weights: [1, 2, 2, 2, 1, 2, 3, 2, 0],
            subclass_percent: 0,
            budget: 75_000,
        }
    } else if cfg.use_small && rng.random_bool(0.3) {
        Profile::small(profile_seed)
    } else {
        Profile::tiny(profile_seed)
    };
    let bench = build_bench(&profile);

    // Bound per-iteration oracle cost: up to 16 queries, sampled without
    // replacement, original order preserved.
    let queries = sample_queries(&bench.queries, 16, &mut rng);

    let mode = if chaoslike {
        // The context-blind jmp key only corrupts answers when entries are
        // shared, so bias to the sharing modes. Skipped invalidation
        // likewise only surfaces when stale entries are re-served.
        [Mode::DataSharing, Mode::DataSharingSched][rng.random_range(0usize..2)]
    } else {
        [Mode::Naive, Mode::DataSharing, Mode::DataSharingSched][rng.random_range(0usize..3)]
    };
    let backend =
        if !chaoslike && cfg.threaded_every > 0 && (i + 1).is_multiple_of(cfg.threaded_every) {
            Backend::Threaded
        } else {
            Backend::Simulated
        };

    // Budget regime: ample (every query completes — maximal differential
    // coverage) or tight (exercises OutOfBudget, unfinished jmps, early
    // termination; completed answers must still be exact). Half the
    // queries of a tiny program finish within 5 steps and a tenth need
    // more than 77 (a small program's, 7 and 408), so a tight budget is
    // drawn where some of a batch's queries run out and some do not.
    let ample = chaoslike || rng.random_bool(0.6);
    let budget = if ample {
        5_000_000
    } else {
        5 + rng.random_range(0u64..200)
    };
    // τ = 0 publishes every jmp entry (maximal sharing traffic); the
    // chaos self-test needs that to poison reliably.
    let zero_tau = chaoslike || rng.random_bool(0.5);
    let (tau_finished, tau_unfinished) = if zero_tau { (0, 0) } else { (100, 100) };
    let solver = SolverConfig {
        budget,
        tau_finished,
        tau_unfinished,
        context_sensitive: cfg.chaos || rng.random_bool(0.85),
        // Backend dimension: hash and dense must be indistinguishable in
        // every differential and soundness check.
        state: if rng.random_bool(0.5) {
            StateBackend::Hash
        } else {
            StateBackend::Dense
        },
        ..SolverConfig::default()
    };

    // Mutate-then-requery dimension: a quarter of eligible iterations
    // (simulated backend, ample budget — the oracle must see completed
    // answers on the edited graph) carry a 1–3 op edit script; `--delta`
    // forces it, the invalidation self-test requires it. Ops may cancel
    // to no-ops on purpose (the zero-invalidation path is a dimension
    // too).
    let deltas = if cfg.skip_invalidation
        || (!cfg.chaos
            && backend == Backend::Simulated
            && ample
            && (cfg.delta || rng.random_bool(0.25)))
    {
        let mut ops = sample_edits(
            &bench.pag,
            rng.random_range(0u64..1 << 32),
            rng.random_range(1usize..=3),
        );
        // The sampler draws endpoints over all nodes. Value flow into or
        // out of an object node other than its `new` edge is no program's
        // PAG, and the solvers need not agree on it: `FlowsTo` walks on
        // through the object, the inclusion solution gives it no points-to
        // set to pass on. Such an op is dropped (the script may empty) —
        // here, not in the sampler, whose scripts are also the frozen
        // benchmark's `edit_requery` input.
        ops.retain(|op| match *op {
            DeltaOp::RemoveEdge(_) => true,
            DeltaOp::AddEdge(e) => {
                let (src, dst) = (bench.pag.kind(e.src), bench.pag.kind(e.dst));
                (src.is_variable() || e.kind == EdgeKind::New) && dst.is_variable()
            }
        });
        ops
    } else {
        Vec::new()
    };

    let mut perturb = if backend == Backend::Simulated {
        let perturb = rng.random_bool(0.8).then(|| SimPerturb {
            seed: rng.random_range(0u64..1 << 32),
            fetch_jitter: rng.random_range(0u64..=4),
            pick_window: rng.random_range(1usize..=4),
            scramble_ties: rng.random_bool(0.5),
        });
        // While the jmp store was bounded, a perturbation drew a period of
        // forced sweeps and a simulated run a store cap. Both draws stay,
        // discarded, so that every later draw is what it was and each
        // seed samples the scenario it did, minus the cap.
        if perturb.is_some() && rng.random_bool(0.3) {
            rng.random_range(2u64..=12);
        }
        if rng.random_bool(0.25) {
            rng.random_range(4usize..=64);
        }
        perturb
    } else {
        None
    };
    if !deltas.is_empty() {
        // The session replay path has no simulator perturbation hook.
        perturb = None;
    }

    let threads = rng.random_range(1usize..=6);

    // Trace dimension: tracing is observation-only by contract, so it
    // must leave every oracle comparison untouched. Half the iterations
    // run with span recording on to hold that line; the draw keeps its
    // four slots so every later draw is what it was.
    let trace_level = [
        TraceLevel::Off,
        TraceLevel::Off,
        TraceLevel::Spans,
        TraceLevel::Spans,
    ][rng.random_range(0usize..4)];

    Scenario {
        pag: bench.pag,
        queries,
        mode,
        backend,
        threads,
        solver,
        fetch_cost: rng.random_range(0u64..=3),
        perturb,
        trace_level,
        deltas,
        fault: Fault {
            blind_jmp_keys: cfg.chaos,
            skip_invalidation: cfg.skip_invalidation,
        },
    }
}

fn sample_queries(
    all: &[parcfl_pag::NodeId],
    max: usize,
    rng: &mut StdRng,
) -> Vec<parcfl_pag::NodeId> {
    if all.len() <= max {
        return all.to_vec();
    }
    // Partial Fisher–Yates over indices, then restore original order.
    let mut idx: Vec<usize> = (0..all.len()).collect();
    for k in 0..max {
        let j = k + rng.random_range(0usize..idx.len() - k);
        idx.swap(k, j);
    }
    let mut picked: Vec<usize> = idx[..max].to_vec();
    picked.sort_unstable();
    picked.into_iter().map(|k| all[k]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `parcfl check --fuzz 40 --delta` used to stop at iteration 31 of the
    /// default seed on a sampled `param` edge *into* an object node, which
    /// the demand solver and the inclusion solution read differently.
    #[test]
    fn delta_scripts_add_only_edges_a_program_could_have() {
        let cfg = FuzzConfig {
            delta: true,
            ..FuzzConfig::default()
        };
        let mut adds = 0;
        for i in 0..64 {
            let sc = sample_scenario(&cfg, i);
            for op in &sc.deltas {
                if let DeltaOp::AddEdge(e) = *op {
                    adds += 1;
                    assert!(sc.pag.kind(e.dst).is_variable(), "iteration {i}: {e:?}");
                    assert!(
                        e.kind == EdgeKind::New || sc.pag.kind(e.src).is_variable(),
                        "iteration {i}: {e:?}"
                    );
                }
            }
        }
        assert!(adds > 0, "no script kept an added edge");
    }

    /// `parcfl check --fuzz 25 --chaos-invalidation` at the default seed
    /// used to shrink to a scenario with no edit left that "still failed":
    /// merging a variable into an object had made an `assign_l` edge out of
    /// the object, on which the solver and the inclusion check disagree
    /// with or without the injected fault.
    #[test]
    fn invalidation_self_test_shrinks_to_a_program_with_an_edit() {
        let report = run_fuzz(&FuzzConfig {
            skip_invalidation: true,
            ..FuzzConfig::default()
        });
        let sc = report.failure.expect("the fault is caught").scenario;
        assert!(!sc.deltas.is_empty(), "{}", sc.to_snapshot());
        let edits = sc.deltas.iter().map(|op| op.edge());
        for e in sc.pag.edges().iter().copied().chain(edits) {
            let src_is_object = !sc.pag.kind(e.src).is_variable();
            assert_eq!(src_is_object, e.kind == EdgeKind::New, "{e:?}");
            assert!(sc.pag.kind(e.dst).is_variable(), "{e:?}");
        }
    }
}
