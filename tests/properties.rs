//! Property-based tests (proptest) over randomly generated programs.
//!
//! Programs come from the synthetic generator (arbitrary seeds and sizes),
//! so each case exercises the full pipeline: generation → parse round-trip
//! → extraction → analysis.

use parcfl::core::{Answer, NoJmpStore, SharedJmpStore, Solver, SolverConfig};
use parcfl::runtime::{run, run_seq, Backend, Mode, RunConfig};
use parcfl::synth::{build_bench, generate, table1_profiles, Profile};
use proptest::prelude::*;

fn small_profile(seed: u64, apps: usize, idioms: usize) -> Profile {
    Profile {
        name: format!("prop-{seed}"),
        seed,
        value_classes: 2,
        box_classes: 2,
        collections: 1,
        app_classes: apps.clamp(1, 3),
        methods_per_class: 2,
        idioms_per_method: idioms.clamp(1, 4),
        idiom_weights: [2, 2, 2, 2, 1, 2, 2, 1, 0],
        subclass_percent: 30,
        budget: 200_000,
    }
}

fn ample() -> SolverConfig {
    SolverConfig::default().with_budget(2_000_000)
}

/// The τF values the sharing property quantifies over: none, the
/// calibrated default and the paper's.
fn taus() -> [u64; 3] {
    [0, SolverConfig::default().tau_finished, 100]
}

/// Queries drawn from a Table-I program per case.
const TABLE1_SAMPLE: usize = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pretty-printer and parser round-trip every generated program.
    #[test]
    fn generated_programs_round_trip(seed in 0u64..10_000, apps in 1usize..4, idioms in 1usize..5) {
        let prog = generate(&small_profile(seed, apps, idioms));
        let text = parcfl::frontend::pretty::pretty(&prog);
        let back = parcfl::frontend::parse(&text).expect("reparse");
        prop_assert_eq!(prog, back);
    }

    /// pointsTo / flowsTo duality: o ∈ pts(v) ⇔ v ∈ flowsTo(o).
    #[test]
    fn points_to_flows_to_duality(seed in 0u64..10_000) {
        let prog = generate(&small_profile(seed, 2, 3));
        let pag = parcfl::frontend::extract(&prog).unwrap().pag;
        let cfg = ample();
        let store = NoJmpStore;
        let mut solver = Solver::new(&pag, &cfg, &store);
        for v in pag.application_locals().into_iter().take(12) {
            let Some(objs) = solver.points_to_query(v, 0).answer.nodes() else { continue };
            for o in objs {
                let vars = solver.flows_to_query(o, 0).answer.nodes();
                let Some(vars) = vars else { continue };
                prop_assert!(
                    vars.contains(&v),
                    "o={:?} in pts({:?}) but not dual", o, v
                );
            }
        }
    }

    /// Data sharing never changes completed answers, and τ is a pure
    /// performance knob: at τF ∈ {0, default, 100} a generated program's
    /// completed answers equal those without a store, and a sample of a
    /// Table-I program under DQ on two workers (simulated and threaded)
    /// completes what `run_seq` completes with the same answers. On the
    /// deterministic simulator the number of completed queries does not
    /// move with τF either.
    #[test]
    fn sharing_preserves_answers(seed in 0u64..10_000, program in 0usize..20) {
        let prog = generate(&small_profile(seed, 2, 3));
        let pag = parcfl::frontend::extract(&prog).unwrap().pag;
        let cfg = ample();
        let plain_store = NoJmpStore;
        let mut plain = Solver::new(&pag, &cfg, &plain_store);
        let locals = pag.application_locals();
        let expected: Vec<_> = locals.iter().map(|&v| plain.points_to_query(v, 0).answer).collect();
        for tau in taus() {
            let share_cfg = SolverConfig {
                tau_finished: tau,
                tau_unfinished: 0,
                ..ample()
            };
            let share_store = SharedJmpStore::new();
            let mut shared = Solver::new(&pag, &share_cfg, &share_store);
            for (&v, a) in locals.iter().zip(&expected) {
                let b = shared.points_to_query(v, 0).answer;
                if let (Answer::Complete(_), Answer::Complete(_)) = (a, &b) {
                    prop_assert_eq!(a, &b, "τF {}", tau);
                }
            }
        }

        let b = build_bench(&table1_profiles()[program]);
        let stride = (b.queries.len() / TABLE1_SAMPLE).max(1);
        let sample: Vec<_> = b.queries.iter().copied()
            .skip(seed as usize % stride).step_by(stride).take(TABLE1_SAMPLE).collect();
        let seq = run_seq(&b.pag, &sample, &b.solver).sorted_answers();
        let mut simulated_completed = Vec::new();
        for tau in taus() {
            let solver = SolverConfig { tau_finished: tau, ..b.solver.clone() };
            for backend in [Backend::Simulated, Backend::Threaded] {
                let cfg = RunConfig::new(Mode::DataSharingSched, 2, backend).with_solver(solver.clone());
                let r = run(&b.pag, &sample, &cfg);
                let dq = r.sorted_answers();
                prop_assert_eq!(dq.len(), seq.len());
                for ((q, a), (sq, s)) in dq.iter().zip(&seq) {
                    prop_assert_eq!(q, sq);
                    if let (Answer::Complete(_), Answer::Complete(_)) = (a, s) {
                        prop_assert_eq!(a, s, "{} τF {} {:?}", b.name, tau, backend);
                    }
                }
                if backend == Backend::Simulated {
                    simulated_completed.push(r.stats.completed);
                }
            }
        }
        prop_assert!(
            simulated_completed.windows(2).all(|w| w[0] == w[1]),
            "{}: completed queries moved with τF: {:?}", b.name, simulated_completed
        );
    }

    /// Context-sensitive results refine context-insensitive ones.
    #[test]
    fn context_sensitivity_refines(seed in 0u64..10_000) {
        let prog = generate(&small_profile(seed, 2, 3));
        let pag = parcfl::frontend::extract(&prog).unwrap().pag;
        let cs = ample();
        let ci = SolverConfig { context_sensitive: false, ..ample() };
        let store = NoJmpStore;
        let mut s_cs = Solver::new(&pag, &cs, &store);
        let mut s_ci = Solver::new(&pag, &ci, &store);
        for v in pag.application_locals().into_iter().take(12) {
            let a = s_cs.points_to_query(v, 0).answer.nodes();
            let b = s_ci.points_to_query(v, 0).answer.nodes();
            if let (Some(a), Some(b)) = (a, b) {
                for o in &a {
                    prop_assert!(
                        b.contains(o),
                        "context-sensitive found {:?} that insensitive missed on {:?}", o, v
                    );
                }
            }
        }
    }

    /// Andersen's whole-program analysis over-approximates the demand-driven
    /// CFL results (it is context-insensitive and flow-insensitive).
    #[test]
    fn andersen_over_approximates_cfl(seed in 0u64..10_000) {
        let prog = generate(&small_profile(seed, 2, 3));
        let pag = parcfl::frontend::extract(&prog).unwrap().pag;
        let whole = parcfl::andersen::analyze(&pag);
        let cfg = ample();
        let store = NoJmpStore;
        let mut solver = Solver::new(&pag, &cfg, &store);
        for v in pag.application_locals().into_iter().take(12) {
            let Some(objs) = solver.points_to_query(v, 0).answer.nodes() else { continue };
            let andersen_objs = whole.pts_of(v);
            for o in objs {
                prop_assert!(
                    andersen_objs.contains(&o),
                    "CFL found {:?} for {:?} that Andersen missed (unsound?)", o, v
                );
            }
        }
    }

    /// Cycle collapsing preserves points-to results (modulo the node remap).
    #[test]
    fn cycle_collapsing_preserves_answers(seed in 0u64..10_000) {
        let prog = generate(&small_profile(seed, 2, 3));
        let e = parcfl::frontend::extract(&prog).unwrap();
        let collapsed = parcfl::frontend::cycles::collapse_assign_cycles(&e.pag);
        let cfg = ample();
        let store = NoJmpStore;
        let mut orig = Solver::new(&e.pag, &cfg, &store);
        let mut coll = Solver::new(&collapsed.pag, &cfg, &store);
        for v in e.pag.application_locals().into_iter().take(12) {
            let a = orig.points_to_query(v, 0).answer.nodes();
            let b = coll.points_to_query(collapsed.remap[v.index()], 0).answer.nodes();
            let (Some(a), Some(b)) = (a, b) else { continue };
            // Objects are never merged, but their ids shift: compare names.
            let names = |pag: &parcfl::pag::Pag, os: &[parcfl::pag::NodeId]| {
                let mut v: Vec<String> = os
                    .iter()
                    .map(|&o| pag.node(o).name.split('+').next().unwrap().to_string())
                    .collect();
                v.sort();
                v
            };
            prop_assert_eq!(names(&e.pag, &a), names(&collapsed.pag, &b));
        }
    }
}
