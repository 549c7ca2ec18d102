//! Incremental analysis properties (DESIGN.md §12): PAG deltas with
//! selective jmp/schedule invalidation must be indistinguishable from
//! cold starts.
//!
//! Three layers of proof:
//!
//! 1. **Graph layer** — a [`Pag`] produced by `apply_delta` behaves
//!    bit-identically to a from-scratch frozen graph with the same edge
//!    set: answers *and* deterministic step counters, under both state
//!    backends.
//! 2. **Session layer** — warm re-queries after `apply_delta` (jmp
//!    store and kept answers selectively invalidated by footprint)
//!    answer exactly like a cold session on the edited graph, under
//!    both state backends at every thread count.
//!    A session that keeps answers is held to the same: over seeded
//!    edit scripts every batch equals a fresh session's on that
//!    revision, and the queries whose answers it kept are not run.
//! 3. **Battery layer** — a deliberately broken invalidation
//!    (`Fault::skip_invalidation`) is caught by the differential fuzzer
//!    and shrunk to a ≤ 10-edge, ≤ 3-edit counterexample that passes
//!    once the fault is removed.

use parcfl::check::seed::derive;
use parcfl::check::{run_fuzz, scenario_fails, test_seed, FuzzConfig, Scenario};
use parcfl::core::{JmpStore, SolverConfig, StateBackend};
use parcfl::frontend::build_pag;
use parcfl::pag::{DeltaOp, EdgeKind, NodeId, Pag, PagDelta};
use parcfl::runtime::{run_seq, AnalysisSession, Backend, Mode, TraceLevel};
use parcfl::synth::mutate::sample_edits;
use parcfl::synth::{build_bench, Profile};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn ample(state: StateBackend) -> SolverConfig {
    SolverConfig {
        budget: 5_000_000,
        tau_finished: 0,
        tau_unfinished: 0,
        state,
        ..SolverConfig::default()
    }
}

/// The `AssignLocal` edge between two named locals, in either direction.
fn assign_edge_between(pag: &Pag, a: &str, b: &str) -> parcfl::pag::Edge {
    let na = pag.node_by_name(a).expect("node a");
    let nb = pag.node_by_name(b).expect("node b");
    *pag.edges()
        .iter()
        .find(|e| {
            e.kind == EdgeKind::AssignLocal
                && ((e.src == na && e.dst == nb) || (e.src == nb && e.dst == na))
        })
        .expect("assign edge between the named locals")
}

/// Layer 1: `apply_delta` graphs are bit-identical to cold rebuilds.
///
/// For several seeded benches and edit scripts, apply the delta, then
/// rebuild a graph from scratch with the identical edge set. Every
/// observable — answers and traversed-step totals — must match under
/// both state backends.
#[test]
fn applied_delta_graph_is_bit_identical_to_cold_rebuild() {
    let seed = test_seed();
    let mut effective = 0u32;
    for i in 0..3u64 {
        let bench = build_bench(&Profile::tiny(derive(seed, 0xD0_0000 + i)));
        let mut delta = PagDelta::new();
        for op in sample_edits(&bench.pag, derive(seed, 0xD1_0000 + i), 4) {
            delta.push(op);
        }
        let (edited, effect) = bench.pag.apply_delta(&delta);
        if effect.is_noop() {
            continue;
        }
        effective += 1;
        let rebuilt = edited.with_edges(edited.edges());
        assert_eq!(edited.edges(), rebuilt.edges(), "same canonical edge set");
        let queries: Vec<NodeId> = bench.queries.iter().copied().take(8).collect();
        for state in [StateBackend::Dense, StateBackend::Hash] {
            let solver = ample(state);
            let a = run_seq(&edited, &queries, &solver);
            let b = run_seq(&rebuilt, &queries, &solver);
            assert_eq!(
                a.sorted_answers(),
                b.sorted_answers(),
                "PARCFL_TEST_SEED={seed} i={i} {state:?}: answers"
            );
            assert_eq!(
                a.stats.traversed_steps, b.stats.traversed_steps,
                "PARCFL_TEST_SEED={seed} i={i} {state:?}: steps"
            );
        }
    }
    assert!(effective > 0, "every sampled edit script was a no-op");
}

/// Layer 2: warm incremental sessions equal cold sessions on the edited
/// graph — both state backends, threads {1, 2, 4, 8}.
#[test]
fn incremental_session_equals_cold_session_across_grid() {
    let seed = test_seed();
    let bench = build_bench(&Profile::tiny(derive(seed, 0xD2_0000)));
    let queries: Vec<NodeId> = bench.queries.iter().copied().take(8).collect();
    // A guaranteed-effective script: remove a real edge, then a sampled op.
    let mut edits = vec![DeltaOp::RemoveEdge(bench.pag.edges()[0])];
    edits.extend(sample_edits(&bench.pag, derive(seed, 0xD3_0000), 1));
    for state in [StateBackend::Dense, StateBackend::Hash] {
        for threads in [1usize, 2, 4, 8] {
            let solver = ample(state);
            let mut warm_session = AnalysisSession::new(&bench.pag)
                .with_solver(solver.clone())
                .with_threads(threads);
            warm_session.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
            let mut warm = None;
            for op in &edits {
                let mut d = PagDelta::new();
                d.push(*op);
                warm_session.apply_delta(&d);
                warm =
                    Some(warm_session.submit(&queries, Mode::DataSharingSched, Backend::Simulated));
            }
            let edited = warm_session.pag().clone();
            let mut cold_session = AnalysisSession::new(&edited)
                .with_solver(solver)
                .with_threads(threads);
            let cold = cold_session.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
            assert_eq!(
                warm.expect("edit script is non-empty").sorted_answers(),
                cold.sorted_answers(),
                "PARCFL_TEST_SEED={seed} {state:?} threads={threads}: \
                 warm re-query diverges from cold session"
            );
        }
    }
}

/// Two disjoint maker-call chains (`p{i} = call this.mk{i}(); x{i} =
/// p{i}.f; y{i} = x{i}`): the shape whose field-load traversals populate
/// the jmp store. Chain edits must invalidate only their own chain's
/// entries.
fn two_chains() -> Pag {
    let src = "class Obj { } class Box { field f: Obj; }
               class A {
                 method mk0(): Box { var b0: Box; var v0: Obj;
                   b0 = new Box; v0 = new Obj; b0.f = v0; return b0; }
                 method mk1(): Box { var b1: Box; var v1: Obj;
                   b1 = new Box; v1 = new Obj; b1.f = v1; return b1; }
                 method m() {
                   var p0: Box; var x0: Obj; var y0: Obj;
                   var p1: Box; var x1: Obj; var y1: Obj;
                   p0 = call this.mk0(); x0 = p0.f; y0 = x0;
                   p1 = call this.mk1(); x1 = p1.f; y1 = x1;
                 } }";
    build_pag(src).unwrap().pag
}

/// Removing an edge in the middle of a traversal footprint invalidates
/// the entries that walked it — and only those — and the warm re-query
/// matches a cold run on the edited graph. The disjoint sibling chain's
/// entries stay warm.
#[test]
fn removing_a_footprint_edge_invalidates_selectively() {
    let pag = two_chains();
    let queries = pag.application_locals();
    let mut session = AnalysisSession::new(&pag)
        .with_solver(ample(StateBackend::Dense))
        .with_threads(2);
    session.submit(&queries, Mode::DataSharing, Backend::Simulated);
    let resident = session.store_entries() as u64;
    assert!(resident > 0, "sharing run left warm entries");

    // Cut x0 -> y0: dirty {x0, y0}. Entries whose footprints stay on
    // chain 1 survive.
    let e = assign_edge_between(&pag, "x0@A.m", "y0@A.m");
    let mut delta = PagDelta::new();
    delta.remove_edge(e.src, e.dst, e.kind);
    let report = session.apply_delta(&delta);
    assert!(!report.noop);
    assert_eq!(report.revision, 1);
    assert!(report.invalidated_jmps > 0, "footprint hit must invalidate");
    assert!(report.retained_jmps > 0, "disjoint chain must stay warm");
    assert_eq!(report.invalidated_jmps + report.retained_jmps, resident);

    let warm = session.submit(&queries, Mode::DataSharing, Backend::Simulated);
    let cold = run_seq(session.pag(), &queries, &ample(StateBackend::Dense));
    assert_eq!(warm.sorted_answers(), cold.sorted_answers());
    // The edit genuinely changed the answer: y0 no longer reaches the
    // object mk0 boxes.
    let y0 = session.pag().node_by_name("y0@A.m").unwrap();
    let y0_pts = warm
        .sorted_answers()
        .iter()
        .find(|(q, _)| *q == y0)
        .and_then(|(_, ans)| ans.complete().map(<[_]>::len))
        .expect("y0 completed");
    assert_eq!(y0_pts, 0, "cut chain empties y0's points-to set");
}

/// Severing a call site — removing its `param` and `ret` edges, while its
/// interned contexts stay allocated — drops the flow through it; the warm
/// re-query agrees with a cold run and the callee-routed answer
/// disappears.
#[test]
fn deleting_a_call_site_invalidates_and_requeries_match() {
    let pag = two_chains();
    let queries = pag.application_locals();
    let p0 = pag.node_by_name("p0@A.m").unwrap();
    // Chain 0's call site: the one whose Ret edge lands in p0.
    let cs = pag
        .edges()
        .iter()
        .find_map(|e| match e.kind {
            EdgeKind::Ret(cs) if e.dst == p0 => Some(cs),
            _ => None,
        })
        .expect("the mk0 call produced a ret edge into p0");
    let mut session = AnalysisSession::new(&pag)
        .with_solver(ample(StateBackend::Dense))
        .with_threads(1);
    let before = session.submit(&queries, Mode::DataSharing, Backend::Simulated);
    assert!(session.store_entries() > 0, "sharing run left warm entries");
    let y0 = pag.node_by_name("y0@A.m").unwrap();
    let pts_of = |r: &parcfl::runtime::RunResult, q: NodeId| {
        r.sorted_answers()
            .iter()
            .find(|(n, _)| *n == q)
            .and_then(|(_, ans)| ans.complete().map(<[_]>::len))
            .expect("query completed")
    };
    assert_eq!(pts_of(&before, y0), 1, "call routes the boxed object to y0");

    let mut delta = PagDelta::new();
    for &e in pag
        .edges()
        .iter()
        .filter(|e| e.kind.call_site() == Some(cs))
    {
        delta.push(DeltaOp::RemoveEdge(e));
    }
    let report = session.apply_delta(&delta);
    assert!(!report.noop, "severing a live call site is effective");
    assert!(report.invalidated_jmps > 0);
    // No delta touches the call-site id space: contexts interned over the
    // severed site stay valid, the graph just no longer reaches them.
    assert_eq!(session.pag().call_site_count(), pag.call_site_count());

    let warm = session.submit(&queries, Mode::DataSharing, Backend::Simulated);
    let cold = run_seq(session.pag(), &queries, &ample(StateBackend::Dense));
    assert_eq!(warm.sorted_answers(), cold.sorted_answers());
    assert_eq!(pts_of(&warm, y0), 0, "severed call empties y0's answer");
}

/// An exhausted query start is dropped by every delta, like the
/// unfinished entries beside it: once an edit cuts the chain that made
/// `q1` run out, `q2 = q1` completes, and answers what a cold session on
/// the edited graph answers.
#[test]
fn an_edit_drops_the_exhausted_starts_it_may_have_falsified() {
    let vars: String = (0..=100).map(|i| format!(" var a{i}: Obj;")).collect();
    let copies: String = (1..=100).map(|i| format!(" a{i} = a{};", i - 1)).collect();
    let pag = build_pag(&format!(
        "class Obj {{ }} class A {{ method m() {{ var q1: Obj; var q2: Obj; var v: Obj;{vars} \
         a0 = new Obj;{copies} q1 = a100; v = new Obj; q1 = v; q2 = q1; }} }}"
    ))
    .unwrap()
    .pag;
    let cfg = SolverConfig::default()
        .with_budget(40)
        .without_tau_thresholds();
    let (q1, q2) = (
        pag.node_by_name("q1@A.m").unwrap(),
        pag.node_by_name("q2@A.m").unwrap(),
    );
    let mut session = AnalysisSession::new(&pag).with_solver(cfg.clone());
    let dq = |s: &mut AnalysisSession<'_>, q: NodeId| {
        s.submit(&[q], Mode::DataSharingSched, Backend::Threaded)
    };
    assert_eq!(dq(&mut session, q1).stats.out_of_budget, 1);
    let stopped = dq(&mut session, q2);
    assert_eq!(
        (
            stopped.stats.out_of_budget,
            stopped.stats.early_terminations
        ),
        (1, 1)
    );
    let starts = session.store().exhausted_starts().unwrap();
    assert_eq!(starts.len(), 2, "q1 exhausted, q2 stopped at q1");

    let e = assign_edge_between(&pag, "a100@A.m", "q1@A.m");
    let mut delta = PagDelta::new();
    delta.remove_edge(e.src, e.dst, e.kind);
    assert!(!session.apply_delta(&delta).noop);
    assert!(session.store().exhausted_starts().unwrap().is_empty());

    let warm = dq(&mut session, q2);
    let mut cold_session = AnalysisSession::new(session.pag()).with_solver(cfg);
    let cold = dq(&mut cold_session, q2);
    assert_eq!(warm.stats.out_of_budget, 0);
    assert_eq!(warm.sorted_answers(), cold.sorted_answers());
    assert_eq!(warm.answers[0].1.nodes().map(|n| n.len()), Some(1));
}

/// A no-op edit (removing an absent edge, re-adding a present one)
/// bumps nothing: no revision change, zero invalidation, the store
/// untouched, and the next submit is served warm with identical answers.
#[test]
fn noop_edit_invalidates_nothing() {
    let bench = build_bench(&Profile::tiny(7));
    let queries = &bench.queries;
    let cold = run_seq(&bench.pag, queries, &ample(StateBackend::Dense));
    let mut session = AnalysisSession::new(&bench.pag)
        .with_solver(ample(StateBackend::Dense))
        .with_threads(1);
    let half = &queries[..queries.len() / 2];
    let first = session.submit(half, Mode::DataSharing, Backend::Simulated);
    let resident = session.store_entries();

    let e0 = bench.pag.edges()[0];
    let mut delta = PagDelta::new();
    // Removing an absent edge and re-adding a present one both cancel.
    delta.remove_edge(NodeId::new(0), NodeId::new(0), EdgeKind::AssignLocal);
    delta.add_edge(e0.src, e0.dst, e0.kind);
    let report = session.apply_delta(&delta);
    assert!(report.noop);
    assert_eq!(report.revision, 0, "revision does not advance on a no-op");
    assert_eq!(report.invalidated_jmps, 0);
    assert_eq!(report.invalidated_answers, 0);
    assert_eq!(session.store_entries(), resident, "store untouched");

    let warm = session.submit(queries, Mode::DataSharing, Backend::Simulated);
    assert_eq!(warm.sorted_answers(), cold.sorted_answers());
    assert_eq!(
        warm.stats.retained_answers, first.stats.completed as u64,
        "every answer of the first batch is still held"
    );
    assert!(
        warm.stats.warm_hits > 0,
        "the rest of the re-query is served from the warm store"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Layer 2, for the answers a session keeps: over seeded edit scripts,
    /// on both backends, every batch of a long-lived session equals a
    /// fresh session's on the same revision — kept answers included — and
    /// no query whose answer was kept is run.
    #[test]
    fn retaining_session_equals_a_fresh_one_at_every_revision(seed in 0u64..1_000) {
        let bench = build_bench(&Profile::tiny(seed));
        let queries = &bench.queries;
        let mode = Mode::DataSharingSched;
        for (backend, state) in [
            (Backend::Simulated, StateBackend::Dense),
            (Backend::Threaded, StateBackend::Hash),
        ] {
            fn open(pag: &Pag, state: StateBackend) -> AnalysisSession<'_> {
                AnalysisSession::new(pag)
                    .with_solver(ample(state))
                    .with_threads(2)
                    .with_tracing(TraceLevel::Spans)
            }
            let mut session = open(&bench.pag, state);
            let mut held = 0;
            for round in 0..5u64 {
                if round > 0 {
                    let mut delta = PagDelta::new();
                    let ops = 1 + (round as usize) % 3;
                    for op in sample_edits(session.pag(), derive(seed, 0xD4_0000 + round), ops) {
                        delta.push(op);
                    }
                    let report = session.apply_delta(&delta);
                    if !report.noop {
                        prop_assert_eq!(report.invalidated_answers + report.retained_answers, held);
                        held = report.retained_answers;
                    }
                }
                let got = session.submit(queries, mode, backend);
                let revision = session.pag().clone();
                let fresh = open(&revision, state).submit(queries, mode, backend);
                prop_assert_eq!(
                    got.sorted_answers(),
                    fresh.sorted_answers(),
                    "seed {} {:?} round {}", seed, backend, round
                );
                prop_assert_eq!(got.stats.retained_answers, held);
                prop_assert_eq!(got.stats.queries, queries.len());
                let ran: BTreeSet<NodeId> = got.trace.iter()
                    .flat_map(|t| &t.workers)
                    .flat_map(|w| &w.events)
                    .map(|span| span.query)
                    .collect();
                prop_assert_eq!(
                    ran.len() as u64 + held,
                    queries.len() as u64,
                    "seed {} {:?} round {}: a kept query ran", seed, backend, round
                );
                // The ample budget completes every query, so after the
                // batch the session holds them all.
                prop_assert_eq!(got.stats.completed, queries.len());
                held = queries.len() as u64;
            }
        }
    }
}

/// Layer 3 (the battery proves itself): with invalidation deliberately
/// skipped, the fuzzer's mutate-then-requery dimension must catch the
/// stale-answer divergence and shrink it to ≤ 10 edges and ≤ 3 edits —
/// and the shrunk counterexample must pass once the fault is removed.
#[test]
fn skipped_invalidation_is_caught_and_shrinks_small() {
    let seed = test_seed();
    let mut found: Option<parcfl::check::FuzzFailure> = None;
    for attempt in 0..8u64 {
        let cfg = FuzzConfig {
            iters: 15,
            seed: derive(seed, 0xDE17_A000 + attempt),
            shrink: true,
            threaded_every: 0,
            chaos: false,
            use_small: false,
            delta: true,
            skip_invalidation: true,
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
            if best.scenario.pag.edge_count() <= 10 && best.scenario.deltas.len() <= 3 {
                break;
            }
        }
    }
    let f = found.unwrap_or_else(|| {
        panic!("PARCFL_TEST_SEED={seed}: skipped invalidation was never caught")
    });
    let sc = &f.scenario;
    assert!(
        sc.pag.edge_count() <= 10,
        "PARCFL_TEST_SEED={seed}: shrunk to {} edges (> 10)\n{}",
        sc.pag.edge_count(),
        sc.to_snapshot()
    );
    assert!(
        sc.deltas.len() <= 3,
        "PARCFL_TEST_SEED={seed}: shrunk to {} edits (> 3)",
        sc.deltas.len()
    );
    assert!(
        !sc.deltas.is_empty(),
        "PARCFL_TEST_SEED={seed}: the counterexample must hinge on an edit"
    );
    // Round-trips through the snapshot format and still fails…
    let back = Scenario::from_snapshot(&sc.to_snapshot()).expect("snapshot parses");
    assert!(
        scenario_fails(&back),
        "PARCFL_TEST_SEED={seed}: round-tripped counterexample no longer fails"
    );
    // …and the failure is the injected fault, not the input.
    let mut clean = back.clone();
    clean.fault.skip_invalidation = false;
    assert!(
        !scenario_fails(&clean),
        "PARCFL_TEST_SEED={seed}: scenario fails even with invalidation restored"
    );
}
