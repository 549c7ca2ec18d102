//! Backend-identity properties for the dense-state solver core
//! (DESIGN.md §11): the hash and dense visited-state backends must be
//! indistinguishable in every completed answer on seeded synthetic
//! programs, and a solver reused for the life of its lane must answer as
//! a solver made for the query.
//!
//! All randomness derives from `PARCFL_TEST_SEED` (default fixed); every
//! failure message prints the seed to replay with. The CI stress job
//! raises the proptest sampling with `PROPTEST_CASES`.

use parcfl::check::seed::derive;
use parcfl::check::test_seed;
use parcfl::concurrent::{CtxId, DenseVisitSet, HashVisitSet, StateSet};
use parcfl::core::{Dir, SharedJmpStore, Solver, SolverConfig, StateBackend};
use parcfl::pag::{NodeId, Pag};
use parcfl::runtime::{run_seq, run_simulated, run_threaded, Backend, Mode, RunConfig};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A solver keeps its scratch — visited tables, buffers, in-flight
    /// set, push cache — for as long as its lane lives, and nothing of
    /// one query may show in the next: a shuffled batch answered on two
    /// reused solvers equals each query answered on a solver made for it,
    /// field for field of the output (`state_words` included, so the
    /// touched-words accounting does not see what the tables held
    /// before). The two reused solvers are two lanes of one batch — one
    /// store, so one interner, and a scratch each — and meet each other's
    /// context ids on every query. Each side publishes into its own store
    /// and the two evolve in lockstep; with `sharing` off the thresholds
    /// let nothing through, and the stores still carry the interner, so
    /// context ids agree there too. And the three executors are
    /// one per-query body over such a solver, so they report one
    /// `peak_state_words`.
    #[test]
    fn prop_reused_solver_is_a_fresh_solver_on_every_executor(
        seed in 0u64..1 << 32,
        small in any::<bool>(),
        dense in any::<bool>(),
        sharing in any::<bool>(),
        tight in any::<bool>(),
    ) {
        let profile = if small { Profile::small(seed) } else { Profile::tiny(seed) };
        let bench = build_bench(&profile);
        let cfg = SolverConfig {
            budget: if tight { 300 + seed % 3_000 } else { 5_000_000 },
            tau_finished: if sharing { 10 } else { u64::MAX },
            tau_unfinished: if sharing { 100 } else { u64::MAX },
            state: if dense { StateBackend::Dense } else { StateBackend::Hash },
            ..SolverConfig::default()
        };
        let mut queries: Vec<(NodeId, Dir)> =
            bench.queries.iter().map(|&q| (q, Dir::Bwd)).collect();
        shuffle(&mut queries, seed);
        let peak = reused_lanes_equal_fresh_solvers(&bench.pag, &queries, &cfg, seed)?;
        prop_assert!(peak > 0);
        if !sharing {
            let queries: Vec<NodeId> = queries.iter().map(|&(q, _)| q).collect();
            let seq = run_seq(&bench.pag, &queries, &cfg);
            prop_assert_eq!(seq.stats.peak_state_words, peak, "seed={}", seed);
            // One lane each: the same queries in the same order against
            // the same private interner.
            let one = |backend| RunConfig::new(Mode::Naive, 1, backend).with_solver(cfg.clone());
            let sim = run_simulated(&bench.pag, &queries, &one(Backend::Simulated));
            let thr = run_threaded(&bench.pag, &queries, &one(Backend::Threaded));
            prop_assert_eq!(sim.stats.peak_state_words, peak, "seed={}", seed);
            prop_assert_eq!(thr.stats.peak_state_words, peak, "seed={}", seed);
            prop_assert_eq!(sim.stats.peak_mem_items, seq.stats.peak_mem_items);
            prop_assert_eq!(thr.stats.peak_mem_items, seq.stats.peak_mem_items);
        }

        // The same, on a program whose every query pushes more distinct
        // contexts (4680 backward, 4680 forward) than a lane's push cache
        // has slots (4096): each lane's slots collide and are overwritten
        // within a query, and each lane pushes what the other interned.
        let (fanout, depth) = (8u32, 4u32);
        let (pag, up, down, obj) = call_tree(fanout, depth);
        let strings = (1..=depth).map(|d| fanout.pow(d) as usize).sum::<usize>();
        let mut queries = vec![(up, Dir::Bwd), (obj, Dir::Fwd), (down, Dir::Bwd)];
        queries.extend_from_within(..);
        shuffle(&mut queries, seed);
        let cfg = SolverConfig { budget: 5_000_000, ..cfg };
        reused_lanes_equal_fresh_solvers(&pag, &queries, &cfg, seed)?;
        // And against the program itself: one object under every call
        // string of the tree, not under whatever a stale slot named.
        let store = SharedJmpStore::new();
        let mut solver = Solver::new(&pag, &cfg, &store);
        let flows = solver.flows_to_query(obj, 0).answer.complete().unwrap().len();
        prop_assert_eq!(flows, 1 + strings + depth as usize + 1);
        let pts = solver.points_to_query(up, 0).answer.complete().unwrap().len();
        prop_assert_eq!(pts, fanout.pow(depth) as usize);
        prop_assert_eq!(solver.interner().len(), 1 + 2 * strings);
    }
}

/// Fisher-Yates over `derive(seed, ·)`.
fn shuffle<T>(v: &mut [T], seed: u64) {
    for i in (1..v.len()).rev() {
        v.swap(i, (derive(seed, i as u64) % (i as u64 + 1)) as usize);
    }
}

/// Answers `queries` in order on two reused solvers over one store, taking
/// turns, and each on a solver made for it over a second store; every
/// output must agree field for field. Returns the largest `state_words`.
fn reused_lanes_equal_fresh_solvers(
    pag: &Pag,
    queries: &[(NodeId, Dir)],
    cfg: &SolverConfig,
    seed: u64,
) -> Result<u64, TestCaseError> {
    let ask = |solver: &mut Solver, (q, dir): (NodeId, Dir)| match dir {
        Dir::Bwd => solver.points_to_query(q, 0),
        Dir::Fwd => solver.flows_to_query(q, 0),
    };
    let (reused_store, fresh_store) = (SharedJmpStore::new(), SharedJmpStore::new());
    let mut lanes = [
        Solver::new(pag, cfg, &reused_store),
        Solver::new(pag, cfg, &reused_store),
    ];
    let mut peak = 0;
    for (i, &q) in queries.iter().enumerate() {
        let kept = ask(&mut lanes[i % 2], q);
        let fresh = ask(&mut Solver::new(pag, cfg, &fresh_store), q);
        prop_assert_eq!(&kept.answer, &fresh.answer, "seed={} query {:?}", seed, q);
        prop_assert_eq!(&kept.stats, &fresh.stats, "seed={} query {:?}", seed, q);
        peak = peak.max(kept.stats.state_words);
    }
    Ok(peak)
}

/// One object under `fanout^depth` call strings, both ways: it is
/// allocated into the bottom of a chain of locals joined upwards by
/// `fanout` parallel `ret` edges per link (a backward query from the top,
/// `up`, pushes every string), and into the top of a chain joined
/// downwards by `fanout` parallel `param` edges per link (a forward query
/// from the object pushes them again, over other sites; `down` is that
/// chain's bottom). Site ids are spaced by `SITE_STRIDE`, so the pushes
/// under one parent context collide in the push cache with each other,
/// not only with other parents'. Returns `(pag, up, down, object)`.
fn call_tree(fanout: u32, depth: u32) -> (Pag, NodeId, NodeId, NodeId) {
    use parcfl::pag::{CallSiteId, EdgeKind, NodeInfo, NodeKind, PagBuilder, TypeId};
    let mut b = PagBuilder::new();
    let m = b.add_method("m");
    let mut node = |name: String, object: bool| {
        b.add_node(NodeInfo {
            kind: if object {
                NodeKind::Object { method: m }
            } else {
                NodeKind::Local { method: m }
            },
            ty: TypeId::from_usize(0),
            name: name.into(),
            is_application: !object,
        })
    };
    let obj = node("o".into(), true);
    let ups: Vec<NodeId> = (0..=depth).map(|d| node(format!("u{d}"), false)).collect();
    let downs: Vec<NodeId> = (0..=depth).map(|d| node(format!("d{d}"), false)).collect();
    b.add_edge(obj, ups[depth as usize], EdgeKind::New);
    b.add_edge(obj, downs[0], EdgeKind::New);
    // The cache's multiplicative hash sends keys a Fibonacci number apart
    // to neighbouring slots: two or three sibling pushes per slot.
    const SITE_STRIDE: u32 = 4181;
    for d in 0..depth as usize {
        for i in 0..fanout {
            let site = (d as u32 * fanout + i) * SITE_STRIDE;
            b.add_edge(ups[d + 1], ups[d], EdgeKind::Ret(CallSiteId::new(site)));
            let site = ((depth + d as u32) * fanout + i) * SITE_STRIDE;
            b.add_edge(
                downs[d],
                downs[d + 1],
                EdgeKind::Param(CallSiteId::new(site)),
            );
        }
    }
    (b.freeze(), ups[0], downs[depth as usize], obj)
}

/// The contexts `table` holds for `node`, sorted (`for_ctxs` promises no
/// order).
fn ctxs_of(table: &impl StateSet, node: u32) -> Vec<u32> {
    let mut v = Vec::new();
    table.for_ctxs(node, |c| v.push(c.raw()));
    v.sort_unstable();
    v
}

/// The paged dense table against the hash reference under random
/// operations over a sparse 200 k-node id space — most rows alone in
/// their page, a few hot rows taking enough contexts to spill — across
/// six epochs, so recycled pages, rows and spill bitsets are all met
/// stale. A second pair of tables takes each epoch's inserts in reverse
/// and must hold the same sets and report the same touched words.
#[test]
fn paged_dense_table_matches_hash_reference() {
    const NODES: u32 = 200_000;
    let seed = test_seed();
    let mut state = derive(seed, 0x9A6ED);
    let mut next = move |bound: u32| {
        state = derive(state, 1);
        (state >> 32) as u32 % bound
    };
    let (mut dense, mut hash) = (DenseVisitSet::default(), HashVisitSet::default());
    // The `StateSet` contract's inward half: the solver unions `FlowsTo`
    // results into `alias` in traversal order, not a canonical one.
    let (mut dense_rev, mut hash_rev) = (DenseVisitSet::default(), HashVisitSet::default());
    let hot: Vec<u32> = (0..8).map(|_| next(NODES)).collect();
    for epoch in 0..6 {
        let mut inserted = Vec::new();
        // Narrow context ranges keep a spilled row in one bitset chunk,
        // wide ones spread it over several.
        let ctx_range = if epoch % 2 == 0 { 40 } else { 5_000 };
        let mut touched = vec![0, NODES - 1, next(NODES)];
        for _ in 0..4_000 {
            let node = if next(3) == 0 {
                hot[next(8) as usize]
            } else {
                next(NODES)
            };
            let ctx = CtxId::from_raw(next(ctx_range));
            if next(4) == 0 {
                assert_eq!(
                    dense.contains(node, ctx),
                    hash.contains(node, ctx),
                    "PARCFL_TEST_SEED={seed} epoch {epoch}: contains({node}, {ctx:?})"
                );
            } else {
                assert_eq!(
                    dense.insert(node, ctx),
                    hash.insert(node, ctx),
                    "PARCFL_TEST_SEED={seed} epoch {epoch}: insert({node}, {ctx:?})"
                );
                touched.push(node);
                inserted.push((node, ctx));
            }
        }
        for &(node, ctx) in inserted.iter().rev() {
            assert_eq!(dense_rev.insert(node, ctx), hash_rev.insert(node, ctx));
        }
        for &node in &touched {
            assert_eq!(
                ctxs_of(&dense, node),
                ctxs_of(&hash, node),
                "PARCFL_TEST_SEED={seed} epoch {epoch}: node {node}"
            );
            assert_eq!(ctxs_of(&dense, node), ctxs_of(&dense_rev, node));
        }
        assert_eq!(dense.approx_words(), dense_rev.approx_words());
        assert_eq!(hash.approx_words(), hash_rev.approx_words());
        assert!(
            hot.iter().any(|&n| ctxs_of(&dense, n).len() > 8),
            "PARCFL_TEST_SEED={seed} epoch {epoch}: some hot row spills"
        );
        dense.reset();
        hash.reset();
        dense_rev.reset();
        hash_rev.reset();
        for &node in &touched {
            assert!(ctxs_of(&dense, node).is_empty());
            assert!(!dense.contains(node, CtxId::EMPTY));
        }
    }
}

/// The size law of the paged table: what it holds follows the pages its
/// rows fall in, never the largest node id — and a table kept for the
/// next query counts from zero again, warm pages included as the new
/// query touches them.
#[test]
fn dense_table_words_follow_touched_pages_not_the_largest_id() {
    let touch = |t: &mut DenseVisitSet, node: u32| t.insert(node, CtxId::EMPTY);
    let mut low = DenseVisitSet::default();
    touch(&mut low, 0);
    let page = low.approx_words();
    assert!(page > 0);

    // One row at the top of a 200 k-node id space costs what one row at
    // the bottom does (a flat table would hold 200 000 rows for it).
    let mut high = DenseVisitSet::default();
    touch(&mut high, 199_999);
    assert_eq!(high.approx_words(), page);

    // k rows anywhere cost at most k pages; k rows side by side far less.
    let seed = test_seed();
    let scattered: Vec<u32> = (0..300u64)
        .map(|i| (derive(seed, i) % 200_000) as u32)
        .collect();
    let mut t = DenseVisitSet::default();
    for &n in &scattered {
        touch(&mut t, n);
    }
    let words = t.approx_words();
    assert!(words <= scattered.len() as u64 * page, "{words} words");
    let mut run = DenseVisitSet::default();
    for n in 150_000..150_300 {
        touch(&mut run, n);
    }
    assert!(run.approx_words() * 4 <= 300 * page, "rows share pages");

    // Re-touching within the query generation adds nothing, over a reset
    // too; the next generation starts from zero and is charged for the
    // warm pages it touches, exactly as a fresh table would be.
    t.reset();
    for &n in &scattered {
        touch(&mut t, n);
    }
    assert_eq!(t.approx_words(), words);
    t.reset();
    t.begin_query(7);
    assert_eq!(t.approx_words(), 0);
    touch(&mut t, scattered[0]);
    assert_eq!(t.approx_words(), page);
    for &n in &scattered {
        touch(&mut t, n);
    }
    assert_eq!(t.approx_words(), words);
}

/// Hash and dense visited-state tables produce bit-identical runs on
/// seeded synthetic graphs: same answers, same step counts, same
/// publication-independent stats. The state backend is a layout choice,
/// never a semantic one.
#[test]
fn hash_and_dense_runs_are_bit_identical() {
    let seed = test_seed();
    for i in 0..12u64 {
        let profile_seed = derive(seed, 0xD0_0000 + i);
        let profile = if i % 3 == 0 {
            Profile::small(profile_seed)
        } else {
            Profile::tiny(profile_seed)
        };
        let bench = build_bench(&profile);
        // Tight budgets on odd iterations: OutOfBudget decisions must
        // also be backend-independent, not just completed answers.
        let budget = if i % 2 == 0 {
            5_000_000
        } else {
            2_000 + i * 997
        };
        let mk = |state: StateBackend| SolverConfig {
            budget,
            context_sensitive: i % 4 != 3,
            state,
            ..SolverConfig::default()
        };
        let hash = run_seq(&bench.pag, &bench.queries, &mk(StateBackend::Hash));
        let dense = run_seq(&bench.pag, &bench.queries, &mk(StateBackend::Dense));
        assert_eq!(
            hash.sorted_answers(),
            dense.sorted_answers(),
            "PARCFL_TEST_SEED={seed} {} budget={budget}: answers diverge",
            bench.name
        );
        assert_eq!(
            hash.stats.traversed_steps, dense.stats.traversed_steps,
            "PARCFL_TEST_SEED={seed} {}: traversal work diverges",
            bench.name
        );
        assert_eq!(
            hash.stats.completed, dense.stats.completed,
            "PARCFL_TEST_SEED={seed} {}: completion counts diverge",
            bench.name
        );
        assert_eq!(
            hash.stats.out_of_budget, dense.stats.out_of_budget,
            "PARCFL_TEST_SEED={seed} {}: OOB counts diverge",
            bench.name
        );
    }
}
