//! The real-thread backend: `t` OS worker threads answer query groups
//! against the shared read-only PAG, publishing jmp edges into the shared
//! concurrent store. Dispatch is the paper's (Section III-A): one
//! lock-protected shared work list every worker pops on every fetch.
//! Dispatch order affects cost, never results, and every worker leaves a
//! [`parcfl_concurrent::WorkerObs`] record (pops, lock wait, queries,
//! steps) in [`crate::RunStats::workers`], so contention is measured
//! rather than guessed — two workers wait ≈ 6 ms in all on the list in a
//! 0.16 s DQ pass over the Table-I suite, which is why there is no second
//! dispatcher (DESIGN.md §7).
//!
//! This is the production implementation — correct on any core count.
//! (Wall-clock speedups require real cores; the evaluation host has two
//! vCPUs, so the harness uses the simulated backend for speedup *shapes*
//! beyond two threads, see DESIGN.md.)

use crate::batch::{Answers, Batch, Clock};
use crate::mode::RunConfig;
use crate::schedule_with_cap;
use crate::stats::RunResult;
use parcfl_concurrent::SharedWorkList;
use parcfl_core::SharedJmpStore;
use parcfl_pag::{NodeId, Pag};
use parcfl_sched::Schedule;

/// Worker stack size. The solver's `PointsTo` / `FlowsTo` /
/// `ReachableNodes` recursion nests one level per field load it resolves,
/// up to its `MAX_RECURSION_DEPTH` (512). Measured on an `x_i = x_{i+1}.f`
/// chain (DESIGN.md §7): ≈ 0.7 KB per level in release builds (a 510-deep
/// chain overflows 352 KB and fits in 384 KB) and ≈ 10 KB in debug builds
/// (it overflows 4.5 MB and fits in 5 MB). 16 MB covers both with room,
/// and two workers' stacks fit glibc's 40 MiB cache of freed thread
/// stacks, so a session's next batch reuses them instead of mapping,
/// faulting and unmapping fresh ones.
const WORKER_STACK: usize = 16 * 1024 * 1024;

/// Runs the configured analysis on real threads.
pub fn run_threaded(pag: &Pag, queries: &[NodeId], cfg: &RunConfig) -> RunResult {
    let store = SharedJmpStore::new();
    let schedule = schedule_with_cap(pag, queries, cfg.mode, cfg.group_cap);
    run_threaded_batch(pag, &schedule, cfg, &store, 0)
}

/// One real-thread batch against a caller-owned (possibly warm) store.
///
/// The session building block. Real threads see every entry of `store`
/// immediately, whatever its timestamp (the lanes are on the wall clock,
/// `batch.rs`). Every query starts at virtual time `base`, so a worker
/// stamps a new publication `base` plus the steps its query has traversed
/// so far — below the next batch's warm floor, which the session puts
/// past `base` plus the whole batch's traversed steps — and hits on
/// entries stamped `< base` count as warm hits. `makespan` is the batch's
/// own traversed-step total (real time is measured by `wall`). A
/// [`crate::Mode::Naive`] batch leaves `store` alone.
///
/// The executor half of the batch driver (`batch.rs`): one
/// wall-clock lane per OS thread, each popping group *indices* off the
/// shared list until it is empty. No thread is started that would find
/// the list empty: a batch of fewer groups than `cfg.threads` runs that
/// many workers, one of no groups none. A query that panics is re-raised
/// with its worker, query and group attached; the peers drain the list
/// and the join re-raises that payload.
pub fn run_threaded_batch(
    pag: &Pag,
    schedule: &Schedule,
    cfg: &RunConfig,
    store: &SharedJmpStore,
    base: u64,
) -> RunResult {
    let batch = Batch::of_run(pag, cfg, store, base, Clock::Wall);
    let work = SharedWorkList::with_items(0..schedule.groups.len());
    let (batch, work) = (&batch, &work);
    let recording = cfg.solver.record_footprints;
    let mut answers = Answers::with_capacity(schedule.query_count(), recording);
    let workers = cfg.threads.max(1).min(schedule.groups.len());
    let lanes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                std::thread::Builder::new()
                    .stack_size(WORKER_STACK)
                    .spawn_scoped(scope, move || {
                        let mut lane = batch.lane(w, batch.jmp());
                        let mut answers = Answers::default();
                        loop {
                            let (next, wait) = work.pop_timed();
                            lane.note_lock_wait(wait);
                            let Some(gi) = next else { break };
                            lane.run_group(&schedule.groups[gi], 0, &mut answers);
                        }
                        (answers, lane.finish())
                    })
                    .expect("spawn worker")
            })
            .collect();
        let mut lanes = Vec::with_capacity(handles.len());
        for h in handles {
            // The payload already carries worker/query/group context (see
            // `batch::Lane`); re-raise it instead of the opaque "a scoped
            // thread panicked".
            let (a, done) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            answers.append(a);
            lanes.push(done);
        }
        lanes
    });
    batch.finish(schedule.avg_group_size, answers, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::{Backend, Mode};
    use crate::seq::run_seq;
    use parcfl_core::SolverConfig;
    use parcfl_frontend::build_pag;
    use std::panic::AssertUnwindSafe;

    const SRC: &str = "class Obj { }
        class Box { field f: Obj; }
        class A {
          method mk(): Box {
            var b: Box; var v: Obj;
            b = new Box;
            v = new Obj;
            b.f = v;
            return b;
          }
          method m() {
            var p: Box; var q: Box; var x: Obj; var y: Obj;
            p = call this.mk();
            q = call this.mk();
            x = p.f;
            y = q.f;
          }
        }";

    #[test]
    fn threaded_matches_sequential_answers() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let seq = run_seq(&pag, &queries, &SolverConfig::default());
        for mode in [Mode::Naive, Mode::DataSharing, Mode::DataSharingSched] {
            for threads in [1, 4] {
                let cfg = RunConfig::new(mode, threads, Backend::Threaded);
                let par = run_threaded(&pag, &queries, &cfg);
                assert_eq!(par.stats.queries, queries.len());
                assert_eq!(
                    par.sorted_answers(),
                    seq.sorted_answers(),
                    "{mode:?} x{threads} diverged"
                );
            }
        }
    }

    /// Queries with equal answers — `x`, `z` and `w` each point to the
    /// object `mk` returns, in the context of its one call — are handed
    /// one allocation by one lane: under `run_seq` and on a one-lane
    /// threaded batch, sharing or not. Each batch's lanes close their own
    /// sets: an equal set from another batch is another allocation.
    #[test]
    fn equal_answers_of_one_lane_are_one_allocation() {
        let src = "class Obj { }
            class A {
              method mk(): Obj { var t: Obj; t = new Obj; return t; }
              method m() {
                var x: Obj; var z: Obj; var w: Obj;
                x = call this.mk();
                z = x;
                w = z;
              }
            }";
        let pag = build_pag(src).unwrap().pag;
        let queries = pag.application_locals();
        let var = |name: &str| pag.node_by_name(name).expect("a variable");
        let (x, z, w, t) = (var("x@A.m"), var("z@A.m"), var("w@A.m"), var("t@A.mk"));
        let set = |r: &RunResult, q: NodeId| -> *const [parcfl_core::CtxNode] {
            let (_, a) = r.answers.iter().find(|(at, _)| *at == q).expect("answered");
            a.complete().expect("complete")
        };
        let seq = || run_seq(&pag, &queries, &SolverConfig::default());
        let one_lane = |mode| run_threaded(&pag, &queries, &RunConfig::new(mode, 1, Backend::Threaded));
        let batches = [seq(), one_lane(Mode::Naive), one_lane(Mode::DataSharingSched)];
        for r in &batches {
            assert_eq!(r.stats.queries, queries.len());
            assert_eq!(set(r, x).len(), 1);
            assert!(std::ptr::eq(set(r, x), set(r, z)), "one set for x and z");
            assert!(std::ptr::eq(set(r, x), set(r, w)), "one set for x and w");
            assert!(!std::ptr::eq(set(r, x), set(r, t)), "t's context differs");
        }
        let again = seq();
        assert_eq!(again.sorted_answers(), batches[0].sorted_answers());
        for r in &batches {
            assert!(!std::ptr::eq(set(r, x), set(&again, x)), "another batch's set");
        }
    }

    #[test]
    fn sharing_mode_populates_store() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let mut cfg = RunConfig::new(Mode::DataSharing, 2, Backend::Threaded);
        cfg.solver = SolverConfig::default().without_tau_thresholds();
        let r = run_threaded(&pag, &queries, &cfg);
        assert!(r.stats.jmp_edges > 0, "sharing must record jmp edges");
        assert!(r.stats.jmp_bytes > 0);
        // Naive mode records nothing.
        let naive = run_threaded(
            &pag,
            &queries,
            &RunConfig::new(Mode::Naive, 2, Backend::Threaded),
        );
        assert_eq!(naive.stats.jmp_edges, 0);
    }

    #[test]
    fn worker_records_account_for_every_query_and_fetch() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let cfg = RunConfig::new(Mode::DataSharingSched, 3, Backend::Threaded);
        let schedule = schedule_with_cap(&pag, &queries, cfg.mode, cfg.group_cap);
        let r = run_threaded(&pag, &queries, &cfg);
        assert_eq!(r.stats.workers.len(), 3);
        let totals = r.stats.obs_totals();
        assert_eq!(totals.queries as usize, queries.len());
        assert_eq!(totals.steps, r.stats.traversed_steps);
        // Every group is fetched exactly once.
        assert_eq!(totals.local_pops, schedule.groups.len() as u64);
    }

    /// No worker is started that would find the work list empty.
    #[test]
    fn no_more_workers_than_groups() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let cfg = RunConfig::new(Mode::DataSharing, 8, Backend::Threaded);
        let two = Schedule::unscheduled(&queries[..2]);
        let r = run_threaded_batch(&pag, &two, &cfg, &SharedJmpStore::new(), 0);
        assert_eq!(r.stats.workers.len(), 2);
        assert_eq!(r.stats.obs_totals().queries, 2);
        let none = Schedule::unscheduled(&[]);
        let r = run_threaded_batch(&pag, &none, &cfg, &SharedJmpStore::new(), 7);
        assert!(r.answers.is_empty() && r.stats.workers.is_empty());
        assert_eq!((r.stats.batches, r.stats.queries), (1, 0));
        assert_eq!((r.stats.traversed_steps, r.stats.makespan), (0, 0));
    }

    /// The two runtime shims the frozen benchmark compiles against are
    /// inert: a "stealing" run is the default run.
    #[test]
    fn stealing_shims_change_nothing() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let cfg = RunConfig::new(Mode::DataSharingSched, 1, Backend::Threaded);
        let plain = run_threaded(&pag, &queries, &cfg);
        let shim = run_threaded(&pag, &queries, &cfg.clone().with_stealing(true));
        assert_eq!(shim.answers, plain.answers);
        assert_eq!(shim.stats.traversed_steps, plain.stats.traversed_steps);
        assert_eq!(shim.stats.charged_steps, plain.stats.charged_steps);
        assert_eq!(shim.stats.steps_saved, plain.stats.steps_saved);
        assert_eq!(shim.stats.jmp_edges, plain.stats.jmp_edges);
        assert_eq!(shim.stats.interner_ctxs, plain.stats.interner_ctxs);
        assert_eq!(shim.stats.makespan, plain.stats.makespan);
        assert_eq!(shim.stats.total_steal_wait(), std::time::Duration::ZERO);
    }

    /// The depth guard at its real bound, on a worker's own stack. In an
    /// `x_i = x_{i+1}.f` chain ending in a store `x_n.f = y`, answering
    /// `x0` nests one `PointsTo` per load: 511 loads complete, and at 600
    /// the guard fires at the solver's `MAX_RECURSION_DEPTH` (512) and
    /// burns the rest of the budget instead of overflowing the stack.
    #[test]
    fn a_chain_deeper_than_the_depth_guard_runs_out_of_budget() {
        let answer = |depth: usize| {
            let mut src = String::from("class Box { field f: Box; }");
            src += " class A { method m() { var y: Box;";
            for i in 0..=depth {
                src += &format!(" var x{i}: Box;");
            }
            for i in 0..depth {
                src += &format!(" x{i} = x{}.f;", i + 1);
            }
            src += &format!(" x{depth} = new Box; y = new Box; x{depth}.f = y; }} }}");
            let pag = build_pag(&src).unwrap().pag;
            let x0 = pag.node_by_name("x0@A.m").unwrap();
            let cfg = RunConfig::new(Mode::Naive, 1, Backend::Threaded);
            let r = run_threaded(&pag, &[x0], &cfg);
            (r.answers[0].1.clone(), r.stats.traversed_steps)
        };
        let (shallow, _) = answer(511);
        assert!(
            shallow.complete().is_some(),
            "511 loads stay under the guard"
        );
        let budget = SolverConfig::default().budget;
        let (deep, steps) = answer(600);
        assert_eq!(deep, parcfl_core::Answer::OutOfBudget);
        assert_eq!(steps, budget + 1, "the guard burns the rest of the budget");
    }

    #[test]
    fn worker_panic_carries_query_context() {
        let pag = build_pag(SRC).unwrap().pag;
        let mut queries = pag.application_locals();
        // A query id no node backs: the solver's node lookup panics deep
        // inside a worker. The batch must re-raise with context, not abort
        // the scope opaquely.
        let bogus = parcfl_pag::NodeId::new(u32::MAX - 1);
        queries.push(bogus);
        let cfg = RunConfig::new(Mode::Naive, 2, Backend::Threaded);
        let caught =
            std::panic::catch_unwind(AssertUnwindSafe(|| run_threaded(&pag, &queries, &cfg)))
                .expect_err("bogus query must panic");
        let msg = caught
            .downcast_ref::<String>()
            .expect("enriched payload is a String");
        assert!(
            msg.contains("worker") && msg.contains("panicked answering query"),
            "missing context in {msg:?}"
        );
        assert!(
            msg.contains(&format!("group {:?}", [bogus])),
            "group attached: {msg:?}"
        );
    }
}
