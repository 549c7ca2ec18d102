//! The deterministic virtual-time backend — the substitution for the
//! paper's 16-core Xeon (this container has two vCPUs; see DESIGN.md).
//!
//! A discrete-event simulation of `t` worker threads. Cost is measured in
//! *traversal steps*, the unit the paper itself uses for all of its
//! analysis-side statistics (`#S`, the budget `B`, every `jmp(s)` label).
//! Each simulated thread carries a virtual clock; the scheduler always
//! advances the thread with the smallest clock, which fetches the next
//! query group from the shared (FIFO) work list, pays [`FETCH_STEPS`] for
//! the lock, and runs the group's queries. (The dispatch, price included,
//! is a `SimHook`'s decision: `parcfl-check` perturbs it, and the
//! `ablation_group` bench prices it higher.) A query starting at virtual
//! time `v` advances the clock by its *traversed* steps (shortcut-charged
//! steps are budget accounting, not work).
//!
//! Data-sharing visibility is modelled faithfully: every jmp entry is
//! timestamped with the virtual instant of its creation, and a lookup at
//! virtual time `now` only observes entries with `created_at <= now` —
//! exactly the information a truly concurrent thread could have seen.
//! Because groups are dispatched in increasing start-time order, the
//! simulation is conservative: it can only under-count sharing relative to
//! a real interleaving, never invent it (a publication from a query that
//! *starts* later in virtual time but would have overlapped is missed).
//!
//! The resulting makespan (maximum final clock) is the parallel "runtime";
//! speedups over `SeqCFL` are ratios of virtual times. Superlinear
//! speedups emerge exactly as in the paper: data sharing removes redundant
//! traversals, so total work shrinks below the sequential total.

use crate::batch::{Answers, Batch, Clock, Lane};
use crate::mode::RunConfig;
use crate::schedule_with_cap;
use crate::stats::RunResult;
use parcfl_core::{JmpStore, SharedJmpStore};
use parcfl_pag::{NodeId, Pag};
use parcfl_sched::Schedule;
use std::collections::VecDeque;

/// Runs the configured analysis under the virtual-time simulator, on a
/// fresh store. (To inspect the store afterwards — Fig. 7's histogram —
/// hand [`run_simulated_batch`] a [`SharedJmpStore`] of your own.)
pub fn run_simulated(pag: &Pag, queries: &[NodeId], cfg: &RunConfig) -> RunResult {
    let schedule = schedule_with_cap(pag, queries, cfg.mode, cfg.group_cap);
    run_simulated_batch(pag, &schedule, cfg, &SharedJmpStore::new(), 0).0
}

/// One simulated batch against a caller-owned (possibly warm) store.
///
/// The session building block: `store` may already hold jmp entries from
/// earlier batches, all timestamped `< base`; every simulated clock starts
/// at virtual time `base`, so those entries are visible from the first
/// step and every hit on one counts as a warm hit. Returns the batch
/// result (`makespan` is batch-relative: final clock minus `base`) and the
/// absolute virtual end time — the owning session resumes its clock just
/// past it. A [`crate::Mode::Naive`] batch leaves `store` alone.
pub fn run_simulated_batch(
    pag: &Pag,
    schedule: &Schedule,
    cfg: &RunConfig,
    store: &SharedJmpStore,
    base: u64,
) -> (RunResult, u64) {
    run_simulated_hooked(pag, schedule, cfg, store, base, &mut Fifo(FETCH_STEPS))
}

/// What one shared-work-list fetch costs in production, in steps: the
/// locking overhead of Section III-A, small by design — the paper found it
/// negligible at query granularity.
pub const FETCH_STEPS: u64 = 1;

/// One dispatch of the simulator loop: who fetches, what, at what price.
#[doc(hidden)]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Dispatch {
    /// The worker that fetches next.
    pub worker: usize,
    /// The group it takes, as a position in the pending list (0 = head).
    pub group: usize,
    /// Steps the fetch costs.
    pub fetch: u64,
}

/// Where `parcfl-check` takes hold of a simulated batch: it owns the
/// seeded schedule perturbation and the jmp-store fault injection its
/// fuzzer drives, and reaches the simulator through this and nothing
/// else. Production runs use [`run_simulated_batch`], whose dispatch is
/// the deterministic one the module docs describe.
#[doc(hidden)]
pub trait SimHook {
    /// Decides the next dispatch from every worker's clock and the number
    /// of groups still pending (at least one).
    fn dispatch(&mut self, clocks: &[u64], pending: usize) -> Dispatch;

    /// What a worker's solver is built over: `None` for `lane`, the
    /// batch's store, or a store that forwards to it.
    fn seam<'s>(&self, _lane: &'s dyn JmpStore) -> Option<Box<dyn JmpStore + 's>> {
        None
    }
}

/// The production decision at a fetch price of `.0` steps: the lowest
/// clock (lowest index among equals) takes the head of the FIFO list.
/// Every production batch pays [`FETCH_STEPS`]; `parcfl-check` and the
/// `ablation_group` bench pay prices of their own.
#[doc(hidden)]
pub struct Fifo(pub u64);

impl SimHook for Fifo {
    fn dispatch(&mut self, clocks: &[u64], _pending: usize) -> Dispatch {
        let worker = (0..clocks.len())
            .min_by_key(|&i| (clocks[i], i))
            .expect("a batch has at least one lane");
        Dispatch {
            worker,
            group: 0,
            fetch: self.0,
        }
    }
}

/// [`run_simulated_batch`] with the dispatch decided by `hook`.
///
/// The executor half of the batch driver (`batch.rs`): `t` lanes on
/// the virtual clock, and this loop asking `hook` which lane pulls which
/// group next.
#[doc(hidden)]
pub fn run_simulated_hooked(
    pag: &Pag,
    schedule: &Schedule,
    cfg: &RunConfig,
    store: &SharedJmpStore,
    base: u64,
    hook: &mut dyn SimHook,
) -> (RunResult, u64) {
    let batch = Batch::of_run(pag, cfg, store, base, Clock::Virtual);
    let t = cfg.threads.max(1);
    // Each lane stamps its spans on its virtual clock, so a simulated
    // trace shows the simulated parallelism, not the sequential wall time
    // of simulating it.
    let seams: Vec<_> = (0..t).map(|_| hook.seam(batch.jmp())).collect();
    let mut lanes: Vec<Lane> = seams
        .iter()
        .enumerate()
        .map(|(w, seam)| batch.lane(w, seam.as_deref().unwrap_or(batch.jmp())))
        .collect();
    let mut clocks = vec![base; t];
    let mut pending: VecDeque<usize> = (0..schedule.groups.len()).collect();
    let mut answers = Answers::with_capacity(schedule.query_count(), cfg.solver.record_footprints);
    while !pending.is_empty() {
        let next = hook.dispatch(&clocks, pending.len());
        let gi = pending
            .remove(next.group)
            .expect("a position in the pending list");
        let lane = &mut lanes[next.worker];
        lane.run_group(&schedule.groups[gi], next.fetch, &mut answers);
        clocks[next.worker] = lane.now();
    }
    let done: Vec<_> = lanes.into_iter().map(Lane::finish).collect();
    drop(seams);
    let result = batch.finish(schedule.avg_group_size, answers, done);
    let end = base + result.stats.makespan;
    (result, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::{Backend, Mode};
    use crate::seq::run_seq;
    use parcfl_core::SolverConfig;
    use parcfl_frontend::build_pag;

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
            var p: Box; var q: Box; var x1: Obj; var x2: Obj; var x3: Obj;
            p = call this.mk();
            q = call this.mk();
            x1 = p.f;
            x2 = x1;
            x3 = x2;
          }
        }";

    fn cfg(mode: Mode, threads: usize) -> RunConfig {
        let mut c = RunConfig::new(mode, threads, Backend::Simulated);
        c.solver = SolverConfig::default().without_tau_thresholds();
        c
    }

    #[test]
    fn simulation_is_deterministic() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let a = run_simulated(&pag, &queries, &cfg(Mode::DataSharingSched, 4));
        let b = run_simulated(&pag, &queries, &cfg(Mode::DataSharingSched, 4));
        assert_eq!(a.sorted_answers(), b.sorted_answers());
        assert_eq!(a.stats.makespan, b.stats.makespan);
        assert_eq!(a.stats.traversed_steps, b.stats.traversed_steps);
        assert_eq!(a.stats.jmp_edges, b.stats.jmp_edges);
    }

    #[test]
    fn answers_match_sequential_in_all_modes() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let seq = run_seq(&pag, &queries, &SolverConfig::default());
        for mode in [Mode::Naive, Mode::DataSharing, Mode::DataSharingSched] {
            for threads in [1, 2, 16] {
                let r = run_simulated(&pag, &queries, &cfg(mode, threads));
                assert_eq!(
                    r.sorted_answers(),
                    seq.sorted_answers(),
                    "{mode:?} x{threads}"
                );
            }
        }
    }

    #[test]
    fn more_threads_never_increase_virtual_makespan_naive() {
        // Without sharing, queries are independent: makespan decreases (or
        // stays) as threads grow.
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let m1 = run_simulated(&pag, &queries, &cfg(Mode::Naive, 1))
            .stats
            .makespan;
        let m4 = run_simulated(&pag, &queries, &cfg(Mode::Naive, 4))
            .stats
            .makespan;
        assert!(m4 <= m1, "makespan {m4} vs {m1}");
    }

    #[test]
    fn data_sharing_reduces_total_work() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let naive = run_simulated(&pag, &queries, &cfg(Mode::Naive, 1));
        let shared = run_simulated(&pag, &queries, &cfg(Mode::DataSharing, 1));
        assert!(
            shared.stats.traversed_steps < naive.stats.traversed_steps,
            "sharing {} vs naive {}",
            shared.stats.traversed_steps,
            naive.stats.traversed_steps
        );
        assert!(shared.stats.steps_saved > 0);
        assert!(shared.stats.shortcuts_taken > 0);
    }

    #[test]
    fn caller_owned_store_exposes_histogram() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let cfg = cfg(Mode::DataSharing, 2);
        let schedule = schedule_with_cap(&pag, &queries, cfg.mode, cfg.group_cap);
        let store = SharedJmpStore::new();
        let (r, end) = run_simulated_batch(&pag, &schedule, &cfg, &store, 0);
        assert_eq!(
            end, r.stats.makespan,
            "a batch based at 0 ends at its makespan"
        );
        let h = parcfl_core::JmpHistogram::of(&store);
        assert_eq!(
            h.finished_total() + h.unfinished_total(),
            r.stats.jmp_edges as u64
        );
    }
}

#[cfg(test)]
mod edge_case_tests {
    use crate::mode::{Backend, Mode, RunConfig};
    use crate::schedule_for;
    use crate::sim::{run_simulated, run_simulated_hooked, Fifo};
    use parcfl_core::SharedJmpStore;
    use parcfl_frontend::build_pag;

    #[test]
    fn empty_query_set() {
        let pag = build_pag("class A { }").unwrap().pag;
        let r = run_simulated(
            &pag,
            &[],
            &RunConfig::new(Mode::DataSharingSched, 4, Backend::Simulated),
        );
        assert_eq!(r.stats.queries, 0);
        assert_eq!(r.stats.makespan, 0);
        assert!(r.answers.is_empty());
    }

    #[test]
    fn more_threads_than_queries() {
        let pag = build_pag("class Obj { } class A { method m() { var a: Obj; a = new Obj; } }")
            .unwrap()
            .pag;
        let qs = pag.application_locals();
        let r = run_simulated(
            &pag,
            &qs,
            &RunConfig::new(Mode::Naive, 64, Backend::Simulated),
        );
        assert_eq!(r.stats.queries, qs.len());
        // Makespan = the single most expensive query + one fetch.
        assert!(r.stats.makespan <= r.stats.traversed_steps + qs.len() as u64);
    }

    #[test]
    fn fetch_cost_adds_to_makespan() {
        let pag = build_pag(
            "class Obj { } class A { method m() { var a: Obj; var b: Obj; a = new Obj; b = a; } }",
        )
        .unwrap()
        .pag;
        let qs = pag.application_locals();
        let cfg = RunConfig::new(Mode::Naive, 1, Backend::Simulated);
        let schedule = schedule_for(&pag, &qs, cfg.mode);
        let makespan = |fetch| {
            let store = SharedJmpStore::new();
            let run = run_simulated_hooked(&pag, &schedule, &cfg, &store, 0, &mut Fifo(fetch));
            run.0.stats.makespan
        };
        let production = run_simulated(&pag, &qs, &cfg).stats.makespan;
        assert_eq!(makespan(1), production, "production pays one step");
        assert_eq!(makespan(100) - production, 99 * qs.len() as u64);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pag = build_pag("class Obj { } class A { method m() { var a: Obj; a = new Obj; } }")
            .unwrap()
            .pag;
        let qs = pag.application_locals();
        let r = run_simulated(
            &pag,
            &qs,
            &RunConfig::new(Mode::Naive, 0, Backend::Simulated),
        );
        assert_eq!(r.stats.queries, qs.len());
    }
}
