//! # parcfl-runtime — parallel analysis driver
//!
//! Orchestrates the paper's experiment matrix: parallelisation strategy
//! ([`Mode`]: naive / D / DQ) × backend ([`Backend`]: real threads /
//! deterministic virtual-time simulation) × thread count, against the
//! sequential baseline [`run_seq`] (`SeqCFL`).
//!
//! There is one batch driver (`batch.rs`: one per-query
//! body, one epilogue) and three executors over it that differ only in
//! clock and in who pulls the next group: [`run_seq`] inline on the
//! calling thread, [`sim`] on a virtual clock, [`run_threaded`] on OS
//! threads popping the paper's shared work list.
//!
//! A run reports its [`RunStats`] counters and one
//! [`WorkerObs`](parcfl_concurrent::WorkerObs) record per worker. With
//! [`RunConfig::with_tracing`] above [`TraceLevel::Off`] it
//! also hands back a [`RunTrace`]: one [`QuerySpan`] per query, on the
//! worker that ran it. DESIGN.md §9.
//!
//! One-shot entry points ([`run`], [`run_seq`]) build a fresh jmp store
//! per call. Clients answering *several* batches over one PAG should hold
//! an [`AnalysisSession`] instead: later batches warm-start from earlier
//! batches' jmp edges, and answers it already holds are not traversed
//! again (see [`AnalysisSession`]).
//!
//! ```
//! use parcfl_runtime::{run, run_seq, Backend, Mode, RunConfig};
//! use parcfl_core::SolverConfig;
//!
//! let src = "class Obj { }
//!            class A { method m() { var x: Obj; x = new Obj; } }";
//! let pag = parcfl_frontend::build_pag(src).unwrap().pag;
//! let queries = pag.application_locals();
//! let seq = run_seq(&pag, &queries, &SolverConfig::default());
//! let par = run(&pag, &queries, &RunConfig::new(Mode::DataSharingSched, 16, Backend::Simulated));
//! assert_eq!(seq.sorted_answers(), par.sorted_answers());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod mode;
mod seq;
mod session;
pub mod sim;
mod stats;
mod threaded;
mod trace;

pub use mode::{Backend, Engine, Mode, RunConfig};
pub use seq::run_seq;
pub use session::{AnalysisSession, DeltaReport};
pub use sim::{run_simulated, run_simulated_batch};
pub use stats::{Metric, RunResult, RunStats, Unit, Value};
pub use threaded::{run_threaded, run_threaded_batch};
pub use trace::{QuerySpan, RunTrace, TraceLevel, WorkerTrace};

use parcfl_pag::{NodeId, Pag};
use parcfl_sched::{build_schedule, Schedule, ScheduleOptions};

/// The schedule a mode uses: DQ builds the paper's grouped/ordered
/// schedule; naive and D fetch single queries in input order.
pub fn schedule_for(pag: &Pag, queries: &[NodeId], mode: Mode) -> Schedule {
    schedule_with_cap(pag, queries, mode, None)
}

/// The DQ schedule options for a group-size cap override.
///
/// The default cap is 1: dispatch follows the DQ *order* query-by-query.
/// The paper dispatches whole groups to amortise work-list lock contention
/// across tens of thousands of queries; at this harness's scale the
/// simulator prices a fetch at [`sim::FETCH_STEPS`] (1 step), so
/// grouping's amortisation is invisible while its load-balance granularity
/// cost is not. The `ablation_group` bench regenerates the trade-off.
pub(crate) fn dq_options(cap: Option<usize>) -> ScheduleOptions {
    ScheduleOptions {
        max_group_size: Some(cap.unwrap_or(1)),
    }
}

/// [`schedule_for`] with an explicit group-size cap override (`None` =
/// the default cap of 1).
pub fn schedule_with_cap(
    pag: &Pag,
    queries: &[NodeId],
    mode: Mode,
    cap: Option<usize>,
) -> Schedule {
    if mode.schedules_queries() {
        build_schedule(pag, queries, &dq_options(cap))
    } else {
        Schedule::unscheduled(queries)
    }
}

/// Runs `queries` under `cfg` on the configured backend.
pub fn run(pag: &Pag, queries: &[NodeId], cfg: &RunConfig) -> RunResult {
    match cfg.backend {
        Backend::Threaded => run_threaded(pag, queries, cfg),
        Backend::Simulated => run_simulated(pag, queries, cfg),
    }
}

/// Source-compatibility shim for the frozen `benchmark/` crate: no batch
/// is sent to a second engine any more (DESIGN.md §11).
#[doc(hidden)]
pub fn matrix_pays_off(_pag: &Pag, _queries: &[NodeId]) -> bool {
    false
}

/// Source-compatibility shim for the frozen `benchmark/` crate: [`run`].
#[doc(hidden)]
pub fn run_matrix(pag: &Pag, queries: &[NodeId], cfg: &RunConfig) -> RunResult {
    run(pag, queries, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_core::SolverConfig;
    use parcfl_frontend::build_pag;

    #[test]
    fn level_ladder() {
        assert!(!TraceLevel::Off.enabled());
        assert!(TraceLevel::Spans.enabled());
        assert!(TraceLevel::Full.enabled());
        assert_eq!(TraceLevel::parse("spans"), Some(TraceLevel::Spans));
        assert_eq!(TraceLevel::parse("full"), None);
        assert_eq!(TraceLevel::parse("bogus"), None);
        assert_eq!(TraceLevel::default(), TraceLevel::Off);
    }

    /// A span is what a traced lane keeps per query (its
    /// `WorkerTrace::events`): 24 bytes.
    #[test]
    fn event_is_compact() {
        assert_eq!(std::mem::size_of::<QuerySpan>(), 24);
    }

    #[test]
    fn schedule_for_modes() {
        let src = "class Obj { }
                   class A { method m() { var a: Obj; var b: Obj; a = new Obj; b = a; } }";
        let pag = build_pag(src).unwrap().pag;
        let qs = pag.application_locals();
        let naive = schedule_for(&pag, &qs, Mode::Naive);
        assert_eq!(naive.groups.len(), qs.len(), "one query per group");
        let dq = schedule_for(&pag, &qs, Mode::DataSharingSched);
        assert_eq!(dq.query_count(), qs.len());
    }

    #[test]
    fn run_dispatches_both_backends() {
        let src = "class Obj { }
                   class A { method m() { var a: Obj; a = new Obj; } }";
        let pag = build_pag(src).unwrap().pag;
        let qs = pag.application_locals();
        let seq = run_seq(&pag, &qs, &SolverConfig::default());
        let sim = run(
            &pag,
            &qs,
            &RunConfig::new(Mode::Naive, 2, Backend::Simulated),
        );
        let thr = run(
            &pag,
            &qs,
            &RunConfig::new(Mode::Naive, 2, Backend::Threaded),
        );
        assert_eq!(seq.sorted_answers(), sim.sorted_answers());
        assert_eq!(seq.sorted_answers(), thr.sorted_answers());
    }

    /// What a lookup sees is the lane's decision, not the store's: over
    /// one store whose entries are all stamped later than any clock the
    /// batch reaches, real threads take the shortcuts and simulated
    /// workers (`created_at <= now`) do not. A wall-clock lane that looked
    /// up at its own `base + steps` would pass every answer check and
    /// silently share less.
    #[test]
    fn wall_lanes_see_later_stamps_and_virtual_lanes_do_not() {
        use parcfl_core::SharedJmpStore;
        let src = "class Obj { } class Box { field f: Obj; }
            class A {
              method mk(): Box { var b: Box; var v: Obj;
                b = new Box; v = new Obj; b.f = v; return b; }
              method m() { var p: Box; var x1: Obj; var x2: Obj;
                p = call this.mk(); x1 = p.f; x2 = x1; }
            }";
        let pag = build_pag(src).unwrap().pag;
        let batch_of = |name| Schedule::unscheduled(&[pag.node_by_name(name).unwrap()]);
        let (primer, asked) = (batch_of("x1@A.m"), batch_of("x2@A.m"));
        let later = 1_000_000;
        let mut cfg = RunConfig::new(Mode::DataSharing, 2, Backend::Simulated);
        cfg.solver = SolverConfig::default().without_tau_thresholds();
        let store = SharedJmpStore::new();
        run_simulated_batch(&pag, &primer, &cfg, &store, later);
        let mut stamps = Vec::new();
        store.for_each(|_, e| stamps.push(e.created_at()));
        assert!(!stamps.is_empty() && stamps.iter().all(|&at| at >= later));

        let cold = run_simulated_batch(&pag, &asked, &cfg, &SharedJmpStore::new(), 0).0;
        let sim = run_simulated_batch(&pag, &asked, &cfg, &store, 0).0;
        assert!(cold.stats.traversed_steps < later, "never reaches them");
        assert_eq!(sim.stats.shortcuts_taken, 0);
        assert_eq!(sim.stats.traversed_steps, cold.stats.traversed_steps);

        let real = run_threaded_batch(&pag, &asked, &cfg, &store, 0);
        assert!(real.stats.shortcuts_taken > 0);
        assert!(real.stats.traversed_steps < cold.stats.traversed_steps);
        assert_eq!(real.stats.warm_hits, 0, "stamped after the batch's base");
        assert_eq!(real.sorted_answers(), cold.sorted_answers());
    }
}
