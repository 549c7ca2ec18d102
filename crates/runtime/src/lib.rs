//! # parcfl-runtime — parallel analysis driver
//!
//! Orchestrates the paper's experiment matrix: parallelisation strategy
//! ([`Mode`]: naive / D / DQ) × backend ([`Backend`]: real threads /
//! deterministic virtual-time simulation) × thread count, against the
//! sequential baseline [`run_seq`] (`SeqCFL`).
//!
//! The demand engine has one batch driver (`batch.rs`: one per-query
//! body, one epilogue) and three executors over it that differ only in
//! clock and in who pulls the next group: [`run_seq`] inline on the
//! calling thread, [`sim`] on a virtual clock, [`threaded`] on OS threads
//! popping the paper's shared work list.
//!
//! One-shot entry points ([`run`], [`run_seq`]) build a fresh jmp store
//! per call. Clients answering *several* batches over one PAG should hold
//! an [`AnalysisSession`] instead: later batches warm-start from earlier
//! batches' jmp edges, schedules are memoised, and store memory can be
//! bounded (see [`session`]).
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
pub mod session;
pub mod sim;
mod stats;
pub mod threaded;

pub use mode::{Backend, Engine, Mode, RunConfig, SimPerturb};
pub use parcfl_concurrent::{CounterSet, WorkerObs};
pub use parcfl_obs::{
    chrome_trace_json, Event, EventKind, LogHistogram, ObsHists, PromText, RunTrace, TraceLevel,
    TraceRecorder, WorkerTrace,
};
pub use seq::{run_matrix, run_seq};
pub use session::{AnalysisSession, DeltaReport};
pub use sim::{run_simulated, run_simulated_batch};
pub use stats::{RunResult, RunStats};
pub use threaded::{run_threaded, run_threaded_batch};

use parcfl_pag::{NodeId, Pag};
use parcfl_sched::{build_schedule, Schedule, ScheduleOptions};

/// The schedule a mode uses: DQ builds the paper's grouped/ordered
/// schedule; naive and D fetch single queries in input order.
pub fn schedule_for(pag: &Pag, queries: &[NodeId], mode: Mode) -> Schedule {
    schedule_with_cap(pag, queries, mode, None)
}

/// [`schedule_for`] with an explicit group-size cap override.
///
/// The default cap is 1: dispatch follows the DQ *order* query-by-query.
/// The paper dispatches whole groups to amortise work-list lock contention
/// across tens of thousands of queries; at this harness's scale the
/// simulator prices a fetch at [`RunConfig::fetch_cost`] (~1 step), so
/// grouping's amortisation is invisible while its load-balance granularity
/// cost is not. The `ablation_group` bench regenerates the trade-off.
pub fn schedule_with_cap(
    pag: &Pag,
    queries: &[NodeId],
    mode: Mode,
    cap: Option<usize>,
) -> Schedule {
    if mode.schedules_queries() {
        let opts = ScheduleOptions {
            rebalance: true,
            max_group_size: Some(cap.unwrap_or(1)),
        };
        build_schedule(pag, queries, &opts)
    } else {
        Schedule::unscheduled(queries)
    }
}

/// The `Engine::Auto` heuristic (DESIGN.md §11). The matrix engine
/// evaluates each sub-query closure once and reuses it across the whole
/// batch, but its rows are bitsets over the *whole* node space, so its
/// wall cost per traversed step grows with program size while the demand
/// solver's stays flat; the thresholds below therefore admit only small
/// programs (≤ 1400 PAG nodes, < 500 call sites) queried densely.
///
/// **On wall clock this dispatch currently loses.** The thresholds were
/// read off single-shot `BENCH_solver.json` walls that claimed matrix
/// wins on the six Table-I programs they admit (`_200_check`,
/// `_201_compress`, `_205_raytrace`, `_209_db`, `_227_mtrt`,
/// `_999_checkit`). The committed ledger
/// (`benchmark/results/baseline.seed1.json`, workload `dense_small`,
/// which runs exactly those six) contradicts that:
/// `runtime.auto.matrix_share` is 1.0 — `Auto` does send all six to the
/// matrix engine — and `core.matrix.over_demand` is 0.78, i.e. the
/// matrix engine takes 1.29× the demand solver's wall on them. It does
/// traverse fewer steps (`core.matrix.traversed_steps`), but each costs
/// `core.matrix.ns_per_step` = 2460 ns, so the step win is not a wall
/// win. Retuning moves `dense_small` and is its own measured change;
/// until then `Engine::Auto` is a step-count optimisation, not a wall
/// one (`crates/synth/examples/probe_features.rs` dumps the feature
/// table the constants were read from). The batch itself must still be
/// *dense* — many queries covering a large fraction of the program's
/// variables — since sparse batches never amortise the whole-program
/// closures.
pub fn matrix_pays_off(pag: &Pag, queries: &[NodeId]) -> bool {
    /// Below this the batch cannot amortise the whole-program closures.
    const MIN_BATCH: usize = 32;
    /// The batch floor grows with program size: matrix rows are
    /// whole-node-space bitsets and the packed adjacency is built once
    /// per PAG (`probe_features` measures ≤ 0.3 ms even at `xalan`'s
    /// 118k packed words), so a batch must bring roughly one query per
    /// 24 nodes before those per-program costs amortise. At the node cap
    /// (`_205_raytrace`, 1399 nodes) this asks for 58 queries —
    /// comfortably under its 1085-query Table-I batch.
    const NODES_PER_QUERY: usize = 24;
    /// Node-count cut between the six admitted programs (largest:
    /// `_205_raytrace`, 1399 nodes) and the rest (smallest: `luindex`,
    /// 1456), whose matrix runs lose by far more (worst `_213_javac`,
    /// `_202_jess`).
    const MAX_NODES: usize = 1_400;
    /// Context-explosion guard: interned-context counts track call-site
    /// counts (~1.2–1.4×), and the worst matrix losses (`jess`, `javac`)
    /// pair thousands of contexts with big node spaces. Largest admitted
    /// program: 479 call sites (`_205_raytrace`).
    const MAX_CALL_SITES: usize = 500;
    let locals = pag.application_locals().len();
    if queries.is_empty() || locals == 0 {
        return false;
    }
    queries.len() >= MIN_BATCH.max(pag.node_count() / NODES_PER_QUERY)
        && queries.len() * 2 >= locals
        && pag.node_count() <= MAX_NODES
        && pag.call_site_count() < MAX_CALL_SITES
}

/// Runs `queries` under `cfg`, dispatching to the configured engine and
/// backend. `Engine::Matrix` (or an `Auto` batch that
/// [`matrix_pays_off`]) answers on the whole-program backend with
/// `cfg.threads` sweep workers; otherwise the demand solver runs on the
/// configured `Backend`. The engine that actually ran is recorded in
/// [`RunStats::engine_dispatched`].
pub fn run(pag: &Pag, queries: &[NodeId], cfg: &RunConfig) -> RunResult {
    if cfg.engine.resolves_to_matrix(pag, queries) {
        return run_matrix(pag, queries, cfg);
    }
    match cfg.backend {
        Backend::Threaded => run_threaded(pag, queries, cfg),
        Backend::Simulated => run_simulated(pag, queries, cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_core::SolverConfig;
    use parcfl_frontend::build_pag;

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

    #[test]
    fn run_dispatches_matrix_engine() {
        let src = "class Obj { }
                   class A { method m() { var a: Obj; var b: Obj; a = new Obj; b = a; } }";
        let pag = build_pag(src).unwrap().pag;
        let qs = pag.application_locals();
        let seq = run_seq(&pag, &qs, &SolverConfig::default());
        let mat = run(
            &pag,
            &qs,
            &RunConfig::new(Mode::Naive, 2, Backend::Simulated).with_engine(Engine::Matrix),
        );
        assert_eq!(seq.sorted_answers(), mat.sorted_answers());
        // A 2-query batch is far below the density threshold: Auto stays
        // on the demand solver.
        assert!(!matrix_pays_off(&pag, &qs));
        let auto = run(
            &pag,
            &qs,
            &RunConfig::new(Mode::Naive, 2, Backend::Simulated).with_engine(Engine::Auto),
        );
        assert_eq!(seq.sorted_answers(), auto.sorted_answers());
        // Dense batch: every application local, repeated past the floor.
        let dense: Vec<_> = qs.iter().cycle().take(64).copied().collect();
        assert!(matrix_pays_off(&pag, &dense));
    }

    #[test]
    fn run_records_dispatched_engine() {
        let src = "class Obj { }
                   class A { method m() { var a: Obj; var b: Obj; a = new Obj; b = a; } }";
        let pag = build_pag(src).unwrap().pag;
        let qs = pag.application_locals();
        let mat = run(
            &pag,
            &qs,
            &RunConfig::new(Mode::Naive, 2, Backend::Simulated).with_engine(Engine::Matrix),
        );
        assert_eq!(mat.stats.engine_dispatched, Some(Engine::Matrix));
        let sim = run(
            &pag,
            &qs,
            &RunConfig::new(Mode::Naive, 2, Backend::Simulated),
        );
        assert_eq!(sim.stats.engine_dispatched, Some(Engine::Demand));
        let thr = run(
            &pag,
            &qs,
            &RunConfig::new(Mode::Naive, 2, Backend::Threaded),
        );
        assert_eq!(thr.stats.engine_dispatched, Some(Engine::Demand));
        // A 2-query Auto batch is sparse: the demand solver runs, and the
        // stats say so rather than echoing the configured `Engine::Auto`.
        let auto = run(
            &pag,
            &qs,
            &RunConfig::new(Mode::Naive, 2, Backend::Simulated).with_engine(Engine::Auto),
        );
        assert_eq!(auto.stats.engine_dispatched, Some(Engine::Demand));
    }

    #[test]
    fn matrix_pays_off_degenerate_cases() {
        let src = "class Obj { }
                   class A { method m() { var a: Obj; var b: Obj; a = new Obj; b = a; } }";
        let pag = build_pag(src).unwrap().pag;
        let qs = pag.application_locals();
        // Empty batch: nothing to amortise.
        assert!(!matrix_pays_off(&pag, &[]));
        // A program with no application locals can never be "dense".
        let bare = build_pag("class Obj { }").unwrap().pag;
        assert!(bare.application_locals().is_empty());
        let fake: Vec<_> = qs.iter().cycle().take(64).copied().collect();
        assert!(!matrix_pays_off(&bare, &fake));
    }

    #[test]
    fn matrix_pays_off_respects_size_crossover() {
        // Tiny dense batch: well under the measured node/call-site
        // crossover, so the matrix engine pays off.
        let src = "class Obj { }
                   class A { method m() { var a: Obj; var b: Obj; a = new Obj; b = a; } }";
        let pag = build_pag(src).unwrap().pag;
        assert!(pag.node_count() <= 1_400 && pag.call_site_count() < 500);
        let dense: Vec<_> = pag
            .application_locals()
            .iter()
            .cycle()
            .take(64)
            .copied()
            .collect();
        assert!(matrix_pays_off(&pag, &dense));
        // Past the measured crossover the matrix engine loses wall-clock
        // even on a fully dense batch: Auto must stay on demand. The
        // smallest Table-I loser (`luindex`) has 1456 nodes.
        let mut g = parcfl_pag::PagBuilder::new();
        let m = g.add_method("big");
        for i in 0..1_500 {
            g.add_node(parcfl_pag::NodeInfo {
                kind: parcfl_pag::NodeKind::Local { method: m },
                ty: parcfl_pag::TypeId::from_usize(0),
                name: format!("v{i}"),
                is_application: true,
            });
        }
        let big = g.freeze();
        let qs = big.application_locals();
        assert!(big.node_count() > 1_400);
        assert!(!matrix_pays_off(&big, &qs));
    }

    #[test]
    fn matrix_pays_off_batch_floor_scales_with_nodes() {
        // 1200 nodes but only 80 application locals: under the node and
        // call-site caps, yet the batch floor is 1200/24 = 50, not the
        // flat 32 — a 40-query batch can't amortise whole-node-space
        // rows (or the one-off packed build) on a graph this size.
        let mut g = parcfl_pag::PagBuilder::new();
        let m = g.add_method("wide");
        for i in 0..1_200 {
            g.add_node(parcfl_pag::NodeInfo {
                kind: if i < 80 {
                    parcfl_pag::NodeKind::Local { method: m }
                } else {
                    parcfl_pag::NodeKind::Object { method: m }
                },
                ty: parcfl_pag::TypeId::from_usize(0),
                name: format!("v{i}"),
                is_application: i < 80,
            });
        }
        let wide = g.freeze();
        let locals = wide.application_locals();
        assert_eq!(locals.len(), 80);
        let forty: Vec<_> = locals.iter().take(40).copied().collect();
        assert!(!matrix_pays_off(&wide, &forty), "below the scaled floor");
        let dense: Vec<_> = locals.iter().cycle().take(64).copied().collect();
        assert!(matrix_pays_off(&wide, &dense), "past the scaled floor");
    }
}
