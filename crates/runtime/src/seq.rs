//! `SeqCFL` — the sequential baseline: Algorithm 1 (no sharing, no
//! scheduling), queries processed in input order — and the whole-program
//! matrix engine's batch driver.
//!
//! `run_seq` *is* the demand batch driver ([`crate::batch`]) at one
//! worker: one lane, inline on the calling thread, wall clock, each query
//! its own group in input order, sharing off — the literal form of the
//! paper's `ParCFL(1, naive) ≈ SeqCFL` (Section IV-D1). It spawns nothing
//! and allocates no store.

use crate::batch::{Batch, Clock};
use crate::stats::{RunResult, RunStats};
use parcfl_core::{Answer, MatrixMemo, MatrixSolver, SharedJmpStore, SolverConfig};
use parcfl_obs::{EventKind, RunTrace, TraceLevel, TraceRecorder};
use parcfl_pag::{NodeId, Pag};

/// Runs every query sequentially with data sharing disabled.
pub fn run_seq(pag: &Pag, queries: &[NodeId], solver_cfg: &SolverConfig) -> RunResult {
    let mut cfg = solver_cfg.clone();
    cfg.data_sharing = false;
    run_inline(pag, queries, &cfg, None, 0, TraceLevel::Off)
}

/// The inline executor: the calling thread is the batch's one worker and
/// pulls the queries in input order, one per group (the unscheduled
/// schedule, without materialising its per-query `Vec`s).
///
/// Unlike [`run_seq`] it honours `solver_cfg.data_sharing`, so a session
/// can pass its warm store ([`crate::AnalysisSession::submit_seq`]): new
/// publications are stamped `base`, hits on entries stamped `< base`
/// count as warm hits. `store` should be an untimestamped handle — a
/// wall-clock worker must see every entry whatever its timestamp.
pub(crate) fn run_inline(
    pag: &Pag,
    queries: &[NodeId],
    solver_cfg: &SolverConfig,
    store: Option<&SharedJmpStore>,
    base: u64,
    tracing: TraceLevel,
) -> RunResult {
    let batch = Batch {
        pag,
        cfg: &solver_cfg.clone().with_warm_floor(base),
        store,
        base,
        tracing,
        clock: Clock::Wall,
        start: std::time::Instant::now(),
    };
    let port = batch.port();
    let mut lane = batch.lane(0, &port);
    let mut answers = Vec::with_capacity(queries.len());
    for group in queries.chunks(1) {
        lane.run_group(group, 0, &mut answers);
    }
    let done = lane.finish();
    batch.finish(1.0, answers, [(done, port.into_trace(0))])
}

/// Runs the whole batch on the matrix engine
/// ([`parcfl_core::MatrixSolver`]) with `cfg.threads` workers: queries
/// evaluate in input order over batch-global memoised closures, each
/// query's frontier sweeps are partitioned across the workers, and the
/// batch makespan is the length of a deterministic list schedule of the
/// queries over those workers (DESIGN.md §11). Answers, scan counts and
/// budget verdicts are bit-identical at every worker count. Data
/// sharing, modes and the demand backends do not apply;
/// `cfg.solver.data_sharing` is ignored and `cfg.backend` is inert (the
/// dispatch is recorded in [`RunStats::engine_dispatched`]).
pub fn run_matrix(pag: &Pag, queries: &[NodeId], cfg: &crate::RunConfig) -> RunResult {
    run_matrix_with_memo(pag, queries, cfg, MatrixMemo::default()).0
}

/// The body of [`run_matrix`], against a caller-owned cross-batch
/// [`MatrixMemo`]: the batch's solver adopts `memo`'s surviving closures
/// (warm hits cost nothing and never become precedence edges) and the
/// grown memo is handed back for the next batch. An
/// [`crate::AnalysisSession`] passes its memo through every matrix batch
/// and selectively invalidates it on
/// [`crate::AnalysisSession::apply_delta`].
pub(crate) fn run_matrix_with_memo(
    pag: &Pag,
    queries: &[NodeId],
    cfg: &crate::RunConfig,
    memo: MatrixMemo,
) -> (RunResult, MatrixMemo) {
    let start = std::time::Instant::now();
    let tracing = cfg.tracing;
    // One trace lane per sweep worker. The recorders use the external
    // clock with explicit epoch-relative nanoseconds: the solver emits
    // every event from the barrier thread (the recorders never cross
    // threads), stamping part spans with the timestamps its workers
    // recorded into their `SweepOut`s — so the lanes render as a real
    // per-worker sweep timeline. At `Off` the recorders allocate nothing
    // and every record call is one branch.
    let recs: Vec<TraceRecorder> = (0..cfg.threads.max(1))
        .map(|_| TraceRecorder::external(tracing))
        .collect();
    let mut stats = RunStats::default();
    let mut answers = Vec::with_capacity(queries.len());
    let mut durations = Vec::with_capacity(queries.len());
    let mut providers = Vec::with_capacity(queries.len());
    let mut solver = MatrixSolver::new(pag, &cfg.solver)
        .with_workers(cfg.threads)
        .with_memo(memo);
    if tracing.enabled() {
        solver = solver.with_recorders(&recs, start);
    }
    for (i, &q) in queries.iter().enumerate() {
        recs[0].span(
            EventKind::QueryStart,
            start.elapsed().as_nanos() as u64,
            q.raw(),
            0,
        );
        let t0 = std::time::Instant::now();
        solver.set_query_index(i as u32);
        let out = solver.points_to_query(q);
        stats
            .hists
            .query_latency
            .record(t0.elapsed().as_nanos() as u64);
        let complete = matches!(out.answer, Answer::Complete(_));
        recs[0].span(
            EventKind::QueryEnd,
            start.elapsed().as_nanos() as u64,
            q.raw(),
            complete as u32,
        );
        durations.push(out.stats.traversed_steps);
        providers.push(solver.take_providers());
        stats.absorb(&out.stats, &out.answer);
        answers.push((q, out.answer));
    }
    stats.hists.merge(&solver.take_hists());
    stats.wall = start.elapsed();
    stats.makespan = schedule_batch(&durations, &providers, cfg.threads);
    stats.batches = 1;
    stats.avg_group_size = 1.0;
    stats.interner_ctxs = solver.interner().len();
    stats.engine_dispatched = Some(crate::Engine::Matrix);
    let memo = solver.take_memo();
    drop(solver);
    let trace = tracing.enabled().then(|| RunTrace {
        real_time: true,
        // Lanes beyond worker 0 only fill when waves fan out; drop the
        // ones that stayed empty so the export has no blank tracks.
        workers: recs
            .into_iter()
            .enumerate()
            .filter(|(i, r)| *i == 0 || !r.is_empty())
            .map(|(i, r)| r.into_trace(i))
            .collect(),
    });
    (
        RunResult {
            answers,
            stats,
            trace,
        },
        memo,
    )
}

/// Virtual batch time of a matrix run: queries are list-scheduled onto
/// `workers` virtual workers in input order — the same across-query
/// parallelism the demand backends dispatch — under the precedence
/// constraint that a query consuming another's memoised closures starts
/// only after that provider finishes (sharing a result means waiting for
/// its publication, exactly the paper's data-sharing discipline). Each
/// query costs its scan count, so one worker reproduces the sequential
/// makespan (`Σ traversed = traversed_steps`), and the schedule is
/// deterministic: makespan depends only on `workers`, never on wall
/// clock. Sweep-level partitioning still accelerates real wall time and
/// is reported per query as [`parcfl_core::QueryStats::span_steps`]; it
/// is deliberately not double-counted here.
fn schedule_batch(durations: &[u64], providers: &[Vec<u32>], workers: usize) -> u64 {
    let workers = workers.max(1);
    let mut free = vec![0u64; workers];
    let mut finish = vec![0u64; durations.len()];
    for (i, (&d, deps)) in durations.iter().zip(providers).enumerate() {
        let ready = deps.iter().map(|&j| finish[j as usize]).max().unwrap_or(0);
        let w = (0..workers).min_by_key(|&w| free[w]).expect("workers >= 1");
        finish[i] = free[w].max(ready) + d;
        free[w] = finish[i];
    }
    free.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_frontend::build_pag;

    #[test]
    fn seq_answers_every_query() {
        let src = "class Obj { }
                   class A { method m() {
                     var a: Obj; var b: Obj;
                     a = new Obj; b = a;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let queries = pag.application_locals();
        let r = run_seq(&pag, &queries, &SolverConfig::default());
        assert_eq!(r.stats.queries, queries.len());
        assert_eq!(r.stats.completed, queries.len());
        assert_eq!(r.answers.len(), queries.len());
        assert_eq!(r.stats.makespan, r.stats.traversed_steps);
        assert!(r.stats.steps_saved == 0, "no sharing in SeqCFL");
    }

    #[test]
    fn matrix_run_matches_seq() {
        let src = "class Obj { }
                   class Box { field f: Obj;
                     method set(v: Obj) { this.f = v; }
                     method get(): Obj { var r: Obj; r = this.f; return r; }
                   }
                   class A { method m() {
                     var b: Box; var x: Obj; var y: Obj;
                     b = new Box; x = new Obj;
                     call b.set(x);
                     y = call b.get();
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let queries = pag.application_locals();
        let cfg = crate::RunConfig::new(crate::Mode::Naive, 1, crate::Backend::Simulated);
        let seq = run_seq(&pag, &queries, &cfg.solver);
        let mat = run_matrix(&pag, &queries, &cfg);
        assert_eq!(seq.sorted_answers(), mat.sorted_answers());
        assert_eq!(mat.stats.queries, queries.len());
        // At one worker the critical path is the whole scan sequence.
        assert_eq!(mat.stats.makespan, mat.stats.traversed_steps);
        assert_eq!(mat.stats.engine_dispatched, Some(crate::Engine::Matrix));
        assert!(mat.stats.interner_ctxs >= 1);

        // More sweep workers never change the answers or total work, and
        // can only shorten the critical path.
        let par_cfg = crate::RunConfig::new(crate::Mode::Naive, 4, crate::Backend::Simulated);
        let par = run_matrix(&pag, &queries, &par_cfg);
        assert_eq!(mat.sorted_answers(), par.sorted_answers());
        assert_eq!(mat.stats.traversed_steps, par.stats.traversed_steps);
        assert!(par.stats.makespan <= mat.stats.makespan);
    }

    /// Matrix tracing is observation-only and fills per-worker lanes:
    /// lane 0 carries query and wave spans with monotone timestamps, the
    /// sweep histograms flow into `RunStats` at every level, and an `Off`
    /// run returns identical answers with no trace.
    #[test]
    fn matrix_trace_records_wave_lanes() {
        let src = "class Obj { }
                   class Box { field f: Obj;
                     method set(v: Obj) { this.f = v; }
                     method get(): Obj { var r: Obj; r = this.f; return r; }
                   }
                   class A { method m() {
                     var b: Box; var c: Box; var x: Obj; var y: Obj; var z: Obj;
                     b = new Box; c = b; x = new Obj;
                     call b.set(x);
                     y = call b.get(); z = call c.get();
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let queries = pag.application_locals();
        let cfg = crate::RunConfig::new(crate::Mode::Naive, 4, crate::Backend::Simulated)
            .with_tracing(TraceLevel::Full);
        let traced = run_matrix(&pag, &queries, &cfg);
        let off_cfg = crate::RunConfig::new(crate::Mode::Naive, 4, crate::Backend::Simulated);
        let off = run_matrix(&pag, &queries, &off_cfg);
        assert_eq!(
            off.sorted_answers(),
            traced.sorted_answers(),
            "tracing is observation-only"
        );
        assert_eq!(off.stats.traversed_steps, traced.stats.traversed_steps);
        assert_eq!(off.stats.packed_gathers, traced.stats.packed_gathers);
        assert_eq!(off.stats.sweep_class_steps, traced.stats.sweep_class_steps);
        assert!(off.trace.is_none(), "Off produces no trace");
        assert!(
            !off.stats.hists.wave_width.is_empty(),
            "wave histograms are always on"
        );
        let trace = traced.trace.expect("trace present at Full");
        assert!(trace.real_time);
        let w0 = &trace.workers[0];
        assert_eq!(w0.worker, 0);
        assert!(w0.events.iter().any(|e| e.kind == EventKind::QueryStart));
        assert!(w0.events.iter().any(|e| e.kind == EventKind::WaveStart));
        assert!(w0.events.iter().any(|e| e.kind == EventKind::WaveEnd));
        for w in &trace.workers {
            assert!(
                w.events.windows(2).all(|p| p[0].ts <= p[1].ts),
                "lane {} timestamps monotone",
                w.worker
            );
        }
    }

    /// The sweep-stress bench is engineered to cross the engine's
    /// fan-out gate: at every worker count above one a matrix run must
    /// fan waves out, gather through packed rows *and* the CSR fallback,
    /// and fill multiple trace lanes — all without perturbing the answers,
    /// the interner or the deterministic counters of a one-worker run.
    #[test]
    fn sweep_stress_fans_out_across_lanes() {
        let b = parcfl_synth::sweep_stress_bench();
        let seq_cfg = crate::RunConfig::new(crate::Mode::Naive, 1, crate::Backend::Simulated)
            .with_solver(b.solver.clone());
        let seq = run_matrix(&b.pag, &b.queries, &seq_cfg);
        assert_eq!(seq.stats.pool_wakes, 0, "one worker never fans out");
        for workers in [2usize, 4, 8] {
            let cfg = crate::RunConfig::new(crate::Mode::Naive, workers, crate::Backend::Simulated)
                .with_solver(b.solver.clone())
                .with_tracing(TraceLevel::Full);
            let par = run_matrix(&b.pag, &b.queries, &cfg);
            assert!(par.stats.pool_wakes > 0, "wide waves fan out at {workers}");
            assert!(
                par.stats.packed_gathers > 0,
                "fat assign rows gather packed"
            );
            assert!(par.stats.csr_fallback_rows > 0, "thin new rows fall back");
            let trace = par.trace.as_ref().expect("trace present at Full");
            assert!(
                trace.workers.len() > 1,
                "fan-out fills lanes beyond worker 0 (got {})",
                trace.workers.len()
            );
            assert!(trace
                .workers
                .iter()
                .all(|w| w.events.iter().any(|e| e.kind == EventKind::WaveStart)));
            let lane0 = &trace.workers[0].events;
            let fan_outs = lane0.iter().filter(|e| e.kind == EventKind::FanOut);
            assert_eq!(fan_outs.count() as u64, par.stats.pool_wakes);
            assert!(lane0.iter().any(|e| e.kind == EventKind::PackedGather));
            assert_eq!(seq.sorted_answers(), par.sorted_answers());
            assert_eq!(seq.stats.traversed_steps, par.stats.traversed_steps);
            assert_eq!(seq.stats.interner_ctxs, par.stats.interner_ctxs);
            assert_eq!(seq.stats.packed_gathers, par.stats.packed_gathers);
            assert_eq!(seq.stats.csr_fallback_rows, par.stats.csr_fallback_rows);
            assert_eq!(seq.stats.sweep_class_steps, par.stats.sweep_class_steps);
        }
    }

    #[test]
    fn seq_force_disables_sharing() {
        let src = "class Obj { }
                   class A { method m() { var a: Obj; a = new Obj; } }";
        let pag = build_pag(src).unwrap().pag;
        let cfg = SolverConfig::default().with_data_sharing();
        let r = run_seq(&pag, &pag.application_locals(), &cfg);
        assert_eq!(r.stats.shortcuts_taken, 0);
    }
}
