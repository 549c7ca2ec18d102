//! `SeqCFL` — the sequential baseline: Algorithm 1 (no sharing, no
//! scheduling), queries processed in input order.
//!
//! `run_seq` *is* the demand batch driver ([`crate::batch`]) at one
//! worker: one lane, inline on the calling thread, wall clock, each query
//! its own group in input order, sharing off — the literal form of the
//! paper's `ParCFL(1, naive) ≈ SeqCFL` (Section IV-D1). It spawns nothing
//! and allocates no store.

use crate::batch::{Answers, Batch, Clock};
use crate::stats::RunResult;
use crate::trace::TraceLevel;
use parcfl_core::SolverConfig;
use parcfl_pag::{NodeId, Pag};

/// Runs every query sequentially with data sharing disabled: the calling
/// thread is the batch's one worker and pulls the queries in input order,
/// one per group (the unscheduled schedule, without materialising its
/// per-query `Vec`s).
pub fn run_seq(pag: &Pag, queries: &[NodeId], solver_cfg: &SolverConfig) -> RunResult {
    let batch = Batch {
        pag,
        cfg: solver_cfg,
        store: None,
        base: 0,
        tracing: TraceLevel::Off,
        clock: Clock::Wall,
        start: std::time::Instant::now(),
    };
    let mut lane = batch.lane(0, batch.jmp());
    let mut answers = Answers::with_capacity(queries.len(), solver_cfg.record_footprints);
    for group in queries.chunks(1) {
        lane.run_group(group, 0, &mut answers);
    }
    batch.finish(1.0, answers, [lane.finish()])
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
    fn seq_force_disables_sharing() {
        let src = "class Obj { }
                   class A { method m() { var a: Obj; a = new Obj; } }";
        let pag = build_pag(src).unwrap().pag;
        // Thresholds that would publish everything: there is still no
        // store to publish to.
        let cfg = SolverConfig::default().without_tau_thresholds();
        let r = run_seq(&pag, &pag.application_locals(), &cfg);
        assert_eq!(r.stats.shortcuts_taken, 0);
        assert_eq!(r.stats.jmp_inserts, 0);
        assert_eq!((r.stats.jmp_edges, r.stats.jmp_bytes), (0, 0));
    }
}
