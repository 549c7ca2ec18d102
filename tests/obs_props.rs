//! Property-based tests for the observability layer: tracing must be
//! *observation only*. Across random benchmarks, enabling
//! [`TraceLevel::Spans`] must leave answers and the charged/traversed step
//! accounting bit-identical to [`TraceLevel::Off`] on every backend — the
//! spans may watch the solver, never steer it. What a trace records is one
//! span per query, on the worker that ran it; a worker's spans run forward
//! and do not overlap.
//!
//! Determinism caveat: the sequential and simulated backends are fully
//! deterministic, so *all* counters must match exactly. Real threads with
//! a shared jmp store are not (publication timing legitimately shifts
//! step counts between runs), so the threaded legs pin one worker for the
//! exact-count comparison and check answers only at higher counts.

use parcfl::pag::NodeId;
use parcfl::runtime::{
    run_simulated, run_threaded, AnalysisSession, Backend, Mode, RunConfig, RunTrace, TraceLevel,
};
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

/// Ample budget so answers cannot depend on traversal order (a tight `B`
/// legitimately flips out-of-budget verdicts between interleavings).
fn bench_for(seed: u64) -> parcfl::synth::Bench {
    let mut b = build_bench(&Profile::tiny(seed));
    b.solver = b
        .solver
        .clone()
        .with_budget(5_000_000)
        .without_tau_thresholds();
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A session's one-thread batch on real threads: Spans answers exactly
    /// what Off answers, with identical step accounting; Off yields no
    /// trace, Spans a single-worker trace with one span per query.
    #[test]
    fn seq_tracing_is_observation_only(seed in 0u64..1_000) {
        let b = bench_for(seed);
        let submit = |level: TraceLevel| {
            AnalysisSession::new(&b.pag)
                .with_solver(b.solver.clone())
                .with_tracing(level)
                .submit(&b.queries, Mode::DataSharing, Backend::Threaded)
        };
        let off = submit(TraceLevel::Off);
        prop_assert!(off.trace.is_none(), "Off must not allocate a trace");
        let on = submit(TraceLevel::Spans);
        prop_assert_eq!(on.sorted_answers(), off.sorted_answers(), "seed {}", seed);
        prop_assert_eq!(on.stats.traversed_steps, off.stats.traversed_steps);
        prop_assert_eq!(on.stats.charged_steps, off.stats.charged_steps);
        prop_assert_eq!(on.stats.completed, off.stats.completed);
        let trace = on.trace.expect("Spans yields a trace");
        prop_assert_eq!(trace.workers.len(), 1);
        prop_assert_eq!(span_count(&trace), on.stats.queries);
    }

    /// Simulated backend (fully deterministic): Spans tracing reproduces
    /// Off's makespan and step counts exactly, per mode, and the trace
    /// carries one track per simulated worker.
    #[test]
    fn simulated_tracing_is_observation_only(seed in 0u64..1_000) {
        let b = bench_for(seed);
        for mode in [Mode::Naive, Mode::DataSharing, Mode::DataSharingSched] {
            let cfg = RunConfig::new(mode, 4, Backend::Simulated).with_solver(b.solver.clone());
            let off = run_simulated(&b.pag, &b.queries, &cfg);
            prop_assert!(off.trace.is_none());
            let spans = run_simulated(
                &b.pag, &b.queries, &cfg.clone().with_tracing(TraceLevel::Spans));
            prop_assert_eq!(
                spans.sorted_answers(), off.sorted_answers(), "{:?} seed {}", mode, seed);
            prop_assert_eq!(spans.stats.makespan, off.stats.makespan);
            prop_assert_eq!(spans.stats.traversed_steps, off.stats.traversed_steps);
            prop_assert_eq!(spans.stats.charged_steps, off.stats.charged_steps);
            let trace = spans.trace.expect("Spans yields a trace");
            prop_assert_eq!(trace.workers.len(), 4);
            prop_assert_eq!(span_count(&trace), spans.stats.queries);
        }
    }

    /// What a trace reader relies on, on the deterministic backend: each
    /// worker's spans are the queries it ran, one each, in run order and
    /// not overlapping, and their lengths add up to the steps it traversed;
    /// and the hidden `Full` level records exactly the spans `Spans` does.
    #[test]
    fn simulated_spans_agree_with_worker_counters(seed in 0u64..1_000) {
        let b = bench_for(seed);
        let cfg = RunConfig::new(Mode::DataSharingSched, 3, Backend::Simulated)
            .with_solver(b.solver.clone());
        let run_at = |level| run_simulated(&b.pag, &b.queries, &cfg.clone().with_tracing(level));
        let spans = run_at(TraceLevel::Spans);
        let full = run_at(TraceLevel::Full);
        let (st, ft) = (spans.trace.expect("Spans"), full.trace.expect("Full"));
        prop_assert_eq!(st.workers.len(), ft.workers.len());
        for (s, f) in st.workers.iter().zip(&ft.workers) {
            prop_assert_eq!(&s.events, &f.events, "Full differs from Spans on worker {}", s.worker);
        }
        prop_assert_eq!(st.workers.len(), spans.stats.workers.len());
        for (w, obs) in st.workers.iter().zip(&spans.stats.workers) {
            prop_assert_eq!(w.worker, obs.worker);
            prop_assert_eq!(w.dropped, 0);
            prop_assert_eq!(w.events.len() as u64, obs.queries, "worker {}", w.worker);
            let busy: u64 = w.events.iter().map(|s| s.end - s.start).sum();
            prop_assert_eq!(busy, obs.steps, "worker {}", w.worker);
        }
        spans_are_well_formed(&st, &b.queries)?;
    }

    /// Threaded backend: with one worker the run is deterministic, so
    /// Spans must match Off's step counts exactly; with four workers
    /// answers must still match and the trace must carry one track per
    /// worker. At both counts the wall-clock spans are well formed.
    #[test]
    fn threaded_tracing_is_observation_only(seed in 0u64..1_000) {
        let b = bench_for(seed);
        let cfg1 = RunConfig::new(Mode::DataSharingSched, 1, Backend::Threaded)
            .with_solver(b.solver.clone());
        let off = run_threaded(&b.pag, &b.queries, &cfg1);
        prop_assert!(off.trace.is_none());
        let spans = run_threaded(
            &b.pag, &b.queries, &cfg1.clone().with_tracing(TraceLevel::Spans));
        prop_assert_eq!(spans.sorted_answers(), off.sorted_answers(), "seed {}", seed);
        prop_assert_eq!(spans.stats.traversed_steps, off.stats.traversed_steps);
        prop_assert_eq!(spans.stats.charged_steps, off.stats.charged_steps);
        let trace = spans.trace.expect("Spans yields a trace");
        prop_assert_eq!(span_count(&trace), spans.stats.queries);
        spans_are_well_formed(&trace, &b.queries)?;

        let cfg4 = RunConfig::new(Mode::DataSharingSched, 4, Backend::Threaded)
            .with_solver(b.solver.clone())
            .with_tracing(TraceLevel::Spans);
        let r4 = run_threaded(&b.pag, &b.queries, &cfg4);
        prop_assert_eq!(r4.sorted_answers(), off.sorted_answers(), "x4 seed {}", seed);
        let trace = r4.trace.expect("Spans yields a trace");
        prop_assert_eq!(trace.workers.len(), 4);
        prop_assert_eq!(span_count(&trace), r4.stats.queries);
        spans_are_well_formed(&trace, &b.queries)?;
    }
}

/// The spans a trace holds, over all workers.
fn span_count(trace: &RunTrace) -> usize {
    trace.workers.iter().map(|w| w.events.len()).sum()
}

/// What a trace reader relies on from every backend: each worker's spans
/// run forward (`start <= end`) and in order without overlapping
/// (`end_i <= start_{i+1}`), and every query asked is in exactly one span.
fn spans_are_well_formed(trace: &RunTrace, queries: &[NodeId]) -> Result<(), TestCaseError> {
    for w in &trace.workers {
        for s in &w.events {
            prop_assert!(s.start <= s.end, "worker {}: {:?}", w.worker, s);
        }
        for pair in w.events.windows(2) {
            prop_assert!(
                pair[0].end <= pair[1].start,
                "worker {}: {:?}",
                w.worker,
                pair
            );
        }
    }
    let mut ran: Vec<_> = trace
        .workers
        .iter()
        .flat_map(|w| &w.events)
        .map(|s| s.query)
        .collect();
    let mut asked = queries.to_vec();
    ran.sort_unstable();
    asked.sort_unstable();
    prop_assert_eq!(ran, asked, "every query ran once");
    Ok(())
}
