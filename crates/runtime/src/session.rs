//! The persistent analysis service: one [`AnalysisSession`] per PAG,
//! answering successive query batches against a long-lived jmp store.
//!
//! The one-shot entry points ([`crate::run`], [`crate::run_seq`]) build a
//! fresh store per call, so every invocation re-traverses everything. A
//! session instead keeps two maps warm across batches —
//!
//! * the **answers** — every complete answer of a sharing batch, with the
//!   footprint of the traversal that produced it: a query asked again is
//!   answered with no traversal at all (counted in
//!   [`RunStats::retained_answers`]) until an edit touches something it
//!   read;
//! * the **jmp store** — entries published by batch `i` serve batches
//!   `> i` as shortcuts/early terminations from their very first step
//!   (counted in [`RunStats::warm_hits`]);
//!
//! beside two things it computes once or counts: the per-type **level
//! table** every DQ schedule is built over, and the **session virtual
//! clock** — each batch starts just past the previous batch's end, so
//! simulated visibility stays faithful and the warm/cold accounting
//! boundary is exact.
//!
//! Like the paper's map, neither is bounded: a jmp entry or kept answer
//! leaves only when an edit invalidates it. There is at most one kept answer per distinct query
//! node, and it is the allocation the client was handed: an answer's set
//! is shared, so keeping it and serving it again copy nothing.

use crate::batch::{Answers, Batch, Clock};
use crate::mode::{Backend, Mode, RunConfig};
use crate::sim::run_simulated_batch;
use crate::stats::{RunResult, RunStats};
use crate::threaded::run_threaded_batch;
use crate::trace::TraceLevel;
use parcfl_concurrent::FxHashMap;
use parcfl_core::{Answer, DirtySet, Footprint, SharedJmpStore, SolverConfig};
use parcfl_pag::{NodeId, Pag, PagDelta};
use parcfl_sched::{Schedule, ScheduleCache};
use std::borrow::Cow;
use std::sync::Arc;

/// Outcome of one [`AnalysisSession::apply_delta`]: the PAG revision now
/// live plus exact selective-invalidation accounting. The invalidation
/// law (DESIGN.md §12): a warm jmp entry or kept answer is dropped iff its
/// recorded footprint is missing or intersects the delta's dirty
/// node/field sets — everything else stays warm and keeps serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaReport {
    /// The live graph's revision after the edit (unchanged for a no-op).
    pub revision: u64,
    /// Whether the delta had no effective change: nothing was swapped or
    /// invalidated, and every warm entry survived untouched.
    pub noop: bool,
    /// Jmp-store entries dropped (footprint missing or dirty).
    pub invalidated_jmps: u64,
    /// Jmp-store entries kept warm.
    pub retained_jmps: u64,
    /// Kept answers dropped (the edit touched something their query read).
    pub invalidated_answers: u64,
    /// Kept answers that stay valid on the edited graph.
    pub retained_answers: u64,
    /// Edge ops of the delta that were not applied because they name a
    /// node, field or call site the graph does not have
    /// ([`parcfl_pag::DeltaEffect::rejected_ops`]). The other ops took
    /// effect; these changed nothing.
    pub rejected_ops: u64,
}

/// A long-lived analysis service over one PAG.
///
/// ```
/// use parcfl_runtime::{AnalysisSession, Backend, Mode};
///
/// let src = "class Obj { }
///            class A { method m() { var x: Obj; var y: Obj;
///              x = new Obj; y = x; } }";
/// let pag = parcfl_frontend::build_pag(src).unwrap().pag;
/// let queries = pag.application_locals();
/// let mut session = AnalysisSession::new(&pag).with_threads(4);
/// let first = session.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
/// let second = session.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
/// assert_eq!(first.sorted_answers(), second.sorted_answers());
/// // Nothing was edited in between, so the session still holds every
/// // answer of the first batch: the second traverses nothing.
/// assert!(second.stats.traversed_steps <= first.stats.traversed_steps);
/// assert_eq!(second.stats.traversed_steps, 0);
/// assert_eq!(second.stats.retained_answers, queries.len() as u64);
/// assert_eq!(session.cumulative().batches, 2);
/// ```
pub struct AnalysisSession<'p> {
    /// The live graph. Starts borrowed from the caller; the first
    /// effective [`Self::apply_delta`] swaps in an owned edited revision
    /// (node/method/call-site ids are append-only across revisions, so
    /// every warm entry keyed on them stays meaningful).
    pag: Cow<'p, Pag>,
    /// The jmp entries every sharing batch reads and publishes to.
    store: SharedJmpStore,
    /// The complete answers of sharing batches, per query node, each with
    /// the footprint that vouches for it: [`Self::apply_delta`] drops the
    /// ones an edit can have changed, under the law it applies to `store`.
    /// Unbounded by design (one entry per distinct query node asked).
    kept: FxHashMap<NodeId, (Answer, Arc<Footprint>)>,
    /// The level table DQ schedules are built over.
    cache: ScheduleCache,
    /// Next batch's base virtual time (one past the previous batch's end).
    vclock: u64,
    cumulative: RunStats,
    solver: SolverConfig,
    threads: usize,
    tracing: TraceLevel,
}

impl<'p> AnalysisSession<'p> {
    /// A fresh session over `pag` with paper-default solver parameters,
    /// one thread, and an empty store.
    pub fn new(pag: &'p Pag) -> Self {
        AnalysisSession {
            pag: Cow::Borrowed(pag),
            store: SharedJmpStore::new(),
            kept: FxHashMap::default(),
            cache: ScheduleCache::new(),
            vclock: 0,
            cumulative: RunStats::default(),
            // Sessions always record footprints: [`Self::apply_delta`]'s
            // selective invalidation needs them, for jmp entries and kept
            // answers alike, and recording is pure metadata
            // (answers/steps/contexts are bit-identical).
            solver: SolverConfig::default().with_footprints(),
            threads: 1,
            tracing: TraceLevel::Off,
        }
    }

    /// Overrides the solver configuration (the session keeps footprint
    /// recording on — see [`Self::apply_delta`]).
    pub fn with_solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver.with_footprints();
        self
    }

    /// Sets the worker-thread count (real or simulated).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the tracing level for every subsequent batch (see
    /// [`RunConfig::with_tracing`]): batch results carry a
    /// [`crate::RunTrace`] of their query spans.
    pub fn with_tracing(mut self, tracing: TraceLevel) -> Self {
        self.tracing = tracing;
        self
    }

    /// Answers one batch of queries, warm-starting from every earlier
    /// batch: a query whose complete answer the session still holds is
    /// answered from it, and only the rest are scheduled and traversed,
    /// over every earlier batch's jmp edges (a batch with nothing left to
    /// run builds no schedule and starts no worker). Returns that batch's
    /// own result — `queries` / `completed` cover the whole batch, the
    /// work counters the queries that ran; the session's
    /// running totals move to [`Self::cumulative`]. A [`Mode::Naive`] batch
    /// runs beside the warm state, not through it: it reads nothing kept
    /// or warm, leaves nothing behind, and reports no store residency.
    pub fn submit(&mut self, queries: &[NodeId], mode: Mode, backend: Backend) -> RunResult {
        let cfg = self.run_config(mode, backend);
        let base = self.vclock;
        let (kept, rest) = self.split_kept(queries, mode.shares_data());
        let (result, end) = if rest.is_empty() {
            let clock = match backend {
                Backend::Simulated => Clock::Virtual,
                Backend::Threaded => Clock::Wall,
            };
            (self.idle_batch(mode.shares_data(), clock), base)
        } else {
            let schedule = self.schedule_for_batch(&rest, mode);
            match backend {
                Backend::Simulated => {
                    run_simulated_batch(&self.pag, &schedule, &cfg, &self.store, base)
                }
                Backend::Threaded => {
                    let result = run_threaded_batch(&self.pag, &schedule, &cfg, &self.store, base);
                    // Each query starts at `base` and stamps what it
                    // publishes `base` plus its own steps so far: every
                    // stamp is at or below this.
                    let end = base + result.stats.traversed_steps;
                    (result, end)
                }
            }
        };
        self.vclock = end + 1;
        self.close_batch(kept, result)
    }

    /// Splits a batch into the answers the session still holds and the
    /// queries left to run. A batch that does not share takes nothing.
    fn split_kept<'q>(
        &self,
        queries: &'q [NodeId],
        shares: bool,
    ) -> (Vec<(NodeId, Answer)>, Cow<'q, [NodeId]>) {
        if !shares || self.kept.is_empty() {
            return (Vec::new(), Cow::Borrowed(queries));
        }
        let (mut kept, mut rest) = (Vec::with_capacity(queries.len()), Vec::new());
        for &q in queries {
            match self.kept.get(&q) {
                Some((answer, _)) => kept.push((q, answer.clone())),
                None => rest.push(q),
            }
        }
        (kept, Cow::Owned(rest))
    }

    /// The result of a batch with nothing to run: no lane, no step, the
    /// store's residency as it stands.
    fn idle_batch(&self, shares: bool, clock: Clock) -> RunResult {
        let batch = Batch {
            pag: &self.pag,
            cfg: &self.solver,
            store: shares.then_some(&self.store),
            base: self.vclock,
            tracing: self.tracing,
            clock,
            start: std::time::Instant::now(),
        };
        batch.finish(1.0, Answers::default(), [])
    }

    /// Post-run half of a submit: keeps what the batch answered
    /// completely (a batch that recorded no footprints — a naive one —
    /// hands none over), puts the answers served from earlier batches in
    /// front and folds the batch into the running totals.
    fn close_batch(&mut self, mut kept: Vec<(NodeId, Answer)>, mut result: RunResult) -> RunResult {
        let footprints = std::mem::take(&mut result.footprints);
        for ((q, answer), fp) in result.answers.iter().zip(footprints) {
            if let (Answer::Complete(_), Some(fp)) = (answer, fp) {
                self.kept.insert(*q, (answer.clone(), fp));
            }
        }
        result.stats.queries += kept.len();
        result.stats.completed += kept.len();
        result.stats.retained_answers = kept.len() as u64;
        kept.append(&mut result.answers);
        result.answers = kept;
        self.cumulative.merge(&result.stats);
        result
    }

    /// Running totals over every batch submitted so far. Counters are
    /// sums; `jmp_edges`/`jmp_bytes`/`store_entries`/`avg_group_size` are
    /// the latest batch's snapshot.
    pub fn cumulative(&self) -> &RunStats {
        &self.cumulative
    }

    /// The session's jmp store.
    pub fn store(&self) -> &SharedJmpStore {
        &self.store
    }

    /// Jmp entries currently resident.
    pub fn store_entries(&self) -> usize {
        self.store.entry_count()
    }

    /// The next batch's base virtual time.
    #[cfg(test)]
    pub(crate) fn virtual_clock(&self) -> u64 {
        self.vclock
    }

    /// The session's schedule cache: the level table, and how many
    /// schedules were built over it.
    pub fn schedule_cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// The live graph the session currently answers against (the edited
    /// revision once [`Self::apply_delta`] has run).
    pub fn pag(&self) -> &Pag {
        &self.pag
    }

    /// Edits the live graph in place and selectively invalidates the warm
    /// state, so the next [`Self::submit`] answers against the edited
    /// program while still reusing every unaffected warm entry.
    ///
    /// Exactness (DESIGN.md §12): a jmp entry is dropped iff its recorded
    /// traversal footprint is missing or intersects the
    /// delta's *effective* dirty node/field sets, and a kept answer by the
    /// same test on its query's footprint. A no-op delta
    /// (every op cancelled out) invalidates nothing and does not touch the
    /// graph. The per-call counts are returned in the [`DeltaReport`] and
    /// accumulate into [`Self::cumulative`]
    /// ([`RunStats::invalidated_jmps`] / [`RunStats::retained_warm`]). The virtual clock does not advance —
    /// an edit is not a batch.
    pub fn apply_delta(&mut self, delta: &PagDelta) -> DeltaReport {
        let (new_pag, effect) = self.pag.apply_delta(delta);
        if effect.is_noop() {
            return DeltaReport {
                revision: self.pag.revision(),
                noop: true,
                rejected_ops: effect.rejected_ops,
                ..DeltaReport::default()
            };
        }
        let dirty = DirtySet::from_effect(&effect);
        let (invalidated_jmps, retained_jmps) = self.store.invalidate_delta(&dirty);
        let answers_before = self.kept.len();
        self.kept.retain(|_, (_, fp)| !fp.intersects(&dirty));
        let retained_answers = self.kept.len() as u64;
        self.pag = Cow::Owned(new_pag);
        self.cumulative.merge(&RunStats {
            invalidated_jmps,
            retained_warm: retained_jmps,
            ..RunStats::default()
        });
        DeltaReport {
            revision: self.pag.revision(),
            noop: false,
            invalidated_jmps,
            retained_jmps,
            invalidated_answers: answers_before as u64 - retained_answers,
            retained_answers,
            rejected_ops: effect.rejected_ops,
        }
    }

    fn run_config(&self, mode: Mode, backend: Backend) -> RunConfig {
        let mut solver = self.solver.clone();
        // A naive batch leaves nothing behind — no jmp entry, no kept
        // answer — so there is nothing for it to record a footprint for.
        solver.record_footprints = mode.shares_data();
        RunConfig::new(mode, self.threads, backend)
            .with_solver(solver)
            .with_tracing(self.tracing)
    }

    /// DQ batches are scheduled over the session's level table; the other
    /// modes fetch single queries in input order.
    fn schedule_for_batch(&self, queries: &[NodeId], mode: Mode) -> Schedule {
        if mode.schedules_queries() {
            let opts = crate::dq_options(None);
            self.cache.schedule(&self.pag, queries, &opts)
        } else {
            Schedule::unscheduled(queries)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_seq;
    use parcfl_frontend::build_pag;
    use parcfl_pag::{DeltaOp, Edge, EdgeKind};

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

    fn solver() -> SolverConfig {
        SolverConfig::default().without_tau_thresholds()
    }

    /// Several independent box chains: distinct traversal roots, so an
    /// edit to one chain leaves the others' entries and answers standing.
    fn many_chains_src(n: usize) -> String {
        let mut src = String::from("class Obj { } class Box { field f: Obj; }\nclass A {\n");
        for i in 0..n {
            src.push_str(&format!(
                "method mk{i}(): Box {{ var b{i}: Box; var v{i}: Obj; \
                 b{i} = new Box; v{i} = new Obj; b{i}.f = v{i}; return b{i}; }}\n"
            ));
        }
        src.push_str("method m() {\n");
        for i in 0..n {
            src.push_str(&format!("var p{i}: Box; var x{i}: Obj; var y{i}: Obj;\n"));
        }
        for i in 0..n {
            src.push_str(&format!(
                "p{i} = call this.mk{i}(); x{i} = p{i}.f; y{i} = x{i};\n"
            ));
        }
        src.push_str("} }\n");
        src
    }

    /// The one query of `SRC` whose `ReachableNodes` result the others
    /// reach through: a batch of it alone primes the store for the rest.
    fn primer(pag: &Pag) -> [NodeId; 1] {
        [pag.node_by_name("x1@A.m").unwrap()]
    }

    #[test]
    fn warm_batch_traverses_strictly_less() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let session = || {
            AnalysisSession::new(&pag)
                .with_threads(4)
                .with_solver(solver())
        };
        let cold = session().submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        let mut s = session();
        let first = s.submit(&primer(&pag), Mode::DataSharingSched, Backend::Simulated);
        let warm = s.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        assert_eq!(cold.sorted_answers(), warm.sorted_answers());
        assert!(
            warm.stats.traversed_steps < cold.stats.traversed_steps,
            "warm {} !< cold {}",
            warm.stats.traversed_steps,
            cold.stats.traversed_steps
        );
        assert!(
            warm.stats.warm_hits > 0,
            "second batch must hit warm entries"
        );
        assert_eq!(first.stats.warm_hits, 0, "first batch has nothing warm");
        assert_eq!(cold.stats.warm_hits, 0);
        // The primer's own answer was kept, not traversed again.
        assert_eq!(warm.stats.retained_answers, 1);
        assert_eq!(warm.stats.queries, queries.len());
        assert_eq!(warm.stats.completed, cold.stats.completed);
    }

    /// A kept answer is handed out, not copied: the batch that answered it
    /// and every resubmit that is served from it hold one allocation.
    #[test]
    fn kept_answers_are_handed_out_from_one_allocation() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let mut s = AnalysisSession::new(&pag)
            .with_threads(2)
            .with_solver(solver());
        let sets = |r: &RunResult| -> Vec<(NodeId, *const parcfl_core::CtxNode)> {
            let mut v: Vec<_> = (r.answers.iter())
                .filter_map(|(q, a)| Some((*q, a.complete()?.as_ptr())))
                .collect();
            v.sort_unstable();
            v
        };
        let first = s.submit(&queries, Mode::DataSharingSched, Backend::Threaded);
        assert!(first
            .answers
            .iter()
            .any(|(_, a)| a.nodes().is_some_and(|n| !n.is_empty())));
        let again = s.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        let third = s.submit(&queries, Mode::DataSharingSched, Backend::Threaded);
        assert_eq!(again.stats.retained_answers, queries.len() as u64);
        assert_eq!(
            sets(&again),
            sets(&first),
            "served from the kept allocation"
        );
        assert_eq!(sets(&third), sets(&first));
    }

    /// A batch the session holds every answer of runs nothing: no step, no
    /// worker, no schedule — and is still a batch on the session's clock.
    #[test]
    fn fully_kept_resubmit_traverses_nothing() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        for backend in [Backend::Simulated, Backend::Threaded] {
            let mut s = AnalysisSession::new(&pag)
                .with_threads(2)
                .with_solver(solver());
            let first = s.submit(&queries, Mode::DataSharingSched, backend);
            assert_eq!(first.stats.retained_answers, 0);
            let (clock, misses) = (s.virtual_clock(), s.schedule_cache().misses());
            let again = s.submit(&queries, Mode::DataSharingSched, backend);
            assert_eq!(again.sorted_answers(), first.sorted_answers());
            assert_eq!(again.stats.traversed_steps, 0);
            assert_eq!(again.stats.charged_steps, 0);
            assert_eq!(again.stats.retained_answers, queries.len() as u64);
            assert_eq!(again.stats.queries, queries.len());
            assert_eq!(again.stats.completed, queries.len());
            assert_eq!(again.stats.batches, 1);
            assert!(again.stats.workers.is_empty(), "no worker for no work");
            assert_eq!(again.stats.store_entries, first.stats.store_entries);
            assert!(s.virtual_clock() > clock, "a batch all the same");
            assert_eq!(s.schedule_cache().misses(), misses, "no schedule");
            assert_eq!(s.cumulative().batches, 2);
            assert_eq!(s.cumulative().queries, 2 * queries.len());
            assert_eq!(s.cumulative().retained_answers, queries.len() as u64);
            assert_eq!(s.cumulative().store_entries, s.store_entries());
        }
    }

    /// Nothing vouches for an out-of-budget verdict — it depends on what
    /// the store held when the query ran — so it is never kept: the query
    /// runs again in every batch.
    #[test]
    fn out_of_budget_answers_are_rerun_every_time() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let mut s = AnalysisSession::new(&pag).with_solver(solver().with_budget(4));
        let first = s.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        let (complete, oob) = (first.stats.completed, first.stats.out_of_budget);
        assert!(complete > 0 && oob > 0, "{complete} complete, {oob} not");
        for _ in 0..3 {
            let again = s.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
            assert_eq!(again.sorted_answers(), first.sorted_answers());
            assert_eq!(again.stats.retained_answers, complete as u64);
            assert_eq!(again.stats.out_of_budget, oob, "each ran again");
            assert!(again.stats.charged_steps > 0);
        }
    }

    /// A complete answer that leaned on a jmp entry without a footprint
    /// has none of its own: the session cannot tell which edits leave it
    /// standing, so it does not keep it.
    #[test]
    fn answers_with_a_poisoned_footprint_are_rerun_every_time() {
        use parcfl_core::{JmpEntry, JmpStore};
        // No calls: every context is the empty one, so jmp keys and
        // payloads mean the same in any session's interner.
        let src = "class Obj { } class Box { field f: Obj; }
            class A { method m() {
              var p: Box; var v: Obj; var x: Obj; var y: Obj;
              p = new Box; v = new Obj; p.f = v; x = p.f; y = x;
            } }";
        let pag = build_pag(src).unwrap().pag;
        let queries = pag.application_locals();
        let mut donor = AnalysisSession::new(&pag).with_solver(solver());
        let want = donor.submit(&queries, Mode::DataSharing, Backend::Simulated);
        let mut s = AnalysisSession::new(&pag).with_solver(solver());
        let mut copied = 0;
        donor.store().for_each(|key, entry| {
            if let JmpEntry::Finished {
                total_steps, rch, ..
            } = entry
            {
                let stored = s
                    .store()
                    .publish_finished(*key, *total_steps, rch.clone(), 0, None);
                copied += stored as usize;
            }
        });
        assert!(copied > 0, "the donor published something");
        let through_x: Vec<NodeId> = ["x@A.m", "y@A.m"]
            .iter()
            .map(|n| pag.node_by_name(n).unwrap())
            .collect();
        let clean = (queries.len() - through_x.len()) as u64;
        let mut last = 0;
        for round in 0..3 {
            let r = s.submit(&queries, Mode::DataSharing, Backend::Simulated);
            assert_eq!(r.sorted_answers(), want.sorted_answers());
            assert_eq!(r.stats.completed, queries.len());
            // From the second batch on the queries that never met the
            // entry are served kept; the two that did run every time.
            let kept = if round == 0 { 0 } else { clean };
            assert_eq!(r.stats.retained_answers, kept, "round {round}");
            assert!(r.stats.shortcuts_taken >= through_x.len() as u64);
            assert!(r.stats.traversed_steps > 0);
            last = r.stats.traversed_steps;
        }
        // Once the entry has a footprint again (any edit drops the
        // footprint-less one; the re-run republishes), they are kept too.
        let mut d = PagDelta::new();
        let lonely = pag.node_by_name("v@A.m").unwrap();
        d.add_edge(lonely, lonely, EdgeKind::AssignLocal);
        assert!(s.apply_delta(&d).invalidated_jmps > 0);
        let rerun = s.submit(&queries, Mode::DataSharing, Backend::Simulated);
        assert!(
            rerun.stats.traversed_steps > last,
            "nothing warm to lean on"
        );
        let kept = s.submit(&queries, Mode::DataSharing, Backend::Simulated);
        assert_eq!(kept.stats.retained_answers, queries.len() as u64);
    }

    #[test]
    fn warm_answers_match_cold_seq_across_backends() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let seq = run_seq(&pag, &queries, &SolverConfig::default());
        for backend in [Backend::Simulated, Backend::Threaded] {
            let mut s = AnalysisSession::new(&pag)
                .with_threads(2)
                .with_solver(solver());
            for _ in 0..3 {
                let r = s.submit(&queries, Mode::DataSharingSched, backend);
                assert_eq!(r.sorted_answers(), seq.sorted_answers(), "{backend:?}");
            }
        }
    }

    #[test]
    fn cumulative_stats_accumulate() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let mut s = AnalysisSession::new(&pag).with_solver(solver());
        let a = s.submit(&queries, Mode::DataSharing, Backend::Simulated);
        let b = s.submit(&queries, Mode::DataSharing, Backend::Simulated);
        let cum = s.cumulative();
        assert_eq!(cum.queries, a.stats.queries + b.stats.queries);
        assert_eq!(
            cum.traversed_steps,
            a.stats.traversed_steps + b.stats.traversed_steps
        );
        assert_eq!(cum.warm_hits, a.stats.warm_hits + b.stats.warm_hits);
        assert_eq!(cum.batches, 2);
        assert_eq!(cum.store_entries, s.store_entries());
    }

    #[test]
    fn virtual_clock_advances_monotonically() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let mut s = AnalysisSession::new(&pag).with_solver(solver());
        assert_eq!(s.virtual_clock(), 0);
        s.submit(&queries, Mode::DataSharing, Backend::Simulated);
        let after_one = s.virtual_clock();
        assert!(after_one > 0);
        s.submit(&queries, Mode::DataSharing, Backend::Threaded);
        assert!(s.virtual_clock() > after_one);
        // Every resident entry was created before the next batch's base.
        let mut max_created = 0;
        s.store()
            .for_each(|_, e| max_created = max_created.max(e.created_at()));
        assert!(max_created < s.virtual_clock());
    }

    /// A wall-clock lane looks up past every stamp and still counts warm
    /// hits by the batch's base: one real thread shares through the
    /// session store exactly as the simulator does.
    #[test]
    fn one_thread_submit_shares_through_the_session_store() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let seq = run_seq(&pag, &queries, &SolverConfig::default());
        let submit = |s: &mut AnalysisSession, qs: &[NodeId]| {
            s.submit(qs, Mode::DataSharing, Backend::Threaded)
        };
        let cold = submit(
            &mut AnalysisSession::new(&pag).with_solver(solver()),
            &queries,
        );
        let mut s = AnalysisSession::new(&pag).with_solver(solver());
        submit(&mut s, &primer(&pag));
        let warm = submit(&mut s, &queries);
        assert_eq!(cold.sorted_answers(), seq.sorted_answers());
        assert_eq!(warm.sorted_answers(), seq.sorted_answers());
        assert!(warm.stats.warm_hits > 0);
        assert_eq!(cold.stats.warm_hits, 0);
        assert_eq!(warm.stats.retained_answers, 1);
        assert!(warm.stats.traversed_steps < cold.stats.traversed_steps);
    }

    #[test]
    fn naive_batches_stay_cold() {
        // Naive mode disables sharing: the session store never fills, so
        // later batches cannot warm-start.
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let mut s = AnalysisSession::new(&pag).with_solver(solver());
        let a = s.submit(&queries, Mode::Naive, Backend::Simulated);
        let b = s.submit(&queries, Mode::Naive, Backend::Simulated);
        assert_eq!(s.store_entries(), 0);
        assert_eq!(b.stats.warm_hits, 0);
        assert_eq!(a.stats.traversed_steps, b.stats.traversed_steps);
    }

    /// A naive batch runs beside the session's warm state: the store, the
    /// kept answers and the next sharing batch are exactly what they would
    /// be had it not run — it is served no kept answer, and its own
    /// complete answers are not kept.
    #[test]
    fn naive_batch_between_sharing_batches_leaves_no_trace_in_the_store() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let session = || {
            let mut s = AnalysisSession::new(&pag)
                .with_threads(2)
                .with_solver(solver());
            s.submit(&primer(&pag), Mode::DataSharingSched, Backend::Simulated);
            s
        };
        let (mut with, mut without) = (session(), session());
        let cold = run_seq(&pag, &queries, &SolverConfig::default());
        let naive = with.submit(&queries, Mode::Naive, Backend::Simulated);
        assert_eq!(naive.stats.warm_hits + naive.stats.shortcuts_taken, 0);
        assert_eq!((naive.stats.store_entries, naive.stats.jmp_inserts), (0, 0));
        assert_eq!(
            naive.stats.retained_answers, 0,
            "the primer's is not served"
        );
        assert_eq!(naive.stats.traversed_steps, cold.stats.traversed_steps);
        assert_eq!(naive.stats.completed, queries.len());
        assert_eq!(naive.stats.lookup_hits, 0);
        assert_eq!(with.store_entries(), without.store_entries());
        assert_eq!(
            with.cumulative().lookup_hits,
            without.cumulative().lookup_hits
        );
        let a = with.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        let b = without.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        assert!(a.stats.warm_hits > 0);
        assert_eq!(a.stats.warm_hits, b.stats.warm_hits);
        assert_eq!(a.stats.retained_answers, 1, "none of the naive batch's");
        assert_eq!(a.stats.retained_answers, b.stats.retained_answers);
        assert_eq!(a.stats.traversed_steps, b.stats.traversed_steps);
        assert_eq!(a.stats.store_entries, b.stats.store_entries);
        assert!(a.stats.lookup_hits > 0);
        assert_eq!(a.stats.lookup_hits, b.stats.lookup_hits);
        assert_eq!(
            with.cumulative().lookup_hits,
            without.cumulative().lookup_hits
        );
    }

    /// The `y{i} = x{i}` local assignment of chain `i` (looked up as an
    /// actual frozen edge, so removing it is guaranteed effective).
    fn chain_assign_edge(pag: &Pag, i: usize) -> Edge {
        let x = pag.node_by_name(&format!("x{i}@A.m")).unwrap();
        let y = pag.node_by_name(&format!("y{i}@A.m")).unwrap();
        *pag.edges()
            .iter()
            .find(|e| {
                e.kind == EdgeKind::AssignLocal
                    && ((e.src == x && e.dst == y) || (e.src == y && e.dst == x))
            })
            .expect("chain assignment exists")
    }

    #[test]
    fn apply_delta_invalidates_selectively_and_requeries_match_cold() {
        let src = many_chains_src(4);
        let pag = build_pag(&src).unwrap().pag;
        let queries = pag.application_locals();
        let mut s = AnalysisSession::new(&pag).with_solver(solver());
        s.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        let resident = s.store_entries() as u64;
        assert!(resident > 0);

        let mut d = PagDelta::new();
        d.push(DeltaOp::RemoveEdge(chain_assign_edge(&pag, 0)));
        let report = s.apply_delta(&d);
        assert!(!report.noop);
        assert_eq!(report.revision, 1);
        assert_eq!(s.pag().revision(), 1);
        assert!(report.invalidated_jmps > 0, "entries touching chain 0 drop");
        assert!(report.retained_jmps > 0, "independent chains stay warm");
        assert_eq!(report.invalidated_jmps + report.retained_jmps, resident);
        assert_eq!(s.store_entries() as u64, report.retained_jmps);
        assert!(report.invalidated_answers > 0, "chain 0's answers drop");
        assert!(report.retained_answers > 0, "the other chains' stand");
        assert_eq!(
            report.invalidated_answers + report.retained_answers,
            queries.len() as u64
        );
        // The counters fold into the cumulative totals as sums.
        assert_eq!(s.cumulative().invalidated_jmps, report.invalidated_jmps);
        assert_eq!(s.cumulative().retained_warm, report.retained_jmps);
        // A warm re-query over the edited graph matches a cold run exactly,
        // traversing for the dropped answers only.
        let warm = s.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        let cold = run_seq(s.pag(), &queries, &SolverConfig::default());
        assert_eq!(warm.sorted_answers(), cold.sorted_answers());
        assert_eq!(warm.stats.retained_answers, report.retained_answers);
        assert_eq!(
            warm.stats.workers.iter().map(|w| w.queries).sum::<u64>(),
            report.invalidated_answers
        );
    }

    #[test]
    fn noop_delta_invalidates_nothing_and_keeps_everything_warm() {
        let pag = build_pag(SRC).unwrap().pag;
        let queries = pag.application_locals();
        let cold = run_seq(&pag, &queries, &SolverConfig::default());
        let mut s = AnalysisSession::new(&pag).with_solver(solver());
        s.submit(&primer(&pag), Mode::DataSharingSched, Backend::Simulated);
        let resident = s.store_entries();
        // Removing an absent edge cancels to a no-op.
        let mut d = PagDelta::new();
        d.remove_edge(queries[0], queries[0], EdgeKind::New);
        let report = s.apply_delta(&d);
        assert_eq!(
            report,
            DeltaReport {
                revision: 0,
                noop: true,
                ..DeltaReport::default()
            }
        );
        assert_eq!(s.pag().revision(), 0);
        assert_eq!(s.store_entries(), resident, "nothing invalidated");
        assert_eq!(s.cumulative().invalidated_jmps, 0);
        assert_eq!(s.cumulative().retained_warm, 0);
        // Everything stayed warm: the next batch re-solves nothing it has
        // an answer or a shortcut for.
        let warm = s.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        assert_eq!(warm.sorted_answers(), cold.sorted_answers());
        assert!(warm.stats.warm_hits > 0);
        assert_eq!(warm.stats.retained_answers, 1);
        assert!(warm.stats.traversed_steps < cold.stats.traversed_steps);
    }

    /// An edit naming a node the graph does not have is reported, not
    /// dropped in silence — whether or not the rest of the delta does
    /// anything.
    #[test]
    fn apply_delta_reports_rejected_ops() {
        let src = many_chains_src(2);
        let pag = build_pag(&src).unwrap().pag;
        let queries = pag.application_locals();
        let mut s = AnalysisSession::new(&pag).with_solver(solver());
        s.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        let nowhere = NodeId::new(pag.node_count() as u32);
        let mut d = PagDelta::new();
        d.add_edge(queries[0], nowhere, EdgeKind::AssignLocal);
        let report = s.apply_delta(&d);
        assert!(report.noop);
        assert_eq!((report.rejected_ops, report.revision), (1, 0));
        d.push(DeltaOp::RemoveEdge(chain_assign_edge(&pag, 0)));
        let report = s.apply_delta(&d);
        assert!(!report.noop, "the in-range op of the same delta applies");
        assert_eq!((report.rejected_ops, report.revision), (1, 1));
        assert!(report.invalidated_jmps > 0);
        let warm = s.submit(&queries, Mode::DataSharingSched, Backend::Simulated);
        let cold = run_seq(s.pag(), &queries, &SolverConfig::default());
        assert_eq!(warm.sorted_answers(), cold.sorted_answers());
    }
}
