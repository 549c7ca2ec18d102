//! The one demand batch driver (DESIGN.md §1): the per-query body, the
//! per-group body and the batch epilogue, each written once.
//!
//! A batch is a set of *lanes* — one per worker — answering query groups
//! against one jmp store. The executors differ only in the clock their
//! lanes read and in who pulls the next group, and each owns that loop and
//! nothing else: [`crate::run_seq`] walks the queries inline on the calling
//! thread, [`crate::sim`] advances the lowest-clock virtual worker,
//! [`crate::threaded`] has OS threads pop the shared work list. The choice
//! is made once per batch; nothing here is dynamic per step.

use crate::mode::RunConfig;
use crate::stats::{RunResult, RunStats};
use crate::trace::{QuerySpan, RunTrace, TraceLevel, WorkerTrace};
use parcfl_concurrent::WorkerObs;
use parcfl_core::{Answer, Footprint, JmpStore, NoJmpStore, SharedJmpStore, Solver, SolverConfig};
use parcfl_pag::{NodeId, Pag};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// The clock a batch's lanes read.
#[derive(Copy, Clone)]
pub(crate) enum Clock {
    /// Wall time: spans are stamped in nanoseconds since the batch start,
    /// every query starts at the batch's base virtual time, and its jmp
    /// lookups see every entry (real workers see each other's
    /// publications at once).
    Wall,
    /// The simulator's traversal-step clock: a lane's `now` advances by
    /// fetch costs and traversed steps, and is what spans and jmp lookups
    /// see.
    Virtual,
}

/// What every lane of one batch shares.
pub(crate) struct Batch<'a> {
    pub pag: &'a Pag,
    pub cfg: &'a SolverConfig,
    /// The jmp store the batch shares through. `None` is the whole of "no
    /// data sharing": the lanes' solvers get a [`NoJmpStore`] and the
    /// epilogue has no store to report on.
    pub store: Option<&'a SharedJmpStore>,
    /// The batch's base virtual time (0 for one-shot runs): where its
    /// lanes' clocks start and their solvers' warm floor.
    pub base: u64,
    pub tracing: TraceLevel,
    pub clock: Clock,
    /// When the batch began: the wall clock's epoch.
    pub start: Instant,
}

/// One worker's share of a batch.
pub(crate) struct Lane<'a> {
    /// The lane's query spans; `None` when the batch is not traced.
    spans: Option<Vec<QuerySpan>>,
    /// The lane's own solver, and with it the scratch (visited-state
    /// tables, stacks, in-flight sets) every query of the lane reuses; it
    /// dies with the lane at the end of the batch.
    solver: Solver<'a>,
    clock: Clock,
    /// The batch start: where a wall lane's span stamps count from.
    start: Instant,
    /// Whether the solver records footprints, and so whether the lane
    /// passes each answer's on.
    recording: bool,
    /// The lane's virtual instant: what the solver is told the time is,
    /// and a simulated lane's span stamps. Never moves under
    /// [`Clock::Wall`].
    now: u64,
    obs: WorkerObs,
    stats: RunStats,
}

/// What a lane, and then a batch, has answered.
#[derive(Default)]
pub(crate) struct Answers {
    /// `(query, answer)` in completion order.
    pub list: Vec<(NodeId, Answer)>,
    /// Each answer's whole-query footprint, index for index with `list`,
    /// from a batch whose solvers record; empty otherwise.
    pub footprints: Vec<Option<Arc<Footprint>>>,
}

impl Answers {
    /// Room for `n` answers.
    pub(crate) fn with_capacity(n: usize, recording: bool) -> Self {
        Answers {
            list: Vec::with_capacity(n),
            footprints: Vec::with_capacity(if recording { n } else { 0 }),
        }
    }

    /// Moves another lane's answers in behind these.
    pub(crate) fn append(&mut self, mut other: Answers) {
        self.list.append(&mut other.list);
        self.footprints.append(&mut other.footprints);
    }
}

/// What a finished lane hands to [`Batch::finish`].
pub(crate) struct LaneDone {
    stats: RunStats,
    obs: WorkerObs,
    /// The lane's final virtual instant.
    end: u64,
    /// Contexts in the lane's interner: the store's, or the lane's own.
    ctxs: usize,
    trace: WorkerTrace,
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

impl<'a> Batch<'a> {
    /// A batch of the run `cfg` describes against a caller-owned store,
    /// starting now. The mode decides, here and nowhere else, whether the
    /// batch shares through `store`: a naive batch neither reads nor
    /// writes it.
    pub(crate) fn of_run(
        pag: &'a Pag,
        cfg: &'a RunConfig,
        store: &'a SharedJmpStore,
        base: u64,
        clock: Clock,
    ) -> Self {
        Batch {
            pag,
            cfg: &cfg.solver,
            store: cfg.mode.shares_data().then_some(store),
            base,
            tracing: cfg.tracing,
            clock,
            start: Instant::now(),
        }
    }

    /// What a lane's solver is built over.
    pub(crate) fn jmp(&self) -> &'a dyn JmpStore {
        match self.store {
            Some(store) => store,
            None => &NoJmpStore,
        }
    }

    /// Worker `worker`'s lane, its solver built over `jmp` —
    /// [`Self::jmp`], or something that forwards to it — and told what the
    /// batch knows and the store does not: where the warm floor is, and
    /// whether lookups read the lane's virtual clock. At
    /// [`TraceLevel::Off`] it keeps no span list.
    pub(crate) fn lane<'l>(&'l self, worker: usize, jmp: &'l dyn JmpStore) -> Lane<'l> {
        let virtual_clock = matches!(self.clock, Clock::Virtual);
        Lane {
            spans: self.tracing.enabled().then(Vec::new),
            solver: Solver::new(self.pag, self.cfg, jmp).in_batch(self.base, virtual_clock),
            clock: self.clock,
            start: self.start,
            recording: self.cfg.record_footprints,
            now: self.base,
            obs: WorkerObs::new(worker),
            stats: RunStats::default(),
        }
    }

    /// The batch epilogue: folds the finished lanes (in worker order) into
    /// one [`RunResult`].
    pub(crate) fn finish(
        &self,
        avg_group_size: f64,
        answers: Answers,
        lanes: impl IntoIterator<Item = LaneDone>,
    ) -> RunResult {
        // The first lane's partial is the accumulator, so a one-lane batch
        // (every `run_seq`) merges nothing. A batch that had nothing to run
        // has no lane: its partial is empty and it ends where it began.
        let mut lanes = lanes.into_iter();
        let (mut stats, mut end, mut ctxs, mut workers, mut traces) = match lanes.next() {
            Some(first) => (
                first.stats,
                first.end,
                first.ctxs,
                vec![first.obs],
                vec![first.trace],
            ),
            None => (RunStats::default(), self.base, 0, Vec::new(), Vec::new()),
        };
        for lane in lanes {
            stats.merge(&lane.stats);
            end = end.max(lane.end);
            ctxs += lane.ctxs;
            workers.push(lane.obs);
            traces.push(lane.trace);
        }
        stats.wall = self.start.elapsed();
        stats.makespan = match self.clock {
            // Real time is measured by `wall`; the step-denominated
            // makespan of a wall-clock batch is its total traversed work.
            Clock::Wall => stats.traversed_steps,
            Clock::Virtual => end - self.base,
        };
        stats.batches = 1;
        if let Some(store) = self.store {
            stats.store_entries = store.entry_count();
            stats.jmp_edges = store.stats().total_edges();
            stats.jmp_bytes = store.approx_bytes();
        }
        stats.avg_group_size = avg_group_size;
        // Lanes sharing a store resolve against its one interner; without
        // one each lane owns its own.
        stats.interner_ctxs = self.store.map_or(ctxs, |s| s.interner().len());
        stats.workers = workers;
        let trace = self
            .tracing
            .enabled()
            .then_some(RunTrace { workers: traces });
        RunResult {
            answers: answers.list,
            stats,
            trace,
            footprints: answers.footprints,
        }
    }
}

impl Lane<'_> {
    /// The lane's virtual instant.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// A span stamp on the lane's clock: nanoseconds since the batch
    /// start, or the virtual instant. Only a traced lane reads it.
    fn stamp(&self) -> u64 {
        match self.clock {
            Clock::Wall => self.start.elapsed().as_nanos() as u64,
            Clock::Virtual => self.now,
        }
    }

    /// Accounts the time a fetch spent acquiring the work-list lock.
    pub(crate) fn note_lock_wait(&mut self, ns: u64) {
        self.obs.lock_wait_ns += ns;
    }

    /// Answers one fetched group: fetch cost, then the per-query body for
    /// each member. `fetch_steps` is the virtual price of the fetch;
    /// wall-clock executors pass 0.
    pub(crate) fn run_group(&mut self, group: &[NodeId], fetch_steps: u64, answers: &mut Answers) {
        self.obs.local_pops += 1;
        self.now += fetch_steps;
        for &q in group {
            self.answer(q, group, answers);
        }
    }

    /// The per-query body. A panic inside the query is re-raised with the
    /// worker, the query and its group attached, so a crash on a worker
    /// thread is diagnosable from the message alone instead of surfacing
    /// as an opaque `std::thread::scope` abort.
    fn answer(&mut self, q: NodeId, group: &[NodeId], answers: &mut Answers) {
        let start = self.spans.is_some().then(|| self.stamp());
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.solver.points_to_query(q, self.now)
        }))
        .unwrap_or_else(|payload| {
            std::panic::panic_any(format!(
                "worker {} panicked answering query {q:?} of group {group:?}: {}",
                self.obs.worker,
                panic_message(payload.as_ref())
            ))
        });
        if let Clock::Virtual = self.clock {
            self.now += out.stats.traversed_steps;
        }
        if let Some(start) = start {
            let span = QuerySpan {
                query: q,
                start,
                end: self.stamp(),
                complete: matches!(out.answer, Answer::Complete(_)),
            };
            self.spans.as_mut().expect("a traced lane").push(span);
        }
        self.obs.queries += 1;
        self.obs.steps += out.stats.traversed_steps;
        self.stats.absorb(&out.stats, &out.answer);
        answers.list.push((q, out.answer));
        if self.recording {
            answers.footprints.push(out.footprint);
        }
    }

    /// Closes the lane.
    pub(crate) fn finish(self) -> LaneDone {
        LaneDone {
            trace: WorkerTrace {
                worker: self.obs.worker,
                events: self.spans.unwrap_or_default(),
                dropped: 0,
            },
            stats: self.stats,
            obs: self.obs,
            end: self.now,
            ctxs: self.solver.interner().len(),
        }
    }
}
