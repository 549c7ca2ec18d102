//! Aggregate run statistics — the raw material of Table I, Fig. 6 and
//! Fig. 8 — declared once: the `run_stats!` table below is the only place
//! a scalar metric is named. The struct, [`RunStats::merge`] and
//! `BENCH_solver.json` all read it (DESIGN.md §9).

use crate::trace::RunTrace;
use parcfl_concurrent::WorkerObs;
use parcfl_core::{Answer, QueryStats};
use parcfl_pag::NodeId;
use std::time::Duration;

/// How a metric folds when one accumulator is merged into another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeClass {
    /// A counter: every merge adds.
    Sum,
    /// A peak: the larger side wins.
    Max,
    /// A gauge over shared state: a *finished batch*'s observation
    /// replaces the old one, zero included.
    Latest,
}

/// What a metric counts. [`Unit::Seconds`] marks host-clock readings,
/// which no exact-equality consumer may compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Events or resident items.
    Count,
    /// Traversal steps (the paper's deterministic time unit).
    Steps,
    /// `u64` words.
    Words,
    /// Bytes.
    Bytes,
    /// Wall-clock seconds.
    Seconds,
}

/// One row of [`RunStats::SCHEMA`].
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// The `RunStats` field, and the key every exporter uses.
    pub name: &'static str,
    /// How [`RunStats::merge`] folds it.
    pub class: MergeClass,
    /// What it counts.
    pub unit: Unit,
}

impl Metric {
    /// Whether two runs of one configuration must agree on this metric
    /// exactly: everything but host-clock time is derived from seeded
    /// synthesis and virtual time.
    pub fn is_deterministic(&self) -> bool {
        self.unit != Unit::Seconds
    }
}

/// A metric's reading. `Display` renders integers exactly (so JSON tokens
/// compare as text) and durations as seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// An exact count.
    Int(u64),
    /// A ratio or a time in seconds.
    Float(f64),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => v.fmt(f),
            Value::Float(v) => v.fmt(f),
        }
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<Duration> for Value {
    fn from(v: Duration) -> Self {
        Value::Float(v.as_secs_f64())
    }
}

/// Declares the scalar metrics of a run: one row per metric —
/// `field: type, merge class, unit;` under the doc comment that describes
/// it — and expands to the [`RunStats`] struct (the `structured` fields
/// appended verbatim), [`RunStats::SCHEMA`], [`RunStats::scalars`] and the scalar
/// half of [`RunStats::merge`]. A row cannot be declared without a class.
macro_rules! run_stats {
    (
        scalars { $(
            $(#[$doc:meta])* $field:ident: $ty:ident, $class:ident, $unit:ident;
        )* }
        structured { $($rest:tt)* }
    ) => {
        /// Aggregated statistics of one analysis run (sequential or parallel).
        #[derive(Clone, Debug, Default)]
        pub struct RunStats {
            $( $(#[$doc])* pub $field: $ty, )*
            $($rest)*
        }

        impl RunStats {
            /// Every scalar metric of a run, in declaration order.
            pub const SCHEMA: &'static [Metric] = &[ $( Metric {
                name: stringify!($field),
                class: MergeClass::$class,
                unit: Unit::$unit,
            }, )* ];

            /// This run's reading of every [`Self::SCHEMA`] row.
            pub fn scalars(&self) -> impl Iterator<Item = (&'static Metric, Value)> {
                Self::SCHEMA.iter().zip([ $( Value::from(self.$field), )* ])
            }

            /// Folds every scalar of `other` in by its declared class.
            fn merge_scalars(&mut self, other: &RunStats) {
                let finished = other.batches > 0;
                $( run_stats!(@$class self.$field, other.$field, finished); )*
            }

            /// A finished batch with every scalar reading `k`.
            #[cfg(test)]
            fn sample(k: u32) -> RunStats {
                RunStats {
                    $( $field: run_stats!(@sample $ty, k), )*
                    ..RunStats::default()
                }
            }
        }
    };
    (@Sum $a:expr, $b:expr, $finished:expr) => { $a += $b; };
    (@Max $a:expr, $b:expr, $finished:expr) => { if $b > $a { $a = $b; } };
    (@Latest $a:expr, $b:expr, $finished:expr) => { if $finished { $a = $b; } };
    (@sample Duration, $k:expr) => { Duration::from_secs($k.into()) };
    (@sample $ty:ident, $k:expr) => { $k as $ty };
}

run_stats! {
    scalars {
        /// Queries issued.
        queries: usize, Sum, Count;
        /// Queries answered within budget.
        completed: usize, Sum, Count;
        /// Queries that ran out of budget.
        out_of_budget: usize, Sum, Count;
        /// Early terminations (`#ETs`): out-of-budget verdicts reached through
        /// an unfinished jmp edge.
        early_terminations: usize, Sum, Count;
        /// Total steps charged against budgets.
        charged_steps: u64, Sum, Steps;
        /// Total steps actually traversed — `#S` when sharing is off; the
        /// real-work measure wall-clock scales with.
        traversed_steps: u64, Sum, Steps;
        /// Total steps saved by finished shortcuts.
        steps_saved: u64, Sum, Steps;
        /// Finished shortcuts taken.
        shortcuts_taken: u64, Sum, Count;
        /// Jmp-store hits served by entries published *before* this batch's
        /// warm floor — cross-batch reuse inside an
        /// [`crate::AnalysisSession`]. 0 for one-shot runs.
        warm_hits: u64, Sum, Count;
        /// Jmp lookups that found a visible entry (finished or unfinished),
        /// whether the lane's copy of the entry or the shared store served
        /// it.
        lookup_hits: u64, Sum, Count;
        /// Entries resident in the jmp store at the end of the run.
        store_entries: usize, Latest, Count;
        /// Batches folded into this accumulator (1 for a single run; the
        /// session's cumulative stats count every submitted batch).
        batches: usize, Sum, Count;
        /// jmp edges in the store at the end (`#Jumps`).
        jmp_edges: usize, Latest, Count;
        /// Approximate bytes held by the jmp store.
        jmp_bytes: usize, Latest, Bytes;
        /// Allocation-volume proxy summed over queries (Section IV-D5).
        mem_items: u64, Sum, Count;
        /// Largest single-query `mem_items` seen — the peak-resident proxy
        /// recorded in `BENCH_solver.json`. Includes the physical
        /// visited-state words (see `peak_state_words`), so dense-bitset and
        /// hash state backends are compared honestly.
        peak_mem_items: u64, Max, Count;
        /// Largest single-query [`QueryStats::state_words`] seen: peak
        /// physical `u64` words held by visited-state tables (exact under the
        /// dense backend, a per-entry estimate under hash — DESIGN.md §11).
        peak_state_words: u64, Max, Words;
        /// Contexts interned at the end of the run (the empty context
        /// included): in the jmp store's interner when the run shares one,
        /// otherwise summed over the lanes' own.
        interner_ctxs: usize, Latest, Count;
        /// Virtual-time makespan (simulated backend) — the parallel "runtime".
        makespan: u64, Sum, Steps;
        /// Wall-clock duration of the run.
        wall: Duration, Sum, Seconds;
        /// Average group size of the schedule (`S_g`; 1.0 when unscheduled).
        avg_group_size: f64, Latest, Count;
        /// jmp edges published during this run by the publications that won
        /// their race, each entry counted as its
        /// [`JmpEntry::edges`](parcfl_core::JmpEntry::edges).
        jmp_inserts: u64, Sum, Count;
        /// Jmp entries dropped by selective invalidation across every
        /// [`crate::AnalysisSession::apply_delta`] folded in. A **counter**
        /// (sums across batches/deltas), not a gauge: each invalidation is a
        /// distinct event, unlike `store_entries`' residency snapshots.
        invalidated_jmps: u64, Sum, Count;
        /// Jmp entries that *survived* selective invalidation, summed over
        /// deltas — the reuse the footprints bought. Also a counter: an entry
        /// surviving two deltas is two retention events.
        retained_warm: u64, Sum, Count;
        /// Queries answered from the complete answer an
        /// [`crate::AnalysisSession`] kept from an earlier batch, with no
        /// traversal (they count in `queries` and `completed` like any
        /// other). 0 for one-shot runs.
        retained_answers: u64, Sum, Count;
    }
    structured {
        /// Per-worker dispatch observability: one record per worker, filled
        /// by the demand batch driver on every executor (a sequential run has
        /// one worker; only the threaded backend has lock wait to report).
        /// Session merges sum the records per worker slot across batches.
        pub workers: Vec<WorkerObs>,
        /// Source-compatibility shims for the frozen `benchmark/` crate: the
        /// matrix engine's sweep counters (DESIGN.md §11). Nothing writes or
        /// merges them; they read 0.
        #[doc(hidden)]
        pub packed_gathers: u64,
        #[doc(hidden)]
        pub csr_fallback_rows: u64,
        #[doc(hidden)]
        pub pool_wakes: u64,
        #[doc(hidden)]
        pub pool_dispatch_ns: u64,
    }
}

impl RunStats {
    /// Folds one query's stats in.
    pub fn absorb(&mut self, qs: &QueryStats, answer: &Answer) {
        self.queries += 1;
        match answer {
            Answer::Complete(_) => self.completed += 1,
            Answer::OutOfBudget => self.out_of_budget += 1,
        }
        if qs.early_terminated {
            self.early_terminations += 1;
        }
        self.charged_steps += qs.charged_steps;
        self.traversed_steps += qs.traversed_steps;
        self.steps_saved += qs.steps_saved;
        self.shortcuts_taken += qs.shortcuts_taken;
        self.warm_hits += qs.warm_hits;
        self.lookup_hits += qs.lookup_hits;
        self.mem_items += qs.mem_items;
        self.peak_mem_items = self.peak_mem_items.max(qs.mem_items);
        self.peak_state_words = self.peak_state_words.max(qs.state_words);
        self.jmp_inserts += qs.finished_published + qs.unfinished_published;
    }

    /// Merges another accumulator: per-thread partials within a run, or a
    /// finished batch into a session's cumulative stats. Each scalar folds
    /// by its declared [`MergeClass`]. `Latest` rows describe *current*
    /// shared state, not accumulation: when `other` is a finished batch
    /// (`other.batches > 0`) they take `other`'s observation verbatim —
    /// including zero, which is a real residency report (an earlier
    /// non-zero-only rule let a drained store keep reporting a stale
    /// count). Per-thread partials within a run carry `batches == 0` and
    /// no gauge observations, so intra-run merging leaves gauges alone.
    /// Per-worker records sum slot-wise, growing the vector as needed.
    pub fn merge(&mut self, other: &RunStats) {
        self.merge_scalars(other);
        for (i, w) in other.workers.iter().enumerate() {
            if self.workers.len() <= i {
                self.workers.push(WorkerObs::new(i));
            }
            self.workers[i].absorb(w);
        }
    }

    /// `R_S` (Table I): steps saved per step traversed.
    pub fn rs_ratio(&self) -> f64 {
        if self.traversed_steps == 0 {
            0.0
        } else {
            self.steps_saved as f64 / self.traversed_steps as f64
        }
    }

    /// Sum of the per-worker records — batch-wide scheduler totals (the
    /// `worker` index of the returned record is meaningless).
    pub fn obs_totals(&self) -> WorkerObs {
        let mut total = WorkerObs::new(usize::MAX);
        for w in &self.workers {
            total.absorb(w);
        }
        total
    }

    /// Total time workers spent acquiring the work-list lock.
    pub fn total_lock_wait(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.workers.iter().map(|w| w.lock_wait_ns).sum())
    }

    /// Source-compatibility shim for the frozen `benchmark/` crate: no
    /// dispatcher steals any more (DESIGN.md §7), so nobody waits on one.
    #[doc(hidden)]
    pub fn total_steal_wait(&self) -> std::time::Duration {
        std::time::Duration::ZERO
    }
}

/// Everything a run produces: per-query answers plus the aggregate.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// `(query variable, answer)` in completion order.
    pub answers: Vec<(NodeId, Answer)>,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// The query spans — `Some` when the run was configured with
    /// `RunConfig::tracing` above `Off`, one [`crate::WorkerTrace`]
    /// per worker.
    pub trace: Option<RunTrace>,
    /// Each answer's whole-query footprint, index for index with
    /// `answers`, on its way from a recording batch's lanes to the
    /// [`crate::AnalysisSession`] that keeps it; empty everywhere else.
    pub(crate) footprints: Vec<Option<std::sync::Arc<parcfl_core::Footprint>>>,
}

impl RunResult {
    /// Answers sorted by query node for cross-run comparison.
    pub fn sorted_answers(&self) -> Vec<(NodeId, Answer)> {
        let mut v = self.answers.clone();
        v.sort_by_key(|(n, _)| *n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qs(charged: u64, traversed: u64, saved: u64, et: bool) -> QueryStats {
        QueryStats {
            charged_steps: charged,
            traversed_steps: traversed,
            steps_saved: saved,
            early_terminated: et,
            ..QueryStats::default()
        }
    }

    #[test]
    fn absorb_and_ratios() {
        let mut r = RunStats::default();
        r.absorb(&qs(10, 10, 0, false), &Answer::Complete(vec![].into()));
        r.absorb(&qs(30, 10, 20, false), &Answer::Complete(vec![].into()));
        r.absorb(&qs(5, 5, 0, true), &Answer::OutOfBudget);
        assert_eq!(r.queries, 3);
        assert_eq!(r.completed, 2);
        assert_eq!(r.out_of_budget, 1);
        assert_eq!(r.early_terminations, 1);
        assert_eq!(r.charged_steps, 45);
        assert_eq!(r.traversed_steps, 25);
        assert!((r.rs_ratio() - 20.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = RunStats::default();
        a.absorb(&qs(10, 10, 0, false), &Answer::Complete(vec![].into()));
        let mut b = RunStats::default();
        b.absorb(&qs(7, 7, 0, true), &Answer::OutOfBudget);
        a.merge(&b);
        assert_eq!(a.queries, 2);
        assert_eq!(a.charged_steps, 17);
        assert_eq!(a.early_terminations, 1);
    }

    #[test]
    fn merge_counters_equal_sums_across_batches() {
        // The session's cumulative accounting: merging batch stats must
        // leave every counter equal to the sum over batches, and every
        // snapshot field equal to the last batch's observation.
        let batches = [
            RunStats {
                queries: 3,
                completed: 2,
                out_of_budget: 1,
                early_terminations: 1,
                charged_steps: 100,
                traversed_steps: 80,
                steps_saved: 20,
                shortcuts_taken: 2,
                warm_hits: 0,
                store_entries: 5,
                batches: 1,
                jmp_edges: 7,
                jmp_bytes: 700,
                mem_items: 11,
                peak_mem_items: 8,
                peak_state_words: 6,
                interner_ctxs: 12,
                makespan: 50,
                wall: std::time::Duration::from_millis(3),
                avg_group_size: 2.0,
                workers: vec![],
                jmp_inserts: 3,
                invalidated_jmps: 2,
                retained_warm: 4,
                ..RunStats::default()
            },
            RunStats {
                queries: 2,
                completed: 2,
                out_of_budget: 0,
                early_terminations: 0,
                charged_steps: 40,
                traversed_steps: 10,
                steps_saved: 30,
                shortcuts_taken: 3,
                warm_hits: 4,
                store_entries: 4,
                batches: 1,
                jmp_edges: 6,
                jmp_bytes: 600,
                mem_items: 5,
                peak_mem_items: 5,
                peak_state_words: 4,
                interner_ctxs: 9,
                makespan: 9,
                wall: std::time::Duration::from_millis(2),
                avg_group_size: 1.5,
                workers: vec![],
                jmp_inserts: 2,
                invalidated_jmps: 5,
                retained_warm: 6,
                ..RunStats::default()
            },
        ];
        let mut cum = RunStats::default();
        for b in &batches {
            cum.merge(b);
        }
        assert_eq!(cum.queries, 5);
        assert_eq!(cum.completed, 4);
        assert_eq!(cum.out_of_budget, 1);
        assert_eq!(cum.early_terminations, 1);
        assert_eq!(cum.charged_steps, 140);
        assert_eq!(cum.traversed_steps, 90);
        assert_eq!(cum.steps_saved, 50);
        assert_eq!(cum.shortcuts_taken, 5);
        assert_eq!(cum.warm_hits, 4);
        assert_eq!(cum.jmp_inserts, 5);
        assert_eq!(cum.invalidated_jmps, 7, "invalidation counters sum");
        assert_eq!(cum.retained_warm, 10);
        assert_eq!(cum.mem_items, 16);
        assert_eq!(cum.peak_mem_items, 8, "peak takes the max across batches");
        assert_eq!(cum.peak_state_words, 6, "state-word peak takes the max");
        assert_eq!(cum.makespan, 59);
        assert_eq!(cum.wall, std::time::Duration::from_millis(5));
        assert_eq!(cum.batches, 2);
        // Snapshots: latest batch wins.
        assert_eq!(cum.store_entries, 4);
        assert_eq!(cum.jmp_edges, 6);
        assert_eq!(cum.jmp_bytes, 600);
        assert_eq!(cum.avg_group_size, 1.5);
        assert_eq!(cum.interner_ctxs, 9, "gauge follows the latest batch");
    }

    /// For every [`RunStats::SCHEMA`] row: merging finished batches folds
    /// it by its declared class. (That the declared classes are the right
    /// ones is `merge_counters_equal_sums_across_batches`' job; a row
    /// cannot be declared without one.)
    #[test]
    fn every_schema_row_merges_by_its_class() {
        let read = |s: &RunStats| -> Vec<f64> {
            s.scalars()
                .map(|(_, v)| match v {
                    Value::Int(v) => v as f64,
                    Value::Float(v) => v,
                })
                .collect()
        };
        let (a, b) = (RunStats::sample(10), RunStats::sample(3));
        // A batch that ends with a drained store and did nothing else.
        let zero = RunStats {
            batches: 1,
            ..RunStats::default()
        };
        let mut cum = RunStats::default();
        cum.merge(&a);
        cum.merge(&b);
        let mut drained = cum.clone();
        drained.merge(&zero);
        // A per-thread partial carries `batches == 0` and no observations.
        let mut partial = cum.clone();
        partial.merge(&RunStats::default());

        let (a, b, zero) = (read(&a), read(&b), read(&zero));
        let (cum, drained, partial) = (read(&cum), read(&drained), read(&partial));
        assert_eq!(cum.len(), RunStats::SCHEMA.len());
        for (i, m) in RunStats::SCHEMA.iter().enumerate() {
            assert!(
                a[i] > b[i] && b[i] > zero[i],
                "{}: distinct samples",
                m.name
            );
            let (want, want_drained) = match m.class {
                MergeClass::Sum => (a[i] + b[i], a[i] + b[i] + zero[i]),
                MergeClass::Max => (a[i], a[i]),
                // Latest-wins includes a zero observation.
                MergeClass::Latest => (b[i], zero[i]),
            };
            assert_eq!(cum[i], want, "{} merges as {:?}", m.name, m.class);
            assert_eq!(drained[i], want_drained, "{} after a drained batch", m.name);
            assert_eq!(partial[i], cum[i], "{}: a partial never clobbers", m.name);
        }
    }

    #[test]
    fn merge_sums_worker_records_per_slot() {
        use parcfl_concurrent::WorkerObs;
        let batch = |pops: u64, queries: u64| RunStats {
            batches: 1,
            workers: vec![
                WorkerObs {
                    worker: 0,
                    local_pops: pops,
                    queries,
                    ..WorkerObs::default()
                },
                WorkerObs {
                    worker: 1,
                    lock_wait_ns: 1,
                    ..WorkerObs::new(1)
                },
            ],
            ..RunStats::default()
        };
        let mut cum = RunStats::default();
        cum.merge(&batch(3, 5));
        cum.merge(&batch(4, 6));
        assert_eq!(cum.workers.len(), 2);
        assert_eq!(cum.workers[0].local_pops, 7);
        assert_eq!(cum.workers[0].queries, 11);
        assert_eq!(cum.workers[1].lock_wait_ns, 2);
        assert_eq!(cum.obs_totals().local_pops, 7);
        assert_eq!(cum.total_lock_wait(), std::time::Duration::from_nanos(2));
    }

    #[test]
    fn rs_ratio_empty_run_is_zero() {
        assert_eq!(RunStats::default().rs_ratio(), 0.0);
    }

    #[test]
    fn sorted_answers_orders_by_node() {
        let r = RunResult {
            answers: vec![
                (NodeId::new(5), Answer::OutOfBudget),
                (NodeId::new(1), Answer::Complete(vec![].into())),
            ],
            stats: RunStats::default(),
            trace: None,
            footprints: Vec::new(),
        };
        let s = r.sorted_answers();
        assert_eq!(s[0].0, NodeId::new(1));
        assert_eq!(s[1].0, NodeId::new(5));
    }
}
