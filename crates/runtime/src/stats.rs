//! Aggregate run statistics — the raw material of Table I, Fig. 6 and
//! Fig. 8.

use parcfl_concurrent::WorkerObs;
use parcfl_core::{Answer, QueryStats};
use parcfl_obs::{ObsHists, RunTrace};
use parcfl_pag::NodeId;

/// Aggregated statistics of one analysis run (sequential or parallel).
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Queries issued.
    pub queries: usize,
    /// Queries answered within budget.
    pub completed: usize,
    /// Queries that ran out of budget.
    pub out_of_budget: usize,
    /// Early terminations (`#ETs`): out-of-budget verdicts reached through
    /// an unfinished jmp edge.
    pub early_terminations: usize,
    /// Total steps charged against budgets.
    pub charged_steps: u64,
    /// Total steps actually traversed — `#S` when sharing is off; the
    /// real-work measure wall-clock scales with.
    pub traversed_steps: u64,
    /// Total steps saved by finished shortcuts.
    pub steps_saved: u64,
    /// Finished shortcuts taken.
    pub shortcuts_taken: u64,
    /// Jmp-store hits served by entries published *before* this batch's
    /// warm floor — cross-batch reuse inside an
    /// [`crate::AnalysisSession`]. 0 for one-shot runs.
    pub warm_hits: u64,
    /// Entries evicted from the jmp store during this run (bounded-memory
    /// sessions only; 0 for unbounded stores).
    pub evictions: u64,
    /// Entries resident in the jmp store at the end of the run.
    pub store_entries: usize,
    /// Batches folded into this accumulator (1 for a single run; the
    /// session's cumulative stats count every submitted batch).
    pub batches: usize,
    /// jmp edges in the store at the end (`#Jumps`).
    pub jmp_edges: usize,
    /// Approximate bytes held by the jmp store.
    pub jmp_bytes: usize,
    /// Allocation-volume proxy summed over queries (Section IV-D5).
    pub mem_items: u64,
    /// Largest single-query `mem_items` seen — the peak-resident proxy
    /// recorded in `BENCH_solver.json`. Includes the physical
    /// visited-state words (see `peak_state_words`), so dense-bitset and
    /// hash state backends are compared honestly.
    pub peak_mem_items: u64,
    /// Largest single-query [`QueryStats::state_words`] seen: peak
    /// physical `u64` words held by visited-state tables (exact under the
    /// dense backend, a per-entry estimate under hash — DESIGN.md §11).
    pub peak_state_words: u64,
    /// Contexts resident in the run's shared interner at the end
    /// (including the empty context); 0 when the store carries none.
    pub interner_ctxs: usize,
    /// Virtual-time makespan (simulated backend) — the parallel "runtime".
    pub makespan: u64,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
    /// Average group size of the schedule (`S_g`; 1.0 when unscheduled).
    pub avg_group_size: f64,
    /// Per-worker dispatch observability: one record per worker, filled
    /// by the demand batch driver on every executor (a sequential run has
    /// one worker; only the threaded backend has lock wait to report).
    /// Session merges sum the records per worker slot across batches.
    pub workers: Vec<WorkerObs>,
    /// jmp entries published during this run (finished + unfinished
    /// publications that won their race).
    pub jmp_inserts: u64,
    /// Jmp entries dropped by selective invalidation across every
    /// [`crate::AnalysisSession::apply_delta`] folded in. A **counter**
    /// (sums across batches/deltas), not a gauge: each invalidation is a
    /// distinct event, unlike `store_entries`' residency snapshots.
    pub invalidated_jmps: u64,
    /// Jmp entries that *survived* selective invalidation, summed over
    /// deltas — the reuse the footprints bought. Also a counter: an entry
    /// surviving two deltas is two retention events.
    pub retained_warm: u64,
    /// Latency histograms (query latency, lock wait, group makespan),
    /// merged slot-wise across workers and batches. Units are nanoseconds
    /// under real execution, traversal steps under the simulator.
    pub hists: ObsHists,
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
        self.mem_items += qs.mem_items;
        self.peak_mem_items = self.peak_mem_items.max(qs.mem_items);
        self.peak_state_words = self.peak_state_words.max(qs.state_words);
        self.jmp_inserts += qs.finished_published + qs.unfinished_published;
    }

    /// Merges another accumulator: per-thread partials within a run, or a
    /// finished batch into a session's cumulative stats. Counters (and the
    /// additive time measures `makespan`/`wall`/`batches`) sum — `warm_hits`
    /// and `evictions` are true per-batch counters (warm hits are counted
    /// per query; evictions are scoped per batch handle), so summing them
    /// across batches is exact; `peak_mem_items` takes the max. Gauge
    /// fields (`jmp_edges`, `jmp_bytes`, `store_entries`,
    /// `avg_group_size`, `interner_ctxs`) describe *current* shared state,
    /// not accumulation: when `other` is a finished batch
    /// (`other.batches > 0`) they take `other`'s observation verbatim —
    /// including zero, which is a real residency report (an earlier
    /// non-zero-only rule let a drained store keep reporting a stale
    /// count). Per-thread partials within a run carry `batches == 0` and
    /// no gauge observations, so intra-run merging leaves gauges alone.
    /// Per-worker records sum slot-wise, growing the vector as needed.
    pub fn merge(&mut self, other: &RunStats) {
        self.queries += other.queries;
        self.completed += other.completed;
        self.out_of_budget += other.out_of_budget;
        self.early_terminations += other.early_terminations;
        self.charged_steps += other.charged_steps;
        self.traversed_steps += other.traversed_steps;
        self.steps_saved += other.steps_saved;
        self.shortcuts_taken += other.shortcuts_taken;
        self.warm_hits += other.warm_hits;
        self.evictions += other.evictions;
        self.jmp_inserts += other.jmp_inserts;
        self.invalidated_jmps += other.invalidated_jmps;
        self.retained_warm += other.retained_warm;
        self.hists.merge(&other.hists);
        self.mem_items += other.mem_items;
        self.peak_mem_items = self.peak_mem_items.max(other.peak_mem_items);
        self.peak_state_words = self.peak_state_words.max(other.peak_state_words);
        self.makespan += other.makespan;
        self.wall += other.wall;
        self.batches += other.batches;
        if other.batches > 0 {
            self.jmp_edges = other.jmp_edges;
            self.jmp_bytes = other.jmp_bytes;
            self.store_entries = other.store_entries;
            self.avg_group_size = other.avg_group_size;
            self.interner_ctxs = other.interner_ctxs;
        }
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
    /// The event trace — `Some` when the run was configured with
    /// `RunConfig::tracing` above `Off`, one [`parcfl_obs::WorkerTrace`]
    /// per worker. Export with [`RunTrace::to_chrome_json`].
    pub trace: Option<RunTrace>,
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
            out_of_budget: et,
            ..QueryStats::default()
        }
    }

    #[test]
    fn absorb_and_ratios() {
        let mut r = RunStats::default();
        r.absorb(&qs(10, 10, 0, false), &Answer::Complete(vec![]));
        r.absorb(&qs(30, 10, 20, false), &Answer::Complete(vec![]));
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
        a.absorb(&qs(10, 10, 0, false), &Answer::Complete(vec![]));
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
        let hist_of = |vals: &[u64]| {
            let mut h = ObsHists::default();
            for &v in vals {
                h.query_latency.record(v);
            }
            h
        };
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
                evictions: 1,
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
                hists: hist_of(&[10, 20]),
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
                evictions: 2,
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
                hists: hist_of(&[30]),
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
        assert_eq!(cum.evictions, 3);
        assert_eq!(cum.jmp_inserts, 5);
        assert_eq!(cum.invalidated_jmps, 7, "invalidation counters sum");
        assert_eq!(cum.retained_warm, 10);
        assert_eq!(cum.hists, hist_of(&[10, 20, 30]), "histograms merge");
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

    /// Pins the merge class of *every* `RunStats` field. The batch
    /// literals name each field explicitly (no `..Default::default()`),
    /// so adding a field without classifying it here fails to compile —
    /// the guard that caught the invalidation counters being introduced
    /// as latest-wins gauges when each delta's drops must sum.
    #[test]
    fn merge_class_of_every_field_is_pinned() {
        use parcfl_concurrent::WorkerObs;
        let hist_of = |v: u64| {
            let mut h = ObsHists::default();
            h.query_latency.record(v);
            h
        };
        let batch = |k: u64| RunStats {
            // Counters: sum across batches.
            queries: k as usize,
            completed: k as usize,
            out_of_budget: k as usize,
            early_terminations: k as usize,
            charged_steps: k,
            traversed_steps: k,
            steps_saved: k,
            shortcuts_taken: k,
            warm_hits: k,
            evictions: k,
            jmp_inserts: k,
            invalidated_jmps: k,
            retained_warm: k,
            mem_items: k,
            // Additive time measures: sum.
            makespan: k,
            wall: std::time::Duration::from_nanos(k),
            batches: 1,
            // Peaks: max.
            peak_mem_items: k,
            peak_state_words: k,
            // Gauges: latest batch's observation wins.
            store_entries: k as usize,
            jmp_edges: k as usize,
            jmp_bytes: k as usize,
            avg_group_size: k as f64,
            interner_ctxs: k as usize,
            // Structured: workers sum slot-wise, hists merge.
            workers: vec![WorkerObs {
                worker: 0,
                local_pops: k,
                ..WorkerObs::default()
            }],
            hists: hist_of(k),
            // Frozen-benchmark shims: never written, never merged.
            packed_gathers: 0,
            csr_fallback_rows: 0,
            pool_wakes: 0,
            pool_dispatch_ns: 0,
        };
        let mut cum = RunStats::default();
        cum.merge(&batch(10));
        cum.merge(&batch(3));
        // Counters sum.
        assert_eq!(cum.queries, 13);
        assert_eq!(cum.completed, 13);
        assert_eq!(cum.out_of_budget, 13);
        assert_eq!(cum.early_terminations, 13);
        assert_eq!(cum.charged_steps, 13);
        assert_eq!(cum.traversed_steps, 13);
        assert_eq!(cum.steps_saved, 13);
        assert_eq!(cum.shortcuts_taken, 13);
        assert_eq!(cum.warm_hits, 13);
        assert_eq!(cum.evictions, 13);
        assert_eq!(cum.jmp_inserts, 13);
        assert_eq!(cum.invalidated_jmps, 13, "invalidations SUM, not latest");
        assert_eq!(cum.retained_warm, 13, "retention events SUM, not latest");
        assert_eq!(cum.mem_items, 13);
        // Additive time.
        assert_eq!(cum.makespan, 13);
        assert_eq!(cum.wall, std::time::Duration::from_nanos(13));
        assert_eq!(cum.batches, 2);
        // Peaks max.
        assert_eq!(cum.peak_mem_items, 10);
        assert_eq!(cum.peak_state_words, 10);
        // Gauges take the latest batch.
        assert_eq!(cum.store_entries, 3);
        assert_eq!(cum.jmp_edges, 3);
        assert_eq!(cum.jmp_bytes, 3);
        assert_eq!(cum.avg_group_size, 3.0);
        assert_eq!(cum.interner_ctxs, 3);
        // Structured.
        assert_eq!(cum.workers.len(), 1);
        assert_eq!(cum.workers[0].local_pops, 13);
        assert_eq!(cum.hists.query_latency.count(), 2);
    }

    #[test]
    fn merge_gauges_take_latest_even_when_zero() {
        // Regression: `store_entries` (and the other gauges) report
        // *current* residency. A batch that ends with a drained store must
        // overwrite the previous batch's non-zero observation — summing
        // (or keeping the stale non-zero value) inflates session stats.
        let mut cum = RunStats::default();
        cum.merge(&RunStats {
            store_entries: 9,
            jmp_edges: 12,
            jmp_bytes: 300,
            avg_group_size: 2.0,
            batches: 1,
            ..RunStats::default()
        });
        cum.merge(&RunStats {
            store_entries: 0,
            jmp_edges: 0,
            jmp_bytes: 0,
            avg_group_size: 0.0,
            batches: 1,
            ..RunStats::default()
        });
        assert_eq!(cum.store_entries, 0, "gauge follows the latest batch");
        assert_eq!(cum.jmp_edges, 0);
        assert_eq!(cum.jmp_bytes, 0);
        assert_eq!(cum.avg_group_size, 0.0);
        assert_eq!(cum.batches, 2);
        // A per-thread partial (batches == 0) never clobbers gauges.
        let mut batch = RunStats {
            store_entries: 7,
            batches: 1,
            ..RunStats::default()
        };
        batch.merge(&RunStats::default());
        assert_eq!(batch.store_entries, 7, "partials carry no observations");
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
                (NodeId::new(1), Answer::Complete(vec![])),
            ],
            stats: RunStats::default(),
            trace: None,
        };
        let s = r.sorted_answers();
        assert_eq!(s[0].0, NodeId::new(1));
        assert_eq!(s[1].0, NodeId::new(5));
    }
}
