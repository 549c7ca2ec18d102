//! The demand solver's cost per traversed step, in on-CPU nanoseconds of
//! the thread that traverses (`/proc/thread-self/schedstat`): time another
//! tenant's process takes from the core is not counted, which is what lets
//! two builds be told apart to a few per cent on a shared host.
//!
//! Three passes, each run `--reps` times (default 5) with the fastest kept:
//!
//! * `run_seq` over the 15 light Table-I programs (those whose queries all
//!   finish within budget under DQ), as `table1_cold`'s solver probe;
//! * DQ with one worker over all 20 programs: the paper's schedule, a fresh
//!   jmp store per program, every query answered by one lane on the
//!   calling thread — exactly what the one worker of a one-thread
//!   `run(…, DataSharingSched)` does, which the first pass checks by
//!   running that too and comparing the counters;
//! * the same DQ lane recording footprints
//!   (`SolverConfig::record_footprints`, what a session's lanes do): its
//!   ns/step over the plain lane's is the cost of recording per step.
//!   Recording is metadata, so it must do the plain lane's pinned work.
//!
//! Every pass also counts its work, and the counts must equal the pinned
//! ones below: a change that claims a faster step must traverse the same
//! steps. The DQ lane's store also counts the lookups that reach it: the
//! lane answers a key it has been served before from its own copy, so the
//! shared map sees each hit key once plus every miss. `--reps 1` is the CI
//! gate. The DQ pass also prints its early terminations and the share of
//! its traversed steps that went into queries that ran out of budget, in
//! two parts: the queries that exhausted the budget themselves, and those
//! that stopped early.
//!
//! The DQ pass's count moves with the default τF. Since τF went from 100
//! to 20 it traverses a quarter of the steps and spends much of its time
//! taking jmp shortcuts, so its ns/step is not comparable to a figure
//! taken at τF = 100. It moved again when a walk that pops an exhausted
//! query's start began to stop there (5 237 302 steps before, 75 % of
//! them in out-of-budget queries): `SEQ_STEPS` and `DQ_OUT_OF_BUDGET` did
//! not, and they are what shows that rule changed no verdict. It moved
//! once more (2 114 950 steps and 25 511 lookups before) when the
//! schedule began to order a group's members by flow depth and a query's
//! own walk began to go breadth-first once a start is exhausted: more
//! queries stop at an exhausted start, and sooner (3 403 early
//! terminations before; 814 208 steps in out-of-budget queries, 38.5 %).
//! Again neither `SEQ_STEPS` nor `DQ_OUT_OF_BUDGET` moved.
//!
//! ```text
//! cargo run --release -p parcfl-bench --bin step_probe [-- --reps N]
//! ```

use parcfl_bench::thread_cpu_ns;
use parcfl_core::jmp::{ExhaustedStarts, JmpKey, JmpLookup, RchSet};
use parcfl_core::{Answer, CtxInterner, Footprint, JmpStore, SharedJmpStore, Solver};
use parcfl_runtime::{run, run_seq, schedule_with_cap, Backend, Mode, RunConfig};
use parcfl_synth::Bench;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `run_seq`'s traversed steps over the light programs.
const SEQ_STEPS: u64 = 9_943_260;
/// The one-worker DQ pass's traversed steps and out-of-budget queries.
const DQ_STEPS: u64 = 1_602_012;
const DQ_OUT_OF_BUDGET: u64 = 3_713;
/// The lookups the one-worker DQ pass makes in the shared store.
const DQ_LOOKUPS: u64 = 24_982;

/// The work of a pass, or of one program in it.
#[derive(Clone, Copy, Default)]
struct Work {
    steps: u64,
    out_of_budget: u64,
    /// Lookups that reached the shared store (DQ only).
    lookups: u64,
    /// Early terminations (DQ only).
    early: u64,
    /// Traversed steps of the queries that ran out of budget (DQ only):
    /// those that exhausted the budget themselves, and those that stopped
    /// early.
    exhausted_steps: u64,
    early_steps: u64,
}

impl std::iter::Sum for Work {
    fn sum<I: Iterator<Item = Work>>(iter: I) -> Work {
        iter.fold(Work::default(), |a, w| Work {
            steps: a.steps + w.steps,
            out_of_budget: a.out_of_budget + w.out_of_budget,
            lookups: a.lookups + w.lookups,
            early: a.early + w.early,
            exhausted_steps: a.exhausted_steps + w.exhausted_steps,
            early_steps: a.early_steps + w.early_steps,
        })
    }
}

/// What one pass did: on-CPU nanoseconds, and its work.
#[derive(Clone, Copy)]
struct Pass {
    ns: u64,
    work: Work,
}

impl Pass {
    fn ns_per_step(&self) -> f64 {
        self.ns as f64 / self.work.steps.max(1) as f64
    }
}

/// Times `body` on this thread.
fn timed(body: impl FnOnce() -> Work) -> Pass {
    let start = thread_cpu_ns();
    let work = body();
    Pass {
        ns: thread_cpu_ns() - start,
        work,
    }
}

/// A store that forwards to a [`SharedJmpStore`] and counts the lookups
/// that reach it.
struct Counting<'s> {
    store: &'s SharedJmpStore,
    lookups: AtomicU64,
}

impl JmpStore for Counting<'_> {
    fn lookup(&self, key: &JmpKey, now: u64) -> Option<JmpLookup> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.store.lookup(key, now)
    }

    fn publish_finished(
        &self,
        key: JmpKey,
        total_steps: u64,
        rch: RchSet,
        now: u64,
        fp: Option<Arc<Footprint>>,
    ) -> bool {
        self.store.publish_finished(key, total_steps, rch, now, fp)
    }

    fn publish_unfinished(&self, key: JmpKey, s: u64, now: u64) -> bool {
        self.store.publish_unfinished(key, s, now)
    }

    fn ctx_interner(&self) -> Option<Arc<CtxInterner>> {
        self.store.ctx_interner()
    }

    fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    fn exhausted_starts(&self) -> Option<&ExhaustedStarts> {
        self.store.exhausted_starts()
    }
}

/// One worker's DQ lane over `b`, inline, recording footprints if `record`.
fn dq_lane(b: &Bench, record: bool) -> Work {
    let schedule = schedule_with_cap(&b.pag, &b.queries, Mode::DataSharingSched, None);
    let store = SharedJmpStore::new();
    let counting = Counting {
        store: &store,
        lookups: AtomicU64::new(0),
    };
    let cfg = b.solver.clone();
    let cfg = if record { cfg.with_footprints() } else { cfg };
    let mut solver = Solver::new(&b.pag, &cfg, &counting).in_batch(0, false);
    let mut work = Work::default();
    for q in schedule.flat_order() {
        let out = solver.points_to_query(q, 0);
        let (steps, early) = (out.stats.traversed_steps, out.stats.early_terminated);
        work.steps += steps;
        work.early += u64::from(early);
        if matches!(out.answer, Answer::OutOfBudget) {
            work.out_of_budget += 1;
            if early {
                work.early_steps += steps;
            } else {
                work.exhausted_steps += steps;
            }
        }
    }
    work.lookups = counting.lookups.into_inner();
    work
}

fn main() {
    let mut reps = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => reps = n,
                _ => {
                    eprintln!("--reps takes a positive count");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}` (usage: step_probe [--reps N])");
                std::process::exit(2);
            }
        }
    }
    let suite = parcfl_synth::build_suite();

    // The lane is the one-thread run's worker: same counters.
    let one = |b: &Bench| {
        let cfg = RunConfig::new(Mode::DataSharingSched, 1, Backend::Threaded);
        let r = run(&b.pag, &b.queries, &cfg.with_solver(b.solver.clone()));
        (r.stats.traversed_steps, r.stats.out_of_budget as u64)
    };
    let per_program: Vec<(u64, u64)> = suite.iter().map(one).collect();
    let lanes: Vec<(u64, u64)> = suite
        .iter()
        .map(|b| dq_lane(b, false))
        .map(|w| (w.steps, w.out_of_budget))
        .collect();
    assert_eq!(lanes, per_program, "the inline lane is the one-worker run");
    let light: Vec<&Bench> = suite
        .iter()
        .zip(&per_program)
        .filter(|(_, &(_, oob))| oob == 0)
        .map(|(b, _)| b)
        .collect();

    let (mut seq, mut dq, mut rec) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        seq.push(timed(|| {
            let runs = light.iter().map(|b| run_seq(&b.pag, &b.queries, &b.solver));
            runs.map(|r| Work {
                steps: r.stats.traversed_steps,
                out_of_budget: r.stats.out_of_budget as u64,
                ..Work::default()
            })
            .sum()
        }));
        dq.push(timed(|| suite.iter().map(|b| dq_lane(b, false)).sum()));
        rec.push(timed(|| suite.iter().map(|b| dq_lane(b, true)).sum()));
    }

    println!("on-CPU time of this thread (/proc/thread-self/schedstat), fastest of {reps}");
    let fastest = |passes: &[Pass]| {
        passes
            .iter()
            .map(Pass::ns_per_step)
            .fold(f64::INFINITY, f64::min)
    };
    for (label, passes) in [
        (format!("run_seq, {} light programs", light.len()), &seq),
        (format!("DQ, one worker, {} programs", suite.len()), &dq),
        ("DQ, recording footprints".to_string(), &rec),
    ] {
        let best = fastest(passes);
        let all: Vec<String> = passes
            .iter()
            .map(|p| format!("{:.1}", p.ns_per_step()))
            .collect();
        let w = passes[0].work;
        println!(
            "{label:<30} {:>10} steps {:>6} out of budget {:>7} store lookups \
             {best:>7.2} ns/step  (passes: {})",
            w.steps,
            w.out_of_budget,
            w.lookups,
            all.join(" ")
        );
    }
    let w = dq[0].work;
    let share = |steps: u64| 100.0 * steps as f64 / w.steps.max(1) as f64;
    let oob_steps = w.exhausted_steps + w.early_steps;
    println!(
        "DQ early terminations {}, steps in out-of-budget queries {oob_steps} ({:.1} % of the pass's): \
         {} ({:.1} %) exhausting the budget, {} ({:.1} %) stopping early",
        w.early,
        share(oob_steps),
        w.exhausted_steps,
        share(w.exhausted_steps),
        w.early_steps,
        share(w.early_steps)
    );
    println!(
        "DQ recording over plain: {:.2}x ns/step (fastest passes)",
        fastest(&rec) / fastest(&dq)
    );
    // Every pass does the same work, and it is the pinned work.
    for p in &seq {
        assert_eq!(
            (p.work.steps, p.work.out_of_budget),
            (SEQ_STEPS, 0),
            "run_seq's work moved"
        );
    }
    for p in dq.iter().chain(&rec) {
        assert_eq!(
            (p.work.steps, p.work.out_of_budget, p.work.lookups),
            (DQ_STEPS, DQ_OUT_OF_BUDGET, DQ_LOOKUPS),
            "DQ's work moved"
        );
    }
}
