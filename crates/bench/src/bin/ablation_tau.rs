//! Ablation of the **selective jmp insertion** optimisation (Section
//! IV-A / IV-D2): the τF/τU thresholds skip recording shortcuts too cheap
//! to pay for their synchronisation.
//!
//! Three settings are compared: the paper's (τF = 100, τU = 10,000), the
//! calibrated default (`SolverConfig::default()`, τF = 20) and none
//! (0 / 0, every shortcut recorded).
//!
//! The paper reports the average DQ(16) speedup dropping from 16.2× to
//! 12.4× when the optimisation is disabled. That slowdown is a *real-time*
//! effect: each extra `ConcurrentHashMap` insert costs contended
//! synchronisation and heap, which the step-denominated simulator does not
//! price — in pure traversal steps, recording more shortcuts can only
//! save work. Standard output therefore reports two simulated views:
//!
//! 1. the raw virtual-time makespans and jmp-edge counts of each setting,
//!    and
//! 2. a priced model: makespan plus `C` steps per recorded edge (shared
//!    over 16 threads) for a sweep of synchronisation prices `C`. The
//!    paper's direction (thresholds win) emerges once a map insert costs
//!    a few hundred step-equivalents — i.e. a couple of microseconds of
//!    contended CAS + allocation against ~10 ns traversal steps, which is
//!    the regime the paper's Xeon observes at 16 threads.
//!
//! Standard error answers with a clock: DQ on `Backend::Threaded` at one
//! and two threads over the whole suite, the fastest of three passes per
//! setting and thread count, with the threaded traversal's steps and the
//! communication it paid for them: jmp edges inserted and work-list lock
//! wait. Each round of passes runs every setting at both thread counts, so
//! host drift between rounds cancels in the `t1/t2` ratio printed per
//! setting (above 1, two threads beat one). Standard output stays
//! deterministic for `results/regen.sh --check`; the script records
//! standard error as `results/ablation_tau.time`.

use parcfl_bench::{average, cfg_for};
use parcfl_core::SolverConfig;
use parcfl_runtime::{run, run_seq, run_simulated, Backend, Mode, RunConfig};
use parcfl_synth::Bench;
use std::time::{Duration, Instant};

const SYNC_COSTS: [u64; 4] = [0, 50, 250, 1000];
const SETTINGS: [&str; 3] = ["paper", "default", "none"];
const WALL_THREADS: [usize; 2] = [1, 2];
const WALL_PASSES: usize = 3;

/// `b`'s solver configuration under setting `i` of [`SETTINGS`].
fn setting(b: &Bench, i: usize) -> SolverConfig {
    match i {
        0 => SolverConfig {
            tau_finished: 100,
            tau_unfinished: 10_000,
            ..b.solver.clone()
        },
        1 => b.solver.clone(),
        _ => b.solver.clone().without_tau_thresholds(),
    }
}

/// One threaded DQ pass over the suite: wall, threaded steps, jmp edges
/// inserted, work-list lock wait.
fn threaded_pass(suite: &[Bench], i: usize, threads: usize) -> (Duration, u64, u64, Duration) {
    let (mut steps, mut jmps, mut lock_wait) = (0, 0, Duration::ZERO);
    let start = Instant::now();
    for b in suite {
        let cfg = RunConfig::new(Mode::DataSharingSched, threads, Backend::Threaded)
            .with_solver(setting(b, i));
        let r = run(&b.pag, &b.queries, &cfg);
        steps += r.stats.traversed_steps;
        jmps += r.stats.jmp_edges as u64;
        lock_wait += r.stats.total_lock_wait();
    }
    (start.elapsed(), steps, jmps, lock_wait)
}

fn main() {
    let suite = parcfl_synth::build_suite();
    let title = format!(
        "{:<16} {:^26} {:^32}",
        "Benchmark", "jmp edges", "makespan, 16 threads"
    );
    println!("{}", title.trim_end());
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "", "paper", "default", "none", "paper", "default", "none"
    );
    let mut rows = Vec::new();
    for b in &suite {
        let seq = run_seq(&b.pag, &b.queries, &b.solver);
        let runs = [0, 1, 2].map(|i| {
            let mut cfg = cfg_for(b, Mode::DataSharingSched, 16);
            cfg.solver = setting(b, i);
            run_simulated(&b.pag, &b.queries, &cfg).stats
        });
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10}",
            b.name,
            runs[0].jmp_edges,
            runs[1].jmp_edges,
            runs[2].jmp_edges,
            runs[0].makespan,
            runs[1].makespan,
            runs[2].makespan
        );
        rows.push((seq.stats.makespan, runs));
    }

    println!("\npriced speedups (C = sync steps per recorded jmp edge, 16 threads):");
    println!(
        "{:>8} {:>13} {:>13} {:>13}",
        "C", "DQ16(paper)", "DQ16(default)", "DQ16(none)"
    );
    for c in SYNC_COSTS {
        let speedups = [0, 1, 2].map(|i| {
            let per_bench: Vec<f64> = rows
                .iter()
                .map(|(base, runs)| {
                    let span = runs[i].makespan + runs[i].jmp_edges as u64 * c / 16;
                    *base as f64 / span.max(1) as f64
                })
                .collect();
            average(&per_bench)
        });
        println!(
            "{:>8} {:>12.1}x {:>12.1}x {:>12.1}x",
            c, speedups[0], speedups[1], speedups[2]
        );
    }
    println!(
        "\npaper: 16.2x with thresholds vs 12.4x without (wall-clock, real \
         contention). In pure steps extra shortcuts only help; the paper's \
         inversion appears once an insert is priced like a contended map \
         operation (C in the hundreds)."
    );

    eprintln!(
        "DQ on real threads, whole suite, fastest of {WALL_PASSES} passes (wall clock; not \
         deterministic)"
    );
    eprintln!(
        "{:<8} {:>8} {:>8} {:>12} {:>10} {:>12}",
        "setting", "threads", "wall_s", "steps", "jmps", "lock_wait_s"
    );
    let mut best = [[None::<(Duration, u64, u64, Duration)>; 3]; WALL_THREADS.len()];
    for _ in 0..WALL_PASSES {
        for (threads, row) in WALL_THREADS.iter().zip(best.iter_mut()) {
            for (i, slot) in row.iter_mut().enumerate() {
                let pass = threaded_pass(&suite, i, *threads);
                if slot.is_none_or(|b| pass.0 < b.0) {
                    *slot = Some(pass);
                }
            }
        }
    }
    let best = best.map(|row| row.map(Option::unwrap));
    for (threads, row) in WALL_THREADS.iter().zip(&best) {
        for (name, (wall, steps, jmps, lock_wait)) in SETTINGS.iter().zip(row) {
            eprintln!(
                "{name:<8} {threads:>8} {:>8.3} {steps:>12} {jmps:>10} {:>12.4}",
                wall.as_secs_f64(),
                lock_wait.as_secs_f64()
            );
        }
    }
    for (i, name) in SETTINGS.iter().enumerate() {
        let (t1, t2) = (best[0][i].0, best[1][i].0);
        eprintln!(
            "{name:<8} t1/t2 {:>6.2}",
            t1.as_secs_f64() / t2.as_secs_f64()
        );
    }
}
