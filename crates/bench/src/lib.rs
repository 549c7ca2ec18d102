//! # parcfl-bench — the evaluation harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I — benchmark information and statistics |
//! | `table2` | Table II — comparison of parallel pointer analyses |
//! | `fig6` | Fig. 6 — speedups of naive/D/DQ over SeqCFL |
//! | `fig7` | Fig. 7 — histogram of jmp edges by steps saved |
//! | `fig8` | Fig. 8 — DQ speedups across thread counts |
//! | `memory` | §IV-D5 — memory usage |
//! | `ablation_tau` | §IV-D2 — selective jmp insertion on/off |
//! | `ablation_group` | group-dispatch granularity trade-off |
//!
//! Also here: `warm_cache` (warm-session reuse and incremental re-query
//! tables, every claim asserted) and the rows of the counter gate's
//! artifact — [`diff`] renders the `BENCH_solver.json` `table2` emits and
//! `results/regen.sh --check` `cmp`s. Wall time is not measured here: the
//! stand-alone `benchmark/` crate owns it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;

use parcfl_runtime::{run_simulated, Backend, Mode, RunConfig, RunResult};
use parcfl_synth::Bench;

/// Speedup of `r` relative to a sequential makespan.
pub fn speedup(seq_makespan: u64, r: &RunResult) -> f64 {
    seq_makespan as f64 / r.stats.makespan.max(1) as f64
}

/// Builds the standard run configuration for a benchmark.
pub fn cfg_for(b: &Bench, mode: Mode, threads: usize) -> RunConfig {
    let mut c = RunConfig::new(mode, threads, Backend::Simulated);
    c.solver = b.solver.clone();
    c
}

/// Runs a benchmark under the simulated backend.
pub fn run_mode(b: &Bench, mode: Mode, threads: usize) -> RunResult {
    run_simulated(&b.pag, &b.queries, &cfg_for(b, mode, threads))
}

/// Arithmetic mean (the paper reports arithmetic averages).
pub fn average(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_and_speedup() {
        assert_eq!(average(&[]), 0.0);
        assert!((average(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        let b = parcfl_synth::build_bench(&parcfl_synth::Profile::tiny(3));
        let seq = parcfl_runtime::run_seq(&b.pag, &b.queries, &b.solver);
        let par = run_mode(&b, Mode::Naive, 4);
        let s = speedup(seq.stats.makespan, &par);
        assert!(s > 1.0, "4 simulated threads beat sequential: {s}");
    }
}
