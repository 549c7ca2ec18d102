//! Regenerates **Fig. 7** — histograms of jmp edges, identified by the
//! number of steps each saves, with and without the selective-insertion
//! optimisation of Section IV-A (τF / τU thresholds).
//!
//! `Finished` are the shortcut edges of Fig. 3(a); `Unfinished` the
//! early-termination edges of Fig. 3(b). `*_opt` rows apply the thresholds.
//! Shape expectation: without the optimisation, many cheap (low-bucket)
//! finished edges appear; the thresholds remove exactly those.

use parcfl_bench::cfg_for;
use parcfl_core::{JmpHistogram, SharedJmpStore};
use parcfl_runtime::{run_simulated_batch, schedule_with_cap, Mode, RunConfig};
use parcfl_synth::Bench;

/// The jmp edges one simulated run of `b` leaves behind.
fn histogram(b: &Bench, cfg: &RunConfig) -> JmpHistogram {
    let schedule = schedule_with_cap(&b.pag, &b.queries, cfg.mode, cfg.group_cap);
    let store = SharedJmpStore::new();
    run_simulated_batch(&b.pag, &schedule, cfg, &store, 0);
    JmpHistogram::of(&store)
}

fn main() {
    let suite = parcfl_synth::build_suite();
    let mut opt = JmpHistogram::default();
    let mut raw = JmpHistogram::default();
    for b in &suite {
        // With thresholds (the paper's default configuration).
        let h = histogram(b, &cfg_for(b, Mode::DataSharingSched, 16));
        // Without thresholds (the ablation drawn as Finished/Unfinished).
        let mut cfg0 = cfg_for(b, Mode::DataSharingSched, 16);
        cfg0.solver = cfg0.solver.without_tau_thresholds();
        let h0 = histogram(b, &cfg0);
        for i in 0..18 {
            opt.finished[i] += h.finished[i];
            opt.unfinished[i] += h.unfinished[i];
            raw.finished[i] += h0.finished[i];
            raw.unfinished[i] += h0.unfinished[i];
        }
    }

    println!(
        "{:>8} {:>10} {:>13} {:>12} {:>15}",
        "bucket", "Finished", "Finished_opt", "Unfinished", "Unfinished_opt"
    );
    for i in 0..18 {
        let label = if i < 17 {
            format!("2^{i}")
        } else {
            ">2^16".to_string()
        };
        println!(
            "{:>8} {:>10} {:>13} {:>12} {:>15}",
            label, raw.finished[i], opt.finished[i], raw.unfinished[i], opt.unfinished[i]
        );
    }
    println!(
        "\ntotals: finished {} -> {} with thresholds; unfinished {} -> {}",
        raw.finished_total(),
        opt.finished_total(),
        raw.unfinished_total(),
        opt.unfinished_total()
    );
}
