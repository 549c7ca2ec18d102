//! Ablation of the **group-dispatch granularity**: the paper assigns a
//! group of queries (average size `M`) to a thread per work-list fetch to
//! amortise lock contention; at this harness's scale the simulator prices
//! a fetch at ~1 step, so the default DQ dispatch is per-query (cap = 1).
//! This sweep regenerates the trade-off: coarse groups lose load balance,
//! and per-group dispatch only pays when fetches are expensive.

use parcfl_bench::{average, cfg_for, speedup};
use parcfl_core::SharedJmpStore;
use parcfl_runtime::sim::{run_simulated_hooked, Fifo};
use parcfl_runtime::{run_seq, schedule_with_cap, Mode};

const CAPS: [usize; 4] = [1, 4, 16, 64];
const FETCH_COSTS: [u64; 2] = [1, 50];

fn main() {
    let suite = parcfl_synth::build_suite();
    for &fetch in &FETCH_COSTS {
        println!("--- fetch_cost = {fetch} steps ---");
        print!("{:<10}", "cap");
        for &c in &CAPS {
            print!(" {:>8}", c);
        }
        println!();
        let mut per_cap: Vec<Vec<f64>> = vec![Vec::new(); CAPS.len()];
        for b in &suite {
            let seq = run_seq(&b.pag, &b.queries, &b.solver);
            for (i, &cap) in CAPS.iter().enumerate() {
                let cfg = cfg_for(b, Mode::DataSharingSched, 16);
                let schedule = schedule_with_cap(&b.pag, &b.queries, cfg.mode, Some(cap));
                let (store, hook) = (SharedJmpStore::new(), &mut Fifo(fetch));
                let (r, _) = run_simulated_hooked(&b.pag, &schedule, &cfg, &store, 0, hook);
                per_cap[i].push(speedup(seq.stats.makespan, &r));
            }
        }
        print!("{:<10}", "avg DQ16");
        for c in &per_cap {
            print!(" {:>7.1}x", average(c));
        }
        println!("\n");
    }
    println!(
        "expectation: with cheap fetches smaller caps win (load balance); \
         with expensive fetches (contended lock) larger groups recover the \
         paper's motivation for group dispatch."
    );
}
