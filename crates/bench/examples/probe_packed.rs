//! Fair interleaved A/B of the matrix engine's scan representations:
//! per round, runs unpacked-1w / packed-1w / packed-8w in rotating order
//! on each matrix-sized bench and prints per-variant median walls. Drift
//! on a throttling host hits every variant equally.

use parcfl_runtime::{run_matrix, Backend, Mode, RunConfig};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    for b in parcfl_synth::build_suite() {
        if b.pag.node_count() > 1_400 {
            continue;
        }
        let cfgs = [(1, false), (1, true), (8, true)].map(|(threads, packed)| {
            RunConfig::new(Mode::Naive, threads, Backend::Simulated)
                .with_solver(b.solver.clone().with_packed(packed))
        });
        let mut walls: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut wakes = 0u64;
        for r in 0..rounds {
            for k in 0..3usize {
                let v = (r + k) % 3;
                let t = std::time::Instant::now();
                let out = run_matrix(&b.pag, &b.queries, &cfgs[v]);
                walls[v].push(t.elapsed().as_secs_f64() * 1e3);
                assert!(out.stats.queries == b.queries.len());
                if v == 2 {
                    wakes = out.stats.pool_wakes;
                }
            }
        }
        let m: Vec<f64> = walls.iter().map(|w| median(w.clone())).collect();
        println!(
            "{:<16} unpacked1w={:8.3}ms packed1w={:8.3}ms packed8w={:8.3}ms packed_ratio={:.3} par_speedup={:.3} wakes={}",
            b.name,
            m[0],
            m[1],
            m[2],
            m[0] / m[1],
            m[0] / m[2],
            wakes,
        );
    }
}
