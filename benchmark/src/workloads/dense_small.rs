//! `dense_small` — the six small Table-I programs `Engine::Auto` sends to
//! the matrix engine, three rounds a pass: matrix fixpoints,
//! `ChunkedBitset` kernels and packed adjacency do the work and the
//! demand solver none. It must not move when `table1_cold` is optimised,
//! and it does move if `matrix_pays_off` is retuned.
//!
//! A fixed corpus like `table1_cold`'s; the seed permutes query order and
//! picks the check samples.

use super::table1_cold::{check_suite, sizes, THREADS};
use super::{best_of, micro, seconds, Checked, Iteration, Workload};
use crate::metrics::{ratio, Metrics};
use crate::rng::{mix, Rng};
use crate::span::Tracer;
use crate::verify::{Batch, PassOut};
use parcfl_runtime::{
    matrix_pays_off, run, run_matrix, run_seq, run_threaded, Backend, Engine, Mode, RunConfig,
    RunStats,
};
use parcfl_synth::{build_bench, sweep_stress_bench, table1_profiles, Bench};

pub struct DenseSmall;

const PROGRAMS: [&str; 6] = [
    "_200_check",
    "_201_compress",
    "_205_raytrace",
    "_209_db",
    "_227_mtrt",
    "_999_checkit",
];
const ROUNDS: usize = 3;

pub fn inputs(seed: u64) -> Vec<Bench> {
    table1_profiles()
        .iter()
        .filter(|p| PROGRAMS.contains(&p.name.as_str()))
        .enumerate()
        .map(|(i, p)| {
            let mut b = build_bench(p);
            Rng::new(mix(seed, i as u64)).shuffle(&mut b.queries);
            b
        })
        .collect()
}

fn auto(b: &Bench, threads: usize) -> RunConfig {
    RunConfig::new(Mode::DataSharingSched, threads, Backend::Threaded)
        .with_solver(b.solver.clone())
        .with_engine(Engine::Auto)
}

impl Workload for DenseSmall {
    fn name(&self) -> &'static str {
        "dense_small"
    }

    fn expected_digest(&self) -> &'static str {
        include_str!("../../expected/dense_small.seed1.digest")
    }

    fn passes(&self) -> usize {
        14
    }

    fn threads(&self) -> usize {
        THREADS
    }

    fn iteration(&self, seed: u64, it: &mut Iteration) -> PassOut {
        let suite = inputs(seed);
        it.setup_done(sizes(&suite));
        let mut batches = Vec::with_capacity(ROUNDS * suite.len());
        for _ in 0..ROUNDS {
            for b in &suite {
                batches.push(Batch {
                    label: b.name.clone(),
                    answers: run(&b.pag, &b.queries, &auto(b, THREADS)).sorted_answers(),
                });
            }
        }
        PassOut {
            setup_batches: Vec::new(),
            batches,
        }
    }

    fn check(&self, seed: u64, warm: &PassOut) -> Checked {
        check_suite(&inputs(seed), seed, warm, ROUNDS)
    }

    fn traced(&self, seed: u64, tr: &mut Tracer, m: &mut Metrics) -> PassOut {
        let suite = tr.span("setup", |tr| tr.span("synth.build_bench", |_| inputs(seed)));
        let mut stats: Vec<RunStats> = Vec::new();
        let mut packed_words = 0usize;
        let mut to_matrix = 0usize;
        let batches: Vec<Batch> = tr.span("pass", |tr| {
            let mut batches = Vec::new();
            for _ in 0..ROUNDS {
                for b in &suite {
                    let matrix = tr.span("runtime.auto", |_| matrix_pays_off(&b.pag, &b.queries));
                    to_matrix += matrix as usize;
                    // Built lazily on the graph's first matrix run; a
                    // no-op lookup in later rounds.
                    packed_words = packed_words
                        .max(tr.span("pag.packed.build", |_| b.pag.packed().packed_words()));
                    // `run`'s own dispatch, taken apart.
                    let cfg = auto(b, THREADS);
                    let result = if matrix {
                        tr.span("core.matrix", |_| run_matrix(&b.pag, &b.queries, &cfg))
                    } else {
                        tr.span("runtime.threaded", |_| {
                            run_threaded(&b.pag, &b.queries, &cfg)
                        })
                    };
                    let answers = tr.span("runtime.materialise", |_| result.sorted_answers());
                    stats.push(result.stats);
                    batches.push(Batch {
                        label: b.name.clone(),
                        answers,
                    });
                }
            }
            batches
        });
        let sum = |f: &dyn Fn(&RunStats) -> f64| stats.iter().map(f).sum::<f64>();
        let steps = sum(&|s| s.traversed_steps as f64);
        let matrix_s = tr.total_s("core.matrix");
        m.set(
            "runtime.auto.matrix_share",
            ratio(to_matrix as f64, batches.len() as f64),
        );
        m.set("pag.packed.build_s", tr.total_s("pag.packed.build"));
        m.set("pag.packed.words", packed_words as f64);
        m.set("core.matrix.traversed_steps", steps);
        m.set("core.matrix.ns_per_step", ratio(matrix_s * 1e9, steps));
        m.set(
            "core.matrix.packed_gathers",
            sum(&|s| s.packed_gathers as f64),
        );
        m.set(
            "core.matrix.csr_fallback_rows",
            sum(&|s| s.csr_fallback_rows as f64),
        );
        m.set(
            "runtime.materialise.busy_s",
            tr.total_s("runtime.materialise"),
        );

        // Probes: one round of the six programs on the matrix engine at
        // one and two sweep workers, on the demand solver, and through
        // Andersen's whole-program analysis.
        let matrix_at = |threads: usize| {
            best_of(3, || {
                for b in &suite {
                    run_matrix(&b.pag, &b.queries, &auto(b, threads));
                }
            })
        };
        let (seq_s, par_s) = tr.span("probe.core.matrix", |_| (matrix_at(1), matrix_at(THREADS)));
        let demand_s = tr.span("probe.core.solver.seq", |_| {
            seconds(|| {
                for b in &suite {
                    run_seq(&b.pag, &b.queries, &b.solver);
                }
            })
        });
        m.set("core.matrix.seq_s", seq_s);
        m.set("core.matrix.par_over_seq", ratio(seq_s, par_s));
        m.set("core.matrix.over_demand", ratio(demand_s, seq_s));
        let andersen_s = tr.span("probe.andersen", |_| {
            best_of(3, || {
                for b in &suite {
                    parcfl_andersen::analyze(&b.pag);
                }
            })
        });
        m.set("andersen.solve_s", andersen_s);
        tr.span("probe.micro", |_| micro::bitset(m));
        // The sweep pool only wakes on waves wider than any Table-I
        // frontier; the stress graph is the one input that fans out.
        tr.span("probe.concurrent.pool", |_| {
            let stress = sweep_stress_bench();
            let cfg = auto(&stress, THREADS).with_engine(Engine::Matrix);
            let stats = run_matrix(&stress.pag, &stress.queries, &cfg).stats;
            m.set("concurrent.pool.wakes", stats.pool_wakes as f64);
            m.set(
                "concurrent.pool.dispatch_us",
                ratio(
                    stats.pool_dispatch_ns as f64 * 1e-3,
                    stats.pool_wakes as f64,
                ),
            );
        });

        PassOut {
            setup_batches: Vec::new(),
            batches,
        }
    }
}
