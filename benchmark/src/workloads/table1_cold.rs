//! `table1_cold` — the paper's Fig. 6 run: every Table-I program, every
//! application local, `ParCFL_DQ` on two real threads, a fresh jmp store
//! per program. The demand solver, jmp store, context interner, sharded
//! map, work list and DQ schedule do the work; the frontend and the
//! matrix engine are idle.
//!
//! The 20 programs are a fixed corpus, as the paper's 20 Java programs
//! are: mixing the seed into `Profile::seed` moved the pass by ±10 % and
//! `completed_share` by ±0.5 % between seeds, more than any bound here.
//! The seed permutes each batch's query order and picks the reference
//! and oracle samples.

use super::{check_batches, micro, seconds, Checked, Iteration, Sizes, Subject, Workload};
use crate::metrics::{ratio, Metrics};
use crate::rng::{mix, Rng};
use crate::span::Tracer;
use crate::verify::{Batch, PassOut};
use parcfl_core::{SharedJmpStore, StateBackend};
use parcfl_runtime::{
    run, run_seq, run_simulated, run_threaded_batch, schedule_with_cap, Backend, Mode, RunConfig,
    TraceLevel,
};
use parcfl_synth::{build_suite, Bench};

pub struct Table1Cold;

pub const THREADS: usize = 2;

pub fn inputs(seed: u64) -> Vec<Bench> {
    let mut suite = build_suite();
    for (i, b) in suite.iter_mut().enumerate() {
        Rng::new(mix(seed, i as u64)).shuffle(&mut b.queries);
    }
    suite
}

pub fn sizes(suite: &[Bench]) -> Sizes {
    Sizes {
        programs: suite.len(),
        nodes: suite.iter().map(|b| b.pag.node_count()).sum(),
        edges: suite.iter().map(|b| b.pag.edge_count()).sum(),
        queries: suite.iter().map(|b| b.queries.len()).sum(),
        source_bytes: 0,
    }
}

fn dq(b: &Bench) -> RunConfig {
    RunConfig::new(Mode::DataSharingSched, THREADS, Backend::Threaded).with_solver(b.solver.clone())
}

/// The checks of a suite-shaped pass (`rounds` × one batch per program,
/// in suite order) — shared with `dense_small`. 64 oracle queries are
/// spread over the programs.
pub fn check_suite(suite: &[Bench], seed: u64, warm: &PassOut, rounds: usize) -> Checked {
    const ORACLE_SAMPLE: usize = 64;
    let subjects: Vec<Subject<'_>> = suite
        .iter()
        .zip(&warm.batches)
        .map(|(b, got)| Subject {
            pag: &b.pag,
            queries: &b.queries,
            solver: &b.solver,
            got,
            oracle_sample: ORACLE_SAMPLE.div_ceil(suite.len()),
            andersen: true,
        })
        .collect();
    let mut checked = check_batches(seed, &subjects);
    // Later rounds repeat the first round's batches in the same order.
    let one_round = checked.reference.len();
    for i in 0..one_round * (rounds - 1) {
        let again = &checked.reference[i % one_round];
        checked.reference.push(Batch {
            label: again.label.clone(),
            answers: again.answers.clone(),
        });
    }
    checked
}

impl Workload for Table1Cold {
    fn name(&self) -> &'static str {
        "table1_cold"
    }

    fn expected_digest(&self) -> &'static str {
        include_str!("../../expected/table1_cold.seed1.digest")
    }

    fn passes(&self) -> usize {
        5
    }

    fn threads(&self) -> usize {
        THREADS
    }

    fn iteration(&self, seed: u64, it: &mut Iteration) -> PassOut {
        let suite = inputs(seed);
        it.setup_done(sizes(&suite));
        let batches = suite
            .iter()
            .map(|b| Batch {
                label: b.name.clone(),
                answers: run(&b.pag, &b.queries, &dq(b)).sorted_answers(),
            })
            .collect();
        PassOut {
            setup_batches: Vec::new(),
            batches,
        }
    }

    fn check(&self, seed: u64, warm: &PassOut) -> Checked {
        check_suite(&inputs(seed), seed, warm, 1)
    }

    fn traced(&self, seed: u64, tr: &mut Tracer, m: &mut Metrics) -> PassOut {
        let suite = tr.span("setup", |tr| tr.span("synth.build_suite", |_| inputs(seed)));

        // The pass, stage by stage: `run` = schedule + threaded batch.
        let mut stats = Vec::new();
        let mut groups = 0usize;
        let mut threaded_s = Vec::new();
        let batches = tr.span("pass", |tr| {
            suite
                .iter()
                .map(|b| {
                    let cfg = dq(b);
                    let schedule = tr.span("sched.build", |_| {
                        schedule_with_cap(&b.pag, &b.queries, cfg.mode, cfg.group_cap)
                    });
                    groups += schedule.groups.len();
                    let t = std::time::Instant::now();
                    let result = tr.span("runtime.threaded", |_| {
                        run_threaded_batch(&b.pag, &schedule, &cfg, &SharedJmpStore::new(), 0)
                    });
                    threaded_s.push(t.elapsed().as_secs_f64());
                    let answers = tr.span("runtime.materialise", |_| result.sorted_answers());
                    stats.push(result.stats);
                    Batch {
                        label: b.name.clone(),
                        answers,
                    }
                })
                .collect()
        });
        let sum = |f: &dyn Fn(&parcfl_runtime::RunStats) -> f64| stats.iter().map(f).sum::<f64>();
        let traversed = sum(&|s| s.traversed_steps as f64);
        let saved = sum(&|s| s.steps_saved as f64);
        let queries: usize = suite.iter().map(|b| b.queries.len()).sum();
        m.set("sched.build.busy_s", tr.total_s("sched.build"));
        m.set("sched.build.groups", groups as f64);
        m.set(
            "sched.build.avg_group_size",
            ratio(queries as f64, groups as f64),
        );
        m.set("runtime.threaded.wall_s", tr.total_s("runtime.threaded"));
        m.set("runtime.threaded.traversed_steps", traversed);
        m.set(
            "runtime.threaded.lock_wait_s",
            sum(&|s| s.total_lock_wait().as_secs_f64()),
        );
        m.set(
            "runtime.materialise.busy_s",
            tr.total_s("runtime.materialise"),
        );
        m.set(
            "core.solver.out_of_budget",
            sum(&|s| s.out_of_budget as f64),
        );
        m.set("core.jmp.inserts", sum(&|s| s.jmp_inserts as f64));
        m.set(
            "core.jmp.shortcuts_taken",
            sum(&|s| s.shortcuts_taken as f64),
        );
        m.set("core.jmp.steps_saved", saved);
        m.set("core.jmp.saved_share", ratio(saved, saved + traversed));
        m.set("core.jmp.bytes", sum(&|s| s.jmp_bytes as f64));

        // Probes. A sequential pass without sharing costs 19 s on the
        // five programs whose queries exhaust their budget and 2 s on the
        // other fifteen, so whole-batch comparisons against `run_seq`
        // (and the simulator, which costs as much) use those fifteen.
        let light: Vec<usize> = (0..suite.len())
            .filter(|&i| stats[i].out_of_budget == 0)
            .collect();
        let mut seq_steps = 0u64;
        let mut peak_words = 0u64;
        let seq_s = tr.span("probe.core.solver.seq", |_| {
            seconds(|| {
                for &i in &light {
                    let b = &suite[i];
                    let r = run_seq(&b.pag, &b.queries, &b.solver);
                    seq_steps += r.stats.traversed_steps;
                    peak_words = peak_words.max(r.stats.peak_state_words);
                }
            })
        });
        let hash_s = tr.span("probe.core.solver.seq_hash", |_| {
            seconds(|| {
                for &i in &light {
                    let b = &suite[i];
                    let cfg = b.solver.clone().with_state(StateBackend::Hash);
                    run_seq(&b.pag, &b.queries, &cfg);
                }
            })
        });
        let light_threaded_s: f64 = light.iter().map(|&i| threaded_s[i]).sum();
        m.set("core.solver.seq_s", seq_s);
        m.set("core.solver.traversed_steps", seq_steps as f64);
        m.set(
            "core.solver.ns_per_step",
            ratio(seq_s * 1e9, seq_steps as f64),
        );
        m.set("core.solver.peak_state_words", peak_words as f64);
        m.set("core.solver.hash_over_dense", ratio(hash_s, seq_s));
        m.set(
            "runtime.threaded.speedup_over_seq",
            ratio(seq_s, light_threaded_s),
        );
        let fixed_us = tr.span("probe.core.solver.fixed", |_| {
            let per_program: Vec<f64> = suite
                .iter()
                .map(|b| {
                    b.queries
                        .iter()
                        .take(32)
                        .map(|q| seconds(|| run_seq(&b.pag, &[*q], &b.solver)))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            per_program.iter().sum::<f64>() / per_program.len() as f64 * 1e6
        });
        m.set("core.solver.us_per_query_fixed", fixed_us);

        tr.span("probe.runtime.stealing", |_| {
            let mut steal_wait = 0.0;
            let wall = seconds(|| {
                for b in &suite {
                    let r = run(&b.pag, &b.queries, &dq(b).with_stealing(true));
                    steal_wait += r.stats.total_steal_wait().as_secs_f64();
                }
            });
            m.set("runtime.stealing.wall_s", wall);
            m.set("runtime.stealing.steal_wait_s", steal_wait);
        });

        tr.span("probe.runtime.sim", |_| {
            let mut makespan = [0u64; 2];
            let wall = seconds(|| {
                for (slot, threads) in [2usize, 16].into_iter().enumerate() {
                    for &i in &light {
                        let b = &suite[i];
                        let cfg =
                            RunConfig::new(Mode::DataSharingSched, threads, Backend::Simulated)
                                .with_solver(b.solver.clone());
                        makespan[slot] += run_simulated(&b.pag, &b.queries, &cfg).stats.makespan;
                    }
                }
            });
            m.set("runtime.sim.makespan_t2", makespan[0] as f64);
            m.set("runtime.sim.makespan_t16", makespan[1] as f64);
            m.set(
                "runtime.sim.speedup_t16",
                ratio(seq_steps as f64, makespan[1] as f64),
            );
            m.set("runtime.sim.wall_s", wall);
        });

        tr.span("probe.obs", |_| {
            let mut events = 0usize;
            let mut dropped = 0u64;
            let mut at = |level: TraceLevel| {
                seconds(|| {
                    for &i in &light {
                        let b = &suite[i];
                        let r = run(&b.pag, &b.queries, &dq(b).with_tracing(level));
                        if let (TraceLevel::Full, Some(trace)) = (level, &r.trace) {
                            events += trace.workers.iter().map(|w| w.events.len()).sum::<usize>();
                            dropped += trace.workers.iter().map(|w| w.dropped).sum::<u64>();
                        }
                    }
                })
            };
            let (off, spans, full) = (
                at(TraceLevel::Off),
                at(TraceLevel::Spans),
                at(TraceLevel::Full),
            );
            m.set("obs.spans.overhead", ratio(spans, off));
            m.set("obs.full.overhead", ratio(full, off));
            m.set("obs.full.events", events as f64);
            m.set("obs.full.dropped", dropped as f64);
        });

        tr.span("probe.micro", |_| {
            micro::interner(m);
            micro::sharded_map(m);
            micro::dispatch(m);
        });

        PassOut {
            setup_batches: Vec::new(),
            batches,
        }
    }
}
