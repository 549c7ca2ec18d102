//! `edit_requery` — the solver and jmp store used the other way round
//! from `table1_cold`: one warm `AnalysisSession` over `lusearch`, and a
//! pass of 16 rounds of *edit the graph, resubmit the whole batch*. Warm
//! reads, footprints, selective invalidation and the schedule cache do
//! the work, so a gain for cold inserts that costs warm re-queries shows
//! here. Set-up is what a client pays to get a warm session: build the
//! program, open the session, cold-submit the batch.
//!
//! The program is the fixed Table-I row; the seed draws the 16 edit
//! scripts (1-3 ops each, `parcfl_synth::mutate::sample_edits`) and the
//! batch's query order.

use super::{
    best_of, check_batches, replay, seconds, Checked, Iteration, Sizes, Subject, Workload,
};
use crate::metrics::{ratio, Metrics};
use crate::rng::{mix, Rng};
use crate::span::Tracer;
use crate::stats;
use crate::verify::{Batch, PassOut};
use parcfl_pag::{Pag, PagDelta};
use parcfl_runtime::{run, AnalysisSession, Backend, Mode, RunConfig, RunResult};
use parcfl_synth::mutate::sample_edits;
use parcfl_synth::{build_bench, table1_profiles, Bench};

pub struct EditRequery;

const THREADS: usize = 2;
const ROUNDS: usize = 16;
/// The edit scripts are drawn once, from this constant: scripts drawn
/// from `--seed` moved the pass between 0.40 s and 2.55 s and
/// `completed_share` between 0.79 and 1.0 (one unlucky `param` edge makes
/// a tenth of the batch exhaust its budget in every later round). Of the
/// first twelve draws this one keeps every query completing, at the
/// typical two-thirds of warm entries retained per edit.
const SCRIPT_SEED: u64 = 10;
const MODE: Mode = Mode::DataSharingSched;
const BACKEND: Backend = Backend::Threaded;

pub struct Inputs {
    pub bench: Bench,
    /// One edit script per round, each sampled on the graph the previous
    /// rounds left.
    pub deltas: Vec<PagDelta>,
    /// The graph after each round's edit.
    pub revisions: Vec<Pag>,
}

pub fn inputs(seed: u64) -> Inputs {
    let profile = table1_profiles()
        .into_iter()
        .find(|p| p.name == "lusearch")
        .expect("lusearch is a Table-I row");
    let mut bench = build_bench(&profile);
    Rng::new(mix(seed, 0xED17)).shuffle(&mut bench.queries);
    let mut script = Rng::new(mix(SCRIPT_SEED, 0xED17));
    let mut deltas = Vec::with_capacity(ROUNDS);
    let mut revisions: Vec<Pag> = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let current = revisions.last().unwrap_or(&bench.pag);
        let mut delta = PagDelta::new();
        for op in sample_edits(current, mix(SCRIPT_SEED, round as u64), 1 + script.below(3)) {
            delta.push(op);
        }
        let edited = current.apply_delta(&delta).0;
        deltas.push(delta);
        revisions.push(edited);
    }
    Inputs {
        bench,
        deltas,
        revisions,
    }
}

fn open(bench: &Bench) -> AnalysisSession<'_> {
    AnalysisSession::new(&bench.pag)
        .with_solver(bench.solver.clone())
        .with_threads(THREADS)
}

fn batch(label: String, result: &RunResult) -> Batch {
    Batch {
        label,
        answers: result.sorted_answers(),
    }
}

impl Workload for EditRequery {
    fn name(&self) -> &'static str {
        "edit_requery"
    }

    fn expected_digest(&self) -> &'static str {
        include_str!("../../expected/edit_requery.seed1.digest")
    }

    fn passes(&self) -> usize {
        30
    }

    fn threads(&self) -> usize {
        THREADS
    }

    fn iteration(&self, seed: u64, it: &mut Iteration) -> PassOut {
        let inputs = inputs(seed);
        let bench = &inputs.bench;
        let mut session = open(bench);
        let cold = session.submit(&bench.queries, MODE, BACKEND);
        it.setup_done(Sizes {
            programs: 1,
            nodes: bench.pag.node_count(),
            edges: bench.pag.edge_count(),
            queries: bench.queries.len(),
            source_bytes: 0,
        });
        let batches = inputs
            .deltas
            .iter()
            .enumerate()
            .map(|(round, delta)| {
                session.apply_delta(delta);
                batch(
                    format!("round{round}"),
                    &session.submit(&bench.queries, MODE, BACKEND),
                )
            })
            .collect();
        PassOut {
            setup_batches: vec![batch("cold".into(), &cold)],
            batches,
        }
    }

    fn check(&self, seed: u64, warm: &PassOut) -> Checked {
        let inputs = inputs(seed);
        let bench = &inputs.bench;
        // The cold batch on the original graph, then one per revision.
        let subjects: Vec<Subject<'_>> = std::iter::once(&bench.pag)
            .chain(&inputs.revisions)
            .zip(warm.all())
            .map(|(pag, got)| Subject {
                pag,
                queries: &bench.queries,
                solver: &bench.solver,
                got,
                oracle_sample: 4,
                andersen: true,
            })
            .collect();
        check_batches(seed, &subjects)
    }

    fn traced(&self, seed: u64, tr: &mut Tracer, m: &mut Metrics) -> PassOut {
        let inputs = tr.span("setup.inputs", |tr| {
            tr.span("synth.build_bench", |_| inputs(seed))
        });
        let bench = &inputs.bench;
        let (mut session, cold) = tr.span("setup.session", |tr| {
            let mut session = tr.span("runtime.session.open", |_| open(bench));
            let cold = tr.span("runtime.session.cold_submit", |_| {
                session.submit(&bench.queries, MODE, BACKEND)
            });
            (session, cold)
        });
        let mut requery_s = Vec::with_capacity(ROUNDS);
        let (mut steps, mut warm_hits) = (0u64, 0u64);
        let (mut invalidated, mut retained) = (0u64, 0u64);
        let batches = tr.span("pass", |tr| {
            inputs
                .deltas
                .iter()
                .enumerate()
                .map(|(round, delta)| {
                    let report = tr.span("runtime.session.apply_delta", |_| {
                        session.apply_delta(delta)
                    });
                    invalidated += report.invalidated_jmps;
                    retained += report.retained_jmps;
                    let t = std::time::Instant::now();
                    let result = tr.span("runtime.session.submit", |_| {
                        session.submit(&bench.queries, MODE, BACKEND)
                    });
                    requery_s.push(t.elapsed().as_secs_f64());
                    steps += result.stats.traversed_steps;
                    warm_hits += result.stats.warm_hits;
                    tr.span("runtime.materialise", |_| {
                        batch(format!("round{round}"), &result)
                    })
                })
                .collect()
        });
        let cold_s = tr.total_s("runtime.session.cold_submit");
        let cache = session.schedule_cache();
        m.set("runtime.session.cold_submit_s", cold_s);
        m.set(
            "runtime.session.apply_delta_s",
            tr.total_s("runtime.session.apply_delta"),
        );
        m.set(
            "runtime.session.requery_over_cold",
            ratio(stats::median(&requery_s), cold_s),
        );
        m.set(
            "runtime.session.requery_p50_ms",
            stats::percentile(&requery_s, 0.5) * 1e3,
        );
        m.set(
            "runtime.session.requery_p95_ms",
            stats::percentile(&requery_s, 0.95) * 1e3,
        );
        m.set("runtime.session.requery_steps", steps as f64);
        m.set("runtime.session.warm_hits", warm_hits as f64);
        m.set("runtime.session.invalidated_jmps", invalidated as f64);
        m.set("runtime.session.retained_jmps", retained as f64);
        m.set(
            "runtime.session.retained_share",
            ratio(retained as f64, (retained + invalidated) as f64),
        );
        m.set(
            "sched.cache.hit_share",
            ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
        );

        // Probes: `Pag::apply_delta` on its own (the session calls it
        // from inside `apply_delta`), against freezing the same graph
        // from a builder; and the cold submit against a one-shot run of
        // the same batch, which records no footprints.
        let graphs: Vec<&Pag> = std::iter::once(&bench.pag)
            .chain(&inputs.revisions)
            .collect();
        let delta_s = tr.span("probe.pag.apply_delta", |_| {
            best_of(3, || {
                for (pag, delta) in graphs.iter().zip(&inputs.deltas) {
                    std::hint::black_box(pag.apply_delta(delta));
                }
            })
        });
        let freeze_s = tr.span("probe.pag.freeze", |_| {
            (0..3)
                .map(|_| {
                    graphs[..ROUNDS]
                        .iter()
                        .map(|pag| {
                            let builder = replay(pag);
                            seconds(|| builder.freeze())
                        })
                        .sum::<f64>()
                })
                .fold(f64::INFINITY, f64::min)
        });
        m.set("pag.apply_delta.busy_s", delta_s);
        m.set("pag.apply_delta.over_freeze", ratio(delta_s, freeze_s));
        let (with_fp, without_fp) = tr.span("probe.core.footprint", |_| {
            let one_shot = RunConfig::new(MODE, THREADS, BACKEND).with_solver(bench.solver.clone());
            (
                best_of(3, || open(bench).submit(&bench.queries, MODE, BACKEND)),
                best_of(3, || run(&bench.pag, &bench.queries, &one_shot)),
            )
        });
        m.set("core.footprint.record_overhead", ratio(with_fp, without_fp));

        PassOut {
            setup_batches: vec![batch("cold".into(), &cold)],
            batches,
        }
    }
}
