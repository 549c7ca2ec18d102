//! `open_project` — from `.mj` text to first answers on paper-scale
//! graphs, one thread: parse, extract, collapse, enumerate the queryable
//! locals, answer 16 of them. The frontend and `Pag` freeze are about
//! half of the pass and the demand solver's per-query fixed cost (visited
//! state sized by the node count) most of the rest; the traversal loop
//! and every concurrent structure are near-idle, and peak heap is
//! hundreds of MB.
//!
//! The two programs are the `tomcat` profile with 8× and 16× the
//! application classes (≈ 54 k and ≈ 108 k PAG nodes). The seed rotates
//! the method declaration order inside every class — different text,
//! different node ids, the same program up to renumbering — and the 16
//! queried locals are fixed *by name*. Drawing the program or the 16 names from the seed
//! was tried first: a tenth of the locals exhaust the budget at 56 ms
//! each against 11 ms for the rest, so the pass moved ±18 % and
//! `completed_share` ±8 % between seeds.

use super::{check_batches, replay, seconds, Checked, Iteration, Sizes, Subject, Workload};
use crate::metrics::{ratio, Metrics};
use crate::rng::{mix, Rng};
use crate::span::Tracer;
use crate::verify::{Batch, PassOut};
use parcfl_core::{SolverConfig, StateBackend};
use parcfl_frontend::cycles::collapse_assign_cycles;
use parcfl_frontend::ir::Program;
use parcfl_frontend::{extract, parse, pretty::pretty};
use parcfl_pag::{NodeId, Pag};
use parcfl_runtime::run_seq;
use parcfl_synth::{generate, table1_profiles, Profile};
use std::collections::HashSet;

pub struct OpenProject;

/// Multipliers of `tomcat`'s `app_classes`.
const SCALES: [usize; 2] = [8, 16];
const QUERIES: usize = 16;

pub struct Project {
    pub scale: usize,
    pub text: String,
    /// The queried locals, as `local@Class.method`.
    pub wanted: Vec<String>,
}

fn tomcat() -> Profile {
    table1_profiles()
        .into_iter()
        .find(|p| p.name == "tomcat")
        .expect("tomcat is a Table-I row")
}

/// The `QUERIES` reference-typed application locals whose names hash
/// lowest: a fixed, order-independent draw from the program.
fn wanted(program: &Program) -> Vec<String> {
    let mut names: Vec<(u64, String)> = Vec::new();
    for class in program.classes.iter().filter(|c| c.is_application) {
        for method in &class.methods {
            for local in method.locals.iter().filter(|l| l.ty.is_ref()) {
                let name = format!("{}@{}.{}", local.name, class.name, method.name);
                let hash = name.bytes().fold(0u64, |h, b| mix(h, b as u64));
                names.push((hash, name));
            }
        }
    }
    names.sort();
    names.truncate(QUERIES);
    names.into_iter().map(|(_, n)| n).collect()
}

pub fn inputs(seed: u64) -> Vec<Project> {
    SCALES
        .iter()
        .map(|&scale| {
            let mut profile = tomcat();
            profile.app_classes *= scale;
            let mut program = generate(&profile);
            let wanted = wanted(&program);
            // Each class's methods rotate by a seeded amount; class order
            // stays. Shuffling or rotating the classes moved `wall_s` by
            // 7 % and `peak_heap_mb` by 6-14 % between seeds (locality and
            // growth of the frontend's tables), where ten runs of one
            // seed agree to 2 % and to the byte.
            let mut rng = Rng::new(mix(seed, scale as u64));
            for class in program.classes.iter_mut().filter(|c| !c.methods.is_empty()) {
                let by = rng.below(class.methods.len());
                class.methods.rotate_left(by);
            }
            Project {
                scale,
                text: pretty(&program),
                wanted,
            }
        })
        .collect()
}

/// Client code of the pass: the nodes of the wanted names in the
/// extracted graph, carried through the collapse's remap.
fn resolve(extracted: &Pag, remap: &[NodeId], wanted: &[String]) -> Vec<NodeId> {
    let names: HashSet<&str> = wanted.iter().map(String::as_str).collect();
    let mut queries: Vec<NodeId> = extracted
        .node_ids()
        .filter(|&n| names.contains(extracted.node(n).name.as_str()))
        .map(|n| remap[n.index()])
        .collect();
    queries.sort_unstable();
    queries.dedup();
    queries
}

fn opened(project: &Project) -> (Pag, Vec<NodeId>) {
    let program = parse(&project.text).expect("generated text parses");
    let extracted = extract(&program).expect("generated programs extract");
    let collapsed = collapse_assign_cycles(&extracted.pag);
    let queries = resolve(&extracted.pag, &collapsed.remap, &project.wanted);
    (collapsed.pag, queries)
}

impl Workload for OpenProject {
    fn name(&self) -> &'static str {
        "open_project"
    }

    fn expected_digest(&self) -> &'static str {
        include_str!("../../expected/open_project.seed1.digest")
    }

    fn passes(&self) -> usize {
        30
    }

    fn threads(&self) -> usize {
        1
    }

    fn iteration(&self, seed: u64, it: &mut Iteration) -> PassOut {
        let projects = inputs(seed);
        let solver = tomcat().solver_config();
        let mut sizes = Sizes {
            programs: projects.len(),
            source_bytes: projects.iter().map(|p| p.text.len()).sum(),
            ..Sizes::default()
        };
        it.setup_done(sizes);
        let batches = projects
            .iter()
            .map(|project| {
                let (pag, queries) = opened(project);
                let queryable = std::hint::black_box(pag.application_locals()).len();
                assert!(queryable >= queries.len());
                sizes.nodes += pag.node_count();
                sizes.edges += pag.edge_count();
                sizes.queries += queries.len();
                Batch {
                    label: format!("tomcat_x{}", project.scale),
                    answers: run_seq(&pag, &queries, &solver).sorted_answers(),
                }
            })
            .collect();
        it.sizes = sizes;
        PassOut {
            setup_batches: Vec::new(),
            batches,
        }
    }

    fn check(&self, seed: u64, warm: &PassOut) -> Checked {
        let solver = tomcat().solver_config();
        let opened: Vec<(Pag, Vec<NodeId>)> = inputs(seed).iter().map(opened).collect();
        let subjects: Vec<Subject<'_>> = opened
            .iter()
            .zip(&warm.batches)
            .map(|((pag, queries), got)| Subject {
                pag,
                queries,
                solver: &solver,
                got,
                // The oracle decides every query of the batch exactly, so
                // Andersen soundness adds nothing here — and solving the
                // whole 108 k-node program costs it 20 s.
                oracle_sample: QUERIES,
                andersen: false,
            })
            .collect();
        check_batches(seed, &subjects)
    }

    fn traced(&self, seed: u64, tr: &mut Tracer, m: &mut Metrics) -> PassOut {
        let projects = tr.span("setup", |tr| tr.span("synth.generate", |_| inputs(seed)));
        let solver = tomcat().solver_config();
        let mut opened_pags: Vec<(Pag, Pag, Vec<NodeId>)> = Vec::new();
        let mut merged = 0usize;
        let mut extracted_nodes = 0usize;
        let mut query_s: Vec<f64> = Vec::new();
        let mut peak_words = 0u64;
        let batches = tr.span("pass", |tr| {
            projects
                .iter()
                .map(|project| {
                    let program = tr.span("frontend.parse", |_| {
                        parse(&project.text).expect("generated text parses")
                    });
                    let extracted = tr.span("frontend.extract", |_| {
                        extract(&program).expect("generated programs extract")
                    });
                    let collapsed = tr.span("frontend.collapse", |_| {
                        collapse_assign_cycles(&extracted.pag)
                    });
                    merged += collapsed.merged_nodes;
                    extracted_nodes += extracted.pag.node_count();
                    tr.span("pag.application_locals", |_| {
                        std::hint::black_box(collapsed.pag.application_locals());
                    });
                    let queries = tr.span("bench.resolve", |_| {
                        resolve(&extracted.pag, &collapsed.remap, &project.wanted)
                    });
                    // One `run_seq` per query where the fused pass makes
                    // one call: the per-query walls are the measurement.
                    let mut answers = tr.span("core.solver", |_| {
                        let mut answers = Vec::new();
                        for q in &queries {
                            let t = std::time::Instant::now();
                            let r = run_seq(&collapsed.pag, &[*q], &solver);
                            query_s.push(t.elapsed().as_secs_f64());
                            peak_words = peak_words.max(r.stats.peak_state_words);
                            answers.extend(r.answers);
                        }
                        answers
                    });
                    tr.span("runtime.materialise", |_| answers.sort_by_key(|(n, _)| *n));
                    opened_pags.push((extracted.pag, collapsed.pag, queries));
                    Batch {
                        label: format!("tomcat_x{}", project.scale),
                        answers,
                    }
                })
                .collect()
        });
        let source_mb = projects.iter().map(|p| p.text.len()).sum::<usize>() as f64 / 1e6;
        let parse_s = tr.total_s("frontend.parse");
        let extract_s = tr.total_s("frontend.extract");
        m.set("frontend.parse.busy_s", parse_s);
        m.set("frontend.parse.mb_per_s", ratio(source_mb, parse_s));
        m.set("frontend.extract.busy_s", extract_s);
        m.set(
            "frontend.extract.nodes_per_s",
            ratio(extracted_nodes as f64, extract_s),
        );
        m.set("frontend.collapse.busy_s", tr.total_s("frontend.collapse"));
        m.set("frontend.collapse.merged_nodes", merged as f64);
        m.set(
            "core.solver.us_per_query_fixed",
            query_s.iter().copied().fold(f64::INFINITY, f64::min) * 1e6,
        );
        m.set("core.solver.peak_state_words", peak_words as f64);

        // Probes: layer calls the pass makes only from inside `parse` and
        // `extract`, repeated here on their own.
        let tokens = tr.span("probe.frontend.lex", |_| {
            projects
                .iter()
                .map(|p| parcfl_frontend::lexer::lex(&p.text).expect("lexes").len())
                .sum::<usize>()
        });
        m.set("frontend.lex.tokens", tokens as f64);
        let mut edges = 0usize;
        let freeze_s = tr.span("probe.pag.freeze", |tr| {
            opened_pags
                .iter()
                .map(|(extracted, _, _)| {
                    edges += extracted.edge_count();
                    let builder = tr.span("bench.replay", |_| replay(extracted));
                    tr.span("pag.freeze", |_| seconds(|| builder.freeze()))
                })
                .sum::<f64>()
        });
        m.set("pag.freeze.busy_s", freeze_s);
        m.set("pag.freeze.edges_per_s", ratio(edges as f64, freeze_s));
        let (dense_s, hash_s) = tr.span("probe.core.solver.hash_over_dense", |_| {
            let timed = |cfg: &SolverConfig| {
                opened_pags
                    .iter()
                    .map(|(_, pag, queries)| seconds(|| run_seq(pag, queries, cfg)))
                    .sum::<f64>()
            };
            (
                timed(&solver),
                timed(&solver.clone().with_state(StateBackend::Hash)),
            )
        });
        m.set("core.solver.hash_over_dense", ratio(hash_s, dense_s));

        PassOut {
            setup_batches: Vec::new(),
            batches,
        }
    }
}
