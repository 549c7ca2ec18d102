//! Criterion micro-benchmarks for the core solver: single-query latency on
//! a small fixture.

use criterion::{criterion_group, criterion_main, Criterion};
use parcfl_core::{NoJmpStore, Solver, SolverConfig};
use parcfl_synth::{build_bench, Profile};

fn bench_solver(c: &mut Criterion) {
    let b = build_bench(&Profile::tiny(42));
    let store = NoJmpStore;
    let cfg = SolverConfig::default();
    let q = b.queries[b.queries.len() / 2];

    let mut g = c.benchmark_group("solver");
    g.sample_size(30);
    g.bench_function("points_to_plain", |bench| {
        let mut s = Solver::new(&b.pag, &cfg, &store);
        bench.iter(|| std::hint::black_box(s.points_to_query(q, 0)))
    });
    g.bench_function("flows_to_plain", |bench| {
        let mut s = Solver::new(&b.pag, &cfg, &store);
        let o = b
            .pag
            .node_ids()
            .find(|&n| b.pag.kind(n).is_object())
            .unwrap();
        bench.iter(|| std::hint::black_box(s.flows_to_query(o, 0)))
    });
    g.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let profile = Profile::tiny(7);
    let program = parcfl_synth::generate(&profile);
    let mut g = c.benchmark_group("frontend");
    g.sample_size(30);
    g.bench_function("extract_pag", |bench| {
        bench.iter(|| std::hint::black_box(parcfl_frontend::extract(&program).unwrap()))
    });
    let pag = parcfl_frontend::extract(&program).unwrap().pag;
    g.bench_function("collapse_cycles", |bench| {
        bench.iter(|| std::hint::black_box(parcfl_frontend::cycles::collapse_assign_cycles(&pag)))
    });
    g.finish();
}

criterion_group!(benches, bench_solver, bench_extraction);
criterion_main!(benches);
