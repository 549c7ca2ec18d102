//! Criterion micro-benchmark for the Andersen baseline on a small PAG.

use criterion::{criterion_group, criterion_main, Criterion};
use parcfl_synth::{build_bench, Profile};

fn bench_andersen(c: &mut Criterion) {
    let b = build_bench(&Profile::tiny(42));
    let mut g = c.benchmark_group("andersen");
    g.sample_size(30);
    g.bench_function("sequential", |bench| {
        bench.iter(|| std::hint::black_box(parcfl_andersen::analyze(&b.pag)))
    });
    g.finish();
}

criterion_group!(benches, bench_andersen);
criterion_main!(benches);
