//! Criterion micro-benchmarks for the data-sharing machinery: cold-store
//! vs warm-store query latency (Table I's R_S at micro scale) and raw
//! jmp-store operation throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use parcfl_core::{CtxId, Dir, JmpStore, SharedJmpStore, Solver, SolverConfig};
use parcfl_pag::NodeId;
use parcfl_synth::{build_bench, Profile};
use std::sync::Arc;

fn bench_sharing(c: &mut Criterion) {
    let b = build_bench(&Profile::tiny(42));
    let cfg = SolverConfig {
        data_sharing: true,
        tau_finished: 0,
        tau_unfinished: 0,
        ..SolverConfig::default()
    };
    let q = b.queries[b.queries.len() / 2];

    let mut g = c.benchmark_group("sharing");
    g.sample_size(30);
    g.bench_function("query_cold_store", |bench| {
        bench.iter_with_setup(SharedJmpStore::new, |store| {
            let mut s = Solver::new(&b.pag, &cfg, &store);
            std::hint::black_box(s.points_to_query(q, 0))
        })
    });
    g.bench_function("query_warm_store", |bench| {
        let store = SharedJmpStore::new();
        // Warm it with the whole batch once.
        let mut s = Solver::new(&b.pag, &cfg, &store);
        for &v in &b.queries {
            let _ = s.points_to_query(v, 0);
        }
        bench.iter(|| std::hint::black_box(s.points_to_query(q, 0)))
    });
    g.finish();
}

fn bench_store_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("jmp_store");
    g.sample_size(50);
    g.bench_function("publish_lookup", |bench| {
        let store = SharedJmpStore::new();
        let rch = Arc::new(vec![(NodeId::new(1), CtxId::EMPTY)]);
        let mut i = 0u32;
        bench.iter(|| {
            i = i.wrapping_add(1);
            let key = (Dir::Bwd, NodeId::new(i % 4096), CtxId::EMPTY);
            store.publish_finished(key, 200, Arc::clone(&rch), 0);
            std::hint::black_box(store.lookup(&key, u64::MAX))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sharing, bench_store_ops);
criterion_main!(benches);
