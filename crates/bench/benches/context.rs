//! Criterion micro-benchmarks for hash-consed context interning: raw
//! push/pop/intern/resolve throughput against a Vec-backed replica of the
//! pre-interning `Ctx` representation, plus the `points_to` hot loop on a
//! synthetic Table I row. The `*_vec_baseline` functions re-create the old
//! clone-a-`Vec<u32>`-per-transition behaviour so the speedup of the
//! interned representation is measured in-tree rather than against a
//! historical checkout.

use criterion::{criterion_group, criterion_main, Criterion};
use parcfl_core::context::sort_canonical;
use parcfl_core::{CtxId, CtxInterner, SharedJmpStore, Solver};
use parcfl_pag::NodeId;
use parcfl_synth::{build_bench, table1_profiles};
use std::collections::HashSet;

/// Replica of the pre-interning context: a call-site stack cloned on
/// every push/pop, hashed and compared element-wise.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
struct VecCtx(Vec<u32>);

impl VecCtx {
    fn push(&self, site: u32) -> VecCtx {
        let mut v = self.0.clone();
        v.push(site);
        VecCtx(v)
    }
    fn pop(&self) -> VecCtx {
        let mut v = self.0.clone();
        v.pop();
        VecCtx(v)
    }
    fn top(&self) -> Option<u32> {
        self.0.last().copied()
    }
}

/// Deterministic site stream: xorshift over a small call-site alphabet so
/// the interner sees realistic reuse (many pushes hit existing children).
fn site_stream(len: usize) -> Vec<u32> {
    let mut x = 0x9e37_79b9u32;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x % 24
        })
        .collect()
}

/// One push/pop workload walk: push on a 0/1/2 residue, pop otherwise,
/// consulting `top` each step — the exact mix of context operations the
/// solver performs on `Ret`/`Param` edges.
const WALK_LEN: usize = 4096;

fn bench_context_ops(c: &mut Criterion) {
    let sites = site_stream(WALK_LEN);

    let mut g = c.benchmark_group("context_ops");
    g.sample_size(50);

    g.bench_function("push_pop_interned", |bench| {
        let interner = CtxInterner::new();
        bench.iter(|| {
            let mut cx = CtxId::EMPTY;
            let mut acc = 0u64;
            for &s in &sites {
                acc = acc.wrapping_add(interner.top(cx).unwrap_or(0) as u64);
                if s % 3 != 0 {
                    cx = interner.intern(cx, s);
                } else {
                    cx = interner.parent(cx);
                }
            }
            std::hint::black_box((cx, acc))
        })
    });

    g.bench_function("push_pop_vec_baseline", |bench| {
        bench.iter(|| {
            let mut cx = VecCtx::default();
            let mut acc = 0u64;
            for &s in &sites {
                acc = acc.wrapping_add(cx.top().unwrap_or(0) as u64);
                if s % 3 != 0 {
                    cx = cx.push(s);
                } else {
                    cx = cx.pop();
                }
            }
            std::hint::black_box((cx, acc))
        })
    });

    // Visit-set membership: the solver's single hottest context operation.
    // Interned states hash a u32; the baseline hashes (and clones) stacks.
    g.bench_function("visit_insert_interned", |bench| {
        let interner = CtxInterner::new();
        let states: Vec<CtxId> = {
            let mut cx = CtxId::EMPTY;
            sites
                .iter()
                .map(|&s| {
                    cx = if s % 3 != 0 {
                        interner.intern(cx, s)
                    } else {
                        interner.parent(cx)
                    };
                    cx
                })
                .collect()
        };
        bench.iter(|| {
            let mut seen: HashSet<(u32, CtxId)> = HashSet::new();
            let mut fresh = 0usize;
            for (i, &cx) in states.iter().enumerate() {
                if seen.insert((i as u32 % 64, cx)) {
                    fresh += 1;
                }
            }
            std::hint::black_box(fresh)
        })
    });

    g.bench_function("visit_insert_vec_baseline", |bench| {
        let states: Vec<VecCtx> = {
            let mut cx = VecCtx::default();
            sites
                .iter()
                .map(|&s| {
                    cx = if s % 3 != 0 { cx.push(s) } else { cx.pop() };
                    cx.clone()
                })
                .collect()
        };
        bench.iter(|| {
            let mut seen: HashSet<(u32, VecCtx)> = HashSet::new();
            let mut fresh = 0usize;
            for (i, cx) in states.iter().enumerate() {
                if seen.insert((i as u32 % 64, cx.clone())) {
                    fresh += 1;
                }
            }
            std::hint::black_box(fresh)
        })
    });

    // Boundary crossings: interning a materialised stack (store payloads
    // arriving from another worker) and resolving an id back to one
    // (answer finalisation / tracing).
    g.bench_function("intern_resolve_roundtrip", |bench| {
        let interner = CtxInterner::new();
        let stacks: Vec<Vec<u32>> = (0..64).map(|i| sites[i..i + 12].to_vec()).collect();
        bench.iter(|| {
            let mut acc = 0usize;
            for st in &stacks {
                let id = interner.intern_stack(st);
                acc += interner.stack_of(id).len();
            }
            std::hint::black_box(acc)
        })
    });

    // The canonical order of a result set (DESIGN.md §8): comparing on the
    // interner's trie against sorting by one materialised call string per
    // element, which is what the solver did before `cmp_stacks`. The sets
    // are shaped as the Table-I suite sorts them: of its 2.0 M sorts per
    // pass 82 % hold one state and all but three under 64, over contexts
    // at most three deep for 99.9 % of the elements.
    let (interner, sets) = {
        let interner = CtxInterner::new();
        let mut cx = CtxId::EMPTY;
        let states: Vec<(NodeId, CtxId)> = (sites.iter().enumerate())
            .map(|(i, &s)| {
                cx = if s % 3 != 0 && interner.depth(cx) < 3 {
                    interner.intern(cx, s)
                } else {
                    interner.parent(cx)
                };
                (NodeId::new(i as u32 % 4), cx)
            })
            .collect();
        let mut sets: Vec<Vec<(NodeId, CtxId)>> = Vec::new();
        let mut rest = states.as_slice();
        for len in [1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 6, 12, 24, 48]
            .into_iter()
            .cycle()
        {
            if rest.len() < len {
                break;
            }
            let (set, tail) = rest.split_at(len);
            let mut set = set.to_vec();
            set.sort_unstable();
            set.dedup();
            sets.push(set);
            rest = tail;
        }
        (interner, sets)
    };

    g.bench_function("canonical_sort_trie", |bench| {
        bench.iter(|| {
            let mut sets = sets.clone();
            for v in &mut sets {
                sort_canonical(&interner, v);
            }
            std::hint::black_box(sets)
        })
    });

    g.bench_function("canonical_sort_materialised_keys", |bench| {
        bench.iter(|| {
            let mut sets = sets.clone();
            for v in &mut sets {
                v.sort_by_cached_key(|&(n, c)| (n, interner.stack_of(c)));
            }
            std::hint::black_box(sets)
        })
    });

    g.finish();
}

fn bench_points_to_hot(c: &mut Criterion) {
    // Smallest Table I row: `_200_check` — context-heavy (wrapper methods
    // and nested containers force deep call-site stacks) yet fast enough
    // for criterion's fixed iteration count.
    let profile = table1_profiles()
        .into_iter()
        .find(|p| p.name == "_200_check")
        .expect("_200_check in table1 profiles");
    let b = build_bench(&profile);
    let q = b.queries[b.queries.len() / 2];

    let mut g = c.benchmark_group("points_to_hot");
    g.sample_size(20);

    g.bench_function("single_query_cold", |bench| {
        bench.iter_with_setup(SharedJmpStore::new, |store| {
            let mut s = Solver::new(&b.pag, &b.solver, &store);
            std::hint::black_box(s.points_to_query(q, 0))
        })
    });

    g.bench_function("batch_cold_store", |bench| {
        bench.iter_with_setup(SharedJmpStore::new, |store| {
            let mut s = Solver::new(&b.pag, &b.solver, &store);
            let mut completed = 0usize;
            for &v in &b.queries {
                if s.points_to_query(v, 0).answer.complete().is_some() {
                    completed += 1;
                }
            }
            std::hint::black_box(completed)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_context_ops, bench_points_to_hot);
criterion_main!(benches);
