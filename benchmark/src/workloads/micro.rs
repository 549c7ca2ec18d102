//! Fixed-size micro-loops for the layer primitives that no call visible
//! from outside a batch isolates. Sizes are constants, so two commits run
//! identical loops; each loop is the best of three.

use super::{best_of, seconds};
use crate::metrics::{ratio, Metrics};
use parcfl_concurrent::{
    ChunkedBitset, CtxId, CtxInterner, ShardedMap, SharedWorkList, StealQueues, WorkerObs,
    CHUNK_BITS,
};
use std::hint::black_box;

const REPS: usize = 3;

/// `concurrent.interner.*`: first-time interning of 200 k contexts (a
/// 64-site fan-out tree), then resolving each back to its parent.
pub fn interner(m: &mut Metrics) {
    const N: usize = 200_000;
    const FANOUT: u32 = 64;
    let build = || {
        let interner = CtxInterner::new();
        let mut ids = Vec::with_capacity(N + 1);
        ids.push(CtxId::from_raw(0));
        for i in 0..N {
            let parent = ids[i / FANOUT as usize];
            ids.push(interner.intern(parent, i as u32 % FANOUT));
        }
        (interner, ids)
    };
    let intern_s = best_of(REPS, build);
    let (interner, ids) = build();
    let resolve_s = best_of(REPS, || {
        let mut acc = 0u32;
        for &id in &ids[1..] {
            acc = acc.wrapping_add(interner.parent(id).raw());
            acc = acc.wrapping_add(interner.top(id).unwrap_or(0));
        }
        acc
    });
    m.set("concurrent.interner.intern_ns", intern_s * 1e9 / N as f64);
    m.set("concurrent.interner.resolve_ns", resolve_s * 1e9 / N as f64);
}

/// `concurrent.sharded_map.*`: 200 k first-writer-wins inserts of
/// jmp-key-shaped keys, then 200 k hits and 200 k misses.
pub fn sharded_map(m: &mut Metrics) {
    const N: u64 = 200_000;
    let key = |i: u64| (i as u32, (i.wrapping_mul(0x9E37_79B9) >> 7) as u32);
    let build = || {
        let map: ShardedMap<(u32, u32), u64> = ShardedMap::new();
        for i in 0..N {
            black_box(map.try_insert(key(i), i));
        }
        map
    };
    let insert_s = best_of(REPS, build);
    let map = build();
    let get_s = best_of(REPS, || {
        let mut acc = 0u64;
        for i in 0..2 * N {
            acc = acc.wrapping_add(map.with(&key(i), |v| *v).unwrap_or(1));
        }
        acc
    });
    m.set(
        "concurrent.sharded_map.insert_ns",
        insert_s * 1e9 / N as f64,
    );
    m.set(
        "concurrent.sharded_map.get_ns",
        get_s * 1e9 / (2 * N) as f64,
    );
}

/// `concurrent.worklist.pop_ns` / `concurrent.stealing.next_ns`: draining
/// 200 k single-query groups, uncontended — the floor either dispatcher
/// charges per fetch before any waiting.
pub fn dispatch(m: &mut Metrics) {
    const N: u32 = 200_000;
    let pop_s = best_of(REPS, || {
        let list: SharedWorkList<u32> = SharedWorkList::with_items(0..N);
        let mut acc = 0u32;
        while let Some(x) = list.pop() {
            acc = acc.wrapping_add(x);
        }
        acc
    });
    let next_s = best_of(REPS, || {
        let queues: StealQueues<u32> = StealQueues::round_robin(1, 0..N);
        let mut obs = WorkerObs::new(0);
        let mut acc = 0u32;
        while let Some(x) = queues.next(0, &mut obs) {
            acc = acc.wrapping_add(x);
        }
        acc
    });
    m.set("concurrent.worklist.pop_ns", pop_s * 1e9 / N as f64);
    m.set("concurrent.stealing.next_ns", next_s * 1e9 / N as f64);
}

/// `concurrent.bitset.*` at two universe sizes: 1 k bits (the matrix
/// engine's rows on `dense_small`) and 100 k (a paper-scale node space,
/// as in `open_project`). Every 7th bit is set, so every chunk is live.
pub fn bitset(m: &mut Metrics) {
    for (label, universe) in [("1k", 1_000u32), ("100k", 100_000u32)] {
        let rounds = 20_000_000 / universe as usize;
        let bits: Vec<u32> = (0..universe).step_by(7).collect();
        let mut a = ChunkedBitset::new();
        let mut b = ChunkedBitset::new();
        for &i in &bits {
            a.insert(i);
            b.insert(universe - 1 - i);
        }
        let chunks = (universe as usize).div_ceil(CHUNK_BITS);
        let union_s = best_of(REPS, || {
            for _ in 0..rounds {
                black_box(&mut a).union_with(black_box(&b));
            }
        });
        // Insert and clear alternate on a bank of sets, so each is timed
        // as one block; an untimed first cycle allocates the chunks
        // (`clear` retains them, as the solver's reuse does).
        let mut bank: Vec<ChunkedBitset> = (0..rounds / 4).map(|_| ChunkedBitset::new()).collect();
        let fill = |bank: &mut Vec<ChunkedBitset>| {
            seconds(|| {
                for set in bank.iter_mut() {
                    for &i in &bits {
                        black_box(set.insert(i));
                    }
                }
            })
        };
        let wipe = |bank: &mut Vec<ChunkedBitset>| {
            seconds(|| bank.iter_mut().for_each(|set| black_box(set).clear()))
        };
        fill(&mut bank);
        wipe(&mut bank);
        let mut insert_s = f64::INFINITY;
        let mut clear_s = f64::INFINITY;
        for _ in 0..REPS {
            insert_s = insert_s.min(fill(&mut bank));
            clear_s = clear_s.min(wipe(&mut bank));
        }
        let inserts = (rounds / 4 * bits.len()) as f64;
        m.set(
            &format!("concurrent.bitset.union_ns_per_chunk.{label}"),
            ratio(union_s * 1e9, (rounds * chunks) as f64),
        );
        m.set(
            &format!("concurrent.bitset.insert_ns.{label}"),
            ratio(insert_s * 1e9, inserts),
        );
        m.set(
            &format!("concurrent.bitset.clear_ns.{label}"),
            ratio(clear_s * 1e9, (rounds / 4) as f64),
        );
    }
}
