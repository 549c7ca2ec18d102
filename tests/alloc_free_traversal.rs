//! A warm lane's nested traversals do not allocate (DESIGN.md §8): with
//! sharing off nothing is published, so once a solver's scratch has grown
//! to a batch, answering the batch again may allocate for the answers it
//! hands out and for nothing else — not once per element of every nested
//! result set, which is what sorting by materialised call strings cost,
//! nor a spill bitset per query, which the visited tables did until they
//! kept a pool of them (DESIGN.md §11).
//!
//! A solver that records footprints adds each answer's footprint to that
//! and nothing per `ReachableNodes` frame: reads go to the lane's log.
//!
//! Its own test binary: the counting allocator is process-wide. The count
//! is per thread, so the harness's own threads stay out of it.

use parcfl::concurrent::CHUNK_BITS;
use parcfl::core::{NoJmpStore, Solver};
use parcfl::synth::{build_bench, Profile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations (`alloc`, `alloc_zeroed`, `realloc`) this thread
    /// has made. Const-initialised and without a destructor, so reading
    /// it from inside the allocator allocates nothing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local counter
// bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_warm_solver_allocates_for_its_answers_only() {
    let bench = build_bench(&Profile::small(7));
    // No data sharing; every query completes.
    let cfg = bench.solver.clone().with_budget(50_000_000);
    let store = NoJmpStore;
    let pass = |solver: &mut Solver| {
        let before = ALLOCS.with(Cell::get);
        let (mut elements, mut steps) = (0u64, 0u64);
        for &q in &bench.queries {
            let out = solver.points_to_query(q, 0);
            elements += out.answer.complete().expect("ample budget").len() as u64;
            steps += out.stats.traversed_steps;
        }
        (ALLOCS.with(Cell::get) - before, elements, steps)
    };
    let mut solver = Solver::new(&bench.pag, &cfg, &store);
    let (cold, ..) = pass(&mut solver);
    let (warm, elements, steps) = pass(&mut solver);
    let queries = bench.queries.len() as u64;
    eprintln!("queries={queries} elements={elements} steps={steps} cold={cold} warm={warm}");
    // The batch is mostly nested work: many more steps than answers.
    assert!(steps > 20 * (elements + queries));
    // An answer costs its `Vec` and at most one call string per element.
    // The visited tables rebuild nothing: a row that outgrows its inline
    // slots takes a bitset its table keeps from query to query.
    assert!(
        warm <= elements + queries,
        "{warm} allocations for {elements} answer elements over {queries} queries ({steps} steps)"
    );

    // Recording on: the same, plus one footprint per answer — its `Arc`,
    // and per bitset a chunk directory (grown by doubling) and the chunks
    // it touches.
    let recording_cfg = cfg.clone().with_footprints();
    let mut recording = Solver::new(&bench.pag, &recording_cfg, &store);
    pass(&mut recording);
    let (warm_recording, ..) = pass(&mut recording);
    let slots = |ids: usize| (ids / CHUNK_BITS + 1) as u64;
    let per_footprint =
        1 + 2 * (slots(bench.pag.node_count()) + slots(bench.pag.types().field_count()));
    eprintln!("recording warm={warm_recording} per_footprint<={per_footprint}");
    assert!(
        warm_recording <= warm + queries * per_footprint,
        "{warm_recording} allocations recording against {warm} not, {queries} queries"
    );
    // One frame per heap access crossed: a per-frame allocation would show.
    assert!(queries * per_footprint < steps / 4);
}
