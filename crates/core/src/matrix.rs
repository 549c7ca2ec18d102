//! Whole-program boolean-semiring backend: batched CFL-reachability as
//! iterated sparse-matrix × bit-vector products (DESIGN.md §11).
//!
//! The demand solver answers one query by walking the PAG state-by-state
//! with a work list. This backend answers a *batch* by repeatedly
//! multiplying per-kind adjacency (the kind-major CSR sub-slices of
//! [`Pag`], or — for the payload-free classes, when `cfg.packed` — the
//! graph's bit-packed successor rows, gathered word-at-a-time) into
//! per-context node frontiers held as [`ChunkedBitset`]s:
//! one sweep over a frontier applies a whole edge class to every set bit,
//! which is exactly a boolean SpMV with the adjacency matrix of that
//! class. Context transitions (`param` pops, `ret` pushes, `assign_g`
//! resets) route bits between per-context rows instead of staying inside
//! one product, so the iteration is a block-structured closure over the
//! `(node, context)` state space — the same fixpoint the demand solver
//! reaches, computed row-at-a-time instead of state-at-a-time.
//!
//! **Semantics are identical to the demand solver on completed queries.**
//! Both compute the least fixpoint of the same transition relation, and
//! completed answers are materialised and sorted the same way, so a query
//! the demand solver completes is answered bit-identically here (the
//! `dense_props` suite and `parcfl check --fuzz` enforce this
//! differentially). Where the backends differ is *cost*: sub-query
//! results (`PointsTo`/`FlowsTo`/`ReachableNodes` closures) are memoised
//! **globally across the batch**, so high-fan-in programs where many
//! queries share flow pay for each closure once. The per-query budget `B`
//! still applies — it caps frontier-bit scans, the matrix analogue of
//! work-list pops — and cyclically-dependent sub-queries abort the query
//! the same way the demand solver's re-entrancy guard does, so
//! `OutOfBudget` verdicts remain honest. Data sharing (jmp shortcuts) is
//! inert on this backend: the global memo subsumes it within a batch.

use crate::config::SolverConfig;
use crate::context::{sort_canonical, Ctx};
use crate::footprint::{DirtySet, Footprint, FpBuilder};
use crate::solver::CtxNode;
use crate::stats::{Answer, QueryOutput, QueryStats};
use parcfl_concurrent::{kernel, ChunkedBitset, CtxId, CtxInterner, FxHashMap, FxHashSet};
use parcfl_obs::{EventKind, ObsHists, TraceRecorder};
use parcfl_pag::{Edge, EdgeClass, NodeId, PackedAdj, PackedClass, Pag, EDGE_CLASSES};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Payload-free classes the packed gather path covers (`New`,
/// `AssignLocal`, `AssignGlobal` — discriminants 0..3). Indexes the
/// per-wave packed/CSR row counters.
const PACKED_CLASSES: usize = 3;

/// An interned traversal state.
type IState = (NodeId, CtxId);

/// The one fan-out gate: waves below this many scans run inline on the
/// calling thread even when the solver has workers; waves at or above it
/// get one scoped thread per partition share. At the ledger's 2460 ns per
/// matrix step (`benchmark/results/baseline.seed1.json`,
/// `core.matrix.ns_per_step`) 256 scans are ≈ 0.6 ms of work against a
/// tens-of-µs scoped spawn; Table-I waves (≤ 64 scans) never reach it.
/// Span accounting always uses the partition, so the answer *and* the
/// reported virtual time are independent of whether threads were spawned.
const FAN_OUT_MIN_SCANS: u64 = 256;

/// Recycled-bitset pool cap for worker scratch rows (the row tables
/// themselves recycle unbounded, as before): workers allocate scratch per
/// wave, and without a cap the pool would grow with the worker count.
const SCRATCH_POOL_CAP: usize = 512;

/// Marker error: the query hit its scan budget or a cyclic sub-query
/// dependency — both surface as [`Answer::OutOfBudget`].
#[derive(Debug)]
struct Halt;

/// Owner stamp of memo entries adopted from an earlier batch
/// ([`MatrixSolver::with_memo`]): hits on them are warm cross-batch reuse,
/// not intra-batch sharing, so they never become provider (precedence)
/// edges. Real query indices are always below this.
const ADOPTED: u32 = u32::MAX;

/// One memoised closure: the completed fixpoint plus the index of the
/// query that computed it, so the batch scheduler knows which earlier
/// query a memo hit shares work with.
struct MemoEntry {
    set: Arc<Vec<IState>>,
    owner: u32,
    /// Reverse-dependency footprint of the closure's sweeps
    /// (`record_footprints` only): the nodes/fields whose adjacency the
    /// fixpoint consulted, for selective invalidation across batches
    /// (DESIGN.md §12). `None` is always invalidated.
    fp: Option<Arc<Footprint>>,
}

/// Key of one memoised closure: relation tag, node, interned context.
type MemoKey = (Rel, NodeId, CtxId);

/// A batch-global memo detached from its solver for cross-batch reuse:
/// the completed closures plus the interner giving their `CtxId`s
/// meaning. An incremental session extracts it after a batch
/// ([`MatrixSolver::take_memo`]), invalidates selectively on each delta
/// ([`MatrixMemo::invalidate_delta`]) and hands the warm remainder to the
/// next batch's solver ([`MatrixSolver::with_memo`]).
#[derive(Default)]
pub struct MatrixMemo {
    ctxs: Option<Arc<CtxInterner>>,
    entries: FxHashMap<MemoKey, MemoEntry>,
}

impl MatrixMemo {
    /// Memoised closures currently resident.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The interner the memo's `CtxId`s resolve against (set once the
    /// first batch ran).
    pub fn interner(&self) -> Option<&Arc<CtxInterner>> {
        self.ctxs.as_ref()
    }

    /// Selective invalidation after an applied delta: drops every entry
    /// whose footprint is missing or intersects `dirty`, returning
    /// `(invalidated, retained)`. Same law as the jmp store's
    /// [`crate::SharedJmpStore::invalidate_delta`].
    pub fn invalidate_delta(&mut self, dirty: &DirtySet) -> (u64, u64) {
        let before = self.entries.len() as u64;
        self.entries
            .retain(|_, e| e.fp.as_ref().is_some_and(|fp| !fp.intersects(dirty)));
        let retained = self.entries.len() as u64;
        (before - retained, retained)
    }

    /// Drops every entry (full cold restart of the memo; the interner is
    /// kept so resident `CtxId`s elsewhere stay meaningful).
    pub fn clear(&mut self) -> u64 {
        let n = self.entries.len() as u64;
        self.entries.clear();
        n
    }
}

/// The whole-program backend. One instance serves a batch of queries;
/// sub-query closures are memoised across the whole batch.
pub struct MatrixSolver<'a> {
    pag: &'a Pag,
    cfg: &'a SolverConfig,
    /// Private interner: the matrix backend never shares a jmp store, so
    /// it owns its context-id space.
    ctxs: Arc<CtxInterner>,
    /// Batch-global memo of completed closures, all relations in one map.
    /// Only fixpoint (complete) results are stored, so entries are valid
    /// for every later query regardless of its budget.
    memo: FxHashMap<MemoKey, MemoEntry>,
    /// Index of the query currently being evaluated
    /// ([`MatrixSolver::set_query_index`]) — stamped as the owner of every
    /// memo completed during it.
    query_index: u32,
    /// Owners of the memo entries the current query hit — the cross-query
    /// sharing edges the batch scheduler turns into precedence
    /// constraints ([`MatrixSolver::take_providers`]).
    providers: FxHashSet<u32>,
    /// In-flight sub-query detection: a dependency cycle can never reach a
    /// fixpoint, so it aborts the query — mirroring the demand solver,
    /// which burns its remaining budget on the same cycles.
    on_stack: FxHashSet<MemoKey>,
    depth: u32,
    /// Frontier bits scanned by the current query (all nested closures
    /// included) — charged against `cfg.budget`. Independent of the
    /// worker count: every wave scans each fresh state exactly once.
    work: u64,
    /// Parallel virtual time of the current query: per wave, the largest
    /// worker share of the partition (the critical path). Equals `work`
    /// at one worker.
    span: u64,
    /// Sweep worker count (≥ 1). Answers, scan counts and interner
    /// contents are bit-identical for every value; only wall clock and
    /// `span` change.
    workers: usize,
    /// The PAG's bit-packed adjacency rows, when `cfg.packed` — scanned
    /// word-at-a-time instead of walking the scalar CSR slices. `None`
    /// falls back to the CSR path everywhere (so does any individual
    /// class the density heuristic left unpacked).
    packed: Option<&'a PackedAdj>,
    /// Recycled row bitsets; allocations persist across queries, so
    /// [`QueryStats::state_words`] reports the resident row storage.
    pool: Vec<ChunkedBitset>,
    /// Per-lane trace sinks ([`MatrixSolver::with_recorders`]): part `p`
    /// of a wave lands in lane `p % rec.len()`, so the Chrome export shows
    /// one sweep track per worker. All emission happens on the barrier
    /// thread; workers only stamp timestamps into their [`SweepOut`].
    /// `None` (the default) keeps every emit to a single branch.
    rec: Option<&'a [TraceRecorder]>,
    /// Trace epoch: wave/segment timestamps are nanoseconds since this
    /// instant. Set together with `rec`.
    epoch: Option<Instant>,
    /// Monotone wave counter, reset per query (`WaveStart.a`).
    wave_id: u32,
    /// Always-on sweep histograms (wave width, segments per wave, fan-out
    /// spawn latency), drained by [`MatrixSolver::take_hists`].
    hists: ObsHists,
    /// The current query's sweep counters (gathers, fallbacks, fan-outs,
    /// per-class steps), accumulated in place and handed out — with the
    /// step totals filled in — by `points_to_query`.
    qstats: QueryStats,
    /// Footprint recording frames (`cfg.record_footprints` only): one per
    /// in-flight closure compute, child reads merging into the parent on
    /// pop. Purely metadata — answers, scan counts and interner contents
    /// are bit-identical with recording on or off.
    fp_stack: Vec<FpBuilder>,
}

/// Per-context rows of one closure computation: for each context touched,
/// a visited bitset (monotone) and a frontier bitset (bits not yet swept).
#[derive(Default)]
struct RowTable {
    idx: FxHashMap<CtxId, usize>,
    ctx_of: Vec<CtxId>,
    visited: Vec<ChunkedBitset>,
    frontier: Vec<ChunkedBitset>,
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
}

impl RowTable {
    fn row(&mut self, c: CtxId, pool: &mut Vec<ChunkedBitset>) -> usize {
        if let Some(&ri) = self.idx.get(&c) {
            return ri;
        }
        let ri = self.ctx_of.len();
        self.idx.insert(c, ri);
        self.ctx_of.push(c);
        self.visited.push(pool.pop().unwrap_or_default());
        self.frontier.push(pool.pop().unwrap_or_default());
        self.is_dirty.push(false);
        ri
    }

    /// Adds state `(n, c)`; new states land in the context's frontier.
    fn insert(&mut self, n: u32, c: CtxId, pool: &mut Vec<ChunkedBitset>) {
        let ri = self.row(c, pool);
        if self.visited[ri].insert(n) {
            self.frontier[ri].insert(n);
            self.mark_dirty(ri);
        }
    }

    fn mark_dirty(&mut self, ri: usize) {
        if !self.is_dirty[ri] {
            self.is_dirty[ri] = true;
            self.dirty.push(ri);
        }
    }

    /// Returns every row bitset to the pool (cleared, allocations kept).
    fn release(&mut self, pool: &mut Vec<ChunkedBitset>) {
        for mut b in self.visited.drain(..).chain(self.frontier.drain(..)) {
            b.clear();
            pool.push(b);
        }
        self.idx.clear();
        self.ctx_of.clear();
        self.dirty.clear();
        self.is_dirty.clear();
    }
}

// ----- parallel frontier sweeps (DESIGN.md §11) -----
//
// A sweep drains the dirty frontiers in *waves*: the whole dirty set is
// snapshotted (ascending row index), sliced into 512-bit chunk segments,
// and the segments are partitioned contiguously across workers. Workers
// only read — the PAG, the interner, the wave's frontier bits — and write
// into private scratch; the barrier then replays worker outputs in
// partition order. Because the partition is contiguous and the replay is
// ordered, every observable (row-creation order, interner ids, pending
// order, scan totals, Halt verdicts) is identical for every worker count,
// including one: the parallel path *is* the sequential path.

/// Which closure's transition relation a sweep applies. The two are
/// mirror images over the same edge classes, so every direction-dependent
/// choice of the engine is one of the methods below.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum SweepKind {
    /// `PointsTo`: incoming per-kind slices; `param` pops, `ret` pushes,
    /// `new` edges land in the points-to rows, `load`s pend aliasing.
    Pts,
    /// `FlowsTo`: outgoing slices; `param` pushes, `ret` pops, `store`s
    /// pend aliasing.
    Flows,
}

impl SweepKind {
    /// The `class` adjacency slice of `n` this kind walks: incoming edges
    /// backward, outgoing edges forward.
    #[inline]
    fn edges(self, pag: &Pag, n: NodeId, class: EdgeClass) -> &[Edge] {
        match self {
            SweepKind::Pts => pag.incoming_kind(n, class),
            SweepKind::Flows => pag.outgoing_kind(n, class),
        }
    }

    /// The endpoint of `e` a walk of this kind arrives at.
    #[inline]
    fn far(self, e: &Edge) -> NodeId {
        match self {
            SweepKind::Pts => e.src,
            SweepKind::Flows => e.dst,
        }
    }

    /// The packed rows of `class` in this kind's direction, if it packed.
    #[inline]
    fn packed(self, adj: &PackedAdj, class: EdgeClass) -> Option<&PackedClass> {
        match self {
            SweepKind::Pts => adj.in_packed(class),
            SweepKind::Flows => adj.out_packed(class),
        }
    }

    /// The call-edge class whose site this kind matches against the top of
    /// the context and pops; the other call-edge class pushes its site.
    #[inline]
    fn pop_class(self) -> EdgeClass {
        match self {
            SweepKind::Pts => EdgeClass::Param,
            SweepKind::Flows => EdgeClass::Ret,
        }
    }

    /// The field-access class that pends an alias obligation.
    #[inline]
    fn alias_class(self) -> EdgeClass {
        match self {
            SweepKind::Pts => EdgeClass::Load,
            SweepKind::Flows => EdgeClass::Store,
        }
    }
}

/// Relation tag of a memoised (or in-flight) closure.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Rel {
    /// The `PointsTo` / `FlowsTo` fixpoint of the given kind.
    Closure(SweepKind),
    /// `ReachableNodes`: the alias step a sweep of the given kind pends
    /// (backward over loads for `Pts`, forward over stores for `Flows`).
    Rch(SweepKind),
}

/// One partition unit: `mask`'s set bits of one `u64` word
/// (`chunk`/`word`) of wave row `fi` (`scans = mask.count_ones()`, the
/// cost the partitioner balances). Sub-word masks — not whole 512-bit
/// chunks or even whole words — are what keep small waves splittable:
/// frontiers cluster in low node ids, so without them a wave's critical
/// path floors at the fattest word and the measured makespan stalls well
/// short of the worker count. Concatenating segments in (fi, chunk,
/// word, ascending-bit) order reproduces the one-worker scan order
/// exactly, whatever the split.
struct Seg {
    fi: u32,
    chunk: u32,
    word: u32,
    mask: u64,
    scans: u32,
}

/// Per-context scratch bitsets of one worker, kept in first-touch order
/// so the barrier merge visits contexts in global scan order.
#[derive(Default)]
struct ScratchRows {
    idx: FxHashMap<CtxId, usize>,
    ctxs: Vec<CtxId>,
    bits: Vec<ChunkedBitset>,
}

impl ScratchRows {
    /// The scratch row of `c`, plus whether this call created it.
    fn row(&mut self, c: CtxId) -> (&mut ChunkedBitset, bool) {
        let next = self.ctxs.len();
        let i = *self.idx.entry(c).or_insert(next);
        if i == next {
            self.ctxs.push(c);
            self.bits.push(ChunkedBitset::default());
        }
        (&mut self.bits[i], i == next)
    }

    /// Inserts `n` under `c`; returns `true` iff this created the row.
    fn insert(&mut self, n: u32, c: CtxId) -> bool {
        let (bits, created) = self.row(c);
        bits.insert(n);
        created
    }

    /// Unions a packed successor row under `c` (word-level OR, the packed
    /// counterpart of per-edge [`ScratchRows::insert`]); returns `true`
    /// iff this created the row.
    fn union_row(&mut self, words: &[u64], c: CtxId) -> bool {
        let (bits, created) = self.row(c);
        bits.union_words(words);
        created
    }

    fn drain(&mut self) -> impl Iterator<Item = (CtxId, ChunkedBitset)> + '_ {
        self.idx.clear();
        self.ctxs.drain(..).zip(self.bits.drain(..))
    }
}

/// Ordering-sensitive effects of one worker's scan, replayed at the
/// barrier in partition order. Scratch bit *content* is order-free (sets
/// merged with the chunk kernels); these ops carry everything whose order
/// the run can observe.
enum Op {
    /// First touch of a known target context: creates the row, so row
    /// indices are assigned in global scan order.
    Touch(CtxId),
    /// Context push (`ret` on the pts side, `param` on flows): interned at
    /// the barrier, keeping the interner single-writer during sweeps and
    /// id assignment identical to the one-worker run.
    Push { n: u32, parent: CtxId, site: u32 },
    /// Alias obligation (`load` on the pts side, `store` on flows).
    Pend { n: u32, c: CtxId },
}

/// Everything one worker produces from its share of a wave.
#[derive(Default)]
struct SweepOut {
    scans: u64,
    /// Known-context insertions (same-context, `assign_g` resets, `param`/
    /// `ret` pops) — merged into visited/frontier rows by chunk kernels.
    scratch: ScratchRows,
    /// `new`-edge hits: objects entering the points-to rows (pts sweeps
    /// only). Pure set content, never creates closure rows.
    pts: ScratchRows,
    ops: Vec<Op>,
    /// Trace timestamps (ns since the trace epoch) bracketing this part's
    /// scan; 0 when no epoch is attached. Stamped by the worker, emitted
    /// by the barrier thread into the part's lane.
    t0_ns: u64,
    t1_ns: u64,
    /// Bit-packed rows gathered, per payload-free class (index = class
    /// discriminant, `PACKED_CLASSES` wide).
    packed_rows: [u64; PACKED_CLASSES],
    /// Scalar CSR fallback walks of the payload-free classes (the class
    /// was unpacked, or the row fell below the packing threshold).
    csr_rows: [u64; PACKED_CLASSES],
    /// Sweep step attribution per [`EdgeClass`]: +1 per CSR edge applied,
    /// +1 per packed row gathered, +1 per alias obligation pended.
    class_steps: [u64; EDGE_CLASSES],
}

impl SweepOut {
    #[inline]
    fn ins(&mut self, n: u32, c: CtxId) {
        if self.scratch.insert(n, c) {
            self.ops.push(Op::Touch(c));
        }
    }

    /// Packed counterpart of [`SweepOut::ins`]: one whole successor row
    /// under `c`. Callers only pass rows [`PackedClass::row`] returned
    /// `Some` for (≥ 1 edge), so a `Touch` is emitted at exactly the same
    /// point the per-edge path's first insert would emit it — row-creation
    /// order, and with it every downstream observable, is unchanged.
    #[inline]
    fn ins_row(&mut self, words: &[u64], c: CtxId) {
        if self.scratch.union_row(words, c) {
            self.ops.push(Op::Touch(c));
        }
    }
}

/// The shared-read state a sweep worker needs. Interner *reads*
/// (`top`/`parent`) are lock-free and safe concurrently; interning
/// (id allocation) is deferred to the barrier via [`Op::Push`].
struct SweepEnv<'b> {
    pag: &'b Pag,
    ctxs: &'b CtxInterner,
    ctx_sens: bool,
    /// Packed rows to gather from (`None`: CSR slices everywhere).
    packed: Option<&'b PackedAdj>,
    /// Trace epoch for per-part timestamp stamping; `None` (tracing off)
    /// skips every clock read.
    epoch: Option<Instant>,
}

/// Scans one contiguous run of segments, in order, bits ascending — the
/// exact order the one-worker sweep uses for the same slice.
fn scan_part(
    env: &SweepEnv<'_>,
    kind: SweepKind,
    fronts: &[(CtxId, ChunkedBitset)],
    segs: &[Seg],
) -> SweepOut {
    let mut out = SweepOut::default();
    if let Some(e) = env.epoch {
        out.t0_ns = e.elapsed().as_nanos() as u64;
    }
    for seg in segs {
        let (cx, bits) = &fronts[seg.fi as usize];
        let cx = *cx;
        let chunk = bits.chunk(seg.chunk as usize).expect("segment has bits");
        let base = seg.chunk * parcfl_concurrent::CHUNK_BITS as u32 + seg.word * 64;
        let mut w = chunk[seg.word as usize] & seg.mask;
        while w != 0 {
            let nr = base + w.trailing_zeros();
            w &= w - 1;
            out.scans += 1;
            scan_bit(env, kind, nr, cx, &mut out);
        }
    }
    if let Some(e) = env.epoch {
        out.t1_ns = e.elapsed().as_nanos() as u64;
    }
    out
}

/// Applies every edge class of `kind`'s direction to state `(n, c)` — one
/// bit of the SpMV. The payload-free classes gather through the packed
/// rows when available (`frontier-bit × successor-row → scratch`, one
/// word-level OR per row); the CSR walk in the `else` arm is both the
/// fallback for unpacked classes and thin rows (below `ROW_MIN_BITS`) and
/// the reference the packed path must match bit-for-bit. Class order —
/// `new`, `assign_l`, `assign_g`, `param`, `ret`, alias trigger — is the
/// same in both directions and fixes the order of the emitted ops.
fn scan_bit(env: &SweepEnv<'_>, kind: SweepKind, nr: u32, c: CtxId, out: &mut SweepOut) {
    let pag = env.pag;
    let n = NodeId::new(nr);
    let cg = if env.ctx_sens { CtxId::EMPTY } else { c };
    for (class, target) in [
        (EdgeClass::New, c),
        (EdgeClass::AssignLocal, c),
        (EdgeClass::AssignGlobal, cg),
    ] {
        let k = class as usize;
        // The one asymmetry: backward `new` hits are answer content, not
        // closure states — order-free set content, so no Touch op.
        let to_pts = kind == SweepKind::Pts && class == EdgeClass::New;
        let packed = env.packed.and_then(|adj| kind.packed(adj, class));
        if let Some(row) = packed.and_then(|pc| pc.row(nr)) {
            if to_pts {
                out.pts.union_row(row, target);
            } else {
                out.ins_row(row, target);
            }
            out.packed_rows[k] += 1;
            out.class_steps[k] += 1;
        } else {
            out.csr_rows[k] += 1;
            for e in kind.edges(pag, n, class) {
                let m = kind.far(e).raw();
                if to_pts {
                    out.pts.insert(m, target);
                } else {
                    out.ins(m, target);
                }
                out.class_steps[k] += 1;
            }
        }
    }
    for class in [EdgeClass::Param, EdgeClass::Ret] {
        let pops = class == kind.pop_class();
        for e in kind.edges(pag, n, class) {
            out.class_steps[class as usize] += 1;
            let site = e.kind.call_site().expect("call edge").raw();
            let m = kind.far(e).raw();
            if !env.ctx_sens || (pops && c.is_empty()) {
                out.ins(m, c);
            } else if !pops {
                out.ops.push(Op::Push {
                    n: m,
                    parent: c,
                    site,
                });
            } else if env.ctxs.top(c) == Some(site) {
                out.ins(m, env.ctxs.parent(c));
            }
        }
    }
    let alias = kind.alias_class();
    if !kind.edges(pag, n, alias).is_empty() {
        out.class_steps[alias as usize] += 1;
        out.ops.push(Op::Pend { n: nr, c });
    }
}

/// Cuts the segment list into ≤ `workers` contiguous ranges of roughly
/// equal scan cost. Deterministic; contiguity is what makes the ordered
/// barrier replay equal the one-worker scan order.
fn partition_segs(segs: &[Seg], workers: usize) -> Vec<Range<usize>> {
    if workers <= 1 || segs.len() <= 1 {
        return std::iter::once(0..segs.len()).collect();
    }
    let total: u64 = segs.iter().map(|s| s.scans as u64).sum();
    let mut parts = Vec::with_capacity(workers);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut remaining = total;
    for (i, s) in segs.iter().enumerate() {
        acc += s.scans as u64;
        // Re-derive the target from what is left so early oversized cuts
        // (a fat segment straddling the boundary) shrink the shares that
        // follow instead of starving the last worker.
        let parts_left = (workers - parts.len()) as u64;
        if acc * parts_left >= remaining && parts.len() + 1 < workers {
            parts.push(start..i + 1);
            start = i + 1;
            remaining -= acc;
            acc = 0;
        }
    }
    if start < segs.len() {
        parts.push(start..segs.len());
    }
    parts
}

/// The engine's only dispatch: a single part runs inline on the calling
/// thread; several parts get one scoped thread each. Outputs come back in
/// part order either way. When it fanned out, also returns the nanoseconds
/// from that decision to the last worker spawned. A worker panic is
/// re-raised with its original payload, so a proptest or fuzzer message
/// survives the join.
fn run_parts<T: Send>(
    parts: &[Range<usize>],
    scan: impl Fn(Range<usize>) -> T + Sync,
) -> (Vec<T>, Option<u64>) {
    if parts.len() <= 1 {
        return (parts.iter().map(|p| scan(p.clone())).collect(), None);
    }
    let t0 = Instant::now();
    std::thread::scope(|sc| {
        let scan = &scan;
        let handles: Vec<_> = parts
            .iter()
            .map(|p| sc.spawn(move || scan(p.clone())))
            .collect();
        let spawn_ns = t0.elapsed().as_nanos() as u64;
        let outs = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (outs, Some(spawn_ns))
    })
}

impl<'a> MatrixSolver<'a> {
    /// Creates a batch solver over `pag`. Of `cfg`, the backend honours
    /// `budget`, `context_sensitive` and `max_recursion_depth`; the
    /// sharing and memoisation toggles are inert (the batch memo is
    /// always on, the jmp store never consulted).
    pub fn new(pag: &'a Pag, cfg: &'a SolverConfig) -> Self {
        MatrixSolver {
            pag,
            cfg,
            ctxs: Arc::new(CtxInterner::new()),
            memo: FxHashMap::default(),
            on_stack: FxHashSet::default(),
            depth: 0,
            work: 0,
            span: 0,
            workers: 1,
            packed: cfg.packed.then(|| pag.packed()),
            query_index: 0,
            providers: FxHashSet::default(),
            pool: Vec::new(),
            rec: None,
            epoch: None,
            wave_id: 0,
            hists: ObsHists::default(),
            qstats: QueryStats::default(),
            fp_stack: Vec::new(),
        }
    }

    /// Adopts a warm cross-batch memo ([`MatrixSolver::take_memo`] of an
    /// earlier batch, selectively invalidated in between): its interner
    /// replaces this solver's (the entries' `CtxId`s resolve against it)
    /// and its entries are re-stamped [`ADOPTED`] so hits on them never
    /// become precedence edges. Must be applied before the first query.
    pub fn with_memo(mut self, memo: MatrixMemo) -> Self {
        if let Some(ctxs) = memo.ctxs {
            self.ctxs = ctxs;
        }
        self.memo = memo.entries;
        for e in self.memo.values_mut() {
            e.owner = ADOPTED;
        }
        self
    }

    /// Detaches the batch memo (and a handle on the interner its ids
    /// resolve against) for cross-batch reuse, leaving this solver's memo
    /// empty. The incremental session calls this after every batch.
    pub fn take_memo(&mut self) -> MatrixMemo {
        MatrixMemo {
            ctxs: Some(Arc::clone(&self.ctxs)),
            entries: std::mem::take(&mut self.memo),
        }
    }

    /// Declares which batch query the next evaluation belongs to. Memos
    /// completed from here on are stamped with `i`; memo hits on entries
    /// owned by *other* indices accumulate as providers.
    pub fn set_query_index(&mut self, i: u32) {
        self.query_index = i;
    }

    /// Drains the provider set of the last query: the (deduplicated,
    /// ascending) indices of earlier queries whose memoised closures it
    /// consumed. The batch scheduler treats each as a precedence edge —
    /// in a parallel batch run the consumer blocks until its providers'
    /// results are published.
    pub fn take_providers(&mut self) -> Vec<u32> {
        let mut v: Vec<u32> = self.providers.drain().collect();
        v.sort_unstable();
        v
    }

    /// Sets the sweep worker count (default 1): each wave's frontier
    /// chunks are partitioned across this many threads. Answers, scan
    /// counts, Halt verdicts and interner contents are bit-identical for
    /// every value — only wall clock and [`QueryStats::span_steps`]
    /// change.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Attaches per-lane trace recorders: part `p` of every fanned-out
    /// wave is emitted into lane `p % recs.len()`, lane 0 additionally
    /// carries the outer wave spans, the fan-out instants and the
    /// per-class gather instants.
    /// Timestamps are nanoseconds since `epoch`. Purely observational —
    /// no answer, scan count or interner observable moves.
    pub fn with_recorders(mut self, recs: &'a [TraceRecorder], epoch: Instant) -> Self {
        self.rec = (!recs.is_empty()).then_some(recs);
        self.epoch = Some(epoch);
        self
    }

    /// Drains the always-on sweep histograms (wave width, segments per
    /// fanned-out wave, fan-out spawn latency) accumulated since the last
    /// call, for merging into run statistics.
    pub fn take_hists(&mut self) -> ObsHists {
        std::mem::take(&mut self.hists)
    }

    /// The context interner this solver resolves `CtxId`s against.
    pub fn interner(&self) -> &Arc<CtxInterner> {
        &self.ctxs
    }

    /// Nanoseconds since the trace epoch (0 when no epoch is attached;
    /// only called behind a `rec.is_some()` gate).
    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    /// One-branch guard for the outer `WaveStart` span: the cold body
    /// reads the clock and pushes into lane 0 only when recorders are
    /// attached (the Off path is the `is_some` check alone).
    #[inline(always)]
    fn emit_wave_start(&self, wid: u32, width: u64) {
        if self.rec.is_some() {
            self.emit_wave_start_cold(wid, width);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit_wave_start_cold(&self, wid: u32, width: u64) {
        if let Some(recs) = self.rec {
            recs[0].span(
                EventKind::WaveStart,
                self.now_ns(),
                wid,
                width.min(u32::MAX as u64) as u32,
            );
        }
    }

    /// Emits every post-barrier event of one wave: the fan-out instant, the
    /// per-part `WaveStart`/`WaveEnd` spans and `SweepSegment` instants
    /// (worker-stamped timestamps, one lane per part stride), the
    /// aggregated packed/CSR gather instants, and the outer `WaveEnd`.
    /// Cold-outlined; callers gate on `rec.is_some()`.
    #[cold]
    #[inline(never)]
    fn emit_wave_events(
        &self,
        wid: u32,
        outs: &[SweepOut],
        fan_out_ns: Option<u64>,
        wave_packed: &[u64; PACKED_CLASSES],
        wave_csr: &[u64; PACKED_CLASSES],
    ) {
        let Some(recs) = self.rec else { return };
        let sat = |v: u64| v.min(u32::MAX as u64) as u32;
        let parts = outs.len() as u32;
        if let Some(ns) = fan_out_ns {
            // Stamped at the first part's start: ≥ the outer WaveStart,
            // ≤ every lane-0 part event, so lane 0 stays ts-monotone.
            let ts = outs.first().map_or_else(|| self.now_ns(), |o| o.t0_ns);
            recs[0].instant(EventKind::FanOut, ts, parts, sat(ns));
        }
        for (p, out) in outs.iter().enumerate() {
            let lane = &recs[p % recs.len()];
            lane.span(EventKind::WaveStart, out.t0_ns, wid, sat(out.scans));
            lane.instant(EventKind::SweepSegment, out.t1_ns, p as u32, sat(out.scans));
            lane.span(EventKind::WaveEnd, out.t1_ns, wid, parts);
        }
        let now = self.now_ns();
        for k in 0..PACKED_CLASSES {
            if wave_packed[k] > 0 {
                recs[0].instant(EventKind::PackedGather, now, k as u32, sat(wave_packed[k]));
            }
            if wave_csr[k] > 0 {
                recs[0].instant(EventKind::CsrFallback, now, k as u32, sat(wave_csr[k]));
            }
        }
        recs[0].span(EventKind::WaveEnd, now, wid, parts);
    }

    /// Answers `PointsTo(l, ∅)`. Completed answers are bit-identical to
    /// the demand solver's; the cost profile is the batch-memoised scan
    /// count.
    pub fn points_to_query(&mut self, l: NodeId) -> QueryOutput {
        assert!(
            (l.raw() as usize) < self.pag.node_count(),
            "query node {} outside PAG universe of {} nodes",
            l.raw(),
            self.pag.node_count()
        );
        self.work = 0;
        self.span = 0;
        self.depth = 0;
        self.wave_id = 0;
        self.qstats = QueryStats::default();
        self.providers.clear();
        // A halted query leaves its in-flight guards set; clear them so
        // the next query starts clean (the memo holds only completed
        // results and stays valid). Halts likewise strand recording
        // frames, and a halted query memoises nothing.
        self.on_stack.clear();
        self.fp_stack.clear();
        let result = self.set(Rel::Closure(SweepKind::Pts), l, CtxId::EMPTY);
        let mut stats = std::mem::take(&mut self.qstats);
        stats.charged_steps = self.work;
        stats.traversed_steps = self.work;
        stats.span_steps = self.span;
        stats.state_words = self.pool.iter().map(ChunkedBitset::allocated_words).sum();
        // Mirrors the demand solver's allocation proxy, except the memo
        // is batch-resident: later queries report everything still held.
        stats.mem_items = self.work + self.memo_items() + stats.state_words;
        let answer = match result {
            Ok(set) => {
                let mut v: Vec<CtxNode> = set
                    .iter()
                    .map(|&(n, c)| (n, Ctx::materialize(&self.ctxs, c)))
                    .collect();
                v.sort_unstable();
                v.dedup();
                Answer::Complete(v)
            }
            Err(Halt) => {
                stats.out_of_budget = true;
                Answer::OutOfBudget
            }
        };
        QueryOutput { answer, stats }
    }

    fn memo_items(&self) -> u64 {
        self.memo.values().map(|e| e.set.len() as u64).sum()
    }

    // ----- memoised closures -----

    /// The memoised entry point of every relation: a hit shares the stored
    /// fixpoint (and absorbs its footprint); a miss computes it under the
    /// depth and re-entrancy guards and stores it stamped with the current
    /// query.
    fn set(&mut self, rel: Rel, n: NodeId, c: CtxId) -> Result<Arc<Vec<IState>>, Halt> {
        let key = (rel, n, c);
        if let Some(e) = self.memo.get(&key) {
            // Cross-query hits become provider (precedence) edges for the
            // batch scheduler. Adopted entries are warm cross-batch state,
            // not in-batch sharing, so they never constrain the schedule.
            if e.owner != self.query_index && e.owner != ADOPTED {
                self.providers.insert(e.owner);
            }
            if let Some(frame) = self.fp_stack.last_mut() {
                frame.absorb(e.fp.as_deref());
            }
            return Ok(Arc::clone(&e.set));
        }
        self.depth += 1;
        if self.depth > self.cfg.max_recursion_depth || !self.on_stack.insert(key) {
            return Err(Halt);
        }
        // One recording frame per in-flight compute; with recording off
        // the stack stays empty and every `last_mut`/`pop` below is `None`.
        if self.cfg.record_footprints {
            self.fp_stack.push(FpBuilder::new());
        }
        let out = match rel {
            Rel::Closure(kind) => self.closure(kind, n, c)?,
            Rel::Rch(kind) => self.rch(kind, n, c)?,
        };
        self.on_stack.remove(&key);
        self.depth -= 1;
        // The frame's reads are this entry's footprint and, merged upward,
        // part of the parent's.
        let fp = self.fp_stack.pop().and_then(|frame| {
            let fp = frame.clone().finish();
            if let Some(parent) = self.fp_stack.last_mut() {
                parent.merge_child(frame);
            }
            fp
        });
        let out = Arc::new(out);
        self.memo.insert(
            key,
            MemoEntry {
                set: Arc::clone(&out),
                owner: self.query_index,
                fp,
            },
        );
        Ok(out)
    }

    /// The `PointsTo(n, c)` / `FlowsTo(n, c)` fixpoint: the objects the
    /// backward sweeps collected, or the variables the forward sweeps
    /// visited, in canonical order.
    fn closure(&mut self, kind: SweepKind, n: NodeId, c: CtxId) -> Result<Vec<IState>, Halt> {
        let mut rows = RowTable::default();
        let mut pts_rows: FxHashMap<CtxId, ChunkedBitset> = FxHashMap::default();
        let mut pending: Vec<IState> = Vec::new();
        rows.insert(n.raw(), c, &mut self.pool);
        let r = self.fixpoint(kind, &mut rows, &mut pts_rows, &mut pending);
        let mut out: Vec<IState> = Vec::new();
        if r.is_ok() {
            match kind {
                SweepKind::Pts => {
                    for (&cx, bits) in pts_rows.iter() {
                        out.extend(bits.iter().map(|o| (NodeId::new(o), cx)));
                    }
                }
                SweepKind::Flows => {
                    let pag = self.pag;
                    for (&cx, bits) in rows.ctx_of.iter().zip(&rows.visited) {
                        out.extend(
                            bits.iter()
                                .map(NodeId::new)
                                .filter(|&v| pag.kind(v).is_variable())
                                .map(|v| (v, cx)),
                        );
                    }
                }
            }
            if let Some(frame) = self.fp_stack.last_mut() {
                // At fixpoint every visited node's adjacency was swept
                // exactly once, so the visited union *is* the closure's
                // node read-set; alias sub-queries merged their own reads
                // via their frames.
                for bits in &rows.visited {
                    frame.record_node_set(bits);
                }
            }
        }
        rows.release(&mut self.pool);
        for (_, mut b) in pts_rows.drain() {
            b.clear();
            self.pool.push(b);
        }
        r?;
        // The same canonical order the demand solver uses, so memoised
        // sets are iterated identically by every consumer.
        sort_canonical(&self.ctxs, &mut out);
        Ok(out)
    }

    fn fixpoint(
        &mut self,
        kind: SweepKind,
        rows: &mut RowTable,
        pts_rows: &mut FxHashMap<CtxId, ChunkedBitset>,
        pending: &mut Vec<IState>,
    ) -> Result<(), Halt> {
        loop {
            self.sweep(kind, rows, pts_rows, pending)?;
            // Edge propagation is drained; resolve one alias obligation
            // and re-drain. Fixpoint order is irrelevant to the result.
            let Some((x, cx)) = pending.pop() else {
                return Ok(());
            };
            let rch = self.set(Rel::Rch(kind), x, cx)?;
            for &(n2, c2) in rch.iter() {
                rows.insert(n2.raw(), c2, &mut self.pool);
            }
        }
    }

    /// Drains dirty frontiers in worker-partitioned waves: each wave
    /// snapshots the dirty rows (ascending index), slices their frontiers
    /// into 512-bit chunk segments, scans the contiguous partition on up
    /// to `self.workers` threads, and replays worker outputs in partition
    /// order at the barrier — scratch bitsets differenced/unioned into
    /// the visited and frontier rows one whole chunk at a time.
    fn sweep(
        &mut self,
        kind: SweepKind,
        rows: &mut RowTable,
        pts_rows: &mut FxHashMap<CtxId, ChunkedBitset>,
        pending: &mut Vec<IState>,
    ) -> Result<(), Halt> {
        while !rows.dirty.is_empty() {
            // Wave snapshot, deterministic order.
            let mut wave = std::mem::take(&mut rows.dirty);
            wave.sort_unstable();
            let mut fronts: Vec<(CtxId, ChunkedBitset)> = Vec::with_capacity(wave.len());
            for &ri in &wave {
                rows.is_dirty[ri] = false;
                fronts.push((rows.ctx_of[ri], std::mem::take(&mut rows.frontier[ri])));
            }
            // Sub-word segments, costed by population count. First pass
            // totals the wave (the any_set guard skips pooled chunks that
            // are allocated but cleared); the grain then aims for ~4
            // segments per worker so the partitioner has slack to
            // balance, and fat words are split into ascending-bit mask
            // groups of at most `grain` scans.
            let mut total: u64 = 0;
            for (_, bits) in &fronts {
                for ci in 0..bits.chunk_count() {
                    if let Some(ch) = bits.chunk(ci) {
                        total += kernel::count_ones(ch) as u64;
                    }
                }
            }
            let wid = self.wave_id;
            self.wave_id = self.wave_id.wrapping_add(1);
            self.emit_wave_start(wid, total);
            // Waves below the gate take the exact single-worker
            // segmentation (grain 64, one part), since fine grains would
            // only add `Seg` bookkeeping to a wave that runs inline
            // anyway. The partition (and with it every answer-observable)
            // is fixed before dispatch either way; only `span_steps` and
            // wall clock depend on it.
            let fan_out = self.workers > 1 && total >= FAN_OUT_MIN_SCANS;
            let grain = if fan_out {
                (total / (self.workers as u64 * 4)).clamp(1, 64) as u32
            } else {
                64
            };
            let mut segs: Vec<Seg> = Vec::new();
            for (fi, (_, bits)) in fronts.iter().enumerate() {
                for ci in 0..bits.chunk_count() {
                    let Some(ch) = bits.chunk(ci) else { continue };
                    if !kernel::any_set(ch) {
                        continue;
                    }
                    for (wi, &w) in ch.iter().enumerate() {
                        let mut rem = w;
                        while rem != 0 {
                            let mut mask = 0u64;
                            let mut scans = 0u32;
                            while rem != 0 && scans < grain {
                                mask |= rem & rem.wrapping_neg();
                                rem &= rem - 1;
                                scans += 1;
                            }
                            segs.push(Seg {
                                fi: fi as u32,
                                chunk: ci as u32,
                                word: wi as u32,
                                mask,
                                scans,
                            });
                        }
                    }
                }
            }
            let parts = partition_segs(&segs, if fan_out { self.workers } else { 1 });
            let env = SweepEnv {
                pag: self.pag,
                ctxs: &self.ctxs,
                ctx_sens: self.cfg.context_sensitive,
                packed: self.packed,
                epoch: self.epoch,
            };
            let (outs, fan_out_ns) =
                run_parts(&parts, |p| scan_part(&env, kind, &fronts, &segs[p]));
            // Whole waves are charged and span-accounted from the
            // partition, so both figures are execution-independent. The
            // budget verdict matches bit-at-a-time charging: cumulative
            // scans are the same in every order, so "exceeds the budget
            // at some point" is the same predicate.
            self.span += outs.iter().map(|o| o.scans).max().unwrap_or(0);
            self.work += total;
            // Observation only — nothing below feeds back into the
            // fixpoint. Placed before the budget check so halted waves
            // still attribute their work; everything except the
            // wall-clock-derived spawn latency is deterministic per
            // configuration (worker-count invariant).
            self.hists.wave_width.record(total);
            if parts.len() > 1 {
                self.hists.wave_segments.record(parts.len() as u64);
            }
            let mut wave_packed = [0u64; PACKED_CLASSES];
            let mut wave_csr = [0u64; PACKED_CLASSES];
            for out in &outs {
                for k in 0..PACKED_CLASSES {
                    wave_packed[k] += out.packed_rows[k];
                    wave_csr[k] += out.csr_rows[k];
                }
                for k in 0..EDGE_CLASSES {
                    self.qstats.sweep_class_steps[k] += out.class_steps[k];
                }
            }
            self.qstats.packed_gathers += wave_packed.iter().sum::<u64>();
            self.qstats.csr_fallback_rows += wave_csr.iter().sum::<u64>();
            if let Some(ns) = fan_out_ns {
                self.hists.pool_dispatch.record(ns);
                self.qstats.pool_wakes += 1;
                self.qstats.pool_dispatch_ns += ns;
            }
            if self.rec.is_some() {
                self.emit_wave_events(wid, &outs, fan_out_ns, &wave_packed, &wave_csr);
            }
            for (_, mut b) in fronts {
                b.clear();
                self.pool.push(b);
            }
            if self.work > self.cfg.budget {
                return Err(Halt);
            }
            // Barrier: ordered replay, then kernel merges.
            for mut out in outs {
                for op in out.ops.drain(..) {
                    match op {
                        Op::Touch(c) => {
                            rows.row(c, &mut self.pool);
                        }
                        Op::Push { n, parent, site } => {
                            let c2 = self.ctxs.intern(parent, site);
                            rows.insert(n, c2, &mut self.pool);
                        }
                        Op::Pend { n, c } => pending.push((NodeId::new(n), c)),
                    }
                }
                for (c, mut bits) in out.scratch.drain() {
                    let ri = *rows.idx.get(&c).expect("touched row exists");
                    bits.difference_with(&rows.visited[ri]);
                    if !bits.is_empty() {
                        rows.visited[ri].union_with(&bits);
                        rows.frontier[ri].union_with(&bits);
                        rows.mark_dirty(ri);
                    }
                    if self.pool.len() < SCRATCH_POOL_CAP {
                        bits.clear();
                        self.pool.push(bits);
                    }
                }
                for (c, mut bits) in out.pts.drain() {
                    pts_rows
                        .entry(c)
                        .or_insert_with(|| self.pool.pop().unwrap_or_default())
                        .union_with(&bits);
                    if self.pool.len() < SCRATCH_POOL_CAP {
                        bits.clear();
                        self.pool.push(bits);
                    }
                }
            }
        }
        Ok(())
    }

    /// `ReachableNodes(x, c)`, identical to the demand solver's alias
    /// step. Backward (`Pts`): for each incoming load `x = p.f`,
    /// `alias = ∪ FlowsTo(o, c')` over `PointsTo(p, c)`, matched against
    /// the bases of the stores of `f`. Forward (`Flows`) is the dual:
    /// outgoing stores matched against the loads of `f`.
    fn rch(&mut self, kind: SweepKind, x: NodeId, c: CtxId) -> Result<Vec<IState>, Halt> {
        let pag = self.pag;
        // `x`'s access slice is consulted even when empty, and each
        // field's opposite-access population even when the `is_empty` gate
        // skips it — record both before any early-out so a delta that
        // populates them invalidates this entry.
        if let Some(frame) = self.fp_stack.last_mut() {
            frame.record_node(x);
        }
        let mut out: FxHashSet<IState> = FxHashSet::default();
        for e in kind.edges(pag, x, kind.alias_class()) {
            let (base, f) = (kind.far(e), e.kind.field().expect("field edge"));
            if let Some(frame) = self.fp_stack.last_mut() {
                frame.record_field(f);
            }
            let matches = match kind {
                SweepKind::Pts => pag.stores_of(f),
                SweepKind::Flows => pag.loads_of(f),
            };
            if matches.is_empty() {
                continue;
            }
            let mut alias: FxHashMap<u32, FxHashSet<CtxId>> = FxHashMap::default();
            let pts = self.set(Rel::Closure(SweepKind::Pts), base, c)?;
            for &(o, c0) in pts.iter() {
                let ft = self.set(Rel::Closure(SweepKind::Flows), o, c0)?;
                for &(q, c2) in ft.iter() {
                    alias.entry(q.raw()).or_default().insert(c2);
                }
            }
            for &(q, y) in matches {
                if let Some(cs) = alias.get(&q.raw()) {
                    out.extend(cs.iter().map(|&c2| (y, c2)));
                }
            }
        }
        let mut v: Vec<IState> = out.into_iter().collect();
        sort_canonical(&self.ctxs, &mut v);
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jmp::NoJmpStore;
    use crate::solver::Solver;
    use parcfl_frontend::build_pag;

    fn demand_vs_matrix(src: &str) {
        let pag = build_pag(src).unwrap().pag;
        let cfg = SolverConfig::default();
        let store = NoJmpStore;
        let mut demand = Solver::new(&pag, &cfg, &store);
        let mut matrix = MatrixSolver::new(&pag, &cfg);
        for n in pag.node_ids() {
            if !pag.kind(n).is_variable() {
                continue;
            }
            let d = demand.points_to_query(n, 0);
            let m = matrix.points_to_query(n);
            assert_eq!(d.answer, m.answer, "query {n:?}");
        }
    }

    #[test]
    fn matrix_matches_demand_on_assignments() {
        demand_vs_matrix(
            "class Obj { }
             class A { method m() {
               var a: Obj; var b: Obj; var c: Obj;
               a = new Obj; b = a; c = b;
             } }",
        );
    }

    #[test]
    fn matrix_matches_demand_across_fields_and_calls() {
        demand_vs_matrix(
            "class Obj { }
             class Box { field f: Obj;
               method set(v: Obj) { this.f = v; }
               method get(): Obj { var r: Obj; r = this.f; return r; }
             }
             class A { method m() {
               var b: Box; var x: Obj; var y: Obj;
               b = new Box; x = new Obj;
               call b.set(x);
               y = call b.get();
             } }",
        );
    }

    #[test]
    fn matrix_respects_budget() {
        let src = "class Obj { }
                   class A { method m() {
                     var a: Obj; var b: Obj;
                     a = new Obj; b = a;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let cfg = SolverConfig::default().with_budget(1);
        let mut matrix = MatrixSolver::new(&pag, &cfg);
        let b = pag.node_by_name("b@A.m").unwrap();
        let out = matrix.points_to_query(b);
        assert_eq!(out.answer, Answer::OutOfBudget);
        assert!(out.stats.out_of_budget);
    }

    /// The wave partition/barrier machinery is the single code path for
    /// every worker count, so answers, scan counts, Halt verdicts and
    /// interner contents must match the one-worker run exactly.
    #[test]
    fn parallel_sweeps_bit_identical_across_worker_counts() {
        let src = "class Obj { }
                   class Box { field f: Obj;
                     method set(v: Obj) { this.f = v; }
                     method get(): Obj { var r: Obj; r = this.f; return r; }
                   }
                   class A { method m() {
                     var b: Box; var c: Box; var x: Obj; var y: Obj; var z: Obj;
                     b = new Box; c = b; x = new Obj;
                     call b.set(x);
                     y = call b.get(); z = call c.get();
                   } }";
        let pag = build_pag(src).unwrap().pag;
        for budget in [u64::MAX, 10, 3] {
            let cfg = SolverConfig::default().with_budget(budget);
            let mut base = MatrixSolver::new(&pag, &cfg);
            let baseline: Vec<_> = pag
                .node_ids()
                .filter(|&n| pag.kind(n).is_variable())
                .map(|n| (n, base.points_to_query(n)))
                .collect();
            for w in [2usize, 4, 8] {
                let mut par = MatrixSolver::new(&pag, &cfg).with_workers(w);
                for (n, b) in &baseline {
                    let p = par.points_to_query(*n);
                    assert_eq!(
                        b.answer, p.answer,
                        "workers={w} budget={budget} query {n:?}"
                    );
                    assert_eq!(
                        b.stats.traversed_steps, p.stats.traversed_steps,
                        "workers={w} budget={budget} query {n:?}: scan counts diverge"
                    );
                    assert!(
                        p.stats.span_steps <= p.stats.traversed_steps,
                        "span never exceeds total scans"
                    );
                }
                assert_eq!(
                    base.interner().len(),
                    par.interner().len(),
                    "workers={w}: interned context count diverges"
                );
            }
        }
    }

    /// Packed-adjacency gathers and CSR slice walks are the same relation,
    /// so flipping `cfg.packed` must not move any observable — answers,
    /// scan counts, Halt verdicts, interner contents — at any worker count.
    #[test]
    fn packed_and_csr_scans_bit_identical() {
        let src = "class Obj { }
                   class Box { field f: Obj;
                     method set(v: Obj) { this.f = v; }
                     method get(): Obj { var r: Obj; r = this.f; return r; }
                   }
                   class A { method m() {
                     var b: Box; var c: Box; var x: Obj; var y: Obj; var z: Obj;
                     b = new Box; c = b; x = new Obj;
                     call b.set(x);
                     y = call b.get(); z = call c.get();
                   } }";
        let pag = build_pag(src).unwrap().pag;
        assert!(
            pag.packed().packed_class_count() >= 1,
            "test graph dense enough to pack"
        );
        for budget in [u64::MAX, 10, 3] {
            let csr_cfg = SolverConfig::default()
                .with_budget(budget)
                .with_packed(false);
            let mut csr = MatrixSolver::new(&pag, &csr_cfg);
            let baseline: Vec<_> = pag
                .node_ids()
                .filter(|&n| pag.kind(n).is_variable())
                .map(|n| (n, csr.points_to_query(n)))
                .collect();
            for w in [1usize, 2, 4, 8] {
                let packed_cfg = SolverConfig::default().with_budget(budget);
                let mut packed = MatrixSolver::new(&pag, &packed_cfg).with_workers(w);
                for (n, b) in &baseline {
                    let p = packed.points_to_query(*n);
                    assert_eq!(b.answer, p.answer, "packed w={w} budget={budget} {n:?}");
                    assert_eq!(
                        b.stats.traversed_steps, p.stats.traversed_steps,
                        "packed w={w} budget={budget} {n:?}: scan counts diverge"
                    );
                }
                assert_eq!(csr.interner().len(), packed.interner().len());
            }
        }
    }

    /// A panic inside a fanned-out scan must surface with its original
    /// payload — a proptest or fuzzer failure message, not an opaque
    /// "worker panicked" string.
    #[test]
    fn scoped_worker_panic_payload_is_preserved() {
        let parts = [0..1, 1..2, 2..3];
        let err = std::panic::catch_unwind(|| {
            run_parts(&parts, |p| {
                if p.start == 1 {
                    panic!("scan failed on part {}", p.start);
                }
                p.start
            })
        })
        .expect_err("the worker panic propagates");
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("scan failed on part 1")
        );
        // The inline branch is the closure itself; healthy parts come back
        // in part order with a spawn latency only when threads were used.
        assert_eq!(run_parts(&parts[..1], |p| p.start), (vec![0], None));
        let (outs, spawn_ns) = run_parts(&parts, |p| p.start);
        assert_eq!(outs, vec![0, 1, 2]);
        assert!(spawn_ns.is_some());
    }

    /// The observability layer is observation-only: the attribution
    /// counters are identical at every worker count, attaching recorders
    /// moves no answer observable, and lane 0 captures a ts-monotone
    /// stream of wave spans with per-query-monotone wave ids.
    #[test]
    fn sweep_counters_and_trace_are_observation_only() {
        use parcfl_obs::TraceLevel;
        let src = "class Obj { }
                   class Box { field f: Obj;
                     method set(v: Obj) { this.f = v; }
                     method get(): Obj { var r: Obj; r = this.f; return r; }
                   }
                   class A { method m() {
                     var b: Box; var c: Box; var x: Obj; var y: Obj; var z: Obj;
                     b = new Box; c = b; x = new Obj;
                     call b.set(x);
                     y = call b.get(); z = call c.get();
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let cfg = SolverConfig::default();
        let mut base = MatrixSolver::new(&pag, &cfg);
        let baseline: Vec<_> = pag
            .node_ids()
            .filter(|&n| pag.kind(n).is_variable())
            .map(|n| (n, base.points_to_query(n)))
            .collect();
        let base_hists = base.take_hists();
        assert!(!base_hists.wave_width.is_empty(), "every wave sampled");
        assert!(
            baseline
                .iter()
                .any(|(_, o)| o.stats.sweep_class_steps.iter().sum::<u64>() > 0),
            "sweeps attribute steps to edge classes"
        );
        for w in [2usize, 4] {
            let recs: Vec<TraceRecorder> = (0..w)
                .map(|_| TraceRecorder::external(TraceLevel::Full))
                .collect();
            let mut par = MatrixSolver::new(&pag, &cfg)
                .with_workers(w)
                .with_recorders(&recs, Instant::now());
            for (n, b) in &baseline {
                let p = par.points_to_query(*n);
                assert_eq!(b.answer, p.answer, "traced w={w} query {n:?}");
                assert_eq!(b.stats.traversed_steps, p.stats.traversed_steps);
                assert_eq!(b.stats.packed_gathers, p.stats.packed_gathers);
                assert_eq!(b.stats.csr_fallback_rows, p.stats.csr_fallback_rows);
                assert_eq!(b.stats.sweep_class_steps, p.stats.sweep_class_steps);
            }
            assert_eq!(base.interner().len(), par.interner().len());
            drop(par);
            let lane0 = recs.into_iter().next().unwrap().into_trace(0);
            assert_eq!(lane0.dropped, 0);
            assert!(
                lane0.events.windows(2).all(|p| p[0].ts <= p[1].ts),
                "lane 0 timestamps monotone"
            );
            let starts: Vec<_> = lane0
                .events
                .iter()
                .filter(|e| e.kind == EventKind::WaveStart)
                .collect();
            let ends = lane0
                .events
                .iter()
                .filter(|e| e.kind == EventKind::WaveEnd)
                .count();
            assert!(!starts.is_empty(), "wave spans recorded");
            assert_eq!(starts.len(), ends, "every wave span closed");
            // The outer wave spans restart at id 0 on each query; within
            // the lane the id stream never skips forward.
            let mut prev = 0u32;
            for s in &starts {
                assert!(s.a == 0 || s.a <= prev + 1, "wave ids monotone per query");
                prev = s.a;
            }
        }
    }

    /// Cross-batch memo adoption: the second batch answers bit-identically
    /// to a cold solver, pays fewer scans on warm closures, and adopted
    /// hits never surface as providers (they are not in-batch sharing).
    #[test]
    fn warm_memo_reuse_is_bit_identical_and_cheaper() {
        let src = "class Obj { }
                   class Box { field f: Obj;
                     method set(v: Obj) { this.f = v; }
                     method get(): Obj { var r: Obj; r = this.f; return r; }
                   }
                   class A { method m() {
                     var b: Box; var x: Obj; var y: Obj; var z: Obj;
                     b = new Box; x = new Obj;
                     call b.set(x);
                     y = call b.get(); z = call b.get();
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let cfg = SolverConfig::default().with_footprints();
        let queries: Vec<NodeId> = pag
            .node_ids()
            .filter(|&n| pag.kind(n).is_variable())
            .collect();
        let mut cold = MatrixSolver::new(&pag, &cfg);
        let baseline: Vec<_> = queries.iter().map(|&n| cold.points_to_query(n)).collect();
        let memo = cold.take_memo();
        assert!(memo.entry_count() > 0, "batch left memoised closures");
        assert!(memo.interner().is_some());
        let mut warm = MatrixSolver::new(&pag, &cfg).with_memo(memo);
        for (i, (&n, b)) in queries.iter().zip(&baseline).enumerate() {
            warm.set_query_index(i as u32);
            let w = warm.points_to_query(n);
            assert_eq!(b.answer, w.answer, "warm query {n:?}");
            assert!(
                w.stats.traversed_steps <= b.stats.traversed_steps,
                "warm never scans more than cold ({} vs {})",
                w.stats.traversed_steps,
                b.stats.traversed_steps
            );
            assert!(
                warm.take_providers().is_empty(),
                "adopted hits are not providers"
            );
        }
        assert!(
            queries.iter().zip(&baseline).any(|(&n, b)| {
                warm.points_to_query(n).stats.traversed_steps < b.stats.traversed_steps
            }),
            "at least one warm query is strictly cheaper"
        );
    }

    /// Selective invalidation: a dirty node inside a closure's footprint
    /// drops that closure (and its dependents); disjoint entries stay
    /// warm, and requerying against the pruned memo stays bit-identical.
    #[test]
    fn memo_invalidation_is_selective_and_sound() {
        let src = "class Obj { }
                   class Box { field f: Obj;
                     method set(v: Obj) { this.f = v; }
                     method get(): Obj { var r: Obj; r = this.f; return r; }
                   }
                   class A { method m() {
                     var b: Box; var x: Obj; var y: Obj;
                     b = new Box; x = new Obj;
                     call b.set(x);
                     y = call b.get();
                   }
                   method lone() { var u: Obj; var v: Obj; u = new Obj; v = u; } }";
        let pag = build_pag(src).unwrap().pag;
        let cfg = SolverConfig::default().with_footprints();
        let queries: Vec<NodeId> = pag
            .node_ids()
            .filter(|&n| pag.kind(n).is_variable())
            .collect();
        let mut cold = MatrixSolver::new(&pag, &cfg);
        let baseline: Vec<_> = queries.iter().map(|&n| cold.points_to_query(n)).collect();
        let mut memo = cold.take_memo();
        let total = memo.entry_count() as u64;
        // Dirty a node in `m`'s flow: everything `lone` computed is
        // disjoint and must survive.
        let mut dirty = DirtySet::default();
        dirty.insert_node(pag.node_by_name("y@A.m").unwrap());
        let (invalidated, retained) = memo.invalidate_delta(&dirty);
        assert_eq!(invalidated + retained, total);
        assert!(invalidated > 0, "the dirtied closure is dropped");
        assert!(retained > 0, "disjoint closures stay warm");
        assert_eq!(memo.entry_count() as u64, retained);
        let mut warm = MatrixSolver::new(&pag, &cfg).with_memo(memo);
        for (&n, b) in queries.iter().zip(&baseline) {
            assert_eq!(b.answer, warm.points_to_query(n).answer, "pruned {n:?}");
        }
        // An empty dirty set invalidates nothing; clear() drops the rest.
        let mut memo = warm.take_memo();
        let before = memo.entry_count() as u64;
        assert_eq!(memo.invalidate_delta(&DirtySet::default()), (0, before));
        assert_eq!(memo.clear(), before);
        assert_eq!(memo.entry_count(), 0);
    }

    /// Recording footprints is pure metadata: answers, scan counts and
    /// interner contents match a non-recording run bit-for-bit.
    #[test]
    fn footprint_recording_moves_no_observable() {
        let src = "class Obj { }
                   class Box { field f: Obj;
                     method set(v: Obj) { this.f = v; }
                     method get(): Obj { var r: Obj; r = this.f; return r; }
                   }
                   class A { method m() {
                     var b: Box; var c: Box; var x: Obj; var y: Obj; var z: Obj;
                     b = new Box; c = b; x = new Obj;
                     call b.set(x);
                     y = call b.get(); z = call c.get();
                   } }";
        let pag = build_pag(src).unwrap().pag;
        for budget in [u64::MAX, 10, 3] {
            let plain_cfg = SolverConfig::default().with_budget(budget);
            let rec_cfg = plain_cfg.clone().with_footprints();
            let mut plain = MatrixSolver::new(&pag, &plain_cfg);
            let mut rec = MatrixSolver::new(&pag, &rec_cfg);
            for n in pag.node_ids().filter(|&n| pag.kind(n).is_variable()) {
                let a = plain.points_to_query(n);
                let b = rec.points_to_query(n);
                assert_eq!(a.answer, b.answer, "budget={budget} {n:?}");
                assert_eq!(a.stats.traversed_steps, b.stats.traversed_steps);
            }
            assert_eq!(plain.interner().len(), rec.interner().len());
        }
    }

    #[test]
    fn batch_memo_amortises_shared_flow() {
        let src = "class Obj { }
                   class Box { field f: Obj;
                     method set(v: Obj) { this.f = v; }
                     method get(): Obj { var r: Obj; r = this.f; return r; }
                   }
                   class A { method m() {
                     var b: Box; var x: Obj; var y: Obj; var z: Obj;
                     b = new Box; x = new Obj;
                     call b.set(x);
                     y = call b.get(); z = call b.get();
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let cfg = SolverConfig::default();
        let mut matrix = MatrixSolver::new(&pag, &cfg);
        let y = pag.node_by_name("y@A.m").unwrap();
        let z = pag.node_by_name("z@A.m").unwrap();
        let first = matrix.points_to_query(y);
        let second = matrix.points_to_query(z);
        assert!(first.answer.complete().is_some());
        assert!(second.answer.complete().is_some());
        assert!(
            second.stats.traversed_steps < first.stats.traversed_steps,
            "second query rides the batch memo ({} vs {})",
            second.stats.traversed_steps,
            first.stats.traversed_steps
        );
    }
}
