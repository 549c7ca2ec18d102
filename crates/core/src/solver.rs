//! The demand-driven CFL-reachability solver: Algorithm 1 (`PointsTo`,
//! `FlowsTo`, `ReachableNodes`) with the data-sharing revision of
//! Algorithm 2.
//!
//! A `PointsTo(l, c)` query traverses the PAG *backwards* along value flow
//! with a work list, matching calling contexts as balanced parentheses
//! (grammar (3)) and field accesses via alias tests (grammar (2)):
//!
//! * `new` edges contribute `⟨o, c⟩` to the result;
//! * `assign_l` keeps the context, `assign_g` clears it (globals are
//!   context-insensitive);
//! * `param_i` is taken when the context is empty or its top is `i`
//!   (popping it); `ret_i` pushes `i`;
//! * an incoming load `x ←ld(f)− p` triggers `ReachableNodes(x, c)`, which
//!   for every store `q ←st(f)− y` tests whether `p` and `q` are aliases by
//!   composing `PointsTo(p, c)` with `FlowsTo(o, c′)` — the mutually
//!   recursive calls of Algorithm 1 lines 17–25.
//!
//! `FlowsTo` is the exact dual (forward traversal, `param`/`ret` roles
//! swapped, stores/loads swapped).
//!
//! Cost accounting: every work-list pop is one *step*. Steps are
//! query-local and shared by all nested traversals; exceeding the budget
//! `B` aborts the query (`OutOfBudget`). With data sharing enabled, taking
//! a finished shortcut charges its recorded cost against the budget
//! (Algorithm 2 line 5) without performing the traversal — the gap between
//! *charged* and *traversed* steps is exactly the redundant work the paper's
//! scheme eliminates.
//!
//! ## Interned contexts (DESIGN.md §8)
//!
//! Traversal states are `(NodeId, CtxId)`: contexts are hash-consed into
//! a shared [`CtxInterner`], so push/pop/top are O(1) table operations,
//! state equality/hash are integer ops, and visited/memo/jmp keys are
//! fixed-size tuples — no call-string allocation anywhere in the hot loop.
//! Everything that crosses the query boundary (answers, traces) is
//! materialised back into [`Ctx`]. Because which *numeric* id a call
//! string gets depends on interning order, any internal ordering exposed
//! to the traversal sorts by call string, never by raw id
//! ([`sort_canonical`], a comparison on the interner's trie that
//! materialises nothing) — this keeps traversal order, and with it every
//! charged/traversed step count, identical to a Vec-backed run. Two
//! result sets are iterated in order by a nested call and therefore
//! sorted: `PointsTo`'s `pts` and `ReachableNodes`' `rch`. A `FlowsTo`
//! result is only ever unioned into the `alias` table (or sorted again as
//! an answer), so it stays the set the traversal produced.
//!
//! A nested traversal neither allocates nor takes a shared lock unless it
//! publishes: its result is built in a buffer from the lane's pool and
//! handed back by the caller that iterated it, an `Arc` is made only for a
//! jmp publication or a memo insert, and `ret`/`param` pushes go through a
//! lane-local cache in front of the interner's sharded dedup map.

use crate::config::{SolverConfig, StateBackend};
use crate::context::{sort_canonical, Ctx};
use crate::footprint::{Footprint, FpBuilder};
use crate::jmp::{Dir, JmpEntry, JmpStore, RchSet};
use crate::stats::{Answer, QueryOutput, QueryStats};
use crate::witness::{Trace, Via};
use parcfl_concurrent::{
    CtxId, CtxInterner, DenseVisitSet, FxHashMap, FxHashSet, HashVisitSet, StateSet,
};
use parcfl_obs::{EventKind, TraceRecorder};
use parcfl_pag::{EdgeClass, FieldId, NodeId, Pag};
use std::sync::Arc;

/// A `(node, context)` pair in materialised form — the representation of
/// Algorithm 1 states in answers and traces.
pub type CtxNode = (NodeId, Ctx);

/// An interned traversal state: what the solver actually pushes around.
type IState = (NodeId, CtxId);

/// A lane's push cache has `1 << PUSH_CACHE_BITS` slots. Of the Table-I
/// suite's 5.0 M pushes, 4096 slots serve 98.1 %, 1024 91.4 % and 256
/// 69.0 %; under 0.5 % are first pushes, which no size serves.
const PUSH_CACHE_BITS: u32 = 12;

/// The solver: the analysis inputs every query reads, plus the scratch one
/// worker's queries reuse.
pub struct Solver<'a> {
    pag: &'a Pag,
    cfg: &'a SolverConfig,
    jmp: &'a dyn JmpStore,
    /// The interner giving meaning to every `CtxId` this solver produces.
    /// Taken from the jmp store when it carries one (all solvers sharing a
    /// store must agree on ids); private to this solver otherwise.
    interner: Arc<CtxInterner>,
    /// Per-worker event sink for hot-path instants (jmp hits/inserts, memo
    /// hits, early terminations). `None` keeps the solver entirely free of
    /// recording branches beyond one pointer test per site — the runtime
    /// only attaches a recorder at `TraceLevel::Full`.
    rec: Option<&'a TraceRecorder>,
    /// The state backend is a monomorphisation switch, not a branch in the
    /// hot loop: each backend gets its own fully-specialised traversal
    /// code over its own scratch. Both produce bit-identical outputs.
    scratch: Backend,
}

/// A solver's scratch, typed by the visited-state backend it was
/// configured with.
enum Backend {
    Hash(Scratch<HashVisitSet>),
    Dense(Scratch<DenseVisitSet>),
}

impl<'a> Solver<'a> {
    /// Creates a solver over `pag` with the given configuration and jmp
    /// store (use [`crate::jmp::NoJmpStore`] when sharing is disabled).
    pub fn new(pag: &'a Pag, cfg: &'a SolverConfig, jmp: &'a dyn JmpStore) -> Self {
        let interner = jmp
            .ctx_interner()
            .unwrap_or_else(|| Arc::new(CtxInterner::new()));
        Solver {
            pag,
            cfg,
            jmp,
            interner,
            rec: None,
            scratch: match cfg.state {
                StateBackend::Hash => Backend::Hash(Scratch::default()),
                StateBackend::Dense => Backend::Dense(Scratch::default()),
            },
        }
    }

    /// Attaches a per-worker event recorder: nested-traversal instants
    /// (`JmpHit`, `JmpInsert`, `MemoHit`, `EarlyTermination`) land in it,
    /// timestamped with the query's virtual clock under an external-clock
    /// recorder or wall time under a real one.
    pub fn with_recorder(mut self, rec: &'a TraceRecorder) -> Self {
        self.rec = Some(rec);
        self
    }

    /// The context interner this solver resolves `CtxId`s against.
    pub fn interner(&self) -> &Arc<CtxInterner> {
        &self.interner
    }

    /// Answers `PointsTo(l, ∅)`: the context-sensitive points-to set of
    /// variable `l`. `vtime_base` is the query's virtual start time (0 for
    /// real-thread execution).
    pub fn points_to_query(&mut self, l: NodeId, vtime_base: u64) -> QueryOutput {
        self.run(l, vtime_base, Dir::Bwd, false).0
    }

    /// Answers `FlowsTo(o, ∅)`: the variables object `o` may flow to.
    pub fn flows_to_query(&mut self, o: NodeId, vtime_base: u64) -> QueryOutput {
        self.run(o, vtime_base, Dir::Fwd, false).0
    }

    /// Like [`Solver::points_to_query`], but records the discovery forest
    /// so [`Trace::witness`] can explain *why* each object is in the
    /// answer. Tracing covers the top-level traversal; heap hops appear as
    /// single `alias` steps.
    pub fn traced_points_to_query(&mut self, l: NodeId, vtime_base: u64) -> (QueryOutput, Trace) {
        self.run(l, vtime_base, Dir::Bwd, true)
    }

    fn run(
        &mut self,
        start: NodeId,
        vtime_base: u64,
        dir: Dir,
        traced: bool,
    ) -> (QueryOutput, Trace) {
        // Reject out-of-universe ids before any state is seeded: the
        // traversal would only trip on the first CSR lookup.
        assert!(
            (start.raw() as usize) < self.pag.node_count(),
            "query node {} outside PAG universe of {} nodes",
            start.raw(),
            self.pag.node_count()
        );
        let env = Env {
            pag: self.pag,
            cfg: self.cfg,
            jmp: self.jmp,
            ctxs: &self.interner,
            rec: self.rec,
        };
        match &mut self.scratch {
            Backend::Hash(s) => QueryState::begin(env, s, vtime_base).answer(start, dir, traced),
            Backend::Dense(s) => QueryState::begin(env, s, vtime_base).answer(start, dir, traced),
        }
    }
}

/// A shared result set (jmp or memo hit) copied into a buffer from the
/// `stacks` pool, so every caller iterates and hands back the same thing.
#[inline]
fn pooled_copy(stacks: &mut Vec<Vec<IState>>, set: &[IState]) -> Vec<IState> {
    let mut buf = stacks.pop().unwrap_or_default();
    buf.extend_from_slice(set);
    buf
}

/// Marker error: the query exhausted its budget (Algorithm 1's `exit()`).
#[derive(Debug)]
struct Oob;

/// What a query reads and never writes: the solver's inputs.
#[derive(Copy, Clone)]
struct Env<'a> {
    pag: &'a Pag,
    cfg: &'a SolverConfig,
    jmp: &'a dyn JmpStore,
    ctxs: &'a CtxInterner,
    /// Event sink for hot-path instants (see [`Solver::with_recorder`]).
    rec: Option<&'a TraceRecorder>,
}

/// Everything a query allocates that the next query can use again: one
/// per [`Solver`], so one per worker lane, living as long as the lane. It
/// is **reset at query entry** ([`Scratch::begin_query`]), never rebuilt
/// and never trusted to have been left clean — an out-of-budget exit
/// unwinds through `?` with its frames still recorded here.
///
/// Generic over the visited-state table `S` (hash or paged dense rows, see
/// [`StateBackend`]): the solver is monomorphised per backend, so insert
/// sites compile down to the chosen representation with no dynamic
/// dispatch.
#[derive(Default)]
struct Scratch<S> {
    /// The query generation, bumped at every entry: what the tables'
    /// touched-words accounting is relative to.
    gen: u64,
    /// Visited-state tables between uses, each already reset. Nested
    /// traversals take and return them in stack order, so which table
    /// plays which part in a query does not depend on what the pool held
    /// when the query began.
    pool: Vec<S>,
    /// Work-list stacks and result-set buffers between uses, each already
    /// empty. A nested call builds its result in one and the caller hands
    /// it back once it has iterated it.
    stacks: Vec<Vec<IState>>,
    /// Direct-mapped `(parent << 32 | site, child)` cache in front of
    /// [`CtxInterner::intern`], so a push the lane has made before takes no
    /// shared lock. Allocated by the lane's first push. Never invalidated:
    /// ids are never freed and the solver's interner is fixed at
    /// construction. A slot is vacant while its child is the empty context,
    /// which no push produces.
    push_cache: Vec<(u64, CtxId)>,
    /// The paper's `S`: in-progress `ReachableNodes` frames
    /// `(dir, x, c, s0)`, used by `OutOfBudget` to record unfinished jmps.
    in_progress: Vec<(Dir, NodeId, CtxId, u64)>,
    /// Per-query memoisation of completed nested calls (ad-hoc caching, as
    /// in the baseline [18]).
    memo_pts: FxHashMap<IState, Box<[IState]>>,
    memo_flows: FxHashMap<IState, Box<[IState]>>,
    memo_rch: FxHashMap<(Dir, NodeId, CtxId), RchSet>,
    /// In-flight call detection: identical re-entrant calls would loop
    /// until the budget drained; we reach the same out-of-budget verdict
    /// immediately (see DESIGN.md). One set per call kind — `PointsTo(x,c)`
    /// legitimately invokes `ReachableNodes(x,c)`.
    on_stack_pts: FxHashSet<IState>,
    on_stack_flows: FxHashSet<IState>,
    on_stack_rch: FxHashSet<(Dir, NodeId, CtxId)>,
    /// Reverse-dependency recording (`record_footprints` only, DESIGN.md
    /// §12): one frame per in-flight footprinted computation. Reads are
    /// recorded into the innermost frame; a popped frame folds into its
    /// parent, so a published jmp/memo entry carries the union of its
    /// whole subtree's reads. Empty when recording is off — every record
    /// site is then a single `Vec::last_mut` miss. Recording is pure
    /// metadata: answers, step counts and publication decisions are
    /// bit-identical with it on or off.
    fp_stack: Vec<FpBuilder>,
    /// Footprints of memoised results, keyed in lockstep with the memo
    /// maps (`None` = the recorded computation was poisoned): a memo hit
    /// absorbs the stored footprint exactly as recomputing would have
    /// recorded it.
    memo_pts_fp: FxHashMap<IState, Option<Arc<Footprint>>>,
    memo_flows_fp: FxHashMap<IState, Option<Arc<Footprint>>>,
    memo_rch_fp: FxHashMap<(Dir, NodeId, CtxId), Option<Arc<Footprint>>>,
}

impl<S> Scratch<S> {
    /// Puts the scratch in the state a fresh solver's would be in, keeping
    /// every allocation. The pooled tables and buffers need nothing: they
    /// are reset as they are returned, and one lost to an unwinding panic
    /// never comes back.
    fn begin_query(&mut self) {
        self.gen += 1;
        self.in_progress.clear();
        self.memo_pts.clear();
        self.memo_flows.clear();
        self.memo_rch.clear();
        self.on_stack_pts.clear();
        self.on_stack_flows.clear();
        self.on_stack_rch.clear();
        self.fp_stack.clear();
        self.memo_pts_fp.clear();
        self.memo_flows_fp.clear();
        self.memo_rch_fp.clear();
    }
}

/// One query in flight: its cost accounting, over the solver's inputs and
/// the worker's scratch.
struct QueryState<'a, S: StateSet> {
    pag: &'a Pag,
    cfg: &'a SolverConfig,
    jmp: &'a dyn JmpStore,
    ctxs: &'a CtxInterner,
    rec: Option<&'a TraceRecorder>,
    s: &'a mut Scratch<S>,
    /// Steps charged against the budget (`steps` in the paper).
    steps: u64,
    /// Steps actually traversed (work-list pops performed).
    work: u64,
    vtime_base: u64,
    depth: u32,
    /// `state_words` is kept current as tables come and go: the words the
    /// query's tables have touched ([`StateSet::approx_words`]), summed
    /// over the tables in the pool; a table in use is out of the sum until
    /// [`QueryState::release`]. Every traversal returns its tables before
    /// `?` propagates, so at `finish` it is the query's whole state
    /// footprint.
    stats: QueryStats,
    /// Discovery forest for witness reconstruction; recorded only for the
    /// top-level traversal (depth 1) and only when tracing is requested.
    trace: Option<Trace>,
}

impl<'a, S: StateSet> QueryState<'a, S> {
    /// Opens a query on a reset scratch.
    fn begin(env: Env<'a>, s: &'a mut Scratch<S>, vtime_base: u64) -> Self {
        s.begin_query();
        QueryState {
            pag: env.pag,
            cfg: env.cfg,
            jmp: env.jmp,
            ctxs: env.ctxs,
            rec: env.rec,
            s,
            steps: 0,
            work: 0,
            vtime_base,
            depth: 0,
            stats: QueryStats::default(),
            trace: None,
        }
    }

    /// Runs the top-level traversal from `start` and closes the query.
    /// The returned trace is empty unless `traced`.
    fn answer(mut self, start: NodeId, dir: Dir, traced: bool) -> (QueryOutput, Trace) {
        if traced {
            let mut t = Trace::default();
            let root = (start, Ctx::empty());
            t.parent.insert(root.clone(), (root, Via::Root));
            self.trace = Some(t);
        }
        let result = match dir {
            Dir::Bwd => self.points_to(start, CtxId::EMPTY),
            Dir::Fwd => self.flows_to(start, CtxId::EMPTY),
        };
        let trace = self.trace.take().unwrap_or_default();
        (self.finish(result), trace)
    }

    // ----- footprint recording (record_footprints only) -----

    /// Whether reverse-dependency recording is on.
    #[inline]
    fn fp_on(&self) -> bool {
        self.cfg.record_footprints
    }

    /// Records a consulted node's adjacency into the innermost frame.
    #[inline]
    fn fp_node(&mut self, n: NodeId) {
        if let Some(f) = self.s.fp_stack.last_mut() {
            f.record_node(n);
        }
    }

    /// Records a consulted field index into the innermost frame.
    #[inline]
    fn fp_field(&mut self, f: FieldId) {
        if let Some(b) = self.s.fp_stack.last_mut() {
            b.record_field(f);
        }
    }

    /// Unions a dependency's footprint into the innermost frame (`None`
    /// poisons it — the dependency's read-set is unknown).
    #[inline]
    fn fp_absorb(&mut self, dep: Option<&Footprint>) {
        if let Some(b) = self.s.fp_stack.last_mut() {
            b.absorb(dep);
        }
    }

    /// Opens a recording frame (callers gate on [`Self::fp_on`]).
    fn fp_push_frame(&mut self) {
        self.s.fp_stack.push(FpBuilder::new());
    }

    /// Closes the innermost frame: returns its footprint (for the jmp/memo
    /// entry it guards) and folds its reads — poison included — into the
    /// parent frame.
    fn fp_pop_frame(&mut self) -> Option<Arc<Footprint>> {
        let child = self.s.fp_stack.pop().expect("unbalanced footprint frame");
        let fp = child.clone().finish();
        if let Some(parent) = self.s.fp_stack.last_mut() {
            parent.merge_child(child);
        }
        fp
    }

    /// Takes a (reset) visited-state table from the pool, or creates one.
    #[inline]
    fn acquire(&mut self) -> S {
        let mut set = self.s.pool.pop().unwrap_or_default();
        set.begin_query(self.s.gen);
        // Out of the sum while out of the pool; `release` adds it back
        // with whatever this use touches.
        self.stats.state_words -= set.approx_words();
        set
    }

    /// Returns a table to the pool. Reset happens here (dense tables reset
    /// in O(1) via an epoch bump) so `acquire` hands out ready-to-use
    /// tables.
    #[inline]
    fn release(&mut self, mut set: S) {
        self.stats.state_words += set.approx_words();
        set.reset();
        self.s.pool.push(set);
    }

    /// Takes an empty buffer (work-list stack or result set) from the
    /// scratch, or creates one.
    #[inline]
    fn acquire_stack(&mut self) -> Vec<IState> {
        self.s.stacks.pop().unwrap_or_default()
    }

    /// Returns a buffer: a work-list stack (non-empty after an
    /// out-of-budget exit) or a result set its caller is done with.
    #[inline]
    fn release_stack(&mut self, mut w: Vec<IState>) {
        w.clear();
        self.s.stacks.push(w);
    }

    /// Closes a traversal that built `buf`: the result if it finished, the
    /// buffer back in the pool if it ran out of budget.
    #[inline]
    fn finished(&mut self, r: Result<(), Oob>, buf: Vec<IState>) -> Result<Vec<IState>, Oob> {
        match r {
            Ok(()) => Ok(buf),
            Err(oob) => {
                self.release_stack(buf);
                Err(oob)
            }
        }
    }

    /// The context push of a `ret` (backward) or `param` (forward) edge:
    /// [`CtxInterner::intern`] behind the lane's push cache.
    #[inline]
    fn push_ctx(&mut self, parent: CtxId, site: u32) -> CtxId {
        let cache = &mut self.s.push_cache;
        if cache.is_empty() {
            cache.resize(1 << PUSH_CACHE_BITS, (0, CtxId::EMPTY));
        }
        let key = (parent.raw() as u64) << 32 | site as u64;
        // Fibonacci hashing. (Fx's multiplier spreads these keys — two
        // small integers side by side — badly over its top bits: 84 %.)
        let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let slot = &mut cache[(hash >> (64 - PUSH_CACHE_BITS)) as usize];
        if slot.0 != key || slot.1.is_empty() {
            *slot = (key, self.ctxs.intern(parent, site));
        }
        slot.1
    }

    /// Records a hot-path instant event, timestamped at the query's
    /// virtual now (external-clock recorders keep it; real-clock recorders
    /// stamp wall time instead). One pointer test when tracing is off; the
    /// recording arm is outlined (`#[cold]`) so emit sites stay small
    /// enough not to perturb inlining of the traversal fast paths.
    #[inline(always)]
    fn emit(&self, kind: EventKind, a: u32, b: u32) {
        if self.rec.is_some() {
            self.emit_cold(kind, a, b);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit_cold(&self, kind: EventKind, a: u32, b: u32) {
        if let Some(rec) = self.rec {
            rec.instant(kind, self.now(), a, b);
        }
    }

    /// Materialises an interned context (query-boundary/trace path only).
    #[inline]
    fn mat(&self, c: CtxId) -> Ctx {
        Ctx::materialize(self.ctxs, c)
    }

    /// Closes the query: materialises the result set and closes out the
    /// cost accounting. Frees nothing — the scratch keeps what the query
    /// allocated for the next one.
    fn finish(mut self, result: Result<Vec<IState>, Oob>) -> QueryOutput {
        let answer = match result {
            Ok(set) => {
                let mut v: Vec<CtxNode> = set.iter().map(|&(n, c)| (n, self.mat(c))).collect();
                self.release_stack(set);
                v.sort_unstable();
                v.dedup();
                Answer::Complete(v)
            }
            Err(_oob) => Answer::OutOfBudget,
        };
        self.stats.charged_steps = self.steps;
        self.stats.traversed_steps = self.work;
        let memoised: u64 = (self.s.memo_pts.values())
            .chain(self.s.memo_flows.values())
            .map(|v| v.len() as u64)
            .chain(self.s.memo_rch.values().map(|v| v.len() as u64))
            .sum();
        self.stats.mem_items = self.work + memoised + self.stats.state_words;
        QueryOutput {
            answer,
            stats: self.stats,
        }
    }

    /// Virtual now: queries observe shared entries created at or before
    /// this instant (real traversal work advances it; charged-but-skipped
    /// steps do not).
    #[inline]
    fn now(&self) -> u64 {
        self.vtime_base + self.work
    }

    /// One node traversal (Algorithm 1 lines 5–6).
    #[inline]
    fn tick(&mut self) -> Result<(), Oob> {
        self.steps += 1;
        self.work += 1;
        if self.steps > self.cfg.budget {
            Err(self.out_of_budget(0, false))
        } else {
            Ok(())
        }
    }

    /// Algorithm 2's `OutOfBudget(BDG)`: records an unfinished jmp edge for
    /// every in-progress `ReachableNodes` frame, then aborts the query.
    fn out_of_budget(&mut self, bdg: u64, early: bool) -> Oob {
        self.stats.out_of_budget = true;
        if early {
            self.stats.early_terminated = true;
        }
        if self.cfg.data_sharing {
            for i in 0..self.s.in_progress.len() {
                let (dir, x, c, s0) = self.s.in_progress[i];
                let s_val = self.cfg.budget.min(bdg + (self.steps - s0));
                if s_val >= self.cfg.tau_unfinished
                    && self.jmp.publish_unfinished((dir, x, c), s_val, self.now())
                {
                    self.stats.unfinished_published += 1;
                    self.emit(EventKind::JmpInsert, x.raw(), 0);
                }
            }
            self.s.in_progress.clear();
        }
        Oob
    }

    /// Recursion-depth guard for the mutual recursion; the paper's
    /// algorithm would reach out-of-budget later by re-traversing, so the
    /// guard burns the remaining budget (see [`Self::burn_remaining`]).
    fn enter(&mut self) -> Result<(), Oob> {
        self.depth += 1;
        if self.depth > self.cfg.max_recursion_depth {
            Err(self.burn_remaining())
        } else {
            Ok(())
        }
    }

    /// Models the budget exhaustion Algorithm 1 reaches on re-entrant
    /// (cyclically dependent) computations: a nested call identical to an
    /// in-flight one re-traverses forever, so the paper's analysis burns
    /// whatever budget remains and then exits. We charge that burn to both
    /// the budget and the work clock (it is real traversal time in the
    /// paper's implementation) without actually spinning, then take the
    /// normal OutOfBudget path — which records unfinished jmp edges with
    /// the large `s` values that make early terminations possible for
    /// later queries.
    fn burn_remaining(&mut self) -> Oob {
        let remaining = self.cfg.budget.saturating_sub(self.steps) + 1;
        self.steps += remaining;
        self.work += remaining;
        self.out_of_budget(0, false)
    }

    // ----- POINTSTO -----

    fn points_to(&mut self, l: NodeId, c: CtxId) -> Result<Vec<IState>, Oob> {
        let key = (l, c);
        // Per-call footprint frames are needed only when the result is
        // memoised (a memo hit must replay the computation's reads);
        // without memoisation the reads land directly in the enclosing
        // `ReachableNodes` frame.
        let track = self.fp_on() && self.cfg.memoize;
        if self.cfg.memoize {
            if let Some(r) = self.s.memo_pts.get(&key) {
                let r = pooled_copy(&mut self.s.stacks, r);
                if track {
                    let dep = self.s.memo_pts_fp.get(&key).cloned().flatten();
                    self.fp_absorb(dep.as_deref());
                }
                self.emit(EventKind::MemoHit, l.raw(), 0);
                return Ok(r);
            }
        }
        self.enter()?;
        if !self.s.on_stack_pts.insert(key) {
            return Err(self.burn_remaining());
        }
        if track {
            self.fp_push_frame();
        }
        let out = self.points_to_inner(l, c)?;
        self.s.on_stack_pts.remove(&key);
        self.depth -= 1;
        if self.cfg.memoize {
            if track {
                let fp = self.fp_pop_frame();
                self.s.memo_pts_fp.insert(key, fp);
            }
            self.s.memo_pts.insert(key, out.as_slice().into());
        }
        Ok(out)
    }

    fn points_to_inner(&mut self, l: NodeId, c: CtxId) -> Result<Vec<IState>, Oob> {
        let mut pts_seen = self.acquire();
        let mut visited = self.acquire();
        let mut w = self.acquire_stack();
        let mut pts = self.acquire_stack();
        let r = self.points_to_loop(l, c, &mut pts_seen, &mut visited, &mut w, &mut pts);
        self.release(pts_seen);
        self.release(visited);
        self.release_stack(w);
        let mut pts = self.finished(r, pts)?;
        // Iterated in order by `ReachableNodes`' alias loop.
        sort_canonical(self.ctxs, &mut pts);
        Ok(pts)
    }

    /// The `PointsTo` work loop, dispatching per kind-class sub-slice: one
    /// tight loop per edge class instead of a per-edge `match`. Class order
    /// (new, assign_l, assign_g, param, ret) follows the CSR's kind-major
    /// layout, so pushes happen in storage order.
    fn points_to_loop(
        &mut self,
        l: NodeId,
        c: CtxId,
        pts_seen: &mut S,
        visited: &mut S,
        w: &mut Vec<IState>,
        pts: &mut Vec<IState>,
    ) -> Result<(), Oob> {
        let ctx_sens = self.cfg.context_sensitive;
        let ctxs = self.ctxs;
        let pag = self.pag;
        visited.insert(l.raw(), c);
        w.push((l, c));

        // Tracing is recorded for the outermost traversal only.
        let tracing = self.depth == 1 && self.trace.is_some();
        while let Some((x, cx)) = w.pop() {
            self.tick()?;
            self.fp_node(x);
            for e in pag.incoming_kind(x, EdgeClass::New) {
                if pts_seen.insert(e.src.raw(), cx) {
                    pts.push((e.src, cx));
                    if tracing {
                        let mc = Ctx::materialize(ctxs, cx);
                        if let Some(t) = self.trace.as_mut() {
                            t.object_from
                                .entry((e.src, mc.clone()))
                                .or_insert_with(|| (x, mc));
                        }
                    }
                }
            }
            for e in pag.incoming_kind(x, EdgeClass::AssignLocal) {
                if visited.insert(e.src.raw(), cx) {
                    self.trace_edge(tracing, e, (e.src, cx), (x, cx));
                    w.push((e.src, cx));
                }
            }
            for e in pag.incoming_kind(x, EdgeClass::AssignGlobal) {
                let c2 = if ctx_sens { CtxId::EMPTY } else { cx };
                if visited.insert(e.src.raw(), c2) {
                    self.trace_edge(tracing, e, (e.src, c2), (x, cx));
                    w.push((e.src, c2));
                }
            }
            for e in pag.incoming_kind(x, EdgeClass::Param) {
                let i = e.kind.call_site().expect("param edge");
                let c2 = if !ctx_sens || cx.is_empty() {
                    cx
                } else if ctxs.top(cx) == Some(i.raw()) {
                    ctxs.parent(cx)
                } else {
                    continue;
                };
                if visited.insert(e.src.raw(), c2) {
                    self.trace_edge(tracing, e, (e.src, c2), (x, cx));
                    w.push((e.src, c2));
                }
            }
            for e in pag.incoming_kind(x, EdgeClass::Ret) {
                let i = e.kind.call_site().expect("ret edge");
                let c2 = if ctx_sens {
                    self.push_ctx(cx, i.raw())
                } else {
                    cx
                };
                if visited.insert(e.src.raw(), c2) {
                    self.trace_edge(tracing, e, (e.src, c2), (x, cx));
                    w.push((e.src, c2));
                }
            }
            // A store into `x.f` does not flow into `x` itself: the Store
            // sub-slice is skipped entirely. Loads trigger the alias step.
            if !pag.incoming_kind(x, EdgeClass::Load).is_empty() {
                let rch = self.reachable_nodes(x, cx, Dir::Bwd)?;
                for &(n2, c2) in rch.iter() {
                    if visited.insert(n2.raw(), c2) {
                        if tracing {
                            let parent_key = (n2, Ctx::materialize(ctxs, c2));
                            let from = (x, Ctx::materialize(ctxs, cx));
                            if let Some(t) = self.trace.as_mut() {
                                t.parent.insert(parent_key, (from, Via::Alias));
                            }
                        }
                        w.push((n2, c2));
                    }
                }
                self.release_stack(rch);
            }
        }
        Ok(())
    }

    /// Records a discovery-forest edge when tracing is on (cold path:
    /// tracing only covers the top-level traversal of traced queries).
    fn trace_edge(&mut self, tracing: bool, e: &parcfl_pag::Edge, to: IState, from: IState) {
        if tracing {
            let label = e.kind.label();
            let parent_key = (to.0, Ctx::materialize(self.ctxs, to.1));
            let from = (from.0, Ctx::materialize(self.ctxs, from.1));
            if let Some(t) = self.trace.as_mut() {
                t.parent.insert(parent_key, (from, Via::Edge(label)));
            }
        }
    }

    // ----- FLOWSTO -----

    fn flows_to(&mut self, o: NodeId, c: CtxId) -> Result<Vec<IState>, Oob> {
        let key = (o, c);
        let track = self.fp_on() && self.cfg.memoize;
        if self.cfg.memoize {
            if let Some(r) = self.s.memo_flows.get(&key) {
                let r = pooled_copy(&mut self.s.stacks, r);
                if track {
                    let dep = self.s.memo_flows_fp.get(&key).cloned().flatten();
                    self.fp_absorb(dep.as_deref());
                }
                self.emit(EventKind::MemoHit, o.raw(), 0);
                return Ok(r);
            }
        }
        self.enter()?;
        if !self.s.on_stack_flows.insert(key) {
            return Err(self.burn_remaining());
        }
        if track {
            self.fp_push_frame();
        }
        let out = self.flows_to_inner(o, c)?;
        self.s.on_stack_flows.remove(&key);
        self.depth -= 1;
        if self.cfg.memoize {
            if track {
                let fp = self.fp_pop_frame();
                self.s.memo_flows_fp.insert(key, fp);
            }
            self.s.memo_flows.insert(key, out.as_slice().into());
        }
        Ok(out)
    }

    fn flows_to_inner(&mut self, o: NodeId, c: CtxId) -> Result<Vec<IState>, Oob> {
        let mut visited = self.acquire();
        let mut w = self.acquire_stack();
        // Every state is popped exactly once (pushes are gated by the
        // visited set), so the reached variables are a set as collected.
        // They stay in traversal order: a `FlowsTo` result is unioned into
        // an `alias` table, whose contents and touched-words count do not
        // depend on insertion order ([`StateSet`]), or sorted as an answer
        // by `finish` — nothing iterates it in an order that shows.
        let mut reached = self.acquire_stack();
        let r = self.flows_to_loop(o, c, &mut visited, &mut w, &mut reached);
        self.release(visited);
        self.release_stack(w);
        self.finished(r, reached)
    }

    /// The `FlowsTo` work loop — the forward dual of
    /// [`QueryState::points_to_loop`], again one tight loop per kind-class
    /// sub-slice in storage order.
    fn flows_to_loop(
        &mut self,
        o: NodeId,
        c: CtxId,
        visited: &mut S,
        w: &mut Vec<IState>,
        reached: &mut Vec<IState>,
    ) -> Result<(), Oob> {
        let ctx_sens = self.cfg.context_sensitive;
        let ctxs = self.ctxs;
        let pag = self.pag;
        visited.insert(o.raw(), c);
        w.push((o, c));

        while let Some((n, cn)) = w.pop() {
            self.tick()?;
            self.fp_node(n);
            if pag.kind(n).is_variable() {
                reached.push((n, cn));
            }
            for e in pag.outgoing_kind(n, EdgeClass::New) {
                if visited.insert(e.dst.raw(), cn) {
                    w.push((e.dst, cn));
                }
            }
            for e in pag.outgoing_kind(n, EdgeClass::AssignLocal) {
                if visited.insert(e.dst.raw(), cn) {
                    w.push((e.dst, cn));
                }
            }
            for e in pag.outgoing_kind(n, EdgeClass::AssignGlobal) {
                let c2 = if ctx_sens { CtxId::EMPTY } else { cn };
                if visited.insert(e.dst.raw(), c2) {
                    w.push((e.dst, c2));
                }
            }
            for e in pag.outgoing_kind(n, EdgeClass::Param) {
                let i = e.kind.call_site().expect("param edge");
                let c2 = if ctx_sens {
                    self.push_ctx(cn, i.raw())
                } else {
                    cn
                };
                if visited.insert(e.dst.raw(), c2) {
                    w.push((e.dst, c2));
                }
            }
            for e in pag.outgoing_kind(n, EdgeClass::Ret) {
                let i = e.kind.call_site().expect("ret edge");
                let c2 = if !ctx_sens || cn.is_empty() {
                    cn
                } else if ctxs.top(cn) == Some(i.raw()) {
                    ctxs.parent(cn)
                } else {
                    continue;
                };
                if visited.insert(e.dst.raw(), c2) {
                    w.push((e.dst, c2));
                }
            }
            // A load `y = n.f` does not receive `n` itself: the Load
            // sub-slice is skipped. Stores trigger the alias step.
            if !pag.outgoing_kind(n, EdgeClass::Store).is_empty() {
                let rch = self.reachable_nodes(n, cn, Dir::Fwd)?;
                for &(n2, c2) in rch.iter() {
                    if visited.insert(n2.raw(), c2) {
                        w.push((n2, c2));
                    }
                }
                self.release_stack(rch);
            }
        }
        Ok(())
    }

    // ----- REACHABLENODES (Algorithm 2) -----

    fn reachable_nodes(&mut self, x: NodeId, c: CtxId, dir: Dir) -> Result<Vec<IState>, Oob> {
        let key = (dir, x, c);
        // Fault injection (tests only, see `SolverConfig::chaos_jmp_ignore_ctx`):
        // share jmp entries under a context-blind key, so a finished set
        // recorded at one context is served to every context of `x`.
        let jmp_key = if self.cfg.chaos_jmp_ignore_ctx {
            (dir, x, CtxId::EMPTY)
        } else {
            key
        };
        if self.cfg.memoize {
            if let Some(r) = self.s.memo_rch.get(&key) {
                let r = pooled_copy(&mut self.s.stacks, r);
                if self.fp_on() {
                    let dep = self.s.memo_rch_fp.get(&key).cloned().flatten();
                    self.fp_absorb(dep.as_deref());
                }
                self.emit(EventKind::MemoHit, x.raw(), 0);
                return Ok(r);
            }
        }

        if self.cfg.data_sharing {
            // When recording, the footprint rides along with the entry so
            // a shortcut absorbs the recorded traversal's reads (an entry
            // without one — warm pre-recording state — poisons the frame).
            let hit = if self.fp_on() {
                self.jmp.lookup_fp(&jmp_key, self.now())
            } else {
                self.jmp.lookup(&jmp_key, self.now()).map(|e| (e, None))
            };
            match hit {
                // Algorithm 2 lines 2–3: early termination when the
                // remaining budget cannot cover the recorded lower bound.
                // An unfinished entry with enough budget left falls through
                // to the recomputation below.
                Some((JmpEntry::Unfinished { s, created_at }, _))
                    if self.cfg.budget.saturating_sub(self.steps) < s =>
                {
                    if created_at < self.cfg.warm_floor {
                        self.stats.warm_hits += 1;
                    }
                    self.emit(EventKind::EarlyTermination, x.raw(), 0);
                    return Err(self.out_of_budget(s, true));
                }
                Some((JmpEntry::Unfinished { .. }, _)) => {}
                Some((
                    JmpEntry::Finished {
                        total_steps,
                        rch,
                        created_at,
                    },
                    fp,
                )) => {
                    // Lines 4–8: take the shortcuts. The recorded cost is
                    // charged against the budget (precision argument in
                    // Section III-B2) but not traversed.
                    self.steps += total_steps;
                    self.work += 1;
                    self.stats.shortcuts_taken += 1;
                    self.stats.steps_saved += total_steps;
                    self.emit(
                        EventKind::JmpHit,
                        x.raw(),
                        u32::try_from(total_steps).unwrap_or(u32::MAX),
                    );
                    if created_at < self.cfg.warm_floor {
                        self.stats.warm_hits += 1;
                    }
                    if self.fp_on() {
                        self.fp_absorb(fp.as_deref());
                    }
                    let out = pooled_copy(&mut self.s.stacks, &rch);
                    if self.cfg.memoize {
                        if self.fp_on() {
                            self.s.memo_rch_fp.insert(key, fp);
                        }
                        self.s.memo_rch.insert(key, rch);
                    }
                    return Ok(out);
                }
                None => {}
            }
        }

        // Lines 9–22: compute, tracking the frame for OutOfBudget.
        let s0 = self.steps;
        self.s.in_progress.push((dir, x, c, s0));
        if !self.s.on_stack_rch.insert(key) {
            return Err(self.burn_remaining());
        }
        if self.fp_on() {
            self.fp_push_frame();
        }
        let out = self.reachable_inner(x, c, dir)?;
        self.s.on_stack_rch.remove(&key);
        self.s.in_progress.pop();

        let fp = if self.fp_on() {
            self.fp_pop_frame()
        } else {
            None
        };
        // The set leaves its buffer, as one copy behind an `Arc`, only to
        // be shared: by a publication that clears `τF`, by the memo, or by
        // both.
        let total = self.steps - s0;
        let publish = self.cfg.data_sharing && total >= self.cfg.tau_finished;
        if publish || self.cfg.memoize {
            let rch: RchSet = Arc::new(out.clone());
            if publish
                && self.jmp.publish_finished_fp(
                    jmp_key,
                    total,
                    Arc::clone(&rch),
                    self.now(),
                    fp.clone(),
                )
            {
                self.stats.finished_published += rch.len().max(1) as u64;
                self.emit(EventKind::JmpInsert, x.raw(), 1);
            }
            if self.cfg.memoize {
                if self.fp_on() {
                    self.s.memo_rch_fp.insert(key, fp);
                }
                self.s.memo_rch.insert(key, rch);
            }
        }
        Ok(out)
    }

    /// The alias step of `ReachableNodes(x, c)`. Backward: `x` has incoming
    /// loads `x ←ld(f)− p`; for every store `q ←st(f)− y` with `p alias q`,
    /// `(y, c'')` is reachable. Forward is the dual: `x` has outgoing
    /// stores `q ←st(f)− x`; for every load `y ←ld(f)− p` with `q alias p`,
    /// `(y, c'')` is reachable.
    fn reachable_inner(&mut self, x: NodeId, c: CtxId, dir: Dir) -> Result<Vec<IState>, Oob> {
        let mut alias = self.acquire();
        let mut out = self.acquire_stack();
        let r = self.reachable_loop(x, c, dir, &mut alias, &mut out);
        self.release(alias);
        let mut out = self.finished(r, out)?;
        // Iterated in order by the traversal that asked. Several (load,
        // store) pairs can reach one state; equal states sort together.
        sort_canonical(self.ctxs, &mut out);
        out.dedup();
        Ok(out)
    }

    fn reachable_loop(
        &mut self,
        x: NodeId,
        c: CtxId,
        dir: Dir,
        alias: &mut S,
        out: &mut Vec<IState>,
    ) -> Result<(), Oob> {
        let pag = self.pag;
        self.fp_node(x);
        let accesses = match dir {
            Dir::Bwd => pag.incoming_kind(x, EdgeClass::Load),
            Dir::Fwd => pag.outgoing_kind(x, EdgeClass::Store),
        };
        for e in accesses {
            let f = e.kind.field().expect("field access edge");
            let (base, matches) = match dir {
                Dir::Bwd => (e.src, pag.stores_of(f)),
                Dir::Fwd => (e.dst, pag.loads_of(f)),
            };
            // The field index is consulted before the emptiness gate, so
            // record it before — a store added to a today-empty field must
            // invalidate this traversal.
            self.fp_field(f);
            if matches.is_empty() {
                continue;
            }
            // alias = ∪ FlowsTo(o, c') for (o, c') ∈ PointsTo(base, c).
            // Contexts per node are a set: interned ids dedup the repeats
            // that distinct objects with overlapping flows-to sets produce,
            // so the match loop below never re-inserts.
            alias.reset();
            let pts = self.points_to(base, c)?;
            let r = pts.iter().try_for_each(|&(o, c0)| {
                let ft = self.flows_to(o, c0)?;
                for &(q, c2) in ft.iter() {
                    alias.insert(q.raw(), c2);
                }
                self.release_stack(ft);
                Ok(())
            });
            self.release_stack(pts);
            r?;
            for &(q, y) in matches {
                alias.for_ctxs(q.raw(), |c2| {
                    out.push((y, c2));
                });
            }
        }
        Ok(())
    }
}
