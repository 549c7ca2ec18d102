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
//! swapped, stores/loads swapped), and the code says so once: the first
//! three rules are the rows of `PRODUCTIONS`, one column per [`Dir`], the
//! fourth is `HEAP_ACCESS`, and one work loop, one nested-call wrapper and
//! one `ReachableNodes` read their direction's column. What differs is the
//! answer: backward the objects behind `new` edges, forward every variable
//! reached.
//!
//! Cost accounting: every work-list pop is one *step*. Steps are
//! query-local and shared by all nested traversals; exceeding the budget
//! `B` aborts the query (`OutOfBudget`). With data sharing enabled, taking
//! a finished shortcut charges its recorded cost against the budget
//! (Algorithm 2 line 5) without performing the traversal — the gap between
//! *charged* and *traversed* steps is exactly the redundant work the paper's
//! scheme eliminates. Nothing else is remembered within a query: a nested
//! call made twice is traversed twice (DESIGN.md §7). A query that runs out
//! leaves its start in the store's [`ExhaustedStarts`], and a later walk
//! that pops that start at the empty context stops there: it would pop
//! everything the exhausted walk did.
//!
//! Walks pop depth-first, except one: a query's own outermost walk pops
//! breadth-first once the store holds an exhausted start, so it reaches
//! the start nearest in hops first. Nested walks build sets that the pop
//! order does not change, and a run without a store has no start to
//! reach, so both keep the cheaper stack. The order is chosen once per
//! walk: the work loop is compiled per pop order as it is per direction.
//!
//! ## Interned contexts (DESIGN.md §8)
//!
//! Traversal states are `(NodeId, CtxId)`: contexts are hash-consed into
//! a shared [`CtxInterner`], so push/pop/top are O(1) table operations,
//! state equality/hash are integer ops, and visited/jmp keys are
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
//! jmp publication, and `ret`/`param` pushes go through a lane-local cache
//! in front of the interner's sharded dedup map. A jmp hit reads the
//! shared map once per key and lane: repeats are served from the lane's
//! copy of the entries it has been served (DESIGN.md §7).

use crate::config::{SolverConfig, StateBackend};
use crate::context::{sort_canonical, Ctx};
use crate::footprint::{Footprint, ReadLog};
use crate::jmp::{Dir, ExhaustedStarts, JmpEntry, JmpKey, JmpLookup, JmpStore, RchSet};
use crate::stats::{Answer, AnswerSet, QueryOutput, QueryStats};
use crate::witness::{Trace, Via};
use parcfl_concurrent::{
    CtxId, CtxInterner, CtxMirror, DenseVisitSet, FxHashMap, HashVisitSet, StateSet,
};
use parcfl_pag::{CallSiteId, ClassSlices, Edge, EdgeClass, NodeId, Pag};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// A `(node, context)` pair in materialised form — the representation of
/// Algorithm 1 states in answers and traces.
pub type CtxNode = (NodeId, Ctx);

/// An interned traversal state: what the solver actually pushes around.
type IState = (NodeId, CtxId);

/// What crossing a direct edge does to the traversal state.
#[derive(Copy, Clone)]
enum Action {
    /// The far end is an object of the answer; nothing is pushed.
    Collect,
    /// The context crosses unchanged.
    Keep,
    /// The context is cleared: globals are context-insensitive.
    Clear,
    /// Leaves a callee: taken when the context is empty or its top is the
    /// edge's call site, which is popped. The edges of the top's site are
    /// found by the PAG's by-site index, not by scanning the class.
    Pop,
    /// Enters a callee: the edge's call site is pushed.
    Push,
}

/// Grammars (2) + (3) as a table: the five direct edge classes, in the
/// CSR's kind-major order so a traversal pushes in storage order, each
/// with what crossing it does per direction — `[Bwd, Fwd]`, the column is
/// `dir as usize`. `L_pt` and `L_ft` are one another's reverse, so the
/// columns differ where an edge has a direction-dependent reading: a `new`
/// edge ends a backward path and starts a forward one, and `param` /
/// `ret` swap which of them enters the callee. (`Pop` is read off the
/// PAG's by-site indexes, which are of exactly these two cells: `param`
/// into a node, `ret` out of it.)
const PRODUCTIONS: [(EdgeClass, [Action; 2]); 5] = [
    (EdgeClass::New, [Action::Collect, Action::Keep]),
    (EdgeClass::AssignLocal, [Action::Keep, Action::Keep]),
    (EdgeClass::AssignGlobal, [Action::Clear, Action::Clear]),
    (EdgeClass::Param, [Action::Pop, Action::Push]),
    (EdgeClass::Ret, [Action::Push, Action::Pop]),
];

/// The heap access that triggers the alias step, per direction: a value
/// arrives at `x` backward through a load into it, and leaves `x` forward
/// through a store of it. The opposite class is skipped — a store into
/// `x.f` does not flow into `x`, a load `y = x.f` does not receive `x`.
const HEAP_ACCESS: [EdgeClass; 2] = [EdgeClass::Load, EdgeClass::Store];

/// The edges a traversal in direction `dir` crosses at `n`, by class.
#[inline(always)]
fn edges_at(pag: &Pag, dir: Dir, n: NodeId) -> ClassSlices<'_> {
    match dir {
        Dir::Bwd => pag.incoming_classes(n),
        Dir::Fwd => pag.outgoing_classes(n),
    }
}

/// The end of `e` a traversal in direction `dir` arrives at.
#[inline(always)]
fn far_end(dir: Dir, e: &Edge) -> NodeId {
    match dir {
        Dir::Bwd => e.src,
        Dir::Fwd => e.dst,
    }
}

/// A lane's push cache has `1 << PUSH_CACHE_BITS` slots. Of the Table-I
/// suite's 5.0 M pushes, 4096 slots serve 98.1 %, 1024 91.4 % and 256
/// 69.0 %; under 0.5 % are first pushes, which no size serves.
const PUSH_CACHE_BITS: u32 = 12;

/// The most `PointsTo` / `FlowsTo` frames a query may have open at once:
/// the recursion nests on the native stack, one level per field load it
/// resolves, and worker threads are sized for this (DESIGN.md §7).
pub(crate) const MAX_RECURSION_DEPTH: u32 = 512;

/// The solver: the analysis inputs every query reads, plus the scratch one
/// worker's queries reuse.
pub struct Solver<'a> {
    pag: &'a Pag,
    cfg: &'a SolverConfig,
    /// The jmp store, when there is one to share through: whether the
    /// data-sharing scheme (Algorithm 2) is active is decided by the store
    /// handed to [`Solver::new`], once, there.
    jmp: Option<&'a dyn JmpStore>,
    /// The store's exhausted query starts, when there is a store.
    starts: Option<&'a ExhaustedStarts>,
    /// The interner giving meaning to every `CtxId` this solver produces.
    /// Taken from the jmp store when it carries one (all solvers sharing a
    /// store must agree on ids); private to this solver otherwise.
    interner: Arc<CtxInterner>,
    /// Batch accounting boundary (see [`Solver::in_batch`]).
    warm_before: u64,
    /// The least instant a jmp lookup is made at (see [`Solver::in_batch`]):
    /// `u64::MAX` sees every entry, 0 leaves it to the query's own clock.
    horizon: u64,
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
    /// store. The store *is* the sharing decision: one that carries an
    /// interner ([`crate::SharedJmpStore`]) is read and published to as
    /// Algorithm 2 says; one that carries none ([`crate::NoJmpStore`]) is
    /// never called, which is `SeqCFL` and the naive parallel mode.
    pub fn new(pag: &'a Pag, cfg: &'a SolverConfig, jmp: &'a dyn JmpStore) -> Self {
        let shared = jmp.ctx_interner();
        let jmp = shared.is_some().then_some(jmp);
        Solver {
            pag,
            cfg,
            jmp,
            starts: jmp.and_then(|j| j.exhausted_starts()),
            interner: shared.unwrap_or_else(|| Arc::new(CtxInterner::new())),
            warm_before: 0,
            horizon: u64::MAX,
            scratch: match cfg.state {
                StateBackend::Hash => Backend::Hash(Scratch::default()),
                StateBackend::Dense => Backend::Dense(Scratch::default()),
            },
        }
    }

    /// Seats the solver in a batch that began at virtual instant `base`,
    /// on a lane that reads the `virtual_clock` or does not.
    ///
    /// `base` is the accounting boundary: a jmp-store hit on an entry
    /// created *before* it counts as a warm (cross-batch) hit in
    /// [`crate::QueryStats::warm_hits`]. At 0 (the default) every entry is
    /// same-batch and nothing counts as warm. Pure accounting.
    ///
    /// `virtual_clock` is what a lookup sees. On it — the simulator's
    /// lanes — a query sees the entries stamped at or before its own
    /// virtual now, `vtime_base` plus the steps it has traversed: what a
    /// truly concurrent thread could have seen. Off it (the default, and
    /// every real thread) a query sees every entry whatever its stamp;
    /// looking up at its own now instead would hide the entries its peers
    /// publish further into their queries than it is into its own. Either
    /// way a publication is stamped with the publisher's virtual now.
    pub fn in_batch(mut self, base: u64, virtual_clock: bool) -> Self {
        self.warm_before = base;
        self.horizon = if virtual_clock { 0 } else { u64::MAX };
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
            starts: self.starts,
            ctxs: &self.interner,
            warm_before: self.warm_before,
            horizon: self.horizon,
        };
        match &mut self.scratch {
            Backend::Hash(s) => QueryState::begin(env, s, vtime_base).answer(start, dir, traced),
            Backend::Dense(s) => QueryState::begin(env, s, vtime_base).answer(start, dir, traced),
        }
    }
}

/// The lane's one materialised copy of `c`, made on first use (DESIGN.md
/// §8): every answer and trace of the lane that holds `c` shares it.
fn materialised(table: &mut FxHashMap<CtxId, Ctx>, ctxs: &CtxInterner, c: CtxId) -> Ctx {
    (table.entry(c))
        .or_insert_with(|| Ctx::materialize(ctxs, c))
        .clone()
}

/// A digest of a result set's states that does not depend on their order:
/// a forward set is in the order it was found. Equal sets of states, and
/// so equal answers, digest equal; unequal ones rarely do, and then only
/// miss the sharing.
fn digest(set: &[IState]) -> u64 {
    let mix = |&(n, c): &IState| {
        let x = (n.raw() as u64) << 32 | c.raw() as u64;
        let z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^ z >> 32
    };
    set.iter().map(mix).fold(0, u64::wrapping_add)
}

/// Marker error: the query exhausted its budget (Algorithm 1's `exit()`).
#[derive(Debug)]
struct Oob;

/// Why a query runs out of budget, which decides the evidence it leaves.
#[derive(Copy, Clone)]
enum Exit {
    /// A pop past the budget.
    Exhausted,
    /// A re-entry or the depth guard burned what was left.
    Burned,
    /// An unfinished jmp entry with bound `s` (Algorithm 2 lines 2–3).
    Unfinished(u64),
    /// A walk popped an exhausted query's start, recorded with bound `s`.
    ExhaustedStart(u64),
}

/// Which of the mutually recursive computations a nested call is: a
/// traversal (`PointsTo` backward, `FlowsTo` forward) or the
/// `ReachableNodes` step one makes at a heap access.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Call {
    Traverse,
    Reachable,
}

/// One open nested call: `call` in direction `dir` on `(x, c)`, opened
/// when the query had charged `s0` steps. The `Reachable` frames are the
/// paper's `S`, Algorithm 2's in-progress `(x, c, s₀)`.
#[derive(Copy, Clone)]
struct Frame {
    call: Call,
    dir: Dir,
    x: NodeId,
    c: CtxId,
    s0: u64,
}

/// One traversal's working state, out of the lane's pools for as long as
/// the traversal runs.
struct Walk<S> {
    /// The objects the answer holds so far (backward only).
    collected: Option<Box<S>>,
    visited: Box<S>,
    /// The work list. A breadth-first walk pops it from the front and
    /// never shortens it: `head` states of it are popped.
    w: Vec<IState>,
    head: usize,
    /// The answer, in the order it was found.
    out: Vec<IState>,
    /// Whether this traversal records the query's discovery forest.
    tracing: bool,
}

impl<S> Walk<S> {
    /// The next state to pop, if any: the newest, or with `FIFO` the
    /// oldest not yet popped.
    #[inline(always)]
    fn pop<const FIFO: bool>(&mut self) -> Option<IState> {
        if FIFO {
            let next = self.w.get(self.head).copied();
            self.head += 1;
            next
        } else {
            self.w.pop()
        }
    }
}

/// What a query reads and never writes: the solver's inputs.
#[derive(Copy, Clone)]
struct Env<'a> {
    pag: &'a Pag,
    cfg: &'a SolverConfig,
    jmp: Option<&'a dyn JmpStore>,
    starts: Option<&'a ExhaustedStarts>,
    ctxs: &'a CtxInterner,
    warm_before: u64,
    horizon: u64,
}

/// Everything a query allocates that the next query can use again: one
/// per [`Solver`], so one per worker lane, living as long as the lane. It
/// is **reset at query entry** ([`QueryState::begin`]), never rebuilt
/// and never trusted to have been left clean — an out-of-budget exit
/// unwinds through `?` with its frames still recorded here. `S` is the
/// visited-state table (hash or paged dense rows, see [`StateBackend`]).
#[derive(Default)]
struct Scratch<S> {
    /// The query generation, bumped at every entry: what the tables'
    /// touched-words accounting is relative to.
    gen: u64,
    /// Visited-state tables between uses, each already reset. Nested
    /// traversals take and return them in stack order, so which table
    /// plays which part in a query does not depend on what the pool held
    /// when the query began.
    pool: Vec<Box<S>>,
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
    /// The lane's copy of the interner slots it has resolved (DESIGN.md
    /// §8): what the pops and the canonical sorts read. Never invalidated,
    /// for the push cache's reasons.
    mirror: CtxMirror,
    /// The lane's copy of every jmp entry the store has served it, under
    /// the key it asked for (DESIGN.md §7): a repeat hit reads this, not
    /// the shared map, and takes no lock and writes no shared line. Exact
    /// for as long as the store's epoch reads `jmp_epoch`: a stored entry
    /// never changes, and it leaves only through a removal, which moves
    /// the epoch. An entry's footprint is copied in behind an `Arc` of the
    /// lane's own, so absorbing it on a hit writes only the lane's count.
    jmp_seen: FxHashMap<JmpKey, JmpLookup>,
    /// The store epoch `jmp_seen` was filled under.
    jmp_epoch: u64,
    /// Every call string the lane has put in an answer or a trace, by id
    /// (DESIGN.md §8): each is materialised once and shared by every
    /// answer that holds it. Never invalidated, for the push cache's
    /// reasons.
    materialised: FxHashMap<CtxId, Ctx>,
    /// The answer being closed, sorted and deduplicated here before it is
    /// looked up in `answers`. Empty between queries.
    answer: Vec<CtxNode>,
    /// The answer sets the lane has closed, under the [`digest`] of their
    /// states (DESIGN.md §8): an answer equal to the set under its digest
    /// is handed out as that set, and any other is moved into an
    /// allocation of its own, at its exact length, which then takes the
    /// digest's place. Never invalidated: a set is immutable. A batch
    /// builds its lanes' solvers, so it holds its own sets for the batch
    /// only.
    answers: FxHashMap<u64, AnswerSet>,
    /// The query's open calls, outermost first (see [`QueryState::open`]):
    /// what re-entry and the depth bound are checked against, and what
    /// `OutOfBudget` publishes unfinished jmps and the exhausted start for.
    frames: Vec<Frame>,
    /// Reverse-dependency recording (`record_footprints` only, DESIGN.md
    /// §12): the query's reads in order. Each open `ReachableNodes` call
    /// holds the mark where its reads begin, so a published jmp entry
    /// carries its whole subtree's reads and a completed query everything
    /// it read. With recording off every record site is one predictable
    /// branch. Recording is pure metadata: answers, step counts and
    /// publication decisions are bit-identical with it on or off.
    reads: ReadLog,
}

/// One query in flight: its cost accounting, over the solver's inputs and
/// the worker's scratch.
struct QueryState<'a, S: StateSet> {
    pag: &'a Pag,
    cfg: &'a SolverConfig,
    jmp: Option<&'a dyn JmpStore>,
    starts: Option<&'a ExhaustedStarts>,
    ctxs: &'a CtxInterner,
    warm_before: u64,
    horizon: u64,
    s: &'a mut Scratch<S>,
    /// Steps charged against the budget (`steps` in the paper).
    steps: u64,
    /// Steps actually traversed (work-list pops performed).
    work: u64,
    vtime_base: u64,
    /// `state_words` is kept current as tables come and go: the words the
    /// query's tables have touched ([`StateSet::approx_words`]), summed
    /// over the tables in the pool; a table in use is out of the sum until
    /// [`QueryState::release`]. Every traversal returns its tables before
    /// `?` propagates, so at `finish` it is the query's whole state
    /// footprint.
    stats: QueryStats,
    /// Discovery forest for witness reconstruction; recorded only for the
    /// top-level traversal (the only open frame) and only when tracing is
    /// requested.
    trace: Option<Trace>,
}

impl<'a, S: StateSet> QueryState<'a, S> {
    /// Opens a query, putting the scratch in the state a fresh solver's
    /// would be in and keeping every allocation. The pooled tables and
    /// buffers need nothing: they are reset as they are returned, and one
    /// lost to an unwinding panic never comes back.
    fn begin(env: Env<'a>, s: &'a mut Scratch<S>, vtime_base: u64) -> Self {
        s.gen += 1;
        s.frames.clear();
        s.reads.begin(env.cfg.record_footprints);
        if let Some(jmp) = env.jmp {
            let epoch = jmp.epoch();
            if epoch != s.jmp_epoch {
                s.jmp_seen.clear();
                s.jmp_epoch = epoch;
            }
        }
        QueryState {
            pag: env.pag,
            cfg: env.cfg,
            jmp: env.jmp,
            starts: env.starts,
            ctxs: env.ctxs,
            warm_before: env.warm_before,
            horizon: env.horizon,
            s,
            steps: 0,
            work: 0,
            vtime_base,
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
        let result = self.traverse(start, CtxId::EMPTY, dir);
        let trace = self.trace.take().unwrap_or_default();
        (self.finish(result), trace)
    }

    /// Takes a (reset) visited-state table from the pool, or creates one.
    #[inline]
    fn acquire(&mut self) -> Box<S> {
        let mut set = self.s.pool.pop().unwrap_or_default();
        set.begin_query(self.s.gen);
        // Out of the sum while out of the pool; `release` adds it back
        // with whatever this use touches.
        self.stats.state_words -= set.approx_words();
        set
    }

    /// Returns a table to the pool. Reset happens here (a dense table
    /// truncates its rows) so `acquire` hands out ready-to-use tables.
    /// Tables travel boxed: a move is a pointer, not the table.
    #[inline]
    fn release(&mut self, mut set: Box<S>) {
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

    /// Closes the query: materialises the result set and closes out the
    /// cost accounting. Frees nothing — the scratch keeps what the query
    /// allocated for the next one.
    fn finish(mut self, result: Result<Vec<IState>, Oob>) -> QueryOutput {
        let (answer, footprint) = match result {
            Ok(set) => {
                let (ctxs, s) = (self.ctxs, &mut *self.s);
                let mat = |&(n, c): &IState| (n, materialised(&mut s.materialised, ctxs, c));
                s.answer.extend(set.iter().map(mat));
                s.answer.sort_unstable();
                s.answer.dedup();
                // Equal contexts of one lane are one allocation, so the
                // comparison of a hit reads no call string.
                let key = digest(&set);
                let closed = match s.answers.get(&key) {
                    Some(closed) if closed[..] == s.answer[..] => {
                        s.answer.clear();
                        closed.clone()
                    }
                    _ => {
                        let closed: AnswerSet = s.answer.drain(..).collect();
                        s.answers.insert(key, closed.clone());
                        closed
                    }
                };
                let answer = Answer::Complete(closed);
                self.release_stack(set);
                (answer, self.s.reads.finish())
            }
            // Whether a query runs out of budget depends on what the store
            // held when it ran: nothing vouches for the verdict.
            Err(_oob) => (Answer::OutOfBudget, None),
        };
        self.stats.charged_steps = self.steps;
        self.stats.traversed_steps = self.work;
        self.stats.mem_items = self.work + self.stats.state_words;
        QueryOutput {
            answer,
            stats: self.stats,
            footprint,
        }
    }

    /// Virtual now: what the query stamps its publications with, and on
    /// the virtual clock the instant its lookups are made at (real
    /// traversal work advances it; charged-but-skipped steps do not).
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
            Err(self.out_of_budget(Exit::Exhausted))
        } else {
            Ok(())
        }
    }

    /// Ends the walk popping `(x, ∅)` in `dir` when a query on `x` has
    /// run out of a budget at least this query's (DESIGN.md §7): this walk
    /// pops every state that one did, at the same charge. Called when the
    /// start's bit is set, which is rare: out of line.
    #[cold]
    fn stop_at_start(&mut self, dir: Dir, x: NodeId) -> Result<(), Oob> {
        let Some((s, created_at)) = self.starts.and_then(|st| st.get(dir, x)) else {
            return Ok(());
        };
        if self.cfg.budget >= s || created_at > self.now().max(self.horizon) {
            return Ok(());
        }
        if created_at < self.warm_before {
            self.stats.warm_hits += 1;
        }
        Err(self.out_of_budget(Exit::ExhaustedStart(s)))
    }

    /// Algorithm 2's `OutOfBudget(BDG)`: records an unfinished jmp edge for
    /// every open `ReachableNodes` frame, outermost first, then aborts the
    /// query. A pop past the budget, and an exhausted start, also record
    /// the query's own start: its walk is shown to cost more than `B`.
    /// A burn shows nothing of the kind (a re-entry depends on the frames
    /// around the walk), and neither does an unfinished entry, whose bound
    /// was measured from another frame.
    fn out_of_budget(&mut self, exit: Exit) -> Oob {
        let (bdg, early) = match exit {
            Exit::Exhausted | Exit::Burned => (0, false),
            Exit::Unfinished(s) | Exit::ExhaustedStart(s) => (s, true),
        };
        self.stats.early_terminated = early;
        if let Some(jmp) = self.jmp {
            let now = self.now();
            for f in self.s.frames.iter().filter(|f| f.call == Call::Reachable) {
                let s_val = self.cfg.budget.min(bdg.saturating_add(self.steps - f.s0));
                if s_val >= self.cfg.tau_unfinished
                    && jmp.publish_unfinished((f.dir, f.x, f.c), s_val, now)
                {
                    self.stats.unfinished_published += 1;
                }
            }
        }
        if let (Exit::Exhausted | Exit::ExhaustedStart(_), Some(starts)) = (exit, self.starts) {
            let (top, s) = (self.s.frames[0], self.cfg.budget.saturating_add(1));
            starts.record(top.dir, top.x, s, self.now());
        }
        Oob
    }

    /// Opens a nested call, pushing its frame, after one scan of the open
    /// ones. A frame already open on the same `(call, dir, x, c)` — the
    /// call kind tells `PointsTo(x, c)` from the `ReachableNodes(x, c)` it
    /// invokes — is a re-entry, which Algorithm 1 re-traverses until the
    /// budget is gone; so is, in effect, a traversal past
    /// [`MAX_RECURSION_DEPTH`]. Either burns the remaining budget at once,
    /// charged to both clocks (it is real traversal time in the paper's
    /// implementation), and takes the normal `OutOfBudget` path, whose
    /// large `s` values let later queries terminate early.
    #[inline]
    fn open(&mut self, call: Call, dir: Dir, x: NodeId, c: CtxId) -> Result<(), Oob> {
        let mut traversals = (call == Call::Traverse) as u32;
        let mut reentry = false;
        for f in &self.s.frames {
            reentry |= f.call == call && f.dir == dir && f.x == x && f.c == c;
            traversals += (f.call == Call::Traverse) as u32;
        }
        if reentry || traversals > MAX_RECURSION_DEPTH {
            let remaining = self.cfg.budget.saturating_sub(self.steps) + 1;
            self.steps += remaining;
            self.work += remaining;
            return Err(self.out_of_budget(Exit::Burned));
        }
        let s0 = self.steps;
        self.s.frames.push(Frame {
            call,
            dir,
            x,
            c,
            s0,
        });
        Ok(())
    }

    // ----- POINTSTO / FLOWSTO -----

    /// `PointsTo(x, c)` (backward) or `FlowsTo(x, c)` (forward) as a
    /// nested call.
    fn traverse(&mut self, x: NodeId, c: CtxId, dir: Dir) -> Result<Vec<IState>, Oob> {
        self.open(Call::Traverse, dir, x, c)?;
        let out = self.traverse_inner(x, c, dir)?;
        self.s.frames.pop();
        Ok(out)
    }

    fn traverse_inner(&mut self, x: NodeId, c: CtxId, dir: Dir) -> Result<Vec<IState>, Oob> {
        let mut t = Walk {
            // Backward, the objects collected over `new` edges need a table
            // of their own to be a set. Forward, every state is popped
            // exactly once (pushes are gated by `visited`), so the
            // variables collected at the pops already are one.
            collected: (dir == Dir::Bwd).then(|| self.acquire()),
            visited: self.acquire(),
            w: self.acquire_stack(),
            head: 0,
            out: self.acquire_stack(),
            // Recorded for the outermost traversal only, and only
            // `traced_points_to_query` asks for it.
            tracing: self.s.frames.len() == 1 && self.trace.is_some(),
        };
        // The query's own walk goes breadth-first once the store holds an
        // exhausted start, so that it pops the one nearest in hops first
        // (DESIGN.md §7). Every other walk stays depth-first, which costs
        // less per pop and has no start to reach sooner.
        let fifo = self.s.frames.len() == 1 && self.starts.is_some_and(|st| !st.is_empty());
        let r = match (dir, fifo) {
            (Dir::Bwd, false) => self.work_loop::<false, false>(x, c, &mut t),
            (Dir::Bwd, true) => self.work_loop::<false, true>(x, c, &mut t),
            (Dir::Fwd, false) => self.work_loop::<true, false>(x, c, &mut t),
            (Dir::Fwd, true) => self.work_loop::<true, true>(x, c, &mut t),
        };
        if let Some(set) = t.collected {
            self.release(set);
        }
        self.release(t.visited);
        self.release_stack(t.w);
        let mut out = self.finished(r, t.out)?;
        // A `PointsTo` set is iterated in order by `ReachableNodes`' alias
        // loop. A `FlowsTo` set stays in traversal order: it is unioned
        // into an `alias` table, whose contents and touched-words count do
        // not depend on insertion order ([`StateSet`]), or sorted as an
        // answer by `finish` — nothing iterates it in an order that shows.
        if dir == Dir::Bwd {
            self.sort(&mut out);
        }
        Ok(out)
    }

    /// Puts a result set into the canonical order, resolving contexts
    /// through the lane's mirror.
    #[inline]
    fn sort(&mut self, v: &mut [IState]) {
        let (ctxs, mirror) = (self.ctxs, &mut self.s.mirror);
        sort_canonical(v, |a, b| mirror.cmp_stacks(ctxs, a, b));
    }

    /// The work loop of both traversals, compiled once per direction and
    /// pop order: depth-first pops the newest state, breadth-first
    /// (`FIFO`) the oldest.
    fn work_loop<const FWD: bool, const FIFO: bool>(
        &mut self,
        start: NodeId,
        c: CtxId,
        t: &mut Walk<S>,
    ) -> Result<(), Oob> {
        let dir = if FWD { Dir::Fwd } else { Dir::Bwd };
        t.visited.insert(start.raw(), c);
        t.w.push((start, c));
        while let Some((x, cx)) = t.pop::<FIFO>() {
            self.tick()?;
            if cx.is_empty() && self.starts.is_some_and(|st| st.may_hold(dir, x)) {
                self.stop_at_start(dir, x)?;
            }
            self.s.reads.node(x);
            if FWD && self.pag.is_variable(x) {
                t.out.push((x, cx));
            }
            let edges = edges_at(self.pag, dir, x);
            // One call per row of `PRODUCTIONS`, each compiled for its row.
            self.cross::<FWD, 0>((x, cx), edges, t);
            self.cross::<FWD, 1>((x, cx), edges, t);
            self.cross::<FWD, 2>((x, cx), edges, t);
            self.cross::<FWD, 3>((x, cx), edges, t);
            self.cross::<FWD, 4>((x, cx), edges, t);
            if !edges.of(HEAP_ACCESS[dir as usize]).is_empty() {
                let rch = self.reachable_nodes(x, cx, dir)?;
                for &to in rch.iter() {
                    self.visit(t, to, (x, cx), None);
                }
                self.release_stack(rch);
            }
        }
        Ok(())
    }

    /// Crosses the edges of [`PRODUCTIONS`]' row `ROW` at `(x, cx)`. The
    /// direction and the row are compile-time constants, so which adjacency
    /// is read, which end of an edge is the far one and what the action
    /// does are too: one tight loop per kind-class sub-slice, pushes in
    /// storage order, no per-edge dispatch. (A loop over the table is not
    /// unrolled, its body holding loops, and dispatching on the action once
    /// per class and pop measured a quarter slower per step.)
    #[inline(always)]
    fn cross<const FWD: bool, const ROW: usize>(
        &mut self,
        (x, cx): IState,
        by_class: ClassSlices<'a>,
        t: &mut Walk<S>,
    ) {
        let dir = if FWD { Dir::Fwd } else { Dir::Bwd };
        let ctx_sens = self.cfg.context_sensitive;
        let ctxs = self.ctxs;
        let (class, actions) = PRODUCTIONS[ROW];
        let edges = by_class.of(class);
        match actions[dir as usize] {
            Action::Collect => {
                let seen = t.collected.as_mut().expect("a table to collect in");
                for e in edges {
                    let o = far_end(dir, e);
                    if seen.insert(o.raw(), cx) {
                        t.out.push((o, cx));
                        if t.tracing {
                            let mc = materialised(&mut self.s.materialised, ctxs, cx);
                            if let Some(trace) = self.trace.as_mut() {
                                trace
                                    .object_from
                                    .entry((o, mc.clone()))
                                    .or_insert_with(|| (x, mc));
                            }
                        }
                    }
                }
            }
            Action::Keep => {
                for e in edges {
                    self.visit(t, (far_end(dir, e), cx), (x, cx), Some(e));
                }
            }
            Action::Clear => {
                let c2 = if ctx_sens { CtxId::EMPTY } else { cx };
                for e in edges {
                    self.visit(t, (far_end(dir, e), c2), (x, cx), Some(e));
                }
            }
            Action::Pop if ctx_sens && !cx.is_empty() => {
                // Only the edges of the context's top site match, and they
                // pop it.
                let (parent, top) = self.s.mirror.resolve(ctxs, cx);
                let (pag, site) = (self.pag, CallSiteId::new(top));
                if FWD {
                    for e in pag.outgoing_ret_at(x, site) {
                        self.visit(t, (e.dst, parent), (x, cx), Some(&e));
                    }
                } else {
                    for e in pag.incoming_param_at(x, site) {
                        self.visit(t, (e.src, parent), (x, cx), Some(&e));
                    }
                }
            }
            // A realisable path may leave a method it did not enter.
            Action::Pop => {
                for e in edges {
                    self.visit(t, (far_end(dir, e), cx), (x, cx), Some(e));
                }
            }
            Action::Push => {
                for e in edges {
                    let i = e.kind.call_site().expect("call edge");
                    let c2 = if ctx_sens {
                        self.push_ctx(cx, i.raw())
                    } else {
                        cx
                    };
                    self.visit(t, (far_end(dir, e), c2), (x, cx), Some(e));
                }
            }
        }
    }

    /// Pushes state `to`, reached from `from` over `e` (or, without an
    /// edge, by the alias step), unless the traversal has been there.
    #[inline(always)]
    fn visit(&mut self, t: &mut Walk<S>, to: IState, from: IState, e: Option<&Edge>) {
        if t.visited.insert(to.0.raw(), to.1) {
            if t.tracing {
                self.trace_step(to, from, e);
            }
            t.w.push(to);
        }
    }

    /// Records a discovery-forest edge (tracing only covers the top-level
    /// traversal of traced queries).
    #[cold]
    fn trace_step(&mut self, to: IState, from: IState, e: Option<&Edge>) {
        let via = e.map_or(Via::Alias, |e| Via::Edge(e.kind.label()));
        let table = &mut self.s.materialised;
        let parent_key = (to.0, materialised(table, self.ctxs, to.1));
        let from = (from.0, materialised(table, self.ctxs, from.1));
        if let Some(t) = self.trace.as_mut() {
            t.parent.insert(parent_key, (from, via));
        }
    }

    // ----- REACHABLENODES (Algorithm 2) -----

    fn reachable_nodes(&mut self, x: NodeId, c: CtxId, dir: Dir) -> Result<Vec<IState>, Oob> {
        let jmp_key = (dir, x, c);
        if let Some(jmp) = self.jmp {
            let now = self.now().max(self.horizon);
            let scratch = &mut *self.s;
            // A key the lane's copy holds is answered by it, visible yet or
            // not: the store holds that same entry. Only a key the lane has
            // never been served reaches the shared map.
            let seen = match scratch.jmp_seen.entry(jmp_key) {
                Entry::Occupied(e) => Some(&*e.into_mut()),
                Entry::Vacant(e) => jmp.lookup(&jmp_key, now).map(|(entry, fp)| {
                    let fp = fp.map(|fp| Arc::new(Footprint::clone(&fp)));
                    &*e.insert((entry, fp))
                }),
            };
            let hit = seen.filter(|(entry, _)| entry.created_at() <= now);
            self.stats.lookup_hits += hit.is_some() as u64;
            // The footprint rides along with the entry so a recording
            // reader's shortcut absorbs the recorded traversal's reads (an
            // entry without one — warm pre-recording state — poisons the
            // open frames and the query).
            match hit {
                // Algorithm 2 lines 2–3: early termination when the
                // remaining budget cannot cover the recorded lower bound.
                // An unfinished entry with enough budget left falls through
                // to the recomputation below.
                Some(&(JmpEntry::Unfinished { s, created_at }, _))
                    if self.cfg.budget.saturating_sub(self.steps) < s =>
                {
                    if created_at < self.warm_before {
                        self.stats.warm_hits += 1;
                    }
                    return Err(self.out_of_budget(Exit::Unfinished(s)));
                }
                Some((JmpEntry::Unfinished { .. }, _)) | None => {}
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
                    if *created_at < self.warm_before {
                        self.stats.warm_hits += 1;
                    }
                    scratch.reads.absorb(fp.as_ref());
                    // Copied into a pooled buffer, straight from the lane's
                    // entry (a clone of the shared `Arc` would write the
                    // refcount every lane's copy shares), so every caller
                    // iterates and hands back the same thing.
                    let mut out = scratch.stacks.pop().unwrap_or_default();
                    out.extend_from_slice(rch);
                    return Ok(out);
                }
            }
        }

        // Lines 9–22: compute, in a frame OutOfBudget can see.
        let s0 = self.steps;
        self.open(Call::Reachable, dir, x, c)?;
        let mark = self.s.reads.open();
        let out = self.reachable_inner(x, c, dir)?;
        self.s.frames.pop();

        // The set leaves its buffer, as one copy behind an `Arc`, only to
        // be shared: by a publication that clears `τF`. Its reads become a
        // footprint on the same condition.
        let total = self.steps - s0;
        let publishing = self.jmp.filter(|_| total >= self.cfg.tau_finished);
        let fp = self.s.reads.close(mark, publishing.is_some());
        if let Some(jmp) = publishing {
            let rch: RchSet = Arc::new(out.clone());
            if jmp.publish_finished(jmp_key, total, rch, self.now(), fp) {
                self.stats.finished_published += JmpEntry::set_edges(out.len());
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
        let pag = self.pag;
        let mut alias = self.acquire();
        let mut out = self.acquire_stack();
        self.s.reads.node(x);
        let accesses = edges_at(pag, dir, x).of(HEAP_ACCESS[dir as usize]);
        let r = accesses.iter().try_for_each(|e| {
            let f = e.kind.field().expect("field access edge");
            let matches = match dir {
                Dir::Bwd => pag.stores_of(f),
                Dir::Fwd => pag.loads_of(f),
            };
            // The field index is consulted before the emptiness gate, so
            // record it before — a store added to a today-empty field must
            // invalidate this traversal.
            self.s.reads.field(f);
            if matches.is_empty() {
                return Ok(());
            }
            // alias = ∪ FlowsTo(o, c') for (o, c') ∈ PointsTo(base, c).
            // Contexts per node are a set: interned ids dedup the repeats
            // that distinct objects with overlapping flows-to sets produce,
            // so the match loop below never re-inserts.
            alias.reset();
            let pts = self.traverse(far_end(dir, e), c, Dir::Bwd)?;
            let r = pts.iter().try_for_each(|&(o, c0)| {
                let ft = self.traverse(o, c0, Dir::Fwd)?;
                for &(q, c2) in ft.iter() {
                    alias.insert(q.raw(), c2);
                }
                self.release_stack(ft);
                Ok(())
            });
            self.release_stack(pts);
            r?;
            for &(q, y) in matches {
                alias.for_ctxs(q.raw(), |c2| out.push((y, c2)));
            }
            Ok(())
        });
        self.release(alias);
        let mut out = self.finished(r, out)?;
        // Iterated in order by the traversal that asked. Several (load,
        // store) pairs can reach one state; equal states sort together.
        self.sort(&mut out);
        out.dedup();
        Ok(out)
    }
}
