//! The independent naive oracle: a small, obviously-correct implementation
//! of the paper's CFL-reachability grammar used as the reference answer in
//! differential tests.
//!
//! Everything the production solver does for *performance* is absent here:
//! no jmp store, no budget, no τ thresholds, no context interner, no
//! virtual clocks. Contexts are plain `Vec<u32>` call strings, result sets
//! are `BTreeSet`s, and the mutual recursion of `PointsTo` / `FlowsTo` /
//! `ReachableNodes` is written directly off grammar rules (2) and (3).
//! The only state shared with the production design is the *semantics*:
//! the same edge rules, the same global-clearing behaviour, the same
//! load/store alias composition.
//!
//! ## The differential contract
//!
//! The production solver's budget abort is all-or-nothing: whenever it
//! returns [`Answer::Complete`](parcfl_core::Answer), the answer is the
//! exact grammar fixpoint — independent of budget, τ, mode, backend, or
//! interleaving. So the contract checked by `parcfl-check` is:
//!
//! * solver `Complete` ⇒ oracle completes with the *identical* set of
//!   `(node, call string)` pairs;
//! * solver `OutOfBudget` says nothing and is skipped.
//!
//! The oracle itself can fail to complete only on inputs where the
//! production solver would burn its budget anyway (re-entrant computation
//! chains, runaway context growth), so a solver-`Complete` /
//! oracle-[`Incomplete`](OracleAnswer::Incomplete) pair is itself reported
//! as a mismatch — see [`IncompleteReason`] for the argument per reason.

use parcfl_pag::{EdgeKind, NodeId, Pag};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// A call string, innermost call site last (same convention as
/// `parcfl_core::Ctx`).
pub(crate) type OCtx = Vec<u32>;

/// A `(node, call string)` traversal state.
pub(crate) type OState = (NodeId, OCtx);

/// Why the oracle abandoned a query.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IncompleteReason {
    /// A nested call identical to one already in flight. The production
    /// solver detects exactly this situation and burns its remaining
    /// budget (`OutOfBudget`), so a completed solver answer can never
    /// coexist with this reason.
    Reentrant,
    /// A context grew past the structural bound (one stack slot per call
    /// site — a realizable stack in a recursion-free call graph never
    /// repeats a call site). Unbounded growth means an infinite state
    /// space, which the production solver can only answer `OutOfBudget`.
    CtxDepth,
    /// The mutual recursion exceeded the same depth bound the production
    /// solver guards with (it burns its budget there too).
    RecursionDepth,
    /// The traversal exceeded the oracle's practical step cap. Unlike the
    /// other reasons this is *not* evidence of solver misbehaviour — the
    /// differential harness skips (and counts) these instead of flagging
    /// a mismatch.
    StepCap,
}

/// An oracle answer: the exact fixpoint, or the reason it was abandoned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleAnswer {
    /// The exact answer set, sorted by `(node, call string)`.
    Complete(Vec<OState>),
    /// Abandoned; see [`IncompleteReason`].
    Incomplete(IncompleteReason),
}

impl OracleAnswer {
    /// The answer set if complete.
    pub fn complete(&self) -> Option<&[OState]> {
        match self {
            OracleAnswer::Complete(v) => Some(v),
            OracleAnswer::Incomplete(_) => None,
        }
    }
}

/// Oracle knobs. Only semantic knobs exist — there is no budget.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Match calling contexts (must equal the production config under
    /// test).
    pub context_sensitive: bool,
    /// Mutual-recursion depth guard (default 512, the production solver's
    /// fixed bound). The oracle's own: it shares no code with the solver.
    pub max_recursion_depth: u32,
    /// Practical work cap per query (work-list pops across all nested
    /// traversals); exceeding it yields
    /// [`IncompleteReason::StepCap`]. Default 50M.
    pub step_cap: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            context_sensitive: true,
            max_recursion_depth: 512,
            step_cap: 50_000_000,
        }
    }
}

type SetRef = Arc<BTreeSet<OState>>;

/// The oracle solver. Holds a memo of completed sub-computations that is
/// sound to reuse across queries on the same PAG (each entry is an exact
/// fixpoint depending only on the graph and the context-sensitivity flag).
pub struct Oracle<'a> {
    pag: &'a Pag,
    cfg: OracleConfig,
    /// Structural context bound: a realizable stack in a recursion-free
    /// call graph holds each call site at most once.
    max_ctx_depth: usize,
    memo_pts: HashMap<OState, SetRef>,
    memo_flows: HashMap<OState, SetRef>,
    memo_rch_bwd: HashMap<OState, SetRef>,
    memo_rch_fwd: HashMap<OState, SetRef>,
    open_pts: HashSet<OState>,
    open_flows: HashSet<OState>,
    open_rch_bwd: HashSet<OState>,
    open_rch_fwd: HashSet<OState>,
    depth: u32,
    steps: u64,
    fail: Option<IncompleteReason>,
}

impl<'a> Oracle<'a> {
    /// Creates an oracle over `pag` with the given configuration.
    pub fn with_config(pag: &'a Pag, cfg: OracleConfig) -> Self {
        Oracle {
            pag,
            cfg,
            max_ctx_depth: pag.call_site_count() + 2,
            memo_pts: HashMap::new(),
            memo_flows: HashMap::new(),
            memo_rch_bwd: HashMap::new(),
            memo_rch_fwd: HashMap::new(),
            open_pts: HashSet::new(),
            open_flows: HashSet::new(),
            open_rch_bwd: HashSet::new(),
            open_rch_fwd: HashSet::new(),
            depth: 0,
            steps: 0,
            fail: None,
        }
    }

    /// Answers `PointsTo(l, ∅)` exactly.
    ///
    /// The mutual recursion can nest up to `max_recursion_depth` levels of
    /// native stack frames — call from a thread with a generous stack (see
    /// [`crate::diff::with_big_stack`]).
    pub(crate) fn points_to(&mut self, l: NodeId) -> OracleAnswer {
        self.reset_query();
        let set = self.pts(l, Vec::new());
        self.answer(set)
    }

    /// Answers `FlowsTo(o, ∅)` exactly.
    pub fn flows_to(&mut self, o: NodeId) -> OracleAnswer {
        self.reset_query();
        let set = self.flows(o, Vec::new());
        self.answer(set)
    }

    fn reset_query(&mut self) {
        self.open_pts.clear();
        self.open_flows.clear();
        self.open_rch_bwd.clear();
        self.open_rch_fwd.clear();
        self.depth = 0;
        self.steps = 0;
        self.fail = None;
    }

    fn answer(&mut self, set: SetRef) -> OracleAnswer {
        match self.fail {
            Some(reason) => OracleAnswer::Incomplete(reason),
            None => OracleAnswer::Complete(set.iter().cloned().collect()),
        }
    }

    fn empty() -> SetRef {
        Arc::new(BTreeSet::new())
    }

    /// One work-list pop; flags [`IncompleteReason::StepCap`] past the cap.
    fn tick(&mut self) -> bool {
        self.steps += 1;
        if self.steps > self.cfg.step_cap {
            self.fail = Some(IncompleteReason::StepCap);
            return false;
        }
        true
    }

    /// Depth guard shared by `pts` and `flows` (the production solver
    /// counts exactly these two frame kinds).
    fn enter(&mut self) -> bool {
        self.depth += 1;
        if self.depth > self.cfg.max_recursion_depth {
            self.fail = Some(IncompleteReason::RecursionDepth);
            return false;
        }
        true
    }

    fn pts(&mut self, l: NodeId, c: OCtx) -> SetRef {
        let key = (l, c);
        if self.fail.is_some() {
            return Self::empty();
        }
        if let Some(r) = self.memo_pts.get(&key) {
            return Arc::clone(r);
        }
        if !self.enter() {
            return Self::empty();
        }
        if !self.open_pts.insert(key.clone()) {
            self.fail = Some(IncompleteReason::Reentrant);
            return Self::empty();
        }
        let out = self.pts_inner(key.0, &key.1);
        self.open_pts.remove(&key);
        self.depth -= 1;
        if self.fail.is_none() {
            self.memo_pts.insert(key, Arc::clone(&out));
        }
        out
    }

    /// `PointsTo` worklist: backward traversal over incoming edges.
    fn pts_inner(&mut self, l: NodeId, c: &OCtx) -> SetRef {
        let sens = self.cfg.context_sensitive;
        let mut pts: BTreeSet<OState> = BTreeSet::new();
        let mut visited: HashSet<OState> = HashSet::new();
        let mut w: Vec<OState> = Vec::new();
        visited.insert((l, c.clone()));
        w.push((l, c.clone()));
        while let Some((x, cx)) = w.pop() {
            if !self.tick() {
                return Self::empty();
            }
            let mut has_load = false;
            for e in self.pag.incoming(x) {
                let step: Option<OState> = match e.kind {
                    EdgeKind::New => {
                        pts.insert((e.src, cx.clone()));
                        None
                    }
                    EdgeKind::AssignLocal => Some((e.src, cx.clone())),
                    EdgeKind::AssignGlobal => {
                        Some((e.src, if sens { Vec::new() } else { cx.clone() }))
                    }
                    EdgeKind::Param(i) => {
                        if !sens || cx.is_empty() {
                            Some((e.src, cx.clone()))
                        } else if *cx.last().expect("non-empty") == i.raw() {
                            let mut c2 = cx.clone();
                            c2.pop();
                            Some((e.src, c2))
                        } else {
                            None
                        }
                    }
                    EdgeKind::Ret(i) => {
                        if sens {
                            if cx.len() >= self.max_ctx_depth {
                                self.fail = Some(IncompleteReason::CtxDepth);
                                return Self::empty();
                            }
                            let mut c2 = cx.clone();
                            c2.push(i.raw());
                            Some((e.src, c2))
                        } else {
                            Some((e.src, cx.clone()))
                        }
                    }
                    EdgeKind::Load(_) => {
                        has_load = true;
                        None
                    }
                    EdgeKind::Store(_) => None,
                };
                if let Some(s) = step {
                    if visited.insert(s.clone()) {
                        w.push(s);
                    }
                }
            }
            if has_load {
                let rch = self.rch_bwd(x, cx);
                if self.fail.is_some() {
                    return Self::empty();
                }
                for s in rch.iter() {
                    if visited.insert(s.clone()) {
                        w.push(s.clone());
                    }
                }
            }
        }
        Arc::new(pts)
    }

    fn flows(&mut self, o: NodeId, c: OCtx) -> SetRef {
        let key = (o, c);
        if self.fail.is_some() {
            return Self::empty();
        }
        if let Some(r) = self.memo_flows.get(&key) {
            return Arc::clone(r);
        }
        if !self.enter() {
            return Self::empty();
        }
        if !self.open_flows.insert(key.clone()) {
            self.fail = Some(IncompleteReason::Reentrant);
            return Self::empty();
        }
        let out = self.flows_inner(key.0, &key.1);
        self.open_flows.remove(&key);
        self.depth -= 1;
        if self.fail.is_none() {
            self.memo_flows.insert(key, Arc::clone(&out));
        }
        out
    }

    /// `FlowsTo` worklist: forward traversal over outgoing edges,
    /// collecting every variable node reached.
    fn flows_inner(&mut self, o: NodeId, c: &OCtx) -> SetRef {
        let sens = self.cfg.context_sensitive;
        let mut reached: BTreeSet<OState> = BTreeSet::new();
        let mut visited: HashSet<OState> = HashSet::new();
        let mut w: Vec<OState> = Vec::new();
        visited.insert((o, c.clone()));
        w.push((o, c.clone()));
        while let Some((n, cn)) = w.pop() {
            if !self.tick() {
                return Self::empty();
            }
            if self.pag.kind(n).is_variable() {
                reached.insert((n, cn.clone()));
            }
            let mut has_store = false;
            for e in self.pag.outgoing(n) {
                let step: Option<OState> = match e.kind {
                    EdgeKind::New | EdgeKind::AssignLocal => Some((e.dst, cn.clone())),
                    EdgeKind::AssignGlobal => {
                        Some((e.dst, if sens { Vec::new() } else { cn.clone() }))
                    }
                    EdgeKind::Param(i) => {
                        if sens {
                            if cn.len() >= self.max_ctx_depth {
                                self.fail = Some(IncompleteReason::CtxDepth);
                                return Self::empty();
                            }
                            let mut c2 = cn.clone();
                            c2.push(i.raw());
                            Some((e.dst, c2))
                        } else {
                            Some((e.dst, cn.clone()))
                        }
                    }
                    EdgeKind::Ret(i) => {
                        if !sens || cn.is_empty() {
                            Some((e.dst, cn.clone()))
                        } else if *cn.last().expect("non-empty") == i.raw() {
                            let mut c2 = cn.clone();
                            c2.pop();
                            Some((e.dst, c2))
                        } else {
                            None
                        }
                    }
                    EdgeKind::Store(_) => {
                        has_store = true;
                        None
                    }
                    EdgeKind::Load(_) => None,
                };
                if let Some(s) = step {
                    if visited.insert(s.clone()) {
                        w.push(s);
                    }
                }
            }
            if has_store {
                let rch = self.rch_fwd(n, cn);
                if self.fail.is_some() {
                    return Self::empty();
                }
                for s in rch.iter() {
                    if visited.insert(s.clone()) {
                        w.push(s.clone());
                    }
                }
            }
        }
        Arc::new(reached)
    }

    /// Backward `ReachableNodes`: `x` has incoming loads `x ←ld(f)− p`;
    /// for every store `q ←st(f)− y` with `p` alias `q`, `(y, c″)` is
    /// reachable.
    fn rch_bwd(&mut self, x: NodeId, c: OCtx) -> SetRef {
        let key = (x, c);
        if self.fail.is_some() {
            return Self::empty();
        }
        if let Some(r) = self.memo_rch_bwd.get(&key) {
            return Arc::clone(r);
        }
        if !self.open_rch_bwd.insert(key.clone()) {
            self.fail = Some(IncompleteReason::Reentrant);
            return Self::empty();
        }
        let mut out: BTreeSet<OState> = BTreeSet::new();
        let loads: Vec<_> = self
            .pag
            .incoming(key.0)
            .iter()
            .filter_map(|e| match e.kind {
                EdgeKind::Load(f) => Some((e.src, f)),
                _ => None,
            })
            .collect();
        for (p, f) in loads {
            if self.pag.stores_of(f).is_empty() {
                continue;
            }
            // alias = ∪ FlowsTo(o, c′) over (o, c′) ∈ PointsTo(p, c).
            let mut alias: HashMap<NodeId, BTreeSet<OCtx>> = HashMap::new();
            let pts = self.pts(p, key.1.clone());
            if self.fail.is_some() {
                return Self::empty();
            }
            for (o, c0) in pts.iter() {
                let ft = self.flows(*o, c0.clone());
                if self.fail.is_some() {
                    return Self::empty();
                }
                for (q2, c2) in ft.iter() {
                    alias.entry(*q2).or_default().insert(c2.clone());
                }
            }
            for &(q, y) in self.pag.stores_of(f) {
                if let Some(cs) = alias.get(&q) {
                    for c2 in cs {
                        out.insert((y, c2.clone()));
                    }
                }
            }
        }
        self.open_rch_bwd.remove(&key);
        let out = Arc::new(out);
        self.memo_rch_bwd.insert(key, Arc::clone(&out));
        out
    }

    /// Forward dual: `y` has outgoing stores; loads of aliased bases
    /// receive.
    fn rch_fwd(&mut self, y: NodeId, c: OCtx) -> SetRef {
        let key = (y, c);
        if self.fail.is_some() {
            return Self::empty();
        }
        if let Some(r) = self.memo_rch_fwd.get(&key) {
            return Arc::clone(r);
        }
        if !self.open_rch_fwd.insert(key.clone()) {
            self.fail = Some(IncompleteReason::Reentrant);
            return Self::empty();
        }
        let mut out: BTreeSet<OState> = BTreeSet::new();
        let stores: Vec<_> = self
            .pag
            .outgoing(key.0)
            .iter()
            .filter_map(|e| match e.kind {
                EdgeKind::Store(f) => Some((e.dst, f)),
                _ => None,
            })
            .collect();
        for (q, f) in stores {
            if self.pag.loads_of(f).is_empty() {
                continue;
            }
            let mut alias: HashMap<NodeId, BTreeSet<OCtx>> = HashMap::new();
            let pts = self.pts(q, key.1.clone());
            if self.fail.is_some() {
                return Self::empty();
            }
            for (o, c0) in pts.iter() {
                let ft = self.flows(*o, c0.clone());
                if self.fail.is_some() {
                    return Self::empty();
                }
                for (p2, c2) in ft.iter() {
                    alias.entry(*p2).or_default().insert(c2.clone());
                }
            }
            for &(p, x) in self.pag.loads_of(f) {
                if let Some(cs) = alias.get(&p) {
                    for c2 in cs {
                        out.insert((x, c2.clone()));
                    }
                }
            }
        }
        self.open_rch_fwd.remove(&key);
        let out = Arc::new(out);
        self.memo_rch_fwd.insert(key, Arc::clone(&out));
        out
    }
}
