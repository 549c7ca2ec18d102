//! Sequential Andersen-style (inclusion-based) whole-program pointer
//! analysis over a PAG — the algorithm every comparator in the paper's
//! Table II parallelises.
//!
//! Field-sensitive in the Java style (one abstract field slot per
//! `(object, field)` pair), context- and flow-insensitive: all of
//! `assign_l`, `assign_g`, `param_i`, `ret_i` become subset constraints.
//! Solved with a difference-propagation worklist.

use parcfl_concurrent::{FxHashMap, FxHashSet};
use parcfl_pag::{EdgeKind, FieldId, NodeId, Pag};

/// Dense constraint-node index: PAG nodes first, then dynamically created
/// `(object, field)` slots.
type Idx = u32;

/// Result of a whole-program Andersen analysis.
#[derive(Clone, Debug)]
pub struct AndersenResult {
    /// Points-to set per PAG node (empty for objects and non-pointers),
    /// sorted.
    pts: Vec<Vec<NodeId>>,
    /// Copy-edge propagations performed (a work measure).
    pub propagations: u64,
    /// Field slots materialised.
    pub field_slots: usize,
}

impl AndersenResult {
    /// The points-to set of `v` (objects, sorted ascending).
    pub fn pts_of(&self, v: NodeId) -> &[NodeId] {
        &self.pts[v.index()]
    }

    /// Total of all points-to set sizes (a precision measure).
    pub fn total_pts(&self) -> usize {
        self.pts.iter().map(|s| s.len()).sum()
    }

    /// Whether `o ∈ pts(v)` (binary search over the sorted set).
    pub fn pts_contains(&self, v: NodeId, o: NodeId) -> bool {
        self.pts[v.index()].binary_search(&o).is_ok()
    }

    /// Size of `pts(v)`.
    pub fn pts_len(&self, v: NodeId) -> usize {
        self.pts[v.index()].len()
    }

    /// Whether `pts(v) ⊇ objs` — the soundness test a demand-driven
    /// answer must pass (the inclusion-based solution over-approximates
    /// every context-sensitive demand answer). Returns the first object
    /// *not* covered, or `None` when the subset relation holds.
    pub fn covers(&self, v: NodeId, objs: &[NodeId]) -> Option<NodeId> {
        objs.iter().copied().find(|&o| !self.pts_contains(v, o))
    }
}

/// The constraint system shared by the sequential and parallel solvers.
pub(crate) struct Constraints {
    /// Node count of the PAG (constraint nodes `0..n` are PAG nodes).
    pub n: usize,
    /// Static subset edges `src → dst` from non-heap PAG edges.
    pub copy_out: Vec<Vec<Idx>>,
    /// Loads with base `v`: `(field, dst)`.
    pub loads_at: Vec<Vec<(FieldId, Idx)>>,
    /// Stores with base `v`: `(field, src)`.
    pub stores_at: Vec<Vec<(FieldId, Idx)>>,
    /// Initial points-to facts from `new` edges: `(var, object)`.
    pub inits: Vec<(Idx, NodeId)>,
}

impl Constraints {
    pub fn build(pag: &Pag) -> Constraints {
        let n = pag.node_count();
        let mut copy_out: Vec<Vec<Idx>> = vec![Vec::new(); n];
        let mut loads_at: Vec<Vec<(FieldId, Idx)>> = vec![Vec::new(); n];
        let mut stores_at: Vec<Vec<(FieldId, Idx)>> = vec![Vec::new(); n];
        let mut inits = Vec::new();
        for e in pag.edges() {
            match e.kind {
                EdgeKind::New => inits.push((e.dst.raw(), e.src)),
                EdgeKind::AssignLocal
                | EdgeKind::AssignGlobal
                | EdgeKind::Param(_)
                | EdgeKind::Ret(_) => copy_out[e.src.index()].push(e.dst.raw()),
                // dst = src.f — base is src.
                EdgeKind::Load(f) => loads_at[e.src.index()].push((f, e.dst.raw())),
                // dst.f = src — base is dst.
                EdgeKind::Store(f) => stores_at[e.dst.index()].push((f, e.src.raw())),
            }
        }
        Constraints {
            n,
            copy_out,
            loads_at,
            stores_at,
            inits,
        }
    }
}

/// Runs the sequential analysis.
pub fn analyze(pag: &Pag) -> AndersenResult {
    let c = Constraints::build(pag);
    let mut state = State::new(&c);
    let mut work: Vec<Idx> = Vec::new();
    for &(v, o) in &c.inits {
        if state.add(v, o) {
            work.push(v);
        }
    }
    while let Some(v) = work.pop() {
        let delta = std::mem::take(&mut state.delta[v as usize]);
        if delta.is_empty() {
            continue;
        }
        // Heap rules only apply to PAG nodes (bases are always variables).
        if (v as usize) < c.n {
            for &(f, dst) in &c.loads_at[v as usize] {
                for &o in &delta {
                    let slot = state.slot(o, f);
                    state.add_edge(slot, dst, &mut work);
                }
            }
            for &(f, src) in &c.stores_at[v as usize] {
                for &o in &delta {
                    let slot = state.slot(o, f);
                    state.add_edge(src, slot, &mut work);
                }
            }
        }
        // Copy propagation.
        let succs: Vec<Idx> = state.out_edges(v).to_vec();
        for w in succs {
            let mut changed = false;
            for &o in &delta {
                changed |= state.add(w, o);
            }
            state.propagations += delta.len() as u64;
            if changed {
                work.push(w);
            }
        }
    }
    state.finish(&c)
}

/// Mutable solver state.
pub(crate) struct State {
    /// Points-to per constraint node.
    pub pts: Vec<FxHashSet<NodeId>>,
    /// Unpropagated recent additions.
    pub delta: Vec<Vec<NodeId>>,
    /// Dynamic + static copy edges.
    pub out: Vec<FxHashSet<Idx>>,
    /// Field slot interner.
    pub slots: FxHashMap<(NodeId, FieldId), Idx>,
    pub propagations: u64,
}

impl State {
    pub fn new(c: &Constraints) -> State {
        let mut out: Vec<FxHashSet<Idx>> = vec![FxHashSet::default(); c.n];
        for (v, succs) in c.copy_out.iter().enumerate() {
            out[v].extend(succs.iter().copied());
        }
        State {
            pts: vec![FxHashSet::default(); c.n],
            delta: vec![Vec::new(); c.n],
            out,
            slots: FxHashMap::default(),
            propagations: 0,
        }
    }

    /// Adds `o` to `pts(v)`; true if new.
    pub fn add(&mut self, v: Idx, o: NodeId) -> bool {
        if self.pts[v as usize].insert(o) {
            self.delta[v as usize].push(o);
            true
        } else {
            false
        }
    }

    /// Interns the `(object, field)` slot, growing the node space.
    pub fn slot(&mut self, o: NodeId, f: FieldId) -> Idx {
        if let Some(&s) = self.slots.get(&(o, f)) {
            return s;
        }
        let s = self.pts.len() as Idx;
        self.pts.push(FxHashSet::default());
        self.delta.push(Vec::new());
        self.out.push(FxHashSet::default());
        self.slots.insert((o, f), s);
        s
    }

    pub fn out_edges(&self, v: Idx) -> Vec<Idx> {
        self.out[v as usize].iter().copied().collect()
    }

    /// Adds a copy edge `u → w`, seeding `w` with `pts(u)`.
    pub fn add_edge(&mut self, u: Idx, w: Idx, work: &mut Vec<Idx>) {
        if u == w || !self.out[u as usize].insert(w) {
            return;
        }
        let objs: Vec<NodeId> = self.pts[u as usize].iter().copied().collect();
        let mut changed = false;
        for o in objs {
            changed |= self.add(w, o);
        }
        if changed {
            work.push(w);
        }
    }

    pub fn finish(self, c: &Constraints) -> AndersenResult {
        let field_slots = self.slots.len();
        let pts = self.pts[..c.n]
            .iter()
            .map(|s| {
                let mut v: Vec<NodeId> = s.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .collect();
        AndersenResult {
            pts,
            propagations: self.propagations,
            field_slots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_frontend::build_pag;

    fn pts_names(pag: &Pag, r: &AndersenResult, var: &str) -> Vec<String> {
        let v = pag.node_by_name(var).unwrap();
        r.pts_of(v)
            .iter()
            .map(|&o| pag.node(o).name.to_string())
            .collect()
    }

    #[test]
    fn basic_flow() {
        let pag = build_pag(
            "class Obj { }
             class A { method m() { var a: Obj; var b: Obj; a = new Obj; b = a; } }",
        )
        .unwrap()
        .pag;
        let r = analyze(&pag);
        assert_eq!(pts_names(&pag, &r, "a@A.m"), vec!["o0@A.m"]);
        assert_eq!(pts_names(&pag, &r, "b@A.m"), vec!["o0@A.m"]);
    }

    #[test]
    fn field_sensitive_but_context_insensitive() {
        let pag = build_pag(
            "class Obj { }
             class Box { field f: Obj; field g: Obj; }
             class A {
               method id(o: Obj): Obj { return o; }
               method m() {
                 var b: Box; var x: Obj; var y: Obj; var u: Obj; var v: Obj;
                 var r1: Obj; var r2: Obj;
                 b = new Box;
                 x = new Obj; y = new Obj;
                 b.f = x; b.g = y;
                 u = b.f; v = b.g;
                 r1 = call this.id(x);
                 r2 = call this.id(y);
               }
             }",
        )
        .unwrap()
        .pag;
        let r = analyze(&pag);
        // Fields stay separate (field-sensitivity).
        assert_eq!(pts_names(&pag, &r, "u@A.m"), vec!["o1@A.m"]);
        assert_eq!(pts_names(&pag, &r, "v@A.m"), vec!["o2@A.m"]);
        // Contexts conflate (context-insensitivity): r1 and r2 both see
        // both objects.
        assert_eq!(pts_names(&pag, &r, "r1@A.m"), vec!["o1@A.m", "o2@A.m"]);
        assert_eq!(pts_names(&pag, &r, "r2@A.m"), vec!["o1@A.m", "o2@A.m"]);
    }

    #[test]
    fn store_then_alias_load() {
        // The paper's motivating alias pattern: q.f = y; x = p.f with p=q.
        let pag = build_pag(
            "class Obj { }
             class Box { field f: Obj; }
             class A { method m() {
               var p: Box; var q: Box; var x: Obj; var y: Obj;
               p = new Box;
               q = p;
               y = new Obj;
               q.f = y;
               x = p.f;
             } }",
        )
        .unwrap()
        .pag;
        let r = analyze(&pag);
        assert_eq!(pts_names(&pag, &r, "x@A.m"), vec!["o2@A.m"]);
        assert!(r.field_slots >= 1);
        assert!(r.propagations > 0);
        assert_eq!(r.total_pts(), 4); // p, q, x, y each point to one object
    }

    #[test]
    fn cyclic_constraints_terminate() {
        let pag = build_pag(
            "class Obj { }
             class A { method m() {
               var a: Obj; var b: Obj;
               a = new Obj; a = b; b = a;
             } }",
        )
        .unwrap()
        .pag;
        let r = analyze(&pag);
        assert_eq!(pts_names(&pag, &r, "b@A.m"), vec!["o0@A.m"]);
    }
}
