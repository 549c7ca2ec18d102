//! Scheduling metrics (paper Section III-C2):
//!
//! * **Flow depth** of a variable — the length of the longest path into it
//!   along value flow, the heap included: the direct edges plus one hub per
//!   field, which every `st(f)` value feeds and which feeds every `ld(f)`
//!   destination, *modulo recursion*. Smaller depth ⇒ issued earlier within
//!   the group: a query other queries depend on through the heap runs
//!   first, so the evidence it leaves in the jmp store exists before the
//!   walks that would reach it (DESIGN.md §3, "Scheduling").
//! * **Connection distance (CD)** of a variable — the length of the longest
//!   direct-relation path through the variable within its group, *modulo
//!   recursion* (computed on the SCC condensation of the group's direct
//!   subgraph). Among equal flow depths, shorter CD ⇒ issued earlier.
//! * **Dependence depth (DD)** of a variable of type `t` — `1/L(t)`, where
//!   `L(t)` is the height of `t`'s field-containment hierarchy. A group's
//!   DD is the minimum over its members; groups are issued in increasing DD
//!   (equivalently, decreasing maximum type level): deeply-nested container
//!   variables are resolved first because shallower queries depend on them.

use parcfl_pag::{EdgeKind, NodeId, Pag};

/// The two member keys of every node, indexed by node.
pub(crate) struct Keys {
    /// Connection distances: the longest path through each node's SCC in
    /// the condensation of the whole direct subgraph. Direct edges never
    /// leave a group, so that path lies in the node's group.
    pub(crate) cd: Vec<u32>,
    /// Flow depths: the longest path into each node's SCC in the
    /// condensation of the direct edges plus one hub vertex per field,
    /// which every `st(f)` value feeds and which feeds every `ld(f)`
    /// destination. A node stored into a field sits upstream of the
    /// nodes loading that field, whatever the bases.
    pub(crate) depth: Vec<u32>,
}

impl Keys {
    /// The order members are issued in within their group: increasing
    /// flow depth, then CD, then id.
    #[inline]
    pub(crate) fn of(&self, v: NodeId) -> (u32, u32, NodeId) {
        (self.depth[v.index()], self.cd[v.index()], v)
    }
}

/// Computes both keys off one CSR read off `pag.edges()`: its rows hold a
/// node's direct successors and the hubs of the fields it is stored into,
/// hubs numbered from `n`. One Tarjan run over the whole CSR gives the
/// flow depth. Every direct arc is an arc of it, so each direct SCC lies
/// in one of its components, and refining them gives the CD.
pub(crate) fn keys(pag: &Pag) -> Keys {
    let n = pag.node_count();
    let g = FlowGraph::new(pag);
    let flow = Sccs::of(&g);
    let lin = flow.longest_into(&g);
    let depth = flow.comp[..n].iter().map(|&c| lin[c as usize]).collect();
    let direct = flow.refined(&g, n);
    let (lin, lout) = (direct.longest_into(&g), direct.longest_out_of(&g));
    let cd = (direct.comp.iter())
        .map(|&c| lin[c as usize] + lout[c as usize])
        .collect();
    Keys { cd, depth }
}

/// The direct edges and the field hubs' arcs as one CSR.
struct FlowGraph {
    starts: Vec<u32>,
    succ: Vec<u32>,
}

impl FlowGraph {
    fn new(pag: &Pag) -> FlowGraph {
        let n = pag.node_count();
        let hubs = pag.types().field_count();
        // The arc each edge contributes, if any: `(from, to)`.
        let arc = |kind: EdgeKind, src: usize, dst: usize| match kind {
            EdgeKind::Store(f) => Some((src, n + f.index())),
            EdgeKind::Load(f) => Some((n + f.index(), dst)),
            k if k.is_direct() => Some((src, dst)),
            _ => None,
        };
        let arcs =
            || (pag.edges().iter()).filter_map(|e| arc(e.kind, e.src.index(), e.dst.index()));
        let mut starts = vec![0u32; n + hubs + 1];
        for (from, _) in arcs() {
            starts[from + 1] += 1;
        }
        for v in 0..n + hubs {
            starts[v + 1] += starts[v];
        }
        let mut succ = vec![0u32; starts[n + hubs] as usize];
        let mut next = starts.clone();
        for (from, to) in arcs() {
            succ[next[from] as usize] = to as u32;
            next[from] += 1;
        }
        FlowGraph { starts, succ }
    }

    /// The successors of `v`.
    #[inline]
    fn succ(&self, v: usize) -> &[u32] {
        &self.succ[self.starts[v] as usize..self.starts[v + 1] as usize]
    }
}

/// The strongly connected components of the subgraph a [`FlowGraph`]'s
/// first `bound` vertices induce, found by an iterative Tarjan. Components
/// are numbered in the order they close, which is reverse topological: an
/// arc between components runs from the higher number to the lower.
struct Sccs {
    bound: usize,
    /// Each vertex's component; `NONE` until it closes.
    comp: Vec<u32>,
    /// The vertices, component by component: component `c` is
    /// `order[ends[c]..ends[c + 1]]`.
    order: Vec<u32>,
    ends: Vec<u32>,
    /// Tarjan's state: DFS numbers (`NONE` before the visit), low links,
    /// the open vertices, and the open calls, each a vertex and the next
    /// of its arcs to look at.
    index: Vec<u32>,
    low: Vec<u32>,
    stack: Vec<u32>,
    call: Vec<(u32, u32)>,
}

const NONE: u32 = u32::MAX;

impl Sccs {
    fn new(bound: usize) -> Sccs {
        let mut ends = Vec::with_capacity(bound + 1);
        ends.push(0);
        Sccs {
            bound,
            comp: vec![NONE; bound],
            order: Vec::with_capacity(bound),
            ends,
            index: vec![NONE; bound],
            low: vec![0; bound],
            stack: Vec::new(),
            call: Vec::new(),
        }
    }

    /// The components of the whole graph, hubs included.
    fn of(g: &FlowGraph) -> Sccs {
        let mut s = Sccs::new(g.starts.len() - 1);
        for root in 0..s.bound {
            s.search(g, root);
        }
        s
    }

    /// The components of the subgraph the first `bound` vertices induce,
    /// `self` being those of a graph holding its arcs. Each of `self`'s
    /// components is split in turn, in their order: an arc that leaves one
    /// reaches a component split before, so the numbering stays reverse
    /// topological. A single vertex is split without a search.
    fn refined(&self, g: &FlowGraph, bound: usize) -> Sccs {
        let mut s = Sccs::new(bound);
        for c in 0..self.count() {
            match self.members(c) {
                &[v] if (v as usize) < bound => s.close_alone(v as usize),
                members => {
                    for &v in members.iter().filter(|&&v| (v as usize) < bound) {
                        s.search(g, v as usize);
                    }
                }
            }
        }
        s
    }

    /// Closes `v`, unvisited, as a component of its own.
    #[inline]
    fn close_alone(&mut self, v: usize) {
        self.index[v] = 0;
        self.comp[v] = self.count() as u32;
        self.order.push(v as u32);
        self.ends.push(self.order.len() as u32);
    }

    /// Tarjan's search from `root`, unless it has been visited: closes
    /// every component it completes. A vertex with no arcs closes at
    /// once, which leaves its caller's low link as it is.
    fn search(&mut self, g: &FlowGraph, root: usize) {
        if self.index[root] != NONE {
            return;
        }
        let mut next = 0u32;
        let mut enter = Some(root);
        loop {
            if let Some(v) = enter.take() {
                if g.starts[v] == g.starts[v + 1] {
                    self.close_alone(v);
                } else {
                    (self.index[v], self.low[v]) = (next, next);
                    next += 1;
                    self.stack.push(v as u32);
                    self.call.push((v as u32, g.starts[v]));
                }
            }
            let Some(&(v, cur)) = self.call.last() else {
                break;
            };
            let v = v as usize;
            let (mut arc, end) = (cur as usize, g.starts[v + 1] as usize);
            while arc < end {
                let w = g.succ[arc] as usize;
                arc += 1;
                if w >= self.bound {
                    continue;
                }
                if self.index[w] == NONE {
                    enter = Some(w);
                    break;
                }
                if self.comp[w] == NONE {
                    self.low[v] = self.low[v].min(self.index[w]);
                }
            }
            if enter.is_some() {
                self.call.last_mut().expect("v's call").1 = arc as u32;
                continue;
            }
            self.call.pop();
            if self.low[v] == self.index[v] {
                let c = self.count() as u32;
                loop {
                    let w = self.stack.pop().expect("v is on the stack");
                    self.comp[w as usize] = c;
                    self.order.push(w);
                    if w as usize == v {
                        break;
                    }
                }
                self.ends.push(self.order.len() as u32);
            }
            if let Some(&(p, _)) = self.call.last() {
                self.low[p as usize] = self.low[p as usize].min(self.low[v]);
            }
        }
    }

    /// The vertices of component `c`.
    fn members(&self, c: usize) -> &[u32] {
        &self.order[self.ends[c] as usize..self.ends[c + 1] as usize]
    }

    /// The number of components.
    fn count(&self) -> usize {
        self.ends.len() - 1
    }

    /// Calls `f` with the component at the far end of every arc that
    /// leaves component `c`.
    #[inline(always)]
    fn each_out(&self, g: &FlowGraph, c: usize, mut f: impl FnMut(usize)) {
        for &v in self.members(c) {
            for &w in g.succ(v as usize) {
                if (w as usize) < self.bound {
                    let d = self.comp[w as usize] as usize;
                    if d != c {
                        f(d);
                    }
                }
            }
        }
    }

    /// The longest path into each component: its predecessors are
    /// numbered higher.
    fn longest_into(&self, g: &FlowGraph) -> Vec<u32> {
        let mut lin = vec![0u32; self.count()];
        for c in (0..self.count()).rev() {
            let via = lin[c] + 1;
            self.each_out(g, c, |d| lin[d] = lin[d].max(via));
        }
        lin
    }

    /// The longest path out of each component: its successors are
    /// numbered lower.
    fn longest_out_of(&self, g: &FlowGraph) -> Vec<u32> {
        let mut lout = vec![0u32; self.count()];
        for c in 0..self.count() {
            let mut longest = 0;
            self.each_out(g, c, |d| longest = longest.max(lout[d] + 1));
            lout[c] = longest;
        }
        lout
    }
}

/// A group's scheduling key: its maximum member type level, read off the
/// per-type level table. Groups are issued in *decreasing* max level,
/// which is increasing dependence depth `DD = 1/L` (the paper's order).
pub(crate) fn group_level(all_levels: &[u32], pag: &Pag, members: &[NodeId]) -> u32 {
    (members.iter())
        .map(|&m| all_levels[pag.node(m).ty.index()])
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_frontend::build_pag;

    #[test]
    fn cd_longest_path_through_chain() {
        // a -> b -> c assignments: all on the length-2 path.
        let src = "class Obj { }
                   class A { method m() {
                     var a: Obj; var b: Obj; var c: Obj; var d: Obj;
                     a = new Obj; b = a; c = b;
                     d = new Obj;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let ids: Vec<_> = ["a@A.m", "b@A.m", "c@A.m", "d@A.m"]
            .iter()
            .map(|n| pag.node_by_name(n).unwrap())
            .collect();
        let cd = keys(&pag).cd;
        assert_eq!(cd[ids[0].index()], 2);
        assert_eq!(cd[ids[1].index()], 2);
        assert_eq!(cd[ids[2].index()], 2);
        assert_eq!(cd[ids[3].index()], 0, "isolated variable has CD 0");
    }

    #[test]
    fn cd_modulo_recursion() {
        // x = y; y = x; forms an assign cycle: CD must be finite (the SCC
        // is one condensation node), extended by the tail z = y.
        let src = "class Obj { }
                   class A { method m() {
                     var x: Obj; var y: Obj; var z: Obj;
                     x = new Obj;
                     x = y; y = x; z = y;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let x = pag.node_by_name("x@A.m").unwrap();
        let y = pag.node_by_name("y@A.m").unwrap();
        let z = pag.node_by_name("z@A.m").unwrap();
        let cd = keys(&pag).cd;
        assert_eq!(cd[x.index()], 1, "cycle collapses, one edge to z remains");
        assert_eq!(cd[y.index()], 1);
        assert_eq!(cd[z.index()], 1);
    }

    #[test]
    fn flow_depth_follows_the_heap() {
        // `p.f = y; x = q.f` with `p` and `q` aliased: `y` feeds `f`'s hub
        // and the hub feeds `x`, so `y` sits upstream of `x` although no
        // direct path joins them. `a = x; a = y` puts both in one group
        // at the same CD.
        let src = "class Obj { }
                   class Box { field f: Obj; }
                   class A { method m() {
                     var x: Obj; var y: Obj; var p: Box; var q: Box; var a: Obj;
                     p = new Box; q = p; y = new Obj;
                     p.f = y; x = q.f;
                     a = x; a = y;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let [x, y, a] = ["x@A.m", "y@A.m", "a@A.m"].map(|n| pag.node_by_name(n).unwrap());
        let k = keys(&pag);
        assert_eq!((k.cd[x.index()], k.cd[y.index()]), (1, 1));
        assert_eq!(k.depth[y.index()], 0);
        assert_eq!(k.depth[x.index()], 2, "y, the hub, x");
        assert_eq!(k.depth[a.index()], 3);
        assert!(x < y, "the id alone would issue x first");
        assert!(k.of(y) < k.of(x));
    }

    /// Renumbering the nodes renumbers both keys and changes no value.
    #[test]
    fn keys_map_through_a_relabelling() {
        for seed in 0..8 {
            let profile = parcfl_synth::Profile::small(seed);
            let pag = parcfl_frontend::extract(&parcfl_synth::generate(&profile))
                .unwrap()
                .pag;
            let n = pag.node_count() as u32;
            let perm: Vec<NodeId> = (0..n).rev().map(NodeId::new).collect();
            let mut nodes = vec![None; perm.len()];
            for v in pag.node_ids() {
                nodes[perm[v.index()].index()] = Some(pag.node(v).clone());
            }
            let relabelled = pag.quotient(nodes.into_iter().map(Option::unwrap).collect(), &perm);
            let (k, r) = (keys(&pag), keys(&relabelled));
            for v in pag.node_ids() {
                let w = perm[v.index()].index();
                assert_eq!(k.depth[v.index()], r.depth[w], "seed {seed}, {v:?}");
                assert_eq!(k.cd[v.index()], r.cd[w], "seed {seed}, {v:?}");
            }
            assert!(k.depth.iter().any(|&d| d > 0), "seed {seed}");
        }
    }

    #[test]
    fn type_levels_and_group_level() {
        let src = "class Obj { }
                   class Inner { field o: Obj; }
                   class Outer { field i: Inner; }
                   class A { method m() {
                     var o: Obj; var i: Inner; var u: Outer; var k: int;
                     o = new Obj; i = new Inner; u = new Outer;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let o = pag.node_by_name("o@A.m").unwrap();
        let i = pag.node_by_name("i@A.m").unwrap();
        let u = pag.node_by_name("u@A.m").unwrap();
        let k = pag.node_by_name("k@A.m").unwrap();
        let lv = pag.types().levels();
        let level = |v: NodeId| group_level(&lv, &pag, &[v]);
        assert_eq!(level(o), 1);
        assert_eq!(level(i), 2);
        assert_eq!(level(u), 3);
        assert_eq!(level(k), 0, "primitive type has level 0");
        assert_eq!(group_level(&lv, &pag, &[o, i, u]), 3);
        assert_eq!(group_level(&lv, &pag, &[k]), 0);
        assert_eq!(group_level(&lv, &pag, &[]), 0);
    }
}
