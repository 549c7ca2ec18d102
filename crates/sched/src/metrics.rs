//! Scheduling metrics (paper Section III-C2):
//!
//! * **Connection distance (CD)** of a variable — the length of the longest
//!   direct-relation path through the variable within its group, *modulo
//!   recursion* (computed on the SCC condensation of the group's direct
//!   subgraph). Shorter CD ⇒ issued earlier within the group.
//! * **Dependence depth (DD)** of a variable of type `t` — `1/L(t)`, where
//!   `L(t)` is the height of `t`'s field-containment hierarchy. A group's
//!   DD is the minimum over its members; groups are issued in increasing DD
//!   (equivalently, decreasing maximum type level): deeply-nested container
//!   variables are resolved first because shallower queries depend on them.

use parcfl_pag::algo::tarjan_scc;
use parcfl_pag::{NodeId, Pag};

/// Connection distances of every node, indexed by node: the longest
/// direct path through its SCC in the condensation of the whole direct
/// subgraph. Direct edges never leave a group, so that path lies in the
/// node's group. One direct-edge CSR read off `pag.edges()`, one Tarjan
/// run, and two sweeps over Tarjan's component numbering, which is
/// reverse topological: an edge between components runs from the higher
/// number to the lower.
pub fn connection_distances(pag: &Pag) -> Vec<u64> {
    let n = pag.node_count();
    let direct = || pag.edges().iter().filter(|e| e.kind.is_direct());
    let mut starts = vec![0usize; n + 1];
    for e in direct() {
        starts[e.src.index() + 1] += 1;
    }
    for v in 0..n {
        starts[v + 1] += starts[v];
    }
    let mut succ = vec![0usize; starts[n]];
    let mut next = starts.clone();
    for e in direct() {
        succ[next[e.src.index()]] = e.dst.index();
        next[e.src.index()] += 1;
    }
    let succ_of = |v: usize| &succ[starts[v]..starts[v + 1]];
    let scc = tarjan_scc(n, |v| succ_of(v).iter().copied());
    // The condensation edges out of component `c`, self-loops dropped.
    let out_of = |c: usize| {
        (scc.members_usize(c))
            .flat_map(|v| succ_of(v).iter().map(|&w| scc.component_of(w)))
            .filter(move |&d| d != c)
    };
    let comps = scc.component_count();
    let (mut lin, mut lout) = (vec![0u64; comps], vec![0u64; comps]);
    // Longest path out of each component: its successors are numbered lower.
    for c in 0..comps {
        lout[c] = out_of(c).map(|d| lout[d] + 1).max().unwrap_or(0);
    }
    // Longest path into each: its predecessors are numbered higher.
    for c in (0..comps).rev() {
        for d in out_of(c) {
            lin[d] = lin[d].max(lin[c] + 1);
        }
    }
    (0..n)
        .map(|v| lin[scc.component_of(v)] + lout[scc.component_of(v)])
        .collect()
}

/// A group's scheduling key: its maximum member type level, read off the
/// per-type level table. Groups are issued in *decreasing* max level,
/// which is increasing dependence depth `DD = 1/L` (the paper's order).
pub fn group_level(all_levels: &[u32], pag: &Pag, members: &[NodeId]) -> u32 {
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
        let cd = connection_distances(&pag);
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
        let cd = connection_distances(&pag);
        assert_eq!(cd[x.index()], 1, "cycle collapses, one edge to z remains");
        assert_eq!(cd[y.index()], 1);
        assert_eq!(cd[z.index()], 1);
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
