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

use crate::groups::Groups;
use parcfl_concurrent::FxHashMap;
use parcfl_pag::algo::{longest_path_through, tarjan_scc};
use parcfl_pag::{NodeId, Pag};

/// Connection distances of every node of every group, indexed by node
/// (0 for nodes of no group), computed per group.
pub fn connection_distances(pag: &Pag, groups: &Groups) -> Vec<u64> {
    let mut cds = vec![0; pag.node_count()];
    // Each node's index within its group. Direct edges never leave a
    // group (groups are their components), so a group's walk only reads
    // the entries of its own nodes, which it has just written.
    let mut local = vec![0u32; pag.node_count()];
    for nodes in &groups.component_nodes {
        for (i, &v) in nodes.iter().enumerate() {
            local[v.index()] = i as u32;
        }
        for (&v, cd) in nodes.iter().zip(group_cds(pag, nodes, &local)) {
            cds[v.index()] = cd;
        }
    }
    cds
}

/// CDs for one component, member by member: SCC-condense its direct
/// subgraph and take the longest DAG path through each node's component.
fn group_cds(pag: &Pag, nodes: &[NodeId], local: &[u32]) -> Vec<u64> {
    let n = nodes.len();
    // Direct edges within the component, in local indices, as a CSR.
    let mut starts = Vec::with_capacity(n + 1);
    let mut succ: Vec<usize> = Vec::new();
    for &v in nodes {
        starts.push(succ.len());
        let direct = pag.outgoing(v).iter().filter(|e| e.kind.is_direct());
        succ.extend(direct.map(|e| local[e.dst.index()] as usize));
    }
    starts.push(succ.len());
    let succ_of = |v: usize| &succ[starts[v]..starts[v + 1]];
    let scc = tarjan_scc(n, |v| succ_of(v).iter().copied());
    // Condensation edges, deduplicated.
    let mut cedges: Vec<(u32, u32)> = Vec::new();
    for v in 0..n {
        let cv = scc.component_of(v) as u32;
        for &w in succ_of(v) {
            let cw = scc.component_of(w) as u32;
            if cv != cw {
                cedges.push((cv, cw));
            }
        }
    }
    cedges.sort_unstable();
    cedges.dedup();
    let lp = longest_path_through(scc.component_count(), &cedges);
    (0..n).map(|i| lp[scc.component_of(i)]).collect()
}

/// Type level `L(t)` for every query variable (0 for non-reference types).
pub fn type_levels(pag: &Pag, queries: &[NodeId]) -> FxHashMap<NodeId, u32> {
    type_levels_from(&pag.types().levels(), pag, queries)
}

/// [`type_levels`] with the per-type level table precomputed. The table is
/// query-independent (one `pag.types().levels()` pass per PAG), so callers
/// issuing many schedules over one PAG — the schedule cache — compute it
/// once and project per query set.
pub fn type_levels_from(
    all_levels: &[u32],
    pag: &Pag,
    queries: &[NodeId],
) -> FxHashMap<NodeId, u32> {
    queries
        .iter()
        .map(|&q| (q, all_levels[pag.node(q).ty.index()]))
        .collect()
}

/// A group's scheduling key: its maximum member type level. Groups are
/// issued in *decreasing* max level, which is increasing dependence depth
/// `DD = 1/L` (the paper's order).
pub fn group_level(levels: &FxHashMap<NodeId, u32>, members: &[NodeId]) -> u32 {
    members
        .iter()
        .filter_map(|m| levels.get(m).copied())
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
        let groups = Groups::build(&pag, &ids);
        let cd = connection_distances(&pag, &groups);
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
        let groups = Groups::build(&pag, &[x, y, z]);
        let cd = connection_distances(&pag, &groups);
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
        let lv = type_levels(&pag, &[o, i, u, k]);
        assert_eq!(lv[&o], 1);
        assert_eq!(lv[&i], 2);
        assert_eq!(lv[&u], 3);
        assert_eq!(lv[&k], 0, "primitive type has level 0");
        assert_eq!(group_level(&lv, &[o, i, u]), 3);
        assert_eq!(group_level(&lv, &[k]), 0);
        assert_eq!(group_level(&lv, &[]), 0);
    }
}
