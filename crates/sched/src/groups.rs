//! Query grouping by the `direct` relation (paper Section III-C1):
//!
//! ```text
//! direct → (assign_l | assign_g | param_i | ret_i)*
//! ```
//!
//! A group is a connected component of the PAG restricted to direct edges
//! (loads and stores are excluded — there is no direct reachability between
//! their endpoints). Queries in the same group share traversal structure,
//! so they are dispatched to a thread together.

use parcfl_pag::algo::UnionFind;
use parcfl_pag::{NodeId, Pag};

/// The direct-relation components of a PAG, restricted to the query set.
#[derive(Clone, Debug)]
pub struct Groups {
    /// Query variables per component, in input order; only components that
    /// contain at least one query are kept.
    pub members: Vec<Vec<NodeId>>,
}

impl Groups {
    /// Computes components and buckets `queries` by component.
    pub fn build(pag: &Pag, queries: &[NodeId]) -> Groups {
        let n = pag.node_count();
        let mut uf = UnionFind::new(n);
        for e in pag.edges() {
            if e.kind.is_direct() {
                uf.union(e.src.index(), e.dst.index());
            }
        }
        // Bucket queries by root, keeping first-seen order of roots so the
        // result is deterministic in the input order.
        const NONE: u32 = u32::MAX;
        let mut slot_of_root = vec![NONE; n];
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        for &q in queries {
            let slot = &mut slot_of_root[uf.find(q.index())];
            if *slot == NONE {
                *slot = members.len() as u32;
                members.push(Vec::new());
            }
            members[*slot as usize].push(q);
        }
        Groups { members }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_frontend::build_pag;

    /// Whether queries `a` and `b` landed in one group.
    fn grouped(g: &Groups, a: NodeId, b: NodeId) -> bool {
        g.members.iter().any(|m| m.contains(&a) && m.contains(&b))
    }

    #[test]
    fn assign_connects_loads_do_not() {
        let src = "class Obj { }
                   class Box { field f: Obj; }
                   class A {
                     method m() {
                       var a: Obj; var b: Obj;
                       var p: Box; var x: Obj;
                       a = new Obj;
                       b = a;
                       p = new Box;
                       x = p.f;
                     }
                   }";
        let pag = build_pag(src).unwrap().pag;
        let a = pag.node_by_name("a@A.m").unwrap();
        let b = pag.node_by_name("b@A.m").unwrap();
        let p = pag.node_by_name("p@A.m").unwrap();
        let x = pag.node_by_name("x@A.m").unwrap();
        let g = Groups::build(&pag, &[a, b, p, x]);
        assert!(grouped(&g, a, b), "assign connects");
        assert!(!grouped(&g, p, x), "load does not connect base to dst");
        assert!(!grouped(&g, a, p));
        // a+b together; p alone; x alone.
        assert_eq!(g.members.len(), 3);
        assert_eq!(g.members.iter().map(|m| m.len()).sum::<usize>(), 4);
    }

    #[test]
    fn params_connect_across_methods() {
        let src = "class Obj { }
                   class A {
                     method id(o: Obj): Obj { return o; }
                     method m(x: Obj) { var r: Obj; r = call this.id(x); }
                   }";
        let pag = build_pag(src).unwrap().pag;
        let x = pag.node_by_name("x@A.m").unwrap();
        let o = pag.node_by_name("o@A.id").unwrap();
        let r = pag.node_by_name("r@A.m").unwrap();
        let g = Groups::build(&pag, &[x, o, r]);
        assert!(grouped(&g, x, o), "param edge connects actual and formal");
        assert!(grouped(&g, o, r), "ret edge connects through $ret");
        assert_eq!(g.members.len(), 1);
    }

    #[test]
    fn component_nodes_superset_of_queries() {
        // The component must include non-query nodes (e.g. $ret temps).
        let src = "class Obj { }
                   class A {
                     method id(o: Obj): Obj { return o; }
                     method m(x: Obj) { var r: Obj; r = call this.id(x); }
                   }";
        let pag = build_pag(src).unwrap().pag;
        let r = pag.node_by_name("r@A.m").unwrap();
        let ret = pag.node_by_name("$ret@A.id").unwrap();
        assert_eq!(Groups::build(&pag, &[r]).members.len(), 1);
        assert!(grouped(&Groups::build(&pag, &[r, ret]), r, ret));
    }

    #[test]
    fn empty_queries_empty_groups() {
        let pag = build_pag("class A { }").unwrap().pag;
        let g = Groups::build(&pag, &[]);
        assert!(g.members.is_empty());
    }
}
