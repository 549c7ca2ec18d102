//! Points-to cycle elimination (paper Section IV-A: "points-to cycles are
//! eliminated as described in \[18\]").
//!
//! Variables connected by a cycle of `assign_l` edges necessarily have
//! identical context-sensitive points-to sets (an `assign_l` edge preserves
//! the calling context in both traversal directions), so each such strongly
//! connected component is merged into a single representative node. This is
//! a precision-preserving graph shrink that removes points-to cycles before
//! any query runs.
//!
//! Only `assign_l` cycles are merged: `assign_g` edges reset the context and
//! `param`/`ret` edges manipulate it, so cycles through them are *not*
//! generally equivalence classes.
//!
//! The collapse reads the extracted graph backward only: the SCC walks its
//! incoming `assign_l` slices, so that graph never builds its outgoing
//! side. Each component is named by its smallest member, which keeps most
//! edges in canonical order under the renaming, and [`Pag::quotient`]
//! merges the few it displaces back in rather than sorting them all again.

use parcfl_pag::algo::tarjan_scc;
use parcfl_pag::{EdgeClass, NodeId, NodeInfo, Pag};

/// The output of [`collapse_assign_cycles`].
pub struct Collapsed {
    /// The shrunken graph.
    pub pag: Pag,
    /// Maps every old node id to its node in the new graph (members of a
    /// merged cycle all map to the representative).
    pub remap: Vec<NodeId>,
    /// Number of nodes eliminated by merging.
    pub merged_nodes: usize,
}

/// Merges every `assign_l`-cycle of `pag` into a single node and drops
/// `assign_l` self-loops. The SCC runs over the frozen graph's own
/// incoming `assign_l` slices — the reversed graph has the same
/// components — so the uncollapsed graph never builds its outgoing side.
/// With neither a cycle nor a self-loop the graph comes back as a clone
/// with an identity remap; otherwise the SCC tables are dropped and the
/// quotient is frozen once.
pub fn collapse_assign_cycles(pag: &Pag) -> Collapsed {
    let n = pag.node_count();
    let assigns = |v: usize| pag.incoming_kind(NodeId::from_usize(v), EdgeClass::AssignLocal);
    let scc = tarjan_scc(n, |v| assigns(v).iter().map(|e| e.src.index()));
    let self_loop = |v: usize| assigns(v).iter().any(|e| e.src.index() == v);
    if scc.component_count() == n && !(0..n).any(self_loop) {
        return Collapsed {
            pag: pag.clone(),
            remap: (0..n).map(NodeId::from_usize).collect(),
            merged_nodes: 0,
        };
    }

    // One node per component, numbered in the order of the component's
    // smallest member — the representative — so the output is
    // deterministic.
    let mut nodes: Vec<NodeInfo> = Vec::with_capacity(scc.component_count());
    let mut rep_of: Vec<Option<NodeId>> = vec![None; scc.component_count()];
    let node_of = |v: usize| {
        let c = scc.component_of(v);
        *rep_of[c].get_or_insert_with(|| {
            let members = scc.members(c);
            let mut info = pag.node(NodeId::from_usize(v)).clone();
            if members.len() > 1 {
                info.name = format!("{}+{}", info.name, members.len() - 1);
                let app = |&m: &u32| pag.node(NodeId::new(m)).is_application;
                info.is_application = members.iter().any(app);
            }
            nodes.push(info);
            NodeId::from_usize(nodes.len() - 1)
        })
    };
    let remap: Vec<NodeId> = (0..n).map(node_of).collect();
    drop((scc, rep_of));
    Collapsed {
        merged_nodes: n - nodes.len(),
        pag: pag.quotient(nodes, &remap),
        remap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use crate::parser::parse;
    use parcfl_pag::EdgeKind;

    fn pag_of(src: &str) -> Pag {
        extract(&parse(src).unwrap()).unwrap().pag
    }

    #[test]
    fn merges_assign_cycle() {
        let pag = pag_of(
            "class Obj { }
             class A {
               method m() {
                 var x: Obj; var y: Obj; var z: Obj;
                 x = new Obj;
                 y = x;
                 x = y;
                 z = y;
               }
             }",
        );
        let before = pag.node_count();
        let c = collapse_assign_cycles(&pag);
        assert_eq!(c.merged_nodes, 1); // x and y merged
        assert_eq!(c.pag.node_count(), before - 1);
        // x and y map to the same node, z does not.
        let x = pag.node_by_name("x@A.m").unwrap();
        let y = pag.node_by_name("y@A.m").unwrap();
        let z = pag.node_by_name("z@A.m").unwrap();
        assert_eq!(c.remap[x.index()], c.remap[y.index()]);
        assert_ne!(c.remap[x.index()], c.remap[z.index()]);
        // The merged node kept an incoming new edge and outgoing assign to z.
        let merged = c.remap[x.index()];
        assert!(c
            .pag
            .incoming(merged)
            .iter()
            .any(|e| e.kind == EdgeKind::New));
        assert!(c
            .pag
            .outgoing(merged)
            .iter()
            .any(|e| e.kind == EdgeKind::AssignLocal && e.dst == c.remap[z.index()]));
    }

    #[test]
    fn no_cycles_is_identity_shape() {
        let pag = pag_of(
            "class Obj { }
             class A { method m() { var x: Obj; x = new Obj; } }",
        );
        let c = collapse_assign_cycles(&pag);
        assert_eq!(c.merged_nodes, 0);
        assert_eq!(c.pag.node_count(), pag.node_count());
        assert_eq!(c.pag.edge_count(), pag.edge_count());
    }

    #[test]
    fn merged_marks_application_if_any_member_is() {
        // A cycle spanning app and lib code keeps the app flag.
        let pag = pag_of(
            "lib class Obj { }
             lib class L {
               method id(o: Obj): Obj { return o; }
             }
             app class A {
               method m(l: L) {
                 var a: Obj; var b: Obj;
                 a = new Obj;
                 a = b;
                 b = a;
               }
             }",
        );
        let c = collapse_assign_cycles(&pag);
        let a = pag.node_by_name("a@A.m").unwrap();
        assert!(c.pag.node(c.remap[a.index()]).is_application);
    }
}
