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
//! The collapse reads the extracted graph's edge array only, so that graph
//! builds neither offset table nor its outgoing side: the SCC walks a
//! transient CSR of its `assign_l` edges by destination, read off
//! [`Pag::edges`] (dst-major, so each node's sources arrive in order) and
//! dropped before the quotient. Each component is named by its smallest
//! member, which keeps most edges in canonical order under the renaming,
//! and [`Pag::quotient`] merges the few it displaces back in rather than
//! sorting them all again.
//!
//! The collapsed node table is the extracted one's entries cloned, and a
//! [`parcfl_pag::NodeName`] clone shares the extracted graph's one text
//! of names: the collapse copies no string. Only a merged cycle's
//! representative gets a name of its own, its smallest member's with
//! `+k` for the `k` members merged into it.

use parcfl_pag::algo::tarjan_scc;
use parcfl_pag::{EdgeKind, NodeId, NodeInfo, Pag};

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
/// `assign_l` self-loops. The SCC runs over each node's incoming
/// `assign_l` sources — the reversed graph has the same components — in
/// a CSR read off [`Pag::edges`] (`n + 1` starts and one `u32` per
/// `assign_l` edge), so the uncollapsed graph builds no offset table and
/// no outgoing side. The CSR is dropped once the components are known.
/// With neither a cycle nor a self-loop the graph comes back as a clone
/// with an identity remap; otherwise the SCC tables are dropped too and
/// the quotient is frozen once.
pub fn collapse_assign_cycles(pag: &Pag) -> Collapsed {
    let n = pag.node_count();
    let (starts, srcs) = assign_sources(pag);
    let assigns = |v: usize| &srcs[starts[v] as usize..starts[v + 1] as usize];
    let scc = tarjan_scc(n, |v| assigns(v).iter().map(|&u| u as usize));
    let self_loop = |v: usize| assigns(v).contains(&(v as u32));
    let acyclic = scc.component_count() == n && !(0..n).any(self_loop);
    drop((starts, srcs));
    if acyclic {
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
                info.name = format!("{}+{}", info.name, members.len() - 1).into();
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

/// The sources of every node's incoming `assign_l` edges, as a CSR: node
/// `v`'s are `srcs[starts[v] .. starts[v + 1]]`, in the order
/// [`Pag::edges`] holds them.
fn assign_sources(pag: &Pag) -> (Vec<u32>, Vec<u32>) {
    let n = pag.node_count();
    let assigns = || {
        pag.edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::AssignLocal)
    };
    let mut starts = vec![0u32; n + 1];
    for e in assigns() {
        starts[e.dst.index() + 1] += 1;
    }
    for v in 1..=n {
        starts[v] += starts[v - 1];
    }
    let mut srcs = Vec::with_capacity(starts[n] as usize);
    srcs.extend(assigns().map(|e| e.src.raw()));
    (starts, srcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract;
    use crate::parser::parse;
    use parcfl_pag::{EdgeClass, NodeKind, PagBuilder, TypeId};
    use proptest::prelude::*;

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

    /// The extracted graph writes every name into one text, one after the
    /// other, and the collapse shares that text: an unmerged node's name is
    /// the extracted node's, to the byte address; only a merged
    /// representative gets a name of its own, `x+k`.
    #[test]
    fn collapse_shares_the_extracted_name_text() {
        let pag = pag_of(
            "class Obj { field f: Obj; }
             class A {
               static field g: Obj;
               method m(p: Obj): Obj {
                 var x: Obj; var y: Obj; var z: Obj;
                 x = new Obj; y = x; x = y; z = y; z.f = p; A.g = z;
                 return z;
               }
               method n() { var a: Obj; var b: Obj; a = call this.m(b); }
             }",
        );
        let name = |g: &Pag, v: NodeId| g.node(v).name.as_str().as_ptr();
        for w in pag.node_ids().collect::<Vec<_>>().windows(2) {
            let end = name(&pag, w[0]).wrapping_add(pag.node(w[0]).name.len());
            assert_eq!(
                end,
                name(&pag, w[1]),
                "{:?} follows {:?} in one text",
                w[1],
                w[0]
            );
        }
        let c = collapse_assign_cycles(&pag);
        assert_eq!(c.merged_nodes, 1);
        let members = |r: NodeId| c.remap.iter().filter(|&&to| to == r).count();
        for v in pag.node_ids() {
            let r = c.remap[v.index()];
            if members(r) == 1 {
                assert_eq!(name(&pag, v), name(&c.pag, r), "{v:?}'s name is copied");
            } else if !c.remap[..v.index()].contains(&r) {
                // The cycle's smallest member names it.
                assert_eq!(
                    c.pag.node(r).name,
                    format!("{}+1", pag.node(v).name).as_str()
                );
            }
        }
    }

    /// Whether `pag` has built its incoming offset table, read off its
    /// `Debug` form (an unbuilt `OnceLock` prints `<uninit>`).
    fn incoming_built(pag: &Pag) -> bool {
        !format!("{pag:?}").contains("in_kind: OnceLock(<uninit>)")
    }

    #[test]
    fn collapse_leaves_the_incoming_table_unbuilt() {
        let pag = pag_of(
            "class Obj { }
             class A {
               method m() {
                 var x: Obj; var y: Obj; var z: Obj;
                 x = new Obj; y = x; x = y; z = y; z = z;
               }
             }",
        );
        assert!(!incoming_built(&pag));
        let c = collapse_assign_cycles(&pag);
        assert_eq!(c.merged_nodes, 1);
        assert!(!incoming_built(&pag), "the SCC reads the edge array only");
        assert!(
            !incoming_built(&c.pag),
            "the quotient leaves it to its first read"
        );
        pag.incoming(NodeId::new(0));
        assert!(incoming_built(&pag), "the probe sees a built table");
    }

    /// The remap the collapse computed before it read the edge array: an
    /// SCC over the incoming `assign_l` slices, each component named by its
    /// smallest member, in that member's order.
    fn remap_over_incoming_slices(pag: &Pag) -> Vec<NodeId> {
        let n = pag.node_count();
        let assigns = |v: usize| pag.incoming_kind(NodeId::from_usize(v), EdgeClass::AssignLocal);
        let scc = tarjan_scc(n, |v| assigns(v).iter().map(|e| e.src.index()));
        let mut rep_of: Vec<Option<NodeId>> = vec![None; scc.component_count()];
        let mut next = 0;
        let mut node_of = |v: usize| {
            *rep_of[scc.component_of(v)].get_or_insert_with(|| {
                next += 1;
                NodeId::from_usize(next - 1)
            })
        };
        (0..n).map(&mut node_of).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over random graphs dense in `assign_l` edges — cycles,
        /// self-loops and nodes without any included — the collapse's
        /// components are those of an SCC over the incoming slices, and
        /// its input's offset table stays unbuilt.
        #[test]
        fn remap_is_the_one_over_incoming_slices(
            (n, raw) in (1usize..40).prop_flat_map(|n| {
                let edge = (0..n as u32, 0..n as u32, 0u8..4);
                (Just(n), proptest::collection::vec(edge, 0..120))
            }),
        ) {
            let mut b = PagBuilder::new();
            let m = b.add_method("m");
            let f = b.types_mut().add_field("f");
            for v in 0..n {
                let kind = NodeKind::Local { method: m };
                let name = format!("n{v}").into();
                b.add_node(NodeInfo { kind, ty: TypeId::new(0), name, is_application: v % 2 == 0 });
            }
            for &(s, d, k) in &raw {
                let kind = match k {
                    0 => EdgeKind::AssignGlobal,
                    1 => EdgeKind::Load(f),
                    _ => EdgeKind::AssignLocal,
                };
                b.add_edge(NodeId::new(s), NodeId::new(d), kind);
            }
            let pag = b.freeze();
            let c = collapse_assign_cycles(&pag);
            prop_assert!(!incoming_built(&pag));
            let want = remap_over_incoming_slices(&pag);
            prop_assert_eq!(&c.remap, &want);
            let components = want.iter().map(|v| v.index() + 1).max().unwrap_or(0);
            prop_assert_eq!(c.merged_nodes, n - components);
            prop_assert_eq!(c.pag.node_count(), components);
        }
    }
}
