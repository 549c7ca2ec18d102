//! Summary statistics over a frozen PAG (the structural columns of the
//! paper's Table I).

use crate::edge::EdgeKind;
use crate::graph::Pag;

/// Structural statistics of a PAG.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PagStats {
    /// Total node count (Table I column "#Nodes").
    pub nodes: usize,
    /// Total edge count (Table I column "#Edges").
    pub edges: usize,
    /// Local-variable nodes.
    pub locals: usize,
    /// Global-variable nodes.
    pub globals: usize,
    /// Object nodes.
    pub objects: usize,
    /// `new` edges.
    pub new_edges: usize,
    /// `assign_l` edges.
    pub assign_local: usize,
    /// `assign_g` edges.
    pub assign_global: usize,
    /// `ld(f)` edges.
    pub loads: usize,
    /// `st(f)` edges.
    pub stores: usize,
    /// `param_i` edges.
    pub params: usize,
    /// `ret_i` edges.
    pub rets: usize,
    /// Call sites.
    pub call_sites: usize,
    /// Methods.
    pub methods: usize,
}

impl PagStats {
    /// Computes statistics for `pag`.
    pub fn of(pag: &Pag) -> Self {
        let mut s = PagStats {
            nodes: pag.node_count(),
            edges: pag.edge_count(),
            call_sites: pag.call_site_count(),
            methods: pag.method_count(),
            ..PagStats::default()
        };
        for n in pag.node_ids() {
            let k = pag.kind(n);
            if k.is_local() {
                s.locals += 1;
            } else if k.is_global() {
                s.globals += 1;
            } else {
                s.objects += 1;
            }
        }
        for e in pag.edges() {
            match e.kind {
                EdgeKind::New => s.new_edges += 1,
                EdgeKind::AssignLocal => s.assign_local += 1,
                EdgeKind::AssignGlobal => s.assign_global += 1,
                EdgeKind::Load(_) => s.loads += 1,
                EdgeKind::Store(_) => s.stores += 1,
                EdgeKind::Param(_) => s.params += 1,
                EdgeKind::Ret(_) => s.rets += 1,
            }
        }
        s
    }
}

impl std::fmt::Display for PagStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodes={} (locals={}, globals={}, objects={}), edges={} \
             (new={}, assign_l={}, assign_g={}, ld={}, st={}, param={}, ret={}), \
             methods={}, call_sites={}",
            self.nodes,
            self.locals,
            self.globals,
            self.objects,
            self.edges,
            self.new_edges,
            self.assign_local,
            self.assign_global,
            self.loads,
            self.stores,
            self.params,
            self.rets,
            self.methods,
            self.call_sites,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PagBuilder;
    use crate::ids::TypeId;
    use crate::node::{NodeInfo, NodeKind};

    #[test]
    fn counts_by_kind() {
        let mut b = PagBuilder::new();
        let m = b.add_method("m");
        let f = b.types_mut().add_field("f");
        let node = |b: &mut PagBuilder, kind| {
            b.add_node(NodeInfo {
                kind,
                ty: TypeId(0),
                name: String::new().into(),
                is_application: false,
            })
        };
        let o = node(&mut b, NodeKind::Object { method: m });
        let l1 = node(&mut b, NodeKind::Local { method: m });
        let l2 = node(&mut b, NodeKind::Local { method: m });
        let g = node(&mut b, NodeKind::Global);
        b.add_edge(o, l1, EdgeKind::New);
        b.add_edge(l1, l2, EdgeKind::AssignLocal);
        b.add_edge(l2, g, EdgeKind::AssignGlobal);
        b.add_edge(l1, l2, EdgeKind::Load(f));
        let i = b.fresh_call_site();
        b.add_edge(l2, l1, EdgeKind::Param(i));
        let s = PagStats::of(&b.freeze());
        assert_eq!(s.nodes, 4);
        assert_eq!(s.locals, 2);
        assert_eq!(s.globals, 1);
        assert_eq!(s.objects, 1);
        assert_eq!(s.edges, 5);
        assert_eq!(s.new_edges, 1);
        assert_eq!(s.assign_local, 1);
        assert_eq!(s.assign_global, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.params, 1);
        assert_eq!(s.stores, 0);
        assert_eq!(s.call_sites, 1);
        assert_eq!(s.methods, 1);
        // Display must mention every count without panicking.
        let txt = s.to_string();
        assert!(txt.contains("nodes=4"));
        assert!(txt.contains("param=1"));
    }
}
