//! Graphviz DOT export for PAGs — debugging aid mirroring the paper's
//! Fig. 2(b) drawings.

use crate::graph::Pag;
use crate::node::NodeKind;
use std::fmt::Write as _;

/// Renders the PAG in Graphviz DOT syntax. Objects are drawn as boxes,
/// globals as diamonds, locals as ellipses; edges carry their labels.
pub fn to_dot(pag: &Pag) -> String {
    let mut out = String::new();
    out.push_str("digraph pag {\n  rankdir=LR;\n");
    for n in pag.node_ids() {
        let info = pag.node(n);
        let shape = match info.kind {
            NodeKind::Object { .. } => "box",
            NodeKind::Global => "diamond",
            NodeKind::Local { .. } => "ellipse",
        };
        let name = if info.name.is_empty() {
            format!("{n}")
        } else {
            info.name.to_string()
        };
        let _ = writeln!(
            out,
            "  {} [label=\"{}\", shape={}];",
            n.raw(),
            escape(&name),
            shape
        );
    }
    for e in pag.edges() {
        let _ = writeln!(
            out,
            "  {} -> {} [label=\"{}\"];",
            e.src.raw(),
            e.dst.raw(),
            escape(&e.kind.label())
        );
    }
    out.push_str("}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::EdgeKind;
    use crate::graph::PagBuilder;
    use crate::ids::TypeId;
    use crate::node::{NodeInfo, NodeKind};

    #[test]
    fn renders_nodes_and_edges() {
        let mut b = PagBuilder::new();
        let m = b.add_method("main");
        let o = b.add_node(NodeInfo {
            kind: NodeKind::Object { method: m },
            ty: TypeId(0),
            name: "o1".into(),
            is_application: true,
        });
        let x = b.add_node(NodeInfo {
            kind: NodeKind::Local { method: m },
            ty: TypeId(0),
            name: "x\"q".into(), // exercises escaping
            is_application: true,
        });
        b.add_edge(o, x, EdgeKind::New);
        let dot = to_dot(&b.freeze());
        assert!(dot.starts_with("digraph pag {"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("shape=ellipse"));
        assert!(dot.contains("label=\"new\""));
        assert!(dot.contains("x\\\"q"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
