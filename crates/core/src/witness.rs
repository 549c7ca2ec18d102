//! Witness reconstruction: *why* does `x` point to `o`?
//!
//! When tracing is enabled, the top-level `PointsTo` traversal records, for
//! every `(node, context)` state it enqueues, the state it was discovered
//! from and the edge that connected them. From that parent forest a witness
//! — the chain of PAG edges from the queried variable back to the
//! allocation site — can be reconstructed for any object in the answer.
//!
//! Heap hops (load/store pairs matched through an alias) appear as a single
//! `alias(f)` step: the nested `PointsTo`/`FlowsTo` calls that established
//! the alias are not expanded (they can be queried separately).

use crate::context::Ctx;
use crate::solver::CtxNode;
use parcfl_concurrent::FxHashMap;
use parcfl_pag::{NodeId, Pag};

/// How one traversal state was reached from its parent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Via {
    /// The root of the query.
    Root,
    /// A direct PAG edge (label as rendered by `EdgeKind::label`).
    Edge(String),
    /// A field-matched heap hop: the state was produced by
    /// `ReachableNodes` at the parent (an `st(f)`/`ld(f)` pair bridged by
    /// an alias).
    Alias,
    /// The final hop: the object reached over its `new` edge.
    New,
    /// Terminal marker on the object itself.
    Object,
}

impl std::fmt::Display for Via {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Via::Root => write!(f, "query root"),
            Via::Edge(l) => write!(f, "{l}"),
            Via::Alias => write!(f, "alias"),
            Via::New => write!(f, "new"),
            Via::Object => write!(f, "object"),
        }
    }
}

/// The parent forest recorded during a traced query.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub(crate) parent: FxHashMap<CtxNode, (CtxNode, Via)>,
    /// For each object discovered, the variable state whose `new` edge
    /// produced it.
    pub(crate) object_from: FxHashMap<CtxNode, CtxNode>,
}

/// One step of a reconstructed witness path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct WitnessStep {
    /// The traversal state.
    pub(crate) node: NodeId,
    /// Its calling context.
    pub(crate) ctx: Ctx,
    /// How the *next* step (towards the object) is reached.
    pub(crate) via: Via,
}

/// A witness: the chain of states from the queried variable (first entry)
/// to the allocation site (last entry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// Steps from query root to the object.
    pub(crate) steps: Vec<WitnessStep>,
}

impl Witness {
    /// Renders the witness with node names from `pag`.
    pub fn render(&self, pag: &Pag) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!("{:>3}. {} {} ", i, pag.node(s.node).name, s.ctx));
            out.push_str(&format!("[{}]", s.via));
        }
        out
    }
}

impl Trace {
    /// Reconstructs the witness for `(object, ctx)` in a completed traced
    /// query, or `None` if the object was not part of the answer.
    pub fn witness(&self, object: NodeId, ctx: &Ctx) -> Option<Witness> {
        let okey = (object, ctx.clone());
        let producer = self.object_from.get(&okey)?.clone();
        // Walk the parent chain from the producing variable back to the
        // root, then reverse so the path reads root → object.
        let mut rev: Vec<WitnessStep> = Vec::new();
        let mut cur = producer;
        let mut guard = 0usize;
        loop {
            guard += 1;
            if guard > 1_000_000 {
                return None; // corrupted trace; fail soft
            }
            let (parent, via) = self.parent.get(&cur)?.clone();
            rev.push(WitnessStep {
                node: cur.0,
                ctx: cur.1.clone(),
                via: via.clone(),
            });
            if matches!(via, Via::Root) {
                break;
            }
            cur = parent;
        }
        let mut steps: Vec<WitnessStep> = rev.into_iter().rev().collect();
        // Re-orient the `via` labels: each step should describe the hop
        // towards the object (the recorded labels describe how the step was
        // reached *from its parent*, i.e. the same edge seen from the other
        // side).
        let mut vias: Vec<Via> = steps.iter().map(|s| s.via.clone()).collect();
        vias.remove(0); // drop Root
        vias.push(Via::New);
        for (s, v) in steps.iter_mut().zip(vias) {
            s.via = v;
        }
        steps.push(WitnessStep {
            node: object,
            ctx: ctx.clone(),
            via: Via::Object,
        });
        Some(Witness { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn via_display() {
        assert_eq!(Via::Root.to_string(), "query root");
        assert_eq!(Via::Edge("assign_l".into()).to_string(), "assign_l");
        assert_eq!(Via::Alias.to_string(), "alias");
        assert_eq!(Via::New.to_string(), "new");
    }

    #[test]
    fn empty_trace_has_no_witness() {
        let t = Trace::default();
        assert!(t.witness(NodeId::new(0), &Ctx::empty()).is_none());
    }
}
