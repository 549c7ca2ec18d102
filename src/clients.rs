//! Client-facing helpers built on the demand-driven analysis — the kinds
//! of consumers the paper's introduction motivates (alias disambiguation,
//! debugging, escape reasoning).

use parcfl_core::{Answer, JmpStore, Solver};
use parcfl_pag::{NodeId, NodeKind, Pag};

/// Three-valued verdict of a demand query: budget exhaustion means the
/// client must assume the conservative answer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Definitely within the computed relation.
    Yes,
    /// Definitely not (the analysis completed and the relation is absent).
    No,
    /// A query ran out of budget; assume the worst.
    Unknown,
}

impl Verdict {
    /// Conservative boolean: `Unknown` counts as `true`.
    pub fn must_assume(self) -> bool {
        !matches!(self, Verdict::No)
    }
}

/// A demand-driven analysis client bundling the common question shapes.
pub struct Client<'a> {
    solver: Solver<'a>,
    pag: &'a Pag,
}

impl<'a> Client<'a> {
    /// Wraps a configured solver.
    pub fn new(pag: &'a Pag, solver: Solver<'a>) -> Self {
        Client { solver, pag }
    }

    /// The objects `v` may point to, by node id (None = out of budget).
    pub fn points_to(&mut self, v: NodeId) -> Option<Vec<NodeId>> {
        self.solver.points_to_query(v, 0).answer.nodes()
    }

    /// May `a` and `b` refer to the same object?
    pub fn may_alias(&mut self, a: NodeId, b: NodeId) -> Verdict {
        let (Some(pa), Some(pb)) = (self.points_to(a), self.points_to(b)) else {
            return Verdict::Unknown;
        };
        if pa.iter().any(|o| pb.contains(o)) {
            Verdict::Yes
        } else {
            Verdict::No
        }
    }

    /// May the object allocated at `obj` flow into any global (static
    /// field)? A cheap escape-style question answered with one `FlowsTo`
    /// query.
    pub fn may_escape_to_global(&mut self, obj: NodeId) -> Verdict {
        debug_assert!(self.pag.kind(obj).is_object());
        match self.solver.flows_to_query(obj, 0).answer {
            Answer::OutOfBudget => Verdict::Unknown,
            Answer::Complete(vars) => {
                // The flowsTo set contains variables; an object escapes if
                // it reaches a global, or a local that a global assignment
                // reads (covered transitively by the traversal itself).
                if vars
                    .iter()
                    .any(|(v, _)| matches!(self.pag.kind(*v), NodeKind::Global))
                {
                    Verdict::Yes
                } else {
                    Verdict::No
                }
            }
        }
    }

    /// Can `v` be a dangling/never-assigned reference (empty points-to
    /// set)? Useful for "definitely-null" style diagnostics.
    pub fn definitely_unassigned(&mut self, v: NodeId) -> Verdict {
        match self.points_to(v) {
            None => Verdict::Unknown,
            Some(objs) if objs.is_empty() => Verdict::Yes,
            Some(_) => Verdict::No,
        }
    }
}

/// Convenience constructor over a jmp store.
pub fn client<'a>(
    pag: &'a Pag,
    cfg: &'a parcfl_core::SolverConfig,
    store: &'a dyn JmpStore,
) -> Client<'a> {
    Client::new(pag, Solver::new(pag, cfg, store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_core::{NoJmpStore, SolverConfig};

    const SRC: &str = "
        lib class Obj { }
        class A {
            static field g: Obj;
            method m() {
                var kept: Obj; var copy: Obj; var other: Obj;
                var leaked: Obj; var never: Obj;
                kept = new Obj;
                copy = kept;
                other = new Obj;
                leaked = new Obj;
                A.g = leaked;
            }
        }";

    #[test]
    fn verdicts() {
        let pag = parcfl_frontend::build_pag(SRC).unwrap().pag;
        let cfg = SolverConfig::default();
        let store = NoJmpStore;
        let mut c = client(&pag, &cfg, &store);
        let n = |name: &str| pag.node_by_name(name).unwrap();

        assert_eq!(c.may_alias(n("kept@A.m"), n("copy@A.m")), Verdict::Yes);
        assert_eq!(c.may_alias(n("kept@A.m"), n("other@A.m")), Verdict::No);
        assert!(c.may_alias(n("kept@A.m"), n("copy@A.m")).must_assume());
        assert!(!c.may_alias(n("kept@A.m"), n("other@A.m")).must_assume());

        // o3 = `leaked = new Obj` escapes via A.g; o0 = `kept` does not.
        assert_eq!(c.may_escape_to_global(n("o3@A.m")), Verdict::Yes);
        assert_eq!(c.may_escape_to_global(n("o0@A.m")), Verdict::No);

        assert_eq!(c.definitely_unassigned(n("never@A.m")), Verdict::Yes);
        assert_eq!(c.definitely_unassigned(n("kept@A.m")), Verdict::No);
    }

    #[test]
    fn unknown_on_budget_exhaustion() {
        let pag = parcfl_frontend::build_pag(SRC).unwrap().pag;
        let cfg = SolverConfig::default().with_budget(1);
        let store = NoJmpStore;
        let mut c = client(&pag, &cfg, &store);
        let copy = pag.node_by_name("copy@A.m").unwrap();
        let kept = pag.node_by_name("kept@A.m").unwrap();
        assert_eq!(c.may_alias(copy, kept), Verdict::Unknown);
        assert!(c.may_alias(copy, kept).must_assume());
        assert_eq!(c.definitely_unassigned(copy), Verdict::Unknown);
    }
}
