//! PAG edges: the seven statement kinds of the paper's Fig. 1.
//!
//! Every edge is oriented in the direction of its **value flow**: the paper
//! writes `l1 <-kind- l2`, which we store as `Edge { src: l2, dst: l1 }`.
//!
//! * `New`: `l1 <-new- o` — object `o` flows into `l1` (`l1 = new T()`).
//! * `AssignLocal`: `l1 <-assign_l- l2` — `l1 = l2`, both locals.
//! * `AssignGlobal`: `g <-assign_g- v` or `v <-assign_g- g` — an assignment
//!   with at least one global side; traversals clear the calling context on
//!   these (globals are context-insensitive).
//! * `Load(f)`: `l1 <-ld(f)- l2` — `l1 = l2.f`; `src` is the **base** `l2`.
//! * `Store(f)`: `l1 <-st(f)- l2` — `l1.f = l2`; `dst` is the **base** `l1`.
//! * `Param(i)`: actual-to-formal parameter passing at call site `i`.
//! * `Ret(i)`: return-value assignment at call site `i`.

use crate::ids::{CallSiteId, FieldId, NodeId};

/// The label of a PAG edge.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Allocation: object flows to variable.
    New,
    /// Local assignment (`assign_l`).
    AssignLocal,
    /// Assignment involving at least one global (`assign_g`).
    AssignGlobal,
    /// Field load `dst = src.f`; `src` is the base variable.
    Load(FieldId),
    /// Field store `dst.f = src`; `dst` is the base variable.
    Store(FieldId),
    /// Parameter passing at call site `i` (actual → formal).
    Param(CallSiteId),
    /// Return-value flow at call site `i` (callee return local → caller).
    Ret(CallSiteId),
}

/// The payload-free discriminant of an [`EdgeKind`] — the unit the frozen
/// CSR groups each node's edge range by. Variants are ordered exactly as
/// the canonical edge sort lays them out, so `class as usize` indexes the
/// per-kind sub-range table directly.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum EdgeClass {
    /// Allocation edges.
    New = 0,
    /// Local assignments.
    AssignLocal = 1,
    /// Global assignments.
    AssignGlobal = 2,
    /// Field loads (any field).
    Load = 3,
    /// Field stores (any field).
    Store = 4,
    /// Parameter passing (any call site).
    Param = 5,
    /// Return-value flow (any call site).
    Ret = 6,
}

/// Number of [`EdgeClass`] variants (size of the per-node sub-range table).
pub(crate) const EDGE_CLASSES: usize = 7;

impl EdgeKind {
    /// The payload-free class of this kind (see [`EdgeClass`]).
    #[inline]
    pub(crate) fn class(self) -> EdgeClass {
        match self {
            EdgeKind::New => EdgeClass::New,
            EdgeKind::AssignLocal => EdgeClass::AssignLocal,
            EdgeKind::AssignGlobal => EdgeClass::AssignGlobal,
            EdgeKind::Load(_) => EdgeClass::Load,
            EdgeKind::Store(_) => EdgeClass::Store,
            EdgeKind::Param(_) => EdgeClass::Param,
            EdgeKind::Ret(_) => EdgeClass::Ret,
        }
    }

    /// Whether the edge participates in the `direct` relation used for query
    /// grouping (paper grammar (5)): assignments, parameters and returns,
    /// but *not* loads/stores (no direct reachability between their ends)
    /// and not `new` edges (grouping is over variables).
    #[inline]
    pub fn is_direct(self) -> bool {
        matches!(
            self,
            EdgeKind::AssignLocal | EdgeKind::AssignGlobal | EdgeKind::Param(_) | EdgeKind::Ret(_)
        )
    }

    /// The field accessed, for `Load`/`Store` edges.
    #[inline]
    pub fn field(self) -> Option<FieldId> {
        match self {
            EdgeKind::Load(f) | EdgeKind::Store(f) => Some(f),
            _ => None,
        }
    }

    /// The call site, for `Param`/`Ret` edges.
    #[inline]
    pub fn call_site(self) -> Option<CallSiteId> {
        match self {
            EdgeKind::Param(i) | EdgeKind::Ret(i) => Some(i),
            _ => None,
        }
    }

    /// A short label used in DOT dumps and debug output.
    pub fn label(self) -> String {
        match self {
            EdgeKind::New => "new".to_string(),
            EdgeKind::AssignLocal => "assign_l".to_string(),
            EdgeKind::AssignGlobal => "assign_g".to_string(),
            EdgeKind::Load(f) => format!("ld({f})"),
            EdgeKind::Store(f) => format!("st({f})"),
            EdgeKind::Param(i) => format!("param_{i}"),
            EdgeKind::Ret(i) => format!("ret_{i}"),
        }
    }
}

/// A directed PAG edge, oriented in the direction of value flow
/// (`src` flows to `dst`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source of value flow (the paper's right-hand node `l2`/`o`).
    pub src: NodeId,
    /// Destination of value flow (the paper's left-hand node `l1`).
    pub dst: NodeId,
    /// The edge label.
    pub kind: EdgeKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_relation_membership() {
        assert!(EdgeKind::AssignLocal.is_direct());
        assert!(EdgeKind::AssignGlobal.is_direct());
        assert!(EdgeKind::Param(CallSiteId(0)).is_direct());
        assert!(EdgeKind::Ret(CallSiteId(0)).is_direct());
        assert!(!EdgeKind::New.is_direct());
        assert!(!EdgeKind::Load(FieldId(0)).is_direct());
        assert!(!EdgeKind::Store(FieldId(0)).is_direct());
    }

    #[test]
    fn accessors() {
        assert_eq!(EdgeKind::Load(FieldId(4)).field(), Some(FieldId(4)));
        assert_eq!(EdgeKind::Store(FieldId(2)).field(), Some(FieldId(2)));
        assert_eq!(EdgeKind::New.field(), None);
        assert_eq!(
            EdgeKind::Param(CallSiteId(9)).call_site(),
            Some(CallSiteId(9))
        );
        assert_eq!(
            EdgeKind::Ret(CallSiteId(1)).call_site(),
            Some(CallSiteId(1))
        );
        assert_eq!(EdgeKind::AssignLocal.call_site(), None);
    }

    #[test]
    fn labels() {
        assert_eq!(EdgeKind::New.label(), "new");
        assert_eq!(EdgeKind::Load(FieldId(1)).label(), "ld(f1)");
        assert_eq!(EdgeKind::Param(CallSiteId(17)).label(), "param_cs17");
    }
}
