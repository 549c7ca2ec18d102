//! Calling contexts: call-site strings manipulated during CFL-reachability
//! traversals (the `c` of `PointsTo(l, c)`).
//!
//! The context is a stack of call sites. A backward (`PointsTo`) traversal
//! pushes on `ret_i` edges and matches/pops on `param_i` edges; a forward
//! (`FlowsTo`) traversal does the opposite. Matching allows a partially
//! balanced prefix: when the stack is empty, any `param_i` (backward) or
//! `ret_i` (forward) may be taken, because "a realizable path may not start
//! and end in the same method" (paper Section II-B2).
//!
//! Call-graph recursion cycles are collapsed before extraction, so stacks
//! are bounded by the acyclic call depth of the program.
//!
//! `Ctx` is the *materialised* representation: what appears in answers,
//! traces and display output, with lexicographic (bottom-to-top) ordering.
//! The solver's hot loops do not manipulate `Ctx` values — they traverse
//! `Copy` [`CtxId`]s hash-consed by a shared [`CtxInterner`], and
//! materialise back into `Ctx` only at the query boundary (see DESIGN.md
//! §8).

use parcfl_concurrent::{CtxId, CtxInterner};
use parcfl_pag::{CallSiteId, NodeId};

/// An immutable call-site stack. `push`/`pop` return new contexts.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ctx {
    // Bottom-to-top order; top is the last element.
    stack: Vec<u32>,
}

impl Ctx {
    /// The empty context (a query's starting context, written `∅`).
    pub fn empty() -> Self {
        Ctx::default()
    }

    /// Whether the stack is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// The topmost call site, if any.
    #[inline]
    pub fn top(&self) -> Option<CallSiteId> {
        self.stack.last().map(|&i| CallSiteId::new(i))
    }

    /// Stack depth.
    #[inline]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Returns a context with `site` pushed on top.
    #[must_use]
    pub fn push(&self, site: CallSiteId) -> Ctx {
        let mut stack = Vec::with_capacity(self.stack.len() + 1);
        stack.extend_from_slice(&self.stack);
        stack.push(site.raw());
        Ctx { stack }
    }

    /// Returns a context with the top removed. Popping the empty context
    /// yields the empty context (callers guard with [`Ctx::top`] first).
    #[must_use]
    pub fn pop(&self) -> Ctx {
        let mut stack = self.stack.clone();
        stack.pop();
        Ctx { stack }
    }

    /// Builds a context from a bottom-to-top call-site stack.
    pub fn from_stack(stack: Vec<u32>) -> Ctx {
        Ctx { stack }
    }

    /// The bottom-to-top call-site stack.
    pub fn as_slice(&self) -> &[u32] {
        &self.stack
    }

    /// Interns this call string into `interner`, returning its `Copy` id.
    pub fn intern(&self, interner: &CtxInterner) -> CtxId {
        interner.intern_stack(&self.stack)
    }

    /// Materialises an interned id back into an owned call string.
    pub fn materialize(interner: &CtxInterner, id: CtxId) -> Ctx {
        Ctx {
            stack: interner.stack_of(id),
        }
    }
}

/// Sorts interned states into the canonical order: by node, then by call
/// string, as `cmp_stacks` — [`CtxInterner::cmp_stacks`] or a lane's
/// [`parcfl_concurrent::CtxMirror::cmp_stacks`] — orders contexts: the
/// order the materialised `(NodeId, Ctx)` pairs sort in, whatever ids
/// interning assigned. The solver puts every result set a nested
/// traversal iterates into this order, which is what keeps traversal
/// order, and with it every step count, independent of interning order
/// (DESIGN.md §8). Unstable is enough: equal elements are identical.
pub fn sort_canonical(
    v: &mut [(NodeId, CtxId)],
    mut cmp_stacks: impl FnMut(CtxId, CtxId) -> std::cmp::Ordering,
) {
    v.sort_unstable_by(|&(n1, c1), &(n2, c2)| n1.cmp(&n2).then_with(|| cmp_stacks(c1, c2)));
}

impl std::fmt::Display for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.stack.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_top() {
        let c = Ctx::empty();
        assert!(c.is_empty());
        assert_eq!(c.top(), None);
        let c1 = c.push(CallSiteId::new(3));
        let c2 = c1.push(CallSiteId::new(7));
        assert_eq!(c2.depth(), 2);
        assert_eq!(c2.top(), Some(CallSiteId::new(7)));
        assert_eq!(c2.pop(), c1);
        assert_eq!(c1.pop(), c);
        assert_eq!(c.pop(), c, "popping empty stays empty");
        // push is persistent: c1 unchanged.
        assert_eq!(c1.depth(), 1);
    }

    #[test]
    fn backward_param_matching() {
        let i = CallSiteId::new(5);
        let j = CallSiteId::new(6);
        let empty = Ctx::empty();
        // What a backward `param_i` step reads (the solver's `Pop`): an
        // empty context has no top to match and stays empty (partially
        // balanced paths are allowed) …
        assert_eq!(empty.top(), None);
        assert_eq!(empty.pop(), empty);
        // … a top equal to the edge's site is popped, any other top makes
        // the path unrealisable.
        let c = empty.push(i);
        assert_eq!(c.top(), Some(i));
        assert_eq!(c.pop(), empty);
        assert_ne!(c.top(), Some(j), "mismatched site is unrealisable");
    }

    #[test]
    fn display_and_order() {
        let c = Ctx::empty()
            .push(CallSiteId::new(1))
            .push(CallSiteId::new(2));
        assert_eq!(c.to_string(), "[1,2]");
        assert_eq!(Ctx::empty().to_string(), "[]");
        assert!(Ctx::empty() < c);
    }

    #[test]
    fn intern_materialize_roundtrip() {
        let t = CtxInterner::new();
        let c = Ctx::empty()
            .push(CallSiteId::new(4))
            .push(CallSiteId::new(9));
        let id = c.intern(&t);
        assert_eq!(Ctx::materialize(&t, id), c);
        assert_eq!(Ctx::empty().intern(&t), CtxId::EMPTY);
        assert_eq!(Ctx::materialize(&t, CtxId::EMPTY), Ctx::empty());
        // Interned push/pop agree with materialised push/pop.
        assert_eq!(t.parent(id), c.pop().intern(&t));
        assert_eq!(t.top(id), Some(9));
        assert_eq!(Ctx::from_stack(vec![4, 9]), c);
        assert_eq!(c.as_slice(), &[4, 9]);
    }

    #[test]
    fn hash_equality_by_content() {
        use std::collections::HashSet;
        let a = Ctx::empty().push(CallSiteId::new(1));
        let b = Ctx::empty().push(CallSiteId::new(1));
        let mut s = HashSet::new();
        s.insert(a);
        assert!(!s.insert(b), "structurally equal contexts collide");
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;

    #[test]
    fn deep_stacks_behave() {
        let mut c = Ctx::empty();
        for i in 0..1000 {
            c = c.push(CallSiteId::new(i));
        }
        assert_eq!(c.depth(), 1000);
        assert_eq!(c.top(), Some(CallSiteId::new(999)));
        for _ in 0..1000 {
            c = c.pop();
        }
        assert!(c.is_empty());
    }
}
