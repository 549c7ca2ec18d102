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
use parcfl_pag::NodeId;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An immutable call-site stack. `push`/`pop` return new contexts.
///
/// A thin shared handle, 8 bytes: `None` is the empty context, and a
/// non-empty stack is one counted allocation, so a clone is a
/// reference-count bump and every answer a lane materialises holds the
/// lane's one copy of each call string (DESIGN.md §8). No handle holds an
/// empty stack, so the derived `Eq` and `Ord` compare contents, `∅`
/// first, exactly as the `Vec<u32>` this replaces did.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ctx(Option<Arc<Box<[u32]>>>);

impl Ctx {
    /// The empty context (a query's starting context, written `∅`).
    pub fn empty() -> Self {
        Ctx(None)
    }

    /// Builds a context from a bottom-to-top call-site stack.
    pub fn from_stack(stack: Vec<u32>) -> Ctx {
        Ctx((!stack.is_empty()).then(|| Arc::new(stack.into_boxed_slice())))
    }

    /// The bottom-to-top call-site stack.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        self.0.as_ref().map_or(&[], |s| &s[..])
    }

    /// Materialises an interned id back into an owned call string.
    pub fn materialize(interner: &CtxInterner, id: CtxId) -> Ctx {
        Ctx::from_stack(interner.stack_of(id))
    }
}

/// Hashes the stack as the `Vec<u32>` this type replaces did, so
/// hash-ordered iteration over contexts does not depend on the
/// representation.
impl Hash for Ctx {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("stack", &self.as_slice())
            .finish()
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

impl fmt::Display for Ctx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.as_slice().iter().enumerate() {
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
        // A lane pushes and pops interned ids and materialises the result.
        let t = CtxInterner::new();
        let c1 = t.intern(CtxId::EMPTY, 3);
        let c2 = t.intern(c1, 7);
        let at = |id| Ctx::materialize(&t, id);
        assert_eq!(at(c2).as_slice(), &[3, 7]);
        assert_eq!(t.top(c2), Some(7));
        assert_eq!(at(t.parent(c2)), at(c1));
        assert_eq!(at(t.parent(c1)), Ctx::empty());
        assert_eq!(
            at(c1).as_slice(),
            &[3],
            "a push leaves its parent as it was"
        );
    }

    #[test]
    fn backward_param_matching() {
        let t = CtxInterner::new();
        let (i, j) = (5, 6);
        // What a backward `param_i` step reads (the solver's `Pop`): an
        // empty context has no top to match and stays empty (partially
        // balanced paths are allowed) …
        assert_eq!(t.top(CtxId::EMPTY), None);
        assert_eq!(t.parent(CtxId::EMPTY), CtxId::EMPTY);
        // … a top equal to the edge's site is popped, any other top makes
        // the path unrealisable.
        let c = t.intern(CtxId::EMPTY, i);
        assert_eq!(t.top(c), Some(i));
        assert_eq!(t.parent(c), CtxId::EMPTY);
        assert_ne!(t.top(c), Some(j), "mismatched site is unrealisable");
    }

    #[test]
    fn display_and_order() {
        let c = Ctx::from_stack(vec![1, 2]);
        assert_eq!(c.to_string(), "[1,2]");
        assert_eq!(Ctx::empty().to_string(), "[]");
        assert!(Ctx::empty() < c);
    }

    #[test]
    fn intern_materialize_roundtrip() {
        let t = CtxInterner::new();
        let c = Ctx::from_stack(vec![4, 9]);
        let id = t.intern_stack(c.as_slice());
        assert_eq!(Ctx::materialize(&t, id), c);
        assert_eq!(Ctx::materialize(&t, CtxId::EMPTY), Ctx::empty());
        // The interned pop agrees with the call string's.
        assert_eq!(t.parent(id), t.intern_stack(&[4]));
        assert_eq!(t.top(id), Some(9));
        assert_eq!(c.as_slice(), &[4, 9]);
    }

    #[test]
    fn hash_equality_by_content() {
        use std::collections::HashSet;
        let a = Ctx::from_stack(vec![1]);
        let b = Ctx::from_stack(vec![1]);
        let mut s = HashSet::new();
        s.insert(a);
        assert!(!s.insert(b), "structurally equal contexts collide");
    }
}

#[cfg(test)]
mod handle_tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::BuildHasher;

    #[test]
    fn layout_is_pinned() {
        use std::mem::size_of;
        assert_eq!(size_of::<Ctx>(), 8);
        assert_eq!(size_of::<(NodeId, Ctx)>(), 16);
        assert_eq!(size_of::<crate::Answer>(), 16);
    }

    /// The context a lane materialises for `stack` from its interned id.
    fn pushed(stack: &[u32]) -> Ctx {
        let t = CtxInterner::new();
        Ctx::materialize(&t, t.intern_stack(stack))
    }

    proptest! {
        /// Every trait `Ctx` implements reads as the `Vec<u32>` it
        /// replaces, however the context was built.
        #[test]
        fn reads_as_a_vec(
            a in proptest::collection::vec(0u32..3, 0..4),
            b in proptest::collection::vec(0u32..3, 0..4),
        ) {
            let hasher = std::collections::hash_map::RandomState::new();
            let (ca, cb) = (Ctx::from_stack(a.clone()), pushed(&b));
            prop_assert_eq!(&pushed(&a), &ca);
            prop_assert_eq!(ca == cb, a == b);
            prop_assert_eq!(ca.cmp(&cb), a.cmp(&b));
            prop_assert_eq!(ca.partial_cmp(&cb), a.partial_cmp(&b));
            prop_assert_eq!(hasher.hash_one(&ca), hasher.hash_one(&a));
            prop_assert_eq!(hasher.hash_one(&cb), hasher.hash_one(&b));
            let display = |v: &[u32]| {
                let sites: Vec<String> = v.iter().map(u32::to_string).collect();
                format!("[{}]", sites.join(","))
            };
            prop_assert_eq!(ca.to_string(), display(&a));
            prop_assert_eq!(format!("{ca:?}"), format!("Ctx {{ stack: {a:?} }}"));
            prop_assert_eq!(format!("{cb:?}"), format!("Ctx {{ stack: {b:?} }}"));
            prop_assert_eq!(ca == Ctx::empty(), a.is_empty());
        }
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;

    #[test]
    fn deep_stacks_behave() {
        let t = CtxInterner::new();
        let deep = (0..1000).fold(CtxId::EMPTY, |c, site| t.intern(c, site));
        let c = Ctx::materialize(&t, deep);
        assert_eq!(c.as_slice().len(), 1000);
        assert_eq!(c.as_slice().last(), Some(&999));
        assert_eq!((0..1000).fold(deep, |c, _| t.parent(c)), CtxId::EMPTY);
    }
}
