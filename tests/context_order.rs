//! The canonical order of interned contexts (DESIGN.md §8):
//! `CtxInterner::cmp_stacks` orders two ids as their call strings order
//! without materialising either, and `sort_canonical` therefore puts a
//! result set into one sequence whatever ids interning assigned.

use parcfl::concurrent::{CtxId, CtxInterner, CtxMirror};
use parcfl::core::context::sort_canonical;
use parcfl::core::Ctx;
use parcfl::pag::NodeId;
use proptest::collection::vec;
use proptest::prelude::*;

/// Deeper than the interner's first node-table chunk (1024 slots), so a
/// parent walk from the bottom of the spine crosses a chunk boundary.
const DEEP: u32 = 1100;

/// Call strings over a four-site alphabet: short enough that empty
/// strings, prefixes, siblings and repeats all turn up in every case.
fn strings() -> impl Strategy<Value = Vec<Vec<u32>>> {
    vec(vec(0u32..4, 0..7), 1..40)
}

/// Interns `states` in the order given, sorts the interned states and
/// materialises them.
fn sorted_through<'a>(states: impl Iterator<Item = &'a (u32, Vec<u32>)>) -> Vec<(NodeId, Ctx)> {
    let t = CtxInterner::new();
    let mut v: Vec<(NodeId, CtxId)> = states
        .map(|(n, s)| (NodeId::new(*n), t.intern_stack(s)))
        .collect();
    sort_canonical(&mut v, |a, b| t.cmp_stacks(a, b));
    v.into_iter()
        .map(|(n, c)| (n, Ctx::materialize(&t, c)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every pair of a random trie — the empty context, prefixes of one
    /// another, siblings, unrelated branches, and branches hanging off a
    /// spine deeper than one chunk — compares as the call strings do.
    #[test]
    fn cmp_stacks_is_the_call_string_order(
        strings in strings(),
        branches in vec((0u32..DEEP, 0u32..4), 1..12),
    ) {
        let t = CtxInterner::new();
        let mut ids = vec![CtxId::EMPTY];
        ids.extend(strings.iter().map(|s| t.intern_stack(s)));
        // The spine 0,1,2,…: every branch point is a prefix of the tip,
        // and each branch a (near-)sibling of the spine's next node.
        let spine: Vec<u32> = (0..DEEP).collect();
        ids.push(t.intern_stack(&spine));
        for &(at, site) in &branches {
            let prefix = t.intern_stack(&spine[..at as usize]);
            ids.push(prefix);
            ids.push(t.intern(prefix, DEEP + site));
            ids.push(t.intern(t.intern(prefix, DEEP + site), site));
        }
        let stacks: Vec<Vec<u32>> = ids.iter().map(|&c| t.stack_of(c)).collect();
        // A solver lane compares through its mirror of the interner.
        let mut mirror = CtxMirror::default();
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                prop_assert_eq!(
                    t.cmp_stacks(a, b),
                    stacks[i].cmp(&stacks[j]),
                    "{:?} vs {:?}", stacks[i], stacks[j]
                );
                prop_assert_eq!(mirror.cmp_stacks(&t, a, b), stacks[i].cmp(&stacks[j]));
            }
        }
    }

    /// The same states interned in two different orders (so under
    /// different ids) sort into the same materialised sequence, and that
    /// sequence is the sorted sequence of the materialised states.
    #[test]
    fn canonical_sort_does_not_see_interning_order(
        states in vec((0u32..3, vec(0u32..4, 0..7)), 1..60),
    ) {
        let forward = sorted_through(states.iter());
        let backward = sorted_through(states.iter().rev());
        prop_assert_eq!(&forward, &backward);
        let mut materialised: Vec<(NodeId, Ctx)> = states
            .iter()
            .map(|(n, s)| (NodeId::new(*n), Ctx::from_stack(s.clone())))
            .collect();
        materialised.sort();
        prop_assert_eq!(forward, materialised);
    }
}
