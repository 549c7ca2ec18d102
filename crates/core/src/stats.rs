//! Per-query and aggregate statistics, plus the Fig. 7 jmp-edge histogram.

use crate::jmp::SharedJmpStore;
use crate::solver::CtxNode;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Statistics of a single query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Steps charged against the budget `B` (includes the recorded cost of
    /// every shortcut taken, per Algorithm 2 line 5).
    pub charged_steps: u64,
    /// Steps actually traversed (worklist pops performed). This is the
    /// real-work measure wall-clock scales with; `charged - traversed` is
    /// work the shortcuts avoided.
    pub traversed_steps: u64,
    /// Finished shortcuts taken.
    pub shortcuts_taken: u64,
    /// Jmp-store hits (shortcuts *or* early terminations) served by entries
    /// created before the query's warm floor — i.e. published by an earlier
    /// batch of the owning session. 0 unless a session set a warm floor.
    pub warm_hits: u64,
    /// Jmp lookups that found a visible entry of either kind, whether the
    /// lane's copy or the shared store served it.
    pub lookup_hits: u64,
    /// Steps saved by taking finished shortcuts (the recorded cost of each
    /// shortcut, which would otherwise have been re-traversed).
    pub steps_saved: u64,
    /// Finished jmp *edges* this query published (one per pair of each
    /// finished set, at least one per set).
    pub finished_published: u64,
    /// Unfinished jmp edges this query published.
    pub unfinished_published: u64,
    /// Whether the query was cut short by an unfinished jmp edge or an
    /// exhausted query start (an early termination, Section III-B; its
    /// answer is [`Answer::OutOfBudget`]).
    pub early_terminated: bool,
    /// Allocation-volume proxy: work-list/visited-set insertions **plus**
    /// the physical visited-state words ([`QueryStats::state_words`]) so
    /// hash and dense state backends are compared honestly. Used by the
    /// memory-usage experiment (Section IV-D5).
    pub mem_items: u64,
    /// Memory this query's visited-state tables touched, in `u64` words,
    /// counted on the insert path (DESIGN.md §11): under the dense backend
    /// the pages its inserts landed in and the spill bitsets it grew —
    /// what tables made for this query alone would hold — and under the
    /// hash backend a two-words-per-slot estimate. The tables themselves
    /// outlive the query in the worker's pool; this figure does not depend
    /// on what they held before. (Spill bitsets are indexed by interned
    /// context id, so their share follows the ids the solver's interner
    /// has handed out.)
    pub state_words: u64,
}

/// Result of one points-to (or flows-to) query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// The analysis completed within budget; the context-sensitive result
    /// set, sorted and deduplicated.
    Complete(AnswerSet),
    /// Budget exhausted: the client must assume the worst.
    OutOfBudget,
}

impl Answer {
    /// The result set, if complete.
    pub fn complete(&self) -> Option<&[CtxNode]> {
        match self {
            Answer::Complete(v) => Some(v),
            Answer::OutOfBudget => None,
        }
    }

    /// Context-insensitive projection: sorted, deduplicated node ids.
    pub fn nodes(&self) -> Option<Vec<parcfl_pag::NodeId>> {
        self.complete().map(|v| {
            let mut ns: Vec<_> = v.iter().map(|(n, _)| *n).collect();
            ns.sort_unstable();
            ns.dedup();
            ns
        })
    }
}

/// A complete answer's `(object, context)` set: one immutable allocation
/// at its exact length, shared by every holder — a clone is a
/// reference-count bump, so a session hands out the very set it keeps
/// (DESIGN.md §12), and a lane hands out one set for every answer of its
/// batch equal to it (DESIGN.md §8). Reads as a slice; equal by contents;
/// prints as a list.
#[derive(Clone, PartialEq, Eq)]
pub struct AnswerSet(Arc<[CtxNode]>);

impl AnswerSet {
    /// Removes and returns the element at `index`, shifting the rest
    /// down. Copy on write: the set is rebuilt without it, and every other
    /// holder keeps the set it had.
    ///
    /// # Panics
    /// If `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> CtxNode {
        let mut v = self.0.to_vec();
        let out = v.remove(index);
        self.0 = v.into();
        out
    }
}

impl Deref for AnswerSet {
    type Target = [CtxNode];
    fn deref(&self) -> &[CtxNode] {
        &self.0
    }
}

impl FromIterator<CtxNode> for AnswerSet {
    fn from_iter<I: IntoIterator<Item = CtxNode>>(iter: I) -> Self {
        AnswerSet(iter.into_iter().collect())
    }
}

impl From<Vec<CtxNode>> for AnswerSet {
    fn from(v: Vec<CtxNode>) -> Self {
        AnswerSet(v.into())
    }
}

impl fmt::Debug for AnswerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One answered query with its cost profile.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// The answer.
    pub answer: Answer,
    /// Cost/effect statistics.
    pub stats: QueryStats,
    /// Everything the query read — the nodes whose adjacency and the
    /// fields whose index any of its traversals consulted, taken or
    /// inherited through a shortcut (DESIGN.md §12): the answer stands
    /// for as long as no edit touches it. Present on a
    /// [`Answer::Complete`] from a solver that records
    /// ([`crate::SolverConfig::record_footprints`]) unless a shortcut it
    /// took had no footprint of its own.
    pub footprint: Option<std::sync::Arc<crate::Footprint>>,
}

/// Fig. 7: histogram of jmp edges bucketed by the number of steps each
/// saves, in powers of two `2^0 .. 2^16` (plus one overflow bucket).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JmpHistogram {
    /// Finished edges per bucket (Fig. 3a).
    pub finished: [u64; 18],
    /// Unfinished edges per bucket (Fig. 3b).
    pub unfinished: [u64; 18],
}

impl JmpHistogram {
    /// Bucket index for a step count: `floor(log2(s))` clamped to `0..=17`.
    pub(crate) fn bucket(s: u64) -> usize {
        if s == 0 {
            0
        } else {
            (63 - s.leading_zeros() as usize).min(17)
        }
    }

    /// Builds the histogram from a store's current contents: each entry
    /// contributes its jmp edges (one per pair of a finished set, at least
    /// one; one for an unfinished entry) at its steps figure.
    pub fn of(store: &SharedJmpStore) -> Self {
        let mut h = JmpHistogram::default();
        store.for_each(|_, e| {
            let side = if e.is_finished() {
                &mut h.finished
            } else {
                &mut h.unfinished
            };
            side[Self::bucket(e.steps())] += e.edges();
        });
        h
    }

    /// Total finished edges.
    pub fn finished_total(&self) -> u64 {
        self.finished.iter().sum()
    }

    /// Total unfinished edges.
    pub fn unfinished_total(&self) -> u64 {
        self.unfinished.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Ctx;
    use crate::jmp::{Dir, JmpStore};
    use parcfl_concurrent::CtxId;
    use parcfl_pag::NodeId;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(JmpHistogram::bucket(0), 0);
        assert_eq!(JmpHistogram::bucket(1), 0);
        assert_eq!(JmpHistogram::bucket(2), 1);
        assert_eq!(JmpHistogram::bucket(3), 1);
        assert_eq!(JmpHistogram::bucket(4), 2);
        assert_eq!(JmpHistogram::bucket(1 << 16), 16);
        assert_eq!(JmpHistogram::bucket(u64::MAX), 17);
    }

    #[test]
    fn histogram_of_store() {
        let s = SharedJmpStore::new();
        let rch = Arc::new(vec![
            (NodeId::new(1), CtxId::EMPTY),
            (NodeId::new(2), CtxId::EMPTY),
        ]);
        s.publish_finished((Dir::Bwd, NodeId::new(0), CtxId::EMPTY), 130, rch, 0, None);
        s.publish_unfinished((Dir::Bwd, NodeId::new(3), CtxId::EMPTY), 20_000, 0);
        let h = JmpHistogram::of(&s);
        assert_eq!(h.finished_total(), 2, "two edges in one finished set");
        assert_eq!(h.unfinished_total(), 1);
        assert_eq!(h.finished[JmpHistogram::bucket(130)], 2);
        assert_eq!(h.unfinished[JmpHistogram::bucket(20_000)], 1);
    }

    #[test]
    fn answer_projection() {
        let a = Answer::Complete(
            vec![
                (NodeId::new(3), Ctx::empty()),
                (NodeId::new(1), Ctx::from_stack(vec![0])),
                (NodeId::new(1), Ctx::empty()),
            ]
            .into(),
        );
        assert_eq!(a.nodes().unwrap(), vec![NodeId::new(1), NodeId::new(3)]);
        assert!(Answer::OutOfBudget.nodes().is_none());
        assert!(Answer::OutOfBudget.complete().is_none());
    }

    #[test]
    fn answer_set_remove_copies_on_write() {
        let c = Ctx::from_stack(vec![2]);
        let v = vec![(NodeId::new(1), Ctx::empty()), (NodeId::new(4), c.clone())];
        let mut set = AnswerSet::from(v.clone());
        let other = set.clone();
        assert_eq!(other.as_ptr(), set.as_ptr(), "a clone shares the set");
        assert_eq!(set.remove(0), v[0]);
        assert_eq!(&set[..], &v[1..]);
        assert_eq!(&other[..], &v[..], "another holder keeps its set");
        assert_eq!(set[0].1.as_slice().as_ptr(), c.as_slice().as_ptr());
    }

    #[test]
    fn answers_print_as_the_vec_they_replace() {
        let v = vec![
            (NodeId::new(3), Ctx::empty()),
            (NodeId::new(5), Ctx::from_stack(vec![7, 1])),
        ];
        /// The answer as it was, a `Vec` per set.
        #[derive(Debug)]
        enum Reference {
            Complete(Vec<(NodeId, Ctx)>),
        }
        let a = Answer::Complete(v.iter().cloned().collect());
        let want = Reference::Complete(v.clone());
        assert_eq!(format!("{a:?}"), format!("{want:?}"));
        assert_eq!(format!("{a:#?}"), format!("{want:#?}"));
        let Reference::Complete(want) = want;
        assert_eq!(a, Answer::Complete(want.into()));
    }
}
