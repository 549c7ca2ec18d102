//! Andersen soundness harness.
//!
//! The inclusion-based whole-program solution is a strict
//! over-approximation of every context-sensitive demand answer: it is
//! context-insensitive (all calling contexts conflated) and turns
//! `param`/`ret` edges into plain subset constraints, so any object a
//! demand `PointsTo(l, ∅)` query derives flows along edges Andersen also
//! propagates along. Every completed demand answer must therefore satisfy
//! `demand_pts(l) ⊆ andersen_pts(l)` — a cheap whole-suite soundness
//! check that needs no oracle recursion at all. The gap between the two
//! sizes is the precision the demand analysis buys.

use parcfl_andersen::{analyze, AndersenResult};
use parcfl_core::Answer;
use parcfl_pag::{NodeId, Pag};

/// Outcome of checking a batch of demand answers against the
/// inclusion-based solution.
#[derive(Clone, Debug, Default)]
pub struct SoundnessReport {
    /// Answers that completed (and were checked).
    pub completed: usize,
    /// Σ demand points-to set sizes over completed queries.
    pub(crate) demand_pts: usize,
    /// Σ inclusion-based points-to set sizes over the same queries.
    pub(crate) inclusion_pts: usize,
    /// Violations: `(query, object)` pairs present in the demand answer
    /// but absent from the inclusion-based solution.
    pub violations: Vec<(NodeId, NodeId)>,
}

impl SoundnessReport {
    /// True when every completed answer was a subset of the
    /// inclusion-based solution.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Demand-to-inclusion size ratio over completed queries (≤ 1.0 when
    /// sound; smaller is more precise). 1.0 when nothing completed.
    pub fn precision_ratio(&self) -> f64 {
        if self.inclusion_pts == 0 {
            1.0
        } else {
            self.demand_pts as f64 / self.inclusion_pts as f64
        }
    }
}

/// Checks `answers` (demand `PointsTo` results) against a freshly computed
/// Andersen solution on `pag`.
pub fn check_soundness(pag: &Pag, answers: &[(NodeId, Answer)]) -> SoundnessReport {
    check_soundness_against(&analyze(pag), answers)
}

/// [`check_soundness`] against a precomputed solution (reuse it across
/// runs on the same PAG).
pub(crate) fn check_soundness_against(
    incl: &AndersenResult,
    answers: &[(NodeId, Answer)],
) -> SoundnessReport {
    let mut report = SoundnessReport::default();
    for (q, ans) in answers {
        let Some(objs) = ans.nodes() else { continue };
        report.completed += 1;
        report.demand_pts += objs.len();
        report.inclusion_pts += incl.pts_len(*q);
        for o in objs {
            if !incl.pts_contains(*q, o) {
                report.violations.push((*q, o));
            }
        }
    }
    report
}
