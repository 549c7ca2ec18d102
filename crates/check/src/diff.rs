//! Differential comparison of production answers against the oracle.
//!
//! The contract (see [`crate::oracle`]): every [`Answer::Complete`] must
//! equal the oracle's exact answer as a set of `(node, call string)`
//! pairs; `OutOfBudget` answers are skipped. A solver-complete /
//! oracle-incomplete pair is a mismatch unless the oracle merely hit its
//! practical step cap.

use crate::oracle::{IncompleteReason, OState, Oracle, OracleAnswer, OracleConfig};
use parcfl_core::{Answer, Ctx};
use parcfl_pag::{NodeId, Pag};
use std::collections::HashMap;

/// Runs `f` on a thread with a deep stack (64 MiB) and returns its result.
///
/// The oracle's mutual recursion nests up to
/// [`crate::OracleConfig::max_recursion_depth`] native frames; default
/// thread stacks are not sized for that.
pub fn with_big_stack<T, F>(f: F) -> T
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn_scoped(s, f)
            .expect("spawn oracle thread")
            .join()
            .expect("oracle thread panicked")
    })
}

/// Per-PAG cache of oracle `PointsTo` answers. Oracle answers depend only
/// on the graph and the context-sensitivity flag, so one cache serves
/// every mode, backend, budget and perturbation run over the same PAG.
pub struct OracleCache<'a> {
    pag: &'a Pag,
    cfg: OracleConfig,
    answers: HashMap<NodeId, OracleAnswer>,
}

impl<'a> OracleCache<'a> {
    /// Creates an empty cache for `pag`.
    pub fn new(pag: &'a Pag, cfg: OracleConfig) -> Self {
        OracleCache {
            pag,
            cfg,
            answers: HashMap::new(),
        }
    }

    /// The oracle's `PointsTo(q, ∅)` answer, computed on first use.
    pub fn points_to(&mut self, q: NodeId) -> &OracleAnswer {
        if !self.answers.contains_key(&q) {
            let pag = self.pag;
            let cfg = self.cfg.clone();
            let a = with_big_stack(move || Oracle::with_config(pag, cfg).points_to(q));
            self.answers.insert(q, a);
        }
        &self.answers[&q]
    }

    /// Precomputes (in one big-stack hop, sharing the oracle memo across
    /// queries) the answers for all `queries`.
    pub fn warm(&mut self, queries: &[NodeId]) {
        let missing: Vec<NodeId> = queries
            .iter()
            .copied()
            .filter(|q| !self.answers.contains_key(q))
            .collect();
        if missing.is_empty() {
            return;
        }
        let pag = self.pag;
        let cfg = self.cfg.clone();
        let computed = with_big_stack(move || {
            let mut oracle = Oracle::with_config(pag, cfg);
            missing
                .into_iter()
                .map(|q| (q, oracle.points_to(q)))
                .collect::<Vec<_>>()
        });
        self.answers.extend(computed);
    }
}

/// One differential disagreement.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// The query variable.
    pub query: NodeId,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

/// Outcome of diffing one answer batch against the oracle.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Answers compared exactly (solver complete, oracle complete).
    pub compared: usize,
    /// Answers skipped because the solver ran out of budget.
    pub skipped_oob: usize,
    /// Answers skipped because the oracle hit its practical step cap.
    pub skipped_cap: usize,
    /// Disagreements found.
    pub mismatches: Vec<Mismatch>,
}

impl DiffReport {
    /// True when no disagreement was found.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Normalises a production answer to the oracle's representation: sorted,
/// deduplicated `(node, call string)` pairs.
pub fn normalize(answer: &[(NodeId, Ctx)]) -> Vec<OState> {
    let mut v: Vec<OState> = answer
        .iter()
        .map(|(n, c)| (*n, c.as_slice().to_vec()))
        .collect();
    v.sort();
    v.dedup();
    v
}

/// Diffs a batch of production `PointsTo` answers against the oracle.
pub fn diff_answers(answers: &[(NodeId, Answer)], oracle: &mut OracleCache<'_>) -> DiffReport {
    let completed: Vec<NodeId> = answers
        .iter()
        .filter(|(_, a)| a.complete().is_some())
        .map(|(q, _)| *q)
        .collect();
    oracle.warm(&completed);
    let mut report = DiffReport::default();
    for (q, ans) in answers {
        let Some(got) = ans.complete() else {
            report.skipped_oob += 1;
            continue;
        };
        match oracle.points_to(*q) {
            OracleAnswer::Incomplete(IncompleteReason::StepCap) => report.skipped_cap += 1,
            OracleAnswer::Incomplete(reason) => {
                report.mismatches.push(Mismatch {
                    query: *q,
                    detail: format!(
                        "solver answered Complete but the oracle diverges ({reason:?}): \
                         a completed production query cannot contain a re-entrant or \
                         unbounded computation chain"
                    ),
                });
            }
            OracleAnswer::Complete(want) => {
                report.compared += 1;
                let got = normalize(got);
                if &got != want {
                    report.mismatches.push(Mismatch {
                        query: *q,
                        detail: describe_set_diff(&got, want),
                    });
                }
            }
        }
    }
    report
}

fn describe_set_diff(got: &[OState], want: &[OState]) -> String {
    let spurious: Vec<&OState> = got.iter().filter(|s| !want.contains(s)).collect();
    let missing: Vec<&OState> = want.iter().filter(|s| !got.contains(s)).collect();
    let mut parts = vec![format!(
        "answer set differs from oracle (got {} states, want {})",
        got.len(),
        want.len()
    )];
    if !spurious.is_empty() {
        parts.push(format!(
            "spurious: {:?}",
            &spurious[..spurious.len().min(4)]
        ));
    }
    if !missing.is_empty() {
        parts.push(format!("missing: {:?}", &missing[..missing.len().min(4)]));
    }
    parts.join("; ")
}
