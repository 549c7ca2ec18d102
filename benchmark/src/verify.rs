//! The correctness gate. A completed answer is the exact grammar
//! fixpoint whatever the engine, mode, thread count or interleaving, so
//! every pass is held to four independent lines of evidence, all outside
//! the timed region:
//!
//! 1. a sequential `run_seq` **reference** (no sharing, no schedule, the
//!    other visited-state backend) on a seeded sample of each batch —
//!    equal wherever both completed;
//! 2. the **warm-up pass**, query by query over the whole batch — equal
//!    wherever both completed (catches an interleaving-dependent answer);
//! 3. the `parcfl-check` **oracle** on a seeded sample of 64 completed
//!    queries, and **Andersen soundness** on every completed set;
//! 4. for the default seed, the reference's **digest** committed under
//!    `benchmark/expected/`.

use crate::rng::Rng;
use parcfl_check::andersen_check::check_soundness;
use parcfl_check::diff::{diff_answers, OracleCache};
use parcfl_check::oracle::OracleConfig;
use parcfl_core::{Answer, SolverConfig, StateBackend};
use parcfl_pag::{NodeId, Pag};
use parcfl_runtime::run_seq;

/// One batch's answers, sorted by query node.
pub struct Batch {
    pub label: String,
    pub answers: Vec<(NodeId, Answer)>,
}

impl Batch {
    pub fn completed(&self) -> usize {
        self.answers
            .iter()
            .filter(|(_, a)| a.complete().is_some())
            .count()
    }
}

/// Everything one pass answered, batch by batch (a batch is one program
/// or one edit round).
#[derive(Default)]
pub struct PassOut {
    /// Batches answered during set-up (a session's cold submit): checked
    /// like the rest, not counted in `completed_share`.
    pub setup_batches: Vec<Batch>,
    pub batches: Vec<Batch>,
}

impl PassOut {
    pub fn attempted(&self) -> usize {
        self.batches.iter().map(|b| b.answers.len()).sum()
    }

    pub fn completed(&self) -> usize {
        self.batches.iter().map(Batch::completed).sum()
    }

    pub fn all(&self) -> impl Iterator<Item = &Batch> {
        self.setup_batches.iter().chain(&self.batches)
    }
}

/// Checked answers and those found wrong.
#[derive(Default, Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tally {
    pub compared: usize,
    pub failed: usize,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.compared += o.compared;
        self.failed += o.failed;
    }
}

/// Compares `got` against `want` on the queries both hold, wherever
/// both completed. Both are sorted by query node; `want` may cover a
/// subset of `got`'s queries. A query of `want` that `got` lacks is a
/// failure (a dropped query).
pub fn same_where_both_complete(got: &[(NodeId, Answer)], want: &[(NodeId, Answer)]) -> Tally {
    let mut tally = Tally::default();
    for (q, w) in want {
        let Ok(i) = got.binary_search_by_key(q, |(n, _)| *n) else {
            tally.compared += 1;
            tally.failed += 1;
            continue;
        };
        if let (Some(g), Some(w)) = (got[i].1.complete(), w.complete()) {
            tally.compared += 1;
            tally.failed += (g != w) as usize;
        }
    }
    tally
}

/// Pass against pass, batch by batch; a missing or extra batch fails.
pub fn passes_agree(got: &PassOut, want: &PassOut) -> Tally {
    let mut tally = Tally::default();
    let (g, w): (Vec<_>, Vec<_>) = (got.all().collect(), want.all().collect());
    if g.len() != w.len() {
        tally.compared += 1;
        tally.failed += 1;
    }
    for (g, w) in g.iter().zip(&w) {
        tally += same_where_both_complete(&g.answers, &w.answers);
    }
    tally
}

/// The reference for one batch: `run_seq` over a seeded sample of its
/// queries — an eighth of the batch, at least 64. A full sequential
/// pass without sharing costs 21 s on the Table-I suite against 3.6 s
/// for the pass it checks, so the reference samples; the warm-up
/// comparison covers every query. It runs on the hash visited-state
/// backend, the one the timed passes do not use.
pub fn reference(pag: &Pag, queries: &[NodeId], solver: &SolverConfig, rng: &mut Rng) -> Batch {
    const SHARE: usize = 8;
    const AT_LEAST: usize = 64;
    let k = queries.len().div_ceil(SHARE).max(AT_LEAST);
    let sample = rng.sample(queries, k);
    let cfg = solver.clone().with_state(StateBackend::Hash);
    Batch {
        label: String::new(),
        answers: run_seq(pag, &sample, &cfg).sorted_answers(),
    }
}

/// FNV-1a over every answer of `batches`: label, query, verdict and the
/// sorted `(object, call string)` set.
pub fn digest<'a>(batches: impl IntoIterator<Item = &'a Batch>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for batch in batches {
        eat(batch.label.as_bytes());
        for (q, a) in &batch.answers {
            eat(&q.raw().to_le_bytes());
            match a.complete() {
                None => eat(b"oob"),
                Some(set) => {
                    for (o, ctx) in set {
                        eat(&o.raw().to_le_bytes());
                        for site in ctx.as_slice() {
                            eat(&site.to_le_bytes());
                        }
                        eat(b";");
                    }
                }
            }
        }
    }
    h
}

/// The `parcfl-check` oracle on (up to) `k` seeded completed answers of
/// `answers`. The oracle's step cap is far below its default 50 M: a
/// sampled query that needs more is skipped and counted, not ground
/// through. Returns the tally and the number skipped.
pub fn oracle(pag: &Pag, answers: &[(NodeId, Answer)], k: usize, rng: &mut Rng) -> (Tally, usize) {
    let completed: Vec<(NodeId, Answer)> = answers
        .iter()
        .filter(|(_, a)| a.complete().is_some())
        .cloned()
        .collect();
    let sample = rng.sample(&completed, k);
    let cfg = OracleConfig {
        step_cap: 2_000_000,
        ..OracleConfig::default()
    };
    let report = diff_answers(&sample, &mut OracleCache::new(pag, cfg));
    let tally = Tally {
        compared: report.compared,
        failed: report.mismatches.len(),
    };
    (tally, report.skipped_cap)
}

/// Andersen soundness: every completed set is a subset of the
/// inclusion-based whole-program solution.
pub fn andersen(pag: &Pag, answers: &[(NodeId, Answer)]) -> Tally {
    let sound = check_soundness(pag, answers);
    Tally {
        compared: sound.completed,
        failed: sound.violations.len(),
    }
}

/// The seed whose reference digest is committed.
pub const DIGEST_SEED: u64 = 1;

/// The harness's test hook: alters one points-to set (drops the first
/// object of the first non-empty completed answer), standing in for a
/// solver that returns a wrong set. Returns whether anything was altered.
pub fn corrupt(out: &mut PassOut) -> bool {
    for batch in &mut out.batches {
        for (_, a) in &mut batch.answers {
            if let Answer::Complete(set) = a {
                if !set.is_empty() {
                    set.remove(0);
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_core::Ctx;

    fn n(i: u32) -> NodeId {
        NodeId::from_usize(i as usize)
    }

    fn set(objs: &[u32]) -> Answer {
        Answer::Complete(objs.iter().map(|&o| (n(o), Ctx::empty())).collect())
    }

    #[test]
    fn comparison_skips_out_of_budget_and_flags_wrong_or_dropped() {
        let got = vec![
            (n(1), set(&[7])),
            (n(2), Answer::OutOfBudget),
            (n(3), set(&[8, 9])),
        ];
        let same = vec![(n(1), set(&[7])), (n(2), set(&[5])), (n(3), set(&[8, 9]))];
        assert_eq!(
            same_where_both_complete(&got, &same),
            Tally {
                compared: 2,
                failed: 0
            },
            "query 2 completed on one side only"
        );
        let wrong = vec![(n(3), set(&[8]))];
        assert_eq!(
            same_where_both_complete(&got, &wrong),
            Tally {
                compared: 1,
                failed: 1
            }
        );
        let dropped = vec![(n(4), set(&[1]))];
        assert_eq!(
            same_where_both_complete(&got, &dropped),
            Tally {
                compared: 1,
                failed: 1
            }
        );
    }

    #[test]
    fn digest_sees_labels_sets_and_verdicts() {
        let b = |label: &str, a: Answer| Batch {
            label: label.into(),
            answers: vec![(n(1), a)],
        };
        let base = digest([&b("x", set(&[7]))]);
        assert_eq!(base, digest([&b("x", set(&[7]))]));
        assert_ne!(base, digest([&b("y", set(&[7]))]));
        assert_ne!(base, digest([&b("x", set(&[8]))]));
        assert_ne!(base, digest([&b("x", Answer::OutOfBudget)]));
    }

    #[test]
    fn the_test_hook_alters_exactly_one_set() {
        let mut out = PassOut {
            setup_batches: vec![],
            batches: vec![Batch {
                label: "p".into(),
                answers: vec![(n(1), set(&[])), (n(2), set(&[7, 8])), (n(3), set(&[9]))],
            }],
        };
        let before = digest(out.all());
        assert!(corrupt(&mut out));
        assert_ne!(before, digest(out.all()));
        assert_eq!(out.batches[0].answers[1].1, set(&[8]));
        assert_eq!(out.batches[0].answers[2].1, set(&[9]));
        assert!(!corrupt(&mut PassOut::default()));
    }
}
