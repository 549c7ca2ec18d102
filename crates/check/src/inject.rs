//! What the fuzzer does to a run that production never does: seeded
//! perturbation of the simulator's dispatch, and two injected faults the
//! differential battery must catch. None of it is configuration of the
//! analysis — [`parcfl_core::SolverConfig`] and
//! [`parcfl_runtime::RunConfig`] carry no switch for it. It reaches a run
//! through the seams the production code has anyway: the six-method
//! [`JmpStore`] boundary between a solver and its store, the simulator's
//! dispatch hook ([`SimHook`]), and the public batch calls.

use crate::snapshot::Scenario;
use parcfl_core::jmp::{ExhaustedStarts, JmpKey, JmpLookup, RchSet};
use parcfl_core::{Answer, CtxId, CtxInterner, Footprint, JmpStore, SharedJmpStore};
use parcfl_pag::{NodeId, Pag, PagDelta};
use parcfl_runtime::sim::{run_simulated_hooked, Dispatch, Fifo, SimHook};
use parcfl_runtime::{run_threaded_batch, schedule_with_cap, Backend, DeltaReport, RunResult};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Deterministic schedule-perturbation knobs for the simulated backend.
///
/// The simulator is intentionally boring: lowest-clock worker wins ties,
/// groups dispatch FIFO, fetches cost exactly the scenario's
/// [`Scenario::fetch_cost`]. Real machines
/// are not boring, and jmp-store visibility depends on the dispatch
/// order, so the fuzzer drives the simulator through seeded variations of
/// all three choices. Every draw comes from one splitmix64 stream seeded
/// with `seed` — per dispatch: tie, then pick, then jitter, each drawn
/// only when its knob is on — so a perturbed run is exactly reproducible
/// from its `SimPerturb` value.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SimPerturb {
    /// Seed of the perturbation stream.
    pub seed: u64,
    /// Extra steps (uniform in `0..=fetch_jitter`) added to each group
    /// fetch, modelling variable lock-acquisition latency.
    pub fetch_jitter: u64,
    /// Dispatch window: the next group is drawn uniformly from the first
    /// `pick_window` pending groups instead of strictly FIFO (0 or 1 keeps
    /// FIFO order).
    pub pick_window: usize,
    /// Break equal-clock worker ties pseudo-randomly instead of by lowest
    /// worker index.
    pub scramble_ties: bool,
}

/// Fault injection: the self-tests that prove the harness has teeth. The
/// fuzzer is expected to FAIL with either on.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Fault {
    /// Drops the context component from jmp-store keys (snapshot key
    /// `chaos=`): shortcuts recorded for `ReachableNodes(x, c)` are served
    /// to calls at *any* context of `x`, which is unsound whenever the
    /// reachable sets differ per context. Reaches the simulated backend's
    /// one-shot runs, where the fuzzer samples it.
    pub blind_jmp_keys: bool,
    /// Replays an edit script against warm state that is never
    /// invalidated (snapshot key `chaosinval=1`): every revision of the
    /// graph is answered with whatever the revisions before it left — the
    /// jmp store as it stands, and each complete answer carried forward
    /// unchecked.
    pub skip_invalidation: bool,
}

/// A store that forgets which context a finished `ReachableNodes` result
/// belongs to. Unfinished edges keep theirs: served blind they could only
/// turn completed answers into out-of-budget ones, which no differential
/// check compares.
struct ContextBlind<'s>(&'s dyn JmpStore);

fn blind((dir, x, _): JmpKey) -> JmpKey {
    (dir, x, CtxId::EMPTY)
}

impl JmpStore for ContextBlind<'_> {
    fn lookup(&self, key: &JmpKey, now: u64) -> Option<JmpLookup> {
        self.0.lookup(&blind(*key), now)
    }

    fn publish_finished(
        &self,
        key: JmpKey,
        total_steps: u64,
        rch: RchSet,
        now: u64,
        fp: Option<Arc<Footprint>>,
    ) -> bool {
        self.0
            .publish_finished(blind(key), total_steps, rch, now, fp)
    }

    fn publish_unfinished(&self, key: JmpKey, s: u64, now: u64) -> bool {
        self.0.publish_unfinished(key, s, now)
    }

    fn ctx_interner(&self) -> Option<Arc<CtxInterner>> {
        self.0.ctx_interner()
    }

    fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    fn exhausted_starts(&self) -> Option<&ExhaustedStarts> {
        self.0.exhausted_starts()
    }
}

/// A scenario's hold on one simulated batch.
pub(crate) struct Inject {
    /// What a fetch costs before any jitter.
    fetch: u64,
    perturb: Option<(SimPerturb, StdRng)>,
    blind_jmp_keys: bool,
}

impl Inject {
    pub(crate) fn new(scenario: &Scenario) -> Self {
        Inject {
            fetch: scenario.fetch_cost,
            perturb: scenario.perturb.map(|p| (p, StdRng::seed_from_u64(p.seed))),
            blind_jmp_keys: scenario.fault.blind_jmp_keys,
        }
    }
}

impl SimHook for Inject {
    fn dispatch(&mut self, clocks: &[u64], pending: usize) -> Dispatch {
        let fifo = Fifo(self.fetch).dispatch(clocks, pending);
        let Some((p, rng)) = &mut self.perturb else {
            return fifo;
        };
        let worker = if p.scramble_ties {
            let min = clocks[fifo.worker];
            let ties: Vec<usize> = (0..clocks.len()).filter(|&i| clocks[i] == min).collect();
            ties[rng.random_range(0..ties.len())]
        } else {
            fifo.worker
        };
        let group = if p.pick_window > 1 {
            rng.random_range(0..p.pick_window.min(pending))
        } else {
            0
        };
        let jitter = if p.fetch_jitter > 0 {
            rng.random_range(0..=p.fetch_jitter)
        } else {
            0
        };
        Dispatch {
            worker,
            group,
            fetch: fifo.fetch + jitter,
        }
    }

    fn seam<'s>(&self, lane: &'s dyn JmpStore) -> Option<Box<dyn JmpStore + 's>> {
        self.blind_jmp_keys
            .then(|| Box::new(ContextBlind(lane)) as Box<dyn JmpStore + 's>)
    }
}

/// [`Fault::skip_invalidation`]'s replay of an edit script: what a session
/// does — answer, edit, answer again on one store and one virtual clock,
/// a query answered completely once never run again — minus the
/// invalidation between. No session is involved; the batches go through
/// the same public calls a session makes.
pub(crate) fn replay_reusing_store(sc: &Scenario) -> (RunResult, Pag, Vec<DeltaReport>) {
    let cfg = sc.run_config();
    let store = SharedJmpStore::new();
    let mut clock = 0;
    // A session keeps the answers of sharing batches only.
    let keeps = sc.mode.shares_data();
    let mut kept: BTreeMap<NodeId, Answer> = BTreeMap::new();
    let mut submit = |pag: &Pag| {
        let unanswered = |q: &NodeId| !kept.contains_key(q);
        let rest: Vec<NodeId> = sc.queries.iter().copied().filter(unanswered).collect();
        let schedule = schedule_with_cap(pag, &rest, sc.mode, None);
        let mut result = match sc.backend {
            Backend::Simulated => {
                // The scenario's fetch price, unperturbed, on honest keys.
                let fifo = &mut Fifo(sc.fetch_cost);
                let (result, end) = run_simulated_hooked(pag, &schedule, &cfg, &store, clock, fifo);
                clock = end + 1;
                result
            }
            Backend::Threaded => {
                let result = run_threaded_batch(pag, &schedule, &cfg, &store, clock);
                clock += result.stats.traversed_steps + 1;
                result
            }
        };
        let complete = |(_, a): &&(NodeId, Answer)| keeps && matches!(a, Answer::Complete(_));
        let fresh: Vec<_> = result.answers.iter().filter(complete).cloned().collect();
        let carried = kept.iter().map(|(&q, a)| (q, a.clone()));
        result.answers.extend(carried);
        kept.extend(fresh);
        result
    };
    let mut pag = sc.pag.clone();
    let mut result = submit(&pag);
    let mut reports = Vec::with_capacity(sc.deltas.len());
    for op in &sc.deltas {
        let mut delta = PagDelta::new();
        delta.push(*op);
        let (edited, effect) = pag.apply_delta(&delta);
        if !effect.is_noop() {
            pag = edited;
        }
        reports.push(DeltaReport {
            revision: pag.revision(),
            noop: effect.is_noop(),
            rejected_ops: effect.rejected_ops,
            ..DeltaReport::default()
        });
        result = submit(&pag);
    }
    (result, pag, reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::failure_detail;
    use parcfl_core::SolverConfig;
    use parcfl_runtime::{run_simulated, Mode, TraceLevel};
    use parcfl_synth::{build_bench, Profile};

    /// What `parcfl check --fuzz 25 --chaos` shrinks to at the default seed.
    const BLIND_KEYS: &str = "\
run mode=d backend=sim threads=1 fetch=0 budget=200000 tauf=0 tauu=0 ctx=1 chaos=1 state=dense trace=off
counts nodes=8 fields=4 callsites=8
node 0 local 0\nnode 1 local 0\nnode 2 local 0\nnode 3 local 1
node 4 local 1\nnode 5 local 1\nnode 6 obj 0\nnode 7 obj 1
edge 7 0 new\nedge 1 0 st 2\nedge 6 1 new\nedge 4 2 ld 2
edge 2 3 assign_l\nedge 7 4 new\nedge 2 5 ret 7
query 3\nquery 5\n";

    /// What `parcfl check --fuzz 25 --chaos-invalidation` shrinks to.
    const STALE_STORE: &str = "\
run mode=d backend=sim threads=1 fetch=0 budget=200000 tauf=0 tauu=0 ctx=1 chaos=0 state=dense trace=off delta=1 chaosinval=1
counts nodes=4 fields=4 callsites=8
node 0 local 0\nnode 1 local 1\nnode 2 local 1\nnode 3 obj 1
edge 3 0 new\nedge 2 1 assign_l\nedge 0 2 ld 0
query 1
delta add 0 2 st 0\n";

    /// Each fault makes its minimal program disagree with the oracle, and
    /// the same program agrees once the fault is cleared.
    #[test]
    fn each_fault_is_an_oracle_mismatch_on_its_minimal_program() {
        for (snap, what) in [(BLIND_KEYS, "query n"), (STALE_STORE, "Reentrant")] {
            let sc = Scenario::from_snapshot(snap).expect("snapshot parses");
            assert_ne!(sc.fault, Fault::default());
            let detail = failure_detail(&sc).expect("the fault is caught");
            assert!(detail.contains(what), "{detail}");
            let clean = Scenario {
                fault: Fault::default(),
                ..sc
            };
            assert_eq!(failure_detail(&clean), None);
        }
        // What the oracle refutes on the stale program is a stale *answer*:
        // the re-query ran nothing, its one answer is the cold batch's,
        // carried past the edit that made it wrong.
        let sc = Scenario::from_snapshot(STALE_STORE).expect("snapshot parses");
        let (warm, ..) = sc.run_incremental();
        let before_edit = Scenario {
            deltas: vec![],
            ..sc
        };
        assert_eq!(warm.stats.queries, 0);
        assert_eq!(warm.answers, before_edit.run().answers);
    }

    /// The stale replay swaps the graph like a session and invalidates
    /// nothing: the cold batch's answer and every entry it left are there
    /// for the re-query, which a session would have dropped.
    #[test]
    fn store_reusing_replay_leaves_stale_warm_state() {
        let sc = Scenario::from_snapshot(STALE_STORE).expect("snapshot parses");
        let (_, edited, reports) = sc.run_incremental();
        assert_eq!(edited.edges(), sc.final_pag().edges(), "the graph swaps");
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].noop);
        let dropped = |r: &DeltaReport| (r.invalidated_jmps, r.invalidated_answers);
        assert_eq!((reports[0].revision, dropped(&reports[0])), (1, (0, 0)));
        // Only complete answers are carried: a query the cold batch left
        // out of budget runs again.
        let starved = Scenario {
            solver: sc.solver.clone().with_budget(1),
            ..sc.clone()
        };
        let cold = Scenario {
            deltas: vec![],
            ..starved.clone()
        };
        assert_eq!(cold.run().stats.out_of_budget, 1);
        assert_eq!(starved.run_incremental().0.stats.queries, 1);
        let honest = Scenario {
            fault: Fault::default(),
            ..sc
        };
        let (_, _, reports) = honest.run_incremental();
        assert!(reports[0].invalidated_jmps > 0, "a session drops them");
        assert_eq!(dropped(&reports[0]).1, 1, "and the answer with them");
    }

    fn perturbed(perturb: Option<SimPerturb>) -> Scenario {
        let b = build_bench(&Profile::small(5));
        Scenario {
            pag: b.pag,
            queries: b.queries,
            mode: Mode::DataSharingSched,
            backend: Backend::Simulated,
            threads: 4,
            solver: SolverConfig::default().without_tau_thresholds(),
            fetch_cost: 2,
            perturb,
            trace_level: TraceLevel::Off,
            deltas: vec![],
            fault: Fault::default(),
        }
    }

    /// Without a perturbation, and at the default price, the hook is the
    /// simulator's own dispatch.
    #[test]
    fn unperturbed_hook_is_the_default_dispatch() {
        let sc = Scenario {
            fetch_cost: parcfl_runtime::sim::FETCH_STEPS,
            ..perturbed(None)
        };
        let (hooked, plain) = (
            sc.run(),
            run_simulated(&sc.pag, &sc.queries, &sc.run_config()),
        );
        assert_eq!(hooked.answers, plain.answers);
        assert_eq!(hooked.stats.makespan, plain.stats.makespan);
        assert_eq!(hooked.stats.traversed_steps, plain.stats.traversed_steps);
        assert_eq!(hooked.stats.jmp_edges, plain.stats.jmp_edges);
    }

    /// Recorded seeds replay the dispatch they recorded. The readings were
    /// re-recorded when the jmp store became unbounded: the earlier ones
    /// (16 010 / 60 603 steps at seed 7) ran on a store capped at 16
    /// entries and forced back under its cap every fifth dispatch. They
    /// were re-recorded again when the schedule began to order a group's
    /// members by flow depth and a query's own walk to go breadth-first
    /// once a start is exhausted: both change which queries stop early,
    /// and when (3 702 / 13 577, 3 738 / 13 647 and 3 742 / 13 718
    /// before).
    #[test]
    fn perturbed_seeds_replay_the_recorded_dispatch() {
        for (seed, makespan, traversed_steps) in [
            (7, 3_642, 13_421),
            (0xBEEF, 3_721, 13_498),
            (123_456_789, 3_688, 13_458),
        ] {
            let r = perturbed(Some(SimPerturb {
                seed,
                fetch_jitter: 3,
                pick_window: 4,
                scramble_ties: true,
            }))
            .run();
            assert_eq!(
                (r.stats.makespan, r.stats.traversed_steps),
                (makespan, traversed_steps),
                "seed {seed}"
            );
        }
    }
}
