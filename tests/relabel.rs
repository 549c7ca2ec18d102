//! A metamorphic relation the oracle cannot check: renumbering the nodes
//! changes no answer.
//!
//! `Pag::quotient` with a permutation as the remap renames every node and
//! keeps every edge. Under the reversed order and two seeded shuffles,
//! every completed answer and every out-of-budget verdict must map through
//! the permutation, for `run_seq` and for simulated DQ at 16 workers, and
//! `run_seq` and naive runs must take the same steps. D and DQ step counts
//! are not compared: how soon an out-of-budget walk fails depends on the
//! order the ids are stored in.

use parcfl::core::{Ctx, SolverConfig};
use parcfl::pag::{NodeId, Pag};
use parcfl::runtime::{run, run_seq, Backend, Mode, RunConfig, RunResult};
use parcfl::synth::{build_bench, table1_profiles, Bench, Profile};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `pag` with node `v` renamed `perm[v]`.
fn relabel(pag: &Pag, perm: &[NodeId]) -> Pag {
    let mut nodes = vec![None; perm.len()];
    for v in pag.node_ids() {
        nodes[perm[v.index()].index()] = Some(pag.node(v).clone());
    }
    pag.quotient(nodes.into_iter().map(Option::unwrap).collect(), perm)
}

/// The reversed order and two seeded shuffles of `n` ids.
fn permutations(n: usize) -> Vec<Vec<NodeId>> {
    let mut perms = vec![(0..n as u32).rev().map(NodeId::new).collect()];
    for seed in [1, 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.random_range(0..=i));
        }
        perms.push(ids);
    }
    perms
}

/// Each query's answer with every node renamed by `perm`, by query: the
/// sorted `(object, context)` pairs, or `None` for out of budget.
type Answers = Vec<(NodeId, Option<Vec<(NodeId, Ctx)>>)>;

fn renamed(r: &RunResult, perm: &[NodeId]) -> Answers {
    let mut out: Answers = (r.answers.iter())
        .map(|(q, a)| {
            let objs = a.complete().map(|set| {
                let mut objs: Vec<_> = set
                    .iter()
                    .map(|(o, c)| (perm[o.index()], c.clone()))
                    .collect();
                objs.sort();
                objs
            });
            (perm[q.index()], objs)
        })
        .collect();
    out.sort_by_key(|(q, _)| *q);
    out
}

/// The relation on `b` under `solver`; returns how many queries `run_seq`
/// ran out of budget on.
fn check(b: &Bench, solver: &SolverConfig) -> usize {
    let same: Vec<NodeId> = b.pag.node_ids().collect();
    let sim = |mode| RunConfig::new(mode, 16, Backend::Simulated).with_solver(solver.clone());
    let (dq, naive) = (sim(Mode::DataSharingSched), sim(Mode::Naive));
    let seq = run_seq(&b.pag, &b.queries, solver);
    let (dq_run, naive_run) = (
        run(&b.pag, &b.queries, &dq),
        run(&b.pag, &b.queries, &naive),
    );
    for perm in permutations(b.pag.node_count()) {
        let g = relabel(&b.pag, &perm);
        let queries: Vec<NodeId> = b.queries.iter().map(|q| perm[q.index()]).collect();
        let seq_p = run_seq(&g, &queries, solver);
        assert_eq!(
            renamed(&seq_p, &same),
            renamed(&seq, &perm),
            "{}: run_seq",
            b.name
        );
        let steps = |r: &RunResult| r.stats.traversed_steps;
        assert_eq!(steps(&seq_p), steps(&seq), "{}: run_seq steps", b.name);
        let dq_p = run(&g, &queries, &dq);
        assert_eq!(
            renamed(&dq_p, &same),
            renamed(&dq_run, &perm),
            "{}: DQ16",
            b.name
        );
        let naive_p = run(&g, &queries, &naive);
        assert_eq!(
            steps(&naive_p),
            steps(&naive_run),
            "{}: naive steps",
            b.name
        );
    }
    seq.stats.out_of_budget
}

#[test]
fn answers_map_through_a_node_relabelling() {
    let profiles = table1_profiles();
    let light = ["_200_check", "_201_compress", "_209_db"];
    let table1 = light.map(|name| profiles.iter().find(|p| p.name == name).unwrap());
    let tiny = [3, 11].map(Profile::tiny);
    let mut out_of_budget = 0;
    for b in tiny.iter().chain(table1).map(build_bench) {
        // The bench's own budget, and one tight enough that verdicts of
        // both kinds are compared.
        check(&b, &b.solver);
        out_of_budget += check(&b, &b.solver.clone().with_budget(100));
    }
    assert!(out_of_budget > 0, "no out-of-budget verdict was compared");
}
