//! Counterexample shrinking: delta-debugging a failing [`Scenario`] down
//! to a minimal graph and query set.
//!
//! The algorithm is greedy 1-minimal reduction, re-checking the failure
//! predicate after every candidate removal:
//!
//! 1. **Canonicalise** the graph (scrub names/types/methods) so the
//!    minimised scenario serialises losslessly — adopted only if the
//!    failure survives canonicalisation (it always should: the solver
//!    never looks at names).
//! 2. **Simplify the configuration**: try threads → 1, simulated backend,
//!    zero fetch cost, no perturbation, simpler mode. This
//!    is what makes structural shrinking effective: a failure that
//!    depends on a 6-thread perturbed interleaving is fragile (removing
//!    an unrelated edge shifts every virtual clock and masks it), while
//!    the same data-sharing bug reproduced on one FIFO worker survives
//!    edge removal robustly.
//! 3. **Drop queries**, in reverse order, keeping each removal that still
//!    fails. A smaller query set makes every later edge-removal check
//!    cheaper. **Drop delta ops** the same way: a mutate-then-requery
//!    failure usually hinges on one edit — the rest of the script (and
//!    sometimes all of it, when the cold run already fails) goes.
//! 4. **Drop edges**, repeated sweeps until a fixpoint: for each edge (in
//!    reverse), freeze the graph without it ([`Pag::with_edges`]) and keep
//!    the removal if the failure persists. `with_edges` keeps node ids, so
//!    queries stay valid throughout; steps 5–7 freeze their rewritten edge
//!    lists the same way.
//! 5. **Weaken edge labels**: rewrite `param`/`ret`/`ld`/`st`/`assign_g`
//!    labels the failure doesn't depend on to plain `assign_l` (never
//!    `new`, whose source is an object). Labelled hops can't compose with
//!    each other, so without this step a chain like `u →param_6→ v
//!    →ld(1)→ w` is contraction-proof even when the labels are incidental.
//! 6. **Contract chains**: bypass a non-query node by composing each
//!    incoming/outgoing edge pair through a plain `assign_l` hop (`u
//!    →ld(f)→ v →assign_l→ w` becomes `u →ld(f)→ w`, etc.). Pure edge
//!    deletion cannot shorten a value-flow chain in which every hop is
//!    load-bearing; contraction can, and 1-minimality is restored by
//!    rerunning the edge sweep afterwards.
//! 7. **Merge node pairs** on the now-small graph: redirect every edge
//!    at one node onto another of its kind (variable onto variable, object
//!    onto object); duplicate edges and self-loops collapse. Catches "two
//!    parallel copies of the same role" residue that neither deletion nor
//!    contraction can reduce.
//!
//! Every step keeps the graph one a program could have: `new` edges leave
//! objects, every other edge joins variables. Value flow through an object
//! node is read differently by the demand solver (which walks on) and the
//! inclusion solution (which gives it no points-to set to pass on), so a
//! candidate outside that class can "still fail" for a reason that is not
//! the one being shrunk.
//! 8. **Compact** away orphan nodes (remapping queries), adopted only if
//!    the failure survives the id remap.
//!
//! Phases 2–6 repeat (bounded) until a full cycle adopts nothing, since
//! a smaller graph can unlock further config simplification and vice
//! versa.
//!
//! The predicate is re-evaluated from scratch on every candidate, so
//! shrinking works for any deterministic failure — differential
//! mismatches, soundness violations, panics caught by the caller's
//! predicate — and degrades gracefully (keeps the larger scenario) on
//! flaky ones.

use crate::snapshot::Scenario;
use parcfl_pag::{DeltaOp, Edge, EdgeKind, NodeId, Pag};
use parcfl_runtime::{Backend, Mode};
use parcfl_synth::mutate::{canonicalize, compact};

/// Statistics from one shrink run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShrinkStats {
    /// Failure-predicate evaluations performed.
    pub checks: usize,
    /// Edges in the original / shrunk scenario.
    pub edges: (usize, usize),
    /// Queries in the original / shrunk scenario.
    pub queries: (usize, usize),
    /// Delta ops in the original / shrunk scenario.
    pub deltas: (usize, usize),
}

/// Shrinks `scenario` while `fails` keeps returning `true` for the
/// candidate. `scenario` itself must fail (debug-asserted); the result is
/// 1-minimal: removing any single remaining edge or query makes the
/// failure disappear (or flake).
pub(crate) fn shrink(
    scenario: Scenario,
    fails: &dyn Fn(&Scenario) -> bool,
) -> (Scenario, ShrinkStats) {
    let mut stats = ShrinkStats {
        edges: (scenario.pag.edge_count(), scenario.pag.edge_count()),
        queries: (scenario.queries.len(), scenario.queries.len()),
        deltas: (scenario.deltas.len(), scenario.deltas.len()),
        ..ShrinkStats::default()
    };
    debug_assert!(fails(&scenario), "shrink called on a passing scenario");
    let mut cur = scenario;

    // 1. Canonicalise.
    let mut candidate = cur.clone();
    candidate.pag = canonicalize(&cur.pag);
    stats.checks += 1;
    if fails(&candidate) {
        cur = candidate;
    }

    // 2–6. Config / query / edge reduction, cycled to a joint fixpoint.
    for _cycle in 0..6 {
        let mut adopted = false;

        // 2. Configuration simplification.
        type Step = fn(&mut Scenario);
        let steps: [Step; 10] = [
            |s| s.backend = Backend::Simulated,
            |s| s.threads = 1,
            |s| s.fetch_cost = 0,
            |s| s.perturb = None,
            |s| s.solver.budget = s.solver.budget.min(200_000),
            |s| {
                s.mode = match s.mode {
                    Mode::DataSharingSched => Mode::DataSharing,
                    _ => Mode::Naive,
                }
            },
            |s| s.solver.state = parcfl_core::StateBackend::default(),
            |s| s.trace_level = parcfl_runtime::TraceLevel::Off,
            |s| s.deltas.clear(),
            |s| s.fault.skip_invalidation = false,
        ];
        for step in steps {
            let mut candidate = cur.clone();
            step(&mut candidate);
            if candidate.backend == cur.backend
                && candidate.threads == cur.threads
                && candidate.fetch_cost == cur.fetch_cost
                && candidate.perturb == cur.perturb
                && candidate.solver.budget == cur.solver.budget
                && candidate.mode == cur.mode
                && candidate.solver.state == cur.solver.state
                && candidate.trace_level == cur.trace_level
                && candidate.deltas == cur.deltas
                && candidate.fault.skip_invalidation == cur.fault.skip_invalidation
            {
                continue; // no-op for this scenario
            }
            stats.checks += 1;
            if fails(&candidate) {
                cur = candidate;
                adopted = true;
            }
        }

        // 3. Queries, reverse order.
        let mut i = cur.queries.len();
        while i > 0 {
            i -= 1;
            if cur.queries.len() == 1 {
                break;
            }
            let mut candidate = cur.clone();
            candidate.queries.remove(i);
            stats.checks += 1;
            if fails(&candidate) {
                cur = candidate;
                adopted = true;
            }
        }

        // 3b. Delta ops, reverse order (may go to zero — unlike queries,
        // an empty edit script is a valid, simpler scenario).
        let mut i = cur.deltas.len();
        while i > 0 {
            i -= 1;
            let mut candidate = cur.clone();
            candidate.deltas.remove(i);
            stats.checks += 1;
            if fails(&candidate) {
                cur = candidate;
                adopted = true;
            }
        }

        // 4. Edges, sweeps to fixpoint.
        loop {
            let mut changed = false;
            let mut j = cur.pag.edge_count();
            while j > 0 {
                j -= 1;
                let mut edges = cur.pag.edges().to_vec();
                edges.remove(j);
                let mut candidate = cur.clone();
                candidate.pag = cur.pag.with_edges(&edges);
                stats.checks += 1;
                if fails(&candidate) {
                    cur = candidate;
                    changed = true;
                    adopted = true;
                }
            }
            if !changed {
                break;
            }
        }

        // 5. Weaken incidental labels to `assign_l`.
        let mut j = cur.pag.edge_count();
        while j > 0 {
            j -= 1;
            let mut edges = cur.pag.edges().to_vec();
            if matches!(edges[j].kind, EdgeKind::AssignLocal | EdgeKind::New) {
                continue;
            }
            edges[j].kind = EdgeKind::AssignLocal;
            let mut candidate = cur.clone();
            candidate.pag = cur.pag.with_edges(&edges);
            stats.checks += 1;
            if fails(&candidate) {
                cur = candidate;
                adopted = true;
            }
        }

        // 6. Chain contraction; the next cycle's edge sweep restores
        // 1-minimality over the composed edges.
        loop {
            let mut changed = false;
            for v in cur.pag.node_ids() {
                if cur.queries.contains(&v) {
                    continue;
                }
                let Some(edges) = bypass_node(&cur.pag, v) else {
                    continue;
                };
                let mut candidate = cur.clone();
                candidate.pag = cur.pag.with_edges(&edges);
                stats.checks += 1;
                if fails(&candidate) {
                    cur = candidate;
                    changed = true;
                    adopted = true;
                }
            }
            if !changed {
                break;
            }
        }

        if !adopted {
            break;
        }
    }

    // 7. Merge node pairs on the (now small) graph: redirect every edge
    // at `a` onto `b`; duplicates and self-loops collapse, so an adopted
    // merge strictly shrinks the edge set. Quadratic in nodes, so gated
    // on the graph already being small.
    if cur.pag.node_count() <= 32 {
        loop {
            let mut changed = false;
            'pairs: for a in cur.pag.node_ids() {
                if cur.queries.contains(&a) {
                    continue;
                }
                for b in cur.pag.node_ids() {
                    if a == b {
                        continue;
                    }
                    let Some(edges) = merge_nodes(&cur.pag, a, b) else {
                        continue;
                    };
                    let mut candidate = cur.clone();
                    candidate.pag = cur.pag.with_edges(&edges);
                    stats.checks += 1;
                    if fails(&candidate) {
                        cur = candidate;
                        changed = true;
                        continue 'pairs;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    // 8. Compact orphans. Delta-op endpoints are pinned alongside the
    // queries so the id remap can be split back: queries first, then one
    // (src, dst) pair per op.
    let mut pinned = cur.queries.clone();
    for op in &cur.deltas {
        let e = op.edge();
        pinned.push(e.src);
        pinned.push(e.dst);
    }
    let (small, remapped) = compact(&cur.pag, &pinned);
    if small.node_count() < cur.pag.node_count() {
        let qlen = cur.queries.len();
        let mut candidate = cur.clone();
        candidate.pag = small;
        candidate.queries = remapped[..qlen].to_vec();
        for (k, op) in candidate.deltas.iter_mut().enumerate() {
            let e = op.edge();
            let moved = Edge {
                src: remapped[qlen + 2 * k],
                dst: remapped[qlen + 2 * k + 1],
                kind: e.kind,
            };
            *op = match op {
                DeltaOp::AddEdge(_) => DeltaOp::AddEdge(moved),
                DeltaOp::RemoveEdge(_) => DeltaOp::RemoveEdge(moved),
            };
        }
        stats.checks += 1;
        if fails(&candidate) {
            cur = candidate;
        }
    }

    stats.edges.1 = cur.pag.edge_count();
    stats.queries.1 = cur.queries.len();
    stats.deltas.1 = cur.deltas.len();
    (cur, stats)
}

/// An `assign_l` hop carries any other label through unchanged; no other
/// pair of labels composes into a single edge.
fn compose(k1: EdgeKind, k2: EdgeKind) -> Option<EdgeKind> {
    match (k1, k2) {
        (EdgeKind::AssignLocal, k) | (k, EdgeKind::AssignLocal) => Some(k),
        _ => None,
    }
}

/// The edge set with node `a` merged into `b`: every edge endpoint at
/// `a` is redirected to `b`, then duplicates and self-loops are dropped.
/// Returns `None` when one is an object and the other a variable (the
/// object's `new` edge would leave a variable, the variable's edges an
/// object), and unless the result is strictly smaller (guaranteeing the
/// merge sweep terminates).
fn merge_nodes(pag: &Pag, a: NodeId, b: NodeId) -> Option<Vec<Edge>> {
    if pag.kind(a).is_variable() != pag.kind(b).is_variable() {
        return None;
    }
    let redirect = |n: NodeId| if n == a { b } else { n };
    let mut edges: Vec<Edge> = Vec::with_capacity(pag.edge_count());
    for e in pag.edges() {
        let e2 = Edge {
            src: redirect(e.src),
            dst: redirect(e.dst),
            kind: e.kind,
        };
        if e2.src == e2.dst {
            continue;
        }
        if !edges.contains(&e2) {
            edges.push(e2);
        }
    }
    (edges.len() < pag.edge_count()).then_some(edges)
}

/// The edge set with node `v` bypassed: each incoming × outgoing pair
/// replaced by its [`compose`]d edge. Only attempted when the result is
/// strictly smaller (one side has a single edge), every pair composes,
/// and `v` has no self-loop — otherwise returns `None` and the node is
/// left for the plain edge sweep.
fn bypass_node(pag: &Pag, v: NodeId) -> Option<Vec<Edge>> {
    if pag.incoming(v).iter().any(|e| e.src == v) {
        return None;
    }
    let inc = pag.incoming(v);
    let out: Vec<Edge> = pag.outgoing(v).to_vec();
    if inc.is_empty() || out.is_empty() || inc.len().min(out.len()) != 1 {
        return None;
    }
    let mut composed = Vec::with_capacity(inc.len() * out.len());
    for a in inc {
        for b in &out {
            composed.push(Edge {
                src: a.src,
                dst: b.dst,
                kind: compose(a.kind, b.kind)?,
            });
        }
    }
    let mut edges: Vec<Edge> = pag
        .edges()
        .iter()
        .copied()
        .filter(|e| e.src != v && e.dst != v)
        .collect();
    edges.extend(composed);
    Some(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Scenario;

    #[test]
    fn merging_keeps_objects_and_variables_apart() {
        // o →new→ v →assign_l→ w, and a second object flowing into v.
        let pag = Scenario::from_snapshot(
            "counts nodes=4 fields=1 callsites=0\n\
             node 0 obj 1\nnode 1 local 1\nnode 2 local 1\nnode 3 obj 1\n\
             edge 0 1 new\nedge 1 2 assign_l\nedge 3 1 new",
        )
        .expect("snapshot parses")
        .pag;
        let [o, v, w, o2] = [0, 1, 2, 3].map(NodeId::new);
        // Either way round, an object and a variable do not merge: `v`
        // onto `o` would leave `o →assign_l→ w`.
        assert!(merge_nodes(&pag, v, o).is_none());
        assert!(merge_nodes(&pag, o, v).is_none());
        // Like merges with like, and the result is still a program's graph.
        let vars = merge_nodes(&pag, v, w).expect("variables merge");
        assert_eq!(vars.len(), 2, "the assign_l hop collapsed: {vars:?}");
        let objs = merge_nodes(&pag, o2, o).expect("objects merge");
        assert_eq!(objs.len(), 2, "the two `new` edges collapsed: {objs:?}");
        assert!(objs
            .iter()
            .all(|e| (e.kind == EdgeKind::New) == (e.src == o)));
    }
}
