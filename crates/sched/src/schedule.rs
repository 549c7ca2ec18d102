//! Schedule assembly (paper Section III-C): group queries by the `direct`
//! relation, order members by increasing flow depth and then connection
//! distance, order groups by increasing dependence depth (decreasing type
//! level), then rebalance group sizes towards the mean `M` — groups larger
//! than `M` are split, smaller adjacent groups are merged — for load
//! balance on the shared work list.

use crate::groups::Groups;
use crate::metrics::{group_level, keys, Keys};
use parcfl_pag::{NodeId, Pag};
use std::cmp::Reverse;

/// Options for schedule construction. Group sizes are always rebalanced
/// to the mean (paper: split larger than `M`, merge smaller with adjacent
/// groups).
#[derive(Clone, Debug, Default)]
pub struct ScheduleOptions {
    /// Upper bound on the rebalanced group size. The paper's `M` (the mean
    /// component size) presumes tens of thousands of queries, where mean-
    /// sized groups still yield thousands of dispatch units; at smaller
    /// query counts an uncapped `M` starves the work list. Callers that
    /// know the thread count pass `queries / (4 × threads)`-ish here so a
    /// 16-thread run always has a few dispatch units per thread.
    pub max_group_size: Option<usize>,
}

/// The final query schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Ordered groups of queries; a thread fetches one group at a time.
    pub groups: Vec<Vec<NodeId>>,
    /// Average group size before rebalancing — Table I's `S_g`.
    pub avg_group_size: f64,
}

impl Schedule {
    /// Total number of queries.
    pub fn query_count(&self) -> usize {
        self.groups.iter().map(|g| g.len()).sum()
    }

    /// Flattened issue order.
    pub fn flat_order(&self) -> Vec<NodeId> {
        self.groups.iter().flatten().copied().collect()
    }

    /// The unscheduled baseline: each query its own group, input order
    /// (used by the naive and D-only modes).
    pub fn unscheduled(queries: &[NodeId]) -> Schedule {
        Schedule {
            groups: queries.iter().map(|&q| vec![q]).collect(),
            avg_group_size: 1.0,
        }
    }
}

/// Builds the paper's DQ schedule for `queries` over `pag`.
pub fn build_schedule(pag: &Pag, queries: &[NodeId], opts: &ScheduleOptions) -> Schedule {
    build_schedule_with_levels(pag, queries, opts, &pag.types().levels())
}

/// [`build_schedule`] with the per-type level table precomputed —
/// the query-independent metadata a [`crate::cache::ScheduleCache`]
/// computes once per PAG and reuses across batches.
pub(crate) fn build_schedule_with_levels(
    pag: &Pag,
    queries: &[NodeId],
    opts: &ScheduleOptions,
    all_levels: &[u32],
) -> Schedule {
    if queries.is_empty() {
        return Schedule {
            groups: Vec::new(),
            avg_group_size: 0.0,
        };
    }
    schedule_by(pag, queries, opts, all_levels, &keys(pag))
}

/// Groups `queries`, orders the groups and their members, and rebalances,
/// over the member keys `keys`.
fn schedule_by(
    pag: &Pag,
    queries: &[NodeId],
    opts: &ScheduleOptions,
    all_levels: &[u32],
    keys: &Keys,
) -> Schedule {
    let groups = Groups::build(pag, queries);

    // Order members within each group by increasing flow depth, then CD
    // (ties by node id for determinism), and groups by decreasing max type
    // level == increasing DD = 1/L. Level-0 groups (primitives/opaque)
    // sort last. Ties broken by smallest member id for determinism.
    let mut ordered: Vec<_> = groups
        .members
        .into_iter()
        .map(|mut m| {
            let level = group_level(all_levels, pag, &m);
            let key = (level == 0, Reverse(level), m.iter().min().copied());
            m.sort_by_key(|&v| keys.of(v));
            (key, m)
        })
        .collect();
    ordered.sort_by_key(|&(key, _)| key);

    let avg = queries.len() as f64 / ordered.len() as f64;
    let cap = opts.max_group_size.map_or(usize::MAX, |c| c.max(1));
    let m = (avg.ceil().max(1.0) as usize).min(cap);
    Schedule {
        groups: rebalance(ordered.into_iter().map(|(_, g)| g), m),
        avg_group_size: avg,
    }
}

/// Splits groups larger than `m` (preserving their order) and merges
/// adjacent smaller ones: the groups laid end to end, cut into units of
/// exactly `m`, the last one possibly short.
fn rebalance(groups: impl Iterator<Item = Vec<NodeId>>, m: usize) -> Vec<Vec<NodeId>> {
    let flat: Vec<NodeId> = groups.flatten().collect();
    flat.chunks(m).map(<[NodeId]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcfl_frontend::build_pag;
    use parcfl_synth::Profile;

    fn name(pag: &Pag, n: NodeId) -> String {
        pag.node(n).name.to_string()
    }

    #[test]
    fn deep_types_scheduled_first() {
        // `u: Outer` depends on nothing here, but the paper's heuristic
        // puts deep containers before shallow values: the Outer group must
        // precede the Obj group.
        let src = "class Obj { }
                   class Inner { field o: Obj; }
                   class Outer { field i: Inner; }
                   class A { method m() {
                     var shallow: Obj; var deep: Outer;
                     shallow = new Obj; deep = new Outer;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let shallow = pag.node_by_name("shallow@A.m").unwrap();
        let deep = pag.node_by_name("deep@A.m").unwrap();
        let s = build_schedule(&pag, &[shallow, deep], &ScheduleOptions::default());
        let order = s.flat_order();
        let pos = |v| order.iter().position(|&x| x == v).unwrap();
        assert!(
            pos(deep) < pos(shallow),
            "deep-typed group first: {:?}",
            order.iter().map(|&n| name(&pag, n)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn within_group_shorter_cd_first() {
        // One group: a -> b -> c -> d, and e = b off the chain.
        let src = "class Obj { }
                   class A { method m() {
                     var a: Obj; var b: Obj; var c: Obj; var d: Obj; var e: Obj;
                     a = new Obj;
                     b = a; c = b; d = c;
                     e = b;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let ids: Vec<_> = ["a@A.m", "b@A.m", "c@A.m", "d@A.m", "e@A.m"]
            .iter()
            .map(|n| pag.node_by_name(n).unwrap())
            .collect();
        let s = build_schedule(&pag, &ids, &ScheduleOptions::default());
        assert_eq!(s.avg_group_size, 5.0, "one group");
        let order = s.flat_order();
        let pos = |v| order.iter().position(|&x| x == v).unwrap();
        // e lies on a path of length 2 (a->b->e); the others on length 3.
        assert!(pos(ids[4]) < pos(ids[3]), "shorter CD first");
    }

    #[test]
    fn within_group_upstream_heap_flow_first() {
        // `p.f = y; x = q.f` with `p`, `q` aliased, and `a = x; a = y`:
        // one group, equal CD, and `x` has the smaller id; `y` flows into
        // `x` through the heap, so `y` is issued first.
        let src = "class Obj { }
                   class Box { field f: Obj; }
                   class A { method m() {
                     var x: Obj; var y: Obj; var p: Box; var q: Box; var a: Obj;
                     p = new Box; q = p; y = new Obj;
                     p.f = y; x = q.f;
                     a = x; a = y;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let [x, y] = ["x@A.m", "y@A.m"].map(|n| pag.node_by_name(n).unwrap());
        let s = build_schedule(&pag, &[x, y], &ScheduleOptions::default());
        assert_eq!(s.avg_group_size, 2.0, "one group");
        assert_eq!(s.flat_order(), vec![y, x]);
    }

    #[test]
    fn rebalance_splits_and_merges_to_mean() {
        // One group of 6 and three singletons: average M = ceil(9/4) = 3
        // ... build 6-chain plus 3 isolated vars.
        let src = "class Obj { }
                   class A { method m() {
                     var a: Obj; var b: Obj; var c: Obj; var d: Obj; var e: Obj; var f: Obj;
                     var x: Obj; var y: Obj; var z: Obj;
                     a = new Obj; b = a; c = b; d = c; e = d; f = e;
                     x = new Obj; y = new Obj; z = new Obj;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let ids: Vec<_> = ["a", "b", "c", "d", "e", "f", "x", "y", "z"]
            .iter()
            .map(|n| pag.node_by_name(&format!("{n}@A.m")).unwrap())
            .collect();
        let s = build_schedule(&pag, &ids, &ScheduleOptions::default());
        assert_eq!(s.query_count(), 9);
        // avg = 9/4 = 2.25, M = 3: all rebalanced groups except possibly the
        // last have exactly M members.
        for g in &s.groups[..s.groups.len() - 1] {
            assert_eq!(g.len(), 3, "{:?}", s.groups);
        }
        assert!(s.groups.last().unwrap().len() <= 3);
        assert!((s.avg_group_size - 2.25).abs() < 1e-9);
    }

    #[test]
    fn max_group_size_caps_rebalancing() {
        let src = "class Obj { }
                   class A { method m() {
                     var a: Obj; var b: Obj; var c: Obj; var d: Obj; var e: Obj; var f: Obj;
                     a = new Obj; b = a; c = b; d = c; e = d; f = e;
                   } }";
        let pag = build_pag(src).unwrap().pag;
        let ids = pag.application_locals();
        let opts = ScheduleOptions {
            max_group_size: Some(2),
        };
        let s = build_schedule(&pag, &ids, &opts);
        assert!(s.groups.iter().all(|g| g.len() <= 2), "{:?}", s.groups);
        assert_eq!(s.query_count(), ids.len());
    }

    #[test]
    fn empty_and_unscheduled() {
        let pag = build_pag("class A { }").unwrap().pag;
        let s = build_schedule(&pag, &[], &ScheduleOptions::default());
        assert_eq!(s.query_count(), 0);
        let u = Schedule::unscheduled(&[NodeId::new(0), NodeId::new(1)]);
        assert_eq!(u.groups.len(), 2);
        assert_eq!(u.flat_order(), vec![NodeId::new(0), NodeId::new(1)]);
    }

    /// The rebalance before `chunks`, kept as the reference: a buffer that
    /// emits its first `m` members whenever it holds that many (and
    /// re-copied the rest each time).
    fn pending_rebalance(groups: Vec<Vec<NodeId>>, m: usize) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        let mut pending: Vec<NodeId> = Vec::new();
        for g in groups {
            pending.extend_from_slice(&g);
            while pending.len() >= m {
                let rest = pending.split_off(m);
                out.push(std::mem::replace(&mut pending, rest));
            }
        }
        if !pending.is_empty() {
            out.push(pending);
        }
        out
    }

    /// The connection distances before the one-pass sweep, kept as the
    /// reference: per component a CSR off `outgoing`, a Tarjan run, a
    /// sorted condensation and a Kahn pass (`longest_path_through`).
    fn reference_cds(pag: &Pag) -> Vec<u32> {
        use parcfl_pag::algo::{longest_path_through, tarjan_scc};
        let all: Vec<NodeId> = pag.node_ids().collect();
        let (mut cds, mut local) = (vec![0; all.len()], vec![0; all.len()]);
        for nodes in Groups::build(pag, &all).members {
            for (i, &v) in nodes.iter().enumerate() {
                local[v.index()] = i;
            }
            let direct = |v: NodeId| pag.outgoing(v).iter().filter(|e| e.kind.is_direct());
            let succ: Vec<Vec<usize>> = (nodes.iter())
                .map(|&v| direct(v).map(|e| local[e.dst.index()]).collect())
                .collect();
            let scc = tarjan_scc(nodes.len(), |v| succ[v].iter().copied());
            let comp = |v: usize| scc.component_of(v) as u32;
            let mut cedges: Vec<(u32, u32)> = (0..nodes.len())
                .flat_map(|v| succ[v].iter().map(move |&w| (comp(v), comp(w))))
                .filter(|(a, b)| a != b)
                .collect();
            cedges.sort_unstable();
            cedges.dedup();
            let lp = longest_path_through(scc.component_count(), &cedges);
            for (i, &v) in nodes.iter().enumerate() {
                cds[v.index()] = lp[scc.component_of(i)] as u32;
            }
        }
        cds
    }

    /// The flow depths by another route: the hub arcs read off the PAG's
    /// per-field load and store lists, the generic Tarjan, and the
    /// longest path into each component by a Kahn pass over the sorted
    /// condensation.
    fn reference_depths(pag: &Pag) -> Vec<u32> {
        use parcfl_pag::algo::tarjan_scc;
        use parcfl_pag::FieldId;
        let n = pag.node_count();
        let hubs = pag.types().field_count();
        let mut succ: Vec<Vec<usize>> = (pag.node_ids())
            .map(|v| {
                (pag.outgoing(v).iter().filter(|e| e.kind.is_direct()))
                    .map(|e| e.dst.index())
                    .collect()
            })
            .collect();
        succ.resize(n + hubs, Vec::new());
        for f in 0..hubs {
            let f = FieldId::new(f as u32);
            for &(_, rhs) in pag.stores_of(f) {
                succ[rhs.index()].push(n + f.index());
            }
            for &(_, dst) in pag.loads_of(f) {
                succ[n + f.index()].push(dst.index());
            }
        }
        let scc = tarjan_scc(n + hubs, |v| succ[v].iter().copied());
        let comps = scc.component_count();
        let mut cedges: Vec<(usize, usize)> = (0..n + hubs)
            .flat_map(|v| succ[v].iter().map(move |&w| (v, w)))
            .map(|(v, w)| (scc.component_of(v), scc.component_of(w)))
            .filter(|(a, b)| a != b)
            .collect();
        cedges.sort_unstable();
        cedges.dedup();
        let mut indeg = vec![0usize; comps];
        for &(_, b) in &cedges {
            indeg[b] += 1;
        }
        let mut ready: Vec<usize> = (0..comps).filter(|&c| indeg[c] == 0).collect();
        let mut lin = vec![0u32; comps];
        while let Some(c) = ready.pop() {
            let from = cedges.partition_point(|&(a, _)| a < c);
            for &(_, d) in cedges[from..].iter().take_while(|&&(a, _)| a == c) {
                lin[d] = lin[d].max(lin[c] + 1);
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    ready.push(d);
                }
            }
        }
        (0..n).map(|v| lin[scc.component_of(v)]).collect()
    }

    fn reference_keys(pag: &Pag) -> Keys {
        Keys {
            cd: reference_cds(pag),
            depth: reference_depths(pag),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Over random group shapes — empty, singleton and giant groups —
        /// and caps, the rebalanced schedule is the old one, unit for unit.
        #[test]
        fn rebalance_cuts_what_the_pending_buffer_cut(
            sizes in proptest::collection::vec(0usize..300, 0..24),
            m in 1usize..40,
        ) {
            let mut ids = (0..).map(NodeId::new);
            let groups: Vec<Vec<NodeId>> = sizes
                .iter()
                .map(|&s| ids.by_ref().take(s).collect())
                .collect();
            let new = rebalance(groups.clone().into_iter(), m);
            proptest::prop_assert_eq!(new, pending_rebalance(groups, m));
        }

        /// On generated programs (assign cycles left in) under caps none,
        /// 1, 4, 16 and a random one, the schedule over the one-pass keys
        /// is the one over the reference's.
        #[test]
        fn one_pass_schedule_is_the_reference(seed in 0u64..5000, cap in 1usize..40) {
            let profile = if seed % 2 == 0 { Profile::tiny(seed) } else { Profile::small(seed) };
            let pag = parcfl_frontend::extract(&parcfl_synth::generate(&profile)).unwrap().pag;
            let (queries, levels) = (pag.application_locals(), pag.types().levels());
            let reference = reference_keys(&pag);
            for max_group_size in [None, Some(1), Some(4), Some(16), Some(cap)] {
                let opts = ScheduleOptions { max_group_size };
                let want = schedule_by(&pag, &queries, &opts, &levels, &reference);
                let got = build_schedule(&pag, &queries, &opts);
                proptest::prop_assert_eq!(got.groups, want.groups);
                proptest::prop_assert_eq!(got.avg_group_size, want.avg_group_size);
            }
        }
    }

    #[test]
    fn schedule_contains_each_query_exactly_once() {
        let src = "class Obj { }
                   class A {
                     method id(o: Obj): Obj { return o; }
                     method m(x: Obj) {
                       var r: Obj; var s: Obj;
                       r = call this.id(x);
                       s = r;
                     }
                   }";
        let pag = build_pag(src).unwrap().pag;
        let queries = pag.application_locals();
        let s = build_schedule(&pag, &queries, &ScheduleOptions::default());
        let mut flat = s.flat_order();
        flat.sort_unstable();
        let mut expect = queries.clone();
        expect.sort_unstable();
        assert_eq!(flat, expect);
    }
}
