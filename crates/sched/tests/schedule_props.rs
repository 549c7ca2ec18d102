//! Property tests for schedule construction over generated programs.

use parcfl_pag::NodeId;
use parcfl_sched::{build_schedule, Groups, ScheduleOptions};
use parcfl_synth::{generate, Profile};
use proptest::prelude::*;
use std::collections::HashMap;

fn profile(seed: u64, apps: usize) -> Profile {
    Profile {
        name: format!("sched-{seed}"),
        seed,
        value_classes: 2,
        box_classes: 2,
        collections: 1,
        app_classes: apps.clamp(1, 4),
        methods_per_class: 2,
        idioms_per_method: 3,
        idiom_weights: [2, 2, 2, 2, 1, 2, 2, 1, 0],
        subclass_percent: 30,
        budget: 75_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Schedules are permutations of the query set, under any cap.
    #[test]
    fn schedule_is_permutation(seed in 0u64..5000, apps in 1usize..5, cap in 1usize..20) {
        let prog = generate(&profile(seed, apps));
        let pag = parcfl_frontend::extract(&prog).unwrap().pag;
        let queries = pag.application_locals();
        let opts = ScheduleOptions { max_group_size: Some(cap) };
        let s = build_schedule(&pag, &queries, &opts);
        let mut flat = s.flat_order();
        flat.sort_unstable();
        let mut expect = queries.clone();
        expect.sort_unstable();
        prop_assert_eq!(flat, expect);
        prop_assert!(s.groups.iter().all(|g| g.len() <= cap.max(1)));
        prop_assert!(s.groups.iter().all(|g| !g.is_empty()));
    }

    /// Grouping is consistent with the direct relation: the groups
    /// partition the queries, and a direct edge between two queries never
    /// joins two groups.
    #[test]
    fn groups_form_equivalence(seed in 0u64..5000) {
        let prog = generate(&profile(seed, 2));
        let pag = parcfl_frontend::extract(&prog).unwrap().pag;
        let queries = pag.application_locals();
        let g = Groups::build(&pag, &queries);
        let group_of: HashMap<NodeId, usize> = (g.members.iter().enumerate())
            .flat_map(|(i, m)| m.iter().map(move |&q| (q, i)))
            .collect();
        let total: usize = g.members.iter().map(|m| m.len()).sum();
        prop_assert_eq!((total, group_of.len()), (queries.len(), queries.len()));
        for e in pag.edges().iter().filter(|e| e.kind.is_direct()) {
            if let (Some(a), Some(b)) = (group_of.get(&e.src), group_of.get(&e.dst)) {
                prop_assert_eq!(a, b);
            }
        }
    }
}
