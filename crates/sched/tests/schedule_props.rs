//! Property tests for schedule construction over generated programs.

use parcfl_sched::{build_schedule, Groups, ScheduleOptions};
use parcfl_synth::{generate, Profile};
use proptest::prelude::*;

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

    /// Grouping is consistent with the direct relation: members of one
    /// component never split across unbalanced groups' *metadata* (the
    /// Groups structure), and same_group is an equivalence.
    #[test]
    fn groups_form_equivalence(seed in 0u64..5000) {
        let prog = generate(&profile(seed, 2));
        let pag = parcfl_frontend::extract(&prog).unwrap().pag;
        let queries = pag.application_locals();
        let g = Groups::build(&pag, &queries);
        let total: usize = g.members.iter().map(|m| m.len()).sum();
        prop_assert_eq!(total, queries.len());
        for (i, members) in g.members.iter().enumerate() {
            for &a in members {
                for &b in members {
                    prop_assert!(g.same_group(a, b));
                }
                for (j, other) in g.members.iter().enumerate() {
                    if i != j {
                        for &b in other {
                            prop_assert!(!g.same_group(a, b));
                        }
                    }
                }
            }
        }
    }
}
