//! Property tests for the sharded concurrent map: agreement with a
//! sequential HashMap model under arbitrary operation sequences.

use parcfl_concurrent::ShardedMap;
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum Op {
    TryInsert(u16, u32),
    Insert(u16, u32),
    Contains(u16),
    Get(u16),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::TryInsert(k % 64, v)),
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k % 64, v)),
        any::<u16>().prop_map(|k| Op::Contains(k % 64)),
        any::<u16>().prop_map(|k| Op::Get(k % 64)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn matches_hashmap_model(ops in proptest::collection::vec(op(), 0..200)) {
        let map: ShardedMap<u16, u32> = ShardedMap::with_shards(8);
        let mut model: HashMap<u16, u32> = HashMap::new();
        for o in ops {
            match o {
                Op::TryInsert(k, v) => {
                    let did = map.try_insert(k, v);
                    let model_did = !model.contains_key(&k);
                    if model_did { model.insert(k, v); }
                    prop_assert_eq!(did, model_did);
                }
                Op::Insert(k, v) => {
                    let old = map.insert(k, v);
                    let model_old = model.insert(k, v);
                    prop_assert_eq!(old, model_old);
                }
                Op::Contains(k) => {
                    prop_assert_eq!(map.contains_key(&k), model.contains_key(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(map.get_cloned(&k), model.get(&k).copied());
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }
        // Final sweep agreement.
        let mut collected: Vec<(u16, u32)> = Vec::new();
        map.for_each(|&k, &v| collected.push((k, v)));
        collected.sort_unstable();
        let mut expect: Vec<(u16, u32)> = model.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(collected, expect);
    }
}
