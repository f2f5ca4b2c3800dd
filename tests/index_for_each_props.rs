//! Differential property: every `OrderedIndex` backend's `for_each`
//! visits exactly the `(key, value)` sequence a `BTreeMap` iterates —
//! same keys, same order, latest values — including the empty key, keys
//! that are prefixes of other keys, and updated keys.

use std::collections::BTreeMap;

use hope::OrderedIndex;
use proptest::prelude::*;

fn backends() -> Vec<(&'static str, Box<dyn OrderedIndex<u64>>)> {
    vec![
        ("btree", Box::new(hope_btree::BPlusTree::<u64>::plain())),
        ("prefix-btree", Box::new(hope_btree::BPlusTree::<u64>::prefix())),
        ("art", Box::new(hope_art::Art::<u64>::new())),
        ("hot", Box::new(hope_hot::Hot::<u64>::new())),
        ("btreemap", Box::<BTreeMap<Vec<u8>, u64>>::default()),
    ]
}

fn visit(ix: &dyn OrderedIndex<u64>) -> Vec<(Vec<u8>, u64)> {
    let mut out = Vec::new();
    ix.for_each(&mut |k, v| out.push((k.to_vec(), *v)));
    out
}

#[test]
fn empty_and_prefix_keys_visit_in_order() {
    let keys: [&[u8]; 6] = [b"abc", b"", b"a", b"ab", b"b", b"a\0"];
    for (name, mut ix) in backends() {
        assert!(visit(ix.as_ref()).is_empty(), "{name}: empty index visited something");
        for (i, k) in keys.iter().enumerate() {
            ix.insert(k, i as u64);
        }
        ix.insert(b"ab", 99);
        let got = visit(ix.as_ref());
        let want: Vec<(Vec<u8>, u64)> = vec![
            (b"".to_vec(), 1),
            (b"a".to_vec(), 2),
            (b"a\0".to_vec(), 5),
            (b"ab".to_vec(), 99),
            (b"abc".to_vec(), 0),
            (b"b".to_vec(), 4),
        ];
        assert_eq!(got, want, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn for_each_matches_btreemap_iteration(
        // A three-letter alphabet and short keys make empty keys, shared
        // prefixes, keys that prefix other keys, and repeated keys (the
        // updates) common.
        small in proptest::collection::vec(
            (proptest::collection::vec(0u8..3, 0..6), any::<u64>()), 0..200),
        wide in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..24), any::<u64>()), 0..200),
    ) {
        for (name, mut ix) in backends() {
            let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            for (k, v) in small.iter().chain(&wide) {
                prop_assert_eq!(ix.insert(k, *v), model.insert(k.clone(), *v), "{} insert", name);
            }
            let want: Vec<(Vec<u8>, u64)> = model.iter().map(|(k, v)| (k.clone(), *v)).collect();
            prop_assert_eq!(visit(ix.as_ref()), want, "{}", name);
        }
    }
}
