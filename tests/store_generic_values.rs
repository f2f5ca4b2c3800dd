//! v1 acceptance: `HopeStore<V>` round-trips non-`u64` payloads through
//! every serving path — build, point gets, inserts, cursors, and
//! dictionary hot-swaps — and the pluggable-index hook
//! (`Backend::Custom`) serves a user-supplied `OrderedIndex`.

use std::collections::BTreeMap;

use hope_store::prelude::*;

/// A "document" payload: owned bytes plus a revision counter — `Clone +
/// Send + Sync + Debug`, nothing else, exactly the [`hope::Value`] bound.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Doc {
    body: Vec<u8>,
    rev: u32,
}

fn doc(i: u32, rev: u32) -> Doc {
    Doc { body: format!("payload for user {i}, rev {rev}").into_bytes(), rev }
}

fn load(n: u32) -> Vec<(Vec<u8>, Doc)> {
    (0..n).map(|i| (format!("com.gmail@user{i:05}").into_bytes(), doc(i, 0))).collect()
}

#[test]
fn vec_u8_payloads_round_trip_through_build_probe_and_swap() {
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..2_000u32)
        .map(|i| (format!("com.gmail@user{i:05}").into_bytes(), format!("doc-{i}").into_bytes()))
        .collect();
    let store: HopeStore<Vec<u8>> =
        HopeStore::build(StoreConfig::default(), pairs.clone()).unwrap();
    let mut shadow: BTreeMap<Vec<u8>, Vec<u8>> = pairs.into_iter().collect();

    assert_eq!(store.get(b"com.gmail@user00042").unwrap(), Some(b"doc-42".to_vec()));
    // Zero-clone read path for heavy payloads.
    assert_eq!(store.get_with(b"com.gmail@user00042", |v| v.len()).unwrap(), Some(6));

    // Updates return the superseded payload.
    let old = store.insert(b"com.gmail@user00042".to_vec(), b"doc-42v2".to_vec()).unwrap();
    assert_eq!(old, shadow.insert(b"com.gmail@user00042".to_vec(), b"doc-42v2".to_vec()));

    // Cursor pull across every shard matches the shadow map.
    let mut cur = store.cursor(b"", b"\xff", usize::MAX).unwrap();
    let mut seen = 0usize;
    let mut expect = shadow.iter();
    while let Some((k, v)) = cur.next_hit() {
        let (wk, wv) = expect.next().expect("cursor emitted too many hits");
        assert_eq!((k, v), (wk.as_slice(), wv));
        seen += 1;
    }
    assert_eq!(seen, shadow.len());

    // Hot-swap every shard: keys are re-encoded, payloads carried through.
    for s in 0..store.config().shards {
        store.force_rebuild(s).unwrap();
    }
    for (k, v) in shadow.iter().step_by(97) {
        assert_eq!(store.get(k).unwrap().as_ref(), Some(v));
    }
    assert_eq!(store.len(), shadow.len());
}

#[test]
fn struct_payloads_serve_through_the_visitor_and_maintenance() {
    let cfg = StoreConfig { shards: 2, min_observed_bytes: 1024, ..StoreConfig::default() };
    let store: HopeStore<Doc> = HopeStore::build(cfg, load(800)).unwrap();

    assert_eq!(store.get(b"com.gmail@user00007").unwrap(), Some(doc(7, 0)));
    store.insert(b"com.gmail@user00007".to_vec(), doc(7, 1)).unwrap();

    let mut revs = Vec::new();
    let hits = store
        .range_with(b"com.gmail@user00006", b"com.gmail@user00008", 10, |_, d| revs.push(d.rev))
        .unwrap();
    assert_eq!(hits, 3);
    assert_eq!(revs, vec![0, 1, 0]);

    // Drift traffic with struct payloads, then maintenance swaps.
    for i in 0..900u32 {
        store.insert(format!("XQ#{i:}!!zw|{i:x}").into_bytes(), doc(i, 9)).unwrap();
    }
    let (swaps, errors) = store.maintain();
    assert!(errors.is_empty(), "{errors:?}");
    assert!(!swaps.is_empty(), "drifted traffic must trigger a swap");
    assert_eq!(store.get(b"com.gmail@user00007").unwrap(), Some(doc(7, 1)));
    assert_eq!(store.get(b"XQ#13!!zw|d").unwrap(), Some(doc(13, 9)));
}

/// A user-defined ordered index: a sorted vector of `(key, slot id)`
/// pairs, implementing the whole `OrderedIndex` contract itself.
#[derive(Debug, Default)]
struct SortedVecIndex {
    pairs: Vec<(Vec<u8>, SlotId)>,
}

impl SortedVecIndex {
    fn lower_bound(&self, key: &[u8]) -> usize {
        self.pairs.partition_point(|(k, _)| k.as_slice() < key)
    }
}

impl hope::OrderedIndex<SlotId> for SortedVecIndex {
    fn get(&self, key: &[u8]) -> Option<&SlotId> {
        self.pairs.get(self.lower_bound(key)).filter(|(k, _)| k.as_slice() == key).map(|(_, v)| v)
    }

    fn insert(&mut self, key: &[u8], value: SlotId) -> Option<SlotId> {
        let i = self.lower_bound(key);
        match self.pairs.get_mut(i) {
            Some((k, v)) if k.as_slice() == key => Some(std::mem::replace(v, value)),
            _ => {
                self.pairs.insert(i, (key.to_vec(), value));
                None
            }
        }
    }

    fn scan_into(&self, start: &[u8], count: usize, out: &mut Vec<SlotId>) {
        out.extend(self.pairs[self.lower_bound(start)..].iter().take(count).map(|(_, v)| *v));
    }

    fn range_into(&self, low: &[u8], high: &[u8], limit: usize, out: &mut Vec<SlotId>) {
        let hits =
            self.pairs[self.lower_bound(low)..].iter().take_while(|(k, _)| k.as_slice() <= high);
        out.extend(hits.take(limit).map(|(_, v)| *v));
    }

    fn for_each(&self, f: &mut dyn FnMut(&[u8], &SlotId)) {
        for (k, v) in &self.pairs {
            f(k, v);
        }
    }

    fn len(&self) -> usize {
        self.pairs.len()
    }

    fn memory_bytes(&self) -> usize {
        self.pairs.capacity() * std::mem::size_of::<(Vec<u8>, SlotId)>()
            + self.pairs.iter().map(|(k, _)| k.capacity()).sum::<usize>()
    }
}

/// A user-supplied index through the `Backend::Custom` factory hook: the
/// store's shards index slot ids (`SlotId`) in whatever structure the
/// factory returns — here a type defined outside the workspace crates.
#[test]
fn custom_index_factory_plugs_into_the_store() {
    fn shadow_index() -> Box<dyn hope::OrderedIndex<SlotId>> {
        Box::<SortedVecIndex>::default()
    }
    let cfg = StoreConfig { backend: Backend::Custom(shadow_index), ..StoreConfig::default() };
    let store: HopeStore<Vec<u8>> = HopeStore::build(
        cfg,
        (0..500u32).map(|i| (format!("user{i:04}").into_bytes(), vec![i as u8])),
    )
    .unwrap();
    assert_eq!(store.get(b"user0123").unwrap(), Some(vec![123]));
    let mut out = Vec::new();
    store.range_into(b"user0100", b"user0104", 10, &mut out).unwrap();
    assert_eq!(out.len(), 5);
    // Swaps build fresh indexes through the same factory, and read the
    // old generation's encodings back through its `for_each`.
    store.insert(b"user0123".to_vec(), vec![7]).unwrap();
    for s in 0..store.config().shards {
        store.force_rebuild(s).unwrap();
    }
    assert_eq!(store.get(b"user0123").unwrap(), Some(vec![7]));
    assert_eq!(store.get(b"user0499").unwrap(), Some(vec![499u32 as u8]));
    assert_eq!(store.len(), 500);
    // The config (with its factory) stays copyable/debuggable.
    let copied = *store.config();
    assert!(format!("{copied:?}").contains("Custom"));
}
