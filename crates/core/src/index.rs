//! The [`OrderedIndex`] abstraction: what HOPE requires of a search tree.
//!
//! HOPE compresses keys for *order-sensitive* structures; any index that
//! maps byte-string keys to values and supports ordered iteration can
//! store HOPE-encoded keys and answer the same point and range queries
//! (§5). This trait captures that contract so serving layers — notably the
//! `hope_store` sharded store — can treat the tree backend as pluggable:
//! `hope_btree::BPlusTree`, `hope_art::Art` and `hope_hot::Hot` implement
//! it, and [`std::collections::BTreeMap`] gets a reference implementation
//! used as the differential-testing oracle.
//!
//! Since the v1 API the trait is **generic over its value payload**
//! `V: `[`Value`] (any `Clone + Send + Sync + Debug + 'static` type), with
//! `u64` as the default parameter so `dyn OrderedIndex` keeps meaning the
//! classic id-valued index. The required scan surface is the
//! allocation-free `*_into` form; the `Vec`-returning [`OrderedIndex::range`]
//! is a deprecated shim kept for migration.
//!
//! Keys are plain byte slices: callers index either raw keys or the padded
//! bytes of an [`EncodedKey`](crate::EncodedKey). The trait requires
//! `Send + Sync` so an index can sit behind a shard's epoch handle and be
//! read from many threads.

/// Marker bound for index value payloads.
///
/// Blanket-implemented for every `Clone + Send + Sync + Debug + 'static`
/// type, so `u64` record ids, `Vec<u8>` documents, `Arc<T>` handles and
/// user structs all qualify without opt-in:
///
/// ```
/// fn assert_value<V: hope::Value>() {}
/// assert_value::<u64>();
/// assert_value::<Vec<u8>>();
/// assert_value::<(String, f64)>();
/// ```
pub trait Value: Clone + Send + Sync + std::fmt::Debug + 'static {}

impl<T: Clone + Send + Sync + std::fmt::Debug + 'static> Value for T {}

/// An ordered map from byte-string keys to `V` values.
///
/// The ordering contract: iteration-order equals lexicographic byte order
/// of the stored keys, range bounds are **inclusive** on both ends, and
/// a key may be a prefix of another key (required for HOPE-encoded keys).
pub trait OrderedIndex<V: Value = u64>: Send + Sync + std::fmt::Debug {
    /// Point lookup, borrowing the stored value.
    fn get(&self, key: &[u8]) -> Option<&V>;

    /// Insert or update; returns the previous value if the key existed.
    fn insert(&mut self, key: &[u8], value: V) -> Option<V>;

    /// Append clones of the values of up to `count` keys `>= start` to
    /// `out`, in key order — the allocation-free scan primitive.
    fn scan_into(&self, start: &[u8], count: usize, out: &mut Vec<V>);

    /// Append clones of the values of up to `limit` keys in `low..=high`
    /// to `out`, in key order — the allocation-free form scan loops reuse
    /// a buffer with. For a fixed index state and fixed bounds, growing
    /// `limit` must only *extend* the emitted sequence (results are a
    /// stable prefix), which every ordered structure satisfies naturally;
    /// `hope_store`'s scan retry loop relies on it. Inverted bounds
    /// (`low > high`) must emit nothing.
    fn range_into(&self, low: &[u8], high: &[u8], limit: usize, out: &mut Vec<V>);

    /// Visit every `(key, value)` pair in key order. The key slice is
    /// only valid for the duration of the call (an index that stores
    /// keys split, like a prefix-truncated B+tree, reassembles them into
    /// one reused buffer). This is how a caller recovers the keys an
    /// index holds without keeping a second copy of them.
    fn for_each(&self, f: &mut dyn FnMut(&[u8], &V));

    /// Values of up to `count` keys `>= start`, in key order (allocating
    /// convenience over [`OrderedIndex::scan_into`]).
    fn scan(&self, start: &[u8], count: usize) -> Vec<V> {
        let mut out = Vec::with_capacity(count.min(64));
        self.scan_into(start, count, &mut out);
        out
    }

    /// Values of up to `limit` keys in `low..=high`, in key order.
    ///
    /// ```
    /// use hope::OrderedIndex;
    /// use std::collections::BTreeMap;
    ///
    /// let mut ix: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    /// ix.insert(b"a".to_vec(), 1);
    /// ix.insert(b"b".to_vec(), 2);
    /// // The deprecated shim agrees with the `range_into` it wraps.
    /// #[allow(deprecated)]
    /// let hits = OrderedIndex::range(&ix, b"a", b"b", 10);
    /// let mut out = Vec::new();
    /// OrderedIndex::range_into(&ix, b"a", b"b", 10, &mut out);
    /// assert_eq!(hits, out);
    /// ```
    #[deprecated(
        since = "0.2.0",
        note = "allocates a fresh Vec per call; use `range_into` with a reused buffer \
                (or a `hope_store` RangeCursor at the store level)"
    )]
    fn range(&self, low: &[u8], high: &[u8], limit: usize) -> Vec<V> {
        let mut out = Vec::with_capacity(limit.min(64));
        self.range_into(low, high, limit, &mut out);
        out
    }

    /// Number of stored keys.
    fn len(&self) -> usize;

    /// True if no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint of the index structure in bytes.
    fn memory_bytes(&self) -> usize;
}

/// Reference implementation over the standard library's ordered map, used
/// as the oracle in differential tests and as a no-frills store backend.
impl<V: Value> OrderedIndex<V> for std::collections::BTreeMap<Vec<u8>, V> {
    fn get(&self, key: &[u8]) -> Option<&V> {
        std::collections::BTreeMap::get(self, key)
    }

    fn insert(&mut self, key: &[u8], value: V) -> Option<V> {
        std::collections::BTreeMap::insert(self, key.to_vec(), value)
    }

    fn scan_into(&self, start: &[u8], count: usize, out: &mut Vec<V>) {
        out.extend(self.range(start.to_vec()..).take(count).map(|(_, v)| v.clone()));
    }

    fn range_into(&self, low: &[u8], high: &[u8], limit: usize, out: &mut Vec<V>) {
        if low > high {
            return;
        }
        out.extend(self.range(low.to_vec()..=high.to_vec()).take(limit).map(|(_, v)| v.clone()));
    }

    fn for_each(&self, f: &mut dyn FnMut(&[u8], &V)) {
        for (k, v) in self {
            f(k, v);
        }
    }

    fn len(&self) -> usize {
        std::collections::BTreeMap::len(self)
    }

    fn memory_bytes(&self) -> usize {
        self.keys().map(|k| k.len() + std::mem::size_of::<(Vec<u8>, V)>()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn probe(ix: &mut dyn OrderedIndex) {
        assert!(ix.is_empty());
        assert_eq!(ix.insert(b"b", 2), None);
        assert_eq!(ix.insert(b"a", 1), None);
        assert_eq!(ix.insert(b"ab", 3), None);
        assert_eq!(ix.insert(b"a", 10), Some(1));
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.get(b"ab"), Some(&3));
        assert_eq!(ix.get(b"zz"), None);
        assert_eq!(ix.scan(b"a", 2), vec![10, 3]);
        // range_into appends to a reused buffer; the deprecated shim
        // must agree with it.
        let mut buf = vec![99u64];
        ix.range_into(b"a", b"ab", 10, &mut buf);
        assert_eq!(buf, vec![99, 10, 3]);
        #[allow(deprecated)]
        {
            assert_eq!(ix.range(b"a", b"ab", 10), vec![10, 3]);
            assert_eq!(ix.range(b"b", b"a", 10), Vec::<u64>::new());
        }
        buf.clear();
        ix.range_into(b"b", b"a", 10, &mut buf);
        assert!(buf.is_empty());
        let mut visited: Vec<(Vec<u8>, u64)> = Vec::new();
        ix.for_each(&mut |k, v| visited.push((k.to_vec(), *v)));
        assert_eq!(visited, vec![(b"a".to_vec(), 10), (b"ab".to_vec(), 3), (b"b".to_vec(), 2)]);
        assert!(ix.memory_bytes() > 0);
    }

    #[test]
    fn btreemap_reference_implementation() {
        let mut m: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        probe(&mut m);
    }

    #[test]
    fn trait_object_is_usable_behind_a_box() {
        let mut b: Box<dyn OrderedIndex> = Box::<BTreeMap<Vec<u8>, u64>>::default();
        b.insert(b"k", 7);
        assert_eq!(b.get(b"k"), Some(&7));
    }

    #[test]
    fn non_u64_payloads_round_trip() {
        let mut m: BTreeMap<Vec<u8>, String> = BTreeMap::new();
        let ix: &mut dyn OrderedIndex<String> = &mut m;
        assert_eq!(ix.insert(b"k", "alpha".into()), None);
        assert_eq!(ix.insert(b"k", "beta".into()), Some("alpha".into()));
        assert_eq!(ix.get(b"k").map(String::as_str), Some("beta"));
        let mut out = Vec::new();
        ix.range_into(b"a", b"z", 10, &mut out);
        assert_eq!(out, vec!["beta".to_string()]);
    }
}
