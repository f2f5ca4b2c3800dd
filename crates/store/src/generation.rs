//! One dictionary **generation** of a shard: an immutable HOPE compressor
//! plus the ordered index of keys encoded under it.
//!
//! A generation is the unit of the epoch-based hot-swap: readers clone the
//! shard's `Arc<Generation>` and keep using it even while a replacement is
//! being built; when the swap lands, stale readers simply drain and the
//! old generation is dropped with its last `Arc`.
//!
//! ## Exactness under padded-byte ties
//!
//! Trees index the *padded bytes* of an encoding. Padded-byte comparison
//! preserves source order except that two distinct keys can **tie** (the
//! zero-extension corner, see DESIGN.md "Encoded-key comparison"). A
//! generation therefore never maps encoded bytes straight to a value:
//! index values are slot ids, a slot's **head** is the log index of the
//! smallest live source key indexed under that byte string, and the
//! remaining live keys of a tie follow it in source order through each
//! entry's `tie` link. Point lookups re-check the source key along the
//! chain and range scans re-check the source bounds, so the store is
//! exact for arbitrary byte keys — not just keys where ties cannot occur.
//! The index is always slot-id-valued ([`SlotId`](crate::SlotId))
//! regardless of the payload type `V`; the payload lives in the entry log.
//!
//! Each encoded key is stored exactly once, in the index: paths that need
//! the encodings back (a merge rebuild's splice input) read them out of
//! the index with [`OrderedIndex::for_each`].
//!
//! ## Lock discipline
//!
//! The interior `RwLock` is held briefly by probes and scan chunks. A
//! poisoned lock (a panic in some other thread's callback) is *recovered*,
//! not propagated: the generation's invariants are maintained step-wise,
//! so the data behind a poisoned lock is still coherent, and a read-mostly
//! serving layer should keep serving.

use std::cell::RefCell;
use std::sync::{PoisonError, RwLock};

use hope::{EncodeScratch, Hope, OrderedIndex, Value};

use crate::error::StoreError;
use crate::telemetry::{Stage, StageClock};
use crate::SlotId;

thread_local! {
    /// Per-thread encode buffers for the probe hot paths (`get`, `insert`,
    /// and the zero-copy `range_with` push scan): every probe reuses the
    /// same writer and byte buffers instead of allocating an `EncodedKey`
    /// per call. Thread-local rather than per-generation so readers on
    /// many threads never contend. (Pull-mode cursors own their buffers
    /// instead — a lending cursor outlives any single borrow window.)
    static SCRATCH: RefCell<EncodeScratch> = RefCell::new(EncodeScratch::new());

    /// Per-thread slot-id buffer for the push scan path: the index fills
    /// it in place (`OrderedIndex::range_into`), so a scan of N hits
    /// performs no heap allocation once the buffer is warm.
    static SCAN: RefCell<Vec<SlotId>> = const { RefCell::new(Vec::new()) };
}

/// Link sentinel for both chains: in `prev`, this entry superseded
/// nothing (first version of its key in this log); in `tie`, this entry
/// ends its slot's tie chain. Safe as a sentinel because the capacity
/// guard in `apply_insert` rejects the insert that would *create* index
/// `u32::MAX` before it happens.
pub(crate) const NO_PREV: u32 = u32::MAX;

/// One stored record: the original (uncompressed) key and its value.
///
/// The source key must be retained anyway to re-encode the shard under a
/// new dictionary at swap time; keeping it per entry also gives tie
/// resolution something authoritative to compare against.
///
/// `prev` threads the per-key **version chain** through the append-only
/// log: an update's entry records the log index it superseded
/// ([`NO_PREV`] for a first version). Because the tie chain links only
/// the newest entry of each key and every `prev` link strictly decreases
/// the index, "the value of key K at log watermark W" is: follow the
/// chain from K's live entry until the index drops below W (that version
/// was live at W), or the chain ends (K did not exist at W). This is what
/// gives store-wide snapshots point-in-time reads over a generation that
/// keeps mutating.
///
/// `tie` threads the **tie chain**: the next live entry, in source order,
/// indexed under the same padded bytes ([`NO_PREV`] at the end). Only
/// live entries' links are meaningful; a superseded entry keeps the link
/// it had when it was replaced, and nothing follows it.
#[derive(Debug, Clone)]
pub(crate) struct Entry<V> {
    pub key: Box<[u8]>,
    pub value: V,
    /// Log index this entry superseded, or [`NO_PREV`].
    pub prev: u32,
    /// Log index of the next live entry of this slot, or [`NO_PREV`].
    pub tie: u32,
}

// The tie link fills what was padding after `prev`: an id-valued entry
// stays half a cache line.
const _: () = assert!(std::mem::size_of::<Entry<u64>>() == 32);

impl<V> Entry<V> {
    /// A first-version entry (no predecessor, no tie successor).
    pub(crate) fn new(key: Box<[u8]>, value: V) -> Entry<V> {
        Entry { key, value, prev: NO_PREV, tie: NO_PREV }
    }
}

/// The live entries of one slot, in source order: walk the tie chain
/// from the slot's head, yielding `(log index, entry)`.
fn tie_chain<V>(entries: &[Entry<V>], head: u32) -> impl Iterator<Item = (u32, &Entry<V>)> {
    let mut next = head;
    std::iter::from_fn(move || {
        (next != NO_PREV).then(|| {
            let ei = next;
            let e = &entries[ei as usize];
            next = e.tie;
            (ei, e)
        })
    })
}

/// Resolve the chain member of `ei` visible at log watermark `at`
/// (`None` = the live entry itself). See [`Entry::prev`].
fn visible_at<V>(entries: &[Entry<V>], mut ei: u32, at: Option<usize>) -> Option<&Entry<V>> {
    let Some(w) = at else { return Some(&entries[ei as usize]) };
    loop {
        if (ei as usize) < w {
            return Some(&entries[ei as usize]);
        }
        let prev = entries[ei as usize].prev;
        if prev == NO_PREV {
            return None;
        }
        ei = prev;
    }
}

/// The mutable interior of a generation.
///
/// `entries` is an **append-only log**: updates append a fresh entry and
/// re-link the tie chain to it rather than overwriting in place. That
/// makes the swap protocol trivial — everything a writer did after the
/// rebuild snapshot is exactly `entries[watermark..]`, replayable in
/// order — at the cost of dead log entries that the next rebuild
/// compacts away.
#[derive(Debug)]
pub(crate) struct GenData<V> {
    /// Ordered index over encoded padded bytes; values are slot ids. The
    /// only place the encoded keys live.
    pub index: Box<dyn OrderedIndex<SlotId>>,
    /// Append-only entry log (live and superseded).
    pub entries: Vec<Entry<V>>,
    /// Slot id → log index of the slot's smallest-source-key live entry,
    /// the head of its tie chain ([`Entry::tie`]).
    pub heads: Vec<u32>,
    /// Number of live keys.
    pub live: usize,
}

impl<V> GenData<V> {
    /// Load **sorted** `entries` under their padded encodings
    /// (`encodings` yields entry `i`'s bytes, in order). Sorted input keeps equal
    /// encodings adjacent: a change of byte string opens a new slot, a
    /// repeat extends the current slot's tie chain.
    fn load(
        mut index: Box<dyn OrderedIndex<SlotId>>,
        mut entries: Vec<Entry<V>>,
        encodings: impl IntoIterator<Item = Vec<u8>>,
    ) -> GenData<V> {
        debug_assert!(entries.windows(2).all(|w| w[0].key < w[1].key), "load must be sorted");
        // Loaded entries start fresh chains: a clone out of another
        // generation's log carries links that mean nothing here.
        for e in &mut entries {
            e.prev = NO_PREV;
            e.tie = NO_PREV;
        }
        entries.shrink_to_fit();
        let mut heads: Vec<u32> = Vec::with_capacity(entries.len());
        let mut prev: Option<Vec<u8>> = None;
        for (i, bytes) in encodings.into_iter().enumerate() {
            let i = i as u32;
            if prev.as_deref() == Some(bytes.as_slice()) {
                entries[i as usize - 1].tie = i;
            } else {
                heads.push(i);
                index.insert(&bytes, (heads.len() - 1) as SlotId);
                prev = Some(bytes);
            }
        }
        let live = entries.len();
        GenData { index, entries, heads, live }
    }
}

/// An immutable dictionary plus the index of keys encoded under it,
/// generic over the value payload `V`.
#[derive(Debug)]
pub struct Generation<V: Value = u64> {
    epoch: u64,
    hope: Hope,
    baseline_cpr: f64,
    /// Shard this generation serves (error attribution only).
    shard: usize,
    /// Write-log entry cap: `apply_insert` returns
    /// [`StoreError::WriteLogFull`] instead of growing past it.
    log_capacity: u32,
    data: RwLock<GenData<V>>,
}

/// Byte accounting of one merge build ([`Generation::build_merged`]):
/// how much encoded output was spliced from the old generation verbatim
/// vs produced by running the new dictionary.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MergeStats {
    /// Encoded bytes reused from the old generation (per live entry).
    pub reused_bytes: u64,
    /// Encoded bytes re-encoded under the new dictionary.
    pub reencoded_bytes: u64,
}

/// What [`Generation::snapshot_live_encoded`] captures: the sorted live
/// entries, their encoded bytes under the current dictionary, and the
/// log watermark the swap's splice replays from.
pub(crate) type LiveEncoded<V> = (Vec<Entry<V>>, Vec<Box<[u8]>>, usize);

/// The per-entry inputs of [`Generation::build_merged`], which travel
/// together (index-aligned): the sorted live entries, their encodings
/// under the *previous* dictionary, and the dictionary diff's verdict
/// on whether those bytes survive the retrain verbatim.
pub(crate) struct MergeSource<V: Value> {
    /// Sorted live entries to load.
    pub pairs: Vec<Entry<V>>,
    /// Entry `i`'s encoding under the previous dictionary.
    pub old_encs: Vec<Box<[u8]>>,
    /// True when `old_encs[i]` is provably identical under the new
    /// dictionary and can be spliced without re-encoding.
    pub reuse: Vec<bool>,
}

/// Encode-side footprint of one insert, accumulated into the shard's
/// drift statistics.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EncodeFootprint {
    /// Uncompressed key bytes.
    pub src_bytes: u64,
    /// Padded encoded bytes.
    pub enc_bytes: u64,
}

impl<V: Value> Generation<V> {
    /// Build a generation from **sorted, deduplicated** `(key, value)`
    /// pairs, batch-encoding the keys with the sorted-batch prefix-reuse
    /// optimization (Appendix B) in blocks of `batch_block`.
    pub(crate) fn build(
        epoch: u64,
        hope: Hope,
        baseline_cpr: f64,
        index: Box<dyn OrderedIndex<SlotId>>,
        pairs: Vec<Entry<V>>,
        batch_block: usize,
    ) -> Generation<V> {
        let keys: Vec<&[u8]> = pairs.iter().map(|e| e.key.as_ref()).collect();
        let encoded = hope.encode_batch(&keys, batch_block.max(1));
        drop(keys);
        let data = GenData::load(index, pairs, encoded.into_iter().map(|enc| enc.into_bytes()));
        Generation {
            epoch,
            hope,
            baseline_cpr,
            shard: 0,
            log_capacity: NO_PREV,
            data: RwLock::new(data),
        }
    }

    /// [`Generation::build`], but **merge-style**: entry `i` whose
    /// `reuse[i]` is set splices `old_encs[i]` — its encoding under the
    /// *previous* dictionary — verbatim instead of re-encoding, which is
    /// exact because the dictionary diff already proved the new
    /// dictionary emits those very bytes (see
    /// [`hope::diff::EncodingDiff`]). Only the changed keys run the
    /// encoder (still batch-encoded: they are a sorted subsequence, so
    /// the prefix-reuse optimization applies). Slot and tie-chain
    /// construction is identical to the bulk build's — reused and
    /// re-encoded runs interleave into one sorted encoded stream.
    pub(crate) fn build_merged(
        epoch: u64,
        hope: Hope,
        baseline_cpr: f64,
        index: Box<dyn OrderedIndex<SlotId>>,
        source: MergeSource<V>,
        batch_block: usize,
    ) -> (Generation<V>, MergeStats) {
        let MergeSource { pairs, old_encs, reuse } = source;
        debug_assert_eq!(pairs.len(), old_encs.len());
        debug_assert_eq!(pairs.len(), reuse.len());
        let changed: Vec<&[u8]> =
            pairs.iter().zip(&reuse).filter(|&(_, &r)| !r).map(|(e, _)| e.key.as_ref()).collect();
        let reencoded = hope.encode_batch(&changed, batch_block.max(1));
        drop(changed);
        let mut reencoded_iter = reencoded.into_iter();
        let mut stats = MergeStats::default();
        let encodings = old_encs.into_iter().zip(reuse).map(|(old_enc, reused)| {
            if reused {
                stats.reused_bytes += old_enc.len() as u64;
                old_enc.into_vec()
            } else {
                let enc = reencoded_iter.next().expect("one batch encoding per changed key");
                let b = enc.into_bytes();
                stats.reencoded_bytes += b.len() as u64;
                b
            }
        });
        let data = GenData::load(index, pairs, encodings);
        let generation = Generation {
            epoch,
            hope,
            baseline_cpr,
            shard: 0,
            log_capacity: NO_PREV,
            data: RwLock::new(data),
        };
        (generation, stats)
    }

    /// Attach the owning shard id (error attribution) and the write-log
    /// capacity (back-pressure bound) — chained right after a build.
    pub(crate) fn with_context(mut self, shard: usize, log_capacity: u32) -> Generation<V> {
        self.shard = shard;
        self.log_capacity = log_capacity;
        self
    }

    /// Read the interior, recovering from poisoning (see module docs).
    fn read(&self) -> std::sync::RwLockReadGuard<'_, GenData<V>> {
        self.data.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write the interior, recovering from poisoning (see module docs).
    fn write(&self) -> std::sync::RwLockWriteGuard<'_, GenData<V>> {
        self.data.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The epoch this generation was installed under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Compression rate of the dictionary on its own build sample — the
    /// reference the shard's observed CPR is compared against.
    pub fn baseline_cpr(&self) -> f64 {
        self.baseline_cpr
    }

    /// The compressor of this generation.
    pub fn hope(&self) -> &Hope {
        &self.hope
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.read().live
    }

    /// True if the generation holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap footprint, dictionary excluded: index structure + entry log
    /// (at its allocated capacity) + source-key bytes + slot heads. Heap
    /// that values of type `V` own themselves is not counted.
    pub fn memory_bytes(&self) -> usize {
        let d = self.read();
        d.index.memory_bytes()
            + d.entries.capacity() * std::mem::size_of::<Entry<V>>()
            + d.entries.iter().map(|e| e.key.len()).sum::<usize>()
            + d.heads.capacity() * std::mem::size_of::<u32>()
    }

    /// Point lookup by source key, cloning the value out (a copy for
    /// `u64` ids). The probe key is encoded into a thread-local scratch —
    /// no allocation on this path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the probe key fails codec validation
    /// (over [`hope::MAX_KEY_BYTES`]).
    pub fn get(&self, key: &[u8]) -> Result<Option<V>, StoreError> {
        self.get_with(key, V::clone)
    }

    /// Zero-clone point lookup: run `f` on a borrow of the stored value
    /// (under the generation's read lock — keep `f` short) and return its
    /// result.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the probe key fails codec validation.
    pub fn get_with<R>(
        &self,
        key: &[u8],
        f: impl FnOnce(&V) -> R,
    ) -> Result<Option<R>, StoreError> {
        self.lookup(key, None, &mut (), f)
    }

    /// The value `key` had when the log stood at `watermark` entries —
    /// the read primitive behind [`Snapshot`](crate::versioned::Snapshot).
    pub(crate) fn get_at(&self, key: &[u8], watermark: usize) -> Result<Option<V>, StoreError> {
        self.lookup(key, Some(watermark), &mut (), V::clone)
    }

    /// The one point-lookup path: encode the probe key, find the key's
    /// live entry along its slot's tie chain, resolve that entry at log
    /// watermark `at` (`None` = live; see [`Entry::prev`]), and run `f` on
    /// the value under the read lock. `clock` laps encode, then probe.
    pub(crate) fn lookup<R>(
        &self,
        key: &[u8],
        at: Option<usize>,
        clock: &mut impl StageClock,
        f: impl FnOnce(&V) -> R,
    ) -> Result<Option<R>, StoreError> {
        SCRATCH.with_borrow_mut(|scratch| {
            clock.start();
            let enc = self.hope.encode_to(key, scratch)?;
            clock.lap(Stage::Encode);
            let d = self.read();
            let found = d
                .index
                .get(enc)
                .and_then(|&slot| {
                    tie_chain(&d.entries, d.heads[slot as usize])
                        .find(|(_, e)| e.key.as_ref() == key)
                })
                .and_then(|(ei, _)| visible_at(&d.entries, ei, at))
                .map(|e| f(&e.value));
            clock.lap(Stage::Probe);
            Ok(found)
        })
    }

    /// Insert or update; returns the previous value (if any) and the
    /// encode footprint for drift accounting. Encoding happens into a
    /// thread-local scratch before the data lock is taken; the index's
    /// own `insert` copies the bytes it keeps. `clock` laps encode, then
    /// the index/log mutation as probe.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the key fails codec validation, or
    /// [`StoreError::WriteLogFull`] when the log is at capacity; the
    /// generation is unchanged in either case.
    pub(crate) fn insert(
        &self,
        key: &[u8],
        value: V,
        clock: &mut impl StageClock,
    ) -> Result<(Option<V>, EncodeFootprint), StoreError> {
        SCRATCH.with_borrow_mut(|scratch| {
            clock.start();
            let bytes = self.hope.encode_to(key, scratch)?;
            clock.lap(Stage::Encode);
            let inserted = self.apply_insert(key, value, bytes);
            clock.lap(Stage::Probe);
            inserted
        })
    }

    /// The mutation half of an insert, over already-encoded padded bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::WriteLogFull`] when the log is at its configured
    /// capacity (and always before it could reach `u32::MAX` entries,
    /// where slot indices and the [`NO_PREV`] sentinel would break): the
    /// insert is **not** applied, the generation stays fully serviceable,
    /// and a rebuild compacts the log so the caller can retry.
    fn apply_insert(
        &self,
        key: &[u8],
        value: V,
        bytes: &[u8],
    ) -> Result<(Option<V>, EncodeFootprint), StoreError> {
        let footprint =
            EncodeFootprint { src_bytes: key.len() as u64, enc_bytes: bytes.len() as u64 };
        let mut d = self.write();
        if d.entries.len() >= self.log_capacity as usize {
            return Err(StoreError::WriteLogFull {
                shard: self.shard,
                capacity: self.log_capacity,
            });
        }
        // In range: the capacity guard bounds the log at u32::MAX.
        let new_idx = d.entries.len() as u32;
        d.entries.push(Entry::new(key.into(), value));
        let existing = d.index.get(bytes).copied();
        let GenData { index, entries, heads, live } = &mut *d;
        let old = match existing {
            Some(slot_id) => {
                // Walk the tie chain to the first live entry >= key,
                // remembering the entry that links to it (NO_PREV: the
                // slot head does).
                let mut pred = NO_PREV;
                let mut at = heads[slot_id as usize];
                while at != NO_PREV && entries[at as usize].key.as_ref() < key {
                    pred = at;
                    at = entries[at as usize].tie;
                }
                let old = if at != NO_PREV && entries[at as usize].key.as_ref() == key {
                    // Update: the new entry takes `at`'s place in the
                    // tie chain and chains back to it through `prev`
                    // (snapshot reads walk this); the old log entry stays
                    // as garbage for the swap replay to supersede.
                    let (old, tie) = (entries[at as usize].value.clone(), entries[at as usize].tie);
                    let e = &mut entries[new_idx as usize];
                    e.prev = at;
                    e.tie = tie;
                    Some(old)
                } else {
                    entries[new_idx as usize].tie = at;
                    *live += 1;
                    None
                };
                match pred {
                    NO_PREV => heads[slot_id as usize] = new_idx,
                    p => entries[p as usize].tie = new_idx,
                }
                old
            }
            None => {
                heads.push(new_idx);
                index.insert(bytes, (heads.len() - 1) as SlotId);
                *live += 1;
                None
            }
        };
        Ok((old, footprint))
    }

    /// Bounded range query by source keys, inclusive on both ends:
    /// `(key, value)` pairs in source order, at most `limit`. Unlike the
    /// pre-v1 method this shim replaces, bounds longer than
    /// [`hope::MAX_KEY_BYTES`] yield an empty result (the fallible
    /// [`Generation::range_with`] surfaces the error instead).
    #[deprecated(
        since = "0.2.0",
        note = "allocates every hit; scan through a store-level RangeCursor \
                (or this generation's `range_with`) instead"
    )]
    pub fn range(&self, low: &[u8], high: &[u8], limit: usize) -> Vec<(Vec<u8>, V)> {
        let mut out = Vec::new();
        let _ = self.range_with(low, high, limit, |k, v| out.push((k.to_vec(), v.clone())));
        out
    }

    /// Visitor-form range scan: call `f(key, value)` for up to `limit`
    /// hits in source order and return the hit count. The two bounds are
    /// pair-encoded (one dictionary traversal for their common prefix)
    /// into a thread-local scratch and the index fills a thread-local
    /// slot buffer in place, so a scan of N hits performs **zero heap
    /// allocations** after warm-up — the keys and values handed to `f`
    /// are borrowed from the generation.
    ///
    /// `f` runs under the generation's data read lock: keep it short and
    /// never call back into this store from inside it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when a bound fails codec validation.
    pub fn range_with<F>(
        &self,
        low: &[u8],
        high: &[u8],
        limit: usize,
        f: F,
    ) -> Result<usize, StoreError>
    where
        F: FnMut(&[u8], &V),
    {
        if low > high || limit == 0 {
            return Ok(0);
        }
        self.range_with_from(None, low, high, limit, None, f)
    }

    /// [`Generation::range_with`] with an exclusive resume point — visit
    /// hits strictly greater than `after` (a key previously emitted by
    /// the same scan) — and an optional point-in-time watermark (`at`;
    /// see [`Generation::get_at`]). Runs on the probe thread-locals —
    /// the cursor's push adapter continues a partially pulled scan
    /// through this.
    pub(crate) fn range_with_from<F>(
        &self,
        after: Option<&[u8]>,
        low: &[u8],
        high: &[u8],
        limit: usize,
        at: Option<usize>,
        f: F,
    ) -> Result<usize, StoreError>
    where
        F: FnMut(&[u8], &V),
    {
        SCRATCH.with_borrow_mut(|scratch| {
            SCAN.with_borrow_mut(|slot_ids| {
                self.range_visit(after, low, high, limit, at, scratch, slot_ids, f)
            })
        })
    }

    /// The scan engine behind both the push ([`Generation::range_with`])
    /// and pull (cursor chunk) paths: visit up to `limit` hits with
    /// source key strictly greater than `after` (when set; the cursor's
    /// resume point) and within `low..=high`, using *caller-provided*
    /// scratch buffers. With `at` set, every candidate entry resolves
    /// through its version chain first ([`Generation::get_at`]), so the
    /// scan observes exactly the state at that log watermark — slots and
    /// versions born later are invisible. (Index and tie-chain changes
    /// happen under the data lock this scan reads under, so the watermark
    /// is never torn.)
    ///
    /// Boundary slots may mix keys inside and outside the source range
    /// (padded-byte ties), so a slot-limited query can come up short after
    /// filtering; the engine grows the slot budget until satisfied or the
    /// encoded range is exhausted. The index state is frozen under the
    /// read lock and `range_into` results are a stable prefix under a
    /// growing limit, so the retry only needs to process the newly
    /// returned tail.
    #[allow(clippy::too_many_arguments)] // the engine takes both scratch buffers explicitly
    pub(crate) fn range_visit<F>(
        &self,
        after: Option<&[u8]>,
        low: &[u8],
        high: &[u8],
        limit: usize,
        at: Option<usize>,
        scratch: &mut EncodeScratch,
        slot_ids: &mut Vec<SlotId>,
        mut f: F,
    ) -> Result<usize, StoreError>
    where
        F: FnMut(&[u8], &V),
    {
        debug_assert!(after.is_none_or(|a| a >= low));
        let enc_from = after.unwrap_or(low);
        let (enc_low, enc_high) = self.hope.encode_range_bounds_to(enc_from, high, scratch)?;
        let d = self.read();
        let mut want = limit.saturating_add(2);
        let mut done = 0usize;
        let mut emitted = 0usize;
        loop {
            slot_ids.clear();
            d.index.range_into(enc_low, enc_high, want, slot_ids);
            let exhausted = slot_ids.len() < want;
            for (j, sid) in slot_ids[done..].iter().enumerate() {
                // Source-bound re-checks are needed only on *boundary*
                // slots: distinct slots hold distinct padded byte
                // strings, so at most the scan's first returned slot can
                // tie with the low bound's encoding and at most the
                // fetch's last with the high bound's. Strict padded-byte
                // inequality implies the same strict source order (order
                // preservation; see DESIGN.md "Encoded-key comparison"),
                // so every interior slot lies strictly inside the source
                // range and its keys are emitted without a compare. A
                // non-final fetch's last slot is checked conservatively.
                let abs = done + j;
                let boundary = abs == 0 || abs + 1 == slot_ids.len();
                for (ei, _) in tie_chain(&d.entries, d.heads[*sid as usize]) {
                    let Some(e) = visible_at(&d.entries, ei, at) else { continue };
                    if boundary {
                        let past_resume = match after {
                            Some(a) => e.key.as_ref() > a,
                            None => e.key.as_ref() >= low,
                        };
                        if !past_resume || e.key.as_ref() > high {
                            continue;
                        }
                    }
                    f(&e.key, &e.value);
                    emitted += 1;
                    if emitted == limit {
                        return Ok(emitted);
                    }
                }
            }
            if exhausted {
                return Ok(emitted);
            }
            done = slot_ids.len();
            want = want.saturating_mul(2);
        }
    }

    /// Snapshot the live entries in source order, the log watermark
    /// (everything appended after it is what the swap must replay), and,
    /// per live entry, the encoded padded byte string it is indexed under
    /// (entries in the same slot share bytes) — the input of a merge
    /// rebuild, which splices these encodings verbatim for keys the
    /// dictionary diff proved unchanged. One sorted index visit yields
    /// both: each slot's bytes come from the index, its entries from the
    /// tie chain.
    pub(crate) fn snapshot_live_encoded(&self) -> LiveEncoded<V> {
        let d = self.read();
        let mut live = Vec::with_capacity(d.live);
        let mut encs = Vec::with_capacity(d.live);
        d.index.for_each(&mut |bytes, &sid| {
            for (_, e) in tie_chain(&d.entries, d.heads[sid as usize]) {
                live.push(e.clone());
                encs.push(Box::from(bytes));
            }
        });
        (live, encs, d.entries.len())
    }

    /// Total encoded bytes across the live entries (entries in the same
    /// slot each count its bytes) — the full-rebuild counterpart of
    /// [`MergeStats::reencoded_bytes`], so the two paths report on the
    /// same scale.
    pub(crate) fn encoded_live_bytes(&self) -> u64 {
        let d = self.read();
        let mut total = 0u64;
        d.index.for_each(&mut |bytes, &sid| {
            let ties = tie_chain(&d.entries, d.heads[sid as usize]).count() as u64;
            total += ties * bytes.len() as u64;
        });
        total
    }

    /// Clone of the log entries appended after `watermark`, in order.
    pub(crate) fn entries_since(&self, watermark: usize) -> Vec<Entry<V>> {
        let d = self.read();
        d.entries[watermark.min(d.entries.len())..].to_vec()
    }

    /// `(live keys, total log entries)` — the gap between the two is dead
    /// log garbage a rebuild would compact away.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let d = self.read();
        (d.live, d.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope::{HopeBuilder, Scheme};

    fn build_gen(pairs: &[(&str, u64)]) -> Generation<u64> {
        let sample: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.as_bytes().to_vec()).collect();
        let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample).unwrap();
        let mut sorted: Vec<Entry<u64>> =
            pairs.iter().map(|(k, v)| Entry::new(k.as_bytes().into(), *v)).collect();
        sorted.sort_by(|a, b| a.key.cmp(&b.key));
        let index: Box<dyn OrderedIndex<SlotId>> = Box::new(hope_btree::BPlusTree::plain());
        Generation::build(7, hope, 1.5, index, sorted, 8)
    }

    #[test]
    fn bulk_load_and_get() {
        let g = build_gen(&[("com.gmail@a", 1), ("com.gmail@b", 2), ("org.acm@c", 3)]);
        assert_eq!(g.epoch(), 7);
        assert_eq!(g.len(), 3);
        assert_eq!(g.get(b"com.gmail@a").unwrap(), Some(1));
        assert_eq!(g.get(b"org.acm@c").unwrap(), Some(3));
        assert_eq!(g.get(b"com.gmail@zz").unwrap(), None);
        assert_eq!(g.get_with(b"com.gmail@b", |v| v + 100).unwrap(), Some(102));
        assert!(g.memory_bytes() > 0);
        // Probe-side validation surfaces as an error, not a panic.
        let giant = vec![b'x'; hope::MAX_KEY_BYTES + 1];
        assert!(matches!(g.get(&giant), Err(StoreError::Codec(_))));
    }

    #[test]
    fn insert_update_and_log_replay_watermark() {
        let g = build_gen(&[("com.gmail@a", 1)]);
        let (_, _, w0) = g.snapshot_live_encoded();
        assert_eq!(g.insert(b"com.gmail@b", 2, &mut ()).unwrap().0, None);
        assert_eq!(g.insert(b"com.gmail@a", 9, &mut ()).unwrap().0, Some(1));
        assert_eq!(g.get(b"com.gmail@a").unwrap(), Some(9));
        assert_eq!(g.len(), 2);
        // The log after the watermark replays both mutations in order.
        let delta = g.entries_since(w0);
        assert_eq!(delta.len(), 2);
        assert_eq!(delta[0].key.as_ref(), b"com.gmail@b");
        assert_eq!(delta[1].value, 9);
    }

    #[test]
    fn range_with_is_inclusive_and_source_ordered() {
        let g = build_gen(&[
            ("com.gmail@a", 1),
            ("com.gmail@b", 2),
            ("com.gmail@c", 3),
            ("org.acm@d", 4),
        ]);
        let collect = |low: &[u8], high: &[u8], limit: usize| {
            let mut out: Vec<(Vec<u8>, u64)> = Vec::new();
            let n = g.range_with(low, high, limit, |k, v| out.push((k.to_vec(), *v))).unwrap();
            assert_eq!(n, out.len());
            out
        };
        let got = collect(b"com.gmail@a", b"com.gmail@c", 10);
        let keys: Vec<&[u8]> = got.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![&b"com.gmail@a"[..], b"com.gmail@b", b"com.gmail@c"]);
        assert_eq!(collect(b"com.gmail@a", b"com.gmail@c", 2).len(), 2);
        assert!(collect(b"x", b"a", 10).is_empty());
        assert!(collect(b"zz", b"zzz", 10).is_empty());
        assert!(collect(b"a", b"b", 0).is_empty());
        // The deprecated allocating shim agrees with the visitor.
        #[allow(deprecated)]
        {
            assert_eq!(g.range(b"com.gmail@a", b"com.gmail@c", 10), got);
        }
    }

    #[test]
    fn range_visit_resumes_strictly_after_a_key() {
        let g = build_gen(&[("a", 1), ("ab", 2), ("abc", 3), ("b", 4)]);
        let mut scratch = EncodeScratch::new();
        let mut slot_ids = Vec::new();
        let mut seen: Vec<Vec<u8>> = Vec::new();
        let n = g
            .range_visit(Some(b"ab"), b"a", b"b", 10, None, &mut scratch, &mut slot_ids, |k, _| {
                seen.push(k.to_vec())
            })
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(seen, vec![b"abc".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn snapshot_live_is_sorted_and_deduplicated() {
        let g = build_gen(&[("b", 2), ("a", 1)]);
        g.insert(b"c", 3, &mut ()).unwrap();
        g.insert(b"a", 10, &mut ()).unwrap();
        let (live, encs, _) = g.snapshot_live_encoded();
        let keys: Vec<&[u8]> = live.iter().map(|e| e.key.as_ref()).collect();
        assert_eq!(keys, vec![&b"a"[..], b"b", b"c"]);
        assert_eq!(live[0].value, 10, "snapshot must carry the updated value");
        // The encodings read back out of the index are each key's own.
        for (e, enc) in live.iter().zip(&encs) {
            assert_eq!(enc.as_ref(), g.hope().encode(&e.key).as_bytes(), "{:?}", e.key);
        }
    }

    #[test]
    fn write_log_capacity_back_pressures_instead_of_panicking() {
        let g = build_gen(&[("com.gmail@a", 1)]).with_context(3, 3);
        // Entry 0 is the bulk load; two appends fit under the cap of 3.
        assert!(g.insert(b"com.gmail@b", 2, &mut ()).is_ok());
        assert!(g.insert(b"com.gmail@c", 3, &mut ()).is_ok());
        let err = g.insert(b"com.gmail@d", 4, &mut ()).unwrap_err();
        assert!(matches!(err, StoreError::WriteLogFull { shard: 3, capacity: 3 }), "got {err:?}");
        // The rejected insert left the generation fully serviceable.
        assert_eq!(g.len(), 3);
        assert_eq!(g.get(b"com.gmail@c").unwrap(), Some(3));
        assert_eq!(g.get(b"com.gmail@d").unwrap(), None);
        // Updates are appends too: same back-pressure.
        assert!(matches!(
            g.insert(b"com.gmail@a", 9, &mut ()),
            Err(StoreError::WriteLogFull { .. })
        ));
        assert_eq!(g.get(b"com.gmail@a").unwrap(), Some(1));
    }

    #[test]
    fn watermark_reads_observe_the_point_in_time_state() {
        let g = build_gen(&[("a", 1), ("c", 3)]);
        g.insert(b"a", 10, &mut ()).unwrap();
        let (_, _, w) = g.snapshot_live_encoded();
        // Post-watermark: update a again, add a new key between a and c.
        g.insert(b"a", 100, &mut ()).unwrap();
        g.insert(b"b", 2, &mut ()).unwrap();

        assert_eq!(g.get_at(b"a", w).unwrap(), Some(10), "chain resolves to the pre-W version");
        assert_eq!(g.get_at(b"b", w).unwrap(), None, "key born after W is invisible");
        assert_eq!(g.get_at(b"c", w).unwrap(), Some(3));
        // And the live view still sees everything.
        assert_eq!(g.get(b"a").unwrap(), Some(100));
        assert_eq!(g.get(b"b").unwrap(), Some(2));

        let mut at_w: Vec<(Vec<u8>, u64)> = Vec::new();
        g.range_with_from(None, b"a", b"z", 10, Some(w), |k, v| at_w.push((k.to_vec(), *v)))
            .unwrap();
        assert_eq!(at_w, vec![(b"a".to_vec(), 10), (b"c".to_vec(), 3)]);
    }

    #[test]
    fn build_merged_splices_reused_runs_exactly() {
        let pairs = &[("com.gmail@a", 1u64), ("com.gmail@b", 2), ("org.acm@c", 3)];
        let g = build_gen(pairs);
        let (live, old_encs, _) = g.snapshot_live_encoded();
        assert_eq!(live.len(), 3);
        assert_eq!(old_encs.len(), 3);
        assert!(g.encoded_live_bytes() > 0);

        // Same dictionary (deterministic Hu-Tucker on the same sample) ⇒
        // every key reusable; reuse two of three and force one re-encode.
        let sample: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.as_bytes().to_vec()).collect();
        let hope = HopeBuilder::new(Scheme::DoubleChar).build_from_sample(sample).unwrap();
        let index: Box<dyn OrderedIndex<SlotId>> = Box::new(hope_btree::BPlusTree::plain());
        let reuse = vec![true, false, true];
        let source = MergeSource { pairs: live, old_encs, reuse };
        let (merged, stats) = Generation::build_merged(8, hope, 1.5, index, source, 8);
        assert_eq!(merged.epoch(), 8);
        assert_eq!(merged.len(), 3);
        assert!(stats.reused_bytes > 0);
        assert!(stats.reencoded_bytes > 0);
        assert_eq!(stats.reused_bytes + stats.reencoded_bytes, merged.encoded_live_bytes());
        for (k, v) in pairs {
            assert_eq!(merged.get(k.as_bytes()).unwrap(), Some(*v), "{k}");
        }
        let mut scanned: Vec<Vec<u8>> = Vec::new();
        merged.range_with(b"com", b"os", 10, |k, _| scanned.push(k.to_vec())).unwrap();
        assert_eq!(scanned.len(), 3, "merged index must scan in source order");
    }

    #[test]
    fn generic_payloads_round_trip() {
        let sample: Vec<Vec<u8>> = vec![b"k1".to_vec(), b"k2".to_vec()];
        let hope = HopeBuilder::new(Scheme::SingleChar).build_from_sample(sample).unwrap();
        let index: Box<dyn OrderedIndex<SlotId>> = Box::new(hope_btree::BPlusTree::plain());
        let pairs = vec![
            Entry::new(b"k1".as_slice().into(), b"one".to_vec()),
            Entry::new(b"k2".as_slice().into(), b"two".to_vec()),
        ];
        let g: Generation<Vec<u8>> = Generation::build(1, hope, 1.0, index, pairs, 4);
        assert_eq!(g.get(b"k2").unwrap(), Some(b"two".to_vec()));
        assert_eq!(g.insert(b"k1", b"uno".to_vec(), &mut ()).unwrap().0, Some(b"one".to_vec()));
        assert_eq!(g.get_with(b"k1", |v| v.len()).unwrap(), Some(3));
    }
}
