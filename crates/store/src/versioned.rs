//! [`Snapshot`]: O(1) copy-on-write point-in-time views of the store.
//!
//! [`HopeStore::snapshot`](crate::HopeStore::snapshot) freezes a
//! store-wide point in time without copying a single key. The trick is
//! that the store already keeps everything a snapshot needs:
//!
//! * each shard serves from an [`Arc<Generation>`] epoch handle — cloning
//!   the `Arc` pins the generation against reclamation, exactly as an
//!   in-flight [`RangeCursor`] does across a hot-swap;
//! * each generation's write log is **append-only** between swaps, so
//!   "the state when the log held `w` entries" is fully recoverable: an
//!   entry's slot position never changes after it is appended, and every
//!   update links to the entry it superseded
//!   (`Entry::prev`). Reads resolve a slot's
//!   head entry through that version chain until they reach an entry
//!   older than the watermark.
//!
//! A snapshot is therefore `shards × (Arc clone + usize)` — O(shard
//! count), independent of key count — and costs nothing to maintain:
//! writers keep appending to the same log, never copying, never blocking
//! on readers of any vintage. The one write the capture excludes is a
//! concurrent dictionary swap: capture holds every shard's writer mutex
//! (ascending order, the sole multi-lock path) so the per-shard
//! watermarks form a single cross-shard instant — no shard can admit a
//! write between the first and last watermark read.
//!
//! ## Lifetime
//!
//! The pins keep superseded generations alive for as long as the handle
//! lives: a shard that hot-swaps after the capture retires its old
//! generation to exactly the snapshots (and cursors) still holding it.
//! Dropping the last handle releases the memory — the
//! `store.snapshot.active` gauge and the snapshot lifecycle events
//! ([`EventKind::SnapshotCreated`] / [`EventKind::SnapshotDropped`])
//! track the population.

use std::sync::Arc;

use hope::Value;

use crate::cursor::{self, RangeCursor, Source};
use crate::error::{validate_key, StoreError};
use crate::generation::Generation;
use crate::route;
use crate::telemetry::{Event, EventKind, Telemetry};

/// One shard's contribution to a snapshot: the pinned generation, the
/// write-log watermark at capture, and the live-key count then.
#[derive(Debug)]
pub(crate) struct Pin<V: Value> {
    pub(crate) generation: Arc<Generation<V>>,
    pub(crate) watermark: usize,
    pub(crate) live: usize,
}

/// A point-in-time view of a whole [`HopeStore`](crate::HopeStore),
/// captured in O(shard count) by
/// [`HopeStore::snapshot`](crate::HopeStore::snapshot).
///
/// Reads ([`Snapshot::get`], [`Snapshot::range_with`],
/// [`Snapshot::cursor`]) observe exactly the store's state at capture:
/// writes and dictionary swaps that land afterwards are invisible, with
/// no coordination beyond the capture itself. The handle is `Send +
/// Sync`; ship it to an analytics thread while writers proceed.
///
/// ```
/// use hope_store::prelude::*;
///
/// let pairs = (0..500u64).map(|i| (format!("user{i:04}").into_bytes(), i));
/// let store = HopeStore::build(StoreConfig::default(), pairs)?;
/// let snap = store.snapshot();
/// store.insert(b"user0100".to_vec(), 777)?;
/// store.insert(b"zzz-new".to_vec(), 888)?;
/// // The live store moved on; the snapshot did not.
/// assert_eq!(store.get(b"user0100")?, Some(777));
/// assert_eq!(snap.get(b"user0100")?, Some(100));
/// assert_eq!(snap.get(b"zzz-new")?, None);
/// assert_eq!(snap.len(), 500);
/// # Ok::<(), StoreError>(())
/// ```
#[derive(Debug)]
pub struct Snapshot<V: Value = u64> {
    pins: Vec<Pin<V>>,
    /// Source-form shard split points, shared with the store (the store
    /// may outlive the snapshot or vice versa; no borrow either way).
    boundaries: Arc<[Vec<u8>]>,
    telemetry: Arc<Telemetry>,
    /// Minimum and maximum pinned generation epoch (lifecycle events).
    min_epoch: u64,
    max_epoch: u64,
    len: usize,
}

impl<V: Value> Snapshot<V> {
    /// Assemble a snapshot from per-shard pins taken under all writer
    /// locks, and emit its creation telemetry.
    pub(crate) fn capture(
        pins: Vec<Pin<V>>,
        boundaries: Arc<[Vec<u8>]>,
        telemetry: Arc<Telemetry>,
    ) -> Snapshot<V> {
        let min_epoch = pins.iter().map(|p| p.generation.epoch()).min().unwrap_or(0);
        let max_epoch = pins.iter().map(|p| p.generation.epoch()).max().unwrap_or(0);
        let len = pins.iter().map(|p| p.live).sum();
        let snap = Snapshot { pins, boundaries, telemetry, min_epoch, max_epoch, len };
        let reg = snap.telemetry.registry();
        reg.counter("store.snapshot.taken").inc();
        reg.gauge("store.snapshot.active").inc();
        snap.telemetry.events().record(Event {
            kind: EventKind::SnapshotCreated,
            keys: snap.pins.len() as u64,
            prev_epoch: snap.min_epoch,
            epoch: snap.max_epoch,
            ..Event::default()
        });
        snap
    }

    /// The pinned generation and watermark of one shard (cursor
    /// internals).
    pub(crate) fn pin(&self, shard: usize) -> (Arc<Generation<V>>, usize) {
        let p = &self.pins[shard];
        (Arc::clone(&p.generation), p.watermark)
    }

    /// Point lookup as of the capture instant.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when the probe key fails validation.
    pub fn get(&self, key: &[u8]) -> Result<Option<V>, StoreError> {
        let p = &self.pins[route(&self.boundaries, key)];
        p.generation.get_at(key, p.watermark)
    }

    /// Visitor-form range scan over the snapshot: call `f(key, value)`
    /// for up to `limit` hits in source-key order (possibly spanning
    /// shards) and return the hit count — the point-in-time counterpart
    /// of [`HopeStore::range_with`](crate::HopeStore::range_with), with
    /// the same zero-allocation engine underneath.
    ///
    /// `f` runs under a generation's read lock: keep it short and never
    /// call back into the store from inside it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when a bound fails validation.
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
        validate_key(low)?;
        validate_key(high)?;
        cursor::scan(Source::Snap(self), &self.boundaries, low, high, limit, f)
    }

    /// Collect-form range scan: append up to `limit` `(key, value)`
    /// pairs to `out` and return the count appended.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when a bound fails validation.
    pub fn range_into(
        &self,
        low: &[u8],
        high: &[u8],
        limit: usize,
        out: &mut Vec<(Vec<u8>, V)>,
    ) -> Result<usize, StoreError> {
        self.range_with(low, high, limit, |k, v| out.push((k.to_vec(), v.clone())))
    }

    /// Open a lazy [`RangeCursor`] over `low..=high` (inclusive), capped
    /// at `limit` hits, reading the snapshot's point in time. The cursor
    /// borrows the snapshot; unlike a live cursor it never re-pins — all
    /// generations were pinned at capture, so arbitrarily many swaps may
    /// complete mid-scan without the cursor ever observing one.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] when a bound fails validation.
    pub fn cursor(
        &self,
        low: &[u8],
        high: &[u8],
        limit: usize,
    ) -> Result<RangeCursor<'_, V>, StoreError> {
        validate_key(low)?;
        validate_key(high)?;
        Ok(RangeCursor::new(Source::Snap(self), &self.boundaries, low, high, limit))
    }

    /// Live keys at the capture instant, summed across shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the store held no key at the capture instant.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Epoch of every pinned generation, in shard order. Swaps completed
    /// after the capture do not change these — the diagnostic mirror of
    /// [`HopeStore::epochs`](crate::HopeStore::epochs).
    pub fn epochs(&self) -> Vec<u64> {
        self.pins.iter().map(|p| p.generation.epoch()).collect()
    }

    /// Number of shards pinned.
    pub fn shards(&self) -> usize {
        self.pins.len()
    }
}

impl<V: Value> Drop for Snapshot<V> {
    fn drop(&mut self) {
        let reg = self.telemetry.registry();
        reg.counter("store.snapshot.dropped").inc();
        reg.gauge("store.snapshot.active").dec();
        self.telemetry.events().record(Event {
            kind: EventKind::SnapshotDropped,
            keys: self.pins.len() as u64,
            prev_epoch: self.min_epoch,
            epoch: self.max_epoch,
            ..Event::default()
        });
    }
}
