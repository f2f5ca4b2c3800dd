//! One shard: an epoch handle over the current [`Generation`], live drift
//! statistics, and the rebuild/swap machinery.
//!
//! The probe paths (`get` / `range` / `insert`) delegate to the current
//! generation, which encodes probe keys into thread-local scratch buffers
//! (see [`crate::generation`]) — a shard probe performs no per-key
//! allocation on the encode side.
//!
//! ## Concurrency protocol
//!
//! A shard's state sits behind four locks, each folding in the state
//! that is only ever touched under it:
//!
//! | lock | guards |
//! |------|--------|
//! | `rebuilding: Mutex<FaultState>` | whole rebuilds, one at a time; the optional fault plan and its attempt counter |
//! | `writer: Mutex<Reservoir>` | inserts and the swap splice; the traffic reservoir every insert feeds |
//! | `epoch: RwLock<EpochSlot>` | the current generation and the codec counts of superseded ones |
//! | the generation's data `RwLock` | its index, entry log and slot heads |
//!
//! * **Readers** (`get`/range cursors) clone the `Arc<Generation>` out of
//!   the epoch slot (a short `RwLock` read) and run against that
//!   generation — they never block on writers or on a rebuild, and a
//!   reader holding a superseded generation drains gracefully because the
//!   `Arc` keeps it alive.
//! * **Writers** (`insert`) take three locks: the writer mutex (which
//!   also serializes them against each other and admits the key to the
//!   reservoir), an epoch-slot read, and the generation's data write.
//! * **Rebuild** holds the rebuild mutex throughout and does the
//!   expensive work — dictionary build, Hu-Tucker, re-encoding the live
//!   keys — with no other lock held; writers contend only with the
//!   sample clone (writer mutex), the snapshot clone (a data read-lock
//!   hold) and the final splice (writer mutex: replay the log tail, then
//!   fold the old generation's codec counts and flip under one epoch-slot
//!   write). Installing a fault plan takes the rebuild mutex, so it waits
//!   for an in-flight rebuild instead of racing it.
//!
//! Lock order is always `rebuilding → writer → epoch slot → generation
//! data`, so the protocol is deadlock-free.
//!
//! Shard locks recover from poisoning like the generation's interior lock
//! does (see [`crate::generation`], "Lock discipline").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

use hope::stats;
use hope::{CodecStats, Value};

use crate::error::StoreError;
use crate::generation::{Entry, Generation, MergeSource};
use crate::serving::FaultPlan;
use crate::telemetry::{Counter, Event, EventKind, StageClock, Telemetry};
use crate::{StoreConfig, SwapReport};

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One shard's slice of the store-wide telemetry hub: the shared hub (for
/// the event ring), the shard id stamped on every event, and the shard's
/// pre-registered rebuild counters (`store.shard.{i}.rebuilds` /
/// `.rebuild_errors`).
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    hub: Arc<Telemetry>,
    shard: u32,
    rebuilds: Counter,
    rebuild_errors: Counter,
}

impl ShardTelemetry {
    pub(crate) fn new(hub: Arc<Telemetry>, shard: u32) -> Self {
        let reg = hub.registry();
        let rebuilds = reg.counter(&format!("store.shard.{shard}.rebuilds"));
        let rebuild_errors = reg.counter(&format!("store.shard.{shard}.rebuild_errors"));
        ShardTelemetry { hub, shard, rebuilds, rebuild_errors }
    }

    /// Event template stamped with this shard's id.
    fn event(&self, kind: EventKind) -> Event {
        Event { kind, shard: self.shard, ..Event::default() }
    }
}

/// The maintenance-path fault hook, kept under the rebuild mutex: an
/// optionally installed [`FaultPlan`] plus the per-shard rebuild-attempt
/// counter its decisions key on. The counter only advances while a plan
/// is installed, so an injection window's attempt numbering is
/// deterministic regardless of what the store did before it.
#[derive(Debug, Default)]
struct FaultState {
    plan: Option<FaultPlan>,
    attempts: u64,
}

impl FaultState {
    /// The injection decision for one rebuild attempt (`None` = proceed).
    fn check(&mut self, shard: usize) -> Option<StoreError> {
        let plan = self.plan?;
        let attempt = self.attempts;
        self.attempts += 1;
        plan.rebuild_fails(shard as u32, attempt)
            .then_some(StoreError::FaultInjected { shard, attempt })
    }
}

/// What the epoch slot holds: the current generation, plus the codec
/// path counters of superseded generations (their `Hope` dies with the
/// old `Arc`), so store-level codec telemetry stays monotone across
/// swaps. A swap folds and flips under one write lock, so a generation
/// is never counted both live and retired.
#[derive(Debug)]
struct EpochSlot<V: Value> {
    generation: Arc<Generation<V>>,
    retired: CodecStats,
}

/// Uniform reservoir sample (algorithm R) over the keys inserted since the
/// current generation was installed; reset at every swap so the sample
/// tracks the *current* traffic mix rather than the whole shard lifetime.
#[derive(Debug)]
pub(crate) struct Reservoir {
    keys: Vec<Vec<u8>>,
    cap: usize,
    seen: u64,
    state: u64,
}

impl Reservoir {
    pub(crate) fn new(cap: usize, seed: u64) -> Self {
        Reservoir { keys: Vec::new(), cap: cap.max(1), seen: 0, state: seed | 1 }
    }

    fn next_rand(&mut self) -> u64 {
        // SplitMix64; good enough for sampling decisions.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn offer(&mut self, key: &[u8]) {
        self.seen += 1;
        if self.keys.len() < self.cap {
            self.keys.push(key.to_vec());
        } else {
            let j = self.next_rand() % self.seen;
            if (j as usize) < self.cap {
                self.keys[j as usize] = key.to_vec();
            }
        }
    }

    fn reset(&mut self) {
        self.keys.clear();
        self.seen = 0;
    }
}

/// One partition of the store's key space.
#[derive(Debug)]
pub(crate) struct Shard<V: Value = u64> {
    /// The epoch slot: the current generation, swapped atomically.
    epoch: RwLock<EpochSlot<V>>,
    /// Serializes writers against each other and against the swap splice;
    /// holds the traffic sample feeding the next dictionary rebuild.
    writer: Mutex<Reservoir>,
    /// Serializes whole rebuilds (two overlapping rebuilds could otherwise
    /// both snapshot the same generation and the later flip would drop the
    /// earlier one's replayed writes); holds the fault-injection hook on
    /// the rebuild path (testing/acceptance).
    rebuilding: Mutex<FaultState>,
    /// Source bytes encoded by inserts since the current generation.
    obs_src: AtomicU64,
    /// Padded encoded bytes produced by those inserts.
    obs_enc: AtomicU64,
    /// Telemetry slice: rebuild counters and the shared event ring.
    tel: ShardTelemetry,
}

impl<V: Value> Shard<V> {
    pub(crate) fn new(
        generation: Generation<V>,
        reservoir_capacity: usize,
        seed: u64,
        tel: ShardTelemetry,
    ) -> Self {
        Shard {
            epoch: RwLock::new(EpochSlot {
                generation: Arc::new(generation),
                retired: CodecStats::default(),
            }),
            writer: Mutex::new(Reservoir::new(reservoir_capacity, seed)),
            rebuilding: Mutex::new(FaultState::default()),
            obs_src: AtomicU64::new(0),
            obs_enc: AtomicU64::new(0),
            tel,
        }
    }

    /// Install (or clear) the rebuild fault-injection plan. Installing
    /// resets the attempt counter so injection cadences start from
    /// attempt 0; it waits for an in-flight rebuild to finish.
    pub(crate) fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *lock(&self.rebuilding) = FaultState { plan, attempts: 0 };
    }

    /// Clone the current generation out of the epoch slot.
    pub(crate) fn current(&self) -> Arc<Generation<V>> {
        Arc::clone(&self.epoch.read().unwrap_or_else(PoisonError::into_inner).generation)
    }

    /// Hold this shard's writer mutex. The store-wide snapshot capture
    /// takes every shard's writer lock (ascending shard order) so no
    /// insert or swap splice can interleave between its per-shard
    /// `(generation, watermark)` reads — the only code path that ever
    /// holds more than one writer lock, which keeps it deadlock-free.
    pub(crate) fn writer_lock(&self) -> MutexGuard<'_, Reservoir> {
        lock(&self.writer)
    }

    /// Insert or update under the writer mutex, feeding the drift
    /// statistics and the reservoir; `clock` times the generation's
    /// encode and mutation.
    pub(crate) fn insert(
        &self,
        key: &[u8],
        value: V,
        clock: &mut impl StageClock,
    ) -> Result<Option<V>, StoreError> {
        let mut reservoir = lock(&self.writer);
        let (old, footprint) = self.current().insert(key, value, clock)?;
        self.obs_src.fetch_add(footprint.src_bytes, Ordering::Relaxed);
        self.obs_enc.fetch_add(footprint.enc_bytes, Ordering::Relaxed);
        reservoir.offer(key);
        Ok(old)
    }

    /// Codec path counters: the live generation's compressor plus
    /// everything accumulated from superseded generations at swap time,
    /// read under one epoch-slot read lock (see [`EpochSlot`]). Readers
    /// still draining on a superseded generation after the flip may
    /// contribute a handful of uncounted probes — the totals are
    /// observability, not accounting.
    pub(crate) fn codec_stats(&self) -> CodecStats {
        let slot = self.epoch.read().unwrap_or_else(PoisonError::into_inner);
        let mut stats = slot.retired;
        stats += slot.generation.hope().codec_stats();
        stats
    }

    /// CPR observed on the insert traffic of the current generation, or
    /// `None` until any insert has been encoded.
    pub(crate) fn observed_cpr(&self) -> Option<f64> {
        let enc = self.obs_enc.load(Ordering::Relaxed);
        let src = self.obs_src.load(Ordering::Relaxed);
        (enc > 0).then(|| src as f64 / enc as f64)
    }

    /// Observed source bytes since the current generation.
    pub(crate) fn observed_src_bytes(&self) -> u64 {
        self.obs_src.load(Ordering::Relaxed)
    }

    /// True when the shard should retrain: either the observed CPR has
    /// degraded past the configured fraction of the generation's
    /// build-time baseline (after enough traffic to judge), or the
    /// append-only write log has accumulated enough dead entries that a
    /// compacting rebuild pays for itself even with a stable distribution.
    pub(crate) fn needs_rebuild(&self, cfg: &StoreConfig) -> bool {
        let generation = self.current();
        let (live, log) = generation.occupancy();
        if log > live.saturating_mul(4) + 4096 {
            return true; // update-heavy stable traffic: compact the log
        }
        if self.observed_src_bytes() < cfg.min_observed_bytes {
            return false;
        }
        match self.observed_cpr() {
            Some(cpr) => cpr < cfg.degrade_ratio * generation.baseline_cpr(),
            None => false,
        }
    }

    /// Drift-triggered rebuild: re-checks the trigger under the rebuild
    /// lock (a concurrent maintenance pass may have just swapped this
    /// shard, resetting its statistics and reservoir, in which case a
    /// second back-to-back rebuild would only churn the epoch) and
    /// returns `Ok(None)` when the rebuild was skipped for that reason.
    pub(crate) fn maybe_rebuild(
        &self,
        shard_id: usize,
        cfg: &StoreConfig,
        epoch_counter: &AtomicU64,
    ) -> Result<Option<SwapReport>, StoreError> {
        let mut faults = lock(&self.rebuilding);
        if !self.needs_rebuild(cfg) {
            return Ok(None);
        }
        self.rebuild_locked(shard_id, cfg, epoch_counter, &mut faults).map(Some)
    }

    /// Unconditional rebuild (testing/operations): always swaps.
    pub(crate) fn rebuild_forced(
        &self,
        shard_id: usize,
        cfg: &StoreConfig,
        epoch_counter: &AtomicU64,
    ) -> Result<SwapReport, StoreError> {
        let mut faults = lock(&self.rebuilding);
        self.rebuild_locked(shard_id, cfg, epoch_counter, &mut faults)
    }

    /// Build a new generation from the reservoir sample and hot-swap it
    /// into the epoch slot. Readers keep serving the old generation until
    /// the flip and never block. Writers are paused twice: during the
    /// snapshot clone (it holds the generation's data read lock) and
    /// during the replay+flip splice; the expensive dictionary build and
    /// re-encode in between run with no other lock held. `faults` is the
    /// state behind the caller-held rebuild mutex.
    fn rebuild_locked(
        &self,
        shard_id: usize,
        cfg: &StoreConfig,
        epoch_counter: &AtomicU64,
        faults: &mut FaultState,
    ) -> Result<SwapReport, StoreError> {
        let started = Instant::now();
        let prev_epoch = self.current().epoch();
        // epoch == prev_epoch by contract: nothing installed yet.
        self.tel.hub.events().record(Event {
            prev_epoch,
            epoch: prev_epoch,
            ..self.tel.event(EventKind::SwapBegin)
        });
        match self.rebuild_inner(shard_id, cfg, epoch_counter, faults) {
            Ok((report, dict_bytes)) => {
                self.tel.rebuilds.inc();
                self.tel.hub.events().record(Event {
                    prev_epoch: report.old_epoch,
                    epoch: report.new_epoch,
                    keys: report.live_keys as u64,
                    replayed: report.replayed as u64,
                    bytes: dict_bytes as u64,
                    duration_ns: started.elapsed().as_nanos() as u64,
                    ..self.tel.event(EventKind::SwapEnd)
                });
                // Path attribution: which rebuild strategy ran, and the
                // byte split it achieved (repurposed fields documented on
                // the event kinds).
                let kind = if report.incremental {
                    EventKind::RebuildIncremental
                } else {
                    EventKind::RebuildFull
                };
                self.tel.hub.events().record(Event {
                    prev_epoch: report.old_epoch,
                    epoch: report.new_epoch,
                    keys: report.live_keys as u64,
                    replayed: report.reused_bytes,
                    bytes: report.reencoded_bytes,
                    duration_ns: started.elapsed().as_nanos() as u64,
                    ..self.tel.event(kind)
                });
                let reg = self.tel.hub.registry();
                reg.counter("store.rebuild.reused_bytes").add(report.reused_bytes);
                reg.counter("store.rebuild.reencoded_bytes").add(report.reencoded_bytes);
                reg.counter(if report.incremental {
                    "store.rebuild.incremental"
                } else {
                    "store.rebuild.full"
                })
                .inc();
                Ok(report)
            }
            Err(e) => {
                self.tel.rebuild_errors.inc();
                // epoch == prev_epoch by contract: nothing new installed.
                self.tel.hub.events().record(Event {
                    prev_epoch,
                    epoch: prev_epoch,
                    duration_ns: started.elapsed().as_nanos() as u64,
                    ..self.tel.event(EventKind::RebuildFailed)
                });
                Err(e)
            }
        }
    }

    /// The rebuild itself (runs under the caller-held rebuild mutex);
    /// returns the report plus the new dictionary's memory footprint for
    /// the swap-end event.
    fn rebuild_inner(
        &self,
        shard_id: usize,
        cfg: &StoreConfig,
        epoch_counter: &AtomicU64,
        faults: &mut FaultState,
    ) -> Result<(SwapReport, usize), StoreError> {
        // The fault hook fires before any build work: an injected failure
        // costs nothing, mutates nothing, and flows through the same
        // error path (rebuild_errors counter + RebuildFailed event) a
        // real dictionary-build failure would.
        if let Some(e) = faults.check(shard_id) {
            self.tel.hub.registry().counter("store.faults.injected_rebuild_failures").inc();
            return Err(e);
        }
        let old = self.current();
        let (live, old_encs, watermark) = old.snapshot_live_encoded();

        // Sample = reservoir (recent traffic), topped up with resident
        // keys when traffic alone is too thin to train a dictionary.
        let mut sample: Vec<Vec<u8>> = lock(&self.writer).keys.clone();
        if sample.len() < cfg.reservoir_capacity {
            let need = cfg.reservoir_capacity - sample.len();
            let step = (live.len() / need.max(1)).max(1);
            sample.extend(live.iter().step_by(step).map(|e| e.key.to_vec()));
        }

        let hope = crate::build_hope_for(cfg, &sample)?;
        let baseline_cpr = stats::measure(&hope, &sample).cpr();
        let epoch = epoch_counter.fetch_add(1, Ordering::Relaxed) + 1;
        let live_keys = live.len();

        // Merge-path decision: diff the old dictionary against the
        // retrained one and measure, in *bytes*, how much of the already
        // encoded data the new dictionary would reproduce verbatim. Only
        // when that fraction clears `incremental_min_reuse` is the merge
        // build worth its bookkeeping; otherwise (or when no diff is
        // possible) fall back to the full re-encode.
        let mut reuse: Vec<bool> = Vec::new();
        let mut reusable_bytes = 0u64;
        let mut live_bytes = 0u64;
        if let Some(diff) = old.hope().encoding_diff(&hope) {
            reuse.reserve(live.len());
            for (e, enc) in live.iter().zip(&old_encs) {
                let unchanged = diff.key_unchanged(&e.key);
                live_bytes += enc.len() as u64;
                if unchanged {
                    reusable_bytes += enc.len() as u64;
                }
                reuse.push(unchanged);
            }
        }
        let incremental = live_bytes > 0
            && reusable_bytes as f64 >= cfg.incremental_min_reuse * live_bytes as f64;

        let (next, merge_stats) = if incremental {
            let (g, stats) = Generation::build_merged(
                epoch,
                hope,
                baseline_cpr,
                cfg.backend.new_index(),
                MergeSource { pairs: live, old_encs, reuse },
                cfg.batch_block,
            );
            (g, Some(stats))
        } else {
            let g = Generation::build(
                epoch,
                hope,
                baseline_cpr,
                cfg.backend.new_index(),
                live,
                cfg.batch_block,
            );
            (g, None)
        };
        let next = next.with_context(shard_id, cfg.write_log_capacity);
        let (reused_bytes, reencoded_bytes) = match merge_stats {
            Some(s) => (s.reused_bytes, s.reencoded_bytes),
            None => (0, next.encoded_live_bytes()),
        };

        // Splice: block writers, replay their log tail, flip the epoch.
        // Replay inserts re-encode keys that already passed validation at
        // their original insert, so a failure here (which would abort the
        // swap and keep the old generation serving) cannot happen in
        // practice; `?` still propagates it honestly if it ever does.
        let mut reservoir = lock(&self.writer);
        let delta = old.entries_since(watermark);
        let replayed = delta.len();
        for Entry { key, value, .. } in delta {
            next.insert(&key, value, &mut ())?;
        }
        let report = SwapReport {
            shard: shard_id,
            old_epoch: old.epoch(),
            new_epoch: epoch,
            observed_cpr: self.observed_cpr(),
            old_baseline_cpr: old.baseline_cpr(),
            new_baseline_cpr: baseline_cpr,
            live_keys,
            replayed,
            incremental,
            reused_bytes,
            reencoded_bytes,
        };
        let dict_bytes = next.hope().dict_memory_bytes();
        // The old generation's codec counters die with its `Arc`; fold
        // them into the retired total and flip under one epoch-slot write.
        {
            let mut slot = self.epoch.write().unwrap_or_else(PoisonError::into_inner);
            slot.retired += old.hope().codec_stats();
            slot.generation = Arc::new(next);
        }
        self.obs_src.store(0, Ordering::Relaxed);
        self.obs_enc.store(0, Ordering::Relaxed);
        reservoir.reset();
        Ok((report, dict_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservoir_is_bounded_and_uniformish() {
        let mut r = Reservoir::new(64, 1);
        for i in 0..10_000u32 {
            r.offer(format!("key{i:05}").as_bytes());
        }
        assert_eq!(r.keys.len(), 64);
        assert_eq!(r.seen, 10_000);
        // Late keys must be able to displace early ones.
        let late = r.keys.iter().filter(|k| k.as_slice() >= b"key05000".as_slice()).count();
        assert!(late > 10, "late keys under-represented: {late}/64");
        r.reset();
        assert!(r.keys.is_empty());
    }
}
