//! Integration suite for the `hope_store` dictionary hot-swap: the store
//! must be indistinguishable from an uncompressed ordered map before,
//! during, and after a swap — including under concurrent readers while a
//! generation is being replaced. Readers also push range hits through an
//! encode→decode round-trip (`FastDecoder::decode_batch`) against the
//! live generation, so losslessness is checked mid-swap too.
//!
//! Range queries run through the v1 [`hope_store::RangeCursor`] (pull and
//! push forms); dedicated tests cover the cursor's edge cases and its
//! behaviour when a dictionary hot-swap lands mid-iteration.
//!
//! Sizes scale up in `--release` (CI runs this suite in both profiles;
//! the release run is the stress configuration).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use hope::{DecodeScratch, EncodedKey, Scheme};
use hope_store::serving::{FaultPlan, Request, Response, ScanSummary, Server, ServingConfig};
use hope_store::telemetry::EventKind;
use hope_store::{Backend, HopeStore, StoreConfig, StoreError};
use hope_workloads::{MixedWorkload, StoreOp, TrafficSpec};
use proptest::prelude::*;

fn email_pairs(n: u64) -> Vec<(Vec<u8>, u64)> {
    (0..n).map(|i| (format!("com.gmail@user{i:06}").into_bytes(), i)).collect()
}

/// Collect a bounded range through the cursor, asserting pull and push
/// agree — every scan in this suite doubles as a cursor-equivalence check.
fn range(store: &HopeStore<u64>, low: &[u8], high: &[u8], limit: usize) -> Vec<(Vec<u8>, u64)> {
    let mut pushed = Vec::new();
    let n = store.range_into(low, high, limit, &mut pushed).expect("valid bounds");
    assert_eq!(n, pushed.len());
    let mut cur = store.cursor(low, high, limit).expect("valid bounds");
    let mut pulled = Vec::new();
    while let Some((k, v)) = cur.next_hit() {
        pulled.push((k.to_vec(), *v));
    }
    assert!(cur.error().is_none(), "{:?}", cur.error());
    assert_eq!(pulled, pushed, "pull and push cursors disagree");
    pushed
}

/// Deterministic end-to-end: load, drift, swap, and compare the full
/// contents and a spread of ranges against the shadow map.
#[test]
fn swap_preserves_gets_and_ranges_exactly() {
    let cfg = StoreConfig { shards: 3, min_observed_bytes: 1024, ..StoreConfig::default() };
    let store = HopeStore::build(cfg, email_pairs(3_000)).unwrap();
    let mut shadow: BTreeMap<Vec<u8>, u64> = email_pairs(3_000).into_iter().collect();
    let epochs_before = store.epochs();

    // Drift: traffic the build sample never saw.
    for i in 0..1_500u64 {
        let k = format!("ru.yandex/{i:x}/box{i:05}").into_bytes();
        assert_eq!(store.insert(k.clone(), i).unwrap(), shadow.insert(k, i));
    }
    let (swaps, errors) = store.maintain();
    assert!(errors.is_empty(), "{errors:?}");
    assert!(!swaps.is_empty(), "drift should have triggered at least one swap");
    assert!(store.epochs().iter().zip(&epochs_before).any(|(a, b)| a > b));

    // Every key, point-queried.
    for (k, v) in &shadow {
        assert_eq!(store.get(k).unwrap(), Some(*v));
    }
    // Ranges spanning shard boundaries and both populations.
    let probes: Vec<&[u8]> =
        vec![b"com.gmail@user000000", b"com.gmail@user001499", b"ru.yandex/", b"", b"zzz"];
    for low in &probes {
        for high in &probes {
            for limit in [1usize, 7, 100, usize::MAX] {
                let got = range(&store, low, high, limit);
                let want: Vec<(Vec<u8>, u64)> = if low > high {
                    Vec::new() // BTreeMap::range panics on inverted bounds
                } else {
                    shadow
                        .range(low.to_vec()..=high.to_vec())
                        .take(limit)
                        .map(|(k, v)| (k.clone(), *v))
                        .collect()
                };
                assert_eq!(got, want, "range {low:?}..={high:?} limit {limit}");
            }
        }
    }
}

/// The satellite edge cases, all through the cursor: empty range,
/// inverted bounds, equal bounds, limit 0 — plus the deprecated shim
/// agreeing with the cursor it wraps.
#[test]
fn cursor_edge_cases() {
    let store =
        HopeStore::build(StoreConfig { shards: 2, ..StoreConfig::default() }, email_pairs(200))
            .unwrap();

    // Empty range (bounds between keys): no hits, no error.
    assert!(range(&store, b"com.gmail@user000010x", b"com.gmail@user000010zzz", 10).is_empty());
    // Inverted bounds: empty cursor, not an error.
    let mut cur = store.cursor(b"z", b"a", 10).unwrap();
    assert!(cur.next_hit().is_none());
    assert!(cur.error().is_none());
    assert_eq!(store.range_with(b"z", b"a", 10, |_, _| panic!("no hits")).unwrap(), 0);
    // Bounds equal, key present: exactly that key.
    let got = range(&store, b"com.gmail@user000007", b"com.gmail@user000007", 10);
    assert_eq!(got, vec![(b"com.gmail@user000007".to_vec(), 7)]);
    // Bounds equal, key absent: nothing.
    assert!(range(&store, b"com.gmail@userX", b"com.gmail@userX", 10).is_empty());
    // Limit 0: empty cursor with zero remaining.
    let mut cur = store.cursor(b"", b"\xff", 0).unwrap();
    assert_eq!(cur.remaining(), 0);
    assert!(cur.next_hit().is_none());
    // Limit truncates mid-shard and `remaining` counts down.
    let mut cur = store.cursor(b"", b"\xff", 5).unwrap();
    assert_eq!(cur.remaining(), 5);
    assert!(cur.next_hit().is_some());
    assert_eq!(cur.remaining(), 4);
    // The deprecated shim returns what the cursor returns.
    #[allow(deprecated)]
    {
        assert_eq!(
            store.range(b"com.gmail@user000000", b"com.gmail@user000004", 3),
            range(&store, b"com.gmail@user000000", b"com.gmail@user000004", 3)
        );
    }
}

/// A cursor held across a concurrent dictionary swap keeps serving a
/// consistent view: it pins each shard's generation on entry, so hits
/// stay exact and ordered even though every shard's dictionary was
/// replaced mid-iteration.
#[test]
fn cursor_survives_concurrent_dictionary_swap() {
    let cfg = StoreConfig { shards: 3, ..StoreConfig::default() };
    let n = 3_000u64;
    let store = HopeStore::build(cfg, email_pairs(n)).unwrap();

    let mut cur = store.cursor(b"", b"\xff\xff", usize::MAX).unwrap();
    let mut seen: Vec<(Vec<u8>, u64)> = Vec::new();
    // Pull a prefix (deep enough to be mid-shard), then swap every shard.
    for _ in 0..500 {
        let (k, v) = cur.next_hit().expect("prefix available");
        seen.push((k.to_vec(), *v));
    }
    let epochs_before = store.epochs();
    for s in 0..store.config().shards {
        store.force_rebuild(s).unwrap();
    }
    assert!(store.epochs().iter().zip(&epochs_before).all(|(a, b)| a > b));
    // Drain the rest across the swapped generations.
    while let Some((k, v)) = cur.next_hit() {
        seen.push((k.to_vec(), *v));
    }
    assert!(cur.error().is_none());
    assert_eq!(seen.len() as u64, n, "cursor lost or duplicated hits across the swap");
    assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "cursor order broke across the swap");
    for (i, (k, v)) in seen.iter().enumerate() {
        assert_eq!(k, &format!("com.gmail@user{i:06}").into_bytes());
        assert_eq!(*v, i as u64);
    }
}

// The swap is exact for *arbitrary byte keys* — including the
// padded-byte tie corner — because generations re-check source keys.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn store_matches_btreemap_across_forced_swaps(
        ops in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..20), any::<u64>()), 2..120),
        probes in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..20), 0..24),
    ) {
        let cfg = StoreConfig {
            shards: 2,
            scheme: Scheme::ThreeGrams,
            dict_entries: 512,
            backend: Backend::Art,
            min_observed_bytes: u64::MAX, // only explicit swaps
            ..StoreConfig::default()
        };
        let (load, live) = ops.split_at(ops.len() / 2);
        let store = HopeStore::build(cfg, load.to_vec()).unwrap();
        let mut model: BTreeMap<Vec<u8>, u64> = load.iter().cloned().collect();
        for (i, (k, v)) in live.iter().enumerate() {
            prop_assert_eq!(store.insert(k.clone(), *v).unwrap(), model.insert(k.clone(), *v));
            if i % 13 == 5 {
                store.force_rebuild(i % 2).unwrap();
            }
        }
        store.force_rebuild(0).unwrap();
        prop_assert_eq!(store.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(store.get(k).unwrap(), Some(*v), "lost {:?}", k);
        }
        for p in &probes {
            prop_assert_eq!(store.get(p).unwrap(), model.get(p).copied());
        }
        for pair in probes.chunks(2) {
            if let [a, b] = pair {
                let (low, high) = if a <= b { (a, b) } else { (b, a) };
                let got = range(&store, low, high, 16);
                let want: Vec<(Vec<u8>, u64)> = model
                    .range(low.clone()..=high.clone())
                    .take(16)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                prop_assert_eq!(got, want, "range {:?}..={:?}", low, high);
            }
        }
    }
}

/// The headline concurrency property: reader threads hammer the loaded
/// keys with point and range queries while the main thread applies
/// shifting write traffic and hot-swaps every shard mid-stream. No reader
/// may ever observe a wrong answer — before, during, or after the swaps.
#[test]
fn hot_swap_under_concurrent_readers() {
    let (n_initial, n_ops) = if cfg!(debug_assertions) { (2_000, 2_000) } else { (20_000, 30_000) };
    let workload = MixedWorkload::generate(n_initial, n_ops, TrafficSpec::default(), 0xFEED);
    let cfg = StoreConfig { min_observed_bytes: 4096, ..StoreConfig::default() };
    let initial: Vec<(Vec<u8>, u64)> =
        workload.initial.iter().enumerate().map(|(i, k)| (k.clone(), i as u64)).collect();
    let store = Arc::new(HopeStore::build(cfg, initial.clone()).unwrap());
    let mut shadow: BTreeMap<Vec<u8>, u64> = initial.clone().into_iter().collect();

    let stop = Arc::new(AtomicBool::new(false));
    let frozen = Arc::new(initial);
    let readers: Vec<_> = (0..3)
        .map(|t| {
            let (store, stop, frozen) =
                (Arc::clone(&store), Arc::clone(&stop), Arc::clone(&frozen));
            std::thread::spawn(move || {
                let mut checks = 0u64;
                let mut i = t * 131;
                let mut decode_scratch = DecodeScratch::new();
                let mut range_keys: Vec<Vec<u8>> = Vec::new();
                // FastDecoder construction is table-sized work; cache it
                // per generation epoch so the thread spends its stress
                // window racing the swap, not rebuilding tables.
                let mut cached_decoder: Option<(u64, hope::FastDecoder)> = None;
                while !stop.load(Ordering::Relaxed) {
                    let (k, v) = &frozen[i % frozen.len()];
                    assert_eq!(store.get(k).unwrap(), Some(*v), "wrong point result for {k:?}");
                    match i % 3 {
                        0 => {
                            // Exact single-key range, via the zero-alloc
                            // visitor scan.
                            let mut ok = false;
                            let hits = store
                                .range_with(k, k, 2, |rk, rv| {
                                    ok = rk == k.as_slice() && *rv == *v;
                                })
                                .unwrap();
                            assert!(hits == 1 && ok, "wrong single-key range for {k:?}");
                        }
                        1 => {
                            // Open-ended range through the pull cursor: the
                            // anchor key must lead it even while writers add
                            // keys above.
                            let mut high = k.clone();
                            high.push(0xFF);
                            let mut cur = store.cursor(k, &high, 8).unwrap();
                            range_keys.clear();
                            let mut first_val = None;
                            while let Some((rk, rv)) = cur.next_hit() {
                                if first_val.is_none() {
                                    first_val = Some(*rv);
                                }
                                range_keys.push(rk.to_vec());
                            }
                            assert!(cur.error().is_none());
                            assert_eq!(range_keys.first(), Some(k), "anchor key missing");
                            assert_eq!(first_val, Some(*v));
                            assert!(range_keys.windows(2).all(|w| w[0] < w[1]), "unsorted range");
                            assert!(range_keys.iter().all(|rk| rk >= k && rk <= &high));
                            if i % 63 == 1 {
                                // Encode→decode round-trip of the scan's
                                // hits against whichever generation is
                                // serving this shard right now — the
                                // encoding must stay lossless before,
                                // during, and after every hot-swap.
                                let generation = store.generation(store.shard_of(k)).unwrap();
                                let encoded: Vec<EncodedKey> = range_keys
                                    .iter()
                                    .map(|rk| generation.hope().encode(rk))
                                    .collect();
                                let stale = !matches!(&cached_decoder,
                                    Some((epoch, _)) if *epoch == generation.epoch());
                                if stale {
                                    cached_decoder = Some((
                                        generation.epoch(),
                                        generation.hope().fast_decoder(),
                                    ));
                                }
                                let fast = &cached_decoder.as_ref().expect("just filled").1;
                                let batch = fast
                                    .decode_batch_keys(&encoded, &mut decode_scratch)
                                    .expect("range hits must decode");
                                for (rk, back) in range_keys.iter().zip(batch.iter()) {
                                    assert_eq!(back, rk.as_slice(), "round-trip broke mid-swap");
                                }
                            }
                        }
                        _ => {}
                    }
                    checks += 1;
                    i += 1;
                }
                checks
            })
        })
        .collect();

    // Apply the shifting traffic; force a swap of every shard mid-stream
    // (on top of whatever drift-triggered swaps maintenance performs).
    let force_at = workload.shift_at + (n_ops - workload.shift_at) / 2;
    let epochs_start = store.epochs();
    for (i, op) in workload.ops.iter().enumerate() {
        match op {
            StoreOp::Get(k) => {
                assert_eq!(store.get(k).unwrap(), shadow.get(k).copied());
            }
            StoreOp::Insert(k, v) => {
                assert_eq!(store.insert(k.clone(), *v).unwrap(), shadow.insert(k.clone(), *v));
            }
            StoreOp::Scan(low, high, limit) => {
                let got = range(&store, low, high, *limit);
                let want: Vec<(Vec<u8>, u64)> = shadow
                    .range(low.clone()..=high.clone())
                    .take(*limit)
                    .map(|(k, v)| (k.clone(), *v))
                    .collect();
                assert_eq!(got, want);
            }
        }
        if i == force_at {
            for s in 0..store.config().shards {
                store.force_rebuild(s).unwrap();
            }
        }
        if (i + 1) % (n_ops / 10).max(1) == 0 {
            let (_, errors) = store.maintain();
            assert!(errors.is_empty(), "{errors:?}");
        }
    }
    stop.store(true, Ordering::Relaxed);
    let checks: u64 = readers.into_iter().map(|r| r.join().expect("reader failed")).sum();
    assert!(checks > 0, "readers never ran");

    // Every shard flipped its epoch at least once while readers were live.
    let epochs_end = store.epochs();
    assert!(
        epochs_end.iter().zip(&epochs_start).all(|(a, b)| a > b),
        "not every shard swapped: {epochs_start:?} -> {epochs_end:?}"
    );
    // Full post-swap verification.
    assert_eq!(store.len(), shadow.len());
    for (k, v) in &shadow {
        assert_eq!(store.get(k).unwrap(), Some(*v));
    }
}

/// Injected rebuild failure, the drift-triggered path: `maintain()`
/// surfaces the [`StoreError::FaultInjected`] error, the old generation
/// keeps serving exact answers, the failure is fully attributable from
/// telemetry (RebuildFailed event, `rebuild_errors` and
/// `injected_rebuild_failures` counters), and the next maintenance pass
/// — attempt 1 at `rebuild_fail_every: 2` — heals the shard.
#[test]
fn injected_rebuild_failure_surfaces_then_heals() {
    let cfg = StoreConfig { shards: 2, min_observed_bytes: 1024, ..StoreConfig::default() };
    let store = HopeStore::build(cfg, email_pairs(2_000)).unwrap();
    let mut shadow: BTreeMap<Vec<u8>, u64> = email_pairs(2_000).into_iter().collect();

    // Drift traffic the build sample never saw, then arm the plan: every
    // even-numbered rebuild attempt per shard fails.
    for i in 0..1_000u64 {
        let k = format!("ru.yandex/{i:x}/box{i:05}").into_bytes();
        assert_eq!(store.insert(k.clone(), i).unwrap(), shadow.insert(k, i));
    }
    store.inject_faults(FaultPlan { rebuild_fail_every: 2, ..FaultPlan::default() });

    let epochs_before = store.epochs();
    let (swaps, errors) = store.maintain();
    assert!(swaps.is_empty(), "attempt 0 must fail, not swap: {swaps:?}");
    assert!(!errors.is_empty(), "drift should have forced rebuild attempts");
    for (shard, e) in &errors {
        assert!(
            matches!(e, StoreError::FaultInjected { shard: s, attempt: 0 } if s == shard),
            "unexpected error on shard {shard}: {e}"
        );
    }
    // Old generations keep serving: no epoch moved, every answer exact.
    assert_eq!(store.epochs(), epochs_before);
    for (k, v) in &shadow {
        assert_eq!(store.get(k).unwrap(), Some(*v), "wrong answer after failed rebuild");
    }
    // Attribution: the event ring and both counters agree with the
    // errors the driver collected.
    let tel = store.telemetry();
    let failed_events: Vec<_> = tel.events_of(EventKind::RebuildFailed).collect();
    assert_eq!(failed_events.len(), errors.len());
    for ev in &failed_events {
        assert!(errors.iter().any(|(s, _)| *s == ev.shard as usize));
        assert_eq!(ev.epoch, ev.prev_epoch, "a failed rebuild must not install an epoch");
    }
    assert_eq!(tel.counter("store.faults.injected_rebuild_failures"), Some(errors.len() as u64));
    let per_shard_errors: u64 =
        (0..2).map(|s| tel.counter(&format!("store.shard.{s}.rebuild_errors")).unwrap_or(0)).sum();
    assert_eq!(per_shard_errors, errors.len() as u64);

    // The next pass is attempt 1 per still-drifted shard: it heals.
    let (swaps, errors2) = store.maintain();
    assert!(errors2.is_empty(), "heal pass failed: {errors2:?}");
    assert_eq!(swaps.len(), errors.len(), "every failed shard must heal");
    assert!(store.epochs().iter().zip(&epochs_before).any(|(a, b)| a > b));
    for (k, v) in &shadow {
        assert_eq!(store.get(k).unwrap(), Some(*v), "wrong answer after heal");
    }
}

/// Injected rebuild failure, the forced path: with `rebuild_fail_every:
/// 1` every `force_rebuild` fails until [`HopeStore::clear_faults`]
/// disarms the plan, and a cleared store rebuilds normally.
#[test]
fn clear_faults_restores_forced_rebuilds() {
    let cfg = StoreConfig { shards: 2, min_observed_bytes: u64::MAX, ..StoreConfig::default() };
    let store = HopeStore::build(cfg, email_pairs(500)).unwrap();
    store.inject_faults(FaultPlan { rebuild_fail_every: 1, ..FaultPlan::default() });

    let epochs_before = store.epochs();
    for attempt in 0..3u64 {
        match store.force_rebuild(0) {
            Err(StoreError::FaultInjected { shard: 0, attempt: a }) => assert_eq!(a, attempt),
            other => panic!("attempt {attempt}: {other:?}"),
        }
    }
    assert_eq!(store.epochs(), epochs_before);
    assert_eq!(store.get(b"com.gmail@user000007").unwrap(), Some(7));

    store.clear_faults();
    store.force_rebuild(0).unwrap();
    assert!(store.epochs()[0] > epochs_before[0], "cleared store must rebuild");
    assert_eq!(store.get(b"com.gmail@user000007").unwrap(), Some(7));
    // The three forced failures stay attributed even after the heal.
    let tel = store.telemetry();
    assert_eq!(tel.counter("store.faults.injected_rebuild_failures"), Some(3));
    assert_eq!(tel.events_of(EventKind::RebuildFailed).count(), 3);
}

/// Installing and clearing fault plans while another thread loops
/// `force_rebuild`. The plan and its attempt counter live under the
/// shard's rebuild mutex, so an install waits for the in-flight rebuild
/// instead of racing it: nothing deadlocks, no write is lost across the
/// swaps, and once the threads are joined an install counts attempts
/// from 0 again.
#[test]
fn fault_plans_installed_during_rebuilds() {
    let cfg = StoreConfig { shards: 2, min_observed_bytes: u64::MAX, ..StoreConfig::default() };
    let store = Arc::new(HopeStore::build(cfg, email_pairs(1_000)).unwrap());
    let mut shadow: BTreeMap<Vec<u8>, u64> = email_pairs(1_000).into_iter().collect();
    let stop = Arc::new(AtomicBool::new(false));
    // Rebuild outcomes so far: [swapped, failed by an injected fault].
    let outcomes = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let rebuilder = {
        let (store, stop, outcomes) =
            (Arc::clone(&store), Arc::clone(&stop), Arc::clone(&outcomes));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for shard in 0..2 {
                    let outcome = match store.force_rebuild(shard) {
                        Ok(_) => 0,
                        Err(StoreError::FaultInjected { .. }) => 1,
                        Err(e) => panic!("shard {shard}: {e}"),
                    };
                    outcomes[outcome].fetch_add(1, Ordering::Relaxed);
                    // Leave the installer a window on the rebuild mutex.
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            }
        })
    };
    // Keep installing until rebuilds have both swapped and failed
    // between the installs.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let mut round = 0u64;
    while round < 20 || outcomes.iter().any(|n| n.load(Ordering::Relaxed) < 3) {
        assert!(std::time::Instant::now() < deadline, "rebuilds starved: {outcomes:?}");
        store
            .inject_faults(FaultPlan { rebuild_fail_every: 1 + round % 3, ..FaultPlan::default() });
        let k = format!("org.acm@writer{round:05}").into_bytes();
        assert_eq!(store.insert(k.clone(), round).unwrap(), shadow.insert(k, round));
        std::thread::sleep(std::time::Duration::from_micros(500));
        store.clear_faults();
        std::thread::sleep(std::time::Duration::from_micros(500));
        round += 1;
    }
    stop.store(true, Ordering::Relaxed);
    rebuilder.join().expect("rebuilder panicked");
    assert_eq!(store.len(), shadow.len());
    for (k, v) in &shadow {
        assert_eq!(store.get(k).unwrap(), Some(*v), "lost {k:?}");
    }
    store.inject_faults(FaultPlan { rebuild_fail_every: 2, ..FaultPlan::default() });
    assert!(matches!(
        store.force_rebuild(0),
        Err(StoreError::FaultInjected { shard: 0, attempt: 0 })
    ));
    store.force_rebuild(0).expect("attempt 1 succeeds");
}

/// [`ScanSummary::epochs`] under a forced swap landing mid-scan: the
/// cursor pins each shard's generation on *entry*, so the shard already
/// being read stays on its old epoch while shards entered later serve
/// the new ones — and the summary's dedup keeps the list shard-ordered
/// with at most one epoch per shard, never interleaved.
#[test]
fn scan_epochs_stay_shard_ordered_when_a_swap_lands_mid_scan() {
    let shards = 4usize;
    let cfg = StoreConfig { shards, min_observed_bytes: u64::MAX, ..StoreConfig::default() };
    let n = 2_000u64;
    let store = HopeStore::build(cfg, email_pairs(n)).unwrap();
    // Builds assign epochs 1..=shards in shard order, from the store's
    // own counter — deterministic for this store instance.
    assert_eq!(store.epochs(), vec![1, 2, 3, 4]);

    let mut cur = store.cursor(b"", b"\xff\xff", usize::MAX).unwrap();
    let mut summary = ScanSummary::default();
    let note = |cur: &hope_store::RangeCursor<u64>, summary: &mut ScanSummary| {
        if let Some(e) = cur.hit_epoch() {
            summary.note_epoch(e);
        }
    };
    // Pull deep enough to be mid-way through shard 0, pinning epoch 1.
    for i in 0..10u64 {
        let (k, v) = cur.next_hit().expect("prefix available");
        assert_eq!(*v, i);
        summary.hits += 1;
        summary.key_bytes += k.len() as u64;
        note(&cur, &mut summary);
    }
    // The swap lands mid-scan: every shard steps to a new generation.
    for s in 0..shards {
        store.force_rebuild(s).unwrap();
    }
    assert_eq!(store.epochs(), vec![5, 6, 7, 8]);
    while let Some((k, _)) = cur.next_hit() {
        summary.hits += 1;
        summary.key_bytes += k.len() as u64;
        note(&cur, &mut summary);
    }
    assert!(cur.error().is_none());
    assert_eq!(summary.hits as u64, n, "swap lost or duplicated hits");

    // Shard 0 was entered pre-swap (epoch 1); shards 1..4 post-swap
    // (epochs 6, 7, 8). One epoch per shard, in shard order.
    assert_eq!(summary.epochs, vec![1, 6, 7, 8]);
    assert!(summary.epochs.len() <= shards, "more epochs than shards: torn scan");
    assert!(
        summary.epochs.windows(2).all(|w| w[0] < w[1]),
        "epoch list not shard-ordered: {:?}",
        summary.epochs
    );
    // The dedup itself: consecutive duplicates collapse, non-consecutive
    // repeats (which would mean a scan bounced between generations) stay
    // visible to the harness assertions.
    let mut s = ScanSummary::default();
    for e in [3u64, 3, 3, 7, 7, 3] {
        s.note_epoch(e);
    }
    assert_eq!(s.epochs, vec![3, 7, 3]);
}

/// The serving-harness swap scenario: scans flow through the
/// thread-per-core pipeline while every shard's dictionary is hot-swapped
/// repeatedly underneath it. Two properties must hold:
///
/// 1. **No torn generation** — every scan's [`ScanSummary::epochs`]
///    (hit epochs in shard order, consecutive duplicates collapsed) has
///    at most one entry per shard the range crosses. A swap landing
///    mid-shard would surface as two epochs for one shard.
/// 2. **Tail latency survives the swap** — p99 in the swap phase stays
///    within a generous multiple of the quiet-phase p99 (swaps happen on
///    background rebuilds; readers never block on them).
///
/// [`ScanSummary::epochs`]: hope_store::serving::ScanSummary::epochs
#[test]
fn serving_harness_scans_never_observe_a_torn_generation() {
    let n = if cfg!(debug_assertions) { 4_000u64 } else { 16_000 };
    let scans = if cfg!(debug_assertions) { 600usize } else { 2_400 };
    // Explicit swaps only, so the test controls exactly when they land.
    let cfg = StoreConfig { shards: 4, min_observed_bytes: u64::MAX, ..StoreConfig::default() };
    let store = Arc::new(HopeStore::build(cfg, email_pairs(n)).unwrap());
    let serving = ServingConfig {
        workers: 4,
        queue_capacity: 4096,
        batch: 32,
        phases: 2,
        virtual_time: false,
        ..ServingConfig::default()
    };
    let server = Server::start(Arc::clone(&store), serving).expect("start");

    // Each scan anchors at a stride-spread key and runs to the top of the
    // keyspace, so most cross several shards (and many cross all four).
    let scan_at = |i: usize| {
        let lo = format!("com.gmail@user{:06}", (i as u64 * 37) % n).into_bytes();
        Request::scan(lo, b"\xff\xff".to_vec(), 96)
    };
    let check_phase = |tickets: Vec<(usize, hope_store::serving::Ticket<u64>)>, phase: &str| {
        for (i, t) in tickets {
            let lo_shard = match scan_at(i) {
                Request::Scan { ref low, .. } => store.shard_of(low),
                _ => unreachable!(),
            };
            let shards_crossed = (store.config().shards - lo_shard) as usize;
            match t.wait() {
                Response::Scan(summary) => {
                    assert!(summary.hits > 0, "{phase} scan {i} found nothing");
                    assert!(!summary.epochs.is_empty());
                    assert!(
                        summary.epochs.len() <= shards_crossed,
                        "{phase} scan {i} tore a generation: {} epochs across \
                         {shards_crossed} shards ({:?})",
                        summary.epochs.len(),
                        summary.epochs,
                    );
                }
                other => panic!("{phase} scan {i}: {other:?}"),
            }
        }
    };

    // Phase 0: quiet baseline.
    let tickets: Vec<_> =
        (0..scans).map(|i| (i, server.submit(scan_at(i), 0).expect("open"))).collect();
    server.flush();
    check_phase(tickets, "baseline");

    // Phase 1: the same scan stream racing continuous full-store swaps.
    let epochs_before = store.epochs();
    let swapping = Arc::new(AtomicBool::new(true));
    let tickets = std::thread::scope(|s| {
        let swapper = {
            let (store, swapping) = (Arc::clone(&store), Arc::clone(&swapping));
            s.spawn(move || {
                // At least two full rounds even if the scan stream
                // drains first — every shard must swap twice under load.
                let mut swaps = 0u64;
                let mut rounds = 0u32;
                while rounds < 2 || swapping.load(Ordering::Relaxed) {
                    for shard in 0..store.config().shards {
                        store.force_rebuild(shard).expect("rebuild");
                        swaps += 1;
                    }
                    rounds += 1;
                }
                swaps
            })
        };
        let tickets: Vec<_> =
            (0..scans).map(|i| (i, server.submit(scan_at(i), 1).expect("open"))).collect();
        server.flush();
        swapping.store(false, Ordering::Relaxed);
        let swaps = swapper.join().expect("swapper");
        assert!(swaps >= 2 * store.config().shards as u64, "too few swaps to stress: {swaps}");
        tickets
    });
    assert!(
        store.epochs().iter().zip(&epochs_before).all(|(a, b)| a > b),
        "every shard must have swapped during phase 1"
    );
    check_phase(tickets, "swap");

    let report = server.shutdown();
    assert_eq!(report.phases[0].scans, scans as u64);
    assert_eq!(report.phases[1].scans, scans as u64);
    assert_eq!(report.phases[0].errors + report.phases[1].errors, 0);
    // Tail-latency gate: generous (this is correctness CI, not a perf
    // rig), but a reader blocking on a rebuild would blow far past it.
    let p99_quiet = report.phases[0].latency.quantile_ns(0.99).max(1);
    let p99_swap = report.phases[1].latency.quantile_ns(0.99);
    let ratio = p99_swap as f64 / p99_quiet as f64;
    assert!(
        ratio <= 50.0,
        "p99 collapsed during the swap: {p99_quiet}ns quiet vs {p99_swap}ns swapping ({ratio:.1}x)"
    );
}
