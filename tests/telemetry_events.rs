//! Integration + property suite for the telemetry event ring
//! ([`hope_store::telemetry::EventLog`]) and the store's event emission.
//!
//! The ring is a safe-code seqlock: per-slot sequence atomics guard the
//! payload words, writers serialize per slot only when lapped, readers
//! skip slots mid-rewrite instead of returning torn events. These tests
//! attack exactly the properties that protocol claims:
//!
//! * **no tearing** — concurrent writers stamp every payload word of an
//!   event with the same writer-unique value; any snapshot, taken while
//!   the writers hammer the ring, must only ever contain internally
//!   consistent events;
//! * **oldest-first overflow** — whatever interleaving lapped the ring,
//!   the resident events are the newest `capacity` tickets, `dropped()`
//!   is exact, and `seq` is strictly increasing;
//! * **monotone epochs under live swaps** — snapshots taken *during*
//!   repeated `force_rebuild` calls see per-shard `swap_end` chains that
//!   step the epoch strictly upward with no gaps in the chain.

use std::sync::Arc;

use hope_store::serving::FaultPlan;
use hope_store::telemetry::{Event, EventKind, EventLog};
use hope_store::{HopeStore, StoreConfig, StoreError};
use proptest::prelude::*;

/// An event whose every payload field is derived from `(writer, i)` — a
/// torn mix of two writers' stores is detectable from any field pair.
fn stamped(writer: u32, i: u64) -> Event {
    let v = (u64::from(writer) << 32) | i;
    Event {
        kind: EventKind::SwapEnd,
        shard: writer,
        prev_epoch: v,
        epoch: v.wrapping_add(1),
        keys: v.wrapping_mul(3),
        replayed: v ^ 0xDEAD_BEEF,
        bytes: v.rotate_left(17),
        duration_ns: v.wrapping_add(42),
        ..Event::default()
    }
}

/// Check an event is exactly some writer's `stamped(w, i)` — not a blend.
fn is_untorn(ev: &Event) -> bool {
    let v = ev.prev_epoch;
    *ev == Event {
        seq: ev.seq,
        shard: (v >> 32) as u32,
        ..stamped((v >> 32) as u32, v & 0xFFFF_FFFF)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent writers + a concurrent reader: every event in every
    /// snapshot is internally consistent (all fields from one `record`
    /// call), and the final drain holds the newest `capacity` tickets in
    /// strictly increasing `seq` order with an exact drop count.
    #[test]
    fn concurrent_writers_never_tear_an_event(
        capacity in 1usize..32,
        writers in 2u32..5,
        per_writer in 1u64..64,
    ) {
        let log = Arc::new(EventLog::new(capacity));
        std::thread::scope(|s| {
            for w in 0..writers {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..per_writer {
                        log.record(stamped(w, i));
                    }
                });
            }
            // Snapshot while the writers are racing: torn reads would
            // show up here, well before the quiescent checks below.
            // (Plain asserts: proptest reports panics as failures, and
            // `?` is unavailable inside a thread scope.)
            let racing = log.snapshot();
            assert!(racing.iter().all(is_untorn), "torn event in a racing snapshot");
            assert!(racing.windows(2).all(|p| p[0].seq < p[1].seq));
        });

        let total = u64::from(writers) * per_writer;
        prop_assert_eq!(log.recorded(), total);
        prop_assert_eq!(log.dropped(), total.saturating_sub(capacity as u64));
        let events = log.snapshot();
        prop_assert_eq!(events.len() as u64, total.min(capacity as u64));
        prop_assert!(events.iter().all(is_untorn), "torn event after quiescence");
        // Quiescent: the resident window is exactly the newest tickets.
        let lo = total.saturating_sub(capacity as u64);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        prop_assert_eq!(seqs, (lo..total).collect::<Vec<u64>>());
    }

    /// Single-threaded overflow with arbitrary capacity/volume: the ring
    /// retains the newest `capacity` events verbatim, oldest dropped.
    #[test]
    fn overflow_drops_oldest_first(capacity in 1usize..16, n in 0u64..64) {
        let log = EventLog::new(capacity);
        for i in 0..n {
            log.record(stamped(0, i));
        }
        prop_assert_eq!(log.dropped(), n.saturating_sub(capacity as u64));
        let events = log.snapshot();
        let lo = n.saturating_sub(capacity as u64);
        prop_assert_eq!(events.len() as u64, n - lo);
        for (ev, i) in events.iter().zip(lo..n) {
            prop_assert_eq!(ev.seq, i);
            prop_assert_eq!(ev, &Event { seq: i, ..stamped(0, i) });
        }
    }

    /// Snapshots taken *during* live rebuilds: per shard, the `swap_end`
    /// events form a chain — each swap's `prev_epoch` is the previous
    /// swap's `epoch`, strictly increasing — in every mid-swap snapshot,
    /// not just the final one.
    #[test]
    fn snapshot_during_swaps_sees_monotone_epochs(rebuilds in 1usize..6) {
        let pairs = (0..400u64).map(|i| (format!("com.mail@user{i:04}").into_bytes(), i));
        let store = Arc::new(
            HopeStore::build(StoreConfig { shards: 2, ..StoreConfig::default() }, pairs)
                .expect("store build"),
        );
        let tel = store.telemetry_handle();
        std::thread::scope(|s| {
            let swapper = {
                let store = Arc::clone(&store);
                s.spawn(move || {
                    for r in 0..rebuilds {
                        store.force_rebuild(r % 2).expect("forced rebuild");
                    }
                })
            };
            while !swapper.is_finished() {
                assert!(epochs_chain(&tel.events().snapshot()), "mid-swap snapshot broke the chain");
            }
        });
        let final_events = tel.events().snapshot();
        prop_assert!(epochs_chain(&final_events));
        let swap_ends = final_events.iter().filter(|e| e.kind == EventKind::SwapEnd).count();
        prop_assert_eq!(swap_ends, rebuilds);
        prop_assert_eq!(tel.events().dropped(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Overflow under an injected-failure burst, synthetically: an
    /// interleaved stream of per-shard maintenance episodes — `SwapBegin`
    /// followed by either `RebuildFailed` (epoch unchanged) or `SwapEnd`
    /// (epoch stepped) — pushed through a small ring. However the burst
    /// laps the ring: the drop count is exact, eviction is oldest-first
    /// (the resident window is precisely the newest tickets), and the
    /// per-shard epoch chains visible through the window stay monotone.
    #[test]
    fn fault_burst_overflow_keeps_drops_exact_and_chains_monotone(
        capacity in 1usize..12,
        episodes in proptest::collection::vec((0u32..3, any::<bool>()), 1..48),
    ) {
        let log = EventLog::new(capacity);
        let mut epochs = [1u64, 2, 3]; // per-shard current epoch
        let mut next_epoch = 4u64;
        let mut expected: Vec<Event> = Vec::new();
        let record = |log: &EventLog, expected: &mut Vec<Event>, ev: Event| {
            log.record(ev);
            expected.push(Event { seq: expected.len() as u64, ..ev });
        };
        for &(shard, fails) in &episodes {
            let prev = epochs[shard as usize];
            record(&log, &mut expected, Event {
                kind: EventKind::SwapBegin,
                shard,
                prev_epoch: prev,
                epoch: prev,
                ..Event::default()
            });
            if fails {
                record(&log, &mut expected, Event {
                    kind: EventKind::RebuildFailed,
                    shard,
                    prev_epoch: prev,
                    epoch: prev,
                    ..Event::default()
                });
            } else {
                epochs[shard as usize] = next_epoch;
                record(&log, &mut expected, Event {
                    kind: EventKind::SwapEnd,
                    shard,
                    prev_epoch: prev,
                    epoch: next_epoch,
                    ..Event::default()
                });
                next_epoch += 1;
            }
        }

        let total = expected.len() as u64;
        prop_assert_eq!(log.recorded(), total);
        prop_assert_eq!(log.dropped(), total.saturating_sub(capacity as u64));
        let resident = log.snapshot();
        let lo = total.saturating_sub(capacity as u64) as usize;
        // Oldest-first eviction: the survivors are exactly the newest
        // `capacity` events, contents and tickets verbatim.
        prop_assert_eq!(&resident[..], &expected[lo..]);
        // And whatever prefix the burst evicted, the chains that remain
        // visible are still monotone.
        prop_assert!(epochs_chain(&resident), "drops broke a visible epoch chain");
    }
}

/// Overflow under an injected-failure burst, through the real store: a
/// tiny ring (`event_capacity: 8`), `rebuild_fail_every: 2`, and 20
/// alternating forced rebuilds. Every count is exact by construction:
/// 2 `GenerationBuilt` + 20 `SwapBegin` + 10 `RebuildFailed` (attempts
/// 0,2,4,6,8 per shard) + 10 `SwapEnd` + 10 `RebuildIncremental` (an
/// untouched shard retrains a byte-identical dictionary, so every heal
/// takes the splice path) = 52 recorded, so 44 drop and the resident
/// window is the tail of the last three episodes.
#[test]
fn store_fault_burst_overflows_ring_with_exact_drop_count() {
    let pairs = (0..400u64).map(|i| (format!("com.mail@user{i:04}").into_bytes(), i));
    let cfg = StoreConfig {
        shards: 2,
        event_capacity: 8,
        min_observed_bytes: u64::MAX, // explicit rebuilds only
        ..StoreConfig::default()
    };
    let store = HopeStore::build(cfg, pairs).expect("store build");
    store.inject_faults(FaultPlan { rebuild_fail_every: 2, ..FaultPlan::default() });

    let mut injected = 0u64;
    for r in 0..20usize {
        let shard = r % 2;
        // Per-shard attempts alternate fail (even) / heal (odd).
        match store.force_rebuild(shard) {
            Err(StoreError::FaultInjected { shard: s, attempt }) => {
                assert_eq!((s, attempt % 2), (shard, 0), "wrong failure at rebuild {r}");
                injected += 1;
            }
            Ok(_) => assert_eq!((r / 2) % 2, 1, "rebuild {r} should have failed"),
            Err(e) => panic!("real error at rebuild {r}: {e}"),
        }
    }
    assert_eq!(injected, 10);

    let tel = store.telemetry();
    assert_eq!(tel.counter("store.faults.injected_rebuild_failures"), Some(10));
    for s in 0..2 {
        assert_eq!(tel.counter(&format!("store.shard.{s}.rebuild_errors")), Some(5));
    }
    // 52 recorded through a ring of 8: exactly 44 dropped, oldest first.
    assert_eq!(tel.dropped_events, 44);
    assert_eq!(tel.events.len(), 8);
    let seqs: Vec<u64> = tel.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, (44..52).collect::<Vec<u64>>());
    // The resident window straddles the last three episodes: the tail of
    // a failure, then two heals (each begin + end + path attribution).
    let kinds: Vec<EventKind> = tel.events.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            EventKind::SwapBegin,
            EventKind::RebuildFailed,
            EventKind::SwapBegin,
            EventKind::SwapEnd,
            EventKind::RebuildIncremental,
            EventKind::SwapBegin,
            EventKind::SwapEnd,
            EventKind::RebuildIncremental,
        ]
    );
    // Failed rebuilds install nothing; healed ones step the epoch. The
    // chains that survive the drops are still monotone.
    for e in &tel.events {
        match e.kind {
            EventKind::RebuildFailed | EventKind::SwapBegin => assert_eq!(e.epoch, e.prev_epoch),
            EventKind::SwapEnd | EventKind::RebuildIncremental | EventKind::RebuildFull => {
                assert!(e.epoch > e.prev_epoch)
            }
            _ => {}
        }
    }
    assert!(epochs_chain(&tel.events));
}

/// Per-shard `swap_end` chain check: epochs strictly increase and each
/// link's `prev_epoch` matches its predecessor's `epoch`.
fn epochs_chain(events: &[Event]) -> bool {
    let mut last: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    events.iter().filter(|e| e.kind == EventKind::SwapEnd).all(|e| {
        let chained = match last.insert(e.shard, e.epoch) {
            Some(prev) => e.prev_epoch == prev,
            None => true,
        };
        chained && e.epoch > e.prev_epoch
    }) && events.windows(2).all(|p| p[0].seq < p[1].seq)
}

/// The snapshot a `ServingReport` embeds and a direct `telemetry()` call
/// agree on the event history (deterministic fields).
#[test]
fn store_snapshot_and_live_log_agree() {
    let pairs = (0..300u64).map(|i| (format!("com.mail@user{i:04}").into_bytes(), i));
    let store = HopeStore::build(StoreConfig::default(), pairs).expect("store build");
    store.force_rebuild(0).expect("forced rebuild");
    let snap = store.telemetry();
    let live = store.telemetry_handle().events().snapshot();
    assert_eq!(snap.events, live);
    assert_eq!(snap.events_of(EventKind::SwapEnd).count(), 1);
    assert_eq!(snap.dropped_events, 0);
}

/// The codec path counts are monotonic totals: they export as
/// Prometheus counters, a repeated refresh adds nothing, and a swap
/// (which folds the old generation's counts into the retired total)
/// never steps them back.
#[test]
fn codec_totals_export_as_monotonic_counters() {
    let pairs = (0..400u64).map(|i| (format!("com.gmail@user{i:05}").into_bytes(), i));
    let store =
        HopeStore::build(StoreConfig { shards: 2, ..StoreConfig::default() }, pairs).unwrap();
    let names = [
        "store.codec.fast_encode_keys",
        "store.codec.generic_encode_keys",
        "store.codec.automaton_fallback_takes",
        "store.codec.fast_decode_keys",
        "store.codec.walk_decode_keys",
    ];
    let encoded = |snap: &hope_store::telemetry::TelemetrySnapshot| {
        snap.counter(names[0]).unwrap() + snap.counter(names[1]).unwrap()
    };
    for k in 0..100u64 {
        store.get(format!("com.gmail@user{k:05}").as_bytes()).unwrap();
    }
    let first = store.telemetry();
    let prom = first.to_prometheus();
    for name in names {
        assert!(first.counter(name).is_some(), "{name} is not a counter");
        assert!(first.gauge(name).is_none(), "{name} is still a gauge");
        let prom_name = name.replace('.', "_");
        assert!(prom.contains(&format!("# TYPE {prom_name} counter\n")), "{prom_name} in:\n{prom}");
    }
    // Refreshing without traffic changes nothing.
    assert_eq!(encoded(&store.telemetry()), encoded(&first));
    // A swap retires a generation: its counts move to the retired total
    // (the rebuild's own encodes land on the new generation).
    store.force_rebuild(0).unwrap();
    store.force_rebuild(1).unwrap();
    let swapped = encoded(&store.telemetry());
    assert!(swapped >= encoded(&first), "swap stepped the total back: {swapped}");
    // Encoders flush path counts once per 64 keys from a per-thread
    // scratch, so a run of probes lands within one flush of its size.
    for k in 0..1_000u64 {
        store.get(format!("com.gmail@user{:05}", k % 400).as_bytes()).unwrap();
    }
    let after = encoded(&store.telemetry());
    assert!(
        after.abs_diff(swapped + 1_000) < 64,
        "1000 probes moved the total {swapped} -> {after}"
    );
}
