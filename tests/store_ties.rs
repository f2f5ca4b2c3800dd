//! Padded-byte ties, deterministically: keys whose encodings share their
//! padded bytes but differ in bit length (DESIGN.md "Encoded-key
//! comparison") must read, scan, snapshot and rebuild exactly like a
//! `BTreeMap`, on every built-in backend.
//!
//! The keys are a stem byte followed by runs of `\0`. The load is heavy
//! in `\0`, so the Single-Char dictionary trained on it codes `\0` in a
//! single zero bit: appending one more `\0` adds a bit but, until the
//! next byte boundary, no padded byte. Every tie the test relies on is
//! asserted against the store's own dictionary before it is used.

use std::collections::BTreeMap;

use hope_store::prelude::*;

const STEMS: std::ops::Range<u8> = b'a'..b'q';
/// Longest `\0` run a candidate key carries.
const MAX_RUN: usize = 10;

fn key(stem: u8, run: usize) -> Vec<u8> {
    let mut k = vec![stem];
    k.resize(1 + run, 0);
    k
}

/// Every key the test ever touches, in source order.
fn candidates() -> Vec<Vec<u8>> {
    STEMS.flat_map(|s| (0..=MAX_RUN).map(move |r| key(s, r))).collect()
}

fn cfg(backend: Backend, incremental_min_reuse: f64) -> StoreConfig {
    StoreConfig {
        shards: 1,
        scheme: Scheme::SingleChar,
        backend,
        min_observed_bytes: u64::MAX, // only explicit swaps
        incremental_min_reuse,
        ..StoreConfig::default()
    }
}

/// Odd `\0` runs are loaded; even runs are inserted later, landing in
/// front of, between, and behind the loaded members of a tie.
fn load() -> Vec<(Vec<u8>, u64)> {
    STEMS
        .flat_map(|s| {
            (1..=MAX_RUN).step_by(2).map(move |r| (key(s, r), u64::from(s) * 100 + r as u64))
        })
        .collect()
}

/// Group the candidates by padded encoding under the shard's current
/// dictionary, asserting that each group really is a tie: equal bytes,
/// pairwise distinct bit lengths. Returns the groups with ≥ 2 members.
fn tie_groups(store: &HopeStore) -> Vec<Vec<Vec<u8>>> {
    let generation = store.generation(0).unwrap();
    let hope = generation.hope();
    let mut by_bytes: BTreeMap<Vec<u8>, Vec<(usize, Vec<u8>)>> = BTreeMap::new();
    for k in candidates() {
        let e = hope.encode(&k);
        by_bytes.entry(e.as_bytes().to_vec()).or_default().push((e.bit_len(), k));
    }
    let mut groups = Vec::new();
    for members in by_bytes.into_values().filter(|m| m.len() >= 2) {
        let mut bits: Vec<usize> = members.iter().map(|(b, _)| *b).collect();
        bits.sort_unstable();
        bits.dedup();
        assert_eq!(bits.len(), members.len(), "a tie must differ in bit length");
        groups.push(members.into_iter().map(|(_, k)| k).collect());
    }
    groups
}

fn scan(store: &HopeStore, low: &[u8], high: &[u8], limit: usize) -> Vec<(Vec<u8>, u64)> {
    let mut out = Vec::new();
    store.range_with(low, high, limit, |k, v| out.push((k.to_vec(), *v))).unwrap();
    out
}

fn snap_scan(snap: &Snapshot<u64>, low: &[u8], high: &[u8], limit: usize) -> Vec<(Vec<u8>, u64)> {
    let mut out = Vec::new();
    snap.range_with(low, high, limit, |k, v| out.push((k.to_vec(), *v))).unwrap();
    out
}

fn want(
    model: &BTreeMap<Vec<u8>, u64>,
    low: &[u8],
    high: &[u8],
    limit: usize,
) -> Vec<(Vec<u8>, u64)> {
    model.range(low.to_vec()..=high.to_vec()).take(limit).map(|(k, v)| (k.clone(), *v)).collect()
}

/// Scan bounds that fall inside ties: both ends of every tie group,
/// plus bounds one `\0` past a group member.
fn tie_bounds(groups: &[Vec<Vec<u8>>]) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    for g in groups {
        let (first, last) = (&g[0], &g[g.len() - 1]);
        out.push((first.clone(), last.clone()));
        out.push((g[1].clone(), last.clone()));
        out.push((first.clone(), g[g.len() - 2].clone()));
        out.push((g[g.len() / 2].clone(), g[g.len() / 2].clone()));
        let mut past = g[0].clone();
        past.push(0);
        out.push((past, vec![g[0][0], 0xff]));
    }
    out
}

/// Every point answer and tie-bounded scan of `store` equals `model`.
fn assert_matches(
    store: &HopeStore,
    model: &BTreeMap<Vec<u8>, u64>,
    groups: &[Vec<Vec<u8>>],
    what: &str,
) {
    assert_eq!(store.len(), model.len(), "{what}: len");
    for k in candidates() {
        assert_eq!(store.get(&k).unwrap(), model.get(&k).copied(), "{what}: get {k:?}");
    }
    for (low, high) in tie_bounds(groups) {
        for limit in [1, 2, 3, usize::MAX] {
            assert_eq!(
                scan(store, &low, &high, limit),
                want(model, &low, &high, limit),
                "{what}: scan {low:?}..={high:?} limit {limit}"
            );
        }
    }
    assert_eq!(
        scan(store, b"", b"\xff", usize::MAX),
        want(model, b"", b"\xff", usize::MAX),
        "{what}: full scan"
    );
}

/// Where in its tie chain an inserted key lands: before, between, or
/// after the live members sharing its padded bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Place {
    Front,
    Middle,
    End,
}

fn place(k: &[u8], group: &[Vec<u8>], model: &BTreeMap<Vec<u8>, u64>) -> Option<Place> {
    let live: Vec<&Vec<u8>> = group.iter().filter(|g| model.contains_key(*g)).collect();
    let (first, last) = (live.first()?, live.last()?);
    Some(if k < first.as_slice() {
        Place::Front
    } else if k > last.as_slice() {
        Place::End
    } else {
        Place::Middle
    })
}

/// A store after [`churn_ties`], with its models.
struct Churned {
    store: HopeStore,
    model: BTreeMap<Vec<u8>, u64>,
    groups: Vec<Vec<Vec<u8>>>,
    /// Taken right after the load; `frozen` is its model.
    snap: Snapshot<u64>,
    frozen: BTreeMap<Vec<u8>, u64>,
}

/// Load, verify the ties, then insert into and update inside tie chains
/// while a snapshot pins the loaded state.
fn churn_ties(cfg: StoreConfig) -> Churned {
    let store = HopeStore::build(cfg, load()).unwrap();
    let mut model: BTreeMap<Vec<u8>, u64> = load().into_iter().collect();
    let groups = tie_groups(&store);
    // The load itself must contain ties of three or more keys.
    let loaded_ties =
        groups.iter().filter(|g| g.iter().filter(|k| model.contains_key(*k)).count() >= 3).count();
    assert!(loaded_ties >= STEMS.len(), "only {loaded_ties} loaded ties of 3+ keys");
    assert_matches(&store, &model, &groups, "after load");

    let snap = store.snapshot();
    let frozen = model.clone();

    // Insert the even runs into their ties, noting where each landed.
    let mut places = std::collections::HashSet::new();
    for k in candidates().into_iter().filter(|k| (k.len() - 1) % 2 == 0) {
        let group = groups.iter().find(|g| g.contains(&k));
        if let Some(p) = group.and_then(|g| place(&k, g, &model)) {
            places.insert(p);
        }
        let v = 7_000 + k.len() as u64 * 10 + u64::from(k[0]);
        assert_eq!(store.insert(k.clone(), v).unwrap(), model.insert(k, v));
    }
    assert!(places.contains(&Place::Front), "no insert at a tie chain's front: {places:?}");
    assert!(places.contains(&Place::Middle), "no insert inside a tie chain: {places:?}");
    assert!(places.contains(&Place::End), "no insert at a tie chain's end: {places:?}");

    // Update every member of every tie of 3+ keys: head, interior and
    // tail entries are each superseded in their chain.
    for g in groups.iter().filter(|g| g.len() >= 3) {
        for k in g {
            let v = 9_000 + k.len() as u64;
            assert_eq!(
                store.insert(k.clone(), v).unwrap(),
                model.insert(k.clone(), v),
                "update {k:?}"
            );
        }
    }
    assert_matches(&store, &model, &groups, "after churn");
    assert_snapshot(&snap, &frozen, &groups);
    Churned { store, model, groups, snap, frozen }
}

/// The snapshot still answers with the state at its capture.
fn assert_snapshot(snap: &Snapshot<u64>, frozen: &BTreeMap<Vec<u8>, u64>, groups: &[Vec<Vec<u8>>]) {
    assert_eq!(snap.len(), frozen.len());
    for k in candidates() {
        assert_eq!(snap.get(&k).unwrap(), frozen.get(&k).copied(), "snapshot get {k:?}");
    }
    for (low, high) in tie_bounds(groups) {
        for limit in [1, 3, usize::MAX] {
            assert_eq!(
                snap_scan(snap, &low, &high, limit),
                want(frozen, &low, &high, limit),
                "snapshot scan {low:?}..={high:?}"
            );
        }
    }
}

const BACKENDS: [Backend; 5] =
    [Backend::BTree, Backend::PrefixBTree, Backend::Art, Backend::Hot, Backend::BTreeMap];

#[test]
fn ties_survive_churn_snapshots_and_incremental_rebuild() {
    for backend in BACKENDS {
        let Churned { store, model, groups, snap, frozen } = churn_ties(cfg(backend, 0.0));
        let report = store.force_rebuild(0).unwrap();
        assert!(report.incremental, "{backend:?}: the same dictionary must merge");
        assert!(report.reused_bytes > 0, "{backend:?}: {report:?}");
        let after = tie_groups(&store);
        assert!(after.iter().any(|g| g.len() >= 3), "{backend:?}: no tie of 3+ keys after merging");
        assert_matches(&store, &model, &after, "after incremental rebuild");
        assert_snapshot(&snap, &frozen, &groups);
    }
}

#[test]
fn ties_survive_a_full_rebuild() {
    for backend in BACKENDS {
        let Churned { store, mut model, snap, frozen, .. } = churn_ties(cfg(backend, 1.0));
        // Traffic with new symbols retrains codes, so a merge cannot reuse
        // every byte and the rebuild re-encodes from scratch.
        for i in 0..64u64 {
            let k = format!("zz{i:02}yy").into_bytes();
            assert_eq!(store.insert(k.clone(), i).unwrap(), model.insert(k, i));
        }
        let report = store.force_rebuild(0).unwrap();
        assert!(!report.incremental, "{backend:?}: expected the full path, got {report:?}");
        let groups = tie_groups(&store);
        assert!(
            groups.iter().any(|g| g.len() >= 3),
            "{backend:?}: no tie of 3+ keys after retraining"
        );
        assert_matches(&store, &model, &groups, "after full rebuild");
        assert_snapshot(&snap, &frozen, &groups);
    }
}

/// Every request of a serving run over the tie keys, with its phase:
/// gets of every candidate (present, absent and tied), scans and
/// snapshot scans bounded inside ties, inserts and updates landing in
/// tie chains, and a key the codec rejects in each phase.
fn serving_requests(groups: &[Vec<Vec<u8>>]) -> Vec<(Request, usize)> {
    let giant = vec![b'x'; hope::MAX_KEY_BYTES + 1];
    let mut reqs: Vec<(Request, usize)> =
        candidates().into_iter().map(|k| (Request::get(k), 0)).collect();
    for (low, high) in tie_bounds(groups) {
        reqs.push((Request::scan(low.clone(), high.clone(), 3), 0));
        reqs.push((Request::snapshot_scan(low, high, usize::MAX), 0));
    }
    reqs.push((Request::get(giant.clone()), 0));
    for (i, k) in candidates().into_iter().enumerate() {
        reqs.push((Request::insert(k, 5_000 + i as u64), 1));
    }
    reqs.push((Request::insert(giant, 1), 1));
    reqs.extend(candidates().into_iter().map(|k| (Request::get(k), 1)));
    reqs.push((Request::scan(Vec::new(), vec![0xff], usize::MAX), 1));
    reqs
}

/// What a virtual-time serving run did: every ticket's response, the
/// per-phase `[ops, gets, inserts, scans, scan_hits, errors]`, and how
/// many requests recorded trace spans.
type ServingRun = (Vec<Response>, Vec<[u64; 6]>, u64);

fn serve_ties(backend: Backend, trace_sample_every: u32) -> ServingRun {
    let store = std::sync::Arc::new(HopeStore::build(cfg(backend, 0.0), load()).unwrap());
    let groups = tie_groups(&store);
    let serving = ServingConfig {
        workers: 1,
        phases: 2,
        virtual_time: true,
        trace_sample_every,
        ..ServingConfig::default()
    };
    let server = Server::start(store, serving).unwrap();
    let tickets: Vec<Ticket> =
        serving_requests(&groups).into_iter().map(|(r, p)| server.submit(r, p).unwrap()).collect();
    let responses = tickets.into_iter().map(Ticket::wait).collect();
    let report = server.shutdown();
    let counts = report
        .phases
        .iter()
        .map(|p| [p.ops, p.gets, p.inserts, p.scans, p.scan_hits, p.errors])
        .collect();
    let traced = report.telemetry.histogram("serving.trace.encode").map_or(0, |h| h.count);
    (responses, counts, traced)
}

/// The traced paths are the untraced ones timed by a span clock: same
/// answers for present, absent and tied keys, same previous values and
/// resulting store on insert, no decode span on point ops, and a serving
/// run that traces every request completes exactly like one that traces
/// none.
#[test]
fn traced_and_untraced_paths_agree_on_ties() {
    for backend in BACKENDS {
        let plain = HopeStore::build(cfg(backend, 0.0), load()).unwrap();
        let traced = HopeStore::build(cfg(backend, 0.0), load()).unwrap();
        let groups = tie_groups(&plain);
        assert!(groups.iter().any(|g| g.len() >= 3), "{backend:?}: no tie of 3+ keys");

        let giant = vec![b'x'; hope::MAX_KEY_BYTES + 1];
        assert!(traced.get_traced(&giant).is_err());
        assert!(traced.insert_traced(giant, 1).is_err());
        for k in candidates() {
            let (v, spans) = traced.get_traced(&k).unwrap();
            assert_eq!(v, plain.get(&k).unwrap(), "{backend:?}: get {k:?}");
            assert_eq!(spans.decode_ns, 0, "{backend:?}: get {k:?} {spans:?}");
        }
        // Inserts land in front of, inside and behind the loaded tie
        // members; a second round updates every candidate.
        for round in 0..2u64 {
            for k in candidates() {
                let v = round * 1_000 + k.len() as u64;
                let (old, spans) = traced.insert_traced(k.clone(), v).unwrap();
                assert_eq!(old, plain.insert(k.clone(), v).unwrap(), "{backend:?}: insert {k:?}");
                assert_eq!(spans.decode_ns, 0, "{backend:?}: insert {k:?} {spans:?}");
            }
        }
        assert_eq!(traced.len(), plain.len(), "{backend:?}");
        for k in candidates() {
            assert_eq!(traced.get(&k).unwrap(), plain.get(&k).unwrap(), "{backend:?}: {k:?}");
        }
        assert_eq!(scan(&traced, b"", b"\xff", usize::MAX), scan(&plain, b"", b"\xff", usize::MAX));
        // Drift accounting saw the same traffic.
        assert_eq!(traced.stats()[0].observed_cpr, plain.stats()[0].observed_cpr, "{backend:?}");

        let (responses, counts, spans) = serve_ties(backend, 1);
        let (plain_responses, plain_counts, plain_spans) = serve_ties(backend, 0);
        assert_eq!(counts, plain_counts, "{backend:?}: per-phase counts");
        assert_eq!(responses, plain_responses, "{backend:?}: ticket responses");
        assert_eq!(plain_spans, 0, "{backend:?}: sampling off traces nothing");
        // Every request is traced except the errors, which record no spans.
        let ops: u64 = counts.iter().map(|c| c[0]).sum();
        let errors: u64 = counts.iter().map(|c| c[5]).sum();
        assert_eq!(errors, 2, "{backend:?}: the two oversized keys");
        assert_eq!(spans, ops - errors, "{backend:?}");
    }
}
