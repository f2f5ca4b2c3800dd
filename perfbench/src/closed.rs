//! The closed-loop client: one thread issues an op, waits for it, checks
//! the answer against the uncompressed oracle, and issues the next.
//!
//! Only the store call itself is timed; building the owned key for an
//! insert and checking the answer happen outside the timed interval.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::time::Instant;

use hope_store::{HopeStore, StoreConfig, StoreError, SwapReport};

use crate::alloc;
use crate::layers::TraceCtx;
use crate::plan::{Op, Plan};

/// The uncompressed oracle: each key's current value, plus (for
/// workloads that scan) an ordered map over the present keys.
pub struct Oracle<'a> {
    keys: &'a [Vec<u8>],
    values: Vec<Option<u64>>,
    ordered: Option<BTreeMap<&'a [u8], u64>>,
}

impl<'a> Oracle<'a> {
    pub fn new(plan: &'a Plan, ordered: bool) -> Self {
        let mut values = vec![None; plan.keys.len()];
        for &(id, v) in &plan.load {
            values[id as usize] = Some(v);
        }
        let ordered = ordered.then(|| {
            plan.load.iter().map(|&(id, v)| (plan.keys[id as usize].as_slice(), v)).collect()
        });
        Oracle { keys: &plan.keys, values, ordered }
    }

    pub fn value(&self, id: u32) -> Option<u64> {
        self.values[id as usize]
    }

    /// Apply an insert; returns the value it replaces.
    pub fn insert(&mut self, id: u32, value: u64) -> Option<u64> {
        if let Some(map) = &mut self.ordered {
            map.insert(self.keys[id as usize].as_slice(), value);
        }
        self.values[id as usize].replace(value)
    }

    /// True when `hits` is exactly the first `limit` pairs of
    /// `low..=high`, in order.
    pub fn scan_matches(&self, low: &[u8], high: &[u8], limit: usize, hits: &Hits) -> bool {
        let Some(map) = &self.ordered else { return false };
        if low > high {
            return hits.len() == 0;
        }
        let mut want = map.range::<[u8], _>((Bound::Included(low), Bound::Included(high)));
        if hits.len() > limit {
            return false;
        }
        for i in 0..hits.len() {
            match want.next() {
                Some((k, v)) if *k == hits.key(i) && *v == hits.vals[i] => {}
                _ => return false,
            }
        }
        // Fewer hits than the limit only when the range ran out.
        hits.len() == limit || want.next().is_none()
    }

    /// Source bytes plus an 8-byte value for every present key.
    pub fn user_bytes(&self) -> u64 {
        self.values
            .iter()
            .zip(self.keys)
            .filter(|(v, _)| v.is_some())
            .map(|(_, k)| k.len() as u64 + 8)
            .sum()
    }
}

/// Scan hits copied out of the cursor (the consumer's work), reused.
#[derive(Default)]
pub struct Hits {
    flat: Vec<u8>,
    ends: Vec<usize>,
    vals: Vec<u64>,
}

impl Hits {
    fn clear(&mut self) {
        self.flat.clear();
        self.ends.clear();
        self.vals.clear();
    }

    #[inline]
    fn push(&mut self, key: &[u8], value: u64) {
        self.flat.extend_from_slice(key);
        self.ends.push(self.flat.len());
        self.vals.push(value);
    }

    pub fn len(&self) -> usize {
        self.vals.len()
    }

    fn key(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.flat[start..self.ends[i]]
    }
}

/// Pull every hit of one scan through a [`hope_store::RangeCursor`].
pub fn scan_into(
    store: &HopeStore,
    low: &[u8],
    high: &[u8],
    limit: usize,
    hits: &mut Hits,
) -> Result<(), StoreError> {
    hits.clear();
    let mut cur = store.cursor(low, high, limit)?;
    while let Some((k, v)) = cur.next_hit() {
        hits.push(k, *v);
    }
    match cur.error() {
        Some(e) => Err(e.clone()),
        None => Ok(()),
    }
}

/// What one episode (build, then the whole stream) measured.
#[derive(Debug, Default, Clone)]
pub struct Episode {
    pub setup_s: f64,
    /// Completed ops per second (closed loop: over the time inside store
    /// calls; open loop: the saturating step's completion rate).
    pub ops_per_s: f64,
    /// Latency of every timed op, ns.
    pub lat_ns: Vec<u32>,
    /// Time inside store calls (timed ops plus maintenance), ns.
    pub busy_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the error stream.
    pub failures: Vec<String>,
    /// Heap the store held at the end (allocator, freed on drop).
    pub heap_bytes: u64,
    /// What `stats()` reports: dictionary plus index bytes.
    pub reported_bytes: u64,
    pub dict_bytes: u64,
    pub user_bytes: u64,
    pub scans: u64,
    pub scan_hits: u64,
    pub maintain_ns: u64,
    pub swaps: Vec<SwapReport>,
}

impl Episode {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    pub fn mem_per_user_byte(&self) -> f64 {
        self.heap_bytes as f64 / self.user_bytes.max(1) as f64
    }

    /// Note the store's memory accounting at the end of the stream.
    pub fn note_memory(&mut self, store: &HopeStore, oracle: &Oracle) {
        let stats = store.stats();
        self.dict_bytes = stats.iter().map(|s| s.dict_bytes as u64).sum();
        self.reported_bytes =
            self.dict_bytes + stats.iter().map(|s| s.index_bytes as u64).sum::<u64>();
        self.user_bytes = oracle.user_bytes();
    }
}

/// Build the store from the plan's load; the build is the timed set-up.
pub fn build_store(plan: &Plan) -> Result<(HopeStore, f64), StoreError> {
    let pairs: Vec<(Vec<u8>, u64)> =
        plan.load.iter().map(|&(id, v)| (plan.keys[id as usize].clone(), v)).collect();
    let started = Instant::now();
    let store = HopeStore::build(StoreConfig::default(), pairs)?;
    Ok((store, started.elapsed().as_secs_f64()))
}

/// One closed-loop episode: build, warm up, replay the stream, account
/// memory, drop. `trace` turns on sampled spans (and the mirror trees).
pub fn run_episode(plan: &Plan, mut trace: Option<&mut TraceCtx>) -> Episode {
    let mut ep = Episode::default();
    let (store, setup_s) = match build_store(plan) {
        Ok(built) => built,
        Err(e) => {
            ep.attempted += 1;
            ep.fail(format!("build: {e}"));
            return ep;
        }
    };
    ep.setup_s = setup_s;
    let scans = plan.ops.iter().any(|op| matches!(op, Op::Scan { .. }));
    let mut oracle = Oracle::new(plan, scans);
    let mut client = Client { store: &store, plan, hits: Hits::default() };
    if let Some(t) = trace.as_deref_mut() {
        t.begin_episode(&store, plan);
    }
    for op in &plan.warmup {
        client.exec(*op, &mut oracle, &mut ep, None);
    }
    ep.lat_ns.reserve(plan.ops.len());
    for op in &plan.ops {
        if let Some(ns) = client.exec(*op, &mut oracle, &mut ep, trace.as_deref_mut()) {
            ep.lat_ns.push(ns.min(u64::from(u32::MAX)) as u32);
            ep.busy_ns += ns;
        }
    }
    ep.ops_per_s = ep.lat_ns.len() as f64 * 1e9 / ep.busy_ns.max(1) as f64;
    ep.note_memory(&store, &oracle);
    if let Some(t) = trace {
        t.end_episode(&store, plan);
    }
    drop(client);
    ep.heap_bytes = alloc::held_by(store);
    ep
}

/// The single client: its store, inputs, and scan buffer.
pub struct Client<'a> {
    pub store: &'a HopeStore,
    pub plan: &'a Plan,
    pub hits: Hits,
}

impl Client<'_> {
    /// Execute and check one op. Returns the op's latency in ns, or
    /// `None` for maintenance (timed into `busy_ns` and `maintain_ns`,
    /// but not an op).
    pub fn exec(
        &mut self,
        op: Op,
        oracle: &mut Oracle,
        ep: &mut Episode,
        trace: Option<&mut TraceCtx>,
    ) -> Option<u64> {
        let keys = &self.plan.keys;
        let trace = trace.and_then(|t| t.sample(op).then_some(t));
        ep.attempted += 1;
        match op {
            Op::Get(id) => {
                let key = &keys[id as usize];
                let (got, ns) = match trace {
                    Some(t) => t.traced_get(self.store, key),
                    None => {
                        let started = Instant::now();
                        let got = self.store.get(key);
                        (got, started.elapsed().as_nanos() as u64)
                    }
                };
                let want = oracle.value(id);
                if got.as_ref().ok() != Some(&want) {
                    ep.fail(format!("get {:?}: got {got:?}, want {want:?}", show(key)));
                }
                Some(ns)
            }
            Op::Insert(id, value) => {
                let key = keys[id as usize].clone();
                let started = Instant::now();
                let span = trace.map(|t| (t.open("store.insert"), t));
                let got = self.store.insert(key, value);
                if let Some((s, t)) = span {
                    t.close(s, 1);
                }
                let ns = started.elapsed().as_nanos() as u64;
                let want = oracle.insert(id, value);
                if got.as_ref().ok() != Some(&want) {
                    let key = &keys[id as usize];
                    ep.fail(format!("insert {:?}: got {got:?}, want {want:?}", show(key)));
                }
                Some(ns)
            }
            Op::Scan { low, high, limit } => {
                let (low, high) = (&keys[low as usize], &keys[high as usize]);
                let limit = limit as usize;
                let started = Instant::now();
                let mut span = trace.map(|t| (t.open("cursor.scan"), t));
                let got = scan_into(self.store, low, high, limit, &mut self.hits);
                let hit_count = self.hits.len() as u64;
                if let Some((s, t)) = span.as_mut() {
                    t.close(*s, hit_count);
                }
                let ns = started.elapsed().as_nanos() as u64;
                if let Some((_, t)) = span {
                    t.range_bounds(self.store, low, high);
                }
                ep.scans += 1;
                ep.scan_hits += hit_count;
                if got.is_err() || !oracle.scan_matches(low, high, limit, &self.hits) {
                    ep.fail(format!(
                        "scan {:?}..={:?} limit {limit}: {} hits, {got:?}",
                        show(low),
                        show(high),
                        hit_count
                    ));
                }
                Some(ns)
            }
            Op::Maintain => {
                let started = Instant::now();
                let span = trace.map(|t| (t.open("store.maintain"), t));
                let (swaps, errors) = self.store.maintain();
                if let Some((s, t)) = span {
                    t.close(s, swaps.len() as u64);
                }
                let ns = started.elapsed().as_nanos() as u64;
                ep.busy_ns += ns;
                ep.maintain_ns += ns;
                ep.swaps.extend(swaps);
                for (shard, e) in errors {
                    ep.fail(format!("maintain shard {shard}: {e}"));
                }
                None
            }
        }
    }
}

/// A key for an error message.
pub fn show(key: &[u8]) -> String {
    String::from_utf8_lossy(key).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Plan {
        let keys: Vec<Vec<u8>> =
            ["a", "b", "c", "d", "z"].iter().map(|k| k.as_bytes().to_vec()).collect();
        Plan {
            name: "test",
            load: vec![(0, 10), (1, 11), (2, 12), (3, 13)],
            keys,
            warmup: Vec::new(),
            ops: Vec::new(),
            spare: vec![4],
            top: 4,
        }
    }

    fn hits(pairs: &[(&str, u64)]) -> Hits {
        let mut h = Hits::default();
        for (k, v) in pairs {
            h.push(k.as_bytes(), *v);
        }
        h
    }

    #[test]
    fn scans_must_match_order_bounds_limit_and_count() {
        let plan = plan();
        let oracle = Oracle::new(&plan, true);
        let ok = |low: &str, high: &str, limit, got: &[(&str, u64)]| {
            oracle.scan_matches(low.as_bytes(), high.as_bytes(), limit, &hits(got))
        };
        assert!(ok("b", "c", 10, &[("b", 11), ("c", 12)]));
        assert!(ok("a", "z", 2, &[("a", 10), ("b", 11)]));
        assert!(ok("c", "b", 5, &[]));
        assert!(!ok("a", "z", 2, &[("a", 10)]), "short of the limit");
        assert!(!ok("a", "z", 1, &[("a", 10), ("b", 11)]), "past the limit");
        assert!(!ok("b", "c", 10, &[("c", 12), ("b", 11)]), "out of order");
        assert!(!ok("b", "c", 10, &[("b", 11), ("c", 12), ("d", 13)]), "past the high bound");
        assert!(!ok("b", "c", 10, &[("b", 11), ("c", 99)]), "wrong value");
    }

    #[test]
    fn inserts_update_values_and_user_bytes() {
        let plan = plan();
        let mut oracle = Oracle::new(&plan, true);
        assert_eq!(oracle.user_bytes(), 4 * 9);
        assert_eq!(oracle.insert(4, 7), None);
        assert_eq!(oracle.insert(4, 8), Some(7));
        assert_eq!(oracle.value(4), Some(8));
        assert_eq!(oracle.user_bytes(), 5 * 9);
        assert!(oracle.scan_matches(b"d", b"z", 5, &hits(&[("d", 13), ("z", 8)])));
    }
}
