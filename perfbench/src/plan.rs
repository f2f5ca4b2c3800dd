//! Workload inputs, generated from the seed before anything is timed.
//!
//! Every workload becomes a [`Plan`]: a key arena, the bulk load, and a
//! fixed operation stream over key ids. One episode of a run builds a
//! store from the load and replays the whole stream, so everything a
//! single client does repeats exactly under one seed.

use hope_workloads::{
    generate, Dataset, MixedWorkload, StoreOp, TrafficSpec, WorkloadSpec, YcsbWorkload,
};

/// One client operation over key ids of [`Plan::keys`].
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Point get; the oracle knows whether the key is present.
    Get(u32),
    /// Insert of a key with a value.
    Insert(u32, u64),
    /// Inclusive range scan `low..=high`, at most `limit` hits.
    Scan { low: u32, high: u32, limit: u32 },
    /// One inline `HopeStore::maintain` pass.
    Maintain,
}

/// Everything one workload needs, generated from the seed.
#[derive(Debug)]
pub struct Plan {
    pub name: &'static str,
    /// Key arena; ops refer to keys by index.
    pub keys: Vec<Vec<u8>>,
    /// Bulk load: key id and value.
    pub load: Vec<(u32, u64)>,
    /// Checked but untimed ops run before the timed stream (read-only
    /// workloads only, so the timed stream sees warm caches).
    pub warmup: Vec<Op>,
    /// The timed stream.
    pub ops: Vec<Op>,
    /// Fresh keys that neither the load nor the stream uses (for the
    /// traced run's insert probe on a stream without inserts).
    pub spare: Vec<u32>,
    /// Id of a key above every generated key (open-ended scans).
    pub top: u32,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["ycsb-c-uniform-email", "ycsb-e-url", "drift-email"];

/// Upper bound above every generated key (scans that run "to the end").
const TOP: &[u8] = b"\xff\xff\xff\xff";

/// Fresh keys generated beside the insert-free `ycsb-c-uniform-email` load, for
/// the traced run's insert probe.
const SPARE_KEYS: usize = 5_000;

impl Plan {
    /// A uniformly drawn load key.
    pub fn pick(&self, state: &mut u64) -> u32 {
        self.load[(splitmix64(state) % self.load.len() as u64) as usize].0
    }
}

pub fn build(name: &str, seed: u64) -> Option<Plan> {
    Some(match name {
        "ycsb-c-uniform-email" => ycsb_c(seed),
        "ycsb-e-url" => ycsb_e(seed),
        "drift-email" => drift(seed),
        _ => return None,
    })
}

/// 200k Email keys, YCSB-C with a uniform request distribution: 100%
/// gets of load keys drawn uniformly, one client.
///
/// Uniform, not YCSB's default Zipf(0.99): under Zipf the share of gets
/// served from the CPU cache depends on how much of the shared last-level
/// cache the host leaves the run, so throughput and the median (which sits
/// between the cached and the uncached gets) moved with the host by up to
/// twice as much as under uniform gets.
fn ycsb_c(seed: u64) -> Plan {
    const KEYS: usize = 200_000;
    const OPS: usize = 300_000;
    const WARMUP: usize = 50_000;
    let mut keys = generate(Dataset::Email, KEYS + SPARE_KEYS, seed);
    let top = keys.len() as u32;
    keys.push(TOP.to_vec());
    let mut plan = Plan {
        name: "ycsb-c-uniform-email",
        load: (0..KEYS as u32).map(|i| (i, u64::from(i))).collect(),
        spare: (KEYS as u32..top).collect(),
        keys,
        warmup: Vec::new(),
        ops: Vec::new(),
        top,
    };
    let mut state = seed ^ 0x5EED_C0DE;
    let mut gets = (0..WARMUP + OPS).map(|_| Op::Get(plan.pick(&mut state))).collect::<Vec<_>>();
    plan.ops = gets.split_off(WARMUP);
    plan.warmup = gets;
    plan
}

/// ~100k URL keys, YCSB-E: 95% scans of 1..=100 hits from a Zipf start
/// key, 5% inserts of fresh keys, one client.
fn ycsb_e(seed: u64) -> Plan {
    const KEYS: usize = 100_000;
    const OPS: usize = 60_000;
    let mut keys = generate(Dataset::Url, KEYS, seed);
    let top = keys.len() as u32;
    keys.push(TOP.to_vec());
    let w = YcsbWorkload::generate(WorkloadSpec::E, KEYS, OPS, seed);
    let ops = w
        .ops
        .iter()
        .map(|op| match *op {
            hope_workloads::Op::Scan(start, len) => {
                Op::Scan { low: start as u32, high: top, limit: len as u32 }
            }
            hope_workloads::Op::Insert(i) => Op::Insert(i as u32, i as u64),
            hope_workloads::Op::Read(i) => Op::Get(i as u32),
        })
        .collect();
    Plan {
        name: "ycsb-e-url",
        load: (0..w.load_count as u32).map(|i| (i, u64::from(i))).collect(),
        spare: Vec::new(),
        keys,
        warmup: Vec::new(),
        ops,
        top,
    }
}

/// Email-A → Email-B drift: 50% uniform gets, 45% inserts, 5% short
/// scans over a growing store, with `maintain()` inline every
/// `MAINTAIN_EVERY` ops.
fn drift(seed: u64) -> Plan {
    const INITIAL: usize = 100_000;
    const OPS: usize = 200_000;
    const MAINTAIN_EVERY: usize = 10_000;
    let spec = TrafficSpec { read_pct: 50, insert_pct: 45, scan_limit: 50, shift_after: 0.5 };
    let w = MixedWorkload::generate(INITIAL, OPS, spec, seed);
    let mut arena = Arena::default();
    let load = w.initial.iter().enumerate().map(|(i, k)| (arena.id(k), i as u64)).collect();
    let mut ops = Vec::with_capacity(OPS + OPS / MAINTAIN_EVERY);
    for (i, op) in w.ops.iter().enumerate() {
        if i > 0 && i % MAINTAIN_EVERY == 0 {
            ops.push(Op::Maintain);
        }
        ops.push(match op {
            StoreOp::Get(k) => Op::Get(arena.id(k)),
            StoreOp::Insert(k, v) => Op::Insert(arena.id(k), *v),
            StoreOp::Scan(lo, hi, limit) => {
                Op::Scan { low: arena.id(lo), high: arena.id(hi), limit: *limit as u32 }
            }
        });
    }
    ops.push(Op::Maintain);
    let top = arena.id(TOP);
    Plan {
        name: "drift-email",
        keys: arena.keys,
        load,
        warmup: Vec::new(),
        ops,
        spare: Vec::new(),
        top,
    }
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Interns materialized keys into ids.
#[derive(Default)]
struct Arena {
    keys: Vec<Vec<u8>>,
    ids: std::collections::HashMap<Vec<u8>, u32>,
}

impl Arena {
    fn id(&mut self, key: &[u8]) -> u32 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.keys.len() as u32;
        self.keys.push(key.to_vec());
        self.ids.insert(key.to_vec(), id);
        id
    }
}
