//! The traced run: spans around the benchmark's own calls into each
//! layer's public functions, the uncompressed mirror trees, and probes
//! for the layers a workload's own stream does not reach.
//!
//! A sampled get runs the store's read path one public call at a time,
//! under one request id: `store.shard_of` → `store.generation` →
//! `generation.get`, all children of a `store.get` root.
//!
//! The mirrors are the paper's comparison: a plain B+tree per shard over
//! the load encoded by that shard's build-time dictionary, and one over
//! the raw source keys, each loaded in sorted order like the store's
//! index. At the end of a traced episode every get key of
//! the stream is replayed, in order, against each mirror in turn (so each
//! sees the same access pattern, warm, as the store did); every
//! [`SAMPLE_EVERY`]th replayed key records a `mirror.get` request with
//! children `encoder.encode_to` and `btree.get`, and a `btree.raw_get`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hope::{DecodeScratch, EncodeScratch, HopeBuilder};
use hope_btree::BPlusTree;
use hope_store::{Generation, HopeStore, StoreConfig, StoreError};

use crate::alloc;
use crate::closed::{Client, Episode, Oracle};
use crate::plan::{Op, Plan};
use crate::trace::{Tracer, ROOT};

/// One op in this many runs on the traced path.
const SAMPLE_EVERY: u64 = 64;

/// Mirror B+trees over one episode's load.
struct Mirrors {
    /// The store's build-time generations (their dictionaries encode
    /// the mirror probes, even after a swap).
    gens: Vec<Arc<Generation>>,
    /// One tree per shard over the keys encoded by that shard's
    /// build-time dictionary.
    encoded: Vec<BPlusTree<u64>>,
    raw: BPlusTree<u64>,
}

/// What the mirrors and the build-time encodings measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct MirrorStats {
    pub keys: u64,
    pub encoded_bytes: u64,
    pub raw_bytes: u64,
    pub encoded_height: usize,
    pub raw_height: usize,
    /// Source bytes and encoded bits of the load (compression rate).
    pub source_bytes: u64,
    pub encoded_bits: u64,
}

/// Span recorder plus the state sampled ops need.
pub struct TraceCtx {
    pub tracer: Tracer,
    every: u64,
    tick: u64,
    req: u32,
    scratch: EncodeScratch,
    mirrors: Option<Mirrors>,
    /// Every get key of the traced episode, for the mirror replay.
    gets: Vec<u32>,
    pub mirror_stats: MirrorStats,
}

impl TraceCtx {
    pub fn new() -> Self {
        TraceCtx {
            tracer: Tracer::new(),
            every: SAMPLE_EVERY,
            tick: 0,
            req: 0,
            scratch: EncodeScratch::new(),
            mirrors: None,
            gets: Vec::new(),
            mirror_stats: MirrorStats::default(),
        }
    }

    /// Whether `op` runs traced: maintenance always, the rest sampled.
    pub fn sample(&mut self, op: Op) -> bool {
        match op {
            Op::Maintain => return true,
            Op::Get(id) => self.gets.push(id),
            _ => {}
        }
        self.tick += 1;
        self.tick.is_multiple_of(self.every)
    }

    /// Open a root span of a new request.
    pub fn open(&mut self, name: &'static str) -> u32 {
        self.req = self.tracer.request();
        self.tracer.open(self.req, name, ROOT)
    }

    pub fn close(&mut self, span: u32, count: u64) {
        self.tracer.close(span, count);
    }

    /// Build the mirror trees over `plan`'s load, encoded with `store`'s
    /// build-time dictionaries (untimed; before the stream starts).
    pub fn begin_episode(&mut self, store: &HopeStore, plan: &Plan) {
        let gens: Vec<Arc<Generation>> =
            (0..store.config().shards).filter_map(|s| store.generation(s).ok()).collect();
        // Sorted, as the store bulk-loads its index: the trees then have
        // the store index's fill and height.
        let mut load: Vec<(&[u8], u64)> =
            plan.load.iter().map(|&(id, v)| (plan.keys[id as usize].as_slice(), v)).collect();
        load.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut stats = MirrorStats::default();
        let before = alloc::live_bytes();
        let mut encoded: Vec<BPlusTree<u64>> = gens.iter().map(|_| BPlusTree::plain()).collect();
        for &(key, v) in &load {
            let shard = store.shard_of(key);
            if let Ok(enc) = gens[shard].hope().encode_to(key, &mut self.scratch) {
                encoded[shard].insert(enc, v);
                stats.encoded_bits += self.scratch.bit_len() as u64;
                stats.source_bytes += key.len() as u64;
            }
        }
        let mid = alloc::live_bytes();
        let mut raw = BPlusTree::plain();
        for &(key, v) in &load {
            raw.insert(key, v);
        }
        stats.keys = load.len() as u64;
        stats.encoded_bytes = (mid - before).max(0) as u64;
        stats.raw_bytes = (alloc::live_bytes() - mid).max(0) as u64;
        stats.encoded_height = encoded.iter().map(BPlusTree::height).max().unwrap_or(0);
        stats.raw_height = raw.height();
        self.mirror_stats = stats;
        self.mirrors = Some(Mirrors { gens, encoded, raw });
        self.gets.clear();
    }

    /// Replay the episode's get keys against the mirrors, then drop them
    /// (and the build-time generations they pin). Each key probes the
    /// tree of the shard `store` routes it to (split points never move).
    pub fn end_episode(&mut self, store: &HopeStore, plan: &Plan) {
        let Some(m) = self.mirrors.take() else { return };
        let gets = std::mem::take(&mut self.gets);
        let t = &mut self.tracer;
        for (i, &id) in gets.iter().enumerate() {
            let key = &plan.keys[id as usize];
            if (i as u64).is_multiple_of(self.every) {
                let req = t.request();
                let s = t.open(req, "btree.raw_get", ROOT);
                black_box(m.raw.get_ref(key));
                t.close(s, 1);
            } else {
                black_box(m.raw.get_ref(key));
            }
        }
        for (i, &id) in gets.iter().enumerate() {
            let key = &plan.keys[id as usize];
            let shard = store.shard_of(key);
            let (Some(g), Some(tree)) = (m.gens.get(shard), m.encoded.get(shard)) else { continue };
            if (i as u64).is_multiple_of(self.every) {
                let req = t.request();
                let root = t.open(req, "mirror.get", ROOT);
                let s = t.open(req, "encoder.encode_to", root);
                let enc = g.hope().encode_to(key, &mut self.scratch);
                t.close(s, 1);
                if let Ok(enc) = enc {
                    let s = t.open(req, "btree.get", root);
                    black_box(tree.get_ref(enc));
                    t.close(s, 1);
                }
                t.close(root, 1);
            } else if let Ok(enc) = g.hope().encode_to(key, &mut self.scratch) {
                black_box(tree.get_ref(enc));
            }
        }
    }

    /// A sampled get, one public call per span. Returns the answer and
    /// the `store.get` root's duration (the op's latency).
    pub fn traced_get(
        &mut self,
        store: &HopeStore,
        key: &[u8],
    ) -> (Result<Option<u64>, StoreError>, u64) {
        let t = &mut self.tracer;
        let req = t.request();
        let root = t.open(req, "store.get", ROOT);
        let s = t.open(req, "store.shard_of", root);
        let shard = store.shard_of(key);
        t.close(s, 1);
        let s = t.open(req, "store.generation", root);
        let generation = store.generation(shard);
        t.close(s, 1);
        let got = match &generation {
            Ok(g) => {
                let s = t.open(req, "generation.get", root);
                let got = g.get(key);
                t.close(s, 1);
                got
            }
            Err(e) => Err(e.clone()),
        };
        let ns = t.close(root, 1).ns();
        (got, ns)
    }

    /// Sibling of a traced scan: encode its bounds with the dictionary
    /// of the shard the scan starts in.
    pub fn range_bounds(&mut self, store: &HopeStore, low: &[u8], high: &[u8]) {
        let Ok(g) = store.generation(store.shard_of(low)) else { return };
        let s = self.tracer.open(self.req, "encoder.range_bounds", ROOT);
        let _ = black_box(g.hope().encode_range_bounds_to(low, high, &mut self.scratch));
        self.tracer.close(s, 1);
    }
}

/// Which op kinds a stream contains.
fn has(ops: &[Op], f: fn(&Op) -> bool) -> bool {
    ops.iter().any(f)
}

/// Traced probes, on a fresh store built from the load, of every op kind
/// `plan`'s own stream lacks, so each layer is measured on every
/// workload. All answers are checked like the stream's.
pub fn probe_missing(plan: &Plan, seed: u64, ctx: &mut TraceCtx, ep: &mut Episode) {
    let Ok((store, _)) = crate::closed::build_store(plan) else {
        ep.fail("probe store build failed".into());
        return;
    };
    let mut state = seed ^ 0x9B0B_E5EE;
    let mut probe = Vec::new();
    if !has(&plan.ops, |o| matches!(o, Op::Get(_))) {
        probe.extend((0..20_000).map(|_| Op::Get(plan.pick(&mut state))));
    }
    if !has(&plan.ops, |o| matches!(o, Op::Scan { .. })) {
        probe.extend((0..5_000).map(|_| Op::Scan {
            low: plan.pick(&mut state),
            high: plan.top,
            limit: 50,
        }));
    }
    if !has(&plan.ops, |o| matches!(o, Op::Insert(..))) {
        probe.extend(plan.spare.iter().map(|&id| Op::Insert(id, u64::from(id))));
    }
    if !has(&plan.ops, |o| matches!(o, Op::Maintain)) {
        probe.push(Op::Maintain);
    }
    let mut oracle = Oracle::new(plan, true);
    let mut client = Client { store: &store, plan, hits: Default::default() };
    ctx.begin_episode(&store, plan);
    let every = std::mem::replace(&mut ctx.every, 1);
    for op in probe {
        client.exec(op, &mut oracle, ep, Some(ctx));
    }
    ctx.every = every;
    ctx.end_episode(&store, plan);
}

/// Dictionary-build and decode probes on one shard's worth of the load.
#[derive(Debug, Default)]
pub struct CodecProbe {
    pub build_s: f64,
    pub symbol_select_s: f64,
    pub code_assign_s: f64,
    pub dictionary_build_s: f64,
    pub decode_ns: f64,
    pub table_bytes: u64,
}

/// Time `HopeBuilder::build_from_sample` the way the store builds shard
/// 0 (an evenly spaced sample of the first `1/shards` of the sorted
/// load), then `Hope::decode_to` over that shard's keys with the
/// dictionary it built. Every decode is checked against its source key;
/// a mismatch counts as a failure.
pub fn codec_probe(plan: &Plan, ep: &mut Episode) -> CodecProbe {
    const BUILDS: usize = 5;
    let mut keys: Vec<&[u8]> =
        plan.load.iter().map(|&(id, _)| plan.keys[id as usize].as_slice()).collect();
    keys.sort_unstable();
    let cfg = StoreConfig::default();
    keys.truncate(keys.len() / cfg.shards.max(1));
    let step = (keys.len() / cfg.reservoir_capacity.max(1)).max(1);
    let sample: Vec<Vec<u8>> = keys.iter().step_by(step).map(|k| k.to_vec()).collect();
    let builder = HopeBuilder::new(cfg.scheme).dictionary_entries(cfg.dict_entries);
    let (mut total, mut select, mut assign, mut dict) = (vec![], vec![], vec![], vec![]);
    let mut hope = None;
    for _ in 0..BUILDS {
        let input = sample.clone();
        let started = Instant::now();
        let built = builder.clone().build_from_sample(input);
        total.push(started.elapsed().as_secs_f64());
        match built {
            Ok(h) => {
                let t = h.timings();
                select.push(t.symbol_select.as_secs_f64());
                assign.push(t.code_assign.as_secs_f64());
                dict.push(t.dictionary_build.as_secs_f64());
                hope = Some(h);
            }
            Err(e) => ep.fail(format!("dictionary build: {e}")),
        }
    }
    let mut out = CodecProbe {
        build_s: crate::stats::median(&total),
        symbol_select_s: crate::stats::median(&select),
        code_assign_s: crate::stats::median(&assign),
        dictionary_build_s: crate::stats::median(&dict),
        ..CodecProbe::default()
    };
    let Some(hope) = hope else { return out };
    let mut scratch = EncodeScratch::new();
    let encoded: Vec<(&[u8], Vec<u8>, usize)> = keys
        .iter()
        .take(50_000)
        .filter_map(|&k| {
            let enc = hope.encode_to(k, &mut scratch).ok()?.to_vec();
            Some((k, enc, scratch.bit_len()))
        })
        .collect();
    out.table_bytes = hope.shared_fast_decoder().memory_bytes() as u64;
    let mut ds = DecodeScratch::new();
    let started = Instant::now();
    for (_, enc, bits) in &encoded {
        let _ = black_box(hope.decode_to(enc, *bits, &mut ds));
    }
    out.decode_ns = started.elapsed().as_nanos() as f64 / encoded.len().max(1) as f64;
    for &(key, ref enc, bits) in &encoded {
        ep.attempted += 1;
        if hope.decode_to(enc, bits, &mut ds).ok() != Some(key) {
            ep.fail(format!("decode of {:?} does not round-trip", crate::closed::show(key)));
        }
    }
    out
}
