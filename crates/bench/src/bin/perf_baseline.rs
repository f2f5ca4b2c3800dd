//! `perf_baseline` — the repo's recorded encode/decode-performance
//! trajectory.
//!
//! Runs the fig8-style microbench across all six schemes on the Email
//! corpus and times the hot paths of three subsystems:
//!
//! * **encode** (`BENCH_encode.json`) — three implementations of the
//!   per-key encode loop:
//!   - *generic-alloc* — the hot path as it existed before the fast
//!     paths: generic dictionary walk plus a fresh `EncodedKey`
//!     allocation per call ([`hope::Encoder::encode_generic`]);
//!   - *generic-reuse* — the generic walk into a reused writer (isolates
//!     the dictionary-lookup cost from the allocation cost);
//!   - *fast* — the shipped hot path: [`hope::Hope::encode_to`] with a
//!     reused scratch, taking the fused code table (array schemes) or
//!     the prefix automaton (trie schemes).
//! * **decode** (`BENCH_decode.json`, `"schemes"`) — the bit-walk
//!   reference decoder, allocating and scratch-reusing
//!   ([`hope::Decoder::decode`] / `decode_to`), against the byte-table
//!   [`hope::FastDecoder`] (`decode_to` and `decode_batch`).
//! * **scan** (`BENCH_decode.json`, `"scan"`) — `hope_store` bounded
//!   range queries, in ns per hit: the allocating collect
//!   (`range_into`), the PR 4 per-shard visitor path
//!   (`Generation::range_with`, reconstructed exactly), and the v1
//!   [`hope_store::RangeCursor`] in both its push (`for_each`) and pull
//!   (`next_hit`) forms. The cursor is gated at ≥ 1.0× the visitor
//!   path — the v1 range redesign must not cost scan throughput — and
//!   pull mode at ≥ 0.85× push mode (the chunk path must stay lean).
//!
//! Output paths default to `BENCH_encode.json` / `BENCH_decode.json`,
//! or `BENCH_encode.quick.json` / `BENCH_decode.quick.json` under
//! `--quick`, so a smoke run never overwrites the full-size artifacts.
//! `--out PATH` / `--out-decode PATH` override them; `--out` alone puts
//! the decode file beside `PATH` (see [`decode_path_for`]) rather than at
//! the default. See DESIGN.md "Reading BENCH_*.json". The binary exits
//! non-zero when a headline target fails:
//!
//! * Single-Char fast encode ≥ 2× generic-alloc;
//! * 3-Grams and 4-Grams fast encode ≥ 1.5× generic-alloc (the trie
//!   prefix automaton against the bitmap-trie walk);
//! * Single-Char batch decode (the scan shape) ≥ 1.5× the allocating
//!   bit walk;
//! * sampled tracing (1 request in [`TRACE_SAMPLE_EVERY`] through
//!   [`hope_store::HopeStore::get_traced`]) keeps ≥
//!   [`TARGET_TELEMETRY_RATIO`] of the untraced point-lookup
//!   throughput — the telemetry layer's overhead budget.
//!
//! Gate failures print diff-style (`- required` / `+ measured`) so CI
//! logs show exactly which metric regressed and by how much.
//!
//! Usage: `cargo run --release -p hope_bench --bin perf_baseline
//!         [-- --keys N --quick --out BENCH_encode.json --out-decode
//!         BENCH_decode.json]`

use std::hint::black_box;
use std::time::Duration;

use hope::{DecodeScratch, EncodeScratch, EncodedKey, Hope, Scheme};
use hope_bench::harness::out_path;
use hope_bench::{build_hope, load_dataset, ns_per_op, time, BenchConfig};
use hope_store::telemetry::TraceSampler;
use hope_store::{HopeStore, StoreConfig};
use hope_workloads::Dataset;

/// Headline target: fast-path Single-Char encode throughput vs the
/// generic allocating walk.
const TARGET_SPEEDUP: f64 = 2.0;

/// Headline target for the trie schemes (3/4-Grams): prefix-automaton
/// encode throughput vs the generic allocating walk.
const TARGET_TRIE_SPEEDUP: f64 = 1.5;

/// Headline target: Single-Char byte-table **batch** decode (the scan
/// shape) vs the allocating bit walk.
const TARGET_DECODE_SPEEDUP: f64 = 1.5;

/// Headline target: the v1 `RangeCursor` scan (better of push/pull) vs
/// the PR 4 per-shard visitor path it replaced, measured in the same run.
const TARGET_CURSOR_RATIO: f64 = 1.0;

/// Headline target: the cursor's pull mode (`next_hit`) vs its push mode
/// (`for_each`) in the same run. Pull buffers chunks and serves borrows,
/// so some overhead is structural — but it must stay within 15% of push
/// (the PR 6 chunk-path rework brought it from 0.74× to above this gate,
/// and the gate keeps it from regressing silently).
const TARGET_PULL_RATIO: f64 = 0.85;

/// Headline target: the sampled-tracing get loop vs the plain get loop.
/// DESIGN.md budgets the telemetry layer at ≤ 2% hot-path overhead, so
/// the traced loop must keep at least this fraction of the untraced
/// throughput.
const TARGET_TELEMETRY_RATIO: f64 = 0.98;

/// Sampling period for the overhead measurement — the same 1-in-64 the
/// serving benches (`fig19_telemetry`) run with.
const TRACE_SAMPLE_EVERY: u32 = 64;

/// Median-of-5 nanoseconds per source char for one loop (medians damp
/// the allocator and frequency noise of shared machines).
fn measure(chars: usize, mut run: impl FnMut() -> usize) -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let (bits, d) = time(&mut run);
            assert!(black_box(bits) > 0 || chars == 0);
            ns_per_op(d, chars)
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

struct SchemeRow {
    scheme: &'static str,
    dict_entries: usize,
    fast_path: bool,
    fast_kind: &'static str,
    cpr: f64,
    generic_alloc: f64,
    generic_reuse: f64,
    fast: f64,
    dict_kb: f64,
}

struct DecodeRow {
    scheme: &'static str,
    walk_alloc: f64,
    walk_reuse: f64,
    fast: f64,
    batch: f64,
    table_states: usize,
    table_kb: f64,
}

struct ScanStats {
    hits: usize,
    range_alloc: f64,
    visitor_pr4: f64,
    cursor_push: f64,
    cursor_pull: f64,
}

impl ScanStats {
    /// Cursor speedup vs the PR 4 visitor path (≥ 1.0 = no regression),
    /// taking the cursor's better scan mode for this workload shape.
    fn cursor_ratio(&self) -> f64 {
        self.visitor_pr4 / self.cursor_push.min(self.cursor_pull)
    }

    /// Pull-mode throughput relative to push mode (1.0 = parity; the
    /// gate requires ≥ [`TARGET_PULL_RATIO`]).
    fn pull_ratio(&self) -> f64 {
        self.cursor_push / self.cursor_pull
    }
}

/// One gating threshold: a measured value that must stay at or above its
/// target for the binary to exit 0.
struct Gate {
    name: &'static str,
    actual: f64,
    target: f64,
    /// What the number is, for the failure message.
    detail: String,
}

impl Gate {
    fn pass(&self) -> bool {
        self.actual >= self.target
    }
}

/// Print every gate verdict; failures come out diff-style (required vs
/// measured) so a CI log shows exactly which metric regressed and by how
/// much. Returns the overall verdict.
fn report_gates(gates: &[Gate]) -> bool {
    let mut pass = true;
    for g in gates {
        if g.pass() {
            println!("# gate {:28} {:>8.4} >= {:.4}  ok", g.name, g.actual, g.target);
        } else {
            pass = false;
            println!("# gate {:28} REGRESSED ({})", g.name, g.detail);
            println!("- {:28} >= {:.4}  (required)", g.name, g.target);
            println!(
                "+ {:28} == {:.4}  (measured, {:+.1}%)",
                g.name,
                g.actual,
                (g.actual / g.target - 1.0) * 100.0
            );
        }
    }
    pass
}

fn bench_scheme(hope: &Hope, keys: &[Vec<u8>]) -> (f64, f64, f64) {
    let chars: usize = keys.iter().map(|k| k.len()).sum();
    let enc = hope.encoder();

    let generic_alloc =
        measure(chars, || keys.iter().map(|k| enc.encode_generic(k).bit_len()).sum());

    let mut w = hope::bitpack::BitWriter::new();
    let mut buf = Vec::new();
    let generic_reuse = measure(chars, || {
        let mut bits = 0usize;
        for k in keys {
            enc.encode_generic_into(k, &mut w);
            bits += w.finish_into(&mut buf);
        }
        bits
    });

    let mut scratch = EncodeScratch::new();
    let fast = measure(chars, || {
        let mut bits = 0usize;
        for k in keys {
            hope.encode_to(k, &mut scratch).expect("bench keys within MAX_KEY_BYTES");
            bits += scratch.bit_len();
        }
        bits
    });

    (generic_alloc, generic_reuse, fast)
}

fn bench_decode(hope: &Hope, keys: &[Vec<u8>]) -> DecodeRow {
    let chars: usize = keys.iter().map(|k| k.len()).sum();
    let encoded: Vec<EncodedKey> = keys.iter().map(|k| hope.encode(k)).collect();
    let walk = hope.decoder();
    let fast = hope.fast_decoder();

    let walk_alloc =
        measure(chars, || encoded.iter().map(|e| walk.decode(e).expect("valid").len()).sum());

    let mut scratch = DecodeScratch::new();
    let walk_reuse = measure(chars, || {
        encoded.iter().map(|e| walk.decode_to(e, &mut scratch).expect("valid").len()).sum()
    });

    let fast_ns = measure(chars, || {
        encoded.iter().map(|e| fast.decode_to(e, &mut scratch).expect("valid").len()).sum()
    });

    // Scan-shaped batches: decode hits in blocks of 64 into one flat
    // buffer, as a range scan would hand them over.
    let batch = measure(chars, || {
        let mut total = 0usize;
        for block in encoded.chunks(64) {
            let b = fast.decode_batch_keys(block, &mut scratch).expect("valid");
            total += b.iter().map(|k| k.len()).sum::<usize>();
        }
        total
    });

    DecodeRow {
        scheme: hope.scheme().name(),
        walk_alloc,
        walk_reuse,
        fast: fast_ns,
        batch,
        table_states: fast.states(),
        table_kb: fast.memory_bytes() as f64 / 1024.0,
    }
}

/// Store scan trajectory over bounded scans of ~64 hits each: the
/// allocating collect, the PR 4 per-shard visitor path (reconstructed
/// from the public `Generation::range_with` exactly as the pre-v1
/// `HopeStore::range_with` dispatched it), and the v1 cursor in both
/// scan modes.
fn bench_scan(keys: &[Vec<u8>]) -> ScanStats {
    let mut sorted = keys.to_vec();
    sorted.sort();
    sorted.dedup();
    let pairs = sorted.iter().enumerate().map(|(i, k)| (k.clone(), i as u64));
    let store = HopeStore::build(StoreConfig::default(), pairs).expect("store build");
    let span = 64usize;
    let starts: Vec<usize> =
        (0..sorted.len().saturating_sub(span)).step_by(97).take(2_000).collect();
    let hits: usize = starts.len() * span;

    // `measure` divides by its op count and asserts the loop's return is
    // the hit total, so every scan shape shares the encode-side protocol
    // (median-of-5, total_cmp sort) with a per-hit divisor.
    let range_alloc = measure(hits, || {
        let mut n = 0usize;
        let mut out = Vec::new();
        for &s in &starts {
            out.clear();
            n += store
                .range_into(&sorted[s], &sorted[s + span - 1], span, &mut out)
                .expect("valid bounds");
        }
        assert_eq!(n, hits);
        n
    });

    // The PR 4 visitor path, reconstructed: route the bound shards and
    // run each shard generation's zero-alloc visitor directly — plus the
    // two per-hit source-bound memcmps the PR 4 engine performed on
    // every hit (v1 proved those are only needed on boundary slots and
    // dropped them from interior hits, so the old cost structure is
    // re-added in the callback to keep the baseline honest).
    let visitor_pr4 = measure(hits, || {
        let mut n = 0usize;
        let mut bytes = 0usize;
        for &s in &starts {
            let (low, high) = (&sorted[s], &sorted[s + span - 1]);
            let (s0, s1) = (store.shard_of(low), store.shard_of(high));
            let mut m = 0usize;
            for shard in s0..=s1 {
                if m == span {
                    break;
                }
                let generation = store.generation(shard).expect("shard in range");
                m += generation
                    .range_with(low, high, span - m, |k, _v| {
                        black_box(k >= low.as_slice() && k <= high.as_slice());
                        bytes += k.len();
                    })
                    .expect("valid bounds");
            }
            n += m;
        }
        black_box(bytes);
        assert_eq!(n, hits);
        n
    });

    // v1 push: the cursor's for_each adapter (what range_with now wraps).
    let cursor_push = measure(hits, || {
        let mut n = 0usize;
        let mut bytes = 0usize;
        for &s in &starts {
            n += store
                .range_with(&sorted[s], &sorted[s + span - 1], span, |k, _v| {
                    bytes += k.len();
                })
                .expect("valid bounds");
        }
        black_box(bytes);
        assert_eq!(n, hits);
        n
    });

    // v1 pull: the lending next_hit loop.
    let cursor_pull = measure(hits, || {
        let mut n = 0usize;
        let mut bytes = 0usize;
        for &s in &starts {
            let mut cur =
                store.cursor(&sorted[s], &sorted[s + span - 1], span).expect("valid bounds");
            while let Some((k, _v)) = cur.next_hit() {
                bytes += k.len();
                n += 1;
            }
        }
        black_box(bytes);
        assert_eq!(n, hits);
        n
    });

    ScanStats { hits, range_alloc, visitor_pr4, cursor_push, cursor_pull }
}

struct TelemetryOverhead {
    probes: usize,
    /// ns per get, untraced `HopeStore::get` loop (fastest rep).
    plain_ns: f64,
    /// ns per get with a 1-in-[`TRACE_SAMPLE_EVERY`] sampler diverting
    /// requests to `get_traced` and recording the spans, worker-style
    /// (fastest rep).
    sampled_ns: f64,
    /// Median across reps of the per-rep `plain/sampled` total ratio —
    /// the gate statistic (chunk-paired timing cancels machine-state
    /// drift a back-to-back min-vs-min cannot).
    ratio: f64,
}

impl TelemetryOverhead {
    /// Sampled-loop throughput as a fraction of the plain loop's (1.0 =
    /// tracing is free; the gate requires ≥ [`TARGET_TELEMETRY_RATIO`]).
    fn ratio(&self) -> f64 {
        self.ratio
    }
}

/// Cost of sampled tracing on the store's point-lookup path: the same
/// probe loop untraced, then with a worker-style [`TraceSampler`]
/// sending every 64th get through `get_traced` and recording its spans
/// into registry histograms.
fn bench_telemetry_overhead(keys: &[Vec<u8>]) -> TelemetryOverhead {
    let mut sorted = keys.to_vec();
    sorted.sort();
    sorted.dedup();
    let pairs = sorted.iter().enumerate().map(|(i, k)| (k.clone(), i as u64));
    let store = HopeStore::build(StoreConfig::default(), pairs).expect("store build");
    let probes: Vec<&[u8]> = sorted.iter().step_by(3).map(|k| k.as_slice()).collect();

    let tel = store.telemetry_handle();
    let encode_h = tel.registry().histo("serving.trace.encode");
    let probe_h = tel.registry().histo("serving.trace.probe");
    let decode_h = tel.registry().histo("serving.trace.decode");
    let mut sampler = TraceSampler::new(TRACE_SAMPLE_EVERY);

    let run_plain = |chunk: &[&[u8]]| {
        let mut n = 0usize;
        for &k in chunk {
            n += store.get(k).expect("valid key").is_some() as usize;
        }
        n
    };
    let mut run_sampled = |chunk: &[&[u8]]| {
        let mut n = 0usize;
        for &k in chunk {
            n += if sampler.tick() {
                let (v, spans) = store.get_traced(k).expect("valid key");
                encode_h.record(spans.encode_ns);
                probe_h.record(spans.probe_ns);
                decode_h.record(spans.decode_ns);
                v.is_some()
            } else {
                store.get(k).expect("valid key").is_some()
            } as usize;
        }
        n
    };

    // The two loops differ by single-digit nanoseconds per get while the
    // machine drifts by far more than that between back-to-back passes
    // (turbo decay, interrupts, cache/NUMA state), so whole-pass timing
    // cannot resolve the ratio. Instead each rep walks the probe set in
    // ~32 chunks, timing the plain and sampled loop back to back *per
    // chunk* (alternating which goes first), so both loops accumulate
    // their totals under near-identical machine state; the gate statistic
    // is the median across reps of the per-rep total ratio, after one
    // untimed warmup rep.
    let chunk_len = probes.len().div_ceil(32).max(1);
    let chunks: Vec<&[&[u8]]> = probes.chunks(chunk_len).collect();
    black_box(run_plain(&probes));
    black_box(run_sampled(&probes));
    let (mut plain_ns, mut sampled_ns) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(5);
    for rep in 0..5 {
        let (mut plain_d, mut sampled_d) = (Duration::ZERO, Duration::ZERO);
        let (mut plain_found, mut sampled_found) = (0usize, 0usize);
        for (ci, chunk) in chunks.iter().enumerate() {
            if (rep + ci) % 2 == 0 {
                let (n, d) = time(|| run_plain(chunk));
                plain_found += n;
                plain_d += d;
                let (n, d) = time(|| run_sampled(chunk));
                sampled_found += n;
                sampled_d += d;
            } else {
                let (n, d) = time(|| run_sampled(chunk));
                sampled_found += n;
                sampled_d += d;
                let (n, d) = time(|| run_plain(chunk));
                plain_found += n;
                plain_d += d;
            }
        }
        assert_eq!(black_box(plain_found), probes.len(), "every probe key must be present");
        assert_eq!(black_box(sampled_found), probes.len(), "every probe key must be present");
        let p = ns_per_op(plain_d, probes.len());
        let s = ns_per_op(sampled_d, probes.len());
        plain_ns = plain_ns.min(p);
        sampled_ns = sampled_ns.min(s);
        if std::env::var_os("OVERHEAD_DEBUG").is_some() {
            eprintln!("rep {rep}: plain {p:.1} sampled {s:.1} ratio {:.4}", p / s);
        }
        ratios.push(p / s);
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];

    TelemetryOverhead { probes: probes.len(), plain_ns, sampled_ns, ratio }
}

fn out_flag(cfg: &BenchConfig, flag: &str) -> Option<String> {
    cfg.flags.iter().position(|f| f == flag).and_then(|i| cfg.flags.get(i + 1).cloned())
}

/// Where the decode results go when only `--out` names the encode file:
/// the same path with its last `encode` turned into `decode`, or with
/// `.decode` before the extension when the name has no `encode` in it.
fn decode_path_for(out: &str) -> String {
    let name_at = out.rfind('/').map_or(0, |i| i + 1);
    if let Some(i) = out[name_at..].rfind("encode") {
        let at = name_at + i;
        return format!("{}decode{}", &out[..at], &out[at + "encode".len()..]);
    }
    match out[name_at..].rfind('.') {
        Some(i) => format!("{}.decode{}", &out[..name_at + i], &out[name_at + i..]),
        None => format!("{out}.decode"),
    }
}

/// The `(encode, decode)` output paths for this run (module docs).
fn out_paths(cfg: &BenchConfig) -> (String, String) {
    // `out_path` yields the quick/full default name when `--out` is absent,
    // which is the only case the decode default is reached in.
    let decode = out_flag(cfg, "--out-decode")
        .or_else(|| out_flag(cfg, "--out").as_deref().map(decode_path_for))
        .unwrap_or_else(|| out_path(cfg, "BENCH_decode"));
    (out_path(cfg, "BENCH_encode"), decode)
}

fn main() {
    let cfg = BenchConfig::from_args();
    let (out_path, out_decode) = out_paths(&cfg);

    let keys = load_dataset(Dataset::Email, &cfg);
    let sample = cfg.sample(&keys);

    println!("# perf_baseline: encode hot-path trajectory (email, {} keys)", keys.len());
    println!(
        "{:14} {:>9} {:>12} {:>14} {:>14} {:>10} {:>9}",
        "scheme", "dict", "fast-kind", "generic-alloc", "generic-reuse", "fast", "speedup"
    );

    let mut rows: Vec<SchemeRow> = Vec::new();
    let mut decode_rows: Vec<DecodeRow> = Vec::new();
    for scheme in Scheme::ALL {
        let target = scheme.fixed_dict_size().unwrap_or(1 << 16);
        let hope = build_hope(scheme, target, &sample);
        let st = hope::stats::measure(&hope, &keys);
        let (generic_alloc, generic_reuse, fast) = bench_scheme(&hope, &keys);
        if let Some((states, fallbacks)) = hope.encoder().fast().and_then(|f| f.automaton_stats()) {
            eprintln!(
                "# {}: automaton {} states ({:.1} KiB), {} fallback edges",
                scheme.name(),
                states,
                hope.encoder().fast().map_or(0, |f| f.memory_bytes()) as f64 / 1024.0,
                fallbacks
            );
        }
        let row = SchemeRow {
            scheme: scheme.name(),
            dict_entries: hope.dict_entries(),
            fast_path: hope.encoder().fast().is_some(),
            fast_kind: hope.encoder().fast().map_or("none", |f| f.kind()),
            cpr: st.cpr(),
            generic_alloc,
            generic_reuse,
            fast,
            dict_kb: hope.dict_memory_bytes() as f64 / 1024.0,
        };
        println!(
            "{:14} {:>9} {:>12} {:>11.2}ns {:>11.2}ns {:>7.2}ns {:>8.2}x",
            row.scheme,
            row.dict_entries,
            row.fast_kind,
            row.generic_alloc,
            row.generic_reuse,
            row.fast,
            row.generic_alloc / row.fast,
        );
        rows.push(row);
        decode_rows.push(bench_decode(&hope, &keys));
    }

    println!("\n# decode trajectory (ns per source char)");
    println!(
        "{:14} {:>12} {:>12} {:>10} {:>10} {:>8} {:>9}",
        "scheme", "walk-alloc", "walk-reuse", "fast", "batch", "states", "speedup"
    );
    for r in &decode_rows {
        println!(
            "{:14} {:>10.2}ns {:>10.2}ns {:>8.2}ns {:>8.2}ns {:>8} {:>8.2}x",
            r.scheme,
            r.walk_alloc,
            r.walk_reuse,
            r.fast,
            r.batch,
            r.table_states,
            r.walk_alloc / r.fast,
        );
    }

    println!("\n# store scan trajectory (ns per hit)");
    let scan = bench_scan(&keys);
    println!(
        "{:>8} hits: collect {:.1} ns/hit, pr4-visitor {:.1} ns/hit, cursor push {:.1} ns/hit, \
         cursor pull {:.1} ns/hit (cursor vs visitor {:.2}x)",
        scan.hits,
        scan.range_alloc,
        scan.visitor_pr4,
        scan.cursor_push,
        scan.cursor_pull,
        scan.cursor_ratio()
    );

    println!("\n# telemetry overhead (1/{TRACE_SAMPLE_EVERY} sampled tracing, get path)");
    let overhead = bench_telemetry_overhead(&keys);
    println!(
        "{:>8} probes: plain {:.1} ns/get, sampled {:.1} ns/get ({:.4}x throughput)",
        overhead.probes,
        overhead.plain_ns,
        overhead.sampled_ns,
        overhead.ratio()
    );

    // Headline gates.
    let speed = |name: &str| {
        let r = rows.iter().find(|r| r.scheme == name).expect("scheme row");
        r.generic_alloc / r.fast
    };
    let single = speed("Single-Char");
    let three = speed("3-Grams");
    let four = speed("4-Grams");
    let dec_single = decode_rows
        .iter()
        .find(|r| r.scheme == "Single-Char")
        .map(|r| r.walk_alloc / r.batch)
        .expect("decode row");
    let gates = [
        Gate {
            name: "single_char_encode_speedup",
            actual: single,
            target: TARGET_SPEEDUP,
            detail: "fast vs generic-alloc encode".into(),
        },
        Gate {
            name: "three_grams_encode_speedup",
            actual: three,
            target: TARGET_TRIE_SPEEDUP,
            detail: "prefix automaton vs generic-alloc encode".into(),
        },
        Gate {
            name: "four_grams_encode_speedup",
            actual: four,
            target: TARGET_TRIE_SPEEDUP,
            detail: "prefix automaton vs generic-alloc encode".into(),
        },
        Gate {
            name: "single_char_batch_decode",
            actual: dec_single,
            target: TARGET_DECODE_SPEEDUP,
            detail: "byte-table batch vs allocating bit walk".into(),
        },
        Gate {
            name: "cursor_vs_visitor_ratio",
            actual: scan.cursor_ratio(),
            target: TARGET_CURSOR_RATIO,
            detail: format!(
                "cursor best {:.1} ns/hit vs pr4 visitor {:.1} ns/hit",
                scan.cursor_push.min(scan.cursor_pull),
                scan.visitor_pr4
            ),
        },
        Gate {
            name: "cursor_pull_ratio",
            actual: scan.pull_ratio(),
            target: TARGET_PULL_RATIO,
            detail: format!(
                "cursor_pull {:.1} ns/hit vs cursor_push {:.1} ns/hit",
                scan.cursor_pull, scan.cursor_push
            ),
        },
        Gate {
            name: "telemetry_overhead_ratio",
            actual: overhead.ratio(),
            target: TARGET_TELEMETRY_RATIO,
            detail: format!(
                "sampled {:.1} ns/get vs plain {:.1} ns/get",
                overhead.sampled_ns, overhead.plain_ns
            ),
        },
    ];
    println!();
    let pass = report_gates(&gates);

    write_encode_json(&out_path, &cfg, &rows, single, three, four, pass);
    write_decode_json(&out_decode, &cfg, &decode_rows, &scan, &overhead, dec_single, pass);
    println!("# wrote {out_path} and {out_decode}");
    println!("# perf_baseline — {}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        std::process::exit(1);
    }
}

/// Hand-rolled JSON writers (the workspace builds offline; no serde).
fn write_encode_json(
    path: &str,
    cfg: &BenchConfig,
    rows: &[SchemeRow],
    single: f64,
    three: f64,
    four: f64,
    pass: bool,
) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"perf_baseline\",\n  \"dataset\": \"email\",\n");
    s.push_str(&format!("  \"keys\": {},\n  \"seed\": {},\n", cfg.keys, cfg.seed));
    s.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    s.push_str(&format!("  \"target_single_char_speedup\": {TARGET_SPEEDUP},\n"));
    s.push_str(&format!("  \"target_trie_speedup\": {TARGET_TRIE_SPEEDUP},\n"));
    s.push_str(&format!("  \"single_char_speedup\": {single:.4},\n"));
    s.push_str(&format!("  \"three_grams_speedup\": {three:.4},\n"));
    s.push_str(&format!("  \"four_grams_speedup\": {four:.4},\n"));
    s.push_str(&format!("  \"pass\": {pass},\n"));
    s.push_str("  \"units\": \"ns_per_source_char\",\n  \"schemes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"dict_entries\": {}, \"fast_path\": {}, \
             \"fast_kind\": \"{}\", \"cpr\": {:.4}, \"generic_alloc\": {:.4}, \
             \"generic_reuse\": {:.4}, \"fast\": {:.4}, \
             \"speedup_vs_generic_alloc\": {:.4}, \"dict_kb\": {:.1}}}{}\n",
            r.scheme,
            r.dict_entries,
            r.fast_path,
            r.fast_kind,
            r.cpr,
            r.generic_alloc,
            r.generic_reuse,
            r.fast,
            r.generic_alloc / r.fast,
            r.dict_kb,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).expect("write BENCH_encode.json");
}

#[allow(clippy::too_many_arguments)]
fn write_decode_json(
    path: &str,
    cfg: &BenchConfig,
    rows: &[DecodeRow],
    scan: &ScanStats,
    overhead: &TelemetryOverhead,
    dec_single: f64,
    pass: bool,
) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"perf_baseline\",\n  \"dataset\": \"email\",\n");
    s.push_str(&format!("  \"keys\": {},\n  \"seed\": {},\n", cfg.keys, cfg.seed));
    s.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    s.push_str(&format!(
        "  \"target_single_char_batch_decode_speedup\": {TARGET_DECODE_SPEEDUP},\n"
    ));
    s.push_str(&format!("  \"single_char_batch_decode_speedup\": {dec_single:.4},\n"));
    s.push_str(&format!("  \"pass\": {pass},\n"));
    s.push_str("  \"units\": \"ns_per_source_char\",\n  \"schemes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"walk_alloc\": {:.4}, \"walk_reuse\": {:.4}, \
             \"fast\": {:.4}, \"batch\": {:.4}, \"speedup_vs_walk_alloc\": {:.4}, \
             \"table_states\": {}, \"table_kb\": {:.1}}}{}\n",
            r.scheme,
            r.walk_alloc,
            r.walk_reuse,
            r.fast,
            r.batch,
            r.walk_alloc / r.fast,
            r.table_states,
            r.table_kb,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"scan\": {{\"units\": \"ns_per_hit\", \"hits\": {}, \"range_alloc\": {:.4}, \
         \"range_with\": {:.4}, \"speedup\": {:.4}}},\n",
        scan.hits,
        scan.range_alloc,
        scan.visitor_pr4,
        scan.range_alloc / scan.visitor_pr4
    ));
    s.push_str(&format!(
        "  \"cursor\": {{\"units\": \"ns_per_hit\", \"hits\": {}, \
         \"visitor_pr4\": {:.4}, \"cursor_push\": {:.4}, \"cursor_pull\": {:.4}, \
         \"target_ratio_vs_visitor\": {TARGET_CURSOR_RATIO}, \
         \"ratio_vs_visitor\": {:.4}, \
         \"target_pull_ratio\": {TARGET_PULL_RATIO}, \
         \"pull_ratio\": {:.4}}},\n",
        scan.hits,
        scan.visitor_pr4,
        scan.cursor_push,
        scan.cursor_pull,
        scan.cursor_ratio(),
        scan.pull_ratio()
    ));
    s.push_str(&format!(
        "  \"telemetry_overhead\": {{\"units\": \"ns_per_get\", \"probes\": {}, \
         \"sample_every\": {TRACE_SAMPLE_EVERY}, \"plain\": {:.4}, \"sampled\": {:.4}, \
         \"target_ratio\": {TARGET_TELEMETRY_RATIO}, \"ratio\": {:.4}}}\n",
        overhead.probes,
        overhead.plain_ns,
        overhead.sampled_ns,
        overhead.ratio()
    ));
    s.push_str("}\n");
    std::fs::write(path, s).expect("write BENCH_decode.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths(args: &[&str]) -> (String, String) {
        let mut cfg = BenchConfig::default();
        for a in args {
            match *a {
                "--quick" => cfg.quick = true,
                other => cfg.flags.push(other.to_string()),
            }
        }
        out_paths(&cfg)
    }

    #[test]
    fn quick_runs_never_write_the_full_size_artifacts() {
        let full = ("BENCH_encode.json".to_string(), "BENCH_decode.json".to_string());
        assert_eq!(paths(&[]), full);
        let quick = paths(&["--quick"]);
        assert_eq!(quick, ("BENCH_encode.quick.json".into(), "BENCH_decode.quick.json".into()));
        // `--out` alone never falls back to the default decode file.
        assert_eq!(
            paths(&["--out", "x/enc.json"]),
            ("x/enc.json".into(), "x/enc.decode.json".into())
        );
        assert_eq!(paths(&["--quick", "--out", "r/my_encode_1.json"]).1, "r/my_decode_1.json");
        assert_eq!(paths(&["--out", "encode_dir/run"]).1, "encode_dir/run.decode");
        assert_eq!(paths(&["--out", "a.json", "--out-decode", "b.json"]).1, "b.json");
    }
}
