//! `fig22_snapshot_rebuild` — the versioned-snapshot acceptance bench:
//! O(1) copy-on-write snapshots and the incremental merge rebuild,
//! proven end to end against a shadow map, a latency-flatness probe,
//! the swap reports, and a serving pass with `SnapshotScan` in the mix.
//!
//! Four gates:
//!
//! * **(a) frozen equality** — a snapshot taken before heavy churn
//!   (inserts, updates, forced hot-swaps on every shard) answers every
//!   point and range read byte-for-byte from the shadow map of the
//!   capture instant; keys born after the capture are invisible; the
//!   `store.snapshot.*` lifecycle counters balance;
//! * **(b) flat capture** — `snapshot()` cost is O(shard count), not
//!   O(keys): the median capture latency on a store 8× larger stays
//!   within [`LATENCY_FLAT_RATIO`]× of the small store's (medians over
//!   interleaved trials; raw timings go to the JSON report, never into
//!   `DIGEST` lines);
//! * **(c) incremental rebuild** — after localized drift (updates and a
//!   few new keys, all confined to the bottom decile of the keyspace,
//!   i.e. one shard's range) a forced rebuild of every shard takes the
//!   merge path on the clean shards — their retrained dictionaries come
//!   out byte-identical, so the splice reuses their encoded runs
//!   verbatim — and re-encodes under [`MAX_REENCODED_FRAC`] of the live
//!   encoded bytes overall, with contents preserved;
//! * **(d) exactly-once** — the three-phase serving drill with every
//!   other range scan submitted as a [`Request::snapshot_scan`]
//!   completes every admitted request exactly once, zero rejects, zero
//!   errors, and every captured snapshot is dropped
//!   (`taken == dropped == snapshot scans`, active gauge 0).
//!
//! **Determinism**: gates (a), (c) and (d) are pure functions of the
//! seeded workload (virtual time in `--quick`), so two quick runs print
//! byte-identical `DIGEST` lines and CI diffs them. Gate (b) is wall
//! clock by nature; only its boolean reaches the `DIGEST` stream.
//!
//! Usage: `cargo run --release -p hope_bench --bin fig22_snapshot_rebuild
//!         [-- --keys N --queries N --seed N --quick --out PATH]`

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hope_bench::harness::{
    build_serving_store, json_head, json_phase, out_path, phase_bounds, phase_ops_per_sec,
    serving_config, to_request, PHASE_NAMES,
};
use hope_bench::BenchConfig;
use hope_store::serving::{Request, Server};
use hope_store::{HopeStore, StoreConfig, SwapReport};
use hope_workloads::{MixedWorkload, StoreOp, TrafficSpec};

/// Gate (b): the large store's median `snapshot()` latency must stay
/// within this factor of the small store's. The true ratio is ~1 (the
/// capture does identical O(shards) work on both); the headroom absorbs
/// scheduler noise so the boolean is stable run to run.
const LATENCY_FLAT_RATIO: f64 = 8.0;

/// Gate (b): the large store holds this many times the small store's
/// keys — an O(keys) capture would blow the ratio gate immediately.
const SIZE_FACTOR: usize = 8;

/// Gate (b): capture trials per store (interleaved small/large).
const LATENCY_TRIALS: usize = 101;

/// Gate (c): ceiling on `reencoded / (reused + reencoded)` summed over
/// all shards after localized drift.
const MAX_REENCODED_FRAC: f64 = 0.5;

/// Gate (c): the drift is confined to this bottom fraction of the
/// sorted keyspace — entirely inside the first shard's range (shard
/// split points are quantiles), so the other shards see zero drift
/// traffic and retrain byte-identical dictionaries.
const DRIFT_PREFIX_DENOM: usize = 10;

/// Gate (c): within the drifted prefix, one key in this many gets a
/// value update (key bytes unchanged).
const DRIFT_UPDATE_EVERY: usize = 2;

/// Gate (c): within the drifted prefix, one key in this many spawns a
/// sibling key (suffix drawn from bytes already in the distribution).
const DRIFT_NEW_EVERY: usize = 25;

/// Gate (a): one churn op in this many forces a shard hot-swap, floor —
/// the cadence stretches on big runs (see [`churn_swap_every`]) so the
/// full-size drill doesn't spend its whole budget rebuilding.
const CHURN_SWAP_EVERY: usize = 64;

/// Gate (a): forced-swap cadence — every 64th op in quick runs, capped
/// at ~200 swaps total on full-size runs (each swap re-encodes a whole
/// shard; the gate needs swaps *present under the open snapshot*, not
/// thousands of them).
fn churn_swap_every(ops: usize) -> usize {
    (ops / 200).max(CHURN_SWAP_EVERY)
}

/// Gate (d): every Nth submit carries a completion ticket.
const TICKET_SAMPLE: usize = 64;

/// Build a store and its shadow map from the workload's initial keys
/// (value = first-seen position, deduplicated through the map so store
/// and shadow agree by construction).
fn build_with_shadow(keys: &[Vec<u8>], cfg: StoreConfig) -> (HopeStore, BTreeMap<Vec<u8>, u64>) {
    let mut shadow = BTreeMap::new();
    for (i, k) in keys.iter().enumerate() {
        shadow.entry(k.clone()).or_insert(i as u64);
    }
    let store =
        HopeStore::build(cfg, shadow.iter().map(|(k, v)| (k.clone(), *v))).expect("store build");
    (store, shadow)
}

fn store_config() -> StoreConfig {
    StoreConfig { min_observed_bytes: 512, event_capacity: 4096, ..StoreConfig::default() }
}

/// Gate (a) outcome.
struct FrozenOutcome {
    shadow_keys: usize,
    churn_inserts: u64,
    churn_swaps: u64,
    range_equal: bool,
    points_equal: bool,
    invisible: bool,
    lifecycle_ok: bool,
}

/// Take a snapshot, churn the live store hard (inserts + forced swaps
/// on every shard), then audit the snapshot against the shadow map.
fn run_frozen(workload: &MixedWorkload) -> FrozenOutcome {
    let (store, shadow) = build_with_shadow(&workload.initial, store_config());
    let shards = store.config().shards;
    let snap = store.snapshot();

    let swap_every = churn_swap_every(workload.ops.len());
    let mut churn_inserts = 0u64;
    let mut churn_swaps = 0u64;
    let mut churned: Vec<Vec<u8>> = Vec::new();
    for (i, op) in workload.ops.iter().enumerate() {
        if i.is_multiple_of(swap_every) {
            store.force_rebuild(i / swap_every % shards).expect("forced rebuild");
            churn_swaps += 1;
        } else if let StoreOp::Insert(k, v) = op {
            store.insert(k.clone(), *v).expect("insert");
            churned.push(k.clone());
            churn_inserts += 1;
        }
    }

    // Full-range sweep (inclusive bounds = the shadow's own extremes):
    // byte-for-byte the capture instant.
    let want: Vec<(Vec<u8>, u64)> = shadow.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let (low, high) = (&want.first().expect("non-empty").0, &want.last().expect("non-empty").0);
    let mut got = Vec::new();
    snap.range_into(low, high, usize::MAX, &mut got).expect("snapshot range");
    let range_equal = got == want && snap.len() == shadow.len();

    // Every key the churn touched reads as the shadow says — updated
    // keys show the pre-churn value, post-capture keys are invisible.
    let mut points_equal = true;
    let mut invisible = true;
    for k in &churned {
        let snap_v = snap.get(k).expect("snapshot get");
        if snap_v != shadow.get(k).copied() {
            points_equal = false;
        }
        if !shadow.contains_key(k) && snap_v.is_some() {
            invisible = false;
        }
    }

    let t = store.telemetry();
    let taken = t.counter("store.snapshot.taken").unwrap_or(0);
    let active = t.gauge("store.snapshot.active").unwrap_or(0);
    drop(snap);
    let t2 = store.telemetry();
    let lifecycle_ok = taken == 1
        && active == 1
        && t2.counter("store.snapshot.dropped").unwrap_or(0) == 1
        && t2.gauge("store.snapshot.active").unwrap_or(0) == 0;

    FrozenOutcome {
        shadow_keys: shadow.len(),
        churn_inserts,
        churn_swaps,
        range_equal,
        points_equal,
        invisible,
        lifecycle_ok,
    }
}

/// Median of a latency sample (ns).
fn median_ns(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Gate (b): interleaved capture trials on a small and an 8×-larger
/// store; returns `(small_keys, large_keys, small_median, large_median)`.
fn run_latency(workload: &MixedWorkload, cfg: &BenchConfig) -> (usize, usize, u64, u64) {
    let cap = workload.initial.len();
    let small_n = (cfg.keys / SIZE_FACTOR).clamp(1_000.min(cap), cap);
    let (small, _) = build_with_shadow(&workload.initial[..small_n], store_config());
    let (large, _) = build_with_shadow(&workload.initial, store_config());

    let mut small_ns = Vec::with_capacity(LATENCY_TRIALS);
    let mut large_ns = Vec::with_capacity(LATENCY_TRIALS);
    for _ in 0..LATENCY_TRIALS {
        let t0 = Instant::now();
        let s = small.snapshot();
        small_ns.push(t0.elapsed().as_nanos() as u64);
        drop(s);
        let t0 = Instant::now();
        let s = large.snapshot();
        large_ns.push(t0.elapsed().as_nanos() as u64);
        drop(s);
    }
    (small.len(), large.len(), median_ns(small_ns), median_ns(large_ns))
}

/// Gate (c) outcome.
struct RebuildOutcome {
    reports: Vec<SwapReport>,
    incremental: u64,
    full: u64,
    reused_bytes: u64,
    reencoded_bytes: u64,
    reencoded_frac: f64,
    contents_ok: bool,
}

/// Apply localized drift — value updates plus a trickle of sibling
/// keys, all confined to the bottom decile of the sorted keyspace (one
/// shard's range) — then force-rebuild every shard and sum the swap
/// reports' reuse accounting. The shards outside the drifted range see
/// no traffic: their retrain sample is the same resident-key stride the
/// build used, the new dictionary comes out byte-identical, and the
/// merge path splices 100% of their encoded bytes. Only the drifted
/// shard pays a re-encode, which is what keeps the overall re-encoded
/// fraction under the gate.
fn run_rebuild(workload: &MixedWorkload) -> RebuildOutcome {
    let (store, mut shadow) = build_with_shadow(&workload.initial, store_config());
    let mut sorted: Vec<Vec<u8>> = shadow.keys().cloned().collect();
    sorted.truncate(shadow.len() / DRIFT_PREFIX_DENOM);
    for (i, k) in sorted.iter().enumerate() {
        if i.is_multiple_of(DRIFT_UPDATE_EVERY) {
            store.insert(k.clone(), u64::MAX - i as u64).expect("drift update");
            shadow.insert(k.clone(), u64::MAX - i as u64);
        }
        if i.is_multiple_of(DRIFT_NEW_EVERY) {
            let mut sib = k.clone();
            sib.extend_from_slice(&k[..k.len().min(2)]);
            store.insert(sib.clone(), i as u64).expect("drift insert");
            shadow.insert(sib, i as u64);
        }
    }

    let mut reports = Vec::new();
    for s in 0..store.config().shards {
        reports.push(store.force_rebuild(s).expect("forced rebuild"));
    }
    let incremental = reports.iter().filter(|r| r.incremental).count() as u64;
    let full = reports.len() as u64 - incremental;
    let reused_bytes: u64 = reports.iter().map(|r| r.reused_bytes).sum();
    let reencoded_bytes: u64 = reports.iter().map(|r| r.reencoded_bytes).sum();
    let total = (reused_bytes + reencoded_bytes).max(1);
    let reencoded_frac = reencoded_bytes as f64 / total as f64;

    // The rebuilt store still answers every key (sampled).
    let contents_ok =
        shadow.iter().step_by(7).all(|(k, v)| store.get(k).expect("post-rebuild get") == Some(*v));

    RebuildOutcome {
        reports,
        incremental,
        full,
        reused_bytes,
        reencoded_bytes,
        reencoded_frac,
        contents_ok,
    }
}

/// Gate (d) outcome.
struct ServeOutcome {
    report: hope_store::serving::ServingReport,
    wall_ns: [u64; 3],
    submitted: u64,
    snap_scans: u64,
    tickets_issued: u64,
    tickets_resolved: u64,
}

/// The fig18 three-phase drill with every other range scan submitted
/// as a point-in-time [`Request::snapshot_scan`].
fn run_serving(cfg: &BenchConfig, workload: &MixedWorkload) -> ServeOutcome {
    let bounds = phase_bounds(workload);
    let store = build_serving_store(workload);
    let server =
        Server::start(Arc::clone(&store), serving_config(cfg.quick)).expect("server start");

    let mut wall_ns = [0u64; 3];
    let mut submitted = 0u64;
    let mut snap_scans = 0u64;
    let mut scan_seq = 0usize;
    let mut tickets = Vec::new();
    for (phase, &(lo, hi)) in bounds.iter().enumerate() {
        let t0 = Instant::now();
        for (i, op) in workload.ops[lo..hi].iter().enumerate() {
            let req = match op {
                StoreOp::Scan(low, high, limit) => {
                    scan_seq += 1;
                    if scan_seq.is_multiple_of(2) {
                        snap_scans += 1;
                        Request::snapshot_scan(low.clone(), high.clone(), *limit)
                    } else {
                        to_request(op)
                    }
                }
                other => to_request(other),
            };
            if i.is_multiple_of(TICKET_SAMPLE) {
                tickets.push(server.submit(req, phase).expect("server open"));
            } else {
                server.submit_detached(req, phase).expect("server open");
            }
        }
        server.flush();
        wall_ns[phase] = t0.elapsed().as_nanos() as u64;
        submitted += (hi - lo) as u64;
        if phase > 0 {
            // Hot-swaps under live snapshot scans: the point of the drill.
            let (_, errors) = store.maintain();
            assert!(errors.is_empty(), "unexpected rebuild errors: {errors:?}");
        }
    }
    let tickets_issued = tickets.len() as u64;
    let tickets_resolved = tickets.iter().filter(|t| t.is_done()).count() as u64;
    let report = server.shutdown();
    ServeOutcome { report, wall_ns, submitted, snap_scans, tickets_issued, tickets_resolved }
}

fn main() {
    let cfg = BenchConfig::from_args();
    let out = out_path(&cfg, "BENCH_snapshot");
    let ops = if cfg.quick { cfg.queries } else { cfg.queries.saturating_mul(10) };
    println!(
        "# fig22_snapshot_rebuild: {} initial keys, {} ops, seed {}, {} mode",
        cfg.keys,
        ops,
        cfg.seed,
        if cfg.quick { "virtual-time (deterministic)" } else { "wall-clock" }
    );
    let workload = MixedWorkload::generate(cfg.keys, ops, TrafficSpec::default(), cfg.seed);

    // Gate (a): frozen equality under churn.
    let frozen = run_frozen(&workload);
    let frozen_ok =
        frozen.range_equal && frozen.points_equal && frozen.invisible && frozen.lifecycle_ok;

    // Gate (b): capture latency flat in store size.
    let (small_keys, large_keys, small_med, large_med) = run_latency(&workload, &cfg);
    let latency_ratio = large_med as f64 / small_med.max(1) as f64;
    let latency_flat = latency_ratio <= LATENCY_FLAT_RATIO;
    println!(
        "# capture latency: {small_keys} keys -> {small_med} ns median, \
         {large_keys} keys -> {large_med} ns median (ratio {latency_ratio:.2}, \
         gate <= {LATENCY_FLAT_RATIO})"
    );

    // Gate (c): incremental rebuild under localized drift.
    let rebuild = run_rebuild(&workload);
    for r in &rebuild.reports {
        println!(
            "# rebuild shard {}: {} keys, epoch {} -> {}, {} ({} reused B, {} re-encoded B)",
            r.shard,
            r.live_keys,
            r.old_epoch,
            r.new_epoch,
            if r.incremental { "incremental" } else { "full" },
            r.reused_bytes,
            r.reencoded_bytes,
        );
    }
    let rebuild_ok = rebuild.incremental >= 1
        && rebuild.reencoded_frac < MAX_REENCODED_FRAC
        && rebuild.contents_ok;

    // Gate (d): exactly-once through serving with SnapshotScan mixed in.
    let serve = run_serving(&cfg, &workload);
    let t = &serve.report.telemetry;
    let taken = t.counter("store.snapshot.taken").unwrap_or(0);
    let dropped = t.counter("store.snapshot.dropped").unwrap_or(0);
    let active = t.gauge("store.snapshot.active").unwrap_or(0);
    let errors: u64 = serve.report.phases.iter().map(|p| p.errors).sum();
    let exactly_once = serve.report.total_ops() == serve.submitted
        && serve.report.total_rejected() == 0
        && serve.tickets_resolved == serve.tickets_issued
        && errors == 0;
    let snap_balanced = taken == serve.snap_scans && dropped == taken && active == 0;
    let serve_ok = exactly_once && snap_balanced;

    println!("\n# serving run: {} workers", serve.report.workers);
    println!(
        "{:11} {:>9} {:>8} {:>8} {:>7} {:>10} {:>10} {:>10} {:>11}",
        "phase", "ops", "gets", "inserts", "scans", "p50", "p99", "p999", "ops/sec"
    );
    for (p, ph) in serve.report.phases.iter().enumerate() {
        let (p50, p99, p999) = ph.latency.slo_points();
        let ops_per_sec = phase_ops_per_sec(&serve.report, p, &serve.wall_ns);
        println!(
            "{:11} {:>9} {:>8} {:>8} {:>7} {:>8}ns {:>8}ns {:>8}ns {:>11.0}",
            PHASE_NAMES[p], ph.ops, ph.gets, ph.inserts, ph.scans, p50, p99, p999, ops_per_sec
        );
    }

    let pass = frozen_ok && latency_flat && rebuild_ok && serve_ok;

    for (name, ph) in PHASE_NAMES.iter().zip(&serve.report.phases) {
        let (p50, p99, p999) = ph.latency.slo_points();
        println!(
            "DIGEST phase={name} ops={} gets={} inserts={} scans={} errors={} \
             p50={p50}ns p99={p99}ns p999={p999}ns",
            ph.ops, ph.gets, ph.inserts, ph.scans, ph.errors,
        );
    }
    println!(
        "DIGEST frozen keys={} churn_inserts={} churn_swaps={} range_equal={} \
         points_equal={} invisible={} lifecycle={}",
        frozen.shadow_keys,
        frozen.churn_inserts,
        frozen.churn_swaps,
        frozen.range_equal,
        frozen.points_equal,
        frozen.invisible,
        frozen.lifecycle_ok,
    );
    println!(
        "DIGEST rebuild shards={} incremental={} full={} reused={} reencoded={} \
         frac={:.4} contents={}",
        rebuild.reports.len(),
        rebuild.incremental,
        rebuild.full,
        rebuild.reused_bytes,
        rebuild.reencoded_bytes,
        rebuild.reencoded_frac,
        rebuild.contents_ok,
    );
    // Gate (b) is wall clock: only the boolean and the sizes reach the
    // deterministic DIGEST stream.
    println!("DIGEST capture small_keys={small_keys} large_keys={large_keys} flat={latency_flat}");
    println!(
        "DIGEST serving completed={}/{} rejected={} tickets={}/{} snap_scans={} \
         taken={taken} dropped={dropped} active={active} errors={errors}",
        serve.report.total_ops(),
        serve.submitted,
        serve.report.total_rejected(),
        serve.tickets_resolved,
        serve.tickets_issued,
        serve.snap_scans,
    );
    println!(
        "DIGEST gates frozen={frozen_ok} latency_flat={latency_flat} rebuild={rebuild_ok} \
         exactly_once={exactly_once} snap_balanced={snap_balanced} pass={pass}"
    );

    write_json(&WriteArgs {
        path: &out,
        cfg: &cfg,
        ops,
        frozen: &frozen,
        small_keys,
        large_keys,
        small_med,
        large_med,
        latency_ratio,
        rebuild: &rebuild,
        serve: &serve,
        taken,
        dropped,
        pass,
    });
    println!("# wrote {out}");
    println!("# fig22_snapshot_rebuild — {}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        if !frozen_ok {
            println!("- snapshot equals the shadow map of the capture instant  (required)");
            println!(
                "+ range_equal={} points_equal={} invisible={} lifecycle={}",
                frozen.range_equal, frozen.points_equal, frozen.invisible, frozen.lifecycle_ok
            );
        }
        if !latency_flat {
            println!("- capture latency flat in store size (<= {LATENCY_FLAT_RATIO}x)  (required)");
            println!("+ {small_med} ns vs {large_med} ns (ratio {latency_ratio:.2})");
        }
        if !rebuild_ok {
            println!(
                "- >=1 incremental swap, re-encoded fraction < {MAX_REENCODED_FRAC}, \
                 contents preserved  (required)"
            );
            println!(
                "+ incremental={} frac={:.4} contents={}",
                rebuild.incremental, rebuild.reencoded_frac, rebuild.contents_ok
            );
        }
        if !serve_ok {
            println!("- serving exactly-once with balanced snapshot lifecycle  (required)");
            println!(
                "+ completed {}/{}, rejected {}, tickets {}/{}, snap_scans {} vs \
                 taken {taken}/dropped {dropped}/active {active}, errors {errors}",
                serve.report.total_ops(),
                serve.submitted,
                serve.report.total_rejected(),
                serve.tickets_resolved,
                serve.tickets_issued,
                serve.snap_scans,
            );
        }
        std::process::exit(1);
    }
}

/// Everything `write_json` needs (bundled for clippy's argument-count
/// lint, same shape as the other serving benches).
struct WriteArgs<'a> {
    path: &'a str,
    cfg: &'a BenchConfig,
    ops: usize,
    frozen: &'a FrozenOutcome,
    small_keys: usize,
    large_keys: usize,
    small_med: u64,
    large_med: u64,
    latency_ratio: f64,
    rebuild: &'a RebuildOutcome,
    serve: &'a ServeOutcome,
    taken: u64,
    dropped: u64,
    pass: bool,
}

/// Hand-rolled JSON (the workspace builds offline; no serde) — schema
/// documented in DESIGN.md, "Snapshots & incremental rebuild".
fn write_json(a: &WriteArgs<'_>) {
    let mut s = String::new();
    json_head(&mut s, "fig22_snapshot_rebuild", a.cfg, a.ops);
    s.push_str(&format!(
        "  \"frozen\": {{\"keys\": {}, \"churn_inserts\": {}, \"churn_swaps\": {}, \
         \"range_equal\": {}, \"points_equal\": {}, \"invisible\": {}, \"lifecycle\": {}}},\n",
        a.frozen.shadow_keys,
        a.frozen.churn_inserts,
        a.frozen.churn_swaps,
        a.frozen.range_equal,
        a.frozen.points_equal,
        a.frozen.invisible,
        a.frozen.lifecycle_ok,
    ));
    s.push_str(&format!(
        "  \"capture\": {{\"small_keys\": {}, \"large_keys\": {}, \"small_median_ns\": {}, \
         \"large_median_ns\": {}, \"ratio\": {:.4}, \"gate_ratio\": {LATENCY_FLAT_RATIO}}},\n",
        a.small_keys, a.large_keys, a.small_med, a.large_med, a.latency_ratio,
    ));
    s.push_str(&format!(
        "  \"rebuild\": {{\"incremental\": {}, \"full\": {}, \"reused_bytes\": {}, \
         \"reencoded_bytes\": {}, \"reencoded_frac\": {:.4}, \
         \"gate_frac\": {MAX_REENCODED_FRAC}, \"contents_ok\": {}, \"shards\": [\n",
        a.rebuild.incremental,
        a.rebuild.full,
        a.rebuild.reused_bytes,
        a.rebuild.reencoded_bytes,
        a.rebuild.reencoded_frac,
        a.rebuild.contents_ok,
    ));
    for (i, r) in a.rebuild.reports.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"shard\": {}, \"keys\": {}, \"incremental\": {}, \"reused_bytes\": {}, \
             \"reencoded_bytes\": {}}}{}\n",
            r.shard,
            r.live_keys,
            r.incremental,
            r.reused_bytes,
            r.reencoded_bytes,
            if i + 1 < a.rebuild.reports.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]},\n");
    s.push_str(&format!(
        "  \"serving\": {{\"submitted\": {}, \"completed\": {}, \"rejected\": {}, \
         \"snap_scans\": {}, \"snapshots_taken\": {}, \"snapshots_dropped\": {}, \
         \"tickets_issued\": {}, \"tickets_resolved\": {}}},\n",
        a.serve.submitted,
        a.serve.report.total_ops(),
        a.serve.report.total_rejected(),
        a.serve.snap_scans,
        a.taken,
        a.dropped,
        a.serve.tickets_issued,
        a.serve.tickets_resolved,
    ));
    s.push_str(&format!("  \"pass\": {},\n", a.pass));
    s.push_str("  \"units\": \"ns\",\n  \"phases\": [\n");
    for p in 0..a.serve.report.phases.len() {
        let ops_per_sec = phase_ops_per_sec(&a.serve.report, p, &a.serve.wall_ns);
        json_phase(&mut s, &a.serve.report, p, ops_per_sec, p + 1 == a.serve.report.phases.len());
    }
    s.push_str("  ]\n}\n");
    std::fs::write(a.path, s).expect("write BENCH_snapshot.json");
}
