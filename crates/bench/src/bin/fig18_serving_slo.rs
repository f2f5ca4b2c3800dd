//! `fig18_serving_slo` — the serving-harness acceptance bench: tail
//! latency and throughput of `hope_store::serving` under mixed traffic
//! with a mid-run distribution shift.
//!
//! The ROADMAP's north star is *serving* — not codec microbenches — so
//! this binary drives the full request pipeline: a thread-per-core
//! [`Server`] over a sharded [`HopeStore`](hope_store::HopeStore), fed the
//! `hope_workloads::traffic` mixed stream (70/20/10 get/insert/scan)
//! whose insert population switches from Email-A to Email-B mid-run, with
//! a [`Maintainer`] hot-swapping drifted dictionaries under the live
//! traffic. Three phases are measured separately:
//!
//! 1. **pre_shift** — steady state on the trained distribution;
//! 2. **shift** — the Email-B inserts arrive and the dictionaries
//!    hot-swap while requests keep flowing;
//! 3. **post_shift** — steady state on the retrained dictionaries.
//!
//! Per phase it records p50/p99/p999 latency, mean/max, and ops/sec into
//! `BENCH_serving.json` (`--out PATH` overrides), then applies the gates:
//!
//! * every admitted request completed, exactly once (`completed ==
//!   admitted`, no rejects under the backpressure driver);
//! * zero store errors across all phases;
//! * at least one dictionary hot-swap observed during the shift phase;
//! * shift-phase p99 within [`TARGET_P99_RATIO`]× of pre-shift p99;
//! * in virtual mode, merged throughput ≥ [`TARGET_VIRTUAL_MOPS`] M
//!   ops/s.
//!
//! **Determinism**: `--quick` switches the server to virtual-time
//! accounting ([`hope_store::serving::virtual_cost`]) — each request's
//! latency is a pure function of the request, the op stream is a pure
//! function of the seed, and routing is a pure function of the keys, so
//! two quick runs print byte-identical `DIGEST` lines (op counts per
//! phase, latency quantiles, virtual throughput, verdicts) no matter how
//! threads interleave. CI runs the binary twice and diffs the digests.
//!
//! Usage: `cargo run --release -p hope_bench --bin fig18_serving_slo
//!         [-- --keys N --queries N --seed N --quick --out PATH]`
//!
//! The full (non-quick) run drives `20 × queries` operations — two
//! million at the defaults — in wall-clock mode; quick drives `queries`
//! operations in virtual mode.

use std::sync::Arc;
use std::time::Instant;

use hope_bench::harness::{
    build_serving_store, json_head, json_phase, out_path, phase_bounds, phase_ops_per_sec,
    serving_config, to_request, PHASE_NAMES,
};
use hope_bench::BenchConfig;
use hope_store::serving::{Server, ServingReport};
use hope_store::Maintainer;
use hope_workloads::{MixedWorkload, TrafficSpec};

/// Gate: shift-phase p99 must stay within this factor of pre-shift p99
/// (a hot-swap must not melt the tail; virtual mode sits near 1×).
const TARGET_P99_RATIO: f64 = 10.0;

/// Gate (virtual mode): merged virtual throughput across phases, in
/// millions of ops per second per busiest worker.
const TARGET_VIRTUAL_MOPS: f64 = 0.5;

/// Producer threads feeding the server (each takes one
/// `split_across` stream).
const PRODUCERS: usize = 2;

fn main() {
    let cfg = BenchConfig::from_args();
    let out = out_path(&cfg, "BENCH_serving");
    let ops = if cfg.quick { cfg.queries } else { cfg.queries.saturating_mul(20) };

    println!(
        "# fig18_serving_slo: {} initial keys, {} ops, seed {}, {} mode",
        cfg.keys,
        ops,
        cfg.seed,
        if cfg.quick { "virtual-time (deterministic)" } else { "wall-clock" }
    );
    let workload = MixedWorkload::generate(cfg.keys, ops, TrafficSpec::default(), cfg.seed);
    let bounds = phase_bounds(&workload);

    let store = build_serving_store(&workload);
    let serving = serving_config(cfg.quick);
    let server = Server::start(Arc::clone(&store), serving).expect("server start");
    let streams = workload.split_across(PRODUCERS);

    // Hot-swap runs *concurrently with the traffic*: the maintainer polls
    // for drift while the producers submit.
    let maintainer = Maintainer::spawn(Arc::clone(&store), std::time::Duration::from_millis(2));

    let mut wall_ns = [0u64; 3];
    let mut submitted = 0u64;
    let mut swap_in_shift = false;
    for (phase, &(lo, hi)) in bounds.iter().enumerate() {
        let epochs_before = store.epochs();
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for stream in &streams {
                let server = &server;
                s.spawn(move || {
                    let a = stream.partition_point(|(i, _)| *i < lo);
                    let b = stream.partition_point(|(i, _)| *i < hi);
                    for (_, op) in &stream[a..b] {
                        // Backpressure submit: the acceptance run admits
                        // the entire fixed op sequence (load shedding is
                        // exercised by tests/serving_overload.rs).
                        server.submit_detached(to_request(op), phase).expect("server open");
                    }
                });
            }
        });
        server.flush();
        wall_ns[phase] = t0.elapsed().as_nanos() as u64;
        submitted += (hi - lo) as u64;
        if phase == 1 {
            // The maintainer usually swapped already; one direct pass
            // makes the verdict timing-independent — by end of shift the
            // drift has either been detected or the gate should fail.
            let _ = store.maintain();
            swap_in_shift = store.epochs() != epochs_before;
        }
    }
    let log = maintainer.stop();
    let report = server.shutdown();
    assert!(log.errors.is_empty(), "maintenance rebuild errors: {:?}", log.errors);

    print_report(&report, &wall_ns);

    // Gates.
    let completed = report.total_ops();
    let rejected = report.total_rejected();
    let errors: u64 = report.phases.iter().map(|p| p.errors).sum();
    let p99_pre = report.phases[0].latency.quantile_ns(0.99).max(1);
    let p99_shift = report.phases[1].latency.quantile_ns(0.99);
    let p99_ratio = p99_shift as f64 / p99_pre as f64;
    let vmops =
        report.phases.iter().map(|p| p.virtual_ops_per_sec()).fold(f64::INFINITY, f64::min) / 1e6;
    let exactly_once = completed == submitted && rejected == 0;
    let p99_ok = p99_ratio <= TARGET_P99_RATIO;
    let vmops_ok = !cfg.quick || vmops >= TARGET_VIRTUAL_MOPS;
    let pass = exactly_once && errors == 0 && swap_in_shift && p99_ok && vmops_ok;

    for (p, name) in PHASE_NAMES.iter().enumerate() {
        let ph = &report.phases[p];
        let (p50, p99, p999) = ph.latency.slo_points();
        let ops_per_sec = phase_ops_per_sec(&report, p, &wall_ns);
        println!(
            "DIGEST phase={} ops={} gets={} inserts={} scans={} errors={} \
             p50={p50}ns p99={p99}ns p999={p999}ns kops={:.1}",
            name,
            ph.ops,
            ph.gets,
            ph.inserts,
            ph.scans,
            ph.errors,
            // Wall-clock throughput is machine noise; keep it out of the
            // determinism digest in quick mode by rounding virtual kops.
            ops_per_sec / 1e3,
        );
    }
    println!(
        "DIGEST gates completed={completed}/{submitted} rejected={rejected} errors={errors} \
         swap_in_shift={swap_in_shift} p99_ratio={p99_ratio:.2} pass={pass}"
    );

    write_json(&out, &cfg, ops, &report, &wall_ns, swap_in_shift, p99_ratio, pass);
    println!("# wrote {out} ({} maintainer swaps)", log.swaps.len());
    println!("# fig18_serving_slo — {}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        if !exactly_once {
            println!("- completed == submitted, rejected == 0  (required)");
            println!("+ completed {completed} / submitted {submitted}, rejected {rejected}");
        }
        if errors > 0 {
            println!("- errors == 0  (required)\n+ errors == {errors}");
        }
        if !swap_in_shift {
            println!("- a dictionary hot-swap during the shift phase  (required)");
            println!("+ no shard epoch changed");
        }
        if !p99_ok {
            println!("- shift p99 <= {TARGET_P99_RATIO}x pre-shift p99  (required)");
            println!("+ ratio == {p99_ratio:.2} ({p99_shift} ns vs {p99_pre} ns)");
        }
        if !vmops_ok {
            println!("- virtual throughput >= {TARGET_VIRTUAL_MOPS} M ops/s  (required)");
            println!("+ measured {vmops:.3} M ops/s");
        }
        std::process::exit(1);
    }
}

fn print_report(report: &ServingReport, wall_ns: &[u64; 3]) {
    println!("\n# {} workers, queue {} × {}, batch {}", report.workers, report.workers, 1024, 64);
    println!(
        "{:11} {:>9} {:>8} {:>8} {:>7} {:>10} {:>10} {:>10} {:>11}",
        "phase", "ops", "gets", "inserts", "scans", "p50", "p99", "p999", "ops/sec"
    );
    for (p, ph) in report.phases.iter().enumerate() {
        let (p50, p99, p999) = ph.latency.slo_points();
        let ops_per_sec = phase_ops_per_sec(report, p, wall_ns);
        println!(
            "{:11} {:>9} {:>8} {:>8} {:>7} {:>8}ns {:>8}ns {:>8}ns {:>11.0}",
            PHASE_NAMES[p], ph.ops, ph.gets, ph.inserts, ph.scans, p50, p99, p999, ops_per_sec
        );
    }
    for (i, q) in report.queues.iter().enumerate() {
        println!(
            "# queue {i}: {} enqueued, {} rejected, {} batches, peak depth {}",
            q.enqueued, q.rejected, q.batches, q.peak_depth
        );
    }
}

/// Hand-rolled JSON (the workspace builds offline; no serde) — schema
/// documented in DESIGN.md, "Serving harness".
#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    cfg: &BenchConfig,
    ops: usize,
    report: &ServingReport,
    wall_ns: &[u64; 3],
    swap_in_shift: bool,
    p99_ratio: f64,
    pass: bool,
) {
    let mut s = String::new();
    json_head(&mut s, "fig18_serving_slo", cfg, ops);
    s.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if report.virtual_time { "virtual" } else { "wall" }
    ));
    s.push_str(&format!(
        "  \"workers\": {},\n  \"queue_capacity\": 1024,\n  \"batch\": 64,\n",
        report.workers
    ));
    s.push_str(&format!("  \"target_p99_ratio\": {TARGET_P99_RATIO},\n"));
    s.push_str(&format!("  \"p99_shift_over_pre\": {p99_ratio:.4},\n"));
    s.push_str(&format!("  \"swap_in_shift\": {swap_in_shift},\n"));
    s.push_str(&format!("  \"pass\": {pass},\n"));
    s.push_str("  \"units\": \"ns\",\n  \"phases\": [\n");
    for p in 0..report.phases.len() {
        let ops_per_sec = phase_ops_per_sec(report, p, wall_ns);
        json_phase(&mut s, report, p, ops_per_sec, p + 1 == report.phases.len());
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).expect("write BENCH_serving.json");
}
