//! `fig20_fault_slo` — the fault-injection acceptance bench: bounded
//! degradation of the serving pipeline while one worker is sick and the
//! maintenance path is forced to fail rebuilds.
//!
//! The run drives the fig18 mixed-shift traffic (70/20/10 get/insert/scan
//! with a mid-run Email-A → Email-B distribution shift) twice over
//! identical op streams:
//!
//! 1. **baseline** — no faults, the fig18 shape with driver-paced
//!    maintenance;
//! 2. **faulted** — a deterministic [`FaultPlan`] degrades worker 1 by
//!    10× (probe slowdown), stalls 1-in-97 of its requests, sprinkles
//!    latency spikes and queue-pressure bursts across all workers, sheds
//!    75% of the sick worker's would-be traffic to healthy peers at
//!    admission, and forces every other rebuild attempt per shard to
//!    fail with `FaultInjected`.
//!
//! Gates:
//!
//! * **(a) bounded degradation** — p999 of the requests executed by
//!   *healthy* workers in the faulted run stays within
//!   [`TARGET_HEALTHY_P999_RATIO`]× of the no-fault baseline p999: the
//!   shed hook must isolate the sick worker, not spread its sickness;
//! * **(b) exactly-once** — in both runs every admitted request
//!   completes exactly once (`completed == submitted`, zero rejects) and
//!   every sampled completion ticket is resolved, injected stalls or
//!   not;
//! * **(c) attribution** — every injected rebuild failure is visible in
//!   telemetry: driver-collected `FaultInjected` errors ==
//!   `RebuildFailed` events in the ring == the
//!   `store.faults.injected_rebuild_failures` counter, at least one was
//!   injected, and the store *heals*: the final maintenance pass
//!   succeeds with no errors.
//!
//! **Determinism**: `--quick` switches to virtual-time accounting; every
//! fault decision is a pure function of `(worker, request index, phase)`
//! and the single producer makes request indices equal stream positions,
//! so two quick runs print byte-identical `DIGEST` lines (per-phase
//! quantiles, fault tallies, shed counts, healthy/degraded tails,
//! verdicts). CI runs the binary twice and diffs the digests. Counts
//! that depend on reservoir interleaving (rebuild attempt totals across
//! healing passes) stay out of the digest.
//!
//! Usage: `cargo run --release -p hope_bench --bin fig20_fault_slo
//!         [-- --keys N --queries N --seed N --quick --out PATH]`

use std::time::Instant;

use hope_bench::harness::{
    build_serving_store, out_path, phase_bounds, serving_config, to_request, PHASE_NAMES,
};
use hope_bench::BenchConfig;
use hope_store::serving::{FaultPlan, LatencyHistogram, Server, ServingConfig, ServingReport};
use hope_store::telemetry::EventKind;
use hope_store::StoreError;
use hope_workloads::{MixedWorkload, TrafficSpec};

/// Gate (a): healthy-worker p999 in the faulted run must stay within
/// this factor of the no-fault baseline p999.
const TARGET_HEALTHY_P999_RATIO: f64 = 3.0;

/// One producer thread: admission order equals stream order, which makes
/// every per-index fault decision reproducible run to run.
const WORKERS: usize = 4;

/// The sick worker the plan degrades.
const DEGRADED: usize = 1;

/// Every Nth submit carries a completion ticket; gate (b) asserts all of
/// them resolve.
const TICKET_SAMPLE: usize = 64;

/// Healing passes allowed after the traffic ends before gate (c) calls
/// the store unhealed (every failed attempt heals on the next pass at
/// `rebuild_fail_every = 2`, so two is already generous).
const MAX_HEAL_PASSES: usize = 4;

/// Everything one pass (baseline or faulted) produced.
struct PassOutcome {
    report: ServingReport,
    wall_ns: [u64; 3],
    submitted: u64,
    tickets_issued: u64,
    tickets_resolved: u64,
    /// `FaultInjected` errors collected from every maintenance pass.
    injected: Vec<(usize, StoreError)>,
    /// The final maintenance pass reported no errors.
    healed: bool,
}

/// Drive the three-phase traffic through a fresh store, maintenance
/// paced by the driver (after the shift phase and again after the run,
/// looping until clean) so rebuild attempts happen in a deterministic
/// order.
fn run_pass(cfg: &BenchConfig, workload: &MixedWorkload, plan: Option<FaultPlan>) -> PassOutcome {
    let bounds = phase_bounds(workload);
    let store = build_serving_store(workload);
    if let Some(p) = plan {
        store.inject_faults(p);
    }
    let serving = ServingConfig { faults: plan, ..serving_config(cfg.quick) };
    let server = Server::start(std::sync::Arc::clone(&store), serving).expect("server start");

    let mut wall_ns = [0u64; 3];
    let mut submitted = 0u64;
    let mut tickets = Vec::new();
    let mut injected = Vec::new();
    let mut healed = false;
    for (phase, &(lo, hi)) in bounds.iter().enumerate() {
        let t0 = Instant::now();
        for (i, op) in workload.ops[lo..hi].iter().enumerate() {
            // One producer, in stream order: the admission index every
            // fault decision keys on equals the stream position.
            if i % TICKET_SAMPLE == 0 {
                tickets.push(server.submit(to_request(op), phase).expect("server open"));
            } else {
                server.submit_detached(to_request(op), phase).expect("server open");
            }
        }
        server.flush();
        wall_ns[phase] = t0.elapsed().as_nanos() as u64;
        submitted += (hi - lo) as u64;
        // Driver-paced maintenance: one pass right after the shift (where
        // fig18's maintainer would have swapped), then after the run a
        // healing loop — every injected failure is followed by a clean
        // retry at `rebuild_fail_every = 2`.
        let passes = if phase == 0 {
            0
        } else if phase == 1 {
            1
        } else {
            MAX_HEAL_PASSES
        };
        for _ in 0..passes {
            let (_, errors) = store.maintain();
            let clean = errors.is_empty();
            for (shard, e) in errors {
                assert!(
                    matches!(e, StoreError::FaultInjected { .. }),
                    "real rebuild error on shard {shard}: {e}"
                );
                injected.push((shard, e));
            }
            if phase == 2 {
                healed = clean;
                if clean {
                    break;
                }
            }
        }
    }
    let tickets_issued = tickets.len() as u64;
    let tickets_resolved = tickets.iter().filter(|t| t.is_done()).count() as u64;
    let report = server.shutdown();
    PassOutcome { report, wall_ns, submitted, tickets_issued, tickets_resolved, injected, healed }
}

fn main() {
    let cfg = BenchConfig::from_args();
    let out = out_path(&cfg, "BENCH_faults");
    let ops = if cfg.quick { cfg.queries } else { cfg.queries.saturating_mul(20) };

    let plan = FaultPlan {
        seed: cfg.seed,
        degraded_worker: Some(DEGRADED),
        slow_factor: 10,
        stall_every: 97,
        stall_ns: 50_000,
        spike_every: 2_000,
        spike_ns: 10_000,
        burst_every: 8_192,
        burst_len: 16,
        burst_ns: 4_000,
        shed_pct: 75,
        rebuild_fail_every: 2,
        phase_mask: u16::MAX,
    };
    println!(
        "# fig20_fault_slo: {} initial keys, {} ops, seed {}, {} mode",
        cfg.keys,
        ops,
        cfg.seed,
        if cfg.quick { "virtual-time (deterministic)" } else { "wall-clock" }
    );
    println!("# plan {plan}");
    let workload = MixedWorkload::generate(cfg.keys, ops, TrafficSpec::default(), cfg.seed);

    let base = run_pass(&cfg, &workload, None);
    let faulted = run_pass(&cfg, &workload, Some(plan));

    // Gate (a): healthy-worker tail in the faulted run vs the no-fault
    // baseline (all workers are healthy there).
    let mut base_all = LatencyHistogram::new();
    for w in &base.report.worker_stats {
        base_all.merge(&w.latency);
    }
    let mut healthy = LatencyHistogram::new();
    let mut sick = LatencyHistogram::new();
    let (mut healthy_ops, mut degraded_ops) = (0u64, 0u64);
    for w in &faulted.report.worker_stats {
        if w.degraded {
            sick.merge(&w.latency);
            degraded_ops += w.ops;
        } else {
            healthy.merge(&w.latency);
            healthy_ops += w.ops;
        }
    }
    let base_p999 = base_all.quantile_ns(0.999).max(1);
    let healthy_p999 = healthy.quantile_ns(0.999);
    let degraded_p999 = sick.quantile_ns(0.999);
    let p999_ratio = healthy_p999 as f64 / base_p999 as f64;
    let p999_ok = p999_ratio <= TARGET_HEALTHY_P999_RATIO;

    // Gate (b): exactly-once in both runs, every sampled ticket resolved.
    let exactly_once = [&base, &faulted].iter().all(|p| {
        p.report.total_ops() == p.submitted
            && p.report.total_rejected() == 0
            && p.tickets_resolved == p.tickets_issued
    });
    let errors: u64 = faulted.report.phases.iter().map(|p| p.errors).sum::<u64>()
        + base.report.phases.iter().map(|p| p.errors).sum::<u64>();

    // Gate (c): every injected rebuild failure is attributable from the
    // event ring and the counter alone, and the store healed after.
    let injected_seen = faulted.injected.len() as u64;
    let events_seen = faulted.report.telemetry.events_of(EventKind::RebuildFailed).count() as u64;
    let counter_seen =
        faulted.report.telemetry.counter("store.faults.injected_rebuild_failures").unwrap_or(0);
    let attributed =
        injected_seen >= 1 && injected_seen == events_seen && injected_seen == counter_seen;
    let base_clean = base.injected.is_empty() && base.healed;

    let pass = p999_ok && exactly_once && errors == 0 && attributed && faulted.healed && base_clean;

    print_report(&cfg, &faulted.report, &faulted.wall_ns);
    println!(
        "# rebuild failures injected: {injected_seen} (events {events_seen}, counter \
         {counter_seen}), healed = {}",
        faulted.healed
    );

    let tally = faulted.report.worker_stats.iter().fold(
        hope_store::serving::FaultTally::default(),
        |mut acc, w| {
            acc.merge(&w.faults);
            acc
        },
    );
    for (name, ph) in PHASE_NAMES.iter().zip(&faulted.report.phases) {
        let (p50, p99, p999) = ph.latency.slo_points();
        println!(
            "DIGEST phase={name} ops={} gets={} inserts={} scans={} errors={} \
             p50={p50}ns p99={p99}ns p999={p999}ns",
            ph.ops, ph.gets, ph.inserts, ph.scans, ph.errors,
        );
    }
    println!(
        "DIGEST faults slowed={} stalled={} burst={} spiked={} rerouted={} \
         degraded_ops={degraded_ops} healthy_ops={healthy_ops}",
        tally.slowed, tally.stalled, tally.burst, tally.spiked, faulted.report.rerouted,
    );
    println!(
        "DIGEST slo base_p999={base_p999}ns healthy_p999={healthy_p999}ns \
         degraded_p999={degraded_p999}ns ratio={p999_ratio:.2}"
    );
    println!(
        "DIGEST gates completed={}/{} rejected={} tickets={}/{} errors={errors} \
         p999_ok={p999_ok} attributed={attributed} healed={} pass={pass}",
        faulted.report.total_ops(),
        faulted.submitted,
        faulted.report.total_rejected(),
        faulted.tickets_resolved,
        faulted.tickets_issued,
        faulted.healed,
    );

    write_json(&out, &cfg, ops, &plan, &base, &faulted, p999_ratio, pass);
    println!("# wrote {out}");
    println!("# fig20_fault_slo — {}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        if !p999_ok {
            println!("- healthy p999 <= {TARGET_HEALTHY_P999_RATIO}x baseline p999  (required)");
            println!("+ ratio == {p999_ratio:.2} ({healthy_p999} ns vs {base_p999} ns)");
        }
        if !exactly_once {
            println!("- every admitted request completed exactly once  (required)");
            for (name, p) in [("base", &base), ("faulted", &faulted)] {
                println!(
                    "+ {name}: completed {}/{}, rejected {}, tickets {}/{}",
                    p.report.total_ops(),
                    p.submitted,
                    p.report.total_rejected(),
                    p.tickets_resolved,
                    p.tickets_issued
                );
            }
        }
        if errors > 0 {
            println!("- errors == 0  (required)\n+ errors == {errors}");
        }
        if !attributed {
            println!("- injected >= 1 and errors == events == counter  (required)");
            println!("+ injected {injected_seen}, events {events_seen}, counter {counter_seen}");
        }
        if !faulted.healed {
            println!("- final maintenance pass heals every shard  (required)");
            println!("+ rebuild errors persisted after {MAX_HEAL_PASSES} passes");
        }
        if !base_clean {
            println!("- baseline run maintains cleanly with no injections  (required)");
            println!("+ baseline injected {} / healed {}", base.injected.len(), base.healed);
        }
        std::process::exit(1);
    }
}

fn print_report(cfg: &BenchConfig, report: &ServingReport, wall_ns: &[u64; 3]) {
    println!("\n# faulted run: {} workers, worker {DEGRADED} degraded", report.workers);
    println!(
        "{:11} {:>9} {:>8} {:>8} {:>7} {:>10} {:>10} {:>10}",
        "phase", "ops", "gets", "inserts", "scans", "p50", "p99", "p999"
    );
    for (p, ph) in report.phases.iter().enumerate() {
        let (p50, p99, p999) = ph.latency.slo_points();
        let _ = wall_ns[p];
        println!(
            "{:11} {:>9} {:>8} {:>8} {:>7} {:>8}ns {:>8}ns {:>8}ns",
            PHASE_NAMES[p], ph.ops, ph.gets, ph.inserts, ph.scans, p50, p99, p999
        );
    }
    for w in &report.worker_stats {
        let (p50, p99, p999) = w.latency.slo_points();
        println!(
            "# worker {}{}: {} ops, p50 {p50}ns p99 {p99}ns p999 {p999}ns, faults \
             slowed={} stalled={} burst={} spiked={}",
            w.worker,
            if w.degraded { " (degraded)" } else { "" },
            w.ops,
            w.faults.slowed,
            w.faults.stalled,
            w.faults.burst,
            w.faults.spiked,
        );
    }
    if !cfg.quick {
        println!(
            "# wall: pre {:.1}ms shift {:.1}ms post {:.1}ms",
            wall_ns[0] as f64 / 1e6,
            wall_ns[1] as f64 / 1e6,
            wall_ns[2] as f64 / 1e6
        );
    }
}

/// Hand-rolled JSON (the workspace builds offline; no serde) — schema
/// documented in DESIGN.md, "Fault injection".
#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    cfg: &BenchConfig,
    ops: usize,
    plan: &FaultPlan,
    base: &PassOutcome,
    faulted: &PassOutcome,
    p999_ratio: f64,
    pass: bool,
) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"fig20_fault_slo\",\n  \"dataset\": \"email-mixed-traffic\",\n");
    s.push_str(&format!(
        "  \"keys\": {},\n  \"ops\": {},\n  \"seed\": {},\n  \"quick\": {},\n",
        cfg.keys, ops, cfg.seed, cfg.quick
    ));
    s.push_str(&format!("  \"plan\": \"{plan}\",\n"));
    s.push_str(&format!("  \"workers\": {WORKERS},\n  \"degraded_worker\": {DEGRADED},\n"));
    s.push_str(&format!("  \"target_healthy_p999_ratio\": {TARGET_HEALTHY_P999_RATIO},\n"));
    s.push_str(&format!("  \"healthy_p999_over_base\": {p999_ratio:.4},\n"));
    s.push_str(&format!(
        "  \"injected_rebuild_failures\": {},\n  \"healed\": {},\n",
        faulted.injected.len(),
        faulted.healed
    ));
    s.push_str(&format!("  \"rerouted\": {},\n", faulted.report.rerouted));
    s.push_str(&format!("  \"pass\": {pass},\n"));
    s.push_str("  \"units\": \"ns\",\n  \"runs\": [\n");
    for (i, (name, p)) in [("baseline", base), ("faulted", faulted)].iter().enumerate() {
        let mut all = LatencyHistogram::new();
        for w in &p.report.worker_stats {
            all.merge(&w.latency);
        }
        let (p50, p99, p999) = all.slo_points();
        s.push_str(&format!(
            "    {{\"run\": \"{name}\", \"ops\": {}, \"rejected\": {}, \"tickets\": {}, \
             \"p50_ns\": {p50}, \"p99_ns\": {p99}, \"p999_ns\": {p999}, \"mean_ns\": {:.1}, \
             \"max_ns\": {}, \"rerouted\": {}, \"workers\": [\n",
            p.report.total_ops(),
            p.report.total_rejected(),
            p.tickets_issued,
            all.mean_ns(),
            all.max_ns(),
            p.report.rerouted,
        ));
        for (j, w) in p.report.worker_stats.iter().enumerate() {
            let (wp50, wp99, wp999) = w.latency.slo_points();
            s.push_str(&format!(
                "      {{\"worker\": {}, \"degraded\": {}, \"ops\": {}, \"p50_ns\": {wp50}, \
                 \"p99_ns\": {wp99}, \"p999_ns\": {wp999}, \"slowed\": {}, \"stalled\": {}, \
                 \"burst\": {}, \"spiked\": {}}}{}\n",
                w.worker,
                w.degraded,
                w.ops,
                w.faults.slowed,
                w.faults.stalled,
                w.faults.burst,
                w.faults.spiked,
                if j + 1 < p.report.worker_stats.len() { "," } else { "" },
            ));
        }
        s.push_str(&format!("    ]}}{}\n", if i == 0 { "," } else { "" }));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).expect("write BENCH_faults.json");
}
