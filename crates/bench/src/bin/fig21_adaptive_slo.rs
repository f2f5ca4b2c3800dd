//! `fig21_adaptive_slo` — the closed-loop admission-control acceptance
//! bench: the fig20 degraded-worker drill with **zero plan-driven
//! shedding**. The injected [`FaultPlan`] only makes worker 1 sick
//! during the shift phase (10× slowdown, 1-in-97 stalls, background
//! spikes); deciding *that* it is sick and *how much* of its traffic to
//! shed is entirely the [`AdmissionConfig`] controller's job.
//!
//! Three passes over identical op streams:
//!
//! 1. **baseline** — no faults, no controller (the reference tail);
//! 2. **control** — no faults, controller on: the false-positive drill.
//!    A healthy run must shed zero requests and make zero decisions;
//! 3. **adaptive** — shift-phase faults + controller: the closed loop.
//!
//! Gates:
//!
//! * **(a) bounded engagement** — the controller's first engage decision
//!   seals within a bounded request count of the fault onset (streak
//!   windows + queue-lag slack, see [`engage_bound`]);
//! * **(b) bounded degradation** — p999 of the requests executed by
//!   healthy workers stays within [`TARGET_HEALTHY_P999_RATIO`]× of the
//!   no-fault baseline — autonomous shedding isolates the sick worker
//!   as well as fig20's hand-fed 75% did;
//! * **(c) exactly-once** — every admitted request completes once, zero
//!   rejects, zero plan reroutes (`shed=0` in the plan), and the
//!   controller's shed count agrees across the report, the
//!   `serving.admission.shed` counter and the per-queue `shed_away`
//!   counters: each shed request was rerouted by exactly one mechanism,
//!   exactly once;
//! * **(d) disengagement** — after the fault phase ends every shed level
//!   walks back to zero within a bounded request count;
//! * **(e) no false positives** — the control pass sheds nothing.
//!
//! **Determinism**: in `--quick` virtual mode the controller observes
//! each request's would-be cost on its home worker at admission, so
//! windows, decisions and shed draws are pure functions of the op
//! stream — two quick runs print byte-identical `DIGEST` lines and CI
//! diffs them. The committed `BENCH_admission.json` is a full-size
//! wall-clock run: there the loop is a genuine feedback controller fed
//! by the workers' real per-request service times.
//!
//! Usage: `cargo run --release -p hope_bench --bin fig21_adaptive_slo
//!         [-- --keys N --queries N --seed N --quick --out PATH]`

use std::time::Instant;

use hope_bench::harness::{
    build_serving_store, json_head, out_path, phase_bounds, phase_ops_per_sec, serving_config,
    to_request, PHASE_NAMES, SERVING_BATCH, SERVING_QUEUE_CAPACITY, SERVING_WORKERS,
};
use hope_bench::BenchConfig;
use hope_store::serving::{
    AdmissionConfig, AdmissionReport, FaultPlan, LatencyHistogram, Server, ServingConfig,
    ServingReport,
};
use hope_store::telemetry::EventKind;

use hope_workloads::{MixedWorkload, TrafficSpec};

/// Gate (b): healthy-worker p999 in the adaptive run must stay within
/// this factor of the no-fault baseline p999 (same bar as fig20).
const TARGET_HEALTHY_P999_RATIO: f64 = 3.0;

/// The sick worker the plan degrades.
const DEGRADED: usize = 1;

/// Every Nth submit carries a completion ticket; gate (c) asserts all
/// of them resolve.
const TICKET_SAMPLE: usize = 64;

/// Requests after fault onset within which the first engage must seal:
/// the engage streak itself plus one partial + one judged window, plus
/// the wall-mode observation lag of everything in flight (full queues).
fn engage_bound(ac: &AdmissionConfig) -> u64 {
    (u64::from(ac.engage_after) + 2) * ac.window + queue_lag()
}

/// Windows granted per healthy verdict the release ladder needs. In
/// wall mode the sick worker's post-fault windows stretch two ways:
/// at high shed levels its sample count runs thin and whole windows
/// abstain, and right after fault end it still drains a queue of
/// penalized requests whose slow completions contaminate post-fault
/// windows with sick evidence while the admission clock races ahead.
const RELEASE_WINDOW_SLACK: u64 = 8;

/// Requests after fault end within which every level must walk back to
/// zero: a full release ladder from the cap (`steps * disengage_after`
/// healthy verdicts, each granted [`RELEASE_WINDOW_SLACK`] windows for
/// abstention and backlog drain), plus partial-window and in-flight
/// slack.
fn disengage_bound(ac: &AdmissionConfig) -> u64 {
    let steps = u64::from(ac.max_shed_pct.div_ceil(ac.shed_step_pct));
    (steps * u64::from(ac.disengage_after) * RELEASE_WINDOW_SLACK + 4) * ac.window + queue_lag()
}

/// Upper bound on requests in flight (admitted, not yet executed): in
/// wall mode their observations lag the admission clock by this much.
fn queue_lag() -> u64 {
    (SERVING_WORKERS * (SERVING_QUEUE_CAPACITY + SERVING_BATCH)) as u64
}

/// Everything one pass produced.
struct PassOutcome {
    report: ServingReport,
    wall_ns: [u64; 3],
    submitted: u64,
    tickets_issued: u64,
    tickets_resolved: u64,
}

/// Drive the three-phase traffic through a fresh store with one
/// producer (admission index == stream position), maintenance paced by
/// the driver after the shift and after the run — the fig20 drill
/// shape, minus plan-driven shedding and rebuild faults.
fn run_pass(
    cfg: &BenchConfig,
    workload: &MixedWorkload,
    plan: Option<FaultPlan>,
    admission: Option<AdmissionConfig>,
) -> PassOutcome {
    let bounds = phase_bounds(workload);
    let store = build_serving_store(workload);
    let serving = ServingConfig { faults: plan, admission, ..serving_config(cfg.quick) };
    let server = Server::start(std::sync::Arc::clone(&store), serving).expect("server start");

    let mut wall_ns = [0u64; 3];
    let mut submitted = 0u64;
    let mut tickets = Vec::new();
    for (phase, &(lo, hi)) in bounds.iter().enumerate() {
        let t0 = Instant::now();
        for (i, op) in workload.ops[lo..hi].iter().enumerate() {
            if i % TICKET_SAMPLE == 0 {
                tickets.push(server.submit(to_request(op), phase).expect("server open"));
            } else {
                server.submit_detached(to_request(op), phase).expect("server open");
            }
        }
        server.flush();
        wall_ns[phase] = t0.elapsed().as_nanos() as u64;
        submitted += (hi - lo) as u64;
        if phase > 0 {
            // One maintenance pass after the shift (dictionaries re-train
            // under the live drill) and one after the run.
            let (_, errors) = store.maintain();
            assert!(errors.is_empty(), "unexpected rebuild errors: {errors:?}");
        }
    }
    let tickets_issued = tickets.len() as u64;
    let tickets_resolved = tickets.iter().filter(|t| t.is_done()).count() as u64;
    let report = server.shutdown();
    PassOutcome { report, wall_ns, submitted, tickets_issued, tickets_resolved }
}

fn main() {
    let cfg = BenchConfig::from_args();
    let out = out_path(&cfg, "BENCH_admission");
    let ops = if cfg.quick { cfg.queries } else { cfg.queries.saturating_mul(20) };

    let ac = if cfg.quick {
        AdmissionConfig::quick(cfg.seed)
    } else {
        AdmissionConfig { seed: cfg.seed, ..AdmissionConfig::default() }
    };
    // The fig20 sickness, confined to the shift phase (mask bit 1), with
    // plan-driven shedding and rebuild faults OFF: detection and
    // mitigation belong to the controller alone.
    let plan = FaultPlan {
        seed: cfg.seed,
        degraded_worker: Some(DEGRADED),
        slow_factor: 10,
        stall_every: 97,
        stall_ns: 50_000,
        spike_every: 2_000,
        spike_ns: 10_000,
        shed_pct: 0,
        rebuild_fail_every: 0,
        phase_mask: 0b010,
        ..FaultPlan::default()
    };
    println!(
        "# fig21_adaptive_slo: {} initial keys, {} ops, seed {}, {} mode",
        cfg.keys,
        ops,
        cfg.seed,
        if cfg.quick { "virtual-time (deterministic)" } else { "wall-clock" }
    );
    println!("# plan {plan} (shed=0: the controller is on its own)");
    println!(
        "# admission window={} engage>={}x after {} disengage<={}x after {} step={}% cap={}%",
        ac.window,
        ac.engage_ratio,
        ac.engage_after,
        ac.disengage_ratio,
        ac.disengage_after,
        ac.shed_step_pct,
        ac.max_shed_pct,
    );
    let workload = MixedWorkload::generate(cfg.keys, ops, TrafficSpec::default(), cfg.seed);
    let bounds = phase_bounds(&workload);
    let onset = bounds[1].0 as u64;
    let fault_end = bounds[1].1 as u64;

    let base = run_pass(&cfg, &workload, None, None);
    let control = run_pass(&cfg, &workload, None, Some(ac));
    let adaptive = run_pass(&cfg, &workload, Some(plan), Some(ac));
    let adm = adaptive.report.admission.clone().expect("controller configured");
    let control_adm = control.report.admission.clone().expect("controller configured");

    // Gate (a): bounded engagement, and the engage decisions target the
    // sick worker (healthy engages are tolerated in wall mode — machine
    // noise — but gated to zero in the deterministic virtual run).
    let first_engage_at = adm.first_engage_window().map(|w| (w + 1) * ac.window);
    let engaged =
        adm.decisions.iter().any(|d| d.is_engage() && d.worker == DEGRADED) && adm.shed > 0;
    let healthy_engages =
        adm.decisions.iter().filter(|d| d.is_engage() && d.worker != DEGRADED).count() as u64;
    let bounded_engage = first_engage_at
        .is_some_and(|at| at > onset && at <= onset + engage_bound(&ac))
        && (!cfg.quick || healthy_engages == 0);

    // Gate (b): healthy-worker tail vs the no-fault baseline.
    let mut base_all = LatencyHistogram::new();
    for w in &base.report.worker_stats {
        base_all.merge(&w.latency);
    }
    let mut healthy = LatencyHistogram::new();
    let mut sick = LatencyHistogram::new();
    for w in &adaptive.report.worker_stats {
        if w.worker == DEGRADED {
            sick.merge(&w.latency);
        } else {
            healthy.merge(&w.latency);
        }
    }
    let base_p999 = base_all.quantile_ns(0.999).max(1);
    let healthy_p999 = healthy.quantile_ns(0.999);
    let degraded_p999 = sick.quantile_ns(0.999);
    let p999_ratio = healthy_p999 as f64 / base_p999 as f64;
    let p999_ok = p999_ratio <= TARGET_HEALTHY_P999_RATIO;

    // Gate (c): exactly-once, and the shed accounting agrees everywhere.
    let exactly_once = [&base, &control, &adaptive].iter().all(|p| {
        p.report.total_ops() == p.submitted
            && p.report.total_rejected() == 0
            && p.tickets_resolved == p.tickets_issued
    });
    let errors: u64 = [&base, &control, &adaptive]
        .iter()
        .flat_map(|p| p.report.phases.iter().map(|ph| ph.errors))
        .sum();
    let shed_counter = adaptive.report.telemetry.counter("serving.admission.shed").unwrap_or(0);
    let shed_away: u64 = adaptive.report.queues.iter().map(|q| q.shed_away).sum();
    let engage_events =
        adaptive.report.telemetry.events_of(EventKind::AdmissionEngage).count() as u64;
    let release_events =
        adaptive.report.telemetry.events_of(EventKind::AdmissionRelease).count() as u64;
    let shed_agrees = adm.shed == shed_counter
        && adm.shed == shed_away
        && adaptive.report.rerouted == 0
        && engage_events == adm.engages()
        && release_events == adm.releases();

    // Gate (d): the controller let go after the fault phase.
    let last_release_at = adm.last_release_window().map(|w| (w + 1) * ac.window);
    let disengaged = adm.levels.iter().all(|&l| l == 0)
        && last_release_at.is_some_and(|at| at <= fault_end + disengage_bound(&ac));

    // Gate (e): the healthy control run shed nothing.
    let no_false_positive = control_adm.shed == 0
        && control_adm.decisions.is_empty()
        && control_adm.levels.iter().all(|&l| l == 0);

    let pass = engaged
        && bounded_engage
        && p999_ok
        && exactly_once
        && errors == 0
        && shed_agrees
        && disengaged
        && no_false_positive;

    print_report(&adaptive.report, &adm, &adaptive.wall_ns);

    for (name, ph) in PHASE_NAMES.iter().zip(&adaptive.report.phases) {
        let (p50, p99, p999) = ph.latency.slo_points();
        println!(
            "DIGEST phase={name} ops={} gets={} inserts={} scans={} errors={} \
             p50={p50}ns p99={p99}ns p999={p999}ns",
            ph.ops, ph.gets, ph.inserts, ph.scans, ph.errors,
        );
    }
    let levels: Vec<String> = adm.levels.iter().map(|l| l.to_string()).collect();
    println!(
        "DIGEST admission windows={} engages={} releases={} shed={} first_engage={} \
         last_release={} levels={}",
        adm.windows,
        adm.engages(),
        adm.releases(),
        adm.shed,
        first_engage_at.map_or("none".into(), |v| v.to_string()),
        last_release_at.map_or("none".into(), |v| v.to_string()),
        levels.join("/"),
    );
    println!(
        "DIGEST control shed={} decisions={} windows={}",
        control_adm.shed,
        control_adm.decisions.len(),
        control_adm.windows,
    );
    println!(
        "DIGEST slo base_p999={base_p999}ns healthy_p999={healthy_p999}ns \
         degraded_p999={degraded_p999}ns ratio={p999_ratio:.2}"
    );
    println!(
        "DIGEST gates completed={}/{} rejected={} tickets={}/{} errors={errors} \
         engaged={engaged} bounded_engage={bounded_engage} p999_ok={p999_ok} \
         shed_agrees={shed_agrees} disengaged={disengaged} \
         no_false_positive={no_false_positive} pass={pass}",
        adaptive.report.total_ops(),
        adaptive.submitted,
        adaptive.report.total_rejected(),
        adaptive.tickets_resolved,
        adaptive.tickets_issued,
    );

    write_json(&WriteArgs {
        path: &out,
        cfg: &cfg,
        ops,
        plan: &plan,
        ac: &ac,
        base: &base,
        control: &control,
        adaptive: &adaptive,
        adm: &adm,
        onset,
        fault_end,
        first_engage_at,
        last_release_at,
        p999_ratio,
        healthy_engages,
        pass,
    });
    println!("# wrote {out}");
    println!("# fig21_adaptive_slo — {}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        if !engaged {
            println!("- controller engages on the sick worker and sheds  (required)");
            println!("+ engages(sick) missing or shed == 0 (shed {})", adm.shed);
        }
        if !bounded_engage {
            println!(
                "- first engage within {} requests of onset {onset}  (required)",
                engage_bound(&ac)
            );
            println!("+ first_engage_at {first_engage_at:?}, healthy engages {healthy_engages}");
        }
        if !p999_ok {
            println!("- healthy p999 <= {TARGET_HEALTHY_P999_RATIO}x baseline p999  (required)");
            println!("+ ratio == {p999_ratio:.2} ({healthy_p999} ns vs {base_p999} ns)");
        }
        if !exactly_once {
            println!("- every admitted request completed exactly once  (required)");
            for (name, p) in [("base", &base), ("control", &control), ("adaptive", &adaptive)] {
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
        if !shed_agrees {
            println!("- shed accounting agrees (report/counter/queues/events)  (required)");
            println!(
                "+ report {}, counter {shed_counter}, shed_away {shed_away}, plan_rerouted {}, \
                 events {engage_events}/{release_events} vs {}/{}",
                adm.shed,
                adaptive.report.rerouted,
                adm.engages(),
                adm.releases(),
            );
        }
        if !disengaged {
            println!(
                "- levels back to zero within {} requests of fault end {fault_end}  (required)",
                disengage_bound(&ac)
            );
            println!("+ levels {:?}, last_release_at {last_release_at:?}", adm.levels);
        }
        if !no_false_positive {
            println!("- healthy control run sheds nothing  (required)");
            println!(
                "+ control shed {}, decisions {}, levels {:?}",
                control_adm.shed,
                control_adm.decisions.len(),
                control_adm.levels
            );
        }
        std::process::exit(1);
    }
}

fn print_report(report: &ServingReport, adm: &AdmissionReport, wall_ns: &[u64; 3]) {
    println!("\n# adaptive run: {} workers, worker {DEGRADED} degraded", report.workers);
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
    for w in &report.worker_stats {
        let (p50, p99, p999) = w.latency.slo_points();
        println!(
            "# worker {}{}: {} ops, p50 {p50}ns p99 {p99}ns p999 {p999}ns, shed_away {}",
            w.worker,
            if w.worker == DEGRADED { " (degraded)" } else { "" },
            w.ops,
            report.queues[w.worker].shed_away,
        );
    }
    for d in &adm.decisions {
        println!(
            "# decision window {} worker {}: {}% -> {}% (ratio {:.2})",
            d.window,
            d.worker,
            d.from_pct,
            d.to_pct,
            d.ratio_x1000 as f64 / 1000.0
        );
    }
}

/// Everything `write_json` needs (bundled: the flat list trips clippy's
/// argument-count lint, and rightly so).
struct WriteArgs<'a> {
    path: &'a str,
    cfg: &'a BenchConfig,
    ops: usize,
    plan: &'a FaultPlan,
    ac: &'a AdmissionConfig,
    base: &'a PassOutcome,
    control: &'a PassOutcome,
    adaptive: &'a PassOutcome,
    adm: &'a AdmissionReport,
    onset: u64,
    fault_end: u64,
    first_engage_at: Option<u64>,
    last_release_at: Option<u64>,
    p999_ratio: f64,
    healthy_engages: u64,
    pass: bool,
}

/// Hand-rolled JSON (the workspace builds offline; no serde) — schema
/// documented in DESIGN.md, "Adaptive admission".
fn write_json(a: &WriteArgs<'_>) {
    let mut s = String::new();
    json_head(&mut s, "fig21_adaptive_slo", a.cfg, a.ops);
    s.push_str(&format!("  \"plan\": \"{}\",\n", a.plan));
    s.push_str(&format!(
        "  \"admission\": {{\"window\": {}, \"engage_ratio\": {}, \"disengage_ratio\": {}, \
         \"engage_after\": {}, \"disengage_after\": {}, \"shed_step_pct\": {}, \
         \"max_shed_pct\": {}, \"min_window_ops\": {}}},\n",
        a.ac.window,
        a.ac.engage_ratio,
        a.ac.disengage_ratio,
        a.ac.engage_after,
        a.ac.disengage_after,
        a.ac.shed_step_pct,
        a.ac.max_shed_pct,
        a.ac.min_window_ops,
    ));
    s.push_str(&format!("  \"workers\": {SERVING_WORKERS},\n  \"degraded_worker\": {DEGRADED},\n"));
    s.push_str(&format!("  \"target_healthy_p999_ratio\": {TARGET_HEALTHY_P999_RATIO},\n"));
    s.push_str(&format!("  \"healthy_p999_over_base\": {:.4},\n", a.p999_ratio));
    s.push_str(&format!(
        "  \"onset_index\": {},\n  \"fault_end_index\": {},\n",
        a.onset, a.fault_end
    ));
    s.push_str(&format!(
        "  \"first_engage_at\": {},\n  \"last_release_at\": {},\n",
        a.first_engage_at.map_or("null".into(), |v| v.to_string()),
        a.last_release_at.map_or("null".into(), |v| v.to_string()),
    ));
    s.push_str(&format!(
        "  \"engage_bound\": {},\n  \"disengage_bound\": {},\n",
        engage_bound(a.ac),
        disengage_bound(a.ac)
    ));
    s.push_str(&format!(
        "  \"controller_shed\": {},\n  \"plan_rerouted\": {},\n  \"healthy_engages\": {},\n",
        a.adm.shed, a.adaptive.report.rerouted, a.healthy_engages
    ));
    let control_adm = a.control.report.admission.as_ref().expect("controller configured");
    s.push_str(&format!(
        "  \"control_shed\": {},\n  \"control_decisions\": {},\n",
        control_adm.shed,
        control_adm.decisions.len()
    ));
    s.push_str(&format!("  \"pass\": {},\n", a.pass));
    s.push_str("  \"units\": \"ns\",\n  \"decisions\": [\n");
    for (i, d) in a.adm.decisions.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"window\": {}, \"worker\": {}, \"from_pct\": {}, \"to_pct\": {}, \
             \"ratio_x1000\": {}}}{}\n",
            d.window,
            d.worker,
            d.from_pct,
            d.to_pct,
            d.ratio_x1000,
            if i + 1 < a.adm.decisions.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n  \"runs\": [\n");
    let runs = [("baseline", a.base), ("control", a.control), ("adaptive", a.adaptive)];
    for (i, (name, p)) in runs.iter().enumerate() {
        let mut all = LatencyHistogram::new();
        for w in &p.report.worker_stats {
            all.merge(&w.latency);
        }
        let (p50, p99, p999) = all.slo_points();
        s.push_str(&format!(
            "    {{\"run\": \"{name}\", \"ops\": {}, \"rejected\": {}, \"tickets\": {}, \
             \"p50_ns\": {p50}, \"p99_ns\": {p99}, \"p999_ns\": {p999}, \"mean_ns\": {:.1}, \
             \"max_ns\": {}, \"shed\": {}, \"workers\": [\n",
            p.report.total_ops(),
            p.report.total_rejected(),
            p.tickets_issued,
            all.mean_ns(),
            all.max_ns(),
            p.report.admission.as_ref().map_or(0, |r| r.shed),
        ));
        for (j, w) in p.report.worker_stats.iter().enumerate() {
            let (wp50, wp99, wp999) = w.latency.slo_points();
            s.push_str(&format!(
                "      {{\"worker\": {}, \"degraded\": {}, \"ops\": {}, \"p50_ns\": {wp50}, \
                 \"p99_ns\": {wp99}, \"p999_ns\": {wp999}, \"shed_away\": {}}}{}\n",
                w.worker,
                w.worker == DEGRADED && *name == "adaptive",
                w.ops,
                p.report.queues[w.worker].shed_away,
                if j + 1 < p.report.worker_stats.len() { "," } else { "" },
            ));
        }
        s.push_str(&format!("    ]}}{}\n", if i + 1 < runs.len() { "," } else { "" }));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(a.path, s).expect("write BENCH_admission.json");
}
