//! Shared setup for the serving-pipeline acceptance benches
//! (`fig18_serving_slo`, `fig20_fault_slo`, `fig21_adaptive_slo`).
//!
//! All three drive the same shape — the mixed-shift traffic stream
//! through a thread-per-core [`Server`](hope_store::serving::Server)
//! over a sharded [`HopeStore`],
//! measured in three phases around the Email-A → Email-B shift — and
//! before this module each binary carried its own copy of the setup.
//! One code path now builds the store, the serving config, the phase
//! windows and the common report/JSON fragments; the binaries keep only
//! what actually differs (fault plans, controllers, gates).

use std::sync::Arc;

use hope_store::serving::{Request, ServingConfig, ServingReport};
use hope_store::{HopeStore, StoreConfig};
use hope_workloads::{MixedWorkload, StoreOp};

use crate::BenchConfig;

/// The three measured traffic phases, in driver order.
pub const PHASE_NAMES: [&str; 3] = ["pre_shift", "shift", "post_shift"];

/// Worker threads every serving bench runs with.
pub const SERVING_WORKERS: usize = 4;

/// Per-worker queue budget of the serving benches.
pub const SERVING_QUEUE_CAPACITY: usize = 1024;

/// Batch size of the serving benches.
pub const SERVING_BATCH: usize = 64;

/// A binary-specific `--flag VALUE` lookup over the leftover flags
/// [`BenchConfig::from_args`] collected (e.g. `--out PATH`).
pub fn flag_value(cfg: &BenchConfig, flag: &str, default: &str) -> String {
    cfg.flags
        .iter()
        .position(|f| f == flag)
        .and_then(|i| cfg.flags.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

/// Where a drill writes its JSON artifact: `--out PATH` when given,
/// else `{stem}.quick.json` under `--quick` and `{stem}.json` otherwise,
/// so a smoke run never overwrites a committed full-size artifact.
pub fn out_path(cfg: &BenchConfig, stem: &str) -> String {
    let suffix = if cfg.quick { ".quick.json" } else { ".json" };
    flag_value(cfg, "--out", &format!("{stem}{suffix}"))
}

/// Convert one workload op into a serving request.
pub fn to_request(op: &StoreOp) -> Request {
    match op {
        StoreOp::Get(k) => Request::get(k.clone()),
        StoreOp::Insert(k, v) => Request::insert(k.clone(), *v),
        StoreOp::Scan(low, high, limit) => Request::scan(low.clone(), high.clone(), *limit),
    }
}

/// Phase windows over the global op index: pre-shift, then the 20% of
/// the run right after the generator's shift point, then the rest.
pub fn phase_bounds(workload: &MixedWorkload) -> [(usize, usize); 3] {
    let ops = workload.ops.len();
    let shift_end = (workload.shift_at + ops / 5).min(ops);
    [(0, workload.shift_at), (workload.shift_at, shift_end), (shift_end, ops)]
}

/// Build the store every serving bench starts from: the workload's
/// initial keys, a drift threshold low enough that quick runs still
/// trigger detection, and an event ring deep enough that attribution
/// gates can count events without overflow.
pub fn build_serving_store(workload: &MixedWorkload) -> Arc<HopeStore> {
    let store_cfg =
        StoreConfig { min_observed_bytes: 1024, event_capacity: 4096, ..StoreConfig::default() };
    let pairs = workload.initial.iter().enumerate().map(|(i, k)| (k.clone(), i as u64));
    Arc::new(HopeStore::build(store_cfg, pairs).expect("store build"))
}

/// The serving config every serving bench runs: 4 workers, bounded
/// queues, three measured phases, virtual time in quick mode.
pub fn serving_config(quick: bool) -> ServingConfig {
    ServingConfig {
        workers: SERVING_WORKERS,
        queue_capacity: SERVING_QUEUE_CAPACITY,
        batch: SERVING_BATCH,
        phases: 3,
        virtual_time: quick,
        ..ServingConfig::default()
    }
}

/// The common head of every serving-bench JSON report (hand-rolled; the
/// workspace builds offline, no serde).
pub fn json_head(s: &mut String, bench: &str, cfg: &BenchConfig, ops: usize) {
    s.push_str("{\n");
    s.push_str(&format!("  \"bench\": \"{bench}\",\n  \"dataset\": \"email-mixed-traffic\",\n"));
    s.push_str(&format!(
        "  \"keys\": {},\n  \"ops\": {},\n  \"seed\": {},\n  \"quick\": {},\n",
        cfg.keys, ops, cfg.seed, cfg.quick
    ));
}

/// One phase's JSON object for a report's `"phases"` array.
pub fn json_phase(s: &mut String, report: &ServingReport, p: usize, ops_per_sec: f64, last: bool) {
    let ph = &report.phases[p];
    let (p50, p99, p999) = ph.latency.slo_points();
    s.push_str(&format!(
        "    {{\"phase\": \"{}\", \"ops\": {}, \"gets\": {}, \"inserts\": {}, \
         \"scans\": {}, \"scan_hits\": {}, \"errors\": {}, \"p50_ns\": {}, \
         \"p99_ns\": {}, \"p999_ns\": {}, \"mean_ns\": {:.1}, \"max_ns\": {}, \
         \"ops_per_sec\": {:.0}}}{}\n",
        PHASE_NAMES[p],
        ph.ops,
        ph.gets,
        ph.inserts,
        ph.scans,
        ph.scan_hits,
        ph.errors,
        p50,
        p99,
        p999,
        ph.latency.mean_ns(),
        ph.latency.max_ns(),
        ops_per_sec,
        if last { "" } else { "," },
    ));
}

/// Per-phase throughput: virtual (busiest-worker service time) in quick
/// mode, wall-clock otherwise.
pub fn phase_ops_per_sec(report: &ServingReport, p: usize, wall_ns: &[u64; 3]) -> f64 {
    if report.virtual_time {
        report.phases[p].virtual_ops_per_sec()
    } else {
        report.phases[p].ops as f64 * 1e9 / wall_ns[p].max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hope_workloads::TrafficSpec;

    #[test]
    fn phase_bounds_cover_the_stream_exactly_once() {
        let w = MixedWorkload::generate(500, 2_000, TrafficSpec::default(), 7);
        let b = phase_bounds(&w);
        assert_eq!(b[0].0, 0);
        assert_eq!(b[0].1, b[1].0);
        assert_eq!(b[1].1, b[2].0);
        assert_eq!(b[2].1, w.ops.len());
        assert_eq!(b[1].0, w.shift_at);
    }

    #[test]
    fn flag_value_falls_back_to_the_default() {
        let mut cfg = BenchConfig::default();
        assert_eq!(flag_value(&cfg, "--out", "X.json"), "X.json");
        cfg.flags = vec!["--out".into(), "Y.json".into()];
        assert_eq!(flag_value(&cfg, "--out", "X.json"), "Y.json");
    }

    #[test]
    fn quick_runs_write_quick_artifacts_unless_out_is_given() {
        let mut cfg = BenchConfig::default();
        assert_eq!(out_path(&cfg, "BENCH_x"), "BENCH_x.json");
        cfg.quick = true;
        assert_eq!(out_path(&cfg, "BENCH_x"), "BENCH_x.quick.json");
        cfg.flags = vec!["--out".into(), "r/run.json".into()];
        assert_eq!(out_path(&cfg, "BENCH_x"), "r/run.json");
        cfg.quick = false;
        assert_eq!(out_path(&cfg, "BENCH_x"), "r/run.json");
    }

    #[test]
    fn serving_config_matches_the_published_shape() {
        let c = serving_config(true);
        assert_eq!((c.workers, c.queue_capacity, c.batch, c.phases), (4, 1024, 64, 3));
        assert!(c.virtual_time);
        assert!(c.faults.is_none() && c.admission.is_none());
        assert!(!serving_config(false).virtual_time);
    }
}
