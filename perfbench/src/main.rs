//! The benchmark of the HOPE-compressed store.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, then runs episodes
//! (build a store from the load, replay the workload's fixed stream,
//! check every answer against an uncompressed oracle, account the heap)
//! until `--seconds` have passed and at least [`MIN_EPISODES`] ran. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the metrics — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any wrong answer
//! makes the run incorrect and the exit code 1.
//!
//! With `--trace 1`, untraced and traced episodes alternate (their
//! throughput ratio is the tracing overhead). Span medians are net of the
//! spans' own clock cost, calibrated once per run. The spans are written to
//! `out/spans-<workload>-<seed>.jsonl` beside this crate's manifest.

mod alloc;
mod closed;
mod layers;
mod plan;
mod serve;
mod stats;
mod trace;

use std::time::{Duration, Instant};

use closed::Episode;
use layers::TraceCtx;
use plan::Plan;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Episodes every run makes at least (set-up is the median of these).
const MIN_EPISODES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value.parse::<f64>().map_err(|_| format!("bad value {value:?} for {flag}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or("missing or non-positive --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                plan::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(plan) = plan::build(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let result = if args.trace { traced_run(&plan, &args) } else { measured_run(&plan, &args) };
    for f in &result.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    println!("{}", result.to_json());
    if !result.correct() {
        std::process::exit(1);
    }
}

/// Metrics plus the failure ledger of a run.
#[derive(Default)]
struct RunResult {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn absorb(&mut self, ep: &Episode) {
        self.attempted += ep.attempted;
        self.failed += ep.failed;
        self.failures.extend(ep.failures.iter().take(5).cloned());
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn p(lat: &mut [u32], q: f64) -> f64 {
    f64::from(stats::quantile(lat, q))
}

/// End-to-end metrics, untraced.
fn measured_run(plan: &Plan, args: &Args) -> RunResult {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut res = RunResult::default();
    let mut eps = Vec::new();
    while eps.len() < MIN_EPISODES || Instant::now() < deadline {
        let ep = closed::run_episode(plan, None);
        eprintln!(
            "perfbench: episode {}: setup {:.4} s, {:.0} ops/s, p50 {:.3} us, p99 {:.3} us",
            eps.len(),
            ep.setup_s,
            ep.ops_per_s,
            p(&mut ep.lat_ns.clone(), 0.5) / 1e3,
            p(&mut ep.lat_ns.clone(), 0.99) / 1e3
        );
        res.absorb(&ep);
        let failed = ep.failed > 0;
        eps.push(ep);
        if failed {
            break;
        }
    }
    // Throughput and latency pool every episode's ops: the machine's
    // speed drifts on a scale of seconds, and pooling averages over it
    // where a median would snap to one regime.
    let per = |f: &dyn Fn(&Episode) -> f64| stats::median(&eps.iter().map(f).collect::<Vec<_>>());
    let mut lat: Vec<u32> = eps.iter().flat_map(|e| e.lat_ns.iter().copied()).collect();
    let busy: u64 = eps.iter().map(|e| e.busy_ns).sum();
    res.put("setup_s", per(&|e| e.setup_s), "s");
    res.put("ops_per_s", lat.len() as f64 * 1e9 / busy.max(1) as f64, "1/s");
    res.put("op_p50_us", p(&mut lat, 0.50) / 1e3, "us");
    res.put("op_p99_us", p(&mut lat, 0.99) / 1e3, "us");
    res.put("mem_bytes_per_user_byte", per(&|e| e.mem_per_user_byte()), "B/B");
    res
}

/// Per-layer metrics: untraced and traced episodes alternate, then the
/// probes fill in the layers the stream did not reach.
fn traced_run(plan: &Plan, args: &Args) -> RunResult {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut res = RunResult::default();
    let mut ctx = TraceCtx::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() + traced.len() < MIN_EPISODES + 1 || Instant::now() < deadline {
        let tracing = plain.len() > traced.len();
        let ep = closed::run_episode(plan, tracing.then_some(&mut ctx));
        res.absorb(&ep);
        let failed = ep.failed > 0;
        if tracing {
            traced.push(ep);
        } else {
            plain.push(ep);
        }
        if failed {
            break;
        }
    }
    // Throughput of the ops themselves (maintenance excluded: it is
    // traced identically on both sides, and its cost varies the most).
    let throughput = |eps: &[Episode]| {
        stats::median(
            &eps.iter()
                .map(|e| {
                    let ns: u64 = e.lat_ns.iter().map(|&n| u64::from(n)).sum();
                    e.lat_ns.len() as f64 * 1e9 / ns.max(1) as f64
                })
                .collect::<Vec<_>>(),
        )
    };
    let overhead = throughput(&traced) / throughput(&plain);
    ctx.tracer.calibrate(100_000);
    let Some(ep) = traced.pop() else { return res };

    // Layers the stream did not reach, probed on fresh stores.
    let mut probe = Episode::default();
    layers::probe_missing(plan, args.seed, &mut ctx, &mut probe);
    let run = serve::probe(plan, args.seed, &mut ctx, &mut probe);
    let codec = layers::codec_probe(plan, &mut probe);
    res.absorb(&probe);

    let t = &ctx.tracer;
    let med = |name: &str| {
        let mut d = t.durations(name);
        stats::quantile(&mut d, 0.5) as f64
    };
    let m = ctx.mirror_stats;
    res.put("builder.build_s", codec.build_s, "s");
    res.put("builder.symbol_select_s", codec.symbol_select_s, "s");
    res.put("builder.code_assign_s", codec.code_assign_s, "s");
    res.put("builder.dictionary_build_s", codec.dictionary_build_s, "s");
    res.put("builder.dict_bytes", ep.dict_bytes as f64, "B");
    res.put("encoder.encode_ns", med("encoder.encode_to"), "ns");
    res.put("encoder.cpr", m.source_bytes as f64 * 8.0 / m.encoded_bits.max(1) as f64, "count");
    res.put("encoder.range_bounds_ns", med("encoder.range_bounds"), "ns");
    res.put("decoder.decode_ns", codec.decode_ns, "ns");
    res.put("decoder.table_bytes", codec.table_bytes as f64, "B");
    res.put("btree.probe_ns", med("btree.get"), "ns");
    res.put("btree.raw_probe_ns", med("btree.raw_get"), "ns");
    res.put("btree.bytes_per_key", m.encoded_bytes as f64 / m.keys.max(1) as f64, "B");
    res.put("btree.raw_bytes_per_key", m.raw_bytes as f64 / m.keys.max(1) as f64, "B");
    res.put("btree.height", m.encoded_height as f64, "count");
    res.put("btree.raw_height", m.raw_height as f64, "count");
    res.put("store.get_ns", med("store.get"), "ns");
    res.put("store.route_ns", med("store.shard_of"), "ns");
    res.put("store.pin_ns", med("store.generation"), "ns");
    res.put("generation.get_ns", med("generation.get"), "ns");
    res.put(
        "store.resolve_ns",
        med("generation.get") - med("encoder.encode_to") - med("btree.get"),
        "ns",
    );
    res.put("store.insert_ns", med("store.insert"), "ns");
    res.put("store.mem.heap_bytes", ep.heap_bytes as f64, "B");
    res.put("store.mem.reported_bytes", ep.reported_bytes as f64, "B");
    res.put("store.mem.unaccounted_bytes", ep.heap_bytes as f64 - ep.reported_bytes as f64, "B");
    let (scan_ns, scan_hits) = t.totals("cursor.scan");
    let scans_from = if ep.scans > 0 { &ep } else { &probe };
    res.put("cursor.scan_ns", med("cursor.scan"), "ns");
    res.put("cursor.ns_per_hit", scan_ns as f64 / scan_hits.max(1) as f64, "ns");
    res.put(
        "cursor.hits_per_scan",
        scans_from.scan_hits as f64 / scans_from.scans.max(1) as f64,
        "count",
    );
    let maintained = if ep.maintain_ns > 0 { &ep } else { &probe };
    let swaps = &maintained.swaps;
    res.put("maintain.s", maintained.maintain_ns as f64 / 1e9, "s");
    res.put("maintain.swaps", swaps.len() as f64, "count");
    res.put(
        "maintain.incremental_swaps",
        swaps.iter().filter(|s| s.incremental).count() as f64,
        "count",
    );
    res.put(
        "maintain.reencoded_bytes",
        swaps.iter().map(|s| s.reencoded_bytes).sum::<u64>() as f64,
        "B",
    );
    res.put("maintain.reused_bytes", swaps.iter().map(|s| s.reused_bytes).sum::<u64>() as f64, "B");
    res.put("serving.submit_ns", med("serving.submit"), "ns");
    res.put("serving.service_us", run.service_us(), "us");
    res.put("serving.queue_wait_us", run.queue_wait_us(), "us");
    res.put("serving.backlog_peak", run.backlog_peak() as f64, "count");
    res.put("serving.gen_lag_us", run.gen_lag_us(), "us");
    res.put("serving.low_p50_us", run.latency_us(serve::LOW, 0.5), "us");
    res.put("serving.high_p50_us", run.latency_us(serve::HIGH, 0.5), "us");
    res.put("serving.high_p99_us", run.latency_us(serve::HIGH, 0.99), "us");
    res.put("serving.capacity_per_s", run.capacity_per_s(), "1/s");
    res.put("trace.overhead_ratio", overhead, "ratio");
    res.put("trace.span_ns", t.span_ns as f64, "ns");
    res.put("trace.nested_span_ns", t.nested_ns as f64, "ns");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", plan.name, args.seed));
    if let Err(e) = ctx.tracer.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    res
}
