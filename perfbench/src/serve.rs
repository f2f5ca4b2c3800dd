//! The open-loop client of the serving probe: requests are offered to
//! `hope_store::serving::Server` on a fixed schedule, whatever the
//! server's state, one rate step (one serving phase) at a time.
//!
//! Each request is timed from when it was *due*, not from when the
//! generator got round to sending it, so a stall shows up in the latency
//! of every request it delayed. The generator's own lateness is reported
//! beside it. The single worker executes requests in admission order, so
//! every answer is checked against the oracle as of submission.
//! Refusals count as failures.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hope_store::serving::{Request, Response, Server, ServingConfig, Ticket};
use hope_store::HopeStore;

use crate::closed::{build_store, show, Episode, Oracle};
use crate::layers::TraceCtx;
use crate::plan::{Op, Plan};
use crate::stats::quantile;
use crate::trace::ROOT;

/// The offered-load ladder, one serving phase per step: `(offered ops
/// per second, requests)`. A low rate, a high rate, then a burst far
/// above one worker's capacity, whose completion rate is the capacity.
const LADDER: [(f64, usize); 3] = [(20_000.0, 5_000), (100_000.0, 25_000), (2_000_000.0, 10_000)];
pub const LOW: usize = 0;
pub const HIGH: usize = 1;
const SATURATE: usize = 2;

/// What one rate step measured.
#[derive(Debug, Default, Clone)]
pub struct Step {
    /// Due → completion seen by the client, per request, ns.
    pub lat_ns: Vec<u32>,
    /// How late the generator sent each request, ns.
    pub late_ns: Vec<u32>,
    /// Admission (after `try_submit` returned) → completion, summed, ns.
    pub sojourn_ns: u64,
    pub completed: u64,
    /// Worker service time summed over the step (from the report), ns.
    pub service_ns: u64,
    pub backlog_peak: u64,
    /// First due time → last completion, s.
    pub elapsed_s: f64,
}

struct Pending {
    due: Instant,
    admitted: Instant,
    ticket: Ticket,
    id: u32,
    want: Option<u64>,
}

/// Offer `ops` at `rate` per second as serving phase `phase`, and wait
/// for them all.
fn offer(
    server: &Server,
    plan: &Plan,
    ops: &[Op],
    (phase, rate): (usize, f64),
    oracle: &mut Oracle,
    ep: &mut Episode,
    mut trace: Option<&mut TraceCtx>,
) -> Step {
    let mut step = Step::default();
    step.lat_ns.reserve(ops.len());
    step.late_ns.reserve(ops.len());
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(1024);
    let start = Instant::now() + Duration::from_micros(200);
    let mut last_done = start;
    for (i, &op) in ops.iter().enumerate() {
        let (req, id) = match op {
            Op::Get(id) => (Request::get(plan.keys[id as usize].clone()), id),
            Op::Insert(id, v) => (Request::insert(plan.keys[id as usize].clone(), v), id),
            Op::Scan { .. } | Op::Maintain => {
                ep.fail(format!("{op:?} cannot be served open-loop"));
                continue;
            }
        };
        let due = start + interval * i as u32;
        let mut now = Instant::now();
        while now < due {
            reap(&mut pending, &mut step, ep, &mut last_done);
            std::hint::spin_loop();
            now = Instant::now();
        }
        step.late_ns.push(clamp_ns(now - due));
        let span = trace.as_deref_mut().and_then(|t| t.sample(op).then_some(t)).map(|t| {
            let req = t.tracer.request();
            (t.tracer.open(req, "serving.submit", ROOT), t)
        });
        let submitted = server.try_submit(req, phase);
        if let Some((s, t)) = span {
            t.close(s, 1);
        }
        let admitted = Instant::now();
        ep.attempted += 1;
        match submitted {
            Ok(ticket) => {
                let want = match op {
                    Op::Insert(id, v) => oracle.insert(id, v),
                    _ => oracle.value(id),
                };
                pending.push_back(Pending { due, admitted, ticket, id, want });
                step.backlog_peak = step.backlog_peak.max(pending.len() as u64);
            }
            Err(rejected) => {
                ep.fail(format!("refused at {rate}/s: {:?}", rejected.reason));
            }
        }
    }
    let give_up = Instant::now() + Duration::from_secs(30);
    while !pending.is_empty() && Instant::now() < give_up {
        reap(&mut pending, &mut step, ep, &mut last_done);
        std::hint::spin_loop();
    }
    for p in pending.drain(..) {
        ep.fail(format!("request for {:?} never completed", show(&plan.keys[p.id as usize])));
    }
    step.elapsed_s = (last_done - start).as_secs_f64();
    step
}

/// Collect every completed request at the head of the FIFO.
fn reap(
    pending: &mut VecDeque<Pending>,
    step: &mut Step,
    ep: &mut Episode,
    last_done: &mut Instant,
) {
    while pending.front().is_some_and(|p| p.ticket.is_done()) {
        let now = Instant::now();
        let Some(p) = pending.pop_front() else { break };
        *last_done = now;
        step.lat_ns.push(clamp_ns(now - p.due));
        step.sojourn_ns += (now - p.admitted).as_nanos() as u64;
        step.completed += 1;
        let ok = match p.ticket.wait() {
            Response::Get(got) | Response::Insert(got) => got == p.want,
            _ => false,
        };
        if !ok {
            ep.fail(format!("served answer for key #{} differs from the oracle", p.id));
        }
    }
}

fn clamp_ns(d: Duration) -> u32 {
    d.as_nanos().min(u128::from(u32::MAX)) as u32
}

/// What the serving layer reported about one run.
#[derive(Debug, Default, Clone)]
pub struct ServingRun {
    pub steps: Vec<Step>,
}

impl ServingRun {
    pub fn completed(&self) -> u64 {
        self.steps.iter().map(|s| s.completed).sum()
    }

    /// The steps offered below capacity (before the saturating burst).
    pub fn paced(&self) -> &[Step] {
        &self.steps[..SATURATE.min(self.steps.len())]
    }

    /// Mean worker service time per request over the paced steps, µs.
    pub fn service_us(&self) -> f64 {
        let (ns, n) =
            self.paced().iter().fold((0, 0), |a, s| (a.0 + s.service_ns, a.1 + s.completed));
        ns as f64 / n.max(1) as f64 / 1e3
    }

    /// Mean admission → completion minus mean service over the paced
    /// steps: queue wait plus wake-up and completion hand-off, µs.
    pub fn queue_wait_us(&self) -> f64 {
        let (ns, n) =
            self.paced().iter().fold((0, 0), |a, s| (a.0 + s.sojourn_ns, a.1 + s.completed));
        ns as f64 / n.max(1) as f64 / 1e3 - self.service_us()
    }

    /// Deepest client-side backlog over the paced steps.
    pub fn backlog_peak(&self) -> u64 {
        self.paced().iter().map(|s| s.backlog_peak).max().unwrap_or(0)
    }

    /// 99th-percentile generator lateness over the paced steps, µs.
    pub fn gen_lag_us(&self) -> f64 {
        let mut late: Vec<u32> =
            self.paced().iter().flat_map(|s| s.late_ns.iter().copied()).collect();
        f64::from(quantile(&mut late, 0.99)) / 1e3
    }

    /// Completions per second of the saturating step: the capacity of
    /// one worker behind the queue.
    pub fn capacity_per_s(&self) -> f64 {
        self.steps.get(SATURATE).map_or(0.0, |s| s.completed as f64 / s.elapsed_s.max(1e-9))
    }

    /// Latency (from due) of step `i` at quantile `q`, µs.
    pub fn latency_us(&self, i: usize, q: f64) -> f64 {
        self.steps.get(i).map_or(0.0, |s| f64::from(quantile(&mut s.lat_ns.clone(), q)) / 1e3)
    }
}

/// Start a server over `store` with one worker (the generator is the
/// second thread) and a queue deep enough that only a stall of over half
/// a second at the high rate refuses; offer `ops` step by step on the
/// ladder, shut down, and check the report.
fn serve_ladder(
    store: HopeStore,
    plan: &Plan,
    ops: &[Op],
    oracle: &mut Oracle,
    ep: &mut Episode,
    mut trace: Option<&mut TraceCtx>,
) -> ServingRun {
    let cfg = ServingConfig {
        workers: 1,
        queue_capacity: 1 << 16,
        batch: 64,
        phases: LADDER.len(),
        ..Default::default()
    };
    let server = match Server::start(Arc::new(store), cfg) {
        Ok(s) => s,
        Err(e) => {
            ep.fail(format!("server start: {e}"));
            return ServingRun::default();
        }
    };
    let mut run = ServingRun::default();
    let mut rest = ops;
    for (phase, &(rate, n)) in LADDER.iter().enumerate() {
        let (chunk, tail) = rest.split_at(n.min(rest.len()));
        rest = tail;
        run.steps.push(offer(
            &server,
            plan,
            chunk,
            (phase, rate),
            oracle,
            ep,
            trace.as_deref_mut(),
        ));
    }
    let report = server.shutdown();
    let served: u64 = report.phases.iter().map(|p| p.ops).sum();
    let errors: u64 = report.phases.iter().map(|p| p.errors).sum();
    for (step, phase) in run.steps.iter_mut().zip(&report.phases) {
        step.service_ns = phase.busy_ns_total;
    }
    if served != run.completed() || errors > 0 || report.total_rejected() > 0 {
        ep.fail(format!(
            "server report: {served} served, {} seen, {errors} errors, {} rejected",
            run.completed(),
            report.total_rejected()
        ));
    }
    if report.rerouted > 0 {
        ep.fail(format!("{} requests shed", report.rerouted));
    }
    run
}

/// Open-loop probe of the serving layer: gets of load keys offered on
/// the ladder through one worker, over a fresh store.
pub fn probe(plan: &Plan, seed: u64, ctx: &mut TraceCtx, ep: &mut Episode) -> ServingRun {
    let store = match build_store(plan) {
        Ok((store, _)) => store,
        Err(e) => {
            ep.fail(format!("build: {e}"));
            return ServingRun::default();
        }
    };
    let mut state = seed ^ 0x5E7F_0B0E;
    let requests = LADDER.iter().map(|s| s.1).sum();
    let ops: Vec<Op> = (0..requests).map(|_| Op::Get(plan.pick(&mut state))).collect();
    let mut oracle = Oracle::new(plan, false);
    serve_ladder(store, plan, &ops, &mut oracle, ep, Some(ctx))
}
