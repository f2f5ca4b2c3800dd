//! Sampled request tracing: a deterministic 1-in-N sampler, the
//! per-stage span record, and the stage clock that fills it in.
//!
//! Every store operation has one implementation, generic over a
//! [`StageClock`]: the untraced instantiation passes `()`, whose laps are
//! empty and inline away, and a traced request passes a [`SpanClock`].
//! Tracing a request costs a handful of `Instant::now()` calls and one
//! histogram lock per stage; sampling keeps that off the common path.
//! The `telemetry_overhead` gate in `perf_baseline` holds the total at
//! ≤ 2% over the untraced path at the default 1-in-64 rate.

use std::time::Instant;

/// Deterministic 1-in-N sampler (`every == 0` disables sampling).
///
/// Counting, not random: over any window of `every` requests exactly one
/// is traced, so two runs over the same op sequence trace the same
/// requests — which keeps the deterministic `--quick` benches honest.
///
/// ```
/// use hope_store::telemetry::TraceSampler;
///
/// let mut s = TraceSampler::new(3);
/// let picks: Vec<bool> = (0..6).map(|_| s.tick()).collect();
/// assert_eq!(picks, vec![false, false, true, false, false, true]);
/// assert!(!TraceSampler::new(0).tick(), "0 disables sampling entirely");
/// ```
#[derive(Debug, Clone)]
pub struct TraceSampler {
    every: u32,
    seen: u32,
}

impl TraceSampler {
    /// Sampler tracing one request in `every` (`0` = never).
    pub fn new(every: u32) -> TraceSampler {
        TraceSampler { every, seen: 0 }
    }

    /// True when sampling is configured at all.
    pub fn is_enabled(&self) -> bool {
        self.every > 0
    }

    /// Count one request; true when this one should be traced.
    #[inline]
    pub fn tick(&mut self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.seen += 1;
        if self.seen >= self.every {
            self.seen = 0;
            true
        } else {
            false
        }
    }
}

/// Per-stage wall-clock spans of one traced request, in nanoseconds.
///
/// Stages mirror the probe pipeline: dictionary **encode** of the probe
/// key, index **probe** (descent + slot check, or the whole mutation for
/// an insert), and **decode** (a scan's pull loop; point ops never
/// decode — keys are kept in source form). Queue wait is recorded
/// separately by the serving worker (it is a property of the envelope,
/// not of the store call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeSpans {
    /// Probe-key (or scan-bound) encode time.
    pub encode_ns: u64,
    /// Index descent + slot resolution (scans: time to first hit).
    pub probe_ns: u64,
    /// Result decode / scan pull-loop time (0 for point ops).
    pub decode_ns: u64,
}

impl ProbeSpans {
    /// Sum of all stages.
    pub fn total_ns(&self) -> u64 {
        self.encode_ns.saturating_add(self.probe_ns).saturating_add(self.decode_ns)
    }
}

/// The stages a request's store time splits into (see [`ProbeSpans`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    Encode,
    Probe,
    Decode,
}

/// A stage timer threaded through a store operation. `()` is the
/// untraced clock: both methods are empty, so that instantiation
/// compiles to the untimed code.
pub(crate) trait StageClock {
    /// Start timing here; whatever ran before is charged to no stage.
    #[inline]
    fn start(&mut self) {}

    /// Charge the time since the previous lap (or [`StageClock::start`])
    /// to `stage`.
    #[inline]
    fn lap(&mut self, _stage: Stage) {}
}

impl StageClock for () {}

/// The traced clock: accumulates laps into `spans`.
#[derive(Debug)]
pub(crate) struct SpanClock {
    last: Instant,
    pub(crate) spans: ProbeSpans,
}

impl SpanClock {
    pub(crate) fn new() -> SpanClock {
        SpanClock { last: Instant::now(), spans: ProbeSpans::default() }
    }
}

impl StageClock for SpanClock {
    fn start(&mut self) {
        self.last = Instant::now();
    }

    fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        let span = match stage {
            Stage::Encode => &mut self.spans.encode_ns,
            Stage::Probe => &mut self.spans.probe_ns,
            Stage::Decode => &mut self.spans.decode_ns,
        };
        *span += ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_periodic_and_zero_disables() {
        let mut s = TraceSampler::new(4);
        assert!(s.is_enabled());
        let picks: Vec<bool> = (0..12).map(|_| s.tick()).collect();
        assert_eq!(picks.iter().filter(|&&p| p).count(), 3);
        assert!(picks[3] && picks[7] && picks[11]);
        let mut off = TraceSampler::new(0);
        assert!(!off.is_enabled());
        assert!((0..100).all(|_| !off.tick()));
    }

    #[test]
    fn spans_total() {
        let sp = ProbeSpans { encode_ns: 10, probe_ns: 20, decode_ns: 30 };
        assert_eq!(sp.total_ns(), 60);
        assert_eq!(ProbeSpans::default().total_ns(), 0);
    }

    #[test]
    fn span_clock_charges_each_lap_to_its_stage() {
        let mut clock = SpanClock::new();
        clock.start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        clock.lap(Stage::Probe);
        clock.lap(Stage::Decode);
        let sp = clock.spans;
        assert_eq!(sp.encode_ns, 0);
        assert!(sp.probe_ns >= 2_000_000, "{sp:?}");
        assert!(sp.decode_ns < sp.probe_ns, "{sp:?}");
        // The untraced clock accepts the same calls and records nothing.
        let off = &mut ();
        off.start();
        off.lap(Stage::Encode);
    }
}
