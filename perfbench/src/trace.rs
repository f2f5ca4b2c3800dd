//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark made into a layer's public function:
//! name, start, end, the span that caused it, the request it belongs to,
//! and a work count (hits, swaps). Spans of one request share `req`.
//! Nothing is written until [`Tracer::write_jsonl`] at the end of the run.
//!
//! Every span carries the cost of its own two clock reads, and a span
//! with children carries theirs too. [`Tracer::calibrate`] measures both
//! costs once per run; [`Tracer::durations`] and [`Tracer::totals`] take
//! them off.

use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u32,
    pub name: &'static str,
    pub parent: u32,
    pub start: Instant,
    pub end: Instant,
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// Span store for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_req: u32,
    /// What a span's own open and close add to its duration (ns).
    pub span_ns: u64,
    /// What each span nested in another adds to the outer one (ns).
    pub nested_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            next_req: 0,
            span_ns: 0,
            nested_ns: 0,
        }
    }

    /// Record `n` empty spans (`trace.empty`) and `n` spans holding one
    /// empty child (`trace.nest`), and keep their medians as the clock
    /// cost of a span and of a nested span.
    pub fn calibrate(&mut self, n: usize) {
        let (mut alone, mut outer) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let req = self.request();
            let s = self.open(req, "trace.empty", ROOT);
            alone.push(self.close(s, 0).ns());
            let p = self.open(req, "trace.nest", ROOT);
            let c = self.open(req, "trace.empty", p);
            self.close(c, 0);
            outer.push(self.close(p, 0).ns());
        }
        self.span_ns = crate::stats::quantile(&mut alone, 0.5);
        self.nested_ns = crate::stats::quantile(&mut outer, 0.5).saturating_sub(self.span_ns);
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u32 {
        self.next_req += 1;
        self.next_req
    }

    /// Open a span now; close it with [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, req: u32, name: &'static str, parent: u32) -> u32 {
        let now = Instant::now();
        self.spans.push(Span { req, name, parent, start: now, end: now, count: 0 });
        (self.spans.len() - 1) as u32
    }

    /// Close span `id` now, with its work count.
    #[inline]
    pub fn close(&mut self, id: u32, count: u64) -> &Span {
        let s = &mut self.spans[id as usize];
        s.end = Instant::now();
        s.count = count;
        s
    }

    /// (net ns, count) of every span called `name`: its duration less the
    /// calibrated clock cost of itself and of every span nested in it.
    fn net<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (u64, u64)> + 'a {
        // Children are recorded after their parent, so one backward pass
        // sums each span's descendants.
        let mut nested = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate().rev() {
            if s.parent != ROOT {
                nested[s.parent as usize] += 1 + nested[i];
            }
        }
        self.spans
            .iter()
            .zip(nested)
            .filter(move |(s, _)| s.name == name)
            .map(|(s, k)| (s.ns().saturating_sub(self.span_ns + k * self.nested_ns), s.count))
    }

    /// Net durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.net(name).map(|(ns, _)| ns).collect()
    }

    /// Sum of (net ns, count) over every span called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.net(name).fold((0, 0), |(ns, c), (n, k)| (ns + n, c + k))
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.req,
                s.name,
                s.start.duration_since(self.origin).as_nanos(),
                s.end.duration_since(self.origin).as_nanos(),
                s.count,
            )?;
        }
        out.flush()
    }
}
