//! Spans for the traced run.
//!
//! A span names one call into a layer, with its start, end, parent and
//! the id of the request it belongs to. The probes make each layer call
//! separately, right after its parent's, and attribute it to that
//! parent; a layer's self time is therefore its span's duration minus
//! the summed durations of its children. Spans stay in memory until
//! [`Tracer::write`] dumps them as JSON lines.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Request the span belongs to.
    pub req: u64,
    /// Layer call name (`wire.parse`, `query.range`, ...).
    pub name: &'static str,
    /// Start, ns after the tracer's origin.
    pub start_ns: u64,
    /// End, ns after the tracer's origin.
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    child_ns: Vec<u64>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            child_ns: Vec::new(),
        }
    }

    /// ns since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span with explicit times; returns its index.
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let span = Span {
            req,
            name,
            start_ns,
            end_ns,
            parent,
        };
        if let Some(p) = parent {
            self.child_ns[p] += span.dur_ns();
        }
        self.spans.push(span);
        self.child_ns.push(0);
        self.spans.len() - 1
    }

    /// Times `f` as a span; returns its result and the span index.
    pub fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        (out, self.record(req, name, parent, start, end))
    }

    /// Self time of span `i` in ns: its duration minus its children's
    /// (negative when separately timed children took longer).
    pub fn self_ns(&self, i: usize) -> f64 {
        self.spans[i].dur_ns() as f64 - self.child_ns[i] as f64
    }

    /// Self times (µs) of every span named `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.indices(name).map(|i| self.self_ns(i) / 1e3).collect()
    }

    /// Durations (µs) of every span named `name`.
    pub fn dur_us(&self, name: &str) -> Vec<f64> {
        self.indices(name)
            .map(|i| self.spans[i].dur_ns() as f64 / 1e3)
            .collect()
    }

    fn indices<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
            .map(|(i, _)| i)
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                r#"{{"span":{i},"req":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"self_ns":{}}}"#,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.self_ns(i)
            );
        }
        std::fs::write(path, out)
    }
}
