//! Spans recorded by the benchmark's own code around calls into each layer.
//!
//! A span has a name, the request it belongs to, the span that caused it
//! (`parent`, empty for a request's root) and its start and end in
//! nanoseconds since the run's epoch. A disabled tracer records nothing and
//! costs one branch per call site, which is how the untraced runs measure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
    request: u64,
    parent: &'static str,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            spans: enabled.then(Vec::new),
            request: 0,
            parent: "",
        }
    }

    /// A tracer with the same epoch and on/off state but no spans yet, for
    /// another thread.
    pub fn fork(&self) -> Self {
        Self::new(self.epoch, self.spans.is_some())
    }

    /// Sets the request and parent that spans ended from now on belong to.
    pub fn within(&mut self, request: u64, parent: &'static str) {
        self.request = request;
        self.parent = parent;
    }

    /// Start mark of a span; `None` when tracing is off.
    pub fn start(&self) -> Option<Instant> {
        self.spans.as_ref().map(|_| Instant::now())
    }

    pub fn end(&mut self, name: &'static str, start: Option<Instant>) {
        let (Some(spans), Some(start)) = (self.spans.as_mut(), start) else {
            return;
        };
        let end = Instant::now();
        spans.push(Span {
            name,
            parent: self.parent,
            request: self.request,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
    }

    pub fn absorb(&mut self, other: Tracer) {
        if let (Some(spans), Some(more)) = (self.spans.as_mut(), other.spans) {
            spans.extend(more);
        }
    }

    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Span durations in milliseconds, grouped by span name.
    pub fn durations_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for span in self.spans() {
            by_name.entry(span.name).or_default().push(span.ms());
        }
        by_name
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                r#"{{"name":"{}","parent":"{}","request":{},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.parent, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Median of a sample (mean of the middle pair for even sizes); NaN when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}
