//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test has no tracing of its own yet, so the traced
//! repetition times the layers from outside: one span per call into a
//! layer's public function, kept in memory and written out when the run
//! ends. Untraced repetitions never touch this module.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer and operation, e.g. `core.line`.
    pub name: &'static str,
    /// The workload operation this span belongs to; spans of one operation
    /// share it.
    pub op_id: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// An in-memory span recorder. One per thread; [`Tracer::absorb`] merges.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch` (shared by the threads of
    /// one run so their spans line up).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op_id: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op_id,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.duration_ns() as f64 * 1e-9
    }

    /// Records a span whose start and end (seconds since the epoch) were
    /// taken elsewhere, e.g. by the HTTP client inside one request.
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<SpanId>,
        start_s: f64,
        end_s: f64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op_id,
            parent: parent.map(|p| p.0),
            start_ns: (start_s * 1e9) as u64,
            end_ns: (end_s * 1e9) as u64,
        });
        SpanId(self.spans.len() - 1)
    }

    /// When span `id` started, in seconds since the epoch.
    pub fn start_s(&self, id: SpanId) -> f64 {
        self.spans[id.0].start_ns as f64 * 1e-9
    }

    /// Seconds since the epoch.
    pub fn clock(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op_id, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Total seconds per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let selfs = self_times_ns(&self.spans);
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.secs += span.duration_ns() as f64 * 1e-9;
            t.self_secs += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op_id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Records `f` as a root span when there is a tracer, else just runs it:
/// the shape of every call that is traced only in traced repetitions.
pub fn time_if<R>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    op_id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(tracer) => tracer.time(name, op_id, None, f),
        None => f(),
    }
}

/// Calls, total time and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub calls: u64,
    pub secs: f64,
    pub self_secs: f64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. A child reaching outside its parent is
/// counted only for the part inside.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
            span("a.inner", Some(1), 15, 25),
            // a child that outlives its parent counts only while inside it
            span("late", Some(0), 95, 130),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 30 - 40 - 5, 20, 40, 10, 35]
        );
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.open("root", 1, None);
        a.time("child", 1, Some(root), || ());
        a.close(root);
        let mut b = Tracer::new(epoch);
        let root = b.open("root", 2, None);
        b.time("child", 2, Some(root), || ());
        b.close(root);
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[3].op_id, 2);
        let totals = a.totals();
        assert_eq!(totals["root"].calls, 2);
        assert!(totals["root"].self_secs <= totals["root"].secs);
    }
}
