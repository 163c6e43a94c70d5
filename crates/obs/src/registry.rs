//! Named-metric registry: counters, gauges and histograms, with
//! point-in-time snapshots renderable as a human table or JSON lines.

use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the counter to `total` when it is behind — for mirroring a
    /// monotone count its owner keeps elsewhere. Never lowers it, so
    /// concurrent publishes of older totals are harmless.
    pub fn raise_to(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge (pool sizes, queue depths, in-flight work).
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A registry of named metrics. Handles are `Arc`s resolved once and then
/// updated lock-free; the registry lock is only taken on registration and
/// snapshot.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry lock");
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Counter::new());
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry lock");
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Arc::new(Gauge::new());
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry lock");
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::new());
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// An immutable copy of a [`MetricsRegistry`], with report formatters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The histogram snapshot named `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The counter value named `name` (`0` when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Renders every metric as an aligned, human-readable table.
    /// Histogram latencies are shown in milliseconds.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str("counters/gauges:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<32} {v}\n"));
            }
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<32} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "histograms (ms): {:<19} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                "", "count", "min", "mean", "p50", "p95", "p99", "max"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {:<33} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
                    name,
                    h.count,
                    h.min * 1e3,
                    h.mean() * 1e3,
                    h.p50() * 1e3,
                    h.p95() * 1e3,
                    h.p99() * 1e3,
                    h.max * 1e3,
                ));
            }
        }
        out
    }

    /// Renders every metric as one JSON object per line (seconds, exact
    /// values) — machine-ingestible without a JSON dependency downstream.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}\n"
            ));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{name}\",\"value\":{v}}}\n"
            ));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"type\":\"histogram\",\"name\":\"{name}\",\"count\":{},\"sum\":{},\"min\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}\n",
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.mean()),
                json_f64(h.p50()),
                json_f64(h.p95()),
                json_f64(h.p99()),
                json_f64(h.max),
            ));
        }
        out
    }
}

/// JSON-safe float rendering (JSON has no Infinity/NaN literals).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        assert_eq!(r.counter("a").get(), 3);
        r.gauge("g").set(-5);
        r.gauge("g").add(1);
        assert_eq!(r.gauge("g").get(), -4);
        r.histogram("h").record(0.5);
        assert_eq!(r.histogram("h").count(), 1);
    }

    #[test]
    fn snapshot_is_a_consistent_copy() {
        let r = MetricsRegistry::new();
        r.counter("jobs").add(7);
        r.histogram("lat").record(0.010);
        let snap = r.snapshot();
        r.counter("jobs").add(100); // must not affect the snapshot
        assert_eq!(snap.counter("jobs"), 7);
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn table_and_json_render_every_metric() {
        let r = MetricsRegistry::new();
        r.counter("stage.point.records").add(4);
        r.gauge("batch.threads").set(8);
        r.histogram("stage.point.secs").record(0.002);
        let snap = r.snapshot();
        let table = snap.render_table();
        assert!(table.contains("stage.point.records"), "{table}");
        assert!(table.contains("batch.threads"), "{table}");
        assert!(table.contains("stage.point.secs"), "{table}");
        let json = snap.to_json_lines();
        assert_eq!(json.lines().count(), 3);
        assert!(json.contains("\"type\":\"histogram\""), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        // every line is a braces-balanced object
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn concurrent_registration_yields_one_metric() {
        let r = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        r.counter("shared").inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.snapshot().counter("shared"), 2_000);
    }
}
