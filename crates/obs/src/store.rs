//! The `store.*` metric schema reported by `semitri-store`.
//!
//! The columnar store keeps its own lock-free counters (blocks written,
//! bytes before/after compression, time-window block-skip hit rates,
//! rect-window candidates and hits, query counts);
//! [`StoreMetrics`] mirrors that state into a [`MetricsRegistry`] so a
//! `/metrics` scrape shows the storage engine next to the `stage.*` and
//! `server.*` schemas. Storage state is *published* (gauges set, and the
//! monotone query counts raised, from a snapshot, typically right before a
//! scrape), while query latencies are
//! *recorded* live into the `store.query_secs` histogram by whoever
//! times the query — the store itself stays free of timing syscalls on
//! its read path.

use crate::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Pre-resolved handles for every `store.*` metric.
pub struct StoreMetrics {
    /// `store.trajectories` — registered trajectory metadata rows.
    pub trajectories: Arc<Gauge>,
    /// `store.episodes` — stored episode rows.
    pub episodes: Arc<Gauge>,
    /// `store.ssts` — stored (alive) semantic trajectories.
    pub ssts: Arc<Gauge>,
    /// `store.fix_count` — GPS fixes held in compressed fix columns.
    pub fix_count: Arc<Gauge>,
    /// `store.fix_blocks` — fix-column blocks written.
    pub fix_blocks: Arc<Gauge>,
    /// `store.fix_raw_bytes` — what the fixes would occupy row-form.
    pub fix_raw_bytes: Arc<Gauge>,
    /// `store.fix_compressed_bytes` — compressed fix payload held.
    pub fix_compressed_bytes: Arc<Gauge>,
    /// `store.live_tuples` — alive semantic tuples in the matrix.
    pub live_tuples: Arc<Gauge>,
    /// `store.dead_tuples` — tombstoned tuples awaiting compaction.
    pub dead_tuples: Arc<Gauge>,
    /// `store.label_bits` — bits held by the bitpacked label streams.
    pub label_bits: Arc<Gauge>,
    /// `store.time_queries` — time-window episode queries served.
    pub time_queries: Arc<Counter>,
    /// `store.rect_queries` — spatial episode queries served.
    pub rect_queries: Arc<Counter>,
    /// `store.olap_queries` — warehouse aggregate scans served.
    pub olap_queries: Arc<Counter>,
    /// `store.ep_blocks_checked` — episode blocks examined by time-window
    /// queries (rect windows go through the lattice index instead).
    pub ep_blocks_checked: Arc<Gauge>,
    /// `store.ep_blocks_skipped` — blocks time-window queries skipped via
    /// their `t_min`/`t_max` summaries.
    pub ep_blocks_skipped: Arc<Gauge>,
    /// `store.rect_candidates` — rows the lattice index listed as
    /// rect-window candidates.
    pub rect_candidates: Arc<Gauge>,
    /// `store.rect_hits` — rect-window candidates that intersected the
    /// window.
    pub rect_hits: Arc<Gauge>,
    /// `store.log_bytes` — durable log size (0 when in-memory).
    pub log_bytes: Arc<Gauge>,
    /// `store.syncs` — fsync-family calls the durable log has issued.
    pub syncs: Arc<Counter>,
    /// `store.query_secs` — wall-clock latency of store queries, timed
    /// by the caller (the server's write-through path).
    pub query_secs: Arc<Histogram>,
}

impl StoreMetrics {
    /// Every gauge name in the schema, in report order.
    pub const GAUGES: [&'static str; 15] = [
        "store.trajectories",
        "store.episodes",
        "store.ssts",
        "store.fix_count",
        "store.fix_blocks",
        "store.fix_raw_bytes",
        "store.fix_compressed_bytes",
        "store.live_tuples",
        "store.dead_tuples",
        "store.label_bits",
        "store.ep_blocks_checked",
        "store.ep_blocks_skipped",
        "store.rect_candidates",
        "store.rect_hits",
        "store.log_bytes",
    ];

    /// Every counter name in the schema: the query and sync counts only
    /// ever grow.
    pub const COUNTERS: [&'static str; 4] = [
        "store.time_queries",
        "store.rect_queries",
        "store.olap_queries",
        "store.syncs",
    ];

    /// Every histogram name in the schema.
    pub const HISTOGRAMS: [&'static str; 1] = ["store.query_secs"];

    /// Resolves (and thereby registers) every `store.*` metric in
    /// `registry`.
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            trajectories: registry.gauge("store.trajectories"),
            episodes: registry.gauge("store.episodes"),
            ssts: registry.gauge("store.ssts"),
            fix_count: registry.gauge("store.fix_count"),
            fix_blocks: registry.gauge("store.fix_blocks"),
            fix_raw_bytes: registry.gauge("store.fix_raw_bytes"),
            fix_compressed_bytes: registry.gauge("store.fix_compressed_bytes"),
            live_tuples: registry.gauge("store.live_tuples"),
            dead_tuples: registry.gauge("store.dead_tuples"),
            label_bits: registry.gauge("store.label_bits"),
            time_queries: registry.counter("store.time_queries"),
            rect_queries: registry.counter("store.rect_queries"),
            olap_queries: registry.counter("store.olap_queries"),
            ep_blocks_checked: registry.gauge("store.ep_blocks_checked"),
            ep_blocks_skipped: registry.gauge("store.ep_blocks_skipped"),
            rect_candidates: registry.gauge("store.rect_candidates"),
            rect_hits: registry.gauge("store.rect_hits"),
            log_bytes: registry.gauge("store.log_bytes"),
            syncs: registry.counter("store.syncs"),
            query_secs: registry.histogram("store.query_secs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_registers_up_front() {
        let registry = MetricsRegistry::new();
        let _m = StoreMetrics::new(&registry);
        let snap = registry.snapshot();
        for name in StoreMetrics::GAUGES {
            assert!(snap.gauges.contains_key(name), "{name} not pre-registered");
        }
        for name in StoreMetrics::COUNTERS {
            assert!(
                snap.counters.contains_key(name),
                "{name} not pre-registered"
            );
            assert!(
                !snap.gauges.contains_key(name),
                "{name} is a count, not a gauge"
            );
        }
        for name in StoreMetrics::HISTOGRAMS {
            assert!(snap.histogram(name).is_some(), "{name} not pre-registered");
        }
    }

    #[test]
    fn query_counts_scrape_as_counters() {
        let registry = MetricsRegistry::new();
        let m = StoreMetrics::new(&registry);
        m.time_queries.raise_to(9);
        m.olap_queries.raise_to(6);
        m.olap_queries.raise_to(4); // a stale publish must not take it back
        m.syncs.raise_to(5);
        let scrape = registry.snapshot().to_json_lines();
        for (name, value) in [
            ("time_queries", 9),
            ("rect_queries", 0),
            ("olap_queries", 6),
            ("syncs", 5),
        ] {
            let line =
                format!("{{\"type\":\"counter\",\"name\":\"store.{name}\",\"value\":{value}}}\n");
            assert!(scrape.contains(&line), "{line} not in:\n{scrape}");
        }
    }

    #[test]
    fn gauges_reflect_the_latest_publish() {
        let registry = MetricsRegistry::new();
        let m = StoreMetrics::new(&registry);
        m.fix_count.set(1_000);
        m.fix_compressed_bytes.set(3_600);
        m.fix_count.set(2_000);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["store.fix_count"], 2_000);
        assert_eq!(snap.gauges["store.fix_compressed_bytes"], 3_600);
    }
}
