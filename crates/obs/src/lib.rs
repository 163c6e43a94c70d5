//! # semitri-obs — the SeMiTri observability substrate
//!
//! The paper evaluates SeMiTri *per layer*: Fig. 17 reports separate
//! latencies for episode computation, the region (landuse) join, line
//! (map-matching) annotation and point (HMM) annotation. This crate is
//! the production counterpart of that methodology — a dependency-free
//! metrics substrate every annotation path reports through:
//!
//! * [`Counter`] / [`Gauge`] — atomic scalars;
//! * [`Histogram`] — concurrent log-bucketed latency histograms with
//!   exact min/mean/max and bucket-resolved p50/p95/p99;
//! * [`MetricsRegistry`] — named metrics with snapshot / table / JSON-line
//!   reporting;
//! * [`Stage`] + [`PipelineObserver`] — span-style stage hooks fired by
//!   the sequential pipeline, the streaming annotator and the batch pool,
//!   so all three report the *same* per-layer schema;
//! * [`MetricsObserver`] — the canonical observer routing stage spans
//!   into a registry;
//! * [`ServerMetrics`] — pre-resolved handles for the `server.*` schema
//!   reported by the `semitri-server` annotation server;
//! * [`StoreMetrics`] — pre-resolved handles for the `store.*` schema
//!   published from the columnar trajectory store's own counters
//!   (compression ratios, block-skip hit rates, query counts).
//!
//! ## Allocation discipline of the observed stages
//!
//! The spans this crate times wrap the pipeline's hot paths, which are
//! engineered to perform **no per-record heap allocation** once their
//! caller-owned scratch buffers reach steady state — so a latency
//! histogram here measures the kernels, not the allocator:
//!
//! * **Episode** — cleaning and segmentation walk the record slice with
//!   index cursors (no temporary per-fix collections); allocations happen
//!   per trajectory for the output buffers.
//! * **Region** — the Algorithm 1 landuse join addresses raster cells by
//!   arithmetic and extends a same-cell run with four comparisons; one
//!   label per category is formatted at build time, never per record.
//! * **Line** — map matching threads a `MatchScratch` arena (candidate
//!   buffers, epoch-stamped slot map, kernel-weight rows, oracle hint)
//!   through every episode; per-fix work is pure arithmetic over those
//!   buffers.
//! * **Point** — POI grid lookups are closure-based with no temporary
//!   collections; the Viterbi trellis is sized per *stop* (episode
//!   granularity), never per record.
//!
//! Per-*episode* and per-*trajectory* outputs (the annotation vectors
//! themselves) still allocate — they are the result, not the hot path.
//! The ladder benchmark (`benchmark/`) times each stage from outside; the
//! matcher's per-fix cost is its `core.line.ns_per_move_fix` metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod registry;
mod server;
mod store;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use server::ServerMetrics;
pub use store::StoreMetrics;

use std::sync::Arc;

/// The annotation layers of the pipeline (the paper's per-layer
/// evaluation axes), in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Trajectory Computation Layer: cleaning + stop/move segmentation.
    Episode,
    /// Semantic Region Annotation Layer: landuse spatial join.
    Region,
    /// Semantic Line Annotation Layer: map matching + mode inference.
    Line,
    /// Semantic Point Annotation Layer: HMM stop annotation.
    Point,
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 4] = [Stage::Episode, Stage::Region, Stage::Line, Stage::Point];

    /// Stable lowercase identifier used in metric names and reports.
    pub fn id(self) -> &'static str {
        match self {
            Stage::Episode => "episode",
            Stage::Region => "region",
            Stage::Line => "line",
            Stage::Point => "point",
        }
    }

    /// Dense index (`Stage::ALL[stage.index()] == stage`).
    pub fn index(self) -> usize {
        match self {
            Stage::Episode => 0,
            Stage::Region => 1,
            Stage::Line => 2,
            Stage::Point => 3,
        }
    }

    /// Name of the latency histogram for this stage.
    pub fn secs_metric(self) -> &'static str {
        match self {
            Stage::Episode => "stage.episode.secs",
            Stage::Region => "stage.region.secs",
            Stage::Line => "stage.line.secs",
            Stage::Point => "stage.point.secs",
        }
    }

    /// Name of the processed-record counter for this stage.
    pub fn records_metric(self) -> &'static str {
        match self {
            Stage::Episode => "stage.episode.records",
            Stage::Region => "stage.region.records",
            Stage::Line => "stage.line.records",
            Stage::Point => "stage.point.records",
        }
    }

    /// Name of the span counter for this stage.
    pub fn calls_metric(self) -> &'static str {
        match self {
            Stage::Episode => "stage.episode.calls",
            Stage::Region => "stage.region.calls",
            Stage::Line => "stage.line.calls",
            Stage::Point => "stage.point.calls",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// What the preprocessing stage had to repair before a feed could be
/// segmented. Counts are per-trajectory (the pipeline) or cumulative
/// (the streaming annotator). Offline, reordered fixes are *repaired*
/// (sorted back into place, counted but kept), so
/// `input == kept + dropped_nonfinite + deduped + dropped_conflicts + dropped_outliers`;
/// the streaming annotator cannot rewrite the past and drops them, so
/// there `reordered` joins the right-hand side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleaningReport {
    /// Fixes seen on input.
    pub input: u64,
    /// Fixes that survived preprocessing (what segmentation runs on).
    pub kept: u64,
    /// Fixes dropped for a NaN/∞ coordinate or timestamp.
    pub dropped_nonfinite: u64,
    /// Fixes that arrived out of timestamp order and were re-sorted
    /// (offline paths) or dropped (streaming, which cannot rewrite the
    /// past).
    pub reordered: u64,
    /// Co-located duplicate fixes (same timestamp, < 1 m apart) collapsed
    /// to the first arrival.
    pub deduped: u64,
    /// Conflicting same-instant fixes (same timestamp, far apart) dropped
    /// in favor of the first arrival.
    pub dropped_conflicts: u64,
    /// Fixes dropped by the physical speed bound (teleports).
    pub dropped_outliers: u64,
}

impl CleaningReport {
    /// Metric names for the preprocessing counters, in report order.
    /// These are **counters, not histograms**: `stage.preprocess` is a
    /// sub-span of the episode stage, so it has no latency histogram of
    /// its own and the `stage.*.secs` schema stays exactly [`Stage::ALL`].
    pub const METRICS: [&'static str; 6] = [
        "stage.preprocess.records",
        "stage.preprocess.kept",
        "stage.preprocess.dropped",
        "stage.preprocess.reordered",
        "stage.preprocess.deduped",
        "stage.preprocess.calls",
    ];

    /// Total fixes dropped outright (non-finite + conflicting +
    /// speed-outlier); reordered and deduped fixes are repairs, not drops.
    pub fn dropped(&self) -> u64 {
        self.dropped_nonfinite + self.dropped_conflicts + self.dropped_outliers
    }

    /// Accumulates `other` into `self` (fleet- or session-level totals).
    pub fn merge(&mut self, other: &CleaningReport) {
        self.input += other.input;
        self.kept += other.kept;
        self.dropped_nonfinite += other.dropped_nonfinite;
        self.reordered += other.reordered;
        self.deduped += other.deduped;
        self.dropped_conflicts += other.dropped_conflicts;
        self.dropped_outliers += other.dropped_outliers;
    }

    /// The change from `earlier` (a previous snapshot of a cumulative
    /// report) to `self`, saturating at zero per field.
    pub fn delta_since(&self, earlier: &CleaningReport) -> CleaningReport {
        CleaningReport {
            input: self.input.saturating_sub(earlier.input),
            kept: self.kept.saturating_sub(earlier.kept),
            dropped_nonfinite: self
                .dropped_nonfinite
                .saturating_sub(earlier.dropped_nonfinite),
            reordered: self.reordered.saturating_sub(earlier.reordered),
            deduped: self.deduped.saturating_sub(earlier.deduped),
            dropped_conflicts: self
                .dropped_conflicts
                .saturating_sub(earlier.dropped_conflicts),
            dropped_outliers: self
                .dropped_outliers
                .saturating_sub(earlier.dropped_outliers),
        }
    }
}

/// Span-style hooks fired around each pipeline stage. Implementations
/// must be cheap and thread-safe: the batch pool fires them from every
/// worker concurrently.
pub trait PipelineObserver: Send + Sync {
    /// A stage began for trajectory `trajectory_id`.
    fn on_stage_start(&self, stage: Stage, trajectory_id: u64) {
        let _ = (stage, trajectory_id);
    }

    /// A stage finished: it processed `records` records in
    /// `elapsed_secs` wall-clock seconds.
    fn on_stage_end(&self, stage: Stage, trajectory_id: u64, records: usize, elapsed_secs: f64);

    /// The preprocessing sub-stage cleaned a feed for `trajectory_id`
    /// (0 from the streaming annotator, which has no trajectory identity).
    /// Fires before the episode stage span; default is a no-op so
    /// existing observers are unaffected.
    fn on_preprocess(&self, trajectory_id: u64, report: &CleaningReport) {
        let _ = (trajectory_id, report);
    }

    /// A stage reported an auxiliary named counter (e.g.
    /// [`KERNEL_FALLBACK_METRIC`], the matcher's forward-row cache-miss
    /// recomputations). `name` is a `'static` metric name from this
    /// crate's schema constants; default is a no-op so existing observers
    /// are unaffected. Zero deltas may be skipped by callers.
    fn on_counter(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }
}

/// Counter metric: kernel weights the matcher recomputed because the
/// symmetric forward-row cache missed (ring eviction or pair beyond the
/// row stride). High values mean the `max_neighbors` stride is too small
/// for the data's neighbor density — wasted `exp` calls, never drift (the
/// recompute is bit-identical to the cached row).
pub const KERNEL_FALLBACK_METRIC: &str = "stage.line.kernel_fallback";

/// An observer that discards every event (useful as a default and in
/// benchmarks isolating observer overhead).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl PipelineObserver for NullObserver {
    fn on_stage_end(&self, _: Stage, _: u64, _: usize, _: f64) {}
}

/// Per-stage metric handles, resolved once.
struct StageMetrics {
    secs: Arc<Histogram>,
    records: Arc<Counter>,
    calls: Arc<Counter>,
}

/// The canonical [`PipelineObserver`]: routes every stage span into a
/// [`MetricsRegistry`] under the `stage.<id>.{secs,records,calls}`
/// schema. Handles are pre-resolved, so the hot path is three atomic
/// operations with no allocation or locking.
pub struct MetricsObserver {
    registry: Arc<MetricsRegistry>,
    stages: [StageMetrics; 4],
    preprocess: [Arc<Counter>; 6],
}

impl MetricsObserver {
    /// Builds an observer over `registry`, registering every stage metric
    /// up front (so the schema is visible even before any trajectory runs).
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        let stages = Stage::ALL.map(|s| StageMetrics {
            secs: registry.histogram(s.secs_metric()),
            records: registry.counter(s.records_metric()),
            calls: registry.counter(s.calls_metric()),
        });
        let preprocess = CleaningReport::METRICS.map(|name| registry.counter(name));
        Self {
            registry,
            stages,
            preprocess,
        }
    }

    /// The registry this observer reports into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

impl PipelineObserver for MetricsObserver {
    fn on_stage_end(&self, stage: Stage, _trajectory_id: u64, records: usize, elapsed_secs: f64) {
        let m = &self.stages[stage.index()];
        m.secs.record(elapsed_secs);
        m.records.add(records as u64);
        m.calls.inc();
    }

    fn on_preprocess(&self, _trajectory_id: u64, report: &CleaningReport) {
        let [records, kept, dropped, reordered, deduped, calls] = &self.preprocess;
        records.add(report.input);
        kept.add(report.kept);
        dropped.add(report.dropped());
        reordered.add(report.reordered);
        deduped.add(report.deduped);
        calls.inc();
    }

    fn on_counter(&self, name: &'static str, delta: u64) {
        // auxiliary counters are rare (once per trajectory, not per fix),
        // so the registry lookup here is off the hot path
        self.registry.counter(name).add(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_ids_and_indexes_are_dense_and_stable() {
        for (i, s) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Stage::ALL[s.index()], s);
            assert!(s.secs_metric().contains(s.id()));
            assert!(s.records_metric().contains(s.id()));
            assert!(s.calls_metric().contains(s.id()));
            assert_eq!(format!("{s}"), s.id());
        }
    }

    #[test]
    fn metrics_observer_registers_schema_up_front() {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = MetricsObserver::new(registry.clone());
        // schema visible before any span fires
        let snap = registry.snapshot();
        for s in Stage::ALL {
            assert!(snap.histogram(s.secs_metric()).is_some(), "{s}");
            assert_eq!(snap.counter(s.records_metric()), 0);
        }
        obs.on_stage_end(Stage::Line, 7, 120, 0.004);
        obs.on_stage_end(Stage::Line, 8, 80, 0.006);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(Stage::Line.records_metric()), 200);
        assert_eq!(snap.counter(Stage::Line.calls_metric()), 2);
        let h = snap.histogram(Stage::Line.secs_metric()).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 0.004);
        assert_eq!(h.max, 0.006);
    }

    #[test]
    fn null_observer_is_a_no_op() {
        NullObserver.on_stage_start(Stage::Episode, 1);
        NullObserver.on_stage_end(Stage::Episode, 1, 10, 0.1);
        NullObserver.on_preprocess(1, &CleaningReport::default());
        NullObserver.on_counter(KERNEL_FALLBACK_METRIC, 3);
    }

    #[test]
    fn auxiliary_counters_accumulate_through_on_counter() {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = MetricsObserver::new(registry.clone());
        obs.on_counter(KERNEL_FALLBACK_METRIC, 5);
        obs.on_counter(KERNEL_FALLBACK_METRIC, 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(KERNEL_FALLBACK_METRIC), 7);
        assert!(
            snap.histogram(KERNEL_FALLBACK_METRIC).is_none(),
            "auxiliary counter must not be a histogram"
        );
    }

    #[test]
    fn cleaning_report_merge_delta_and_metrics() {
        let a = CleaningReport {
            input: 100,
            kept: 90,
            dropped_nonfinite: 4,
            reordered: 7,
            deduped: 3,
            dropped_conflicts: 2,
            dropped_outliers: 1,
        };
        assert_eq!(a.dropped(), 7);
        assert_eq!(a.kept + a.dropped() + a.deduped, a.input);

        let mut total = CleaningReport::default();
        total.merge(&a);
        total.merge(&a);
        assert_eq!(total.input, 200);
        assert_eq!(total.delta_since(&a), a);
        assert_eq!(a.delta_since(&total), CleaningReport::default());

        let registry = Arc::new(MetricsRegistry::new());
        let obs = MetricsObserver::new(registry.clone());
        // preprocess counters are registered up front, and stay counters:
        // the stage.* histogram set must remain exactly Stage::ALL
        let snap = registry.snapshot();
        for name in CleaningReport::METRICS {
            assert_eq!(snap.counter(name), 0, "{name} not pre-registered");
            assert!(
                snap.histogram(name).is_none(),
                "{name} must not be a histogram"
            );
        }
        obs.on_preprocess(3, &a);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("stage.preprocess.records"), 100);
        assert_eq!(snap.counter("stage.preprocess.kept"), 90);
        assert_eq!(snap.counter("stage.preprocess.dropped"), 7);
        assert_eq!(snap.counter("stage.preprocess.reordered"), 7);
        assert_eq!(snap.counter("stage.preprocess.deduped"), 3);
        assert_eq!(snap.counter("stage.preprocess.calls"), 1);
    }
}
