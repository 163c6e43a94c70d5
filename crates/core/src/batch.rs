//! Parallel batch annotation.
//!
//! The paper's evaluation annotates whole fleets (§5: "3M GPS records" of
//! Milan trajectories); annotating them one-by-one on a single core
//! leaves the machine idle. [`BatchAnnotator`] fans a batch of raw
//! trajectories across a pool of worker threads that *share* one
//! read-only [`SeMiTri`] — the R\*-tree, road and POI indexes are built
//! once and borrowed by every worker, never cloned.
//!
//! Guarantees:
//!
//! * **Order preservation** — `results[i]` always corresponds to
//!   `trajectories[i]`, regardless of which worker annotated it or when
//!   it finished.
//! * **Determinism** — annotation is a pure function of the input, so the
//!   outputs are identical for every pool size (only the
//!   [`LatencyProfile`]s differ).
//! * **Panic isolation** — a panic while annotating one trajectory is
//!   caught and surfaced as that slot's [`PipelineError`]; the worker and
//!   the rest of the batch continue unaffected.
//! * **Failure isolation for degraded feeds** — [`BatchAnnotator::annotate_feeds`]
//!   accepts untrusted [`GpsFeed`]s; a feed the preprocessing stage cannot
//!   repair fails its slot with [`PipelineErrorKind::MalformedFeed`]
//!   instead of panicking anywhere.

use crate::pipeline::{PipelineOutput, SeMiTri};
use semitri_data::{FeedError, GpsFeed, RawTrajectory};
use semitri_obs::{
    HistogramSnapshot, MetricsObserver, MetricsRegistry, MetricsSnapshot, PipelineObserver, Stage,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// How one trajectory of a batch failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineErrorKind {
    /// The annotation panicked (a bug, an unexpected input); the panic
    /// was caught and isolated to this slot.
    Panicked,
    /// The feed was rejected by the preprocessing stage as irrecoverable
    /// (see [`FeedError`]) — expected operational noise, not a bug.
    MalformedFeed,
}

/// Failure of one trajectory inside a batch.
///
/// Carries enough identity to requeue or report the trajectory without
/// holding onto the input batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// Position of the failed trajectory in the input batch.
    pub index: usize,
    /// Moving-object identifier of the failed trajectory.
    pub object_id: u64,
    /// Trajectory identifier of the failed trajectory.
    pub trajectory_id: u64,
    /// Whether the slot panicked or its feed was rejected.
    pub kind: PipelineErrorKind,
    /// The panic payload or feed rejection, rendered as text.
    pub message: String,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verb = match self.kind {
            PipelineErrorKind::Panicked => "panicked",
            PipelineErrorKind::MalformedFeed => "rejected",
        };
        write!(
            f,
            "annotation of trajectory {} (object {}, batch index {}) {verb}: {}",
            self.trajectory_id, self.object_id, self.index, self.message
        )
    }
}

impl std::error::Error for PipelineError {}

/// Distribution of one pipeline stage's per-trajectory latency (seconds)
/// across a batch, backed by the `semitri-obs` log-bucketed histograms —
/// sequential, streaming and batched runs all report this same schema.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSummary {
    /// Trajectories that went through the stage.
    pub count: u64,
    /// GPS records (or stops, for the point stage) the stage processed.
    pub records: u64,
    /// Fastest trajectory (exact).
    pub min: f64,
    /// Arithmetic mean (exact).
    pub mean: f64,
    /// Median (bucket-resolved).
    pub p50: f64,
    /// 95th percentile (bucket-resolved).
    pub p95: f64,
    /// 99th percentile (bucket-resolved).
    pub p99: f64,
    /// Slowest trajectory (exact).
    pub max: f64,
}

impl StageSummary {
    /// Builds a summary from a histogram snapshot plus the stage's
    /// processed-record counter.
    pub fn from_histogram(h: &HistogramSnapshot, records: u64) -> Self {
        Self {
            count: h.count,
            records,
            min: h.min,
            mean: h.mean(),
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            max: h.max,
        }
    }

    /// Reads one stage's summary out of a metrics snapshot using the
    /// canonical `stage.<id>.{secs,records}` schema.
    pub fn from_metrics(snapshot: &MetricsSnapshot, stage: Stage) -> Self {
        let records = snapshot.counter(stage.records_metric());
        match snapshot.histogram(stage.secs_metric()) {
            Some(h) => Self::from_histogram(h, records),
            None => Self {
                records,
                ..Self::default()
            },
        }
    }
}

/// Pool-wide aggregation of a batch run: throughput, per-stage latency
/// distributions (the batch analogue of Fig. 17) and worker utilization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchSummary {
    /// Worker threads the pool actually ran.
    pub threads: usize,
    /// Trajectories in the batch.
    pub trajectories: usize,
    /// Trajectories that failed (annotation panicked or the feed was
    /// rejected as malformed).
    pub failures: usize,
    /// GPS records annotated (cleaned records of successful outputs).
    pub records: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_secs: f64,
    /// `records / wall_secs`.
    pub records_per_sec: f64,
    /// Cleaning + episode computation latency distribution.
    pub compute_episode: StageSummary,
    /// Map matching + mode inference latency distribution.
    pub map_match: StageSummary,
    /// Landuse spatial-join latency distribution.
    pub landuse_join: StageSummary,
    /// HMM stop-annotation latency distribution.
    pub point: StageSummary,
    /// Seconds each worker spent annotating (index = worker).
    pub worker_busy_secs: Vec<f64>,
    /// Trajectories each worker processed (index = worker).
    pub worker_trajectories: Vec<usize>,
    /// Full metrics snapshot of the run (per-stage histograms, record
    /// counters, pool gauges) in the canonical `semitri-obs` schema.
    pub metrics: MetricsSnapshot,
}

impl BatchSummary {
    /// Fraction of the batch's wall-clock each worker spent annotating.
    pub fn worker_utilization(&self) -> Vec<f64> {
        if self.wall_secs <= 0.0 {
            return vec![0.0; self.worker_busy_secs.len()];
        }
        self.worker_busy_secs
            .iter()
            .map(|b| b / self.wall_secs)
            .collect()
    }

    /// The per-layer breakdown in pipeline order — the batch analogue of
    /// the paper's Fig. 17 rows.
    pub fn stages(&self) -> [(Stage, &StageSummary); 4] {
        [
            (Stage::Episode, &self.compute_episode),
            (Stage::Region, &self.landuse_join),
            (Stage::Line, &self.map_match),
            (Stage::Point, &self.point),
        ]
    }

    /// Looks up one stage's summary.
    pub fn stage(&self, stage: Stage) -> &StageSummary {
        match stage {
            Stage::Episode => &self.compute_episode,
            Stage::Region => &self.landuse_join,
            Stage::Line => &self.map_match,
            Stage::Point => &self.point,
        }
    }
}

/// Results of a batch run: one slot per input trajectory, in input order,
/// plus the pool-wide [`BatchSummary`].
#[derive(Debug)]
pub struct BatchOutput {
    /// `results[i]` is trajectory `i`'s output, or the panic that stopped
    /// it.
    pub results: Vec<Result<PipelineOutput, PipelineError>>,
    /// Aggregated throughput / latency / utilization statistics.
    pub summary: BatchSummary,
}

impl BatchOutput {
    /// The successful outputs, in input order.
    pub fn outputs(&self) -> impl Iterator<Item = &PipelineOutput> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// The failed slots, in input order.
    pub fn errors(&self) -> impl Iterator<Item = &PipelineError> {
        self.results.iter().filter_map(|r| r.as_ref().err())
    }
}

/// A worker pool annotating batches of trajectories over one shared
/// [`SeMiTri`].
///
/// The shared pipeline's spatial indexes are frozen flat snapshots with
/// their precomputed cell oracles: built once before the pool starts, then
/// read concurrently by every worker through `&self` queries with no locks
/// and no per-worker copies.
///
/// ```no_run
/// # use semitri_core::{BatchAnnotator, SeMiTri, PipelineConfig};
/// # use semitri_data::{City, CityConfig, RawTrajectory};
/// # let city = City::generate(CityConfig::default());
/// # let batch: Vec<RawTrajectory> = Vec::new();
/// let semitri = SeMiTri::new(&city, PipelineConfig::default());
/// let out = BatchAnnotator::new(&semitri).with_threads(4).annotate_all(&batch);
/// println!("{:.0} records/s", out.summary.records_per_sec);
/// ```
pub struct BatchAnnotator<'s> {
    semitri: &'s SeMiTri,
    threads: usize,
    registry: Option<Arc<MetricsRegistry>>,
}

impl<'s> BatchAnnotator<'s> {
    /// Builds a pool over `semitri` sized to the machine's parallelism.
    pub fn new(semitri: &'s SeMiTri) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            semitri,
            threads,
            registry: None,
        }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Records the run's metrics into an external registry instead of a
    /// fresh per-run one (e.g. a process-wide registry scraped by an
    /// exporter). When reused across runs the counters and histograms
    /// accumulate; the per-run [`BatchSummary`] then summarizes the
    /// registry's whole history, not just the last batch.
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Annotates every trajectory of `batch`, fanning the work across the
    /// pool. Workers pull indexes from a shared channel (natural work
    /// stealing: a worker stuck on a long trajectory doesn't block the
    /// others), so the output is reassembled by index afterwards.
    pub fn annotate_all(&self, batch: &[RawTrajectory]) -> BatchOutput {
        let semitri = self.semitri;
        self.run_batch(
            batch,
            |t| (t.object_id, t.trajectory_id),
            move |t| semitri.try_annotate(t),
        )
    }

    /// Annotates every untrusted [`GpsFeed`] of `batch`: each worker runs
    /// the preprocessing stage on its feed (sort, dedupe, drop), so
    /// malformed feeds fail *their slot* with
    /// [`PipelineErrorKind::MalformedFeed`] while the rest of the fleet
    /// annotates normally.
    pub fn annotate_feeds(&self, batch: &[GpsFeed]) -> BatchOutput {
        let semitri = self.semitri;
        self.run_batch(
            batch,
            |f| (f.object_id, f.trajectory_id),
            move |f| semitri.try_annotate_feed(f),
        )
    }

    fn run_batch<T, I, A>(&self, batch: &[T], ids: I, annotate: A) -> BatchOutput
    where
        T: Sync,
        I: Fn(&T) -> (u64, u64) + Sync,
        A: Fn(&T) -> Result<PipelineOutput, FeedError> + Sync,
    {
        let started = Instant::now();
        // never spin up more workers than there is work for
        let threads = self.threads.min(batch.len()).max(1);

        // per-run metrics: every worker reports stage spans through the
        // same observer the sequential pipeline uses, so the summary's
        // schema is identical to a sequential run's registry
        let registry = self
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let stage_observer = MetricsObserver::new(registry.clone());
        let trajectory_secs = registry.histogram("batch.trajectory.secs");
        registry.gauge("batch.threads").set(threads as i64);
        registry
            .counter("batch.trajectories")
            .add(batch.len() as u64);
        let failure_counter = registry.counter("batch.failures");

        let (job_tx, job_rx) = crossbeam::channel::unbounded::<usize>();
        let (result_tx, result_rx) =
            crossbeam::channel::unbounded::<(usize, Result<PipelineOutput, PipelineError>)>();
        for index in 0..batch.len() {
            job_tx.send(index).expect("job receiver alive");
        }
        drop(job_tx);

        let ids = &ids;
        let annotate = &annotate;
        let worker_stats: Vec<(f64, usize)> = crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let jobs = job_rx.clone();
                    let results = result_tx.clone();
                    let stage_observer = &stage_observer;
                    let trajectory_secs = &trajectory_secs;
                    let failure_counter = &failure_counter;
                    scope.spawn(move |_| {
                        let mut busy_secs = 0.0;
                        let mut annotated = 0usize;
                        while let Ok(index) = jobs.recv() {
                            let item = &batch[index];
                            let (object_id, trajectory_id) = ids(item);
                            let t0 = Instant::now();
                            let outcome = match catch_unwind(AssertUnwindSafe(|| annotate(item))) {
                                Ok(Ok(out)) => Ok(out),
                                Ok(Err(feed_err)) => Err(PipelineError {
                                    index,
                                    object_id,
                                    trajectory_id,
                                    kind: PipelineErrorKind::MalformedFeed,
                                    message: feed_err.to_string(),
                                }),
                                Err(payload) => Err(PipelineError {
                                    index,
                                    object_id,
                                    trajectory_id,
                                    kind: PipelineErrorKind::Panicked,
                                    message: panic_message(payload.as_ref()),
                                }),
                            };
                            let elapsed = t0.elapsed().as_secs_f64();
                            busy_secs += elapsed;
                            annotated += 1;
                            match &outcome {
                                Ok(out) => {
                                    trajectory_secs.record(elapsed);
                                    stage_observer.on_preprocess(trajectory_id, &out.cleaning);
                                    for stage in Stage::ALL {
                                        stage_observer.on_stage_end(
                                            stage,
                                            trajectory_id,
                                            out.stage_records(stage),
                                            out.latency.stage_secs(stage),
                                        );
                                    }
                                }
                                Err(_) => failure_counter.inc(),
                            }
                            if results.send((index, outcome)).is_err() {
                                break;
                            }
                        }
                        (busy_secs, annotated)
                    })
                })
                .collect();
            // close this scope's spare handles so the result drain below
            // sees disconnection once every worker is done
            drop(result_tx);
            drop(job_rx);
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or((0.0, 0)))
                .collect()
        })
        .expect("workers never propagate panics");

        // reassemble in input order
        let mut slots: Vec<Option<Result<PipelineOutput, PipelineError>>> =
            (0..batch.len()).map(|_| None).collect();
        while let Ok((index, outcome)) = result_rx.try_recv() {
            slots[index] = Some(outcome);
        }
        let results: Vec<Result<PipelineOutput, PipelineError>> = slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                slot.unwrap_or_else(|| {
                    let (object_id, trajectory_id) = ids(&batch[index]);
                    Err(PipelineError {
                        index,
                        object_id,
                        trajectory_id,
                        kind: PipelineErrorKind::Panicked,
                        message: "worker produced no result".into(),
                    })
                })
            })
            .collect();
        let wall_secs = started.elapsed().as_secs_f64();

        let mut records = 0usize;
        let mut failures = 0usize;
        for result in &results {
            match result {
                Ok(output) => records += output.cleaned.len(),
                Err(_) => failures += 1,
            }
        }
        registry.counter("batch.records").add(records as u64);

        let metrics = registry.snapshot();
        let summary = BatchSummary {
            threads,
            trajectories: batch.len(),
            failures,
            records,
            wall_secs,
            records_per_sec: if wall_secs > 0.0 {
                records as f64 / wall_secs
            } else {
                0.0
            },
            compute_episode: StageSummary::from_metrics(&metrics, Stage::Episode),
            map_match: StageSummary::from_metrics(&metrics, Stage::Line),
            landuse_join: StageSummary::from_metrics(&metrics, Stage::Region),
            point: StageSummary::from_metrics(&metrics, Stage::Point),
            worker_busy_secs: worker_stats.iter().map(|(busy, _)| *busy).collect(),
            worker_trajectories: worker_stats.iter().map(|(_, n)| *n).collect(),
            metrics,
        };

        BatchOutput { results, summary }
    }
}

impl SeMiTri {
    /// Annotates a batch of trajectories over `threads` shared workers.
    /// Convenience for [`BatchAnnotator`] with an explicit pool size.
    pub fn annotate_batch(&self, batch: &[RawTrajectory], threads: usize) -> BatchOutput {
        BatchAnnotator::new(self)
            .with_threads(threads)
            .annotate_all(batch)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use semitri_data::sim::{SimConfig, TripSimulator};
    use semitri_data::{City, CityConfig, PoiCategory, TransportMode};
    use semitri_episodes::{EpisodeKind, SegmentationPolicy, VelocityPolicy};
    use semitri_geo::{Point, Rect, Timestamp};

    fn small_city() -> City {
        City::generate(CityConfig {
            bounds: Rect::new(0.0, 0.0, 5_000.0, 5_000.0),
            poi_count: 400,
            region_count: 4,
            seed: 77,
            ..CityConfig::default()
        })
    }

    fn fleet(city: &City, trips: u64) -> Vec<RawTrajectory> {
        (0..trips)
            .map(|k| {
                let origin = Point::new(900.0 + 350.0 * k as f64, 1_300.0 + 250.0 * k as f64);
                let dest = Point::new(4_000.0 - 300.0 * k as f64, 3_800.0 - 200.0 * k as f64);
                let mut sim = TripSimulator::new(
                    &city.roads,
                    SimConfig {
                        sampling_interval: 6.0,
                        ..SimConfig::default()
                    },
                    11 + k,
                    origin,
                    Timestamp(7.0 * 3_600.0 + 600.0 * k as f64),
                );
                sim.dwell(900.0, true, None);
                sim.travel_to(dest, TransportMode::Walk);
                sim.dwell(1_500.0, false, Some((k + 1, PoiCategory::ItemSale)));
                sim.travel_to(origin, TransportMode::Walk);
                sim.dwell(900.0, true, None);
                sim.finish(k + 1, 100 + k).to_raw()
            })
            .collect()
    }

    /// Asserts the semantic (non-timing) parts of two outputs are equal.
    fn assert_same_output(a: &PipelineOutput, b: &PipelineOutput) {
        assert_eq!(a.cleaned.records(), b.cleaned.records());
        assert_eq!(a.episodes, b.episodes);
        assert_eq!(a.region_tuples, b.region_tuples);
        assert_eq!(a.move_routes, b.move_routes);
        assert_eq!(a.stop_annotations, b.stop_annotations);
        assert_eq!(a.sst, b.sst);
    }

    #[test]
    fn results_preserve_input_order() {
        let city = small_city();
        let semitri = SeMiTri::new(&city, PipelineConfig::default());
        let batch = fleet(&city, 5);
        let out = BatchAnnotator::new(&semitri)
            .with_threads(3)
            .annotate_all(&batch);
        assert_eq!(out.results.len(), batch.len());
        for (i, result) in out.results.iter().enumerate() {
            let output = result.as_ref().expect("no failures in this batch");
            assert_eq!(output.sst.object_id, batch[i].object_id);
            assert_eq!(output.sst.trajectory_id, batch[i].trajectory_id);
        }
    }

    #[test]
    fn multi_thread_output_is_identical_to_single_thread() {
        let city = small_city();
        let semitri = SeMiTri::new(&city, PipelineConfig::default());
        let batch = fleet(&city, 6);
        let single = semitri.annotate_batch(&batch, 1);
        let pooled = semitri.annotate_batch(&batch, 4);
        assert_eq!(single.results.len(), pooled.results.len());
        for (a, b) in single.results.iter().zip(&pooled.results) {
            assert_same_output(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        // and both agree with the sequential single-trajectory API
        for (traj, result) in batch.iter().zip(&pooled.results) {
            assert_same_output(&semitri.annotate(traj), result.as_ref().unwrap());
        }
    }

    /// Policy that panics on one marked trajectory — exercises panic
    /// isolation without poisoning the pool.
    struct PanickingPolicy {
        inner: VelocityPolicy,
        poison_trajectory_id: u64,
    }

    impl SegmentationPolicy for PanickingPolicy {
        fn label(&self, traj: &RawTrajectory) -> Vec<EpisodeKind> {
            assert_ne!(
                traj.trajectory_id, self.poison_trajectory_id,
                "injected batch failure"
            );
            self.inner.label(traj)
        }

        fn min_stop_secs(&self) -> f64 {
            self.inner.min_stop_secs()
        }
    }

    #[test]
    fn worker_panic_is_isolated_to_its_trajectory() {
        let city = small_city();
        let batch = fleet(&city, 5);
        let poisoned = SeMiTri::new(
            &city,
            PipelineConfig {
                policy: Box::new(PanickingPolicy {
                    inner: VelocityPolicy::default(),
                    poison_trajectory_id: batch[2].trajectory_id,
                }),
                ..PipelineConfig::default()
            },
        );
        let clean = SeMiTri::new(&city, PipelineConfig::default());

        let out = poisoned.annotate_batch(&batch, 3);
        assert_eq!(out.summary.failures, 1);
        assert_eq!(out.errors().count(), 1);
        let err = out.results[2].as_ref().unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.object_id, batch[2].object_id);
        assert_eq!(err.trajectory_id, batch[2].trajectory_id);
        assert_eq!(err.kind, PipelineErrorKind::Panicked);
        assert!(err.message.contains("injected batch failure"), "{err}");
        assert!(err.to_string().contains("panicked"), "{err}");

        // every other slot still annotated, identically to a clean run
        for (i, result) in out.results.iter().enumerate() {
            if i == 2 {
                continue;
            }
            assert_same_output(result.as_ref().unwrap(), &clean.annotate(&batch[i]));
        }
    }

    #[test]
    fn summary_aggregates_stages_and_workers() {
        let city = small_city();
        let semitri = SeMiTri::new(&city, PipelineConfig::default());
        let batch = fleet(&city, 4);
        let out = semitri.annotate_batch(&batch, 2);
        let s = &out.summary;
        assert_eq!(s.threads, 2);
        assert_eq!(s.trajectories, 4);
        assert_eq!(s.failures, 0);
        assert!(s.records > 0);
        assert!(s.wall_secs > 0.0);
        assert!(s.records_per_sec > 0.0);
        for stage in [&s.compute_episode, &s.map_match, &s.landuse_join, &s.point] {
            assert!(stage.min <= stage.mean && stage.mean <= stage.max);
            assert!(stage.min <= stage.p95 && stage.p95 <= stage.max);
        }
        assert_eq!(s.worker_busy_secs.len(), 2);
        assert_eq!(s.worker_trajectories.len(), 2);
        assert_eq!(s.worker_trajectories.iter().sum::<usize>(), 4);
        for u in s.worker_utilization() {
            assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
    }

    #[test]
    fn malformed_feed_fails_its_slot_not_the_batch() {
        use semitri_data::GpsRecord;
        let city = small_city();
        let semitri = SeMiTri::new(&city, PipelineConfig::default());
        let good = fleet(&city, 3);

        // slot 1 is irrecoverable (all fixes non-finite); the others are
        // the good trajectories, one of them scrambled out of order
        // (adjacent swaps across distinct timestamps, so the stable
        // re-sort restores exactly the original order, ties included)
        let mut scrambled = good[2].records().to_vec();
        for i in (0..scrambled.len().saturating_sub(1)).step_by(7) {
            if scrambled[i].t != scrambled[i + 1].t {
                scrambled.swap(i, i + 1);
            }
        }
        let feeds = vec![
            GpsFeed::new(
                good[0].object_id,
                good[0].trajectory_id,
                good[0].records().to_vec(),
            ),
            GpsFeed::new(
                9,
                999,
                vec![GpsRecord::new(
                    Point::new(f64::NAN, f64::NAN),
                    Timestamp(0.0),
                )],
            ),
            GpsFeed::new(good[2].object_id, good[2].trajectory_id, scrambled),
        ];

        let out = BatchAnnotator::new(&semitri)
            .with_threads(2)
            .annotate_feeds(&feeds);
        assert_eq!(out.results.len(), 3);
        assert_eq!(out.summary.failures, 1);

        let err = out.results[1].as_ref().unwrap_err();
        assert_eq!(err.kind, PipelineErrorKind::MalformedFeed);
        assert_eq!(err.trajectory_id, 999);
        assert!(err.to_string().contains("rejected"), "{err}");
        assert!(err.message.contains("no valid records"), "{err}");

        // the clean slot matches the trusted path exactly
        assert_same_output(
            out.results[0].as_ref().unwrap(),
            &semitri.annotate(&good[0]),
        );
        // the scrambled slot was repaired back into the same trajectory
        let repaired = out.results[2].as_ref().unwrap();
        assert!(repaired.cleaning.reordered > 0);
        assert_same_output(repaired, &semitri.annotate(&good[2]));

        // preprocess counters flowed into the batch metrics
        let total_input: u64 = feeds.iter().map(|f| f.records.len() as u64).sum();
        assert_eq!(
            out.summary.metrics.counter("stage.preprocess.records"),
            total_input - 1 // the malformed feed never reports
        );
        assert!(out.summary.metrics.counter("stage.preprocess.reordered") > 0);
    }

    #[test]
    fn oversized_pool_and_empty_batch_are_safe() {
        let city = small_city();
        let semitri = SeMiTri::new(&city, PipelineConfig::default());

        let empty = semitri.annotate_batch(&[], 8);
        assert!(empty.results.is_empty());
        assert_eq!(empty.summary.records, 0);
        assert_eq!(empty.summary.records_per_sec, 0.0);

        let batch = fleet(&city, 2);
        let out = semitri.annotate_batch(&batch, 16);
        // the pool never spawns more workers than trajectories
        assert_eq!(out.summary.threads, 2);
        assert!(out.results.iter().all(|r| r.is_ok()));
    }
}
