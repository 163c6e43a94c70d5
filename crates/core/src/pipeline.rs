//! The SeMiTri pipeline: Fig. 2 end to end.
//!
//! Wires the Trajectory Computation Layer (cleaning + stop/move
//! segmentation) to the three annotation layers and assembles the final
//! structured semantic trajectory, measuring per-layer latency as the
//! paper does in Fig. 17.

use crate::line::matcher::{GlobalMapMatcher, MatchParams, MatchScratch};
use crate::line::mode::ModeInferencer;
use crate::line::{group_matches, RouteEntry};
use crate::model::{Annotation, AnnotationValue, SemanticTuple, StructuredSemanticTrajectory};
use crate::point::{PointAnnotator, PointParams, StopAnnotation};
use crate::preprocess::Preprocessor;
use crate::region::{RegionAnnotator, RegionTuple};
use semitri_data::{City, FeedError, GpsFeed, GpsRecord, RawTrajectory};
use semitri_episodes::{Episode, EpisodeKind, SegmentationPolicy, VelocityPolicy};
use semitri_obs::{CleaningReport, PipelineObserver, Stage, KERNEL_FALLBACK_METRIC};
use std::sync::Arc;
use std::time::Instant;

/// Cleaning parameters of the Trajectory Computation Layer.
#[derive(Debug, Clone, Copy)]
pub struct CleanConfig {
    /// Fixes implying a faster speed are dropped as outliers.
    pub max_speed_mps: f64,
    /// Optional Gaussian smoothing bandwidth (seconds).
    pub smooth_sigma_secs: Option<f64>,
}

impl Default for CleanConfig {
    fn default() -> Self {
        Self {
            max_speed_mps: 70.0,
            smooth_sigma_secs: None,
        }
    }
}

/// Pipeline configuration.
pub struct PipelineConfig {
    /// Cleaning parameters.
    pub clean: CleanConfig,
    /// Stop/move computing policy.
    pub policy: Box<dyn SegmentationPolicy + Send + Sync>,
    /// Global map-matching parameters.
    pub match_params: MatchParams,
    /// Transport-mode inference parameters.
    pub mode: ModeInferencer,
    /// Point-layer parameters.
    pub point_params: PointParams,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            clean: CleanConfig::default(),
            policy: Box::new(VelocityPolicy::default()),
            match_params: MatchParams::default(),
            mode: ModeInferencer::default(),
            point_params: PointParams::default(),
        }
    }
}

/// Wall-clock seconds spent in each stage for one trajectory (Fig. 17's
/// computation/annotation latencies; storage latency is measured by
/// `semitri-store`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyProfile {
    /// Cleaning + episode computation.
    pub compute_episode_secs: f64,
    /// Map matching + mode inference over the move episodes.
    pub map_match_secs: f64,
    /// Landuse / region spatial join.
    pub landuse_join_secs: f64,
    /// HMM stop annotation.
    pub point_secs: f64,
}

impl LatencyProfile {
    /// Seconds spent in `stage` (the [`Stage`]-keyed view of the fields).
    pub fn stage_secs(&self, stage: Stage) -> f64 {
        match stage {
            Stage::Episode => self.compute_episode_secs,
            Stage::Region => self.landuse_join_secs,
            Stage::Line => self.map_match_secs,
            Stage::Point => self.point_secs,
        }
    }
}

/// Everything the pipeline produced for one trajectory.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The cleaned trajectory the episode indexes refer to.
    pub cleaned: RawTrajectory,
    /// Stop/move episodes over `cleaned`.
    pub episodes: Vec<Episode>,
    /// Algorithm 1 region tuples over `cleaned`.
    pub region_tuples: Vec<RegionTuple>,
    /// Per-move-episode matched routes: `(episode index, entries)`. Entry
    /// record ranges are relative to the episode's record slice.
    pub move_routes: Vec<(usize, Vec<RouteEntry>)>,
    /// Per-stop-episode annotations: `(episode index, annotation)`.
    pub stop_annotations: Vec<(usize, StopAnnotation)>,
    /// The assembled structured semantic trajectory.
    pub sst: StructuredSemanticTrajectory,
    /// Per-layer latencies.
    pub latency: LatencyProfile,
    /// What the preprocessing stage repaired or dropped on the way to
    /// `cleaned`.
    pub cleaning: CleaningReport,
}

impl PipelineOutput {
    /// Records processed by `stage` — exactly the counts the pipeline
    /// reports through [`PipelineObserver::on_stage_end`], recomputed from
    /// the output so batch aggregation and observers agree:
    /// episode/region count cleaned GPS records, line counts move-episode
    /// records, point counts annotated stops.
    pub fn stage_records(&self, stage: Stage) -> usize {
        match stage {
            Stage::Episode => self.cleaned.len(),
            Stage::Region => self.region_tuples.iter().map(|t| t.record_count()).sum(),
            Stage::Line => self
                .episodes
                .iter()
                .filter(|e| e.kind == EpisodeKind::Move)
                .map(|e| e.end - e.start)
                .sum(),
            Stage::Point => self.stop_annotations.len(),
        }
    }
}

/// The SeMiTri middleware bound to one city's geographic sources.
///
/// The pipeline owns its city snapshot behind an `Arc`: one `SeMiTri` is
/// one immutable annotation world, shareable across worker threads and
/// swappable as a whole by the generation layer (`LiveSeMiTri`).
pub struct SeMiTri {
    city: Arc<City>,
    region: RegionAnnotator,
    named: RegionAnnotator,
    matcher: GlobalMapMatcher,
    point: Option<PointAnnotator>,
    config: PipelineConfig,
    observer: Option<Arc<dyn PipelineObserver>>,
}

impl SeMiTri {
    /// Builds the middleware: indexes the landuse grid, the road network
    /// and the POIs of `city`. The line and point layers each read one
    /// frozen R\*-tree plus the per-cell candidate oracle gathered from it.
    /// The point layer is skipped when the city has no POIs (the paper's
    /// sparse-Lausanne situation, §5.3).
    ///
    /// Accepts either an `Arc<City>` (shared, no copy — the generation
    /// layer's path) or `&City` (cloned into a fresh `Arc` for callers
    /// that keep ownership).
    pub fn new(city: impl Into<Arc<City>>, config: PipelineConfig) -> Self {
        let city = city.into();
        let region = RegionAnnotator::from_landuse(&city.landuse);
        let named = RegionAnnotator::from_named_regions(&city.regions);
        let matcher = GlobalMapMatcher::new(&city.roads, config.match_params);
        let point = PointAnnotator::new(&city.pois, city.bounds(), config.point_params).ok();
        Self {
            city,
            region,
            named,
            matcher,
            point,
            config,
            observer: None,
        }
    }

    /// Installs a stage observer; every subsequent [`SeMiTri::annotate`]
    /// call (including ones issued by the batch pool) fires its hooks
    /// around each annotation layer.
    pub fn with_observer(mut self, observer: Arc<dyn PipelineObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Installs or removes the stage observer in place.
    pub fn set_observer(&mut self, observer: Option<Arc<dyn PipelineObserver>>) {
        self.observer = observer;
    }

    /// The installed stage observer, if any.
    pub fn observer(&self) -> Option<&Arc<dyn PipelineObserver>> {
        self.observer.as_ref()
    }

    fn stage_start(&self, stage: Stage, trajectory_id: u64) {
        if let Some(obs) = &self.observer {
            obs.on_stage_start(stage, trajectory_id);
        }
    }

    fn stage_end(&self, stage: Stage, trajectory_id: u64, records: usize, secs: f64) {
        if let Some(obs) = &self.observer {
            obs.on_stage_end(stage, trajectory_id, records, secs);
        }
    }

    /// The city this pipeline annotates against.
    pub fn city(&self) -> &City {
        &self.city
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The landuse region annotator (exposed for analytics).
    pub fn region_annotator(&self) -> &RegionAnnotator {
        &self.region
    }

    /// The free-form named-region annotator (campus, recreation areas).
    pub fn named_region_annotator(&self) -> &RegionAnnotator {
        &self.named
    }

    /// The map matcher (exposed for benchmarks).
    pub fn matcher(&self) -> &GlobalMapMatcher {
        &self.matcher
    }

    /// The point annotator, when POI data is available.
    pub fn point_annotator(&self) -> Option<&PointAnnotator> {
        self.point.as_ref()
    }

    /// Runs the full pipeline on one raw trajectory.
    ///
    /// # Panics
    /// Panics when the feed is irrecoverable (every fix non-finite) —
    /// trusted, pre-validated inputs only. Untrusted feeds go through
    /// [`SeMiTri::try_annotate`] / [`SeMiTri::try_annotate_feed`], which
    /// surface [`FeedError`] instead.
    pub fn annotate(&self, traj: &RawTrajectory) -> PipelineOutput {
        match self.try_annotate(traj) {
            Ok(out) => out,
            Err(e) => panic!("trajectory {} is irrecoverable: {e}", traj.trajectory_id),
        }
    }

    /// Fallible [`SeMiTri::annotate`]: returns [`FeedError`] instead of
    /// panicking when the feed is irrecoverable.
    pub fn try_annotate(&self, traj: &RawTrajectory) -> Result<PipelineOutput, FeedError> {
        self.annotate_records(traj.object_id, traj.trajectory_id, traj.records())
    }

    /// Runs the full pipeline on an untrusted [`GpsFeed`] — records with
    /// no ordering or finiteness guarantees. The preprocessing stage
    /// repairs what it can (sort, dedupe, drop non-finite fixes and
    /// outliers) and reports the repairs in the output's
    /// [`PipelineOutput::cleaning`] report; only a feed with no valid
    /// fix at all errors.
    pub fn try_annotate_feed(&self, feed: &GpsFeed) -> Result<PipelineOutput, FeedError> {
        self.annotate_records(feed.object_id, feed.trajectory_id, &feed.records)
    }

    fn annotate_records(
        &self,
        object_id: u64,
        trajectory_id: u64,
        raw_records: &[GpsRecord],
    ) -> Result<PipelineOutput, FeedError> {
        let mut latency = LatencyProfile::default();
        let tid = trajectory_id;

        // --- Trajectory Computation Layer ---
        // preprocessing runs before the episode span opens, so an
        // irrecoverable feed leaves no dangling stage span behind
        let t0 = Instant::now();
        let (records, cleaning) = Preprocessor::new(self.config.clean).run(raw_records)?;
        let preprocess_secs = t0.elapsed().as_secs_f64();
        if let Some(obs) = &self.observer {
            obs.on_preprocess(tid, &cleaning);
        }

        self.stage_start(Stage::Episode, tid);
        let t0 = Instant::now();
        // the Preprocessor guarantees strictly increasing timestamps, so
        // this constructor's ordering assertion cannot fire
        let cleaned = RawTrajectory::new(object_id, trajectory_id, records);
        let episodes = self.config.policy.segment(&cleaned);
        // cleaning + segmentation are one layer in the paper's Fig. 17
        latency.compute_episode_secs = preprocess_secs + t0.elapsed().as_secs_f64();
        self.stage_end(
            Stage::Episode,
            tid,
            cleaned.len(),
            latency.compute_episode_secs,
        );

        // --- Semantic Region Annotation Layer (Algorithm 1) ---
        self.stage_start(Stage::Region, tid);
        let t0 = Instant::now();
        let region_tuples = self.region.annotate_trajectory(&cleaned);
        latency.landuse_join_secs = t0.elapsed().as_secs_f64();
        self.stage_end(
            Stage::Region,
            tid,
            region_tuples.iter().map(|t| t.record_count()).sum(),
            latency.landuse_join_secs,
        );

        // --- Semantic Line Annotation Layer (Algorithm 2) ---
        self.stage_start(Stage::Line, tid);
        let t0 = Instant::now();
        let mut move_routes = Vec::new();
        let mut move_records = 0usize;
        // one scratch arena per trajectory, threaded through every move
        // episode so the matching hot path performs no per-fix allocation
        let mut scratch = MatchScratch::new();
        for (idx, ep) in episodes.iter().enumerate() {
            if ep.kind != EpisodeKind::Move {
                continue;
            }
            let slice = &cleaned.records()[ep.start..ep.end];
            move_records += slice.len();
            let matches = self.matcher.match_records_with(&mut scratch, slice);
            let mut entries = group_matches(slice, &matches);
            self.config
                .mode
                .annotate(&self.city.roads, slice, &mut entries);
            move_routes.push((idx, entries));
        }
        latency.map_match_secs = t0.elapsed().as_secs_f64();
        self.stage_end(Stage::Line, tid, move_records, latency.map_match_secs);
        let fallbacks = scratch.take_kernel_fallbacks();
        if fallbacks > 0 {
            if let Some(obs) = &self.observer {
                obs.on_counter(KERNEL_FALLBACK_METRIC, fallbacks);
            }
        }

        // --- Semantic Point Annotation Layer (Algorithm 3) ---
        self.stage_start(Stage::Point, tid);
        let t0 = Instant::now();
        let mut stop_annotations = Vec::new();
        if let Some(point) = &self.point {
            let stop_indexes: Vec<usize> = episodes
                .iter()
                .enumerate()
                .filter(|(_, e)| e.kind == EpisodeKind::Stop)
                .map(|(i, _)| i)
                .collect();
            let centers: Vec<_> = stop_indexes.iter().map(|&i| episodes[i].center).collect();
            let anns = point.annotate_stops(&centers);
            stop_annotations = stop_indexes.into_iter().zip(anns).collect();
        }
        latency.point_secs = t0.elapsed().as_secs_f64();
        self.stage_end(
            Stage::Point,
            tid,
            stop_annotations.len(),
            latency.point_secs,
        );

        let sst = self.assemble_sst(&cleaned, &episodes, &move_routes, &stop_annotations);

        Ok(PipelineOutput {
            cleaned,
            episodes,
            region_tuples,
            move_routes,
            stop_annotations,
            sst,
            latency,
            cleaning,
        })
    }

    /// Assembles the structured semantic trajectory: stops become
    /// `(place, t_in, t_out, activity)` tuples; moves become one tuple per
    /// transport-mode leg, as in the paper's §1.1 example.
    fn assemble_sst(
        &self,
        cleaned: &RawTrajectory,
        episodes: &[Episode],
        move_routes: &[(usize, Vec<RouteEntry>)],
        stop_annotations: &[(usize, StopAnnotation)],
    ) -> StructuredSemanticTrajectory {
        let mut tuples = Vec::new();
        for (idx, ep) in episodes.iter().enumerate() {
            match ep.kind {
                EpisodeKind::Stop => {
                    let ann = stop_annotations
                        .iter()
                        .find(|(i, _)| *i == idx)
                        .map(|(_, a)| a);
                    // place preference (most to least specific): the exact
                    // POI, a named free-form region (campus, recreation
                    // area — the paper's Fig. 3 examples), then the landuse
                    // cell under the stop center
                    let place = ann
                        .and_then(|a| a.poi.clone())
                        .or_else(|| self.named.region_at(ep.center))
                        .or_else(|| self.region.region_at(ep.center));
                    let mut annotations = Vec::new();
                    if let Some(a) = ann {
                        annotations.push(Annotation::activity(a.category));
                    }
                    tuples.push(SemanticTuple {
                        place,
                        span: ep.span,
                        annotations,
                    });
                }
                EpisodeKind::Move => {
                    let entries = move_routes
                        .iter()
                        .find(|(i, _)| *i == idx)
                        .map(|(_, e)| e.as_slice())
                        .unwrap_or(&[]);
                    if entries.is_empty() {
                        // unmatched move: keep an unannotated tuple so the
                        // SST still covers the whole trajectory
                        tuples.push(SemanticTuple {
                            place: None,
                            span: ep.span,
                            annotations: vec![Annotation::new(
                                "avg_speed",
                                AnnotationValue::Number(mean_speed(cleaned, ep)),
                            )],
                        });
                        continue;
                    }
                    // group consecutive entries by mode into legs
                    struct Leg {
                        start: usize, // entry range within `entries`
                        end: usize,
                        span: semitri_geo::TimeSpan,
                        mode: Option<semitri_data::TransportMode>,
                    }
                    let mut legs: Vec<Leg> = Vec::new();
                    let mut leg_start = 0usize;
                    for i in 1..=entries.len() {
                        if i < entries.len() && entries[i].mode == entries[leg_start].mode {
                            continue;
                        }
                        legs.push(Leg {
                            start: leg_start,
                            end: i,
                            span: semitri_geo::TimeSpan::new(
                                entries[leg_start].span.start,
                                entries[i - 1].span.end,
                            ),
                            mode: entries[leg_start].mode,
                        });
                        leg_start = i;
                    }
                    // absorb flickers: a leg shorter than a minute between
                    // two legs is mode noise (mis-matched collinear
                    // segments); merge it into the longer neighbor
                    const MIN_LEG_SECS: f64 = 60.0;
                    let mut i = 0usize;
                    while legs.len() > 1 && i < legs.len() {
                        if legs[i].span.duration() >= MIN_LEG_SECS {
                            i += 1;
                            continue;
                        }
                        let into_prev = if i == 0 {
                            false
                        } else if i + 1 == legs.len() {
                            true
                        } else {
                            legs[i - 1].span.duration() >= legs[i + 1].span.duration()
                        };
                        if into_prev {
                            legs[i - 1].end = legs[i].end;
                            legs[i - 1].span = legs[i - 1].span.union(&legs[i].span);
                            legs.remove(i);
                        } else {
                            legs[i + 1].start = legs[i].start;
                            legs[i + 1].span = legs[i + 1].span.union(&legs[i].span);
                            legs.remove(i);
                        }
                    }
                    // re-merge adjacent legs that ended up with equal modes
                    let mut merged: Vec<Leg> = Vec::new();
                    for leg in legs {
                        match merged.last_mut() {
                            Some(last) if last.mode == leg.mode => {
                                last.end = leg.end;
                                last.span = last.span.union(&leg.span);
                            }
                            _ => merged.push(leg),
                        }
                    }

                    for leg in merged {
                        let longest = entries[leg.start..leg.end]
                            .iter()
                            .max_by_key(|e| e.end - e.start)
                            .expect("leg nonempty");
                        let place = Some(longest.place_ref(&self.city.roads));
                        let mut annotations = Vec::new();
                        if let Some(m) = leg.mode {
                            annotations.push(Annotation::mode(m));
                        }
                        tuples.push(SemanticTuple {
                            place,
                            span: leg.span,
                            annotations,
                        });
                    }
                }
            }
        }
        StructuredSemanticTrajectory {
            object_id: cleaned.object_id,
            trajectory_id: cleaned.trajectory_id,
            tuples,
        }
    }
}

fn mean_speed(traj: &RawTrajectory, ep: &Episode) -> f64 {
    let slice = &traj.records()[ep.start..ep.end];
    if slice.len() < 2 {
        return 0.0;
    }
    let speeds: Vec<f64> = slice.windows(2).map(|w| w[0].speed_to(&w[1])).collect();
    speeds.iter().sum::<f64>() / speeds.len() as f64
}

/// Ratio of semantic tuples to raw GPS records — the paper's storage
/// compression measure ("3M GPS records can be annotated with only 8,385
/// cells", 99.7%).
pub fn compression_ratio(raw_records: usize, semantic_tuples: usize) -> f64 {
    if raw_records == 0 {
        return 0.0;
    }
    1.0 - semantic_tuples as f64 / raw_records as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use semitri_data::sim::{SimConfig, TripSimulator};
    use semitri_data::{CityConfig, PoiCategory, TransportMode};
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

    fn daily_trip(city: &City) -> semitri_data::sim::SimulatedTrack {
        let mut sim = TripSimulator::new(
            &city.roads,
            SimConfig {
                sampling_interval: 5.0,
                ..SimConfig::default()
            },
            9,
            Point::new(1_200.0, 1_500.0),
            Timestamp(8.0 * 3_600.0),
        );
        sim.dwell(900.0, true, None);
        sim.travel_to(Point::new(3_800.0, 3_600.0), TransportMode::Car);
        sim.dwell(1_800.0, false, Some((3, PoiCategory::ItemSale)));
        sim.travel_to(Point::new(1_200.0, 1_500.0), TransportMode::Car);
        sim.dwell(900.0, true, None);
        sim.finish(1, 1)
    }

    #[test]
    fn full_pipeline_produces_consistent_output() {
        let city = small_city();
        let semitri = SeMiTri::new(
            &city,
            PipelineConfig {
                mode: ModeInferencer {
                    allow_car: true,
                    ..ModeInferencer::default()
                },
                ..PipelineConfig::default()
            },
        );
        let track = daily_trip(&city);
        let out = semitri.annotate(&track.to_raw());

        // episodes partition the cleaned trajectory
        assert!(!out.episodes.is_empty());
        assert_eq!(out.episodes[0].start, 0);
        assert_eq!(out.episodes.last().unwrap().end, out.cleaned.len());
        for w in out.episodes.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }

        // region tuples cover the whole trajectory (landuse covers bounds)
        let covered: usize = out.region_tuples.iter().map(|t| t.record_count()).sum();
        assert_eq!(covered, out.cleaned.len());

        // there is at least one stop and one move
        let stops = out
            .episodes
            .iter()
            .filter(|e| e.kind == EpisodeKind::Stop)
            .count();
        let moves = out.episodes.len() - stops;
        assert!(stops >= 2, "stops {stops}");
        assert!(moves >= 1, "moves {moves}");

        // every move episode got a route
        assert_eq!(out.move_routes.len(), moves);
        for (_, entries) in &out.move_routes {
            assert!(!entries.is_empty());
            for e in entries {
                assert!(e.mode.is_some());
            }
        }

        // every stop got a point annotation
        assert_eq!(out.stop_annotations.len(), stops);

        // the SST has a tuple per stop plus >= 1 per move, time-ordered
        assert!(out.sst.len() >= out.episodes.len());
        for w in out.sst.tuples.windows(2) {
            assert!(w[0].span.start.0 <= w[1].span.start.0);
        }

        // latencies were measured
        assert!(out.latency.compute_episode_secs >= 0.0);
        assert!(out.latency.map_match_secs > 0.0);
    }

    #[test]
    fn car_modes_inferred_for_vehicle_config() {
        let city = small_city();
        let semitri = SeMiTri::new(
            &city,
            PipelineConfig {
                mode: ModeInferencer {
                    allow_car: true,
                    ..ModeInferencer::default()
                },
                ..PipelineConfig::default()
            },
        );
        let track = daily_trip(&city);
        let out = semitri.annotate(&track.to_raw());
        let modes: Vec<TransportMode> = out
            .move_routes
            .iter()
            .flat_map(|(_, es)| es.iter().filter_map(|e| e.mode))
            .collect();
        assert!(modes.contains(&TransportMode::Car), "modes {modes:?}");
    }

    #[test]
    fn sst_render_is_nonempty_and_sequential() {
        let city = small_city();
        let semitri = SeMiTri::new(&city, PipelineConfig::default());
        let track = daily_trip(&city);
        let out = semitri.annotate(&track.to_raw());
        let rendered = out.sst.render();
        assert!(rendered.contains("→"));
    }

    #[test]
    fn empty_trajectory_is_handled() {
        let city = small_city();
        let semitri = SeMiTri::new(&city, PipelineConfig::default());
        let out = semitri.annotate(&RawTrajectory::default());
        assert!(out.episodes.is_empty());
        assert!(out.sst.is_empty());
        assert!(out.region_tuples.is_empty());
    }

    #[test]
    fn degraded_feed_annotates_via_try_annotate_feed() {
        let city = small_city();
        let semitri = SeMiTri::new(&city, PipelineConfig::default());
        let track = daily_trip(&city);

        // scramble the track: reverse a chunk, inject NaN and a duplicate
        let mut records = track.records.clone();
        let n = records.len();
        records[n / 4..n / 2].reverse();
        records.push(GpsRecord::new(Point::new(f64::NAN, 0.0), Timestamp(0.0)));
        let dup = records[10];
        records.insert(11, dup);

        let feed = GpsFeed::new(1, 1, records);
        let out = semitri.try_annotate_feed(&feed).unwrap();
        assert!(out.cleaning.dropped_nonfinite >= 1);
        assert!(out.cleaning.reordered >= 1);
        assert!(out.cleaning.deduped >= 1);
        assert_eq!(out.cleaning.kept as usize, out.cleaned.len());
        // episodes still partition the cleaned range
        assert_eq!(out.episodes.first().unwrap().start, 0);
        assert_eq!(out.episodes.last().unwrap().end, out.cleaned.len());

        // the same trajectory through the trusted path reports a clean feed
        let trusted = semitri.try_annotate(&track.to_raw()).unwrap();
        assert_eq!(trusted.cleaning.dropped_nonfinite, 0);
        assert_eq!(trusted.cleaning.reordered, 0);
        assert_eq!(trusted.cleaning.input, track.records.len() as u64);
    }

    #[test]
    fn irrecoverable_feed_is_an_error_not_a_panic() {
        let city = small_city();
        let semitri = SeMiTri::new(&city, PipelineConfig::default());
        let feed = GpsFeed::new(
            1,
            9,
            vec![GpsRecord::new(Point::new(f64::NAN, 0.0), Timestamp(0.0))],
        );
        assert_eq!(
            semitri.try_annotate_feed(&feed).unwrap_err(),
            FeedError::NoValidRecords { total: 1 }
        );
        // empty feeds are not an error: they annotate to nothing
        let out = semitri.try_annotate_feed(&GpsFeed::default()).unwrap();
        assert!(out.sst.is_empty());
        assert_eq!(out.cleaning, CleaningReport::default());
    }

    #[test]
    fn compression_ratio_measure() {
        assert_eq!(compression_ratio(0, 0), 0.0);
        assert!((compression_ratio(1_000, 3) - 0.997).abs() < 1e-12);
        assert_eq!(compression_ratio(10, 10), 0.0);
    }

    #[test]
    fn stop_annotation_resolves_plausible_category() {
        // the dwell in daily_trip happens at an ItemSale POI of the city;
        // the HMM should pick a category with local support (the exact one
        // depends on the neighborhood mix)
        let city = small_city();
        let semitri = SeMiTri::new(&city, PipelineConfig::default());
        let track = daily_trip(&city);
        let out = semitri.annotate(&track.to_raw());
        assert!(!out.stop_annotations.is_empty());
        for (_, ann) in &out.stop_annotations {
            assert!(PoiCategory::ALL.contains(&ann.category));
        }
    }

    #[test]
    fn kernel_fallback_counter_reaches_the_metrics_registry() {
        use semitri_obs::{MetricsObserver, MetricsRegistry};
        let city = small_city();
        let registry = Arc::new(MetricsRegistry::new());
        let semitri = SeMiTri::new(&city, PipelineConfig::default())
            .with_observer(Arc::new(MetricsObserver::new(registry.clone())));
        // zigzag move: +50 m then -25 m per second. Every even fix's
        // forward expansion cuts at the 50 m hop (>= default radius 30),
        // yet the next fixes stay within radius of it backwards — forcing
        // forward-row cache misses that the Line stage must report
        let mut recs = Vec::new();
        let mut x = 100.0;
        for i in 0..60 {
            recs.push(GpsRecord::new(Point::new(x, 2_500.0), Timestamp(i as f64)));
            x += if i % 2 == 0 { 50.0 } else { -25.0 };
        }
        let _ = semitri.annotate(&RawTrajectory::new(1, 1, recs));
        let snap = registry.snapshot();
        assert!(
            snap.counter(KERNEL_FALLBACK_METRIC) > 0,
            "Line stage did not report kernel fallbacks"
        );
    }
}
