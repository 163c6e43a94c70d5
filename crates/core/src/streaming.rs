//! Real-time (streaming) annotation.
//!
//! The paper's challenge list demands that "annotation data is even
//! required in real-time" (§1.2). The batch pipeline needs the whole
//! trajectory; this module annotates a live GPS feed incrementally:
//!
//! * an **online segmenter** maintains the current stop/move hypothesis
//!   with the velocity predicate and closes an episode as soon as the
//!   motion state flips durably;
//! * each closed **move** is map-matched and mode-annotated immediately
//!   (Algorithm 2 operates per move episode, so this is exact);
//! * each closed **stop** is annotated with the *filtering* distribution
//!   of the HMM — the forward-probability argmax given the stops seen so
//!   far. Unlike offline Viterbi, a streaming annotator cannot see future
//!   stops; the forward argmax is the optimal causal estimate, and
//!   [`StreamingAnnotator::finalize`] re-decodes the full day with
//!   Viterbi for the store (matching the batch pipeline's output quality).

use crate::line::matcher::GlobalMapMatcher;
use crate::line::mode::ModeInferencer;
use crate::line::{group_matches, RouteEntry};
use crate::pipeline::{CleanConfig, SeMiTri};
use crate::point::{PointAnnotator, StopAnnotation};
use crate::region::RegionAnnotator;
use semitri_data::{City, GpsRecord, PoiCategory, RoadNetwork};
use semitri_episodes::clean::COLOCATED_EPS_M;
use semitri_episodes::{Episode, EpisodeKind, VelocityPolicy};
use semitri_geo::{Point, Rect, TimeSpan};
use semitri_index::{Generation, GenerationHandle, GenerationId};
use semitri_obs::{CleaningReport, PipelineObserver, Stage};
use std::sync::Arc;
use std::time::Instant;

/// An annotated episode emitted by the streaming annotator.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// A move episode closed: its matched route with modes.
    Move {
        /// The episode (indexes refer to the records fed so far).
        episode: Episode,
        /// Matched route entries (ranges relative to the episode slice).
        route: Vec<RouteEntry>,
    },
    /// A stop episode closed: its causal (forward-filtered) annotation.
    Stop {
        /// The episode.
        episode: Episode,
        /// Online activity estimate.
        annotation: StopAnnotation,
        /// Landuse / named region under the stop, when covered.
        region: Option<crate::model::PlaceRef>,
    },
}

/// Seconds of sustained movement needed to confirm a stop → move
/// transition (GPS wander inside a building shouldn't end the stop).
const MOVE_CONFIRM_SECS: f64 = 30.0;

/// The annotation machinery a streaming session runs on: either built
/// and owned by this annotator (the historical shape — every spatial
/// index constructed per instance), borrowed from a long-lived
/// [`SeMiTri`] pipeline so a server hosting thousands of sessions
/// builds the frozen indexes once and shares them by reference, or
/// pinned to a [`GenerationHandle`] so live updates swap in underneath
/// the session at episode boundaries.
// the size gap vs the pointer-sized Shared/Live variants is fine: an
// annotator holds exactly one Engine, and server sessions never use Owned
#[allow(clippy::large_enum_variant)]
enum Engine<'c> {
    /// Indexes owned by this annotator.
    Owned {
        region: RegionAnnotator,
        matcher: GlobalMapMatcher,
        point: Option<PointAnnotator>,
        mode: ModeInferencer,
    },
    /// Indexes borrowed from a shared pipeline (`SeMiTri` is
    /// `&`-shareable; the batch pool already relies on that).
    Shared(&'c SeMiTri),
    /// Indexes resolved through a generation handle. The session holds a
    /// pin on one generation; [`StreamingAnnotator::push`] re-pins at
    /// episode-open boundaries, so an in-flight episode always finishes
    /// on the generation it started on and the *next* episode picks up
    /// whatever a concurrent publish installed.
    Live {
        handle: Arc<GenerationHandle<SeMiTri>>,
        pinned: Arc<Generation<SeMiTri>>,
    },
}

impl<'c> Engine<'c> {
    fn region(&self) -> &RegionAnnotator {
        match self {
            Engine::Owned { region, .. } => region,
            Engine::Shared(s) => s.region_annotator(),
            Engine::Live { pinned, .. } => pinned.snapshot().region_annotator(),
        }
    }

    fn matcher(&self) -> &GlobalMapMatcher {
        match self {
            Engine::Owned { matcher, .. } => matcher,
            Engine::Shared(s) => s.matcher(),
            Engine::Live { pinned, .. } => pinned.snapshot().matcher(),
        }
    }

    fn point(&self) -> Option<&PointAnnotator> {
        match self {
            Engine::Owned { point, .. } => point.as_ref(),
            Engine::Shared(s) => s.point_annotator(),
            Engine::Live { pinned, .. } => pinned.snapshot().point_annotator(),
        }
    }

    fn mode(&self) -> ModeInferencer {
        match self {
            Engine::Owned { mode, .. } => *mode,
            Engine::Shared(s) => s.config().mode,
            Engine::Live { pinned, .. } => pinned.snapshot().config().mode,
        }
    }

    fn roads(&self) -> &RoadNetwork {
        match self {
            Engine::Owned { matcher, .. } => matcher.network(),
            Engine::Shared(s) => &s.city().roads,
            Engine::Live { pinned, .. } => &pinned.snapshot().city().roads,
        }
    }
}

/// Incremental stop/move/annotate engine over a live GPS feed.
pub struct StreamingAnnotator<'c> {
    engine: Engine<'c>,
    policy: VelocityPolicy,
    /// Online cleaning parameters (speed bound; smoothing is offline-only
    /// and ignored here — a causal annotator cannot smooth with future
    /// fixes).
    clean: CleanConfig,
    /// Cumulative account of what the online validation gate rejected.
    cleaning: CleaningReport,
    /// Snapshot of `cleaning` at the last flush, so each flush reports
    /// only its own delta through the observer.
    cleaning_reported: CleaningReport,

    /// All *accepted* records so far (episode indexes refer into this;
    /// rejected fixes never enter).
    records: Vec<GpsRecord>,
    /// Index where the currently-open episode starts.
    open_start: usize,
    /// Current motion hypothesis of the open episode.
    open_kind: Option<EpisodeKind>,
    /// Record index where a contrary-motion run began (hysteresis state).
    contrary_since: Option<usize>,
    /// Forward (filtering) log-probabilities over POI categories
    /// (`None` until the first stop closes).
    forward: Option<Vec<f64>>,
    /// Stops closed so far (centers), for the final Viterbi pass.
    stop_centers: Vec<Point>,
    /// Set by the first [`StreamingAnnotator::flush`]: the session has
    /// terminal semantics — further flushes are defined no-ops and
    /// further pushes are rejected (counted, never ingested).
    finished: bool,
    /// Fixes refused because they arrived after the terminal flush.
    rejected_after_finish: u64,
    /// Stage observer fired as episodes close (same schema as the batch
    /// pipeline's, so live and offline runs report identically).
    observer: Option<Arc<dyn PipelineObserver>>,
    /// Reusable matcher arena: a long-lived stream annotates every move
    /// episode without per-fix heap allocation.
    match_scratch: crate::line::matcher::MatchScratch,
}

impl<'c> StreamingAnnotator<'c> {
    /// Builds a streaming annotator over a city's sources.
    ///
    /// Every spatial index (road segments, POIs) is built once here and
    /// frozen into its flat read-optimized snapshot plus cell oracle — the
    /// same read path as the batch pipeline. The landuse join needs no
    /// index: it addresses the raster by arithmetic.
    pub fn new(
        city: &City,
        policy: VelocityPolicy,
        match_params: crate::line::matcher::MatchParams,
        mode: ModeInferencer,
        point_params: crate::point::PointParams,
    ) -> Self {
        let point = PointAnnotator::new(&city.pois, city.bounds(), point_params).ok();
        Self::with_engine(
            Engine::Owned {
                region: RegionAnnotator::from_landuse(&city.landuse),
                matcher: GlobalMapMatcher::new(&city.roads, match_params),
                point,
                mode,
            },
            policy,
            CleanConfig::default(),
        )
    }

    /// Builds a streaming annotator that *borrows* a shared [`SeMiTri`]
    /// pipeline's spatial indexes instead of constructing its own — the
    /// session shape for a long-running server, where per-user sessions
    /// must cost per-user state (records, episode cursors, one matcher
    /// scratch), not a rebuild of every frozen index. Cleaning and mode
    /// parameters come from the pipeline's configuration; the stage
    /// observer is *not* inherited (install one with
    /// [`StreamingAnnotator::with_observer`] if per-session spans are
    /// wanted — a server typically observes at the shared pipeline level).
    pub fn over(pipeline: &'c SeMiTri, policy: VelocityPolicy) -> Self {
        let clean = pipeline.config().clean;
        Self::with_engine(Engine::Shared(pipeline), policy, clean)
    }

    /// Builds a streaming annotator over a [`GenerationHandle`] — the
    /// session shape for a server that accepts live map updates. The
    /// current generation is pinned immediately; each episode-open
    /// boundary re-pins, so episodes in flight when a publish lands
    /// finish on the generation they started on while the next episode
    /// sees the new world. Cleaning and mode parameters follow the
    /// pinned pipeline's configuration (re-read at each re-pin).
    pub fn live(
        handle: Arc<GenerationHandle<SeMiTri>>,
        policy: VelocityPolicy,
    ) -> StreamingAnnotator<'static> {
        let pinned = handle.pin();
        let clean = pinned.snapshot().config().clean;
        StreamingAnnotator::with_engine(Engine::Live { handle, pinned }, policy, clean)
    }

    fn with_engine(engine: Engine<'c>, policy: VelocityPolicy, clean: CleanConfig) -> Self {
        Self {
            engine,
            policy,
            clean,
            cleaning: CleaningReport::default(),
            cleaning_reported: CleaningReport::default(),
            records: Vec::new(),
            open_start: 0,
            open_kind: None,
            contrary_since: None,
            forward: None,
            stop_centers: Vec::new(),
            finished: false,
            rejected_after_finish: 0,
            observer: None,
            match_scratch: crate::line::matcher::MatchScratch::new(),
        }
    }

    /// Installs a stage observer fired around the per-episode annotation
    /// work as episodes close.
    pub fn with_observer(mut self, observer: Arc<dyn PipelineObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Installs or removes the stage observer in place.
    pub fn set_observer(&mut self, observer: Option<Arc<dyn PipelineObserver>>) {
        self.observer = observer;
    }

    /// Sets the online cleaning parameters (the speed bound; the
    /// smoothing bandwidth is ignored — smoothing needs future fixes a
    /// causal annotator doesn't have).
    pub fn with_clean(mut self, clean: CleanConfig) -> Self {
        self.clean = clean;
        self
    }

    /// Number of records *accepted* (fed minus what the validation gate
    /// rejected; see [`StreamingAnnotator::cleaning_report`]). Episode
    /// indexes refer to this range.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Cumulative account of the fixes rejected or accepted since the
    /// annotator was built.
    pub fn cleaning_report(&self) -> &CleaningReport {
        &self.cleaning
    }

    /// Whether the terminal [`StreamingAnnotator::flush`] has run. A
    /// finished session accepts no further fixes and flushes to nothing.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Fixes refused because they were pushed after the terminal flush
    /// (these never enter the cleaning report: they were not cleaned,
    /// they were refused).
    pub fn rejected_after_finish(&self) -> u64 {
        self.rejected_after_finish
    }

    /// The generation this session is currently pinned to, when it runs
    /// over a [`GenerationHandle`] (`None` for owned or shared engines).
    pub fn generation_id(&self) -> Option<GenerationId> {
        match &self.engine {
            Engine::Live { pinned, .. } => Some(pinned.id()),
            _ => None,
        }
    }

    /// Re-pins a live engine to the handle's current generation (no-op
    /// for owned/shared engines). Called exactly at episode-open
    /// boundaries: an episode is annotated wholly on one generation, and
    /// cross-generation scratch reuse is already guarded by the matcher
    /// fingerprint in `MatchScratch`.
    fn repin(&mut self) {
        if let Engine::Live { handle, pinned } = &mut self.engine {
            let fresh = handle.pin();
            if fresh.id() != pinned.id() {
                self.clean = fresh.snapshot().config().clean;
                *pinned = fresh;
            }
        }
    }

    fn observe(&self, stage: Stage, records: usize, secs: f64) {
        if let Some(obs) = &self.observer {
            // the streaming annotator has no trajectory id until the feed
            // is bound to one; report the object-neutral id 0
            obs.on_stage_start(stage, 0);
            obs.on_stage_end(stage, 0, records, secs);
        }
    }

    /// Feeds one GPS record; returns the episodes that closed as a result
    /// (usually none, occasionally one).
    ///
    /// Degraded fixes are rejected at the door — the streaming
    /// counterpart of the batch `Preprocessor`, except a causal annotator
    /// cannot re-sort the past, so out-of-order fixes are *dropped*
    /// (counted as `reordered`) instead of repaired. Rejections never
    /// panic and never corrupt the open episode.
    pub fn push(&mut self, record: GpsRecord) -> Vec<StreamEvent> {
        if self.finished {
            // terminal semantics: a flushed session is closed, not
            // half-open — silently reopening it would emit episodes with
            // indexes overlapping the flushed ones
            self.rejected_after_finish += 1;
            return Vec::new();
        }
        self.cleaning.input += 1;
        if !record.is_finite() {
            self.cleaning.dropped_nonfinite += 1;
            return Vec::new();
        }
        if let Some(prev) = self.records.last() {
            let dt = record.t.since(prev.t);
            if dt < 0.0 {
                // time ran backwards: the emitted episodes are immutable,
                // so the late fix can only be discarded
                self.cleaning.reordered += 1;
                return Vec::new();
            }
            if dt == 0.0 {
                if prev.point.distance(record.point) < COLOCATED_EPS_M {
                    self.cleaning.deduped += 1;
                } else {
                    self.cleaning.dropped_conflicts += 1;
                }
                return Vec::new();
            }
            if prev.point.distance(record.point) / dt > self.clean.max_speed_mps {
                self.cleaning.dropped_outliers += 1;
                return Vec::new();
            }
        }
        self.cleaning.kept += 1;
        self.records.push(record);
        let n = self.records.len();
        if n < 2 {
            return Vec::new();
        }
        // instantaneous smoothed speed over the policy's window
        let k = self.policy.smoothing_half_width.max(1);
        let lo = n.saturating_sub(k + 1);
        let window = &self.records[lo..n];
        let dt = window[window.len() - 1].t.since(window[0].t);
        let dist: f64 = window
            .windows(2)
            .map(|w| w[0].point.distance(w[1].point))
            .sum();
        let speed = if dt > 0.0 { dist / dt } else { 0.0 };
        let kind = if speed < self.policy.speed_threshold_mps {
            EpisodeKind::Stop
        } else {
            EpisodeKind::Move
        };

        match self.open_kind {
            None => {
                // first episode opens: pin the generation it will run on
                self.repin();
                self.open_kind = Some(kind);
                Vec::new()
            }
            Some(open) if open == kind => {
                // contrary evidence evaporated: it was a dip/blip inside
                // the open episode, not a transition
                self.contrary_since = None;
                Vec::new()
            }
            Some(open) => {
                // hysteresis: an emitted episode cannot be retracted, so a
                // transition is only committed once the contrary motion
                // state has persisted — a stop must last min_stop_secs
                // (brief halts stay inside the move, like the batch
                // policy's demotion), a move needs a short confirmation
                let flip_start = *self.contrary_since.get_or_insert(n - 1);
                let contrary_secs = self.records[n - 1].t.since(self.records[flip_start].t);
                let confirm_after = match open {
                    EpisodeKind::Move => self.policy.min_stop_secs,
                    EpisodeKind::Stop => MOVE_CONFIRM_SECS,
                };
                if contrary_secs < confirm_after {
                    return Vec::new();
                }
                // a stop that never reached min_stop_secs is noise, not an
                // episode: merge its records into the move that now
                // continues (the online equivalent of the batch policy's
                // demotion) rather than emitting or dropping them
                if open == EpisodeKind::Stop {
                    let open_secs = self.records[flip_start - 1]
                        .t
                        .since(self.records[self.open_start].t);
                    if open_secs < self.policy.min_stop_secs {
                        self.open_kind = Some(kind);
                        self.contrary_since = None;
                        return Vec::new();
                    }
                }
                // the contrary run's first record belongs to the *new*
                // episode: close [open_start, flip_start) and reopen at
                // flip_start, so consecutive episodes share no record
                let closed = self.close_episode(open, self.open_start, flip_start);
                // the closing episode ran on the old pin; the episode
                // opening at flip_start runs on whatever is current now
                self.repin();
                self.open_start = flip_start;
                self.open_kind = Some(kind);
                self.contrary_since = None;
                closed.into_iter().collect()
            }
        }
    }

    /// Closes the currently open episode (end of feed) and returns any
    /// final event. Also reports the cleaning work done since the last
    /// flush through the observer's `on_preprocess` hook (trajectory id
    /// 0, like every streaming span).
    ///
    /// The first flush is **terminal**: it marks the session finished
    /// (see [`StreamingAnnotator::is_finished`]), after which further
    /// flushes are defined no-ops returning no events and reporting no
    /// duplicate cleaning delta, and further pushes are rejected. An
    /// empty session flushes to an empty-but-valid result: no events,
    /// a zeroed cleaning report, and a [`StreamingAnnotator::finalize`]
    /// that decodes zero stops.
    pub fn flush(&mut self) -> Vec<StreamEvent> {
        if self.finished {
            return Vec::new();
        }
        self.finished = true;
        if let Some(obs) = &self.observer {
            let delta = self.cleaning.delta_since(&self.cleaning_reported);
            if delta != CleaningReport::default() {
                obs.on_preprocess(0, &delta);
            }
        }
        self.cleaning_reported = self.cleaning;
        let n = self.records.len();
        // the open cursor advances to the end of the accepted records in
        // every exit path: no later call may see a stale episode start
        let start = self.open_start;
        self.open_start = n;
        let Some(kind) = self.open_kind.take() else {
            return Vec::new();
        };
        if start >= n {
            return Vec::new();
        }
        // a final stop shorter than the minimum is demoted to a move, as
        // the batch policy does; the trailing records are never dropped
        let kind = if kind == EpisodeKind::Stop
            && self.records[n - 1].t.since(self.records[start].t) < self.policy.min_stop_secs
        {
            EpisodeKind::Move
        } else {
            kind
        };
        self.close_episode(kind, start, n).into_iter().collect()
    }

    fn episode(&self, kind: EpisodeKind, start: usize, end: usize) -> Episode {
        let records = &self.records[start..end];
        let bbox = Rect::covering(records.iter().map(|r| r.point));
        let inv = 1.0 / records.len() as f64;
        let cx: f64 = records.iter().map(|r| r.point.x).sum::<f64>() * inv;
        let cy: f64 = records.iter().map(|r| r.point.y).sum::<f64>() * inv;
        Episode {
            kind,
            start,
            end,
            span: TimeSpan::new(records[0].t, records[records.len() - 1].t),
            bbox,
            center: Point::new(cx, cy),
        }
    }

    fn close_episode(
        &mut self,
        kind: EpisodeKind,
        start: usize,
        end: usize,
    ) -> Option<StreamEvent> {
        if end <= start {
            return None;
        }
        let n_records = end - start;
        let t0 = Instant::now();
        let episode = self.episode(kind, start, end);
        self.observe(Stage::Episode, n_records, t0.elapsed().as_secs_f64());
        match kind {
            EpisodeKind::Move => {
                let t0 = Instant::now();
                let slice = &self.records[start..end];
                let matches = self
                    .engine
                    .matcher()
                    .match_records_with(&mut self.match_scratch, slice);
                let mut route = group_matches(slice, &matches);
                self.engine
                    .mode()
                    .annotate(self.engine.roads(), slice, &mut route);
                self.observe(Stage::Line, n_records, t0.elapsed().as_secs_f64());
                Some(StreamEvent::Move { episode, route })
            }
            EpisodeKind::Stop => {
                let t0 = Instant::now();
                let region = self.engine.region().region_at(episode.center);
                self.observe(Stage::Region, n_records, t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                let annotation = match self.engine.point() {
                    Some(point) => {
                        let (ann, forward) =
                            point.annotate_stop_online(episode.center, self.forward.as_deref());
                        self.forward = Some(forward);
                        ann
                    }
                    None => StopAnnotation {
                        category: PoiCategory::Unknown,
                        poi: None,
                    },
                };
                self.observe(Stage::Point, 1, t0.elapsed().as_secs_f64());
                self.stop_centers.push(episode.center);
                Some(StreamEvent::Stop {
                    episode,
                    annotation,
                    region,
                })
            }
        }
    }

    /// End-of-day re-decode: runs offline Viterbi over every stop seen,
    /// returning the smoothed annotations (what the batch pipeline would
    /// have produced). The online estimates are causal; these are not.
    pub fn finalize(&self) -> Vec<StopAnnotation> {
        match self.engine.point() {
            Some(point) => point.annotate_stops(&self.stop_centers),
            None => Vec::new(),
        }
    }
}

/// Offline/online agreement measure used in tests and ablations: fraction
/// of stops where the causal estimate matches the Viterbi decode.
pub fn online_offline_agreement(online: &[StopAnnotation], offline: &[StopAnnotation]) -> f64 {
    if online.is_empty() || online.len() != offline.len() {
        return 0.0;
    }
    let same = online
        .iter()
        .zip(offline)
        .filter(|(a, b)| a.category == b.category)
        .count();
    same as f64 / online.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::matcher::MatchParams;
    use crate::point::PointParams;
    use semitri_data::sim::{SimConfig, TripSimulator};
    use semitri_data::{CityConfig, TransportMode};
    use semitri_geo::Timestamp;

    fn city() -> City {
        City::generate(CityConfig {
            bounds: Rect::new(0.0, 0.0, 5_000.0, 5_000.0),
            poi_count: 400,
            region_count: 4,
            seed: 77,
            ..CityConfig::default()
        })
    }

    fn annotator(city: &City) -> StreamingAnnotator<'_> {
        StreamingAnnotator::new(
            city,
            VelocityPolicy::default(),
            MatchParams::default(),
            ModeInferencer::default(),
            PointParams::default(),
        )
    }

    fn day_track(city: &City) -> semitri_data::sim::SimulatedTrack {
        let mut sim = TripSimulator::new(
            &city.roads,
            SimConfig {
                sampling_interval: 8.0,
                ..SimConfig::default()
            },
            5,
            Point::new(1_200.0, 1_400.0),
            Timestamp(8.0 * 3_600.0),
        );
        sim.dwell(900.0, true, Some((1, PoiCategory::Feedings)));
        sim.travel_to(Point::new(3_900.0, 3_700.0), TransportMode::Walk);
        sim.dwell(1_200.0, false, Some((2, PoiCategory::ItemSale)));
        sim.travel_to(Point::new(1_200.0, 1_400.0), TransportMode::Walk);
        sim.dwell(900.0, true, None);
        sim.finish(1, 1)
    }

    #[test]
    fn streaming_emits_alternating_episodes() {
        let city = city();
        let track = day_track(&city);
        let mut stream = annotator(&city);
        let mut events = Vec::new();
        for &r in &track.records {
            events.extend(stream.push(r));
        }
        events.extend(stream.flush());

        let stops = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Stop { .. }))
            .count();
        let moves = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Move { .. }))
            .count();
        assert!(stops >= 2, "stops {stops}");
        assert!(moves >= 2, "moves {moves}");

        // episodes exactly partition the fed records: each one starts
        // where the previous ended, and the last ends at the feed's end
        let mut last_end = 0usize;
        for e in &events {
            let ep = match e {
                StreamEvent::Move { episode, .. } | StreamEvent::Stop { episode, .. } => episode,
            };
            assert_eq!(ep.start, last_end, "gap or overlap at {}", ep.start);
            assert!(ep.end > ep.start);
            last_end = ep.end;
        }
        assert_eq!(last_end, stream.record_count());
    }

    #[test]
    fn streaming_episodes_cover_every_record_exactly_once() {
        let city = city();
        let track = day_track(&city);
        let mut stream = annotator(&city);
        let mut events = Vec::new();
        for &r in &track.records {
            events.extend(stream.push(r));
        }
        events.extend(stream.flush());

        let mut coverage = vec![0usize; stream.record_count()];
        for e in &events {
            let ep = match e {
                StreamEvent::Move { episode, .. } | StreamEvent::Stop { episode, .. } => episode,
            };
            for slot in &mut coverage[ep.start..ep.end] {
                *slot += 1;
            }
        }
        for (i, count) in coverage.iter().enumerate() {
            assert_eq!(*count, 1, "record {i} is in {count} episodes");
        }
    }

    #[test]
    fn short_initial_stop_merges_into_move_without_record_loss() {
        let city = city();
        // a dwell shorter than min_stop_secs, then a walk: the dwell must
        // be demoted into the move, not silently dropped
        let mut sim = TripSimulator::new(
            &city.roads,
            SimConfig {
                sampling_interval: 8.0,
                ..SimConfig::default()
            },
            5,
            Point::new(1_200.0, 1_400.0),
            Timestamp(8.0 * 3_600.0),
        );
        sim.dwell(60.0, true, None);
        sim.travel_to(Point::new(3_900.0, 3_700.0), TransportMode::Walk);
        let track = sim.finish(1, 1);

        let mut stream = annotator(&city);
        let mut events = Vec::new();
        for &r in &track.records {
            events.extend(stream.push(r));
        }
        events.extend(stream.flush());

        assert!(!events.is_empty());
        let mut last_end = 0usize;
        for e in &events {
            let ep = match e {
                StreamEvent::Move { episode, .. } | StreamEvent::Stop { episode, .. } => episode,
            };
            assert!(
                matches!(e, StreamEvent::Move { .. }),
                "sub-minimum dwell must not surface as a stop"
            );
            assert_eq!(ep.start, last_end);
            last_end = ep.end;
        }
        assert_eq!(last_end, stream.record_count());
    }

    #[test]
    fn streaming_moves_carry_modes_and_routes() {
        let city = city();
        let track = day_track(&city);
        let mut stream = annotator(&city);
        let mut events = Vec::new();
        for &r in &track.records {
            events.extend(stream.push(r));
        }
        events.extend(stream.flush());
        let mut saw_route = false;
        for e in &events {
            if let StreamEvent::Move { route, .. } = e {
                if !route.is_empty() {
                    saw_route = true;
                    assert!(route.iter().all(|en| en.mode.is_some()));
                }
            }
        }
        assert!(saw_route);
    }

    #[test]
    fn streaming_stops_have_regions_and_categories() {
        let city = city();
        let track = day_track(&city);
        let mut stream = annotator(&city);
        let mut events = Vec::new();
        for &r in &track.records {
            events.extend(stream.push(r));
        }
        events.extend(stream.flush());
        for e in &events {
            if let StreamEvent::Stop {
                annotation, region, ..
            } = e
            {
                assert!(PoiCategory::ALL.contains(&annotation.category));
                assert!(region.is_some(), "landuse covers the whole city");
            }
        }
    }

    #[test]
    fn online_estimates_mostly_agree_with_offline_viterbi() {
        let city = city();
        let track = day_track(&city);
        let mut stream = annotator(&city);
        let mut online = Vec::new();
        for &r in &track.records {
            for e in stream.push(r) {
                if let StreamEvent::Stop { annotation, .. } = e {
                    online.push(annotation);
                }
            }
        }
        for e in stream.flush() {
            if let StreamEvent::Stop { annotation, .. } = e {
                online.push(annotation);
            }
        }
        let offline = stream.finalize();
        assert_eq!(online.len(), offline.len());
        let agreement = online_offline_agreement(&online, &offline);
        assert!(agreement >= 0.5, "agreement {agreement}");
    }

    #[test]
    fn degraded_fixes_are_rejected_at_the_door() {
        let city = city();
        let track = day_track(&city);
        let mut stream = annotator(&city);

        let mut events = Vec::new();
        for (i, &r) in track.records.iter().enumerate() {
            events.extend(stream.push(r));
            match i % 40 {
                // co-located duplicate of the fix just accepted
                7 => drop(stream.push(r)),
                // conflicting fix at the same instant, 500 m away
                13 => drop(stream.push(GpsRecord::new(
                    Point::new(r.point.x + 500.0, r.point.y),
                    r.t,
                ))),
                // non-finite fix
                19 => drop(stream.push(GpsRecord::new(Point::new(f64::NAN, 0.0), r.t))),
                // stale out-of-order fix from the past
                23 => drop(stream.push(GpsRecord::new(r.point, Timestamp(r.t.0 - 3_600.0)))),
                // teleport (way past the speed bound)
                31 => drop(stream.push(GpsRecord::new(
                    Point::new(r.point.x + 90_000.0, r.point.y),
                    Timestamp(r.t.0 + 0.5),
                ))),
                _ => {}
            }
        }
        events.extend(stream.flush());

        let report = *stream.cleaning_report();
        assert!(report.deduped > 0);
        assert!(report.dropped_conflicts > 0);
        assert!(report.dropped_nonfinite > 0);
        assert!(report.reordered > 0);
        assert!(report.dropped_outliers > 0);
        assert_eq!(report.kept as usize, stream.record_count());
        assert_eq!(
            report.input,
            report.kept + report.dropped() + report.deduped + report.reordered
        );
        // only clean fixes entered: the record range is still exactly
        // partitioned by the emitted episodes
        let mut last_end = 0usize;
        for e in &events {
            let ep = match e {
                StreamEvent::Move { episode, .. } | StreamEvent::Stop { episode, .. } => episode,
            };
            assert_eq!(ep.start, last_end);
            last_end = ep.end;
        }
        assert_eq!(last_end, stream.record_count());
        // accepted records are strictly time-ordered despite the garbage
        assert!(stream.records.windows(2).all(|w| w[1].t.0 > w[0].t.0));
    }

    #[test]
    fn flush_reports_cleaning_delta_through_observer() {
        use semitri_obs::{MetricsObserver, MetricsRegistry};
        let city = city();
        let registry = Arc::new(MetricsRegistry::new());
        let mut stream =
            annotator(&city).with_observer(Arc::new(MetricsObserver::new(registry.clone())));
        stream.push(GpsRecord::new(Point::new(10.0, 10.0), Timestamp(0.0)));
        stream.push(GpsRecord::new(Point::new(f64::NAN, 10.0), Timestamp(1.0)));
        stream.push(GpsRecord::new(Point::new(11.0, 10.0), Timestamp(2.0)));
        stream.flush();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("stage.preprocess.records"), 3);
        assert_eq!(snap.counter("stage.preprocess.kept"), 2);
        assert_eq!(snap.counter("stage.preprocess.dropped"), 1);
        assert_eq!(snap.counter("stage.preprocess.calls"), 1);
        // a second flush with no new fixes reports nothing further
        stream.flush();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("stage.preprocess.records"), 3);
        assert_eq!(snap.counter("stage.preprocess.calls"), 1);
    }

    #[test]
    fn empty_and_single_record_feeds() {
        let city = city();
        let mut stream = annotator(&city);
        assert!(stream.flush().is_empty());
        let mut stream = annotator(&city);
        assert!(stream
            .push(GpsRecord::new(Point::new(1.0, 1.0), Timestamp(0.0)))
            .is_empty());
        // one record: no motion hypothesis ever forms (classification
        // needs two records), so flush has nothing to close
        let events = stream.flush();
        assert!(events.is_empty());
    }

    #[test]
    fn flush_is_terminal_second_flush_noop_and_push_rejected() {
        let city = city();
        let track = day_track(&city);
        let mut stream = annotator(&city);
        for &r in &track.records {
            stream.push(r);
        }
        assert!(!stream.is_finished());
        stream.flush();
        assert!(stream.is_finished());
        let records_at_flush = stream.record_count();
        let report_at_flush = *stream.cleaning_report();

        // a second flush is a defined no-op: no events, no state change
        assert!(stream.flush().is_empty());
        assert_eq!(*stream.cleaning_report(), report_at_flush);

        // pushes after the terminal flush are refused, not ingested: the
        // record range and the cleaning report stay exactly as flushed
        let last_t = track.records.last().unwrap().t.0;
        for i in 0..5 {
            let late = GpsRecord::new(
                Point::new(1_000.0 + i as f64, 1_000.0),
                Timestamp(last_t + 60.0 + i as f64),
            );
            assert!(stream.push(late).is_empty());
        }
        assert_eq!(stream.rejected_after_finish(), 5);
        assert_eq!(stream.record_count(), records_at_flush);
        assert_eq!(*stream.cleaning_report(), report_at_flush);
        assert!(stream.flush().is_empty());
    }

    #[test]
    fn empty_session_flush_is_valid_and_zeroed() {
        let city = city();
        let mut stream = annotator(&city);
        let events = stream.flush();
        assert!(events.is_empty());
        assert!(stream.is_finished());
        assert_eq!(*stream.cleaning_report(), CleaningReport::default());
        assert_eq!(stream.record_count(), 0);
        // finalize on an empty session is a valid empty decode
        assert!(stream.finalize().is_empty());
    }

    #[test]
    fn cleaning_delta_not_double_counted_across_flushes() {
        use semitri_obs::{MetricsObserver, MetricsRegistry};
        let city = city();
        let registry = Arc::new(MetricsRegistry::new());
        let mut stream =
            annotator(&city).with_observer(Arc::new(MetricsObserver::new(registry.clone())));
        stream.push(GpsRecord::new(Point::new(10.0, 10.0), Timestamp(0.0)));
        stream.push(GpsRecord::new(Point::new(f64::NAN, 10.0), Timestamp(1.0)));
        stream.flush();
        let first = registry.snapshot();
        assert_eq!(first.counter("stage.preprocess.records"), 2);
        assert_eq!(first.counter("stage.preprocess.dropped"), 1);
        // repeated flushes (and rejected late pushes) must not re-report
        // the same delta or invent a new one
        stream.push(GpsRecord::new(Point::new(11.0, 10.0), Timestamp(2.0)));
        stream.flush();
        stream.flush();
        let again = registry.snapshot();
        assert_eq!(again.counter("stage.preprocess.records"), 2);
        assert_eq!(again.counter("stage.preprocess.dropped"), 1);
        assert_eq!(again.counter("stage.preprocess.calls"), 1);
        assert_eq!(stream.rejected_after_finish(), 1);
    }

    #[test]
    fn shared_engine_session_matches_owned_engine_exactly() {
        use crate::pipeline::{PipelineConfig, SeMiTri};
        let city = city();
        let track = day_track(&city);

        let mut owned = annotator(&city);
        let mut owned_events = Vec::new();
        for &r in &track.records {
            owned_events.extend(owned.push(r));
        }
        owned_events.extend(owned.flush());

        // same city, same parameters, but every index borrowed from one
        // shared pipeline — the server's per-user session shape
        let pipeline = SeMiTri::new(&city, PipelineConfig::default());
        let mut shared = StreamingAnnotator::over(&pipeline, VelocityPolicy::default());
        let mut shared_events = Vec::new();
        for &r in &track.records {
            shared_events.extend(shared.push(r));
        }
        shared_events.extend(shared.flush());

        assert_eq!(owned_events.len(), shared_events.len());
        for (a, b) in owned_events.iter().zip(&shared_events) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert_eq!(owned.finalize(), shared.finalize());
        assert_eq!(owned.cleaning_report(), shared.cleaning_report());
    }
}
