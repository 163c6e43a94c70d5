//! # SeMiTri — semantic annotation of heterogeneous trajectories
//!
//! A from-scratch Rust implementation of *SeMiTri: A Framework for
//! Semantic Annotation of Heterogeneous Trajectories* (Yan, Chakraborty,
//! Parent, Spaccapietra, Aberer — EDBT 2011).
//!
//! This facade crate re-exports the whole workspace under stable module
//! names. Most applications only need [`prelude`]:
//!
//! ```
//! use semitri::prelude::*;
//!
//! // generate a city and one commuter day
//! let city = City::generate(CityConfig::default());
//! let mut sim = TripSimulator::new(
//!     &city.roads, SimConfig::default(), 7,
//!     Point::new(2_000.0, 2_000.0), Timestamp(8.0 * 3_600.0),
//! );
//! sim.dwell(600.0, true, None);
//! sim.travel_to(Point::new(7_000.0, 6_500.0), TransportMode::Metro);
//! sim.dwell(1_200.0, true, None);
//! let track = sim.finish(1, 1);
//!
//! // annotate it end to end
//! let semitri = SeMiTri::new(&city, PipelineConfig::default());
//! let out = semitri.annotate(&track.to_raw());
//! assert!(!out.sst.is_empty());
//! println!("{}", out.sst.render());
//! ```
//!
//! The sub-crates, in dependency order:
//!
//! * [`geo`] — geometry kernel (points, rects, segments, polygons,
//!   projections, time);
//! * [`index`] — R\*-tree and grid spatial indexes;
//! * [`data`] — synthetic geographic sources, GPS simulator and dataset
//!   presets mirroring the paper's Tables 1–2;
//! * [`episodes`] — cleaning, trajectory identification, stop/move
//!   segmentation;
//! * [`core`] — the three annotation layers (regions / lines / points)
//!   and the pipeline;
//! * [`obs`] — dependency-free observability substrate: metrics registry,
//!   latency histograms and the [`PipelineObserver`](obs::PipelineObserver)
//!   stage-tracing hooks shared by every annotation path;
//! * [`analytics`] — the Semantic Trajectory Analytics Layer;
//! * [`store`] — the embedded Semantic Trajectory Store and KML export;
//! * [`server`] — the sharded HTTP/1.1 + JSON-lines annotation server
//!   (`semitri-cli serve`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use semitri_analytics as analytics;
pub use semitri_core as core;
pub use semitri_data as data;
pub use semitri_episodes as episodes;
pub use semitri_geo as geo;
pub use semitri_index as index;
pub use semitri_obs as obs;
pub use semitri_server as server;
pub use semitri_store as store;

/// One-stop imports for typical use of the framework.
pub mod prelude {
    pub use semitri_analytics::{
        burn_all, dbscan_stops, effective_workers, mine_sequences, radius_of_gyration, symbols_of,
        trajectory_category, CategoryShares, CompressionStats, DbscanParams, LanduseDistribution,
        LatencySummary, LengthDistribution, MobilitySummary, ModeShares, RasterConfig, RasterGrid,
        RasterLayer, SequencePattern, StopCluster, SymbolKind, UserEpisodeCounts,
    };
    pub use semitri_core::{
        Annotation, AnnotationValue, BatchAnnotator, BatchOutput, BatchSummary, GlobalMapMatcher,
        LatencyProfile, LiveSeMiTri, MatchParams, MatchScratch, ModeInferencer, Mutation,
        PipelineConfig, PipelineError, PipelineErrorKind, PipelineOutput, PlaceKind, PlaceRef,
        PointAnnotator, Preprocessor, PublishOutcome, RegionAnnotator, SeMiTri, SemanticTuple,
        SemitriError, StageSummary, StructuredSemanticTrajectory,
    };
    pub use semitri_index::{Generation, GenerationHandle, GenerationId};
    pub use semitri_obs::{
        CleaningReport, Counter, Gauge, Histogram, HistogramSnapshot, MetricsObserver,
        MetricsRegistry, MetricsSnapshot, NullObserver, PipelineObserver, Stage,
    };

    pub use semitri_data::presets::{
        lausanne_taxis, milan_cars, milan_cars_with_pois, seattle_drive, smartphone_users, Dataset,
    };
    pub use semitri_data::sim::{SimConfig, SimulatedTrack, TripSimulator, TruthPoint};
    pub use semitri_data::{
        City, CityConfig, Fault, FaultInjector, FeedError, GpsFeed, GpsRecord, LanduseCategory,
        LanduseGrid, LanduseGroup, NamedRegion, Poi, PoiCategory, PoiSet, RawTrajectory,
        RegionKind, RoadClass, RoadNetwork, RoadSegment, TransportMode,
    };
    pub use semitri_episodes::{
        DensityPolicy, Episode, EpisodeKind, EpisodeStats, SegmentationPolicy,
        TrajectoryIdentifier, VelocityPolicy,
    };
    pub use semitri_geo::{
        GeoPoint, LocalProjection, Point, Polygon, Polyline, Rect, Segment, TimeSpan, Timestamp,
    };
    pub use semitri_store::{SemanticTrajectoryStore, StoredEpisode, TrajectoryMeta};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports() {
        use crate::prelude::*;
        let p = Point::new(1.0, 2.0);
        assert_eq!(p.x, 1.0);
        let _ = TransportMode::Metro.label();
        let _ = PoiCategory::ALL.len();
    }
}
