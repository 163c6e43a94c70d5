//! # semitri-core — the SeMiTri semantic annotation framework
//!
//! Implementation of the paper's primary contribution: the three semantic
//! annotation layers that progressively turn raw trajectories into
//! *structured semantic trajectories* (Definition 4), plus the pipeline
//! orchestrating them (Fig. 2):
//!
//! * [`model`] — semantic places, annotations, semantic episodes and the
//!   structured semantic trajectory (Definitions 2–4);
//! * [`region`] — Semantic Region Annotation Layer: R\*-tree spatial join
//!   of trajectories against ROIs (Algorithm 1);
//! * [`mod@line`] — Semantic Line Annotation Layer: global map matching with
//!   the point–segment distance (Eq. 1), local/global scores (Eqs. 2–4)
//!   and transport-mode inference (Algorithm 2), with geometric baselines
//!   for the ablation benchmarks;
//! * [`point`] — Semantic Point Annotation Layer: HMM over POI categories
//!   with the Gaussian/discretized observation model of §4.3 and log-space
//!   Viterbi decoding (Algorithm 3), plus a nearest-POI baseline;
//! * [`preprocess`] — the fallible preprocessing stage repairing degraded
//!   feeds (finiteness, ordering, duplicates, speed bound) ahead of
//!   segmentation, reporting a `CleaningReport` per trajectory;
//! * [`pipeline`] — the `SeMiTri` orchestrator wiring cleaning, episode
//!   computation and the three layers together, with per-layer latency
//!   instrumentation (Fig. 17);
//! * [`streaming`] — the real-time annotator (§1.2: "annotation data is
//!   even required in real-time"): incremental stop/move detection with
//!   immediate per-episode annotation and causal forward-filtered stop
//!   activities;
//! * [`batch`] — the multi-threaded batch engine: a worker pool fanning a
//!   fleet of trajectories over one shared `SeMiTri`, with order-
//!   preserving, panic-isolated results and pool-wide latency summaries.
//!
//! Every annotation path (sequential, streaming, batch) reports per-layer
//! spans through the `semitri-obs` [`PipelineObserver`] hooks under one
//! metric schema (`stage.<layer>.{secs,records,calls}`), mirroring the
//! paper's per-layer evaluation (Fig. 17).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod error;
pub mod line;
pub mod live;
pub mod model;
pub mod pipeline;
pub mod point;
pub mod preprocess;
pub mod region;
pub mod streaming;
#[cfg(test)]
mod test_probes;

pub use batch::{
    BatchAnnotator, BatchOutput, BatchSummary, PipelineError, PipelineErrorKind, StageSummary,
};
pub use error::SemitriError;
pub use line::matcher::{GlobalMapMatcher, MatchParams, MatchScratch, MatchedPoint};
pub use line::mode::ModeInferencer;
pub use live::{LiveSeMiTri, Mutation, PublishOutcome};
pub use model::{
    Annotation, AnnotationValue, PlaceKind, PlaceRef, SemanticTuple, StructuredSemanticTrajectory,
};
pub use pipeline::{LatencyProfile, PipelineConfig, PipelineOutput, SeMiTri};
pub use point::PointAnnotator;
pub use preprocess::Preprocessor;
pub use region::{RegionAnnotator, RegionTuple};
pub use semitri_index::{Generation, GenerationHandle, GenerationId};
pub use semitri_obs::{
    CleaningReport, Counter, Gauge, Histogram, HistogramSnapshot, MetricsObserver, MetricsRegistry,
    MetricsSnapshot, NullObserver, PipelineObserver, Stage, KERNEL_FALLBACK_METRIC,
};
pub use streaming::{StreamEvent, StreamingAnnotator};
