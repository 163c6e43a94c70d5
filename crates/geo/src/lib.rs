//! # semitri-geo — 2-D geometry kernel for SeMiTri
//!
//! SeMiTri (Yan et al., EDBT 2011) annotates trajectories with *semantic
//! places* of three spatial kinds: regions, lines and points. This crate
//! provides the geometric substrate all annotation layers are built on:
//!
//! * [`Point`] / [`GeoPoint`] — positions in a local metric plane and in
//!   WGS-84 lon/lat, with the [`proj`] module converting between the two;
//! * [`Rect`] — axis-aligned bounding rectangles, the currency of the
//!   R\*-tree in `semitri-index`;
//! * [`Segment`] — road segments, with the *point–segment distance* of the
//!   paper's Equation (1) used by the map-matching layer;
//! * [`Polyline`] — road center-lines and raw tracks, including discrete
//!   Fréchet and Hausdorff distances used by the baseline curve-to-curve
//!   matchers mentioned in the paper's related work;
//! * [`Polygon`] — free-form semantic regions (campus, park) with
//!   point-in-polygon tests used by the region annotation layer;
//! * [`Timestamp`] / [`TimeSpan`] — temporal positions of GPS records and
//!   episodes.
//!
//! Everything in this crate is dependency-free, allocation-conscious and
//! deterministic; all distances are Euclidean in a local plane measured in
//! meters (datasets in lon/lat are first projected via [`proj::LocalProjection`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lanes;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod proj;
pub mod rect;
pub mod segment;
pub mod time;

pub use lanes::{SegmentLanes, LANES};
pub use point::{GeoPoint, Point};
pub use polygon::Polygon;
pub use polyline::Polyline;
pub use proj::LocalProjection;
pub use rect::Rect;
pub use segment::Segment;
pub use time::{TimeSpan, Timestamp};

/// Earth mean radius in meters, used by the equirectangular projection and
/// by [`point::haversine_m`].
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;
