//! # semitri-store — the Semantic Trajectory Store
//!
//! The paper persists SeMiTri's outputs in PostgreSQL/PostGIS with
//! "dedicated tables for GPS records, trajectories, stops/moves, and
//! annotations" (§5.1). This crate is the embedded Rust equivalent,
//! built warehouse-style on compressed columns:
//!
//! * [`codec`] — a dependency-free, length-prefixed binary codec for the
//!   store's record types;
//! * [`column`] — bit-level primitives: zigzag varints, fixed-width
//!   bitpacked vectors, and patched-frame-of-reference (PFOR) integer
//!   compression;
//! * [`fixcol`] — the fix-column block format: delta-of-delta
//!   timestamps, centimeter fixed-point delta positions, per-block
//!   min/max + bbox summaries. Timestamps round-trip bit-exactly;
//!   positions to within half a quantum;
//! * [`matrix`] — the compressed semantic matrix: per-layer label
//!   dictionaries with labels bitpacked at ⌈log₂|dict|⌉ bits in
//!   contiguous per-layer streams;
//! * [`lattice`] — the multi-level posting index that answers rect
//!   windows in storage order, touching only candidate rows;
//! * [`olap`] — warehouse aggregate types plus [`olap::RowStore`], the
//!   retained row-walk path used as proptest oracle;
//! * [`store`] — the [`SemanticTrajectoryStore`] over all of the above:
//!   trajectory metadata, one-line episode rows with block-skipping time
//!   windows and lattice-indexed rect windows, compressed fixes and semantic layers, OLAP
//!   aggregates, an in-memory mode, and a *durable* mode that appends
//!   every write to a synced log file — the realistic write cost behind
//!   the storage bars of Fig. 17;
//! * [`export`] — KML export of annotated trajectories, standing in for
//!   the paper's Google-Earth web interface (Figs. 15–16).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod column;
pub mod export;
pub mod fixcol;
pub mod lattice;
pub mod matrix;
pub mod olap;
pub mod store;

pub use matrix::TupleLayers;
pub use olap::{LanduseHourCounts, ModeShareByClass, PoiVisit, RowStore};
pub use store::{
    derive_tuple_layers, AnnotationStats, SemanticTrajectoryStore, StoreError,
    StoreMetricsSnapshot, StoredEpisode, TrajectoryMeta,
};
