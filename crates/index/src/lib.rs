//! # semitri-index — spatial indexes for SeMiTri
//!
//! The paper leans on two access methods:
//!
//! * an **R\*-tree** (Beckmann et al., SIGMOD 1990 — the paper's reference
//!   \[2\]) indexing semantic regions for the spatial-join region annotation
//!   (Algorithm 1) and road segments for candidate selection in global map
//!   matching (Algorithm 2);
//! * a **uniform grid** used by the point-annotation layer to discretize the
//!   POI observation model (`Pr(grid_jk | C_i)`, §4.3) and to fetch the
//!   neighboring POIs of a stop.
//!
//! Both are implemented here from scratch:
//!
//! * [`RStarTree`] — insertion with ChooseSubtree, R\* split
//!   (axis/index choice by margin and overlap), forced reinsertion at the
//!   leaf level, range queries, and best-first k-nearest-neighbor search
//!   with exact user-supplied distances; plus Sort-Tile-Recursive bulk
//!   loading for the million-cell landuse grids.
//! * [`GridIndex`] — a flat uniform grid over point items with
//!   radius/cell queries.
//! * [`FrozenRStarTree`] — an immutable cache-packed snapshot of the
//!   R\*-tree (flat BFS node arena, CSR child ranges, SoA bounding-box
//!   arrays, contiguous leaf-entry slab) whose range and kNN results are
//!   bit-identical — values *and* visit order — to the dynamic tree's.
//!   The annotation pipeline builds each index once per city and reads it
//!   millions of times, so the frozen snapshot is its only read path.
//! * [`CellOracle`] — per-grid-cell candidate slabs gathered from a frozen
//!   tree at build time, so a fixed-radius query becomes a slab lookup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frozen;
pub mod generation;
pub mod grid;
pub mod oracle;
pub mod rstar;

pub use frozen::{FrozenNearestScratch, FrozenRStarTree, FrozenRangeScratch};
pub use generation::{Generation, GenerationHandle, GenerationId};
pub use grid::GridIndex;
pub use oracle::CellOracle;
pub use rstar::{NearestScratch, RStarParams, RStarTree, RangeScratch};
