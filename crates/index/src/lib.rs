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
//! * [`FrozenRStarTree`] — a static R\*-tree built in one pass by
//!   Sort-Tile-Recursive packing ([`FrozenRStarTree::bulk_load`]) straight
//!   into a flat layout (BFS node arena, CSR child ranges, SoA
//!   bounding-box arrays, contiguous leaf-entry slab), with range queries
//!   and best-first k-nearest-neighbor search under exact user-supplied
//!   distances. Range queries visit hits depth-first in STR child order,
//!   which is leaf-slab order. The annotation pipeline builds each index
//!   once per city and reads it millions of times; no source edits a tree
//!   in place (a map edit publishes a rebuilt generation), so the tree is
//!   static.
//! * [`GridIndex`] — a flat uniform grid over point items with
//!   radius/cell queries.
//! * [`CellOracle`] — per-grid-cell candidate slabs gathered from a frozen
//!   tree at build time, so a fixed-radius query becomes a slab lookup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frozen;
pub mod generation;
pub mod grid;
pub mod oracle;

pub use frozen::{FrozenNearestScratch, FrozenRStarTree, FrozenRangeScratch};
pub use generation::{Generation, GenerationHandle, GenerationId};
pub use grid::GridIndex;
pub use oracle::CellOracle;
