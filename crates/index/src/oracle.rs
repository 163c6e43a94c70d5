//! A precomputed per-cell matching oracle over a frozen R\*-tree.
//!
//! The annotation hot paths ask the segment/POI indexes the *same shape*
//! of question millions of times: "every item whose box intersects a
//! fixed-radius window around this point". Consecutive GPS fixes
//! overwhelmingly reuse one grid cell's answer, so [`CellOracle`]
//! materializes the answer for **every** cell at build time and the
//! per-fix query becomes an O(1) slab lookup instead of a tree walk:
//!
//! * a uniform grid is laid over the frozen tree's bounding box;
//! * for each cell, the frozen tree is queried once with the cell's
//!   *catchment window* — the cell rectangle inflated by the query
//!   radius — and the hit items are appended to one contiguous slab;
//! * cells index the slab through CSR `u32` offsets, so a lookup is two
//!   loads and a slice.
//!
//! A slot is the item alone: readers derive its box from the item (the
//! matcher from the segment its id indexes, the POI model from its point).
//!
//! **Order identity.** Each per-cell list is gathered by a single frozen
//! range query, so it preserves the tree's depth-first visit order. For a
//! point `p` in the cell, the per-point window `p ± r` is contained in
//! the catchment window, and an entry's box intersecting the sub-window
//! implies every ancestor box does too — so filtering the cell list with
//! the per-point `bbox ∩ window(p)` test, on the item's own box, yields
//! *exactly* the entries a direct per-point tree query would visit, in the
//! same order. Readers that apply that filter (the map matcher does) are
//! bitwise result-identical to the tree path; the unit tests and the core
//! property suite assert it.
//!
//! **Unbounded border cells.** Real feeds contain fixes outside the
//! indexed area (GPS noise at the city edge, tracks leaving the map), so
//! every border cell's catchment extends to `±∞` outward and [`locate`]
//! clamps any non-NaN point into the grid. This adds no entry to any
//! slab: every item's box lies inside the tree's bounding box, which the
//! nominal grid covers. For a finite point clamped into a border cell,
//! `p ± r` still lies inside that cell's catchment, so the identity
//! argument above holds unchanged. For `±∞` the per-point window
//! `[∞, ∞]` intersects no finite box, and neither path returns anything.
//! NaN is the one point that locates nowhere — a NaN window intersects
//! nothing either, so a reader loses nothing by treating [`None`] as
//! "no candidates".
//!
//! [`locate`]: CellOracle::locate

use crate::frozen::{FrozenRStarTree, FrozenRangeScratch};
use semitri_geo::{Point, Rect};

/// The precomputed per-cell candidate arena. Build once next to the
/// [`FrozenRStarTree`] it answers for, share freely across threads
/// (`&self` reads only).
///
/// ```
/// use semitri_geo::{Point, Rect};
/// use semitri_index::{CellOracle, FrozenRStarTree};
///
/// let frozen = FrozenRStarTree::bulk_load(vec![(Rect::new(10.0, 10.0, 20.0, 20.0), 7u32)]);
/// let oracle = CellOracle::build(&frozen, 50.0, 50.0);
/// assert_eq!(oracle.candidates(Point::new(15.0, 15.0)).unwrap(), &[7]);
/// // one 4-byte slot per item: the reader derives the box from the item
/// assert_eq!(oracle.arena_bytes(), 4 * (oracle.cell_count() + 1) + 4 * oracle.slot_count());
/// // far outside the bounds: clamped into a border cell, still answered
/// assert!(oracle.candidates(Point::new(5_000.0, 5_000.0)).is_some());
/// assert!(oracle.candidates(Point::new(f64::NAN, 5.0)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CellOracle<T> {
    /// Grid bounds = the frozen tree's bounding box at build time.
    bounds: Rect,
    /// Side length of the square grid cells.
    cell_size: f64,
    /// Query radius the catchment windows were inflated by.
    query_radius: f64,
    nx: usize,
    ny: usize,
    /// CSR offsets into the slab, `nx * ny + 1` entries (row-major
    /// cells); `offsets[c]..offsets[c + 1]` is cell `c`'s slice.
    offsets: Vec<u32>,
    /// Entry items, one contiguous slab (cell after cell), in the frozen
    /// tree's depth-first visit order per cell.
    items: Vec<T>,
}

impl<T: Copy> CellOracle<T> {
    /// Materializes the oracle: one frozen range query per grid cell,
    /// appended into the CSR slab.
    ///
    /// `cell_size` is the grid pitch, `query_radius` the per-point window
    /// radius the readers will filter with (each catchment window is the
    /// cell inflated by `query_radius · (1 + 1e-9)`, the same boundary
    /// pad that absorbs rounding in the clamped cell assignment).
    ///
    /// An empty tree yields an oracle that answers [`None`] everywhere.
    ///
    /// # Panics
    /// Panics when `cell_size`/`query_radius` are not positive finite, or
    /// the arena would exceed `u32::MAX` entries.
    pub fn build(tree: &FrozenRStarTree<T>, cell_size: f64, query_radius: f64) -> Self {
        assert!(
            cell_size > 0.0 && cell_size.is_finite(),
            "oracle cell size must be positive"
        );
        assert!(
            query_radius > 0.0 && query_radius.is_finite(),
            "oracle query radius must be positive"
        );
        let bounds = tree.bbox();
        if tree.is_empty() || bounds.is_empty() {
            return Self {
                bounds: Rect::EMPTY,
                cell_size,
                query_radius,
                nx: 0,
                ny: 0,
                offsets: vec![0],
                items: Vec::new(),
            };
        }
        let nx = (bounds.width() / cell_size).ceil().max(1.0) as usize;
        let ny = (bounds.height() / cell_size).ceil().max(1.0) as usize;
        // the tiny extra inflation absorbs floating-point rounding in the
        // clamped cell assignment, keeping catchment ⊇ window(p) exact for
        // every p the cell can be asked about
        let pad = query_radius * (1.0 + 1e-9);
        // nominal cell rectangle, border cells extended outward to infinity
        // so every clamped out-of-bounds point stays covered, inflated by
        // the pad
        let catchment = |col: usize, row: usize| {
            let mut cat = Self::nominal_rect(bounds, cell_size, nx, ny, col, row);
            if col == 0 {
                cat.min_x = f64::NEG_INFINITY;
            }
            if col + 1 == nx {
                cat.max_x = f64::INFINITY;
            }
            if row == 0 {
                cat.min_y = f64::NEG_INFINITY;
            }
            if row + 1 == ny {
                cat.max_y = f64::INFINITY;
            }
            cat.inflate(pad)
        };
        // Size the slab exactly before filling it, so it is one
        // allocation (growing by doubling left every outgrown buffer behind
        // in the heap, once per live publish). A catchment is a product of
        // an x interval that depends only on the column and a y interval
        // that depends only on the row, so an item's slot count is the
        // columns its x extent meets times the rows its y extent meets.
        // Only cells within `pad` of the item can qualify; a spare column
        // and row on each side absorb rounding.
        let near = |lo: f64, hi: f64, min: f64, n: usize| {
            let last = (n - 1) as f64;
            let first = (((lo - pad - min) / cell_size).floor() - 1.0).clamp(0.0, last);
            let end = (((hi + pad - min) / cell_size).floor() + 1.0).clamp(0.0, last);
            first as usize..=end as usize
        };
        let mut stack = FrozenRangeScratch::new();
        let mut slots = 0usize;
        tree.for_each_in_with(&mut stack, &bounds, |r, _| {
            if r.is_empty() {
                return;
            }
            let cols = near(r.min_x, r.max_x, bounds.min_x, nx)
                .filter(|&col| {
                    let c = catchment(col, 0);
                    r.min_x <= c.max_x && c.min_x <= r.max_x
                })
                .count();
            let rows = near(r.min_y, r.max_y, bounds.min_y, ny)
                .filter(|&row| {
                    let c = catchment(0, row);
                    r.min_y <= c.max_y && c.min_y <= r.max_y
                })
                .count();
            slots += cols * rows;
        });
        assert!(
            slots <= u32::MAX as usize,
            "oracle arena exceeds u32 offsets"
        );
        let mut offsets = Vec::with_capacity(nx * ny + 1);
        offsets.push(0u32);
        let mut items = Vec::with_capacity(slots);
        for row in 0..ny {
            for col in 0..nx {
                tree.for_each_in_with(&mut stack, &catchment(col, row), |_, t| {
                    items.push(*t);
                });
                offsets.push(items.len() as u32);
            }
        }
        assert_eq!(items.len(), slots, "slab count diverged from the fill");
        Self {
            bounds,
            cell_size,
            query_radius,
            nx,
            ny,
            offsets,
            items,
        }
    }

    /// The nominal (unextended, unpadded) rectangle of cell `(col, row)`.
    /// Computed from the cell indices by multiplication — not by
    /// accumulation — so every caller sees the same bit pattern.
    fn nominal_rect(
        bounds: Rect,
        cell_size: f64,
        nx: usize,
        ny: usize,
        col: usize,
        row: usize,
    ) -> Rect {
        debug_assert!(col < nx && row < ny);
        Rect::new(
            bounds.min_x + col as f64 * cell_size,
            bounds.min_y + row as f64 * cell_size,
            bounds.min_x + (col + 1) as f64 * cell_size,
            bounds.min_y + (row + 1) as f64 * cell_size,
        )
    }

    /// The row-major index of the cell serving `p`, or [`None`] when `p`
    /// has a NaN coordinate or the oracle is empty. Every other point —
    /// `±∞` included — clamps into the grid: out-of-bounds points land in
    /// the border cells, whose catchments extend to infinity outward, and
    /// a point exactly on `bounds.max_x/max_y` floors to index `nx`/`ny`
    /// and relies on the same clamp.
    #[inline]
    pub fn locate(&self, p: Point) -> Option<usize> {
        // the clamp below would send NaN to cell 0 (`NaN.max(0.0)` is 0)
        if self.nx == 0 || p.x.is_nan() || p.y.is_nan() {
            return None;
        }
        let cx = ((p.x - self.bounds.min_x) / self.cell_size).floor();
        let cy = ((p.y - self.bounds.min_y) / self.cell_size).floor();
        let col = (cx.max(0.0) as usize).min(self.nx - 1);
        let row = (cy.max(0.0) as usize).min(self.ny - 1);
        Some(row * self.nx + col)
    }

    /// The nominal rectangle of cell `cell` (for hint caches: any point
    /// inside it is provably served by this cell's slab).
    #[inline]
    pub fn cell_rect(&self, cell: usize) -> Rect {
        Self::nominal_rect(
            self.bounds,
            self.cell_size,
            self.nx,
            self.ny,
            cell % self.nx,
            cell / self.nx,
        )
    }

    /// The CSR slab range of cell `cell`.
    #[inline]
    pub fn range(&self, cell: usize) -> (u32, u32) {
        (self.offsets[cell], self.offsets[cell + 1])
    }

    /// The slab slice for a range previously returned by
    /// [`CellOracle::range`].
    #[inline]
    pub fn slab(&self, start: u32, end: u32) -> &[T] {
        &self.items[start as usize..end as usize]
    }

    /// The candidate list serving `p`: every item of the frozen tree
    /// whose box intersects `p ± query_radius` is in the returned slice
    /// (a superset, in tree visit order — filter each item's box with the
    /// per-point window to reproduce a direct query exactly). [`None`] only
    /// for a NaN point or an empty oracle, where a direct query finds
    /// nothing too.
    #[inline]
    pub fn candidates(&self, p: Point) -> Option<&[T]> {
        let cell = self.locate(p)?;
        let (s, e) = self.range(cell);
        Some(self.slab(s, e))
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.nx * self.ny
    }

    /// Total slab entries across all cells (each tree item appears once
    /// per catchment window covering it).
    pub fn slot_count(&self) -> usize {
        self.items.len()
    }

    /// Query radius the oracle was built for.
    pub fn query_radius(&self) -> f64 {
        self.query_radius
    }

    /// Heap bytes of the arena (CSR offsets + the item slab) — the memory
    /// half of the memory/throughput trade, reported by the hotpath
    /// bench.
    pub fn arena_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.items.len() * std::mem::size_of::<T>()
    }

    /// Arena bytes per grid cell (0 for an empty oracle).
    pub fn bytes_per_cell(&self) -> f64 {
        if self.cell_count() == 0 {
            return 0.0;
        }
        self.arena_bytes() as f64 / self.cell_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        }
    }

    /// `n` random boxes and a frozen tree over them, item `id` = the box's
    /// index in the table (the way the matcher's segment ids index its
    /// geometry table).
    fn random_frozen(seed: u64, n: usize) -> (Vec<Rect>, FrozenRStarTree<usize>) {
        let mut next = lcg(seed);
        let rects: Vec<Rect> = (0..n)
            .map(|_| {
                let x = next() * 900.0;
                let y = next() * 600.0;
                Rect::new(x, y, x + next() * 25.0, y + next() * 25.0)
            })
            .collect();
        let tree = FrozenRStarTree::bulk_load(rects.iter().copied().zip(0..).collect());
        (rects, tree)
    }

    /// The per-point filtered view of the oracle's cell list, each item's
    /// box read from the table it indexes: the exact sequence a reader on
    /// the hot path produces.
    fn filtered(
        oracle: &CellOracle<usize>,
        rects: &[Rect],
        p: Point,
        r: f64,
    ) -> Option<Vec<usize>> {
        let items = oracle.candidates(p)?;
        let window = Rect::from_point(p).inflate(r);
        Some(
            items
                .iter()
                .copied()
                .filter(|&id| rects[id].intersects(&window))
                .collect(),
        )
    }

    /// A direct per-point frozen-tree query — the reference the oracle
    /// must reproduce bitwise (same hits, same visit order).
    fn tree_query(tree: &FrozenRStarTree<usize>, p: Point, r: f64) -> Vec<usize> {
        let window = Rect::from_point(p).inflate(r);
        let mut out = Vec::new();
        tree.for_each_in(&window, |_, &id| out.push(id));
        out
    }

    #[test]
    fn freeze_order_identity_on_random_probes() {
        let (rects, tree) = random_frozen(0xF00D, 700);
        for &radius in &[20.0, 60.0, 130.0] {
            let oracle = CellOracle::build(&tree, radius, radius);
            let mut next = lcg(0xCAFE);
            let mut nonempty = 0usize;
            for _ in 0..300 {
                let p = Point::new(next() * 1_000.0 - 50.0, next() * 700.0 - 50.0);
                let got = filtered(&oracle, &rects, p, radius).expect("finite probe");
                let want = tree_query(&tree, p, radius);
                assert_eq!(got, want, "probe {p:?} radius {radius}");
                nonempty += usize::from(!want.is_empty());
            }
            assert!(nonempty > 50, "probes must hit the tree");
        }
    }

    #[test]
    fn cell_size_decoupled_from_query_radius_stays_identical() {
        let (rects, tree) = random_frozen(0xA11CE, 400);
        let oracle = CellOracle::build(&tree, 37.0, 80.0);
        let mut next = lcg(7);
        for _ in 0..200 {
            let p = Point::new(next() * 950.0, next() * 650.0);
            assert_eq!(
                filtered(&oracle, &rects, p, 80.0).unwrap(),
                tree_query(&tree, p, 80.0)
            );
        }
    }

    /// The next representable `f64` above `x` (`±∞` and NaN map to
    /// themselves).
    fn next_up(x: f64) -> f64 {
        if x.is_nan() || x == f64::INFINITY {
            x
        } else if x == 0.0 {
            f64::from_bits(1)
        } else if x > 0.0 {
            f64::from_bits(x.to_bits() + 1)
        } else {
            f64::from_bits(x.to_bits() - 1)
        }
    }

    /// Probe coordinates along one axis of `[lo, hi]`: NaN, `±∞`,
    /// `±1e300`, both edges and the middle, and `edge ± {r, 2r, 250 m,
    /// 10⁶ m}` — each finite value also one ulp either side.
    fn axis_probes(lo: f64, hi: f64, r: f64) -> Vec<f64> {
        let mut base = vec![lo, hi, (lo + hi) * 0.5];
        for d in [r, 2.0 * r, 250.0, 1e6] {
            base.extend([lo - d, lo + d, hi - d, hi + d]);
        }
        let mut out = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
        for x in base {
            out.extend([-next_up(-x), x, next_up(x)]);
        }
        out
    }

    #[test]
    fn border_clamping_covers_out_of_bounds_fixes() {
        // Every non-NaN point clamps into the grid, and the filtered slab
        // equals a direct tree query everywhere: on every edge and corner
        // (a point exactly on max_x/max_y floors to index nx/ny and relies
        // on the clamp), just inside and outside them, a million meters
        // out, at ±1e300 and at ±∞. NaN locates nowhere, and the tree
        // finds nothing for it either.
        let (rects, tree) = random_frozen(0xB0DE, 500);
        let b = tree.bbox();
        let r = 60.0;
        let oracle = CellOracle::build(&tree, r, r);
        let mut hits = 0usize;
        for &x in &axis_probes(b.min_x, b.max_x, r) {
            for &y in &axis_probes(b.min_y, b.max_y, r) {
                let p = Point::new(x, y);
                let want = tree_query(&tree, p, r);
                match filtered(&oracle, &rects, p, r) {
                    Some(got) => assert_eq!(got, want, "probe {p:?}"),
                    None => {
                        assert!(x.is_nan() || y.is_nan(), "finite probe {p:?} refused");
                        assert!(want.is_empty(), "NaN probe {p:?} found items");
                    }
                }
                hits += usize::from(!want.is_empty());
            }
        }
        assert!(hits > 0, "border probes must reach real candidates");
    }

    #[test]
    fn hint_rect_serves_the_same_slab() {
        let (_, tree) = random_frozen(0x51DE, 300);
        let oracle = CellOracle::build(&tree, 45.0, 45.0);
        let mut next = lcg(99);
        for _ in 0..200 {
            let p = Point::new(next() * 900.0, next() * 600.0);
            let Some(cell) = oracle.locate(p) else {
                continue;
            };
            let rect = oracle.cell_rect(cell);
            // the hint contract: a point strictly inside the nominal rect
            // locates to a cell whose slab filters identically
            if p.x >= rect.min_x && p.x < rect.max_x && p.y >= rect.min_y && p.y < rect.max_y {
                let (s, e) = oracle.range(cell);
                assert_eq!(oracle.slab(s, e), oracle.candidates(p).unwrap());
            }
        }
    }

    #[test]
    fn empty_tree_answers_none_everywhere() {
        let tree: FrozenRStarTree<usize> = FrozenRStarTree::bulk_load(vec![]);
        let oracle = CellOracle::build(&tree, 10.0, 10.0);
        assert!(oracle.candidates(Point::ORIGIN).is_none());
        assert_eq!(oracle.cell_count(), 0);
        assert_eq!(oracle.slot_count(), 0);
        assert_eq!(oracle.bytes_per_cell(), 0.0);
        assert_eq!(oracle.arena_bytes(), std::mem::size_of::<u32>());
    }

    #[test]
    fn memory_report_is_consistent() {
        let (_, tree) = random_frozen(3, 250);
        let oracle = CellOracle::build(&tree, 60.0, 60.0);
        assert!(oracle.cell_count() > 0);
        assert!(oracle.slot_count() >= tree.len());
        // a slot is the item alone: 4 bytes per offset, one item per slot
        let expected =
            4 * (oracle.cell_count() + 1) + std::mem::size_of::<usize>() * oracle.slot_count();
        assert_eq!(oracle.arena_bytes(), expected);
        assert!(oracle.bytes_per_cell() > 0.0);
    }
}
