//! Swisstopo-style landuse grid: the paper's semantic-region source.
//!
//! Fig. 4 of the paper lists the Swisstopo ontology: 4 top groups and 17
//! subcategories annotating 1 936 439 cells of 100 m × 100 m covering
//! Switzerland. [`LanduseGrid::generate`] produces the synthetic analogue: a
//! zoned city (urban core, residential ring, recreation pockets, farmland,
//! forest, a lake) whose category mix drives the Fig. 9 / Fig. 14
//! distributions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semitri_geo::{Point, Rect};

/// The four top-level landuse groups of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LanduseGroup {
    /// L1 — settlement and urban areas.
    Settlement,
    /// L2 — agricultural areas.
    Agriculture,
    /// L3 — wooded areas.
    Wooded,
    /// L4 — unproductive areas.
    Unproductive,
}

/// The 17 landuse subcategories of Fig. 4, numbered exactly like the paper
/// (`1.1` … `4.17`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant meaning given by `label`
pub enum LanduseCategory {
    IndustrialCommercial,   // 1.1
    Building,               // 1.2
    Transportation,         // 1.3
    SpecialUrban,           // 1.4
    Recreational,           // 1.5
    Orchard,                // 2.6
    ArableLand,             // 2.7
    Meadow,                 // 2.8
    AlpineAgriculture,      // 2.9
    Forest,                 // 3.10
    BrushForest,            // 3.11
    Woods,                  // 3.12
    Lake,                   // 4.13
    River,                  // 4.14
    UnproductiveVegetation, // 4.15
    BareLand,               // 4.16
    Glacier,                // 4.17
}

impl LanduseCategory {
    /// All 17 subcategories in Fig. 4 order.
    pub const ALL: [LanduseCategory; 17] = [
        LanduseCategory::IndustrialCommercial,
        LanduseCategory::Building,
        LanduseCategory::Transportation,
        LanduseCategory::SpecialUrban,
        LanduseCategory::Recreational,
        LanduseCategory::Orchard,
        LanduseCategory::ArableLand,
        LanduseCategory::Meadow,
        LanduseCategory::AlpineAgriculture,
        LanduseCategory::Forest,
        LanduseCategory::BrushForest,
        LanduseCategory::Woods,
        LanduseCategory::Lake,
        LanduseCategory::River,
        LanduseCategory::UnproductiveVegetation,
        LanduseCategory::BareLand,
        LanduseCategory::Glacier,
    ];

    /// The paper's numeric code, e.g. `"1.2"` for building areas.
    pub fn code(&self) -> &'static str {
        match self {
            LanduseCategory::IndustrialCommercial => "1.1",
            LanduseCategory::Building => "1.2",
            LanduseCategory::Transportation => "1.3",
            LanduseCategory::SpecialUrban => "1.4",
            LanduseCategory::Recreational => "1.5",
            LanduseCategory::Orchard => "2.6",
            LanduseCategory::ArableLand => "2.7",
            LanduseCategory::Meadow => "2.8",
            LanduseCategory::AlpineAgriculture => "2.9",
            LanduseCategory::Forest => "3.10",
            LanduseCategory::BrushForest => "3.11",
            LanduseCategory::Woods => "3.12",
            LanduseCategory::Lake => "4.13",
            LanduseCategory::River => "4.14",
            LanduseCategory::UnproductiveVegetation => "4.15",
            LanduseCategory::BareLand => "4.16",
            LanduseCategory::Glacier => "4.17",
        }
    }

    /// Human-readable label from Fig. 4.
    pub fn label(&self) -> &'static str {
        match self {
            LanduseCategory::IndustrialCommercial => "industrial and commercial area",
            LanduseCategory::Building => "building areas",
            LanduseCategory::Transportation => "transportation areas",
            LanduseCategory::SpecialUrban => "special urban areas",
            LanduseCategory::Recreational => "recreational areas and cemeteries",
            LanduseCategory::Orchard => "orchard, vineyard and horticulture areas",
            LanduseCategory::ArableLand => "arable land",
            LanduseCategory::Meadow => "meadows, farm pastures",
            LanduseCategory::AlpineAgriculture => "alpine agricultural areas",
            LanduseCategory::Forest => "forest (except brush forest)",
            LanduseCategory::BrushForest => "brush forest",
            LanduseCategory::Woods => "woods",
            LanduseCategory::Lake => "lakes",
            LanduseCategory::River => "rivers",
            LanduseCategory::UnproductiveVegetation => "unproductive vegetation",
            LanduseCategory::BareLand => "bare land",
            LanduseCategory::Glacier => "glaciers, perpetual snow",
        }
    }

    /// The top-level group (L1–L4).
    pub fn group(&self) -> LanduseGroup {
        use LanduseCategory::*;
        match self {
            IndustrialCommercial | Building | Transportation | SpecialUrban | Recreational => {
                LanduseGroup::Settlement
            }
            Orchard | ArableLand | Meadow | AlpineAgriculture => LanduseGroup::Agriculture,
            Forest | BrushForest | Woods => LanduseGroup::Wooded,
            Lake | River | UnproductiveVegetation | BareLand | Glacier => {
                LanduseGroup::Unproductive
            }
        }
    }

    /// Position in [`LanduseCategory::ALL`] (the discriminant: `ALL` lists
    /// the variants in declaration order); stable across runs, used as a
    /// compact array key by the analytics layer.
    #[inline]
    pub fn ordinal(&self) -> usize {
        *self as usize
    }
}

/// One landuse cell: a square extent and its category.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LanduseCell {
    /// Stable cell identifier (row-major).
    pub id: u64,
    /// Square extent in local meters.
    pub rect: Rect,
    /// Landuse subcategory.
    pub category: LanduseCategory,
}

/// A regular grid of landuse cells covering a rectangular area.
#[derive(Debug, Clone)]
pub struct LanduseGrid {
    bounds: Rect,
    cell_size: f64,
    nx: usize,
    ny: usize,
    categories: Vec<LanduseCategory>, // row-major, nx * ny
}

impl LanduseGrid {
    /// Generates a zoned landuse layout over `bounds` with square cells of
    /// `cell_size` meters (the paper uses 100 m):
    ///
    /// * a lake strip along the southern edge;
    /// * an urban core in the middle (industrial/commercial + building +
    ///   transport corridors + special urban pockets);
    /// * a residential ring around the core (building + recreation);
    /// * farmland (arable/meadow/orchard) beyond the ring;
    /// * forest in the outer corners, bare land / brush scattered.
    ///
    /// The mix is randomized per cell within its zone, seeded by `seed`.
    pub fn generate(bounds: Rect, cell_size: f64, seed: u64) -> Self {
        assert!(!bounds.is_empty(), "landuse bounds must be non-empty");
        assert!(cell_size > 0.0, "cell size must be positive");
        let nx = (bounds.width() / cell_size).ceil().max(1.0) as usize;
        let ny = (bounds.height() / cell_size).ceil().max(1.0) as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6c61_6e64);
        let center = bounds.center();
        let half_diag = (bounds.width().min(bounds.height())) * 0.5;
        let lake_rows = (ny as f64 * 0.08).ceil() as usize;

        let mut categories = Vec::with_capacity(nx * ny);
        for row in 0..ny {
            for col in 0..nx {
                let cx = bounds.min_x + (col as f64 + 0.5) * cell_size;
                let cy = bounds.min_y + (row as f64 + 0.5) * cell_size;
                let d = Point::new(cx, cy).distance(center) / half_diag;
                let cat = if row < lake_rows {
                    // southern lake strip with a river mouth
                    if rng.gen_bool(0.06) {
                        LanduseCategory::River
                    } else {
                        LanduseCategory::Lake
                    }
                } else if d < 0.25 {
                    // urban core
                    match rng.gen_range(0..100) {
                        0..=39 => LanduseCategory::Building,
                        40..=71 => LanduseCategory::Transportation,
                        72..=87 => LanduseCategory::IndustrialCommercial,
                        88..=93 => LanduseCategory::SpecialUrban,
                        _ => LanduseCategory::Recreational,
                    }
                } else if d < 0.55 {
                    // residential ring
                    match rng.gen_range(0..100) {
                        0..=49 => LanduseCategory::Building,
                        50..=74 => LanduseCategory::Transportation,
                        75..=86 => LanduseCategory::Recreational,
                        87..=93 => LanduseCategory::Meadow,
                        _ => LanduseCategory::Orchard,
                    }
                } else if d < 0.85 {
                    // farmland belt
                    match rng.gen_range(0..100) {
                        0..=34 => LanduseCategory::ArableLand,
                        35..=64 => LanduseCategory::Meadow,
                        65..=74 => LanduseCategory::Orchard,
                        75..=84 => LanduseCategory::Building,
                        85..=92 => LanduseCategory::Transportation,
                        _ => LanduseCategory::Woods,
                    }
                } else {
                    // outer wilds
                    match rng.gen_range(0..100) {
                        0..=44 => LanduseCategory::Forest,
                        45..=59 => LanduseCategory::BrushForest,
                        60..=69 => LanduseCategory::Woods,
                        70..=79 => LanduseCategory::AlpineAgriculture,
                        80..=88 => LanduseCategory::UnproductiveVegetation,
                        89..=95 => LanduseCategory::BareLand,
                        _ => LanduseCategory::Glacier,
                    }
                };
                categories.push(cat);
            }
        }
        Self {
            bounds,
            cell_size,
            nx,
            ny,
            categories,
        }
    }

    /// Grid bounds.
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Cell side in meters.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.categories.len()
    }

    /// `true` when the grid has no cells (never happens for generated
    /// grids; kept for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.categories.is_empty()
    }

    /// Cell edge `k` along one axis. Every rect and every lookup goes
    /// through this one expression, so neighbouring cells share their edge
    /// bit for bit and the half-open cells tile without gap or overlap.
    #[inline]
    fn edge(origin: f64, cell_size: f64, k: usize) -> f64 {
        origin + k as f64 * cell_size
    }

    /// Cell by row-major id.
    pub fn cell(&self, id: u64) -> Option<LanduseCell> {
        let idx = id as usize;
        let cat = *self.categories.get(idx)?;
        let (row, col) = (idx / self.nx, idx % self.nx);
        let (x, y) = (self.bounds.min_x, self.bounds.min_y);
        let e = |origin: f64, k: usize| Self::edge(origin, self.cell_size, k);
        Some(LanduseCell {
            id,
            rect: Rect::new(e(x, col), e(y, row), e(x, col + 1), e(y, row + 1)),
            category: cat,
        })
    }

    /// Row-major index of the cell that owns `p`; `None` outside the
    /// raster and for non-finite points (no clamping, unlike
    /// [`LanduseGrid::cell_at`]). Cells are half-open `[min, max)` per axis,
    /// so a point on a shared edge belongs to the cell above / to the right
    /// of it; the last row and column are closed on the raster's outer edge.
    #[inline]
    pub fn index_at(&self, p: Point) -> Option<usize> {
        let col = Self::axis_index(p.x, self.bounds.min_x, self.cell_size, self.nx)?;
        let row = Self::axis_index(p.y, self.bounds.min_y, self.cell_size, self.ny)?;
        Some(row * self.nx + col)
    }

    /// The `k < n` with `edge(k) <= v < edge(k + 1)` (`<=` for the last).
    #[inline]
    fn axis_index(v: f64, origin: f64, cell_size: f64, n: usize) -> Option<usize> {
        // written so that NaN fails it: a saturating `NaN as usize` is 0
        if !(v >= origin && v <= Self::edge(origin, cell_size, n)) {
            return None;
        }
        // the division can round across an edge: confirm the guess against
        // the edges the cell's rect is built from and step where it did
        let mut k = (((v - origin) / cell_size) as usize).min(n - 1);
        while k + 1 < n && v >= Self::edge(origin, cell_size, k + 1) {
            k += 1;
        }
        while v < Self::edge(origin, cell_size, k) {
            k -= 1;
        }
        Some(k)
    }

    /// The cell containing `p` (clamped to the border cells for points just
    /// outside the bounds, mirroring how a national grid is queried): the
    /// [`LanduseGrid::index_at`] owner of `p` moved onto the raster.
    pub fn cell_at(&self, p: Point) -> LanduseCell {
        let (x, y, cs) = (self.bounds.min_x, self.bounds.min_y, self.cell_size);
        // `NaN.max(lo)` is `lo`
        let on_raster = Point::new(
            p.x.max(x).min(Self::edge(x, cs, self.nx)),
            p.y.max(y).min(Self::edge(y, cs, self.ny)),
        );
        let idx = self.index_at(on_raster).expect("clamped onto the raster");
        self.cell(idx as u64).expect("in range")
    }

    /// Reclassifies the cell containing `p` (clamped to the border cells
    /// like [`LanduseGrid::cell_at`]) and returns the cell id. Used by the
    /// live-update path; readers only observe the revision through the next
    /// published snapshot generation.
    pub fn set_category_at(&mut self, p: Point, category: LanduseCategory) -> u64 {
        let id = self.cell_at(p).id;
        self.categories[id as usize] = category;
        id
    }

    /// Iterates over all cells.
    pub fn cells(&self) -> impl Iterator<Item = LanduseCell> + '_ {
        (0..self.categories.len() as u64).map(move |id| self.cell(id).expect("in range"))
    }

    /// The cells whose closed rect intersects `r` (touching counts), in id
    /// order: the arithmetic range widened by one cell, then the exact test.
    pub fn cells_in<'a>(&'a self, r: &'a Rect) -> impl Iterator<Item = LanduseCell> + 'a {
        // saturating casts: below the origin and NaN give 0, +inf gives MAX
        let span = |lo: f64, hi: f64, origin: f64, n: usize| {
            let k = |v: f64| ((v - origin) / self.cell_size) as usize;
            k(lo).saturating_sub(1).min(n - 1)..=k(hi).saturating_add(1).min(n - 1)
        };
        let cols = span(r.min_x, r.max_x, self.bounds.min_x, self.nx);
        span(r.min_y, r.max_y, self.bounds.min_y, self.ny)
            .flat_map(move |row| cols.clone().map(move |col| row * self.nx + col))
            .map(|idx| self.cell(idx as u64).expect("in range"))
            .filter(move |c| c.rect.intersects(r))
    }

    /// Per-category cell counts, indexed by [`LanduseCategory::ordinal`].
    pub fn category_histogram(&self) -> [usize; 17] {
        let mut h = [0usize; 17];
        for c in &self.categories {
            h[c.ordinal()] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> LanduseGrid {
        LanduseGrid::generate(Rect::new(0.0, 0.0, 5_000.0, 5_000.0), 100.0, 42)
    }

    #[test]
    fn ontology_has_17_categories_in_4_groups() {
        assert_eq!(LanduseCategory::ALL.len(), 17);
        let settlement = LanduseCategory::ALL
            .iter()
            .filter(|c| c.group() == LanduseGroup::Settlement)
            .count();
        assert_eq!(settlement, 5);
        assert_eq!(LanduseCategory::Building.code(), "1.2");
        assert_eq!(LanduseCategory::Glacier.code(), "4.17");
        assert_eq!(LanduseCategory::Transportation.ordinal(), 2);
    }

    #[test]
    fn ordinal_is_the_position_in_all() {
        // `ordinal` is the discriminant cast; this holds it to `ALL`'s order
        for (i, c) in LanduseCategory::ALL.iter().enumerate() {
            assert_eq!(c.ordinal(), i, "{c:?}");
        }
    }

    #[test]
    fn grid_dimensions_and_count() {
        let g = small_grid();
        assert_eq!(g.len(), 50 * 50);
        assert_eq!(g.cell_size(), 100.0);
        assert!(!g.is_empty());
    }

    #[test]
    fn cell_lookup_roundtrip() {
        let g = small_grid();
        let c = g.cell_at(Point::new(2_550.0, 2_550.0));
        assert!(c.rect.contains_point(Point::new(2_550.0, 2_550.0)));
        assert_eq!(g.cell(c.id).unwrap().category, c.category);
        // out-of-bounds clamps
        let border = g.cell_at(Point::new(-10.0, 1e9));
        assert_eq!(border.id, ((50 - 1) * 50) as u64);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_grid();
        let b = small_grid();
        assert_eq!(a.category_histogram(), b.category_histogram());
        assert_eq!(
            a.cell(1234).unwrap().category,
            b.cell(1234).unwrap().category
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_grid();
        let b = LanduseGrid::generate(Rect::new(0.0, 0.0, 5_000.0, 5_000.0), 100.0, 43);
        assert_ne!(a.category_histogram(), b.category_histogram());
    }

    #[test]
    fn zoning_shape_is_plausible() {
        let g = small_grid();
        // center cell should be urban
        let center = g.cell_at(Point::new(2_500.0, 2_500.0));
        assert_eq!(center.category.group(), LanduseGroup::Settlement);
        // southern strip is lake/river
        let south = g.cell_at(Point::new(2_500.0, 50.0));
        assert_eq!(south.category.group(), LanduseGroup::Unproductive);
        // settlement group dominated by building + transportation
        let h = g.category_histogram();
        let building = h[LanduseCategory::Building.ordinal()];
        let transport = h[LanduseCategory::Transportation.ordinal()];
        assert!(building > 0 && transport > 0);
        assert!(building + transport > h[LanduseCategory::Glacier.ordinal()]);
    }

    #[test]
    fn histogram_sums_to_len() {
        let g = small_grid();
        let total: usize = g.category_histogram().iter().sum();
        assert_eq!(total, g.len());
    }

    #[test]
    fn cells_iterator_covers_all() {
        let g = LanduseGrid::generate(Rect::new(0.0, 0.0, 300.0, 200.0), 100.0, 1);
        let cells: Vec<_> = g.cells().collect();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].rect, Rect::new(0.0, 0.0, 100.0, 100.0));
        assert_eq!(cells[5].rect, Rect::new(200.0, 100.0, 300.0, 200.0));
    }

    /// A raster nothing is round about: fractional origin and cell size,
    /// bounds that are no multiple of the cell size (the last row and
    /// column overhang them).
    fn awkward_grid() -> LanduseGrid {
        LanduseGrid::generate(Rect::new(-123.4, 77.7, 2_871.3, 1_930.1), 93.7, 3)
    }

    /// `f64::next_up` (newer than the workspace's `rust-version`) for
    /// finite values.
    fn up(v: f64) -> f64 {
        match v {
            0.0 => f64::from_bits(1),
            v if v > 0.0 => f64::from_bits(v.to_bits() + 1),
            v => f64::from_bits(v.to_bits() - 1),
        }
    }

    fn down(v: f64) -> f64 {
        -up(-v)
    }

    /// Every point made of an edge coordinate, or of a value one ulp beside
    /// one, on either axis — cell corners, edges and the outer borders.
    fn edge_probes(g: &LanduseGrid) -> Vec<Point> {
        let axis = |origin: f64, n: usize| -> Vec<f64> {
            (0..=n)
                .map(|k| LanduseGrid::edge(origin, g.cell_size, k))
                .flat_map(|e| [down(e), e, up(e), e + 0.37 * g.cell_size])
                .collect()
        };
        let ys = axis(g.bounds.min_y, g.ny);
        axis(g.bounds.min_x, g.nx)
            .into_iter()
            .flat_map(|x| ys.iter().map(move |&y| Point::new(x, y)))
            .collect()
    }

    #[test]
    fn index_at_owner_contains_the_point_on_and_beside_every_edge() {
        for g in [small_grid(), awkward_grid()] {
            let last = g.cell(g.len() as u64 - 1).unwrap().rect;
            let raster = Rect::new(g.bounds.min_x, g.bounds.min_y, last.max_x, last.max_y);
            for p in edge_probes(&g) {
                let Some(idx) = g.index_at(p) else {
                    assert!(!raster.contains_point(p), "{p:?} is on the raster");
                    continue;
                };
                let r = g.cell(idx as u64).unwrap().rect;
                assert!(r.contains_point(p), "{p:?} not in its owner {r:?}");
                // half-open: an owner's upper edge is the raster's outer edge
                assert!(p.x < r.max_x || r.max_x == raster.max_x, "{p:?} in {r:?}");
                assert!(p.y < r.max_y || r.max_y == raster.max_y, "{p:?} in {r:?}");
                assert_eq!(g.index_at(p), Some(idx), "same answer on every call");
                assert_eq!(
                    g.cell_at(p).id,
                    idx as u64,
                    "agrees with the clamped lookup"
                );
            }
        }
    }

    #[test]
    fn cells_tile_the_raster_exactly() {
        let g = awkward_grid();
        for c in g.cells() {
            let (row, col) = (c.id as usize / g.nx, c.id as usize % g.nx);
            if col + 1 < g.nx {
                assert_eq!(c.rect.max_x, g.cell(c.id + 1).unwrap().rect.min_x);
            }
            if row + 1 < g.ny {
                assert_eq!(c.rect.max_y, g.cell(c.id + g.nx as u64).unwrap().rect.min_y);
            }
        }
    }

    #[test]
    fn index_at_rejects_what_is_not_on_the_raster() {
        let g = small_grid();
        // a saturating `NaN as usize` is 0: without the range test these
        // would land in cell 0
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.001,
            5_000.001,
            1e300,
        ] {
            assert_eq!(g.index_at(Point::new(bad, 2_500.0)), None, "x = {bad}");
            assert_eq!(g.index_at(Point::new(2_500.0, bad)), None, "y = {bad}");
        }
        assert_eq!(g.index_at(Point::new(0.0, 0.0)), Some(0));
        assert_eq!(g.index_at(Point::new(5_000.0, 5_000.0)), Some(g.len() - 1));
        assert_eq!(
            g.index_at(Point::new(100.0, 100.0)),
            Some(51),
            "upper-right owns a corner"
        );
    }

    #[test]
    fn cells_in_is_the_closed_intersection_in_id_order() {
        let g = awkward_grid();
        let queries = [
            Rect::new(100.0, 300.0, 700.0, 350.0),
            Rect::new(-5_000.0, -5_000.0, 0.0, 171.4), // sticks out, touches an edge
            Rect::new(251.4, 171.4, 251.4, 171.4),     // a corner: four cells
            Rect::new(9_000.0, 9_000.0, 9_100.0, 9_100.0),
            Rect::EMPTY,
            Rect::from_point(Point::new(f64::NAN, 0.0)),
        ];
        for q in queries {
            let got: Vec<u64> = g.cells_in(&q).map(|c| c.id).collect();
            let want: Vec<u64> = g
                .cells()
                .filter(|c| c.rect.intersects(&q))
                .map(|c| c.id)
                .collect();
            assert_eq!(got, want, "{q:?}");
        }
        assert_eq!(g.cells_in(&queries[2]).count(), 4);
    }
}
