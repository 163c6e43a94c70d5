//! Semantic Region Annotation Layer (paper §4.1, Algorithm 1).
//!
//! Annotates trajectories with regions of interest via a spatial join
//! between the GPS records (or episode extents) and the region source.
//! Continuous runs of records falling in the same region are grouped into
//! tuples `(region, t_in, t_out, regtype)` and consecutive same-type
//! tuples are merged — exactly Algorithm 1.
//!
//! The paper joins through an R\*-tree. Free-form named regions still do
//! (overlapping polygons: the smallest-area rule needs every candidate);
//! the landuse source is a regular raster, so its join is cell arithmetic
//! ([`LanduseGrid::index_at`]) — addressing, not search.

use crate::model::{PlaceKind, PlaceRef};
use semitri_data::{LanduseCategory, LanduseCell, LanduseGrid, NamedRegion, RawTrajectory};
use semitri_episodes::Episode;
use semitri_geo::{Point, Polygon, Rect, TimeSpan, Timestamp};
use semitri_index::{FrozenRStarTree, FrozenRangeScratch};
use std::sync::Arc;

/// A region entry of the tree-backed source: polygonal (free-form
/// OSM-style regions) or rectangular (landuse cells, in the test oracle).
#[derive(Debug, Clone)]
struct RegionEntry {
    id: u64,
    label: Arc<str>,
    category: Option<LanduseCategory>,
    polygon: Option<Polygon>,
    rect: Rect,
}

impl RegionEntry {
    fn contains(&self, p: Point) -> bool {
        match &self.polygon {
            Some(poly) => poly.contains_point(p),
            None => self.rect.contains_point(p),
        }
    }

    fn intersects(&self, r: &Rect) -> bool {
        match &self.polygon {
            Some(poly) => poly.intersects_rect(r),
            None => self.rect.intersects(r),
        }
    }

    fn area(&self) -> f64 {
        match &self.polygon {
            Some(poly) => poly.area(),
            None => self.rect.area(),
        }
    }

    fn hit(&self) -> Hit<'_> {
        Hit {
            id: self.id,
            label: &self.label,
            category: self.category,
        }
    }
}

/// What a point lookup found, borrowed from whichever source answered.
#[derive(Clone, Copy)]
struct Hit<'a> {
    id: u64,
    label: &'a str,
    category: Option<LanduseCategory>,
}

impl Hit<'_> {
    fn place(&self) -> PlaceRef {
        PlaceRef::new(PlaceKind::Region, self.id, self.label)
    }
}

/// One output tuple of Algorithm 1: a maximal run of records inside the
/// same region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionTuple {
    /// The region as a place reference.
    pub place: PlaceRef,
    /// Landuse category when the region is a landuse cell.
    pub category: Option<LanduseCategory>,
    /// Approximated entering/leaving times.
    pub span: TimeSpan,
    /// First covered record index (inclusive).
    pub start: usize,
    /// Last covered record index (exclusive).
    pub end: usize,
}

impl RegionTuple {
    /// Number of GPS records aggregated into this tuple.
    pub fn record_count(&self) -> usize {
        self.end - self.start
    }

    /// Takes record `i` (the one right after the tuple's last) into the run.
    fn extend(&mut self, i: usize, t: Timestamp) {
        self.end = i + 1;
        self.span = TimeSpan::new(self.span.start, t);
    }
}

/// One step of Algorithm 1: record `i` lies in `hit`.
fn alg1_step(out: &mut Vec<RegionTuple>, i: usize, t: Timestamp, hit: Hit<'_>) {
    // merge into the previous tuple when it references the same region and
    // is contiguous (Algorithm 1 lines 10–11: same regtype ⇒ single tuple)
    if let Some(last) = out.last_mut() {
        let same_type = match (last.category, hit.category) {
            (Some(a), Some(b)) => a == b,
            _ => last.place.id == hit.id,
        };
        if last.end == i && same_type {
            // when crossing into a sibling cell of the same category keep
            // the first region's identity
            return last.extend(i, t);
        }
    }
    out.push(RegionTuple {
        place: hit.place(),
        category: hit.category,
        span: TimeSpan::new(t, t),
        start: i,
        end: i + 1,
    });
}

/// The Semantic Region Annotation Layer.
///
/// Build it from one source, then annotate raw trajectories (Algorithm 1)
/// or individual episodes (stop-center / move-bbox joins).
///
/// ```
/// use semitri_core::RegionAnnotator;
/// use semitri_data::{GpsRecord, LanduseGrid, RawTrajectory};
/// use semitri_geo::{Point, Rect, Timestamp};
///
/// let grid = LanduseGrid::generate(Rect::new(0.0, 0.0, 2_000.0, 2_000.0), 100.0, 1);
/// let annotator = RegionAnnotator::from_landuse(&grid);
/// let records = (0..50)
///     .map(|i| GpsRecord::new(Point::new(100.0 + i as f64 * 30.0, 1_000.0), Timestamp(i as f64)))
///     .collect();
/// let tuples = annotator.annotate_trajectory(&RawTrajectory::new(1, 1, records));
/// assert!(!tuples.is_empty());
/// // Algorithm 1 merges consecutive same-category cells into tuples
/// assert!(tuples.len() < 50);
/// ```
#[derive(Debug, Clone)]
pub struct RegionAnnotator {
    source: Source,
}

#[derive(Debug, Clone)]
enum Source {
    /// The landuse raster, addressed by arithmetic: a copy of the grid
    /// (dimensions + one byte per cell) and one label per category.
    Landuse {
        grid: LanduseGrid,
        labels: Vec<String>,
    },
    /// Free-form regions behind the frozen R\*-tree.
    Tree(Box<FrozenRStarTree<RegionEntry>>),
}

/// The landuse cell owning `p`; `None` off the raster.
fn landuse_at(grid: &LanduseGrid, p: Point) -> Option<LanduseCell> {
    grid.index_at(p).and_then(|idx| grid.cell(idx as u64))
}

fn landuse_hit(labels: &[String], cell: LanduseCell) -> Hit<'_> {
    Hit {
        id: cell.id,
        label: &labels[cell.category.ordinal()],
        category: Some(cell.category),
    }
}

/// The most specific (smallest-area) entry containing `p`; the reusable
/// traversal stack spares a whole-trajectory join per-record allocation.
fn smallest_containing<'t>(
    tree: &'t FrozenRStarTree<RegionEntry>,
    scratch: &mut FrozenRangeScratch,
    p: Point,
) -> Option<&'t RegionEntry> {
    let mut best: Option<&RegionEntry> = None;
    tree.for_each_in_with(scratch, &Rect::from_point(p), |_, e| {
        if e.contains(p) && best.is_none_or(|b| e.area() < b.area()) {
            best = Some(e);
        }
    });
    best
}

impl RegionAnnotator {
    fn from_entries(entries: Vec<RegionEntry>) -> Self {
        let items = entries.into_iter().map(|e| (e.rect, e)).collect();
        Self {
            source: Source::Tree(Box::new(FrozenRStarTree::bulk_load(items))),
        }
    }

    /// Builds the layer over a landuse grid. No index is built: the layer
    /// keeps a copy of the raster and addresses its cells by arithmetic.
    pub fn from_landuse(grid: &LanduseGrid) -> Self {
        Self {
            source: Source::Landuse {
                grid: grid.clone(),
                labels: LanduseCategory::ALL
                    .iter()
                    .map(|c| format!("{} [{}]", c.label(), c.code()))
                    .collect(),
            },
        }
    }

    /// Builds the layer over free-form named regions (campus, recreation
    /// areas — the paper's OpenStreetMap examples): an STR-packed
    /// R\*-tree.
    pub fn from_named_regions(regions: &[NamedRegion]) -> Self {
        let entries = regions
            .iter()
            .map(|r| RegionEntry {
                id: r.id,
                label: Arc::from(r.name.as_str()),
                category: None,
                polygon: Some(r.polygon.clone()),
                rect: r.bbox(),
            })
            .collect();
        Self::from_entries(entries)
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        match &self.source {
            Source::Landuse { grid, .. } => grid.len(),
            Source::Tree(tree) => tree.len(),
        }
    }

    /// `true` when the source has no regions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The region containing `p`: the owning cell of a landuse raster (see
    /// [`LanduseGrid::index_at`] for shared edges), the most specific
    /// (smallest-area) one among free-form regions.
    pub fn region_at(&self, p: Point) -> Option<PlaceRef> {
        match &self.source {
            Source::Landuse { grid, labels } => {
                landuse_at(grid, p).map(|c| landuse_hit(labels, c).place())
            }
            Source::Tree(tree) => smallest_containing(tree, &mut FrozenRangeScratch::new(), p)
                .map(|e| e.hit().place()),
        }
    }

    /// Algorithm 1: spatial join of the raw trajectory against the region
    /// source, grouping continuous records per region and merging
    /// consecutive tuples of the same region type.
    ///
    /// Records covered by no region produce gaps (no tuple), matching the
    /// paper's partial annotations.
    pub fn annotate_trajectory(&self, traj: &RawTrajectory) -> Vec<RegionTuple> {
        let records = traj.records().iter().enumerate();
        let mut out: Vec<RegionTuple> = Vec::new();
        match &self.source {
            Source::Landuse { grid, labels } => {
                // run fast path: a fix strictly inside the previous fix's
                // cell has the same owner, so it extends the open tuple
                // without touching the raster (`EMPTY` and NaN fail all four)
                let mut run = Rect::EMPTY;
                for (i, r) in records {
                    let p = r.point;
                    if run.min_x < p.x && p.x < run.max_x && run.min_y < p.y && p.y < run.max_y {
                        let open = out.last_mut().expect("an open run has a tuple");
                        open.extend(i, r.t);
                        continue;
                    }
                    let cell = landuse_at(grid, p);
                    run = cell.map_or(Rect::EMPTY, |c| c.rect);
                    if let Some(c) = cell {
                        alg1_step(&mut out, i, r.t, landuse_hit(labels, c));
                    }
                }
            }
            Source::Tree(tree) => {
                let mut scratch = FrozenRangeScratch::new();
                for (i, r) in records {
                    if let Some(e) = smallest_containing(tree, &mut scratch, r.point) {
                        alg1_step(&mut out, i, r.t, e.hit());
                    }
                }
            }
        }
        out
    }

    /// Episode-scoped join (§4.1): a *stop* is joined by its center point
    /// (spatial subsumption), a *move* by its bounding rectangle
    /// (intersection). Returns the matching regions for the episode.
    pub fn annotate_episode(&self, traj: &RawTrajectory, episode: &Episode) -> Vec<PlaceRef> {
        let _ = traj;
        if episode.kind == semitri_episodes::EpisodeKind::Stop {
            return self.region_at(episode.center).into_iter().collect();
        }
        match &self.source {
            Source::Landuse { grid, labels } => grid
                .cells_in(&episode.bbox)
                .map(|c| landuse_hit(labels, c).place())
                .collect(),
            Source::Tree(tree) => {
                let mut out = Vec::new();
                tree.for_each_in_with(&mut FrozenRangeScratch::new(), &episode.bbox, |_, e| {
                    if e.intersects(&episode.bbox) {
                        out.push(e.hit().place());
                    }
                });
                out.sort_by_key(|p| p.id);
                out
            }
        }
    }

    /// Per-record landuse categories (used by the analytics layer for the
    /// Fig. 9 / Fig. 14 distributions). `None` for uncovered records.
    pub fn categories_for(&self, traj: &RawTrajectory) -> Vec<Option<LanduseCategory>> {
        let records = traj.records().iter();
        match &self.source {
            Source::Landuse { grid, .. } => records
                .map(|r| landuse_at(grid, r.point).map(|c| c.category))
                .collect(),
            Source::Tree(tree) => {
                let mut scratch = FrozenRangeScratch::new();
                records
                    .map(|r| {
                        smallest_containing(tree, &mut scratch, r.point).and_then(|e| e.category)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use semitri_data::presets::smartphone_users;
    use semitri_data::GpsRecord;
    use semitri_episodes::{SegmentationPolicy, VelocityPolicy};

    impl RegionAnnotator {
        /// The paper-literal landuse join this layer used to ship: every
        /// cell boxed into an STR-packed R\*-tree and re-found by a
        /// tree descent per fix. Kept as the raster path's differential
        /// oracle.
        fn from_landuse_tree(grid: &LanduseGrid) -> Self {
            let labels: Vec<Arc<str>> = LanduseCategory::ALL
                .iter()
                .map(|c| Arc::from(format!("{} [{}]", c.label(), c.code())))
                .collect();
            let entries = grid
                .cells()
                .map(|c| RegionEntry {
                    id: c.id,
                    label: Arc::clone(&labels[c.category.ordinal()]),
                    category: Some(c.category),
                    polygon: None,
                    rect: c.rect,
                })
                .collect();
            Self::from_entries(entries)
        }
    }

    fn grid() -> LanduseGrid {
        LanduseGrid::generate(Rect::new(0.0, 0.0, 3_000.0, 3_000.0), 100.0, 5)
    }

    /// Fractional origin and cell size, bounds no multiple of the cell
    /// size: nothing about the raster arithmetic comes out round.
    fn awkward_grid() -> LanduseGrid {
        LanduseGrid::generate(Rect::new(-123.4, 77.7, 2_871.3, 1_930.1), 93.7, 3)
    }

    fn traj_of(points: impl IntoIterator<Item = Point>) -> RawTrajectory {
        let recs = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| GpsRecord::new(p, Timestamp(i as f64 * 5.0)))
            .collect();
        RawTrajectory::new(1, 1, recs)
    }

    /// `p` lies on an edge shared by two cells, where the tree's answer was
    /// an accident of bulk-load order and the raster's is the half-open rule.
    fn on_shared_edge(g: &LanduseGrid, p: Point) -> bool {
        g.cells_in(&Rect::from_point(p)).count() > 1
    }

    fn assert_same_join(
        g: &LanduseGrid,
        raster: &RegionAnnotator,
        tree: &RegionAnnotator,
        traj: &RawTrajectory,
    ) {
        if traj.records().iter().any(|r| on_shared_edge(g, r.point)) {
            return;
        }
        assert_eq!(
            raster.annotate_trajectory(traj),
            tree.annotate_trajectory(traj)
        );
        assert_eq!(raster.categories_for(traj), tree.categories_for(traj));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn raster_equals_tree_on_uniform_points(
            pts in proptest::collection::vec((-400.0..3_200.0f64, -200.0..2_300.0f64), 1..300),
            awkward in 0u8..2,
        ) {
            let g = if awkward == 1 { awkward_grid() } else { grid() };
            let (raster, tree) = (RegionAnnotator::from_landuse(&g), RegionAnnotator::from_landuse_tree(&g));
            let pts: Vec<Point> = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            for &p in pts.iter().filter(|&&p| !on_shared_edge(&g, p)) {
                // `PlaceRef` equality is id + label; the category rides on Alg. 1
                prop_assert_eq!(raster.region_at(p), tree.region_at(p), "{:?}", p);
            }
            assert_same_join(&g, &raster, &tree, &traj_of(pts));
        }

        /// Dwell-heavy tracks: runs of fixes jittering inside one cell, then
        /// a hop — the input the run fast path exists for.
        #[test]
        fn raster_equals_tree_on_dwelling_tracks(
            hops in proptest::collection::vec(
                ((-100.0..3_100.0f64, -100.0..3_100.0f64), 1usize..40, 0.0..60.0f64),
                1..12,
            ),
            jitter in proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), 40),
        ) {
            let g = grid();
            let (raster, tree) = (RegionAnnotator::from_landuse(&g), RegionAnnotator::from_landuse_tree(&g));
            let pts = hops.iter().flat_map(|&((x, y), n, spread)| {
                jitter[..n].iter().map(move |&(dx, dy)| Point::new(x + dx * spread, y + dy * spread))
            });
            assert_same_join(&g, &raster, &tree, &traj_of(pts));
        }
    }

    #[test]
    fn raster_equals_tree_on_simulated_days() {
        // the simulator's phone days: 9 m GPS noise, dropouts, indoor loss
        for seed in [3, 17] {
            let dataset = smartphone_users(2, 1, seed);
            let g = &dataset.city.landuse;
            let (raster, tree) = (
                RegionAnnotator::from_landuse(g),
                RegionAnnotator::from_landuse_tree(g),
            );
            assert_eq!(raster.len(), tree.len());
            for track in &dataset.tracks {
                assert_same_join(g, &raster, &tree, &track.to_raw());
            }
        }
    }

    /// Points on cell edges, cell corners and the four outer borders.
    fn snapped_points(g: &LanduseGrid) -> Vec<Point> {
        let b = g.bounds();
        let mut pts = Vec::new();
        for i in 0..=30 {
            let v = i as f64 * 100.0;
            for w in [0.0, 40.0, 1_500.0, 1_537.5, 2_900.0, 3_000.0] {
                pts.push(Point::new(b.min_x + v, b.min_y + w));
                pts.push(Point::new(b.min_x + w, b.min_y + v));
            }
        }
        pts
    }

    #[test]
    fn snapped_points_get_one_containing_cell_and_tuples_still_tile() {
        let g = grid();
        let ann = RegionAnnotator::from_landuse(&g);
        let pts = snapped_points(&g);
        for &p in &pts {
            let place = ann
                .region_at(p)
                .expect("edges and borders are on the raster");
            let cell = g.cell(place.id).unwrap();
            assert!(cell.rect.contains_point(p), "{p:?} not in {:?}", cell.rect);
            assert_eq!(ann.region_at(p), Some(place), "same answer on every call");
        }
        // a path along and across edges: Alg. 1 still tiles it
        let traj = traj_of(pts);
        let tuples = ann.annotate_trajectory(&traj);
        assert_eq!(
            tuples.iter().map(|t| t.record_count()).sum::<usize>(),
            traj.len()
        );
        assert_eq!(tuples, ann.annotate_trajectory(&traj));
        for w in tuples.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_ne!(w[0].category, w[1].category);
        }
        for (t, cat) in tuples
            .iter()
            .flat_map(|t| (t.start..t.end).map(move |i| (t, i)))
            .zip(ann.categories_for(&traj))
        {
            assert_eq!(t.0.category, cat, "record {}", t.1);
        }
    }

    #[test]
    fn off_raster_and_non_finite_points_are_gaps() {
        let ann = RegionAnnotator::from_landuse(&grid());
        let inside = Point::new(1_550.0, 1_550.0);
        let bad = [
            Point::new(-0.5, 1_550.0),
            Point::new(1_550.0, 3_000.5),
            Point::new(f64::NAN, 1_550.0),
            Point::new(1_550.0, f64::NAN),
            Point::new(f64::INFINITY, 1_550.0),
            Point::new(1_550.0, f64::NEG_INFINITY),
        ];
        for p in bad {
            // a saturating `NaN as usize` would answer with cell 0
            assert_eq!(ann.region_at(p), None, "{p:?}");
        }
        // the run fast path must not carry a dwell across a bad fix
        let mut pts = vec![inside; 3];
        for p in bad {
            pts.push(p);
            pts.extend([inside; 2]);
        }
        let traj = traj_of(pts);
        let cats = ann.categories_for(&traj);
        let tuples = ann.annotate_trajectory(&traj);
        assert_eq!(cats.iter().filter(|c| c.is_none()).count(), bad.len());
        assert_eq!(
            tuples.len(),
            bad.len() + 1,
            "every bad fix splits the dwell"
        );
        for t in &tuples {
            assert!(cats[t.start..t.end].iter().all(|c| *c == t.category));
            assert!(t.end == traj.len() || cats[t.end].is_none());
        }
    }

    fn walk_traj() -> RawTrajectory {
        // straight east-west walk across the middle of the grid
        let recs: Vec<GpsRecord> = (0..200)
            .map(|i| {
                GpsRecord::new(
                    Point::new(100.0 + i as f64 * 14.0, 1_550.0),
                    Timestamp(i as f64 * 10.0),
                )
            })
            .collect();
        RawTrajectory::new(1, 1, recs)
    }

    #[test]
    fn landuse_annotator_covers_everything() {
        let ann = RegionAnnotator::from_landuse(&grid());
        assert_eq!(ann.len(), 900);
        // every in-bounds point resolves to its containing cell
        let p = Point::new(1_234.0, 987.0);
        let r = ann.region_at(p).expect("covered");
        assert_eq!(r.kind, PlaceKind::Region);
        let g = grid();
        assert_eq!(r.id, g.cell_at(p).id);
    }

    #[test]
    fn alg1_produces_contiguous_merged_tuples() {
        let ann = RegionAnnotator::from_landuse(&grid());
        let traj = walk_traj();
        let tuples = ann.annotate_trajectory(&traj);
        assert!(!tuples.is_empty());
        // tuples are ordered, non-overlapping, and cover every record
        // (landuse covers the full bounds)
        let covered: usize = tuples.iter().map(|t| t.record_count()).sum();
        assert_eq!(covered, traj.len());
        for w in tuples.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            // adjacent tuples differ in category (else they'd be merged)
            assert_ne!(w[0].category, w[1].category);
        }
        // compression: far fewer tuples than records
        assert!(tuples.len() * 3 < traj.len());
    }

    #[test]
    fn alg1_spans_are_monotone() {
        let ann = RegionAnnotator::from_landuse(&grid());
        let tuples = ann.annotate_trajectory(&walk_traj());
        for w in tuples.windows(2) {
            assert!(w[0].span.end.0 <= w[1].span.start.0);
        }
    }

    #[test]
    fn named_region_annotation() {
        let regions = vec![NamedRegion {
            id: 7,
            name: "campus".to_string(),
            kind: semitri_data::region::RegionKind::Campus,
            polygon: Polygon::from_rect(&Rect::new(500.0, 500.0, 900.0, 900.0)),
        }];
        let ann = RegionAnnotator::from_named_regions(&regions);
        assert_eq!(ann.len(), 1);
        let inside = ann.region_at(Point::new(700.0, 700.0)).expect("inside");
        assert_eq!(inside.label, "campus");
        assert!(ann.region_at(Point::new(100.0, 100.0)).is_none());
    }

    #[test]
    fn smallest_region_wins_on_overlap() {
        let regions = vec![
            NamedRegion {
                id: 1,
                name: "big".to_string(),
                kind: semitri_data::region::RegionKind::Residential,
                polygon: Polygon::from_rect(&Rect::new(0.0, 0.0, 1_000.0, 1_000.0)),
            },
            NamedRegion {
                id: 2,
                name: "small".to_string(),
                kind: semitri_data::region::RegionKind::Market,
                polygon: Polygon::from_rect(&Rect::new(400.0, 400.0, 600.0, 600.0)),
            },
        ];
        let ann = RegionAnnotator::from_named_regions(&regions);
        assert_eq!(
            ann.region_at(Point::new(500.0, 500.0)).unwrap().label,
            "small"
        );
        assert_eq!(
            ann.region_at(Point::new(100.0, 100.0)).unwrap().label,
            "big"
        );
    }

    #[test]
    fn episode_join_stop_center_and_move_bbox() {
        let ann = RegionAnnotator::from_landuse(&grid());
        let traj = walk_traj();
        let eps = VelocityPolicy::default().segment(&traj);
        assert!(!eps.is_empty());
        for e in &eps {
            let places = ann.annotate_episode(&traj, e);
            match e.kind {
                semitri_episodes::EpisodeKind::Stop => assert!(places.len() <= 1),
                semitri_episodes::EpisodeKind::Move => {
                    // a long move crosses many cells
                    assert!(places.len() > 1);
                }
            }
        }
    }

    #[test]
    fn categories_for_full_coverage() {
        let ann = RegionAnnotator::from_landuse(&grid());
        let traj = walk_traj();
        let cats = ann.categories_for(&traj);
        assert_eq!(cats.len(), traj.len());
        assert!(cats.iter().all(|c| c.is_some()));
    }

    #[test]
    fn uncovered_records_produce_gaps() {
        let regions = vec![NamedRegion {
            id: 1,
            name: "island".to_string(),
            kind: semitri_data::region::RegionKind::Recreation,
            polygon: Polygon::from_rect(&Rect::new(1_000.0, 1_500.0, 1_300.0, 1_700.0)),
        }];
        let ann = RegionAnnotator::from_named_regions(&regions);
        let traj = walk_traj();
        let tuples = ann.annotate_trajectory(&traj);
        assert_eq!(tuples.len(), 1);
        let covered: usize = tuples.iter().map(|t| t.record_count()).sum();
        assert!(covered < traj.len());
        assert_eq!(tuples[0].place.label, "island");
    }
}
