//! The POI observation model (paper §4.3, Lemma 1).
//!
//! `Pr(o | C_i)` — the probability of seeing a stop `o` given the mover's
//! interest in category `C_i` — is, by Lemma 1, proportional to the sum of
//! the per-POI probabilities of that category, each POI modeled as a 2-D
//! isotropic Gaussian centered at its position with category-specific
//! spread σ_c.
//!
//! Two evaluation paths are provided, matching the paper's efficiency
//! discussion:
//!
//! * **exact** — sum the Gaussians of the POIs neighboring the stop
//!   center;
//! * **discretized** — the area is divided into grid cells and
//!   `Pr(grid_jk | C_i)` is precomputed per cell; a stop reads the row of
//!   its center's cell. Orders of magnitude faster for repeated queries,
//!   at a quantization cost measured by the ablation bench.

use semitri_data::{Poi, PoiCategory, PoiSet};
use semitri_geo::{Point, Rect};
use semitri_index::{CellOracle, FrozenNearestScratch, FrozenRStarTree, GridIndex};

/// Number of POI categories (the Milan taxonomy of Fig. 5).
pub const CATEGORY_COUNT: usize = 5;

/// One indexed POI: position, id, slot in the source `PoiSet`, category.
pub type PoiItem = (Point, u64, u32, PoiCategory);

/// The observation model over a POI source.
#[derive(Debug, Clone)]
pub struct PoiObservationModel {
    /// Grid items carry `(poi id, position in the source `PoiSet`,
    /// category)`; the stored position makes resolving a winning POI O(1)
    /// instead of a linear scan over the whole set.
    grid: GridIndex<(u64, u32, PoiCategory)>,
    /// Frozen R\*-tree over the same POIs: the shortlist oracle is
    /// gathered from it, and its best-first kNN heap resolves the cases
    /// the shortlist cannot.
    lookup: FrozenRStarTree<PoiItem>,
    /// Precomputed per-cell nearest-POI shortlists: every POI within
    /// `neighbor_radius` of any point of a cell is in that cell's slab, so
    /// a stop's category argmin scans a short list instead of walking the
    /// kNN heap. Exact-distance ties and NaN stops fall back to the heap
    /// so results stay bitwise identical to the heap path.
    oracle: CellOracle<PoiItem>,
    /// Precomputed `Pr(grid_jk | C_i)` rows, one per grid cell
    /// (unnormalized likelihoods; Viterbi only needs proportionality).
    cell_rows: Vec<[f64; CATEGORY_COUNT]>,
    /// Radius within which neighboring POIs contribute to a stop.
    neighbor_radius: f64,
}

/// The POI `id` stored at position `idx` of the model's source set, in
/// O(1); the id check (and the linear fallback) keeps the lookup correct
/// when the caller passes a different `PoiSet` than the one the model was
/// built from.
fn resolve(pois: &PoiSet, id: u64, idx: u32) -> Option<&Poi> {
    pois.pois()
        .get(idx as usize)
        .filter(|poi| poi.id == id)
        .or_else(|| pois.pois().iter().find(|poi| poi.id == id))
}

/// Likelihood floor so a category with no nearby POI stays possible but
/// maximally unlikely (keeps Viterbi paths finite even in POI deserts).
const FLOOR: f64 = 1e-12;

impl PoiObservationModel {
    /// Builds the model: indexes the POIs into a grid of `cell_size` meters
    /// and precomputes the discretized per-cell likelihood rows using the
    /// POIs within `neighbor_radius` of each cell center (the paper's
    /// "only neighboring POIs in that box").
    ///
    /// The nearest-POI lookup is a frozen R\*-tree over the POIs plus a
    /// shortlist oracle gathered from it, with grid pitch and query radius
    /// both equal to `neighbor_radius`.
    ///
    /// # Panics
    /// Panics if `pois` is empty or the parameters are non-positive.
    pub fn new(pois: &PoiSet, bounds: Rect, cell_size: f64, neighbor_radius: f64) -> Self {
        assert!(!pois.is_empty(), "observation model needs at least one POI");
        assert!(
            cell_size > 0.0 && neighbor_radius > 0.0,
            "parameters must be positive"
        );
        let mut grid = GridIndex::new(bounds, cell_size);
        for (i, p) in pois.pois().iter().enumerate() {
            grid.insert(p.point, (p.id, i as u32, p.category));
        }
        let lookup = FrozenRStarTree::bulk_load(
            pois.pois()
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    (
                        Rect::from_point(p.point),
                        (p.point, p.id, i as u32, p.category),
                    )
                })
                .collect(),
        );
        let oracle = CellOracle::build(&lookup, neighbor_radius, neighbor_radius);
        let mut cell_rows = vec![[FLOOR; CATEGORY_COUNT]; grid.nx() * grid.ny()];
        for row in 0..grid.ny() {
            for col in 0..grid.nx() {
                let center = grid.cell_center(col, row);
                let idx = grid.cell_index(col, row);
                cell_rows[idx] = Self::gaussian_row(&grid, center, neighbor_radius);
            }
        }
        Self {
            grid,
            lookup,
            oracle,
            cell_rows,
            neighbor_radius,
        }
    }

    /// The precomputed shortlist oracle (for memory reporting).
    pub fn oracle(&self) -> &CellOracle<PoiItem> {
        &self.oracle
    }

    /// Lemma 1: per-category Gaussian sums at `p` over neighboring POIs.
    fn gaussian_row(
        grid: &GridIndex<(u64, u32, PoiCategory)>,
        p: Point,
        radius: f64,
    ) -> [f64; CATEGORY_COUNT] {
        let mut row = [FLOOR; CATEGORY_COUNT];
        grid.for_each_within(p, radius, |q, &(_, _, cat)| {
            let sigma = cat.sigma();
            let d_sq = p.distance_sq(q);
            // 2-D isotropic Gaussian density (the 1/2πσ² normalization
            // matters across categories because σ_c differs per category)
            let dens =
                (-d_sq / (2.0 * sigma * sigma)).exp() / (std::f64::consts::TAU * sigma * sigma);
            row[cat.ordinal()] += dens;
        });
        row
    }

    /// Exact observation row for a stop centered at `p`
    /// (`Pr(center_xy | C_i)`, unnormalized).
    pub fn observe_exact(&self, p: Point) -> [f64; CATEGORY_COUNT] {
        Self::gaussian_row(&self.grid, p, self.neighbor_radius)
    }

    /// Discretized observation row: the precomputed row of the grid cell
    /// containing `p` (`Pr(grid_jk | C_i)`).
    pub fn observe_discretized(&self, p: Point) -> [f64; CATEGORY_COUNT] {
        let (col, row) = self.grid.cell_of(p);
        self.cell_rows[self.grid.cell_index(col, row)]
    }

    /// The nearest POI of a given category within the neighbor radius of
    /// `p` — used to resolve "the exact shop the person stopped for" once
    /// the HMM picked the category.
    pub fn nearest_of_category<'p>(
        &self,
        pois: &'p PoiSet,
        p: Point,
        cat: PoiCategory,
    ) -> Option<&'p Poi> {
        self.nearest_of_category_with(&mut FrozenNearestScratch::new(), pois, p, cat)
    }

    /// [`PoiObservationModel::nearest_of_category`] threading a reusable
    /// kNN heap, so a whole fleet's stop resolution performs no per-stop
    /// allocation.
    ///
    /// Scans the cell's shortlist; where it cannot decide alone, resolves
    /// through [`PoiObservationModel::nearest_of_category_via_heap`]'s
    /// best-first search.
    pub(crate) fn nearest_of_category_with<'p>(
        &self,
        scratch: &mut FrozenNearestScratch,
        pois: &'p PoiSet,
        p: Point,
        cat: PoiCategory,
    ) -> Option<&'p Poi> {
        // Shortlist fast path. Agreement with the heap path, case by case:
        // the cell slab contains every POI within `neighbor_radius` of `p`
        // (the catchment window covers `p ± radius`, POI rects are
        // degenerate points, and L∞ ≤ L2), so (a) no in-radius POI of the
        // category in the slab ⇒ none exists ⇒ the heap's best is either
        // ∞-distance or gated out — `None` both ways; (b) a unique minimum
        // ⇒ it is the global category argmin (anything outside the slab is
        // strictly farther than the radius) — exactly the heap's answer;
        // (c) an exact-distance tie ⇒ the heap's traversal order picks the
        // winner, so fall through to the real heap for bitwise identity.
        // A NaN stop locates no cell: its distances compare as neither
        // near nor far, so only the heap reproduces the heap's answer.
        if let Some(items) = self.oracle.candidates(p) {
            let mut best: Option<(f64, u64, u32)> = None;
            let mut tied = false;
            for &(q, id, idx, c) in items {
                if c != cat {
                    continue;
                }
                let d = q.distance(p);
                if d > self.neighbor_radius {
                    continue;
                }
                if let Some((bd, _, _)) = best {
                    if d < bd {
                        best = Some((d, id, idx));
                        tied = false;
                    } else if d == bd {
                        tied = true;
                    }
                } else {
                    best = Some((d, id, idx));
                }
            }
            match best {
                None => return None,
                Some((_, id, idx)) if !tied => return resolve(pois, id, idx),
                Some(_) => {}
            }
        }
        self.nearest_via_heap(scratch, pois, p, cat)
    }

    /// The heap-only twin of [`PoiObservationModel::nearest_of_category`]:
    /// best-first kNN over the frozen tree, never consulting the shortlist
    /// oracle. The reference the shortlist path must reproduce exactly.
    /// Allocates; not for the hot path.
    pub fn nearest_of_category_via_heap<'p>(
        &self,
        pois: &'p PoiSet,
        p: Point,
        cat: PoiCategory,
    ) -> Option<&'p Poi> {
        self.nearest_via_heap(&mut FrozenNearestScratch::new(), pois, p, cat)
    }

    /// Best-first k=1 search with a category-filtered exact distance
    /// (`∞` for other categories — an admissible bound, since `∞`
    /// dominates every bbox estimate), then the neighbor-radius gate the
    /// paper's "neighboring POIs" definition requires.
    fn nearest_via_heap<'p>(
        &self,
        scratch: &mut FrozenNearestScratch,
        pois: &'p PoiSet,
        p: Point,
        cat: PoiCategory,
    ) -> Option<&'p Poi> {
        let dist = |item: &PoiItem| {
            if item.3 == cat {
                item.0.distance(p)
            } else {
                f64::INFINITY
            }
        };
        let (d, id, idx) = self
            .lookup
            .nearest_by_with(scratch, p, 1, dist)
            .first()
            .map(|&(d, &(_, id, idx, _))| (d, id, idx))?;
        if d > self.neighbor_radius {
            return None;
        }
        resolve(pois, id, idx)
    }

    /// Number of grid cells of the discretization.
    pub fn cell_count(&self) -> usize {
        self.cell_rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny controlled POI set: a Feedings cluster west, an ItemSale
    /// cluster east.
    fn two_cluster_set() -> (PoiSet, Rect) {
        let bounds = Rect::new(0.0, 0.0, 1_000.0, 1_000.0);
        let mut pois = Vec::new();
        for i in 0..10 {
            pois.push(Poi {
                id: i,
                point: Point::new(200.0 + (i % 3) as f64 * 10.0, 500.0 + (i / 3) as f64 * 10.0),
                category: PoiCategory::Feedings,
                name: format!("cafe {i}"),
            });
        }
        for i in 10..20 {
            pois.push(Poi {
                id: i,
                point: Point::new(
                    800.0 + (i % 3) as f64 * 10.0,
                    500.0 + ((i - 10) / 3) as f64 * 10.0,
                ),
                category: PoiCategory::ItemSale,
                name: format!("shop {i}"),
            });
        }
        (PoiSet::new(pois), bounds)
    }

    fn model() -> (PoiObservationModel, PoiSet) {
        let (pois, bounds) = two_cluster_set();
        let m = PoiObservationModel::new(&pois, bounds, 50.0, 150.0);
        (m, pois)
    }

    #[test]
    fn exact_row_peaks_at_the_right_category() {
        let (m, _) = model();
        let west = m.observe_exact(Point::new(210.0, 510.0));
        assert!(
            west[PoiCategory::Feedings.ordinal()] > west[PoiCategory::ItemSale.ordinal()] * 100.0
        );
        let east = m.observe_exact(Point::new(810.0, 510.0));
        assert!(
            east[PoiCategory::ItemSale.ordinal()] > east[PoiCategory::Feedings.ordinal()] * 100.0
        );
    }

    #[test]
    fn desert_row_is_floor() {
        let (m, _) = model();
        let row = m.observe_exact(Point::new(500.0, 50.0));
        assert!(row.iter().all(|&v| v == FLOOR));
    }

    #[test]
    fn discretized_approximates_exact() {
        let (m, _) = model();
        let p = Point::new(215.0, 505.0);
        let exact = m.observe_exact(p);
        let disc = m.observe_discretized(p);
        // the argmax category must agree even if magnitudes differ
        let arg = |row: &[f64; 5]| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(arg(&exact), arg(&disc));
    }

    #[test]
    fn more_pois_raise_the_likelihood() {
        // Lemma 1: the row value grows with the number of same-category
        // POIs in the neighborhood
        let bounds = Rect::new(0.0, 0.0, 500.0, 500.0);
        let few = PoiSet::new(vec![Poi {
            id: 0,
            point: Point::new(250.0, 250.0),
            category: PoiCategory::Services,
            name: "a".to_string(),
        }]);
        let many = PoiSet::new(
            (0..5)
                .map(|i| Poi {
                    id: i,
                    point: Point::new(250.0 + i as f64 * 5.0, 250.0),
                    category: PoiCategory::Services,
                    name: format!("b{i}"),
                })
                .collect(),
        );
        let m_few = PoiObservationModel::new(&few, bounds, 50.0, 100.0);
        let m_many = PoiObservationModel::new(&many, bounds, 50.0, 100.0);
        let p = Point::new(250.0, 250.0);
        assert!(
            m_many.observe_exact(p)[PoiCategory::Services.ordinal()]
                > m_few.observe_exact(p)[PoiCategory::Services.ordinal()]
        );
    }

    #[test]
    fn nearest_of_category_resolves_exact_poi() {
        let (m, pois) = model();
        let got = m
            .nearest_of_category(&pois, Point::new(203.0, 503.0), PoiCategory::Feedings)
            .expect("found");
        assert_eq!(got.id, 0);
        // no ItemSale near the west cluster
        assert!(m
            .nearest_of_category(&pois, Point::new(203.0, 503.0), PoiCategory::ItemSale)
            .is_none());
    }

    #[test]
    fn nearest_of_category_agrees_with_brute_force_on_both_backends() {
        // both read paths — the shortlist oracle and the kNN heap — find
        // the brute-force category argmin within the radius
        let (pois, bounds) = two_cluster_set();
        let m = PoiObservationModel::new(&pois, bounds, 50.0, 150.0);
        let mut scratch = FrozenNearestScratch::new();
        for i in 0..40 {
            let p = Point::new((i * 37 % 100) as f64 * 10.0, (i * 53 % 100) as f64 * 10.0);
            for cat in [
                PoiCategory::Feedings,
                PoiCategory::ItemSale,
                PoiCategory::Services,
            ] {
                let brute = pois
                    .pois()
                    .iter()
                    .filter(|poi| poi.category == cat && poi.point.distance(p) <= 150.0)
                    .min_by(|a, b| {
                        a.point
                            .distance(p)
                            .partial_cmp(&b.point.distance(p))
                            .unwrap()
                    })
                    .map(|poi| poi.id);
                let shortlist = m
                    .nearest_of_category_with(&mut scratch, &pois, p, cat)
                    .map(|poi| poi.id);
                let heap = m
                    .nearest_of_category_via_heap(&pois, p, cat)
                    .map(|poi| poi.id);
                assert_eq!(shortlist, brute, "probe {i} cat {cat:?}");
                assert_eq!(heap, brute, "probe {i} cat {cat:?}");
            }
        }
    }

    #[test]
    fn shortlist_oracle_agrees_with_the_heap_path_everywhere() {
        // The two clusters, a Services pair mirrored about the middle of
        // the POI bounds, and a 24 × 24 PersonLife lattice spread over many
        // tree leaves, so probes on the midline and at lattice-cell centers
        // see exact distance ties between POIs the kNN heap reaches in a
        // different order than the slab lists them. Probes: every edge and
        // corner of the oracle grid, an ulp either side, r / 2r / 250 m /
        // 10⁶ m in and out, ±1e300, ±∞ and NaN, every POI position and
        // every lattice-cell center.
        let (cluster, bounds) = two_cluster_set();
        let mut all = cluster.pois().to_vec();
        for (id, x) in [(20, 400.0), (21, 620.0)] {
            all.push(Poi {
                id,
                point: Point::new(x, 515.0),
                category: PoiCategory::Services,
                name: format!("office {id}"),
            });
        }
        let lattice = |i: u64| {
            Point::new(
                300.0 + (i % 24) as f64 * 10.0,
                100.0 + (i / 24) as f64 * 10.0,
            )
        };
        for i in 0..24 * 24 {
            all.push(Poi {
                id: 100 + i,
                point: lattice(i),
                category: PoiCategory::PersonLife,
                name: format!("gym {i}"),
            });
        }
        let pois = PoiSet::new(all);
        let radius = 150.0;
        let m = PoiObservationModel::new(&pois, bounds, 50.0, radius);
        let mut scratch = FrozenNearestScratch::new();
        let mut probes = crate::test_probes::edge_probes(m.lookup.bbox(), radius);
        probes.extend(pois.pois().iter().map(|p| p.point));
        probes.extend((0..24 * 24).map(|i| lattice(i).offset(5.0, 5.0)));
        let (mut resolved, mut ties) = (0usize, 0usize);
        for p in probes {
            for cat in [
                PoiCategory::Feedings,
                PoiCategory::ItemSale,
                PoiCategory::Services,
                PoiCategory::PersonLife,
            ] {
                let want = m.nearest_of_category_via_heap(&pois, p, cat);
                let got = m.nearest_of_category_with(&mut scratch, &pois, p, cat);
                assert_eq!(
                    got.map(|poi| poi.id),
                    want.map(|poi| poi.id),
                    "probe {p:?} cat {cat:?}"
                );
                resolved += usize::from(want.is_some());
                let in_reach: Vec<f64> = pois
                    .pois()
                    .iter()
                    .filter(|poi| poi.category == cat)
                    .map(|poi| poi.point.distance(p))
                    .filter(|&d| d <= radius)
                    .collect();
                let best = in_reach.iter().copied().fold(f64::INFINITY, f64::min);
                ties += usize::from(in_reach.iter().filter(|&&d| d == best).count() > 1);
            }
        }
        assert!(resolved > 100, "probes must resolve real POIs");
        assert!(ties > 0, "the mirrored pair must produce exact ties");
    }

    #[test]
    fn exact_distance_tie_falls_back_to_the_heap_order() {
        // two Feedings POIs equidistant from the probe: the shortlist must
        // not pick on its own — the heap's traversal order is the contract
        let bounds = Rect::new(0.0, 0.0, 400.0, 400.0);
        let pois = PoiSet::new(vec![
            Poi {
                id: 7,
                point: Point::new(100.0, 200.0),
                category: PoiCategory::Feedings,
                name: "left".to_string(),
            },
            Poi {
                id: 9,
                point: Point::new(300.0, 200.0),
                category: PoiCategory::Feedings,
                name: "right".to_string(),
            },
        ]);
        let p = Point::new(200.0, 200.0);
        let m = PoiObservationModel::new(&pois, bounds, 50.0, 150.0);
        assert_eq!(
            m.nearest_of_category(&pois, p, PoiCategory::Feedings)
                .map(|poi| poi.id),
            m.nearest_of_category_via_heap(&pois, p, PoiCategory::Feedings)
                .map(|poi| poi.id),
        );
    }

    #[test]
    #[should_panic(expected = "at least one POI")]
    fn rejects_empty_poi_set() {
        PoiObservationModel::new(&PoiSet::default(), Rect::new(0.0, 0.0, 1.0, 1.0), 1.0, 1.0);
    }

    #[test]
    fn cell_count_matches_grid() {
        let (m, _) = model();
        assert_eq!(m.cell_count(), 20 * 20);
    }
}
