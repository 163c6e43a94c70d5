//! Semantic Point Annotation Layer (paper §4.3, Algorithm 3).
//!
//! Annotates the *stop* episodes of a trajectory with POI categories — the
//! activity behind the stop — using an HMM whose hidden states are the POI
//! categories, observations are the stop positions, and the observation
//! model is the Gaussian/discretized density of [`observation`]. Decoding
//! is log-space Viterbi ([`hmm`]). [`baseline`] provides the one-to-one
//! nearest-POI annotator the paper contrasts against.

pub mod baseline;
pub mod hmm;
pub mod learn;
pub mod observation;

use crate::error::SemitriError;
use crate::model::{PlaceKind, PlaceRef};
use hmm::Hmm;
use observation::{PoiObservationModel, CATEGORY_COUNT};
use semitri_data::{PoiCategory, PoiSet};
use semitri_geo::{Point, Rect};
use semitri_index::FrozenNearestScratch;

/// The result for one stop: the inferred category and, when resolvable,
/// the exact POI behind the stop.
#[derive(Debug, Clone, PartialEq)]
pub struct StopAnnotation {
    /// Inferred activity category (the HMM hidden state).
    pub category: PoiCategory,
    /// The nearest POI of that category, as a point place reference.
    pub poi: Option<PlaceRef>,
}

/// Configuration of the point annotation layer.
#[derive(Debug, Clone, Copy)]
pub struct PointParams {
    /// Grid cell size of the discretized observation model, meters.
    pub cell_size_m: f64,
    /// Neighbor radius for POI influence, meters.
    pub neighbor_radius_m: f64,
    /// Use the precomputed discretized observation rows (`true`, the
    /// paper's efficient path) or exact Gaussian sums per stop.
    pub discretized: bool,
}

impl Default for PointParams {
    fn default() -> Self {
        Self {
            cell_size_m: 30.0,
            neighbor_radius_m: 75.0,
            discretized: true,
        }
    }
}

/// The Semantic Point Annotation Layer.
///
/// ```
/// use semitri_core::point::{PointAnnotator, PointParams};
/// use semitri_data::{Poi, PoiCategory, PoiSet};
/// use semitri_geo::{Point, Rect};
///
/// let pois = PoiSet::new(
///     (0..8)
///         .map(|i| Poi {
///             id: i,
///             point: Point::new(500.0 + i as f64 * 10.0, 500.0),
///             category: PoiCategory::Feedings,
///             name: format!("cafe {i}"),
///         })
///         .collect(),
/// );
/// let bounds = Rect::new(0.0, 0.0, 1_000.0, 1_000.0);
/// let annotator = PointAnnotator::new(&pois, bounds, PointParams::default()).unwrap();
/// let stops = annotator.annotate_stops(&[Point::new(520.0, 505.0)]);
/// assert_eq!(stops[0].category, PoiCategory::Feedings);
/// ```
pub struct PointAnnotator {
    model: PoiObservationModel,
    hmm: Hmm,
    pois: PoiSet,
    params: PointParams,
}

impl PointAnnotator {
    /// Builds the layer over a POI source.
    ///
    /// * π is approximated by the category shares of the source (§4.3:
    ///   "the percentage of POI samples belonging to each category");
    /// * A defaults to the Fig. 6 matrix; override with
    ///   [`PointAnnotator::with_transitions`].
    ///
    /// # Errors
    /// Returns [`SemitriError::NoPoiData`] for an empty POI set.
    pub fn new(pois: &PoiSet, bounds: Rect, params: PointParams) -> Result<Self, SemitriError> {
        if pois.is_empty() {
            return Err(SemitriError::NoPoiData);
        }
        let hist = pois.category_histogram();
        let total: usize = hist.iter().sum();
        let pi: Vec<f64> = hist.iter().map(|&c| c as f64 / total as f64).collect();
        let a = Hmm::default_transitions(CATEGORY_COUNT);
        let hmm = Hmm::new(&pi, &a).expect("consistent dimensions");
        let model =
            PoiObservationModel::new(pois, bounds, params.cell_size_m, params.neighbor_radius_m);
        Ok(Self {
            model,
            hmm,
            pois: pois.clone(),
            params,
        })
    }

    /// Replaces the transition matrix (e.g. learned from region
    /// transitions, as the paper suggests for data-rich deployments).
    ///
    /// # Errors
    /// Returns [`SemitriError::HmmDimensionMismatch`] when `a` is not
    /// 5 × 5.
    pub fn with_transitions(mut self, a: &[Vec<f64>]) -> Result<Self, SemitriError> {
        let hist = self.pois.category_histogram();
        let total: usize = hist.iter().sum();
        let pi: Vec<f64> = hist.iter().map(|&c| c as f64 / total as f64).collect();
        self.hmm = Hmm::new(&pi, a)?;
        Ok(self)
    }

    /// The observation model (exposed for the ablation benchmarks).
    pub fn observation_model(&self) -> &PoiObservationModel {
        &self.model
    }

    /// Causal (online) annotation of one stop given the forward state of
    /// the previous stops (`None` for the first stop of the feed). Returns
    /// the annotation plus the updated forward state — used by the
    /// real-time annotator, where future stops are not yet known.
    pub fn annotate_stop_online(
        &self,
        center: Point,
        prev_forward: Option<&[f64]>,
    ) -> (StopAnnotation, Vec<f64>) {
        let row = if self.params.discretized {
            self.model.observe_discretized(center)
        } else {
            self.model.observe_exact(center)
        };
        let forward = match prev_forward {
            None => self.hmm.forward_init(&row).expect("row width fixed"),
            Some(prev) => self.hmm.forward_step(prev, &row).expect("row width fixed"),
        };
        let state = forward
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let category = PoiCategory::ALL[state];
        let poi = self
            .model
            .nearest_of_category(&self.pois, center, category)
            .map(|p| PlaceRef::new(PlaceKind::Point, p.id, p.name.clone()));
        (StopAnnotation { category, poi }, forward)
    }

    /// Algorithm 3: infers the category sequence behind a sequence of stop
    /// centers (one trajectory's stops, time-ordered) and resolves the
    /// exact POI per stop where possible.
    ///
    /// Returns one annotation per input stop; an empty input yields an
    /// empty output.
    pub fn annotate_stops(&self, stop_centers: &[Point]) -> Vec<StopAnnotation> {
        if stop_centers.is_empty() {
            return Vec::new();
        }
        let b: Vec<Vec<f64>> = stop_centers
            .iter()
            .map(|&c| {
                let row = if self.params.discretized {
                    self.model.observe_discretized(c)
                } else {
                    self.model.observe_exact(c)
                };
                row.to_vec()
            })
            .collect();
        let (path, _) = self.hmm.viterbi(&b).expect("rows are CATEGORY_COUNT wide");
        // one kNN heap for the whole stop sequence: POI resolution then
        // performs no per-stop allocation
        let mut scratch = FrozenNearestScratch::new();
        path.iter()
            .zip(stop_centers)
            .map(|(&state, &center)| {
                let category = PoiCategory::ALL[state];
                let poi = self
                    .model
                    .nearest_of_category_with(&mut scratch, &self.pois, center, category)
                    .map(|p| PlaceRef::new(PlaceKind::Point, p.id, p.name.clone()));
                StopAnnotation { category, poi }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semitri_data::Poi;

    /// Controlled scene: Feedings cluster at x=200, ItemSale cluster at
    /// x=800, both at y=500.
    fn scene() -> (PoiSet, Rect) {
        let bounds = Rect::new(0.0, 0.0, 1_000.0, 1_000.0);
        let mut pois = Vec::new();
        for i in 0..12 {
            pois.push(Poi {
                id: i,
                point: Point::new(200.0 + (i % 4) as f64 * 8.0, 500.0 + (i / 4) as f64 * 8.0),
                category: PoiCategory::Feedings,
                name: format!("cafe {i}"),
            });
        }
        for i in 12..24 {
            pois.push(Poi {
                id: i,
                point: Point::new(
                    800.0 + (i % 4) as f64 * 8.0,
                    500.0 + ((i - 12) / 4) as f64 * 8.0,
                ),
                category: PoiCategory::ItemSale,
                name: format!("shop {i}"),
            });
        }
        (PoiSet::new(pois), bounds)
    }

    #[test]
    fn annotates_stops_with_dominant_local_category() {
        let (pois, bounds) = scene();
        let ann = PointAnnotator::new(&pois, bounds, PointParams::default()).unwrap();
        let stops = vec![Point::new(205.0, 505.0), Point::new(805.0, 505.0)];
        let out = ann.annotate_stops(&stops);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].category, PoiCategory::Feedings);
        assert_eq!(out[1].category, PoiCategory::ItemSale);
        // exact POI resolved
        assert!(out[0].poi.as_ref().unwrap().label.contains("cafe"));
        assert!(out[1].poi.as_ref().unwrap().label.contains("shop"));
        assert_eq!(out[0].poi.as_ref().unwrap().kind, PlaceKind::Point);
    }

    #[test]
    fn exact_and_discretized_agree_on_clear_scenes() {
        let (pois, bounds) = scene();
        let stops = vec![Point::new(210.0, 500.0), Point::new(790.0, 512.0)];
        let a = PointAnnotator::new(&pois, bounds, PointParams::default())
            .unwrap()
            .annotate_stops(&stops);
        let b = PointAnnotator::new(
            &pois,
            bounds,
            PointParams {
                discretized: false,
                ..PointParams::default()
            },
        )
        .unwrap()
        .annotate_stops(&stops);
        assert_eq!(
            a.iter().map(|s| s.category).collect::<Vec<_>>(),
            b.iter().map(|s| s.category).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_stop_sequence() {
        let (pois, bounds) = scene();
        let ann = PointAnnotator::new(&pois, bounds, PointParams::default()).unwrap();
        assert!(ann.annotate_stops(&[]).is_empty());
    }

    #[test]
    fn empty_poi_set_is_an_error() {
        let r = PointAnnotator::new(
            &PoiSet::default(),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            PointParams::default(),
        );
        assert_eq!(r.err(), Some(SemitriError::NoPoiData));
    }

    #[test]
    fn sticky_transitions_stabilize_ambiguous_middle_stop() {
        // stops: clear Feedings, ambiguous midpoint, clear Feedings —
        // sequence context should label all three Feedings even though the
        // midpoint alone is a coin flip
        let (pois, bounds) = scene();
        let ann = PointAnnotator::new(&pois, bounds, PointParams::default()).unwrap();
        let stops = vec![
            Point::new(205.0, 505.0),
            Point::new(500.0, 505.0), // desert midpoint: floor row
            Point::new(210.0, 500.0),
        ];
        let out = ann.annotate_stops(&stops);
        assert_eq!(out[0].category, PoiCategory::Feedings);
        assert_eq!(out[2].category, PoiCategory::Feedings);
        // middle has no local evidence: self-transition keeps it Feedings
        assert_eq!(out[1].category, PoiCategory::Feedings);
        assert!(out[1].poi.is_none(), "no POI resolvable in the desert");
    }

    #[test]
    fn custom_transitions_override() {
        let (pois, bounds) = scene();
        // transitions that forbid staying in Feedings make the second
        // Feedings stop switch to the next-best explanation
        let mut a = Hmm::default_transitions(5);
        let f = PoiCategory::Feedings.ordinal();
        for (j, p) in a[f].iter_mut().enumerate() {
            *p = if j == f { 0.0 } else { 0.25 };
        }
        let ann = PointAnnotator::new(&pois, bounds, PointParams::default())
            .unwrap()
            .with_transitions(&a)
            .unwrap();
        let stops = vec![Point::new(205.0, 505.0), Point::new(205.0, 505.0)];
        let out = ann.annotate_stops(&stops);
        assert_eq!(out[0].category, PoiCategory::Feedings);
        assert_ne!(out[1].category, PoiCategory::Feedings);
    }
}
