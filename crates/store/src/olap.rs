//! Warehouse-style aggregate queries over the semantic matrix.
//!
//! The aggregate result types live here together with [`RowStore`], a
//! deliberately naive row-walk implementation of the same aggregates
//! over materialized [`SemanticTuple`] rows. `RowStore` is the *oracle*
//! the proptest suite (`tests/columnar.rs`) checks the compressed scans
//! against (the pre-columnar store answered these questions with exactly
//! this kind of walk).

use crate::matrix::TupleLayers;
use semitri_core::model::{AnnotationValue, PlaceKind, StructuredSemanticTrajectory};
use semitri_data::{LanduseCategory, RoadClass, TransportMode};
use semitri_episodes::EpisodeKind;
use semitri_geo::Timestamp;
use std::collections::HashMap;

/// Stop counts per landuse category per hour of day.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LanduseHourCounts {
    /// `counts[LanduseCategory::ordinal()][hour 0..24]`.
    pub counts: [[u64; 24]; 17],
}

impl LanduseHourCounts {
    /// Count for one `(category, hour)` cell.
    pub fn get(&self, cat: LanduseCategory, hour: usize) -> u64 {
        self.counts[cat.ordinal()][hour.min(23)]
    }

    /// Total stops counted.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }
}

/// Record-weighted transport-mode share per road class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModeShareByClass {
    /// `records[RoadClass::ordinal()][TransportMode ordinal]` — GPS
    /// records attributed to that (class, mode) pair; tuples with an
    /// unknown record count weigh 1.
    pub records: [[u64; 5]; 4],
}

impl ModeShareByClass {
    /// Records for one `(class, mode)` pair.
    pub fn get(&self, class: RoadClass, mode: TransportMode) -> u64 {
        let m = TransportMode::ALL
            .iter()
            .position(|&x| x == mode)
            .expect("mode in ALL");
        self.records[class.ordinal()][m]
    }

    /// Total records counted.
    pub fn total(&self) -> u64 {
        self.records.iter().flatten().sum()
    }
}

/// One POI in the visit ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoiVisit {
    /// The POI's place id.
    pub place_id: u64,
    /// The POI's label.
    pub label: String,
    /// Stop tuples that visited it.
    pub visits: u64,
}

/// Hour-of-day bucket (0..=23) of a timestamp, clamped against the
/// floating-point edge case where `rem_euclid` of a tiny negative value
/// rounds up to a full day.
#[inline]
pub(crate) fn hour_of(ts: Timestamp) -> usize {
    ((ts.time_of_day() / 3_600.0) as usize).min(23)
}

/// Ranks `(id, label) → visits` maps into a sorted top-`n` list
/// (descending visits, ascending id on ties; a stable sort, so equal keys
/// keep their input order). Labels are cloned for the kept `n` only.
pub(crate) fn rank_poi_visits(
    map: impl IntoIterator<Item = ((u64, u32), u64)>,
    labels: &[String],
    n: usize,
) -> Vec<PoiVisit> {
    let mut ranked: Vec<((u64, u32), u64)> = map.into_iter().collect();
    ranked.sort_by(|(a, va), (b, vb)| vb.cmp(va).then(a.0.cmp(&b.0)));
    ranked.truncate(n);
    ranked
        .into_iter()
        .map(|((place_id, label_id), visits)| PoiVisit {
            place_id,
            label: labels[label_id as usize].clone(),
            visits,
        })
        .collect()
}

/// The retained row path: full [`StructuredSemanticTrajectory`] rows plus
/// their per-tuple layer rows, scanned tuple by tuple with annotation
/// lists walked per tuple — the layout and access pattern the store had
/// before the columnar engine.
#[derive(Debug, Default)]
pub struct RowStore {
    rows: Vec<RowSst>,
    by_traj: HashMap<u64, usize>,
}

/// One row-form trajectory: the SST and its aligned layer rows.
#[derive(Debug, Clone)]
pub struct RowSst {
    /// The full semantic trajectory row.
    pub sst: StructuredSemanticTrajectory,
    /// Per-tuple layer rows (same length as `sst.tuples`).
    pub layers: Vec<TupleLayers>,
}

impl RowStore {
    /// Creates an empty row store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a trajectory's rows.
    pub fn insert(&mut self, sst: StructuredSemanticTrajectory, layers: Vec<TupleLayers>) {
        assert_eq!(sst.tuples.len(), layers.len(), "layer rows must align");
        let id = sst.trajectory_id;
        let row = RowSst { sst, layers };
        match self.by_traj.get(&id) {
            Some(&i) => self.rows[i] = row,
            None => {
                self.by_traj.insert(id, self.rows.len());
                self.rows.push(row);
            }
        }
    }

    /// Stored trajectory count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row-walk: stop tuples per landuse category per hour of day.
    pub fn stops_per_landuse_hour(&self) -> LanduseHourCounts {
        let mut out = LanduseHourCounts::default();
        for row in &self.rows {
            for (t, l) in row.sst.tuples.iter().zip(&row.layers) {
                if l.kind == EpisodeKind::Stop {
                    if let Some(cat) = l.landuse {
                        out.counts[cat.ordinal()][hour_of(t.span.start)] += 1;
                    }
                }
            }
        }
        out
    }

    /// Row-walk: record-weighted mode share per road class.
    pub fn mode_share_by_road_class(&self) -> ModeShareByClass {
        let mut out = ModeShareByClass::default();
        for row in &self.rows {
            for (t, l) in row.sst.tuples.iter().zip(&row.layers) {
                let Some(class) = l.road_class else { continue };
                // first mode annotation of the tuple, like the matrix's
                // primary mode label
                let mode = t.annotations.iter().find_map(|a| match a.value {
                    AnnotationValue::Mode(m) => Some(m),
                    _ => None,
                });
                let Some(mode) = mode else { continue };
                let m = TransportMode::ALL
                    .iter()
                    .position(|&x| x == mode)
                    .expect("mode in ALL");
                out.records[class.ordinal()][m] += u64::from(l.records).max(1);
            }
        }
        out
    }

    /// Row-walk: top-`n` POIs by stop-tuple visits.
    pub fn top_poi_visits(&self, n: usize) -> Vec<PoiVisit> {
        let mut visits: HashMap<(u64, String), u64> = HashMap::new();
        for row in &self.rows {
            for (t, l) in row.sst.tuples.iter().zip(&row.layers) {
                if l.kind != EpisodeKind::Stop {
                    continue;
                }
                if let Some(p) = &t.place {
                    if p.kind == PlaceKind::Point {
                        *visits.entry((p.id, p.label.clone())).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut out: Vec<PoiVisit> = visits
            .into_iter()
            .map(|((place_id, label), visits)| PoiVisit {
                place_id,
                label,
                visits,
            })
            .collect();
        out.sort_by(|a, b| b.visits.cmp(&a.visits).then(a.place_id.cmp(&b.place_id)));
        out.truncate(n);
        out
    }

    /// Row-walk: trajectory ids containing a mode annotation, sorted —
    /// the store's original `ssts_with_mode` scan.
    pub fn ssts_with_mode(&self, mode: TransportMode) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .rows
            .iter()
            .filter(|r| {
                r.sst.tuples.iter().any(|t| {
                    t.annotations
                        .iter()
                        .any(|a| matches!(a.value, AnnotationValue::Mode(m) if m == mode))
                })
            })
            .map(|r| r.sst.trajectory_id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Row-walk: per-mode / per-activity annotation counts — the store's
    /// original `annotation_statistics` scan.
    pub fn annotation_statistics(&self) -> crate::AnnotationStats {
        let mut stats = crate::AnnotationStats::default();
        for row in &self.rows {
            for t in &row.sst.tuples {
                for a in &t.annotations {
                    match a.value {
                        AnnotationValue::Mode(m) => {
                            let m = TransportMode::ALL
                                .iter()
                                .position(|&x| x == m)
                                .expect("mode in ALL");
                            stats.mode_tuples[m] += 1;
                        }
                        AnnotationValue::Activity(c) => {
                            stats.activity_tuples[c.ordinal()] += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
        stats
    }
}
