//! The compressed semantic matrix: episode annotation layers as
//! bitpacked per-layer label streams (after "Semantrix: A Compressed
//! Semantic Matrix", see PAPERS.md).
//!
//! Each annotation layer has a fixed dictionary — transport mode, road
//! class, landuse category, POI activity, episode kind, place kind —
//! and stores one label per semantic tuple at `⌈log₂(|dict|+1)⌉` bits
//! (code 0 = "no label") in a contiguous [`PackedVec`] stream. Three
//! plain columns ride along, aligned with the streams: the hour of day of
//! each tuple's start (one byte, bucketed once at insert), its record
//! count, and a dense code into a store-wide `(place id, label)`
//! dictionary, so the aggregates neither redo the hour arithmetic nor hash
//! per tuple.
//!
//! Trajectories append as contiguous *segments* of the streams. An SST
//! overwrite appends a fresh segment and tombstones the old one (the
//! durable log is append-only for the same reason); scans skip dead
//! segments. Tuples whose annotation list carries more labels of one
//! layer than the stream can hold (e.g. two transport modes on one
//! tuple) keep the extras in a per-segment overflow list so annotation
//! queries stay *exactly* equal to a row walk, even on degenerate
//! inputs.

use crate::column::{BuildFixedHasher, PackedVec};
use crate::olap::{hour_of, rank_poi_visits, LanduseHourCounts, ModeShareByClass, PoiVisit};
use crate::AnnotationStats;
use semitri_core::model::{
    AnnotationValue, PlaceKind, SemanticTuple, StructuredSemanticTrajectory,
};
use semitri_data::{LanduseCategory, RoadClass, TransportMode};
use semitri_episodes::EpisodeKind;
use std::collections::HashMap;

/// Bits per mode label (dictionary: none + 5 modes).
pub const MODE_BITS: u32 = 3;
/// Bits per road-class label (none + 4 classes).
pub const CLASS_BITS: u32 = 3;
/// Bits per landuse label (none + 17 categories).
pub const LANDUSE_BITS: u32 = 5;
/// Bits per activity label (none + 5 categories).
pub const ACTIVITY_BITS: u32 = 3;
/// Bits per episode-kind label (stop/move).
pub const KIND_BITS: u32 = 1;
/// Bits per place-kind label (none/region/line/point).
pub const PLACE_KIND_BITS: u32 = 2;

/// Label bits per tuple across all layers.
pub const LABEL_BITS_PER_TUPLE: u32 =
    MODE_BITS + CLASS_BITS + LANDUSE_BITS + ACTIVITY_BITS + KIND_BITS + PLACE_KIND_BITS;

/// Number of annotation layers the matrix stacks.
pub const LAYER_COUNT: usize = 6;

/// Place code of a tuple without a place.
const PLACE_NONE: u32 = u32::MAX;

/// Per-tuple layer row: the labels that come from outside the SST
/// itself (episode kind, matched road class, dominant landuse) plus the
/// tuple's GPS record count for record-weighted aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TupleLayers {
    /// Stop or move (the episode the tuple annotates).
    pub kind: EpisodeKind,
    /// Road class of the matched segment (move tuples).
    pub road_class: Option<RoadClass>,
    /// Dominant landuse category under the tuple.
    pub landuse: Option<LanduseCategory>,
    /// GPS records covered by the tuple (0 = unknown).
    pub records: u32,
}

impl TupleLayers {
    /// Derives layer labels from the tuple alone — used when an SST is
    /// stored without pipeline context (`put_sst`, v1-log replay). The
    /// row-walk oracle uses the same derivation, so compressed and row
    /// aggregates agree by construction.
    pub fn derive_default(tuple: &SemanticTuple) -> Self {
        let has_mode = tuple
            .annotations
            .iter()
            .any(|a| matches!(a.value, AnnotationValue::Mode(_)));
        let place_kind = tuple.place.as_ref().map(|p| p.kind);
        let kind = if has_mode || place_kind == Some(PlaceKind::Line) {
            EpisodeKind::Move
        } else {
            EpisodeKind::Stop
        };
        let landuse = match &tuple.place {
            Some(p) if p.kind == PlaceKind::Region => LanduseCategory::ALL
                .iter()
                .copied()
                .find(|c| c.label() == p.label),
            _ => None,
        };
        Self {
            kind,
            road_class: None,
            landuse,
            records: 0,
        }
    }
}

fn mode_code(m: TransportMode) -> u64 {
    TransportMode::ALL
        .iter()
        .position(|&x| x == m)
        .expect("mode in ALL") as u64
        + 1
}

/// One stored trajectory: a contiguous range of the label streams.
#[derive(Debug)]
struct Segment {
    trajectory_id: u64,
    offset: usize,
    len: usize,
    alive: bool,
    /// Extra (layer, code) labels beyond the one slot per layer:
    /// `(tuple index within segment, layer tag, dictionary code)`.
    overflow: Vec<(u32, u8, u8)>,
    /// Codec-encoded SST body for exact reconstruction.
    blob: Vec<u8>,
}

const OVERFLOW_MODE: u8 = 0;
const OVERFLOW_ACTIVITY: u8 = 1;

/// The compressed semantic matrix.
#[derive(Debug)]
pub struct SemanticMatrix {
    kind: PackedVec,
    mode: PackedVec,
    class: PackedVec,
    landuse: PackedVec,
    activity: PackedVec,
    place_kind: PackedVec,
    /// Hour of day of each tuple's start, as [`hour_of`] buckets it.
    hour: Vec<u8>,
    records: Vec<u32>,
    /// Per-tuple code into `places` ([`PLACE_NONE`] without a place).
    place: Vec<u32>,
    /// The `(place_id, label code)` dictionary, in first-seen order.
    places: Vec<(u64, u32)>,
    place_codes: HashMap<(u64, u32), u32, BuildFixedHasher>,
    labels: Vec<String>,
    label_ids: HashMap<String, u32>,
    segments: Vec<Segment>,
    by_traj: HashMap<u64, usize>,
    live_tuples: usize,
    dead_tuples: usize,
}

impl Default for SemanticMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl SemanticMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self {
            kind: PackedVec::new(KIND_BITS),
            mode: PackedVec::new(MODE_BITS),
            class: PackedVec::new(CLASS_BITS),
            landuse: PackedVec::new(LANDUSE_BITS),
            activity: PackedVec::new(ACTIVITY_BITS),
            place_kind: PackedVec::new(PLACE_KIND_BITS),
            hour: Vec::new(),
            records: Vec::new(),
            place: Vec::new(),
            places: Vec::new(),
            place_codes: HashMap::default(),
            labels: Vec::new(),
            label_ids: HashMap::new(),
            segments: Vec::new(),
            by_traj: HashMap::new(),
            live_tuples: 0,
            dead_tuples: 0,
        }
    }

    fn label_id(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = self.labels.len() as u32;
        self.labels.push(label.to_string());
        self.label_ids.insert(label.to_string(), id);
        id
    }

    fn place_code(&mut self, place_id: u64, label: &str) -> u32 {
        let key = (place_id, self.label_id(label));
        if let Some(&code) = self.place_codes.get(&key) {
            return code;
        }
        let code = self.places.len() as u32;
        self.places.push(key);
        self.place_codes.insert(key, code);
        code
    }

    /// Inserts (or replaces) a trajectory's tuples, taking the aligned
    /// layer rows and the codec-encoded SST body for reconstruction.
    ///
    /// # Panics
    /// Panics when `layers` is not aligned with `sst.tuples`.
    pub fn insert(
        &mut self,
        sst: &StructuredSemanticTrajectory,
        layers: &[TupleLayers],
        blob: Vec<u8>,
    ) {
        assert_eq!(sst.tuples.len(), layers.len(), "layer rows must align");
        if let Some(&old) = self.by_traj.get(&sst.trajectory_id) {
            let seg = &mut self.segments[old];
            seg.alive = false;
            seg.blob = Vec::new();
            self.live_tuples -= seg.len;
            self.dead_tuples += seg.len;
        }
        let offset = self.kind.len();
        let mut overflow = Vec::new();
        for (i, (t, l)) in sst.tuples.iter().zip(layers).enumerate() {
            self.kind.push(match l.kind {
                EpisodeKind::Stop => 0,
                EpisodeKind::Move => 1,
            });
            // primary label per layer; extras overflow
            let mut mode = 0u64;
            let mut activity = 0u64;
            for a in &t.annotations {
                match a.value {
                    AnnotationValue::Mode(m) => {
                        let code = mode_code(m);
                        if mode == 0 {
                            mode = code;
                        } else {
                            overflow.push((i as u32, OVERFLOW_MODE, code as u8));
                        }
                    }
                    AnnotationValue::Activity(c) => {
                        let code = c.ordinal() as u64 + 1;
                        if activity == 0 {
                            activity = code;
                        } else {
                            overflow.push((i as u32, OVERFLOW_ACTIVITY, code as u8));
                        }
                    }
                    _ => {}
                }
            }
            self.mode.push(mode);
            self.activity.push(activity);
            self.class
                .push(l.road_class.map_or(0, |c| c.ordinal() as u64 + 1));
            self.landuse
                .push(l.landuse.map_or(0, |c| c.ordinal() as u64 + 1));
            self.hour.push(hour_of(t.span.start) as u8);
            self.records.push(l.records);
            match &t.place {
                None => {
                    self.place_kind.push(0);
                    self.place.push(PLACE_NONE);
                }
                Some(p) => {
                    self.place_kind.push(match p.kind {
                        PlaceKind::Region => 1,
                        PlaceKind::Line => 2,
                        PlaceKind::Point => 3,
                    });
                    let code = self.place_code(p.id, &p.label);
                    self.place.push(code);
                }
            }
        }
        let idx = self.segments.len();
        self.segments.push(Segment {
            trajectory_id: sst.trajectory_id,
            offset,
            len: sst.tuples.len(),
            alive: true,
            overflow,
            blob,
        });
        self.by_traj.insert(sst.trajectory_id, idx);
        self.live_tuples += sst.tuples.len();
    }

    /// Patches the externally-derived layers of an already-inserted
    /// trajectory (durable replay: a `REC_LAYERS` record following the
    /// trajectory's SST record). Returns `false` when the trajectory is
    /// unknown or the row count does not match.
    pub fn patch_layers(&mut self, trajectory_id: u64, layers: &[TupleLayers]) -> bool {
        let Some(&idx) = self.by_traj.get(&trajectory_id) else {
            return false;
        };
        let seg = &self.segments[idx];
        if !seg.alive || seg.len != layers.len() {
            return false;
        }
        let offset = seg.offset;
        for (i, l) in layers.iter().enumerate() {
            self.kind.set(
                offset + i,
                match l.kind {
                    EpisodeKind::Stop => 0,
                    EpisodeKind::Move => 1,
                },
            );
            self.class.set(
                offset + i,
                l.road_class.map_or(0, |c| c.ordinal() as u64 + 1),
            );
            self.landuse
                .set(offset + i, l.landuse.map_or(0, |c| c.ordinal() as u64 + 1));
            self.records[offset + i] = l.records;
        }
        true
    }

    /// The stored codec body for a trajectory's SST, when present.
    pub fn blob_of(&self, trajectory_id: u64) -> Option<&[u8]> {
        let &idx = self.by_traj.get(&trajectory_id)?;
        let seg = &self.segments[idx];
        seg.alive.then_some(seg.blob.as_slice())
    }

    /// The layer rows of a stored trajectory (for log compaction).
    pub fn layers_of(&self, trajectory_id: u64) -> Option<Vec<TupleLayers>> {
        let &idx = self.by_traj.get(&trajectory_id)?;
        let seg = &self.segments[idx];
        if !seg.alive {
            return None;
        }
        let mut out = Vec::with_capacity(seg.len);
        for i in seg.offset..seg.offset + seg.len {
            out.push(TupleLayers {
                kind: if self.kind.get(i) == 0 {
                    EpisodeKind::Stop
                } else {
                    EpisodeKind::Move
                },
                road_class: match self.class.get(i) {
                    0 => None,
                    c => Some(RoadClass::ALL[(c - 1) as usize]),
                },
                landuse: match self.landuse.get(i) {
                    0 => None,
                    c => Some(LanduseCategory::ALL[(c - 1) as usize]),
                },
                records: self.records[i],
            });
        }
        Some(out)
    }

    /// Stored (alive) trajectory count.
    pub fn sst_count(&self) -> usize {
        self.by_traj.len()
    }

    /// Alive trajectory ids, unsorted.
    pub fn trajectory_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_traj.keys().copied()
    }

    /// Alive tuple count.
    pub fn live_tuples(&self) -> usize {
        self.live_tuples
    }

    /// Tombstoned tuple count (reclaimed by log compaction + reload).
    pub fn dead_tuples(&self) -> usize {
        self.dead_tuples
    }

    /// Total bits held by the six label streams (including dead
    /// segments, which is what the streams physically occupy).
    pub fn label_bits(&self) -> u64 {
        self.kind.bits()
            + self.mode.bits()
            + self.class.bits()
            + self.landuse.bits()
            + self.activity.bits()
            + self.place_kind.bits()
    }

    /// Trajectory ids with at least one tuple carrying `mode`, sorted.
    pub fn ssts_with_mode(&self, mode: TransportMode) -> Vec<u64> {
        let code = mode_code(mode);
        let mut ids = Vec::new();
        for seg in self.segments.iter().filter(|s| s.alive) {
            let mut hit = self.mode.iter_range(seg.offset, seg.len).any(|m| m == code);
            if !hit {
                hit = seg
                    .overflow
                    .iter()
                    .any(|&(_, layer, c)| layer == OVERFLOW_MODE && u64::from(c) == code);
            }
            if hit {
                ids.push(seg.trajectory_id);
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Trajectory ids with at least one tuple carrying the activity,
    /// sorted.
    pub fn ssts_with_activity(&self, cat: semitri_data::PoiCategory) -> Vec<u64> {
        let code = cat.ordinal() as u64 + 1;
        let mut ids = Vec::new();
        for seg in self.segments.iter().filter(|s| s.alive) {
            let mut hit = self
                .activity
                .iter_range(seg.offset, seg.len)
                .any(|a| a == code);
            if !hit {
                hit = seg
                    .overflow
                    .iter()
                    .any(|&(_, layer, c)| layer == OVERFLOW_ACTIVITY && u64::from(c) == code);
            }
            if hit {
                ids.push(seg.trajectory_id);
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Per-mode / per-activity annotation counts over the streams plus
    /// overflow — exactly the row walk's numbers.
    pub fn annotation_statistics(&self) -> AnnotationStats {
        let mut stats = AnnotationStats::default();
        for (offset, len) in self.live_runs() {
            let modes = self.mode.iter_range(offset, len);
            let activities = self.activity.iter_range(offset, len);
            for (m, a) in modes.zip(activities) {
                if m != 0 {
                    stats.mode_tuples[(m - 1) as usize] += 1;
                }
                if a != 0 {
                    stats.activity_tuples[(a - 1) as usize] += 1;
                }
            }
        }
        for seg in self.segments.iter().filter(|s| s.alive) {
            for &(_, layer, code) in &seg.overflow {
                match layer {
                    OVERFLOW_MODE => stats.mode_tuples[(code - 1) as usize] += 1,
                    _ => stats.activity_tuples[(code - 1) as usize] += 1,
                }
            }
        }
        stats
    }

    /// Live segments coalesced into maximal contiguous `(offset, len)`
    /// runs. Segments are a handful of tuples each, so scanning them one
    /// by one pays iterator setup per segment; aggregate scans that do
    /// not need per-trajectory attribution stream whole runs instead.
    fn live_runs(&self) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for seg in self.segments.iter().filter(|s| s.alive) {
            match runs.last_mut() {
                Some((off, len)) if *off + *len == seg.offset => *len += seg.len,
                _ => runs.push((seg.offset, seg.len)),
            }
        }
        runs
    }

    /// Compressed scan: stop tuples per landuse category per hour.
    pub fn stops_per_landuse_hour(&self) -> LanduseHourCounts {
        let mut out = LanduseHourCounts::default();
        for (offset, len) in self.live_runs() {
            let kinds = self.kind.iter_range(offset, len);
            let landuses = self.landuse.iter_range(offset, len);
            for (i, (kind, lu)) in kinds.zip(landuses).enumerate() {
                if kind != 0 || lu == 0 {
                    continue;
                }
                out.counts[(lu - 1) as usize][usize::from(self.hour[offset + i])] += 1;
            }
        }
        out
    }

    /// Compressed scan: record-weighted mode share per road class.
    pub fn mode_share_by_road_class(&self) -> ModeShareByClass {
        let mut out = ModeShareByClass::default();
        for (offset, len) in self.live_runs() {
            let classes = self.class.iter_range(offset, len);
            let modes = self.mode.iter_range(offset, len);
            for (i, (c, m)) in classes.zip(modes).enumerate() {
                if c == 0 || m == 0 {
                    continue;
                }
                let recs = self.records[offset + i];
                out.records[(c - 1) as usize][(m - 1) as usize] += u64::from(recs).max(1);
            }
        }
        out
    }

    /// Compressed scan: top-`n` POIs by stop-tuple visits.
    pub fn top_poi_visits(&self, n: usize) -> Vec<PoiVisit> {
        let mut visits = vec![0u64; self.places.len()];
        for (offset, len) in self.live_runs() {
            let kinds = self.kind.iter_range(offset, len);
            let place_kinds = self.place_kind.iter_range(offset, len);
            for (i, (kind, pk)) in kinds.zip(place_kinds).enumerate() {
                if kind == 0 && pk == 3 {
                    visits[self.place[offset + i] as usize] += 1;
                }
            }
        }
        let visited = (self.places.iter().zip(visits)).filter(|&(_, v)| v > 0);
        rank_poi_visits(visited.map(|(&key, v)| (key, v)), &self.labels, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semitri_core::model::{Annotation, PlaceRef};
    use semitri_geo::{TimeSpan, Timestamp};

    fn tuple(place: Option<PlaceRef>, t0: f64, anns: Vec<Annotation>) -> SemanticTuple {
        SemanticTuple {
            place,
            span: TimeSpan::new(Timestamp(t0), Timestamp(t0 + 10.0)),
            annotations: anns,
        }
    }

    fn sst(id: u64, tuples: Vec<SemanticTuple>) -> StructuredSemanticTrajectory {
        StructuredSemanticTrajectory {
            object_id: 1,
            trajectory_id: id,
            tuples,
        }
    }

    #[test]
    fn insert_and_scan() {
        let mut m = SemanticMatrix::new();
        let s = sst(
            1,
            vec![
                tuple(
                    Some(PlaceRef::new(PlaceKind::Point, 42, "cafe")),
                    0.0,
                    vec![Annotation::activity(semitri_data::PoiCategory::Feedings)],
                ),
                tuple(
                    Some(PlaceRef::new(PlaceKind::Line, 7, "Rue R1")),
                    10.0,
                    vec![Annotation::mode(TransportMode::Bus)],
                ),
            ],
        );
        let layers = vec![
            TupleLayers {
                kind: EpisodeKind::Stop,
                road_class: None,
                landuse: Some(LanduseCategory::ALL[0]),
                records: 30,
            },
            TupleLayers {
                kind: EpisodeKind::Move,
                road_class: Some(RoadClass::Street),
                landuse: None,
                records: 60,
            },
        ];
        m.insert(&s, &layers, vec![1, 2, 3]);
        assert_eq!(m.sst_count(), 1);
        assert_eq!(m.live_tuples(), 2);
        assert_eq!(m.ssts_with_mode(TransportMode::Bus), vec![1]);
        assert!(m.ssts_with_mode(TransportMode::Car).is_empty());
        let share = m.mode_share_by_road_class();
        assert_eq!(share.get(RoadClass::Street, TransportMode::Bus), 60);
        let stops = m.stops_per_landuse_hour();
        assert_eq!(stops.get(LanduseCategory::ALL[0], 0), 1);
        let pois = m.top_poi_visits(10);
        assert_eq!(pois.len(), 1);
        assert_eq!(pois[0].label, "cafe");
        assert_eq!(m.blob_of(1).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn overwrite_tombstones_old_segment() {
        let mut m = SemanticMatrix::new();
        let s1 = sst(
            5,
            vec![tuple(None, 0.0, vec![Annotation::mode(TransportMode::Car)])],
        );
        let layers1 = vec![TupleLayers::derive_default(&s1.tuples[0])];
        m.insert(&s1, &layers1, vec![1]);
        let s2 = sst(
            5,
            vec![tuple(
                None,
                0.0,
                vec![Annotation::mode(TransportMode::Walk)],
            )],
        );
        let layers2 = vec![TupleLayers::derive_default(&s2.tuples[0])];
        m.insert(&s2, &layers2, vec![2]);
        assert_eq!(m.sst_count(), 1);
        assert_eq!(m.live_tuples(), 1);
        assert_eq!(m.dead_tuples(), 1);
        assert!(m.ssts_with_mode(TransportMode::Car).is_empty());
        assert_eq!(m.ssts_with_mode(TransportMode::Walk), vec![5]);
        assert_eq!(m.blob_of(5).unwrap(), &[2]);
        let stats = m.annotation_statistics();
        assert_eq!(stats.mode(TransportMode::Car), 0);
        assert_eq!(stats.mode(TransportMode::Walk), 1);
    }

    #[test]
    fn duplicate_layer_labels_overflow_exactly() {
        // two modes + two activities on one tuple: stream holds one,
        // overflow keeps the rest, stats count all four
        let mut m = SemanticMatrix::new();
        let s = sst(
            9,
            vec![tuple(
                None,
                0.0,
                vec![
                    Annotation::mode(TransportMode::Walk),
                    Annotation::mode(TransportMode::Metro),
                    Annotation::activity(semitri_data::PoiCategory::ItemSale),
                    Annotation::activity(semitri_data::PoiCategory::ItemSale),
                ],
            )],
        );
        let layers = vec![TupleLayers::derive_default(&s.tuples[0])];
        m.insert(&s, &layers, Vec::new());
        let stats = m.annotation_statistics();
        assert_eq!(stats.mode(TransportMode::Walk), 1);
        assert_eq!(stats.mode(TransportMode::Metro), 1);
        assert_eq!(stats.activity(semitri_data::PoiCategory::ItemSale), 2);
        assert_eq!(m.ssts_with_mode(TransportMode::Metro), vec![9]);
        assert_eq!(
            m.ssts_with_activity(semitri_data::PoiCategory::ItemSale),
            vec![9]
        );
    }

    #[test]
    fn patch_layers_upgrades_labels() {
        let mut m = SemanticMatrix::new();
        let s = sst(3, vec![tuple(None, 3_600.0, vec![])]);
        m.insert(&s, &[TupleLayers::derive_default(&s.tuples[0])], Vec::new());
        assert_eq!(m.stops_per_landuse_hour().total(), 0);
        let patched = m.patch_layers(
            3,
            &[TupleLayers {
                kind: EpisodeKind::Stop,
                road_class: None,
                landuse: Some(LanduseCategory::ALL[2]),
                records: 12,
            }],
        );
        assert!(patched);
        let counts = m.stops_per_landuse_hour();
        assert_eq!(counts.get(LanduseCategory::ALL[2], 1), 1);
        assert!(!m.patch_layers(3, &[]), "length mismatch rejected");
        assert!(!m.patch_layers(99, &[]), "unknown trajectory rejected");
    }

    #[test]
    fn label_bits_are_small() {
        let mut m = SemanticMatrix::new();
        for id in 0..50u64 {
            let s = sst(
                id,
                (0..20)
                    .map(|i| tuple(None, i as f64, vec![Annotation::mode(TransportMode::Car)]))
                    .collect(),
            );
            let layers: Vec<TupleLayers> =
                s.tuples.iter().map(TupleLayers::derive_default).collect();
            m.insert(&s, &layers, Vec::new());
        }
        // 17 bits per tuple across six layers
        assert_eq!(m.label_bits(), 1_000 * u64::from(LABEL_BITS_PER_TUPLE));
        assert!(m.label_bits() / 8 < 1_000 * 3, "≈2.1 B/tuple of labels");
    }
}
