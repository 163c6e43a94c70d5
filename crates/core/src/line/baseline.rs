//! Baseline map matchers for the ablation benchmarks.
//!
//! The paper contrasts its global algorithm with classical geometric
//! matching (point-to-curve with perpendicular distance, Bernstein &
//! Kornhauser) and with purely local nearest-segment assignment. Both are
//! implemented here over the same R\*-tree candidate selection so the
//! benchmarks isolate the scoring strategy, not the index.

use super::matcher::MatchedPoint;
use semitri_data::road::SegmentId;
use semitri_data::{GpsRecord, RoadNetwork};
use semitri_geo::Point;
use semitri_index::FrozenRStarTree;

/// Distance metric used by [`NearestSegmentMatcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMetric {
    /// The paper's Eq. 1 point–segment distance (projection clamped to the
    /// segment, falling back to endpoint distance).
    PointSegment,
    /// Pure perpendicular point-to-line distance — the classical geometric
    /// metric the paper argues breaks on dense/parallel networks.
    Perpendicular,
}

/// Local (context-free) nearest-segment matcher: each point is matched to
/// its closest candidate under the chosen metric, independently.
pub struct NearestSegmentMatcher<'n> {
    net: &'n RoadNetwork,
    index: FrozenRStarTree<SegmentId>,
    metric: BaselineMetric,
    candidate_radius_m: f64,
}

impl<'n> NearestSegmentMatcher<'n> {
    /// Builds the baseline matcher.
    pub fn new(net: &'n RoadNetwork, metric: BaselineMetric, candidate_radius_m: f64) -> Self {
        assert!(
            candidate_radius_m > 0.0,
            "candidate radius must be positive"
        );
        let items = net
            .segments()
            .iter()
            .map(|s| (s.geometry.bbox(), s.id))
            .collect();
        Self {
            net,
            index: FrozenRStarTree::bulk_load(items),
            metric,
            candidate_radius_m,
        }
    }

    fn distance(&self, seg: SegmentId, p: Point) -> f64 {
        let g = &self.net.segment(seg).geometry;
        match self.metric {
            BaselineMetric::PointSegment => g.distance_to_point(p),
            BaselineMetric::Perpendicular => g.perpendicular_distance(p),
        }
    }

    /// Matches each record to its locally nearest segment.
    pub fn match_records(&self, records: &[GpsRecord]) -> Vec<Option<MatchedPoint>> {
        records
            .iter()
            .map(|r| {
                let mut best: Option<(SegmentId, f64)> = None;
                // streaming radius query (bbox-distance prefilter, a lower
                // bound on the Eq. 1 gate below — same surviving candidates)
                let radius = self.candidate_radius_m;
                self.index
                    .for_each_within_radius(r.point, radius, |_, &seg| {
                        // candidate gate always uses the Eq. 1 distance so both
                        // metrics see the same candidate set
                        let gate = self.net.segment(seg).geometry.distance_to_point(r.point);
                        if gate > radius {
                            return;
                        }
                        let d = self.distance(seg, r.point);
                        if best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((seg, d));
                        }
                    });
                best.map(|(seg, d)| MatchedPoint {
                    segment: seg,
                    snapped: self.net.segment(seg).geometry.closest_point(r.point),
                    score: 1.0 / (1.0 + d),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semitri_data::road::RoadClass;
    use semitri_geo::Timestamp;

    /// A T-junction: a long horizontal street and a vertical street ending
    /// on it. Points past the vertical street's end expose the
    /// perpendicular-distance failure mode.
    fn t_net() -> RoadNetwork {
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(400.0, 0.0),
            Point::new(200.0, 0.0),
            Point::new(200.0, 300.0),
        ];
        let edges = vec![
            (0, 1, RoadClass::Street, false, "horizontal".to_string()),
            (2, 3, RoadClass::Street, false, "vertical".to_string()),
        ];
        RoadNetwork::new(nodes, edges)
    }

    #[test]
    fn point_segment_metric_handles_t_junction() {
        let net = t_net();
        let m = NearestSegmentMatcher::new(&net, BaselineMetric::PointSegment, 500.0);
        // a point on the horizontal street far from the vertical one, but
        // exactly on the vertical street's infinite extension
        let recs = vec![GpsRecord::new(Point::new(205.0, -90.0), Timestamp(0.0))];
        let mm = m.match_records(&recs)[0].expect("matched");
        assert_eq!(net.segment(mm.segment).name, "horizontal");
    }

    #[test]
    fn perpendicular_metric_fails_at_t_junction() {
        let net = t_net();
        let m = NearestSegmentMatcher::new(&net, BaselineMetric::Perpendicular, 500.0);
        // same point: its perpendicular distance to the *line* through the
        // vertical street is 5 m, beating the 90 m to the horizontal one
        let recs = vec![GpsRecord::new(Point::new(205.0, -90.0), Timestamp(0.0))];
        let mm = m.match_records(&recs)[0].expect("matched");
        assert_eq!(
            net.segment(mm.segment).name,
            "vertical",
            "the classical metric picks the wrong road — the documented failure"
        );
    }

    #[test]
    fn no_candidates_returns_none() {
        let net = t_net();
        let m = NearestSegmentMatcher::new(&net, BaselineMetric::PointSegment, 50.0);
        let recs = vec![GpsRecord::new(Point::new(5_000.0, 5_000.0), Timestamp(0.0))];
        assert_eq!(m.match_records(&recs), vec![None]);
    }

    #[test]
    fn snapped_point_lies_on_matched_segment() {
        let net = t_net();
        let m = NearestSegmentMatcher::new(&net, BaselineMetric::PointSegment, 500.0);
        let recs = vec![GpsRecord::new(Point::new(100.0, 20.0), Timestamp(0.0))];
        let mm = m.match_records(&recs)[0].expect("matched");
        let seg = &net.segment(mm.segment).geometry;
        assert!(seg.distance_to_point(mm.snapped) < 1e-9);
    }
}
