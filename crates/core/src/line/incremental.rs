//! Incremental topological map matcher (White, Bernstein & Kornhauser —
//! the paper's "topological methods" category, §2).
//!
//! Matches points one by one, preferring candidates *topologically
//! connected* to the previous match (the same segment or one sharing a
//! node with it). Cheaper than the global algorithm and stronger than
//! pure geometry, but greedy: one wrong turn can lock it onto the wrong
//! street until the candidate set forces a reset. Included as the second
//! ablation baseline.

use super::matcher::MatchedPoint;
use semitri_data::road::SegmentId;
use semitri_data::{GpsRecord, RoadNetwork};
use semitri_index::FrozenRStarTree;

/// Parameters of the incremental matcher.
#[derive(Debug, Clone, Copy)]
pub struct IncrementalParams {
    /// Candidate-selection radius in meters.
    pub candidate_radius_m: f64,
    /// Multiplicative bonus applied to the score of candidates connected
    /// to the previous match (> 1).
    pub connectivity_bonus: f64,
}

impl Default for IncrementalParams {
    fn default() -> Self {
        Self {
            candidate_radius_m: 60.0,
            connectivity_bonus: 2.0,
        }
    }
}

/// The incremental topological matcher.
pub struct IncrementalMatcher<'n> {
    net: &'n RoadNetwork,
    index: FrozenRStarTree<SegmentId>,
    params: IncrementalParams,
}

impl<'n> IncrementalMatcher<'n> {
    /// Builds the matcher over a road network.
    pub fn new(net: &'n RoadNetwork, params: IncrementalParams) -> Self {
        assert!(params.candidate_radius_m > 0.0, "radius must be positive");
        assert!(params.connectivity_bonus >= 1.0, "bonus must be >= 1");
        let items = net
            .segments()
            .iter()
            .map(|s| (s.geometry.bbox(), s.id))
            .collect();
        Self {
            net,
            index: FrozenRStarTree::bulk_load(items),
            params,
        }
    }

    fn connected(&self, a: SegmentId, b: SegmentId) -> bool {
        if a == b {
            return true;
        }
        let sa = self.net.segment(a);
        let sb = self.net.segment(b);
        sa.from == sb.from || sa.from == sb.to || sa.to == sb.from || sa.to == sb.to
    }

    /// Matches each record, carrying topological context forward.
    pub fn match_records(&self, records: &[GpsRecord]) -> Vec<Option<MatchedPoint>> {
        let mut out: Vec<Option<MatchedPoint>> = Vec::with_capacity(records.len());
        let mut prev: Option<SegmentId> = None;
        for r in records {
            let mut best: Option<(SegmentId, f64)> = None;
            // streaming radius query: the bbox-distance prefilter is a lower
            // bound on the exact Eq. 1 distance, so the gate below sees a
            // (possibly smaller) superset of the surviving candidates and
            // the result is unchanged
            let radius = self.params.candidate_radius_m;
            self.index
                .for_each_within_radius(r.point, radius, |_, &seg| {
                    let d = self.net.segment(seg).geometry.distance_to_point(r.point);
                    if d > radius {
                        return;
                    }
                    // proximity score with a topological bonus
                    let mut score = 1.0 / (1.0 + d);
                    if let Some(p) = prev {
                        if self.connected(p, seg) {
                            score *= self.params.connectivity_bonus;
                        }
                    }
                    if best.is_none_or(|(_, bs)| score > bs) {
                        best = Some((seg, score));
                    }
                });
            match best {
                Some((seg, score)) => {
                    prev = Some(seg);
                    out.push(Some(MatchedPoint {
                        segment: seg,
                        snapped: self.net.segment(seg).geometry.closest_point(r.point),
                        score,
                    }));
                }
                None => {
                    prev = None; // lost the thread: reset the context
                    out.push(None);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semitri_data::road::RoadClass;
    use semitri_geo::{Point, Timestamp};

    /// Two parallel streets 40 m apart, connected by a crossing at x=0.
    fn net() -> RoadNetwork {
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(500.0, 0.0),
            Point::new(0.0, 40.0),
            Point::new(500.0, 40.0),
        ];
        let edges = vec![
            (0, 1, RoadClass::Street, false, "south".to_string()),
            (2, 3, RoadClass::Street, false, "north".to_string()),
            (0, 2, RoadClass::Street, false, "link".to_string()),
        ];
        RoadNetwork::new(nodes, edges)
    }

    #[test]
    fn connectivity_keeps_track_through_ambiguity() {
        let net = net();
        let m = IncrementalMatcher::new(&net, IncrementalParams::default());
        // track along "south", drifting to y=18 midway (closer to middle
        // than the start but still nearer south... make it ambiguous: 22
        // is nearer north (18 away) than south (22 away))
        let recs: Vec<GpsRecord> = (0..20)
            .map(|i| {
                let y = if (8..12).contains(&i) { 22.0 } else { 2.0 };
                GpsRecord::new(Point::new(30.0 + i as f64 * 20.0, y), Timestamp(i as f64))
            })
            .collect();
        let matches = m.match_records(&recs);
        // with the 2x connectivity bonus, the drifting fixes stay on south
        for (i, mm) in matches.iter().enumerate() {
            let mm = mm.expect("matched");
            assert_eq!(net.segment(mm.segment).name, "south", "point {i}");
        }
    }

    #[test]
    fn without_context_first_point_is_nearest() {
        let net = net();
        let m = IncrementalMatcher::new(&net, IncrementalParams::default());
        let recs = vec![GpsRecord::new(Point::new(250.0, 35.0), Timestamp(0.0))];
        let mm = m.match_records(&recs)[0].expect("matched");
        assert_eq!(net.segment(mm.segment).name, "north");
    }

    #[test]
    fn reset_after_gap_out_of_coverage() {
        let net = net();
        let m = IncrementalMatcher::new(&net, IncrementalParams::default());
        let recs = vec![
            GpsRecord::new(Point::new(100.0, 2.0), Timestamp(0.0)),
            GpsRecord::new(Point::new(5_000.0, 5_000.0), Timestamp(1.0)), // off-map
            GpsRecord::new(Point::new(100.0, 38.0), Timestamp(2.0)),
        ];
        let matches = m.match_records(&recs);
        assert!(matches[0].is_some());
        assert!(matches[1].is_none());
        // context was reset: third point matches nearest (north), not the
        // previously-connected south
        assert_eq!(net.segment(matches[2].unwrap().segment).name, "north");
    }

    #[test]
    fn empty_input() {
        let net = net();
        let m = IncrementalMatcher::new(&net, IncrementalParams::default());
        assert!(m.match_records(&[]).is_empty());
    }
}
