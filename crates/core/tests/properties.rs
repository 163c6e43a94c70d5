//! Property-based tests of the annotation layers' invariants.

use proptest::prelude::*;
use semitri_core::line::baseline::{BaselineMetric, NearestSegmentMatcher};
use semitri_core::line::mode::motion_features;
use semitri_core::line::RouteEntry;
use semitri_core::point::hmm::Hmm;
use semitri_core::{GlobalMapMatcher, MatchParams, MatchScratch, ModeInferencer};
use semitri_data::road::RoadClass;
use semitri_data::{GpsRecord, RoadNetwork};
use semitri_geo::{Point, TimeSpan, Timestamp};

/// A small random road network: a chain plus random chords (always
/// connected, no zero-length edges).
fn network_strategy() -> impl Strategy<Value = RoadNetwork> {
    network_strategy_with(3..15)
}

/// [`network_strategy`] with a caller-chosen node-count range — the city
/// density axis of the oracle sweep.
fn network_strategy_with(nodes: std::ops::Range<usize>) -> impl Strategy<Value = RoadNetwork> {
    let max_chord = nodes.end - 1;
    (
        proptest::collection::vec((0.0..1_000.0f64, 0.0..1_000.0f64), nodes),
        proptest::collection::vec((0usize..max_chord, 0usize..max_chord), 0..8),
    )
        .prop_map(|(mut nodes_xy, chords)| {
            // spread nodes so no two coincide
            for (i, p) in nodes_xy.iter_mut().enumerate() {
                p.0 += i as f64 * 37.0;
            }
            let nodes: Vec<Point> = nodes_xy.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let n = nodes.len();
            let mut edges = Vec::new();
            for i in 0..n - 1 {
                edges.push((
                    i as u32,
                    (i + 1) as u32,
                    RoadClass::Street,
                    false,
                    format!("chain {i}"),
                ));
            }
            for (a, b) in chords {
                let (a, b) = (a % n, b % n);
                if a != b && nodes[a].distance(nodes[b]) > 1.0 {
                    edges.push((
                        a as u32,
                        b as u32,
                        RoadClass::Street,
                        false,
                        "chord".to_string(),
                    ));
                }
            }
            RoadNetwork::new(nodes, edges)
        })
}

fn records_strategy() -> impl Strategy<Value = Vec<GpsRecord>> {
    proptest::collection::vec((0.0..1_600.0f64, 0.0..1_000.0f64), 1..40).prop_map(|pts| {
        pts.into_iter()
            .enumerate()
            .map(|(i, (x, y))| GpsRecord::new(Point::new(x, y), Timestamp(i as f64 * 5.0)))
            .collect()
    })
}

/// A dense walk: short steps keep long runs of fixes inside one oracle
/// grid cell, so the optimized matcher's last-cell hint is hit on almost
/// every fix.
fn dense_track_strategy() -> impl Strategy<Value = Vec<GpsRecord>> {
    (
        (0.0..1_400.0f64, 0.0..900.0f64),
        proptest::collection::vec((-8.0..8.0f64, -8.0..8.0f64), 2..80),
    )
        .prop_map(|((x0, y0), steps)| {
            let (mut x, mut y) = (x0, y0);
            steps
                .into_iter()
                .enumerate()
                .map(|(i, (dx, dy))| {
                    x += dx;
                    y += dy;
                    GpsRecord::new(Point::new(x, y), Timestamp(i as f64 * 2.0))
                })
                .collect()
        })
}

/// The oracle shared by the matcher-identity properties: the optimized
/// scratch-arena kernel must reproduce the naive paper-literal path
/// *exactly* — same matched segment, snapped point and score within 1e-12
/// (they are bitwise-identical by construction; the epsilon only guards
/// against legitimate future reformulations).
fn assert_matches_naive(
    matcher: &GlobalMapMatcher,
    scratch: &mut MatchScratch,
    recs: &[GpsRecord],
) -> Result<(), TestCaseError> {
    let naive = matcher.match_records_naive(recs);
    let fast = matcher.match_records_with(scratch, recs);
    prop_assert_eq!(naive.len(), fast.len());
    for (i, (a, b)) in naive.iter().zip(&fast).enumerate() {
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.segment, b.segment, "segment diverged at record {}", i);
                prop_assert!(
                    a.snapped.distance(b.snapped) <= 1e-12,
                    "snap diverged at record {}: {:?} vs {:?}",
                    i,
                    a.snapped,
                    b.snapped
                );
                prop_assert!(
                    (a.score - b.score).abs() <= 1e-12,
                    "score diverged at record {}: {} vs {}",
                    i,
                    a.score,
                    b.score
                );
            }
            (a, b) => prop_assert!(false, "coverage diverged at record {i}: {a:?} vs {b:?}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimized_matcher_is_result_identical_to_naive(
        net in network_strategy(),
        recs in records_strategy(),
        radius_m in 10.0..80.0f64,
        sigma_factor in 0.25..2.0f64,
        candidate_radius_m in 30.0..160.0f64,
    ) {
        let params = MatchParams {
            radius_m,
            sigma_factor,
            candidate_radius_m,
            ..MatchParams::default()
        };
        let matcher = GlobalMapMatcher::new(&net, params);
        let mut scratch = MatchScratch::new();
        assert_matches_naive(&matcher, &mut scratch, &recs)?;
    }

    #[test]
    fn cell_cached_path_agrees_with_uncached_on_dense_tracks(
        net in network_strategy(),
        tracks in proptest::collection::vec(dense_track_strategy(), 1..4),
    ) {
        // one scratch reused across every track: cache hits dominate
        // within a track, and stale state must never leak across tracks
        let matcher = GlobalMapMatcher::new(&net, MatchParams::default());
        let mut scratch = MatchScratch::new();
        for recs in &tracks {
            assert_matches_naive(&matcher, &mut scratch, recs)?;
        }
    }

    #[test]
    fn oracle_frozen_naive_triple_agreement(
        net in network_strategy_with(3..30),
        recs in records_strategy(),
        candidate_radius_m in 30.0..160.0f64,
    ) {
        // Sweep candidate cutoff × city density and demand the full
        // identity triple: the oracle slab path, the per-fix frozen-tree
        // path and the naive paper-literal path agree on the per-fix
        // candidate set AND its order, and on the final matched path.
        // Records reach 1 600 m while a sparse network's bounding box
        // covers only part of that area, so fixes beyond the network's
        // bounds — clamped into the oracle's border cells — are exercised
        // too.
        let params = MatchParams { candidate_radius_m, ..MatchParams::default() };
        let matcher = GlobalMapMatcher::new(&net, params);
        for r in &recs {
            prop_assert_eq!(
                matcher.candidates_at(r.point),
                matcher.candidates_at_via_tree(r.point)
            );
        }
        let mut scratch = MatchScratch::new();
        assert_matches_naive(&matcher, &mut scratch, &recs)?;
    }

    #[test]
    fn global_matcher_output_invariants(net in network_strategy(), recs in records_strategy()) {
        let matcher = GlobalMapMatcher::new(&net, MatchParams::default());
        let matches = matcher.match_records(&recs);
        prop_assert_eq!(matches.len(), recs.len());
        for (r, m) in recs.iter().zip(&matches) {
            if let Some(m) = m {
                // matched segment exists and the snap lies on it
                let seg = &net.segment(m.segment).geometry;
                prop_assert!(seg.distance_to_point(m.snapped) < 1e-6);
                // the match respects the candidate radius
                let d = seg.distance_to_point(r.point);
                prop_assert!(d <= matcher.params().candidate_radius_m + 1e-6);
                // scores are normalized weighted means of local scores ≤ 1
                prop_assert!(m.score.is_finite());
                prop_assert!(m.score <= 1.0 + 1e-9);
                prop_assert!(m.score >= 0.0);
            }
        }
    }

    #[test]
    fn local_baseline_picks_the_true_nearest(net in network_strategy(), recs in records_strategy()) {
        let matcher = NearestSegmentMatcher::new(&net, BaselineMetric::PointSegment, 200.0);
        let matches = matcher.match_records(&recs);
        for (r, m) in recs.iter().zip(&matches) {
            // brute-force nearest within the radius
            let best = net
                .segments()
                .iter()
                .map(|s| (s.id, s.geometry.distance_to_point(r.point)))
                .filter(|&(_, d)| d <= 200.0)
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
            match (m, best) {
                (Some(m), Some((_, best_d))) => {
                    let got_d = net.segment(m.segment).geometry.distance_to_point(r.point);
                    prop_assert!((got_d - best_d).abs() < 1e-9);
                }
                (None, None) => {}
                (got, want) => prop_assert!(false, "mismatch: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn viterbi_path_is_optimal_on_random_models(
        pi in proptest::collection::vec(0.01..1.0f64, 3),
        a_flat in proptest::collection::vec(0.01..1.0f64, 9),
        b_flat in proptest::collection::vec(0.01..1.0f64, 3..18),
    ) {
        let a: Vec<Vec<f64>> = a_flat.chunks(3).map(|c| c.to_vec()).collect();
        let hmm = Hmm::new(&pi, &a).unwrap();
        let b: Vec<Vec<f64>> = b_flat.chunks(3).filter(|c| c.len() == 3).map(|c| c.to_vec()).collect();
        prop_assume!(!b.is_empty());
        let (path, lp) = hmm.viterbi(&b).unwrap();
        let (bpath, blp) = hmm.brute_force(&b).unwrap();
        prop_assert!((lp - blp).abs() < 1e-9);
        prop_assert_eq!(path, bpath);
    }

    #[test]
    fn mode_annotate_equals_per_entry_motion_features(
        net in network_strategy(),
        steps in proptest::collection::vec((0.0..30.0f64, -1.0..1.0f64, 0.5..12.0f64), 1..60),
        runs in proptest::collection::vec((1usize..5, 0usize..64), 1..30),
        car in 0u8..2,
    ) {
        // irregular sampling at walking to driving speeds, cut into entries
        // of 1–4 records (the short ones widen to their ±2 neighbours)
        let (mut x, mut y, mut t) = (0.0, 0.0, 0.0);
        let records: Vec<GpsRecord> = steps
            .iter()
            .map(|&(step, dy, dt)| {
                x += step;
                y += dy * step;
                t += dt;
                GpsRecord::new(Point::new(x, y), Timestamp(t))
            })
            .collect();
        let mut entries = Vec::new();
        let mut start = 0;
        for &(len, seg) in &runs {
            let end = (start + len).min(records.len());
            if start == end {
                break;
            }
            entries.push(RouteEntry {
                segment: (seg % net.segments().len()) as u32,
                span: TimeSpan::new(records[start].t, records[end - 1].t),
                start,
                end,
                mode: None,
            });
            start = end;
        }
        // no smoothing: each entry keeps its raw classification
        let inferencer = ModeInferencer { allow_car: car == 1, smoothing_half_width: 0 };
        inferencer.annotate(&net, &records, &mut entries);
        for e in &entries {
            let lo = e.start.saturating_sub(2);
            let hi = (e.end + 2).min(records.len());
            let seg = net.segment(e.segment);
            let want = inferencer.classify(motion_features(&records[lo..hi]), seg.class, seg.bus_route);
            prop_assert_eq!(e.mode, Some(want), "entry {}..{}", e.start, e.end);
        }
    }
}
