//! Property-based tests: the R*-tree and grid must agree with brute force.

use proptest::prelude::*;
use semitri_geo::{Point, Rect};
use semitri_index::{FrozenNearestScratch, FrozenRStarTree, FrozenRangeScratch, GridIndex};

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (
        -1000.0..1000.0f64,
        -1000.0..1000.0f64,
        0.0..50.0f64,
        0.0..50.0f64,
    )
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// Box sets whose STR trees have height 1, 2 or 3 (M = 32), one third
/// of the cases each.
fn heights_1_to_3() -> impl Strategy<Value = Vec<Rect>> {
    prop_oneof![
        proptest::collection::vec(rect_strategy(), 1..=32),
        proptest::collection::vec(rect_strategy(), 33..=1024),
        proptest::collection::vec(rect_strategy(), 1025..=2100),
    ]
}

fn bulk_load_ids(rects: &[Rect]) -> FrozenRStarTree<usize> {
    FrozenRStarTree::bulk_load(
        rects
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (r, i))
            .collect(),
    )
}

/// Addresses of the item references a visit hands out. Items live in one
/// contiguous slab, so address order is entry-slab order.
fn addresses(items: &[&usize]) -> Vec<usize> {
    items.iter().map(|&i| i as *const usize as usize).collect()
}

fn brute_force_ids(rects: &[Rect], keep: impl Fn(&Rect) -> bool) -> Vec<usize> {
    (0..rects.len()).filter(|&i| keep(&rects[i])).collect()
}

fn sorted_ids(items: &[&usize]) -> Vec<usize> {
    let mut ids: Vec<usize> = items.iter().map(|&&i| i).collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_query_agrees_with_brute_force(
        rects in proptest::collection::vec(rect_strategy(), 1..300),
        query in rect_strategy(),
    ) {
        let tree = bulk_load_ids(&rects);
        prop_assert_eq!(tree.len(), rects.len());
        let got: Vec<&usize> = tree.query(&query).into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(sorted_ids(&got), brute_force_ids(&rects, |r| r.intersects(&query)));
    }

    #[test]
    fn rtree_bulk_load_len_and_bbox_agree_with_brute_force(
        rects in heights_1_to_3(),
        query in rect_strategy(),
    ) {
        let tree = bulk_load_ids(&rects);
        prop_assert_eq!(tree.len(), rects.len());
        let bbox = rects.iter().fold(Rect::EMPTY, |acc, r| acc.union(r));
        prop_assert_eq!(tree.bbox(), bbox);
        prop_assert_eq!(tree.count_in(&bbox), rects.len());
        let got: Vec<&usize> = tree.query(&query).into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(sorted_ids(&got), brute_force_ids(&rects, |r| r.intersects(&query)));
    }

    #[test]
    fn rtree_scratch_query_is_order_identical(
        rects in proptest::collection::vec(rect_strategy(), 1..250),
        queries in proptest::collection::vec(rect_strategy(), 1..8),
    ) {
        // the scratch-threaded traversal must visit the same items in the
        // same order as the allocating one, with the scratch reused across
        // queries
        let tree = bulk_load_ids(&rects);
        let mut scratch = FrozenRangeScratch::new();
        for q in &queries {
            let mut fresh: Vec<usize> = Vec::new();
            tree.for_each_in(q, |_, &i| fresh.push(i));
            let mut reused: Vec<usize> = Vec::new();
            tree.for_each_in_with(&mut scratch, q, |_, &i| reused.push(i));
            prop_assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn rtree_nearest_matches_brute_force(
        pts in proptest::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 1..150),
        probe in (-600.0..600.0f64, -600.0..600.0f64),
        k in 1usize..8,
    ) {
        let probe = Point::new(probe.0, probe.1);
        let tree = FrozenRStarTree::bulk_load(
            pts.iter()
                .map(|&(x, y)| (Rect::from_point(Point::new(x, y)), Point::new(x, y)))
                .collect(),
        );
        let got = tree.nearest_by(probe, k, |q| q.distance(probe));
        let mut dists: Vec<f64> = pts.iter().map(|&(x, y)| Point::new(x, y).distance(probe)).collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f64> = dists.into_iter().take(k).collect();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            prop_assert!((g.0 - e).abs() < 1e-9, "got {} expected {}", g.0, e);
        }
    }

    #[test]
    fn frozen_range_is_result_and_order_identical(
        rects in heights_1_to_3(),
        queries in proptest::collection::vec(rect_strategy(), 1..8),
    ) {
        // the slab-order contract: a whole-tree visit walks the entry slab
        // one item after another, and any query visits its hits in
        // strictly increasing slab position — exactly the brute-force hits
        let tree = bulk_load_ids(&rects);
        let mut all: Vec<&usize> = Vec::new();
        tree.for_each_in(&tree.bbox(), |_, i| all.push(i));
        prop_assert_eq!(all.len(), rects.len());
        for w in addresses(&all).windows(2) {
            prop_assert_eq!(w[1] - w[0], std::mem::size_of::<usize>());
        }
        let mut scratch = FrozenRangeScratch::new();
        for q in &queries {
            let mut hits: Vec<&usize> = Vec::new();
            tree.for_each_in_with(&mut scratch, q, |_, i| hits.push(i));
            prop_assert!(addresses(&hits).windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(sorted_ids(&hits), brute_force_ids(&rects, |r| r.intersects(q)));
        }
    }

    #[test]
    fn frozen_knn_is_result_and_order_identical(
        rects in heights_1_to_3(),
        probes in proptest::collection::vec((-1100.0..1100.0f64, -1100.0..1100.0f64), 1..6),
        k in 1usize..12,
    ) {
        // best-first kNN returns exactly the k smallest brute-force
        // distances, in ascending order, through a reused heap
        let tree = bulk_load_ids(&rects);
        let mut scratch = FrozenNearestScratch::new();
        for &(px, py) in &probes {
            let probe = Point::new(px, py);
            let dist = |&i: &usize| rects[i].distance_to_point(probe);
            let got: Vec<f64> = tree
                .nearest_by_with(&mut scratch, probe, k, dist)
                .into_iter()
                .map(|(d, _)| d)
                .collect();
            let mut expected: Vec<f64> = (0..rects.len()).map(|i| dist(&i)).collect();
            expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
            expected.truncate(k);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn frozen_within_radius_is_identical(
        pts in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..150),
        probe in (0.0..1000.0f64, 0.0..1000.0f64),
        radius in 0.0..300.0f64,
    ) {
        // the streamed and collected radius queries report the brute-force
        // set, in slab order
        let probe = Point::new(probe.0, probe.1);
        let rects: Vec<Rect> = pts.iter().map(|&(x, y)| Rect::from_point(Point::new(x, y))).collect();
        let tree = bulk_load_ids(&rects);
        let mut streamed: Vec<&usize> = Vec::new();
        tree.for_each_within_radius(probe, radius, |_, i| streamed.push(i));
        let collected: Vec<&usize> = tree.within_radius(probe, radius).into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(&streamed, &collected);
        prop_assert!(addresses(&streamed).windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(
            sorted_ids(&streamed),
            brute_force_ids(&rects, |r| r.distance_to_point(probe) <= radius)
        );
    }

    #[test]
    fn grid_within_agrees_with_brute_force(
        pts in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 0..200),
        probe in (0.0..1000.0f64, 0.0..1000.0f64),
        radius in 0.0..300.0f64,
        cell in 5.0..200.0f64,
    ) {
        let probe = Point::new(probe.0, probe.1);
        let mut grid = GridIndex::new(Rect::new(0.0, 0.0, 1000.0, 1000.0), cell);
        for (i, &(x, y)) in pts.iter().enumerate() {
            grid.insert(Point::new(x, y), i);
        }
        let mut got: Vec<usize> = grid.within(probe, radius).iter().map(|&(_, &i)| i).collect();
        let mut expected: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, &(x, y))| Point::new(x, y).distance(probe) <= radius)
            .map(|(i, _)| i)
            .collect();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }
}
