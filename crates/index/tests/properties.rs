//! Property-based tests: the R*-tree and grid must agree with brute force.

use proptest::prelude::*;
use semitri_geo::{Point, Rect};
use semitri_index::{
    FrozenNearestScratch, FrozenRangeScratch, GridIndex, RStarParams, RStarTree, RangeScratch,
};

fn rect_strategy() -> impl Strategy<Value = Rect> {
    (
        -1000.0..1000.0f64,
        -1000.0..1000.0f64,
        0.0..50.0f64,
        0.0..50.0f64,
    )
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_query_agrees_with_brute_force(
        rects in proptest::collection::vec(rect_strategy(), 1..200),
        query in rect_strategy(),
    ) {
        let mut tree = RStarTree::new();
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i);
        }
        tree.check_invariants();

        let mut expected: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&query))
            .map(|(i, _)| i)
            .collect();
        let mut got: Vec<usize> = tree.query(&query).iter().map(|&(_, &i)| i).collect();
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(expected, got);
    }

    #[test]
    fn rtree_scratch_query_is_order_identical(
        rects in proptest::collection::vec(rect_strategy(), 1..250),
        queries in proptest::collection::vec(rect_strategy(), 1..8),
    ) {
        // both insertion-built and bulk-loaded trees: the scratch-threaded
        // iterative traversal must visit the same items in the same order
        // as the recursive one, with the scratch reused across queries
        let mut inc = RStarTree::new();
        for (i, r) in rects.iter().enumerate() {
            inc.insert(*r, i);
        }
        let bulk = RStarTree::bulk_load(rects.iter().cloned().enumerate().map(|(i, r)| (r, i)).collect());
        for tree in [&inc, &bulk] {
            let mut scratch = RangeScratch::new();
            for q in &queries {
                let mut recursive: Vec<usize> = Vec::new();
                tree.for_each_in(q, |_, &i| recursive.push(i));
                let mut iterative: Vec<usize> = Vec::new();
                tree.for_each_in_with(&mut scratch, q, |_, &i| iterative.push(i));
                prop_assert_eq!(recursive, iterative);
            }
        }
    }

    #[test]
    fn rtree_bulk_load_agrees_with_incremental(
        rects in proptest::collection::vec(rect_strategy(), 1..300),
        query in rect_strategy(),
    ) {
        let bulk = RStarTree::bulk_load(rects.iter().cloned().enumerate().map(|(i, r)| (r, i)).collect());
        bulk.check_invariants();
        prop_assert_eq!(bulk.len(), rects.len());

        let mut expected: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&query))
            .map(|(i, _)| i)
            .collect();
        let mut got: Vec<usize> = bulk.query(&query).iter().map(|&(_, &i)| i).collect();
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(expected, got);
    }

    #[test]
    fn rtree_small_nodes_still_correct(
        rects in proptest::collection::vec(rect_strategy(), 1..150),
        query in rect_strategy(),
    ) {
        // tiny fan-out stresses splits and reinserts hard
        let params = RStarParams { max_entries: 4, min_entries: 2, reinsert_count: 1 };
        let mut tree = RStarTree::with_params(params);
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i);
        }
        tree.check_invariants();
        prop_assert_eq!(tree.len(), rects.len());
        let mut expected: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&query))
            .map(|(i, _)| i)
            .collect();
        let mut got: Vec<usize> = tree.query(&query).iter().map(|&(_, &i)| i).collect();
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(expected, got);
    }

    #[test]
    fn rtree_nearest_matches_brute_force(
        pts in proptest::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 1..150),
        probe in (-600.0..600.0f64, -600.0..600.0f64),
        k in 1usize..8,
    ) {
        let probe = Point::new(probe.0, probe.1);
        let mut tree = RStarTree::new();
        for &(x, y) in &pts {
            let p = Point::new(x, y);
            tree.insert(Rect::from_point(p), p);
        }
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
        rects in proptest::collection::vec(rect_strategy(), 1..250),
        queries in proptest::collection::vec(rect_strategy(), 1..8),
    ) {
        // the frozen snapshot must reproduce the dynamic tree's range
        // results bit for bit — the same items in the same visit order —
        // for trees built by incremental insert AND by STR bulk load,
        // including a tree that has seen removals before freezing
        let mut inc = RStarTree::new();
        for (i, r) in rects.iter().enumerate() {
            inc.insert(*r, i);
        }
        let bulk = RStarTree::bulk_load(
            rects.iter().cloned().enumerate().map(|(i, r)| (r, i)).collect(),
        );
        let mut pruned = inc.clone();
        for (i, r) in rects.iter().enumerate().step_by(3) {
            pruned.remove_one(r, |&v| v == i);
        }
        for tree in [inc, bulk, pruned] {
            let frozen = tree.clone().freeze();
            prop_assert_eq!(frozen.len(), tree.len());
            prop_assert_eq!(frozen.height(), tree.height());
            prop_assert_eq!(frozen.bbox(), tree.bbox());
            let mut scratch = FrozenRangeScratch::new();
            for q in &queries {
                let mut dynamic: Vec<usize> = Vec::new();
                tree.for_each_in(q, |_, &i| dynamic.push(i));
                let mut snap: Vec<usize> = Vec::new();
                frozen.for_each_in_with(&mut scratch, q, |_, &i| snap.push(i));
                prop_assert_eq!(dynamic, snap);
            }
        }
    }

    #[test]
    fn frozen_knn_is_result_and_order_identical(
        pts in proptest::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 1..150),
        probes in proptest::collection::vec((-600.0..600.0f64, -600.0..600.0f64), 1..6),
        k in 1usize..8,
    ) {
        // best-first kNN must pop candidates in the same order through the
        // frozen heap as through the dynamic one — including equal-distance
        // ties, which both sides break by identical push sequence
        let mut inc = RStarTree::new();
        for &(x, y) in &pts {
            let p = Point::new(x, y);
            inc.insert(Rect::from_point(p), p);
        }
        let bulk = RStarTree::bulk_load(
            pts.iter()
                .map(|&(x, y)| (Rect::from_point(Point::new(x, y)), Point::new(x, y)))
                .collect(),
        );
        for tree in [inc, bulk] {
            let frozen = tree.clone().freeze();
            let mut scratch = FrozenNearestScratch::new();
            for &(px, py) in &probes {
                let probe = Point::new(px, py);
                let dynamic: Vec<(f64, Point)> = tree
                    .nearest_by(probe, k, |q| q.distance(probe))
                    .into_iter()
                    .map(|(d, &p)| (d, p))
                    .collect();
                let snap: Vec<(f64, Point)> = frozen
                    .nearest_by_with(&mut scratch, probe, k, |q| q.distance(probe))
                    .into_iter()
                    .map(|(d, &p)| (d, p))
                    .collect();
                prop_assert_eq!(dynamic, snap);
            }
        }
    }

    #[test]
    fn frozen_within_radius_is_identical(
        pts in proptest::collection::vec((0.0..1000.0f64, 0.0..1000.0f64), 1..150),
        probe in (0.0..1000.0f64, 0.0..1000.0f64),
        radius in 0.0..300.0f64,
    ) {
        let probe = Point::new(probe.0, probe.1);
        let mut tree = RStarTree::new();
        for (i, &(x, y)) in pts.iter().enumerate() {
            tree.insert(Rect::from_point(Point::new(x, y)), i);
        }
        let frozen = tree.clone().freeze();
        let mut dynamic: Vec<usize> = Vec::new();
        tree.for_each_within_radius(probe, radius, |_, &i| dynamic.push(i));
        let mut snap: Vec<usize> = Vec::new();
        frozen.for_each_within_radius(probe, radius, |_, &i| snap.push(i));
        prop_assert_eq!(dynamic, snap);
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

    #[test]
    fn rtree_interleaved_inserts_and_removes_preserve_invariants(
        rects in proptest::collection::vec(rect_strategy(), 8..120),
        extra in proptest::collection::vec(rect_strategy(), 1..40),
    ) {
        // tiny fan-out so removals condense nodes (and eventually shrink
        // the root) after only a handful of operations
        let params = RStarParams { max_entries: 4, min_entries: 2, reinsert_count: 1 };
        let mut tree = RStarTree::with_params(params);
        let mut live: Vec<(Rect, usize)> = Vec::new();
        for (i, r) in rects.iter().enumerate() {
            tree.insert(*r, i);
            live.push((*r, i));
        }
        tree.check_invariants();

        // interleave: remove two present items, insert one new, repeat
        let mut next_id = rects.len();
        let mut extras = extra.iter();
        while !live.is_empty() {
            for _ in 0..2 {
                let Some((r, id)) = live.pop() else { break };
                prop_assert_eq!(tree.remove_one(&r, |&v| v == id), Some(id), "item {} missing", id);
                tree.check_invariants();
            }
            if let Some(&r) = extras.next() {
                tree.insert(r, next_id);
                live.push((r, next_id));
                next_id += 1;
                tree.check_invariants();
            }
        }

        // drained through every condense/root-shrink on the way down
        prop_assert!(tree.is_empty(), "tree still holds {} items", tree.len());
        tree.check_invariants();
        // removing from the empty tree is a clean miss
        prop_assert_eq!(tree.remove_one(&rects[0], |_| true), None);
    }
}
