//! R*-tree micro-benchmarks: STR build and query costs backing the
//! paper's O(n log m) region-join claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semitri::index::FrozenRStarTree;
use semitri::prelude::{Point, Rect};
use std::hint::black_box;

fn grid_items(n_side: usize) -> Vec<(Rect, u32)> {
    let mut items = Vec::with_capacity(n_side * n_side);
    for j in 0..n_side {
        for i in 0..n_side {
            let x = i as f64 * 100.0;
            let y = j as f64 * 100.0;
            items.push((
                Rect::new(x, y, x + 100.0, y + 100.0),
                (j * n_side + i) as u32,
            ));
        }
    }
    items
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("rtree_build");
    for n_side in [32usize, 64, 128] {
        let items = grid_items(n_side);
        g.bench_with_input(
            BenchmarkId::new("bulk_load", items.len()),
            &items,
            |b, items| b.iter(|| FrozenRStarTree::bulk_load(black_box(items.clone()))),
        );
    }
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("rtree_query");
    for n_side in [64usize, 128, 256] {
        let tree = FrozenRStarTree::bulk_load(grid_items(n_side));
        // point probe: the per-GPS-record lookup of Algorithm 1
        g.bench_with_input(
            BenchmarkId::new("point_probe", tree.len()),
            &tree,
            |b, tree| {
                let mut i = 0u64;
                b.iter(|| {
                    i = (i.wrapping_mul(6364136223846793005)).wrapping_add(1442695040888963407);
                    let x = (i % 1000) as f64 * (n_side as f64 / 10.0);
                    let p = Rect::from_point(Point::new(x, x * 0.7));
                    black_box(tree.count_in(&p))
                })
            },
        );
        // window query: the move-episode bbox join
        g.bench_with_input(
            BenchmarkId::new("window_1km", tree.len()),
            &tree,
            |b, tree| {
                b.iter(|| {
                    let w = Rect::new(500.0, 500.0, 1_500.0, 1_500.0);
                    black_box(tree.count_in(&w))
                })
            },
        );
        // kNN: the candidate-POI lookup
        g.bench_with_input(BenchmarkId::new("knn_8", tree.len()), &tree, |b, tree| {
            let probe = Point::new(n_side as f64 * 50.0, n_side as f64 * 50.0);
            b.iter(|| {
                black_box(tree.nearest_by(probe, 8, |&id| {
                    let x = (id as usize % n_side) as f64 * 100.0 + 50.0;
                    let y = (id as usize / n_side) as f64 * 100.0 + 50.0;
                    probe.distance(Point::new(x, y))
                }))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_build, bench_query);
criterion_main!(benches);
