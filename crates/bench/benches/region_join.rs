//! Algorithm 1 throughput: trajectory ⋈ landuse spatial join.
//!
//! The paper claims O(n log m) with an R\*-tree (≈ O(n) for well-divided
//! landuse); on a regular raster the join is O(n) outright, by cell
//! arithmetic. The naive baseline scans all m regions per record; the
//! ratio demonstrates why addressing matters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semitri::core::RegionAnnotator;
use semitri::prelude::*;
use std::hint::black_box;

fn walk(records: usize, extent: f64) -> RawTrajectory {
    let recs = (0..records)
        .map(|i| {
            let t = i as f64 / records as f64;
            GpsRecord::new(
                Point::new(
                    100.0 + t * (extent - 200.0),
                    extent / 2.0 + (i % 7) as f64 * 10.0,
                ),
                Timestamp(i as f64 * 5.0),
            )
        })
        .collect();
    RawTrajectory::new(1, 1, recs)
}

fn bench_alg1(c: &mut Criterion) {
    let mut g = c.benchmark_group("region_join");
    for grid_side in [2_000.0f64, 6_000.0, 12_000.0] {
        let grid = LanduseGrid::generate(Rect::new(0.0, 0.0, grid_side, grid_side), 100.0, 7);
        let cells = grid.len();
        let annotator = RegionAnnotator::from_landuse(&grid);
        let traj = walk(2_000, grid_side);

        g.bench_with_input(
            BenchmarkId::new("alg1_raster", cells),
            &(&annotator, &traj),
            |b, (annotator, traj)| b.iter(|| black_box(annotator.annotate_trajectory(traj))),
        );

        // naive baseline: linear scan over every cell per record
        let all_cells: Vec<_> = grid.cells().collect();
        g.bench_with_input(
            BenchmarkId::new("naive_scan", cells),
            &(&all_cells, &traj),
            |b, (cells, traj)| {
                b.iter(|| {
                    let mut hits = 0usize;
                    for r in traj.records() {
                        for c in cells.iter() {
                            if c.rect.contains_point(r.point) {
                                hits += 1;
                                break;
                            }
                        }
                    }
                    black_box(hits)
                })
            },
        );
    }
    g.finish();
}

fn bench_episode_join(c: &mut Criterion) {
    let grid = LanduseGrid::generate(Rect::new(0.0, 0.0, 6_000.0, 6_000.0), 100.0, 7);
    let annotator = RegionAnnotator::from_landuse(&grid);
    let traj = walk(2_000, 6_000.0);
    let episodes = VelocityPolicy::default().segment(&traj);
    c.bench_function("region_join/episode_scoped", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for e in &episodes {
                n += annotator.annotate_episode(&traj, e).len();
            }
            black_box(n)
        })
    });
}

criterion_group!(benches, bench_alg1, bench_episode_join);
criterion_main!(benches);
