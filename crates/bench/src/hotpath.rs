//! `hotpath` — tracked microbenchmarks of the per-fix annotation kernels.
//!
//! Measures the hot paths of all three annotation layers plus the spatial
//! index and the end-to-end pipeline, reporting the median nanoseconds per
//! work unit over repeated samples. The optimized map-matching kernel
//! ([`GlobalMapMatcher::match_records_with`]) is benchmarked against the
//! retained paper-literal reference (`match_records_naive`) on the same
//! machine and inputs, so the reported speedup is a true before/after
//! number for this codebase.
//!
//! The spatial-index kernels are benchmarked as frozen-vs-dynamic *pairs*
//! on identical probes: the [`FrozenRStarTree`] snapshot against the
//! pointer-chasing [`RStarTree`] it was built from.
//!
//! With `--bench-json PATH` the results are written as a machine-readable
//! JSON document (`BENCH_annotation.json` is the tracked baseline at the
//! repo root); `--quick` shrinks the dataset and sample count for CI
//! smoke runs. The run fails (returns `false`, non-zero process exit)
//! when any paired kernel — the optimized matcher vs the paper-literal
//! reference, or a frozen kernel vs its dynamic baseline — is more than
//! 10% *slower* than its reference — the regression marker CI watches for.

use crate::util::{header, Table};
use crate::Scale;
use semitri::core::point::PointParams;
use semitri::geo::{Segment, SegmentLanes};
use semitri::index::RStarTree;
use semitri::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Options parsed from the experiment driver's command line.
#[derive(Debug, Default)]
pub struct HotpathOptions {
    /// Shrink dataset and sample counts for a CI smoke run.
    pub quick: bool,
    /// Write the results as JSON to this path.
    pub json_path: Option<String>,
}

/// One measured kernel.
struct KernelResult {
    name: &'static str,
    /// The work unit the median is normalized by.
    unit: &'static str,
    median_ns: f64,
    samples: usize,
    /// Work units processed per sample.
    units: usize,
}

/// Committed `BENCH_annotation.json` medians (ns per unit) from before a
/// kernel was rewritten. The run prints each such kernel's ratio against
/// its entry and the JSON repeats the entry as `baseline_ns_per_unit`, so a
/// rewrite is judged against recorded history, not only against whatever
/// reference happens to run beside it.
const COMMITTED_BASELINES: [(&str, f64); 2] = [
    // the landuse join through a frozen R*-tree over every cell
    ("region_build", 1508.1),
    ("region_annotate", 126.5),
];

fn committed_baseline(kernel: &str) -> Option<f64> {
    let found = COMMITTED_BASELINES.iter().find(|(name, _)| *name == kernel);
    found.map(|&(_, ns)| ns)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Runs `f` (one full pass over the workload, returning the number of work
/// units processed) `samples` times and records the median ns per unit.
fn bench(
    name: &'static str,
    unit: &'static str,
    samples: usize,
    mut f: impl FnMut() -> usize,
) -> KernelResult {
    // one untimed warmup settles allocator state, page faults and clocks
    f();
    let mut per_unit = Vec::with_capacity(samples);
    let mut units = 0;
    for _ in 0..samples {
        let t0 = Instant::now();
        units = f();
        let ns = t0.elapsed().as_nanos() as f64;
        per_unit.push(ns / units.max(1) as f64);
    }
    KernelResult {
        name,
        unit,
        median_ns: median(per_unit),
        samples,
        units,
    }
}

/// Times two implementations of the same workload in *interleaved*
/// samples (A, B, A, B, …) after a shared warmup, so the reported ratio
/// is immune to frequency scaling and allocator drift between two
/// separately-timed blocks.
fn bench_pair(
    name_a: &'static str,
    name_b: &'static str,
    unit: &'static str,
    samples: usize,
    mut a: impl FnMut() -> usize,
    mut b: impl FnMut() -> usize,
) -> (KernelResult, KernelResult) {
    a();
    b();
    let mut per_a = Vec::with_capacity(samples);
    let mut per_b = Vec::with_capacity(samples);
    let (mut units_a, mut units_b) = (0, 0);
    for _ in 0..samples {
        let t0 = Instant::now();
        units_a = a();
        per_a.push(t0.elapsed().as_nanos() as f64 / units_a.max(1) as f64);
        let t0 = Instant::now();
        units_b = b();
        per_b.push(t0.elapsed().as_nanos() as f64 / units_b.max(1) as f64);
    }
    (
        KernelResult {
            name: name_a,
            unit,
            median_ns: median(per_a),
            samples,
            units: units_a,
        },
        KernelResult {
            name: name_b,
            unit,
            median_ns: median(per_b),
            samples,
            units: units_b,
        },
    )
}

/// Runs the hotpath microbenchmarks; returns `false` on regression.
pub fn run(scale: Scale, opts: &HotpathOptions) -> bool {
    header("Hotpath — per-fix annotation kernel microbenchmarks");
    let (users, days, samples) = if opts.quick {
        (2, 1, 3)
    } else {
        (4, scale.apply(2), 7)
    };
    let dataset = smartphone_users(users, days, 0x5EED);
    let city = &dataset.city;
    let raws: Vec<RawTrajectory> = dataset.tracks.iter().map(|t| t.to_raw()).collect();
    let total_records: usize = raws.iter().map(|r| r.len()).sum();
    println!(
        "  dataset: {} trajectories, {} records (seed 0x5EED, quick={})",
        raws.len(),
        total_records,
        opts.quick
    );

    let region = RegionAnnotator::from_landuse(&city.landuse);
    let semitri = SeMiTri::new(city, PipelineConfig::default());

    // The matcher is benched on dense 1 Hz walking legs through a
    // downtown-density street grid (120 m blocks, the paper's Milan
    // regime) with the candidate cutoff at the top of its sweep range
    // (150 m — urban-canyon error reach): the Eqs. 3–4 neighbor window
    // saturates (W ≈ 40), candidate sets are wide (C ≈ 12, where the
    // O(W·C²) → O(W·C) merge rework dominates the ratio) and consecutive
    // fixes stay in one candidate cell. Sparse 8 s suburban tracks
    // degenerate to W ≈ 1, C ≈ 2 and hide the kernel cost entirely.
    let downtown = City::generate(CityConfig {
        bounds: Rect::new(0.0, 0.0, 4_000.0, 4_000.0),
        block: 120.0,
        poi_count: 800,
        ..CityConfig::default()
    });
    let walk_matcher = GlobalMapMatcher::new(
        &downtown.roads,
        MatchParams {
            candidate_radius_m: 150.0,
            ..MatchParams::default()
        },
    );
    let walks: Vec<Vec<GpsRecord>> = (0..if opts.quick { 1 } else { 3 })
        .map(|i| {
            let b = downtown.bounds();
            let start = Point::new(b.width() * 0.15 + i as f64 * 150.0, b.height() * 0.2);
            let dest = Point::new(b.width() * 0.8, b.height() * 0.7 + i as f64 * 110.0);
            let mut sim = TripSimulator::new(
                &downtown.roads,
                SimConfig::default(),
                0x5EED + i as u64,
                start,
                Timestamp(0.0),
            );
            sim.travel_to(dest, TransportMode::Walk);
            sim.finish(100 + i as u64, 1).records
        })
        .collect();
    let walk_fixes: usize = walks.iter().map(|w| w.len()).sum();
    println!("  matcher workload: {walk_fixes} dense 1 Hz fixes, 120 m blocks");

    let mut results: Vec<KernelResult> = Vec::new();

    // --- line layer: optimized kernel vs the retained naive reference ---
    let mut scratch = MatchScratch::new();
    let (opt, naive) = bench_pair(
        "match_records_opt",
        "match_records_naive",
        "fix",
        samples,
        || {
            let mut n = 0;
            for recs in &walks {
                n += recs.len();
                black_box(walk_matcher.match_records_with(&mut scratch, recs));
            }
            n
        },
        || {
            let mut n = 0;
            for recs in &walks {
                n += recs.len();
                black_box(walk_matcher.match_records_naive(recs));
            }
            n
        },
    );
    results.push(opt);
    results.push(naive);

    // --- spatial index: dynamic tree vs its frozen snapshot, paired ---
    // Probes come from the dense downtown walks so every window stays busy
    // (the dense-city regime the frozen layout targets); both sides of
    // each pair sweep the identical probe list over the identical segment
    // set, interleaved, so the ratio is a pure layout effect.
    let seg_tree: RStarTree<u32> = RStarTree::bulk_load(
        downtown
            .roads
            .segments()
            .iter()
            .map(|s| (s.geometry.bbox(), s.id))
            .collect(),
    );
    let frozen_seg_tree = seg_tree.clone().freeze();
    let dense_probes: Vec<Point> = walks
        .iter()
        .flat_map(|w| w.iter())
        .step_by(3)
        .map(|r| r.point)
        .collect();
    let mut frozen_range_scratch = FrozenRangeScratch::new();
    let (dyn_range, frz_range) = bench_pair(
        "rtree_range",
        "frozen_rtree_range",
        "query",
        samples,
        || {
            let mut hits = 0usize;
            for &p in &dense_probes {
                let window = Rect::from_point(p).inflate(60.0);
                seg_tree.for_each_in(&window, |_, &id| hits += id as usize & 1);
            }
            black_box(hits);
            dense_probes.len()
        },
        || {
            let mut hits = 0usize;
            for &p in &dense_probes {
                let window = Rect::from_point(p).inflate(60.0);
                frozen_seg_tree.for_each_in_with(&mut frozen_range_scratch, &window, |_, &id| {
                    hits += id as usize & 1
                });
            }
            black_box(hits);
            dense_probes.len()
        },
    );
    results.push(dyn_range);
    results.push(frz_range);

    // --- precomputed oracle: O(1) slab lookup vs the frozen tree walk ---
    // The oracle is built over the very same frozen tree with the query
    // radius of the range workload above, so both legs of the pair answer
    // the identical candidate question on the identical probes — the ratio
    // is purely slab-lookup vs tree-walk. The frozen leg re-runs here
    // (interleaved with the oracle leg) rather than borrowing the earlier
    // pair's timing, keeping the ratio immune to drift between blocks.
    let seg_oracle = CellOracle::build(&frozen_seg_tree, 60.0, 60.0);
    let arena = OracleArena {
        cells: seg_oracle.cell_count(),
        slots: seg_oracle.slot_count(),
        arena_bytes: seg_oracle.arena_bytes(),
        bytes_per_cell: seg_oracle.bytes_per_cell(),
    };
    // sanity outside the timed region: both legs count the same hits
    {
        let (mut via_oracle, mut via_tree) = (0usize, 0usize);
        for &p in &dense_probes {
            let window = Rect::from_point(p).inflate(60.0);
            let (rects, items) = seg_oracle.candidates(p).expect("probes are finite");
            for (r, &id) in rects.iter().zip(items) {
                if r.intersects(&window) {
                    via_oracle += id as usize & 1;
                }
            }
            frozen_seg_tree.for_each_in_with(&mut frozen_range_scratch, &window, |_, &id| {
                via_tree += id as usize & 1
            });
        }
        assert_eq!(via_oracle, via_tree, "oracle/tree candidate sets diverged");
    }
    let (oracle_cand, frz_range_ref) = bench_pair(
        "oracle_candidates",
        "frozen_rtree_range_ref",
        "query",
        samples,
        || {
            let mut hits = 0usize;
            for &p in &dense_probes {
                let window = Rect::from_point(p).inflate(60.0);
                if let Some((rects, items)) = seg_oracle.candidates(p) {
                    for (r, &id) in rects.iter().zip(items) {
                        if r.intersects(&window) {
                            hits += id as usize & 1;
                        }
                    }
                }
            }
            black_box(hits);
            dense_probes.len()
        },
        || {
            let mut hits = 0usize;
            for &p in &dense_probes {
                let window = Rect::from_point(p).inflate(60.0);
                frozen_seg_tree.for_each_in_with(&mut frozen_range_scratch, &window, |_, &id| {
                    hits += id as usize & 1
                });
            }
            black_box(hits);
            dense_probes.len()
        },
    );
    results.push(oracle_cand);
    results.push(frz_range_ref);

    // kNN is benched in the point layer's shape — k nearest POI centers
    // under plain point distance (the per-stop retrieval of Algorithm 2) —
    // so the pair measures the index traversal and heap, not the segment
    // geometry kernel.
    let poi_tree: RStarTree<Point> = RStarTree::bulk_load(
        downtown
            .pois
            .pois()
            .iter()
            .map(|poi| (Rect::from_point(poi.point), poi.point))
            .collect(),
    );
    let frozen_poi_tree = poi_tree.clone().freeze();
    let mut dyn_knn_scratch = NearestScratch::new();
    let mut frozen_knn_scratch = FrozenNearestScratch::new();
    let (dyn_knn, frz_knn) = bench_pair(
        "rtree_knn",
        "frozen_rtree_knn",
        "query",
        samples,
        || {
            for &p in &dense_probes {
                black_box(poi_tree.nearest_by_with(&mut dyn_knn_scratch, p, 4, |c| c.distance(p)));
            }
            dense_probes.len()
        },
        || {
            for &p in &dense_probes {
                black_box(
                    frozen_poi_tree
                        .nearest_by_with(&mut frozen_knn_scratch, p, 4, |c| c.distance(p)),
                );
            }
            dense_probes.len()
        },
    );
    results.push(dyn_knn);
    results.push(frz_knn);

    // --- frozen range: the production dispatch vs the scalar reference ---
    // Same tree, same probes, same windows. The paired leg runs
    // `for_each_in_with`, the compile-time dispatch the matcher actually
    // calls (lane masks on ≥AVX targets, the scalar loops at the SSE2
    // baseline) — the 0.9x marker guards the production path against its
    // retained reference on whatever target CI builds for. The raw 8-wide
    // mask-then-resolve body is additionally reported unpaired
    // (`frozen_range_lanes_forced`) so narrow-SIMD targets still surface
    // its true cost without tripping the marker on a dispatch that never
    // selects it there.
    let mut lane_range_scratch = FrozenRangeScratch::new();
    let mut scalar_range_scratch = FrozenRangeScratch::new();
    // Two probe sweeps per sample: one sweep is only a few hundred
    // microseconds, and this pair's legs are identical code on non-AVX
    // targets, so jitter is all that separates them from a 1.00 ratio.
    const RANGE_PASSES: usize = 2;
    let (frz_lanes, frz_scalar) = bench_pair(
        "frozen_range_lanes",
        "frozen_range_scalar",
        "query",
        samples,
        || {
            let mut hits = 0usize;
            for _ in 0..RANGE_PASSES {
                for &p in &dense_probes {
                    let window = Rect::from_point(p).inflate(60.0);
                    frozen_seg_tree.for_each_in_with(&mut lane_range_scratch, &window, |_, &id| {
                        hits += id as usize & 1
                    });
                }
            }
            black_box(hits);
            RANGE_PASSES * dense_probes.len()
        },
        || {
            let mut hits = 0usize;
            for _ in 0..RANGE_PASSES {
                for &p in &dense_probes {
                    let window = Rect::from_point(p).inflate(60.0);
                    frozen_seg_tree.for_each_in_scalar_with(
                        &mut scalar_range_scratch,
                        &window,
                        |_, &id| hits += id as usize & 1,
                    );
                }
            }
            black_box(hits);
            RANGE_PASSES * dense_probes.len()
        },
    );
    results.push(frz_lanes);
    results.push(frz_scalar);
    results.push(bench("frozen_range_lanes_forced", "query", samples, || {
        let mut hits = 0usize;
        for _ in 0..RANGE_PASSES {
            for &p in &dense_probes {
                let window = Rect::from_point(p).inflate(60.0);
                frozen_seg_tree.for_each_in_lanes_with(
                    &mut lane_range_scratch,
                    &window,
                    |_, &id| hits += id as usize & 1,
                );
            }
        }
        black_box(hits);
        RANGE_PASSES * dense_probes.len()
    }));

    // --- Eq. 1 batched distances: SegmentLanes slab vs scalar Segment ---
    // The whole downtown segment set as one SoA slab, probed by the dense
    // walk fixes — the matcher's candidate-distance shape at its widest.
    let seg_slab = {
        let mut l = SegmentLanes::new();
        for s in downtown.roads.segments() {
            l.push(s.geometry);
        }
        l
    };
    let scalar_segs: Vec<Segment> = downtown
        .roads
        .segments()
        .iter()
        .map(|s| s.geometry)
        .collect();
    let slab_probes: Vec<Point> = dense_probes.iter().copied().step_by(4).collect();
    let mut batch_dist_out: Vec<f64> = Vec::new();
    let mut scalar_dist_out: Vec<f64> = Vec::new();
    let (dist_batch, dist_scalar) = bench_pair(
        "segment_distance_batch",
        "segment_distance_scalar",
        "distance",
        samples,
        || {
            let mut acc = 0.0f64;
            for &p in &slab_probes {
                seg_slab.distances_to_point(p, &mut batch_dist_out);
                acc += batch_dist_out[0];
            }
            black_box(acc);
            slab_probes.len() * seg_slab.len()
        },
        || {
            let mut acc = 0.0f64;
            for &p in &slab_probes {
                scalar_dist_out.clear();
                scalar_dist_out.extend(scalar_segs.iter().map(|s| s.distance_to_point(p)));
                acc += scalar_dist_out[0];
            }
            black_box(acc);
            slab_probes.len() * scalar_segs.len()
        },
    );
    results.push(dist_batch);
    results.push(dist_scalar);

    let probes: Vec<Point> = raws
        .iter()
        .flat_map(|r| r.records())
        .step_by(7)
        .map(|r| r.point)
        .collect();

    // --- region layer: build (a copy of the raster) and Algorithm 1 ---
    results.push(bench("region_build", "cell", samples, || {
        black_box(RegionAnnotator::from_landuse(&city.landuse)).len()
    }));
    results.push(bench("region_annotate", "record", samples, || {
        let mut n = 0;
        for raw in &raws {
            n += raw.len();
            black_box(region.annotate_trajectory(raw));
        }
        n
    }));

    // --- point layer: HMM stop annotation over synthetic stop centers ---
    let centers: Vec<Point> = probes.iter().copied().step_by(5).take(200).collect();
    let point_result = PointAnnotator::new(&city.pois, city.bounds(), PointParams::default());
    if let Ok(point) = &point_result {
        results.push(bench("point_annotate_stops", "stop", samples, || {
            black_box(point.annotate_stops(&centers));
            centers.len()
        }));
    }

    // --- end to end: the default pipeline over the whole fleet ---
    results.push(bench("pipeline_annotate", "record", samples, || {
        let mut n = 0;
        for raw in &raws {
            n += raw.len();
            black_box(semitri.annotate(raw));
        }
        n
    }));

    // --- raster burn: per-thread tile accumulators vs one serial grid ---
    // The city-scale aggregation workload: the annotated fleet burned into
    // the 27-layer density stack. The tiled leg shards the corpus across
    // workers (each filling a private grid, merged at the end — the
    // result is bit-identical to serial by u64-sum commutativity).
    // `burn_all` itself sheds workers below its per-worker fix threshold,
    // so the tiled leg measures the dispatch callers actually get — on a
    // small corpus both legs run the serial path and the pair reports
    // ~1.0x instead of penalizing thread spawns nobody would pay.
    let outputs: Vec<PipelineOutput> = raws.iter().map(|raw| semitri.annotate(raw)).collect();
    let burned_fixes: usize = outputs.iter().map(|o| o.cleaned.len()).sum();
    let raster_cfg = RasterConfig {
        bounds: city.bounds(),
        cell_m: 50.0,
    };
    let burn_requested = if opts.quick {
        1
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(4)
    };
    let burn_threads = effective_workers(&outputs, burn_requested);
    // Several burns per sample so one sample is long enough that scheduler
    // jitter stays well inside the 10% regression margin (one burn of a
    // scale-1 corpus is only a few hundred microseconds).
    const BURN_PASSES: usize = 4;
    let (burn_tiles, burn_serial) = bench_pair(
        "raster_burn",
        "raster_burn_serial",
        "fix",
        samples,
        || {
            for _ in 0..BURN_PASSES {
                black_box(burn_all(raster_cfg, &outputs, &city.roads, burn_threads));
            }
            BURN_PASSES * burned_fixes
        },
        || {
            for _ in 0..BURN_PASSES {
                black_box(burn_all(raster_cfg, &outputs, &city.roads, 1));
            }
            BURN_PASSES * burned_fixes
        },
    );
    results.push(burn_tiles);
    results.push(burn_serial);

    // --- generation swaps: annotation throughput while publishes land ---
    let swaps = swap_sweep(city, &raws, if opts.quick { 1 } else { 2 });

    let ns_of = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
            .unwrap_or(f64::NAN)
    };
    let speedups = Speedups {
        match_vs_naive: ns_of("match_records_naive") / ns_of("match_records_opt"),
        frozen_range_vs_dynamic: ns_of("rtree_range") / ns_of("frozen_rtree_range"),
        frozen_knn_vs_dynamic: ns_of("rtree_knn") / ns_of("frozen_rtree_knn"),
        oracle_vs_frozen_range: ns_of("frozen_rtree_range_ref") / ns_of("oracle_candidates"),
        frozen_range_lanes_vs_scalar: ns_of("frozen_range_scalar") / ns_of("frozen_range_lanes"),
        segment_distance_batch_vs_scalar: ns_of("segment_distance_scalar")
            / ns_of("segment_distance_batch"),
        raster_burn_vs_serial: ns_of("raster_burn_serial") / ns_of("raster_burn"),
    };
    let e2e_records_per_sec = 1e9 / ns_of("pipeline_annotate");
    let raster_fixes_per_sec = 1e9 / ns_of("raster_burn");
    // regression marker: no paired kernel may run >10% slower than its
    // reference on the same inputs (NaN — a missing kernel — also trips
    // it): the optimized matcher vs the paper-literal reference, and each
    // frozen kernel (range, kNN) vs its dynamic baseline
    let regression = speedups.any_regressed();

    let mut t = Table::new(&["kernel", "median", "unit", "samples", "units/sample"]);
    for r in &results {
        t.row(&[
            r.name.to_string(),
            format!("{:.0} ns", r.median_ns),
            format!("per {}", r.unit),
            r.samples.to_string(),
            r.units.to_string(),
        ]);
    }
    t.print();
    println!(
        "  match_records speedup vs naive reference: {:.2}x",
        speedups.match_vs_naive
    );
    println!(
        "  frozen rtree_range speedup vs dynamic tree: {:.2}x",
        speedups.frozen_range_vs_dynamic
    );
    println!(
        "  frozen rtree_knn speedup vs dynamic tree: {:.2}x",
        speedups.frozen_knn_vs_dynamic
    );
    println!(
        "  oracle candidate slab speedup vs frozen rtree_range: {:.2}x",
        speedups.oracle_vs_frozen_range
    );
    println!(
        "  frozen_range_lanes speedup vs scalar loops: {:.2}x",
        speedups.frozen_range_lanes_vs_scalar
    );
    println!(
        "  segment_distance_batch speedup vs scalar segments: {:.2}x",
        speedups.segment_distance_batch_vs_scalar
    );
    println!(
        "  raster_burn dispatch speedup vs forced-serial grid: {:.2}x ({burn_threads} worker(s) of {burn_requested} offered, {:.0} fixes/s)",
        speedups.raster_burn_vs_serial, raster_fixes_per_sec
    );
    println!(
        "  oracle arena: {} cells, {} slots, {} bytes ({:.1} bytes/cell)",
        arena.cells, arena.slots, arena.arena_bytes, arena.bytes_per_cell
    );
    for r in &results {
        if let Some(baseline) = committed_baseline(r.name) {
            println!(
                "  {} vs committed baseline: {:.1} ns per {} against {baseline:.1} ns ({:.2}x)",
                r.name,
                r.median_ns,
                r.unit,
                baseline / r.median_ns
            );
        }
    }
    println!("  end-to-end pipeline: {e2e_records_per_sec:.0} records/s");
    println!(
        "  generation swaps: {} publishes, median rebuild {:.1} ms, \
         annotate {:.0} rec/s idle vs {:.0} rec/s under publishes ({:.2}x)",
        swaps.publishes,
        swaps.rebuild_ms_median,
        swaps.idle_records_per_sec,
        swaps.contended_records_per_sec,
        swaps.throughput_ratio(),
    );
    if regression {
        println!("  REGRESSION: a tracked kernel is >10% slower than its paired reference");
    }

    if let Some(path) = &opts.json_path {
        let json = render_json(
            &results,
            opts.quick,
            scale.0,
            &speedups,
            &arena,
            &swaps,
            raster_fixes_per_sec,
            burn_threads,
            regression,
        );
        match std::fs::write(path, json) {
            Ok(()) => println!("  wrote {path}"),
            Err(e) => {
                eprintln!("  failed to write {path}: {e}");
                return false;
            }
        }
    }
    !regression
}

/// The update-rate sweep: fleet-annotation throughput with the mutation
/// log idle versus with a publisher thread rebuilding and swapping
/// generations back to back, plus the rebuild cost itself. The ratio is
/// the tentpole claim in one number — publishes must not pause readers —
/// but it is reported, not gated: on a small runner the rebuild thread
/// legitimately competes for cores with the annotation thread.
struct SwapSweep {
    publishes: usize,
    rebuild_ms_median: f64,
    idle_records_per_sec: f64,
    contended_records_per_sec: f64,
}

impl SwapSweep {
    fn throughput_ratio(&self) -> f64 {
        if self.idle_records_per_sec > 0.0 {
            self.contended_records_per_sec / self.idle_records_per_sec
        } else {
            0.0
        }
    }
}

/// Annotates the fleet `passes` times on a [`LiveSeMiTri`], once with no
/// publisher and once with a thread submitting one POI per publish and
/// swapping generations continuously (at least one swap lands even if
/// annotation finishes first).
fn swap_sweep(city: &City, raws: &[RawTrajectory], passes: usize) -> SwapSweep {
    use std::sync::atomic::{AtomicBool, Ordering};

    let live = LiveSeMiTri::new(city.clone(), PipelineConfig::default, None);
    let annotate_fleet = |live: &LiveSeMiTri| {
        let mut n = 0usize;
        let t0 = Instant::now();
        for _ in 0..passes {
            for raw in raws {
                n += raw.len();
                black_box(live.annotate(raw));
            }
        }
        n as f64 / t0.elapsed().as_secs_f64().max(1e-9)
    };

    let idle_records_per_sec = annotate_fleet(&live);

    let stop = AtomicBool::new(false);
    let center = city.bounds().center();
    let (contended_records_per_sec, rebuild_ms) = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            let mut ms = Vec::new();
            let mut i = 0u64;
            loop {
                live.submit(Mutation::AddPoi {
                    point: Point::new(center.x + (i % 97) as f64, center.y - (i % 89) as f64),
                    category: PoiCategory::Feedings,
                    name: format!("sweep poi {i}"),
                })
                .expect("in-bounds poi");
                let t0 = Instant::now();
                black_box(live.publish());
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                i += 1;
                if stop.load(Ordering::Relaxed) {
                    return ms;
                }
            }
        });
        let rps = annotate_fleet(&live);
        stop.store(true, Ordering::Relaxed);
        (rps, publisher.join().expect("publisher thread"))
    });

    SwapSweep {
        publishes: rebuild_ms.len(),
        rebuild_ms_median: median(rebuild_ms),
        idle_records_per_sec,
        contended_records_per_sec,
    }
}

/// The paired-kernel speedup ratios the regression marker watches.
struct Speedups {
    /// Optimized matcher vs the retained paper-literal reference.
    match_vs_naive: f64,
    /// Frozen snapshot range query vs the dynamic R\*-tree.
    frozen_range_vs_dynamic: f64,
    /// Frozen snapshot kNN vs the dynamic R\*-tree.
    frozen_knn_vs_dynamic: f64,
    /// Precomputed per-cell candidate slab vs the frozen tree walk it
    /// replaces, measured interleaved on identical probes and windows.
    oracle_vs_frozen_range: f64,
    /// Chunked 8-wide mask-then-resolve range scan vs the retained scalar
    /// reference loops on the same frozen tree.
    frozen_range_lanes_vs_scalar: f64,
    /// Batched SoA point-segment distance slab vs per-segment scalar calls.
    segment_distance_batch_vs_scalar: f64,
    /// Tiled multi-worker raster burn vs one serial grid over the same
    /// corpus (both legs produce bit-identical grids).
    raster_burn_vs_serial: f64,
}

/// Memory cost of the precomputed oracle arena, reported alongside the
/// throughput numbers so the space/time trade stays visible in CI.
struct OracleArena {
    cells: usize,
    slots: usize,
    arena_bytes: usize,
    bytes_per_cell: f64,
}

impl Speedups {
    /// True when any paired kernel runs >10% slower than its reference
    /// (a NaN ratio — a missing kernel — also counts as regressed).
    fn any_regressed(&self) -> bool {
        [
            self.match_vs_naive,
            self.frozen_range_vs_dynamic,
            self.frozen_knn_vs_dynamic,
            self.oracle_vs_frozen_range,
            self.frozen_range_lanes_vs_scalar,
            self.segment_distance_batch_vs_scalar,
            self.raster_burn_vs_serial,
        ]
        .iter()
        .any(|s| s.is_nan() || *s < 0.9)
    }
}

/// Renders the results document by hand (no JSON dependency in-tree).
#[allow(clippy::too_many_arguments)]
fn render_json(
    results: &[KernelResult],
    quick: bool,
    scale: usize,
    speedups: &Speedups,
    arena: &OracleArena,
    swaps: &SwapSweep,
    raster_fixes_per_sec: f64,
    raster_threads: usize,
    regression: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"hotpath\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str("  \"kernels\": [\n");
    for (i, r) in results.iter().enumerate() {
        let baseline = committed_baseline(r.name)
            .map(|ns| format!(", \"baseline_ns_per_unit\": {ns:.1}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"median_ns_per_unit\": {:.1}, \
             \"samples\": {}, \"units_per_sample\": {}{baseline}}}{}\n",
            r.name,
            r.unit,
            r.median_ns,
            r.samples,
            r.units,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"match_records_speedup_vs_naive\": {:.2},\n",
        speedups.match_vs_naive
    ));
    out.push_str(&format!(
        "  \"frozen_rtree_range_speedup_vs_dynamic\": {:.2},\n",
        speedups.frozen_range_vs_dynamic
    ));
    out.push_str(&format!(
        "  \"frozen_rtree_knn_speedup_vs_dynamic\": {:.2},\n",
        speedups.frozen_knn_vs_dynamic
    ));
    out.push_str(&format!(
        "  \"oracle_candidates_speedup_vs_frozen_range\": {:.2},\n",
        speedups.oracle_vs_frozen_range
    ));
    out.push_str(&format!(
        "  \"frozen_range_lanes_speedup_vs_scalar\": {:.2},\n",
        speedups.frozen_range_lanes_vs_scalar
    ));
    out.push_str(&format!(
        "  \"segment_distance_batch_speedup_vs_scalar\": {:.2},\n",
        speedups.segment_distance_batch_vs_scalar
    ));
    out.push_str(&format!(
        "  \"raster_burn_speedup_vs_serial\": {:.2},\n",
        speedups.raster_burn_vs_serial
    ));
    out.push_str(&format!(
        "  \"raster_burn_fixes_per_sec\": {raster_fixes_per_sec:.0},\n"
    ));
    out.push_str(&format!("  \"raster_burn_threads\": {raster_threads},\n"));
    out.push_str(&format!("  \"oracle_cells\": {},\n", arena.cells));
    out.push_str(&format!("  \"oracle_slots\": {},\n", arena.slots));
    out.push_str(&format!(
        "  \"oracle_arena_bytes\": {},\n",
        arena.arena_bytes
    ));
    out.push_str(&format!(
        "  \"oracle_bytes_per_cell\": {:.1},\n",
        arena.bytes_per_cell
    ));
    out.push_str(&format!("  \"swap_publishes\": {},\n", swaps.publishes));
    out.push_str(&format!(
        "  \"swap_rebuild_ms_median\": {:.1},\n",
        swaps.rebuild_ms_median
    ));
    out.push_str(&format!(
        "  \"swap_idle_records_per_sec\": {:.0},\n",
        swaps.idle_records_per_sec
    ));
    out.push_str(&format!(
        "  \"swap_contended_records_per_sec\": {:.0},\n",
        swaps.contended_records_per_sec
    ));
    out.push_str(&format!(
        "  \"swap_throughput_ratio\": {:.2},\n",
        swaps.throughput_ratio()
    ));
    out.push_str(&format!("  \"regression\": {regression}\n"));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rs = vec![
            KernelResult {
                name: "k",
                unit: "fix",
                median_ns: 12.34,
                samples: 3,
                units: 100,
            },
            KernelResult {
                name: "region_build",
                unit: "cell",
                median_ns: 1.26,
                samples: 3,
                units: 8100,
            },
        ];
        let speedups = Speedups {
            match_vs_naive: 2.5,
            frozen_range_vs_dynamic: 1.4,
            frozen_knn_vs_dynamic: 1.1,
            oracle_vs_frozen_range: 3.2,
            frozen_range_lanes_vs_scalar: 1.6,
            segment_distance_batch_vs_scalar: 2.1,
            raster_burn_vs_serial: 1.9,
        };
        let arena = OracleArena {
            cells: 4489,
            slots: 60000,
            arena_bytes: 2_000_000,
            bytes_per_cell: 445.5,
        };
        let swaps = SwapSweep {
            publishes: 12,
            rebuild_ms_median: 87.5,
            idle_records_per_sec: 1_000_000.0,
            contended_records_per_sec: 900_000.0,
        };
        let s = render_json(
            &rs,
            true,
            1,
            &speedups,
            &arena,
            &swaps,
            1_234_567.0,
            4,
            false,
        );
        assert!(s.contains("\"match_records_speedup_vs_naive\": 2.50"));
        assert!(s.contains("\"frozen_rtree_range_speedup_vs_dynamic\": 1.40"));
        assert!(s.contains("\"frozen_rtree_knn_speedup_vs_dynamic\": 1.10"));
        assert!(s.contains("\"oracle_candidates_speedup_vs_frozen_range\": 3.20"));
        assert!(s.contains("\"frozen_range_lanes_speedup_vs_scalar\": 1.60"));
        assert!(s.contains("\"segment_distance_batch_speedup_vs_scalar\": 2.10"));
        assert!(s.contains("\"raster_burn_speedup_vs_serial\": 1.90"));
        assert!(s.contains("\"raster_burn_fixes_per_sec\": 1234567"));
        assert!(s.contains("\"raster_burn_threads\": 4"));
        assert!(s.contains("\"oracle_cells\": 4489"));
        assert!(s.contains("\"oracle_slots\": 60000"));
        assert!(s.contains("\"oracle_arena_bytes\": 2000000"));
        assert!(s.contains("\"oracle_bytes_per_cell\": 445.5"));
        assert!(s.contains("\"swap_publishes\": 12"));
        assert!(s.contains("\"swap_rebuild_ms_median\": 87.5"));
        assert!(s.contains("\"swap_throughput_ratio\": 0.90"));
        assert!(
            s.contains("\"median_ns_per_unit\": 12.3, \"samples\": 3, \"units_per_sample\": 100},")
        );
        // a kernel with a committed pre-rewrite median carries it along
        assert!(s.contains("\"units_per_sample\": 8100, \"baseline_ns_per_unit\": 1508.1}\n"));
        assert!(s.ends_with("}\n"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn regression_marker_trips_on_any_pair() {
        let ok = Speedups {
            match_vs_naive: 2.5,
            frozen_range_vs_dynamic: 1.4,
            frozen_knn_vs_dynamic: 1.1,
            oracle_vs_frozen_range: 3.0,
            frozen_range_lanes_vs_scalar: 1.6,
            segment_distance_batch_vs_scalar: 2.1,
            raster_burn_vs_serial: 1.9,
        };
        assert!(!ok.any_regressed());
        let slow_frozen = Speedups {
            frozen_range_vs_dynamic: 0.8,
            ..ok
        };
        assert!(slow_frozen.any_regressed());
        let missing_kernel = Speedups {
            frozen_knn_vs_dynamic: f64::NAN,
            ..ok
        };
        assert!(missing_kernel.any_regressed());
        let slow_oracle = Speedups {
            oracle_vs_frozen_range: 0.5,
            ..ok
        };
        assert!(slow_oracle.any_regressed());
        let slow_lanes = Speedups {
            frozen_range_lanes_vs_scalar: 0.7,
            ..ok
        };
        assert!(slow_lanes.any_regressed());
        let slow_raster = Speedups {
            raster_burn_vs_serial: 0.85,
            ..ok
        };
        assert!(slow_raster.any_regressed());
    }
}
