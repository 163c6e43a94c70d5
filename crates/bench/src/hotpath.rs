//! `hotpath` — tracked microbenchmarks of the `geo` / `index` kernels that
//! no rung of the ladder benchmark (`benchmark/`) measures on its own.
//!
//! The ladder times every annotation layer, the pipeline, the server and
//! the store from outside, on one corpus and one machine. What it cannot
//! see is a kernel below a layer: the candidate oracle against the frozen
//! tree walk it replaced, the frozen tree's kNN, and the batched
//! [`SegmentLanes`] distance slab against per-segment scalar calls. This
//! module keeps exactly those rows, reporting the median nanoseconds per
//! work unit over repeated samples, each next to its committed
//! `BENCH_annotation.json` median.
//!
//! With `--bench-json PATH` the results are written as a machine-readable
//! JSON document (`BENCH_annotation.json` is the tracked baseline at the
//! repo root); `--quick` shrinks the probe set and sample count for CI
//! smoke runs. The run fails (returns `false`, non-zero process exit)
//! when either paired kernel — the oracle vs the frozen tree walk, or the
//! batched distances vs the scalar segments — is more than 10% *slower*
//! than its reference.

use crate::util::{header, Table};
use semitri::geo::{Segment, SegmentLanes};
use semitri::index::{CellOracle, FrozenNearestScratch, FrozenRStarTree, FrozenRangeScratch};
use semitri::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Options parsed from the experiment driver's command line.
#[derive(Debug, Default)]
pub struct HotpathOptions {
    /// Shrink the probe set and sample counts for a CI smoke run.
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

/// Committed `BENCH_annotation.json` medians (ns per unit), one per kept
/// kernel. The run prints each kernel's ratio against its entry and the
/// JSON repeats the entry as `baseline_ns_per_unit`, so a change is judged
/// against recorded history, not only against whatever reference happens
/// to run beside it.
const COMMITTED_BASELINES: [(&str, f64); 5] = [
    ("oracle_candidates", 49.9),
    ("frozen_rtree_range", 127.5),
    ("frozen_rtree_knn", 1046.7),
    ("segment_distance_batch", 3.1),
    ("segment_distance_scalar", 3.9),
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
pub fn run(opts: &HotpathOptions) -> bool {
    header("Hotpath — geo/index kernel microbenchmarks");
    let samples = if opts.quick { 3 } else { 7 };

    // Probes come from dense 1 Hz walking legs through a downtown-density
    // street grid (120 m blocks, the paper's Milan regime), so every
    // 60 m candidate window stays busy — the regime the frozen layout and
    // the oracle target.
    let downtown = City::generate(CityConfig {
        bounds: Rect::new(0.0, 0.0, 4_000.0, 4_000.0),
        block: 120.0,
        poi_count: 800,
        ..CityConfig::default()
    });
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
    let dense_probes: Vec<Point> = walks
        .iter()
        .flat_map(|w| w.iter())
        .step_by(3)
        .map(|r| r.point)
        .collect();
    println!(
        "  probes: {} points from dense 1 Hz walks, 120 m blocks (quick={})",
        dense_probes.len(),
        opts.quick
    );

    let mut results: Vec<KernelResult> = Vec::new();

    // --- precomputed oracle: O(1) slab lookup vs the frozen tree walk ---
    // The oracle is built over the very frozen tree the other leg walks,
    // with the same 60 m query radius, so both legs answer the identical
    // candidate question on the identical probes — the ratio is purely
    // slab-lookup vs tree-walk. A slot holds only the segment id; the
    // oracle leg reads each box from an id-indexed table, as the matcher
    // derives it from its id-indexed geometry.
    let seg_boxes: Vec<Rect> = downtown
        .roads
        .segments()
        .iter()
        .map(|s| s.geometry.bbox())
        .collect();
    let frozen_seg_tree =
        FrozenRStarTree::bulk_load(seg_boxes.iter().copied().zip(0u32..).collect());
    let mut frozen_range_scratch = FrozenRangeScratch::new();
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
            for &id in seg_oracle.candidates(p).expect("probes are finite") {
                if seg_boxes[id as usize].intersects(&window) {
                    via_oracle += id as usize & 1;
                }
            }
            frozen_seg_tree.for_each_in_with(&mut frozen_range_scratch, &window, |_, &id| {
                via_tree += id as usize & 1
            });
        }
        assert_eq!(via_oracle, via_tree, "oracle/tree candidate sets diverged");
    }
    let (oracle_cand, frz_range) = bench_pair(
        "oracle_candidates",
        "frozen_rtree_range",
        "query",
        samples,
        || {
            let mut hits = 0usize;
            for &p in &dense_probes {
                let window = Rect::from_point(p).inflate(60.0);
                if let Some(items) = seg_oracle.candidates(p) {
                    for &id in items {
                        if seg_boxes[id as usize].intersects(&window) {
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
    results.push(frz_range);

    // kNN is benched in the point layer's shape — k nearest POI centers
    // under plain point distance (the per-stop retrieval of Algorithm 2) —
    // so the row measures the index traversal and heap, not the segment
    // geometry kernel.
    let frozen_poi_tree = FrozenRStarTree::bulk_load(
        downtown
            .pois
            .pois()
            .iter()
            .map(|poi| (Rect::from_point(poi.point), poi.point))
            .collect(),
    );
    let mut knn_scratch = FrozenNearestScratch::new();
    results.push(bench("frozen_rtree_knn", "query", samples, || {
        for &p in &dense_probes {
            black_box(frozen_poi_tree.nearest_by_with(&mut knn_scratch, p, 4, |c| c.distance(p)));
        }
        dense_probes.len()
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

    let ns_of = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
            .unwrap_or(f64::NAN)
    };
    let speedups = Speedups {
        oracle_vs_frozen_range: ns_of("frozen_rtree_range") / ns_of("oracle_candidates"),
        segment_distance_batch_vs_scalar: ns_of("segment_distance_scalar")
            / ns_of("segment_distance_batch"),
    };
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
        "  oracle candidate slab speedup vs frozen rtree_range: {:.2}x",
        speedups.oracle_vs_frozen_range
    );
    println!(
        "  segment_distance_batch speedup vs scalar segments: {:.2}x",
        speedups.segment_distance_batch_vs_scalar
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
    if regression {
        println!("  REGRESSION: a tracked kernel is >10% slower than its paired reference");
    }

    if let Some(path) = &opts.json_path {
        let json = render_json(&results, opts.quick, &speedups, &arena, regression);
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

/// The paired-kernel speedup ratios the regression marker watches.
struct Speedups {
    /// Precomputed per-cell candidate slab vs the frozen tree walk it
    /// replaces, measured interleaved on identical probes and windows.
    oracle_vs_frozen_range: f64,
    /// Batched SoA point-segment distance slab vs per-segment scalar calls.
    segment_distance_batch_vs_scalar: f64,
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
    /// True when either paired kernel runs >10% slower than its reference
    /// (a NaN ratio — a missing kernel — also counts as regressed).
    fn any_regressed(&self) -> bool {
        [
            self.oracle_vs_frozen_range,
            self.segment_distance_batch_vs_scalar,
        ]
        .iter()
        .any(|s| s.is_nan() || *s < 0.9)
    }
}

/// Renders the results document by hand (no JSON dependency in-tree).
fn render_json(
    results: &[KernelResult],
    quick: bool,
    speedups: &Speedups,
    arena: &OracleArena,
    regression: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"hotpath\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
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
        "  \"oracle_candidates_speedup_vs_frozen_range\": {:.2},\n",
        speedups.oracle_vs_frozen_range
    ));
    out.push_str(&format!(
        "  \"segment_distance_batch_speedup_vs_scalar\": {:.2},\n",
        speedups.segment_distance_batch_vs_scalar
    ));
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
                name: "frozen_rtree_knn",
                unit: "query",
                median_ns: 1000.0,
                samples: 3,
                units: 3268,
            },
        ];
        let speedups = Speedups {
            oracle_vs_frozen_range: 3.2,
            segment_distance_batch_vs_scalar: 2.1,
        };
        let arena = OracleArena {
            cells: 4489,
            slots: 60000,
            arena_bytes: 2_000_000,
            bytes_per_cell: 445.5,
        };
        let s = render_json(&rs, true, &speedups, &arena, false);
        assert!(s.contains("\"oracle_candidates_speedup_vs_frozen_range\": 3.20"));
        assert!(s.contains("\"segment_distance_batch_speedup_vs_scalar\": 2.10"));
        assert!(s.contains("\"oracle_cells\": 4489"));
        assert!(s.contains("\"oracle_slots\": 60000"));
        assert!(s.contains("\"oracle_arena_bytes\": 2000000"));
        assert!(s.contains("\"oracle_bytes_per_cell\": 445.5"));
        assert!(
            s.contains("\"median_ns_per_unit\": 12.3, \"samples\": 3, \"units_per_sample\": 100},")
        );
        // a kernel with a committed median carries it along
        assert!(s.contains("\"units_per_sample\": 3268, \"baseline_ns_per_unit\": 1046.7}\n"));
        assert!(s.ends_with("}\n"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn regression_marker_trips_on_any_pair() {
        let ok = Speedups {
            oracle_vs_frozen_range: 3.0,
            segment_distance_batch_vs_scalar: 1.27,
        };
        assert!(!ok.any_regressed());
        let slow_oracle = Speedups {
            oracle_vs_frozen_range: 0.5,
            ..ok
        };
        assert!(slow_oracle.any_regressed());
        let slow_batch = Speedups {
            segment_distance_batch_vs_scalar: 0.85,
            ..ok
        };
        assert!(slow_batch.any_regressed());
        let missing_kernel = Speedups {
            segment_distance_batch_vs_scalar: f64::NAN,
            ..ok
        };
        assert!(missing_kernel.any_regressed());
    }
}
