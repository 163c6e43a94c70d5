//! Fixed-width lane-wise kernels for the hot annotation loops.
//!
//! The paper's Equation (1) point–segment distance is pure element-wise
//! arithmetic, so instead of calling [`Segment`] methods one segment at a
//! time this module restructures it into fixed-width chunked passes
//! over structure-of-arrays coordinate lanes: each 8-wide
//! chunk is a `[f64; 8]` subslice processed by a branchless body that the
//! stable-Rust autovectorizer can lower to packed SIMD, with a scalar
//! remainder tail.
//!
//! No production path calls it: the map matcher sees about three
//! candidates per fix, too few to fill a chunk, and evaluates
//! [`Segment::distance_to_point`] inside its fused candidate pass. The
//! `hotpath` bench keeps the kernel's row against the scalar reference.
//!
//! # Bit-identity contract
//!
//! Every lane kernel in this module performs *exactly* the per-element
//! arithmetic of the scalar reference it replaces, in the same order, with
//! no reassociation: chunking only changes which elements are in flight
//! together, never the expression evaluated for any one element. The
//! property tests in this module enforce bit-identity against
//! [`Segment::distance_to_point`] / [`Segment::distance_sq_to_point`]
//! across chunk widths, slab lengths and remainder tails.

use crate::point::Point;
use crate::segment::Segment;

/// Lane width of the chunked kernels: 8 × f64 = one AVX-512 register or two
/// AVX2 registers, and a comfortable unroll for SSE2. The width is a
/// compile-time constant so LLVM sees fixed-trip-count inner loops.
pub const LANES: usize = 8;

/// A structure-of-arrays slab of segments, the input layout of the batched
/// point–segment distance kernel.
///
/// Endpoint coordinates split into four coordinate lanes; Equation (1)
/// for the whole slab runs in one chunked pass instead of one
/// [`Segment::distance_to_point`] call per segment.
#[derive(Debug, Clone, Default)]
pub struct SegmentLanes {
    ax: Vec<f64>,
    ay: Vec<f64>,
    bx: Vec<f64>,
    by: Vec<f64>,
}

/// The per-element Equation (1) body, generic over the chunk width so the
/// property tests can sweep widths; the public entry points instantiate
/// `W = LANES`. The arithmetic chain — `project_param`, select on the
/// degenerate segment, `clamp`, `lerp` (which recomputes the deltas, as
/// [`Point::lerp`] does), squared distance — mirrors
/// [`Segment::distance_sq_to_point`] expression for expression, so each
/// element is bit-identical to the scalar reference.
#[inline(always)]
fn eq1_distance_sq_chunk<const W: usize>(
    ax: &[f64; W],
    ay: &[f64; W],
    bx: &[f64; W],
    by: &[f64; W],
    qx: f64,
    qy: f64,
    out: &mut [f64; W],
) {
    for i in 0..W {
        let abx = bx[i] - ax[i];
        let aby = by[i] - ay[i];
        let len_sq = abx * abx + aby * aby;
        // fdiv is speculation-safe: divide unconditionally, select away the
        // degenerate-segment lane afterwards (same value as the scalar
        // early-return since the selected operand is untouched).
        let t_raw = ((qx - ax[i]) * abx + (qy - ay[i]) * aby) / len_sq;
        let t = if len_sq == 0.0 { 0.0 } else { t_raw };
        let t = t.clamp(0.0, 1.0);
        let cx = ax[i] + (bx[i] - ax[i]) * t;
        let cy = ay[i] + (by[i] - ay[i]) * t;
        let dx = qx - cx;
        let dy = qy - cy;
        out[i] = dx * dx + dy * dy;
    }
}

/// Chunked Equation (1) squared distances at an arbitrary width, shared by
/// the `W = LANES` public path and the width-sweeping property tests.
fn distances_sq_impl<const W: usize>(lanes: &SegmentLanes, q: Point, out: &mut Vec<f64>) {
    let n = lanes.len();
    out.clear();
    out.resize(n, 0.0);
    let chunks = n / W * W;
    for base in (0..chunks).step_by(W) {
        let ax: &[f64; W] = lanes.ax[base..base + W].try_into().unwrap();
        let ay: &[f64; W] = lanes.ay[base..base + W].try_into().unwrap();
        let bx: &[f64; W] = lanes.bx[base..base + W].try_into().unwrap();
        let by: &[f64; W] = lanes.by[base..base + W].try_into().unwrap();
        let oc: &mut [f64; W] = (&mut out[base..base + W]).try_into().unwrap();
        eq1_distance_sq_chunk(ax, ay, bx, by, q.x, q.y, oc);
    }
    // Remainder tail: the scalar reference itself, element by element.
    for (i, o) in out.iter_mut().enumerate().skip(chunks) {
        *o = lanes.segment(i).distance_sq_to_point(q);
    }
}

impl SegmentLanes {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes all segments, keeping the lane allocations.
    pub fn clear(&mut self) {
        self.ax.clear();
        self.ay.clear();
        self.bx.clear();
        self.by.clear();
    }

    /// Appends a segment to the slab.
    pub fn push(&mut self, s: Segment) {
        self.ax.push(s.a.x);
        self.ay.push(s.a.y);
        self.bx.push(s.b.x);
        self.by.push(s.b.y);
    }

    /// Number of segments in the slab.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ax.len()
    }

    /// `true` if the slab holds no segments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ax.is_empty()
    }

    /// Reassembles the `i`-th segment (tail path and tests).
    #[must_use]
    pub fn segment(&self, i: usize) -> Segment {
        Segment::new(
            Point::new(self.ax[i], self.ay[i]),
            Point::new(self.bx[i], self.by[i]),
        )
    }

    /// Squared Equation (1) distance from `q` to every segment in the slab,
    /// evaluated in 8-wide chunks. `out` is cleared and resized; each
    /// element is bit-identical to
    /// [`Segment::distance_sq_to_point`]`(q)` on the corresponding segment.
    pub fn distances_sq_to_point(&self, q: Point, out: &mut Vec<f64>) {
        distances_sq_impl::<LANES>(self, q, out);
    }

    /// Equation (1) distance (with the root) from `q` to every segment,
    /// bit-identical per element to [`Segment::distance_to_point`]`(q)`.
    ///
    /// The root is taken in a second lane pass over the squared distances:
    /// `sqrt` is correctly rounded, so `d_sq.sqrt()` equals the scalar
    /// chain's final `sqrt` bit for bit.
    pub fn distances_to_point(&self, q: Point, out: &mut Vec<f64>) {
        self.distances_sq_to_point(q, out);
        let chunks = out.len() / LANES * LANES;
        for base in (0..chunks).step_by(LANES) {
            let oc: &mut [f64; LANES] = (&mut out[base..base + LANES]).try_into().unwrap();
            for v in oc.iter_mut() {
                *v = v.sqrt();
            }
        }
        for v in &mut out[chunks..] {
            *v = v.sqrt();
        }
    }

    /// Width-`W` variant of [`SegmentLanes::distances_sq_to_point`], used
    /// by the chunk-width × slab-length × tail property matrix.
    pub fn distances_sq_to_point_width<const W: usize>(&self, q: Point, out: &mut Vec<f64>) {
        distances_sq_impl::<W>(self, q, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn slab(n: usize, salt: f64) -> SegmentLanes {
        let mut lanes = SegmentLanes::new();
        for i in 0..n {
            let f = i as f64;
            lanes.push(Segment::new(
                Point::new(f * 13.7 - salt, (f * 7.3).sin() * 500.0),
                Point::new(f * 13.7 + 90.0, (f * 3.1).cos() * 500.0 + salt),
            ));
        }
        lanes
    }

    #[test]
    fn batched_distances_match_scalar_bitwise() {
        let lanes = slab(37, 4.25); // 4 full chunks + tail of 5
        let q = Point::new(123.5, -42.0);
        let mut d = Vec::new();
        let mut d_sq = Vec::new();
        lanes.distances_to_point(q, &mut d);
        lanes.distances_sq_to_point(q, &mut d_sq);
        for i in 0..lanes.len() {
            let s = lanes.segment(i);
            assert_eq!(d[i].to_bits(), s.distance_to_point(q).to_bits(), "lane {i}");
            assert_eq!(d_sq[i].to_bits(), s.distance_sq_to_point(q).to_bits());
        }
    }

    #[test]
    fn degenerate_segment_lane_matches_scalar() {
        let mut lanes = SegmentLanes::new();
        for _ in 0..9 {
            lanes.push(Segment::new(Point::new(3.0, 4.0), Point::new(3.0, 4.0)));
        }
        let q = Point::new(0.0, 0.0);
        let mut d = Vec::new();
        lanes.distances_to_point(q, &mut d);
        for v in d {
            assert_eq!(v.to_bits(), 5.0f64.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Chunk width × slab length × remainder tail: every width agrees
        /// bitwise with the scalar reference on every element, including
        /// tails of every residue class.
        #[test]
        fn chunked_kernel_bitwise_identity_matrix(
            n in 0usize..40,
            coords in proptest::collection::vec(-5000.0f64..5000.0, 0..164),
            qx in -5000.0f64..5000.0,
            qy in -5000.0f64..5000.0,
        ) {
            let mut lanes = SegmentLanes::new();
            for i in 0..n {
                let c = |j: usize| coords.get((i * 4 + j) % coords.len().max(1)).copied().unwrap_or(0.0);
                lanes.push(Segment::new(Point::new(c(0), c(1)), Point::new(c(2), c(3))));
            }
            let q = Point::new(qx, qy);
            let reference: Vec<f64> =
                (0..n).map(|i| lanes.segment(i).distance_sq_to_point(q)).collect();
            let mut out = Vec::new();
            macro_rules! check_width {
                ($w:literal) => {
                    lanes.distances_sq_to_point_width::<$w>(q, &mut out);
                    prop_assert_eq!(out.len(), n);
                    for i in 0..n {
                        prop_assert_eq!(out[i].to_bits(), reference[i].to_bits());
                    }
                };
            }
            check_width!(1);
            check_width!(2);
            check_width!(4);
            check_width!(8);
            check_width!(16);
        }
    }
}
