//! Probe points at and beyond the edges of an indexed area, shared by the
//! unit tests that pin the oracle read paths to their tree references.

use semitri_geo::{Point, Rect};

/// The next representable `f64` above `x` (`+∞` and NaN map to
/// themselves).
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        x
    } else if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// Probe coordinates along one axis of `[lo, hi]`: NaN, `±∞`, `±1e300`,
/// both edges and the middle, and `edge ± {r, 2r, 250 m, 10⁶ m}` — each
/// finite value also one ulp either side.
fn axis(lo: f64, hi: f64, r: f64) -> Vec<f64> {
    let mut base = vec![lo, hi, (lo + hi) * 0.5];
    for d in [r, 2.0 * r, 250.0, 1e6] {
        base.extend([lo - d, lo + d, hi - d, hi + d]);
    }
    let mut out = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300];
    for x in base {
        out.extend([-next_up(-x), x, next_up(x)]);
    }
    out
}

/// Every pairing of [`axis`] probes of `b`'s x and y extents: edges,
/// corners, the ulps around them, far-out and non-finite points.
pub(crate) fn edge_probes(b: Rect, r: f64) -> Vec<Point> {
    let ys = axis(b.min_y, b.max_y, r);
    axis(b.min_x, b.max_x, r)
        .into_iter()
        .flat_map(|x| ys.iter().map(move |&y| Point::new(x, y)))
        .collect()
}
