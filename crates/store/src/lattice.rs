//! The lattice posting index behind the store's rect windows.
//!
//! Level `l` tiles the plane into square cells of pitch
//! `CELL_PITCH · 2^l`, keyed by `(⌊x / pitch⌋, ⌊y / pitch⌋)`. A row goes to
//! the smallest level at which its bbox spans at most 2×2 cells and is
//! appended to the posting list of each cell it touches, so every list
//! stays in ascending row order. Rows that are non-finite, or wider than
//! two cells of the top level, go to one `unbounded` list that every query
//! reads. Rows that are empty or hold a NaN are never indexed: the store's
//! row predicate rejects them whatever the window.
//!
//! A query marks candidates in a bitmap over row ids and then walks the set
//! bits in ascending order, so the caller sees candidates in storage order
//! however many cells and levels listed them.
//!
//! Why no row is missed: a row and a window that intersect share a point
//! `p`, and `⌊v / pitch⌋` is monotone in `v` (float division by a positive
//! pitch and the saturating cast both are), so `p`'s cell lies in the row's
//! cell range and in the window's at every level — in particular at the
//! level the row was filed under.

use crate::column::BuildFixedHasher;
use semitri_geo::Rect;
use std::collections::HashMap;

/// Cell pitch of level 0, in metres: above the extent of a typical stop,
/// so a stop lands in one to four level-0 cells.
pub const CELL_PITCH: f64 = 128.0;

/// Number of levels; the top one's pitch is `CELL_PITCH · 2^(LEVELS-1)`,
/// about 4 200 km.
pub const LEVELS: usize = 16;

type Cells = HashMap<(i64, i64), Vec<u32>, BuildFixedHasher>;

/// Multi-level posting lists over row bboxes, plus the reusable candidate
/// bitmap.
#[derive(Debug, Default)]
pub struct LatticeIndex {
    /// `levels[l]`: occupied cells of level `l` and their row lists.
    levels: [Cells; LEVELS],
    /// Rows no level holds (non-finite, or too wide for the top level).
    unbounded: Vec<u32>,
    /// Candidate bitmap over row ids, all zero between queries.
    marks: Vec<u64>,
}

/// Cell coordinate of `v` at `level` (saturating for huge `v`).
#[inline]
fn cell(v: f64, level: usize) -> i64 {
    (v / (CELL_PITCH * (1u64 << level) as f64)).floor() as i64
}

/// Inclusive cell ranges `(x0, x1, y0, y1)` a box touches at `level`.
#[inline]
fn cell_range(r: &Rect, level: usize) -> (i64, i64, i64, i64) {
    (
        cell(r.min_x, level),
        cell(r.max_x, level),
        cell(r.min_y, level),
        cell(r.max_y, level),
    )
}

impl LatticeIndex {
    /// Files row `row` (ids must arrive in ascending order) under its bbox.
    pub fn insert(&mut self, row: u32, bbox: &Rect) {
        let words = row as usize / 64 + 1;
        if self.marks.len() < words {
            self.marks.resize(words, 0);
        }
        let coords = [bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y];
        if coords.iter().any(|v| v.is_nan()) || bbox.is_empty() {
            return; // the row predicate rejects it for every window
        }
        if coords.iter().any(|v| v.is_infinite()) {
            self.unbounded.push(row);
            return;
        }
        for (level, cells) in self.levels.iter_mut().enumerate() {
            let (x0, x1, y0, y1) = cell_range(bbox, level);
            if x1.abs_diff(x0) > 1 || y1.abs_diff(y0) > 1 {
                continue;
            }
            for cx in x0..=x1 {
                for cy in y0..=y1 {
                    cells.entry((cx, cy)).or_default().push(row);
                }
            }
            return;
        }
        self.unbounded.push(row);
    }

    /// Calls `f` once per candidate row for `window`, in ascending row
    /// order. Every row whose bbox intersects the window is a candidate;
    /// so may be rows that do not. Returns the number of candidates.
    pub fn for_each_candidate(&mut self, window: &Rect, mut f: impl FnMut(usize)) -> u64 {
        let ordered = window.min_x <= window.max_x && window.min_y <= window.max_y;
        if !ordered {
            return 0; // empty or NaN: no row intersects it
        }
        let marks = &mut self.marks;
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        let mut mark = |rows: &[u32]| {
            if let (Some(&first), Some(&last)) = (rows.first(), rows.last()) {
                lo = lo.min(first as usize / 64);
                hi = hi.max(last as usize / 64);
            }
            for &r in rows {
                marks[r as usize / 64] |= 1u64 << (r % 64);
            }
        };
        for (level, cells) in self.levels.iter().enumerate() {
            if cells.is_empty() {
                continue;
            }
            let (x0, x1, y0, y1) = cell_range(window, level);
            let covered =
                (u128::from(x1.abs_diff(x0)) + 1).saturating_mul(u128::from(y1.abs_diff(y0)) + 1);
            if covered > cells.len() as u128 {
                // the window covers more cells than the level holds
                for (&(cx, cy), rows) in cells {
                    if (x0..=x1).contains(&cx) && (y0..=y1).contains(&cy) {
                        mark(rows);
                    }
                }
            } else {
                for cx in x0..=x1 {
                    for cy in y0..=y1 {
                        if let Some(rows) = cells.get(&(cx, cy)) {
                            mark(rows);
                        }
                    }
                }
            }
        }
        mark(&self.unbounded);
        if lo > hi {
            return 0; // nothing marked
        }
        let mut candidates = 0u64;
        for (w, word) in marks[lo..=hi].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            candidates += u64::from(bits.count_ones());
            while bits != 0 {
                f((lo + w) * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A box as written, NaN and inverted corners included (`Rect::new`
    /// would normalize them away).
    fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Rect {
        Rect {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    fn filed(index: &LatticeIndex, row: u32) -> Vec<(usize, i64, i64)> {
        let mut at = Vec::new();
        for (level, cells) in index.levels.iter().enumerate() {
            for (&(cx, cy), rows) in cells {
                if rows.contains(&row) {
                    at.push((level, cx, cy));
                }
            }
        }
        at.sort_unstable();
        at
    }

    #[test]
    fn rows_land_on_the_smallest_level_spanning_at_most_two_by_two_cells() {
        let mut index = LatticeIndex::default();
        // inside one level-0 cell
        index.insert(0, &Rect::new(10.0, 10.0, 20.0, 20.0));
        assert_eq!(filed(&index, 0), vec![(0, 0, 0)]);
        // straddles a level-0 corner: four cells
        index.insert(1, &Rect::new(120.0, 120.0, 130.0, 130.0));
        assert_eq!(
            filed(&index, 1),
            vec![(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)]
        );
        // 300 m wide: three level-0 columns, two level-1 columns
        index.insert(2, &Rect::new(0.0, 0.0, 300.0, 10.0));
        assert_eq!(filed(&index, 2), vec![(1, 0, 0), (1, 1, 0)]);
        // a point on a negative cell edge
        index.insert(3, &Rect::new(-128.0, -0.5, -128.0, -0.5));
        assert_eq!(filed(&index, 3), vec![(0, -1, -1)]);
        // non-finite and too-wide rows go unbounded; empty and NaN nowhere
        index.insert(4, &Rect::new(0.0, 0.0, f64::INFINITY, 1.0));
        index.insert(5, &Rect::new(-1e12, 0.0, 1e12, 1.0));
        index.insert(6, &Rect::EMPTY);
        index.insert(7, &rect(f64::NAN, 0.0, 1.0, 1.0));
        assert_eq!(index.unbounded, vec![4, 5]);
        assert!(filed(&index, 6).is_empty() && filed(&index, 7).is_empty());
    }

    #[test]
    fn candidates_come_once_each_in_ascending_order() {
        let mut index = LatticeIndex::default();
        let boxes = [
            Rect::new(120.0, 120.0, 130.0, 130.0), // four cells
            Rect::new(0.0, 0.0, 300.0, 10.0),      // level 1
            Rect::new(5_000.0, 5_000.0, 5_001.0, 5_001.0),
            Rect::new(0.0, 0.0, f64::INFINITY, 1.0), // unbounded
            Rect::new(64.0, 64.0, 65.0, 65.0),
        ];
        for (i, b) in boxes.iter().enumerate() {
            index.insert(i as u32, b);
        }
        let mut seen = Vec::new();
        let n = index.for_each_candidate(&Rect::new(0.0, 0.0, 200.0, 200.0), |r| seen.push(r));
        assert_eq!(seen, vec![0, 1, 3, 4]);
        assert_eq!(n, 4);
        // the bitmap is clean again: a disjoint window sees only unbounded
        seen.clear();
        index.for_each_candidate(&Rect::new(9e3, 9e3, 9.1e3, 9.1e3), |r| seen.push(r));
        assert_eq!(seen, vec![3]);
        // a city-sized window walks occupied cells and finds everything
        seen.clear();
        index.for_each_candidate(&Rect::new(-1e9, -1e9, 1e9, 1e9), |r| seen.push(r));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // empty and NaN windows list nothing
        assert_eq!(index.for_each_candidate(&Rect::EMPTY, |_| panic!()), 0);
        let nan = rect(f64::NAN, 0.0, 1.0, 1.0);
        assert_eq!(index.for_each_candidate(&nan, |_| panic!()), 0);
    }
}
