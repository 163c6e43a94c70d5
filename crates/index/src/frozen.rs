//! An immutable, cache-packed snapshot of an [`RStarTree`].
//!
//! The annotation pipeline builds its spatial indexes once per city and
//! then reads them millions of times (one region probe and one candidate
//! window per GPS fix, one POI lookup per stop). The dynamic tree pays a
//! pointer chase through `Box<Node>` heap allocations on every level of
//! every query; [`FrozenRStarTree`] removes that cost with the classic
//! read-optimized flat layout:
//!
//! * **node arena** — all nodes live in one `Vec`, in BFS order (root at
//!   index 0), so a parent's children are contiguous and visited by index
//!   arithmetic instead of pointer dereferences;
//! * **CSR child ranges** — each node stores a `start..end` range into
//!   the arena (internal nodes) or into the entry slab (leaves);
//! * **SoA bounding boxes** — node boxes are split into `min_x[] /
//!   min_y[] / max_x[] / max_y[]` arrays, so the pruning test reads four
//!   flat `f64` lanes with no struct padding between siblings;
//! * **entry slab** — leaf entries (`Rect` + item) are packed into
//!   parallel contiguous vectors, one leaf after another, with an SoA
//!   mirror of the entry boxes so the leaf scan is compare-only and the
//!   `Rect`/item slabs are touched only on hits.
//!
//! **Order identity.** Every query reproduces the dynamic tree's result
//! *order* bit for bit, not just its result set: ranges visit children
//! depth-first in stored order (the freeze preserves the dynamic child
//! order, and the iterative stack pushes in reverse exactly like
//! [`RStarTree::for_each_in_with`]), and nearest-neighbor search drives
//! an identical best-first heap — same push sequence, same
//! distance-only comparator, so equal-distance ties break the same way.
//! The property suite in `tests/properties.rs` asserts both identities
//! against the dynamic tree, which is what lets every annotation layer
//! read the snapshot in place of the tree it was built from without
//! changing a single output byte.

use crate::rstar::{Node, RStarTree};
use semitri_geo::{Point, Rect};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::VecDeque;

/// A reusable traversal stack for [`FrozenRStarTree::for_each_in_with`].
///
/// Unlike [`RangeScratch`](crate::RangeScratch) this holds plain `u32`
/// arena indexes, not borrows — so it carries no lifetime and can live
/// inside long-lived scratch arenas (e.g. the matcher's `MatchScratch`)
/// across queries and across trees.
#[derive(Debug, Default)]
pub struct FrozenRangeScratch {
    stack: Vec<u32>,
}

impl FrozenRangeScratch {
    /// Creates an empty scratch stack (no allocation until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Stack slots currently reserved (diagnostics/tests).
    pub fn capacity(&self) -> usize {
        self.stack.capacity()
    }
}

/// Best-first candidate of the frozen nearest-neighbor search: an arena
/// node or an entry-slab item, both by index.
#[derive(Debug, Clone, Copy)]
enum FrozenCand {
    Node(u32),
    Item(u32),
}

/// Heap entry mirroring the dynamic tree's: ordering compares the
/// distance only (reversed for min-first), ties are `Equal`. Identical
/// push sequences through an identical comparator make the pop order —
/// and therefore the query result order — bit-identical to the dynamic
/// tree's.
#[derive(Debug, Clone, Copy)]
struct FrozenHeapEntry {
    dist: f64,
    cand: FrozenCand,
}

impl PartialEq for FrozenHeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for FrozenHeapEntry {}
impl PartialOrd for FrozenHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrozenHeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we need min-first
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

/// Reusable heap storage for [`FrozenRStarTree::nearest_by_with`].
/// Lifetime-free (indexes, not borrows), so it can be embedded in
/// long-lived per-worker scratch state.
#[derive(Debug, Default)]
pub struct FrozenNearestScratch {
    heap_buf: Vec<FrozenHeapEntry>,
}

impl FrozenNearestScratch {
    /// Creates an empty scratch (no allocation until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap slots currently reserved (diagnostics/tests).
    pub fn capacity(&self) -> usize {
        self.heap_buf.capacity()
    }
}

/// The immutable flat snapshot of an [`RStarTree`]. Build once with
/// [`RStarTree::freeze`] (or [`FrozenRStarTree::from_dynamic`]), share
/// freely across threads (`&self` queries only), and get the dynamic
/// tree's exact results — values *and* visit order — at flat-array cost.
///
/// ```
/// use semitri_geo::{Point, Rect};
/// use semitri_index::{FrozenRStarTree, RStarTree};
///
/// let mut tree = RStarTree::new();
/// tree.insert(Rect::new(0.0, 0.0, 1.0, 1.0), "cell a");
/// tree.insert(Rect::new(5.0, 5.0, 6.0, 6.0), "cell b");
/// let frozen = tree.freeze();
/// let mut hits = Vec::new();
/// frozen.for_each_in(&Rect::new(0.5, 0.5, 2.0, 2.0), |_, &name| hits.push(name));
/// assert_eq!(hits, vec!["cell a"]);
/// ```
#[derive(Debug, Clone)]
pub struct FrozenRStarTree<T> {
    /// `true` when the arena node is a leaf.
    leaf: Vec<bool>,
    /// CSR range start: first child arena index (internal) or first entry
    /// slab index (leaf).
    start: Vec<u32>,
    /// CSR range end (exclusive), same space as `start`.
    end: Vec<u32>,
    /// Node bounding boxes, SoA.
    nmin_x: Vec<f64>,
    nmin_y: Vec<f64>,
    nmax_x: Vec<f64>,
    nmax_y: Vec<f64>,
    /// Entry rectangles, one contiguous slab (leaf after leaf).
    entry_rects: Vec<Rect>,
    /// Entry bounding boxes, SoA mirror of `entry_rects` — the leaf scan
    /// reads these four flat lanes and touches the `Rect` slab only on a
    /// hit.
    emin_x: Vec<f64>,
    emin_y: Vec<f64>,
    emax_x: Vec<f64>,
    emax_y: Vec<f64>,
    /// Entry items, parallel to `entry_rects`.
    items: Vec<T>,
    len: usize,
    height: usize,
    bbox: Rect,
}

impl<T> FrozenRStarTree<T> {
    /// Flattens a dynamic tree into the frozen layout in one BFS pass.
    ///
    /// Nodes are numbered in BFS order, so every node's children occupy a
    /// contiguous arena range in the same relative order the dynamic tree
    /// stored them — the invariant the order-identity contract rests on.
    pub fn from_dynamic(tree: RStarTree<T>) -> Self {
        let n_nodes_hint = tree.len() / 16 + 2;
        let (root, len, height, bbox) = tree.into_parts();
        let mut f = Self {
            leaf: Vec::with_capacity(n_nodes_hint),
            start: Vec::with_capacity(n_nodes_hint),
            end: Vec::with_capacity(n_nodes_hint),
            nmin_x: Vec::with_capacity(n_nodes_hint),
            nmin_y: Vec::with_capacity(n_nodes_hint),
            nmax_x: Vec::with_capacity(n_nodes_hint),
            nmax_y: Vec::with_capacity(n_nodes_hint),
            entry_rects: Vec::with_capacity(len),
            emin_x: Vec::with_capacity(len),
            emin_y: Vec::with_capacity(len),
            emax_x: Vec::with_capacity(len),
            emax_y: Vec::with_capacity(len),
            items: Vec::with_capacity(len),
            len,
            height,
            bbox,
        };
        // BFS: the queue pops nodes in exactly arena-index order, so the
        // running `assigned` counter prices each node's child range before
        // the children themselves are processed
        let mut queue: VecDeque<(Node<T>, Rect)> = VecDeque::new();
        queue.push_back((root, bbox));
        let mut assigned: u32 = 1;
        while let Some((node, rect)) = queue.pop_front() {
            f.nmin_x.push(rect.min_x);
            f.nmin_y.push(rect.min_y);
            f.nmax_x.push(rect.max_x);
            f.nmax_y.push(rect.max_y);
            match node {
                Node::Leaf(es) => {
                    f.leaf.push(true);
                    f.start.push(f.items.len() as u32);
                    for e in es {
                        f.entry_rects.push(e.rect);
                        f.emin_x.push(e.rect.min_x);
                        f.emin_y.push(e.rect.min_y);
                        f.emax_x.push(e.rect.max_x);
                        f.emax_y.push(e.rect.max_y);
                        f.items.push(e.item);
                    }
                    f.end.push(f.items.len() as u32);
                }
                Node::Internal(cs) => {
                    f.leaf.push(false);
                    f.start.push(assigned);
                    assigned += cs.len() as u32;
                    f.end.push(assigned);
                    for c in cs {
                        queue.push_back((*c.node, c.rect));
                    }
                }
            }
        }
        debug_assert_eq!(f.items.len(), f.len);
        f
    }

    /// Number of stored items.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the snapshot holds no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the frozen tree (1 = the root is a leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Bounding box of the whole tree ([`Rect::EMPTY`] when empty). O(1).
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Number of arena nodes (diagnostics/tests).
    pub fn node_count(&self) -> usize {
        self.leaf.len()
    }

    /// All items whose rectangle intersects `query`, with their rectangles.
    pub fn query(&self, query: &Rect) -> Vec<(&Rect, &T)> {
        let mut out = Vec::new();
        self.for_each_in(query, |r, t| out.push((r, t)));
        out
    }

    /// Visits every item whose rectangle intersects `query`, in exactly the
    /// dynamic tree's depth-first visit order.
    pub fn for_each_in<'a>(&'a self, query: &Rect, f: impl FnMut(&'a Rect, &'a T)) {
        self.for_each_in_with(&mut FrozenRangeScratch::new(), query, f);
    }

    /// [`FrozenRStarTree::for_each_in`] threading a caller-owned traversal
    /// stack, so repeated queries perform no heap allocation once the stack
    /// has warmed up.
    ///
    /// Both the leaf-slab scan and the internal-node child scan are
    /// one-box-at-a-time forward scans over the SoA box lanes; the `&&`
    /// chain exits on the first disjoint axis, which for point-window
    /// probes over a planar tree is almost always the x test.
    pub fn for_each_in_with<'a>(
        &'a self,
        scratch: &mut FrozenRangeScratch,
        query: &Rect,
        mut f: impl FnMut(&'a Rect, &'a T),
    ) {
        // an empty query intersects nothing (Rect::intersects is false on
        // either side being empty); the raw SoA test below assumes a
        // non-empty query, so short-circuit here to stay result-identical
        if self.leaf.is_empty() || query.is_empty() {
            return;
        }
        scratch.stack.clear();
        scratch.stack.push(0);
        while let Some(n) = scratch.stack.pop() {
            let n = n as usize;
            let (s, e) = (self.start[n] as usize, self.end[n] as usize);
            if self.leaf[n] {
                // compare-only SoA pre-filter; the `Rect` slab is touched
                // only on a hit, where `Rect::intersects` re-confirms so
                // degenerate (empty) entry rects keep their exact dynamic
                // semantics — for valid rects the confirm never rejects
                let boxes = self.emin_x[s..e]
                    .iter()
                    .zip(&self.emin_y[s..e])
                    .zip(&self.emax_x[s..e])
                    .zip(&self.emax_y[s..e]);
                for (i, (((&lx, &ly), &hx), &hy)) in boxes.enumerate() {
                    if query.min_x <= hx
                        && lx <= query.max_x
                        && query.min_y <= hy
                        && ly <= query.max_y
                    {
                        let r = &self.entry_rects[s + i];
                        if r.intersects(query) {
                            f(r, &self.items[s + i]);
                        }
                    }
                }
            } else {
                // forward scan, then reverse the pushed run so the pop
                // order matches the dynamic tree's recursive depth-first
                // visit order
                let base = scratch.stack.len();
                let boxes = self.nmin_x[s..e]
                    .iter()
                    .zip(&self.nmin_y[s..e])
                    .zip(&self.nmax_x[s..e])
                    .zip(&self.nmax_y[s..e]);
                for (i, (((&lx, &ly), &hx), &hy)) in boxes.enumerate() {
                    if query.min_x <= hx
                        && lx <= query.max_x
                        && query.min_y <= hy
                        && ly <= query.max_y
                    {
                        scratch.stack.push((s + i) as u32);
                    }
                }
                scratch.stack[base..].reverse();
            }
        }
    }

    /// Number of items whose rectangle intersects `query`.
    pub fn count_in(&self, query: &Rect) -> usize {
        let mut n = 0;
        self.for_each_in(query, |_, _| n += 1);
        n
    }

    /// The `k` items nearest to `p` under the caller-supplied exact
    /// distance `dist` — same contract and same result order as
    /// [`RStarTree::nearest_by`].
    pub fn nearest_by<'a>(
        &'a self,
        p: Point,
        k: usize,
        dist: impl FnMut(&'a T) -> f64,
    ) -> Vec<(f64, &'a T)> {
        self.nearest_by_with(&mut FrozenNearestScratch::new(), p, k, dist)
    }

    /// [`FrozenRStarTree::nearest_by`] reusing a caller-owned heap buffer,
    /// so repeated queries allocate nothing once the heap has warmed up.
    pub fn nearest_by_with<'a>(
        &'a self,
        scratch: &mut FrozenNearestScratch,
        p: Point,
        k: usize,
        mut dist: impl FnMut(&'a T) -> f64,
    ) -> Vec<(f64, &'a T)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        scratch.heap_buf.clear();
        let mut heap = BinaryHeap::from(std::mem::take(&mut scratch.heap_buf));
        heap.push(FrozenHeapEntry {
            dist: 0.0,
            cand: FrozenCand::Node(0),
        });
        let mut out: Vec<(f64, &T)> = Vec::with_capacity(k);

        while let Some(FrozenHeapEntry { dist: d, cand }) = heap.pop() {
            if out.len() == k {
                break;
            }
            match cand {
                FrozenCand::Item(i) => out.push((d, &self.items[i as usize])),
                FrozenCand::Node(n) => {
                    let n = n as usize;
                    let (s, e) = (self.start[n] as usize, self.end[n] as usize);
                    if self.leaf[n] {
                        for (i, t) in self.items[s..e].iter().enumerate() {
                            let exact = dist(t);
                            // a NaN query point has no lower bound to dominate
                            debug_assert!(
                                p.x.is_nan()
                                    || p.y.is_nan()
                                    || exact + 1e-9 >= self.entry_rects[s + i].distance_to_point(p),
                                "dist() must dominate the bbox lower bound"
                            );
                            heap.push(FrozenHeapEntry {
                                dist: exact,
                                cand: FrozenCand::Item((s + i) as u32),
                            });
                        }
                    } else {
                        // forward zipped-slice scan: same push order as the
                        // dynamic tree's child loop, one bounds check per
                        // range instead of four per child
                        let boxes = self.nmin_x[s..e]
                            .iter()
                            .zip(&self.nmin_y[s..e])
                            .zip(&self.nmax_x[s..e])
                            .zip(&self.nmax_y[s..e]);
                        for (i, (((&lx, &ly), &hx), &hy)) in boxes.enumerate() {
                            let dx = (lx - p.x).max(0.0).max(p.x - hx);
                            let dy = (ly - p.y).max(0.0).max(p.y - hy);
                            heap.push(FrozenHeapEntry {
                                dist: (dx * dx + dy * dy).sqrt(),
                                cand: FrozenCand::Node((s + i) as u32),
                            });
                        }
                    }
                }
            }
        }
        let mut buf = heap.into_vec();
        buf.clear();
        scratch.heap_buf = buf;
        out
    }

    /// Visits every item whose bounding rectangle lies within `radius` of
    /// `p` (coarse, bbox-level filter — the caller refines with exact
    /// geometry), without materializing a `Vec`.
    pub fn for_each_within_radius<'a>(
        &'a self,
        p: Point,
        radius: f64,
        mut f: impl FnMut(&'a Rect, &'a T),
    ) {
        let window = Rect::from_point(p).inflate(radius);
        self.for_each_in(&window, |r, t| {
            if r.distance_to_point(p) <= radius {
                f(r, t);
            }
        });
    }

    /// All items whose bounding rectangle lies within `radius` of `p`
    /// (coarse, bbox-level filter).
    pub fn within_radius(&self, p: Point, radius: f64) -> Vec<(&Rect, &T)> {
        let mut out = Vec::new();
        self.for_each_within_radius(p, radius, |r, t| out.push((r, t)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        }
    }

    fn random_tree(seed: u64, n: usize) -> RStarTree<usize> {
        let mut next = lcg(seed);
        let mut tree = RStarTree::new();
        for id in 0..n {
            let x = next() * 900.0;
            let y = next() * 900.0;
            tree.insert(Rect::new(x, y, x + next() * 15.0, y + next() * 15.0), id);
        }
        tree
    }

    #[test]
    fn empty_and_single_item_snapshots() {
        let frozen: FrozenRStarTree<u8> = RStarTree::new().freeze();
        assert!(frozen.is_empty());
        assert_eq!(frozen.node_count(), 1);
        assert!(frozen.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(frozen.nearest_by(Point::ORIGIN, 3, |_| 0.0).is_empty());

        let mut t = RStarTree::new();
        t.insert(Rect::from_point(Point::new(5.0, 5.0)), 42u32);
        let frozen = t.freeze();
        assert_eq!(frozen.len(), 1);
        assert_eq!(frozen.height(), 1);
        assert_eq!(frozen.query(&Rect::new(0.0, 0.0, 10.0, 10.0)).len(), 1);
        assert!(frozen.query(&Rect::new(6.0, 6.0, 10.0, 10.0)).is_empty());
    }

    /// Asserts that the snapshot of `tree` visits every query's hits in
    /// exactly the dynamic tree's order.
    fn assert_range_order_matches(tree: &RStarTree<usize>, queries: &[Rect]) {
        let frozen = tree.clone().freeze();
        assert_eq!(frozen.len(), tree.len());
        assert_eq!(frozen.height(), tree.height());
        assert_eq!(frozen.bbox(), tree.bbox());
        let mut scratch = FrozenRangeScratch::new();
        for (i, q) in queries.iter().enumerate() {
            let mut dynamic: Vec<usize> = Vec::new();
            tree.for_each_in(q, |_, &id| dynamic.push(id));
            let mut frozen_hits: Vec<usize> = Vec::new();
            frozen.for_each_in_with(&mut scratch, q, |_, &id| frozen_hits.push(id));
            assert_eq!(dynamic, frozen_hits, "n={} query {i}", tree.len());
        }
        assert!(scratch.capacity() > 0);
    }

    #[test]
    fn range_order_matches_dynamic_exactly() {
        let queries: Vec<Rect> = (0..40)
            .map(|probe| {
                let x = probe as f64 * 21.0;
                Rect::new(x, x * 0.8, x + 55.0, x * 0.8 + 70.0)
            })
            .collect();
        assert_range_order_matches(&random_tree(0xBEEF, 800), &queries);
        // sizes from empty through part-filled leaves to a few levels, so
        // empty and tiny snapshots stay pinned to the dynamic order too
        let queries: Vec<Rect> = (0..25)
            .map(|probe| {
                let x = probe as f64 * 37.0;
                Rect::new(x, x * 0.6, x + 90.0, x * 0.6 + 120.0)
            })
            .collect();
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 300, 801] {
            assert_range_order_matches(&random_tree(0xC0FFEE ^ n as u64, n), &queries);
        }
    }

    #[test]
    fn knn_order_matches_dynamic_exactly() {
        let tree = random_tree(0x5EED, 600);
        let frozen = tree.clone().freeze();
        let mut scratch = FrozenNearestScratch::new();
        for probe in 0..30 {
            let p = Point::new(probe as f64 * 31.0, probe as f64 * 23.0);
            let dynamic = tree.nearest_by(p, 7, |&id| center_distance(&tree, id, p));
            let froz =
                frozen.nearest_by_with(&mut scratch, p, 7, |&id| center_distance(&tree, id, p));
            let dyn_pairs: Vec<(f64, usize)> = dynamic.iter().map(|&(d, &id)| (d, id)).collect();
            let froz_pairs: Vec<(f64, usize)> = froz.iter().map(|&(d, &id)| (d, id)).collect();
            assert_eq!(dyn_pairs, froz_pairs, "probe {probe}");
        }
        assert!(scratch.capacity() > 0);
    }

    /// Exact distance from `p` to item `id`'s stored rectangle (dominates
    /// the bbox lower bound by construction).
    fn center_distance(tree: &RStarTree<usize>, id: usize, p: Point) -> f64 {
        let mut rect = None;
        tree.for_each_in(&tree.bbox(), |r, &i| {
            if i == id {
                rect = Some(*r);
            }
        });
        rect.expect("item present").distance_to_point(p)
    }

    #[test]
    fn within_radius_matches_dynamic() {
        let tree = random_tree(0xACE, 400);
        let frozen = tree.clone().freeze();
        let p = Point::new(450.0, 450.0);
        let a: Vec<usize> = tree
            .within_radius(p, 120.0)
            .iter()
            .map(|&(_, &i)| i)
            .collect();
        let b: Vec<usize> = frozen
            .within_radius(p, 120.0)
            .iter()
            .map(|&(_, &i)| i)
            .collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn bulk_loaded_tree_freezes_identically() {
        let items: Vec<(Rect, usize)> = (0..2000)
            .map(|i| {
                let x = (i % 50) as f64 * 7.0;
                let y = (i / 50) as f64 * 11.0;
                (Rect::new(x, y, x + 3.0, y + 3.0), i)
            })
            .collect();
        let tree = RStarTree::bulk_load(items);
        let frozen = tree.clone().freeze();
        for probe in 0..30 {
            let x = probe as f64 * 11.0;
            let q = Rect::new(x, x, x + 40.0, x + 40.0);
            let mut a = Vec::new();
            tree.for_each_in(&q, |_, &i| a.push(i));
            let mut b = Vec::new();
            frozen.for_each_in(&q, |_, &i| b.push(i));
            assert_eq!(a, b, "probe {probe}");
        }
        assert_eq!(frozen.count_in(&tree.bbox()), 2000);
    }

    #[test]
    fn empty_query_yields_nothing() {
        let tree = random_tree(7, 100);
        let frozen = tree.freeze();
        assert!(frozen.query(&Rect::EMPTY).is_empty());
    }
}
