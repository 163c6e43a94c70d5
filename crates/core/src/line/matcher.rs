//! Global map matching (paper §4.2, Equations 1–4, Algorithm 2).
//!
//! For every GPS point `Q_i` of a move episode:
//!
//! 1. select candidate road segments within a radius of `Q_i` via the
//!    R\*-tree (Algorithm 2 line 5);
//! 2. compute the point–segment distance of Eq. 1 to each candidate and
//!    normalize it into `localScore(Q_i, r) = d_min(Q_i) / d(Q_i, r)`
//!    (Eq. 2) — the nearest candidate scores 1, farther ones less;
//! 3. compute `globalScore(Q_i, r)` as the kernel-weighted mean of the
//!    local scores of the neighboring points `Q_{-N1} … Q_{+N2}` inside
//!    the global-view radius `R`, with Gaussian kernel weights
//!    `w_k = exp(-d(Q_0,Q_k)² / 2σ²)` (Eqs. 3–4);
//! 4. match `Q_i` to the candidate with the highest global score and snap
//!    its position onto the segment (Algorithm 2 lines 15–17).
//!
//! The neighbor context makes the matching robust on parallel roads and
//! noisy fixes, while the R\*-tree candidate selection keeps the whole
//! pass `O(n)` in the number of GPS points.

use semitri_data::road::SegmentId;
use semitri_data::{GpsRecord, RoadNetwork};
use semitri_geo::{Point, Rect, Segment, LANES};
use semitri_index::{CellOracle, FrozenRStarTree};
use std::sync::Arc;

/// Parameters of the global map-matching algorithm.
#[derive(Debug, Clone, Copy)]
pub struct MatchParams {
    /// Global-view radius `R` in meters: neighbors within this distance of
    /// the current point contribute to its global score. The paper sweeps
    /// the dimensionless `R ∈ 1..5`; multiply by the mean point spacing to
    /// convert (see `experiments fig10`).
    pub radius_m: f64,
    /// Kernel bandwidth `σ` as a fraction of `R` (the paper sweeps
    /// σ ∈ {0.5R, 1R, 1.5R, 2R}).
    pub sigma_factor: f64,
    /// Candidate-selection radius in meters: segments farther than this
    /// from a point (Eq. 1 distance) are not considered. Plays the role of
    /// the paper's "neighboring segments" cutoff.
    pub candidate_radius_m: f64,
    /// Hard cap on neighbors considered on each side of the current point
    /// (guards against degenerate dense clusters).
    pub max_neighbors: usize,
}

impl Default for MatchParams {
    fn default() -> Self {
        Self {
            radius_m: 30.0,
            sigma_factor: 0.5,
            candidate_radius_m: 60.0,
            max_neighbors: 32,
        }
    }
}

/// The match produced for one GPS record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedPoint {
    /// Matched road segment.
    pub segment: SegmentId,
    /// Position corrected onto the segment (Algorithm 2 line 17).
    pub snapped: Point,
    /// Winning global score.
    pub score: f64,
}

/// Reusable scratch memory for [`GlobalMapMatcher::match_records_with`].
///
/// Holds the flattened per-episode candidate arena, the epoch-stamped dense
/// segment→slot map used to merge local scores in `O(W · C)`, the symmetric
/// forward kernel-weight cache that computes each neighbor-pair weight once
/// instead of twice, and the last oracle cell's slab range that lets
/// consecutive fixes in the same grid cell skip even the cell lookup.
/// Create one per worker (or per trajectory) and thread it through every
/// episode: after the first few calls the buffers reach steady-state
/// capacity and matching performs no per-fix heap allocation.
///
/// A scratch may be freely reused across matchers and networks — every
/// cached structure is either revalidated or rebuilt before it is read.
/// The oracle hint persists across `match_records_with` calls (a
/// long-lived streaming session keeps paying for it otherwise) but is
/// keyed on the owning matcher's unique fingerprint: handing the scratch
/// to a matcher with a different configuration or network invalidates the
/// hint instead of replaying a slab range of a foreign arena.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Flattened candidate segment ids for every record of the episode.
    cand_segs: Vec<SegmentId>,
    /// Eq. 2 local scores, parallel to `cand_segs` (filled with raw Eq. 1
    /// distances first, normalized in place).
    cand_scores: Vec<f64>,
    /// `offsets[i]..offsets[i + 1]` bounds record `i`'s candidate slice.
    offsets: Vec<usize>,
    /// Kernel weight of each neighbor `Q_k` for the current point `Q_0`,
    /// written once during window expansion and read by the merge loop
    /// (the naive path computes every neighbor distance twice and every
    /// kernel weight from scratch).
    w_buf: Vec<f64>,
    /// Forward kernel-weight rows: `fwd_w[(k % stride) * stride + j]` holds
    /// the weight of the pair `(Q_k, Q_{k+1+j})`, written while processing
    /// fix `k`. The pair distance is bitwise symmetric, so a later fix's
    /// *backward* expansion reuses the row instead of recomputing
    /// distance + `exp` — halving the transcendental work without changing
    /// a single result bit.
    fwd_w: Vec<f64>,
    /// Which fix owns each forward row (`usize::MAX` = none); revalidated
    /// every call so rows never leak across episodes.
    fwd_owner: Vec<usize>,
    /// Number of weights stored in each forward row.
    fwd_len: Vec<u32>,
    /// Global-score accumulators for the current record's candidates.
    acc: Vec<f64>,
    /// Dense map: segment id → candidate slot of the current record.
    slot: Vec<u32>,
    /// Epoch stamp validating `slot` entries, so the map never needs a
    /// per-record clear.
    stamp: Vec<u32>,
    epoch: u32,
    /// Fingerprint of the matcher whose arena `oracle_hint` indexes (`0` =
    /// none: matcher fingerprints start at 1).
    hint_owner: u64,
    /// Memo of the last oracle lookup: the nominal rectangle of the served
    /// cell plus its CSR slab range in the owning matcher's oracle arena.
    /// A fix inside the rectangle reuses the range without re-locating.
    /// The range indexes a *specific* arena, so it is guarded by the
    /// `hint_owner` fingerprint: any other matcher's hint — a different
    /// arena, or one whose oracle was rebuilt (a rebuild always mints a new
    /// matcher, hence a new fingerprint) — is discarded, never replayed.
    oracle_hint: Option<(Rect, u32, u32)>,
    /// Number of backward-expansion kernel weights recomputed because the
    /// symmetric forward-row cache missed (row evicted from the ring or
    /// the pair beyond the row stride). Every recompute produces the exact
    /// bits the cached row held — the regression tests assert it — so this
    /// counts wasted transcendental work, not drift.
    kernel_fallback: u64,
}

impl MatchScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forward-row cache-miss recomputations since the last
    /// [`MatchScratch::take_kernel_fallbacks`] (observability: surfaced as
    /// the `stage.line.kernel_fallback` counter by the pipeline).
    pub fn kernel_fallbacks(&self) -> u64 {
        self.kernel_fallback
    }

    /// Returns the fallback count and resets it, so per-trajectory
    /// reporting doesn't double-count a reused scratch.
    pub fn take_kernel_fallbacks(&mut self) -> u64 {
        std::mem::take(&mut self.kernel_fallback)
    }
}

/// `g.bbox().intersects(w)` read from the endpoints, bit-equal for every
/// non-empty `w` (the matcher's `p ± r`): [`Rect::from_points`] is this
/// min/max, a segment box is never empty, and `<=` treats `±0.0` alike.
#[inline]
fn meets_window(g: &Segment, w: &Rect) -> bool {
    g.a.x.min(g.b.x) <= w.max_x
        && w.min_x <= g.a.x.max(g.b.x)
        && g.a.y.min(g.b.y) <= w.max_y
        && w.min_y <= g.a.y.max(g.b.y)
}

/// The global map matcher of the Semantic Line Annotation Layer.
///
/// ```
/// use semitri_core::{GlobalMapMatcher, MatchParams};
/// use semitri_data::{City, CityConfig, GpsRecord};
/// use semitri_geo::Timestamp;
///
/// let city = City::generate(CityConfig::default());
/// let matcher = GlobalMapMatcher::new(&city.roads, MatchParams::default());
/// // points along a street match to road segments with snapped positions
/// let seg = &city.roads.segments()[0];
/// let records: Vec<GpsRecord> = (0..5)
///     .map(|i| GpsRecord::new(seg.geometry.point_at(i as f64 / 5.0), Timestamp(i as f64)))
///     .collect();
/// let matches = matcher.match_records(&records);
/// assert!(matches.iter().all(|m| m.is_some()));
/// ```
pub struct GlobalMapMatcher {
    net: Arc<RoadNetwork>,
    /// Frozen R\*-tree over the segment bounding boxes: the oracle is
    /// gathered from it, and the reference paths query it per fix.
    tree: FrozenRStarTree<SegmentId>,
    /// Precomputed per-cell candidate slabs of segment ids: the hot path's
    /// only source of candidates.
    oracle: CellOracle<SegmentId>,
    /// Segment geometry indexed by [`SegmentId`]: the hot path derives each
    /// candidate's box and Eq. 1 distance from it.
    geometry: Vec<Segment>,
    params: MatchParams,
    /// Process-unique id keying scratch caches to this matcher instance
    /// (configuration + network + oracle arena), never 0.
    fingerprint: u64,
}

/// Source of matcher fingerprints. Starts at 1 so the `MatchScratch`
/// default of 0 can never collide with a real matcher.
static NEXT_FINGERPRINT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl GlobalMapMatcher {
    /// Builds the matcher over a road network: STR-packs an R\*-tree over
    /// the segment bounding boxes and materializes the per-cell candidate
    /// oracle from it.
    ///
    /// Accepts either an `Arc<RoadNetwork>` (shared with a snapshot
    /// generation, no copy) or `&RoadNetwork` (cloned into a fresh `Arc`
    /// for callers that keep ownership).
    pub fn new(net: impl Into<Arc<RoadNetwork>>, params: MatchParams) -> Self {
        let net = net.into();
        assert!(params.radius_m > 0.0, "radius must be positive");
        assert!(params.sigma_factor > 0.0, "sigma factor must be positive");
        assert!(
            params.candidate_radius_m > 0.0,
            "candidate radius must be positive"
        );
        // An underflowing σ² turns the kernel exponent into `-0·∞ = NaN`,
        // which `max_by` would silently treat as Equal; reject it up front.
        let sigma = params.sigma_factor * params.radius_m;
        assert!(
            (1.0 / (2.0 * sigma * sigma)).is_finite(),
            "sigma = {sigma} underflows the Gaussian kernel; \
             increase radius_m or sigma_factor"
        );
        let geometry: Vec<Segment> = net.segments().iter().map(|s| s.geometry).collect();
        let tree =
            FrozenRStarTree::bulk_load(geometry.iter().map(Segment::bbox).zip(0..).collect());
        let r = params.candidate_radius_m;
        // Cells a third of the candidate radius: the per-cell catchment —
        // and with it the slab every fix filters — shrinks from (3r)² to
        // (r/3 + 2r)² of bounding boxes, roughly halving the per-fix scan,
        // at the price of arena memory. Candidate identity is independent
        // of the cell size — the per-fix window/distance filter does the
        // selecting; cells only bound the superset.
        let oracle = CellOracle::build(&tree, r / 3.0, r);
        Self {
            net,
            tree,
            oracle,
            geometry,
            params,
            fingerprint: NEXT_FINGERPRINT.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// The precomputed candidate oracle (for memory reporting).
    pub fn oracle(&self) -> &CellOracle<SegmentId> {
        &self.oracle
    }

    /// The parameters in effect.
    pub fn params(&self) -> MatchParams {
        self.params
    }

    /// The road network this matcher matches against (the snapshot the
    /// matcher was built from — under generation swaps this can lag the
    /// live world until the next publish).
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// Appends the candidates of one fix (with raw Eq. 1 distances, before
    /// the Eq. 2 normalization) to the scratch arena.
    ///
    /// The candidate superset is an O(1) CSR slab lookup: the fix's grid
    /// cell indexes a list of segment ids gathered at build time by one
    /// frozen range query over the cell's catchment window, in tree visit
    /// order. One fused pass loads each id's segment, applies the same
    /// `bbox ∩ window(p)` prefilter ([`meets_window`]) and exact `d ≤ r`
    /// test a direct tree query would, on a superset list in the same
    /// order — so the selected candidates and their order are bitwise
    /// identical to the tree path's. The oracle answers every non-NaN fix
    /// (out-of-bounds ones clamp into a border cell); a NaN fix locates
    /// nowhere and gets no candidates, exactly as its NaN window finds
    /// none in the tree.
    fn push_candidates(&self, scratch: &mut MatchScratch, p: Point) {
        let r = self.params.candidate_radius_m;
        let oracle = &self.oracle;
        // hint memo: a fix inside the last served cell's nominal rectangle
        // is provably covered by that cell's catchment window (catchment ⊇
        // rect + query-radius pad), so the stored slab range applies
        // without re-locating
        let (s, e) = match scratch.oracle_hint {
            Some((rect, s, e))
                if p.x >= rect.min_x
                    && p.x < rect.max_x
                    && p.y >= rect.min_y
                    && p.y < rect.max_y =>
            {
                (s, e)
            }
            _ => {
                let Some(cell) = oracle.locate(p) else {
                    return;
                };
                let (s, e) = oracle.range(cell);
                scratch.oracle_hint = Some((oracle.cell_rect(cell), s, e));
                (s, e)
            }
        };
        let window = Rect::from_point(p).inflate(r);
        for &seg_id in oracle.slab(s, e) {
            let g = self.geometry[seg_id as usize];
            if !meets_window(&g, &window) {
                continue;
            }
            let d = g.distance_to_point(p);
            if d <= r {
                scratch.cand_segs.push(seg_id);
                scratch.cand_scores.push(d);
            }
        }
    }

    /// Matches a sequence of records (one move episode) to road segments,
    /// threading caller-owned scratch memory so the hot path performs no
    /// per-fix heap allocation. Returns one entry per record; `None` where
    /// no candidate segment was within reach.
    ///
    /// Produces results identical to [`Self::match_records_naive`] (the
    /// property suite asserts exact agreement); only the cost model
    /// changes: the Eqs. 3–4 merge runs in `O(W · C)` per fix via an
    /// epoch-stamped dense slot map instead of the `O(W · C²)` nested scan,
    /// kernel weights are computed once per *pair* (the symmetric
    /// forward-row cache) instead of twice per fix, and candidate selection
    /// reads the precomputed oracle slab instead of walking the tree.
    pub fn match_records_with(
        &self,
        scratch: &mut MatchScratch,
        records: &[GpsRecord],
    ) -> Vec<Option<MatchedPoint>> {
        let n = records.len();

        // Algorithm 2 lines 5–9: per-point candidates + local scores,
        // flattened into the scratch arena. The oracle hint persists across
        // calls while this matcher owns it (back-to-back episodes of a
        // streaming session usually resume in the same cell); a foreign
        // hint indexes another arena — its slab range would be meaningless
        // (or out of bounds) here — so it is discarded, not replayed.
        if scratch.hint_owner != self.fingerprint {
            scratch.oracle_hint = None;
            scratch.hint_owner = self.fingerprint;
        }
        scratch.cand_segs.clear();
        scratch.cand_scores.clear();
        scratch.offsets.clear();
        scratch.offsets.push(0);
        for rec in records {
            let start = scratch.cand_segs.len();
            self.push_candidates(scratch, rec.point);
            let ds = &mut scratch.cand_scores[start..];
            if !ds.is_empty() {
                // Eq. 2 in place: d → d_min / d, with the exact-hit floor
                let d_min = ds.iter().copied().fold(f64::INFINITY, f64::min).max(1e-6);
                for d in ds {
                    *d = d_min / (*d).max(1e-6);
                }
            }
            scratch.offsets.push(scratch.cand_segs.len());
        }

        let radius = self.params.radius_m;
        let sigma = self.params.sigma_factor * radius;
        let inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
        // one expression for every Eq. 4 weight in this call — forward
        // rows, backward fallback recomputes and lane chunks all evaluate
        // the identical chain, so a cache hit and its recompute are
        // bit-equal
        let kernel_w = |d: f64| (-d * d * inv_two_sigma_sq).exp();
        // the naive path's `distance < radius` step test, negated: a NaN
        // distance ends the window where the naive expansion stops
        let beyond = |d: f64| d.is_nan() || d >= radius;

        scratch.slot.resize(self.net.segments().len(), 0);
        scratch.stamp.resize(self.net.segments().len(), 0);
        scratch.w_buf.clear();
        scratch.w_buf.resize(n, 0.0);
        // Forward-row cache geometry: a backward neighbor is at most
        // `max_neighbors` fixes behind, so a ring of that many rows suffices
        // (capped so a huge cap cannot balloon the scratch — misses beyond
        // the ring just recompute).
        let stride = self.params.max_neighbors.clamp(1, 64);
        scratch.fwd_w.resize(stride * stride, 0.0);
        scratch.fwd_owner.clear();
        scratch.fwd_owner.resize(stride, usize::MAX);
        scratch.fwd_len.resize(stride, 0);

        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let (ci0, ci1) = (scratch.offsets[i], scratch.offsets[i + 1]);
            if ci0 == ci1 {
                out.push(None);
                continue;
            }
            let p0 = records[i].point;

            // neighbor window (Algorithm 2 line 11): expand both ways while
            // within the global-view radius R, caching each neighbor's
            // kernel weight for the merge loop below. `d(Q_0, Q_0)` is an
            // exact 0, so Q_0's own weight is exactly `exp(-0) = 1`.
            scratch.w_buf[i] = 1.0;
            let mut lo = i;
            while lo > 0 && i - lo < self.params.max_neighbors {
                let k = lo - 1;
                let row = k % stride;
                let off = i - k - 1;
                if scratch.fwd_owner[row] == k && off < scratch.fwd_len[row] as usize {
                    // the pair distance is bitwise symmetric, so fix k's
                    // forward pass already produced this exact weight — and
                    // its presence in the row proves d(Q_k, Q_0) < R
                    scratch.w_buf[k] = scratch.fwd_w[row * stride + off];
                } else {
                    let d = records[k].point.distance(p0);
                    if beyond(d) {
                        break;
                    }
                    // cache miss (row evicted or pair beyond the stride):
                    // recompute the weight — same expression, same bits as
                    // the row would have held — and count the wasted exp
                    scratch.kernel_fallback += 1;
                    scratch.w_buf[k] = kernel_w(d);
                }
                lo = k;
            }
            // forward expansion in 8-wide chunks: a block of neighbor
            // distances is computed as one lane pass (the same
            // `records[k].point.distance(p0)` chain per element), the
            // radius cut is resolved after the block in ascending order —
            // so the accepted prefix, every distance and every weight stay
            // bit-identical to the one-at-a-time loop, which computed `d`
            // then broke at the first distance `beyond` the radius exactly
            // like the cut below. Distances past the cut are speculative and
            // discarded.
            let row = i % stride;
            scratch.fwd_owner[row] = i;
            let limit = (n - 1 - i).min(self.params.max_neighbors);
            let mut taken = 0usize;
            while taken < limit {
                let block = (limit - taken).min(LANES);
                let mut dbuf = [0.0f64; LANES];
                for t in 0..block {
                    let q = records[i + 1 + taken + t].point;
                    let dx = q.x - p0.x;
                    let dy = q.y - p0.y;
                    dbuf[t] = (dx * dx + dy * dy).sqrt();
                }
                let cut = dbuf[..block]
                    .iter()
                    .position(|&d| beyond(d))
                    .unwrap_or(block);
                // Eq. 4 weight row for the accepted prefix, as chunked
                // `(-d²·inv2σ²).exp()` lanes
                for (t, &d) in dbuf.iter().enumerate().take(cut) {
                    let w = kernel_w(d);
                    scratch.w_buf[i + 1 + taken + t] = w;
                    let off = taken + t;
                    if off < stride {
                        scratch.fwd_w[row * stride + off] = w;
                    }
                }
                taken += cut;
                if cut < block {
                    break;
                }
            }
            let hi = i + taken;
            scratch.fwd_len[row] = taken.min(stride) as u32;

            // map Q_i's candidate segments to dense accumulator slots; the
            // epoch stamp invalidates the previous record's entries without
            // touching the whole table
            scratch.epoch = match scratch.epoch.checked_add(1) {
                Some(e) => e,
                None => {
                    scratch.stamp.fill(0);
                    1
                }
            };
            scratch.acc.clear();
            scratch.acc.resize(ci1 - ci0, 0.0);
            for (j, &seg) in scratch.cand_segs[ci0..ci1].iter().enumerate() {
                scratch.slot[seg as usize] = j as u32;
                scratch.stamp[seg as usize] = scratch.epoch;
            }

            // Eqs. 3–4: kernel-weighted merge of neighbor local scores.
            // Accumulation visits neighbors in ascending k for every slot,
            // matching the naive path's float-addition order exactly.
            // Zipped slices keep the inner loop free of bounds checks.
            let epoch = scratch.epoch;
            let (stamp, slot, acc) = (&scratch.stamp, &scratch.slot, &mut scratch.acc);
            let mut weight_sum = 0.0;
            for k in lo..=hi {
                let w = scratch.w_buf[k];
                weight_sum += w;
                let (k0, k1) = (scratch.offsets[k], scratch.offsets[k + 1]);
                for (&seg, &ls) in scratch.cand_segs[k0..k1]
                    .iter()
                    .zip(&scratch.cand_scores[k0..k1])
                {
                    let seg = seg as usize;
                    if stamp[seg] == epoch {
                        acc[slot[seg] as usize] += w * ls;
                    }
                }
            }
            assert!(
                weight_sum > 0.0,
                "kernel weight sum must be positive (sigma = {sigma}), \
                 got {weight_sum} at record {i}"
            );

            let (best_seg, best_score) = scratch.cand_segs[ci0..ci1]
                .iter()
                .zip(&scratch.acc)
                .map(|(&s, &acc)| (s, acc / weight_sum))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("candidates nonempty");

            let snapped = self.geometry[best_seg as usize].closest_point(p0);
            out.push(Some(MatchedPoint {
                segment: best_seg,
                snapped,
                score: best_score,
            }));
        }
        out
    }

    /// Candidate segments of one point with their raw Eq. 1 distances, as
    /// selected by the production hot path (the oracle slab). Exposed so
    /// tests can assert the candidate *set and order* — not just the final
    /// matches — against [`Self::candidates_at_via_tree`]. Allocates; not
    /// for the hot path.
    pub fn candidates_at(&self, p: Point) -> Vec<(SegmentId, f64)> {
        let mut scratch = MatchScratch::new();
        self.push_candidates(&mut scratch, p);
        scratch
            .cand_segs
            .iter()
            .copied()
            .zip(scratch.cand_scores.iter().copied())
            .collect()
    }

    /// Candidate segments of one point via a direct per-fix tree query —
    /// the reference [`Self::candidates_at`] must reproduce bitwise, in
    /// the same order.
    pub fn candidates_at_via_tree(&self, p: Point) -> Vec<(SegmentId, f64)> {
        self.candidates(p)
    }

    /// Candidate segments of one point with their Eq. 1 distances (used by
    /// the naive reference path).
    fn candidates(&self, p: Point) -> Vec<(SegmentId, f64)> {
        let window = Rect::from_point(p).inflate(self.params.candidate_radius_m);
        let mut out = Vec::new();
        self.tree.for_each_in(&window, |_, &seg_id| {
            let d = self.net.segment(seg_id).geometry.distance_to_point(p);
            if d <= self.params.candidate_radius_m {
                out.push((seg_id, d));
            }
        });
        out
    }

    /// Local scores (Eq. 2) for one point: `d_min / d` per candidate, with
    /// an exact-hit floor so zero distances score 1 without dividing by 0.
    fn local_scores(&self, p: Point) -> Vec<(SegmentId, f64)> {
        let mut cands = self.candidates(p);
        if cands.is_empty() {
            return cands;
        }
        let d_min = cands
            .iter()
            .map(|&(_, d)| d)
            .fold(f64::INFINITY, f64::min)
            .max(1e-6);
        for (_, d) in &mut cands {
            *d = d_min / (*d).max(1e-6);
        }
        cands
    }

    /// Matches a sequence of records (one move episode) to road segments.
    /// Returns one entry per record; `None` where no candidate segment was
    /// within reach.
    ///
    /// Convenience wrapper allocating a fresh [`MatchScratch`] per call;
    /// batch callers should hold a scratch and use
    /// [`Self::match_records_with`] instead.
    pub fn match_records(&self, records: &[GpsRecord]) -> Vec<Option<MatchedPoint>> {
        let mut scratch = MatchScratch::new();
        self.match_records_with(&mut scratch, records)
    }

    /// The direct, paper-literal formulation of Algorithm 2: per-fix
    /// R\*-tree queries, per-fix `Vec`s and an `O(W · C²)` nested scan for
    /// the Eqs. 3–4 merge.
    ///
    /// Retained as the correctness oracle for the optimized kernel (the
    /// property suite asserts [`Self::match_records_with`] agrees exactly).
    /// Not for production use.
    pub fn match_records_naive(&self, records: &[GpsRecord]) -> Vec<Option<MatchedPoint>> {
        let n = records.len();
        // per-point candidate local scores (Algorithm 2 lines 5–9)
        let local: Vec<Vec<(SegmentId, f64)>> =
            records.iter().map(|r| self.local_scores(r.point)).collect();

        let radius = self.params.radius_m;
        let sigma = self.params.sigma_factor * radius;
        let inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);

        let mut out = Vec::with_capacity(n);
        let mut scores: Vec<(SegmentId, f64)> = Vec::new();
        for i in 0..n {
            if local[i].is_empty() {
                out.push(None);
                continue;
            }
            let p0 = records[i].point;

            // neighbor window (Algorithm 2 line 11): expand both ways while
            // within the global-view radius R
            let mut lo = i;
            while lo > 0
                && i - lo < self.params.max_neighbors
                && records[lo - 1].point.distance(p0) < radius
            {
                lo -= 1;
            }
            let mut hi = i;
            while hi + 1 < n
                && hi - i < self.params.max_neighbors
                && records[hi + 1].point.distance(p0) < radius
            {
                hi += 1;
            }

            // global score per candidate of Q_i (Eqs. 3–4)
            scores.clear();
            scores.extend(local[i].iter().map(|&(s, _)| (s, 0.0)));
            let mut weight_sum = 0.0;
            for k in lo..=hi {
                let d = records[k].point.distance(p0);
                if d >= radius && k != i {
                    continue;
                }
                let w = (-d * d * inv_two_sigma_sq).exp();
                weight_sum += w;
                for (seg, acc) in scores.iter_mut() {
                    // localScore(Q_k, seg) is 0 when seg is not among Q_k's
                    // candidates (Eq. 2 second branch)
                    if let Some(&(_, ls)) = local[k].iter().find(|&&(s, _)| s == *seg) {
                        *acc += w * ls;
                    }
                }
            }
            assert!(
                weight_sum > 0.0,
                "kernel weight sum must be positive (sigma = {sigma}), \
                 got {weight_sum} at record {i}"
            );
            let (best_seg, best_score) = scores
                .iter()
                .map(|&(s, acc)| (s, acc / weight_sum))
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("candidates nonempty");

            let snapped = self
                .net
                .segment(best_seg)
                .geometry
                .closest_point(records[i].point);
            out.push(Some(MatchedPoint {
                segment: best_seg,
                snapped,
                score: best_score,
            }));
        }
        out
    }

    /// Matching accuracy against ground truth: the fraction of records with
    /// a true segment whose match equals the truth. Records without truth
    /// or without a match are excluded from the denominator only when the
    /// truth itself is absent — a missed match on a true segment counts as
    /// an error (the paper's accuracy definition on the Seattle benchmark).
    pub fn accuracy(matches: &[Option<MatchedPoint>], truth: &[Option<SegmentId>]) -> f64 {
        assert_eq!(matches.len(), truth.len(), "matches/truth length mismatch");
        let mut correct = 0usize;
        let mut total = 0usize;
        for (m, t) in matches.iter().zip(truth) {
            let Some(t) = t else { continue };
            total += 1;
            if let Some(m) = m {
                if m.segment == *t {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            return 0.0;
        }
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semitri_data::road::RoadClass;
    use semitri_geo::Timestamp;

    /// Two parallel horizontal streets 40 m apart plus a crossing street.
    fn parallel_net() -> RoadNetwork {
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(500.0, 0.0),
            Point::new(0.0, 40.0),
            Point::new(500.0, 40.0),
            Point::new(250.0, -200.0),
            Point::new(250.0, 240.0),
        ];
        let edges = vec![
            (0, 1, RoadClass::Street, false, "south".to_string()),
            (2, 3, RoadClass::Street, false, "north".to_string()),
            (4, 5, RoadClass::Street, false, "cross".to_string()),
        ];
        RoadNetwork::new(nodes, edges)
    }

    fn track_along(y: f64, noise: &[f64]) -> Vec<GpsRecord> {
        noise
            .iter()
            .enumerate()
            .map(|(i, &dy)| {
                GpsRecord::new(
                    Point::new(20.0 + i as f64 * 20.0, y + dy),
                    Timestamp(i as f64),
                )
            })
            .collect()
    }

    #[test]
    fn clean_track_matches_nearest_street() {
        let net = parallel_net();
        let m = GlobalMapMatcher::new(&net, MatchParams::default());
        let recs = track_along(2.0, &[0.0; 20]);
        let matches = m.match_records(&recs);
        for mm in &matches {
            let mm = mm.expect("matched");
            assert_eq!(net.segment(mm.segment).name, "south");
            // snapped onto the street line y = 0
            assert!(mm.snapped.y.abs() < 1e-9);
        }
    }

    #[test]
    fn global_context_fixes_noisy_outlier() {
        let net = parallel_net();
        let m = GlobalMapMatcher::new(
            &net,
            MatchParams {
                radius_m: 60.0, // wide enough to reach the outlier's neighbors
                ..MatchParams::default()
            },
        );
        // track runs on "south" (y≈5) but one fix jumps toward "north"
        let mut noise = [0.0f64; 20];
        noise[10] = 25.0; // fix at y=30, nearer to north (40) than south (0)? no: 30 vs 10 — nearer north
        let recs = track_along(5.0, &noise);
        // sanity: the outlier alone is closer to the north street
        let p_outlier = recs[10].point;
        assert!(
            net.segment(1).geometry.distance_to_point(p_outlier)
                < net.segment(0).geometry.distance_to_point(p_outlier)
        );
        let matches = m.match_records(&recs);
        let outlier_match = matches[10].expect("matched");
        assert_eq!(
            net.segment(outlier_match.segment).name,
            "south",
            "global score must override the locally-nearest parallel road"
        );
    }

    #[test]
    fn local_only_would_flip_the_outlier() {
        // ablation cross-check: with a tiny global radius the matcher
        // degenerates to local nearest and mis-matches the outlier
        let net = parallel_net();
        let m = GlobalMapMatcher::new(
            &net,
            MatchParams {
                radius_m: 1e-3,
                ..MatchParams::default()
            },
        );
        let mut noise = [0.0f64; 20];
        noise[10] = 25.0;
        let recs = track_along(5.0, &noise);
        let matches = m.match_records(&recs);
        assert_eq!(net.segment(matches[10].unwrap().segment).name, "north");
    }

    #[test]
    fn unreachable_points_yield_none() {
        let net = parallel_net();
        let m = GlobalMapMatcher::new(&net, MatchParams::default());
        let recs = vec![GpsRecord::new(Point::new(0.0, 5_000.0), Timestamp(0.0))];
        assert_eq!(m.match_records(&recs), vec![None]);
    }

    #[test]
    fn empty_input() {
        let net = parallel_net();
        let m = GlobalMapMatcher::new(&net, MatchParams::default());
        assert!(m.match_records(&[]).is_empty());
    }

    #[test]
    fn accuracy_computation() {
        let mk = |seg| {
            Some(MatchedPoint {
                segment: seg,
                snapped: Point::ORIGIN,
                score: 1.0,
            })
        };
        let matches = vec![mk(1), mk(2), None, mk(3)];
        let truth = vec![Some(1), Some(1), Some(2), None];
        // 3 truth points, 1 correct, the None-match on truth counts wrong
        let acc = GlobalMapMatcher::accuracy(&matches, &truth);
        assert!((acc - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(GlobalMapMatcher::accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn single_fix_episode_scores_one_with_unit_weight() {
        // one fix: the neighbor window is {Q_0} with kernel weight
        // exp(0) = 1, so weight_sum is exactly 1 and no NaN can reach the
        // argmax (regression guard for the silent NaN-as-Equal ordering)
        let net = parallel_net();
        let m = GlobalMapMatcher::new(&net, MatchParams::default());
        let recs = vec![GpsRecord::new(Point::new(100.0, 3.0), Timestamp(0.0))];
        let mm = m.match_records(&recs)[0].expect("matched");
        assert_eq!(net.segment(mm.segment).name, "south");
        assert!((mm.score - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "underflows the Gaussian kernel")]
    fn degenerate_sigma_is_rejected_up_front() {
        let net = parallel_net();
        let _ = GlobalMapMatcher::new(
            &net,
            MatchParams {
                radius_m: 1e-200,
                sigma_factor: 1e-200,
                ..MatchParams::default()
            },
        );
    }

    #[test]
    fn optimized_agrees_with_naive_on_dense_same_cell_track() {
        // 1 m spacing keeps long runs of fixes inside one candidate-radius
        // cell, exercising the cache-hit path; the wobble crosses between
        // the parallel streets so candidate sets vary per fix
        let net = parallel_net();
        let m = GlobalMapMatcher::new(&net, MatchParams::default());
        let recs: Vec<GpsRecord> = (0..200)
            .map(|i| {
                let wobble = ((i * 7) % 23) as f64 - 11.0;
                GpsRecord::new(
                    Point::new(10.0 + i as f64, 3.0 + wobble),
                    Timestamp(i as f64),
                )
            })
            .collect();
        assert_eq!(m.match_records(&recs), m.match_records_naive(&recs));
    }

    #[test]
    fn scratch_reuse_across_episodes_matches_fresh_scratch() {
        let net = parallel_net();
        let m = GlobalMapMatcher::new(&net, MatchParams::default());
        let mut scratch = MatchScratch::new();
        let a = track_along(2.0, &[0.0; 30]);
        let b = track_along(38.0, &[1.0; 30]);
        let ra = m.match_records_with(&mut scratch, &a);
        let rb = m.match_records_with(&mut scratch, &b);
        assert_eq!(ra, m.match_records_naive(&a));
        assert_eq!(rb, m.match_records_naive(&b));
        // the oracle hint persists across calls: replaying episode `a`
        // with the (possibly warm) hint must still be exact
        assert_eq!(m.match_records_with(&mut scratch, &a), ra);
    }

    #[test]
    fn one_scratch_alternating_two_matcher_configs_stays_exact() {
        // Regression: the scratch's cached state is keyed on the owning
        // matcher. A server reuses scratches across sessions whose matchers
        // differ in candidate radius / sigma; replaying matcher A's cached
        // candidate state under matcher B's radius would silently drop (or
        // invent) candidates. Alternate two configs — same cells, different
        // radii — through ONE scratch and demand exact agreement with each
        // matcher's naive reference every time.
        let net = parallel_net();
        let wide = GlobalMapMatcher::new(&net, MatchParams::default());
        let narrow = GlobalMapMatcher::new(
            &net,
            MatchParams {
                radius_m: 12.0,
                sigma_factor: 0.4,
                candidate_radius_m: 25.0,
                max_neighbors: 16,
            },
        );
        let mut scratch = MatchScratch::new();
        let tracks = [
            track_along(2.0, &[0.0; 25]),
            track_along(38.0, &[1.5; 25]),
            track_along(5.0, &[-2.0; 25]),
        ];
        for round in 0..3 {
            for (ti, t) in tracks.iter().enumerate() {
                let got_wide = wide.match_records_with(&mut scratch, t);
                assert_eq!(
                    got_wide,
                    wide.match_records_naive(t),
                    "wide config poisoned by narrow cache (round {round}, track {ti})"
                );
                let got_narrow = narrow.match_records_with(&mut scratch, t);
                assert_eq!(
                    got_narrow,
                    narrow.match_records_naive(t),
                    "narrow config poisoned by wide cache (round {round}, track {ti})"
                );
            }
        }
    }

    #[test]
    fn oracle_matches_tree_at_and_beyond_the_bounds() {
        // The oracle answers every non-NaN fix by clamping it into the
        // grid, so it must agree with the per-fix tree query everywhere:
        // on every border and corner (a fix exactly on max_x/max_y floors
        // to grid index nx/ny), an ulp either side of them, r / 2r / 250 m
        // / 10⁶ m in and out, at ±1e300, ±∞ and NaN. Demand candidate-list
        // identity (set AND order) plus full-match agreement with naive.
        let net = parallel_net();
        let m = GlobalMapMatcher::new(&net, MatchParams::default());
        let b = net
            .segments()
            .iter()
            .fold(Rect::EMPTY, |b, s| b.union(&s.geometry.bbox()));
        let probes = crate::test_probes::edge_probes(b, m.params().candidate_radius_m);
        let mut found = 0usize;
        for p in &probes {
            let want = m.candidates_at_via_tree(*p);
            assert_eq!(m.candidates_at(*p), want, "candidate identity at {p:?}");
            found += usize::from(!want.is_empty());
        }
        assert!(found > 100, "edge probes must reach real candidates");
        // NaN fixes never reach the matcher (preprocessing drops them), and
        // the neighbor window is only defined over comparable distances
        let recs: Vec<GpsRecord> = probes
            .iter()
            .filter(|p| !p.x.is_nan() && !p.y.is_nan())
            .enumerate()
            .map(|(i, &p)| GpsRecord::new(p, Timestamp(i as f64)))
            .collect();
        assert_eq!(m.match_records(&recs), m.match_records_naive(&recs));
    }

    #[test]
    fn one_scratch_alternating_oracle_arenas_stays_exact() {
        // Regression (scratch/oracle epoch aliasing): the oracle hint in
        // the scratch stores a slab range into one matcher's arena.
        // Replaying it under a matcher with a different arena — different
        // candidate radius, hence a different grid — would read the wrong
        // slab. The fingerprint guard must invalidate it; demand exact
        // agreement with each matcher's naive reference every round.
        let net = parallel_net();
        let oracle_wide = GlobalMapMatcher::new(&net, MatchParams::default());
        let oracle_narrow = GlobalMapMatcher::new(
            &net,
            MatchParams {
                radius_m: 12.0,
                sigma_factor: 0.4,
                candidate_radius_m: 25.0,
                max_neighbors: 16,
            },
        );
        let oracle_coarse = GlobalMapMatcher::new(
            &net,
            MatchParams {
                candidate_radius_m: 150.0,
                ..MatchParams::default()
            },
        );
        let matchers = [&oracle_wide, &oracle_narrow, &oracle_coarse];
        let mut scratch = MatchScratch::new();
        let tracks = [
            track_along(2.0, &[0.0; 25]),
            track_along(38.0, &[1.5; 25]),
            // wanders beyond the network's bounds
            track_along(5.0, &[-300.0; 25]),
        ];
        for round in 0..3 {
            for (ti, t) in tracks.iter().enumerate() {
                for (mi, m) in matchers.iter().enumerate() {
                    assert_eq!(
                        m.match_records_with(&mut scratch, t),
                        m.match_records_naive(t),
                        "matcher {mi} poisoned by a foreign oracle hint \
                         (round {round}, track {ti})"
                    );
                }
            }
        }
    }

    #[test]
    fn snapping_projects_onto_segment_extent() {
        let net = parallel_net();
        let m = GlobalMapMatcher::new(&net, MatchParams::default());
        // point beyond the segment end projects to the endpoint
        let recs = vec![GpsRecord::new(Point::new(540.0, 3.0), Timestamp(0.0))];
        let mm = m.match_records(&recs)[0].expect("matched");
        assert!(mm.snapped.x <= 500.0 + 1e-9);
    }

    #[test]
    fn forward_row_cache_miss_recomputes_bit_identical_weight() {
        // zigzag along "south": P1 is outside radius of P0, so P0's forward
        // expansion cuts immediately (fwd_len = 0), but P2 sits within
        // radius of both — P2's backward expansion reaches P0 and must take
        // the recompute fallback instead of reading a cached row
        let net = parallel_net();
        let params = MatchParams {
            radius_m: 60.0,
            ..MatchParams::default()
        };
        let m = GlobalMapMatcher::new(&net, params);
        let recs = vec![
            GpsRecord::new(Point::new(0.0, 2.0), Timestamp(0.0)),
            GpsRecord::new(Point::new(100.0, 2.0), Timestamp(1.0)),
            GpsRecord::new(Point::new(50.0, 2.0), Timestamp(2.0)),
        ];
        let mut scratch = MatchScratch::new();
        let got = m.match_records_with(&mut scratch, &recs);
        assert!(
            scratch.kernel_fallbacks() > 0,
            "the (P2, P0) pair must miss the forward-row cache"
        );
        // the fallback recompute is bit-identical to the oracle, which
        // derives every weight from the forward orientation
        assert_eq!(got, m.match_records_naive(&recs));
        // draining the counter resets it
        assert!(scratch.take_kernel_fallbacks() > 0);
        assert_eq!(scratch.kernel_fallbacks(), 0);

        // the identity the fallback relies on, checked bitwise: the pair
        // distance (and therefore the kernel weight) is symmetric because
        // (-dx)·(-dx) rounds exactly like dx·dx
        let (a, b) = (recs[0].point, recs[2].point);
        let k = {
            let sigma = params.radius_m * params.sigma_factor;
            1.0 / (2.0 * sigma * sigma)
        };
        let w_fwd = {
            let (dx, dy) = (b.x - a.x, b.y - a.y);
            let d = (dx * dx + dy * dy).sqrt();
            (-d * d * k).exp()
        };
        let w_bwd = {
            let (dx, dy) = (a.x - b.x, a.y - b.y);
            let d = (dx * dx + dy * dy).sqrt();
            (-d * d * k).exp()
        };
        assert_eq!(w_fwd.to_bits(), w_bwd.to_bits());
    }

    #[test]
    fn nan_neighbours_end_the_window_like_the_naive_path() {
        // A fix with a NaN coordinate has no candidates, and its NaN
        // distance to a neighbour must stop the neighbour window in both
        // directions, as the naive `distance < radius` expansion does; a
        // NaN weight admitted into the window made the weight sum NaN.
        let city = semitri_data::City::generate(semitri_data::CityConfig::default());
        let m = GlobalMapMatcher::new(&city.roads, MatchParams::default());
        let seg = city.roads.segments()[0].geometry;
        let track = |nan_at: &dyn Fn(usize) -> bool| -> Vec<GpsRecord> {
            (0..6)
                .map(|i| {
                    let mut p = seg.point_at((i as f64 + 0.5) / 6.0);
                    if nan_at(i) {
                        p.x = f64::NAN;
                    }
                    GpsRecord::new(p, Timestamp(i as f64))
                })
                .collect()
        };
        let recs = track(&|i| i == 3);
        assert_eq!(
            m.match_records_naive(&recs)
                .iter()
                .map(|mm| mm.map(|mm| mm.segment))
                .collect::<Vec<_>>(),
            [Some(0), Some(0), Some(0), None, Some(0), Some(0)]
        );
        let patterns: [&dyn Fn(usize) -> bool; 5] = [
            &|i| i == 3,
            &|i| i == 0,
            &|i| i == 5,
            &|i| i % 2 == 0,
            &|i| i % 2 == 1,
        ];
        for (pi, nan_at) in patterns.iter().enumerate() {
            let recs = track(*nan_at);
            let got = m.match_records(&recs);
            assert_eq!(got, m.match_records_naive(&recs), "pattern {pi}");
            for (i, mm) in got.iter().enumerate() {
                assert_eq!(mm.is_none(), nan_at(i), "pattern {pi}, fix {i}");
            }
        }
    }

    #[test]
    fn endpoint_window_test_equals_the_box_test() {
        // The fused candidate pass tests the window against the segment's
        // endpoints instead of a stored box; it must agree with
        // `bbox().intersects` on random segments and on adversarial ones.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut segs: Vec<Segment> = (0..400)
            .map(|_| {
                let a = Point::new(next() * 200.0 - 100.0, next() * 200.0 - 100.0);
                let b = Point::new(next() * 200.0 - 100.0, next() * 200.0 - 100.0);
                Segment::new(a, b)
            })
            .collect();
        let q = [0.0, -0.0, 10.0, -10.0, 60.0, 1e300, -1e300];
        for &x0 in &q {
            for &y0 in &q {
                let a = Point::new(x0, y0);
                segs.extend([
                    Segment::new(a, a),                         // zero length
                    Segment::new(a, Point::new(x0 + 25.0, y0)), // horizontal
                    Segment::new(a, Point::new(x0, y0 - 25.0)), // vertical
                    Segment::new(Point::new(-x0, -y0), a),      // ±0.0 mirrors
                    Segment::new(a, Point::new(f64::NAN, y0)),  // NaN endpoint
                ]);
            }
        }
        let r = 60.0;
        let mut probes: Vec<Point> = (0..200)
            .map(|_| Point::new(next() * 300.0 - 150.0, next() * 300.0 - 150.0))
            .collect();
        for &x in &[
            0.0,
            -0.0,
            r,
            -r,
            10.0 + r,
            10.0 - r,
            70.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            for &y in &[
                0.0,
                -0.0,
                r,
                -r,
                -10.0 - r,
                35.0 + r,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ] {
                probes.push(Point::new(x, y));
            }
        }
        let (mut hits, mut misses) = (0usize, 0usize);
        for p in &probes {
            let w = Rect::from_point(*p).inflate(r);
            for g in &segs {
                let want = g.bbox().intersects(&w);
                assert_eq!(meets_window(g, &w), want, "segment {g:?} window {w:?}");
                hits += usize::from(want);
                misses += usize::from(!want);
            }
        }
        // windows touching a box edge exactly (both ±0.0 spellings)
        for g in &segs {
            let b = g.bbox();
            for w in [
                Rect::new(b.max_x, b.min_y, b.max_x + 5.0, b.max_y),
                Rect::new(b.min_x - 5.0, b.max_y, b.min_x, b.max_y + 5.0),
                Rect::new(-0.0, -0.0, 0.0, 0.0),
                Rect::new(0.0, 0.0, -0.0, -0.0),
            ] {
                assert_eq!(meets_window(g, &w), b.intersects(&w), "{g:?} {w:?}");
            }
        }
        assert!(
            hits > 1_000 && misses > 1_000,
            "{hits} hits, {misses} misses"
        );
    }

    #[test]
    fn smooth_track_never_misses_the_forward_row_cache() {
        // monotone dense track: every backward pair was already visited by
        // the owner's forward expansion, so the fallback never fires
        let net = parallel_net();
        let m = GlobalMapMatcher::new(&net, MatchParams::default());
        let recs = track_along(2.0, &[0.0; 40]);
        let mut scratch = MatchScratch::new();
        let _ = m.match_records_with(&mut scratch, &recs);
        assert_eq!(scratch.kernel_fallbacks(), 0);
    }
}
