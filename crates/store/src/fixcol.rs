//! Fix-column blocks: the compressed columnar layout for raw GPS fixes.
//!
//! Fixes are stored per trajectory in blocks of up to [`BLOCK_LEN`]
//! records. Within a block each column compresses independently:
//!
//! * **timestamps** — millisecond fixed point, first value + first delta
//!   as zigzag varints, then delta-of-delta residuals PFOR-bitpacked (a
//!   metronomic 1 Hz feed packs to ~0 bits/fix). If any timestamp does
//!   not survive the millisecond quantization *bit-exactly*, the whole
//!   column falls back to raw `f64` bits — decoded timestamps are always
//!   identical to what was stored.
//! * **positions** — centimeter fixed point (`round(x·100)`), first
//!   value as zigzag varint, then deltas PFOR-bitpacked. This is the one
//!   deliberately lossy column: decoded coordinates differ from the
//!   input by at most half the quantum (5 mm). Non-finite or
//!   out-of-range coordinates fall back to raw `f64` bits for the axis.
//!
//! Every in-memory block carries a summary (count, time min/max, bbox)
//! so scans can skip whole blocks without touching the payload. The
//! summary is derivable, so the serialized form carries only count and
//! flags — loaders re-derive the rest while validating the columns.

use crate::column::{pfor_decode, pfor_encode, read_varint, unzigzag, write_varint, zigzag};
use semitri_data::GpsRecord;
use semitri_geo::{Point, Rect, Timestamp};
use std::io::{self, Read};

/// Maximum fixes per block.
pub const BLOCK_LEN: usize = 256;

/// Position quantum in meters (centimeter fixed point).
pub const POSITION_QUANTUM: f64 = 0.01;

/// Bytes a fix occupies in the uncompressed row layout (`t, x, y` as
/// `f64` — what [`crate::SemanticTrajectoryStore`] kept per record
/// before the columnar engine).
pub const ROW_FIX_BYTES: usize = 24;

const FLAG_TIME_RAW: u8 = 1;
const FLAG_X_RAW: u8 = 2;
const FLAG_Y_RAW: u8 = 4;

/// Largest |coordinate| (meters) eligible for fixed-point encoding; past
/// this the centimeter grid itself loses integer exactness.
const MAX_FIXED_COORD: f64 = 1.0e12;
/// Largest |timestamp| (seconds) eligible for millisecond fixed point.
const MAX_FIXED_TIME: f64 = 1.0e14;

/// One encoded block of fixes plus its scan summary.
#[derive(Debug, Clone)]
pub struct FixBlock {
    /// Fix count (1 ..= [`BLOCK_LEN`]).
    pub count: u32,
    /// Earliest timestamp in the block.
    pub t_min: Timestamp,
    /// Latest timestamp in the block.
    pub t_max: Timestamp,
    /// Bounding box of the block's positions.
    pub bbox: Rect,
    /// Compressed payload (summary + columns), self-contained.
    pub bytes: Vec<u8>,
}

impl FixBlock {
    /// Encodes one block from `fixes` (at most [`BLOCK_LEN`] records).
    ///
    /// # Panics
    /// Panics when `fixes` is empty or longer than [`BLOCK_LEN`].
    pub fn encode(fixes: &[GpsRecord]) -> Self {
        assert!(!fixes.is_empty() && fixes.len() <= BLOCK_LEN);
        let count = fixes.len() as u32;
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        let mut bbox = Rect::EMPTY;
        for f in fixes {
            t_min = t_min.min(f.t.0);
            t_max = t_max.max(f.t.0);
            bbox.expand_to(f.point);
        }

        // header: count u16 LE, flags u8 (patched once the columns are
        // written). The min/max time and bbox summaries are fully
        // derivable from the columns, so they are kept in memory for block
        // skipping but never serialized — `from_bytes` decodes every
        // column for validation anyway and re-derives them for free.
        let mut bytes = Vec::with_capacity(fixes.len() * 4 + 64);
        bytes.extend_from_slice(&(count as u16).to_le_bytes());
        bytes.push(0);
        let mut residuals = Vec::with_capacity(fixes.len());
        let mut flags = 0u8;
        if !TIME.encode(&mut bytes, &mut residuals, fixes, |f| f.t.0) {
            flags |= FLAG_TIME_RAW;
        }
        if !POSITION.encode(&mut bytes, &mut residuals, fixes, |f| f.point.x) {
            flags |= FLAG_X_RAW;
        }
        if !POSITION.encode(&mut bytes, &mut residuals, fixes, |f| f.point.y) {
            flags |= FLAG_Y_RAW;
        }
        bytes[2] = flags;

        Self {
            count,
            t_min: Timestamp(t_min),
            t_max: Timestamp(t_max),
            bbox,
            bytes,
        }
    }

    /// Parses a payload produced by [`FixBlock::encode`], validating the
    /// framing and re-deriving the summary fields from the decoded
    /// columns (summaries are never serialized — see [`FixBlock::encode`]).
    ///
    /// # Errors
    /// Fails on truncated or malformed payloads.
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<Self> {
        let mut src = bytes.as_slice();
        let count = read_header(&mut src)?;
        if count == 0 || count as usize > BLOCK_LEN {
            return Err(bad("fix block count out of range"));
        }
        // decode fully once: validates the columns and yields the fixes
        // the summaries are derived from
        let mut block = Self {
            count,
            t_min: Timestamp(f64::INFINITY),
            t_max: Timestamp(f64::NEG_INFINITY),
            bbox: Rect::EMPTY,
            bytes,
        };
        let mut scratch = Vec::with_capacity(count as usize);
        block.decode(&mut scratch)?;
        for f in &scratch {
            block.t_min = Timestamp(block.t_min.0.min(f.t.0));
            block.t_max = Timestamp(block.t_max.0.max(f.t.0));
            block.bbox.expand_to(f.point);
        }
        Ok(block)
    }

    /// Appends the block's fixes to `out`.
    ///
    /// # Errors
    /// Fails on truncated or malformed payloads.
    pub fn decode(&self, out: &mut Vec<GpsRecord>) -> io::Result<()> {
        let mut src = self.bytes.as_slice();
        let count = read_header(&mut src)? as usize;
        let flags = self.bytes[2];
        let ts = TIME.decode(&mut src, count, flags & FLAG_TIME_RAW != 0)?;
        let xs = POSITION.decode(&mut src, count, flags & FLAG_X_RAW != 0)?;
        let ys = POSITION.decode(&mut src, count, flags & FLAG_Y_RAW != 0)?;
        out.reserve(count);
        for i in 0..count {
            out.push(GpsRecord::new(Point::new(xs[i], ys[i]), Timestamp(ts[i])));
        }
        Ok(())
    }

    /// Encoded payload size in bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_header(src: &mut &[u8]) -> io::Result<u32> {
    let mut h = [0u8; 3];
    src.read_exact(&mut h)?;
    Ok(u32::from(u16::from_le_bytes([h[0], h[1]])))
}

/// How one block column maps onto fixed point.
struct FixedPoint {
    /// Units per stored unit (1 000 for milliseconds, 100 for centimeters).
    scale: f64,
    /// Largest |value| eligible for fixed point.
    max_abs: f64,
    /// Require the quantization to invert bit-exactly (`q / scale == v`):
    /// the timestamp column's losslessness guarantee.
    exact: bool,
    /// Delta-of-delta residuals (timestamps) instead of plain deltas.
    dod: bool,
}

const TIME: FixedPoint = FixedPoint {
    scale: 1_000.0,
    max_abs: MAX_FIXED_TIME,
    exact: true,
    dod: true,
};

const POSITION: FixedPoint = FixedPoint {
    scale: 100.0,
    max_abs: MAX_FIXED_COORD,
    exact: false,
    dod: false,
};

impl FixedPoint {
    /// `round(v · scale)`, or `None` when `v` is non-finite, out of range
    /// or (for an exact column) does not survive the round trip.
    #[inline]
    fn to_fixed(&self, v: f64) -> Option<i64> {
        if !v.is_finite() || v.abs() > self.max_abs {
            return None;
        }
        // branchless `f64::round` (half away from zero): truncation is
        // exact and so is the fraction `x - t`, for every |x| < 2^63 —
        // the range caps keep |x| ≤ 1e17
        let x = v * self.scale;
        let t = x as i64;
        let f = x - t as f64;
        let q = t + i64::from(f >= 0.5) - i64::from(f <= -0.5);
        if self.exact && (q as f64 / self.scale).to_bits() != v.to_bits() {
            return None;
        }
        Some(q)
    }

    /// Appends the column `value(fix)` over `fixes` to `out`: first value
    /// (zigzag varint), then for timestamps the first delta (zigzag
    /// varint), then the delta-of-delta or delta residuals PFOR-bitpacked.
    /// At the first value that does not fit fixed point the column is
    /// rewritten as raw `f64` bits instead; returns whether it stayed in
    /// fixed point.
    #[inline]
    fn encode(
        &self,
        out: &mut Vec<u8>,
        residuals: &mut Vec<u64>,
        fixes: &[GpsRecord],
        value: impl Fn(&GpsRecord) -> f64,
    ) -> bool {
        let start = out.len();
        if self.encode_fixed(out, residuals, fixes, &value).is_some() {
            return true;
        }
        out.truncate(start);
        for f in fixes {
            out.extend_from_slice(&value(f).to_le_bytes());
        }
        false
    }

    #[inline]
    fn encode_fixed(
        &self,
        out: &mut Vec<u8>,
        residuals: &mut Vec<u64>,
        fixes: &[GpsRecord],
        value: impl Fn(&GpsRecord) -> f64,
    ) -> Option<()> {
        let first = self.to_fixed(value(&fixes[0]))?;
        write_varint(out, zigzag(first));
        if fixes.len() == 1 {
            return Some(());
        }
        residuals.clear();
        if self.dod {
            let mut prev = self.to_fixed(value(&fixes[1]))?;
            let mut prev_delta = prev.wrapping_sub(first);
            write_varint(out, zigzag(prev_delta));
            for f in &fixes[2..] {
                let q = self.to_fixed(value(f))?;
                let delta = q.wrapping_sub(prev);
                residuals.push(zigzag(delta.wrapping_sub(prev_delta)));
                prev = q;
                prev_delta = delta;
            }
        } else {
            let mut prev = first;
            for f in &fixes[1..] {
                let q = self.to_fixed(value(f))?;
                residuals.push(zigzag(q.wrapping_sub(prev)));
                prev = q;
            }
        }
        pfor_encode(residuals, out);
        Some(())
    }

    fn decode(&self, src: &mut impl Read, count: usize, raw: bool) -> io::Result<Vec<f64>> {
        if raw {
            let mut out = Vec::with_capacity(count);
            let mut b = [0u8; 8];
            for _ in 0..count {
                src.read_exact(&mut b)?;
                out.push(f64::from_le_bytes(b));
            }
            Ok(out)
        } else {
            let q = decode_fixed_series(src, count, self.dod)?;
            Ok(q.into_iter().map(|v| v as f64 / self.scale).collect())
        }
    }
}

fn decode_fixed_series(src: &mut impl Read, count: usize, dod: bool) -> io::Result<Vec<i64>> {
    let mut out = Vec::with_capacity(count);
    let first = unzigzag(read_varint(src)?);
    out.push(first);
    if count == 1 {
        return Ok(out);
    }
    let n_residuals;
    let mut prev_delta = 0i64;
    if dod {
        prev_delta = unzigzag(read_varint(src)?);
        out.push(first.wrapping_add(prev_delta));
        // two fixes still carry an (empty) residual stream
        n_residuals = count - 2;
    } else {
        n_residuals = count - 1;
    }
    let mut residuals = Vec::with_capacity(n_residuals);
    pfor_decode(src, n_residuals, &mut residuals)?;
    for r in residuals {
        let last = *out.last().expect("nonempty");
        let next = if dod {
            prev_delta = prev_delta.wrapping_add(unzigzag(r));
            last.wrapping_add(prev_delta)
        } else {
            last.wrapping_add(unzigzag(r))
        };
        out.push(next);
    }
    Ok(out)
}

/// Per-trajectory compressed fix storage with running compression stats.
#[derive(Debug, Default)]
pub struct FixColumnStore {
    /// `(trajectory_id, block)` in append order; a trajectory's blocks
    /// are contiguous per `append` call and time-ordered within a call.
    blocks: Vec<(u64, FixBlock)>,
    fix_count: u64,
    raw_bytes: u64,
    compressed_bytes: u64,
}

impl FixColumnStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `fixes` into blocks appended under `trajectory_id`,
    /// returning the new blocks for durable logging.
    pub fn append(&mut self, trajectory_id: u64, fixes: &[GpsRecord]) -> Vec<FixBlock> {
        let mut added = Vec::with_capacity(fixes.len().div_ceil(BLOCK_LEN));
        for chunk in fixes.chunks(BLOCK_LEN) {
            let block = FixBlock::encode(chunk);
            self.push_block(trajectory_id, block.clone());
            added.push(block);
        }
        added
    }

    /// Registers an already-encoded block (durable replay path).
    pub fn push_block(&mut self, trajectory_id: u64, block: FixBlock) {
        self.fix_count += u64::from(block.count);
        self.raw_bytes += u64::from(block.count) * ROW_FIX_BYTES as u64;
        self.compressed_bytes += block.bytes.len() as u64;
        self.blocks.push((trajectory_id, block));
    }

    /// Decodes every fix of one trajectory, in storage order.
    ///
    /// # Errors
    /// Fails when a stored payload is corrupt.
    pub fn fixes_of(&self, trajectory_id: u64) -> io::Result<Vec<GpsRecord>> {
        let mut out = Vec::new();
        for (tid, block) in &self.blocks {
            if *tid == trajectory_id {
                block.decode(&mut out)?;
            }
        }
        Ok(out)
    }

    /// Iterates all blocks (trajectory id + block).
    pub fn blocks(&self) -> impl Iterator<Item = &(u64, FixBlock)> {
        self.blocks.iter()
    }

    /// Total stored fixes.
    pub fn fix_count(&self) -> u64 {
        self.fix_count
    }

    /// Block count.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Bytes the fixes would occupy in the row layout.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Bytes of compressed payload actually held.
    pub fn compressed_bytes(&self) -> u64 {
        self.compressed_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: f64, x: f64, y: f64) -> GpsRecord {
        GpsRecord::new(Point::new(x, y), Timestamp(t))
    }

    #[test]
    fn metronomic_block_is_tiny() {
        // 1 Hz fleet feed, car at ~10 m/s: the target regime for the
        // ≤ 4 bytes/fix acceptance bar.
        let fixes: Vec<GpsRecord> = (0..256)
            .map(|i| {
                rec(
                    1_000.0 + i as f64,
                    500.0 + i as f64 * 9.7,
                    800.0 - i as f64 * 3.1,
                )
            })
            .collect();
        let block = FixBlock::encode(&fixes);
        assert!(
            block.encoded_bytes() <= 4 * fixes.len(),
            "{} bytes for {} fixes",
            block.encoded_bytes(),
            fixes.len()
        );
        let mut out = Vec::new();
        block.decode(&mut out).unwrap();
        assert_eq!(out.len(), fixes.len());
        for (a, b) in fixes.iter().zip(&out) {
            assert_eq!(a.t.0.to_bits(), b.t.0.to_bits(), "timestamps exact");
            assert!((a.point.x - b.point.x).abs() <= POSITION_QUANTUM / 2.0 + 1e-9);
            assert!((a.point.y - b.point.y).abs() <= POSITION_QUANTUM / 2.0 + 1e-9);
        }
    }

    #[test]
    fn jittered_timestamps_fall_back_to_raw_and_stay_exact() {
        let fixes: Vec<GpsRecord> = (0..100)
            .map(|i| rec(1_000.0 + i as f64 * 1.000_000_1, i as f64, -(i as f64)))
            .collect();
        let block = FixBlock::encode(&fixes);
        let mut out = Vec::new();
        block.decode(&mut out).unwrap();
        for (a, b) in fixes.iter().zip(&out) {
            assert_eq!(a.t.0.to_bits(), b.t.0.to_bits());
        }
    }

    #[test]
    fn non_finite_positions_fall_back_to_raw() {
        let mut fixes: Vec<GpsRecord> = (0..10).map(|i| rec(i as f64, i as f64, 0.0)).collect();
        fixes[3].point.x = f64::NAN;
        fixes[7].point.y = f64::INFINITY;
        let block = FixBlock::encode(&fixes);
        let mut out = Vec::new();
        block.decode(&mut out).unwrap();
        assert!(out[3].point.x.is_nan());
        assert_eq!(out[7].point.y, f64::INFINITY);
        assert_eq!(out[5].point.x, 5.0);
    }

    #[test]
    fn summaries_cover_block() {
        let fixes: Vec<GpsRecord> = (0..50)
            .map(|i| rec(10.0 + i as f64, i as f64 * 2.0, 100.0 - i as f64))
            .collect();
        let block = FixBlock::encode(&fixes);
        assert_eq!(block.t_min.0, 10.0);
        assert_eq!(block.t_max.0, 59.0);
        assert_eq!(block.bbox.min_x, 0.0);
        assert_eq!(block.bbox.max_x, 98.0);
        // from_bytes re-derives the same summary
        let parsed = FixBlock::from_bytes(block.bytes.clone()).unwrap();
        assert_eq!(parsed.count, 50);
        assert_eq!(parsed.t_min.0, 10.0);
        assert_eq!(parsed.bbox.max_y, 100.0);
    }

    #[test]
    fn truncated_payload_rejected() {
        let fixes: Vec<GpsRecord> = (0..30).map(|i| rec(i as f64, i as f64, i as f64)).collect();
        let block = FixBlock::encode(&fixes);
        let mut cut = block.bytes.clone();
        cut.truncate(cut.len() - 4);
        assert!(FixBlock::from_bytes(cut).is_err());
    }

    #[test]
    fn store_appends_and_reads_back() {
        let mut store = FixColumnStore::new();
        let fixes: Vec<GpsRecord> = (0..600)
            .map(|i| rec(i as f64, i as f64 * 1.5, i as f64 * -0.5))
            .collect();
        let blocks = store.append(7, &fixes);
        assert_eq!(blocks.len(), 3); // 256 + 256 + 88
        store.append(8, &fixes[..10]);
        let back = store.fixes_of(7).unwrap();
        assert_eq!(back.len(), 600);
        assert_eq!(store.fix_count(), 610);
        assert!(store.compressed_bytes() < store.raw_bytes() / 4);
    }

    /// xorshift64: the block generator below needs more shapes than the
    /// proptest stand-in's strategies offer, so it draws from one seed.
    struct Xs(u64);

    impl Xs {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// One timestamp column: metronomic 1 Hz, millisecond-exact steps,
    /// fractional (the raw-time escape), near and past `MAX_FIXED_TIME`,
    /// or a leading `-0.0`.
    fn times(n: usize, shape: u8, rng: &mut Xs) -> Vec<f64> {
        let t0 = (rng.next() % 1_000_000_000) as f64;
        match shape {
            0 => (0..n).map(|i| t0 + i as f64).collect(),
            1 => {
                let mut ms = rng.next() % 4_000_000_000_000;
                (0..n)
                    .map(|_| {
                        ms += rng.next() % 5_000;
                        ms as f64 / 1_000.0
                    })
                    .collect()
            }
            2 => {
                let period = 1.0 + rng.unit() * 1e-7;
                (0..n).map(|i| t0 + i as f64 * period).collect()
            }
            3 => {
                let mut ts: Vec<f64> = (0..n).map(|i| MAX_FIXED_TIME - (n - i) as f64).collect();
                match rng.below(3) {
                    0 => *ts.last_mut().expect("n ≥ 1") = MAX_FIXED_TIME,
                    1 => *ts.last_mut().expect("n ≥ 1") = MAX_FIXED_TIME + 1.0,
                    _ => {}
                }
                ts
            }
            _ => {
                let mut ts: Vec<f64> = (0..n).map(|i| i as f64).collect();
                ts[0] = -0.0;
                ts
            }
        }
    }

    /// One coordinate column: a smooth walk, exact ±0.5 cm ties (odd
    /// multiples of 1/8 m), or a walk with NaN, ±inf, values at and past
    /// `MAX_FIXED_COORD`, or `-0.0` dropped in at a random fix.
    fn coords(n: usize, shape: u8, rng: &mut Xs) -> Vec<f64> {
        let mut x = (rng.unit() - 0.5) * 2e6;
        let mut xs: Vec<f64> = (0..n)
            .map(|_| {
                x += (rng.unit() - 0.5) * 20.0;
                x
            })
            .collect();
        let at = rng.below(n);
        match shape {
            0 => {}
            1 => {
                for v in &mut xs {
                    let odd = 2 * (rng.next() % 8_000_000) as i64 + 1 - 8_000_000;
                    *v = odd as f64 / 8.0;
                }
            }
            2 => xs[at] = f64::NAN,
            3 => {
                xs[at] = if rng.below(2) == 0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            }
            4 => {
                xs[at] = match rng.below(4) {
                    0 => MAX_FIXED_COORD,
                    1 => -MAX_FIXED_COORD,
                    2 => MAX_FIXED_COORD * (1.0 + f64::EPSILON),
                    _ => -1e13,
                }
            }
            _ => {
                for v in &mut xs {
                    *v = match rng.below(4) {
                        0 => -0.0,
                        1 => 0.0,
                        2 => 0.005,
                        _ => -0.005,
                    };
                }
            }
        }
        xs
    }

    fn block_case() -> impl proptest::prelude::Strategy<Value = Vec<GpsRecord>> {
        use proptest::prelude::*;
        (
            prop_oneof![
                Just(1usize),
                Just(2usize),
                Just(BLOCK_LEN),
                1usize..BLOCK_LEN + 1
            ],
            0u8..5,
            0u8..6,
            0u8..6,
            1u64..u64::MAX,
        )
            .prop_map(|(n, t_shape, x_shape, y_shape, seed)| {
                let mut rng = Xs(seed);
                let ts = times(n, t_shape, &mut rng);
                let xs = coords(n, x_shape, &mut rng);
                let ys = coords(n, y_shape, &mut rng);
                (0..n).map(|i| rec(ts[i], xs[i], ys[i])).collect()
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1_000))]

        #[test]
        fn encode_matches_the_two_pass_oracle(fixes in block_case()) {
            let block = FixBlock::encode(&fixes);
            proptest::prop_assert_eq!(&block.bytes, &oracle::encode(&fixes));
        }
    }

    #[test]
    fn two_fix_blocks_roundtrip() {
        // a 2-fix fixed-point time column ends with an empty residual
        // stream that the decoder must consume before the x column
        let fixes = [rec(100.0, 1.0, 2.0), rec(101.0, 3.5, -4.25)];
        let block = FixBlock::encode(&fixes);
        let parsed = FixBlock::from_bytes(block.bytes.clone()).unwrap();
        let mut out = Vec::new();
        parsed.decode(&mut out).unwrap();
        assert_eq!(out, fixes);
    }
}

/// The block encoder before the single-pass rewrite — quantize each whole
/// column, encode it into its own buffer, pick the PFOR width by rescanning
/// the histogram per candidate width, concatenate — kept as the byte oracle
/// for [`FixBlock::encode`].
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::column::{bit_width, BitWriter};

    fn quantize(values: &[f64], scale: f64, max_abs: f64) -> Option<Vec<i64>> {
        let mut out = Vec::with_capacity(values.len());
        for &v in values {
            if !v.is_finite() || v.abs() > max_abs {
                return None;
            }
            out.push((v * scale).round() as i64);
        }
        Some(out)
    }

    fn quantize_exact(values: &[f64], scale: f64, max_abs: f64) -> Option<Vec<i64>> {
        let q = quantize(values, scale, max_abs)?;
        for (&v, &qi) in values.iter().zip(&q) {
            if (qi as f64 / scale).to_bits() != v.to_bits() {
                return None;
            }
        }
        Some(q)
    }

    fn pfor_encode(values: &[u64]) -> Vec<u8> {
        let mut hist = [0usize; 65];
        for &v in values {
            hist[bit_width(v) as usize] += 1;
        }
        let mut best_w = 0u32;
        let mut best_cost = u64::MAX;
        for w in 0..=57u32 {
            let mut cost = values.len() as u64 * u64::from(w);
            let mut exceptions = 0u64;
            for (width, &count) in hist.iter().enumerate() {
                if width as u32 > w {
                    exceptions += count as u64;
                }
            }
            cost += exceptions * 8 * 4;
            if cost < best_cost {
                best_cost = cost;
                best_w = w;
            }
            if exceptions == 0 {
                break;
            }
        }
        let mut packed = Vec::new();
        let mut writer = BitWriter::new(&mut packed);
        let mut exceptions: Vec<(usize, u64)> = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            if bit_width(v) > best_w {
                exceptions.push((i, v));
                writer.put(0, best_w);
            } else {
                writer.put(v, best_w);
            }
        }
        writer.finish();
        let mut out = Vec::with_capacity(packed.len() + 8);
        out.push(best_w as u8);
        write_varint(&mut out, exceptions.len() as u64);
        write_varint(&mut out, packed.len() as u64);
        out.extend_from_slice(&packed);
        for (i, v) in exceptions {
            write_varint(&mut out, i as u64);
            write_varint(&mut out, v);
        }
        out
    }

    fn encode_fixed_series(q: &[i64], dod: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(q.len() * 2 + 16);
        write_varint(&mut out, zigzag(q[0]));
        if q.len() == 1 {
            return out;
        }
        let mut residuals = Vec::with_capacity(q.len() - 1);
        if dod {
            let first_delta = q[1].wrapping_sub(q[0]);
            write_varint(&mut out, zigzag(first_delta));
            let mut prev_delta = first_delta;
            for w in q.windows(2).skip(1) {
                let delta = w[1].wrapping_sub(w[0]);
                residuals.push(zigzag(delta.wrapping_sub(prev_delta)));
                prev_delta = delta;
            }
        } else {
            for w in q.windows(2) {
                residuals.push(zigzag(w[1].wrapping_sub(w[0])));
            }
        }
        out.extend_from_slice(&pfor_encode(&residuals));
        out
    }

    fn raw_f64(values: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(values.len() * 8);
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// The serialized block [`FixBlock::encode`] must produce for `fixes`.
    pub fn encode(fixes: &[GpsRecord]) -> Vec<u8> {
        let mut flags = 0u8;
        let ts: Vec<f64> = fixes.iter().map(|f| f.t.0).collect();
        let time_payload = match quantize_exact(&ts, 1_000.0, MAX_FIXED_TIME) {
            Some(ms) => encode_fixed_series(&ms, true),
            None => {
                flags |= FLAG_TIME_RAW;
                raw_f64(&ts)
            }
        };
        let xs: Vec<f64> = fixes.iter().map(|f| f.point.x).collect();
        let ys: Vec<f64> = fixes.iter().map(|f| f.point.y).collect();
        let x_payload = match quantize(&xs, 100.0, MAX_FIXED_COORD) {
            Some(cm) => encode_fixed_series(&cm, false),
            None => {
                flags |= FLAG_X_RAW;
                raw_f64(&xs)
            }
        };
        let y_payload = match quantize(&ys, 100.0, MAX_FIXED_COORD) {
            Some(cm) => encode_fixed_series(&cm, false),
            None => {
                flags |= FLAG_Y_RAW;
                raw_f64(&ys)
            }
        };
        let mut out = Vec::new();
        out.extend_from_slice(&(fixes.len() as u16).to_le_bytes());
        out.push(flags);
        out.extend_from_slice(&time_payload);
        out.extend_from_slice(&x_payload);
        out.extend_from_slice(&y_payload);
        out
    }
}
