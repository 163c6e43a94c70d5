//! Bit-level column primitives: zigzag mapping, LEB128 varints, a
//! fixed-width packed vector for the semantic-matrix label streams, and a
//! bit writer/reader pair for the PFOR-style fix blocks.
//!
//! Everything here is allocation-light and dependency-free; the formats
//! built on top ([`crate::fixcol`], [`crate::matrix`]) own the framing.

use std::io::{self, Read};

/// Multiplicative hasher for fixed-width integer keys: the matrix's
/// `(place_id, label_code)` dictionary and the rect index's cell
/// coordinates. SipHash on such keys costs more than the work the lookup
/// serves, and these keys need no DoS resistance.
#[derive(Default)]
pub(crate) struct FixedHasher(u64);

impl std::hash::Hasher for FixedHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 32;
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
}

/// Builds [`FixedHasher`]s for `HashMap`s.
pub(crate) type BuildFixedHasher = std::hash::BuildHasherDefault<FixedHasher>;

/// Maps a signed value onto an unsigned one with small magnitudes staying
/// small (`0, -1, 1, -2, … → 0, 1, 2, 3, …`).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a LEB128 varint to `out`, returning the encoded byte count.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) -> usize {
    let mut n = 0;
    loop {
        n += 1;
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Number of bytes [`write_varint`] would emit for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Reads a LEB128 varint from `src`.
///
/// # Errors
/// Fails on EOF or a varint longer than 10 bytes.
pub fn read_varint(src: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        src.read_exact(&mut b)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint too long",
            ));
        }
        v |= u64::from(b[0] & 0x7f) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Bits needed to represent `v` (0 for `v == 0`).
#[inline]
pub fn bit_width(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// A vector of unsigned values packed at a fixed bit width.
///
/// This is the Semantrix label-stream container: `width` is
/// `⌈log₂|dict|⌉` for the layer's dictionary and every label costs
/// exactly `width` bits. Supports random-access `get`/`set` so a layer
/// can be patched in place (e.g. when a later log record upgrades a
/// trajectory's road-class/landuse labels).
#[derive(Debug, Clone, Default)]
pub struct PackedVec {
    width: u32,
    len: usize,
    words: Vec<u64>,
}

impl PackedVec {
    /// Creates an empty packed vector with the given bit width (≤ 32).
    pub fn new(width: u32) -> Self {
        assert!(width <= 32, "packed width must be ≤ 32 bits");
        Self {
            width,
            len: 0,
            words: Vec::new(),
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit width per element.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Total bits occupied by the packed payload.
    pub fn bits(&self) -> u64 {
        self.len as u64 * u64::from(self.width)
    }

    /// Heap bytes backing the stream.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Appends a value (truncated to the stream width).
    pub fn push(&mut self, v: u64) {
        let idx = self.len;
        self.len += 1;
        let need = ((self.len as u64 * u64::from(self.width)) as usize).div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
        self.set(idx, v);
    }

    /// Reads the value at `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    #[inline]
    pub fn get(&self, idx: usize) -> u64 {
        assert!(idx < self.len, "PackedVec index out of bounds");
        if self.width == 0 {
            return 0;
        }
        let bit = idx as u64 * u64::from(self.width);
        let word = (bit / 64) as usize;
        let off = (bit % 64) as u32;
        let mask = mask(self.width);
        let lo = self.words[word] >> off;
        if off + self.width <= 64 {
            lo & mask
        } else {
            let hi = self.words[word + 1] << (64 - off);
            (lo | hi) & mask
        }
    }

    /// Overwrites the value at `idx` (truncated to the stream width).
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    pub fn set(&mut self, idx: usize, v: u64) {
        assert!(idx < self.len, "PackedVec index out of bounds");
        if self.width == 0 {
            return;
        }
        let v = v & mask(self.width);
        let bit = idx as u64 * u64::from(self.width);
        let word = (bit / 64) as usize;
        let off = (bit % 64) as u32;
        let m = mask(self.width);
        self.words[word] &= !(m << off);
        self.words[word] |= v << off;
        if off + self.width > 64 {
            let spill = 64 - off;
            self.words[word + 1] &= !(m >> spill);
            self.words[word + 1] |= v >> spill;
        }
    }

    /// Streaming cursor over `start .. start + len`: one bounds check up
    /// front, then sequential shift-and-mask decode with the bit cursor
    /// carried across elements — the scan path, where per-element
    /// [`PackedVec::get`] arithmetic would dominate the aggregate.
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    pub fn iter_range(&self, start: usize, len: usize) -> PackedIter<'_> {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "PackedVec range out of bounds"
        );
        let bit = start as u64 * u64::from(self.width);
        let skip = (bit >> 6) as usize;
        let off = (bit & 63) as u32;
        // Prime the accumulator with the tail of the word the range starts
        // in; the slice iterator then feeds whole words with no per-element
        // bounds checks.
        let mut words = self.words[skip.min(self.words.len())..].iter();
        let acc = u128::from(words.next().copied().unwrap_or(0) >> off);
        PackedIter {
            words,
            acc,
            acc_bits: 64 - off,
            width: self.width,
            mask: mask(self.width),
            remaining: len,
        }
    }
}

/// Sequential decoder returned by [`PackedVec::iter_range`].
///
/// Keeps a 128-bit shift accumulator refilled one whole word at a time
/// from a slice iterator, so the per-element cost is a shift, a mask and
/// a counter decrement — the refill branch only fires every
/// `64 / width` elements and the slice iterator never bounds-checks.
#[derive(Debug)]
pub struct PackedIter<'a> {
    words: std::slice::Iter<'a, u64>,
    acc: u128,
    acc_bits: u32,
    width: u32,
    mask: u64,
    remaining: usize,
}

impl Iterator for PackedIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.width == 0 {
            return Some(0);
        }
        if self.acc_bits < self.width {
            let word = self.words.next().copied().unwrap_or(0);
            self.acc |= u128::from(word) << self.acc_bits;
            self.acc_bits += 64;
        }
        let v = self.acc as u64 & self.mask;
        self.acc >>= self.width;
        self.acc_bits -= self.width;
        Some(v)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PackedIter<'_> {}

#[inline]
fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Streams values at arbitrary bit widths onto the end of a byte buffer
/// (LSB-first), a whole 64-bit word at a time.
#[derive(Debug)]
pub struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    filled: u32,
}

impl<'a> BitWriter<'a> {
    /// Creates a writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self {
            out,
            acc: 0,
            filled: 0,
        }
    }

    /// Appends the low `width` bits of `v`.
    #[inline]
    pub fn put(&mut self, v: u64, width: u32) {
        debug_assert!(width <= 57, "BitWriter width must be ≤ 57");
        let v = v & mask(width);
        self.acc |= v << self.filled;
        self.filled += width;
        if self.filled >= 64 {
            self.out.extend_from_slice(&self.acc.to_le_bytes());
            self.filled -= 64;
            // the bits of `v` that did not fit in the word just written
            self.acc = if self.filled == 0 {
                0
            } else {
                v >> (width - self.filled)
            };
        }
    }

    /// Flushes the partial word, its last byte zero-padded.
    pub fn finish(self) {
        let bytes = self.filled.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
    }
}

/// Reads back a [`BitWriter`] stream.
pub struct BitReader<'a> {
    src: &'a [u8],
    pos: usize,
    acc: u64,
    filled: u32,
}

impl<'a> BitReader<'a> {
    /// Wraps a byte slice produced by [`BitWriter::finish`].
    pub fn new(src: &'a [u8]) -> Self {
        Self {
            src,
            pos: 0,
            acc: 0,
            filled: 0,
        }
    }

    /// Reads `width` bits; missing bytes read as zero (the writer's final
    /// partial byte is zero-padded).
    pub fn get(&mut self, width: u32) -> u64 {
        debug_assert!(width <= 57, "BitReader width must be ≤ 57");
        while self.filled < width {
            let byte = if self.pos < self.src.len() {
                let b = self.src[self.pos];
                self.pos += 1;
                b
            } else {
                0
            };
            self.acc |= u64::from(byte) << self.filled;
            self.filled += 8;
        }
        let v = self.acc & mask(width);
        self.acc >>= width;
        self.filled -= width;
        v
    }

    /// Bytes consumed so far (rounded up to whole bytes).
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

/// Appends `values` to `out` with a PFOR-style layout: a base bit width
/// chosen to minimize total size, all values packed at that width, and the
/// few that overflow it patched from an exception list of `(index, value)`
/// varint pairs.
///
/// Layout: `width u8 · n_exceptions varint · packed payload bytes varint
/// length + bytes · exceptions (index varint, value varint)*`.
pub fn pfor_encode(values: &[u64], out: &mut Vec<u8>) {
    // histogram of required widths
    let mut hist = [0u64; 65];
    for &v in values {
        hist[bit_width(v) as usize] += 1;
    }
    // pick the width minimizing packed bits + exception bytes; the values
    // wider than `w` are the suffix sum of the histogram past `w`
    let n = values.len() as u64;
    let mut best_w = 0u32;
    let mut best_cost = u64::MAX;
    let mut best_exceptions = 0u64;
    let mut exceptions = n - hist[0];
    for w in 0..=57u32 {
        // an exception costs roughly index varint (1–2 B) + value varint
        let cost = n * u64::from(w) + exceptions * 8 * 4;
        if cost < best_cost {
            best_cost = cost;
            best_w = w;
            best_exceptions = exceptions;
        }
        if exceptions == 0 {
            break; // larger widths only cost more
        }
        exceptions -= hist[w as usize + 1];
    }
    let packed_len = (n * u64::from(best_w)).div_ceil(8);
    out.reserve(packed_len as usize + 8);
    out.push(best_w as u8);
    write_varint(out, best_exceptions);
    write_varint(out, packed_len);
    let limit = mask(best_w);
    if best_w > 0 {
        let mut writer = BitWriter::new(out);
        for &v in values {
            // exceptions pack as 0 and are patched from the list below
            writer.put(if v > limit { 0 } else { v }, best_w);
        }
        writer.finish();
    }
    if best_exceptions > 0 {
        for (i, &v) in values.iter().enumerate() {
            if v > limit {
                write_varint(out, i as u64);
                write_varint(out, v);
            }
        }
    }
}

/// Decodes `count` values written by [`pfor_encode`] from `src`.
///
/// # Errors
/// Fails on truncation or malformed framing.
pub fn pfor_decode(src: &mut impl Read, count: usize, out: &mut Vec<u64>) -> io::Result<()> {
    let mut w = [0u8; 1];
    src.read_exact(&mut w)?;
    let width = u32::from(w[0]);
    if width > 57 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "pfor width out of range",
        ));
    }
    let n_exc = read_varint(src)? as usize;
    let packed_len = read_varint(src)? as usize;
    let expected = ((count as u64 * u64::from(width)) as usize).div_ceil(8);
    if packed_len != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "pfor payload length mismatch",
        ));
    }
    let mut packed = vec![0u8; packed_len];
    src.read_exact(&mut packed)?;
    let base = out.len();
    let mut reader = BitReader::new(&packed);
    for _ in 0..count {
        out.push(reader.get(width));
    }
    for _ in 0..n_exc {
        let idx = read_varint(src)? as usize;
        let v = read_varint(src)?;
        if idx >= count {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "pfor exception index out of range",
            ));
        }
        out[base + idx] = v;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_roundtrip() {
        for v in [
            0i64,
            1,
            -1,
            2,
            -2,
            i64::MAX,
            i64::MIN,
            123456789,
            -987654321,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            let n = write_varint(&mut buf, v);
            assert_eq!(n, varint_len(v));
        }
        let mut src = buf.as_slice();
        for &v in &values {
            assert_eq!(read_varint(&mut src).unwrap(), v);
        }
    }

    #[test]
    fn packed_vec_get_set_across_words() {
        for width in [1u32, 3, 5, 7, 13, 17, 31] {
            let mut pv = PackedVec::new(width);
            let n = 200;
            for i in 0..n {
                pv.push((i as u64 * 2_654_435_761) & ((1 << width) - 1));
            }
            for i in 0..n {
                assert_eq!(pv.get(i), (i as u64 * 2_654_435_761) & ((1 << width) - 1));
            }
            pv.set(63, 1);
            pv.set(64, (1 << width) - 1);
            assert_eq!(pv.get(63), 1);
            assert_eq!(pv.get(64), (1 << width) - 1);
            assert_eq!(pv.get(65), (65u64 * 2_654_435_761) & ((1 << width) - 1));
        }
    }

    #[test]
    fn bit_writer_reader_roundtrip() {
        let mut bytes = Vec::new();
        let mut w = BitWriter::new(&mut bytes);
        let widths = [0u32, 1, 3, 11, 23, 33, 57];
        for (i, &width) in widths.iter().cycle().take(500).enumerate() {
            w.put(i as u64, width);
        }
        w.finish();
        let mut r = BitReader::new(&bytes);
        for (i, &width) in widths.iter().cycle().take(500).enumerate() {
            assert_eq!(r.get(width), (i as u64) & ((1u64 << width) - 1));
        }
    }

    #[test]
    fn pfor_roundtrip_with_outliers() {
        let mut values: Vec<u64> = (0..300).map(|i| (i * 7) % 900).collect();
        values[13] = u64::from(u32::MAX); // spike must become an exception
        values[255] = 1 << 40;
        let mut bytes = Vec::new();
        pfor_encode(&values, &mut bytes);
        // the spikes must not inflate the base width to 40 bits
        assert!(bytes[0] <= 16, "base width {} too wide", bytes[0]);
        let mut out = Vec::new();
        pfor_decode(&mut bytes.as_slice(), values.len(), &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn pfor_empty_and_constant() {
        let mut bytes = Vec::new();
        pfor_encode(&[], &mut bytes);
        let mut out = Vec::new();
        pfor_decode(&mut bytes.as_slice(), 0, &mut out).unwrap();
        assert!(out.is_empty());

        let zeros = vec![0u64; 1000];
        let mut bytes = Vec::new();
        pfor_encode(&zeros, &mut bytes);
        assert!(bytes.len() < 16, "all-zero column must be ~free");
        let mut out = Vec::new();
        pfor_decode(&mut bytes.as_slice(), zeros.len(), &mut out).unwrap();
        assert_eq!(out, zeros);
    }

    #[test]
    fn pfor_truncation_detected() {
        let values: Vec<u64> = (0..100).collect();
        let mut bytes = vec![0xaa]; // appends after what the caller holds
        pfor_encode(&values, &mut bytes);
        assert_eq!(bytes[0], 0xaa);
        let bytes = &bytes[1..];
        let mut out = Vec::new();
        assert!(pfor_decode(&mut &bytes[..bytes.len() - 2], 100, &mut out).is_err());
    }
}
