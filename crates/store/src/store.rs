//! The Semantic Trajectory Store.
//!
//! Tables mirror the paper's PostGIS schema (§5.1): trajectory metadata,
//! stop/move episodes and the final structured semantic trajectories,
//! queryable by object, time range and space.
//!
//! Since the columnar engine landed, the in-memory layout is
//! warehouse-style rather than row-structs:
//!
//! * raw GPS fixes compress into [`crate::fixcol`] blocks
//!   (delta-of-delta timestamps, centimeter fixed-point positions,
//!   per-block min/max + bbox summaries);
//! * each episode is one 64-byte row (bbox, span, trajectory, index,
//!   kind) with its record range in a cold side vector; time windows skip
//!   whole blocks of 256 rows by their `t_min`/`t_max` summary, and rect
//!   windows read only the rows the [`crate::lattice`] posting index lists
//!   as candidates, in storage order, each decided by the same row
//!   predicate as a full scan;
//! * semantic-tuple annotation layers live in the bitpacked
//!   [`crate::matrix::SemanticMatrix`] streams, with the full SST body
//!   retained as a compact codec blob for exact reconstruction;
//! * warehouse aggregates ([`crate::olap`]) scan the compressed columns
//!   directly.
//!
//! Two write modes:
//!
//! * **in-memory** — everything lives in the process;
//! * **durable** — every write batch is also appended to a log file and
//!   flushed with `sync_data`, reproducing the realistic "storing
//!   dominates computing" latency profile of Fig. 17. Version-1 logs
//!   (the row-format era) still replay.
//!
//! ## The durable write path
//!
//! Every `put_*` is one batch: its records are encoded into the log's
//! reusable buffer (one encoder function per record type, shared by the
//! single-record calls, [`SemanticTrajectoryStore::put_annotated`] and
//! `compact`), written with one `write_all` and made durable with one
//! `sync_data`. `put_annotated` is a single batch of the meta record, the
//! fix blocks, the episodes record and the SST + layers records — the same
//! records in the same order as the four separate calls write, so the log
//! bytes are identical — at one write and one sync per trajectory. Its
//! in-memory inserts apply under one `inner` lock, so a reader never sees
//! a trajectory's metadata without its SST.
//!
//! Crash contract: a crash may leave a prefix of the records, and a torn
//! final record makes [`SemanticTrajectoryStore::open_durable`] fail
//! rather than replay a guess. Creating a log syncs its parent directory,
//! and so does `compact`'s rename of the rewritten log over the old one.
//!
//! Lock order is log → inner everywhere: an append applies its in-memory
//! inserts while it still holds the log lock, and `compact` holds the log
//! lock from its snapshot of `inner` to the rename, so a write is either
//! in the snapshot or waits for the new file — never acknowledged and then
//! lost at the rename.

use crate::codec::{seq_capacity, Decoder, Encoder};
use crate::fixcol::{FixBlock, FixColumnStore, BLOCK_LEN};
use crate::lattice::LatticeIndex;
use crate::matrix::{SemanticMatrix, TupleLayers};
use crate::olap::{LanduseHourCounts, ModeShareByClass, PoiVisit};
use parking_lot::Mutex;
use semitri_core::model::{
    Annotation, AnnotationValue, PlaceKind, PlaceRef, SemanticTuple, StructuredSemanticTrajectory,
};
use semitri_core::pipeline::PipelineOutput;
use semitri_data::{
    GpsRecord, LanduseCategory, PoiCategory, RoadClass, RoadNetwork, TransportMode,
};
use semitri_episodes::{Episode, EpisodeKind};
use semitri_geo::{Rect, TimeSpan, Timestamp};
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Store errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failure.
    Io(io::Error),
    /// The log file is corrupt or from an incompatible version.
    Corrupt(String),
    /// A write referenced a trajectory that was never registered.
    UnknownTrajectory(u64),
    /// A layered write's per-tuple rows did not align with the SST.
    LayerMismatch {
        /// Tuples in the SST.
        expected: usize,
        /// Layer rows supplied.
        got: usize,
    },
    /// A write carried an episode or tuple span that is reversed or NaN
    /// (`Episode` and `TimeSpan` have public fields, so `TimeSpan::new`'s
    /// check can be bypassed); nothing was written.
    InvalidSpan {
        /// The trajectory the span belongs to.
        trajectory_id: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store log: {m}"),
            StoreError::UnknownTrajectory(id) => {
                write!(f, "unknown trajectory id {id}")
            }
            StoreError::LayerMismatch { expected, got } => {
                write!(f, "layer rows misaligned: {got} rows for {expected} tuples")
            }
            StoreError::InvalidSpan { trajectory_id } => {
                write!(f, "reversed or NaN span in trajectory {trajectory_id}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Trajectory metadata row.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryMeta {
    /// Trajectory id (primary key).
    pub trajectory_id: u64,
    /// Moving object id.
    pub object_id: u64,
    /// Number of raw GPS records the trajectory had.
    pub record_count: u64,
}

/// Episode row: a stop/move episode of a stored trajectory, materialized
/// from the episode columns on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredEpisode {
    /// Owning trajectory.
    pub trajectory_id: u64,
    /// Position within the trajectory's episode list.
    pub index: u32,
    /// Stop or move.
    pub kind: EpisodeKind,
    /// Entering/leaving times.
    pub span: TimeSpan,
    /// Spatial extent.
    pub bbox: Rect,
}

const MAGIC: u32 = 0x5357_5254; // "SWRT"
/// Current log version (2 = columnar records).
const VERSION: u8 = 2;

const REC_META: u8 = 1;
/// v1 single-episode record (replayed, no longer written).
const REC_EPISODE: u8 = 2;
const REC_SST: u8 = 3;
/// v2: one compressed fix-column block.
const REC_FIXBLOCK: u8 = 4;
/// v2: per-tuple layer rows for a trajectory's SST.
const REC_LAYERS: u8 = 5;
/// v2: episode batch with record ranges.
const REC_EPISODES2: u8 = 6;

/// Largest fix-block payload the replay path will accept; an honest
/// block is ≤ ~6.5 KiB even with every column in raw-f64 fallback.
const MAX_FIXBLOCK_BYTES: usize = 64 * 1024;

/// Episodes per time-window block (one `t_min`/`t_max` summary each).
const EP_BLOCK: usize = 256;

/// Capacity the log's encode buffer keeps between batches; a batch for
/// one very long trajectory grows it, and it shrinks back after.
const RETAINED_BATCH_BYTES: usize = 1 << 20;

/// One episode as the episode columns and the `REC_EPISODES2` record
/// hold it.
#[derive(Debug, Clone, Copy)]
struct EpisodeRow {
    index: u32,
    kind: EpisodeKind,
    span: TimeSpan,
    bbox: Rect,
    rec_start: u32,
    rec_end: u32,
}

/// `true` when `[start, end]` is a span `TimeSpan::new` accepts: `false`
/// when it is reversed or either end is NaN. The write path and replay
/// both hold spans to it, so no stored row can panic a reader.
fn ordered(start: f64, end: f64) -> bool {
    start <= end
}

/// Fails with [`StoreError::InvalidSpan`] unless every span is ordered.
fn check_spans<'a>(
    trajectory_id: u64,
    mut spans: impl Iterator<Item = &'a TimeSpan>,
) -> Result<(), StoreError> {
    if spans.all(|s| ordered(s.start.0, s.end.0)) {
        Ok(())
    } else {
        Err(StoreError::InvalidSpan { trajectory_id })
    }
}

/// The rows of a trajectory's episode list, record ranges clamped to
/// `u32`.
fn episode_rows(episodes: &[Episode]) -> impl ExactSizeIterator<Item = EpisodeRow> + Clone + '_ {
    episodes.iter().enumerate().map(|(i, e)| EpisodeRow {
        index: i as u32,
        kind: e.kind,
        span: e.span,
        bbox: e.bbox,
        rec_start: e.start.min(u32::MAX as usize) as u32,
        rec_end: e.end.min(u32::MAX as usize) as u32,
    })
}

#[derive(Debug, Clone, Copy)]
struct EpSummary {
    t_min: f64,
    t_max: f64,
}

/// What every episode query reads of one row, on one cache line: a rect
/// candidate costs one line, not one per field.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct HotRow {
    bbox: Rect,
    span: TimeSpan,
    traj: u64,
    index: u32,
    kind: EpisodeKind,
}

impl HotRow {
    fn stored(&self) -> StoredEpisode {
        StoredEpisode {
            trajectory_id: self.traj,
            index: self.index,
            kind: self.kind,
            span: self.span,
            bbox: self.bbox,
        }
    }
}

/// All stored episodes: one [`HotRow`] each, their record ranges (read
/// only by `compact`) beside them, a `t_min`/`t_max` summary per
/// [`EP_BLOCK`] rows for time windows, and the [`LatticeIndex`] for rect
/// windows.
#[derive(Default)]
struct EpisodeStore {
    rows: Vec<HotRow>,
    ranges: Vec<(u32, u32)>,
    summaries: Vec<EpSummary>,
    lattice: LatticeIndex,
}

impl EpisodeStore {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn push(&mut self, traj: u64, row: EpisodeRow) {
        let EpisodeRow {
            index,
            kind,
            span,
            bbox,
            rec_start,
            rec_end,
        } = row;
        if self.len() % EP_BLOCK == 0 {
            self.summaries.push(EpSummary {
                t_min: f64::INFINITY,
                t_max: f64::NEG_INFINITY,
            });
        }
        let s = self.summaries.last_mut().expect("summary pushed");
        s.t_min = s.t_min.min(span.start.0);
        s.t_max = s.t_max.max(span.end.0);
        let id = u32::try_from(self.rows.len()).expect("episode row ids fit in u32");
        self.lattice.insert(id, &bbox);
        self.rows.push(HotRow {
            bbox,
            span,
            traj,
            index,
            kind,
        });
        self.ranges.push((rec_start, rec_end));
    }

    /// Row `i` as pushed.
    fn episode_row(&self, i: usize) -> EpisodeRow {
        let r = &self.rows[i];
        let (rec_start, rec_end) = self.ranges[i];
        EpisodeRow {
            index: r.index,
            kind: r.kind,
            span: r.span,
            bbox: r.bbox,
            rec_start,
            rec_end,
        }
    }

    /// Visits rows overlapping the time window in storage order,
    /// returning `(blocks checked, blocks skipped)`.
    fn for_each_in_time(&self, window: &TimeSpan, mut f: impl FnMut(StoredEpisode)) -> (u64, u64) {
        let mut checked = 0u64;
        let mut skipped = 0u64;
        for (bi, s) in self.summaries.iter().enumerate() {
            checked += 1;
            if s.t_min > window.end.0 || s.t_max < window.start.0 {
                skipped += 1;
                continue;
            }
            let lo = bi * EP_BLOCK;
            let hi = (lo + EP_BLOCK).min(self.len());
            for i in lo..hi {
                let r = &self.rows[i];
                if r.span.start.0 <= window.end.0 && window.start.0 <= r.span.end.0 {
                    f(r.stored());
                }
            }
        }
        (checked, skipped)
    }

    /// Visits rows whose bbox intersects the window in storage order,
    /// returning `(candidates, hits)`: the lattice lists candidates, and
    /// the row predicate decides each one.
    fn for_each_in_rect(&mut self, window: &Rect, mut f: impl FnMut(StoredEpisode)) -> (u64, u64) {
        let mut hits = 0u64;
        let rows = &self.rows;
        let candidates = self.lattice.for_each_candidate(window, |i| {
            let b = &rows[i].bbox;
            if b.min_x <= window.max_x
                && window.min_x <= b.max_x
                && b.min_y <= window.max_y
                && window.min_y <= b.max_y
                && b.min_x <= b.max_x
                && b.min_y <= b.max_y
            {
                hits += 1;
                f(rows[i].stored());
            }
        });
        (candidates, hits)
    }
}

#[derive(Default)]
struct Inner {
    metas: HashMap<u64, TrajectoryMeta>,
    episodes: EpisodeStore,
    fixes: FixColumnStore,
    matrix: SemanticMatrix,
}

#[derive(Default)]
struct Counters {
    time_queries: AtomicU64,
    rect_queries: AtomicU64,
    olap_queries: AtomicU64,
    blocks_checked: AtomicU64,
    blocks_skipped: AtomicU64,
    rect_candidates: AtomicU64,
    rect_hits: AtomicU64,
    syncs: AtomicU64,
}

impl Counters {
    /// Issues one fsync-family call, counting it.
    fn sync(&self, call: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        call()
    }
}

/// The durable log's writer: the open file and the buffer each batch is
/// encoded into before its one `write_all`.
struct Log {
    file: File,
    buf: Vec<u8>,
}

/// Makes a directory-entry change under `path` (a create or a rename)
/// durable by syncing the parent directory.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Directories cannot be opened for syncing here; the rename's own
/// guarantees are all there is.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// Point-in-time view of the store's storage and query counters —
/// polled by `semitri-obs` for the `store.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreMetricsSnapshot {
    /// Registered trajectories.
    pub trajectories: u64,
    /// Stored episodes.
    pub episodes: u64,
    /// Stored (alive) semantic trajectories.
    pub ssts: u64,
    /// Raw GPS fixes held in fix-column blocks.
    pub fix_count: u64,
    /// Fix-column blocks written.
    pub fix_blocks: u64,
    /// Bytes the fixes would occupy in the row layout.
    pub fix_raw_bytes: u64,
    /// Bytes of compressed fix payload actually held.
    pub fix_compressed_bytes: u64,
    /// Alive semantic tuples in the matrix.
    pub live_tuples: u64,
    /// Tombstoned tuples awaiting compaction.
    pub dead_tuples: u64,
    /// Bits held by the bitpacked label streams.
    pub label_bits: u64,
    /// Time-window episode queries served.
    pub time_queries: u64,
    /// Spatial episode queries served.
    pub rect_queries: u64,
    /// OLAP aggregate scans served.
    pub olap_queries: u64,
    /// Episode blocks examined by time-window queries (rect windows go
    /// through the lattice index and touch no block).
    pub ep_blocks_checked: u64,
    /// Episode blocks time-window queries skipped via their `t_min` /
    /// `t_max` summary.
    pub ep_blocks_skipped: u64,
    /// Rows the lattice index listed as rect-window candidates, each
    /// counted once per query.
    pub rect_candidates: u64,
    /// Rect-window candidates whose bbox did intersect the window.
    pub rect_hits: u64,
    /// Durable log size in bytes (0 when in-memory).
    pub log_bytes: u64,
    /// fsync-family calls issued: one data sync per write batch, the
    /// header and parent-directory syncs of a new log, and the temp-file
    /// and directory syncs of each compaction (0 when in-memory; the
    /// directory syncs are no-ops off Unix but count the same).
    pub syncs: u64,
}

impl StoreMetricsSnapshot {
    /// Compressed bytes per stored fix (0 when no fixes are stored).
    pub fn bytes_per_fix(&self) -> f64 {
        if self.fix_count == 0 {
            0.0
        } else {
            self.fix_compressed_bytes as f64 / self.fix_count as f64
        }
    }

    /// Label-stream bytes per alive tuple (all layers together).
    pub fn label_bytes_per_tuple(&self) -> f64 {
        let tuples = self.live_tuples + self.dead_tuples;
        if tuples == 0 {
            0.0
        } else {
            self.label_bits as f64 / 8.0 / tuples as f64
        }
    }

    /// Fraction of the episode blocks time-window queries examined that
    /// their summaries skipped.
    pub fn block_skip_rate(&self) -> f64 {
        if self.ep_blocks_checked == 0 {
            0.0
        } else {
            self.ep_blocks_skipped as f64 / self.ep_blocks_checked as f64
        }
    }
}

/// The embedded semantic trajectory store.
///
/// ```
/// use semitri_store::{SemanticTrajectoryStore, TrajectoryMeta};
///
/// let store = SemanticTrajectoryStore::in_memory();
/// store.put_trajectory(TrajectoryMeta {
///     trajectory_id: 1,
///     object_id: 9,
///     record_count: 1_000,
/// }).unwrap();
/// assert_eq!(store.trajectories_of(9), vec![1]);
/// assert_eq!(store.counts(), (1, 0, 0));
/// ```
pub struct SemanticTrajectoryStore {
    inner: Mutex<Inner>,
    /// Taken before `inner` whenever both are held.
    log: Option<Mutex<Log>>,
    path: Option<PathBuf>,
    counters: Counters,
}

impl SemanticTrajectoryStore {
    /// Creates an empty in-memory store.
    pub fn in_memory() -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            log: None,
            path: None,
            counters: Counters::default(),
        }
    }

    /// Opens (or creates) a durable store backed by a synced log file.
    /// Existing contents are replayed into memory; version-1 (row
    /// format) logs migrate transparently. A new log's header is synced,
    /// and so is its parent directory, before this returns.
    ///
    /// # Errors
    /// Fails on I/O errors or a corrupt log.
    pub fn open_durable(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let counters = Counters::default();
        let mut inner = Inner::default();
        if path.exists() {
            replay(&path, &mut inner)?;
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut buf = Vec::new();
        if file.metadata()?.len() == 0 {
            encode_header(&mut Encoder::new(&mut buf))?;
            file.write_all(&buf)?;
            counters.sync(|| file.sync_data())?;
            counters.sync(|| sync_parent_dir(&path))?;
            buf.clear();
        }
        Ok(Self {
            inner: Mutex::new(inner),
            log: Some(Mutex::new(Log { file, buf })),
            path: Some(path),
            counters,
        })
    }

    /// The backing file path, when durable.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The one write path. `batch` is what one call writes: for a durable
    /// store `encode` turns it into log records in the reusable batch
    /// buffer, which goes out with one `write_all` and one `sync_data`;
    /// then `apply` inserts it into `inner` while the log lock is still
    /// held (lock order log → inner), so `compact` sees every
    /// acknowledged batch. An in-memory store only applies.
    fn append<B>(
        &self,
        batch: B,
        encode: impl FnOnce(&mut Encoder<Vec<u8>>, &B) -> io::Result<()>,
        apply: impl FnOnce(&mut Inner, B),
    ) -> Result<(), StoreError> {
        let Some(log) = &self.log else {
            apply(&mut self.inner.lock(), batch);
            return Ok(());
        };
        let mut log = log.lock();
        let mut enc = Encoder::new(std::mem::take(&mut log.buf));
        let encoded = encode(&mut enc, &batch);
        let mut buf = enc.into_inner();
        let written = encoded
            .and_then(|()| log.file.write_all(&buf))
            .and_then(|()| self.counters.sync(|| log.file.sync_data()));
        buf.clear();
        buf.shrink_to(RETAINED_BATCH_BYTES);
        log.buf = buf;
        written?;
        apply(&mut self.inner.lock(), batch);
        Ok(())
    }

    /// Registers a trajectory's metadata.
    ///
    /// # Errors
    /// Fails only on durable-log I/O errors.
    pub fn put_trajectory(&self, meta: TrajectoryMeta) -> Result<(), StoreError> {
        self.append(meta, encode_meta, |inner, meta| {
            inner.metas.insert(meta.trajectory_id, meta);
        })
    }

    fn require_trajectory(&self, trajectory_id: u64) -> Result<(), StoreError> {
        if !self.inner.lock().metas.contains_key(&trajectory_id) {
            return Err(StoreError::UnknownTrajectory(trajectory_id));
        }
        Ok(())
    }

    /// Stores the stop/move episodes of a registered trajectory,
    /// including each episode's record range (the CSR episode →
    /// record-range index).
    ///
    /// # Errors
    /// Fails when the trajectory is unknown, an episode span is reversed
    /// or NaN, or on log I/O errors.
    pub fn put_episodes(&self, trajectory_id: u64, episodes: &[Episode]) -> Result<(), StoreError> {
        check_spans(trajectory_id, episodes.iter().map(|e| &e.span))?;
        self.require_trajectory(trajectory_id)?;
        self.append(
            episode_rows(episodes),
            |enc, rows| encode_episodes(enc, trajectory_id, rows.clone()),
            |inner, rows| rows.for_each(|row| inner.episodes.push(trajectory_id, row)),
        )
    }

    /// Stores a trajectory's raw GPS fixes in compressed fix-column
    /// blocks. Timestamps round-trip exactly; positions round-trip to
    /// within [`crate::fixcol::POSITION_QUANTUM`]`/2`.
    ///
    /// # Errors
    /// Fails when the trajectory is unknown or on log I/O errors.
    pub fn put_fixes(&self, trajectory_id: u64, fixes: &[GpsRecord]) -> Result<(), StoreError> {
        if fixes.is_empty() {
            return Ok(());
        }
        self.require_trajectory(trajectory_id)?;
        let blocks: Vec<FixBlock> = fixes.chunks(BLOCK_LEN).map(FixBlock::encode).collect();
        self.append(
            blocks,
            |enc, blocks| {
                blocks
                    .iter()
                    .try_for_each(|b| encode_fix_block(enc, trajectory_id, b))
            },
            |inner, blocks| {
                for b in blocks {
                    inner.fixes.push_block(trajectory_id, b);
                }
            },
        )
    }

    /// Decodes a trajectory's stored fixes, in storage order.
    ///
    /// # Errors
    /// Fails when a stored block is corrupt.
    pub fn get_fixes(&self, trajectory_id: u64) -> Result<Vec<GpsRecord>, StoreError> {
        Ok(self.inner.lock().fixes.fixes_of(trajectory_id)?)
    }

    /// Stores a structured semantic trajectory (replacing any previous
    /// one for the same id). Annotation layers derive from the tuples
    /// alone; use [`SemanticTrajectoryStore::put_sst_with_layers`] or
    /// [`SemanticTrajectoryStore::put_annotated`] to attach road-class /
    /// landuse labels and record counts.
    ///
    /// # Errors
    /// Fails when the trajectory is unknown, a tuple span is reversed or
    /// NaN, or on log I/O errors.
    pub fn put_sst(&self, sst: &StructuredSemanticTrajectory) -> Result<(), StoreError> {
        check_sst_spans(sst)?;
        self.require_trajectory(sst.trajectory_id)?;
        let blob = sst_blob(sst)?;
        let layers = default_layer_rows(sst);
        self.append(
            blob,
            |enc, blob| encode_sst(enc, blob),
            |inner, blob| inner.matrix.insert(sst, &layers, blob),
        )
    }

    /// Stores a structured semantic trajectory together with explicit
    /// per-tuple layer rows (episode kind, road class, landuse, record
    /// count) for the compressed semantic matrix.
    ///
    /// # Errors
    /// Fails when the trajectory is unknown, the layers are misaligned, a
    /// tuple span is reversed or NaN, or on log I/O errors.
    pub fn put_sst_with_layers(
        &self,
        sst: &StructuredSemanticTrajectory,
        layers: &[TupleLayers],
    ) -> Result<(), StoreError> {
        if layers.len() != sst.tuples.len() {
            return Err(StoreError::LayerMismatch {
                expected: sst.tuples.len(),
                got: layers.len(),
            });
        }
        check_sst_spans(sst)?;
        self.require_trajectory(sst.trajectory_id)?;
        self.append(
            sst_blob(sst)?,
            |enc, blob| {
                encode_sst(enc, blob)?;
                encode_layers(enc, sst.trajectory_id, layers)
            },
            |inner, blob| inner.matrix.insert(sst, layers, blob),
        )
    }

    /// Ingests one pipeline output end to end as one batch: metadata,
    /// compressed fixes, episodes with record ranges, and the SST with
    /// per-tuple layer rows derived from the pipeline's matched routes and
    /// region tuples (see [`derive_tuple_layers`]). The log gets exactly
    /// the records [`SemanticTrajectoryStore::put_trajectory`],
    /// [`SemanticTrajectoryStore::put_fixes`],
    /// [`SemanticTrajectoryStore::put_episodes`] and
    /// [`SemanticTrajectoryStore::put_sst_with_layers`] would write, at
    /// one write and one sync; readers see all of it or none of it.
    ///
    /// # Errors
    /// Fails when an episode or tuple span is reversed or NaN, or on log
    /// I/O errors.
    pub fn put_annotated(&self, out: &PipelineOutput, net: &RoadNetwork) -> Result<(), StoreError> {
        let id = out.cleaned.trajectory_id;
        let sst = &out.sst;
        check_spans(id, out.episodes.iter().map(|e| &e.span))?;
        check_sst_spans(sst)?;
        let records = out.cleaned.records();
        let meta = TrajectoryMeta {
            trajectory_id: id,
            object_id: out.cleaned.object_id,
            record_count: records.len() as u64,
        };
        let blocks: Vec<FixBlock> = records.chunks(BLOCK_LEN).map(FixBlock::encode).collect();
        let layers = derive_tuple_layers(out, net);
        self.append(
            (meta, blocks, sst_blob(sst)?),
            |enc, (meta, blocks, blob)| {
                encode_meta(enc, meta)?;
                for b in blocks {
                    encode_fix_block(enc, id, b)?;
                }
                encode_episodes(enc, id, episode_rows(&out.episodes))?;
                encode_sst(enc, blob)?;
                encode_layers(enc, sst.trajectory_id, &layers)
            },
            |inner, (meta, blocks, blob)| {
                inner.metas.insert(id, meta);
                for b in blocks {
                    inner.fixes.push_block(id, b);
                }
                for row in episode_rows(&out.episodes) {
                    inner.episodes.push(id, row);
                }
                inner.matrix.insert(sst, &layers, blob);
            },
        )
    }

    /// Fetches trajectory metadata.
    pub fn get_trajectory(&self, trajectory_id: u64) -> Option<TrajectoryMeta> {
        self.inner.lock().metas.get(&trajectory_id).cloned()
    }

    /// All trajectory metadata rows, sorted by trajectory id.
    pub fn trajectory_metas(&self) -> Vec<TrajectoryMeta> {
        let inner = self.inner.lock();
        let mut out: Vec<TrajectoryMeta> = inner.metas.values().cloned().collect();
        out.sort_by_key(|m| m.trajectory_id);
        out
    }

    /// Fetches a stored structured semantic trajectory, reconstructed
    /// from its codec blob.
    pub fn get_sst(&self, trajectory_id: u64) -> Option<StructuredSemanticTrajectory> {
        let inner = self.inner.lock();
        let blob = inner.matrix.blob_of(trajectory_id)?;
        let mut dec = Decoder::new(blob);
        decode_sst_body(&mut dec).ok()
    }

    /// All trajectory ids of one moving object, sorted.
    pub fn trajectories_of(&self, object_id: u64) -> Vec<u64> {
        let inner = self.inner.lock();
        let mut ids: Vec<u64> = inner
            .metas
            .values()
            .filter(|m| m.object_id == object_id)
            .map(|m| m.trajectory_id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Episodes overlapping a time window.
    pub fn episodes_in_time(&self, window: TimeSpan) -> Vec<StoredEpisode> {
        let mut out = Vec::new();
        self.episodes_in_time_with(window, &mut out);
        out
    }

    /// Like [`SemanticTrajectoryStore::episodes_in_time`], reusing a
    /// caller-owned buffer (cleared first) so repeated queries do not
    /// allocate.
    pub fn episodes_in_time_with(&self, window: TimeSpan, out: &mut Vec<StoredEpisode>) {
        out.clear();
        self.for_each_episode_in_time(window, |e| out.push(e.clone()));
    }

    /// Visits episodes overlapping a time window in storage order
    /// without materializing a result vector.
    pub fn for_each_episode_in_time(&self, window: TimeSpan, mut f: impl FnMut(&StoredEpisode)) {
        self.counters.time_queries.fetch_add(1, Ordering::Relaxed);
        if window.end.0 < window.start.0 {
            return; // degenerate (inverted) window matches nothing
        }
        let inner = self.inner.lock();
        let (checked, skipped) = inner.episodes.for_each_in_time(&window, |e| f(&e));
        drop(inner);
        let c = &self.counters;
        c.blocks_checked.fetch_add(checked, Ordering::Relaxed);
        c.blocks_skipped.fetch_add(skipped, Ordering::Relaxed);
    }

    /// Episodes whose bounding box intersects a spatial window (served
    /// by the lattice posting index over the episode rows), sorted by
    /// `(trajectory, index)`.
    pub fn episodes_in_rect(&self, window: &Rect) -> Vec<StoredEpisode> {
        let mut out = Vec::new();
        self.episodes_in_rect_with(window, &mut out);
        out
    }

    /// Like [`SemanticTrajectoryStore::episodes_in_rect`], reusing a
    /// caller-owned buffer (cleared first).
    pub fn episodes_in_rect_with(&self, window: &Rect, out: &mut Vec<StoredEpisode>) {
        out.clear();
        self.for_each_episode_in_rect(window, |e| out.push(e.clone()));
        out.sort_by_key(|e| (e.trajectory_id, e.index));
    }

    /// Visits episodes intersecting a spatial window in storage order
    /// without materializing a result vector.
    pub fn for_each_episode_in_rect(&self, window: &Rect, mut f: impl FnMut(&StoredEpisode)) {
        self.counters.rect_queries.fetch_add(1, Ordering::Relaxed);
        if window.is_empty() {
            return; // degenerate window matches nothing
        }
        let mut inner = self.inner.lock();
        let (candidates, hits) = inner.episodes.for_each_in_rect(window, |e| f(&e));
        drop(inner);
        let c = &self.counters;
        c.rect_candidates.fetch_add(candidates, Ordering::Relaxed);
        c.rect_hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Counts: `(trajectories, episodes, ssts)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let inner = self.inner.lock();
        (
            inner.metas.len(),
            inner.episodes.len(),
            inner.matrix.sst_count(),
        )
    }

    /// Trajectory ids whose semantic trajectory contains at least one
    /// tuple annotated with the given transport mode, sorted. Scans the
    /// bitpacked mode stream.
    pub fn ssts_with_mode(&self, mode: TransportMode) -> Vec<u64> {
        self.inner.lock().matrix.ssts_with_mode(mode)
    }

    /// Trajectory ids whose semantic trajectory contains at least one
    /// stop annotated with the given activity category, sorted.
    pub fn ssts_with_activity(&self, cat: PoiCategory) -> Vec<u64> {
        self.inner.lock().matrix.ssts_with_activity(cat)
    }

    /// Aggregate annotation statistics over all stored semantic
    /// trajectories: tuple counts per transport mode and per activity
    /// category — the "aggregative information" the paper's Analytics
    /// Layer persists in the store.
    pub fn annotation_statistics(&self) -> AnnotationStats {
        self.inner.lock().matrix.annotation_statistics()
    }

    /// OLAP: stop tuples per landuse category per hour of day, scanned
    /// from the compressed kind/landuse streams and the span column.
    pub fn stops_per_landuse_hour(&self) -> LanduseHourCounts {
        self.counters.olap_queries.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().matrix.stops_per_landuse_hour()
    }

    /// OLAP: record-weighted transport-mode share per road class.
    pub fn mode_share_by_road_class(&self) -> ModeShareByClass {
        self.counters.olap_queries.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().matrix.mode_share_by_road_class()
    }

    /// OLAP: top-`n` POIs ranked by stop-tuple visits.
    pub fn top_poi_visits(&self, n: usize) -> Vec<PoiVisit> {
        self.counters.olap_queries.fetch_add(1, Ordering::Relaxed);
        self.inner.lock().matrix.top_poi_visits(n)
    }

    /// Publishes the current counters into the `store.*` metric schema —
    /// called by the annotation server right before a `/metrics` scrape
    /// so the storage engine reports next to the pipeline stages.
    pub fn publish_metrics(&self, m: &semitri_obs::StoreMetrics) {
        let s = self.metrics();
        m.trajectories.set(s.trajectories as i64);
        m.episodes.set(s.episodes as i64);
        m.ssts.set(s.ssts as i64);
        m.fix_count.set(s.fix_count as i64);
        m.fix_blocks.set(s.fix_blocks as i64);
        m.fix_raw_bytes.set(s.fix_raw_bytes as i64);
        m.fix_compressed_bytes.set(s.fix_compressed_bytes as i64);
        m.live_tuples.set(s.live_tuples as i64);
        m.dead_tuples.set(s.dead_tuples as i64);
        m.label_bits.set(s.label_bits as i64);
        m.time_queries.raise_to(s.time_queries);
        m.rect_queries.raise_to(s.rect_queries);
        m.olap_queries.raise_to(s.olap_queries);
        m.ep_blocks_checked.set(s.ep_blocks_checked as i64);
        m.ep_blocks_skipped.set(s.ep_blocks_skipped as i64);
        m.rect_candidates.set(s.rect_candidates as i64);
        m.rect_hits.set(s.rect_hits as i64);
        m.log_bytes.set(s.log_bytes as i64);
        m.syncs.raise_to(s.syncs);
    }

    /// Current storage/query counters.
    pub fn metrics(&self) -> StoreMetricsSnapshot {
        let inner = self.inner.lock();
        StoreMetricsSnapshot {
            trajectories: inner.metas.len() as u64,
            episodes: inner.episodes.len() as u64,
            ssts: inner.matrix.sst_count() as u64,
            fix_count: inner.fixes.fix_count(),
            fix_blocks: inner.fixes.block_count() as u64,
            fix_raw_bytes: inner.fixes.raw_bytes(),
            fix_compressed_bytes: inner.fixes.compressed_bytes(),
            live_tuples: inner.matrix.live_tuples() as u64,
            dead_tuples: inner.matrix.dead_tuples() as u64,
            label_bits: inner.matrix.label_bits(),
            time_queries: self.counters.time_queries.load(Ordering::Relaxed),
            rect_queries: self.counters.rect_queries.load(Ordering::Relaxed),
            olap_queries: self.counters.olap_queries.load(Ordering::Relaxed),
            ep_blocks_checked: self.counters.blocks_checked.load(Ordering::Relaxed),
            ep_blocks_skipped: self.counters.blocks_skipped.load(Ordering::Relaxed),
            rect_candidates: self.counters.rect_candidates.load(Ordering::Relaxed),
            rect_hits: self.counters.rect_hits.load(Ordering::Relaxed),
            log_bytes: self.log_size().unwrap_or(0),
            syncs: self.counters.syncs.load(Ordering::Relaxed),
        }
    }
}

impl SemanticTrajectoryStore {
    /// Rewrites the durable log to contain exactly the current state
    /// (dropping superseded SST versions), atomically replacing the
    /// file. The rewrite streams through a buffered temp file that is
    /// synced before the rename, and the rename is made durable by syncing
    /// the parent directory. Writes wait for the whole rewrite, so none
    /// is lost at the rename. No-op for in-memory stores.
    ///
    /// # Errors
    /// Fails on I/O errors; the original log is left untouched on failure.
    pub fn compact(&self) -> Result<(), StoreError> {
        let (Some(path), Some(log)) = (&self.path, &self.log) else {
            return Ok(());
        };
        // held from the snapshot to the rename: an append either is in
        // the snapshot or waits to write to the new file
        let mut log = log.lock();
        let tmp = path.with_extension("stlog.tmp");
        let mut writer = BufWriter::new(File::create(&tmp)?);
        {
            let inner = self.inner.lock();
            let mut enc = Encoder::new(&mut writer);
            encode_header(&mut enc)?;
            for m in inner.metas.values() {
                encode_meta(&mut enc, m)?;
            }
            // episode batches: one record per contiguous trajectory run
            let eps = &inner.episodes;
            let mut i = 0usize;
            while i < eps.len() {
                let traj = eps.rows[i].traj;
                let mut j = i;
                while j < eps.len() && eps.rows[j].traj == traj {
                    j += 1;
                }
                encode_episodes(&mut enc, traj, (i..j).map(|k| eps.episode_row(k)))?;
                i = j;
            }
            for (traj, block) in inner.fixes.blocks() {
                encode_fix_block(&mut enc, *traj, block)?;
            }
            let mut ids: Vec<u64> = inner.matrix.trajectory_ids().collect();
            ids.sort_unstable();
            for id in ids {
                let Some(blob) = inner.matrix.blob_of(id) else {
                    continue;
                };
                encode_sst(&mut enc, blob)?;
                if let Some(layers) = inner.matrix.layers_of(id) {
                    encode_layers(&mut enc, id, &layers)?;
                }
            }
        }
        writer.flush()?;
        self.counters.sync(|| writer.get_ref().sync_data())?;
        drop(writer);
        // opened before the rename, so once the rename lands the handle
        // already is the new log's
        let file = OpenOptions::new().append(true).open(&tmp)?;
        std::fs::rename(&tmp, path)?;
        log.file = file;
        self.counters.sync(|| sync_parent_dir(path))?;
        Ok(())
    }

    /// Size of the durable log in bytes (`None` for in-memory stores).
    pub fn log_size(&self) -> Option<u64> {
        let path = self.path.as_ref()?;
        std::fs::metadata(path).ok().map(|m| m.len())
    }
}

/// [`check_spans`] over an SST's tuples.
fn check_sst_spans(sst: &StructuredSemanticTrajectory) -> Result<(), StoreError> {
    check_spans(sst.trajectory_id, sst.tuples.iter().map(|t| &t.span))
}

/// Default layer rows for an SST stored without pipeline context.
fn default_layer_rows(sst: &StructuredSemanticTrajectory) -> Vec<TupleLayers> {
    sst.tuples.iter().map(TupleLayers::derive_default).collect()
}

/// Derives per-tuple layer rows from a pipeline output: aligns each SST
/// tuple with its source episode (stop tuples map 1:1; move tuples map
/// one-per-mode-leg), takes the episode kind and the tuple's record
/// range, the road class of the leg's dominant matched segment, and the
/// dominant landuse category under the covered records.
pub fn derive_tuple_layers(out: &PipelineOutput, net: &RoadNetwork) -> Vec<TupleLayers> {
    const EPS: f64 = 1e-6;
    let mut layers = Vec::with_capacity(out.sst.tuples.len());
    let mut ep_idx = 0usize;
    for t in &out.sst.tuples {
        while ep_idx + 1 < out.episodes.len()
            && t.span.end.0 > out.episodes[ep_idx].span.end.0 + EPS
        {
            ep_idx += 1;
        }
        let Some(ep) = out.episodes.get(ep_idx) else {
            layers.push(TupleLayers::derive_default(t));
            continue;
        };
        let mut rec_lo = ep.start;
        let mut rec_hi = ep.end;
        let mut road_class = None;
        if ep.kind == EpisodeKind::Move {
            let entries = out
                .move_routes
                .iter()
                .find(|(i, _)| *i == ep_idx)
                .map(|(_, e)| e.as_slice())
                .unwrap_or(&[]);
            let leg: Vec<_> = entries
                .iter()
                .filter(|e| {
                    e.span.start.0 >= t.span.start.0 - EPS && e.span.end.0 <= t.span.end.0 + EPS
                })
                .collect();
            if let Some(longest) = leg.iter().max_by_key(|e| e.end - e.start) {
                road_class = Some(net.segment(longest.segment).class);
                let lo = leg.iter().map(|e| e.start).min().expect("leg nonempty");
                let hi = leg.iter().map(|e| e.end).max().expect("leg nonempty");
                rec_lo = ep.start + lo;
                rec_hi = (ep.start + hi).min(ep.end);
            }
        }
        // dominant landuse category by record overlap with the region
        // tuples (Algorithm 1 output)
        let mut best: Option<(usize, LanduseCategory)> = None;
        for rt in &out.region_tuples {
            let Some(cat) = rt.category else { continue };
            let lo = rt.start.max(rec_lo);
            let hi = rt.end.min(rec_hi);
            if hi > lo && best.is_none_or(|(b, _)| hi - lo > b) {
                best = Some((hi - lo, cat));
            }
        }
        layers.push(TupleLayers {
            kind: ep.kind,
            road_class,
            landuse: best.map(|(_, c)| c),
            records: rec_hi.saturating_sub(rec_lo).min(u32::MAX as usize) as u32,
        });
    }
    layers
}

/// Aggregate tuple counts per annotation value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnnotationStats {
    /// Tuple counts per transport mode, indexed like [`TransportMode::ALL`].
    pub mode_tuples: [usize; 5],
    /// Tuple counts per activity category, indexed like
    /// [`PoiCategory::ALL`].
    pub activity_tuples: [usize; 5],
}

impl AnnotationStats {
    /// Tuple count of a transport mode.
    pub fn mode(&self, m: TransportMode) -> usize {
        self.mode_tuples[mode_code(m) as usize]
    }

    /// Tuple count of an activity category.
    pub fn activity(&self, c: PoiCategory) -> usize {
        self.activity_tuples[c.ordinal()]
    }
}

// One encoder per log record type; every writer of a record uses it.

fn encode_header(enc: &mut Encoder<impl Write>) -> io::Result<()> {
    enc.u32(MAGIC)?;
    enc.u8(VERSION)
}

fn encode_meta(enc: &mut Encoder<impl Write>, m: &TrajectoryMeta) -> io::Result<()> {
    enc.u8(REC_META)?;
    enc.u64(m.trajectory_id)?;
    enc.u64(m.object_id)?;
    enc.u64(m.record_count)
}

fn encode_fix_block(
    enc: &mut Encoder<impl Write>,
    trajectory_id: u64,
    block: &FixBlock,
) -> io::Result<()> {
    enc.u8(REC_FIXBLOCK)?;
    enc.u64(trajectory_id)?;
    enc.bytes(&block.bytes)
}

fn encode_episodes(
    enc: &mut Encoder<impl Write>,
    trajectory_id: u64,
    rows: impl ExactSizeIterator<Item = EpisodeRow>,
) -> io::Result<()> {
    enc.u8(REC_EPISODES2)?;
    enc.u64(trajectory_id)?;
    enc.seq_len(rows.len())?;
    for r in rows {
        enc.u32(r.index)?;
        enc.u8(match r.kind {
            EpisodeKind::Stop => 0,
            EpisodeKind::Move => 1,
        })?;
        enc.f64(r.span.start.0)?;
        enc.f64(r.span.end.0)?;
        enc.f64(r.bbox.min_x)?;
        enc.f64(r.bbox.min_y)?;
        enc.f64(r.bbox.max_x)?;
        enc.f64(r.bbox.max_y)?;
        enc.u32(r.rec_start)?;
        enc.u32(r.rec_end)?;
    }
    Ok(())
}

/// An SST record: the tag, then the body [`sst_blob`] encoded.
fn encode_sst(enc: &mut Encoder<impl Write>, blob: &[u8]) -> io::Result<()> {
    enc.u8(REC_SST)?;
    enc.raw(blob)
}

fn encode_layers(
    enc: &mut Encoder<impl Write>,
    trajectory_id: u64,
    layers: &[TupleLayers],
) -> io::Result<()> {
    enc.u8(REC_LAYERS)?;
    enc.u64(trajectory_id)?;
    enc.seq_len(layers.len())?;
    for l in layers {
        encode_layer_row(enc, l)?;
    }
    Ok(())
}

/// The SST body bytes: the record payload and the matrix's
/// reconstruction blob at once.
fn sst_blob(sst: &StructuredSemanticTrajectory) -> io::Result<Vec<u8>> {
    let mut blob = Vec::new();
    encode_sst_body(&mut Encoder::new(&mut blob), sst)?;
    Ok(blob)
}

fn encode_layer_row(enc: &mut Encoder<impl Write>, l: &TupleLayers) -> io::Result<()> {
    enc.u8(match l.kind {
        EpisodeKind::Stop => 0,
        EpisodeKind::Move => 1,
    })?;
    enc.u8(l.road_class.map_or(0, |c| c.ordinal() as u8 + 1))?;
    enc.u8(l.landuse.map_or(0, |c| c.ordinal() as u8 + 1))?;
    enc.u32(l.records)
}

fn decode_layer_row(dec: &mut Decoder<impl io::Read>) -> Result<TupleLayers, StoreError> {
    let kind = match dec.u8()? {
        0 => EpisodeKind::Stop,
        1 => EpisodeKind::Move,
        k => return Err(StoreError::Corrupt(format!("bad layer kind {k}"))),
    };
    let road_class = match dec.u8()? {
        0 => None,
        c => Some(
            RoadClass::ALL
                .get(c as usize - 1)
                .copied()
                .ok_or_else(|| StoreError::Corrupt(format!("bad road class {c}")))?,
        ),
    };
    let landuse = match dec.u8()? {
        0 => None,
        c => Some(
            LanduseCategory::ALL
                .get(c as usize - 1)
                .copied()
                .ok_or_else(|| StoreError::Corrupt(format!("bad landuse {c}")))?,
        ),
    };
    let records = dec.u32()?;
    Ok(TupleLayers {
        kind,
        road_class,
        landuse,
        records,
    })
}

/// Encodes everything of an SST record after the `REC_SST` tag.
fn encode_sst_body(
    enc: &mut Encoder<impl Write>,
    sst: &StructuredSemanticTrajectory,
) -> io::Result<()> {
    enc.u64(sst.trajectory_id)?;
    enc.u64(sst.object_id)?;
    enc.seq_len(sst.tuples.len())?;
    for t in &sst.tuples {
        match &t.place {
            None => enc.u8(0)?,
            Some(p) => {
                enc.u8(1)?;
                enc.u8(match p.kind {
                    PlaceKind::Region => 0,
                    PlaceKind::Line => 1,
                    PlaceKind::Point => 2,
                })?;
                enc.u64(p.id)?;
                enc.string(&p.label)?;
            }
        }
        enc.f64(t.span.start.0)?;
        enc.f64(t.span.end.0)?;
        enc.seq_len(t.annotations.len())?;
        for a in &t.annotations {
            enc.string(&a.key)?;
            match &a.value {
                AnnotationValue::Mode(m) => {
                    enc.u8(0)?;
                    enc.u8(mode_code(*m))?;
                }
                AnnotationValue::Activity(c) => {
                    enc.u8(1)?;
                    enc.u8(c.ordinal() as u8)?;
                }
                AnnotationValue::Text(s) => {
                    enc.u8(2)?;
                    enc.string(s)?;
                }
                AnnotationValue::Number(n) => {
                    enc.u8(3)?;
                    enc.f64(*n)?;
                }
            }
        }
    }
    Ok(())
}

/// Decodes an SST record body (everything after the `REC_SST` tag).
fn decode_sst_body(
    dec: &mut Decoder<impl io::Read>,
) -> Result<StructuredSemanticTrajectory, StoreError> {
    let trajectory_id = dec.u64()?;
    let object_id = dec.u64()?;
    let n = dec.seq_len()?;
    let mut tuples = Vec::with_capacity(seq_capacity(n, std::mem::size_of::<SemanticTuple>()));
    for _ in 0..n {
        let place = match dec.u8()? {
            0 => None,
            1 => {
                let kind = match dec.u8()? {
                    0 => PlaceKind::Region,
                    1 => PlaceKind::Line,
                    2 => PlaceKind::Point,
                    k => return Err(StoreError::Corrupt(format!("bad place kind {k}"))),
                };
                let id = dec.u64()?;
                let label = dec.string()?;
                Some(PlaceRef::new(kind, id, label))
            }
            k => return Err(StoreError::Corrupt(format!("bad place tag {k}"))),
        };
        let start = dec.f64()?;
        let end = dec.f64()?;
        if !ordered(start, end) {
            return Err(StoreError::Corrupt(
                "tuple span reversed or NaN".to_string(),
            ));
        }
        let n_ann = dec.seq_len()?;
        let mut annotations =
            Vec::with_capacity(seq_capacity(n_ann, std::mem::size_of::<Annotation>()));
        for _ in 0..n_ann {
            let key = dec.string()?;
            let value = match dec.u8()? {
                0 => AnnotationValue::Mode(mode_from(dec.u8()?)?),
                1 => {
                    let ord = dec.u8()? as usize;
                    let cat = PoiCategory::ALL
                        .get(ord)
                        .copied()
                        .ok_or_else(|| StoreError::Corrupt(format!("bad category {ord}")))?;
                    AnnotationValue::Activity(cat)
                }
                2 => AnnotationValue::Text(dec.string()?),
                3 => AnnotationValue::Number(dec.f64()?),
                k => return Err(StoreError::Corrupt(format!("bad annotation tag {k}"))),
            };
            annotations.push(Annotation::new(key, value));
        }
        tuples.push(SemanticTuple {
            place,
            span: TimeSpan::new(Timestamp(start), Timestamp(end)),
            annotations,
        });
    }
    Ok(StructuredSemanticTrajectory {
        object_id,
        trajectory_id,
        tuples,
    })
}

fn mode_code(m: TransportMode) -> u8 {
    TransportMode::ALL
        .iter()
        .position(|&x| x == m)
        .expect("mode in ALL") as u8
}

fn mode_from(code: u8) -> Result<TransportMode, StoreError> {
    TransportMode::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| StoreError::Corrupt(format!("bad mode code {code}")))
}

/// Decodes one episode row; v1 rows (`ranges == false`) carry no record
/// range and read as `0..0`.
fn decode_episode_row(
    dec: &mut Decoder<impl io::Read>,
    ranges: bool,
) -> Result<EpisodeRow, StoreError> {
    let index = dec.u32()?;
    let kind = match dec.u8()? {
        0 => EpisodeKind::Stop,
        1 => EpisodeKind::Move,
        k => return Err(StoreError::Corrupt(format!("bad episode kind {k}"))),
    };
    let start = dec.f64()?;
    let end = dec.f64()?;
    if !ordered(start, end) {
        return Err(StoreError::Corrupt(
            "episode span reversed or NaN".to_string(),
        ));
    }
    let bbox = Rect {
        min_x: dec.f64()?,
        min_y: dec.f64()?,
        max_x: dec.f64()?,
        max_y: dec.f64()?,
    };
    let (rec_start, rec_end) = if ranges {
        (dec.u32()?, dec.u32()?)
    } else {
        (0, 0)
    };
    Ok(EpisodeRow {
        index,
        kind,
        span: TimeSpan::new(Timestamp(start), Timestamp(end)),
        bbox,
        rec_start,
        rec_end,
    })
}

fn replay(path: &Path, inner: &mut Inner) -> Result<(), StoreError> {
    let file = File::open(path)?;
    let mut dec = Decoder::new(BufReader::new(file));
    let magic = dec
        .u32()
        .map_err(|_| StoreError::Corrupt("missing header".to_string()))?;
    if magic != MAGIC {
        return Err(StoreError::Corrupt("bad magic".to_string()));
    }
    let version = dec.u8()?;
    if version == 0 || version > VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    loop {
        let tag = match dec.u8() {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        };
        match tag {
            REC_META => {
                let trajectory_id = dec.u64()?;
                let object_id = dec.u64()?;
                let record_count = dec.u64()?;
                inner.metas.insert(
                    trajectory_id,
                    TrajectoryMeta {
                        trajectory_id,
                        object_id,
                        record_count,
                    },
                );
            }
            REC_EPISODE => {
                // v1 single-episode record: no record range was stored
                let trajectory_id = dec.u64()?;
                let row = decode_episode_row(&mut dec, false)?;
                inner.episodes.push(trajectory_id, row);
            }
            REC_EPISODES2 => {
                let trajectory_id = dec.u64()?;
                let n = dec.seq_len()?;
                for _ in 0..n {
                    let row = decode_episode_row(&mut dec, true)?;
                    inner.episodes.push(trajectory_id, row);
                }
            }
            REC_SST => {
                let sst = decode_sst_body(&mut dec)?;
                // the kept blob is allocated before the dropped layer rows,
                // so the freed rows do not leave a hole below every blob
                // (replaying a 36 MB log ran ~10 % slower the other way round)
                let blob = sst_blob(&sst)?;
                let layers = default_layer_rows(&sst);
                inner.matrix.insert(&sst, &layers, blob);
            }
            REC_LAYERS => {
                let trajectory_id = dec.u64()?;
                let n = dec.seq_len()?;
                let mut layers = Vec::with_capacity(seq_capacity(n, 8));
                for _ in 0..n {
                    layers.push(decode_layer_row(&mut dec)?);
                }
                if !inner.matrix.patch_layers(trajectory_id, &layers) {
                    return Err(StoreError::Corrupt(format!(
                        "layer record for missing/mismatched sst {trajectory_id}"
                    )));
                }
            }
            REC_FIXBLOCK => {
                let trajectory_id = dec.u64()?;
                let bytes = dec.bytes()?;
                if bytes.len() > MAX_FIXBLOCK_BYTES {
                    return Err(StoreError::Corrupt("oversized fix block".to_string()));
                }
                let block = FixBlock::from_bytes(bytes)
                    .map_err(|e| StoreError::Corrupt(format!("bad fix block: {e}")))?;
                inner.fixes.push_block(trajectory_id, block);
            }
            t => return Err(StoreError::Corrupt(format!("unknown record tag {t}"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use semitri_geo::Point;

    fn episode(kind: EpisodeKind, t0: f64, t1: f64, x: f64) -> Episode {
        Episode {
            kind,
            start: 0,
            end: 1,
            span: TimeSpan::new(Timestamp(t0), Timestamp(t1)),
            bbox: Rect::new(x, 0.0, x + 10.0, 10.0),
            center: Point::new(x + 5.0, 5.0),
        }
    }

    fn sample_sst(id: u64) -> StructuredSemanticTrajectory {
        StructuredSemanticTrajectory {
            object_id: 9,
            trajectory_id: id,
            tuples: vec![
                SemanticTuple {
                    place: Some(PlaceRef::new(PlaceKind::Region, 4, "home")),
                    span: TimeSpan::new(Timestamp(0.0), Timestamp(100.0)),
                    annotations: vec![Annotation::activity(PoiCategory::PersonLife)],
                },
                SemanticTuple {
                    place: Some(PlaceRef::new(PlaceKind::Line, 11, "Rue R4")),
                    span: TimeSpan::new(Timestamp(100.0), Timestamp(200.0)),
                    annotations: vec![
                        Annotation::mode(TransportMode::Metro),
                        Annotation::new("avg_speed", AnnotationValue::Number(15.5)),
                        Annotation::new("note", AnnotationValue::Text("rush hour".to_string())),
                    ],
                },
                SemanticTuple {
                    place: None,
                    span: TimeSpan::new(Timestamp(200.0), Timestamp(300.0)),
                    annotations: vec![],
                },
            ],
        }
    }

    #[test]
    fn in_memory_crud() {
        let store = SemanticTrajectoryStore::in_memory();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 9,
                record_count: 500,
            })
            .unwrap();
        store
            .put_episodes(1, &[episode(EpisodeKind::Stop, 0.0, 100.0, 0.0)])
            .unwrap();
        store.put_sst(&sample_sst(1)).unwrap();

        assert_eq!(store.counts(), (1, 1, 1));
        assert_eq!(store.get_trajectory(1).unwrap().record_count, 500);
        assert_eq!(store.get_sst(1).unwrap(), sample_sst(1));
        assert_eq!(store.trajectories_of(9), vec![1]);
        assert!(store.trajectories_of(404).is_empty());
    }

    #[test]
    fn unknown_trajectory_rejected() {
        let store = SemanticTrajectoryStore::in_memory();
        let err = store
            .put_episodes(99, &[episode(EpisodeKind::Stop, 0.0, 1.0, 0.0)])
            .unwrap_err();
        assert!(matches!(err, StoreError::UnknownTrajectory(99)));
        assert!(store.put_sst(&sample_sst(99)).is_err());
        assert!(store
            .put_fixes(99, &[GpsRecord::new(Point::ORIGIN, Timestamp(0.0))])
            .is_err());
    }

    #[test]
    fn time_and_space_queries() {
        let store = SemanticTrajectoryStore::in_memory();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 1,
                record_count: 10,
            })
            .unwrap();
        store
            .put_episodes(
                1,
                &[
                    episode(EpisodeKind::Stop, 0.0, 100.0, 0.0),
                    episode(EpisodeKind::Move, 100.0, 200.0, 500.0),
                    episode(EpisodeKind::Stop, 200.0, 300.0, 1_000.0),
                ],
            )
            .unwrap();

        let in_time = store.episodes_in_time(TimeSpan::new(Timestamp(150.0), Timestamp(250.0)));
        assert_eq!(in_time.len(), 2);

        let in_space = store.episodes_in_rect(&Rect::new(400.0, 0.0, 600.0, 10.0));
        assert_eq!(in_space.len(), 1);
        assert_eq!(in_space[0].kind, EpisodeKind::Move);
    }

    #[test]
    fn degenerate_windows_return_empty_without_scanning() {
        let store = SemanticTrajectoryStore::in_memory();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 1,
                record_count: 10,
            })
            .unwrap();
        store
            .put_episodes(1, &[episode(EpisodeKind::Stop, 0.0, 100.0, 0.0)])
            .unwrap();
        let before = store.metrics().ep_blocks_checked;
        // inverted time window (constructed literally — TimeSpan::new
        // would reject it)
        let inverted = TimeSpan {
            start: Timestamp(50.0),
            end: Timestamp(10.0),
        };
        assert!(store.episodes_in_time(inverted).is_empty());
        assert!(store.episodes_in_rect(&Rect::EMPTY).is_empty());
        assert_eq!(
            store.metrics().ep_blocks_checked,
            before,
            "degenerate windows must not touch blocks"
        );
    }

    #[test]
    fn scratch_variants_reuse_buffer() {
        let store = SemanticTrajectoryStore::in_memory();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 1,
                record_count: 10,
            })
            .unwrap();
        store
            .put_episodes(
                1,
                &[
                    episode(EpisodeKind::Stop, 0.0, 100.0, 0.0),
                    episode(EpisodeKind::Move, 100.0, 200.0, 500.0),
                ],
            )
            .unwrap();
        let mut buf = Vec::new();
        store.episodes_in_time_with(TimeSpan::new(Timestamp(0.0), Timestamp(50.0)), &mut buf);
        assert_eq!(buf.len(), 1);
        store.episodes_in_time_with(TimeSpan::new(Timestamp(0.0), Timestamp(300.0)), &mut buf);
        assert_eq!(buf.len(), 2, "buffer cleared between queries");
        let mut n = 0usize;
        store.for_each_episode_in_rect(&Rect::new(-1.0, -1.0, 2_000.0, 20.0), |_| n += 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn durable_roundtrip() {
        let dir = std::env::temp_dir().join(format!("semitri-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t1.stlog");
        let _ = std::fs::remove_file(&path);

        {
            let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
            store
                .put_trajectory(TrajectoryMeta {
                    trajectory_id: 7,
                    object_id: 2,
                    record_count: 42,
                })
                .unwrap();
            store
                .put_episodes(
                    7,
                    &[
                        episode(EpisodeKind::Stop, 0.0, 60.0, 0.0),
                        episode(EpisodeKind::Move, 60.0, 120.0, 100.0),
                    ],
                )
                .unwrap();
            store.put_sst(&sample_sst(7)).unwrap();
        }

        // reopen and verify replay
        let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
        assert_eq!(store.counts(), (1, 2, 1));
        assert_eq!(store.get_sst(7).unwrap(), sample_sst(7));
        assert_eq!(store.get_trajectory(7).unwrap().record_count, 42);
        let eps = store.episodes_in_time(TimeSpan::new(Timestamp(0.0), Timestamp(30.0)));
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].kind, EpisodeKind::Stop);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_fixes_roundtrip() {
        let dir = std::env::temp_dir().join(format!("semitri-store-f-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fixes.stlog");
        let _ = std::fs::remove_file(&path);

        let fixes: Vec<GpsRecord> = (0..700)
            .map(|i| {
                GpsRecord::new(
                    Point::new(i as f64 * 2.5, 1_000.0 - i as f64),
                    Timestamp(i as f64),
                )
            })
            .collect();
        {
            let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
            store
                .put_trajectory(TrajectoryMeta {
                    trajectory_id: 3,
                    object_id: 1,
                    record_count: fixes.len() as u64,
                })
                .unwrap();
            store.put_fixes(3, &fixes).unwrap();
        }
        let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
        let back = store.get_fixes(3).unwrap();
        assert_eq!(back.len(), fixes.len());
        for (a, b) in fixes.iter().zip(&back) {
            assert_eq!(a.t.0.to_bits(), b.t.0.to_bits(), "timestamps exact");
            assert!((a.point.x - b.point.x).abs() <= 0.005 + 1e-9);
            assert!((a.point.y - b.point.y).abs() <= 0.005 + 1e-9);
        }
        let m = store.metrics();
        assert_eq!(m.fix_count, 700);
        assert!(m.fix_compressed_bytes < m.fix_raw_bytes / 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_log_detected() {
        let dir = std::env::temp_dir().join(format!("semitri-store-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.stlog");
        std::fs::write(&path, b"not a store log at all").unwrap();
        let err = SemanticTrajectoryStore::open_durable(&path)
            .err()
            .expect("corrupt");
        assert!(matches!(err, StoreError::Corrupt(_)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sst_overwrite_replaces() {
        let store = SemanticTrajectoryStore::in_memory();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 1,
                record_count: 1,
            })
            .unwrap();
        store.put_sst(&sample_sst(1)).unwrap();
        let mut v2 = sample_sst(1);
        v2.tuples.truncate(1);
        store.put_sst(&v2).unwrap();
        assert_eq!(store.get_sst(1).unwrap().len(), 1);
    }

    #[test]
    fn layer_mismatch_rejected() {
        let store = SemanticTrajectoryStore::in_memory();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 1,
                record_count: 1,
            })
            .unwrap();
        let err = store.put_sst_with_layers(&sample_sst(1), &[]).unwrap_err();
        assert!(matches!(
            err,
            StoreError::LayerMismatch {
                expected: 3,
                got: 0
            }
        ));
    }

    /// A fresh durable log at `name` holding trajectory 1.
    fn durable_with_trajectory(name: &str) -> (PathBuf, SemanticTrajectoryStore) {
        let dir = std::env::temp_dir().join(format!("semitri-store-s-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 1,
                record_count: 10,
            })
            .unwrap();
        (path, store)
    }

    /// Overwrites the one occurrence of `marker`'s bytes in the log with NaN.
    fn patch_to_nan(path: &Path, marker: f64) {
        let mut bytes = std::fs::read(path).unwrap();
        let needle = marker.to_le_bytes();
        let at: Vec<usize> = (0..=bytes.len() - 8)
            .filter(|&i| bytes[i..i + 8] == needle)
            .collect();
        assert_eq!(at.len(), 1, "marker {marker} must occur once");
        bytes[at[0]..at[0] + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn nan_spans_in_the_log_are_corrupt_not_a_panic() {
        // an episode record whose span start is NaN
        let (path, store) = durable_with_trajectory("nan-episode.stlog");
        store
            .put_episodes(1, &[episode(EpisodeKind::Stop, 1_234.5, 2_000.0, 0.0)])
            .unwrap();
        drop(store);
        patch_to_nan(&path, 1_234.5);
        let err = SemanticTrajectoryStore::open_durable(&path).err();
        assert!(matches!(err, Some(StoreError::Corrupt(_))), "{err:?}");
        std::fs::remove_file(&path).unwrap();

        // an SST record whose first tuple's span start is NaN
        let (path, store) = durable_with_trajectory("nan-tuple.stlog");
        let mut sst = sample_sst(1);
        sst.tuples[0].span = TimeSpan::new(Timestamp(6_789.25), Timestamp(7_000.0));
        store.put_sst(&sst).unwrap();
        drop(store);
        patch_to_nan(&path, 6_789.25);
        let err = SemanticTrajectoryStore::open_durable(&path).err();
        assert!(matches!(err, Some(StoreError::Corrupt(_))), "{err:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writes_reject_reversed_and_nan_spans() {
        let (path, store) = durable_with_trajectory("bad-spans.stlog");
        let size = store.log_size();
        let bad_spans = [
            TimeSpan {
                start: Timestamp(50.0),
                end: Timestamp(10.0),
            },
            TimeSpan {
                start: Timestamp(f64::NAN),
                end: Timestamp(10.0),
            },
            TimeSpan {
                start: Timestamp(0.0),
                end: Timestamp(f64::NAN),
            },
        ];
        for bad in bad_spans {
            let mut eps = vec![episode(EpisodeKind::Stop, 0.0, 100.0, 0.0); 2];
            eps[1].span = bad;
            let err = store.put_episodes(1, &eps).unwrap_err();
            assert!(matches!(err, StoreError::InvalidSpan { trajectory_id: 1 }));

            let mut sst = sample_sst(1);
            sst.tuples[2].span = bad;
            let err = store.put_sst(&sst).unwrap_err();
            assert!(matches!(err, StoreError::InvalidSpan { trajectory_id: 1 }));
            let layers = default_layer_rows(&sample_sst(1));
            let err = store.put_sst_with_layers(&sst, &layers).unwrap_err();
            assert!(matches!(err, StoreError::InvalidSpan { trajectory_id: 1 }));
            assert_eq!(store.log_size(), size, "nothing written");
        }
        assert_eq!(store.counts(), (1, 0, 0));
        drop(store);
        let reopened = SemanticTrajectoryStore::open_durable(&path).unwrap();
        assert_eq!(reopened.counts(), (1, 0, 0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rect_windows_count_candidates_and_hits() {
        let store = SemanticTrajectoryStore::in_memory();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 1,
                record_count: 10,
            })
            .unwrap();
        // 10 m boxes at x = 0, 20, …, 140: the first seven touch level-0
        // cell (0, 0), the box at 120–130 straddling into cell (1, 0)
        let eps: Vec<Episode> = (0..8)
            .map(|i| episode(EpisodeKind::Stop, 0.0, 1.0, i as f64 * 20.0))
            .collect();
        store.put_episodes(1, &eps).unwrap();
        let hits = store.episodes_in_rect(&Rect::new(0.0, 0.0, 15.0, 5.0));
        assert_eq!(hits.len(), 1);
        let m = store.metrics();
        assert_eq!((m.rect_candidates, m.rect_hits), (7, 1));
        assert_eq!(m.ep_blocks_checked, 0, "rect windows read no time block");
    }

    #[test]
    fn block_skipping_observed_on_disjoint_windows() {
        let store = SemanticTrajectoryStore::in_memory();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 1,
                record_count: 10,
            })
            .unwrap();
        // two full blocks: first covers t∈[0,512), second t∈[512,1024)
        let eps: Vec<Episode> = (0..512)
            .map(|i| {
                episode(
                    EpisodeKind::Stop,
                    i as f64 * 2.0,
                    i as f64 * 2.0 + 1.0,
                    i as f64,
                )
            })
            .collect();
        store.put_episodes(1, &eps).unwrap();
        let hits = store.episodes_in_time(TimeSpan::new(Timestamp(900.0), Timestamp(901.0)));
        assert!(!hits.is_empty());
        let m = store.metrics();
        assert_eq!(m.ep_blocks_checked, 2);
        assert_eq!(m.ep_blocks_skipped, 1, "first block skipped by summary");
    }
}

#[cfg(test)]
mod compaction_tests {
    use super::*;
    use semitri_geo::Point;

    fn sample_sst(id: u64, tuples: usize) -> StructuredSemanticTrajectory {
        StructuredSemanticTrajectory {
            object_id: 1,
            trajectory_id: id,
            tuples: (0..tuples)
                .map(|i| SemanticTuple {
                    place: Some(PlaceRef::new(PlaceKind::Region, i as u64, "cell")),
                    span: TimeSpan::new(Timestamp(i as f64), Timestamp(i as f64 + 1.0)),
                    annotations: vec![Annotation::mode(TransportMode::Walk)],
                })
                .collect(),
        }
    }

    #[test]
    fn compaction_shrinks_log_and_preserves_state() {
        let dir = std::env::temp_dir().join(format!("semitri-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.stlog");
        let _ = std::fs::remove_file(&path);

        let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 1,
                record_count: 100,
            })
            .unwrap();
        // overwrite the same SST many times: the log accumulates versions
        for k in 1..=20 {
            store.put_sst(&sample_sst(1, k)).unwrap();
        }
        let before = store.log_size().unwrap();
        store.compact().unwrap();
        let after = store.log_size().unwrap();
        assert!(after < before, "compaction {before} -> {after}");

        // state survives compaction and subsequent appends
        store.put_sst(&sample_sst(1, 3)).unwrap();
        drop(store);
        let reopened = SemanticTrajectoryStore::open_durable(&path).unwrap();
        assert_eq!(reopened.get_sst(1).unwrap().len(), 3);
        assert_eq!(reopened.counts().0, 1);

        let _ = Point::ORIGIN;
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_reclaims_tombstoned_tuples() {
        let dir = std::env::temp_dir().join(format!("semitri-compact-t-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.stlog");
        let _ = std::fs::remove_file(&path);

        let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: 1,
                object_id: 1,
                record_count: 100,
            })
            .unwrap();
        for k in 1..=5 {
            store.put_sst(&sample_sst(1, k)).unwrap();
        }
        assert!(store.metrics().dead_tuples > 0);
        store.compact().unwrap();
        drop(store);
        let reopened = SemanticTrajectoryStore::open_durable(&path).unwrap();
        assert_eq!(reopened.metrics().dead_tuples, 0);
        assert_eq!(reopened.get_sst(1).unwrap().len(), 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_in_memory_is_noop() {
        let store = SemanticTrajectoryStore::in_memory();
        store.compact().unwrap();
        assert_eq!(store.log_size(), None);
    }
}

#[cfg(test)]
mod annotation_query_tests {
    use super::*;
    use semitri_geo::Point;

    fn sst(id: u64, mode: TransportMode, act: PoiCategory) -> StructuredSemanticTrajectory {
        StructuredSemanticTrajectory {
            object_id: 1,
            trajectory_id: id,
            tuples: vec![
                SemanticTuple {
                    place: None,
                    span: TimeSpan::new(Timestamp(0.0), Timestamp(10.0)),
                    annotations: vec![Annotation::mode(mode)],
                },
                SemanticTuple {
                    place: Some(PlaceRef::new(PlaceKind::Point, 3, "poi")),
                    span: TimeSpan::new(Timestamp(10.0), Timestamp(20.0)),
                    annotations: vec![Annotation::activity(act)],
                },
            ],
        }
    }

    fn store_with(ssts: &[StructuredSemanticTrajectory]) -> SemanticTrajectoryStore {
        let store = SemanticTrajectoryStore::in_memory();
        for s in ssts {
            store
                .put_trajectory(TrajectoryMeta {
                    trajectory_id: s.trajectory_id,
                    object_id: s.object_id,
                    record_count: 10,
                })
                .unwrap();
            store.put_sst(s).unwrap();
        }
        let _ = Point::ORIGIN;
        store
    }

    #[test]
    fn query_by_mode_and_activity() {
        let store = store_with(&[
            sst(1, TransportMode::Metro, PoiCategory::Feedings),
            sst(2, TransportMode::Walk, PoiCategory::ItemSale),
            sst(3, TransportMode::Metro, PoiCategory::ItemSale),
        ]);
        assert_eq!(store.ssts_with_mode(TransportMode::Metro), vec![1, 3]);
        assert_eq!(store.ssts_with_mode(TransportMode::Bus), Vec::<u64>::new());
        assert_eq!(store.ssts_with_activity(PoiCategory::ItemSale), vec![2, 3]);
    }

    #[test]
    fn aggregate_statistics() {
        let store = store_with(&[
            sst(1, TransportMode::Metro, PoiCategory::Feedings),
            sst(2, TransportMode::Metro, PoiCategory::ItemSale),
        ]);
        let stats = store.annotation_statistics();
        assert_eq!(stats.mode(TransportMode::Metro), 2);
        assert_eq!(stats.mode(TransportMode::Walk), 0);
        assert_eq!(stats.activity(PoiCategory::Feedings), 1);
        assert_eq!(stats.activity(PoiCategory::ItemSale), 1);
    }

    #[test]
    fn statistics_empty_store() {
        let store = SemanticTrajectoryStore::in_memory();
        let stats = store.annotation_statistics();
        assert_eq!(stats, AnnotationStats::default());
    }

    #[test]
    fn olap_poi_ranks_and_default_layers() {
        let store = store_with(&[
            sst(1, TransportMode::Metro, PoiCategory::Feedings),
            sst(2, TransportMode::Walk, PoiCategory::ItemSale),
        ]);
        // both SSTs stop at POI id=3 labeled "poi"
        let ranks = store.top_poi_visits(5);
        assert_eq!(ranks.len(), 1);
        assert_eq!(ranks[0].place_id, 3);
        assert_eq!(ranks[0].visits, 2);
        assert_eq!(ranks[0].label, "poi");
    }
}
