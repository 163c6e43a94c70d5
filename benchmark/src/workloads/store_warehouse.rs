//! `store_warehouse`: writes beside reads on one layer. Every repetition
//! takes a fresh durable log through three phases — ingest day-shifted
//! replicas of a pre-annotated corpus, serve dashboard rounds, compact and
//! reopen; an operation is one dashboard round.

use super::*;
use crate::corpus::{Movement, World};
use crate::report::out_dir;
use crate::rng::Rng;
use crate::trace::time_if;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Windows and lookups per dashboard round, beside the three aggregates.
const WINDOWS: usize = 16;
/// Seconds a replica is shifted against the previous one: a whole day, so
/// hours of day repeat and every aggregate scales linearly.
const REPLICA_SHIFT_S: f64 = 86_400.0;
/// Seconds one repetition (ingest, dashboard rounds, compact and reopen)
/// took on the 2-core sandbox.
const REP_S: f64 = 7.0;

/// A copy of an annotated trajectory `dt` seconds later under a new id,
/// field by field: what annotating the shifted trajectory would have given.
fn shifted(base: &PipelineOutput, dt: f64, trajectory_id: u64) -> PipelineOutput {
    let later = |s: TimeSpan| TimeSpan::new(s.start.plus(dt), s.end.plus(dt));
    let records = base
        .cleaned
        .records()
        .iter()
        .map(|r| GpsRecord::new(r.point, r.t.plus(dt)))
        .collect();
    let mut out = PipelineOutput {
        cleaned: RawTrajectory::new(base.cleaned.object_id, trajectory_id, records),
        episodes: base.episodes.clone(),
        region_tuples: base.region_tuples.clone(),
        move_routes: base.move_routes.clone(),
        stop_annotations: base.stop_annotations.clone(),
        sst: base.sst.clone(),
        latency: base.latency,
        cleaning: base.cleaning,
    };
    out.episodes.iter_mut().for_each(|e| e.span = later(e.span));
    out.region_tuples
        .iter_mut()
        .for_each(|t| t.span = later(t.span));
    for entry in out.move_routes.iter_mut().flat_map(|(_, route)| route) {
        entry.span = later(entry.span);
    }
    out.sst.trajectory_id = trajectory_id;
    out.sst
        .tuples
        .iter_mut()
        .for_each(|t| t.span = later(t.span));
    out
}

/// Digest of a stored trajectory: ids, places, times and annotations.
fn sst_digest(sst: &StructuredSemanticTrajectory) -> u64 {
    let mut h = Fnv::default();
    h.word(sst.object_id);
    h.word(sst.trajectory_id);
    for t in &sst.tuples {
        h.word(t.span.start.0.to_bits());
        h.word(t.span.end.0.to_bits());
        h.word(t.place.as_ref().map_or(u64::MAX, |p| p.id));
        h.bytes(format!("{:?}", t.annotations).as_bytes());
    }
    h.0
}

/// What the aggregates must total for one copy of the corpus, counted from
/// the pipeline outputs alone.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Totals {
    /// Stop tuples over a landuse cell (`stops_per_landuse_hour`).
    landuse_stops: u64,
    /// Records under move tuples with a mode and a road class
    /// (`mode_share_by_road_class`).
    mode_records: u64,
    /// Stop tuples at a POI (`top_poi_visits`).
    poi_visits: u64,
}

impl Totals {
    fn of(out: &PipelineOutput) -> Totals {
        const EPS: f64 = 1e-6;
        let mut t = Totals::default();
        let mut ep_idx = 0usize;
        for tuple in &out.sst.tuples {
            while ep_idx + 1 < out.episodes.len()
                && tuple.span.end.0 > out.episodes[ep_idx].span.end.0 + EPS
            {
                ep_idx += 1;
            }
            let ep = &out.episodes[ep_idx];
            match ep.kind {
                EpisodeKind::Stop => {
                    let over_landuse = out
                        .region_tuples
                        .iter()
                        .any(|r| r.category.is_some() && r.start.max(ep.start) < r.end.min(ep.end));
                    t.landuse_stops += u64::from(over_landuse);
                    let at_poi = tuple
                        .place
                        .as_ref()
                        .is_some_and(|p| p.kind == PlaceKind::Point);
                    t.poi_visits += u64::from(at_poi);
                }
                EpisodeKind::Move => {
                    let has_mode = tuple
                        .annotations
                        .iter()
                        .any(|a| matches!(a.value, AnnotationValue::Mode(_)));
                    let leg = out
                        .move_routes
                        .iter()
                        .find(|(i, _)| *i == ep_idx)
                        .map_or(&[][..], |(_, e)| e.as_slice())
                        .iter()
                        .filter(|e| {
                            e.span.start.0 >= tuple.span.start.0 - EPS
                                && e.span.end.0 <= tuple.span.end.0 + EPS
                        });
                    let lo = leg.clone().map(|e| e.start).min();
                    let hi = leg.map(|e| e.end).max();
                    if let (true, Some(lo), Some(hi)) = (has_mode, lo, hi) {
                        let records = (ep.start + hi).min(ep.end).saturating_sub(ep.start + lo);
                        t.mode_records += (records as u64).max(1);
                    }
                }
            }
        }
        t
    }

    fn plus(self, other: Totals) -> Totals {
        Totals {
            landuse_stops: self.landuse_stops + other.landuse_stops,
            mode_records: self.mode_records + other.mode_records,
            poi_visits: self.poi_visits + other.poi_visits,
        }
    }

    fn times(self, n: u64) -> Totals {
        Totals {
            landuse_stops: self.landuse_stops * n,
            mode_records: self.mode_records * n,
            poi_visits: self.poi_visits * n,
        }
    }

    fn read(store: &SemanticTrajectoryStore) -> Totals {
        Totals {
            landuse_stops: store.stops_per_landuse_hour().total(),
            mode_records: store.mode_share_by_road_class().total(),
            poi_visits: store
                .top_poi_visits(usize::MAX)
                .iter()
                .map(|v| v.visits)
                .sum(),
        }
    }
}

/// A log file that is removed when the repetition ends, however it ends.
struct TempLog(PathBuf);

impl TempLog {
    fn new(dir: &Path, tag: &str) -> TempLog {
        let path = dir.join(format!("store-{}-{tag}.stlog", std::process::id()));
        let _ = std::fs::remove_file(&path);
        TempLog(path)
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(self.0.with_extension("stlog.tmp"));
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let scale = &ctx.scale;
    let corpus = Corpus::generate(
        World::Mixed,
        Movement::Alternating,
        scale,
        ctx.seed,
        scale.mixed_trajectories,
    );
    let mut out = Outcome::default();
    out.describe(&corpus, 1, 0, 0);
    let dir = out_dir();
    let roads = &corpus.city.roads;

    // the pre-annotated corpus (annotation is not what this workload times)
    let semitri = SeMiTri::new(&corpus.city, corpus.config());
    let outputs: Vec<PipelineOutput> = corpus
        .trajectories
        .iter()
        .map(|t| semitri.annotate(t))
        .collect();
    drop(semitri);
    let per_copy = outputs
        .iter()
        .map(Totals::of)
        .fold(Totals::default(), Totals::plus);
    let base = outputs.len() as u64;
    let replica_fixes: usize = corpus.fixes;
    let first_day = outputs
        .iter()
        .filter_map(|o| o.cleaned.time_span())
        .map(|s| s.start.0)
        .fold(f64::INFINITY, f64::min);

    // ingests `replicas` copies, each a day after the one before; returns
    // the put latencies and the digest every stored SST must read back as
    let ingest = |store: &SemanticTrajectoryStore,
                  replicas: usize,
                  checks: &mut Checks,
                  mut tracer: Option<&mut Tracer>|
     -> (Vec<f64>, Vec<u64>) {
        let mut secs = Vec::with_capacity(replicas * outputs.len());
        let mut digests = Vec::with_capacity(replicas * outputs.len());
        for k in 0..replicas as u64 {
            for (j, o) in outputs.iter().enumerate() {
                let id = k * base + j as u64;
                let o = shifted(o, k as f64 * REPLICA_SHIFT_S, id);
                let t0 = Instant::now();
                let put = time_if(tracer.as_deref_mut(), "store.put_annotated", id, || {
                    store.put_annotated(&o, roads)
                });
                secs.push(t0.elapsed().as_secs_f64());
                checks.op(put.is_ok(), || {
                    format!("put_annotated of trajectory {id} failed: {put:?}")
                });
                digests.push(sst_digest(&o.sst));
            }
        }
        (secs, digests)
    };

    // one dashboard round: the three aggregates, then time windows, rect
    // windows and SST lookups at seeded places. Returns what it read.
    let bounds = corpus.city.bounds();
    let round = |store: &SemanticTrajectoryStore,
                 rng: &mut Rng,
                 replicas: usize,
                 digests: &[u64],
                 tracer: &mut Option<&mut Tracer>,
                 op_id: u64|
     -> bool {
        macro_rules! timed {
            ($name:expr, $call:expr) => {
                time_if(tracer.as_deref_mut(), $name, op_id, || $call)
            };
        }
        let landuse = timed!("store.olap_landuse_hour", store.stops_per_landuse_hour());
        let modes = timed!("store.olap_mode_share", store.mode_share_by_road_class());
        let ranks = timed!("store.olap_poi_ranks", store.top_poi_visits(10));
        let want = per_copy.times(replicas as u64);
        let mut ok = landuse.total() == want.landuse_stops
            && modes.total() == want.mode_records
            && ranks.len() <= 10;
        for _ in 0..WINDOWS {
            let start = first_day + rng.range(0.0, replicas as f64 * REPLICA_SHIFT_S);
            let window = TimeSpan::new(Timestamp(start), Timestamp(start + 6.0 * 3_600.0));
            let hits = timed!("store.time_window", store.episodes_in_time(window));
            ok &= hits.iter().all(|e| e.span.overlaps(&window));
            let corner = Point::new(
                bounds.min_x + bounds.width() * rng.range(0.0, 0.9),
                bounds.min_y + bounds.height() * rng.range(0.0, 0.9),
            );
            let rect = Rect::new(corner.x, corner.y, corner.x + 1_000.0, corner.y + 1_000.0);
            let hits = timed!("store.rect_window", store.episodes_in_rect(&rect));
            ok &= hits.iter().all(|e| e.bbox.intersects(&rect));
            let id = rng.below(digests.len());
            let sst = timed!("store.get_sst", store.get_sst(id as u64));
            ok &= sst.is_some_and(|s| sst_digest(&s) == digests[id]);
        }
        ok
    };

    // set-up: open a fresh durable store, ingest one copy, read one round
    let mut checks = Checks::default();
    let (setup, warm) = time_setups(scale.setups, || {
        let log = TempLog::new(&dir, "setup");
        let store =
            SemanticTrajectoryStore::open_durable(&log.0).expect("the out directory is writable");
        let (_, digests) = ingest(&store, 1, &mut checks, None);
        let mut rng = Rng::stream(ctx.seed, 0x7761_726d);
        if !round(&store, &mut rng, 1, &digests, &mut None, 0) {
            checks.fail(|| "the warm-up dashboard round read unexpected results".to_string());
        }
        (store, log)
    });
    drop(warm);

    let replicas = scale.store_replicas;
    let ingested_fixes = (replica_fixes * replicas) as f64;
    let epoch = Instant::now();
    let mut samples = Samples::default();
    let mut rep_ns = Vec::new();
    let mut lats = Vec::new();
    let mut plain_secs = Vec::new();
    // a traced run alternates plain and traced repetitions
    let reps = if ctx.traced {
        2 * ctx.repetitions(2.0 * REP_S)
    } else {
        ctx.repetitions(REP_S)
    };
    for rep in 0..reps {
        let mut tracer = (ctx.traced && rep % 2 == 1).then(|| Tracer::new(epoch));
        let rep_t0 = Instant::now();
        let log = TempLog::new(&dir, "rep");
        let store =
            SemanticTrajectoryStore::open_durable(&log.0).expect("the out directory is writable");

        // phase A: ingest
        let (put_secs, digests) = ingest(&store, replicas, &mut checks, tracer.as_mut());
        let put_ns_per_fix = put_secs.iter().sum::<f64>() * 1e9 / ingested_fixes;
        let after_ingest = store.metrics();
        checks.op(
            Totals::read(&store) == per_copy.times(replicas as u64),
            || "the aggregates do not total what the ingested outputs hold".to_string(),
        );

        // phase B: dashboard rounds
        let mut rng = Rng::stream(ctx.seed, 0x6461_7368);
        let mut round_secs = Vec::with_capacity(scale.dashboard_rounds);
        for r in 0..scale.dashboard_rounds {
            let mut tr = tracer.as_mut();
            let t0 = Instant::now();
            let ok = round(&store, &mut rng, replicas, &digests, &mut tr, r as u64);
            round_secs.push(t0.elapsed().as_secs_f64());
            checks.op(ok, || {
                format!("dashboard round {r} read unexpected results")
            });
        }
        let after_rounds = store.metrics();

        // phase C: compact, then replay the finished log
        let log_before = store.log_size().unwrap_or(0);
        let t0 = Instant::now();
        let compacted = time_if(tracer.as_mut(), "store.compact", 0, || store.compact());
        let compact_ms = t0.elapsed().as_secs_f64() * 1e3;
        checks.op(compacted.is_ok(), || {
            format!("compact failed: {compacted:?}")
        });
        drop(store);
        let t0 = Instant::now();
        let reopened = time_if(tracer.as_mut(), "store.reopen", 0, || {
            SemanticTrajectoryStore::open_durable(&log.0)
        });
        let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
        let intact = reopened.as_ref().is_ok_and(|s| {
            s.metrics().trajectories == digests.len() as u64
                && digests.iter().enumerate().step_by(7).all(|(id, want)| {
                    s.get_sst(id as u64)
                        .is_some_and(|sst| sst_digest(&sst) == *want)
                })
                && Totals::read(s) == per_copy.times(replicas as u64)
        });
        checks.op(intact, || {
            "the reopened store does not hold what was ingested".to_string()
        });
        black_box(reopened.ok());

        if !ctx.traced {
            // one sample per replica: the same puts a day later each time
            rep_ns.extend(
                put_secs
                    .chunks(outputs.len())
                    .map(|replica| replica.iter().sum::<f64>() * 1e9 / replica_fixes as f64),
            );
            lats.push(round_secs);
            continue;
        }
        match tracer {
            None => {
                plain_secs.push(rep_t0.elapsed().as_secs_f64());
                lats.push(round_secs);
            }
            Some(tracer) => {
                let plain = plain_secs.last().copied().unwrap_or(f64::NAN);
                samples.push(
                    "bench.trace_overhead_share",
                    rep_t0.elapsed().as_secs_f64() / plain - 1.0,
                );
                let totals = tracer.totals();
                for (metric, span) in [
                    ("store.olap_landuse_hour.us", "store.olap_landuse_hour"),
                    ("store.olap_mode_share.us", "store.olap_mode_share"),
                    ("store.olap_poi_ranks.us", "store.olap_poi_ranks"),
                    ("store.time_window.us", "store.time_window"),
                    ("store.rect_window.us", "store.rect_window"),
                    ("store.get_sst.us", "store.get_sst"),
                ] {
                    let t = totals[span];
                    samples.push(metric, t.secs * 1e6 / t.calls as f64);
                }
                samples.push("store.put_annotated.ns_per_fix", put_ns_per_fix);
                samples.push("store.compact_ms", compact_ms);
                samples.push("reopen_ms", reopen_ms);
                samples.push("bytes_per_fix", after_ingest.bytes_per_fix());
                samples.push("log_bytes_per_fix", log_before as f64 / ingested_fixes);
                samples.push(
                    "store.label_bytes_per_tuple",
                    after_ingest.label_bytes_per_tuple(),
                );
                let checked = after_rounds.ep_blocks_checked - after_ingest.ep_blocks_checked;
                let skipped = after_rounds.ep_blocks_skipped - after_ingest.ep_blocks_skipped;
                samples.push(
                    "store.block_skip_rate",
                    skipped as f64 / checked.max(1) as f64,
                );
                if out.spans.is_none() {
                    out.spans = Some(tracer);
                }
            }
        }
    }
    if ctx.traced {
        samples.report(&mut out);
        out.tail(&lats);
    } else {
        out.end_to_end(setup, &rep_ns, &lats);
    }
    out.facts.push(("replicas", replicas.to_string()));
    out.checks.absorb(checks);
    out
}
