//! Integration: pipeline output persisted through the durable store and
//! replayed.

use semitri::prelude::*;
use semitri::store::export::{kml_document, raw_trajectory_kml, sst_kml};
use semitri::store::StoreError;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("semitri-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn pipeline_to_durable_store_and_back() {
    let dataset = lausanne_taxis(1, 7);
    let semitri = SeMiTri::new(&dataset.city, PipelineConfig::default());
    let path = temp_path("pipeline.stlog");
    let _ = std::fs::remove_file(&path);

    let mut expected = Vec::new();
    {
        let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
        for track in &dataset.tracks {
            let out = semitri.annotate(&track.to_raw());
            store
                .put_trajectory(TrajectoryMeta {
                    trajectory_id: track.trajectory_id,
                    object_id: track.object_id,
                    record_count: out.cleaned.len() as u64,
                })
                .unwrap();
            store
                .put_episodes(track.trajectory_id, &out.episodes)
                .unwrap();
            store.put_sst(&out.sst).unwrap();
            expected.push((track.trajectory_id, out.sst.clone(), out.episodes.len()));
        }
    }

    // reopen: everything replays identically
    let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
    let (n_traj, n_eps, n_sst) = store.counts();
    assert_eq!(n_traj, dataset.tracks.len());
    assert_eq!(n_sst, dataset.tracks.len());
    assert_eq!(n_eps, expected.iter().map(|(_, _, n)| n).sum::<usize>());
    for (id, sst, _) in &expected {
        assert_eq!(&store.get_sst(*id).unwrap(), sst);
    }

    // spatial query returns episodes within the city bounds
    let hits = store.episodes_in_rect(&dataset.city.bounds());
    assert_eq!(hits.len(), n_eps);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn store_queries_by_object_and_time() {
    let dataset = milan_cars(2, 1, 3);
    let semitri = SeMiTri::new(&dataset.city, PipelineConfig::default());
    let store = SemanticTrajectoryStore::in_memory();

    for track in &dataset.tracks {
        let out = semitri.annotate(&track.to_raw());
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: track.trajectory_id,
                object_id: track.object_id,
                record_count: out.cleaned.len() as u64,
            })
            .unwrap();
        store
            .put_episodes(track.trajectory_id, &out.episodes)
            .unwrap();
    }

    // per-object lookup
    for track in &dataset.tracks {
        let ids = store.trajectories_of(track.object_id);
        assert!(ids.contains(&track.trajectory_id));
    }

    // time-range query: a window covering everything returns all episodes
    let all = store.episodes_in_time(TimeSpan::new(Timestamp(0.0), Timestamp(10.0 * 86_400.0)));
    let (_, n_eps, _) = store.counts();
    assert_eq!(all.len(), n_eps);

    // an empty window before the data returns nothing
    let none = store.episodes_in_time(TimeSpan::new(Timestamp(-100.0), Timestamp(-1.0)));
    assert!(none.is_empty());
}

#[test]
fn kml_export_of_annotated_day() {
    let dataset = smartphone_users(1, 1, 9);
    let semitri = SeMiTri::new(&dataset.city, PipelineConfig::default());
    let track = &dataset.tracks[0];
    let out = semitri.annotate(&track.to_raw());

    let projection = LocalProjection::new(GeoPoint::new(6.6323, 46.5197));
    let doc = kml_document(
        "semitri export",
        &[
            raw_trajectory_kml(&out.cleaned, &projection),
            sst_kml(&out.sst),
        ],
    );
    assert!(doc.starts_with("<?xml"));
    assert!(doc.contains("<LineString>"));
    assert!(doc.contains("semantic trajectory"));
    // modes from the line layer appear in descriptions
    assert!(doc.contains("mode="), "no mode annotations in:\n{doc}");
}

#[test]
fn hostile_length_prefixes_fail_without_overallocating() {
    use semitri::store::codec::Decoder;

    // a 4-byte prefix promising ~200 MB over a 3-byte payload: the
    // decoder must fail with UnexpectedEof after reading the 3 real
    // bytes, not pre-allocate the promised 200 MB
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&200_000_000u32.to_le_bytes());
    hostile.extend_from_slice(b"abc");
    let mut dec = Decoder::new(hostile.as_slice());
    let err = dec.string().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

    // prefixes past the hard cap are rejected before any read at all
    let mut absurd = Vec::new();
    absurd.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut dec = Decoder::new(absurd.as_slice());
    let err = dec.string().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn corrupt_durable_log_is_rejected_on_replay() {
    let dataset = lausanne_taxis(1, 11);
    let semitri = SeMiTri::new(&dataset.city, PipelineConfig::default());
    let path = temp_path("corrupt.stlog");
    let _ = std::fs::remove_file(&path);
    {
        let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
        let track = &dataset.tracks[0];
        let out = semitri.annotate(&track.to_raw());
        store
            .put_trajectory(TrajectoryMeta {
                trajectory_id: track.trajectory_id,
                object_id: track.object_id,
                record_count: out.cleaned.len() as u64,
            })
            .unwrap();
        store.put_sst(&out.sst).unwrap();
    }

    let pristine = std::fs::read(&path).unwrap();
    assert!(pristine.len() > 64, "log unexpectedly small");

    // truncation mid-record: replay must error, not panic or hang
    std::fs::write(&path, &pristine[..pristine.len() - 7]).unwrap();
    assert!(SemanticTrajectoryStore::open_durable(&path).is_err());

    // hostile appended record: an SST record whose tuple-count prefix
    // claims 200 million entries backed by zero bytes. Replay must fail
    // cleanly (an error, quickly) instead of pre-allocating what the
    // prefix claims — this is the regression for the untrusted-length
    // `Vec::with_capacity` in the SST replay path
    let mut corrupt = pristine.clone();
    corrupt.push(3); // REC_SST
    corrupt.extend_from_slice(&77u64.to_le_bytes()); // trajectory id
    corrupt.extend_from_slice(&77u64.to_le_bytes()); // object id
    corrupt.extend_from_slice(&200_000_000u32.to_le_bytes()); // tuple count
    std::fs::write(&path, &corrupt).unwrap();
    assert!(SemanticTrajectoryStore::open_durable(&path).is_err());

    // an unknown record tag is rejected as corruption
    let mut unknown = pristine.clone();
    unknown.push(0xfe);
    std::fs::write(&path, &unknown).unwrap();
    assert!(SemanticTrajectoryStore::open_durable(&path).is_err());

    // the pristine bytes still replay
    std::fs::write(&path, &pristine).unwrap();
    let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
    let (n_traj, _, n_sst) = store.counts();
    assert_eq!((n_traj, n_sst), (1, 1));
    std::fs::remove_file(&path).unwrap();
}

/// A few annotated phone days — stops at POIs, landuse dwells, mode legs —
/// and the dataset whose road network they were matched on.
fn annotated_days() -> (Dataset, Vec<PipelineOutput>) {
    let dataset = smartphone_users(3, 1, 9);
    let semitri = SeMiTri::new(&dataset.city, PipelineConfig::default());
    let outputs = dataset
        .tracks
        .iter()
        .map(|t| semitri.annotate(&t.to_raw()))
        .collect();
    (dataset, outputs)
}

/// `out` under another trajectory id, with `records` as its fixes.
fn renumbered(out: &PipelineOutput, trajectory_id: u64, records: Vec<GpsRecord>) -> PipelineOutput {
    let mut sst = out.sst.clone();
    sst.trajectory_id = trajectory_id;
    PipelineOutput {
        cleaned: RawTrajectory::new(out.cleaned.object_id, trajectory_id, records),
        episodes: out.episodes.clone(),
        region_tuples: out.region_tuples.clone(),
        move_routes: out.move_routes.clone(),
        stop_annotations: out.stop_annotations.clone(),
        sst,
        latency: out.latency,
        cleaning: out.cleaning,
    }
}

/// `count` outputs with ids `0..count`, cycling over `outputs`.
fn fleet(outputs: &[PipelineOutput], count: u64) -> Vec<PipelineOutput> {
    (0..count)
        .map(|id| {
            let out = &outputs[id as usize % outputs.len()];
            renumbered(out, id, out.cleaned.records().to_vec())
        })
        .collect()
}

/// The three OLAP totals the warehouse dashboards read.
fn olap_totals(store: &SemanticTrajectoryStore) -> (u64, u64, u64) {
    (
        store.stops_per_landuse_hour().total(),
        store.mode_share_by_road_class().total(),
        store
            .top_poi_visits(usize::MAX)
            .iter()
            .map(|v| v.visits)
            .sum(),
    )
}

#[test]
fn put_annotated_logs_the_bytes_of_the_four_single_record_calls() {
    use semitri::store::derive_tuple_layers;

    let (dataset, outputs) = annotated_days();
    let roads = &dataset.city.roads;
    let mut batch = fleet(&outputs, outputs.len() as u64);
    // a trajectory with no fixes writes no fix record either way
    batch.push(renumbered(&outputs[0], 99, Vec::new()));
    let batched = temp_path("identity-batched.stlog");
    let split = temp_path("identity-split.stlog");
    let _ = std::fs::remove_file(&batched);
    let _ = std::fs::remove_file(&split);
    {
        let one = SemanticTrajectoryStore::open_durable(&batched).unwrap();
        let four = SemanticTrajectoryStore::open_durable(&split).unwrap();
        for out in &batch {
            one.put_annotated(out, roads).unwrap();
            let id = out.cleaned.trajectory_id;
            four.put_trajectory(TrajectoryMeta {
                trajectory_id: id,
                object_id: out.cleaned.object_id,
                record_count: out.cleaned.len() as u64,
            })
            .unwrap();
            four.put_fixes(id, out.cleaned.records()).unwrap();
            four.put_episodes(id, &out.episodes).unwrap();
            four.put_sst_with_layers(&out.sst, &derive_tuple_layers(out, roads))
                .unwrap();
        }
    }
    let bytes = std::fs::read(&batched).unwrap();
    assert!(
        bytes == std::fs::read(&split).unwrap(),
        "put_annotated wrote a different log"
    );

    let one = SemanticTrajectoryStore::open_durable(&batched).unwrap();
    let four = SemanticTrajectoryStore::open_durable(&split).unwrap();
    assert_eq!(one.metrics(), four.metrics());
    assert_eq!(one.counts().0, batch.len());
    for out in &batch {
        let id = out.cleaned.trajectory_id;
        assert_eq!(one.get_sst(id), four.get_sst(id));
        assert_eq!(one.get_sst(id).as_ref(), Some(&out.sst));
        assert_eq!(one.get_fixes(id).unwrap(), four.get_fixes(id).unwrap());
    }
    assert!(one.get_fixes(99).unwrap().is_empty());
    assert_eq!(olap_totals(&one), olap_totals(&four));
    std::fs::remove_file(&batched).unwrap();
    std::fs::remove_file(&split).unwrap();
}

#[test]
fn compaction_racing_ingest_loses_no_trajectory() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let (dataset, outputs) = annotated_days();
    let batch = fleet(&outputs, 300);
    let path = temp_path("compaction-race.stlog");
    let _ = std::fs::remove_file(&path);
    let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
    let ingesting = AtomicBool::new(true);
    let started = Barrier::new(2);
    let compactions = std::thread::scope(|s| {
        let compactor = s.spawn(|| {
            let mut n = 0u32;
            loop {
                store.compact().unwrap();
                n += 1;
                if n == 1 {
                    started.wait();
                }
                if !ingesting.load(Ordering::Acquire) {
                    return n;
                }
            }
        });
        // the first put waits for a compaction to have run, so the two
        // overlap from the start
        started.wait();
        for out in &batch {
            store.put_annotated(out, &dataset.city.roads).unwrap();
        }
        ingesting.store(false, Ordering::Release);
        compactor.join().unwrap()
    });
    assert!(compactions > 1);
    drop(store);

    let reopened = SemanticTrajectoryStore::open_durable(&path).unwrap();
    let lost: Vec<u64> = batch
        .iter()
        .map(|o| o.cleaned.trajectory_id)
        .filter(|&id| reopened.get_trajectory(id).is_none())
        .collect();
    assert!(lost.is_empty(), "acknowledged, then lost: {lost:?}");
    for out in &batch {
        assert_eq!(
            reopened.get_sst(out.sst.trajectory_id).as_ref(),
            Some(&out.sst)
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn readers_never_see_metadata_without_its_sst() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;

    let (dataset, outputs) = annotated_days();
    let batch = fleet(&outputs, 60);
    let path = temp_path("reader-during-ingest.stlog");
    let _ = std::fs::remove_file(&path);
    let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
    let writing = AtomicU64::new(0);
    let ingesting = AtomicBool::new(true);
    let started = Barrier::new(2);
    let polls = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            started.wait();
            let mut polls = 0u64;
            while ingesting.load(Ordering::Acquire) {
                // the trajectory being written right now
                let id = writing.load(Ordering::Acquire);
                if store.get_trajectory(id).is_some() {
                    assert!(
                        store.get_sst(id).is_some(),
                        "trajectory {id} visible without its SST"
                    );
                }
                polls += 1;
            }
            polls
        });
        started.wait();
        for out in &batch {
            writing.store(out.cleaned.trajectory_id, Ordering::Release);
            store.put_annotated(out, &dataset.city.roads).unwrap();
        }
        ingesting.store(false, Ordering::Release);
        reader.join().unwrap()
    });
    assert!(polls > 0);
    drop(store);
    std::fs::remove_file(&path).unwrap();
}

#[cfg(unix)]
#[test]
fn durable_ingest_syncs_once_per_trajectory() {
    let (dataset, outputs) = annotated_days();
    let batch = fleet(&outputs, 5);
    let path = temp_path("syncs.stlog");
    let _ = std::fs::remove_file(&path);
    let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
    // the new log's header and its directory entry
    assert_eq!(store.metrics().syncs, 2);
    for (k, out) in batch.iter().enumerate() {
        store.put_annotated(out, &dataset.city.roads).unwrap();
        assert_eq!(store.metrics().syncs, 2 + k as u64 + 1);
    }
    // the rewritten temp file and the rename
    store.compact().unwrap();
    assert_eq!(store.metrics().syncs, 2 + batch.len() as u64 + 2);
    drop(store);
    // reopening an existing log syncs nothing
    let reopened = SemanticTrajectoryStore::open_durable(&path).unwrap();
    assert_eq!(reopened.metrics().syncs, 0);
    std::fs::remove_file(&path).unwrap();

    let in_memory = SemanticTrajectoryStore::in_memory();
    for out in &batch {
        in_memory.put_annotated(out, &dataset.city.roads).unwrap();
    }
    in_memory.compact().unwrap();
    assert_eq!(in_memory.metrics().syncs, 0);
}

#[test]
fn put_annotated_rejects_reversed_and_nan_spans_before_writing() {
    let (dataset, outputs) = annotated_days();
    let roads = &dataset.city.roads;
    let path = temp_path("bad-spans.stlog");
    let _ = std::fs::remove_file(&path);
    let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
    store.put_annotated(&outputs[0], roads).unwrap();
    let size = store.log_size();

    let reversed = TimeSpan {
        start: Timestamp(500.0),
        end: Timestamp(100.0),
    };
    let nan = TimeSpan {
        start: Timestamp(f64::NAN),
        end: Timestamp(100.0),
    };
    for bad in [reversed, nan] {
        let mut out = renumbered(&outputs[1], 41, outputs[1].cleaned.records().to_vec());
        out.episodes[0].span = bad;
        let err = store.put_annotated(&out, roads).unwrap_err();
        assert!(
            matches!(err, StoreError::InvalidSpan { trajectory_id: 41 }),
            "{err}"
        );
        let mut out = renumbered(&outputs[1], 42, outputs[1].cleaned.records().to_vec());
        let last = out.sst.tuples.len() - 1;
        out.sst.tuples[last].span = bad;
        let err = store.put_annotated(&out, roads).unwrap_err();
        assert!(
            matches!(err, StoreError::InvalidSpan { trajectory_id: 42 }),
            "{err}"
        );
        assert_eq!(store.log_size(), size, "a rejected write logs nothing");
    }
    assert_eq!(store.counts().0, 1);
    drop(store);
    let reopened = SemanticTrajectoryStore::open_durable(&path).unwrap();
    assert_eq!(reopened.counts().0, 1);
    assert!(reopened.get_trajectory(41).is_none());
    std::fs::remove_file(&path).unwrap();
}
