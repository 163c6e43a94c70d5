//! Property tests for the columnar engine: fix columns must round-trip
//! (timestamps bit-exact, positions to within half a quantum), the
//! compressed semantic matrix must agree with the retained row-walk
//! oracle on every warehouse aggregate, and v1 logs must keep replaying
//! (and migrate to v2 through compaction) under the current codec.

use proptest::prelude::*;
use semitri_core::model::{
    Annotation, AnnotationValue, PlaceKind, PlaceRef, SemanticTuple, StructuredSemanticTrajectory,
};
use semitri_data::{GpsRecord, LanduseCategory, RoadClass, TransportMode};
use semitri_episodes::EpisodeKind;
use semitri_geo::{Point, TimeSpan, Timestamp};
use semitri_store::fixcol::{FixBlock, POSITION_QUANTUM};
use semitri_store::{RowStore, SemanticTrajectoryStore, TrajectoryMeta, TupleLayers};

/// Half a position quantum plus float slack: the fix-column accuracy bound.
const POS_TOL: f64 = POSITION_QUANTUM / 2.0 + 1e-9;

fn unique_path(stem: &str, salt: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("semitri-columnar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{stem}-{salt}.stlog"));
    let _ = std::fs::remove_file(&path);
    path
}

// ---------------------------------------------------------------------
// fix-column round-trips
// ---------------------------------------------------------------------

/// Smooth trajectories: regular sampling with jitter, random-walk
/// positions — the shape the delta codecs are built for.
fn smooth_fixes() -> impl Strategy<Value = Vec<GpsRecord>> {
    (
        0.0..4e9f64,  // start epoch
        0.5..30.0f64, // sampling period
        proptest::collection::vec((-0.01..0.01f64, -25.0..25.0f64, -25.0..25.0f64), 0..600),
    )
        .prop_map(|(t0, period, steps)| {
            let (mut t, mut x, mut y) = (t0, 1000.0, 2000.0);
            steps
                .into_iter()
                .map(|(jitter, dx, dy)| {
                    t += period + jitter;
                    x += dx;
                    y += dy;
                    GpsRecord {
                        point: Point::new(x, y),
                        t: Timestamp(t),
                    }
                })
                .collect()
        })
}

/// Hostile trajectories: arbitrary finite coordinates and out-of-order
/// timestamps, forcing the raw-fallback paths.
fn hostile_fixes() -> impl Strategy<Value = Vec<GpsRecord>> {
    proptest::collection::vec((-1e7..1e7f64, -1e7..1e7f64, -1e9..4e9f64), 0..520).prop_map(|rows| {
        rows.into_iter()
            .map(|(x, y, t)| GpsRecord {
                point: Point::new(x, y),
                t: Timestamp(t),
            })
            .collect()
    })
}

fn assert_fixes_close(got: &[GpsRecord], want: &[GpsRecord]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        // timestamps are bit-exact by contract, positions within tolerance
        assert_eq!(g.t.0.to_bits(), w.t.0.to_bits(), "timestamp drifted");
        assert!((g.point.x - w.point.x).abs() <= POS_TOL, "x drifted");
        assert!((g.point.y - w.point.y).abs() <= POS_TOL, "y drifted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fix_blocks_roundtrip_smooth(fixes in smooth_fixes()) {
        // blocks hold at most BLOCK_LEN fixes; chunk like put_fixes does
        for chunk in fixes.chunks(semitri_store::fixcol::BLOCK_LEN) {
            let block = FixBlock::encode(chunk);
            let mut out = Vec::new();
            block.decode(&mut out).unwrap();
            assert_fixes_close(&out, chunk);
            // the wire form is what replay sees: it must decode identically
            let revived = FixBlock::from_bytes(block.bytes.clone()).unwrap();
            let mut out2 = Vec::new();
            revived.decode(&mut out2).unwrap();
            assert_fixes_close(&out2, chunk);
        }
    }

    #[test]
    fn fix_blocks_roundtrip_hostile(fixes in hostile_fixes()) {
        for chunk in fixes.chunks(semitri_store::fixcol::BLOCK_LEN) {
            let block = FixBlock::encode(chunk);
            let mut out = Vec::new();
            block.decode(&mut out).unwrap();
            assert_fixes_close(&out, chunk);
        }
    }

    #[test]
    fn durable_fix_columns_roundtrip(fixes in smooth_fixes(), salt in 0u64..1_000_000) {
        let path = unique_path("fixes", salt);
        {
            let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
            store
                .put_trajectory(TrajectoryMeta {
                    trajectory_id: 1,
                    object_id: 1,
                    record_count: fixes.len() as u64,
                })
                .unwrap();
            store.put_fixes(1, &fixes).unwrap();
            assert_fixes_close(&store.get_fixes(1).unwrap(), &fixes);
        }
        let reopened = SemanticTrajectoryStore::open_durable(&path).unwrap();
        assert_fixes_close(&reopened.get_fixes(1).unwrap(), &fixes);
        std::fs::remove_file(&path).unwrap();
    }
}

// ---------------------------------------------------------------------
// compressed aggregates vs the row-walk oracle
// ---------------------------------------------------------------------

/// The float just below (`dir < 0`) or above (`dir > 0`) `x`.
fn step(x: f64, dir: i64) -> f64 {
    if x == 0.0 {
        let tiny = f64::from_bits(1);
        return if dir < 0 { -tiny } else { tiny };
    }
    let toward_larger_magnitude = (x > 0.0) == (dir > 0);
    let bits = x.to_bits();
    f64::from_bits(if toward_larger_magnitude {
        bits + 1
    } else {
        bits - 1
    })
}

/// Tuple starts: anywhere in a few days, or exactly on (or one float off)
/// an hour or day edge, negative times included — where `hour_of`'s
/// `rem_euclid` rounds, and where a stored hour lane could drift from it.
fn tuple_start() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0..4e5f64,
        -4e5..0.0f64,
        (-96i64..96, 0usize..3, -1i64..2).prop_map(|(k, unit, off)| {
            let edge = k as f64 * [3_600.0, 86_400.0, 1e-9][unit];
            if off == 0 {
                edge
            } else {
                step(edge, off)
            }
        }),
        Just(-1e-12),
        Just(-0.0),
        Just(86_400.0 - 1e-9),
    ]
}

fn layered_tuple() -> impl Strategy<Value = (SemanticTuple, TupleLayers)> {
    let labels = (
        prop_oneof![Just(false), Just(true)],   // stop or move
        0usize..LanduseCategory::ALL.len() + 1, // len() = "no landuse"
        0usize..RoadClass::ALL.len() + 1,       // len() = "no class"
        0usize..TransportMode::ALL.len(),
        prop_oneof![Just(false), Just(true)], // carry a mode annotation?
    );
    let shape = (
        proptest::option::of((0u64..40, 0usize..6)), // point POI (id, label pool)
        tuple_start(),
        0.0..9e3f64,
        0u32..2_000,
    );
    (labels, shape).prop_map(
        |((is_stop, landuse, class, mode, has_mode), (poi, start, dur, records))| {
            let kind = if is_stop {
                EpisodeKind::Stop
            } else {
                EpisodeKind::Move
            };
            let mut annotations = Vec::new();
            if has_mode {
                annotations.push(Annotation::new(
                    "mode",
                    AnnotationValue::Mode(TransportMode::ALL[mode]),
                ));
            }
            let place =
                poi.map(|(id, label)| PlaceRef::new(PlaceKind::Point, id, format!("poi-{label}")));
            let tuple = SemanticTuple {
                place,
                span: TimeSpan::new(Timestamp(start), Timestamp(start + dur)),
                annotations,
            };
            let layers = TupleLayers {
                kind,
                road_class: RoadClass::ALL.get(class).copied(),
                landuse: LanduseCategory::ALL.get(landuse).copied(),
                records,
            };
            (tuple, layers)
        },
    )
}

fn layered_sst() -> impl Strategy<Value = (StructuredSemanticTrajectory, Vec<TupleLayers>)> {
    (
        0u64..64,
        0u64..64,
        proptest::collection::vec(layered_tuple(), 0..12),
    )
        .prop_map(|(trajectory_id, object_id, rows)| {
            let (tuples, layers): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
            (
                StructuredSemanticTrajectory {
                    object_id,
                    trajectory_id,
                    tuples,
                },
                layers,
            )
        })
}

/// Tie-stable ordering so matrix and oracle rankings compare as sets.
fn sorted_visits(mut v: Vec<semitri_store::PoiVisit>) -> Vec<semitri_store::PoiVisit> {
    v.sort_by(|a, b| {
        b.visits
            .cmp(&a.visits)
            .then(a.place_id.cmp(&b.place_id))
            .then(a.label.cmp(&b.label))
    });
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compressed_aggregates_match_row_walk(
        ssts in proptest::collection::vec(layered_sst(), 1..8)
    ) {
        let store = SemanticTrajectoryStore::in_memory();
        let mut oracle = RowStore::new();
        for (sst, layers) in &ssts {
            store
                .put_trajectory(TrajectoryMeta {
                    trajectory_id: sst.trajectory_id,
                    object_id: sst.object_id,
                    record_count: sst.tuples.len() as u64,
                })
                .unwrap();
            store.put_sst_with_layers(sst, layers).unwrap();
            oracle.insert(sst.clone(), layers.clone());
        }

        let stops = store.stops_per_landuse_hour();
        let stops_row = oracle.stops_per_landuse_hour();
        for cat in LanduseCategory::ALL {
            for hour in 0..24 {
                prop_assert_eq!(stops.get(cat, hour), stops_row.get(cat, hour));
            }
        }

        let share = store.mode_share_by_road_class();
        let share_row = oracle.mode_share_by_road_class();
        for class in RoadClass::ALL {
            for mode in TransportMode::ALL {
                prop_assert_eq!(share.get(class, mode), share_row.get(class, mode));
            }
        }

        // compare full rankings under a total order: rank_poi_visits only
        // tie-breaks on id, so equal (visits, id) pairs with different
        // labels may legally swap
        let ranked = sorted_visits(store.top_poi_visits(usize::MAX));
        let ranked_row = sorted_visits(oracle.top_poi_visits(usize::MAX));
        prop_assert_eq!(ranked, ranked_row);
    }

    #[test]
    fn matrix_reconstructs_ssts_and_labels_exactly(
        ssts in proptest::collection::vec(layered_sst(), 1..6),
        salt in 0u64..1_000_000
    ) {
        let path = unique_path("matrix", salt);
        let mut by_id = std::collections::HashMap::new();
        {
            let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
            for (sst, layers) in &ssts {
                store
                    .put_trajectory(TrajectoryMeta {
                        trajectory_id: sst.trajectory_id,
                        object_id: sst.object_id,
                        record_count: sst.tuples.len() as u64,
                    })
                    .unwrap();
                store.put_sst_with_layers(sst, layers).unwrap();
                by_id.insert(sst.trajectory_id, (sst.clone(), layers.clone()));
            }
        }
        let reopened = SemanticTrajectoryStore::open_durable(&path).unwrap();
        for (id, (sst, _)) in &by_id {
            prop_assert_eq!(&reopened.get_sst(*id).expect("sst replayed"), sst);
        }
        // replay must restore the layer labels, not just the tuples:
        // aggregates over the reopened store match the oracle
        let mut oracle = RowStore::new();
        for (sst, layers) in by_id.values() {
            oracle.insert(sst.clone(), layers.clone());
        }
        let stops = reopened.stops_per_landuse_hour();
        let stops_row = oracle.stops_per_landuse_hour();
        prop_assert_eq!(stops.total(), stops_row.total());
        let share = reopened.mode_share_by_road_class();
        let share_row = oracle.mode_share_by_road_class();
        prop_assert_eq!(share.total(), share_row.total());
        std::fs::remove_file(&path).unwrap();
    }
}

// ---------------------------------------------------------------------
// v1 log migration
// ---------------------------------------------------------------------

/// Writes a version-1 log byte-for-byte as the pre-columnar store did:
/// header, REC_META (1), per-episode REC_EPISODE (2) rows without record
/// ranges, and a REC_SST (3) body.
fn write_v1_log(path: &std::path::Path) {
    use semitri_store::codec::Encoder;
    let file = std::fs::File::create(path).unwrap();
    let mut enc = Encoder::new(std::io::BufWriter::new(file));
    enc.u32(0x5357_5254).unwrap(); // MAGIC
    enc.u8(1).unwrap(); // version 1

    // REC_META: trajectory 7, object 3, 2 records
    enc.u8(1).unwrap();
    enc.u64(7).unwrap();
    enc.u64(3).unwrap();
    enc.u64(2).unwrap();

    // REC_EPISODE: stop at [100, 200] in a unit box
    enc.u8(2).unwrap();
    enc.u64(7).unwrap();
    enc.u32(0).unwrap();
    enc.u8(0).unwrap(); // Stop
    enc.f64(100.0).unwrap();
    enc.f64(200.0).unwrap();
    for v in [10.0, 20.0, 11.0, 21.0] {
        enc.f64(v).unwrap();
    }

    // REC_EPISODE: move at [200, 400]
    enc.u8(2).unwrap();
    enc.u64(7).unwrap();
    enc.u32(1).unwrap();
    enc.u8(1).unwrap(); // Move
    enc.f64(200.0).unwrap();
    enc.f64(400.0).unwrap();
    for v in [10.0, 20.0, 90.0, 80.0] {
        enc.f64(v).unwrap();
    }

    // REC_SST: stop tuple on a landuse region, move tuple with a mode
    enc.u8(3).unwrap();
    enc.u64(7).unwrap(); // trajectory_id
    enc.u64(3).unwrap(); // object_id
    enc.seq_len(2).unwrap();
    // tuple 0: region place labeled with a real landuse category
    enc.u8(1).unwrap(); // Some(place)
    enc.u8(0).unwrap(); // Region
    enc.u64(501).unwrap();
    enc.string(LanduseCategory::ALL[0].label()).unwrap();
    enc.f64(100.0).unwrap();
    enc.f64(200.0).unwrap();
    enc.seq_len(0).unwrap();
    // tuple 1: no place, one Mode annotation
    enc.u8(0).unwrap();
    enc.f64(200.0).unwrap();
    enc.f64(400.0).unwrap();
    enc.seq_len(1).unwrap();
    enc.string("mode").unwrap();
    enc.u8(0).unwrap(); // Mode tag
    enc.u8(TransportMode::ALL
        .iter()
        .position(|&m| m == TransportMode::Walk)
        .unwrap() as u8)
        .unwrap();
}

#[test]
fn v1_logs_replay_and_migrate_to_v2() {
    let path = unique_path("v1-migration", 0);
    write_v1_log(&path);

    // a v1 log replays into the columnar engine
    let store = SemanticTrajectoryStore::open_durable(&path).unwrap();
    let meta = store.get_trajectory(7).expect("meta replayed");
    assert_eq!(meta.object_id, 3);
    let (metas, episodes, ssts) = store.counts();
    assert_eq!((metas, episodes, ssts), (1, 2, 1));
    let sst = store.get_sst(7).expect("sst replayed");
    assert_eq!(sst.tuples.len(), 2);
    assert_eq!(sst.tuples[0].place.as_ref().unwrap().id, 501);

    // default layer derivation kicks in for v1 tuples: the region stop
    // lands in the landuse cube, the mode move in the mode filter
    let stops = store.stops_per_landuse_hour();
    assert_eq!(stops.get(LanduseCategory::ALL[0], 0), 1);
    assert_eq!(store.ssts_with_mode(TransportMode::Walk), vec![7]);

    // v1 episode rows never stored record ranges, but block summaries
    // still index them for time queries
    let hits = store.episodes_in_time(TimeSpan::new(Timestamp(150.0), Timestamp(250.0)));
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[0].kind, EpisodeKind::Stop);

    // new-style writes append to the v1 file without rewriting it
    let fixes: Vec<GpsRecord> = (0..300)
        .map(|i| GpsRecord {
            point: Point::new(10.0 + i as f64, 20.0),
            t: Timestamp(100.0 + i as f64),
        })
        .collect();
    store
        .put_trajectory(TrajectoryMeta {
            trajectory_id: 8,
            object_id: 4,
            record_count: fixes.len() as u64,
        })
        .unwrap();
    store.put_fixes(8, &fixes).unwrap();
    drop(store);

    let mixed = SemanticTrajectoryStore::open_durable(&path).unwrap();
    assert_eq!(mixed.counts().0, 2);
    assert_fixes_close(&mixed.get_fixes(8).unwrap(), &fixes);
    assert_eq!(mixed.get_sst(7).expect("v1 sst survives").tuples.len(), 2);

    // compaction rewrites the mixed log as pure v2; everything survives
    mixed.compact().unwrap();
    drop(mixed);
    let migrated = SemanticTrajectoryStore::open_durable(&path).unwrap();
    assert_eq!(migrated.counts(), (2, 2, 1));
    assert_fixes_close(&migrated.get_fixes(8).unwrap(), &fixes);
    assert_eq!(
        migrated
            .stops_per_landuse_hour()
            .get(LanduseCategory::ALL[0], 0),
        1
    );
    assert_eq!(migrated.ssts_with_mode(TransportMode::Walk), vec![7]);
    std::fs::remove_file(&path).unwrap();
}
