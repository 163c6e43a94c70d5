//! Premise test of the episode windows: a rect window must list exactly the
//! rows a brute-force filter over every stored row lists, in storage order,
//! however the lattice index filed them — and so must a time window under
//! its block skip. Rows and windows include the shapes an index gets wrong
//! first: empty, NaN, infinite, zero-size and wider-than-the-top-level
//! boxes, and windows that exactly touch a cell edge or a row's edge.

use proptest::prelude::*;
use semitri_episodes::{Episode, EpisodeKind};
use semitri_geo::{Point, Rect, TimeSpan, Timestamp};
use semitri_store::lattice::{CELL_PITCH, LEVELS};
use semitri_store::{SemanticTrajectoryStore, StoredEpisode, TrajectoryMeta};

/// A box as written: `Rect::new` would normalize NaN and inverted corners
/// away.
fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Rect {
    Rect {
        min_x,
        min_y,
        max_x,
        max_y,
    }
}

const INF: f64 = f64::INFINITY;
const NAN: f64 = f64::NAN;

/// Pitch of the lattice's top level.
fn top_pitch() -> f64 {
    CELL_PITCH * (1u64 << (LEVELS - 1)) as f64
}

/// Boxes no random draw produces.
fn adversarial_box(k: usize, at: f64) -> Rect {
    let top = top_pitch();
    match k % 14 {
        0 => Rect::EMPTY,
        1 => rect(at, at, at - 1.0, at + 5.0), // inverted x
        2 => rect(NAN, at, at + 5.0, at + 5.0),
        3 => rect(at, at, at + 5.0, NAN),
        4 => rect(-INF, at, at, at + 5.0),
        5 => rect(at, at, INF, INF),
        6 => rect(-INF, -INF, INF, INF),
        7 => rect(at, at, at, at), // zero-size
        8 => rect(CELL_PITCH, CELL_PITCH, CELL_PITCH, CELL_PITCH), // on a cell corner
        9 => rect(-2.0 * top, at, 2.0 * top, at + 1.0), // wider than the top level
        10 => rect(at, -3.0 * top, at + 1.0, top),
        11 => rect(1e300, 1e300, 1e300, 1e300), // finite, saturates the cell key
        12 => rect(-1e300, at, -1e299, at),
        _ => rect(at - 2.0 * CELL_PITCH, at, at, at + 4.0 * CELL_PITCH), // on cell edges
    }
}

/// One stored row's bbox and span: a stop-sized box, a move-sized box
/// or an adversarial one.
fn row_strategy() -> impl Strategy<Value = (Rect, TimeSpan)> {
    (
        0usize..20,
        -500.0..8_500.0f64,
        -500.0..8_500.0f64,
        0.0..6_000.0f64,
        -1e5..1e5f64,
        0.0..2e4f64,
    )
        .prop_map(|(kind, x, y, extent, t0, dur)| {
            let bbox = match kind {
                // stops: a few metres to a few hundred
                0..=7 => rect(x, y, x + extent / 40.0, y + extent / 60.0),
                // moves: up to several kilometres
                8..=13 => rect(x, y, x + extent, y + extent / 2.0),
                _ => adversarial_box(kind * 7 + (x.abs() as usize % 7), x.round()),
            };
            (bbox, TimeSpan::new(Timestamp(t0), Timestamp(t0 + dur)))
        })
}

/// A window: random, or one of the adversarial shapes.
fn window_strategy() -> impl Strategy<Value = Rect> {
    (
        0usize..16,
        -500.0..8_500.0f64,
        -500.0..8_500.0f64,
        1.0..3_000.0f64,
    )
        .prop_map(|(kind, x, y, size)| match kind {
            0..=7 => rect(x, y, x + size, y + size),
            8 => Rect::EMPTY,
            9 => rect(NAN, y, x, y + size),
            10 => rect(-INF, -INF, x, y),
            11 => rect(x, y, INF, INF),
            12 => rect(-1e9, -1e9, 1e9, 1e9), // city-sized and more
            // exactly touching cell edges
            13 => {
                let e = (x / CELL_PITCH).round() * CELL_PITCH;
                rect(e - size, y, e, y + size)
            }
            14 => {
                let e = (y / (4.0 * CELL_PITCH)).round() * 4.0 * CELL_PITCH;
                rect(x, e, x + size, e + size)
            }
            _ => rect(x, y, x, y), // a point
        })
}

fn episode(bbox: Rect, span: TimeSpan) -> Episode {
    Episode {
        kind: if bbox.width() < 200.0 {
            EpisodeKind::Stop
        } else {
            EpisodeKind::Move
        },
        start: 0,
        end: 1,
        span,
        bbox,
        center: Point::ORIGIN,
    }
}

/// The store's rect row predicate, written out once more.
fn rect_hit(b: &Rect, w: &Rect) -> bool {
    !w.is_empty()
        && b.min_x <= w.max_x
        && w.min_x <= b.max_x
        && b.min_y <= w.max_y
        && w.min_y <= b.max_y
        && b.min_x <= b.max_x
        && b.min_y <= b.max_y
}

/// A stored row's identity, bit for bit.
fn key(e: &StoredEpisode) -> (u64, u32, [u64; 6]) {
    let b = e.bbox;
    let bits = [
        e.span.start.0.to_bits(),
        e.span.end.0.to_bits(),
        b.min_x.to_bits(),
        b.min_y.to_bits(),
        b.max_x.to_bits(),
        b.max_y.to_bits(),
    ];
    (e.trajectory_id, e.index, bits)
}

fn stored(trajectory_id: u64, index: usize, e: &Episode) -> StoredEpisode {
    StoredEpisode {
        trajectory_id,
        index: index as u32,
        kind: e.kind,
        span: e.span,
        bbox: e.bbox,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn windows_equal_brute_force_in_storage_order(
        trajectories in proptest::collection::vec(
            proptest::collection::vec(row_strategy(), 0..40),
            1..12,
        ),
        windows in proptest::collection::vec(window_strategy(), 1..24),
        times in proptest::collection::vec((-1.2e5..1.2e5f64, 0.0..3e4f64, 0usize..8), 1..12),
    ) {
        let store = SemanticTrajectoryStore::in_memory();
        let mut all: Vec<StoredEpisode> = Vec::new();
        for (id, rows) in trajectories.iter().enumerate() {
            let id = id as u64;
            store
                .put_trajectory(TrajectoryMeta { trajectory_id: id, object_id: 1, record_count: 0 })
                .unwrap();
            let eps: Vec<Episode> = rows.iter().map(|&(b, s)| episode(b, s)).collect();
            store.put_episodes(id, &eps).unwrap();
            all.extend(eps.iter().enumerate().map(|(i, e)| stored(id, i, e)));
        }

        // windows that exactly touch a stored row's edges
        let mut windows = windows;
        for e in all.iter().step_by(5).take(12) {
            let b = e.bbox;
            windows.push(rect(b.max_x, b.min_y, b.max_x + 50.0, b.max_y));
            windows.push(rect(b.min_x - 50.0, b.max_y, b.min_x, b.max_y + 50.0));
        }

        for w in &windows {
            let want: Vec<_> = all.iter().filter(|e| rect_hit(&e.bbox, w)).map(key).collect();
            let mut got = Vec::new();
            let before = store.metrics();
            store.for_each_episode_in_rect(w, |e| got.push(key(e)));
            let after = store.metrics();
            prop_assert_eq!(&got, &want, "rect window {:?}", w);
            let hits = after.rect_hits - before.rect_hits;
            let candidates = after.rect_candidates - before.rect_candidates;
            prop_assert_eq!(hits, want.len() as u64);
            prop_assert!(candidates >= hits);
            // the sorted variant is the same set in (trajectory, index) order
            let mut sorted = want.clone();
            sorted.sort_by_key(|k| (k.0, k.1));
            let listed: Vec<_> = store.episodes_in_rect(w).iter().map(key).collect();
            prop_assert_eq!(listed, sorted);
        }

        for &(start, len, kind) in &times {
            let window = match kind {
                0 => TimeSpan { start: Timestamp(start), end: Timestamp(start - len - 1.0) },
                1 => TimeSpan { start: Timestamp(NAN), end: Timestamp(start) },
                2 => TimeSpan { start: Timestamp(-INF), end: Timestamp(start) },
                3 => TimeSpan { start: Timestamp(start), end: Timestamp(INF) },
                _ => TimeSpan::new(Timestamp(start), Timestamp(start + len)),
            };
            let want: Vec<_> = if window.end.0 < window.start.0 {
                Vec::new()
            } else {
                all.iter().filter(|e| e.span.overlaps(&window)).map(key).collect()
            };
            let mut got = Vec::new();
            store.for_each_episode_in_time(window, |e| got.push(key(e)));
            prop_assert_eq!(&got, &want, "time window {:?}", window);
        }
    }
}

#[test]
fn every_adversarial_box_is_found_by_a_window_that_touches_it() {
    let store = SemanticTrajectoryStore::in_memory();
    store
        .put_trajectory(TrajectoryMeta {
            trajectory_id: 1,
            object_id: 1,
            record_count: 0,
        })
        .unwrap();
    let span = TimeSpan::new(Timestamp(0.0), Timestamp(1.0));
    let eps: Vec<Episode> = (0..14)
        .map(|k| episode(adversarial_box(k, 300.0), span))
        .collect();
    store.put_episodes(1, &eps).unwrap();
    for (k, e) in eps.iter().enumerate() {
        let b = e.bbox;
        // a point window on the box's lower-left corner, where it has one
        let corner = rect(b.min_x, b.min_y, b.min_x, b.min_y);
        let whole = rect(-INF, -INF, INF, INF);
        for w in [corner, whole] {
            let mut found = false;
            store.for_each_episode_in_rect(&w, |s| found |= s.index == k as u32);
            assert_eq!(found, rect_hit(&b, &w), "box {k} {b:?} under window {w:?}");
        }
    }
}
