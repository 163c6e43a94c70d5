//! The one read path per layer, pinned to its references end to end.
//!
//! The line and point layers each read a frozen R*-tree through a
//! precomputed per-cell oracle, and each keeps a second backend as its
//! reference: the matcher's per-fix tree walk (`match_records_naive`) and
//! the POI layer's best-first kNN heap (`nearest_of_category_via_heap`).
//! The unit and property suites prove the oracle reproduces them per query;
//! this suite proves the consequence on whole fleets: every move episode
//! the pipeline matches equals the naive matcher's answer, every stop POI
//! it resolves equals the heap's, and the multi-threaded batch engine
//! equals sequential annotation byte for byte.

use semitri::prelude::*;

fn config(vehicles: bool) -> PipelineConfig {
    if vehicles {
        PipelineConfig {
            mode: ModeInferencer {
                allow_car: true,
                ..ModeInferencer::default()
            },
            policy: Box::new(VelocityPolicy::vehicles()),
            ..PipelineConfig::default()
        }
    } else {
        PipelineConfig::default()
    }
}

/// The semantic payload of one output, rendered for comparison — every
/// field except the wall-clock latency profile (timings differ run to
/// run; everything else must not differ by a byte).
fn semantic_repr(out: &PipelineOutput) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        out.cleaned.records(),
        out.episodes,
        out.region_tuples,
        out.move_routes,
        out.stop_annotations,
        out.sst,
        out.cleaning,
    )
}

/// Matches every move episode of `out` through the pipeline's matcher —
/// one scratch threaded across episodes, as the pipeline does — and
/// demands the naive per-fix tree path's answer. Returns the number of
/// fixes matched.
fn assert_moves_match_naive(
    semitri: &SeMiTri,
    scratch: &mut MatchScratch,
    out: &PipelineOutput,
) -> usize {
    let matcher = semitri.matcher();
    let mut matched = 0usize;
    for ep in out.episodes.iter().filter(|e| e.kind == EpisodeKind::Move) {
        let slice = &out.cleaned.records()[ep.start..ep.end];
        let got = matcher.match_records_with(scratch, slice);
        assert_eq!(
            got,
            matcher.match_records_naive(slice),
            "trajectory {} move episode {}..{} diverged from the tree path",
            out.cleaned.trajectory_id,
            ep.start,
            ep.end
        );
        matched += got.iter().flatten().count();
    }
    matched
}

/// Demands that every stop POI the pipeline resolved is the one the
/// heap-only lookup resolves for the same center and category. Returns
/// the number of stops with a resolved POI.
fn assert_stops_match_heap(semitri: &SeMiTri, out: &PipelineOutput) -> usize {
    let Some(point) = semitri.point_annotator() else {
        return 0;
    };
    let model = point.observation_model();
    let pois = &semitri.city().pois;
    let mut resolved = 0usize;
    for (idx, ann) in &out.stop_annotations {
        let center = out.episodes[*idx].center;
        let want = model
            .nearest_of_category_via_heap(pois, center, ann.category)
            .map(|p| p.id);
        assert_eq!(
            ann.poi.as_ref().map(|r| r.id),
            want,
            "trajectory {} stop {idx} diverged from the heap path",
            out.cleaned.trajectory_id
        );
        resolved += usize::from(want.is_some());
    }
    resolved
}

#[test]
fn sequential_annotation_is_identical_across_backends() {
    // taxi moves: the oracle slab path against the per-fix tree walk
    let dataset = lausanne_taxis(1, 99);
    let semitri = SeMiTri::new(&dataset.city, config(true));
    assert!(!dataset.tracks.is_empty());
    let mut scratch = MatchScratch::new();
    let mut matched = 0usize;
    for track in &dataset.tracks {
        let out = semitri.annotate(&track.to_raw());
        matched += assert_moves_match_naive(&semitri, &mut scratch, &out);
    }
    assert!(matched > 0, "fixture must exercise the line layer");
}

#[test]
fn multimodal_fleet_is_identical_across_backends() {
    // pedestrians exercise the point layer (stops + POI resolution) much
    // harder than taxis do: the shortlist oracle against the kNN heap
    let dataset = smartphone_users(2, 2, 7);
    let semitri = SeMiTri::new(&dataset.city, config(false));
    let (mut stops_seen, mut resolved) = (0usize, 0usize);
    for track in &dataset.tracks {
        let out = semitri.annotate(&track.to_raw());
        stops_seen += out.stop_annotations.len();
        resolved += assert_stops_match_heap(&semitri, &out);
    }
    assert!(stops_seen > 0, "fixture must exercise the point layer");
    assert!(resolved > 0, "fixture must resolve real POIs");
}

#[test]
fn every_layer_matches_its_reference_end_to_end() {
    // a mixed-mode fleet through both references at once: moves against
    // the naive matcher, stops against the heap, and a rerun of the same
    // pipeline byte-identical to the first
    let dataset = smartphone_users(2, 1, 5);
    let semitri = SeMiTri::new(&dataset.city, config(false));
    let mut scratch = MatchScratch::new();
    let (mut matched, mut stops) = (0usize, 0usize);
    for track in &dataset.tracks {
        let raw = track.to_raw();
        let out = semitri.annotate(&raw);
        matched += assert_moves_match_naive(&semitri, &mut scratch, &out);
        stops += out.stop_annotations.len();
        assert_stops_match_heap(&semitri, &out);
        assert_eq!(semantic_repr(&out), semantic_repr(&semitri.annotate(&raw)));
    }
    assert!(
        matched > 0 && stops > 0,
        "fixture must exercise both layers"
    );
}

#[test]
fn batch_engine_is_identical_across_backends_and_threads() {
    // four workers sharing one pipeline (and its oracles) against the
    // sequential path, slot by slot
    let dataset = lausanne_taxis(1, 42);
    let raws: Vec<RawTrajectory> = dataset.tracks.iter().map(|t| t.to_raw()).collect();
    let semitri = SeMiTri::new(&dataset.city, config(true));
    let batch = BatchAnnotator::new(&semitri)
        .with_threads(4)
        .annotate_all(&raws);
    assert_eq!(batch.results.len(), raws.len());
    for (i, (result, raw)) in batch.results.iter().zip(&raws).enumerate() {
        assert_eq!(
            semantic_repr(result.as_ref().unwrap()),
            semantic_repr(&semitri.annotate(raw)),
            "slot {i} diverged"
        );
    }
}

#[test]
fn streaming_annotator_agrees_with_frozen_batch_regions() {
    // the streaming annotator builds its own (frozen) indexes; feeding it
    // a track must produce stop/move events, proving the frozen read path
    // works incrementally too
    let dataset = smartphone_users(1, 1, 3);
    let mut streamer = semitri::core::StreamingAnnotator::new(
        &dataset.city,
        VelocityPolicy::default(),
        MatchParams::default(),
        ModeInferencer::default(),
        semitri::core::point::PointParams::default(),
    );
    let mut events = 0usize;
    for rec in &dataset.tracks[0].records {
        events += streamer.push(*rec).len();
    }
    events += streamer.flush().len();
    assert!(events > 0, "stream produced no episodes");
}

/// The corner of the city farthest from every fix of `raw`, inset from
/// the boundary so landuse cells and region rectangles around it stay
/// inside the city (live edits must). Returns `(corner,
/// min_distance_to_track)`.
fn farthest_corner(bounds: &Rect, raw: &RawTrajectory) -> (Point, f64) {
    let inset = 200.0;
    let corners = [
        Point::new(bounds.min_x + inset, bounds.min_y + inset),
        Point::new(bounds.max_x - inset, bounds.min_y + inset),
        Point::new(bounds.min_x + inset, bounds.max_y - inset),
        Point::new(bounds.max_x - inset, bounds.max_y - inset),
    ];
    corners
        .into_iter()
        .map(|c| {
            let d = raw
                .records()
                .iter()
                .map(|r| r.point.distance(c))
                .fold(f64::INFINITY, f64::min);
            (c, d)
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap()
}

/// Map edits clustered around `at`, none of which can perturb annotation
/// far away: a disconnected road segment running from `at` toward the
/// middle of `city`, a landuse recategorization of one cell, and a named
/// region. (Deliberately no `AddPoi` — POIs enter the *global* category
/// prior of the point layer's HMM, so a new POI anywhere may legally
/// shift stop inference everywhere.)
fn local_mutations(at: Point, city: &Rect, current_landuse: LanduseCategory) -> Vec<Mutation> {
    let inward = if at.x > city.center().x {
        -400.0
    } else {
        400.0
    };
    let relabel = if current_landuse == LanduseCategory::Lake {
        LanduseCategory::Glacier
    } else {
        LanduseCategory::Lake
    };
    vec![
        Mutation::AddRoad {
            from: at,
            to: Point::new(at.x + inward, at.y),
            class: RoadClass::Street,
            bus_route: false,
            name: "swap lane".into(),
        },
        Mutation::SetLanduse {
            at,
            category: relabel,
        },
        Mutation::AddRegion {
            name: "swap yard".into(),
            kind: RegionKind::Market,
            bounds: Rect::new(at.x - 150.0, at.y - 150.0, at.x + 150.0, at.y + 150.0),
        },
    ]
}

/// A synthetic trajectory dwelling at `at` for twenty minutes — long
/// enough for any segmentation policy to cut a stop episode there.
fn dwell_at(at: Point, object_id: u64) -> RawTrajectory {
    let records: Vec<GpsRecord> = (0..40)
        .map(|i| {
            let jitter = (i % 3) as f64 * 1.5;
            GpsRecord::new(
                Point::new(at.x + jitter, at.y - jitter),
                Timestamp(8.0 * 3_600.0 + i as f64 * 30.0),
            )
        })
        .collect();
    RawTrajectory::new(object_id, object_id, records)
}

/// The generation-swap property across every entry point: sequential,
/// batch, and streaming with the swap landing mid-feed.
///
/// The edits are clustered in the city corner farthest from the probe
/// trajectory, so generations N and N+1 must agree byte-for-byte on the
/// probe — which is exactly what lets a mid-feed swap promise anything:
/// a trajectory annotated *across* the swap must equal one annotated
/// wholly on generation N+1 once the swap quiesces. A second trajectory
/// dwelling inside the edited corner proves the swap is real (its
/// annotation differs between generations).
#[test]
fn annotation_across_a_generation_swap_matches_pure_next_generation() {
    let dataset = lausanne_taxis(1, 42);
    let probe = dataset.tracks[0].to_raw();
    let (far, clearance) = farthest_corner(&dataset.city.bounds(), &probe);
    assert!(
        clearance > 1_500.0,
        "probe track comes within {clearance:.0} m of every corner; \
         the locality argument needs a clear corner"
    );
    let dwell = dwell_at(far, 9_001);
    let landuse_before = dataset.city.landuse.cell_at(far).category;

    let live = LiveSeMiTri::new(dataset.city.clone(), || config(true), None);
    let pin0 = live.pin();
    assert_eq!(pin0.id(), GenerationId(0));
    let sequential_gen0 = semantic_repr(&live.annotate(&probe));

    // a streaming session opened on generation 0, swapped mid-feed
    let mut across = live.streaming(VelocityPolicy::vehicles());
    assert_eq!(across.generation_id(), Some(GenerationId(0)));
    let records = probe.records();
    let mid = records.len() / 2;
    let mut across_events = Vec::new();
    for r in &records[..mid] {
        across_events.extend(across.push(*r));
    }
    for m in local_mutations(far, &dataset.city.bounds(), landuse_before) {
        live.submit(m).unwrap();
    }
    let outcome = live.publish(); // the swap lands mid-feed
    assert_eq!(outcome.generation, GenerationId(1));
    assert_eq!(outcome.applied, 3);
    for r in &records[mid..] {
        across_events.extend(across.push(*r));
    }
    across_events.extend(across.flush());
    assert_eq!(
        across.generation_id(),
        Some(GenerationId(1)),
        "an episode opened after the swap must pin generation 1"
    );

    // quiesced references, wholly on generation N+1
    let pin1 = live.pin();
    assert_eq!(pin1.id(), GenerationId(1));
    let pure1 = pin1.snapshot();

    // sequential: across-publish annotate == pure-N+1 == pre-swap
    let sequential_gen1 = semantic_repr(&live.annotate(&probe));
    assert_eq!(sequential_gen1, semantic_repr(&pure1.annotate(&probe)));
    assert_eq!(
        sequential_gen0, sequential_gen1,
        "edits {clearance:.0} m away must not perturb the probe"
    );

    // batch: pinned once for the whole batch, equal to pure N+1
    let batch = live.annotate_batch(std::slice::from_ref(&probe), 2);
    let pure_batch = pure1.annotate_batch(std::slice::from_ref(&probe), 1);
    for (a, b) in batch.results.iter().zip(&pure_batch.results) {
        assert_eq!(
            semantic_repr(a.as_ref().unwrap()),
            semantic_repr(b.as_ref().unwrap())
        );
    }

    // streaming: the swapped-mid-feed session's event stream equals a
    // session run wholly on generation N+1
    let mut fresh = live.streaming(VelocityPolicy::vehicles());
    assert_eq!(fresh.generation_id(), Some(GenerationId(1)));
    let mut fresh_events = Vec::new();
    for r in records {
        fresh_events.extend(fresh.push(*r));
    }
    fresh_events.extend(fresh.flush());
    assert_eq!(
        format!("{across_events:?}"),
        format!("{fresh_events:?}"),
        "streaming across the swap diverged from pure generation 1"
    );

    // the landuse revision is served by the next generation's raster
    // copy and not by the pinned one: `SetLanduse` edits the city's
    // grid, and the region layer answers from its own copy of it
    let landuse_label = |s: &SeMiTri| {
        let region = s.region_annotator().region_at(far);
        region.expect("the corner is on the raster").label
    };
    let relabelled = pure1.city().landuse.cell_at(far).category;
    assert_ne!(relabelled, landuse_before);
    assert!(landuse_label(pin0.snapshot()).starts_with(landuse_before.label()));
    assert!(landuse_label(pure1).starts_with(relabelled.label()));
    assert_eq!(
        pure1.region_annotator().categories_for(&dwell)[0],
        Some(relabelled)
    );

    // the swap was real: inside the edited corner the generations
    // disagree (old pins keep the old world, new pins see the edits)
    let dwell0 = semantic_repr(&pin0.snapshot().annotate(&dwell));
    let dwell1 = semantic_repr(&pure1.annotate(&dwell));
    assert_ne!(
        dwell0, dwell1,
        "mutations at the far corner must change annotation there"
    );
    assert!(!pure1.annotate(&dwell).stop_annotations.is_empty());
}
