//! Live-updating pipeline: a mutation log plus generation-swapped
//! snapshots.
//!
//! The frozen read path (flat R\*-trees, per-cell oracle arenas) is
//! immutable on purpose: that is what makes a [`SeMiTri`] shareable
//! across worker threads without a single lock on the hot path. A
//! long-running annotation service still has to absorb map edits — new
//! road segments, fresh POIs, landuse revisions, named regions — while
//! annotating. [`LiveSeMiTri`] supplies that without giving up the
//! frozen read path:
//!
//! * mutations accumulate in a **side log** ([`LiveSeMiTri::submit`]);
//!   readers never observe a half-applied edit;
//! * [`LiveSeMiTri::publish`] drains the log, applies it to the owned
//!   base [`City`], rebuilds a complete pipeline — frozen trees *and*
//!   oracle arenas — off to the side, and swaps it in as generation
//!   `N+1` through a [`GenerationHandle`];
//! * annotation entry points pin **one generation per trajectory**
//!   (per batch for the batch engine, per episode for streaming), so a
//!   publish never pauses in-flight work and never splits a single
//!   trajectory across two worlds mid-layer.
//!
//! At most two generations stay reachable through the handle (current +
//! retired), bounding memory at two live worlds plus whatever in-flight
//! pins still exist.

use crate::batch::BatchOutput;
use crate::pipeline::{PipelineConfig, PipelineOutput, SeMiTri};
use crate::streaming::StreamingAnnotator;
use semitri_data::{
    City, FeedError, GpsFeed, LanduseCategory, NamedRegion, PoiCategory, RawTrajectory, RegionKind,
    RoadClass,
};
use semitri_episodes::VelocityPolicy;
use semitri_geo::{Point, Polygon, Rect};
use semitri_index::{Generation, GenerationHandle, GenerationId};
use semitri_obs::PipelineObserver;
use std::sync::{Arc, Mutex};

/// One edit to the city substrate, queued in the side log until the next
/// [`LiveSeMiTri::publish`] folds it into a new generation.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Adds a road segment between two fresh nodes (the endpoints are not
    /// snapped onto existing nodes; the new segment is a candidate for
    /// map matching either way).
    AddRoad {
        /// Start endpoint.
        from: Point,
        /// End endpoint.
        to: Point,
        /// Road class (drives the mode-inference speed model).
        class: RoadClass,
        /// Whether a bus line runs on the segment.
        bus_route: bool,
        /// Display name.
        name: String,
    },
    /// Adds one POI.
    AddPoi {
        /// Location.
        point: Point,
        /// Category (enters the HMM priors and the observation model).
        category: PoiCategory,
        /// Display name.
        name: String,
    },
    /// Recategorizes the landuse cell covering a point.
    SetLanduse {
        /// Any point inside the target cell.
        at: Point,
        /// New category.
        category: LanduseCategory,
    },
    /// Adds a named free-form region with a rectangular extent.
    AddRegion {
        /// Display name ("EPFL campus").
        name: String,
        /// Kind of place.
        kind: RegionKind,
        /// Rectangular extent.
        bounds: Rect,
    },
}

impl Mutation {
    /// Checks the mutation against the invariants the substrate types
    /// assert on (finite coordinates, non-degenerate geometry), so a bad
    /// edit is rejected at submission instead of panicking a rebuild.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Mutation::AddRoad { from, to, .. } => {
                if !from.is_finite() || !to.is_finite() {
                    return Err("road endpoints must be finite".into());
                }
                if from.distance(*to) <= 0.0 {
                    return Err("road segment must have positive length".into());
                }
                Ok(())
            }
            Mutation::AddPoi { point, .. } => {
                if !point.is_finite() {
                    return Err("poi location must be finite".into());
                }
                Ok(())
            }
            Mutation::SetLanduse { at, .. } => {
                if !at.is_finite() {
                    return Err("landuse point must be finite".into());
                }
                Ok(())
            }
            Mutation::AddRegion { bounds, .. } => {
                if bounds.is_empty() {
                    return Err("region bounds must be non-empty".into());
                }
                Ok(())
            }
        }
    }

    /// [`Mutation::validate`] plus containment: added roads, POIs and
    /// regions must lie inside `city` (the rectangle the landuse raster
    /// and the point grid cover). A rebuild sizes the segment and POI
    /// oracle grids from the indexed items' bounding box, so one edit a
    /// thousand kilometers out would otherwise cost billions of cells.
    fn validate_within(&self, city: Rect) -> Result<(), String> {
        self.validate()?;
        let inside = match self {
            Mutation::AddRoad { from, to, .. } => {
                city.contains_point(*from) && city.contains_point(*to)
            }
            Mutation::AddPoi { point, .. } => city.contains_point(*point),
            Mutation::AddRegion { bounds, .. } => city.contains_rect(bounds),
            Mutation::SetLanduse { .. } => true,
        };
        if inside {
            Ok(())
        } else {
            Err(format!("edit lies outside the city bounds {city:?}"))
        }
    }
}

/// What one [`LiveSeMiTri::publish`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishOutcome {
    /// The generation the rebuild was published as.
    pub generation: GenerationId,
    /// How many queued mutations it folded in (0 republishes the same
    /// world under a new id).
    pub applied: usize,
}

/// Mutable state behind the log lock: the accumulated city plus the
/// not-yet-published edits.
struct LiveState {
    base: City,
    pending: Vec<Mutation>,
}

/// A [`SeMiTri`] pipeline that accepts live map updates.
///
/// Readers resolve the pipeline through [`LiveSeMiTri::pin`] (or the
/// `annotate*` conveniences, which pin per trajectory); writers queue
/// [`Mutation`]s and call [`LiveSeMiTri::publish`]. The publish path is
/// the only place a rebuild happens, and the generation swap itself is a
/// single pointer exchange — annotation never waits on it.
pub struct LiveSeMiTri {
    handle: Arc<GenerationHandle<SeMiTri>>,
    state: Mutex<LiveState>,
    make_config: Box<dyn Fn() -> PipelineConfig + Send + Sync>,
    observer: Option<Arc<dyn PipelineObserver>>,
}

impl LiveSeMiTri {
    /// Builds generation 0 from `city` using a configuration produced by
    /// `make_config` ([`PipelineConfig`] holds a boxed segmentation
    /// policy and is not `Clone`, so rebuilds need a factory, not a
    /// value). `observer`, when given, is installed on every generation's
    /// pipeline — a server's metrics registry sees spans across swaps.
    pub fn new(
        city: City,
        make_config: impl Fn() -> PipelineConfig + Send + Sync + 'static,
        observer: Option<Arc<dyn PipelineObserver>>,
    ) -> Self {
        let make_config: Box<dyn Fn() -> PipelineConfig + Send + Sync> = Box::new(make_config);
        let mut pipeline = SeMiTri::new(city.clone(), make_config());
        pipeline.set_observer(observer.clone());
        Self {
            handle: Arc::new(GenerationHandle::new(pipeline)),
            state: Mutex::new(LiveState {
                base: city,
                pending: Vec::new(),
            }),
            make_config,
            observer,
        }
    }

    /// Queues one mutation for the next publish. Invalid mutations (see
    /// [`Mutation::validate`]) and roads, POIs or regions outside the
    /// city bounds are rejected here, so the rebuild path can assume every
    /// queued edit applies cleanly and every indexed item lies inside the
    /// city.
    pub fn submit(&self, mutation: Mutation) -> Result<(), String> {
        self.submit_all(vec![mutation])
    }

    /// Queues a batch of mutations all-or-nothing: every one is checked
    /// as [`LiveSeMiTri::submit`] checks it before any is queued, so a
    /// rejected batch leaves the log as it was.
    pub fn submit_all(&self, batch: Vec<Mutation>) -> Result<(), String> {
        let mut state = self.lock_state();
        let city = state.base.bounds();
        for m in &batch {
            m.validate_within(city)?;
        }
        state.pending.extend(batch);
        Ok(())
    }

    /// Number of mutations queued and not yet published.
    pub fn pending(&self) -> usize {
        self.lock_state().pending.len()
    }

    /// Drains the mutation log, rebuilds the full pipeline (frozen trees
    /// and oracle arenas included) on the updated city, and publishes it
    /// as the next generation.
    ///
    /// The log lock is held across the rebuild so concurrent publishes
    /// serialize and generations are strictly cumulative; *submitters*
    /// may briefly block behind a rebuild, but annotation readers take no
    /// lock here at all — they keep resolving pins against the old
    /// generation until the final pointer swap.
    pub fn publish(&self) -> PublishOutcome {
        let mut state = self.lock_state();
        let drained: Vec<Mutation> = state.pending.drain(..).collect();
        for m in &drained {
            apply(&mut state.base, m);
        }
        let mut pipeline = SeMiTri::new(state.base.clone(), (self.make_config)());
        pipeline.set_observer(self.observer.clone());
        let generation = self.handle.publish(pipeline);
        PublishOutcome {
            generation,
            applied: drained.len(),
        }
    }

    /// The generation handle, for sessions that pin per episode
    /// ([`StreamingAnnotator::live`]) or callers managing pins directly.
    pub fn handle(&self) -> &Arc<GenerationHandle<SeMiTri>> {
        &self.handle
    }

    /// Pins the current generation (see [`GenerationHandle::pin`]).
    pub fn pin(&self) -> Arc<Generation<SeMiTri>> {
        self.handle.pin()
    }

    /// Id of the current generation.
    pub fn current_id(&self) -> GenerationId {
        self.handle.current_id()
    }

    /// Annotates one trajectory, pinned to a single generation end to
    /// end: a publish landing mid-annotation changes nothing for this
    /// trajectory and everything for the next one.
    pub fn annotate(&self, traj: &RawTrajectory) -> PipelineOutput {
        self.pin().snapshot().annotate(traj)
    }

    /// Fallible twin of [`LiveSeMiTri::annotate`] over a raw feed.
    pub fn try_annotate_feed(&self, feed: &GpsFeed) -> Result<PipelineOutput, FeedError> {
        self.pin().snapshot().try_annotate_feed(feed)
    }

    /// Annotates a batch on the pool, pinned to one generation for the
    /// whole batch (every trajectory in the batch sees the same world).
    pub fn annotate_batch(&self, batch: &[RawTrajectory], threads: usize) -> BatchOutput {
        self.pin().snapshot().annotate_batch(batch, threads)
    }

    /// Opens a streaming session over the handle: the session pins the
    /// current generation and re-pins at each episode-open boundary.
    pub fn streaming(&self, policy: VelocityPolicy) -> StreamingAnnotator<'static> {
        StreamingAnnotator::live(Arc::clone(&self.handle), policy)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, LiveState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Folds one mutation into the owned city. Only called with validated
/// mutations, so the substrate asserts cannot fire.
fn apply(city: &mut City, m: &Mutation) {
    match m {
        Mutation::AddRoad {
            from,
            to,
            class,
            bus_route,
            name,
        } => {
            let a = city.roads.add_node(*from);
            let b = city.roads.add_node(*to);
            city.roads.add_edge(a, b, *class, *bus_route, name.clone());
        }
        Mutation::AddPoi {
            point,
            category,
            name,
        } => {
            city.pois.push(*point, *category, name.clone());
        }
        Mutation::SetLanduse { at, category } => {
            city.landuse.set_category_at(*at, *category);
        }
        Mutation::AddRegion { name, kind, bounds } => {
            let id = city.regions.iter().map(|r| r.id + 1).max().unwrap_or(0);
            city.regions.push(NamedRegion {
                id,
                name: name.clone(),
                kind: *kind,
                polygon: Polygon::from_rect(bounds),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semitri_data::CityConfig;

    fn small_city() -> City {
        City::generate(CityConfig {
            bounds: Rect::new(0.0, 0.0, 2_000.0, 2_000.0),
            poi_count: 60,
            region_count: 2,
            seed: 9,
            ..CityConfig::default()
        })
    }

    #[test]
    fn publish_applies_the_log_cumulatively() {
        let live = LiveSeMiTri::new(small_city(), PipelineConfig::default, None);
        assert_eq!(live.current_id(), GenerationId(0));
        let before_pois = live.pin().snapshot().city().pois.len();

        live.submit(Mutation::AddPoi {
            point: Point::new(150.0, 150.0),
            category: PoiCategory::Feedings,
            name: "new cafe".into(),
        })
        .unwrap();
        live.submit(Mutation::AddRoad {
            from: Point::new(100.0, 100.0),
            to: Point::new(300.0, 100.0),
            class: RoadClass::Street,
            bus_route: false,
            name: "new street".into(),
        })
        .unwrap();
        assert_eq!(live.pending(), 2);

        let out = live.publish();
        assert_eq!(out.generation, GenerationId(1));
        assert_eq!(out.applied, 2);
        assert_eq!(live.pending(), 0);
        let city1 = live.pin().snapshot().city().clone();
        assert_eq!(city1.pois.len(), before_pois + 1);

        // an empty publish re-freezes the same world under a new id
        let out = live.publish();
        assert_eq!(out.generation, GenerationId(2));
        assert_eq!(out.applied, 0);
        assert_eq!(live.pin().snapshot().city().pois.len(), before_pois + 1);
    }

    #[test]
    fn invalid_mutations_are_rejected_at_submit() {
        let live = LiveSeMiTri::new(small_city(), PipelineConfig::default, None);
        assert!(live
            .submit(Mutation::AddRoad {
                from: Point::new(10.0, 10.0),
                to: Point::new(10.0, 10.0),
                class: RoadClass::Street,
                bus_route: false,
                name: "degenerate".into(),
            })
            .is_err());
        assert!(live
            .submit(Mutation::AddPoi {
                point: Point::new(f64::NAN, 0.0),
                category: PoiCategory::Unknown,
                name: "nowhere".into(),
            })
            .is_err());
        assert_eq!(live.pending(), 0);
    }

    #[test]
    fn out_of_city_edits_are_rejected_at_submit() {
        let live = LiveSeMiTri::new(small_city(), PipelineConfig::default, None);
        // a road a thousand kilometers out would stretch the next
        // publish's segment oracle grid to billions of cells
        let far_road = Mutation::AddRoad {
            from: Point::new(1e6, 1e6),
            to: Point::new(1e6, 1e6 + 1.0),
            class: RoadClass::Street,
            bus_route: false,
            name: "far away".into(),
        };
        assert!(live.submit(far_road).is_err());
        for far in [
            Mutation::AddPoi {
                point: Point::new(-1.0, 500.0),
                category: PoiCategory::Feedings,
                name: "just outside".into(),
            },
            Mutation::AddRegion {
                name: "overhang".into(),
                kind: RegionKind::Market,
                bounds: Rect::new(1_900.0, 1_900.0, 2_100.0, 2_000.0),
            },
        ] {
            assert!(live.submit(far).is_err());
        }
        assert_eq!(live.pending(), 0);
        assert_eq!(live.current_id(), GenerationId(0));

        // all-or-nothing: an in-city first edit is not queued behind a
        // rejected second one
        let batch = vec![
            Mutation::AddPoi {
                point: Point::new(150.0, 150.0),
                category: PoiCategory::Feedings,
                name: "inside".into(),
            },
            Mutation::AddPoi {
                point: Point::new(150.0, 2_000.5),
                category: PoiCategory::Feedings,
                name: "outside".into(),
            },
        ];
        assert!(live.submit_all(batch).is_err());
        assert_eq!(live.pending(), 0);

        // the city's own edges are inside
        live.submit(Mutation::AddRoad {
            from: Point::new(0.0, 0.0),
            to: Point::new(2_000.0, 2_000.0),
            class: RoadClass::Street,
            bus_route: false,
            name: "diagonal".into(),
        })
        .unwrap();
        assert_eq!(live.pending(), 1);
    }

    #[test]
    fn pinned_readers_keep_their_world_across_a_publish() {
        let live = LiveSeMiTri::new(small_city(), PipelineConfig::default, None);
        let pin0 = live.pin();
        let at = Point::new(50.0, 50.0);
        let before = pin0.snapshot().city().landuse.cell_at(at).category;
        let target = if before == LanduseCategory::Lake {
            LanduseCategory::Glacier
        } else {
            LanduseCategory::Lake
        };
        live.submit(Mutation::SetLanduse {
            at,
            category: target,
        })
        .unwrap();
        let out = live.publish();
        assert_eq!(out.generation, GenerationId(1));
        // old pin still reads generation 0's landuse; new pins see the edit
        assert_eq!(pin0.snapshot().city().landuse.cell_at(at).category, before);
        assert_eq!(pin0.id(), GenerationId(0));
        assert_eq!(
            live.pin().snapshot().city().landuse.cell_at(at).category,
            target
        );
    }
}
