//! The benchmark's own corpora. Every parameter that shapes a workload is a
//! constant in this file, so an edit to the repository's dataset presets
//! cannot silently change what a workload measures; `--seed` feeds only
//! these generators and the program under test sees only their output.
//!
//! Trajectories are cut to a fixed number of fixes, so every operation of
//! a workload does the same amount of input: the latency percentiles then
//! show the system's tail and not the corpus's length distribution.

use crate::rng::Rng;
use semitri::prelude::*;
use std::time::Instant;

/// Which of the three generated worlds a corpus lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// Dense street grid, few POIs: taxi days, map matching dominates.
    Vehicles,
    /// POI-rich city: phone days, dwell-heavy.
    People,
    /// The city behind the server, live and store workloads, carrying half
    /// of each kind of movement.
    Mixed,
}

/// What moves in a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Movement {
    /// Taxi days only.
    Vehicles,
    /// Phone days only.
    Phones,
    /// Even ids drive, odd ids carry a phone.
    Alternating,
}

/// Sizes of one run. `FULL` is what is measured and recorded; `SMOKE`
/// exists only so the self-tests can drive every workload with its checks
/// on in a few seconds, and its numbers are never recorded.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// City side, meters.
    pub city_side: f64,
    /// POIs of the people, the mixed and the vehicle city.
    pub people_pois: usize,
    pub mixed_pois: usize,
    pub vehicle_pois: usize,
    /// Trajectories of a batch corpus.
    pub batch_trajectories: usize,
    /// Fixes of one taxi day (1 Hz).
    pub vehicle_fixes: usize,
    /// Fixes of one phone day (5–10 s sampling); a multiple of `push_fixes`.
    pub phone_fixes: usize,
    /// Trajectories of the mixed corpus (half vehicles, half phones), the
    /// one corpus of `http_annotate`, `live_publish` and `store_warehouse`.
    pub mixed_trajectories: usize,
    /// Session users of `http_sessions`.
    pub session_users: usize,
    /// Fixes per `POST /session/{user}/push`.
    pub push_fixes: usize,
    /// Pause between two publishes, milliseconds.
    pub publish_gap_ms: u64,
    /// Day-shifted replicas of the pre-annotated mixed corpus ingested per
    /// repetition of `store_warehouse`.
    pub store_replicas: usize,
    /// Dashboard rounds per repetition.
    pub dashboard_rounds: usize,
    /// Trajectories annotated by the warm-up that is part of `setup_s`.
    pub warmup_trajectories: usize,
    /// Set-ups timed per run (the median is reported).
    pub setups: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        city_side: 8_000.0,
        people_pois: 8_000,
        mixed_pois: 4_000,
        vehicle_pois: 400,
        batch_trajectories: 320,
        vehicle_fixes: 3_072,
        phone_fixes: 4_608,
        mixed_trajectories: 64,
        session_users: 64,
        push_fixes: 32,
        publish_gap_ms: 100,
        store_replicas: 60,
        dashboard_rounds: 1_000,
        warmup_trajectories: 64,
        setups: 21,
    };

    pub const SMOKE: Scale = Scale {
        city_side: 3_000.0,
        people_pois: 600,
        mixed_pois: 400,
        vehicle_pois: 100,
        batch_trajectories: 6,
        vehicle_fixes: 384,
        phone_fixes: 640,
        mixed_trajectories: 6,
        session_users: 4,
        push_fixes: 32,
        publish_gap_ms: 5,
        store_replicas: 3,
        dashboard_rounds: 10,
        warmup_trajectories: 2,
        setups: 1,
    };
}

/// City parameters of a world. The cities do not depend on `--seed`: the
/// map is the benchmark's fixed ground, like a city's real map, and the
/// seed draws the traffic on it. (A city per seed moved `ns_per_fix` by
/// ±5 % from seed to seed, which is the size of change the bounds are
/// there to catch.)
fn city_config(world: World, scale: &Scale) -> CityConfig {
    let bounds = Rect::new(0.0, 0.0, scale.city_side, scale.city_side);
    match world {
        World::Vehicles => CityConfig {
            bounds,
            block: 150.0,
            poi_count: scale.vehicle_pois,
            poi_clusters: 4,
            region_count: 4,
            seed: 0x7461_7869,
            ..CityConfig::default()
        },
        World::People => CityConfig {
            bounds,
            block: 250.0,
            poi_count: scale.people_pois,
            poi_clusters: 12,
            region_count: 10,
            seed: 0x7068_6f6e,
            ..CityConfig::default()
        },
        World::Mixed => CityConfig {
            bounds,
            block: 200.0,
            poi_count: scale.mixed_pois,
            poi_clusters: 8,
            region_count: 8,
            seed: 0x6d69_7865,
            ..CityConfig::default()
        },
    }
}

/// The stop/move policy a world's streaming sessions use.
pub fn policy(world: World) -> VelocityPolicy {
    match world {
        World::Vehicles => VelocityPolicy::vehicles(),
        World::People | World::Mixed => VelocityPolicy::default(),
    }
}

/// The pipeline configuration of a world. A function, because the live
/// layer and the server rebuild a fresh configuration per generation.
pub fn pipeline_config(world: World) -> PipelineConfig {
    PipelineConfig {
        mode: ModeInferencer {
            allow_car: world != World::People,
            ..ModeInferencer::default()
        },
        policy: Box::new(policy(world)),
        ..PipelineConfig::default()
    }
}

fn inner_point(rng: &mut Rng, bounds: Rect, lo: f64, hi: f64) -> Point {
    Point::new(
        bounds.min_x + bounds.width() * rng.range(lo, hi),
        bounds.min_y + bounds.height() * rng.range(lo.max(0.15), hi),
    )
}

/// One taxi day: 1 Hz driving between random addresses. A pick-up or
/// drop-off pauses the car for 15–45 s, too short to become a stop; every
/// fourth fare ends in a 150–240 s wait at a rank, which the vehicle policy
/// (120 s minimum) segments as one. Cut to `fixes` fixes.
fn taxi_day(city: &City, seed: u64, id: u64, fixes: usize, day: u64) -> RawTrajectory {
    let cfg = SimConfig {
        sampling_interval: 1.0,
        sampling_jitter: 0.02,
        noise_sigma: 4.0,
        dropout: 0.005,
        indoor_keep: 0.9,
    };
    let mut horizon = fixes as f64 * 1.15;
    loop {
        let mut rng = Rng::stream(seed ^ 0x5441_5849, id);
        let start = Timestamp(day as f64 * 86_400.0 + rng.range(6.0, 20.0) * 3_600.0);
        let depot = inner_point(&mut rng, city.bounds(), 0.1, 0.9);
        let mut sim = TripSimulator::new(&city.roads, cfg, rng.next_u64(), depot, start);
        let mut fare = 0u64;
        while sim.time().0 < start.0 + horizon {
            let dest = inner_point(&mut rng, city.bounds(), 0.05, 0.95);
            if sim.travel_to(dest, TransportMode::Car) {
                fare += 1;
                let pause = if fare.is_multiple_of(4) {
                    rng.range(150.0, 240.0)
                } else {
                    rng.range(15.0, 45.0)
                };
                sim.dwell(pause, false, None);
            }
        }
        let mut records = sim.finish(id, id).records;
        if records.len() >= fixes {
            records.truncate(fixes);
            return RawTrajectory::new(id, id, records);
        }
        horizon *= 1.5;
    }
}

/// One phone day: a chain of long indoor dwells at POIs joined by short
/// walk legs and, once or twice a day, a bus or metro ride across town; 5–10 s
/// sampling, cut to `fixes` fixes.
fn phone_day(city: &City, seed: u64, id: u64, fixes: usize, day: u64) -> RawTrajectory {
    let cfg = SimConfig {
        sampling_interval: 7.5,
        sampling_jitter: 0.33,
        noise_sigma: 5.0,
        dropout: 0.03,
        indoor_keep: 0.9,
    };
    let pois = city.pois.pois();
    assert!(!pois.is_empty(), "phone days need a city with POIs");
    // expected yield ≈ 0.12 fixes per simulated second
    let mut horizon = fixes as f64 / 0.12 * 1.3;
    loop {
        let mut rng = Rng::stream(seed ^ 0x5048_4f4e, id);
        let start = Timestamp(day as f64 * 86_400.0 + rng.range(5.0, 7.0) * 3_600.0);
        let home = inner_point(&mut rng, city.bounds(), 0.2, 0.8);
        let mut sim = TripSimulator::new(&city.roads, cfg, rng.next_u64(), home, start);
        let mut leg = 0u64;
        while sim.time().0 < start.0 + horizon {
            let here = sim.position();
            // a far POI for the transit legs, else the nearest of a handful
            // that is still a real walk away
            let transit = leg % 12 == 5;
            let candidates =
                (0..if transit { 2 } else { 512 }).map(|_| &pois[rng.below(pois.len())]);
            let dest = if transit {
                candidates.max_by(|a, b| {
                    here.distance_sq(a.point)
                        .total_cmp(&here.distance_sq(b.point))
                })
            } else {
                candidates
                    .filter(|p| here.distance(p.point) > 60.0)
                    .min_by(|a, b| {
                        here.distance_sq(a.point)
                            .total_cmp(&here.distance_sq(b.point))
                    })
            };
            let Some(dest) = dest else { continue };
            let mode = match leg % 24 {
                5 => TransportMode::Bus,
                17 => TransportMode::Metro,
                _ => TransportMode::Walk,
            };
            let door = dest
                .point
                .offset(rng.range(-25.0, 25.0), rng.range(-25.0, 25.0));
            if sim.travel_to(door, mode) {
                sim.dwell(
                    rng.range(35.0, 65.0) * 60.0,
                    true,
                    Some((dest.id, dest.category)),
                );
                leg += 1;
            }
        }
        let mut records = sim.finish(id, id).records;
        if records.len() >= fixes {
            records.truncate(fixes);
            return RawTrajectory::new(id, id, records);
        }
        horizon *= 1.5;
    }
}

/// FNV-1a over 64-bit words: the digest used for corpora and outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(bytes.len() as u64);
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Self::default();
        h.bytes(bytes);
        h.0
    }
}

/// A generated world plus its trajectories.
pub struct Corpus {
    pub world: World,
    pub city: City,
    pub trajectories: Vec<RawTrajectory>,
    /// Raw fixes over all trajectories.
    pub fixes: usize,
    /// Seconds spent synthesising (`data.gen_s`; not part of `setup_s`).
    pub gen_s: f64,
    /// Digest of the city's sizes and every fix, so that two result files
    /// are only compared when they measured the same input.
    pub digest: u64,
}

impl Corpus {
    /// Generates the city of `world` and `count` trajectories moving in it.
    pub fn generate(
        world: World,
        movement: Movement,
        scale: &Scale,
        seed: u64,
        count: usize,
    ) -> Corpus {
        let t0 = Instant::now();
        let city = City::generate(city_config(world, scale));
        let trajectories: Vec<RawTrajectory> = (0..count as u64)
            .map(|id| {
                let vehicle = match movement {
                    Movement::Vehicles => true,
                    Movement::Phones => false,
                    Movement::Alternating => id % 2 == 0,
                };
                // spread the corpus over a week so time windows select
                let day = id % 7;
                if vehicle {
                    taxi_day(&city, seed, id, scale.vehicle_fixes, day)
                } else {
                    phone_day(&city, seed, id, scale.phone_fixes, day)
                }
            })
            .collect();
        let mut h = Fnv::default();
        h.word(city.pois.len() as u64);
        h.word(city.roads.segments().len() as u64);
        h.word(city.landuse.len() as u64);
        for t in &trajectories {
            for r in t.records() {
                h.word(r.point.x.to_bits());
                h.word(r.point.y.to_bits());
                h.word(r.t.0.to_bits());
            }
        }
        Corpus {
            world,
            fixes: trajectories.iter().map(|t| t.len()).sum(),
            city,
            trajectories,
            gen_s: t0.elapsed().as_secs_f64(),
            digest: h.0,
        }
    }

    /// The pipeline configuration of this corpus's world.
    pub fn config(&self) -> PipelineConfig {
        pipeline_config(self.world)
    }
}
