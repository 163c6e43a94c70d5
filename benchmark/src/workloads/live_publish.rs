//! `live_publish`: one thread annotates the mixed corpus in a loop while a
//! second publishes one map edit at a time, with a pause between two
//! publishes; an operation is one `LiveSeMiTri::annotate` call made while
//! publishes run.

use super::*;
use crate::corpus::{pipeline_config, Movement, World};
use crate::rng::Rng;
use crate::trace::time_if;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Seconds one pass over the corpus took on the 2-core sandbox.
const PASS_S: f64 = 0.074;

/// Span names of the three publish kinds, in cycling order.
const PUBLISH: [&str; 3] = [
    "core.live.publish_add_poi",
    "core.live.publish_add_road",
    "core.live.publish_set_landuse",
];

/// The `k`-th map edit: POI, road, landuse, POI, … at seeded places.
fn mutation(k: usize, rng: &mut Rng, bounds: Rect) -> Mutation {
    let mut place = || {
        Point::new(
            bounds.min_x + bounds.width() * rng.range(0.1, 0.9),
            bounds.min_y + bounds.height() * rng.range(0.2, 0.9),
        )
    };
    match k % 3 {
        0 => Mutation::AddPoi {
            point: place(),
            category: PoiCategory::ALL[k / 3 % PoiCategory::ALL.len()],
            name: format!("bench poi {k}"),
        },
        1 => {
            let from = place();
            Mutation::AddRoad {
                from,
                to: from.offset(180.0, 60.0),
                class: RoadClass::Street,
                bus_route: false,
                name: format!("bench street {k}"),
            }
        }
        _ => Mutation::SetLanduse {
            at: place(),
            category: LanduseCategory::ALL[k / 3 % LanduseCategory::ALL.len()],
        },
    }
}

/// Folds a mutation into the benchmark's own copy of the city, with the
/// data layer's public builders: the world the live pipeline must end on.
fn apply(city: &mut City, m: &Mutation) {
    match m {
        Mutation::AddPoi {
            point,
            category,
            name,
        } => {
            city.pois.push(*point, *category, name.clone());
        }
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
        Mutation::SetLanduse { at, category } => {
            city.landuse.set_category_at(*at, *category);
        }
        Mutation::AddRegion { .. } => unreachable!("the benchmark adds no regions"),
    }
}

/// What one block of annotation passes measured.
struct Block {
    /// Per pass, the latency of every annotate call.
    passes: Vec<Vec<f64>>,
    /// `(kind, seconds)` of every publish.
    publishes: Vec<(usize, f64)>,
    tracer: Option<Tracer>,
}

impl Block {
    fn pass_ns_per_fix(&self, fixes: f64) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| p.iter().sum::<f64>() * 1e9 / fixes)
            .collect()
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
    let fixes = corpus.fixes as f64;
    let mut out = Outcome::default();
    out.describe(&corpus, 2, 0, 0);

    let world = corpus.world;
    let (setup, live) = time_setups(scale.setups, || {
        let live = LiveSeMiTri::new(corpus.city.clone(), move || pipeline_config(world), None);
        for t in corpus.trajectories.iter().take(scale.warmup_trajectories) {
            black_box(live.annotate(t));
        }
        live
    });

    let mut mirror = corpus.city.clone();
    let mut rng = Rng::stream(ctx.seed, 0x6c69_7665);
    let mut published = 0usize;
    let mut checks = Checks::default();
    // annotates `passes` passes over the corpus; with `publish`, a second
    // thread publishes edits until the passes end
    let mut block = |passes: usize, publish: bool, epoch: Option<Instant>| -> Block {
        let done = AtomicBool::new(false);
        let (annotated, publisher) = std::thread::scope(|scope| {
            let annotator = scope.spawn(|| {
                let mut tracer = epoch.map(Tracer::new);
                let mut checks = Checks::default();
                let passes: Vec<Vec<f64>> = (0..passes)
                    .map(|_| {
                        corpus
                            .trajectories
                            .iter()
                            .enumerate()
                            .map(|(i, t)| {
                                let t0 = Instant::now();
                                let o = time_if(
                                    tracer.as_mut(),
                                    "core.live.annotate",
                                    i as u64,
                                    || live.annotate(t),
                                );
                                let secs = t0.elapsed().as_secs_f64();
                                checks.op(output_is_sane(&o, t.len()), || {
                                    format!(
                                        "trajectory {} came back malformed during publishes",
                                        t.trajectory_id
                                    )
                                });
                                secs
                            })
                            .collect()
                    })
                    .collect();
                done.store(true, Ordering::SeqCst);
                (passes, checks, tracer)
            });
            let publisher = publish.then(|| {
                scope.spawn(|| {
                    let mut tracer = epoch.map(Tracer::new);
                    let mut publishes = Vec::new();
                    let mut applied = Vec::new();
                    let mut refused = 0u64;
                    while !done.load(Ordering::SeqCst) {
                        let k = published + applied.len();
                        let m = mutation(k, &mut rng, corpus.city.bounds());
                        let t0 = Instant::now();
                        let (accepted, outcome) =
                            time_if(tracer.as_mut(), PUBLISH[k % 3], k as u64, || {
                                (live.submit(m.clone()).is_ok(), live.publish())
                            });
                        publishes.push((k % 3, t0.elapsed().as_secs_f64()));
                        if !accepted || outcome.applied != 1 {
                            refused += 1;
                        }
                        applied.push(m);
                        std::thread::sleep(Duration::from_millis(scale.publish_gap_ms));
                    }
                    (publishes, applied, refused, tracer)
                })
            });
            (
                annotator
                    .join()
                    .expect("the annotating thread must not panic"),
                publisher.map(|p| p.join().expect("the publishing thread must not panic")),
            )
        });
        let (passes, block_checks, mut tracer) = annotated;
        checks.absorb(block_checks);
        let mut publishes = Vec::new();
        if let Some((p, applied, refused, publisher_tracer)) = publisher {
            publishes = p;
            published += applied.len();
            for m in &applied {
                apply(&mut mirror, m);
            }
            for _ in 0..refused {
                checks.fail(|| {
                    "a publish was refused or applied the wrong number of edits".to_string()
                });
            }
            if let (Some(all), Some(t)) = (tracer.as_mut(), publisher_tracer) {
                all.absorb(t);
            }
        }
        Block {
            passes,
            publishes,
            tracer,
        }
    };

    if !ctx.traced {
        let contended = block(ctx.repetitions(PASS_S), true, None);
        out.end_to_end(setup, &contended.pass_ns_per_fix(fixes), &contended.passes);
    } else {
        // a third of the time each: alone, under publishes, and under
        // publishes with spans
        let third = ctx.repetitions(PASS_S * 3.0);
        let idle = block(third, false, None);
        let plain = block(third, true, None);
        let traced = block(third, true, Some(Instant::now()));
        let median = |b: &Block| Summary::of(&b.pass_ns_per_fix(fixes));
        let (idle_ns, plain_ns, traced_ns) = (median(&idle), median(&plain), median(&traced));
        out.tail(&plain.passes);
        out.set("core.live.idle_ns_per_fix", idle_ns);
        out.value("core.live.contended_ratio", idle_ns.value / plain_ns.value);
        out.value(
            "bench.trace_overhead_share",
            traced_ns.value / plain_ns.value - 1.0,
        );
        let publishes: Vec<(usize, f64)> = plain
            .publishes
            .iter()
            .chain(&traced.publishes)
            .copied()
            .collect();
        let ms_of = |kind: Option<usize>| -> Vec<f64> {
            publishes
                .iter()
                .filter(|(k, _)| kind.is_none_or(|want| *k == want))
                .map(|(_, s)| s * 1e3)
                .collect()
        };
        for (kind, name) in [
            "core.live.publish_add_poi_ms",
            "core.live.publish_add_road_ms",
            "core.live.publish_set_landuse_ms",
        ]
        .into_iter()
        .enumerate()
        {
            let ms = ms_of(Some(kind));
            if !ms.is_empty() {
                out.set(name, Summary::of(&ms));
            }
        }
        if !publishes.is_empty() {
            out.set("publish_p50_ms", Summary::of(&ms_of(None)));
        }
        out.spans = traced.tracer;
    }

    // after the last publish the live pipeline must annotate exactly like a
    // pipeline built from scratch on the city with every edit applied
    let fresh = SeMiTri::new(&mirror, pipeline_config(world));
    for t in &corpus.trajectories {
        checks.op(
            output_digest(&live.annotate(t)) == output_digest(&fresh.annotate(t)),
            || {
                format!(
                    "after {published} publishes trajectory {} differs from a fresh build",
                    t.trajectory_id
                )
            },
        );
    }
    out.facts.push(("publishes", published.to_string()));
    out.checks.absorb(checks);
    out
}
