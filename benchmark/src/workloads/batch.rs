//! `vehicles_batch` and `people_batch`: one corpus through
//! `SeMiTri::annotate` on one thread; an operation is one trajectory.

use super::*;
use crate::corpus::{Movement, World};
use std::hint::black_box;
use std::sync::Arc;

pub fn run(ctx: &Ctx, world: World) -> Outcome {
    // seconds one pass over the corpus took on the 2-core sandbox
    let (movement, pass_s) = match world {
        World::Vehicles => (Movement::Vehicles, 0.42),
        _ => (Movement::Phones, 0.22),
    };
    let scale = &ctx.scale;
    let corpus = Corpus::generate(world, movement, scale, ctx.seed, scale.batch_trajectories);
    let fixes = corpus.fixes as f64;
    let mut out = Outcome::default();
    out.describe(&corpus, 1, 0, 0);

    let rss_before = machine::status_mb("VmRSS:");
    let mut build_ms = Vec::new();
    let (setup, semitri) = time_setups(scale.setups, || {
        let t0 = Instant::now();
        let semitri = SeMiTri::new(&corpus.city, corpus.config());
        build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        for t in corpus.trajectories.iter().take(scale.warmup_trajectories) {
            black_box(semitri.annotate(t));
        }
        semitri
    });
    let build_rss_mb = machine::status_mb("VmRSS:") - rss_before;

    // the reference: one sequential pass whose outputs every later pass,
    // timed or pooled, must reproduce
    let expected: Vec<u64> = corpus
        .trajectories
        .iter()
        .map(|t| {
            let o = semitri.annotate(t);
            if !output_is_sane(&o, t.len()) {
                out.checks.fail(|| {
                    format!(
                        "reference output of trajectory {} is malformed",
                        t.trajectory_id
                    )
                });
            }
            output_digest(&o)
        })
        .collect();

    // one timed pass: per-trajectory latencies, outputs checked between ops
    let timed_pass = |semitri: &SeMiTri, checks: &mut Checks| -> Vec<f64> {
        corpus
            .trajectories
            .iter()
            .zip(&expected)
            .map(|(t, want)| {
                let t0 = Instant::now();
                let o = semitri.annotate(t);
                let secs = t0.elapsed().as_secs_f64();
                checks.op(output_digest(&o) == *want, || {
                    format!(
                        "trajectory {} annotated differently from the reference",
                        t.trajectory_id
                    )
                });
                secs
            })
            .collect()
    };

    if !ctx.traced {
        let mut rep_ns = Vec::new();
        let mut lats = Vec::new();
        for _ in 0..ctx.repetitions(pass_s) {
            let lat = timed_pass(&semitri, &mut out.checks);
            rep_ns.push(lat.iter().sum::<f64>() * 1e9 / fixes);
            lats.push(lat);
        }
        out.end_to_end(setup, &rep_ns, &lats);
        return out;
    }

    // traced: cycles of an untraced pass (the overhead baseline), a traced
    // pass with its stage replays, a pass under a metrics observer and a
    // pass on the batch pool — about five and a half passes' time
    let observed = SeMiTri::new(&corpus.city, corpus.config()).with_observer(Arc::new(
        MetricsObserver::new(Arc::new(MetricsRegistry::new())),
    ));
    let threads = machine::nproc();
    let epoch = Instant::now();
    let mut samples = Samples::default();
    let mut plain_lats = Vec::new();
    for cycle in 0..ctx.repetitions(pass_s * 5.5) {
        let lat = timed_pass(&semitri, &mut out.checks);
        let plain: f64 = lat.iter().sum();
        plain_lats.push(lat);

        let mut tracer = Tracer::new(epoch);
        let mut counts = StageCounts::default();
        let (mut reported, mut reported_line) = (0.0, 0.0);
        for (i, t) in corpus.trajectories.iter().enumerate() {
            let op = tracer.open("core.pipeline", i as u64, None);
            let o = semitri.annotate(t);
            tracer.close(op);
            reported += stage_clock_secs(&o);
            reported_line += o.latency.map_match_secs;
            out.checks.op(output_digest(&o) == expected[i], || {
                format!(
                    "trajectory {} annotated differently under tracing",
                    t.trajectory_id
                )
            });
            replay_stages(
                &semitri,
                (t.object_id, t.trajectory_id),
                t.records(),
                &mut tracer,
                op,
                i as u64,
                &mut counts,
            );
        }
        stage_metrics(&mut samples, &tracer, &counts);
        let traced = tracer.totals()["core.pipeline"].secs;
        samples.push("core.pipeline.stage_sum_share", reported / traced);
        samples.push("core.line.pipeline_share", reported_line / traced);
        samples.push("bench.trace_overhead_share", traced / plain - 1.0);
        if cycle == 0 {
            out.spans = Some(tracer);
        }

        let with_observer: f64 = timed_pass(&observed, &mut out.checks).iter().sum();
        samples.push("obs.observer_overhead_share", with_observer / plain - 1.0);

        let t0 = Instant::now();
        let pooled = semitri.annotate_batch(&corpus.trajectories, threads);
        samples.push(
            "core.batch.pool_ns_per_fix",
            t0.elapsed().as_secs_f64() * 1e9 / fixes,
        );
        for (i, r) in pooled.results.iter().enumerate() {
            let same = r.as_ref().is_ok_and(|o| output_digest(o) == expected[i]);
            out.checks.op(same, || {
                format!("pooled output {i} differs from the sequential reference")
            });
        }
    }
    samples.report(&mut out);
    out.tail(&plain_lats);
    out.set("core.pipeline.build_ms", Summary::of(&build_ms));
    out.value("core.pipeline.build_rss_mb", build_rss_mb.max(0.0));
    out.facts.push(("pool_threads", threads.to_string()));
    out
}
