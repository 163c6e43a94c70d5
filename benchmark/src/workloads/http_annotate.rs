//! `http_annotate`: the socket rung. Large fault-injected feeds go to
//! `POST /annotate` over keep-alive connections; an operation is one
//! request round trip.

use super::http::{fix_lines, parallelism, run_passes, Expect, Harness, Req};
use super::*;
use crate::corpus::{Movement, World};
use std::hint::black_box;

/// Seconds one pass over the corpus took on the 2-core sandbox, and one
/// traced cycle (a plain pass, a traced pass and the in-process replay).
const PASS_S: f64 = 0.09;
const CYCLE_S: f64 = 0.4;

/// Light faults on every feed, so the server's repair path runs: duplicate
/// fixes, swapped neighbours and the odd non-finite coordinate.
const FAULTS: &str = "dup=0.02,swap=0.02,nan=0.005";

pub fn run(ctx: &Ctx) -> Outcome {
    let scale = &ctx.scale;
    let corpus = Corpus::generate(
        World::Mixed,
        Movement::Alternating,
        scale,
        ctx.seed,
        scale.mixed_trajectories,
    );
    let connections = parallelism();
    let mut out = Outcome::default();
    out.describe(&corpus, connections, connections, connections);

    // the in-process twin of the server's pipeline: gives every request
    // its expected body, and the traced run its replay
    let reference = SeMiTri::new(&corpus.city, corpus.config());
    let injector = FaultInjector::from_spec(ctx.seed, FAULTS).expect("the fault spec is valid");
    let mut scripts: Vec<Vec<Req>> = (0..connections).map(|_| Vec::new()).collect();
    let mut sent_fixes = 0usize;
    let mut request_bytes = 0usize;
    for (i, t) in corpus.trajectories.iter().enumerate() {
        let faulted = injector.apply_stream(t.trajectory_id, t.records());
        sent_fixes += faulted.len();
        let mut body = format!(
            "{{\"object_id\":{},\"trajectory_id\":{}}}\n",
            t.object_id, t.trajectory_id
        );
        fix_lines(&faulted, &mut body);
        request_bytes += body.len();
        let expected = wire::parse_feed(&body)
            .ok()
            .and_then(|feed| reference.try_annotate_feed(&feed).ok())
            .map(|o| Fnv::of(wire::encode_output(&o).as_bytes()));
        let Some(expected) = expected else {
            out.checks
                .fail(|| format!("feed {i} does not annotate in process"));
            continue;
        };
        scripts[i % connections].push(Req {
            path: "/annotate".to_string(),
            body: body.into_bytes(),
            expect: Expect::Body(expected),
            span: "server.http.request",
            op_id: i as u64,
        });
    }
    let fixes = sent_fixes as f64;

    let warmup = scale.warmup_trajectories.div_ceil(connections);
    let (setup, mut harness) =
        time_setups(scale.setups, || Harness::start(&corpus, &scripts, warmup));
    let clients = &mut harness.clients;

    if !ctx.traced {
        let mut rep_ns = Vec::new();
        let mut lats = Vec::new();
        let plan = vec![None; ctx.repetitions(PASS_S)];
        run_passes(clients, &scripts, &plan, |_, pass| {
            rep_ns.push(pass.wall_s * 1e9 / fixes);
            lats.push(pass.timings.iter().flatten().map(|t| t.total_s).collect());
            out.checks.absorb(pass.checks);
        });
        out.end_to_end(setup, &rep_ns, &lats);
        return out;
    }

    // traced: cycles of a plain pass (the overhead baseline), a traced pass
    // and, while the connections wait, the same bodies replayed in process:
    // what the round trips would cost without sockets and threads
    let epoch = Instant::now();
    let mut samples = Samples::default();
    let mut plain_wall_s = f64::NAN;
    let mut plain_lats = Vec::new();
    let plan: Vec<Option<Instant>> = (0..ctx.repetitions(CYCLE_S))
        .flat_map(|_| [None, Some(epoch)])
        .collect();
    run_passes(clients, &scripts, &plan, |i, traced| {
        out.checks.absorb(traced.checks);
        let Some(mut tracer) = traced.tracer else {
            plain_wall_s = traced.wall_s;
            plain_lats.push(traced.timings.iter().flatten().map(|t| t.total_s).collect());
            return;
        };
        let mut counts = StageCounts::default();
        let (mut reported, mut reported_line) = (0.0, 0.0);
        for req in scripts.iter().flatten() {
            let op = tracer.open("replay", req.op_id, None);
            let body = std::str::from_utf8(&req.body).expect("bodies are built from strings");
            let feed = tracer
                .time("server.wire.parse", req.op_id, Some(op), || {
                    wire::parse_feed(body)
                })
                .expect("the body parsed when the script was built");
            let pipeline = tracer.open("core.pipeline", req.op_id, Some(op));
            let o = reference
                .try_annotate_feed(&feed)
                .expect("the feed annotated when the script was built");
            tracer.close(pipeline);
            reported += stage_clock_secs(&o);
            reported_line += o.latency.map_match_secs;
            black_box(tracer.time("server.wire.encode", req.op_id, Some(op), || {
                wire::encode_output(&o)
            }));
            tracer.close(op);
            replay_stages(
                &reference,
                (feed.object_id, feed.trajectory_id),
                &feed.records,
                &mut tracer,
                pipeline,
                req.op_id,
                &mut counts,
            );
        }
        stage_metrics(&mut samples, &tracer, &counts);
        let totals = tracer.totals();
        let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.secs);
        let requests = totals["server.http.request"].calls as f64;
        let in_process =
            secs("server.wire.parse") + secs("core.pipeline") + secs("server.wire.encode");
        samples.push(
            "core.pipeline.stage_sum_share",
            reported / secs("core.pipeline"),
        );
        samples.push(
            "core.line.pipeline_share",
            reported_line / secs("core.pipeline"),
        );
        samples.push(
            "server.wire.parse_ns_per_fix",
            secs("server.wire.parse") * 1e9 / fixes,
        );
        samples.push(
            "server.wire.encode_ns_per_fix",
            secs("server.wire.encode") * 1e9 / fixes,
        );
        samples.push(
            "server.http.residual_ns_per_fix",
            (secs("server.http.request") - in_process) * 1e9 / fixes,
        );
        samples.push(
            "server.http.client_write_us",
            secs("server.http.client_write") * 1e6 / requests,
        );
        samples.push(
            "server.http.first_byte_wait_us",
            secs("server.http.first_byte_wait") * 1e6 / requests,
        );
        let response_bytes: usize = traced
            .timings
            .iter()
            .flatten()
            .map(|t| t.response_bytes)
            .sum();
        samples.push(
            "server.wire.response_bytes_per_fix",
            response_bytes as f64 / fixes,
        );
        samples.push(
            "bench.trace_overhead_share",
            traced.wall_s / plain_wall_s - 1.0,
        );
        if i == 1 {
            out.spans = Some(tracer);
        }
    });
    samples.report(&mut out);
    out.tail(&plain_lats);
    out.value(
        "server.wire.request_bytes_per_fix",
        request_bytes as f64 / fixes,
    );
    out
}
