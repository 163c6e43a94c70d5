//! `http_sessions`: the server used the other way round. Phone days are
//! cut into small `POST /session/{user}/push` requests, interleaved over
//! the users of each connection and flushed at the end of the day; an
//! operation is one push round trip.

use super::http::{fix_lines, parallelism, run_passes, Expect, Harness, Req};
use super::*;
use crate::corpus::{policy, Movement, World};
use crate::stats::percentile;
use semitri::core::{StreamEvent, StreamingAnnotator};

/// Seconds one pass over every user's day took on the 2-core sandbox, and
/// one traced cycle (a plain pass, a traced pass and the in-process replay).
const PASS_S: f64 = 0.115;
const CYCLE_S: f64 = 0.27;

const PUSH: &str = "server.sessions.push";
const FLUSH: &str = "server.sessions.flush";

/// Operation id of user `u`'s `k`-th push; the flush takes the last `k`.
fn op_id(u: usize, k: usize) -> u64 {
    ((u as u64) << 32) | k as u64
}
const FLUSH_K: usize = u32::MAX as usize;

pub fn run(ctx: &Ctx) -> Outcome {
    let scale = &ctx.scale;
    let corpus = Corpus::generate(
        World::Mixed,
        Movement::Phones,
        scale,
        ctx.seed,
        scale.session_users,
    );
    let connections = parallelism();
    let mut out = Outcome::default();
    out.describe(&corpus, connections, connections, connections);
    let fixes = corpus.fixes as f64;

    // per user, in process: the events every push and the flush must return
    let reference = SeMiTri::new(&corpus.city, corpus.config());
    let session = || StreamingAnnotator::over(&reference, policy(corpus.world));
    let mut pushes: Vec<Vec<Req>> = Vec::new();
    let mut flushes: Vec<Req> = Vec::new();
    for (u, t) in corpus.trajectories.iter().enumerate() {
        let mut annotator = session();
        let user_pushes = t
            .records()
            .chunks(scale.push_fixes)
            .enumerate()
            .map(|(k, chunk)| {
                let events: Vec<StreamEvent> =
                    chunk.iter().flat_map(|r| annotator.push(*r)).collect();
                let mut body = String::new();
                fix_lines(chunk, &mut body);
                Req {
                    path: format!("/session/u{u}/push"),
                    body: body.into_bytes(),
                    expect: Expect::Body(Fnv::of(wire::encode_events(&events).as_bytes())),
                    span: PUSH,
                    op_id: op_id(u, k),
                }
            })
            .collect();
        pushes.push(user_pushes);
        flushes.push(Req {
            path: format!("/session/u{u}/flush"),
            body: Vec::new(),
            expect: Expect::Flush {
                events: wire::encode_events(&annotator.flush()),
            },
            span: FLUSH,
            op_id: op_id(u, FLUSH_K),
        });
    }
    // a user's requests stay on one connection, so their order holds; the
    // connection round-robins over its users, push by push
    let mut scripts: Vec<Vec<Req>> = (0..connections).map(|_| Vec::new()).collect();
    let mut per_user: Vec<_> = pushes.into_iter().map(Vec::into_iter).collect();
    loop {
        let mut any = false;
        for (u, user) in per_user.iter_mut().enumerate() {
            if let Some(req) = user.next() {
                scripts[u % connections].push(req);
                any = true;
            }
        }
        if !any {
            break;
        }
    }
    for (u, req) in flushes.into_iter().enumerate() {
        scripts[u % connections].push(req);
    }

    // warm-up pushes open sessions that the first timed pass would then
    // find half fed; warm on a throw-away user instead, with sixteen pushes
    // for every trajectory another workload warms up on
    let warm_pushes = scale.warmup_trajectories * 16;
    let warm: Vec<Vec<Req>> = (0..connections)
        .map(|c| {
            let chunk = &corpus.trajectories[0].records()
                [..scale.push_fixes.min(corpus.trajectories[0].len())];
            let mut body = String::new();
            fix_lines(chunk, &mut body);
            (0..warm_pushes)
                .map(|k| Req {
                    path: format!("/session/warm{c}/push"),
                    body: body.clone().into_bytes(),
                    expect: Expect::Body(0),
                    span: PUSH,
                    op_id: k as u64,
                })
                .collect()
        })
        .collect();
    let (setup, mut harness) =
        time_setups(scale.setups, || Harness::start(&corpus, &warm, warm_pushes));
    let clients = &mut harness.clients;
    let push_latencies = |timings: &[Vec<super::http::Timing>]| -> Vec<f64> {
        timings
            .iter()
            .flatten()
            .filter(|t| t.span == PUSH)
            .map(|t| t.total_s)
            .collect()
    };

    if !ctx.traced {
        let mut rep_ns = Vec::new();
        let mut lats = Vec::new();
        let plan = vec![None; ctx.repetitions(PASS_S)];
        run_passes(clients, &scripts, &plan, |_, pass| {
            rep_ns.push(pass.wall_s * 1e9 / fixes);
            lats.push(push_latencies(&pass.timings));
            out.checks.absorb(pass.checks);
        });
        out.end_to_end(setup, &rep_ns, &lats);
        return out;
    }

    // traced: cycles of a plain pass (the overhead baseline), a traced pass
    // and, while the connections wait, the same pushes replayed on
    // in-process sessions
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
            plain_lats.push(push_latencies(&traced.timings));
            return;
        };
        for (u, t) in corpus.trajectories.iter().enumerate() {
            let mut annotator = session();
            for (k, chunk) in t.records().chunks(scale.push_fixes).enumerate() {
                tracer.time("core.streaming.push", op_id(u, k), None, || {
                    for r in chunk {
                        std::hint::black_box(annotator.push(*r));
                    }
                });
            }
            tracer.time("core.streaming.flush", op_id(u, FLUSH_K), None, || {
                std::hint::black_box(annotator.flush())
            });
        }
        let totals = tracer.totals();
        let push = totals[PUSH];
        let replay = totals["core.streaming.push"];
        samples.push("core.streaming.push_ns_per_fix", replay.secs * 1e9 / fixes);
        samples.push(
            "server.sessions.push_overhead_us",
            (push.secs - replay.secs) * 1e6 / push.calls as f64,
        );
        samples.push(
            "server.http.client_write_us",
            totals["server.http.client_write"].secs * 1e6
                / (push.calls + totals[FLUSH].calls) as f64,
        );
        samples.push(
            "server.http.first_byte_wait_us",
            totals["server.http.first_byte_wait"].secs * 1e6
                / (push.calls + totals[FLUSH].calls) as f64,
        );
        samples.push(
            "server.http.residual_ns_per_fix",
            (push.secs + totals[FLUSH].secs - replay.secs - totals["core.streaming.flush"].secs)
                * 1e9
                / fixes,
        );
        let mut flush_ms: Vec<f64> = traced
            .timings
            .iter()
            .flatten()
            .filter(|t| t.span == FLUSH)
            .map(|t| t.total_s * 1e3)
            .collect();
        flush_ms.sort_by(f64::total_cmp);
        samples.push("server.sessions.flush_p50_ms", percentile(&flush_ms, 0.5));
        let served = traced.timings.iter().flatten();
        samples.push(
            "server.sessions.rejected",
            served.clone().filter(|t| t.status == 429).count() as f64,
        );
        let (request_bytes, response_bytes) = scripts
            .iter()
            .flatten()
            .zip(served)
            .fold((0usize, 0usize), |(q, r), (req, t)| {
                (q + req.body.len(), r + t.response_bytes)
            });
        samples.push(
            "server.wire.request_bytes_per_fix",
            request_bytes as f64 / fixes,
        );
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
    out
}
