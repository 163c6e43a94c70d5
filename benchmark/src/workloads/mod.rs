//! The six workloads and what they share: the run context, the check
//! counter, the repetition count and the stage-by-stage replay.

pub mod batch;
pub mod http;
pub mod http_annotate;
pub mod http_sessions;
pub mod live_publish;
pub mod store_warehouse;

use crate::corpus::{Corpus, Fnv, Scale};
use crate::machine;
use crate::stats::{latency_summaries, Summary};
use crate::trace::{SpanId, Tracer};
use semitri::prelude::*;
use semitri::server::wire;
use std::collections::BTreeMap;
use std::time::Instant;

/// What `main` hands a workload.
pub struct Ctx {
    pub scale: Scale,
    pub seed: u64,
    /// Nominal length of the timed section (see [`Ctx::repetitions`]).
    pub seconds: f64,
    pub traced: bool,
}

impl Ctx {
    /// How often a run repeats a piece of work that took `nominal_s`
    /// seconds on the 2-core sandbox the benchmark was built on: as often
    /// as fills `--seconds` there, at least once. Fixed by the arguments
    /// and never by the clock, so the operations of a run — its
    /// `attempted` — repeat exactly from run to run; a slower host runs
    /// longer, not less.
    pub fn repetitions(&self, nominal_s: f64) -> usize {
        ((self.seconds / nominal_s).round() as usize).max(1)
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, Summary>,
    pub facts: Vec<(&'static str, String)>,
    /// Spans of the first traced repetition, for `trace-<workload>.jsonl`.
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        self.metrics.insert(name, summary);
    }

    pub fn value(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::single(value));
    }

    /// The context metrics every traced run reports, and the facts every
    /// run records.
    pub fn describe(
        &mut self,
        corpus: &Corpus,
        threads: usize,
        connections: usize,
        workers: usize,
    ) {
        self.value("data.gen_s", corpus.gen_s);
        self.value("data.fixes", corpus.fixes as f64);
        self.value("data.trajectories", corpus.trajectories.len() as f64);
        self.facts.extend([
            ("corpus_digest", format!("{:016x}", corpus.digest)),
            ("load_threads", threads.to_string()),
            ("connections", connections.to_string()),
            ("server_workers", workers.to_string()),
        ]);
    }

    /// The end-to-end metrics every workload reports the same way.
    pub fn end_to_end(&mut self, setup: Summary, rep_ns_per_fix: &[f64], latencies_s: &[Vec<f64>]) {
        self.set("setup_s", setup);
        self.set("ns_per_fix", Summary::of(rep_ns_per_fix));
        self.set("op_p50_ms", latency_summaries(&in_ms(latencies_s)).0);
        self.value("peak_rss_mb", machine::status_mb("VmHWM:"));
    }

    /// The tail latency of a traced run's untraced passes.
    pub fn tail(&mut self, latencies_s: &[Vec<f64>]) {
        let (_, tail, q) = latency_summaries(&in_ms(latencies_s));
        self.set("op_p99_ms", tail);
        self.facts.push(("tail_quantile", q.to_string()));
    }
}

fn in_ms(latencies_s: &[Vec<f64>]) -> Vec<Vec<f64>> {
    latencies_s
        .iter()
        .map(|rep| rep.iter().map(|s| s * 1e3).collect())
        .collect()
}

/// Per-layer values gathered over the traced cycles of a run; each metric
/// is reported as the median of its samples.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn report(self, outcome: &mut Outcome) {
        for (name, values) in self.0 {
            outcome.set(name, Summary::of(&values));
        }
    }
}

/// Counts operations attempted and failed. An operation fails when the
/// program refuses it or when its output is not the expected one.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// A failed check that is not an operation of its own.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Times `setup` `n` times; returns the durations' summary and the last
/// system built. Each earlier system is dropped before the next is built,
/// so peak memory holds one.
pub fn time_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (Summary, T) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let built = setup();
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (Summary::of(&secs), last.expect("n.max(1) set-ups ran"))
}

/// Digest of one pipeline output as the server would render it: covers
/// the SST tuples, the cleaning report and the episode count.
pub fn output_digest(out: &PipelineOutput) -> u64 {
    Fnv::of(wire::encode_output(out).as_bytes())
}

/// Seconds the pipeline's own stage clock reports for one output.
pub fn stage_clock_secs(out: &PipelineOutput) -> f64 {
    let l = &out.latency;
    l.compute_episode_secs + l.landuse_join_secs + l.map_match_secs + l.point_secs
}

/// Structural sanity of an output whose exact content is not pinned (the
/// live workload annotates on a moving world): every input fix accounted
/// for, episodes tiling the cleaned records, one tuple or more.
pub fn output_is_sane(out: &PipelineOutput, input_fixes: usize) -> bool {
    let tiled = out.episodes.iter().try_fold(0usize, |at, e| {
        (e.start == at && e.end > at).then_some(e.end)
    });
    out.cleaning.input == input_fixes as u64
        && out.cleaning.kept == out.cleaned.len() as u64
        && tiled == Some(out.cleaned.len())
        && !out.sst.tuples.is_empty()
}

/// Counts gathered while replaying the pipeline stage by stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageCounts {
    pub input_fixes: u64,
    pub cleaned_fixes: u64,
    pub repaired: u64,
    pub stop_fixes: u64,
    pub move_fixes: u64,
    pub matched: u64,
    pub stops: u64,
    pub region_tuples: u64,
    pub trajectories: u64,
}

/// Replays one feed through the public stage functions of `semitri` right
/// after the `annotate` call that `pipeline` spans: what the call does
/// inside, minus the route grouping, mode inference and SST assembly that
/// have no public entry point. Each stage is recorded as a child of
/// `pipeline`, laid end to end from the call's start in the order the call
/// runs them, so what is left of the call — its self time — falls out of the
/// same subtraction as any other span's.
pub fn replay_stages(
    semitri: &SeMiTri,
    (object_id, trajectory_id): (u64, u64),
    records: &[GpsRecord],
    tracer: &mut Tracer,
    pipeline: SpanId,
    op_id: u64,
    counts: &mut StageCounts,
) {
    let config = semitri.config();
    let mut at = tracer.start_s(pipeline);
    macro_rules! stage {
        ($name:expr, $call:expr) => {
            child_after(tracer, &mut at, $name, op_id, pipeline, || $call)
        };
    }
    let cleaned = stage!(
        "core.preprocess",
        Preprocessor::new(config.clean).run(records)
    );
    let Ok((cleaned, report)) = cleaned else {
        return;
    };
    counts.trajectories += 1;
    counts.input_fixes += report.input;
    counts.repaired += report.input - report.kept + report.reordered;
    let (cleaned, episodes) = stage!("episodes.segment", {
        let cleaned = RawTrajectory::new(object_id, trajectory_id, cleaned);
        let episodes = config.policy.segment(&cleaned);
        (cleaned, episodes)
    });
    counts.cleaned_fixes += cleaned.len() as u64;
    let tuples = stage!(
        "core.region",
        semitri.region_annotator().annotate_trajectory(&cleaned)
    );
    counts.region_tuples += tuples.len() as u64;
    let mut scratch = MatchScratch::new();
    let mut centers = Vec::new();
    for e in &episodes {
        let slice = &cleaned.records()[e.start..e.end];
        match e.kind {
            EpisodeKind::Move => {
                let matches = stage!(
                    "core.line",
                    semitri.matcher().match_records_with(&mut scratch, slice)
                );
                counts.move_fixes += slice.len() as u64;
                counts.matched += matches.iter().filter(|m| m.is_some()).count() as u64;
            }
            EpisodeKind::Stop => {
                counts.stop_fixes += slice.len() as u64;
                centers.push(e.center);
            }
        }
    }
    if let Some(point) = semitri.point_annotator() {
        let stops = stage!("core.point", point.annotate_stops(&centers));
        counts.stops += stops.len() as u64;
    }
}

/// Times `f` and records it as a child of `parent` starting at `*at`
/// seconds, which it moves to the child's end.
fn child_after<R>(
    tracer: &mut Tracer,
    at: &mut f64,
    name: &'static str,
    op_id: u64,
    parent: SpanId,
    f: impl FnOnce() -> R,
) -> R {
    let t0 = Instant::now();
    let result = f();
    let secs = t0.elapsed().as_secs_f64();
    tracer.record(name, op_id, Some(parent), *at, *at + secs);
    *at += secs;
    result
}

/// The per-layer metrics every annotating workload derives from a traced
/// repetition's span totals and stage counts.
pub fn stage_metrics(outcome: &mut Samples, tracer: &Tracer, c: &StageCounts) {
    let totals = tracer.totals();
    let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.secs * 1e9);
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    outcome.push(
        "core.preprocess.ns_per_fix",
        per(ns("core.preprocess"), c.input_fixes),
    );
    outcome.push(
        "core.preprocess.repaired_share",
        per(c.repaired as f64, c.input_fixes),
    );
    outcome.push(
        "episodes.segment.ns_per_fix",
        per(ns("episodes.segment"), c.input_fixes),
    );
    outcome.push(
        "episodes.stop_fix_share",
        per(c.stop_fixes as f64, c.cleaned_fixes),
    );
    outcome.push(
        "core.region.ns_per_fix",
        per(ns("core.region"), c.input_fixes),
    );
    outcome.push(
        "core.region.tuples_per_kfix",
        per(c.region_tuples as f64 * 1e3, c.cleaned_fixes),
    );
    outcome.push(
        "core.line.ns_per_move_fix",
        per(ns("core.line"), c.move_fixes),
    );
    outcome.push(
        "core.line.move_fix_share",
        per(c.move_fixes as f64, c.cleaned_fixes),
    );
    outcome.push(
        "core.line.matched_share",
        per(c.matched as f64, c.move_fixes),
    );
    outcome.push("core.point.ns_per_stop", per(ns("core.point"), c.stops));
    outcome.push(
        "core.point.stops_per_traj",
        per(c.stops as f64, c.trajectories),
    );
    outcome.push(
        "core.pipeline.ns_per_fix",
        per(ns("core.pipeline"), c.input_fixes),
    );
    let self_ns = totals
        .get("core.pipeline")
        .map_or(0.0, |t| t.self_secs * 1e9);
    outcome.push("core.pipeline.self_ns_per_fix", per(self_ns, c.input_fixes));
}
