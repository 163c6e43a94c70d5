//! The repository's one benchmark: six workloads from a pipeline call to
//! the socket, the store and live publishing, each layer timed from
//! outside. See `README.md` beside the manifest; run through `run.sh`.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! run.sh [--seed N] [--seconds S]                           all six, both ways, one result file
//! run.sh --compare A.json B.json                            do two result files agree?
//! run.sh --smoke                                            tiny sizes, every check on, nothing recorded
//! ```

mod compare;
mod corpus;
mod json;
mod machine;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use corpus::{Scale, World};
use report::{machine_json, out_dir, RunResult, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Summary;
use std::process::ExitCode;
use workloads::{Ctx, Outcome};

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|_| "--seed is not a whole number")?,
                );
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds is not a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--compare" => parsed.compare = Some((value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?} (one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(parsed)
}

/// Runs one workload and shapes what it measured into a result.
fn run_workload(name: &'static str, ctx: &Ctx, smoke: bool) -> RunResult {
    let Outcome {
        checks,
        mut metrics,
        facts,
        spans,
    } = match name {
        "vehicles_batch" => workloads::batch::run(ctx, World::Vehicles),
        "people_batch" => workloads::batch::run(ctx, World::People),
        "http_annotate" => workloads::http_annotate::run(ctx),
        "http_sessions" => workloads::http_sessions::run(ctx),
        "live_publish" => workloads::live_publish::run(ctx),
        "store_warehouse" => workloads::store_warehouse::run(ctx),
        other => unreachable!("{other} passed parse_args"),
    };
    if ctx.traced {
        metrics.insert("fail_share", Summary::single(checks.fail_share()));
        metrics.insert(
            "bench.calibration_ns",
            Summary::single(machine::calibration_ns()),
        );
        // a layer that is not on this workload's path did no work here
        for m in PER_LAYER {
            metrics.entry(m.name).or_insert(Summary::single(0.0));
        }
    } else {
        for m in END_TO_END {
            assert!(
                metrics.contains_key(m.name),
                "{name} did not report {}",
                m.name
            );
        }
    }
    if let (Some(tracer), false) = (spans, smoke) {
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("benchmark: could not write {}: {e}", path.display());
        }
    }
    RunResult {
        workload: name,
        seed: ctx.seed,
        traced: ctx.traced,
        smoke,
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        failures: checks.failures,
        metrics,
        facts,
    }
}

fn report_failures(result: &RunResult) {
    for f in &result.failures {
        eprintln!("benchmark: {} check failed: {f}", result.workload);
    }
}

/// One run, as the driver calls it: the result as the last line of stdout.
fn single(name: &'static str, ctx: &Ctx) -> ExitCode {
    let result = run_workload(name, ctx, false);
    report_failures(&result);
    let path = out_dir().join(format!(
        "{name}-{}-t{}.json",
        ctx.seed,
        u8::from(ctx.traced)
    ));
    let file = format!(
        "{{\"machine\":{},\"seconds\":{},\"runs\":[{}]}}\n",
        machine_json(),
        ctx.seconds,
        result.to_json()
    );
    if let Err(e) = std::fs::write(&path, file) {
        eprintln!("benchmark: could not write {}: {e}", path.display());
    }
    print!("{}", result.table());
    println!("{}", result.driver_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, untraced then traced, each in a fresh child process (so
/// `peak_rss_mb` is the workload's own); one result file for the lot.
fn full(seed: u64, seconds: f64) -> ExitCode {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut runs = Vec::new();
    let mut all_correct = true;
    for &w in WORKLOADS {
        for traced in [false, true] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .status()
                .expect("the benchmark can start itself");
            all_correct &= status.success();
            let path = out_dir().join(format!("{w}-{seed}-t{}.json", u8::from(traced)));
            let run = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| json::parse(&text).ok())
                .and_then(|file| match file.get("runs") {
                    Some(json::Value::Array(r)) => r.first().cloned(),
                    _ => None,
                });
            match run {
                Some(run) => runs.push((w, traced, run)),
                None => {
                    eprintln!("benchmark: {w} left no result behind");
                    all_correct = false;
                }
            }
        }
    }
    let bodies: Vec<String> = runs.iter().map(|(_, _, run)| run.render()).collect();
    let commit = machine::from_env("BENCH_COMMIT");
    let path = out_dir().join(format!("{commit}-{seed}.json"));
    let file = format!(
        "{{\"machine\":{},\"seed\":{seed},\"seconds\":{seconds},\"runs\":[{}]}}\n",
        machine_json(),
        bodies.join(",")
    );
    match std::fs::write(&path, file) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: could not write {}: {e}", path.display());
            all_correct = false;
        }
    }

    // does each workload stress what it was built to stress?
    let metric = |workload: &str, traced: bool, name: &str| -> f64 {
        runs.iter()
            .find(|(w, t, _)| *w == workload && *t == traced)
            .and_then(|(_, _, run)| run.get("metrics")?.get(name)?.get("value")?.as_f64())
            .unwrap_or(f64::NAN)
    };
    let target = |what: &str, value: f64, met: bool| {
        println!(
            "target {what}: {value:.3} {}",
            if met { "met" } else { "MISSED" }
        );
    };
    let line = metric("vehicles_batch", true, "core.line.pipeline_share");
    target(
        "vehicles_batch core.line share of pipeline >= 0.60",
        line,
        line >= 0.60,
    );
    let line = metric("people_batch", true, "core.line.pipeline_share");
    target(
        "people_batch core.line share of pipeline <= 0.25",
        line,
        line <= 0.25,
    );
    let overhead = metric("http_sessions", true, "server.sessions.push_overhead_us")
        / 1e3
        / metric("http_sessions", false, "op_p50_ms");
    target(
        "http_sessions push overhead share of op_p50_ms >= 0.50",
        overhead,
        overhead >= 0.50,
    );
    for w in ["vehicles_batch", "people_batch", "http_annotate"] {
        let share = metric(w, true, "core.pipeline.stage_sum_share");
        target(
            &format!("{w} stage_sum_share in [0.85, 1.0]"),
            share,
            (0.85..=1.0).contains(&share),
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload at toy sizes with every check on, in this process.
/// Nothing is written and the numbers mean nothing.
fn smoke(seed: u64) -> ExitCode {
    let mut ok = true;
    for &w in WORKLOADS {
        for traced in [false, true] {
            let ctx = Ctx {
                scale: Scale::SMOKE,
                seed,
                seconds: 0.05,
                traced,
            };
            let result = run_workload(w, &ctx, true);
            report_failures(&result);
            println!(
                "smoke {w} trace={} attempted={} failed={}",
                u8::from(traced),
                result.attempted,
                result.failed
            );
            // the driver line must carry every metric of its kind
            let line = json::parse(&result.driver_line()).expect("the driver line is JSON");
            let reported = line
                .get("metrics")
                .and_then(json::Value::as_object)
                .map_or(0, |m| m.len());
            ok &= result.correct() && reported == result.expected().len();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(a)
            .and_then(|a| Ok((a, read(b)?)))
            .and_then(|(a, b)| compare::compare(&a, &b))
        {
            Ok(rows) => {
                let (text, ok) = compare::render(&rows);
                print!("{text}");
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let seed = args.seed.unwrap_or(42);
    if args.smoke {
        return smoke(seed);
    }
    let seconds = args.seconds.unwrap_or(f64::from(report::RUN_SECONDS));
    match args.workload {
        Some(name) => {
            let name = WORKLOADS
                .iter()
                .find(|w| **w == name)
                .expect("parse_args checked the name");
            let ctx = Ctx {
                scale: Scale::FULL,
                seed,
                seconds,
                traced: args.traced,
            };
            single(name, &ctx)
        }
        None => full(seed, seconds),
    }
}
