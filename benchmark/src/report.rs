//! The metric catalogue — the single place a metric's name, unit,
//! direction and bound are written down; `BENCHMARK.json` repeats it and a
//! test below holds the two together — and the result files.

use crate::json::{number, quote};
use crate::machine;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The workloads; why each exists is written in `BENCHMARK.json` and
/// `README.md`.
pub const WORKLOADS: &[&str] = &[
    "vehicles_batch",
    "people_batch",
    "http_annotate",
    "http_sessions",
    "live_publish",
    "store_warehouse",
];

/// An end-to-end metric: what a user of the system sees. All are
/// lower-is-better. `bound` is the relative worsening that counts as a
/// regression. The driver accepts a benchmark only if the values ten runs
/// report spread by less than the bound; on the shared sandbox the medians
/// of the timing metrics spread by up to 14 % (README, "How well it
/// repeats"), so their bounds are what that host can hold, not the 0.05 /
/// 0.10 the issue proposed before anything was measured.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "ns_per_fix",
        unit: "ns",
        bound: 0.20,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.05,
    },
];

/// A per-layer metric, taken in the traced run. `exact` marks counts that
/// depend only on the inputs and must repeat to the last digit.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

/// A measured time, size or ratio of times.
const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        exact: false,
    }
}

/// A count, or a ratio of counts.
const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        exact: true,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    timed("data.gen_s", "s"),
    count("data.fixes", "count"),
    count("data.trajectories", "count"),
    timed("core.preprocess.ns_per_fix", "ns"),
    count("core.preprocess.repaired_share", "ratio"),
    timed("episodes.segment.ns_per_fix", "ns"),
    count("episodes.stop_fix_share", "ratio"),
    timed("core.region.ns_per_fix", "ns"),
    count("core.region.tuples_per_kfix", "count"),
    timed("core.line.ns_per_move_fix", "ns"),
    count("core.line.move_fix_share", "ratio"),
    count("core.line.matched_share", "ratio"),
    timed("core.line.pipeline_share", "ratio"),
    timed("core.point.ns_per_stop", "ns"),
    count("core.point.stops_per_traj", "count"),
    timed("core.pipeline.ns_per_fix", "ns"),
    timed("core.pipeline.self_ns_per_fix", "ns"),
    timed("core.pipeline.stage_sum_share", "ratio"),
    timed("core.pipeline.build_ms", "ms"),
    timed("core.pipeline.build_rss_mb", "MB"),
    timed("core.batch.pool_ns_per_fix", "ns"),
    timed("obs.observer_overhead_share", "ratio"),
    timed("server.wire.parse_ns_per_fix", "ns"),
    timed("server.wire.encode_ns_per_fix", "ns"),
    count("server.wire.request_bytes_per_fix", "B"),
    count("server.wire.response_bytes_per_fix", "B"),
    timed("server.http.residual_ns_per_fix", "ns"),
    timed("server.http.client_write_us", "us"),
    timed("server.http.first_byte_wait_us", "us"),
    timed("core.streaming.push_ns_per_fix", "ns"),
    timed("server.sessions.push_overhead_us", "us"),
    timed("server.sessions.flush_p50_ms", "ms"),
    count("server.sessions.rejected", "count"),
    timed("core.live.publish_add_poi_ms", "ms"),
    timed("core.live.publish_add_road_ms", "ms"),
    timed("core.live.publish_set_landuse_ms", "ms"),
    timed("core.live.idle_ns_per_fix", "ns"),
    timed("core.live.contended_ratio", "ratio"),
    timed("store.put_annotated.ns_per_fix", "ns"),
    timed("store.olap_landuse_hour.us", "us"),
    timed("store.olap_mode_share.us", "us"),
    timed("store.olap_poi_ranks.us", "us"),
    timed("store.time_window.us", "us"),
    timed("store.rect_window.us", "us"),
    timed("store.get_sst.us", "us"),
    timed("store.compact_ms", "ms"),
    count("store.block_skip_rate", "ratio"),
    count("store.label_bytes_per_tuple", "B"),
    timed("bench.trace_overhead_share", "ratio"),
    timed("bench.calibration_ns", "ns"),
    // end-to-end in the issue, per-layer here. The tail latency does not
    // repeat within any bound the driver allows; of the others the driver wants
    // every end-to-end metric from every workload, never 0, and they exist
    // on one workload only or read 0 on a correct run
    timed("op_p99_ms", "ms"),
    timed("publish_p50_ms", "ms"),
    count("bytes_per_fix", "B"),
    count("log_bytes_per_fix", "B"),
    timed("reopen_ms", "ms"),
    count("fail_share", "ratio"),
];

/// What one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    /// First few failed checks, for the human reading the log.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Threads, connections, workers, corpus digest, …
    pub facts: Vec<(&'static str, String)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `(name, unit)` of every metric this run must report, in catalogue
    /// order.
    pub fn expected(&self) -> Vec<(&'static str, &'static str)> {
        if self.traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .expected()
            .into_iter()
            .map(|(name, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(name),
                    number(self.metrics[name].value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Human-readable lines, `workload metric value unit`.
    pub fn table(&self) -> String {
        self.expected()
            .into_iter()
            .map(|(name, unit)| {
                let s = &self.metrics[name];
                format!(
                    "{} {} {} {}  (q1 {} q3 {} n {})\n",
                    self.workload,
                    name,
                    number(s.value),
                    unit,
                    number(s.q1),
                    number(s.q3),
                    s.n
                )
            })
            .collect()
    }

    /// The result as a JSON object: every metric with quartiles and sample
    /// count, the run's facts, and the machine it ran on.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .expected()
            .into_iter()
            .map(|(name, unit)| {
                let s = &self.metrics[name];
                format!(
                    "{}:{{\"value\":{},\"q1\":{},\"q3\":{},\"n\":{},\"split\":{},\"unit\":{}}}",
                    quote(name),
                    number(s.value),
                    number(s.q1),
                    number(s.q3),
                    s.n,
                    number(s.split),
                    quote(unit)
                )
            })
            .collect();
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"traced\":{},\"smoke\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\"facts\":{{{}}},\"metrics\":{{{}}}}}",
            quote(self.workload),
            self.seed,
            self.traced,
            self.smoke,
            self.correct(),
            self.attempted,
            self.failed,
            failures.join(","),
            facts.join(","),
            metrics.join(",")
        )
    }
}

/// Machine and build facts as a JSON object.
pub fn machine_json() -> String {
    let features: Vec<String> = machine::target_features().into_iter().map(quote).collect();
    format!(
        "{{\"nproc\":{},\"target_features\":[{}],\"rustc\":{},\"commit\":{},\"calibration_ns\":{}}}",
        machine::nproc(),
        features.join(","),
        quote(&machine::from_env("BENCH_RUSTC")),
        quote(&machine::from_env("BENCH_COMMIT")),
        number(machine::calibration_ns())
    )
}

/// Where result and span files go: `out/` beside the benchmark's manifest
/// when run through `run.sh` (which exports `BENCH_OUT`), else the current
/// directory's `benchmark/out`.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var_os("BENCH_OUT")
        .map_or_else(|| Path::new("benchmark").join("out"), PathBuf::from);
    std::fs::create_dir_all(&dir).expect("the benchmark's out directory must be writable");
    dir
}

/// Seconds one run measures: what `BENCHMARK.json` tells the driver, and the
/// default when `--seconds` is not given.
pub const RUN_SECONDS: u32 = 15;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn text<'v>(v: &'v Value, key: &str) -> &'v str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} is a string"))
    }

    fn list<'v>(v: &'v Value, key: &str) -> &'v [Value] {
        match v.get(key) {
            Some(Value::Array(items)) => items,
            _ => panic!("{key} is a list"),
        }
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .expect("an object")
            .keys()
            .map(String::as_str)
            .collect()
    }

    /// `BENCHMARK.json` repeats the catalogue above name for name, and stays
    /// inside the limits the driver enforces before a single run.
    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root");
        assert!(committed.len() <= 64 * 1024);
        let file = parse(&committed).expect("BENCHMARK.json is JSON");
        assert_eq!(
            keys(&file),
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let strings = |key: &str| -> Vec<&str> {
            list(&file, key)
                .iter()
                .map(|v| v.as_str().expect("a string"))
                .collect()
        };
        assert_eq!(strings("command"), ["bash", "benchmark/run.sh"]);
        assert_eq!(strings("paths"), ["benchmark"]);
        assert_eq!(
            file.get("run_seconds").and_then(Value::as_f64),
            Some(f64::from(RUN_SECONDS))
        );
        assert!((1..=60).contains(&RUN_SECONDS));

        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = Vec::new();

        let workloads = list(&file, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, want) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(keys(w), ["name", "why"]);
            assert_eq!(text(w, "name"), *want);
            let why = text(w, "why");
            assert!(!why.is_empty() && why.chars().count() <= 200 && !why.contains('\n'));
            names.push(*want);
        }
        let end_to_end = list(&file, "end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (m, want) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
            assert_eq!(
                (text(m, "name"), text(m, "unit"), text(m, "better")),
                (want.name, want.unit, "lower")
            );
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(want.bound));
            assert!(want.bound > 0.0 && want.bound <= 0.25, "{}", want.name);
            assert!(unit_ok(want.unit));
            names.push(want.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!(setup.unit, "s");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        let per_layer = list(&file, "per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (m, want) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(keys(m), ["better", "name", "unit"]);
            assert_eq!((text(m, "name"), text(m, "unit")), (want.name, want.unit));
            assert!(["higher", "lower"].contains(&text(m, "better")));
            assert!(unit_ok(want.unit));
            names.push(want.name);
        }
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
