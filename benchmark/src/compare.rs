//! `--compare A.json B.json`: do two full runs agree?
//!
//! For every workload and metric the two files share: the relative
//! difference of the reported values, the metric's bound, and a verdict. An
//! end-to-end metric is `worse` when B's value is worse than A's by more
//! than the bound, `unresolved` when either run's own spread — how far its
//! even-numbered repetitions report from its odd-numbered ones — is wider
//! than the bound (then a difference inside it means nothing), and `ok`
//! otherwise. Exact counts must match to the last digit. Per-layer
//! timings carry no bound and are listed for reading only.

use crate::json::{parse, Value};
use crate::report::{END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    /// An exact count that differs.
    Mismatch,
    /// A per-layer timing: shown, not judged.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Mismatch => "mismatch",
            Verdict::Info => "-",
        }
    }

    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Worse | Verdict::Unresolved | Verdict::Mismatch
        )
    }
}

/// Reported value and split-half spread of one metric in a result file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub spread: f64,
}

/// Verdict for a lower-is-better metric with a relative `bound`.
pub fn judge(a: Sample, b: Sample, bound: f64) -> Verdict {
    if a.spread > bound || b.spread > bound {
        Verdict::Unresolved
    } else if b.value > a.value * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn sample(metric: &Value) -> Option<Sample> {
    Some(Sample {
        value: metric.get("value")?.as_f64()?,
        spread: metric.get("split")?.as_f64()?,
    })
}

fn runs(file: &Value) -> Result<&[Value], String> {
    match file.get("runs") {
        Some(Value::Array(runs)) => Ok(runs),
        _ => Err("not a result file: no \"runs\" array".to_string()),
    }
}

fn fact<'v>(run: &'v Value, key: &str) -> Option<&'v str> {
    run.get("facts")?.get(key)?.as_str()
}

/// Compares two result files' contents.
pub fn compare(a_text: &str, b_text: &str) -> Result<Vec<Row>, String> {
    let a = parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = parse(b_text).map_err(|e| format!("second file: {e}"))?;
    let mut rows = Vec::new();
    for run_a in runs(&a)? {
        let workload = run_a.get("workload").and_then(Value::as_str).unwrap_or("?");
        let traced = run_a.get("traced");
        let Some(run_b) = runs(&b)?.iter().find(|r| {
            r.get("workload").and_then(Value::as_str) == Some(workload) && r.get("traced") == traced
        }) else {
            return Err(format!("the second file has no {workload} run to match"));
        };
        if fact(run_a, "corpus_digest") != fact(run_b, "corpus_digest") {
            return Err(format!(
                "{workload}: the runs measured different inputs (corpus digests {:?} and {:?})",
                fact(run_a, "corpus_digest"),
                fact(run_b, "corpus_digest")
            ));
        }
        let (Some(ma), Some(mb)) = (
            run_a.get("metrics").and_then(Value::as_object),
            run_b.get("metrics").and_then(Value::as_object),
        ) else {
            return Err(format!("{workload}: a run without metrics"));
        };
        for (name, va) in ma {
            let (Some(sa), Some(sb)) = (sample(va), mb.get(name).and_then(sample)) else {
                continue;
            };
            let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
            let exact = PER_LAYER.iter().any(|m| m.name == name && m.exact);
            let verdict = match bound {
                Some(bound) => judge(sa, sb, bound),
                None if exact && sa.value != sb.value => Verdict::Mismatch,
                None if exact => Verdict::Ok,
                None => Verdict::Info,
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: name.clone(),
                a: sa.value,
                b: sb.value,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table; `true` when nothing fails.
pub fn render(rows: &[Row]) -> (String, bool) {
    let mut text = String::new();
    let mut ok = true;
    for r in rows {
        let diff = if r.a == 0.0 {
            0.0
        } else {
            (r.b - r.a) / r.a.abs()
        };
        let bound = r.bound.map_or("-".to_string(), |b| format!("{b}"));
        writeln!(
            text,
            "{} {} {} {} {:+.4} {} {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            diff,
            bound,
            r.verdict.label()
        )
        .expect("writing to a String cannot fail");
        ok &= !r.verdict.fails();
    }
    (text, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Sample {
        Sample { value, spread }
    }

    #[test]
    fn verdicts() {
        assert_eq!(judge(s(100.0, 0.01), s(104.0, 0.01), 0.05), Verdict::Ok);
        assert_eq!(judge(s(100.0, 0.01), s(106.0, 0.01), 0.05), Verdict::Worse);
        // better is never worse, however much
        assert_eq!(judge(s(100.0, 0.01), s(50.0, 0.01), 0.05), Verdict::Ok);
        // a spread wider than the bound on either side resolves nothing
        assert_eq!(
            judge(s(100.0, 0.08), s(100.0, 0.01), 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(s(100.0, 0.01), s(120.0, 0.08), 0.05),
            Verdict::Unresolved
        );
    }

    fn file(ns: f64, split: f64, fixes: f64, digest: &str) -> String {
        format!(
            "{{\"runs\":[{{\"workload\":\"vehicles_batch\",\"traced\":false,\"facts\":{{\"corpus_digest\":\"{digest}\"}},\
             \"metrics\":{{\"ns_per_fix\":{{\"value\":{ns},\"split\":{split},\"n\":5,\"unit\":\"ns\"}}}}}},\
             {{\"workload\":\"vehicles_batch\",\"traced\":true,\"facts\":{{\"corpus_digest\":\"{digest}\"}},\
             \"metrics\":{{\"data.fixes\":{{\"value\":{fixes},\"split\":0,\"n\":1,\"unit\":\"count\"}},\
             \"core.line.ns_per_move_fix\":{{\"value\":{ns},\"split\":0,\"n\":1,\"unit\":\"ns\"}}}}}}]}}"
        )
    }

    #[test]
    fn compares_result_files() {
        let rows = compare(
            &file(400.0, 0.01, 1000.0, "d"),
            &file(410.0, 0.01, 1000.0, "d"),
        )
        .unwrap();
        let verdict = |metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(verdict("ns_per_fix"), Verdict::Ok);
        assert_eq!(verdict("data.fixes"), Verdict::Ok);
        assert_eq!(verdict("core.line.ns_per_move_fix"), Verdict::Info);
        assert!(render(&rows).1);

        let rows = compare(
            &file(400.0, 0.01, 1000.0, "d"),
            &file(600.0, 0.01, 1001.0, "d"),
        )
        .unwrap();
        let verdict = |metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(verdict("ns_per_fix"), Verdict::Worse);
        assert_eq!(verdict("data.fixes"), Verdict::Mismatch);
        assert!(!render(&rows).1);

        // different inputs are not compared at all
        assert!(compare(
            &file(400.0, 0.01, 1000.0, "d"),
            &file(400.0, 0.01, 1000.0, "e")
        )
        .is_err());
    }
}
