//! Self-tests of the benchmark as a program: the smoke mode, its argument
//! handling and the stable-surface rule. (Percentiles, span self time, the
//! JSON reader, the compare verdicts and `BENCHMARK.json` against the metric
//! catalogue are unit-tested beside their code.)

use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_semitri-ladder");

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, into: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(&path, into);
            } else if path.extension().is_some_and(|e| e == "rs") {
                into.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&manifest_dir().join("src"), &mut files);
    walk(&manifest_dir().join("tests"), &mut files);
    files
}

/// Later changes may delete these from the repository; the benchmark must
/// keep compiling when they do. The names are spelled in halves so that
/// this file passes its own test.
#[test]
fn names_nothing_outside_the_stable_surface() {
    let forbidden: Vec<String> = [
        ("Index", "Mode"),
        ("Oracle", "Mode"),
        ("Kernel", "Mode"),
        ("RStar", "Tree"),
        ("match_records", "_naive"),
        ("candidates_at", "_via_tree"),
        ("for_each_in", "_lanes_with"),
        ("for_each_in", "_scalar_with"),
        ("Row", "Store"),
        ("presets", "::"),
        ("lausanne", "_taxis"),
        ("milan", "_cars"),
        ("seattle", "_drive"),
        ("smartphone", "_users"),
    ]
    .iter()
    .map(|(a, b)| format!("{a}{b}"))
    .collect();
    let files = sources();
    assert!(files.len() > 10, "the source walk found the benchmark");
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for name in &forbidden {
            assert!(
                !text.contains(name.as_str()),
                "{} names {name}",
                file.display()
            );
        }
    }
}

#[test]
fn smoke_runs_every_workload_with_its_checks_on() {
    let out_dir = std::env::temp_dir().join(format!("semitri-ladder-smoke-{}", std::process::id()));
    let t0 = std::time::Instant::now();
    let out = Command::new(EXE)
        .arg("--smoke")
        .env("BENCH_OUT", &out_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let _ = std::fs::remove_dir_all(&out_dir);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        stdout.matches("failed=0").count(),
        12,
        "six workloads, traced and not:\n{stdout}"
    );
    assert!(
        t0.elapsed().as_secs() < 10,
        "smoke must stay under ten seconds"
    );
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--seed"],
        &["--frobnicate"],
    ] {
        let out = Command::new(EXE).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
