//! Integration test of the `semitri-cli` binary end to end.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_semitri-cli"))
}

fn temp_store(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("semitri-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn generate_then_query_roundtrip() {
    let store = temp_store("roundtrip.stlog");
    let store_s = store.to_str().unwrap();

    // generate a small phone dataset into a durable store
    let out = cli()
        .args(["generate", "phones", store_s, "7", "1"])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stored"), "{stdout}");

    // info
    let out = cli().args(["info", store_s]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trajectories: 6"), "{stdout}");

    // objects: six users, one trajectory each
    let out = cli().args(["objects", store_s]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 6, "{stdout}");

    // show a trajectory renders the paper's triple notation
    let out = cli().args(["show", store_s, "0"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("→"), "{stdout}");

    // stats table lists every mode and category
    let out = cli().args(["stats", store_s]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("walk"));
    assert!(stdout.contains("item sale"));

    // query-mode returns ids parseable as u64
    let out = cli()
        .args(["query-mode", store_s, "walk"])
        .output()
        .unwrap();
    assert!(out.status.success());
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        line.parse::<u64>().expect("trajectory id");
    }

    // export a KML document
    let kml = temp_store("t0.kml");
    let out = cli()
        .args(["export-kml", store_s, "0", kml.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = std::fs::read_to_string(&kml).unwrap();
    assert!(doc.starts_with("<?xml"));
    assert!(doc.contains("semantic trajectory"));

    // compact leaves state intact
    let out = cli().args(["compact", store_s]).output().unwrap();
    assert!(out.status.success());
    let out = cli().args(["show", store_s, "0"]).output().unwrap();
    assert!(out.status.success());

    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(&kml);
}

#[test]
fn generate_with_metrics_prints_per_layer_breakdown() {
    let store = temp_store("metrics.stlog");
    let store_s = store.to_str().unwrap();

    let out = cli()
        .args([
            "generate",
            "phones",
            store_s,
            "7",
            "1",
            "--threads",
            "2",
            "--metrics",
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    // the per-layer table lists every annotation layer
    assert!(stdout.contains("per-layer breakdown"), "{stdout}");
    for layer in ["episode", "region", "line", "point"] {
        assert!(
            stdout.lines().any(|l| l.trim_start().starts_with(layer)),
            "missing {layer} row in:\n{stdout}"
        );
    }

    // the JSON-lines dump carries the canonical schema
    let json_start = stdout
        .find("metrics (json lines):")
        .expect("json section present");
    let json = &stdout[json_start..];
    for metric in [
        "stage.episode.secs",
        "stage.region.secs",
        "stage.line.secs",
        "stage.point.secs",
        "batch.trajectories",
    ] {
        assert!(json.contains(metric), "missing {metric} in:\n{json}");
    }
    // the json section is a run of one-object lines (later store output
    // follows it)
    let json_lines: Vec<&str> = json
        .lines()
        .skip(1)
        .take_while(|l| l.starts_with('{'))
        .collect();
    assert!(json_lines.len() >= 12, "too few json lines:\n{json}");
    for line in &json_lines {
        assert!(line.ends_with('}'), "not a json object line: {line}");
    }

    let _ = std::fs::remove_file(&store);
}

#[test]
fn raster_burns_density_grids_for_a_preset() {
    let out = cli()
        .args([
            "raster",
            "phones",
            "7",
            "1",
            "--cell",
            "100",
            "--threads",
            "2",
            "--top",
            "3",
        ])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("raster "), "{stdout}");
    assert!(stdout.contains("burned "), "{stdout}");
    // the unconditional layer is always present, and at least one mode and
    // one landuse layer got fixes on a healthy preset
    assert!(
        stdout.lines().any(|l| l.trim_start().starts_with("total")),
        "{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.trim_start().starts_with("mode/")),
        "{stdout}"
    );
    assert!(
        stdout
            .lines()
            .any(|l| l.trim_start().starts_with("landuse/")),
        "{stdout}"
    );
    assert!(stdout.contains("top 3 cells"), "{stdout}");

    // unknown preset is a usage error
    let out = cli().args(["raster", "nope"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = cli().output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    let out = cli()
        .args(["generate", "nope", "/tmp/x.stlog"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    let store = temp_store("missing-query.stlog");
    let out = cli()
        .args(["show", store.to_str().unwrap(), "999"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_file(&store);
}

#[test]
fn olap_prints_the_three_aggregates_and_the_stores_own_scan_stats() {
    let store = temp_store("olap.stlog");
    let store_s = store.to_str().unwrap();
    let out = cli()
        .args(["generate", "phones", store_s, "5", "1", "--threads", "2"])
        .output()
        .expect("cli runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cli().args(["olap", store_s, "3"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let header = |text: &str| {
        lines
            .iter()
            .position(|l| l.starts_with(text))
            .unwrap_or_else(|| panic!("no {text:?} header in:\n{stdout}"))
    };
    header("stops per landuse category");
    header("mode share by road class");
    let top = header("top 3 POIs by stop visits:");
    let stats = header("scan stats:");

    // at most three POI rows, by descending visits
    let visits: Vec<u64> = lines[top + 1..stats]
        .iter()
        .map(|l| {
            let (head, _) = l.split_once(" visits (place ").expect("a POI row");
            head.rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .expect("a visit count")
        })
        .collect();
    assert!(!visits.is_empty() && visits.len() <= 3, "{stdout}");
    assert!(visits.windows(2).all(|w| w[0] >= w[1]), "{stdout}");

    // the scan stats are the log's own counts
    let m = semitri::store::SemanticTrajectoryStore::open_durable(&store)
        .unwrap()
        .metrics();
    let want = format!(
        "scan stats: {} fixes at {:.2} bytes/fix, {} live tuples, ",
        m.fix_count,
        m.bytes_per_fix(),
        m.live_tuples
    );
    assert!(m.fix_count > 0 && m.live_tuples > 0);
    assert!(
        lines[stats].starts_with(&want),
        "{} vs {want}",
        lines[stats]
    );
    assert!(lines[stats].contains("time-window block-skip rate"));
    let _ = std::fs::remove_file(&store);
}
