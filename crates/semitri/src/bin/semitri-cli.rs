//! `semitri-cli` — the Application Interface of the SeMiTri architecture.
//!
//! The paper exposes its Semantic Trajectory Store through a web interface
//! for "trajectory querying and visualization" \[31\]. This CLI is the
//! library equivalent: it builds an annotated store from a dataset preset
//! and answers queries against it.
//!
//! ```text
//! semitri-cli generate <taxis|milan|phones> <store.stlog> [seed] [days] [--threads N] [--metrics] [--faults SPEC]
//! semitri-cli raster <taxis|milan|phones> [seed] [days] [--cell M] [--threads N] [--top K]
//! semitri-cli serve <taxis|milan|phones> [addr] [seed] [--workers N] [--store <store.stlog>]
//! semitri-cli annotate <taxis|milan|phones> [seed]       (feed JSON lines on stdin)
//! semitri-cli info <store.stlog>
//! semitri-cli objects <store.stlog>
//! semitri-cli show <store.stlog> <trajectory_id>
//! semitri-cli query-mode <store.stlog> <walk|bicycle|bus|metro|car>
//! semitri-cli query-activity <store.stlog> <services|feedings|item-sale|person-life|unknown>
//! semitri-cli stats <store.stlog>
//! semitri-cli olap <store.stlog> [top]
//! semitri-cli export-kml <store.stlog> <trajectory_id> <out.kml>
//! semitri-cli compact <store.stlog>
//! ```
//!
//! `serve` and `annotate` share one pipeline construction per preset, so
//! an HTTP `POST /annotate` response is byte-identical to `annotate` on
//! the same feed — the server integration suite asserts exactly that.

use semitri::prelude::*;
use semitri::server::{wire, ServeConfig, Server};
use semitri::store::export::{kml_document, sst_kml};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  semitri-cli generate <taxis|milan|phones> <store.stlog> [seed] [days] [--threads N] [--metrics] [--faults SPEC]\n    \
         (SPEC: comma-separated faults, e.g. dropout=0.1,noise=25,teleport=3,dup=0.05,conflict=0.02,swap=0.05,stuck=0.03,nan=0.01,resample=5)\n  \
         semitri-cli raster <taxis|milan|phones> [seed] [days] [--cell M] [--threads N] [--top K]\n    \
         (annotates the preset fleet and burns it into per-mode / per-road-class / per-landuse density grids)\n  \
         semitri-cli serve <taxis|milan|phones> [addr] [seed] [--workers N] [--store <store.stlog>]\n  \
         semitri-cli annotate <taxis|milan|phones> [seed]   (feed JSON lines on stdin)\n  \
         semitri-cli info <store.stlog>\n  semitri-cli objects <store.stlog>\n  \
         semitri-cli show <store.stlog> <trajectory_id>\n  \
         semitri-cli query-mode <store.stlog> <mode>\n  \
         semitri-cli query-activity <store.stlog> <category>\n  \
         semitri-cli stats <store.stlog>\n  \
         semitri-cli olap <store.stlog> [top]   (warehouse aggregates over the compressed columns)\n  \
         semitri-cli export-kml <store.stlog> <trajectory_id> <out.kml>\n  \
         semitri-cli compact <store.stlog>"
    );
    ExitCode::from(2)
}

fn open(path: &str) -> Result<SemanticTrajectoryStore, ExitCode> {
    SemanticTrajectoryStore::open_durable(path).map_err(|e| {
        eprintln!("cannot open store {path}: {e}");
        ExitCode::FAILURE
    })
}

fn parse_mode(s: &str) -> Option<TransportMode> {
    TransportMode::ALL.into_iter().find(|m| m.label() == s)
}

fn parse_category(s: &str) -> Option<PoiCategory> {
    let norm = s.replace('-', " ");
    PoiCategory::ALL.into_iter().find(|c| c.label() == norm)
}

/// Prints the per-layer latency/count breakdown (paper Fig. 17) followed by
/// the raw metric snapshot as JSON lines.
fn print_metrics(summary: &BatchSummary) {
    let m = &summary.metrics;
    if m.counter("stage.preprocess.calls") > 0 {
        println!(
            "preprocessing: {} fixes in, {} kept, {} dropped, {} reordered, {} deduped",
            m.counter("stage.preprocess.records"),
            m.counter("stage.preprocess.kept"),
            m.counter("stage.preprocess.dropped"),
            m.counter("stage.preprocess.reordered"),
            m.counter("stage.preprocess.deduped"),
        );
    }
    println!("per-layer breakdown (latencies in ms):");
    println!(
        "  {:<10} {:>7} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "layer", "calls", "records", "min", "mean", "p50", "p95", "p99", "max", "records/s"
    );
    for (stage, s) in summary.stages() {
        // per-layer throughput over the stage's own busy time (sum of
        // span latencies)
        let busy_secs = s.count as f64 * s.mean;
        let rate = if busy_secs > 0.0 {
            s.records as f64 / busy_secs
        } else {
            0.0
        };
        println!(
            "  {:<10} {:>7} {:>10} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>12.0}",
            stage.id(),
            s.count,
            s.records,
            s.min * 1e3,
            s.mean * 1e3,
            s.p50 * 1e3,
            s.p95 * 1e3,
            s.p99 * 1e3,
            s.max * 1e3,
            rate,
        );
    }
    println!("metrics (json lines):");
    print!("{}", summary.metrics.to_json_lines());
}

/// Builds the city and streaming policy of a dataset preset, plus the
/// vehicle flag that parameterizes the pipeline configuration.
fn preset_city(preset: &str, seed: u64) -> Result<(City, bool, VelocityPolicy), ExitCode> {
    let (dataset, vehicle) = match preset {
        "taxis" => (lausanne_taxis(1, seed), true),
        "milan" => (milan_cars(20, 1, seed), true),
        "phones" => (smartphone_users(6, 1, seed), false),
        _ => {
            eprintln!("unknown preset {preset:?} (taxis|milan|phones)");
            return Err(ExitCode::from(2));
        }
    };
    let policy = if vehicle {
        VelocityPolicy::vehicles()
    } else {
        VelocityPolicy::default()
    };
    Ok((dataset.city, vehicle, policy))
}

/// The pipeline configuration of a preset. `serve` hands this to the
/// server as a *factory* (generation rebuilds construct a fresh config
/// per publish — the boxed segmentation policy is not `Clone`), and
/// `annotate`, `generate` and `raster` call it once; all paths produce
/// identical configs, so a served `/annotate` response is byte-identical
/// to the CLI output.
fn preset_config(vehicle: bool) -> PipelineConfig {
    if vehicle {
        PipelineConfig {
            mode: ModeInferencer {
                allow_car: true,
                ..ModeInferencer::default()
            },
            policy: Box::new(VelocityPolicy::vehicles()),
            ..PipelineConfig::default()
        }
    } else {
        PipelineConfig::default()
    }
}

/// `semitri-cli serve`: stand up the annotation server and block.
fn serve(
    preset: &str,
    addr: &str,
    seed: u64,
    workers: Option<usize>,
    store_path: Option<&str>,
) -> Result<(), ExitCode> {
    let (city, vehicle, policy) = preset_city(preset, seed)?;
    let mut serve_config = ServeConfig::default();
    if let Some(n) = workers {
        serve_config.workers = n;
    }
    let mut server = Server::new(city, move || preset_config(vehicle), policy, serve_config);
    if let Some(path) = store_path {
        // write-through: every annotated feed is persisted columnar and
        // the store.* schema joins /metrics
        let store = open(path)?;
        server = server.with_store(std::sync::Arc::new(store));
        println!("write-through store: {path}");
    }
    let listener = std::net::TcpListener::bind(addr).map_err(|e| {
        eprintln!("cannot bind {addr}: {e}");
        ExitCode::FAILURE
    })?;
    let bound = listener.local_addr().map_err(|e| {
        eprintln!("cannot resolve bound address: {e}");
        ExitCode::FAILURE
    })?;
    // scripts (CI smoke, load tests) wait for this line before curling
    println!("semitri-server listening on http://{bound} (preset {preset}, seed {seed})");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let shutdown = AtomicBool::new(false);
    server.run(listener, &shutdown).map_err(|e| {
        eprintln!("server error: {e}");
        ExitCode::FAILURE
    })
}

/// `semitri-cli annotate`: the offline twin of `POST /annotate`. Reads a
/// JSON-lines feed from stdin and writes exactly the server's response
/// body to stdout — nothing else touches stdout, byte identity depends
/// on it.
fn annotate(preset: &str, seed: u64) -> Result<(), ExitCode> {
    let (city, vehicle, _) = preset_city(preset, seed)?;
    let pipeline = SeMiTri::new(city, preset_config(vehicle));
    let mut body = String::new();
    std::io::Read::read_to_string(&mut std::io::stdin(), &mut body).map_err(|e| {
        eprintln!("cannot read stdin: {e}");
        ExitCode::FAILURE
    })?;
    let feed = wire::parse_feed(&body).map_err(|e| {
        eprintln!("bad feed: {e}");
        ExitCode::from(2)
    })?;
    let out = pipeline.try_annotate_feed(&feed).map_err(|e| {
        eprintln!("annotation failed: {e}");
        ExitCode::FAILURE
    })?;
    print!("{}", wire::encode_output(&out));
    Ok(())
}

/// Flags of the `generate` subcommand that tune how the fleet is
/// annotated rather than what is generated.
struct GenerateOptions<'a> {
    threads: Option<usize>,
    metrics: bool,
    faults: Option<&'a str>,
}

fn generate(
    preset: &str,
    path: &str,
    seed: u64,
    days: usize,
    opts: &GenerateOptions,
) -> Result<(), ExitCode> {
    let GenerateOptions {
        threads,
        metrics,
        faults,
    } = *opts;
    let (dataset, vehicle) = match preset {
        "taxis" => (lausanne_taxis(days, seed), true),
        "milan" => (milan_cars(20, days, seed), true),
        "phones" => (smartphone_users(6, days, seed), false),
        _ => {
            eprintln!("unknown preset {preset:?} (taxis|milan|phones)");
            return Err(ExitCode::from(2));
        }
    };
    println!(
        "generated '{}': {} trajectories, {} GPS records",
        dataset.name,
        dataset.tracks.len(),
        dataset.total_records()
    );
    let semitri = SeMiTri::new(&dataset.city, preset_config(vehicle));
    let store = open(path)?;

    // annotate the whole fleet over a shared worker pool
    let mut annotator = BatchAnnotator::new(&semitri);
    if let Some(n) = threads {
        annotator = annotator.with_threads(n);
    }
    let batch = match faults {
        Some(spec) => {
            // degrade each track with the seeded injector, then annotate
            // through the untrusted-feed path (preprocessing + per-slot
            // failure isolation)
            let injector = FaultInjector::from_spec(seed, spec).map_err(|e| {
                eprintln!("bad --faults spec: {e}");
                ExitCode::from(2)
            })?;
            let feeds: Vec<GpsFeed> = dataset
                .tracks
                .iter()
                .map(|t| {
                    GpsFeed::new(
                        t.object_id,
                        t.trajectory_id,
                        injector.apply_stream(t.trajectory_id, &t.records),
                    )
                })
                .collect();
            let degraded: usize = feeds.iter().map(|f| f.records.len()).sum();
            println!(
                "injected faults [{spec}]: {} fixes after degradation",
                degraded
            );
            annotator.annotate_feeds(&feeds)
        }
        None => {
            let raws: Vec<RawTrajectory> = dataset.tracks.iter().map(|t| t.to_raw()).collect();
            annotator.annotate_all(&raws)
        }
    };
    println!(
        "annotated with {} worker(s): {} records in {:.2}s ({:.0} records/s)",
        batch.summary.threads,
        batch.summary.records,
        batch.summary.wall_secs,
        batch.summary.records_per_sec
    );
    for err in batch.errors() {
        eprintln!("warning: {err}");
    }
    if metrics {
        print_metrics(&batch.summary);
    }

    for result in &batch.results {
        let Ok(out) = result else { continue };
        // end-to-end columnar ingest: metadata, compressed fixes,
        // episode ranges, and the SST with derived layer rows
        store.put_annotated(out, &dataset.city.roads).map_err(|e| {
            eprintln!("store write failed: {e}");
            ExitCode::FAILURE
        })?;
    }
    let (t, e, s) = store.counts();
    let m = store.metrics();
    println!("stored {t} trajectories, {e} episodes, {s} semantic trajectories → {path}");
    println!(
        "  fix columns: {} fixes in {} blocks, {:.2} bytes/fix ({} → {} bytes)",
        m.fix_count,
        m.fix_blocks,
        m.bytes_per_fix(),
        m.fix_raw_bytes,
        m.fix_compressed_bytes
    );
    Ok(())
}

/// `raster`: generate a preset fleet, annotate it on the shared worker
/// pool, and burn the annotated corpus into per-mode / per-road-class /
/// per-landuse-category density grids over the city bounds. Burning uses
/// one private tile accumulator per worker, merged at the end — the grid
/// is bit-identical for every worker count.
fn raster(
    preset: &str,
    seed: u64,
    days: usize,
    cell_m: f64,
    threads: Option<usize>,
    top: usize,
) -> Result<(), ExitCode> {
    let (dataset, vehicle) = match preset {
        "taxis" => (lausanne_taxis(days, seed), true),
        "milan" => (milan_cars(20, days, seed), true),
        "phones" => (smartphone_users(6, days, seed), false),
        _ => {
            eprintln!("unknown preset {preset:?} (taxis|milan|phones)");
            return Err(ExitCode::from(2));
        }
    };
    let semitri = SeMiTri::new(&dataset.city, preset_config(vehicle));
    let mut annotator = BatchAnnotator::new(&semitri);
    if let Some(n) = threads {
        annotator = annotator.with_threads(n);
    }
    let raws: Vec<RawTrajectory> = dataset.tracks.iter().map(|t| t.to_raw()).collect();
    let batch = annotator.annotate_all(&raws);
    println!(
        "annotated '{}' with {} worker(s): {} records in {:.2}s ({:.0} records/s)",
        dataset.name,
        batch.summary.threads,
        batch.summary.records,
        batch.summary.wall_secs,
        batch.summary.records_per_sec
    );
    for err in batch.errors() {
        eprintln!("warning: {err}");
    }
    let workers = threads.unwrap_or(batch.summary.threads).max(1);
    let outputs: Vec<PipelineOutput> = batch.results.into_iter().filter_map(Result::ok).collect();
    let grid_config = RasterConfig {
        bounds: dataset.city.bounds(),
        cell_m,
    };
    let t0 = std::time::Instant::now();
    let grid = burn_all(grid_config, &outputs, &dataset.city.roads, workers);
    let secs = t0.elapsed().as_secs_f64();
    let (nx, ny) = grid.dims();
    let burned = grid.layer_total(RasterLayer::Total);
    let rate = if secs > 0.0 {
        burned as f64 / secs
    } else {
        0.0
    };
    println!(
        "raster {nx}x{ny} cells of {cell_m} m: burned {burned} fixes ({} out of bounds) on {workers} worker(s) in {secs:.3}s ({rate:.0} fixes/s)",
        grid.dropped()
    );
    println!("  {:<32} {:>10} {:>8}", "layer", "fixes", "cells");
    let row = |name: String, layer: RasterLayer| {
        let total = grid.layer_total(layer);
        if total > 0 {
            println!(
                "  {:<32} {:>10} {:>8}",
                name,
                total,
                grid.nonzero_cells(layer)
            );
        }
    };
    row("total".to_string(), RasterLayer::Total);
    for m in TransportMode::ALL {
        row(format!("mode/{}", m.label()), RasterLayer::Mode(m));
    }
    for c in [
        RoadClass::Highway,
        RoadClass::Street,
        RoadClass::Path,
        RoadClass::Rail,
    ] {
        row(format!("class/{}", c.label()), RasterLayer::Class(c));
    }
    for c in LanduseCategory::ALL {
        row(format!("landuse/{}", c.label()), RasterLayer::Landuse(c));
    }
    if top > 0 {
        println!("top {top} cells (total layer):");
        for (ix, iy, n) in grid.top_cells(RasterLayer::Total, top) {
            println!("  ({ix:>4},{iy:>4}) {n}");
        }
    }
    Ok(())
}

fn run() -> Result<(), ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("generate") => {
            let (Some(preset), Some(path)) = (it.next(), it.next()) else {
                return Err(usage());
            };
            // remaining args: optional positional [seed] [days] plus
            // optional --threads N / --metrics flags anywhere among them
            let mut threads = None;
            let mut metrics = false;
            let mut faults = None;
            let mut positional = Vec::new();
            let mut rest = it;
            while let Some(arg) = rest.next() {
                if arg == "--metrics" {
                    metrics = true;
                } else if arg == "--faults" {
                    let Some(spec) = rest.next() else {
                        eprintln!("--faults needs a spec (e.g. dropout=0.1,stuck=0.03)");
                        return Err(ExitCode::from(2));
                    };
                    faults = Some(spec);
                } else if arg == "--threads" {
                    let Some(n) = rest.next().and_then(|s| s.parse::<usize>().ok()) else {
                        eprintln!("--threads needs a positive integer");
                        return Err(ExitCode::from(2));
                    };
                    if n == 0 {
                        eprintln!("--threads needs a positive integer");
                        return Err(ExitCode::from(2));
                    }
                    threads = Some(n);
                } else {
                    positional.push(arg);
                }
            }
            let seed = positional
                .first()
                .and_then(|s| s.parse().ok())
                .unwrap_or(42);
            let days = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
            generate(
                preset,
                path,
                seed,
                days,
                &GenerateOptions {
                    threads,
                    metrics,
                    faults,
                },
            )
        }
        Some("raster") => {
            let Some(preset) = it.next() else {
                return Err(usage());
            };
            let mut threads = None;
            let mut cell_m = 50.0;
            let mut top = 5usize;
            let mut positional = Vec::new();
            let mut rest = it;
            while let Some(arg) = rest.next() {
                if arg == "--threads" {
                    let Some(n) = rest.next().and_then(|s| s.parse::<usize>().ok()) else {
                        eprintln!("--threads needs a positive integer");
                        return Err(ExitCode::from(2));
                    };
                    if n == 0 {
                        eprintln!("--threads needs a positive integer");
                        return Err(ExitCode::from(2));
                    }
                    threads = Some(n);
                } else if arg == "--cell" {
                    let Some(v) = rest.next().and_then(|s| s.parse::<f64>().ok()) else {
                        eprintln!("--cell needs a size in meters");
                        return Err(ExitCode::from(2));
                    };
                    if !(v.is_finite() && v > 0.0) {
                        eprintln!("--cell needs a positive size in meters");
                        return Err(ExitCode::from(2));
                    }
                    cell_m = v;
                } else if arg == "--top" {
                    let Some(k) = rest.next().and_then(|s| s.parse::<usize>().ok()) else {
                        eprintln!("--top needs a cell count");
                        return Err(ExitCode::from(2));
                    };
                    top = k;
                } else {
                    positional.push(arg);
                }
            }
            let seed = positional
                .first()
                .and_then(|s| s.parse().ok())
                .unwrap_or(42);
            let days = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(2);
            raster(preset, seed, days, cell_m, threads, top)
        }
        Some("serve") => {
            let Some(preset) = it.next() else {
                return Err(usage());
            };
            let mut workers = None;
            let mut store_path = None;
            let mut positional = Vec::new();
            let mut rest = it;
            while let Some(arg) = rest.next() {
                if arg == "--workers" {
                    let Some(n) = rest.next().and_then(|s| s.parse::<usize>().ok()) else {
                        eprintln!("--workers needs a positive integer");
                        return Err(ExitCode::from(2));
                    };
                    if n == 0 {
                        eprintln!("--workers needs a positive integer");
                        return Err(ExitCode::from(2));
                    }
                    workers = Some(n);
                } else if arg == "--store" {
                    let Some(path) = rest.next() else {
                        eprintln!("--store needs a log path");
                        return Err(ExitCode::from(2));
                    };
                    store_path = Some(path);
                } else {
                    positional.push(arg);
                }
            }
            let addr = positional.first().copied().unwrap_or("127.0.0.1:8355");
            let seed = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(42);
            serve(preset, addr, seed, workers, store_path)
        }
        Some("annotate") => {
            let Some(preset) = it.next() else {
                return Err(usage());
            };
            let seed = it.next().and_then(|s| s.parse().ok()).unwrap_or(42);
            annotate(preset, seed)
        }
        Some("info") => {
            let Some(path) = it.next() else {
                return Err(usage());
            };
            let store = open(path)?;
            let (t, e, s) = store.counts();
            println!("store {path}");
            println!("  trajectories: {t}");
            println!("  episodes:     {e}");
            println!("  semantic trajectories: {s}");
            if let Some(size) = store.log_size() {
                println!("  log size: {size} bytes");
            }
            Ok(())
        }
        Some("objects") => {
            let Some(path) = it.next() else {
                return Err(usage());
            };
            let store = open(path)?;
            let mut seen = std::collections::BTreeMap::new();
            for meta in store.trajectory_metas() {
                *seen.entry(meta.object_id).or_insert(0usize) += 1;
            }
            for (object, count) in seen {
                println!("object {object}: {count} trajectories");
            }
            Ok(())
        }
        Some("show") => {
            let (Some(path), Some(id)) = (it.next(), it.next()) else {
                return Err(usage());
            };
            let id: u64 = id.parse().map_err(|_| usage())?;
            let store = open(path)?;
            match store.get_sst(id) {
                Some(sst) => {
                    println!("{}", sst.render());
                    Ok(())
                }
                None => {
                    eprintln!("no semantic trajectory {id}");
                    Err(ExitCode::FAILURE)
                }
            }
        }
        Some("query-mode") => {
            let (Some(path), Some(mode)) = (it.next(), it.next()) else {
                return Err(usage());
            };
            let Some(mode) = parse_mode(mode) else {
                eprintln!("unknown mode");
                return Err(ExitCode::from(2));
            };
            let store = open(path)?;
            for id in store.ssts_with_mode(mode) {
                println!("{id}");
            }
            Ok(())
        }
        Some("query-activity") => {
            let (Some(path), Some(cat)) = (it.next(), it.next()) else {
                return Err(usage());
            };
            let Some(cat) = parse_category(cat) else {
                eprintln!("unknown category");
                return Err(ExitCode::from(2));
            };
            let store = open(path)?;
            for id in store.ssts_with_activity(cat) {
                println!("{id}");
            }
            Ok(())
        }
        Some("stats") => {
            let Some(path) = it.next() else {
                return Err(usage());
            };
            let store = open(path)?;
            let stats = store.annotation_statistics();
            println!("mode tuples:");
            for m in TransportMode::ALL {
                println!("  {:<8} {}", m.label(), stats.mode(m));
            }
            println!("activity tuples:");
            for c in PoiCategory::ALL {
                println!("  {:<12} {}", c.label(), stats.activity(c));
            }
            Ok(())
        }
        Some("olap") => {
            let Some(path) = it.next() else {
                return Err(usage());
            };
            let top = it.next().and_then(|s| s.parse().ok()).unwrap_or(5);
            let store = open(path)?;
            // warehouse aggregates, scanned over the compressed columns
            let stops = store.stops_per_landuse_hour();
            println!("stops per landuse category (hourly total):");
            for c in LanduseCategory::ALL {
                let total: u64 = (0..24).map(|h| stops.get(c, h)).sum();
                if total > 0 {
                    let peak = (0..24).max_by_key(|&h| stops.get(c, h)).unwrap_or(0);
                    println!("  {:<16} {total:>6} (peak hour {peak:02})", c.label());
                }
            }
            let share = store.mode_share_by_road_class();
            println!("mode share by road class (record-weighted):");
            for class in RoadClass::ALL {
                let row: u64 = TransportMode::ALL
                    .iter()
                    .map(|&m| share.get(class, m))
                    .sum();
                if row == 0 {
                    continue;
                }
                print!("  {:<8}", class.label());
                for m in TransportMode::ALL {
                    let pct = 100.0 * share.get(class, m) as f64 / row as f64;
                    print!(" {}={pct:.0}%", m.label());
                }
                println!();
            }
            println!("top {top} POIs by stop visits:");
            for v in store.top_poi_visits(top) {
                println!(
                    "  {:<24} {} visits (place {})",
                    v.label, v.visits, v.place_id
                );
            }
            let m = store.metrics();
            println!(
                "scan stats: {} fixes at {:.2} bytes/fix, {} live tuples, \
                 time-window block-skip rate {:.0}%",
                m.fix_count,
                m.bytes_per_fix(),
                m.live_tuples,
                100.0 * m.block_skip_rate()
            );
            Ok(())
        }
        Some("export-kml") => {
            let (Some(path), Some(id), Some(out)) = (it.next(), it.next(), it.next()) else {
                return Err(usage());
            };
            let id: u64 = id.parse().map_err(|_| usage())?;
            let store = open(path)?;
            let Some(sst) = store.get_sst(id) else {
                eprintln!("no semantic trajectory {id}");
                return Err(ExitCode::FAILURE);
            };
            let doc = kml_document(&format!("semitri trajectory {id}"), &[sst_kml(&sst)]);
            std::fs::write(out, doc).map_err(|e| {
                eprintln!("cannot write {out}: {e}");
                ExitCode::FAILURE
            })?;
            println!("wrote {out}");
            Ok(())
        }
        Some("compact") => {
            let Some(path) = it.next() else {
                return Err(usage());
            };
            let store = open(path)?;
            let before = store.log_size().unwrap_or(0);
            store.compact().map_err(|e| {
                eprintln!("compaction failed: {e}");
                ExitCode::FAILURE
            })?;
            let after = store.log_size().unwrap_or(0);
            println!("compacted: {before} → {after} bytes");
            Ok(())
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
