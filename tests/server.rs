//! Integration suite for the sharded annotation server.
//!
//! Boots real servers on ephemeral ports and talks to them over raw
//! `TcpStream`s, asserting the guarantees the server claims:
//!
//! * `POST /annotate` is byte-identical to `semitri-cli annotate` for the
//!   same preset and seed;
//! * malformed or truncated HTTP gets a 4xx (or a silent close) and never
//!   poisons a worker — the very next request on a fresh connection works;
//! * LRU session churn keeps the `server.sessions` gauge consistent with
//!   the opened/evicted/flushed counters;
//! * queue bounds surface as HTTP 429 backpressure;
//! * `POST /admin/update` publishes in-city edits and rejects a batch with
//!   any edit outside the city whole.

use semitri::prelude::*;
use semitri::server::sessions::SessionLimits;
use semitri::server::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// Shared never-set shutdown flag: test servers live until process exit.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Boots a `taxis`-preset (seed 42) server on an ephemeral port — the
/// same pipeline construction as `semitri-cli serve taxis`, which is what
/// byte-identity with `semitri-cli annotate taxis` depends on. Leaks the
/// server: tests are short-lived processes.
fn boot(limits: SessionLimits) -> SocketAddr {
    boot_server(limits).1
}

/// [`boot`], also handing back the server for in-process inspection.
fn boot_server(limits: SessionLimits) -> (&'static Server, SocketAddr) {
    let city = lausanne_taxis(1, 42).city;
    let make_config = || PipelineConfig {
        mode: ModeInferencer {
            allow_car: true,
            ..ModeInferencer::default()
        },
        policy: Box::new(VelocityPolicy::vehicles()),
        ..PipelineConfig::default()
    };
    let server: &'static Server = Box::leak(Box::new(Server::new(
        city,
        make_config,
        VelocityPolicy::vehicles(),
        ServeConfig {
            workers: 2,
            sessions: limits,
            ..ServeConfig::default()
        },
    )));
    // binding 127.0.0.1:0 can transiently fail under parallel test
    // processes churning through the ephemeral range; retry with a fresh
    // port a bounded number of times instead of failing the suite
    let mut listener = None;
    for attempt in 0..10u64 {
        match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => {
                listener = Some(l);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20 * (attempt + 1))),
        }
    }
    let listener = listener.expect("could not bind an ephemeral port after 10 attempts");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = server.run(listener, &SHUTDOWN);
    });
    (server, addr)
}

/// Bounded-retry connect: between our bind and our connect another test
/// process can churn the port table hard enough for a connect to be
/// transiently refused. Retrying with a fresh socket a few times keeps
/// those races out of the suite; a server that is really gone still fails
/// after the bound.
fn connect(addr: SocketAddr) -> TcpStream {
    let mut last = None;
    for attempt in 0..10u64 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                return s;
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20 * (attempt + 1)));
            }
        }
    }
    panic!("could not connect to {addr} after 10 attempts: {last:?}");
}

/// One `Connection: close` request; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = connect(addr);
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Reads `name`'s value out of a `/metrics` JSON-lines body.
fn metric(metrics_body: &str, name: &str) -> i64 {
    let needle = format!("\"name\":\"{name}\",\"value\":");
    for line in metrics_body.lines() {
        if let Some(idx) = line.find(&needle) {
            let rest = &line[idx + needle.len()..];
            let end = rest.find(['}', ',']).unwrap_or(rest.len());
            return rest[..end].parse().unwrap();
        }
    }
    panic!("metric {name} not found in:\n{metrics_body}");
}

/// Renders a simulated track as the JSON-lines wire feed.
fn feed_body(track: &semitri::data::sim::SimulatedTrack) -> String {
    let mut body = format!(
        "{{\"object_id\":{},\"trajectory_id\":{}}}\n",
        track.object_id, track.trajectory_id
    );
    for r in &track.records {
        body.push_str(&format!(
            "{{\"x\":{},\"y\":{},\"t\":{}}}\n",
            r.point.x, r.point.y, r.t.0
        ));
    }
    body
}

/// A short fixed feed for session tests (one stop inside the city).
fn small_feed_records(n: usize) -> String {
    (0..n)
        .map(|i| {
            format!(
                "{{\"x\":{},\"y\":2000,\"t\":{}}}\n",
                2_000.0 + i as f64 * 5.0,
                28_800.0 + i as f64 * 30.0
            )
        })
        .collect()
}

#[test]
fn annotate_is_byte_identical_to_the_cli() {
    let addr = boot(SessionLimits::default());
    // same dataset the server was booted on; annotate a real track
    let dataset = lausanne_taxis(1, 42);
    let track = &dataset.tracks[0];
    let body = feed_body(track);

    let (status, via_http) = request(addr, "POST", "/annotate", &body);
    assert_eq!(status, 200, "{via_http}");
    assert!(via_http.contains("\"type\":\"summary\""));

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_semitri-cli"))
        .args(["annotate", "taxis", "42"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(body.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let via_cli = String::from_utf8(out.stdout).unwrap();

    assert_eq!(via_http, via_cli, "HTTP and CLI annotation bodies diverged");
}

#[test]
fn malformed_and_truncated_requests_never_poison_a_worker() {
    let addr = boot(SessionLimits::default());

    // garbage request line → 400
    let mut s = connect(addr);
    s.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (status, _) = parse_response(&raw);
    assert_eq!(status, 400);

    // oversized declared body → 413 without the server reading it
    let mut s = connect(addr);
    s.write_all(b"POST /annotate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (status, _) = parse_response(&raw);
    assert_eq!(status, 413);

    // truncated body: promise 100 bytes, send 5, hang up mid-request
    let mut s = connect(addr);
    s.write_all(b"POST /annotate HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort")
        .unwrap();
    drop(s);

    // feed that is valid HTTP but invalid JSON → 422, connection fine
    let (status, body) = request(addr, "POST", "/annotate", "this is not json\n");
    assert_eq!(status, 422, "{body}");

    // wrong methods / unknown paths → 405 / 404
    assert_eq!(request(addr, "POST", "/healthz", "").0, 405);
    assert_eq!(request(addr, "GET", "/annotate", "").0, 405);
    assert_eq!(request(addr, "GET", "/admin/update", "").0, 405);
    assert_eq!(request(addr, "GET", "/no/such/path", "").0, 404);
    assert_eq!(request(addr, "PATCH", "/session/alice", "").0, 404);

    // after all of the above, the workers still serve real traffic
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.starts_with("ok gen="), "{body}");
    let dataset = lausanne_taxis(1, 42);
    let (status, body) = request(addr, "POST", "/annotate", &feed_body(&dataset.tracks[0]));
    assert_eq!(status, 200, "{body}");
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(metric(&metrics, "server.responses_4xx") >= 5);
    assert_eq!(metric(&metrics, "server.responses_5xx"), 0);
}

#[test]
fn session_lifecycle_over_http() {
    let addr = boot(SessionLimits::default());
    let push = small_feed_records(6);

    let (status, _) = request(addr, "POST", "/session/alice/push", &push);
    assert_eq!(status, 200);
    let (status, body) = request(addr, "POST", "/session/alice/flush", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"type\":\"cleaning\""), "{body}");
    assert!(body.contains("\"type\":\"end\",\"records\":6"), "{body}");

    // flush is terminal: the session is gone
    let (status, _) = request(addr, "POST", "/session/alice/flush", "");
    assert_eq!(status, 404);
    // flushing a session that never existed is the same 404
    let (status, _) = request(addr, "POST", "/session/nobody/flush", "");
    assert_eq!(status, 404);
    // a later push for the same user starts a fresh session
    let (status, _) = request(addr, "POST", "/session/alice/push", &push);
    assert_eq!(status, 200);

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "server.sessions_opened"), 2);
    assert_eq!(metric(&metrics, "server.sessions_flushed"), 1);
    assert_eq!(metric(&metrics, "server.sessions"), 1);
}

#[test]
fn lru_churn_keeps_the_session_gauge_consistent() {
    // one shard, room for 3 sessions: heavy churn across 12 users
    let addr = boot(SessionLimits {
        shards: 1,
        max_sessions: 3,
        ..SessionLimits::default()
    });
    let push = small_feed_records(4);
    for u in 0..12 {
        let (status, _) = request(addr, "POST", &format!("/session/u{u}/push"), &push);
        assert_eq!(status, 200);
    }
    // flush the most recent user (must still be live) and a long-evicted one
    let (status, _) = request(addr, "POST", "/session/u11/flush", "");
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/session/u0/flush", "");
    assert_eq!(status, 404);

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let opened = metric(&metrics, "server.sessions_opened");
    let evicted = metric(&metrics, "server.sessions_evicted");
    let flushed = metric(&metrics, "server.sessions_flushed");
    let gauge = metric(&metrics, "server.sessions");
    assert_eq!(opened, 12);
    assert_eq!(flushed, 1);
    assert_eq!(evicted, 9, "cap 3 across 12 opens");
    assert_eq!(gauge, opened - evicted - flushed);
    assert_eq!(gauge, 2);
}

#[test]
fn queue_bounds_surface_as_429_backpressure() {
    let addr = boot(SessionLimits {
        shards: 1,
        max_sessions: 8,
        max_push_records: 5,
        max_session_records: 8,
    });
    // a single push over the per-push bound
    let (status, _) = request(addr, "POST", "/session/bob/push", &small_feed_records(6));
    assert_eq!(status, 429);
    // cumulative bound: 5 then 4 would exceed 8
    let (status, _) = request(addr, "POST", "/session/bob/push", &small_feed_records(5));
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/session/bob/push", &small_feed_records(4));
    assert_eq!(status, 429);
    // flush drains the session; pushing works again
    let (status, _) = request(addr, "POST", "/session/bob/flush", "");
    assert_eq!(status, 200);
    let (status, _) = request(addr, "POST", "/session/bob/push", &small_feed_records(4));
    assert_eq!(status, 200);

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "server.backpressure_rejections"), 2);
    assert_eq!(metric(&metrics, "server.sessions"), 1);
}

/// One `GET /healthz` round trip on an already-open keep-alive connection;
/// returns the response head. An EOF before a full head is an error (the
/// caller decides whether that is a setup race or a broken keep-alive).
fn keep_alive_roundtrip(
    stream: &mut TcpStream,
    reader: &mut std::io::BufReader<TcpStream>,
) -> std::io::Result<String> {
    stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")?;
    // read status line + headers, then a Content-Length-delimited body
    let mut head = String::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if std::io::BufRead::read_line(reader, &mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        if let Some(v) = line
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = v;
        }
        let done = line == "\r\n";
        head.push_str(&line);
        if done {
            break;
        }
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(reader, &mut body)?;
    assert!(body.starts_with(b"ok gen="), "{:?}", body);
    Ok(head)
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let addr = boot(SessionLimits::default());
    // The same bind-to-connect race as `request` can kill the connection
    // before the FIRST response arrives; that is a setup race, not a
    // keep-alive violation, so retry it on a fresh connection a bounded
    // number of times. A failure after the first response means the
    // server really dropped a keep-alive connection — always fatal.
    let mut attempt = 0;
    'fresh_connection: loop {
        attempt += 1;
        let mut stream = connect(addr);
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        for i in 0..3 {
            match keep_alive_roundtrip(&mut stream, &mut reader) {
                Ok(head) => {
                    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
                    assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
                }
                Err(e) if i == 0 && attempt < 5 => {
                    eprintln!("keep-alive setup race (attempt {attempt}): {e}");
                    continue 'fresh_connection;
                }
                Err(e) => panic!("keep-alive request {i} failed: {e}"),
            }
        }
        break;
    }
}

#[test]
fn admin_update_swaps_generations_without_downtime() {
    let addr = boot(SessionLimits::default());
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok gen=0\n"));

    // a malformed mutation body is rejected without publishing anything
    let (status, _) = request(addr, "POST", "/admin/update", "this is not a mutation\n");
    assert_eq!(status, 422);
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok gen=0\n"));

    // a real mutation batch publishes generation 1
    let update = concat!(
        "{\"op\":\"add_poi\",\"x\":3000,\"y\":3000,\"category\":\"item sale\",\"name\":\"kiosk\"}\n",
        "{\"op\":\"add_road\",\"x1\":2800,\"y1\":2800,\"x2\":3200,\"y2\":2800,\"class\":\"street\"}\n",
    );
    let (status, body) = request(addr, "POST", "/admin/update", update);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\":1"), "{body}");
    assert!(body.contains("\"applied\":2"), "{body}");

    // the new generation is visible on every surface
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok gen=1\n"));
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "server.generation"), 1);
    assert_eq!(metric(&metrics, "server.updates_applied"), 2);

    // annotation keeps working against the swapped-in generation
    let dataset = lausanne_taxis(1, 42);
    let (status, body) = request(addr, "POST", "/annotate", &feed_body(&dataset.tracks[0]));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"type\":\"summary\""));
}

#[test]
fn admin_update_rejects_edits_outside_the_city() {
    let (server, addr) = boot_server(SessionLimits::default());
    // one road a thousand kilometers out: accepted, the next publish would
    // size the segment oracle grid from the stretched road bounds
    let far_road = concat!(
        "{\"op\":\"add_road\",\"x1\":1000000,\"y1\":1000000,",
        "\"x2\":1000000,\"y2\":1000001,\"class\":\"street\"}\n",
    );
    let (status, body) = request(addr, "POST", "/admin/update", far_road);
    assert_eq!(status, 422, "{body}");
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok gen=0\n"));

    // the batch is checked whole: its in-city first line is not left
    // queued for the next publish
    let batch = concat!(
        "{\"op\":\"add_poi\",\"x\":3000,\"y\":3000,\"category\":\"item sale\",\"name\":\"kiosk\"}\n",
        "{\"op\":\"add_poi\",\"x\":-5,\"y\":3000,\"category\":\"item sale\",\"name\":\"off map\"}\n",
    );
    let (status, body) = request(addr, "POST", "/admin/update", batch);
    assert_eq!(status, 422, "{body}");
    assert_eq!(server.live().pending(), 0);
    assert_eq!(server.live().current_id(), GenerationId(0));
}
