//! # semitri-server — the sharded annotation server
//!
//! ROADMAP item 1: "millions of users means a resident process". This
//! crate turns the batch/CLI-only SeMiTri pipeline into a long-running
//! HTTP/1.1 + JSON-lines service over `std::net::TcpListener` — hand
//! rolled because crates.io (and therefore tokio) is unreachable from
//! the build environment. The design follows the read-mostly shape of
//! transit backends like Catenary's birch server: an immutable snapshot
//! pipeline (frozen spatial indexes, `&`-shareable) behind a pool of
//! blocking worker threads, with the mutable state sharded or swapped:
//! per-user streaming sessions hash-partition behind per-shard locks,
//! and map updates go through a [`LiveSeMiTri`] generation swap — a
//! rebuild freezes generation `N+1` off to the side while every reader
//! keeps annotating on its pinned generation `N`.
//!
//! ## Endpoints
//!
//! | Endpoint | Body | Meaning |
//! |---|---|---|
//! | `POST /annotate` | JSON-lines feed | full-trajectory annotation, pinned to one generation |
//! | `POST /session/{user}/push` | JSON-lines fixes | incremental annotation in `{user}`'s streaming session |
//! | `POST /session/{user}/flush` | empty | close the session: final events + cleaning report |
//! | `POST /admin/update` | JSON-lines mutations | publish map edits as the next snapshot generation |
//! | `GET /metrics` | — | `semitri-obs` registry snapshot as JSON lines (includes `server.generation`) |
//! | `GET /healthz` | — | liveness probe (`ok gen=<generation>`) |
//!
//! ## Fault containment
//!
//! Every request body is parsed under hard limits (see [`http`]); a
//! panic while handling a request is caught at the request boundary,
//! answered with a 500 and counted in `server.responses_5xx` — a
//! poisoned trajectory must not take the worker (or any other user's
//! session) down with it. Backpressure is a bounded per-session queue:
//! pushes beyond [`SessionLimits::max_session_records`] get HTTP 429
//! until the session flushes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod sessions;
pub mod wire;

use http::{HttpError, NextRequest, Request};
use semitri_core::{LiveSeMiTri, PipelineConfig};
use semitri_data::City;
use semitri_episodes::VelocityPolicy;
use semitri_obs::{MetricsRegistry, ServerMetrics, StoreMetrics};
use semitri_store::SemanticTrajectoryStore;
use sessions::{SessionLimits, SessionTable};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads (each runs its own accept loop on a cloned
    /// listener handle; the kernel load-balances `accept`).
    pub workers: usize,
    /// Session sharding and backpressure bounds.
    pub sessions: SessionLimits,
    /// Hard cap on request bodies, bytes.
    pub max_body_bytes: usize,
    /// Socket read timeout — bounds how long a slow or dead peer can pin
    /// a worker between bytes.
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            sessions: SessionLimits::default(),
            max_body_bytes: 16 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// One response, before serialization.
struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    fn error(status: u16, msg: &str) -> Self {
        let mut body = String::from("{\"type\":\"error\",\"status\":");
        body.push_str(&status.to_string());
        body.push_str(",\"message\":");
        // the wire escaper, so error bodies are valid JSON too
        wire::push_json_str(&mut body, msg);
        body.push_str("}\n");
        Self::json(status, body)
    }
}

/// The annotation server: a live (generation-swapped) pipeline plus
/// request handling state.
pub struct Server {
    live: LiveSeMiTri,
    policy: VelocityPolicy,
    registry: Arc<MetricsRegistry>,
    metrics: ServerMetrics,
    config: ServeConfig,
    store: Option<(Arc<SemanticTrajectoryStore>, StoreMetrics)>,
}

impl Server {
    /// Builds a server around a city and a pipeline-config factory (the
    /// config holds a boxed segmentation policy and is not `Clone`, so
    /// generation rebuilds need a factory, not a value). Every
    /// generation's pipeline gets a [`semitri_obs::MetricsObserver`]
    /// installed into the server's registry, so `/metrics` exposes the
    /// per-layer `stage.*` schema next to the `server.*` schema across
    /// generation swaps.
    pub fn new(
        city: City,
        make_config: impl Fn() -> PipelineConfig + Send + Sync + 'static,
        policy: VelocityPolicy,
        config: ServeConfig,
    ) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let observer = Arc::new(semitri_obs::MetricsObserver::new(registry.clone()));
        let live = LiveSeMiTri::new(city, make_config, Some(observer));
        let metrics = ServerMetrics::new(&registry);
        metrics.generation.set(live.current_id().0 as i64);
        Self {
            live,
            policy,
            registry,
            metrics,
            config,
            store: None,
        }
    }

    /// Attaches a write-through trajectory store: every successful
    /// `POST /annotate` is also persisted end to end (compressed fixes,
    /// episode ranges, SST with derived layer rows), and `/metrics`
    /// grows the `store.*` schema published from the store's counters.
    /// Store write latency is recorded in `store.query_secs`.
    pub fn with_store(mut self, store: Arc<SemanticTrajectoryStore>) -> Self {
        let metrics = StoreMetrics::new(&self.registry);
        store.publish_metrics(&metrics);
        self.store = Some((store, metrics));
        self
    }

    /// The attached write-through store, if any.
    pub fn store(&self) -> Option<&Arc<SemanticTrajectoryStore>> {
        self.store.as_ref().map(|(s, _)| s)
    }

    /// The live pipeline handle (for tests and embedding callers that
    /// want to publish updates without going through HTTP).
    pub fn live(&self) -> &LiveSeMiTri {
        &self.live
    }

    /// The metrics registry `/metrics` snapshots.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Serves `listener` until `shutdown` turns true, blocking the
    /// calling thread. Workers block in `accept`, so after setting the
    /// flag call [`wake_workers`] (or connect once per worker) to
    /// unblock them.
    pub fn run(&self, listener: TcpListener, shutdown: &AtomicBool) -> std::io::Result<()> {
        let sessions = SessionTable::new(self.config.sessions);
        let workers = self.config.workers.max(1);
        let result = crossbeam::scope(|scope| -> std::io::Result<()> {
            for _ in 0..workers {
                let listener = listener.try_clone()?;
                let sessions = &sessions;
                scope.spawn(move |_| {
                    while !shutdown.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                if shutdown.load(Ordering::Relaxed) {
                                    break;
                                }
                                self.metrics.connections.inc();
                                self.handle_connection(stream, sessions);
                            }
                            Err(_) => break,
                        }
                    }
                });
            }
            Ok(())
        })
        .expect("server worker panicked outside the request boundary");
        result
    }

    /// Serves one connection: a keep-alive loop of request → response.
    fn handle_connection(&self, stream: TcpStream, sessions: &SessionTable<'static>) {
        let _ = stream.set_read_timeout(Some(self.config.read_timeout));
        let _ = stream.set_write_timeout(Some(self.config.read_timeout));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        loop {
            let request = match http::read_request(&mut reader, self.config.max_body_bytes) {
                Ok(NextRequest::Closed) => return,
                Ok(NextRequest::Request(r)) => r,
                Err(HttpError::Disconnected) => return,
                Err(HttpError::BadRequest(msg)) => {
                    // un-parseable connection state: answer and close
                    self.metrics.requests.inc();
                    self.metrics.count_response(400);
                    let resp = Response::error(400, msg);
                    let _ = http::write_response(
                        &mut writer,
                        resp.status,
                        resp.content_type,
                        &resp.body,
                        false,
                    );
                    return;
                }
                Err(HttpError::PayloadTooLarge) => {
                    self.metrics.requests.inc();
                    self.metrics.count_response(413);
                    let resp = Response::error(413, "request body exceeds the configured cap");
                    let _ = http::write_response(
                        &mut writer,
                        resp.status,
                        resp.content_type,
                        &resp.body,
                        false,
                    );
                    return;
                }
            };
            self.metrics.requests.inc();
            let t0 = Instant::now();
            // the request boundary is the fault domain: a panic in the
            // pipeline answers 500 and closes this connection, the worker
            // and every other session live on
            let outcome =
                catch_unwind(AssertUnwindSafe(|| self.handle_request(&request, sessions)));
            let (response, keep_alive) = match outcome {
                Ok(r) => (r, request.keep_alive),
                Err(_) => (
                    Response::error(500, "internal error while annotating this request"),
                    false,
                ),
            };
            self.metrics.request_secs.record(t0.elapsed().as_secs_f64());
            self.metrics.count_response(response.status);
            if http::write_response(
                &mut writer,
                response.status,
                response.content_type,
                &response.body,
                keep_alive,
            )
            .is_err()
                || !keep_alive
            {
                return;
            }
        }
    }

    /// Routes one parsed request.
    fn handle_request(&self, req: &Request, sessions: &SessionTable<'static>) -> Response {
        let segments: Vec<&str> = req.path.trim_start_matches('/').split('/').collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Response {
                status: 200,
                content_type: "text/plain",
                body: format!("ok gen={}\n", self.live.current_id()).into_bytes(),
            },
            ("GET", ["metrics"]) => {
                // refresh the store.* gauges so the scrape sees current
                // compression and block-skip state
                if let Some((store, m)) = &self.store {
                    store.publish_metrics(m);
                }
                Response::json(200, self.registry.snapshot().to_json_lines())
            }
            ("POST", ["annotate"]) => self.annotate(&req.body),
            ("POST", ["admin", "update"]) => self.admin_update(&req.body),
            (method, ["session", user, action @ ("push" | "flush")]) if !user.is_empty() => {
                if method != "POST" {
                    return Response::error(405, "session endpoints are POST-only");
                }
                match *action {
                    "push" => self.session_push(user, &req.body, sessions),
                    _ => self.session_flush(user, sessions),
                }
            }
            (_, ["healthz" | "metrics" | "annotate"]) | (_, ["admin", "update"]) => {
                Response::error(405, "method not allowed on this resource")
            }
            _ => Response::error(404, "no such resource"),
        }
    }

    /// `POST /admin/update`: queues map mutations and publishes them as
    /// the next snapshot generation. The batch is checked as a whole
    /// before any line is queued, so a 422 leaves nothing behind for the
    /// next publish. The rebuild happens on this request thread;
    /// annotation on the other workers keeps reading the old generation
    /// until the final pointer swap.
    fn admin_update(&self, body: &[u8]) -> Response {
        let Ok(text) = std::str::from_utf8(body) else {
            return Response::error(422, "body is not UTF-8");
        };
        let mutations = match wire::parse_mutations(text) {
            Ok(m) => m,
            Err(e) => return Response::error(422, &e.to_string()),
        };
        if let Err(msg) = self.live.submit_all(mutations) {
            return Response::error(422, &msg);
        }
        let outcome = self.live.publish();
        self.metrics.generation.set(outcome.generation.0 as i64);
        self.metrics.updates_applied.add(outcome.applied as u64);
        Response::json(
            200,
            format!(
                "{{\"type\":\"update\",\"generation\":{},\"applied\":{}}}\n",
                outcome.generation, outcome.applied
            ),
        )
    }

    /// `POST /annotate`: one-shot full-trajectory annotation.
    fn annotate(&self, body: &[u8]) -> Response {
        let t0 = Instant::now();
        let Ok(text) = std::str::from_utf8(body) else {
            return Response::error(422, "body is not UTF-8");
        };
        let feed = match wire::parse_feed(text) {
            Ok(f) => f,
            Err(e) => return Response::error(422, &e.to_string()),
        };
        // pin once so annotation and the write-through store ingest see
        // the same generation's road network
        let pin = self.live.pin();
        let out = match pin.snapshot().try_annotate_feed(&feed) {
            Ok(o) => o,
            Err(e) => return Response::error(422, &e.to_string()),
        };
        if let Some((store, m)) = &self.store {
            let t_store = Instant::now();
            if let Err(e) = store.put_annotated(&out, &pin.snapshot().city().roads) {
                return Response::error(500, &format!("store write failed: {e}"));
            }
            m.query_secs.record(t_store.elapsed().as_secs_f64());
        }
        let body = wire::encode_output(&out);
        self.metrics
            .annotate_secs
            .record(t0.elapsed().as_secs_f64());
        Response::json(200, body)
    }

    /// `POST /session/{user}/push`.
    fn session_push(&self, user: &str, body: &[u8], sessions: &SessionTable<'static>) -> Response {
        let Ok(text) = std::str::from_utf8(body) else {
            return Response::error(422, "body is not UTF-8");
        };
        let records = match wire::parse_records(text) {
            Ok(r) => r,
            Err(e) => return Response::error(422, &e.to_string()),
        };
        match sessions.push(user, &records, || self.live.streaming(self.policy)) {
            Ok(result) => {
                if result.created {
                    self.metrics.sessions.add(1);
                    self.metrics.sessions_opened.inc();
                }
                if !result.evicted.is_empty() {
                    self.metrics.sessions.add(-(result.evicted.len() as i64));
                    self.metrics
                        .sessions_evicted
                        .add(result.evicted.len() as u64);
                    self.metrics
                        .evicted_records
                        .add(result.evicted.iter().map(|e| e.records as u64).sum());
                }
                Response::json(200, wire::encode_events(&result.events))
            }
            Err(_rejected) => {
                self.metrics.backpressure_rejections.inc();
                Response::error(
                    429,
                    "session queue bound exceeded; flush the session or push less per request",
                )
            }
        }
    }

    /// `POST /session/{user}/flush`.
    fn session_flush(&self, user: &str, sessions: &SessionTable<'static>) -> Response {
        match sessions.flush(user) {
            Some(result) => {
                self.metrics.sessions.add(-1);
                self.metrics.sessions_flushed.inc();
                Response::json(
                    200,
                    wire::encode_flush(&result.events, &result.cleaning, result.records),
                )
            }
            None => Response::error(
                404,
                "no such session (never pushed, already flushed, or evicted)",
            ),
        }
    }
}

/// Unblocks up to `workers` threads parked in `accept` after a shutdown
/// flag flip, by opening (and immediately dropping) that many
/// connections. Connection errors are ignored — a worker that already
/// exited needs no wake.
pub fn wake_workers(addr: SocketAddr, workers: usize) {
    for _ in 0..workers {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    }
}
