//! What the two socket workloads share: an in-process `Server` on an
//! ephemeral loopback port and a minimal keep-alive HTTP/1.1 client that
//! times the write, the wait for the first byte and the whole round trip.

use super::Checks;
use crate::corpus::{pipeline_config, policy, Corpus, Fnv};
use crate::machine;
use crate::trace::Tracer;
use semitri::prelude::GpsRecord;
use semitri::server::{wake_workers, ServeConfig, Server};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server workers and client connections: two, or one on a single core —
/// never more than the machine has cores.
pub fn parallelism() -> usize {
    machine::nproc().min(2)
}

/// A running server, the thread it runs on and the warm client
/// connections to it: the system under test of the socket workloads.
/// Dropping it closes the connections and stops the server.
pub struct Harness {
    pub clients: Vec<Client>,
    workers: usize,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Harness {
    /// Builds a server over `corpus`'s city (no store attached), binds it
    /// to an ephemeral loopback port, starts serving, connects one client
    /// per script and plays the first `warmup` requests of each, so set-up
    /// ends with warm connections, workers and caches.
    pub fn start(corpus: &Corpus, scripts: &[Vec<Req>], warmup: usize) -> Harness {
        let workers = parallelism();
        let world = corpus.world;
        let server = Server::new(
            corpus.city.clone(),
            move || pipeline_config(world),
            policy(world),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback must be bindable");
        let addr = listener
            .local_addr()
            .expect("a bound listener has an address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || server.run(listener, &flag));
        let clients = scripts
            .iter()
            .map(|script| {
                let mut client = Client::connect(addr);
                for req in script.iter().take(warmup) {
                    std::hint::black_box(client.post(&req.path, &req.body));
                }
                client
            })
            .collect();
        Harness {
            workers,
            clients,
            addr,
            shutdown,
            thread: Some(thread),
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        // a worker serves one connection until it ends, so hang up first
        self.clients.clear();
        self.shutdown.store(true, Ordering::SeqCst);
        wake_workers(self.addr, self.workers);
        if let Some(thread) = self.thread.take() {
            match thread.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("benchmark: the server stopped with an error: {e}"),
                Err(_) => eprintln!("benchmark: the server thread panicked"),
            }
        }
    }
}

/// One response and the client-side timings of its request.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// Seconds to hand the request to the kernel.
    pub write_s: f64,
    /// Seconds from the end of the write to the first response byte.
    pub first_byte_s: f64,
    /// Seconds from the start of the write to the last response byte.
    pub total_s: f64,
}

/// A keep-alive client connection.
pub struct Client {
    stream: TcpStream,
    request: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("the server must accept connections");
        stream
            .set_nodelay(true)
            .expect("TCP_NODELAY must be settable");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("a read timeout must be settable");
        Client {
            stream,
            request: Vec::new(),
            buf: vec![0u8; 64 * 1024],
        }
    }

    /// Sends `POST path` with `body` and reads the whole response. Any
    /// transport error surfaces as status 0 so the caller counts it failed.
    pub fn post(&mut self, path: &str, body: &[u8]) -> Reply {
        self.request.clear();
        write!(
            self.request,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .expect("writing to a Vec cannot fail");
        self.request.extend_from_slice(body);
        let t0 = Instant::now();
        let failed = |t0: Instant| Reply {
            status: 0,
            body: Vec::new(),
            write_s: 0.0,
            first_byte_s: 0.0,
            total_s: t0.elapsed().as_secs_f64(),
        };
        if self.stream.write_all(&self.request).is_err() {
            return failed(t0);
        }
        let write_s = t0.elapsed().as_secs_f64();

        // read until the header block is complete, then the body
        let mut got = 0usize;
        let mut first_byte_s = 0.0;
        let (header_end, content_length, status) = loop {
            if got == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            match self.stream.read(&mut self.buf[got..]) {
                Ok(0) | Err(_) => return failed(t0),
                Ok(n) => {
                    if got == 0 {
                        first_byte_s = t0.elapsed().as_secs_f64() - write_s;
                    }
                    got += n;
                }
            }
            if let Some(end) = find(&self.buf[..got], b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.buf[..end]);
                let status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse::<u16>().ok())
                    .unwrap_or(0);
                let length = head
                    .lines()
                    .filter_map(|l| l.split_once(':'))
                    .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                    .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                    .unwrap_or(0);
                break (end + 4, length, status);
            }
        };
        let mut body = Vec::with_capacity(content_length);
        body.extend_from_slice(&self.buf[header_end..got]);
        let have = body.len();
        body.resize(content_length.max(have), 0);
        if self.stream.read_exact(&mut body[have..]).is_err() {
            return failed(t0);
        }
        body.truncate(content_length);
        Reply {
            status,
            body,
            write_s,
            first_byte_s,
            total_s: t0.elapsed().as_secs_f64(),
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Fix lines of the JSON-lines wire format. Floats print with all their
/// digits, so the server parses back exactly the records given here —
/// non-finite ones included, which is how injected `nan` faults travel.
pub fn fix_lines(records: &[GpsRecord], into: &mut String) {
    for r in records {
        writeln!(
            into,
            "{{\"x\":{},\"y\":{},\"t\":{}}}",
            r.point.x, r.point.y, r.t.0
        )
        .expect("writing to a String cannot fail");
    }
}

/// What a response must be for its request to count as served correctly.
pub enum Expect {
    /// Status 200 and a body with this digest.
    Body(u64),
    /// Status 200 and a body of exactly these event lines followed by the
    /// session's `cleaning` and `end` lines.
    Flush { events: String },
}

impl Expect {
    fn holds(&self, reply: &Reply) -> bool {
        reply.status == 200
            && match self {
                Expect::Body(digest) => Fnv::of(&reply.body) == *digest,
                Expect::Flush { events } => reply
                    .body
                    .strip_prefix(events.as_bytes())
                    .and_then(|rest| std::str::from_utf8(rest).ok())
                    .is_some_and(|rest| {
                        let mut lines = rest.lines();
                        lines
                            .next()
                            .is_some_and(|l| l.starts_with("{\"type\":\"cleaning\","))
                            && lines
                                .next()
                                .is_some_and(|l| l.starts_with("{\"type\":\"end\","))
                            && lines.next().is_none()
                    }),
            }
    }
}

/// One scripted request.
pub struct Req {
    pub path: String,
    pub body: Vec<u8>,
    pub expect: Expect,
    /// Span name of the round trip in a traced pass.
    pub span: &'static str,
    pub op_id: u64,
}

/// Client-side measurements of one served request.
pub struct Timing {
    pub span: &'static str,
    pub status: u16,
    pub total_s: f64,
    pub response_bytes: usize,
}

/// One pass over every connection's script.
pub struct Pass {
    /// Seconds from the common start to the last connection finishing.
    pub wall_s: f64,
    /// Per connection, in script order.
    pub timings: Vec<Vec<Timing>>,
    pub checks: Checks,
    pub tracer: Option<Tracer>,
}

/// What one connection hands over at the end of a pass.
type Played = (Vec<Timing>, Checks, Option<Tracer>);

/// Plays `scripts[c]` on `clients[c]` once per entry of `plan`, all
/// connections at once, each a closed loop: the next request goes out when
/// the previous reply is in. An entry with an epoch makes its pass a traced
/// one: every round trip becomes a span with its write and first-byte wait
/// as children. `sink` gets every pass as it ends, while the connections
/// wait for the next to start.
///
/// The client threads live for the whole plan and meet at a barrier before
/// and after every pass. (Threads spawned per pass land on the sandbox's
/// two cores anew each time, and a pass whose four threads share one core
/// takes twice as long as one whose threads do not.)
pub fn run_passes(
    clients: &mut [Client],
    scripts: &[Vec<Req>],
    plan: &[Option<Instant>],
    mut sink: impl FnMut(usize, Pass),
) {
    assert_eq!(clients.len(), scripts.len(), "one script per connection");
    let barrier = Barrier::new(clients.len() + 1);
    let done: Vec<Mutex<Option<Played>>> = clients.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for ((client, script), done) in clients.iter_mut().zip(scripts).zip(&done) {
            let barrier = &barrier;
            scope.spawn(move || {
                for trace_epoch in plan {
                    let mut tracer = trace_epoch.map(Tracer::new);
                    let mut checks = Checks::default();
                    let mut timings = Vec::with_capacity(script.len());
                    barrier.wait();
                    for req in script {
                        let start = tracer.as_ref().map(Tracer::clock);
                        let reply = client.post(&req.path, &req.body);
                        if let (Some(tr), Some(start)) = (tracer.as_mut(), start) {
                            let op =
                                tr.record(req.span, req.op_id, None, start, start + reply.total_s);
                            let wrote = start + reply.write_s;
                            tr.record(
                                "server.http.client_write",
                                req.op_id,
                                Some(op),
                                start,
                                wrote,
                            );
                            tr.record(
                                "server.http.first_byte_wait",
                                req.op_id,
                                Some(op),
                                wrote,
                                wrote + reply.first_byte_s,
                            );
                        }
                        checks.op(req.expect.holds(&reply), || {
                            format!(
                                "POST {} answered {} with an unexpected body",
                                req.path, reply.status
                            )
                        });
                        timings.push(Timing {
                            span: req.span,
                            status: reply.status,
                            total_s: reply.total_s,
                            response_bytes: reply.body.len(),
                        });
                    }
                    *done.lock().expect("no holder of this lock panics") =
                        Some((timings, checks, tracer));
                    barrier.wait();
                }
            });
        }
        for (i, trace_epoch) in plan.iter().enumerate() {
            barrier.wait();
            let t0 = Instant::now();
            barrier.wait();
            let mut pass = Pass {
                wall_s: t0.elapsed().as_secs_f64(),
                timings: Vec::new(),
                checks: Checks::default(),
                tracer: trace_epoch.map(Tracer::new),
            };
            for done in &done {
                let (timings, checks, tracer) = done
                    .lock()
                    .expect("no holder of this lock panics")
                    .take()
                    .expect("every connection finished the pass before the barrier");
                pass.timings.push(timings);
                pass.checks.absorb(checks);
                if let (Some(all), Some(t)) = (pass.tracer.as_mut(), tracer) {
                    all.absorb(t);
                }
            }
            sink(i, pass);
        }
    });
}
