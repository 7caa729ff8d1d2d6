//! Load driver for the `wire` crate: N pipelined connections over real
//! loopback TCP against an in-process epoll [`EventServer`], recording
//! client-measured round-trip quantiles, throughput, and peak RSS per
//! sweep point.
//!
//! ```console
//! $ cargo run --release --bin wire_load -- [OPTIONS]
//!     --requests N      requests per connection        (default 500)
//!     --conns N         largest connection count swept (default 8;
//!                       capped by the fd soft limit, loudly)
//!     --pipeline N      in-flight window per connection (default 16)
//!     --addr HOST:PORT  drive an external `serve --tcp` server instead
//!                       of an in-process one (halves the fd cost per
//!                       connection: 1 fd, not a loopback pair; books
//!                       are asserted client-side only)
//!     --workers N       service worker threads         (default: cores, min 4)
//!     --capacity N      service queue capacity         (default 512)
//!     --floor-us F      simulated engine floor, µs     (default 200)
//!     --seed S          workload seed                  (default 42)
//! ```
//!
//! One experiment: sweep 1, 2, 4, … connections (plus `--conns` itself
//! when it is not a power of two — `--conns 10000` ends on a true
//! C10K point), each pipelining `--pipeline` requests deep, all
//! multiplexed into the one bounded-queue service. The load generator
//! is the shared [`wire::load`] core — a single epoll readiness loop
//! over nonblocking sockets, so ten thousand client connections cost
//! one thread, not ten thousand; the same core paces journal replay in
//! `replay --serve`.
//!
//! The driver asserts exactly-once delivery at every point: every
//! request got exactly one `ok` answer (an unknown or repeated
//! response id panics), and the server's books agree.

use service::cli::Args;
use service::metrics::Histogram;
use service::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use trials::derive_seed;
use wire::prelude::*;

/// A pool of raw JSONL action lines spanning the spec vocabulary —
/// the wire payload is text, so the pool is text.
const LINES: &[&str] = &[
    r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp", "describe": "pen/trap stream"}"#,
    r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "isp", "describe": "live interception"}"#,
    r#"{"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider", "describe": "subscriber records"}"#,
    r#"{"actor": "leo", "data": "records", "when": "stored", "where": "provider", "describe": "transaction records"}"#,
    r#"{"actor": "admin", "data": "headers", "when": "realtime", "where": "own-network", "describe": "ops review"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider", "describe": "stored unopened mail"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored", "where": "device", "flags": ["consent"], "describe": "consented device exam"}"#,
    r#"{"actor": "private", "data": "content", "when": "stored", "where": "device", "describe": "private party search"}"#,
    r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "wireless", "describe": "open wifi capture"}"#,
    r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp", "flags": ["rate-only"], "describe": "rate observation"}"#,
    r#"{"actor": "employer", "data": "content", "when": "stored", "where": "own-network", "describe": "workplace mail review"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored", "where": "media", "flags": ["hash-search"], "describe": "forensic media sweep"}"#,
];

/// The connection cap assumed when the fd soft limit cannot be probed
/// (logged, never silent).
const UNPROBED_CONN_CAP: usize = 512;

/// Fds reserved for everything that is not a benchmark connection
/// pair: listener, epoll instances, eventfd, stdio, and slack.
const FD_HEADROOM: u64 = 64;

/// Request `i` on connection `c` is a pure function of `(seed, c, i)`.
fn line_for(seed: u64, c: u64, i: u64) -> &'static str {
    LINES[(derive_seed(seed.wrapping_add(c), i) % LINES.len() as u64) as usize]
}

/// The process's soft `RLIMIT_NOFILE`, probed from `/proc/self/limits`.
fn fd_soft_limit() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = text.lines().find(|l| l.starts_with("Max open files"))?;
    // "Max open files   <soft>   <hard>   files"
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Peak resident set (`VmHWM`) in KiB. Covers server and load
/// generator together — both live in this process.
fn peak_rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the RSS high-water mark so each sweep point reports its own
/// peak. Best-effort: if the kernel refuses, `VmHWM` stays monotonic
/// across points (still an upper bound, noted in the output).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The sweep workload as a [`LoadSource`] for the shared
/// [`wire::load`] driver: `requests` per connection at max pacing
/// (`due_us: 0` — the sweep measures capacity, not a schedule), ids
/// globally unique, every response asserted `ok` with a verdict
/// payload and its round trip recorded.
struct SweepSource<'a> {
    seed: u64,
    requests: u64,
    /// Requests emitted so far, per connection.
    sent: Vec<u64>,
    /// Responses received so far, across all connections.
    done: u64,
    rtt: &'a Histogram,
}

impl LoadSource for SweepSource<'_> {
    fn next(&mut self, conn: usize) -> Option<LoadRequest> {
        let i = self.sent[conn];
        if i == self.requests {
            return None;
        }
        self.sent[conn] = i + 1;
        Some(LoadRequest {
            id: conn as u64 * self.requests + i,
            payload: line_for(self.seed, conn as u64, i).as_bytes().to_vec(),
            due_us: 0,
        })
    }

    fn complete(&mut self, _conn: usize, _id: u64, status: Status, payload: &[u8], rtt: Duration) {
        self.rtt.record(rtt);
        assert_eq!(status, Status::Ok, "unexpected in-band status");
        assert!(!payload.is_empty(), "verdict payload missing");
        self.done += 1;
    }
}

/// One sweep point through the shared load core (one epoll driver
/// thread, whatever the connection count).
fn drive(
    addr: std::net::SocketAddr,
    connections: usize,
    requests: u64,
    pipeline: usize,
    seed: u64,
) -> (Duration, Arc<Histogram>) {
    let rtt = Arc::new(Histogram::default());
    let mut source = SweepSource {
        seed,
        requests,
        sent: vec![0; connections],
        done: 0,
        rtt: &rtt,
    };
    let wall = wire::load::drive(addr, connections, pipeline, &mut source).expect("load drive");
    assert_eq!(
        source.done,
        requests * connections as u64,
        "a connection under-delivered"
    );
    (wall, rtt)
}

/// Doubling sweep 1, 2, 4, … ≤ max, always ending on `max` itself.
fn sweep_points(max: usize) -> Vec<usize> {
    let mut sweep = vec![1usize];
    while *sweep.last().expect("non-empty") * 2 <= max {
        sweep.push(sweep.last().expect("non-empty") * 2);
    }
    if *sweep.last().expect("non-empty") != max {
        sweep.push(max);
    }
    sweep
}

fn main() {
    let args = Args::parse();
    let requests = args.u64_flag("requests", 500);
    let requested_max = args.usize_flag("conns", 8).max(1);
    let pipeline = args.usize_flag("pipeline", 16).max(1);
    // The engine floor is a sleep, so workers overlap it even on one
    // core — keep at least 4 so connection scaling is visible on small
    // machines.
    let workers = args.usize_flag(
        "workers",
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .max(4),
    );
    let capacity = args.usize_flag("capacity", 512);
    let floor_us = args.u64_flag("floor-us", 200);
    let seed = args.u64_flag("seed", 42);
    let external = args.get("addr").map(str::to_string);
    let model = if external.is_some() {
        "external"
    } else {
        "epoll"
    };

    // Never let the sweep run the process out of fds: each in-process
    // connection is two of them (client end + server end); against an
    // external server only the client end lives here. A probe failure
    // caps conservatively rather than silently — the cap is always
    // printed.
    let fds_per_conn: u64 = if external.is_some() { 1 } else { 2 };
    let soft_limit = fd_soft_limit();
    let conn_cap = soft_limit
        .map(|soft| (soft.saturating_sub(FD_HEADROOM) / fds_per_conn) as usize)
        .unwrap_or(UNPROBED_CONN_CAP)
        .max(1);
    let max_connections = requested_max.min(conn_cap);
    println!(
        "wire_load: {} line pool, seed {seed}, floor {floor_us}us, {workers} workers, pipeline {pipeline}",
        LINES.len()
    );
    match soft_limit {
        Some(soft) => println!(
            "fd probe: soft limit {soft}, {fds_per_conn} fd(s) per connection → \
             at most {conn_cap} connections (headroom {FD_HEADROOM})"
        ),
        None => println!("fd probe: unavailable; assuming at most {conn_cap} connections"),
    }
    if max_connections < requested_max {
        println!(
            "CAPPED: sweeping to {max_connections} connections, not the requested \
             {requested_max} (raise ulimit -n to go higher)"
        );
    }
    let rss_resets = reset_peak_rss();
    if !rss_resets {
        println!("note: peak-RSS reset unavailable; per-point peak_rss_kb is monotonic");
    }
    bench::rule(76);

    let mut base_rps = 0.0;
    for &connections in &sweep_points(max_connections) {
        reset_peak_rss();
        let total = requests * connections as u64;
        let (wall, rtt) = match &external {
            Some(target) => {
                use std::net::ToSocketAddrs as _;
                let addr = target
                    .to_socket_addrs()
                    .expect("resolve --addr")
                    .next()
                    .expect("--addr resolves to an address");
                drive(addr, connections, requests, pipeline, seed)
            }
            None => {
                let service = Arc::new(ComplianceService::start(ServiceConfig {
                    workers,
                    capacity,
                    policy: AdmissionPolicy::Block,
                    default_deadline: None,
                    engine_floor: Duration::from_micros(floor_us),
                }));
                let server =
                    EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
                        .expect("bind loopback");
                let (wall, rtt) = drive(server.local_addr(), connections, requests, pipeline, seed);
                let wire_finals = server.shutdown().metrics;
                let finals = Arc::try_unwrap(service)
                    .expect("server drained; last handle")
                    .shutdown();
                assert_eq!(wire_finals.frames_in, total, "server missed request frames");
                assert_eq!(wire_finals.frames_out, total, "server lost response frames");
                assert_eq!(wire_finals.protocol_errors, 0, "protocol errors under load");
                assert_eq!(
                    finals.responses(),
                    finals.accepted,
                    "service lost a response"
                );
                (wall, rtt)
            }
        };
        // Client-side exactly-once holds in both modes: every id
        // was answered exactly once (duplicates panic in `drive`).
        let rtt = rtt.snapshot();
        assert_eq!(rtt.count, total, "client reaped a different response count");
        let rss_kb = peak_rss_kb().unwrap_or(0);

        let rps = total as f64 / wall.as_secs_f64();
        if connections == 1 {
            base_rps = rps;
        }
        println!(
            "{model:>8}  {connections:>5} conns  {:>9.1?}  {:>9.0} req/s  {:>5.2}x vs 1 conn  p99 {}us  rss {}KiB",
            wall, rps, rps / base_rps, rtt.p99_us, rss_kb
        );
    }

    bench::rule(76);
    println!("zero lost or duplicated responses across every sweep");
}
