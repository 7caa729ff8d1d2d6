//! The loopback suite for the [`EventServer`]: real sockets, real
//! threads, one process. The wire contract — pipelining, in-flight
//! caps, in-band errors, protocol-error kills, idle reaping, graceful
//! drain, v1 interop, explain span chains, deadlines — must hold
//! byte-for-byte on the epoll loop.

use forensic_law::spec::ActionSpec;
use service::prelude::*;
use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::frame::{self, Frame};
use wire::prelude::*;

/// A rotating set of valid JSONL action lines (the `serve_demo`
/// vocabulary).
const LINES: &[&str] = &[
    r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp", "describe": "pen/trap stream"}"#,
    r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "isp", "describe": "live interception"}"#,
    r#"{"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider", "describe": "subscriber records"}"#,
    r#"{"actor": "admin", "data": "headers", "when": "realtime", "where": "own-network", "describe": "ops review"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider", "describe": "stored unopened mail"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored", "where": "device", "flags": ["consent"], "describe": "consented device exam"}"#,
];

/// The verdict line the server sends for `line`, computed locally
/// through the same engine.
fn expected_verdict(line: &str) -> String {
    let action = ActionSpec::from_json_line(line)
        .and_then(|spec| spec.to_action())
        .expect("fixture line parses");
    let assessment = forensic_law::engine::assess(&action);
    format!("{} [{}]", assessment.verdict(), assessment.confidence())
}

fn start_service(
    workers: usize,
    capacity: usize,
    policy: AdmissionPolicy,
) -> Arc<ComplianceService> {
    Arc::new(ComplianceService::start(ServiceConfig {
        workers,
        capacity,
        policy,
        ..ServiceConfig::default()
    }))
}

#[test]
fn pipelined_requests_complete_out_of_order_and_match_by_id() {
    let service = start_service(2, 64, AdmissionPolicy::Block);
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");
    let client = WireClient::connect(server.local_addr()).expect("dial");

    // Pipeline 48 requests before reading a single response.
    let calls: Vec<_> = (0..48)
        .map(|i| {
            let line = LINES[i % LINES.len()];
            client
                .submit(line.as_bytes().to_vec(), 0)
                .expect("submit pipelined")
        })
        .collect();
    for (i, call) in calls.into_iter().enumerate() {
        let line = LINES[i % LINES.len()];
        let id = call.id();
        let response = call.wait().expect("response arrives");
        assert_eq!(response.id, id, "response matched to the wrong call");
        assert_eq!(response.status, Status::Ok);
        assert_eq!(
            String::from_utf8(response.payload).expect("utf-8 verdict"),
            expected_verdict(line),
            "request {i} verdict differs from a local engine run"
        );
    }

    drop(client);
    let metrics = server.shutdown().metrics;
    assert_eq!(metrics.frames_in, 48);
    assert_eq!(metrics.frames_out, 48);
    assert_eq!(metrics.protocol_errors, 0);
    assert!(metrics.peak_inflight >= 2, "pipelining never overlapped");
    assert!(metrics.wakeups >= 1, "completions never rang the doorbell");
}

#[test]
fn inflight_cap_bounds_a_pipelining_client() {
    let service = start_service(1, 4, AdmissionPolicy::Block);
    let server = EventServer::start(
        "127.0.0.1:0",
        Arc::clone(&service),
        WireConfig {
            max_inflight: 3,
            ..WireConfig::default()
        },
    )
    .expect("bind loopback");
    let client = WireClient::connect(server.local_addr()).expect("dial");

    let calls: Vec<_> = (0..40)
        .map(|i| {
            client
                .submit(LINES[i % LINES.len()].as_bytes().to_vec(), 0)
                .expect("submit")
        })
        .collect();
    for call in calls {
        assert_eq!(call.wait().expect("response").status, Status::Ok);
    }

    let metrics = server.shutdown().metrics;
    assert_eq!(metrics.frames_in, 40);
    assert_eq!(metrics.frames_out, 40);
    assert!(
        metrics.peak_inflight <= 3,
        "in-flight cap exceeded: peak {}",
        metrics.peak_inflight
    );
}

#[test]
fn bad_requests_are_answered_in_band_and_the_connection_survives() {
    let service = start_service(1, 8, AdmissionPolicy::Block);
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");
    let client = WireClient::connect(server.local_addr()).expect("dial");

    // Unparseable payloads: truncated JSON, bad UTF-8, unknown vocab,
    // and an unknown key whose value nests 100,000 deep (decoded on
    // the loop thread, whose call stack it must not overflow).
    let depth = 100_000;
    let deep = format!(r#"{{"x": {}{}}}"#, "[".repeat(depth), "]".repeat(depth));
    for garbage in [
        br#"{"actor": "leo""#.to_vec(),
        vec![0xff, 0xfe, b'{'],
        br#"{"actor": "martian", "data": "headers", "when": "realtime", "where": "isp", "describe": "x"}"#.to_vec(),
        deep.into_bytes(),
    ] {
        let response = client.roundtrip(garbage, 0).expect("in-band error");
        assert_eq!(response.status, Status::BadRequest);
        assert!(!response.payload.is_empty(), "diagnostic message expected");
    }

    // The connection is still healthy.
    let response = client
        .roundtrip(LINES[0].as_bytes().to_vec(), 0)
        .expect("connection survived");
    assert_eq!(response.status, Status::Ok);

    let metrics = server.shutdown().metrics;
    assert_eq!(metrics.bad_requests, 4);
    assert_eq!(metrics.protocol_errors, 0);
    assert_eq!(metrics.frames_out, 5);
}

#[test]
fn oversized_and_malformed_frames_kill_only_their_connection() {
    let service = start_service(1, 8, AdmissionPolicy::Block);
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");

    // A hostile length prefix: the server must drop the connection
    // without allocating the claimed 512 MiB.
    {
        use std::io::Write as _;
        let mut raw = TcpStream::connect(server.local_addr()).expect("dial raw");
        raw.write_all(&(512u32 << 20).to_be_bytes())
            .expect("write prefix");
        raw.flush().expect("flush");
        let mut buf = [0u8; 16];
        raw.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        assert_eq!(raw.read(&mut buf).expect("server closes"), 0);
    }

    // A healthy client right after is unaffected.
    let client = WireClient::connect(server.local_addr()).expect("dial");
    let response = client
        .roundtrip(LINES[1].as_bytes().to_vec(), 0)
        .expect("healthy connection");
    assert_eq!(response.status, Status::Ok);

    let metrics = server.shutdown().metrics;
    assert_eq!(metrics.protocol_errors, 1);
    assert_eq!(metrics.frames_out, 1);
}

#[test]
fn idle_connections_are_reaped() {
    let service = start_service(1, 8, AdmissionPolicy::Block);
    let server = EventServer::start(
        "127.0.0.1:0",
        Arc::clone(&service),
        WireConfig {
            read_tick: Duration::from_millis(5),
            idle_timeout: Some(Duration::from_millis(50)),
            ..WireConfig::default()
        },
    )
    .expect("bind loopback");

    let mut raw = TcpStream::connect(server.local_addr()).expect("dial raw");
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let started = Instant::now();
    let mut buf = [0u8; 1];
    // The server hangs up (EOF) once the idle budget lapses.
    assert_eq!(raw.read(&mut buf).expect("idle close"), 0);
    assert!(
        started.elapsed() >= Duration::from_millis(40),
        "closed before the idle budget"
    );

    let metrics = server.shutdown().metrics;
    assert_eq!(metrics.connections_opened, 1);
    assert_eq!(metrics.connections_closed, 1);
    assert_eq!(metrics.protocol_errors, 0);
}

#[test]
fn graceful_shutdown_answers_every_request_the_server_admitted() {
    let service = start_service(2, 32, AdmissionPolicy::Block);
    let server = EventServer::start(
        "127.0.0.1:0",
        Arc::clone(&service),
        WireConfig {
            read_tick: Duration::from_millis(5),
            ..WireConfig::default()
        },
    )
    .expect("bind loopback");
    let client = WireClient::connect(server.local_addr()).expect("dial");

    let calls: Vec<_> = (0..24)
        .map(|i| {
            client
                .submit(LINES[i % LINES.len()].as_bytes().to_vec(), 0)
                .expect("submit")
        })
        .collect();
    // Shut down while the pipeline is (very likely) still moving.
    let metrics = server.shutdown().metrics;

    // Every frame the server decoded gets exactly one response; calls
    // the reader never reached fail cleanly with ConnectionClosed.
    let mut answered = 0u64;
    for call in calls {
        let id = call.id();
        match call.wait() {
            Ok(response) => {
                assert_eq!(response.id, id);
                assert_eq!(response.status, Status::Ok);
                answered += 1;
            }
            Err(WireError::ConnectionClosed) => {}
            Err(other) => panic!("unexpected client error: {other}"),
        }
    }
    assert_eq!(
        metrics.frames_in, answered,
        "a decoded request was lost (or answered twice) across shutdown"
    );
    assert_eq!(metrics.frames_out, answered);
}

/// A client that predates the v2 frames — hand-built v1 request bytes,
/// no flags byte anywhere — must interoperate unchanged with the event
/// server too.
#[test]
fn flagless_v1_clients_interoperate_with_an_explain_capable_server() {
    use std::io::Write as _;

    let service = start_service(1, 8, AdmissionPolicy::Block);
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");

    let mut raw = TcpStream::connect(server.local_addr()).expect("dial raw");
    raw.set_nodelay(true).expect("nodelay");
    let payload = LINES[0].as_bytes();
    // Hand-built v1 layout: [len u32][kind=1][id u64][deadline u32][payload].
    let mut body = vec![1u8];
    body.extend_from_slice(&7u64.to_be_bytes());
    body.extend_from_slice(&0u32.to_be_bytes());
    body.extend_from_slice(payload);
    let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(&body);
    raw.write_all(&bytes).expect("write v1 frame");
    raw.flush().expect("flush");

    let response = match frame::read_frame(&mut raw, frame::MAX_FRAME).expect("read response") {
        Some(Frame::Response(response)) => response,
        other => panic!("expected a response frame, got {other:?}"),
    };
    assert_eq!(response.id, 7);
    assert_eq!(response.status, Status::Ok);
    assert!(
        response.explain.is_none(),
        "a flag-less request must never receive an explain section"
    );
    assert_eq!(
        String::from_utf8(response.payload).expect("utf-8"),
        expected_verdict(LINES[0]),
    );

    drop(raw);
    let metrics = server.shutdown().metrics;
    assert_eq!(metrics.protocol_errors, 0);
    assert_eq!(metrics.frames_out, 1);
}

/// `submit_explained` against the event server: the response's explain
/// trace joins a complete queue → engine → serialize span chain (the
/// serialize span is recorded at encode time on the worker thread, but
/// under the same trace id and stage as the threaded writer records).
#[test]
fn explained_responses_join_a_full_span_chain_by_trace_id() {
    use obs::Stage;

    let log = obs::global();
    log.set_enabled(true);

    let service = start_service(1, 8, AdmissionPolicy::Block);
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");
    let client = WireClient::connect(server.local_addr()).expect("dial");

    let response = client
        .submit_explained(LINES[1].as_bytes().to_vec(), 0)
        .expect("submit explained")
        .wait()
        .expect("answered");
    assert_eq!(response.status, Status::Ok);
    let explain = response.explain.expect("explain section present");
    assert!(explain.trace != 0, "explained response carries no trace id");

    let provenance = String::from_utf8(explain.provenance).expect("utf-8 provenance");
    assert!(
        provenance.starts_with('[') && provenance.ends_with(']'),
        "provenance is not a JSON array: {provenance}"
    );
    assert!(
        provenance.contains(r#""rule":"verdict.final""#),
        "provenance lacks the final verdict firing: {provenance}"
    );

    let trace = obs::TraceId::from_u64(explain.trace);
    let spans = log.snapshot();
    for stage in [Stage::Queue, Stage::Engine, Stage::Serialize] {
        assert!(
            spans.iter().any(|s| s.trace == trace && s.stage == stage),
            "no {stage} span recorded for trace {trace}"
        );
    }

    drop(client);
    server.shutdown();
}

#[test]
fn deadline_zero_means_none_and_tight_deadlines_time_out_in_band() {
    // One worker, deep queue: with many requests racing a 1 ms deadline,
    // some will time out in-band — and the response still arrives.
    let service = start_service(1, 64, AdmissionPolicy::Block);
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");
    let client = WireClient::connect(server.local_addr()).expect("dial");

    let calls: Vec<_> = (0..32)
        .map(|i| {
            client
                .submit(LINES[i % LINES.len()].as_bytes().to_vec(), 1)
                .expect("submit")
        })
        .collect();
    let mut saw = 0;
    for call in calls {
        let response = call.wait().expect("every request is answered");
        assert!(
            matches!(response.status, Status::Ok | Status::TimedOut),
            "unexpected status {}",
            response.status
        );
        saw += 1;
    }
    assert_eq!(saw, 32);
    server.shutdown();
}

/// A fresh journal directory for one test.
fn journal_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lxj-event-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journaled server on a fresh two-worker service.
fn journaled_server(
    dir: &std::path::Path,
) -> (Arc<ComplianceService>, Arc<journal::Journal>, EventServer) {
    let (journal, _) =
        journal::Journal::open(dir, journal::JournalConfig::default()).expect("open journal");
    let journal = Arc::new(journal);
    let service = start_service(2, 64, AdmissionPolicy::Block);
    let server = EventServer::start_with_sinks(
        "127.0.0.1:0",
        Arc::clone(&service),
        WireConfig::default(),
        None,
        Some(Arc::clone(&journal)),
    )
    .expect("bind loopback");
    (service, journal, server)
}

/// A repeat of a pattern the cache already holds is answered on the
/// event loop: the service never sees it, and it is journaled once.
#[test]
fn a_warmed_repeat_is_answered_inline_and_journaled_once() {
    let dir = journal_dir("inline-repeat");
    let (service, journal, server) = journaled_server(&dir);
    let client = WireClient::connect(server.local_addr()).expect("dial");

    let warm = client
        .roundtrip(LINES[0].as_bytes().to_vec(), 0)
        .expect("warm-up answered");
    assert_eq!(warm.status, Status::Ok);
    let submitted = service.metrics().submitted;
    let inline = server.metrics().answered_inline;
    let hits = service.cache().stats().hits;

    let repeat = client
        .roundtrip(LINES[0].as_bytes().to_vec(), 0)
        .expect("repeat answered");
    assert_eq!(repeat.status, Status::Ok);
    assert_eq!(repeat.payload, warm.payload);
    assert_eq!(
        service.metrics().submitted,
        submitted,
        "the repeat reached the service"
    );
    assert_eq!(server.metrics().answered_inline, inline + 1);
    assert_eq!(service.cache().stats().hits, hits + 1);

    drop(client);
    server.shutdown();
    journal.close().expect("journal closes");
    let (records, truncation) = journal::read_all(&dir, journal::Mode::Strict).expect("scan");
    assert!(truncation.is_none());
    assert_eq!(records.len(), 2, "one record per answered request");
    let record = &records[1];
    assert_eq!(record.seq, 2);
    assert_eq!(record.status, Status::Ok.as_byte());
    assert_eq!(record.request, LINES[0].as_bytes());
    assert_eq!(record.verdict, repeat.payload);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An inline answer's span chain is the loop's own: an inline span and
/// the serialize span, with no queue or engine stage.
#[test]
fn a_traced_inline_hit_records_inline_and_serialize_spans_only() {
    use obs::Stage;

    let log = obs::global();
    log.set_enabled(true);
    let dir = journal_dir("inline-spans");
    let (_service, journal, server) = journaled_server(&dir);
    let client = WireClient::connect(server.local_addr()).expect("dial");
    for _ in 0..2 {
        let response = client
            .roundtrip(LINES[3].as_bytes().to_vec(), 0)
            .expect("answered");
        assert_eq!(response.status, Status::Ok);
    }
    assert_eq!(server.metrics().answered_inline, 1);
    drop(client);
    server.shutdown();
    journal.close().expect("journal closes");

    // The journal names each request's trace id.
    let (records, _) = journal::read_all(&dir, journal::Mode::Strict).expect("scan");
    let spans_of = |trace: obs::TraceId| -> Vec<Stage> {
        log.spans_for(trace).iter().map(|s| s.stage).collect()
    };
    let miss = spans_of(records[0].trace);
    assert!(
        miss.contains(&Stage::Queue) && miss.contains(&Stage::Engine),
        "the first request took the worker path: {miss:?}"
    );
    let hit = spans_of(records[1].trace);
    assert!(
        hit.contains(&Stage::Inline) && hit.contains(&Stage::Serialize),
        "inline hit chain: {hit:?}"
    );
    assert!(
        !hit.contains(&Stage::Queue) && !hit.contains(&Stage::Engine),
        "an inline hit crossed the service: {hit:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Wanted provenance takes the worker path even on a hit: a repeat
/// asking for in-band explain, and every request to a server with an
/// explain sink.
#[test]
fn explained_repeats_and_explain_sinks_take_the_worker_path() {
    let service = start_service(1, 8, AdmissionPolicy::Block);
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");
    let client = WireClient::connect(server.local_addr()).expect("dial");
    let line = LINES[2].as_bytes().to_vec();
    assert_eq!(
        client.roundtrip(line.clone(), 0).expect("warm").status,
        Status::Ok
    );
    let explained = client
        .submit_explained(line.clone(), 0)
        .expect("submit explained")
        .wait()
        .expect("explained repeat answered");
    assert!(explained.explain.is_some(), "explain section missing");
    assert_eq!(server.metrics().answered_inline, 0);
    assert_eq!(service.metrics().submitted, 2);
    // The same repeat without the flag is answered inline.
    assert_eq!(client.roundtrip(line, 0).expect("plain").status, Status::Ok);
    assert_eq!(server.metrics().answered_inline, 1);
    drop(client);
    server.shutdown();

    let service = start_service(1, 8, AdmissionPolicy::Block);
    let sink = ExplainSink::new(Box::new(std::io::sink()));
    let server = EventServer::start_with_sinks(
        "127.0.0.1:0",
        Arc::clone(&service),
        WireConfig::default(),
        Some(sink),
        None,
    )
    .expect("bind loopback");
    let client = WireClient::connect(server.local_addr()).expect("dial");
    for i in 0..12 {
        let response = client
            .roundtrip(LINES[i % 2].as_bytes().to_vec(), 0)
            .expect("answered");
        assert_eq!(response.status, Status::Ok);
    }
    drop(client);
    let metrics = server.shutdown().metrics;
    assert_eq!(metrics.answered_inline, 0, "a sink's record was skipped");
    assert_eq!(service.metrics().accepted, 12);
    assert_eq!(service.cache().stats().hits, 10);
}

/// On a pipelined mix of hits, misses and bad requests every frame is
/// counted exactly once: `frames_in = answered_inline + accepted +
/// bad_requests + not_admitted`, and the cache counts one lookup per
/// decoded request with `misses == entries`.
#[test]
fn inline_and_worker_counters_add_up_on_a_mixed_stream() {
    const FLAGS: &[&str] = &["consent", "exigent", "plain-view", "probation", "rate-only"];
    let service = start_service(2, 64, AdmissionPolicy::Block);
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");
    let client = WireClient::connect(server.local_addr()).expect("dial");

    let mut payloads = Vec::new();
    for i in 0..240usize {
        let payload = match i % 8 {
            // Bad requests: broken JSON and an unknown actor.
            0 => br#"{"actor": "leo""#.to_vec(),
            1 => br#"{"actor": "martian"}"#.to_vec(),
            // Misses at first: a new fact pattern per flag and line.
            2 => format!(
                r#"{{"actor": "leo", "data": "content", "when": "stored", "where": "device", "flags": ["{}"]}}"#,
                FLAGS[(i / 8) % FLAGS.len()]
            )
            .into_bytes(),
            // Repeats of a small hot set.
            _ => LINES[i % LINES.len()].as_bytes().to_vec(),
        };
        payloads.push(payload);
    }
    let calls: Vec<_> = payloads
        .iter()
        .map(|p| client.submit(p.clone(), 0).expect("submit"))
        .collect();
    let mut bad = 0u64;
    for call in calls {
        match call.wait().expect("answered").status {
            Status::Ok => {}
            Status::BadRequest => bad += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    drop(client);
    let wire = server.shutdown().metrics;
    let service = Arc::try_unwrap(service).expect("sole owner");
    let stats = service.cache().stats();
    let finals = service.shutdown();

    assert_eq!(wire.frames_in, payloads.len() as u64);
    assert_eq!(wire.bad_requests, bad);
    assert_eq!(
        wire.frames_in,
        wire.answered_inline + finals.accepted + wire.bad_requests + wire.not_admitted,
        "{wire}"
    );
    assert!(wire.answered_inline > 0, "no hit was answered inline");
    assert!(finals.accepted > 0, "no miss reached the service");
    assert_eq!(stats.misses, stats.entries, "{stats}");
    assert_eq!(stats.lookups(), wire.answered_inline + finals.accepted);
}
