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
