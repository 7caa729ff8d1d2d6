//! Acceptance tests for the wire subsystem at the workspace level:
//! many concurrent pipelined connections over real loopback TCP, with
//! verdicts cross-checked byte-for-byte against the in-process batch
//! assessor, and exactly-once response accounting across a forced
//! mid-load graceful shutdown.

use lexforensica::law::batch::BatchAssessor;
use lexforensica::law::prelude::*;
use lexforensica::law::spec::parse_jsonl;
use service::prelude::*;
use std::collections::HashSet;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;
use wire::frame::{self, Frame, Request};
use wire::prelude::*;

/// The same JSONL vocabulary the CLI fixtures use.
const LINES: &[&str] = &[
    r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp", "describe": "pen/trap stream"}"#,
    r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "isp", "describe": "live interception"}"#,
    r#"{"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider", "describe": "subscriber records"}"#,
    r#"{"actor": "admin", "data": "headers", "when": "realtime", "where": "own-network", "describe": "ops review"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider", "describe": "stored unopened mail"}"#,
    r#"{"actor": "private", "data": "content", "when": "realtime", "where": "wireless", "describe": "private wifi capture"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored", "where": "device", "flags": ["consent"], "describe": "consented device exam"}"#,
    r#"{"actor": "leo", "data": "records", "when": "stored", "where": "provider", "describe": "transaction records"}"#,
];

/// What `assess-batch` prints between the line number and the summary,
/// computed through the official batch path.
fn batch_verdicts() -> Vec<String> {
    let input = LINES.join("\n");
    let batch = parse_jsonl(input.as_bytes());
    assert!(
        batch.is_clean(),
        "fixture lines must parse: {:?}",
        batch.errors
    );
    let actions: Vec<InvestigativeAction> = batch.lines.iter().map(|l| l.action.clone()).collect();
    BatchAssessor::new()
        .assess_all(&actions)
        .iter()
        .map(|a| format!("{} [{}]", a.verdict(), a.confidence()))
        .collect()
}

/// ≥ 8 concurrent connections, each pipelining its whole request stream
/// before reaping a single response, must produce verdicts byte-identical
/// to the in-process `BatchAssessor` on the same lines.
#[test]
fn eight_pipelined_connections_match_assess_batch_on_the_event_server() {
    const CONNECTIONS: usize = 8;
    const PER_CONNECTION: usize = 32;

    let expected = batch_verdicts();
    let service = Arc::new(ComplianceService::start(ServiceConfig {
        workers: 4,
        capacity: 128,
        policy: AdmissionPolicy::Block,
        ..ServiceConfig::default()
    }));
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            let expected = &expected;
            scope.spawn(move || {
                let client = WireClient::connect(addr).expect("dial");
                let calls: Vec<_> = (0..PER_CONNECTION)
                    .map(|i| {
                        let line = LINES[(c + i) % LINES.len()];
                        client
                            .submit(line.as_bytes().to_vec(), 0)
                            .expect("pipelined submit")
                    })
                    .collect();
                for (i, call) in calls.into_iter().enumerate() {
                    let response = call.wait().expect("answered");
                    assert_eq!(response.status, Status::Ok);
                    assert_eq!(
                        String::from_utf8(response.payload).expect("utf-8"),
                        expected[(c + i) % LINES.len()],
                        "connection {c} request {i}: wire verdict differs from assess-batch"
                    );
                }
            });
        }
    });

    let metrics = server.shutdown().metrics;
    let total = (CONNECTIONS * PER_CONNECTION) as u64;
    assert_eq!(metrics.frames_in, total);
    assert_eq!(metrics.frames_out, total);
    assert_eq!(metrics.protocol_errors, 0);
    let finals = Arc::try_unwrap(service).expect("last handle").shutdown();
    assert_eq!(
        finals.responses(),
        finals.accepted,
        "service lost a response"
    );
}

/// Forced mid-load graceful shutdown: raw-frame clients (globally unique
/// ids) blast requests while the server drains. Every response id must
/// arrive exactly once somewhere, the server's frames_in/frames_out books
/// must equal the count of responses actually delivered (nothing decoded
/// was lost, nothing answered twice), and every connection must end in
/// FIN — never a reset that destroys data.
#[test]
fn mid_load_graceful_shutdown_accounting_holds_on_the_event_server() {
    const CONNECTIONS: usize = 8;
    const PER_CONNECTION: u64 = 50;

    let service = Arc::new(ComplianceService::start(ServiceConfig {
        workers: 2,
        capacity: 256,
        policy: AdmissionPolicy::Block,
        engine_floor: Duration::from_millis(1),
        ..ServiceConfig::default()
    }));
    let server = EventServer::start(
        "127.0.0.1:0",
        Arc::clone(&service),
        WireConfig {
            read_tick: Duration::from_millis(5),
            ..WireConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let start = Arc::new(Barrier::new(CONNECTIONS + 1));
    let received: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNECTIONS as u64)
            .map(|c| {
                let start = Arc::clone(&start);
                let received = Arc::clone(&received);
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("dial raw");
                    stream.set_nodelay(true).expect("nodelay");
                    start.wait();
                    for i in 0..PER_CONNECTION {
                        let frame = Frame::Request(Request {
                            id: c * 1_000_000 + i, // globally unique
                            deadline_ms: 0,
                            want_explain: false,
                            payload: LINES[(i % LINES.len() as u64) as usize].as_bytes().to_vec(),
                        });
                        // Once the drain closes this connection the write
                        // fails; everything sent before that stands.
                        if stream.write_all(&frame::encode(&frame)).is_err() {
                            break;
                        }
                    }
                    let _ = stream.flush();
                    // Reap until the server's FIN. A reset instead of a FIN
                    // is exactly the data-destroying close the drain must
                    // never produce.
                    let mut ids = Vec::new();
                    loop {
                        match frame::read_frame(&mut stream, wire::MAX_FRAME) {
                            Ok(Some(Frame::Response(response))) => ids.push(response.id),
                            Ok(Some(_)) => panic!("server sent a non-response frame"),
                            Ok(None) => break,
                            Err(e) => panic!("connection {c} torn down uncleanly: {e}"),
                        }
                    }
                    received.lock().expect("ids lock").extend(ids);
                })
            })
            .collect();
        // All clients are mid-blast when the drain lands.
        start.wait();
        std::thread::sleep(Duration::from_millis(10));
        let metrics = server.shutdown().metrics;
        for client in clients {
            client.join().expect("client thread");
        }

        let ids = received.lock().expect("ids lock");
        let unique: HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "a response id arrived twice");
        assert_eq!(
            metrics.frames_in,
            ids.len() as u64,
            "a decoded request was never answered (lost across shutdown)"
        );
        assert_eq!(
            metrics.frames_out,
            ids.len() as u64,
            "the server wrote responses that never arrived"
        );
        assert!(
            !ids.is_empty(),
            "shutdown landed before any request was served; not a mid-load drain"
        );
        assert_eq!(metrics.protocol_errors, 0);
    });

    let finals = Arc::try_unwrap(service).expect("last handle").shutdown();
    assert_eq!(
        finals.responses(),
        finals.accepted,
        "service lost a response"
    );
}
