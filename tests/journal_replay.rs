//! E2e replay differential for the durable request journal: a live
//! `serve --tcp`-equivalent wire session is journaled through
//! [`EventServer::start_with_sinks`], then the journal is replayed
//! through the in-process [`BatchAssessor`] and every verdict must match
//! the journaled bytes byte-for-byte — the replay-driven regression
//! oracle from DESIGN.md §10 exercised at workspace level. A second
//! test races a mid-load graceful drain against the group-commit writer
//! and requires that every response a client actually received has a
//! matching journal record (no acknowledged-but-unjournaled verdicts).

use journal::{read_all, Journal, JournalConfig, Mode, SyncPolicy};
use lexforensica::law::batch::BatchAssessor;
use lexforensica::law::prelude::*;
use lexforensica::law::spec::parse_jsonl;
use service::prelude::*;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
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

/// A payload the spec parser must reject — exercises the bad-request
/// journal path alongside the verdict path.
const MALFORMED: &str = r#"{"actor": "leo", "data":"#;

/// A scratch journal directory unique to this test process.
fn journal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lxj-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `line -> verdict_line` computed through the official batch path —
/// exactly what `assess-batch` prints between line number and summary.
fn expected_verdicts() -> HashMap<&'static [u8], String> {
    let input = LINES.join("\n");
    let batch = parse_jsonl(input.as_bytes());
    assert!(batch.is_clean(), "fixture lines must parse");
    let actions: Vec<InvestigativeAction> = batch.lines.iter().map(|l| l.action.clone()).collect();
    let assessments = BatchAssessor::new().assess_all(&actions);
    LINES
        .iter()
        .zip(&assessments)
        .map(|(line, a)| (line.as_bytes(), a.verdict_line()))
        .collect()
}

/// Journal a pipelined multi-connection wire session (including
/// malformed payloads), then replay the journal: every `ok` record's
/// request must re-assess to the exact journaled verdict bytes, every
/// `bad-request` record must still fail to parse, sequence numbers must
/// be contiguous from 1, and rotation must have produced multiple
/// segments.
#[test]
fn journaled_wire_session_replays_byte_identical_to_assess_batch() {
    const CONNECTIONS: usize = 4;
    const PER_CONNECTION: usize = 32;

    let dir = journal_dir("differential");
    let expected = expected_verdicts();

    let (journal, recovery) = Journal::open(
        &dir,
        JournalConfig {
            // Tiny segments so a ~128-record session rotates repeatedly.
            segment_bytes: 2048,
            sync: SyncPolicy::GroupCommit,
            ..JournalConfig::default()
        },
    )
    .expect("open fresh journal");
    assert_eq!(recovery.next_seq, 1, "fresh directory starts at seq 1");
    let journal = Arc::new(journal);

    let service = Arc::new(ComplianceService::start(ServiceConfig {
        workers: 4,
        capacity: 128,
        policy: AdmissionPolicy::Block,
        ..ServiceConfig::default()
    }));
    let server = EventServer::start_with_sinks(
        "127.0.0.1:0",
        Arc::clone(&service),
        WireConfig::default(),
        None,
        Some(Arc::clone(&journal)),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            let expected = &expected;
            scope.spawn(move || {
                let client = WireClient::connect(addr).expect("dial");
                let calls: Vec<_> = (0..PER_CONNECTION)
                    .map(|i| {
                        // Every 8th request is malformed; the rest walk
                        // the fixture pool.
                        let line = if i % 8 == 7 {
                            MALFORMED
                        } else {
                            LINES[(c + i) % LINES.len()]
                        };
                        (
                            line,
                            client.submit(line.as_bytes().to_vec(), 0).expect("submit"),
                        )
                    })
                    .collect();
                for (line, call) in calls {
                    let response = call.wait().expect("answered");
                    if line == MALFORMED {
                        assert_eq!(response.status, Status::BadRequest);
                    } else {
                        assert_eq!(response.status, Status::Ok);
                        assert_eq!(
                            String::from_utf8(response.payload).expect("utf-8"),
                            expected[line.as_bytes()],
                            "wire verdict differs from assess-batch"
                        );
                    }
                }
            });
        }
    });

    let metrics = server.shutdown().metrics;
    let total = (CONNECTIONS * PER_CONNECTION) as u64;
    assert_eq!(metrics.frames_in, total);
    assert_eq!(metrics.frames_out, total);
    let finals = Arc::try_unwrap(service).expect("last handle").shutdown();
    assert_eq!(finals.responses(), finals.accepted);
    Arc::try_unwrap(journal)
        .expect("server joined; last journal handle")
        .close()
        .expect("journal closes clean");

    // --- Replay: the journal is now the only input. ---
    let (records, truncation) = read_all(&dir, Mode::Strict).expect("strict scan is clean");
    assert!(truncation.is_none(), "strict mode never truncates");
    assert_eq!(records.len() as u64, total, "one record per answered frame");
    for (i, record) in records.iter().enumerate() {
        assert_eq!(record.seq, i as u64 + 1, "sequence numbers are contiguous");
    }
    let segments = std::fs::read_dir(&dir)
        .expect("journal dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "lxj"))
        .count();
    assert!(segments > 1, "2 KiB segments must rotate, got {segments}");
    let traces: HashSet<u64> = records.iter().map(|r| r.trace.as_u64()).collect();
    assert_eq!(traces.len(), records.len(), "trace ids are distinct");

    let mut ok_records = Vec::new();
    let mut bad = 0usize;
    for record in &records {
        match Status::from_byte(record.status) {
            Some(Status::Ok) => {
                let batch = parse_jsonl(&record.request);
                assert!(
                    batch.is_clean() && batch.lines.len() == 1,
                    "seq {}: journaled ok request no longer parses",
                    record.seq
                );
                ok_records.push((record, batch.lines[0].action.clone()));
            }
            Some(Status::BadRequest) => {
                let batch = parse_jsonl(&record.request);
                assert!(
                    !batch.is_clean() || batch.lines.is_empty(),
                    "seq {}: journaled bad-request now parses",
                    record.seq
                );
                bad += 1;
            }
            status => panic!("seq {}: unexpected status {status:?}", record.seq),
        }
    }
    assert_eq!(
        bad,
        CONNECTIONS * PER_CONNECTION / 8,
        "all malformed journaled"
    );

    let actions: Vec<InvestigativeAction> = ok_records
        .iter()
        .map(|(_, action)| action.clone())
        .collect();
    let assessments = BatchAssessor::new().assess_all(&actions);
    for ((record, _), assessment) in ok_records.iter().zip(&assessments) {
        assert_eq!(
            assessment.verdict_line().as_bytes(),
            &record.verdict[..],
            "seq {}: replayed verdict diverges from journal",
            record.seq
        );
    }

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Mid-load graceful drain with the journal attached: raw-frame clients
/// (globally unique ids) blast requests while the server drains. After
/// the drain and a clean journal close, the multiset of
/// `(status, request)` pairs in the journal must equal the multiset of
/// responses the clients actually received — every acknowledged verdict
/// is durable, nothing is journaled twice — and every `ok` record's
/// verdict must match the batch oracle.
#[test]
fn graceful_drain_journals_every_acknowledged_response() {
    const CONNECTIONS: usize = 8;
    const PER_CONNECTION: u64 = 50;

    let dir = journal_dir("drain");
    let expected = expected_verdicts();

    let (journal, _) = Journal::open(
        &dir,
        JournalConfig {
            segment_bytes: 4096,
            sync: SyncPolicy::GroupCommit,
            ..JournalConfig::default()
        },
    )
    .expect("open fresh journal");
    let journal = Arc::new(journal);

    let service = Arc::new(ComplianceService::start(ServiceConfig {
        workers: 2,
        capacity: 256,
        policy: AdmissionPolicy::Block,
        engine_floor: Duration::from_millis(1),
        ..ServiceConfig::default()
    }));
    let server = EventServer::start_with_sinks(
        "127.0.0.1:0",
        Arc::clone(&service),
        WireConfig {
            read_tick: Duration::from_millis(5),
            ..WireConfig::default()
        },
        None,
        Some(Arc::clone(&journal)),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let start = Arc::new(Barrier::new(CONNECTIONS + 1));
    // Everything the clients actually got back: (status byte, request
    // payload the id maps to).
    type Delivered = Vec<(u8, &'static [u8])>;
    let received: Arc<Mutex<Delivered>> = Arc::new(Mutex::new(Vec::new()));

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
                        if stream.write_all(&frame::encode(&frame)).is_err() {
                            break;
                        }
                    }
                    let _ = stream.flush();
                    let mut got = Vec::new();
                    loop {
                        match frame::read_frame(&mut stream, wire::MAX_FRAME) {
                            Ok(Some(Frame::Response(response))) => {
                                let i = response.id % 1_000_000;
                                got.push((
                                    response.status.as_byte(),
                                    LINES[(i % LINES.len() as u64) as usize].as_bytes(),
                                ));
                            }
                            Ok(Some(_)) => panic!("server sent a non-response frame"),
                            Ok(None) => break,
                            Err(e) => panic!("connection {c} torn down uncleanly: {e}"),
                        }
                    }
                    received.lock().expect("lock").extend(got);
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
        let received = received.lock().expect("lock");
        assert!(!received.is_empty(), "drain landed before any response");
        assert_eq!(metrics.frames_out, received.len() as u64);
    });

    let finals = Arc::try_unwrap(service).expect("last handle").shutdown();
    assert_eq!(finals.responses(), finals.accepted);
    Arc::try_unwrap(journal)
        .expect("last journal handle")
        .close()
        .expect("journal closes clean");

    let (records, truncation) = read_all(&dir, Mode::Strict).expect("strict scan is clean");
    assert!(truncation.is_none());

    // Multiset equality: journal contents == delivered responses.
    let mut ledger: HashMap<(u8, &[u8]), i64> = HashMap::new();
    for (status, request) in received.lock().expect("lock").iter() {
        *ledger.entry((*status, request)).or_insert(0) += 1;
    }
    assert_eq!(
        records.len(),
        ledger.values().sum::<i64>() as usize,
        "journal record count != delivered response count"
    );
    for record in &records {
        let key = (record.status, &record.request[..]);
        let slot = ledger.get_mut(&key).unwrap_or_else(|| {
            panic!(
                "seq {}: journal record was never delivered to a client",
                record.seq
            )
        });
        *slot -= 1;
        assert!(
            *slot >= 0,
            "seq {}: journaled more often than delivered",
            record.seq
        );
        if Status::from_byte(record.status) == Some(Status::Ok) {
            assert_eq!(
                expected[&record.request[..]].as_bytes(),
                &record.verdict[..],
                "seq {}: journaled verdict diverges from batch oracle",
                record.seq
            );
        }
    }
    assert!(
        ledger.values().all(|&n| n == 0),
        "a delivered response has no journal record: {ledger:?}"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
