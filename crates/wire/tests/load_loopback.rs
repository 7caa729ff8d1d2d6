//! Loopback tests for the `wire::load` driver core: a real server, a
//! scripted [`LoadSource`], exactly-once completion accounting, and
//! due-time pacing.

use forensic_law::spec::ActionSpec;
use service::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::load::{self, LoadRequest};
use wire::prelude::*;

const LINES: &[&str] = &[
    r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp", "describe": "pen/trap stream"}"#,
    r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "isp", "describe": "live interception"}"#,
    r#"{"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider", "describe": "subscriber records"}"#,
    r#"{"actor": "admin", "data": "headers", "when": "realtime", "where": "own-network", "describe": "ops review"}"#,
];

fn expected_verdict(line: &str) -> String {
    let action = ActionSpec::from_json_line(line)
        .and_then(|spec| spec.to_action())
        .expect("fixture line parses");
    let assessment = forensic_law::engine::assess(&action);
    format!("{} [{}]", assessment.verdict(), assessment.confidence())
}

/// Emits `per_conn` requests on each connection (global ids), expects
/// every verdict to match a local engine run, and records completions.
struct ScriptedSource {
    per_conn: usize,
    /// Next request index per connection.
    cursor: Vec<usize>,
    /// Fixed due time applied to every request (0 = max pacing).
    due_us: u64,
    completed: HashSet<u64>,
}

impl ScriptedSource {
    fn new(connections: usize, per_conn: usize, due_us: u64) -> Self {
        Self {
            per_conn,
            cursor: vec![0; connections],
            due_us,
            completed: HashSet::new(),
        }
    }

    fn id(&self, conn: usize, i: usize) -> u64 {
        (conn * self.per_conn + i) as u64
    }
}

impl LoadSource for ScriptedSource {
    fn next(&mut self, conn: usize) -> Option<LoadRequest> {
        let i = self.cursor[conn];
        if i == self.per_conn {
            return None;
        }
        self.cursor[conn] = i + 1;
        let line = LINES[(conn + i) % LINES.len()];
        Some(LoadRequest {
            id: self.id(conn, i),
            payload: line.as_bytes().to_vec(),
            due_us: self.due_us,
        })
    }

    fn complete(&mut self, conn: usize, id: u64, status: Status, payload: &[u8], rtt: Duration) {
        assert!(rtt > Duration::ZERO, "round trip must be measured");
        assert_eq!(status, Status::Ok, "request {id} failed");
        let i = (id as usize) % self.per_conn;
        assert_eq!(
            (id as usize) / self.per_conn,
            conn,
            "completion routed to the wrong connection"
        );
        let line = LINES[(conn + i) % LINES.len()];
        assert_eq!(
            String::from_utf8_lossy(payload),
            expected_verdict(line),
            "request {id} verdict differs from a local engine run"
        );
        assert!(self.completed.insert(id), "request {id} completed twice");
    }
}

fn start_server() -> (Arc<ComplianceService>, EventServer) {
    let service = Arc::new(ComplianceService::start(ServiceConfig {
        workers: 2,
        capacity: 256,
        policy: AdmissionPolicy::Block,
        ..ServiceConfig::default()
    }));
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");
    (service, server)
}

#[test]
fn drive_completes_every_request_exactly_once_at_max_pacing() {
    let (service, server) = start_server();
    let (connections, per_conn) = (6, 40);
    let mut source = ScriptedSource::new(connections, per_conn, 0);
    load::drive(server.local_addr(), connections, 8, &mut source).expect("drive");
    assert_eq!(source.completed.len(), connections * per_conn);
    server.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}

#[test]
fn drive_honors_due_times() {
    let (service, server) = start_server();
    // Every request due 60ms in: the whole drive cannot finish sooner.
    let mut source = ScriptedSource::new(2, 4, 60_000);
    let t0 = Instant::now();
    let wall = load::drive(server.local_addr(), 2, 4, &mut source).expect("drive");
    assert!(
        t0.elapsed() >= Duration::from_millis(60),
        "paced requests were sent early"
    );
    assert!(wall >= Duration::from_millis(60));
    assert_eq!(source.completed.len(), 8);
    server.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
}
