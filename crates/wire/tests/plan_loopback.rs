//! Mixed-version loopback for the v3 planning frames: v1, v2, and v3
//! requests interleaved on one live connection to the epoll event
//! server.
//!
//! The versioning contract under test: pre-v3 clients are untouched —
//! v1 and v2 frames keep their exact byte layouts and response
//! semantics with v3 traffic pipelined between them — and plan
//! responses over the wire are byte-identical to an in-process
//! [`planner::Planner`] solve of the same problem.

use forensic_law::spec::ActionSpec;
use planner::{parse_problem, Planner};
use service::prelude::*;
use std::net::SocketAddr;
use std::sync::Arc;
use wire::frame::{self, Frame, PlanRequest, Request};
use wire::prelude::*;

/// A solvable planning problem: one subpoena rung plus the collect.
const SOLVABLE: &str = r#"
{"start": {"standard": "mere-suspicion"}}
{"goal": "subscriber records", "collect": {"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider"}}
"#;

/// A wiretap goal with no way to raise the showing: no lawful path.
const UNREACHABLE: &str = r#"
{"start": {"standard": "probable-cause"}}
{"goal": "live audio", "collect": {"actor": "leo", "data": "content", "when": "realtime", "where": "isp"}}
"#;

/// Line 2 is not JSON; line 3 names an unknown directive.
const MALFORMED: &str = r#"{"start": {"standard": "mere-suspicion"}}
not json at all
{"gaol": "typo"}
"#;

/// A valid v1/v2 action line.
const ACTION: &str = r#"{"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider", "describe": "subscriber records"}"#;

fn start_service() -> Arc<ComplianceService> {
    Arc::new(ComplianceService::start(ServiceConfig {
        workers: 2,
        capacity: 64,
        policy: AdmissionPolicy::Block,
        ..ServiceConfig::default()
    }))
}

/// The verdict line a local engine run produces for `line`.
fn expected_verdict(line: &str) -> String {
    let action = ActionSpec::from_json_line(line)
        .and_then(|spec| spec.to_action())
        .expect("fixture line parses");
    let assessment = forensic_law::engine::assess(&action);
    format!("{} [{}]", assessment.verdict(), assessment.confidence())
}

/// The rendering an in-process solve of `problem` produces — the byte
/// reference every wire plan response is pinned against.
fn expected_plan(problem: &str) -> String {
    let problem = parse_problem(problem.as_bytes()).expect("fixture problem parses");
    Planner::new().solve(&problem).expect("solves").render()
}

/// The whole mixed-version conversation, against whichever server is
/// listening at `addr`: v1, v2, and v3 calls pipelined together on one
/// client, every answer checked in its own protocol version.
fn exercise_mixed_versions(addr: SocketAddr) {
    let client = WireClient::connect(addr).expect("dial");

    // Pipeline all three versions before waiting on any of them.
    let v1 = client
        .submit(ACTION.as_bytes().to_vec(), 0)
        .expect("v1 submit");
    let v2 = client
        .submit_explained(ACTION.as_bytes().to_vec(), 0)
        .expect("v2 submit");
    let v3 = client
        .submit_plan(SOLVABLE.as_bytes().to_vec(), 0)
        .expect("v3 submit");
    let v3_dead_end = client
        .submit_plan(UNREACHABLE.as_bytes().to_vec(), 0)
        .expect("v3 dead-end submit");
    let v3_bad = client
        .submit_plan(MALFORMED.as_bytes().to_vec(), 0)
        .expect("v3 malformed submit");
    let v1_after = client
        .submit(ACTION.as_bytes().to_vec(), 0)
        .expect("v1 resubmit");

    let response = v1.wait().expect("v1 answered");
    assert_eq!(response.status, Status::Ok);
    assert!(response.explain.is_none(), "v1 response grew an explain");
    assert_eq!(
        String::from_utf8(response.payload).expect("utf-8"),
        expected_verdict(ACTION)
    );

    let response = v2.wait().expect("v2 answered");
    assert_eq!(response.status, Status::Ok);
    let explain = response.explain.expect("v2 explain section");
    assert!(!explain.provenance.is_empty());

    let response = v3.wait().expect("v3 answered");
    assert_eq!(response.status, Status::Ok);
    let rendering = String::from_utf8(response.payload).expect("utf-8 plan");
    assert_eq!(
        rendering,
        expected_plan(SOLVABLE),
        "wire plan differs from an in-process solve"
    );
    assert!(rendering.starts_with("plan:"), "{rendering}");

    let response = v3_dead_end.wait().expect("v3 dead end answered");
    // "No lawful path" is a successful answer, not an error: the
    // search terminated and the payload names the blocking rule.
    assert_eq!(response.status, Status::Ok);
    let rendering = String::from_utf8(response.payload).expect("utf-8 dead end");
    assert_eq!(rendering, expected_plan(UNREACHABLE));
    assert!(rendering.starts_with("no lawful path:"), "{rendering}");
    assert!(rendering.contains("blocking rule:"), "{rendering}");

    let response = v3_bad.wait().expect("v3 malformed answered");
    assert_eq!(response.status, Status::BadRequest);
    let errors = String::from_utf8(response.payload).expect("utf-8 errors");
    assert!(errors.contains("line 2"), "missing line number: {errors}");
    assert!(errors.contains("line 3"), "missing line number: {errors}");

    let response = v1_after.wait().expect("v1 after v3 answered");
    assert_eq!(response.status, Status::Ok, "v3 traffic broke a v1 call");
}

#[test]
fn event_server_answers_v1_v2_v3_interleaved() {
    let service = start_service();
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");
    exercise_mixed_versions(server.local_addr());
    let report = server.shutdown();
    assert_eq!(report.metrics.frames_in, 6);
    assert_eq!(report.metrics.frames_out, 6);
    assert_eq!(report.metrics.protocol_errors, 0);
    assert_eq!(report.metrics.bad_requests, 1);
    Arc::try_unwrap(service).expect("sole owner").shutdown();
}

/// The byte-identity pin for pre-v3 clients: v1 and v2 request frames
/// hand-assembled from the documented layouts must equal today's
/// encoder output bit for bit — adding kinds 5/6 must not have moved a
/// single pre-v3 byte.
#[test]
fn pre_v3_frames_are_byte_identical_to_the_documented_layouts() {
    // v1: [len u32][kind=1][id u64][deadline u32][payload].
    let mut v1 = vec![1u8];
    v1.extend_from_slice(&9u64.to_be_bytes());
    v1.extend_from_slice(&250u32.to_be_bytes());
    v1.extend_from_slice(ACTION.as_bytes());
    let mut framed_v1 = (v1.len() as u32).to_be_bytes().to_vec();
    framed_v1.extend_from_slice(&v1);
    assert_eq!(
        framed_v1,
        frame::encode(&Frame::Request(Request {
            id: 9,
            deadline_ms: 250,
            want_explain: false,
            payload: ACTION.as_bytes().to_vec(),
        })),
        "v1 request layout moved"
    );

    // v2: [len u32][kind=3][id u64][deadline u32][flags=1][payload].
    let mut v2 = vec![3u8];
    v2.extend_from_slice(&10u64.to_be_bytes());
    v2.extend_from_slice(&0u32.to_be_bytes());
    v2.push(1u8);
    v2.extend_from_slice(ACTION.as_bytes());
    let mut framed_v2 = (v2.len() as u32).to_be_bytes().to_vec();
    framed_v2.extend_from_slice(&v2);
    assert_eq!(
        framed_v2,
        frame::encode(&Frame::Request(Request {
            id: 10,
            deadline_ms: 0,
            want_explain: true,
            payload: ACTION.as_bytes().to_vec(),
        })),
        "v2 request layout moved"
    );

    // And the v3 layout is exactly the documented one:
    // [len u32][kind=5][id u64][deadline u32][payload].
    let mut v3 = vec![5u8];
    v3.extend_from_slice(&11u64.to_be_bytes());
    v3.extend_from_slice(&0u32.to_be_bytes());
    v3.extend_from_slice(SOLVABLE.as_bytes());
    let mut framed_v3 = (v3.len() as u32).to_be_bytes().to_vec();
    framed_v3.extend_from_slice(&v3);
    assert_eq!(
        framed_v3,
        frame::encode(&Frame::PlanRequest(PlanRequest {
            id: 11,
            deadline_ms: 0,
            payload: SOLVABLE.as_bytes().to_vec(),
        })),
        "v3 request layout drifted from its docs"
    );
}
