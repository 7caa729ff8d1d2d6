//! Stress tests: producers and consumers racing shutdown.
//!
//! The service's headline invariant is that every *accepted* request
//! receives exactly one response — completed, timed out, or shed — even
//! when admission closes mid-stream. These tests hammer that invariant:
//! many short runs (each a fresh service, racing producers, and a
//! shutdown fired at an arbitrary point) rather than one long run, so
//! the close lands at a different phase of the pipeline every time.
//!
//! Double-fulfilment is structurally impossible (the response slot
//! panics on a second write, which would fail the run), so the checks
//! here focus on *lost* responses, accounting identities, and deadlock
//! freedom (the test completing at all).

use forensic_law::scenarios::table1;
use service::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const RUNS: usize = 120;
const PRODUCERS: usize = 3;
const PER_PRODUCER: usize = 25;

/// One racy run: producers submit while the main thread closes admission
/// at a phase that varies with `run`. Returns (accepted, responses by
/// kind) — the caller checks the books balance.
fn racy_run(run: usize, policy: AdmissionPolicy) -> (u64, u64, u64, u64) {
    let actions: Vec<_> = table1().iter().map(|s| s.action().clone()).collect();
    let srv = ComplianceService::start(ServiceConfig {
        workers: 2,
        capacity: 8,
        policy,
        // A tight deadline on some runs so TimedOut responses appear in
        // the mix; generous on others so Completed dominates.
        default_deadline: Some(Duration::from_micros(if run.is_multiple_of(3) {
            50
        } else {
            50_000
        })),
        engine_floor: Duration::ZERO,
    });

    let completed = AtomicU64::new(0);
    let timed_out = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let accepted = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let srv = &srv;
            let actions = &actions;
            let (completed, timed_out, shed, accepted) = (&completed, &timed_out, &shed, &accepted);
            scope.spawn(move || {
                let mut tickets = Vec::new();
                for i in 0..PER_PRODUCER {
                    let action = actions[(p * PER_PRODUCER + i) % actions.len()].clone();
                    match srv.submit(action) {
                        Ok(ticket) => {
                            accepted.fetch_add(1, Ordering::Relaxed);
                            tickets.push(ticket);
                        }
                        // Shed or raced with close — either way, no
                        // ticket exists and no response is owed.
                        Err(SubmitError::Overloaded) => {}
                        Err(SubmitError::ShuttingDown) => break,
                    }
                }
                // Every ticket must resolve exactly once; `wait` consumes
                // the ticket, so a second wait cannot even be written.
                for ticket in tickets {
                    match ticket.wait().outcome {
                        Outcome::Completed(_) => completed.fetch_add(1, Ordering::Relaxed),
                        Outcome::TimedOut => timed_out.fetch_add(1, Ordering::Relaxed),
                        Outcome::Shed => shed.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }

        // Vary when the close lands relative to the producers: sometimes
        // immediately, sometimes mid-stream, sometimes after they finish.
        if run % 4 != 3 {
            std::thread::sleep(Duration::from_micros((run as u64 % 7) * 120));
            srv.close();
        }
    });

    let finals = srv.shutdown();
    assert_eq!(
        finals.accepted,
        accepted.load(Ordering::Relaxed),
        "service and producers disagree on admissions"
    );
    (
        accepted.load(Ordering::Relaxed),
        completed.load(Ordering::Relaxed),
        timed_out.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
    )
}

/// 100+ racy shutdowns under each policy: no deadlock (the loop
/// finishes), no lost responses, and the accounting identity
/// `accepted == completed + timed_out + shed` holds every single run.
#[test]
fn every_accepted_request_gets_exactly_one_response_across_racy_shutdowns() {
    for policy in [
        AdmissionPolicy::Block,
        AdmissionPolicy::Reject,
        AdmissionPolicy::DropOldest,
    ] {
        let mut saw_accepts = false;
        for run in 0..RUNS {
            let (accepted, completed, timed_out, shed) = racy_run(run, policy);
            assert_eq!(
                accepted,
                completed + timed_out + shed,
                "{policy}: run {run} lost a response"
            );
            saw_accepts |= accepted > 0;
            if policy != AdmissionPolicy::DropOldest {
                assert_eq!(shed, 0, "{policy} must never shed accepted requests");
            }
        }
        assert!(saw_accepts, "{policy}: stress never admitted anything");
    }
}

/// Shutdown with a completely idle service returns immediately with
/// clean books — the degenerate race.
#[test]
fn idle_shutdown_is_clean() {
    for _ in 0..100 {
        let srv = ComplianceService::start(ServiceConfig {
            workers: 4,
            capacity: 4,
            ..ServiceConfig::default()
        });
        let finals = srv.shutdown();
        assert_eq!(finals.accepted, 0);
        assert_eq!(finals.responses(), 0);
    }
}

/// A service dropped without an explicit shutdown still answers
/// everything it accepted (the Drop impl drains).
#[test]
fn dropping_the_service_still_answers_accepted_requests() {
    let actions: Vec<_> = table1().iter().map(|s| s.action().clone()).collect();
    for _ in 0..100 {
        let tickets: Vec<Ticket> = {
            let srv = ComplianceService::start(ServiceConfig {
                workers: 2,
                capacity: 16,
                ..ServiceConfig::default()
            });
            actions
                .iter()
                .take(10)
                .map(|a| srv.submit(a.clone()).expect("under capacity"))
                .collect()
            // srv dropped here, before any ticket is waited on.
        };
        for ticket in tickets {
            assert!(matches!(ticket.wait().outcome, Outcome::Completed(_)));
        }
    }
}
