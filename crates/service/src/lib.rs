//! # service — `lexforensica-serve`
//!
//! An in-process compliance *service*: the long-running, load-tolerant
//! request server over the `forensic-law` engine that the one-shot CLI
//! and bench invocations were missing.
//!
//! A provider facing a stream of law-enforcement compliance requests
//! (the cloud-forensic-readiness framing in PAPERS.md) has to queue,
//! triage, and answer under time pressure — and say *no* gracefully when
//! saturated. This crate supplies that spine, std-only:
//!
//! * [`mpmc`] — [`MpmcRing`], the admission queue: a lock-free bounded
//!   MPMC ring (claim-then-publish per-slot sequencing, parked-waiter
//!   fallback for blocking paths) with an explicit [`AdmissionPolicy`]
//!   (`Block`, `Reject` — shed load with a typed error — or
//!   `DropOldest`).
//! * [`service`] — [`ComplianceService`]: a worker pool draining the
//!   queue through a shared sharded `VerdictCache`, per-request
//!   deadlines (stale requests are answered `TimedOut` without burning
//!   an engine run), and graceful shutdown that drains in-flight work.
//!   Every admitted request gets exactly one response.
//! * [`metrics`] — lock-free counters and fixed-bucket latency
//!   histograms (queue wait, engine time, end-to-end) with p50/p95/p99
//!   extraction and a single-line JSON snapshot emitter.
//! * [`cli`] — the std-only `--flag value` parser shared with the bench
//!   drivers and the `lexforensica` binary.
//!
//! ```
//! use service::prelude::*;
//! use forensic_law::scenarios::table1;
//!
//! let srv = ComplianceService::start(ServiceConfig {
//!     workers: 2,
//!     capacity: 64,
//!     policy: AdmissionPolicy::Reject,
//!     ..ServiceConfig::default()
//! });
//! let action = table1()[0].action().clone();
//! let ticket = srv.submit(action).expect("under capacity");
//! assert!(ticket.wait().outcome.assessment().is_some());
//! let finals = srv.shutdown();
//! assert_eq!(finals.responses(), finals.accepted);
//! ```

// `deny` rather than `forbid`: the lock-free MPMC admission ring needs
// `UnsafeCell` slot storage, scoped behind a module-level allow with the
// safety argument documented at each site. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod metrics;
pub mod mpmc;
pub mod service;

pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use mpmc::{AdmissionPolicy, MpmcRing, PushError};
pub use service::{
    ComplianceService, ObservedRejection, Outcome, ResponseObserver, ServiceConfig,
    ServiceResponse, SubmitError, Ticket,
};

/// The names most callers want in scope.
pub mod prelude {
    pub use crate::metrics::MetricsSnapshot;
    pub use crate::mpmc::AdmissionPolicy;
    pub use crate::service::{
        ComplianceService, ObservedRejection, Outcome, ResponseObserver, ServiceConfig,
        ServiceResponse, SubmitError, Ticket,
    };
}
