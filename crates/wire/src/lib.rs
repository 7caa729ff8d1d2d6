//! # wire — `lexforensica-wire`
//!
//! A std-only TCP serving layer over the compliance service: the
//! network front end that turns the in-process
//! [`ComplianceService`](service::ComplianceService) into something a
//! remote requester — the law-enforcement/provider interface the source
//! paper's legal analysis keeps returning to — can actually dial.
//!
//! Everything here is `std::net` plus a dep-free epoll/eventfd shim; no
//! external dependencies, no async runtime. The crate is Linux-only,
//! and says so at compile time.
//!
//! * [`frame`] — the length-prefixed binary protocol: request frames
//!   carry a client-chosen id, a per-request deadline, and one JSONL
//!   action specification; response frames echo the id with a status
//!   byte, service timings, and the verdict line. Oversized length
//!   prefixes are refused before allocation; torn frames are
//!   distinguished from clean EOF.
//! * [`event_server`] — [`EventServer`]: a single epoll readiness loop
//!   over [`sys`]'s dep-free syscall shim: per-connection state
//!   machines, batched frame decode, vectored-write coalescing, and an
//!   eventfd completion doorbell. Requests **pipeline** — responses
//!   complete out of order, matched by id — under a per-connection
//!   in-flight cap, with idle timeouts and a graceful drain that loses
//!   nothing admitted. Two threads total regardless of connection
//!   count — the C10K server.
//! * [`client`] — [`WireClient`]: a thread-safe
//!   pipelining client (submit returns a [`PendingCall`];
//!   a reader thread routes responses back by id).
//! * [`load`] — the load-generation core: one epoll driver thread
//!   sustaining thousands of pipelined in-flight requests across many
//!   connections, pulling work from a [`LoadSource`] with optional
//!   microsecond pacing. Shared by the `wire_load` bench sweep and
//!   journal replay.
//! * [`metrics`] — connection-level counters and a wire-latency
//!   histogram in the same snapshot/JSON model as the service metrics.
//!
//! ```no_run
//! use service::prelude::*;
//! use std::sync::Arc;
//! use wire::prelude::*;
//!
//! let service = Arc::new(ComplianceService::start(ServiceConfig::default()));
//! let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
//!     .expect("bind loopback");
//!
//! let client = WireClient::connect(server.local_addr()).expect("dial");
//! let line = br#"{"actor": "leo", "directed": "provider", "data": "content", "when": "prospective", "where": "domestic", "describe": "wiretap"}"#;
//! let response = client.roundtrip(line.to_vec(), 0).expect("round trip");
//! println!("{}: {}", response.status, String::from_utf8_lossy(&response.payload));
//!
//! server.shutdown();
//! if let Ok(service) = Arc::try_unwrap(service) {
//!     service.shutdown();
//! }
//! ```

// `deny` rather than `forbid`: the [`sys`] epoll/eventfd shim needs two
// foreign functions' worth of `unsafe`, scoped behind a module-level
// allow with the safety argument documented at each site. Everything
// else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(not(target_os = "linux"))]
compile_error!("the wire crate is Linux-only: it serves and drives load over epoll and eventfd");

pub mod client;
pub(crate) mod conn;
pub mod event_server;
pub mod frame;
pub mod load;
pub mod metrics;
pub mod sys;

pub use client::{PendingCall, PendingPlan, WireClient, WireError};
pub use event_server::{compaction_retention, EventServer, ExplainSink, WireConfig};
pub use frame::{
    Frame, FrameError, PlanRequest, PlanResponse, Request, Response, Status, StreamDecoder,
    MAX_FRAME,
};
pub use load::{LoadRequest, LoadSource};
pub use metrics::{WireMetrics, WireMetricsSnapshot};

/// The names most callers want in scope.
pub mod prelude {
    pub use crate::client::{PendingCall, PendingPlan, WireClient, WireError};
    pub use crate::event_server::{EventServer, ExplainSink, WireConfig};
    pub use crate::frame::{
        Frame, FrameError, PlanRequest, PlanResponse, Request, Response, Status,
    };
    pub use crate::load::{LoadRequest, LoadSource};
    pub use crate::metrics::WireMetricsSnapshot;
}
