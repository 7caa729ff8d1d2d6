//! # netsim
//!
//! A deterministic, discrete-event, packet-level network simulator — the
//! substrate on which the workspace reproduces the paper's network
//! forensics scenarios. The design centres on the legal axes the paper's
//! Table 1 turns on:
//!
//! * **Layered packets** ([`packet`]): link/IP/transport headers are
//!   separate from payload, so a capture can be scoped to exactly the
//!   non-content layers.
//! * **Scoped capture taps** ([`capture`]): [`CaptureScope::HeadersOnly`]
//!   (pen/trap), [`CaptureScope::FullContent`] (Title III), and
//!   [`CaptureScope::RateOnly`] (the §IV-B watermark posture) are
//!   enforced at the type level — a headers-only tap physically cannot
//!   return payload bytes.
//! * **Determinism** ([`sim`]): the seeded [`simcore::rng`] RNG and a
//!   totally ordered event queue make every experiment regenerable.
//!
//! ## Layering
//!
//! netsim is the packet-level layer over the generic deterministic
//! engine in [`simcore`]: the clock (`simcore::time`), the RNG
//! (`simcore::rng`), and the `(time, seq)`-ordered event queue
//! (`simcore::queue::EventQueue`) all live there; the prelude
//! re-exports the clock and RNG types. netsim adds what is
//! network-specific — topology, layered packets, hop-by-hop routing,
//! capture taps — and the overlay simulators (`p2psim`, `anonsim`,
//! `watermark`) build on netsim's prelude. Node and routing state are
//! bounded per-node/per-link (no all-pairs tables), so overlays scale
//! to 100k–1M nodes.
//!
//! [`CaptureScope::HeadersOnly`]: capture::CaptureScope::HeadersOnly
//! [`CaptureScope::FullContent`]: capture::CaptureScope::FullContent
//! [`CaptureScope::RateOnly`]: capture::CaptureScope::RateOnly
//!
//! ## Example: a pen/trap-scoped tap at an "ISP" router
//!
//! ```
//! use netsim::prelude::*;
//!
//! let mut topo = Topology::new();
//! let home = topo.add_node();
//! let isp = topo.add_node();
//! let server = topo.add_node();
//! topo.connect(home, isp, SimDuration::from_millis(5));
//! topo.connect(isp, server, SimDuration::from_millis(20));
//!
//! let mut sim = Simulator::new(topo, 7);
//! // Headers-only tap at the ISP: sees sizes and addressing, never payload.
//! let tap = sim.add_tap(Tap::new(
//!     TapPoint::Node(isp),
//!     CaptureScope::HeadersOnly,
//!     CaptureFilter::any(),
//! ));
//! sim.set_protocol(home, CbrSource::new(server, FlowId(1), 256, SimDuration::from_millis(50)));
//! sim.set_protocol(server, CountingSink::new());
//! sim.run_until(SimTime::from_secs(1));
//! assert!(sim.tap(tap).len() > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builders;
pub mod capture;
pub mod node;
pub mod packet;
pub mod sim;
pub mod stats;
pub mod traffic;

/// Commonly used items, importable with `use netsim::prelude::*`.
pub mod prelude {
    pub use crate::builders;
    pub use crate::capture::{CaptureFilter, CaptureRecord, CaptureScope, Tap, TapId, TapPoint};
    pub use crate::node::{Link, LinkId, NodeId, Topology};
    pub use crate::packet::{FlowId, Headers, Packet, Transport};
    pub use crate::sim::{Context, Idle, Protocol, SimCounters, Simulator};
    pub use crate::stats::{pearson, quantile, summarize, Classification};
    pub use crate::traffic::{CbrSource, CountingSink, ParetoOnOffSource, PoissonSource};
    pub use simcore::rng::SimRng;
    pub use simcore::time::{SimDuration, SimTime};
}
