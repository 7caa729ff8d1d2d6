//! Capture taps with legally meaningful scopes.
//!
//! The paper's taxonomy turns on *what* a tap records: headers only
//! (pen/trap territory), full content (Title III territory), or mere
//! rates/volumes (the §IV-B watermark posture). A [`Tap`] is pinned to a
//! link or node, filtered, and scoped; the simulator feeds it every
//! matching traversal.

use crate::node::{LinkId, NodeId};
use crate::packet::{FlowId, Headers, Packet};
use simcore::time::{SimDuration, SimTime};
use std::fmt;

/// Where a tap is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TapPoint {
    /// Observes every packet traversing a link.
    Link(LinkId),
    /// Observes every packet arriving at a node (delivered or transiting).
    Node(NodeId),
}

/// How much of each packet the tap records.
///
/// The scope is a *type-level* privacy boundary: a headers-only capture
/// physically cannot yield payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaptureScope {
    /// Link/IP/transport headers and sizes — non-content.
    HeadersOnly,
    /// Headers plus payload — content.
    FullContent,
    /// Only timestamps and byte counts — the weakest, rate-level view.
    RateOnly,
}

/// Predicate restricting which packets a tap records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CaptureFilter {
    /// Match only this source.
    pub src: Option<NodeId>,
    /// Match only this destination.
    pub dst: Option<NodeId>,
    /// Match only this flow.
    pub flow: Option<FlowId>,
}

impl CaptureFilter {
    /// Matches everything.
    pub fn any() -> Self {
        CaptureFilter::default()
    }

    /// Whether a packet passes the filter.
    pub fn matches(&self, packet: &Packet) -> bool {
        self.src.is_none_or(|s| packet.src() == s)
            && self.dst.is_none_or(|d| packet.dst() == d)
            && self.flow.is_none_or(|f| packet.flow() == f)
    }
}

/// One recorded observation, shaped by the tap's scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureRecord {
    /// Headers-only observation.
    Headers {
        /// Observation time.
        at: SimTime,
        /// The recorded headers.
        headers: Headers,
    },
    /// Full-content observation.
    Full {
        /// Observation time.
        at: SimTime,
        /// The whole packet.
        packet: Packet,
    },
    /// Rate-only observation.
    Rate {
        /// Observation time.
        at: SimTime,
        /// On-wire bytes observed.
        bytes: u32,
    },
}

impl CaptureRecord {
    /// The observation timestamp.
    pub fn at(&self) -> SimTime {
        match self {
            CaptureRecord::Headers { at, .. }
            | CaptureRecord::Full { at, .. }
            | CaptureRecord::Rate { at, .. } => *at,
        }
    }

    /// The observed size in bytes.
    pub fn bytes(&self) -> u32 {
        match self {
            CaptureRecord::Headers { headers, .. } => headers.total_len,
            CaptureRecord::Full { packet, .. } => packet.size_bytes(),
            CaptureRecord::Rate { bytes, .. } => *bytes,
        }
    }
}

/// Identifier of an installed tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TapId(pub usize);

impl fmt::Display for TapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tap{}", self.0)
    }
}

/// An installed capture tap and its accumulated log.
#[derive(Debug, Clone)]
pub struct Tap {
    point: TapPoint,
    scope: CaptureScope,
    filter: CaptureFilter,
    records: Vec<CaptureRecord>,
}

impl Tap {
    /// Creates a tap at `point` with `scope`, recording packets matching
    /// `filter`.
    pub fn new(point: TapPoint, scope: CaptureScope, filter: CaptureFilter) -> Self {
        Tap {
            point,
            scope,
            filter,
            records: Vec::new(),
        }
    }

    /// Where the tap sits.
    pub fn point(&self) -> TapPoint {
        self.point
    }

    /// The recording scope.
    pub fn scope(&self) -> CaptureScope {
        self.scope
    }

    /// The filter.
    pub fn filter(&self) -> CaptureFilter {
        self.filter
    }

    /// Offers a packet traversal to the tap (called by the simulator).
    pub(crate) fn observe(&mut self, at: SimTime, packet: &Packet) {
        if !self.filter.matches(packet) {
            return;
        }
        let record = match self.scope {
            CaptureScope::HeadersOnly => CaptureRecord::Headers {
                at,
                headers: packet.headers(),
            },
            CaptureScope::FullContent => CaptureRecord::Full {
                at,
                packet: packet.clone(),
            },
            CaptureScope::RateOnly => CaptureRecord::Rate {
                at,
                bytes: packet.size_bytes(),
            },
        };
        self.records.push(record);
    }

    /// The accumulated records.
    pub fn records(&self) -> &[CaptureRecord] {
        &self.records
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Aggregates observations into a byte-rate time series with bins of
    /// width `bin` covering `[start, start + bin * n_bins)`.
    ///
    /// This is the observable the §IV-B watermark detector consumes: the
    /// traffic *rate*, never packet contents.
    pub fn rate_series(&self, start: SimTime, bin: SimDuration, n_bins: usize) -> Vec<f64> {
        let mut bins = vec![0.0; n_bins];
        if bin == SimDuration::ZERO {
            return bins;
        }
        for r in &self.records {
            let t = r.at();
            if t < start {
                continue;
            }
            let idx = ((t - start).as_nanos() / bin.as_nanos()) as usize;
            if idx < n_bins {
                bins[idx] += r.bytes() as f64;
            }
        }
        let secs = bin.as_secs_f64();
        for b in &mut bins {
            *b /= secs;
        }
        bins
    }

    /// Total observed bytes.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Transport;

    fn pkt(src: usize, dst: usize, flow: u64, payload: usize) -> Packet {
        Packet::new(
            NodeId(src),
            NodeId(dst),
            Transport::Udp {
                src_port: 1,
                dst_port: 2,
            },
            FlowId(flow),
            vec![0; payload],
        )
    }

    #[test]
    fn filter_matching() {
        let f = CaptureFilter {
            src: Some(NodeId(1)),
            dst: None,
            flow: Some(FlowId(7)),
        };
        assert!(f.matches(&pkt(1, 2, 7, 0)));
        assert!(!f.matches(&pkt(2, 2, 7, 0)));
        assert!(!f.matches(&pkt(1, 2, 8, 0)));
        assert!(CaptureFilter::any().matches(&pkt(9, 9, 9, 0)));
    }

    #[test]
    fn headers_scope_drops_payload() {
        let mut tap = Tap::new(
            TapPoint::Link(LinkId(0)),
            CaptureScope::HeadersOnly,
            CaptureFilter::any(),
        );
        tap.observe(SimTime::from_secs(1), &pkt(0, 1, 0, 64));
        match &tap.records()[0] {
            CaptureRecord::Headers { headers, .. } => {
                assert_eq!(headers.total_len, 54 + 64);
            }
            other => panic!("expected headers record, got {other:?}"),
        }
    }

    #[test]
    fn full_scope_keeps_packet() {
        let mut tap = Tap::new(
            TapPoint::Node(NodeId(1)),
            CaptureScope::FullContent,
            CaptureFilter::any(),
        );
        tap.observe(SimTime::ZERO, &pkt(0, 1, 0, 10));
        match &tap.records()[0] {
            CaptureRecord::Full { packet, .. } => assert_eq!(packet.payload().len(), 10),
            other => panic!("expected full record, got {other:?}"),
        }
    }

    #[test]
    fn rate_scope_records_only_sizes() {
        let mut tap = Tap::new(
            TapPoint::Link(LinkId(0)),
            CaptureScope::RateOnly,
            CaptureFilter::any(),
        );
        tap.observe(SimTime::ZERO, &pkt(0, 1, 0, 46));
        assert_eq!(tap.records()[0].bytes(), 100);
        assert_eq!(tap.total_bytes(), 100);
    }

    #[test]
    fn rate_series_bins_by_time() {
        let mut tap = Tap::new(
            TapPoint::Link(LinkId(0)),
            CaptureScope::RateOnly,
            CaptureFilter::any(),
        );
        // 100-byte packets (payload 46 + 54 overhead) at t=0.1s and t=1.5s.
        tap.observe(SimTime::from_millis(100), &pkt(0, 1, 0, 46));
        tap.observe(SimTime::from_millis(1500), &pkt(0, 1, 0, 46));
        let series = tap.rate_series(SimTime::ZERO, SimDuration::from_secs(1), 2);
        assert_eq!(series, vec![100.0, 100.0]);
    }

    #[test]
    fn rate_series_ignores_out_of_window() {
        let mut tap = Tap::new(
            TapPoint::Link(LinkId(0)),
            CaptureScope::RateOnly,
            CaptureFilter::any(),
        );
        tap.observe(SimTime::from_secs(10), &pkt(0, 1, 0, 46));
        let series = tap.rate_series(SimTime::ZERO, SimDuration::from_secs(1), 2);
        assert_eq!(series, vec![0.0, 0.0]);
        assert!(!tap.is_empty());
        assert_eq!(tap.len(), 1);
    }

    #[test]
    fn filtered_packets_not_recorded() {
        let mut tap = Tap::new(
            TapPoint::Link(LinkId(0)),
            CaptureScope::HeadersOnly,
            CaptureFilter {
                flow: Some(FlowId(1)),
                ..CaptureFilter::default()
            },
        );
        tap.observe(SimTime::ZERO, &pkt(0, 1, 2, 0));
        assert!(tap.is_empty());
    }
}
