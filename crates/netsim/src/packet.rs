//! Layered packets: link, network, and transport headers plus payload.
//!
//! The paper's Table 1 distinguishes captures of "link layer header, IP
//! header, and TCP/UDP header if available" from captures that also take
//! payload. The packet model therefore keeps the layers separate so a
//! capture tap can be scoped to exactly the headers.

use crate::node::NodeId;
use std::fmt;

/// Transport-layer protocol discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// TCP-like stream segment.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Sequence number.
        seq: u32,
    },
    /// UDP-like datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
}

impl Transport {
    /// Source port of either variant.
    pub fn src_port(self) -> u16 {
        match self {
            Transport::Tcp { src_port, .. } | Transport::Udp { src_port, .. } => src_port,
        }
    }

    /// Destination port of either variant.
    pub fn dst_port(self) -> u16 {
        match self {
            Transport::Tcp { dst_port, .. } | Transport::Udp { dst_port, .. } => dst_port,
        }
    }
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transport::Tcp {
                src_port, dst_port, ..
            } => write!(f, "tcp {src_port}→{dst_port}"),
            Transport::Udp { src_port, dst_port } => write!(f, "udp {src_port}→{dst_port}"),
        }
    }
}

/// The non-content headers of a packet — what a pen/trap-scoped tap may
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Headers {
    /// Origin node ("IP" source).
    pub src: NodeId,
    /// Destination node ("IP" destination).
    pub dst: NodeId,
    /// Remaining hop budget.
    pub ttl: u8,
    /// Transport header.
    pub transport: Transport,
    /// Total packet length in bytes (headers + payload) — non-content
    /// "packet size" information in the paper's taxonomy.
    pub total_len: u32,
}

/// Identifier tying packets of the same application flow together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow-{}", self.0)
    }
}

/// A simulated packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    headers: Headers,
    flow: FlowId,
    payload: Vec<u8>,
    sent_at: simcore::time::SimTime,
}

/// Fixed per-packet header overhead in bytes (ethernet-ish 14 + IP 20 +
/// transport 20).
pub const HEADER_OVERHEAD: u32 = 54;

impl Packet {
    /// Default initial TTL.
    pub const DEFAULT_TTL: u8 = 64;

    /// Creates a packet; `total_len` is derived from the payload.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        transport: Transport,
        flow: FlowId,
        payload: Vec<u8>,
    ) -> Self {
        let total_len = HEADER_OVERHEAD + payload.len() as u32;
        Packet {
            headers: Headers {
                src,
                dst,
                ttl: Self::DEFAULT_TTL,
                transport,
                total_len,
            },
            flow,
            payload,
            sent_at: simcore::time::SimTime::ZERO,
        }
    }

    /// When the packet was first transmitted (stamped by the simulator).
    pub fn sent_at(&self) -> simcore::time::SimTime {
        self.sent_at
    }

    /// Stamps the transmission time. Called by the simulator on first
    /// send; later hops leave it untouched.
    pub fn stamp_sent_at(&mut self, t: simcore::time::SimTime) {
        if self.sent_at == simcore::time::SimTime::ZERO {
            self.sent_at = t;
        }
    }

    /// Convenience UDP packet.
    pub fn udp(
        src: NodeId,
        dst: NodeId,
        src_port: u16,
        dst_port: u16,
        flow: FlowId,
        payload: Vec<u8>,
    ) -> Self {
        Packet::new(
            src,
            dst,
            Transport::Udp { src_port, dst_port },
            flow,
            payload,
        )
    }

    /// The headers (non-content layer).
    pub fn headers(&self) -> Headers {
        self.headers
    }

    /// Flow membership.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The payload (content layer).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Total on-wire size in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.headers.total_len
    }

    /// Decrements TTL; returns `false` when the packet must be dropped.
    pub fn decrement_ttl(&mut self) -> bool {
        if self.headers.ttl == 0 {
            return false;
        }
        self.headers.ttl -= 1;
        self.headers.ttl > 0
    }

    /// Origin node.
    pub fn src(&self) -> NodeId {
        self.headers.src
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        self.headers.dst
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}→{} {} {} ({} bytes)",
            self.headers.src,
            self.headers.dst,
            self.headers.transport,
            self.flow,
            self.headers.total_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_include_overhead() {
        let p = Packet::udp(NodeId(0), NodeId(1), 10, 20, FlowId(1), vec![0; 100]);
        assert_eq!(p.size_bytes(), 154);
        assert_eq!(p.payload().len(), 100);
    }

    #[test]
    fn ttl_decrements_to_drop() {
        let mut p = Packet::udp(NodeId(0), NodeId(1), 1, 2, FlowId(0), vec![]);
        let mut hops = 0;
        while p.decrement_ttl() {
            hops += 1;
        }
        assert_eq!(hops, Packet::DEFAULT_TTL as u32 - 1);
        assert!(!p.decrement_ttl());
    }

    #[test]
    fn transport_ports() {
        let t = Transport::Tcp {
            src_port: 5,
            dst_port: 6,
            seq: 0,
        };
        assert_eq!(t.src_port(), 5);
        assert_eq!(t.dst_port(), 6);
        let u = Transport::Udp {
            src_port: 7,
            dst_port: 8,
        };
        assert_eq!(u.src_port(), 7);
        assert_eq!(u.dst_port(), 8);
    }

    #[test]
    fn display_formats() {
        let p = Packet::udp(NodeId(3), NodeId(4), 1000, 2000, FlowId(9), vec![1]);
        let s = p.to_string();
        assert!(s.contains("n3"));
        assert!(s.contains("flow-9"));
        assert!(s.contains("udp 1000→2000"));
    }

    #[test]
    fn headers_carry_size_not_payload() {
        let p = Packet::udp(NodeId(0), NodeId(1), 1, 2, FlowId(0), b"secret".to_vec());
        let h = p.headers();
        assert_eq!(h.total_len, HEADER_OVERHEAD + 6);
        // Headers alone expose no payload bytes — type-level guarantee
        // (Headers is Copy with no payload field).
        assert_eq!(h.src, NodeId(0));
    }
}
