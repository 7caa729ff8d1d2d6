//! Nodes, links, and the topology graph.

use simcore::rng::SimRng;
use simcore::time::SimDuration;
use std::fmt;

/// Identifier of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a (bidirectional) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A bidirectional link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Capacity in bits per second (0 = infinite, no serialization delay).
    pub bandwidth_bps: u64,
    /// Uniform jitter bound added per traversal.
    pub jitter: SimDuration,
    /// Independent per-traversal drop probability.
    pub loss_prob: f64,
}

impl Link {
    /// A link with given latency and no bandwidth limit or jitter.
    pub fn with_latency(a: NodeId, b: NodeId, latency: SimDuration) -> Self {
        Link {
            a,
            b,
            latency,
            bandwidth_bps: 0,
            jitter: SimDuration::ZERO,
            loss_prob: 0.0,
        }
    }

    /// Whether a traversal is dropped, sampled from `rng`.
    pub fn sample_loss(&self, rng: &mut SimRng) -> bool {
        self.loss_prob > 0.0 && rng.chance(self.loss_prob)
    }

    /// The peer endpoint seen from `from`, if `from` is an endpoint.
    pub fn peer_of(&self, from: NodeId) -> Option<NodeId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Serialization (transmission) time for `bytes` on this link; zero
    /// for unlimited-bandwidth links.
    pub fn serialization_time(&self, bytes: u32) -> SimDuration {
        if self.bandwidth_bps == 0 {
            return SimDuration::ZERO;
        }
        let bits = bytes as u64 * 8;
        SimDuration::from_nanos(bits.saturating_mul(1_000_000_000) / self.bandwidth_bps)
    }

    /// Total traversal delay for `bytes` at this link, sampling jitter
    /// from `rng`. Does **not** include queueing — the simulator adds
    /// that from its per-link transmitter state.
    pub fn traversal_delay(&self, bytes: u32, rng: &mut SimRng) -> SimDuration {
        let mut d = self.latency + self.serialization_time(bytes);
        if self.jitter > SimDuration::ZERO {
            d += SimDuration::from_nanos(rng.next_below(self.jitter.as_nanos().max(1)));
        }
        d
    }
}

/// The static topology: nodes (by count) and links, with shortest-path
/// routing precomputed on demand.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    node_count: usize,
    links: Vec<Link>,
    adjacency: Vec<Vec<(LinkId, NodeId)>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_count);
        self.node_count += 1;
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds `n` nodes, returning their ids.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Adds a bidirectional link.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist or the link is a
    /// self-loop.
    pub fn add_link(&mut self, link: Link) -> LinkId {
        assert!(link.a.0 < self.node_count, "unknown node {}", link.a);
        assert!(link.b.0 < self.node_count, "unknown node {}", link.b);
        assert_ne!(link.a, link.b, "self-loops not allowed");
        let id = LinkId(self.links.len());
        self.adjacency[link.a.0].push((id, link.b));
        self.adjacency[link.b.0].push((id, link.a));
        self.links.push(link);
        id
    }

    /// Convenience: connect two nodes with a latency-only link.
    pub fn connect(&mut self, a: NodeId, b: NodeId, latency: SimDuration) -> LinkId {
        self.add_link(Link::with_latency(a, b, latency))
    }

    /// The link record.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbors of a node as `(link, peer)` pairs.
    pub fn neighbors(&self, node: NodeId) -> &[(LinkId, NodeId)] {
        &self.adjacency[node.0]
    }

    /// Computes next-hop routing from every node toward `dst` using BFS
    /// over hop count (uniform metric). Returns `routes[node] =
    /// Some((link, next))` or `None` when unreachable (or `node == dst`).
    pub fn routes_toward(&self, dst: NodeId) -> Vec<Option<(LinkId, NodeId)>> {
        let mut next: Vec<Option<(LinkId, NodeId)>> = vec![None; self.node_count];
        let mut dist: Vec<usize> = vec![usize::MAX; self.node_count];
        let mut queue = std::collections::VecDeque::new();
        dist[dst.0] = 0;
        queue.push_back(dst);
        while let Some(u) = queue.pop_front() {
            for &(l, v) in &self.adjacency[u.0] {
                if dist[v.0] == usize::MAX {
                    dist[v.0] = dist[u.0] + 1;
                    // From v, the way toward dst is via link l to u.
                    next[v.0] = Some((l, u));
                    queue.push_back(v);
                }
            }
        }
        next
    }

    /// The full hop path from `src` to `dst` (inclusive of both), if
    /// reachable.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        if src == dst {
            return Some(vec![src]);
        }
        let routes = self.routes_toward(dst);
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            let (_, nxt) = routes[cur.0]?;
            path.push(nxt);
            cur = nxt;
            if path.len() > self.node_count + 1 {
                return None; // defensive: malformed routing
            }
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let nodes = t.add_nodes(n);
        for w in nodes.windows(2) {
            t.connect(w[0], w[1], SimDuration::from_millis(10));
        }
        (t, nodes)
    }

    #[test]
    fn add_and_count() {
        let (t, nodes) = line(4);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.links().len(), 3);
        assert_eq!(t.neighbors(nodes[1]).len(), 2);
        assert_eq!(t.neighbors(nodes[0]).len(), 1);
    }

    #[test]
    fn peer_of() {
        let l = Link::with_latency(NodeId(0), NodeId(1), SimDuration::from_millis(1));
        assert_eq!(l.peer_of(NodeId(0)), Some(NodeId(1)));
        assert_eq!(l.peer_of(NodeId(1)), Some(NodeId(0)));
        assert_eq!(l.peer_of(NodeId(2)), None);
    }

    #[test]
    fn bfs_routes_follow_line() {
        let (t, nodes) = line(5);
        let routes = t.routes_toward(nodes[4]);
        // From node 0 the next hop toward 4 is node 1.
        assert_eq!(routes[0].unwrap().1, nodes[1]);
        assert_eq!(routes[3].unwrap().1, nodes[4]);
        assert!(routes[4].is_none());
    }

    #[test]
    fn path_reconstruction() {
        let (t, nodes) = line(5);
        let p = t.path(nodes[0], nodes[4]).unwrap();
        assert_eq!(p, nodes);
        assert_eq!(t.path(nodes[2], nodes[2]).unwrap(), vec![nodes[2]]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut t = Topology::new();
        let a = t.add_node();
        let b = t.add_node();
        assert!(t.path(a, b).is_none());
    }

    #[test]
    fn traversal_delay_includes_serialization() {
        let mut rng = SimRng::seed_from(1);
        let mut l = Link::with_latency(NodeId(0), NodeId(1), SimDuration::from_millis(10));
        l.bandwidth_bps = 8_000_000; // 8 Mbit/s → 1 MB/s
                                     // 1000 bytes at 1 MB/s = 1 ms serialization.
        let d = l.traversal_delay(1000, &mut rng);
        assert_eq!(d, SimDuration::from_millis(11));
    }

    #[test]
    fn jitter_bounded() {
        let mut rng = SimRng::seed_from(2);
        let mut l = Link::with_latency(NodeId(0), NodeId(1), SimDuration::from_millis(10));
        l.jitter = SimDuration::from_millis(5);
        for _ in 0..100 {
            let d = l.traversal_delay(0, &mut rng);
            assert!(d >= SimDuration::from_millis(10));
            assert!(d < SimDuration::from_millis(15));
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let a = t.add_node();
        t.connect(a, a, SimDuration::ZERO);
    }

    #[test]
    fn star_topology_routes_through_hub() {
        let mut t = Topology::new();
        let hub = t.add_node();
        let leaves = t.add_nodes(4);
        for &l in &leaves {
            t.connect(hub, l, SimDuration::from_millis(1));
        }
        let p = t.path(leaves[0], leaves[3]).unwrap();
        assert_eq!(p, vec![leaves[0], hub, leaves[3]]);
    }
}
