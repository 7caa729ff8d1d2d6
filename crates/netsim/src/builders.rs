//! Ready-made topology builders for the experiment harnesses.

use crate::node::{NodeId, Topology};
use simcore::rng::SimRng;
use simcore::time::SimDuration;

/// A line of `n` nodes with uniform link latency.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn line(n: usize, latency: SimDuration) -> (Topology, Vec<NodeId>) {
    assert!(n > 0, "need at least one node");
    let mut topo = Topology::new();
    let nodes = topo.add_nodes(n);
    for w in nodes.windows(2) {
        topo.connect(w[0], w[1], latency);
    }
    (topo, nodes)
}

/// A star: one hub connected to `leaves` leaf nodes.
///
/// Returns `(topology, hub, leaves)`.
pub fn star(leaves: usize, latency: SimDuration) -> (Topology, NodeId, Vec<NodeId>) {
    let mut topo = Topology::new();
    let hub = topo.add_node();
    let leaf_nodes = topo.add_nodes(leaves);
    for &l in &leaf_nodes {
        topo.connect(hub, l, latency);
    }
    (topo, hub, leaf_nodes)
}

/// A dumbbell: `left` clients and `right` servers joined by a two-router
/// bottleneck link.
///
/// Returns `(topology, left_nodes, left_router, right_router,
/// right_nodes)`.
pub fn dumbbell(
    left: usize,
    right: usize,
    access_latency: SimDuration,
    bottleneck_latency: SimDuration,
) -> (Topology, Vec<NodeId>, NodeId, NodeId, Vec<NodeId>) {
    let mut topo = Topology::new();
    let left_router = topo.add_node();
    let right_router = topo.add_node();
    topo.connect(left_router, right_router, bottleneck_latency);
    let left_nodes = topo.add_nodes(left);
    for &n in &left_nodes {
        topo.connect(n, left_router, access_latency);
    }
    let right_nodes = topo.add_nodes(right);
    for &n in &right_nodes {
        topo.connect(n, right_router, access_latency);
    }
    (topo, left_nodes, left_router, right_router, right_nodes)
}

/// A connected random graph: a ring plus random chords until the average
/// degree approaches `degree`, with latencies uniform in
/// `[lat_lo, lat_hi)` milliseconds.
///
/// # Panics
///
/// Panics if `n < 3` or `lat_lo >= lat_hi`.
pub fn random_connected(
    n: usize,
    degree: usize,
    lat_lo_ms: u64,
    lat_hi_ms: u64,
    rng: &mut SimRng,
) -> (Topology, Vec<NodeId>) {
    assert!(n >= 3, "need at least three nodes for a ring");
    let mut topo = Topology::new();
    let nodes = topo.add_nodes(n);
    let mut edges = std::collections::BTreeSet::new();
    for i in 0..n {
        let j = (i + 1) % n;
        edges.insert((i.min(j), i.max(j)));
    }
    let target = n * degree / 2;
    let mut guard = 0;
    while edges.len() < target && guard < 100_000 {
        guard += 1;
        let a = rng.next_below(n as u64) as usize;
        let b = rng.next_below(n as u64) as usize;
        if a != b {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    for (a, b) in edges {
        let lat = SimDuration::from_millis(rng.range(lat_lo_ms, lat_hi_ms));
        topo.connect(nodes[a], nodes[b], lat);
    }
    (topo, nodes)
}

/// A balanced binary tree of the given depth (depth 0 = a single root).
///
/// Returns `(topology, all_nodes_in_bfs_order)`; the root is index 0 and
/// the leaves are the last `2^depth` entries.
pub fn binary_tree(depth: u32, latency: SimDuration) -> (Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let total = (1usize << (depth + 1)) - 1;
    let nodes = topo.add_nodes(total);
    for i in 1..total {
        let parent = (i - 1) / 2;
        topo.connect(nodes[parent], nodes[i], latency);
    }
    (topo, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_shape() {
        let (topo, nodes) = line(5, SimDuration::from_millis(1));
        assert_eq!(topo.node_count(), 5);
        assert_eq!(topo.links().len(), 4);
        assert_eq!(topo.path(nodes[0], nodes[4]).unwrap().len(), 5);
    }

    #[test]
    fn star_shape() {
        let (topo, hub, leaves) = star(6, SimDuration::from_millis(1));
        assert_eq!(topo.node_count(), 7);
        assert_eq!(topo.neighbors(hub).len(), 6);
        let p = topo.path(leaves[0], leaves[5]).unwrap();
        assert_eq!(p, vec![leaves[0], hub, leaves[5]]);
    }

    #[test]
    fn dumbbell_shape() {
        let (topo, left, lr, rr, right) = dumbbell(
            3,
            2,
            SimDuration::from_millis(1),
            SimDuration::from_millis(10),
        );
        assert_eq!(topo.node_count(), 7);
        let p = topo.path(left[0], right[1]).unwrap();
        assert_eq!(p, vec![left[0], lr, rr, right[1]]);
    }

    #[test]
    fn random_graph_connected_and_degree_bounded() {
        let mut rng = SimRng::seed_from(1);
        let (topo, nodes) = random_connected(20, 4, 5, 30, &mut rng);
        // Connectivity: every pair reachable.
        for &n in &nodes[1..] {
            assert!(topo.path(nodes[0], n).is_some());
        }
        // Edge count ≈ n*degree/2 (ring guarantees ≥ n).
        assert!(topo.links().len() >= 20);
        assert!(topo.links().len() <= 20 * 4 / 2);
    }

    #[test]
    fn random_graph_deterministic() {
        let build = || {
            let mut rng = SimRng::seed_from(9);
            let (topo, _) = random_connected(12, 3, 5, 20, &mut rng);
            topo.links()
                .iter()
                .map(|l| (l.a, l.b, l.latency))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn binary_tree_shape() {
        let (topo, nodes) = binary_tree(3, SimDuration::from_millis(1));
        assert_eq!(topo.node_count(), 15);
        assert_eq!(topo.links().len(), 14);
        // Leaf to leaf goes through the root at most 2*depth hops.
        let p = topo.path(nodes[7], nodes[14]).unwrap();
        assert!(p.len() <= 7);
        assert_eq!(topo.neighbors(nodes[0]).len(), 2);
    }

    #[test]
    fn depth_zero_tree_is_single_node() {
        let (topo, nodes) = binary_tree(0, SimDuration::from_millis(1));
        assert_eq!(topo.node_count(), 1);
        assert_eq!(nodes.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_line_panics() {
        line(0, SimDuration::ZERO);
    }
}
