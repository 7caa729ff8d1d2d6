//! The discrete-event simulator core.
//!
//! A [`Simulator`] owns a [`Topology`], per-node [`Protocol`] behaviours,
//! capture [`Tap`]s, and the deterministic `(time, seq)`-ordered
//! [`EventQueue`] from [`simcore`]. Packets sent by protocols are routed
//! hop-by-hop along shortest paths; every link traversal is offered to
//! the taps; delivery invokes the destination protocol.
//!
//! ## Scaling model
//!
//! Node state is flat and index-addressed (one `Vec` slot per node, one
//! per link), and routing state is **bounded**: next-hop lookups first
//! try the adjacent-neighbor fast path (overlay experiments send almost
//! exclusively to direct neighbors), then fall back to an on-demand
//! per-destination BFS cached in a small LRU. Nothing in the simulator
//! allocates per-node-pair, so population-scale overlays (100k–1M nodes)
//! fit in memory — the old all-pairs route cache needed O(N) per active
//! destination and made anything past ~10k nodes infeasible.

use crate::capture::{Tap, TapId, TapPoint};
use crate::node::{LinkId, NodeId, Topology};
use crate::packet::Packet;
use simcore::queue::EventQueue;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Behaviour attached to a node. All callbacks receive a [`Context`] for
/// sending packets and setting timers.
///
/// The `Any` supertrait lets callers recover their concrete protocol (and
/// its accumulated state) after a run via
/// [`Simulator::take_protocol_as`].
pub trait Protocol: std::any::Any {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}
    /// Called when a packet addressed to this node is delivered.
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _packet: Packet) {}
    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: u64) {}
}

/// A no-op protocol for passive nodes (pure routers).
#[derive(Debug, Clone, Copy, Default)]
pub struct Idle;

impl Protocol for Idle {}

/// The interface a protocol uses to interact with the simulation.
#[derive(Debug)]
pub struct Context<'a> {
    node: NodeId,
    time: SimTime,
    rng: &'a mut SimRng,
    outbox: Vec<(SimDuration, Packet)>,
    timers: Vec<(SimDuration, u64)>,
}

impl Context<'_> {
    /// The node this callback runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current simulation time.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The simulation RNG (deterministic).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends a packet now (routed from this node toward `packet.dst()`).
    pub fn send(&mut self, packet: Packet) {
        self.send_after(SimDuration::ZERO, packet);
    }

    /// Sends a packet after an artificial local delay — the knob the
    /// OneSwarm-style overlay uses for per-hop response delays.
    pub fn send_after(&mut self, delay: SimDuration, packet: Packet) {
        self.outbox.push((delay, packet));
    }

    /// Schedules `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((delay, token));
    }
}

#[derive(Debug)]
enum EventKind {
    /// Packet arriving at `node`, having traversed `via` (None for
    /// locally injected packets). Boxed once at origin and moved through
    /// every hop: heap sifts then shuffle a pointer-sized payload instead
    /// of memcpying whole packets, which dominates at population scale.
    Arrival {
        packet: Box<Packet>,
        via: Option<LinkId>,
    },
    /// Timer for the node's protocol.
    Timer { token: u64 },
}

/// The event payload carried by the shared `(time, seq)`-ordered queue.
#[derive(Debug)]
struct NodeEvent {
    node: NodeId,
    kind: EventKind,
}

/// Counters the simulator maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Packets delivered to their destination protocol.
    pub delivered: u64,
    /// Packets dropped for TTL exhaustion.
    pub dropped_ttl: u64,
    /// Packets dropped because no route existed.
    pub dropped_unreachable: u64,
    /// Packets dropped by link loss.
    pub dropped_loss: u64,
    /// Packets that had to queue behind a busy transmitter.
    pub queued: u64,
    /// Link traversals (hop count across all packets).
    pub hops: u64,
    /// Events processed.
    pub events: u64,
}

/// Default number of destinations the bounded route cache keeps warm.
const DEFAULT_ROUTE_CACHE_CAPACITY: usize = 32;

/// One cached BFS result: `routes_toward(dst)` indexed by source node.
type NextHopVec = Vec<Option<(LinkId, NodeId)>>;

/// A bounded, deterministic per-destination next-hop cache.
///
/// Each entry holds the full BFS next-hop vector toward one destination
/// (O(nodes) memory); the cache keeps at most `cap` destinations warm,
/// evicting least-recently-used. Because BFS is deterministic and the
/// lookup draws no randomness, cache policy cannot perturb results —
/// only recomputation cost.
struct RouteCache {
    cap: usize,
    /// Most-recently-used first. Linear scan: `cap` is small.
    entries: Vec<(NodeId, NextHopVec)>,
    /// BFS recomputations (cache misses), for capacity tuning.
    misses: u64,
}

impl RouteCache {
    fn new(cap: usize) -> Self {
        RouteCache {
            cap: cap.max(1),
            entries: Vec::new(),
            misses: 0,
        }
    }

    fn next_hop(&mut self, topo: &Topology, from: NodeId, dst: NodeId) -> Option<(LinkId, NodeId)> {
        if let Some(i) = self.entries.iter().position(|(d, _)| *d == dst) {
            if i != 0 {
                self.entries[..=i].rotate_right(1);
            }
            return self.entries[0].1[from.0];
        }
        self.misses += 1;
        let routes = topo.routes_toward(dst);
        let hop = routes[from.0];
        self.entries.insert(0, (dst, routes));
        self.entries.truncate(self.cap);
        hop
    }
}

/// The discrete-event network simulator.
///
/// # Examples
///
/// ```
/// use netsim::prelude::*;
///
/// // Two nodes, one link; a CBR source sending to a counting sink.
/// let mut topo = Topology::new();
/// let a = topo.add_node();
/// let b = topo.add_node();
/// topo.connect(a, b, SimDuration::from_millis(10));
///
/// let mut sim = Simulator::new(topo, 42);
/// sim.set_protocol(a, CbrSource::new(b, FlowId(1), 100, SimDuration::from_millis(100)));
/// sim.set_protocol(b, CountingSink::new());
/// sim.run_until(SimTime::from_secs(1));
/// assert!(sim.counters().delivered >= 9);
/// ```
pub struct Simulator {
    topo: Topology,
    time: SimTime,
    queue: EventQueue<NodeEvent>,
    protocols: Vec<Option<Box<dyn Protocol>>>,
    rng: SimRng,
    taps: Vec<Tap>,
    /// Tap indices keyed by attachment point, so the per-event hot path
    /// touches only the taps that can match — population-scale runs
    /// attach one tap per monitored node, and scanning all of them per
    /// event would be O(nodes) per packet.
    node_taps: HashMap<usize, Vec<usize>>,
    link_taps: HashMap<usize, Vec<usize>>,
    counters: SimCounters,
    routes: RouteCache,
    /// Per-link transmitter-busy horizon: a bandwidth-limited link is a
    /// FIFO — a packet cannot start serializing before the previous one
    /// finished (queueing delay under load). Empty when no link has a
    /// bandwidth limit (the common overlay case), so latency-only
    /// topologies pay nothing per link.
    link_busy_until: Vec<SimTime>,
    /// Reusable callback buffers: `with_protocol` hands these to the
    /// [`Context`] and drains them afterwards, so the per-event hot path
    /// allocates nothing once the buffers have grown to the working set.
    scratch_outbox: Vec<(SimDuration, Packet)>,
    scratch_timers: Vec<(SimDuration, u64)>,
    started: bool,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("time", &self.time)
            .field("nodes", &self.topo.node_count())
            .field("queued", &self.queue.len())
            .field("counters", &self.counters)
            .finish()
    }
}

impl Simulator {
    /// Creates a simulator over `topo` with a deterministic seed.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let n = topo.node_count();
        let mut protocols = Vec::with_capacity(n);
        protocols.resize_with(n, || None);
        // Transmitter state only exists when some link can actually be
        // busy; latency-only topologies skip the per-link allocation.
        let link_busy_until = if topo.links().iter().any(|l| l.bandwidth_bps > 0) {
            vec![SimTime::ZERO; topo.links().len()]
        } else {
            Vec::new()
        };
        Simulator {
            topo,
            time: SimTime::ZERO,
            queue: EventQueue::new(),
            protocols,
            rng: SimRng::seed_from(seed),
            taps: Vec::new(),
            node_taps: HashMap::new(),
            link_taps: HashMap::new(),
            counters: SimCounters::default(),
            routes: RouteCache::new(DEFAULT_ROUTE_CACHE_CAPACITY),
            link_busy_until,
            scratch_outbox: Vec::new(),
            scratch_timers: Vec::new(),
            started: false,
        }
    }

    /// Attaches a protocol to a node (replacing any previous one).
    pub fn set_protocol<P: Protocol + 'static>(&mut self, node: NodeId, protocol: P) {
        self.protocols[node.0] = Some(Box::new(protocol));
    }

    /// Installs a capture tap, returning its id.
    pub fn add_tap(&mut self, tap: Tap) -> TapId {
        let idx = self.taps.len();
        match tap.point() {
            TapPoint::Node(n) => self.node_taps.entry(n.0).or_default().push(idx),
            TapPoint::Link(l) => self.link_taps.entry(l.0).or_default().push(idx),
        }
        self.taps.push(tap);
        TapId(idx)
    }

    /// Read access to a tap's log.
    pub fn tap(&self, id: TapId) -> &Tap {
        &self.taps[id.0]
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Aggregate counters.
    pub fn counters(&self) -> SimCounters {
        self.counters
    }

    /// Resizes the bounded route cache (default keeps 32 destinations
    /// warm). Experiments whose traffic fans out to many *multi-hop*
    /// destinations can raise this; each warm destination costs O(nodes)
    /// memory. Cache policy affects only speed, never results.
    ///
    /// # Panics
    ///
    /// Panics if `destinations == 0`.
    pub fn set_route_cache_capacity(&mut self, destinations: usize) {
        assert!(destinations > 0, "route cache needs at least one slot");
        self.routes.cap = destinations;
        self.routes.entries.truncate(destinations);
    }

    /// BFS recomputations the bounded route cache has performed — the
    /// signal for tuning [`Self::set_route_cache_capacity`].
    pub fn route_cache_misses(&self) -> u64 {
        self.routes.misses
    }

    /// Takes a protocol out of the simulator (e.g. to inspect collected
    /// state after a run). The node becomes passive.
    pub fn take_protocol(&mut self, node: NodeId) -> Option<Box<dyn Protocol>> {
        self.protocols[node.0].take()
    }

    /// Takes a protocol out and downcasts it to its concrete type,
    /// returning `None` (and leaving the node passive) on type mismatch.
    pub fn take_protocol_as<P: Protocol>(&mut self, node: NodeId) -> Option<Box<P>> {
        let proto = self.protocols[node.0].take()?;
        let any: Box<dyn std::any::Any> = proto;
        any.downcast::<P>().ok()
    }

    /// Immutable view of a node's protocol as its concrete type.
    pub fn protocol_as<P: Protocol>(&self, node: NodeId) -> Option<&P> {
        let proto = self.protocols[node.0].as_deref()?;
        (proto as &dyn std::any::Any).downcast_ref::<P>()
    }

    /// Injects a packet as if `node` sent it at the current time.
    pub fn inject(&mut self, node: NodeId, packet: Packet) {
        let mut packet = Box::new(packet);
        packet.stamp_sent_at(self.time);
        self.route_or_deliver(node, packet, SimDuration::ZERO);
    }

    /// Runs `on_start` for every protocol (idempotent; also invoked by
    /// the first `run_until`).
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.protocols.len() {
            self.with_protocol(NodeId(i), |proto, ctx| proto.on_start(ctx));
        }
    }

    /// Processes events until the queue empties or `deadline` passes.
    /// Time advances to `deadline` (or further events' times).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        while let Some(at) = self.queue.next_time() {
            if at > deadline {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked");
            self.time = at;
            self.counters.events += 1;
            self.dispatch(ev);
        }
        if self.time < deadline {
            self.time = deadline;
        }
    }

    /// Runs for a further duration.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.time + d;
        self.run_until(deadline);
    }

    /// Drains every remaining event (use with care: source protocols that
    /// reschedule forever will never drain).
    pub fn run_to_completion(&mut self) {
        self.start();
        while let Some((at, ev)) = self.queue.pop() {
            self.time = at;
            self.counters.events += 1;
            self.dispatch(ev);
        }
    }

    fn dispatch(&mut self, ev: NodeEvent) {
        match ev.kind {
            EventKind::Timer { token } => {
                self.with_protocol(ev.node, |proto, ctx| proto.on_timer(ctx, token));
            }
            EventKind::Arrival { packet, via } => {
                // Offer the traversal to the taps attached at this point.
                // Taps log independently, so only per-tap (not cross-tap)
                // observation order matters, and that follows event order.
                let now = self.time;
                if let Some(idxs) = self.node_taps.get(&ev.node.0) {
                    for &i in idxs {
                        self.taps[i].observe(now, &packet);
                    }
                }
                if let Some(l) = via {
                    if let Some(idxs) = self.link_taps.get(&l.0) {
                        for &i in idxs {
                            self.taps[i].observe(now, &packet);
                        }
                    }
                }
                if packet.dst() == ev.node {
                    self.counters.delivered += 1;
                    self.with_protocol(ev.node, |proto, ctx| proto.on_packet(ctx, *packet));
                } else {
                    // Transit: decrement TTL and forward.
                    let mut packet = packet;
                    if !packet.decrement_ttl() {
                        self.counters.dropped_ttl += 1;
                        return;
                    }
                    self.route_or_deliver(ev.node, packet, SimDuration::ZERO);
                }
            }
        }
    }

    /// Runs a protocol callback and flushes its outbox/timers.
    fn with_protocol<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Protocol, &mut Context<'_>),
    {
        let Some(mut proto) = self.protocols[node.0].take() else {
            return;
        };
        let mut ctx = Context {
            node,
            time: self.time,
            rng: &mut self.rng,
            outbox: std::mem::take(&mut self.scratch_outbox),
            timers: std::mem::take(&mut self.scratch_timers),
        };
        f(proto.as_mut(), &mut ctx);
        let Context {
            mut outbox,
            mut timers,
            ..
        } = ctx;
        self.protocols[node.0] = Some(proto);
        // Flushing never re-enters a protocol callback, so the drained
        // buffers can be returned for reuse afterwards.
        for (delay, packet) in outbox.drain(..) {
            let mut packet = Box::new(packet);
            packet.stamp_sent_at(self.time + delay);
            self.route_or_deliver(node, packet, delay);
        }
        for (delay, token) in timers.drain(..) {
            let at = self.time + delay;
            self.queue.push(
                at,
                NodeEvent {
                    node,
                    kind: EventKind::Timer { token },
                },
            );
        }
        self.scratch_outbox = outbox;
        self.scratch_timers = timers;
    }

    /// The next hop from `from` toward `dst`: the adjacent-neighbor fast
    /// path first (no routing state at all), then the bounded BFS cache.
    ///
    /// The fast path returns exactly what BFS would. When `from` borders
    /// `dst`, BFS-from-`dst` visits `from` at distance one via the first
    /// `dst`→`from` link in `dst`'s adjacency list; [`Topology::add_link`]
    /// appends each link to both endpoints' lists in the same call, so
    /// parallel links keep the same relative order in both lists — the
    /// first match in *either* list is that same link. Each scan is
    /// capped so a high-degree hub (a proxy or gateway fanning out to
    /// the population) cannot turn the per-packet lookup into O(degree);
    /// past the cap the bounded BFS cache answers instead, with the
    /// identical result.
    fn next_hop(&mut self, from: NodeId, dst: NodeId) -> Option<(LinkId, NodeId)> {
        const FAST_PATH_SCAN_CAP: usize = 64;
        let out = self.topo.neighbors(from);
        if let Some(&hop) = out
            .iter()
            .take(FAST_PATH_SCAN_CAP)
            .find(|(_, peer)| *peer == dst)
        {
            return Some(hop);
        }
        if out.len() > FAST_PATH_SCAN_CAP {
            // `from` is a hub: check adjacency from the (usually leaf)
            // destination side before falling back to BFS.
            if let Some(&(link, _)) = self
                .topo
                .neighbors(dst)
                .iter()
                .take(FAST_PATH_SCAN_CAP)
                .find(|(_, peer)| *peer == from)
            {
                return Some((link, dst));
            }
        }
        self.routes.next_hop(&self.topo, from, dst)
    }

    /// Routes a packet one hop from `from` toward its destination,
    /// scheduling the arrival event.
    fn route_or_deliver(&mut self, from: NodeId, packet: Box<Packet>, extra_delay: SimDuration) {
        let dst = packet.dst();
        if dst.0 >= self.topo.node_count() {
            // Addressed to a node that does not exist (e.g. garbage bytes
            // interpreted as an address): drop, like any unroutable
            // destination.
            self.counters.dropped_unreachable += 1;
            return;
        }
        if from == dst {
            // Local delivery.
            let at = self.time + extra_delay;
            self.queue.push(
                at,
                NodeEvent {
                    node: from,
                    kind: EventKind::Arrival { packet, via: None },
                },
            );
            return;
        }
        match self.next_hop(from, dst) {
            Some((link_id, next)) => {
                let link = *self.topo.link(link_id);
                if link.sample_loss(&mut self.rng) {
                    self.counters.dropped_loss += 1;
                    return;
                }
                // FIFO transmitter: wait for the link to free up, then
                // serialize, then propagate.
                let ready = self.time + extra_delay;
                let mut queue_wait = SimDuration::ZERO;
                if link.bandwidth_bps > 0 {
                    let busy_until = self.link_busy_until[link_id.0];
                    if busy_until > ready {
                        queue_wait = busy_until - ready;
                        self.counters.queued += 1;
                    }
                    let tx_done = ready + queue_wait + link.serialization_time(packet.size_bytes());
                    self.link_busy_until[link_id.0] = tx_done;
                }
                let delay = extra_delay
                    + queue_wait
                    + link.traversal_delay(packet.size_bytes(), &mut self.rng);
                self.counters.hops += 1;
                let at = self.time + delay;
                self.queue.push(
                    at,
                    NodeEvent {
                        node: next,
                        kind: EventKind::Arrival {
                            packet,
                            via: Some(link_id),
                        },
                    },
                );
            }
            None => {
                self.counters.dropped_unreachable += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{CaptureFilter, CaptureScope};
    use crate::packet::{FlowId, Transport};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sink that records delivery times into a shared vec.
    struct Recorder {
        deliveries: Rc<RefCell<Vec<(SimTime, Packet)>>>,
    }

    impl Protocol for Recorder {
        fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
            self.deliveries.borrow_mut().push((ctx.time(), packet));
        }
    }

    /// Source that sends one packet at start.
    struct OneShot {
        dst: NodeId,
        payload: usize,
    }

    impl Protocol for OneShot {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let p = Packet::new(
                ctx.node(),
                self.dst,
                Transport::Udp {
                    src_port: 1,
                    dst_port: 2,
                },
                FlowId(1),
                vec![0; self.payload],
            );
            ctx.send(p);
        }
    }

    fn line_topology(n: usize, latency_ms: u64) -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let nodes = t.add_nodes(n);
        for w in nodes.windows(2) {
            t.connect(w[0], w[1], SimDuration::from_millis(latency_ms));
        }
        (t, nodes)
    }

    #[test]
    fn one_hop_delivery_time() {
        let (topo, nodes) = line_topology(2, 10);
        let mut sim = Simulator::new(topo, 1);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_protocol(
            nodes[0],
            OneShot {
                dst: nodes[1],
                payload: 10,
            },
        );
        sim.set_protocol(
            nodes[1],
            Recorder {
                deliveries: log.clone(),
            },
        );
        sim.run_until(SimTime::from_secs(1));
        let deliveries = log.borrow();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, SimTime::from_millis(10));
        assert_eq!(sim.counters().delivered, 1);
        assert_eq!(sim.counters().hops, 1);
    }

    #[test]
    fn multi_hop_accumulates_latency() {
        let (topo, nodes) = line_topology(4, 10);
        let mut sim = Simulator::new(topo, 1);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_protocol(
            nodes[0],
            OneShot {
                dst: nodes[3],
                payload: 0,
            },
        );
        sim.set_protocol(
            nodes[3],
            Recorder {
                deliveries: log.clone(),
            },
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(log.borrow()[0].0, SimTime::from_millis(30));
        assert_eq!(sim.counters().hops, 3);
    }

    #[test]
    fn unreachable_dropped() {
        let mut topo = Topology::new();
        let a = topo.add_node();
        let _b = topo.add_node();
        let c = topo.add_node();
        topo.connect(a, _b, SimDuration::from_millis(1));
        let mut sim = Simulator::new(topo, 1);
        sim.set_protocol(a, OneShot { dst: c, payload: 0 });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.counters().dropped_unreachable, 1);
        assert_eq!(sim.counters().delivered, 0);
    }

    #[test]
    fn link_tap_sees_transit_node_tap_sees_arrivals() {
        let (topo, nodes) = line_topology(3, 5);
        let mut sim = Simulator::new(topo, 1);
        let tap_link0 = sim.add_tap(Tap::new(
            TapPoint::Link(LinkId(0)),
            CaptureScope::HeadersOnly,
            CaptureFilter::any(),
        ));
        let tap_mid = sim.add_tap(Tap::new(
            TapPoint::Node(nodes[1]),
            CaptureScope::RateOnly,
            CaptureFilter::any(),
        ));
        sim.set_protocol(
            nodes[0],
            OneShot {
                dst: nodes[2],
                payload: 10,
            },
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.tap(tap_link0).len(), 1, "link tap sees the hop");
        assert_eq!(
            sim.tap(tap_mid).len(),
            1,
            "node tap sees the transit arrival"
        );
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerProto {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl Protocol for TimerProto {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_>, token: u64) {
                self.fired.borrow_mut().push(token);
            }
        }
        let mut topo = Topology::new();
        let a = topo.add_node();
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(topo, 1);
        sim.set_protocol(
            a,
            TimerProto {
                fired: fired.clone(),
            },
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*fired.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn determinism_same_seed_same_counters() {
        let run = |seed| {
            let (topo, nodes) = line_topology(5, 7);
            let mut sim = Simulator::new(topo, seed);
            sim.set_protocol(
                nodes[0],
                OneShot {
                    dst: nodes[4],
                    payload: 99,
                },
            );
            sim.run_until(SimTime::from_secs(2));
            sim.counters()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut topo = Topology::new();
        topo.add_node();
        let mut sim = Simulator::new(topo, 1);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn inject_routes_from_given_node() {
        let (topo, nodes) = line_topology(2, 10);
        let mut sim = Simulator::new(topo, 1);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_protocol(
            nodes[1],
            Recorder {
                deliveries: log.clone(),
            },
        );
        sim.start();
        let p = Packet::udp(nodes[0], nodes[1], 1, 2, FlowId(3), vec![1, 2]);
        sim.inject(nodes[0], p);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(log.borrow().len(), 1);
    }

    #[test]
    fn sent_at_is_stamped_once() {
        let (topo, nodes) = line_topology(3, 10);
        let mut sim = Simulator::new(topo, 1);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_protocol(
            nodes[0],
            OneShot {
                dst: nodes[2],
                payload: 0,
            },
        );
        sim.set_protocol(
            nodes[2],
            Recorder {
                deliveries: log.clone(),
            },
        );
        sim.run_until(SimTime::from_secs(1));
        let (arrive_at, pkt) = log.borrow()[0].clone();
        assert_eq!(pkt.sent_at(), SimTime::ZERO);
        assert_eq!(arrive_at, SimTime::from_millis(20));
    }
}

#[cfg(test)]
mod routing_tests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Recorder {
        deliveries: Rc<RefCell<Vec<SimTime>>>,
    }
    impl Protocol for Recorder {
        fn on_packet(&mut self, ctx: &mut Context<'_>, _packet: Packet) {
            self.deliveries.borrow_mut().push(ctx.time());
        }
    }

    /// The adjacent-neighbor fast path and the BFS cache must pick the
    /// same link: with parallel links between two nodes, both choose the
    /// first-added one.
    #[test]
    fn fast_path_matches_bfs_on_parallel_links() {
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        let first = topo.connect(a, b, SimDuration::from_millis(3));
        let _second = topo.connect(a, b, SimDuration::from_millis(50));
        // BFS from b picks the first a↔b link in b's adjacency list.
        let bfs_hop = topo.routes_toward(b)[a.0].unwrap();
        assert_eq!(bfs_hop.0, first);
        // The simulator's delivery (via the fast path) uses that link's
        // 3 ms latency, not the 50 ms one.
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(topo, 1);
        sim.set_protocol(
            b,
            Recorder {
                deliveries: log.clone(),
            },
        );
        sim.start();
        sim.inject(a, Packet::udp(a, b, 1, 2, FlowId(1), vec![]));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(*log.borrow(), vec![SimTime::from_millis(3)]);
    }

    /// Multi-hop traffic to more destinations than the cache holds still
    /// delivers everything — eviction costs recomputation, not packets.
    #[test]
    fn lru_eviction_does_not_change_deliveries() {
        // Star of 8 leaves around a hub: leaf→leaf is always multi-hop.
        let mut topo = Topology::new();
        let hub = topo.add_node();
        let leaves = topo.add_nodes(8);
        for &l in &leaves {
            topo.connect(hub, l, SimDuration::from_millis(1));
        }
        let run = |cache_cap: usize| {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(topo.clone(), 9);
            sim.set_route_cache_capacity(cache_cap);
            for &l in &leaves {
                sim.set_protocol(
                    l,
                    Recorder {
                        deliveries: log.clone(),
                    },
                );
            }
            sim.start();
            // Every leaf sends to every other leaf.
            for &src in &leaves {
                for &dst in &leaves {
                    if src != dst {
                        sim.inject(src, Packet::udp(src, dst, 1, 2, FlowId(1), vec![]));
                    }
                }
            }
            sim.run_until(SimTime::from_secs(1));
            let times = log.borrow().clone();
            (times, sim.counters(), sim.route_cache_misses())
        };
        let (times_tiny, counters_tiny, misses_tiny) = run(2);
        let (times_big, counters_big, misses_big) = run(64);
        assert_eq!(times_tiny, times_big);
        assert_eq!(counters_tiny, counters_big);
        assert_eq!(counters_big.delivered, 8 * 7);
        // The tiny cache thrashes; the big one computes each leaf once.
        assert!(misses_tiny > misses_big, "{misses_tiny} vs {misses_big}");
        assert_eq!(misses_big, 8);
    }

    /// Purely neighbor-to-neighbor traffic never touches the BFS cache.
    #[test]
    fn adjacent_traffic_needs_no_bfs() {
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        topo.connect(a, b, SimDuration::from_millis(1));
        let mut sim = Simulator::new(topo, 1);
        sim.start();
        for _ in 0..100 {
            sim.inject(a, Packet::udp(a, b, 1, 2, FlowId(1), vec![]));
        }
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.counters().delivered, 100);
        assert_eq!(sim.route_cache_misses(), 0);
    }
}

#[cfg(test)]
mod loss_tests {
    use super::*;
    use crate::node::Link;
    use crate::packet::FlowId;
    use crate::traffic::{CbrSource, CountingSink};

    #[test]
    fn lossy_link_drops_fraction() {
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        let mut link = Link::with_latency(a, b, SimDuration::from_millis(1));
        link.loss_prob = 0.5;
        topo.add_link(link);
        let mut sim = Simulator::new(topo, 99);
        sim.set_protocol(
            a,
            CbrSource::new(b, FlowId(1), 32, SimDuration::from_millis(10)),
        );
        sim.set_protocol(b, CountingSink::new());
        sim.run_until(SimTime::from_secs(10));
        let c = sim.counters();
        let total = c.delivered + c.dropped_loss;
        assert!(total >= 900, "total {total}");
        let loss_rate = c.dropped_loss as f64 / total as f64;
        assert!((loss_rate - 0.5).abs() < 0.06, "loss rate {loss_rate}");
    }

    #[test]
    fn lossless_link_drops_nothing() {
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        topo.connect(a, b, SimDuration::from_millis(1));
        let mut sim = Simulator::new(topo, 7);
        sim.set_protocol(
            a,
            CbrSource::new(b, FlowId(1), 32, SimDuration::from_millis(10)),
        );
        sim.set_protocol(b, CountingSink::new());
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.counters().dropped_loss, 0);
    }
}

#[cfg(test)]
mod queueing_tests {
    use super::*;
    use crate::node::Link;
    use crate::packet::FlowId;
    use crate::traffic::{CbrSource, CountingSink};

    /// Overdriving a bandwidth-limited link must produce queueing and
    /// stretch delivery spacing to the serialization rate.
    #[test]
    fn saturated_link_queues_and_paces() {
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        let mut link = Link::with_latency(a, b, SimDuration::from_millis(5));
        // 1000-byte packets (946 payload + 54 headers) at 80 kbit/s → one
        // packet per 100 ms maximum.
        link.bandwidth_bps = 80_000;
        topo.add_link(link);
        let mut sim = Simulator::new(topo, 1);
        // Offered load: one packet per 20 ms — 5× capacity.
        sim.set_protocol(
            a,
            CbrSource::new(b, FlowId(1), 946, SimDuration::from_millis(20))
                .until(SimTime::from_secs(1)),
        );
        sim.set_protocol(b, CountingSink::new());
        sim.run_until(SimTime::from_secs(20));
        let counters = sim.counters();
        assert!(counters.queued > 30, "queued {}", counters.queued);
        let sink = sim.take_protocol_as::<CountingSink>(b).unwrap();
        // Arrivals are paced at the 100 ms serialization interval.
        let arrivals = sink.arrivals();
        assert!(arrivals.len() >= 40, "delivered {}", arrivals.len());
        for w in arrivals.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                gap >= SimDuration::from_millis(99),
                "gap {} below serialization pace",
                gap
            );
        }
    }

    /// An uncongested bandwidth-limited link queues nothing.
    #[test]
    fn uncongested_link_never_queues() {
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        let mut link = Link::with_latency(a, b, SimDuration::from_millis(5));
        link.bandwidth_bps = 8_000_000; // 1 ms per kB — far below load
        topo.add_link(link);
        let mut sim = Simulator::new(topo, 1);
        sim.set_protocol(
            a,
            CbrSource::new(b, FlowId(1), 946, SimDuration::from_millis(100)),
        );
        sim.set_protocol(b, CountingSink::new());
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.counters().queued, 0);
    }
}
