//! Traffic generators and sinks, implemented as [`Protocol`]s.

use crate::node::NodeId;
use crate::packet::{FlowId, Packet, Transport};
use crate::sim::{Context, Protocol};
use simcore::time::{SimDuration, SimTime};

const TICK: u64 = 1;

fn make_packet(ctx: &mut Context<'_>, dst: NodeId, flow: FlowId, payload_len: usize) -> Packet {
    Packet::new(
        ctx.node(),
        dst,
        Transport::Udp {
            src_port: 40_000,
            dst_port: 9,
        },
        flow,
        vec![0u8; payload_len],
    )
}

/// Constant-bit-rate source: one `payload_len`-byte packet every
/// `interval`, forever (until the simulation deadline).
#[derive(Debug, Clone)]
pub struct CbrSource {
    dst: NodeId,
    flow: FlowId,
    payload_len: usize,
    interval: SimDuration,
    stop_at: Option<SimTime>,
    sent: u64,
}

impl CbrSource {
    /// Creates a CBR source toward `dst`.
    pub fn new(dst: NodeId, flow: FlowId, payload_len: usize, interval: SimDuration) -> Self {
        CbrSource {
            dst,
            flow,
            payload_len,
            interval,
            stop_at: None,
            sent: 0,
        }
    }

    /// Stops emitting at the given time.
    #[must_use]
    pub fn until(mut self, stop_at: SimTime) -> Self {
        self.stop_at = Some(stop_at);
        self
    }

    /// Packets emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }
}

impl Protocol for CbrSource {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.interval, TICK);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if let Some(stop) = self.stop_at {
            if ctx.time() > stop {
                return;
            }
        }
        let p = make_packet(ctx, self.dst, self.flow, self.payload_len);
        ctx.send(p);
        self.sent += 1;
        ctx.set_timer(self.interval, TICK);
    }
}

/// Poisson source: exponential inter-arrival times with the given mean
/// rate (packets per second).
#[derive(Debug, Clone)]
pub struct PoissonSource {
    dst: NodeId,
    flow: FlowId,
    payload_len: usize,
    rate_pps: f64,
    stop_at: Option<SimTime>,
    sent: u64,
}

impl PoissonSource {
    /// Creates a Poisson source toward `dst` emitting `rate_pps` packets
    /// per second on average.
    ///
    /// # Panics
    ///
    /// Panics if `rate_pps <= 0`.
    pub fn new(dst: NodeId, flow: FlowId, payload_len: usize, rate_pps: f64) -> Self {
        assert!(rate_pps > 0.0, "rate must be positive");
        PoissonSource {
            dst,
            flow,
            payload_len,
            rate_pps,
            stop_at: None,
            sent: 0,
        }
    }

    /// Stops emitting at the given time.
    #[must_use]
    pub fn until(mut self, stop_at: SimTime) -> Self {
        self.stop_at = Some(stop_at);
        self
    }

    /// Packets emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn schedule_next(&self, ctx: &mut Context<'_>) {
        let gap = ctx.rng().exponential(self.rate_pps);
        ctx.set_timer(SimDuration::from_secs_f64(gap), TICK);
    }
}

impl Protocol for PoissonSource {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.schedule_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        if let Some(stop) = self.stop_at {
            if ctx.time() > stop {
                return;
            }
        }
        let p = make_packet(ctx, self.dst, self.flow, self.payload_len);
        ctx.send(p);
        self.sent += 1;
        self.schedule_next(ctx);
    }
}

/// Pareto on/off source: heavy-tailed bursts (on periods) alternating with
/// silences (off periods); during bursts it emits CBR packets.
#[derive(Debug, Clone)]
pub struct ParetoOnOffSource {
    dst: NodeId,
    flow: FlowId,
    payload_len: usize,
    burst_interval: SimDuration,
    on_mean_s: f64,
    off_mean_s: f64,
    shape: f64,
    on: bool,
    epoch: u64,
    sent: u64,
}

const TOGGLE: u64 = 2;
const TICK_BASE: u64 = 1000;

impl ParetoOnOffSource {
    /// Creates an on/off source. `on_mean_s`/`off_mean_s` are the mean
    /// burst/silence durations; `shape` is the Pareto tail index
    /// (1 < shape ≤ 2 gives self-similar traffic).
    pub fn new(
        dst: NodeId,
        flow: FlowId,
        payload_len: usize,
        burst_interval: SimDuration,
        on_mean_s: f64,
        off_mean_s: f64,
        shape: f64,
    ) -> Self {
        ParetoOnOffSource {
            dst,
            flow,
            payload_len,
            burst_interval,
            on_mean_s,
            off_mean_s,
            shape,
            on: false,
            epoch: 0,
            sent: 0,
        }
    }

    /// Packets emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn pareto_duration(&self, ctx: &mut Context<'_>, mean_s: f64) -> SimDuration {
        // For Pareto, mean = xm * alpha / (alpha - 1); invert for xm.
        let alpha = self.shape;
        let xm = mean_s * (alpha - 1.0) / alpha;
        SimDuration::from_secs_f64(ctx.rng().pareto(xm.max(1e-6), alpha))
    }
}

impl ParetoOnOffSource {
    fn enter_on(&mut self, ctx: &mut Context<'_>) {
        self.on = true;
        self.epoch += 1;
        ctx.set_timer(SimDuration::ZERO, TICK_BASE + self.epoch);
        let on = self.pareto_duration(ctx, self.on_mean_s);
        ctx.set_timer(on, TOGGLE);
    }
}

impl Protocol for ParetoOnOffSource {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.enter_on(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if token == TOGGLE {
            if self.on {
                // Burst ended: go silent, then start the next burst.
                self.on = false;
                let off = self.pareto_duration(ctx, self.off_mean_s);
                ctx.set_timer(off, TOGGLE);
            } else {
                self.enter_on(ctx);
            }
        } else if token == TICK_BASE + self.epoch && self.on {
            // A tick belonging to the current burst epoch: emit and
            // reschedule. Ticks from earlier epochs die here.
            let p = make_packet(ctx, self.dst, self.flow, self.payload_len);
            ctx.send(p);
            self.sent += 1;
            ctx.set_timer(self.burst_interval, token);
        }
    }
}

/// A sink that counts deliveries and records arrival times.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    received: u64,
    bytes: u64,
    arrivals: Vec<SimTime>,
    delays: Vec<SimDuration>,
}

impl CountingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Packets received.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Arrival timestamps.
    pub fn arrivals(&self) -> &[SimTime] {
        &self.arrivals
    }

    /// End-to-end delays (arrival − send stamp).
    pub fn delays(&self) -> &[SimDuration] {
        &self.delays
    }

    /// Mean end-to-end delay in seconds, if any packets arrived.
    pub fn mean_delay_s(&self) -> Option<f64> {
        if self.delays.is_empty() {
            None
        } else {
            Some(
                self.delays.iter().map(|d| d.as_secs_f64()).sum::<f64>() / self.delays.len() as f64,
            )
        }
    }
}

impl Protocol for CountingSink {
    fn on_packet(&mut self, ctx: &mut Context<'_>, packet: Packet) {
        self.received += 1;
        self.bytes += packet.size_bytes() as u64;
        self.arrivals.push(ctx.time());
        self.delays.push(ctx.time() - packet.sent_at());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Topology;
    use crate::sim::Simulator;

    fn pair() -> (crate::node::Topology, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node();
        let b = topo.add_node();
        topo.connect(a, b, SimDuration::from_millis(10));
        (topo, a, b)
    }

    fn sink_of(sim: &mut Simulator, node: NodeId) -> CountingSink {
        *sim.take_protocol_as::<CountingSink>(node)
            .expect("sink attached")
    }

    #[test]
    fn cbr_emits_at_fixed_rate() {
        let (topo, a, b) = pair();
        let mut sim = Simulator::new(topo, 1);
        sim.set_protocol(
            a,
            CbrSource::new(b, FlowId(1), 100, SimDuration::from_millis(100)),
        );
        sim.set_protocol(b, CountingSink::new());
        sim.run_until(SimTime::from_secs(1));
        // Ticks at 0.1..=1.0 sent, but those arriving by t=1.0 are 9
        // (0.1+0.01 .. 0.9+0.01); allow 9..=10.
        let delivered = sim.counters().delivered;
        assert!((9..=10).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn cbr_until_stops() {
        let (topo, a, b) = pair();
        let mut sim = Simulator::new(topo, 1);
        sim.set_protocol(
            a,
            CbrSource::new(b, FlowId(1), 10, SimDuration::from_millis(100))
                .until(SimTime::from_millis(500)),
        );
        sim.set_protocol(b, CountingSink::new());
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.counters().delivered, 5);
    }

    #[test]
    fn poisson_rate_approximates() {
        let (topo, a, b) = pair();
        let mut sim = Simulator::new(topo, 42);
        sim.set_protocol(a, PoissonSource::new(b, FlowId(1), 10, 200.0));
        sim.set_protocol(b, CountingSink::new());
        sim.run_until(SimTime::from_secs(10));
        let delivered = sim.counters().delivered as f64;
        // 2000 expected; 3-sigma ≈ 134.
        assert!((delivered - 2000.0).abs() < 200.0, "delivered {delivered}");
    }

    #[test]
    fn pareto_on_off_produces_bursts() {
        let (topo, a, b) = pair();
        let mut sim = Simulator::new(topo, 7);
        sim.set_protocol(
            a,
            ParetoOnOffSource::new(
                b,
                FlowId(1),
                50,
                SimDuration::from_millis(10),
                0.5,
                0.5,
                1.5,
            ),
        );
        sim.set_protocol(b, CountingSink::new());
        sim.run_until(SimTime::from_secs(10));
        let delivered = sim.counters().delivered;
        // Roughly half the time on at 100 pps → ~500; very loose bounds
        // because the tail is heavy.
        assert!(delivered > 50, "delivered {delivered}");
        assert!(delivered < 1100, "delivered {delivered}");
    }

    #[test]
    fn sink_records_delays() {
        let (topo, a, b) = pair();
        let mut sim = Simulator::new(topo, 1);
        sim.set_protocol(
            a,
            CbrSource::new(b, FlowId(1), 0, SimDuration::from_millis(250)),
        );
        sim.set_protocol(b, CountingSink::new());
        sim.run_until(SimTime::from_secs(1));
        let sink = sink_of(&mut sim, b);
        assert!(sink.received() >= 3);
        assert_eq!(sink.arrivals().len(), sink.received() as usize);
        let mean = sink.mean_delay_s().unwrap();
        assert!((mean - 0.010).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn empty_sink_has_no_mean() {
        let sink = CountingSink::new();
        assert!(sink.mean_delay_s().is_none());
        assert_eq!(sink.received(), 0);
        assert_eq!(sink.bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn poisson_rejects_zero_rate() {
        PoissonSource::new(NodeId(0), FlowId(0), 1, 0.0);
    }
}
