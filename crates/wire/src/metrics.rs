//! Connection-level observability for the wire layer.
//!
//! Reuses the service crate's lock-free [`Counter`] and log-linear
//! [`Histogram`] so wire latency quantiles come out in exactly the same
//! shape as the service's queue-wait/engine/end-to-end snapshots — one
//! histogram model across the whole serving stack, and one single-line
//! JSON emitter convention for the serving CLI's drain-time log.

use service::metrics::{Counter, Histogram, HistogramSnapshot};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live wire metrics, shared by the event loop and the service-worker
/// completion observers. All recording is lock-free.
#[derive(Debug, Default)]
pub struct WireMetrics {
    /// Connections accepted.
    pub connections_opened: Counter,
    /// Connections fully torn down.
    pub connections_closed: Counter,
    /// Request frames decoded.
    pub frames_in: Counter,
    /// Response frames written.
    pub frames_out: Counter,
    /// Bytes read off the wire (prefix + body, well-formed frames).
    pub bytes_in: Counter,
    /// Bytes written to the wire (prefix + body).
    pub bytes_out: Counter,
    /// Connections killed by a protocol error (oversized, malformed, or
    /// torn frame, or a client that sent a response kind).
    pub protocol_errors: Counter,
    /// Requests whose payload failed to parse (answered `BadRequest`
    /// in-band; the connection survives).
    pub bad_requests: Counter,
    /// Requests not admitted by the service (answered `Rejected` or
    /// `GoingAway` in-band).
    pub not_admitted: Counter,
    /// Event-loop doorbell wakeups (eventfd reads). Responses ÷ wakeups
    /// is the completion-batching factor.
    pub wakeups: Counter,
    /// Vectored write calls issued by the event loop. Frames out ÷
    /// batches is the write-coalescing factor.
    pub writev_batches: Counter,
    /// Highest per-connection in-flight depth observed.
    peak_inflight: AtomicU64,
    /// Frame-decode to response-frame-queued, per answered request —
    /// the wire layer's own end-to-end view (service queue + engine +
    /// completion plumbing, excluding socket transmission).
    pub wire_latency: Histogram,
}

impl WireMetrics {
    /// Folds a per-connection in-flight depth into the observed peak.
    pub fn observe_inflight(&self, depth: usize) {
        self.peak_inflight
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Records one answered request's wire-side latency.
    pub fn record_latency(&self, d: Duration) {
        self.wire_latency.record(d);
    }

    /// A point-in-time copy of every wire metric.
    pub fn snapshot(&self) -> WireMetricsSnapshot {
        WireMetricsSnapshot {
            connections_opened: self.connections_opened.get(),
            connections_closed: self.connections_closed.get(),
            frames_in: self.frames_in.get(),
            frames_out: self.frames_out.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            protocol_errors: self.protocol_errors.get(),
            bad_requests: self.bad_requests.get(),
            not_admitted: self.not_admitted.get(),
            wakeups: self.wakeups.get(),
            writev_batches: self.writev_batches.get(),
            peak_inflight: self.peak_inflight.load(Ordering::Relaxed),
            wire_latency: self.wire_latency.snapshot(),
        }
    }
}

/// A point-in-time copy of [`WireMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WireMetricsSnapshot {
    /// Connections accepted.
    pub connections_opened: u64,
    /// Connections fully torn down.
    pub connections_closed: u64,
    /// Request frames decoded.
    pub frames_in: u64,
    /// Response frames written.
    pub frames_out: u64,
    /// Bytes read off the wire.
    pub bytes_in: u64,
    /// Bytes written to the wire.
    pub bytes_out: u64,
    /// Connections killed by a protocol error.
    pub protocol_errors: u64,
    /// Payload parse failures answered in-band.
    pub bad_requests: u64,
    /// Admission refusals answered in-band.
    pub not_admitted: u64,
    /// Event-loop doorbell wakeups.
    pub wakeups: u64,
    /// Vectored write calls.
    pub writev_batches: u64,
    /// Highest per-connection in-flight depth observed.
    pub peak_inflight: u64,
    /// Wire-side request latency.
    pub wire_latency: HistogramSnapshot,
}

impl WireMetricsSnapshot {
    /// Serializes as one JSON object on a single line, in the same
    /// shape as the service snapshot; it parses under
    /// `forensic_law::spec::json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"connections_opened\": {}, \"connections_closed\": {}, \"frames_in\": {}, \
             \"frames_out\": {}, \"bytes_in\": {}, \"bytes_out\": {}, \"protocol_errors\": {}, \
             \"bad_requests\": {}, \"not_admitted\": {}, \"wakeups\": {}, \
             \"writev_batches\": {}, \"peak_inflight\": {}, ",
            self.connections_opened,
            self.connections_closed,
            self.frames_in,
            self.frames_out,
            self.bytes_in,
            self.bytes_out,
            self.protocol_errors,
            self.bad_requests,
            self.not_admitted,
            self.wakeups,
            self.writev_batches,
            self.peak_inflight,
        );
        let h = &self.wire_latency;
        let _ = write!(
            out,
            "\"wire_latency_us\": {{\"count\": {}, \"mean_us\": {:.1}, \"p50_us\": {}, \
             \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}}}",
            h.count, h.mean_us, h.p50_us, h.p95_us, h.p99_us, h.max_us
        );
        out
    }
}

impl std::fmt::Display for WireMetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "connections={}/{} frames in/out={}/{} bytes in/out={}/{} \
             protocol_errors={} bad_requests={} not_admitted={} peak_inflight={}",
            self.connections_opened,
            self.connections_closed,
            self.frames_in,
            self.frames_out,
            self.bytes_in,
            self.bytes_out,
            self.protocol_errors,
            self.bad_requests,
            self.not_admitted,
            self.peak_inflight
        )?;
        write!(f, "  wire latency: {}", self.wire_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_inflight_is_a_running_max() {
        let m = WireMetrics::default();
        for depth in [1usize, 5, 3, 7, 2] {
            m.observe_inflight(depth);
        }
        assert_eq!(m.snapshot().peak_inflight, 7);
    }

    #[test]
    fn json_emitter_is_well_formed_and_single_line() {
        let m = WireMetrics::default();
        m.connections_opened.inc();
        m.frames_in.add(3);
        m.record_latency(Duration::from_micros(250));
        let text = m.snapshot().to_json();
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains("\"frames_in\": 3"));
        assert!(text.contains("\"wire_latency_us\": {\"count\": 1"));
        assert!(!text.contains('\n'));
        forensic_law::spec::json::parse(&text).expect("snapshot JSON parses");
    }
}
