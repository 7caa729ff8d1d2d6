//! Live service observability: atomic counters and fixed-bucket latency
//! histograms with quantile extraction and a JSON snapshot emitter.
//!
//! Everything here is lock-free on the record path — a handful of
//! `Relaxed` atomic ops per request — so metrics never become the
//! bottleneck they are supposed to observe. Histograms use log-linear
//! buckets (8 linear sub-buckets per power-of-two octave of
//! microseconds), giving a bounded ≤ 12.5 % relative error on reported
//! quantiles with a fixed 256-slot table — the same shape HdrHistogram
//! uses, reduced to what a latency report needs.
//!
//! [`MetricsSnapshot::to_json`] emits the snapshot as a single-line
//! JSON object (plain text, std-only): the `metrics:` line that
//! `lexforensica serve` prints at drain.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per octave (8 → ≤ 12.5 % quantile error).
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count; the top bucket absorbs everything ≥ ~4.7 hours.
const BUCKETS: usize = 256;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Maps a microsecond value to its log-linear bucket index.
fn bucket_of(us: u64) -> usize {
    if us < SUBS as u64 {
        return us as usize;
    }
    let msb = 63 - us.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((us >> shift) & (SUBS as u64 - 1)) as usize;
    let idx = (msb - SUB_BITS + 1) as usize * SUBS + sub;
    idx.min(BUCKETS - 1)
}

/// The largest microsecond value a bucket admits (its reported bound).
fn bucket_bound(idx: usize) -> u64 {
    if idx < SUBS {
        return idx as u64;
    }
    let octave = (idx / SUBS) as u32;
    let sub = (idx % SUBS) as u64;
    ((SUBS as u64 + sub + 1) << (octave - 1)) - 1
}

/// A fixed-bucket latency histogram; thread-safe, lock-free.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new([0u64; BUCKETS].map(AtomicU64::new)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `p`-quantile (`0.0..=1.0`) in microseconds, reported as the
    /// bound of the bucket holding the target sample (≤ 12.5 % high).
    /// Returns 0 for an empty histogram.
    pub fn quantile_us(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_bound(idx);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// A point-in-time summary (count, mean, p50/p95/p99, max).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let sum = self.sum_us.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            p99_us: self.quantile_us(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time histogram summary, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_us: f64,
    /// Median (bucket-bound estimate).
    pub p50_us: u64,
    /// 95th percentile (bucket-bound estimate).
    pub p95_us: u64,
    /// 99th percentile (bucket-bound estimate).
    pub p99_us: u64,
    /// Largest sample seen.
    pub max_us: u64,
}

impl HistogramSnapshot {
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"count\": {}, \"mean_us\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
            self.count, self.mean_us, self.p50_us, self.p95_us, self.p99_us, self.max_us
        );
    }
}

impl std::fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.0}us p50={}us p95={}us p99={}us max={}us",
            self.count, self.mean_us, self.p50_us, self.p95_us, self.p99_us, self.max_us
        )
    }
}

/// The service's full metric set; shared across workers and producers.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Submission attempts (accepted + rejected).
    pub submitted: Counter,
    /// Requests admitted to the queue.
    pub accepted: Counter,
    /// Requests refused at admission (Reject policy at capacity).
    pub rejected: Counter,
    /// Accepted requests evicted by DropOldest before a worker saw them.
    pub evicted: Counter,
    /// Requests answered with a completed assessment.
    pub completed: Counter,
    /// Requests answered `TimedOut` (deadline passed while queued).
    pub timed_out: Counter,
    /// Time from admission to a worker dequeuing the request.
    pub queue_wait: Histogram,
    /// Engine/cache time per completed request.
    pub engine: Histogram,
    /// Time from admission to the response being posted.
    pub end_to_end: Histogram,
}

impl ServiceMetrics {
    /// Snapshots every counter and histogram, tagging the current queue
    /// depth.
    pub fn snapshot(&self, queue_depth: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.get(),
            accepted: self.accepted.get(),
            rejected: self.rejected.get(),
            evicted: self.evicted.get(),
            completed: self.completed.get(),
            timed_out: self.timed_out.get(),
            queue_depth: queue_depth as u64,
            queue_wait: self.queue_wait.snapshot(),
            engine: self.engine.snapshot(),
            end_to_end: self.end_to_end.snapshot(),
        }
    }
}

/// A point-in-time copy of every service metric.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Submission attempts (accepted + rejected).
    pub submitted: u64,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Accepted requests evicted by DropOldest.
    pub evicted: u64,
    /// Requests answered with a completed assessment.
    pub completed: u64,
    /// Requests answered `TimedOut`.
    pub timed_out: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: u64,
    /// Enqueue-to-dequeue wait.
    pub queue_wait: HistogramSnapshot,
    /// Engine/cache time per completed request.
    pub engine: HistogramSnapshot,
    /// Admission-to-response latency.
    pub end_to_end: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Responses posted (completed + timed out + evicted). Equals
    /// `accepted` once the service has drained.
    pub fn responses(&self) -> u64 {
        self.completed + self.timed_out + self.evicted
    }

    /// Fraction of submissions shed at admission, in `0.0..=1.0`.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.rejected as f64 / self.submitted as f64
        }
    }

    /// Serializes as one JSON object on a single line, for the serving
    /// CLI's drain-time log; it parses under `forensic_law::spec::json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"submitted\": {}, \"accepted\": {}, \"rejected\": {}, \"evicted\": {}, \
             \"completed\": {}, \"timed_out\": {}, \"queue_depth\": {}, \"shed_rate\": {:.4}, ",
            self.submitted,
            self.accepted,
            self.rejected,
            self.evicted,
            self.completed,
            self.timed_out,
            self.queue_depth,
            self.shed_rate()
        );
        out.push_str("\"queue_wait_us\": ");
        self.queue_wait.write_json(&mut out);
        out.push_str(", \"engine_us\": ");
        self.engine.write_json(&mut out);
        out.push_str(", \"end_to_end_us\": ");
        self.end_to_end.write_json(&mut out);
        out.push('}');
        out
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "submitted={} accepted={} rejected={} evicted={} completed={} timed_out={} depth={}",
            self.submitted,
            self.accepted,
            self.rejected,
            self.evicted,
            self.completed,
            self.timed_out,
            self.queue_depth
        )?;
        writeln!(f, "  queue wait:  {}", self.queue_wait)?;
        writeln!(f, "  engine:      {}", self.engine)?;
        write!(f, "  end to end:  {}", self.end_to_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_exhaustive() {
        let mut last = 0;
        for us in 0..100_000u64 {
            let idx = bucket_of(us);
            assert!(idx >= last, "bucket index regressed at {us}");
            assert!(us <= bucket_bound(idx), "bound below value at {us}");
            last = idx;
        }
        // The top bucket absorbs arbitrarily large values.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bounds_are_tight_for_small_values() {
        // Sub-octave buckets are exact below 8 µs.
        for us in 0..8u64 {
            assert_eq!(bucket_bound(bucket_of(us)), us);
        }
        // Above that the bound is within 12.5 % of the value.
        for us in [100u64, 1_000, 10_000, 1_000_000] {
            let bound = bucket_bound(bucket_of(us));
            assert!(bound >= us);
            assert!((bound - us) as f64 <= us as f64 * 0.125 + 1.0);
        }
    }

    #[test]
    fn quantiles_track_a_uniform_stream() {
        let h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        let within =
            |got: u64, want: u64| got >= want && (got - want) as f64 <= want as f64 * 0.125 + 1.0;
        assert!(within(snap.p50_us, 500), "p50 = {}", snap.p50_us);
        assert!(within(snap.p95_us, 950), "p95 = {}", snap.p95_us);
        assert!(within(snap.p99_us, 990), "p99 = {}", snap.p99_us);
        assert_eq!(snap.max_us, 1000);
        assert!((snap.mean_us - 500.5).abs() < 0.6);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap, HistogramSnapshot::default());
    }

    #[test]
    fn quantile_of_a_point_mass_is_its_bucket_bound() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(Duration::from_micros(64));
        }
        for p in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(p), bucket_bound(bucket_of(64)));
        }
    }

    #[test]
    fn snapshot_accounting_identities() {
        let m = ServiceMetrics::default();
        m.submitted.add(10);
        m.accepted.add(8);
        m.rejected.add(2);
        m.completed.add(6);
        m.timed_out.inc();
        m.evicted.inc();
        let snap = m.snapshot(0);
        assert_eq!(snap.responses(), 8);
        assert_eq!(snap.responses(), snap.accepted);
        assert!((snap.shed_rate() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn json_emitter_is_well_formed() {
        let m = ServiceMetrics::default();
        m.submitted.inc();
        m.accepted.inc();
        m.completed.inc();
        m.end_to_end.record(Duration::from_micros(120));
        let text = m.snapshot(3).to_json();
        assert!(text.starts_with('{') && text.ends_with('}'));
        assert!(text.contains("\"accepted\": 1"));
        assert!(text.contains("\"queue_depth\": 3"));
        assert!(text.contains("\"end_to_end_us\": {\"count\": 1"));
        assert!(!text.contains('\n'));
    }

    #[test]
    fn json_snapshot_parses_under_the_spec_reader() {
        use forensic_law::spec::json::{parse, Value};
        fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
            match value {
                Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        let m = ServiceMetrics::default();
        m.submitted.add(10);
        m.accepted.add(8);
        m.rejected.add(2);
        m.completed.add(8);
        m.end_to_end.record(Duration::from_micros(750));
        let doc = parse(&m.snapshot(3).to_json()).expect("snapshot JSON parses");

        assert_eq!(field(&doc, "accepted"), Some(&Value::Number(8.0)));
        assert_eq!(field(&doc, "shed_rate"), Some(&Value::Number(0.2)));
        let e2e = field(&doc, "end_to_end_us").expect("histogram object");
        assert_eq!(field(e2e, "count"), Some(&Value::Number(1.0)));
        assert!(field(e2e, "p99_us").is_some());
    }
}
