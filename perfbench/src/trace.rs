//! Tracing for the traced run: spans the harness records around its own
//! calls into each layer, samples of the program's `obs::global()` span
//! ring, and isolated timings of each layer's public functions (the
//! layer ladder).

use crate::probe;
use crate::report::Run;
use forensic_law::batch::{BatchAssessor, VerdictCache};
use forensic_law::engine::ComplianceEngine;
use forensic_law::factkey::FactKey;
use forensic_law::spec::ActionSpec;
use journal::{Journal, JournalConfig, RecordData};
use obs::{Stage, TraceId};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::frame::{self, Frame, Request, StreamDecoder};

/// Span id meaning "no parent" (and "not recorded" once the log is full).
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    parent: u32,
    name: &'static str,
    key: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log with parent ids. Capacity is fixed up front so
/// recording never allocates; spans past it are counted, not kept.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRec>,
    dropped: u64,
}

impl SpanLog {
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        let rec = SpanRec {
            parent,
            name,
            key,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(rec);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span that ends at [`end`](Self::end); children may name
    /// it as their parent meanwhile.
    pub fn begin(&mut self, name: &'static str, parent: u32, key: u64) -> u32 {
        let now = Instant::now();
        self.record(name, parent, key, now, now)
    }

    pub fn end(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end;
        }
    }

    /// Total duration of spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Total self time of spans named `name`: each span's duration less
    /// the time its children cover, in ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = child_ns.get_mut(s.parent as usize) {
                *slot += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .sum()
    }

    /// Writes every span as tab-separated
    /// `id parent name key start_ns end_ns` rows.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id\tparent\tname\tkey\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.key, s.start_ns, s.end_ns
            );
        }
        let _ = writeln!(out, "# dropped\t{}", self.dropped);
        std::fs::write(path, out)
    }
}

/// The traced run alternates untraced and traced quarters of the timed
/// phase (off, on, on, off), so both halves see the same host episodes
/// on average and their rates give the tracing overhead.
pub fn traced_quarter(elapsed: Duration, total: Duration) -> bool {
    let quarter = (elapsed.as_secs_f64() / total.as_secs_f64() * 4.0) as u32;
    quarter == 1 || quarter == 2
}

/// Percent by which the traced half's rate falls short of the untraced
/// half's (both halves last the same time, so counts compare directly).
pub fn overhead_pct(ops_off: u64, ops_on: u64) -> f64 {
    if ops_off == 0 {
        0.0
    } else {
        (1.0 - ops_on as f64 / ops_off as f64) * 100.0
    }
}

/// Polls the program's process-wide span ring while it runs and keeps
/// the durations of every queue, engine and serialize span it sees.
#[derive(Debug)]
pub struct RingSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<[Vec<u64>; 3]>,
}

/// Ring stages the sampler keeps, in result order.
const SAMPLED: [Stage; 3] = [Stage::Queue, Stage::Engine, Stage::Serialize];

impl RingSampler {
    pub fn start() -> RingSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut durations: [Vec<u64>; 3] = Default::default();
            // Spans of one stage are recorded in start order by the one
            // worker and the one loop thread, so a per-stage watermark
            // keeps each span once.
            let mut seen = [0u64; 3];
            while !flag.load(Ordering::Relaxed) {
                for span in obs::global().snapshot() {
                    if let Some(i) = SAMPLED.iter().position(|&s| s == span.stage) {
                        if span.start_us > seen[i] {
                            seen[i] = span.start_us;
                            durations[i].push(span.dur_us);
                        }
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            durations
        });
        RingSampler { stop, handle }
    }

    /// Stops sampling; returns what it saw per stage (queue, engine,
    /// serialize).
    pub fn finish(self) -> [RingStage; 3] {
        self.stop.store(true, Ordering::Relaxed);
        let durations = self.handle.join().expect("ring sampler panicked");
        durations.map(|mut d| {
            d.sort_unstable();
            RingStage {
                samples: d.len(),
                p50_us: d.get(d.len() / 2).map_or(0.0, |&v| v as f64),
                ge_1us_share: d.iter().filter(|&&v| v >= 1).count() as f64 / d.len().max(1) as f64,
            }
        })
    }
}

/// The spans of one ring stage the sampler saw. The ring keeps whole
/// µs, so a stage shorter than 1 µs reads 0 at its median; the share
/// of spans at 1 µs or more still moves when it gets slower or faster.
#[derive(Debug, Clone, Copy, Default)]
pub struct RingStage {
    pub samples: usize,
    pub p50_us: f64,
    pub ge_1us_share: f64,
}

impl RingStage {
    /// The table note for this stage's metrics.
    pub fn note(&self) -> String {
        let limited = if self.samples > 0 && self.p50_us < 1.0 {
            "p50 is below the ring's 1 us resolution; "
        } else {
            ""
        };
        format!(
            "{limited}{} spans sampled, {:.1}% at >= 1 us",
            self.samples,
            self.ge_1us_share * 100.0
        )
    }
}

/// Wall time of one lap of `f`, taking the fastest of several laps of
/// at least `min` each: host noise only ever slows a lap down.
fn fastest_ns_per(items: usize, min: Duration, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut laps = 0u64;
        while laps == 0 || start.elapsed() < min {
            f();
            laps += 1;
        }
        let per = start.elapsed().as_nanos() as f64 / (laps as f64 * items.max(1) as f64);
        best = best.min(per);
    }
    best
}

/// The layer ladder: times each layer's public function on its own,
/// on `lines` (a workload's own requests), into `run`'s per-layer
/// metrics. `scratch` is an empty directory for the journal rungs.
pub fn ladder(lines: &[String], scratch: &Path, run: &mut Run) {
    let lap = Duration::from_millis(60);
    let engine = ComplianceEngine::new();
    let actions: Vec<_> = lines
        .iter()
        .map(|l| crate::parse_line(l.as_bytes()).expect("workload lines parse"))
        .collect();
    let mut distinct = actions.clone();
    let mut keys = std::collections::HashSet::new();
    distinct.retain(|a| keys.insert(FactKey::of(a)));

    let ns = fastest_ns_per(lines.len(), lap, || {
        for l in lines {
            black_box(ActionSpec::from_json_line(black_box(l)).and_then(|s| s.to_action()))
                .expect("workload lines parse");
        }
    });
    run.set("spec.parse_ns", ns);
    let ns = fastest_ns_per(actions.len(), lap, || {
        for a in &actions {
            black_box(FactKey::of(black_box(a)));
        }
    });
    run.set("factkey.project_ns", ns);
    let ns = fastest_ns_per(distinct.len(), lap, || {
        let cache = VerdictCache::new();
        for a in &distinct {
            black_box(cache.assess(&engine, a));
        }
    });
    run.set("cache.miss_ns", ns);
    let warm = VerdictCache::new();
    for a in &distinct {
        warm.assess(&engine, a);
    }
    let ns = fastest_ns_per(actions.len(), lap, || {
        for a in &actions {
            black_box(warm.assess(&engine, black_box(a)));
        }
    });
    run.set("cache.hit_ns", ns);
    let ns = fastest_ns_per(distinct.len(), lap, || {
        for a in &distinct {
            black_box(engine.assess(black_box(a)).verdict_line());
        }
    });
    run.set("engine.assess_ns", ns);

    let frames: Vec<Frame> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            Frame::Request(Request {
                id: i as u64,
                deadline_ms: 0,
                want_explain: false,
                payload: l.as_bytes().to_vec(),
            })
        })
        .collect();
    let ns = fastest_ns_per(frames.len(), lap, || {
        for f in &frames {
            black_box(frame::encode(black_box(f)));
        }
    });
    run.set("wire.encode_ns", ns);
    let stream: Vec<u8> = frames.iter().flat_map(frame::encode).collect();
    let ns = fastest_ns_per(frames.len(), lap, || {
        let mut decoder = StreamDecoder::new(frame::MAX_FRAME);
        let mut decoded = 0usize;
        for read in stream.chunks(64 * 1024) {
            decoder.extend(read);
            while let Some(f) = decoder.next_frame().expect("well-formed stream") {
                black_box(f);
                decoded += 1;
            }
        }
        assert_eq!(decoded, frames.len(), "every frame decodes");
    });
    run.set("wire.decode_ns", ns);

    let verdicts: Vec<Vec<u8>> = actions
        .iter()
        .map(|a| warm.assess(&engine, a).verdict_line().into_bytes())
        .collect();
    let record = |i: usize| RecordData {
        trace: TraceId::from_u64(i as u64 + 1),
        at_us: journal::now_us(),
        status: 0,
        request: lines[i % lines.len()].as_bytes().to_vec(),
        verdict: verdicts[i % lines.len()].clone(),
    };
    let (journal, _) =
        Journal::open(scratch, JournalConfig::default()).expect("scratch journal opens");
    let appends = lines.len().max(4096);
    let mut next = 0usize;
    let ns = fastest_ns_per(appends, lap, || {
        for _ in 0..appends {
            journal.append(record(next)).expect("journal append");
            next += 1;
        }
    });
    run.set("journal.append_ns", ns);
    let commits: Vec<f64> = (0..64)
        .map(|i| {
            let start = Instant::now();
            journal.append_durable(record(i)).expect("durable append");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    journal.close().expect("scratch journal closes");
    run.set("journal.commit_us_p50", probe::median(&commits));

    let frontier: Vec<_> = actions.iter().take(14).cloned().collect();
    let assessor = BatchAssessor::new().with_threads(2);
    assessor.assess_all(&frontier);
    let calls: Vec<f64> = (0..400)
        .map(|_| {
            let start = Instant::now();
            black_box(assessor.assess_all_with_report(&frontier));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    run.set("batch.call_us", probe::median(&calls));
}
