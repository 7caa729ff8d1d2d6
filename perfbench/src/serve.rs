//! `serve`: agency tools send JSONL actions over TCP to a journaled
//! server — the production path.
//!
//! Set-up recovers a journal an earlier session left behind, starts a
//! one-worker `ComplianceService` behind an `EventServer` that journals
//! every answer, and warms the hot set through the wire. The timed phase
//! is one connection driven by `wire::load::drive` as a closed loop at a
//! fixed window; 90% of requests repeat hot-set patterns (cache hits)
//! and 10% carry patterns never seen before (engine runs).

use crate::gen::{self, Pick, ServeInputs, ServeStream, HOT_SET};
use crate::probe::{self, CpuWindow, Phase, Setups};
use crate::report::{EndToEnd, Run};
use crate::trace::{self, RingSampler, SpanLog, ROOT};
use crate::Options;
use forensic_law::engine::ComplianceEngine;
use journal::{Journal, JournalConfig, JournalReader, Mode};
use service::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::load::{self, LoadRequest, LoadSource};
use wire::{EventServer, Status, WireConfig};

/// Requests in flight on the one connection. At this depth the loop
/// thread writes tens of frames per `writev` and throughput is bounded
/// by the server's CPU rather than by wake-up round trips. Shallower
/// windows use the vCPUs no less per request, and lost more throughput
/// when the host took CPU time away: on a 2-vCPU VM, with real-time
/// busy loops taking some 30% of each vCPU, throughput fell 44% at a
/// window of 4, 41% at 16 and 34% at 128.
const WINDOW: usize = 128;

/// Records the earlier session left in the journal set-up recovers.
const EARLIER_RECORDS: usize = 200_000;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Upper bound on timed requests, so sample buffers have a fixed size.
const MAX_REQUESTS: usize = 4_000_000;

/// `peak_rss_mb` is read once this many requests are answered, so it
/// compares memory after the same work: the verdict cache grows with
/// every novel request, and a faster server answers more of them in a
/// fixed time.
const RSS_AT_OPS: usize = 200_000;

/// Request id layout: sequence number above bit 20, a novel flag at bit
/// 19, and the hot index or novel number below it.
const NOVEL_BIT: u64 = 1 << 19;
const PICK_MASK: u64 = NOVEL_BIT - 1;

fn parse(line: &str) -> forensic_law::action::InvestigativeAction {
    crate::parse_line(line.as_bytes()).expect("generated lines are valid specs")
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The serving stack with the threads each part started.
pub struct Stack {
    journal: Arc<Journal>,
    service: Arc<ComplianceService>,
    server: EventServer,
    recovered: u64,
    recover_s: f64,
    /// Threads `Journal::open` started.
    pub writer_tids: Vec<u32>,
    /// Threads `ComplianceService::start` started.
    pub worker_tids: Vec<u32>,
    /// Threads `EventServer::start_with_sinks` started.
    pub loop_tids: Vec<u32>,
}

impl Stack {
    /// Recovers the journal at `dir` and starts service and server,
    /// noting which threads each start call spawned. Nothing else may
    /// start threads meanwhile.
    pub fn start(dir: &Path, spans: &mut SpanLog, parent: u32) -> Stack {
        let t = Instant::now();
        let ((journal, recovery), writer_tids) = probe::spawned_by(|| {
            Journal::open(dir, JournalConfig::default()).expect("journal recovers")
        });
        let recover_s = t.elapsed().as_secs_f64();
        spans.record("setup.journal_open", parent, 0, t, Instant::now());
        let t = Instant::now();
        let (service, worker_tids) = probe::spawned_by(|| {
            ComplianceService::start(ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            })
        });
        let service = Arc::new(service);
        let journal = Arc::new(journal);
        spans.record("setup.service_start", parent, 0, t, Instant::now());
        let t = Instant::now();
        let (server, loop_tids) = probe::spawned_by(|| {
            EventServer::start_with_sinks(
                "127.0.0.1:0",
                Arc::clone(&service),
                WireConfig::default(),
                None,
                Some(Arc::clone(&journal)),
            )
            .expect("loopback server starts")
        });
        spans.record("setup.server_start", parent, 0, t, Instant::now());
        Stack {
            journal,
            service,
            server,
            recovered: recovery.records,
            recover_s,
            writer_tids,
            worker_tids,
            loop_tids,
        }
    }

    /// Whether each start call spawned exactly the one thread it owns:
    /// the loop thread, the worker, and the named `journal-writer`.
    pub fn attributed(&self) -> bool {
        self.loop_tids.len() == 1
            && self.worker_tids.len() == 1
            && self.writer_tids.len() == 1
            && probe::thread_name(self.writer_tids[0]) == "journal-writer"
    }

    /// Drains the server, the service and the journal; returns the
    /// server's final frame counts.
    pub fn stop(self) -> (u64, u64) {
        let report = self.server.shutdown();
        let service = Arc::try_unwrap(self.service).expect("server released the service");
        service.shutdown();
        self.journal.close().expect("journal closes cleanly");
        (report.metrics.frames_in, report.metrics.frames_out)
    }
}

/// Sends the hot set once and checks every verdict.
struct WarmUp<'a> {
    lines: &'a [String],
    expected: &'a [String],
    sent: usize,
    bad: usize,
}

impl LoadSource for WarmUp<'_> {
    fn next(&mut self, _conn: usize) -> Option<LoadRequest> {
        let k = self.sent;
        let line = self.lines.get(k)?;
        self.sent += 1;
        Some(LoadRequest {
            id: k as u64,
            payload: line.as_bytes().to_vec(),
            due_us: 0,
        })
    }

    fn complete(&mut self, _conn: usize, id: u64, status: Status, payload: &[u8], _rtt: Duration) {
        if status != Status::Ok || payload != self.expected[id as usize].as_bytes() {
            self.bad += 1;
        }
    }
}

/// The timed load: picks requests from the seeded stream until the
/// deadline and checks each response as it arrives.
struct Timed<'a> {
    inputs: &'a ServeInputs,
    expected_hot: &'a [String],
    stream: ServeStream,
    start: Instant,
    length: Duration,
    sent: u64,
    failed: u64,
    samples: Vec<u32>,
    rss_mb: Option<f64>,
    /// (novel number, digest of its verdict bytes), checked afterwards.
    novel: Vec<(u32, u64)>,
    spans: Option<&'a mut SpanLog>,
    /// Completions in the untraced and the traced quarters.
    ops_off: u64,
    ops_on: u64,
    tracing: bool,
}

impl LoadSource for Timed<'_> {
    fn next(&mut self, _conn: usize) -> Option<LoadRequest> {
        let elapsed = self.start.elapsed();
        if elapsed >= self.length || self.sent as usize >= MAX_REQUESTS {
            return None;
        }
        if self.spans.is_some() {
            let on = trace::traced_quarter(elapsed, self.length);
            if on != self.tracing {
                self.tracing = on;
                obs::global().set_enabled(on);
            }
        }
        let pick = self.stream.next_pick()?;
        let seq = self.sent << 20;
        self.sent += 1;
        let (id, payload) = match pick {
            Pick::Hot(k) => (
                seq | u64::from(k),
                self.inputs.hot_lines[k as usize].as_bytes().to_vec(),
            ),
            Pick::Novel(j) => (
                seq | NOVEL_BIT | u64::from(j),
                self.inputs.novel_line(j).into_bytes(),
            ),
        };
        Some(LoadRequest {
            id,
            payload,
            due_us: 0,
        })
    }

    fn complete(&mut self, _conn: usize, id: u64, status: Status, payload: &[u8], rtt: Duration) {
        self.samples.push(probe::ns32(rtt));
        if self.samples.len() == RSS_AT_OPS {
            self.rss_mb = Some(probe::peak_rss_mb());
        }
        let pick = (id & PICK_MASK) as u32;
        if status != Status::Ok {
            self.failed += 1;
        } else if id & NOVEL_BIT != 0 {
            self.novel.push((pick, gen::fnv(payload)));
        } else if payload != self.expected_hot[pick as usize].as_bytes() {
            self.failed += 1;
        }
        if self.tracing {
            self.ops_on += 1;
        } else {
            self.ops_off += 1;
        }
        if let Some(spans) = self.spans.as_deref_mut() {
            if self.tracing {
                let now = Instant::now();
                spans.record("serve.request", ROOT, id, now - rtt, now);
            }
        }
    }
}

pub fn run(opts: &Options) -> Run {
    let dir = opts.work.join("journal");
    let inputs = ServeInputs::new(opts.seed);
    let engine = ComplianceEngine::new();
    let expected_hot: Vec<String> = inputs
        .hot_lines
        .iter()
        .map(|l| engine.assess(&parse(l)).verdict_line())
        .collect();
    // The journal an earlier session left behind: the hot set, answered
    // in a seeded order.
    let mut rng = gen::Rng::new(opts.seed, "earlier-session");
    crate::write_journal(
        &dir,
        (0..EARLIER_RECORDS).map(|_| {
            let k = rng.below(HOT_SET as u64) as usize;
            (inputs.hot_lines[k].as_bytes(), expected_hot[k].as_bytes())
        }),
    );
    let mut spans = SpanLog::with_capacity(if opts.trace { 1 << 20 } else { 0 });

    // Set-up, several times; the last stack stays up for the load.
    let mut setups = Setups::default();
    let mut scans = Vec::with_capacity(SETUPS);
    let mut warm_bad = 0;
    let mut stack = None;
    for rep in 0..SETUPS {
        if let Some(previous) = stack.take() {
            Stack::stop(previous);
        }
        let root = spans.begin("setup", ROOT, rep as u64);
        let s = setups.time(|| {
            let s = Stack::start(&dir, &mut spans, root);
            let warm_span = spans.begin("setup.warmup", root, 0);
            let mut warm = WarmUp {
                lines: &inputs.hot_lines,
                expected: &expected_hot,
                sent: 0,
                bad: 0,
            };
            load::drive(s.server.local_addr(), 1, WINDOW, &mut warm).expect("warm-up load");
            spans.end(warm_span);
            warm_bad += warm.bad;
            s
        });
        spans.end(root);
        scans.push(s.recovered as f64 / s.recover_s);
        stack = Some(s);
    }
    let stack = stack.expect("at least one set-up");

    let client_tid = probe::current_tid();
    let mut threads = vec![client_tid];
    threads.extend(&stack.loop_tids);
    threads.extend(&stack.worker_tids);
    threads.extend(&stack.writer_tids);
    let wire_before = stack.server.metrics();
    let cache_before = stack.service.cache().stats();
    let bytes_before = dir_bytes(&dir);

    let sampler = opts.trace.then(RingSampler::start);
    let window = CpuWindow::open(&threads);
    let mut timed = Timed {
        inputs: &inputs,
        expected_hot: &expected_hot,
        stream: ServeStream::new(opts.seed),
        start: Instant::now(),
        length: opts.seconds,
        sent: 0,
        failed: 0,
        samples: Vec::with_capacity(MAX_REQUESTS),
        rss_mb: None,
        novel: Vec::with_capacity(ServeStream::NOVEL_CAPACITY as usize),
        spans: opts.trace.then_some(&mut spans),
        ops_off: 0,
        ops_on: 0,
        tracing: false,
    };
    load::drive(stack.server.local_addr(), 1, WINDOW, &mut timed).expect("timed load");
    let elapsed = timed.start.elapsed();
    let cpu = window.close();
    let peak_rss_mb = timed.rss_mb.unwrap_or_else(probe::peak_rss_mb);
    obs::global().set_enabled(false);
    let ring = sampler.map(RingSampler::finish);

    let ops = timed.samples.len() as u64;
    let per_op = |us: f64| us / ops.max(1) as f64;
    let wire_after = stack.server.metrics();
    let cache_after = stack.service.cache().stats();
    let service_metrics = stack.service.metrics();
    let Timed {
        sent,
        mut failed,
        mut samples,
        novel,
        ops_off,
        ops_on,
        ..
    } = timed;

    let mut run = Run {
        attempted: sent,
        failed: 0,
        checks: Vec::new(),
        e2e: EndToEnd {
            setup_s: setups.median_s(),
            setups: SETUPS,
            phase: Phase::new(ops, elapsed, &mut samples),
            cpu_us_per_op: per_op(cpu.process_us),
            peak_rss_mb,
        },
        layers: Default::default(),
        notes: Default::default(),
    };
    run.check(
        "thread attribution: one loop thread, one worker, one journal-writer",
        stack.attributed(),
    );
    run.check("warm-up verdicts match the engine", warm_bad == 0);
    run.check("every timed request was answered", ops == sent);

    run.set(
        "wire.loop_busy_us_per_op",
        per_op(cpu.thread_us(stack.loop_tids[0])),
    );
    run.set(
        "service.worker_busy_us_per_op",
        per_op(cpu.thread_us(stack.worker_tids[0])),
    );
    run.set(
        "journal.writer_busy_us_per_op",
        per_op(cpu.thread_us(stack.writer_tids[0])),
    );
    run.set(
        "load.client_busy_us_per_op",
        per_op(cpu.thread_us(client_tid)),
    );
    run.set(
        "wire.wakeups_per_op",
        (wire_after.wakeups - wire_before.wakeups) as f64 / ops.max(1) as f64,
    );
    run.set(
        "wire.frames_per_writev",
        (wire_after.frames_out - wire_before.frames_out) as f64
            / (wire_after.writev_batches - wire_before.writev_batches).max(1) as f64,
    );
    run.set(
        "service.queue_wait_p50_us",
        service_metrics.queue_wait.p50_us as f64,
    );
    let hits = cache_after.hits - cache_before.hits;
    let misses = cache_after.misses - cache_before.misses;
    run.set(
        "cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    run.set("cache.misses", misses as f64);
    run.set("cache.entries", cache_after.entries as f64);
    run.set("journal.scan_records_per_s", probe::median(&scans));
    run.set("host.steal_ms", cpu.steal_ms);
    run.set("host.cpu_ref_ms", cpu.cpu_ref_ms);
    run.set_latency();

    // Drain everything, then check the books: frame counts, the journal
    // sequence, and every novel verdict against the engine.
    let recovered = stack.recovered;
    let (frames_in, frames_out) = stack.stop();
    let expected_frames = HOT_SET as u64 + sent;
    run.check(
        format!("server frames in {frames_in} / out {frames_out} = {expected_frames} sent"),
        frames_in == expected_frames && frames_out == expected_frames,
    );
    let mut reader = JournalReader::open(&dir, Mode::Strict).expect("journal reads strictly");
    while reader
        .next_record()
        .expect("journal is clean after close")
        .is_some()
    {}
    let next_seq = reader.next_seq();
    let expected_seq = recovered + HOT_SET as u64 + sent + 1;
    run.check(
        format!("journal next seq {next_seq} = recovered + warm-up + timed + 1 = {expected_seq}"),
        next_seq == expected_seq,
    );
    run.set(
        "journal.bytes_per_record",
        (dir_bytes(&dir) - bytes_before) as f64 / sent.max(1) as f64,
    );
    let wrong_novel = novel
        .iter()
        .filter(|&&(j, digest)| {
            let verdict = engine.assess(&parse(&inputs.novel_line(j))).verdict_line();
            gen::fnv(verdict.as_bytes()) != digest
        })
        .count() as u64;
    failed += wrong_novel;
    run.failed = failed;
    run.check(
        format!("{} novel verdicts match the engine", novel.len()),
        wrong_novel == 0,
    );

    if opts.trace {
        let [queue, engine_span, serialize] = ring.unwrap_or_default();
        run.set("service.queue_span_us_p50", queue.p50_us);
        run.note("service.queue_span_us_p50", queue.note());
        run.set("engine.span_us_p50", engine_span.p50_us);
        run.set("engine.span_ge_1us_share", engine_span.ge_1us_share);
        run.note("engine.span_us_p50", engine_span.note());
        run.set("wire.serialize_span_us_p50", serialize.p50_us);
        run.set("wire.serialize_span_ge_1us_share", serialize.ge_1us_share);
        run.note("wire.serialize_span_us_p50", serialize.note());
        run.set(
            "obs.trace_overhead_pct",
            trace::overhead_pct(ops_off, ops_on),
        );
        trace::ladder(&inputs.hot_lines, &opts.work.join("ladder"), &mut run);
        spans
            .write(&opts.spans_path())
            .expect("span file is writable");
    }
    run
}
