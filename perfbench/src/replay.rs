//! `replay`: the regression oracle every doctrine change must pass
//! (`replay DIR`).
//!
//! The timed phase makes pass after pass, each one `replay` invocation:
//! set-up reads a journal of distinct fact patterns, each stored with
//! its engine verdict; then the records are re-assessed in fixed-size
//! chunks through a fresh two-thread `BatchAssessor` whose cache starts
//! cold — parse, assess, render, byte-compare. Repeating the set-up
//! once a pass gives `setup_s` a median over the whole run; its time is
//! left out of the phase.

use crate::gen;
use crate::probe::{self, CpuWindow, Phase, Setups};
use crate::report::{EndToEnd, Run};
use crate::trace::{self, SpanLog, ROOT};
use crate::{parse_line, Options};
use forensic_law::batch::BatchAssessor;
use forensic_law::engine::ComplianceEngine;
use journal::{read_all, Mode};
use std::time::Instant;

/// Records per assessor call (some 15 ms a chunk).
const CHUNK: usize = 1024;

/// Records in the journal: a whole number of chunks, well inside the
/// vocabulary so every record is a distinct pattern. A pass (records,
/// lines and a full cache, some 40 MB) stays small next to the shared
/// last-level cache: a journal many times larger made every figure
/// swing with the memory traffic of other tenants on the host.
const RECORDS: usize = 16 * CHUNK;

const THREADS: usize = 2;

pub fn run(opts: &Options) -> Run {
    let dir = opts.work.join("journal");
    let lines = gen::replay_lines(opts.seed, RECORDS);
    // The journaled verdicts come straight from the engine, so a replay
    // through the batch assessor and its cache is checked against it.
    let engine = ComplianceEngine::new();
    let verdicts: Vec<String> = lines
        .iter()
        .map(|l| {
            let action = parse_line(l.as_bytes()).expect("generated lines are valid specs");
            engine.assess(&action).verdict_line()
        })
        .collect();
    crate::write_journal(
        &dir,
        lines
            .iter()
            .zip(&verdicts)
            .map(|(l, v)| (l.as_bytes(), v.as_bytes())),
    );
    drop(verdicts);
    let mut spans = SpanLog::with_capacity(if opts.trace { 1 << 20 } else { 0 });

    let main_tid = probe::current_tid();
    let window = CpuWindow::open(&[main_tid]);
    let start = Instant::now();
    let mut setups = Setups::default();
    let mut clean = true;
    let mut samples = Vec::with_capacity(1 << 16);
    let (mut hits, mut misses, mut entries) = (0u64, 0u64, 0u64);
    let (mut replayed, mut failed) = (0u64, 0u64);
    let mut misses_match = true;
    let (mut ops_off, mut ops_on) = (0u64, 0u64);
    let mut pass = 0u64;
    while start.elapsed() - setups.wall < opts.seconds {
        let span = spans.begin("setup.read_journal", ROOT, pass);
        let (records, truncation) =
            setups.time(|| read_all(&dir, Mode::Strict).expect("journal reads strictly"));
        spans.end(span);
        clean &= truncation.is_none() && records.len() == RECORDS;
        let assessor = BatchAssessor::new().with_threads(THREADS);
        let mut pass_replayed = 0u64;
        for (c, chunk) in records.chunks(CHUNK).enumerate() {
            let elapsed = start.elapsed() - setups.wall;
            if elapsed >= opts.seconds {
                break;
            }
            let traced = opts.trace && trace::traced_quarter(elapsed, opts.seconds);
            let t = Instant::now();
            // A record that no longer parses is a divergence: it is
            // left out of the call and never counts as matched.
            let (parsed, actions): (Vec<_>, Vec<_>) = chunk
                .iter()
                .filter_map(|r| Some((r, parse_line(&r.request)?)))
                .unzip();
            let t_parsed = Instant::now();
            let (assessments, _) = assessor.assess_all_with_report(&actions);
            let t_assessed = Instant::now();
            let matched = parsed
                .iter()
                .zip(&assessments)
                .filter(|(record, a)| a.verdict_line().as_bytes() == record.verdict.as_slice())
                .count();
            let t_done = Instant::now();
            samples.push(probe::ns32(t_done - t));
            failed += (chunk.len() - matched) as u64;
            replayed += chunk.len() as u64;
            pass_replayed += chunk.len() as u64;
            if traced {
                ops_on += chunk.len() as u64;
                let id = spans.record("replay.chunk", ROOT, c as u64, t, t_done);
                spans.record("replay.parse", id, c as u64, t, t_parsed);
                spans.record("replay.assess", id, c as u64, t_parsed, t_assessed);
                spans.record("replay.compare", id, c as u64, t_assessed, t_done);
            } else {
                ops_off += chunk.len() as u64;
            }
        }
        // The pass ends on a full journal or the deadline; its cold
        // cache must then hold one miss per record it replayed.
        let stats = assessor.cache().stats();
        hits += stats.hits;
        misses += stats.misses;
        entries = entries.max(stats.entries);
        misses_match &= stats.misses == pass_replayed;
        pass += 1;
    }
    let elapsed = start.elapsed() - setups.wall;
    let cpu = window.close();
    let peak_rss_mb = probe::peak_rss_mb();

    let per_op = |us: f64| us / replayed.max(1) as f64;
    let mut run = Run {
        attempted: replayed,
        failed,
        checks: Vec::new(),
        e2e: EndToEnd {
            setup_s: setups.median_s(),
            setups: setups.times_s.len(),
            phase: Phase::new(replayed, elapsed, &mut samples),
            cpu_us_per_op: per_op(cpu.process_us - setups.cpu_us),
            peak_rss_mb,
        },
        layers: Default::default(),
        notes: Default::default(),
    };
    run.check(
        format!("journal reads strictly with all {RECORDS} records"),
        clean,
    );
    run.check("zero divergences", failed == 0);
    run.check(
        format!("cache misses {misses} = records replayed {replayed}"),
        misses_match && misses == replayed,
    );

    run.set(
        "batch.worker_busy_us_per_op",
        per_op(cpu.process_us - cpu.thread_us(main_tid)),
    );
    run.set(
        "cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    run.set("cache.misses", misses as f64);
    run.set("cache.entries", entries as f64);
    run.set(
        "journal.scan_records_per_s",
        RECORDS as f64 / setups.median_s(),
    );
    run.set("host.steal_ms", cpu.steal_ms);
    run.set("host.cpu_ref_ms", cpu.cpu_ref_ms);
    run.set_latency();

    if opts.trace {
        let chunk_ns = spans.total_ns("replay.chunk").max(1) as f64;
        run.set(
            "replay.parse_share",
            spans.self_ns("replay.parse") as f64 / chunk_ns,
        );
        run.set(
            "replay.assess_share",
            spans.self_ns("replay.assess") as f64 / chunk_ns,
        );
        run.set(
            "replay.compare_share",
            spans.self_ns("replay.compare") as f64 / chunk_ns,
        );
        run.set(
            "obs.trace_overhead_pct",
            trace::overhead_pct(ops_off, ops_on),
        );
        trace::ladder(&lines[..CHUNK], &opts.work.join("ladder"), &mut run);
        spans
            .write(&opts.spans_path())
            .expect("span file is writable");
    }
    run
}
