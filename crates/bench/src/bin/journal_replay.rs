//! Bench driver for the durable request journal: measures the three
//! phases of the journal lifecycle end to end and records them into
//! `BENCH_results.json` under `journal_replay`.
//!
//! ```console
//! $ cargo run --release --bin journal_replay -- [OPTIONS]
//!     --records N       records journaled and replayed  (default 100000)
//!     --segment-kb N    segment rotation threshold, KiB (default 4096)
//!     --threads N       replay assessor threads         (default: cores)
//!     --seed S          workload seed                   (default 42)
//! ```
//!
//! Phase 1 (`journal_write`): assess a deterministic JSONL workload
//! through the [`BatchAssessor`], then stream one journal record per
//! request — raw request bytes plus the canonical verdict line — through
//! the group-commit writer, finishing with a durability wait on the last
//! sequence number. Phase 2 (`recovery_scan`): reopen the directory and
//! time the full checksum-validating recovery scan. Phase 3
//! (`replay_diff`): re-assess every recovered request and diff the
//! verdict bytes against the journal — the replay oracle must report
//! zero divergences, which the driver asserts.

use bench::results::{self, Json};
use forensic_law::batch::BatchAssessor;
use forensic_law::spec::parse_jsonl;
use journal::{read_all, Journal, JournalConfig, Mode, RecordData, SyncPolicy};
use obs::TraceId;
use service::cli::Args;
use std::time::Instant;
use trials::derive_seed;

/// The same JSONL pool the wire drivers use.
const LINES: &[&str] = &[
    r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp", "describe": "pen/trap stream"}"#,
    r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "isp", "describe": "live interception"}"#,
    r#"{"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider", "describe": "subscriber records"}"#,
    r#"{"actor": "leo", "data": "records", "when": "stored", "where": "provider", "describe": "transaction records"}"#,
    r#"{"actor": "admin", "data": "headers", "when": "realtime", "where": "own-network", "describe": "ops review"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider", "describe": "stored unopened mail"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored", "where": "device", "flags": ["consent"], "describe": "consented device exam"}"#,
    r#"{"actor": "private", "data": "content", "when": "stored", "where": "device", "describe": "private party search"}"#,
    r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "wireless", "describe": "open wifi capture"}"#,
    r#"{"actor": "employer", "data": "content", "when": "stored", "where": "own-network", "describe": "workplace mail review"}"#,
];

fn main() {
    let args = Args::parse();
    let records = args.u64_flag("records", 100_000);
    let segment_kb = args.u64_flag("segment-kb", 4096).max(1);
    let threads = args.usize_flag(
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let seed = args.u64_flag("seed", 42);

    let dir = std::env::temp_dir().join(format!("lxj-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "journal_replay: {records} records, {segment_kb} KiB segments, {threads} replay threads, seed {seed}"
    );
    bench::rule(76);

    // The workload and its verdicts, computed once up front so phase 1
    // times the journal, not the engine.
    let lines: Vec<&'static str> = (0..records)
        .map(|i| LINES[(derive_seed(seed, i) % LINES.len() as u64) as usize])
        .collect();
    let batch = parse_jsonl(lines.join("\n").as_bytes());
    assert!(batch.is_clean(), "workload pool must parse");
    let actions: Vec<_> = batch.lines.iter().map(|l| l.action.clone()).collect();
    let assessor = BatchAssessor::new().with_threads(threads);
    let verdicts: Vec<Vec<u8>> = assessor
        .assess_all(&actions)
        .iter()
        .map(|a| a.verdict_line().into_bytes())
        .collect();

    // Phase 1: group-commit write path, one append per request, one
    // durability wait at the end.
    let (journal, recovery) = Journal::open(
        &dir,
        JournalConfig {
            segment_bytes: segment_kb * 1024,
            sync: SyncPolicy::GroupCommit,
            ..JournalConfig::default()
        },
    )
    .expect("open fresh journal");
    assert_eq!(recovery.next_seq, 1, "bench directory must start empty");
    let write_start = Instant::now();
    let mut last_seq = 0;
    for (line, verdict) in lines.iter().zip(&verdicts) {
        last_seq = journal
            .append(RecordData {
                trace: TraceId::mint(),
                at_us: journal::now_us(),
                status: 0, // wire Status::Ok
                request: line.as_bytes().to_vec(),
                verdict: verdict.clone(),
            })
            .expect("append");
    }
    journal.wait_durable(last_seq).expect("group commit lands");
    let write_wall = write_start.elapsed();
    journal.close().expect("clean close");
    let bytes: u64 = std::fs::read_dir(&dir)
        .expect("journal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum();
    let segments = std::fs::read_dir(&dir).expect("journal dir").count() as u64;
    let write_rps = records as f64 / write_wall.as_secs_f64();
    println!(
        "journal_write   {write_wall:>9.1?}  {write_rps:>9.0} rec/s  {bytes} bytes in {segments} segment(s)"
    );

    // Phase 2: full recovery scan — every CRC re-verified.
    let scan_start = Instant::now();
    let (recovered, truncation) = read_all(&dir, Mode::Recover).expect("recovery scan");
    let scan_wall = scan_start.elapsed();
    assert!(truncation.is_none(), "clean close must leave no torn tail");
    assert_eq!(recovered.len() as u64, records, "recovery lost records");
    let scan_rps = records as f64 / scan_wall.as_secs_f64();
    println!("recovery_scan   {scan_wall:>9.1?}  {scan_rps:>9.0} rec/s");

    // Phase 3: the replay oracle — re-assess every recovered request and
    // diff against the journaled verdict bytes.
    let replay_start = Instant::now();
    let replay_batch = parse_jsonl(
        recovered
            .iter()
            .flat_map(|r| r.request.iter().copied().chain([b'\n']))
            .collect::<Vec<u8>>()
            .as_slice(),
    );
    assert!(replay_batch.is_clean(), "journaled requests must re-parse");
    let replay_actions: Vec<_> = replay_batch
        .lines
        .iter()
        .map(|l| l.action.clone())
        .collect();
    let replayed = BatchAssessor::new()
        .with_threads(threads)
        .assess_all(&replay_actions);
    let divergences = recovered
        .iter()
        .zip(&replayed)
        .filter(|(record, assessment)| assessment.verdict_line().as_bytes() != record.verdict)
        .count();
    let replay_wall = replay_start.elapsed();
    assert_eq!(divergences, 0, "replay oracle found verdict divergences");
    let replay_rps = records as f64 / replay_wall.as_secs_f64();
    println!("replay_diff     {replay_wall:>9.1?}  {replay_rps:>9.0} rec/s  0 divergences");

    std::fs::remove_dir_all(&dir).expect("cleanup");
    bench::rule(76);

    let section = Json::obj()
        .set("name", "journal_replay")
        .set(
            "config",
            Json::obj()
                .set("records", records)
                .set("segment_kb", segment_kb)
                .set("threads", threads)
                .set("seed", seed),
        )
        .set(
            "journal_write",
            Json::obj()
                .set("wall_ms", write_wall.as_secs_f64() * 1e3)
                .set("records_per_s", write_rps)
                .set("bytes", bytes)
                .set("segments", segments),
        )
        .set(
            "recovery_scan",
            Json::obj()
                .set("wall_ms", scan_wall.as_secs_f64() * 1e3)
                .set("records_per_s", scan_rps),
        )
        .set(
            "replay_diff",
            Json::obj()
                .set("wall_ms", replay_wall.as_secs_f64() * 1e3)
                .set("records_per_s", replay_rps)
                .set("divergences", divergences),
        );
    results::record("journal_replay", section).expect("write BENCH_results.json");
    println!("wrote {}", results::RESULTS_FILE);
    println!("replay of {records} journaled records diffed byte-identical");
}
