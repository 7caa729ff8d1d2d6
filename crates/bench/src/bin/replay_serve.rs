//! Bench driver for the journal replay load engine and segment
//! compaction, end to end: journal a large superseding session, refire
//! it against a live in-process wire server through the shared
//! [`wire::load`] core at max pacing, compact the journal down to its
//! latest-wins survivors, and refire the compacted session — asserting
//! zero divergences both times and a real compaction ratio.
//!
//! ```console
//! $ cargo run --release --bin replay_serve -- [OPTIONS]
//!     --records N       records journaled and refired   (default 100000)
//!     --conns N         replay client connections       (default 64)
//!     --pipeline N      in-flight window per connection (default 32)
//!     --segment-kb N    segment rotation threshold, KiB (default 1024)
//!     --workers N       service worker threads          (default: cores, min 4)
//!     --threads N       assessor threads for the write  (default: cores)
//!     --seed S          workload seed                   (default 42)
//! ```
//!
//! The workload is *superseding by construction*: every request body is
//! distinct (the free-text `describe` field carries the record index)
//! but the engine-visible facts cycle through a small pool, so
//! compaction by fact-key collapses ~100k records to about a dozen —
//! the long-running-server disk-bound case the compactor exists for. A
//! sprinkle of repeated malformed lines rides along to exercise the
//! bad-request dedupe path over the wire.

use forensic_law::batch::BatchAssessor;
use forensic_law::spec::parse_jsonl;
use journal::compact::compact;
use journal::{read_all, Journal, JournalConfig, Mode, Record, RecordData, SyncPolicy};
use obs::TraceId;
use service::cli::Args;
use service::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trials::derive_seed;
use wire::load::{self, LoadRequest, LoadSource};
use wire::prelude::*;

/// Engine-visible fact templates; `<D>` is the free-text slot that
/// makes every journaled request byte-distinct without changing its
/// fact-key.
const TEMPLATES: &[&str] = &[
    r#"{"actor": "leo", "data": "headers", "when": "realtime", "where": "isp", "describe": "<D>"}"#,
    r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "isp", "describe": "<D>"}"#,
    r#"{"actor": "leo", "data": "subscriber", "when": "stored", "where": "provider", "describe": "<D>"}"#,
    r#"{"actor": "leo", "data": "records", "when": "stored", "where": "provider", "describe": "<D>"}"#,
    r#"{"actor": "admin", "data": "headers", "when": "realtime", "where": "own-network", "describe": "<D>"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored-unopened", "where": "provider", "describe": "<D>"}"#,
    r#"{"actor": "leo", "data": "content", "when": "stored", "where": "device", "flags": ["consent"], "describe": "<D>"}"#,
    r#"{"actor": "private", "data": "content", "when": "stored", "where": "device", "describe": "<D>"}"#,
    r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "wireless", "describe": "<D>"}"#,
    r#"{"actor": "employer", "data": "content", "when": "stored", "where": "own-network", "describe": "<D>"}"#,
];

/// Repeated malformed lines: identical bytes supersede each other, so
/// all of them compact down to `MALFORMED.len()` records.
const MALFORMED: &[&str] = &[
    "this is not a scenario",
    r#"{"actor": 42}"#,
    r#"{"data": "content", "when": "never"}"#,
];

/// Request `i` of the workload: mostly distinct-text verdict lines,
/// every 97th a malformed line.
fn line_for(seed: u64, i: u64) -> String {
    if i % 97 == 13 {
        MALFORMED[(i / 97 % MALFORMED.len() as u64) as usize].to_string()
    } else {
        let template = TEMPLATES[(derive_seed(seed, i) % TEMPLATES.len() as u64) as usize];
        template.replace("<D>", &format!("occurrence {i}"))
    }
}

/// Refires journaled records against the live server at max pacing and
/// counts divergences from the journaled dispositions.
struct ReplaySource {
    shards: Vec<VecDeque<(u64, Vec<u8>)>>,
    /// seq → (journaled status byte, journaled verdict bytes).
    expected: HashMap<u64, (u8, Vec<u8>)>,
    divergences: u64,
    done: u64,
}

impl LoadSource for ReplaySource {
    fn next(&mut self, conn: usize) -> Option<LoadRequest> {
        self.shards[conn]
            .pop_front()
            .map(|(seq, payload)| LoadRequest {
                id: seq,
                payload,
                due_us: 0,
            })
    }

    fn complete(&mut self, _conn: usize, id: u64, status: Status, payload: &[u8], _rtt: Duration) {
        self.done += 1;
        let (journaled_status, journaled_verdict) = self
            .expected
            .remove(&id)
            .expect("response for a record never refired");
        let diverged = match Status::from_byte(journaled_status) {
            Some(Status::Ok) => status != Status::Ok || payload != journaled_verdict.as_slice(),
            Some(Status::BadRequest) => status != Status::BadRequest,
            _ => unreachable!("only deterministic records are refired"),
        };
        if diverged {
            self.divergences += 1;
        }
    }
}

/// One full refire of `records` against `addr`. Returns (wall,
/// refired, divergences).
fn refire(
    addr: std::net::SocketAddr,
    connections: usize,
    pipeline: usize,
    records: &[Record],
) -> (Duration, u64, u64) {
    let deterministic: Vec<&Record> = records
        .iter()
        .filter(|r| {
            matches!(
                Status::from_byte(r.status),
                Some(Status::Ok) | Some(Status::BadRequest)
            )
        })
        .collect();
    let connections = connections.max(1).min(deterministic.len().max(1));
    let mut shards: Vec<VecDeque<(u64, Vec<u8>)>> =
        (0..connections).map(|_| VecDeque::new()).collect();
    let mut expected = HashMap::with_capacity(deterministic.len());
    for (i, record) in deterministic.iter().enumerate() {
        shards[i % connections].push_back((record.seq, record.request.clone()));
        expected.insert(record.seq, (record.status, record.verdict.clone()));
    }
    let total = deterministic.len() as u64;
    let mut source = ReplaySource {
        shards,
        expected,
        divergences: 0,
        done: 0,
    };
    let wall = load::drive(addr, connections, pipeline, &mut source).expect("replay drive");
    assert_eq!(source.done, total, "driver returned with responses missing");
    (wall, total, source.divergences)
}

fn main() {
    let args = Args::parse(&[
        "records",
        "conns",
        "pipeline",
        "workers",
        "threads",
        "segment-kb",
        "seed",
    ]);
    let records = args.u64_flag("records", 100_000);
    let connections = args.usize_flag("conns", 64).max(1);
    let pipeline = args.usize_flag("pipeline", 32).max(1);
    let segment_kb = args.u64_flag("segment-kb", 1024).max(1);
    let workers = args.usize_flag(
        "workers",
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .max(4),
    );
    let threads = args.usize_flag(
        "threads",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let seed = args.u64_flag("seed", 42);

    let dir = std::env::temp_dir().join(format!("lxj-replay-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "replay_serve: {records} records, {connections} conns x {pipeline} pipeline, \
         {segment_kb} KiB segments, seed {seed}"
    );
    bench::rule(76);

    // Phase 1: journal the superseding session. Verdicts are computed
    // through the batch assessor (the write path the CLI `journal`
    // command takes); malformed lines journal their diagnostic as
    // bad-request records, exactly as the wire server would.
    let lines: Vec<String> = (0..records).map(|i| line_for(seed, i)).collect();
    let joined = lines.join("\n");
    let batch = parse_jsonl(joined.as_bytes());
    let actions: Vec<_> = batch.lines.iter().map(|l| l.action.clone()).collect();
    let assessor = BatchAssessor::new().with_threads(threads);
    let assessments = assessor.assess_all(&actions);
    let mut verdict_by_line: HashMap<usize, Vec<u8>> = batch
        .lines
        .iter()
        .zip(&assessments)
        .map(|(l, a)| (l.line, a.verdict_line().into_bytes()))
        .collect();
    let mut diagnostic_by_line: HashMap<usize, Vec<u8>> = batch
        .errors
        .iter()
        .map(|e| (e.line, e.error.to_string().into_bytes()))
        .collect();

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
    let mut journaled_ok = 0u64;
    let mut journaled_bad = 0u64;
    for (i, line) in lines.iter().enumerate() {
        let (status, verdict) = if let Some(verdict) = verdict_by_line.remove(&(i + 1)) {
            journaled_ok += 1;
            (Status::Ok, verdict)
        } else {
            journaled_bad += 1;
            (
                Status::BadRequest,
                diagnostic_by_line
                    .remove(&(i + 1))
                    .expect("every line is a verdict or an error"),
            )
        };
        last_seq = journal
            .append(RecordData {
                trace: TraceId::mint(),
                at_us: journal::now_us(),
                status: status.as_byte(),
                request: line.as_bytes().to_vec(),
                verdict,
            })
            .expect("append");
    }
    journal.wait_durable(last_seq).expect("group commit lands");
    let write_wall = write_start.elapsed();
    journal.close().expect("clean close");
    let bytes_journaled: u64 = std::fs::read_dir(&dir)
        .expect("journal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum();
    println!(
        "journal_write    {write_wall:>9.1?}  {:>9.0} rec/s  {journaled_ok} ok + {journaled_bad} bad, {bytes_journaled} bytes",
        records as f64 / write_wall.as_secs_f64()
    );

    // Phase 2: refire the recorded session against a live server.
    let (recovered, truncation) = read_all(&dir, Mode::Strict).expect("strict scan");
    assert!(truncation.is_none(), "clean close must leave no torn tail");
    assert_eq!(recovered.len() as u64, records, "scan lost records");
    let service = Arc::new(ComplianceService::start(ServiceConfig {
        workers,
        capacity: 1024,
        policy: AdmissionPolicy::Block,
        default_deadline: None,
        engine_floor: Duration::ZERO,
    }));
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    let (replay_wall, refired, divergences) = refire(addr, connections, pipeline, &recovered);
    let replay_rps = refired as f64 / replay_wall.as_secs_f64();
    println!(
        "replay_live      {replay_wall:>9.1?}  {replay_rps:>9.0} rec/s  {divergences} divergences"
    );
    assert_eq!(divergences, 0, "live replay diverged from the journal");

    // Phase 3: compact — the superseding workload must collapse.
    let compact_start = Instant::now();
    let report =
        compact(&dir, JournalConfig::default(), wire::compaction_retention).expect("compact");
    let compact_wall = compact_start.elapsed();
    let ratio = report.ratio();
    println!(
        "compact          {compact_wall:>9.1?}  {} -> {} records, {} -> {} bytes ({ratio:.1}x)",
        report.input_records, report.surviving_records, report.bytes_before, report.bytes_after
    );
    assert!(
        ratio >= 2.0,
        "superseding workload must compact at least 2x, got {ratio:.2}x"
    );

    // Phase 4: the compacted journal must refire just as clean.
    let (compacted, truncation) = read_all(&dir, Mode::Strict).expect("strict scan after compact");
    assert!(truncation.is_none(), "compaction must write clean segments");
    assert_eq!(compacted.len() as u64, report.surviving_records);
    let (cwall, crefired, cdivergences) = refire(addr, connections, pipeline, &compacted);
    println!(
        "replay_compacted {cwall:>9.1?}  {:>9.0} rec/s  {cdivergences} divergences",
        crefired as f64 / cwall.as_secs_f64()
    );
    assert_eq!(
        cdivergences, 0,
        "compacted replay diverged from the journal"
    );

    server.shutdown();
    if let Ok(service) = Arc::try_unwrap(service) {
        service.shutdown();
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
    bench::rule(76);

    println!(
        "replayed {records} journaled records live with zero divergences; \
         compacted {:.1}x and replayed clean again",
        ratio
    );
}
