//! A seeded, single-process benchmark of the three ways this repository
//! serves its legal decision procedure: the journaled TCP service
//! (`serve`), the byte-exact replay oracle (`replay`) and the
//! lawful-process planner (`plan`).
//!
//! Each workload drives the library crates only through their public
//! functions, measures for a fixed time, checks every output, and
//! reports end-to-end metrics (untraced run) or per-layer metrics
//! (traced run). Layers are measured from outside the program: thread
//! CPU from `/proc`, the program's own counters, and spans the harness
//! records around its calls.

pub mod gen;
pub mod plan;
pub mod probe;
pub mod replay;
pub mod report;
pub mod serve;
pub mod trace;

use forensic_law::action::InvestigativeAction;
use forensic_law::spec::ActionSpec;
use journal::{Journal, JournalConfig, RecordData, SyncPolicy};
use obs::TraceId;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory for this run's journals; removed afterwards.
    pub work: PathBuf,
}

impl Options {
    /// Where the traced run writes its spans.
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(".bench_work").join(format!("spans-{}-seed{}.tsv", self.workload, self.seed))
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["serve", "replay", "plan"];

/// Runs one workload.
pub fn run(opts: &Options) -> report::Run {
    match opts.workload.as_str() {
        "serve" => serve::run(opts),
        "replay" => replay::run(opts),
        "plan" => plan::run(opts),
        other => panic!("unknown workload {other}"),
    }
}

/// Parses one JSONL request line the way the server and `replay` do.
pub fn parse_line(line: &[u8]) -> Option<InvestigativeAction> {
    let line = std::str::from_utf8(line).ok()?;
    ActionSpec::from_json_line(line)
        .and_then(|s| s.to_action())
        .ok()
}

/// Writes `(request, verdict)` pairs as answered records of a fresh
/// journal at `dir` — input generation, so it skips the per-batch sync.
pub fn write_journal<'a>(dir: &Path, records: impl Iterator<Item = (&'a [u8], &'a [u8])>) {
    let config = JournalConfig {
        sync: SyncPolicy::Never,
        ..JournalConfig::default()
    };
    let (journal, _) = Journal::open(dir, config).expect("journal directory opens");
    for (i, (request, verdict)) in records.enumerate() {
        journal
            .append(RecordData {
                trace: TraceId::from_u64(i as u64 + 1),
                at_us: 1_700_000_000_000_000 + i as u64 * 1_000,
                status: wire::Status::Ok.as_byte(),
                request: request.to_vec(),
                verdict: verdict.to_vec(),
            })
            .expect("journal append");
    }
    journal.close().expect("journal closes");
}
