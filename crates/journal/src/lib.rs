//! lexforensica-journal: a durable, replayable record of every request
//! the engine answered.
//!
//! The paper's auditability argument — a forensic verdict is only
//! defensible if the exact request and its disposition can be
//! reproduced later — needs more than logs. This crate provides the
//! substrate: an **append-only, CRC-checksummed, segment-rotated binary
//! journal** of requests, verdicts, wire status bytes, and trace ids,
//! written through a **group-commit** writer thread so the serving hot
//! path pays one bounded-channel send per request while fsync cost is
//! amortized across batches.
//!
//! Three pieces, layered:
//!
//! * [`segment`] — the on-disk format: 16-byte header, length- and
//!   CRC-framed records, canonical `seg-<base>.lxj` names.
//! * [`JournalReader`] / [`read_all`] — journal-wide scanning with
//!   cross-segment sequence contiguity; [`Mode::Strict`] for
//!   verification (every defect is an error with offset + reason),
//!   [`Mode::Recover`] for the crash model (a defective tail in the
//!   last segment becomes a [`Truncation`], everything else stays an
//!   error).
//! * [`Journal`] — the group-commit writer: recovery on open (truncate
//!   the torn tail, resume at the next sequence number), bounded
//!   producer queue, a durable clock for acknowledge-after-fsync
//!   callers, and a drain-everything graceful [`Journal::close`].
//! * [`compact`] — offline segment compaction: a caller-supplied
//!   [`compact::Retention`] policy decides which records survive
//!   (latest-wins per key), survivors are rewritten through the same
//!   group-commit writer into a fresh generation, and a CRC-protected
//!   manifest makes the generation swap atomic — a crash at any byte
//!   recovers to the old generation or the new one, never a splice.
//!
//! The journal is deliberately dumb about payloads: a record stores the
//! raw request line and the raw verdict bytes. Replaying means parsing
//! the stored request exactly as the live path would and diffing the
//! newly computed verdict byte-for-byte against the stored one — the
//! regression oracle the `replay` CLI subcommand builds on this crate.
//!
//! ```
//! use journal::{Journal, JournalConfig, Mode, RecordData, read_all};
//! use obs::TraceId;
//!
//! let dir = std::env::temp_dir().join(format!("lxj-doc-{}", std::process::id()));
//! let (journal, recovery) = Journal::open(&dir, JournalConfig::default()).unwrap();
//! assert_eq!(recovery.next_seq, 1);
//! let seq = journal.append_durable(RecordData {
//!     trace: TraceId::from_u64(7),
//!     at_us: journal::now_us(),
//!     status: 0,
//!     request: br#"{"actor":"le","category":"device_forensics"}"#.to_vec(),
//!     verdict: b"conditional [medium]".to_vec(),
//! }).unwrap();
//! assert_eq!(seq, 1);
//! journal.close().unwrap();
//!
//! let (records, truncation) = read_all(&dir, Mode::Strict).unwrap();
//! assert!(truncation.is_none());
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].verdict, b"conditional [medium]");
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod crc;
pub mod reader;
pub mod segment;
pub mod writer;

pub use compact::{CompactionReport, Retention, SwapRecovery};
pub use crc::crc32;
pub use reader::{read_all, JournalError, JournalReader, Mode, Truncation};
pub use segment::{Record, RecordData};
pub use writer::{Journal, JournalConfig, Recovery, SyncPolicy, TryAppendError};

/// The capture clock: microseconds since the UNIX epoch, right now.
///
/// This is what recorders stamp into [`RecordData::at_us`]. It is a
/// wall clock — subject to steps and slews — because replay pacing
/// wants human time-of-day gaps, not monotonic perfection; `seq` alone
/// orders the journal.
pub fn now_us() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}
