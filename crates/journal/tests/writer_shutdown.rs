//! Shutdown races for the group-commit writer, in the style of the
//! service crate's `shutdown_stress`: many short runs, each a fresh
//! journal, racing producers, and a `close()` fired at a phase that
//! varies per run — rather than one long run that always closes at the
//! same place.
//!
//! The invariant under test is the journal's half of "no
//! acknowledged-but-unjournaled verdicts": **every append that returned
//! `Ok` before a graceful close is on disk afterwards** — exactly those
//! records, contiguous, byte-identical — and every append that lost the
//! race to `close()` fails cleanly with `WriterClosed`, never hangs,
//! never half-writes.

use journal::{
    read_all, Journal, JournalConfig, JournalError, Mode, RecordData, SyncPolicy, TryAppendError,
};
use obs::TraceId;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

const RUNS: usize = 60;
const PRODUCERS: usize = 3;
const PER_PRODUCER: usize = 200;

fn request_for(producer: usize, i: usize) -> Vec<u8> {
    format!("{{\"producer\":{producer},\"i\":{i}}}").into_bytes()
}

/// How a producer appends: [`Journal::append`], or the non-blocking
/// [`Journal::try_append`] retried until it takes the record.
type Append = fn(&Journal, RecordData) -> Result<u64, JournalError>;

fn blocking_append(journal: &Journal, data: RecordData) -> Result<u64, JournalError> {
    journal.append(data)
}

fn retried_try_append(journal: &Journal, mut data: RecordData) -> Result<u64, JournalError> {
    loop {
        match journal.try_append(data) {
            Ok(seq) => return Ok(seq),
            Err(TryAppendError::Full(back)) => {
                data = back;
                std::thread::yield_now();
            }
            Err(TryAppendError::Refused(e)) => return Err(e),
        }
    }
}

/// One racy run: producers append while the main thread closes at a
/// phase that varies with `run`. Returns (accepted map seq → request,
/// rejected count).
fn racy_run(run: usize, name: &str, append: Append) -> (HashMap<u64, Vec<u8>>, usize) {
    let dir = std::env::temp_dir().join(format!("lxj-{name}-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (journal, recovery) = Journal::open(
        &dir,
        JournalConfig {
            // Tiny segments on odd runs so the close races rotation too.
            segment_bytes: if run % 2 == 1 { 512 } else { 64 << 20 },
            queue_depth: 8,
            sync: if run.is_multiple_of(3) {
                SyncPolicy::GroupCommit
            } else {
                SyncPolicy::OnRotate
            },
        },
    )
    .expect("open");
    assert_eq!(recovery.next_seq, 1);

    let accepted: Mutex<HashMap<u64, Vec<u8>>> = Mutex::new(HashMap::new());
    let rejected = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for producer in 0..PRODUCERS {
            let journal = &journal;
            let accepted = &accepted;
            let rejected = &rejected;
            scope.spawn(move || {
                for i in 0..PER_PRODUCER {
                    let request = request_for(producer, i);
                    let data = RecordData {
                        trace: TraceId::from_u64((producer * PER_PRODUCER + i + 1) as u64),
                        at_us: (producer * PER_PRODUCER + i + 1) as u64,
                        status: 0,
                        request: request.clone(),
                        verdict: format!("v-{producer}-{i}").into_bytes(),
                    };
                    match append(journal, data) {
                        Ok(seq) => {
                            let prior = accepted.lock().expect("map").insert(seq, request);
                            assert!(prior.is_none(), "writer assigned seq {seq} twice");
                        }
                        Err(JournalError::WriterClosed) => {
                            rejected.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            // Once closed, closed forever: the next try
                            // must fail the same way.
                            assert!(matches!(
                                append(
                                    journal,
                                    RecordData {
                                        trace: TraceId::UNTRACED,
                                        at_us: 0,
                                        status: 0,
                                        request: Vec::new(),
                                        verdict: Vec::new(),
                                    }
                                ),
                                Err(JournalError::WriterClosed)
                            ));
                            return;
                        }
                        Err(other) => panic!("append failed oddly: {other}"),
                    }
                }
            });
        }

        // Close lands at a different phase every run: sometimes before
        // the producers get going, sometimes mid-stream, sometimes after
        // they are done. Two racing closers on every third run — close
        // must be idempotent and both must return only once the writer
        // has fully stopped.
        let journal = &journal;
        std::thread::sleep(Duration::from_micros((run as u64 * 37) % 2500));
        if run.is_multiple_of(3) {
            std::thread::scope(|inner| {
                inner.spawn(|| journal.close().expect("racing close a"));
                inner.spawn(|| journal.close().expect("racing close b"));
            });
        } else {
            journal.close().expect("close");
        }
    });

    let accepted = accepted.into_inner().expect("map");
    let rejected = rejected.load(std::sync::atomic::Ordering::Relaxed);

    // The books: exactly the accepted records are on disk — contiguous,
    // and each one's request bytes are the producer's own.
    let (records, truncation) = read_all(&dir, Mode::Strict).expect("post-close strict scan");
    assert!(truncation.is_none());
    assert_eq!(
        records.len(),
        accepted.len(),
        "run {run}: acknowledged-but-unjournaled (or phantom) records"
    );
    for (i, record) in records.iter().enumerate() {
        let seq = i as u64 + 1;
        assert_eq!(
            record.seq, seq,
            "run {run}: recovered journal not contiguous"
        );
        let want = accepted
            .get(&seq)
            .unwrap_or_else(|| panic!("run {run}: journal holds unacknowledged seq {seq}"));
        assert_eq!(
            &record.request, want,
            "run {run}: request bytes for seq {seq}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    (accepted, rejected)
}

#[test]
fn graceful_close_journals_every_acknowledged_append() {
    close_race_sweep("shutdown", blocking_append);
}

/// The same sweep through `try_append`, which takes the enqueue lock
/// with `try_lock` and sends with `try_send`: every `Ok(seq)` it
/// returned before the close is on disk afterwards, and a record it
/// handed back was never journaled.
#[test]
fn graceful_close_journals_every_acknowledged_try_append() {
    close_race_sweep("try-shutdown", retried_try_append);
}

fn close_race_sweep(name: &str, append: Append) {
    let mut total_accepted = 0usize;
    let mut total_rejected = 0usize;
    let mut full_runs = 0usize;
    for run in 0..RUNS {
        let (accepted, rejected) = racy_run(run, name, append);
        if accepted.len() == PRODUCERS * PER_PRODUCER {
            full_runs += 1;
        }
        total_accepted += accepted.len();
        total_rejected += rejected;
    }
    // Coverage sanity: the close must land mid-stream often enough that
    // both rejection and full completion actually occur across the
    // sweep (otherwise the race isn't being exercised).
    assert!(total_accepted > 0, "no append ever succeeded");
    assert!(
        total_rejected > 0 || full_runs < RUNS,
        "close never landed mid-stream across {RUNS} runs"
    );
}

/// After a graceful close, reopening resumes at the next sequence
/// number and appends land — close is an orderly handoff, not an end
/// state for the directory.
#[test]
fn closed_journal_reopens_and_resumes() {
    let dir = std::env::temp_dir().join(format!("lxj-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sample = |seq: u64| RecordData {
        trace: TraceId::from_u64(seq),
        at_us: seq * 17,
        status: 0,
        request: format!("req-{seq}").into_bytes(),
        verdict: format!("v-{seq}").into_bytes(),
    };

    let (journal, _) = Journal::open(&dir, JournalConfig::default()).expect("first open");
    for seq in 1..=10u64 {
        assert_eq!(journal.append(sample(seq)).expect("append"), seq);
    }
    journal.close().expect("first close");
    assert!(matches!(
        journal.append(sample(11)),
        Err(JournalError::WriterClosed)
    ));

    let (journal, recovery) = Journal::open(&dir, JournalConfig::default()).expect("reopen");
    assert_eq!(recovery.next_seq, 11);
    assert_eq!(recovery.records, 10);
    assert!(
        recovery.truncation.is_none(),
        "graceful close leaves no tear"
    );
    assert_eq!(journal.append_durable(sample(11)).expect("resume"), 11);
    journal.close().expect("second close");

    let (records, _) = read_all(&dir, Mode::Strict).expect("scan");
    assert_eq!(records.len(), 11);
    let _ = std::fs::remove_dir_all(&dir);
}
