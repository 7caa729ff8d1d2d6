//! The group-commit journal writer.
//!
//! [`Journal::open`] recovers the directory (scanning segments,
//! truncating a torn tail, computing the next sequence number) and
//! spawns a single writer thread. Producers pay one bounded-channel
//! send per record ([`Journal::try_append`] for one that must never
//! wait); the writer drains whatever has accumulated, writes it, and
//! issues **one** `fdatasync` for the whole batch — the classic
//! group-commit trade: per-record latency bounded by one batch, per-
//! record fsync cost amortized across the batch.
//!
//! # Ordering and durability
//!
//! Sequence numbers are assigned under the enqueue lock *before* the
//! channel send, and the channel is FIFO, so sequence order, channel
//! order, and file order are the same order by construction. The
//! durable clock advances to a record's sequence number only after the
//! bytes and the sync covering them have succeeded; [`Journal::wait_durable`]
//! and [`Journal::append_durable`] block on that clock. With
//! [`SyncPolicy::GroupCommit`] a sequence number the clock has passed
//! is crash-durable; with the weaker policies it only means "handed to
//! the kernel" (see [`SyncPolicy`]).
//!
//! [`Journal::close`] drains everything already accepted, force-syncs,
//! and joins the writer: on a graceful close every append that returned
//! `Ok` is on disk — the "no acknowledged-but-unjournaled verdicts"
//! guarantee the shutdown race test pins down.

use crate::reader::{list_segments, JournalError, JournalReader, Mode, Truncation};
use crate::segment::{encode_header, encode_record, record_len, segment_file_name, HEADER_LEN};
use crate::RecordData;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex, TryLockError};
use std::thread::JoinHandle;

/// When the writer thread syncs file contents to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` once per drained batch (default). The durable clock
    /// means what it says: a passed sequence number survives a crash.
    GroupCommit,
    /// Sync only when rotating segments and on close. Bounded data loss
    /// on crash (at most the tail of the current segment), much cheaper
    /// under sustained load.
    OnRotate,
    /// Never sync except on close. For benchmarks measuring everything
    /// but the disk.
    Never,
}

/// Tuning for a [`Journal`].
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Rotate to a new segment once the current one would exceed this
    /// many bytes (a segment always holds at least one record, however
    /// large). Default 64 MiB.
    pub segment_bytes: u64,
    /// Bounded depth of the append channel; producers block when the
    /// writer falls this far behind (`try_append` hands the record back
    /// instead). Default 1024.
    pub queue_depth: usize,
    /// Sync policy. Default [`SyncPolicy::GroupCommit`].
    pub sync: SyncPolicy,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            segment_bytes: 64 << 20,
            queue_depth: 1024,
            sync: SyncPolicy::GroupCommit,
        }
    }
}

/// What [`Journal::open`] found and did while recovering the directory.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Clean records already in the journal.
    pub records: u64,
    /// The sequence number the next append will receive.
    pub next_seq: u64,
    /// The torn tail that was cut off, if any.
    pub truncation: Option<Truncation>,
}

/// Sequence-number state shared by producers (under one lock with the
/// sender, so seq order equals channel order).
struct EnqState {
    next_seq: u64,
    tx: Option<SyncSender<(u64, RecordData)>>,
}

/// The durable clock: highest sequence number known written-and-synced,
/// plus the writer's terminal failure if it died.
struct ClockState {
    durable: u64,
    failed: Option<String>,
}

struct DurableClock {
    state: Mutex<ClockState>,
    cond: Condvar,
}

impl DurableClock {
    fn advance(&self, seq: u64) {
        let mut state = self.state.lock().expect("clock lock");
        debug_assert!(seq >= state.durable, "durable clock must be monotonic");
        state.durable = seq;
        self.cond.notify_all();
    }

    fn fail(&self, msg: String) {
        let mut state = self.state.lock().expect("clock lock");
        if state.failed.is_none() {
            state.failed = Some(msg);
        }
        self.cond.notify_all();
    }
}

/// A durable, append-only request journal. Cheap to share behind an
/// `Arc`; all methods take `&self`.
pub struct Journal {
    enq: Mutex<EnqState>,
    clock: Arc<DurableClock>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `dir`: recovers the
    /// segment chain, truncates a torn tail if one is found, and spawns
    /// the writer thread positioned at the next sequence number.
    ///
    /// # Errors
    ///
    /// [`JournalError::Corrupt`] if the chain is damaged beyond the
    /// torn-tail rule (see [`Mode::Recover`]); [`JournalError::Io`] on
    /// filesystem failure.
    pub fn open(dir: &Path, config: JournalConfig) -> Result<(Journal, Recovery), JournalError> {
        fs::create_dir_all(dir)?;
        // A compaction interrupted mid-swap leaves the directory in a
        // state the reader must not trust; complete or roll back the
        // swap before scanning (see `compact::recover`).
        crate::compact::recover(dir)?;
        let mut reader = JournalReader::open(dir, Mode::Recover)?;
        let mut records = 0u64;
        while reader.next_record()?.is_some() {
            records += 1;
        }
        let next_seq = reader.next_seq();
        let truncation = reader.truncation().cloned();
        if let Some(t) = &truncation {
            apply_truncation(dir, t)?;
        }

        // Position the writer: append to the surviving last segment, or
        // start a fresh one whose base is the next sequence number.
        let (file, seg_path, current_len) = match list_segments(dir)?.pop() {
            Some((_, path)) => {
                let file = OpenOptions::new().append(true).open(&path)?;
                let len = file.metadata()?.len();
                (file, path, len)
            }
            None => create_segment(dir, next_seq)?,
        };

        let clock = Arc::new(DurableClock {
            state: Mutex::new(ClockState {
                durable: next_seq - 1,
                failed: None,
            }),
            cond: Condvar::new(),
        });
        let (tx, rx) = mpsc::sync_channel(config.queue_depth.max(1));
        let writer = WriterState {
            dir: dir.to_path_buf(),
            config,
            file,
            seg_path,
            current_len,
            buf: Vec::with_capacity(4096),
            clock: Arc::clone(&clock),
        };
        let handle = std::thread::Builder::new()
            .name("journal-writer".to_string())
            .spawn(move || writer.run(rx))
            .map_err(JournalError::Io)?;

        let journal = Journal {
            enq: Mutex::new(EnqState {
                next_seq,
                tx: Some(tx),
            }),
            clock,
            handle: Mutex::new(Some(handle)),
        };
        Ok((
            journal,
            Recovery {
                records,
                next_seq,
                truncation,
            },
        ))
    }

    /// Appends one record, returning the sequence number it will occupy.
    /// Blocks only when the bounded queue is full. An `Ok` here means
    /// *accepted*, not yet durable — pair with
    /// [`wait_durable`](Self::wait_durable) (or use
    /// [`append_durable`](Self::append_durable)) when the caller must
    /// not acknowledge before the record is on disk.
    ///
    /// # Errors
    ///
    /// [`JournalError::WriterClosed`] after [`close`](Self::close);
    /// [`JournalError::WriterFailed`] if the writer thread died.
    pub fn append(&self, data: RecordData) -> Result<u64, JournalError> {
        let mut enq = self.enq.lock().expect("enqueue lock");
        let Some(tx) = enq.tx.as_ref() else {
            return Err(JournalError::WriterClosed);
        };
        let seq = enq.next_seq;
        match tx.send((seq, data)) {
            Ok(()) => {
                enq.next_seq = seq + 1;
                Ok(seq)
            }
            // The receiver is gone: the writer thread hit an I/O error
            // and bailed. Surface its terminal failure.
            Err(_) => Err(self.writer_failure()),
        }
    }

    /// [`append`](Self::append) without waiting, for a caller that must
    /// never block (an event loop): it waits neither for room in the
    /// queue nor for the enqueue lock, which a blocked `append` holds
    /// while its send waits. Sequence order stays channel order.
    ///
    /// # Errors
    ///
    /// [`TryAppendError::Full`] hands the record back, with no sequence
    /// number used, when appending now would wait;
    /// [`TryAppendError::Refused`] carries what [`append`](Self::append)
    /// would have returned after [`close`](Self::close) or a writer
    /// failure.
    pub fn try_append(&self, data: RecordData) -> Result<u64, TryAppendError> {
        let mut enq = match self.enq.try_lock() {
            Ok(enq) => enq,
            Err(TryLockError::WouldBlock) => return Err(TryAppendError::Full(data)),
            Err(TryLockError::Poisoned(e)) => panic!("enqueue lock: {e}"),
        };
        let Some(tx) = enq.tx.as_ref() else {
            return Err(TryAppendError::Refused(JournalError::WriterClosed));
        };
        let seq = enq.next_seq;
        match tx.try_send((seq, data)) {
            Ok(()) => {
                enq.next_seq = seq + 1;
                Ok(seq)
            }
            Err(TrySendError::Full((_, data))) => Err(TryAppendError::Full(data)),
            Err(TrySendError::Disconnected(_)) => {
                Err(TryAppendError::Refused(self.writer_failure()))
            }
        }
    }

    /// Appends and blocks until the record is committed per the sync
    /// policy. See [`append`](Self::append) for errors.
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append), plus [`JournalError::WriterFailed`]
    /// if the writer dies before committing this record.
    pub fn append_durable(&self, data: RecordData) -> Result<u64, JournalError> {
        let seq = self.append(data)?;
        self.wait_durable(seq)?;
        Ok(seq)
    }

    /// Blocks until the durable clock reaches `seq`.
    ///
    /// # Errors
    ///
    /// [`JournalError::WriterFailed`] if the writer died before
    /// committing `seq`.
    pub fn wait_durable(&self, seq: u64) -> Result<(), JournalError> {
        let mut state = self.clock.state.lock().expect("clock lock");
        loop {
            if state.durable >= seq {
                return Ok(());
            }
            if let Some(msg) = &state.failed {
                return Err(JournalError::WriterFailed(msg.clone()));
            }
            state = self.clock.cond.wait(state).expect("clock lock");
        }
    }

    /// The highest sequence number committed so far.
    pub fn durable_seq(&self) -> u64 {
        self.clock.state.lock().expect("clock lock").durable
    }

    /// Closes the journal: stops accepting appends, drains everything
    /// already accepted, force-syncs, and joins the writer thread.
    /// Idempotent and safe to race from several threads; every call
    /// returns only after the writer has fully stopped.
    ///
    /// # Errors
    ///
    /// [`JournalError::WriterFailed`] if the writer died (now or
    /// earlier) without committing everything it accepted.
    pub fn close(&self) -> Result<(), JournalError> {
        // Dropping the sender closes the channel; the writer drains the
        // backlog and exits. Taking it under the lock makes racing
        // closers (and closers racing appenders) safe.
        drop(self.enq.lock().expect("enqueue lock").tx.take());
        let handle = self.handle.lock().expect("join lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        } else {
            // Another closer is (or was) joining; serialize behind it
            // so "close returned" always means "writer stopped".
            drop(self.handle.lock().expect("join lock"));
        }
        let state = self.clock.state.lock().expect("clock lock");
        match &state.failed {
            Some(msg) => Err(JournalError::WriterFailed(msg.clone())),
            None => Ok(()),
        }
    }

    fn writer_failure(&self) -> JournalError {
        let state = self.clock.state.lock().expect("clock lock");
        match &state.failed {
            Some(msg) => JournalError::WriterFailed(msg.clone()),
            None => JournalError::WriterClosed,
        }
    }
}

/// Why [`Journal::try_append`] did not take a record.
#[derive(Debug)]
pub enum TryAppendError {
    /// The queue is full, or another producer holds the enqueue lock:
    /// appending would wait. The record comes back unappended.
    Full(RecordData),
    /// The journal is closed or its writer failed.
    Refused(JournalError),
}

impl std::fmt::Display for TryAppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryAppendError::Full(_) => f.write_str("journal queue is full"),
            TryAppendError::Refused(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for TryAppendError {}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("durable_seq", &self.durable_seq())
            .finish()
    }
}

/// Cap on records drained per batch, bounding commit latency for the
/// records at the front when the queue is deep.
const MAX_BATCH: usize = 256;

struct WriterState {
    dir: PathBuf,
    config: JournalConfig,
    file: File,
    seg_path: PathBuf,
    current_len: u64,
    buf: Vec<u8>,
    clock: Arc<DurableClock>,
}

impl WriterState {
    fn run(mut self, rx: Receiver<(u64, RecordData)>) {
        let mut batch: Vec<(u64, RecordData)> = Vec::with_capacity(MAX_BATCH);
        // Block for the first record of each batch, then sweep whatever
        // else has queued up behind it — the group in group commit. A
        // recv error means the channel closed: graceful drain done.
        while let Ok(first) = rx.recv() {
            batch.clear();
            batch.push(first);
            while batch.len() < MAX_BATCH {
                match rx.try_recv() {
                    Ok(item) => batch.push(item),
                    Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                }
            }
            let last_seq = batch.last().expect("batch is non-empty").0;
            if let Err(e) = self.commit(&batch) {
                self.clock
                    .fail(format!("{e} (while committing seq {last_seq})"));
                // Dropping `rx` here unblocks producers stuck on a full
                // queue; their sends fail and surface WriterFailed.
                return;
            }
            self.clock.advance(last_seq);
        }
        // Graceful close: a final force-sync regardless of policy, so
        // every accepted append is durable before close() returns.
        if let Err(e) = self.file.sync_data() {
            self.clock.fail(format!("final sync failed: {e}"));
        }
    }

    /// Writes a batch and syncs it per policy. On `Err` the durable
    /// clock is *not* advanced: some bytes may be on disk, but nothing
    /// in this batch was acknowledged.
    fn commit(&mut self, batch: &[(u64, RecordData)]) -> Result<(), JournalError> {
        let mut rotated = false;
        for (seq, data) in batch {
            let len = record_len(data);
            if self.current_len > HEADER_LEN && self.current_len + len > self.config.segment_bytes {
                self.rotate(*seq)?;
                rotated = true;
            }
            self.buf.clear();
            encode_record(*seq, data, &mut self.buf);
            self.file.write_all(&self.buf)?;
            self.current_len += len;
        }
        match self.config.sync {
            SyncPolicy::GroupCommit => self.file.sync_data()?,
            SyncPolicy::OnRotate if rotated => self.file.sync_data()?,
            SyncPolicy::OnRotate | SyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Seals the current segment and starts a new one based at `seq`.
    fn rotate(&mut self, seq: u64) -> Result<(), JournalError> {
        // The old segment's contents must be durable before the new one
        // becomes visible, or a crash could orphan the chain.
        self.file.sync_data()?;
        let (file, path, len) = create_segment(&self.dir, seq)?;
        self.file = file;
        self.seg_path = path;
        self.current_len = len;
        Ok(())
    }
}

/// Creates a fresh segment file based at `seq`, writes its header, and
/// fsyncs the directory so the new name survives a crash.
fn create_segment(dir: &Path, seq: u64) -> Result<(File, PathBuf, u64), JournalError> {
    let path = dir.join(segment_file_name(seq));
    let mut file = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)?;
    file.write_all(&encode_header(seq))?;
    file.sync_data()?;
    sync_dir(dir)?;
    Ok((file, path, HEADER_LEN))
}

/// Applies a recovery truncation: chops the torn tail (removing the
/// file entirely when even the header is torn) and syncs.
fn apply_truncation(dir: &Path, t: &Truncation) -> Result<(), JournalError> {
    if t.offset < HEADER_LEN {
        fs::remove_file(&t.segment)?;
    } else {
        let file = OpenOptions::new().write(true).open(&t.segment)?;
        file.set_len(t.offset)?;
        file.sync_all()?;
    }
    sync_dir(dir)
}

fn sync_dir(dir: &Path) -> Result<(), JournalError> {
    // Directory fsync is how a rename/create/unlink becomes durable on
    // Unix; on platforms where opening a directory fails, skip it.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_all;
    use obs::TraceId;

    fn sample(n: u64) -> RecordData {
        RecordData {
            trace: TraceId::from_u64(n),
            at_us: n,
            status: 0,
            request: format!("req-{n}").into_bytes(),
            verdict: format!("v-{n}").into_bytes(),
        }
    }

    /// A full queue hands the record back and uses up no sequence
    /// number: the next append takes the next contiguous one.
    #[test]
    fn try_append_on_a_full_queue_hands_the_record_back() {
        const MAX_ATTEMPTS: u64 = 1_000_000;
        let dir = std::env::temp_dir().join(format!("lxj-try-full-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (journal, _) = Journal::open(
            &dir,
            JournalConfig {
                queue_depth: 1,
                ..JournalConfig::default()
            },
        )
        .expect("open");
        // The writer syncs each batch, so a one-deep queue fills within
        // a few attempts; the bound only turns a regression into a
        // failure instead of a hang.
        let mut next = 1u64;
        let handed_back = loop {
            assert!(next <= MAX_ATTEMPTS, "the queue never reported full");
            match journal.try_append(sample(next)) {
                Ok(seq) => {
                    assert_eq!(seq, next, "sequence numbers are contiguous");
                    next += 1;
                }
                Err(TryAppendError::Full(data)) => break data,
                Err(TryAppendError::Refused(e)) => panic!("open journal refused: {e}"),
            }
        };
        assert_eq!(handed_back.request, sample(next).request);
        assert_eq!(journal.append(handed_back).expect("append"), next);
        journal.close().expect("close");
        assert!(matches!(
            journal.try_append(sample(next + 1)),
            Err(TryAppendError::Refused(JournalError::WriterClosed))
        ));

        let (records, truncation) = read_all(&dir, Mode::Strict).expect("strict scan");
        assert!(truncation.is_none());
        assert_eq!(records.len() as u64, next);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(record.seq, i as u64 + 1);
            assert_eq!(record.request, sample(record.seq).request);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
