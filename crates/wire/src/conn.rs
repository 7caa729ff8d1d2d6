//! Per-connection state for the event-driven server: the phase
//! machine, the growable read/write buffers, and the half observers on
//! service worker threads are allowed to touch.
//!
//! A connection advances through four phases:
//!
//! ```text
//! accept ──► Open ──► Draining ──► Lingering ──► (closed)
//!             │ decode frames,      │ no new      │ FIN sent; discard
//!             │ submit, flush       │ frames;     │ peer bytes until
//!             │ responses           │ answer      │ EOF or deadline
//!             │                     │ in-flight,  │
//!             │                     │ flush       │
//! ```
//!
//! `Open → Draining` on server drain, peer EOF, idle timeout, or a
//! protocol error — in every case requests already decoded are still
//! answered and flushed (exactly-once delivery). `Draining →
//! Lingering` only once in-flight hits zero and both buffers are
//! empty; the FIN-then-bounded-linger-read sequence is what keeps the
//! kernel from turning a close with unread bytes into an RST that
//! destroys responses in the peer's receive path.
//!
//! The split between [`Connection`] (owned by the event loop, never
//! shared) and [`ConnShared`] (behind an `Arc`, touched by completion
//! observers on worker threads) is the concurrency boundary: observers
//! only push encoded response bytes into the outbox, flip the
//! scheduled flag, and decrement the in-flight count — they never see
//! the socket.

use crate::frame::StreamDecoder;
use crate::metrics::WireMetrics;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Mutex;
use std::time::Instant;

/// Where a connection is in its lifecycle; see the [module
/// docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Decoding frames, submitting requests, flushing responses.
    Open,
    /// No new frames; answering in-flight and flushing buffers.
    Draining,
    /// FIN sent; discarding peer bytes until EOF or the deadline.
    Lingering {
        /// When to give up on the peer's EOF and close anyway.
        deadline: Instant,
    },
}

/// Response bytes queued by observers, plus the closed flag that makes
/// a dead connection drop further sends (the peer is gone, so are its
/// responses).
#[derive(Debug, Default)]
pub(crate) struct Outbox {
    pub(crate) queue: Vec<Vec<u8>>,
    pub(crate) closed: bool,
}

/// The observer-facing half of a connection. Everything here is safe
/// to touch from a service worker thread.
#[derive(Debug)]
pub(crate) struct ConnShared {
    /// The slab token (index + generation) the event loop resolves
    /// completions with.
    pub(crate) token: u64,
    /// Requests between frame decode and response enqueue. The event
    /// loop pauses decoding at the cap; observers decrement *after*
    /// enqueueing, so "in-flight zero" implies "all responses queued".
    pub(crate) inflight: AtomicUsize,
    /// Encoded response frames awaiting the event loop.
    pub(crate) outbox: Mutex<Outbox>,
    /// Whether this connection is already on the completion list; keeps
    /// N completions per wakeup at one list entry and one doorbell ring.
    pub(crate) scheduled: AtomicBool,
}

impl ConnShared {
    pub(crate) fn new(token: u64) -> ConnShared {
        ConnShared {
            token,
            inflight: AtomicUsize::new(0),
            outbox: Mutex::new(Outbox::default()),
            scheduled: AtomicBool::new(false),
        }
    }

    /// Queues encoded response bytes; returns `false` (dropping the
    /// bytes) once the connection is torn down.
    pub(crate) fn push_response(&self, bytes: Vec<u8>) -> bool {
        let mut outbox = self.outbox.lock().expect("outbox lock");
        if outbox.closed {
            return false;
        }
        outbox.queue.push(bytes);
        true
    }

    /// Takes everything queued, leaving the outbox open.
    pub(crate) fn take_responses(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.outbox.lock().expect("outbox lock").queue)
    }

    /// Closes the outbox: later responses are dropped (peer is gone).
    pub(crate) fn close_outbox(&self) {
        let mut outbox = self.outbox.lock().expect("outbox lock");
        outbox.closed = true;
        outbox.queue.clear();
    }
}

/// The write side: encoded frames coalesced into as few `writev`
/// syscalls as the socket accepts. Each queued buffer is exactly one
/// frame, so frame/byte accounting lands when a frame's last byte is
/// handed to the kernel — `frames_out` never counts a response the
/// peer could not have received.
#[derive(Debug, Default)]
pub(crate) struct WriteQueue {
    bufs: VecDeque<Vec<u8>>,
    /// Bytes of `bufs[0]` already written.
    offset: usize,
}

/// At most this many frames per `writev` (the kernel caps iovecs at
/// `UIO_MAXIOV` = 1024; 64 keeps the stack slice small while already
/// amortizing the syscall ~64x).
const MAX_IOVECS: usize = 64;

impl WriteQueue {
    pub(crate) fn push(&mut self, frame_bytes: Vec<u8>) {
        self.bufs.push_back(frame_bytes);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Writes as much as the socket accepts, one vectored call per
    /// batch. Returns with the queue non-empty on `WouldBlock` (the
    /// caller arms `EPOLLOUT`).
    ///
    /// # Errors
    ///
    /// Propagates fatal socket errors; the connection is dead.
    pub(crate) fn flush(&mut self, stream: &TcpStream, metrics: &WireMetrics) -> io::Result<()> {
        while !self.bufs.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.bufs.len().min(MAX_IOVECS));
            for (i, buf) in self.bufs.iter().take(MAX_IOVECS).enumerate() {
                let from = if i == 0 { self.offset } else { 0 };
                slices.push(IoSlice::new(&buf[from..]));
            }
            match (&mut &*stream).write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    metrics.writev_batches.inc();
                    self.consume(n, metrics);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Advances past `n` written bytes, crediting each completed frame.
    fn consume(&mut self, mut n: usize, metrics: &WireMetrics) {
        while n > 0 {
            let front_left = self.bufs[0].len() - self.offset;
            if n >= front_left {
                n -= front_left;
                let frame = self.bufs.pop_front().expect("nonempty write queue");
                self.offset = 0;
                metrics.frames_out.inc();
                metrics.bytes_out.add(frame.len() as u64);
            } else {
                self.offset += n;
                n = 0;
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        self.bufs.clear();
        self.offset = 0;
    }
}

/// One connection as the event loop owns it. Never shared; observers
/// go through [`ConnShared`].
#[derive(Debug)]
pub(crate) struct Connection {
    pub(crate) stream: TcpStream,
    pub(crate) shared: std::sync::Arc<ConnShared>,
    pub(crate) decoder: StreamDecoder,
    pub(crate) wq: WriteQueue,
    pub(crate) phase: Phase,
    /// Last byte received; drives the idle clock.
    pub(crate) last_activity: Instant,
    /// Decoding stopped at the in-flight cap; resumed on completion.
    pub(crate) paused: bool,
    /// Peer sent FIN (read returned 0).
    pub(crate) peer_eof: bool,
    /// The read side died with a real socket error (counted as a
    /// protocol error).
    pub(crate) read_error: bool,
    /// The write side died; flushes are pointless, close when drained.
    pub(crate) dead_write: bool,
    /// When a fully answered but unflushed `Draining` connection gives
    /// up on the peer ever reading and closes anyway; armed the first
    /// time in-flight hits zero with the write queue non-empty, so
    /// graceful drain is bounded against stalled peers.
    pub(crate) drain_deadline: Option<Instant>,
    /// The `EPOLL*` mask currently armed for this socket, tracked to
    /// skip redundant `epoll_ctl` calls.
    pub(crate) interest: u32,
}

impl Connection {
    pub(crate) fn new(
        stream: TcpStream,
        shared: std::sync::Arc<ConnShared>,
        max_frame: u32,
    ) -> Connection {
        Connection {
            stream,
            shared,
            decoder: StreamDecoder::new(max_frame),
            wq: WriteQueue::default(),
            phase: Phase::Open,
            last_activity: Instant::now(),
            paused: false,
            peer_eof: false,
            read_error: false,
            dead_write: false,
            drain_deadline: None,
            interest: 0,
        }
    }

    pub(crate) fn inflight(&self) -> usize {
        self.shared
            .inflight
            .load(std::sync::atomic::Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;
    use std::net::TcpListener;

    #[test]
    fn write_queue_coalesces_frames_and_credits_on_completion() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let metrics = WireMetrics::default();
        let mut wq = WriteQueue::default();
        wq.push(vec![1; 10]);
        wq.push(vec![2; 20]);
        wq.push(vec![3; 30]);
        wq.flush(&server_side, &metrics).unwrap();
        assert!(wq.is_empty());
        let snap = metrics.snapshot();
        assert_eq!(snap.frames_out, 3);
        assert_eq!(snap.bytes_out, 60);
        // All 60 bytes coalesced into one writev on an empty socket
        // buffer.
        assert_eq!(snap.writev_batches, 1);

        let mut got = vec![0u8; 60];
        let mut client = client;
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got[..10], &[1; 10]);
        assert_eq!(&got[10..30], &[2; 20]);
        assert_eq!(&got[30..], &[3; 30]);
    }

    #[test]
    fn write_queue_survives_partial_writes() {
        // A tiny send buffer forces WouldBlock mid-queue; the queue
        // must resume from the exact byte offset.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let metrics = WireMetrics::default();
        let mut wq = WriteQueue::default();
        let payload: Vec<Vec<u8>> = (0..=255u8).map(|i| vec![i; 8 * 1024]).collect();
        let total: usize = payload.iter().map(Vec::len).sum();
        for frame in &payload {
            wq.push(frame.clone());
        }

        let reader = std::thread::spawn(move || {
            let mut client = client;
            let mut got = Vec::new();
            client.read_to_end(&mut got).unwrap();
            got
        });
        // Flush until drained, sleeping briefly on WouldBlock like the
        // event loop does between EPOLLOUT readiness reports.
        while !wq.is_empty() {
            wq.flush(&server_side, &metrics).unwrap();
            if !wq.is_empty() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        drop(server_side); // FIN so read_to_end finishes
        let got = reader.join().unwrap();
        assert_eq!(got.len(), total);
        let expect: Vec<u8> = payload.into_iter().flatten().collect();
        assert_eq!(got, expect);
        let snap = metrics.snapshot();
        assert_eq!(snap.frames_out, 256);
        assert_eq!(snap.bytes_out, total as u64);
        // 256 frames cannot fit one vectored call: the iovec cap alone
        // forces at least four batches.
        assert!(snap.writev_batches >= 4);
    }
}
