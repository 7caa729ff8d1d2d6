//! The TCP serving layer over [`ComplianceService`]: one epoll
//! readiness loop multiplexing every connection, instead of threads per
//! socket.
//!
//! # Why
//!
//! A thread-per-connection server spends stacks (~16 MiB of address
//! space for a reader/writer pair) and schedulable entities per
//! connection. At C10K that is twenty thousand mostly-idle threads and
//! a scheduler meltdown. This server holds every connection as a small
//! state machine (`Connection` in `crate::conn`) owned by **one** loop
//! thread, woken only by readiness: `epoll_wait` for sockets, an
//! `eventfd` doorbell for service completions. Thread count is constant
//! in the connection count.
//!
//! # Architecture
//!
//! ```text
//!              ┌────────────────────────────────────────────┐
//!              │  event loop thread                         │
//!   accept ───►│  epoll_wait ── readable ──► read → decode  │
//!              │      ▲                      └► submit ─────┼──► service
//!              │      │ doorbell                            │    workers
//!              │      │ (eventfd)  writable ─► writev flush │      │
//!              └──────┼─────────────────────────────▲───────┘      │
//!                     │                             │              │
//!                     └── ring ◄── outbox ◄── encode + journal ◄───┘
//!                            (completion observer, worker thread)
//! ```
//!
//! The **completion path** is the only cross-thread traffic: a service
//! worker's observer encodes the response frame, appends the journal
//! record, pushes the bytes into the connection's outbox, decrements
//! in-flight, and rings the doorbell (deduplicated per connection by a
//! `scheduled` flag, coalesced by the eventfd counter — N completions
//! cost one wakeup). The loop drains the completion list, moves outbox
//! bytes into each write queue, and flushes with vectored writes.
//!
//! # Backpressure
//!
//! At [`WireConfig::max_inflight`] undispatched requests the loop stops
//! decoding that connection and disarms `EPOLLIN`; the kernel's receive
//! window fills and the client blocks. Admission control composes: wire
//! cap per connection first, then the service's bounded queue across
//! connections — enforced by TCP, not by a parked thread.
//!
//! # Timeouts and drain
//!
//! The loop's control tick ([`WireConfig::read_tick`]) paces the clock
//! scan: an idle connection (no bytes and nothing in flight for
//! [`WireConfig::idle_timeout`]) is closed, even mid-frame.
//! [`EventServer::shutdown`] is a graceful drain: serve the accept
//! backlog, stop decoding, answer every in-flight request and flush it,
//! then FIN with a bounded linger. Nothing admitted is lost; nothing is
//! answered twice — trace minting at decode, journal append before
//! response enqueue and the explain-sink lines all hold through it.

use crate::conn::{ConnShared, Connection, Phase};
use crate::frame::{self, Explain, Frame, PlanResponse, Response, Status};
use crate::metrics::{WireMetrics, WireMetricsSnapshot};
use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use forensic_law::batch::BatchAssessor;
use forensic_law::factkey::FactKey;
use forensic_law::provenance::push_escaped;
use forensic_law::spec::ActionSpec;
use journal::{Journal, Record, RecordData, Retention};
use obs::{Stage, TraceId};
use service::prelude::*;
use std::io::{self, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token the listener registers under. Connection tokens are
/// `generation << 32 | slab index`; an index of `u32::MAX` would need
/// four billion simultaneous connections, so the top token values are
/// safely reserved.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token the completion doorbell registers under.
const DOORBELL_TOKEN: u64 = u64::MAX - 1;

/// Stop reading a connection once this much undecoded data is buffered;
/// level-triggered epoll re-reports readiness once decoding catches up.
const READ_BUFFER_CAP: usize = 256 * 1024;

/// Socket-read scratch size per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// How long a closed connection waits for the peer's FIN before
/// dropping the socket.
const LINGER: Duration = Duration::from_millis(250);

/// How long a fully answered `Draining` connection keeps trying to
/// flush queued responses to a peer that is not reading before closing
/// with the queue discarded. Without this bound a stalled (or
/// malicious) peer would pin `live` above zero and hang graceful drain
/// forever.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Readiness events fetched per `epoll_wait`.
const EVENT_BATCH: usize = 1024;

/// Consecutive `epoll_wait` failures tolerated (with a tick-long sleep
/// between retries) before the loop gives up: `EBADF`-class errors
/// never heal, and retrying forever would spin a core.
const MAX_WAIT_FAILURES: u32 = 8;

/// Tuning for an [`EventServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Requests one connection may hold between frame decode and
    /// response enqueue (clamped to at least one).
    pub max_inflight: usize,
    /// Cap on a frame body; larger length prefixes kill the connection.
    pub max_frame: u32,
    /// The loop's control tick: the granularity at which it notices
    /// drain, idle and linger deadlines. Smaller is more responsive,
    /// larger is fewer wakeups.
    pub read_tick: Duration,
    /// Close a connection after this long with no bytes and nothing in
    /// flight (`None` disables). Also bounds how long a peer may stall
    /// mid-frame.
    pub idle_timeout: Option<Duration>,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            max_inflight: 64,
            max_frame: frame::MAX_FRAME,
            read_tick: Duration::from_millis(25),
            idle_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// A shared JSONL sink for per-request explain records: one line per
/// answered request — trace id, request id, status, payload, and the
/// provenance record — written by whichever service thread answers.
///
/// The sink is cold-path only: it is consulted after the response is
/// built, and a server started without one pays a single `Option`
/// check per request.
pub struct ExplainSink {
    out: Mutex<Box<dyn io::Write + Send>>,
}

impl std::fmt::Debug for ExplainSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplainSink").finish_non_exhaustive()
    }
}

impl ExplainSink {
    /// Wraps a writer (a file, stderr, a pipe) as a shareable sink.
    pub fn new(out: Box<dyn io::Write + Send>) -> Arc<ExplainSink> {
        Arc::new(ExplainSink {
            out: Mutex::new(out),
        })
    }

    /// Writes one record line (newline appended) and flushes, so lines
    /// are whole even if the process dies mid-serve.
    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().expect("sink lock");
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
        let _ = out.flush();
    }
}

/// State shared by the loop thread and service-worker observers.
struct EvShared {
    service: Arc<ComplianceService>,
    config: WireConfig,
    metrics: Arc<WireMetrics>,
    explain: Option<Arc<ExplainSink>>,
    journal: Option<Arc<Journal>>,
    draining: AtomicBool,
    /// Wakes the loop: completions from workers, shutdown from the
    /// owner. The eventfd counter coalesces bursts into one wakeup.
    doorbell: EventFd,
    /// Connection tokens with responses waiting in their outboxes.
    completions: Mutex<Vec<u64>>,
}

impl std::fmt::Debug for EvShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvShared")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl EvShared {
    /// Appends one disposition to the journal, if one is attached.
    ///
    /// Every answered request — verdicts, bad requests, rejections — is
    /// appended *before* its response is queued, so a drained server
    /// plus a closed journal holds every acknowledged disposition. The
    /// hot path pays one bounded-channel send; fsync is the journal
    /// writer's group-commit problem. Append failure is terminal for the
    /// journal writer and surfaces through `Journal::close`, not
    /// per-request.
    fn journal_record(&self, trace: TraceId, status: Status, request: Vec<u8>, verdict: Vec<u8>) {
        if let Some(journal) = &self.journal {
            let _ = journal.append(RecordData {
                trace,
                at_us: journal::now_us(),
                status: status.as_byte(),
                request,
                verdict,
            });
        }
    }

    /// Puts `token` on the completion list and rings the doorbell,
    /// unless the connection is already scheduled.
    fn schedule(&self, conn: &ConnShared) {
        if !conn.scheduled.swap(true, Ordering::AcqRel) {
            self.completions
                .lock()
                .expect("completions lock")
                .push(conn.token);
            self.doorbell.signal();
        }
    }
}

/// The compaction retention policy for a journal this server wrote:
/// what `journal compact` keeps of each record, read from the status
/// byte [`EventServer`] journals with it.
///
/// - A verdict supersedes earlier verdicts for the same engine-visible
///   facts: the [`FactKey`] projection, not the request bytes, is the
///   identity, so two spellings of one action compact to one record.
///   A verdict whose request no longer parses is kept, for `replay` to
///   flag rather than guess.
/// - Malformed requests dedupe by their raw bytes.
/// - Timeouts, sheds, rejections and going-away answers are facts about
///   a past run's load, not about the law, so compaction drops them.
pub fn compaction_retention(record: &Record) -> Retention {
    match Status::from_byte(record.status) {
        Some(Status::Ok) => {
            let action = std::str::from_utf8(&record.request).ok().and_then(|line| {
                ActionSpec::from_json_line(line)
                    .and_then(|spec| spec.to_action())
                    .ok()
            });
            match action {
                Some(action) => {
                    let mut key = Vec::with_capacity(9);
                    key.push(0x01);
                    key.extend_from_slice(&FactKey::of(&action).bits().to_be_bytes());
                    Retention::Supersede(key)
                }
                None => Retention::Keep,
            }
        }
        Some(Status::BadRequest) => {
            let mut key = Vec::with_capacity(1 + record.request.len());
            key.push(0x02);
            key.extend_from_slice(&record.request);
            Retention::Supersede(key)
        }
        _ => Retention::Drop,
    }
}

/// A running event-driven TCP front end over a
/// [`ComplianceService`]: two threads total, whatever the connection
/// count (accept is folded into the loop). See the [module docs](self).
#[derive(Debug)]
pub struct EventServer {
    local_addr: SocketAddr,
    shared: Arc<EvShared>,
    event_loop: Option<JoinHandle<()>>,
}

impl EventServer {
    /// Binds `addr` (port 0 picks a free port; see
    /// [`local_addr`](Self::local_addr)) and starts serving `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind, epoll-creation, and eventfd failures.
    pub fn start(
        addr: impl ToSocketAddrs,
        service: Arc<ComplianceService>,
        config: WireConfig,
    ) -> io::Result<EventServer> {
        EventServer::start_with_sinks(addr, service, config, None, None)
    }

    /// [`start`](Self::start), plus two optional sinks. A server-side
    /// [`ExplainSink`] gets one JSONL record (trace id, request id,
    /// status, payload, provenance) per answered request, whether or not
    /// the client asked for in-band explain. A durable request
    /// [`Journal`] gets every answered request (trace id, status byte,
    /// raw request payload, verdict bytes) before its response frame is
    /// enqueued. The journal stays owned by the caller — close it
    /// *after* [`shutdown`](Self::shutdown) so the drain's final
    /// responses are on disk, and treat a close error as
    /// acknowledged-but-unjournaled responses.
    ///
    /// # Errors
    ///
    /// As for [`start`](Self::start).
    pub fn start_with_sinks(
        addr: impl ToSocketAddrs,
        service: Arc<ComplianceService>,
        config: WireConfig,
        explain: Option<Arc<ExplainSink>>,
        journal: Option<Arc<Journal>>,
    ) -> io::Result<EventServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let doorbell = EventFd::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        epoll.add(doorbell.raw(), EPOLLIN, DOORBELL_TOKEN)?;
        let shared = Arc::new(EvShared {
            service,
            config: WireConfig {
                max_inflight: config.max_inflight.max(1),
                ..config
            },
            metrics: Arc::new(WireMetrics::default()),
            explain,
            journal,
            draining: AtomicBool::new(false),
            doorbell,
            completions: Mutex::new(Vec::new()),
        });
        let event_loop = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                EventLoop {
                    shared,
                    epoll,
                    listener,
                    entries: Vec::new(),
                    gens: Vec::new(),
                    free: Vec::new(),
                    live: 0,
                    scratch: vec![0u8; READ_CHUNK],
                    draining_seen: false,
                    last_scan: Instant::now(),
                    wait_failures: 0,
                    listener_stalled: false,
                }
                .run();
            })
        };
        Ok(EventServer {
            local_addr,
            shared,
            event_loop: Some(event_loop),
        })
    }

    /// The bound address (with the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live wire metrics.
    pub fn metrics(&self) -> WireMetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Graceful drain: serves whatever the accept backlog already
    /// holds, stops decoding new frames, answers and flushes every
    /// in-flight request, half-closes with FIN and a bounded linger,
    /// joins the loop, and returns the final wire metrics. The
    /// underlying [`ComplianceService`] is left running — it belongs to
    /// the caller. Nothing admitted is lost; nothing is answered twice.
    pub fn shutdown(mut self) -> EventServerReport {
        self.drain();
        EventServerReport {
            metrics: self.shared.metrics.snapshot(),
        }
    }

    fn drain(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.doorbell.signal();
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
        // The loop is joined, but the worker-side observer whose
        // doorbell ring let it finish may still be dropping its clone
        // of `shared` (the closure's captures die *after* its last
        // statement). Wait those drops out so a caller's
        // `Arc::try_unwrap` on the service or journal handle never
        // races a dying closure. In-flight was zero at loop exit, so
        // every observer has already run — this only waits for
        // destructor epilogues; the deadline is a belt-and-braces
        // bound, not an expected path.
        let gone_by = Instant::now() + Duration::from_secs(1);
        while Arc::strong_count(&self.shared) > 1 && Instant::now() < gone_by {
            std::thread::yield_now();
        }
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        if self.event_loop.is_some() {
            self.drain();
        }
    }
}

/// What a graceful [`EventServer::shutdown`] hands back.
#[derive(Debug, Clone, Copy)]
pub struct EventServerReport {
    /// Final wire metrics at the instant the loop exited.
    pub metrics: WireMetricsSnapshot,
}

/// The loop thread's world: epoll, the listener, and the connection
/// slab. Tokens are `generation << 32 | index` so a completion for a
/// connection that died and had its slot reused is ignored instead of
/// misdelivered.
struct EventLoop {
    shared: Arc<EvShared>,
    epoll: Epoll,
    listener: TcpListener,
    entries: Vec<Option<Connection>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    scratch: Vec<u8>,
    draining_seen: bool,
    last_scan: Instant,
    /// Consecutive `epoll_wait` failures (reset on success).
    wait_failures: u32,
    /// Accept hit fd exhaustion and the listener's `EPOLLIN` was
    /// disarmed; the clock scan re-arms it once per tick so a full fd
    /// table degrades to slow accepts instead of a busy-spin.
    listener_stalled: bool,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![EpollEvent::default(); EVENT_BATCH];
        loop {
            // The tick doubles as the idle/linger/drain scan cadence.
            let tick = self.shared.config.read_tick;
            let n = match self.epoll.wait(&mut events, Some(tick)) {
                Ok(n) => {
                    self.wait_failures = 0;
                    n
                }
                Err(e) => {
                    // Treating an error like a timeout would busy-spin
                    // the loop at 100% CPU; back off a tick, and give
                    // up entirely if the failure persists (dropping the
                    // loop closes every connection, which beats a
                    // wedged core).
                    self.wait_failures += 1;
                    eprintln!(
                        "wire event loop: epoll_wait failed ({}/{MAX_WAIT_FAILURES}): {e}",
                        self.wait_failures
                    );
                    if self.wait_failures >= MAX_WAIT_FAILURES {
                        return;
                    }
                    std::thread::sleep(tick);
                    0
                }
            };

            let mut accept_ready = false;
            let mut rang = false;
            for ev in &events[..n] {
                let token = { ev.data };
                let mask = { ev.events };
                match token {
                    LISTENER_TOKEN => accept_ready = true,
                    DOORBELL_TOKEN => rang = true,
                    token => {
                        if let Some(idx) = self.resolve(token) {
                            let readable = mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0;
                            self.advance(idx, readable);
                        }
                    }
                }
            }
            if rang {
                self.on_doorbell();
            }
            if !self.draining_seen && self.shared.draining.load(Ordering::SeqCst) {
                self.begin_drain();
            } else if accept_ready && !self.draining_seen {
                self.accept_all();
            }
            if self.last_scan.elapsed() >= tick {
                self.scan_clocks();
            }
            if self.draining_seen && self.live == 0 {
                return;
            }
        }
    }

    /// Maps a readiness/completion token back to a live slab index;
    /// `None` for stale generations (the connection is gone).
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & u64::from(u32::MAX)) as usize;
        let gen = (token >> 32) as u32;
        (idx < self.entries.len() && self.gens[idx] == gen && self.entries[idx].is_some())
            .then_some(idx)
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.register(stream),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // The handshake died before we got to it; on to the
                // next pending connection.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                // Backlog empty.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // EMFILE/ENFILE and friends: accepting cannot make
                // progress, but the pending connection keeps the
                // listener readable — level-triggered epoll would
                // report it on every wait and busy-spin the loop.
                // Disarm the listener; the clock scan re-arms it once
                // per tick until fds free up.
                Err(_) => {
                    self.stall_listener();
                    break;
                }
            }
        }
    }

    /// Disarms the listener's `EPOLLIN` after an accept failure that
    /// retrying immediately cannot fix (see `accept_all`).
    fn stall_listener(&mut self) {
        if !self.listener_stalled
            && self
                .epoll
                .modify(self.listener.as_raw_fd(), 0, LISTENER_TOKEN)
                .is_ok()
        {
            self.listener_stalled = true;
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let metrics = &self.shared.metrics;
        metrics.connections_opened.inc();
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            metrics.connections_closed.inc();
            return;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            self.gens.push(0);
            self.entries.len() - 1
        });
        let token = (u64::from(self.gens[idx]) << 32) | idx as u64;
        let shared = Arc::new(ConnShared::new(token));
        let conn = Connection::new(stream, shared, self.shared.config.max_frame);
        let want = EPOLLIN | EPOLLRDHUP;
        if self
            .epoll
            .add(conn.stream.as_raw_fd(), want, token)
            .is_err()
        {
            metrics.connections_closed.inc();
            self.free.push(idx);
            return;
        }
        let mut conn = conn;
        conn.interest = want;
        self.entries[idx] = Some(conn);
        self.live += 1;
    }

    fn on_doorbell(&mut self) {
        self.shared.doorbell.drain();
        self.shared.metrics.wakeups.inc();
        let tokens =
            std::mem::take(&mut *self.shared.completions.lock().expect("completions lock"));
        for token in tokens {
            if let Some(idx) = self.resolve(token) {
                // Clear the dedupe flag *before* draining the outbox so
                // an observer racing with this drain re-schedules the
                // connection instead of being missed.
                self.entries[idx]
                    .as_ref()
                    .expect("resolved entry")
                    .shared
                    .scheduled
                    .store(false, Ordering::SeqCst);
                self.advance(idx, false);
            }
        }
    }

    /// One turn of a connection's state machine: read (if readiness
    /// said to), decode/dispatch, collect completed responses, flush,
    /// then phase transitions and epoll re-arm.
    fn advance(&mut self, idx: usize, readable: bool) {
        let shared = Arc::clone(&self.shared);
        {
            let Some(conn) = self.entries[idx].as_mut() else {
                return;
            };
            if readable {
                read_socket(conn, &mut self.scratch, &shared.metrics);
            }
            pump_decode(&shared, conn);
            collect_and_flush(conn, &shared.metrics);
            // Completions may have freed in-flight slots while we held
            // frames back at the cap; resume decoding immediately
            // rather than waiting for the next readiness report.
            if conn.paused && conn.phase == Phase::Open {
                pump_decode(&shared, conn);
                collect_and_flush(conn, &shared.metrics);
            }
        }
        self.transition(idx);
    }

    /// Phase advancement and epoll re-arm; tears the connection down
    /// when it reaches the end of its life.
    fn transition(&mut self, idx: usize) {
        let now = Instant::now();
        let shared = Arc::clone(&self.shared);
        let Some(conn) = self.entries[idx].as_mut() else {
            return;
        };
        if conn.phase == Phase::Draining && conn.inflight() == 0 {
            // In-flight zero means every response is queued (observers
            // enqueue before decrementing); one last collect makes that
            // visible here, then flush and half-close.
            collect_and_flush(conn, &shared.metrics);
            if conn.wq.is_empty() || conn.dead_write {
                conn.shared.close_outbox();
                let _ = conn.stream.shutdown(Shutdown::Write);
                conn.phase = Phase::Lingering {
                    deadline: now + LINGER,
                };
            } else {
                // Fully answered but unflushed: the only thing left is
                // a peer that has stopped reading. Bound the wait —
                // the clock scan revisits every tick — and then treat
                // the peer as gone, or drain/shutdown would hang on
                // `live > 0` forever.
                match conn.drain_deadline {
                    None => conn.drain_deadline = Some(now + DRAIN_GRACE),
                    Some(deadline) if now >= deadline => {
                        conn.dead_write = true;
                        conn.wq.clear();
                        conn.shared.close_outbox();
                        let _ = conn.stream.shutdown(Shutdown::Write);
                        conn.phase = Phase::Lingering {
                            deadline: now + LINGER,
                        };
                    }
                    Some(_) => {}
                }
            }
        }
        if let Phase::Lingering { deadline } = conn.phase {
            if conn.peer_eof || conn.read_error || now >= deadline {
                self.teardown(idx);
                return;
            }
        }
        self.rearm(idx);
    }

    /// Recomputes the epoll interest mask from the connection's state
    /// and re-arms only when it changed.
    fn rearm(&mut self, idx: usize) {
        let Some(conn) = self.entries[idx].as_mut() else {
            return;
        };
        let mut want = EPOLLRDHUP;
        let read_wanted = match conn.phase {
            // Reading is wanted unless backpressure (in-flight cap or
            // decode backlog) says otherwise — disarming EPOLLIN is
            // what lets TCP flow control push back on the client.
            Phase::Open => {
                !conn.peer_eof
                    && !conn.read_error
                    && !conn.paused
                    && conn.decoder.buffered() < read_limit(conn)
            }
            // Draining stopped consuming input on purpose.
            Phase::Draining => false,
            // Lingering reads only to discard until the peer's FIN.
            Phase::Lingering { .. } => !conn.peer_eof && !conn.read_error,
        };
        if read_wanted {
            want |= EPOLLIN;
        }
        if !conn.wq.is_empty() && !conn.dead_write {
            want |= EPOLLOUT;
        }
        if want != conn.interest {
            let token = conn.shared.token;
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), want, token)
                .is_ok()
            {
                conn.interest = want;
            }
        }
    }

    fn teardown(&mut self, idx: usize) {
        if let Some(conn) = self.entries[idx].take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            conn.shared.close_outbox();
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.free.push(idx);
            self.live -= 1;
            self.shared.metrics.connections_closed.inc();
        }
    }

    /// The drain sequence, entered exactly once: serve the accept
    /// backlog (the kernel already completed those handshakes — closing
    /// the listener now would RST them), deregister the listener, slurp
    /// every open connection's buffered bytes, dispatch all decoded
    /// frames (the in-flight cap is waived during drain, so nothing
    /// already received waits on a slot), and stop consuming input.
    /// Undecoded partial bytes are abandoned without a protocol error —
    /// the server initiated this close.
    fn begin_drain(&mut self) {
        self.draining_seen = true;
        self.accept_all();
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        for idx in 0..self.entries.len() {
            let shared = Arc::clone(&self.shared);
            {
                let Some(conn) = self.entries[idx].as_mut() else {
                    continue;
                };
                if conn.phase != Phase::Open {
                    continue;
                }
                read_socket(conn, &mut self.scratch, &shared.metrics);
                pump_decode(&shared, conn);
                if conn.phase == Phase::Open {
                    conn.phase = Phase::Draining;
                }
                collect_and_flush(conn, &shared.metrics);
            }
            self.transition(idx);
        }
    }

    /// The periodic pass the epoll timeout guarantees: idle cutoffs,
    /// drain progress for connections whose last in-flight decrement
    /// raced past a doorbell, and linger deadlines.
    fn scan_clocks(&mut self) {
        self.last_scan = Instant::now();
        if self.listener_stalled && !self.draining_seen {
            // Retry a stalled accept: teardowns since the stall may
            // have freed descriptors. Re-arm first so a still-pending
            // backlog is reported even if this burst empties it.
            if self
                .epoll
                .modify(self.listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
                .is_ok()
            {
                self.listener_stalled = false;
                self.accept_all();
            }
        }
        for idx in 0..self.entries.len() {
            {
                let Some(conn) = self.entries[idx].as_mut() else {
                    continue;
                };
                if conn.phase == Phase::Open {
                    if let Some(idle) = self.shared.config.idle_timeout {
                        if conn.last_activity.elapsed() >= idle && conn.inflight() == 0 {
                            // Server-initiated close: never a protocol
                            // error, even mid-frame.
                            conn.phase = Phase::Draining;
                        }
                    }
                }
            }
            self.transition(idx);
        }
    }
}

/// How much undecoded data `conn` may buffer before reading stops.
/// Normally [`READ_BUFFER_CAP`], but when the head of the buffer is a
/// frame bigger than the cap the limit stretches to that frame's full
/// wire size (bounded by the decoder's `max_frame` check) — otherwise
/// a legal frame in `(READ_BUFFER_CAP, max_frame]` could buffer its
/// first 256 KiB, disarm `EPOLLIN`, and never complete.
fn read_limit(conn: &Connection) -> usize {
    conn.decoder
        .pending_frame_len()
        .map_or(READ_BUFFER_CAP, |need| READ_BUFFER_CAP.max(need))
}

/// Reads until `WouldBlock`, EOF, error, or the decode-backlog cap.
/// In `Lingering` the bytes are discarded (we only want the FIN).
fn read_socket(conn: &mut Connection, scratch: &mut [u8], metrics: &WireMetrics) {
    use std::io::Read as _;
    if conn.peer_eof || conn.read_error {
        return;
    }
    let discard = !matches!(conn.phase, Phase::Open);
    loop {
        if !discard && conn.decoder.buffered() >= read_limit(conn) {
            return;
        }
        match (&mut &conn.stream as &mut &TcpStream).read(scratch) {
            Ok(0) => {
                conn.peer_eof = true;
                return;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                if !discard {
                    conn.decoder.extend(&scratch[..n]);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return;
            }
            Err(_) => {
                // A real socket error mid-conversation counts as a
                // protocol error.
                if matches!(conn.phase, Phase::Open) {
                    metrics.protocol_errors.inc();
                }
                conn.read_error = true;
                return;
            }
        }
    }
}

/// Decodes and dispatches every complete frame the connection has
/// buffered, stopping at the in-flight cap (waived during drain) or a
/// terminal condition. Transitions `Open → Draining` on peer EOF, read
/// error, or protocol error.
fn pump_decode(shared: &Arc<EvShared>, conn: &mut Connection) {
    if conn.phase != Phase::Open {
        return;
    }
    let metrics = &shared.metrics;
    let cap = if shared.draining.load(Ordering::Relaxed) {
        usize::MAX
    } else {
        shared.config.max_inflight
    };
    loop {
        if conn.inflight() >= cap {
            conn.paused = true;
            return;
        }
        conn.paused = false;
        match conn.decoder.next_frame() {
            Ok(Some(frame)) => {
                metrics.bytes_in.add(frame.wire_len() as u64);
                match frame {
                    Frame::Request(request) => {
                        metrics.frames_in.inc();
                        dispatch_request(shared, conn, request);
                    }
                    Frame::PlanRequest(request) => {
                        metrics.frames_in.inc();
                        dispatch_plan_request(shared, conn, request);
                    }
                    Frame::Response(_) | Frame::PlanResponse(_) => {
                        // Only servers speak responses.
                        metrics.protocol_errors.inc();
                        conn.phase = Phase::Draining;
                        return;
                    }
                }
            }
            Ok(None) => {
                if conn.peer_eof || conn.read_error {
                    if conn.peer_eof && !conn.read_error && conn.decoder.buffered() > 0 {
                        // The peer hung up mid-frame: torn.
                        metrics.protocol_errors.inc();
                    }
                    conn.phase = Phase::Draining;
                }
                return;
            }
            Err(_) => {
                // Oversized or malformed frame kills the connection —
                // after its in-flight requests are answered.
                metrics.protocol_errors.inc();
                conn.phase = Phase::Draining;
                return;
            }
        }
    }
}

/// Moves completed responses from the outbox into the write queue and
/// flushes as much as the socket accepts. A fatal write error closes
/// the outbox (the peer is gone; its responses drop).
fn collect_and_flush(conn: &mut Connection, metrics: &WireMetrics) {
    for bytes in conn.shared.take_responses() {
        conn.wq.push(bytes);
    }
    if conn.dead_write {
        conn.wq.clear();
        return;
    }
    if !conn.wq.is_empty() && conn.wq.flush(&conn.stream, metrics).is_err() {
        conn.dead_write = true;
        conn.wq.clear();
        conn.shared.close_outbox();
    }
}

/// Encodes a response frame, recording the serialize span under the
/// request's trace.
fn encode_response(trace: TraceId, response: Response) -> Vec<u8> {
    let log = obs::global();
    let status = response.status;
    let start_us = if log.is_enabled() { obs::now_us() } else { 0 };
    let bytes = frame::encode(&Frame::Response(response));
    if log.is_enabled() {
        log.record_closed(
            trace,
            Stage::Serialize,
            start_us,
            u64::from(status.as_byte()),
        );
    }
    bytes
}

/// Encodes a v3 plan response frame under the request's trace,
/// recording the same serialize span as assess responses.
fn encode_plan_response(trace: TraceId, response: PlanResponse) -> Vec<u8> {
    let log = obs::global();
    let status = response.status;
    let start_us = if log.is_enabled() { obs::now_us() } else { 0 };
    let bytes = frame::encode(&Frame::PlanResponse(response));
    if log.is_enabled() {
        log.record_closed(
            trace,
            Stage::Serialize,
            start_us,
            u64::from(status.as_byte()),
        );
    }
    bytes
}

/// The verdict line for a completed assessment — exactly the
/// `{verdict} [{confidence}]` text `assess-batch` prints between the
/// line number and the summary, so remote output diffs byte-for-byte.
fn verdict_payload(response: &ServiceResponse) -> (Status, Vec<u8>) {
    match &response.outcome {
        Outcome::Completed(_) => (
            Status::Ok,
            response
                .outcome
                .verdict_line()
                .expect("completed outcomes render a verdict line")
                .into_bytes(),
        ),
        Outcome::TimedOut => (Status::TimedOut, Vec::new()),
        Outcome::Shed => (Status::Shed, Vec::new()),
    }
}

/// One JSONL explain record for the server-side sink.
fn sink_line(trace: TraceId, id: u64, status: Status, payload: &[u8], provenance: &str) -> String {
    let mut line = format!(r#"{{"trace":{trace},"id":{id},"status":"{status}","payload":""#);
    push_escaped(&mut line, &String::from_utf8_lossy(payload));
    line.push_str(r#"","provenance":"#);
    line.push_str(provenance);
    line.push('}');
    line
}

/// Parses and solves one wire plan-request payload against a planner
/// sharing the service-wide verdict cache, returning the response
/// status and payload: `Ok` with the rendered plan or "no lawful path"
/// explanation, `BadRequest` with the per-line parse errors. A plan is
/// a whole best-first search — far heavier than one assessment — so
/// callers run this on a dedicated thread, never the event loop.
fn solve_plan_payload(service: &ComplianceService, payload: &[u8]) -> (Status, Vec<u8>) {
    let problem = match planner::parse_problem(payload) {
        Ok(problem) => problem,
        Err(errors) => {
            let text = errors
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("\n");
            return (Status::BadRequest, text.into_bytes());
        }
    };
    let assessor = BatchAssessor::new().sharing_cache(Arc::clone(service.cache()));
    match planner::Planner::from_assessor(assessor).solve(&problem) {
        Ok(outcome) => (Status::Ok, outcome.render().into_bytes()),
        Err(e) => (Status::BadRequest, e.to_string().into_bytes()),
    }
}

/// A v3 plan request: the search runs on a spawned thread — plan
/// traffic is rare and each request is a whole best-first search, far
/// too heavy for the loop thread — with the planner's assessor sharing
/// the service-wide verdict cache, so fact patterns recur as cache hits
/// across plan and assess traffic alike. `deadline_ms` is ignored (see
/// [`frame`]'s module docs). The in-flight slot is held until the
/// response lands in the outbox, so graceful drain waits for running
/// solves. Plan dispositions are not journaled (the replay contract
/// re-parses recorded requests as single action specs) and skip the
/// explain sink.
fn dispatch_plan_request(
    shared: &Arc<EvShared>,
    conn: &mut Connection,
    request: frame::PlanRequest,
) {
    let received = Instant::now();
    let trace = TraceId::mint();
    let depth = conn.shared.inflight.fetch_add(1, Ordering::AcqRel) + 1;
    shared.metrics.observe_inflight(depth);
    let ev_shared = Arc::clone(shared);
    let conn_shared = Arc::clone(&conn.shared);
    std::thread::spawn(move || {
        let (status, payload) = solve_plan_payload(&ev_shared.service, &request.payload);
        if status == Status::BadRequest {
            ev_shared.metrics.bad_requests.inc();
        }
        ev_shared.metrics.record_latency(received.elapsed());
        let bytes = encode_plan_response(
            trace,
            PlanResponse {
                id: request.id,
                status,
                queue_wait_us: 0,
                total_us: received.elapsed().as_micros().min(u64::MAX as u128) as u64,
                payload,
            },
        );
        // Same ordering contract as assess completions: outbox before
        // the in-flight decrement, decrement before the doorbell.
        conn_shared.push_response(bytes);
        conn_shared.inflight.fetch_sub(1, Ordering::Release);
        ev_shared.schedule(&conn_shared);
    });
}

/// An assess request: parse, submit with a completion observer, and
/// answer parse failures and rejections in-band. Responses reach the
/// write queue directly on the loop thread, or through the outbox and
/// doorbell from service workers.
fn dispatch_request(shared: &Arc<EvShared>, conn: &mut Connection, request: frame::Request) {
    let metrics = &shared.metrics;
    let received = Instant::now();
    // The trace id is minted here, at the frame boundary — everything
    // downstream carries this id, never a new one.
    let trace = TraceId::mint();

    // Every request — even one that fails to parse — occupies an
    // in-flight slot until its response is queued, so a client spamming
    // garbage is backpressured exactly like a busy one.
    let depth = conn.shared.inflight.fetch_add(1, Ordering::AcqRel) + 1;
    metrics.observe_inflight(depth);

    let explain_for = |provenance: String| {
        request.want_explain.then(|| Explain {
            trace: trace.as_u64(),
            provenance: provenance.into_bytes(),
        })
    };
    let parsed = std::str::from_utf8(&request.payload)
        .map_err(|e| format!("payload is not UTF-8: {e}"))
        .and_then(|line| {
            ActionSpec::from_json_line(line)
                .and_then(|spec| spec.to_action())
                .map_err(|e| e.to_string())
        });
    let action = match parsed {
        Ok(action) => action,
        Err(message) => {
            metrics.bad_requests.inc();
            if let Some(sink) = &shared.explain {
                sink.write_line(&sink_line(
                    trace,
                    request.id,
                    Status::BadRequest,
                    message.as_bytes(),
                    "[]",
                ));
            }
            shared.journal_record(
                trace,
                Status::BadRequest,
                request.payload.clone(),
                message.clone().into_bytes(),
            );
            let bytes = encode_response(
                trace,
                Response {
                    id: request.id,
                    status: Status::BadRequest,
                    queue_wait_us: 0,
                    total_us: 0,
                    explain: explain_for("[]".to_string()),
                    payload: message.into_bytes(),
                },
            );
            // We are on the loop thread: straight into the write queue.
            conn.wq.push(bytes);
            conn.shared.inflight.fetch_sub(1, Ordering::Release);
            return;
        }
    };

    let deadline =
        (request.deadline_ms > 0).then(|| Duration::from_millis(u64::from(request.deadline_ms)));
    let observer: ResponseObserver = {
        let ev_shared = Arc::clone(shared);
        let conn_shared = Arc::clone(&conn.shared);
        let journal_request = ev_shared.journal.is_some().then(|| request.payload.clone());
        let id = request.id;
        let want_explain = request.want_explain;
        Box::new(move |response: &ServiceResponse| {
            let (status, payload) = verdict_payload(response);
            ev_shared.metrics.record_latency(received.elapsed());
            // Appended before the response is queued, so an
            // acknowledged verdict is always at least accepted by the
            // journal writer.
            ev_shared.journal_record(
                response.trace,
                status,
                journal_request.unwrap_or_default(),
                payload.clone(),
            );
            let provenance = if want_explain || ev_shared.explain.is_some() {
                response
                    .outcome
                    .assessment()
                    .map_or_else(|| "[]".to_string(), |a| a.provenance().to_json())
            } else {
                String::new()
            };
            if let Some(sink) = &ev_shared.explain {
                sink.write_line(&sink_line(
                    response.trace,
                    id,
                    status,
                    &payload,
                    &provenance,
                ));
            }
            let explain = want_explain.then(|| Explain {
                trace: response.trace.as_u64(),
                provenance: provenance.into_bytes(),
            });
            let bytes = encode_response(
                response.trace,
                Response {
                    id,
                    status,
                    queue_wait_us: response.queue_wait.as_micros().min(u64::MAX as u128) as u64,
                    total_us: response.total.as_micros().min(u64::MAX as u128) as u64,
                    explain,
                    payload,
                },
            );
            // Order matters twice here: the response is in the outbox
            // before in-flight decrements (so "drained" implies "all
            // responses queued"), and the decrement lands before the
            // doorbell (so the wakeup that processes this completion
            // already sees the new depth).
            conn_shared.push_response(bytes);
            conn_shared.inflight.fetch_sub(1, Ordering::Release);
            ev_shared.schedule(&conn_shared);
        })
    };
    if let Err(rejection) = shared
        .service
        .submit_observed_traced(action, deadline, trace, observer)
    {
        metrics.not_admitted.inc();
        let status = match rejection.error {
            SubmitError::Overloaded => Status::Rejected,
            SubmitError::ShuttingDown => Status::GoingAway,
        };
        if let Some(sink) = &shared.explain {
            sink.write_line(&sink_line(
                trace,
                request.id,
                status,
                rejection.error.to_string().as_bytes(),
                "[]",
            ));
        }
        shared.journal_record(
            trace,
            status,
            request.payload,
            rejection.error.to_string().into_bytes(),
        );
        let bytes = encode_response(
            trace,
            Response {
                id: request.id,
                status,
                queue_wait_us: 0,
                total_us: 0,
                explain: explain_for("[]".to_string()),
                payload: rejection.error.to_string().into_bytes(),
            },
        );
        conn.wq.push(bytes);
        conn.shared.inflight.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::WireClient;

    fn service() -> Arc<ComplianceService> {
        Arc::new(ComplianceService::start(ServiceConfig {
            workers: 2,
            capacity: 64,
            ..ServiceConfig::default()
        }))
    }

    const GOOD: &[u8] = br#"{"actor": "leo", "data": "content", "when": "realtime", "where": "isp", "describe": "live interception"}"#;

    #[test]
    fn event_server_round_trips_and_reports_metrics() {
        let service = service();
        let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
            .expect("bind");
        let client = WireClient::connect(server.local_addr()).expect("dial");
        for _ in 0..3 {
            let response = client.roundtrip(GOOD.to_vec(), 0).expect("round trip");
            assert_eq!(response.status, Status::Ok);
            assert!(!response.payload.is_empty());
        }
        drop(client);
        let report = server.shutdown();
        assert_eq!(report.metrics.frames_in, 3);
        assert_eq!(report.metrics.frames_out, 3);
        assert_eq!(report.metrics.connections_opened, 1);
        assert_eq!(report.metrics.connections_closed, 1);
        assert_eq!(report.metrics.protocol_errors, 0);
        assert!(report.metrics.wakeups >= 1, "completions ring the doorbell");
        assert!(report.metrics.writev_batches >= 1);
        Arc::try_unwrap(service).expect("sole owner").shutdown();
    }

    /// Regression: a legal frame bigger than [`READ_BUFFER_CAP`] used
    /// to wedge — the cap disarmed `EPOLLIN` mid-frame and nothing
    /// ever re-armed it, so the frame never completed and the idle
    /// timeout killed the connection unanswered.
    #[test]
    fn frames_larger_than_the_read_buffer_cap_still_complete() {
        let service = service();
        let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
            .expect("bind");
        let client = WireClient::connect(server.local_addr()).expect("dial");
        // Just past the cap: crossing the boundary is what regresses,
        // and the engine's text scan over `describe` is CPU-heavy
        // enough that a bigger filler only slows the suite.
        let filler = "x".repeat(READ_BUFFER_CAP + 4 * 1024);
        let payload = format!(
            r#"{{"actor": "leo", "data": "content", "when": "realtime", "where": "isp", "describe": "{filler}"}}"#
        );
        assert!(payload.len() > READ_BUFFER_CAP);
        assert!(payload.len() < frame::MAX_FRAME as usize);
        let response = client
            .roundtrip(payload.into_bytes(), 0)
            .expect("round trip");
        assert_eq!(response.status, Status::Ok);
        drop(client);
        let report = server.shutdown();
        assert_eq!(report.metrics.frames_in, 1);
        assert_eq!(report.metrics.frames_out, 1);
        assert_eq!(report.metrics.protocol_errors, 0);
        Arc::try_unwrap(service).expect("sole owner").shutdown();
    }

    fn record(status: Status, request: &[u8]) -> Record {
        Record {
            seq: 1,
            trace: TraceId::mint(),
            at_us: 0,
            status: status.as_byte(),
            request: request.to_vec(),
            verdict: Vec::new(),
        }
    }

    #[test]
    fn compaction_retention_covers_every_disposition() {
        // Two spellings of one action (key order, free text) share a key.
        let a = compaction_retention(&record(Status::Ok, GOOD));
        let b = compaction_retention(&record(
            Status::Ok,
            br#"{"where": "isp", "when": "realtime", "data": "content", "actor": "leo", "describe": "tap"}"#,
        ));
        assert!(matches!(&a, Retention::Supersede(_)));
        assert_eq!(a, b);

        // Malformed requests dedupe by their raw bytes.
        let bad = compaction_retention(&record(Status::BadRequest, b"not json"));
        assert_eq!(
            bad,
            compaction_retention(&record(Status::BadRequest, b"not json"))
        );
        assert_ne!(
            bad,
            compaction_retention(&record(Status::BadRequest, b"not json either"))
        );
        assert!(matches!(&bad, Retention::Supersede(_)));
        assert_ne!(bad, a);

        // An ok record whose payload no longer parses is kept.
        assert_eq!(
            compaction_retention(&record(Status::Ok, b"not json")),
            Retention::Keep
        );

        // Load-dependent dispositions are dropped.
        for status in [
            Status::TimedOut,
            Status::Shed,
            Status::Rejected,
            Status::GoingAway,
        ] {
            assert_eq!(
                compaction_retention(&record(status, GOOD)),
                Retention::Drop,
                "{status:?}"
            );
        }
    }

    #[test]
    fn bad_payloads_answered_in_band_and_connection_survives() {
        let service = service();
        let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
            .expect("bind");
        let client = WireClient::connect(server.local_addr()).expect("dial");
        let bad = client.roundtrip(b"not json".to_vec(), 0).expect("answered");
        assert_eq!(bad.status, Status::BadRequest);
        let good = client.roundtrip(GOOD.to_vec(), 0).expect("still serving");
        assert_eq!(good.status, Status::Ok);
        drop(client);
        let report = server.shutdown();
        assert_eq!(report.metrics.bad_requests, 1);
        assert_eq!(report.metrics.protocol_errors, 0);
        Arc::try_unwrap(service).expect("sole owner").shutdown();
    }
}
