//! The client-side load core: one driver thread sustaining thousands
//! of pipelined, optionally *paced* in-flight requests.
//!
//! Extracted from the `wire_load` bench driver so every load-shaped
//! tool — synthetic sweeps, journal replay, smoke scripts — shares one
//! battle-tested readiness loop instead of reimplementing it. The
//! engine is a single epoll loop over nonblocking sockets (the
//! client-side mirror of [`crate::event_server`]): C10K client
//! connections cost one thread.
//!
//! # The source abstraction
//!
//! The driver pulls work from a [`LoadSource`] and pushes every
//! response back into it:
//!
//! * [`LoadSource::next`] yields the next [`LoadRequest`] for a
//!   connection — its frame payload, its caller-chosen id, and a
//!   **due time** in microseconds from drive start. `due_us: 0` means
//!   "as fast as the window allows" (max pacing); monotonically
//!   increasing due times reproduce a recorded schedule (replay at
//!   recorded or accelerated pacing). Due times on one connection must
//!   be nondecreasing.
//! * [`LoadSource::complete`] receives each response exactly once with
//!   its status, payload, and measured round trip. Divergence checking,
//!   latency recording, and panic-on-surprise policies all live in the
//!   source, not the loop.
//!
//! Exactly-once accounting is enforced here: a response id that was
//! never sent (or already answered) panics, and [`drive`] returns only
//! when every emitted request has been answered and every connection
//! drained. A server hangup mid-load is an [`io::Error`], not a hang.

use crate::frame::{self, Frame, Request, Status, StreamDecoder};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd as _, RawFd};
use std::time::{Duration, Instant};

/// One request the driver should put on the wire.
#[derive(Debug, Clone)]
pub struct LoadRequest {
    /// Caller-chosen id, unique across the whole drive; echoed back to
    /// [`LoadSource::complete`]. (Journal replay uses the record seq.)
    pub id: u64,
    /// The request frame payload (one JSONL action line).
    pub payload: Vec<u8>,
    /// Earliest send time, µs since drive start. `0` = immediately.
    pub due_us: u64,
}

/// Where requests come from and where responses go. See the
/// [module docs](self).
pub trait LoadSource {
    /// The next request for `conn`, or `None` when this connection has
    /// emitted everything it ever will. Due times per connection must
    /// be nondecreasing.
    fn next(&mut self, conn: usize) -> Option<LoadRequest>;

    /// One response, delivered exactly once per emitted request.
    fn complete(&mut self, conn: usize, id: u64, status: Status, payload: &[u8], rtt: Duration);
}

struct LoadConn {
    stream: TcpStream,
    decoder: StreamDecoder,
    /// Encoded request frames not yet accepted by the kernel.
    out: Vec<u8>,
    out_off: usize,
    /// The next request, pulled from the source but not yet due
    /// (or not yet fitting the window).
    head: Option<LoadRequest>,
    /// The source returned `None`: nothing more will be pulled.
    exhausted: bool,
    /// Submit timestamps by request id; `remove` returning `None`
    /// on a response is a duplicate or invented id — panic.
    inflight: HashMap<u64, Instant>,
    interest: u32,
    /// Present in the pacing heap (suppresses duplicate pushes).
    queued: bool,
    /// Deregistered from epoll; fully drained.
    finished: bool,
}

impl LoadConn {
    fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    fn drained(&self) -> bool {
        self.exhausted
            && self.head.is_none()
            && self.inflight.is_empty()
            && self.out_off >= self.out.len()
    }

    /// Queues encoded frames for every request that is due and fits
    /// the window; leaves the first not-yet-due request in `head`
    /// and returns its due time, if any.
    fn top_up(
        &mut self,
        conn: usize,
        now_us: u64,
        pipeline: usize,
        source: &mut dyn LoadSource,
    ) -> Option<u64> {
        while self.inflight.len() < pipeline {
            if self.head.is_none() {
                if self.exhausted {
                    return None;
                }
                match source.next(conn) {
                    Some(request) => self.head = Some(request),
                    None => {
                        self.exhausted = true;
                        return None;
                    }
                }
            }
            let due = self.head.as_ref().expect("head just filled").due_us;
            if due > now_us {
                return Some(due);
            }
            let request = self.head.take().expect("head just checked");
            self.out
                .extend_from_slice(&frame::encode(&Frame::Request(Request {
                    id: request.id,
                    deadline_ms: 0,
                    want_explain: false,
                    payload: request.payload,
                })));
            let prior = self.inflight.insert(request.id, Instant::now());
            assert!(prior.is_none(), "load source reused request id");
        }
        // Window full: the head (if any) waits for a completion,
        // not for the clock.
        None
    }

    /// Writes queued bytes until drained or `WouldBlock`.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_off < self.out.len() {
            match (&mut &self.stream).write(&self.out[self.out_off..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "server closed mid-load (write zero)",
                    ))
                }
                Ok(n) => self.out_off += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_off = 0;
        Ok(())
    }

    /// Reads until `WouldBlock`, decoding and completing responses.
    fn on_readable(&mut self, conn: usize, source: &mut dyn LoadSource) -> io::Result<()> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match (&mut &self.stream).read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!(
                            "server hung up with {} response(s) outstanding",
                            self.inflight.len()
                        ),
                    ))
                }
                Ok(n) => {
                    self.decoder.extend(&buf[..n]);
                    while let Some(frame) = self
                        .decoder
                        .next_frame()
                        .expect("well-formed response stream")
                    {
                        let response = match frame {
                            Frame::Response(response) => response,
                            other => panic!("server sent a non-response frame: {other:?}"),
                        };
                        let sent_at = self
                            .inflight
                            .remove(&response.id)
                            .expect("response id never sent, or answered twice");
                        source.complete(
                            conn,
                            response.id,
                            response.status,
                            &response.payload,
                            sent_at.elapsed(),
                        );
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }
}

/// Everything the readiness loop threads through every step; the
/// source stays a separate borrow so `service` can hand out `&mut`
/// to both a connection and the source at once.
struct Driver {
    epoll: Epoll,
    conns: Vec<LoadConn>,
    /// Min-heap of (due_us, conn): connections whose next request
    /// is waiting on the clock, not the socket.
    pacing: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    start: Instant,
    pipeline: usize,
    remaining: usize,
}

impl Driver {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }

    /// The service step shared by the clock path and the readiness
    /// path: queue due requests, flush, rearm, retire.
    fn service(&mut self, c: usize, source: &mut dyn LoadSource) -> io::Result<()> {
        let now_us = self.now_us();
        let conn = &mut self.conns[c];
        if conn.finished {
            return Ok(());
        }
        let next_due = conn.top_up(c, now_us, self.pipeline, source);
        conn.flush()?;
        if let Some(due) = next_due {
            if !conn.queued {
                conn.queued = true;
                self.pacing.push(std::cmp::Reverse((due, c)));
            }
        }
        if conn.drained() {
            conn.finished = true;
            self.epoll.delete(conn.fd())?;
            self.remaining -= 1;
            return Ok(());
        }
        let want = EPOLLIN
            | if conn.out_off < conn.out.len() {
                EPOLLOUT
            } else {
                0
            };
        if want != conn.interest {
            self.epoll.modify(conn.fd(), want, c as u64)?;
            conn.interest = want;
        }
        Ok(())
    }
}

/// Drives `connections` pipelined connections against `addr` until the
/// source is exhausted and every response is in. Returns the wall time.
///
/// `pipeline` bounds in-flight requests per connection. Pacing is
/// cooperative: a request is sent no earlier than its `due_us`, and as
/// soon after as the window and the socket allow.
///
/// # Errors
///
/// Connection, read, or write failure — including the server hanging
/// up with requests outstanding.
///
/// # Panics
///
/// On protocol violations that can only be local bugs: a response id
/// never sent or answered twice, or a non-response frame.
pub fn drive(
    addr: SocketAddr,
    connections: usize,
    pipeline: usize,
    source: &mut dyn LoadSource,
) -> io::Result<Duration> {
    let epoll = Epoll::new()?;
    let start = Instant::now();
    let mut conns = Vec::with_capacity(connections);
    for c in 0..connections {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let conn = LoadConn {
            stream,
            decoder: StreamDecoder::new(frame::MAX_FRAME),
            out: Vec::new(),
            out_off: 0,
            head: None,
            exhausted: false,
            inflight: HashMap::with_capacity(pipeline),
            interest: EPOLLIN | EPOLLOUT,
            queued: false,
            finished: false,
        };
        epoll.add(conn.fd(), conn.interest, c as u64)?;
        conns.push(conn);
    }

    let mut driver = Driver {
        epoll,
        conns,
        pacing: BinaryHeap::new(),
        start,
        pipeline,
        remaining: connections,
    };
    let mut events = vec![EpollEvent::default(); 1024];

    // Prime every connection (pulls the first requests; immediate
    // ones go straight onto the wire).
    for c in 0..connections {
        driver.service(c, source)?;
    }

    while driver.remaining > 0 {
        // Clock work first: dispatch every connection whose due
        // time has arrived.
        let now_us = driver.now_us();
        while let Some(&std::cmp::Reverse((due, c))) = driver.pacing.peek() {
            if due > now_us {
                break;
            }
            driver.pacing.pop();
            driver.conns[c].queued = false;
            driver.service(c, source)?;
        }
        if driver.remaining == 0 {
            break;
        }
        // Then socket work, sleeping no longer than the next due
        // time. Sub-millisecond gaps round up to 1ms — epoll's
        // clock resolution bounds pacing fidelity, not throughput
        // (max pacing never touches the heap).
        let timeout = driver.pacing.peek().map(|&std::cmp::Reverse((due, _))| {
            Duration::from_micros(due.saturating_sub(now_us).max(1_000))
        });
        let n = match driver.epoll.wait(&mut events, timeout) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        for ev in &events[..n] {
            // Copies first: the struct is packed on x86-64.
            let c = { ev.data } as usize;
            let mask = { ev.events };
            if driver.conns[c].finished {
                continue;
            }
            if mask & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0 {
                driver.conns[c].on_readable(c, source)?;
            }
            driver.service(c, source)?;
        }
    }
    let wall = start.elapsed();
    for conn in &driver.conns {
        debug_assert!(conn.drained(), "drive returned with work outstanding");
    }
    Ok(wall)
}
