//! A std-only pipelining client for the wire protocol.
//!
//! [`WireClient`] owns one TCP connection. Calls are **pipelined**:
//! [`submit`](WireClient::submit) writes the request frame and returns a
//! [`PendingCall`] immediately, so many requests can be on the wire at
//! once; a background reader thread matches response frames back to
//! their pending calls by request id, in whatever order the server
//! answers. [`PendingCall::wait`] blocks for one specific answer.
//!
//! The client is thread-safe: any thread may submit, and the id space
//! is allocated atomically per connection.

use crate::frame::{
    self, Frame, FrameError, PlanRequest, PlanResponse, Request, Response, MAX_FRAME,
};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A client-side failure (distinct from an in-band error [`Status`] —
/// those arrive as normal [`Response`]s).
///
/// [`Status`]: crate::frame::Status
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A socket-level error, flattened to kind + message so every
    /// waiter on the connection can receive a copy.
    Io(io::ErrorKind, String),
    /// The server closed the connection before answering this call.
    ConnectionClosed,
    /// The server violated the framing protocol.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind, msg) => write!(f, "i/o error ({kind:?}): {msg}"),
            WireError::ConnectionClosed => write!(f, "connection closed before the response"),
            WireError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e.kind(), e.to_string())
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => WireError::Io(e.kind(), e.to_string()),
            FrameError::Torn => WireError::Protocol("torn frame".into()),
            other => WireError::Protocol(other.to_string()),
        }
    }
}

/// One slot in the pending-call table. Ready slots hold the whole
/// response frame so assess ([`Response`]) and plan ([`PlanResponse`])
/// calls share one table; each pending handle unwraps its own kind.
#[derive(Debug)]
enum SlotState {
    Waiting,
    Ready(Frame),
}

#[derive(Debug, Default)]
struct Pending {
    slots: HashMap<u64, SlotState>,
    /// Set once when the connection dies; every current and future
    /// waiter gets a clone.
    failed: Option<WireError>,
}

#[derive(Debug, Default)]
struct ClientShared {
    pending: Mutex<Pending>,
    ready: Condvar,
}

impl ClientShared {
    fn fail(&self, error: WireError) {
        let mut pending = self.pending.lock().expect("pending lock");
        if pending.failed.is_none() {
            pending.failed = Some(error);
        }
        self.ready.notify_all();
    }
}

/// One pipelined request awaiting its response. Obtain from
/// [`WireClient::submit`]; redeem with [`wait`](Self::wait). Dropping
/// without waiting abandons the call (the response, if it arrives, is
/// discarded).
#[derive(Debug)]
pub struct PendingCall {
    shared: Arc<ClientShared>,
    id: u64,
    done: bool,
}

impl PendingCall {
    /// The request id this call was sent under.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the server answers this call (responses may arrive
    /// in any order; this waits for this id specifically).
    ///
    /// # Errors
    ///
    /// Fails if the connection died before the response arrived.
    pub fn wait(mut self) -> Result<Response, WireError> {
        self.done = true;
        match wait_ready(&self.shared, self.id)? {
            Frame::Response(response) => Ok(response),
            other => Err(WireError::Protocol(format!(
                "expected a response frame for id {}, got {other:?}",
                self.id
            ))),
        }
    }
}

impl Drop for PendingCall {
    fn drop(&mut self) {
        if !self.done {
            let mut pending = self.shared.pending.lock().expect("pending lock");
            pending.slots.remove(&self.id);
        }
    }
}

/// One pipelined v3 plan request awaiting its [`PlanResponse`]. Obtain
/// from [`WireClient::submit_plan`]; redeem with [`wait`](Self::wait).
/// Dropping without waiting abandons the call.
#[derive(Debug)]
pub struct PendingPlan {
    shared: Arc<ClientShared>,
    id: u64,
    done: bool,
}

impl PendingPlan {
    /// The request id this plan call was sent under.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the server answers this plan call.
    ///
    /// # Errors
    ///
    /// Fails if the connection died before the response arrived.
    pub fn wait(mut self) -> Result<PlanResponse, WireError> {
        self.done = true;
        match wait_ready(&self.shared, self.id)? {
            Frame::PlanResponse(response) => Ok(response),
            other => Err(WireError::Protocol(format!(
                "expected a plan-response frame for id {}, got {other:?}",
                self.id
            ))),
        }
    }
}

impl Drop for PendingPlan {
    fn drop(&mut self) {
        if !self.done {
            let mut pending = self.shared.pending.lock().expect("pending lock");
            pending.slots.remove(&self.id);
        }
    }
}

/// Blocks until slot `id` turns ready (or the connection fails) and
/// returns the delivered frame.
fn wait_ready(shared: &ClientShared, id: u64) -> Result<Frame, WireError> {
    let mut pending = shared.pending.lock().expect("pending lock");
    loop {
        if matches!(pending.slots.get(&id), Some(SlotState::Ready(_))) {
            match pending.slots.remove(&id) {
                Some(SlotState::Ready(frame)) => return Ok(frame),
                _ => unreachable!("checked ready above"),
            }
        }
        if let Some(error) = pending.failed.clone() {
            pending.slots.remove(&id);
            return Err(error);
        }
        pending = shared.ready.wait(pending).expect("pending lock");
    }
}

/// A pipelining connection to an [`EventServer`](crate::EventServer).
/// See the [module docs](self).
#[derive(Debug)]
pub struct WireClient {
    shared: Arc<ClientShared>,
    writer: Mutex<BufWriter<TcpStream>>,
    stream: TcpStream,
    next_id: AtomicU64,
    reader: Option<JoinHandle<()>>,
}

impl WireClient {
    /// Dials `addr` and starts the response reader.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let read_stream = stream.try_clone()?;
        let write_stream = stream.try_clone()?;
        let shared = Arc::new(ClientShared::default());
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || reader_loop(&shared, read_stream))
        };
        Ok(WireClient {
            shared,
            writer: Mutex::new(BufWriter::new(write_stream)),
            stream,
            next_id: AtomicU64::new(1),
            reader: Some(reader),
        })
    }

    /// Sends one request frame (flushed immediately) and returns the
    /// pending call. `deadline_ms` of 0 means no deadline; otherwise it
    /// is the service-side deadline for the request.
    ///
    /// # Errors
    ///
    /// Fails if the connection already died or the write fails.
    pub fn submit(&self, payload: Vec<u8>, deadline_ms: u32) -> Result<PendingCall, WireError> {
        self.submit_inner(payload, deadline_ms, false)
    }

    /// Like [`submit`](Self::submit), but sets the `WANT_EXPLAIN` flag
    /// on a v2 request frame, so the response carries an
    /// [`Explain`](crate::frame::Explain) section (trace id plus the
    /// engine's provenance JSON). Requires a server that understands v2
    /// frames; old servers will reject the unknown frame kind.
    ///
    /// # Errors
    ///
    /// Fails if the connection already died or the write fails.
    pub fn submit_explained(
        &self,
        payload: Vec<u8>,
        deadline_ms: u32,
    ) -> Result<PendingCall, WireError> {
        self.submit_inner(payload, deadline_ms, true)
    }

    fn submit_inner(
        &self,
        payload: Vec<u8>,
        deadline_ms: u32,
        want_explain: bool,
    ) -> Result<PendingCall, WireError> {
        let id = self.open_slot()?;
        let frame = Frame::Request(Request {
            id,
            deadline_ms,
            want_explain,
            payload,
        });
        self.write_slotted(id, &frame)?;
        Ok(PendingCall {
            shared: Arc::clone(&self.shared),
            id,
            done: false,
        })
    }

    /// Sends one v3 plan request frame (a JSONL planning problem —
    /// see the `planner` crate) and returns the pending plan call.
    /// `deadline_ms` is carried for frame symmetry; the server runs the
    /// search to completion regardless. Requires a v3-aware server;
    /// older servers will reject the unknown frame kind.
    ///
    /// # Errors
    ///
    /// Fails if the connection already died or the write fails.
    pub fn submit_plan(
        &self,
        payload: Vec<u8>,
        deadline_ms: u32,
    ) -> Result<PendingPlan, WireError> {
        let id = self.open_slot()?;
        let frame = Frame::PlanRequest(PlanRequest {
            id,
            deadline_ms,
            payload,
        });
        self.write_slotted(id, &frame)?;
        Ok(PendingPlan {
            shared: Arc::clone(&self.shared),
            id,
            done: false,
        })
    }

    /// Reserves a fresh id in the pending table (fails fast if the
    /// connection already died).
    fn open_slot(&self) -> Result<u64, WireError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut pending = self.shared.pending.lock().expect("pending lock");
        if let Some(error) = pending.failed.clone() {
            return Err(error);
        }
        pending.slots.insert(id, SlotState::Waiting);
        Ok(id)
    }

    /// Writes and flushes one frame; on failure the reserved slot is
    /// released so the id never leaks.
    fn write_slotted(&self, id: u64, frame: &Frame) -> Result<(), WireError> {
        let written = {
            let mut w = self.writer.lock().expect("writer lock");
            frame::write_frame(&mut *w, frame).and_then(|()| w.flush())
        };
        if let Err(e) = written {
            let mut pending = self.shared.pending.lock().expect("pending lock");
            pending.slots.remove(&id);
            return Err(e.into());
        }
        Ok(())
    }

    /// Convenience: submit and block for the answer — a depth-1
    /// (unpipelined) round trip.
    ///
    /// # Errors
    ///
    /// Fails if the connection died before the response arrived.
    pub fn roundtrip(&self, payload: Vec<u8>, deadline_ms: u32) -> Result<Response, WireError> {
        self.submit(payload, deadline_ms)?.wait()
    }

    /// Convenience: submit a plan request and block for the answer.
    ///
    /// # Errors
    ///
    /// Fails if the connection died before the response arrived.
    pub fn plan_roundtrip(&self, payload: Vec<u8>) -> Result<PlanResponse, WireError> {
        self.submit_plan(payload, 0)?.wait()
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        // Unblocks the reader thread's pending read.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn reader_loop(shared: &ClientShared, stream: TcpStream) {
    let mut r = BufReader::new(stream);
    loop {
        match frame::read_frame(&mut r, MAX_FRAME) {
            Ok(None) => {
                shared.fail(WireError::ConnectionClosed);
                return;
            }
            Ok(Some(frame @ (Frame::Response(_) | Frame::PlanResponse(_)))) => {
                let id = match &frame {
                    Frame::Response(r) => r.id,
                    Frame::PlanResponse(r) => r.id,
                    _ => unreachable!("matched response kinds above"),
                };
                let mut pending = shared.pending.lock().expect("pending lock");
                // An unknown id means the call was dropped unwaited;
                // discard the orphan response.
                if let Some(slot) = pending.slots.get_mut(&id) {
                    *slot = SlotState::Ready(frame);
                }
                shared.ready.notify_all();
            }
            Ok(Some(Frame::Request(_) | Frame::PlanRequest(_))) => {
                shared.fail(WireError::Protocol("server sent a request frame".into()));
                return;
            }
            Err(e) => {
                shared.fail(e.into());
                return;
            }
        }
    }
}
