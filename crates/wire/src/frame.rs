//! The `lexforensica-wire` frame protocol: length-prefixed binary
//! frames, std-only.
//!
//! # Layout
//!
//! Every frame on the wire is a 4-byte big-endian body length followed
//! by the body. The body's first byte is the frame kind:
//!
//! ```text
//! request  (kind 1): [1][id: u64 BE][deadline_ms: u32 BE][payload...]
//! response (kind 2): [2][id: u64 BE][status: u8][queue_wait_us: u64 BE]
//!                       [total_us: u64 BE][payload...]
//! request  (kind 3): [3][id: u64 BE][deadline_ms: u32 BE][flags: u8]
//!                       [payload...]
//! response (kind 4): [4][id: u64 BE][status: u8][queue_wait_us: u64 BE]
//!                       [total_us: u64 BE][trace: u64 BE]
//!                       [explain_len: u32 BE][explain...][payload...]
//! plan req (kind 5): [5][id: u64 BE][deadline_ms: u32 BE][payload...]
//! plan rsp (kind 6): [6][id: u64 BE][status: u8][queue_wait_us: u64 BE]
//!                       [total_us: u64 BE][payload...]
//! ```
//!
//! * `id` is chosen by the client and echoed verbatim in the response —
//!   responses complete **out of order**, and the id is the only match
//!   key. The server never interprets it.
//! * `deadline_ms` is the request's service deadline in milliseconds
//!   relative to arrival; `0` means no deadline.
//! * A request payload is one UTF-8 JSONL action specification (the
//!   [`forensic_law::spec`] vocabulary). A response payload is the
//!   verdict line (`Ok`) or a diagnostic message (every other status).
//!   Either payload may be empty.
//!
//! # Protocol versioning
//!
//! Kinds 3 and 4 are the *versioned explain* extension. A kind-3
//! request is a kind-1 request plus a flags byte; flag bit 0
//! ([`flags::WANT_EXPLAIN`]) asks the server to attach the request's
//! trace id and provenance record to the response, which then arrives
//! as kind 4 (`explain` holds the provenance JSON; `trace` the id that
//! joins the response to its span chain). Compatibility is structural:
//! a flag-less request **encodes as kind 1, byte-identical to the old
//! protocol**, and the server answers kind 1/3-without-the-flag with
//! kind 2 — so old clients and old servers interoperate with new peers
//! unchanged, and a server that predates kind 3 rejects it loudly as an
//! unknown kind rather than mis-parsing it.
//!
//! Kinds 5 and 6 are the *v3 planning* extension. A kind-5 request
//! carries a planner problem document (the `plan` subcommand's JSONL
//! vocabulary) instead of a single action spec; the server answers with
//! a kind-6 response whose payload is the rendered plan (or the
//! "no lawful path" explanation), `Ok` either way — `BadRequest`
//! carries the per-line parse errors. The headers mirror kinds 1 and 2
//! exactly, and the versioning contract carries over structurally:
//! kinds 1–4 encode byte-for-byte as before, v1/v2 peers never receive
//! a kind-5/6 frame unless they send one, and a pre-v3 server rejects
//! kind 5 loudly as an unknown kind. `deadline_ms` is carried for
//! symmetry but the plan search runs to completion — servers ignore it
//! (documented server behavior, not a framing concern).
//! * A body longer than the configured cap is refused **before**
//!   allocation ([`FrameError::TooLarge`]); the length prefix alone is
//!   never trusted to size a buffer past the cap. A zero-length body
//!   (no kind byte) is malformed.
//!
//! [`read_frame`] returns `Ok(None)` on a clean end-of-stream — EOF
//! *between* frames. EOF *inside* a frame (a torn frame: the peer died
//! or lied about the length) is [`FrameError::Torn`], which is how a
//! reader distinguishes a polite goodbye from data loss.

use std::io::{self, Read, Write};

/// Default cap on a frame body, in bytes. One JSONL action spec is tens
/// of bytes; a megabyte of headroom means the cap only ever fires on a
/// corrupt or hostile length prefix.
pub const MAX_FRAME: u32 = 1 << 20;

/// Frame-kind byte for a request.
const KIND_REQUEST: u8 = 1;
/// Frame-kind byte for a response.
const KIND_RESPONSE: u8 = 2;
/// Frame-kind byte for a flagged (v2) request.
const KIND_REQUEST_V2: u8 = 3;
/// Frame-kind byte for an explain-carrying (v2) response.
const KIND_RESPONSE_V2: u8 = 4;
/// Frame-kind byte for a (v3) plan request.
const KIND_PLAN_REQUEST: u8 = 5;
/// Frame-kind byte for a (v3) plan response.
const KIND_PLAN_RESPONSE: u8 = 6;

/// Fixed bytes in a request body before the payload: kind + id +
/// deadline.
const REQUEST_HEADER: usize = 1 + 8 + 4;
/// Fixed bytes in a response body before the payload: kind + id +
/// status + queue wait + total.
const RESPONSE_HEADER: usize = 1 + 8 + 1 + 8 + 8;
/// Fixed bytes in a v2 request body: the v1 header plus the flags byte.
const REQUEST_V2_HEADER: usize = REQUEST_HEADER + 1;
/// Fixed bytes in a v2 response body: the v1 header plus the trace id
/// and the explain-section length.
const RESPONSE_V2_HEADER: usize = RESPONSE_HEADER + 8 + 4;
/// Fixed bytes in a v3 plan request body (same shape as v1 requests).
const PLAN_REQUEST_HEADER: usize = REQUEST_HEADER;
/// Fixed bytes in a v3 plan response body (same shape as v1 responses).
const PLAN_RESPONSE_HEADER: usize = RESPONSE_HEADER;

/// Request flag bits carried by kind-3 frames.
pub mod flags {
    /// Ask the server to attach the trace id and the provenance record
    /// (a kind-4 response) instead of a bare kind-2 response.
    pub const WANT_EXPLAIN: u8 = 1;
}

/// The explain section of a v2 response: the trace id minted for the
/// request at frame decode, and the verdict's provenance record as
/// JSON. Present only when the request set [`flags::WANT_EXPLAIN`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explain {
    /// The server-minted trace id — the join key for the request's span
    /// chain and `--explain` sink line.
    pub trace: u64,
    /// The provenance record (a JSON array of rule firings; empty for
    /// non-`Ok` statuses that never reached the engine).
    pub provenance: Vec<u8>,
}

/// How the service answered a request, as one wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Assessed; the payload is the verdict line.
    Ok,
    /// The deadline passed before a worker got to it.
    TimedOut,
    /// Evicted from the queue by a newer request (drop-oldest).
    Shed,
    /// Refused at admission: the queue was full under `reject`.
    Rejected,
    /// The request payload did not parse as an action specification;
    /// the payload carries the parse error.
    BadRequest,
    /// The server is draining and did not admit the request.
    GoingAway,
}

impl Status {
    /// The wire byte for this status.
    pub fn as_byte(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::TimedOut => 1,
            Status::Shed => 2,
            Status::Rejected => 3,
            Status::BadRequest => 4,
            Status::GoingAway => 5,
        }
    }

    /// Parses a wire byte.
    pub fn from_byte(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::TimedOut,
            2 => Status::Shed,
            3 => Status::Rejected,
            4 => Status::BadRequest,
            5 => Status::GoingAway,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Status::Ok => "ok",
            Status::TimedOut => "timeout",
            Status::Shed => "shed",
            Status::Rejected => "rejected",
            Status::BadRequest => "bad-request",
            Status::GoingAway => "going-away",
        })
    }
}

/// One compliance request on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Service deadline in milliseconds from arrival; `0` = none.
    pub deadline_ms: u32,
    /// Ask the server for a kind-4 response carrying the trace id and
    /// provenance record. `false` encodes as kind 1, byte-identical to
    /// the pre-v2 protocol.
    pub want_explain: bool,
    /// One JSONL action specification (UTF-8).
    pub payload: Vec<u8>,
}

/// One compliance response on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// How the service answered.
    pub status: Status,
    /// Time the request spent queued, in microseconds.
    pub queue_wait_us: u64,
    /// Admission-to-response latency, in microseconds.
    pub total_us: u64,
    /// The explain section, when the request asked for one. `None`
    /// encodes as kind 2, byte-identical to the pre-v2 protocol.
    pub explain: Option<Explain>,
    /// Verdict line (`Ok`) or diagnostic message (otherwise).
    pub payload: Vec<u8>,
}

/// One planning request on the wire (v3, kind 5): the payload is a
/// whole planner problem document — the `plan` subcommand's JSONL
/// vocabulary — not a single action spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Carried for header symmetry with kind 1; the plan search runs to
    /// completion, so servers ignore it.
    pub deadline_ms: u32,
    /// A planner problem document (UTF-8 JSONL).
    pub payload: Vec<u8>,
}

/// One planning response on the wire (v3, kind 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanResponse {
    /// The id of the plan request this answers.
    pub id: u64,
    /// `Ok` for a solved search — including a "no lawful path" outcome,
    /// which is an answer, not an error; `BadRequest` when the problem
    /// document did not parse (the payload carries the per-line
    /// errors).
    pub status: Status,
    /// Zero today: plan requests are solved on a dedicated thread, not
    /// the service queue. Kept for header symmetry with kind 2.
    pub queue_wait_us: u64,
    /// Decode-to-response latency, in microseconds.
    pub total_us: u64,
    /// The rendered plan / explanation (`Ok`) or diagnostics.
    pub payload: Vec<u8>,
}

/// Any frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A client request.
    Request(Request),
    /// A server response.
    Response(Response),
    /// A client planning request (v3).
    PlanRequest(PlanRequest),
    /// A server planning response (v3).
    PlanResponse(PlanResponse),
}

impl Frame {
    /// Total bytes this frame occupies on the wire (prefix + body).
    pub fn wire_len(&self) -> usize {
        4 + match self {
            Frame::Request(r) if r.want_explain => REQUEST_V2_HEADER + r.payload.len(),
            Frame::Request(r) => REQUEST_HEADER + r.payload.len(),
            Frame::Response(r) => match &r.explain {
                Some(explain) => RESPONSE_V2_HEADER + explain.provenance.len() + r.payload.len(),
                None => RESPONSE_HEADER + r.payload.len(),
            },
            Frame::PlanRequest(r) => PLAN_REQUEST_HEADER + r.payload.len(),
            Frame::PlanResponse(r) => PLAN_RESPONSE_HEADER + r.payload.len(),
        }
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// EOF inside a frame: the peer closed (or died) mid-frame.
    Torn,
    /// The length prefix exceeds the configured cap; refused before any
    /// allocation.
    TooLarge {
        /// The claimed body length.
        len: u32,
        /// The cap in force.
        max: u32,
    },
    /// The body bytes do not decode (empty body, unknown kind or status,
    /// body shorter than its fixed header).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Torn => f.write_str("torn frame: stream ended mid-frame"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Whether this is a transient read timeout (the socket's receive
    /// timeout fired), as opposed to a real failure.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
        )
    }
}

/// Encodes a frame (length prefix + body) into a fresh buffer.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame.wire_len());
    out.extend_from_slice(&[0, 0, 0, 0]); // length back-patched below
    match frame {
        Frame::Request(r) => {
            out.push(if r.want_explain {
                KIND_REQUEST_V2
            } else {
                KIND_REQUEST
            });
            out.extend_from_slice(&r.id.to_be_bytes());
            out.extend_from_slice(&r.deadline_ms.to_be_bytes());
            if r.want_explain {
                out.push(flags::WANT_EXPLAIN);
            }
            out.extend_from_slice(&r.payload);
        }
        Frame::Response(r) => {
            out.push(if r.explain.is_some() {
                KIND_RESPONSE_V2
            } else {
                KIND_RESPONSE
            });
            out.extend_from_slice(&r.id.to_be_bytes());
            out.push(r.status.as_byte());
            out.extend_from_slice(&r.queue_wait_us.to_be_bytes());
            out.extend_from_slice(&r.total_us.to_be_bytes());
            if let Some(explain) = &r.explain {
                out.extend_from_slice(&explain.trace.to_be_bytes());
                out.extend_from_slice(&(explain.provenance.len() as u32).to_be_bytes());
                out.extend_from_slice(&explain.provenance);
            }
            out.extend_from_slice(&r.payload);
        }
        Frame::PlanRequest(r) => {
            out.push(KIND_PLAN_REQUEST);
            out.extend_from_slice(&r.id.to_be_bytes());
            out.extend_from_slice(&r.deadline_ms.to_be_bytes());
            out.extend_from_slice(&r.payload);
        }
        Frame::PlanResponse(r) => {
            out.push(KIND_PLAN_RESPONSE);
            out.extend_from_slice(&r.id.to_be_bytes());
            out.push(r.status.as_byte());
            out.extend_from_slice(&r.queue_wait_us.to_be_bytes());
            out.extend_from_slice(&r.total_us.to_be_bytes());
            out.extend_from_slice(&r.payload);
        }
    }
    let body_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&body_len.to_be_bytes());
    out
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates the underlying stream error.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode(frame))
}

/// Decodes a frame body (the bytes after the length prefix).
///
/// # Errors
///
/// [`FrameError::Malformed`] on an empty body, unknown kind or status
/// byte, or a body shorter than its fixed header.
pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let malformed = |msg: &str| FrameError::Malformed(msg.to_string());
    match body.first() {
        None => Err(malformed("empty body")),
        Some(&KIND_REQUEST) => {
            if body.len() < REQUEST_HEADER {
                return Err(malformed("request body shorter than its header"));
            }
            Ok(Frame::Request(Request {
                id: u64::from_be_bytes(body[1..9].try_into().expect("8 bytes")),
                deadline_ms: u32::from_be_bytes(body[9..13].try_into().expect("4 bytes")),
                want_explain: false,
                payload: body[REQUEST_HEADER..].to_vec(),
            }))
        }
        Some(&KIND_REQUEST_V2) => {
            if body.len() < REQUEST_V2_HEADER {
                return Err(malformed("v2 request body shorter than its header"));
            }
            Ok(Frame::Request(Request {
                id: u64::from_be_bytes(body[1..9].try_into().expect("8 bytes")),
                deadline_ms: u32::from_be_bytes(body[9..13].try_into().expect("4 bytes")),
                // Unknown flag bits are reserved and ignored, so a
                // future flag does not break this decoder.
                want_explain: body[13] & flags::WANT_EXPLAIN != 0,
                payload: body[REQUEST_V2_HEADER..].to_vec(),
            }))
        }
        Some(&KIND_RESPONSE) => {
            if body.len() < RESPONSE_HEADER {
                return Err(malformed("response body shorter than its header"));
            }
            let status = Status::from_byte(body[9])
                .ok_or_else(|| FrameError::Malformed(format!("unknown status byte {}", body[9])))?;
            Ok(Frame::Response(Response {
                id: u64::from_be_bytes(body[1..9].try_into().expect("8 bytes")),
                status,
                queue_wait_us: u64::from_be_bytes(body[10..18].try_into().expect("8 bytes")),
                total_us: u64::from_be_bytes(body[18..26].try_into().expect("8 bytes")),
                explain: None,
                payload: body[RESPONSE_HEADER..].to_vec(),
            }))
        }
        Some(&KIND_RESPONSE_V2) => {
            if body.len() < RESPONSE_V2_HEADER {
                return Err(malformed("v2 response body shorter than its header"));
            }
            let status = Status::from_byte(body[9])
                .ok_or_else(|| FrameError::Malformed(format!("unknown status byte {}", body[9])))?;
            let explain_len =
                u32::from_be_bytes(body[34..38].try_into().expect("4 bytes")) as usize;
            let explain_end = RESPONSE_V2_HEADER
                .checked_add(explain_len)
                .filter(|&end| end <= body.len())
                .ok_or_else(|| malformed("v2 response explain section overruns the body"))?;
            Ok(Frame::Response(Response {
                id: u64::from_be_bytes(body[1..9].try_into().expect("8 bytes")),
                status,
                queue_wait_us: u64::from_be_bytes(body[10..18].try_into().expect("8 bytes")),
                total_us: u64::from_be_bytes(body[18..26].try_into().expect("8 bytes")),
                explain: Some(Explain {
                    trace: u64::from_be_bytes(body[26..34].try_into().expect("8 bytes")),
                    provenance: body[RESPONSE_V2_HEADER..explain_end].to_vec(),
                }),
                payload: body[explain_end..].to_vec(),
            }))
        }
        Some(&KIND_PLAN_REQUEST) => {
            if body.len() < PLAN_REQUEST_HEADER {
                return Err(malformed("plan request body shorter than its header"));
            }
            Ok(Frame::PlanRequest(PlanRequest {
                id: u64::from_be_bytes(body[1..9].try_into().expect("8 bytes")),
                deadline_ms: u32::from_be_bytes(body[9..13].try_into().expect("4 bytes")),
                payload: body[PLAN_REQUEST_HEADER..].to_vec(),
            }))
        }
        Some(&KIND_PLAN_RESPONSE) => {
            if body.len() < PLAN_RESPONSE_HEADER {
                return Err(malformed("plan response body shorter than its header"));
            }
            let status = Status::from_byte(body[9])
                .ok_or_else(|| FrameError::Malformed(format!("unknown status byte {}", body[9])))?;
            Ok(Frame::PlanResponse(PlanResponse {
                id: u64::from_be_bytes(body[1..9].try_into().expect("8 bytes")),
                status,
                queue_wait_us: u64::from_be_bytes(body[10..18].try_into().expect("8 bytes")),
                total_us: u64::from_be_bytes(body[18..26].try_into().expect("8 bytes")),
                payload: body[PLAN_RESPONSE_HEADER..].to_vec(),
            }))
        }
        Some(&kind) => Err(FrameError::Malformed(format!("unknown frame kind {kind}"))),
    }
}

/// Fills `buf` from `r`, treating EOF as a torn frame — the caller has
/// already committed to a frame by reading part of it.
fn read_committed(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Torn),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary.
///
/// A blocking reader, for the [`WireClient`](crate::WireClient)
/// reader thread and for tests; the server decodes nonblocking sockets
/// incrementally with [`StreamDecoder`] instead. A read timeout
/// (`WouldBlock`/`TimedOut`) before the first byte of a frame surfaces
/// as [`FrameError::Io`] with nothing consumed, so the caller may
/// safely retry; see [`FrameError::is_timeout`]. A timeout inside a
/// frame also surfaces as [`FrameError::Io`], and the partial frame is
/// lost.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the length prefix exceeds `max_frame`
/// (nothing of the body is read); [`FrameError::Torn`] on EOF inside
/// the frame; [`FrameError::Malformed`] when the body does not decode;
/// [`FrameError::Io`] on stream failure.
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Frame>, FrameError> {
    // The first byte decides between clean EOF and a frame commitment.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let mut rest = [0u8; 3];
    read_committed(r, &mut rest)?;
    let len = u32::from_be_bytes([first[0], rest[0], rest[1], rest[2]]);
    if len > max_frame {
        return Err(FrameError::TooLarge {
            len,
            max: max_frame,
        });
    }
    let mut body = vec![0u8; len as usize];
    read_committed(r, &mut body)?;
    decode_body(&body).map(Some)
}

/// An incremental frame decoder over buffered bytes — the batched
/// decode half of the readiness-driven server.
///
/// The event loop reads whatever the socket has (one `read` per
/// readable event, repeated to `WouldBlock`), [`extend`](Self::extend)s
/// the decoder, then drains **every** complete frame with
/// [`next_frame`](Self::next_frame) before going back to `epoll`. A
/// frame split at any byte — inside the u32 length prefix, across a
/// v1/v2 boundary — simply waits in the buffer until the rest arrives;
/// the decoded frames are byte-identical to a one-shot
/// [`read_frame`] parse of the same stream (pinned by the every-split-
/// point fuzz suite).
///
/// # Buffer growth
///
/// Bytes live in one growable contiguous buffer with a consumed-prefix
/// cursor. The buffer grows to the high-water mark of one readable
/// event's backlog (bounded per frame by `max_frame` + header, and in
/// practice by the in-flight cap pausing decode), and the consumed
/// prefix is compacted away once it outgrows either the live remainder
/// or 64 KiB, so steady-state pipelining does not reallocate.
#[derive(Debug)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    start: usize,
    max_frame: u32,
}

impl StreamDecoder {
    /// A decoder enforcing `max_frame` on every length prefix.
    pub fn new(max_frame: u32) -> StreamDecoder {
        StreamDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Appends raw socket bytes for decoding.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received but not yet decoded into a frame. Nonzero at EOF
    /// means the peer quit mid-frame ([`FrameError::Torn`] territory —
    /// the caller decides, because only it sees EOF).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Total wire size (length prefix + body) of the frame at the head
    /// of the buffer, once its prefix has arrived; `None` while fewer
    /// than four bytes are buffered. The length is reported verbatim,
    /// including one beyond `max_frame` — [`next_frame`](Self::next_frame)
    /// still rejects those; callers use this only to size read limits.
    pub fn pending_frame_len(&self) -> Option<usize> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes(pending[..4].try_into().expect("4 bytes"));
        Some(4 + len as usize)
    }

    /// Decodes the next complete frame, or `Ok(None)` when the buffer
    /// holds only a partial frame (feed more bytes and retry).
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] as soon as a length prefix exceeds the
    /// cap (before the body arrives); [`FrameError::Malformed`] when a
    /// complete body does not decode. Both poison the connection — the
    /// caller must stop decoding this stream.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(pending[..4].try_into().expect("4 bytes"));
        if len > self.max_frame {
            return Err(FrameError::TooLarge {
                len,
                max: self.max_frame,
            });
        }
        let total = 4 + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let frame = decode_body(&pending[4..total])?;
        self.start += total;
        self.compact();
        Ok(Some(frame))
    }

    /// Reclaims the consumed prefix when it dominates the buffer.
    fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        let live = self.buf.len() - self.start;
        if live == 0 {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= live || self.start >= 64 * 1024 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn request(id: u64, payload: &[u8]) -> Frame {
        Frame::Request(Request {
            id,
            deadline_ms: 250,
            want_explain: false,
            payload: payload.to_vec(),
        })
    }

    fn response(id: u64, payload: &[u8]) -> Frame {
        Frame::Response(Response {
            id,
            status: Status::Ok,
            queue_wait_us: 17,
            total_us: 1234,
            explain: None,
            payload: payload.to_vec(),
        })
    }

    fn plan_request(id: u64, payload: &[u8]) -> Frame {
        Frame::PlanRequest(PlanRequest {
            id,
            deadline_ms: 0,
            payload: payload.to_vec(),
        })
    }

    fn plan_response(id: u64, payload: &[u8]) -> Frame {
        Frame::PlanResponse(PlanResponse {
            id,
            status: Status::Ok,
            queue_wait_us: 0,
            total_us: 918,
            payload: payload.to_vec(),
        })
    }

    fn explained_response(id: u64, provenance: &[u8], payload: &[u8]) -> Frame {
        Frame::Response(Response {
            id,
            status: Status::Ok,
            queue_wait_us: 17,
            total_us: 1234,
            explain: Some(Explain {
                trace: id * 31 + 1,
                provenance: provenance.to_vec(),
            }),
            payload: payload.to_vec(),
        })
    }

    #[test]
    fn frames_round_trip() {
        for frame in [
            request(0, b"{}"),
            request(u64::MAX, b"{\"actor\": \"leo\"}"),
            response(7, b"need (wiretap order) [settled]"),
            Frame::Response(Response {
                id: 9,
                status: Status::BadRequest,
                queue_wait_us: 0,
                total_us: 0,
                explain: None,
                payload: b"line did not parse".to_vec(),
            }),
            Frame::Request(Request {
                id: 11,
                deadline_ms: 0,
                want_explain: true,
                payload: b"{\"actor\": \"leo\"}".to_vec(),
            }),
            explained_response(12, br#"[{"rule":"verdict.final"}]"#, b"no need [settled]"),
            explained_response(13, b"", b""),
            plan_request(14, b"{\"goal\": \"x\", \"collect\": {\"actor\": \"leo\"}}"),
            plan_request(15, b""),
            plan_response(14, b"plan: 2 lawful step(s), total cost 11"),
            Frame::PlanResponse(PlanResponse {
                id: 16,
                status: Status::BadRequest,
                queue_wait_us: 0,
                total_us: 0,
                payload: b"line 2: not json".to_vec(),
            }),
        ] {
            let bytes = encode(&frame);
            assert_eq!(bytes.len(), frame.wire_len());
            let mut cursor = Cursor::new(bytes);
            let decoded = read_frame(&mut cursor, MAX_FRAME).unwrap().unwrap();
            assert_eq!(decoded, frame);
            // And the stream is exactly consumed: next read is clean EOF.
            assert!(read_frame(&mut cursor, MAX_FRAME).unwrap().is_none());
        }
    }

    #[test]
    fn zero_length_payload_round_trips() {
        for frame in [
            request(3, b""),
            response(3, b""),
            plan_request(3, b""),
            plan_response(3, b""),
        ] {
            let bytes = encode(&frame);
            let decoded = read_frame(&mut Cursor::new(bytes), MAX_FRAME)
                .unwrap()
                .unwrap();
            assert_eq!(decoded, frame);
            match decoded {
                Frame::Request(r) => assert!(r.payload.is_empty()),
                Frame::Response(r) => assert!(r.payload.is_empty()),
                Frame::PlanRequest(r) => assert!(r.payload.is_empty()),
                Frame::PlanResponse(r) => assert!(r.payload.is_empty()),
            }
        }
    }

    #[test]
    fn status_bytes_round_trip_and_unknown_is_rejected() {
        for status in [
            Status::Ok,
            Status::TimedOut,
            Status::Shed,
            Status::Rejected,
            Status::BadRequest,
            Status::GoingAway,
        ] {
            assert_eq!(Status::from_byte(status.as_byte()), Some(status));
        }
        assert_eq!(Status::from_byte(200), None);
    }

    #[test]
    fn oversized_length_prefix_is_refused_without_reading_the_body() {
        // Claim a 2 MiB body against a 1 MiB cap; supply only the prefix.
        let huge = (MAX_FRAME * 2).to_be_bytes();
        let mut cursor = Cursor::new(huge.to_vec());
        match read_frame(&mut cursor, MAX_FRAME) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, MAX_FRAME * 2);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Nothing beyond the 4 prefix bytes was consumed.
        assert_eq!(cursor.position(), 4);
    }

    #[test]
    fn exact_cap_is_accepted() {
        let frame = request(1, &vec![b' '; MAX_FRAME as usize - REQUEST_HEADER]);
        let bytes = encode(&frame);
        let decoded = read_frame(&mut Cursor::new(bytes), MAX_FRAME)
            .unwrap()
            .unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn torn_frames_are_distinguished_from_clean_eof() {
        let bytes = encode(&request(5, b"{\"actor\": \"leo\"}"));
        // Clean EOF: empty stream.
        assert!(read_frame(&mut Cursor::new(Vec::new()), MAX_FRAME)
            .unwrap()
            .is_none());
        // Torn at every possible cut point inside the frame.
        for cut in 1..bytes.len() {
            let mut cursor = Cursor::new(bytes[..cut].to_vec());
            match read_frame(&mut cursor, MAX_FRAME) {
                Err(FrameError::Torn) => {}
                other => panic!("cut at {cut}: expected Torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        // Empty body.
        assert!(matches!(
            decode_body(b""),
            Err(FrameError::Malformed(msg)) if msg.contains("empty")
        ));
        // Unknown kind.
        assert!(matches!(
            decode_body(&[9, 0, 0]),
            Err(FrameError::Malformed(msg)) if msg.contains("kind 9")
        ));
        // Request body shorter than its fixed header.
        assert!(matches!(
            decode_body(&[KIND_REQUEST, 1, 2, 3]),
            Err(FrameError::Malformed(msg)) if msg.contains("shorter")
        ));
        // Response with an unknown status byte.
        let mut body = vec![KIND_RESPONSE];
        body.extend_from_slice(&7u64.to_be_bytes());
        body.push(99); // status
        body.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_body(&body),
            Err(FrameError::Malformed(msg)) if msg.contains("status byte 99")
        ));
    }

    /// The backward-compatibility contract, at the byte level: frames
    /// that don't use the explain extension encode exactly as the pre-v2
    /// protocol did, so an old peer cannot tell a new one apart.
    #[test]
    fn flagless_frames_are_byte_identical_to_the_v1_layout() {
        let req = encode(&request(0x0102_0304_0506_0708, b"spec"));
        let mut expected = Vec::new();
        expected.extend_from_slice(&(REQUEST_HEADER as u32 + 4).to_be_bytes());
        expected.push(KIND_REQUEST);
        expected.extend_from_slice(&0x0102_0304_0506_0708u64.to_be_bytes());
        expected.extend_from_slice(&250u32.to_be_bytes());
        expected.extend_from_slice(b"spec");
        assert_eq!(req, expected);

        let resp = encode(&response(42, b"ok"));
        assert_eq!(resp[4], KIND_RESPONSE);
        assert_eq!(resp.len(), 4 + RESPONSE_HEADER + 2);
    }

    #[test]
    fn v2_request_ignores_reserved_flag_bits() {
        // Build a kind-3 body by hand with extra flag bits set.
        let mut body = vec![KIND_REQUEST_V2];
        body.extend_from_slice(&5u64.to_be_bytes());
        body.extend_from_slice(&0u32.to_be_bytes());
        body.push(flags::WANT_EXPLAIN | 0x80);
        body.extend_from_slice(b"{}");
        match decode_body(&body).unwrap() {
            Frame::Request(r) => {
                assert!(r.want_explain);
                assert_eq!(r.payload, b"{}");
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn v2_response_with_overrunning_explain_section_is_rejected() {
        let frame = explained_response(1, b"provenance-json", b"payload");
        let bytes = encode(&frame);
        let mut body = bytes[4..].to_vec();
        // Inflate the explain length past the end of the body.
        body[34..38].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_body(&body),
            Err(FrameError::Malformed(msg)) if msg.contains("overruns")
        ));
    }

    #[test]
    fn explain_sections_split_cleanly_from_the_payload() {
        let frame = explained_response(2, br#"[{"rule":"privacy.rep"}]"#, b"verdict line");
        let bytes = encode(&frame);
        assert_eq!(bytes.len(), frame.wire_len());
        match read_frame(&mut Cursor::new(bytes), MAX_FRAME)
            .unwrap()
            .unwrap()
        {
            Frame::Response(r) => {
                let explain = r.explain.expect("explain section survives");
                assert_eq!(explain.provenance, br#"[{"rule":"privacy.rep"}]"#);
                assert_eq!(r.payload, b"verdict line");
            }
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn timeouts_are_recognized_and_nothing_is_consumed_before_a_frame() {
        struct TimesOut;
        impl Read for TimesOut {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"))
            }
        }
        let err = read_frame(&mut TimesOut, MAX_FRAME).unwrap_err();
        assert!(err.is_timeout());
        assert!(!FrameError::Torn.is_timeout());
    }

    /// A reader that hands out the recorded stream in pseudo-random
    /// splits — the protocol must be invariant to how the bytes arrive.
    struct RandomSplit {
        bytes: Vec<u8>,
        pos: usize,
        state: u64,
    }

    impl RandomSplit {
        fn new(bytes: Vec<u8>, seed: u64) -> Self {
            RandomSplit {
                bytes,
                pos: 0,
                state: seed.max(1),
            }
        }

        /// xorshift64* — tiny, deterministic, good enough to vary chunk
        /// sizes.
        fn next(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    impl Read for RandomSplit {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.bytes.len() {
                return Ok(0);
            }
            let left = self.bytes.len() - self.pos;
            let chunk = (self.next() as usize % 7 + 1).min(left).min(buf.len());
            buf[..chunk].copy_from_slice(&self.bytes[self.pos..self.pos + chunk]);
            self.pos += chunk;
            Ok(chunk)
        }
    }

    #[test]
    fn fuzz_random_split_reader_reassembles_a_recorded_stream() {
        // A recorded conversation: varied kinds, ids, payload sizes —
        // including empty payloads and a payload with every byte value.
        let mut frames = Vec::new();
        for i in 0..60u64 {
            let payload: Vec<u8> = (0..(i * 13 % 257)).map(|j| (i + j) as u8).collect();
            frames.push(match i % 6 {
                0 => request(i, &payload),
                1 => Frame::Request(Request {
                    id: i,
                    deadline_ms: i as u32,
                    want_explain: true,
                    payload,
                }),
                2 => Frame::Response(Response {
                    id: i,
                    status: Status::from_byte((i % 6) as u8).unwrap(),
                    queue_wait_us: i * 1000,
                    total_us: i * 2000,
                    explain: None,
                    payload,
                }),
                3 => Frame::PlanRequest(PlanRequest {
                    id: i,
                    deadline_ms: i as u32,
                    payload,
                }),
                4 => Frame::PlanResponse(PlanResponse {
                    id: i,
                    status: Status::from_byte((i % 6) as u8).unwrap(),
                    queue_wait_us: i * 100,
                    total_us: i * 300,
                    payload,
                }),
                _ => Frame::Response(Response {
                    id: i,
                    status: Status::from_byte((i % 6) as u8).unwrap(),
                    queue_wait_us: i * 1000,
                    total_us: i * 2000,
                    explain: Some(Explain {
                        trace: i + 1,
                        provenance: (0..(i * 7 % 64)).map(|j| b'a' + (j % 26) as u8).collect(),
                    }),
                    payload,
                }),
            });
        }
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&encode(frame));
        }
        for seed in 1..=20u64 {
            let mut reader = RandomSplit::new(stream.clone(), seed);
            let mut decoded = Vec::new();
            while let Some(frame) = read_frame(&mut reader, MAX_FRAME).unwrap() {
                decoded.push(frame);
            }
            assert_eq!(decoded, frames, "seed {seed} mangled the stream");
        }
    }
}
