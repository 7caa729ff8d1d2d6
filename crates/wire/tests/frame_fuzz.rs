//! Every-split-point partial-read fuzz for the incremental frame
//! decoder, plus a mixed-version dribble test against the event
//! server.
//!
//! The [`StreamDecoder`] docs promise that a frame split at any byte —
//! inside the u32 length prefix, across a v1/v2 boundary — decodes
//! byte-identically to a one-shot [`frame::read_frame`] parse of the
//! same stream. This suite is that pin: a fixture stream mixing v1
//! and v2 requests and responses is cut at **every** byte offset (and
//! fed byte-at-a-time), and the decoded frame sequence must match the
//! one-shot parse exactly, with frames completing at exactly the wire
//! boundaries and no bytes left behind.

use wire::frame::{
    self, Explain, Frame, PlanRequest, PlanResponse, Request, Response, Status, StreamDecoder,
};

/// A fixture stream interleaving every frame shape on the wire:
/// v1 request, v2 request (explain flag), v3 plan request, v1
/// response, v2 response (trace + provenance section), v3 plan
/// response, with empty and non-empty payloads — so every two-way cut
/// crosses at least one cross-version boundary.
fn fixture_frames() -> Vec<Frame> {
    vec![
        Frame::Request(Request {
            id: 1,
            deadline_ms: 0,
            want_explain: false,
            payload: br#"{"actor": "leo", "data": "headers"}"#.to_vec(),
        }),
        Frame::Request(Request {
            id: 2,
            deadline_ms: 1500,
            want_explain: true,
            payload: br#"{"actor": "leo", "data": "content"}"#.to_vec(),
        }),
        Frame::Request(Request {
            id: 3,
            deadline_ms: u32::MAX,
            want_explain: false,
            payload: Vec::new(),
        }),
        Frame::Response(Response {
            id: 1,
            status: Status::Ok,
            queue_wait_us: 42,
            total_us: 1042,
            explain: None,
            payload: b"allowed [certain]".to_vec(),
        }),
        Frame::Response(Response {
            id: 2,
            status: Status::Ok,
            queue_wait_us: 7,
            total_us: u64::MAX,
            explain: Some(Explain {
                trace: 0xDEAD_BEEF_CAFE_F00D,
                provenance: br#"[{"rule": "wiretap-order"}]"#.to_vec(),
            }),
            payload: b"allowed-with-warrant [firm]".to_vec(),
        }),
        Frame::Response(Response {
            id: 4,
            status: Status::BadRequest,
            queue_wait_us: 0,
            total_us: 3,
            explain: Some(Explain {
                trace: 1,
                provenance: Vec::new(),
            }),
            payload: Vec::new(),
        }),
        Frame::Response(Response {
            id: 5,
            status: Status::GoingAway,
            queue_wait_us: 0,
            total_us: 0,
            explain: None,
            payload: Vec::new(),
        }),
        Frame::PlanRequest(PlanRequest {
            id: 6,
            deadline_ms: 2500,
            payload: br#"{"goal": "mailbox", "collect": {"actor": "leo", "data": "content"}}"#
                .to_vec(),
        }),
        Frame::PlanRequest(PlanRequest {
            id: 7,
            deadline_ms: 0,
            payload: Vec::new(),
        }),
        Frame::PlanResponse(PlanResponse {
            id: 6,
            status: Status::Ok,
            queue_wait_us: 0,
            total_us: 88_000,
            payload: b"plan: 2 lawful step(s), total cost 11".to_vec(),
        }),
        Frame::PlanResponse(PlanResponse {
            id: 7,
            status: Status::BadRequest,
            queue_wait_us: 0,
            total_us: 12,
            payload: Vec::new(),
        }),
    ]
}

/// The fixture frames and their concatenated wire bytes, with each
/// frame's end offset in the stream.
fn fixture_stream() -> (Vec<Frame>, Vec<u8>, Vec<usize>) {
    let frames = fixture_frames();
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for f in &frames {
        let encoded = frame::encode(f);
        assert_eq!(encoded.len(), f.wire_len(), "wire_len lies about {f:?}");
        bytes.extend_from_slice(&encoded);
        ends.push(bytes.len());
    }
    (frames, bytes, ends)
}

/// Parses the whole stream in one pass through the blocking-path
/// reader — the reference the incremental decoder is pinned against.
fn one_shot(mut bytes: &[u8]) -> Vec<Frame> {
    let mut frames = Vec::new();
    while let Some(f) = frame::read_frame(&mut bytes, frame::MAX_FRAME).expect("one-shot parse") {
        frames.push(f);
    }
    frames
}

#[test]
fn one_shot_parse_round_trips_the_fixture_stream() {
    let (frames, bytes, _) = fixture_stream();
    assert_eq!(one_shot(&bytes), frames, "encode/decode round trip broke");
}

/// Cuts the stream at every byte offset — including offsets 1..4 of
/// every length prefix and every v1/v2 frame boundary — and feeds the
/// two halves to a fresh decoder. Each cut must decode the identical
/// frame sequence and consume every byte.
#[test]
fn every_two_way_split_decodes_identically_to_one_shot() {
    let (_, bytes, _) = fixture_stream();
    let expected = one_shot(&bytes);
    for split in 0..=bytes.len() {
        let mut decoder = StreamDecoder::new(frame::MAX_FRAME);
        let mut got = Vec::new();
        for chunk in [&bytes[..split], &bytes[split..]] {
            decoder.extend(chunk);
            loop {
                match decoder.next_frame() {
                    Ok(Some(f)) => got.push(f),
                    Ok(None) => break,
                    Err(e) => panic!("split at byte {split}: {e}"),
                }
            }
        }
        assert_eq!(got, expected, "split at byte {split} decoded differently");
        assert_eq!(
            decoder.buffered(),
            0,
            "split at byte {split} left bytes behind"
        );
    }
}

/// The worst partial-read schedule — one byte per "readable event" —
/// with the completion schedule pinned: a frame pops out exactly when
/// its last wire byte arrives, never earlier, never later.
#[test]
fn byte_at_a_time_feed_completes_frames_exactly_at_wire_boundaries() {
    let (_, bytes, ends) = fixture_stream();
    let expected = one_shot(&bytes);
    let mut decoder = StreamDecoder::new(frame::MAX_FRAME);
    let mut got = Vec::new();
    for (i, byte) in bytes.iter().enumerate() {
        decoder.extend(std::slice::from_ref(byte));
        while let Some(f) = decoder.next_frame().expect("byte-at-a-time decode") {
            got.push(f);
        }
        let fed = i + 1;
        let complete = ends.iter().filter(|&&end| end <= fed).count();
        assert_eq!(
            got.len(),
            complete,
            "after byte {fed}: {} frames decoded, wire boundaries say {complete}",
            got.len()
        );
    }
    assert_eq!(got, expected);
    assert_eq!(decoder.buffered(), 0);
}

/// Every two-way cut of a stream truncated mid-frame: the decoder must
/// decode exactly the complete frames, report the partial tail via
/// `buffered()`, and never error — the Torn verdict belongs to the
/// caller who sees EOF.
#[test]
fn truncated_streams_report_partial_tails_without_erroring() {
    let (_, bytes, ends) = fixture_stream();
    let expected = one_shot(&bytes);
    for cut in 0..bytes.len() {
        let complete = ends.iter().filter(|&&end| end <= cut).count();
        let mut decoder = StreamDecoder::new(frame::MAX_FRAME);
        let mid = cut / 2;
        let mut got = Vec::new();
        for chunk in [&bytes[..mid], &bytes[mid..cut]] {
            decoder.extend(chunk);
            while let Some(f) = decoder.next_frame().expect("truncated decode") {
                got.push(f);
            }
        }
        assert_eq!(got, expected[..complete], "truncation at byte {cut}");
        let consumed: usize = ends.get(complete.wrapping_sub(1)).copied().unwrap_or(0);
        assert_eq!(
            decoder.buffered(),
            cut - consumed,
            "truncation at byte {cut}: partial tail miscounted"
        );
    }
}

/// A length prefix over the decoder's cap must fail as soon as the
/// fourth prefix byte arrives — before any body bytes — at every
/// arrival schedule.
#[test]
fn oversized_prefix_fails_on_the_fourth_byte_at_every_split() {
    let huge = (frame::MAX_FRAME + 1).to_be_bytes();
    for split in 0..=huge.len() {
        let mut decoder = StreamDecoder::new(frame::MAX_FRAME);
        decoder.extend(&huge[..split]);
        if split < 4 {
            assert!(
                matches!(decoder.next_frame(), Ok(None)),
                "split {split}: errored before the prefix was complete"
            );
        }
        decoder.extend(&huge[split..]);
        assert!(
            matches!(
                decoder.next_frame(),
                Err(frame::FrameError::TooLarge { .. })
            ),
            "split {split}: oversized prefix not rejected"
        );
    }
}

/// Mixed-version pipelining against the live event server: one raw
/// connection interleaves hand-built v1 request bytes with v2
/// explain-flagged frames, dribbled to the socket in 7-byte chunks so
/// the server's readiness loop sees every partial-read shape. Every
/// request must be answered in its own protocol version.
#[test]
fn mixed_version_dribbled_pipeline_is_answered_in_kind_by_the_event_server() {
    use service::prelude::*;
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::sync::Arc;
    use wire::prelude::*;

    const LINE: &str = r#"{"actor": "leo", "data": "content", "when": "realtime", "where": "isp", "describe": "live interception"}"#;
    const REQUESTS: u64 = 24;

    let service = Arc::new(ComplianceService::start(ServiceConfig {
        workers: 2,
        capacity: 64,
        policy: AdmissionPolicy::Block,
        ..ServiceConfig::default()
    }));
    let server = EventServer::start("127.0.0.1:0", Arc::clone(&service), WireConfig::default())
        .expect("bind loopback");

    let mut raw = TcpStream::connect(server.local_addr()).expect("dial raw");
    raw.set_nodelay(true).expect("nodelay");

    let mut stream = Vec::new();
    for id in 0..REQUESTS {
        if id % 2 == 0 {
            // Hand-built v1 layout, no flags byte:
            // [len u32][kind=1][id u64][deadline u32][payload].
            let mut body = vec![1u8];
            body.extend_from_slice(&id.to_be_bytes());
            body.extend_from_slice(&0u32.to_be_bytes());
            body.extend_from_slice(LINE.as_bytes());
            let hand_built: Vec<u8> = (body.len() as u32)
                .to_be_bytes()
                .iter()
                .copied()
                .chain(body)
                .collect();
            // The encoder must still emit v1 byte-identically when the
            // explain flag is off.
            assert_eq!(
                hand_built,
                frame::encode(&Frame::Request(Request {
                    id,
                    deadline_ms: 0,
                    want_explain: false,
                    payload: LINE.as_bytes().to_vec(),
                })),
                "encode() stopped emitting byte-identical v1 frames"
            );
            stream.extend_from_slice(&hand_built);
        } else {
            stream.extend_from_slice(&frame::encode(&Frame::Request(Request {
                id,
                deadline_ms: 0,
                want_explain: true,
                payload: LINE.as_bytes().to_vec(),
            })));
        }
    }
    // Dribble: 7 bytes per write lands splits inside prefixes, headers,
    // and across every v1/v2 boundary as the event loop reads.
    for chunk in stream.chunks(7) {
        raw.write_all(chunk).expect("dribble chunk");
        raw.flush().expect("flush chunk");
    }

    let mut seen = 0u64;
    while seen < REQUESTS {
        let response = match frame::read_frame(&mut raw, frame::MAX_FRAME).expect("read response") {
            Some(Frame::Response(response)) => response,
            other => panic!("expected a response frame, got {other:?}"),
        };
        assert_eq!(
            response.status,
            Status::Ok,
            "request {} failed",
            response.id
        );
        if response.id % 2 == 0 {
            assert!(
                response.explain.is_none(),
                "v1 request {} got a v2 explain section",
                response.id
            );
        } else {
            assert!(
                response.explain.is_some(),
                "v2 request {} lost its explain section",
                response.id
            );
        }
        seen += 1;
    }

    drop(raw);
    let metrics = server.shutdown().metrics;
    assert_eq!(metrics.protocol_errors, 0);
    assert_eq!(metrics.frames_in, REQUESTS);
    assert_eq!(metrics.frames_out, REQUESTS);
}
