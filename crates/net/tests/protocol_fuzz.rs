//! Protocol robustness: arbitrary bytes, truncated frames, bit flips,
//! and oversized length prefixes must surface as clean `FrameError`s —
//! never a panic, never a bogus successful decode that round-trips
//! differently.

use fsi_net::protocol::{
    decode_admin_request, decode_admin_response, decode_client_frame, decode_request,
    decode_response, encode_admin_request, encode_admin_response, encode_request,
    encode_request_into, encode_response, encode_response_into, frame_into, read_frame_into,
    AdminOp, AdminRequest, AdminResponse, ClientFrame, FrameError, RequestFrame, ResponseFrame,
    Status, FLAG_DOCS_TRUNCATED, MAX_REQUEST_FRAME, MAX_RESPONSE_DOCS, MAX_RESPONSE_FRAME,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::BufReader;

/// The response encoder as it stood before frames were encoded in place:
/// one `extend_from_slice` per document, body only. The reference the
/// into-buffer encoder must match byte for byte.
fn parent_encode_response(frame: &ResponseFrame) -> Vec<u8> {
    let ndocs = frame.docs.len().min(MAX_RESPONSE_DOCS);
    let truncated = ndocs < frame.docs.len();
    let msg = frame.message.as_bytes();
    let mlen = msg.len().min(u16::MAX as usize);
    let mut out = vec![0xF5, 0x01, 0x02, frame.status as u8, frame.detail];
    out.push(frame.flags | if truncated { FLAG_DOCS_TRUNCATED } else { 0 });
    out.extend_from_slice(&frame.id.to_le_bytes());
    out.extend_from_slice(&frame.latency_us.to_le_bytes());
    out.extend_from_slice(&(ndocs as u32).to_le_bytes());
    for doc in frame.docs.iter().take(ndocs) {
        out.extend_from_slice(&doc.to_le_bytes());
    }
    out.extend_from_slice(&(mlen as u16).to_le_bytes());
    out.extend_from_slice(&msg[..mlen]);
    out
}

/// Asserts the three encodings of one response agree: the parent's body,
/// today's `encode_response`, and the into-buffer encoder behind its
/// 4-byte prefix (appended after whatever the buffer already held).
fn assert_encoders_agree(frame: &ResponseFrame) -> Vec<u8> {
    let body = parent_encode_response(frame);
    assert!(encode_response(frame) == body, "encode_response drifted");
    let mut wire = vec![0xEE; 3];
    encode_response_into(&mut wire, &frame.borrowed());
    assert!(wire[..3] == [0xEE; 3], "earlier bytes untouched");
    assert_eq!(wire[3..7], (body.len() as u32).to_le_bytes(), "prefix");
    assert!(wire[7..] == body, "framed body drifted");
    body
}

#[test]
fn the_into_buffer_encoder_truncates_exactly_as_the_parent_did() {
    // One document over the cap: the truncation flag path. Compared with
    // `==`, not `assert_eq!`, so a mismatch does not print 16 MiB.
    let over = ResponseFrame {
        status: Status::Ok,
        detail: 1,
        flags: 0,
        id: 9,
        latency_us: 3,
        docs: (0..=MAX_RESPONSE_DOCS as u32).collect(),
        message: String::new(),
    };
    let body = assert_encoders_agree(&over);
    let back = decode_response(&body).expect("decodes");
    assert_eq!(back.flags & FLAG_DOCS_TRUNCATED, FLAG_DOCS_TRUNCATED);
    assert_eq!(back.docs.len(), MAX_RESPONSE_DOCS);
    assert!(back.docs[..] == over.docs[..MAX_RESPONSE_DOCS]);
    // A message longer than its u16 length field is cut, not wrapped.
    let wordy = ResponseFrame {
        status: Status::InvalidQuery,
        detail: 0,
        flags: 0,
        id: 10,
        latency_us: 0,
        docs: vec![1, 2, 3],
        message: "x".repeat(u16::MAX as usize + 500),
    };
    let body = assert_encoders_agree(&wordy);
    let back = decode_response(&body).expect("decodes");
    assert_eq!(back.message.len(), u16::MAX as usize);
    assert_eq!(back.docs, wordy.docs);
}

/// Printable-ASCII strings (the query language is ASCII; UTF-8 handling
/// is covered by the unit tests).
fn ascii(bytes: Vec<u8>) -> String {
    bytes.into_iter().map(|b| b as char).collect()
}

fn request(id: u64, has_tenant: bool, tenant: u32, deadline_us: u32, query: &[u8]) -> RequestFrame {
    RequestFrame {
        id,
        tenant: has_tenant.then_some(tenant),
        deadline_us,
        query: ascii(query.to_vec()),
    }
}

fn response(
    status: u8,
    detail: u8,
    id: u64,
    latency_us: u32,
    docs: &[u32],
    msg: &[u8],
) -> ResponseFrame {
    ResponseFrame {
        status: Status::from_byte(status).expect("0..5 are valid"),
        detail,
        flags: 0,
        id,
        latency_us,
        docs: docs.to_vec(),
        message: ascii(msg.to_vec()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(body in vec(any::<u8>(), 0..512)) {
        // Any outcome but a panic is acceptable; a success must re-encode
        // to a decodable frame (self-consistency).
        if let Ok(frame) = decode_request(&body) {
            prop_assert_eq!(decode_request(&encode_request(&frame)).expect("re-decode"), frame);
        }
        if let Ok(frame) = decode_response(&body) {
            prop_assert_eq!(decode_response(&encode_response(&frame)).expect("re-decode"), frame);
        }
    }

    #[test]
    fn requests_round_trip(
        id in any::<u64>(),
        has_tenant in any::<bool>(),
        tenant in any::<u32>(),
        deadline_us in any::<u32>(),
        query in vec(32u8..127, 0..200),
    ) {
        let frame = request(id, has_tenant, tenant, deadline_us, &query);
        prop_assert_eq!(decode_request(&encode_request(&frame)).expect("round trip"), frame);
    }

    #[test]
    fn responses_round_trip(
        status in 0u8..5,
        detail in any::<u8>(),
        id in any::<u64>(),
        latency_us in any::<u32>(),
        docs in vec(any::<u32>(), 0..64),
        msg in vec(32u8..127, 0..100),
    ) {
        let frame = response(status, detail, id, latency_us, &docs, &msg);
        prop_assert_eq!(decode_response(&encode_response(&frame)).expect("round trip"), frame);
    }

    #[test]
    fn the_into_buffer_encoder_matches_the_parent_encoder(
        status in 0u8..5,
        detail in any::<u8>(),
        flags in any::<u8>(),
        id in any::<u64>(),
        latency_us in any::<u32>(),
        docs in vec(any::<u32>(), 0..300),
        msg in vec(32u8..127, 0..100),
    ) {
        let frame = ResponseFrame { flags, ..response(status, detail, id, latency_us, &docs, &msg) };
        let body = assert_encoders_agree(&frame);
        prop_assert_eq!(decode_response(&body).expect("round trip"), frame);
    }

    #[test]
    fn truncated_requests_are_clean_errors(
        id in any::<u64>(),
        tenant in any::<u32>(),
        deadline_us in any::<u32>(),
        query in vec(32u8..127, 0..200),
        keep in 0.0f64..1.0,
    ) {
        let full = encode_request(&request(id, true, tenant, deadline_us, &query));
        let cut = ((full.len() as f64) * keep) as usize;
        if cut < full.len() {
            let r = decode_request(full.get(..cut).expect("in range"));
            prop_assert!(r.is_err(), "a {}-byte prefix of a {}-byte frame decoded", cut, full.len());
        }
    }

    #[test]
    fn truncated_responses_are_clean_errors(
        status in 0u8..5,
        id in any::<u64>(),
        docs in vec(any::<u32>(), 0..64),
        msg in vec(32u8..127, 0..100),
        keep in 0.0f64..1.0,
    ) {
        let full = encode_response(&response(status, 0, id, 7, &docs, &msg));
        let cut = ((full.len() as f64) * keep) as usize;
        if cut < full.len() {
            let r = decode_response(full.get(..cut).expect("in range"));
            prop_assert!(r.is_err(), "a {}-byte prefix of a {}-byte frame decoded", cut, full.len());
        }
    }

    #[test]
    fn single_byte_header_corruption_is_detected(
        id in any::<u64>(),
        query in vec(32u8..127, 0..40),
        pos in 0usize..3,
        bit in 0u8..8,
    ) {
        // Flips in magic/version/kind always fail decode; they can never
        // alias another valid header byte.
        let mut body = encode_request(&request(id, false, 0, 0, &query));
        if let Some(b) = body.get_mut(pos) {
            *b ^= 1 << bit;
        }
        prop_assert!(decode_request(&body).is_err());
    }

    #[test]
    fn framing_survives_arbitrary_wire_garbage(wire in vec(any::<u8>(), 0..256)) {
        // Reading frames from garbage terminates and never panics: each
        // iteration either yields a frame, errors, or hits EOF.
        let mut r = wire.as_slice();
        let mut body = Vec::new();
        for _ in 0..64 {
            match read_frame_into(&mut r, MAX_REQUEST_FRAME, &mut body) {
                Ok(false) | Err(_) => break,
                Ok(true) => {
                    let _ = decode_request(&body);
                }
            }
        }
    }

    #[test]
    fn oversized_prefixes_never_allocate(len in (MAX_REQUEST_FRAME as u32 + 1)..u32::MAX) {
        let mut wire = Vec::new();
        wire.extend_from_slice(&len.to_le_bytes());
        let mut body = Vec::new();
        let err = read_frame_into(&mut wire.as_slice(), MAX_REQUEST_FRAME, &mut body)
            .expect_err("too large");
        prop_assert!(matches!(err, FrameError::TooLarge { .. }), "{}", err);
        prop_assert_eq!(body.capacity(), 0);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_admin_decoders(body in vec(any::<u8>(), 0..512)) {
        // Same self-consistency contract as the query decoders: any
        // outcome but a panic is fine; a success must re-encode to an
        // identical frame.
        if let Ok(frame) = decode_admin_request(&body) {
            prop_assert_eq!(
                decode_admin_request(&encode_admin_request(&frame)).expect("re-decode"),
                frame
            );
        }
        if let Ok(frame) = decode_admin_response(&body) {
            prop_assert_eq!(
                decode_admin_response(&encode_admin_response(&frame)).expect("re-decode"),
                frame
            );
        }
        // The dispatching decoder sits in front of both query and admin
        // paths on the server's read loop — it must share the guarantee.
        let _ = decode_client_frame(&body);
    }

    #[test]
    fn admin_requests_round_trip_and_dispatch(id in any::<u64>(), op in 1u8..4) {
        let req = AdminRequest::new(id, AdminOp::from_byte(op).expect("1..4 are valid"));
        let wire = encode_admin_request(&req);
        prop_assert_eq!(decode_admin_request(&wire).expect("round trip"), req);
        match decode_client_frame(&wire).expect("dispatch") {
            ClientFrame::Admin(got) => prop_assert_eq!(got, req),
            ClientFrame::Query(q) => prop_assert!(false, "admin frame decoded as query {q:?}"),
        }
    }

    #[test]
    fn admin_responses_round_trip(
        id in any::<u64>(),
        op in 1u8..4,
        payload in vec(32u8..127, 0..300),
    ) {
        let resp = AdminResponse {
            id,
            op: AdminOp::from_byte(op).expect("1..4 are valid"),
            payload: ascii(payload.clone()),
        };
        prop_assert_eq!(
            decode_admin_response(&encode_admin_response(&resp)).expect("round trip"),
            resp
        );
    }

    #[test]
    fn truncated_admin_frames_are_clean_errors(
        id in any::<u64>(),
        op in 1u8..4,
        payload in vec(32u8..127, 0..100),
        keep in 0.0f64..1.0,
    ) {
        let op = AdminOp::from_byte(op).expect("1..4 are valid");
        for full in [
            encode_admin_request(&AdminRequest::new(id, op)),
            encode_admin_response(&AdminResponse { id, op, payload: ascii(payload.clone()) }),
        ] {
            let cut = ((full.len() as f64) * keep) as usize;
            if cut < full.len() {
                let prefix = full.get(..cut).expect("in range");
                prop_assert!(decode_admin_request(prefix).is_err());
                prop_assert!(decode_admin_response(prefix).is_err());
                prop_assert!(decode_client_frame(prefix).is_err());
            }
        }
    }

    #[test]
    fn unknown_admin_op_bytes_are_rejected(id in any::<u64>(), op in any::<u8>()) {
        // Ops outside 1..=3 must fail both the direct decoder and the
        // dispatcher, whatever the id bytes say.
        if AdminOp::from_byte(op).is_ok() {
            return Ok(());
        }
        let mut wire = encode_admin_request(&AdminRequest::new(id, AdminOp::Metrics));
        wire[3] = op;
        prop_assert!(decode_admin_request(&wire).is_err());
        prop_assert!(decode_client_frame(&wire).is_err());
    }

    #[test]
    fn oversized_admin_payload_lengths_are_rejected_before_allocation(
        id in any::<u64>(),
        op in 1u8..4,
        extra in 1u32..1024,
    ) {
        // A response header advertising a payload longer than the cap
        // (or than the frame actually carries) is a clean error.
        let op = AdminOp::from_byte(op).expect("1..4 are valid");
        let mut wire = encode_admin_response(&AdminResponse { id, op, payload: String::new() });
        let len_at = wire.len() - 4;
        wire[len_at..].copy_from_slice(&(u32::MAX - extra).to_le_bytes());
        prop_assert!(decode_admin_response(&wire).is_err());
    }

    #[test]
    fn frame_streams_round_trip(
        ids in vec(any::<u64>(), 0..8),
        query in vec(32u8..127, 0..60),
        buffer in 1usize..64,
    ) {
        let frames: Vec<RequestFrame> = ids
            .iter()
            .map(|&id| request(id, id % 2 == 0, (id >> 32) as u32, id as u32, &query))
            .collect();
        // Both ways of framing a request, alternating, into one stream…
        let mut wire = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            if i % 2 == 0 {
                encode_request_into(&mut wire, f);
            } else {
                frame_into(&mut wire, &encode_request(f));
            }
        }
        // …read back through a buffer smaller than a frame, so prefixes
        // and bodies straddle refills: nothing lost between frames, and a
        // short read is not an EOF.
        let mut r = BufReader::with_capacity(buffer, wire.as_slice());
        let mut got = Vec::new();
        let mut body = Vec::new();
        while read_frame_into(&mut r, MAX_RESPONSE_FRAME, &mut body).expect("read") {
            got.push(decode_request(&body).expect("decode"));
        }
        prop_assert_eq!(got, frames);
    }
}
