//! Property tests for the daemon's frame protocol: round-trips for
//! arbitrary messages, and — the daemon's survival property — no input,
//! however truncated or corrupted, ever panics the decoder or sneaks
//! through as a different payload. Everything malformed must come back
//! as a typed [`ServeError`].

use papar_serve::protocol::{read_frame, JobSpec, Request, Response};
use papar_serve::ServeError;
use proptest::prelude::*;

fn opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(Some)]
}

fn opt_u32() -> impl Strategy<Value = Option<u32>> {
    prop_oneof![Just(None), any::<u32>().prop_map(Some)]
}

fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        "[ -~]{0,24}",
        "[ -~]{0,24}",
        "[ -~]{0,24}",
        "[ -~]{0,24}",
        any::<u32>(),
        prop::collection::vec(("[a-z_]{1,8}", "[ -~]{0,12}"), 0..4),
        opt_u64(),
        opt_u32(),
        any::<bool>(),
    )
        .prop_map(
            |(input_config, workflow, data, out_dir, nodes, args, records, threads, f)| JobSpec {
                input_config,
                workflow,
                data,
                out_dir,
                nodes,
                args,
                records,
                threads,
                no_fuse: f,
            },
        )
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        spec_strategy().prop_map(Request::Submit),
        any::<u64>().prop_map(|id| Request::Status { id }),
        any::<u64>().prop_map(|id| Request::Wait { id }),
        Just(Request::Shutdown),
    ]
}

/// Frame a payload the way the protocol does.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    papar_record::wire::encode_frame(payload, &mut out).unwrap();
    out
}

proptest! {
    /// Any request survives encode → frame → read_frame → decode intact.
    #[test]
    fn request_roundtrip(req in request_strategy()) {
        let payload = req.encode();
        let framed = frame(&payload);
        let mut cursor = std::io::Cursor::new(framed);
        let got = read_frame(&mut cursor).unwrap().expect("one frame in");
        prop_assert_eq!(Request::decode(&got).unwrap(), req);
    }

    /// Truncating a valid frame at ANY byte boundary yields a typed
    /// BadFrame (or a clean EOF at zero) — never a panic, never a
    /// partial parse.
    #[test]
    fn truncation_is_always_typed(req in request_strategy(), frac in 0.0f64..1.0) {
        let framed = frame(&req.encode());
        let cut = ((framed.len() as f64) * frac) as usize;
        prop_assume!(cut < framed.len());
        let mut cursor = std::io::Cursor::new(&framed[..cut]);
        match read_frame(&mut cursor) {
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only before any byte"),
            Err(ServeError::BadFrame { .. }) => {}
            other => prop_assert!(false, "cut at {}: expected BadFrame, got {:?}", cut, other),
        }
    }

    /// Flipping any single bit of a valid frame can never deliver a
    /// different payload as if it were genuine: the read either fails
    /// typed, or (for flips the framing cannot see, e.g. making the
    /// length field point at a shorter checksum-valid prefix — which
    /// FNV-1a makes astronomically unlikely) must still not equal a
    /// *different* payload presented as the original.
    #[test]
    fn corruption_never_forges_a_payload(req in request_strategy(), frac in 0.0f64..1.0, bit in 0u8..8) {
        let payload = req.encode();
        let mut framed = frame(&payload);
        let idx = (((framed.len() - 1) as f64) * frac) as usize;
        framed[idx] ^= 1 << bit;
        let mut cursor = std::io::Cursor::new(&framed);
        match read_frame(&mut cursor) {
            Err(_) => {}
            Ok(Some(got)) => prop_assert_ne!(got, payload, "corrupt frame delivered as genuine"),
            Ok(None) => prop_assert!(false, "corrupt frame read as clean EOF"),
        }
    }

    /// Arbitrary garbage bytes: read_frame and Request::decode never
    /// panic, whatever arrives.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut cursor = std::io::Cursor::new(&bytes);
        let _ = read_frame(&mut cursor);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Payload-level fuzz of the message decoder itself (no framing):
    /// valid tag byte, garbage fields — still typed errors only.
    #[test]
    fn message_decode_is_total(tag in 0u8..8, bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut payload = vec![tag];
        payload.extend_from_slice(&bytes);
        let _ = Request::decode(&payload);
        let _ = Response::decode(&payload);
    }
}
