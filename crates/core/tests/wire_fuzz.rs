//! Wire-protocol robustness: arbitrary bytes must decode to an error,
//! never panic or loop; valid messages roundtrip through real frames.

use proptest::prelude::*;
use simfs_core::dv::FailCode;
use simfs_core::wire::{
    read_frame, write_frame, ClientKind, FrameBatch, FrameReader, Membership, Request, Response,
    MAX_FRAME,
};
use std::io::{ErrorKind, Read};

/// A reader delivering at most `chunk` bytes per `read` call: simulates
/// partial/split-frame TCP delivery.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            "[a-z0-9-]{0,24}",
            any::<bool>(),
            any::<u64>(),
            (any::<bool>(), any::<u32>(), any::<u32>(), any::<u64>()),
            (any::<bool>(), any::<u64>()),
        )
            .prop_map(
                |(context, analysis, sim_id, (clustered, index, size, steps_hash), epoch)| {
                    let epoch = epoch.0.then_some(epoch.1);
                    Request::Hello {
                        kind: if analysis {
                            ClientKind::Analysis
                        } else {
                            ClientKind::Simulator { sim_id }
                        },
                        context,
                        membership: clustered.then_some(Membership {
                            index,
                            size,
                            steps_hash,
                        }),
                        epoch,
                    }
                }
            ),
        (
            any::<u64>(),
            prop::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 0..20),
        )
            .prop_map(|(dropped, records)| Request::AccessDigest { dropped, records }),
        (any::<u64>(), prop::collection::vec(any::<u64>(), 0..20))
            .prop_map(|(req_id, keys)| Request::Acquire { req_id, keys }),
        any::<u64>().prop_map(|key| Request::Release { key }),
        (any::<u64>(), any::<u64>()).prop_map(|(req_id, key)| Request::Bitrep { req_id, key }),
        (any::<u64>(), any::<u64>()).prop_map(|(key, size)| Request::FileProduced { key, size }),
        Just(Request::SimStarted),
        Just(Request::SimFinished),
        any::<u64>().prop_map(|req_id| Request::Status { req_id }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..20),
        )
            .prop_map(|(req_id, prior_client, prior_epoch, keys)| Request::Reassert {
                req_id,
                prior_client,
                prior_epoch,
                keys,
            }),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..20),
        )
            .prop_map(|(req_id, dead_member, origin_epoch, keys)| Request::TakeoverAcquire {
                req_id,
                dead_member,
                origin_epoch,
                keys,
            }),
        (
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec(any::<u64>(), 0..20),
        )
            .prop_map(|(req_id, dead_member, keys)| Request::HandBack {
                req_id,
                dead_member,
                keys,
            }),
        Just(Request::Bye),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (any::<u64>(), any::<u64>())
            .prop_map(|(client_id, epoch)| Response::HelloOk { client_id, epoch }),
        (any::<u64>(), any::<u64>()).prop_map(|(req_id, key)| Response::Ready { req_id, key }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::sample::select(vec![
                FailCode::Retriable,
                FailCode::Poisoned,
                FailCode::HangKilled,
                FailCode::CorruptOutput,
                FailCode::Other,
            ]),
            "[ -~]{0,40}",
        )
            .prop_map(|(req_id, key, code, reason)| Response::Failed {
                req_id,
                key,
                code,
                reason,
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(req_id, key, est_wait_ms)| {
            Response::Queued {
                req_id,
                key,
                est_wait_ms,
            }
        }),
        (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()).prop_map(
            |(req_id, key, matches, known)| Response::BitrepResult {
                req_id,
                key,
                matches,
                known,
            }
        ),
        "[ -~]{0,40}".prop_map(|message| Response::Error { message }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..10),
            prop::collection::vec((any::<u64>(), "[ -~]{0,20}"), 0..10),
        )
            .prop_map(|(req_id, epoch, restored, gone)| Response::Reasserted {
                req_id,
                epoch,
                restored,
                gone,
            }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(req_id, hits, misses, restarts, produced_steps, active_sims)| {
                Response::StatusInfo {
                    req_id,
                    hits,
                    misses,
                    restarts,
                    produced_steps,
                    active_sims,
                }
            }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(req_id, released)| Response::HandedBack { req_id, released }),
    ]
}

proptest! {
    /// Every request survives encode/decode.
    #[test]
    fn requests_roundtrip(req in arb_request()) {
        let decoded = Request::decode(&req.encode()).unwrap();
        prop_assert_eq!(req, decoded);
    }

    /// Every response survives encode/decode.
    #[test]
    fn responses_roundtrip(resp in arb_response()) {
        let decoded = Response::decode(&resp.encode()).unwrap();
        prop_assert_eq!(resp, decoded);
    }

    /// Arbitrary byte soup never panics the decoders.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Truncations of valid encodings are detected as errors, not
    /// misparsed as different messages.
    #[test]
    fn truncations_error(req in arb_request(), cut in any::<prop::sample::Index>()) {
        let encoded = req.encode();
        prop_assume!(encoded.len() > 1);
        let cut = 1 + cut.index(encoded.len() - 1);
        if cut < encoded.len() {
            prop_assert!(Request::decode(&encoded[..cut]).is_err());
        }
    }

    /// Frame streams of several messages roundtrip over a byte channel.
    #[test]
    fn frame_streams_roundtrip(reqs in prop::collection::vec(arb_request(), 0..10)) {
        let mut wire_bytes = Vec::new();
        for req in &reqs {
            write_frame(&mut wire_bytes, &req.encode()).unwrap();
        }
        let mut cursor = &wire_bytes[..];
        let mut decoded = Vec::new();
        while let Some(body) = read_frame(&mut cursor).unwrap() {
            decoded.push(Request::decode(&body).unwrap());
        }
        prop_assert_eq!(decoded, reqs);
    }

    /// The coalescing batch encoder is bit-compatible with
    /// frame-at-a-time `write_frame` and decodes to the same response
    /// sequence.
    #[test]
    fn batched_responses_match_frame_at_a_time(
        resps in prop::collection::vec(arb_response(), 0..20),
    ) {
        let mut batch = FrameBatch::new();
        let mut reference = Vec::new();
        for r in &resps {
            batch.push_response(r);
            write_frame(&mut reference, &r.encode()).unwrap();
        }
        prop_assert_eq!(batch.as_bytes(), &reference[..]);

        let mut cursor = batch.as_bytes();
        let mut decoded = Vec::new();
        while let Some(body) = read_frame(&mut cursor).unwrap() {
            decoded.push(Response::decode(&body).unwrap());
        }
        prop_assert_eq!(decoded, resps);
    }

    /// Ditto for requests (simulator-side batching).
    #[test]
    fn batched_requests_match_frame_at_a_time(
        reqs in prop::collection::vec(arb_request(), 0..20),
    ) {
        let mut batch = FrameBatch::new();
        let mut reference = Vec::new();
        for r in &reqs {
            batch.push_request(r);
            write_frame(&mut reference, &r.encode()).unwrap();
        }
        prop_assert_eq!(batch.as_bytes(), &reference[..]);
    }

    /// A buffered reader over a coalesced batch recovers every frame
    /// even when the transport splits delivery at arbitrary points
    /// (including mid-length-prefix and mid-body).
    #[test]
    fn frame_reader_survives_split_delivery(
        resps in prop::collection::vec(arb_response(), 1..20),
        chunk in 1usize..64,
    ) {
        let mut batch = FrameBatch::new();
        for r in &resps {
            batch.push_response(r);
        }
        let mut reader = FrameReader::new(Chunked {
            data: batch.as_bytes().to_vec(),
            pos: 0,
            chunk,
        });
        let mut decoded = Vec::new();
        while let Some(body) = reader.read_frame().unwrap() {
            decoded.push(Response::decode(&body).unwrap());
        }
        prop_assert_eq!(decoded, resps);
    }

    /// A batch truncated mid-frame errors out instead of yielding a
    /// phantom frame.
    #[test]
    fn frame_reader_rejects_truncated_tail(
        resps in prop::collection::vec(arb_response(), 1..8),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut batch = FrameBatch::new();
        for r in &resps {
            batch.push_response(r);
        }
        let bytes = batch.as_bytes();
        prop_assume!(bytes.len() > 1);
        let cut = 1 + cut.index(bytes.len() - 1);
        prop_assume!(cut < bytes.len());
        // A cut exactly on a frame boundary is a clean EOF, not a
        // truncation.
        let mut boundaries = Vec::new();
        let mut at = 0usize;
        let mut cursor = bytes;
        while let Some(body) = read_frame(&mut cursor).unwrap() {
            at += 4 + body.len();
            boundaries.push(at);
        }
        prop_assume!(!boundaries.contains(&cut));
        let mut reader = FrameReader::new(Chunked {
            data: bytes[..cut].to_vec(),
            pos: 0,
            chunk: 7,
        });
        let mut result = Ok(());
        loop {
            match reader.read_frame() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => { result = Err(e); break; }
            }
        }
        prop_assert!(result.is_err(), "truncated batch must error");
    }
}

/// The wire-tag registry, exercised by name: one canonical value per
/// frame kind, each asserted to encode under exactly its registered tag
/// byte and to roundtrip. The examples must name exactly the rows of
/// the generated `Request::TAGS`/`Response::TAGS`, so adding a frame
/// to the table without coverage here fails this module.
mod tag_registry {
    use super::*;
    use simfs_core::wire::tag;

    /// `(constant name, tag byte, example frame)`.
    macro_rules! case {
        ($tag:ident, $frame:expr $(,)?) => {
            (stringify!($tag), tag::$tag, $frame)
        };
    }

    /// The examples' `(name, byte)` pairs are exactly the table's.
    fn assert_covers(mut named: Vec<(&'static str, u8)>, table: &[(&'static str, u8)]) {
        let mut table = table.to_vec();
        named.sort_unstable();
        table.sort_unstable();
        assert_eq!(named, table, "examples and the frame table name different tags");
    }

    #[test]
    fn every_request_tag_is_exercised_by_name() {
        let cases: Vec<(&str, u8, Request)> = vec![
            case!(REQ_HELLO,
                Request::Hello {
                    kind: ClientKind::Analysis,
                    context: "ctx".into(),
                    membership: None,
                    epoch: None,
                },
            ),
            case!(REQ_ACQUIRE, Request::Acquire { req_id: 1, keys: vec![2, 3] }),
            case!(REQ_RELEASE, Request::Release { key: 4 }),
            case!(REQ_BITREP, Request::Bitrep { req_id: 5, key: 6 }),
            case!(REQ_FILE_PRODUCED, Request::FileProduced { key: 7, size: 8 }),
            case!(REQ_SIM_STARTED, Request::SimStarted),
            case!(REQ_SIM_FINISHED, Request::SimFinished),
            case!(REQ_BYE, Request::Bye),
            case!(REQ_STATUS, Request::Status { req_id: 9 }),
            case!(REQ_ACCESS_DIGEST,
                Request::AccessDigest { dropped: 1, records: vec![(2, 3, true)] },
            ),
            case!(REQ_REASSERT,
                Request::Reassert { req_id: 1, prior_client: 2, prior_epoch: 3, keys: vec![4] },
            ),
            case!(REQ_TAKEOVER_ACQUIRE,
                Request::TakeoverAcquire {
                    req_id: 1,
                    dead_member: 2,
                    origin_epoch: 3,
                    keys: vec![4],
                },
            ),
            case!(REQ_HAND_BACK,
                Request::HandBack { req_id: 1, dead_member: 2, keys: vec![3] },
            ),
        ];
        assert_covers(cases.iter().map(|c| (c.0, c.1)).collect(), Request::TAGS);
        let mut seen = std::collections::HashSet::new();
        for (_, tag_byte, req) in cases {
            assert!(seen.insert(tag_byte), "duplicate request tag {tag_byte}");
            let body = req.encode();
            assert_eq!(body[0], tag_byte, "wrong tag byte for {req:?}");
            assert_eq!(Request::decode(&body).unwrap(), req);
        }
    }

    #[test]
    fn every_response_tag_is_exercised_by_name() {
        let cases: Vec<(&str, u8, Response)> = vec![
            case!(RESP_HELLO_OK, Response::HelloOk { client_id: 1, epoch: 2 }),
            case!(RESP_READY, Response::Ready { req_id: 1, key: 2 }),
            case!(RESP_FAILED,
                Response::Failed {
                    req_id: 1,
                    key: 2,
                    code: FailCode::Retriable,
                    reason: "r".into(),
                },
            ),
            case!(RESP_QUEUED, Response::Queued { req_id: 1, key: 2, est_wait_ms: 3 }),
            case!(RESP_BITREP_RESULT,
                Response::BitrepResult { req_id: 1, key: 2, matches: true, known: false },
            ),
            case!(RESP_ERROR, Response::Error { message: "m".into() }),
            case!(RESP_STATUS_INFO,
                Response::StatusInfo {
                    req_id: 1,
                    hits: 2,
                    misses: 3,
                    restarts: 4,
                    produced_steps: 5,
                    active_sims: 6,
                },
            ),
            case!(RESP_REASSERTED,
                Response::Reasserted {
                    req_id: 1,
                    epoch: 2,
                    restored: vec![3],
                    gone: vec![(4, "g".into())],
                },
            ),
            case!(RESP_HANDED_BACK, Response::HandedBack { req_id: 1, released: 2 }),
        ];
        assert_covers(cases.iter().map(|c| (c.0, c.1)).collect(), Response::TAGS);
        let mut seen = std::collections::HashSet::new();
        for (_, tag_byte, resp) in cases {
            assert!(seen.insert(tag_byte), "duplicate response tag {tag_byte}");
            let body = resp.encode();
            assert_eq!(body[0], tag_byte, "wrong tag byte for {resp:?}");
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// The wire layout, pinned byte for byte: one literal frame body per
/// `Request`/`Response` variant (both arms of every `Option` and
/// `ClientKind`, empty and non-empty `Vec`s, a `gone` entry with a
/// string), captured from the hand-written codec before the frame
/// table replaced it. Roundtrip tests cannot see a layout change —
/// encoder and decoder drift together — this can.
#[test]
fn golden_frame_bytes() {
    let requests: Vec<(Request, &str)> = vec![
        (
            Request::Hello {
                kind: ClientKind::Analysis,
                context: "ctx".into(),
                membership: None,
                epoch: None,
            },
            "0000030000006374780000",
        ),
        (
            Request::Hello {
                kind: ClientKind::Simulator { sim_id: 0x0102_0304_0506_0708 },
                context: String::new(),
                membership: Some(Membership {
                    index: 0x0A0B_0C0D,
                    size: 3,
                    steps_hash: 0x1112_1314_1516_1718,
                }),
                epoch: Some(0x2122_2324_2526_2728),
            },
            "0001080706050403020100000000010d0c0b0a030000001817161514131211012827262524232221",
        ),
        (Request::Acquire { req_id: 0x0102_0304_0506_0708, keys: vec![] }, "01080706050403020100000000"),
        (Request::Acquire { req_id: 1, keys: vec![2, 0x0300_0000_0000_0004] }, "0101000000000000000200000002000000000000000400000000000003"),
        (Request::Release { key: 0x0102_0304_0506_0708 }, "020807060504030201"),
        (Request::Bitrep { req_id: 5, key: 6 }, "0305000000000000000600000000000000"),
        (Request::FileProduced { key: 7, size: 0x1000 }, "0407000000000000000010000000000000"),
        (Request::SimStarted, "05"),
        (Request::SimFinished, "06"),
        (Request::Bye, "07"),
        (Request::Status { req_id: 9 }, "080900000000000000"),
        (Request::AccessDigest { dropped: 0, records: vec![] }, "09000000000000000000000000"),
        (
            Request::AccessDigest { dropped: 7, records: vec![(1, 0x0100, true), (2, 0x0200, false)] },
            "0907000000000000000200000001000000000000000001000000000000010200000000000000000200000000000000",
        ),
        (Request::Reassert { req_id: 1, prior_client: 2, prior_epoch: 3, keys: vec![] }, "0a01000000000000000200000000000000030000000000000000000000"),
        (Request::Reassert { req_id: 1, prior_client: 2, prior_epoch: 3, keys: vec![4, 4] }, "0a0100000000000000020000000000000003000000000000000200000004000000000000000400000000000000"),
        (
            Request::TakeoverAcquire { req_id: 1, dead_member: 2, origin_epoch: 3, keys: vec![] },
            "0b010000000000000002000000030000000000000000000000",
        ),
        (
            Request::TakeoverAcquire {
                req_id: 1,
                dead_member: 0x0A0B_0C0D,
                origin_epoch: 3,
                keys: vec![4, 5],
            },
            "0b01000000000000000d0c0b0a03000000000000000200000004000000000000000500000000000000",
        ),
        (Request::HandBack { req_id: 1, dead_member: 2, keys: vec![] }, "0c01000000000000000200000000000000"),
        (Request::HandBack { req_id: 1, dead_member: 2, keys: vec![3, 3] }, "0c0100000000000000020000000200000003000000000000000300000000000000"),
    ];
    for (req, want) in &requests {
        assert_eq!(hex(&req.encode()), *want, "layout of {req:?} changed");
        assert_eq!(&Request::decode(&unhex(want)).unwrap(), req);
    }

    let responses: Vec<(Response, &str)> = vec![
        (Response::HelloOk { client_id: 0x0102_0304_0506_0708, epoch: 2 }, "0008070605040302010200000000000000"),
        (Response::Ready { req_id: 1, key: 0x0102_0304_0506_0708 }, "0101000000000000000807060504030201"),
        (
            Response::Failed { req_id: 1, key: 2, code: FailCode::Other, reason: String::new() },
            "02010000000000000002000000000000000000000000",
        ),
        (
            Response::Failed {
                req_id: 1,
                key: 2,
                code: FailCode::CorruptOutput,
                reason: "bad sum".into(),
            },
            "020100000000000000020000000000000004070000006261642073756d",
        ),
        (Response::Queued { req_id: 1, key: 2, est_wait_ms: 0x04D2 }, "0301000000000000000200000000000000d204000000000000"),
        (Response::BitrepResult { req_id: 1, key: 2, matches: true, known: false }, "04010000000000000002000000000000000100"),
        (Response::BitrepResult { req_id: 1, key: 2, matches: false, known: true }, "04010000000000000002000000000000000001"),
        (Response::Error { message: "unknown context".into() }, "050f000000756e6b6e6f776e20636f6e74657874"),
        (
            Response::StatusInfo {
                req_id: 1,
                hits: 2,
                misses: 3,
                restarts: 4,
                produced_steps: 5,
                active_sims: 6,
            },
            "06010000000000000002000000000000000300000000000000040000000000000005000000000000000600000000000000",
        ),
        (Response::Reasserted { req_id: 1, epoch: 2, restored: vec![], gone: vec![] }, "07010000000000000002000000000000000000000000000000"),
        (
            Response::Reasserted {
                req_id: 1,
                epoch: 2,
                restored: vec![3, 3],
                gone: vec![(4, "evicted".into()), (5, String::new())],
            },
            "070100000000000000020000000000000002000000030000000000000003000000000000000200000004000000000000000700000065766963746564050000000000000000000000",
        ),
        (Response::HandedBack { req_id: 1, released: 2 }, "0801000000000000000200000000000000"),
    ];
    for (resp, want) in &responses {
        assert_eq!(hex(&resp.encode()), *want, "layout of {resp:?} changed");
        assert_eq!(&Response::decode(&unhex(want)).unwrap(), resp);
    }
}

/// Every `Vec`/`String` field of the frame table, by the body offset of
/// its `u32` count/length prefix in an example frame. Overwriting that
/// prefix with `u32::MAX` over the unchanged (short) body must end in
/// `InvalidData` without the decoder reserving memory for the claim:
/// fixed-size elements are checked against the bytes present first,
/// variable-size ones reserve a capped amount and fail per element.
#[test]
fn hostile_count_is_rejected_before_allocation() {
    /// Far below any honest reservation for `u32::MAX` elements, above
    /// the capped one (1024 `(u64, String)` slots).
    const ALLOC_CEILING: usize = 64 * 1024;

    fn assert_rejected(what: &str, decode: impl Fn(&[u8]) -> std::io::Result<()>, body: &[u8]) {
        // The recorded request, not the outcome: an over-committing OS
        // would happily "succeed" a 32 GiB `with_capacity`.
        testalloc::reset();
        let err = decode(body).expect_err(what);
        let largest = testalloc::largest();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
        assert!(largest <= ALLOC_CEILING, "{what}: decode allocated {largest} bytes");
    }

    let hello = Request::Hello {
        kind: ClientKind::Analysis,
        context: "ctx".into(),
        membership: None,
        epoch: None,
    };
    let requests: Vec<(&str, Request, usize)> = vec![
        ("Hello.context", hello, 2),
        ("Acquire.keys", Request::Acquire { req_id: 1, keys: vec![2] }, 9),
        (
            "AccessDigest.records",
            Request::AccessDigest { dropped: 0, records: vec![(1, 2, true)] },
            9,
        ),
        (
            "Reassert.keys",
            Request::Reassert { req_id: 1, prior_client: 2, prior_epoch: 3, keys: vec![4] },
            25,
        ),
        (
            "TakeoverAcquire.keys",
            Request::TakeoverAcquire { req_id: 1, dead_member: 2, origin_epoch: 3, keys: vec![4] },
            21,
        ),
        ("HandBack.keys", Request::HandBack { req_id: 1, dead_member: 2, keys: vec![3] }, 13),
    ];
    for (what, req, at) in requests {
        let mut body = req.encode().to_vec();
        body[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_rejected(what, |b| Request::decode(b).map(drop), &body);
    }

    let failed = Response::Failed { req_id: 1, key: 2, code: FailCode::Other, reason: "r".into() };
    let reasserted = Response::Reasserted {
        req_id: 1,
        epoch: 2,
        restored: vec![3],
        gone: vec![(4, "g".into())],
    };
    let responses: Vec<(&str, Response, usize)> = vec![
        ("Failed.reason", failed, 18),
        ("Error.message", Response::Error { message: "m".into() }, 1),
        ("Reasserted.restored", reasserted.clone(), 17),
        ("Reasserted.gone", reasserted.clone(), 29),
        ("Reasserted.gone[].reason", reasserted, 41),
    ];
    for (what, resp, at) in responses {
        let mut body = resp.encode().to_vec();
        body[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_rejected(what, |b| Response::decode(b).map(drop), &body);
    }

    // The other side of the bound: the largest honest multi-key
    // `Acquire` — 131 070 keys, the most a `MAX_FRAME` body holds after
    // the 13-byte header — still crosses the framing layer and decodes.
    let big = Request::Acquire { req_id: 7, keys: (0..131_070).collect() };
    let body = big.encode();
    assert!(body.len() <= MAX_FRAME as usize && body.len() + 8 > MAX_FRAME as usize);
    let mut framed = Vec::new();
    write_frame(&mut framed, &body).unwrap();
    let read = read_frame(&mut &framed[..]).unwrap().expect("one frame");
    assert_eq!(Request::decode(&read).unwrap(), big);
}
