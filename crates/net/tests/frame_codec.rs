//! Fuzz + pinned-case suite for the wire codec.
//!
//! The contract under test (see `frame.rs` module docs):
//!
//! 1. **Round trips are bit-stable** for every payload kind — including
//!    arbitrary `f64` bit patterns (NaNs, infinities, -0.0), which must
//!    cross the wire with the exact bits the model produced.
//! 2. **Decoding never panics**: every truncation, byte flip, bogus
//!    count, bad tag or random garbage is a typed [`NetError`] (or a
//!    successful decode of coincidentally valid bytes) — never an
//!    abort, never an unbounded allocation.

use noble_net::frame::{read_frame, write_frame};
use noble_net::{
    Body, FixResponse, Frame, Header, LocalizeRequest, NetError, RejectReason, Rejection,
    ServerErrorResponse, StatsResponse, TrackedResponse, TrackedSubmitRequest, WireShard,
    WireZoneEvent, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Seed-driven frame sampler
// ---------------------------------------------------------------------
//
// The vendored proptest keeps strategies primitive (ranges, tuples,
// vecs), so structured frames are grown from a (kind, seed) pair
// through a SplitMix64 stream: every u64 the generator draws is fair
// game for ids, counts, and — crucially — raw f64 *bit patterns*, so
// NaN payloads show up constantly instead of never.

struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Arbitrary bit pattern reinterpreted as f64: ~0.05% NaN per draw,
    /// plus negative zero, subnormals and infinities over enough cases.
    fn f64_bits(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    fn string(&mut self, max_len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz-_0123456789\xc3\xa9";
        let len = (self.u64() as usize) % (max_len + 1);
        let mut s = String::new();
        for _ in 0..len {
            // Indexing an even offset keeps the 2-byte é intact.
            let i = (self.u64() as usize) % (ALPHABET.len() - 1);
            if ALPHABET[i] < 0x80 {
                s.push(ALPHABET[i] as char);
            } else {
                s.push('é');
            }
        }
        s
    }

    fn shard(&mut self) -> WireShard {
        WireShard {
            building: self.u64() as u32,
            floor: if self.bool() {
                Some(self.u64() as u32)
            } else {
                None
            },
        }
    }

    fn fingerprint(&mut self, max_len: usize) -> Vec<f64> {
        let len = (self.u64() as usize) % (max_len + 1);
        (0..len).map(|_| self.f64_bits()).collect()
    }
}

fn sample_body(kind: usize, g: &mut Gen) -> Body {
    match kind {
        0 => Body::Localize(LocalizeRequest {
            tenant: g.string(12),
            shard: g.shard(),
            fingerprint: g.fingerprint(16),
        }),
        1 => Body::TrackedSubmit(TrackedSubmitRequest {
            tenant: g.string(12),
            device: g.u64(),
            shard: g.shard(),
            at: g.u64(),
            fingerprint: g.fingerprint(16),
        }),
        2 => Body::StatsRequest,
        3 => Body::Fix(FixResponse {
            x: g.f64_bits(),
            y: g.f64_bits(),
            cold: g.bool(),
        }),
        4 => {
            let events = (0..(g.u64() as usize) % 5)
                .map(|_| WireZoneEvent {
                    device: g.u64(),
                    zone: g.u64() as u32,
                    entered: g.bool(),
                    at: g.u64(),
                })
                .collect();
            Body::Tracked(TrackedResponse {
                raw: FixResponse {
                    x: g.f64_bits(),
                    y: g.f64_bits(),
                    cold: g.bool(),
                },
                smoothed_x: g.f64_bits(),
                smoothed_y: g.f64_bits(),
                zone: if g.bool() { Some(g.u64() as u32) } else { None },
                events,
            })
        }
        5 => Body::Stats(StatsResponse {
            queue_depth: g.u64(),
            in_flight: g.u64(),
            shards: g.u64(),
            accepted: g.u64(),
            completed: g.u64(),
            shed_overload: g.u64(),
            shed_quota: g.u64(),
            bad_frames: g.u64(),
        }),
        6 => Body::Rejected(Rejection {
            reason: match g.u64() % 3 {
                0 => RejectReason::Overloaded,
                1 => RejectReason::TenantQuota,
                _ => RejectReason::BadFrame,
            },
            detail: g.string(24),
        }),
        _ => Body::ServerError(ServerErrorResponse {
            detail: g.string(24),
        }),
    }
}

fn sample_frame(kind: usize, seed: u64, id: u64) -> Frame {
    Frame {
        id,
        body: sample_body(kind, &mut Gen(seed)),
    }
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// encode → decode → re-encode reproduces the original bytes
    /// exactly, for every payload kind. Byte equality (rather than
    /// frame equality) is what makes this a *bit*-stability pin: NaN
    /// fingerprints compare unequal as f64 but identical as bytes.
    #[test]
    fn round_trip_is_bit_stable(kind in 0usize..8, seed in 0u64..u64::MAX, id in 0u64..u64::MAX) {
        let frame = sample_frame(kind, seed, id);
        let bytes = frame.encode().expect("sampled frames are encodable");
        let (decoded, consumed) = Frame::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded.id, id);
        let again = decoded.encode().expect("decoded frames re-encode");
        prop_assert_eq!(again, bytes);
    }

    /// The stream codec agrees with the buffer codec: what write_frame
    /// puts on a pipe, read_frame takes off it, bit-identically.
    #[test]
    fn stream_round_trip_matches(kind in 0usize..8, seed in 0u64..u64::MAX, id in 0u64..u64::MAX) {
        let frame = sample_frame(kind, seed, id);
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, &frame).expect("write");
        let got = read_frame(&mut pipe.as_slice()).expect("read");
        prop_assert_eq!(got.encode().unwrap(), frame.encode().unwrap());
    }

    /// Every strict prefix of a valid encoding is a typed error — the
    /// decoder can never be tricked into reading past its input.
    #[test]
    fn every_truncation_is_a_typed_error(kind in 0usize..8, seed in 0u64..u64::MAX) {
        let bytes = sample_frame(kind, seed, 7).encode().unwrap();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(e) => {
                    prop_assert!(e.is_bad_frame(), "cut {cut}: {e}");
                }
                Ok(_) => {
                    prop_assert!(false, "truncated prefix of len {cut} decoded");
                }
            }
        }
    }

    /// Flipping any byte of a valid encoding either still decodes (a
    /// changed value) or fails with a typed error — never a panic, and
    /// never consuming more bytes than were given.
    #[test]
    fn byte_flips_never_panic(
        kind in 0usize..8,
        seed in 0u64..u64::MAX,
        pos_seed in 0u64..u64::MAX,
        flip in 1u8..=255u8,
    ) {
        let mut bytes = sample_frame(kind, seed, 7).encode().unwrap();
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= flip;
        match Frame::decode(&bytes) {
            Ok((frame, consumed)) => {
                prop_assert!(consumed <= bytes.len());
                // Whatever decoded must itself be encodable (closed set).
                prop_assert!(frame.encode().is_ok());
            }
            Err(e) => {
                prop_assert!(e.is_bad_frame(), "flip at {pos}: {e}");
            }
        }
    }

    /// Random garbage never panics; if it happens to decode, the
    /// consumed length stays within bounds.
    #[test]
    fn garbage_never_panics(data in prop::collection::vec(0u64..u64::MAX, 0..9), extra in 0usize..8) {
        let mut bytes: Vec<u8> = data.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.truncate(bytes.len().saturating_sub(extra));
        match Frame::decode(&bytes) {
            Ok((_, consumed)) => {
                prop_assert!(consumed <= bytes.len());
            }
            Err(e) => {
                prop_assert!(e.is_bad_frame());
            }
        }
    }

    /// Garbage behind a *valid header* (the adversarial case: framing
    /// looks right, payload is noise) is still typed-or-valid.
    #[test]
    fn garbage_payload_behind_valid_header_never_panics(
        kind_byte in 0u8..=255u8,
        data in prop::collection::vec(0u64..u64::MAX, 0..9),
    ) {
        let payload: Vec<u8> = data.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(kind_byte);
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match Frame::decode(&bytes) {
            Ok((_, consumed)) => {
                prop_assert_eq!(consumed, bytes.len());
            }
            Err(e) => {
                prop_assert!(e.is_bad_frame());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pinned cases
// ---------------------------------------------------------------------

#[test]
fn non_finite_f64s_cross_the_wire_bit_exactly() {
    let specials = vec![
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_0001), // payload-carrying NaN
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::MIN_POSITIVE / 2.0, // subnormal
    ];
    let frame = Frame {
        id: 42,
        body: Body::Localize(LocalizeRequest {
            tenant: "t".into(),
            shard: WireShard {
                building: 1,
                floor: Some(2),
            },
            fingerprint: specials.clone(),
        }),
    };
    let bytes = frame.encode().unwrap();
    let (decoded, _) = Frame::decode(&bytes).unwrap();
    let Body::Localize(req) = decoded.body else {
        panic!("kind changed in transit");
    };
    let got: Vec<u64> = req.fingerprint.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u64> = specials.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want);
}

#[test]
fn header_errors_are_specific() {
    let valid = Frame {
        id: 9,
        body: Body::StatsRequest,
    }
    .encode()
    .unwrap();
    assert_eq!(valid.len(), HEADER_LEN);

    let mut bad_magic = valid.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        Frame::decode(&bad_magic),
        Err(NetError::BadMagic([b'X', b'B']))
    ));

    let mut bad_version = valid.clone();
    bad_version[2] = 9;
    assert!(matches!(
        Frame::decode(&bad_version),
        Err(NetError::Version(9))
    ));

    let mut bad_kind = valid.clone();
    bad_kind[3] = 0x7F;
    assert!(matches!(
        Frame::decode(&bad_kind),
        Err(NetError::Kind(0x7F))
    ));

    let mut oversized = valid.clone();
    oversized[12..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    assert!(matches!(
        Frame::decode(&oversized),
        Err(NetError::Oversized { .. })
    ));

    let mut arr = [0u8; HEADER_LEN];
    arr.copy_from_slice(&valid);
    let header = Header::decode(&arr).unwrap();
    assert_eq!((header.id, header.payload_len), (9, 0));
}

#[test]
fn trailing_bytes_are_rejected() {
    // A Fix frame whose declared length includes one junk byte beyond
    // the payload the kind defines.
    let mut bytes = Frame {
        id: 1,
        body: Body::Fix(FixResponse {
            x: 1.0,
            y: 2.0,
            cold: false,
        }),
    }
    .encode()
    .unwrap();
    let len = (bytes.len() - HEADER_LEN + 1) as u32;
    bytes[12..16].copy_from_slice(&len.to_le_bytes());
    bytes.push(0xAB);
    assert!(matches!(
        Frame::decode(&bytes),
        Err(NetError::TrailingBytes(1))
    ));
}

#[test]
fn bad_tags_and_counts_are_typed() {
    // Fix `cold` byte (offset 16 + 8 + 8) set to 2: bad bool tag.
    let mut bytes = Frame {
        id: 1,
        body: Body::Fix(FixResponse {
            x: 0.0,
            y: 0.0,
            cold: false,
        }),
    }
    .encode()
    .unwrap();
    bytes[HEADER_LEN + 16] = 2;
    assert!(matches!(
        Frame::decode(&bytes),
        Err(NetError::Tag {
            field: "cold",
            value: 2
        })
    ));

    // Rejection reason tag 3: unknown.
    let mut bytes = Frame {
        id: 1,
        body: Body::Rejected(Rejection {
            reason: RejectReason::Overloaded,
            detail: String::new(),
        }),
    }
    .encode()
    .unwrap();
    bytes[HEADER_LEN] = 3;
    assert!(matches!(
        Frame::decode(&bytes),
        Err(NetError::Tag {
            field: "reject_reason",
            value: 3
        })
    ));

    // Fingerprint count claiming 2^29 elements with 8 bytes present:
    // refused before any allocation.
    let mut bytes = Frame {
        id: 1,
        body: Body::Localize(LocalizeRequest {
            tenant: String::new(),
            shard: WireShard {
                building: 0,
                floor: None,
            },
            fingerprint: vec![0.0],
        }),
    }
    .encode()
    .unwrap();
    // Payload layout: tenant len u16 (=0), shard (4 + 1), count u32.
    let count_at = HEADER_LEN + 2 + 5;
    bytes[count_at..count_at + 4].copy_from_slice(&(1u32 << 29).to_le_bytes());
    assert!(matches!(
        Frame::decode(&bytes),
        Err(NetError::Count {
            field: "fingerprint",
            ..
        })
    ));

    // Tenant bytes that are not UTF-8.
    let mut bytes = Frame {
        id: 1,
        body: Body::Localize(LocalizeRequest {
            tenant: "ab".into(),
            shard: WireShard {
                building: 0,
                floor: None,
            },
            fingerprint: vec![],
        }),
    }
    .encode()
    .unwrap();
    bytes[HEADER_LEN + 2] = 0xFF;
    bytes[HEADER_LEN + 3] = 0xFE;
    assert!(matches!(
        Frame::decode(&bytes),
        Err(NetError::Utf8 { field: "tenant" })
    ));
}

#[test]
fn oversized_fields_refuse_to_encode() {
    let frame = Frame {
        id: 1,
        body: Body::ServerError(ServerErrorResponse {
            detail: "x".repeat(usize::from(u16::MAX) + 1),
        }),
    };
    assert!(matches!(frame.encode(), Err(NetError::Oversized { .. })));

    // A fingerprint pushing the payload past MAX_PAYLOAD.
    let frame = Frame {
        id: 1,
        body: Body::Localize(LocalizeRequest {
            tenant: String::new(),
            shard: WireShard {
                building: 0,
                floor: None,
            },
            fingerprint: vec![0.0; (MAX_PAYLOAD as usize / 8) + 1],
        }),
    };
    assert!(matches!(frame.encode(), Err(NetError::Oversized { .. })));
}

#[test]
fn truncated_stream_reads_are_io_errors() {
    let bytes = Frame {
        id: 3,
        body: Body::Fix(FixResponse {
            x: 1.0,
            y: 2.0,
            cold: true,
        }),
    }
    .encode()
    .unwrap();
    for cut in 0..bytes.len() {
        match read_frame(&mut &bytes[..cut]) {
            Err(NetError::Io(_)) => {}
            other => panic!("cut {cut}: expected io error, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------

/// One `Localize` and one `Tracked` frame encode to exactly these bytes:
/// the layout in the `frame` module docs, pinned byte for byte so that
/// an encoder change cannot move a field unnoticed.
#[test]
fn localize_and_tracked_frames_encode_to_golden_bytes() {
    let localize = Frame {
        id: 7,
        body: Body::Localize(LocalizeRequest {
            tenant: "t1".into(),
            shard: WireShard {
                building: 2,
                floor: Some(3),
            },
            fingerprint: vec![1.0, -0.5, 100.0],
        }),
    };
    #[rustfmt::skip]
    let localize_bytes: &[u8] = &[
        // magic, version, kind, id, payload length 41
        0x4e, 0x42, 0x01, 0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x29, 0x00, 0x00, 0x00,
        // tenant "t1"
        0x02, 0x00, 0x74, 0x31,
        // building 2, floor Some(3)
        0x02, 0x00, 0x00, 0x00, 0x01, 0x03, 0x00, 0x00, 0x00,
        // 3 values: 1.0, -0.5, 100.0
        0x03, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xbf,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x59, 0x40,
    ];
    let tracked = Frame {
        id: 42,
        body: Body::Tracked(TrackedResponse {
            raw: FixResponse {
                x: 1.5,
                y: -2.25,
                cold: true,
            },
            smoothed_x: 1.0,
            smoothed_y: 2.0,
            zone: Some(4),
            events: vec![WireZoneEvent {
                device: 9,
                zone: 4,
                entered: true,
                at: 11,
            }],
        }),
    };
    #[rustfmt::skip]
    let tracked_bytes: &[u8] = &[
        // magic, version, kind, id, payload length 61
        0x4e, 0x42, 0x01, 0x82, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3d, 0x00, 0x00, 0x00,
        // raw 1.5, -2.25, cold
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0xc0,
        0x01,
        // smoothed 1.0, 2.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
        // zone Some(4)
        0x01, 0x04, 0x00, 0x00, 0x00,
        // 1 event: device 9, zone 4, entered, at 11
        0x01, 0x00,
        0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x04, 0x00, 0x00, 0x00,
        0x01,
        0x0b, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    ];
    for (frame, golden) in [(localize, localize_bytes), (tracked, tracked_bytes)] {
        assert_eq!(frame.encode().unwrap(), golden, "{:?}", frame.body);
        assert_eq!(Frame::decode(golden).unwrap(), (frame, golden.len()));
    }
}
