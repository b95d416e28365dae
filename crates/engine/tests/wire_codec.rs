//! Wire-format pinning for the multi-process backend's frame codec
//! (`powersparse_engine::wire`), in two layers:
//!
//! * **Property tests** — encode→decode is byte-identity for arbitrary
//!   frames and arbitrary cell runs, including the zero-bit/-payload
//!   edge cases and max-size payload cells, and every single-byte
//!   corruption of an encoded frame is rejected (never mis-decoded).
//!   Frames built in place (`FrameBuf`) equal the owned encoding, and
//!   the table-driven CRC equals a bitwise reference.
//! * **Golden bytes** — exact encodings are pinned so the frame layout
//!   (magic, field order, endianness, varint packing, checksum) cannot
//!   drift silently.  A deliberate format change must update these
//!   bytes *and* bump `PROTOCOL_VERSION`.

use powersparse_engine::wire::{
    self, crc32_parts, decode_cells, encode_cells, Frame, FrameBuf, FrameKind, FrameView, WireCell,
    WireError, HEADER_LEN, MAGIC, PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// CRC-32/IEEE straight from its definition, one bit at a time: the
/// reference the table-driven `crc32_parts` is checked against.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Hello),
        Just(FrameKind::PhaseStart),
        Just(FrameKind::Sends),
        Just(FrameKind::Deliveries),
        Just(FrameKind::RoundStats),
        Just(FrameKind::Shutdown),
        Just(FrameKind::Error),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        arb_kind(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(kind, shard, epoch, count, payload)| Frame {
            kind,
            shard,
            epoch,
            count,
            payload,
        })
}

/// A cell run biased toward the interesting extremes: edge 0, the
/// contract-minimum 1-bit message, empty payloads, and u32::MAX ids.
fn arb_cells() -> impl Strategy<Value = Vec<WireCell>> {
    let cell = (
        prop_oneof![Just(0u64), 0u64..1 << 20, Just(u32::MAX as u64)],
        prop_oneof![Just(1u64), 1u64..1 << 16, Just(u64::MAX)],
        prop_oneof![Just(0u32), any::<u32>(), Just(u32::MAX)],
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(edge, bits, from, payload)| WireCell {
            edge,
            bits,
            from,
            payload,
        });
    proptest::collection::vec(cell, 0..32)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Frames survive the wire byte-identically.
    #[test]
    fn frame_encode_decode_is_identity(frame in arb_frame()) {
        let bytes = frame.encode();
        prop_assert_eq!(bytes.len(), HEADER_LEN + frame.payload.len());
        let back = Frame::decode(&bytes).unwrap();
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(back, frame);
    }

    /// Any truncation of a valid frame is rejected with a deterministic
    /// error — never accepted, never a different message.
    #[test]
    fn every_truncation_is_rejected(frame in arb_frame(), cut in 0usize..220) {
        let bytes = frame.encode();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let got = Frame::decode(&bytes[..cut]);
        prop_assert!(
            matches!(got, Err(WireError::Truncated)),
            "cut at {} decoded to {:?}", cut, got
        );
    }

    /// Flipping any single byte of a valid frame never yields a valid
    /// decode of *different* content: either the decode errors, or (for
    /// flips the checksum does not cover, i.e. the checksum bytes
    /// themselves being restored is impossible with an XOR flip) it is
    /// rejected too.
    #[test]
    fn every_single_byte_flip_is_rejected(frame in arb_frame(), pos in 0usize..220) {
        let mut bytes = frame.encode();
        let pos = pos.min(bytes.len() - 1);
        bytes[pos] ^= 0xFF;
        let got = Frame::decode(&bytes);
        match got {
            Err(_) => {}
            Ok(decoded) => prop_assert!(
                false,
                "flip at {} still decoded: {:?}", pos, decoded.kind
            ),
        }
    }

    /// Cell runs round-trip exactly, zero-payload and max-id cells
    /// included.
    #[test]
    fn cell_runs_round_trip(cells in arb_cells()) {
        let mut out = Vec::new();
        encode_cells(&cells, &mut out);
        let back = decode_cells(&out, cells.len()).unwrap();
        prop_assert_eq!(back, cells);
    }

    /// A cell run with trailing garbage or a short count never decodes
    /// cleanly.
    #[test]
    fn cell_runs_reject_length_mismatches(cells in arb_cells(), junk in 1usize..8) {
        let mut out = Vec::new();
        encode_cells(&cells, &mut out);
        out.extend(std::iter::repeat_n(0u8, junk));
        prop_assert!(decode_cells(&out, cells.len()).is_err());
    }

    /// The table-driven CRC equals the bitwise definition of CRC-32/IEEE
    /// on random inputs of 0 to 300 bytes (short inputs, full 8-byte
    /// strides and every tail length), however the input is split into
    /// parts.
    #[test]
    fn crc_matches_a_bitwise_reference(
        bytes in proptest::collection::vec(any::<u8>(), 0..301),
        cut_a in 0usize..=300,
        cut_b in 0usize..=300,
    ) {
        let mut cuts = [cut_a.min(bytes.len()), cut_b.min(bytes.len())];
        cuts.sort_unstable();
        let [a, b] = cuts;
        let want = reference_crc32(&bytes);
        prop_assert_eq!(crc32_parts(&[&bytes]), want);
        prop_assert_eq!(crc32_parts(&[&bytes[..a], &bytes[a..b], &bytes[b..]]), want);
    }

    /// A frame built in place is byte-identical to `Frame::encode` of the
    /// same header and cells, for every kind, empty payloads included,
    /// and parses back to the same cells through the borrowed reader.
    #[test]
    fn frames_built_in_place_match_frame_encode(
        kind in arb_kind(),
        shard in any::<u16>(),
        epoch in any::<u32>(),
        cells in arb_cells(),
        wide in proptest::collection::vec(any::<u8>(), 120..300),
    ) {
        let mut built = FrameBuf::new();
        // A stale frame first: `begin` must reset the reused buffer.
        built.begin();
        built.push_cell(1, 1, 1, &[0xEE; 40]);
        built.seal(FrameKind::Error, 0, 0);
        built.begin();
        for (i, cell) in cells.iter().enumerate() {
            if i % 2 == 0 {
                built.push_cell(cell.edge, cell.bits, cell.from, &cell.payload);
            } else {
                // Alternate cells write their payload in place, and one
                // grows past the one-byte length slot.
                let payload = if i == 1 { &wide } else { &cell.payload };
                built.push_cell_with(cell.edge, cell.bits, cell.from, |out| {
                    out.extend_from_slice(payload);
                });
            }
        }
        let mut want_cells = cells.clone();
        if let Some(c) = want_cells.get_mut(1) {
            c.payload = wide.clone();
        }
        let mut payload = Vec::new();
        encode_cells(&want_cells, &mut payload);
        let want = Frame { kind, shard, epoch, count: want_cells.len() as u32, payload }.encode();
        let got = built.seal(kind, shard, epoch).to_vec();
        prop_assert_eq!(&got, &want);
        let view = FrameView::parse(&got).unwrap();
        prop_assert_eq!(view.encoded_len(), got.len());
        let back: Vec<WireCell> = view.cells().map(|c| c.map(WireCell::from)).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(back, want_cells);
    }

    /// Varint decode∘encode is injective: any byte string that decodes
    /// re-encodes to exactly the bytes consumed.  This is the canonical
    /// LEB128 property — without it, continuation-padded spellings like
    /// `[0x80, 0x00]` would alias `[0x00]` and distinct frame bytes
    /// could decode to identical cells.
    #[test]
    fn varint_decode_reencode_is_identity(bytes in proptest::collection::vec(any::<u8>(), 1..12)) {
        let mut slice = bytes.as_slice();
        if let Ok(v) = wire::get_varint(&mut slice) {
            let consumed = bytes.len() - slice.len();
            let mut canon = Vec::new();
            wire::put_varint(&mut canon, v);
            prop_assert_eq!(
                &bytes[..consumed], canon.as_slice(),
                "value {} decoded from a non-canonical spelling", v
            );
        }
    }
}

/// The regression pin for the non-canonical-varint bug: padded
/// spellings are rejected at the varint layer and therefore at the
/// cell layer, instead of silently aliasing the canonical form.
#[test]
fn non_canonical_varints_are_rejected() {
    let mut slice: &[u8] = &[0x80, 0x00];
    assert_eq!(wire::get_varint(&mut slice), Err(WireError::Varint));
    let mut slice: &[u8] = &[0x00];
    assert_eq!(wire::get_varint(&mut slice), Ok(0));
    // Through the cell codec: a padded edge id poisons the whole run.
    // Canonical spelling of the same cell: [0x00, 0x01, 0x00, 0x00].
    let padded = [0x80u8, 0x00, 0x01, 0x00, 0x00];
    assert_eq!(decode_cells(&padded, 1), Err(WireError::Varint));
    assert!(decode_cells(&padded[1..], 1).is_ok());
}

/// A near-max payload cell (1 MiB here; `MAX_PAYLOAD` itself would
/// dominate test time) survives the codec byte-identically — the
/// explicit "max-payload cell" satellite case.
#[test]
fn max_payload_cell_round_trips() {
    let big = vec![0xA5u8; 1 << 20];
    let cells = vec![
        WireCell {
            edge: 0,
            bits: 1,
            from: 0,
            payload: Vec::new(),
        },
        WireCell {
            edge: u32::MAX as u64,
            bits: u64::MAX,
            from: u32::MAX,
            payload: big,
        },
    ];
    let mut out = Vec::new();
    encode_cells(&cells, &mut out);
    assert_eq!(decode_cells(&out, 2).unwrap(), cells);

    let frame = Frame {
        kind: FrameKind::Sends,
        shard: u16::MAX,
        epoch: u32::MAX,
        count: 2,
        payload: out,
    };
    assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
}

/// The oversize guard stays below an actual allocation: a header
/// claiming more than `MAX_PAYLOAD` bytes is rejected from the length
/// field alone.
#[test]
fn oversize_length_field_is_rejected() {
    let mut bytes = Frame::control(FrameKind::PhaseStart, 0, 0).encode();
    bytes[13..17].copy_from_slice(&((wire::MAX_PAYLOAD as u32) + 1).to_le_bytes());
    assert_eq!(
        Frame::decode(&bytes),
        Err(WireError::Oversize(wire::MAX_PAYLOAD + 1))
    );
}

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------

#[test]
fn golden_control_frame_bytes() {
    // PhaseStart, shard 3, epoch 0x01020304, no payload.
    let bytes = Frame::control(FrameKind::PhaseStart, 3, 0x0102_0304).encode();
    assert_eq!(bytes.len(), HEADER_LEN);
    let crc = crc32_parts(&[&bytes[2..17]]).to_le_bytes();
    let want: Vec<u8> = [
        b'P', b'S', // magic
        2,    // kind = PhaseStart
        3, 0, // shard (LE u16)
        0x04, 0x03, 0x02, 0x01, // epoch (LE u32)
        0, 0, 0, 0, // count
        0, 0, 0, 0, // payload len
    ]
    .into_iter()
    .chain(crc)
    .collect();
    assert_eq!(bytes, want);
    // And the checksum itself is pinned, not just self-consistent.
    assert_eq!(&bytes[17..21], &[0xAD, 0x0E, 0x5E, 0x8A]);
}

#[test]
fn golden_sends_frame_bytes() {
    // One cell: local edge 5, 300 bits, from node 128, payload [0xAB].
    let cells = [WireCell {
        edge: 5,
        bits: 300,
        from: 128,
        payload: vec![0xAB],
    }];
    let mut payload = Vec::new();
    encode_cells(&cells, &mut payload);
    // Varint packing pinned byte-for-byte: 5; 300 = 0xAC 0x02;
    // 128 = 0x80 0x01; len 1; then the payload byte.
    assert_eq!(payload, vec![0x05, 0xAC, 0x02, 0x80, 0x01, 0x01, 0xAB]);

    let frame = Frame {
        kind: FrameKind::Sends,
        shard: 1,
        epoch: 9,
        count: 1,
        payload,
    };
    let bytes = frame.encode();
    let want_head: &[u8] = &[
        b'P', b'S', // magic
        3,    // kind = Sends
        1, 0, // shard
        9, 0, 0, 0, // epoch
        1, 0, 0, 0, // count
        7, 0, 0, 0, // payload len
    ];
    assert_eq!(&bytes[..17], want_head);
    assert_eq!(&bytes[17..21], &[0xF7, 0xF6, 0xAA, 0xB2]);
    assert_eq!(
        &bytes[HEADER_LEN..],
        &[0x05, 0xAC, 0x02, 0x80, 0x01, 0x01, 0xAB]
    );
}

#[test]
fn golden_layout_constants() {
    // The constants the layout is built from are part of the format.
    assert_eq!(MAGIC, *b"PS");
    assert_eq!(HEADER_LEN, 21);
    assert_eq!(PROTOCOL_VERSION, 4);
    // Frame-kind discriminants are wire values; reordering the enum is
    // a format change.
    assert_eq!(FrameKind::Hello as u8, 1);
    assert_eq!(FrameKind::PhaseStart as u8, 2);
    assert_eq!(FrameKind::Sends as u8, 3);
    assert_eq!(FrameKind::Deliveries as u8, 5);
    assert_eq!(FrameKind::RoundStats as u8, 6);
    assert_eq!(FrameKind::Shutdown as u8, 7);
    assert_eq!(FrameKind::Error as u8, 8);
    // Kind 4 was protocol 3's round barrier and kind 9 protocol 2's
    // shard-supervision snapshot frame; a frame carrying either
    // authenticates but is unknown.
    for kind in [4, 9] {
        let mut retired = Frame::control(FrameKind::PhaseStart, 2, 7).encode();
        retired[2] = kind;
        let crc = crc32_parts(&[&retired[2..17]]);
        retired[17..21].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::decode(&retired), Err(WireError::UnknownKind(kind)));
    }
    // CRC-32/IEEE check value: the checksum algorithm is pinned too.
    assert_eq!(crc32_parts(&[b"123456789"]), 0xCBF4_3926);
}
