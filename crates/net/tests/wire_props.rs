//! Fuzz-style property tests for the wire protocol: every message round-trips
//! bit-exactly, and no mangling of a valid frame — truncation, bit flips,
//! bad magic, future versions, unknown tags — ever panics the decoder.

use isgc_mc::ChaosRng;
use isgc_net::wire::{
    corpus_messages, encode_params_frame, CodewordView, FrameAssembler, Message, WireError,
    HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
use proptest::prelude::*;

/// Deterministically builds one of the seven message variants from a flat
/// tuple of generated fields (avoids needing boxed/unioned strategies).
fn build_message(
    variant: u8,
    has_preferred: bool,
    a: u64,
    b: u64,
    ints: Vec<u64>,
    floats: Vec<f64>,
) -> Message {
    match variant {
        0 => Message::Hello {
            preferred: has_preferred.then_some(a),
        },
        1 => Message::Assign {
            worker: a,
            n: b,
            c: a.wrapping_add(b),
            batch_size: b.wrapping_mul(3),
            seed: a ^ b,
            partitions: ints,
        },
        2 => Message::Params {
            step: a,
            values: floats,
        },
        3 => Message::Codeword {
            worker: a,
            step: b,
            values: floats,
        },
        4 => Message::Heartbeat { worker: a },
        5 => Message::Decline { worker: a, step: b },
        _ => Message::Shutdown,
    }
}

fn message_strategy() -> impl Strategy<Value = Message> {
    (
        0u8..7,
        proptest::bool::ANY,
        0u64..u64::MAX,
        0u64..u64::MAX,
        proptest::collection::vec(0u64..1024, 0..16),
        proptest::collection::vec(-1e12f64..1e12, 0..48),
    )
        .prop_map(|(variant, has_preferred, a, b, ints, floats)| {
            build_message(variant, has_preferred, a, b, ints, floats)
        })
}

proptest! {
    #[test]
    fn every_variant_roundtrips(message in message_strategy()) {
        let bytes = message.encode();
        let (decoded, consumed) = Message::decode(&bytes).expect("self-encoded frame decodes");
        prop_assert_eq!(&decoded, &message);
        prop_assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn special_floats_roundtrip(step in 0u64..100, bits in proptest::collection::vec(0u64..u64::MAX, 1..8)) {
        // Raw bit patterns cover NaN payloads, infinities, subnormals.
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let message = Message::Params { step, values: values.clone() };
        let (decoded, _) = Message::decode(&message.encode()).expect("decodes");
        match decoded {
            Message::Params { values: back, .. } => {
                prop_assert_eq!(back.len(), values.len());
                for (x, y) in back.iter().zip(values.iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            other => return Err(TestCaseError::fail(format!("wrong variant {other:?}"))),
        }
    }

    #[test]
    fn every_truncation_rejected_without_panic(message in message_strategy()) {
        let bytes = message.encode();
        for cut in 0..bytes.len() {
            let err = Message::decode(&bytes[..cut])
                .expect_err("strict prefix must not decode");
            prop_assert!(
                matches!(err, WireError::Truncated),
                "prefix of {} bytes gave {:?}", cut, err
            );
        }
    }

    #[test]
    fn single_byte_corruption_never_panics(message in message_strategy(), pos_seed in 0usize..4096, flip in 1u8..=255) {
        let mut bytes = message.encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        // Any outcome but a panic is acceptable; structural prefixes must err.
        let outcome = Message::decode(&bytes);
        if pos < 4 {
            prop_assert!(matches!(outcome, Err(WireError::BadMagic(_))));
        } else if pos == 4 {
            prop_assert!(matches!(outcome, Err(WireError::UnsupportedVersion(_))));
        }
    }

    #[test]
    fn unknown_tags_rejected(message in message_strategy(), tag in 11u8..=255) {
        let mut bytes = message.encode();
        bytes[HEADER_LEN] = tag; // first payload byte is the message tag
        prop_assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::UnknownTag(t)) if t == tag
        ));
    }

    #[test]
    fn trailing_bytes_rejected(message in message_strategy(), extra in 1usize..16) {
        let mut bytes = message.encode();
        // Grow the payload (and its length field) past the message body.
        let payload_len =
            u32::from_le_bytes([bytes[13], bytes[14], bytes[15], bytes[16]]);
        let padded = payload_len as usize + extra;
        bytes[13..17].copy_from_slice(&(padded as u32).to_le_bytes());
        bytes.extend(std::iter::repeat_n(0xAAu8, extra));
        prop_assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::TrailingBytes(n)) if n == extra
        ));
    }

    #[test]
    fn foreign_and_overflowing_job_tags_pass_through(message in message_strategy(), job_seed in 0u64..u64::MAX) {
        // The job id is routing metadata, not framing: any 64-bit value —
        // a foreign tenant's id, u64::MAX, a value that would overflow a
        // smaller counter — must ride the header untouched and come back
        // from the tagged decoder verbatim. Tenant filtering is the
        // dispatcher's job, above the wire layer.
        for job in [job_seed, 0, u64::MAX, u64::MAX - 1, 1 << 63] {
            let bytes = message.encode_for_job(job);
            let (tag, decoded, used) =
                Message::decode_tagged(&bytes).expect("any job tag decodes");
            prop_assert_eq!(tag, job);
            prop_assert_eq!(&decoded, &message);
            prop_assert_eq!(used, bytes.len());
            // The untagged decoder must accept the same frame and simply
            // drop the tag — a job-0 consumer fed a foreign frame fails at
            // dispatch, never at decode.
            let (plain, _) = Message::decode(&bytes).expect("untagged decode");
            prop_assert_eq!(&plain, &message);
        }
    }

    #[test]
    fn truncated_codeword_values_reject_cleanly(
        values in proptest::collection::vec(-1e9f64..1e9, 1..24),
        cut_seed in 0usize..4096,
    ) {
        // A worker dying mid-write leaves a Codeword whose gradient vector
        // stops short. Every cut inside the float region must yield
        // `Truncated` — never a panic, never a short vector silently
        // accepted.
        let message = Message::Codeword {
            worker: 1,
            step: 3,
            values: values.clone(),
        };
        let bytes = message.encode();
        let floats_len = values.len() * 8;
        let float_region_start = bytes.len() - floats_len;
        let cut = float_region_start + cut_seed % floats_len;
        let err = Message::decode(&bytes[..cut]).expect_err("partial floats must not decode");
        prop_assert!(matches!(err, WireError::Truncated), "cut {cut} gave {err:?}");

        // The dual attack: the count field *claims* more floats than the
        // payload carries. Same typed rejection.
        let count_pos = float_region_start - 4;
        let mut overstated = bytes.clone();
        overstated[count_pos..count_pos + 4]
            .copy_from_slice(&(values.len() as u32 + 1).to_le_bytes());
        prop_assert!(matches!(
            Message::decode(&overstated),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn frame_clamp_rejects_before_allocation(claimed in 0u32..MAX_PAYLOAD, max in 1u32..4096) {
        // satellite of the FrameAssembler clamp: a header claiming more
        // than this connection's max-frame must produce the typed
        // `FrameTooLarge` from the header alone — 17 bytes buffered, no
        // payload allocation — while claims within the clamp wait for the
        // body like any other frame.
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.push(VERSION);
        header.extend_from_slice(&0u64.to_le_bytes());
        header.extend_from_slice(&claimed.to_le_bytes());
        let mut assembler = FrameAssembler::with_max_frame(max);
        assembler.push(&header);
        match assembler.next_frame() {
            Err(WireError::FrameTooLarge { len, max: m }) => {
                prop_assert!(claimed > max, "clamp fired below the limit");
                prop_assert_eq!(len, claimed);
                prop_assert_eq!(m, max);
            }
            Ok(None) => prop_assert!(claimed <= max, "oversized claim buffered"),
            other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        }
    }

    #[test]
    fn decline_after_death_orderings_decode_statelessly(
        worker in 0u64..8,
        step in 0u64..16,
        chunk in 1usize..64,
    ) {
        // A worker's dying breath can reorder arbitrarily against its
        // replacement's handshake: a stale Decline may land after the
        // worker's own Shutdown, after a successor's Hello, even after the
        // successor's Codeword for the same step. The wire layer is
        // stateless, so every ordering must decode frame-for-frame; which
        // declines *count* is the collector's decision (the model checker
        // exhausts those orderings semantically — see `isgc-mc`).
        let sequence = [
            Message::Codeword { worker, step, values: vec![1.0, -2.0] },
            Message::Shutdown,
            Message::Decline { worker, step },
            Message::Hello { preferred: Some(worker) },
            Message::Decline { worker, step: step + 1 },
            Message::Codeword { worker, step: step + 1, values: vec![0.5] },
        ];
        let stream: Vec<u8> = sequence.iter().flat_map(Message::encode).collect();
        // Feed in arbitrary chunk sizes to cross frame boundaries.
        let mut assembler = FrameAssembler::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            assembler.push(piece);
            while let Some(frame) = assembler.next_frame().expect("valid stream") {
                decoded.push(frame.message().expect("valid frame"));
            }
        }
        prop_assert_eq!(decoded, sequence.to_vec());
        prop_assert_eq!(assembler.pending(), 0);
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence(first in message_strategy(), second in message_strategy()) {
        let mut bytes = first.encode();
        let split = bytes.len();
        bytes.extend(second.encode());
        let (a, used_a) = Message::decode(&bytes).expect("first frame decodes");
        prop_assert_eq!(used_a, split);
        let (b, used_b) = Message::decode(&bytes[used_a..]).expect("second frame decodes");
        prop_assert_eq!(used_a + used_b, bytes.len());
        prop_assert_eq!(a, first);
        prop_assert_eq!(b, second);
    }
}

/// Builds an arbitrary message from the chaos engine's pinned RNG, covering
/// all seven variants with raw-bit floats (NaN payloads included).
fn chaos_message(rng: &mut ChaosRng) -> Message {
    let variant = rng.next_below(7) as u8;
    let has_preferred = rng.next_bool(0.5);
    let a = rng.next_u64();
    let b = rng.next_u64();
    let ints: Vec<u64> = (0..rng.next_below(16))
        .map(|_| rng.next_below(1024))
        .collect();
    let floats: Vec<f64> = (0..rng.next_below(48))
        .map(|_| f64::from_bits(rng.next_u64()))
        .collect();
    build_message(variant, has_preferred, a, b, ints, floats)
}

/// A seeded sweep of multi-bit corruptions, the exact fault model the chaos
/// worker's `Corrupt` injection uses: the decoder must survive every mangled
/// frame, and any flip in the header's structural bytes (magic, version,
/// length) must make the frame undecodable. The job-id bytes are *not*
/// structural: a flipped job id still decodes — tenant filtering happens
/// above the wire layer via `decode_tagged`.
#[test]
fn chaos_bit_flips_never_panic_and_header_flips_never_decode() {
    let mut rng = ChaosRng::new(0x0001_556C_C0DE);
    for case in 0u32..2000 {
        let mut frame = chaos_message(&mut rng.fork(&format!("frame-{case}"))).encode();
        let pristine = frame.clone();
        let flips = 1 + rng.next_below(4) as usize;
        for _ in 0..flips {
            let pos = rng.next_below(frame.len() as u64) as usize;
            let bit = rng.next_below(8) as u32;
            frame[pos] ^= 1 << bit;
        }
        let outcome = Message::decode(&frame);
        // Two flips can land on the same bit and cancel; what matters is
        // whether the structural header bytes actually differ. Bytes 5..13
        // are the job id, which carries no framing information.
        if frame[..5] != pristine[..5] || frame[13..17] != pristine[13..17] {
            assert!(
                outcome.is_err(),
                "case {case}: frame decoded despite a corrupted header"
            );
        }
        // A body flip may legitimately still decode (e.g. a float bit); the
        // property there is only that the decoder never panics, which
        // reaching this line demonstrates.
    }
}

/// The corruption sweep itself is deterministic: replaying the seed makes
/// byte-identical frames and flip positions, so a failing case number from
/// the test above pins an exact reproducible frame.
#[test]
fn chaos_bit_flip_sweep_replays_exactly() {
    let sample = |seed: u64| -> Vec<Vec<u8>> {
        let mut rng = ChaosRng::new(seed);
        (0u32..50)
            .map(|case| {
                let mut frame = chaos_message(&mut rng.fork(&format!("frame-{case}"))).encode();
                let pos = rng.next_below(frame.len() as u64) as usize;
                frame[pos] ^= 1 << (rng.next_below(8) as u32);
                frame
            })
            .collect()
    };
    assert_eq!(sample(42), sample(42));
    assert_ne!(sample(42), sample(43));
}

/// The shared seed corpus (also consumed by the model checker's frame
/// tests): deterministic, covers every variant, and round-trips bit-exactly
/// through a chunked `FrameAssembler` — the exact path a reactor connection
/// takes.
#[test]
fn seed_corpus_covers_every_variant_and_roundtrips() {
    let corpus = corpus_messages(0x15C0_C0DE);
    assert_eq!(
        corpus,
        corpus_messages(0x15C0_C0DE),
        "corpus is deterministic"
    );
    assert_ne!(corpus, corpus_messages(0x15C0_C0DF), "seed matters");

    let mut variants = std::collections::HashSet::new();
    let stream: Vec<u8> = corpus.iter().flat_map(Message::encode).collect();
    let mut assembler = FrameAssembler::new();
    let mut decoded = Vec::new();
    for piece in stream.chunks(13) {
        assembler.push(piece);
        while let Some(frame) = assembler.next_frame().expect("corpus stream is valid") {
            decoded.push(frame.message().expect("corpus frame decodes"));
        }
    }
    assert_eq!(decoded, corpus);
    for m in &corpus {
        variants.insert(std::mem::discriminant(m));
    }
    assert_eq!(variants.len(), 7, "corpus exercises all seven variants");
}

#[test]
fn frame_layout_is_stable() {
    // The on-wire prefix is a compatibility promise: magic, version, a
    // little-endian job id, then a little-endian payload length.
    let bytes = Message::Shutdown.encode_for_job(0x0102_0304_0506_0708);
    assert_eq!(&bytes[..4], &MAGIC);
    assert_eq!(bytes[4], VERSION);
    let job = u64::from_le_bytes(bytes[5..13].try_into().unwrap());
    assert_eq!(job, 0x0102_0304_0506_0708);
    let payload_len = u32::from_le_bytes([bytes[13], bytes[14], bytes[15], bytes[16]]);
    assert_eq!(payload_len as usize, bytes.len() - HEADER_LEN);
    // `encode()` is the job-0 shorthand, and the tagged decoder hands the
    // job id back.
    let (job, message, used) =
        Message::decode_tagged(&Message::Shutdown.encode_for_job(7)).unwrap();
    assert_eq!(job, 7);
    assert_eq!(message, Message::Shutdown);
    assert_eq!(used, HEADER_LEN + 1); // header + the tag byte
    let (job, _, _) = Message::decode_tagged(&Message::Shutdown.encode()).unwrap();
    assert_eq!(job, 0);
}

/// The per-element codec the shipped bulk codec replaced, kept as the
/// reference its bytes must equal: every value is written and read 8 bytes
/// at a time, and a payload is built in its own buffer, then copied behind
/// the header. It covers the three variants that carry vectors.
mod reference {
    use isgc_net::wire::{Message, HEADER_LEN, MAGIC, VERSION};

    fn put_u64(buf: &mut Vec<u8>, x: u64) {
        buf.extend_from_slice(&x.to_le_bytes());
    }

    fn put_u64_vec(buf: &mut Vec<u8>, xs: &[u64]) {
        buf.extend_from_slice(&(xs.len() as u32).to_le_bytes());
        for x in xs {
            put_u64(buf, *x);
        }
    }

    fn put_f64_vec(buf: &mut Vec<u8>, xs: &[f64]) {
        buf.extend_from_slice(&(xs.len() as u32).to_le_bytes());
        for x in xs {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    pub fn encode(job: u64, message: &Message) -> Vec<u8> {
        let mut payload = Vec::new();
        match message {
            Message::Assign {
                worker,
                n,
                c,
                batch_size,
                seed,
                partitions,
            } => {
                payload.push(2);
                for x in [worker, n, c, batch_size, seed] {
                    put_u64(&mut payload, *x);
                }
                put_u64_vec(&mut payload, partitions);
            }
            Message::Params { step, values } => {
                payload.push(3);
                put_u64(&mut payload, *step);
                put_f64_vec(&mut payload, values);
            }
            Message::Codeword {
                worker,
                step,
                values,
            } => {
                payload.push(4);
                put_u64(&mut payload, *worker);
                put_u64(&mut payload, *step);
                put_f64_vec(&mut payload, values);
            }
            other => panic!("no reference encoder for {other:?}"),
        }
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        put_u64(&mut frame, job);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Reader<'_> {
        fn take<const N: usize>(&mut self) -> [u8; N] {
            let word = self.bytes[self.pos..self.pos + N].try_into().unwrap();
            self.pos += N;
            word
        }

        fn u64(&mut self) -> u64 {
            u64::from_le_bytes(self.take())
        }

        fn count(&mut self) -> usize {
            u32::from_le_bytes(self.take()) as usize
        }

        fn u64s(&mut self) -> Vec<u64> {
            (0..self.count()).map(|_| self.u64()).collect()
        }

        fn f64s(&mut self) -> Vec<f64> {
            (0..self.count())
                .map(|_| f64::from_le_bytes(self.take()))
                .collect()
        }
    }

    /// Decodes a well-formed frame of one of the three variants into
    /// `(job, message)`, panicking on anything else.
    pub fn decode(frame: &[u8]) -> (u64, Message) {
        let mut r = Reader {
            bytes: frame,
            pos: 0,
        };
        assert_eq!(r.take::<4>(), MAGIC);
        assert_eq!(r.take::<1>(), [VERSION]);
        let job = r.u64();
        assert_eq!(r.count(), frame.len() - HEADER_LEN);
        let message = match r.take::<1>()[0] {
            2 => Message::Assign {
                worker: r.u64(),
                n: r.u64(),
                c: r.u64(),
                batch_size: r.u64(),
                seed: r.u64(),
                partitions: r.u64s(),
            },
            3 => Message::Params {
                step: r.u64(),
                values: r.f64s(),
            },
            4 => Message::Codeword {
                worker: r.u64(),
                step: r.u64(),
                values: r.f64s(),
            },
            tag => panic!("no reference decoder for tag {tag}"),
        };
        assert_eq!(r.pos, frame.len(), "reference decode left bytes");
        (job, message)
    }
}

/// Bit patterns a value-based codec could get wrong: quiet, signalling and
/// negative NaNs with payloads, both zeros, both ends of the subnormals,
/// both infinities.
const SPECIAL_BITS: [u64; 10] = [
    0x7FF8_0000_0000_0000,
    0x7FF0_0000_0000_0001,
    0xFFF8_DEAD_BEEF_0001,
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x800F_FFFF_FFFF_FFFF,
    0x0010_0000_0000_0000,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
];

/// The three vector-carrying variants around one float vector.
fn vector_messages(a: u64, ints: &[u64], values: &[f64]) -> [Message; 3] {
    [
        Message::Params {
            step: a,
            values: values.to_vec(),
        },
        Message::Codeword {
            worker: a % 1024,
            step: a,
            values: values.to_vec(),
        },
        Message::Assign {
            worker: a,
            n: ints.len() as u64,
            c: 2,
            batch_size: 8,
            seed: !a,
            partitions: ints.to_vec(),
        },
    ]
}

/// A message with its float vector taken out, and that vector's bits — so
/// NaN payloads compare exactly.
fn split_floats(message: &Message) -> (Message, Vec<u64>) {
    let mut message = message.clone();
    let floats = match &mut message {
        Message::Params { values, .. } | Message::Codeword { values, .. } => std::mem::take(values),
        _ => Vec::new(),
    };
    (message, floats.iter().map(|x| x.to_bits()).collect())
}

/// The shipped codec and the per-element reference agree on every byte
/// of `message`'s frame, in both directions.
fn assert_matches_reference(job: u64, message: &Message) {
    let shipped = message.encode_for_job(job);
    assert!(
        shipped == reference::encode(job, message),
        "{} values: shipped bytes differ from the reference",
        split_floats(message).1.len()
    );
    let (ref_job, by_reference) = reference::decode(&shipped);
    let (job_back, by_shipped, used) = Message::decode_tagged(&shipped).expect("decodes");
    assert_eq!((ref_job, job_back, used), (job, job, shipped.len()));
    assert_eq!(split_floats(&by_reference), split_floats(message));
    assert_eq!(split_floats(&by_shipped), split_floats(message));
    if let Message::Params { step, values } = message {
        assert!(encode_params_frame(job, *step, values) == shipped);
    }
}

proptest! {
    #[test]
    fn bulk_codec_matches_the_per_element_reference(
        a in 0u64..u64::MAX,
        job in 0u64..u64::MAX,
        ints in proptest::collection::vec(0u64..u64::MAX, 0..10),
        words in proptest::collection::vec((0u64..u64::MAX, 0usize..20), 0..10),
    ) {
        // About half the values are special bit patterns, the rest raw bits.
        let values: Vec<f64> = words
            .iter()
            .map(|&(bits, pick)| f64::from_bits(*SPECIAL_BITS.get(pick).unwrap_or(&bits)))
            .collect();
        for message in vector_messages(a, &ints, &values) {
            assert_matches_reference(job, &message);
        }
    }
}

/// Vectors of every length 0–9 (below, at and above one 8-byte word per
/// value, around any unrolled loop's remainder) and of `wide-d65k`'s
/// dimension, 65,552, cycling the special bit patterns through raw bits.
#[test]
fn bulk_codec_matches_the_reference_at_every_short_length_and_wide_d65k() {
    let raw = |i: usize| (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for len in (0..=9).chain([65_552]) {
        let values: Vec<f64> = (0..len)
            .map(|i| {
                f64::from_bits(if i % 3 == 0 {
                    SPECIAL_BITS[i % 10]
                } else {
                    raw(i)
                })
            })
            .collect();
        let ints: Vec<u64> = (0..len.min(40)).map(raw).collect();
        for message in vector_messages(raw(len), &ints, &values) {
            assert_matches_reference(len as u64, &message);
        }
    }
}

/// `CodewordView`'s bulk decode is `value(i)` for every `i`, and both are
/// the values the frame was encoded from.
#[test]
fn codeword_view_bulk_decode_equals_every_value() {
    for len in (0..=9).chain([65_552]) {
        let values: Vec<f64> = (0..len)
            .map(|i| f64::from_bits(SPECIAL_BITS[i % 10] ^ ((i as u64) << 20)))
            .collect();
        let frame = Message::Codeword {
            worker: 3,
            step: 9,
            values: values.clone(),
        }
        .encode_for_job(1);
        let view = CodewordView::parse(&frame[HEADER_LEN..])
            .expect("a codeword")
            .expect("well-formed");
        let bulk = view.to_vec();
        assert_eq!(bulk.len(), len);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(bulk[i].to_bits(), view.value(i).to_bits(), "value {i}");
            assert_eq!(bulk[i].to_bits(), v.to_bits(), "value {i}");
        }
    }
}
