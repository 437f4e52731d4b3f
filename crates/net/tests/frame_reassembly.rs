//! Property tests for the reactor's partial-frame reassembly: a wire frame
//! split at *every* byte boundary across readiness events — and a whole
//! stream of frames split at arbitrary boundaries — must come out of
//! [`FrameAssembler`] byte-identical to a one-shot decode, with the
//! in-buffer [`CodewordView`] agreeing bit-for-bit with the copying path.

use isgc_net::wire::{CodewordView, FrameAssembler, Message};
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
        proptest::collection::vec(0u64..1024, 0..8),
        proptest::collection::vec(-1e12f64..1e12, 0..12),
    )
        .prop_map(|(variant, has_preferred, a, b, ints, floats)| {
            build_message(variant, has_preferred, a, b, ints, floats)
        })
}

/// One move of a scripted socket.
#[derive(Clone, Copy)]
enum Step {
    /// Deliver at most this many bytes.
    Bytes(usize),
    /// Deliver exactly as many bytes as the assembler offered.
    FillTail,
    /// Fail with this kind, delivering nothing.
    Fail(std::io::ErrorKind),
}

/// An `io::Read` that serves `bytes` the way `script` says, cycling through
/// it, then reports EOF; remembers the largest tail it was ever offered.
struct Scripted<'a> {
    bytes: &'a [u8],
    script: &'a [Step],
    turn: usize,
    largest_offer: usize,
}

impl std::io::Read for Scripted<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        assert!(!out.is_empty(), "the assembler must always offer a tail");
        self.largest_offer = self.largest_offer.max(out.len());
        let step = self.script[self.turn % self.script.len()];
        self.turn += 1;
        let k = match step {
            Step::Bytes(k) => k,
            Step::FillTail => out.len(),
            Step::Fail(kind) => return Err(kind.into()),
        }
        .min(out.len())
        .min(self.bytes.len());
        out[..k].copy_from_slice(&self.bytes[..k]);
        self.bytes = &self.bytes[k..];
        Ok(k)
    }
}

/// Drains every complete frame, returning `(job, message)` pairs.
fn drain(assembler: &mut FrameAssembler) -> Vec<(u64, Message)> {
    let mut out = Vec::new();
    while let Some(frame) = assembler.next_frame().expect("well-formed stream") {
        out.push((frame.job, frame.message().expect("payload decodes")));
    }
    out
}

proptest! {
    /// Splitting one frame at *each* byte boundary — header included — must
    /// yield nothing from the first chunk and exactly the original message
    /// from the second, for every variant and any job tag.
    #[test]
    fn every_split_point_reassembles(message in message_strategy(), job in 0u64..u64::MAX) {
        let bytes = message.encode_for_job(job);
        for cut in 0..=bytes.len() {
            let mut assembler = FrameAssembler::new();
            assembler.push(&bytes[..cut]);
            if cut < bytes.len() {
                prop_assert!(
                    assembler.next_frame().expect("valid prefix").is_none(),
                    "strict prefix of {} bytes yielded a frame", cut
                );
            }
            assembler.push(&bytes[cut..]);
            let frames = drain(&mut assembler);
            prop_assert_eq!(frames.len(), 1, "split at {}", cut);
            prop_assert_eq!(&frames[0].0, &job);
            prop_assert_eq!(&frames[0].1, &message);
            prop_assert_eq!(assembler.pending(), 0);
        }
    }

    /// A whole stream of frames, delivered in arbitrary-size chunks with
    /// the assembler drained between readiness events, decodes to exactly
    /// the original sequence.
    #[test]
    fn chunked_stream_decodes_in_order(
        messages in proptest::collection::vec(message_strategy(), 1..8),
        jobs in proptest::collection::vec(0u64..8, 1..8),
        chunk in 1usize..64,
    ) {
        let tagged: Vec<(u64, Message)> = messages
            .into_iter()
            .enumerate()
            .map(|(i, m)| (jobs[i % jobs.len()], m))
            .collect();
        let mut stream = Vec::new();
        for (job, message) in &tagged {
            stream.extend_from_slice(&message.encode_for_job(*job));
        }
        let mut assembler = FrameAssembler::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            assembler.push(piece);
            decoded.extend(drain(&mut assembler));
        }
        prop_assert_eq!(decoded, tagged);
        prop_assert_eq!(assembler.pending(), 0);
    }

    /// The `fill_from` path (reads straight into the buffer tail) behaves
    /// identically when the source trickles bytes one readiness event at a
    /// time.
    #[test]
    fn fill_from_trickle_matches_push(
        message in message_strategy(),
        job in 0u64..u64::MAX,
        cap in 1usize..32,
    ) {
        let bytes = message.encode_for_job(job);
        let mut source = Scripted {
            bytes: &bytes,
            script: &[Step::Bytes(cap)],
            turn: 0,
            largest_offer: 0,
        };
        let mut assembler = FrameAssembler::new();
        let mut decoded = Vec::new();
        loop {
            let got = assembler.fill_from(&mut source).expect("in-memory read");
            decoded.extend(drain(&mut assembler));
            if got == 0 {
                break;
            }
        }
        prop_assert_eq!(decoded.len(), 1);
        prop_assert_eq!(&decoded[0].0, &job);
        prop_assert_eq!(&decoded[0].1, &message);
    }

    /// The in-buffer codeword view agrees bit-for-bit with the copying
    /// decode — NaN payloads, infinities, and subnormals included — no
    /// matter where the frame was split.
    #[test]
    fn codeword_view_is_bit_identical(
        worker in 0u64..1024,
        step in 0u64..1024,
        job in 0u64..u64::MAX,
        bits in proptest::collection::vec(0u64..u64::MAX, 0..12),
        cut_seed in 0usize..4096,
    ) {
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let message = Message::Codeword { worker, step, values: values.clone() };
        let bytes = message.encode_for_job(job);
        let cut = cut_seed % bytes.len();
        let mut assembler = FrameAssembler::new();
        assembler.push(&bytes[..cut]);
        let _ = assembler.next_frame().expect("valid prefix");
        assembler.push(&bytes[cut..]);
        let frame = assembler
            .next_frame()
            .expect("well-formed")
            .expect("complete");
        let view = CodewordView::parse(frame.payload)
            .expect("codeword payload")
            .expect("consistent body");
        prop_assert_eq!(view.worker, worker);
        prop_assert_eq!(view.step, step);
        prop_assert_eq!(view.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(view.value(i).to_bits(), v.to_bits());
        }
    }
}

/// Every complete frame as `(job, payload bytes)` — compared as bytes, so
/// NaN payloads count.
fn drain_raw(assembler: &mut FrameAssembler, into: &mut Vec<(u64, Vec<u8>)>) {
    while let Some(frame) = assembler.next_frame().expect("well-formed stream") {
        into.push((frame.job, frame.payload.to_vec()));
    }
}

/// Feeds `stream` through `fill_from` as the reactor's read loop does —
/// parse after every delivery, retry `Interrupted`, come back after
/// `WouldBlock`, stop at EOF.
fn read_like_the_reactor(stream: &[u8], script: &[Step]) -> (Vec<(u64, Vec<u8>)>, FrameAssembler) {
    let mut source = Scripted {
        bytes: stream,
        script,
        turn: 0,
        largest_offer: 0,
    };
    let mut assembler = FrameAssembler::new();
    let mut frames = Vec::new();
    loop {
        match assembler.fill_from(&mut source) {
            Ok(0) => break,
            Ok(_) => drain_raw(&mut assembler, &mut frames),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ),
                "{e}"
            ),
        }
    }
    (frames, assembler)
}

#[test]
fn scripted_reads_yield_the_frames_push_yields() {
    use std::io::ErrorKind::{Interrupted, WouldBlock};
    let scripts: [&[Step]; 4] = [
        &[Step::Bytes(1)],
        &[Step::FillTail],
        &[
            Step::Bytes(1),
            Step::Fail(WouldBlock),
            Step::FillTail,
            Step::Fail(Interrupted),
            Step::Bytes(7),
            Step::Bytes(1),
            Step::FillTail,
        ],
        &[
            Step::Fail(Interrupted),
            Step::Bytes(300),
            Step::Fail(WouldBlock),
        ],
    ];
    for seed in [0x15C0_C0DE, 1, 2023] {
        let corpus = isgc_net::wire::corpus_messages(seed);
        let stream: Vec<u8> = corpus
            .iter()
            .enumerate()
            .flat_map(|(i, m)| m.encode_for_job(i as u64 % 3))
            .collect();
        let mut pushed = FrameAssembler::new();
        pushed.push(&stream);
        let mut expected = Vec::new();
        drain_raw(&mut pushed, &mut expected);
        assert_eq!(expected.len(), corpus.len());

        for script in scripts {
            let (frames, assembler) = read_like_the_reactor(&stream, script);
            assert_eq!(frames, expected, "seed {seed:#x}");
            assert_eq!(assembler.pending(), 0);
        }
    }
}

#[test]
fn small_frames_never_grow_the_buffer() {
    // The fan-in shape: one 318-byte frame per readiness event, 10,000
    // times over. The connection's buffer stays where it started.
    let frame = Message::Params {
        step: 9,
        values: vec![0.5; 36],
    }
    .encode();
    assert_eq!(frame.len(), 318);
    let stream = frame.repeat(10_000);
    let (frames, assembler) = read_like_the_reactor(&stream, &[Step::Bytes(318)]);
    assert_eq!(frames.len(), 10_000);
    assert!(
        assembler.capacity() <= 8 * 1024,
        "capacity {}",
        assembler.capacity()
    );

    let mut pushed = FrameAssembler::new();
    for _ in 0..10_000 {
        pushed.push(&frame);
        assert!(pushed.next_frame().expect("valid").is_some());
    }
    assert!(
        pushed.capacity() <= 8 * 1024,
        "capacity {}",
        pushed.capacity()
    );
}

#[test]
fn a_large_frame_reserves_its_size_once() {
    // wide-d65k's upload: 524 KB arriving in 64 KiB pieces. The header in
    // the first piece sizes the buffer exactly; nothing doubles to 1 MiB.
    let message = Message::Codeword {
        worker: 3,
        step: 1,
        values: (0..65_552).map(f64::from).collect(),
    };
    let frame = message.encode();
    assert!(frame.len() > 512 * 1024);
    let (frames, assembler) = read_like_the_reactor(&frame, &[Step::Bytes(64 * 1024)]);
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].1, frame[isgc_net::wire::HEADER_LEN..]);
    assert!(
        assembler.capacity() <= frame.len() + 64 * 1024,
        "capacity {} for a {} byte frame",
        assembler.capacity(),
        frame.len()
    );

    let mut pushed = FrameAssembler::new();
    for piece in frame.chunks(64 * 1024) {
        pushed.push(piece);
    }
    assert!(pushed.next_frame().expect("valid").is_some());
    assert!(pushed.capacity() <= frame.len() + 64 * 1024);
}

#[test]
fn an_over_clamp_header_is_refused_before_any_reservation() {
    let frame = Message::Codeword {
        worker: 0,
        step: 0,
        values: vec![1.0; 65_552],
    }
    .encode();
    let mut source = Scripted {
        bytes: &frame,
        script: &[Step::Bytes(64 * 1024)],
        turn: 0,
        largest_offer: 0,
    };
    let mut assembler = FrameAssembler::with_max_frame(64 * 1024);
    // The header is buffered by the first read; the reads after it must not
    // size the buffer by what it claims.
    for _ in 0..3 {
        assembler.fill_from(&mut source).expect("in-memory read");
    }
    assert!(source.largest_offer <= 64 * 1024);
    assert!(assembler.capacity() <= 64 * 1024);
    assert!(matches!(
        assembler.next_frame(),
        Err(isgc_net::wire::WireError::FrameTooLarge { max, .. }) if max == 64 * 1024
    ));
}
