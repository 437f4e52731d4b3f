//! The IS-GC wire protocol: hand-rolled, length-prefixed binary frames.
//!
//! Every frame is
//!
//! ```text
//! +----------+---------+---------+-------------+--------------------+
//! | magic    | version | job id  | payload len | payload            |
//! | "ISGC"   | u8 = 2  | u64 LE  | u32 LE      | tag u8 + body      |
//! +----------+---------+---------+-------------+--------------------+
//! ```
//!
//! The job id scopes every frame to one tenant job of a multi-job server
//! (version 2; version 1 had no job field): a master drops frames tagged
//! with a foreign job instead of letting a misconfigured worker feed
//! codewords into another tenant's training run. Single-job deployments
//! use job id 0 throughout.
//!
//! Multi-byte integers are little-endian; `f64` vectors are a `u32` element
//! count followed by IEEE-754 bit patterns. Decoding is strict: a frame with
//! an unknown tag, an inner length that disagrees with the payload length,
//! or trailing bytes is rejected with a typed [`WireError`] — never a panic —
//! so a corrupt or malicious peer cannot take down the master.

use std::fmt;
use std::io::{self, Read, Write};

use isgc_core::hash::{mix64, GOLDEN_GAMMA};

/// Leading bytes of every frame.
pub const MAGIC: [u8; 4] = *b"ISGC";

/// Protocol version; bumped on any incompatible change (2 added the job id
/// header field). Tags 8–10 carried the retired aggregation-tree messages
/// and now decode as [`WireError::UnknownTag`].
pub const VERSION: u8 = 2;

/// Length of the fixed frame header: magic + version + job id + payload len.
pub const HEADER_LEN: usize = 17;

/// Upper bound on the payload length field (64 MiB): anything larger is
/// treated as a corrupt frame instead of an allocation request.
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// Everything that can go wrong reading or writing a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame used a protocol version this build does not speak.
    UnsupportedVersion(u8),
    /// The payload length field exceeded [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The payload length field exceeded the receiving connection's
    /// configured clamp (see [`FrameAssembler::with_max_frame`]) — a frame
    /// that may be protocol-legal elsewhere but is an allocation request
    /// this peer refuses to honor.
    FrameTooLarge {
        /// The length the frame header requested.
        len: u32,
        /// The clamp it exceeded.
        max: u32,
    },
    /// The payload's message tag is not a known [`Message`] variant.
    UnknownTag(u8),
    /// The payload ended before the message body was complete.
    Truncated,
    /// The payload kept going after the message body was complete.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Oversized(len) => write!(f, "frame payload of {len} bytes exceeds limit"),
            WireError::FrameTooLarge { len, max } => write!(
                f,
                "frame payload of {len} bytes exceeds this connection's clamp of {max}"
            ),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Truncated => write!(f, "truncated message body"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message body"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Everything master and workers say to each other.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker → master: first message on a fresh connection. `preferred` is
    /// the worker's previous id when reconnecting, `None` on first contact.
    Hello {
        /// Slot the worker wants back after a reconnect.
        preferred: Option<u64>,
    },
    /// Master → worker: registration reply carrying the worker's assignment.
    Assign {
        /// The slot this connection now owns.
        worker: u64,
        /// Total number of workers (and partitions) in the cluster.
        n: u64,
        /// Partitions stored per worker.
        c: u64,
        /// Mini-batch size per partition per step.
        batch_size: u64,
        /// Seed shared by master and workers for datasets and batches.
        seed: u64,
        /// The data partitions this worker computes each step.
        partitions: Vec<u64>,
    },
    /// Master → worker: fresh parameters; compute step `step` on them.
    Params {
        /// Step the parameters belong to (tags the reply).
        step: u64,
        /// The flat parameter vector.
        values: Vec<f64>,
    },
    /// Worker → master: one coded gradient for `step`.
    Codeword {
        /// Sender's slot.
        worker: u64,
        /// Step this codeword was computed for.
        step: u64,
        /// The summed per-partition gradient vector.
        values: Vec<f64>,
    },
    /// Worker → master: liveness signal, sent on an interval.
    Heartbeat {
        /// Sender's slot.
        worker: u64,
    },
    /// Master → worker: training is over; disconnect and exit.
    Shutdown,
    /// Worker → master: "I will not contribute a codeword for `step`" —
    /// a fast-fail straggler signal, so the master can stop counting this
    /// worker toward the step's wait target immediately instead of burning
    /// a heartbeat timeout on it.
    Decline {
        /// Sender's slot.
        worker: u64,
        /// The step being sat out.
        step: u64,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_ASSIGN: u8 = 2;
const TAG_PARAMS: u8 = 3;
const TAG_CODEWORD: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_DECLINE: u8 = 7;

impl Message {
    /// Serializes the message as one complete frame for job 0 — the
    /// single-job deployments' shorthand for [`Message::encode_for_job`].
    pub fn encode(&self) -> Vec<u8> {
        self.encode_for_job(0)
    }

    /// Serializes the message as one complete frame (header + payload)
    /// scoped to `job`.
    pub fn encode_for_job(&self, job: u64) -> Vec<u8> {
        framed(job, |buf| match self {
            Message::Hello { preferred } => {
                buf.push(TAG_HELLO);
                buf.push(u8::from(preferred.is_some()));
                put_u64(buf, preferred.unwrap_or(0));
            }
            Message::Assign {
                worker,
                n,
                c,
                batch_size,
                seed,
                partitions,
            } => {
                buf.push(TAG_ASSIGN);
                for x in [worker, n, c, batch_size, seed] {
                    put_u64(buf, *x);
                }
                put_u64_vec(buf, partitions);
            }
            Message::Params { step, values } => put_params(buf, *step, values),
            Message::Codeword {
                worker,
                step,
                values,
            } => {
                buf.push(TAG_CODEWORD);
                put_u64(buf, *worker);
                put_u64(buf, *step);
                put_f64_vec(buf, values);
            }
            Message::Heartbeat { worker } => {
                buf.push(TAG_HEARTBEAT);
                put_u64(buf, *worker);
            }
            Message::Shutdown => buf.push(TAG_SHUTDOWN),
            Message::Decline { worker, step } => {
                buf.push(TAG_DECLINE);
                put_u64(buf, *worker);
                put_u64(buf, *step);
            }
        })
    }

    /// Parses one frame from the front of `bytes`, returning the message and
    /// the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// Any malformed input — short buffer, bad magic, foreign version,
    /// oversized or inconsistent lengths, unknown tag, trailing bytes —
    /// yields the corresponding [`WireError`] without panicking.
    pub fn decode(bytes: &[u8]) -> Result<(Message, usize), WireError> {
        Self::decode_tagged(bytes).map(|(_, message, used)| (message, used))
    }

    /// [`Message::decode`] also returning the frame's job id.
    ///
    /// # Errors
    ///
    /// As [`Message::decode`].
    pub fn decode_tagged(bytes: &[u8]) -> Result<(u64, Message, usize), WireError> {
        let Some(header) = bytes.first_chunk() else {
            return Err(WireError::Truncated);
        };
        let (job, len) = parse_header(header)?;
        let len = len as usize;
        if bytes.len() < HEADER_LEN + len {
            return Err(WireError::Truncated);
        }
        let message = Self::decode_payload(&bytes[HEADER_LEN..HEADER_LEN + len])?;
        Ok((job, message, HEADER_LEN + len))
    }

    /// Parses a frame payload (tag byte + body) — the slice a
    /// [`FrameAssembler`] yields per complete frame.
    ///
    /// # Errors
    ///
    /// As [`Message::decode`], minus the header errors (the assembler
    /// already validated those).
    pub fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
        let mut cursor = Cursor::new(payload);
        let tag = cursor.u8()?;
        let message = match tag {
            TAG_HELLO => {
                let flag = cursor.u8()?;
                let id = cursor.u64()?;
                Message::Hello {
                    preferred: (flag != 0).then_some(id),
                }
            }
            TAG_ASSIGN => Message::Assign {
                worker: cursor.u64()?,
                n: cursor.u64()?,
                c: cursor.u64()?,
                batch_size: cursor.u64()?,
                seed: cursor.u64()?,
                partitions: cursor.u64_vec()?,
            },
            TAG_PARAMS => Message::Params {
                step: cursor.u64()?,
                values: cursor.f64_vec()?,
            },
            TAG_CODEWORD => Message::Codeword {
                worker: cursor.u64()?,
                step: cursor.u64()?,
                values: cursor.f64_vec()?,
            },
            TAG_HEARTBEAT => Message::Heartbeat {
                worker: cursor.u64()?,
            },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_DECLINE => Message::Decline {
                worker: cursor.u64()?,
                step: cursor.u64()?,
            },
            other => return Err(WireError::UnknownTag(other)),
        };
        if cursor.remaining() != 0 {
            return Err(WireError::TrailingBytes(cursor.remaining()));
        }
        Ok(message)
    }
}

/// Writes one framed message to `w` and flushes it, returning the number of
/// bytes put on the wire (header + payload).
///
/// # Errors
///
/// Propagates transport failures as [`WireError::Io`].
pub fn write_message(w: &mut impl Write, message: &Message) -> Result<usize, WireError> {
    write_message_for_job(w, 0, message)
}

/// [`write_message`] scoped to a job id.
///
/// # Errors
///
/// Propagates transport failures as [`WireError::Io`].
pub fn write_message_for_job(
    w: &mut impl Write,
    job: u64,
    message: &Message,
) -> Result<usize, WireError> {
    write_frame(w, &message.encode_for_job(job))
}

/// Writes one already-encoded frame and flushes it — the buffer-reuse path:
/// a master broadcasting to `n` workers encodes once and writes the same
/// bytes `n` times instead of re-serializing per peer.
///
/// # Errors
///
/// Propagates transport failures as [`WireError::Io`].
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<usize, WireError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Reads exactly one framed message from `r`.
///
/// # Errors
///
/// [`WireError::Closed`] when the peer shut down cleanly between frames;
/// otherwise any [`WireError`] a malformed frame produces.
pub fn read_message(r: &mut impl Read) -> Result<Message, WireError> {
    read_message_sized(r).map(|(message, _)| message)
}

/// Reads exactly one framed message from `r`, also returning the frame size
/// in bytes (header + payload) — the master's byte counters feed on this.
///
/// # Errors
///
/// As [`read_message`].
pub fn read_message_sized(r: &mut impl Read) -> Result<(Message, usize), WireError> {
    read_message_tagged(r).map(|(_, message, bytes)| (message, bytes))
}

/// Validates a frame header — magic, then version, then a payload length
/// within [`MAX_PAYLOAD`] — into `(job, payload length)`: the one place the
/// header layout is read.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u64, u32), WireError> {
    let magic: [u8; 4] = header[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[4] != VERSION {
        return Err(WireError::UnsupportedVersion(header[4]));
    }
    let job = u64::from_le_bytes(header[5..13].try_into().expect("8-byte slice"));
    let len = u32::from_le_bytes(header[13..17].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok((job, len))
}

/// [`read_message_sized`] also returning the frame's job id, so a server
/// can reject frames scoped to a foreign tenant.
///
/// # Errors
///
/// As [`read_message`].
pub fn read_message_tagged(r: &mut impl Read) -> Result<(u64, Message, usize), WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish clean EOF (no bytes at a frame boundary) from truncation.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let (job, len) = parse_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    })?;
    let message = Message::decode_payload(&payload)?;
    Ok((job, message, header.len() + payload.len()))
}

/// Encodes a `Params` frame for `job` directly from a borrowed slice —
/// byte-identical to `Message::Params { step, values: values.to_vec() }
/// .encode_for_job(job)` without the intermediate `Vec<f64>` clone. The
/// broadcast hot path calls this once per step with the engine's parameter
/// slice.
pub fn encode_params_frame(job: u64, step: u64, values: &[f64]) -> Vec<u8> {
    framed(job, |buf| put_params(buf, step, values))
}

/// The one header writer: writes a frame for `job` in place — the header,
/// then the payload `body` appends straight after it, then the payload
/// length patched into the header. A vector-carrying body grows the buffer
/// once, to its exact size.
fn framed(job: u64, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::with_capacity(64);
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    put_u64(&mut frame, job);
    put_u32(&mut frame, 0);
    body(&mut frame);
    let len = (frame.len() - HEADER_LEN) as u32;
    frame[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    frame
}

fn put_params(buf: &mut Vec<u8>, step: u64, values: &[f64]) {
    buf.push(TAG_PARAMS);
    put_u64(buf, step);
    put_f64_vec(buf, values);
}

/// The longest codeword one frame can carry: what [`MAX_PAYLOAD`] leaves
/// after the bytes the encoder writes for a codeword's other fields.
pub(crate) fn max_codeword_len() -> usize {
    let empty = Message::Codeword {
        worker: 0,
        step: 0,
        values: Vec::new(),
    };
    (MAX_PAYLOAD as usize + HEADER_LEN - empty.encode().len()) / 8
}

/// One complete frame yielded by [`FrameAssembler::next_frame`], borrowing
/// the assembler's buffer: the payload is read in place, never copied out.
#[derive(Debug)]
pub struct Frame<'a> {
    /// The tenant job id from the frame header.
    pub job: u64,
    /// The frame payload: tag byte + message body.
    pub payload: &'a [u8],
    /// Total frame size on the wire (header + payload).
    pub wire_len: usize,
}

impl Frame<'_> {
    /// Decodes the payload into a [`Message`] (the copying path; codeword
    /// payloads can instead be viewed in place via [`CodewordView`]).
    ///
    /// # Errors
    ///
    /// As [`Message::decode_payload`].
    pub fn message(&self) -> Result<Message, WireError> {
        Message::decode_payload(self.payload)
    }
}

/// Reassembles wire frames from arbitrarily split byte chunks — the state a
/// nonblocking connection keeps between readiness events. Bytes go in via
/// [`FrameAssembler::push`] (or [`FrameAssembler::fill_from`], which hands
/// the transport the buffer's free tail so nothing is copied through an
/// intermediate allocation), complete frames come out of
/// [`FrameAssembler::next_frame`] as in-place payload slices.
///
/// A read costs O(bytes that arrived). The buffer is a fully initialised
/// `Vec` whose live bytes are `start..end`; the tail beyond `end` was
/// zero-filled once, when the buffer grew, and is simply offered again on
/// the next read. It starts at 4 KiB on first use (what an idle connection
/// pins), doubles up to 64 KiB when a read leaves no tail, and jumps
/// straight to a frame's exact size when a buffered header announces one
/// that does not fit. Consumed bytes are reclaimed lazily: both cursors
/// reset when the buffer drains, and a partial frame left behind the
/// consumed ones is moved to the front — once — by the next fill.
///
/// Every assembler clamps the length prefix *before* any allocation
/// happens: the protocol-wide [`MAX_PAYLOAD`] always applies, and
/// [`FrameAssembler::with_max_frame`] tightens it per connection — a peer
/// claiming a larger frame gets a typed [`WireError::FrameTooLarge`]
/// instead of a buffer sized by its header.
#[derive(Debug)]
pub struct FrameAssembler {
    /// Initialised storage; `buf.len()` is what reads may fill up to.
    buf: Vec<u8>,
    /// The live (buffered, unconsumed) bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    /// Largest payload this connection accepts (≤ [`MAX_PAYLOAD`]).
    max_frame: u32,
}

impl Default for FrameAssembler {
    fn default() -> FrameAssembler {
        FrameAssembler {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_frame: MAX_PAYLOAD,
        }
    }
}

/// Buffer size on first use: a dozen gradient-coding uploads of a small
/// model, and what every idle connection costs.
const INITIAL_TAIL: usize = 4 * 1024;

/// Where doubling on full reads stops; only a frame larger than this grows
/// the buffer further (to exactly its size).
const READ_MAX: usize = 64 * 1024;

impl FrameAssembler {
    /// An empty assembler accepting payloads up to [`MAX_PAYLOAD`].
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// An empty assembler clamped to `max_frame` payload bytes (itself
    /// clamped to [`MAX_PAYLOAD`]): a frame whose header claims more is
    /// rejected with [`WireError::FrameTooLarge`] before any allocation.
    pub fn with_max_frame(max_frame: u32) -> FrameAssembler {
        FrameAssembler {
            max_frame: max_frame.min(MAX_PAYLOAD),
            ..FrameAssembler::default()
        }
    }

    /// Bytes buffered but not yet consumed by [`FrameAssembler::next_frame`].
    pub fn pending(&self) -> usize {
        self.end - self.start
    }

    /// Bytes of memory the reassembly buffer holds (tests pin its growth).
    #[doc(hidden)]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Appends raw bytes (a test vector, or a chunk already read elsewhere).
    pub fn push(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Reads once from `r` into the buffer tail, returning how many bytes
    /// arrived (0 means EOF). On a nonblocking source, `WouldBlock` passes
    /// through as the error it is — the caller's readiness loop handles it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `read` error.
    pub fn fill_from(&mut self, r: &mut impl io::Read) -> io::Result<usize> {
        self.make_room(1);
        let k = r.read(&mut self.buf[self.end..])?;
        self.end += k;
        Ok(k)
    }

    /// Leaves at least `need` free bytes after `end`: moves a partial frame
    /// to the front, then grows the buffer if it must (or if the last read
    /// filled it, which says more bytes are waiting). Growth is the only
    /// place new bytes are zero-filled.
    fn make_room(&mut self, need: usize) {
        let was_full = self.end == self.buf.len();
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let len = self.buf.len();
        let floor = self.end + need;
        // A malformed or over-clamp header reserves nothing; `next_frame`
        // reports it.
        let frame = match self.header() {
            Ok(Some((_, payload))) => HEADER_LEN + payload,
            _ => 0,
        };
        let target = if frame > len && frame >= floor {
            frame
        } else if floor > len {
            floor.max(2 * len).max(INITIAL_TAIL)
        } else if was_full {
            (2 * len).min(READ_MAX)
        } else {
            len
        };
        if target > len {
            self.buf.reserve_exact(target - len);
            self.buf.resize(target, 0);
        }
    }

    /// Parses the header at the front of the live bytes into `(job, payload
    /// length)`, applying both size clamps; `Ok(None)` until all
    /// [`HEADER_LEN`] bytes are buffered.
    fn header(&self) -> Result<Option<(u64, usize)>, WireError> {
        let Some(header) = self.buf[self.start..self.end].first_chunk() else {
            return Ok(None);
        };
        let (job, len) = parse_header(header)?;
        if len > self.max_frame {
            return Err(WireError::FrameTooLarge {
                len,
                max: self.max_frame,
            });
        }
        Ok(Some((job, len as usize)))
    }

    /// Yields the next complete frame, or `Ok(None)` when the buffered
    /// bytes end mid-frame (more readiness events will complete it).
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
    /// [`WireError::Oversized`], or [`WireError::FrameTooLarge`] when the
    /// buffered header is malformed or over this connection's clamp —
    /// connection-fatal, since frame boundaries are lost.
    pub fn next_frame(&mut self) -> Result<Option<Frame<'_>>, WireError> {
        let Some((job, len)) = self.header()? else {
            return Ok(None);
        };
        if self.pending() < HEADER_LEN + len {
            return Ok(None);
        }
        let payload_start = self.start + HEADER_LEN;
        self.start = payload_start + len;
        if self.start == self.end {
            // Drained: the next read gets the whole buffer, nothing to move.
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(Frame {
            job,
            payload: &self.buf[payload_start..payload_start + len],
            wire_len: HEADER_LEN + len,
        }))
    }
}

/// A view of a `Codeword` payload in the connection's reassembly buffer:
/// the header fields are parsed, the gradient values stay little-endian
/// bytes until [`CodewordView::to_vec`] decodes them in one pass — no
/// [`Message`] is built around them.
#[derive(Debug)]
pub struct CodewordView<'a> {
    /// The sender's claimed slot.
    pub worker: u64,
    /// The step the codeword was computed for.
    pub step: u64,
    values: &'a [u8],
}

impl<'a> CodewordView<'a> {
    /// Views `payload` as a codeword. Returns `None` when the payload is a
    /// different message kind (fall back to [`Message::decode_payload`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] / [`WireError::TrailingBytes`] when the
    /// payload is a codeword but its body is inconsistent.
    pub fn parse(payload: &'a [u8]) -> Option<Result<CodewordView<'a>, WireError>> {
        if payload.first() != Some(&TAG_CODEWORD) {
            return None;
        }
        let mut cursor = Cursor::new(&payload[1..]);
        Some((|| {
            let worker = cursor.u64()?;
            let step = cursor.u64()?;
            let count = cursor.u32()? as usize;
            let values = cursor.take(count.saturating_mul(8))?;
            if cursor.remaining() != 0 {
                return Err(WireError::TrailingBytes(cursor.remaining()));
            }
            Ok(CodewordView {
                worker,
                step,
                values,
            })
        })())
    }

    /// Decodes every value in one pass over the payload bytes.
    pub fn to_vec(&self) -> Vec<f64> {
        self.values.chunks_exact(8).map(f64_le).collect()
    }

    /// Number of gradient values.
    pub fn len(&self) -> usize {
        self.values.len() / 8
    }

    /// Whether the codeword carries no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Decodes value `i` in place.
    ///
    /// # Panics
    ///
    /// When `i >= self.len()`.
    pub fn value(&self, i: usize) -> f64 {
        f64_le(&self.values[i * 8..i * 8 + 8])
    }
}

// The little-endian codec of the wire and of the checkpoint file: a vector
// is a `u32` count, then each value's 8 bytes. Vectors are converted in one
// pass over a buffer sized once, which the compiler vectorises.

pub(crate) fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

pub(crate) fn put_u64_vec(buf: &mut Vec<u8>, xs: &[u64]) {
    put_words(buf, xs, u64::to_le_bytes);
}

pub(crate) fn put_f64_vec(buf: &mut Vec<u8>, xs: &[f64]) {
    put_words(buf, xs, f64::to_le_bytes);
}

fn put_words<T: Copy>(buf: &mut Vec<u8>, xs: &[T], le: impl Fn(T) -> [u8; 8]) {
    put_u32(buf, xs.len() as u32);
    let start = buf.len();
    buf.resize(start + 8 * xs.len(), 0);
    for (word, &x) in buf[start..].chunks_exact_mut(8).zip(xs) {
        word.copy_from_slice(&le(x));
    }
}

/// Decodes one 8-byte little-endian word (`word.len() == 8`).
pub(crate) fn u64_le(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().expect("8-byte word"))
}

/// Decodes one 8-byte little-endian word (`word.len() == 8`).
pub(crate) fn f64_le(word: &[u8]) -> f64 {
    f64::from_le_bytes(word.try_into().expect("8-byte word"))
}

/// A bounds-checked reader over a payload slice.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte slice"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        self.take(8).map(u64_le)
    }

    /// `count` 8-byte words taken as one slice, so a count the remaining
    /// bytes cannot hold is `Truncated` before anything is allocated.
    pub(crate) fn words<T>(
        &mut self,
        count: usize,
        word: impl Fn(&[u8]) -> T,
    ) -> Result<Vec<T>, WireError> {
        Ok(self
            .take(count.saturating_mul(8))?
            .chunks_exact(8)
            .map(word)
            .collect())
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let count = self.u32()? as usize;
        self.words(count, u64_le)
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let count = self.u32()? as usize;
        self.words(count, f64_le)
    }
}

/// A deterministic corpus of messages covering every wire variant, shared
/// by the wire property tests here and the model checker's conformance
/// tests in `isgc-mc` (the dependency direction — chaos and mc depend on
/// net — puts the shared generator in this crate).
///
/// The same seed always yields byte-identical messages: field values come
/// from a splitmix64 stream, floats are raw bit patterns (NaN payloads,
/// infinities and subnormals included), and every variant appears at least
/// `len / 7` times because the variant index cycles rather than being
/// sampled.
#[must_use]
pub fn corpus_messages(seed: u64) -> Vec<Message> {
    let mut state = seed;
    let mut next = move || -> u64 {
        // splitmix64: the standard seeding PRNG; tiny, full-period, and
        // good enough for corpus generation.
        state = state.wrapping_add(GOLDEN_GAMMA);
        mix64(state)
    };
    (0..80u64)
        .map(|i| {
            let a = next();
            let b = next();
            let ints: Vec<u64> = (0..next() % 16).map(|_| next() % 1024).collect();
            let floats: Vec<f64> = (0..next() % 48).map(|_| f64::from_bits(next())).collect();
            match i % 7 {
                0 => Message::Hello {
                    preferred: (a % 2 == 0).then_some(b),
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
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(message: Message) {
        let frame = message.encode();
        let (decoded, used) = Message::decode(&frame).expect("decode");
        assert_eq!(decoded, message);
        assert_eq!(used, frame.len());
        // Streaming path agrees with the slice path, and both size accounts
        // (reader and writer) report the full frame length.
        let mut reader = io::Cursor::new(frame.clone());
        let (streamed, bytes) = read_message_sized(&mut reader).expect("read");
        assert_eq!(streamed, message);
        assert_eq!(bytes, frame.len());
        let mut sink = Vec::new();
        assert_eq!(
            write_message(&mut sink, &message).expect("write"),
            frame.len()
        );
        assert_eq!(sink, frame);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::Hello { preferred: None });
        roundtrip(Message::Hello { preferred: Some(7) });
        roundtrip(Message::Assign {
            worker: 3,
            n: 8,
            c: 2,
            batch_size: 16,
            seed: 99,
            partitions: vec![3, 4],
        });
        roundtrip(Message::Params {
            step: 12,
            values: vec![0.5, -1.25, f64::MAX, f64::MIN_POSITIVE],
        });
        roundtrip(Message::Codeword {
            worker: 1,
            step: 12,
            values: vec![],
        });
        roundtrip(Message::Heartbeat { worker: 5 });
        roundtrip(Message::Shutdown);
        roundtrip(Message::Decline {
            worker: 6,
            step: 31,
        });
    }

    #[test]
    fn nan_payloads_survive_bitwise() {
        let frame = Message::Params {
            step: 0,
            values: vec![f64::NAN],
        }
        .encode();
        let (decoded, _) = Message::decode(&frame).unwrap();
        match decoded {
            Message::Params { values, .. } => assert!(values[0].is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut frame = Message::Shutdown.encode();
        frame[0] = b'X';
        assert!(matches!(
            Message::decode(&frame),
            Err(WireError::BadMagic(_))
        ));
        let mut frame = Message::Shutdown.encode();
        frame[4] = 9;
        // (version byte position is unchanged from v1)
        assert!(matches!(
            Message::decode(&frame),
            Err(WireError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let frame = Message::Codeword {
            worker: 0,
            step: 3,
            values: vec![1.0, 2.0],
        }
        .encode();
        for cut in 0..frame.len() {
            assert!(
                Message::decode(&frame[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn retired_tree_tags_decode_as_unknown_tags() {
        // Tags 8, 9 and 10 carried the aggregation tree's SubHello,
        // ShardAssign and ShardUpload. A frame still carrying one, with any
        // body, is an unknown tag on every decode path, never a panic.
        for tag in [8u8, 9, 10] {
            for body in [&[][..], &[0; 8][..], &[0xFF; 64][..]] {
                let frame = framed(0, |buf| {
                    buf.push(tag);
                    buf.extend_from_slice(body);
                });
                assert!(matches!(
                    Message::decode(&frame),
                    Err(WireError::UnknownTag(t)) if t == tag
                ));
                assert!(matches!(
                    read_message_sized(&mut io::Cursor::new(&frame)),
                    Err(WireError::UnknownTag(t)) if t == tag
                ));
            }
        }
    }

    #[test]
    fn rejects_unknown_tag_trailing_bytes_and_oversize() {
        let mut frame = Message::Shutdown.encode();
        frame[HEADER_LEN] = 200; // tag byte
        assert!(matches!(
            Message::decode(&frame),
            Err(WireError::UnknownTag(200))
        ));

        let mut frame = Message::Heartbeat { worker: 1 }.encode();
        frame.push(0xAB);
        let len = (frame.len() - HEADER_LEN) as u32;
        frame[13..17].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            Message::decode(&frame),
            Err(WireError::TrailingBytes(1))
        ));

        let mut frame = Message::Shutdown.encode();
        frame[13..17].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            Message::decode(&frame),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn corrupt_vector_count_is_an_error_not_an_alloc() {
        let mut frame = Message::Params {
            step: 1,
            values: vec![1.0],
        }
        .encode();
        // Overwrite the element count (after tag + step) with u32::MAX.
        let count_offset = HEADER_LEN + 1 + 8;
        frame[count_offset..count_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Message::decode(&frame), Err(WireError::Truncated)));
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_is_truncated() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_message(&mut io::Cursor::new(empty)),
            Err(WireError::Closed)
        ));
        let frame = Message::Heartbeat { worker: 2 }.encode();
        let cut = &frame[..5];
        assert!(matches!(
            read_message(&mut io::Cursor::new(cut)),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn params_frame_fast_path_is_byte_identical() {
        let values = vec![0.5, -1.25, f64::NAN, f64::MAX];
        for job in [0u64, 9] {
            for step in [0u64, 3, u64::MAX] {
                let slow = Message::Params {
                    step,
                    values: values.clone(),
                }
                .encode_for_job(job);
                assert_eq!(encode_params_frame(job, step, &values), slow);
            }
        }
        assert_eq!(
            encode_params_frame(1, 2, &[]),
            Message::Params {
                step: 2,
                values: vec![]
            }
            .encode_for_job(1)
        );
    }

    #[test]
    fn assembler_yields_frames_across_any_split() {
        let frame = Message::Codeword {
            worker: 3,
            step: 7,
            values: vec![1.5, -2.5, 0.0],
        }
        .encode_for_job(11);
        for cut in 0..=frame.len() {
            let mut asm = FrameAssembler::new();
            asm.push(&frame[..cut]);
            if cut < frame.len() {
                assert!(asm.next_frame().expect("prefix is well-formed").is_none());
                asm.push(&frame[cut..]);
            }
            let got = asm.next_frame().expect("valid").expect("complete");
            assert_eq!(got.job, 11);
            assert_eq!(got.wire_len, frame.len());
            assert_eq!(
                got.message().expect("payload decodes"),
                Message::Codeword {
                    worker: 3,
                    step: 7,
                    values: vec![1.5, -2.5, 0.0],
                }
            );
            assert_eq!(asm.pending(), 0);
        }
    }

    #[test]
    fn assembler_rejects_corrupt_headers() {
        let mut frame = Message::Shutdown.encode();
        frame[0] = b'X';
        let mut asm = FrameAssembler::new();
        asm.push(&frame);
        assert!(matches!(asm.next_frame(), Err(WireError::BadMagic(_))));

        let mut frame = Message::Shutdown.encode();
        frame[13..17].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut asm = FrameAssembler::new();
        asm.push(&frame);
        assert!(matches!(asm.next_frame(), Err(WireError::Oversized(_))));
    }

    #[test]
    fn assembler_clamps_to_its_configured_max_frame() {
        // A frame comfortably within MAX_PAYLOAD but over the connection's
        // clamp is FrameTooLarge — rejected off the header, before the body
        // even arrives (only HEADER_LEN bytes are buffered here).
        let frame = Message::Params {
            step: 1,
            values: vec![0.0; 64],
        }
        .encode();
        let payload_len = (frame.len() - HEADER_LEN) as u32;
        let mut asm = FrameAssembler::with_max_frame(payload_len - 1);
        asm.push(&frame[..HEADER_LEN]);
        assert!(matches!(
            asm.next_frame(),
            Err(WireError::FrameTooLarge { len, max })
                if len == payload_len && max == payload_len - 1
        ));

        // At exactly the clamp the frame passes.
        let mut asm = FrameAssembler::with_max_frame(payload_len);
        asm.push(&frame);
        let got = asm.next_frame().expect("within clamp").expect("complete");
        assert_eq!(got.wire_len, frame.len());

        // The clamp can never exceed the protocol-wide bound.
        let asm = FrameAssembler::with_max_frame(u32::MAX);
        assert_eq!(asm.max_frame, MAX_PAYLOAD);
    }

    /// A reader that scribbles over the whole tail it is offered, reports
    /// `claim` bytes read, and records what each offered tail held.
    struct Scribbler {
        claim: usize,
        offered: Vec<Vec<u8>>,
    }

    impl io::Read for Scribbler {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.offered.push(out.to_vec());
            out.fill(0xAB);
            Ok(self.claim.min(out.len()))
        }
    }

    #[test]
    fn fill_offers_the_old_tail_again_instead_of_a_zeroed_one() {
        // `Read` lets an implementation write past what it reports; if the
        // assembler re-initialised its tail per call the second offer would
        // be zeros. It is the first offer's leftovers: nothing was touched
        // but the byte that "arrived".
        let mut source = Scribbler {
            claim: 1,
            offered: Vec::new(),
        };
        let mut asm = FrameAssembler::new();
        assert_eq!(asm.capacity(), 0, "nothing is allocated before first use");
        assert_eq!(asm.fill_from(&mut source).expect("read"), 1);
        assert_eq!(asm.fill_from(&mut source).expect("read"), 1);
        assert_eq!(asm.pending(), 2);
        assert_eq!(source.offered[0], vec![0; INITIAL_TAIL]);
        assert_eq!(source.offered[1], vec![0xAB; INITIAL_TAIL - 1]);
    }

    #[test]
    fn full_reads_double_the_buffer_up_to_the_read_cap() {
        // A backlog of small frames: every read fills the offered tail, the
        // caller drains the complete frames, a partial one stays behind.
        let frame = Message::Heartbeat { worker: 1 }.encode();
        let backlog: Vec<u8> = frame.iter().copied().cycle().take(1 << 20).collect();
        let mut source: &[u8] = &backlog;
        let mut asm = FrameAssembler::new();
        let mut kib = Vec::new();
        for _ in 0..7 {
            asm.fill_from(&mut source).expect("in-memory read");
            while asm.next_frame().expect("valid").is_some() {}
            kib.push(asm.capacity() / 1024);
        }
        assert_eq!(kib, vec![4, 8, 16, 32, 64, 64, 64]);
    }

    #[test]
    fn a_partial_frame_moves_to_the_front_once_and_cursors_reset_on_drain() {
        let a = Message::Heartbeat { worker: 1 }.encode();
        let b = Message::Decline { worker: 2, step: 3 }.encode();
        let mut asm = FrameAssembler::new();
        asm.push(&a);
        asm.push(&b[..5]);
        assert!(asm.next_frame().expect("valid").is_some());
        assert_eq!((asm.start, asm.end), (a.len(), a.len() + 5));
        asm.push(&b[5..]);
        assert_eq!((asm.start, asm.end), (0, b.len()));
        let got = asm.next_frame().expect("valid").expect("complete");
        assert_eq!(
            got.message().expect("decodes"),
            Message::Decline { worker: 2, step: 3 }
        );
        assert_eq!((asm.start, asm.end), (0, 0));
        assert_eq!(asm.capacity(), INITIAL_TAIL);
    }

    #[test]
    fn codeword_view_matches_copying_decode() {
        let message = Message::Codeword {
            worker: 5,
            step: 12,
            values: vec![1.0, -0.5, f64::MIN_POSITIVE, f64::NAN],
        };
        let frame = message.encode_for_job(2);
        let payload = &frame[HEADER_LEN..];
        let view = CodewordView::parse(payload)
            .expect("is a codeword")
            .expect("well-formed");
        assert_eq!((view.worker, view.step, view.len()), (5, 12, 4));
        assert!(!view.is_empty());
        let Message::Codeword { values, .. } = message else {
            unreachable!()
        };
        for (i, v) in values.iter().enumerate() {
            assert_eq!(view.value(i).to_bits(), v.to_bits());
        }

        // Non-codeword payloads are None, truncated bodies are errors.
        let other = Message::Heartbeat { worker: 1 }.encode();
        assert!(CodewordView::parse(&other[HEADER_LEN..]).is_none());
        let short = &payload[..payload.len() - 1];
        assert!(CodewordView::parse(short).expect("codeword tag").is_err());
    }

    #[test]
    fn back_to_back_frames_parse_in_sequence() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&Message::Heartbeat { worker: 1 }.encode());
        stream.extend_from_slice(&Message::Shutdown.encode());
        let (first, used) = Message::decode(&stream).unwrap();
        assert_eq!(first, Message::Heartbeat { worker: 1 });
        let (second, used2) = Message::decode(&stream[used..]).unwrap();
        assert_eq!(second, Message::Shutdown);
        assert_eq!(used + used2, stream.len());
    }
}
