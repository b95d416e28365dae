//! Length-prefixed frame codec for the multi-process engine backend.
//!
//! The [`ProcessSimulator`](crate::ProcessSimulator) forks one child
//! process per shard and speaks this protocol over a Unix-domain socket
//! pair.  Everything that crosses the process boundary — a round's
//! sends and deliveries, per-round counters, shutdown — is one
//! [`Frame`]:
//!
//! ```text
//!  offset  size  field
//!  ------  ----  -----------------------------------------------
//!   0..2     2   magic  b"PS"
//!   2        1   kind   (FrameKind as u8)
//!   3..5     2   shard  (LE u16: sender/addressee shard index)
//!   5..9     4   epoch  (LE u32: round counter at emission)
//!   9..13    4   count  (LE u32: cell-run count, kind-specific)
//!  13..17    4   len    (LE u32: payload byte length)
//!  17..21    4   crc    (LE u32: CRC-32/IEEE over bytes[2..17] ++ payload)
//!  21..     len  payload
//! ```
//!
//! The header is fixed at [`HEADER_LEN`] bytes so a transport can frame
//! the stream without interpreting the payload; all validation beyond
//! the magic and the length bound happens in [`FrameView::parse`],
//! which rejects torn frames ([`WireError::Truncated`]), bit rot
//! ([`WireError::ChecksumMismatch`]) and unknown kinds.  Cells ride as
//! LEB128 varints in the same ascending-edge order the splice buffers
//! already guarantee, so a `Sends` payload is byte-deterministic for a
//! given round.
//!
//! The codec has one borrowed core and thin owned wrappers around it.
//! The engine's round path builds each frame in place in a reused
//! [`FrameBuf`] and reads received frames through [`FrameView`] and
//! [`CellReader`], which borrow their payloads: no allocation and one
//! copy per payload byte on either side.  [`Frame`], [`WireCell`],
//! [`Frame::encode`]/[`Frame::decode`] and
//! [`encode_cells`]/[`decode_cells`] produce the same bytes and apply
//! the same checks on owned values, for tests and tools.
//!
//! # Failure semantics
//!
//! Every transport fault maps to a deterministic [`WireError`] and is
//! surfaced by the engine as an [`EngineError`] naming the shard — the
//! parent never hangs (barrier reads are bounded by a timeout) and
//! never delivers a wrong answer (a frame either authenticates whole or
//! the round aborts).  After any `recv` failure a stream transport is
//! **poisoned**: the frame boundary can no longer be trusted, so every
//! later `recv` replays the first error instead of misparsing payload
//! bytes as a header.  [`FaultyTransport`] is the test shim that proves
//! this: it truncates, corrupts, duplicates or reorders exactly one
//! frame at a chosen point in the stream.
//!
//! # Transports
//!
//! One production transport carries the codec: [`StreamTransport`], a
//! Unix socket pair.  The child's first frame is a `Hello` carrying
//! [`PROTOCOL_VERSION`], so a version-skewed child is rejected before
//! any protocol traffic flows.
//!
//! The frame layout is pinned by golden-byte tests
//! (`tests/wire_codec.rs`); bump [`PROTOCOL_VERSION`] on any change.

use std::any::{Any, TypeId};
use std::collections::VecDeque;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Leading two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"PS";
/// Fixed frame-header length in bytes (magic through checksum).
pub const HEADER_LEN: usize = 21;
/// Upper bound on a single frame payload; anything larger is rejected
/// before allocation so a corrupt length field cannot OOM the parent.
pub const MAX_PAYLOAD: usize = 256 << 20;
/// Largest single read a transport `recv` issues while assembling a
/// frame.  The length field is only authenticated by the CRC *after*
/// the payload arrives, so the buffer grows chunk by chunk — a
/// corrupted header claiming [`MAX_PAYLOAD`] can never force a
/// quarter-GiB allocation up front; memory tracks bytes actually
/// received.
pub const RECV_CHUNK: usize = 64 << 10;
/// Version negotiated in the `Hello` frame payload.  Version 4 retired
/// kind byte 4, the round barrier, and fixed `RoundStats`' transfer time
/// at 8 bytes; version 3 retired kind byte 9, a shard snapshot.  A frame
/// of kind 4 or 9 is [`WireError::UnknownKind`].
pub const PROTOCOL_VERSION: u64 = 4;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// and `CRC_TABLES[k][b]` is the CRC register after byte `b` followed by
/// `k` zero bytes, so eight input bytes fold into the register with
/// eight independent lookups instead of eight dependent ones.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Folds `bytes` into the (pre-inverted) CRC register `c`.
fn crc_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ u32::from(b)) & 0xFF) as usize];
    }
    c
}

/// CRC-32/IEEE over the concatenation of `parts`.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts
        .iter()
        .fold(0xFFFF_FFFFu32, |c, part| crc_update(c, part))
}

// ---------------------------------------------------------------------------
// LEB128 varints
// ---------------------------------------------------------------------------

/// Appends `v` to `out` as an unsigned LEB128 varint (1–10 bytes).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from the front of `bytes`, advancing it.
///
/// Only canonical encodings are accepted: a continuation-padded form
/// like `[0x80, 0x00]` (value 0 spelled in two bytes) is a
/// [`WireError::Varint`], never an alias of `[0x00]`.  This keeps
/// decode∘encode injective — distinct frame bytes cannot decode to
/// identical cells — which the checksum alone does not guarantee for
/// payloads assembled outside [`put_varint`].
#[inline]
pub fn get_varint(bytes: &mut &[u8]) -> Result<u64, WireError> {
    let b = *bytes;
    let mut v: u64 = 0;
    let mut i = 0usize;
    while let Some(&byte) = b.get(i) {
        // At most 10 bytes are read, so `i` fits a u32.
        let shift = 7 * i as u32;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(WireError::Varint);
        }
        v |= u64::from(byte & 0x7F) << shift;
        i += 1;
        if byte & 0x80 == 0 {
            // A terminal 0x00 after at least one continuation byte is
            // the non-canonical padding form; `put_varint` never emits
            // it.
            if byte == 0 && shift > 0 {
                return Err(WireError::Varint);
            }
            *bytes = &b[i..];
            return Ok(v);
        }
    }
    Err(WireError::Varint)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Everything that can go wrong on the wire.  Each variant is
/// deterministic for a given fault: the same torn frame always decodes
/// to the same error, which is what the fault-injection wall pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame did not start with [`MAGIC`].
    BadMagic,
    /// Header `kind` byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// Fewer bytes on the wire than the header's length field claims.
    Truncated,
    /// CRC-32 over header fields + payload did not authenticate.
    ChecksumMismatch,
    /// Length field exceeds [`MAX_PAYLOAD`].
    Oversize(usize),
    /// Peer closed the socket (child death, or parent gone from the
    /// child's perspective).
    Eof,
    /// A bounded read expired before a frame arrived.
    Timeout,
    /// Any other I/O failure, stringified.
    Io(String),
    /// Frame carried the wrong round epoch.
    EpochMismatch { want: u32, got: u32 },
    /// Protocol-state violation: the peer sent a valid frame of the
    /// wrong kind (duplicated or reordered traffic).
    UnexpectedKind { want: FrameKind, got: FrameKind },
    /// Frame addressed to / sent by the wrong shard.
    ShardMismatch { want: u16, got: u16 },
    /// `Hello` handshake carried a different [`PROTOCOL_VERSION`].
    VersionSkew { want: u64, got: u64 },
    /// Malformed varint in a payload.
    Varint,
    /// Payload did not decode under the expected schema.
    Payload,
    /// The child reported a protocol error of its own (an `Error`
    /// frame) before exiting.
    ChildError(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Oversize(n) => write!(f, "oversize frame ({n} bytes)"),
            WireError::Eof => write!(f, "socket closed"),
            WireError::Timeout => write!(f, "read timed out"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::EpochMismatch { want, got } => {
                write!(f, "epoch mismatch (want {want}, got {got})")
            }
            WireError::UnexpectedKind { want, got } => {
                write!(f, "unexpected frame (want {want:?}, got {got:?})")
            }
            WireError::ShardMismatch { want, got } => {
                write!(f, "shard mismatch (want {want}, got {got})")
            }
            WireError::VersionSkew { want, got } => {
                write!(f, "protocol version skew (want {want}, got {got})")
            }
            WireError::Varint => write!(f, "malformed varint"),
            WireError::Payload => write!(f, "malformed payload"),
            WireError::ChildError(e) => write!(f, "child reported: {e}"),
        }
    }
}

/// A wire failure attributed to the shard whose channel produced it.
/// This is the error named in the engine contract
/// (`powersparse_congest::engine` rustdoc): every transport fault the
/// process backend can hit surfaces as one of these, rendered through
/// the stable [`Display`](fmt::Display) below.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    /// Shard whose socket the failure was observed on.
    pub shard: usize,
    /// The underlying wire fault.
    pub error: WireError,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.shard;
        match &self.error {
            WireError::Eof => {
                write!(
                    f,
                    "process engine: child for shard {s} died mid-round (socket closed)"
                )
            }
            WireError::Timeout => {
                write!(f, "process engine: barrier timeout waiting on shard {s}")
            }
            e => write!(f, "process engine: shard {s}: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Discriminant of every protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Child → parent, once after fork: payload = varint
    /// [`PROTOCOL_VERSION`].
    Hello = 1,
    /// Parent → child, at `phase::<M>()`, no payload: the child drops
    /// everything its core queues, keeping capacity.
    PhaseStart = 2,
    /// Parent → child, once per executed round (even when empty):
    /// `count` cells of enqueue traffic for the child's edge slice; the
    /// child runs its transfer and replies.
    Sends = 3,
    /// Child → parent: `count` delivered cells in ascending local-edge
    /// order.
    Deliveries = 5,
    /// Child → parent: four per-round gauges as varints — messages
    /// queued at transfer start, peak single-edge queue depth, active
    /// edges after the transfer, messages still queued after it — then
    /// the child's transfer time in nanoseconds as 8 little-endian
    /// bytes, so the frame's length does not follow the clock.
    RoundStats = 6,
    /// Parent → child: exit cleanly.
    Shutdown = 7,
    /// Child → parent: the child hit a protocol error; payload is a
    /// UTF-8 description.  The child exits after sending it.
    Error = 8,
}

impl FrameKind {
    fn from_u8(k: u8) -> Result<Self, WireError> {
        Ok(match k {
            1 => FrameKind::Hello,
            2 => FrameKind::PhaseStart,
            3 => FrameKind::Sends,
            5 => FrameKind::Deliveries,
            6 => FrameKind::RoundStats,
            7 => FrameKind::Shutdown,
            8 => FrameKind::Error,
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

/// One protocol message; see the module docs for the byte layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub kind: FrameKind,
    pub shard: u16,
    pub epoch: u32,
    pub count: u32,
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-free frame (phase starts, shutdown).
    pub fn control(kind: FrameKind, shard: u16, epoch: u32) -> Self {
        Frame {
            kind,
            shard,
            epoch,
            count: 0,
            payload: Vec::new(),
        }
    }

    /// Serializes the frame; the inverse of [`Frame::decode`].
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.resize(HEADER_LEN, 0);
        out.extend_from_slice(&self.payload);
        seal_header(&mut out, self.kind, self.shard, self.epoch, self.count);
        out
    }

    /// Parses and authenticates one encoded frame into an owned copy;
    /// see [`FrameView::parse`] for the checks.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        FrameView::parse(bytes).map(Frame::from)
    }
}

impl From<FrameView<'_>> for Frame {
    fn from(f: FrameView<'_>) -> Self {
        Frame {
            kind: f.kind,
            shard: f.shard,
            epoch: f.epoch,
            count: f.count,
            payload: f.payload.to_vec(),
        }
    }
}

/// Writes the header of `frame` (`HEADER_LEN` placeholder bytes followed
/// by the payload): every field, the payload length, and the checksum
/// over both.
fn seal_header(frame: &mut [u8], kind: FrameKind, shard: u16, epoch: u32, count: u32) {
    let len = (frame.len() - HEADER_LEN) as u32;
    frame[0..2].copy_from_slice(&MAGIC);
    frame[2] = kind as u8;
    frame[3..5].copy_from_slice(&shard.to_le_bytes());
    frame[5..9].copy_from_slice(&epoch.to_le_bytes());
    frame[9..13].copy_from_slice(&count.to_le_bytes());
    frame[13..17].copy_from_slice(&len.to_le_bytes());
    let crc = crc32_parts(&[&frame[2..17], &frame[HEADER_LEN..]]);
    frame[17..21].copy_from_slice(&crc.to_le_bytes());
}

/// One authenticated frame, borrowed from the bytes it was parsed from:
/// the header fields plus the payload slice, with nothing copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    pub kind: FrameKind,
    pub shard: u16,
    pub epoch: u32,
    pub count: u32,
    pub payload: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Parses and authenticates one encoded frame.  Rejects bad magic,
    /// unknown kinds, oversize or short buffers and checksum failures —
    /// a torn or corrupted frame can never decode to the wrong message.
    /// Bytes past the declared payload length are ignored.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        if bytes.len() < HEADER_LEN {
            if bytes.len() >= 2 && bytes[0..2] != MAGIC {
                return Err(WireError::BadMagic);
            }
            return Err(WireError::Truncated);
        }
        if bytes[0..2] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let kind = FrameKind::from_u8(bytes[2])?;
        let shard = u16::from_le_bytes([bytes[3], bytes[4]]);
        let epoch = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]);
        let count = u32::from_le_bytes([bytes[9], bytes[10], bytes[11], bytes[12]]);
        let len = u32::from_le_bytes([bytes[13], bytes[14], bytes[15], bytes[16]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversize(len));
        }
        if bytes.len() < HEADER_LEN + len {
            return Err(WireError::Truncated);
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + len];
        let want_crc = u32::from_le_bytes([bytes[17], bytes[18], bytes[19], bytes[20]]);
        if crc32_parts(&[&bytes[2..17], payload]) != want_crc {
            return Err(WireError::ChecksumMismatch);
        }
        Ok(FrameView {
            kind,
            shard,
            epoch,
            count,
            payload,
        })
    }

    /// The payload read as a run of exactly `count` cells.
    pub fn cells(&self) -> CellReader<'a> {
        CellReader::new(self.payload, self.count as usize)
    }

    /// Length of the frame's encoding: header plus payload.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

/// A frame assembled in place in a reusable buffer.
/// [`FrameBuf::begin`] reserves the header, varints and cells are
/// appended behind it, and [`FrameBuf::seal`] fills in the header and
/// checksum.  The sealed bytes equal [`Frame::encode`] of the same
/// header and payload, with `count` the number of cells pushed; each
/// payload byte is written once, and the buffer keeps its capacity from
/// frame to frame.
#[derive(Debug, Default)]
pub struct FrameBuf {
    bytes: Vec<u8>,
    cells: u32,
}

impl FrameBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new, empty frame (reusing the buffer).
    pub fn begin(&mut self) {
        self.bytes.clear();
        self.bytes.resize(HEADER_LEN, 0);
        self.cells = 0;
    }

    /// Appends one varint to the payload (not counted as a cell).
    pub fn put_varint(&mut self, v: u64) {
        put_varint(&mut self.bytes, v);
    }

    /// Appends `v` as 8 little-endian bytes, a width no value moves.
    pub(crate) fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one cell carrying `payload`.
    pub fn push_cell(&mut self, edge: u64, bits: u64, from: u32, payload: &[u8]) {
        put_cell(&mut self.bytes, edge, bits, from, payload);
        self.cells += 1;
    }

    /// Appends one cell whose payload `write` appends to the buffer in
    /// place; the bytes equal [`FrameBuf::push_cell`] of the same
    /// payload.
    pub fn push_cell_with(
        &mut self,
        edge: u64,
        bits: u64,
        from: u32,
        write: impl FnOnce(&mut Vec<u8>),
    ) {
        put_cell_with(&mut self.bytes, edge, bits, from, write);
        self.cells += 1;
    }

    /// Finishes the frame and returns its encoded bytes.
    pub fn seal(&mut self, kind: FrameKind, shard: u16, epoch: u32) -> &[u8] {
        assert!(
            self.bytes.len() >= HEADER_LEN,
            "FrameBuf::seal before begin"
        );
        seal_header(&mut self.bytes, kind, shard, epoch, self.cells);
        &self.bytes
    }
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// A bidirectional, frame-granular byte channel.  `send` writes one
/// encoded frame; `recv` returns exactly one encoded frame (header +
/// payload) without validating anything beyond the magic and the
/// length bound — authentication happens in [`Frame::decode`] so test
/// shims can hand back corrupted bytes.
pub trait Transport: Send {
    fn send(&mut self, bytes: &[u8]) -> Result<(), WireError>;
    fn recv(&mut self) -> Result<Vec<u8>, WireError>;
    /// Bounds subsequent `recv` calls; `None` blocks forever.  Default
    /// is a no-op for transports without a clock.
    fn set_timeout(&mut self, _timeout: Option<Duration>) {}
}

pub(crate) fn io_err(e: std::io::Error) -> WireError {
    match e.kind() {
        ErrorKind::UnexpectedEof | ErrorKind::BrokenPipe | ErrorKind::ConnectionReset => {
            WireError::Eof
        }
        ErrorKind::WouldBlock | ErrorKind::TimedOut => WireError::Timeout,
        _ => WireError::Io(e.to_string()),
    }
}

/// Reads one frame (header + payload) off `r`, growing the buffer in
/// [`RECV_CHUNK`]-byte steps so the untrusted length field never
/// triggers an allocation larger than the bytes actually on the wire.
/// The framing under [`StreamTransport`]; no single `read` call is
/// handed a buffer longer than `RECV_CHUNK`.
pub fn read_frame_bytes<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(io_err)?;
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let len = u32::from_le_bytes([header[13], header[14], header[15], header[16]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize(len));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + len.min(RECV_CHUNK));
    frame.extend_from_slice(&header);
    let mut remaining = len;
    while remaining > 0 {
        let chunk = remaining.min(RECV_CHUNK);
        let start = frame.len();
        frame.resize(start + chunk, 0);
        r.read_exact(&mut frame[start..]).map_err(io_err)?;
        remaining -= chunk;
    }
    Ok(frame)
}

/// A zero read timeout means "block forever" to the kernel, which is
/// the opposite of the caller's intent; clamp upward instead.
fn clamp_timeout(timeout: Option<Duration>) -> Option<Duration> {
    timeout.map(|t| t.max(Duration::from_millis(1)))
}

/// The production transport: one Unix-domain socket end.
///
/// Fail-closed: after any `recv` error the frame boundary of the
/// stream can no longer be trusted (a timeout or I/O fault may have
/// torn a frame mid-read), so the transport latches the first error
/// and every subsequent `recv` returns it unchanged.  Without this a
/// retry after a mid-frame timeout would resynchronise on payload
/// bytes and report a misleading `BadMagic` instead of the root cause.
pub struct StreamTransport {
    stream: UnixStream,
    poisoned: Option<WireError>,
}

impl StreamTransport {
    pub fn new(stream: UnixStream) -> Self {
        StreamTransport {
            stream,
            poisoned: None,
        }
    }
}

impl Transport for StreamTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.stream.write_all(bytes).map_err(io_err)
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match read_frame_bytes(&mut self.stream) {
            Ok(frame) => Ok(frame),
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) {
        let _ = self.stream.set_read_timeout(clamp_timeout(timeout));
    }
}

/// Which single-frame fault a [`FaultyTransport`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Drop `drop` bytes off the end of the frame.
    Truncate { drop: usize },
    /// XOR-flip one byte at `offset` (clamped into the frame).
    FlipByte { offset: usize },
    /// Deliver the frame twice.
    Duplicate,
    /// Swap the frame with the one after it.
    Reorder,
}

/// Test shim wrapping any [`Transport`]: applies `fault` to the `at`-th
/// received frame (0-based) and passes everything else through
/// untouched.  Used by the fault-injection wall to prove each
/// corruption mode maps to a deterministic [`EngineError`].
pub struct FaultyTransport {
    inner: Box<dyn Transport>,
    at: u64,
    seen: u64,
    fault: Fault,
    stash: VecDeque<Vec<u8>>,
}

impl FaultyTransport {
    pub fn new(inner: Box<dyn Transport>, at: u64, fault: Fault) -> Self {
        FaultyTransport {
            inner,
            at,
            seen: 0,
            fault,
            stash: VecDeque::new(),
        }
    }
}

impl Transport for FaultyTransport {
    fn send(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.inner.send(bytes)
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        if let Some(frame) = self.stash.pop_front() {
            return Ok(frame);
        }
        let mut frame = self.inner.recv()?;
        let n = self.seen;
        self.seen += 1;
        if n != self.at {
            return Ok(frame);
        }
        match self.fault {
            Fault::Truncate { drop } => {
                let keep = frame.len().saturating_sub(drop);
                frame.truncate(keep);
                Ok(frame)
            }
            Fault::FlipByte { offset } => {
                let i = offset.min(frame.len().saturating_sub(1));
                frame[i] ^= 0xFF;
                Ok(frame)
            }
            Fault::Duplicate => {
                self.stash.push_back(frame.clone());
                Ok(frame)
            }
            Fault::Reorder => {
                let next = self.inner.recv()?;
                self.stash.push_back(frame);
                Ok(next)
            }
        }
    }

    fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.inner.set_timeout(timeout);
    }
}

// ---------------------------------------------------------------------------
// Cell runs
// ---------------------------------------------------------------------------

/// One splice cell as it crosses the wire: a message queued on (or
/// delivered from) a directed edge local to the receiving shard's
/// slice.  `payload` is the opaque encoding produced by
/// [`encode_payload`] on the parent side; children never interpret it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireCell {
    /// Edge index local to the shard's edge range.
    pub edge: u64,
    /// Charged message size in bits (always positive per the engine
    /// contract).
    pub bits: u64,
    /// Sender node id.
    pub from: u32,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

impl From<CellView<'_>> for WireCell {
    fn from(c: CellView<'_>) -> Self {
        WireCell {
            edge: c.edge,
            bits: c.bits,
            from: c.from,
            payload: c.payload.to_vec(),
        }
    }
}

/// One cell borrowed from a frame payload (see [`CellReader`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellView<'a> {
    pub edge: u64,
    pub bits: u64,
    pub from: u32,
    pub payload: &'a [u8],
}

/// Reads a run of exactly `count` cells in place: each item borrows its
/// payload from the input.  The run must consume the input exactly —
/// trailing bytes after the last cell are a [`WireError::Payload`],
/// reported as one final item.  The reader stops after its first error.
#[derive(Debug, Clone)]
pub struct CellReader<'a> {
    bytes: &'a [u8],
    left: usize,
}

impl<'a> CellReader<'a> {
    pub(crate) fn new(bytes: &'a [u8], count: usize) -> Self {
        CellReader { bytes, left: count }
    }

    fn read(&mut self) -> Result<CellView<'a>, WireError> {
        let edge = get_varint(&mut self.bytes)?;
        let bits = get_varint(&mut self.bytes)?;
        let from = u32::try_from(get_varint(&mut self.bytes)?).map_err(|_| WireError::Payload)?;
        let len = get_varint(&mut self.bytes)? as usize;
        if self.bytes.len() < len {
            return Err(WireError::Payload);
        }
        let (payload, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        Ok(CellView {
            edge,
            bits,
            from,
            payload,
        })
    }
}

impl<'a> Iterator for CellReader<'a> {
    type Item = Result<CellView<'a>, WireError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            if self.bytes.is_empty() {
                return None;
            }
            self.bytes = &[];
            return Some(Err(WireError::Payload));
        }
        self.left -= 1;
        let cell = self.read();
        if cell.is_err() {
            self.left = 0;
            self.bytes = &[];
        }
        Some(cell)
    }
}

/// Appends one cell: varint edge, bits, sender and payload length, then
/// the payload bytes.
fn put_cell(out: &mut Vec<u8>, edge: u64, bits: u64, from: u32, payload: &[u8]) {
    put_varint(out, edge);
    put_varint(out, bits);
    put_varint(out, u64::from(from));
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Appends one cell whose payload `write` appends to `out` in place,
/// behind a one-byte length slot.  A payload of 128 bytes or more needs
/// a longer length varint, so the slot is widened by shifting the
/// payload; either way the bytes equal [`put_cell`]'s.
fn put_cell_with(
    out: &mut Vec<u8>,
    edge: u64,
    bits: u64,
    from: u32,
    write: impl FnOnce(&mut Vec<u8>),
) {
    put_varint(out, edge);
    put_varint(out, bits);
    put_varint(out, u64::from(from));
    let slot = out.len();
    out.push(0);
    write(out);
    let len = out.len() - slot - 1;
    if len < 0x80 {
        out[slot] = len as u8;
    } else {
        let mut prefix = Vec::with_capacity(10);
        put_varint(&mut prefix, len as u64);
        out.splice(slot..slot + 1, prefix);
    }
}

/// Serializes a cell run; the inverse of [`decode_cells`].
pub fn encode_cells(cells: &[WireCell], out: &mut Vec<u8>) {
    for cell in cells {
        put_cell(out, cell.edge, cell.bits, cell.from, &cell.payload);
    }
}

/// Parses exactly `count` cells into owned copies, requiring the
/// payload to be fully consumed; see [`CellReader`].
pub fn decode_cells(bytes: &[u8], count: usize) -> Result<Vec<WireCell>, WireError> {
    let mut cells = Vec::with_capacity(count.min(1 << 20));
    for cell in CellReader::new(bytes, count) {
        cells.push(WireCell::from(cell?));
    }
    Ok(cells)
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

/// Message types with a stable inline wire encoding.  Everything else
/// rides the parent-side [`PayloadSlab`]: the wire carries only a slot
/// id and the value itself never crosses the process boundary (it does
/// not need to — children treat payloads as opaque bytes either way).
trait InlineCodec: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(bytes: &mut &[u8]) -> Result<Self, WireError>;
}

impl InlineCodec for () {
    fn put(&self, _out: &mut Vec<u8>) {}
    fn get(_bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

impl InlineCodec for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(bytes: &mut &[u8]) -> Result<Self, WireError> {
        let (&b, rest) = bytes.split_first().ok_or(WireError::Payload)?;
        *bytes = rest;
        Ok(b != 0)
    }
}

macro_rules! inline_uint {
    ($($t:ty),*) => {$(
        impl InlineCodec for $t {
            fn put(&self, out: &mut Vec<u8>) {
                put_varint(out, u64::from(*self));
            }
            fn get(bytes: &mut &[u8]) -> Result<Self, WireError> {
                <$t>::try_from(get_varint(bytes)?).map_err(|_| WireError::Payload)
            }
        }
    )*};
}
inline_uint!(u8, u16, u32);

impl InlineCodec for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn get(bytes: &mut &[u8]) -> Result<Self, WireError> {
        get_varint(bytes)
    }
}

impl<A: InlineCodec, B: InlineCodec> InlineCodec for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::get(bytes)?, B::get(bytes)?))
    }
}

impl<A: InlineCodec, B: InlineCodec, C: InlineCodec> InlineCodec for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(bytes: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::get(bytes)?, B::get(bytes)?, C::get(bytes)?))
    }
}

impl<T: InlineCodec> InlineCodec for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(bytes: &mut &[u8]) -> Result<Self, WireError> {
        let (&tag, rest) = bytes.split_first().ok_or(WireError::Payload)?;
        *bytes = rest;
        match tag {
            0 => Ok(None),
            1 => Ok(Some(T::get(bytes)?)),
            _ => Err(WireError::Payload),
        }
    }
}

impl<T: InlineCodec> InlineCodec for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.put(out);
        }
    }
    fn get(bytes: &mut &[u8]) -> Result<Self, WireError> {
        let len = get_varint(bytes)? as usize;
        let mut v = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            v.push(T::get(bytes)?);
        }
        Ok(v)
    }
}

/// Payload tag byte 0: slab slot reference.
const TAG_SLAB: u8 = 0;
/// Payload tag byte 1: inline value bytes.
const TAG_INLINE: u8 = 1;

/// Parent-side parking lot for message types without an inline wire
/// encoding (e.g. generic wrappers).  The value stays in the parent;
/// the wire carries its slot id, which round-trips through the child's
/// payload-opaque core and is redeemed at delivery.  Slots are
/// recycled, so the slab's footprint tracks in-flight traffic.
pub struct PayloadSlab<M> {
    slots: Vec<Option<M>>,
    free: Vec<u32>,
}

impl<M> Default for PayloadSlab<M> {
    fn default() -> Self {
        PayloadSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<M> PayloadSlab<M> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the slab, keeping capacity; it then numbers slots anew.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }

    fn put(&mut self, msg: M) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(msg);
                slot
            }
            None => {
                self.slots.push(Some(msg));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn take(&mut self, slot: u32) -> Result<M, WireError> {
        let msg = self
            .slots
            .get_mut(slot as usize)
            .and_then(Option::take)
            .ok_or(WireError::Payload)?;
        self.free.push(slot);
        Ok(msg)
    }
}

// Both dispatchers test `M`'s `TypeId`, a constant of each
// instantiation, so the chain folds at compile time: a registry type
// compiles to its codec alone, any other `M` to the slab fallback.
macro_rules! inline_dispatch {
    ($($t:ty),* $(,)?) => {
        /// Appends `msg` as a tagged inline value if `M` is a registry
        /// type; returns false otherwise.
        fn try_encode_inline<M: Any>(msg: &M, out: &mut Vec<u8>) -> bool {
            $(
                if TypeId::of::<M>() == TypeId::of::<$t>() {
                    if let Some(v) = (msg as &dyn Any).downcast_ref::<$t>() {
                        out.push(TAG_INLINE);
                        InlineCodec::put(v, out);
                        return true;
                    }
                }
            )*
            false
        }

        /// Decodes an inline value if `M` is a registry type; `None`
        /// otherwise.
        fn try_decode_inline<M: Any>(bytes: &mut &[u8]) -> Result<Option<M>, WireError> {
            $(
                if TypeId::of::<M>() == TypeId::of::<$t>() {
                    let mut value = Some(<$t as InlineCodec>::get(bytes)?);
                    let slot = (&mut value as &mut dyn Any).downcast_mut::<Option<M>>();
                    return Ok(slot.and_then(Option::take));
                }
            )*
            Ok(None)
        }
    };
}

// The registry of message types that cross the wire by value.  This is
// a closed-world optimisation, not a requirement: any type outside the
// list transparently falls back to the slab path.
inline_dispatch!(
    (),
    bool,
    u8,
    u16,
    u32,
    u64,
    (u32, u32),
    (u64, u32),
    Option<u32>,
    Vec<u32>,
    Vec<(u16, u32, u32)>,
);

/// Encodes one message payload for the wire: inline bytes when the
/// concrete type has a stable codec, otherwise a slab slot id.
pub fn encode_payload<M: Any>(msg: M, slab: &mut PayloadSlab<M>, out: &mut Vec<u8>) {
    if try_encode_inline(&msg, out) {
        return;
    }
    out.push(TAG_SLAB);
    put_varint(out, u64::from(slab.put(msg)));
}

/// Inverse of [`encode_payload`]; consumes the whole payload slice.
pub fn decode_payload<M: Any>(mut bytes: &[u8], slab: &mut PayloadSlab<M>) -> Result<M, WireError> {
    let (&tag, rest) = bytes.split_first().ok_or(WireError::Payload)?;
    bytes = rest;
    let msg = match tag {
        TAG_SLAB => {
            let slot = u32::try_from(get_varint(&mut bytes)?).map_err(|_| WireError::Payload)?;
            slab.take(slot)?
        }
        TAG_INLINE => try_decode_inline(&mut bytes)?.ok_or(WireError::Payload)?,
        _ => return Err(WireError::Payload),
    };
    if !bytes.is_empty() {
        return Err(WireError::Payload);
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip() {
        let mut out = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            out.clear();
            put_varint(&mut out, v);
            let mut slice = out.as_slice();
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut slice: &[u8] = &[0x80];
        assert_eq!(get_varint(&mut slice), Err(WireError::Varint));
        let mut slice: &[u8] = &[0xFF; 11];
        assert_eq!(get_varint(&mut slice), Err(WireError::Varint));
    }

    #[test]
    fn varint_rejects_non_canonical_encodings() {
        // The padded spellings of 0 and 1 must not alias the canonical
        // one-byte forms.
        for bad in [
            &[0x80, 0x00][..],
            &[0x80, 0x80, 0x00][..],
            &[0x81, 0x00][..],
            &[0xFF, 0x80, 0x00][..],
        ] {
            let mut slice = bad;
            assert_eq!(get_varint(&mut slice), Err(WireError::Varint), "{bad:?}");
        }
        // Canonical single-byte zero still decodes.
        let mut slice: &[u8] = &[0x00];
        assert_eq!(get_varint(&mut slice).unwrap(), 0);
        // A terminal zero *without* continuation padding in the value's
        // own bytes is fine when it carries real high bits: 1 << 7 is
        // [0x80, 0x01], not a padded zero.
        let mut out = Vec::new();
        put_varint(&mut out, 128);
        assert_eq!(out, [0x80, 0x01]);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32_parts(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32_parts(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn frames_round_trip() {
        let frame = Frame {
            kind: FrameKind::Sends,
            shard: 3,
            epoch: 41,
            count: 2,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = frame.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn decode_rejects_each_corruption_mode() {
        let frame = Frame {
            kind: FrameKind::Deliveries,
            shard: 0,
            epoch: 7,
            count: 1,
            payload: vec![9; 16],
        };
        let bytes = frame.encode();
        // Truncated payload.
        assert_eq!(
            Frame::decode(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
        // Torn header.
        assert_eq!(
            Frame::decode(&bytes[..HEADER_LEN - 3]),
            Err(WireError::Truncated)
        );
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Frame::decode(&bad), Err(WireError::BadMagic));
        // Unknown kind (covered by crc? kind flip breaks crc first, so
        // rewrite the crc to isolate the kind check).
        let mut bad = bytes.clone();
        bad[2] = 99;
        let crc = crc32_parts(&[&bad[2..17], &bad[HEADER_LEN..]]);
        bad[17..21].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::decode(&bad), Err(WireError::UnknownKind(99)));
        // Flipped payload byte.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 4] ^= 0xFF;
        assert_eq!(Frame::decode(&bad), Err(WireError::ChecksumMismatch));
        // Oversize length field.
        let mut bad = bytes.clone();
        bad[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Frame::decode(&bad), Err(WireError::Oversize(_))));
    }

    #[test]
    fn cells_round_trip_including_empty_payloads() {
        let cells = vec![
            WireCell {
                edge: 0,
                bits: 1,
                from: 0,
                payload: vec![],
            },
            WireCell {
                edge: 7,
                bits: 64,
                from: 3,
                payload: vec![1, 2, 3],
            },
            WireCell {
                edge: u32::MAX as u64,
                bits: 1 << 20,
                from: u32::MAX,
                payload: vec![0; 64],
            },
        ];
        let mut out = Vec::new();
        encode_cells(&cells, &mut out);
        assert_eq!(decode_cells(&out, cells.len()).unwrap(), cells);
        // Trailing garbage is rejected.
        out.push(0);
        assert_eq!(decode_cells(&out, cells.len()), Err(WireError::Payload));
    }

    #[test]
    fn inline_payloads_round_trip_without_touching_the_slab() {
        let mut slab = PayloadSlab::<(u32, u32)>::new();
        let mut out = Vec::new();
        encode_payload((17u32, 4u32), &mut slab, &mut out);
        assert_eq!(out[0], TAG_INLINE);
        assert_eq!(decode_payload(&out, &mut slab).unwrap(), (17, 4));
        assert!(slab.slots.is_empty());
    }

    #[test]
    fn slab_payloads_round_trip_and_recycle_slots() {
        // `&'static str` has no inline codec, so it parks in the slab.
        let mut slab = PayloadSlab::<&'static str>::new();
        let mut out = Vec::new();
        encode_payload("ping", &mut slab, &mut out);
        assert_eq!(out[0], TAG_SLAB);
        assert_eq!(decode_payload(&out, &mut slab).unwrap(), "ping");
        // The slot is recycled for the next message.
        let mut again = Vec::new();
        encode_payload("pong", &mut slab, &mut again);
        assert_eq!(out, again);
        assert_eq!(slab.slots.len(), 1);
        // Double-take is a payload error, not a panic.
        assert_eq!(
            decode_payload::<&'static str>(&again, &mut slab).unwrap(),
            "pong"
        );
        assert_eq!(
            decode_payload::<&'static str>(&again, &mut slab),
            Err(WireError::Payload)
        );
    }

    #[test]
    fn faulty_transport_applies_exactly_one_fault() {
        struct Feed(VecDeque<Vec<u8>>);
        impl Transport for Feed {
            fn send(&mut self, _bytes: &[u8]) -> Result<(), WireError> {
                Ok(())
            }
            fn recv(&mut self) -> Result<Vec<u8>, WireError> {
                self.0.pop_front().ok_or(WireError::Eof)
            }
        }
        let frames: Vec<Vec<u8>> = (0..3u32)
            .map(|i| Frame::control(FrameKind::PhaseStart, 0, i).encode())
            .collect();
        // Reorder frames 1 and 2.
        let feed = Feed(frames.clone().into_iter().collect());
        let mut t = FaultyTransport::new(Box::new(feed), 1, Fault::Reorder);
        assert_eq!(t.recv().unwrap(), frames[0]);
        assert_eq!(t.recv().unwrap(), frames[2]);
        assert_eq!(t.recv().unwrap(), frames[1]);
        assert_eq!(t.recv(), Err(WireError::Eof));
        // Duplicate frame 0.
        let feed = Feed(frames.clone().into_iter().collect());
        let mut t = FaultyTransport::new(Box::new(feed), 0, Fault::Duplicate);
        assert_eq!(t.recv().unwrap(), frames[0]);
        assert_eq!(t.recv().unwrap(), frames[0]);
        assert_eq!(t.recv().unwrap(), frames[1]);
        // Truncate decodes to a deterministic error.
        let feed = Feed(frames.clone().into_iter().collect());
        let mut t = FaultyTransport::new(Box::new(feed), 0, Fault::Truncate { drop: 2 });
        assert_eq!(Frame::decode(&t.recv().unwrap()), Err(WireError::Truncated));
        assert!(Frame::decode(&t.recv().unwrap()).is_ok());
    }

    #[test]
    fn engine_error_display_is_stable() {
        let died = EngineError {
            shard: 2,
            error: WireError::Eof,
        };
        assert_eq!(
            died.to_string(),
            "process engine: child for shard 2 died mid-round (socket closed)"
        );
        let stuck = EngineError {
            shard: 1,
            error: WireError::Timeout,
        };
        assert_eq!(
            stuck.to_string(),
            "process engine: barrier timeout waiting on shard 1"
        );
        let torn = EngineError {
            shard: 0,
            error: WireError::ChecksumMismatch,
        };
        assert_eq!(
            torn.to_string(),
            "process engine: shard 0: frame checksum mismatch"
        );
    }
}
