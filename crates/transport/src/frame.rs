//! Length-prefixed wire frames.
//!
//! Every byte that crosses a node boundary is a *frame*: a fixed 36-byte
//! header (magic, version, kind, session id, src/dst node, per-connection
//! sequence number, item count) followed by `count` 32-byte items.  The
//! frame is preceded on the wire by a `u32` little-endian length prefix
//! covering header + payload, so a receiver can reassemble frames from an
//! arbitrary byte stream without knowing anything about message boundaries.
//!
//! The protocol is deliberately tiny — six frame kinds cover connection
//! setup ([`FrameKind::Hello`]/[`FrameKind::HelloAck`]), data
//! ([`FrameKind::Batch`]), reliability ([`FrameKind::Ack`]), liveness
//! ([`FrameKind::Heartbeat`]) and teardown ([`FrameKind::Bye`]).  Sequence
//! numbers are per *directed* connection and only `Batch` frames consume
//! them; `Ack.seq` carries the highest sequence the receiver has accepted
//! contiguously (cumulative and delayed: one ack may retire many batches).
//! Session ids are drawn once per run so a frame from a stale incarnation of
//! a peer can never be confused with live traffic.

/// Frame magic: "SMPW" (SMP wire).
pub const MAGIC: u32 = 0x534d_5057;
/// Wire protocol version; bumped on any incompatible header change.
pub const VERSION: u16 = 1;
/// Fixed header size in bytes (after the `u32` length prefix).
pub const HEADER_BYTES: usize = 36;
/// Bytes per serialized item.
pub const ITEM_BYTES: usize = 32;
/// Hard cap on items per frame (keeps the length prefix honest and bounds
/// the receive-side allocation even against a corrupt or malicious peer).
pub const MAX_ITEMS_PER_FRAME: usize = 64 * 1024;
/// Largest frame body (header + payload) the reader will accept.
pub const MAX_FRAME_BYTES: usize = HEADER_BYTES + MAX_ITEMS_PER_FRAME * ITEM_BYTES;

/// What a frame means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Connection open: sender announces its node id + session.
    Hello = 1,
    /// Handshake reply.
    HelloAck = 2,
    /// A sealed batch of items (the only kind that consumes a sequence
    /// number and the only kind carrying a payload).
    Batch = 3,
    /// Cumulative acknowledgement: `seq` = highest contiguously accepted
    /// batch sequence.  Acks are delayed: a receiver owes at most one per
    /// link per ack delay (far inside the sender's first retransmit
    /// timeout, see [`crate::SEND_RETRY_BASE_NS`]), and that one covers
    /// every batch accepted meanwhile.  A replayed batch is re-acked at once.
    Ack = 4,
    /// Liveness beacon; absence of these is how peer death is detected.
    Heartbeat = 5,
    /// Graceful teardown: no more batches will follow.
    Bye = 6,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Batch,
            4 => FrameKind::Ack,
            5 => FrameKind::Heartbeat,
            6 => FrameKind::Bye,
            _ => return None,
        })
    }
}

/// One application item as it travels the wire: final destination worker,
/// two payload words, creation timestamp.  32 bytes, all little-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireItem {
    /// Global index of the worker PE this item must be delivered to.
    pub dest: u64,
    /// First application payload word.
    pub a: u64,
    /// Second application payload word.
    pub b: u64,
    /// Creation timestamp (nanoseconds) for end-to-end latency accounting.
    pub created_at_ns: u64,
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What this frame means.
    pub kind: FrameKind,
    /// Run-unique session id; frames from other sessions are rejected.
    pub session: u64,
    /// Sending node.
    pub src: u32,
    /// Intended receiving node.
    pub dst: u32,
    /// Per-connection sequence number (`Batch`) or cumulative ack (`Ack`);
    /// zero for the other kinds.
    pub seq: u64,
    /// Payload items (empty unless `kind == Batch`).
    pub items: Vec<WireItem>,
}

impl Frame {
    /// A payload-free control frame.
    pub fn control(kind: FrameKind, session: u64, src: u32, dst: u32, seq: u64) -> Self {
        Frame {
            kind,
            session,
            src,
            dst,
            seq,
            items: Vec::new(),
        }
    }

    /// Encoded size on the wire including the length prefix.
    pub fn wire_bytes(&self) -> usize {
        4 + HEADER_BYTES + self.items.len() * ITEM_BYTES
    }

    /// Serialize, appending length prefix + header + payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        debug_assert!(self.items.len() <= MAX_ITEMS_PER_FRAME);
        let body = HEADER_BYTES + self.items.len() * ITEM_BYTES;
        out.reserve(4 + body);
        out.extend_from_slice(&(body as u32).to_le_bytes());
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.kind as u8);
        out.push(0); // flags, reserved
        out.extend_from_slice(&self.session.to_le_bytes());
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.dst.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(self.items.len() as u32).to_le_bytes());
        for item in &self.items {
            out.extend_from_slice(&item.dest.to_le_bytes());
            out.extend_from_slice(&item.a.to_le_bytes());
            out.extend_from_slice(&item.b.to_le_bytes());
            out.extend_from_slice(&item.created_at_ns.to_le_bytes());
        }
    }

    /// Serialize into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode a frame body (the bytes *after* the length prefix).
    pub fn decode(body: &[u8]) -> Result<Frame, FrameError> {
        if body.len() < HEADER_BYTES {
            return Err(FrameError::Truncated);
        }
        let magic = u32::from_le_bytes(body[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(body[4..6].try_into().unwrap());
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let kind = FrameKind::from_u8(body[6]).ok_or(FrameError::BadKind(body[6]))?;
        let session = u64::from_le_bytes(body[8..16].try_into().unwrap());
        let src = u32::from_le_bytes(body[16..20].try_into().unwrap());
        let dst = u32::from_le_bytes(body[20..24].try_into().unwrap());
        let seq = u64::from_le_bytes(body[24..32].try_into().unwrap());
        let count = u32::from_le_bytes(body[32..36].try_into().unwrap()) as usize;
        if count > MAX_ITEMS_PER_FRAME {
            return Err(FrameError::TooManyItems(count));
        }
        if body.len() != HEADER_BYTES + count * ITEM_BYTES {
            return Err(FrameError::Truncated);
        }
        let mut items = Vec::with_capacity(count);
        let mut off = HEADER_BYTES;
        for _ in 0..count {
            items.push(WireItem {
                dest: u64::from_le_bytes(body[off..off + 8].try_into().unwrap()),
                a: u64::from_le_bytes(body[off + 8..off + 16].try_into().unwrap()),
                b: u64::from_le_bytes(body[off + 16..off + 24].try_into().unwrap()),
                created_at_ns: u64::from_le_bytes(body[off + 24..off + 32].try_into().unwrap()),
            });
            off += ITEM_BYTES;
        }
        Ok(Frame {
            kind,
            session,
            src,
            dst,
            seq,
            items,
        })
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Body shorter than the header or inconsistent with its item count.
    Truncated,
    /// Wrong magic — the stream is not speaking this protocol.
    BadMagic(u32),
    /// Protocol version mismatch.
    BadVersion(u16),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Item count exceeds [`MAX_ITEMS_PER_FRAME`].
    TooManyItems(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::TooManyItems(n) => write!(f, "frame claims {n} items"),
        }
    }
}

/// Incremental frame reassembly from an arbitrary byte stream.
///
/// Feed whatever bytes the socket produced with [`FrameReader::extend`],
/// then drain complete frames with [`FrameReader::next_frame`].  Partial
/// frames stay buffered across calls, so nonblocking reads of any size
/// compose correctly.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the dead prefix dominates the buffer.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pop the next complete frame, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(avail[0..4].try_into().unwrap()) as usize;
        if !(HEADER_BYTES..=MAX_FRAME_BYTES).contains(&body_len) {
            return Err(FrameError::Truncated);
        }
        if avail.len() < 4 + body_len {
            return Ok(None);
        }
        let frame = Frame::decode(&avail[4..4 + body_len])?;
        self.start += 4 + body_len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize) -> Frame {
        Frame {
            kind: FrameKind::Batch,
            session: 0xfeed_beef_dead_cafe,
            src: 1,
            dst: 3,
            seq: 42,
            items: (0..n as u64)
                .map(|i| WireItem {
                    dest: i % 7,
                    a: i.wrapping_mul(0x9e37_79b9),
                    b: !i,
                    created_at_ns: 1_000 + i,
                })
                .collect(),
        }
    }

    #[test]
    fn roundtrip_every_kind() {
        for kind in [
            FrameKind::Hello,
            FrameKind::HelloAck,
            FrameKind::Ack,
            FrameKind::Heartbeat,
            FrameKind::Bye,
        ] {
            let f = Frame::control(kind, 7, 0, 1, 9);
            let bytes = f.encode();
            assert_eq!(bytes.len(), f.wire_bytes());
            let back = Frame::decode(&bytes[4..]).unwrap();
            assert_eq!(back, f);
        }
        for n in [0usize, 1, 3, 513] {
            let f = batch(n);
            let back = Frame::decode(&f.encode()[4..]).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn reader_reassembles_across_arbitrary_chunking() {
        let frames: Vec<Frame> = (0..5).map(|i| batch(i * 17)).collect();
        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream);
        }
        // Feed in pathological chunk sizes, including 1 byte at a time.
        for chunk in [1usize, 3, 7, 36, 1000] {
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                reader.extend(piece);
                while let Some(f) = reader.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert_eq!(reader.pending_bytes(), 0);
        }
    }

    #[test]
    fn corrupt_header_is_rejected_not_panicked() {
        let mut bytes = batch(2).encode();
        bytes[4] ^= 0xff; // clobber magic
        assert!(matches!(
            Frame::decode(&bytes[4..]),
            Err(FrameError::BadMagic(_))
        ));

        let mut bytes = batch(2).encode();
        bytes[10] = 99; // unknown kind
        assert!(matches!(
            Frame::decode(&bytes[4..]),
            Err(FrameError::BadKind(99))
        ));

        let bytes = batch(2).encode();
        assert!(matches!(
            Frame::decode(&bytes[4..bytes.len() - 1]),
            Err(FrameError::Truncated)
        ));
    }
}
