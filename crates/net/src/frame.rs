//! The framed RPC protocol spoken on the wire.
//!
//! Every message is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic       0x31424E53 ("SNB1" little-endian)
//! 4       1     version     1
//! 5       1     kind        0=Request 1=Response 2=Error
//!                           (3 and 4 are retired; never reuse them)
//! 6       8     corr_id     u64 correlation id (echoed in the reply)
//! 14      4     len         payload length in bytes
//! 18      4     checksum    FNV-1a over the payload
//! 22      len   payload     wire-encoded traversal / values / error
//! ```
//!
//! The correlation id is what buys pipelining: a client may write many
//! request frames before reading any response, and responses may come
//! back in any order — each one names the request it answers. The
//! checksum and the `MAX_PAYLOAD` bound protect the server from
//! corrupted or hostile frames: a bad magic, an oversized declared
//! length, or a checksum mismatch is a protocol error, never a panic or
//! an unbounded allocation.
//!
//! An *unknown kind tag* is deliberately softer than those: the header
//! is otherwise valid and the declared length plus checksum still
//! delimit the frame exactly, so the stream remains syncable. Servers
//! consume such a frame as [`FrameEvent::UnknownKind`], answer it with
//! a typed error on its correlation id, and keep the connection — a
//! newer client using a frame kind this server predates must get an
//! error it can read, not a dropped socket.

use snb_core::{Result, SnbError};
use std::io::{ErrorKind, Read, Write};

/// "SNB1" as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SNB1");
/// Protocol version carried in every frame.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 22;
/// Upper bound on a payload; larger declared lengths are rejected
/// before any allocation happens.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: an encoded traversal.
    Request = 0,
    /// Server → client: encoded result values.
    Response = 1,
    /// Server → client: an encoded [`SnbError`]. With `corr_id` 0 the
    /// error is connection-fatal (e.g. the connection limit), otherwise
    /// it answers the named request.
    Error = 2,
    // Tags 3 and 4 carried frontier-batch and analytics requests, both
    // removed. They now decode as `FrameEvent::UnknownKind`; never give
    // them a new meaning, or an old client's frame would be misread.
}

impl FrameKind {
    fn from_tag(tag: u8) -> Result<FrameKind> {
        Ok(match tag {
            0 => FrameKind::Request,
            1 => FrameKind::Response,
            2 => FrameKind::Error,
            other => return Err(SnbError::Codec(format!("unknown frame kind {other}"))),
        })
    }
}

/// What a server-side frame read produces: either a well-formed frame,
/// or a frame whose kind tag this endpoint does not know. The unknown
/// variant is still fully delimited and checksum-verified — its payload
/// has been consumed from the stream — so the caller can reply with a
/// typed error on `corr_id` and keep reading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame of a known kind.
    Frame(Frame),
    /// A complete, checksum-valid frame of an unknown kind; skipped.
    UnknownKind {
        /// The unrecognized kind tag.
        tag: u8,
        /// The frame's correlation id (0 if the sender left it unset).
        corr_id: u64,
    },
}

/// One framed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// Correlation id; responses echo the id of the request they answer.
    pub corr_id: u64,
    /// Wire-encoded body.
    pub payload: Vec<u8>,
}

/// FNV-1a over the payload — cheap, and enough to catch framing bugs
/// and line corruption (this is not a cryptographic integrity check).
pub fn checksum(payload: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in payload {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Serialize a frame to a byte vector (header + payload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + frame.payload.len());
    encode_frame_into(&mut out, frame.kind, frame.corr_id, &frame.payload);
    out
}

/// Append one encoded frame to `out` without allocating a fresh buffer
/// — the reactor's reply coalescing and the client's pipelined batch
/// submission both encode many frames into one reused arena and hand
/// the kernel a single contiguous (or vectored) write.
pub fn encode_frame_into(out: &mut Vec<u8>, kind: FrameKind, corr_id: u64, payload: &[u8]) {
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind as u8);
    out.extend_from_slice(&corr_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Write one frame. A single `write_all` keeps the frame contiguous so
/// concurrent writers only need to serialize at this call.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    w.write_all(&encode_frame(frame)).map_err(io_err)?;
    w.flush().map_err(io_err)
}

fn io_err(e: std::io::Error) -> SnbError {
    SnbError::Io(e.to_string())
}

/// Validate a header and return `(kind tag, corr_id, len, checksum)`.
///
/// The kind tag is returned raw: an unknown tag is not a header error,
/// because the frame is still exactly delimited (see
/// [`FrameEvent::UnknownKind`]). Magic, version, and the declared
/// length *are* hard errors — past any of those the stream cannot be
/// resynced.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u64, usize, u32)> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(SnbError::Codec(format!("bad magic 0x{magic:08x}")));
    }
    if header[4] != VERSION {
        return Err(SnbError::Codec(format!("unsupported protocol version {}", header[4])));
    }
    let tag = header[5];
    let corr_id = u64::from_le_bytes(header[6..14].try_into().unwrap());
    let len = u32::from_le_bytes(header[14..18].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(SnbError::Codec(format!("declared payload length {len} exceeds limit")));
    }
    let sum = u32::from_le_bytes(header[18..22].try_into().unwrap());
    Ok((tag, corr_id, len, sum))
}

fn event_of(tag: u8, corr_id: u64, payload: Vec<u8>) -> FrameEvent {
    match FrameKind::from_tag(tag) {
        Ok(kind) => FrameEvent::Frame(Frame { kind, corr_id, payload }),
        Err(_) => FrameEvent::UnknownKind { tag, corr_id },
    }
}

fn unknown_kind_err(tag: u8) -> SnbError {
    SnbError::Codec(format!("unknown frame kind {tag}"))
}

/// Read one frame, blocking until it is complete. EOF before the first
/// header byte yields `Ok(None)` (clean close); EOF mid-frame is an
/// error. An unknown kind tag is an error here — this is the strict
/// (client-side) entry point; servers use
/// [`read_event_interruptible`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>> {
    match read_event_interruptible(r, &|| false)? {
        None => Ok(None),
        Some(FrameEvent::Frame(f)) => Ok(Some(f)),
        Some(FrameEvent::UnknownKind { tag, .. }) => Err(unknown_kind_err(tag)),
    }
}

/// Like [`read_frame`], but tolerates read-timeout wakeups so the caller
/// can poll `should_stop` between them (the server sets a short read
/// timeout on accepted sockets for exactly this). Returns `Ok(None)` on
/// clean EOF or when stopped.
pub fn read_frame_interruptible(
    r: &mut impl Read,
    should_stop: &dyn Fn() -> bool,
) -> Result<Option<Frame>> {
    match read_event_interruptible(r, should_stop)? {
        None => Ok(None),
        Some(FrameEvent::Frame(f)) => Ok(Some(f)),
        Some(FrameEvent::UnknownKind { tag, .. }) => Err(unknown_kind_err(tag)),
    }
}

/// The tolerant server-side read: like [`read_frame_interruptible`],
/// but a complete, checksum-valid frame with an unknown kind tag comes
/// back as [`FrameEvent::UnknownKind`] instead of an error, so the
/// caller can answer it and keep the connection alive.
pub fn read_event_interruptible(
    r: &mut impl Read,
    should_stop: &dyn Fn() -> bool,
) -> Result<Option<FrameEvent>> {
    let mut header = [0u8; HEADER_LEN];
    match fill_interruptible(r, &mut header, true, should_stop)? {
        FillOutcome::Eof => return Ok(None),
        FillOutcome::Full => {}
    }
    let (tag, corr_id, len, sum) = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    match fill_interruptible(r, &mut payload, false, should_stop)? {
        FillOutcome::Eof => Err(SnbError::Io("connection closed mid-frame".into())),
        FillOutcome::Full => {
            if checksum(&payload) != sum {
                return Err(SnbError::Codec("frame checksum mismatch".into()));
            }
            Ok(Some(event_of(tag, corr_id, payload)))
        }
    }
}

/// Incremental frame decoder for readiness-driven reads.
///
/// A nonblocking socket hands bytes over in arbitrary chunks — partial
/// headers, partial payloads, many frames per `read(2)` — so the
/// decoder owns a single reusable arena: the reactor reads straight
/// into [`FrameDecoder::spare_mut`], commits what arrived, and then
/// drains every complete frame with [`FrameDecoder::next_frame`].
/// Consumed bytes are reclaimed by compaction, so steady-state decoding
/// allocates nothing (payload extraction aside, which must hand
/// ownership to the execution layer).
///
/// Validation is identical to [`read_frame`]: bad magic, bad version,
/// oversized declared length, unknown kind, or a checksum mismatch is a
/// `Codec` error — and the declared-length bound is enforced *before*
/// the payload is buffered, so a hostile header cannot force an
/// unbounded allocation.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Start of undecoded bytes in `buf`.
    head: usize,
    /// End of valid bytes in `buf` (bytes past this are spare space).
    tail: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Undecoded bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// Expose at least `min` bytes of spare space to read into; pair
    /// with [`FrameDecoder::commit`] for however many bytes arrived.
    pub fn spare_mut(&mut self, min: usize) -> &mut [u8] {
        if self.buf.len() - self.tail < min {
            self.compact();
            if self.buf.len() - self.tail < min {
                self.buf.resize(self.tail + min, 0);
            }
        }
        &mut self.buf[self.tail..]
    }

    /// Mark `n` bytes of the spare area as valid (just read).
    pub fn commit(&mut self, n: usize) {
        debug_assert!(self.tail + n <= self.buf.len());
        self.tail += n;
    }

    /// Append bytes by copy (tests and non-syscall feeds).
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.spare_mut(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.commit(bytes.len());
    }

    /// Decode the next complete frame, `Ok(None)` if more bytes are
    /// needed. After a `Codec` error the stream cannot be resynced; the
    /// caller must drop the connection. An unknown kind tag is an error
    /// here — tolerant callers use [`FrameDecoder::next_event`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        match self.next_event()? {
            None => Ok(None),
            Some(FrameEvent::Frame(f)) => Ok(Some(f)),
            Some(FrameEvent::UnknownKind { tag, .. }) => Err(unknown_kind_err(tag)),
        }
    }

    /// Decode the next complete frame as a [`FrameEvent`]: unknown kind
    /// tags are consumed (payload skipped, checksum still verified) and
    /// surfaced as [`FrameEvent::UnknownKind`] so a server can reply
    /// with a typed error and keep decoding the stream.
    pub fn next_event(&mut self) -> Result<Option<FrameEvent>> {
        if self.buffered() < HEADER_LEN {
            return Ok(None);
        }
        let header: &[u8; HEADER_LEN] =
            self.buf[self.head..self.head + HEADER_LEN].try_into().unwrap();
        let (tag, corr_id, len, sum) = parse_header(header)?;
        if self.buffered() < HEADER_LEN + len {
            return Ok(None);
        }
        let start = self.head + HEADER_LEN;
        let payload_bytes = &self.buf[start..start + len];
        if checksum(payload_bytes) != sum {
            return Err(SnbError::Codec("frame checksum mismatch".into()));
        }
        let payload = payload_bytes.to_vec();
        self.head += HEADER_LEN + len;
        if self.head == self.tail {
            // Everything consumed: reset without moving any bytes.
            self.head = 0;
            self.tail = 0;
        }
        Ok(Some(event_of(tag, corr_id, payload)))
    }

    /// Move the undecoded suffix to the front of the arena.
    fn compact(&mut self) {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
    }
}

enum FillOutcome {
    Full,
    Eof,
}

/// Fill `buf` completely, retrying on `Interrupted`/timeout wakeups.
/// Stopping (or EOF) with zero bytes read is clean; mid-buffer it is a
/// hard error, because the stream position is lost either way.
fn fill_interruptible(
    r: &mut impl Read,
    buf: &mut [u8],
    eof_ok_at_start: bool,
    should_stop: &dyn Fn() -> bool,
) -> Result<FillOutcome> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && eof_ok_at_start {
                    Ok(FillOutcome::Eof)
                } else {
                    Err(SnbError::Io("connection closed mid-frame".into()))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if should_stop() {
                    return if filled == 0 {
                        Ok(FillOutcome::Eof)
                    } else {
                        Err(SnbError::Io("stopped mid-frame".into()))
                    };
                }
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(FillOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame(kind: FrameKind, corr_id: u64, payload: &[u8]) -> Frame {
        Frame { kind, corr_id, payload: payload.to_vec() }
    }

    #[test]
    fn frames_roundtrip() {
        for f in [
            frame(FrameKind::Request, 1, b"hello"),
            frame(FrameKind::Response, u64::MAX, &[]),
            frame(FrameKind::Error, 0, &[0xFF; 300]),
        ] {
            let bytes = encode_frame(&f);
            assert_eq!(bytes.len(), HEADER_LEN + f.payload.len());
            let got = read_frame(&mut Cursor::new(&bytes)).unwrap().unwrap();
            assert_eq!(got, f);
        }
    }

    #[test]
    fn two_frames_back_to_back() {
        let a = frame(FrameKind::Request, 1, b"aa");
        let b = frame(FrameKind::Request, 2, b"bbbb");
        let mut bytes = encode_frame(&a);
        bytes.extend_from_slice(&encode_frame(&b));
        let mut cur = Cursor::new(&bytes);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b);
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF after last frame");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_frame(&frame(FrameKind::Request, 1, b"x"));
        bytes[0] ^= 0xAA;
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnbError::Codec(ref m) if m.contains("magic")), "{err}");
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_frame(&frame(FrameKind::Request, 1, b"x"));
        bytes[4] = 99;
        assert!(read_frame(&mut Cursor::new(&bytes)).is_err());
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = encode_frame(&frame(FrameKind::Request, 1, b"x"));
        bytes[5] = 42;
        assert!(read_frame(&mut Cursor::new(&bytes)).is_err());
    }

    #[test]
    fn unknown_kind_is_a_survivable_event() {
        // A frame with an unrecognized kind tag but an otherwise valid
        // header must be consumed and surfaced — not kill the stream:
        // the next frame still decodes.
        let mut bytes = encode_frame(&frame(FrameKind::Request, 7, b"future stuff"));
        bytes[5] = 42;
        let follow = frame(FrameKind::Request, 8, b"normal");
        bytes.extend_from_slice(&encode_frame(&follow));

        // Blocking read path.
        let mut cur = Cursor::new(&bytes);
        assert_eq!(
            read_event_interruptible(&mut cur, &|| false).unwrap(),
            Some(FrameEvent::UnknownKind { tag: 42, corr_id: 7 })
        );
        assert_eq!(
            read_event_interruptible(&mut cur, &|| false).unwrap(),
            Some(FrameEvent::Frame(follow.clone()))
        );
        assert!(read_event_interruptible(&mut cur, &|| false).unwrap().is_none());

        // Incremental decoder path, fed one byte at a time.
        let mut dec = FrameDecoder::new();
        let mut events = Vec::new();
        for &b in &bytes {
            dec.push_bytes(&[b]);
            while let Some(ev) = dec.next_event().unwrap() {
                events.push(ev);
            }
        }
        assert_eq!(
            events,
            vec![
                FrameEvent::UnknownKind { tag: 42, corr_id: 7 },
                FrameEvent::Frame(follow),
            ]
        );
    }

    #[test]
    fn unknown_kind_with_bad_checksum_is_still_fatal() {
        // The unknown-kind tolerance only applies to delimitable frames;
        // a checksum mismatch means the length itself can't be trusted.
        let mut bytes = encode_frame(&frame(FrameKind::Request, 7, b"payload"));
        bytes[5] = 42;
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(read_event_interruptible(&mut Cursor::new(&bytes), &|| false).is_err());
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let mut bytes = encode_frame(&frame(FrameKind::Request, 1, b"x"));
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnbError::Codec(ref m) if m.contains("exceeds limit")), "{err}");
    }

    #[test]
    fn checksum_mismatch_rejected() {
        let mut bytes = encode_frame(&frame(FrameKind::Response, 3, b"payload"));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = read_frame(&mut Cursor::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnbError::Codec(ref m) if m.contains("checksum")), "{err}");
    }

    #[test]
    fn truncation_mid_header_and_mid_payload() {
        let bytes = encode_frame(&frame(FrameKind::Request, 9, b"abcdef"));
        // Mid-header: an error (bytes were consumed, stream is broken).
        assert!(read_frame(&mut Cursor::new(&bytes[..HEADER_LEN - 3])).is_err());
        // Mid-payload: also an error.
        assert!(read_frame(&mut Cursor::new(&bytes[..bytes.len() - 2])).is_err());
        // Zero bytes: clean EOF.
        assert!(read_frame(&mut Cursor::new(&[] as &[u8])).unwrap().is_none());
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(checksum(b""), 0x811c_9dc5);
        assert_ne!(checksum(b"a"), checksum(b"b"));
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
    }
}
