//! Length-prefixed message framing for the sync protocol.
//!
//! Every protocol message travels as one frame:
//!
//! ```text
//! +----------+----------+----------------+--------------+
//! | magic(2) | type(1)  | length(4, LE)  | crc32(4, LE) |  header, 11 bytes
//! +----------+----------+----------------+--------------+
//! | payload (length bytes, wire-encoded)                |
//! +-----------------------------------------------------+
//! ```
//!
//! The magic bytes detect protocol mismatches immediately; the length
//! field is bounded to keep a malicious peer from forcing huge
//! allocations; the CRC-32 (computed over the type byte, the length
//! field, and the payload) turns bit corruption anywhere past the magic
//! into a typed [`FrameError::BadChecksum`] instead of silently
//! delivering a damaged item — DTN links are exactly where that happens.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::fmt;
use std::io::Write;

use store::crc::{crc32, crc32_update};

/// Frame type tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// A [`pfr::sync::SyncRequest`] from target to source.
    SyncRequest = 1,
    /// A [`pfr::sync::SyncBatch`] from source to target.
    SyncBatch = 2,
    /// A terse acknowledgement closing one sync session.
    SyncDone = 3,
    /// Peer identification exchanged on connect.
    Hello = 4,
    /// A [`pfr::digest::DigestRequest`] from target to source: the
    /// digest-mode stand-in for a [`FrameType::SyncRequest`].
    SyncDigest = 5,
    // Tags 6 and 7 carried the exact-query round of a retired summary
    // kind; they decode as `FrameError::BadType`.
    /// The source could not resolve a digest (lost snapshot, corrupt
    /// frame): the target must retransmit a plain full
    /// [`FrameType::SyncRequest`].
    ReconResync = 8,
    /// A gossip membership exchange: one node's view of the mesh, sent
    /// either unsolicited (a gossip round) or as the reply to one.
    Gossip = 9,
}

impl FrameType {
    fn from_tag(tag: u8) -> Option<FrameType> {
        match tag {
            1 => Some(FrameType::SyncRequest),
            2 => Some(FrameType::SyncBatch),
            3 => Some(FrameType::SyncDone),
            4 => Some(FrameType::Hello),
            5 => Some(FrameType::SyncDigest),
            8 => Some(FrameType::ReconResync),
            9 => Some(FrameType::Gossip),
            _ => None,
        }
    }
}

/// Magic bytes prefixed to every frame.
pub const MAGIC: [u8; 2] = [0xD7, 0x4E]; // "DTN"-ish

/// Hard cap on frame payloads (16 MiB).
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Size of the frame header: magic, type, length, CRC-32.
pub const HEADER_LEN: usize = 11;

/// Consumed bytes [`FrameAccum`] lets pile up before reclaiming them, and
/// the buffer capacity it keeps across connections. It buffers only bytes
/// that have arrived, so a lying length prefix cannot reserve 16 MiB up
/// front.
const READ_CHUNK: usize = 64 * 1024;

/// The frame checksum: CRC-32 over the type tag, the LE length field, and
/// the payload.
fn frame_checksum(frame_type: u8, len: u32, payload: &[u8]) -> u32 {
    let mut prefix = [0u8; 5];
    prefix[0] = frame_type;
    prefix[1..].copy_from_slice(&len.to_le_bytes());
    crc32_update(crc32(&prefix), payload)
}

/// Errors from reading or writing frames.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The peer did not speak this protocol.
    BadMagic([u8; 2]),
    /// Unknown frame type tag.
    BadType(u8),
    /// A frame exceeded [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The frame checksum did not match: the bytes were corrupted in
    /// flight (or by a fault injector).
    BadChecksum {
        /// Checksum carried in the header.
        expected: u32,
        /// Checksum computed over the received bytes.
        got: u32,
    },
    /// Frame payload failed to decode.
    Decode(pfr::wire::WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadType(t) => write!(f, "unknown frame type {t}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            FrameError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:08x}, computed {got:08x}"
                )
            }
            FrameError::Decode(e) => write!(f, "payload decode failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<pfr::wire::WireError> for FrameError {
    fn from(e: pfr::wire::WireError) -> Self {
        FrameError::Decode(e)
    }
}

/// Writes one frame to `w`.
///
/// # Errors
///
/// [`FrameError::TooLarge`] if the payload exceeds the cap, or any I/O
/// error from the writer.
pub fn write_frame<W: Write>(
    w: &mut W,
    frame_type: FrameType,
    payload: &[u8],
) -> Result<(), FrameError> {
    let header = frame_header(frame_type, payload)?;
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Builds the [`HEADER_LEN`]-byte header framing `payload` — the
/// encode-side primitive behind [`write_frame`], exposed so the session
/// machine can append header and payload to an outbox in one reserve.
///
/// # Errors
///
/// [`FrameError::TooLarge`] if the payload exceeds the cap.
pub fn frame_header(frame_type: FrameType, payload: &[u8]) -> Result<[u8; HEADER_LEN], FrameError> {
    if payload.len() as u64 > u64::from(MAX_FRAME_LEN) {
        return Err(FrameError::TooLarge(payload.len() as u32));
    }
    let len = payload.len() as u32;
    let mut header = [0u8; HEADER_LEN];
    header[..2].copy_from_slice(&MAGIC);
    header[2] = frame_type as u8;
    header[3..7].copy_from_slice(&len.to_le_bytes());
    header[7..].copy_from_slice(&frame_checksum(frame_type as u8, len, payload).to_le_bytes());
    Ok(header)
}

/// Checks a frame header and takes it apart: type, payload length, and
/// the checksum the payload must match.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(FrameType, u32, u32), FrameError> {
    let [m0, m1, tag, l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    if [m0, m1] != MAGIC {
        return Err(FrameError::BadMagic([m0, m1]));
    }
    let frame_type = FrameType::from_tag(tag).ok_or(FrameError::BadType(tag))?;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    Ok((frame_type, len, u32::from_le_bytes([c0, c1, c2, c3])))
}

/// The incremental frame decoder every session driver reads through.
///
/// A socket hands over bytes in arbitrary chunks. `FrameAccum` buffers
/// whatever has arrived and yields complete frames as they materialize,
/// each payload borrowed from the buffer it arrived in — so the reactor,
/// the blocking pump and an in-memory pump all parse the same way.
///
/// [`FrameError::BadChecksum`] is *recoverable* — the corrupt frame's
/// bytes are fully consumed, so the stream stays aligned and the caller
/// can keep decoding (the serve side uses this to answer with
/// [`FrameType::ReconResync`]). All other errors mean the byte stream
/// itself is broken and the connection should be dropped.
#[derive(Debug, Default)]
pub struct FrameAccum {
    buf: Vec<u8>,
    start: usize,
}

impl FrameAccum {
    /// An empty accumulator.
    pub fn new() -> Self {
        FrameAccum::default()
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing: steady-state sessions
        // never exceed one frame plus one read chunk of buffered bytes.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= READ_CHUNK) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Empties the accumulator for the next connection, keeping its buffer
    /// unless one oversized frame grew it past a read chunk.
    pub(crate) fn recycle(&mut self) {
        self.start = 0;
        if self.buf.capacity() > READ_CHUNK {
            self.buf = Vec::new();
        } else {
            self.buf.clear();
        }
    }

    /// Bytes buffered but not yet consumed by [`FrameAccum::next_frame`].
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tries to decode the next complete frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadChecksum`] consumes the damaged frame and leaves
    /// the decoder aligned on the next one; [`FrameError::BadMagic`],
    /// [`FrameError::BadType`] and [`FrameError::TooLarge`] poison the
    /// stream — drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<(FrameType, &[u8])>, FrameError> {
        // `start` never passes the end of `buf`.
        let avail = self.buf.get(self.start..).unwrap_or_default();
        let Some((header, rest)) = avail.split_first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let (frame_type, len, expected) = parse_header(header)?;
        let Some(payload) = rest.get(..len as usize) else {
            return Ok(None);
        };
        // Consume the frame either way: a checksum failure is a damaged
        // payload, not a framing loss, so the next frame starts right after.
        self.start += HEADER_LEN + payload.len();
        let got = frame_checksum(frame_type as u8, len, payload);
        if got == expected {
            Ok(Some((frame_type, payload)))
        } else {
            Err(FrameError::BadChecksum { expected, got })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frames `bytes` decodes to, each owned, up to the first error.
    fn decode(bytes: &[u8]) -> Result<Vec<(FrameType, Vec<u8>)>, FrameError> {
        let mut accum = FrameAccum::new();
        accum.extend(bytes);
        let mut frames = Vec::new();
        while let Some((ft, payload)) = accum.next_frame()? {
            frames.push((ft, payload.to_vec()));
        }
        Ok(frames)
    }

    fn frame(ft: FrameType, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, ft, payload).unwrap();
        buf
    }

    #[test]
    fn roundtrip_all_types() {
        for ft in [
            FrameType::SyncRequest,
            FrameType::SyncBatch,
            FrameType::SyncDone,
            FrameType::Hello,
            FrameType::SyncDigest,
            FrameType::ReconResync,
            FrameType::Gossip,
        ] {
            let got = decode(&frame(ft, b"payload")).unwrap();
            assert_eq!(got, [(ft, b"payload".to_vec())]);
        }
    }

    #[test]
    fn empty_payload_ok() {
        let got = decode(&frame(FrameType::SyncDone, b"")).unwrap();
        assert_eq!(got, [(FrameType::SyncDone, Vec::new())]);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = frame(FrameType::Hello, b"x");
        buf[0] = 0x00;
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn bad_type_rejected() {
        // 6 and 7 are retired tags, 0xee was never one.
        for tag in [0, 6, 7, 10, 0xee] {
            let mut buf = frame(FrameType::Hello, b"x");
            buf[2] = tag;
            let err = decode(&buf).unwrap_err();
            assert!(matches!(err, FrameError::BadType(t) if t == tag), "{tag}");
        }
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut buf = frame(FrameType::Hello, b"x");
        buf[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut accum = FrameAccum::new();
        accum.extend(&buf);
        assert!(matches!(accum.next_frame(), Err(FrameError::TooLarge(_))));
        // A length at the cap is legal but waits for bytes that have not
        // arrived, holding only what has.
        buf[3..7].copy_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        let mut accum = FrameAccum::new();
        accum.extend(&buf);
        assert!(matches!(accum.next_frame(), Ok(None)));
        assert_eq!(accum.buffered(), buf.len());
        assert!(accum.buf.capacity() < READ_CHUNK);
    }

    #[test]
    fn corrupted_payload_byte_is_a_checksum_error() {
        let buf = frame(FrameType::SyncBatch, b"precious payload");
        for pos in HEADER_LEN..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            let err = decode(&bad).unwrap_err();
            assert!(
                matches!(err, FrameError::BadChecksum { .. }),
                "flip at {pos}: {err}"
            );
        }
    }

    #[test]
    fn corrupted_crc_field_is_a_checksum_error() {
        let mut buf = frame(FrameType::SyncDone, b"");
        buf[7] ^= 0x01;
        let err = decode(&buf).unwrap_err();
        assert!(matches!(err, FrameError::BadChecksum { .. }));
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn accum_decodes_frames_delivered_byte_by_byte() {
        let mut stream = frame(FrameType::Hello, b"hi");
        stream.extend(frame(FrameType::Gossip, &[9u8; 300]));
        let mut accum = FrameAccum::new();
        let mut got = Vec::new();
        for b in &stream {
            accum.extend(std::slice::from_ref(b));
            while let Some((ft, payload)) = accum.next_frame().unwrap() {
                got.push((ft, payload.to_vec()));
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (FrameType::Hello, b"hi".to_vec()));
        assert_eq!(got[1].0, FrameType::Gossip);
        assert_eq!(got[1].1, vec![9u8; 300]);
        assert_eq!(accum.buffered(), 0);
    }

    #[test]
    fn accum_checksum_error_stays_aligned() {
        let mut stream = frame(FrameType::SyncRequest, b"damaged");
        stream.extend(frame(FrameType::SyncDone, b"clean"));
        stream[HEADER_LEN] ^= 0x80; // corrupt the first payload byte
        let mut accum = FrameAccum::new();
        accum.extend(&stream);
        let err = accum.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::BadChecksum { .. }));
        // The damaged frame was consumed: the next decode succeeds.
        let (ft, payload) = accum.next_frame().unwrap().expect("second frame");
        assert_eq!(ft, FrameType::SyncDone);
        assert_eq!(payload, b"clean");
    }

    #[test]
    fn truncated_frame_waits_for_more_bytes() {
        let mut buf = frame(FrameType::Hello, b"hello");
        buf.truncate(buf.len() - 2);
        assert!(decode(&buf).unwrap().is_empty());
    }
}
