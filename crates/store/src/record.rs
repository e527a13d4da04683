//! WAL record framing: length-prefixed, CRC-checked mutation records.
//!
//! One record on disk is
//!
//! ```text
//! +----------------+-----------------------+----------------+
//! | varint len(n)  |  body (n bytes)       | crc32(body) LE |
//! +----------------+-----------------------+----------------+
//! body := op                                  (one mutation)
//!       | 0x03 · varint(count) · op × count   (Batch)
//! op   := 0x01 · varint(klen) · key · varint(vlen) · value   (Put)
//!       | 0x02 · varint(klen) · key                          (Delete)
//! ```
//!
//! reusing the wire codec's varint framing ([`pfr::wire`]). The checksum
//! covers the body; a corrupted length prefix makes the body read overrun
//! or misalign, which the checksum then catches — either way the record
//! is rejected as a unit, never half-applied. A batch is one record, so
//! its ops reach the map together or not at all.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::ops::Range;

use pfr::wire::{varint_len, Reader, WireError, Writer};

use crate::crc::crc32;

const TAG_PUT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_BATCH: u8 = 3;
/// The shortest op: a delete of the empty key (tag + zero length).
const MIN_OP_BYTES: usize = 2;

/// One mutation of the map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Bind `key` to `value` (replacing any previous binding).
    Put {
        /// The key.
        key: Vec<u8>,
        /// The full new value.
        value: Vec<u8>,
    },
    /// Remove `key`'s binding, if any.
    Delete {
        /// The key.
        key: Vec<u8>,
    },
}

/// One durable record: a mutation, or a batch of them applied as a unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// Bind `key` to `value` (replacing any previous binding).
    Put {
        /// The key.
        key: Vec<u8>,
        /// The full new value.
        value: Vec<u8>,
    },
    /// Remove `key`'s binding, if any.
    Delete {
        /// The key.
        key: Vec<u8>,
    },
    /// Mutations applied in order, all or none.
    Batch(Vec<Op>),
}

/// A mutation borrowed from the bytes that encode it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpRef<'a> {
    Put { key: &'a [u8], value: &'a [u8] },
    Delete { key: &'a [u8] },
}

impl OpRef<'_> {
    fn encoded_len(&self) -> usize {
        let bytes = |b: &[u8]| varint_len(b.len() as u64) + b.len();
        match self {
            OpRef::Put { key, value } => 1 + bytes(key) + bytes(value),
            OpRef::Delete { key } => 1 + bytes(key),
        }
    }

    fn write(&self, w: &mut Writer) {
        match self {
            OpRef::Put { key, value } => {
                w.put_u8(TAG_PUT);
                w.put_bytes(key);
                w.put_bytes(value);
            }
            OpRef::Delete { key } => {
                w.put_u8(TAG_DELETE);
                w.put_bytes(key);
            }
        }
    }

    fn read<'a>(r: &mut Reader<'a>) -> Result<OpRef<'a>, WireError> {
        match r.get_u8()? {
            TAG_PUT => Ok(OpRef::Put {
                key: r.get_bytes()?,
                value: r.get_bytes()?,
            }),
            TAG_DELETE => Ok(OpRef::Delete {
                key: r.get_bytes()?,
            }),
            tag => Err(WireError::InvalidTag { what: "Op", tag }),
        }
    }

    fn to_op(self) -> Op {
        match self {
            OpRef::Put { key, value } => Op::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
            OpRef::Delete { key } => Op::Delete { key: key.to_vec() },
        }
    }
}

impl Op {
    fn as_ref(&self) -> OpRef<'_> {
        match self {
            Op::Put { key, value } => OpRef::Put { key, value },
            Op::Delete { key } => OpRef::Delete { key },
        }
    }
}

/// Mutations staged for one atomic record (see [`crate::Store::commit`]).
/// Ops are encoded as they are staged, from borrowed slices; a cleared
/// batch keeps its buffer, so a caller that reuses one allocates nothing
/// in the steady state.
#[derive(Debug, Default)]
pub struct Batch {
    ops: Writer,
    count: u64,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Empties the batch, keeping its buffer.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.count = 0;
    }

    /// Stages binding `key` to `value`.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        OpRef::Put { key, value }.write(&mut self.ops);
        self.count += 1;
    }

    /// Stages removing `key`'s binding.
    pub fn delete(&mut self, key: &[u8]) {
        OpRef::Delete { key }.write(&mut self.ops);
        self.count += 1;
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The staged ops in order.
    pub(crate) fn ops(&self) -> impl Iterator<Item = OpRef<'_>> {
        let mut r = Reader::new(self.ops.as_slice());
        // The bytes are this batch's own encoding, so they always parse.
        std::iter::from_fn(move || OpRef::read(&mut r).ok())
    }
}

/// Appends one framed record to `w`: the length prefix, the `body_len`
/// bytes `body` writes, and their checksum.
fn frame(w: &mut Writer, body_len: usize, body: impl FnOnce(&mut Writer)) {
    w.put_varint(body_len as u64);
    let start = w.len();
    body(w);
    debug_assert_eq!(w.len() - start, body_len);
    let (_, written) = w.as_slice().split_at(start);
    let crc = crc32(written);
    w.put_slice(&crc.to_le_bytes());
}

/// Appends `op` to `w` as one framed record.
pub(crate) fn frame_op(w: &mut Writer, op: OpRef<'_>) {
    frame(w, op.encoded_len(), |w| op.write(w));
}

/// Appends `batch` to `w` as one framed record.
pub(crate) fn frame_batch(w: &mut Writer, batch: &Batch) {
    let ops = batch.ops.as_slice();
    frame(w, 1 + varint_len(batch.count) + ops.len(), |w| {
        w.put_u8(TAG_BATCH);
        w.put_varint(batch.count);
        w.put_slice(ops);
    });
}

impl Record {
    /// Encodes the record as one framed WAL entry.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Record::Put { key, value } => frame_op(&mut w, OpRef::Put { key, value }),
            Record::Delete { key } => frame_op(&mut w, OpRef::Delete { key }),
            Record::Batch(ops) => {
                let mut batch = Batch::new();
                for op in ops {
                    op.as_ref().write(&mut batch.ops);
                    batch.count += 1;
                }
                frame_batch(&mut w, &batch);
            }
        }
        w.into_bytes()
    }
}

/// Why a record failed to decode. The distinction only matters for
/// diagnostics — recovery treats every failure the same way (truncate at
/// the failed record's offset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordFault {
    /// The input ended inside the record (a torn write).
    Torn,
    /// The body checksum did not match (bit rot or a misaligned length).
    BadChecksum,
    /// The body decoded to garbage (bad tag, trailing bytes).
    BadBody,
}

/// The result of scanning a WAL segment's bytes.
#[derive(Clone, Debug, Default)]
pub struct Scan {
    /// Every valid record, in log order, with its byte range in the input.
    pub records: Vec<(Range<usize>, Record)>,
    /// Length of the valid prefix: the offset at which the first bad
    /// record (if any) starts. Recovery truncates the file here.
    pub valid_len: usize,
    /// What stopped the scan, when `valid_len < input.len()`.
    pub fault: Option<RecordFault>,
}

/// Decodes one record starting at the reader's position.
///
/// # Errors
///
/// A [`RecordFault`] describing why the bytes are not one whole, valid
/// record.
pub fn decode_one(r: &mut Reader<'_>) -> Result<Record, RecordFault> {
    let body = r.get_bytes().map_err(|_| RecordFault::Torn)?;
    if r.remaining() < 4 {
        return Err(RecordFault::Torn);
    }
    let mut crc_bytes = [0u8; 4];
    for b in crc_bytes.iter_mut() {
        *b = r.get_u8().map_err(|_| RecordFault::Torn)?;
    }
    if crc32(body) != u32::from_le_bytes(crc_bytes) {
        return Err(RecordFault::BadChecksum);
    }
    decode_body(body).map_err(|_| RecordFault::BadBody)
}

fn decode_body(body: &[u8]) -> Result<Record, WireError> {
    let mut r = Reader::new(body);
    let record = decode_ops(body.first() == Some(&TAG_BATCH), &mut r)?;
    match r.remaining() {
        0 => Ok(record),
        n => Err(WireError::TrailingBytes(n)),
    }
}

fn decode_ops(batch: bool, r: &mut Reader<'_>) -> Result<Record, WireError> {
    if batch {
        r.get_u8()?;
        // Every op takes at least `MIN_OP_BYTES`, so a count the body
        // cannot hold is refused before anything is allocated for it.
        let count = r.get_len(MIN_OP_BYTES)?;
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            ops.push(OpRef::read(r)?.to_op());
        }
        return Ok(Record::Batch(ops));
    }
    Ok(match OpRef::read(r)?.to_op() {
        Op::Put { key, value } => Record::Put { key, value },
        Op::Delete { key } => Record::Delete { key },
    })
}

/// Scans a whole WAL segment, collecting the valid record prefix and
/// stopping — without panicking — at the first torn or corrupt record.
pub fn scan(bytes: &[u8]) -> Scan {
    let mut r = Reader::new(bytes);
    let mut out = Scan::default();
    while r.remaining() > 0 {
        let start = bytes.len() - r.remaining();
        match decode_one(&mut r) {
            Ok(record) => {
                let end = bytes.len() - r.remaining();
                out.records.push((start..end, record));
                out.valid_len = end;
            }
            Err(fault) => {
                out.fault = Some(fault);
                return out;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(k: &[u8], v: &[u8]) -> Record {
        Record::Put {
            key: k.to_vec(),
            value: v.to_vec(),
        }
    }

    fn samples() -> Vec<Record> {
        vec![
            put(b"k", b"v"),
            put(b"", b""),
            put(b"key", &[0u8; 1000]),
            Record::Delete { key: b"k".to_vec() },
            Record::Batch(vec![]),
            Record::Batch(vec![
                Op::Put {
                    key: b"a".to_vec(),
                    value: vec![7; 300],
                },
                Op::Delete { key: b"b".to_vec() },
                Op::Delete { key: vec![] },
            ]),
        ]
    }

    #[test]
    fn roundtrip_every_record_shape() {
        for record in samples() {
            let bytes = record.encode();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_one(&mut r).unwrap(), record);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn staged_batches_frame_like_owned_ones_across_reuse() {
        let mut batch = Batch::new();
        let mut w = Writer::new();
        for _ in 0..2 {
            batch.clear();
            batch.put(b"a", &[7; 300]);
            batch.delete(b"b");
            batch.delete(b"");
            assert!(!batch.is_empty());
            w.clear();
            frame_batch(&mut w, &batch);
            assert_eq!(w.as_slice(), samples()[5].encode());
            let staged: Vec<Op> = batch.ops().map(OpRef::to_op).collect();
            assert_eq!(Record::Batch(staged), samples()[5]);
        }
    }

    #[test]
    fn a_batch_inside_a_batch_is_a_bad_body() {
        let mut inner = Batch::new();
        inner.put(b"k", b"v");
        let mut nested = Writer::new();
        frame(&mut nested, 2 + 1 + 1 + inner.ops.len(), |w| {
            w.put_u8(TAG_BATCH);
            w.put_varint(1);
            w.put_u8(TAG_BATCH);
            w.put_varint(1);
            w.put_slice(inner.ops.as_slice());
        });
        let scan = scan(nested.as_slice());
        assert!(scan.records.is_empty());
        assert_eq!(scan.fault, Some(RecordFault::BadBody));
    }

    #[test]
    fn a_hostile_op_count_is_refused_before_allocating() {
        let mut w = Writer::new();
        frame(&mut w, 1 + varint_len(u64::MAX >> 1), |w| {
            w.put_u8(TAG_BATCH);
            w.put_varint(u64::MAX >> 1);
        });
        let scan = scan(w.as_slice());
        assert!(scan.records.is_empty());
        assert_eq!(scan.fault, Some(RecordFault::BadBody));
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut log = put(b"a", b"1").encode();
        let keep = log.len();
        let mut torn = put(b"b", b"2").encode();
        torn.truncate(torn.len() - 3);
        log.extend_from_slice(&torn);
        let scan = scan(&log);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, keep);
        assert_eq!(scan.fault, Some(RecordFault::Torn));
    }

    #[test]
    fn scan_stops_at_flipped_bit() {
        let mut log = put(b"a", b"1").encode();
        let keep = log.len();
        let mut bad = put(b"b", b"2").encode();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        log.extend_from_slice(&bad);
        let scan = scan(&log);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, keep);
        assert!(scan.fault.is_some());
    }

    #[test]
    fn empty_log_scans_clean() {
        let scan = scan(&[]);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert_eq!(scan.fault, None);
    }
}
