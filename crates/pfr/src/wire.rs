//! Compact binary wire encoding for replication messages.
//!
//! Synchronization in a DTN happens over scarce, short-lived links, so the
//! wire format matters. This module provides a small, hand-rolled
//! tag-free binary codec — LEB128 varints, zig-zag signed integers,
//! length-prefixed strings — plus [`Encode`]/[`Decode`] implementations
//! for every protocol type: values, attribute maps, knowledge, filters,
//! items, and the sync request/batch messages.
//!
//! The codec is hand-written so that the encoded size of each structure
//! is explicit and testable (the paper's "compact metadata overhead"
//! claim is about exactly these bytes). Round-trip
//! correctness is property-tested.

use std::fmt;
use std::sync::Arc;

use bytes::{BufMut, BytesMut};

use crate::digest::{DigestRequest, KnowledgeSummary};
use crate::filter::{CmpOp, Filter};
use crate::id::{ItemId, ReplicaId, Version};
use crate::intern::IStr;
use crate::item::Item;
use crate::knowledge::Knowledge;
use crate::payload::Payload;
use crate::sync::{BatchEntry, Priority, PriorityClass, RoutingState, SyncBatch, SyncRequest};
use crate::value::Value;
use crate::AttributeMap;

/// Errors from decoding a wire message.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// A varint used more than 10 bytes.
    VarintOverflow,
    /// An enum tag byte was out of range.
    InvalidTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Input had bytes left over after the top-level value.
    TrailingBytes(usize),
    /// A collection length prefix exceeded the remaining input (corrupt or
    /// hostile input; bounds-checked before allocation).
    LengthOverflow(u64),
    /// Recursive structures (filters, list values) nested deeper than
    /// [`MAX_DECODE_DEPTH`] — hostile input trying to overflow the stack.
    DepthLimit,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag} while decoding {what}")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::LengthOverflow(n) => {
                write!(f, "length prefix {n} exceeds remaining input")
            }
            WireError::DepthLimit => {
                write!(f, "nesting exceeds {MAX_DECODE_DEPTH} levels")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum nesting depth accepted while decoding recursive structures
/// (filters and list values). Legitimate filters are a handful of levels
/// deep; without a bound, a few megabytes of `Not` tags would recurse the
/// decoder straight through the stack guard page.
pub const MAX_DECODE_DEPTH: usize = 64;

/// Append-only encoder.
///
/// A writer made by [`Writer::counting`] stores nothing and only adds up
/// how many bytes it was asked to write: one [`Encode`] implementation
/// per type serves both the frame and its length (see [`encoded_len`]).
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
    /// `Some(n)`: length-only mode, `n` bytes counted so far.
    counted: Option<usize>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a writer that counts bytes instead of storing them.
    pub fn counting() -> Self {
        Writer {
            buf: BytesMut::new(),
            counted: Some(0),
        }
    }

    /// Finishes encoding, returning the bytes (none from a counting
    /// writer). Moves the buffer out — no copy.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.into()
    }

    /// The bytes written so far (none in a counting writer).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the writer, retaining its allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
        if let Some(n) = &mut self.counted {
            *n = 0;
        }
    }

    /// Bytes written (or counted) so far.
    pub fn len(&self) -> usize {
        self.counted.unwrap_or(self.buf.len())
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes one raw byte.
    pub fn put_u8(&mut self, byte: u8) {
        match &mut self.counted {
            Some(n) => *n += 1,
            None => self.buf.put_u8(byte),
        }
    }

    /// Writes raw bytes with no length prefix (the caller's framing says
    /// where they end).
    pub fn put_slice(&mut self, bytes: &[u8]) {
        match &mut self.counted {
            Some(n) => *n += bytes.len(),
            None => self.buf.put_slice(bytes),
        }
    }

    /// Writes a fixed-width little-endian u64. Varints spend ~9.5 bytes
    /// on a uniformly random 64-bit value; hashes (checksums,
    /// fingerprints) always take this fixed 8-byte form instead.
    pub fn put_u64(&mut self, value: u64) {
        self.put_slice(&value.to_le_bytes());
    }

    /// Writes an unsigned LEB128 varint.
    pub fn put_varint(&mut self, mut value: u64) {
        if let Some(n) = &mut self.counted {
            *n += varint_len(value);
            return;
        }
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Writes a signed integer with zig-zag encoding.
    pub fn put_signed(&mut self, value: i64) {
        self.put_varint(((value << 1) ^ (value >> 63)) as u64);
    }

    /// Writes an `f64` as its fixed 8-byte IEEE-754 representation.
    pub fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, value: bool) {
        self.put_u8(u8::from(value));
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.put_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Bytes [`Writer::put_varint`] spends on `value`.
pub fn varint_len(value: u64) -> usize {
    // 7 payload bits per byte; zero still takes one.
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// Cursor-based decoder over a byte slice.
///
/// A reader constructed with [`Reader::shared`] additionally knows the
/// reference-counted buffer backing its input, letting
/// [`Reader::get_payload`] hand out [`Payload`]s that *slice into* that
/// buffer instead of copying — the zero-copy decode path for received
/// frames and snapshots.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    depth: usize,
    backing: Option<&'a Arc<[u8]>>,
    shared_payloads: u64,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            depth: 0,
            backing: None,
            shared_payloads: 0,
        }
    }

    /// Creates a reader over a shared buffer: payloads decoded via
    /// [`Reader::get_payload`] will reference-count `backing` and slice
    /// into it rather than allocating.
    pub fn shared(backing: &'a Arc<[u8]>) -> Self {
        Reader {
            buf: backing,
            pos: 0,
            depth: 0,
            backing: Some(backing),
            shared_payloads: 0,
        }
    }

    /// How many payloads were decoded as slices of the shared backing
    /// buffer (always 0 for a [`Reader::new`] reader).
    pub fn shared_payload_count(&self) -> u64 {
        self.shared_payloads
    }

    /// Runs `f` one nesting level deeper, failing with
    /// [`WireError::DepthLimit`] past [`MAX_DECODE_DEPTH`] levels. Every
    /// recursive [`Decode`] implementation must route its recursion through
    /// this so adversarial input cannot overflow the stack.
    pub fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.depth >= MAX_DECODE_DEPTH {
            return Err(WireError::DepthLimit);
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one raw byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let byte = *self.buf.get(self.pos).ok_or(WireError::UnexpectedEof)?;
        self.pos += 1;
        Ok(byte)
    }

    /// Reads a fixed-width little-endian u64 (see [`Writer::put_u64`]).
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let end = self.pos.checked_add(8).ok_or(WireError::UnexpectedEof)?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(WireError::UnexpectedEof)?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// Reads an unsigned LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Reads a zig-zag signed integer.
    pub fn get_signed(&mut self) -> Result<i64, WireError> {
        let raw = self.get_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Reads a fixed 8-byte `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        if self.remaining() < 8 {
            return Err(WireError::UnexpectedEof);
        }
        let mut bits = [0u8; 8];
        bits.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    /// Reads a bool byte.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { what: "bool", tag }),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_varint()?;
        if len > self.remaining() as u64 {
            return Err(WireError::LengthOverflow(len));
        }
        let len = len as usize;
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads a length-prefixed byte slice as a [`Payload`]. On a
    /// [`Reader::shared`] reader the payload slices into the backing
    /// buffer (reference-count bump, no allocation); otherwise the bytes
    /// are copied into a fresh buffer.
    pub fn get_payload(&mut self) -> Result<Payload, WireError> {
        let len = self.get_varint()?;
        if len > self.remaining() as u64 {
            return Err(WireError::LengthOverflow(len));
        }
        let len = len as usize;
        let start = self.pos;
        self.pos += len;
        match self.backing {
            Some(arc) if len > 0 => {
                self.shared_payloads += 1;
                Ok(Payload::from_shared(arc.clone(), start, len))
            }
            _ => Ok(Payload::from(&self.buf[start..start + len])),
        }
    }

    /// Reads a length-prefixed UTF-8 string as a borrowed slice.
    pub fn get_str_slice(&mut self) -> Result<&'a str, WireError> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        Ok(self.get_str_slice()?.to_owned())
    }

    /// Reads a collection length prefix, validating it against a minimum
    /// per-element size so corrupt input cannot trigger huge allocations.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let len = self.get_varint()?;
        let budget = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if len > budget {
            return Err(WireError::LengthOverflow(len));
        }
        Ok(len as usize)
    }
}

/// Types that can be written to the wire.
pub trait Encode {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);
}

/// Types that can be read back from the wire.
pub trait Decode: Sized {
    /// Decodes one value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value to a fresh byte vector.
pub fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Length of `value`'s encoding, from a counting pass: nothing is
/// allocated or copied. Always equals `to_bytes(value).len()`.
pub fn encoded_len<T: Encode>(value: &T) -> usize {
    let mut w = Writer::counting();
    value.encode(&mut w);
    w.len()
}

/// A reusable encode buffer: every [`EncodeScratch::encode`] call after
/// the first reuses the same allocation, so steady-state encoding — one
/// sync session's frames, a WAL's appends — allocates nothing per message.
/// Tracks reuse and byte counters for the `wire.scratch_reuses` /
/// `wire.bytes_encoded` observability counters.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    w: Writer,
    encodes: u64,
    bytes_encoded: u64,
}

impl EncodeScratch {
    /// An empty scratch buffer.
    pub fn new() -> Self {
        EncodeScratch::default()
    }

    /// Encodes `value` into the scratch buffer (clearing any previous
    /// contents, keeping the allocation) and returns the encoded bytes.
    /// The bytes stay valid — retrievable via [`EncodeScratch::last`] —
    /// until the next `encode` call.
    pub fn encode<T: Encode>(&mut self, value: &T) -> &[u8] {
        self.encodes += 1;
        self.w.clear();
        value.encode(&mut self.w);
        self.bytes_encoded += self.w.len() as u64;
        self.w.as_slice()
    }

    /// The bytes of the most recent [`EncodeScratch::encode`] call.
    pub fn last(&self) -> &[u8] {
        self.w.as_slice()
    }

    /// How many encodes reused the buffer (all but the first).
    pub fn reuses(&self) -> u64 {
        self.encodes.saturating_sub(1)
    }

    /// Total bytes encoded through this scratch buffer.
    pub fn bytes_encoded(&self) -> u64 {
        self.bytes_encoded
    }
}

/// Decodes a value, requiring the input to be fully consumed.
///
/// # Errors
///
/// Any [`WireError`] from decoding, or [`WireError::TrailingBytes`] if the
/// value did not consume all input.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(value)
}

/// Decodes a value from a shared buffer, requiring the input to be fully
/// consumed. Item payloads inside the value slice into `backing` instead
/// of being copied (see [`Reader::shared`]); the second return value is
/// how many payloads were shared that way.
///
/// # Errors
///
/// Any [`WireError`] from decoding, or [`WireError::TrailingBytes`] if the
/// value did not consume all input.
pub fn from_bytes_shared<T: Decode>(backing: &Arc<[u8]>) -> Result<(T, u64), WireError> {
    let mut r = Reader::shared(backing);
    let value = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok((value, r.shared_payload_count()))
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl Encode for ReplicaId {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.as_u64());
    }
}

impl Decode for ReplicaId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReplicaId::new(r.get_varint()?))
    }
}

impl Encode for ItemId {
    fn encode(&self, w: &mut Writer) {
        self.origin().encode(w);
        w.put_varint(self.seq());
    }
}

impl Decode for ItemId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let origin = ReplicaId::decode(r)?;
        let seq = r.get_varint()?;
        Ok(ItemId::new(origin, seq))
    }
}

impl Encode for Version {
    fn encode(&self, w: &mut Writer) {
        self.replica().encode(w);
        w.put_varint(self.counter());
    }
}

impl Decode for Version {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let replica = ReplicaId::decode(r)?;
        let counter = r.get_varint()?;
        Ok(Version::new(replica, counter))
    }
}

const VAL_STR: u8 = 0;
const VAL_INT: u8 = 1;
const VAL_FLOAT: u8 = 2;
const VAL_BOOL: u8 = 3;
const VAL_BYTES: u8 = 4;
const VAL_LIST: u8 = 5;

impl Encode for Value {
    fn encode(&self, w: &mut Writer) {
        match self {
            Value::Str(s) => {
                w.put_u8(VAL_STR);
                w.put_str(s);
            }
            Value::Int(i) => {
                w.put_u8(VAL_INT);
                w.put_signed(*i);
            }
            Value::Float(f) => {
                w.put_u8(VAL_FLOAT);
                w.put_f64(*f);
            }
            Value::Bool(b) => {
                w.put_u8(VAL_BOOL);
                w.put_bool(*b);
            }
            Value::Bytes(b) => {
                w.put_u8(VAL_BYTES);
                w.put_bytes(b);
            }
            Value::List(l) => {
                w.put_u8(VAL_LIST);
                l.encode(w);
            }
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            VAL_STR => Ok(Value::Str(IStr::new(r.get_str_slice()?))),
            VAL_INT => Ok(Value::Int(r.get_signed()?)),
            VAL_FLOAT => Ok(Value::Float(r.get_f64()?)),
            VAL_BOOL => Ok(Value::Bool(r.get_bool()?)),
            VAL_BYTES => Ok(Value::Bytes(r.get_bytes()?.to_vec())),
            VAL_LIST => Ok(Value::List(r.nested(Vec::decode)?)),
            tag => Err(WireError::InvalidTag { what: "Value", tag }),
        }
    }
}

impl Encode for AttributeMap {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for (name, value) in self.iter() {
            w.put_str(name);
            value.encode(w);
        }
    }
}

impl Decode for AttributeMap {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len(2)?;
        let mut pairs = Vec::with_capacity(len);
        for _ in 0..len {
            let name = IStr::new(r.get_str_slice()?);
            pairs.push((name, Value::decode(r)?));
        }
        AttributeMap::from_pairs(pairs).map_err(|_| WireError::InvalidTag {
            what: "AttributeMap(NaN)",
            tag: 0,
        })
    }
}

impl Encode for Knowledge {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.replica_count() as u64);
        for (replica, counter) in self.vector_entries() {
            replica.encode(w);
            w.put_varint(counter);
        }
        w.put_varint(self.exception_count() as u64);
        for version in self.exceptions() {
            version.encode(w);
        }
    }
}

impl Decode for Knowledge {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Entries may come in any order and overlap (only an honest
        // encoder writes them ascending and canonical), so they are
        // gathered first and the knowledge built from all of them at once.
        let mut entries = [Vec::new(), Vec::new()];
        for list in &mut entries {
            let n = r.get_len(2)?;
            list.reserve_exact(n);
            for _ in 0..n {
                list.push((ReplicaId::decode(r)?, r.get_varint()?));
            }
        }
        let [prefixes, singles] = entries;
        Ok(Knowledge::from_entries(prefixes, singles))
    }
}

const CMP_TAGS: [(CmpOp, u8); 6] = [
    (CmpOp::Eq, 0),
    (CmpOp::Ne, 1),
    (CmpOp::Lt, 2),
    (CmpOp::Le, 3),
    (CmpOp::Gt, 4),
    (CmpOp::Ge, 5),
];

impl Encode for CmpOp {
    fn encode(&self, w: &mut Writer) {
        let tag = CMP_TAGS
            .iter()
            .find(|(op, _)| op == self)
            .map(|(_, t)| *t)
            .expect("all ops tagged");
        w.put_u8(tag);
    }
}

impl Decode for CmpOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        CMP_TAGS
            .iter()
            .find(|(_, t)| *t == tag)
            .map(|(op, _)| *op)
            .ok_or(WireError::InvalidTag { what: "CmpOp", tag })
    }
}

const FILT_ALL: u8 = 0;
const FILT_NONE: u8 = 1;
const FILT_CMP: u8 = 2;
const FILT_IN: u8 = 3;
const FILT_CONTAINS: u8 = 4;
const FILT_EXISTS: u8 = 5;
const FILT_NOT: u8 = 6;
const FILT_AND: u8 = 7;
const FILT_OR: u8 = 8;

impl Encode for Filter {
    fn encode(&self, w: &mut Writer) {
        match self {
            Filter::All => w.put_u8(FILT_ALL),
            Filter::None => w.put_u8(FILT_NONE),
            Filter::Cmp { attr, op, value } => {
                w.put_u8(FILT_CMP);
                w.put_str(attr);
                op.encode(w);
                value.encode(w);
            }
            Filter::In { attr, values } => {
                w.put_u8(FILT_IN);
                w.put_str(attr);
                values.encode(w);
            }
            Filter::Contains { attr, value } => {
                w.put_u8(FILT_CONTAINS);
                w.put_str(attr);
                value.encode(w);
            }
            Filter::Exists(attr) => {
                w.put_u8(FILT_EXISTS);
                w.put_str(attr);
            }
            Filter::Not(inner) => {
                w.put_u8(FILT_NOT);
                inner.encode(w);
            }
            Filter::And(arms) => {
                w.put_u8(FILT_AND);
                arms.encode(w);
            }
            Filter::Or(arms) => {
                w.put_u8(FILT_OR);
                arms.encode(w);
            }
        }
    }
}

impl Decode for Filter {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            FILT_ALL => Ok(Filter::All),
            FILT_NONE => Ok(Filter::None),
            FILT_CMP => Ok(Filter::Cmp {
                attr: r.get_str()?,
                op: CmpOp::decode(r)?,
                value: Value::decode(r)?,
            }),
            FILT_IN => Ok(Filter::In {
                attr: r.get_str()?,
                values: Vec::decode(r)?,
            }),
            FILT_CONTAINS => Ok(Filter::Contains {
                attr: r.get_str()?,
                value: Value::decode(r)?,
            }),
            FILT_EXISTS => Ok(Filter::Exists(r.get_str()?)),
            FILT_NOT => Ok(Filter::Not(Box::new(r.nested(Filter::decode)?))),
            FILT_AND => Ok(Filter::And(r.nested(Vec::decode)?)),
            FILT_OR => Ok(Filter::Or(r.nested(Vec::decode)?)),
            tag => Err(WireError::InvalidTag {
                what: "Filter",
                tag,
            }),
        }
    }
}

impl Encode for Item {
    fn encode(&self, w: &mut Writer) {
        self.id().encode(w);
        self.version().encode(w);
        let ancestors: Vec<Version> = self.ancestors().collect();
        ancestors.encode(w);
        self.attrs().encode(w);
        self.transient().encode(w);
        w.put_bytes(self.payload());
        w.put_bool(self.is_deleted());
    }
}

impl Decode for Item {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let id = ItemId::decode(r)?;
        let version = Version::decode(r)?;
        let ancestors = Vec::<Version>::decode(r)?;
        let attrs = AttributeMap::decode(r)?;
        let transient = AttributeMap::decode(r)?;
        // On a shared reader this slices into the frame buffer: every
        // item in a received batch shares the one backing allocation.
        let payload = r.get_payload()?;
        let deleted = r.get_bool()?;
        let item = Item::builder(id, version)
            .attrs(attrs)
            .transient_attrs(transient)
            .payload(payload)
            .deleted(deleted)
            .build();
        // Re-derive ancestor history through the supersession API.
        Ok(ancestors
            .into_iter()
            .fold(item, |item, v| item.with_ancestor(v)))
    }
}

impl Encode for RoutingState<'_> {
    /// Length-prefixed wire form. A lent payload is walked twice — once
    /// counting, once writing straight into `w` — and never staged in a
    /// buffer of its own.
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.encoded_len() as u64);
        self.encode_into(w);
    }
}

impl Decode for RoutingState<'static> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RoutingState::from_bytes(r.get_bytes()?.to_vec()))
    }
}

const PRIO_TAGS: [(PriorityClass, u8); 5] = [
    (PriorityClass::Lowest, 0),
    (PriorityClass::Low, 1),
    (PriorityClass::Normal, 2),
    (PriorityClass::High, 3),
    (PriorityClass::Highest, 4),
];

impl Encode for PriorityClass {
    fn encode(&self, w: &mut Writer) {
        let tag = PRIO_TAGS
            .iter()
            .find(|(c, _)| c == self)
            .map(|(_, t)| *t)
            .expect("all classes tagged");
        w.put_u8(tag);
    }
}

impl Decode for PriorityClass {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        PRIO_TAGS
            .iter()
            .find(|(_, t)| *t == tag)
            .map(|(c, _)| *c)
            .ok_or(WireError::InvalidTag {
                what: "PriorityClass",
                tag,
            })
    }
}

impl Encode for Priority {
    fn encode(&self, w: &mut Writer) {
        self.class().encode(w);
        w.put_f64(self.cost());
    }
}

impl Decode for Priority {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let class = PriorityClass::decode(r)?;
        let cost = r.get_f64()?;
        Ok(Priority::new(class, cost))
    }
}

impl Encode for SyncRequest<'_> {
    fn encode(&self, w: &mut Writer) {
        self.target.encode(w);
        self.knowledge.encode(w);
        self.filter.encode(w);
        self.routing.encode(w);
    }
}

/// Length of the [`SyncRequest`] encoding for a request whose knowledge
/// and filter lengths are already known (digest sync keeps both current,
/// so accounting what full mode *would* have sent walks neither).
pub fn sync_request_len(
    target: ReplicaId,
    knowledge_len: usize,
    filter_len: usize,
    routing: &RoutingState<'_>,
) -> usize {
    encoded_len(&target) + knowledge_len + filter_len + encoded_len(routing)
}

impl Decode for SyncRequest<'static> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SyncRequest {
            target: ReplicaId::decode(r)?,
            knowledge: std::borrow::Cow::Owned(Knowledge::decode(r)?),
            filter: std::borrow::Cow::Owned(Filter::decode(r)?),
            routing: RoutingState::decode(r)?,
        })
    }
}

impl Encode for BatchEntry {
    fn encode(&self, w: &mut Writer) {
        self.item.encode(w);
        self.priority.encode(w);
        w.put_bool(self.matched_filter);
    }
}

impl Decode for BatchEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BatchEntry {
            item: Item::decode(r)?,
            priority: Priority::decode(r)?,
            matched_filter: r.get_bool()?,
        })
    }
}

impl Encode for SyncBatch {
    fn encode(&self, w: &mut Writer) {
        self.source.encode(w);
        self.entries.encode(w);
        w.put_varint(self.withheld as u64);
    }
}

impl Decode for SyncBatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SyncBatch {
            source: ReplicaId::decode(r)?,
            entries: Vec::decode(r)?,
            withheld: r.get_varint()? as usize,
        })
    }
}

// ---- digest-mode messages -------------------------------------------------
//
// A delta is a plain version list: count, then `(replica, counter)` varint
// pairs in the order they were learned.

const SUMMARY_FULL: u8 = 0;
const SUMMARY_UNCHANGED: u8 = 1;
/// Tag 2 was the invertible-sketch delta and tag 3 the membership-filter
/// summary; both are retired with what they carried, so a frame in an old
/// layout fails as [`WireError::InvalidTag`] instead of being misread.
const SUMMARY_DELTA: u8 = 4;

impl Encode for KnowledgeSummary {
    fn encode(&self, w: &mut Writer) {
        match self {
            KnowledgeSummary::Full(k) => {
                w.put_u8(SUMMARY_FULL);
                k.encode(w);
            }
            KnowledgeSummary::Unchanged { checksum } => {
                w.put_u8(SUMMARY_UNCHANGED);
                w.put_u64(*checksum);
            }
            KnowledgeSummary::Delta {
                base_checksum,
                checksum,
                learned,
            } => {
                w.put_u8(SUMMARY_DELTA);
                w.put_u64(*base_checksum);
                w.put_u64(*checksum);
                learned.encode(w);
            }
        }
    }
}

/// Length of the [`KnowledgeSummary::Delta`] encoding of `learned`,
/// counted from the slice: a summary that loses to the full knowledge is
/// never built.
pub(crate) fn delta_summary_len(learned: &[Version]) -> usize {
    let mut w = Writer::counting();
    w.put_u8(SUMMARY_DELTA);
    w.put_u64(0);
    w.put_u64(0);
    w.put_varint(learned.len() as u64);
    for version in learned {
        version.encode(&mut w);
    }
    w.len()
}

/// Length of the [`DigestRequest`] encoding for a request whose summary
/// and (inline, if any) filter lengths are already known, the way
/// [`sync_request_len`] counts a full one.
pub(crate) fn digest_request_len(
    target: ReplicaId,
    summary_len: usize,
    inline_filter_len: Option<usize>,
    routing: &RoutingState<'_>,
) -> usize {
    encoded_len(&target)
        + summary_len
        + 8
        + 1
        + inline_filter_len.unwrap_or(0)
        + encoded_len(routing)
}

impl Decode for KnowledgeSummary {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            SUMMARY_FULL => Ok(KnowledgeSummary::Full(Knowledge::decode(r)?)),
            SUMMARY_UNCHANGED => Ok(KnowledgeSummary::Unchanged {
                checksum: r.get_u64()?,
            }),
            SUMMARY_DELTA => {
                let base_checksum = r.get_u64()?;
                let checksum = r.get_u64()?;
                // A version is at least two bytes, which bounds the count
                // (and the allocation) by the bytes actually present.
                let count = r.get_len(2)?;
                let mut learned = Vec::with_capacity(count);
                for _ in 0..count {
                    learned.push(Version::decode(r)?);
                }
                Ok(KnowledgeSummary::Delta {
                    base_checksum,
                    checksum,
                    learned,
                })
            }
            tag => Err(WireError::InvalidTag {
                what: "KnowledgeSummary",
                tag,
            }),
        }
    }
}

impl Encode for DigestRequest<'_> {
    fn encode(&self, w: &mut Writer) {
        self.target.encode(w);
        self.summary.encode(w);
        w.put_u64(self.filter_fingerprint);
        self.filter.encode(w);
        self.routing.encode(w);
    }
}

impl Decode for DigestRequest<'static> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DigestRequest {
            target: ReplicaId::decode(r)?,
            summary: KnowledgeSummary::decode(r)?,
            filter_fingerprint: r.get_u64()?,
            filter: Option::decode(r)?,
            routing: RoutingState::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn signed_zigzag() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut w = Writer::new();
            w.put_signed(v);
            let bytes = w.into_bytes();
            assert_eq!(Reader::new(&bytes).get_signed().unwrap(), v);
        }
    }

    #[test]
    fn small_varints_are_one_byte() {
        let mut w = Writer::new();
        w.put_varint(100);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn eof_and_overflow_errors() {
        assert_eq!(Reader::new(&[]).get_u8(), Err(WireError::UnexpectedEof));
        assert_eq!(
            Reader::new(&[0x80; 11]).get_varint(),
            Err(WireError::VarintOverflow)
        );
        assert_eq!(
            Reader::new(&[1, 2]).get_f64(),
            Err(WireError::UnexpectedEof)
        );
        assert_eq!(
            Reader::new(&[7]).get_bool(),
            Err(WireError::InvalidTag {
                what: "bool",
                tag: 7
            })
        );
    }

    #[test]
    fn length_overflow_rejected_before_allocation() {
        // Claims 1 GiB of bytes with 1 byte of input.
        let mut w = Writer::new();
        w.put_varint(1 << 30);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(WireError::LengthOverflow(_))));
    }

    #[test]
    fn from_bytes_rejects_trailing() {
        let mut w = Writer::new();
        ReplicaId::new(1).encode(&mut w);
        w.put_u8(0xee);
        let bytes = w.into_bytes();
        assert_eq!(
            from_bytes::<ReplicaId>(&bytes),
            Err(WireError::TrailingBytes(1))
        );
    }

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        let back = from_bytes::<T>(&bytes).unwrap_or_else(|e| panic!("decode failed: {e}"));
        assert_eq!(back, value);
    }

    #[test]
    fn value_roundtrips() {
        roundtrip(Value::from("héllo"));
        roundtrip(Value::from(-42i64));
        roundtrip(Value::from(3.25));
        roundtrip(Value::from(true));
        roundtrip(Value::from(vec![1u8, 2, 3]));
        roundtrip(Value::List(vec![
            Value::from("x"),
            Value::List(vec![Value::from(1i64)]),
        ]));
    }

    #[test]
    fn knowledge_roundtrips_with_exceptions() {
        let mut k = Knowledge::new();
        k.insert_prefix(ReplicaId::new(1), 10);
        k.insert(Version::new(ReplicaId::new(2), 5));
        k.insert(Version::new(ReplicaId::new(2), 9));
        roundtrip(k);
    }

    #[test]
    fn filter_roundtrips() {
        let f = Filter::parse(r#"(dest contains "a") or (n >= 2 and not exists gone)"#).unwrap();
        roundtrip(f);
        roundtrip(Filter::All);
        roundtrip(Filter::In {
            attr: "t".into(),
            values: vec![Value::from(1i64), Value::from("x")],
        });
    }

    #[test]
    fn item_roundtrips_with_ancestors_and_transient() {
        let id = ItemId::new(ReplicaId::new(3), 7);
        let item = Item::builder(id, Version::new(ReplicaId::new(3), 7))
            .attr("dest", "b")
            .transient_attr("ttl", 9i64)
            .payload(b"payload".to_vec())
            .build()
            .with_ancestor(Version::new(ReplicaId::new(1), 2))
            .with_ancestor(Version::new(ReplicaId::new(2), 4));
        roundtrip(item);
    }

    #[test]
    fn sync_messages_roundtrip() {
        let mut k = Knowledge::new();
        k.insert_prefix(ReplicaId::new(1), 3);
        let req = SyncRequest {
            target: ReplicaId::new(2),
            knowledge: std::borrow::Cow::Owned(k),
            filter: std::borrow::Cow::Owned(Filter::address("dest", "b")),
            routing: RoutingState::from_bytes(vec![9, 9]),
        };
        let bytes = to_bytes(&req);
        let back: SyncRequest<'_> = from_bytes(&bytes).unwrap();
        assert_eq!(back.target, req.target);
        assert_eq!(back.filter, req.filter);
        assert_eq!(back.routing, req.routing);
        assert!(back.knowledge.contains(Version::new(ReplicaId::new(1), 3)));

        let item = Item::builder(
            ItemId::new(ReplicaId::new(1), 1),
            Version::new(ReplicaId::new(1), 1),
        )
        .attr("dest", "b")
        .build();
        let batch = SyncBatch {
            source: ReplicaId::new(1),
            entries: vec![BatchEntry {
                item,
                priority: Priority::new(PriorityClass::High, 1.5),
                matched_filter: true,
            }],
            withheld: 2,
        };
        let bytes = to_bytes(&batch);
        let back: SyncBatch = from_bytes(&bytes).unwrap();
        assert_eq!(back.source, batch.source);
        assert_eq!(back.withheld, 2);
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].priority.cost(), 1.5);
        assert!(back.entries[0].matched_filter);
    }

    #[test]
    fn shared_decode_slices_the_backing_buffer() {
        let item = Item::builder(
            ItemId::new(ReplicaId::new(1), 1),
            Version::new(ReplicaId::new(1), 1),
        )
        .attr("dest", "b")
        .payload(b"zero-copy payload".to_vec())
        .build();
        let batch = SyncBatch {
            source: ReplicaId::new(1),
            entries: vec![
                BatchEntry {
                    item: item.clone(),
                    priority: Priority::new(PriorityClass::Normal, 0.0),
                    matched_filter: true,
                },
                BatchEntry {
                    item,
                    priority: Priority::new(PriorityClass::Normal, 0.0),
                    matched_filter: true,
                },
            ],
            withheld: 0,
        };
        let bytes: Arc<[u8]> = to_bytes(&batch).into();

        let owned: SyncBatch = from_bytes(&bytes).unwrap();
        let (shared, shares) = from_bytes_shared::<SyncBatch>(&bytes).unwrap();
        assert_eq!(owned, shared, "shared decode must be value-identical");
        assert_eq!(shares, 2, "both payloads decoded zero-copy");

        let a = shared.entries[0].item.payload_shared();
        let b = shared.entries[1].item.payload_shared();
        assert_eq!(a.buffer_id(), b.buffer_id(), "one frame, one buffer");
        assert_eq!(&a[..], b"zero-copy payload");

        // Re-encoding the shared decode is byte-identical to the original.
        assert_eq!(to_bytes(&shared), &bytes[..]);
    }

    #[test]
    fn scratch_reuse_is_byte_identical_and_counted() {
        let values = [Value::from("a"), Value::from(7i64), Value::from("a")];
        let mut scratch = EncodeScratch::new();
        for v in &values {
            let fresh = to_bytes(v);
            assert_eq!(scratch.encode(v), &fresh[..]);
            assert_eq!(scratch.last(), &fresh[..]);
        }
        assert_eq!(scratch.reuses(), 2, "all encodes after the first reuse");
        let total: u64 = values.iter().map(|v| to_bytes(v).len() as u64).sum();
        assert_eq!(scratch.bytes_encoded(), total);
    }

    #[test]
    fn hostile_nesting_is_rejected_not_a_stack_overflow() {
        // A megabyte of FILT_NOT tags: without the depth guard this
        // recursed once per byte and blew the stack.
        let not_bomb = vec![FILT_NOT; 1 << 20];
        assert_eq!(from_bytes::<Filter>(&not_bomb), Err(WireError::DepthLimit));

        // Same shape through Value::List: tag + length-1 per level.
        let mut list_bomb = Vec::new();
        for _ in 0..(1 << 19) {
            list_bomb.push(VAL_LIST);
            list_bomb.push(1);
        }
        assert_eq!(from_bytes::<Value>(&list_bomb), Err(WireError::DepthLimit));

        // And/Or nest through Vec<Filter>: tag + length-1 per level.
        let mut and_bomb = Vec::new();
        for _ in 0..(1 << 19) {
            and_bomb.push(FILT_AND);
            and_bomb.push(1);
        }
        assert_eq!(from_bytes::<Filter>(&and_bomb), Err(WireError::DepthLimit));
    }

    #[test]
    fn legitimate_nesting_fits_under_the_depth_limit() {
        let mut f = Filter::address("dest", "x");
        for _ in 0..(MAX_DECODE_DEPTH / 2) {
            f = Filter::Not(Box::new(f));
        }
        roundtrip(f);
    }

    #[test]
    fn knowledge_encoding_is_compact() {
        // 50 replicas, 1000 versions each, fully prefix-compacted: the
        // encoding must be proportional to replicas, not versions.
        let mut k = Knowledge::new();
        for rep in 1..=50 {
            k.insert_prefix(ReplicaId::new(rep), 1000);
        }
        let bytes = to_bytes(&k);
        assert!(
            bytes.len() < 50 * 4 + 16,
            "knowledge for 50k versions took {} bytes",
            bytes.len()
        );
    }
}
