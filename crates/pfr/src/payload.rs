//! Shared, cheaply-clonable item payloads.
//!
//! A [`Payload`] is an `Arc<[u8]>`-backed byte buffer with the same `&[u8]`
//! read API a `Vec<u8>` payload had. Cloning a payload bumps a reference
//! count instead of copying the bytes, so the many copies a DTN routing
//! policy deliberately multiplies (Epidemic/Spray-and-Wait, paper §V–§VI)
//! share one allocation. A payload may also be a *sub-slice* of a larger
//! shared buffer: wire decode hands every item in a received batch a slice
//! of the one frame buffer instead of a per-item allocation.

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Returns the process-wide empty backing buffer, so empty payloads
/// (deletion tombstones, attribute-only items) never allocate.
fn empty_buf() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..])).clone()
}

/// An immutable, reference-counted byte payload.
///
/// Equality, ordering, and hashing are defined over the *bytes*, exactly as
/// for the `Vec<u8>` it replaces; whether two payloads share a backing
/// buffer is observable only through [`Payload::buffer_id`], which storage
/// accounting uses to charge shared bytes once per distinct buffer.
///
/// # Examples
///
/// ```
/// use pfr::Payload;
///
/// let a = Payload::from(b"hello".to_vec());
/// let b = a.clone(); // reference-count bump, no byte copy
/// assert_eq!(&a[..], b"hello");
/// assert_eq!(a, b);
/// assert_eq!(a.buffer_id(), b.buffer_id());
/// ```
#[derive(Clone)]
pub struct Payload {
    buf: Arc<[u8]>,
    start: usize,
    len: usize,
}

impl Payload {
    /// The empty payload. Never allocates: all empty payloads share one
    /// process-wide backing buffer.
    pub fn empty() -> Payload {
        Payload {
            buf: empty_buf(),
            start: 0,
            len: 0,
        }
    }

    /// A payload that is a sub-slice of a shared backing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `start + len` is out of bounds of `buf`.
    pub fn from_shared(buf: Arc<[u8]>, start: usize, len: usize) -> Payload {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= buf.len()),
            "payload slice {start}..{} out of bounds of buffer of {} bytes",
            start + len,
            buf.len()
        );
        Payload { buf, start, len }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// An opaque identifier of the *backing buffer*: two payloads share
    /// their bytes if and only if their buffer ids are equal. Used to
    /// charge shared bytes once per distinct buffer in storage accounting.
    pub fn buffer_id(&self) -> usize {
        Arc::as_ptr(&self.buf) as *const u8 as usize
    }

    /// How many payloads (and other handles) currently share the backing
    /// buffer.
    pub fn share_count(&self) -> usize {
        Arc::strong_count(&self.buf)
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Payload {
        if bytes.is_empty() {
            return Payload::empty();
        }
        let len = bytes.len();
        Payload {
            buf: Arc::from(bytes),
            start: 0,
            len,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Payload {
        if bytes.is_empty() {
            return Payload::empty();
        }
        Payload {
            buf: Arc::from(bytes),
            start: 0,
            len: bytes.len(),
        }
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Payload {
        Payload::from(&bytes[..])
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes", self.len)?;
        if self.share_count() > 1 {
            write!(f, ", shared x{}", self.share_count())?;
        }
        write!(f, ")")
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_backing_buffer() {
        let a = Payload::from(b"hello".to_vec());
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.buffer_id(), b.buffer_id());
        assert!(a.share_count() >= 2);
    }

    #[test]
    fn empty_payloads_share_one_static_buffer() {
        let a = Payload::empty();
        let b = Payload::from(Vec::new());
        let c = Payload::from(&b""[..]);
        assert_eq!(a.buffer_id(), b.buffer_id());
        assert_eq!(a.buffer_id(), c.buffer_id());
        assert!(a.is_empty() && b.is_empty() && c.is_empty());
    }

    #[test]
    fn shared_sub_slices_expose_only_their_window() {
        let frame: Arc<[u8]> = Arc::from(&b"xxhelloyy"[..]);
        let p = Payload::from_shared(frame.clone(), 2, 5);
        assert_eq!(&p[..], b"hello");
        assert_eq!(p.len(), 5);
        let q = Payload::from_shared(frame, 7, 2);
        assert_eq!(&q[..], b"yy");
        assert_eq!(p.buffer_id(), q.buffer_id(), "same frame, same buffer");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        let frame: Arc<[u8]> = Arc::from(&b"abc"[..]);
        Payload::from_shared(frame, 2, 5);
    }

    #[test]
    fn equality_is_over_bytes_not_buffers() {
        let a = Payload::from(b"same".to_vec());
        let b = Payload::from(b"same".to_vec());
        assert_eq!(a, b);
        assert_ne!(a.buffer_id(), b.buffer_id());
    }
}
