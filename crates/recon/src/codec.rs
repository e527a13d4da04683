//! Minimal self-contained wire helpers for the recon sketches.
//!
//! `crates/recon` sits *below* `pfr` in the dependency graph (pfr embeds
//! sketches in its sync messages), so it cannot borrow pfr's codec.
//! This is a deliberately tiny LEB128 varint layer with the same safety
//! posture as the rest of the workspace: every read is bounds-checked,
//! every length is validated against a hard cap before allocation, and
//! no input — however adversarial — may cause a panic. Decode fuzz
//! tests in `lib.rs` hold that line.

use crate::ReconError;

pub(crate) const MAX_VARINT_BYTES: usize = 10;

#[inline]
pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_varint`] spends on `v`.
#[inline]
pub(crate) fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline]
pub(crate) fn put_signed(out: &mut Vec<u8>, v: i64) {
    // zigzag: small magnitudes (either sign) stay short on the wire.
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Bounds-checked cursor over an input slice.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    pub(crate) fn get_u8(&mut self) -> Result<u8, ReconError> {
        let b = *self.buf.get(self.pos).ok_or(ReconError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn get_varint(&mut self) -> Result<u64, ReconError> {
        let mut v: u64 = 0;
        for i in 0..MAX_VARINT_BYTES {
            let byte = self.get_u8()?;
            let bits = (byte & 0x7f) as u64;
            // The 10th byte may only carry the final single bit.
            if i == MAX_VARINT_BYTES - 1 && bits > 1 {
                return Err(ReconError::Malformed);
            }
            v |= bits << (7 * i as u32);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(ReconError::Malformed)
    }

    pub(crate) fn get_signed(&mut self) -> Result<i64, ReconError> {
        let z = self.get_varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read a count that the caller will use to size an allocation.
    /// `max` is a hard structural cap; `min_elem_bytes` additionally
    /// bounds the count by the bytes actually remaining, so a hostile
    /// header cannot force a huge reservation.
    pub(crate) fn get_count(
        &mut self,
        max: usize,
        min_elem_bytes: usize,
    ) -> Result<usize, ReconError> {
        let n = self.get_varint()?;
        let n = usize::try_from(n).map_err(|_| ReconError::TooLarge)?;
        if n > max {
            return Err(ReconError::TooLarge);
        }
        let remaining = self.buf.len() - self.pos;
        if min_elem_bytes > 0 && n > remaining / min_elem_bytes {
            return Err(ReconError::Truncated);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX, u64::MAX - 1] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.get_varint().unwrap(), v);
            assert!(c.is_empty());
        }
    }

    #[test]
    fn signed_roundtrip() {
        let mut buf = Vec::new();
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            buf.clear();
            put_signed(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.get_signed().unwrap(), v);
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        let mut c = Cursor::new(&[0xff; 11]);
        assert!(c.get_varint().is_err());
    }

    #[test]
    fn count_is_bounded_by_remaining_bytes() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1_000_000);
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            c.get_count(1 << 30, 4),
            Err(ReconError::Truncated)
        ));
    }
}
