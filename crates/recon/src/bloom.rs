//! Seeded double-hashing Bloom filter over 128-bit keys.
//!
//! Library-only: a filter over one side's set lets the other screen its
//! own entries with one compact structure, worth sending only when it is
//! small next to the set itself ([`Bloom::encoded_len_for`] answers that
//! before anything is hashed). False positives need an exact follow-up
//! round, so they cost bandwidth, never correctness.
//!
//! Sizing math (see `crates/recon/README.md`): for `n` items and `b`
//! bits per item the optimal hash count is `k = b·ln 2` and the false
//! positive rate is `(1 - e^{-kn/m})^k ≈ 0.6185^b`. Eight bits per
//! item gives ~2% FP; twelve gives ~0.3%.

use crate::codec::{put_varint, varint_len, Cursor};
use crate::hash::DoubleHasher;
use crate::ReconError;

/// Hard cap on filter size accepted from the wire: 2^26 bits = 8 MiB.
pub const MAX_BLOOM_BITS: u64 = 1 << 26;
/// Hash-count bounds: k = 0 would accept everything, k > 16 is never
/// optimal for any sane bits-per-item.
pub const MAX_BLOOM_HASHES: u32 = 16;

const BLOOM_TAG: u8 = 0xB1;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    seed: u64,
    hashes: u32,
    bits: u64,
    items: u64,
    words: Vec<u64>,
}

impl Bloom {
    /// Build an empty filter sized for `items` keys at `bits_per_item`
    /// bits each. `bits_per_item` is clamped to `[1, 30]`.
    pub fn for_items(items: usize, bits_per_item: u32, seed: u64) -> Self {
        let bpi = bits_per_item.clamp(1, 30);
        let bits = Self::bits_for(items, bpi);
        // k = bits_per_item * ln 2, at least one hash.
        let hashes =
            (((bpi as f64) * core::f64::consts::LN_2).round() as u32).clamp(1, MAX_BLOOM_HASHES);
        Bloom {
            seed,
            hashes,
            bits,
            items: 0,
            words: vec![0u64; bits.div_ceil(64) as usize],
        }
    }

    /// Filter width for `items` keys at (already clamped) `bpi` bits each.
    fn bits_for(items: usize, bpi: u32) -> u64 {
        ((items.max(1) as u64).saturating_mul(bpi as u64)).clamp(64, MAX_BLOOM_BITS)
    }

    /// Serialized size of a [`Bloom::for_items`] filter once `items` keys
    /// are inserted — closed-form, so a caller can decide whether the
    /// filter is worth sending before hashing anything into it.
    pub fn encoded_len_for(items: usize, bits_per_item: u32, seed: u64) -> usize {
        let bits = Self::bits_for(items, bits_per_item.clamp(1, 30));
        Self::encoded_len_of(seed, bits, items as u64)
    }

    fn encoded_len_of(seed: u64, bits: u64, items: u64) -> usize {
        // tag + hashes byte + header varints + raw words
        2 + varint_len(seed) + varint_len(bits) + varint_len(items) + bits.div_ceil(64) as usize * 8
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn bits(&self) -> u64 {
        self.bits
    }

    pub fn hashes(&self) -> u32 {
        self.hashes
    }

    /// Number of keys inserted so far.
    pub fn items(&self) -> u64 {
        self.items
    }

    pub fn insert(&mut self, key: u128) {
        let h = DoubleHasher::new(key, self.seed);
        for i in 0..self.hashes {
            let bit = h.nth(i) % self.bits;
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.items += 1;
    }

    pub fn contains(&self, key: u128) -> bool {
        let h = DoubleHasher::new(key, self.seed);
        for i in 0..self.hashes {
            let bit = h.nth(i) % self.bits;
            if self.words[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Union with a filter of identical geometry and seed.
    pub fn merge(&mut self, other: &Bloom) -> Result<(), ReconError> {
        if self.seed != other.seed || self.hashes != other.hashes || self.bits != other.bits {
            return Err(ReconError::Mismatch);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
        self.items += other.items;
        Ok(())
    }

    /// Fraction of bits set; the expected false-positive probability is
    /// `fill_ratio ^ hashes`.
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.words.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.bits as f64
    }

    /// Expected false-positive rate at the current fill level.
    pub fn false_positive_rate(&self) -> f64 {
        self.fill_ratio().powi(self.hashes as i32)
    }

    /// Serialized size in bytes (exact).
    pub fn encoded_len(&self) -> usize {
        Self::encoded_len_of(self.seed, self.bits, self.items)
    }

    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(BLOOM_TAG);
        put_varint(out, self.seed);
        out.push(self.hashes as u8);
        put_varint(out, self.bits);
        put_varint(out, self.items);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode(&mut out);
        out
    }

    pub(crate) fn decode(cur: &mut Cursor<'_>) -> Result<Bloom, ReconError> {
        if cur.get_u8()? != BLOOM_TAG {
            return Err(ReconError::Malformed);
        }
        let seed = cur.get_varint()?;
        let hashes = cur.get_u8()? as u32;
        if hashes == 0 || hashes > MAX_BLOOM_HASHES {
            return Err(ReconError::Malformed);
        }
        let bits = cur.get_varint()?;
        if bits == 0 || bits > MAX_BLOOM_BITS {
            return Err(ReconError::TooLarge);
        }
        let items = cur.get_varint()?;
        let word_count = bits.div_ceil(64) as usize;
        let mut words = Vec::with_capacity(word_count);
        for _ in 0..word_count {
            let mut raw = [0u8; 8];
            for b in raw.iter_mut() {
                *b = cur.get_u8()?;
            }
            words.push(u64::from_le_bytes(raw));
        }
        Ok(Bloom {
            seed,
            hashes,
            bits,
            items,
            words,
        })
    }

    pub fn from_bytes(buf: &[u8]) -> Result<Bloom, ReconError> {
        let mut cur = Cursor::new(buf);
        let b = Self::decode(&mut cur)?;
        if !cur.is_empty() {
            return Err(ReconError::Malformed);
        }
        Ok(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = u128> {
        (0..n).map(|i| (i as u128) << 64 | (i * 31) as u128)
    }

    #[test]
    fn no_false_negatives() {
        let mut b = Bloom::for_items(500, 10, 7);
        for k in keys(500) {
            b.insert(k);
        }
        for k in keys(500) {
            assert!(b.contains(k));
        }
    }

    #[test]
    fn false_positive_rate_is_sane() {
        let mut b = Bloom::for_items(1000, 10, 99);
        for k in keys(1000) {
            b.insert(k);
        }
        let fp = (1000..11_000)
            .map(|i| ((i as u128) << 64) | (i * 31) as u128)
            .filter(|&k| b.contains(k))
            .count();
        // 10 bits/item targets ~1%; allow generous slack.
        assert!(fp < 500, "false positives: {fp}/10000");
        assert!(b.false_positive_rate() < 0.05);
    }

    #[test]
    fn roundtrip() {
        let mut b = Bloom::for_items(100, 8, 3);
        for k in keys(100) {
            b.insert(k);
        }
        let bytes = b.to_bytes();
        assert_eq!(bytes.len(), b.encoded_len());
        assert_eq!(bytes.len(), Bloom::encoded_len_for(100, 8, 3));
        assert_eq!(Bloom::from_bytes(&bytes).unwrap(), b);
    }

    #[test]
    fn merge_requires_matching_geometry() {
        let mut a = Bloom::for_items(100, 8, 3);
        let b = Bloom::for_items(100, 8, 4);
        assert!(a.merge(&b).is_err());
        let mut c = Bloom::for_items(100, 8, 3);
        let mut d = Bloom::for_items(100, 8, 3);
        c.insert(1);
        d.insert(2);
        c.merge(&d).unwrap();
        assert!(c.contains(1) && c.contains(2));
    }

    #[test]
    fn deterministic_under_seed() {
        let build = || {
            let mut b = Bloom::for_items(64, 9, 1234);
            for k in keys(64) {
                b.insert(k);
            }
            b.to_bytes()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn hostile_headers_do_not_allocate() {
        // Claims 2^40 bits: rejected by the cap before any allocation.
        let mut buf = vec![0xB1];
        crate::codec::put_varint(&mut buf, 7);
        buf.push(4);
        crate::codec::put_varint(&mut buf, 1 << 40);
        assert!(matches!(Bloom::from_bytes(&buf), Err(ReconError::TooLarge)));
    }
}
