//! Seeded, deterministic hash primitives shared by the Bloom and IBLT
//! sketches.
//!
//! Everything in this crate must be reproducible across runs and across
//! peers that agree on a seed, so no `RandomState` or per-process keys:
//! the only entropy is the explicit `seed` argument. The base mixer and
//! key hash are `pfr`'s ([`pfr::hash`]), the ones knowledge checksums
//! use; this module derives probe sequences and cell checksums from them.

pub use pfr::hash::{key_hash, mix64};

/// Kirsch–Mitzenmacher double hashing: derive the i-th probe from two
/// base hashes, `h1 + i*h2`, with `h2` forced odd so successive probes
/// walk the whole (power-of-two or not) table.
#[derive(Clone, Copy)]
pub struct DoubleHasher {
    h1: u64,
    h2: u64,
}

impl DoubleHasher {
    #[inline]
    pub fn new(key: u128, seed: u64) -> Self {
        let h1 = key_hash(key, seed);
        let h2 = key_hash(key, seed ^ 0xa076_1d64_78bd_642f) | 1;
        DoubleHasher { h1, h2 }
    }

    /// The i-th probe value (reduce modulo table size at the call site).
    #[inline]
    pub fn nth(&self, i: u32) -> u64 {
        self.h1.wrapping_add((i as u64).wrapping_mul(self.h2))
    }
}

/// Per-key checksum used by IBLT cells to recognise pure (decodable)
/// cells. Salted differently from the index hashes so a key's checksum
/// is independent of its cell positions.
#[inline]
pub fn key_check(key: u128, seed: u64) -> u64 {
    key_hash(key, seed ^ 0xc3a5_c85c_97cb_3127)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_hasher_step_is_odd() {
        for key in [0u128, 1, u128::MAX, 1 << 77] {
            let h = DoubleHasher::new(key, 42);
            // Consecutive probes differ by the (odd) step everywhere.
            let step = h.nth(1).wrapping_sub(h.nth(0));
            assert_eq!(step % 2, 1);
            assert_eq!(h.nth(5).wrapping_sub(h.nth(4)), step);
        }
    }
}
