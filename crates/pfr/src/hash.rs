//! Seeded, deterministic 64-bit hashing.
//!
//! Knowledge checksums ([`crate::KnowledgeTotals`]) must agree across
//! runs and across peers, so no `RandomState` or per-process keys: the
//! only entropy is the explicit `seed` argument. The mixer is the
//! splitmix64 finalizer, which is cheap and has full avalanche.

/// splitmix64 finalizer: full-avalanche 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Collapse a 128-bit key and a seed into one well-mixed 64-bit hash.
#[inline]
pub fn key_hash(key: u128, seed: u64) -> u64 {
    let lo = key as u64;
    let hi = (key >> 64) as u64;
    mix64(mix64(lo ^ seed) ^ hi.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(1), mix64(2));
        // Single-bit inputs should not collide on low output bits.
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u32 {
            assert!(seen.insert(mix64(1u64 << i) & 0xffff_ffff));
        }
    }

    #[test]
    fn key_hash_depends_on_both_halves_and_seed() {
        let k = (7u128 << 64) | 9;
        assert_ne!(key_hash(k, 1), key_hash(k, 2));
        assert_ne!(key_hash(k, 1), key_hash(k ^ 1, 1));
        assert_ne!(key_hash(k, 1), key_hash(k ^ (1 << 100), 1));
    }

    #[test]
    fn values_are_pinned() {
        // Knowledge checksums are exchanged between peers: the values
        // themselves are protocol, not an implementation detail.
        assert_eq!(mix64(1), 0x5692_161d_100b_05e5);
        assert_eq!(
            key_hash((7u128 << 64) | 9, 0x5afe_c0de_0213_7717),
            0x8e1f_8cd5_0c87_3028
        );
    }
}
