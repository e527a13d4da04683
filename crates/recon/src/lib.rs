//! Compact set reconciliation primitives.
//!
//! The digest sync mode (`pfr::digest`) sends no sketch: first contact
//! ships the full knowledge and repeat contacts spell out what was
//! learned since. These structures are library-only, kept for the
//! benchmark ledger's probe rows. Their base hash, [`hash::key_hash`], is
//! `pfr`'s (re-exported), the one knowledge checksums use.
//!
//! - [`Bloom`]: seeded double-hashing Bloom filter over 128-bit keys.
//!   False positives need an exact follow-up round, so they cost a
//!   round trip, never correctness.
//! - [`Iblt`]: invertible sketch with `subtract` + peel [`Iblt::decode`]:
//!   the exact symmetric difference of two sets neither side has a
//!   history of.
//! - [`StrataEstimator`]: difference-size estimator for sizing an IBLT
//!   when nothing bounds the difference in advance.
//!
//! Everything is deterministic under an explicit seed, has bounded
//! fuzz-safe serialization (decoders never panic and never allocate
//! more than the input length justifies), and is policy-free: this
//! crate knows nothing about replicas, items, or transports.

mod bloom;
mod codec;
mod estimator;
pub mod hash;
mod iblt;

pub use bloom::{Bloom, MAX_BLOOM_BITS, MAX_BLOOM_HASHES};
pub use estimator::{StrataEstimator, STRATA};
pub use iblt::{DecodedDiff, Iblt, IBLT_HASHES, MAX_IBLT_CELLS};

/// Errors surfaced by sketch operations and decoders.
///
/// `DecodeFailed` is an *expected* outcome (an undersized IBLT), which
/// callers handle by falling back to a full exchange; the others
/// indicate malformed or hostile input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReconError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Structurally invalid input (bad tag, overlong varint, trailing
    /// bytes, impossible geometry).
    Malformed,
    /// A claimed size exceeds the hard decode caps.
    TooLarge,
    /// Two sketches with different seeds or geometries were combined.
    Mismatch,
    /// An IBLT peel got stuck: the sketch was undersized for the
    /// actual difference. Not corruption — fall back to full exchange.
    DecodeFailed,
}

impl std::fmt::Display for ReconError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconError::Truncated => write!(f, "input truncated"),
            ReconError::Malformed => write!(f, "malformed sketch encoding"),
            ReconError::TooLarge => write!(f, "sketch size exceeds decode cap"),
            ReconError::Mismatch => write!(f, "sketch seed or geometry mismatch"),
            ReconError::DecodeFailed => write!(f, "sketch undersized for difference"),
        }
    }
}

impl std::error::Error for ReconError {}

#[cfg(test)]
mod adversarial {
    use super::*;
    use proptest::prelude::*;

    /// Every decode entry point on one byte string: `Ok` or a typed
    /// `ReconError`, never a panic.
    fn decode_all(bytes: &[u8]) {
        let _ = Bloom::from_bytes(bytes);
        let _ = Iblt::from_bytes(bytes);
        let _ = StrataEstimator::from_bytes(bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
            decode_all(&bytes);
        }

        #[test]
        fn mutated_bloom_encodings_never_panic(
            keys in proptest::collection::vec(any::<u64>(), 0..64),
            flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..8),
            cut in 0usize..4096,
        ) {
            let mut b = Bloom::for_items(keys.len(), 8, 7);
            for k in &keys {
                b.insert(*k as u128);
            }
            let mut bytes = b.to_bytes();
            for (pos, xor) in flips {
                let pos = pos % bytes.len();
                bytes[pos] ^= xor;
            }
            decode_all(&bytes);
            bytes.truncate(cut % (bytes.len() + 1));
            decode_all(&bytes);
        }

        #[test]
        fn mutated_iblt_encodings_never_panic(
            keys in proptest::collection::vec(any::<u64>(), 0..64),
            flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..8),
            cut in 0usize..4096,
        ) {
            let mut t = Iblt::for_expected_diff(keys.len(), 7);
            for k in &keys {
                t.insert(*k as u128);
            }
            let mut bytes = t.to_bytes();
            for (pos, xor) in flips {
                let pos = pos % bytes.len();
                bytes[pos] ^= xor;
            }
            decode_all(&bytes);
            bytes.truncate(cut % (bytes.len() + 1));
            decode_all(&bytes);
        }

        // Decoded-but-corrupt IBLTs must fail the peel cleanly, not
        // hang or panic: the checksum makes garbage cells impure.
        #[test]
        fn corrupt_iblt_peel_terminates(
            keys in proptest::collection::vec(any::<u64>(), 1..64),
            flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..4),
        ) {
            let mut t = Iblt::for_expected_diff(keys.len(), 3);
            for k in &keys {
                t.insert(*k as u128);
            }
            let mut bytes = t.to_bytes();
            for (pos, xor) in flips {
                let pos = pos % bytes.len();
                bytes[pos] ^= xor;
            }
            if let Ok(t) = Iblt::from_bytes(&bytes) {
                let empty = Iblt::with_cells(t.cells(), t.seed());
                if let Ok(sub) = t.subtract(&empty) {
                    let _ = sub.decode();
                }
            }
        }
    }

    proptest! {
        // End-to-end property: for random disjoint tails on a shared
        // base, subtract+peel recovers the exact symmetric difference
        // when sized from the true difference.
        #[test]
        fn iblt_recovers_exact_difference(
            base in proptest::collection::vec(1u64..50_000, 0..300),
            only_a in proptest::collection::vec(50_000u64..60_000, 0..20),
            only_b in proptest::collection::vec(60_000u64..70_000, 0..20),
            seed in any::<u64>(),
        ) {
            use std::collections::BTreeSet;
            let base: BTreeSet<u64> = base.into_iter().collect();
            let only_a: BTreeSet<u64> = only_a.into_iter().collect();
            let only_b: BTreeSet<u64> = only_b.into_iter().collect();
            let mut a = Iblt::for_expected_diff(only_a.len() + only_b.len(), seed);
            let mut b = Iblt::for_expected_diff(only_a.len() + only_b.len(), seed);
            for k in base.iter().chain(&only_a) {
                a.insert(*k as u128);
            }
            for k in base.iter().chain(&only_b) {
                b.insert(*k as u128);
            }
            let diff = a.subtract(&b).unwrap().decode().unwrap();
            let want_a: Vec<u128> = only_a.iter().map(|&k| k as u128).collect();
            let want_b: Vec<u128> = only_b.iter().map(|&k| k as u128).collect();
            prop_assert_eq!(diff.only_local, want_a);
            prop_assert_eq!(diff.only_remote, want_b);
        }

        #[test]
        fn bloom_roundtrips(
            keys in proptest::collection::vec(any::<u64>(), 0..128),
            bpi in 1u32..16,
            seed in any::<u64>(),
        ) {
            let mut b = Bloom::for_items(keys.len(), bpi, seed);
            for k in &keys {
                b.insert(*k as u128);
            }
            let bytes = b.to_bytes();
            prop_assert_eq!(bytes.len(), b.encoded_len());
            prop_assert_eq!(Bloom::from_bytes(&bytes).unwrap(), b);
        }

        #[test]
        fn iblt_roundtrips(
            keys in proptest::collection::vec(any::<u64>(), 0..128),
            seed in any::<u64>(),
        ) {
            let mut t = Iblt::for_expected_diff(keys.len() / 4, seed);
            for k in &keys {
                t.insert(*k as u128);
            }
            let bytes = t.to_bytes();
            prop_assert_eq!(Iblt::from_bytes(&bytes).unwrap(), t);
        }
    }
}
