//! Delivery acknowledgements as a compact set.
//!
//! MaxProp floods an acknowledgement for every delivered message. Kept as
//! an enumerated id list that is one more summary vector — re-shipped and
//! re-merged id by id at every contact — which is exactly what the
//! substrate's knowledge replaces (paper §III). Message ids have the same
//! shape as versions (an origin and a per-origin sequence number handed
//! out in order), so the set of acknowledged ids *is* a
//! [`pfr::Knowledge`]: per origin, a contiguous prefix plus exceptions.
//! Once an origin's early messages are all delivered its acknowledgements
//! cost one vector entry, and merging a peer's set is O(origins).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use pfr::wire::{Decode, Encode, Reader, WireError, Writer};
use pfr::{ItemId, Knowledge, ReplicaId, Version};

/// The set of message ids known to have reached their destinations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct AckSet(Knowledge);

/// Sequence numbers start at 1, as version counters do; an id with
/// sequence 0 is never issued and cannot be acknowledged.
fn as_version(id: ItemId) -> Version {
    Version::new(id.origin(), id.seq())
}

impl AckSet {
    pub fn insert(&mut self, id: ItemId) {
        self.0.insert(as_version(id));
    }

    pub fn contains(&self, id: ItemId) -> bool {
        id.seq() != 0 && self.0.contains(as_version(id))
    }

    /// Unions `other` into this set, calling `grew` once for each origin
    /// that gained an acknowledged id, ascending. In place, and costs the
    /// origins and exception words of `other`, never its ids: a forged
    /// prefix reports its origin once (see [`AckSet::decode`]).
    pub fn merge(&mut self, other: &AckSet, grew: impl FnMut(ReplicaId)) {
        self.0.merge_reporting(&other.0, grew);
    }

    /// Number of acknowledged ids.
    pub fn len(&self) -> u64 {
        self.0.version_count()
    }

    pub fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }

    /// Decoding is bounded by the input length: every length prefix is
    /// checked against the bytes that remain.
    ///
    /// **Trust assumption.** What the set *claims* is not bounded: MaxProp's
    /// acknowledgements are unauthenticated, so a peer can void any message
    /// by acknowledging it, and a node cannot check a claim locally (an
    /// honest ack routinely arrives before any copy of its message). The
    /// enumerated list made a forger spell out each id; a prefix does not —
    /// `(origin, u64::MAX)` voids every relay copy of that origin, issued
    /// or not, floods onwards and is persisted. Run MaxProp with acks only
    /// among peers trusted not to forge them (or `with_acks(false)`);
    /// nothing here panics or overflows on such input.
    pub fn decode(r: &mut Reader<'_>) -> Result<AckSet, WireError> {
        Knowledge::decode(r).map(AckSet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn arb_ids() -> impl Strategy<Value = BTreeSet<ItemId>> {
        proptest::collection::vec((1u64..6, 1u64..40), 0..60).prop_map(|ids| {
            ids.into_iter()
                .map(|(origin, seq)| ItemId::new(ReplicaId::new(origin), seq))
                .collect()
        })
    }

    fn acks(ids: &BTreeSet<ItemId>) -> AckSet {
        let mut set = AckSet::default();
        for &id in ids {
            set.insert(id);
        }
        set
    }

    fn encoded(set: &AckSet) -> Vec<u8> {
        let mut w = Writer::new();
        set.encode(&mut w);
        w.into_bytes()
    }

    /// Merges `other` into `set`, returning the origins it reported.
    fn merge(set: &mut AckSet, other: &AckSet) -> Vec<ReplicaId> {
        let mut grown = Vec::new();
        set.merge(other, |origin| grown.push(origin));
        grown
    }

    /// The origins of the ids in `b` that `a` lacks, ascending, each once.
    fn gaining(a: &BTreeSet<ItemId>, b: &BTreeSet<ItemId>) -> Vec<ReplicaId> {
        let origins: BTreeSet<ReplicaId> = b.difference(a).map(|id| id.origin()).collect();
        origins.into_iter().collect()
    }

    proptest! {
        /// A merge holds exactly the ids either side held — none lost,
        /// none invented — and reports exactly the origins that gained
        /// an id, ascending, each once.
        #[test]
        fn merge_never_loses_an_id(a in arb_ids(), b in arb_ids()) {
            let mut merged = acks(&a);
            let grown = merge(&mut merged, &acks(&b));
            prop_assert_eq!(grown, gaining(&a, &b));
            for origin in 1..6 {
                for seq in 0..45 {
                    let id = ItemId::new(ReplicaId::new(origin), seq);
                    prop_assert_eq!(merged.contains(id), a.contains(&id) || b.contains(&id));
                }
            }
            prop_assert_eq!(merged.len(), a.union(&b).count() as u64);
        }

        /// What travels decodes to what was sent, and costs no more than
        /// the enumerated list it replaces (two varints per id).
        #[test]
        fn wire_form_round_trips_and_is_compact(ids in arb_ids()) {
            let set = acks(&ids);
            let bytes = encoded(&set);
            prop_assert_eq!(AckSet::decode(&mut Reader::new(&bytes)).expect("decode"), set);
            prop_assert!(bytes.len() <= 2 + 2 * ids.len());
        }

        /// A peer need not send its set sorted or compact: prefixes and
        /// single ids in any order, repeated, overlapping, in runs right
        /// above a prefix. The decoder builds from all of them at once and
        /// must hold exactly the ids a one-by-one build holds — and then
        /// merge like any other set, learning exactly what was new.
        #[test]
        fn decode_accepts_any_order_and_overlap(
            prefixes in proptest::collection::vec((1u64..6, 0u64..12), 0..8),
            singles in proptest::collection::vec((1u64..6, 0u64..40), 0..60),
            descending in any::<bool>(),
            ours in arb_ids(),
        ) {
            let (mut prefixes, mut singles) = (prefixes, singles);
            if descending {
                prefixes.sort_unstable_by(|a, b| b.cmp(a));
                singles.sort_unstable_by(|a, b| b.cmp(a));
            }
            let mut w = Writer::new();
            let mut model = BTreeSet::new();
            for list in [&prefixes, &singles] {
                w.put_varint(list.len() as u64);
                for &(origin, seq) in list {
                    w.put_varint(origin);
                    w.put_varint(seq);
                }
            }
            for &(origin, upto) in &prefixes {
                model.extend((1..=upto).map(|seq| ItemId::new(ReplicaId::new(origin), seq)));
            }
            model.extend(
                singles.iter().filter(|&&(_, seq)| seq != 0)
                    .map(|&(origin, seq)| ItemId::new(ReplicaId::new(origin), seq)),
            );
            let decoded = AckSet::decode(&mut Reader::new(w.as_slice())).expect("well-formed");
            prop_assert_eq!(&decoded, &acks(&model), "one set, one representation");
            prop_assert_eq!(decoded.len(), model.len() as u64);

            let mut merged = acks(&ours);
            prop_assert_eq!(merge(&mut merged, &decoded), gaining(&ours, &model));
            prop_assert_eq!(merged, acks(&ours.union(&model).copied().collect()));
        }

        /// Bytes from a peer — any bytes — decode to an error or to a set;
        /// they never panic, and what they may allocate is bounded by
        /// their own length: every id a decoded set can enumerate beyond
        /// its prefixes was spelled out in the input.
        #[test]
        fn hostile_bytes_never_panic(
            ids in arb_ids(),
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            cut in 0usize..200,
            flip in 0usize..200,
        ) {
            let _ = AckSet::decode(&mut Reader::new(&noise));
            let mut bytes = encoded(&acks(&ids));
            let at = flip % bytes.len();
            bytes[at] ^= noise.first().copied().unwrap_or(0xff);
            bytes.truncate(cut % (bytes.len() + 1));
            if let Ok(set) = AckSet::decode(&mut Reader::new(&bytes)) {
                prop_assert!(set.0.exception_count() + set.0.replica_count() <= bytes.len());
                let mut ours = acks(&ids);
                merge(&mut ours, &set);
                prop_assert!(ids.iter().all(|&id| ours.contains(id)));
            }
        }
    }

    #[test]
    fn a_claimed_length_beyond_the_input_is_refused() {
        // "2^40 vector entries follow" in six bytes.
        let mut w = Writer::new();
        w.put_varint(1 << 40);
        assert!(AckSet::decode(&mut Reader::new(w.as_slice())).is_err());
    }

    #[test]
    fn a_forged_full_range_prefix_is_absorbed_without_overflow() {
        // The trust assumption on `decode`, pinned: the claim is taken
        // (acks are unauthenticated) and the arithmetic around it holds.
        let mut w = Writer::new();
        w.put_varint(2);
        for origin in [1, 2] {
            ReplicaId::new(origin).encode(&mut w);
            w.put_varint(u64::MAX);
        }
        w.put_varint(0);
        let forged = AckSet::decode(&mut Reader::new(w.as_slice())).expect("well-formed");
        let mut ours = AckSet::default();
        ours.insert(ItemId::new(ReplicaId::new(1), 7));
        ours.insert(ItemId::new(ReplicaId::new(3), u64::MAX));
        assert_eq!(
            merge(&mut ours, &forged),
            [ReplicaId::new(1), ReplicaId::new(2)],
            "each forged origin once, no id enumerated"
        );
        assert!(
            merge(&mut ours, &forged).is_empty(),
            "nothing left to learn"
        );
        assert!(ours.contains(ItemId::new(ReplicaId::new(2), u64::MAX)));
        assert!(ours.contains(ItemId::new(ReplicaId::new(3), u64::MAX)));
        assert!(!ours.contains(ItemId::new(ReplicaId::new(3), 1)));
        assert_eq!(ours.len(), u64::MAX, "the count saturates");
        assert_eq!(AckSet::decode(&mut Reader::new(&encoded(&ours))), Ok(ours));
    }

    #[test]
    fn sequence_zero_is_never_acknowledged() {
        let mut set = AckSet::default();
        let unissued = ItemId::new(ReplicaId::new(1), 0);
        set.insert(unissued);
        assert!(!set.contains(unissued));
        assert_eq!(set.len(), 0);
    }
}
