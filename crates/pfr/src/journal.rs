//! The learning journal: the order in which a replica learned versions.
//!
//! Knowledge is monotone — a replica only ever *learns* versions — so
//! "what I knew when I last spoke to peer P" is a position in that order,
//! and "what I learned since" is the tail after it. Digest sync
//! ([`crate::digest`]) remembers the position per peer instead of a copy
//! of the knowledge, and ships the tail instead of a sketch.
//!
//! The journal lives beside the knowledge in the [`crate::Replica`], never
//! inside it and never in a snapshot: a restored replica starts a fresh
//! journal, which costs each peer one full exchange, as a reboot does.
//! Each journal has an id of its own, so a position counted in one is
//! never read in another. The journal also keeps [`KnowledgeTotals`] —
//! checksum and encoded length — current as versions arrive, so neither
//! is ever recomputed from the whole set.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::key_hash;
use crate::id::{ReplicaId, Version};
use crate::knowledge::{EntrySink, Knowledge};
use crate::wire::varint_len;

/// Seeds of the order-independent knowledge checksum, one per entry kind
/// so a vector entry and an exception at the same `(replica, counter)`
/// hash apart.
const CHECKSUM_SEED_VECTOR: u64 = 0x5afe_c0de_0213_7717;
const CHECKSUM_SEED_EXCEPTION: u64 = 0x5afe_c0de_0213_7718;

/// Shortest journal tail always retained, so small knowledge does not
/// trim on every write.
const MIN_RETAINED: usize = 16;

/// Sums over a [`Knowledge`]'s entry set, kept current in O(change): the
/// order-independent checksum digest sync names a knowledge state by, and
/// the bytes its entries take on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KnowledgeTotals {
    checksum: u64,
    entry_bytes: usize,
}

impl KnowledgeTotals {
    /// The totals of `knowledge`, from scratch: one pass over its entries.
    pub fn of(knowledge: &Knowledge) -> Self {
        let mut totals = KnowledgeTotals::default();
        for (replica, counter) in knowledge.vector_entries() {
            totals.entry(replica, counter, false, true);
        }
        for v in knowledge.exceptions() {
            totals.entry(v.replica(), v.counter(), true, true);
        }
        totals
    }

    /// Order-independent checksum of the entry set. Two equal knowledge
    /// values have equal checksums; a collision between unequal ones costs
    /// digest sync one fallback round, never correctness of delivery.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Length of `knowledge`'s wire encoding, given that these are its
    /// totals: the two count prefixes plus the entries.
    pub fn encoded_len(&self, knowledge: &Knowledge) -> usize {
        varint_len(knowledge.replica_count() as u64)
            + varint_len(knowledge.exception_count() as u64)
            + self.entry_bytes
    }
}

impl EntrySink for KnowledgeTotals {
    fn entry(&mut self, replica: ReplicaId, counter: u64, exception: bool, added: bool) {
        let seed = if exception {
            CHECKSUM_SEED_EXCEPTION
        } else {
            CHECKSUM_SEED_VECTOR
        };
        let hash = key_hash(((replica.as_u64() as u128) << 64) | counter as u128, seed);
        let bytes = varint_len(replica.as_u64()) + varint_len(counter);
        if added {
            self.checksum = self.checksum.wrapping_add(hash);
            self.entry_bytes += bytes;
        } else {
            self.checksum = self.checksum.wrapping_sub(hash);
            self.entry_bytes -= bytes;
        }
    }
}

/// The versions a replica learned, in order, with the running totals of
/// the knowledge they add up to. A *position* counts versions learned
/// since the journal started; the journal retains only a bounded tail, so
/// old positions stop being answerable (and the caller falls back to the
/// full knowledge, which by then is the shorter message anyway).
#[derive(Clone, Debug)]
pub(crate) struct Journal {
    /// Unique among the journals started in this process (a clone shares
    /// it, with the positions it counted).
    id: u64,
    /// Versions learned before `tail[0]` and no longer retained.
    trimmed: u64,
    tail: Vec<Version>,
    totals: KnowledgeTotals,
}

impl Default for Journal {
    fn default() -> Self {
        static STARTED: AtomicU64 = AtomicU64::new(0);
        Journal {
            id: STARTED.fetch_add(1, Ordering::Relaxed),
            trimmed: 0,
            tail: Vec::new(),
            totals: KnowledgeTotals::default(),
        }
    }
}

impl Journal {
    /// A fresh journal for a replica that already holds `knowledge` (a
    /// restore): nothing to replay, totals taken once from scratch.
    pub(crate) fn starting_at(knowledge: &Knowledge) -> Self {
        Journal {
            totals: KnowledgeTotals::of(knowledge),
            ..Journal::default()
        }
    }

    /// Inserts `version` into `knowledge`, recording it if it was new;
    /// returns whether it was.
    pub(crate) fn learn(&mut self, knowledge: &mut Knowledge, version: Version) -> bool {
        if !knowledge.insert_with(version, &mut self.totals) {
            return false;
        }
        self.tail.push(version);
        // A tail longer than the knowledge has entries spells out more
        // than the knowledge itself would, so nobody will ask for it.
        let keep = (knowledge.replica_count() + knowledge.exception_count()).max(MIN_RETAINED);
        if self.tail.len() > 2 * keep {
            let excess = self.tail.len() - keep;
            self.tail.drain(..excess);
            self.trimmed += excess as u64;
        }
        true
    }

    /// Which journal this is: a position is a position in one journal.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// How many versions have been learned since the journal started.
    pub(crate) fn position(&self) -> u64 {
        self.trimmed + self.tail.len() as u64
    }

    /// The versions learned after `position`, oldest first; `None` when
    /// the journal no longer reaches back that far (or never got there).
    pub(crate) fn since(&self, position: u64) -> Option<&[Version]> {
        let skip = usize::try_from(position.checked_sub(self.trimmed)?).ok()?;
        self.tail.get(skip..)
    }

    /// Totals of the knowledge as of the current position.
    pub(crate) fn totals(&self) -> KnowledgeTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(replica: u64, counter: u64) -> Version {
        Version::new(ReplicaId::new(replica), counter)
    }

    #[test]
    fn totals_track_every_kind_of_entry_change() {
        // Exceptions appearing, a gap closing (exception swallowed, vector
        // entry replaced), duplicates: incremental == from scratch.
        let mut k = Knowledge::new();
        let mut j = Journal::default();
        for version in [
            v(1, 3),
            v(1, 5),
            v(2, 1),
            v(1, 1),
            v(1, 3),
            v(1, 2),
            v(1, 4),
        ] {
            j.learn(&mut k, version);
            assert_eq!(j.totals(), KnowledgeTotals::of(&k), "after {version:?}");
            assert_eq!(
                j.totals().encoded_len(&k),
                crate::wire::to_bytes(&k).len(),
                "after {version:?}"
            );
        }
        assert_eq!(j.position(), 6, "the repeated version is not re-learned");
        assert_eq!(k.base_counter(ReplicaId::new(1)), 5);
    }

    #[test]
    fn vector_and_exception_entries_hash_apart() {
        let mut prefix = Knowledge::new();
        prefix.insert_prefix(ReplicaId::new(1), 2);
        let mut exception = Knowledge::new();
        exception.insert(v(1, 2));
        assert_ne!(
            KnowledgeTotals::of(&prefix).checksum(),
            KnowledgeTotals::of(&exception).checksum()
        );
    }

    #[test]
    fn since_answers_only_retained_positions() {
        let mut k = Knowledge::new();
        let mut j = Journal::default();
        for c in 1..=100 {
            j.learn(&mut k, v(1, c));
        }
        assert_eq!(j.position(), 100);
        assert_eq!(j.since(100), Some(&[][..]));
        assert_eq!(j.since(99), Some(&[v(1, 100)][..]));
        assert_eq!(j.since(101), None, "a position from the future");
        // One vector entry: only MIN_RETAINED..2×MIN_RETAINED are kept.
        assert_eq!(j.since(0), None, "trimmed away");
        assert!((MIN_RETAINED..=2 * MIN_RETAINED).contains(&j.tail.len()));
        assert_eq!(j.since(j.trimmed).map(<[_]>::len), Some(j.tail.len()));
    }

    #[test]
    fn a_restarted_journal_carries_the_totals_forward() {
        let mut k = Knowledge::new();
        let mut j = Journal::default();
        for version in [v(1, 1), v(2, 4), v(1, 2)] {
            j.learn(&mut k, version);
        }
        let mut restarted = Journal::starting_at(&k);
        assert_eq!(restarted.position(), 0);
        assert_eq!(restarted.totals(), j.totals());
        restarted.learn(&mut k, v(2, 1));
        assert_eq!(restarted.totals(), KnowledgeTotals::of(&k));
        assert_eq!(restarted.since(0), Some(&[v(2, 1)][..]));
    }
}
