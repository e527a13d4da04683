//! Knowledge: the compact record of which versions a replica has learned.
//!
//! Knowledge is the replication substrate's substitute for the ad-hoc
//! duplicate-suppression machinery of DTN protocols (summary vectors, hop
//! lists): a replica never accepts — and a sync partner never re-sends — a
//! version contained in its knowledge, which yields *at-most-once delivery*
//! for free (paper §II-B, §III).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::id::{ReplicaId, Version};
use crate::ordered::{Cursor, OrdMap};

/// Receives every change to a [`Knowledge`]'s entry set — one call per
/// vector entry or exception added (`added`) or removed — so sums over
/// the entries can be kept current in O(change). `()` ignores them.
pub(crate) trait EntrySink {
    /// `(replica, counter)` is a vector entry, or with `exception` an
    /// exception, that just appeared or disappeared.
    fn entry(&mut self, replica: ReplicaId, counter: u64, exception: bool, added: bool);
}

impl EntrySink for () {
    #[inline]
    fn entry(&mut self, _: ReplicaId, _: u64, _: bool, _: bool) {}
}

/// A compact set of [`Version`]s: a version vector plus an exception set.
///
/// The *vector* component maps each replica to the highest counter `c` such
/// that **all** versions `1..=c` from that replica are known. Versions known
/// out of order (because filtered replication delivers only a subset of each
/// origin's writes) are tracked individually in the *exception* set and
/// absorbed into the vector as gaps fill in. Both are sorted arrays —
/// the vector by replica, the exceptions by origin then counter, which is
/// also their order on the wire and in snapshots — so a lookup is a binary
/// search, a clone is two copies, and sync candidate selection steps
/// through them in one pass beside the store's version index.
///
/// The representation is therefore proportional to the number of replicas
/// plus the number of out-of-order receipts — for full replication it
/// degenerates to the classic version vector whose compactness the paper
/// highlights, while remaining *sound* for partial (filtered) replication,
/// where gaps are permanent.
///
/// `Knowledge` forms a join-semilattice under [`merge`](Knowledge::merge):
/// the operation is commutative, associative, and idempotent (property
/// tested against a plain set of versions).
///
/// # Examples
///
/// ```
/// use pfr::{Knowledge, ReplicaId, Version};
///
/// let r = ReplicaId::new(1);
/// let mut k = Knowledge::new();
/// k.insert(Version::new(r, 1));
/// k.insert(Version::new(r, 3)); // out of order: kept as an exception
/// assert!(k.contains(Version::new(r, 1)));
/// assert!(!k.contains(Version::new(r, 2)));
/// k.insert(Version::new(r, 2)); // gap fills: vector compacts to 3
/// assert_eq!(k.base_counter(r), 3);
/// assert_eq!(k.exception_count(), 0);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Knowledge {
    /// replica -> highest prefix-complete counter (never 0).
    vector: OrdMap<ReplicaId, u64>,
    /// Individually known `(origin, counter)`s, each more than one above
    /// its origin's vector entry.
    exceptions: OrdMap<(ReplicaId, u64), ()>,
}

impl Knowledge {
    /// Creates empty knowledge (no versions known).
    pub fn new() -> Self {
        Knowledge::default()
    }

    /// The knowledge holding every prefix `1..=counter` in `prefixes` and
    /// every single version in `singles`, given in any order and with any
    /// repetition or overlap — what a decoder read from a frame or a
    /// file. Lists exactly as an honest encoder writes them become the
    /// two arrays as they are; anything else is sorted, unless already
    /// ascending, and built in one pass.
    pub(crate) fn from_entries(
        mut prefixes: Vec<(ReplicaId, u64)>,
        mut singles: Vec<(ReplicaId, u64)>,
    ) -> Self {
        if is_canonical(&prefixes, &singles) {
            return Knowledge {
                vector: OrdMap::from_ascending(prefixes),
                exceptions: OrdMap::from_ascending(
                    singles.into_iter().map(|version| (version, ())).collect(),
                ),
            };
        }
        sort_unless_ascending(&mut prefixes);
        sort_unless_ascending(&mut singles);
        canonical(prefixes.into_iter(), singles.into_iter())
    }

    /// Returns `true` if `version` is known.
    pub fn contains(&self, version: Version) -> bool {
        let (replica, counter) = (version.replica(), version.counter());
        counter <= self.base_counter(replica) || self.exceptions.get(&(replica, counter)).is_some()
    }

    /// The highest counter `c` for `replica` such that all of `1..=c` is
    /// known (0 if nothing prefix-complete is known).
    pub fn base_counter(&self, replica: ReplicaId) -> u64 {
        self.vector.get(&replica).copied().unwrap_or(0)
    }

    /// Records one version as known. Idempotent.
    ///
    /// Consecutive exceptions are folded into the vector whenever the
    /// insertion closes a gap, keeping the representation compact.
    pub fn insert(&mut self, version: Version) {
        self.insert_with(version, &mut ());
    }

    /// [`insert`](Knowledge::insert) that reports every entry it adds or
    /// removes to `sink` and returns whether `version` was new. This is
    /// how a replica keeps running totals over its knowledge (see
    /// [`crate::journal`]) without the knowledge carrying them.
    pub(crate) fn insert_with<S: EntrySink>(&mut self, version: Version, sink: &mut S) -> bool {
        let (replica, counter) = (version.replica(), version.counter());
        let base = self.base_counter(replica);
        if counter.checked_sub(1) == Some(base) {
            self.raise(replica, counter, sink);
            true
        } else if counter > base && self.exceptions.insert((replica, counter), ()).is_none() {
            sink.entry(replica, counter, true, true);
            true
        } else {
            false
        }
    }

    /// Records that *all* versions `1..=counter` from `replica` are known.
    ///
    /// This is how trusted checkpoints are installed.
    pub fn insert_prefix(&mut self, replica: ReplicaId, counter: u64) {
        if counter > self.base_counter(replica) {
            self.raise(replica, counter, &mut ());
        }
    }

    /// Sets `replica`'s prefix to `counter` (above its current one), drops
    /// the exceptions it swallows and folds in the run adjacent to it.
    fn raise<S: EntrySink>(&mut self, replica: ReplicaId, counter: u64, sink: &mut S) {
        let mut base = counter;
        self.exceptions
            .remove_run(&(replica, 0), |&(origin, next)| {
                let swallowed = origin == replica && next <= base.saturating_add(1);
                if swallowed {
                    sink.entry(replica, next, true, false);
                    base = base.max(next);
                }
                swallowed
            });
        if let Some(old) = self.vector.insert(replica, base) {
            sink.entry(replica, old, false, false);
        }
        sink.entry(replica, base, false, true);
    }

    /// Merges another replica's knowledge into this one (set union),
    /// returning whether anything new was learned.
    ///
    /// After merging, `self.contains(v)` holds exactly when either input
    /// contained `v`. Both sides are walked in step, once to find out
    /// whether `other` holds anything new — most merges between
    /// long-acquainted peers end there, having written nothing — and, if
    /// so, once more to build the union.
    pub fn merge(&mut self, other: &Knowledge) -> bool {
        if self.dominates(other) {
            return false;
        }
        *self = canonical(
            merge_ascending(self.vector.iter().copied(), other.vector.iter().copied()),
            merge_ascending(self.exception_keys(), other.exception_keys()),
        );
        true
    }

    /// Returns `true` if every version in `other` is also in `self`.
    pub fn dominates(&self, other: &Knowledge) -> bool {
        // An exception never sits directly above its prefix, so only a
        // prefix can cover a prefix.
        let mut prefixes = self.prefix_cursor();
        let covers_prefixes = other
            .vector
            .iter()
            .all(|(replica, counter)| prefixes.seek(replica).is_some_and(|base| counter <= base));
        let mut prefixes = self.prefix_cursor();
        let mut exceptions = self.exception_cursor();
        covers_prefixes
            && other.exceptions.iter().all(|(version, ())| {
                exceptions.seek(version).is_some()
                    || prefixes
                        .seek(&version.0)
                        .is_some_and(|base| version.1 <= *base)
            })
    }

    /// Iterates over `(replica, prefix counter)` vector entries.
    pub fn vector_entries(&self) -> impl Iterator<Item = (ReplicaId, u64)> + '_ {
        self.vector.iter().copied()
    }

    /// Iterates over exception versions in `(replica, counter)` order —
    /// the canonical order of the wire and snapshot encodings.
    pub fn exceptions(&self) -> impl Iterator<Item = Version> + '_ {
        self.exception_keys().map(|(r, c)| Version::new(r, c))
    }

    fn exception_keys(&self) -> impl Iterator<Item = (ReplicaId, u64)> + '_ {
        self.exceptions.iter().map(|&(version, ())| version)
    }

    /// A forward reader of the vector, for looking up ascending replicas
    /// in one pass.
    pub(crate) fn prefix_cursor(&self) -> Cursor<'_, ReplicaId, u64> {
        self.vector.iter()
    }

    /// A forward reader of the exceptions, likewise.
    pub(crate) fn exception_cursor(&self) -> Cursor<'_, (ReplicaId, u64), ()> {
        self.exceptions.iter()
    }

    /// Number of replicas with a vector entry.
    pub fn replica_count(&self) -> usize {
        self.vector.len()
    }

    /// Number of out-of-order exceptions currently held.
    ///
    /// This is the metadata-size metric the paper's "compact knowledge"
    /// claim is about; the storage experiments report it.
    pub fn exception_count(&self) -> usize {
        self.exceptions.len()
    }

    /// Returns `true` if no versions are known.
    pub fn is_empty(&self) -> bool {
        self.vector.is_empty() && self.exceptions.is_empty()
    }

    /// Total number of versions contained (for testing and metrics; cost is
    /// O(vector entries), not O(versions)).
    pub fn version_count(&self) -> u64 {
        self.vector
            .iter()
            .fold(self.exceptions.len() as u64, |n, &(_, c)| {
                n.saturating_add(c)
            })
    }
}

/// Whether the lists are a knowledge's one representation already:
/// replicas strictly ascending with nonzero prefixes, singles strictly
/// ascending and each more than one above its origin's prefix.
fn is_canonical(prefixes: &[(ReplicaId, u64)], singles: &[(ReplicaId, u64)]) -> bool {
    let mut bases = prefixes.iter().peekable();
    prefixes.windows(2).all(|w| w[0].0 < w[1].0)
        && prefixes.iter().all(|&(_, counter)| counter > 0)
        && singles.windows(2).all(|w| w[0] < w[1])
        && singles.iter().all(|&(origin, counter)| {
            while bases.next_if(|&&(replica, _)| replica < origin).is_some() {}
            let base = bases.peek().filter(|p| p.0 == origin).map_or(0, |p| p.1);
            counter > base.saturating_add(1)
        })
}

fn sort_unless_ascending<T: Ord>(entries: &mut [T]) {
    if !entries.windows(2).all(|w| w[0] <= w[1]) {
        entries.sort_unstable();
    }
}

/// Two ascending sequences as one; equal elements are both kept.
fn merge_ascending<T: Ord>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
) -> impl Iterator<Item = T> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if x <= y => a.next(),
        (Some(_), None) => a.next(),
        _ => b.next(),
    })
}

/// Builds the one representation of the version set that `prefixes` (each
/// `(replica, c)` standing for `1..=c`) and `singles` add up to. Both come
/// ascending and may repeat or overlap: per replica the highest prefix
/// wins, singles at or below it are dropped, and the run of singles
/// adjacent to it is folded in.
fn canonical(
    prefixes: impl Iterator<Item = (ReplicaId, u64)>,
    singles: impl Iterator<Item = (ReplicaId, u64)>,
) -> Knowledge {
    let (mut prefixes, mut singles) = (prefixes.peekable(), singles.peekable());
    let mut vector = Vec::with_capacity(prefixes.size_hint().0);
    let mut exceptions = Vec::with_capacity(singles.size_hint().0);
    loop {
        let replica = match (prefixes.peek(), singles.peek()) {
            (Some(&(p, _)), Some(&(s, _))) => p.min(s),
            (Some(&(r, _)), None) | (None, Some(&(r, _))) => r,
            (None, None) => break,
        };
        let mut base = 0;
        while let Some((_, counter)) = prefixes.next_if(|&(r, _)| r == replica) {
            base = base.max(counter);
        }
        while let Some(single) = singles.next_if(|&(r, _)| r == replica) {
            if single.1 == base.saturating_add(1) {
                base = single.1;
            } else if single.1 > base && exceptions.last() != Some(&(single, ())) {
                exceptions.push((single, ()));
            }
        }
        if base > 0 {
            vector.push((replica, base));
        }
    }
    Knowledge {
        vector: OrdMap::from_ascending(vector),
        exceptions: OrdMap::from_ascending(exceptions),
    }
}

impl fmt::Debug for Knowledge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Knowledge{{")?;
        for (i, (r, c)) in self.vector.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}:{c}")?;
        }
        if !self.exceptions.is_empty() {
            write!(f, " +{} exc", self.exceptions.len())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u64) -> ReplicaId {
        ReplicaId::new(n)
    }
    fn v(replica: u64, counter: u64) -> Version {
        Version::new(r(replica), counter)
    }

    #[test]
    fn empty_knowledge_contains_nothing() {
        let k = Knowledge::new();
        assert!(!k.contains(v(1, 1)));
        assert!(k.is_empty());
        assert_eq!(k.version_count(), 0);
    }

    #[test]
    fn in_order_insertions_stay_in_vector() {
        let mut k = Knowledge::new();
        for c in 1..=100 {
            k.insert(v(1, c));
        }
        assert_eq!(k.base_counter(r(1)), 100);
        assert_eq!(k.exception_count(), 0);
        assert_eq!(k.version_count(), 100);
    }

    #[test]
    fn out_of_order_insertions_become_exceptions_then_compact() {
        let mut k = Knowledge::new();
        k.insert(v(1, 5));
        k.insert(v(1, 3));
        assert_eq!(k.base_counter(r(1)), 0);
        assert_eq!(k.exception_count(), 2);
        k.insert(v(1, 1));
        assert_eq!(k.base_counter(r(1)), 1);
        k.insert(v(1, 2)); // closes gap to 3
        assert_eq!(k.base_counter(r(1)), 3);
        assert_eq!(k.exception_count(), 1); // 5 still floating
        k.insert(v(1, 4));
        assert_eq!(k.base_counter(r(1)), 5);
        assert_eq!(k.exception_count(), 0);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut k = Knowledge::new();
        k.insert(v(1, 1));
        k.insert(v(1, 1));
        k.insert(v(1, 3));
        k.insert(v(1, 3));
        assert_eq!(k.version_count(), 2);
    }

    #[test]
    fn insert_prefix_swallows_exceptions() {
        let mut k = Knowledge::new();
        k.insert(v(1, 3));
        k.insert(v(1, 7));
        k.insert_prefix(r(1), 5);
        assert_eq!(k.base_counter(r(1)), 5);
        assert_eq!(k.exception_count(), 1); // only 7 remains
        assert!(k.contains(v(1, 3)));
        assert!(k.contains(v(1, 7)));
        assert!(!k.contains(v(1, 6)));
    }

    #[test]
    fn insert_prefix_absorbs_adjacent_exceptions() {
        let mut k = Knowledge::new();
        k.insert(v(1, 4));
        k.insert(v(1, 5));
        k.insert_prefix(r(1), 3);
        assert_eq!(k.base_counter(r(1)), 5);
        assert_eq!(k.exception_count(), 0);
    }

    #[test]
    fn insert_prefix_is_monotone() {
        let mut k = Knowledge::new();
        k.insert_prefix(r(1), 10);
        k.insert_prefix(r(1), 4); // no-op, must not regress
        assert_eq!(k.base_counter(r(1)), 10);
    }

    #[test]
    fn merge_unions_both_sides() {
        let mut a = Knowledge::new();
        a.insert_prefix(r(1), 5);
        a.insert(v(2, 3));
        let mut b = Knowledge::new();
        b.insert_prefix(r(2), 2);
        b.insert(v(1, 8));
        a.merge(&b);
        assert!(a.contains(v(1, 5)));
        assert!(a.contains(v(1, 8)));
        assert!(!a.contains(v(1, 7)));
        assert!(a.contains(v(2, 2)));
        assert!(a.contains(v(2, 3)));
        assert_eq!(
            a.base_counter(r(2)),
            3,
            "merge compacts 1..=2 plus exception 3"
        );
    }

    #[test]
    fn dominates_requires_superset() {
        let mut a = Knowledge::new();
        a.insert_prefix(r(1), 5);
        let mut b = Knowledge::new();
        b.insert(v(1, 2));
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // Exceptions can cover a prefix claim.
        let mut c = Knowledge::new();
        c.insert(v(1, 1));
        c.insert(v(1, 2));
        let mut d = Knowledge::new();
        d.insert_prefix(r(1), 2);
        assert!(c.dominates(&d));
        assert!(d.dominates(&c));
    }

    #[test]
    fn dominates_self_and_empty() {
        let mut a = Knowledge::new();
        a.insert(v(3, 9));
        assert!(a.dominates(&a.clone()));
        assert!(a.dominates(&Knowledge::new()));
        assert!(!Knowledge::new().dominates(&a));
    }

    #[test]
    fn debug_is_nonempty() {
        let mut k = Knowledge::new();
        assert!(!format!("{k:?}").is_empty());
        k.insert_prefix(r(1), 2);
        k.insert(v(2, 5));
        let s = format!("{k:?}");
        assert!(s.contains("R1:2") && s.contains("exc"));
    }
}
