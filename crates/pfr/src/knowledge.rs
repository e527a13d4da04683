//! Knowledge: the compact record of which versions a replica has learned.
//!
//! Knowledge is the replication substrate's substitute for the ad-hoc
//! duplicate-suppression machinery of DTN protocols (summary vectors, hop
//! lists): a replica never accepts — and a sync partner never re-sends — a
//! version contained in its knowledge, which yields *at-most-once delivery*
//! for free (paper §II-B, §III).

use std::fmt;

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

/// Bits per exception word: an origin's counter `c` is bit `c % 64` of
/// its word `c / 64`. The store files its versions in stretches of the
/// same width, so one stretch meets one word.
pub(crate) const WORD: u64 = u64::BITS as u64;

/// The key of the exception word that holds `origin`'s `counter`, and the
/// counter's bit in it.
pub(crate) fn word_of(origin: ReplicaId, counter: u64) -> ((ReplicaId, u64), u64) {
    ((origin, counter / WORD), 1 << (counter % WORD))
}

/// The bits of word `index` that stand for counters at or below `base`.
pub(crate) fn at_or_below(index: u64, base: u64) -> u64 {
    // `index * WORD` cannot overflow: `index` is a counter divided by 64.
    base.checked_sub(index * WORD)
        .map_or(0, |offset| u64::MAX >> (WORD - 1 - offset.min(WORD - 1)))
}

/// Folds word `index` into its origin's prefix `base`: clears the bits at
/// or below `base`, then raises `base` through the run of set bits that
/// starts right above it. Returns the bits left, none of them adjacent to
/// the new `base`.
fn absorb(index: u64, bits: u64, base: &mut u64) -> u64 {
    let rest = bits & !at_or_below(index, *base);
    let Some(shift) = base
        .checked_add(1)
        .and_then(|next| next.checked_sub(index * WORD))
        .filter(|&shift| shift < WORD)
    else {
        return rest;
    };
    // Counts the ones from `shift` up; the run ends inside the word.
    *base += u64::from((!(rest >> shift)).trailing_zeros());
    rest & !at_or_below(index, *base)
}

/// The counters that word `index`'s set `bits` stand for, ascending.
fn counters(index: u64, mut bits: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        let bit = (bits != 0).then(|| u64::from(bits.trailing_zeros()))?;
        bits &= bits - 1;
        Some(index * WORD + bit)
    })
}

/// A compact set of [`Version`]s: a version vector plus an exception set.
///
/// The *vector* component maps each replica to the highest counter `c` such
/// that **all** versions `1..=c` from that replica are known. Versions known
/// out of order (because filtered replication delivers only a subset of each
/// origin's writes) are tracked individually in the *exception* set and
/// absorbed into the vector as gaps fill in. Both are sorted arrays. The
/// vector is ordered by replica. The exceptions are 64-bit words keyed by
/// `(origin, counter / 64)`, one bit per counter, so they read out by
/// origin then counter — also their order on the wire and in snapshots. A
/// lookup is a binary search and a bit test, a clone is two copies, and
/// sync candidate selection steps through both beside the store's version
/// index. No word is zero, so the words never outnumber the exceptions:
/// at most 24 bytes an exception when every one opens its own word, 3/8 of
/// a byte when an origin's gaps are dense.
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
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Knowledge {
    /// replica -> highest prefix-complete counter (never 0).
    vector: OrdMap<ReplicaId, u64>,
    /// `(origin, counter / 64)` -> the individually known counters of that
    /// word as bits. Never zero, and never holding a counter at or one
    /// above its origin's vector entry.
    words: OrdMap<(ReplicaId, u64), u64>,
    /// How many bits the words hold: the number of exceptions.
    exceptions: usize,
}

impl Knowledge {
    /// Creates empty knowledge (no versions known).
    pub fn new() -> Self {
        Knowledge::default()
    }

    /// The knowledge holding every prefix `1..=counter` in `prefixes` and
    /// every single version in `singles`, given in any order and with any
    /// repetition or overlap — what a decoder read from a frame or a
    /// file. Each list is sorted unless already ascending, and the
    /// knowledge is built from both in one pass.
    pub(crate) fn from_entries(
        mut prefixes: Vec<(ReplicaId, u64)>,
        mut singles: Vec<(ReplicaId, u64)>,
    ) -> Self {
        sort_unless_ascending(&mut prefixes);
        sort_unless_ascending(&mut singles);
        canonical(
            prefixes,
            singles
                .into_iter()
                .map(|(origin, counter)| word_of(origin, counter)),
        )
    }

    /// Returns `true` if `version` is known.
    pub fn contains(&self, version: Version) -> bool {
        let (replica, counter) = (version.replica(), version.counter());
        let (key, bit) = word_of(replica, counter);
        counter <= self.base_counter(replica) || self.words.get(&key).is_some_and(|w| w & bit != 0)
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
            return true;
        }
        if counter <= base {
            return false;
        }
        let (key, bit) = word_of(replica, counter);
        match self.words.get_mut(&key) {
            Some(word) if *word & bit != 0 => return false,
            Some(word) => *word |= bit,
            None => {
                self.words.insert(key, bit);
            }
        }
        self.exceptions += 1;
        sink.entry(replica, counter, true, true);
        true
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
    /// the exceptions it swallows and folds in the run adjacent to it:
    /// word by word, in one pass over the origin's leading words.
    fn raise<S: EntrySink>(&mut self, replica: ReplicaId, counter: u64, sink: &mut S) {
        let mut base = counter;
        let mut swallowed = 0;
        let mut partial = None;
        self.words
            .remove_run(&(replica, 0), |&((origin, index), bits)| {
                if origin != replica {
                    return false;
                }
                let rest = absorb(index, bits, &mut base);
                for gone in counters(index, bits & !rest) {
                    sink.entry(replica, gone, true, false);
                    swallowed += 1;
                }
                // A word with bits left ends the run; it is trimmed below.
                if rest != 0 && rest != bits {
                    partial = Some((index, rest));
                }
                rest == 0
            });
        if let Some((index, rest)) = partial {
            *self
                .words
                .get_mut(&(replica, index))
                .expect("the word that ended the run") = rest;
        }
        self.exceptions -= swallowed;
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
    /// so, once more to build the union, OR-ing words with equal keys.
    pub fn merge(&mut self, other: &Knowledge) -> bool {
        if self.dominates(other) {
            return false;
        }
        *self = canonical(
            merge_ascending(self.vector.iter().copied(), other.vector.iter().copied()).collect(),
            merge_ascending(self.words.iter().copied(), other.words.iter().copied()),
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
        let mut words = self.words.iter();
        covers_prefixes
            && other.words.iter().all(|&(key, bits)| {
                let base = prefixes.seek(&key.0).copied().unwrap_or(0);
                let beyond = bits & !at_or_below(key.1, base);
                beyond == 0 || beyond & !words.seek(&key).copied().unwrap_or(0) == 0
            })
    }

    /// Iterates over `(replica, prefix counter)` vector entries.
    pub fn vector_entries(&self) -> impl Iterator<Item = (ReplicaId, u64)> + '_ {
        self.vector.iter().copied()
    }

    /// Iterates over exception versions in `(replica, counter)` order —
    /// the canonical order of the wire and snapshot encodings.
    pub fn exceptions(&self) -> impl Iterator<Item = Version> + '_ {
        self.words.iter().flat_map(|&((origin, index), bits)| {
            counters(index, bits).map(move |counter| Version::new(origin, counter))
        })
    }

    /// A forward reader of the vector, for looking up ascending replicas
    /// in one pass.
    pub(crate) fn prefix_cursor(&self) -> Cursor<'_, ReplicaId, u64> {
        self.vector.iter()
    }

    /// A forward reader of the exception words (see [`word_of`]),
    /// likewise: one pass for keys looked up in ascending order.
    pub(crate) fn exception_words(&self) -> Cursor<'_, (ReplicaId, u64), u64> {
        self.words.iter()
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
        self.exceptions
    }

    /// Returns `true` if no versions are known.
    pub fn is_empty(&self) -> bool {
        self.vector.is_empty() && self.words.is_empty()
    }

    /// Total number of versions contained (for testing and metrics; cost is
    /// O(vector entries), not O(versions)).
    pub fn version_count(&self) -> u64 {
        self.vector
            .iter()
            .fold(self.exceptions as u64, |n, &(_, c)| n.saturating_add(c))
    }
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

/// Builds the one representation of the version set that `vector` (each
/// `(replica, c)` standing for `1..=c`) and `words` add up to. Both come
/// ascending and may repeat keys: per replica the highest prefix wins,
/// words under one key are OR-ed, bits at or below the prefix are dropped
/// and the run adjacent to it is folded in. The vector is rewritten in
/// place; it grows only for a replica whose words alone start a prefix,
/// which no honest encoder sends.
fn canonical(
    mut vector: Vec<(ReplicaId, u64)>,
    words: impl Iterator<Item = ((ReplicaId, u64), u64)>,
) -> Knowledge {
    // A replica's highest prefix is its last: the list ascends.
    vector.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = next.1;
        }
        same
    });
    vector.retain(|&(_, counter)| counter > 0);
    let mut words = words.peekable();
    let mut kept = Vec::with_capacity(words.size_hint().0);
    let (mut fresh, mut exceptions, mut at) = (Vec::new(), 0, 0);
    while let Some(&((origin, _), _)) = words.peek() {
        while vector.get(at).is_some_and(|&(replica, _)| replica < origin) {
            at += 1;
        }
        let held = vector.get_mut(at).filter(|(replica, _)| *replica == origin);
        let mut base = held.as_ref().map_or(0, |(_, counter)| *counter);
        while let Some((key, mut bits)) = words.next_if(|&((r, _), _)| r == origin) {
            while let Some((_, more)) = words.next_if(|&(k, _)| k == key) {
                bits |= more;
            }
            let rest = absorb(key.1, bits, &mut base);
            if rest != 0 {
                exceptions += rest.count_ones() as usize;
                kept.push((key, rest));
            }
        }
        match held {
            Some((_, counter)) => *counter = base,
            None if base > 0 => fresh.push((origin, base)),
            None => {}
        }
    }
    if !fresh.is_empty() {
        vector = merge_ascending(vector.into_iter(), fresh.into_iter()).collect();
    }
    Knowledge {
        vector: OrdMap::from_ascending(vector),
        words: OrdMap::from_ascending(kept),
        exceptions,
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
        if self.exceptions > 0 {
            write!(f, " +{} exc", self.exceptions)?;
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

    /// The representation's invariants: no zero word, no bit at or one
    /// above its origin's prefix, no zero prefix, and the count equal to
    /// the bits.
    fn assert_canonical(k: &Knowledge) {
        let mut bits_held = 0;
        for &((origin, index), bits) in k.words.iter() {
            assert_ne!(bits, 0, "a zero word for {origin}");
            let next = k.base_counter(origin).saturating_add(1);
            assert_eq!(bits & at_or_below(index, next), 0, "{origin} word {index}");
            bits_held += bits.count_ones() as usize;
        }
        assert_eq!(bits_held, k.exception_count());
        assert!(k.vector.iter().all(|&(_, counter)| counter > 0));
    }

    #[test]
    fn word_boundaries_split_and_fold_exactly() {
        let mut k = Knowledge::new();
        for c in [63, 65, 127, 128, u64::MAX - 1, u64::MAX] {
            k.insert(v(1, c));
        }
        assert_eq!((k.exception_count(), k.words.len()), (6, 4));
        assert!(!k.contains(v(1, 64)) && !k.contains(v(1, 126)));
        k.insert_prefix(r(1), 62); // folds 63
        assert_eq!(k.base_counter(r(1)), 63);
        k.insert(v(1, 64)); // closes the gap across the boundary
        assert_eq!(k.base_counter(r(1)), 65);
        k.insert_prefix(r(1), 126); // swallows nothing, folds 127 and 128
        assert_eq!((k.base_counter(r(1)), k.exception_count()), (128, 2));
        assert_canonical(&k);
        k.insert_prefix(r(1), u64::MAX - 2); // the top of the range
        assert_eq!((k.base_counter(r(1)), k.exception_count()), (u64::MAX, 0));
        assert!(k.words.is_empty());
    }

    #[test]
    fn a_raise_swallows_whole_words_and_trims_the_last() {
        let mut k = Knowledge::new();
        let held = [5, 70].into_iter().chain(129..=191).chain([193, 300]);
        for c in held {
            k.insert(v(1, c));
        }
        k.insert(v(2, 1_000));
        k.insert_prefix(r(1), 128);
        assert_eq!(k.base_counter(r(1)), 191, "the run 129..=191 folded in");
        assert_eq!(
            k.exceptions().collect::<Vec<_>>(),
            [v(1, 193), v(1, 300), v(2, 1_000)]
        );
        assert_canonical(&k);
    }

    proptest::proptest! {
        /// Whatever a frame lists, in any order and overlap, the knowledge
        /// built from it is canonical and holds at most one word per
        /// exception listed; inserting more keeps it canonical.
        #[test]
        fn built_knowledge_holds_a_word_per_exception_at_most(
            prefixes in proptest::collection::vec((1u64..4, 0u64..200), 0..8),
            singles in proptest::collection::vec((1u64..4, 0u64..400), 0..120),
            more in proptest::collection::vec((1u64..4, 0u64..400), 0..60),
        ) {
            let id = |list: Vec<(u64, u64)>| -> Vec<(ReplicaId, u64)> {
                list.into_iter().map(|(o, c)| (r(o), c)).collect()
            };
            let listed = singles.len();
            let mut k = Knowledge::from_entries(id(prefixes), id(singles));
            assert_canonical(&k);
            proptest::prop_assert!(k.words.len() <= listed);
            for (origin, counter) in more {
                k.insert(v(origin, counter));
                assert_canonical(&k);
            }
        }
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
