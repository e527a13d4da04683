//! Parked copies: stored items a routing extension withholds until they
//! are rewritten ([`SendDecision::Park`](crate::SendDecision::Park)).
//!
//! Most of what a waiting policy is asked about at a contact it declined
//! at the last one, for a reason only a write to the copy can change: a
//! relay copy under two-hop, a one-copy holder under Spray, an
//! acknowledged message under MaxProp. A park records that verdict on the
//! copy's version-index entry, together with a signature of the copy's
//! values of one attribute (`dest` for the DTN policies; every string of
//! a list). A sync then passes over a parked copy — no slot, no filter,
//! no `to_send` — unless the copy shares a signature bit with the sync's
//! *wanted* set: the values the target's filter can match on that
//! attribute, plus those the extension names ([`ParkKeys::want`]).
//!
//! The signature bits are exact inside each store. Its [`KeyTable`]
//! gives each of the first 62 distinct values it parks a copy under a
//! bit of its own, keyed by the value's 64-bit FNV-1a hash, and frees the
//! bit for another value once no parked entry carries it. So a wanted
//! value re-opens only the copies filed under it, and a value nothing is
//! parked under wants nothing. Only when all 62 bits are held does a new
//! value *fold* onto the bit its hash selects, sharing it; while a
//! parked entry may carry that bit as a fold, a wanted value whose hash
//! selects it wants that bit too. A shared bit only costs the full
//! evaluation every copy used to get.
//!
//! One `u64` per index entry encodes all three states:
//! - [`UNPARKED`] — not parked;
//! - [`PARKED`] plus signature bits `0..62` — parked;
//! - a wanted set is [`UNPARKED`] plus signature bits, or [`EVERY`].
//!
//! An entry is passed over exactly when `entry & wanted == 0`. The store
//! files versions in stretches of 64 counters, and each stretch keeps a
//! mask of its parked entries and a union covering their park entries, so
//! a walk usually passes a stretch's parks without reading them: when the
//! wanted set misses the union, every parked unknown version of the
//! stretch is counted and dropped with one `AND`. Otherwise each is
//! tested on its own entry. Park, write, replacement, removal and
//! [`crate::Replica::clear_parks`] keep the mask and the table's counts
//! exact; a write leaves the unparked entry's bits in the union until the
//! stretch's last park goes, and such a stale bit — even one whose slot
//! has since gone to another value — only costs the per-entry tests,
//! never passes a wanted copy. A multicast copy takes a bit for each of
//! its destinations, in its entry and so in its stretch's union.

use crate::filter::{CmpOp, Filter};
use crate::item::Item;
use crate::value::Value;

/// The index entry of a copy that is not parked. Every wanted set
/// includes this bit, so such a copy is always evaluated.
pub(crate) const UNPARKED: u64 = 1 << 63;

/// Set in every parked entry; only [`EVERY`] among wanted sets includes
/// it, so a parked copy with no key values is evaluated under it alone.
pub(crate) const PARKED: u64 = 1 << 62;

/// The wanted set that evaluates every parked copy: for filters of any
/// other shape than an address disjunction, and for a store with nothing
/// parked.
pub(crate) const EVERY: u64 = u64::MAX;

/// How many signature bits there are, below [`PARKED`].
const KEY_BITS: usize = 62;

/// Every signature bit.
const KEYS: u64 = PARKED - 1;

/// The 64-bit FNV-1a hash of one key value: what a [`KeyTable`] knows it
/// by.
fn key_hash(value: &str) -> u64 {
    value.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bit a value's hash selects: its slot when free, its fold bit
/// when every slot is held.
fn home(hash: u64) -> usize {
    (hash % KEY_BITS as u64) as usize
}

/// One store's signature bits: which key value each of the 62 holds, and
/// how many parked entries carry it (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct KeyTable {
    /// The hash of the value each held slot is filed under.
    hashes: [u64; KEY_BITS],
    /// Per slot, how many parked entries carry its bit.
    counts: [u32; KEY_BITS],
    /// The held slots: exactly those with a nonzero count.
    held: u64,
    /// The held slots that are not their value's [`home`].
    displaced: u64,
    /// The homes of the values in displaced slots: a value whose home is
    /// not among them holds its home slot or none.
    crowded: u64,
    /// How many parked entries carry a value's fold bit.
    folds: u32,
    /// At least the fold bits those entries carry; cleared when the last
    /// of them goes.
    fold_bits: u64,
}

impl Default for KeyTable {
    fn default() -> Self {
        KeyTable {
            hashes: [0; KEY_BITS],
            counts: [0; KEY_BITS],
            held: 0,
            displaced: 0,
            crowded: 0,
            folds: 0,
            fold_bits: 0,
        }
    }
}

impl KeyTable {
    /// The slot filed under `hash`: its home, or one of the displaced.
    fn slot_of(&self, hash: u64) -> Option<usize> {
        let home = home(hash);
        if self.held & (1 << home) != 0 && self.hashes[home] == hash {
            return Some(home);
        }
        if self.crowded & (1 << home) == 0 {
            return None;
        }
        let mut displaced = self.displaced;
        while displaced != 0 {
            let slot = displaced.trailing_zeros() as usize;
            if self.hashes[slot] == hash {
                return Some(slot);
            }
            displaced &= displaced - 1;
        }
        None
    }

    /// The wanted bits of `value`: its slot's, if it holds one, and its
    /// fold bit while a parked entry may carry that bit as a fold.
    /// Nothing for a value no parked entry can carry, and nothing at all
    /// while no parked entry carries a bit (a fold lands on a held slot).
    pub(crate) fn bits_of(&self, value: &str) -> u64 {
        self.bits_of_hash(key_hash(value))
    }

    /// [`KeyTable::bits_of`] for a value known by its hash.
    fn bits_of_hash(&self, hash: u64) -> u64 {
        if self.held == 0 {
            return 0;
        }
        let slot = self.slot_of(hash).map_or(0, |slot| 1 << slot);
        slot | self.fold_bits & 1 << home(hash)
    }

    /// The bit a new park files `value` under, and whether it is a fold:
    /// the value's slot, a free slot it now holds (its home if free), or
    /// with every slot held its fold bit.
    fn file(&mut self, value: &str) -> (u64, bool) {
        let hash = key_hash(value);
        if let Some(slot) = self.slot_of(hash) {
            return (1 << slot, false);
        }
        let (home, free) = (home(hash), KEYS & !self.held);
        if free == 0 {
            self.fold_bits |= 1 << home;
            return (1 << home, true);
        }
        let slot = if free & (1 << home) != 0 {
            home
        } else {
            free.trailing_zeros() as usize
        };
        self.hashes[slot] = hash;
        self.held |= 1 << slot;
        if slot != home {
            self.displaced |= 1 << slot;
            self.crowded |= 1 << home;
        }
        (1 << slot, false)
    }

    /// Files a park of `item` under its values of `attr` and counts it:
    /// returns the park entry — [`PARKED`] plus the bit of each string
    /// value the attribute holds, scalar or listed — and whether it
    /// carries a fold. Other values set no bit: only a filter atom of
    /// another type could match them, and such a filter wants [`EVERY`].
    pub(crate) fn park(&mut self, item: &Item, attr: &str) -> (u64, bool) {
        let (keys, folded) = match item.attrs().get(attr) {
            Some(Value::Str(s)) => self.file(s),
            Some(Value::List(values)) => {
                values
                    .iter()
                    .filter_map(Value::as_str)
                    .fold((0, false), |(keys, folded), s| {
                        let (bit, fold) = self.file(s);
                        (keys | bit, folded | fold)
                    })
            }
            _ => (0, false),
        };
        let mut bits = keys;
        while bits != 0 {
            self.counts[bits.trailing_zeros() as usize] += 1;
            bits &= bits - 1;
        }
        self.folds += u32::from(folded);
        (PARKED | keys, folded)
    }

    /// Uncounts a park that [`KeyTable::park`] returned, freeing each
    /// slot no parked entry carries any more.
    pub(crate) fn release(&mut self, entry: u64, folded: bool) {
        let (mut bits, mut freed) = (entry & KEYS, 0);
        while bits != 0 {
            let slot = bits.trailing_zeros() as usize;
            self.counts[slot] -= 1;
            if self.counts[slot] == 0 {
                freed |= 1 << slot;
            }
            bits &= bits - 1;
        }
        self.held &= !freed;
        self.folds -= u32::from(folded);
        if self.folds == 0 {
            self.fold_bits = 0;
        }
        if self.displaced & freed != 0 {
            self.displaced &= !freed;
            self.crowded = 0;
            let mut displaced = self.displaced;
            while displaced != 0 {
                self.crowded |= 1 << home(self.hashes[displaced.trailing_zeros() as usize]);
                displaced &= displaced - 1;
            }
        }
    }

    /// Forgets every park.
    pub(crate) fn clear(&mut self) {
        *self = KeyTable::default();
    }

    /// Checks the table against every parked entry's `(entry, folded)`:
    /// each slot's count is the number of entries carrying its bit, the
    /// held slots are those counted, each holds a distinct value, at its
    /// home unless marked displaced, and the folds are counted.
    #[cfg(test)]
    pub(crate) fn assert_counts(&self, parks: &[(u64, bool)]) {
        for slot in 0..KEY_BITS {
            let carried = parks.iter().filter(|(e, _)| e & (1 << slot) != 0);
            assert_eq!(self.counts[slot] as usize, carried.count(), "slot {slot}");
            let held = self.held & (1 << slot) != 0;
            assert_eq!(held, self.counts[slot] > 0, "slot {slot} held");
            let displaced = self.displaced & (1 << slot) != 0;
            if held {
                assert_eq!(home(self.hashes[slot]) != slot, displaced, "slot {slot}");
                assert_eq!(self.slot_of(self.hashes[slot]), Some(slot));
            } else {
                assert!(!displaced, "free slot {slot} marked displaced");
            }
        }
        let mut crowded = 0;
        for slot in (0..KEY_BITS).filter(|slot| self.displaced & (1 << slot) != 0) {
            crowded |= 1 << home(self.hashes[slot]);
        }
        assert_eq!(self.crowded, crowded, "the displaced values' homes");
        let folds = parks.iter().filter(|(_, folded)| *folded).count();
        assert_eq!(self.folds as usize, folds, "folds");
        assert_eq!(self.fold_bits == 0, folds == 0, "fold bits");
        for (entry, _) in parks.iter().filter(|(_, folded)| *folded) {
            assert_ne!(entry & self.fold_bits, 0, "a fold's bit is not wanted");
        }
        assert!(parks.iter().all(|(e, _)| e & !KEYS == PARKED));
    }
}

/// The signature bits of every value of `attr` that `filter` can match,
/// when it can match only items holding one of them there: a disjunction
/// (of any depth, possibly empty) of `contains`, `=` and `in` atoms on
/// `attr` with string operands. `None` for every other shape.
fn filter_keys(filter: &Filter, attr: &str, table: &KeyTable) -> Option<u64> {
    match filter {
        Filter::None => Some(0),
        Filter::Contains {
            attr: on,
            value: Value::Str(s),
        }
        | Filter::Cmp {
            attr: on,
            op: CmpOp::Eq,
            value: Value::Str(s),
        } if on == attr => Some(table.bits_of(s)),
        Filter::In { attr: on, values } if on == attr => values
            .iter()
            .try_fold(0, |keys, v| Some(keys | table.bits_of(v.as_str()?))),
        Filter::Or(arms) => arms
            .iter()
            .try_fold(0, |keys, arm| Some(keys | filter_keys(arm, attr, table)?)),
        _ => None,
    }
}

/// The wanted set of one sync over parks filed under `attr`: what the
/// target's filter can match there plus the values `keys` names, or
/// [`EVERY`] when the filter has another shape.
pub(crate) fn wanted(filter: &Filter, attr: &str, keys: &ParkKeys<'_>) -> u64 {
    let named = if keys.attr == Some(attr) {
        keys.wanted
    } else {
        0
    };
    filter_keys(filter, attr, keys.table).map_or(EVERY, |matched| UNPARKED | matched | named)
}

/// What a store knows a key value by: computed from the string once, by
/// an extension that names the same values at sync after sync
/// ([`ParkKeys::want_key`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParkKey(u64);

impl ParkKey {
    /// The key of `value`.
    pub fn of(value: &str) -> ParkKey {
        ParkKey(key_hash(value))
    }
}

/// What a source's extension tells a sync about the copies it parks,
/// through [`SyncExtension::park_keys`](crate::SyncExtension::park_keys):
/// the attribute they are filed under, and the values of it whose parked
/// copies this sync must judge again because the extension's own verdict
/// on them may have changed (PROPHET: the destinations the peer is a
/// better custodian for). The target's filter needs no naming: the
/// substrate reads it.
///
/// It borrows the source store's key table and resolves each value as it
/// is named, so naming a value nothing is parked under costs a lookup and
/// re-opens nothing.
///
/// An extension that never calls [`ParkKeys::file_under`] cannot park:
/// its [`SendDecision::Park`](crate::SendDecision::Park) is a plain skip.
#[derive(Clone, Debug)]
pub struct ParkKeys<'a> {
    attr: Option<&'static str>,
    wanted: u64,
    table: &'a KeyTable,
}

impl<'a> ParkKeys<'a> {
    /// Names nothing yet, resolving values through `table`.
    pub(crate) fn new(table: &'a KeyTable) -> Self {
        ParkKeys {
            attr: None,
            wanted: 0,
            table,
        }
    }

    /// Files parked copies under their values of `attr`.
    pub fn file_under(&mut self, attr: &'static str) {
        self.attr = Some(attr);
    }

    /// Has this sync judge again every parked copy filed under `value`.
    pub fn want(&mut self, value: &str) {
        self.wanted |= self.table.bits_of(value);
    }

    /// [`ParkKeys::want`] for a value whose [`ParkKey`] the extension
    /// computed once and kept: no hashing of the string per sync.
    pub fn want_key(&mut self, key: ParkKey) {
        self.wanted |= self.table.bits_of_hash(key.0);
    }

    /// The attribute parked copies are filed under, if the extension
    /// parks at all.
    pub(crate) fn attr(&self) -> Option<&'static str> {
        self.attr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ItemId, ReplicaId, Version};

    fn item(dest: Value) -> Item {
        Item::builder(
            ItemId::new(ReplicaId::new(1), 1),
            Version::new(ReplicaId::new(1), 1),
        )
        .attr("dest", dest)
        .build()
    }

    fn to(addr: &str) -> Item {
        item(Value::from(addr))
    }

    fn passes(entry: u64, wanted: u64) -> bool {
        entry & wanted == 0
    }

    /// The wanted set of a sync whose target's filter is `addr`.
    fn want(table: &KeyTable, addr: &str) -> u64 {
        wanted(
            &Filter::address("dest", addr),
            "dest",
            &ParkKeys::new(table),
        )
    }

    fn bus(n: usize) -> String {
        format!("bus-{n}")
    }

    #[test]
    fn a_copy_is_judged_when_the_filter_or_the_policy_names_a_key() {
        let mut table = KeyTable::default();
        let (to_b, _) = table.park(&to("b"), "dest");
        let none = ParkKeys::new(&table);
        let only_a = wanted(&Filter::address("dest", "a"), "dest", &none);
        let a_or_b = wanted(&Filter::any_address("dest", ["a", "b"]), "dest", &none);
        assert!(passes(to_b, only_a));
        assert_eq!(only_a, UNPARKED, "nothing is parked under a");
        assert!(!passes(to_b, a_or_b));
        assert!(
            !passes(UNPARKED, only_a),
            "an unparked copy is always judged"
        );

        let mut prophet = ParkKeys::new(&table);
        prophet.file_under("dest");
        prophet.want("b");
        assert!(!passes(to_b, wanted(&Filter::None, "dest", &prophet)));
        let mut by_key = ParkKeys::new(&table);
        by_key.file_under("dest");
        by_key.want_key(ParkKey::of("b"));
        assert_eq!(
            by_key.wanted, prophet.wanted,
            "a kept key wants what its value does"
        );
        let mut elsewhere = ParkKeys::new(&table);
        elsewhere.file_under("src");
        elsewhere.want("b");
        assert!(
            passes(to_b, wanted(&Filter::None, "dest", &elsewhere)),
            "keys named under another attribute want nothing here"
        );
    }

    #[test]
    fn a_multicast_copy_is_filed_under_every_destination() {
        let mut table = KeyTable::default();
        let (both, folded) = table.park(
            &item(Value::List(vec![Value::from("b"), Value::from("c")])),
            "dest",
        );
        assert!(!folded);
        assert_eq!((both & KEYS).count_ones(), 2, "a bit per destination");
        for addr in ["b", "c"] {
            assert!(!passes(both, want(&table, addr)), "{addr}");
        }
        let (to_a, _) = table.park(&to("a"), "dest");
        assert!(passes(both, want(&table, "a")));
        assert!(passes(to_a, want(&table, "b")));
        assert!(passes(to_a, want(&table, "c")));
        // The multicast park holds both its slots until it goes.
        table.release(both, false);
        assert_eq!(want(&table, "b"), UNPARKED);
        assert_eq!(want(&table, "c"), UNPARKED);
        assert!(!passes(to_a, want(&table, "a")));
    }

    #[test]
    fn up_to_62_distinct_values_hold_a_bit_each() {
        let mut table = KeyTable::default();
        let entries: Vec<u64> = (1..=62)
            .map(|n| {
                let (entry, folded) = table.park(&to(&bus(n)), "dest");
                assert!(!folded, "{} folded with a slot free", bus(n));
                entry
            })
            .collect();
        let union = entries.iter().fold(0, |union, entry| union | entry);
        assert_eq!(union, PARKED | KEYS, "62 values, 62 bits");
        for (n, entry) in (1..).zip(&entries) {
            assert_eq!((entry & KEYS).count_ones(), 1);
            let wanted = want(&table, &bus(n));
            let judged: Vec<usize> = (1..)
                .zip(&entries)
                .filter(|(_, e)| !passes(**e, wanted))
                .map(|(m, _)| m)
                .collect();
            assert_eq!(judged, vec![n], "wanting {} judges it alone", bus(n));
        }
    }

    #[test]
    fn the_63rd_value_folds_and_a_wanted_fold_is_never_passed() {
        let mut table = KeyTable::default();
        let entries: Vec<u64> = (1..=62)
            .map(|n| table.park(&to(&bus(n)), "dest").0)
            .collect();
        let (late, folded) = table.park(&to(&bus(63)), "dest");
        assert!(folded, "every slot is held");
        assert!(!passes(late, want(&table, &bus(63))));
        // A fold shares its bit with the slot's own value.
        let shared = (1..).zip(&entries).find(|(_, e)| !passes(late, **e & KEYS));
        let (owner, &owner_entry) = shared.expect("a fold lands on a held bit");
        assert!(!passes(owner_entry, want(&table, &bus(63))));

        // Freeing a slot makes room, but the fold is still filed under its
        // fold bit, and still wanted.
        let other = if owner == 1 { 2 } else { 1 };
        table.release(entries[other - 1], false);
        assert!(!passes(late, want(&table, &bus(63))));
        // A second copy for the late value takes the free slot; wanting
        // the value judges both its copies.
        let (again, folded) = table.park(&to(&bus(63)), "dest");
        assert!(!folded);
        assert_eq!(again, entries[other - 1], "the freed slot, reused");
        assert!(!passes(late, want(&table, &bus(63))));
        assert!(!passes(again, want(&table, &bus(63))));
        // Once the fold goes, the value wants its own slot alone.
        table.release(late, true);
        assert_eq!(want(&table, &bus(63)), UNPARKED | (again & KEYS));
        assert!(passes(owner_entry, want(&table, &bus(63))));
    }

    #[test]
    fn a_slot_is_reused_once_its_last_park_goes() {
        let mut table = KeyTable::default();
        let (first, _) = table.park(&to("a"), "dest");
        let (second, _) = table.park(&to("a"), "dest");
        assert_eq!(first, second, "equal values share their slot");
        table.release(first, false);
        assert!(!passes(second, want(&table, "a")), "one park of a is left");
        table.release(second, false);
        assert_eq!(want(&table, "a"), UNPARKED, "nothing is parked under a");

        // With 61 other values held, the freed slot is the only one left:
        // the next new value takes it instead of folding.
        let (a, _) = table.park(&to("a"), "dest");
        for n in 1..=61 {
            table.park(&to(&bus(n)), "dest");
        }
        table.release(a, false);
        let (next, folded) = table.park(&to(&bus(62)), "dest");
        assert!(!folded);
        assert_eq!(next, a);
        assert_eq!(want(&table, "a"), UNPARKED);
        table.clear();
        assert_eq!(want(&table, &bus(62)), UNPARKED);
    }

    #[test]
    fn other_filter_shapes_want_every_parked_copy() {
        let mut table = KeyTable::default();
        let (keyless, folded) = table.park(&item(Value::from(7i64)), "dest");
        assert_eq!((keyless, folded), (PARKED, false));
        let none = ParkKeys::new(&table);
        for filter in [
            Filter::All,
            Filter::address("topic", "x"),
            Filter::address("dest", 7i64),
            Filter::Not(Box::new(Filter::address("dest", "a"))),
            Filter::And(vec![Filter::address("dest", "a")]),
            Filter::parse(r#"dest in ["a", 1]"#).unwrap(),
        ] {
            assert_eq!(wanted(&filter, "dest", &none), EVERY, "{filter}");
            assert!(!passes(keyless, EVERY));
        }
        assert_eq!(
            wanted(&Filter::None, "dest", &none),
            UNPARKED,
            "a filter that matches nothing wants nothing"
        );
        let (a, b, c) = (
            table.park(&to("a"), "dest").0,
            table.park(&to("b"), "dest").0,
            table.park(&to("c"), "dest").0,
        );
        let parsed = Filter::parse(r#"dest = "a" or (dest in ["b", "c"])"#).unwrap();
        assert_eq!(
            wanted(&parsed, "dest", &ParkKeys::new(&table)),
            UNPARKED | ((a | b | c) & KEYS)
        );
    }
}
