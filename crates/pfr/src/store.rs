//! The per-replica item store, including the push-out and relay stores.

use std::collections::{HashMap, VecDeque};

use crate::filter::Filter;
use crate::id::{ItemId, ReplicaId, Version};
use crate::item::Item;
use crate::knowledge::{at_or_below, word_of, Knowledge, WORD};
use crate::ordered::OrdMap;
use crate::park;
use crate::time::SimTime;

/// Why a replica is holding an item.
///
/// The paper's Cimbiosys stores items matching the replica's filter plus a
/// *push-out store* of locally-created out-of-filter items awaiting
/// propagation (§IV-C); the DTN extension adds a third category, foreign
/// items accepted for *relay* by a routing policy. Storage constraints
/// (paper §VI-D) apply only to the relay category — "excluding messages for
/// which the node itself is the sender or the destination".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreKind {
    /// The item matches this replica's filter (it is "ours").
    InFilter,
    /// Created locally but outside our filter: held until propagated
    /// (Cimbiosys's push-out store). Never evicted.
    PushOut,
    /// Received from a peer outside our filter, held only to forward on
    /// behalf of others (the DTN relay buffer). Evicted FIFO under storage
    /// constraints.
    Relay,
}

#[derive(Clone, Debug)]
pub(crate) struct StoredItem {
    pub item: Item,
    pub kind: StoreKind,
    pub received_at: SimTime,
    /// The store's write clock when this copy was last written (see
    /// [`ItemStore::write_clock`]).
    pub stamp: u64,
}

/// A stored item lent out mutably together with what a write to it must
/// stamp and unpark (see [`ItemStore::slot`]).
pub(crate) struct Slot<'a> {
    pub item: &'a mut Item,
    stamp: &'a mut u64,
    clock: &'a mut u64,
    /// The version index, lent only while something is parked.
    parks: Option<&'a mut OrdMap<(ReplicaId, u64), Stretch>>,
}

impl Slot<'_> {
    /// Records that the lent item is about to be written. A write unparks
    /// the copy: whatever parked it judged the copy as it was.
    pub fn stamp_write(&mut self) {
        *self.clock += 1;
        *self.stamp = *self.clock;
        if let Some(index) = self.parks.as_mut() {
            if let Some((stretch, bit)) = filed_in(index, self.item.version()) {
                stretch.unpark(bit);
            }
        }
    }
}

/// A version index entry: the slot of the item whose current version it
/// is, and the item's park entry (see [`crate::park`]). A new entry is
/// unparked, so every `put` of a copy unparks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Filed {
    slot: usize,
    park: u64,
}

impl Filed {
    fn new(slot: usize) -> Self {
        Filed {
            slot,
            park: park::UNPARKED,
        }
    }
}

/// The stored versions of one origin in one stretch of 64 counters — the
/// span of one [`Knowledge`] exception word, under the same key: bit
/// `c % 64` of `mask` is set for each stored counter `c`, and their
/// entries are held in counter order, so the entry of bit `b` sits at the
/// rank of `b` among the set bits. Rank 0 is held inline: a stretch of
/// one version, which is most of them in a relay-capped store, allocates
/// nothing. Never empty.
///
/// A stretch also summarises its parks: `parked` sets the bits of its
/// parked entries, and `parks` covers their park entries — the OR of
/// them, or more, as unparking one leaves its bits until the last park
/// goes. A walk whose wanted set misses `parks` passes every parked
/// version of the stretch with one `AND`; a bit left over only costs
/// it the per-entry test.
#[derive(Clone, Debug)]
pub(crate) struct Stretch {
    mask: u64,
    /// The bits of `mask` whose entries are parked.
    parked: u64,
    /// At least the OR of the parked entries' park entries.
    parks: u64,
    /// The entry of the lowest set bit.
    low: Filed,
    /// The entries of the other set bits.
    more: Vec<Filed>,
}

impl Stretch {
    fn new(bit: u64, filed: Filed) -> Self {
        Stretch {
            mask: bit,
            parked: 0,
            parks: 0,
            low: filed,
            more: Vec::new(),
        }
    }

    /// Where the entry of `bit` (a one-bit mask) sits, or would go.
    fn rank(&self, bit: u64) -> usize {
        (self.mask & (bit - 1)).count_ones() as usize
    }

    /// The entry at `rank`, below the number of set bits.
    fn entry(&self, rank: usize) -> &Filed {
        rank.checked_sub(1).map_or(&self.low, |r| &self.more[r])
    }

    fn entry_mut(&mut self, rank: usize) -> &mut Filed {
        match rank.checked_sub(1) {
            None => &mut self.low,
            Some(r) => &mut self.more[r],
        }
    }

    /// Files `filed` under `bit`, which is clear.
    fn insert(&mut self, bit: u64, filed: Filed) {
        match self.rank(bit).checked_sub(1) {
            None => self.more.insert(0, std::mem::replace(&mut self.low, filed)),
            Some(r) => self.more.insert(r, filed),
        }
        self.mask |= bit;
    }

    /// Drops the entry of `bit`, which is set. Whoever empties the
    /// stretch removes it.
    fn remove(&mut self, bit: u64) {
        match self.rank(bit).checked_sub(1) {
            None if self.more.is_empty() => {}
            None => self.low = self.more.remove(0),
            Some(r) => {
                self.more.remove(r);
            }
        }
        self.mask &= !bit;
        self.forget_park(bit);
    }

    /// Parks the entry of `bit`, which is set, with `entry`.
    fn park(&mut self, bit: u64, entry: u64) {
        let at = self.rank(bit);
        self.entry_mut(at).park = entry;
        self.parked |= bit;
        self.parks |= entry;
    }

    /// Unparks the entry of `bit`, which is set.
    fn unpark(&mut self, bit: u64) {
        if self.parked & bit != 0 {
            let at = self.rank(bit);
            self.entry_mut(at).park = park::UNPARKED;
            self.forget_park(bit);
        }
    }

    /// Drops `bit` from the park summary; the last park to go clears the
    /// union too.
    fn forget_park(&mut self, bit: u64) {
        self.parked &= !bit;
        if self.parked == 0 {
            self.parks = 0;
        }
    }

    fn clear_parks(&mut self) {
        if self.parked != 0 {
            self.low.park = park::UNPARKED;
            for filed in &mut self.more {
                filed.park = park::UNPARKED;
            }
            (self.parked, self.parks) = (0, 0);
        }
    }

    /// The highest counter filed here, for the stretch keyed `index`.
    fn top(&self, index: u64) -> u64 {
        index * WORD + u64::from(WORD as u32 - 1 - self.mask.leading_zeros())
    }
}

/// The stretch `version` is filed in, and its bit there, if it is filed.
fn filed_in(
    index: &mut OrdMap<(ReplicaId, u64), Stretch>,
    version: Version,
) -> Option<(&mut Stretch, u64)> {
    let (key, bit) = word_of(version.replica(), version.counter());
    let stretch = index.get_mut(&key).filter(|s| s.mask & bit != 0)?;
    Some((stretch, bit))
}

impl StoredItem {
    /// Whether this copy counts against a relay storage cap.
    fn is_live_relay(&self) -> bool {
        self.kind == StoreKind::Relay && !self.item.is_deleted()
    }
}

/// The store: all items held by one replica, with relay FIFO accounting.
///
/// Items live in *slots*: a slot keeps its number for as long as its item
/// is stored, and a vacated one is reused. Two sorted indexes map to slot
/// numbers, so finding an item by id is one binary search and walking the
/// versions costs no lookups at all: the version index files them in
/// 64-counter stretches that a sync reads a word at a time. Every
/// mutation goes through [`ItemStore::put`] / [`ItemStore::remove`],
/// which keep the indexes, the per-origin watermarks and the relay
/// accounting current.
#[derive(Clone, Debug, Default)]
pub(crate) struct ItemStore {
    slots: Vec<Option<StoredItem>>,
    /// Vacant slot numbers.
    free: Vec<usize>,
    /// Item id → slot. Its order is the order the store lists items in.
    by_id: OrdMap<ItemId, usize>,
    /// The *current* version of every stored item → slot and park, in
    /// stretches keyed `(origin, counter / 64)` like a knowledge's
    /// exception words, so sync candidate selection steps through it
    /// beside a requester's knowledge a word at a time.
    stretches: OrdMap<(ReplicaId, u64), Stretch>,
    /// The attribute the parked copies in `stretches` are filed under;
    /// `None` while nothing was parked since the last
    /// [`ItemStore::clear_parks`]. In memory only, like the parks.
    park_attr: Option<&'static str>,
    /// Per origin in `stretches`: how many stretches it has and the
    /// highest counter among them — the watermark the candidate walk
    /// holds against a requester's vector, passing over a covered
    /// origin's stretches unread.
    tops: OrdMap<ReplicaId, (usize, u64)>,
    /// Arrival order of relay items, oldest first, for FIFO eviction.
    relay_fifo: VecDeque<ItemId>,
    /// How many stored items are relay-kind and not tombstones.
    live_relays: usize,
    /// Counts writes to the store: every put, removal and in-place item
    /// write bumps it, and a written item keeps the new value as its
    /// stamp. A persistence layer that remembers the clock it last saw
    /// finds what changed since by integer compares, without this store
    /// keeping any log. Starts over with each store, so it only orders
    /// writes to this one.
    clock: u64,
}

impl ItemStore {
    pub fn new() -> Self {
        ItemStore::default()
    }

    pub fn get(&self, id: ItemId) -> Option<&StoredItem> {
        self.slots[*self.by_id.get(&id)?].as_ref()
    }

    /// Lends `id`'s item mutably without counting a write; the borrower
    /// calls [`Slot::stamp_write`] if and when it writes.
    pub fn slot(&mut self, id: ItemId) -> Option<Slot<'_>> {
        let slot = *self.by_id.get(&id)?;
        self.lend(id, slot)
    }

    /// [`ItemStore::slot`] without the search, for an `(id, slot number)`
    /// pair that [`ItemStore::versions_unknown_to_into`] reported. Slot
    /// numbers are good only until the store next changes: after that a
    /// number may be vacant or hold another item.
    pub fn lend(&mut self, id: ItemId, slot: usize) -> Option<Slot<'_>> {
        let stored = self.slots.get_mut(slot)?.as_mut()?;
        debug_assert_eq!(stored.item.id(), id, "slot number outlived a mutation");
        Some(Slot {
            item: &mut stored.item,
            stamp: &mut stored.stamp,
            clock: &mut self.clock,
            parks: self.park_attr.map(|_| &mut self.stretches),
        })
    }

    /// The current value of the write clock.
    pub fn write_clock(&self) -> u64 {
        self.clock
    }

    pub fn contains(&self, id: ItemId) -> bool {
        self.by_id.get(&id).is_some()
    }

    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Every stored item, ascending by item id.
    pub fn iter(&self) -> impl Iterator<Item = &StoredItem> {
        self.by_id
            .iter()
            .filter_map(|&(_, slot)| self.slots[slot].as_ref())
    }

    pub fn ids(&self) -> Vec<ItemId> {
        self.by_id.iter().map(|&(id, _)| id).collect()
    }

    /// Inserts or replaces an item with the given kind, maintaining relay
    /// FIFO order. A replaced item keeps its FIFO position only if it stays
    /// a relay item.
    pub fn put(&mut self, item: Item, kind: StoreKind, received_at: SimTime) {
        let id = item.id();
        let version = item.version();
        self.clock += 1;
        let stored = StoredItem {
            item,
            kind,
            received_at,
            stamp: self.clock,
        };
        self.live_relays += usize::from(stored.is_live_relay());
        let (slot, was_relay) = match self.by_id.get(&id) {
            Some(&slot) => {
                let old = self.slots[slot]
                    .replace(stored)
                    .expect("an indexed slot is occupied");
                self.live_relays -= usize::from(old.is_live_relay());
                let old_version = old.item.version();
                if old_version != version {
                    self.unindex_version(old_version);
                }
                (slot, old.kind == StoreKind::Relay)
            }
            None => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slots[slot] = Some(stored);
                        slot
                    }
                    None => {
                        self.slots.push(Some(stored));
                        self.slots.len() - 1
                    }
                };
                self.by_id.insert(id, slot);
                (slot, false)
            }
        };
        self.index_version(version, slot);
        match (was_relay, kind == StoreKind::Relay) {
            (false, true) => self.relay_fifo.push_back(id),
            (true, false) => self.remove_from_fifo(id),
            _ => {}
        }
    }

    pub fn remove(&mut self, id: ItemId) -> Option<StoredItem> {
        let slot = self.by_id.remove(&id)?;
        let stored = self.slots[slot]
            .take()
            .expect("an indexed slot is occupied");
        self.free.push(slot);
        self.clock += 1;
        if stored.kind == StoreKind::Relay {
            self.remove_from_fifo(id);
        }
        self.live_relays -= usize::from(stored.is_live_relay());
        self.unindex_version(stored.item.version());
        Some(stored)
    }

    fn index_version(&mut self, version: Version, slot: usize) {
        let (origin, counter) = (version.replica(), version.counter());
        let (key, bit) = word_of(origin, counter);
        let opened = match self.stretches.get_mut(&key) {
            Some(stretch) if stretch.mask & bit != 0 => {
                *stretch.entry_mut(stretch.rank(bit)) = Filed::new(slot);
                stretch.forget_park(bit);
                return;
            }
            Some(stretch) => {
                stretch.insert(bit, Filed::new(slot));
                false
            }
            None => {
                self.stretches
                    .insert(key, Stretch::new(bit, Filed::new(slot)));
                true
            }
        };
        match self.tops.get_mut(&origin) {
            Some((stretches, highest)) => {
                *stretches += usize::from(opened);
                *highest = counter.max(*highest);
            }
            None => {
                self.tops.insert(origin, (1, counter));
            }
        }
    }

    fn unindex_version(&mut self, version: Version) {
        let (origin, counter) = (version.replica(), version.counter());
        let (key, bit) = word_of(origin, counter);
        let Some(stretch) = self.stretches.get_mut(&key).filter(|s| s.mask & bit != 0) else {
            return;
        };
        stretch.remove(bit);
        let top = (stretch.mask != 0).then(|| stretch.top(key.1));
        let (stretches, highest) = self
            .tops
            .get_mut(&origin)
            .expect("an indexed origin is counted");
        if top.is_none() {
            self.stretches.remove(&key);
            *stretches -= 1;
            if *stretches == 0 {
                self.tops.remove(&origin);
                return;
            }
        }
        if *highest == counter {
            // The stretch that lost the origin's highest counter was its
            // last; if it emptied, the origin's next one down is.
            *highest = top.unwrap_or_else(|| {
                let ((_, index), below) = self.stretches.below(&key).expect("stretches > 0");
                below.top(*index)
            });
        }
    }

    /// Fills `out` (cleared first, capacity reused) with the id and slot
    /// number of every stored item whose version `knowledge` has not
    /// learned, except parked copies outside the `wanted` set (see
    /// [`crate::park`]), which it only counts: the count is returned.
    /// The walk steps origin by origin through `tops`: an origin whose
    /// highest stored counter the knowledge's vector covers is passed
    /// over unread, so the steady state between converged peers costs a
    /// step per origin. Any other origin's stretches are read beside the
    /// knowledge's vector entry and exception words, which ascend by the
    /// same keys: a stretch's unknown versions are its mask less the bits
    /// at or below the prefix and those of the matching exception word,
    /// three word operations however many versions it holds. When the
    /// wanted set misses the stretch's park summary, its parked unknowns
    /// are counted and dropped in one more; only the bits left are
    /// visited — a park `AND` each, and a slot for the wanted ones. Pairs
    /// come out ascending by id — exactly the order a full scan of the
    /// store produces, so callers observe identical candidate sequences —
    /// and the slot numbers are for [`ItemStore::lend`], until the store
    /// next changes.
    pub fn versions_unknown_to_into(
        &self,
        knowledge: &Knowledge,
        wanted: u64,
        out: &mut Vec<(ItemId, usize)>,
    ) -> usize {
        out.clear();
        let mut passed = 0;
        let mut prefixes = knowledge.prefix_cursor();
        let mut exceptions = knowledge.exception_words();
        let mut index = self.stretches.iter();
        for &(origin, (stretches, highest)) in self.tops.iter() {
            let base = prefixes.seek(&origin).copied().unwrap_or(0);
            if highest <= base {
                continue;
            }
            index.seek(&(origin, 0));
            for (key, stretch) in index.by_ref().take(stretches) {
                let mut unknown = stretch.mask & !at_or_below(key.1, base);
                if unknown != 0 {
                    unknown &= !exceptions.seek(key).copied().unwrap_or(0);
                }
                let parked = unknown & stretch.parked;
                if parked != 0 && stretch.parks & wanted == 0 {
                    passed += parked.count_ones() as usize;
                    unknown ^= parked;
                }
                while unknown != 0 {
                    let bit = unknown & unknown.wrapping_neg();
                    unknown ^= bit;
                    let filed = *stretch.entry(stretch.rank(bit));
                    if filed.park & wanted == 0 {
                        passed += 1;
                    } else if let Some(stored) = &self.slots[filed.slot] {
                        out.push((stored.item.id(), filed.slot));
                    }
                }
            }
        }
        out.sort_unstable();
        passed
    }

    /// Parks the copy stored under `version`, filed under `attr` with the
    /// park entry [`park::entry_of`] gave it: candidate walks pass over it
    /// until it is written, removed or wanted. Parks filed under another
    /// attribute are dropped first.
    pub fn park(&mut self, version: Version, attr: &'static str, entry: u64) {
        if self.park_attr != Some(attr) {
            self.clear_parks();
            self.park_attr = Some(attr);
        }
        if let Some((stretch, bit)) = filed_in(&mut self.stretches, version) {
            stretch.park(bit, entry);
        }
    }

    /// Unparks every copy.
    pub fn clear_parks(&mut self) {
        if self.park_attr.take().is_some() {
            for stretch in self.stretches.values_mut() {
                stretch.clear_parks();
            }
        }
    }

    /// The attribute parked copies are filed under, while any may be.
    pub fn park_attr(&self) -> Option<&'static str> {
        self.park_attr
    }

    fn remove_from_fifo(&mut self, id: ItemId) {
        if let Some(pos) = self.relay_fifo.iter().position(|&x| x == id) {
            self.relay_fifo.remove(pos);
        }
    }

    /// Number of evictable relay messages: relay-kind, non-tombstone.
    pub fn relay_load(&self) -> usize {
        self.live_relays
    }

    /// Evicts and returns the oldest non-tombstone relay item, if any.
    pub fn evict_oldest_relay(&mut self) -> Option<StoredItem> {
        let victim = self
            .relay_fifo
            .iter()
            .copied()
            .find(|&id| self.get(id).is_some_and(|s| !s.item.is_deleted()))?;
        self.remove(victim)
    }

    /// The relay FIFO order, oldest first (snapshot support).
    pub fn relay_fifo(&self) -> impl ExactSizeIterator<Item = ItemId> + '_ {
        self.relay_fifo.iter().copied()
    }

    /// Rebuilds a store from snapshot parts. Relay items listed in
    /// `relay_fifo` keep that eviction order; relay items missing from the
    /// list (corrupt snapshots) follow in the order `items` gave them.
    pub fn from_parts(items: Vec<(Item, StoreKind, SimTime)>, relay_fifo: Vec<ItemId>) -> Self {
        let mut store = ItemStore::new();
        for (item, kind, received_at) in items {
            store.put(item, kind, received_at);
        }
        // Where the snapshot listed each id (the first time, if a corrupt
        // one repeats it); the sort is stable, so the unlisted keep the
        // order they were put in.
        let mut listed = HashMap::with_capacity(relay_fifo.len());
        for (position, id) in relay_fifo.into_iter().enumerate() {
            listed.entry(id).or_insert(position);
        }
        store
            .relay_fifo
            .make_contiguous()
            .sort_by_key(|id| listed.get(id).copied().unwrap_or(usize::MAX));
        store
    }

    /// Re-derives every stored item's kind after a filter change.
    pub fn reclassify(&mut self, own_id: ReplicaId, filter: &Filter) {
        for id in self.ids() {
            let stored = self.get(id).expect("id just listed");
            let new_kind = classify(&stored.item, own_id, filter);
            if new_kind != stored.kind {
                // put() fixes FIFO membership on kind transitions.
                let stored = self.remove(id).expect("id just listed");
                self.put(stored.item, new_kind, stored.received_at);
            }
        }
    }
}

/// Determines how a replica should hold `item`.
pub(crate) fn classify(item: &Item, own_id: ReplicaId, filter: &Filter) -> StoreKind {
    if filter.matches(item) {
        StoreKind::InFilter
    } else if item.id().origin() == own_id {
        StoreKind::PushOut
    } else {
        StoreKind::Relay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Version;

    fn rid(n: u64) -> ReplicaId {
        ReplicaId::new(n)
    }

    fn item(origin: u64, seq: u64, dest: &str) -> Item {
        Item::builder(
            ItemId::new(rid(origin), seq),
            Version::new(rid(origin), seq),
        )
        .attr("dest", dest)
        .build()
    }

    #[test]
    fn classify_covers_all_kinds() {
        let me = rid(1);
        let f = Filter::address("dest", "me");
        assert_eq!(classify(&item(2, 1, "me"), me, &f), StoreKind::InFilter);
        assert_eq!(classify(&item(1, 1, "other"), me, &f), StoreKind::PushOut);
        assert_eq!(classify(&item(2, 1, "other"), me, &f), StoreKind::Relay);
    }

    #[test]
    fn relay_fifo_orders_by_arrival() {
        let mut s = ItemStore::new();
        s.put(item(2, 1, "x"), StoreKind::Relay, SimTime::from_secs(1));
        s.put(item(3, 1, "x"), StoreKind::Relay, SimTime::from_secs(2));
        s.put(item(4, 1, "x"), StoreKind::Relay, SimTime::from_secs(3));
        assert_eq!(s.relay_load(), 3);
        let victim = s.evict_oldest_relay().expect("one to evict");
        assert_eq!(victim.item.id().origin(), rid(2), "oldest goes first");
        assert_eq!(s.relay_load(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn tombstones_do_not_count_or_evict() {
        let mut s = ItemStore::new();
        let dead = Item::builder(ItemId::new(rid(2), 1), Version::new(rid(2), 1))
            .deleted(true)
            .build();
        s.put(dead, StoreKind::Relay, SimTime::ZERO);
        assert_eq!(s.relay_load(), 0);
        assert!(s.evict_oldest_relay().is_none());
        s.put(item(3, 1, "x"), StoreKind::Relay, SimTime::ZERO);
        let victim = s.evict_oldest_relay().expect("live item evictable");
        assert_eq!(victim.item.id().origin(), rid(3));
    }

    #[test]
    fn replacing_relay_item_keeps_fifo_position() {
        let mut s = ItemStore::new();
        s.put(item(2, 1, "x"), StoreKind::Relay, SimTime::ZERO);
        s.put(item(3, 1, "x"), StoreKind::Relay, SimTime::ZERO);
        // Replace the first item (new version, still relay).
        s.put(item(2, 1, "y"), StoreKind::Relay, SimTime::ZERO);
        let victim = s.evict_oldest_relay().expect("evictable");
        assert_eq!(victim.item.id().origin(), rid(2), "kept original position");
    }

    #[test]
    fn kind_transition_updates_fifo() {
        let mut s = ItemStore::new();
        s.put(item(2, 1, "me"), StoreKind::Relay, SimTime::ZERO);
        assert_eq!(s.relay_load(), 1);
        s.put(item(2, 1, "me"), StoreKind::InFilter, SimTime::ZERO);
        assert_eq!(s.relay_load(), 0);
        assert!(s.evict_oldest_relay().is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn reclassify_after_filter_change() {
        let me = rid(1);
        let mut s = ItemStore::new();
        s.put(item(2, 1, "me"), StoreKind::InFilter, SimTime::ZERO);
        s.put(item(2, 2, "you"), StoreKind::Relay, SimTime::ZERO);
        // Widen the filter to cover "you" as well.
        let f = Filter::any_address("dest", ["me", "you"]);
        s.reclassify(me, &f);
        assert!(s.iter().all(|st| st.kind == StoreKind::InFilter));
        assert_eq!(s.relay_load(), 0);
    }

    #[test]
    fn the_write_clock_counts_writes_not_loans() {
        let mut s = ItemStore::new();
        let (a, b) = (ItemId::new(rid(2), 1), ItemId::new(rid(3), 1));
        s.put(item(2, 1, "x"), StoreKind::Relay, SimTime::ZERO);
        s.put(item(3, 1, "x"), StoreKind::Relay, SimTime::ZERO);
        assert_eq!(s.write_clock(), 2);
        assert_eq!((s.get(a).unwrap().stamp, s.get(b).unwrap().stamp), (1, 2));

        // Lending an item mutably is not a write ...
        let slot = s.slot(a).expect("stored");
        assert_eq!(slot.item.id(), a);
        assert_eq!(s.write_clock(), 2);
        // ... until the borrower says it wrote.
        let mut slot = s.slot(a).expect("stored");
        slot.stamp_write();
        slot.item.transient_mut().set("ttl", 3i64);
        assert_eq!(s.write_clock(), 3);
        assert_eq!((s.get(a).unwrap().stamp, s.get(b).unwrap().stamp), (3, 2));

        // A removal leaves no item to stamp but still moves the clock.
        s.remove(b);
        assert_eq!(s.write_clock(), 4);
        assert!(s.remove(b).is_none());
        assert_eq!(s.write_clock(), 4, "removing nothing writes nothing");
        assert!(s.slot(b).is_none());
    }

    #[test]
    fn remove_missing_returns_none() {
        let mut s = ItemStore::new();
        assert!(s.remove(ItemId::new(rid(9), 9)).is_none());
    }

    /// Both indexes must mirror the slots exactly: one entry each per
    /// stored item, under its id and its current version, and every
    /// other slot on the free list. No stretch is empty, each has an
    /// entry per set bit, its park mask sets exactly the bits of its
    /// parked entries and its park union covers their entries, and each
    /// origin's watermark counts its stretches and ends at the top bit of
    /// its last one.
    fn assert_indexes_mirror_slots(s: &ItemStore) {
        let occupied = s.slots.iter().flatten().count();
        assert_eq!(s.by_id.len(), occupied, "id index entry count drifted");
        for &(key, ref stretch) in s.stretches.iter() {
            assert_ne!(stretch.mask, 0, "stretch {key:?} is empty");
            assert_eq!(
                stretch.mask.count_ones() as usize,
                1 + stretch.more.len(),
                "stretch {key:?} files an entry per bit"
            );
            let (mut parked, mut parks) = (0, 0);
            let mut bits = stretch.mask;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let entry = stretch.entry(stretch.rank(bit)).park;
                if entry != park::UNPARKED {
                    (parked, parks) = (parked | bit, parks | entry);
                }
            }
            assert_eq!(stretch.parked, parked, "stretch {key:?}'s park mask");
            assert_eq!(
                stretch.parks & parks,
                parks,
                "stretch {key:?}'s park union misses a parked entry"
            );
            if parked == 0 {
                assert_eq!(stretch.parks, 0, "stretch {key:?} parks nothing");
            }
        }
        let filed: usize = s.stretches.iter().map(|(_, st)| 1 + st.more.len()).sum();
        assert_eq!(filed, occupied, "version index drifted");
        assert_eq!(s.free.len(), s.slots.len() - occupied);
        assert!(s.free.iter().all(|&slot| s.slots[slot].is_none()));
        let mut index = s.stretches.clone();
        for (slot, stored) in s.slots.iter().enumerate() {
            let Some(stored) = stored else { continue };
            let (id, v) = (stored.item.id(), stored.item.version());
            assert_eq!(s.by_id.get(&id), Some(&slot), "item {id} misfiled");
            assert_eq!(
                filed_in(&mut index, v).map(|(st, bit)| st.entry(st.rank(bit)).slot),
                Some(slot),
                "item {id} missing from the version index under {v}"
            );
        }
        let mut tops: Vec<(ReplicaId, (usize, u64))> = Vec::new();
        for &((origin, index), ref stretch) in s.stretches.iter() {
            let top = stretch.top(index);
            assert_eq!(top % WORD, 63 - u64::from(stretch.mask.leading_zeros()));
            match tops.last_mut() {
                Some((o, (count, highest))) if *o == origin => {
                    (*count, *highest) = (*count + 1, top)
                }
                _ => tops.push((origin, (1, top))),
            }
        }
        assert!(s.tops.iter().eq(tops.iter()), "watermarks drifted");
        let live = s.iter().filter(|stored| stored.is_live_relay()).count();
        assert_eq!(s.relay_load(), live, "live relay count drifted");
    }

    #[test]
    fn indexes_track_put_replace_remove() {
        let mut s = ItemStore::new();
        s.put(item(2, 1, "x"), StoreKind::Relay, SimTime::ZERO);
        s.put(item(3, 1, "x"), StoreKind::InFilter, SimTime::ZERO);
        assert_indexes_mirror_slots(&s);

        // Replace id (2,1) with a newer version written by replica 5.
        let newer = Item::builder(ItemId::new(rid(2), 1), Version::new(rid(5), 9))
            .attr("dest", "x")
            .build();
        s.put(newer, StoreKind::Relay, SimTime::ZERO);
        assert_indexes_mirror_slots(&s);
        assert!(
            s.stretches.iter().all(|&((origin, _), _)| origin != rid(2)),
            "replaced version must leave the index"
        );

        s.remove(ItemId::new(rid(3), 1));
        assert_indexes_mirror_slots(&s);
        s.remove(ItemId::new(rid(2), 1));
        assert_indexes_mirror_slots(&s);
        assert!(s.stretches.is_empty() && s.tops.is_empty());
    }

    #[test]
    fn removing_the_highest_version_alone_in_its_stretch_lowers_the_watermark() {
        let mut s = ItemStore::new();
        for (origin, seq) in [(2, 5), (2, 63), (2, 64), (2, 130), (3, 1)] {
            s.put(item(origin, seq, "x"), StoreKind::Relay, SimTime::ZERO);
        }
        assert_eq!(s.tops.get(&rid(2)), Some(&(3, 130)));
        // 130 is alone in stretch 2: the watermark falls to 64, the top of
        // stretch 1, and the emptied stretch is gone.
        s.remove(ItemId::new(rid(2), 130));
        assert_indexes_mirror_slots(&s);
        assert_eq!(s.tops.get(&rid(2)), Some(&(2, 64)));
        // Likewise 64, alone in stretch 1: down to 63, across the boundary.
        s.remove(ItemId::new(rid(2), 64));
        assert_indexes_mirror_slots(&s);
        assert_eq!(s.tops.get(&rid(2)), Some(&(1, 63)));
        // 63 shares its stretch with 5, which becomes the top.
        s.remove(ItemId::new(rid(2), 63));
        assert_indexes_mirror_slots(&s);
        assert_eq!(s.tops.get(&rid(2)), Some(&(1, 5)));
        s.remove(ItemId::new(rid(2), 5));
        assert_indexes_mirror_slots(&s);
        assert_eq!(s.tops.get(&rid(2)), None);
        assert_eq!(
            s.tops.get(&rid(3)),
            Some(&(1, 1)),
            "other origins untouched"
        );

        let mut unknown = Vec::new();
        s.versions_unknown_to_into(&Knowledge::new(), park::EVERY, &mut unknown);
        assert_eq!(unknown.len(), 1);
    }

    #[test]
    fn versions_unknown_to_walks_suffixes() {
        let mut s = ItemStore::new();
        for seq in 1..=4 {
            s.put(item(2, seq, "x"), StoreKind::InFilter, SimTime::ZERO);
        }
        s.put(item(3, 1, "x"), StoreKind::InFilter, SimTime::ZERO);

        let mut k = Knowledge::new();
        k.insert_prefix(rid(2), 2); // knows 2@1..2
        k.insert(Version::new(rid(2), 4)); // and the exception 2@4
        let mut unknown = Vec::new();
        assert_eq!(s.versions_unknown_to_into(&k, park::EVERY, &mut unknown), 0);
        let ids: Vec<ItemId> = unknown.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![ItemId::new(rid(2), 3), ItemId::new(rid(3), 1)]);
        for (id, slot) in unknown {
            assert_eq!(s.lend(id, slot).expect("reported").item.id(), id);
        }
    }

    #[test]
    fn a_stretch_of_unwanted_parks_passes_whole_and_a_wanted_one_is_picked_out() {
        let mut s = ItemStore::new();
        let dests = ["a", "b", "c", "b"];
        for (seq, dest) in (1..).zip(dests) {
            s.put(item(2, seq, dest), StoreKind::Relay, SimTime::ZERO);
            let entry = park::entry_of(&item(2, seq, dest), "dest");
            s.park(Version::new(rid(2), seq), "dest", entry);
        }
        s.put(item(2, 5, "a"), StoreKind::Relay, SimTime::ZERO);
        assert_indexes_mirror_slots(&s);
        let mut keys = park::ParkKeys::default();
        keys.file_under("dest");
        let want = |addr| park::wanted(&Filter::address("dest", addr), "dest", &keys);
        let walk = |s: &ItemStore, wanted| {
            let mut out = Vec::new();
            let passed = s.versions_unknown_to_into(&Knowledge::new(), wanted, &mut out);
            let seqs: Vec<u64> = out.iter().map(|&(id, _)| id.seq()).collect();
            (passed, seqs)
        };
        let bits: std::collections::BTreeSet<u64> = ["a", "b", "c"]
            .into_iter()
            .map(|dest| park::entry_of(&item(2, 1, dest), "dest"))
            .collect();
        assert_eq!(bits.len(), 3, "the test needs distinct signature bits");
        // The unparked copy 5 is always judged; of the parks, only those
        // sharing a bit with the wanted address are.
        assert_eq!(walk(&s, want("a")), (3, vec![1, 5]));
        assert_eq!(walk(&s, want("b")), (2, vec![2, 4, 5]));
        assert_eq!(walk(&s, park::UNPARKED), (4, vec![5]));

        // Unparking 1 by a write leaves its bit in the union: the stretch
        // is read entry by entry, and passes the same copies.
        let mut slot = s.slot(ItemId::new(rid(2), 1)).expect("stored");
        slot.stamp_write();
        assert_indexes_mirror_slots(&s);
        assert_eq!(walk(&s, want("a")), (3, vec![1, 5]));
        // Removing a parked copy drops its bit from the mask.
        s.remove(ItemId::new(rid(2), 2));
        assert_indexes_mirror_slots(&s);
        assert_eq!(walk(&s, park::UNPARKED), (2, vec![1, 5]));
        // A replaced version is unparked.
        s.put(item(2, 3, "c"), StoreKind::Relay, SimTime::ZERO);
        assert_indexes_mirror_slots(&s);
        assert_eq!(walk(&s, park::UNPARKED), (1, vec![1, 3, 5]));
        s.clear_parks();
        assert_indexes_mirror_slots(&s);
        assert_eq!(walk(&s, park::UNPARKED), (0, vec![1, 3, 4, 5]));
    }

    #[test]
    fn from_parts_orders_the_fifo_by_the_snapshot_list() {
        let relay = |origin| (item(origin, 1, "x"), StoreKind::Relay, SimTime::ZERO);
        let id = |origin| ItemId::new(rid(origin), 1);
        let items = vec![
            relay(2),
            relay(3),
            (item(4, 1, "x"), StoreKind::InFilter, SimTime::ZERO),
            relay(5),
            relay(6),
        ];
        // Listed newest-first, one id twice, one not stored, one stored
        // but not a relay; relays 3 and 6 are not listed at all.
        let listed = vec![id(5), id(2), id(5), id(9), id(4)];
        let s = ItemStore::from_parts(items, listed);
        assert_eq!(
            s.relay_fifo().collect::<Vec<_>>(),
            vec![id(5), id(2), id(3), id(6)],
            "listed relays in list order, each once; the rest in item order"
        );
        assert_indexes_mirror_slots(&s);
    }

    #[test]
    fn two_items_claiming_one_version_leave_a_usable_store() {
        // Only a corrupt snapshot can do this; the later item takes the
        // version index entry and nothing panics on the way out.
        let twin = Item::builder(ItemId::new(rid(3), 1), Version::new(rid(2), 1)).build();
        let items = vec![
            (item(2, 1, "x"), StoreKind::Relay, SimTime::ZERO),
            (twin, StoreKind::Relay, SimTime::ZERO),
        ];
        let mut s = ItemStore::from_parts(items, Vec::new());
        let mut unknown = Vec::new();
        s.versions_unknown_to_into(&Knowledge::new(), park::EVERY, &mut unknown);
        assert_eq!(unknown.len(), 1);
        assert!(s.remove(ItemId::new(rid(2), 1)).is_some());
        assert!(s.remove(ItemId::new(rid(3), 1)).is_some());
        assert_indexes_mirror_slots(&s);
    }

    mod model {
        //! The store against a plain model, under random scripts.

        use std::collections::BTreeMap;

        use proptest::prelude::*;

        use super::*;

        #[derive(Clone, Debug)]
        enum Op {
            /// Store item `id` with a fresh version (a new item, or a
            /// version-changing replace), of this kind.
            Put {
                id: u8,
                kind: u8,
                dest: u8,
                deleted: bool,
            },
            /// Store `id`'s current copy again under another kind.
            Rekind {
                id: u8,
                kind: u8,
            },
            Remove {
                id: u8,
            },
            Evict,
            Reclassify {
                dest: u8,
            },
            /// Tear the store down to parts and rebuild it, the FIFO list
            /// rotated by this much and its first id repeated.
            Rebuild {
                rotate: u8,
            },
            /// Park `id`'s copy, filed under its destination.
            Park {
                id: u8,
            },
            /// Write `id`'s copy in place through a lent slot.
            Stamp {
                id: u8,
            },
            /// Unpark every copy.
            ClearParks,
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            let op = prop_oneof![
                (0u8..12, 0u8..3, 0u8..3, any::<bool>()).prop_map(|(id, kind, dest, deleted)| {
                    Op::Put {
                        id,
                        kind,
                        dest,
                        deleted,
                    }
                }),
                (0u8..12, 0u8..3, 0u8..3, any::<bool>()).prop_map(|(id, kind, dest, deleted)| {
                    Op::Put {
                        id,
                        kind,
                        dest,
                        deleted,
                    }
                }),
                (0u8..12, 0u8..3).prop_map(|(id, kind)| Op::Rekind { id, kind }),
                (0u8..12).prop_map(|id| Op::Remove { id }),
                Just(Op::Evict),
                (0u8..3).prop_map(|dest| Op::Reclassify { dest }),
                (0u8..8).prop_map(|rotate| Op::Rebuild { rotate }),
                (0u8..12).prop_map(|id| Op::Park { id }),
                (0u8..12).prop_map(|id| Op::Park { id }),
                (0u8..12).prop_map(|id| Op::Park { id }),
                (0u8..12).prop_map(|id| Op::Stamp { id }),
                Just(Op::ClearParks),
            ];
            proptest::collection::vec(op, 0..80)
        }

        const KINDS: [StoreKind; 3] = [StoreKind::InFilter, StoreKind::PushOut, StoreKind::Relay];
        const DESTS: [&str; 3] = ["a", "b", "c"];
        const OWN: u64 = 1;

        fn item_id(n: u8) -> ItemId {
            ItemId::new(rid(1 + u64::from(n % 3)), 1 + u64::from(n / 3))
        }

        /// What the model keeps per item.
        #[derive(Clone, Debug, PartialEq)]
        struct Held {
            item: Item,
            kind: StoreKind,
        }

        #[derive(Default)]
        struct Model {
            items: BTreeMap<ItemId, Held>,
            fifo: VecDeque<ItemId>,
            clock: u64,
            /// Parked copies: every write and removal unparks.
            parked: std::collections::BTreeSet<ItemId>,
        }

        impl Model {
            fn put(&mut self, item: Item, kind: StoreKind) {
                let id = item.id();
                let was_relay = self
                    .items
                    .get(&id)
                    .is_some_and(|h| h.kind == StoreKind::Relay);
                match (was_relay, kind == StoreKind::Relay) {
                    (false, true) => self.fifo.push_back(id),
                    (true, false) => self.fifo.retain(|&x| x != id),
                    _ => {}
                }
                self.items.insert(id, Held { item, kind });
                self.parked.remove(&id);
                self.clock += 1;
            }

            fn remove(&mut self, id: ItemId) -> bool {
                let gone = self.items.remove(&id).is_some();
                self.parked.remove(&id);
                if gone {
                    self.fifo.retain(|&x| x != id);
                    self.clock += 1;
                }
                gone
            }

            fn live_relays(&self) -> usize {
                self.items
                    .values()
                    .filter(|h| h.kind == StoreKind::Relay && !h.item.is_deleted())
                    .count()
            }
        }

        fn assert_matches(s: &mut ItemStore, m: &Model) {
            assert_indexes_mirror_slots(s);
            assert_eq!(s.len(), m.items.len());
            assert_eq!(s.ids(), m.items.keys().copied().collect::<Vec<_>>());
            let held: Vec<Held> = s
                .iter()
                .map(|st| Held {
                    item: st.item.clone(),
                    kind: st.kind,
                })
                .collect();
            assert_eq!(held, m.items.values().cloned().collect::<Vec<_>>());
            assert_eq!(
                s.relay_fifo().collect::<VecDeque<_>>(),
                m.fifo,
                "FIFO order"
            );
            assert_eq!(s.relay_load(), m.live_relays());
            assert_eq!(s.write_clock(), m.clock);

            // The walk ≡ the scan, for a knowledge that knows some stored
            // versions by prefix, some as exceptions and some not at all;
            // and every pair it reports lends exactly that item.
            let mut k = Knowledge::new();
            for (n, held) in m.items.values().enumerate() {
                let v = held.item.version();
                match n % 3 {
                    0 => k.insert(v),
                    1 if v.counter() % 2 == 0 => k.insert_prefix(v.replica(), v.counter()),
                    _ => {}
                }
            }
            let mut walked = Vec::new();
            assert_eq!(s.versions_unknown_to_into(&k, park::EVERY, &mut walked), 0);
            let scanned: Vec<ItemId> = m
                .items
                .values()
                .filter(|h| !k.contains(h.item.version()))
                .map(|h| h.item.id())
                .collect();
            assert_eq!(
                walked.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                scanned
            );
            // Wanting nothing passes over exactly the parked unknowns;
            // wanting one destination judges its parked copies again.
            let mut unparked = Vec::new();
            let passed = s.versions_unknown_to_into(&k, park::UNPARKED, &mut unparked);
            let parked_unknown = scanned.iter().filter(|id| m.parked.contains(id)).count();
            assert_eq!(passed, parked_unknown);
            assert_eq!(
                unparked.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                scanned
                    .iter()
                    .copied()
                    .filter(|id| !m.parked.contains(id))
                    .collect::<Vec<_>>()
            );
            // Wanting one destination judges its parked copies again, and
            // passes the rest, whatever their stretch neighbours are
            // addressed to.
            let mut keys = park::ParkKeys::default();
            keys.file_under("dest");
            let wanted = park::wanted(&Filter::address("dest", DESTS[0]), "dest", &keys);
            let mut judged = Vec::new();
            let passed = s.versions_unknown_to_into(&k, wanted, &mut judged);
            let judged: Vec<ItemId> = judged.iter().map(|&(id, _)| id).collect();
            for id in scanned.iter().filter(|id| m.parked.contains(id)) {
                let to_first = m.items[id].item.attrs().get_str("dest") == Some(DESTS[0]);
                assert!(
                    !to_first || judged.contains(id),
                    "{id} is addressed to the filter yet passed over"
                );
            }
            let (passed_over, kept): (Vec<ItemId>, Vec<ItemId>) =
                scanned.iter().copied().partition(|id| {
                    m.parked.contains(id) && park::entry_of(&m.items[id].item, "dest") & wanted == 0
                });
            assert_eq!(passed, passed_over.len(), "parked copies passed over");
            assert_eq!(judged, kept, "copies judged under one wanted address");
            for (id, slot) in walked {
                assert_eq!(s.lend(id, slot).expect("just reported").item.id(), id);
            }
        }

        proptest! {
            #[test]
            fn the_store_matches_its_model(ops in arb_ops()) {
                let (mut s, mut m) = (ItemStore::new(), Model::default());
                let mut versions = 0u64;
                // Mostly consecutive counters, with jumps that open and
                // skip stretches.
                let mut fresh = |id: u8, dest: u8, deleted: bool| {
                    versions += if id.is_multiple_of(4) { 30 } else { 1 };
                    Item::builder(item_id(id), Version::new(rid(1 + versions % 4), versions))
                        .attr("dest", DESTS[usize::from(dest)])
                        .deleted(deleted)
                        .build()
                };
                for op in ops {
                    match op {
                        Op::Put { id, kind, dest, deleted } => {
                            let (item, kind) = (fresh(id, dest, deleted), KINDS[usize::from(kind)]);
                            s.put(item.clone(), kind, SimTime::ZERO);
                            m.put(item, kind);
                        }
                        Op::Rekind { id, kind } => {
                            let Some(held) = m.items.get(&item_id(id)).cloned() else { continue };
                            let kind = KINDS[usize::from(kind)];
                            s.put(held.item.clone(), kind, SimTime::ZERO);
                            m.put(held.item, kind);
                        }
                        Op::Remove { id } => {
                            let id = item_id(id);
                            prop_assert_eq!(s.remove(id).is_some(), m.remove(id));
                            prop_assert!(s.slot(id).is_none() && s.get(id).is_none());
                        }
                        Op::Evict => {
                            let victim = m.fifo.iter().copied()
                                .find(|id| !m.items[id].item.is_deleted());
                            prop_assert_eq!(s.evict_oldest_relay().map(|st| st.item.id()), victim);
                            if let Some(id) = victim {
                                m.remove(id);
                            }
                        }
                        Op::Reclassify { dest } => {
                            let filter = Filter::address("dest", DESTS[usize::from(dest)]);
                            s.reclassify(rid(OWN), &filter);
                            for id in m.items.keys().copied().collect::<Vec<_>>() {
                                let held = m.items[&id].clone();
                                let kind = classify(&held.item, rid(OWN), &filter);
                                if kind != held.kind {
                                    m.remove(id);
                                    m.put(held.item, kind);
                                }
                            }
                        }
                        Op::Rebuild { rotate } => {
                            let items = s.iter()
                                .map(|st| (st.item.clone(), st.kind, st.received_at))
                                .collect();
                            // Rotating the list reorders the FIFO; the
                            // repeat and the stranger must change nothing.
                            m.fifo.rotate_left(usize::from(rotate) % m.fifo.len().max(1));
                            let mut listed: Vec<ItemId> = m.fifo.iter().copied().collect();
                            listed.extend(listed.first().copied());
                            listed.push(ItemId::new(rid(99), 99));
                            s = ItemStore::from_parts(items, listed);
                            m.clock = m.items.len() as u64;
                            m.parked.clear();
                        }
                        Op::Park { id } => {
                            let Some(held) = m.items.get(&item_id(id)) else { continue };
                            let entry = park::entry_of(&held.item, "dest");
                            s.park(held.item.version(), "dest", entry);
                            m.parked.insert(held.item.id());
                        }
                        Op::Stamp { id } => {
                            let id = item_id(id);
                            let Some(mut slot) = s.slot(id) else { continue };
                            slot.stamp_write();
                            m.clock += 1;
                            m.parked.remove(&id);
                        }
                        Op::ClearParks => {
                            s.clear_parks();
                            m.parked.clear();
                        }
                    }
                    assert_matches(&mut s, &m);
                }
            }
        }
    }
}
