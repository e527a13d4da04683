//! The per-replica item store, including the push-out and relay stores.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::filter::Filter;
use crate::id::{ItemId, ReplicaId, Version};
use crate::item::Item;
use crate::knowledge::Knowledge;
use crate::time::SimTime;

/// Why a replica is holding an item.
///
/// The paper's Cimbiosys stores items matching the replica's filter plus a
/// *push-out store* of locally-created out-of-filter items awaiting
/// propagation (§IV-C); the DTN extension adds a third category, foreign
/// items accepted for *relay* by a routing policy. Storage constraints
/// (paper §VI-D) apply only to the relay category — "excluding messages for
/// which the node itself is the sender or the destination".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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

/// Policy for what eviction does to a replica's knowledge.
///
/// The substrate's knowledge permanently records every received version, so
/// after an eviction the default behaviour is that the same version is
/// never accepted again (`RetainKnowledge`) — the evicting node simply
/// stops participating in that message's dissemination, and other copies
/// carry it. This matches the replication semantics; the alternative of
/// forgetting would re-open the node as a relay at the cost of repeated
/// transmissions, and is not offered because it would break at-most-once
/// delivery accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EvictionMode {
    /// Keep the evicted version in knowledge (never re-receive it).
    #[default]
    RetainKnowledge,
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
/// stamp (see [`ItemStore::slot`]).
pub(crate) struct Slot<'a> {
    pub item: &'a mut Item,
    stamp: &'a mut u64,
    clock: &'a mut u64,
}

impl Slot<'_> {
    /// Records that the lent item is about to be written.
    pub fn stamp_write(&mut self) {
        *self.clock += 1;
        *self.stamp = *self.clock;
    }
}

/// The store: all items held by one replica, with relay FIFO accounting.
#[derive(Clone, Debug, Default)]
pub(crate) struct ItemStore {
    items: BTreeMap<ItemId, StoredItem>,
    /// Arrival order of relay items, oldest first, for FIFO eviction.
    relay_fifo: VecDeque<ItemId>,
    /// Version index: origin replica → (version counter → holding item).
    /// Mirrors the *current* version of every stored item so sync candidate
    /// selection can walk only the suffix of each origin's counters beyond
    /// a requester's knowledge vector instead of scanning the whole store.
    /// Maintained by [`ItemStore::put`] / [`ItemStore::remove`], which every
    /// mutation path funnels through.
    version_index: BTreeMap<ReplicaId, BTreeMap<u64, ItemId>>,
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
        self.items.get(&id)
    }

    /// Lends `id`'s item mutably without counting a write; the borrower
    /// calls [`Slot::stamp_write`] if and when it writes.
    pub fn slot(&mut self, id: ItemId) -> Option<Slot<'_>> {
        let stored = self.items.get_mut(&id)?;
        Some(Slot {
            item: &mut stored.item,
            stamp: &mut stored.stamp,
            clock: &mut self.clock,
        })
    }

    /// The current value of the write clock.
    pub fn write_clock(&self) -> u64 {
        self.clock
    }

    pub fn contains(&self, id: ItemId) -> bool {
        self.items.contains_key(&id)
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &StoredItem> {
        self.items.values()
    }

    pub fn ids(&self) -> Vec<ItemId> {
        self.items.keys().copied().collect()
    }

    /// Inserts or replaces an item with the given kind, maintaining relay
    /// FIFO order. A replaced item keeps its FIFO position only if it stays
    /// a relay item.
    pub fn put(&mut self, item: Item, kind: StoreKind, received_at: SimTime) {
        let id = item.id();
        let version = item.version();
        let was_relay = self
            .items
            .get(&id)
            .map(|s| s.kind == StoreKind::Relay)
            .unwrap_or(false);
        match (was_relay, kind == StoreKind::Relay) {
            (false, true) => self.relay_fifo.push_back(id),
            (true, false) => self.remove_from_fifo(id),
            _ => {}
        }
        self.clock += 1;
        let replaced = self.items.insert(
            id,
            StoredItem {
                item,
                kind,
                received_at,
                stamp: self.clock,
            },
        );
        if let Some(old) = replaced {
            let old_version = old.item.version();
            if old_version != version {
                self.unindex_version(old_version);
            }
        }
        self.version_index
            .entry(version.replica())
            .or_default()
            .insert(version.counter(), id);
    }

    pub fn remove(&mut self, id: ItemId) -> Option<StoredItem> {
        let removed = self.items.remove(&id);
        if let Some(stored) = &removed {
            self.clock += 1;
            if stored.kind == StoreKind::Relay {
                self.remove_from_fifo(id);
            }
            self.unindex_version(stored.item.version());
        }
        removed
    }

    fn unindex_version(&mut self, version: Version) {
        if let Some(by_counter) = self.version_index.get_mut(&version.replica()) {
            by_counter.remove(&version.counter());
            if by_counter.is_empty() {
                self.version_index.remove(&version.replica());
            }
        }
    }

    /// Fills `ids` (cleared first, capacity reused) with the ids of stored
    /// items whose versions `knowledge` has not learned, answered from the
    /// version index: for each origin, only the counter suffix beyond the
    /// requester's prefix is walked. The index, the knowledge vector and
    /// the exception set all ascend by (origin, counter), so the three
    /// are stepped through together and a stored version costs a
    /// comparison, not a lookup. Ids come out in ascending order —
    /// exactly the order a full scan of the id-keyed store produces, so
    /// callers observe identical candidate sequences.
    pub fn versions_unknown_to_into(&self, knowledge: &Knowledge, ids: &mut Vec<ItemId>) {
        ids.clear();
        let mut prefixes = knowledge.vector_entries().peekable();
        let mut exceptions = knowledge
            .exceptions()
            .map(|v| (v.replica(), v.counter()))
            .peekable();
        for (&origin, by_counter) in &self.version_index {
            while prefixes.next_if(|&(replica, _)| replica < origin).is_some() {}
            let base = match prefixes.peek() {
                Some(&(replica, base)) if replica == origin => base,
                _ => 0,
            };
            for (&counter, &id) in by_counter.range(base.saturating_add(1)..) {
                let stored = (origin, counter);
                while exceptions.next_if(|&known| known < stored).is_some() {}
                if exceptions.peek() != Some(&stored) {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
    }

    /// The current version of every stored item, ascending by (origin,
    /// counter) — the set a digest-mode peer screens against its Bloom
    /// summary.
    pub fn current_versions(&self) -> impl Iterator<Item = Version> + '_ {
        self.version_index.iter().flat_map(|(&origin, by_counter)| {
            by_counter
                .keys()
                .map(move |&counter| Version::new(origin, counter))
        })
    }

    /// Whether `knowledge`'s per-origin vector watermarks already cover
    /// every stored version. When true, no candidate walk can select
    /// anything, so [`versions_unknown_to_into`](Self::versions_unknown_to_into)
    /// need not run at all. Exceptions are irrelevant here: a version at
    /// or below the watermark is known regardless of them.
    pub fn covered_by(&self, knowledge: &Knowledge) -> bool {
        self.version_index.iter().all(|(&origin, by_counter)| {
            by_counter
                .keys()
                .next_back()
                .is_none_or(|&max| max <= knowledge.base_counter(origin))
        })
    }

    fn remove_from_fifo(&mut self, id: ItemId) {
        if let Some(pos) = self.relay_fifo.iter().position(|&x| x == id) {
            self.relay_fifo.remove(pos);
        }
    }

    /// Number of evictable relay messages: relay-kind, non-tombstone.
    pub fn relay_load(&self) -> usize {
        self.relay_fifo
            .iter()
            .filter(|id| {
                self.items
                    .get(id)
                    .map(|s| !s.item.is_deleted())
                    .unwrap_or(false)
            })
            .count()
    }

    /// Evicts and returns the oldest non-tombstone relay item, if any.
    pub fn evict_oldest_relay(&mut self) -> Option<StoredItem> {
        let victim = self.relay_fifo.iter().copied().find(|id| {
            self.items
                .get(id)
                .map(|s| !s.item.is_deleted())
                .unwrap_or(false)
        })?;
        self.remove(victim)
    }

    /// The relay FIFO order, oldest first (snapshot support).
    pub fn relay_fifo(&self) -> impl ExactSizeIterator<Item = ItemId> + '_ {
        self.relay_fifo.iter().copied()
    }

    /// Rebuilds a store from snapshot parts. Relay items listed in
    /// `relay_fifo` keep that eviction order; relay items missing from the
    /// list (corrupt snapshots) are appended in id order.
    pub fn from_parts(items: Vec<(Item, StoreKind, SimTime)>, relay_fifo: Vec<ItemId>) -> Self {
        let mut store = ItemStore::new();
        for (item, kind, received_at) in items {
            store.put(item, kind, received_at);
        }
        // Reorder the FIFO according to the snapshot.
        let mut ordered: VecDeque<ItemId> = relay_fifo
            .into_iter()
            .filter(|id| store.relay_fifo.contains(id))
            .collect();
        for id in &store.relay_fifo {
            if !ordered.contains(id) {
                ordered.push_back(*id);
            }
        }
        store.relay_fifo = ordered;
        store
    }

    /// Re-derives every stored item's kind after a filter change.
    pub fn reclassify(&mut self, own_id: ReplicaId, filter: &Filter) {
        let ids = self.ids();
        for id in ids {
            let stored = self.items.get(&id).expect("id just listed");
            let new_kind = classify(&stored.item, own_id, filter);
            if new_kind != stored.kind {
                let (item, received_at) = {
                    let s = self.items.get(&id).expect("present");
                    (s.item.clone(), s.received_at)
                };
                // put() fixes FIFO membership on kind transitions.
                self.remove(id);
                self.put(item, new_kind, received_at);
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

    /// The version index must mirror the item map exactly: one entry per
    /// stored item, keyed by that item's current version.
    fn assert_index_mirrors_items(s: &ItemStore) {
        let indexed: usize = s.version_index.values().map(|m| m.len()).sum();
        assert_eq!(indexed, s.items.len(), "index entry count drifted");
        for (id, stored) in &s.items {
            let v = stored.item.version();
            assert_eq!(
                s.version_index
                    .get(&v.replica())
                    .and_then(|m| m.get(&v.counter())),
                Some(id),
                "item {id} missing from index under {v}"
            );
        }
    }

    #[test]
    fn version_index_tracks_put_replace_remove() {
        let mut s = ItemStore::new();
        s.put(item(2, 1, "x"), StoreKind::Relay, SimTime::ZERO);
        s.put(item(3, 1, "x"), StoreKind::InFilter, SimTime::ZERO);
        assert_index_mirrors_items(&s);

        // Replace id (2,1) with a newer version written by replica 5.
        let newer = Item::builder(ItemId::new(rid(2), 1), Version::new(rid(5), 9))
            .attr("dest", "x")
            .build();
        s.put(newer, StoreKind::Relay, SimTime::ZERO);
        assert_index_mirrors_items(&s);
        assert!(
            !s.version_index.contains_key(&rid(2)),
            "replaced version must leave the index"
        );

        s.remove(ItemId::new(rid(3), 1));
        assert_index_mirrors_items(&s);
        s.remove(ItemId::new(rid(2), 1));
        assert_index_mirrors_items(&s);
        assert!(s.version_index.is_empty());
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
        s.versions_unknown_to_into(&k, &mut unknown);
        assert_eq!(
            unknown,
            vec![ItemId::new(rid(2), 3), ItemId::new(rid(3), 1)]
        );
    }
}
