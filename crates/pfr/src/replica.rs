//! The replica: one host's filtered copy of the collection.

use std::fmt;

use obs::{DropReason, Event, EventKind, Obs};

use crate::attrs::AttributeMap;
use crate::error::PfrError;
use crate::filter::Filter;
use crate::id::{ItemId, ReplicaId, Version};
use crate::intern::IStr;
use crate::item::{CausalRelation, Item};
use crate::journal::{Journal, KnowledgeTotals};
use crate::knowledge::Knowledge;
use crate::payload::Payload;
use crate::snapshot::ReplicaParts;
use crate::store::{classify, ItemStore, Slot, StoreKind};
use crate::time::SimTime;
use crate::value::Value;
use crate::wire::{Encode, Writer};

/// Counters describing a replica's activity, for experiments and debugging.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ReplicaStats {
    /// Items created locally.
    pub inserted: u64,
    /// Local updates (including deletes).
    pub updated: u64,
    /// Remote items accepted into the filtered store.
    pub received_in_filter: u64,
    /// Remote items accepted into the relay store.
    pub received_relay: u64,
    /// Remote copies ignored because a newer or equal copy was already
    /// stored.
    pub stale_ignored: u64,
    /// Remote copies rejected because their version was already known —
    /// at-most-once delivery means this should stay zero during syncs.
    pub duplicates_rejected: u64,
    /// Concurrent updates merged deterministically.
    pub conflicts_merged: u64,
    /// Relay items evicted under a storage constraint.
    pub evictions: u64,
}

/// One detected write conflict: two causally concurrent copies of an item
/// were merged deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictRecord {
    /// The contested item.
    pub id: ItemId,
    /// The version whose content won the merge.
    pub winner: Version,
    /// The version whose content was superseded.
    pub loser: Version,
    /// When the conflict was detected.
    pub at: SimTime,
}

/// The outcome of offering one remote item copy to a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// Stored (or replaced an older copy). `delivered` is true when this
    /// made a live item newly visible in the replica's filtered store.
    Accepted {
        /// The item became newly available in the filtered store.
        delivered: bool,
        /// Where the copy was stored.
        kind: StoreKind,
    },
    /// The version was already known; nothing was stored.
    Duplicate,
    /// An equal-or-newer copy was already stored; nothing changed.
    Stale,
    /// The copy conflicted with a concurrent local copy and was merged.
    ConflictMerged,
}

/// One host's replica: a filter, a filtered item store (plus push-out and
/// relay stores), and knowledge of learned versions.
///
/// A replica supports fully disconnected operation: items can be inserted,
/// updated, and deleted locally at any time; pairwise synchronization
/// ([`crate::sync`]) later propagates versions opportunistically.
///
/// # Examples
///
/// ```
/// use pfr::{AttributeMap, Filter, Replica, ReplicaId};
///
/// let mut r = Replica::new(ReplicaId::new(1), Filter::address("dest", "me"));
/// let mut attrs = AttributeMap::new();
/// attrs.set("dest", "you");
/// let id = r.insert(attrs, b"payload".to_vec())?;
/// assert!(r.contains_item(id));
/// # Ok::<(), pfr::PfrError>(())
/// ```
#[derive(Clone)]
pub struct Replica {
    id: ReplicaId,
    filter: Filter,
    /// Fingerprint and encoded length of `filter`, filled on first use by
    /// [`Replica::filter_stamp`] and dropped when the filter changes.
    filter_stamp: Option<(u64, usize)>,
    knowledge: Knowledge,
    /// The order `knowledge` was learned in, with its running totals (see
    /// [`crate::journal`]). In-memory only: every insertion into
    /// `knowledge` goes through it, and it is never part of snapshots.
    journal: Journal,
    store: ItemStore,
    next_item_seq: u64,
    next_version_counter: u64,
    relay_limit: Option<usize>,
    stats: ReplicaStats,
    /// In-memory log of merged conflicts, drained by the application. Not
    /// part of snapshots: it is observability state, not replication
    /// state.
    conflict_log: Vec<ConflictRecord>,
    /// Event emission handle. Like `conflict_log`, observability state:
    /// never part of snapshots, disabled by default.
    obs: Obs,
    /// Reusable selection buffers for [`crate::sync::prepare_batch`].
    /// An allocation cache: cleared before every use, never part of
    /// snapshots.
    sync_scratch: crate::sync::SyncScratch,
}

impl Replica {
    /// Creates an empty replica with the given identity and filter.
    pub fn new(id: ReplicaId, filter: Filter) -> Self {
        Replica {
            id,
            filter,
            filter_stamp: None,
            knowledge: Knowledge::new(),
            journal: Journal::default(),
            store: ItemStore::new(),
            next_item_seq: 0,
            next_version_counter: 0,
            relay_limit: None,
            stats: ReplicaStats::default(),
            conflict_log: Vec::new(),
            obs: Obs::none(),
            sync_scratch: crate::sync::SyncScratch::default(),
        }
    }

    /// Attaches (or with [`Obs::none`], detaches) an observer receiving
    /// this replica's events. Observers are not replication state: they
    /// survive neither snapshots nor clones of snapshots.
    pub fn set_observer(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The replica's event emission handle (disabled unless an observer
    /// was attached via [`Replica::set_observer`]).
    pub fn observer(&self) -> &Obs {
        &self.obs
    }

    /// Sets a cap on relay (foreign, out-of-filter) messages stored, as in
    /// the paper's storage-constrained experiments (§VI-D). `None` removes
    /// the cap. Excess relay items are evicted oldest-first immediately and
    /// on every future acceptance. An evicted version stays in knowledge,
    /// so it is never accepted again: the node stops carrying that message
    /// and other copies do.
    pub fn set_relay_limit(&mut self, limit: Option<usize>) {
        self.relay_limit = limit;
        self.enforce_relay_limit();
    }

    /// The configured relay storage cap.
    pub fn relay_limit(&self) -> Option<usize> {
        self.relay_limit
    }

    /// This replica's identity.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The replica's current filter.
    pub fn filter(&self) -> &Filter {
        &self.filter
    }

    /// Replaces the filter, reclassifying stored items. Items that leave
    /// the filter are retained as push-out/relay items (they may still need
    /// to reach other replicas); items that enter it become regular stored
    /// items.
    pub fn set_filter(&mut self, filter: Filter) {
        self.filter = filter;
        self.filter_stamp = None;
        self.store.reclassify(self.id, &self.filter);
        self.enforce_relay_limit();
    }

    /// The filter's [`Filter::fingerprint`] and encoded length, computed
    /// once per filter (digest sync reads both on every exchange).
    pub(crate) fn filter_stamp(&mut self) -> (u64, usize) {
        *self.filter_stamp.get_or_insert_with(|| {
            (
                self.filter.fingerprint(),
                crate::wire::encoded_len(&self.filter),
            )
        })
    }

    /// The replica's knowledge: every version it has learned.
    pub fn knowledge(&self) -> &Knowledge {
        &self.knowledge
    }

    /// Checksum and encoded length of [`Replica::knowledge`], maintained
    /// as versions are learned (never recomputed from the whole set).
    pub fn knowledge_totals(&self) -> KnowledgeTotals {
        self.journal.totals()
    }

    /// How many versions this replica has learned since it was created or
    /// restored — a position in its learning journal. Knowledge is
    /// monotone, so two equal positions mean identical knowledge.
    pub fn journal_position(&self) -> u64 {
        self.journal.position()
    }

    /// The versions learned after journal position `position`, oldest
    /// first: inserted into the knowledge as of `position`, they give the
    /// current knowledge. `None` when the journal no longer (or never)
    /// reached back that far; it retains about as many trailing versions
    /// as the knowledge has entries, beyond which the knowledge itself is
    /// the shorter message.
    pub fn learned_since(&self, position: u64) -> Option<&[Version]> {
        self.journal.since(position)
    }

    /// Records `version` in the knowledge and, if it was new, the journal.
    fn learn(&mut self, version: Version) {
        self.journal.learn(&mut self.knowledge, version);
    }

    /// Activity counters.
    pub fn stats(&self) -> &ReplicaStats {
        &self.stats
    }

    /// The conflicts merged since the log was last drained. Applications
    /// that care about concurrent writes inspect (and possibly
    /// re-reconcile) these; the merge itself is already deterministic.
    pub fn conflicts(&self) -> &[ConflictRecord] {
        &self.conflict_log
    }

    /// Drains the conflict log.
    pub fn take_conflicts(&mut self) -> Vec<ConflictRecord> {
        std::mem::take(&mut self.conflict_log)
    }

    /// Creates a new item with the given attributes and payload, stamping a
    /// fresh id and version. The item is stored regardless of whether it
    /// matches the local filter (out-of-filter creations go to the push-out
    /// store).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns `Result` for forward
    /// compatibility with storage backends that can fail.
    pub fn insert(
        &mut self,
        attrs: AttributeMap,
        payload: impl Into<Payload>,
    ) -> Result<ItemId, PfrError> {
        self.next_item_seq += 1;
        let id = ItemId::new(self.id, self.next_item_seq);
        let version = self.next_version();
        let item = Item::builder(id, version)
            .attrs(attrs)
            .payload(payload)
            .build();
        let kind = classify(&item, self.id, &self.filter);
        self.store.put(item, kind, SimTime::ZERO);
        self.stats.inserted += 1;
        Ok(id)
    }

    /// Updates an item's attributes and payload, stamping a new version
    /// that supersedes the stored one.
    ///
    /// # Errors
    ///
    /// Returns [`PfrError::NotStored`] if the item is not in the store.
    pub fn update(
        &mut self,
        id: ItemId,
        attrs: AttributeMap,
        payload: impl Into<Payload>,
    ) -> Result<Version, PfrError> {
        let version = self.next_version();
        let stored = self.store.get(id).ok_or(PfrError::NotStored(id))?;
        let successor = stored.item.successor(version, attrs, payload, false);
        let received_at = stored.received_at;
        let kind = classify(&successor, self.id, &self.filter);
        self.store.put(successor, kind, received_at);
        self.stats.updated += 1;
        self.enforce_relay_limit();
        Ok(version)
    }

    /// Deletes an item by writing a tombstone version. The tombstone keeps
    /// the item's attributes (so it continues to match the same filters and
    /// propagates to the same replicas, clearing their copies) but drops
    /// the payload.
    ///
    /// # Errors
    ///
    /// Returns [`PfrError::NotStored`] if the item is not in the store.
    pub fn delete(&mut self, id: ItemId) -> Result<Version, PfrError> {
        let version = self.next_version();
        let stored = self.store.get(id).ok_or(PfrError::NotStored(id))?;
        // The tombstone shares the predecessor's attribute map (one Arc
        // bump) and the global empty payload: deleting allocates nothing
        // proportional to the item.
        let tombstone =
            stored
                .item
                .successor(version, stored.item.attrs_shared(), Payload::empty(), true);
        let received_at = stored.received_at;
        let kind = classify(&tombstone, self.id, &self.filter);
        self.store.put(tombstone, kind, received_at);
        self.stats.updated += 1;
        Ok(version)
    }

    fn next_version(&mut self) -> Version {
        self.next_version_counter += 1;
        let version = Version::new(self.id, self.next_version_counter);
        // A replica observes its own writes in order, so this extends its
        // own prefix.
        self.learn(version);
        version
    }

    /// Looks up a stored item.
    pub fn item(&self, id: ItemId) -> Option<&Item> {
        self.store.get(id).map(|s| &s.item)
    }

    /// Returns whether the item is stored here.
    pub fn contains_item(&self, id: ItemId) -> bool {
        self.store.contains(id)
    }

    /// Where the item is held, if stored.
    pub fn store_kind(&self, id: ItemId) -> Option<StoreKind> {
        self.store.get(id).map(|s| s.kind)
    }

    /// When the item arrived (for locally created items,
    /// [`SimTime::ZERO`]).
    pub fn received_at(&self, id: ItemId) -> Option<SimTime> {
        self.store.get(id).map(|s| s.received_at)
    }

    /// Iterates over all stored items (any kind), in item-id order.
    pub fn iter_items(&self) -> impl Iterator<Item = &Item> {
        self.store.iter().map(|s| &s.item)
    }

    /// Ids of all stored items.
    pub fn item_ids(&self) -> Vec<ItemId> {
        self.store.ids()
    }

    /// Iterates over live (non-tombstone) stored items matching `filter` —
    /// the local query interface applications read through. The filter
    /// need not be related to the replica's own subscription filter.
    ///
    /// # Examples
    ///
    /// ```
    /// use pfr::{AttributeMap, Filter, Replica, ReplicaId};
    ///
    /// let mut r = Replica::new(ReplicaId::new(1), Filter::All);
    /// let mut attrs = AttributeMap::new();
    /// attrs.set("topic", "sports");
    /// r.insert(attrs, vec![])?;
    /// let query = Filter::parse(r#"topic = "sports""#)?;
    /// assert_eq!(r.query(&query).count(), 1);
    /// # Ok::<(), pfr::PfrError>(())
    /// ```
    pub fn query<'a>(&'a self, filter: &'a Filter) -> impl Iterator<Item = &'a Item> + 'a {
        self.store
            .iter()
            .map(|s| &s.item)
            .filter(|item| !item.is_deleted())
            .filter(move |item| filter.matches(item))
    }

    /// Number of stored items (including tombstones).
    pub fn item_count(&self) -> usize {
        self.store.len()
    }

    /// Number of live relay messages currently held (the quantity bounded
    /// by [`Replica::set_relay_limit`]).
    pub fn relay_load(&self) -> usize {
        self.store.relay_load()
    }

    /// Sets a transient (per-copy) attribute on a stored item **without**
    /// creating a new version — the "internal interface" the paper's Spray
    /// and Wait policy uses to adjust its copy count locally (§V-C2).
    ///
    /// # Errors
    ///
    /// Returns [`PfrError::NotStored`] if the item is not in the store.
    pub fn set_transient(
        &mut self,
        id: ItemId,
        name: impl Into<IStr>,
        value: impl Into<Value>,
    ) -> Result<(), PfrError> {
        let mut slot = self.store.slot(id).ok_or(PfrError::NotStored(id))?;
        slot.stamp_write();
        slot.item.transient_mut().set(name, value);
        Ok(())
    }

    /// Removes a relay item outright (used by policies that learn, through
    /// acknowledgements, that a message has been delivered). The version
    /// stays in knowledge, so the copy will not be accepted again. Returns
    /// `true` if something was removed; in-filter and push-out items are
    /// never removed by this call.
    pub fn purge_relay(&mut self, id: ItemId) -> bool {
        if self.store.get(id).map(|s| s.kind) == Some(StoreKind::Relay) {
            self.store.remove(id).is_some()
        } else {
            false
        }
    }

    /// Ids of stored items whose current version is not contained in
    /// `knowledge` — the candidate set a sync source offers a target.
    ///
    /// Answered from the store's version index, stepped through beside
    /// `knowledge` in one pass with no lookups, in item-id order.
    pub fn versions_unknown_to(&self, knowledge: &Knowledge) -> Vec<ItemId> {
        let mut candidates = Vec::new();
        self.versions_unknown_to_into(knowledge, crate::park::EVERY, &mut candidates);
        candidates.into_iter().map(|(id, _)| id).collect()
    }

    /// In-place variant of [`Replica::versions_unknown_to`] that passes
    /// over the parked copies outside `wanted` (see [`crate::park`]):
    /// clears `candidates` and fills it with the rest, each id with the
    /// store slot number [`Replica::candidate_slot`] takes, and returns
    /// how many it passed over. The sync hot path calls this with a
    /// reused per-replica buffer so steady-state (zero-candidate)
    /// encounters allocate nothing.
    pub(crate) fn versions_unknown_to_into(
        &self,
        knowledge: &Knowledge,
        wanted: u64,
        candidates: &mut Vec<(ItemId, usize)>,
    ) -> usize {
        self.store
            .versions_unknown_to_into(knowledge, wanted, candidates)
    }

    /// The wanted set of a sync that serves a target with `filter` under
    /// an extension that reported `keys` (see [`crate::park`]).
    pub(crate) fn parks_wanted(&self, filter: &Filter, keys: &crate::park::ParkKeys) -> u64 {
        self.store.park_attr().map_or(crate::park::EVERY, |filed| {
            crate::park::wanted(filter, filed, keys)
        })
    }

    /// Parks the stored copy at `version`, filed under `attr`: candidate
    /// selection passes over it until it is written or removed, unless a
    /// sync wants one of its keys (see [`crate::park`]).
    pub(crate) fn park(&mut self, version: Version, attr: &'static str, entry: u64) {
        self.store.park(version, attr, entry);
    }

    /// Unparks every stored copy. A park is the verdict of the extension
    /// that made it; whoever syncs this replica under another extension
    /// calls this first ([`SendDecision::Park`](crate::SendDecision::Park)).
    /// Parks are in-memory only: a restored or newly built replica has
    /// none.
    pub fn clear_parks(&mut self) {
        self.store.clear_parks();
    }

    /// Detaches the reusable sync-selection buffers (see
    /// [`crate::sync::SyncScratch`]); pair with
    /// [`Replica::restore_sync_scratch`].
    pub(crate) fn take_sync_scratch(&mut self) -> crate::sync::SyncScratch {
        std::mem::take(&mut self.sync_scratch)
    }

    /// Returns buffers taken with [`Replica::take_sync_scratch`] so the
    /// next sync reuses their capacity.
    pub(crate) fn restore_sync_scratch(&mut self, scratch: crate::sync::SyncScratch) {
        self.sync_scratch = scratch;
    }

    /// Hands a drained batch-entry buffer back for reuse by the next
    /// [`crate::sync::prepare_batch`] on this replica: what a co-located
    /// target does with the buffer [`crate::exchange::Pull::finish`]
    /// returns.
    pub fn recycle_batch_entries(&mut self, entries: Vec<crate::sync::BatchEntry>) {
        self.sync_scratch.entries = entries;
    }

    /// The stored copy of a candidate that
    /// [`Replica::versions_unknown_to_into`] reported as `(id, slot)` and
    /// no store change has followed: reached by slot number, no lookup,
    /// it serves the filter match, the byte accounting and the policy's
    /// verdict (which may write transient metadata through it). Lending
    /// counts as no write; only [`crate::sync::Candidate::set_transient`]
    /// does.
    pub(crate) fn candidate_slot(&mut self, id: ItemId, slot: usize) -> Option<Slot<'_>> {
        self.store.lend(id, slot)
    }

    /// How many writes this replica's item store has taken: every stored,
    /// replaced or removed item and every transient write counts one.
    /// Equal clocks on the same replica mean an unchanged item store.
    pub fn write_clock(&self) -> u64 {
        self.store.write_clock()
    }

    /// Every stored item's id with the [`Replica::write_clock`] value of
    /// its last write, ascending by id: an item changed since clock `c`
    /// exactly if its stamp is greater than `c`.
    pub fn item_stamps(&self) -> impl Iterator<Item = (ItemId, u64)> + '_ {
        self.store.iter().map(|s| (s.item.id(), s.stamp))
    }

    /// Offers a remote item copy to this replica, enforcing at-most-once
    /// delivery and causal supersession. This is the receive half of the
    /// sync protocol; applications normally go through
    /// [`crate::sync::apply_batch`].
    pub fn apply_remote(&mut self, incoming: Item, now: SimTime) -> ApplyOutcome {
        if self.knowledge.contains(incoming.version()) {
            self.stats.duplicates_rejected += 1;
            return ApplyOutcome::Duplicate;
        }
        self.learn(incoming.version());
        for ancestor in incoming.ancestors() {
            self.learn(ancestor);
        }

        let kind = classify(&incoming, self.id, &self.filter);
        let outcome = match self.store.get(incoming.id()) {
            None => {
                let delivered = kind == StoreKind::InFilter && !incoming.is_deleted();
                self.store.put(incoming, kind, now);
                self.record_receipt(kind);
                ApplyOutcome::Accepted { delivered, kind }
            }
            Some(stored) => match incoming.relation_to(&stored.item) {
                CausalRelation::Equal | CausalRelation::SupersededBy => {
                    self.stats.stale_ignored += 1;
                    ApplyOutcome::Stale
                }
                CausalRelation::Supersedes => {
                    let was_visible =
                        stored.kind == StoreKind::InFilter && !stored.item.is_deleted();
                    let received_at = stored.received_at;
                    let delivered =
                        kind == StoreKind::InFilter && !incoming.is_deleted() && !was_visible;
                    self.store.put(incoming, kind, received_at);
                    self.record_receipt(kind);
                    ApplyOutcome::Accepted { delivered, kind }
                }
                CausalRelation::Concurrent => {
                    let received_at = stored.received_at;
                    let local_version = stored.item.version();
                    let incoming_version = incoming.version();
                    let merged = stored.item.clone().merge_concurrent(incoming);
                    // The merge result supersedes both inputs; make sure its
                    // identity version is known too (it may be the local
                    // version, already known, or the remote one, just added).
                    self.learn(merged.version());
                    let winner = merged.version();
                    let loser = if winner == local_version {
                        incoming_version
                    } else {
                        local_version
                    };
                    self.conflict_log.push(ConflictRecord {
                        id: merged.id(),
                        winner,
                        loser,
                        at: now,
                    });
                    let kind = classify(&merged, self.id, &self.filter);
                    self.store.put(merged, kind, received_at);
                    self.stats.conflicts_merged += 1;
                    ApplyOutcome::ConflictMerged
                }
            },
        };
        self.enforce_relay_limit();
        outcome
    }

    fn record_receipt(&mut self, kind: StoreKind) {
        match kind {
            StoreKind::InFilter => self.stats.received_in_filter += 1,
            StoreKind::Relay => self.stats.received_relay += 1,
            StoreKind::PushOut => {
                // Receiving a copy of an item we originated is possible after
                // a remote update; count it as relay traffic.
                self.stats.received_relay += 1;
            }
        }
    }

    /// Appends the stored item `id` to `w` as one snapshot item record —
    /// the item, how it is held, when it arrived (read back by
    /// [`crate::decode_item_record`]) — and returns how it is held;
    /// `None`, nothing written, if it is not stored.
    pub fn encode_item_record(&self, id: ItemId, w: &mut Writer) -> Option<StoreKind> {
        let stored = self.store.get(id)?;
        stored.item.encode(w);
        stored.kind.encode(w);
        w.put_varint(stored.received_at.as_secs());
        Some(stored.kind)
    }

    /// The item-id and version allocation counters: how many items and
    /// versions this replica has created (snapshot support).
    pub fn write_counters(&self) -> (u64, u64) {
        (self.next_item_seq, self.next_version_counter)
    }

    /// Relay items in eviction (arrival) order, oldest first (snapshot
    /// support).
    pub fn relay_fifo(&self) -> impl ExactSizeIterator<Item = ItemId> + '_ {
        self.store.relay_fifo()
    }

    /// Rebuilds a replica from snapshot parts.
    pub fn from_parts(parts: ReplicaParts) -> Replica {
        let mut replica = Replica {
            id: parts.id,
            filter: parts.filter,
            filter_stamp: None,
            journal: Journal::starting_at(&parts.knowledge),
            knowledge: parts.knowledge,
            store: ItemStore::from_parts(parts.items, parts.relay_fifo),
            next_item_seq: parts.next_item_seq,
            next_version_counter: parts.next_version_counter,
            relay_limit: parts.relay_limit,
            stats: ReplicaStats::default(),
            conflict_log: Vec::new(),
            obs: Obs::none(),
            sync_scratch: crate::sync::SyncScratch::default(),
        };
        replica.enforce_relay_limit();
        replica
    }

    fn enforce_relay_limit(&mut self) {
        let Some(limit) = self.relay_limit else {
            return;
        };
        while self.store.relay_load() > limit {
            let Some(evicted) = self.store.evict_oldest_relay() else {
                break;
            };
            self.stats.evictions += 1;
            let replica = self.id.as_u64();
            let id = evicted.item.id();
            self.obs
                .emit(EventKind::ItemEvicted, || Event::ItemEvicted {
                    replica,
                    origin: id.origin().as_u64(),
                    seq: id.seq(),
                });
            self.obs
                .emit(EventKind::MessageDropped, || Event::MessageDropped {
                    replica,
                    origin: id.origin().as_u64(),
                    seq: id.seq(),
                    reason: DropReason::Evicted,
                });
        }
    }
}

impl fmt::Debug for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("filter", &format_args!("{}", self.filter))
            .field("items", &self.store.len())
            .field("knowledge", &self.knowledge)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u64) -> ReplicaId {
        ReplicaId::new(n)
    }

    fn dest_attrs(dest: &str) -> AttributeMap {
        let mut a = AttributeMap::new();
        a.set("dest", dest);
        a
    }

    fn replica(n: u64, addr: &str) -> Replica {
        Replica::new(rid(n), Filter::address("dest", addr))
    }

    #[test]
    fn insert_classifies_by_filter() {
        let mut r = replica(1, "me");
        let own = r.insert(dest_attrs("me"), vec![]).unwrap();
        let out = r.insert(dest_attrs("you"), vec![]).unwrap();
        assert_eq!(r.store_kind(own), Some(StoreKind::InFilter));
        assert_eq!(r.store_kind(out), Some(StoreKind::PushOut));
        assert_eq!(r.stats().inserted, 2);
    }

    #[test]
    fn own_writes_enter_knowledge_as_prefix() {
        let mut r = replica(1, "me");
        for _ in 0..5 {
            r.insert(dest_attrs("x"), vec![]).unwrap();
        }
        assert_eq!(r.knowledge().base_counter(rid(1)), 5);
        assert_eq!(r.knowledge().exception_count(), 0);
    }

    #[test]
    fn update_supersedes_and_delete_tombstones() {
        let mut r = replica(1, "me");
        let id = r.insert(dest_attrs("me"), b"v1".to_vec()).unwrap();
        let v1 = r.item(id).unwrap().version();
        r.update(id, dest_attrs("me"), b"v2".to_vec()).unwrap();
        let item = r.item(id).unwrap();
        assert_eq!(item.payload(), b"v2");
        assert!(item.knows_version(v1));

        r.delete(id).unwrap();
        let item = r.item(id).unwrap();
        assert!(item.is_deleted());
        assert!(item.payload().is_empty());
        assert_eq!(
            item.attrs().get_str("dest"),
            Some("me"),
            "tombstone keeps attributes so it keeps matching filters"
        );
    }

    #[test]
    fn update_missing_item_errors() {
        let mut r = replica(1, "me");
        let missing = ItemId::new(rid(9), 1);
        assert_eq!(
            r.update(missing, AttributeMap::new(), vec![]),
            Err(PfrError::NotStored(missing))
        );
        assert_eq!(r.delete(missing), Err(PfrError::NotStored(missing)));
    }

    #[test]
    fn apply_remote_at_most_once() {
        let mut a = replica(1, "a");
        let mut b = replica(2, "b");
        let id = a.insert(dest_attrs("b"), b"m".to_vec()).unwrap();
        let item = a.item(id).unwrap().clone();

        let first = b.apply_remote(item.clone(), SimTime::ZERO);
        assert_eq!(
            first,
            ApplyOutcome::Accepted {
                delivered: true,
                kind: StoreKind::InFilter
            }
        );
        let second = b.apply_remote(item, SimTime::ZERO);
        assert_eq!(second, ApplyOutcome::Duplicate);
        assert_eq!(b.stats().duplicates_rejected, 1);
        assert_eq!(b.stats().received_in_filter, 1);
    }

    #[test]
    fn apply_remote_stale_and_newer() {
        let mut a = replica(1, "a");
        let mut b = replica(2, "b");
        let id = a.insert(dest_attrs("b"), b"v1".to_vec()).unwrap();
        let old = a.item(id).unwrap().clone();
        a.update(id, dest_attrs("b"), b"v2".to_vec()).unwrap();
        let new = a.item(id).unwrap().clone();

        // New version arrives first. Accepting it also records its
        // ancestors in knowledge, so the old copy is rejected as a
        // duplicate before any store comparison.
        assert!(matches!(
            b.apply_remote(new, SimTime::ZERO),
            ApplyOutcome::Accepted { .. }
        ));
        assert_eq!(b.apply_remote(old, SimTime::ZERO), ApplyOutcome::Duplicate);
        assert_eq!(b.item(id).unwrap().payload(), b"v2");
    }

    #[test]
    fn concurrent_updates_merge_deterministically() {
        let mut origin = replica(1, "x");
        let id = origin.insert(dest_attrs("c"), b"base".to_vec()).unwrap();
        let base = origin.item(id).unwrap().clone();

        // Two replicas independently update the same base copy.
        let mut r2 = replica(2, "x");
        let mut r3 = replica(3, "x");
        r2.apply_remote(base.clone(), SimTime::ZERO);
        r3.apply_remote(base.clone(), SimTime::ZERO);
        r2.update(id, dest_attrs("c"), b"from2".to_vec()).unwrap();
        r3.update(id, dest_attrs("c"), b"from3".to_vec()).unwrap();
        let c2 = r2.item(id).unwrap().clone();
        let c3 = r3.item(id).unwrap().clone();
        let (c2_version, c3_version) = (c2.version(), c3.version());

        // Deliver both to two fresh replicas in opposite orders.
        let mut x = replica(4, "x");
        let mut y = replica(5, "x");
        x.apply_remote(c2.clone(), SimTime::ZERO);
        assert_eq!(
            x.apply_remote(c3.clone(), SimTime::ZERO),
            ApplyOutcome::ConflictMerged
        );
        y.apply_remote(c3, SimTime::ZERO);
        assert_eq!(
            y.apply_remote(c2, SimTime::ZERO),
            ApplyOutcome::ConflictMerged
        );

        assert_eq!(
            x.item(id).unwrap().payload(),
            y.item(id).unwrap().payload(),
            "conflict resolution is order-independent"
        );
        assert_eq!(x.stats().conflicts_merged, 1);

        // The conflict is observable and drainable.
        assert_eq!(x.conflicts().len(), 1);
        let record = x.conflicts()[0];
        assert_eq!(record.id, id);
        assert_eq!(record.winner, c3_version.max(c2_version));
        assert_eq!(record.loser, c3_version.min(c2_version));
        let drained = x.take_conflicts();
        assert_eq!(drained.len(), 1);
        assert!(x.conflicts().is_empty());
    }

    #[test]
    fn versions_unknown_to_respects_knowledge() {
        let mut a = replica(1, "a");
        let id1 = a.insert(dest_attrs("b"), vec![]).unwrap();
        let _id2 = a.insert(dest_attrs("c"), vec![]).unwrap();
        let mut k = Knowledge::new();
        assert_eq!(a.versions_unknown_to(&k).len(), 2);
        k.insert(a.item(id1).unwrap().version());
        let unknown = a.versions_unknown_to(&k);
        assert_eq!(unknown.len(), 1);
        assert_ne!(unknown[0], id1);
    }

    #[test]
    fn relay_limit_evicts_fifo() {
        let mut c = replica(3, "c");
        c.set_relay_limit(Some(2));
        // Three foreign out-of-filter items arrive.
        let mut a = replica(1, "a");
        for dest in ["x", "y", "z"] {
            let id = a.insert(dest_attrs(dest), vec![]).unwrap();
            let item = a.item(id).unwrap().clone();
            c.apply_remote(item, SimTime::ZERO);
        }
        assert_eq!(c.relay_load(), 2);
        assert_eq!(c.stats().evictions, 1);
        // The oldest (dest=x) was evicted.
        let dests: Vec<&str> = c
            .iter_items()
            .filter_map(|i| i.attrs().get_str("dest"))
            .collect();
        assert!(!dests.contains(&"x"));
        // Knowledge is retained: re-offering the evicted copy is a duplicate.
        let evicted = a
            .iter_items()
            .find(|i| i.attrs().get_str("dest") == Some("x"))
            .unwrap()
            .clone();
        assert_eq!(
            c.apply_remote(evicted, SimTime::ZERO),
            ApplyOutcome::Duplicate
        );
    }

    #[test]
    fn relay_limit_ignores_own_and_in_filter_items() {
        let mut c = replica(3, "c");
        c.set_relay_limit(Some(0));
        // Own push-out item: not evictable.
        let own = c.insert(dest_attrs("elsewhere"), vec![]).unwrap();
        // In-filter foreign item: not evictable.
        let mut a = replica(1, "a");
        let inbound = a.insert(dest_attrs("c"), vec![]).unwrap();
        let item = a.item(inbound).unwrap().clone();
        c.apply_remote(item, SimTime::ZERO);
        assert!(c.contains_item(own));
        assert!(c.contains_item(inbound));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn set_transient_does_not_bump_version() {
        let mut r = replica(1, "me");
        let id = r.insert(dest_attrs("you"), vec![]).unwrap();
        let v = r.item(id).unwrap().version();
        r.set_transient(id, "ttl", 9i64).unwrap();
        assert_eq!(r.item(id).unwrap().version(), v);
        assert_eq!(r.item(id).unwrap().transient().get_i64("ttl"), Some(9));
        let missing = ItemId::new(rid(9), 1);
        assert!(r.set_transient(missing, "x", 1i64).is_err());
    }

    #[test]
    fn purge_relay_only_touches_relay_items() {
        let mut c = replica(3, "c");
        let own = c.insert(dest_attrs("me"), vec![]).unwrap();
        assert!(!c.purge_relay(own), "push-out item not purgeable");
        let mut a = replica(1, "a");
        let id = a.insert(dest_attrs("z"), vec![]).unwrap();
        c.apply_remote(a.item(id).unwrap().clone(), SimTime::ZERO);
        assert!(c.purge_relay(id));
        assert!(!c.contains_item(id));
        assert!(!c.purge_relay(id), "already gone");
    }

    #[test]
    fn set_filter_reclassifies() {
        let mut c = replica(3, "c");
        let mut a = replica(1, "a");
        let id = a.insert(dest_attrs("d"), vec![]).unwrap();
        c.apply_remote(a.item(id).unwrap().clone(), SimTime::ZERO);
        assert_eq!(c.store_kind(id), Some(StoreKind::Relay));
        c.set_filter(Filter::any_address("dest", ["c", "d"]));
        assert_eq!(c.store_kind(id), Some(StoreKind::InFilter));
    }

    #[test]
    fn query_is_independent_of_subscription_filter() {
        let mut r = replica(1, "me");
        let a = r.insert(dest_attrs("me"), vec![]).unwrap();
        let b = r.insert(dest_attrs("you"), vec![]).unwrap();
        let dead = r.insert(dest_attrs("me"), vec![]).unwrap();
        r.delete(dead).unwrap();

        let all = Filter::All;
        let ids: Vec<ItemId> = r.query(&all).map(|i| i.id()).collect();
        assert_eq!(ids, vec![a, b], "tombstones excluded, filter ignored");

        let only_you = Filter::address("dest", "you");
        assert_eq!(r.query(&only_you).count(), 1);
        assert_eq!(r.query(&Filter::None).count(), 0);
    }

    #[test]
    fn debug_shows_identity_and_filter() {
        let r = replica(7, "me");
        let s = format!("{r:?}");
        assert!(s.contains("R7"));
        assert!(s.contains("dest"));
    }
}
