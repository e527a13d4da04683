//! Replicated items: the unit of storage, filtering, and transfer.

use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::attrs::AttributeMap;
use crate::id::{ItemId, Version};
use crate::payload::Payload;

/// How two versions of the same item relate causally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CausalRelation {
    /// The two are the same version.
    Equal,
    /// The first supersedes the second.
    Supersedes,
    /// The first is superseded by the second.
    SupersededBy,
    /// Neither derives from the other: a concurrent update (conflict).
    Concurrent,
}

/// A versioned, attributed data item.
///
/// An item is created once (acquiring an [`ItemId`]) and may then be updated
/// or deleted; each write stamps a new [`Version`] and records the versions
/// it supersedes, so replicas can distinguish stale copies, newer copies,
/// and genuinely concurrent (conflicting) copies.
///
/// Items carry two attribute maps:
///
/// * [`attrs`](Item::attrs) — application data, versioned: changing it is an
///   update that replicates everywhere.
/// * [`transient`](Item::transient) — per-copy routing metadata (TTL, copy
///   counts, hop lists). It travels with every transmitted copy but is
///   mutable in place without a version bump, implementing the
///   "host-specific metadata fields" of paper §V-A.
///
/// In the DTN application each message is one item whose `dest` attribute
/// names the recipient, and whose payload is the message body (§IV-A).
///
/// # Examples
///
/// ```
/// use pfr::{Item, ItemId, ReplicaId, Version};
///
/// let origin = ReplicaId::new(1);
/// let item = Item::builder(ItemId::new(origin, 1), Version::new(origin, 1))
///     .attr("dest", "bus-9")
///     .payload(b"hello".to_vec())
///     .build();
/// assert_eq!(item.attrs().get_str("dest"), Some("bus-9"));
/// assert!(!item.is_deleted());
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Item {
    id: ItemId,
    version: Version,
    /// All versions of this item superseded by `version` (exclusive).
    ancestors: BTreeSet<Version>,
    /// Versioned attributes never mutate in place (a change is a new
    /// version), so copies share one map behind an `Arc`.
    attrs: Arc<AttributeMap>,
    /// Transient attributes are copy-on-write: cloning shares the map,
    /// [`Item::transient_mut`] privatizes it only when actually mutated.
    transient: Arc<AttributeMap>,
    payload: Payload,
    deleted: bool,
}

impl Item {
    /// Starts building a new item with the given identity and version.
    pub fn builder(id: ItemId, version: Version) -> ItemBuilder {
        ItemBuilder {
            item: Item {
                id,
                version,
                ancestors: BTreeSet::new(),
                attrs: Arc::new(AttributeMap::new()),
                transient: Arc::new(AttributeMap::new()),
                payload: Payload::empty(),
                deleted: false,
            },
        }
    }

    /// The item's globally unique identity.
    pub fn id(&self) -> ItemId {
        self.id
    }

    /// The version of this copy.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Versions of this item that this copy supersedes.
    pub fn ancestors(&self) -> impl Iterator<Item = Version> + '_ {
        self.ancestors.iter().copied()
    }

    /// Returns `true` if this copy supersedes (or is) `version`.
    pub fn knows_version(&self, version: Version) -> bool {
        self.version == version || self.ancestors.contains(&version)
    }

    /// How this copy relates causally to another copy of the same item.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the two copies have different ids.
    pub fn relation_to(&self, other: &Item) -> CausalRelation {
        debug_assert_eq!(self.id, other.id, "comparing copies of different items");
        if self.version == other.version {
            CausalRelation::Equal
        } else if self.ancestors.contains(&other.version) {
            CausalRelation::Supersedes
        } else if other.ancestors.contains(&self.version) {
            CausalRelation::SupersededBy
        } else {
            CausalRelation::Concurrent
        }
    }

    /// The versioned application attributes.
    pub fn attrs(&self) -> &AttributeMap {
        &self.attrs
    }

    /// The per-copy transient routing attributes.
    pub fn transient(&self) -> &AttributeMap {
        &self.transient
    }

    /// Mutable access to the transient attributes.
    ///
    /// Mutations here never create a new version; they affect only this
    /// copy. Versioned attributes can only be changed through
    /// [`Replica::update`](crate::Replica::update), which stamps a new
    /// version.
    pub fn transient_mut(&mut self) -> &mut AttributeMap {
        // Copy-on-write: privatize the map only if another copy shares it.
        Arc::make_mut(&mut self.transient)
    }

    /// Replaces this copy's entire transient map with an already-shared
    /// one. The structural-sharing counterpart of [`Item::transient_mut`]:
    /// a policy whose transient state takes only a small closed set of
    /// values (say, a hop budget counting down) can intern one map per
    /// state and stamp outgoing copies with a reference-count bump instead
    /// of privatizing and rewriting a map per copy.
    pub fn replace_transient(&mut self, map: Arc<AttributeMap>) {
        self.transient = map;
    }

    /// The application payload (a message body, in the DTN application).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The payload as a shared buffer handle (clone = reference-count
    /// bump). Storage accounting uses its [`Payload::buffer_id`].
    pub fn payload_shared(&self) -> &Payload {
        &self.payload
    }

    /// Returns `true` if this copy is a deletion tombstone.
    pub fn is_deleted(&self) -> bool {
        self.deleted
    }

    /// Approximate in-memory size in bytes of this copy viewed in
    /// isolation, charging the full payload to the copy.
    ///
    /// Payloads are shared buffers, so summing `approx_size` over copies
    /// over-counts: bytes one buffer holds once are charged once *per
    /// copy*. Storage accounting that walks many copies should use
    /// [`Item::approx_size_deduped`], which charges each distinct backing
    /// buffer exactly once.
    pub fn approx_size(&self) -> usize {
        self.metadata_size() + self.payload.len()
    }

    /// Approximate in-memory size charging shared payload bytes once per
    /// distinct backing buffer: the payload counts only if its
    /// [`Payload::buffer_id`] was not already in `seen_buffers` (which
    /// this call updates). Per-copy metadata is always charged.
    ///
    /// Folding this over every copy in a set of stores yields the real
    /// resident footprint; folding [`Item::approx_size`] yields the
    /// logical (pre-sharing) footprint.
    pub fn approx_size_deduped(&self, seen_buffers: &mut HashSet<usize>) -> usize {
        let payload = if seen_buffers.insert(self.payload.buffer_id()) {
            self.payload.len()
        } else {
            0
        };
        self.metadata_size() + payload
    }

    fn metadata_size(&self) -> usize {
        let attr_size = |m: &AttributeMap| -> usize {
            m.iter()
                .map(|(k, v)| k.len() + format!("{v}").len() + 8)
                .sum()
        };
        attr_size(&self.attrs) + attr_size(&self.transient) + 16 * (1 + self.ancestors.len())
    }

    /// Produces the successor copy stamped with `new_version`, used by
    /// [`Replica::update`](crate::Replica::update) and delete.
    ///
    /// The successor's ancestor set is this copy's ancestors plus this
    /// copy's version. Transient attributes are dropped: routing metadata
    /// belongs to the copy, not the item, and a new version is a new
    /// logical message for routing purposes.
    pub(crate) fn successor(
        &self,
        new_version: Version,
        attrs: impl Into<Arc<AttributeMap>>,
        payload: impl Into<Payload>,
        deleted: bool,
    ) -> Item {
        let mut ancestors = self.ancestors.clone();
        ancestors.insert(self.version);
        Item {
            id: self.id,
            version: new_version,
            ancestors,
            attrs: attrs.into(),
            transient: Arc::new(AttributeMap::new()),
            payload: payload.into(),
            deleted,
        }
    }

    /// The versioned attribute map as a shared handle (used by deletes to
    /// stamp a tombstone without copying the map).
    pub(crate) fn attrs_shared(&self) -> Arc<AttributeMap> {
        Arc::clone(&self.attrs)
    }

    /// Returns this copy with one more recorded ancestor version. Used when
    /// reconstructing a copy from the wire; applications use
    /// [`Replica::update`](crate::Replica::update), which maintains
    /// ancestry automatically.
    pub fn with_ancestor(mut self, version: Version) -> Item {
        if version != self.version {
            self.ancestors.insert(version);
        }
        self
    }

    /// Merges a concurrent copy into this one, returning the deterministic
    /// winner. The winner is the copy with the larger version; the loser's
    /// version and ancestors join the winner's ancestor set, so the merge
    /// result supersedes both inputs.
    pub(crate) fn merge_concurrent(self, other: Item) -> Item {
        debug_assert_eq!(self.id, other.id);
        let (mut winner, loser) = if self.version >= other.version {
            (self, other)
        } else {
            (other, self)
        };
        winner.ancestors.insert(loser.version);
        winner.ancestors.extend(loser.ancestors);
        winner.ancestors.remove(&winner.version);
        winner
    }
}

impl fmt::Debug for Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Item")
            .field("id", &self.id)
            .field("version", &self.version)
            .field("attrs", &self.attrs)
            .field("transient", &self.transient)
            .field("payload_len", &self.payload.len())
            .field("deleted", &self.deleted)
            .finish()
    }
}

/// Builder for [`Item`] (C-BUILDER).
#[derive(Debug)]
pub struct ItemBuilder {
    item: Item,
}

impl ItemBuilder {
    /// Sets a versioned application attribute.
    pub fn attr(mut self, name: impl Into<crate::IStr>, value: impl Into<crate::Value>) -> Self {
        Arc::make_mut(&mut self.item.attrs).set(name, value);
        self
    }

    /// Sets a transient (per-copy) routing attribute.
    pub fn transient_attr(
        mut self,
        name: impl Into<crate::IStr>,
        value: impl Into<crate::Value>,
    ) -> Self {
        Arc::make_mut(&mut self.item.transient).set(name, value);
        self
    }

    /// Sets the payload. Accepts owned bytes or an existing (possibly
    /// shared) [`Payload`].
    pub fn payload(mut self, payload: impl Into<Payload>) -> Self {
        self.item.payload = payload.into();
        self
    }

    /// Replaces the whole versioned attribute map.
    pub fn attrs(mut self, attrs: AttributeMap) -> Self {
        self.item.attrs = Arc::new(attrs);
        self
    }

    /// Replaces the whole transient attribute map (used by wire decode to
    /// avoid re-setting entries one by one).
    pub fn transient_attrs(mut self, transient: AttributeMap) -> Self {
        self.item.transient = Arc::new(transient);
        self
    }

    /// Marks the item as a deletion tombstone.
    pub fn deleted(mut self, deleted: bool) -> Self {
        self.item.deleted = deleted;
        self
    }

    /// Finishes building the item.
    pub fn build(self) -> Item {
        self.item
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ReplicaId;

    fn rid(n: u64) -> ReplicaId {
        ReplicaId::new(n)
    }

    fn base_item() -> Item {
        Item::builder(ItemId::new(rid(1), 1), Version::new(rid(1), 1))
            .attr("dest", "b")
            .payload(vec![1, 2, 3])
            .build()
    }

    #[test]
    fn builder_sets_fields() {
        let item = Item::builder(ItemId::new(rid(1), 7), Version::new(rid(1), 9))
            .attr("k", 1i64)
            .transient_attr("ttl", 10i64)
            .payload(vec![9])
            .build();
        assert_eq!(item.id().seq(), 7);
        assert_eq!(item.version().counter(), 9);
        assert_eq!(item.attrs().get_i64("k"), Some(1));
        assert_eq!(item.transient().get_i64("ttl"), Some(10));
        assert_eq!(item.payload(), &[9]);
        assert!(!item.is_deleted());
        assert_eq!(item.ancestors().count(), 0);
    }

    #[test]
    fn successor_supersedes_and_drops_transient() {
        let mut item = base_item();
        item.transient_mut().set("ttl", 5i64);
        let v2 = Version::new(rid(2), 10);
        let succ = item.successor(v2, item.attrs().clone(), vec![], true);
        assert_eq!(succ.version(), v2);
        assert!(succ.is_deleted());
        assert!(succ.knows_version(item.version()));
        assert_eq!(succ.relation_to(&item), CausalRelation::Supersedes);
        assert_eq!(item.relation_to(&succ), CausalRelation::SupersededBy);
        assert!(
            succ.transient().is_empty(),
            "transient metadata must not replicate"
        );
    }

    #[test]
    fn equal_and_concurrent_relations() {
        let item = base_item();
        assert_eq!(item.relation_to(&item.clone()), CausalRelation::Equal);

        let a = item.successor(Version::new(rid(2), 5), item.attrs().clone(), vec![], false);
        let b = item.successor(Version::new(rid(3), 6), item.attrs().clone(), vec![], false);
        assert_eq!(a.relation_to(&b), CausalRelation::Concurrent);
    }

    #[test]
    fn merge_concurrent_is_deterministic_and_supersedes_both() {
        let item = base_item();
        let a = item.successor(
            Version::new(rid(2), 5),
            item.attrs().clone(),
            vec![1],
            false,
        );
        let b = item.successor(
            Version::new(rid(3), 6),
            item.attrs().clone(),
            vec![2],
            false,
        );

        let m1 = a.clone().merge_concurrent(b.clone());
        let m2 = b.clone().merge_concurrent(a.clone());
        assert_eq!(
            m1.version(),
            m2.version(),
            "winner independent of merge order"
        );
        assert_eq!(m1.version(), b.version(), "larger version wins");
        assert!(m1.knows_version(a.version()));
        assert!(m1.knows_version(b.version()) || m1.version() == b.version());
        assert!(m1.knows_version(item.version()));
    }

    #[test]
    fn clone_shares_payload_and_attr_maps() {
        let item = base_item();
        let copy = item.clone();
        assert_eq!(item, copy);
        assert_eq!(
            item.payload_shared().buffer_id(),
            copy.payload_shared().buffer_id(),
            "cloning must share the payload buffer, not copy it"
        );
    }

    #[test]
    fn transient_mut_is_copy_on_write() {
        let mut item = base_item();
        item.transient_mut().set("hops", 1i64);
        let mut copy = item.clone();
        copy.transient_mut().set("hops", 2i64);
        assert_eq!(item.transient().get_i64("hops"), Some(1));
        assert_eq!(copy.transient().get_i64("hops"), Some(2));
    }

    /// Pins the old-vs-new storage accounting on a two-copy example:
    /// summing the legacy per-copy `approx_size` charges the 1000-byte
    /// payload twice, while `approx_size_deduped` charges the shared
    /// buffer once and only the per-copy metadata twice.
    #[test]
    fn two_copies_charge_shared_payload_once() {
        let item = Item::builder(ItemId::new(rid(1), 1), Version::new(rid(1), 1))
            .attr("dest", "b")
            .payload(vec![0u8; 1000])
            .build();
        let copy = item.clone();

        let legacy: usize = [&item, &copy].iter().map(|i| i.approx_size()).sum();
        let mut seen = HashSet::new();
        let deduped: usize = [&item, &copy]
            .iter()
            .map(|i| i.approx_size_deduped(&mut seen))
            .sum();

        let metadata = item.approx_size() - 1000;
        assert_eq!(
            legacy,
            2 * (1000 + metadata),
            "old: payload charged per copy"
        );
        assert_eq!(
            deduped,
            1000 + 2 * metadata,
            "new: payload charged per buffer"
        );

        // An unrelated buffer with the same bytes is still charged.
        let private = Item::builder(ItemId::new(rid(1), 2), Version::new(rid(1), 2))
            .attr("dest", "b")
            .payload(vec![0u8; 1000])
            .build();
        assert_eq!(private.approx_size_deduped(&mut seen), 1000 + metadata);
    }

    #[test]
    fn approx_size_counts_payload() {
        let small = base_item();
        let big = Item::builder(small.id(), small.version())
            .payload(vec![0; 1000])
            .build();
        assert!(big.approx_size() > small.approx_size());
        assert!(big.approx_size() >= 1000);
    }

    #[test]
    fn debug_shows_identity() {
        let s = format!("{:?}", base_item());
        assert!(s.contains("R1#1"));
    }
}
