//! Identifiers for replicas, items, and item versions.
//!
//! All identifiers are small `Copy` newtypes (C-NEWTYPE) with total
//! orderings, so they can be used as map keys and serialized compactly on
//! the wire.

use std::fmt;

/// Identifies a replica (a host participating in replication).
///
/// In the DTN application every device — every bus in the vehicular
/// experiments — runs exactly one replica, so a `ReplicaId` doubles as a
/// host/node identifier.
///
/// # Examples
///
/// ```
/// use pfr::ReplicaId;
///
/// let a = ReplicaId::new(1);
/// let b = ReplicaId::new(2);
/// assert!(a < b);
/// assert_eq!(a.as_u64(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(u64);

impl ReplicaId {
    /// Creates a replica identifier from a raw integer.
    pub const fn new(raw: u64) -> Self {
        ReplicaId(raw)
    }

    /// Returns the raw integer value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u64> for ReplicaId {
    fn from(raw: u64) -> Self {
        ReplicaId(raw)
    }
}

/// Globally unique identifier for a replicated item.
///
/// An item id is the pair of the replica that created the item (its
/// *origin*) and a sequence number local to that origin. Origins allocate
/// sequence numbers monotonically, so ids never collide without any
/// coordination — exactly what a disconnected system needs.
///
/// # Examples
///
/// ```
/// use pfr::{ItemId, ReplicaId};
///
/// let id = ItemId::new(ReplicaId::new(7), 42);
/// assert_eq!(id.origin(), ReplicaId::new(7));
/// assert_eq!(id.seq(), 42);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId {
    origin: ReplicaId,
    seq: u64,
}

impl ItemId {
    /// Creates an item id from an origin replica and a per-origin sequence
    /// number.
    pub const fn new(origin: ReplicaId, seq: u64) -> Self {
        ItemId { origin, seq }
    }

    /// The replica that created the item.
    pub const fn origin(self) -> ReplicaId {
        self.origin
    }

    /// The origin-local sequence number.
    pub const fn seq(self) -> u64 {
        self.seq
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// A version stamp for one write to one item.
///
/// A version is the pair of the replica that performed the write and a
/// counter local to that replica. Counters are allocated from a single
/// per-replica sequence shared by all items, which is what lets
/// [`Knowledge`](crate::Knowledge) compact runs of versions into a single
/// vector entry.
///
/// Versions from the same replica are totally ordered by counter; versions
/// from different replicas are only ordered arbitrarily (by `(counter,
/// replica)`), which [`Replica`](crate::Replica) uses as a deterministic
/// last-writer-wins tiebreak for concurrent updates.
///
/// # Examples
///
/// ```
/// use pfr::{ReplicaId, Version};
///
/// let v1 = Version::new(ReplicaId::new(1), 10);
/// let v2 = Version::new(ReplicaId::new(2), 11);
/// assert!(v1 < v2); // ordered by counter first
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Version {
    counter: u64,
    replica: ReplicaId,
}

impl Version {
    /// Creates a version stamp.
    pub const fn new(replica: ReplicaId, counter: u64) -> Self {
        Version { counter, replica }
    }

    /// The replica that performed the write.
    pub const fn replica(self) -> ReplicaId {
        self.replica
    }

    /// The per-replica write counter.
    pub const fn counter(self) -> u64 {
        self.counter
    }
}

impl PartialOrd for Version {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Version {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.counter, self.replica).cmp(&(other.counter, other.replica))
    }
}

impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.replica, self.counter)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.replica, self.counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_id_roundtrip_and_order() {
        let a = ReplicaId::new(3);
        let b = ReplicaId::from(9);
        assert_eq!(a.as_u64(), 3);
        assert!(a < b);
        assert_eq!(format!("{a}"), "R3");
        assert_eq!(format!("{a:?}"), "R3");
    }

    #[test]
    fn item_id_accessors_and_display() {
        let id = ItemId::new(ReplicaId::new(5), 77);
        assert_eq!(id.origin().as_u64(), 5);
        assert_eq!(id.seq(), 77);
        assert_eq!(format!("{id}"), "R5#77");
    }

    #[test]
    fn item_ids_from_different_origins_never_collide() {
        let a = ItemId::new(ReplicaId::new(1), 1);
        let b = ItemId::new(ReplicaId::new(2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn version_orders_by_counter_then_replica() {
        let v1 = Version::new(ReplicaId::new(9), 1);
        let v2 = Version::new(ReplicaId::new(1), 2);
        assert!(v1 < v2, "counter dominates ordering");

        let v3 = Version::new(ReplicaId::new(1), 2);
        let v4 = Version::new(ReplicaId::new(2), 2);
        assert!(v3 < v4, "replica breaks counter ties");
    }

    #[test]
    fn version_display() {
        let v = Version::new(ReplicaId::new(4), 12);
        assert_eq!(format!("{v}"), "R4@12");
    }

    #[test]
    fn ids_usable_as_map_keys() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(ItemId::new(ReplicaId::new(1), 1), "x");
        m.insert(ItemId::new(ReplicaId::new(1), 2), "y");
        assert_eq!(m.len(), 2);
    }
}
