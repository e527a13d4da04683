//! A classic, replication-free DTN node for comparison.
//!
//! Before the replication substrate, DTN protocols built their own
//! duplicate suppression: "store identifiers of recently seen messages and
//! compare this information with a communication partner before exchanging
//! messages" (paper §II-A) — the *summary vector* of Epidemic routing.
//! This module implements that classic design faithfully so the repository
//! can quantify the paper's §III claim: the replication substrate's
//! knowledge provides the same suppression with metadata proportional to
//! the number of *replicas*, while summary vectors grow with the number of
//! *messages*.
//!
//! [`AdhocNode`] is deliberately minimal: epidemic flooding, summary-vector
//! exchange, per-message ids. It delivers the same messages as the
//! substrate-based epidemic policy; what differs is the metadata each
//! encounter must ship, measured by [`AdhocNode::summary_vector_bytes`]
//! versus the encoded size of [`pfr::Knowledge`].

use std::collections::{BTreeMap, BTreeSet};

use pfr::wire::Writer;
use pfr::{ItemId, ReplicaId, SimTime};

/// A message in the ad-hoc store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdhocMessage {
    /// Globally unique message id (origin + sequence, like the substrate's
    /// item ids).
    pub id: ItemId,
    /// Sender address.
    pub src: String,
    /// Destination address.
    pub dest: String,
    /// Body.
    pub payload: Vec<u8>,
}

/// A DTN node implemented the pre-replication way: a message store plus a
/// summary vector of every message id ever seen.
///
/// # Examples
///
/// ```
/// use dtn::adhoc::AdhocNode;
/// use pfr::{ReplicaId, SimTime};
///
/// let mut a = AdhocNode::new(ReplicaId::new(1), "a");
/// let mut b = AdhocNode::new(ReplicaId::new(2), "b");
/// a.send("b", b"hi".to_vec());
/// a.encounter(&mut b, SimTime::ZERO);
/// assert_eq!(b.inbox().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct AdhocNode {
    id: ReplicaId,
    address: String,
    next_seq: u64,
    store: BTreeMap<ItemId, AdhocMessage>,
    /// The summary vector: ids of every message this node has seen.
    seen: BTreeSet<ItemId>,
}

impl AdhocNode {
    /// Creates a node with one address.
    pub fn new(id: ReplicaId, address: &str) -> Self {
        AdhocNode {
            id,
            address: address.to_string(),
            next_seq: 0,
            store: BTreeMap::new(),
            seen: BTreeSet::new(),
        }
    }

    /// The node's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Queues a message for `dest`.
    pub fn send(&mut self, dest: &str, payload: Vec<u8>) -> ItemId {
        self.next_seq += 1;
        let id = ItemId::new(self.id, self.next_seq);
        let message = AdhocMessage {
            id,
            src: self.address.clone(),
            dest: dest.to_string(),
            payload,
        };
        self.store.insert(id, message);
        self.seen.insert(id);
        id
    }

    /// Messages addressed to this node.
    pub fn inbox(&self) -> Vec<&AdhocMessage> {
        self.store
            .values()
            .filter(|m| m.dest == self.address)
            .collect()
    }

    /// The classic epidemic encounter: the nodes exchange summary vectors,
    /// then each sends the messages the other has not seen. Returns the
    /// number of messages transferred (both directions).
    pub fn encounter(&mut self, other: &mut AdhocNode, _now: SimTime) -> usize {
        let to_other: Vec<AdhocMessage> = self
            .store
            .values()
            .filter(|m| !other.seen.contains(&m.id))
            .cloned()
            .collect();
        let to_self: Vec<AdhocMessage> = other
            .store
            .values()
            .filter(|m| !self.seen.contains(&m.id))
            .cloned()
            .collect();
        let transferred = to_other.len() + to_self.len();
        for m in to_other {
            other.seen.insert(m.id);
            other.store.insert(m.id, m);
        }
        for m in to_self {
            self.seen.insert(m.id);
            self.store.insert(m.id, m);
        }
        transferred
    }

    /// The encoded size of this node's summary vector — the metadata it
    /// must ship at each encounter. Grows with every message ever seen.
    pub fn summary_vector_bytes(&self) -> usize {
        let mut w = Writer::new();
        w.put_varint(self.seen.len() as u64);
        for id in &self.seen {
            use pfr::wire::Encode as _;
            id.encode(&mut w);
        }
        w.into_bytes().len()
    }

    /// Number of entries in the summary vector.
    pub fn summary_vector_len(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(n: u64, addr: &str) -> AdhocNode {
        AdhocNode::new(ReplicaId::new(n), addr)
    }

    #[test]
    fn flooding_delivers_multi_hop() {
        let mut a = node(1, "a");
        let mut b = node(2, "b");
        let mut c = node(3, "c");
        a.send("c", b"m".to_vec());
        a.encounter(&mut b, SimTime::ZERO);
        b.encounter(&mut c, SimTime::from_secs(60));
        assert_eq!(c.inbox().len(), 1);
        assert_eq!(c.inbox()[0].src, "a");
    }

    #[test]
    fn summary_vectors_suppress_duplicates() {
        let mut a = node(1, "a");
        let mut b = node(2, "b");
        a.send("b", b"m".to_vec());
        assert_eq!(a.encounter(&mut b, SimTime::ZERO), 1);
        assert_eq!(a.encounter(&mut b, SimTime::from_secs(1)), 0, "suppressed");
        // Even via a third party, b never re-receives.
        let mut c = node(3, "c");
        a.encounter(&mut c, SimTime::from_secs(2));
        assert_eq!(c.encounter(&mut b, SimTime::from_secs(3)), 0);
    }

    #[test]
    fn summary_vector_grows_with_messages() {
        let mut a = node(1, "a");
        let mut b = node(2, "b");
        let empty = b.summary_vector_bytes();
        for i in 0..100 {
            a.send(&format!("d{i}"), vec![0]);
        }
        a.encounter(&mut b, SimTime::ZERO);
        assert_eq!(b.summary_vector_len(), 100);
        assert!(
            b.summary_vector_bytes() >= empty + 100,
            "metadata grows with message count"
        );
    }

    #[test]
    fn ids_never_collide_across_nodes() {
        let mut a = node(1, "a");
        let mut b = node(2, "b");
        let ia = a.send("x", vec![]);
        let ib = b.send("x", vec![]);
        assert_ne!(ia, ib);
    }
}
