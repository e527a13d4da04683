//! Wire types for gossip membership exchange.
//!
//! A gossip exchange is one [`FrameType::Gossip`](crate::frame::FrameType)
//! frame each way: the dialer sends its [`GossipMessage`] (its full view of
//! the mesh), the answerer merges it and replies with its own. Entries
//! carry an *age* rather than a timestamp so no clock synchronization is
//! assumed: each hop re-ages entries against its local clock.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use pfr::wire::{Decode, Encode, Reader, WireError, Writer};

/// Liveness verdict a node holds about a peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerStatus {
    /// Recently heard from (directly or through gossip).
    Alive = 0,
    /// Not heard from within the suspicion window; still disseminated so
    /// the suspicion propagates (and the peer can refute it by bumping
    /// its incarnation).
    Suspect = 1,
}

impl PeerStatus {
    fn from_tag(tag: u8) -> Result<PeerStatus, WireError> {
        match tag {
            0 => Ok(PeerStatus::Alive),
            1 => Ok(PeerStatus::Suspect),
            tag => Err(WireError::InvalidTag {
                what: "PeerStatus",
                tag,
            }),
        }
    }
}

/// One membership entry as it travels in a gossip frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerWire {
    /// The peer's replica id (raw `u64`, 0 never valid).
    pub replica: u64,
    /// The peer's listen address, as a string so decode never fails on
    /// an unparseable address — it is validated at dial time instead.
    pub addr: String,
    /// The peer's incarnation number: bumped by the peer itself when it
    /// rejoins or refutes a suspicion. Higher incarnation always wins.
    pub incarnation: u64,
    /// The sender's verdict on this peer.
    pub status: PeerStatus,
    /// How long ago (milliseconds) the *sender* last confirmed this
    /// entry, re-aged at every hop.
    pub age_ms: u64,
}

impl Encode for PeerWire {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.replica);
        w.put_str(&self.addr);
        w.put_varint(self.incarnation);
        w.put_u8(self.status as u8);
        w.put_varint(self.age_ms);
    }
}

impl Decode for PeerWire {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PeerWire {
            replica: r.get_varint()?,
            addr: r.get_str()?,
            incarnation: r.get_varint()?,
            status: PeerStatus::from_tag(r.get_u8()?)?,
            age_ms: r.get_varint()?,
        })
    }
}

/// One node's view of the mesh, the payload of a gossip frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GossipMessage {
    /// The sender's own entry (always alive, age 0 by construction).
    pub sender: PeerWire,
    /// Every other member the sender tracks, suspects included.
    pub entries: Vec<PeerWire>,
}

impl Encode for GossipMessage {
    fn encode(&self, w: &mut Writer) {
        self.sender.encode(w);
        w.put_varint(self.entries.len() as u64);
        for entry in &self.entries {
            entry.encode(w);
        }
    }
}

impl Decode for GossipMessage {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let sender = PeerWire::decode(r)?;
        // A serialized entry is at least 5 bytes (varint replica, empty
        // string, varint incarnation, status byte, varint age), bounding
        // the allocation a lying count can force.
        let count = r.get_len(5)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(PeerWire::decode(r)?);
        }
        Ok(GossipMessage { sender, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfr::wire::{from_bytes, to_bytes};

    fn peer(replica: u64, addr: &str, inc: u64, status: PeerStatus, age: u64) -> PeerWire {
        PeerWire {
            replica,
            addr: addr.to_string(),
            incarnation: inc,
            status,
            age_ms: age,
        }
    }

    #[test]
    fn gossip_message_round_trips() {
        let msg = GossipMessage {
            sender: peer(1, "10.0.0.1:7000", 3, PeerStatus::Alive, 0),
            entries: vec![
                peer(2, "10.0.0.2:7000", 1, PeerStatus::Alive, 250),
                peer(9, "[::1]:9999", 7, PeerStatus::Suspect, 60_000),
            ],
        };
        let bytes = to_bytes(&msg);
        let decoded: GossipMessage = from_bytes(&bytes).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(to_bytes(&decoded), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn invalid_status_tag_is_a_typed_error() {
        let msg = GossipMessage {
            sender: peer(1, "a:1", 0, PeerStatus::Alive, 0),
            entries: vec![],
        };
        let mut bytes = to_bytes(&msg);
        // The status byte of the sender entry is right before its age.
        let pos = bytes.len() - 3; // ... status, age(1B), count(1B)
        assert_eq!(bytes[pos], 0);
        bytes[pos] = 9;
        let err = from_bytes::<GossipMessage>(&bytes).unwrap_err();
        assert!(matches!(
            err,
            WireError::InvalidTag {
                what: "PeerStatus",
                tag: 9
            }
        ));
    }

    #[test]
    fn truncated_message_is_an_error_not_a_panic() {
        let msg = GossipMessage {
            sender: peer(1, "host:1", 2, PeerStatus::Alive, 0),
            entries: vec![peer(2, "host:2", 1, PeerStatus::Alive, 10)],
        };
        let bytes = to_bytes(&msg);
        for cut in 0..bytes.len() {
            assert!(from_bytes::<GossipMessage>(&bytes[..cut]).is_err());
        }
    }
}
