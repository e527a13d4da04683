//! Durable replica state: snapshot and restore.
//!
//! A DTN device can reboot between encounters; everything a replica needs
//! to resume — identity, filter, knowledge, stored items (with their
//! store classification, arrival order, and transient routing metadata),
//! and write counters — serializes through the same compact wire codec the
//! sync protocol uses. Restoring a snapshot yields a replica that behaves
//! identically from that point on; in particular its knowledge matches its
//! store, so at-most-once delivery is preserved across the restart.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::error::PfrError;
use crate::filter::Filter;
use crate::id::{ItemId, ReplicaId};
use crate::item::Item;
use crate::knowledge::Knowledge;
use crate::replica::Replica;
use crate::store::StoreKind;
use crate::time::SimTime;
use crate::wire::{Decode, Encode, Reader, WireError, Writer};

/// Snapshot format version, bumped on layout changes.
const SNAPSHOT_VERSION: u8 = 1;

impl Encode for StoreKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            StoreKind::InFilter => 0,
            StoreKind::PushOut => 1,
            StoreKind::Relay => 2,
        });
    }
}

impl Decode for StoreKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(StoreKind::InFilter),
            1 => Ok(StoreKind::PushOut),
            2 => Ok(StoreKind::Relay),
            tag => Err(WireError::InvalidTag {
                what: "StoreKind",
                tag,
            }),
        }
    }
}

/// One stored item as a snapshot records it: the item, how it is held,
/// and when it arrived.
pub type ItemRecord = (Item, StoreKind, SimTime);

/// Everything a snapshot records, as values. [`Replica::restore`] decodes
/// these from one buffer; a store that keeps a replica as separate keys
/// gathers them itself and calls [`Replica::from_parts`].
#[derive(Debug)]
pub struct ReplicaParts {
    /// The replica's identity.
    pub id: ReplicaId,
    /// Its filter.
    pub filter: Filter,
    /// Every version it has learned.
    pub knowledge: Knowledge,
    /// Items it has created (see [`Replica::write_counters`]).
    pub next_item_seq: u64,
    /// Versions it has created.
    pub next_version_counter: u64,
    /// The relay storage cap.
    pub relay_limit: Option<usize>,
    /// The stored items.
    pub items: Vec<ItemRecord>,
    /// Relay item ids in eviction order, oldest first.
    pub relay_fifo: Vec<ItemId>,
}

/// Decodes one [`ItemRecord`] as [`Replica::encode_item_record`] wrote it.
///
/// # Errors
///
/// [`WireError`] when the bytes are not a whole record.
pub fn decode_item_record(r: &mut Reader<'_>) -> Result<ItemRecord, WireError> {
    let item = Item::decode(r)?;
    let kind = StoreKind::decode(r)?;
    let received_at = SimTime::from_secs(r.get_varint()?);
    Ok((item, kind, received_at))
}

impl Replica {
    /// Serializes the replica's full durable state.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.snapshot_into(&mut w);
        w.into_bytes()
    }

    /// Serializes the replica's full durable state into a caller-owned
    /// [`Writer`], clearing it first. Steady-state snapshotting (the
    /// sharded emulator spills thousands of replicas per run) reuses one
    /// buffer instead of allocating per snapshot.
    pub fn snapshot_into(&self, w: &mut Writer) {
        w.clear();
        w.put_u8(SNAPSHOT_VERSION);
        self.id().encode(w);
        self.filter().encode(w);
        self.knowledge().encode(w);
        let (next_item_seq, next_version_counter) = self.write_counters();
        w.put_varint(next_item_seq);
        w.put_varint(next_version_counter);
        match self.relay_limit() {
            None => w.put_u8(0),
            Some(n) => {
                w.put_u8(1);
                w.put_varint(n as u64);
            }
        }
        let ids = self.item_ids();
        w.put_varint(ids.len() as u64);
        for id in ids {
            let listed = self.encode_item_record(id, w);
            debug_assert!(listed.is_some(), "listed id present");
        }
        let fifo = self.relay_fifo();
        w.put_varint(fifo.len() as u64);
        for id in fifo {
            id.encode(w);
        }
    }

    /// Reconstructs a replica from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`PfrError::BadSnapshot`] for an unknown format version or
    /// trailing garbage, and [`PfrError::SnapshotDecode`] when bytes
    /// inside a field are corrupt.
    pub fn restore(bytes: &[u8]) -> Result<Replica, PfrError> {
        let Some((&version, body)) = bytes.split_first() else {
            return Err(PfrError::SnapshotDecode {
                message: "empty snapshot".into(),
            });
        };
        if version != SNAPSHOT_VERSION {
            return Err(PfrError::BadSnapshot {
                version: Some(version),
                trailing: 0,
            });
        }
        // Restore decodes through the shared-buffer path: every restored
        // item's payload is a slice into this one backing buffer instead
        // of a private allocation per item.
        let backing: std::sync::Arc<[u8]> = body.into();
        let mut r = Reader::shared(&backing);
        (|| -> Result<Replica, WireError> {
            let id = ReplicaId::decode(&mut r)?;
            let filter = Filter::decode(&mut r)?;
            let knowledge = Knowledge::decode(&mut r)?;
            let next_item_seq = r.get_varint()?;
            let next_version_counter = r.get_varint()?;
            let relay_limit = match r.get_u8()? {
                0 => None,
                _ => Some(r.get_varint()? as usize),
            };
            let n = r.get_len(8)?;
            let mut items: Vec<ItemRecord> = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_item_record(&mut r)?);
            }
            let relay_fifo = Vec::<ItemId>::decode(&mut r)?;
            if r.remaining() != 0 {
                return Err(WireError::TrailingBytes(r.remaining()));
            }
            Ok(Replica::from_parts(ReplicaParts {
                id,
                filter,
                knowledge,
                next_item_seq,
                next_version_counter,
                relay_limit,
                items,
                relay_fifo,
            }))
        })()
        .map_err(|e| match e {
            // The trailing-bytes check is the last step above, so this
            // arm fires only for garbage after a fully decoded snapshot.
            WireError::TrailingBytes(n) => PfrError::BadSnapshot {
                version: None,
                trailing: n,
            },
            e => PfrError::SnapshotDecode {
                message: e.to_string(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttributeMap;
    use crate::sync;

    fn dest(d: &str) -> AttributeMap {
        let mut a = AttributeMap::new();
        a.set("dest", d);
        a
    }

    fn populated_replica() -> Replica {
        let mut other = Replica::new(ReplicaId::new(9), Filter::All);
        let mut r = Replica::new(ReplicaId::new(1), Filter::address("dest", "me"));
        r.set_relay_limit(Some(5));
        r.insert(dest("me"), b"mine".to_vec()).unwrap();
        let out = r.insert(dest("elsewhere"), b"pushout".to_vec()).unwrap();
        r.set_transient(out, "dtn.ttl", 7i64).unwrap();
        // Receive a relay item and an in-filter item from a peer.
        for d in ["relayed", "me"] {
            let id = other.insert(dest(d), d.as_bytes().to_vec()).unwrap();
            let item = other.item(id).unwrap().clone();
            r.apply_remote(item, SimTime::from_secs(42));
        }
        r
    }

    #[test]
    fn snapshot_roundtrip_preserves_observable_state() {
        let original = populated_replica();
        let restored = Replica::restore(&original.snapshot()).expect("restore");

        assert_eq!(restored.id(), original.id());
        assert_eq!(restored.filter(), original.filter());
        assert_eq!(restored.knowledge(), original.knowledge());
        assert_eq!(restored.relay_limit(), original.relay_limit());
        assert_eq!(restored.item_ids(), original.item_ids());
        for id in original.item_ids() {
            assert_eq!(restored.item(id), original.item(id), "item {id}");
            assert_eq!(restored.store_kind(id), original.store_kind(id));
            assert_eq!(restored.received_at(id), original.received_at(id));
        }
    }

    #[test]
    fn restored_replica_continues_allocating_fresh_versions() {
        let mut original = populated_replica();
        let mut restored = Replica::restore(&original.snapshot()).expect("restore");
        let id_a = original.insert(dest("x"), vec![]).unwrap();
        let id_b = restored.insert(dest("x"), vec![]).unwrap();
        assert_eq!(id_a, id_b, "counters resume identically");
        assert_eq!(
            original.item(id_a).unwrap().version(),
            restored.item(id_b).unwrap().version()
        );
    }

    #[test]
    fn restart_does_not_break_at_most_once() {
        let mut source = Replica::new(ReplicaId::new(2), Filter::All);
        let mut target = Replica::new(ReplicaId::new(1), Filter::address("dest", "me"));
        let id = source.insert(dest("me"), b"m".to_vec()).unwrap();
        sync::sync_once(&mut source, &mut target, SimTime::ZERO);
        assert!(target.contains_item(id));

        // Crash and restore the target; the source tries again.
        let mut target = Replica::restore(&target.snapshot()).expect("restore");
        let report = sync::sync_once(&mut source, &mut target, SimTime::from_secs(60));
        assert_eq!(report.transmitted, 0, "knowledge survived the restart");
        assert_eq!(report.duplicates, 0);
    }

    #[test]
    fn restore_after_stale_snapshot_reconverges() {
        // Snapshot, receive more items, crash back to the snapshot: the
        // lost items are re-replicated without duplicate deliveries.
        let mut source = Replica::new(ReplicaId::new(2), Filter::All);
        let mut target = Replica::new(ReplicaId::new(1), Filter::address("dest", "me"));
        let early = source.insert(dest("me"), b"early".to_vec()).unwrap();
        sync::sync_once(&mut source, &mut target, SimTime::ZERO);
        let snapshot = target.snapshot();

        let late = source.insert(dest("me"), b"late".to_vec()).unwrap();
        sync::sync_once(&mut source, &mut target, SimTime::from_secs(10));
        assert!(target.contains_item(late));

        let mut target = Replica::restore(&snapshot).expect("restore");
        assert!(!target.contains_item(late), "rolled back");
        let report = sync::sync_once(&mut source, &mut target, SimTime::from_secs(20));
        assert_eq!(report.transmitted, 1, "only the lost item is re-sent");
        assert!(target.contains_item(late));
        assert!(target.contains_item(early));
        assert_eq!(report.duplicates, 0);
    }

    #[test]
    fn relay_fifo_order_survives_restore() {
        let mut other = Replica::new(ReplicaId::new(9), Filter::All);
        let mut r = Replica::new(ReplicaId::new(1), Filter::address("dest", "me"));
        let mut relay_ids = Vec::new();
        for i in 0..3 {
            let id = other.insert(dest(&format!("d{i}")), vec![i]).unwrap();
            let item = other.item(id).unwrap().clone();
            r.apply_remote(item, SimTime::from_secs(i as u64));
            relay_ids.push(id);
        }
        let mut restored = Replica::restore(&r.snapshot()).expect("restore");
        restored.set_relay_limit(Some(2));
        // Oldest relay item must be the first evicted, as before the crash.
        assert!(!restored.contains_item(relay_ids[0]));
        assert!(restored.contains_item(relay_ids[1]));
        assert!(restored.contains_item(relay_ids[2]));
    }

    #[test]
    fn restored_payloads_share_one_snapshot_buffer() {
        let original = populated_replica();
        let restored = Replica::restore(&original.snapshot()).expect("restore");
        let buffer_ids: Vec<usize> = restored
            .iter_items()
            .map(|i| i.payload_shared())
            .filter(|p| !p.is_empty())
            .map(|p| p.buffer_id())
            .collect();
        assert!(buffer_ids.len() >= 2, "fixture has payload-bearing items");
        assert!(
            buffer_ids.windows(2).all(|w| w[0] == w[1]),
            "all restored payloads slice the same backing buffer"
        );
    }

    #[test]
    fn corrupt_snapshots_fail_cleanly() {
        let replica = populated_replica();
        let good = replica.snapshot();
        // Truncations and bit flips must all produce errors, not panics.
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            let err = Replica::restore(&good[..cut]).unwrap_err();
            assert!(matches!(err, PfrError::SnapshotDecode { .. }));
        }
        let mut bad_version = good.clone();
        bad_version[0] = 99;
        let err = Replica::restore(&bad_version).unwrap_err();
        assert_eq!(
            err,
            PfrError::BadSnapshot {
                version: Some(99),
                trailing: 0
            }
        );
        assert!(err.to_string().contains("snapshot"));
    }

    #[test]
    fn trailing_garbage_is_a_typed_error() {
        let mut padded = populated_replica().snapshot();
        padded.extend_from_slice(b"junk");
        let err = Replica::restore(&padded).unwrap_err();
        assert_eq!(
            err,
            PfrError::BadSnapshot {
                version: None,
                trailing: 4
            }
        );
        assert!(err.to_string().contains("4 trailing bytes"));
    }
}
