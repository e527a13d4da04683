//! Durability seam: a [`DtnNode`] backed by the crash-safe [`store`]
//! engine, so replica items, knowledge, addresses, and routing state all
//! survive `kill -9`.
//!
//! The node is laid out as keys in the store, not as one blob:
//!
//! ```text
//! node/meta          layout version · replica id · policy name · addresses
//!                    · extra filter addresses · filter · relay limit
//! node/state         knowledge · item counter · version counter
//! node/policy        the policy's `save_state()` bytes
//! node/persisted_at  varint seconds of the last persist that wrote
//! item/<origin:8 BE><seq:8 BE>
//!                    varint arrival · item · kind · received_at
//! ```
//!
//! `arrival` orders relay items: ascending arrivals are the relay FIFO
//! (0 for items of other kinds), so eviction order is recoverable from
//! the item keys alone and a relay handoff rewrites one key, not a list.
//! The item part of a value is exactly the record [`Replica::snapshot`]
//! writes for that item.
//!
//! [`DtnNode::persist`] writes what changed since the last one — items
//! whose write stamp moved (see [`Replica::item_stamps`]), deletes for
//! ids that left the replica, singleton keys whose bytes differ — as one
//! [`store::Batch`], which is one WAL record: after a crash all of a
//! persist's state is there or none of it is. The persist time follows
//! as a second small record in the same append; it is the one part that
//! may be lost alone, which makes the record most exposed to a torn
//! write also the cheapest to lose. Replay stays a fold of idempotent
//! whole-value puts and deletes, so a crash costs at most the syncs
//! since the last persist — and at-most-once delivery still holds,
//! because a restored node's knowledge matches its restored items and
//! the protocol simply re-replicates whatever was lost.

use std::path::Path;

use obs::Obs;
use pfr::wire::{Decode, Encode, Reader, WireError, Writer};
use pfr::{
    Filter, ItemId, Knowledge, PfrError, Replica, ReplicaId, ReplicaParts, SimTime, StoreKind,
};
use store::{Batch, RecoveryReport, Store, StoreConfig, StoreError};

use crate::host::{get_strings, put_strings, DtnNode, PersistedNode};
use crate::policy::PolicyKind;

const KEY_META: &[u8] = b"node/meta";
const KEY_STATE: &[u8] = b"node/state";
const KEY_POLICY: &[u8] = b"node/policy";
const KEY_PERSISTED_AT: &[u8] = b"node/persisted_at";
const ITEM_PREFIX: &[u8] = b"item/";
/// The key earlier versions kept the whole node snapshot under.
const KEY_BLOB: &[u8] = b"node";
/// Version of the key layout, first byte of `node/meta`.
const LAYOUT_VERSION: u8 = 1;

fn item_key(id: ItemId) -> [u8; ITEM_PREFIX.len() + 16] {
    let mut key = [0u8; ITEM_PREFIX.len() + 16];
    let (prefix, rest) = key.split_at_mut(ITEM_PREFIX.len());
    prefix.copy_from_slice(ITEM_PREFIX);
    rest[..8].copy_from_slice(&id.origin().as_u64().to_be_bytes());
    rest[8..].copy_from_slice(&id.seq().to_be_bytes());
    key
}

fn parse_item_key(key: &[u8]) -> Option<ItemId> {
    let rest: &[u8; 16] = key.strip_prefix(ITEM_PREFIX)?.try_into().ok()?;
    let (origin, seq) = rest.split_at(8);
    Some(ItemId::new(
        ReplicaId::new(u64::from_be_bytes(origin.try_into().ok()?)),
        u64::from_be_bytes(seq.try_into().ok()?),
    ))
}

/// A node's store together with a mirror of what the store holds of it,
/// so a persist compares integers instead of encoding the node.
pub(crate) struct Durable {
    pub(crate) store: Store,
    /// Ids with an `item/` key in the store, ascending.
    ids: Vec<ItemId>,
    /// The stored relay items and their arrivals, in FIFO order.
    fifo: Vec<(ItemId, u64)>,
    /// The replica's write clock at the last persist: items stamped later
    /// have changed. `None` until a first persist has compared every
    /// item's bytes with the store's, which an attached store needs
    /// because it may hold anything.
    clock: Option<u64>,
    /// Keys the layout does not know; the next persist deletes them.
    strays: Vec<Vec<u8>>,
    /// `ids` and `fifo` as the persist under way will leave them.
    next_ids: Vec<ItemId>,
    next_fifo: Vec<(ItemId, u64)>,
    value: Writer,
    batch: Batch,
    stamp: Batch,
}

impl Durable {
    /// Wraps `store`, mirroring the item keys it already holds. `clock`
    /// is the write clock of a replica known to equal them, if any.
    fn new(store: Store, clock: Option<u64>) -> Durable {
        let (mut ids, mut fifo, mut strays) = (Vec::new(), Vec::new(), Vec::new());
        for (key, value) in store.iter() {
            if let Some(id) = parse_item_key(key) {
                ids.push(id);
                match Reader::new(value).get_varint() {
                    Ok(0) | Err(_) => {}
                    Ok(arrival) => fifo.push((id, arrival)),
                }
            } else if ![KEY_META, KEY_STATE, KEY_POLICY, KEY_PERSISTED_AT].contains(&key) {
                strays.push(key.to_vec());
            }
        }
        fifo.sort_unstable_by_key(|&(id, arrival)| (arrival, id));
        Durable {
            store,
            ids,
            fifo,
            clock,
            strays,
            next_ids: Vec::new(),
            next_fifo: Vec::new(),
            value: Writer::new(),
            batch: Batch::new(),
            stamp: Batch::new(),
        }
    }

    /// Stages a put for every item written since the last persist and a
    /// delete for every stored id the replica no longer holds.
    fn stage_items(&mut self, replica: &Replica) {
        // Relay items keep their stored arrival while the stored order
        // still matches the FIFO; from the first that does not (pushed
        // since, or pushed again) every later one is numbered afresh.
        // Either way arrivals ascend along the FIFO.
        self.next_fifo.clear();
        let mut stored = self.fifo.iter();
        let mut last = 0;
        for id in replica.relay_fifo() {
            last = match stored.find(|(known, _)| *known == id) {
                Some(&(_, arrival)) => arrival,
                None => last + 1,
            };
            self.next_fifo.push((id, last));
        }

        self.next_ids.clear();
        let mut stored = self.ids.iter().copied().peekable();
        for (id, stamp) in replica.item_stamps() {
            while let Some(gone) = stored.next_if(|&known| known < id) {
                self.batch.delete(&item_key(gone));
            }
            let known = stored.next_if_eq(&id).is_some();
            self.next_ids.push(id);
            if known && self.clock.is_some_and(|clock| stamp <= clock) {
                continue;
            }
            // A new relay item is at or near the FIFO's tail.
            let arrival = match replica.store_kind(id) {
                Some(StoreKind::Relay) => self
                    .next_fifo
                    .iter()
                    .rev()
                    .find(|(relay, _)| *relay == id)
                    .map_or(0, |&(_, arrival)| arrival),
                _ => 0,
            };
            self.value.clear();
            self.value.put_varint(arrival);
            replica.encode_item_record(id, &mut self.value);
            let key = item_key(id);
            if self.clock.is_some() || self.store.get(&key) != Some(self.value.as_slice()) {
                self.batch.put(&key, self.value.as_slice());
            }
        }
        for gone in stored {
            self.batch.delete(&item_key(gone));
        }
    }

    fn persist(&mut self, node: &DtnNode, now: SimTime) -> Result<(), StoreError> {
        self.batch.clear();
        let clock = node.replica().write_clock();
        let items_moved = self.clock != Some(clock);
        if items_moved {
            self.stage_items(node.replica());
        }
        let Durable {
            store,
            batch,
            stamp,
            value,
            strays,
            ..
        } = self;
        for key in strays.iter() {
            batch.delete(key);
        }
        // A singleton key is written when its fresh bytes differ.
        let mut stage = |key: &[u8], fresh: &[u8]| {
            if store.get(key) != Some(fresh) {
                batch.put(key, fresh);
            }
        };
        value.clear();
        encode_meta(node, value);
        stage(KEY_META, value.as_slice());
        value.clear();
        encode_state(node.replica(), value);
        stage(KEY_STATE, value.as_slice());
        stage(KEY_POLICY, &node.policy().save_state());

        if !batch.is_empty() {
            value.clear();
            value.put_varint(now.as_secs());
            stamp.clear();
            stamp.put(KEY_PERSISTED_AT, value.as_slice());
            store.commit(&[batch, stamp])?;
        }
        strays.clear();
        if items_moved {
            std::mem::swap(&mut self.ids, &mut self.next_ids);
            std::mem::swap(&mut self.fifo, &mut self.next_fifo);
        }
        self.clock = Some(clock);
        Ok(())
    }
}

fn encode_meta(node: &DtnNode, w: &mut Writer) {
    let replica = node.replica();
    w.put_u8(LAYOUT_VERSION);
    replica.id().encode(w);
    w.put_str(node.policy().name());
    put_strings(w, &node.addresses);
    put_strings(w, &node.extra_filter_addrs);
    replica.filter().encode(w);
    // 0 = no cap, n + 1 = a cap of n.
    w.put_varint(replica.relay_limit().map_or(0, |n| n as u64 + 1));
}

fn encode_state(replica: &Replica, w: &mut Writer) {
    replica.knowledge().encode(w);
    let (next_item_seq, next_version_counter) = replica.write_counters();
    w.put_varint(next_item_seq);
    w.put_varint(next_version_counter);
}

/// Reads back the node the keys of `store` describe; `None` for a store
/// that holds no node yet.
fn load(store: &Store) -> Result<Option<PersistedNode>, RestoreError> {
    let Some(meta) = store.get(KEY_META) else {
        if store.contains(KEY_BLOB) {
            return Err(RestoreError::UnsupportedLayout { version: None });
        }
        return Ok(None);
    };
    match meta.first() {
        Some(&LAYOUT_VERSION) => {}
        version => {
            return Err(RestoreError::UnsupportedLayout {
                version: version.copied(),
            })
        }
    }
    let whole = |r: &Reader<'_>| match r.remaining() {
        0 => Ok(()),
        n => Err(WireError::TrailingBytes(n)),
    };
    let decode = || -> Result<PersistedNode, WireError> {
        let mut r = Reader::new(&meta[1..]);
        let id = ReplicaId::decode(&mut r)?;
        let policy_name = r.get_str()?;
        let addresses = get_strings(&mut r)?;
        let extra_filter_addrs = get_strings(&mut r)?;
        let filter = Filter::decode(&mut r)?;
        let relay_limit = r.get_varint()?.checked_sub(1).map(|n| n as usize);
        whole(&r)?;

        let mut r = Reader::new(store.get(KEY_STATE).ok_or(WireError::UnexpectedEof)?);
        let knowledge = Knowledge::decode(&mut r)?;
        let next_item_seq = r.get_varint()?;
        let next_version_counter = r.get_varint()?;
        whole(&r)?;

        let (mut items, mut fifo) = (Vec::new(), Vec::new());
        for (key, value) in store.iter() {
            if parse_item_key(key).is_none() {
                continue;
            }
            let mut r = Reader::new(value);
            let arrival = r.get_varint()?;
            let record = pfr::decode_item_record(&mut r)?;
            whole(&r)?;
            if arrival > 0 {
                fifo.push((arrival, record.0.id()));
            }
            items.push(record);
        }
        fifo.sort_unstable();
        Ok(PersistedNode {
            replica: Replica::from_parts(ReplicaParts {
                id,
                filter,
                knowledge,
                next_item_seq,
                next_version_counter,
                relay_limit,
                items,
                relay_fifo: fifo.into_iter().map(|(_, id)| id).collect(),
            }),
            addresses,
            extra_filter_addrs,
            policy_name,
            policy_state: store.get(KEY_POLICY).unwrap_or_default().to_vec(),
        })
    };
    let node = decode().map_err(|e| PfrError::SnapshotDecode {
        message: e.to_string(),
    })?;
    Ok(Some(node))
}

/// Why a persisted node could not be brought back.
#[derive(Debug)]
#[non_exhaustive]
pub enum RestoreError {
    /// The snapshot bytes were corrupt (see the inner [`PfrError`]).
    Snapshot(PfrError),
    /// The snapshot names a policy outside the bundled registry.
    UnknownPolicy(String),
    /// The snapshot was written under a different policy than the one
    /// now configured; routing state is not transferable between
    /// policies, so this is an error rather than a silent reset.
    PolicyMismatch {
        /// Policy name stored in the snapshot.
        persisted: String,
        /// Policy name the caller configured.
        expected: String,
    },
    /// The persisted node has a different replica id than the one now
    /// configured — almost certainly a data directory mix-up, and
    /// resuming under a new id would violate at-most-once delivery.
    IdMismatch {
        /// Replica id stored in the data directory.
        persisted: ReplicaId,
        /// Replica id the caller configured.
        expected: ReplicaId,
    },
    /// The data directory is laid out in a way this version cannot read:
    /// `version` is the layout version its `node/meta` key names, or
    /// `None` for a directory from before the keyed layout (one `node`
    /// key holding a whole snapshot).
    UnsupportedLayout {
        /// The layout version found, if the directory names one.
        version: Option<u8>,
    },
    /// The storage engine failed (I/O, not corruption — corruption is
    /// tolerated by recovery and surfaces in the [`RecoveryReport`]).
    Store(StoreError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Snapshot(e) => write!(f, "node snapshot: {e}"),
            RestoreError::UnknownPolicy(name) => {
                write!(f, "snapshot names unknown policy {name:?}")
            }
            RestoreError::PolicyMismatch {
                persisted,
                expected,
            } => write!(
                f,
                "persisted policy {persisted:?} does not match configured policy {expected:?}"
            ),
            RestoreError::IdMismatch {
                persisted,
                expected,
            } => write!(
                f,
                "data directory belongs to replica {persisted}, not {expected}"
            ),
            RestoreError::UnsupportedLayout { version: None } => write!(
                f,
                "data directory predates the keyed node layout (it holds one `node` blob)"
            ),
            RestoreError::UnsupportedLayout { version: Some(v) } => {
                write!(
                    f,
                    "data directory uses node layout version {v}, not {LAYOUT_VERSION}"
                )
            }
            RestoreError::Store(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Snapshot(e) => Some(e),
            RestoreError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PfrError> for RestoreError {
    fn from(e: PfrError) -> Self {
        RestoreError::Snapshot(e)
    }
}

impl From<StoreError> for RestoreError {
    fn from(e: StoreError) -> Self {
        RestoreError::Store(e)
    }
}

impl DtnNode {
    /// Opens (creating if necessary) a durable node whose state lives in
    /// `dir`. A fresh directory yields a new node with `id`, `address`,
    /// and `kind`; an existing one restores the persisted node — items,
    /// knowledge, addresses, routing state — after validating that the
    /// configured policy and replica id match what was persisted. The
    /// configured `address` is added to a restored node's address set if
    /// the directory predates it.
    ///
    /// # Errors
    ///
    /// See [`RestoreError`]. Torn WAL tails and corrupt checkpoints are
    /// *not* errors — the engine recovers past them; inspect
    /// [`DtnNode::store`]'s [`RecoveryReport`] for what was tolerated.
    ///
    /// # Examples
    ///
    /// ```
    /// use dtn::{DtnNode, PolicyKind};
    /// use pfr::{ReplicaId, SimTime};
    ///
    /// let dir = std::env::temp_dir().join("dtn-open-doc");
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let mut node = DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic)?;
    /// node.send("b", b"durable".to_vec(), SimTime::ZERO).unwrap();
    /// node.persist(SimTime::ZERO)?;
    /// drop(node); // or kill -9
    ///
    /// let node = DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic)?;
    /// assert_eq!(node.replica().item_ids().len(), 1);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// # Ok::<(), dtn::RestoreError>(())
    /// ```
    pub fn open(
        dir: impl AsRef<Path>,
        id: ReplicaId,
        address: &str,
        kind: PolicyKind,
    ) -> Result<DtnNode, RestoreError> {
        DtnNode::open_observed(dir, id, address, kind, Obs::none())
    }

    /// [`DtnNode::open`] with an observer receiving the store's WAL,
    /// checkpoint, and recovery events. The observer is *not* attached
    /// to the replica — wire that separately via
    /// [`pfr::Replica::set_observer`].
    ///
    /// # Errors
    ///
    /// See [`DtnNode::open`].
    pub fn open_observed(
        dir: impl AsRef<Path>,
        id: ReplicaId,
        address: &str,
        kind: PolicyKind,
        obs: Obs,
    ) -> Result<DtnNode, RestoreError> {
        let store = Store::open_with(dir, StoreConfig::default(), obs)?;
        let (mut node, clock) = match load(&store)? {
            Some(persisted) => {
                let node = persisted.into_node()?;
                if node.policy().name() != kind.label() {
                    return Err(RestoreError::PolicyMismatch {
                        persisted: node.policy().name().to_string(),
                        expected: kind.label().to_string(),
                    });
                }
                if node.id() != id {
                    return Err(RestoreError::IdMismatch {
                        persisted: node.id(),
                        expected: id,
                    });
                }
                // Built from the item keys, so equal to them as of now.
                let clock = node.replica().write_clock();
                (node, Some(clock))
            }
            None => (DtnNode::new(id, address, kind), None),
        };
        node.ensure_address(address);
        node.durable = Some(Durable::new(store, clock));
        Ok(node)
    }

    /// Attaches an already-opened store, making [`DtnNode::persist`]
    /// write there. Used when nodes are built some other way (e.g. the
    /// emulator) and durability is bolted on afterwards. Whatever the
    /// store already holds is overwritten: the first persist compares
    /// every key with this node and leaves the store equal to it.
    pub fn attach_store(&mut self, store: Store) {
        self.durable = Some(Durable::new(store, None));
    }

    /// The attached store, if this node is durable.
    pub fn store(&self) -> Option<&Store> {
        self.durable.as_ref().map(|d| &d.store)
    }

    /// Brings the attached store up to date with the node: one atomic
    /// WAL record holding the items written since the last persist, the
    /// deletes for items that left, and whichever of the node's other
    /// keys changed — fsynced once under the default config. A node that
    /// has not changed appends nothing. Returns `false` (doing nothing)
    /// only when no store is attached, so callers can persist
    /// unconditionally.
    ///
    /// Change is found by the replica's write stamps, which order writes
    /// to one [`Replica`] value: do not swap a different replica in
    /// through [`DtnNode::replica_mut`] under an attached store.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on I/O failure; in-memory state is unaffected and
    /// the next persist writes everything this one would have.
    pub fn persist(&mut self, now: SimTime) -> Result<bool, StoreError> {
        let Some(mut durable) = self.durable.take() else {
            return Ok(false);
        };
        let result = durable.persist(self, now);
        self.durable = Some(durable);
        result.map(|()| true)
    }

    /// The sim time of the last [`DtnNode::persist`] that wrote to the
    /// attached store, if any.
    pub fn persisted_at(&self) -> Option<SimTime> {
        let bytes = self.store()?.get(KEY_PERSISTED_AT)?;
        Reader::new(bytes).get_varint().ok().map(SimTime::from_secs)
    }

    /// What the storage engine's recovery found when this node's store
    /// was opened (`None` for non-durable nodes).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.store().map(Store::recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::EncounterBudget;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dtn-durable-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_persist_reopen_preserves_inbox_and_knowledge() {
        let dir = tmp_dir("roundtrip");
        {
            let mut peer = DtnNode::new(ReplicaId::new(2), "b", PolicyKind::Epidemic);
            let mut node =
                DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap();
            assert!(node.recovery().is_some());
            peer.send("a", b"to a".to_vec(), SimTime::ZERO).unwrap();
            node.encounter(
                &mut peer,
                SimTime::from_secs(60),
                EncounterBudget::unlimited(),
            );
            assert_eq!(node.inbox().len(), 1);
            assert!(node.persist(SimTime::from_secs(60)).unwrap());
            // Dropped without any orderly shutdown: the WAL already has it.
        }
        let node = DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap();
        assert_eq!(node.inbox().len(), 1);
        assert_eq!(node.inbox()[0].payload, b"to a");
        assert_eq!(node.persisted_at(), Some(SimTime::from_secs(60)));
        assert!(node.recovery().unwrap().recovered_state());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_node_does_not_accept_duplicates() {
        let dir = tmp_dir("amo");
        let mut peer = DtnNode::new(ReplicaId::new(2), "b", PolicyKind::Epidemic);
        {
            let mut node =
                DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap();
            peer.send("a", b"once".to_vec(), SimTime::ZERO).unwrap();
            node.encounter(
                &mut peer,
                SimTime::from_secs(1),
                EncounterBudget::unlimited(),
            );
            node.persist(SimTime::from_secs(1)).unwrap();
        }
        let mut node = DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap();
        let report = node.encounter(
            &mut peer,
            SimTime::from_secs(2),
            EncounterBudget::unlimited(),
        );
        assert_eq!(report.transmitted, 0, "knowledge survived the restart");
        assert_eq!(report.duplicates, 0);
        assert_eq!(node.inbox().len(), 1, "exactly once, not twice");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unpersisted_tail_is_rereplicated_not_duplicated() {
        // Crash *after* receiving but *before* persisting: the restored
        // node is behind, and the protocol re-sends without duplicating.
        let dir = tmp_dir("tail");
        let mut peer = DtnNode::new(ReplicaId::new(2), "b", PolicyKind::Epidemic);
        {
            let mut node =
                DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap();
            peer.send("a", b"early".to_vec(), SimTime::ZERO).unwrap();
            node.encounter(
                &mut peer,
                SimTime::from_secs(1),
                EncounterBudget::unlimited(),
            );
            node.persist(SimTime::from_secs(1)).unwrap();
            peer.send("a", b"late".to_vec(), SimTime::ZERO).unwrap();
            node.encounter(
                &mut peer,
                SimTime::from_secs(2),
                EncounterBudget::unlimited(),
            );
            assert_eq!(node.inbox().len(), 2);
            // Crash without persisting the second delivery.
        }
        let mut node = DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap();
        assert_eq!(node.inbox().len(), 1, "rolled back to the persist point");
        let report = node.encounter(
            &mut peer,
            SimTime::from_secs(3),
            EncounterBudget::unlimited(),
        );
        assert_eq!(report.duplicates, 0);
        assert_eq!(node.inbox().len(), 2, "lost delivery re-replicated");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_policy_and_id_mismatches() {
        let dir = tmp_dir("mismatch");
        {
            let mut node =
                DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Prophet).unwrap();
            node.persist(SimTime::ZERO).unwrap();
        }
        let err = DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap_err();
        assert!(
            matches!(
                &err,
                RestoreError::PolicyMismatch { persisted, expected }
                    if persisted == "prophet" && expected == "epidemic"
            ),
            "got {err:?}"
        );
        let err = DtnNode::open(&dir, ReplicaId::new(9), "a", PolicyKind::Prophet).unwrap_err();
        assert!(
            matches!(
                &err,
                RestoreError::IdMismatch { persisted, expected }
                    if *persisted == ReplicaId::new(1) && *expected == ReplicaId::new(9)
            ),
            "got {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn configured_address_is_added_to_a_restored_node() {
        let dir = tmp_dir("addr");
        {
            let mut node =
                DtnNode::open(&dir, ReplicaId::new(1), "old", PolicyKind::Direct).unwrap();
            node.persist(SimTime::ZERO).unwrap();
        }
        let node = DtnNode::open(&dir, ReplicaId::new(1), "new", PolicyKind::Direct).unwrap();
        let addrs: Vec<&str> = node.addresses().collect();
        assert!(
            addrs.contains(&"old") && addrs.contains(&"new"),
            "{addrs:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_layouts_it_cannot_read() {
        // A directory from before the keyed layout: one `node` blob.
        let dir = tmp_dir("blob");
        {
            let mut store = Store::open(&dir).unwrap();
            let old = DtnNode::new(ReplicaId::new(1), "a", PolicyKind::Epidemic);
            store.put(KEY_BLOB, &old.snapshot()).unwrap();
            store.put(b"meta/persisted_at", &[9]).unwrap();
        }
        let err = DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap_err();
        assert!(
            matches!(err, RestoreError::UnsupportedLayout { version: None }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("predates"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();

        // A directory from a later layout.
        let dir = tmp_dir("future");
        {
            let mut node =
                DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap();
            node.persist(SimTime::ZERO).unwrap();
            let mut meta = node.store().unwrap().get(KEY_META).unwrap().to_vec();
            meta[0] = LAYOUT_VERSION + 1;
            drop(node);
            Store::open(&dir).unwrap().put(KEY_META, &meta).unwrap();
        }
        let err = DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap_err();
        assert!(
            matches!(err, RestoreError::UnsupportedLayout { version: Some(v) } if v == LAYOUT_VERSION + 1),
            "got {err:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn attach_store_overwrites_whatever_the_directory_held() {
        // The directory is first written by a different node — another
        // id, policy, address and set of items, blob key included.
        let dir = tmp_dir("foreign");
        {
            let mut other =
                DtnNode::open(&dir, ReplicaId::new(7), "z", PolicyKind::Prophet).unwrap();
            other.send("q", b"theirs".to_vec(), SimTime::ZERO).unwrap();
            other
                .send("a", b"also theirs".to_vec(), SimTime::ZERO)
                .unwrap();
            other.persist(SimTime::ZERO).unwrap();
            drop(other);
            Store::open(&dir).unwrap().put(KEY_BLOB, b"old").unwrap();
        }
        let mut node = DtnNode::new(ReplicaId::new(1), "a", PolicyKind::Epidemic);
        node.send("b", b"mine".to_vec(), SimTime::ZERO).unwrap();
        node.attach_store(Store::open(&dir).unwrap());
        node.persist(SimTime::from_secs(5)).unwrap();
        assert_eq!(
            node.store().unwrap().len(),
            5,
            "four node keys and one item"
        );

        let reopened = DtnNode::open(&dir, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap();
        assert_eq!(reopened.snapshot(), node.snapshot());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Bytes and `WalAppend`s the store took while `f` ran.
    fn appended(
        node: &mut DtnNode,
        sink: &obs::MemorySink,
        f: impl FnOnce(&mut DtnNode),
    ) -> (u64, usize) {
        let before = node.store().unwrap().wal_bytes();
        sink.take();
        f(node);
        let appends = sink
            .take()
            .iter()
            .filter(|e| e.event_kind().name() == "wal_append")
            .count();
        (node.store().unwrap().wal_bytes() - before, appends)
    }

    #[test]
    fn a_persist_costs_what_changed() {
        let (dir_a, dir_b) = (tmp_dir("cost-a"), tmp_dir("cost-b"));
        let sink = std::sync::Arc::new(obs::MemorySink::unbounded());
        let open = |dir: &PathBuf, id, addr| {
            DtnNode::open_observed(
                dir,
                ReplicaId::new(id),
                addr,
                PolicyKind::Epidemic,
                Obs::new(sink.clone()),
            )
            .unwrap()
        };
        let (mut a, mut b) = (open(&dir_a, 1, "a"), open(&dir_b, 2, "b"));
        // Fixed cost of a persist that writes: record framing, the state
        // and persisted-at keys. Per item: its key and arrival.
        const ALLOWANCE: u64 = 192;
        const PER_ITEM: u64 = 32;

        let mut now = SimTime::ZERO;
        let mut resident = 0;
        for moved in [1u64, 5, 0, 2] {
            now += pfr::SimDuration::from_secs(60);
            for i in 0..moved {
                // Half to `b`, half for `b` to carry.
                let dest = if i % 2 == 0 { "b" } else { "elsewhere" };
                a.send(dest, vec![0x5a; 256], now).unwrap();
            }
            a.persist(now).unwrap();
            let report = a.encounter(&mut b, now, EncounterBudget::unlimited());
            assert_eq!(report.transmitted as u64, moved);
            resident += moved;
            assert_eq!(b.replica().item_count() as u64, resident);

            let mut w = Writer::new();
            let newest: Vec<ItemId> = b
                .replica()
                .item_ids()
                .into_iter()
                .rev()
                .take(moved as usize)
                .collect();
            for id in newest {
                b.replica().encode_item_record(id, &mut w);
            }
            let bound = w.len() as u64 + moved * PER_ITEM + ALLOWANCE;
            for (receiver, node) in [(false, &mut a), (true, &mut b)] {
                let (bytes, appends) = appended(node, &sink, |n| assert!(n.persist(now).unwrap()));
                if moved == 0 {
                    assert_eq!((bytes, appends), (0, 0), "nothing moved, nothing appended");
                }
                // The sender writes only the copies its policy marked.
                assert!(appends <= 1, "one append per persist");
                assert!(
                    bytes < bound,
                    "{moved} item(s): appended {bytes} B, bound {bound} B"
                );
                if receiver && moved > 0 {
                    assert!(bytes > w.len() as u64, "the moved items were written");
                }
                // Persisting again right away has nothing to say.
                let (bytes, appends) = appended(node, &sink, |n| assert!(n.persist(now).unwrap()));
                assert_eq!((bytes, appends), (0, 0), "an unchanged persist appended");
            }
        }
        drop((a, b));
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn persist_without_store_is_a_cheap_no_op() {
        let mut node = DtnNode::new(ReplicaId::new(1), "a", PolicyKind::Direct);
        assert!(!node.persist(SimTime::ZERO).unwrap());
        assert!(node.store().is_none());
        assert!(node.persisted_at().is_none());
    }
}
