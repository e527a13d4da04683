//! A DTN host: one replica bundled with its routing policy and addresses.

use std::collections::BTreeSet;
use std::fmt;

use obs::{DropReason, Event, EventKind, Span};
use pfr::digest::ReconStats;
use pfr::exchange::{self, Pull, Reply, Request};
use pfr::sync::{self, BatchEntry, NoExtension, SyncBatch, SyncExtension, SyncReport, SyncRequest};
use pfr::{
    Filter, ItemId, PfrError, ReconState, Replica, ReplicaId, SimTime, SyncLimits, SyncMode,
};

use crate::durable::RestoreError;
use crate::messaging::{self, Message};
use crate::policy::{DtnPolicy, PolicyKind};

/// Resource limits applied to one encounter (paper §VI-D).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncounterBudget {
    /// Maximum messages exchanged across both syncs of the encounter
    /// (`None` = unlimited). The paper's bandwidth-constrained experiment
    /// uses `Some(1)`.
    pub max_messages: Option<usize>,
}

impl EncounterBudget {
    /// No limits.
    pub fn unlimited() -> Self {
        EncounterBudget::default()
    }

    /// At most `n` messages across the whole encounter.
    pub fn max_messages(n: usize) -> Self {
        EncounterBudget {
            max_messages: Some(n),
        }
    }
}

/// Reusable encode buffers for [`DtnNode::snapshot_with`]: the replica's
/// inner snapshot and the node wrapper each keep their allocation across
/// calls, so steady-state snapshotting allocates nothing per node.
#[derive(Debug, Default)]
pub struct SnapshotScratch {
    pub(crate) replica: pfr::wire::Writer,
    pub(crate) node: pfr::wire::Writer,
}

impl SnapshotScratch {
    /// Empty scratch buffers.
    pub fn new() -> Self {
        SnapshotScratch::default()
    }
}

/// The result of one encounter (two syncs with roles alternating).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EncounterReport {
    /// Items transmitted in both directions.
    pub transmitted: usize,
    /// Deliveries into each side's filtered store.
    pub delivered: usize,
    /// Ids delivered to the first host of the pair.
    pub delivered_to_a: Vec<ItemId>,
    /// Ids delivered to the second host of the pair.
    pub delivered_to_b: Vec<ItemId>,
    /// Duplicate receipts (must stay zero).
    pub duplicates: usize,
}

impl EncounterReport {
    fn absorb(&mut self, report: SyncReport, to_a: bool) {
        self.transmitted += report.transmitted;
        self.delivered += report.delivered;
        self.duplicates += report.duplicates;
        if to_a {
            self.delivered_to_a.extend(report.delivered_ids);
        } else {
            self.delivered_to_b.extend(report.delivered_ids);
        }
    }
}

/// One device in the DTN: a replica, a routing policy, and the set of
/// addresses it answers for.
///
/// # Examples
///
/// ```
/// use dtn::{DtnNode, EncounterBudget, PolicyKind};
/// use pfr::{ReplicaId, SimTime};
///
/// let mut a = DtnNode::new(ReplicaId::new(1), "a", PolicyKind::Epidemic);
/// let mut b = DtnNode::new(ReplicaId::new(2), "b", PolicyKind::Epidemic);
/// a.send("b", b"hello".to_vec(), SimTime::ZERO)?;
/// a.encounter(&mut b, SimTime::from_secs(60), EncounterBudget::unlimited());
/// assert_eq!(b.inbox().len(), 1);
/// # Ok::<(), pfr::PfrError>(())
/// ```
pub struct DtnNode {
    replica: Replica,
    policy: Box<dyn DtnPolicy>,
    pub(crate) addresses: BTreeSet<String>,
    pub(crate) extra_filter_addrs: BTreeSet<String>,
    pub(crate) durable: Option<crate::durable::Durable>,
    /// Expiry watermark for [`DtnNode::expire_messages`]: `None` = unknown
    /// (the replica was mutated behind our back; the next call must
    /// scan), `Some(None)` = no stored message expires, `Some(Some(t))` =
    /// nothing expires before `t`. A sync lowers it to the earliest expiry
    /// among the items it stored here and never clears it. Purely an
    /// acceleration cache — never snapshotted.
    next_expiry: Option<Option<SimTime>>,
    /// How encounters exchange metadata. Runtime configuration, not
    /// snapshotted — a restored node starts in [`SyncMode::Full`] until
    /// its host application reapplies the mode.
    sync_mode: SyncMode,
    /// Reconciliation snapshots for digest-mode knowledge exchange.
    recon: ReconState,
    /// What a budgeted encounter's delivery phase syncs under instead of
    /// the policy: plain filtered replication (zero-sized).
    plain: NoExtension,
}

/// Writes an address set: a count, then each string.
pub(crate) fn put_strings(w: &mut pfr::wire::Writer, strings: &BTreeSet<String>) {
    w.put_varint(strings.len() as u64);
    for s in strings {
        w.put_str(s);
    }
}

/// Reads an address set as [`put_strings`] wrote it.
pub(crate) fn get_strings(
    r: &mut pfr::wire::Reader<'_>,
) -> Result<BTreeSet<String>, pfr::wire::WireError> {
    (0..r.get_len(1)?).map(|_| r.get_str()).collect()
}

/// A node's durable state as read back from a snapshot or a data
/// directory, before a policy instance is bound to it.
pub(crate) struct PersistedNode {
    pub replica: Replica,
    pub addresses: BTreeSet<String>,
    pub extra_filter_addrs: BTreeSet<String>,
    pub policy_name: String,
    pub policy_state: Vec<u8>,
}

impl PersistedNode {
    /// The node under the bundled policy it was persisted with, routing
    /// state restored.
    pub fn into_node(self) -> Result<DtnNode, RestoreError> {
        let kind: PolicyKind = self
            .policy_name
            .parse()
            .map_err(|_: String| RestoreError::UnknownPolicy(self.policy_name.clone()))?;
        let mut policy = kind.build();
        policy.restore_state(&self.policy_state);
        Ok(self.assemble(policy))
    }

    fn assemble(self, mut policy: Box<dyn DtnPolicy>) -> DtnNode {
        policy.set_local_addresses(self.addresses.clone());
        DtnNode {
            replica: self.replica,
            policy,
            addresses: self.addresses,
            extra_filter_addrs: self.extra_filter_addrs,
            durable: None,
            next_expiry: None,
            sync_mode: SyncMode::default(),
            recon: ReconState::new(),
            plain: NoExtension,
        }
    }
}

impl DtnNode {
    /// Creates a node with one address and a bundled policy.
    pub fn new(id: ReplicaId, address: &str, policy: PolicyKind) -> Self {
        DtnNode::with_policy(id, address, policy.build())
    }

    /// Creates a node with a custom policy instance.
    pub fn with_policy(id: ReplicaId, address: &str, policy: Box<dyn DtnPolicy>) -> Self {
        let addresses: BTreeSet<String> = [address.to_string()].into_iter().collect();
        let mut node = DtnNode {
            replica: Replica::new(id, Filter::None),
            policy,
            addresses,
            extra_filter_addrs: BTreeSet::new(),
            durable: None,
            next_expiry: None,
            sync_mode: SyncMode::default(),
            recon: ReconState::new(),
            plain: NoExtension,
        };
        node.refresh_filter();
        node
    }

    /// The node's replica id.
    pub fn id(&self) -> ReplicaId {
        self.replica.id()
    }

    /// The addresses this node is final destination for.
    pub fn addresses(&self) -> impl Iterator<Item = &str> {
        self.addresses.iter().map(String::as_str)
    }

    /// Read access to the underlying replica.
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Mutable access to the underlying replica (for storage limits etc.).
    pub fn replica_mut(&mut self) -> &mut Replica {
        // The caller can insert items behind our back; force the next
        // expire_messages to rescan.
        self.next_expiry = None;
        &mut self.replica
    }

    /// Read access to the routing policy.
    pub fn policy(&self) -> &dyn DtnPolicy {
        self.policy.as_ref()
    }

    /// The node's metadata exchange mode (see [`DtnNode::set_sync_mode`]).
    pub fn sync_mode(&self) -> SyncMode {
        self.sync_mode
    }

    /// Selects the shape of the requests this node pulls with. In
    /// [`SyncMode::Digest`], its knowledge travels as a compact summary
    /// against what the source last saw; routing state travels verbatim
    /// in either mode. A node answers both shapes whatever its own mode,
    /// so a mixed pair syncs each direction in its puller's mode.
    /// Switching modes drops the per-peer digest caches, so the first
    /// digest exchange with each peer starts from scratch.
    pub fn set_sync_mode(&mut self, mode: SyncMode) {
        if self.sync_mode != mode {
            self.sync_mode = mode;
            self.recon.clear_peers();
        }
    }

    /// Cumulative digest-mode exchange counters for this node's target
    /// role: the exchanges in which it sent the summary, in process or
    /// over a socket (zero while the node syncs in [`SyncMode::Full`]).
    pub fn recon_stats(&self) -> ReconStats {
        self.recon.stats()
    }

    /// Drops the digest caches, as a crash that lost in-memory state
    /// would. The next digest exchange with every peer resolves through
    /// the fallback path and reseeds them; deliveries are unaffected.
    pub fn clear_recon_state(&mut self) {
        self.recon.clear_peers();
    }

    /// Swaps in a new policy instance, discarding the old one's in-memory
    /// state (models a reboot on a device that never called
    /// [`DtnPolicy::save_state`]). The replica's items and knowledge are
    /// untouched; the copies the old policy parked are offered to the new
    /// one again.
    pub fn replace_policy(&mut self, mut policy: Box<dyn DtnPolicy>) {
        policy.set_local_addresses(self.addresses.clone());
        self.policy = policy;
        self.replica.clear_parks();
    }

    /// Replaces the set of addresses this node answers for (the vehicular
    /// experiments re-assign users to buses every day).
    pub fn set_addresses<I, S>(&mut self, addrs: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.addresses = addrs.into_iter().map(Into::into).collect();
        self.refresh_filter();
    }

    /// Sets the extra forwarding addresses in this node's filter — the
    /// multi-address strategies of §IV-B. These addresses receive and
    /// store messages but do not count as deliveries.
    pub fn set_extra_filter_addresses<I, S>(&mut self, addrs: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.extra_filter_addrs = addrs.into_iter().map(Into::into).collect();
        self.refresh_filter();
    }

    fn refresh_filter(&mut self) {
        let filter = messaging::host_filter(
            self.addresses.iter().map(String::as_str),
            self.extra_filter_addrs.iter().map(String::as_str),
        );
        self.replica.set_filter(filter);
        self.policy.set_local_addresses(self.addresses.clone());
    }

    /// Sends a unicast message from this node's first address.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the replica.
    pub fn send(&mut self, dest: &str, payload: Vec<u8>, now: SimTime) -> Result<ItemId, PfrError> {
        let src = self
            .addresses
            .iter()
            .next()
            .cloned()
            .unwrap_or_else(|| self.replica.id().to_string());
        messaging::send_message(&mut self.replica, &src, dest, payload, now)
    }

    /// Sends a unicast message from an explicit source address.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the replica.
    pub fn send_from(
        &mut self,
        src: &str,
        dest: &str,
        payload: Vec<u8>,
        now: SimTime,
    ) -> Result<ItemId, PfrError> {
        messaging::send_message(&mut self.replica, src, dest, payload, now)
    }

    /// Sends a multicast message from this node's first address to every
    /// listed recipient; each recipient's filter selects the single shared
    /// item and at-most-once delivery applies per recipient.
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the replica.
    pub fn send_multicast(
        &mut self,
        dests: &[&str],
        payload: Vec<u8>,
        now: SimTime,
    ) -> Result<ItemId, PfrError> {
        let src = self
            .addresses
            .iter()
            .next()
            .cloned()
            .unwrap_or_else(|| self.replica.id().to_string());
        messaging::send_multicast(&mut self.replica, &src, dests, payload, now)
    }

    /// Sends a unicast message with a bounded lifetime (see
    /// [`messaging::send_message_with_lifetime`]).
    ///
    /// # Errors
    ///
    /// Propagates storage errors from the replica.
    pub fn send_with_lifetime(
        &mut self,
        dest: &str,
        payload: Vec<u8>,
        now: SimTime,
        lifetime: pfr::SimDuration,
    ) -> Result<ItemId, PfrError> {
        let src = self
            .addresses
            .iter()
            .next()
            .cloned()
            .unwrap_or_else(|| self.replica.id().to_string());
        self.next_expiry = None;
        messaging::send_message_with_lifetime(&mut self.replica, &src, dest, payload, now, lifetime)
    }

    /// Live messages addressed to any of this node's addresses.
    pub fn inbox(&self) -> Vec<Message> {
        self.addresses
            .iter()
            .flat_map(|addr| messaging::inbox(&self.replica, addr))
            .collect()
    }

    /// Drops expired messages (those past their
    /// [`ATTR_EXPIRES_AT`](messaging::ATTR_EXPIRES_AT) time): relayed
    /// copies are purged outright; messages this node originated are
    /// deleted, so their tombstones chase down the remaining copies.
    /// Returns how many messages were expired locally.
    ///
    /// The sync steps that open a pull or serve a request
    /// ([`DtnNode::open_pull`], [`DtnNode::serve`],
    /// [`DtnNode::serve_resync`]) call this first, at the session clock.
    /// So both drivers — [`DtnNode::encounter`] and a network session —
    /// drop what has expired before it moves, and applications using
    /// bounded lifetimes need no extra bookkeeping. A copy that arrives
    /// already expired is dropped at its holder's next such step.
    pub fn expire_messages(&mut self, now: SimTime) -> usize {
        // Watermark fast path: skip the store scan entirely when nothing
        // can have expired since the last one. Syncs lower the watermark
        // to what arrived; lifetime sends and external replica mutation
        // reset it.
        match self.next_expiry {
            Some(None) => return 0,
            Some(Some(next)) if now < next => return 0,
            _ => {}
        }
        let mut earliest: Option<SimTime> = None;
        let mut expired: Vec<(ItemId, bool)> = Vec::new();
        for item in self.replica.iter_items() {
            if item.is_deleted() {
                continue;
            }
            match messaging::expires_at(item) {
                Some(t) if now >= t => {
                    expired.push((item.id(), item.id().origin() == self.replica.id()));
                }
                Some(t) => earliest = Some(earliest.map_or(t, |e| e.min(t))),
                None => {}
            }
        }
        let mut count = 0;
        let replica_id = self.replica.id().as_u64();
        for (id, is_origin) in expired {
            let dropped = if is_origin {
                self.replica.delete(id).is_ok()
            } else {
                self.replica.purge_relay(id)
            };
            if dropped {
                count += 1;
                self.replica
                    .observer()
                    .emit(EventKind::ItemExpired, || Event::ItemExpired {
                        replica: replica_id,
                        origin: id.origin().as_u64(),
                        seq: id.seq(),
                        at_secs: now.as_secs(),
                    });
                self.replica
                    .observer()
                    .emit(EventKind::MessageDropped, || Event::MessageDropped {
                        replica: replica_id,
                        origin: id.origin().as_u64(),
                        seq: id.seq(),
                        reason: DropReason::Expired,
                    });
            }
        }
        self.next_expiry = Some(earliest);
        count
    }

    /// Runs one encounter with `other`: two pairwise syncs, alternating the
    /// source/target roles (as the paper's experiments do), under a shared
    /// message budget. `other` pulls first, as a network session's
    /// initiator does; each sync runs the same halves a session does, with
    /// the messages handed across in memory.
    ///
    /// When the budget is limited, destination-addressed (filter-matched)
    /// messages claim the channel first in both directions — the priority
    /// every studied DTN protocol gives deliveries over relay handoffs —
    /// and relay traffic chosen by the routing policy fills whatever
    /// capacity remains.
    pub fn encounter(
        &mut self,
        other: &mut DtnNode,
        now: SimTime,
        budget: EncounterBudget,
    ) -> EncounterReport {
        let mut report = EncounterReport::default();
        let span = Span::start(
            self.replica.observer(),
            "encounter",
            self.replica.id().as_u64(),
            other.replica.id().as_u64(),
        );

        let mut remaining = budget.max_messages;
        if remaining.is_some() {
            // Phase 1 (budgeted encounters only): deliveries first. Plain
            // filtered replication in both directions, so routing-policy
            // hooks fire exactly once per encounter (in phase 2).
            let r = node_sync(self, other, false, limits_for(remaining), now);
            spend(&mut remaining, r.transmitted);
            // Phase-1 deliveries bypass the policy's on_delivered hook via
            // NoExtension; replay them so acknowledgement schemes see them.
            other.notify_delivered(now, &r.delivered_ids, self.replica.id());
            report.absorb(r, false);

            let r = node_sync(other, self, false, limits_for(remaining), now);
            spend(&mut remaining, r.transmitted);
            self.notify_delivered(now, &r.delivered_ids, other.replica.id());
            report.absorb(r, true);
        }

        // Policy phase: self is source, other is target, then roles swap.
        let r1 = node_sync(self, other, true, limits_for(remaining), now);
        spend(&mut remaining, r1.transmitted);
        report.absorb(r1, false);

        let r2 = node_sync(other, self, true, limits_for(remaining), now);
        report.absorb(r2, true);
        let (a, b) = (self.replica.id().as_u64(), other.replica.id().as_u64());
        let (transmitted, delivered, duplicates) = (
            report.transmitted as u64,
            report.delivered as u64,
            report.duplicates as u64,
        );
        self.replica
            .observer()
            .emit(EventKind::EncounterCompleted, || {
                Event::EncounterCompleted {
                    a,
                    b,
                    transmitted,
                    delivered,
                    duplicates,
                    at_secs: now.as_secs(),
                }
            });
        span.finish();
        report
    }

    // --- The two halves of a sync ---------------------------------------
    //
    // A sync is a pull (this node is the target) and a serve (this node is
    // the source), run by [`pfr::exchange`]; these steps wrap them with the
    // node's policy, digest state and expiry watermark. A network session
    // holds one side and carries the messages as frames;
    // [`DtnNode::encounter`] holds both and hands them across in memory.
    //
    // Per-peer digest state advances independently per side (the target
    // commits when it finishes its pull, the source when it serves). A
    // session torn between the two leaves the sides disagreeing, which the
    // next exchange detects by checksum and resolves as a fallback round —
    // degraded bandwidth once, never wrong candidates.

    /// Opens a pull in which this node is the *target*: expires messages
    /// at the session clock, then returns the request to send `source` —
    /// in this node's [`SyncMode`] — and the pull to finish with its
    /// batch. A full request borrows the node until it is encoded or
    /// served.
    pub fn open_pull(&mut self, source: ReplicaId, now: SimTime) -> (Pull, Request<'_>) {
        self.open_pull_under(true, source, now)
    }

    /// Finishes a pull with the source's batch (see [`Pull::finish`]) and
    /// lowers the expiry watermark to what arrived. Returns the report and
    /// the batch's drained entry buffer.
    pub fn finish_pull(
        &mut self,
        pull: Pull,
        batch: SyncBatch,
        now: SimTime,
    ) -> (SyncReport, Vec<BatchEntry>) {
        self.finish_pull_under(true, pull, batch, now)
    }

    /// Answers a request as the *source*: expires messages at the session
    /// clock, then serves it (see [`exchange::serve`]).
    pub fn serve(&mut self, request: Request<'_>, limits: SyncLimits, now: SimTime) -> Reply {
        self.serve_under(true, request, limits, now)
    }

    /// Serves the full request a target retransmits after
    /// [`Reply::Resync`], expiring messages first like
    /// [`DtnNode::serve`] (see [`exchange::serve_resync`]).
    pub fn serve_resync(
        &mut self,
        request: SyncRequest<'_>,
        limits: SyncLimits,
        now: SimTime,
    ) -> SyncBatch {
        self.serve_resync_under(true, request, limits, now)
    }

    /// The replica, the extension a sync step runs under — the routing
    /// policy, or none for a budgeted encounter's delivery phase — and the
    /// digest state.
    fn parts(
        &mut self,
        with_policy: bool,
    ) -> (&mut Replica, &mut dyn SyncExtension, &mut ReconState) {
        let ext: &mut dyn SyncExtension = if with_policy {
            self.policy.as_mut()
        } else {
            &mut self.plain
        };
        (&mut self.replica, ext, &mut self.recon)
    }

    fn open_pull_under(
        &mut self,
        with_policy: bool,
        source: ReplicaId,
        now: SimTime,
    ) -> (Pull, Request<'_>) {
        self.expire_messages(now);
        let mode = self.sync_mode;
        let (replica, ext, recon) = self.parts(with_policy);
        Pull::open(replica, ext, recon, mode, source, now)
    }

    fn finish_pull_under(
        &mut self,
        with_policy: bool,
        pull: Pull,
        batch: SyncBatch,
        now: SimTime,
    ) -> (SyncReport, Vec<BatchEntry>) {
        let (replica, ext, recon) = self.parts(with_policy);
        let (report, entries) = pull.finish(replica, ext, recon, batch, now);
        self.lower_expiry(&report);
        (report, entries)
    }

    fn serve_under(
        &mut self,
        with_policy: bool,
        request: Request<'_>,
        limits: SyncLimits,
        now: SimTime,
    ) -> Reply {
        self.expire_messages(now);
        let (replica, ext, recon) = self.parts(with_policy);
        exchange::serve(replica, ext, recon, request, limits, now)
    }

    fn serve_resync_under(
        &mut self,
        with_policy: bool,
        request: SyncRequest<'_>,
        limits: SyncLimits,
        now: SimTime,
    ) -> SyncBatch {
        self.expire_messages(now);
        let (replica, ext, recon) = self.parts(with_policy);
        exchange::serve_resync(replica, ext, recon, request, limits, now)
    }

    /// Lowers a known expiry watermark to cover the items a sync stored
    /// here: one lookup per item the report names.
    fn lower_expiry(&mut self, report: &SyncReport) {
        let Some(next) = self.next_expiry.as_mut() else {
            return;
        };
        let stored = report.delivered_ids.iter().chain(&report.stored_ids);
        for t in stored.filter_map(|&id| self.replica.item(id).and_then(messaging::expires_at)) {
            *next = Some(next.map_or(t, |n| n.min(t)));
        }
    }

    /// A plain full-mode request in which this node is the *target*,
    /// borrowing its knowledge, filter and routing data; nothing expires
    /// and nothing is committed. Serve it with [`DtnNode::respond_sync`].
    pub fn begin_sync_session(&mut self, source: ReplicaId, now: SimTime) -> SyncRequest<'_> {
        sync::begin_sync(&mut self.replica, self.policy.as_mut(), now, Some(source))
    }

    /// Answers a full-mode request as the *source*: selects, orders, and
    /// limits the batch of items for the requesting target.
    pub fn respond_sync(
        &mut self,
        request: &SyncRequest,
        limits: SyncLimits,
        now: SimTime,
    ) -> SyncBatch {
        sync::prepare_batch(
            &mut self.replica,
            self.policy.as_mut(),
            request,
            limits,
            now,
        )
    }

    /// Serializes the node's full durable state: replica snapshot, address
    /// sets, policy name, and the policy's persistent routing state.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut scratch = SnapshotScratch::new();
        self.snapshot_with(&mut scratch).to_vec()
    }

    /// Serializes the node into a caller-owned [`SnapshotScratch`],
    /// returning the encoded bytes (valid until the scratch's next use).
    /// Snapshot-heavy callers — the sharded emulator spills thousands of
    /// nodes per run — reuse one scratch instead of allocating two
    /// buffers per snapshot.
    pub fn snapshot_with<'s>(&self, scratch: &'s mut SnapshotScratch) -> &'s [u8] {
        self.replica.snapshot_into(&mut scratch.replica);
        let w = &mut scratch.node;
        w.clear();
        w.put_bytes(scratch.replica.as_slice());
        put_strings(w, &self.addresses);
        put_strings(w, &self.extra_filter_addrs);
        w.put_str(self.policy.name());
        w.put_bytes(&self.policy.save_state());
        w.as_slice()
    }

    /// Restores a node from a snapshot, rebuilding the named bundled
    /// policy and its routing state.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Snapshot`] for corrupt bytes,
    /// [`RestoreError::UnknownPolicy`] when the persisted policy name is
    /// not in the bundled registry (restore custom policies with
    /// [`DtnNode::restore_with_policy`]).
    pub fn restore(bytes: &[u8]) -> Result<DtnNode, RestoreError> {
        Self::parse_snapshot(bytes)?.into_node()
    }

    /// Restores a node from a snapshot using a caller-provided policy
    /// instance (for policies outside the bundled registry). The policy's
    /// saved state is still applied, so the instance's name must match
    /// the one persisted in the snapshot — feeding one policy's state to
    /// another would silently corrupt routing decisions. To deliberately
    /// switch policies on restore, use
    /// [`DtnNode::restore_overriding_policy`].
    ///
    /// # Errors
    ///
    /// [`RestoreError::Snapshot`] for corrupt bytes,
    /// [`RestoreError::PolicyMismatch`] when the snapshot was written by
    /// a differently-named policy.
    pub fn restore_with_policy(
        bytes: &[u8],
        mut policy: Box<dyn DtnPolicy>,
    ) -> Result<DtnNode, RestoreError> {
        let persisted = Self::parse_snapshot(bytes)?;
        if policy.name() != persisted.policy_name {
            return Err(RestoreError::PolicyMismatch {
                persisted: persisted.policy_name,
                expected: policy.name().to_string(),
            });
        }
        policy.restore_state(&persisted.policy_state);
        Ok(persisted.assemble(policy))
    }

    /// Restores a node from a snapshot with a *different* policy,
    /// discarding the persisted policy name and routing state (the
    /// device was reconfigured across the restart). The replica — items,
    /// knowledge, inbox — is restored in full.
    ///
    /// # Errors
    ///
    /// [`RestoreError::Snapshot`] for corrupt bytes.
    pub fn restore_overriding_policy(
        bytes: &[u8],
        policy: Box<dyn DtnPolicy>,
    ) -> Result<DtnNode, RestoreError> {
        Ok(Self::parse_snapshot(bytes)?.assemble(policy))
    }

    fn parse_snapshot(bytes: &[u8]) -> Result<PersistedNode, RestoreError> {
        let mut r = pfr::wire::Reader::new(bytes);
        let read = |r: &mut pfr::wire::Reader<'_>| -> Result<_, pfr::wire::WireError> {
            let replica_bytes = r.get_bytes()?.to_vec();
            let addresses = get_strings(r)?;
            let extra = get_strings(r)?;
            let name = r.get_str()?;
            let state = r.get_bytes()?.to_vec();
            Ok((replica_bytes, addresses, extra, name, state))
        };
        let (replica_bytes, addresses, extra_filter_addrs, policy_name, policy_state) =
            read(&mut r).map_err(|e| PfrError::SnapshotDecode {
                message: e.to_string(),
            })?;
        Ok(PersistedNode {
            replica: Replica::restore(&replica_bytes)?,
            addresses,
            extra_filter_addrs,
            policy_name,
            policy_state,
        })
    }

    /// Ensures `addr` is among this node's addresses (used when a
    /// restored node is reopened under a configured address the snapshot
    /// predates).
    pub(crate) fn ensure_address(&mut self, addr: &str) {
        if !self.addresses.contains(addr) {
            self.addresses.insert(addr.to_string());
            self.refresh_filter();
        }
    }

    fn notify_delivered(&mut self, now: SimTime, delivered: &[ItemId], peer: ReplicaId) {
        if delivered.is_empty() {
            return;
        }
        let mut cx = sync::HostContext::new(&mut self.replica, now, Some(peer));
        self.policy.on_delivered(&mut cx, delivered);
    }
}

/// One directional sync between two co-located nodes: `target` pulls from
/// `source` in its own mode, through the same steps a network session
/// runs. `with_policy` selects the routing-policy extensions; phase-1
/// delivery syncs pass `false` and run plain filtered replication.
fn node_sync(
    source: &mut DtnNode,
    target: &mut DtnNode,
    with_policy: bool,
    limits: SyncLimits,
    now: SimTime,
) -> SyncReport {
    let (mut pull, request) = target.open_pull_under(with_policy, source.id(), now);
    let batch = match source.serve_under(with_policy, request, limits, now) {
        Reply::Batch(batch) => batch,
        Reply::Resync => {
            let request = pull
                .resync(&target.replica)
                .expect("only a digest pull is asked to resync, and once");
            source.serve_resync_under(with_policy, request, limits, now)
        }
    };
    let (report, entries) = target.finish_pull_under(with_policy, pull, batch, now);
    // Both ends are in hand: the drained buffer goes back to the source
    // for its next batch.
    source.replica.recycle_batch_entries(entries);
    report
}

fn limits_for(remaining: Option<usize>) -> SyncLimits {
    match remaining {
        Some(n) => SyncLimits::max_items(n),
        None => SyncLimits::unlimited(),
    }
}

fn spend(remaining: &mut Option<usize>, transmitted: usize) {
    if let Some(n) = remaining {
        *n = n.saturating_sub(transmitted);
    }
}

impl fmt::Debug for DtnNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DtnNode")
            .field("id", &self.replica.id())
            .field("policy", &self.policy.name())
            .field("addresses", &self.addresses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(n: u64, addr: &str, kind: PolicyKind) -> DtnNode {
        DtnNode::new(ReplicaId::new(n), addr, kind)
    }

    #[test]
    fn direct_delivery_on_encounter() {
        let mut a = node(1, "a", PolicyKind::Direct);
        let mut b = node(2, "b", PolicyKind::Direct);
        a.send("b", b"hi".to_vec(), SimTime::ZERO).unwrap();
        b.send("a", b"yo".to_vec(), SimTime::ZERO).unwrap();
        let report = a.encounter(&mut b, SimTime::from_secs(1), EncounterBudget::unlimited());
        assert_eq!(report.delivered, 2, "both directions deliver");
        assert_eq!(report.duplicates, 0);
        assert_eq!(a.inbox().len(), 1);
        assert_eq!(b.inbox().len(), 1);
        assert_eq!(report.delivered_to_a.len(), 1);
        assert_eq!(report.delivered_to_b.len(), 1);
    }

    #[test]
    fn encounter_budget_is_shared_across_directions() {
        let mut a = node(1, "a", PolicyKind::Epidemic);
        let mut b = node(2, "b", PolicyKind::Epidemic);
        for i in 0..3 {
            a.send("b", vec![i], SimTime::ZERO).unwrap();
            b.send("a", vec![i], SimTime::ZERO).unwrap();
        }
        let report = a.encounter(
            &mut b,
            SimTime::from_secs(1),
            EncounterBudget::max_messages(1),
        );
        assert_eq!(report.transmitted, 1, "one message per encounter total");
        // Repeated encounters eventually drain the backlog.
        let mut total = report.delivered;
        for t in 2..20 {
            let r = a.encounter(
                &mut b,
                SimTime::from_secs(t),
                EncounterBudget::max_messages(1),
            );
            total += r.delivered;
        }
        assert_eq!(total, 6);
    }

    #[test]
    fn extra_filter_addresses_relay_without_delivering() {
        let mut a = node(1, "a", PolicyKind::Direct);
        let mut c = node(3, "c", PolicyKind::Direct);
        c.set_extra_filter_addresses(["b"]);
        a.send("b", b"m".to_vec(), SimTime::ZERO).unwrap();
        let report = a.encounter(&mut c, SimTime::from_secs(1), EncounterBudget::unlimited());
        assert_eq!(
            report.transmitted, 1,
            "c's widened filter pulls the message"
        );
        assert!(c.inbox().is_empty(), "not addressed to c itself");

        // c later meets b and delivers.
        let mut b = node(2, "b", PolicyKind::Direct);
        let report = c.encounter(&mut b, SimTime::from_secs(2), EncounterBudget::unlimited());
        assert_eq!(report.delivered, 1);
        assert_eq!(b.inbox().len(), 1);
    }

    #[test]
    fn daily_address_reassignment() {
        let mut bus = node(1, "bus-1", PolicyKind::Direct);
        bus.set_addresses(["bus-1", "alice"]);
        let mut other = node(2, "bus-2", PolicyKind::Direct);
        other
            .send("alice", b"mail".to_vec(), SimTime::ZERO)
            .unwrap();
        other.encounter(
            &mut bus,
            SimTime::from_secs(5),
            EncounterBudget::unlimited(),
        );
        assert_eq!(bus.inbox().len(), 1, "bus hosting alice receives her mail");

        // Next day alice moves away; bus-1 no longer receives for her.
        bus.set_addresses(["bus-1"]);
        assert!(bus.inbox().is_empty());
    }

    #[test]
    fn policies_usable_as_trait_objects() {
        for kind in PolicyKind::ALL {
            let mut a = node(1, "a", kind);
            let mut b = node(2, "b", kind);
            a.send("b", b"x".to_vec(), SimTime::ZERO).unwrap();
            let report = a.encounter(&mut b, SimTime::from_secs(1), EncounterBudget::unlimited());
            assert_eq!(report.delivered, 1, "policy {kind} delivers directly");
            assert_eq!(report.duplicates, 0);
        }
    }

    #[test]
    fn expired_messages_stop_moving() {
        use pfr::SimDuration;
        let mut a = node(1, "a", PolicyKind::Epidemic);
        let mut b = node(2, "b", PolicyKind::Epidemic);
        let mut z = node(9, "z", PolicyKind::Epidemic);
        let id = a
            .send_with_lifetime(
                "z",
                b"short-lived".to_vec(),
                SimTime::ZERO,
                SimDuration::from_hours(1),
            )
            .unwrap();

        // Within the lifetime, the message relays normally.
        a.encounter(
            &mut b,
            SimTime::from_hms(0, 0, 30, 0),
            EncounterBudget::unlimited(),
        );
        assert!(b.replica().contains_item(id));

        // Past the lifetime, b's relay copy is purged and a tombstones its
        // original, so z never sees the message.
        let late = SimTime::from_hms(0, 2, 0, 0);
        b.encounter(&mut z, late, EncounterBudget::unlimited());
        assert!(!b.replica().contains_item(id), "relay copy purged");
        assert!(z.inbox().is_empty());
        a.encounter(
            &mut z,
            SimTime::from_hms(0, 3, 0, 0),
            EncounterBudget::unlimited(),
        );
        assert!(z.inbox().is_empty(), "origin tombstoned its own message");
        assert!(a.replica().item(id).unwrap().is_deleted());
    }

    #[test]
    fn an_arriving_lifetime_message_lowers_a_later_watermark() {
        use pfr::SimDuration;
        let mut a = node(1, "a", PolicyKind::Epidemic);
        let mut b = node(2, "b", PolicyKind::Epidemic);
        let mut z = node(9, "z", PolicyKind::Epidemic);
        let long = b
            .send_with_lifetime(
                "z",
                b"long".to_vec(),
                SimTime::ZERO,
                SimDuration::from_hours(10),
            )
            .unwrap();
        let short = a
            .send_with_lifetime(
                "z",
                b"short".to_vec(),
                SimTime::ZERO,
                SimDuration::from_hours(1),
            )
            .unwrap();

        // The encounter's own scan leaves b knowing that nothing of its
        // expires before hour 10; then the one-hour message arrives.
        a.encounter(
            &mut b,
            SimTime::from_hms(0, 0, 30, 0),
            EncounterBudget::unlimited(),
        );
        assert!(b.replica().contains_item(short));

        // Past the short lifetime b purges that copy on time and keeps
        // carrying the long-lived message.
        b.encounter(
            &mut z,
            SimTime::from_hms(0, 2, 0, 0),
            EncounterBudget::unlimited(),
        );
        assert!(!b.replica().contains_item(short), "relay copy purged");
        assert!(b.replica().contains_item(long));
        assert_eq!(z.inbox().len(), 1, "only the long-lived message moved");
    }

    #[test]
    fn an_expired_delivery_handed_on_is_purged_by_whoever_takes_it() {
        use pfr::SimDuration;
        let mut a = node(1, "a", PolicyKind::Epidemic);
        let mut b = node(2, "b", PolicyKind::Epidemic);
        let mut c = node(3, "c", PolicyKind::Epidemic);
        let mut d = node(4, "d", PolicyKind::Epidemic);
        let id = a
            .send_with_lifetime(
                "b",
                b"kept".to_vec(),
                SimTime::ZERO,
                SimDuration::from_hours(1),
            )
            .unwrap();
        a.encounter(
            &mut b,
            SimTime::from_hms(0, 0, 30, 0),
            EncounterBudget::unlimited(),
        );
        assert_eq!(b.inbox().len(), 1);

        // The destination keeps its delivery past the lifetime and, as an
        // epidemic source, still serves it; the relay that takes it drops
        // it at its next step — here the serve that follows in the same
        // encounter — so it never hands it on.
        b.encounter(
            &mut c,
            SimTime::from_hms(0, 2, 0, 0),
            EncounterBudget::unlimited(),
        );
        assert!(b.replica().contains_item(id));
        let version = b.replica().item(id).unwrap().version();
        assert!(
            c.replica().knowledge().contains(version),
            "the relay took it"
        );
        assert!(!c.replica().contains_item(id), "relay copy purged");
        c.encounter(
            &mut d,
            SimTime::from_hms(0, 3, 0, 0),
            EncounterBudget::unlimited(),
        );
        assert!(!d.replica().contains_item(id));
    }

    #[test]
    fn a_batch_off_the_wire_lowers_the_watermark_it_arrives_under() {
        use pfr::SimDuration;
        // The target's watermark is later than the arrival's expiry, or
        // says that nothing it holds expires at all.
        for own_lifetime in [Some(SimDuration::from_hours(10)), None] {
            let mut source = node(1, "a", PolicyKind::Epidemic);
            let mut target = node(2, "b", PolicyKind::Epidemic);
            if let Some(lifetime) = own_lifetime {
                target
                    .send_with_lifetime("z", b"long".to_vec(), SimTime::ZERO, lifetime)
                    .unwrap();
            }
            let short = source
                .send_with_lifetime(
                    "z",
                    b"short".to_vec(),
                    SimTime::ZERO,
                    SimDuration::from_hours(1),
                )
                .unwrap();
            let now = SimTime::from_hms(0, 0, 30, 0);
            assert_eq!(target.expire_messages(now), 0);

            // The request and the batch each cross as bytes.
            let (pull, request) = target.open_pull(source.id(), now);
            let Request::Full(request) = request else {
                panic!("a full-mode node pulls with a full request")
            };
            let request =
                Request::Full(pfr::wire::from_bytes(&pfr::wire::to_bytes(&request)).unwrap());
            let Reply::Batch(batch) = source.serve(request, SyncLimits::unlimited(), now) else {
                panic!("a full request is served with a batch")
            };
            let batch = pfr::wire::from_bytes(&pfr::wire::to_bytes(&batch)).unwrap();
            assert_eq!(target.finish_pull(pull, batch, now).0.relayed, 1);

            assert_eq!(target.expire_messages(now), 0, "not before its time");
            assert!(target.replica().contains_item(short));
            assert_eq!(target.expire_messages(SimTime::from_hms(0, 2, 0, 0)), 1);
            assert!(!target.replica().contains_item(short));
        }
    }

    #[test]
    fn unexpired_lifetime_messages_deliver_normally() {
        use pfr::SimDuration;
        let mut a = node(1, "a", PolicyKind::Direct);
        let mut b = node(2, "b", PolicyKind::Direct);
        a.send_with_lifetime(
            "b",
            b"in time".to_vec(),
            SimTime::ZERO,
            SimDuration::from_days(1),
        )
        .unwrap();
        let report = a.encounter(
            &mut b,
            SimTime::from_hms(0, 5, 0, 0),
            EncounterBudget::unlimited(),
        );
        assert_eq!(report.delivered, 1);
        assert_eq!(b.inbox().len(), 1);
    }

    #[test]
    fn multicast_delivers_to_each_recipient_once() {
        for kind in PolicyKind::ALL {
            let mut a = node(1, "a", kind);
            let mut b = node(2, "b", kind);
            let mut c = node(3, "c", kind);
            let id = a
                .send_multicast(&["b", "c"], b"to both".to_vec(), SimTime::ZERO)
                .unwrap();
            let r1 = a.encounter(&mut b, SimTime::from_secs(60), EncounterBudget::unlimited());
            let r2 = a.encounter(
                &mut c,
                SimTime::from_secs(120),
                EncounterBudget::unlimited(),
            );
            assert_eq!(r1.delivered + r2.delivered, 2, "policy {kind}");
            assert_eq!(b.inbox().len(), 1, "policy {kind}");
            assert_eq!(c.inbox().len(), 1, "policy {kind}");
            assert_eq!(b.inbox()[0].id, id);
            assert_eq!(b.inbox()[0].dest, vec!["b".to_string(), "c".to_string()]);
            // Re-encounters move nothing.
            let r3 = a.encounter(
                &mut b,
                SimTime::from_secs(180),
                EncounterBudget::unlimited(),
            );
            assert_eq!(r3.transmitted, 0, "policy {kind}");
        }
    }

    #[test]
    fn multicast_relays_through_predictive_policies() {
        // PROPHET forwards a multicast message when the peer is a better
        // custodian for either recipient.
        let mut a = node(1, "a", PolicyKind::Prophet);
        let mut relay = node(2, "r", PolicyKind::Prophet);
        let mut b = node(3, "b", PolicyKind::Prophet);
        // relay repeatedly meets b, becoming a good custodian for it.
        for t in 1..4 {
            relay.encounter(
                &mut b,
                SimTime::from_secs(t * 60),
                EncounterBudget::unlimited(),
            );
        }
        let id = a
            .send_multicast(&["b", "z"], b"m".to_vec(), SimTime::ZERO)
            .unwrap();
        a.encounter(
            &mut relay,
            SimTime::from_secs(600),
            EncounterBudget::unlimited(),
        );
        assert!(
            relay.replica().contains_item(id),
            "custody accepted for dest b"
        );
    }

    #[test]
    fn a_readdressed_prophet_node_judges_its_next_peer_afresh() {
        // Names interned now and held keep their allocations, and PROPHET
        // orders its slots by allocation: the fresh address gets a slot
        // below the destination's when the node is readdressed.
        let mut names: Vec<pfr::IStr> = (0..8)
            .map(|n| pfr::IStr::new(&format!("addr{n}")))
            .collect();
        names.sort_by_key(|name| name.as_ptr());
        let (fresh, dest) = (names[0].to_string(), names[7].to_string());

        let mut a = node(1, "a", PolicyKind::Prophet);
        let mut relay = node(2, "r", PolicyKind::Prophet);
        let mut x = node(3, &dest, PolicyKind::Prophet);
        for t in 1..4 {
            relay.encounter(
                &mut x,
                SimTime::from_secs(t * 60),
                EncounterBudget::unlimited(),
            );
        }
        let id = a.send(&dest, b"m".to_vec(), SimTime::ZERO).unwrap();
        a.encounter(
            &mut relay,
            SimTime::from_secs(600),
            EncounterBudget::unlimited(),
        );
        assert!(
            relay.replica().contains_item(id),
            "the relay is the better custodian"
        );

        a.set_addresses(["a".to_string(), fresh]);
        let mut cold = node(4, "c", PolicyKind::Prophet);
        a.encounter(
            &mut cold,
            SimTime::from_secs(660),
            EncounterBudget::unlimited(),
        );
        assert!(
            !cold.replica().contains_item(id),
            "a peer that never met the destination is no better custodian"
        );
    }

    #[test]
    fn snapshot_restore_roundtrip_per_policy() {
        for kind in PolicyKind::ALL {
            let mut a = node(1, "a", kind);
            let mut b = node(2, "b", kind);
            a.set_extra_filter_addresses(["friend"]);
            a.send("b", b"m1".to_vec(), SimTime::ZERO).unwrap();
            b.send("a", b"m2".to_vec(), SimTime::ZERO).unwrap();
            a.encounter(&mut b, SimTime::from_secs(60), EncounterBudget::unlimited());

            let restored = DtnNode::restore(&a.snapshot())
                .unwrap_or_else(|e| panic!("{kind}: restore failed: {e}"));
            assert_eq!(restored.id(), a.id());
            assert_eq!(restored.policy().name(), kind.label());
            assert_eq!(restored.inbox(), a.inbox());
            assert_eq!(
                restored.addresses().collect::<Vec<_>>(),
                a.addresses().collect::<Vec<_>>()
            );
            assert_eq!(restored.replica().item_ids(), a.replica().item_ids());
        }
    }

    #[test]
    fn snapshot_with_scratch_is_byte_identical() {
        let mut a = node(1, "a", PolicyKind::Prophet);
        let mut b = node(2, "b", PolicyKind::Prophet);
        a.send("b", b"payload".to_vec(), SimTime::ZERO).unwrap();
        a.encounter(&mut b, SimTime::from_secs(60), EncounterBudget::unlimited());
        let mut scratch = SnapshotScratch::new();
        for node in [&a, &b] {
            // Same scratch across differently-sized nodes: the bytes must
            // match the allocating path exactly, with no stale residue.
            assert_eq!(node.snapshot_with(&mut scratch), node.snapshot());
        }
    }

    #[test]
    fn restored_node_keeps_routing_state() {
        // PROPHET: predictability toward a partner survives the restart.
        let mut a = node(1, "a", PolicyKind::Prophet);
        let mut b = node(2, "b", PolicyKind::Prophet);
        for t in 1..4 {
            a.encounter(
                &mut b,
                SimTime::from_secs(t * 60),
                EncounterBudget::unlimited(),
            );
        }
        let mut restored = DtnNode::restore(&a.snapshot()).unwrap();

        // A message for b should flow from a third node to the restored a?
        // Simpler observable: the restored node still *forwards* toward b
        // better than a cold node would. Check via another encounter: a
        // cold node would not forward c's message for b; warm a does.
        let mut c = node(3, "c", PolicyKind::Prophet);
        let id = c.send("b", b"for b".to_vec(), SimTime::ZERO).unwrap();
        c.encounter(
            &mut restored,
            SimTime::from_secs(300),
            EncounterBudget::unlimited(),
        );
        assert!(
            restored.replica().contains_item(id),
            "restored predictability made the node a custodian"
        );

        let mut cold = node(4, "d", PolicyKind::Prophet);
        let mut c2 = node(5, "e", PolicyKind::Prophet);
        let id2 = c2.send("b", b"for b".to_vec(), SimTime::ZERO).unwrap();
        c2.encounter(
            &mut cold,
            SimTime::from_secs(300),
            EncounterBudget::unlimited(),
        );
        assert!(
            !cold.replica().contains_item(id2),
            "cold node declines custody"
        );
    }

    /// Parks are taken, not only harmless: along one message's path every
    /// waiting rule fires. Direct and PROPHET park the origin's copy for a
    /// stranger, MaxProp an acknowledged one, two-hop a relay copy,
    /// Epidemic (two hops) a TTL-0 copy and Spray a one-copy holder.
    #[test]
    fn every_waiting_policy_parks() {
        for kind in PolicyKind::EXTENDED {
            let registry = std::sync::Arc::new(obs::Registry::new());
            let mut nodes: Vec<DtnNode> = (0..6)
                .map(|i| {
                    let policy = match kind {
                        PolicyKind::Epidemic => Box::new(crate::EpidemicPolicy::new(2)),
                        kind => kind.build(),
                    };
                    let mut node =
                        DtnNode::with_policy(ReplicaId::new(i + 1), &format!("h{i}"), policy);
                    node.replica_mut()
                        .set_observer(obs::Obs::new(registry.clone()));
                    node
                })
                .collect();
            nodes[0].send("h1", b"m".to_vec(), SimTime::ZERO).unwrap();
            for (a, b) in [(0, 1), (0, 1), (0, 2), (2, 3), (3, 4), (3, 5)] {
                let [x, y] = nodes.get_disjoint_mut([a, b]).unwrap();
                x.encounter(y, SimTime::ZERO, EncounterBudget::unlimited());
            }
            let parks = format!("policy.{}.park", kind.build().label());
            assert!(
                registry.snapshot().counter(&parks) > 0,
                "{kind}: nothing was parked"
            );
        }
    }

    /// A relay copy under two-hop, parked at `a` by a first contact; the
    /// registry counts `a`'s parks.
    fn parked_relay_copy() -> (DtnNode, ItemId, std::sync::Arc<obs::Registry>) {
        let mut origin = node(1, "o", PolicyKind::TwoHopRelay);
        let mut a = node(2, "a", PolicyKind::TwoHopRelay);
        let registry = std::sync::Arc::new(obs::Registry::new());
        a.replica_mut()
            .set_observer(obs::Obs::new(registry.clone()));
        let id = origin.send("z", b"m".to_vec(), SimTime::ZERO).unwrap();
        origin.encounter(&mut a, SimTime::from_secs(60), EncounterBudget::unlimited());
        let mut c = node(3, "c", PolicyKind::TwoHopRelay);
        a.encounter(
            &mut c,
            SimTime::from_secs(120),
            EncounterBudget::unlimited(),
        );
        assert!(!c.replica().contains_item(id), "relays never re-forward");
        assert_eq!(registry.snapshot().counter("policy.twohop.park"), 1);
        (a, id, registry)
    }

    #[test]
    fn a_parked_copy_is_offered_again_under_a_replaced_policy() {
        let (mut a, id, registry) = parked_relay_copy();
        // Under two-hop the park holds: a later relay is passed over.
        let mut d = node(4, "d", PolicyKind::TwoHopRelay);
        a.encounter(
            &mut d,
            SimTime::from_secs(180),
            EncounterBudget::unlimited(),
        );
        assert!(!d.replica().contains_item(id));
        assert_eq!(registry.snapshot().counter("policy.twohop.park"), 1);

        a.replace_policy(PolicyKind::Epidemic.build());
        let mut e = node(5, "e", PolicyKind::Epidemic);
        a.encounter(
            &mut e,
            SimTime::from_secs(240),
            EncounterBudget::unlimited(),
        );
        assert!(e.replica().contains_item(id), "the new policy was asked");
    }

    #[test]
    fn a_parked_copy_is_offered_again_after_a_restore() {
        let (a, id, _) = parked_relay_copy();
        let mut restored =
            DtnNode::restore_overriding_policy(&a.snapshot(), PolicyKind::Epidemic.build())
                .unwrap();
        let mut e = node(5, "e", PolicyKind::Epidemic);
        restored.encounter(
            &mut e,
            SimTime::from_secs(240),
            EncounterBudget::unlimited(),
        );
        assert!(e.replica().contains_item(id), "no park survives a restore");
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(DtnNode::restore(&[]).is_err());
        assert!(DtnNode::restore(&[1, 2, 3]).is_err());
        let a = node(1, "a", PolicyKind::Direct);
        let mut snapshot = a.snapshot();
        snapshot.truncate(snapshot.len() / 2);
        assert!(DtnNode::restore(&snapshot).is_err());
    }

    #[test]
    fn restore_with_policy_validates_the_persisted_name() {
        let a = node(1, "a", PolicyKind::MaxProp);
        // Matching instance: state flows through.
        let restored =
            DtnNode::restore_with_policy(&a.snapshot(), PolicyKind::MaxProp.build()).unwrap();
        assert_eq!(restored.policy().name(), "maxprop");
        assert_eq!(restored.id(), a.id());
        // Mismatched instance: typed rejection, not silent state corruption.
        let err =
            DtnNode::restore_with_policy(&a.snapshot(), PolicyKind::Epidemic.build()).unwrap_err();
        assert!(
            matches!(
                &err,
                RestoreError::PolicyMismatch { persisted, expected }
                    if persisted == "maxprop" && expected == "epidemic"
            ),
            "got {err:?}"
        );
        assert!(err.to_string().contains("maxprop"));
    }

    #[test]
    fn restore_overriding_policy_discards_routing_state() {
        let a = node(1, "a", PolicyKind::MaxProp);
        let restored =
            DtnNode::restore_overriding_policy(&a.snapshot(), PolicyKind::Epidemic.build())
                .unwrap();
        assert_eq!(restored.policy().name(), "epidemic");
        assert_eq!(restored.id(), a.id());
    }

    #[test]
    fn debug_shows_policy() {
        let a = node(1, "a", PolicyKind::MaxProp);
        assert!(format!("{a:?}").contains("maxprop"));
    }

    /// Two identical worlds, one per sync mode: every encounter must
    /// deliver the same messages to the same inboxes.
    #[test]
    fn digest_encounters_deliver_identically_to_full() {
        for kind in PolicyKind::ALL {
            let build = |mode: SyncMode| {
                let mut nodes: Vec<DtnNode> = (1..=3)
                    .map(|n| {
                        let addr = ["a", "b", "c"][n as usize - 1];
                        let mut node = DtnNode::new(ReplicaId::new(n), addr, kind);
                        node.set_sync_mode(mode);
                        node
                    })
                    .collect();
                for i in 0..4u8 {
                    nodes[0].send("c", vec![i], SimTime::ZERO).unwrap();
                    nodes[1].send("a", vec![i], SimTime::ZERO).unwrap();
                }
                nodes
            };
            let mut full = build(SyncMode::Full);
            let mut dig = build(SyncMode::Digest);
            for run in [&mut full, &mut dig] {
                let [a, b, c] = &mut run[..] else {
                    unreachable!()
                };
                for round in 0..3u64 {
                    let t = |s| SimTime::from_secs(round * 600 + s);
                    a.encounter(b, t(0), EncounterBudget::unlimited());
                    b.encounter(c, t(60), EncounterBudget::unlimited());
                }
            }
            for (f, d) in full.iter().zip(dig.iter()) {
                assert_eq!(f.inbox(), d.inbox(), "policy {kind}");
                assert_eq!(
                    f.replica().item_ids(),
                    d.replica().item_ids(),
                    "policy {kind}: stores diverged"
                );
            }
            let digested: u64 = dig.iter().map(|n| n.recon_stats().exchanges).sum();
            assert!(digested > 0, "policy {kind}: digest path never ran");
        }
    }

    #[test]
    fn mixed_mode_pairs_pull_in_each_pullers_mode() {
        // Only the pulling side's mode matters: every node answers both
        // request shapes, as over a socket.
        let mut a = node(1, "a", PolicyKind::Epidemic);
        let mut b = node(2, "b", PolicyKind::Epidemic);
        a.set_sync_mode(SyncMode::Digest);
        a.send("b", b"m".to_vec(), SimTime::ZERO).unwrap();
        b.send("a", b"n".to_vec(), SimTime::ZERO).unwrap();
        let report = a.encounter(&mut b, SimTime::from_secs(1), EncounterBudget::unlimited());
        assert_eq!(report.delivered, 2);
        assert_eq!(a.recon_stats().exchanges, 1);
        assert_eq!(b.recon_stats().exchanges, 0);
    }

    /// Routing state travels verbatim in either mode: PROPHET learns
    /// exactly the same predictabilities through digest requests as
    /// through full ones.
    #[test]
    fn digest_mode_preserves_prophet_routing_state() {
        let run = |mode: SyncMode| {
            let mut a = node(1, "a", PolicyKind::Prophet);
            let mut b = node(2, "b", PolicyKind::Prophet);
            let mut c = node(3, "c", PolicyKind::Prophet);
            for n in [&mut a, &mut b, &mut c] {
                n.set_sync_mode(mode);
            }
            for t in 1..5 {
                b.encounter(
                    &mut c,
                    SimTime::from_secs(t * 60),
                    EncounterBudget::unlimited(),
                );
                a.encounter(
                    &mut b,
                    SimTime::from_secs(t * 60 + 30),
                    EncounterBudget::unlimited(),
                );
            }
            (a.policy.save_state(), b.policy.save_state())
        };
        assert_eq!(run(SyncMode::Full), run(SyncMode::Digest));
    }

    /// Steady-state digests must cost a fraction of full metadata. The
    /// no-forwarding baseline with alternating destinations leaves
    /// permanent gaps in the peer's knowledge (every "x" version is a
    /// lasting exception), which is exactly the case where full requests
    /// stay large while repeat digests collapse to "unchanged".
    #[test]
    fn repeat_digest_encounters_cost_less_than_full() {
        let mut a = node(1, "a", PolicyKind::Direct);
        let mut b = node(2, "b", PolicyKind::Direct);
        a.set_sync_mode(SyncMode::Digest);
        b.set_sync_mode(SyncMode::Digest);
        for i in 0..300u32 {
            let dest = if i % 2 == 0 { "b" } else { "x" };
            a.send(dest, vec![i as u8], SimTime::ZERO).unwrap();
        }
        for t in 1..30 {
            a.encounter(
                &mut b,
                SimTime::from_secs(t * 60),
                EncounterBudget::unlimited(),
            );
        }
        let stats = [a.recon_stats(), b.recon_stats()];
        let digest: u64 = stats.iter().map(|s| s.digest_bytes).sum();
        let full: u64 = stats.iter().map(|s| s.full_bytes).sum();
        assert!(
            digest * 3 <= full,
            "steady-state digests should cost <= 1/3 of full metadata: {digest} vs {full}"
        );
    }

    /// Losing one side's digest caches mid-conversation (a crash) makes
    /// the next exchange fall back — and still deliver.
    #[test]
    fn lost_digest_state_degrades_gracefully() {
        let mut a = node(1, "a", PolicyKind::Prophet);
        let mut b = node(2, "b", PolicyKind::Prophet);
        a.set_sync_mode(SyncMode::Digest);
        b.set_sync_mode(SyncMode::Digest);
        for t in 1..4 {
            a.encounter(
                &mut b,
                SimTime::from_secs(t * 60),
                EncounterBudget::unlimited(),
            );
        }
        let fallbacks_before = a.recon_stats().fallback_rounds + b.recon_stats().fallback_rounds;
        b.clear_recon_state();
        a.send("b", b"after the crash".to_vec(), SimTime::from_secs(290))
            .unwrap();
        let report = a.encounter(
            &mut b,
            SimTime::from_secs(300),
            EncounterBudget::unlimited(),
        );
        assert_eq!(report.delivered, 1, "delivery survives the cache loss");
        let fallbacks_after = a.recon_stats().fallback_rounds + b.recon_stats().fallback_rounds;
        assert!(
            fallbacks_after > fallbacks_before,
            "the desynchronized exchange must resolve via fallback"
        );
        // The pair recovers: later encounters digest again without falling
        // back.
        a.encounter(
            &mut b,
            SimTime::from_secs(360),
            EncounterBudget::unlimited(),
        );
        let settled = a.recon_stats().fallback_rounds + b.recon_stats().fallback_rounds;
        a.encounter(
            &mut b,
            SimTime::from_secs(420),
            EncounterBudget::unlimited(),
        );
        assert_eq!(
            a.recon_stats().fallback_rounds + b.recon_stats().fallback_rounds,
            settled,
            "recovered pairs stop falling back"
        );
    }
}
