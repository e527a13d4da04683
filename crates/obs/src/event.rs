//! The typed event vocabulary shared by every instrumented layer.

/// Why a message copy was discarded (the unified drop event always carries
/// one of these).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The message's bounded lifetime ended and the origin tombstoned it.
    Expired,
    /// A relay copy was evicted under the relay storage cap.
    Evicted,
    /// A relay copy was purged after the policy learned (through an
    /// acknowledgement) that the message was delivered elsewhere.
    Acked,
}

impl DropReason {
    /// Stable lower-case label used in JSON output and counter names.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Expired => "expired",
            DropReason::Evicted => "evicted",
            DropReason::Acked => "acked",
        }
    }
}

/// What a routing policy decided during batch construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionKind {
    /// `to_send` chose to forward the item (cost = priority tie-breaker).
    Forward,
    /// `to_send` declined the item.
    Suppress,
    /// `process_request` digested the peer's routing state (cost = routing
    /// payload bytes).
    RequestProcessed,
}

impl DecisionKind {
    /// Stable lower-case label used in JSON output and counter names.
    pub fn label(self) -> &'static str {
        match self {
            DecisionKind::Forward => "forward",
            DecisionKind::Suppress => "suppress",
            DecisionKind::RequestProcessed => "request",
        }
    }
}

/// One observable occurrence somewhere in the stack.
///
/// Identifiers are raw integers so this crate depends on nothing: a
/// `replica`/`source`/`target`/`peer` field is a replica id, and an item is
/// identified by the `(origin, seq)` pair of its item id. A `peer` or
/// `source` of `0` means "unknown" (replica ids are nonzero by
/// convention).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A new message entered the network at its origin replica.
    MessageInjected {
        /// Replica the message was inserted into.
        replica: u64,
        /// Item id origin component (equals `replica`).
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Sender address.
        src: String,
        /// Destination address.
        dst: String,
        /// Simulated time of injection, seconds.
        at_secs: u64,
    },
    /// A sync began: the target built its request.
    SyncStarted {
        /// The pulling (target) replica.
        target: u64,
        /// The serving (source) replica, 0 if unknown.
        source: u64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// The source finished scanning and selecting candidate items for one
    /// sync (the hot inner loop of batch construction).
    SyncCandidatesSelected {
        /// The serving replica.
        source: u64,
        /// The pulling replica.
        target: u64,
        /// Candidate items unknown to the target.
        candidates: u64,
        /// Candidates selected (filter-matched or policy-forwarded).
        selected: u64,
        /// Wall-clock duration of scan + selection, microseconds (0 when
        /// the observer was attached mid-run and no timing was taken).
        scan_us: u64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// A parallel experiment sweep started.
    SweepStarted {
        /// Independent emulation jobs in the sweep.
        jobs: u64,
        /// Worker threads executing them.
        workers: u64,
    },
    /// The source finished building a batch for one sync.
    SyncBatchSent {
        /// The serving replica.
        source: u64,
        /// The pulling replica.
        target: u64,
        /// Items in the batch.
        entries: u64,
        /// Candidates declined by policy or cut by limits.
        withheld: u64,
        /// Total payload bytes across the batch.
        payload_bytes: u64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// One item was placed in an outgoing batch (a transmission).
    ItemTransmitted {
        /// The serving replica.
        source: u64,
        /// The pulling replica.
        target: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Payload size of the transmitted copy.
        bytes: u64,
        /// Whether the item matched the target's filter (a delivery) as
        /// opposed to being policy-forwarded (a relay handoff).
        matched_filter: bool,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// A received item became newly visible in the target's filtered store.
    ItemDelivered {
        /// The receiving replica.
        replica: u64,
        /// The replica it was received from.
        source: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// A received item was accepted into the relay (or push-out) store.
    ItemRelayed {
        /// The receiving replica.
        replica: u64,
        /// The replica it was received from.
        source: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// A relay copy was evicted under the relay storage cap. The store
    /// layer has no clock, so this event carries no timestamp; the paired
    /// [`Event::MessageDropped`] identifies the same copy.
    ItemEvicted {
        /// The evicting replica.
        replica: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
    },
    /// A message's bounded lifetime ended at this holder.
    ItemExpired {
        /// The replica that dropped its copy.
        replica: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// A message copy was discarded — the unified drop event. Every drop
    /// site emits one of these with its reason (specific events like
    /// [`Event::ItemEvicted`] / [`Event::ItemExpired`] add detail).
    MessageDropped {
        /// The replica that discarded the copy.
        replica: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Why the copy was discarded.
        reason: DropReason,
    },
    /// A tracked message reached its true destination for the first time
    /// (emitted by the emulation engine, which knows the destination).
    MessageDelivered {
        /// The destination replica.
        replica: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Delay between injection and delivery, seconds.
        delay_secs: u64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// One encounter (two-to-four syncs with alternating roles) finished.
    EncounterCompleted {
        /// First participant.
        a: u64,
        /// Second participant.
        b: u64,
        /// Items transmitted across all directions.
        transmitted: u64,
        /// Filtered-store deliveries across both sides.
        delivered: u64,
        /// Duplicate receipts (must stay zero).
        duplicates: u64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// A batch was applied and the target's knowledge grew.
    KnowledgeMerged {
        /// The replica whose knowledge grew.
        replica: u64,
        /// The sync peer.
        peer: u64,
        /// Entries in the applied batch.
        batch_entries: u64,
        /// Replicas tracked in the knowledge vector afterwards.
        knowledge_replicas: u64,
        /// Out-of-order exception versions tracked afterwards.
        knowledge_exceptions: u64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// A routing policy made one decision during batch construction.
    PolicyDecision {
        /// The deciding (source) replica.
        replica: u64,
        /// The sync target.
        peer: u64,
        /// The policy's label ("epidemic", "maxprop", ...).
        policy: &'static str,
        /// Which hook decided, and how.
        kind: DecisionKind,
        /// Item id origin component (0 for request processing).
        origin: u64,
        /// Item id sequence component (0 for request processing).
        seq: u64,
        /// Forwarding cost (priority tie-breaker) or routing-state bytes.
        cost: f64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// A timed span closed (see [`crate::Span`]).
    SpanEnded {
        /// The span's label ("encounter", "transport.initiator", ...).
        name: &'static str,
        /// The local replica.
        replica: u64,
        /// The remote replica, 0 if unknown.
        peer: u64,
        /// Wall-clock duration of the span, microseconds.
        wall_micros: u64,
    },
    /// One networked sync session finished (or failed).
    TransportSync {
        /// The local replica.
        replica: u64,
        /// The remote replica, 0 if unknown (e.g. connection failures).
        peer: u64,
        /// Items served to the remote.
        served: u64,
        /// Deliveries into the local filtered store.
        delivered: u64,
        /// Total frame payload bytes exchanged in the session.
        frame_bytes: u64,
        /// Whether the session completed cleanly.
        ok: bool,
    },
    /// Data-plane buffer reuse accounting for one networked sync session:
    /// how much encode/decode work was served from shared or recycled
    /// buffers instead of fresh allocations.
    DataPlaneReuse {
        /// The local replica.
        replica: u64,
        /// The remote replica, 0 if unknown.
        peer: u64,
        /// Encodes served from the session's reusable scratch buffer
        /// after its first use (each one a saved allocation).
        scratch_reuses: u64,
        /// Total bytes encoded through the scratch buffer.
        bytes_encoded: u64,
        /// Frame reads served from the session's buffer pool.
        pool_hits: u64,
        /// Item payloads decoded as slices of a shared receive buffer
        /// instead of private copies.
        payload_shares: u64,
        /// Total frame payload bytes decoded during the session (the
        /// receive-side mirror of `bytes_encoded`).
        bytes_decoded: u64,
    },
    /// One digest-mode sync exchange: what the compact knowledge summary
    /// cost on the wire versus what shipping the full knowledge would
    /// have, plus fallback-round accounting.
    ReconDigest {
        /// The summary sender (the sync target / initiator).
        replica: u64,
        /// The summary receiver (the sync source).
        peer: u64,
        /// Summary kind actually used: "unchanged", "delta", or "full"
        /// (a full summary, or digest mode fell back to a full exchange).
        kind: &'static str,
        /// Sync-metadata bytes the digest exchange cost (summary plus
        /// any resync round).
        digest_bytes: u64,
        /// Bytes the equivalent full knowledge request would have cost.
        full_bytes: u64,
        /// Resync rounds taken: 1 when the summary could not be resolved
        /// and the full request was retransmitted, else 0.
        fallback_rounds: u64,
    },
    /// One record was appended to a durable store's write-ahead log.
    WalAppend {
        /// Bytes appended (length prefix + payload + checksum).
        bytes: u64,
        /// Whether the append was fsynced before returning.
        fsync: bool,
        /// Live WAL bytes across all live segments after the append.
        wal_bytes: u64,
    },
    /// A durable store wrote a checkpoint and rotated to a fresh WAL
    /// segment (compaction).
    CheckpointWritten {
        /// The new generation's sequence number.
        seq: u64,
        /// Key-value entries captured in the checkpoint.
        entries: u64,
        /// Checkpoint file size, bytes.
        bytes: u64,
        /// Wall-clock duration of the checkpoint write, microseconds.
        wall_micros: u64,
    },
    /// A durable store finished crash recovery.
    StoreRecovered {
        /// Sequence of the checkpoint the state was rebuilt from (0 when
        /// no valid checkpoint existed).
        checkpoint_seq: u64,
        /// WAL records replayed over the checkpoint.
        wal_records: u64,
        /// Torn/corrupt tail bytes truncated during replay.
        truncated_bytes: u64,
        /// Wall-clock duration of recovery, microseconds.
        wall_micros: u64,
    },
    /// A durability operation failed; the caller chose to continue (the
    /// in-memory state is still authoritative).
    StoreFault {
        /// The operation that failed ("append", "checkpoint", "persist").
        op: &'static str,
        /// Human-readable failure detail.
        detail: String,
    },
    /// A sharded emulation routed an encounter whose endpoints live on
    /// two different worker shards (a cross-shard handoff).
    ShardHandoff {
        /// First participant.
        a: u64,
        /// Second participant.
        b: u64,
        /// Shard owning `a` (the shard the op executed on).
        from_shard: u64,
        /// Shard owning `b`.
        to_shard: u64,
        /// Simulated time, seconds.
        at_secs: u64,
    },
    /// One async-reactor sync session finished (or failed). Emitted by
    /// `crates/net` alongside [`Event::TransportSync`]; this variant adds
    /// the reactor-specific dimensions (direction, connection reuse).
    NetSession {
        /// The local replica.
        replica: u64,
        /// The remote replica, 0 if unknown.
        peer: u64,
        /// `true` when the remote initiated (we served first).
        inbound: bool,
        /// Whether the session ran over a pooled (reused) connection.
        reused: bool,
        /// Whether the session completed cleanly.
        ok: bool,
        /// Wall-clock duration of the session, microseconds.
        wall_micros: u64,
    },
    /// One gossip round completed: this node pushed its membership view
    /// to a fanout of peers and merged whatever came back.
    GossipRound {
        /// The gossiping replica.
        replica: u64,
        /// Peers the round dialed.
        fanout: u64,
        /// Members believed alive after the round.
        alive: u64,
        /// Members under failure suspicion after the round.
        suspect: u64,
        /// Membership entries newly learned (or refreshed forward) by
        /// merging this round's replies.
        learned: u64,
    },
    /// A session's bounded write queue filled: the reactor stopped
    /// reading from that peer until the queue drained (backpressure).
    NetBackpressure {
        /// The local replica.
        replica: u64,
        /// The remote replica, 0 if unknown.
        peer: u64,
        /// Bytes queued when the stall was declared.
        queued_bytes: u64,
    },
    /// One reactor-worker poll batch: syscall and wakeup deltas from the
    /// readiness backend (emitted when a parked worker wakes to pick up
    /// sessions, and flushed once more at worker shutdown).
    NetPoll {
        /// The local replica.
        replica: u64,
        /// The readiness backend label (`"epoll"` or `"sweep"`).
        backend: &'static str,
        /// Socket/poll syscalls issued since the last batch.
        syscalls: u64,
        /// Worker wakeups in this batch.
        wakeups: u64,
        /// Sessions picked up by those wakeups.
        woken: u64,
        /// Worst enqueue→pickup latency in the batch, microseconds.
        wakeup_latency_us: u64,
    },
    /// A sharded emulation parked a cold replica's snapshot on disk — or
    /// brought it back — to bound resident memory.
    ReplicaSpill {
        /// The replica spilled or restored.
        replica: u64,
        /// Snapshot size, bytes.
        bytes: u64,
        /// Replicas resident in memory after this transition.
        resident: u64,
        /// `true` when the replica was *restored* from disk, `false`
        /// when it was parked.
        unspill: bool,
        /// Wall time to read and rebuild the replica (microseconds,
        /// amortized over its batch); 0 for spills.
        latency_us: u64,
        /// Spill-file size after this operation, bytes (the file's
        /// high-water mark with slot reuse).
        file_bytes: u64,
    },
}

/// Declares [`EventKind`] — one fieldless discriminant per [`Event`]
/// variant — with each kind's stable label and the variant → kind map,
/// from one table, so the three cannot drift apart.
macro_rules! event_kinds {
    ($($variant:ident => $name:literal,)*) => {
        /// Which [`Event`] variant: what an emission site names before it
        /// builds anything, and what an [`crate::Observer`] subscribes to.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum EventKind {
            $(#[doc = concat!("[`Event::", stringify!($variant), "`], labelled `", $name, "`.")]
            $variant,)*
        }

        impl EventKind {
            /// Every kind, in declaration order.
            pub const ALL: &'static [EventKind] = &[$(EventKind::$variant,)*];

            /// The stable snake_case label (the `"event"` field of the
            /// JSON rendering).
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$variant => $name,)*
                }
            }
        }

        impl Event {
            /// Which variant this is.
            pub fn event_kind(&self) -> EventKind {
                match self {
                    $(Event::$variant { .. } => EventKind::$variant,)*
                }
            }
        }
    };
}

event_kinds! {
    MessageInjected => "message_injected",
    SyncStarted => "sync_started",
    SyncCandidatesSelected => "sync_candidates_selected",
    SweepStarted => "sweep_started",
    SyncBatchSent => "sync_batch_sent",
    ItemTransmitted => "item_transmitted",
    ItemDelivered => "item_delivered",
    ItemRelayed => "item_relayed",
    ItemEvicted => "item_evicted",
    ItemExpired => "item_expired",
    MessageDropped => "message_dropped",
    MessageDelivered => "message_delivered",
    EncounterCompleted => "encounter_completed",
    KnowledgeMerged => "knowledge_merged",
    PolicyDecision => "policy_decision",
    SpanEnded => "span_ended",
    TransportSync => "transport_sync",
    DataPlaneReuse => "data_plane_reuse",
    ReconDigest => "recon_digest",
    WalAppend => "wal_append",
    CheckpointWritten => "checkpoint_written",
    StoreRecovered => "store_recovered",
    StoreFault => "store_fault",
    ShardHandoff => "shard_handoff",
    NetSession => "net_session",
    GossipRound => "gossip_round",
    NetBackpressure => "net_backpressure",
    NetPoll => "net_poll",
    ReplicaSpill => "replica_spill",
}

impl Event {
    /// The event's stable snake_case kind label (the `"event"` field of
    /// its JSON rendering).
    pub fn kind(&self) -> &'static str {
        self.event_kind().name()
    }

    /// Renders the event as one line of JSON (no trailing newline). All
    /// field names are stable; see `crates/obs/README.md` for the schema.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"event\":\"");
        out.push_str(self.kind());
        out.push('"');
        match self {
            Event::MessageInjected {
                replica,
                origin,
                seq,
                src,
                dst,
                at_secs,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "origin", *origin);
                push_u64(&mut out, "seq", *seq);
                push_str(&mut out, "src", src);
                push_str(&mut out, "dst", dst);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::SyncStarted {
                target,
                source,
                at_secs,
            } => {
                push_u64(&mut out, "target", *target);
                push_u64(&mut out, "source", *source);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::SyncCandidatesSelected {
                source,
                target,
                candidates,
                selected,
                scan_us,
                at_secs,
            } => {
                push_u64(&mut out, "source", *source);
                push_u64(&mut out, "target", *target);
                push_u64(&mut out, "candidates", *candidates);
                push_u64(&mut out, "selected", *selected);
                push_u64(&mut out, "scan_us", *scan_us);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::SweepStarted { jobs, workers } => {
                push_u64(&mut out, "jobs", *jobs);
                push_u64(&mut out, "workers", *workers);
            }
            Event::SyncBatchSent {
                source,
                target,
                entries,
                withheld,
                payload_bytes,
                at_secs,
            } => {
                push_u64(&mut out, "source", *source);
                push_u64(&mut out, "target", *target);
                push_u64(&mut out, "entries", *entries);
                push_u64(&mut out, "withheld", *withheld);
                push_u64(&mut out, "payload_bytes", *payload_bytes);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::ItemTransmitted {
                source,
                target,
                origin,
                seq,
                bytes,
                matched_filter,
                at_secs,
            } => {
                push_u64(&mut out, "source", *source);
                push_u64(&mut out, "target", *target);
                push_u64(&mut out, "origin", *origin);
                push_u64(&mut out, "seq", *seq);
                push_u64(&mut out, "bytes", *bytes);
                push_bool(&mut out, "matched_filter", *matched_filter);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::ItemDelivered {
                replica,
                source,
                origin,
                seq,
                at_secs,
            }
            | Event::ItemRelayed {
                replica,
                source,
                origin,
                seq,
                at_secs,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "source", *source);
                push_u64(&mut out, "origin", *origin);
                push_u64(&mut out, "seq", *seq);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::ItemEvicted {
                replica,
                origin,
                seq,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "origin", *origin);
                push_u64(&mut out, "seq", *seq);
            }
            Event::ItemExpired {
                replica,
                origin,
                seq,
                at_secs,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "origin", *origin);
                push_u64(&mut out, "seq", *seq);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::MessageDropped {
                replica,
                origin,
                seq,
                reason,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "origin", *origin);
                push_u64(&mut out, "seq", *seq);
                push_str(&mut out, "reason", reason.label());
            }
            Event::MessageDelivered {
                replica,
                origin,
                seq,
                delay_secs,
                at_secs,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "origin", *origin);
                push_u64(&mut out, "seq", *seq);
                push_u64(&mut out, "delay", *delay_secs);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::EncounterCompleted {
                a,
                b,
                transmitted,
                delivered,
                duplicates,
                at_secs,
            } => {
                push_u64(&mut out, "a", *a);
                push_u64(&mut out, "b", *b);
                push_u64(&mut out, "transmitted", *transmitted);
                push_u64(&mut out, "delivered", *delivered);
                push_u64(&mut out, "duplicates", *duplicates);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::KnowledgeMerged {
                replica,
                peer,
                batch_entries,
                knowledge_replicas,
                knowledge_exceptions,
                at_secs,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "peer", *peer);
                push_u64(&mut out, "batch_entries", *batch_entries);
                push_u64(&mut out, "knowledge_replicas", *knowledge_replicas);
                push_u64(&mut out, "knowledge_exceptions", *knowledge_exceptions);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::PolicyDecision {
                replica,
                peer,
                policy,
                kind,
                origin,
                seq,
                cost,
                at_secs,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "peer", *peer);
                push_str(&mut out, "policy", policy);
                push_str(&mut out, "kind", kind.label());
                push_u64(&mut out, "origin", *origin);
                push_u64(&mut out, "seq", *seq);
                push_f64(&mut out, "cost", *cost);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::SpanEnded {
                name,
                replica,
                peer,
                wall_micros,
            } => {
                push_str(&mut out, "name", name);
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "peer", *peer);
                push_u64(&mut out, "wall_micros", *wall_micros);
            }
            Event::TransportSync {
                replica,
                peer,
                served,
                delivered,
                frame_bytes,
                ok,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "peer", *peer);
                push_u64(&mut out, "served", *served);
                push_u64(&mut out, "delivered", *delivered);
                push_u64(&mut out, "frame_bytes", *frame_bytes);
                push_bool(&mut out, "ok", *ok);
            }
            Event::DataPlaneReuse {
                replica,
                peer,
                scratch_reuses,
                bytes_encoded,
                pool_hits,
                payload_shares,
                bytes_decoded,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "peer", *peer);
                push_u64(&mut out, "scratch_reuses", *scratch_reuses);
                push_u64(&mut out, "bytes_encoded", *bytes_encoded);
                push_u64(&mut out, "pool_hits", *pool_hits);
                push_u64(&mut out, "payload_shares", *payload_shares);
                push_u64(&mut out, "bytes_decoded", *bytes_decoded);
            }
            Event::ReconDigest {
                replica,
                peer,
                kind,
                digest_bytes,
                full_bytes,
                fallback_rounds,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "peer", *peer);
                push_str(&mut out, "kind", kind);
                push_u64(&mut out, "digest_bytes", *digest_bytes);
                push_u64(&mut out, "full_bytes", *full_bytes);
                push_u64(&mut out, "fallback_rounds", *fallback_rounds);
            }
            Event::WalAppend {
                bytes,
                fsync,
                wal_bytes,
            } => {
                push_u64(&mut out, "bytes", *bytes);
                push_bool(&mut out, "fsync", *fsync);
                push_u64(&mut out, "wal_bytes", *wal_bytes);
            }
            Event::CheckpointWritten {
                seq,
                entries,
                bytes,
                wall_micros,
            } => {
                push_u64(&mut out, "seq", *seq);
                push_u64(&mut out, "entries", *entries);
                push_u64(&mut out, "bytes", *bytes);
                push_u64(&mut out, "wall_micros", *wall_micros);
            }
            Event::StoreRecovered {
                checkpoint_seq,
                wal_records,
                truncated_bytes,
                wall_micros,
            } => {
                push_u64(&mut out, "checkpoint_seq", *checkpoint_seq);
                push_u64(&mut out, "wal_records", *wal_records);
                push_u64(&mut out, "truncated_bytes", *truncated_bytes);
                push_u64(&mut out, "wall_micros", *wall_micros);
            }
            Event::StoreFault { op, detail } => {
                push_str(&mut out, "op", op);
                push_str(&mut out, "detail", detail);
            }
            Event::ShardHandoff {
                a,
                b,
                from_shard,
                to_shard,
                at_secs,
            } => {
                push_u64(&mut out, "a", *a);
                push_u64(&mut out, "b", *b);
                push_u64(&mut out, "from_shard", *from_shard);
                push_u64(&mut out, "to_shard", *to_shard);
                push_u64(&mut out, "at", *at_secs);
            }
            Event::NetSession {
                replica,
                peer,
                inbound,
                reused,
                ok,
                wall_micros,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "peer", *peer);
                push_bool(&mut out, "inbound", *inbound);
                push_bool(&mut out, "reused", *reused);
                push_bool(&mut out, "ok", *ok);
                push_u64(&mut out, "wall_micros", *wall_micros);
            }
            Event::GossipRound {
                replica,
                fanout,
                alive,
                suspect,
                learned,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "fanout", *fanout);
                push_u64(&mut out, "alive", *alive);
                push_u64(&mut out, "suspect", *suspect);
                push_u64(&mut out, "learned", *learned);
            }
            Event::NetBackpressure {
                replica,
                peer,
                queued_bytes,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "peer", *peer);
                push_u64(&mut out, "queued_bytes", *queued_bytes);
            }
            Event::NetPoll {
                replica,
                backend,
                syscalls,
                wakeups,
                woken,
                wakeup_latency_us,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_str(&mut out, "backend", backend);
                push_u64(&mut out, "syscalls", *syscalls);
                push_u64(&mut out, "wakeups", *wakeups);
                push_u64(&mut out, "woken", *woken);
                push_u64(&mut out, "wakeup_latency_us", *wakeup_latency_us);
            }
            Event::ReplicaSpill {
                replica,
                bytes,
                resident,
                unspill,
                latency_us,
                file_bytes,
            } => {
                push_u64(&mut out, "replica", *replica);
                push_u64(&mut out, "bytes", *bytes);
                push_u64(&mut out, "resident", *resident);
                push_bool(&mut out, "unspill", *unspill);
                push_u64(&mut out, "latency_us", *latency_us);
                push_u64(&mut out, "file_bytes", *file_bytes);
            }
        }
        out.push('}');
        out
    }
}

fn push_u64(out: &mut String, key: &str, value: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_bool(out: &mut String, key: &str, value: bool) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(if value { "true" } else { "false" });
}

fn push_f64(out: &mut String, key: &str, value: f64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    if value.is_finite() {
        out.push_str(&format!("{value}"));
    } else {
        // JSON has no inf/nan literals; fall back to a string.
        out.push_str(&format!("\"{value}\""));
    }
}

fn push_str(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_kind_and_fields() {
        let e = Event::ItemTransmitted {
            source: 1,
            target: 2,
            origin: 1,
            seq: 7,
            bytes: 42,
            matched_filter: true,
            at_secs: 3600,
        };
        let json = e.to_json();
        assert!(json.starts_with("{\"event\":\"item_transmitted\""));
        assert!(json.contains("\"bytes\":42"));
        assert!(json.contains("\"matched_filter\":true"));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn strings_are_escaped() {
        let e = Event::MessageInjected {
            replica: 1,
            origin: 1,
            seq: 1,
            src: "a\"b\\c".to_string(),
            dst: "line\nbreak".to_string(),
            at_secs: 0,
        };
        let json = e.to_json();
        assert!(json.contains(r#""src":"a\"b\\c""#));
        assert!(json.contains(r#""dst":"line\nbreak""#));
    }

    #[test]
    fn non_finite_costs_become_strings() {
        let e = Event::PolicyDecision {
            replica: 1,
            peer: 2,
            policy: "maxprop",
            kind: DecisionKind::Forward,
            origin: 1,
            seq: 1,
            cost: f64::INFINITY,
            at_secs: 0,
        };
        assert!(e.to_json().contains("\"cost\":\"inf\""));
    }

    #[test]
    fn every_variant_kind_is_unique() {
        let kinds: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        let set: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(set.len(), kinds.len());
    }
}
