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
    /// `to_send` parked the item: it is withheld, without another
    /// verdict or event, until the stored copy is rewritten or a sync
    /// wants one of its keys.
    Park,
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
            DecisionKind::Park => "park",
            DecisionKind::RequestProcessed => "request",
        }
    }
}

/// The JSON key of a table field: its name, unless the table gives one.
macro_rules! json_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

/// Expands the event table below into [`Event`], [`EventKind`] and every
/// function that names an event's fields, so the enum, the labels, the
/// JSON keys and the rendering cannot drift apart. Each entry is a
/// variant, its label and its fields; a field may rename its JSON key
/// (`at_secs: u64 => "at"`).
macro_rules! events {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident => $label:literal {
            $($(#[doc = $fdoc:literal])* $field:ident: $ty:ty $(=> $key:literal)?,)*
        },
    )*) => {
        /// One observable occurrence somewhere in the stack.
        ///
        /// Identifiers are raw integers so this crate depends on nothing: a
        /// `replica`/`source`/`target`/`peer` field is a replica id, and an
        /// item is identified by the `(origin, seq)` pair of its item id. A
        /// `peer` or `source` of `0` means "unknown" (replica ids are
        /// nonzero by convention).
        #[derive(Clone, Debug, PartialEq)]
        #[non_exhaustive]
        pub enum Event {
            $($(#[doc = $doc])* $variant { $($(#[doc = $fdoc])* $field: $ty,)* },)*
        }

        /// Which [`Event`] variant: what an emission site names before it
        /// builds anything, and what an [`crate::Observer`] subscribes to.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum EventKind {
            $(#[doc = concat!("[`Event::", stringify!($variant), "`], labelled `", $label, "`.")]
            $variant,)*
        }

        impl EventKind {
            /// Every kind, in declaration order.
            pub const ALL: &'static [EventKind] = &[$(EventKind::$variant,)*];

            /// The stable snake_case label (the `"event"` field of the
            /// JSON rendering).
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$variant => $label,)*
                }
            }

            /// The JSON keys of this kind's fields, in rendering order.
            pub fn fields(self) -> &'static [&'static str] {
                match self {
                    $(EventKind::$variant => &[$(json_key!($field $($key)?),)*],)*
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

            /// Renders the event as one line of JSON (no trailing newline):
            /// the `"event"` label, then each field under its
            /// [`EventKind::fields`] key. See `crates/obs/README.md` for the
            /// schema.
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(128);
                out.push_str("{\"event\":\"");
                out.push_str(self.event_kind().name());
                out.push('"');
                match self {
                    $(Event::$variant { $($field,)* } => {
                        $(push_field(&mut out, json_key!($field $($key)?), $field);)*
                    })*
                }
                out.push('}');
                out
            }
        }
    };
}

// Entry order is `EventKind`'s discriminant order (the bit `Interest`
// masks) and the row order of the README's schema table.
events! {
    /// A new message entered the network at its origin replica.
    MessageInjected => "message_injected" {
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
        at_secs: u64 => "at",
    },
    /// A sync began: the target built its request.
    SyncStarted => "sync_started" {
        /// The pulling (target) replica.
        target: u64,
        /// The serving (source) replica, 0 if unknown.
        source: u64,
        /// Simulated time, seconds.
        at_secs: u64 => "at",
    },
    /// The source finished scanning and selecting candidate items for one
    /// sync (the hot inner loop of batch construction).
    SyncCandidatesSelected => "sync_candidates_selected" {
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
        at_secs: u64 => "at",
    },
    /// A parallel experiment sweep started.
    SweepStarted => "sweep_started" {
        /// Independent emulation jobs in the sweep.
        jobs: u64,
        /// Worker threads executing them.
        workers: u64,
    },
    /// The source finished building a batch for one sync.
    SyncBatchSent => "sync_batch_sent" {
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
        at_secs: u64 => "at",
    },
    /// One item was placed in an outgoing batch (a transmission).
    ItemTransmitted => "item_transmitted" {
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
        at_secs: u64 => "at",
    },
    /// A received item became newly visible in the target's filtered store.
    ItemDelivered => "item_delivered" {
        /// The receiving replica.
        replica: u64,
        /// The replica it was received from.
        source: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Simulated time, seconds.
        at_secs: u64 => "at",
    },
    /// A received item was accepted into the relay (or push-out) store.
    ItemRelayed => "item_relayed" {
        /// The receiving replica.
        replica: u64,
        /// The replica it was received from.
        source: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Simulated time, seconds.
        at_secs: u64 => "at",
    },
    /// A relay copy was evicted under the relay storage cap. The store
    /// layer has no clock, so this event carries no timestamp; the paired
    /// [`Event::MessageDropped`] identifies the same copy.
    ItemEvicted => "item_evicted" {
        /// The evicting replica.
        replica: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
    },
    /// A message's bounded lifetime ended at this holder.
    ItemExpired => "item_expired" {
        /// The replica that dropped its copy.
        replica: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Simulated time, seconds.
        at_secs: u64 => "at",
    },
    /// A message copy was discarded — the unified drop event. Every drop
    /// site emits one of these with its reason (specific events like
    /// [`Event::ItemEvicted`] / [`Event::ItemExpired`] add detail).
    MessageDropped => "message_dropped" {
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
    MessageDelivered => "message_delivered" {
        /// The destination replica.
        replica: u64,
        /// Item id origin component.
        origin: u64,
        /// Item id sequence component.
        seq: u64,
        /// Delay between injection and delivery, seconds.
        delay_secs: u64 => "delay",
        /// Simulated time, seconds.
        at_secs: u64 => "at",
    },
    /// One encounter (two-to-four syncs with alternating roles) finished.
    EncounterCompleted => "encounter_completed" {
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
        at_secs: u64 => "at",
    },
    /// A batch was applied and the target's knowledge grew.
    KnowledgeMerged => "knowledge_merged" {
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
        at_secs: u64 => "at",
    },
    /// A routing policy made one decision during batch construction.
    PolicyDecision => "policy_decision" {
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
        at_secs: u64 => "at",
    },
    /// A timed span closed (see [`crate::Span`]).
    SpanEnded => "span_ended" {
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
    TransportSync => "transport_sync" {
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
    DataPlaneReuse => "data_plane_reuse" {
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
    ReconDigest => "recon_digest" {
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
    WalAppend => "wal_append" {
        /// Bytes appended (length prefix + payload + checksum).
        bytes: u64,
        /// Whether the append was fsynced before returning.
        fsync: bool,
        /// Live WAL bytes across all live segments after the append.
        wal_bytes: u64,
    },
    /// A durable store wrote a checkpoint and rotated to a fresh WAL
    /// segment (compaction).
    CheckpointWritten => "checkpoint_written" {
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
    StoreRecovered => "store_recovered" {
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
    StoreFault => "store_fault" {
        /// The operation that failed ("append", "checkpoint", "persist").
        op: &'static str,
        /// Human-readable failure detail.
        detail: String,
    },
    /// One async-reactor sync session finished (or failed). Emitted by
    /// `crates/net` alongside [`Event::TransportSync`]; this variant adds
    /// the reactor-specific dimensions (direction, connection reuse).
    NetSession => "net_session" {
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
    GossipRound => "gossip_round" {
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
    NetBackpressure => "net_backpressure" {
        /// The local replica.
        replica: u64,
        /// The remote replica, 0 if unknown.
        peer: u64,
        /// Bytes queued when the stall was declared.
        queued_bytes: u64,
    },
    /// One reactor poll batch: syscall and wakeup deltas from a `net`
    /// node's epoll loop (emitted after a pass that accepted connections,
    /// and flushed once more at shutdown).
    NetPoll => "net_poll" {
        /// The local replica.
        replica: u64,
        /// Socket/poll syscalls issued since the last batch.
        syscalls: u64,
        /// `epoll_wait` returns that found a ready socket since the last
        /// batch.
        wakeups: u64,
    },
    /// An emulation under a residency cap parked a cold replica's
    /// snapshot on disk — or brought it back — to bound resident memory.
    ReplicaSpill => "replica_spill" {
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
        /// The replica's knowledge checksum (`pfr::KnowledgeTotals`):
        /// as kept incrementally when parked, as recomputed by the
        /// restore when brought back. The two must be equal.
        knowledge_checksum: u64,
    },
}

/// A field value as it appears in a JSON line.
trait JsonValue {
    fn write_json(&self, out: &mut String);
}

impl JsonValue for u64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl JsonValue for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl JsonValue for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&format!("{self}"));
        } else {
            // JSON has no inf/nan literals; fall back to a string.
            out.push_str(&format!("\"{self}\""));
        }
    }
}

impl JsonValue for String {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl JsonValue for &'static str {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl JsonValue for DropReason {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self.label());
    }
}

impl JsonValue for DecisionKind {
    fn write_json(&self, out: &mut String) {
        push_escaped(out, self.label());
    }
}

fn push_field(out: &mut String, key: &str, value: &impl JsonValue) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    value.write_json(out);
}

fn push_escaped(out: &mut String, value: &str) {
    out.push('"');
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
    fn every_variant_kind_is_unique() {
        let kinds: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        let set: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(set.len(), kinds.len());
    }

    /// The README's schema table lists every kind in declaration order,
    /// with its label and its JSON keys in rendering order, and nothing
    /// else.
    #[test]
    fn readme_schema_table_matches_the_event_table() {
        let readme = include_str!("../README.md");
        let section = readme
            .split("\n## Event schema\n")
            .nth(1)
            .expect("README has an `## Event schema` section");
        let section = section.split("\n## ").next().unwrap_or(section);
        let rows: Vec<(&str, Vec<&str>)> = section
            .lines()
            .filter(|line| line.starts_with("| `"))
            .map(|line| {
                let mut columns = line.split('|').skip(1).map(|c| c.trim().trim_matches('`'));
                let label = columns.next().unwrap_or_default();
                let fields = columns.next().unwrap_or_default();
                (label, fields.split(',').map(str::trim).collect())
            })
            .collect();
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            let want = (kind.name(), kind.fields().to_vec());
            assert!(
                rows.get(i) == Some(&want),
                "README schema row {} should read:\n| `{}` | `{}` | ...\nbut reads {:?}",
                i + 1,
                kind.name(),
                kind.fields().join(", "),
                rows.get(i),
            );
        }
        assert_eq!(
            rows.len(),
            EventKind::ALL.len(),
            "README schema table has rows for kinds that do not exist: {:?}",
            &rows[EventKind::ALL.len().min(rows.len())..],
        );
    }
}
