//! The sharded, event-driven emulation engine.
//!
//! The serial engine in [`engine`](crate::engine) walks the merged
//! injection/encounter schedule one operation at a time with every
//! replica resident — fine for the paper's 34-bus fleet, a wall at city
//! scale. This module re-runs the *same* schedule as batches of
//! conflict-free operations executed on worker shards, with three
//! properties the differential suite (`tests/shard_equivalence.rs`) pins:
//!
//! * **Equivalence.** [`ExperimentMetrics`] are *equal* (`==`) to the
//!   serial engine's for any worker count. The argument: operations get
//!   global sequence numbers in scan order (identical to the serial
//!   processing order, including fault-injection draws, which happen at
//!   scan time on one rng); a batch only admits operations touching
//!   disjoint node sets, and an operation that conflicts is deferred
//!   *and blocks its nodes* so every later operation on those nodes
//!   defers behind it — hence per-node execution order equals serial
//!   order, and node states evolve identically. Metric bookkeeping
//!   happens on the main thread strictly in sequence order, over event
//!   deltas of committed operations only, so time-sensitive metrics
//!   (`copies_at_delivery`, daily series) see exactly the serial-prefix
//!   world.
//! * **Streaming.** Encounters can be read from a
//!   [`SpooledTrace`](traces::SpooledTrace) file instead of an in-memory
//!   `Vec` ([`EmulationConfig::stream_encounters`]); the sequence is
//!   byte-identical either way (pinned by the spool's own tests).
//! * **Bounded residency.** With [`EmulationConfig::resident_limit`],
//!   cold replicas are snapshotted into a slot-reusing
//!   [`SpillFile`](store::SpillFile) between batches and restored before
//!   their next operation, so peak RSS tracks the hot set, not the
//!   fleet. Spilling is invisible to metrics under [`SyncMode::Full`];
//!   under digest mode the (unsnapshotted) reconciliation caches die
//!   with each spill, which can shift `recon.*` traffic — like a reboot,
//!   never a correctness loss (`tests/digest_exchange_pinned.rs` pins by
//!   how much: its capped replay counts the extra full summaries and
//!   fallback rounds).
//!
//! Three mechanisms keep the engine fast rather than merely correct:
//!
//! * **Host-sized execution.** Shards are a *partitioning* unit — they
//!   fix handoff accounting and conflict-free batch membership — while
//!   threads are an *execution* resource, sized separately by
//!   [`EmulationConfig::exec_threads`]. With a pool, a batch is split
//!   into per-thread chunks and each pool thread gets *one* channel send
//!   (and answers with one) per batch, not one per operation; events
//!   accumulate in a per-thread mailbox drained after each operation.
//!   Without a pool — the default on a single-core host, where threads
//!   only add hand-off latency — the shards execute *cooperatively* on
//!   the main thread: operations run one at a time in sequence order and
//!   commit immediately, nodes permanently wear a direct-commit
//!   observer, and no batch assembly, result buffering, or event
//!   re-emission exists at all. Metrics are identical either way.
//! * **Lookahead-driven residency.** The encounter stream is wrapped in
//!   a [`Lookahead`](traces::Lookahead) window (sized by
//!   [`EmulationConfig::lookahead`], default `8 × resident_limit`).
//!   Eviction is Belady-style: the replica whose next windowed encounter
//!   is farthest goes first (never-in-window beats touched-late), nodes
//!   riding in deferred operations are pinned, and replicas the window
//!   touches soon are *prefetched* while a dispatched batch is still
//!   executing, so spill reads overlap compute. The policy is
//!   performance-only — any eviction choice preserves equivalence.
//! * **Batched spill I/O.** A spill-down snapshots every victim through
//!   a persistent [`SnapshotScratch`] into one arena and appends them
//!   with one write; restores read sorted-by-offset batches and free
//!   their slots for reuse, so the spill file plateaus at the live
//!   parked set instead of growing with write volume.
//!
//! Cross-shard encounters — the pair's endpoints hash to different
//! shards — execute on the first endpoint's shard and are surfaced as
//! [`Event::ShardHandoff`] (counter `shard.handoffs`); spill activity as
//! [`Event::ReplicaSpill`] (`shard.spills` / `shard.unspills` /
//! `shard.resident`, latency and file high-water in `latency_us` /
//! `file_bytes`). Both are emitted from the main thread, so observer
//! output stays deterministic for a fixed worker count and execution
//! mode.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use dtn::{DtnNode, EncounterBudget, SnapshotScratch};
use obs::{Event, EventKind, Interest, Obs, Observer};
use parking_lot::Mutex;
use pfr::{ItemId, ReplicaId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use store::{SpillFile, SpillSlot};
use traces::{bus_address, Encounter, Lookahead, MessageEvent, UserAssignment};

use crate::engine::{Emulation, EmulationConfig, TraceSource};
use crate::metrics::ExperimentMetrics;

/// FxHash-style multiply-xor hasher for the hot-path maps. Their keys are
/// replica ids and sequence numbers — small, trusted integers — where
/// SipHash's DoS resistance buys nothing and its latency is measurable at
/// half a dozen map touches per operation.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type FxBuild = std::hash::BuildHasherDefault<FxHasher>;
type FxMap<K, V> = HashMap<K, V, FxBuild>;
type FxSet<K> = HashSet<K, FxBuild>;

/// Disambiguates spill/spool files when several emulations run in one
/// process (the test harness does exactly that).
static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

fn unique_path(dir: &Path, tag: &str) -> PathBuf {
    let n = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("replidtn-{tag}-{}-{n}.bin", std::process::id()))
}

/// Deletes a scratch file on drop, so temp spools survive neither panics
/// nor early exits.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Per-worker event mailbox: the observer every replica wears while it
/// executes on that worker. Drained after each operation into the
/// operation's result and re-emitted on the run observer at commit, in
/// global sequence order — so the per-op event stream preserves true
/// emission order (both encounter endpoints interleaved, exactly as the
/// serial engine's observer sees it).
#[derive(Debug)]
struct EventBuffer {
    events: Mutex<Vec<Event>>,
    /// What the commit step will read: the ledger's kinds and the run
    /// observer's.
    interest: Interest,
}

impl EventBuffer {
    fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }
}

impl Observer for EventBuffer {
    fn on_event(&self, event: &Event) {
        self.events.lock().push(event.clone());
    }

    fn interest(&self) -> Interest {
        self.interest
    }
}

/// The observer every node wears permanently on the cooperative
/// (thread-free) path: each event lands in the commit-state ledger and
/// forwards to the run observer as it is emitted, so the fast path needs
/// no per-operation buffering, cloning, or re-emission at all. The lock
/// is uncontended — only the main thread executes — and exists to keep
/// the `Observer: Sync` contract honest.
struct DirectSink {
    state: Mutex<CommitState>,
    obs: Obs,
}

impl Observer for DirectSink {
    fn on_event(&self, event: &Event) {
        self.state.lock().apply(event);
        self.obs.forward(event);
    }

    fn interest(&self) -> Interest {
        CommitState::INTEREST.union(self.obs.interest())
    }
}

/// One schedule operation, resolved at scan time (assignment lookups and
/// fault draws happen there, on the serial rng order).
#[derive(Debug)]
enum OpKind {
    /// A message injection on `src_bus` (the only node it mutates).
    Inject {
        src_user: String,
        dst_user: String,
        src_bus: ReplicaId,
        dst_bus: ReplicaId,
        now: SimTime,
    },
    /// An encounter, with an optional crash-injection victim rebooting
    /// first (as in the serial engine, the reboot draw precedes the
    /// meeting).
    Meet {
        encounter: Encounter,
        victim: Option<ReplicaId>,
    },
    /// A degenerate self-encounter whose crash draw still fired: the
    /// serial engine reboots the victim and skips the meeting.
    Reboot { victim: ReplicaId },
}

#[derive(Debug)]
struct Op {
    seq: u64,
    kind: OpKind,
}

impl Op {
    fn node_ids(&self) -> (ReplicaId, Option<ReplicaId>) {
        match &self.kind {
            OpKind::Inject { src_bus, .. } => (*src_bus, None),
            OpKind::Meet { encounter, .. } => (encounter.a, Some(encounter.b)),
            OpKind::Reboot { victim } => (*victim, None),
        }
    }

    fn victim(&self) -> Option<ReplicaId> {
        match &self.kind {
            OpKind::Inject { .. } => None,
            OpKind::Meet { victim, .. } => *victim,
            OpKind::Reboot { victim } => Some(*victim),
        }
    }
}

/// A dispatched operation: the op plus its owned nodes travelling to a
/// worker shard and back. Nodes stay boxed end to end — a [`DtnNode`] is
/// ~1 KiB inline, so every hop (map, chunk, channel, result) moves a
/// pointer, not the struct.
struct Job {
    op: Op,
    nodes: Vec<(ReplicaId, Box<DtnNode>)>,
}

enum Outcome {
    Injected {
        id: Option<ItemId>,
    },
    Met {
        report: dtn::EncounterReport,
        rebooted: bool,
    },
    Rebooted {
        rebooted: bool,
    },
}

struct ExecResult {
    op: Op,
    nodes: Vec<(ReplicaId, Box<DtnNode>)>,
    events: Vec<Event>,
    outcome: Outcome,
}

/// The worker side of the chunked dispatch protocol: one job channel per
/// pool thread — a single send carries the thread's whole share of a
/// batch — and one shared result channel back, answered once per chunk.
struct WorkerPool {
    jobs: Vec<mpsc::Sender<Vec<Job>>>,
    results: mpsc::Receiver<Vec<ExecResult>>,
}

/// The merged, time-ordered operation stream: injections and encounters
/// interleaved exactly as the serial loop does (ties go to injections),
/// with fault-injection draws taken here so the rng consumption order is
/// identical to serial regardless of batching. The encounter side is a
/// [`Lookahead`] window, so residency decisions can ask "when is this
/// node touched next?" without disturbing the sequence.
struct OpStream<'s> {
    injections: std::iter::Peekable<std::slice::Iter<'s, MessageEvent>>,
    encounters: Lookahead<Box<dyn Iterator<Item = Encounter> + 's>>,
    fault_rng: StdRng,
    drop_rate: f64,
    crash_rate: f64,
    assignment: &'s UserAssignment,
    next_seq: u64,
}

impl OpStream<'_> {
    fn next_op(&mut self) -> Option<Op> {
        loop {
            let ti = self.injections.peek().map(|e| e.time);
            let te = self.encounters.peek().map(|e| e.time);
            let kind = match (ti, te) {
                (None, None) => return None,
                (Some(ti), Some(te)) if ti <= te => self.scan_injection(),
                (Some(_), None) => self.scan_injection(),
                (_, Some(_)) => self.scan_encounter(),
            };
            if let Some(kind) = kind {
                let seq = self.next_seq;
                self.next_seq += 1;
                return Some(Op { seq, kind });
            }
        }
    }

    fn scan_injection(&mut self) -> Option<OpKind> {
        let event = self.injections.next().expect("peeked");
        let day = event.time.day();
        let (Some(src_bus), Some(dst_bus)) = (
            self.assignment.bus_of(day, &event.src),
            self.assignment.bus_of(day, &event.dst),
        ) else {
            return None; // no buses scheduled that day: lost upstream, as in serial
        };
        Some(OpKind::Inject {
            src_user: event.src.clone(),
            dst_user: event.dst.clone(),
            src_bus,
            dst_bus,
            now: event.time,
        })
    }

    fn scan_encounter(&mut self) -> Option<OpKind> {
        let enc = self.encounters.next().expect("peeked");
        if self.drop_rate > 0.0 && self.fault_rng.gen::<f64>() < self.drop_rate {
            return None;
        }
        let mut victim = None;
        if self.crash_rate > 0.0 && self.fault_rng.gen::<f64>() < self.crash_rate {
            victim = Some(if self.fault_rng.gen::<bool>() {
                enc.a
            } else {
                enc.b
            });
        }
        if enc.a == enc.b {
            // The serial engine's `meet` returns immediately on a
            // degenerate self-encounter, but the reboot drawn before it
            // still happens.
            return victim.map(|victim| OpKind::Reboot { victim });
        }
        Some(OpKind::Meet {
            encounter: enc,
            victim,
        })
    }
}

fn shard_of(id: ReplicaId, workers: usize) -> usize {
    (id.as_u64() % workers as u64) as usize
}

/// Reboots a node in place: durable state round-trips through a snapshot,
/// the routing policy restarts cold. Mirrors the serial engine's
/// `reboot`, including keeping the node untouched when the snapshot names
/// a policy outside the registry (custom specs).
fn reboot_in_place(node: &mut DtnNode, mailbox: &Obs, config: &EmulationConfig) -> bool {
    let snapshot = node.snapshot();
    match DtnNode::restore(&snapshot) {
        Ok(mut restored) => {
            restored.replace_policy(config.policy.build());
            restored.replica_mut().set_observer(mailbox.clone());
            restored
                .replica_mut()
                .set_candidate_scan(config.candidate_scan);
            restored.replica_mut().set_owned_copies(config.owned_copies);
            restored.set_sync_mode(config.sync_mode);
            *node = restored;
            true
        }
        Err(_) => false,
    }
}

/// Executes one operation on a worker shard. Pure node work: no metrics,
/// no shared state — everything the commit step needs rides back in the
/// result. The worker's mailbox is attached to every rider first and
/// drained once after the op, so events come out in true emission order.
fn execute(job: Job, config: &EmulationConfig, buffer: &EventBuffer, mailbox: &Obs) -> ExecResult {
    let Job { op, mut nodes } = job;
    for (_, node) in nodes.iter_mut() {
        node.replica_mut().set_observer(mailbox.clone());
    }
    let outcome = match &op.kind {
        OpKind::Inject {
            src_user,
            dst_user,
            src_bus,
            dst_bus,
            now,
        } => {
            let (_, node) = &mut nodes[0];
            let src_addr = bus_address(*src_bus);
            let dst_addr = bus_address(*dst_bus);
            let payload = format!("{src_user}->{dst_user}").into_bytes();
            let sent = match config.message_lifetime {
                Some(lifetime) => dtn::messaging::send_message_with_lifetime(
                    node.replica_mut(),
                    &src_addr,
                    &dst_addr,
                    payload,
                    *now,
                    lifetime,
                ),
                None => node.send_from(&src_addr, &dst_addr, payload, *now),
            };
            Outcome::Injected { id: sent.ok() }
        }
        OpKind::Meet { encounter, victim } => {
            let mut rebooted = false;
            if let Some(victim) = victim {
                let slot = nodes
                    .iter_mut()
                    .find(|(id, _)| id == victim)
                    .expect("victim rides with its op");
                rebooted = reboot_in_place(&mut slot.1, mailbox, config);
            }
            let budget = match config.messages_per_contact_minute {
                Some(rate) if encounter.duration.as_secs() > 0 => {
                    let allowance = (encounter.duration.as_secs() as f64 / 60.0 * rate).ceil();
                    EncounterBudget::max_messages((allowance as usize).max(1))
                }
                _ => config.budget,
            };
            let (first, rest) = nodes.split_at_mut(1);
            let report = first[0].1.encounter(&mut rest[0].1, encounter.time, budget);
            Outcome::Met { report, rebooted }
        }
        OpKind::Reboot { victim: _ } => {
            let (_, node) = &mut nodes[0];
            let rebooted = reboot_in_place(node, mailbox, config);
            Outcome::Rebooted { rebooted }
        }
    };
    let events = buffer.drain();
    ExecResult {
        op,
        nodes,
        events,
        outcome,
    }
}

/// Main-thread bookkeeping that replaces the serial engine's direct node
/// inspection: live copy counts and per-node eviction counters are
/// maintained incrementally from committed events, so commits never need
/// to look at (possibly spilled, possibly mid-batch) node state.
#[derive(Default)]
struct CommitState {
    /// `(origin, seq) -> live copies`, from injection/accept/drop deltas.
    /// Matches the serial `count_copies` scan at every commit point for
    /// every queried (pending, unexpired) message.
    copies: FxMap<(u64, u64), i64>,
    /// Evictions per node since its last successful reboot.
    evict_since_reboot: FxMap<u64, u64>,
    total_evictions: u64,
    /// Evictions wiped by reboots (`ReplicaStats` are not snapshotted, so
    /// the serial engine's final sum only sees since-last-reboot counts).
    lost_evictions: u64,
}

impl CommitState {
    /// The kinds [`CommitState::apply`] reads.
    const INTEREST: Interest = Interest::of(&[
        EventKind::MessageInjected,
        EventKind::ItemDelivered,
        EventKind::ItemRelayed,
        EventKind::MessageDropped,
        EventKind::ItemEvicted,
    ]);

    fn apply(&mut self, event: &Event) {
        match event {
            Event::MessageInjected { origin, seq, .. }
            | Event::ItemDelivered { origin, seq, .. }
            | Event::ItemRelayed { origin, seq, .. } => {
                *self.copies.entry((*origin, *seq)).or_insert(0) += 1;
            }
            Event::MessageDropped { origin, seq, .. } => {
                *self.copies.entry((*origin, *seq)).or_insert(0) -= 1;
            }
            Event::ItemEvicted { replica, .. } => {
                self.total_evictions += 1;
                *self.evict_since_reboot.entry(*replica).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    fn live_copies(&self, id: ItemId) -> usize {
        self.copies
            .get(&(id.origin().as_u64(), id.seq()))
            .copied()
            .unwrap_or(0)
            .max(0) as usize
    }
}

/// Reboot bookkeeping: the victim's pre-reboot eviction counter is wiped
/// (the serial engine's `ReplicaStats` are not snapshotted, so its final
/// sum only sees since-last-reboot counts). Runs *before* the rebooted
/// operation's own events reach the ledger — the serial engine reboots
/// before meeting, so any evictions the meeting causes count against the
/// fresh epoch.
fn note_reboot(victim: ReplicaId, state: &mut CommitState, metrics: &mut ExperimentMetrics) {
    let lost = state
        .evict_since_reboot
        .remove(&victim.as_u64())
        .unwrap_or(0);
    state.lost_evictions += lost;
    metrics.reboots += 1;
}

/// Emits the cross-shard handoff marker for `op` if its encounter spans
/// shards. Pure partition accounting: `shard_of` depends only on ids and
/// the shard count, never on how many threads executed the batch.
fn note_handoff(op: &Op, workers: usize, obs: &Obs) {
    if let OpKind::Meet { encounter, .. } = &op.kind {
        let from = shard_of(encounter.a, workers);
        let to = shard_of(encounter.b, workers);
        if from != to {
            obs.emit(EventKind::ShardHandoff, || Event::ShardHandoff {
                a: encounter.a.as_u64(),
                b: encounter.b.as_u64(),
                from_shard: from as u64,
                to_shard: to as u64,
                at_secs: encounter.time.as_secs(),
            });
        }
    }
}

/// Applies one executed operation to the metrics, in global sequence
/// order. This is the serial engine's post-mutation bookkeeping, verbatim
/// but fed from the outcome and the event-derived ledger instead of live
/// nodes. Reboot accounting is *not* here — callers run [`note_reboot`]
/// at the right point relative to the op's events.
fn apply_outcome(
    op: &Op,
    outcome: Outcome,
    metrics: &mut ExperimentMetrics,
    obs: &Obs,
    config: &EmulationConfig,
    state: &mut CommitState,
) {
    match outcome {
        Outcome::Injected { id: None } | Outcome::Rebooted { .. } => {}
        Outcome::Injected { id: Some(id) } => {
            let OpKind::Inject {
                src_bus,
                dst_bus,
                now,
                ..
            } = &op.kind
            else {
                unreachable!("injection outcome from injection op")
            };
            let src_addr = bus_address(*src_bus);
            let dst_addr = bus_address(*dst_bus);
            metrics.record_injection(id, &src_addr, &dst_addr, *now);
            if src_bus == dst_bus {
                // Sender and destination ride the same bus today:
                // delivered on the spot with a single stored copy.
                metrics.record_delivery(id, *now, 1);
                obs.emit(EventKind::MessageDelivered, || Event::MessageDelivered {
                    replica: dst_bus.as_u64(),
                    origin: id.origin().as_u64(),
                    seq: id.seq(),
                    delay_secs: 0,
                    at_secs: now.as_secs(),
                });
            }
        }
        Outcome::Met { report, .. } => {
            let OpKind::Meet { encounter, .. } = &op.kind else {
                unreachable!("meet outcome from meet op")
            };
            let now = encounter.time;
            metrics.encounters += 1;
            metrics.transmissions += report.transmitted as u64;
            metrics.duplicates += report.duplicates as u64;
            for (receiver, ids) in [
                (encounter.a, &report.delivered_to_a),
                (encounter.b, &report.delivered_to_b),
            ] {
                if ids.is_empty() {
                    continue;
                }
                let addr = bus_address(receiver);
                for &id in ids {
                    let is_final_destination =
                        metrics.record(id).is_some_and(|rec| rec.dst == addr);
                    if is_final_destination && metrics.is_pending(id) {
                        let in_time = match config.message_lifetime {
                            None => true,
                            Some(lifetime) => metrics
                                .record(id)
                                .is_some_and(|r| now.saturating_since(r.injected_at) < lifetime),
                        };
                        if in_time {
                            let copies = state.live_copies(id);
                            let delay_secs = metrics
                                .record(id)
                                .map(|r| now.saturating_since(r.injected_at).as_secs())
                                .unwrap_or(0);
                            metrics.record_delivery(id, now, copies);
                            obs.emit(EventKind::MessageDelivered, || Event::MessageDelivered {
                                replica: receiver.as_u64(),
                                origin: id.origin().as_u64(),
                                seq: id.seq(),
                                delay_secs,
                                at_secs: now.as_secs(),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Commits one executed result from the pooled path, in global sequence
/// order: reboot bookkeeping first (it precedes the op's own events, as
/// the serial engine reboots before meeting), then the handoff marker,
/// then the op's buffered events into the ledger and out to the run
/// observer, then the outcome's metric deltas.
fn commit(
    result: ExecResult,
    metrics: &mut ExperimentMetrics,
    obs: &Obs,
    config: &EmulationConfig,
    state: &mut CommitState,
    workers: usize,
) {
    let ExecResult {
        op,
        events,
        outcome,
        ..
    } = result;
    let rebooted = matches!(
        outcome,
        Outcome::Met { rebooted: true, .. } | Outcome::Rebooted { rebooted: true }
    );
    if rebooted {
        let victim = op.victim().expect("rebooted op has a victim");
        note_reboot(victim, state, metrics);
    }
    note_handoff(&op, workers, obs);
    for event in events {
        state.apply(&event);
        obs.forward(&event);
    }
    apply_outcome(&op, outcome, metrics, obs, config, state);
}

/// Bounded-residency state: the slot-reusing spill file, the parked
/// replicas' slots, and the reusable scratch buffers batched snapshot
/// writes stage through.
struct Residency {
    file: SpillFile,
    slots: BTreeMap<ReplicaId, SpillSlot>,
    limit: usize,
    scratch: SnapshotScratch,
    /// Victim snapshots for one spill-down, back to back; retained so a
    /// steady-state spill cycle stops allocating.
    arena: Vec<u8>,
}

impl Residency {
    fn new(path: PathBuf, limit: usize) -> Residency {
        Residency {
            file: SpillFile::create(path).expect("create spill file"),
            slots: BTreeMap::new(),
            limit,
            scratch: SnapshotScratch::new(),
            arena: Vec::new(),
        }
    }

    /// Restores `ids` (all currently spilled) with one sorted-offset
    /// batch read, freeing their slots for reuse. Unspill latency is the
    /// amortized read share plus the node's own rebuild time. Restored
    /// nodes come up wearing `wear` — the direct-commit sink on the
    /// cooperative path, disabled on the pooled path (whose workers
    /// attach their own mailbox at dispatch).
    fn unspill(
        &mut self,
        ids: &[ReplicaId],
        nodes: &mut FxMap<ReplicaId, Box<DtnNode>>,
        config: &EmulationConfig,
        obs: &Obs,
        wear: &Obs,
    ) {
        if ids.is_empty() {
            return;
        }
        let started = Instant::now();
        let slots: Vec<SpillSlot> = ids
            .iter()
            .map(|id| self.slots.remove(id).expect("node is resident or spilled"))
            .collect();
        let blobs = self.file.read_batch(&slots).expect("read spilled replicas");
        let read_share_us = started.elapsed().as_micros() as u64 / ids.len() as u64;
        for ((&id, slot), bytes) in ids.iter().zip(&slots).zip(&blobs) {
            let rebuild = Instant::now();
            let mut node = DtnNode::restore_with_policy(bytes, config.policy.build())
                .expect("spilled replica restores under the run's own policy");
            // Snapshots carry no observability or acceleration state; the
            // caller's `wear` observer goes on here, the selection modes
            // come back as on the serial reboot path.
            node.replica_mut().set_observer(wear.clone());
            node.replica_mut().set_candidate_scan(config.candidate_scan);
            node.replica_mut().set_owned_copies(config.owned_copies);
            node.set_sync_mode(config.sync_mode);
            nodes.insert(id, Box::new(node));
            let latency_us = read_share_us + rebuild.elapsed().as_micros() as u64;
            obs.emit(EventKind::ReplicaSpill, || Event::ReplicaSpill {
                replica: id.as_u64(),
                bytes: slot.len() as u64,
                resident: nodes.len() as u64,
                unspill: true,
                latency_us,
                file_bytes: self.file.file_bytes(),
            });
        }
        for slot in slots {
            self.file.free(slot);
        }
    }

    /// Evicts down to the cap, Belady-style: the replica whose next
    /// windowed encounter is farthest goes first, and "not in the window
    /// at all" is farthest of all; least-recently-dispatched then lowest
    /// id break ties deterministically. `pinned` nodes — riding in
    /// deferred operations that execute next batch — are never evicted.
    /// All victims snapshot into one arena and land in one batched
    /// append.
    fn spill_down(
        &mut self,
        nodes: &mut FxMap<ReplicaId, Box<DtnNode>>,
        pinned: &FxSet<ReplicaId>,
        next_need: impl Fn(ReplicaId) -> Option<u64>,
        last_used: &FxMap<ReplicaId, u64>,
        obs: &Obs,
    ) {
        if nodes.len() <= self.limit {
            return;
        }
        let mut candidates: Vec<(u64, Reverse<u64>, Reverse<u64>)> = nodes
            .keys()
            .filter(|id| !pinned.contains(id))
            .map(|&id| {
                (
                    next_need(id).unwrap_or(u64::MAX),
                    Reverse(last_used.get(&id).copied().unwrap_or(0)),
                    Reverse(id.as_u64()),
                )
            })
            .collect();
        candidates.sort_unstable_by_key(|&c| Reverse(c));
        let excess = nodes.len() - self.limit;

        self.arena.clear();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(excess);
        let mut evicted: Vec<(ReplicaId, u64)> = Vec::with_capacity(excess);
        for &(_, _, Reverse(raw)) in candidates.iter().take(excess) {
            let id = ReplicaId::new(raw);
            let node = nodes.remove(&id).expect("victim resident");
            let snapshot = node.snapshot_with(&mut self.scratch);
            spans.push((self.arena.len(), snapshot.len()));
            self.arena.extend_from_slice(snapshot);
            evicted.push((id, nodes.len() as u64));
        }
        let blobs: Vec<&[u8]> = spans.iter().map(|&(o, l)| &self.arena[o..o + l]).collect();
        let slots = self
            .file
            .append_batch(&blobs)
            .expect("append to spill file");
        let file_bytes = self.file.file_bytes();
        for ((id, resident), slot) in evicted.into_iter().zip(slots) {
            let bytes = slot.len() as u64;
            self.slots.insert(id, slot);
            obs.emit(EventKind::ReplicaSpill, || Event::ReplicaSpill {
                replica: id.as_u64(),
                bytes,
                resident,
                unspill: false,
                latency_us: 0,
                file_bytes,
            });
        }
    }
}

/// Restores soon-needed spilled replicas while a dispatched batch is
/// still executing on the workers, so spill reads overlap compute.
/// Deferred operations' nodes come first (they run next batch), then the
/// lookahead window in schedule order; the budget keeps the resident set
/// — counting the nodes riding in flight — under the cap.
#[allow(clippy::too_many_arguments)]
fn prefetch_upcoming<I: Iterator<Item = Encounter>>(
    res: &mut Residency,
    nodes: &mut FxMap<ReplicaId, Box<DtnNode>>,
    in_flight: usize,
    deferred: &VecDeque<Op>,
    window: &Lookahead<I>,
    config: &EmulationConfig,
    obs: &Obs,
    wear: &Obs,
) {
    let budget = res.limit.saturating_sub(nodes.len() + in_flight);
    if budget == 0 || res.slots.is_empty() {
        return;
    }
    /// Window entries examined per batch: far enough to keep reads ahead
    /// of the schedule, bounded so scanning stays off the critical path.
    const PREFETCH_SCAN: usize = 2048;
    let mut wanted: Vec<ReplicaId> = Vec::new();
    let mut seen: FxSet<ReplicaId> = FxSet::default();
    'scan: {
        for op in deferred {
            let (a, b) = op.node_ids();
            for id in [Some(a), b].into_iter().flatten() {
                if seen.insert(id) && res.slots.contains_key(&id) {
                    wanted.push(id);
                    if wanted.len() == budget {
                        break 'scan;
                    }
                }
            }
        }
        for enc in window.upcoming().take(PREFETCH_SCAN) {
            for id in [enc.a, enc.b] {
                if seen.insert(id) && res.slots.contains_key(&id) {
                    wanted.push(id);
                    if wanted.len() == budget {
                        break 'scan;
                    }
                }
            }
        }
    }
    res.unspill(&wanted, nodes, config, obs, wear);
}

impl<'a> Emulation<'a> {
    /// Runs the schedule on the sharded engine. Dispatched to by
    /// [`Emulation::run_into_parts`] whenever a scale knob is set; the
    /// returned metrics equal a serial run's exactly.
    pub(crate) fn run_sharded(self) -> (ExperimentMetrics, BTreeMap<ReplicaId, DtnNode>) {
        let Emulation {
            source,
            workload,
            config,
            nodes,
            assignment,
            mut metrics,
            obs,
            rollup,
        } = self;
        let workers = config.shards.unwrap_or(1).max(1);
        // Threads are sized to the host, not to the shard count: on a
        // single-core machine a pool only adds hand-off latency, so zero
        // threads means the shards run cooperatively on the main thread.
        let threads = match config.exec_threads {
            Some(n) => n.min(workers),
            None => {
                let cores = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                if cores <= 1 || workers == 1 {
                    0
                } else {
                    workers
                }
            }
        };

        // The working map boxes every node: a `DtnNode` is ~1 KiB inline,
        // and the hot loop moves each op's nodes out and back four times —
        // boxed, those moves are pointer-sized. Workers attach their own
        // mailbox at dispatch; nothing may fire on the run observer from
        // between batches.
        let mut nodes: FxMap<ReplicaId, Box<DtnNode>> = nodes
            .into_iter()
            .map(|(id, node)| (id, Box::new(node)))
            .collect();
        for node in nodes.values_mut() {
            node.replica_mut().set_observer(Obs::none());
        }

        // Disk plumbing: a spill file when residency is capped, a temp
        // spool when an in-memory trace should stream from disk. Both
        // remove themselves on drop (the spill file via its own `Drop`).
        let scratch_dir = config.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let mut residency = config.resident_limit.map(|limit| {
            std::fs::create_dir_all(&scratch_dir).expect("create spill directory");
            Residency::new(unique_path(&scratch_dir, "spill"), limit)
        });
        let mut last_used: FxMap<ReplicaId, u64> = FxMap::default();

        let temp_spool = match (source, config.stream_encounters) {
            (TraceSource::Memory(trace), true) => {
                std::fs::create_dir_all(&scratch_dir).expect("create spool directory");
                let path = unique_path(&scratch_dir, "spool");
                let spooled = traces::SpooledTrace::spool(trace, path).expect("spool trace");
                let guard = RemoveOnDrop(spooled.path().to_path_buf());
                Some((spooled, guard))
            }
            _ => None,
        };
        let encounters: Box<dyn Iterator<Item = Encounter> + '_> = match (&temp_spool, source) {
            (Some((spooled, _)), _) => Box::new(spooled.iter().expect("open temp encounter spool")),
            (None, TraceSource::Spooled(trace)) => {
                Box::new(trace.iter().expect("open encounter spool"))
            }
            (None, TraceSource::Memory(trace)) => Box::new(trace.iter().copied()),
        };

        // Without a residency cap the window degenerates to plain
        // peeking; with one, see far enough past the hot set for Belady
        // eviction and prefetch to bite.
        let window = config.lookahead.unwrap_or(match config.resident_limit {
            Some(limit) => (limit * 8).clamp(1024, 131_072),
            None => 1,
        });
        let mut stream = OpStream {
            injections: workload.events().iter().peekable(),
            encounters: Lookahead::new(encounters, window),
            fault_rng: StdRng::seed_from_u64(config.fault_seed),
            drop_rate: config.encounter_drop_rate,
            crash_rate: config.crash_rate,
            assignment: &assignment,
            next_seq: 0,
        };

        let mut state = CommitState::default();

        if threads == 0 {
            // Cooperative path: no pool, no batches, no buffering.
            // Operations execute in sequence order and commit on the
            // spot; every node permanently wears the direct-commit sink,
            // so events reach the ledger and the run observer the moment
            // they are emitted. Shard handoff accounting is untouched —
            // a shard is a property of ids, not of threads.
            let sink = Arc::new(DirectSink {
                state: Mutex::new(std::mem::take(&mut state)),
                obs: obs.clone(),
            });
            let sink_obs = Obs::new(sink.clone());
            for node in nodes.values_mut() {
                node.replica_mut().set_observer(sink_obs.clone());
            }
            // Residency maintenance cadence: eviction and prefetch run
            // every this many operations — often enough that the
            // resident set never drifts far past the cap, rare enough
            // that the Belady scan amortizes away.
            const MAINTENANCE_OPS: u64 = 64;
            let no_deferred: VecDeque<Op> = VecDeque::new();
            let mut ops_done: u64 = 0;
            while let Some(op) = stream.next_op() {
                if let Some(res) = residency.as_mut() {
                    let (a, b) = op.node_ids();
                    let mut needed: Vec<ReplicaId> = Vec::new();
                    for id in [Some(a), b].into_iter().flatten() {
                        last_used.insert(id, op.seq);
                        if res.slots.contains_key(&id) {
                            needed.push(id);
                        }
                    }
                    res.unspill(&needed, &mut nodes, &config, &obs, &sink_obs);
                }
                note_handoff(&op, workers, &obs);
                let outcome = match &op.kind {
                    OpKind::Inject {
                        src_user,
                        dst_user,
                        src_bus,
                        dst_bus,
                        now,
                    } => {
                        let node = nodes.get_mut(src_bus).expect("resident node");
                        let src_addr = bus_address(*src_bus);
                        let dst_addr = bus_address(*dst_bus);
                        let payload = format!("{src_user}->{dst_user}").into_bytes();
                        let sent = match config.message_lifetime {
                            Some(lifetime) => dtn::messaging::send_message_with_lifetime(
                                node.replica_mut(),
                                &src_addr,
                                &dst_addr,
                                payload,
                                *now,
                                lifetime,
                            ),
                            None => node.send_from(&src_addr, &dst_addr, payload, *now),
                        };
                        Outcome::Injected { id: sent.ok() }
                    }
                    OpKind::Meet { encounter, victim } => {
                        if let Some(victim) = victim {
                            let node = nodes.get_mut(victim).expect("victim resident");
                            if reboot_in_place(node, &sink_obs, &config) {
                                // Between the reboot and the meeting,
                                // exactly where the serial engine's
                                // bookkeeping lands: pre-reboot evictions
                                // are wiped before the meeting can add
                                // fresh ones.
                                note_reboot(*victim, &mut sink.state.lock(), &mut metrics);
                            }
                        }
                        let budget = match config.messages_per_contact_minute {
                            Some(rate) if encounter.duration.as_secs() > 0 => {
                                let allowance =
                                    (encounter.duration.as_secs() as f64 / 60.0 * rate).ceil();
                                EncounterBudget::max_messages((allowance as usize).max(1))
                            }
                            _ => config.budget,
                        };
                        // A self-encounter is scanned as `OpKind::Reboot`,
                        // so the endpoints are always distinct here.
                        let [first, second] = nodes
                            .get_disjoint_mut([&encounter.a, &encounter.b])
                            .map(|n| n.expect("resident node"));
                        let report = first.encounter(second, encounter.time, budget);
                        // Reboot bookkeeping already happened in place.
                        Outcome::Met {
                            report,
                            rebooted: false,
                        }
                    }
                    OpKind::Reboot { victim } => {
                        let node = nodes.get_mut(victim).expect("resident node");
                        if reboot_in_place(node, &sink_obs, &config) {
                            note_reboot(*victim, &mut sink.state.lock(), &mut metrics);
                        }
                        Outcome::Rebooted { rebooted: false }
                    }
                };
                apply_outcome(
                    &op,
                    outcome,
                    &mut metrics,
                    &obs,
                    &config,
                    &mut sink.state.lock(),
                );
                ops_done += 1;
                if ops_done.is_multiple_of(MAINTENANCE_OPS) {
                    if let Some(res) = residency.as_mut() {
                        res.spill_down(
                            &mut nodes,
                            &FxSet::default(),
                            |id| stream.encounters.next_need(id),
                            &last_used,
                            &obs,
                        );
                        prefetch_upcoming(
                            res,
                            &mut nodes,
                            0,
                            &no_deferred,
                            &stream.encounters,
                            &config,
                            &obs,
                            &sink_obs,
                        );
                    }
                }
            }
            state = std::mem::take(&mut *sink.state.lock());
        } else {
            let mut deferred: VecDeque<Op> = VecDeque::new();
            // Keyed probes on `next_commit` only — no order needed, and a
            // B-tree would shift 200-byte results around on every insert.
            let mut pending: FxMap<u64, ExecResult> = FxMap::default();
            let mut next_commit: u64 = 0;
            let max_batch = workers * 32;
            // Conflicts concentrate on hub nodes; past this many parked
            // ops, scanning further mostly grows the park, so cut the
            // batch here.
            const MAX_DEFERRED: usize = 64;
            let resident_cap = config.resident_limit;
            let mut batch_no: u64 = 0;
            let no_wear = Obs::none();

            std::thread::scope(|scope| {
                let (result_tx, result_rx) = mpsc::channel::<Vec<ExecResult>>();
                let mut job_txs: Vec<mpsc::Sender<Vec<Job>>> = Vec::with_capacity(threads);
                for _ in 0..threads {
                    let (tx, rx) = mpsc::channel::<Vec<Job>>();
                    job_txs.push(tx);
                    let worker_config = config.clone();
                    let results = result_tx.clone();
                    let interest = CommitState::INTEREST.union(obs.interest());
                    scope.spawn(move || {
                        let buffer = Arc::new(EventBuffer {
                            events: Mutex::default(),
                            interest,
                        });
                        let mailbox = Obs::new(buffer.clone());
                        for chunk in rx {
                            let out: Vec<ExecResult> = chunk
                                .into_iter()
                                .map(|job| execute(job, &worker_config, &buffer, &mailbox))
                                .collect();
                            if results.send(out).is_err() {
                                break;
                            }
                        }
                    });
                }
                let pool = WorkerPool {
                    jobs: job_txs,
                    results: result_rx,
                };

                loop {
                    // Assemble one conflict-free batch: deferred ops
                    // first (in order), then fresh scans. A
                    // deferred/conflicting op blocks its nodes so
                    // everything behind it on those nodes queues up
                    // behind it — per-node order stays serial.
                    let mut batch: Vec<Op> = Vec::new();
                    let mut busy: FxSet<ReplicaId> = FxSet::default();
                    let mut blocked: FxSet<ReplicaId> = FxSet::default();
                    let mut parked: VecDeque<Op> = VecDeque::new();
                    let place = |op: Op,
                                 batch: &mut Vec<Op>,
                                 busy: &mut FxSet<ReplicaId>,
                                 blocked: &mut FxSet<ReplicaId>,
                                 parked: &mut VecDeque<Op>| {
                        let (a, b) = op.node_ids();
                        let clear = |set: &FxSet<ReplicaId>, id: ReplicaId| !set.contains(&id);
                        let free = |id: ReplicaId| clear(busy, id) && clear(blocked, id);
                        let placeable = free(a)
                            && match b {
                                Some(b) => free(b),
                                None => true,
                            };
                        if placeable {
                            busy.insert(a);
                            if let Some(b) = b {
                                busy.insert(b);
                            }
                            batch.push(op);
                        } else {
                            blocked.insert(a);
                            if let Some(b) = b {
                                blocked.insert(b);
                            }
                            parked.push_back(op);
                        }
                    };
                    for op in deferred.drain(..) {
                        place(op, &mut batch, &mut busy, &mut blocked, &mut parked);
                    }
                    while batch.len() < max_batch && parked.len() < MAX_DEFERRED {
                        // Under a residency cap, stop admitting fresh
                        // ops once the batch's working set fills it — a
                        // wider batch would only buy unspill-then-respill
                        // churn.
                        if let Some(limit) = resident_cap {
                            if !batch.is_empty() && busy.len() + 2 > limit {
                                break;
                            }
                        }
                        let Some(op) = stream.next_op() else { break };
                        place(op, &mut batch, &mut busy, &mut blocked, &mut parked);
                    }
                    deferred = parked;
                    if batch.is_empty() {
                        // The first deferred op is always placeable, so
                        // an empty batch means the schedule is exhausted.
                        debug_assert!(deferred.is_empty());
                        break;
                    }
                    batch_no += 1;

                    // Everything the batch touches comes home in one
                    // batched read before dispatch.
                    if let Some(res) = residency.as_mut() {
                        let mut needed: Vec<ReplicaId> = Vec::new();
                        for op in &batch {
                            let (a, b) = op.node_ids();
                            for id in [Some(a), b].into_iter().flatten() {
                                if res.slots.contains_key(&id) {
                                    needed.push(id);
                                }
                            }
                        }
                        res.unspill(&needed, &mut nodes, &config, &obs, &no_wear);
                    }

                    // Chunk the batch — each op executes on the pool
                    // thread its first node's shard maps to, carrying
                    // its owned nodes along — and dispatch one chunk per
                    // thread.
                    let mut in_flight = 0usize;
                    let mut chunks: Vec<Vec<Job>> = (0..threads).map(|_| Vec::new()).collect();
                    let track_recency = residency.is_some();
                    for op in batch {
                        let (a, b) = op.node_ids();
                        let thread = shard_of(a, workers) % threads;
                        let mut op_nodes = Vec::with_capacity(2);
                        for id in [Some(a), b].into_iter().flatten() {
                            if track_recency {
                                last_used.insert(id, batch_no);
                            }
                            let node = nodes.remove(&id).expect("resident node");
                            op_nodes.push((id, node));
                            in_flight += 1;
                        }
                        chunks[thread].push(Job {
                            op,
                            nodes: op_nodes,
                        });
                    }
                    let mut outstanding = 0;
                    for (thread, chunk) in chunks.into_iter().enumerate() {
                        if chunk.is_empty() {
                            continue;
                        }
                        pool.jobs[thread].send(chunk).expect("worker thread alive");
                        outstanding += 1;
                    }

                    // The pool is busy: overlap the next window's spill
                    // reads with its compute.
                    if let Some(res) = residency.as_mut() {
                        prefetch_upcoming(
                            res,
                            &mut nodes,
                            in_flight,
                            &deferred,
                            &stream.encounters,
                            &config,
                            &obs,
                            &no_wear,
                        );
                    }
                    for _ in 0..outstanding {
                        let results = pool.results.recv().expect("worker results");
                        for mut result in results {
                            for (id, node) in result.nodes.drain(..) {
                                nodes.insert(id, node);
                            }
                            pending.insert(result.op.seq, result);
                        }
                    }

                    // Commit strictly in global sequence order. Ops
                    // still deferred stall later commits until they
                    // execute.
                    while let Some(result) = pending.remove(&next_commit) {
                        commit(result, &mut metrics, &obs, &config, &mut state, workers);
                        next_commit += 1;
                    }

                    // Spill back down to the cap, farthest next
                    // encounter first, never a node the deferred park
                    // runs next batch.
                    if let Some(res) = residency.as_mut() {
                        let mut pinned: FxSet<ReplicaId> = FxSet::default();
                        for op in &deferred {
                            let (a, b) = op.node_ids();
                            pinned.insert(a);
                            if let Some(b) = b {
                                pinned.insert(b);
                            }
                        }
                        res.spill_down(
                            &mut nodes,
                            &pinned,
                            |id| stream.encounters.next_need(id),
                            &last_used,
                            &obs,
                        );
                    }
                }
                drop(pool);
            });
            debug_assert!(pending.is_empty(), "all dispatched ops commit");
        }

        // Bring every spilled replica home for final accounting; the
        // spill file and temp spool delete themselves on drop, panics
        // included.
        if let Some(res) = residency.as_mut() {
            let parked: Vec<ReplicaId> = res.slots.keys().copied().collect();
            res.unspill(&parked, &mut nodes, &config, &obs, &Obs::none());
        }

        // Final accounting, identical to the serial engine — except
        // evictions, which come from committed events because spilling
        // (like rebooting) discards `ReplicaStats`.
        let nodes: BTreeMap<ReplicaId, DtnNode> =
            nodes.into_iter().map(|(id, node)| (id, *node)).collect();
        let mut copies: BTreeMap<ItemId, usize> = BTreeMap::new();
        for node in nodes.values() {
            for item in node.replica().iter_items() {
                if !item.is_deleted() {
                    *copies.entry(item.id()).or_insert(0) += 1;
                }
            }
        }
        let ids: Vec<ItemId> = metrics.records().map(|r| r.id).collect();
        for id in ids {
            let count = copies.get(&id).copied().unwrap_or(0);
            metrics.record_final_copies(id, count);
        }
        metrics.evictions = state.total_evictions - state.lost_evictions;
        metrics.set_daily_stats(rollup.snapshot());
        (metrics, nodes)
    }
}
