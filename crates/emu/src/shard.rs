//! The emulation engine.
//!
//! A run walks the merged injection/encounter schedule as *operations* —
//! an injection, a meeting (after a crash-injected reboot, when one was
//! drawn), or a bare reboot — each resolved at scan time and numbered in
//! schedule order. One function, [`perform`], performs an operation on
//! its nodes and accounts it in [`ExperimentMetrics`] (the per-day series
//! included), on the caller's thread and in schedule order. Nodes
//! permanently wear a direct-commit observer, so events reach the
//! copy/eviction ledger and the run observer the moment they are emitted:
//! no batch assembly, result buffering or event re-emission exists.
//!
//! * **Bounded residency** ([`EmulationConfig::resident_limit`]): cold
//!   replicas are snapshotted into a slot-reusing
//!   [`SpillFile`](store::SpillFile) and restored before their next
//!   operation, so peak RSS tracks the hot set, not the fleet. The
//!   encounter stream is then read through a
//!   [`Lookahead`](traces::Lookahead) window (`8 × resident_limit`):
//!   eviction is Belady-style — the replica whose next windowed encounter
//!   is farthest goes first — and replicas the window touches soon are
//!   prefetched. A spill-down snapshots every victim through a persistent
//!   [`SnapshotScratch`] into one arena and appends them with one write;
//!   restores read sorted-by-offset batches. Spill activity is surfaced
//!   as [`Event::ReplicaSpill`]. Spilling is invisible to metrics under
//!   [`SyncMode::Full`](pfr::SyncMode::Full); under digest mode the
//!   (unsnapshotted) reconciliation caches die with each spill, which can
//!   shift `recon.*` traffic — like a reboot, never a correctness loss
//!   (`tests/digest_exchange_pinned.rs` pins by how much).
//!
//! [`ExperimentMetrics`] are *equal* (`==`) for any residency cap; the
//! differential suite (`tests/shard_equivalence.rs`) pins this against
//! the all-resident run. Encounters stream from a
//! [`SpooledTrace`](traces::SpooledTrace) file as readily as from memory
//! ([`Emulation::from_spooled`]). Parallelism belongs across independent
//! replays, which [`SweepRunner`](crate::SweepRunner) runs side by side.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::iter::Peekable;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
pub(crate) struct FxHasher(u64);

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
pub(crate) type FxMap<K, V> = HashMap<K, V, FxBuild>;
type FxSet<K> = HashSet<K, FxBuild>;

/// Disambiguates spill files when several emulations run in one process
/// (the test harness does exactly that).
static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

fn spill_path(dir: &Path) -> PathBuf {
    let n = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("replidtn-spill-{}-{n}.bin", std::process::id()))
}

/// One schedule operation, resolved at scan time (assignment lookups and
/// fault draws happen there, in schedule order on one rng).
#[derive(Debug)]
enum OpKind<'s> {
    /// The workload's `event`, injected on `src_bus` (the only node it
    /// mutates).
    Inject {
        event: &'s MessageEvent,
        src_bus: ReplicaId,
        dst_bus: ReplicaId,
    },
    /// An encounter, with an optional crash-injection victim rebooting
    /// first.
    Meet {
        encounter: Encounter,
        victim: Option<ReplicaId>,
    },
    /// A degenerate self-encounter whose crash draw still fired: the
    /// victim reboots and nobody meets.
    Reboot { victim: ReplicaId },
}

#[derive(Debug)]
struct Op<'s> {
    seq: u64,
    kind: OpKind<'s>,
}

impl Op<'_> {
    fn node_ids(&self) -> (ReplicaId, Option<ReplicaId>) {
        match &self.kind {
            OpKind::Inject { src_bus, .. } => (*src_bus, None),
            OpKind::Meet { encounter, .. } => (encounter.a, Some(encounter.b)),
            OpKind::Reboot { victim } => (*victim, None),
        }
    }

    /// The op's nodes: its first node, then the other endpoint of an
    /// encounter.
    fn nodes(&self) -> impl Iterator<Item = ReplicaId> {
        let (a, b) = self.node_ids();
        std::iter::once(a).chain(b)
    }
}

type EncounterIter<'s> = Box<dyn Iterator<Item = Encounter> + 's>;

/// The encounter side of the schedule. Only residency asks which nodes
/// come next, so only a capped run reads encounters through the indexed
/// [`Lookahead`] window; an uncapped one just peeks.
enum Encounters<'s> {
    Plain(Peekable<EncounterIter<'s>>),
    Windowed(Lookahead<EncounterIter<'s>>),
}

impl Encounters<'_> {
    fn peek_time(&mut self) -> Option<SimTime> {
        match self {
            Encounters::Plain(it) => it.peek().map(|e| e.time),
            Encounters::Windowed(window) => window.peek().map(|e| e.time),
        }
    }

    fn next(&mut self) -> Option<Encounter> {
        match self {
            Encounters::Plain(it) => it.next(),
            Encounters::Windowed(window) => window.next(),
        }
    }

    /// The ordinal of `id`'s next windowed encounter (`None`: not in the
    /// window, or no window).
    fn next_need(&self, id: ReplicaId) -> Option<u64> {
        match self {
            Encounters::Plain(_) => None,
            Encounters::Windowed(window) => window.next_need(id),
        }
    }

    /// The windowed upcoming encounters, in order.
    fn upcoming(&self) -> impl Iterator<Item = &Encounter> {
        match self {
            Encounters::Plain(_) => None,
            Encounters::Windowed(window) => Some(window.upcoming()),
        }
        .into_iter()
        .flatten()
    }
}

/// The merged, time-ordered operation stream: injections and encounters
/// interleaved (ties go to injections), with fault-injection draws taken
/// here so the rng is consumed in schedule order.
struct OpStream<'s> {
    injections: Peekable<std::slice::Iter<'s, MessageEvent>>,
    encounters: Encounters<'s>,
    fault_rng: StdRng,
    drop_rate: f64,
    crash_rate: f64,
    assignment: &'s UserAssignment,
    next_seq: u64,
}

impl<'s> OpStream<'s> {
    fn next_op(&mut self) -> Option<Op<'s>> {
        loop {
            let ti = self.injections.peek().map(|e| e.time);
            let te = self.encounters.peek_time();
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

    fn scan_injection(&mut self) -> Option<OpKind<'s>> {
        let event = self.injections.next().expect("peeked");
        let day = event.time.day();
        let (Some(src_bus), Some(dst_bus)) = (
            self.assignment.bus_of(day, &event.src),
            self.assignment.bus_of(day, &event.dst),
        ) else {
            return None; // no buses scheduled that day: the mail is lost upstream
        };
        Some(OpKind::Inject {
            event,
            src_bus,
            dst_bus,
        })
    }

    fn scan_encounter(&mut self) -> Option<OpKind<'s>> {
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
            // Nobody meets in a degenerate self-encounter, but the reboot
            // drawn before it still happens.
            return victim.map(|victim| OpKind::Reboot { victim });
        }
        Some(OpKind::Meet {
            encounter: enc,
            victim,
        })
    }
}

/// Reboots a node in place: durable state round-trips through a snapshot
/// (exercising snapshot/restore), then the routing policy restarts
/// *cold* — its in-memory tables are gone, as on a device that never
/// called `save_state`. The persisted routing state is discarded, so any
/// [`PolicySpec`](crate::PolicySpec), custom or bundled, reboots alike.
/// `ReplicaStats` are not snapshotted either, so the node's evictions
/// since its last reboot leave the ledger.
fn reboot_in_place(
    node: &mut DtnNode,
    sink: &CommitSink,
    wear: &Obs,
    metrics: &mut ExperimentMetrics,
    config: &EmulationConfig,
) {
    let snapshot = node.snapshot();
    let mut restored = DtnNode::restore_overriding_policy(&snapshot, config.policy.build())
        .expect("a node restores from its own snapshot");
    // Snapshots carry no observer; digest caches died with the process,
    // so the first post-reboot exchange per peer resolves through the
    // fallback path.
    restored.replica_mut().set_observer(wear.clone());
    restored.set_sync_mode(config.sync_mode);
    *node = restored;
    sink.ledger.lock().evictions.remove(&node.id().as_u64());
    metrics.reboots += 1;
}

/// Performs one operation and accounts it — the only place either
/// happens. `first` is the op's first node (the injecting bus, encounter
/// endpoint `a`, or the reboot victim) and `second` encounter endpoint
/// `b`; `wear` is the observer a rebooted node comes up wearing. The
/// op's events reach `sink`'s ledger as they are emitted, so the copies
/// a delivery counts include the meeting that delivered it.
fn perform(
    kind: &OpKind<'_>,
    first: &mut DtnNode,
    second: Option<&mut DtnNode>,
    sink: &CommitSink,
    wear: &Obs,
    metrics: &mut ExperimentMetrics,
    config: &EmulationConfig,
) {
    let obs = &sink.obs;
    match kind {
        OpKind::Inject {
            event,
            src_bus,
            dst_bus,
        } => {
            let src_addr = bus_address(*src_bus);
            let dst_addr = bus_address(*dst_bus);
            let payload = format!("{}->{}", event.src, event.dst).into_bytes();
            let now = event.time;
            let sent = match config.message_lifetime {
                Some(lifetime) => dtn::messaging::send_message_with_lifetime(
                    first.replica_mut(),
                    &src_addr,
                    &dst_addr,
                    payload,
                    now,
                    lifetime,
                ),
                None => first.send_from(&src_addr, &dst_addr, payload, now),
            };
            let Ok(id) = sent else {
                return;
            };
            metrics.record_injection(id, &src_addr, &dst_addr, now);
            if src_bus == dst_bus {
                // Sender and destination ride the same bus today:
                // delivered on the spot with a single stored copy.
                metrics.record_delivery(id, now, 1);
                obs.emit(EventKind::MessageDelivered, || Event::MessageDelivered {
                    replica: dst_bus.as_u64(),
                    origin: id.origin().as_u64(),
                    seq: id.seq(),
                    delay_secs: 0,
                    at_secs: now.as_secs(),
                });
            }
        }
        OpKind::Meet { encounter, victim } => {
            let second = second.expect("a meeting has two endpoints");
            match victim {
                None => {}
                Some(victim) if *victim == encounter.a => {
                    reboot_in_place(first, sink, wear, metrics, config)
                }
                Some(_) => reboot_in_place(second, sink, wear, metrics, config),
            }
            let budget = match config.messages_per_contact_minute {
                Some(rate) if encounter.duration.as_secs() > 0 => {
                    let allowance = (encounter.duration.as_secs() as f64 / 60.0 * rate).ceil();
                    EncounterBudget::max_messages((allowance as usize).max(1))
                }
                _ => config.budget,
            };
            let now = encounter.time;
            let report = first.encounter(second, now, budget);
            metrics.encounters += 1;
            metrics.transmissions += report.transmitted as u64;
            metrics.duplicates += report.duplicates as u64;
            metrics.record_encounter_activity(now, report.transmitted);
            for (receiver, ids) in [
                (encounter.a, &report.delivered_to_a),
                (encounter.b, &report.delivered_to_b),
            ] {
                // Rendering the address allocates; skip it on the common
                // nothing-delivered encounter.
                if ids.is_empty() {
                    continue;
                }
                let addr = bus_address(receiver);
                for &id in ids {
                    let Some(rec) = metrics.record(id) else {
                        continue;
                    };
                    // Bounded lifetimes: a copy that slips through after
                    // expiry is not a delivery.
                    let delay = now.saturating_since(rec.injected_at);
                    if rec.dst != addr
                        || !metrics.is_pending(id)
                        || config.message_lifetime.is_some_and(|l| delay >= l)
                    {
                        continue;
                    }
                    let copies = sink.ledger.lock().live_copies(id);
                    metrics.record_delivery(id, now, copies);
                    obs.emit(EventKind::MessageDelivered, || Event::MessageDelivered {
                        replica: receiver.as_u64(),
                        origin: id.origin().as_u64(),
                        seq: id.seq(),
                        delay_secs: delay.as_secs(),
                        at_secs: now.as_secs(),
                    });
                }
            }
        }
        OpKind::Reboot { .. } => reboot_in_place(first, sink, wear, metrics, config),
    }
}

/// Bookkeeping fed by committed events instead of node inspection: live
/// copy counts and per-node eviction counters, so accounting never needs
/// to look at (possibly spilled) node state.
#[derive(Default)]
struct CommitState {
    /// `(origin, seq) -> live copies`, from injection/accept/drop deltas:
    /// the number of nodes storing the message at every commit point.
    copies: FxMap<(u64, u64), i64>,
    /// Evictions per node since its last reboot; the run's evictions are
    /// their sum at the end.
    evictions: FxMap<u64, u64>,
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
                *self.evictions.entry(*replica).or_insert(0) += 1;
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

/// Where every event of a run passes on its way to the run observer: the
/// kinds [`CommitState`] reads land in the ledger first. Nodes wear it
/// permanently, so events are committed as they are emitted with no
/// buffering, cloning or re-emission. The lock is uncontended — one
/// thread runs the whole replay — exists to keep the `Observer: Sync`
/// contract honest, and is taken only for the ledger's kinds.
struct CommitSink {
    ledger: Mutex<CommitState>,
    obs: Obs,
}

impl Observer for CommitSink {
    fn on_event(&self, event: &Event) {
        if CommitState::INTEREST.contains(event.event_kind()) {
            self.ledger.lock().apply(event);
        }
        self.obs.forward(event);
    }

    fn interest(&self) -> Interest {
        CommitState::INTEREST.union(self.obs.interest())
    }
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
    /// nodes come up wearing `wear`: the direct-commit sink mid-run,
    /// nothing at final accounting.
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
            // Snapshots carry no observer and no sync mode.
            node.replica_mut().set_observer(wear.clone());
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
                knowledge_checksum: nodes[&id].replica().knowledge_totals().checksum(),
            });
        }
        for slot in slots {
            self.file.free(slot);
        }
    }

    /// Evicts down to the cap, Belady-style: the replica whose next
    /// windowed encounter is farthest goes first, and "not in the window
    /// at all" is farthest of all; least-recently-used then lowest
    /// id break ties deterministically. All victims snapshot into one
    /// arena and land in one batched append.
    fn spill_down(
        &mut self,
        nodes: &mut FxMap<ReplicaId, Box<DtnNode>>,
        window: &Encounters<'_>,
        last_used: &FxMap<ReplicaId, u64>,
        obs: &Obs,
    ) {
        if nodes.len() <= self.limit {
            return;
        }
        let mut candidates: Vec<(u64, Reverse<u64>, Reverse<u64>)> = nodes
            .keys()
            .map(|&id| {
                (
                    window.next_need(id).unwrap_or(u64::MAX),
                    Reverse(last_used.get(&id).copied().unwrap_or(0)),
                    Reverse(id.as_u64()),
                )
            })
            .collect();
        candidates.sort_unstable_by_key(|&c| Reverse(c));
        let excess = nodes.len() - self.limit;

        self.arena.clear();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(excess);
        let mut evicted: Vec<(ReplicaId, u64, u64)> = Vec::with_capacity(excess);
        for &(_, _, Reverse(raw)) in candidates.iter().take(excess) {
            let id = ReplicaId::new(raw);
            let node = nodes.remove(&id).expect("victim resident");
            let snapshot = node.snapshot_with(&mut self.scratch);
            spans.push((self.arena.len(), snapshot.len()));
            self.arena.extend_from_slice(snapshot);
            let checksum = node.replica().knowledge_totals().checksum();
            evicted.push((id, nodes.len() as u64, checksum));
        }
        let blobs: Vec<&[u8]> = spans.iter().map(|&(o, l)| &self.arena[o..o + l]).collect();
        let slots = self
            .file
            .append_batch(&blobs)
            .expect("append to spill file");
        let file_bytes = self.file.file_bytes();
        for ((id, resident, knowledge_checksum), slot) in evicted.into_iter().zip(slots) {
            let bytes = slot.len() as u64;
            self.slots.insert(id, slot);
            obs.emit(EventKind::ReplicaSpill, || Event::ReplicaSpill {
                replica: id.as_u64(),
                bytes,
                resident,
                unspill: false,
                latency_us: 0,
                file_bytes,
                knowledge_checksum,
            });
        }
    }

    /// Restores the spilled replicas the window needs soonest, in
    /// schedule order; the budget keeps the resident set under the cap.
    fn prefetch(
        &mut self,
        nodes: &mut FxMap<ReplicaId, Box<DtnNode>>,
        window: &Encounters<'_>,
        config: &EmulationConfig,
        obs: &Obs,
        wear: &Obs,
    ) {
        let budget = self.limit.saturating_sub(nodes.len());
        if budget == 0 || self.slots.is_empty() {
            return;
        }
        /// Window entries examined per call: far enough to keep reads
        /// ahead of the schedule, bounded so scanning stays off the
        /// critical path.
        const PREFETCH_SCAN: usize = 2048;
        let mut wanted: Vec<ReplicaId> = Vec::new();
        let mut seen: FxSet<ReplicaId> = FxSet::default();
        let upcoming = window
            .upcoming()
            .take(PREFETCH_SCAN)
            .flat_map(|enc| [enc.a, enc.b]);
        for id in upcoming {
            if seen.insert(id) && self.slots.contains_key(&id) {
                wanted.push(id);
                if wanted.len() == budget {
                    break;
                }
            }
        }
        self.unspill(&wanted, nodes, config, obs, wear);
    }
}

/// Runs `emulation`'s whole schedule; see the module docs.
pub(crate) fn run(emulation: Emulation<'_>) -> (ExperimentMetrics, BTreeMap<ReplicaId, DtnNode>) {
    let Emulation {
        source,
        workload,
        config,
        mut nodes,
        assignment,
    } = emulation;
    let obs = config.observer.clone().map_or_else(Obs::none, Obs::new);
    let mut metrics = ExperimentMetrics::new();

    // A spill file when residency is capped; it removes itself on drop,
    // panics included.
    let mut residency = config.resident_limit.map(|limit| {
        let dir = config.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        std::fs::create_dir_all(&dir).expect("create spill directory");
        Residency::new(spill_path(&dir), limit)
    });
    let mut last_used: FxMap<ReplicaId, u64> = FxMap::default();

    let encounters: EncounterIter<'_> = match source {
        TraceSource::Spooled(trace) => Box::new(trace.iter().expect("open encounter spool")),
        TraceSource::Memory(trace) => Box::new(trace.iter().copied()),
    };
    // Under a cap, see far enough past the hot set for Belady eviction
    // and prefetch to bite.
    let encounters = match config.resident_limit {
        Some(limit) => {
            Encounters::Windowed(Lookahead::new(encounters, (limit * 8).clamp(1024, 131_072)))
        }
        None => Encounters::Plain(encounters.peekable()),
    };
    let mut stream = OpStream {
        injections: workload.events().iter().peekable(),
        encounters,
        fault_rng: StdRng::seed_from_u64(config.fault_seed),
        drop_rate: config.encounter_drop_rate,
        crash_rate: config.crash_rate,
        assignment: &assignment,
        next_seq: 0,
    };

    let sink = Arc::new(CommitSink {
        ledger: Mutex::default(),
        obs: obs.clone(),
    });

    // Every node permanently wears the commit sink, so events reach the
    // ledger and the run observer the moment they are emitted.
    let sink_obs = Obs::new(sink.clone());
    for node in nodes.values_mut() {
        node.replica_mut().set_observer(sink_obs.clone());
    }
    // Residency maintenance cadence: eviction and prefetch run every this
    // many operations — often enough that the resident set never drifts
    // far past the cap, rare enough that the Belady scan amortizes away.
    const MAINTENANCE_OPS: u64 = 64;
    while let Some(op) = stream.next_op() {
        if let Some(res) = residency.as_mut() {
            let mut needed: Vec<ReplicaId> = Vec::new();
            for id in op.nodes() {
                last_used.insert(id, op.seq);
                if res.slots.contains_key(&id) {
                    needed.push(id);
                }
            }
            res.unspill(&needed, &mut nodes, &config, &obs, &sink_obs);
        }
        let (first, second) = match op.node_ids() {
            (a, None) => (nodes.get_mut(&a).expect("resident node"), None),
            (a, Some(b)) => {
                let [first, second] = nodes
                    .get_disjoint_mut([&a, &b])
                    .map(|n| n.expect("resident node"));
                (first, Some(&mut **second))
            }
        };
        perform(
            &op.kind,
            first,
            second,
            &sink,
            &sink_obs,
            &mut metrics,
            &config,
        );
        if (op.seq + 1).is_multiple_of(MAINTENANCE_OPS) {
            if let Some(res) = residency.as_mut() {
                res.spill_down(&mut nodes, &stream.encounters, &last_used, &obs);
                res.prefetch(&mut nodes, &stream.encounters, &config, &obs, &sink_obs);
            }
        }
    }

    // Bring every spilled replica home for final accounting. That is not
    // residency traffic, so the pass reports nothing: its events would
    // count as unspills and widen the unspill latencies.
    if let Some(res) = residency.as_mut() {
        let parked: Vec<ReplicaId> = res.slots.keys().copied().collect();
        res.unspill(&parked, &mut nodes, &config, &Obs::none(), &Obs::none());
    }

    // Final accounting: one pass over every node's store builds the copy
    // counts for all tracked messages at once. Evictions come from
    // committed events, because spilling discards `ReplicaStats`.
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
    metrics.evictions = sink.ledger.lock().evictions.values().sum();
    (metrics, nodes)
}
