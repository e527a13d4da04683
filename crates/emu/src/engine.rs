//! The trace-driven emulation engine.
//!
//! Mirrors the paper's experimental setup (§VI-A): every bus in the
//! mobility trace runs one DTN application instance backed by one replica;
//! e-mail users are distributed uniformly over the buses scheduled each
//! day; a message from user *u* to user *v* injected on day *d* is
//! addressed from *u*'s bus to *v*'s bus for that day; and every encounter
//! in the trace triggers two syncs with the source/target roles alternated.

use std::collections::BTreeMap;
use std::sync::Arc;

use dtn::{DtnNode, DtnPolicy, EncounterBudget, FilterStrategy, PolicyKind};
use obs::{Event, EventKind, Fanout, Obs, Observer};
use pfr::{ItemId, ReplicaId, SimTime, SyncMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traces::{bus_address, EmailWorkload, EncounterTrace, SpooledTrace, UserAssignment};

use crate::metrics::{DayRollup, ExperimentMetrics};

/// Which routing policy the emulated nodes run: one of the bundled kinds
/// with paper parameters, or a custom factory (used by the ablation
/// benches to sweep protocol parameters).
#[derive(Clone)]
pub enum PolicySpec {
    /// A bundled policy with its Table II defaults.
    Kind(PolicyKind),
    /// A caller-supplied factory producing one policy instance per node.
    Custom {
        /// Label shown in reports.
        label: String,
        /// Per-node policy factory.
        build: Arc<dyn Fn() -> Box<dyn DtnPolicy> + Send + Sync>,
    },
}

impl PolicySpec {
    /// A custom policy spec from a label and factory closure.
    pub fn custom(
        label: impl Into<String>,
        build: impl Fn() -> Box<dyn DtnPolicy> + Send + Sync + 'static,
    ) -> Self {
        PolicySpec::Custom {
            label: label.into(),
            build: Arc::new(build),
        }
    }

    /// The spec's display label.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Kind(kind) => kind.label().to_string(),
            PolicySpec::Custom { label, .. } => label.clone(),
        }
    }

    pub(crate) fn build(&self) -> Box<dyn DtnPolicy> {
        match self {
            PolicySpec::Kind(kind) => kind.build(),
            PolicySpec::Custom { build, .. } => build(),
        }
    }
}

impl From<PolicyKind> for PolicySpec {
    fn from(kind: PolicyKind) -> Self {
        PolicySpec::Kind(kind)
    }
}

impl std::fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PolicySpec({})", self.label())
    }
}

/// Configuration of one emulation run.
#[derive(Clone)]
pub struct EmulationConfig {
    /// The routing policy every node runs.
    pub policy: PolicySpec,
    /// Per-encounter bandwidth budget (paper §VI-D uses 1 message).
    pub budget: EncounterBudget,
    /// Per-node relay storage cap (paper §VI-D uses 2 messages).
    pub relay_limit: Option<usize>,
    /// Multi-address filter strategy (paper §VI-B); meaningful mainly with
    /// [`PolicyKind::Direct`].
    pub filter_strategy: FilterStrategy,
    /// Seed for the random filter strategy.
    pub strategy_seed: u64,
    /// Seed for the daily user-to-bus assignment.
    pub assignment_seed: u64,
    /// Probability that a scheduled encounter silently fails (both parties
    /// out of range before syncing) — failure injection for robustness
    /// tests; the paper's experiments use 0.
    pub encounter_drop_rate: f64,
    /// Probability, per encounter, that one participant has just rebooted:
    /// its replica state survives (durable snapshot) but its in-memory
    /// routing state is lost and rebuilt cold. Exercises the substrate's
    /// crash resilience; the paper's experiments use 0.
    pub crash_rate: f64,
    /// Seed for failure injection.
    pub fault_seed: u64,
    /// When set, every injected message carries this bounded lifetime:
    /// expired messages are purged by their holders and tombstoned by
    /// their senders, and late arrivals do not count as deliveries — the
    /// "messages with limited lifetimes" regime the paper's Figure 6
    /// approximates from CDFs.
    pub message_lifetime: Option<pfr::SimDuration>,
    /// Duration-aware bandwidth: when set, each encounter's message budget
    /// is `ceil(contact_minutes × rate)` (at least 1), derived from the
    /// trace's recorded contact durations. Overrides `budget` for
    /// encounters with a known duration; zero-duration encounters fall
    /// back to `budget`.
    pub messages_per_contact_minute: Option<f64>,
    /// Extra observer receiving every event the run emits (sync batches,
    /// policy decisions, drops, deliveries, encounters). The engine always
    /// attaches its own [`DayRollup`] — the source of
    /// [`ExperimentMetrics::daily_stats`] — and fans events out to this
    /// observer too when one is set.
    pub observer: Option<Arc<dyn Observer>>,
    /// Force every node's replica back onto the legacy full-store
    /// candidate scan instead of the per-origin version index. Only the
    /// selection algorithm changes — results are identical either way —
    /// so this exists for A/B benchmarking (see the `macro_emu` bench).
    pub candidate_scan: bool,
    /// Force every synced copy onto the legacy owned data plane: outgoing
    /// batch entries deep-copy their payload and un-intern their attribute
    /// strings instead of sharing buffers. Results are byte-identical
    /// either way — this exists only so the `macro_emu` bench and the perf
    /// guard can A/B the copy-on-write data plane against pre-CoW
    /// allocation behavior.
    pub owned_copies: bool,
    /// How encounters exchange sync metadata (see
    /// [`DtnNode::set_sync_mode`]): [`SyncMode::Full`] sends complete
    /// knowledge vectors and routing payloads; [`SyncMode::Digest`]
    /// replaces them with compact reconciliation digests and routing
    /// deltas. Delivery results are identical in both modes — only the
    /// metadata bytes on the wire differ (`recon.*` counters account the
    /// savings).
    pub sync_mode: SyncMode,
    /// Number of worker shards for the sharded engine. `None` runs the
    /// serial engine unless another scale knob (`stream_encounters`,
    /// `spill_dir`, `resident_limit`, or a spooled trace source) forces
    /// the sharded path with one worker. Metrics are identical to the
    /// serial engine for any shard count — the differential suite in
    /// `tests/shard_equivalence.rs` pins this.
    pub shards: Option<usize>,
    /// Stream encounters from disk instead of iterating the in-memory
    /// trace: an in-memory source is first spooled to a temp file, a
    /// spooled source streams directly. The encounter *sequence* is
    /// byte-identical either way.
    pub stream_encounters: bool,
    /// Where spill and temp spool files live. Defaults to
    /// [`std::env::temp_dir`] when a knob that needs disk is on.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Cap on resident (in-memory) replicas: beyond it, the coldest nodes
    /// are snapshotted into a spill file and restored on their next
    /// encounter. `None` keeps every node resident. The cap is enforced
    /// between batches, so residency transiently exceeds it by at most one
    /// batch's working set.
    pub resident_limit: Option<usize>,
    /// Trace-lookahead window (encounters) for the Belady-style residency
    /// policy: eviction spills the replica whose next windowed encounter
    /// is farthest (or absent), and upcoming spilled replicas are
    /// batch-unspilled ahead of their encounters. `None` derives a window
    /// from `resident_limit`. Purely a performance knob — the metrics are
    /// identical for any window (the differential suite pins this).
    pub lookahead: Option<usize>,
    /// Worker threads executing shard chunks. Shards are a *partitioning*
    /// unit (handoff accounting, conflict-free batching); threads are an
    /// *execution* resource, and decoupling them lets the engine fit the
    /// host: `None` sizes the pool to the machine — one thread per shard
    /// on multi-core hosts, zero on a single-core host, where the shards
    /// instead execute cooperatively on the main thread with operations
    /// committed as they complete (no channels, no event buffering).
    /// `Some(0)` forces the cooperative path, `Some(n)` forces a pool of
    /// `min(n, shards)` threads. Purely an execution knob — metrics are
    /// identical for any value (the differential suite pins this).
    pub exec_threads: Option<usize>,
}

impl std::fmt::Debug for EmulationConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmulationConfig")
            .field("policy", &self.policy)
            .field("budget", &self.budget)
            .field("relay_limit", &self.relay_limit)
            .field("filter_strategy", &self.filter_strategy)
            .field("strategy_seed", &self.strategy_seed)
            .field("assignment_seed", &self.assignment_seed)
            .field("encounter_drop_rate", &self.encounter_drop_rate)
            .field("crash_rate", &self.crash_rate)
            .field("fault_seed", &self.fault_seed)
            .field("message_lifetime", &self.message_lifetime)
            .field(
                "messages_per_contact_minute",
                &self.messages_per_contact_minute,
            )
            .field("observer", &self.observer.is_some())
            .field("candidate_scan", &self.candidate_scan)
            .field("owned_copies", &self.owned_copies)
            .field("sync_mode", &self.sync_mode)
            .field("shards", &self.shards)
            .field("stream_encounters", &self.stream_encounters)
            .field("spill_dir", &self.spill_dir)
            .field("resident_limit", &self.resident_limit)
            .field("lookahead", &self.lookahead)
            .finish()
    }
}

impl Default for EmulationConfig {
    fn default() -> Self {
        EmulationConfig {
            policy: PolicySpec::Kind(PolicyKind::Direct),
            budget: EncounterBudget::unlimited(),
            relay_limit: None,
            filter_strategy: FilterStrategy::SelfOnly,
            strategy_seed: 0x5eed,
            assignment_seed: 0xa551,
            encounter_drop_rate: 0.0,
            crash_rate: 0.0,
            fault_seed: 0xfa17,
            message_lifetime: None,
            messages_per_contact_minute: None,
            observer: None,
            candidate_scan: false,
            owned_copies: false,
            sync_mode: SyncMode::default(),
            shards: None,
            stream_encounters: false,
            spill_dir: None,
            resident_limit: None,
            lookahead: None,
            exec_threads: None,
        }
    }
}

impl EmulationConfig {
    /// A run of `policy` with everything else at paper defaults.
    pub fn for_policy(policy: impl Into<PolicySpec>) -> Self {
        EmulationConfig {
            policy: policy.into(),
            ..EmulationConfig::default()
        }
    }
}

/// Where an emulation reads its encounter schedule from: a fully
/// in-memory [`EncounterTrace`], or an on-disk [`SpooledTrace`] whose
/// encounters stream from a file (only per-day schedules stay resident).
#[derive(Clone, Copy)]
pub(crate) enum TraceSource<'a> {
    /// Every encounter resident in memory.
    Memory(&'a EncounterTrace),
    /// Encounters streamed from a spool file.
    Spooled(&'a SpooledTrace),
}

impl TraceSource<'_> {
    fn node_ids(&self) -> Vec<ReplicaId> {
        match self {
            TraceSource::Memory(trace) => trace.nodes().into_iter().collect(),
            TraceSource::Spooled(trace) => trace.nodes().iter().copied().collect(),
        }
    }

    fn len(&self) -> u64 {
        match self {
            TraceSource::Memory(trace) => trace.len() as u64,
            TraceSource::Spooled(trace) => trace.len(),
        }
    }
}

/// A full emulation: nodes, traces, assignment, and collected metrics.
pub struct Emulation<'a> {
    pub(crate) source: TraceSource<'a>,
    pub(crate) workload: &'a EmailWorkload,
    pub(crate) config: EmulationConfig,
    pub(crate) nodes: BTreeMap<ReplicaId, DtnNode>,
    pub(crate) assignment: UserAssignment,
    pub(crate) metrics: ExperimentMetrics,
    pub(crate) obs: Obs,
    pub(crate) rollup: Arc<DayRollup>,
}

impl<'a> Emulation<'a> {
    /// Prepares an emulation over the given trace and workload.
    pub fn new(
        trace: &'a EncounterTrace,
        workload: &'a EmailWorkload,
        config: EmulationConfig,
    ) -> Self {
        Self::build(TraceSource::Memory(trace), workload, config)
    }

    /// Prepares an emulation over a spooled (on-disk) trace: encounters
    /// stream from the spool file, so only per-day schedules and the node
    /// set stay resident. Runs on the sharded engine.
    ///
    /// # Panics
    ///
    /// When `config.filter_strategy` is [`FilterStrategy::Selected`]: top
    /// partner statistics require the whole trace in memory.
    pub fn from_spooled(
        trace: &'a SpooledTrace,
        workload: &'a EmailWorkload,
        config: EmulationConfig,
    ) -> Self {
        Self::build(TraceSource::Spooled(trace), workload, config)
    }

    fn build(
        source: TraceSource<'a>,
        workload: &'a EmailWorkload,
        config: EmulationConfig,
    ) -> Self {
        // The engine's day rollup always listens; a user observer fans in.
        let rollup = Arc::new(DayRollup::new());
        let obs = match &config.observer {
            Some(user) => Obs::new(Arc::new(Fanout::new(vec![
                rollup.clone() as Arc<dyn Observer>,
                user.clone(),
            ]))),
            None => Obs::new(rollup.clone()),
        };

        let mut nodes = BTreeMap::new();
        let all_nodes: Vec<ReplicaId> = source.node_ids();
        for &id in &all_nodes {
            let mut node = DtnNode::with_policy(id, &bus_address(id), config.policy.build());
            node.replica_mut().set_relay_limit(config.relay_limit);
            node.replica_mut().set_observer(obs.clone());
            node.replica_mut().set_candidate_scan(config.candidate_scan);
            node.replica_mut().set_owned_copies(config.owned_copies);
            node.set_sync_mode(config.sync_mode);
            nodes.insert(id, node);
        }

        // Multi-address filters (§IV-B): widen each node's filter with the
        // addresses of k other hosts.
        match config.filter_strategy {
            FilterStrategy::SelfOnly => {}
            FilterStrategy::Random(k) => {
                for &id in &all_nodes {
                    let mut rng = StdRng::seed_from_u64(
                        config.strategy_seed ^ id.as_u64().wrapping_mul(0x9e37),
                    );
                    let mut others: Vec<ReplicaId> =
                        all_nodes.iter().copied().filter(|&o| o != id).collect();
                    for i in 0..k.min(others.len()) {
                        let j = rng.gen_range(i..others.len());
                        others.swap(i, j);
                    }
                    others.truncate(k.min(others.len()));
                    let addrs: Vec<String> = others.into_iter().map(bus_address).collect();
                    nodes
                        .get_mut(&id)
                        .expect("node exists")
                        .set_extra_filter_addresses(addrs);
                }
            }
            FilterStrategy::Selected(k) => {
                let TraceSource::Memory(trace) = source else {
                    panic!(
                        "FilterStrategy::Selected needs top-partner statistics over the whole \
                         trace, which a spooled source does not keep in memory; use SelfOnly or \
                         Random with spooled traces"
                    );
                };
                for &id in &all_nodes {
                    let addrs: Vec<String> = trace
                        .top_partners(id, k)
                        .into_iter()
                        .map(bus_address)
                        .collect();
                    nodes
                        .get_mut(&id)
                        .expect("node exists")
                        .set_extra_filter_addresses(addrs);
                }
            }
        }

        let assignment = match source {
            TraceSource::Memory(trace) => {
                UserAssignment::uniform(trace, workload.users(), config.assignment_seed)
            }
            TraceSource::Spooled(trace) => {
                UserAssignment::uniform_spooled(trace, workload.users(), config.assignment_seed)
            }
        };
        Emulation {
            source,
            workload,
            config,
            nodes,
            assignment,
            metrics: ExperimentMetrics::new(),
            obs,
            rollup,
        }
    }

    /// The per-day user assignment in use.
    pub fn assignment(&self) -> &UserAssignment {
        &self.assignment
    }

    /// Read access to a node.
    pub fn node(&self, id: ReplicaId) -> Option<&DtnNode> {
        self.nodes.get(&id)
    }

    /// Runs the whole schedule and returns the collected metrics.
    pub fn run(self) -> ExperimentMetrics {
        self.run_into_parts().0
    }

    /// Runs the whole schedule, returning the metrics *and* the final
    /// nodes for post-run inspection (stored items, policy state sizes,
    /// replica statistics).
    pub fn run_into_parts(mut self) -> (ExperimentMetrics, BTreeMap<ReplicaId, DtnNode>) {
        if self.sharded_requested() {
            return self.run_sharded();
        }
        let TraceSource::Memory(trace) = self.source else {
            unreachable!("spooled sources always take the sharded path");
        };
        let mut injections = self.workload.events().iter().peekable();
        let mut encounters = trace.iter().peekable();
        let mut fault_rng = StdRng::seed_from_u64(self.config.fault_seed);

        loop {
            let next_injection = injections.peek().map(|e| e.time);
            let next_encounter = encounters.peek().map(|e| e.time);
            match (next_injection, next_encounter) {
                (None, None) => break,
                (Some(ti), Some(te)) if ti <= te => {
                    let event = injections.next().expect("peeked");
                    self.inject(&event.src, &event.dst, event.time);
                }
                (Some(_), None) => {
                    let event = injections.next().expect("peeked");
                    self.inject(&event.src, &event.dst, event.time);
                }
                (_, Some(_)) => {
                    let enc = *encounters.next().expect("peeked");
                    if self.config.encounter_drop_rate > 0.0
                        && fault_rng.gen::<f64>() < self.config.encounter_drop_rate
                    {
                        continue;
                    }
                    if self.config.crash_rate > 0.0
                        && fault_rng.gen::<f64>() < self.config.crash_rate
                    {
                        let victim = if fault_rng.gen::<bool>() {
                            enc.a
                        } else {
                            enc.b
                        };
                        self.reboot(victim);
                    }
                    self.meet(&enc);
                }
            }
        }

        // Final storage accounting: one pass over every node's store builds
        // the copy counts for all tracked messages at once, instead of one
        // full node sweep per message (O(nodes * messages) -> O(live items)).
        let mut copies: BTreeMap<ItemId, usize> = BTreeMap::new();
        for node in self.nodes.values() {
            for item in node.replica().iter_items() {
                if !item.is_deleted() {
                    *copies.entry(item.id()).or_insert(0) += 1;
                }
            }
        }
        let ids: Vec<ItemId> = self.metrics.records().map(|r| r.id).collect();
        for id in ids {
            let count = copies.get(&id).copied().unwrap_or(0);
            self.metrics.record_final_copies(id, count);
        }
        self.metrics.evictions = self
            .nodes
            .values()
            .map(|n| n.replica().stats().evictions)
            .sum();
        // The per-day time series is a pure function of the event stream.
        self.metrics.set_daily_stats(self.rollup.snapshot());
        (self.metrics, self.nodes)
    }

    /// Whether any scale knob routes this run onto the sharded engine.
    fn sharded_requested(&self) -> bool {
        self.config.shards.is_some()
            || self.config.stream_encounters
            || self.config.spill_dir.is_some()
            || self.config.resident_limit.is_some()
            || matches!(self.source, TraceSource::Spooled(_))
    }

    fn inject(&mut self, src_user: &str, dst_user: &str, now: SimTime) {
        let day = now.day();
        let (Some(src_bus), Some(dst_bus)) = (
            self.assignment.bus_of(day, src_user),
            self.assignment.bus_of(day, dst_user),
        ) else {
            return; // no buses scheduled that day: the mail is lost upstream
        };
        let src_addr = bus_address(src_bus);
        let dst_addr = bus_address(dst_bus);
        let payload = format!("{src_user}->{dst_user}").into_bytes();
        let Some(node) = self.nodes.get_mut(&src_bus) else {
            return;
        };
        let sent = match self.config.message_lifetime {
            Some(lifetime) => dtn::messaging::send_message_with_lifetime(
                node.replica_mut(),
                &src_addr,
                &dst_addr,
                payload,
                now,
                lifetime,
            ),
            None => node.send_from(&src_addr, &dst_addr, payload, now),
        };
        let Ok(id) = sent else {
            return;
        };
        self.metrics.record_injection(id, &src_addr, &dst_addr, now);
        if src_bus == dst_bus {
            // Sender and destination ride the same bus today: delivered on
            // the spot with a single stored copy.
            self.metrics.record_delivery(id, now, 1);
            self.obs
                .emit(EventKind::MessageDelivered, || Event::MessageDelivered {
                    replica: dst_bus.as_u64(),
                    origin: id.origin().as_u64(),
                    seq: id.seq(),
                    delay_secs: 0,
                    at_secs: now.as_secs(),
                });
        }
    }

    fn meet(&mut self, encounter: &traces::Encounter) {
        let (a, b, now) = (encounter.a, encounter.b, encounter.time);
        if a == b {
            return;
        }
        let budget = match self.config.messages_per_contact_minute {
            Some(rate) if encounter.duration.as_secs() > 0 => {
                let allowance = (encounter.duration.as_secs() as f64 / 60.0 * rate).ceil();
                EncounterBudget::max_messages((allowance as usize).max(1))
            }
            _ => self.config.budget,
        };
        // Borrow both nodes in place via one range iterator — removing and
        // re-inserting them cost a couple of map-node allocations per
        // encounter, which dominated the steady-state allocation profile.
        let report = {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            let mut range = self.nodes.range_mut(lo..=hi);
            let (Some((&first, node_lo)), Some((&last, node_hi))) =
                (range.next(), range.next_back())
            else {
                return;
            };
            if first != lo || last != hi {
                return;
            }
            let (node_a, node_b) = if a < b {
                (node_lo, node_hi)
            } else {
                (node_hi, node_lo)
            };
            node_a.encounter(node_b, now, budget)
        };

        self.metrics.encounters += 1;
        self.metrics.transmissions += report.transmitted as u64;
        self.metrics.duplicates += report.duplicates as u64;

        for (receiver, ids) in [(a, &report.delivered_to_a), (b, &report.delivered_to_b)] {
            // Rendering the address allocates; skip it on the common
            // nothing-delivered encounter.
            if ids.is_empty() {
                continue;
            }
            let addr = bus_address(receiver);
            for &id in ids {
                let is_final_destination =
                    self.metrics.record(id).is_some_and(|rec| rec.dst == addr);
                if is_final_destination && self.metrics.is_pending(id) {
                    // Bounded lifetimes: a copy that slips through after
                    // expiry is not a delivery.
                    let in_time = match self.config.message_lifetime {
                        None => true,
                        Some(lifetime) => self
                            .metrics
                            .record(id)
                            .is_some_and(|r| now.saturating_since(r.injected_at) < lifetime),
                    };
                    if in_time {
                        let copies = self.count_copies(id);
                        let delay_secs = self
                            .metrics
                            .record(id)
                            .map(|r| now.saturating_since(r.injected_at).as_secs())
                            .unwrap_or(0);
                        self.metrics.record_delivery(id, now, copies);
                        self.obs
                            .emit(EventKind::MessageDelivered, || Event::MessageDelivered {
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

    /// Simulates a reboot: the replica's durable state round-trips through
    /// a snapshot (exercising snapshot/restore), then the routing policy
    /// restarts *cold* — its in-memory tables are gone, as on a device
    /// that never called `save_state`. (Nodes that do persist routing
    /// state reboot losslessly; that path is covered by
    /// `DtnNode::restore`'s tests.)
    fn reboot(&mut self, id: ReplicaId) {
        let Some(node) = self.nodes.remove(&id) else {
            return;
        };
        let snapshot = node.snapshot();
        match DtnNode::restore(&snapshot) {
            Ok(mut restored) => {
                restored.replace_policy(self.config.policy.build());
                // Snapshots carry no observability or acceleration state;
                // re-attach the observer and selection mode.
                restored.replica_mut().set_observer(self.obs.clone());
                restored
                    .replica_mut()
                    .set_candidate_scan(self.config.candidate_scan);
                restored
                    .replica_mut()
                    .set_owned_copies(self.config.owned_copies);
                // Digest caches died with the process; the mode survives
                // as configuration and the first post-reboot exchange per
                // peer resolves through the fallback path.
                restored.set_sync_mode(self.config.sync_mode);
                self.metrics.reboots += 1;
                self.nodes.insert(id, restored);
            }
            Err(_) => {
                // Snapshots we just produced always decode; keep the node
                // rather than losing it if that ever regresses. (Custom
                // policies outside the registry also land here.)
                self.nodes.insert(id, node);
            }
        }
    }

    fn count_copies(&self, id: ItemId) -> usize {
        self.nodes
            .values()
            .filter(|n| n.replica().item(id).is_some_and(|item| !item.is_deleted()))
            .count()
    }
}

/// Fleet-wide storage accounting over the final nodes of a run (use with
/// [`Emulation::run_into_parts`]).
///
/// Deliberately *not* part of [`ExperimentMetrics`]: the owned/shared A/B
/// harness compares metrics with `==`, and physical sharing is exactly
/// what differs between the two modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageFootprint {
    /// Bytes charging every stored copy independently (what the fleet
    /// would hold without payload sharing).
    pub total_bytes: u64,
    /// Bytes charging each shared payload buffer once across the whole
    /// fleet (what the fleet physically holds under the copy-on-write
    /// data plane); equals `total_bytes` when nothing is shared.
    pub deduped_bytes: u64,
}

/// Measures the fleet's storage footprint: every live item on every node,
/// counted both per-copy and with shared payload buffers deduplicated via
/// [`pfr::Item::approx_size_deduped`].
pub fn storage_footprint(nodes: &BTreeMap<ReplicaId, DtnNode>) -> StorageFootprint {
    let mut seen = std::collections::HashSet::new();
    let mut footprint = StorageFootprint::default();
    for node in nodes.values() {
        for item in node.replica().iter_items() {
            if item.is_deleted() {
                continue;
            }
            footprint.total_bytes += item.approx_size() as u64;
            footprint.deduped_bytes += item.approx_size_deduped(&mut seen) as u64;
        }
    }
    footprint
}

impl std::fmt::Debug for Emulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emulation")
            .field("policy", &self.config.policy.label())
            .field("nodes", &self.nodes.len())
            .field("encounters", &self.source.len())
            .field("messages", &self.workload.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::{DieselNetConfig, EmailConfig};

    fn small_setup() -> (EncounterTrace, EmailWorkload) {
        (
            DieselNetConfig::small().generate(),
            EmailConfig::small().generate(),
        )
    }

    #[test]
    fn baseline_run_completes_and_counts() {
        let (trace, workload) = small_setup();
        let metrics = Emulation::new(&trace, &workload, EmulationConfig::default()).run();
        assert_eq!(metrics.injected(), workload.len());
        assert_eq!(metrics.encounters, trace.len() as u64);
        assert_eq!(metrics.duplicates, 0, "at-most-once must hold");
        assert!(metrics.delivered() > 0, "some direct encounters deliver");
    }

    #[test]
    fn epidemic_beats_baseline_delivery() {
        let (trace, workload) = small_setup();
        let base = Emulation::new(&trace, &workload, EmulationConfig::default()).run();
        let epi = Emulation::new(
            &trace,
            &workload,
            EmulationConfig::for_policy(PolicyKind::Epidemic),
        )
        .run();
        assert!(
            epi.delivered() >= base.delivered(),
            "flooding can't deliver less: {} vs {}",
            epi.delivered(),
            base.delivered()
        );
        assert!(
            epi.transmissions > base.transmissions,
            "flooding costs traffic"
        );
    }

    #[test]
    fn deliveries_only_count_true_destinations() {
        let (trace, workload) = small_setup();
        let config = EmulationConfig {
            filter_strategy: FilterStrategy::Selected(4),
            ..EmulationConfig::default()
        };
        let metrics = Emulation::new(&trace, &workload, config).run();
        for rec in metrics.records() {
            if let Some(at) = rec.delivered_at {
                assert!(at >= rec.injected_at);
            }
        }
        assert_eq!(metrics.duplicates, 0);
    }

    #[test]
    fn relay_limit_produces_evictions_under_flooding() {
        let (trace, workload) = small_setup();
        let config = EmulationConfig {
            policy: PolicyKind::Epidemic.into(),
            relay_limit: Some(2),
            ..EmulationConfig::default()
        };
        let metrics = Emulation::new(&trace, &workload, config).run();
        assert!(metrics.evictions > 0, "tight storage must evict");
        assert_eq!(metrics.duplicates, 0);
    }

    #[test]
    fn bandwidth_budget_caps_transmissions() {
        let (trace, workload) = small_setup();
        let config = EmulationConfig {
            policy: PolicyKind::Epidemic.into(),
            budget: EncounterBudget::max_messages(1),
            ..EmulationConfig::default()
        };
        let metrics = Emulation::new(&trace, &workload, config).run();
        assert!(
            metrics.transmissions <= metrics.encounters,
            "at most one message per encounter"
        );
    }

    #[test]
    fn dropped_encounters_reduce_traffic() {
        let (trace, workload) = small_setup();
        let full = Emulation::new(
            &trace,
            &workload,
            EmulationConfig::for_policy(PolicyKind::Epidemic),
        )
        .run();
        let lossy = Emulation::new(
            &trace,
            &workload,
            EmulationConfig {
                policy: PolicyKind::Epidemic.into(),
                encounter_drop_rate: 0.5,
                ..EmulationConfig::default()
            },
        )
        .run();
        assert!(lossy.encounters < full.encounters);
        // Flooding is loss-resilient, so traffic need not shrink, but
        // delivery cannot improve with fewer contact opportunities.
        assert!(lossy.delivered() <= full.delivered());
        // Replication guarantees still hold under loss.
        assert_eq!(lossy.duplicates, 0);
    }

    #[test]
    fn duration_bandwidth_derives_budget_from_contacts() {
        let (trace, workload) = small_setup();
        // A very stingy rate: ~1 message per 10 contact-minutes. Short
        // drive-bys carry almost nothing.
        let stingy = Emulation::new(
            &trace,
            &workload,
            EmulationConfig {
                policy: PolicyKind::Epidemic.into(),
                messages_per_contact_minute: Some(0.1),
                ..EmulationConfig::default()
            },
        )
        .run();
        let free = Emulation::new(
            &trace,
            &workload,
            EmulationConfig::for_policy(PolicyKind::Epidemic),
        )
        .run();
        assert!(
            stingy.transmissions < free.transmissions,
            "duration budgets must bite: {} vs {}",
            stingy.transmissions,
            free.transmissions
        );
        assert_eq!(stingy.duplicates, 0);
        // Budget is at least 1 per encounter, so delivery still works.
        assert!(stingy.delivered() > 0);
    }

    #[test]
    fn crash_injection_preserves_replication_guarantees() {
        let (trace, workload) = small_setup();
        let baseline = Emulation::new(
            &trace,
            &workload,
            EmulationConfig::for_policy(PolicyKind::MaxProp),
        )
        .run();
        let crashy = Emulation::new(
            &trace,
            &workload,
            EmulationConfig {
                policy: PolicyKind::MaxProp.into(),
                crash_rate: 0.2,
                ..EmulationConfig::default()
            },
        )
        .run();
        assert!(crashy.reboots > 0, "crashes must actually happen");
        assert_eq!(crashy.duplicates, 0, "at-most-once survives reboots");
        assert_eq!(crashy.injected(), baseline.injected());
        // Durable replica state means reboots cost routing efficiency, not
        // correctness: delivery can dip but not collapse.
        assert!(
            crashy.delivery_rate() >= baseline.delivery_rate() * 0.5,
            "crashes devastated delivery: {} vs {}",
            crashy.delivery_rate(),
            baseline.delivery_rate()
        );
    }

    #[test]
    fn owned_and_shared_data_planes_agree_exactly() {
        let (trace, workload) = small_setup();
        let run = |owned_copies| {
            Emulation::new(
                &trace,
                &workload,
                EmulationConfig {
                    policy: PolicyKind::Epidemic.into(),
                    owned_copies,
                    ..EmulationConfig::default()
                },
            )
            .run_into_parts()
        };
        let (shared, shared_nodes) = run(false);
        let (owned, owned_nodes) = run(true);
        assert_eq!(shared, owned, "the data plane must be behavior-invisible");

        // The physical footprint is where the modes may differ: flooding
        // spreads copies, and only the shared plane dedups their payloads.
        let shared_fp = storage_footprint(&shared_nodes);
        let owned_fp = storage_footprint(&owned_nodes);
        assert_eq!(shared_fp.total_bytes, owned_fp.total_bytes);
        assert_eq!(owned_fp.deduped_bytes, owned_fp.total_bytes);
        assert!(shared_fp.deduped_bytes < shared_fp.total_bytes);
    }

    /// The tentpole invariant: digest-mode reconciliation changes only
    /// what travels on the wire, never what gets delivered. Every metric
    /// must match the full-mode run exactly, for every paper policy.
    #[test]
    fn digest_mode_reproduces_full_mode_metrics_exactly() {
        let (trace, workload) = small_setup();
        for kind in PolicyKind::ALL {
            let run = |sync_mode| {
                Emulation::new(
                    &trace,
                    &workload,
                    EmulationConfig {
                        policy: kind.into(),
                        sync_mode,
                        ..EmulationConfig::default()
                    },
                )
                .run()
            };
            let full = run(SyncMode::Full);
            let digest = run(SyncMode::Digest);
            assert_eq!(full, digest, "policy {kind}: digest mode diverged");
        }
    }

    /// Crash injection wipes digest caches mid-run: knowledge exchange
    /// falls back to full retransmission (candidates stay exact), while a
    /// routing-envelope miss costs one exchange of routing metadata per
    /// peer — relay traffic may drift, but the replication guarantees and
    /// deliveries must hold up.
    #[test]
    fn digest_mode_survives_crash_injection() {
        let (trace, workload) = small_setup();
        let run = |sync_mode| {
            Emulation::new(
                &trace,
                &workload,
                EmulationConfig {
                    policy: PolicyKind::MaxProp.into(),
                    crash_rate: 0.1,
                    sync_mode,
                    ..EmulationConfig::default()
                },
            )
            .run_into_parts()
        };
        let (full, _) = run(SyncMode::Full);
        let (digest, nodes) = run(SyncMode::Digest);
        assert!(digest.reboots > 0, "crashes must actually happen");
        assert_eq!(digest.duplicates, 0, "at-most-once survives cache loss");
        assert_eq!(digest.injected(), full.injected());
        assert!(
            digest.delivery_rate() >= full.delivery_rate() * 0.9,
            "lost digest caches must not dent delivery: {} vs {}",
            digest.delivery_rate(),
            full.delivery_rate()
        );
        let fallbacks: u64 = nodes
            .values()
            .map(|n| n.recon_stats().fallback_rounds)
            .sum();
        assert!(
            fallbacks > 0,
            "reboots must exercise the digest fallback path"
        );
    }

    #[test]
    fn digest_mode_exchanges_are_counted() {
        let (trace, workload) = small_setup();
        let (_, nodes) = Emulation::new(
            &trace,
            &workload,
            EmulationConfig {
                policy: PolicyKind::Epidemic.into(),
                sync_mode: SyncMode::Digest,
                ..EmulationConfig::default()
            },
        )
        .run_into_parts();
        let exchanges: u64 = nodes.values().map(|n| n.recon_stats().exchanges).sum();
        let digest: u64 = nodes.values().map(|n| n.recon_stats().digest_bytes).sum();
        let full: u64 = nodes.values().map(|n| n.recon_stats().full_bytes).sum();
        assert!(exchanges > 0, "digest path must run");
        assert!(digest > 0 && full > 0);
        assert!(
            digest < full,
            "digest metadata must undercut full: {digest} vs {full}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let (trace, workload) = small_setup();
        let run = || {
            Emulation::new(
                &trace,
                &workload,
                EmulationConfig::for_policy(PolicyKind::MaxProp),
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.delivered(), b.delivered());
        assert_eq!(a.transmissions, b.transmissions);
        assert_eq!(a.mean_delay(), b.mean_delay());
    }
}
