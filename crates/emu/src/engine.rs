//! One trace-driven emulation: its configuration and its fleet (the run
//! loop, which performs and accounts every operation, is
//! [`shard`](crate::shard)).
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
use obs::Observer;
use pfr::{ReplicaId, SyncMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use traces::{bus_address, EmailWorkload, EncounterTrace, SpooledTrace, UserAssignment};

use crate::metrics::ExperimentMetrics;
use crate::shard::FxMap;

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

/// Seed of [`FilterStrategy::Random`]'s per-node draws.
const STRATEGY_SEED: u64 = 0x5eed;

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
    /// Observer receiving every event the run emits (sync batches, policy
    /// decisions, drops, deliveries, encounters). Metrics never read it:
    /// the engine accounts each operation where it performs it.
    pub observer: Option<Arc<dyn Observer>>,
    /// How encounters exchange sync metadata (see
    /// [`DtnNode::set_sync_mode`]): [`SyncMode::Full`] sends complete
    /// knowledge vectors; [`SyncMode::Digest`] replaces them with compact
    /// reconciliation digests. Routing payloads travel verbatim in both.
    /// Delivery results are identical in both modes — only the metadata
    /// bytes on the wire differ (`recon.*` counters account the savings).
    pub sync_mode: SyncMode,
    /// Read by nothing: the fleet is not partitioned. Kept only because
    /// the benchmark ledger sets it.
    pub shards: Option<usize>,
    /// Where the spill file lives under a residency cap. Defaults to
    /// [`std::env::temp_dir`].
    pub spill_dir: Option<std::path::PathBuf>,
    /// Cap on resident (in-memory) replicas: beyond it, the coldest nodes
    /// — those whose next encounter in a window of upcoming encounters is
    /// farthest — are snapshotted into a spill file and restored on their
    /// next encounter. `None` keeps every node resident. The cap is
    /// enforced every 64 operations, so residency transiently exceeds it
    /// by at most those operations' nodes.
    pub resident_limit: Option<usize>,
    /// Read by nothing: every operation executes on the caller's thread.
    /// Kept only because the benchmark ledger sets it.
    pub exec_threads: Option<usize>,
}

impl std::fmt::Debug for EmulationConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmulationConfig")
            .field("policy", &self.policy)
            .field("budget", &self.budget)
            .field("relay_limit", &self.relay_limit)
            .field("filter_strategy", &self.filter_strategy)
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
            .field("sync_mode", &self.sync_mode)
            .field("spill_dir", &self.spill_dir)
            .field("resident_limit", &self.resident_limit)
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
            assignment_seed: 0xa551,
            encounter_drop_rate: 0.0,
            crash_rate: 0.0,
            fault_seed: 0xfa17,
            message_lifetime: None,
            messages_per_contact_minute: None,
            observer: None,
            sync_mode: SyncMode::default(),
            shards: None,
            spill_dir: None,
            resident_limit: None,
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

/// A full emulation: nodes, traces and assignment, ready to run.
pub struct Emulation<'a> {
    pub(crate) source: TraceSource<'a>,
    pub(crate) workload: &'a EmailWorkload,
    pub(crate) config: EmulationConfig,
    /// Boxed: a [`DtnNode`] is ~1 KiB inline, and spills, restores and
    /// rehashes move the map's values.
    pub(crate) nodes: FxMap<ReplicaId, Box<DtnNode>>,
    pub(crate) assignment: UserAssignment,
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
    /// set stay resident.
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
        let mut nodes = FxMap::default();
        let all_nodes: Vec<ReplicaId> = source.node_ids();
        for &id in &all_nodes {
            let mut node = DtnNode::with_policy(id, &bus_address(id), config.policy.build());
            node.replica_mut().set_relay_limit(config.relay_limit);
            node.set_sync_mode(config.sync_mode);
            nodes.insert(id, Box::new(node));
        }

        // Multi-address filters (§IV-B): widen each node's filter with the
        // addresses of k other hosts.
        match config.filter_strategy {
            FilterStrategy::SelfOnly => {}
            FilterStrategy::Random(k) => {
                for &id in &all_nodes {
                    let mut rng =
                        StdRng::seed_from_u64(STRATEGY_SEED ^ id.as_u64().wrapping_mul(0x9e37));
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
        }
    }

    /// The per-day user assignment in use.
    pub fn assignment(&self) -> &UserAssignment {
        &self.assignment
    }

    /// Read access to a node.
    pub fn node(&self, id: ReplicaId) -> Option<&DtnNode> {
        self.nodes.get(&id).map(|node| &**node)
    }

    /// Runs the whole schedule and returns the collected metrics.
    pub fn run(self) -> ExperimentMetrics {
        self.run_into_parts().0
    }

    /// Runs the whole schedule, returning the metrics *and* the final
    /// nodes for post-run inspection (stored items, policy state sizes,
    /// replica statistics).
    pub fn run_into_parts(self) -> (ExperimentMetrics, BTreeMap<ReplicaId, DtnNode>) {
        crate::shard::run(self)
    }
}

/// Fleet-wide storage accounting over the final nodes of a run (use with
/// [`Emulation::run_into_parts`]).
///
/// Deliberately *not* part of [`ExperimentMetrics`]: physical sharing
/// depends on how copies travelled (a spill round-trip re-serializes
/// payloads), which the metrics must not see.
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
        assert_eq!(
            metrics.duplicates, 0,
            "no copy sent to a target that knew it"
        );
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
        assert_eq!(crashy.duplicates, 0, "reboots re-sent known copies");
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
    /// falls back to full retransmission, candidates stay exact, and
    /// routing state travels verbatim in either mode — so the run is the
    /// Full-mode run.
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
        assert_eq!(digest.duplicates, 0, "cache loss re-sent known copies");
        assert_eq!(digest, full, "lost digest caches changed the run");
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
