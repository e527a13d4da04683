//! Scenario coverage for the engine's failure and boundary behavior:
//! crash/restore with spilled state recovering through
//! `store::SpillFile`, reboots of a policy outside the registry, and
//! bounded-residency accounting for `storage_footprint` /
//! `run_into_parts`.
//!
//! Where `tests/shard_equivalence.rs` proves spilled and all-resident
//! runs equal, these tests pin the *mechanisms*: that spills actually
//! happen and that the residency cap actually bounds the resident set —
//! both observable through the `shard.*` counters and events. Every run
//! wears a [`testkit::Invariants`] checker, which must end clean.

use std::collections::BTreeSet;
use std::sync::Arc;

use dtn::{DtnPolicy, PolicyKind, PolicySummary};
use emu::{storage_footprint, Emulation, EmulationConfig, PolicySpec};
use obs::{Event, Observer, Registry};
use parking_lot::Mutex;
use pfr::sync::{Candidate, HostContext, ParkKeys, SendDecision, SyncRequest};
use pfr::{Item, ItemId, ReplicaId, RoutingState, SyncExtension, SyncMode};
use testkit::Invariants;
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace};

/// The base seed for every scenario, offset by `TESTKIT_SEED` when set
/// (the CI matrix sets 0..8).
fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(0x5ce0)
}

fn scenario(seed: u64) -> (EncounterTrace, EmailWorkload) {
    let trace = DieselNetConfig {
        days: 3,
        fleet_size: 12,
        buses_per_day: 8,
        routes: 4,
        clusters: 2,
        encounters_per_day: 140,
        seed,
        ..DieselNetConfig::default()
    }
    .generate();
    let workload = EmailConfig {
        users: 12,
        injection_days: 2,
        total_messages: 50,
        contacts_per_user: 3,
        seed: seed ^ 0xe417,
        ..EmailConfig::default()
    }
    .generate();
    (trace, workload)
}

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("replidtn-shard-scen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Runs `replay` on `config` wearing a fresh §III checker, which must end
/// clean.
fn checked<T>(mut config: EmulationConfig, replay: impl FnOnce(EmulationConfig) -> T) -> T {
    let check = Invariants::attach(&mut config.observer);
    let out = replay(config);
    check.assert_clean();
    out
}

/// Collects every event for post-run structural assertions.
#[derive(Default)]
struct Capture {
    events: Mutex<Vec<Event>>,
}

impl Observer for Capture {
    fn on_event(&self, event: &Event) {
        self.events.lock().push(event.clone());
    }
}

/// Crash/restore mid-run under a residency cap: rebooted nodes restore
/// from their durable snapshot, spilled nodes recover from the spill
/// file, and the run still equals the all-resident run exactly.
#[test]
fn crashes_recover_through_spilled_state() {
    let (trace, workload) = scenario(base_seed() ^ 0xc4a5);
    let registry = Arc::new(Registry::new());
    let config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        crash_rate: 0.2,
        sync_mode: SyncMode::Full,
        spill_dir: Some(tmp_dir()),
        resident_limit: Some(4),
        observer: Some(registry.clone()),
        ..EmulationConfig::default()
    };
    let resident_config = EmulationConfig {
        spill_dir: None,
        resident_limit: None,
        observer: None,
        ..config.clone()
    };
    let all_resident = checked(resident_config, |c| {
        Emulation::new(&trace, &workload, c).run()
    });
    let (metrics, nodes) = checked(config, |c| {
        Emulation::new(&trace, &workload, c).run_into_parts()
    });

    let snap = registry.snapshot();
    assert!(metrics.reboots > 0, "crashes must actually happen");
    assert!(
        snap.counter("shard.spills") > 0,
        "the cap must force spills"
    );
    assert!(
        snap.counter("shard.unspills") > 0,
        "spilled nodes must come back mid-run"
    );
    assert_eq!(
        metrics, all_resident,
        "crash + spill interplay diverged from the all-resident run"
    );
    assert_eq!(
        nodes.len(),
        trace.nodes().len(),
        "every spilled node returns for final accounting"
    );
    assert_eq!(
        metrics.duplicates, 0,
        "a copy was re-sent to a target that knew it across reboots and spills"
    );
}

/// Epidemic under a name the policy registry does not know: every hook
/// delegates, so only `name` tells it apart.
struct Renamed(Box<dyn DtnPolicy>);

impl SyncExtension for Renamed {
    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn generate_request<'a>(&'a mut self, cx: &mut HostContext<'_>) -> RoutingState<'a> {
        self.0.generate_request(cx)
    }

    fn process_request(&mut self, cx: &mut HostContext<'_>, request: &SyncRequest<'_>) {
        self.0.process_request(cx, request);
    }

    fn to_send(
        &mut self,
        candidate: &mut Candidate<'_>,
        request: &SyncRequest<'_>,
    ) -> SendDecision {
        self.0.to_send(candidate, request)
    }

    fn park_keys(&self, keys: &mut ParkKeys) {
        self.0.park_keys(keys);
    }

    fn prepare_outgoing(
        &mut self,
        cx: &mut HostContext<'_>,
        item: &mut Item,
        target: ReplicaId,
        matched_filter: bool,
    ) {
        self.0.prepare_outgoing(cx, item, target, matched_filter);
    }

    fn on_delivered(&mut self, cx: &mut HostContext<'_>, delivered: &[ItemId]) {
        self.0.on_delivered(cx, delivered);
    }

    fn on_relayed(&mut self, id: ItemId) {
        self.0.on_relayed(id);
    }
}

impl DtnPolicy for Renamed {
    fn name(&self) -> &'static str {
        "renamed-epidemic"
    }

    fn summary(&self) -> PolicySummary {
        self.0.summary()
    }

    fn set_local_addresses(&mut self, addrs: BTreeSet<String>) {
        self.0.set_local_addresses(addrs);
    }

    fn save_state(&self) -> Vec<u8> {
        self.0.save_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        self.0.restore_state(bytes);
    }
}

/// A reboot does not depend on the policy registry: a custom policy whose
/// name the registry cannot resolve reboots exactly as often, and with
/// exactly the same effect, as the bundled policy it wraps.
#[test]
fn a_custom_policy_reboots_like_its_registry_twin() {
    let (trace, workload) = scenario(base_seed() ^ 0x4eb0);
    let config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        crash_rate: 0.2,
        ..EmulationConfig::default()
    };
    let replay = |c| Emulation::new(&trace, &workload, c).run();
    let registry_twin = checked(config.clone(), replay);
    let renamed_config = EmulationConfig {
        policy: PolicySpec::custom("renamed-epidemic", || {
            Box::new(Renamed(PolicyKind::Epidemic.build()))
        }),
        ..config
    };
    let renamed = checked(renamed_config, replay);
    assert!(registry_twin.reboots > 0, "crashes must actually happen");
    assert_eq!(renamed.reboots, registry_twin.reboots);
    assert_eq!(
        renamed, registry_twin,
        "a renamed policy reboots differently"
    );
}

/// `storage_footprint` and `run_into_parts` under spilling: the returned
/// node map contains *every* replica (spilled ones included), so footprint
/// accounting matches an unspilled run byte for byte — while the
/// `shard.resident` series proves the cap actually bounded the resident
/// set mid-run.
#[test]
fn footprint_counts_spilled_replicas_and_residency_stays_bounded() {
    let (trace, workload) = scenario(base_seed() ^ 0xf007);
    let limit = 4usize;
    let registry = Arc::new(Registry::new());
    let capture = Arc::new(Capture::default());
    let fanout = Arc::new(obs::Fanout::new(vec![
        registry.clone() as Arc<dyn Observer>,
        capture.clone() as Arc<dyn Observer>,
    ]));
    let config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        sync_mode: SyncMode::Full,
        spill_dir: Some(tmp_dir()),
        resident_limit: Some(limit),
        observer: Some(fanout),
        ..EmulationConfig::default()
    };
    let unspilled_config = EmulationConfig {
        spill_dir: None,
        resident_limit: None,
        observer: None,
        ..config.clone()
    };
    let replay = |c| Emulation::new(&trace, &workload, c).run_into_parts();
    let (_, unspilled_nodes) = checked(unspilled_config, replay);
    let (_, nodes) = checked(config, replay);

    // Footprint: every spilled replica is restored into the returned map,
    // so the accounting must equal the never-spilled run exactly.
    assert_eq!(nodes.len(), trace.nodes().len());
    let spilled_fp = storage_footprint(&nodes);
    let unspilled_fp = storage_footprint(&unspilled_nodes);
    assert!(spilled_fp.total_bytes > 0, "the fleet stores something");
    assert_eq!(
        spilled_fp.total_bytes, unspilled_fp.total_bytes,
        "per-copy footprint must count spilled replicas"
    );
    // Spill round-trips re-serialize payloads, so *physical* sharing may
    // differ either way (restore interns buffers by content, live sync
    // shares along transfer chains) — but it stays a valid deduplication
    // of the same logical bytes.
    assert!(spilled_fp.deduped_bytes > 0);
    assert!(spilled_fp.deduped_bytes <= spilled_fp.total_bytes);

    // Residency: every post-spill resident count respects the cap, and
    // the engine spilled all the way down to it. Between spill-downs,
    // every 64 operations, the resident set may exceed the cap by those
    // operations' nodes (two per op).
    let snap = registry.snapshot();
    let resident = snap
        .histogram("shard.resident")
        .expect("spills happened, so the series exists");
    assert!(resident.count() > 0);
    assert!(
        snap.gauge("shard.spill_file_bytes") > 0,
        "spilled replicas occupy the spill file"
    );
    let headroom = 64 * 2;
    let mut spilled_to_cap = false;
    for event in capture.events.lock().iter() {
        if let Event::ReplicaSpill {
            resident, unspill, ..
        } = event
        {
            if !unspill {
                assert!(
                    *resident <= limit as u64 + headroom,
                    "resident set escaped the cap: {resident}"
                );
                spilled_to_cap |= *resident == limit as u64;
            }
        }
    }
    assert!(spilled_to_cap, "the engine must spill down to the cap");
}

/// Bringing every spilled replica home for final accounting is not
/// residency traffic: it must not count as unspills, nor feed the unspill
/// latencies. So on a 34-bus trace under a cap of 4, where replicas are
/// still spilled when the trace ends, fewer unspills are counted than
/// spills, and every replica still comes home.
#[test]
fn the_final_bring_home_is_not_counted_as_unspills() {
    let seed = base_seed() ^ 0xb417;
    let trace = DieselNetConfig {
        days: 2,
        seed,
        ..DieselNetConfig::default()
    }
    .generate();
    let workload = EmailConfig {
        users: 20,
        injection_days: 2,
        total_messages: 60,
        seed: seed ^ 0xe417,
        ..EmailConfig::default()
    }
    .generate();
    let registry = Arc::new(Registry::new());
    let config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        sync_mode: SyncMode::Full,
        spill_dir: Some(tmp_dir()),
        resident_limit: Some(4),
        observer: Some(registry.clone()),
        ..EmulationConfig::default()
    };
    let (_, nodes) = checked(config, |c| {
        Emulation::new(&trace, &workload, c).run_into_parts()
    });
    assert_eq!(nodes.len(), trace.nodes().len(), "every replica came home");

    let snap = registry.snapshot();
    let (spills, unspills) = (snap.counter("shard.spills"), snap.counter("shard.unspills"));
    assert!(unspills > 0, "the cap must bring replicas back mid-run");
    assert!(
        spills > unspills,
        "{spills} spills, {unspills} unspills: the bring-home was counted"
    );
    let latencies = snap
        .histogram("emu.unspill_latency_us")
        .expect("unspills happened, so the series exists");
    assert_eq!(
        latencies.count(),
        unspills,
        "one latency per counted unspill"
    );
}
