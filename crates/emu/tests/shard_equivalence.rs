//! Differential suite: a run is the same at any residency cap and from
//! either trace source.
//!
//! Every test here runs the same schedule with every replica resident and
//! with cold replicas spilled (or streamed from a spool), and demands
//! identical [`emu::ExperimentMetrics`]
//! (derived `Eq` over every record, delay, daily series, and counter)
//! plus identical per-node final knowledge — the strongest observable
//! the substrate exposes. The absolute values are pinned by
//! `tests/policy_metrics_pinned.rs`. The
//! base seed honours `TESTKIT_SEED` so CI can sweep a seed matrix: the
//! equivalence must hold for *any* seed, not a lucky one.

use std::collections::BTreeMap;

use dtn::{DtnNode, EncounterBudget, PolicyKind};
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use pfr::{ReplicaId, SimDuration, SyncMode};
use proptest::prelude::*;
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace, SpooledTrace};

/// The base seed for every scenario, offset by `TESTKIT_SEED` when set
/// (the CI matrix sets 0..8).
fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(0x5AAD)
}

/// A randomized small fleet: enough buses and days for relaying and
/// deferral conflicts, small enough that a proptest case stays cheap.
fn scenario(
    seed: u64,
    fleet: usize,
    days: u64,
    messages: usize,
) -> (EncounterTrace, EmailWorkload) {
    let trace = DieselNetConfig {
        days,
        fleet_size: fleet,
        buses_per_day: (fleet * 2 / 3).max(2),
        routes: (fleet / 3).max(2),
        clusters: 2,
        encounters_per_day: fleet * 12,
        seed,
        ..DieselNetConfig::default()
    }
    .generate();
    let workload = EmailConfig {
        users: fleet,
        injection_days: days.min(2),
        total_messages: messages,
        contacts_per_user: 3,
        seed: seed ^ 0xe417,
        ..EmailConfig::default()
    }
    .generate();
    (trace, workload)
}

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("replidtn-shard-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Runs `config` with every node resident, then under a cap of `limit`
/// resident replicas, and asserts full equivalence: metrics equal, and
/// every node ends with identical knowledge.
fn assert_spilling_invisible(
    trace: &EncounterTrace,
    workload: &EmailWorkload,
    config: &EmulationConfig,
    limit: usize,
    label: &str,
) -> ExperimentMetrics {
    let (all_resident, all_resident_nodes) =
        Emulation::new(trace, workload, config.clone()).run_into_parts();
    let capped_config = EmulationConfig {
        spill_dir: Some(tmp_dir()),
        resident_limit: Some(limit),
        ..config.clone()
    };
    let (capped, capped_nodes) = Emulation::new(trace, workload, capped_config).run_into_parts();
    assert_eq!(
        all_resident, capped,
        "{label}: metrics diverged under a cap of {limit}"
    );
    assert_knowledge_equal(&all_resident_nodes, &capped_nodes, label);
    capped
}

fn assert_knowledge_equal(
    expected: &BTreeMap<ReplicaId, DtnNode>,
    got: &BTreeMap<ReplicaId, DtnNode>,
    label: &str,
) {
    assert_eq!(expected.len(), got.len(), "{label}: node set diverged");
    for (id, expected_node) in expected {
        assert_eq!(
            expected_node.replica().knowledge(),
            got[id].replica().knowledge(),
            "{label}: node {id} knowledge diverged"
        );
    }
}

/// Fault injection draws (drops, crashes, victim picks) happen at scan
/// time in schedule order on one rng, so failure-heavy runs must match
/// while replicas move to and from the spill file.
#[test]
fn fault_injection_survives_spilling() {
    let (trace, workload) = scenario(base_seed() ^ 0xfa17, 9, 3, 50);
    let config = EmulationConfig {
        policy: PolicyKind::MaxProp.into(),
        encounter_drop_rate: 0.3,
        crash_rate: 0.2,
        sync_mode: SyncMode::Full,
        ..EmulationConfig::default()
    };
    let metrics = assert_spilling_invisible(&trace, &workload, &config, 3, "faulty maxprop");
    assert!(metrics.reboots > 0, "crashes must actually happen");
}

/// Bounded lifetimes exercise the expiry/tombstone paths and the
/// event-fed `copies_at_delivery` bookkeeping.
#[test]
fn bounded_lifetimes_survive_spilling() {
    let (trace, workload) = scenario(base_seed() ^ 0x11fe, 10, 3, 60);
    let config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        message_lifetime: Some(SimDuration::from_mins(90)),
        relay_limit: Some(2),
        sync_mode: SyncMode::Full,
        ..EmulationConfig::default()
    };
    assert_spilling_invisible(&trace, &workload, &config, 3, "bounded lifetime");
}

/// Spilling cold replicas through `store::SpillFile` must be invisible to
/// the metrics (full sync mode: snapshots capture the whole behavioral
/// state).
#[test]
fn spilled_runs_match_all_resident() {
    let (trace, workload) = scenario(base_seed() ^ 0x5b11, 10, 3, 60);
    for kind in [
        PolicyKind::Epidemic,
        PolicyKind::MaxProp,
        PolicyKind::Direct,
    ] {
        let config = EmulationConfig {
            policy: kind.into(),
            sync_mode: SyncMode::Full,
            ..EmulationConfig::default()
        };
        assert_spilling_invisible(&trace, &workload, &config, 3, kind.label());
    }
}

/// A spooled trace source (`Emulation::from_spooled`) is the city-scale
/// entry point; it must reproduce the in-memory run exactly.
#[test]
fn spooled_source_matches_in_memory() {
    let (trace, workload) = scenario(base_seed() ^ 0x5900, 10, 3, 60);
    let path = tmp_dir().join("source.spool");
    let spooled = SpooledTrace::spool(&trace, &path).expect("spool");
    let config = EmulationConfig::for_policy(PolicyKind::Epidemic);
    let (in_memory, in_memory_nodes) =
        Emulation::new(&trace, &workload, config.clone()).run_into_parts();
    let (via_spool, spool_nodes) =
        Emulation::from_spooled(&spooled, &workload, config).run_into_parts();
    assert_eq!(in_memory, via_spool, "spooled source diverged");
    assert_knowledge_equal(&in_memory_nodes, &spool_nodes, "spooled source");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// The residency machinery — Belady eviction over the lookahead
    /// window, batched spill writes and reads, prefetch — is
    /// performance-only: random fleets under random policy, relay-cap,
    /// fault, lifetime and budget draws must yield, at any
    /// `resident_limit`, the exact metrics and knowledge of the
    /// all-resident run. And the per-day series the engine keeps sums to
    /// the run's totals.
    #[test]
    fn residency_is_invisible_to_metrics(
        seed in 0u64..1_000_000,
        fleet in 6usize..14,
        days in 2u64..4,
        messages in 20usize..60,
        policy_idx in 0usize..PolicyKind::ALL.len(),
        limit in 2usize..10,
        relay_raw in 0usize..4,
        crash in 0u8..2,
        drop in 0u8..2,
        lifetime_raw in 0u64..240,
        budget_raw in 0usize..4,
    ) {
        let (trace, workload) = scenario(base_seed() ^ seed ^ 0xbe1a, fleet, days, messages);
        let config = EmulationConfig {
            policy: PolicyKind::ALL[policy_idx].into(),
            sync_mode: SyncMode::Full,
            relay_limit: (relay_raw > 0).then_some(relay_raw),
            crash_rate: if crash == 1 { 0.15 } else { 0.0 },
            encounter_drop_rate: if drop == 1 { 0.2 } else { 0.0 },
            // Raw minutes below the floor mean "no lifetime": proptest
            // still explores both regimes from one integer dimension.
            message_lifetime: (lifetime_raw >= 30).then(|| SimDuration::from_mins(lifetime_raw)),
            budget: if budget_raw > 0 {
                EncounterBudget::max_messages(budget_raw)
            } else {
                EncounterBudget::unlimited()
            },
            ..EmulationConfig::default()
        };
        let metrics = assert_spilling_invisible(&trace, &workload, &config, limit, "random fleet");
        let daily = metrics.daily_stats().values();
        prop_assert_eq!(daily.clone().map(|d| d.encounters).sum::<u64>(), metrics.encounters);
        prop_assert_eq!(
            daily.clone().map(|d| d.transmissions).sum::<u64>(),
            metrics.transmissions
        );
        prop_assert_eq!(
            daily.clone().map(|d| d.injections).sum::<u64>(),
            metrics.injected() as u64
        );
        prop_assert_eq!(
            daily.map(|d| d.deliveries).sum::<u64>(),
            metrics.delivered() as u64
        );
    }

    /// Streamed (spooled) iteration yields exactly the in-memory
    /// encounter sequence, for arbitrary generator configurations.
    #[test]
    fn streaming_yields_identical_encounter_sequences(
        seed in 0u64..1_000_000,
        fleet in 4usize..20,
        days in 1u64..5,
        per_day in 20usize..200,
    ) {
        let trace = DieselNetConfig {
            days,
            fleet_size: fleet,
            buses_per_day: (fleet / 2).max(2),
            routes: (fleet / 3).max(2),
            clusters: 2,
            encounters_per_day: per_day,
            seed: base_seed() ^ seed,
            ..DieselNetConfig::default()
        }
        .generate();
        let path = tmp_dir().join(format!("seq-{seed}-{fleet}-{days}.spool"));
        let spooled = SpooledTrace::spool(&trace, &path).expect("spool");
        let streamed: Vec<_> = spooled.iter().expect("open").collect();
        let in_memory: Vec<_> = trace.iter().copied().collect();
        prop_assert_eq!(streamed, in_memory);
        let _ = std::fs::remove_file(&path);
    }
}
