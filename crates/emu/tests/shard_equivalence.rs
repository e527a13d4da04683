//! Differential suite: a run is the same at any shard count, thread count
//! and residency cap.
//!
//! Every test here runs the same schedule on one shard (the default
//! cooperative loop) and partitioned — on a worker pool and on the
//! cooperative path — and demands identical [`emu::ExperimentMetrics`]
//! (derived `Eq` over every record, delay, daily series, and counter)
//! plus identical per-node final knowledge — the strongest observable
//! the substrate exposes. The absolute values are pinned by
//! `tests/policy_metrics_pinned.rs`. The
//! base seed honours `TESTKIT_SEED` so CI can sweep a seed matrix: the
//! equivalence must hold for *any* seed, not a lucky one.

use std::collections::BTreeMap;

use dtn::{DtnNode, EncounterBudget, PolicyKind};
use emu::{Emulation, EmulationConfig};
use pfr::{ReplicaId, SimDuration, SyncMode};
use proptest::prelude::*;
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace, SpooledTrace};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

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

/// Runs once on one shard with every node resident, then on `shards`
/// shards under `config` in *both* execution modes — a worker pool sized
/// to the shard count and the cooperative main-thread path
/// (`exec_threads: Some(0)`) — and asserts full equivalence for each:
/// metrics equal, and every node ends with identical knowledge. Pinning
/// the mode matters because auto-detection picks per host, and the suite
/// must cover both paths regardless of where it runs.
fn assert_shards_agree(
    trace: &EncounterTrace,
    workload: &EmailWorkload,
    config: &EmulationConfig,
    shards: usize,
    label: &str,
) {
    let one_shard = EmulationConfig {
        shards: None,
        spill_dir: None,
        resident_limit: None,
        exec_threads: None,
        ..config.clone()
    };
    let (one_shard, one_shard_nodes) = Emulation::new(trace, workload, one_shard).run_into_parts();
    for exec_threads in [shards, 0] {
        let sharded_config = EmulationConfig {
            shards: Some(shards),
            exec_threads: Some(exec_threads),
            ..config.clone()
        };
        let (sharded, sharded_nodes) =
            Emulation::new(trace, workload, sharded_config).run_into_parts();
        assert_eq!(
            one_shard, sharded,
            "{label}: metrics diverged at {shards} shards / {exec_threads} threads"
        );
        assert_knowledge_equal(&one_shard_nodes, &sharded_nodes, label, shards);
    }
}

fn assert_knowledge_equal(
    one_shard: &BTreeMap<ReplicaId, DtnNode>,
    sharded: &BTreeMap<ReplicaId, DtnNode>,
    label: &str,
    shards: usize,
) {
    assert_eq!(one_shard.len(), sharded.len(), "{label}: node set diverged");
    for (id, one_shard_node) in one_shard {
        let sharded_node = &sharded[id];
        assert_eq!(
            one_shard_node.replica().knowledge(),
            sharded_node.replica().knowledge(),
            "{label}: node {id} knowledge diverged at {shards} shards"
        );
    }
}

/// The tentpole invariant, exhaustively: every paper policy at every
/// shard count reproduces the one-shard run exactly.
#[test]
fn every_policy_matches_one_shard_at_every_shard_count() {
    let (trace, workload) = scenario(base_seed(), 10, 3, 60);
    for kind in PolicyKind::ALL {
        let config = EmulationConfig {
            policy: kind.into(),
            relay_limit: Some(3),
            budget: EncounterBudget::max_messages(4),
            ..EmulationConfig::default()
        };
        for shards in SHARD_COUNTS {
            assert_shards_agree(&trace, &workload, &config, shards, kind.label());
        }
    }
}

/// Fault injection draws (drops, crashes, victim picks) happen at scan
/// time in schedule order on one rng, so failure-heavy runs must still
/// match.
#[test]
fn fault_injection_matches_one_shard() {
    let (trace, workload) = scenario(base_seed() ^ 0xfa17, 9, 3, 50);
    let config = EmulationConfig {
        policy: PolicyKind::MaxProp.into(),
        encounter_drop_rate: 0.3,
        crash_rate: 0.2,
        ..EmulationConfig::default()
    };
    for shards in SHARD_COUNTS {
        assert_shards_agree(&trace, &workload, &config, shards, "faulty maxprop");
    }
}

/// Bounded lifetimes exercise the expiry/tombstone paths and the
/// commit-time `copies_at_delivery` bookkeeping.
#[test]
fn bounded_lifetimes_match_one_shard() {
    let (trace, workload) = scenario(base_seed() ^ 0x11fe, 10, 3, 60);
    let config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        message_lifetime: Some(SimDuration::from_mins(90)),
        relay_limit: Some(2),
        ..EmulationConfig::default()
    };
    for shards in SHARD_COUNTS {
        assert_shards_agree(&trace, &workload, &config, shards, "bounded lifetime");
    }
}

/// Spilling cold replicas through `store::SpillFile` must be invisible to
/// the metrics (full sync mode: snapshots capture the whole behavioral
/// state).
#[test]
fn spilled_runs_match_one_shard() {
    let (trace, workload) = scenario(base_seed() ^ 0x5b11, 10, 3, 60);
    for kind in [
        PolicyKind::Epidemic,
        PolicyKind::MaxProp,
        PolicyKind::Direct,
    ] {
        let config = EmulationConfig {
            policy: kind.into(),
            sync_mode: SyncMode::Full,
            spill_dir: Some(tmp_dir()),
            resident_limit: Some(3),
            ..EmulationConfig::default()
        };
        for shards in [1, 4] {
            assert_shards_agree(&trace, &workload, &config, shards, kind.label());
        }
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
    let (one_shard, one_shard_nodes) =
        Emulation::new(&trace, &workload, config.clone()).run_into_parts();
    for shards in [1, 4] {
        for exec_threads in [shards, 0] {
            let spooled_config = EmulationConfig {
                shards: Some(shards),
                exec_threads: Some(exec_threads),
                ..config.clone()
            };
            let (via_spool, spool_nodes) =
                Emulation::from_spooled(&spooled, &workload, spooled_config).run_into_parts();
            assert_eq!(
                one_shard, via_spool,
                "spooled source diverged at {shards} shards / {exec_threads} threads"
            );
            assert_knowledge_equal(&one_shard_nodes, &spool_nodes, "spooled source", shards);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Random fleets, random policy/shard/fault/limit combinations: any
    /// divergence from the one-shard run shrinks to a minimal scenario.
    #[test]
    fn random_fleets_match_one_shard(
        seed in 0u64..1_000_000,
        fleet in 6usize..14,
        days in 2u64..4,
        messages in 20usize..70,
        policy_idx in 0usize..PolicyKind::ALL.len(),
        shard_idx in 0usize..SHARD_COUNTS.len(),
        relay_raw in 0usize..4,
        crash in 0u8..2,
        lifetime_raw in 0u64..240,
    ) {
        let (trace, workload) = scenario(base_seed() ^ seed, fleet, days, messages);
        let config = EmulationConfig {
            policy: PolicyKind::ALL[policy_idx].into(),
            relay_limit: (relay_raw > 0).then_some(relay_raw),
            crash_rate: if crash == 1 { 0.15 } else { 0.0 },
            // Raw minutes below the floor mean "no lifetime": proptest
            // still explores both regimes from one integer dimension.
            message_lifetime: (lifetime_raw >= 30).then(|| SimDuration::from_mins(lifetime_raw)),
            ..EmulationConfig::default()
        };
        assert_shards_agree(
            &trace,
            &workload,
            &config,
            SHARD_COUNTS[shard_idx],
            "random fleet",
        );
    }

    /// The residency machinery — Belady eviction over the lookahead
    /// window, batched spill writes and reads, prefetch — is
    /// performance-only: any `resident_limit` must yield the exact
    /// metrics and knowledge of an unlimited-residency run of the same
    /// shard count.
    #[test]
    fn residency_is_invisible_to_metrics(
        seed in 0u64..1_000_000,
        fleet in 6usize..14,
        days in 2u64..4,
        messages in 20usize..60,
        policy_idx in 0usize..PolicyKind::ALL.len(),
        limit in 2usize..10,
        shard_idx in 0usize..SHARD_COUNTS.len(),
        pooled in any::<bool>(),
    ) {
        let (trace, workload) = scenario(base_seed() ^ seed ^ 0xbe1a, fleet, days, messages);
        let shards = SHARD_COUNTS[shard_idx];
        let base = EmulationConfig {
            policy: PolicyKind::ALL[policy_idx].into(),
            sync_mode: SyncMode::Full,
            shards: Some(shards),
            // Pin the execution mode so the case covers both the pooled
            // and the cooperative path wherever it runs.
            exec_threads: Some(if pooled { shards } else { 0 }),
            ..EmulationConfig::default()
        };
        let (unlimited, unlimited_nodes) =
            Emulation::new(&trace, &workload, base.clone()).run_into_parts();
        let capped_config = EmulationConfig {
            spill_dir: Some(tmp_dir()),
            resident_limit: Some(limit),
            ..base
        };
        let (capped, capped_nodes) =
            Emulation::new(&trace, &workload, capped_config).run_into_parts();
        prop_assert_eq!(unlimited, capped, "residency changed metrics");
        assert_knowledge_equal(&unlimited_nodes, &capped_nodes, "capped residency", shards);
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
