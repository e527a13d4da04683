//! lent ≡ bytes: a sync request's routing data means the same thing as the
//! struct a co-located policy lends and as the bytes a socket carries.
//!
//! Between nodes in one process `pfr::sync` hands the target policy's
//! advert to the source by reference; across a wire the same advert is
//! encoded, decoded and validated. [`testkit::OverTheWire`] forces the
//! second rendering onto an in-process run, and every observable of that
//! run — `ExperimentMetrics`, each node's snapshot, each policy's
//! `save_state()` — must equal the bare run's, for all six policies in
//! both sync modes. The trace honours `TESTKIT_SEED`.

use dtn::PolicyKind;
use emu::{Emulation, EmulationConfig, PolicySpec};
use pfr::SyncMode;
use testkit::OverTheWire;
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace};

/// The base seed, offset by `TESTKIT_SEED` when set (the CI matrix sets
/// 0..8).
fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(0x1e47)
}

/// A fleet small enough to replay 24 times, busy enough that MaxProp
/// acknowledges and purges, PROPHET ages and prunes, and relays fill.
fn scenario(seed: u64) -> (EncounterTrace, EmailWorkload) {
    let trace = DieselNetConfig {
        days: 4,
        fleet_size: 12,
        buses_per_day: 8,
        routes: 4,
        clusters: 2,
        encounters_per_day: 160,
        seed,
        ..DieselNetConfig::default()
    }
    .generate();
    let workload = EmailConfig {
        users: 12,
        injection_days: 3,
        total_messages: 80,
        contacts_per_user: 3,
        seed: seed ^ 0xe417,
        ..EmailConfig::default()
    }
    .generate();
    (trace, workload)
}

#[test]
fn a_lent_advert_and_its_wire_form_run_the_same_experiment() {
    let seed = base_seed();
    let (trace, workload) = scenario(seed);
    for kind in PolicyKind::EXTENDED {
        for sync_mode in [SyncMode::Full, SyncMode::Digest] {
            let run = |policy: PolicySpec| {
                let config = EmulationConfig {
                    sync_mode,
                    relay_limit: Some(6),
                    ..EmulationConfig::for_policy(policy)
                };
                Emulation::new(&trace, &workload, config).run_into_parts()
            };
            let (lent, lent_nodes) = run(kind.into());
            let (wired, wired_nodes) = run(PolicySpec::custom(kind.label(), move || {
                Box::new(OverTheWire(kind.build()))
            }));
            let case = format!("{} / {sync_mode:?} / seed {seed:#x}", kind.label());
            assert!(lent.transmissions > 0, "{case}: nothing moved");
            assert_eq!(lent, wired, "{case}: metrics diverged");
            assert_eq!(lent_nodes.len(), wired_nodes.len(), "{case}");
            for (id, node) in &lent_nodes {
                let twin = &wired_nodes[id];
                assert_eq!(
                    node.policy().save_state(),
                    twin.policy().save_state(),
                    "{case}: node {id} routing state diverged"
                );
                assert_eq!(
                    node.snapshot(),
                    twin.snapshot(),
                    "{case}: node {id} snapshot diverged"
                );
            }
        }
    }
}
