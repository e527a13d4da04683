//! Cross-crate integration tests: the full emulation pipeline preserves
//! the replication guarantees under every routing policy.

use replidtn::dtn::{EncounterBudget, FilterStrategy, PolicyKind};
use replidtn::emu::experiments::Scenario;
use replidtn::emu::{Emulation, EmulationConfig, ExperimentMetrics};
use replidtn::traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace};
use testkit::Invariants;

fn scenario() -> Scenario {
    Scenario::small()
}

/// One replay, wearing a fresh §III checker (at-most-once delivery, no
/// delivery before injection) that must end clean.
fn run(
    trace: &EncounterTrace,
    workload: &EmailWorkload,
    mut config: EmulationConfig,
) -> ExperimentMetrics {
    let check = Invariants::attach(&mut config.observer);
    let metrics = Emulation::new(trace, workload, config).run();
    check.assert_clean();
    metrics
}

#[test]
fn every_policy_preserves_at_most_once_delivery() {
    let s = scenario();
    for policy in PolicyKind::ALL {
        let metrics = run(&s.trace, &s.workload, EmulationConfig::for_policy(policy));
        // At-most-once delivery is the checker's (`run` asserts it);
        // `duplicates` counts copies a target rejected as already known.
        assert_eq!(
            metrics.duplicates, 0,
            "policy {policy} sent a copy its target already knew"
        );
        assert_eq!(metrics.injected(), s.workload.len());
    }
}

#[test]
fn deliveries_never_precede_injection_and_copies_are_positive() {
    let s = scenario();
    for policy in [PolicyKind::Epidemic, PolicyKind::MaxProp] {
        let metrics = run(&s.trace, &s.workload, EmulationConfig::for_policy(policy));
        for rec in metrics.records() {
            if let Some(at) = rec.delivered_at {
                assert!(
                    at >= rec.injected_at,
                    "{policy}: time travel for {}",
                    rec.id
                );
                let copies = rec.copies_at_delivery.expect("copies recorded");
                assert!(copies >= 1, "{policy}: delivered with zero copies");
            }
        }
    }
}

#[test]
fn flooding_policies_dominate_the_baseline() {
    let s = scenario();
    let base = run(
        &s.trace,
        &s.workload,
        EmulationConfig::for_policy(PolicyKind::Direct),
    );
    for policy in [
        PolicyKind::Epidemic,
        PolicyKind::MaxProp,
        PolicyKind::SprayAndWait,
    ] {
        let metrics = run(&s.trace, &s.workload, EmulationConfig::for_policy(policy));
        assert!(
            metrics.delivered() >= base.delivered(),
            "{policy} delivered less than the baseline"
        );
    }
}

#[test]
fn wider_filters_never_hurt_delivery() {
    let s = scenario();
    let mut last = -1.0f64;
    for k in [0usize, 4, 11] {
        let config = EmulationConfig {
            filter_strategy: if k == 0 {
                FilterStrategy::SelfOnly
            } else {
                FilterStrategy::Selected(k)
            },
            ..EmulationConfig::default()
        };
        let metrics = run(&s.trace, &s.workload, config);
        let rate = metrics.delivery_rate();
        assert!(
            rate >= last - 1e-9,
            "delivery regressed when widening filters to k={k}: {rate} < {last}"
        );
        last = rate;
    }
}

#[test]
fn bandwidth_cap_bounds_per_encounter_traffic() {
    let s = scenario();
    for cap in [1usize, 3] {
        let config = EmulationConfig {
            policy: PolicyKind::Epidemic.into(),
            budget: EncounterBudget::max_messages(cap),
            ..EmulationConfig::default()
        };
        let metrics = run(&s.trace, &s.workload, config);
        assert!(
            metrics.transmissions <= metrics.encounters * cap as u64,
            "cap {cap} violated: {} transfers over {} encounters",
            metrics.transmissions,
            metrics.encounters
        );
    }
}

#[test]
fn storage_cap_bounds_relay_load_throughout() {
    // Run with the tightest cap and verify final relay loads; the replica
    // enforces the invariant continuously, so the end state suffices here
    // (per-encounter enforcement is unit-tested in pfr).
    let s = scenario();
    let config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        relay_limit: Some(2),
        ..EmulationConfig::default()
    };
    let metrics = run(&s.trace, &s.workload, config);
    assert!(metrics.evictions > 0);
    assert_eq!(metrics.duplicates, 0);
}

#[test]
fn emulation_handles_empty_workload_and_trace() {
    let trace = DieselNetConfig::small().generate();
    let empty_mail = EmailConfig {
        total_messages: 1,
        ..EmailConfig::small()
    }
    .generate();
    // Empty trace: messages are injected but never delivered across buses.
    let no_trace = replidtn::traces::EncounterTrace::new();
    let metrics = run(
        &no_trace,
        &empty_mail,
        EmulationConfig::for_policy(PolicyKind::Epidemic),
    );
    assert_eq!(metrics.encounters, 0);
    // With no buses scheduled, injection is dropped upstream.
    assert_eq!(metrics.injected(), 0);

    // Empty workload over a real trace: encounters happen, nothing moves.
    let no_mail = EmailConfig {
        total_messages: 0,
        ..EmailConfig::small()
    }
    .generate();
    let metrics = run(
        &trace,
        &no_mail,
        EmulationConfig::for_policy(PolicyKind::Epidemic),
    );
    assert_eq!(metrics.injected(), 0);
    assert_eq!(metrics.transmissions, 0);
}

#[test]
fn crash_recovery_mid_sync_converges_without_double_delivery() {
    // A replica snapshots, keeps syncing, crashes mid-exchange (the link
    // dies inside a session), restores from the snapshot, and re-syncs.
    // The network must converge with every message delivered exactly once
    // — the testkit runner checks at-most-once and knowledge monotonicity
    // after every step.
    use testkit::{Direction, FaultPlan, SimRunner};

    for policy in PolicyKind::ALL {
        let mut sim = SimRunner::new(29);
        let a = sim.add_host("a", policy);
        let b = sim.add_host("b", policy);

        sim.send(a, "b", b"before the snapshot".to_vec());
        assert!(sim.encounter(a, b).is_clean(), "{policy}");
        sim.snapshot(b);

        // Two more messages; the next session dies halfway through (the
        // responder's batch never completes), then the host crashes.
        sim.send(a, "b", b"in flight when the link died".to_vec());
        sim.send(a, "b", b"second casualty".to_vec());
        let cut = FaultPlan::clean().cut_after(Direction::BToA, 1);
        let outcome = sim.encounter_with_faults(a, b, &cut);
        assert!(!outcome.is_clean(), "{policy}: the cut session must fail");
        sim.crash(b);
        sim.restore(b);
        sim.with_node(b, |n| {
            assert_eq!(n.inbox().len(), 1, "{policy}: rollback to snapshot state")
        });

        // Re-sync after restore: everything arrives, nothing twice.
        sim.assert_converged();
        sim.with_node(b, |n| {
            let inbox = n.inbox();
            assert_eq!(inbox.len(), 3, "{policy}: all messages after recovery");
            let mut ids: Vec<_> = inbox.iter().map(|m| m.id).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), 3, "{policy}: duplicate delivery after restore");
        });
    }
}

#[test]
fn seeds_change_results_but_reruns_do_not() {
    let s = scenario();
    let base = EmulationConfig::for_policy(PolicyKind::SprayAndWait);
    let a = run(&s.trace, &s.workload, base.clone());
    let b = run(&s.trace, &s.workload, base.clone());
    assert_eq!(a.delivered(), b.delivered());
    assert_eq!(a.transmissions, b.transmissions);

    let other_seed = EmulationConfig {
        assignment_seed: 77,
        ..base
    };
    let c = run(&s.trace, &s.workload, other_seed);
    // Different user placement almost surely changes traffic.
    assert!(
        a.transmissions != c.transmissions || a.delivered() != c.delivered(),
        "different assignment seed produced identical results"
    );
}
