//! parked ≡ evaluated: a copy a policy parks is withheld exactly as if
//! every later sync had asked the policy about it again.
//!
//! `SendDecision::Park` lets a source pass over a copy with one compare on
//! its index entry until the copy is rewritten or a sync wants one of its
//! destinations. [`Unparked`] wraps a policy and turns each park back into
//! a plain skip, so the wrapped fleet judges every candidate at every
//! contact as the substrate did before parks existed. For all six
//! policies, in both sync modes, under a relay cap with crashes and under
//! a one-message budget, the two fleets must end with identical
//! `ExperimentMetrics`, identical per-node snapshots and the same summed
//! `withheld` and candidate counts. The trace honours `TESTKIT_SEED`.

use std::collections::BTreeSet;
use std::sync::Arc;

use dtn::{DtnPolicy, EncounterBudget, EpidemicPolicy, PolicyKind, PolicySummary};
use emu::{Emulation, EmulationConfig, PolicySpec};
use obs::Registry;
use pfr::sync::{Candidate, HostContext, SendDecision, SyncRequest};
use pfr::{Item, ItemId, ReplicaId, RoutingState, SyncExtension, SyncMode};
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace};

/// A policy whose parks are plain skips: it files nothing under any key,
/// so its sources judge every candidate at every sync.
struct Unparked(Box<dyn DtnPolicy>);

impl SyncExtension for Unparked {
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
        match self.0.to_send(candidate, request) {
            SendDecision::Park => SendDecision::Skip,
            verdict => verdict,
        }
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

impl DtnPolicy for Unparked {
    fn name(&self) -> &'static str {
        self.0.name()
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

/// The base seed, offset by `TESTKIT_SEED` when set (the CI matrix sets
/// 0..8).
fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(0x9a4c)
}

/// A fleet busy enough that relays fill, MaxProp acknowledges, Spray
/// holders run down to one copy and Epidemic TTLs run out, with
/// multicast-free unicast mail.
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
        total_messages: 90,
        contacts_per_user: 3,
        seed: seed ^ 0x9a4c,
        ..EmailConfig::default()
    }
    .generate();
    (trace, workload)
}

/// The policy under test: the bundled one, except that Epidemic's copies
/// get two hops, so that TTLs run out in a fleet this small.
fn build(kind: PolicyKind) -> Box<dyn DtnPolicy> {
    match kind {
        PolicyKind::Epidemic => Box::new(EpidemicPolicy::new(2)),
        other => other.build(),
    }
}

/// Both fleets of one case: the policy as it is, and [`Unparked`].
fn specs(kind: PolicyKind) -> [PolicySpec; 2] {
    [
        PolicySpec::custom(kind.label(), move || build(kind)),
        PolicySpec::custom(kind.label(), move || Box::new(Unparked(build(kind)))),
    ]
}

/// The constrained variants: a relay cap with crashes (every reboot
/// restores a snapshot and replaces the policy), and the paper's
/// one-message budget (whose delivery phase syncs with no policy at all).
fn constrained(base: EmulationConfig, variant: usize, seed: u64) -> EmulationConfig {
    match variant {
        0 => EmulationConfig {
            relay_limit: Some(4),
            crash_rate: 0.02,
            fault_seed: seed,
            ..base
        },
        _ => EmulationConfig {
            budget: EncounterBudget::max_messages(1),
            ..base
        },
    }
}

#[test]
fn parking_a_copy_changes_nothing_but_the_work() {
    let seed = base_seed();
    let (trace, workload) = scenario(seed);
    for kind in PolicyKind::EXTENDED {
        for sync_mode in [SyncMode::Full, SyncMode::Digest] {
            for variant in 0..2 {
                let run = |policy: PolicySpec| {
                    let registry = Arc::new(Registry::new());
                    let config = constrained(
                        EmulationConfig {
                            sync_mode,
                            observer: Some(registry.clone() as Arc<dyn obs::Observer>),
                            ..EmulationConfig::for_policy(policy)
                        },
                        variant,
                        seed,
                    );
                    let (metrics, nodes) =
                        Emulation::new(&trace, &workload, config).run_into_parts();
                    (metrics, nodes, registry.snapshot())
                };
                let [bare, wrapped] = specs(kind);
                let (parked, parked_nodes, parked_obs) = run(bare);
                let (judged, judged_nodes, judged_obs) = run(wrapped);
                let case = format!(
                    "{} / {sync_mode:?} / variant {variant} / seed {seed:#x}",
                    kind.label()
                );
                assert!(parked.transmissions > 0, "{case}: nothing moved");
                assert_eq!(parked, judged, "{case}: metrics diverged");
                for counter in ["sync.withheld", "sync.candidates", "sync.entries"] {
                    assert_eq!(
                        parked_obs.counter(counter),
                        judged_obs.counter(counter),
                        "{case}: {counter} diverged"
                    );
                }
                assert!(
                    parked_obs.counter("sync.withheld") > 0,
                    "{case}: nothing was withheld"
                );
                assert_eq!(parked_nodes.len(), judged_nodes.len(), "{case}");
                for (id, node) in &parked_nodes {
                    assert_eq!(
                        node.snapshot(),
                        judged_nodes[id].snapshot(),
                        "{case}: node {id} ended differently"
                    );
                }
            }
        }
    }
}

/// Parks actually happen: every policy that waits parks something in the
/// unconstrained run, and only the bare policy does.
#[test]
fn every_waiting_policy_parks() {
    let (trace, workload) = scenario(base_seed());
    for kind in PolicyKind::EXTENDED {
        let parks = |policy: PolicySpec| {
            let registry = Arc::new(Registry::new());
            let config = EmulationConfig {
                observer: Some(registry.clone() as Arc<dyn obs::Observer>),
                ..EmulationConfig::for_policy(policy)
            };
            Emulation::new(&trace, &workload, config).run();
            registry
                .snapshot()
                .counter(&format!("policy.{}.park", kind.build().label()))
        };
        let [bare, wrapped] = specs(kind);
        let (bare, wrapped) = (parks(bare), parks(wrapped));
        assert!(bare > 0, "{}: nothing was parked", kind.label());
        assert_eq!(wrapped, 0, "{}: the adapter parked", kind.label());
    }
}
