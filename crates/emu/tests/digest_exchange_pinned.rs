//! The digest protocol, pinned as counts.
//!
//! One small deterministic city replay — `DieselNetConfig::city(1)` over
//! two days, the ledger's `city_digest` configuration (Epidemic, relay cap
//! of 4) on the serial engine — in `SyncMode::Digest`, with a registry
//! listening. How many exchanges took each summary kind, what they cost
//! on the wire against what full mode would have spent, and how many
//! needed a second round are all exact integers here, so the next change
//! to the digest protocol shows up as a diff in this file rather than as
//! a timing argument. The run's `ExperimentMetrics` must equal the
//! `SyncMode::Full` run's: digest mode moves metadata, never messages.
//!
//! The same replay runs once more under a residency cap (the ledger's
//! `city_spill` shape: 3/5 of the fleet resident). A spilled
//! replica comes back without its journal and per-peer digest state — a
//! reboot, as far as the digest layer can tell — so its next exchange
//! with each peer falls back to a full summary. `PINNED_CAPPED` says how
//! many do, so that cost is a number in this file too and a change to
//! what a spill keeps cannot move the bandwidth figures unnoticed.
//!
//! A third replay is the paper's own topology over thirty days, where
//! most exchanges repeat an earlier contact: there the digest's metadata
//! must undercut full knowledge exchange at least threefold, and the
//! per-node `ReconStats` must sum to the registry's `recon.*` counters.
//! `PINNED_MONTH` holds its counts.
//!
//! Every city replay and the observed month replay wear a
//! [`testkit::Invariants`] checker, which must end clean: digest
//! fallbacks and spilled digest state must not cost at-most-once delivery
//! or knowledge.
//!
//! To re-record after an *intended* protocol change, copy the fields of
//! the failing assertion's left-hand `Counts` into `PINNED` — and say in
//! the change what moved and why.

use std::collections::BTreeMap;
use std::sync::Arc;

use dtn::{DtnNode, PolicyKind};
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use obs::Registry;
use pfr::{ReplicaId, SyncMode};
use testkit::Invariants;
use traces::{DieselNetConfig, EmailConfig};

/// The ledger's e-mail seed salt, so these are the ledger's smoke inputs.
const EMAIL_SEED_SALT: u64 = 0x00e1_7011;
const SEED: u64 = 1;
const DAYS: u64 = 2;

#[derive(Debug, PartialEq, Eq)]
struct Counts {
    exchanges: u64,
    full: u64,
    unchanged: u64,
    delta: u64,
    bloom: u64,
    digest_bytes: u64,
    full_bytes: u64,
    fallback_rounds: u64,
    false_positives: u64,
}

/// Recorded at the commit that replaced per-peer knowledge snapshots,
/// IBLT deltas and the first-contact Bloom with the learning journal and
/// explicit deltas. The commit before it, same replay and the same 3,764
/// exchanges: full 2,478 / unchanged 1,285 / delta 0 / bloom 1 (at this
/// scale its sketch never undercut the knowledge it summarized), 208,582
/// digest bytes against the same 291,556 full, 1 fallback round, 2 false
/// positives.
const PINNED: Counts = Counts {
    exchanges: 3764,
    full: 1144,
    unchanged: 1285,
    delta: 1335,
    bloom: 0,
    digest_bytes: 135_142,
    full_bytes: 291_556,
    fallback_rounds: 0,
    false_positives: 0,
};

/// The same replay with 20 of the 34 vehicles resident. A replica back
/// from a spill meets peers whose digest state still describes what it
/// was before: 129 exchanges need a fallback round, full summaries rise
/// from 1,144 to 1,337 of the 3,764, and digest mode saves 48 % of the
/// metadata bytes here instead of 54 %.
const PINNED_CAPPED: Counts = Counts {
    exchanges: 3764,
    full: 1337,
    unchanged: 1237,
    delta: 1190,
    bloom: 0,
    digest_bytes: 151_958,
    full_bytes: 291_556,
    fallback_rounds: 129,
    false_positives: 0,
};

/// The thirty-day paper replay (34 buses, 864 messages injected over the
/// first 8 days): 56,460 exchanges, nine in ten of them `unchanged`, and
/// 3.43× fewer metadata bytes than full mode would have sent.
const PINNED_MONTH: Counts = Counts {
    exchanges: 56_460,
    full: 3121,
    unchanged: 50_648,
    delta: 2691,
    bloom: 0,
    digest_bytes: 1_340_801,
    full_bytes: 4_602_931,
    fallback_rounds: 0,
    false_positives: 0,
};

/// The ledger's `city_spill` residency shape at scale 1.
const RESIDENT_LIMIT: usize = 34 * 3 / 5;

fn replay(
    mode: SyncMode,
    registry: Option<Arc<Registry>>,
    resident_limit: Option<usize>,
) -> ExperimentMetrics {
    let trace = DieselNetConfig {
        days: DAYS,
        seed: SEED,
        ..DieselNetConfig::city(1)
    }
    .generate();
    let mail = EmailConfig {
        injection_days: DAYS,
        seed: SEED ^ EMAIL_SEED_SALT,
        ..EmailConfig::city(1)
    }
    .generate();
    let mut config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        relay_limit: Some(4),
        assignment_seed: SEED,
        sync_mode: mode,
        observer: registry.map(|r| r as Arc<dyn obs::Observer>),
        resident_limit,
        ..EmulationConfig::default()
    };
    let check = Invariants::attach(&mut config.observer);
    let metrics = Emulation::new(&trace, &mail, config).run();
    check.assert_clean();
    metrics
}

fn digest_counts(registry: &Registry) -> Counts {
    let snap = registry.snapshot();
    let kind = |name: &str| snap.counter(&format!("recon.summary.{name}"));
    Counts {
        exchanges: kind("full") + kind("unchanged") + kind("delta") + kind("bloom"),
        full: kind("full"),
        unchanged: kind("unchanged"),
        delta: kind("delta"),
        bloom: kind("bloom"),
        digest_bytes: snap.counter("recon.digest_bytes"),
        full_bytes: snap.counter("recon.full_bytes"),
        fallback_rounds: snap.counter("recon.fallback_rounds"),
        false_positives: snap.counter("recon.false_positives"),
    }
}

#[test]
fn digest_exchange_counts_are_pinned_and_metrics_match_full_mode() {
    let registry = Arc::new(Registry::new());
    let digest = replay(SyncMode::Digest, Some(registry.clone()), None);
    let full = replay(SyncMode::Full, None, None);
    assert_eq!(digest, full, "digest sync changed ExperimentMetrics");
    assert_eq!(
        digest.duplicates, 0,
        "digest mode sent a copy its target already knew"
    );

    let counts = digest_counts(&registry);
    assert_eq!(counts, PINNED);
    // Two syncs per encounter, each accounted exactly once.
    assert_eq!(counts.exchanges, 2 * digest.encounters);
    assert!(counts.digest_bytes < counts.full_bytes);

    let registry = Arc::new(Registry::new());
    let capped = replay(
        SyncMode::Digest,
        Some(registry.clone()),
        Some(RESIDENT_LIMIT),
    );
    assert_eq!(capped, full, "a residency cap changed ExperimentMetrics");
    let counts = digest_counts(&registry);
    assert_eq!(counts, PINNED_CAPPED);
    // Spills change which summary an exchange takes, never how many
    // exchanges there are or what full mode would have spent on them.
    assert_eq!(
        (counts.exchanges, counts.full_bytes),
        (PINNED.exchanges, PINNED.full_bytes)
    );
    assert!(counts.full > PINNED.full && counts.digest_bytes > PINNED.digest_bytes);
}

const MONTH_DAYS: u64 = 30;

/// The paper's topology over [`MONTH_DAYS`], with the paper's 490
/// messages per 17 days scaled to the longer horizon.
fn month(mode: SyncMode, registry: Option<Arc<Registry>>) -> (ExperimentMetrics, [u64; 4]) {
    let trace = DieselNetConfig {
        days: MONTH_DAYS,
        ..DieselNetConfig::default()
    }
    .generate();
    let mail = EmailConfig {
        total_messages: (490 * MONTH_DAYS / 17) as usize,
        ..EmailConfig::default()
    }
    .generate();
    let mut config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        sync_mode: mode,
        observer: registry.map(|r| r as Arc<dyn obs::Observer>),
        ..EmulationConfig::default()
    };
    // Only the observed run wears the checker: the others are the
    // unobserved baseline "an observer changed the replay" compares with.
    let check = config
        .observer
        .is_some()
        .then(|| Invariants::attach(&mut config.observer));
    let (metrics, nodes) = Emulation::new(&trace, &mail, config).run_into_parts();
    if let Some(check) = check {
        check.assert_clean();
    }
    (metrics, recon_sums(&nodes))
}

/// Per-node `ReconStats` summed over the fleet: exchanges, digest bytes,
/// full bytes and fallback rounds.
fn recon_sums(nodes: &BTreeMap<ReplicaId, DtnNode>) -> [u64; 4] {
    nodes.values().fold([0; 4], |sums, node| {
        let s = node.recon_stats();
        [
            sums[0] + s.exchanges,
            sums[1] + s.digest_bytes,
            sums[2] + s.full_bytes,
            sums[3] + s.fallback_rounds,
        ]
    })
}

#[test]
fn a_month_of_digests_undercuts_full_exchange_threefold() {
    let (full, full_sums) = month(SyncMode::Full, None);
    assert_eq!(full_sums, [0; 4], "full mode never touches the digest path");
    assert_eq!(full.delivered(), full.injected(), "Epidemic delivers all");
    let (digest, sums) = month(SyncMode::Digest, None);
    assert_eq!(digest, full, "digest sync changed ExperimentMetrics");

    let registry = Arc::new(Registry::new());
    let observed = month(SyncMode::Digest, Some(registry.clone()));
    assert_eq!(observed, (digest, sums), "an observer changed the replay");
    let counts = digest_counts(&registry);
    assert_eq!(counts, PINNED_MONTH);
    assert_eq!(
        sums,
        [
            counts.exchanges,
            counts.digest_bytes,
            counts.full_bytes,
            counts.fallback_rounds
        ],
        "per-node ReconStats disagree with the registry"
    );
    assert!(
        counts.full_bytes >= 3 * counts.digest_bytes,
        "digest metadata {} bytes against {} full: less than a threefold saving",
        counts.digest_bytes,
        counts.full_bytes
    );
}
