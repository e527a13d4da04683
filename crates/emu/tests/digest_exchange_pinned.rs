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
//! `city_spill` shape: 2 shards, 3/5 of the fleet resident). A spilled
//! replica comes back without its journal and per-peer digest state — a
//! reboot, as far as the digest layer can tell — so its next exchange
//! with each peer falls back to a full summary. `PINNED_CAPPED` says how
//! many do, so that cost is a number in this file too and a change to
//! what a spill keeps cannot move the bandwidth figures unnoticed.
//!
//! To re-record after an *intended* protocol change, copy the fields of
//! the failing assertion's left-hand `Counts` into `PINNED` — and say in
//! the change what moved and why.

use std::sync::Arc;

use dtn::PolicyKind;
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use obs::Registry;
use pfr::SyncMode;
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

/// The ledger's `city_spill` residency shape at scale 1.
const SHARDS: usize = 2;
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
    let config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        relay_limit: Some(4),
        assignment_seed: SEED,
        sync_mode: mode,
        observer: registry.map(|r| r as Arc<dyn obs::Observer>),
        shards: resident_limit.map(|_| SHARDS),
        exec_threads: resident_limit.map(|_| 0),
        resident_limit,
        ..EmulationConfig::default()
    };
    Emulation::new(&trace, &mail, config).run()
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
    assert_eq!(digest.duplicates, 0, "at-most-once delivery");

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
