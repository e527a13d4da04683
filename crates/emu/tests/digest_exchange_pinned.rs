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

fn replay(mode: SyncMode, registry: Option<Arc<Registry>>) -> ExperimentMetrics {
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
        ..EmulationConfig::default()
    };
    Emulation::new(&trace, &mail, config).run()
}

#[test]
fn digest_exchange_counts_are_pinned_and_metrics_match_full_mode() {
    let registry = Arc::new(Registry::new());
    let digest = replay(SyncMode::Digest, Some(registry.clone()));
    let full = replay(SyncMode::Full, None);
    assert_eq!(digest, full, "digest sync changed ExperimentMetrics");
    assert_eq!(digest.duplicates, 0, "at-most-once delivery");

    let snap = registry.snapshot();
    let kind = |name: &str| snap.counter(&format!("recon.summary.{name}"));
    let counts = Counts {
        exchanges: kind("full") + kind("unchanged") + kind("delta") + kind("bloom"),
        full: kind("full"),
        unchanged: kind("unchanged"),
        delta: kind("delta"),
        bloom: kind("bloom"),
        digest_bytes: snap.counter("recon.digest_bytes"),
        full_bytes: snap.counter("recon.full_bytes"),
        fallback_rounds: snap.counter("recon.fallback_rounds"),
        false_positives: snap.counter("recon.false_positives"),
    };
    assert_eq!(counts, PINNED);
    // Two syncs per encounter, each accounted exactly once.
    assert_eq!(counts.exchanges, 2 * digest.encounters);
    assert!(counts.digest_bytes < counts.full_bytes);
}
