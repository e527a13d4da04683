//! The six policies' `ExperimentMetrics`, pinned.
//!
//! The rows below were recorded from the commit *before* sync selection,
//! knowledge layout and the MaxProp/PROPHET routing state were rewritten
//! for speed; that rewrite (and any later one) must reproduce them
//! exactly. Each row carries the headline counters for a readable failure
//! plus an FNV-1a hash of the whole `Debug` rendering — every message
//! record (delivery time, copies at delivery, copies at end) and every
//! day's activity — so no field can drift unnoticed. Every replay also
//! wears a [`testkit::Invariants`] checker, which must end clean.
//!
//! To re-record after an *intended* behaviour change, copy the fields of
//! the failing assertion's left-hand `Pin` into the row it names.

use dtn::PolicyKind;
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use testkit::Invariants;
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace};

/// The ledger's e-mail seed salt, so these are the ledger's inputs.
const EMAIL_SEED_SALT: u64 = 0x00e1_7011;

#[derive(Debug, PartialEq, Eq)]
struct Pin {
    delivered: usize,
    transmissions: u64,
    delay_secs: u64,
    copies_at_delivery: usize,
    copies_at_end: usize,
    debug_fnv: u64,
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin(metrics: &ExperimentMetrics) -> Pin {
    assert_eq!(
        metrics.duplicates, 0,
        "a copy was sent to a target that already knew it"
    );
    Pin {
        delivered: metrics.delivered(),
        transmissions: metrics.transmissions,
        delay_secs: metrics
            .records()
            .filter_map(|r| r.delay())
            .map(|d| d.as_secs())
            .sum(),
        copies_at_delivery: metrics.records().filter_map(|r| r.copies_at_delivery).sum(),
        copies_at_end: metrics.records().map(|r| r.copies_at_end).sum(),
        debug_fnv: fnv1a(&format!("{metrics:?}")),
    }
}

/// One replay, wearing a fresh §III checker that must end clean.
fn run(
    trace: &EncounterTrace,
    mail: &EmailWorkload,
    mut config: EmulationConfig,
) -> ExperimentMetrics {
    let check = Invariants::attach(&mut config.observer);
    let metrics = Emulation::new(trace, mail, config).run();
    check.assert_clean();
    metrics
}

fn replay(seed: u64, small: bool) -> Vec<Pin> {
    let (trace, mail) = if small {
        (DieselNetConfig::small(), EmailConfig::small())
    } else {
        (DieselNetConfig::default(), EmailConfig::default())
    };
    let trace = DieselNetConfig { seed, ..trace }.generate();
    let mail = EmailConfig {
        seed: seed ^ EMAIL_SEED_SALT,
        ..mail
    }
    .generate();
    PolicyKind::EXTENDED
        .iter()
        .map(|&policy| {
            let config = EmulationConfig {
                assignment_seed: seed,
                ..EmulationConfig::for_policy(policy)
            };
            pin(&run(&trace, &mail, config))
        })
        .collect()
}

fn check(seed: u64, small: bool, expected: [Pin; 6]) {
    let actual = replay(seed, small);
    for ((policy, actual), expected) in PolicyKind::EXTENDED.iter().zip(&actual).zip(&expected) {
        assert_eq!(actual, expected, "{policy} at seed {seed}, small = {small}");
    }
}

const fn p(
    delivered: usize,
    transmissions: u64,
    delay_secs: u64,
    copies_at_delivery: usize,
    copies_at_end: usize,
    debug_fnv: u64,
) -> Pin {
    Pin {
        delivered,
        transmissions,
        delay_secs,
        copies_at_delivery,
        copies_at_end,
        debug_fnv,
    }
}

// Rows follow `PolicyKind::EXTENDED`: direct, twohop, prophet, spray,
// epidemic, maxprop.

#[test]
fn small_scale_seed_1() {
    check(1, true, PINS_SMALL_1);
}

#[test]
fn paper_scale_seed_1() {
    check(1, false, PINS_PAPER_1);
}

#[test]
fn paper_scale_seed_2() {
    check(2, false, PINS_PAPER_2);
}

#[test]
fn paper_scale_seed_3() {
    check(3, false, PINS_PAPER_3);
}

const PINS_SMALL_1: [Pin; 6] = [
    p(33, 29, 1121251, 62, 69, 0x7e2b9ec1ade71a48),
    p(40, 270, 986968, 139, 310, 0x3acbf52ef8782111),
    p(34, 258, 1044924, 102, 298, 0x65517ca62f709d1e),
    p(40, 334, 952098, 175, 374, 0xfa69eda18dba1b74),
    p(40, 400, 952067, 183, 440, 0x0bcc80a98f3a43dd),
    p(40, 217, 952067, 183, 120, 0x5486851f34aa8929),
];
const PINS_PAPER_1: [Pin; 6] = [
    p(441, 418, 106460199, 859, 908, 0x6485857352412e30),
    p(490, 14203, 41291532, 4323, 14693, 0xe1ce40a36dffb62c),
    p(481, 13211, 82519664, 1888, 13701, 0x6510819994227c83),
    p(490, 4253, 38554985, 3509, 4743, 0x6fa17c06efc4a3f4),
    p(490, 16170, 23504589, 6891, 16660, 0x61f1165f85560151),
    p(490, 9225, 23504589, 6894, 1728, 0xd47241e32ea5eb0e),
];
const PINS_PAPER_2: [Pin; 6] = [
    p(447, 424, 111748557, 871, 914, 0xe109716ebe4037ad),
    p(490, 14365, 39648464, 3982, 14855, 0x1737c6d295cf2cd9),
    p(486, 13165, 82089391, 2112, 13655, 0x2581265dc0efe5b4),
    p(490, 4189, 38919566, 3470, 4679, 0x1b523e94c0061aa0),
    p(490, 16170, 18415378, 6129, 16660, 0x837d0957b5789314),
    p(490, 8179, 18415378, 6131, 1731, 0xf0ff3f5067b31b4a),
];
const PINS_PAPER_3: [Pin; 6] = [
    p(436, 420, 96712606, 856, 910, 0x4b1ed9cd2a195f29),
    p(490, 13925, 36896278, 4159, 14415, 0xcba5af5e55a974c3),
    p(484, 13180, 62211180, 2062, 13670, 0xe7dcae27fc6e3350),
    p(490, 4273, 37167233, 3496, 4763, 0x922ce3eec875dbc3),
    p(490, 16170, 16778883, 6367, 16660, 0xfa27db258c7134ea),
    p(490, 8213, 16778883, 6370, 1492, 0x09b155aef83a1ed4),
];

// Non-default configurations at small scale, seed 1: the paths the rows
// above never take, two policies each.

fn check_variant(
    label: &str,
    policies: [PolicyKind; 2],
    tweak: fn(EmulationConfig) -> EmulationConfig,
    expected: [Pin; 2],
) {
    let trace = DieselNetConfig {
        seed: 1,
        ..DieselNetConfig::small()
    }
    .generate();
    let mail = EmailConfig {
        seed: 1 ^ EMAIL_SEED_SALT,
        ..EmailConfig::small()
    }
    .generate();
    for (policy, expected) in policies.into_iter().zip(&expected) {
        let config = tweak(EmulationConfig {
            assignment_seed: 1,
            ..EmulationConfig::for_policy(policy)
        });
        let actual = pin(&run(&trace, &mail, config));
        assert_eq!(&actual, expected, "{label}: {policy}");
    }
}

#[test]
fn small_scale_crash_rate() {
    check_variant(
        "crash_rate",
        [PolicyKind::MaxProp, PolicyKind::Prophet],
        |c| EmulationConfig {
            crash_rate: 0.2,
            ..c
        },
        PINS_CRASH_RATE,
    );
}

#[test]
fn small_scale_encounter_drop_rate() {
    check_variant(
        "encounter_drop_rate",
        [PolicyKind::Epidemic, PolicyKind::SprayAndWait],
        |c| EmulationConfig {
            encounter_drop_rate: 0.3,
            ..c
        },
        PINS_DROP_RATE,
    );
}

#[test]
fn small_scale_message_lifetime() {
    check_variant(
        "message_lifetime",
        [PolicyKind::Epidemic, PolicyKind::TwoHopRelay],
        |c| EmulationConfig {
            message_lifetime: Some(pfr::SimDuration::from_hours(12)),
            ..c
        },
        PINS_LIFETIME,
    );
}

#[test]
fn small_scale_messages_per_contact_minute() {
    check_variant(
        "messages_per_contact_minute",
        [PolicyKind::Epidemic, PolicyKind::MaxProp],
        |c| EmulationConfig {
            messages_per_contact_minute: Some(0.5),
            ..c
        },
        PINS_CONTACT_RATE,
    );
}

#[test]
fn small_scale_budget_and_relay_limit() {
    check_variant(
        "budget + relay_limit",
        [PolicyKind::Epidemic, PolicyKind::MaxProp],
        |c| EmulationConfig {
            budget: dtn::EncounterBudget::max_messages(1),
            relay_limit: Some(2),
            ..c
        },
        PINS_CONSTRAINED,
    );
}

#[test]
fn small_scale_random_filter() {
    check_variant(
        "FilterStrategy::Random",
        [PolicyKind::Direct, PolicyKind::Prophet],
        |c| EmulationConfig {
            filter_strategy: dtn::FilterStrategy::Random(2),
            ..c
        },
        PINS_RANDOM_FILTER,
    );
}

#[test]
fn small_scale_selected_filter() {
    check_variant(
        "FilterStrategy::Selected",
        [PolicyKind::Direct, PolicyKind::SprayAndWait],
        |c| EmulationConfig {
            filter_strategy: dtn::FilterStrategy::Selected(1),
            ..c
        },
        PINS_SELECTED_FILTER,
    );
}

#[test]
fn small_scale_digest_sync() {
    check_variant(
        "SyncMode::Digest",
        [PolicyKind::Prophet, PolicyKind::MaxProp],
        |c| EmulationConfig {
            sync_mode: pfr::SyncMode::Digest,
            ..c
        },
        PINS_DIGEST,
    );
}

/// Digest mode moves metadata, never messages — also when a rebooted
/// node has lost the routing-state base its peers delta against.
#[test]
fn small_scale_digest_under_crashes() {
    check_variant(
        "crash_rate + SyncMode::Digest",
        [PolicyKind::MaxProp, PolicyKind::Prophet],
        |c| EmulationConfig {
            crash_rate: 0.2,
            sync_mode: pfr::SyncMode::Digest,
            ..c
        },
        PINS_CRASH_RATE,
    );
}

const PINS_CRASH_RATE: [Pin; 2] = [
    p(40, 308, 952067, 183, 209, 0x95bcc80e0e0653e3),
    p(34, 255, 1046180, 98, 295, 0xb9670f0466234050),
];
const PINS_DROP_RATE: [Pin; 2] = [
    p(40, 400, 1288653, 190, 440, 0xdfb19a7fe11d9e67),
    p(40, 327, 1311403, 174, 367, 0xd5ebffe4ade8fc6e),
];
const PINS_LIFETIME: [Pin; 2] = [
    p(31, 567, 92890, 119, 0, 0xb12d96cdfec69326),
    p(31, 521, 123710, 95, 0, 0xefbec5ca9ab3a206),
];
const PINS_CONTACT_RATE: [Pin; 2] = [
    p(37, 330, 1594871, 120, 370, 0x7b2b308a231de85a),
    p(37, 159, 1545291, 120, 134, 0x19f1b2798daa0981),
];
const PINS_CONSTRAINED: [Pin; 2] = [
    p(34, 281, 1186094, 83, 92, 0x25c4a5cdce587055),
    p(37, 149, 1592378, 89, 87, 0x841824dbb01ab7f0),
];
const PINS_RANDOM_FILTER: [Pin; 2] = [
    p(34, 97, 1291929, 76, 137, 0x51e86a943ea703c5),
    p(34, 283, 1021295, 115, 323, 0xfc2827c468953fc2),
];
const PINS_SELECTED_FILTER: [Pin; 2] = [
    p(33, 118, 888226, 82, 158, 0x9e177797068f1590),
    p(40, 370, 952098, 177, 410, 0x406f60a4b69e075a),
];
const PINS_DIGEST: [Pin; 2] = [
    p(34, 258, 1044924, 102, 298, 0x65517ca62f709d1e),
    p(40, 217, 952067, 183, 120, 0x5486851f34aa8929),
];
