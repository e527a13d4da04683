//! The six policies' `ExperimentMetrics`, pinned.
//!
//! The rows below were recorded from the commit *before* sync selection,
//! knowledge layout and the MaxProp/PROPHET routing state were rewritten
//! for speed; that rewrite (and any later one) must reproduce them
//! exactly. Each row carries the headline counters for a readable failure
//! plus an FNV-1a hash of the whole `Debug` rendering — every message
//! record (delivery time, copies at delivery, copies at end) and every
//! day's activity — so no field can drift unnoticed.
//!
//! To re-record after an *intended* behaviour change, copy the fields of
//! the failing assertion's left-hand `Pin` into the row it names.

use dtn::PolicyKind;
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use traces::{DieselNetConfig, EmailConfig};

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
    assert_eq!(metrics.duplicates, 0, "at-most-once delivery");
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
            pin(&Emulation::new(&trace, &mail, config).run())
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
