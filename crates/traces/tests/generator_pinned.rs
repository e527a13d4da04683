//! Exact pins of the synthetic DieselNet generators.
//!
//! Both generators draw one RNG stream in a fixed order (duty chain, the
//! two-buses minimum, route churn, then per encounter: pair, time offset,
//! and the duration from its own stream). Any change to that order, or to
//! either pair sampler, moves these hashes. A refactor that must keep the
//! traces fixed keeps them green unchanged.

use traces::{DieselNetConfig, Encounter};

fn fnv(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// (encounter count, FNV-1a over time, pair and duration of each).
fn digest<'a>(encounters: impl IntoIterator<Item = &'a Encounter>) -> (usize, u64) {
    let mut count = 0;
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for e in encounters {
        count += 1;
        for word in [
            e.time.as_secs(),
            e.a.as_u64(),
            e.b.as_u64(),
            e.duration.as_secs(),
        ] {
            hash = fnv(hash, word);
        }
    }
    (count, hash)
}

#[test]
fn default_trace_is_pinned() {
    let trace = DieselNetConfig::default().generate();
    assert_eq!(digest(trace.iter()), (15_997, 0x2149_df04_ae50_d568));
}

#[test]
fn city_spool_is_pinned() {
    let dir = std::env::temp_dir().join(format!("replidtn-genpin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("city3.spool");
    let spooled = DieselNetConfig {
        days: 2,
        ..DieselNetConfig::city(3)
    }
    .generate_spooled(&path)
    .expect("generate");
    let encounters: Vec<Encounter> = spooled.iter().expect("open").collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(digest(&encounters), (5_646, 0x3750_df98_be27_cc28));
}
