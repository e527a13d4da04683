//! The 3,400-vehicle city, spilled and resident.
//!
//! One replay of a city at 100× the paper's topology —
//! `DieselNetConfig::city(100)` over six days, streamed from a spool, with
//! `EmailConfig::city(100)`'s 49,000 messages injected over those days —
//! under Epidemic with a relay cap of 4, run twice on the live engine:
//! first with 3/5 of the fleet resident and cold replicas spilled to disk,
//! then with every replica resident. The two runs must produce equal
//! `ExperimentMetrics`; the cap must actually spill; residency must be
//! managed by lookahead rather than by faulting on touch (at most 0.3
//! unspills per encounter); and the spilled run's peak resident set must
//! stay below the resident run's. Each run wears its own
//! [`testkit::Invariants`] checker, which must end clean: at-most-once
//! delivery, no delivery before injection, and every unspilled replica's
//! knowledge equal to what it was parked with.
//!
//! Peak RSS is the process's `VmHWM`, which only ratchets upward. This
//! file holds one test, so the binary runs nothing else, and the spilled
//! replay runs first: its reading is its own peak, and the resident
//! replay's is the larger of the two peaks, so no reset is needed.
//!
//! The pair takes tens of seconds optimised and far longer unoptimised,
//! so it is ignored in debug builds; run
//! `cargo test -p replidtn-emu --release --test city_full_scale`.

use std::sync::Arc;
use std::time::Instant;

use dtn::PolicyKind;
use emu::{Emulation, EmulationConfig};
use obs::Registry;
use testkit::Invariants;
use traces::{DieselNetConfig, EmailConfig};

const SCALE: usize = 100;
const DAYS: u64 = 6;
const RELAY_LIMIT: usize = 4;
/// Unspills per encounter above which residency is thrashing.
const MAX_THRASH: f64 = 0.3;

/// Peak resident set size of this process in KiB (`VmHWM`).
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM in /proc/self/status")
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn spilled_city_equals_resident_in_less_memory() {
    let tmp = std::env::temp_dir().join(format!("replidtn-city-full-{}", std::process::id()));
    let spill_dir = tmp.join("spill");
    std::fs::create_dir_all(&spill_dir).expect("spill dir");

    let trace = DieselNetConfig {
        days: DAYS,
        ..DieselNetConfig::city(SCALE)
    };
    let fleet = trace.fleet_size;
    let spooled = trace
        .generate_spooled(tmp.join("city.spool"))
        .expect("spool the city trace");
    let mail = EmailConfig {
        injection_days: DAYS,
        ..EmailConfig::city(SCALE)
    }
    .generate();
    let mut resident = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        relay_limit: Some(RELAY_LIMIT),
        ..EmulationConfig::default()
    };

    let registry = Arc::new(Registry::new());
    let mut capped = EmulationConfig {
        spill_dir: Some(spill_dir),
        resident_limit: Some(fleet * 3 / 5),
        observer: Some(registry.clone()),
        ..resident.clone()
    };
    let spilled_check = Invariants::attach(&mut capped.observer);
    let started = Instant::now();
    let spilled = Emulation::from_spooled(&spooled, &mail, capped).run();
    let spilled_s = started.elapsed().as_secs_f64();
    let spilled_rss = peak_rss_kib();

    let resident_check = Invariants::attach(&mut resident.observer);
    let started = Instant::now();
    let all_resident = Emulation::from_spooled(&spooled, &mail, resident).run();
    let resident_s = started.elapsed().as_secs_f64();
    let resident_rss = peak_rss_kib();
    std::fs::remove_dir_all(&tmp).ok();
    spilled_check.assert_clean();
    resident_check.assert_clean();

    let snap = registry.snapshot();
    let (spills, unspills) = (snap.counter("shard.spills"), snap.counter("shard.unspills"));
    let thrash = unspills as f64 / spooled.len().max(1) as f64;
    println!(
        "{fleet} vehicles, {} encounters, {} messages: spilled {spilled_s:.1} s, \
         {spilled_rss} KiB peak; resident {resident_s:.1} s, {resident_rss} KiB peak; \
         {spills} spills, {unspills} unspills ({thrash:.4} per encounter); \
         delivered {}, transfers {}",
        spooled.len(),
        mail.len(),
        all_resident.delivered(),
        all_resident.transmissions,
    );

    assert_eq!(
        spilled, all_resident,
        "spilling cold replicas changed the run"
    );
    assert!(all_resident.delivered() > 0, "the city delivers mail");
    assert!(spills > 0, "a cap of 3/5 of the fleet must force spills");
    assert!(
        thrash <= MAX_THRASH,
        "{thrash:.4} unspills per encounter: residency faults on touch"
    );
    assert!(
        spilled_rss < resident_rss,
        "spilled peak {spilled_rss} KiB is not below resident peak {resident_rss} KiB"
    );
}
