//! Macro benchmark for the engine at city scale: a fleet one order
//! of magnitude (or more) beyond the paper's 34 DieselNet buses, streamed
//! from an on-disk spool and replayed three ways —
//!
//! * **spill**: two shards on one thread (every operation executes on
//!   the caller's thread) + a resident-replica cap, cold state spilled
//!   through `store::SpillFile` (the bounded-RSS configuration),
//! * **sharded**: the same two shards, every replica resident,
//! * **serial**: the reference run — one shard on the cooperative path,
//!   every replica resident, the trace in memory (skipped at scales where
//!   materializing the trace stops being reasonable). The name is the
//!   `BENCH_scale.json` key, kept from when this was a separate engine.
//!
//! All modes must produce identical [`ExperimentMetrics`] — shards and
//! spilling are execution strategies, not model changes — and the bench
//! asserts that before reporting anything. An instrumented re-run of the
//! spill mode captures the `shard.*` counters (handoffs, spills,
//! unspills) so the report proves the scale machinery actually engaged.
//! Results land in `BENCH_scale.json` in the working directory.
//!
//! The replay runs Epidemic under the paper's Figure-10-style storage
//! constraint (a small per-node relay cap): city buses are
//! storage-constrained relays, not archives, and the cap keeps per-node
//! stores — and therefore spill snapshots — proportional to the
//! constraint instead of to the whole message population. (Unconstrained
//! Epidemic at city scale floods every store to thousands of items,
//! which measures snapshot serialization, not the engine.)
//!
//! The `BENCH_scale.json` keys keep the names they had when shards ran
//! on a thread pool: `workers` is the shard count
//! (`REPLIDTN_SCALE_WORKERS`, default 2).
//!
//! `REPLIDTN_SCALE` multiplies the paper's topology along every axis
//! (default 10: a 340-vehicle fleet); `REPLIDTN_SCALE_DAYS` sets the
//! replay horizon (default 6); `REPLIDTN_SCALE_RESIDENT` overrides the
//! resident-replica cap (default 3/5 of the fleet — DieselNet's daily
//! active set is ~2/3 of the fleet with near-uniform touch frequency, so
//! a much smaller cap measures pure thrash, not residency management).
//! CI's scale-smoke sets scale low for a fast structural check. Peak RSS
//! comes from `/proc/self/status` `VmHWM`, reset per mode via
//! `/proc/self/clear_refs` where the kernel allows; the spill mode is
//! measured first so its reading stays honest even on kernels that
//! refuse the reset (`VmHWM` only ratchets upward).
//!
//! Beyond wall time and RSS, the report carries the residency health
//! numbers the perf guard gates: the *thrash ratio* (unspills per
//! encounter — below 0.3 the engine restores state ahead of need instead
//! of faulting on it) and the spill file's high-water size (with
//! free-list slot reuse it plateaus at the peak parked set).

use std::sync::Arc;
use std::time::Instant;

use dtn::PolicyKind;
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use obs::Registry;
use traces::{DieselNetConfig, EmailConfig, EncounterTrace};

/// Best-effort reset of the peak-RSS high-water mark, so each mode's
/// `VmHWM` reading is its own peak rather than the process maximum.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size in KiB (`VmHWM`), or 0 off Linux.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

struct ModeResult {
    metrics: ExperimentMetrics,
    seconds: f64,
    encounters_per_sec: f64,
    peak_rss_kb: u64,
}

fn measure(encounters: u64, run: impl FnOnce() -> ExperimentMetrics) -> ModeResult {
    reset_peak_rss();
    let started = Instant::now();
    let metrics = run();
    let seconds = started.elapsed().as_secs_f64();
    ModeResult {
        encounters_per_sec: encounters as f64 / seconds.max(1e-9),
        seconds,
        peak_rss_kb: peak_rss_kb(),
        metrics,
    }
}

/// Per-node relay-store cap (the paper's Figure 10 uses 2; 4 leaves the
/// policies a little more room while keeping stores — and spill
/// snapshots — small).
const RELAY_LIMIT: usize = 4;

fn env_num(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

fn main() {
    let scale = env_num("REPLIDTN_SCALE", 10) as usize;
    let days = env_num("REPLIDTN_SCALE_DAYS", 6);
    let trace_config = DieselNetConfig {
        days,
        ..DieselNetConfig::city(scale)
    };
    let fleet = trace_config.fleet_size;
    let workload = EmailConfig {
        injection_days: days.min(8),
        ..EmailConfig::city(scale)
    }
    .generate();

    let pid = std::process::id();
    let spool_path = std::env::temp_dir().join(format!("replidtn-macro-scale-{pid}.spool"));
    let spill_dir = std::env::temp_dir().join(format!("replidtn-macro-scale-spill-{pid}"));
    std::fs::create_dir_all(&spill_dir).expect("spill dir");
    let spooled = trace_config
        .generate_spooled(&spool_path)
        .expect("spool city trace");

    let workers = env_num("REPLIDTN_SCALE_WORKERS", 2) as usize;
    let resident_limit =
        env_num("REPLIDTN_SCALE_RESIDENT", (fleet * 3 / 5).max(16) as u64) as usize;

    println!(
        "macro_scale: Epidemic (relay cap {RELAY_LIMIT}), scale {scale} \
         ({fleet} vehicles, {:.0}x the paper's 34), {days} day(s), \
         {} encounters, {} messages, {workers} shards",
        fleet as f64 / 34.0,
        spooled.len(),
        workload.len()
    );

    let spill_config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        relay_limit: Some(RELAY_LIMIT),
        shards: Some(workers),
        spill_dir: Some(spill_dir.clone()),
        resident_limit: Some(resident_limit),
        ..EmulationConfig::default()
    };
    let spill = measure(spooled.len(), || {
        Emulation::from_spooled(&spooled, &workload, spill_config.clone()).run()
    });
    println!(
        "  spill   : {:7.2}s, {:8.0} encounters/sec, {} KiB peak RSS \
         (resident cap {resident_limit}/{fleet})",
        spill.seconds, spill.encounters_per_sec, spill.peak_rss_kb
    );

    let sharded_config = EmulationConfig {
        spill_dir: None,
        resident_limit: None,
        ..spill_config.clone()
    };
    let sharded = measure(spooled.len(), || {
        Emulation::from_spooled(&spooled, &workload, sharded_config).run()
    });
    println!(
        "  sharded : {:7.2}s, {:8.0} encounters/sec, {} KiB peak RSS",
        sharded.seconds, sharded.encounters_per_sec, sharded.peak_rss_kb
    );
    assert_eq!(
        spill.metrics, sharded.metrics,
        "spilling cold replicas must not change the run"
    );

    // Instrumented spill re-run: prove the scale machinery engaged (cross-
    // shard handoffs happened, the cap forced spills) and that observation
    // does not perturb the run. Its wall time is not reported.
    let registry = Arc::new(Registry::new());
    let observed = Emulation::from_spooled(
        &spooled,
        &workload,
        EmulationConfig {
            observer: Some(registry.clone()),
            ..spill_config
        },
    )
    .run();
    assert_eq!(
        spill.metrics, observed,
        "attaching an observer must not change run results"
    );
    let snap = registry.snapshot();
    let (handoffs, spills, unspills, evictions) = (
        snap.counter("shard.handoffs"),
        snap.counter("shard.spills"),
        snap.counter("shard.unspills"),
        snap.counter("shard.evictions"),
    );
    let (resident_peak, spill_file_bytes) = (
        snap.gauge("shard.resident_peak"),
        snap.gauge("shard.spill_file_bytes"),
    );
    assert!(spills > 0, "the resident cap must force spills");
    let thrash_ratio = unspills as f64 / spooled.len().max(1) as f64;
    println!(
        "  shard   : {handoffs} handoffs, {spills} spills, {unspills} unspills \
         ({thrash_ratio:.3} unspills/encounter), peak {resident_peak} resident, \
         spill file high-water {spill_file_bytes} bytes"
    );

    // One-shard in-memory baseline: the differential anchor. The *same*
    // spool is materialized into an in-memory trace (the spool enforces
    // the identical (time, a, b) order `from_encounters` sorts by, so the
    // schedules match exactly); `DieselNetConfig::generate` would build a
    // different — equally-distributed but not identical — schedule.
    // Skipped at scales where materializing every encounter stops being
    // reasonable; the spill-vs-sharded equality above still gates those.
    let serial = (scale <= 100).then(|| {
        let trace = EncounterTrace::from_encounters(
            spooled
                .iter()
                .expect("reopen spool for serial baseline")
                .collect(),
        );
        let result = measure(trace.len() as u64, || {
            Emulation::new(
                &trace,
                &workload,
                EmulationConfig {
                    policy: PolicyKind::Epidemic.into(),
                    relay_limit: Some(RELAY_LIMIT),
                    ..EmulationConfig::default()
                },
            )
            .run()
        });
        assert_eq!(
            result.metrics, spill.metrics,
            "the sharded engine diverged from the one-shard reference"
        );
        println!(
            "  serial  : {:7.2}s, {:8.0} encounters/sec, {} KiB peak RSS",
            result.seconds, result.encounters_per_sec, result.peak_rss_kb
        );
        result
    });

    let serial_json = serial.as_ref().map_or("null".to_string(), |s| {
        format!(
            "{{\"seconds\": {:.3}, \"encounters_per_sec\": {:.1}, \"peak_rss_kb\": {}}}",
            s.seconds, s.encounters_per_sec, s.peak_rss_kb
        )
    });
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"macro_scale\",\n",
            "  \"policy\": \"epidemic\",\n",
            "  \"scale\": {scale},\n",
            "  \"fleet\": {fleet},\n",
            "  \"fleet_vs_paper\": {fleet_ratio:.1},\n",
            "  \"days\": {days},\n",
            "  \"encounters\": {encounters},\n",
            "  \"messages\": {messages},\n",
            "  \"workers\": {workers},\n",
            "  \"relay_limit\": {relay_limit},\n",
            "  \"resident_limit\": {resident_limit},\n",
            "  \"metrics_identical\": true,\n",
            "  \"shard\": {{\"handoffs\": {handoffs}, \"spills\": {spills}, ",
            "\"unspills\": {unspills}, \"evictions\": {evictions}, ",
            "\"thrash_ratio\": {thrash_ratio:.4}, ",
            "\"resident_peak\": {resident_peak}, ",
            "\"spill_file_bytes\": {spill_file_bytes}}},\n",
            "  \"spill\": {{\"seconds\": {spill_s:.3}, \"encounters_per_sec\": {spill_eps:.1}, ",
            "\"peak_rss_kb\": {spill_rss}}},\n",
            "  \"sharded\": {{\"seconds\": {shard_s:.3}, \"encounters_per_sec\": {shard_eps:.1}, ",
            "\"peak_rss_kb\": {shard_rss}}},\n",
            "  \"serial\": {serial_json}\n",
            "}}\n",
        ),
        scale = scale,
        fleet = fleet,
        fleet_ratio = fleet as f64 / 34.0,
        days = days,
        encounters = spooled.len(),
        messages = workload.len(),
        workers = workers,
        relay_limit = RELAY_LIMIT,
        resident_limit = resident_limit,
        handoffs = handoffs,
        spills = spills,
        unspills = unspills,
        evictions = evictions,
        thrash_ratio = thrash_ratio,
        resident_peak = resident_peak,
        spill_file_bytes = spill_file_bytes,
        spill_s = spill.seconds,
        spill_eps = spill.encounters_per_sec,
        spill_rss = spill.peak_rss_kb,
        shard_s = sharded.seconds,
        shard_eps = sharded.encounters_per_sec,
        shard_rss = sharded.peak_rss_kb,
        serial_json = serial_json,
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("  wrote BENCH_scale.json");

    let _ = std::fs::remove_file(&spool_path);
    let _ = std::fs::remove_dir_all(&spill_dir);
}
