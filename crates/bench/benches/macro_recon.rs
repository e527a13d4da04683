//! Macro benchmark for digest-mode set reconciliation: replays the same
//! multi-day DieselNet × email workload twice — once with full knowledge
//! exchange ([`SyncMode::Full`]) and once with compact digests — checksums
//! and learned-version deltas ([`SyncMode::Digest`]) — and reports the
//! metadata bytes each mode put on the wire.
//!
//! The two runs must produce *identical* [`ExperimentMetrics`]: digests
//! change how knowledge travels, never which items replicate or when they
//! deliver. The bench asserts that before reporting any numbers. Both
//! timed replays run unobserved, so the seconds compare the two protocols
//! and not an observer; a third, untimed digest replay carries a
//! [`Registry`] and cross-checks the per-node [`ReconStats`] sums against
//! its `recon.*` counters, exercising the observation path end to end.
//!
//! Results land in `BENCH_recon.json` in the working directory; the perf
//! guard gates on `metadata_ratio` ≥ 3 and nonzero digest traffic.
//!
//! `REPLIDTN_EMU_DAYS` overrides the replay length (default 30); CI's
//! perf-smoke job sets it to 1 for a fast structural check.

use std::sync::Arc;
use std::time::Instant;

use dtn::PolicyKind;
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use obs::Registry;
use pfr::digest::ReconStats;
use pfr::SyncMode;
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace};

/// One emulation replay in the given sync mode, returning the metrics,
/// the summed per-node recon stats, and the wall time.
fn run_mode(
    trace: &EncounterTrace,
    workload: &EmailWorkload,
    sync_mode: SyncMode,
    registry: Option<Arc<Registry>>,
) -> (ExperimentMetrics, ReconStats, f64) {
    let config = EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        sync_mode,
        observer: registry.map(|r| r as Arc<dyn obs::Observer>),
        ..EmulationConfig::default()
    };
    let started = Instant::now();
    let (metrics, nodes) = Emulation::new(trace, workload, config).run_into_parts();
    let seconds = started.elapsed().as_secs_f64();
    let mut stats = ReconStats::default();
    for node in nodes.values() {
        let s = node.recon_stats();
        stats.exchanges += s.exchanges;
        stats.digest_bytes += s.digest_bytes;
        stats.full_bytes += s.full_bytes;
        stats.fallback_rounds += s.fallback_rounds;
    }
    (metrics, stats, seconds)
}

fn main() {
    let days: u64 = std::env::var("REPLIDTN_EMU_DAYS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30)
        .max(1);
    let trace = DieselNetConfig {
        days,
        ..DieselNetConfig::default()
    }
    .generate();
    let workload = EmailConfig {
        injection_days: days.min(8),
        total_messages: ((490 * days) / 17).max(30) as usize,
        ..EmailConfig::default()
    }
    .generate();

    println!(
        "macro_recon: Epidemic, {days} day(s), {} encounters, {} messages",
        trace.len(),
        workload.len()
    );

    let (full_metrics, full_stats, full_s) = run_mode(&trace, &workload, SyncMode::Full, None);
    println!("  full    : {full_s:7.2}s");
    assert_eq!(
        full_stats.exchanges, 0,
        "full mode must never touch the digest path"
    );

    let (digest_metrics, digest_stats, digest_s) =
        run_mode(&trace, &workload, SyncMode::Digest, None);
    println!("  digest  : {digest_s:7.2}s");

    // The tentpole invariant: digests change what travels, never what
    // replicates. Byte-identical metrics or the bench refuses to report.
    assert_eq!(
        full_metrics, digest_metrics,
        "digest mode changed experiment results"
    );

    // The observation path must agree with the per-node counters: the
    // same digest replay again, observed and untimed.
    let registry = Arc::new(Registry::new());
    let (observed_metrics, observed_stats, _) =
        run_mode(&trace, &workload, SyncMode::Digest, Some(registry.clone()));
    assert_eq!(
        observed_metrics, digest_metrics,
        "an observer changed experiment results"
    );
    assert_eq!(
        observed_stats, digest_stats,
        "an observer changed digest traffic"
    );
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("recon.digest_bytes"),
        digest_stats.digest_bytes,
        "registry and node stats disagree on digest bytes"
    );
    assert_eq!(
        snapshot.counter("recon.full_bytes"),
        digest_stats.full_bytes,
        "registry and node stats disagree on full-equivalent bytes"
    );

    let ratio = digest_stats.full_bytes as f64 / (digest_stats.digest_bytes as f64).max(1e-9);
    println!(
        "  slowdown: {:.2}x digest over full",
        digest_s / full_s.max(1e-9)
    );
    println!(
        "  metadata: {} digest bytes vs {} full-equivalent ({ratio:.2}x reduction), \
         {} exchanges, {} fallback rounds",
        digest_stats.digest_bytes,
        digest_stats.full_bytes,
        digest_stats.exchanges,
        digest_stats.fallback_rounds
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"macro_recon\",\n",
            "  \"policy\": \"epidemic\",\n",
            "  \"days\": {days},\n",
            "  \"encounters\": {encounters},\n",
            "  \"messages\": {messages},\n",
            "  \"metrics_identical\": true,\n",
            "  \"delivered\": {delivered},\n",
            "  \"full\": {{\"seconds\": {full_s:.3}}},\n",
            "  \"digest\": {{\"seconds\": {digest_s:.3}, \"exchanges\": {exchanges}, ",
            "\"digest_bytes\": {digest_bytes}, \"full_bytes\": {full_bytes}, ",
            "\"bytes_saved\": {bytes_saved}, \"fallback_rounds\": {fallback_rounds}}},\n",
            "  \"metadata_ratio\": {ratio:.2}\n",
            "}}\n",
        ),
        days = days,
        encounters = trace.len(),
        messages = workload.len(),
        delivered = digest_metrics.delivered(),
        full_s = full_s,
        digest_s = digest_s,
        exchanges = digest_stats.exchanges,
        digest_bytes = digest_stats.digest_bytes,
        full_bytes = digest_stats.full_bytes,
        bytes_saved = digest_stats
            .full_bytes
            .saturating_sub(digest_stats.digest_bytes),
        fallback_rounds = digest_stats.fallback_rounds,
        ratio = ratio,
    );
    std::fs::write("BENCH_recon.json", &json).expect("write BENCH_recon.json");
    println!("  wrote BENCH_recon.json");
}
