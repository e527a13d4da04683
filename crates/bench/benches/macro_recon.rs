//! Macro benchmark for digest-mode set reconciliation: replays the same
//! multi-day DieselNet × email workload twice — once with full knowledge
//! exchange ([`SyncMode::Full`]) and once with compact digests — checksums,
//! learned-version deltas, Bloom filters
//! ([`SyncMode::Digest`]) — and reports the metadata bytes each mode put
//! on the wire.
//!
//! The two runs must produce *identical* [`ExperimentMetrics`]: digests
//! change how knowledge travels, never which items replicate or when they
//! deliver. The bench asserts that before reporting any numbers, and also
//! cross-checks the per-node [`ReconStats`] sums against the observer's
//! `recon.*` registry counters (the digest run carries a [`Registry`], so
//! the observation path is exercised end to end).
//!
//! A second section sweeps the Bloom filter density (bits per version)
//! over a fixed two-node overlap scenario with
//! [`DigestPolicy::ForceBloom`], charting the digest-size /
//! false-positive trade the filter sizing buys (fp rate ≈ 0.6185^bits).
//!
//! Results land in `BENCH_recon.json` in the working directory; the perf
//! guard gates on `metadata_ratio` ≥ 3 and nonzero digest traffic.
//!
//! `REPLIDTN_EMU_DAYS` overrides the replay length (default 30); CI's
//! perf-smoke job sets it to 1 for a fast structural check.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dtn::{DtnNode, EncounterBudget, PolicyKind};
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use obs::Registry;
use pfr::digest::{DigestPolicy, ReconStats};
use pfr::{ReplicaId, SimTime, SyncMode};
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
        stats.false_positives += s.false_positives;
    }
    (metrics, stats, seconds)
}

/// One row of the Bloom density sweep: a fixed two-node scenario where a
/// shared base (first encounter) is followed by one-sided fresh traffic,
/// so the second encounter's Bloom screening faces real overlap and a
/// known population of absent versions that can false-positive.
fn bloom_sweep_row(bits: u32) -> (ReconStats, usize) {
    let mut a = DtnNode::new(ReplicaId::new(1), "a", PolicyKind::Epidemic);
    let mut b = DtnNode::new(ReplicaId::new(2), "b", PolicyKind::Epidemic);
    for node in [&mut a, &mut b] {
        node.set_sync_mode(SyncMode::Digest);
        node.set_digest_policy(DigestPolicy::ForceBloom);
        node.set_bloom_bits_per_item(bits);
    }
    for i in 0..150u32 {
        let t = SimTime::from_secs(u64::from(i));
        a.send("b", format!("base a->b {i}").into_bytes(), t)
            .expect("inject");
        b.send("a", format!("base b->a {i}").into_bytes(), t)
            .expect("inject");
    }
    a.encounter(
        &mut b,
        SimTime::from_secs(200),
        EncounterBudget::unlimited(),
    );
    // Fresh one-sided versions: absent from b's knowledge, each hits b's
    // Bloom with probability ≈ 0.6185^bits on the second exchange.
    for i in 0..200u32 {
        a.send(
            "b",
            format!("fresh a->b {i}").into_bytes(),
            SimTime::from_secs(300 + u64::from(i)),
        )
        .expect("inject");
    }
    a.encounter(
        &mut b,
        SimTime::from_secs(600),
        EncounterBudget::unlimited(),
    );

    let mut stats = ReconStats::default();
    for node in [&a, &b] {
        let s = node.recon_stats();
        stats.exchanges += s.exchanges;
        stats.digest_bytes += s.digest_bytes;
        stats.full_bytes += s.full_bytes;
        stats.fallback_rounds += s.fallback_rounds;
        stats.false_positives += s.false_positives;
    }
    (stats, b.inbox().len())
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

    let registry = Arc::new(Registry::new());
    let (digest_metrics, digest_stats, digest_s) =
        run_mode(&trace, &workload, SyncMode::Digest, Some(registry.clone()));
    println!("  digest  : {digest_s:7.2}s");

    // The tentpole invariant: digests change what travels, never what
    // replicates. Byte-identical metrics or the bench refuses to report.
    assert_eq!(
        full_metrics, digest_metrics,
        "digest mode changed experiment results"
    );

    // The observation path must agree with the per-node counters.
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
        "  metadata: {} digest bytes vs {} full-equivalent ({ratio:.2}x reduction), \
         {} exchanges, {} fallback rounds, {} false positives",
        digest_stats.digest_bytes,
        digest_stats.full_bytes,
        digest_stats.exchanges,
        digest_stats.fallback_rounds,
        digest_stats.false_positives
    );

    let sweep_bits = [2u32, 4, 6, 8, 10, 12, 16];
    let mut sweep_rows: BTreeMap<u32, (ReconStats, usize)> = BTreeMap::new();
    for bits in sweep_bits {
        let (stats, delivered) = bloom_sweep_row(bits);
        assert_eq!(delivered, 350, "bloom sweep (bits={bits}) lost deliveries");
        println!(
            "  bloom {bits:>2}b: {:6} digest bytes, {:3} false positives, {} fallback rounds",
            stats.digest_bytes, stats.false_positives, stats.fallback_rounds
        );
        sweep_rows.insert(bits, (stats, delivered));
    }

    let sweep_json: Vec<String> = sweep_rows
        .iter()
        .map(|(bits, (s, _))| {
            format!(
                "{{\"bits\": {bits}, \"digest_bytes\": {}, \"false_positives\": {}, \
                 \"fallback_rounds\": {}}}",
                s.digest_bytes, s.false_positives, s.fallback_rounds
            )
        })
        .collect();

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
            "\"bytes_saved\": {bytes_saved}, \"fallback_rounds\": {fallback_rounds}, ",
            "\"false_positives\": {false_positives}}},\n",
            "  \"metadata_ratio\": {ratio:.2},\n",
            "  \"bloom_sweep\": [{sweep}]\n",
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
        false_positives = digest_stats.false_positives,
        ratio = ratio,
        sweep = sweep_json.join(", "),
    );
    std::fs::write("BENCH_recon.json", &json).expect("write BENCH_recon.json");
    println!("  wrote BENCH_recon.json");
}
