//! Layer probes: each times calls into one layer's public functions, on
//! state taken from the workload that ran, during the traced pass. A
//! probe's number is not a share of the workload's wall time — that needs
//! spans inside the program — it is the cost of the layer's operation at
//! the sizes the workload reaches, so a change to the layer shows here
//! before it shows end to end.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dtn::{DtnNode, EncounterBudget, SnapshotScratch};
use obs::{Event, Observer, Registry, RegistrySnapshot};
use pfr::sync::SyncBatch;
use pfr::{ReplicaId, SimTime};
use recon::{Bloom, Iblt, StrataEstimator};
use store::SpillFile;
use traces::{DieselNetConfig, SpooledTrace};
use transport::frame::{write_frame, FrameAccum, FrameType};

use crate::harness::{self, quantile_of};
use crate::metrics::Report;
use crate::Ctx;

/// The traced pass's observer: the public registry plus an event count.
pub struct Watch {
    /// Counters, gauges and histograms keyed by the `obs` names.
    pub registry: Registry,
    events: AtomicU64,
}

impl Default for Watch {
    fn default() -> Self {
        Watch {
            registry: Registry::new(),
            events: AtomicU64::new(0),
        }
    }
}

impl Watch {
    /// Events received so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

impl Observer for Watch {
    fn on_event(&self, event: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.registry.on_event(event);
    }
}

/// `pfr` sync-layer counters every traced workload has.
pub fn report_sync_counters(report: &mut Report, snap: &RegistrySnapshot, encounters: f64) {
    report.set(
        "pfr.candidates_per_enc",
        snap.counter("sync.candidates") as f64 / encounters,
    );
    report.set(
        "pfr.batch_items_per_enc",
        snap.counter("sync.entries") as f64 / encounters,
    );
    report.set(
        "pfr.knowledge_entries_mean",
        snap.histogram("knowledge.entries")
            .map_or(0.0, |h| h.mean()),
    );
}

/// `traces`: generator rate, spool read rate, spool bytes per encounter.
pub fn traces(ctx: &mut Ctx, config: &DieselNetConfig, spooled: &SpooledTrace) {
    let encounters = spooled.len() as f64;
    let path = ctx.tmp.join("probe.spool");
    let (_, gen_s) = ctx.tracer.span("probe.traces.generate_spooled", |_| {
        harness::best_of(3, || {
            std::hint::black_box(config.generate_spooled(&path).expect("spool the trace"));
        })
    });
    let _ = std::fs::remove_file(&path);
    let (_, read_s) = ctx.tracer.span("probe.traces.spool_iter", |_| {
        harness::best_of(5, || {
            let read = spooled.iter().expect("open the spool").count();
            assert_eq!(read as u64, spooled.len(), "the spool lost encounters");
        })
    });
    let bytes = std::fs::metadata(spooled.path()).map_or(0, |m| m.len());
    ctx.report.set("traces.gen_enc_per_s", encounters / gen_s);
    ctx.report
        .set("traces.spool_read_enc_per_s", encounters / read_s);
    ctx.report
        .set("traces.spool_bytes_per_enc", bytes as f64 / encounters);
}

/// `pfr` snapshot/restore at the sizes the fleet ended with; returns the
/// snapshots. Each node is snapshotted and restored three times and its
/// fastest time kept; the metric is the median node.
pub fn snapshot_restore(ctx: &mut Ctx, nodes: &[DtnNode]) -> Vec<Vec<u8>> {
    let mut scratch = SnapshotScratch::new();
    let mut snapshots = Vec::with_capacity(nodes.len());
    let mut snapshot_us = Vec::with_capacity(nodes.len());
    let mut restore_us = Vec::with_capacity(nodes.len());
    ctx.tracer.span("probe.pfr.snapshot_restore", |_| {
        for node in nodes {
            snapshot_us.push(
                harness::best_of(3, || {
                    std::hint::black_box(node.snapshot_with(&mut scratch));
                }) * 1e6,
            );
            let bytes = node.snapshot_with(&mut scratch).to_vec();
            restore_us.push(
                harness::best_of(3, || {
                    std::hint::black_box(DtnNode::restore(&bytes).expect("restore a snapshot"));
                }) * 1e6,
            );
            snapshots.push(bytes);
        }
    });
    let total: usize = snapshots.iter().map(Vec::len).sum();
    ctx.report
        .set("pfr.snapshot_p50_us", quantile_of(&mut snapshot_us, 0.5));
    ctx.report
        .set("pfr.restore_p50_us", quantile_of(&mut restore_us, 0.5));
    ctx.report.set(
        "pfr.snapshot_bytes_mean",
        total as f64 / snapshots.len().max(1) as f64,
    );
    snapshots
}

/// `dtn`: bare `DtnNode::encounter` between the pairs the trace names, on
/// a restored copy of the fleet's final state, no engine around it.
pub fn encounters(ctx: &mut Ctx, snapshots: &[Vec<u8>], spooled: &SpooledTrace) {
    /// Enough pairs for two hundred samples beyond the 99th percentile.
    const PAIRS: usize = 20_000;
    let mut nodes: Vec<DtnNode> = snapshots
        .iter()
        .map(|bytes| DtnNode::restore(bytes).expect("restore a snapshot"))
        .collect();
    let index: BTreeMap<ReplicaId, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.id(), i)).collect();
    let now = SimTime::from_secs((spooled.days() + 1) * 86_400);
    let mut micros = Vec::with_capacity(PAIRS);
    ctx.tracer.span("probe.dtn.encounter", |_| {
        for enc in spooled.iter().expect("open the spool").take(PAIRS) {
            let (Some(&a), Some(&b)) = (index.get(&enc.a), index.get(&enc.b)) else {
                continue;
            };
            if a == b {
                continue;
            }
            let (lo, hi) = nodes.split_at_mut(a.max(b));
            let (first, second) = (&mut lo[a.min(b)], &mut hi[0]);
            let (seconds, report) =
                harness::time(|| first.encounter(second, now, EncounterBudget::unlimited()));
            assert_eq!(report.duplicates, 0, "an encounter delivered twice");
            micros.push(seconds * 1e6);
        }
    });
    println!("  dtn.encounter: {} samples", micros.len());
    ctx.report
        .set("dtn.encounter_p50_us", quantile_of(&mut micros, 0.5));
    ctx.report
        .set("dtn.encounter_p99_us", quantile_of(&mut micros, 0.99));
}

/// `store::SpillFile`: batched append and batched read of the fleet's
/// snapshots, slots freed between rounds so later rounds reuse them.
pub fn spill_io(ctx: &mut Ctx, snapshots: &[Vec<u8>]) {
    const BATCH: usize = 32;
    const ROUNDS: usize = 5;
    let path = ctx.tmp.join("probe.spill");
    let bytes: usize = snapshots.iter().map(Vec::len).sum();
    let (mut write_s, mut read_s) = (f64::INFINITY, f64::INFINITY);
    ctx.tracer.span("probe.store.spill_io", |_| {
        let mut file = SpillFile::create(&path).expect("create a spill file");
        for _ in 0..ROUNDS {
            let mut slots = Vec::with_capacity(snapshots.len());
            let (w, ()) = harness::time(|| {
                for chunk in snapshots.chunks(BATCH) {
                    let blobs: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
                    slots.extend(file.append_batch(&blobs).expect("append to the spill file"));
                }
            });
            let (r, ()) = harness::time(|| {
                for chunk in slots.chunks(BATCH) {
                    let read = file.read_batch(chunk).expect("read the spill file");
                    assert_eq!(read.len(), chunk.len(), "the spill file lost blobs");
                }
            });
            write_s = write_s.min(w);
            read_s = read_s.min(r);
            for slot in slots {
                file.free(slot);
            }
        }
    });
    ctx.report
        .set("store.spill_write_mb_s", bytes as f64 / 1e6 / write_s);
    ctx.report
        .set("store.spill_read_mb_s", bytes as f64 / 1e6 / read_s);
}

/// `recon`: the three sketches at the set size digest sync builds them
/// for here (`items` keys), a 32-key difference for the IBLT.
pub fn recon(ctx: &mut Ctx, items: usize) {
    const BITS_PER_ITEM: u32 = 10; // pfr::digest's default density
    const DIFF: usize = 32;
    const SEED: u64 = 0x5eed;
    let key = |i: usize| (i as u128) << 64 | 0x9e37_79b9_7f4a_7c15;
    let (_, bloom_s) = ctx.tracer.span("probe.recon.bloom", |_| {
        harness::best_of(20, || {
            let mut bloom = Bloom::for_items(items, BITS_PER_ITEM, SEED);
            for i in 0..items {
                bloom.insert(key(i));
            }
            let hits = (0..items).filter(|&i| bloom.contains(key(i))).count();
            assert_eq!(hits, items, "a Bloom filter forgot a key");
        })
    });
    // One insert and one query per item.
    ctx.report.set(
        "recon.bloom_ns_per_item",
        bloom_s * 1e9 / (2 * items) as f64,
    );

    // What a digest exchange does with an IBLT: the sender sketches its
    // set, the receiver sketches its own under the same geometry,
    // subtracts and peels.
    let (_, iblt_s) = ctx.tracer.span("probe.recon.iblt", |_| {
        harness::best_of(20, || {
            let mut remote = Iblt::for_expected_diff(DIFF, SEED);
            for i in 0..items + DIFF / 2 {
                remote.insert(key(i));
            }
            let mut local = Iblt::with_cells(remote.cells(), remote.seed());
            for i in (0..items).chain(items + DIFF..items + DIFF + DIFF / 2) {
                local.insert(key(i));
            }
            let diff = remote
                .subtract(&local)
                .and_then(Iblt::decode)
                .expect("peel a sketch sized for the difference");
            assert_eq!(diff.len(), DIFF, "the sketch decoded a wrong difference");
        })
    });
    ctx.report.set("recon.iblt_decode_us", iblt_s * 1e6);

    let (_, strata_s) = ctx.tracer.span("probe.recon.strata", |_| {
        harness::best_of(20, || {
            let (mut a, mut b) = (StrataEstimator::new(SEED), StrataEstimator::new(SEED));
            for i in 0..items {
                a.insert(key(i));
                b.insert(key(i + DIFF));
            }
            std::hint::black_box(a.estimate(&b).expect("estimate a difference"));
        })
    });
    ctx.report.set("recon.strata_us", strata_s * 1e6);
}

/// `transport`: frame a payload and parse it back through `FrameAccum`.
pub fn frames(ctx: &mut Ctx) {
    const PAYLOAD: usize = 4096;
    const FRAMES: usize = 1000;
    let payload = vec![0x5au8; PAYLOAD];
    let (_, seconds) = ctx.tracer.span("probe.transport.frames", |_| {
        harness::best_of(5, || {
            let mut wire = Vec::with_capacity(FRAMES * (PAYLOAD + 16));
            for _ in 0..FRAMES {
                write_frame(&mut wire, FrameType::SyncBatch, &payload).expect("frame a payload");
            }
            let mut accum = FrameAccum::new();
            let mut parsed = 0;
            for chunk in wire.chunks(64 * 1024) {
                accum.extend(chunk);
                while let Some((_, body)) = accum.next_frame().expect("parse a frame") {
                    parsed += body.len();
                }
            }
            assert_eq!(parsed, FRAMES * PAYLOAD, "framing lost bytes");
        })
    });
    ctx.report.set(
        "transport.frame_mb_s",
        (FRAMES * PAYLOAD) as f64 / 1e6 / seconds,
    );
}

/// `pfr::wire`: encode a sync batch and decode it through the
/// shared-buffer path the transports use.
pub fn wire(ctx: &mut Ctx, batch: &SyncBatch) {
    let encoded = pfr::wire::to_bytes(batch);
    let backing: Arc<[u8]> = encoded.as_slice().into();
    let megabytes = encoded.len() as f64 / 1e6;
    println!(
        "  pfr.wire: a batch of {} entries, {} bytes",
        batch.entries.len(),
        encoded.len()
    );
    let (_, encode_s) = ctx.tracer.span("probe.pfr.wire_encode", |_| {
        harness::best_of(50, || {
            std::hint::black_box(pfr::wire::to_bytes(batch));
        })
    });
    let (_, decode_s) = ctx.tracer.span("probe.pfr.wire_decode", |_| {
        harness::best_of(50, || {
            let (decoded, _): (SyncBatch, u64) =
                pfr::wire::from_bytes_shared(&backing).expect("decode a batch just encoded");
            assert_eq!(decoded.entries.len(), batch.entries.len());
        })
    });
    ctx.report.set("pfr.wire_encode_mb_s", megabytes / encode_s);
    ctx.report.set("pfr.wire_decode_mb_s", megabytes / decode_s);
}
