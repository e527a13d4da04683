//! `city_spill` and `city_digest` — one 340-vehicle, six-day spooled city
//! trace (ten times the paper's topology) replayed by the sharded engine
//! on its cooperative path (`exec_threads: Some(0)`: on two vCPUs it is
//! both faster and far steadier than the two-thread pool), Epidemic with
//! a relay cap of 4.
//!
//! * `city_spill` caps residency at 3/5 of the fleet, `SyncMode::Full`:
//!   `emu::shard` residency, `traces` spool streaming, `store::SpillFile`
//!   and `pfr` snapshot/restore do the work; `recon` is bypassed.
//! * `city_digest` lifts the cap and syncs in `SyncMode::Digest`: `recon`
//!   and `pfr::digest` dominate; spill is bypassed. A digest gain that
//!   costs Full sync, or the reverse, shows between the two.
//!
//! Both must produce the `ExperimentMetrics` of the plain configuration
//! (no cap, Full) on the same input.

use std::path::Path;
use std::sync::Arc;

use dtn::{DtnNode, PolicyKind};
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use pfr::{SimTime, SyncMode};
use traces::{DieselNetConfig, EmailConfig, EmailWorkload};

use crate::harness::{self, Reps, Stopwatch};
use crate::probes::{self, Watch};
use crate::{Ctx, EMAIL_SEED_SALT};

/// The paper's Figure-10-style storage constraint: city buses are
/// storage-constrained relays, and the cap keeps spill snapshots
/// proportional to it.
const RELAY_LIMIT: usize = 4;
const SHARDS: usize = 2;
/// Times of the plain (no cap, Full) configuration, whose metrics are the
/// reference and whose rate is the base of `recon.digest_slowdown_x`.
const REFERENCE_RUNS: usize = 3;

#[derive(Clone, Copy)]
struct Shape {
    scale: usize,
    days: u64,
}

impl Shape {
    fn of(ctx: &Ctx) -> Shape {
        if ctx.smoke {
            Shape { scale: 1, days: 2 }
        } else {
            Shape { scale: 10, days: 6 }
        }
    }

    fn trace(self, seed: u64) -> DieselNetConfig {
        DieselNetConfig {
            days: self.days,
            seed,
            ..DieselNetConfig::city(self.scale)
        }
    }

    fn mail(self, seed: u64) -> EmailWorkload {
        EmailConfig {
            injection_days: self.days,
            seed: seed ^ EMAIL_SEED_SALT,
            ..EmailConfig::city(self.scale)
        }
        .generate()
    }

    /// DieselNet's daily active set is about 2/3 of the fleet, so a cap
    /// of 3/5 manages residency; a much smaller one measures thrash.
    fn resident_limit(self) -> usize {
        34 * self.scale * 3 / 5
    }
}

/// The engine configuration both workloads share; `spill` adds the cap.
fn engine(seed: u64, mode: SyncMode, spill: Option<(&Path, usize)>) -> EmulationConfig {
    EmulationConfig {
        policy: PolicyKind::Epidemic.into(),
        relay_limit: Some(RELAY_LIMIT),
        assignment_seed: seed,
        sync_mode: mode,
        shards: Some(SHARDS),
        exec_threads: Some(0),
        spill_dir: spill.map(|(dir, _)| dir.to_path_buf()),
        resident_limit: spill.map(|(_, limit)| limit),
        ..EmulationConfig::default()
    }
}

/// Runs `city_spill`.
pub fn run_spill(ctx: &mut Ctx) {
    run(ctx, true)
}

/// Runs `city_digest`.
pub fn run_digest(ctx: &mut Ctx) {
    run(ctx, false)
}

fn run(ctx: &mut Ctx, spill: bool) {
    let seed = ctx.seed;
    let shape = Shape::of(ctx);
    let spill_dir = ctx.tmp.fresh_dir("spill");
    let config = |observer: Option<Arc<dyn obs::Observer>>| EmulationConfig {
        observer,
        ..if spill {
            engine(
                seed,
                SyncMode::Full,
                Some((&spill_dir, shape.resident_limit())),
            )
        } else {
            engine(seed, SyncMode::Digest, None)
        }
    };

    // Set-up: generate and spool the trace, generate the mail, build the
    // fleet — everything before the first `run`.
    let spool_path = ctx.tmp.join("city.spool");
    let mut stopwatch = Stopwatch::new();
    let setup_s = stopwatch.setup_seconds(
        ctx.smoke,
        || {
            let spooled = shape
                .trace(seed)
                .generate_spooled(&spool_path)
                .expect("spool the city trace");
            let mail = shape.mail(seed);
            std::hint::black_box(Emulation::from_spooled(&spooled, &mail, config(None)));
        },
        drop,
    );
    let spooled = shape
        .trace(seed)
        .generate_spooled(&spool_path)
        .expect("spool the city trace");
    let mail = shape.mail(seed);
    let encounters = spooled.len();

    let mut first: Option<ExperimentMetrics> = None;
    let mut repeats = true;
    let reps = Reps::collect(ctx.seconds, ctx.min_reps(), |_| {
        let emulation = Emulation::from_spooled(&spooled, &mail, config(None));
        let (sample, metrics) = stopwatch.time(|| emulation.run());
        match &first {
            Some(reference) => repeats &= *reference == metrics,
            None => first = Some(metrics),
        }
        vec![sample]
    });
    ctx.end_to_end(setup_s, encounters, &reps, &stopwatch);
    let measured = first.expect("at least one repetition ran");

    // The plain configuration of the same input: the reference result.
    let plain = || {
        Emulation::from_spooled(&spooled, &mail, engine(seed, SyncMode::Full, None))
            .run_into_parts()
    };
    let (plain_sample, (reference, final_nodes)) = stopwatch.time(plain);
    ctx.report.check(repeats, || {
        "ExperimentMetrics differ between repetitions".into()
    });
    ctx.report.check(measured == reference, || {
        format!(
            "{} changed ExperimentMetrics against the uncapped Full run",
            if spill {
                "the residency cap"
            } else {
                "digest sync"
            }
        )
    });
    ctx.report.check(measured.duplicates == 0, || {
        format!("{} duplicate deliveries", measured.duplicates)
    });
    ctx.report
        .check(measured.delivered() <= measured.injected(), || {
            "more deliveries than injections".into()
        });
    ctx.report.check(measured.encounters == encounters, || {
        format!("{} of {encounters} encounters ran", measured.encounters)
    });
    if !ctx.trace {
        return;
    }

    let horizon = SimTime::from_secs(shape.days * 86_400);
    ctx.report
        .set("delivered_pct", measured.delivery_rate() * 100.0);
    ctx.report.set(
        "mean_delay_h",
        measured
            .mean_delay_with_horizon(horizon)
            .map_or(0.0, |d| d.as_hours_f64()),
    );
    ctx.report
        .set("dtn.epidemic.enc_per_s", encounters as f64 / reps.typical());
    ctx.report.set(
        "dtn.epidemic.tx_per_enc",
        measured.transmissions as f64 / encounters as f64,
    );

    // Traced pass: one more repetition with the registry listening.
    let watch = Arc::new(Watch::default());
    let (allocations, (_, (traced_sample, traced))) = harness::count_allocations(|| {
        ctx.tracer.span("city.traced_rep", |tracer| {
            let (_, emulation) = tracer.span("emu.build", |_| {
                Emulation::from_spooled(
                    &spooled,
                    &mail,
                    config(Some(watch.clone() as Arc<dyn obs::Observer>)),
                )
            });
            let (sample, (_, traced)) =
                stopwatch.time(|| tracer.span("emu.run", |_| emulation.run()));
            (sample, traced)
        })
    });
    ctx.report.check(traced == reference, || {
        "attaching an observer changed ExperimentMetrics".into()
    });
    let per_enc = |n: u64| n as f64 / encounters as f64;
    ctx.report.set(
        "obs.overhead_pct",
        (traced_sample.corrected() / reps.typical() - 1.0) * 100.0,
    );
    ctx.report
        .set("obs.events_per_enc", per_enc(watch.events()));
    ctx.report.set("alloc.per_enc", per_enc(allocations));
    let snap = watch.registry.snapshot();
    probes::report_sync_counters(&mut ctx.report, &snap, encounters as f64);
    ctx.report.set(
        "emu.handoffs_per_enc",
        per_enc(snap.counter("shard.handoffs")),
    );
    let payload_bytes = snap.counter("sync.payload_bytes");

    // Probes of the layers both city workloads lean on.
    probes::traces(ctx, &shape.trace(seed), &spooled);
    let (_, build_s) = ctx.tracer.span("probe.emu.fleet_build", |_| {
        harness::best_of(3, || {
            std::hint::black_box(Emulation::from_spooled(&spooled, &mail, config(None)));
        })
    });
    ctx.report.set("emu.fleet_build_ms", build_s * 1e3);

    if spill {
        let unspills = snap.counter("shard.unspills");
        ctx.report.check(snap.counter("shard.spills") > 0, || {
            "the residency cap never spilled a replica".into()
        });
        ctx.report.set("emu.thrash_ratio", per_enc(unspills));
        ctx.report.set(
            "emu.resident_peak",
            snap.gauge("shard.resident_peak") as f64,
        );
        ctx.report.set(
            "emu.unspill_p99_us",
            snap.histogram("emu.unspill_latency_us")
                .map_or(0.0, |h| h.quantile(0.99) as f64),
        );
        ctx.report.set(
            "store.spill_file_mib",
            snap.gauge("shard.spill_file_bytes") as f64 / (1024.0 * 1024.0),
        );
        ctx.report.set("wire_bytes_per_enc", per_enc(payload_bytes));

        // Engine floor: the sharded loop with nothing to forward.
        let idle_mail = EmailWorkload::from_events(mail.users().to_vec(), Vec::new());
        let idle = EmulationConfig {
            policy: PolicyKind::Direct.into(),
            ..engine(seed, SyncMode::Full, None)
        };
        let (_, idle_s) = ctx.tracer.span("probe.emu.shard_idle", |_| {
            harness::best_of(3, || {
                let emulation = Emulation::from_spooled(&spooled, &idle_mail, idle.clone());
                std::hint::black_box(emulation.run());
            })
        });
        ctx.report
            .set("emu.shard_idle_enc_per_s", encounters as f64 / idle_s);

        // The two-thread pool, unpinned: informational, not gated.
        let pool = EmulationConfig {
            exec_threads: Some(2),
            ..config(None)
        };
        let pin = ctx.pin;
        let (_, (pool_s, pool_metrics)) = ctx.tracer.span("probe.emu.pool2", |_| {
            pin.unpinned(|| {
                let emulation = Emulation::from_spooled(&spooled, &mail, pool);
                harness::time(|| emulation.run())
            })
        });
        ctx.report.check(pool_metrics == reference, || {
            "the two-thread pool changed ExperimentMetrics".into()
        });
        ctx.report
            .set("emu.pool2_enc_per_s", encounters as f64 / pool_s);

        // Node-level probes on a restored copy of the fleet's final state.
        let nodes: Vec<DtnNode> = final_nodes.into_values().collect();
        let snapshots = probes::snapshot_restore(ctx, &nodes);
        probes::encounters(ctx, &snapshots, &spooled);
        probes::spill_io(ctx, &snapshots);
    } else {
        ctx.report
            .check(snap.counter("recon.digest_bytes") > 0, || {
                "digest mode exchanged no digest".into()
            });
        let digest_bytes = snap.counter("recon.digest_bytes");
        let full_bytes = snap.counter("recon.full_bytes");
        ctx.report
            .set("recon.digest_bytes_per_enc", per_enc(digest_bytes));
        ctx.report.set(
            "recon.bytes_saved_ratio",
            snap.counter("recon.bytes_saved") as f64 / (full_bytes as f64).max(1.0),
        );
        ctx.report.set(
            "recon.fallback_per_kenc",
            per_enc(snap.counter("recon.fallback_rounds")) * 1e3,
        );
        ctx.report.set(
            "recon.false_pos_per_kenc",
            per_enc(snap.counter("recon.false_positives")) * 1e3,
        );
        ctx.report
            .set("wire_bytes_per_enc", per_enc(digest_bytes + payload_bytes));

        // Digest ÷ Full time on the same input; the Full time is the
        // median of the reference run and two more, corrected like the
        // repetitions.
        let mut plain_s = vec![plain_sample.corrected()];
        ctx.tracer.span("probe.recon.full_replay", |_| {
            for _ in 1..REFERENCE_RUNS {
                plain_s.push(stopwatch.time(plain).0.corrected());
            }
        });
        ctx.report.set(
            "recon.digest_slowdown_x",
            reps.typical() / harness::quantile_of(&mut plain_s, 0.5),
        );

        // Digest sync sketches a replica's known versions.
        let versions_per_node = final_nodes
            .values()
            .map(|n| n.replica().knowledge().version_count())
            .sum::<u64>()
            / final_nodes.len().max(1) as u64;
        probes::recon(ctx, (versions_per_node as usize).max(64));
    }
}
