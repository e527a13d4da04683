//! `paper_policies` — the paper's own experiment (§VI): the DieselNet
//! trace × the e-mail workload replayed once per policy of
//! `PolicyKind::EXTENDED` on the serial engine, `SyncMode::Full`,
//! unlimited budget. `dtn` policy code dominates (MaxProp and PROPHET
//! take most of a repetition); `store`, `net` and `recon` do nothing.
//!
//! One repetition is six replays, one timed segment each, so the
//! best-of-K time is the sum of the per-policy minima.

use std::sync::Arc;

use dtn::PolicyKind;
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use pfr::SimTime;
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace};

use crate::harness::{self, Reps, Stopwatch};
use crate::metrics::POLICY_KEYS;
use crate::probes::{self, Watch};
use crate::{Ctx, EMAIL_SEED_SALT};

/// The paper-scale trace and e-mail workload for `seed` (`smoke`: the
/// scaled-down configurations). `mesh_*` replays the same inputs.
pub fn inputs(seed: u64, smoke: bool) -> (EncounterTrace, EmailWorkload) {
    let (trace, mail) = if smoke {
        (DieselNetConfig::small(), EmailConfig::small())
    } else {
        (DieselNetConfig::default(), EmailConfig::default())
    };
    (
        DieselNetConfig { seed, ..trace }.generate(),
        EmailConfig {
            seed: seed ^ EMAIL_SEED_SALT,
            ..mail
        }
        .generate(),
    )
}

fn config(seed: u64, policy: PolicyKind) -> EmulationConfig {
    EmulationConfig {
        assignment_seed: seed,
        ..EmulationConfig::for_policy(policy)
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let (seed, smoke) = (ctx.seed, ctx.smoke);
    // Set-up: both generators and the six fleets, up to the first `run`.
    let mut stopwatch = Stopwatch::new();
    let setup_s = stopwatch.setup_seconds(
        smoke,
        || {
            let (trace, mail) = inputs(seed, smoke);
            for policy in PolicyKind::EXTENDED {
                std::hint::black_box(Emulation::new(&trace, &mail, config(seed, policy)));
            }
        },
        drop,
    );
    let (trace, mail) = inputs(seed, smoke);
    let encounters = trace.len() as u64;
    let horizon = SimTime::from_secs(trace.iter().map(|e| e.time.as_secs()).max().unwrap_or(0));

    let mut results: Vec<ExperimentMetrics> = Vec::new();
    let mut repeats = true;
    let reps = Reps::collect(ctx.seconds, ctx.min_reps(), |rep| {
        PolicyKind::EXTENDED
            .iter()
            .enumerate()
            .map(|(i, &policy)| {
                let emulation = Emulation::new(&trace, &mail, config(seed, policy));
                let (sample, metrics) = stopwatch.time(|| emulation.run());
                if rep == 0 {
                    results.push(metrics);
                } else {
                    repeats &= results[i] == metrics;
                }
                sample
            })
            .collect()
    });
    ctx.end_to_end(setup_s, encounters * 6, &reps, &stopwatch);

    ctx.report.check(repeats, || {
        "ExperimentMetrics differ between repetitions".into()
    });
    for (metrics, key) in results.iter().zip(POLICY_KEYS) {
        ctx.report.check(metrics.duplicates == 0, || {
            format!("{key}: {} duplicate deliveries", metrics.duplicates)
        });
        ctx.report
            .check(metrics.delivered() <= metrics.injected(), || {
                format!("{key}: more deliveries than injections")
            });
        ctx.report.check(metrics.encounters == encounters, || {
            format!(
                "{key}: {} of {encounters} encounters ran",
                metrics.encounters
            )
        });
    }
    if !ctx.trace {
        return;
    }

    let policies = results.len() as f64;
    ctx.report.set(
        "delivered_pct",
        results
            .iter()
            .map(|m| m.delivery_rate() * 100.0)
            .sum::<f64>()
            / policies,
    );
    ctx.report.set(
        "mean_delay_h",
        results
            .iter()
            .filter_map(|m| m.mean_delay_with_horizon(horizon))
            .map(|d| d.as_hours_f64())
            .sum::<f64>()
            / policies,
    );
    for ((key, typical), metrics) in POLICY_KEYS.iter().zip(reps.segment_typical()).zip(&results) {
        ctx.report
            .set(&format!("dtn.{key}.enc_per_s"), encounters as f64 / typical);
        ctx.report.set(
            &format!("dtn.{key}.tx_per_enc"),
            metrics.transmissions as f64 / encounters as f64,
        );
    }

    // Traced pass: the same six replays with the registry listening.
    let watch = Arc::new(Watch::default());
    let mut traced_same = true;
    let mut traced_s = 0.0;
    let (allocations, _) = harness::count_allocations(|| {
        ctx.tracer.span("paper_policies.traced_rep", |tracer| {
            for (i, &policy) in PolicyKind::EXTENDED.iter().enumerate() {
                let cfg = EmulationConfig {
                    observer: Some(watch.clone() as Arc<dyn obs::Observer>),
                    ..config(seed, policy)
                };
                let (_, emulation) =
                    tracer.span("emu.build", |_| Emulation::new(&trace, &mail, cfg));
                let (sample, (_, metrics)) =
                    stopwatch.time(|| tracer.span("emu.run", |_| emulation.run()));
                traced_s += sample.corrected();
                traced_same &= metrics == results[i];
            }
        })
    });
    ctx.report.check(traced_same, || {
        "attaching an observer changed ExperimentMetrics".into()
    });
    let total_encounters = (encounters * 6) as f64;
    ctx.report.set(
        "obs.overhead_pct",
        (traced_s / reps.typical() - 1.0) * 100.0,
    );
    ctx.report.set(
        "obs.events_per_enc",
        watch.events() as f64 / total_encounters,
    );
    ctx.report
        .set("alloc.per_enc", allocations as f64 / total_encounters);
    let snap = watch.registry.snapshot();
    probes::report_sync_counters(&mut ctx.report, &snap, total_encounters);
    ctx.report.set(
        "wire_bytes_per_enc",
        snap.counter("sync.payload_bytes") as f64 / total_encounters,
    );

    // Engine floor: the serial loop with nothing to forward.
    let idle_mail = EmailWorkload::from_events(mail.users().to_vec(), Vec::new());
    let (_, idle_s) = ctx.tracer.span("probe.emu.serial_idle", |_| {
        harness::best_of(5, || {
            let emulation = Emulation::new(&trace, &idle_mail, config(seed, PolicyKind::Direct));
            std::hint::black_box(emulation.run());
        })
    });
    ctx.report
        .set("emu.serial_idle_enc_per_s", encounters as f64 / idle_s);
    let (_, build_s) = ctx.tracer.span("probe.emu.fleet_build", |_| {
        harness::best_of(5, || {
            std::hint::black_box(Emulation::new(
                &trace,
                &mail,
                config(seed, PolicyKind::Epidemic),
            ));
        })
    });
    ctx.report.set("emu.fleet_build_ms", build_s * 1e3);
}
