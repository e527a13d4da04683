//! Canned experiment runners: one per figure of the paper's evaluation.
//!
//! Each runner builds the paper's scenario (vehicular trace + e-mail
//! workload), sweeps the figure's parameter, and returns typed results the
//! benchmark harness renders as the figure's rows/series. See
//! `EXPERIMENTS.md` at the repository root for paper-vs-measured notes.

use std::sync::Arc;

use dtn::{EncounterBudget, FilterStrategy, PolicyKind};
use obs::Observer;
use pfr::{SimDuration, SimTime};
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace};

use crate::engine::{Emulation, EmulationConfig};
use crate::metrics::{CdfPoint, ExperimentMetrics};
use crate::sweep::SweepRunner;

/// The shared input of every experiment: one mobility trace plus one
/// message workload.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Vehicular encounter schedule.
    pub trace: EncounterTrace,
    /// E-mail injection schedule.
    pub workload: EmailWorkload,
}

impl Scenario {
    /// The paper-scale scenario: 17 days of DieselNet-like encounters and
    /// the 490-message Enron-like workload.
    pub fn paper() -> Self {
        Scenario {
            trace: DieselNetConfig::default().generate(),
            workload: EmailConfig::default().generate(),
        }
    }

    /// A scaled-down scenario for tests and quick examples.
    pub fn small() -> Self {
        Scenario {
            trace: DieselNetConfig::small().generate(),
            workload: EmailConfig::small().generate(),
        }
    }

    /// The experiment horizon: midnight after the last trace day, used for
    /// the "mean delay of all messages" metric.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_hms(self.trace.days(), 0, 0, 0)
    }
}

/// One run's headline numbers plus the full metrics.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// What produced this row (policy or filter-strategy label).
    pub label: String,
    /// Collected metrics.
    pub metrics: ExperimentMetrics,
    /// Mean delay counting undelivered messages at the horizon, in hours.
    pub mean_delay_hours: f64,
    /// Fraction of messages delivered within 12 hours, in percent.
    pub delivered_within_12h_pct: f64,
    /// Overall delivery rate in percent.
    pub delivery_rate_pct: f64,
}

fn run_result(label: String, scenario: &Scenario, metrics: ExperimentMetrics) -> RunResult {
    let mean = metrics
        .mean_delay_with_horizon(scenario.horizon())
        .map(|d| d.as_hours_f64())
        .unwrap_or(0.0);
    RunResult {
        label,
        mean_delay_hours: mean,
        delivered_within_12h_pct: metrics.delivered_within(SimDuration::from_hours(12)) * 100.0,
        delivery_rate_pct: metrics.delivery_rate() * 100.0,
        metrics,
    }
}

/// Figures 5 and 6: the multi-address filter sweep. For each strategy
/// (random, selected) and each `k`, runs the baseline replication system
/// with filters widened by `k` extra host addresses.
///
/// Returns one series per strategy; each series starts with the shared
/// `Self` (k = 0) point. `observer`, if any, receives every run's event
/// stream.
pub fn filter_sweep(
    scenario: &Scenario,
    ks: &[usize],
    observer: Option<Arc<dyn Observer>>,
) -> Vec<(String, Vec<RunResult>)> {
    let runner = SweepRunner::new().with_observer(observer.clone());
    let base_cfg = EmulationConfig {
        observer,
        ..EmulationConfig::default()
    };
    let self_only = run_result(
        "Self".to_string(),
        scenario,
        Emulation::new(&scenario.trace, &scenario.workload, base_cfg.clone()).run(),
    );

    // The per-k runs are independent: fan them out across the sweep pool.
    let run_one = |strategy: FilterStrategy, k: usize| -> RunResult {
        let config = EmulationConfig {
            filter_strategy: strategy,
            ..base_cfg.clone()
        };
        let metrics = Emulation::new(&scenario.trace, &scenario.workload, config).run();
        run_result(format!("+{k}"), scenario, metrics)
    };
    let jobs: Vec<(FilterStrategy, usize)> = ks
        .iter()
        .map(|&k| (FilterStrategy::Random(k), k))
        .chain(ks.iter().map(|&k| (FilterStrategy::Selected(k), k)))
        .collect();
    let mut rows = runner.run(jobs, |(strategy, k)| run_one(strategy, k));
    let selected_rows = rows.split_off(ks.len());
    let random_rows = rows;

    let mut series = Vec::new();
    for (name, rows) in [("random", random_rows), ("selected", selected_rows)] {
        let mut all = vec![self_only.clone()];
        all.extend(rows);
        series.push((name.to_string(), all));
    }
    series
}

/// A policy-comparison run (Figures 7–10 share this shape).
#[derive(Clone, Debug)]
pub struct PolicyRun {
    /// Which policy.
    pub policy: PolicyKind,
    /// Headline numbers.
    pub result: RunResult,
    /// Hourly delay CDF for the first 12 hours (Figure 7a / 9 / 10).
    pub cdf_hours: Vec<CdfPoint>,
    /// Daily delay CDF for days 1..=10 (Figure 7b).
    pub cdf_days: Vec<CdfPoint>,
    /// Worst-case delivery delay in days (delivered messages only).
    pub max_delay_days: Option<f64>,
    /// Mean copies stored per message at delivery time (Figure 8).
    pub copies_at_delivery: Option<f64>,
    /// Mean copies stored per message at the end of the run (Figure 8).
    pub copies_at_end: Option<f64>,
}

/// Runs one policy over the scenario under the given constraints;
/// `observer`, if any, receives the run's event stream.
pub fn run_policy(
    scenario: &Scenario,
    policy: PolicyKind,
    budget: EncounterBudget,
    relay_limit: Option<usize>,
    observer: Option<Arc<dyn Observer>>,
) -> PolicyRun {
    let config = EmulationConfig {
        policy: policy.into(),
        budget,
        relay_limit,
        observer,
        ..EmulationConfig::default()
    };
    let metrics = Emulation::new(&scenario.trace, &scenario.workload, config).run();
    let cdf_hours = metrics.delay_cdf(SimDuration::from_hours(1), SimDuration::from_hours(12));
    let cdf_days = metrics.delay_cdf(SimDuration::from_days(1), SimDuration::from_days(10));
    let max_delay_days = metrics.max_delay().map(|d| d.as_days_f64());
    let copies_at_delivery = metrics.mean_copies_at_delivery();
    let copies_at_end = metrics.mean_copies_at_end();
    PolicyRun {
        policy,
        result: run_result(policy.label().to_string(), scenario, metrics),
        cdf_hours,
        cdf_days,
        max_delay_days,
        copies_at_delivery,
        copies_at_end,
    }
}

/// Figures 7a/7b (unconstrained), 9 (bandwidth-constrained), and 10
/// (storage-constrained): all five policies under the given constraints.
/// `observer`, if any, receives every run's event stream (all five
/// policies report into it, from separate threads).
pub fn policy_comparison(
    scenario: &Scenario,
    budget: EncounterBudget,
    relay_limit: Option<usize>,
    observer: Option<Arc<dyn Observer>>,
) -> Vec<PolicyRun> {
    // Five independent runs, fanned out over the sweep pool.
    SweepRunner::new()
        .with_observer(observer.clone())
        .run(PolicyKind::ALL.to_vec(), |p| {
            run_policy(scenario, p, budget, relay_limit, observer.clone())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_sweep_shapes_match_figures_five_and_six() {
        let scenario = Scenario::small();
        let series = filter_sweep(&scenario, &[2, 8], None);
        assert_eq!(series.len(), 2);
        for (name, rows) in &series {
            assert_eq!(rows.len(), 3, "{name}: Self + two k values");
            assert_eq!(rows[0].label, "Self");
            // More addresses => no worse mean delay (fig 5's shape).
            assert!(
                rows[2].mean_delay_hours <= rows[0].mean_delay_hours + 1e-9,
                "{name}: k=8 ({}) should not be slower than Self ({})",
                rows[2].mean_delay_hours,
                rows[0].mean_delay_hours
            );
            // And no worse 12h delivery (fig 6's shape).
            assert!(rows[2].delivered_within_12h_pct >= rows[0].delivered_within_12h_pct - 1e-9);
        }
    }

    #[test]
    fn selected_no_worse_than_random_at_paper_scale_k1() {
        // The full assertion (selected < random) is validated at paper
        // scale by the fig5 bench; at test scale we check both beat Self.
        let scenario = Scenario::small();
        let series = filter_sweep(&scenario, &[4], None);
        let random = &series[0].1[1];
        let selected = &series[1].1[1];
        let baseline = &series[0].1[0];
        assert!(random.mean_delay_hours <= baseline.mean_delay_hours + 1e-9);
        assert!(selected.mean_delay_hours <= baseline.mean_delay_hours + 1e-9);
    }

    #[test]
    fn policy_comparison_covers_all_policies() {
        let scenario = Scenario::small();
        let runs = policy_comparison(&scenario, EncounterBudget::unlimited(), None, None);
        assert_eq!(runs.len(), 5);
        let labels: Vec<&str> = runs.iter().map(|r| r.policy.label()).collect();
        assert!(labels.contains(&"cimbiosys") && labels.contains(&"maxprop"));
        for run in &runs {
            assert_eq!(run.cdf_hours.len(), 12);
            assert_eq!(run.cdf_days.len(), 10);
            assert_eq!(run.result.metrics.duplicates, 0);
        }
        // Flooding delivers at least as much as the baseline (fig 7 shape).
        let base = runs
            .iter()
            .find(|r| r.policy == PolicyKind::Direct)
            .unwrap();
        let epidemic = runs
            .iter()
            .find(|r| r.policy == PolicyKind::Epidemic)
            .unwrap();
        assert!(epidemic.result.delivery_rate_pct >= base.result.delivery_rate_pct - 1e-9);
    }

    #[test]
    fn storage_accounting_shapes_match_figure_eight() {
        let scenario = Scenario::small();
        let base = run_policy(
            &scenario,
            PolicyKind::Direct,
            EncounterBudget::unlimited(),
            None,
            None,
        );
        let epidemic = run_policy(
            &scenario,
            PolicyKind::Epidemic,
            EncounterBudget::unlimited(),
            None,
            None,
        );
        // Baseline stores ~2 copies (sender + receiver).
        if let Some(c) = base.copies_at_end {
            assert!(c <= 2.5, "baseline copies_at_end {c} should stay near 2");
        }
        let (Some(b), Some(e)) = (base.copies_at_end, epidemic.copies_at_end) else {
            panic!("copy accounting missing");
        };
        assert!(e > b, "flooding stores more copies: {e} vs {b}");
    }

    #[test]
    fn constraints_do_not_break_invariants() {
        let scenario = Scenario::small();
        for (budget, relay) in [
            (EncounterBudget::max_messages(1), None),
            (EncounterBudget::unlimited(), Some(2)),
        ] {
            let run = run_policy(&scenario, PolicyKind::MaxProp, budget, relay, None);
            assert_eq!(run.result.metrics.duplicates, 0);
            assert!(run.result.delivery_rate_pct <= 100.0);
        }
    }

    #[test]
    fn horizon_is_after_last_day() {
        let scenario = Scenario::small();
        assert_eq!(scenario.horizon().day(), scenario.trace.days());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Fanning emulation runs across the sweep pool must return
        /// metrics identical to running them serially, whatever the seeds:
        /// per-run determinism may not leak scheduling order.
        #[test]
        fn parallel_sweep_metrics_identical_to_serial(
            assignment_seed in proptest::prelude::any::<u64>(),
            fault_seed in proptest::prelude::any::<u64>(),
        ) {
            let scenario = Scenario::small();
            let jobs = || {
                [PolicyKind::Direct, PolicyKind::Epidemic, PolicyKind::Prophet]
                    .map(|p| EmulationConfig {
                        policy: p.into(),
                        assignment_seed,
                        fault_seed,
                        encounter_drop_rate: 0.1,
                        ..EmulationConfig::default()
                    })
                    .to_vec()
            };
            let run_one = |config: EmulationConfig| {
                Emulation::new(&scenario.trace, &scenario.workload, config).run()
            };
            let serial = SweepRunner::serial().run(jobs(), run_one);
            let parallel = SweepRunner::new().with_workers(3).run(jobs(), run_one);
            proptest::prop_assert_eq!(serial, parallel);
        }
    }
}
