//! # benchkit — shared plumbing for the experiment benches
//!
//! Each bench target under `benches/` regenerates one table or figure of
//! the paper at paper scale ([`Scenario::paper`]), as `replidtn fig` does.
//! The heavy lifting lives in [`emu::experiments`]; this crate provides
//! the printing helpers so each bench is a thin `main`. Every runner here
//! takes an optional observer that receives each run's event stream.
//!
//! [`Scenario::paper`]: emu::experiments::Scenario::paper

use std::sync::Arc;

use dtn::EncounterBudget;
use emu::experiments::{self, PolicyRun, RunResult, Scenario};
use emu::report::{fmt_opt, render_cdf, Table};
use obs::Observer;

/// The figure-5/6 sweep of extra filter addresses.
pub const FILTER_KS: [usize; 5] = [1, 2, 4, 8, 16];

/// Prints the figure-5 table: average message delay per filter strategy.
pub fn print_fig5(scenario: &Scenario, observer: Option<Arc<dyn Observer>>) {
    print_filter_sweep(
        "Figure 5: average message delay (hours) vs addresses in filter",
        scenario,
        observer,
        |run| run.mean_delay_hours,
    );
}

/// Prints the figure-6 table: % delivered within 12 hours per strategy.
pub fn print_fig6(scenario: &Scenario, observer: Option<Arc<dyn Observer>>) {
    print_filter_sweep(
        "Figure 6: % messages delivered within 12 hours vs addresses in filter",
        scenario,
        observer,
        |run| run.delivered_within_12h_pct,
    );
}

/// Runs the filter sweep and prints `cell` of each run, one row per
/// address count and one column per strategy.
fn print_filter_sweep(
    title: &str,
    scenario: &Scenario,
    observer: Option<Arc<dyn Observer>>,
    cell: fn(&RunResult) -> f64,
) {
    let series = experiments::filter_sweep(scenario, &FILTER_KS, observer);
    let mut table = Table::new(title, vec!["addresses", "random", "selected"]);
    for (random, selected) in series[0].1.iter().zip(&series[1].1) {
        table.row(vec![
            random.label.clone(),
            format!("{:.1}", cell(random)),
            format!("{:.1}", cell(selected)),
        ]);
    }
    println!("{table}");
}

/// Runs the unconstrained policy comparison shared by figures 7a/7b/8.
pub fn unconstrained_runs(
    scenario: &Scenario,
    observer: Option<Arc<dyn Observer>>,
) -> Vec<PolicyRun> {
    experiments::policy_comparison(scenario, EncounterBudget::unlimited(), None, observer)
}

/// Prints an hourly CDF (figures 7a, 9, 10) for a set of runs.
pub fn print_hourly_cdfs(title: &str, runs: &[PolicyRun]) {
    println!("== {title} ==");
    let mut table = Table::new(
        "% messages delivered within N hours",
        std::iter::once("policy".to_string())
            .chain((1..=12).map(|h| format!("{h}h")))
            .collect::<Vec<String>>(),
    );
    for run in runs {
        let mut cells = vec![run.policy.label().to_string()];
        cells.extend(
            run.cdf_hours
                .iter()
                .map(|p| format!("{:.1}", p.delivered_pct)),
        );
        table.row(cells);
    }
    println!("{table}");
    for run in runs {
        println!("{}", render_cdf(run.policy.label(), &run.cdf_hours));
    }
}

/// Prints the daily CDF of figure 7b plus worst-case delays.
pub fn print_fig7b(runs: &[PolicyRun]) {
    let mut table = Table::new(
        "Figure 7b: % messages delivered within N days",
        std::iter::once("policy".to_string())
            .chain((1..=10).map(|d| format!("{d}d")))
            .chain(std::iter::once("worst".to_string()))
            .collect::<Vec<String>>(),
    );
    for run in runs {
        let mut cells = vec![run.policy.label().to_string()];
        cells.extend(
            run.cdf_days
                .iter()
                .map(|p| format!("{:.1}", p.delivered_pct)),
        );
        cells.push(
            run.max_delay_days
                .map(|d| format!("{d:.1}d"))
                .unwrap_or_else(|| "-".to_string()),
        );
        table.row(cells);
    }
    println!("{table}");
}

/// Prints the figure-8 table: average stored copies per message.
pub fn print_fig8(runs: &[PolicyRun]) {
    let mut table = Table::new(
        "Figure 8: avg copies of messages stored in the network",
        vec!["policy", "at delivery", "at end of experiment"],
    );
    for run in runs {
        table.row(vec![
            run.policy.label().to_string(),
            fmt_opt(run.copies_at_delivery),
            fmt_opt(run.copies_at_end),
        ]);
    }
    println!("{table}");
}

/// Prints a traffic/delivery summary used alongside several figures.
pub fn print_summary(runs: &[PolicyRun]) {
    let mut table = Table::new(
        "Run summary",
        vec![
            "policy",
            "mean delay (h)",
            "within 12h (%)",
            "delivered (%)",
            "transmissions",
            "duplicates",
        ],
    );
    for run in runs {
        table.row(vec![
            run.policy.label().to_string(),
            format!("{:.1}", run.result.mean_delay_hours),
            format!("{:.1}", run.result.delivered_within_12h_pct),
            format!("{:.1}", run.result.delivery_rate_pct),
            run.result.metrics.transmissions.to_string(),
            run.result.metrics.duplicates.to_string(),
        ]);
    }
    println!("{table}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_pipeline_smoke() {
        let scenario = Scenario::small();
        let runs = unconstrained_runs(&scenario, None);
        assert_eq!(runs.len(), 5);
        print_hourly_cdfs("smoke", &runs);
        print_fig7b(&runs);
        print_fig8(&runs);
        print_summary(&runs);
    }
}
