//! Compares all five routing policies — the baseline and the four DTN
//! protocols — on one scenario, printing the delay/traffic/storage
//! trade-off the paper's §VI-C quantifies.
//!
//! Run with: `cargo run --release --example policy_comparison`

use replidtn::dtn::EncounterBudget;
use replidtn::emu::experiments::{policy_comparison, Scenario};
use replidtn::emu::report::{fmt_opt, Table};

fn main() {
    let scenario = Scenario::small();
    println!(
        "scenario: {} encounters / {} days / {} messages",
        scenario.trace.len(),
        scenario.trace.days(),
        scenario.workload.len()
    );

    let runs = policy_comparison(&scenario, EncounterBudget::unlimited(), None, None);

    let mut table = Table::new(
        "Policy comparison (unconstrained)",
        vec![
            "policy",
            "mean delay (h)",
            "within 12h (%)",
            "delivered (%)",
            "copies@delivery",
            "copies@end",
            "transfers",
        ],
    );
    for run in &runs {
        table.row(vec![
            run.policy.label().to_string(),
            format!("{:.1}", run.result.mean_delay_hours),
            format!("{:.1}", run.result.delivered_within_12h_pct),
            format!("{:.1}", run.result.delivery_rate_pct),
            fmt_opt(run.copies_at_delivery),
            fmt_opt(run.copies_at_end),
            run.result.metrics.transmissions.to_string(),
        ]);
    }
    println!("{table}");

    // Every policy keeps the substrate's guarantee.
    for run in &runs {
        assert_eq!(run.result.metrics.duplicates, 0);
    }
    println!("at-most-once delivery held for every policy (0 duplicates).");
}
