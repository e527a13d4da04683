//! Supplementary time-series view of the paper's main experiment: per-day
//! injections, deliveries, and network traffic for each policy. Makes the
//! delay/traffic trade-off of §VI-C visible over the 17-day run — traffic
//! for flooding policies persists long after injection stops on day 8,
//! because messages are never deleted and keep being forwarded (the
//! "worst case" Figure 8 measures).

use dtn::{EncounterBudget, PolicyKind};
use emu::experiments::Scenario;
use emu::report::Table;
use emu::{Emulation, EmulationConfig};

fn main() {
    let scenario = Scenario::paper();
    for policy in [
        PolicyKind::Direct,
        PolicyKind::SprayAndWait,
        PolicyKind::MaxProp,
    ] {
        let config = EmulationConfig {
            policy: policy.into(),
            budget: EncounterBudget::unlimited(),
            ..EmulationConfig::default()
        };
        let metrics = Emulation::new(&scenario.trace, &scenario.workload, config).run();

        let mut table = Table::new(
            format!("Per-day activity: {}", policy.label()),
            vec!["day", "encounters", "injections", "deliveries", "transfers"],
        );
        for (day, stats) in metrics.daily_stats() {
            table.row(vec![
                day.to_string(),
                stats.encounters.to_string(),
                stats.injections.to_string(),
                stats.deliveries.to_string(),
                stats.transmissions.to_string(),
            ]);
        }
        println!("{table}");
    }
}
