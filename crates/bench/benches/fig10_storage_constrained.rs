//! Regenerates Figure 10: delay CDF when each node may store at most two
//! relay messages (FIFO eviction), excluding messages for which the node
//! is the sender or the destination (paper §VI-D).

use dtn::EncounterBudget;
use emu::experiments::{policy_comparison, Scenario};

fn main() {
    let scenario = Scenario::paper();
    let runs = policy_comparison(&scenario, EncounterBudget::unlimited(), Some(2), None);
    benchkit::print_hourly_cdfs(
        "Figure 10: delay CDF (0-12 hours), max 2 relay messages per node",
        &runs,
    );
    benchkit::print_summary(&runs);
}
