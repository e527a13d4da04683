//! Regenerates Figure 9: delay CDF when bandwidth is constrained to one
//! message exchanged per encounter (paper §VI-D).

use dtn::EncounterBudget;
use emu::experiments::{policy_comparison, Scenario};

fn main() {
    let scenario = Scenario::paper();
    let runs = policy_comparison(&scenario, EncounterBudget::max_messages(1), None, None);
    benchkit::print_hourly_cdfs(
        "Figure 9: delay CDF (0-12 hours), 1 message per encounter",
        &runs,
    );
    benchkit::print_summary(&runs);
}
