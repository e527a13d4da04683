//! Regenerates Figure 7a: the cumulative distribution of message delays
//! (first 12 hours) for the DTN routing policies, unconstrained (§VI-C).

use emu::experiments::Scenario;

fn main() {
    let scenario = Scenario::paper();
    let runs = benchkit::unconstrained_runs(&scenario, None);
    benchkit::print_hourly_cdfs("Figure 7a: delay CDF (0-12 hours), unconstrained", &runs);
    benchkit::print_summary(&runs);
}
