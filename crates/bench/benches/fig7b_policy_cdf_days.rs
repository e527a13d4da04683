//! Regenerates Figure 7b: the cumulative distribution of message delays
//! beyond 12 hours (days 1-10) for the DTN routing policies, including the
//! worst-case delays the paper highlights (§VI-C).

use emu::experiments::Scenario;

fn main() {
    let scenario = Scenario::paper();
    let runs = benchkit::unconstrained_runs(&scenario, None);
    benchkit::print_fig7b(&runs);
}
