//! Regenerates Figure 8: message copies stored in the network at delivery
//! time and at the end of the experiment, per policy (§VI-C).

use emu::experiments::Scenario;

fn main() {
    let scenario = Scenario::paper();
    let runs = benchkit::unconstrained_runs(&scenario, None);
    benchkit::print_fig8(&runs);
}
