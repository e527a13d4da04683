//! Regenerates Figure 5: average message delay in the simple DTN
//! application as hosts add extra addresses (random vs selected) to their
//! filters (paper §VI-B).

use emu::experiments::Scenario;

fn main() {
    let scenario = Scenario::paper();
    benchkit::print_fig5(&scenario, None);
}
