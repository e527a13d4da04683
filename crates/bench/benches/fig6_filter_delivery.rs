//! Regenerates Figure 6: percentage of messages delivered within 12 hours
//! as hosts add extra addresses (random vs selected) to their filters
//! (paper §VI-B).

use emu::experiments::Scenario;

fn main() {
    let scenario = Scenario::paper();
    benchkit::print_fig6(&scenario, None);
}
