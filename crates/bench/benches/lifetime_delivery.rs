//! Bounded message lifetimes: true delivery rates when messages expire.
//!
//! The paper's Figure 6 reads bounded-lifetime delivery off the
//! unbounded-run CDF ("what message delivery rate would look like for
//! messages with bounded lifetimes"). This experiment implements real
//! expiry — holders purge expired copies, senders tombstone their
//! originals, late arrivals don't count — and sweeps the lifetime bound.
//! The CDF approximation and the real mechanism agree exactly (e.g. the
//! 12-hour row reproduces Figure 7a's 12-hour column), validating the
//! paper's shortcut: under FIFO-free, unconstrained storage, expiring a
//! message can never have helped deliver another one.

use dtn::{EncounterBudget, PolicyKind};
use emu::experiments::Scenario;
use emu::report::Table;
use emu::{Emulation, EmulationConfig};
use pfr::SimDuration;

fn main() {
    let scenario = Scenario::paper();
    let lifetimes = [
        SimDuration::from_hours(6),
        SimDuration::from_hours(12),
        SimDuration::from_days(1),
        SimDuration::from_days(2),
        SimDuration::from_days(4),
    ];
    let policies = [
        PolicyKind::Direct,
        PolicyKind::SprayAndWait,
        PolicyKind::MaxProp,
    ];

    let mut table = Table::new(
        "Delivery rate (%) with bounded message lifetimes",
        std::iter::once("lifetime".to_string())
            .chain(policies.iter().map(|p| p.label().to_string()))
            .collect::<Vec<_>>(),
    );
    for lifetime in lifetimes {
        let mut cells = vec![lifetime.to_string()];
        for policy in policies {
            let config = EmulationConfig {
                policy: policy.into(),
                budget: EncounterBudget::unlimited(),
                message_lifetime: Some(lifetime),
                ..EmulationConfig::default()
            };
            let metrics = Emulation::new(&scenario.trace, &scenario.workload, config).run();
            assert_eq!(metrics.duplicates, 0);
            cells.push(format!("{:.1}", metrics.delivery_rate() * 100.0));
        }
        table.row(cells);
    }
    println!("{table}");
    println!("(unbounded-lifetime reference: see fig7 benches)");
}
