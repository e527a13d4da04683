//! Ablation studies beyond the paper's figures: sweeps over the design
//! parameters DESIGN.md calls out — epidemic TTL, spray copy budget,
//! PROPHET predictability floor, MaxProp acknowledgements, and the
//! severity of the bandwidth/storage constraints.

use dtn::{
    EncounterBudget, EpidemicPolicy, MaxPropPolicy, PolicyKind, ProphetParams, ProphetPolicy,
    SprayAndWaitPolicy,
};
use emu::experiments::Scenario;
use emu::report::Table;
use emu::{Emulation, EmulationConfig, PolicySpec, SweepRunner};
use pfr::SimDuration;

struct Row {
    label: String,
    within_12h_pct: f64,
    delivery_pct: f64,
    transmissions: u64,
    copies_at_end: f64,
}

fn run(
    scenario: &Scenario,
    spec: PolicySpec,
    budget: EncounterBudget,
    relay: Option<usize>,
) -> Row {
    let label = spec.label();
    let config = EmulationConfig {
        policy: spec,
        budget,
        relay_limit: relay,
        ..EmulationConfig::default()
    };
    let metrics = Emulation::new(&scenario.trace, &scenario.workload, config).run();
    Row {
        label,
        within_12h_pct: metrics.delivered_within(SimDuration::from_hours(12)) * 100.0,
        delivery_pct: metrics.delivery_rate() * 100.0,
        transmissions: metrics.transmissions,
        copies_at_end: metrics.mean_copies_at_end().unwrap_or(0.0),
    }
}

fn print_rows(title: &str, rows: &[Row]) {
    let mut table = Table::new(
        title,
        vec![
            "variant",
            "within 12h (%)",
            "delivered (%)",
            "transfers",
            "copies@end",
        ],
    );
    for row in rows {
        table.row(vec![
            row.label.clone(),
            format!("{:.1}", row.within_12h_pct),
            format!("{:.1}", row.delivery_pct),
            row.transmissions.to_string(),
            format!("{:.1}", row.copies_at_end),
        ]);
    }
    println!("{table}");
}

fn main() {
    let scenario = Scenario::paper();
    let runner = SweepRunner::new();

    // 1. Epidemic TTL: how much hop budget does flooding actually need?
    let rows: Vec<Row> = runner.run(vec![1u32, 2, 4, 10, 32], |ttl| {
        run(
            &scenario,
            PolicySpec::custom(format!("epidemic ttl={ttl}"), move || {
                Box::new(EpidemicPolicy::new(ttl))
            }),
            EncounterBudget::unlimited(),
            None,
        )
    });
    print_rows("Ablation: epidemic TTL (Table II default: 10)", &rows);

    // 2. Spray and Wait copy budget: delivery vs storage.
    let rows: Vec<Row> = runner.run(vec![2u32, 4, 8, 16, 32], |copies| {
        run(
            &scenario,
            PolicySpec::custom(format!("spray copies={copies}"), move || {
                Box::new(SprayAndWaitPolicy::new(copies))
            }),
            EncounterBudget::unlimited(),
            None,
        )
    });
    print_rows("Ablation: spray copy budget (Table II default: 8)", &rows);

    // 3. PROPHET floor: why gradient forwarding needs pruning.
    let rows: Vec<Row> = runner.run(vec![0.0f64, 0.1, 0.3, 0.5], |floor| {
        run(
            &scenario,
            PolicySpec::custom(format!("prophet floor={floor}"), move || {
                Box::new(ProphetPolicy::new(ProphetParams {
                    floor,
                    ..ProphetParams::default()
                }))
            }),
            EncounterBudget::unlimited(),
            None,
        )
    });
    print_rows(
        "Ablation: PROPHET predictability floor (0 = pure protocol, floods)",
        &rows,
    );

    // 4. MaxProp acknowledgements: delivery unchanged, storage slashed.
    let rows: Vec<Row> = runner.run(vec![true, false], |acks| {
        run(
            &scenario,
            PolicySpec::custom(
                format!("maxprop acks={}", if acks { "on" } else { "off" }),
                move || Box::new(MaxPropPolicy::default().with_acks(acks)),
            ),
            EncounterBudget::unlimited(),
            None,
        )
    });
    print_rows("Ablation: MaxProp delivery acknowledgements", &rows);

    // 5. Constraint severity around the paper's extreme settings.
    let mut rows = runner.run(vec![1usize, 2, 4, 8], |budget| {
        let mut row = run(
            &scenario,
            PolicySpec::Kind(PolicyKind::MaxProp),
            EncounterBudget::max_messages(budget),
            None,
        );
        row.label = format!("maxprop bw={budget}/encounter");
        row
    });
    rows.extend(runner.run(vec![1usize, 2, 4, 8], |relay| {
        let mut row = run(
            &scenario,
            PolicySpec::Kind(PolicyKind::MaxProp),
            EncounterBudget::unlimited(),
            Some(relay),
        );
        row.label = format!("maxprop storage={relay} msgs");
        row
    }));
    print_rows(
        "Ablation: constraint severity (paper uses bw=1, storage=2)",
        &rows,
    );

    // 6. Crash resilience: reboots lose in-memory routing state but never
    //    the durable replica, so correctness holds and only routing
    //    efficiency degrades.
    let mut rows = Vec::new();
    for crash_rate in [0.0f64, 0.05, 0.2, 0.5] {
        for policy in [PolicyKind::Prophet, PolicyKind::MaxProp] {
            let config = EmulationConfig {
                policy: policy.into(),
                crash_rate,
                ..EmulationConfig::default()
            };
            let metrics = Emulation::new(&scenario.trace, &scenario.workload, config).run();
            assert_eq!(metrics.duplicates, 0, "at-most-once must survive crashes");
            rows.push(Row {
                label: format!("{} crash={crash_rate}", policy.label()),
                within_12h_pct: metrics.delivered_within(SimDuration::from_hours(12)) * 100.0,
                delivery_pct: metrics.delivery_rate() * 100.0,
                transmissions: metrics.transmissions,
                copies_at_end: metrics.mean_copies_at_end().unwrap_or(0.0),
            });
        }
    }
    print_rows(
        "Ablation: crash injection (reboots lose routing state, never messages)",
        &rows,
    );
}
