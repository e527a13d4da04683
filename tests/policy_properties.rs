//! Property tests over random encounter schedules: the routing policies
//! may differ in *what* they forward, but none may violate the
//! substrate's guarantees or their own protocol invariants.

use proptest::prelude::*;

use replidtn::dtn::{DtnNode, EncounterBudget, PolicyKind, ATTR_COPIES, ATTR_TTL};
use replidtn::pfr::{ReplicaId, SimTime, Value};

#[derive(Debug, Clone)]
struct Schedule {
    hosts: usize,
    messages: Vec<(usize, usize)>,
    encounters: Vec<(usize, usize)>,
}

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (3usize..7).prop_flat_map(|hosts| {
        (
            Just(hosts),
            proptest::collection::vec((0..hosts, 0..hosts), 1..8),
            proptest::collection::vec((0..hosts, 0..hosts), 1..40),
        )
            .prop_map(|(hosts, messages, encounters)| Schedule {
                hosts,
                messages,
                encounters,
            })
    })
}

fn build_nodes(n: usize, policy: PolicyKind) -> Vec<DtnNode> {
    (0..n)
        .map(|i| DtnNode::new(ReplicaId::new(i as u64 + 1), &format!("h{i}"), policy))
        .collect()
}

fn run_schedule(nodes: &mut [DtnNode], schedule: &Schedule, budget: EncounterBudget) -> usize {
    run_schedule_checking(nodes, schedule, budget, |_| {})
}

/// [`run_schedule`] with `check` run on the whole fleet after every
/// encounter, for invariants that must hold at each step and not only at
/// the end.
fn run_schedule_checking(
    nodes: &mut [DtnNode],
    schedule: &Schedule,
    budget: EncounterBudget,
    mut check: impl FnMut(&[DtnNode]),
) -> usize {
    let mut duplicates = 0;
    for (step, &(a, b)) in schedule.encounters.iter().enumerate() {
        if a == b {
            continue;
        }
        let (x, y) = if a < b { (a, b) } else { (b, a) };
        let (left, right) = nodes.split_at_mut(y);
        let report = left[x].encounter(
            &mut right[0],
            SimTime::from_secs(60 * (step as u64 + 1)),
            budget,
        );
        duplicates += report.duplicates;
        check(nodes);
    }
    duplicates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No policy, under any schedule, ever double-delivers a version.
    #[test]
    fn no_policy_ever_duplicates(schedule in arb_schedule()) {
        for policy in PolicyKind::ALL {
            let mut nodes = build_nodes(schedule.hosts, policy);
            for &(from, to) in &schedule.messages {
                nodes[from]
                    .send(&format!("h{to}"), vec![1], SimTime::ZERO)
                    .expect("send");
            }
            let dups = run_schedule(&mut nodes, &schedule, EncounterBudget::unlimited());
            prop_assert_eq!(dups, 0, "policy {} duplicated", policy);
            for node in &nodes {
                prop_assert_eq!(node.replica().stats().duplicates_rejected, 0);
            }
        }
    }

    /// Spray and Wait conserves its copy budget at every step of any
    /// schedule: until a message is delivered, the logical copies held
    /// across the fleet (an unstamped copy still holds the full budget)
    /// never exceed the initial 8 of Table II — a spray splits a budget,
    /// it never mints one. Delivery is not a spray: the destination's
    /// copy arrives through the filter match carrying the deliverer's
    /// budget un-halved, so from then on the bound is one extra budget.
    #[test]
    fn spray_copy_budget_is_conserved(schedule in arb_schedule()) {
        let initial: i64 = 8;
        let mut nodes = build_nodes(schedule.hosts, PolicyKind::SprayAndWait);
        let mut sent = Vec::new();
        for &(from, to) in &schedule.messages {
            if from == to {
                continue;
            }
            let id = nodes[from]
                .send(&format!("h{to}"), vec![1], SimTime::ZERO)
                .expect("send");
            sent.push((id, to));
        }
        run_schedule_checking(&mut nodes, &schedule, EncounterBudget::unlimited(), |nodes| {
            for &(id, to) in &sent {
                let total: i64 = nodes
                    .iter()
                    .filter_map(|n| n.replica().item(id))
                    .map(|item| item.transient().get_i64(ATTR_COPIES).unwrap_or(initial))
                    .sum();
                let delivered = nodes[to].replica().contains_item(id);
                let bound = if delivered { 2 * initial } else { initial };
                prop_assert!(
                    total <= bound,
                    "{} logical copies of {} (delivered: {})", total, id, delivered
                );
            }
        });
    }

    /// ROADMAP 5(b): a Spray holder down to its last copy waits for the
    /// destination. Whoever it meets that is not the destination leaves
    /// the encounter without the message — whether the holder judged the
    /// copy then or parked it at an earlier contact.
    #[test]
    fn spray_one_copy_holders_never_forward(schedule in arb_schedule()) {
        let mut nodes = build_nodes(schedule.hosts, PolicyKind::SprayAndWait);
        let mut dest_of = Vec::new();
        for &(from, to) in &schedule.messages {
            let id = nodes[from]
                .send(&format!("h{to}"), vec![1], SimTime::ZERO)
                .expect("send");
            dest_of.push((id, to));
        }
        for (step, &(a, b)) in schedule.encounters.iter().enumerate() {
            if a == b {
                continue;
            }
            // Per direction: (holder, peer, id) for every last copy the
            // holder carries that the peer lacks and is not addressed to.
            let waiting: Vec<(usize, usize, _)> = [(a, b), (b, a)]
                .into_iter()
                .flat_map(|(holder, peer)| {
                    let nodes = &nodes;
                    dest_of.iter().filter_map(move |&(id, to)| {
                        let copies = nodes[holder].replica().item(id)?.transient().get_i64(ATTR_COPIES)?;
                        let lacks = !nodes[peer].replica().contains_item(id);
                        (copies == 1 && lacks && to != peer).then_some((holder, peer, id))
                    })
                })
                .collect();
            let (x, y) = if a < b { (a, b) } else { (b, a) };
            let (left, right) = nodes.split_at_mut(y);
            left[x].encounter(
                &mut right[0],
                SimTime::from_secs(60 * (step as u64 + 1)),
                EncounterBudget::unlimited(),
            );
            // The holder is the peer's only partner in this encounter.
            for (holder, peer, id) in waiting {
                prop_assert!(
                    !nodes[peer].replica().contains_item(id),
                    "step {}: h{} forwarded its last copy of {} to h{}", step, holder, id, peer
                );
            }
        }
    }

    /// Epidemic TTL bounds how many relay hops a copy can take: with TTL t,
    /// a copy reaching a node has a TTL in [0, t].
    #[test]
    fn epidemic_ttl_stays_in_range(schedule in arb_schedule()) {
        let mut nodes = build_nodes(schedule.hosts, PolicyKind::Epidemic);
        for &(from, to) in &schedule.messages {
            nodes[from]
                .send(&format!("h{to}"), vec![1], SimTime::ZERO)
                .expect("send");
        }
        run_schedule(&mut nodes, &schedule, EncounterBudget::unlimited());
        for node in &nodes {
            for item in node.replica().iter_items() {
                if let Some(ttl) = item.transient().get_i64(ATTR_TTL) {
                    prop_assert!((0..=10).contains(&ttl), "ttl {} out of range", ttl);
                }
            }
        }
    }

    /// A shared bandwidth budget is respected by every policy.
    #[test]
    fn budget_respected_by_all_policies(schedule in arb_schedule()) {
        for policy in PolicyKind::ALL {
            let mut nodes = build_nodes(schedule.hosts, policy);
            for &(from, to) in &schedule.messages {
                nodes[from]
                    .send(&format!("h{to}"), vec![1], SimTime::ZERO)
                    .expect("send");
            }
            for (step, &(a, b)) in schedule.encounters.iter().enumerate() {
                if a == b {
                    continue;
                }
                let (x, y) = if a < b { (a, b) } else { (b, a) };
                let (left, right) = nodes.split_at_mut(y);
                let report = left[x].encounter(
                    &mut right[0],
                    SimTime::from_secs(60 * (step as u64 + 1)),
                    EncounterBudget::max_messages(2),
                );
                prop_assert!(
                    report.transmitted <= 2,
                    "policy {} sent {} items under a budget of 2",
                    policy,
                    report.transmitted
                );
            }
        }
    }

    /// MaxProp hop lists only ever grow along a copy's path and contain
    /// plausible node ids.
    #[test]
    fn maxprop_hoplists_are_plausible(schedule in arb_schedule()) {
        let mut nodes = build_nodes(schedule.hosts, PolicyKind::MaxProp);
        for &(from, to) in &schedule.messages {
            nodes[from]
                .send(&format!("h{to}"), vec![1], SimTime::ZERO)
                .expect("send");
        }
        run_schedule(&mut nodes, &schedule, EncounterBudget::unlimited());
        let max_id = schedule.hosts as i64;
        for node in &nodes {
            for item in node.replica().iter_items() {
                if let Some(Value::List(hops)) = item.transient().get(replidtn::dtn::ATTR_HOPLIST) {
                    for hop in hops {
                        let id = hop.as_i64().expect("hoplist entries are ints");
                        prop_assert!((1..=max_id).contains(&id), "bogus hop id {}", id);
                    }
                }
            }
        }
    }
}
