//! The gossip control plane under virtual time: every host's production
//! `Membership` decides whom to dial and when, `Step::Gossip` runs those
//! dials as `SimNet` sessions, and the runner's invariants (knowledge
//! monotonicity, at-most-once delivery, bounded stores) hold after every
//! step. No socket, no sleep, no wall clock: a seed is a few
//! milliseconds.
//!
//! Churn (crash, rejoin at a new address), one-way partitions, forged
//! incarnations, a seed that never answers, and anti-entropy with gossip
//! off. The base seed honours `TESTKIT_SEED` like the fault scenarios, so
//! the CI sweep covers fanout picks too.

use std::time::Duration;

use dtn::PolicyKind;
use pfr::Knowledge;
use testkit::{SimRunner, Step};
use transport::{Dial, GossipMessage, PeerStatus, PeerView, PeerWire};

/// The base seed for every scenario, offset by `TESTKIT_SEED` when set
/// (the CI matrix sets 0..8).
fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(0xD7_4E)
}

/// `n` Epidemic hosts `h1..hn` chained by seeds: each knows only its
/// predecessor's address. Every host keeps the default cadence, one
/// gossip round per virtual second.
fn chain(seed: u64, n: usize) -> SimRunner {
    let mut sim = SimRunner::new(seed);
    for i in 0..n {
        let host = sim.add_host(&format!("h{}", i + 1), PolicyKind::Epidemic);
        if i > 0 {
            let predecessor = sim.net_addr(i - 1);
            sim.add_seed(host, &predecessor);
        }
    }
    sim
}

/// One gossip period: a virtual second passes, then every host runs what
/// is due, in index order.
fn round(sim: &mut SimRunner, hosts: usize) {
    sim.advance(1);
    for host in 0..hosts {
        sim.gossip(host);
    }
}

fn view(sim: &SimRunner, host: usize) -> Vec<PeerView> {
    sim.with_membership(host, |m| m.view())
}

/// Whether every host's view holds the other `hosts - 1` alive, each at
/// its current address.
fn healed(sim: &SimRunner, hosts: usize) -> bool {
    (0..hosts).all(|host| {
        let view = view(sim, host);
        view.len() == hosts - 1
            && view.iter().all(|p| {
                p.status == PeerStatus::Alive && p.addr == sim.net_addr(p.replica as usize - 1)
            })
    })
}

/// Runs rounds until `done` holds, panicking after `limit` (membership
/// must re-converge in bounded rounds, not eventually). Returns the
/// rounds taken.
fn rounds_until(
    sim: &mut SimRunner,
    hosts: usize,
    limit: usize,
    done: impl Fn(&SimRunner) -> bool,
) -> usize {
    for taken in 1..=limit {
        round(sim, hosts);
        if done(sim) {
            return taken;
        }
    }
    let views: Vec<_> = (0..hosts).map(|h| view(sim, h)).collect();
    panic!("membership failed to converge within {limit} rounds: {views:?}");
}

fn knowledge(sim: &SimRunner, host: usize) -> Knowledge {
    sim.with_node(host, |n| n.replica().knowledge().clone())
}

#[test]
fn membership_reconverges_after_crash_and_rejoin_at_a_new_address() {
    let mut sim = chain(base_seed(), 4);
    rounds_until(&mut sim, 4, 16, |sim| healed(sim, 4));

    // h4 crashes. The survivors' dials to it fail and suspicion spreads.
    let dead_addr = sim.net_addr(3);
    sim.snapshot(3);
    sim.crash(3);
    rounds_until(&mut sim, 4, 12, |sim| {
        (0..3).all(|h| {
            view(sim, h)
                .iter()
                .any(|p| p.replica == 4 && p.status == PeerStatus::Suspect)
        })
    });

    // h4 rejoins with a fresh view at a new address, seeded as before:
    // first-hand contact and refutation of the standing suspicion heal
    // every view to the new address (route healing).
    sim.restore(3);
    let new_addr = sim.net_addr(3);
    assert_ne!(new_addr, dead_addr, "a restore moves the host");
    rounds_until(&mut sim, 4, 12, |sim| healed(sim, 4));
}

#[test]
fn knowledge_stays_monotonic_across_churned_anti_entropy() {
    let mut sim = chain(base_seed() + 1, 3);
    for host in 0..3 {
        sim.set_cadence(host, Duration::from_secs(1), Duration::from_secs(2));
    }
    rounds_until(&mut sim, 3, 12, |sim| healed(sim, 3));
    // Traffic both ways, so anti-entropy syncs move data.
    sim.send(0, "h3", b"over the churn".to_vec());
    sim.send(2, "h1", b"against the churn".to_vec());

    let mut prev: Vec<Knowledge> = (0..3).map(|h| knowledge(&sim, h)).collect();
    fn check(sim: &SimRunner, prev: &mut [Knowledge], when: &str, hosts: &[usize]) {
        for &h in hosts {
            let now = knowledge(sim, h);
            assert!(now.dominates(&prev[h]), "{when}: h{} regressed", h + 1);
            prev[h] = now;
        }
    }

    for _ in 0..4 {
        round(&mut sim, 3);
    }
    check(&sim, &mut prev, "after the mesh synced", &[0, 1, 2]);

    // h2 crashes mid-run: anti-entropy toward it fails, the survivors
    // keep syncing, and failed sessions regress nothing.
    let corpse = Dial::Sync(sim.net_addr(1));
    sim.snapshot(1);
    sim.crash(1);
    let mut failed_toward_h2 = 0;
    for _ in 0..4 {
        sim.advance(1);
        for host in [0, 2] {
            failed_toward_h2 += sim
                .gossip(host)
                .iter()
                .filter(|(dial, ok)| !ok && *dial == corpse)
                .count();
        }
    }
    check(&sim, &mut prev, "after the crash", &[0, 2]);

    // h2 rejoins with its persisted state and catches back up.
    sim.restore(1);
    prev[1] = knowledge(&sim, 1);
    rounds_until(&mut sim, 3, 12, |sim| healed(sim, 3));
    for _ in 0..4 {
        round(&mut sim, 3);
    }
    check(&sim, &mut prev, "after the rejoin", &[0, 1, 2]);
    sim.with_node(0, |n| assert_eq!(n.inbox().len(), 1));
    sim.with_node(2, |n| assert_eq!(n.inbox().len(), 1));
    // Gossip, not a lucky schedule, decided whom anti-entropy dialed: a
    // corpse is dialed at most until a failed dial suspects it.
    assert!(
        failed_toward_h2 <= 2,
        "{failed_toward_h2} dials to a corpse"
    );
}

#[test]
fn delivery_is_at_most_once_under_churned_anti_entropy() {
    const MESSAGES: usize = 5;
    let mut sim = chain(base_seed() + 2, 3);
    for host in 0..3 {
        sim.set_cadence(host, Duration::from_secs(1), Duration::from_secs(1));
    }
    for i in 0..MESSAGES {
        sim.send(0, "h3", format!("exactly once #{i}").into_bytes());
    }
    // Redundant delivery paths (direct and via h2), repeated across
    // rounds, with the destination crashing and rejoining in between.
    for _ in 0..6 {
        round(&mut sim, 3);
    }
    sim.snapshot(2);
    sim.crash(2);
    for _ in 0..3 {
        round(&mut sim, 3);
    }
    sim.restore(2);
    rounds_until(&mut sim, 3, 12, |sim| healed(sim, 3));
    for _ in 0..6 {
        round(&mut sim, 3);
    }
    // The runner's §III checker saw every delivery event; the inbox agrees.
    let inbox = sim.with_node(2, |n| n.inbox());
    assert_eq!(inbox.len(), MESSAGES, "every message delivered once");
    let mut ids: Vec<_> = inbox.iter().map(|m| m.id).collect();
    ids.dedup();
    assert_eq!(ids.len(), MESSAGES, "no duplicate message ids");
    sim.assert_converged();
}

#[test]
fn an_asymmetric_partition_heals() {
    let mut sim = chain(base_seed() + 3, 3);
    rounds_until(&mut sim, 3, 12, |sim| healed(sim, 3));

    // h1 cannot reach h2 for ten seconds. Each refused dial makes h1
    // suspect h2; h2 still reaches h1, and each of its exchanges vouches
    // for it first-hand, so h1 never holds the suspicion past a round.
    sim.unreachable(0, 1, 10);
    let mut refused = 0;
    for _ in 0..8 {
        sim.advance(1);
        for host in 0..3 {
            let dials = sim.gossip(host);
            if host == 0 {
                let h2 = Dial::Gossip(sim.net_addr(1));
                if dials.iter().any(|(dial, ok)| !ok && *dial == h2) {
                    refused += 1;
                    let suspect = view(&sim, 0)
                        .iter()
                        .any(|p| p.replica == 2 && p.status == PeerStatus::Suspect);
                    assert!(suspect, "a refused dial suspects its target");
                }
            } else {
                assert!(dials.iter().all(|(_, ok)| *ok), "h{}: {dials:?}", host + 1);
            }
        }
        let h2 = view(&sim, 0).into_iter().find(|p| p.replica == 2);
        assert_eq!(
            h2.map(|p| p.status),
            Some(PeerStatus::Alive),
            "h2 vouched for itself"
        );
    }
    assert!(refused > 0, "h1 never tried the unreachable h2");

    // Healed: every view returns to all-alive, and data crosses the old
    // cut directly.
    sim.advance(3);
    rounds_until(&mut sim, 3, 8, |sim| healed(sim, 3));
    sim.send(0, "h2", b"across the healed cut".to_vec());
    sim.encounter(0, 1);
    sim.with_node(1, |n| assert_eq!(n.inbox().len(), 1));
    sim.assert_converged();
}

/// A view that `sender` claims, carrying `entries`.
fn forged(sender: u64, entries: Vec<PeerWire>) -> GossipMessage {
    GossipMessage {
        sender: PeerWire {
            replica: sender,
            addr: "forger@1".into(),
            incarnation: 0,
            status: PeerStatus::Alive,
            age_ms: 0,
        },
        entries,
    }
}

#[test]
fn a_forged_top_incarnation_neither_panics_nor_lowers_a_node() {
    let mut sim = chain(base_seed() + 4, 3);
    rounds_until(&mut sim, 3, 12, |sim| healed(sim, 3));
    let incarnation = |sim: &SimRunner| sim.with_membership(1, |m| m.incarnation());

    // A stranger tells h2 it is suspect at `u64::MAX`: no overflow, and
    // h2 pins itself at the top rather than wrapping below the claim.
    let claim = |incarnation| PeerWire {
        replica: 2,
        addr: sim.net_addr(1),
        incarnation,
        status: PeerStatus::Suspect,
        age_ms: 0,
    };
    let at_max = forged(99, vec![claim(u64::MAX)]);
    let lower = forged(99, vec![claim(7)]);
    sim.run_script(&[
        Step::Forge {
            host: 1,
            message: at_max.clone(),
        },
        Step::Forge {
            host: 1,
            message: lower,
        },
        Step::Forge {
            host: 1,
            message: at_max,
        },
    ]);
    assert_eq!(incarnation(&sim), u64::MAX);

    // An inflated claim about h3 that points at nowhere: h1 adopts the
    // higher incarnation and its route, dials nowhere and suspects h3,
    // and then h3's own exchanges heal every view back to its real
    // address. h2 never drops below the top.
    let poison = forged(
        99,
        vec![PeerWire {
            replica: 3,
            addr: "nowhere@1".into(),
            incarnation: u64::MAX - 1,
            status: PeerStatus::Alive,
            age_ms: 0,
        }],
    );
    sim.forge(0, &poison);
    assert!(view(&sim, 0).iter().any(|p| p.addr == "nowhere@1"));
    rounds_until(&mut sim, 3, 12, |sim| {
        assert_eq!(incarnation(sim), u64::MAX, "h2's incarnation fell");
        healed_among(sim, 3)
    });
}

/// [`healed`], ignoring the forger: views may also hold the stranger
/// that forged a message, who never answers.
fn healed_among(sim: &SimRunner, hosts: usize) -> bool {
    (0..hosts).all(|host| {
        let view: Vec<_> = view(sim, host)
            .into_iter()
            .filter(|p| p.replica as usize <= hosts)
            .collect();
        view.len() == hosts - 1
            && view.iter().all(|p| {
                p.status == PeerStatus::Alive && p.addr == sim.net_addr(p.replica as usize - 1)
            })
    })
}

#[test]
fn a_silent_seed_stays_a_seed_while_the_mesh_forms() {
    let mut sim = chain(base_seed() + 5, 3);
    // h1 is also seeded with an address nobody answers at.
    sim.add_seed(0, "silent@1");
    let mut silent_dials = 0;
    for _ in 0..12 {
        sim.advance(1);
        for host in 0..3 {
            for (dial, ok) in sim.gossip(host) {
                if dial == Dial::Gossip("silent@1".into()) {
                    assert!(!ok, "the silent seed answered");
                    silent_dials += 1;
                }
            }
        }
    }
    assert!(healed(&sim, 3), "the mesh formed around the silent seed");
    assert_eq!(sim.with_membership(0, |m| m.unresolved_seeds()), 1);
    assert_eq!(silent_dials, 12, "an unresolved seed is dialed every round");
    assert!(
        view(&sim, 0).iter().all(|p| p.addr != "silent@1"),
        "a seed that never answered names no member"
    );
}

#[test]
fn anti_entropy_runs_with_gossip_off() {
    // h1 never gossips but syncs every two seconds; h2 and h3 gossip at
    // h1 (their seed) and never sync. h1 learns both from inbound gossip
    // alone, and its anti-entropy carries its message to h3.
    let mut sim = SimRunner::new(base_seed() + 6);
    let h1 = sim.add_host("h1", PolicyKind::Epidemic);
    sim.set_cadence(h1, Duration::ZERO, Duration::from_secs(2));
    for name in ["h2", "h3"] {
        let host = sim.add_host(name, PolicyKind::Epidemic);
        let seed = sim.net_addr(h1);
        sim.add_seed(host, &seed);
    }
    sim.send(h1, "h3", b"carried by anti-entropy".to_vec());
    let mut synced = 0;
    for _ in 0..10 {
        sim.advance(1);
        for host in 0..3 {
            for (dial, ok) in sim.gossip(host) {
                match dial {
                    Dial::Sync(_) => {
                        assert_eq!(host, h1, "only h1 runs anti-entropy");
                        assert!(ok, "a sync to a live member failed");
                        synced += 1;
                    }
                    Dial::Gossip(_) => assert_ne!(host, h1, "h1's gossip is off"),
                }
            }
        }
    }
    assert_eq!(
        view(&sim, h1).len(),
        2,
        "h1 learned both from inbound gossip"
    );
    assert!(synced >= 2, "anti-entropy ran {synced} syncs");
    sim.with_node(2, |n| assert_eq!(n.inbox().len(), 1, "the message arrived"));
}

/// A churn script with every gossip step kind, as one printable
/// `Vec<Step>`.
fn churn_script() -> Vec<Step> {
    let gossip_all = || (0..3).map(|host| Step::Gossip { host });
    let mut steps = vec![Step::Send {
        from: 0,
        dest: "h3".into(),
        payload: b"deterministic".to_vec(),
    }];
    for i in 0..10 {
        steps.push(Step::Advance { secs: 1 });
        steps.extend(gossip_all());
        match i {
            2 => steps.extend([Step::Snapshot { host: 2 }, Step::Crash { host: 2 }]),
            4 => steps.push(Step::Restore { host: 2 }),
            5 => steps.push(Step::Unreachable {
                from: 0,
                to: 1,
                secs: 2,
            }),
            _ => {}
        }
    }
    steps
}

#[test]
fn a_gossip_script_replays_to_a_byte_identical_trace() {
    let run = || {
        let mut sim = chain(base_seed() + 7, 3);
        for host in 0..3 {
            sim.set_cadence(host, Duration::from_secs(1), Duration::from_secs(3));
        }
        sim.run_script(&churn_script());
        sim.into_trace()
    };
    let (first, second) = (run(), run());
    assert!(first.count("gossip_round") > 0, "rounds are traced");
    assert!(
        first.count("transport_sync") > 0,
        "anti-entropy syncs are traced"
    );
    assert_eq!(first.to_jsonl(), second.to_jsonl());
}
