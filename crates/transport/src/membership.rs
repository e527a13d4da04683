//! Gossip membership: who is in the mesh, who is suspected dead, and
//! which peers to talk to next.
//!
//! The core is deliberately pure — no sockets, no wall clock. Callers
//! inject time as milliseconds and the fanout selection runs off a seeded
//! generator, so every membership behavior (convergence, suspicion,
//! refutation, rejoin) is reproducible in tests with virtual time. The
//! rules are SWIM-flavored:
//!
//! * **Incarnations.** Each node stamps its own entry with an incarnation
//!   number. Any statement about a peer at a *higher* incarnation
//!   replaces one at a lower; at *equal* incarnation, `Suspect` overrides
//!   `Alive` (suspicion must spread faster than stale liveness), and
//!   fresher evidence refreshes the entry.
//! * **Refutation.** A node that sees itself reported `Suspect` (or sees
//!   any claim about itself at ≥ its incarnation) bumps its own
//!   incarnation, and the next gossip round carries the refutation.
//!   A crashed node that rejoins re-enters the same way.
//! * **Aging.** Entries carry ages, not timestamps: no cross-node clock
//!   agreement is assumed. An entry not refreshed within
//!   `suspect_after` turns `Suspect`; one not refreshed within
//!   `evict_after` is evicted.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::gossip::{GossipMessage, PeerStatus, PeerWire};

/// Tunables for suspicion, eviction, and fanout selection.
#[derive(Clone, Debug)]
pub struct MembershipConfig {
    /// Age after which an unrefreshed member turns [`PeerStatus::Suspect`].
    pub suspect_after: Duration,
    /// Age after which a suspect is evicted from the view entirely.
    pub evict_after: Duration,
    /// Peers dialed per gossip round.
    pub fanout: usize,
    /// Seed for deterministic fanout selection.
    pub seed: u64,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            suspect_after: Duration::from_secs(5),
            evict_after: Duration::from_secs(15),
            fanout: 3,
            seed: 1,
        }
    }
}

#[derive(Clone, Debug)]
struct Entry {
    addr: String,
    incarnation: u64,
    status: PeerStatus,
    /// Local-clock instant (ms) this entry was last confirmed.
    fresh_ms: u64,
}

/// A read-only snapshot of one membership entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerView {
    /// The peer's replica id.
    pub replica: u64,
    /// The peer's listen address.
    pub addr: String,
    /// The peer's latest known incarnation.
    pub incarnation: u64,
    /// Current liveness verdict.
    pub status: PeerStatus,
}

/// What one suspicion/eviction sweep changed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Members newly demoted to suspect this sweep.
    pub newly_suspect: Vec<u64>,
    /// Members evicted this sweep.
    pub evicted: Vec<u64>,
}

/// One node's view of the mesh membership.
#[derive(Debug)]
pub struct Membership {
    me_replica: u64,
    me_addr: String,
    incarnation: u64,
    peers: BTreeMap<u64, Entry>,
    /// Configured bootstrap addresses whose replica ids are not known
    /// yet; resolved (and dropped from here) once gossip reaches them.
    seeds: Vec<String>,
    config: MembershipConfig,
    rng: u64,
    learned_acc: u64,
}

impl Membership {
    /// A fresh membership view containing only ourselves.
    pub fn new(me_replica: u64, me_addr: impl Into<String>, config: MembershipConfig) -> Self {
        let seed = config.seed ^ me_replica.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Membership {
            me_replica,
            me_addr: me_addr.into(),
            incarnation: 0,
            peers: BTreeMap::new(),
            seeds: Vec::new(),
            config,
            rng: seed | 1,
            learned_acc: 0,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: cheap, deterministic, good enough for peer picks.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Registers a bootstrap address to gossip at until its replica id is
    /// learned. Our own address and duplicates are ignored.
    pub fn add_seed(&mut self, addr: impl Into<String>) {
        let addr = addr.into();
        if addr != self.me_addr && !self.seeds.contains(&addr) {
            self.seeds.push(addr);
        }
    }

    /// Our own replica id.
    pub fn me(&self) -> u64 {
        self.me_replica
    }

    /// Our current incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Bumps our incarnation: called on rejoin after a crash so the new
    /// life outranks any stale `Suspect` claims still circulating.
    pub fn bump_incarnation(&mut self) {
        self.incarnation += 1;
    }

    /// Records direct, first-hand contact with a peer (a completed
    /// session or gossip exchange): the strongest possible freshness.
    pub fn observe_alive(&mut self, replica: u64, addr: &str, now_ms: u64) {
        if replica == self.me_replica {
            return;
        }
        self.seeds.retain(|s| s != addr);
        let learned = &mut self.learned_acc;
        let entry = self.peers.entry(replica).or_insert_with(|| {
            *learned += 1;
            Entry {
                addr: addr.to_string(),
                incarnation: 0,
                status: PeerStatus::Alive,
                fresh_ms: now_ms,
            }
        });
        entry.addr = addr.to_string();
        entry.status = PeerStatus::Alive;
        entry.fresh_ms = now_ms;
    }

    /// Records a failed dial to a peer: immediate suspicion, without
    /// waiting out the age window (first-hand evidence of trouble).
    pub fn observe_failed(&mut self, replica: u64) {
        if let Some(entry) = self.peers.get_mut(&replica) {
            entry.status = PeerStatus::Suspect;
        }
    }

    /// Builds the gossip message carrying our current view.
    pub fn message(&self, now_ms: u64) -> GossipMessage {
        GossipMessage {
            sender: PeerWire {
                replica: self.me_replica,
                addr: self.me_addr.clone(),
                incarnation: self.incarnation,
                status: PeerStatus::Alive,
                age_ms: 0,
            },
            entries: self
                .peers
                .iter()
                .map(|(&replica, e)| PeerWire {
                    replica,
                    addr: e.addr.clone(),
                    incarnation: e.incarnation,
                    status: e.status,
                    age_ms: now_ms.saturating_sub(e.fresh_ms),
                })
                .collect(),
        }
    }

    /// Merges a received view into ours, returning how many entries were
    /// newly learned. The sender itself counts as directly confirmed.
    pub fn merge(&mut self, msg: &GossipMessage, now_ms: u64) -> u64 {
        let before = self.learned_acc;
        self.observe_alive(msg.sender.replica, &msg.sender.addr, now_ms);
        if let Some(entry) = self.peers.get_mut(&msg.sender.replica) {
            // First-hand word from the sender about itself: adopt its
            // incarnation outright.
            if msg.sender.incarnation >= entry.incarnation {
                entry.incarnation = msg.sender.incarnation;
                entry.status = PeerStatus::Alive;
            }
        }
        for remote in &msg.entries {
            self.merge_entry(remote, now_ms);
        }
        self.learned_acc - before
    }

    fn merge_entry(&mut self, remote: &PeerWire, now_ms: u64) {
        if remote.replica == self.me_replica {
            // Gossip about us. A suspicion (or any claim at ≥ our
            // incarnation) is refuted by outliving it: bump and let the
            // next round carry the correction.
            if remote.status == PeerStatus::Suspect && remote.incarnation >= self.incarnation {
                self.incarnation = remote.incarnation + 1;
            }
            return;
        }
        let remote_fresh = now_ms.saturating_sub(remote.age_ms);
        match self.peers.get_mut(&remote.replica) {
            None => {
                self.seeds.retain(|s| s != &remote.addr);
                self.learned_acc += 1;
                self.peers.insert(
                    remote.replica,
                    Entry {
                        addr: remote.addr.clone(),
                        incarnation: remote.incarnation,
                        status: remote.status,
                        fresh_ms: remote_fresh,
                    },
                );
            }
            Some(entry) => {
                if remote.incarnation > entry.incarnation {
                    // A higher incarnation outranks everything we hold.
                    entry.incarnation = remote.incarnation;
                    entry.status = remote.status;
                    entry.addr = remote.addr.clone();
                    entry.fresh_ms = remote_fresh;
                } else if remote.incarnation == entry.incarnation {
                    // Equal incarnation: suspicion spreads, freshness
                    // refreshes.
                    if remote.status == PeerStatus::Suspect {
                        entry.status = PeerStatus::Suspect;
                    }
                    if remote_fresh > entry.fresh_ms {
                        entry.fresh_ms = remote_fresh;
                    }
                }
            }
        }
    }

    /// Runs the suspicion/eviction sweep against the local clock.
    pub fn tick(&mut self, now_ms: u64) -> TickReport {
        let suspect_ms = self.config.suspect_after.as_millis() as u64;
        let evict_ms = self.config.evict_after.as_millis() as u64;
        let mut report = TickReport::default();
        self.peers.retain(|&replica, entry| {
            let age = now_ms.saturating_sub(entry.fresh_ms);
            if age >= evict_ms {
                report.evicted.push(replica);
                return false;
            }
            if entry.status == PeerStatus::Alive && age >= suspect_ms {
                entry.status = PeerStatus::Suspect;
                report.newly_suspect.push(replica);
            }
            true
        });
        report
    }

    /// Picks this round's gossip targets: every still-unresolved seed
    /// (bootstrap must succeed before randomness matters), then random
    /// live members up to the configured fanout.
    pub fn fanout_targets(&mut self) -> Vec<String> {
        let mut targets: Vec<String> = self.seeds.clone();
        let mut candidates: Vec<String> = self
            .peers
            .values()
            .filter(|e| e.status == PeerStatus::Alive && !targets.contains(&e.addr))
            .map(|e| e.addr.clone())
            .collect();
        let want = self.config.fanout.max(targets.len());
        while targets.len() < want && !candidates.is_empty() {
            let pick = (self.next_rand() as usize) % candidates.len();
            targets.push(candidates.swap_remove(pick));
        }
        targets
    }

    /// Addresses of all members currently believed alive (the discovered
    /// view anti-entropy dials through).
    pub fn live_addrs(&self) -> Vec<String> {
        self.peers
            .values()
            .filter(|e| e.status == PeerStatus::Alive)
            .map(|e| e.addr.clone())
            .collect()
    }

    /// Full view snapshot (self excluded), replica-id ordered.
    pub fn view(&self) -> Vec<PeerView> {
        self.peers
            .iter()
            .map(|(&replica, e)| PeerView {
                replica,
                addr: e.addr.clone(),
                incarnation: e.incarnation,
                status: e.status,
            })
            .collect()
    }

    /// Members currently believed alive.
    pub fn alive_count(&self) -> usize {
        self.peers
            .values()
            .filter(|e| e.status == PeerStatus::Alive)
            .count()
    }

    /// Members currently under suspicion.
    pub fn suspect_count(&self) -> usize {
        self.peers
            .values()
            .filter(|e| e.status == PeerStatus::Suspect)
            .count()
    }

    /// Seeds not yet resolved to a member.
    pub fn unresolved_seeds(&self) -> usize {
        self.seeds.len()
    }

    /// Drains the entries-learned accumulator (feeds the per-round
    /// `gossip_round` event).
    pub fn take_learned(&mut self) -> u64 {
        std::mem::take(&mut self.learned_acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MembershipConfig {
        MembershipConfig {
            suspect_after: Duration::from_millis(5_000),
            evict_after: Duration::from_millis(15_000),
            fanout: 3,
            seed: 42,
        }
    }

    #[test]
    fn views_converge_through_pairwise_merges() {
        // Five nodes, a knows only b; everyone gossips pairwise in rounds
        // along a ring until all views hold all five members.
        let mut nodes: Vec<Membership> = (1..=5)
            .map(|i| Membership::new(i, format!("n{i}:1"), config()))
            .collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            let next_addr = format!("n{}:1", (i + 1) % 5 + 1);
            node.add_seed(next_addr);
        }
        // Simulated exchange: i sends to i+1, the reply merges back.
        let mut rounds = 0;
        loop {
            rounds += 1;
            for i in 0..5 {
                let j = (i + 1) % 5;
                let now = rounds * 100;
                let msg_i = nodes[i].message(now);
                nodes[j].merge(&msg_i, now);
                let msg_j = nodes[j].message(now);
                nodes[i].merge(&msg_j, now);
            }
            if nodes.iter().all(|n| n.view().len() == 4) {
                break;
            }
            assert!(rounds < 10, "membership failed to converge");
        }
        assert!(rounds <= 5, "ring convergence took {rounds} rounds");
    }

    #[test]
    fn unrefreshed_members_turn_suspect_then_evict() {
        let mut m = Membership::new(1, "a:1", config());
        m.observe_alive(2, "b:1", 0);
        assert_eq!(m.alive_count(), 1);
        let report = m.tick(5_000);
        assert_eq!(report.newly_suspect, vec![2]);
        assert_eq!(m.suspect_count(), 1);
        let report = m.tick(15_000);
        assert_eq!(report.evicted, vec![2]);
        assert_eq!(m.view().len(), 0);
    }

    #[test]
    fn suspicion_is_refuted_by_incarnation_bump() {
        let mut b = Membership::new(2, "b:1", config());
        // Someone gossips that b is suspect at b's current incarnation.
        let slander = GossipMessage {
            sender: PeerWire {
                replica: 3,
                addr: "c:1".into(),
                incarnation: 0,
                status: PeerStatus::Alive,
                age_ms: 0,
            },
            entries: vec![PeerWire {
                replica: 2,
                addr: "b:1".into(),
                incarnation: 0,
                status: PeerStatus::Suspect,
                age_ms: 100,
            }],
        };
        assert_eq!(b.incarnation(), 0);
        b.merge(&slander, 1_000);
        assert_eq!(b.incarnation(), 1, "suspicion refuted by outliving it");

        // The refutation overrides the suspicion in other views: higher
        // incarnation, alive.
        let mut a = Membership::new(1, "a:1", config());
        a.merge(&slander, 1_000);
        assert_eq!(a.suspect_count(), 1);
        let refutation = b.message(2_000);
        a.merge(&refutation, 2_000);
        assert_eq!(a.suspect_count(), 0);
        assert_eq!(a.alive_count(), 2);
        assert_eq!(
            a.view()
                .iter()
                .find(|p| p.replica == 2)
                .unwrap()
                .incarnation,
            1
        );
    }

    #[test]
    fn equal_incarnation_suspicion_spreads() {
        let mut a = Membership::new(1, "a:1", config());
        a.observe_alive(2, "b:1", 0);
        let rumor = GossipMessage {
            sender: PeerWire {
                replica: 3,
                addr: "c:1".into(),
                incarnation: 0,
                status: PeerStatus::Alive,
                age_ms: 0,
            },
            entries: vec![PeerWire {
                replica: 2,
                addr: "b:1".into(),
                incarnation: 0,
                status: PeerStatus::Suspect,
                age_ms: 50,
            }],
        };
        a.merge(&rumor, 100);
        assert_eq!(
            a.suspect_count(),
            1,
            "suspicion at equal incarnation spreads"
        );
    }

    #[test]
    fn fanout_is_deterministic_for_a_seed_and_bounded() {
        let build = || {
            let mut m = Membership::new(1, "a:1", config());
            for i in 2..=20u64 {
                m.observe_alive(i, &format!("n{i}:1"), 0);
            }
            m
        };
        let mut m1 = build();
        let mut m2 = build();
        let t1 = m1.fanout_targets();
        let t2 = m2.fanout_targets();
        assert_eq!(t1, t2, "same seed, same picks");
        assert_eq!(t1.len(), 3);
        let set: std::collections::BTreeSet<_> = t1.iter().collect();
        assert_eq!(set.len(), 3, "targets are distinct");
        // Consecutive rounds advance the generator.
        assert_ne!(m1.fanout_targets(), t1);
    }

    #[test]
    fn seeds_are_dialed_until_resolved() {
        let mut m = Membership::new(1, "a:1", config());
        m.add_seed("b:1");
        m.add_seed("b:1"); // duplicate ignored
        m.add_seed("a:1"); // self ignored
        assert_eq!(m.unresolved_seeds(), 1);
        assert_eq!(m.fanout_targets(), vec!["b:1".to_string()]);
        // Learning the seed's replica id resolves it.
        m.observe_alive(2, "b:1", 0);
        assert_eq!(m.unresolved_seeds(), 0);
        assert_eq!(m.fanout_targets(), vec!["b:1".to_string()]); // now as a member
    }

    #[test]
    fn learned_accumulator_counts_new_entries_once() {
        let mut m = Membership::new(1, "a:1", config());
        let msg = GossipMessage {
            sender: PeerWire {
                replica: 2,
                addr: "b:1".into(),
                incarnation: 0,
                status: PeerStatus::Alive,
                age_ms: 0,
            },
            entries: vec![PeerWire {
                replica: 3,
                addr: "c:1".into(),
                incarnation: 0,
                status: PeerStatus::Alive,
                age_ms: 10,
            }],
        };
        assert_eq!(m.merge(&msg, 100), 2);
        assert_eq!(m.merge(&msg, 200), 0, "repeats learn nothing");
        assert_eq!(m.take_learned(), 2);
        assert_eq!(m.take_learned(), 0);
    }

    #[test]
    fn rejoin_after_eviction_is_clean() {
        let mut a = Membership::new(1, "a:1", config());
        a.observe_alive(2, "b:1", 0);
        a.tick(20_000); // b evicted
        assert_eq!(a.view().len(), 0);
        // b rejoins with a bumped incarnation and is re-learned.
        let mut b = Membership::new(2, "b:1", config());
        b.bump_incarnation();
        a.merge(&b.message(21_000), 21_000);
        let view = a.view();
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].status, PeerStatus::Alive);
        assert_eq!(view[0].incarnation, 1);
    }
}
