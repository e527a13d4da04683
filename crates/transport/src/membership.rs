//! Gossip membership: who is in the mesh, who is suspected dead, and
//! whom to dial next.
//!
//! `Membership` owns every control-plane decision and has no sockets and
//! no clock: callers pass time in as milliseconds, hand the [`Dial`]s that
//! [`Membership::due`] returns to [`run_dials`] with a closure that runs
//! one, and sleep until [`Membership::next_due_ms`]. `run_dials` books
//! each outcome and closes the round with its `gossip_round` event.
//! `net` does this on a monotonic clock and `testkit` on virtual time, so
//! convergence, suspicion, refutation and rejoin are all reproducible.
//! The rules are SWIM-flavoured:
//!
//! * **Incarnations.** A higher incarnation replaces a lower; at an equal
//!   one `Suspect` overrides `Alive` (suspicion must spread faster than
//!   stale liveness) and fresher evidence refreshes the entry.
//! * **Refutation.** A node told it is `Suspect` at ≥ its incarnation
//!   outbids the claim (saturating, so a forged `u64::MAX` can neither
//!   overflow nor lower it). A rejoined node starts at 0 and re-enters
//!   by refuting the first standing suspicion that reaches it.
//! * **Routes first-hand.** A member's address moves only through its
//!   own word: the sender of a merged view, or [`Membership::observe_alive`].
//!   A second-hand entry about a known member at another address is
//!   ignored whole (address, incarnation and status), so a forged route
//!   cannot divert dials; unknown members are still learned second-hand.
//!   The cost: a member that moved is healed in a third party's view only
//!   by first-hand contact, or by eviction and rediscovery.
//! * **Aging.** Entries carry ages, not timestamps, so no clocks need
//!   agree: unrefreshed for `suspect_after` turns `Suspect`, for
//!   `evict_after` evicts.
//! * **Dials.** A round dials every unresolved seed plus seeded-random
//!   live members up to the fanout; anti-entropy syncs with the next live
//!   member after a cursor in replica-id order, so each gets one sync per
//!   cycle as members come and go. A failed dial suspects its target.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};
use std::time::Duration;

use obs::{Event, EventKind, Obs};
use parking_lot::Mutex;

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

/// One dial the control plane wants made, to a peer's listen address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dial {
    /// Exchange views: a gossip round's fanout pick or unresolved seed.
    Gossip(String),
    /// Run a sync session: the anti-entropy cursor's next live member.
    Sync(String),
}

/// What one gossip round accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GossipRoundStats {
    /// Peers dialed this round.
    pub dialed: usize,
    /// Exchanges that completed (both views merged).
    pub merged: usize,
    /// Dials that failed (targets marked suspect when identifiable).
    pub failed: usize,
    /// Members believed alive after the round.
    pub alive: usize,
    /// Members under suspicion after the round.
    pub suspect: usize,
    /// Membership entries newly learned this round.
    pub learned: u64,
}

/// A recurring activity: its period in ms (zero: off) and the instant it
/// next falls due on the caller's clock.
#[derive(Clone, Copy, Debug, Default)]
struct Every {
    period: u64,
    next: u64,
}

impl Every {
    /// Whether the activity is due at `now`; if so, it next falls due one
    /// period later (a late caller does not catch up in a burst).
    fn fire(&mut self, now: u64) -> bool {
        let due = self.period > 0 && now >= self.next;
        if due {
            self.next = now.saturating_add(self.period);
        }
        due
    }
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
    rounds: Every,
    syncs: Every,
    /// The member anti-entropy last synced with.
    sync_cursor: Option<u64>,
    /// The tally of the round in progress.
    round: Option<GossipRoundStats>,
}

impl Membership {
    /// A fresh membership view containing only ourselves, with gossip and
    /// anti-entropy off until [`Membership::set_cadence`].
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
            rounds: Every::default(),
            syncs: Every::default(),
            sync_cursor: None,
            round: None,
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

    /// Our current incarnation number.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Records first-hand word from a peer: [`Membership::merge`] calls
    /// it for the sender of every view it merges. The entry turns
    /// `Alive` at `addr`, fresh as of `now_ms`, and a seed at that
    /// address is resolved.
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
            // Gossip about us: outbid a suspicion at ≥ our incarnation and
            // let the next round carry the refutation. Saturating: a forged
            // `u64::MAX` must neither overflow nor lower it.
            if remote.status == PeerStatus::Suspect && remote.incarnation >= self.incarnation {
                self.incarnation = remote.incarnation.saturating_add(1);
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
            // Second-hand word never moves a member we hold.
            Some(entry) if entry.addr != remote.addr => {}
            Some(entry) => {
                if remote.incarnation > entry.incarnation {
                    // A higher incarnation outranks everything we hold.
                    entry.incarnation = remote.incarnation;
                    entry.status = remote.status;
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

    /// Sets how often gossip rounds and anti-entropy syncs recur; a zero
    /// period turns its activity off. Whatever is on falls due at once.
    pub fn set_cadence(&mut self, gossip: Duration, anti_entropy: Duration) {
        let every = |period: Duration| Every {
            period: period.as_millis() as u64,
            next: 0,
        };
        (self.rounds, self.syncs) = (every(gossip), every(anti_entropy));
    }

    /// The dials due at `now_ms`: a gossip round's once its period has
    /// passed since the last one, then the anti-entropy cursor's next
    /// live member once its period has. Either sweeps the view first.
    /// Book each dial with [`Membership::dialed`], then close the round
    /// with [`Membership::end_round`].
    pub fn due(&mut self, now_ms: u64) -> Vec<Dial> {
        let mut dials = Vec::new();
        if self.rounds.fire(now_ms) {
            dials = self.gossip_round(now_ms);
        }
        if self.syncs.fire(now_ms) {
            self.sweep(now_ms);
            dials.extend(self.next_sync_target().map(Dial::Sync));
        }
        dials
    }

    /// The instant [`Membership::due`] next has something to return;
    /// `None` while both activities are off.
    pub fn next_due_ms(&self) -> Option<u64> {
        [self.rounds, self.syncs]
            .iter()
            .filter(|every| every.period > 0)
            .map(|every| every.next)
            .min()
    }

    /// Opens a gossip round now, whatever the schedule: sweeps the view,
    /// then dials every unresolved seed (bootstrap must succeed before
    /// randomness matters) and random live members up to the fanout.
    pub fn gossip_round(&mut self, now_ms: u64) -> Vec<Dial> {
        self.sweep(now_ms);
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
        self.round = Some(GossipRoundStats {
            dialed: targets.len(),
            ..GossipRoundStats::default()
        });
        targets.into_iter().map(Dial::Gossip).collect()
    }

    /// Books a dial's outcome. A failed dial is first-hand evidence of
    /// trouble: the member at that address turns suspect without waiting
    /// out the age window (an unresolved seed has no member yet and stays
    /// a seed). A gossip dial also counts toward the open round.
    pub fn dialed(&mut self, dial: &Dial, ok: bool) {
        if let (Dial::Gossip(_), Some(round)) = (dial, &mut self.round) {
            round.merged += usize::from(ok);
            round.failed += usize::from(!ok);
        }
        let (Dial::Gossip(addr) | Dial::Sync(addr)) = dial;
        if !ok {
            for entry in self.peers.values_mut().filter(|e| e.addr == *addr) {
                entry.status = PeerStatus::Suspect;
            }
        }
    }

    /// Closes the open round: its tally, the view's counts after it, and
    /// the entries learned since the last round closed (inbound gossip
    /// included). `None` when no round is open.
    pub fn end_round(&mut self) -> Option<GossipRoundStats> {
        let mut round = self.round.take()?;
        round.alive = self.count(PeerStatus::Alive);
        round.suspect = self.count(PeerStatus::Suspect);
        round.learned = std::mem::take(&mut self.learned_acc);
        Some(round)
    }

    /// The suspicion/eviction sweep against the local clock.
    fn sweep(&mut self, now_ms: u64) {
        let suspect_ms = self.config.suspect_after.as_millis() as u64;
        let evict_ms = self.config.evict_after.as_millis() as u64;
        self.peers.retain(|_, entry| {
            let age = now_ms.saturating_sub(entry.fresh_ms);
            if entry.status == PeerStatus::Alive && age >= suspect_ms {
                entry.status = PeerStatus::Suspect;
            }
            age < evict_ms
        });
    }

    /// The first live member after the cursor in replica-id order,
    /// wrapping around; moves the cursor to it.
    fn next_sync_target(&mut self) -> Option<String> {
        let after = self.sync_cursor.map_or(Unbounded, Excluded);
        let (&replica, entry) = self
            .peers
            .range((after, Unbounded))
            .chain(self.peers.range(..))
            .find(|(_, e)| e.status == PeerStatus::Alive)?;
        self.sync_cursor = Some(replica);
        Some(entry.addr.clone())
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

    /// Members currently holding `status`.
    pub fn count(&self, status: PeerStatus) -> usize {
        self.peers.values().filter(|e| e.status == status).count()
    }

    /// Seeds not yet resolved to a member.
    pub fn unresolved_seeds(&self) -> usize {
        self.seeds.len()
    }
}

/// Runs one control step: each of `dials` in order through `dial`, which
/// says whether its session completed, booking every outcome with
/// [`Membership::dialed`]; then closes the round, if one is open, and
/// emits its `gossip_round` event on `obs`. The lock is taken only to
/// book, never across a dial: the session machine takes it too.
pub fn run_dials(
    membership: &Mutex<Membership>,
    dials: &[Dial],
    obs: &Obs,
    mut dial: impl FnMut(&Dial) -> bool,
) -> Option<GossipRoundStats> {
    for each in dials {
        let ok = dial(each);
        membership.lock().dialed(each, ok);
    }
    let (stats, replica) = {
        let mut view = membership.lock();
        (view.end_round()?, view.me_replica)
    };
    obs.emit(EventKind::GossipRound, || Event::GossipRound {
        replica,
        fanout: stats.dialed as u64,
        alive: stats.alive as u64,
        suspect: stats.suspect as u64,
        learned: stats.learned,
    });
    Some(stats)
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

    fn wire(replica: u64, addr: &str, incarnation: u64, status: PeerStatus) -> PeerWire {
        PeerWire {
            replica,
            addr: addr.into(),
            incarnation,
            status,
            age_ms: 0,
        }
    }

    /// A view from `sender` carrying `entries`.
    fn gossip(sender: PeerWire, entries: Vec<PeerWire>) -> GossipMessage {
        GossipMessage { sender, entries }
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
        assert_eq!(m.count(PeerStatus::Alive), 1);
        m.sweep(4_999);
        assert_eq!(m.count(PeerStatus::Alive), 1);
        m.sweep(5_000);
        assert_eq!(m.count(PeerStatus::Suspect), 1);
        m.sweep(14_999);
        assert_eq!(m.view().len(), 1);
        m.sweep(15_000);
        assert_eq!(m.view().len(), 0);
    }

    #[test]
    fn suspicion_is_refuted_by_incarnation_bump() {
        let mut b = Membership::new(2, "b:1", config());
        // Someone gossips that b is suspect at b's current incarnation.
        let slander = gossip(
            wire(3, "c:1", 0, PeerStatus::Alive),
            vec![wire(2, "b:1", 0, PeerStatus::Suspect)],
        );
        assert_eq!(b.incarnation(), 0);
        b.merge(&slander, 1_000);
        assert_eq!(b.incarnation(), 1, "suspicion refuted by outliving it");

        // The refutation overrides the suspicion in other views: higher
        // incarnation, alive.
        let mut a = Membership::new(1, "a:1", config());
        a.merge(&slander, 1_000);
        assert_eq!(a.count(PeerStatus::Suspect), 1);
        let refutation = b.message(2_000);
        a.merge(&refutation, 2_000);
        assert_eq!(a.count(PeerStatus::Suspect), 0);
        assert_eq!(a.count(PeerStatus::Alive), 2);
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
    fn a_forged_claim_at_the_top_incarnation_neither_panics_nor_lowers_ours() {
        let mut b = Membership::new(2, "b:1", config());
        b.merge(
            &gossip(
                wire(3, "c:1", 0, PeerStatus::Alive),
                vec![wire(2, "b:1", 7, PeerStatus::Suspect)],
            ),
            100,
        );
        assert_eq!(b.incarnation(), 8);
        let forged = gossip(
            wire(u64::MAX, "", u64::MAX, PeerStatus::Suspect),
            vec![wire(2, "b:1", u64::MAX, PeerStatus::Suspect)],
        );
        for _ in 0..2 {
            b.merge(&forged, 200);
            assert_eq!(b.incarnation(), u64::MAX);
        }
        // A lower claim after it changes nothing.
        b.merge(
            &gossip(
                wire(3, "c:1", 0, PeerStatus::Alive),
                vec![wire(2, "b:1", 9, PeerStatus::Suspect)],
            ),
            300,
        );
        assert_eq!(b.incarnation(), u64::MAX);
    }

    #[test]
    fn second_hand_word_never_moves_a_known_member() {
        let mut a = Membership::new(1, "a:1", config());
        a.observe_alive(2, "b:1", 0);
        let b = |a: &Membership| a.view().into_iter().find(|p| p.replica == 2).unwrap();
        // A higher incarnation at another address changes nothing: not the
        // route, not the incarnation, not the status.
        for status in [PeerStatus::Alive, PeerStatus::Suspect] {
            a.merge(
                &gossip(
                    wire(3, "c:1", 0, PeerStatus::Alive),
                    vec![wire(2, "elsewhere:1", u64::MAX - 1, status)],
                ),
                100,
            );
            let held = b(&a);
            assert_eq!((held.addr.as_str(), held.incarnation), ("b:1", 0));
            assert_eq!(held.status, PeerStatus::Alive);
        }
        // Word at the held address still counts, and unknown members are
        // still learned second-hand.
        a.merge(
            &gossip(
                wire(3, "c:1", 0, PeerStatus::Alive),
                vec![
                    wire(2, "b:1", 4, PeerStatus::Suspect),
                    wire(4, "d:1", 0, PeerStatus::Alive),
                ],
            ),
            200,
        );
        assert_eq!((b(&a).incarnation, b(&a).status), (4, PeerStatus::Suspect));
        assert_eq!(a.view().len(), 3);
        // The member's own message moves it.
        a.merge(&gossip(wire(2, "b:2", 5, PeerStatus::Alive), vec![]), 300);
        assert_eq!(
            (b(&a).addr, b(&a).status),
            ("b:2".to_string(), PeerStatus::Alive)
        );
    }

    #[test]
    fn equal_incarnation_suspicion_spreads() {
        let mut a = Membership::new(1, "a:1", config());
        a.observe_alive(2, "b:1", 0);
        let rumor = gossip(
            wire(3, "c:1", 0, PeerStatus::Alive),
            vec![PeerWire {
                age_ms: 50,
                ..wire(2, "b:1", 0, PeerStatus::Suspect)
            }],
        );
        a.merge(&rumor, 100);
        assert_eq!(
            a.count(PeerStatus::Suspect),
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
        let t1 = m1.gossip_round(0);
        let t2 = m2.gossip_round(0);
        assert_eq!(t1, t2, "same seed, same picks");
        assert_eq!(t1.len(), 3);
        let set: std::collections::BTreeSet<_> = t1.iter().map(|d| format!("{d:?}")).collect();
        assert_eq!(set.len(), 3, "targets are distinct");
        // Consecutive rounds advance the generator.
        assert_ne!(m1.gossip_round(0), t1);
    }

    #[test]
    fn seeds_are_dialed_until_resolved() {
        let mut m = Membership::new(1, "a:1", config());
        m.add_seed("b:1");
        m.add_seed("b:1"); // duplicate ignored
        m.add_seed("a:1"); // self ignored
        assert_eq!(m.unresolved_seeds(), 1);
        assert_eq!(m.gossip_round(0), [Dial::Gossip("b:1".into())]);
        // Learning the seed's replica id resolves it.
        m.observe_alive(2, "b:1", 0);
        assert_eq!(m.unresolved_seeds(), 0);
        assert_eq!(m.gossip_round(0), [Dial::Gossip("b:1".into())]); // now a member
    }

    #[test]
    fn learned_accumulator_counts_new_entries_once() {
        let mut m = Membership::new(1, "a:1", config());
        let msg = gossip(
            wire(2, "b:1", 0, PeerStatus::Alive),
            vec![PeerWire {
                age_ms: 10,
                ..wire(3, "c:1", 0, PeerStatus::Alive)
            }],
        );
        assert_eq!(m.merge(&msg, 100), 2);
        assert_eq!(m.merge(&msg, 200), 0, "repeats learn nothing");
        m.gossip_round(200);
        assert_eq!(m.end_round().map(|r| r.learned), Some(2));
        m.gossip_round(300);
        assert_eq!(m.end_round().map(|r| r.learned), Some(0));
        assert_eq!(m.end_round(), None, "no round open");
    }

    #[test]
    fn rejoin_after_eviction_is_clean() {
        let mut a = Membership::new(1, "a:1", config());
        a.observe_alive(2, "b:1", 0);
        a.sweep(6_000); // b suspect
        let stale = a.message(6_000);
        a.sweep(20_000); // b evicted
        assert_eq!(a.view().len(), 0);
        // b rejoins with a fresh view. The suspicion of its old life still
        // circulates, and refuting it bumps b's incarnation; a re-learns b.
        let mut b = Membership::new(2, "b:1", config());
        b.merge(&stale, 21_000);
        a.merge(&b.message(21_000), 21_000);
        let view = a.view();
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].status, PeerStatus::Alive);
        assert_eq!(view[0].incarnation, 1);
    }

    #[test]
    fn a_failed_dial_suspects_the_member_and_leaves_a_seed_a_seed() {
        let mut m = Membership::new(1, "a:1", config());
        m.observe_alive(2, "b:1", 0);
        m.observe_alive(3, "c:1", 0);
        m.add_seed("s:1");
        let dials = m.gossip_round(100);
        assert_eq!(dials.len(), 3);
        for dial in &dials {
            m.dialed(dial, *dial == Dial::Gossip("c:1".into()));
        }
        let view = m.view();
        assert_eq!(view[0].status, PeerStatus::Suspect, "b's dial failed");
        assert_eq!(view[1].status, PeerStatus::Alive, "c's dial succeeded");
        assert_eq!(m.unresolved_seeds(), 1, "the seed stays a seed");
        let round = m.end_round().unwrap();
        assert_eq!((round.dialed, round.merged, round.failed), (3, 1, 2));
        assert_eq!((round.alive, round.suspect), (1, 1));

        // A failed sync suspects too, and counts toward no round.
        m.dialed(&Dial::Sync("c:1".into()), false);
        assert_eq!(m.count(PeerStatus::Suspect), 2);
        assert_eq!(m.end_round(), None);
    }

    #[test]
    fn anti_entropy_visits_each_live_member_once_per_cycle() {
        let mut m = Membership::new(1, "a:1", config());
        m.set_cadence(Duration::ZERO, Duration::from_millis(10));
        let mut now = 0;
        let mut next = |m: &mut Membership| {
            let dials = m.due(now);
            now += 10;
            match dials.as_slice() {
                [Dial::Sync(addr)] => Some(addr.clone()),
                [] => None,
                other => panic!("unexpected dials {other:?}"),
            }
        };
        assert_eq!(next(&mut m), None, "no member yet");
        for i in [3, 5, 7] {
            m.observe_alive(i, &format!("n{i}:1"), 0);
        }
        assert_eq!(next(&mut m).as_deref(), Some("n3:1"));
        // 2 joins behind the cursor and 6 ahead of it; 5 is suspected.
        m.observe_alive(2, "n2:1", 0);
        m.observe_alive(6, "n6:1", 0);
        m.dialed(&Dial::Gossip("n5:1".into()), false);
        let cycle: Vec<_> = (0..4).filter_map(|_| next(&mut m)).collect();
        assert_eq!(cycle, ["n6:1", "n7:1", "n2:1", "n3:1"]);
        // A member that left is skipped, and the order continues.
        m.dialed(&Dial::Sync("n6:1".into()), false);
        let cycle: Vec<_> = (0..3).filter_map(|_| next(&mut m)).collect();
        assert_eq!(cycle, ["n7:1", "n2:1", "n3:1"]);
    }

    #[test]
    fn nothing_is_due_before_its_instant() {
        let mut m = Membership::new(1, "a:1", config());
        m.observe_alive(2, "b:1", 0);
        assert_eq!(m.due(0), Vec::new(), "both activities off by default");
        assert_eq!(m.next_due_ms(), None);

        m.set_cadence(Duration::from_millis(100), Duration::from_millis(250));
        assert_eq!(m.next_due_ms(), Some(0), "whatever is on is due at once");
        let both = m.due(0);
        assert_eq!(both, [Dial::Gossip("b:1".into()), Dial::Sync("b:1".into())]);
        assert!(m.end_round().is_some());
        assert_eq!(m.next_due_ms(), Some(100));
        assert_eq!(m.due(99), Vec::new());
        assert!(m.end_round().is_none(), "no round opened early");
        assert_eq!(m.due(100), [Dial::Gossip("b:1".into())]);
        assert_eq!(m.next_due_ms(), Some(200));
        // Late callers do not catch up in a burst.
        assert_eq!(m.due(260).len(), 2);
        assert_eq!(m.next_due_ms(), Some(360));
        assert_eq!(m.due(359), Vec::new());

        // Gossip off, anti-entropy on: each interval governs only its own
        // activity.
        m.set_cadence(Duration::ZERO, Duration::from_millis(50));
        assert_eq!(m.due(400), [Dial::Sync("b:1".into())]);
        assert_eq!(m.next_due_ms(), Some(450));
        assert_eq!(m.due(449), Vec::new());
    }

    #[test]
    fn run_dials_books_each_dial_and_closes_the_round_once() {
        let mut m = Membership::new(1, "a:1", config());
        m.observe_alive(2, "b:1", 0);
        m.observe_alive(3, "c:1", 0);
        let view = Mutex::new(m);
        let sink = std::sync::Arc::new(obs::MemorySink::unbounded());
        let obs = Obs::new(sink.clone());

        let dials = view.lock().gossip_round(100);
        let mut ran = Vec::new();
        let stats = run_dials(&view, &dials, &obs, |dial| {
            assert!(view.try_lock().is_some(), "no lock held across a dial");
            ran.push(dial.clone());
            *dial == Dial::Gossip("c:1".into())
        });
        assert_eq!(ran, dials);
        let stats = stats.expect("the round closed");
        assert_eq!((stats.dialed, stats.merged, stats.failed), (2, 1, 1));
        assert_eq!((stats.alive, stats.suspect, stats.learned), (1, 1, 2));
        let view_now = view.lock().view();
        assert_eq!(view_now[0].status, PeerStatus::Suspect, "b's dial failed");
        assert_eq!(view_now[1].status, PeerStatus::Alive);
        let events = sink.take();
        assert_eq!(
            events,
            [Event::GossipRound {
                replica: 1,
                fanout: 2,
                alive: 1,
                suspect: 1,
                learned: 2,
            }]
        );

        // Dials outside a round (anti-entropy) book, but emit nothing.
        let sync = [Dial::Sync("c:1".into())];
        assert_eq!(run_dials(&view, &sync, &obs, |_| false), None);
        assert_eq!(view.lock().count(PeerStatus::Suspect), 2);
        assert!(sink.is_empty());
    }
}
