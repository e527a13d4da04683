//! PROPHET: probabilistic routing using delivery predictabilities
//! (Lindgren et al., 2004).

use std::cmp::Ordering;
use std::collections::BTreeSet;

use pfr::sync::{Candidate, HostContext, ParkKey, ParkKeys, SendDecision, SyncRequest};
use pfr::wire::{Reader, WireError, Writer};
use pfr::{
    IStr, Priority, PriorityClass, RoutingPayload, RoutingState, SimDuration, SimTime,
    SyncExtension,
};

use crate::codec;
use crate::messaging::{dest_addresses, ATTR_DEST};
use crate::policy::{DtnPolicy, PolicySummary};

/// Tunable parameters for [`ProphetPolicy`].
///
/// Defaults are the paper's Table II values: `P_init = 0.75`, `β = 0.25`,
/// `γ = 0.98` (aged once per hour).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProphetParams {
    /// Additive predictability boost on a direct encounter (`P_init`).
    pub p_init: f64,
    /// Transitivity scaling factor (`β`).
    pub beta: f64,
    /// Aging factor applied per aging interval (`γ`).
    pub gamma: f64,
    /// How much elapsed time counts as one aging unit.
    pub aging_interval: SimDuration,
    /// Predictabilities that age below this floor are dropped (treated as
    /// zero). Pruning keeps the vector — which travels in every sync
    /// request — compact, and stops vanishingly small transitive values
    /// from triggering forwarding: without a floor the `P_target >
    /// P_source` rule degenerates into flooding along noise gradients.
    pub floor: f64,
}

impl Default for ProphetParams {
    fn default() -> Self {
        ProphetParams {
            p_init: 0.75,
            beta: 0.25,
            gamma: 0.98,
            aging_interval: SimDuration::from_mins(10),
            floor: 0.3,
        }
    }
}

/// PROPHET as a replication policy (paper §V-C3).
///
/// Each host maintains a *delivery predictability* `P[d] ∈ [0, 1]` per
/// destination address. When hosts meet, predictabilities for the peer's
/// addresses are boosted; all predictabilities age down over time; and the
/// peer's vector (carried in the sync request) is folded in transitively.
/// A message is forwarded only to peers with strictly greater
/// predictability for its destination.
///
/// Each encounter runs two syncs with the roles swapped; a host updates
/// its vector when acting as *source* (in `process_request`), so each
/// host's vector is updated exactly once per encounter — matching §V-C3.
///
/// # Examples
///
/// ```
/// use dtn::{DtnPolicy, ProphetPolicy};
///
/// let policy = ProphetPolicy::default();
/// assert_eq!(policy.name(), "prophet");
/// assert_eq!(policy.params().p_init, 0.75);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProphetPolicy {
    params: ProphetParams,
    /// What this host tells every peer it pulls from: its address table.
    advert: Advert,
    /// Slot → the park key of its address, computed when the slot was
    /// made.
    keys: Vec<ParkKey>,
    /// Slot → whether its address is one of this host's own.
    local: Vec<bool>,
    /// The forwarding decision for the sync in progress, taken once per
    /// destination when its request is processed: slot → the requesting
    /// peer's predictability where it is a strictly better custodian,
    /// else [`ABSENT`]. `to_send` only reads it.
    peer_better: Vec<f64>,
    /// The slots `peer_better` holds a value for.
    better_slots: Vec<u32>,
    /// Last time the vector was aged.
    last_aged: SimTime,
    /// Whether a value may sit below the floor outside the slots a
    /// request changes: after a restore, until the next ageing or pruning
    /// pass over every slot.
    prune_all: bool,
}

/// No value for a slot: no predictability held, or no better custodian.
/// Every comparison with it is false, so no arithmetic can mistake it for
/// a probability.
const ABSENT: f64 = f64::NAN;

fn present(p: f64) -> bool {
    !p.is_nan()
}

/// A slot's value, 0 if it has none.
fn or_zero(p: f64) -> f64 {
    if present(p) {
        p
    } else {
        0.0
    }
}

/// Where an address sorts in an address table: by its allocation, which
/// every interned handle to it shares ([`IStr`]).
fn key(addr: &IStr) -> usize {
    addr.as_ptr() as usize
}

/// Drops a value below `floor`: weak transitive traces must not open
/// forwarding gradients (see [`ProphetParams::floor`]).
fn prune(p: &mut f64, floor: f64) {
    // Not at or above: an absent value (or a NaN floor) drops too.
    if !matches!(
        (*p).partial_cmp(&floor),
        Some(Ordering::Greater | Ordering::Equal)
    ) {
        *p = ABSENT;
    }
}

/// Keeps the elements of `v` whose mark in `kept` is set.
fn retain_marked<T>(v: &mut Vec<T>, kept: &[bool]) {
    let mut marks = kept.iter();
    v.retain(|_| marks.next() == Some(&true));
}

/// A table below this many slots is never compacted.
const COMPACT_FROM: usize = 64;

/// The routing data of a PROPHET sync request — the host's address table
/// — lent as it stands to a co-located source, and encoded ascending by
/// address for one across a wire.
///
/// The table numbers every address the host predicts, was told of or is
/// with a *slot*, and keeps its predictability there (or [`ABSENT`]).
/// Slots ascend by the address's allocation, which is the same for every
/// table in the process, so a request lines two tables up by comparing
/// integers — no string is read — and ageing, boosting, folding and
/// pruning are float arithmetic on the slots.
#[derive(Clone, Debug, Default)]
struct Advert {
    /// Addresses this host is final destination for.
    local_addrs: BTreeSet<IStr>,
    /// Slot → address and predictability, ascending by [`key`].
    slots: Vec<(IStr, f64)>,
}

impl Advert {
    /// The vector ascending by address: every slot with a value.
    fn vector(&self) -> Vec<(&IStr, f64)> {
        let mut vector: Vec<(&IStr, f64)> = (self.slots.iter())
            .filter(|(_, p)| present(*p))
            .map(|(addr, p)| (addr, *p))
            .collect();
        vector.sort_unstable_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
        vector
    }

    /// The slot of `addr`, or where it would go.
    fn find(&self, addr: &IStr) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&key(addr), |(a, _)| key(a))
    }

    /// Applies `update` to every value, then drops those below `floor`.
    fn retain_above(&mut self, floor: f64, mut update: impl FnMut(&mut f64)) {
        for (_, p) in &mut self.slots {
            update(p);
            prune(p, floor);
        }
    }
}

impl RoutingPayload for Advert {
    fn encode(&self, w: &mut Writer) {
        codec::put_addrs(w, &self.local_addrs);
        codec::put_addr_probs(w, self.vector().into_iter());
    }
}

impl codec::Advert for Advert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let local_addrs = codec::get_addrs(r)?;
        let mut slots = codec::get_addr_probs(r)?;
        slots.sort_unstable_by_key(|(addr, _)| key(addr));
        Ok(Advert { local_addrs, slots })
    }
}

impl ProphetPolicy {
    /// Creates the policy with explicit parameters.
    pub fn new(params: ProphetParams) -> Self {
        ProphetPolicy {
            params,
            ..ProphetPolicy::default()
        }
    }

    /// The policy's parameters.
    pub fn params(&self) -> ProphetParams {
        self.params
    }

    /// The current delivery predictability for an address (0 if never
    /// encountered).
    pub fn predictability(&self, addr: &str) -> f64 {
        (self.advert.slots.iter())
            .find(|(a, _)| a.as_str() == addr)
            .map_or(0.0, |&(_, p)| or_zero(p))
    }

    /// The slot of `addr`, made (with no value) if it is new.
    fn slot(&mut self, addr: &IStr) -> usize {
        self.advert
            .find(addr)
            .unwrap_or_else(|at| self.make_slot(at, addr))
    }

    /// Makes a slot for `addr` at `at`, where it sorts, moving the slots
    /// above it up by one. `better_slots` must list no slot at or above
    /// `at`: it is empty outside a request, and a request makes slots in
    /// ascending order above those it has ranked.
    fn make_slot(&mut self, at: usize, addr: &IStr) -> usize {
        debug_assert!(self.better_slots.iter().all(|&slot| (slot as usize) < at));
        self.advert.slots.insert(at, (addr.clone(), ABSENT));
        self.keys.insert(at, ParkKey::of(addr));
        self.local.insert(at, false);
        self.peer_better.insert(at, ABSENT);
        at
    }

    /// Drops the slots with neither a value nor a local address once they
    /// are more than half of a table of at least [`COMPACT_FROM`], so a
    /// stream of peers naming fresh addresses cannot grow the table
    /// without bound. Slot numbers change, so `peer_better` must be empty.
    fn compact(&mut self) {
        let slots = self.advert.slots.len();
        if slots < COMPACT_FROM {
            return;
        }
        let kept: Vec<bool> = (self.advert.slots.iter().zip(&self.local))
            .map(|(&(_, p), &local)| present(p) || local)
            .collect();
        let live = kept.iter().filter(|&&k| k).count();
        if slots <= 2 * live + COMPACT_FROM {
            return;
        }
        retain_marked(&mut self.advert.slots, &kept);
        retain_marked(&mut self.keys, &kept);
        retain_marked(&mut self.local, &kept);
        self.peer_better.truncate(live);
    }

    /// Ages all predictabilities: `P *= γ^k` where `k` is the number of
    /// whole aging intervals elapsed (paper: "aged down while disconnected").
    fn age(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_aged);
        let units = elapsed.as_secs() / self.params.aging_interval.as_secs().max(1);
        if units == 0 {
            return;
        }
        let factor = self.params.gamma.powi(units.min(10_000) as i32);
        self.advert
            .retain_above(self.params.floor, |p| *p *= factor);
        self.prune_all = false;
        self.last_aged = now;
    }

    /// Direct-encounter update for each of the peer's addresses:
    /// `P = P + (1 - P) * P_init`. Returns the link strength to the peer,
    /// the best predictability over its addresses after the boost.
    fn boost_direct(&mut self, addrs: &BTreeSet<IStr>) -> f64 {
        let p_init = self.params.p_init;
        let mut link = 0.0f64;
        for addr in addrs {
            let slot = self.slot(addr);
            let p = &mut self.advert.slots[slot].1;
            let held = or_zero(*p);
            *p = held + (1.0 - held) * p_init;
            link = link.max(*p);
        }
        link
    }

    /// Transitive update through the peer: for each destination `c` the
    /// peer predicts with `p_bc`, `P[c] += (1 - P[c]) * P[peer] * p_bc * β`.
    /// One pass over both tables in slot order, making a slot for each
    /// address new here, that also applies the forwarding rule to each
    /// destination the peer predicts: it is a better custodian where
    /// `p_bc` beats what the pruning that follows leaves of `P[c]`.
    fn fold_and_rank(&mut self, p_peer_link: f64, peer: &Advert) {
        let (beta, floor) = (self.params.beta, self.params.floor);
        let mut at = 0;
        for (addr, p_bc) in &peer.slots {
            let p_bc = *p_bc;
            if !present(p_bc) {
                continue;
            }
            let wanted = key(addr);
            while (self.advert.slots.get(at)).is_some_and(|(a, _)| key(a) < wanted) {
                at += 1;
            }
            if (self.advert.slots.get(at)).is_none_or(|(a, _)| key(a) != wanted) {
                self.make_slot(at, addr);
            }
            let p = &mut self.advert.slots[at].1;
            if !self.local[at] {
                let held = or_zero(*p);
                *p = held + (1.0 - held) * p_peer_link * p_bc * beta;
            }
            prune(p, floor);
            if p_bc > or_zero(*p) {
                self.better_slots.push(at as u32);
                self.peer_better[at] = p_bc;
            }
        }
    }

    /// Prunes the peer's own addresses and applies the forwarding rule
    /// to them: the peer trivially delivers to itself, whatever its vector
    /// says, so 1.0 replaces whatever its vector gave. Each has a slot
    /// here since `boost_direct`.
    fn rank_peer_addrs(&mut self, peer: &Advert) {
        for addr in &peer.local_addrs {
            let Ok(slot) = self.advert.find(addr) else {
                continue;
            };
            let p = &mut self.advert.slots[slot].1;
            prune(p, self.params.floor);
            if 1.0 > or_zero(*p) {
                if !present(self.peer_better[slot]) {
                    self.better_slots.push(slot as u32);
                }
                self.peer_better[slot] = 1.0;
            }
        }
    }

    /// Empties `peer_better`.
    fn clear_peer_better(&mut self) {
        for &slot in &self.better_slots {
            self.peer_better[slot as usize] = ABSENT;
        }
        self.better_slots.clear();
    }
}

impl SyncExtension for ProphetPolicy {
    fn label(&self) -> &'static str {
        "prophet"
    }

    fn generate_request<'a>(&'a mut self, cx: &mut HostContext<'_>) -> RoutingState<'a> {
        self.age(cx.now());
        RoutingState::lend(&self.advert)
    }

    fn process_request(&mut self, cx: &mut HostContext<'_>, request: &SyncRequest) {
        self.age(cx.now());
        // Whatever the previous peer was better at says nothing about
        // this one, whether or not its routing state decodes.
        self.clear_peer_better();
        self.compact();
        let Some(theirs) = codec::receive::<Advert>(&request.routing) else {
            return; // peer runs a different policy; no routing data
        };

        // Direct component: meeting the peer boosts its addresses; the
        // link strength to the peer is the best of them after the boost.
        let p_peer_link = self.boost_direct(&theirs.local_addrs);
        // Transitive component through the peer's own vector, and the
        // destinations it predicts strictly better than this host — the
        // forwarding rule, applied here once per destination instead of
        // once per candidate in the selection loop that follows. Every
        // value a request changed is pruned as it is ranked: the others
        // are at or above the floor already, unless a restore put them
        // there.
        self.fold_and_rank(p_peer_link, &theirs);
        self.rank_peer_addrs(&theirs);
        if std::mem::take(&mut self.prune_all) {
            self.advert.retain_above(self.params.floor, |_| {});
        }
    }

    fn to_send(&mut self, item: &mut Candidate<'_>, _request: &SyncRequest) -> SendDecision {
        if item.is_deleted() {
            return SendDecision::Send(Priority::normal());
        }
        // Multicast: forward if the peer is a better custodian for *any*
        // remaining destination; urgency follows the best such gain.
        let mut best = None;
        if !self.better_slots.is_empty() {
            for dest in dest_addresses(item) {
                let Ok(slot) = self.advert.find(dest) else {
                    continue;
                };
                let theirs = self.peer_better[slot];
                if present(theirs) {
                    best = Some(best.map_or(theirs, |b: f64| b.max(theirs)));
                }
            }
        }
        match best {
            // Higher peer confidence transmits earlier.
            Some(theirs) => SendDecision::Send(Priority::new(PriorityClass::Normal, 1.0 - theirs)),
            // Parked under its destinations: a later peer that is better
            // at one of them names it in `park_keys`.
            None => SendDecision::Park,
        }
    }

    /// The verdict depends only on which destinations the peer is better
    /// at, so those are the parked copies this sync judges again.
    fn park_keys(&self, keys: &mut ParkKeys<'_>) {
        keys.file_under(ATTR_DEST);
        for &slot in &self.better_slots {
            keys.want_key(self.keys[slot as usize]);
        }
    }
}

impl DtnPolicy for ProphetPolicy {
    fn name(&self) -> &'static str {
        "prophet"
    }

    fn summary(&self) -> PolicySummary {
        PolicySummary {
            protocol: "PROPHET",
            routing_state: "vector of delivery predictabilities: P[d] for each dest d",
            added_to_sync_request: "target's P vector",
            source_forwarding_policy: "messages addressed to dest when target's P[dest] > source's",
            parameters: vec![
                ("Pinit".to_string(), format!("{}", self.params.p_init)),
                ("beta".to_string(), format!("{}", self.params.beta)),
                ("gamma".to_string(), format!("{}", self.params.gamma)),
            ],
        }
    }

    fn set_local_addresses(&mut self, addrs: BTreeSet<String>) {
        // New slots renumber the ones above them: the last request's
        // verdicts go first (the next request would drop them anyway).
        self.clear_peer_better();
        let local_addrs = codec::intern_addrs(&addrs);
        self.local.fill(false);
        for addr in &local_addrs {
            let slot = self.slot(addr);
            self.local[slot] = true;
        }
        self.advert.local_addrs = local_addrs;
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        codec::put_addr_probs(&mut w, self.advert.vector().into_iter());
        w.put_varint(self.last_aged.as_secs());
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        let mut r = Reader::new(bytes);
        if let (Ok(probs), Ok(secs)) = (codec::get_addr_probs(&mut r), r.get_varint()) {
            self.clear_peer_better();
            for (_, p) in &mut self.advert.slots {
                *p = ABSENT;
            }
            for (addr, p) in probs {
                let slot = self.slot(&addr);
                self.advert.slots[slot].1 = p;
            }
            self.last_aged = SimTime::from_secs(secs);
            self.prune_all = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messaging::ATTR_DEST;
    use pfr::{sync, AttributeMap, Filter, Replica, ReplicaId, SyncLimits};

    fn host(n: u64, addr: &str) -> (Replica, ProphetPolicy) {
        let replica = Replica::new(ReplicaId::new(n), Filter::address(ATTR_DEST, addr));
        let mut policy = ProphetPolicy::default();
        policy.set_local_addresses([addr.to_string()].into_iter().collect());
        (replica, policy)
    }

    fn encounter(a: &mut (Replica, ProphetPolicy), b: &mut (Replica, ProphetPolicy), t: u64) {
        let now = SimTime::from_secs(t);
        sync::sync_with(
            &mut a.0,
            &mut a.1,
            &mut b.0,
            &mut b.1,
            SyncLimits::unlimited(),
            now,
        );
        sync::sync_with(
            &mut b.0,
            &mut b.1,
            &mut a.0,
            &mut a.1,
            SyncLimits::unlimited(),
            now,
        );
    }

    #[test]
    fn direct_encounters_boost_predictability() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        assert_eq!(a.1.predictability("b"), 0.0);
        encounter(&mut a, &mut b, 0);
        let p1 = a.1.predictability("b");
        assert!(
            (p1 - 0.75).abs() < 1e-9,
            "first meeting gives P_init, got {p1}"
        );
        encounter(&mut a, &mut b, 10);
        let p2 = a.1.predictability("b");
        assert!(p2 > p1 && p2 < 1.0, "repeat meetings increase P: {p2}");
        // Symmetric on b's side.
        assert!(b.1.predictability("a") >= 0.75 - 1e-9);
    }

    #[test]
    fn predictability_ages_down() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        encounter(&mut a, &mut b, 0);
        let before = a.1.predictability("b");
        // Two hours later (12 ten-minute aging units), an encounter with an
        // unrelated host triggers aging.
        let mut c = host(3, "c");
        encounter(&mut a, &mut c, 2 * 3600);
        let after = a.1.predictability("b");
        let expected = before * 0.98f64.powi(12);
        assert!(
            (after - expected).abs() < 1e-9,
            "expected {expected}, got {after}"
        );
    }

    #[test]
    fn predictability_prunes_below_floor() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        encounter(&mut a, &mut b, 0);
        assert!(a.1.predictability("b") > 0.0);
        // Long enough for 0.75 to age under the 0.3 floor (gamma^k < 0.4).
        let mut c = host(3, "c");
        encounter(&mut a, &mut c, 10 * 3600);
        assert_eq!(
            a.1.predictability("b"),
            0.0,
            "sub-floor predictabilities must be dropped"
        );
    }

    #[test]
    fn transitivity_builds_indirect_predictability() {
        // Use a zero floor so weak transitive values are observable.
        let params = ProphetParams {
            floor: 0.0,
            ..ProphetParams::default()
        };
        let mk = |n: u64, addr: &str| {
            let replica = Replica::new(ReplicaId::new(n), Filter::address(ATTR_DEST, addr));
            let mut policy = ProphetPolicy::new(params);
            policy.set_local_addresses([addr.to_string()].into_iter().collect());
            (replica, policy)
        };
        let mut a = mk(1, "a");
        let mut b = mk(2, "b");
        let mut c = mk(3, "c");
        // b meets c, then a meets b: a should learn about c through b.
        encounter(&mut b, &mut c, 0);
        encounter(&mut a, &mut b, 60);
        let p_ac = a.1.predictability("c");
        assert!(p_ac > 0.0, "transitive predictability must appear");
        assert!(
            p_ac < a.1.predictability("b"),
            "indirect < direct: {p_ac} vs {}",
            a.1.predictability("b")
        );
    }

    #[test]
    fn forwards_only_to_better_custodians() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut c = host(3, "c");
        let mut d = host(4, "d");

        // b frequently meets d; c never does.
        for i in 0..3 {
            encounter(&mut b, &mut d, i * 60);
        }
        // a holds a message for d.
        let mut attrs = AttributeMap::new();
        attrs.set(ATTR_DEST, "d");
        let id = a.0.insert(attrs, vec![]).unwrap();

        // a meets c (P_c[d] = 0 = P_a[d]): no forwarding.
        encounter(&mut a, &mut c, 1000);
        assert!(
            !c.0.contains_item(id),
            "equal predictability must not forward"
        );

        // a meets b (P_b[d] > 0 = P_a[d]): forward.
        encounter(&mut a, &mut b, 2000);
        assert!(
            b.0.contains_item(id),
            "better custodian receives the message"
        );
    }

    #[test]
    fn a_stranger_is_not_judged_by_the_previous_peers_vector() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut d = host(4, "d");
        // b is a good custodian for d; a holds a message for d.
        encounter(&mut b, &mut d, 0);
        let mut attrs = AttributeMap::new();
        attrs.set(ATTR_DEST, "d");
        let id = a.0.insert(attrs, vec![]).unwrap();
        encounter(&mut a, &mut b, 60);
        assert!(b.0.contains_item(id), "b's vector earns it the message");

        // Next comes a peer whose routing state does not decode (another
        // policy, a corrupt frame). Nothing is known about what it is
        // good at, so nothing may be policy-forwarded to it — least of
        // all on the strength of b's vector.
        let mut stranger = Replica::new(ReplicaId::new(9), Filter::address(ATTR_DEST, "s"));
        struct Garbage;
        impl SyncExtension for Garbage {
            fn generate_request(&mut self, _cx: &mut HostContext<'_>) -> RoutingState<'_> {
                RoutingState::from_bytes(vec![0xff; 7])
            }
        }
        let report = sync::sync_with(
            &mut a.0,
            &mut a.1,
            &mut stranger,
            &mut Garbage,
            SyncLimits::unlimited(),
            SimTime::from_secs(120),
        );
        assert_eq!(report.transmitted, 0);
        assert!(!stranger.contains_item(id));
    }

    /// A request as a peer at `addr` advertising `vector` would put it on
    /// the wire — hostile values included, which no honest encoder emits.
    fn request_from(peer: u64, addr: &str, vector: &[(&str, f64)]) -> SyncRequest<'static> {
        request_with(peer, &[addr], vector)
    }

    /// [`request_from`] for a peer at several addresses, its vector
    /// written in the order given: repeated or unsorted addresses too.
    fn request_with(peer: u64, addrs: &[&str], vector: &[(&str, f64)]) -> SyncRequest<'static> {
        let mut w = Writer::new();
        codec::put_addrs(&mut w, &addrs.iter().map(|&a| IStr::new(a)).collect());
        w.put_varint(vector.len() as u64);
        for &(addr, p) in vector {
            w.put_str(addr);
            w.put_f64(p);
        }
        SyncRequest {
            target: ReplicaId::new(peer),
            knowledge: Default::default(),
            filter: std::borrow::Cow::Owned(Filter::any_address(ATTR_DEST, addrs.iter().copied())),
            routing: RoutingState::from_bytes(w.into_bytes()),
        }
    }

    /// The destinations the last request's peer is better at, with its
    /// predictability for each, ascending by address.
    fn peer_better(policy: &ProphetPolicy) -> Vec<(String, f64)> {
        let slots = policy.advert.slots.iter().zip(&policy.peer_better);
        let mut better: Vec<(String, f64)> = slots
            .filter(|(_, p)| present(**p))
            .map(|((addr, _), p)| (addr.to_string(), *p))
            .collect();
        better.sort_by(|a, b| a.0.cmp(&b.0));
        better
    }

    fn assert_all_in_unit_interval(policy: &ProphetPolicy) {
        for (addr, p) in policy.advert.vector() {
            assert!((0.0..=1.0).contains(&p), "P[{addr}] = {p}");
        }
    }

    #[test]
    fn a_hostile_vector_is_no_routing_data_and_poisons_nothing() {
        for hostile in [f64::INFINITY, 1e300, f64::NAN, -0.5, 1.5] {
            let mut a = host(1, "a");
            let mut attrs = AttributeMap::new();
            attrs.set(ATTR_DEST, "victim");
            let id = a.0.insert(attrs, vec![]).unwrap();

            // One request from a liar claiming the victim's address.
            let lie = request_from(66, "evil", &[("victim", hostile)]);
            sync::prepare_batch(
                &mut a.0,
                &mut a.1,
                &lie,
                SyncLimits::unlimited(),
                SimTime::ZERO,
            );
            assert_eq!(a.1.predictability("victim"), 0.0, "{hostile} was folded in");
            assert_eq!(
                a.1.predictability("evil"),
                0.0,
                "an undecodable advert boosts nothing"
            );
            assert_all_in_unit_interval(&a.1);

            // Ten days on, an honest courier that meets the victim daily
            // still wins the message.
            let ten_days = 10 * 86_400;
            let mut courier = host(2, "c");
            let mut victim = host(3, "victim");
            encounter(&mut courier, &mut victim, ten_days - 60);
            encounter(&mut a, &mut courier, ten_days);
            assert!(courier.0.contains_item(id), "black-holed by {hostile}");
            assert_all_in_unit_interval(&a.1);
            // And what `a` goes on to advertise is clean too.
            let mut w = Writer::new();
            a.1.advert.encode(&mut w);
            assert!(<Advert as codec::Advert>::decode(&mut Reader::new(w.as_slice())).is_ok());
        }
    }

    mod invariants {
        use super::*;
        use proptest::prelude::*;

        /// Any bit pattern at all, with the dangerous ones common.
        fn arb_f64() -> impl Strategy<Value = f64> {
            prop_oneof![
                any::<u64>().prop_map(f64::from_bits),
                (0u32..=1000).prop_map(|n| f64::from(n) / 1000.0),
                Just(f64::INFINITY),
                Just(f64::NAN),
                Just(1e300),
                Just(-1.0),
                Just(1.0 + f64::EPSILON),
            ]
        }

        proptest! {
            /// ROADMAP 4(b), first invariant: whatever vectors arrive as
            /// bytes, in whatever order, every predictability a node holds
            /// stays in [0, 1].
            #[test]
            fn predictabilities_stay_in_the_unit_interval(
                requests in proptest::collection::vec(
                    (2u64..6, proptest::collection::vec((0u8..5, arb_f64()), 0..5), 0u64..90_000),
                    1..12,
                ),
            ) {
                let mut a = host(1, "a");
                let mut now = 0;
                for (peer, vector, gap) in requests {
                    now += gap;
                    let names: Vec<String> = vector.iter().map(|(d, _)| format!("d{d}")).collect();
                    let vector: Vec<(&str, f64)> = names
                        .iter()
                        .zip(&vector)
                        .map(|(name, &(_, p))| (name.as_str(), p))
                        .collect();
                    let request = request_from(peer, &format!("p{peer}"), &vector);
                    sync::prepare_batch(
                        &mut a.0,
                        &mut a.1,
                        &request,
                        SyncLimits::unlimited(),
                        SimTime::from_secs(now),
                    );
                    for (addr, p) in a.1.advert.vector() {
                        prop_assert!((0.0..=1.0).contains(&p), "P[{}] = {}", addr, p);
                    }
                }
            }
        }
    }

    #[test]
    fn a_vector_decodes_as_map_inserts_in_list_order_or_not_at_all() {
        // Repeated and unsorted addresses: the later value of a repeat
        // wins, and the vector comes out ascending by address.
        let listed = [("a3", 0.5), ("a1", 0.25), ("a3", 0.75), ("a0", 1.0)];
        let request = request_with(2, &["b"], &listed);
        let decoded = codec::receive::<Advert>(&request.routing).expect("decodes");
        let vector = decoded.vector().into_iter();
        let vector: Vec<(&str, u64)> = vector.map(|(a, p)| (a.as_str(), p.to_bits())).collect();
        let inserted: std::collections::BTreeMap<&str, f64> = listed.into_iter().collect();
        let inserted: Vec<(&str, u64)> = inserted
            .into_iter()
            .map(|(a, p)| (a, p.to_bits()))
            .collect();
        assert_eq!(vector, inserted);
        // One probability outside [0, 1] and the whole advert is no
        // routing data.
        for hostile in [1.5, -0.5, f64::NAN, f64::INFINITY] {
            let request = request_with(2, &["b"], &[("a0", 0.5), ("a1", hostile)]);
            assert!(
                codec::receive::<Advert>(&request.routing).is_none(),
                "{hostile}"
            );
        }
    }

    #[test]
    fn peer_self_addresses_count_as_certain_delivery() {
        // A host's predictability for its own address is treated as 1.0,
        // so messages addressed to the peer itself always flow (they also
        // match the peer's filter, but relayed copies of multi-address
        // items rely on this).
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        encounter(&mut a, &mut b, 0);
        assert_eq!(peer_better(&a.1), [("b".to_string(), 1.0)]);
    }

    #[test]
    fn restored_values_below_the_floor_go_at_the_next_request() {
        let mut a = host(1, "a");
        let mut w = Writer::new();
        let below = [(IStr::new("x"), 0.1), (IStr::new("y"), 0.5)];
        codec::put_addr_probs(&mut w, below.iter().map(|(addr, p)| (addr, *p)));
        w.put_varint(0);
        a.1.restore_state(w.as_slice());
        assert_eq!(a.1.predictability("x"), 0.1, "restored as saved");
        // No ageing (no time passed), and a request that names neither.
        let request = request_from(2, "b", &[]);
        sync::prepare_batch(
            &mut a.0,
            &mut a.1,
            &request,
            SyncLimits::unlimited(),
            SimTime::ZERO,
        );
        assert_eq!(a.1.predictability("x"), 0.0, "pruned");
        assert_eq!(a.1.predictability("y"), 0.5);
    }

    #[test]
    fn fresh_addresses_from_peers_do_not_grow_the_table_without_bound() {
        let mut a = host(1, "a");
        for round in 0..200u64 {
            // Each request names eight addresses never seen before, all
            // below the floor once folded in.
            let names: Vec<String> = (0..8).map(|i| format!("x{round}-{i}")).collect();
            let vector: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), 0.01)).collect();
            let request = request_from(2, "b", &vector);
            sync::prepare_batch(
                &mut a.0,
                &mut a.1,
                &request,
                SyncLimits::unlimited(),
                SimTime::from_secs(round),
            );
        }
        // Two live slots ("a", own; "b", held), the slack, and what the
        // last request numbered.
        assert!(
            a.1.advert.slots.len() <= 2 * 2 + COMPACT_FROM + 8,
            "{}",
            a.1.advert.slots.len()
        );
        let kept: Vec<&str> = (a.1.advert.vector().into_iter())
            .map(|(addr, _)| addr.as_str())
            .collect();
        assert_eq!(kept, ["b"]);
        assert!(a.1.predictability("b") > 0.99);
    }

    #[test]
    fn summary_matches_tables() {
        let s = ProphetPolicy::default().summary();
        assert!(s.added_to_sync_request.contains("P vector"));
        assert_eq!(
            s.parameters,
            vec![
                ("Pinit".to_string(), "0.75".to_string()),
                ("beta".to_string(), "0.25".to_string()),
                ("gamma".to_string(), "0.98".to_string()),
            ]
        );
    }
}
