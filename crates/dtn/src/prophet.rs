//! PROPHET: probabilistic routing using delivery predictabilities
//! (Lindgren et al., 2004).

use std::collections::BTreeSet;

use pfr::sync::{Candidate, HostContext, ParkKeys, SendDecision, SyncRequest};
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
    /// What this host tells every peer it pulls from.
    advert: Advert,
    /// The forwarding decision for the sync in progress, taken once per
    /// destination when its request is processed: the destinations for
    /// which the requesting peer is a strictly better custodian, with the
    /// peer's predictability for each, ascending by address. `to_send`
    /// only looks a candidate's destinations up here.
    peer_better: Vec<(IStr, f64)>,
    /// Last time the vector was aged.
    last_aged: SimTime,
}

/// The routing data of a PROPHET sync request: lent as it stands to a
/// co-located source, encoded in field order for one across a wire.
#[derive(Clone, Debug, Default)]
struct Advert {
    /// Addresses this host is final destination for.
    local_addrs: BTreeSet<IStr>,
    /// Own delivery predictabilities, ascending by destination address,
    /// each address once.
    predictability: Vec<(IStr, f64)>,
}

impl RoutingPayload for Advert {
    fn encode(&self, w: &mut Writer) {
        codec::put_addrs(w, &self.local_addrs);
        codec::put_addr_probs(w, self.predictability.iter().map(|(a, p)| (a, p)));
    }
}

impl codec::Advert for Advert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Advert {
            local_addrs: codec::get_addrs(r)?,
            predictability: codec::get_addr_probs(r)?,
        })
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
        lookup(&self.advert.predictability, addr).unwrap_or(0.0)
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
        let floor = self.params.floor;
        self.advert.predictability.retain_mut(|(_, p)| {
            *p *= factor;
            *p >= floor
        });
        self.last_aged = now;
    }

    /// Direct-encounter update for each of the peer's addresses:
    /// `P = P + (1 - P) * P_init`. Returns the link strength to the peer,
    /// the best predictability over its addresses after the boost.
    fn boost_direct(&mut self, addrs: &BTreeSet<IStr>) -> f64 {
        let p_init = self.params.p_init;
        let mut link = 0.0f64;
        update_each(
            &mut self.advert.predictability,
            addrs.iter().map(|addr| (addr, ())),
            |p, ()| {
                *p += (1.0 - *p) * p_init;
                link = link.max(*p);
            },
        );
        link
    }

    /// Transitive update through the peer: for each destination `c` the
    /// peer predicts with `p_bc`, `P[c] += (1 - P[c]) * P[peer] * p_bc * β`.
    fn fold_transitive(&mut self, p_peer_link: f64, peer_vector: &[(IStr, f64)]) {
        let beta = self.params.beta;
        let local = &self.advert.local_addrs;
        update_each(
            &mut self.advert.predictability,
            peer_vector
                .iter()
                .filter(|(addr, _)| !local.contains(addr))
                .map(|(addr, p_bc)| (addr, *p_bc)),
            |p, p_bc| *p += (1.0 - *p) * p_peer_link * p_bc * beta,
        );
    }

    /// Fills the emptied `peer_better` from the peer's advert: the
    /// destinations the peer predicts, or is, strictly better than this
    /// host. The peer trivially delivers to itself, whatever its vector
    /// says. One pass over the peer's vector and addresses, beside this
    /// host's vector.
    fn rank_peer(&mut self, theirs: &Advert) {
        let mine = &self.advert.predictability;
        let mut at = 0;
        let mut predicted = theirs.predictability.iter().peekable();
        let mut own = theirs.local_addrs.iter().peekable();
        loop {
            // Ascending through both lists; an address in both is the
            // peer's own, so it counts as certain.
            let next_own = own.next_if(|o| predicted.peek().is_none_or(|(a, _)| *o <= a));
            let (addr, p) = match next_own {
                Some(addr) => {
                    predicted.next_if(|(a, _)| a == addr);
                    (addr, 1.0)
                }
                None => match predicted.next() {
                    Some((addr, p)) => (addr, *p),
                    None => break,
                },
            };
            while mine.get(at).is_some_and(|(m, _)| m < addr) {
                at += 1;
            }
            let held = mine.get(at).filter(|(m, _)| m == addr).map_or(0.0, |e| e.1);
            if p > held {
                self.peer_better.push((addr.clone(), p));
            }
        }
    }
}

/// `addr`'s value in an address-ascending vector.
fn lookup(vector: &[(IStr, f64)], addr: &str) -> Option<f64> {
    vector
        .binary_search_by(|(a, _)| a.as_str().cmp(addr))
        .ok()
        .map(|at| vector[at].1)
}

/// Applies `update` to the entry of every address `updates` yields, in
/// ascending order, with the value given beside it: one pass over the
/// address-ascending `vector`. An address the vector lacks is inserted
/// where it belongs at 0.0 first, moving the entries above it up in
/// place — nothing is allocated once the vector has the room.
fn update_each<'a, T>(
    vector: &mut Vec<(IStr, f64)>,
    updates: impl Iterator<Item = (&'a IStr, T)>,
    mut update: impl FnMut(&mut f64, T),
) {
    let mut at = 0;
    for (addr, value) in updates {
        while vector.get(at).is_some_and(|(a, _)| a < addr) {
            at += 1;
        }
        if vector.get(at).is_none_or(|(a, _)| a != addr) {
            vector.insert(at, (addr.clone(), 0.0));
        }
        update(&mut vector[at].1, value);
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
        self.peer_better.clear();
        let Some(theirs) = codec::receive::<Advert>(&request.routing) else {
            return; // peer runs a different policy; no routing data
        };

        // Direct component: meeting the peer boosts its addresses; the
        // link strength to the peer is the best of them after the boost.
        let p_peer_link = self.boost_direct(&theirs.local_addrs);
        // Transitive component through the peer's own vector.
        self.fold_transitive(p_peer_link, &theirs.predictability);
        // Prune sub-floor values immediately: weak transitive traces must
        // not open forwarding gradients (see [`ProphetParams::floor`]).
        let floor = self.params.floor;
        self.advert.predictability.retain(|(_, p)| *p >= floor);
        // Keep the destinations the peer is strictly better at — the
        // forwarding rule, applied here once per destination instead of
        // once per candidate in the selection loop that follows.
        self.rank_peer(&theirs);
    }

    fn to_send(&mut self, item: &mut Candidate<'_>, _request: &SyncRequest) -> SendDecision {
        if item.is_deleted() {
            return SendDecision::Send(Priority::normal());
        }
        // Multicast: forward if the peer is a better custodian for *any*
        // remaining destination; urgency follows the best such gain.
        let best = dest_addresses(item)
            .filter_map(|dest| lookup(&self.peer_better, dest))
            .reduce(f64::max);
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
        for (addr, _) in &self.peer_better {
            keys.want(addr);
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
        self.advert.local_addrs = codec::intern_addrs(&addrs);
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        let probs = &self.advert.predictability;
        codec::put_addr_probs(&mut w, probs.iter().map(|(a, p)| (a, p)));
        w.put_varint(self.last_aged.as_secs());
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        let mut r = Reader::new(bytes);
        if let (Ok(probs), Ok(secs)) = (codec::get_addr_probs(&mut r), r.get_varint()) {
            self.advert.predictability = probs;
            self.last_aged = SimTime::from_secs(secs);
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

    fn assert_all_in_unit_interval(policy: &ProphetPolicy) {
        for (addr, p) in &policy.advert.predictability {
            assert!((0.0..=1.0).contains(p), "P[{addr}] = {p}");
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
                    for (addr, p) in &a.1.advert.predictability {
                        prop_assert!((0.0..=1.0).contains(p), "P[{}] = {}", addr, p);
                    }
                }
            }
        }
    }

    mod reference {
        //! The vector passes against `process_request` as it was written
        //! over `BTreeMap`s, kept here as their specification.

        use std::collections::BTreeMap;

        use proptest::prelude::*;

        use super::*;

        /// The `BTreeMap` PROPHET: the same arithmetic, key by key.
        struct Reference {
            params: ProphetParams,
            local_addrs: BTreeSet<IStr>,
            predictability: BTreeMap<IStr, f64>,
            peer_better: BTreeMap<IStr, f64>,
            last_aged: SimTime,
        }

        impl Reference {
            fn get(&self, addr: &str) -> f64 {
                self.predictability.get(addr).copied().unwrap_or(0.0)
            }

            fn age(&mut self, now: SimTime) {
                let elapsed = now.saturating_since(self.last_aged);
                let units = elapsed.as_secs() / self.params.aging_interval.as_secs().max(1);
                if units == 0 {
                    return;
                }
                let factor = self.params.gamma.powi(units.min(10_000) as i32);
                for p in self.predictability.values_mut() {
                    *p *= factor;
                }
                let floor = self.params.floor;
                self.predictability.retain(|_, p| *p >= floor);
                self.last_aged = now;
            }

            /// A request whose advert decoded to `addrs` and `vector`, or
            /// did not decode (`None`).
            fn process(
                &mut self,
                now: SimTime,
                theirs: Option<(&BTreeSet<IStr>, &BTreeMap<IStr, f64>)>,
            ) {
                self.age(now);
                self.peer_better.clear();
                let Some((addrs, vector)) = theirs else {
                    return;
                };
                for addr in addrs {
                    let p = self.predictability.entry(addr.clone()).or_insert(0.0);
                    *p += (1.0 - *p) * self.params.p_init;
                }
                let link = addrs.iter().map(|a| self.get(a)).fold(0.0f64, f64::max);
                for (addr, &p_bc) in vector {
                    if self.local_addrs.contains(addr) {
                        continue;
                    }
                    let p = self.predictability.entry(addr.clone()).or_insert(0.0);
                    *p += (1.0 - *p) * link * p_bc * self.params.beta;
                }
                let floor = self.params.floor;
                self.predictability.retain(|_, p| *p >= floor);
                let own = addrs.iter().map(|addr| (addr, 1.0));
                for (addr, p) in vector.iter().map(|(a, &p)| (a, p)).chain(own) {
                    if p > self.get(addr) {
                        self.peer_better.insert(addr.clone(), p);
                    } else {
                        self.peer_better.remove(addr);
                    }
                }
            }
        }

        /// Ten addresses: `a0` and `a1` are this host's own.
        fn addr(n: u8) -> String {
            format!("a{n}")
        }

        fn arb_prob() -> impl Strategy<Value = f64> {
            prop_oneof![
                (0u32..=1000).prop_map(|n| f64::from(n) / 1000.0),
                // Sub-floor and transitive-sized values.
                (0u32..=100).prop_map(|n| f64::from(n) / 1000.0),
                Just(0.0),
                Just(1.0),
                // Undecodable: the whole advert is no routing data.
                Just(1.5),
            ]
        }

        /// One request: the peer, its addresses (a mask over the ten),
        /// its vector as listed — repeats and any order — and the time
        /// since the last request.
        type Step = (u64, u16, Vec<(u8, f64)>, u64);

        fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
            let step = (
                2u64..6,
                1u16..1024,
                proptest::collection::vec((0u8..10, arb_prob()), 0..9),
                prop_oneof![Just(0u64), 0u64..1200, 0u64..40_000],
            );
            proptest::collection::vec(step, 1..16)
        }

        fn bits(entries: impl Iterator<Item = (String, f64)>) -> Vec<(String, u64)> {
            entries.map(|(a, p)| (a, p.to_bits())).collect()
        }

        proptest! {
            #[test]
            fn the_vector_passes_match_the_btreemap_reference(
                steps in arb_steps(),
                floor in prop_oneof![Just(0.0), Just(0.1), Just(0.3)],
                (p_init, beta, gamma) in (
                    prop_oneof![Just(0.75), Just(0.6)],
                    prop_oneof![Just(0.25), Just(0.3), Just(0.55)],
                    prop_oneof![Just(0.98), Just(0.9)],
                ),
            ) {
                let params = ProphetParams { p_init, beta, gamma, floor, ..ProphetParams::default() };
                let mine: BTreeSet<String> = [addr(0), addr(1)].into_iter().collect();
                let mut policy = ProphetPolicy::new(params);
                policy.set_local_addresses(mine.clone());
                let mut replica = Replica::new(ReplicaId::new(1), Filter::address(ATTR_DEST, "a0"));
                let mut reference = Reference {
                    params,
                    local_addrs: codec::intern_addrs(&mine),
                    predictability: BTreeMap::new(),
                    peer_better: BTreeMap::new(),
                    last_aged: SimTime::ZERO,
                };
                let mut now = 0;
                for (step, (peer, addr_mask, listed, gap)) in steps.into_iter().enumerate() {
                    now += gap;
                    let addrs: Vec<String> =
                        (0..10).filter(|n| addr_mask & (1 << n) != 0).map(addr).collect();
                    let addrs: Vec<&str> = addrs.iter().map(String::as_str).collect();
                    let names: Vec<String> = listed.iter().map(|&(n, _)| addr(n)).collect();
                    let vector: Vec<(&str, f64)> =
                        names.iter().zip(&listed).map(|(a, &(_, p))| (a.as_str(), p)).collect();
                    let request = request_with(peer, &addrs, &vector);

                    // What a map insert in list order makes of the vector,
                    // and the canonical vector the decoder must give.
                    let decodes = listed.iter().all(|&(_, p)| (0.0..=1.0).contains(&p));
                    let inserted: BTreeMap<IStr, f64> =
                        vector.iter().map(|&(a, p)| (IStr::new(a), p)).collect();
                    let decoded = codec::receive::<Advert>(&request.routing);
                    prop_assert_eq!(decoded.is_some(), decodes, "step {}", step);
                    if let Some(decoded) = &decoded {
                        prop_assert_eq!(
                            bits(decoded.predictability.iter().map(|(a, p)| (a.to_string(), *p))),
                            bits(inserted.iter().map(|(a, p)| (a.to_string(), *p))),
                            "step {}: decoded vector not canonical", step
                        );
                    }
                    let addr_set: BTreeSet<IStr> = addrs.iter().map(|&a| IStr::new(a)).collect();
                    reference.process(
                        SimTime::from_secs(now),
                        decodes.then_some((&addr_set, &inserted)),
                    );
                    sync::prepare_batch(
                        &mut replica,
                        &mut policy,
                        &request,
                        SyncLimits::unlimited(),
                        SimTime::from_secs(now),
                    );

                    prop_assert_eq!(
                        bits(policy.advert.predictability.iter().map(|(a, p)| (a.to_string(), *p))),
                        bits(reference.predictability.iter().map(|(a, p)| (a.to_string(), *p))),
                        "step {}: vectors differ", step
                    );
                    prop_assert_eq!(
                        bits(policy.peer_better.iter().map(|(a, p)| (a.to_string(), *p))),
                        bits(reference.peer_better.iter().map(|(a, p)| (a.to_string(), *p))),
                        "step {}: peer_better differs", step
                    );
                }
            }
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
        assert_eq!(lookup(&a.1.peer_better, "b"), Some(1.0));
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
