//! PROPHET: probabilistic routing using delivery predictabilities
//! (Lindgren et al., 2004).

use std::collections::{BTreeMap, BTreeSet};

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
    /// peer's predictability for each. `to_send` only looks a candidate's
    /// destinations up here.
    peer_better: BTreeMap<IStr, f64>,
    /// Last time the vector was aged.
    last_aged: SimTime,
}

/// The routing data of a PROPHET sync request: lent as it stands to a
/// co-located source, encoded in field order for one across a wire.
#[derive(Clone, Debug, Default)]
struct Advert {
    /// Addresses this host is final destination for.
    local_addrs: BTreeSet<IStr>,
    /// Own delivery predictabilities, keyed by destination address.
    predictability: BTreeMap<IStr, f64>,
}

impl RoutingPayload for Advert {
    fn encode(&self, w: &mut Writer) {
        codec::put_addrs(w, &self.local_addrs);
        codec::put_addr_probs(w, &self.predictability);
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
        self.advert.predictability.get(addr).copied().unwrap_or(0.0)
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
        for p in self.advert.predictability.values_mut() {
            *p *= factor;
        }
        let floor = self.params.floor;
        self.advert.predictability.retain(|_, p| *p >= floor);
        self.last_aged = now;
    }

    /// Direct-encounter update for one peer address:
    /// `P = P + (1 - P) * P_init`.
    fn boost_direct(&mut self, addr: &IStr) {
        let p = self
            .advert
            .predictability
            .entry(addr.clone())
            .or_insert(0.0);
        *p += (1.0 - *p) * self.params.p_init;
    }

    /// Transitive update through the peer: for each destination `c` the
    /// peer predicts with `p_bc`, `P[c] += (1 - P[c]) * P[peer] * p_bc * β`.
    fn fold_transitive(&mut self, p_peer_link: f64, peer_vector: &BTreeMap<IStr, f64>) {
        for (addr, &p_bc) in peer_vector {
            if self.advert.local_addrs.contains(addr) {
                continue;
            }
            let p = self
                .advert
                .predictability
                .entry(addr.clone())
                .or_insert(0.0);
            *p += (1.0 - *p) * p_peer_link * p_bc * self.params.beta;
        }
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

        // Direct component: meeting the peer boosts its addresses.
        for addr in &theirs.local_addrs {
            self.boost_direct(addr);
        }
        // Link strength to the peer = best predictability over its
        // addresses (after the boost).
        let p_peer_link = theirs
            .local_addrs
            .iter()
            .map(|a| self.predictability(a))
            .fold(0.0f64, f64::max);
        // Transitive component through the peer's own vector.
        self.fold_transitive(p_peer_link, &theirs.predictability);
        // Prune sub-floor values immediately: weak transitive traces must
        // not open forwarding gradients (see [`ProphetParams::floor`]).
        let floor = self.params.floor;
        self.advert.predictability.retain(|_, p| *p >= floor);
        // Keep the destinations the peer is strictly better at — the
        // forwarding rule, applied here once per destination instead of
        // once per candidate in the selection loop that follows. The peer
        // trivially delivers to itself, whatever its vector says.
        let its_own = theirs.local_addrs.iter().map(|addr| (addr, 1.0));
        let predicted = theirs.predictability.iter().map(|(addr, &p)| (addr, p));
        for (addr, p) in predicted.chain(its_own) {
            if p > self.predictability(addr) {
                self.peer_better.insert(addr.clone(), p);
            } else {
                self.peer_better.remove(addr);
            }
        }
    }

    fn to_send(&mut self, item: &mut Candidate<'_>, _request: &SyncRequest) -> SendDecision {
        if item.is_deleted() {
            return SendDecision::Send(Priority::normal());
        }
        // Multicast: forward if the peer is a better custodian for *any*
        // remaining destination; urgency follows the best such gain.
        let best = dest_addresses(item)
            .filter_map(|dest| self.peer_better.get(dest).copied())
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
    fn park_keys(&self, keys: &mut ParkKeys) {
        keys.file_under(ATTR_DEST);
        for addr in self.peer_better.keys() {
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
        codec::put_addr_probs(&mut w, &self.advert.predictability);
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
        let mut w = Writer::new();
        codec::put_addrs(&mut w, &[IStr::new(addr)].into_iter().collect());
        let vector = vector.iter().map(|&(a, p)| (IStr::new(a), p)).collect();
        codec::put_addr_probs(&mut w, &vector);
        SyncRequest {
            target: ReplicaId::new(peer),
            knowledge: Default::default(),
            filter: std::borrow::Cow::Owned(Filter::address(ATTR_DEST, addr)),
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

    #[test]
    fn peer_self_addresses_count_as_certain_delivery() {
        // A host's predictability for its own address is treated as 1.0,
        // so messages addressed to the peer itself always flow (they also
        // match the peer's filter, but relayed copies of multi-address
        // items rely on this).
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        encounter(&mut a, &mut b, 0);
        assert_eq!(a.1.peer_better.get("b"), Some(&1.0));
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
