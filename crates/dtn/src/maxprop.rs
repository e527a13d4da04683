//! MaxProp: prioritized routing over estimated meeting likelihoods
//! (Burgess et al., 2006).

use std::collections::{BTreeMap, BTreeSet};

use pfr::sync::{Candidate, HostContext, ParkKeys, SendDecision, SyncRequest};
use pfr::wire::{Decode as _, Encode as _, Reader, WireError, Writer};
use pfr::{
    IStr, Item, ItemId, Priority, PriorityClass, ReplicaId, RoutingPayload, RoutingState,
    StoreKind, SyncExtension, Value,
};

use crate::acks::AckSet;
use crate::codec;
use crate::messaging::{dest_addresses, ATTR_DEST};
use crate::policy::{DtnPolicy, PolicySummary};

/// Transient attribute holding the list of node ids a copy has traversed.
pub const ATTR_HOPLIST: &str = "dtn.hops";

/// MaxProp as a replication policy (paper §V-C4).
///
/// Every host maintains a normalized probability distribution over which
/// node it will meet next, incrementally averaged at each encounter, and
/// exchanges it (together with delivery acknowledgements) in sync
/// requests. All messages are offered at every encounter; *ordering* is
/// where the protocol lives:
///
/// 1. messages addressed to the neighbour (the substrate sends
///    filter-matched items first automatically),
/// 2. "new" messages whose hop count is below a threshold, sorted by hop
///    count,
/// 3. everything else, sorted by the lowest-cost path to the destination,
///    where a path's cost is the sum over its links of the probability
///    that the link does *not* occur (a modified Dijkstra search).
///
/// Delivery acknowledgements flood through the network and clear relay
/// buffers; they travel as a compact set shaped like the substrate's
/// knowledge, so merging a peer's acknowledgements costs its origins, not
/// its messages. MaxProp's hop lists are retained as copy metadata, but
/// their duplicate-suppression role is subsumed by knowledge itself.
///
/// # Examples
///
/// ```
/// use dtn::{DtnPolicy, MaxPropPolicy};
///
/// let policy = MaxPropPolicy::default();
/// assert_eq!(policy.name(), "maxprop");
/// assert_eq!(policy.hop_threshold(), 3); // Table II
/// ```
#[derive(Clone, Debug)]
pub struct MaxPropPolicy {
    hop_threshold: usize,
    /// Whether delivery acknowledgements are originated, gossiped, and
    /// acted upon (protocol default: yes; disable for ablations).
    use_acks: bool,
    /// What this host tells every peer it pulls from.
    advert: Advert,
    /// Distributions learned from peers, and the path costs over them.
    graph: MeetingGraph,
    /// Which node currently owns each destination address.
    addr_owner: BTreeMap<IStr, ReplicaId>,
    /// Whether the next served request reads the whole relay FIFO for
    /// acknowledged copies: set for fresh, restored and readdressed state
    /// (a filter change can turn a delivered copy into a relay copy).
    /// Otherwise a purge reads only what [`MaxPropPolicy::purge_acked`]
    /// names.
    purge_all: bool,
    /// The host's `Replica::stats().updated` at the last purge. A local
    /// write since can turn a delivered copy into a relay copy (a rewrite
    /// to another address), so when it moved a purge reads the whole
    /// relay FIFO.
    updates_seen: u64,
    /// Relay copies that arrived already acknowledged since the last
    /// served request (see `on_relayed`).
    arrived_acked: Vec<ItemId>,
    /// The origins the last merge of a peer's acknowledgements grew.
    grown: Vec<ReplicaId>,
    /// The ids the last served request purged, ascending.
    purged: Vec<ItemId>,
    /// Whether `graph` holds the lowest path costs from this host: they
    /// are computed on a sync's first slow-lane candidate and go stale at
    /// the next request (the meeting graph changes with every request).
    path_costs: bool,
}

/// The routing data of a MaxProp sync request: lent as it stands to a
/// co-located source, encoded in field order for one across a wire.
#[derive(Clone, Debug, Default)]
struct Advert {
    /// Addresses this host is final destination for.
    local_addrs: BTreeSet<IStr>,
    /// Own next-encounter probability distribution (normalized),
    /// ascending by node.
    meeting: Vec<(ReplicaId, f64)>,
    /// Messages known to have reached their destinations.
    acks: AckSet,
}

impl RoutingPayload for Advert {
    fn encode(&self, w: &mut Writer) {
        codec::put_addrs(w, &self.local_addrs);
        codec::put_node_probs(w, self.meeting.iter().map(|(node, p)| (node, p)));
        self.acks.encode(w);
    }
}

impl codec::Advert for Advert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Advert {
            local_addrs: codec::get_addrs(r)?,
            meeting: codec::get_node_probs(r)?,
            acks: AckSet::decode(r)?,
        })
    }
}

impl MaxPropPolicy {
    /// Creates the policy with the given "new message" hop-count threshold.
    pub fn new(hop_threshold: usize) -> Self {
        MaxPropPolicy {
            hop_threshold,
            use_acks: true,
            advert: Advert::default(),
            graph: MeetingGraph::default(),
            addr_owner: BTreeMap::new(),
            purge_all: true,
            updates_seen: 0,
            arrived_acked: Vec::new(),
            grown: Vec::new(),
            purged: Vec::new(),
            path_costs: false,
        }
    }

    /// The hop-count threshold below which messages ride the fast lane.
    pub fn hop_threshold(&self) -> usize {
        self.hop_threshold
    }

    /// Enables or disables the delivery-acknowledgement mechanism (for
    /// ablation studies; the protocol specifies acknowledgements).
    pub fn with_acks(mut self, enabled: bool) -> Self {
        self.use_acks = enabled;
        if !enabled {
            self.advert.acks = AckSet::default();
        }
        self
    }

    /// The current estimated probability of meeting `node` next.
    pub fn meeting_probability(&self, node: ReplicaId) -> f64 {
        let meeting = &self.advert.meeting;
        meeting
            .binary_search_by_key(&node, |&(n, _)| n)
            .map_or(0.0, |at| meeting[at].1)
    }

    /// Number of delivery acknowledgements currently held.
    pub fn ack_count(&self) -> usize {
        self.advert.acks.len() as usize
    }

    /// Incremental averaging: bump the met node and renormalize so the
    /// distribution sums to 1.
    fn record_meeting(&mut self, peer: ReplicaId) {
        let meeting = &mut self.advert.meeting;
        match meeting.binary_search_by_key(&peer, |&(n, _)| n) {
            Ok(at) => meeting[at].1 += 1.0,
            Err(at) => meeting.insert(at, (peer, 1.0)),
        }
        let total: f64 = meeting.iter().map(|&(_, p)| p).sum();
        if total > 0.0 {
            for (_, p) in meeting.iter_mut() {
                *p /= total;
            }
        }
    }

    fn dest_cost(&mut self, me: ReplicaId, item: &Item) -> f64 {
        if !std::mem::replace(&mut self.path_costs, true) {
            self.graph.shortest_paths(me, &self.advert.meeting);
        }
        // Multicast: a message is as urgent as its cheapest destination.
        dest_addresses(item)
            .filter_map(|addr| self.addr_owner.get(addr))
            .map(|&node| self.graph.cost(node))
            .fold(f64::INFINITY, f64::min)
    }

    fn hop_count(item: &Item) -> usize {
        item.transient()
            .get(ATTR_HOPLIST)
            .and_then(Value::as_list)
            .map(<[Value]>::len)
            .unwrap_or(0)
    }

    /// Drops relay copies of acknowledged messages, in ascending id
    /// order. The last purge left no relay copy acknowledged, and
    /// acknowledgements are only added, so a copy can be one now only if
    /// its origin is among the `grown` ones, or it arrived acknowledged
    /// since, or the state is fresh, restored or readdressed
    /// (`purge_all`), or the host wrote a copy since (`updates_seen`);
    /// the last two read the whole relay FIFO. Otherwise a purge reads
    /// the relay copies of the grown origins and the arrivals (a conflict
    /// merge that leaves a relay copy arrives through `on_relayed` too),
    /// not the FIFO.
    fn purge_acked(&mut self, cx: &mut HostContext<'_>) {
        let acks = &self.advert.acks;
        let replica = cx.replica();
        let purged = &mut self.purged;
        purged.clear();
        let updated = replica.stats().updated;
        let written = std::mem::replace(&mut self.updates_seen, updated) != updated;
        if std::mem::take(&mut self.purge_all) || written {
            purged.extend(replica.relay_fifo().filter(|&id| acks.contains(id)));
        } else {
            for &origin in &self.grown {
                purged.extend(replica.relay_ids_of(origin).filter(|&id| acks.contains(id)));
            }
            let still_relayed = |&id: &ItemId| replica.store_kind(id) == Some(StoreKind::Relay);
            purged.extend(self.arrived_acked.iter().copied().filter(still_relayed));
        }
        self.arrived_acked.clear();
        purged.sort_unstable();
        purged.dedup();
        for &id in &self.purged {
            cx.purge_relay(id);
        }
    }
}

impl Default for MaxPropPolicy {
    /// The paper's Table II parameter: hop-count priority threshold = 3.
    fn default() -> Self {
        MaxPropPolicy::new(3)
    }
}

/// Where [`MeetingGraph::learned_at`] points for a node no distribution
/// was learned from.
const UNLEARNED: u32 = u32::MAX;

/// The meeting graph: the distributions learned from peers, over nodes
/// interned to dense indices, and the lowest path costs over them, kept
/// in a vector by the same indices.
#[derive(Clone, Debug, Default)]
struct MeetingGraph {
    /// Every interned node with its dense index, ascending by node.
    index: Vec<(ReplicaId, u32)>,
    /// Dense index → node.
    nodes: Vec<ReplicaId>,
    /// Dense index → the position of the distribution learned from that
    /// node in `learned`, or [`UNLEARNED`].
    learned_at: Vec<u32>,
    /// The learned distributions, in the order their peers were first
    /// met; refilled in place.
    learned: Vec<Edges>,
    /// Dense index → lowest path cost from the source of the last
    /// search; infinite if unreached.
    dist: Vec<f64>,
    /// The source's own distribution over dense indices, as the last
    /// search translated it.
    own: Vec<u32>,
    /// Scratch: a translation in progress, and the reached nodes with a
    /// learned distribution that a search has not yet settled.
    scratch: Vec<u32>,
    open: Vec<u32>,
}

/// One distribution over dense indices: node `to[i]` with probability
/// `p[i]`, ascending by node.
#[derive(Clone, Debug, Default)]
struct Edges {
    to: Vec<u32>,
    p: Vec<f64>,
}

impl MeetingGraph {
    /// The dense index of `node`, interning it if it is new.
    fn intern(&mut self, node: ReplicaId) -> u32 {
        match self.index.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(at) => self.index[at].1,
            Err(at) => {
                let dense = self.push(node);
                self.index.insert(at, (node, dense));
                dense
            }
        }
    }

    /// Gives `node` the next dense index, without filing it in `index`.
    fn push(&mut self, node: ReplicaId) -> u32 {
        let dense = self.nodes.len() as u32;
        self.nodes.push(node);
        self.learned_at.push(UNLEARNED);
        dense
    }

    /// Fills `out` with the dense index of each node of `probs`
    /// (ascending, each once), given `prev`, an earlier translation of
    /// the same distribution: a merge against `prev`, and an index search
    /// for each node it lacks. A distribution names a new node only when
    /// its owner met one, so the searches are few. Nodes never named
    /// before are filed in `index` together, by one merge of two sorted
    /// runs, so a peer naming many costs no shift of the index per node.
    fn translate(&mut self, prev: &[u32], probs: &[(ReplicaId, f64)], out: &mut Vec<u32>) {
        debug_assert!(probs.windows(2).all(|w| w[0].0 < w[1].0));
        out.clear();
        let first_fresh = self.nodes.len();
        let mut prev = prev.iter().peekable();
        for &(node, _) in probs {
            while prev.next_if(|&&d| self.nodes[d as usize] < node).is_some() {}
            out.push(match prev.next_if(|&&d| self.nodes[d as usize] == node) {
                Some(&dense) => dense,
                None => match self.index.binary_search_by_key(&node, |&(n, _)| n) {
                    Ok(at) => self.index[at].1,
                    Err(_) => self.push(node),
                },
            });
        }
        if self.nodes.len() > first_fresh {
            let fresh = (first_fresh..).zip(&self.nodes[first_fresh..]);
            self.index
                .extend(fresh.map(|(dense, &node)| (node, dense as u32)));
            // Stable: the merge sort finds the two ascending runs.
            self.index.sort();
        }
    }

    /// Replaces the distribution learned from `peer` with `probs`.
    fn learn(&mut self, peer: ReplicaId, probs: &[(ReplicaId, f64)]) {
        let dense = self.intern(peer) as usize;
        if self.learned_at[dense] == UNLEARNED {
            self.learned_at[dense] = self.learned.len() as u32;
            self.learned.push(Edges::default());
        }
        let at = self.learned_at[dense] as usize;
        let mut edges = std::mem::take(&mut self.learned[at]);
        let same_nodes = edges.to.len() == probs.len()
            && (edges.to.iter())
                .zip(probs)
                .all(|(&d, &(node, _))| self.nodes[d as usize] == node);
        // Exact: a fleet's nodes each keep every met peer's distribution,
        // and one grows a node at a time.
        if !same_nodes {
            let mut to = std::mem::take(&mut self.scratch);
            self.translate(&edges.to, probs, &mut to);
            edges.to.clear();
            edges.to.reserve_exact(probs.len());
            edges.to.extend_from_slice(&to);
            self.scratch = to;
        }
        edges.p.clear();
        edges.p.reserve_exact(probs.len());
        edges.p.extend(probs.iter().map(|&(_, p)| p));
        self.learned[at] = edges;
    }

    /// Every learned distribution, ascending by the peer it came from,
    /// each ascending by node.
    fn distributions(
        &self,
    ) -> impl Iterator<Item = (ReplicaId, impl ExactSizeIterator<Item = (&ReplicaId, &f64)>)> {
        self.index.iter().filter_map(|&(peer, dense)| {
            let edges = self.learned.get(self.learned_at[dense as usize] as usize)?;
            let nodes = edges.to.iter().map(|&d| &self.nodes[d as usize]);
            Some((peer, nodes.zip(&edges.p)))
        })
    }

    /// Lowest-cost paths from `me`, whose own distribution is `own`, to
    /// every node reachable over the learned distributions; the cost of
    /// a link with probability `p` is `1 - p`. A Dijkstra that settles
    /// nodes in `(cost, node)` order by scanning the reached ones. Only
    /// nodes with a distribution are settled — a node without one has
    /// no link to relax, and its cost is final once every node that
    /// links to it is settled — so a scan covers the peers this host
    /// learned from, however many nodes their distributions name.
    fn shortest_paths(&mut self, me: ReplicaId, own: &[(ReplicaId, f64)]) {
        let source = self.intern(me);
        let (prev, mut own_to) = (
            std::mem::take(&mut self.own),
            std::mem::take(&mut self.scratch),
        );
        self.translate(&prev, own, &mut own_to);
        self.scratch = prev;
        let MeetingGraph {
            nodes,
            learned_at,
            learned,
            dist,
            open,
            ..
        } = self;
        dist.clear();
        dist.resize(nodes.len(), f64::INFINITY);
        dist[source as usize] = 0.0;
        open.clear();
        open.push(source);
        while let Some(at) = (0..open.len()).min_by(|&a, &b| {
            let (a, b) = (open[a] as usize, open[b] as usize);
            dist[a].total_cmp(&dist[b]).then(nodes[a].cmp(&nodes[b]))
        }) {
            let node = open.swap_remove(at);
            let d = dist[node as usize];
            let mut relax = |next: u32, p: f64| {
                let nd = d + (1.0 - p.clamp(0.0, 1.0));
                let old = &mut dist[next as usize];
                if nd < *old {
                    if old.is_infinite() && learned_at[next as usize] != UNLEARNED {
                        open.push(next);
                    }
                    *old = nd;
                }
            };
            if node == source {
                for (&next, &(_, p)) in own_to.iter().zip(own) {
                    relax(next, p);
                }
            } else {
                let edges = &learned[learned_at[node as usize] as usize];
                for (&next, &p) in edges.to.iter().zip(&edges.p) {
                    relax(next, p);
                }
            }
        }
        self.own = own_to;
    }

    /// The cost [`MeetingGraph::shortest_paths`] found to `node`.
    fn cost(&self, node: ReplicaId) -> f64 {
        self.index
            .binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .and_then(|at| self.dist.get(self.index[at].1 as usize))
            .copied()
            .unwrap_or(f64::INFINITY)
    }
}

impl SyncExtension for MaxPropPolicy {
    fn label(&self) -> &'static str {
        "maxprop"
    }

    fn generate_request<'a>(&'a mut self, _cx: &mut HostContext<'_>) -> RoutingState<'a> {
        RoutingState::lend(&self.advert)
    }

    fn process_request(&mut self, cx: &mut HostContext<'_>, request: &SyncRequest) {
        let peer = request.target;
        self.record_meeting(peer);
        self.path_costs = false;

        if let Some(theirs) = codec::receive::<Advert>(&request.routing) {
            for addr in &theirs.local_addrs {
                match self.addr_owner.get_mut(addr) {
                    Some(owner) => *owner = peer,
                    None => {
                        self.addr_owner.insert(addr.clone(), peer);
                    }
                }
            }
            self.graph.learn(peer, &theirs.meeting);
            if self.use_acks {
                let grown = &mut self.grown;
                self.advert
                    .acks
                    .merge(&theirs.acks, |origin| grown.push(origin));
            }
        }
        if self.use_acks {
            self.purge_acked(cx);
        }
        self.grown.clear();
    }

    fn to_send(&mut self, item: &mut Candidate<'_>, _request: &SyncRequest) -> SendDecision {
        if item.is_deleted() {
            return SendDecision::Send(Priority::normal());
        }
        if self.advert.acks.contains(item.id()) {
            // Already delivered somewhere: don't spend bandwidth on it.
            // Acknowledgements are never forgotten, so this is final.
            return SendDecision::Park;
        }
        let hops = Self::hop_count(item);
        if hops < self.hop_threshold {
            // Fast lane for young messages, ordered by hop count.
            SendDecision::Send(Priority::new(PriorityClass::High, hops as f64))
        } else {
            let cost = self.dest_cost(item.host(), item);
            SendDecision::Send(Priority::new(PriorityClass::Normal, cost))
        }
    }

    fn park_keys(&self, keys: &mut ParkKeys<'_>) {
        keys.file_under(ATTR_DEST);
    }

    fn prepare_outgoing(
        &mut self,
        cx: &mut HostContext<'_>,
        item: &mut Item,
        target: ReplicaId,
        matched_filter: bool,
    ) {
        if matched_filter || item.is_deleted() {
            return;
        }
        // Append ourselves and the receiving node to the copy's hop list.
        let mut hops: Vec<Value> = item
            .transient()
            .get(ATTR_HOPLIST)
            .and_then(Value::as_list)
            .map(<[Value]>::to_vec)
            .unwrap_or_default();
        let me = cx.id().as_u64() as i64;
        if hops.last().and_then(Value::as_i64) != Some(me) {
            hops.push(Value::Int(me));
        }
        hops.push(Value::Int(target.as_u64() as i64));
        item.transient_mut().set(ATTR_HOPLIST, Value::List(hops));
    }

    fn on_delivered(&mut self, _cx: &mut HostContext<'_>, delivered: &[ItemId]) {
        // Originate an acknowledgement for every message that reached us;
        // acks flood through subsequent encounters and clear buffers. A
        // delivered copy sits in the filtered store, which is never
        // purged, so no purge falls due here.
        if self.use_acks {
            for &id in delivered {
                self.advert.acks.insert(id);
            }
        }
    }

    fn on_relayed(&mut self, id: ItemId) {
        // The sender did not know this message is acknowledged (it runs
        // without acks, or lost our routing state), or a conflict merge
        // turned a delivered copy into a relay copy: the copy goes at the
        // next request we serve and is never offered onwards.
        if self.advert.acks.contains(id) {
            self.arrived_acked.push(id);
        }
    }
}

impl DtnPolicy for MaxPropPolicy {
    fn name(&self) -> &'static str {
        "maxprop"
    }

    fn summary(&self) -> PolicySummary {
        PolicySummary {
            protocol: "MaxProp",
            routing_state: "estimated meeting probabilities for all pairs",
            added_to_sync_request: "target's meeting probabilities",
            source_forwarding_policy:
                "all messages, ordered by priority (modified Dijkstra calculation)",
            parameters: vec![(
                "hopcount priority threshold".to_string(),
                self.hop_threshold.to_string(),
            )],
        }
    }

    fn set_local_addresses(&mut self, addrs: BTreeSet<String>) {
        self.advert.local_addrs = codec::intern_addrs(&addrs);
        // The host's filter changed with its addresses: a delivered (and
        // so acknowledged) message may have just become a relay copy.
        self.purge_all = true;
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        codec::put_node_probs(&mut w, self.advert.meeting.iter().map(|(n, p)| (n, p)));
        w.put_varint(self.graph.distributions().count() as u64);
        for (peer, probs) in self.graph.distributions() {
            peer.encode(&mut w);
            codec::put_node_probs(&mut w, probs);
        }
        w.put_varint(self.addr_owner.len() as u64);
        for (addr, node) in &self.addr_owner {
            w.put_str(addr);
            node.encode(&mut w);
        }
        self.advert.acks.encode(&mut w);
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        let mut r = Reader::new(bytes);
        let restored = (|| -> Result<(), WireError> {
            let meeting = codec::get_node_probs(&mut r)?;
            let n = r.get_len(2)?;
            let mut graph = MeetingGraph::default();
            for _ in 0..n {
                let peer = ReplicaId::decode(&mut r)?;
                graph.learn(peer, &codec::get_node_probs(&mut r)?);
            }
            let n = r.get_len(2)?;
            let mut addr_owner = BTreeMap::new();
            for _ in 0..n {
                let addr = IStr::new(r.get_str_slice()?);
                let node = ReplicaId::decode(&mut r)?;
                addr_owner.insert(addr, node);
            }
            let acks = AckSet::decode(&mut r)?;
            self.advert.meeting = meeting;
            self.advert.acks = acks;
            self.graph = graph;
            self.addr_owner = addr_owner;
            Ok(())
        })();
        let _ = restored; // corrupt state: start cold
        self.path_costs = false;
        self.purge_all = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messaging::ATTR_DEST;
    use pfr::{sync, AttributeMap, Filter, Replica, SimTime, SyncLimits};

    fn host(n: u64, addr: &str) -> (Replica, MaxPropPolicy) {
        let replica = Replica::new(ReplicaId::new(n), Filter::address(ATTR_DEST, addr));
        let mut policy = MaxPropPolicy::default();
        policy.set_local_addresses([addr.to_string()].into_iter().collect());
        (replica, policy)
    }

    fn encounter(a: &mut (Replica, MaxPropPolicy), b: &mut (Replica, MaxPropPolicy), t: u64) {
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

    fn send_msg(r: &mut Replica, dest: &str) -> ItemId {
        let mut attrs = AttributeMap::new();
        attrs.set(ATTR_DEST, dest);
        r.insert(attrs, b"m".to_vec()).unwrap()
    }

    #[test]
    fn meeting_distribution_normalizes() {
        let mut p = MaxPropPolicy::default();
        p.record_meeting(ReplicaId::new(2));
        assert!((p.meeting_probability(ReplicaId::new(2)) - 1.0).abs() < 1e-12);
        p.record_meeting(ReplicaId::new(3));
        let total =
            p.meeting_probability(ReplicaId::new(2)) + p.meeting_probability(ReplicaId::new(3));
        assert!((total - 1.0).abs() < 1e-12);
        // 2 was met once of... weights 1 and 1 -> after normalize both 0.5?
        // record_meeting(2): {2:1} -> {2:1.0}
        // record_meeting(3): {2:1.0, 3:1.0} -> both 0.5
        assert!((p.meeting_probability(ReplicaId::new(3)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn floods_everything_unconstrained() {
        let mut a = host(1, "a");
        let mut c = host(3, "c");
        let id = send_msg(&mut a.0, "z");
        encounter(&mut a, &mut c, 0);
        assert!(c.0.contains_item(id), "maxprop offers all messages");
    }

    #[test]
    fn hoplist_grows_along_path() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut c = host(3, "c");
        let id = send_msg(&mut a.0, "z");
        encounter(&mut a, &mut b, 0);
        encounter(&mut b, &mut c, 60);
        let hops = c.0.item(id).unwrap().transient().get(ATTR_HOPLIST).unwrap();
        let hops = hops.as_list().unwrap();
        assert!(hops.len() >= 3, "path a->b->c recorded: {hops:?}");
        assert_eq!(hops[0].as_i64(), Some(1));
    }

    #[test]
    fn acks_clear_relay_buffers_and_stop_resends() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut z = host(9, "z");
        let id = send_msg(&mut a.0, "z");

        // Relay to b, deliver to z directly from a.
        encounter(&mut a, &mut b, 0);
        assert!(b.0.contains_item(id));
        encounter(&mut a, &mut z, 60);
        assert!(z.0.contains_item(id));
        assert_eq!(z.1.ack_count(), 1, "destination originates an ack");

        // z tells b (via an encounter) that the message was delivered.
        encounter(&mut z, &mut b, 120);
        assert!(b.1.advert.acks.contains(id));
        assert!(!b.0.contains_item(id), "relay copy purged by ack");

        // b no longer forwards it.
        let mut c = host(4, "c");
        encounter(&mut b, &mut c, 180);
        assert!(!c.0.contains_item(id));
    }

    #[test]
    fn a_copy_arriving_after_its_ack_is_purged_and_never_forwarded() {
        let mut a = host(1, "a");
        let mut z = host(9, "z");
        let mut b = host(2, "b");
        let id = send_msg(&mut a.0, "z");
        encounter(&mut a, &mut z, 0);
        encounter(&mut z, &mut b, 60);
        assert!(
            b.1.advert.acks.contains(id),
            "b learned the ack before any copy"
        );

        // A carrier that never heard the ack (it runs without them) hands
        // b a relay copy all the same. No merge will ever teach b this
        // ack again, so only the arrival itself can make the purge due.
        let mut carrier = host(5, "c");
        carrier.1 = MaxPropPolicy::default().with_acks(false);
        carrier
            .0
            .apply_remote(a.0.item(id).unwrap().clone(), SimTime::ZERO);
        sync::sync_with(
            &mut carrier.0,
            &mut carrier.1,
            &mut b.0,
            &mut b.1,
            SyncLimits::unlimited(),
            SimTime::from_secs(120),
        );
        assert!(b.0.contains_item(id), "the copy arrives; purging waits");

        // The next request b serves purges it before anything is selected.
        let mut d = host(4, "d");
        encounter(&mut b, &mut d, 180);
        assert!(!b.0.contains_item(id), "purged by the next served request");
        assert!(!d.0.contains_item(id), "and never re-forwarded");
    }

    #[test]
    fn a_conflict_merge_that_leaves_an_acknowledged_relay_copy_purges_it() {
        let mut a = host(1, "a");
        let mut z = host(9, "z");
        let id = send_msg(&mut a.0, "z");
        encounter(&mut a, &mut z, 0);
        assert_eq!(z.1.ack_count(), 1, "z acknowledges its delivery");

        // Two concurrent rewrites of the delivered message: one still for
        // z, one readdressed to y that wins the merge.
        let original = a.0.item(id).unwrap().clone();
        let rewrite = |n: u64, dest: &str, times: usize| {
            let mut r = Replica::new(ReplicaId::new(n), Filter::address(ATTR_DEST, "none"));
            r.apply_remote(original.clone(), SimTime::ZERO);
            let mut attrs = original.attrs().clone();
            attrs.set(ATTR_DEST, dest);
            for _ in 0..times {
                r.update(id, attrs.clone(), b"r".to_vec()).unwrap();
            }
            r.item(id).unwrap().clone()
        };
        let (for_z, for_y) = (rewrite(2, "z", 1), rewrite(3, "y", 2));
        assert!(for_y.version() > for_z.version());
        let deliver = |z: &mut (Replica, MaxPropPolicy), copy: Item| {
            let batch = sync::SyncBatch {
                source: copy.version().replica(),
                entries: vec![sync::BatchEntry {
                    item: copy,
                    priority: Priority::normal(),
                    matched_filter: false,
                }],
                withheld: 0,
            };
            sync::apply_batch(&mut z.0, &mut z.1, batch, SimTime::from_secs(60));
        };
        // The rewrite for z replaces z's delivered copy, and z serves a
        // request before the other arrives.
        deliver(&mut z, for_z);
        encounter(&mut z, &mut host(5, "e"), 90);
        assert_eq!(z.0.store_kind(id), Some(StoreKind::InFilter));
        deliver(&mut z, for_y);
        assert_eq!(z.0.stats().conflicts_merged, 1);
        assert_eq!(z.0.store_kind(id), Some(StoreKind::Relay));

        // No origin's acknowledgements grow at the next request z
        // serves, yet it purges the copy the merge left.
        let mut d = host(4, "d");
        encounter(&mut z, &mut d, 120);
        assert!(!z.0.contains_item(id), "purged by the next served request");
        assert!(!d.0.contains_item(id), "and never forwarded");
    }

    #[test]
    fn ordering_prefers_destination_then_young_then_cheap_paths() {
        let mut me = host(1, "a");
        // Make the policy aware of a destination node for path costs.
        me.1.addr_owner.insert(IStr::new("far"), ReplicaId::new(7));
        me.1.advert.meeting.push((ReplicaId::new(7), 0.2));

        // One message addressed to the sync target, one young relay
        // message, one old relay message.
        let to_target = send_msg(&mut me.0, "tgt");
        let young = send_msg(&mut me.0, "far");
        let old = send_msg(&mut me.0, "far");
        me.0.set_transient(
            old,
            ATTR_HOPLIST,
            Value::List(vec![
                Value::Int(5),
                Value::Int(6),
                Value::Int(7),
                Value::Int(8),
            ]),
        )
        .unwrap();

        let mut tgt = host(2, "tgt");
        let request = sync::begin_sync(&mut tgt.0, &mut tgt.1, SimTime::ZERO, Some(me.0.id()));
        let batch = sync::prepare_batch(
            &mut me.0,
            &mut me.1,
            &request,
            SyncLimits::unlimited(),
            SimTime::ZERO,
        );
        let order: Vec<ItemId> = batch.entries.iter().map(|e| e.item.id()).collect();
        assert_eq!(order, vec![to_target, young, old]);
        assert!(batch.entries[0].matched_filter);
        assert_eq!(batch.entries[1].priority.class(), PriorityClass::High);
        assert_eq!(batch.entries[2].priority.class(), PriorityClass::Normal);
        assert!(
            batch.entries[2].priority.cost().is_finite(),
            "Dijkstra found a path"
        );
    }

    #[test]
    fn a_hostile_meeting_table_is_no_routing_data() {
        // Link costs are `1 - p`: a probability outside [0, 1] in a peer's
        // table would make a path through it free, or worse than no path.
        let mut me = host(1, "a");
        for hostile in [f64::INFINITY, f64::NAN, 1e300, -1.0] {
            let theirs = Advert {
                local_addrs: [IStr::new("liar")].into_iter().collect(),
                meeting: [(ReplicaId::new(7), hostile)].into_iter().collect(),
                acks: AckSet::default(),
            };
            let mut w = Writer::new();
            theirs.encode(&mut w);
            let request = SyncRequest {
                target: ReplicaId::new(66),
                knowledge: Default::default(),
                filter: std::borrow::Cow::Owned(Filter::address(ATTR_DEST, "liar")),
                routing: RoutingState::from_bytes(w.into_bytes()),
            };
            sync::prepare_batch(
                &mut me.0,
                &mut me.1,
                &request,
                SyncLimits::unlimited(),
                SimTime::ZERO,
            );
            assert_eq!(
                me.1.graph.distributions().count(),
                0,
                "{hostile} was absorbed"
            );
            assert!(me.1.addr_owner.is_empty());
        }
        // The meeting itself still counts: that much the node saw itself.
        assert_eq!(me.1.meeting_probability(ReplicaId::new(66)), 1.0);
    }

    #[test]
    fn path_cost_uses_two_hop_routes() {
        let mut p = MaxPropPolicy::default();
        let me = ReplicaId::new(1);
        let mid = ReplicaId::new(2);
        let dest = ReplicaId::new(3);
        // Direct link is terrible (p=0.1 -> cost .9); via mid is cheap
        // (0.5 + 0.1 -> 0.6... link costs: me->mid 1-0.5=0.5, mid->dest 1-0.9=0.1).
        p.advert.meeting = vec![(mid, 0.5), (dest, 0.1)];
        p.graph.learn(mid, &[(dest, 0.9)]);
        p.graph.shortest_paths(me, &p.advert.meeting);
        let cost = |node| p.graph.cost(node);
        assert!((cost(dest) - 0.6).abs() < 1e-12, "got {}", cost(dest));
        assert!((cost(mid) - 0.5).abs() < 1e-12, "got {}", cost(mid));
        // Unreachable nodes cost infinity; self costs 0.
        assert_eq!(cost(ReplicaId::new(99)), f64::INFINITY);
        assert_eq!(cost(me), 0.0);
    }

    mod invariants {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// However many meetings, with whichever peers, the
            /// distribution sums to 1 within 1e-12, every value in [0, 1],
            /// and it stays ascending by node.
            #[test]
            fn recorded_meetings_keep_a_distribution(
                peers in proptest::collection::vec(0u64..40, 1..200),
            ) {
                let mut policy = MaxPropPolicy::default();
                for peer in peers {
                    policy.record_meeting(ReplicaId::new(peer));
                    let meeting = &policy.advert.meeting;
                    let total: f64 = meeting.iter().map(|&(_, p)| p).sum();
                    prop_assert!((total - 1.0).abs() <= 1e-12, "sums to {}", total);
                    prop_assert!(meeting.iter().all(|&(_, p)| (0.0..=1.0).contains(&p)));
                    prop_assert!(meeting.windows(2).all(|w| w[0].0 < w[1].0));
                }
            }
        }

        /// A reboot: the replica comes back from its snapshot and the
        /// policy from its saved state, as `DtnNode::restore` does. No
        /// park survives it.
        fn restart(node: &mut (Replica, MaxPropPolicy), addr: &str) {
            let replica = Replica::restore(&node.0.snapshot()).expect("own snapshot");
            let mut policy = MaxPropPolicy::default();
            policy.set_local_addresses([addr.to_string()].into_iter().collect());
            policy.restore_state(&node.1.save_state());
            *node = (replica, policy);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// ROADMAP 5(b): an acknowledged id is never forwarded again —
            /// not at the next sync, not after any number of restarts —
            /// and a restart forgets no acknowledgement.
            #[test]
            fn acknowledged_ids_are_never_forwarded_across_restarts(
                messages in proptest::collection::vec((0usize..5, 0usize..5), 1..8),
                steps in proptest::collection::vec((0usize..5, 0usize..5, any::<bool>()), 1..60),
            ) {
                let addr = |i: usize| format!("h{i}");
                let mut nodes: Vec<_> = (0..5).map(|i| host(i as u64 + 1, &addr(i))).collect();
                for &(from, to) in &messages {
                    send_msg(&mut nodes[from].0, &addr(to));
                }
                for (step, &(a, b, reboot)) in steps.iter().enumerate() {
                    if reboot {
                        let before = nodes[a].1.save_state();
                        restart(&mut nodes[a], &addr(a));
                        prop_assert_eq!(nodes[a].1.save_state(), before, "a restart lost state");
                    }
                    if a == b {
                        continue;
                    }
                    let (source, target) = if a < b {
                        let (l, r) = nodes.split_at_mut(b);
                        (&mut l[a], &mut r[0])
                    } else {
                        let (l, r) = nodes.split_at_mut(a);
                        (&mut r[0], &mut l[b])
                    };
                    let acked: Vec<ItemId> = source
                        .0
                        .iter_items()
                        .map(Item::id)
                        .filter(|&id| source.1.advert.acks.contains(id))
                        .collect();
                    let report = sync::sync_with(
                        &mut source.0,
                        &mut source.1,
                        &mut target.0,
                        &mut target.1,
                        SyncLimits::unlimited(),
                        SimTime::from_secs(60 * step as u64),
                    );
                    for id in &report.stored_ids {
                        prop_assert!(!acked.contains(id), "step {}: acked {} forwarded", step, id);
                    }
                }
            }
        }
    }

    #[test]
    fn summary_matches_tables() {
        let s = MaxPropPolicy::default().summary();
        assert!(s.routing_state.contains("meeting probabilities"));
        assert!(s.source_forwarding_policy.contains("Dijkstra"));
        assert_eq!(
            s.parameters,
            vec![("hopcount priority threshold".to_string(), "3".to_string())]
        );
    }
}
