//! One reference harness for the bundled policies: under any script of
//! host steps, a fleet running a shipped policy must equal a fleet running
//! [`Naive`], the same row of Table I over `BTreeMap`s and explicit sets,
//! which never parks a copy, never lends an advert, and keeps no slots,
//! stretches, deltas or dense graph. After every step both fleets must hold
//! byte-identical snapshots (so floats compare bit for bit, and a differing
//! verdict shows as a differing copy) and must have emitted the same
//! candidate, batch and transmission events. The shipped fleet must also
//! keep two invariants: an Epidemic relay hop lowers the copy's TTL, and a
//! PROPHET predictability rises only through a peer that names its
//! address. The proptest shim does not shrink, so a failing script is
//! shrunk here before it is reported.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use obs::{Event, EventKind, Interest, Obs, Observer};
use pfr::sync::{Candidate, HostContext, SendDecision, SyncRequest};
use pfr::wire::{Decode as _, Encode as _, Reader, Writer};
use pfr::{
    IStr, Item, ItemId, Knowledge, Priority, PriorityClass, ReplicaId, RoutingState, SimDuration,
    SimTime, SyncExtension, SyncMode, Value, Version,
};
use proptest::prelude::*;

use crate::codec::{self, get_addr_probs, get_addrs, get_node_probs, put_addr_probs, put_addrs};
use crate::messaging::{dest_addresses, ATTR_DEST};
use crate::{
    DtnNode, DtnPolicy, EncounterBudget, EpidemicPolicy, MaxPropPolicy, PolicyKind, PolicySummary,
    ProphetParams, ATTR_COPIES, ATTR_HOPLIST, ATTR_TTL,
};

const NODES: usize = 6;
/// Addresses `h0`..`h7`: node `i` starts at `hi`, and two are nobody's.
const ADDRS: usize = 8;
/// Epidemic's hop budget here: small, so that copies run out in a script.
const TTL: i64 = 2;
/// Spray and Wait's copy budget and MaxProp's hop threshold (Table II).
const COPIES: i64 = 8;
const HOPS: usize = 3;

fn addr(i: usize) -> String {
    format!("h{i}")
}

/// The policy a case runs, with MaxProp's acknowledgements per node.
#[derive(Clone, Copy, Debug)]
struct Setup {
    kind: PolicyKind,
    acks: [bool; NODES],
}

fn shipped(setup: &Setup, node: usize) -> Box<dyn DtnPolicy> {
    match setup.kind {
        PolicyKind::Epidemic => Box::new(EpidemicPolicy::new(TTL as u32)),
        PolicyKind::MaxProp => Box::new(MaxPropPolicy::default().with_acks(setup.acks[node])),
        kind => kind.build(),
    }
}

fn naive(setup: &Setup, node: usize) -> Box<dyn DtnPolicy> {
    let row = match setup.kind {
        PolicyKind::Direct => Row::Direct,
        PolicyKind::TwoHopRelay => Row::TwoHop,
        PolicyKind::Epidemic => Row::Epidemic,
        PolicyKind::SprayAndWait => Row::Spray,
        PolicyKind::Prophet => Row::Prophet(Prophet::default()),
        PolicyKind::MaxProp => Row::MaxProp(MaxProp {
            acks_on: setup.acks[node],
            ..MaxProp::default()
        }),
    };
    let kind = setup.kind;
    Box::new(Naive { kind, row })
}

// --- The naive policies -------------------------------------------------

/// One row of Table I, written as plainly as it reads.
struct Naive {
    kind: PolicyKind,
    row: Row,
}

enum Row {
    /// Forwards nothing.
    Direct,
    /// Forwards only what this node originated.
    TwoHop,
    /// Forwards while the copy's TTL is positive; each hop lowers it.
    Epidemic,
    /// Forwards while the copy holds two or more copies, handing half on.
    Spray,
    Prophet(Prophet),
    MaxProp(MaxProp),
}

/// A copy's integer transient attribute `name`, or `unset`.
fn int(item: &Item, name: &str, unset: i64) -> i64 {
    item.transient().get_i64(name).unwrap_or(unset)
}

/// A candidate's budget under `name`, stamped on the stored copy with
/// `budget` if it has none yet.
fn stamped(item: &mut Candidate<'_>, name: &str, budget: i64) -> i64 {
    if !item.transient().contains(name) {
        item.set_transient(name, budget);
    }
    int(item, name, budget)
}

impl SyncExtension for Naive {
    fn generate_request<'a>(&'a mut self, cx: &mut HostContext<'_>) -> RoutingState<'a> {
        let mut w = Writer::new();
        match &mut self.row {
            Row::Prophet(p) => {
                p.age(cx.now());
                put_addrs(&mut w, &p.local);
                put_addr_probs(&mut w, p.p.iter().map(|(a, &p)| (a, p)));
            }
            Row::MaxProp(m) => {
                put_addrs(&mut w, &m.local);
                codec::put_node_probs(&mut w, m.meeting.iter());
                ack_knowledge(&m.acks).encode(&mut w);
            }
            _ => return RoutingState::empty(),
        }
        RoutingState::from_bytes(w.into_bytes())
    }

    fn process_request(&mut self, cx: &mut HostContext<'_>, request: &SyncRequest<'_>) {
        let bytes = request.routing.wire_form();
        match &mut self.row {
            Row::Prophet(p) => p.process(cx.now(), &bytes),
            Row::MaxProp(m) => m.process(cx, request.target, &bytes),
            _ => {}
        }
    }

    fn to_send(&mut self, item: &mut Candidate<'_>, _: &SyncRequest<'_>) -> SendDecision {
        let send = match &self.row {
            Row::Direct => return SendDecision::Skip,
            _ if item.is_deleted() => true,
            Row::TwoHop => item.id().origin() == item.host(),
            Row::Epidemic => stamped(item, ATTR_TTL, TTL) >= 1,
            Row::Spray => stamped(item, ATTR_COPIES, COPIES) >= 2,
            Row::Prophet(p) => return p.verdict(item),
            Row::MaxProp(m) => return m.verdict(item),
        };
        if send {
            SendDecision::Send(Priority::normal())
        } else {
            SendDecision::Skip
        }
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
        match self.row {
            Row::Epidemic => {
                let ttl = (int(item, ATTR_TTL, TTL) - 1).max(0);
                item.transient_mut().set(ATTR_TTL, ttl);
            }
            Row::Spray => {
                let copies = int(item, ATTR_COPIES, COPIES);
                item.transient_mut().set(ATTR_COPIES, (copies / 2).max(1));
                let kept = (copies - copies / 2).max(1);
                let _ = cx.set_transient(item.id(), ATTR_COPIES, kept);
            }
            Row::MaxProp(_) => {
                let mut hops = hop_list(item);
                let me = Value::Int(cx.id().as_u64() as i64);
                if hops.last() != Some(&me) {
                    hops.push(me);
                }
                hops.push(Value::Int(target.as_u64() as i64));
                item.transient_mut().set(ATTR_HOPLIST, Value::List(hops));
            }
            _ => {}
        }
    }

    fn on_delivered(&mut self, _: &mut HostContext<'_>, delivered: &[ItemId]) {
        if let Row::MaxProp(m @ MaxProp { acks_on: true, .. }) = &mut self.row {
            m.acks.extend(delivered);
        }
    }
}

impl DtnPolicy for Naive {
    fn name(&self) -> &'static str {
        self.kind.build().name()
    }

    fn summary(&self) -> PolicySummary {
        self.kind.build().summary()
    }

    fn set_local_addresses(&mut self, addrs: BTreeSet<String>) {
        match &mut self.row {
            Row::Prophet(p) => p.local = codec::intern_addrs(&addrs),
            Row::MaxProp(m) => m.local = codec::intern_addrs(&addrs),
            _ => {}
        }
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match &self.row {
            Row::Prophet(p) => {
                put_addr_probs(&mut w, p.p.iter().map(|(a, &p)| (a, p)));
                w.put_varint(p.last_aged.as_secs());
            }
            Row::MaxProp(m) => m.save(&mut w),
            _ => {}
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        let mut r = Reader::new(bytes);
        match &mut self.row {
            Row::Prophet(p) => {
                if let (Ok(probs), Ok(secs)) = (get_addr_probs(&mut r), r.get_varint()) {
                    (p.p, p.last_aged) = (probs.into_iter().collect(), SimTime::from_secs(secs));
                }
            }
            Row::MaxProp(m) => _ = m.restore(&mut r),
            _ => {}
        }
    }
}

/// PROPHET over maps keyed by address: the arithmetic of §V-C3, key by
/// key.
#[derive(Default)]
struct Prophet {
    local: BTreeSet<IStr>,
    p: BTreeMap<IStr, f64>,
    /// The destinations the last request's peer predicts strictly better.
    better: BTreeMap<IStr, f64>,
    last_aged: SimTime,
}

impl Prophet {
    fn get(&self, addr: &IStr) -> f64 {
        self.p.get(addr).copied().unwrap_or(0.0)
    }

    fn age(&mut self, now: SimTime) {
        let params = ProphetParams::default();
        let since = now.saturating_since(self.last_aged);
        let units = since.as_secs() / params.aging_interval.as_secs();
        if units > 0 {
            let factor = params.gamma.powi(units.min(10_000) as i32);
            self.p.values_mut().for_each(|p| *p *= factor);
            self.p.retain(|_, p| *p >= params.floor);
            self.last_aged = now;
        }
    }

    fn process(&mut self, now: SimTime, bytes: &[u8]) {
        self.age(now);
        self.better.clear();
        let mut r = Reader::new(bytes);
        let (Ok(addrs), Ok(vector)) = (get_addrs(&mut r), get_addr_probs(&mut r)) else {
            return;
        };
        let params = ProphetParams::default();
        for addr in &addrs {
            let p = self.p.entry(addr.clone()).or_insert(0.0);
            *p += (1.0 - *p) * params.p_init;
        }
        let link = addrs.iter().map(|a| self.get(a)).fold(0.0f64, f64::max);
        for (addr, p_bc) in vector.iter().filter(|(a, _)| !self.local.contains(a)) {
            let p = self.p.entry(addr.clone()).or_insert(0.0);
            *p += (1.0 - *p) * link * p_bc * params.beta;
        }
        self.p.retain(|_, p| *p >= params.floor);
        let own = addrs.iter().map(|addr| (addr, 1.0));
        for (addr, p) in vector.iter().map(|(a, p)| (a, *p)).chain(own) {
            if p > self.get(addr) {
                self.better.insert(addr.clone(), p);
            } else {
                self.better.remove(addr);
            }
        }
    }

    fn verdict(&self, item: &Candidate<'_>) -> SendDecision {
        let better = dest_addresses(item).filter_map(|d| self.better.get(d));
        match better.copied().reduce(f64::max) {
            Some(p) => SendDecision::Send(Priority::new(PriorityClass::Normal, 1.0 - p)),
            None => SendDecision::Skip,
        }
    }
}

/// MaxProp over maps keyed by node, a Dijkstra that settles one node per
/// pass over every distance, and a purge that reads the whole relay FIFO.
#[derive(Default)]
struct MaxProp {
    acks_on: bool,
    local: BTreeSet<IStr>,
    meeting: BTreeMap<ReplicaId, f64>,
    learned: BTreeMap<ReplicaId, BTreeMap<ReplicaId, f64>>,
    owner: BTreeMap<IStr, ReplicaId>,
    acks: BTreeSet<ItemId>,
}

fn hop_list(item: &Item) -> Vec<Value> {
    let hops = item.transient().get(ATTR_HOPLIST).and_then(Value::as_list);
    hops.map(<[Value]>::to_vec).unwrap_or_default()
}

fn ack_knowledge(acks: &BTreeSet<ItemId>) -> Knowledge {
    let mut k = Knowledge::new();
    (acks.iter()).for_each(|id| k.insert(Version::new(id.origin(), id.seq())));
    k
}

fn ack_ids(k: &Knowledge) -> BTreeSet<ItemId> {
    let prefixes = (k.vector_entries()).flat_map(|(o, base)| (1..=base).map(move |n| (o, n)));
    let singles = k.exceptions().map(|v| (v.replica(), v.counter()));
    (prefixes.chain(singles))
        .map(|(o, n)| ItemId::new(o, n))
        .collect()
}

impl MaxProp {
    fn process(&mut self, cx: &mut HostContext<'_>, peer: ReplicaId, bytes: &[u8]) {
        *self.meeting.entry(peer).or_insert(0.0) += 1.0;
        let total: f64 = self.meeting.values().sum();
        self.meeting.values_mut().for_each(|p| *p /= total);
        let mut r = Reader::new(bytes);
        let (addrs, meeting) = (get_addrs(&mut r), get_node_probs(&mut r));
        if let (Ok(addrs), Ok(meeting), Ok(acks)) = (addrs, meeting, Knowledge::decode(&mut r)) {
            self.owner
                .extend(addrs.into_iter().map(|addr| (addr, peer)));
            self.learned.insert(peer, meeting.into_iter().collect());
            if self.acks_on {
                self.acks.extend(ack_ids(&acks));
            }
        }
        if self.acks_on {
            let relayed: Vec<ItemId> = cx.replica().relay_fifo().collect();
            let acked = relayed.into_iter().filter(|id| self.acks.contains(id));
            for id in acked.collect::<BTreeSet<_>>() {
                cx.purge_relay(id);
            }
        }
    }

    /// The lowest path cost from `me` to every node reached, where a link
    /// met with probability `p` costs `1 - p`.
    fn paths(&self, me: ReplicaId) -> BTreeMap<ReplicaId, f64> {
        let mut dist = BTreeMap::from([(me, 0.0f64)]);
        let mut settled = BTreeSet::new();
        while let Some((node, d)) = (dist.iter())
            .filter(|(n, _)| !settled.contains(*n))
            .map(|(&n, &d)| (n, d))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        {
            settled.insert(node);
            let links = (node == me)
                .then_some(&self.meeting)
                .or(self.learned.get(&node));
            for (&next, &p) in links.into_iter().flatten() {
                if d + (1.0 - p) < dist.get(&next).copied().unwrap_or(f64::INFINITY) {
                    dist.insert(next, d + (1.0 - p));
                }
            }
        }
        dist
    }

    fn verdict(&self, item: &Candidate<'_>) -> SendDecision {
        if self.acks.contains(&item.id()) {
            return SendDecision::Skip;
        }
        let hops = hop_list(item).len();
        if hops < HOPS {
            return SendDecision::Send(Priority::new(PriorityClass::High, hops as f64));
        }
        let dist = self.paths(item.host());
        let cost = (dest_addresses(item).filter_map(|addr| self.owner.get(addr)))
            .map(|node| dist.get(node).copied().unwrap_or(f64::INFINITY))
            .fold(f64::INFINITY, f64::min);
        SendDecision::Send(Priority::new(PriorityClass::Normal, cost))
    }

    fn save(&self, w: &mut Writer) {
        codec::put_node_probs(w, self.meeting.iter());
        w.put_varint(self.learned.len() as u64);
        for (peer, probs) in &self.learned {
            peer.encode(w);
            codec::put_node_probs(w, probs.iter());
        }
        w.put_varint(self.owner.len() as u64);
        for (addr, node) in &self.owner {
            w.put_str(addr);
            node.encode(w);
        }
        ack_knowledge(&self.acks).encode(w);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Option<()> {
        let meeting = get_node_probs(r).ok()?;
        let mut learned = BTreeMap::new();
        for _ in 0..r.get_len(2).ok()? {
            let peer = ReplicaId::decode(r).ok()?;
            learned.insert(peer, get_node_probs(r).ok()?.into_iter().collect());
        }
        let mut owner = BTreeMap::new();
        for _ in 0..r.get_len(2).ok()? {
            let addr = IStr::new(r.get_str_slice().ok()?);
            owner.insert(addr, ReplicaId::decode(r).ok()?);
        }
        self.acks = ack_ids(&Knowledge::decode(r).ok()?);
        (self.meeting, self.learned, self.owner) = (meeting.into_iter().collect(), learned, owner);
        Some(())
    }
}

// --- Scripts and fleets -------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    /// `Send(from, to, lifetime)`: a unicast or multicast message, which
    /// expires after `lifetime` seconds if one is given.
    Send(usize, Vec<usize>, Option<u64>),
    /// `Meet(a, b, mode, budget)`: an encounter, both nodes in `mode`,
    /// under a message budget if one is given.
    Meet(usize, usize, SyncMode, Option<usize>),
    /// Time passes, in seconds.
    Wait(u64),
    /// The node answers for these addresses from now on.
    Readdress(usize, Vec<usize>),
    /// The node reboots from its snapshot under a fresh policy instance.
    Restart(usize),
    /// `Rewrite(at, pick, to)`: both nodes of `at` that hold the first's
    /// `pick`-th live message, in or outside their filter, readdress it to
    /// `to`.
    Rewrite([usize; 2], usize, [usize; 2]),
    /// The node's relay store is capped (or uncapped); excess relay copies
    /// are evicted oldest first.
    Cap(usize, Option<usize>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let node = || 0..NODES;
    let addrs = || proptest::collection::vec(0..ADDRS, 1..3);
    let hours = prop_oneof![Just(None), (1u64..8).prop_map(|h| Some(h * 3600))];
    let send = (node(), addrs(), hours).prop_map(|(n, to, life)| Op::Send(n, to, life));
    let budget = prop_oneof![Just(None), Just(None), (1usize..3).prop_map(Some)];
    let mode = prop_oneof![Just(SyncMode::Full), Just(SyncMode::Digest)];
    let meet =
        (node(), node(), mode, budget).prop_map(|(a, b, m, budget)| Op::Meet(a, b, m, budget));
    let (send, meet) = (send.boxed(), meet.boxed());
    let wait = prop_oneof![Just(60u64), Just(1200), Just(3 * 3600), Just(86_400)];
    let rewrite = ((node(), node()), 0usize..8, (0..ADDRS, 0..ADDRS));
    let cap = prop_oneof![Just(None), (1usize..4).prop_map(Some)];
    prop_oneof![
        send.clone(),
        send,
        meet.clone(),
        meet.clone(),
        meet.clone(),
        meet,
        wait.prop_map(Op::Wait),
        (node(), addrs()).prop_map(|(n, to)| Op::Readdress(n, to)),
        node().prop_map(Op::Restart),
        rewrite.prop_map(|((a, b), pick, (x, y))| Op::Rewrite([a, b], pick, [x, y])),
        (node(), cap).prop_map(|(n, cap)| Op::Cap(n, cap)),
    ]
}

/// Records the events that carry each sync's counts and transmissions.
#[derive(Default)]
struct Log(Mutex<Vec<Event>>);

impl Observer for Log {
    fn on_event(&self, event: &Event) {
        let mut event = event.clone();
        if let Event::SyncCandidatesSelected { scan_us, .. } = &mut event {
            *scan_us = 0; // wall clock
        }
        self.0.lock().expect("log").push(event);
    }

    fn interest(&self) -> Interest {
        use EventKind::*;
        Interest::of(&[SyncCandidatesSelected, SyncBatchSent, ItemTransmitted])
    }
}

struct Fleet {
    nodes: Vec<DtnNode>,
    log: Arc<Log>,
    policy: fn(&Setup, usize) -> Box<dyn DtnPolicy>,
}

/// Whether `node` holds a live copy of `id`.
fn rewritable(node: &DtnNode, id: ItemId) -> bool {
    node.replica().item(id).is_some_and(|i| !i.is_deleted())
}

impl Fleet {
    fn new(setup: &Setup, policy: fn(&Setup, usize) -> Box<dyn DtnPolicy>) -> Fleet {
        let log = Arc::new(Log::default());
        let node = |i: usize| {
            let id = ReplicaId::new(i as u64 + 1);
            let mut node = DtnNode::with_policy(id, &addr(i), policy(setup, i));
            node.replica_mut().set_observer(Obs::new(log.clone()));
            node
        };
        let nodes = (0..NODES).map(node).collect();
        Fleet { nodes, log, policy }
    }

    /// Applies `op` at `now`, returning what the host API reported.
    fn apply(&mut self, setup: &Setup, op: &Op, now: SimTime) -> String {
        let addrs = |to: &[usize]| to.iter().map(|&a| addr(a)).collect::<Vec<_>>();
        match op {
            Op::Send(from, to, lifetime) => {
                let (node, to, body) = (&mut self.nodes[*from], addrs(to), b"m".to_vec());
                let sent = match (&to[..], lifetime) {
                    ([one], Some(secs)) => {
                        node.send_with_lifetime(one, body, now, SimDuration::from_secs(*secs))
                    }
                    ([one], None) => node.send(one, body, now),
                    _ => {
                        let to: Vec<&str> = to.iter().map(String::as_str).collect();
                        node.send_multicast(&to, body, now)
                    }
                };
                return format!("{sent:?}");
            }
            &Op::Meet(a, b, mode, budget) if a != b => {
                let [x, y] = self.nodes.get_disjoint_mut([a, b]).expect("two nodes");
                x.set_sync_mode(mode);
                y.set_sync_mode(mode);
                let budget =
                    budget.map_or(EncounterBudget::unlimited(), EncounterBudget::max_messages);
                return format!("{:?}", x.encounter(y, now, budget));
            }
            Op::Readdress(n, to) => self.nodes[*n].set_addresses(addrs(to)),
            &Op::Restart(n) => {
                let bytes = self.nodes[n].snapshot();
                let policy = (self.policy)(setup, n);
                let mut node = DtnNode::restore_with_policy(&bytes, policy).expect("own snapshot");
                node.replica_mut().set_observer(Obs::new(self.log.clone()));
                self.nodes[n] = node;
            }
            Op::Rewrite(at, pick, to) => {
                let first = &self.nodes[at[0]];
                let ids = first.replica().item_ids().into_iter();
                let ids: Vec<ItemId> = ids.filter(|&id| rewritable(first, id)).collect();
                let Some(&id) = ids.get(pick % ids.len().max(1)) else {
                    return String::new();
                };
                for (&n, &dest) in at.iter().zip(to) {
                    if rewritable(&self.nodes[n], id) {
                        let replica = self.nodes[n].replica_mut();
                        let mut attrs = replica.item(id).expect("rewritable").attrs().clone();
                        attrs.set(ATTR_DEST, addr(dest));
                        replica.update(id, attrs, b"r".to_vec()).expect("stored");
                    }
                }
            }
            Op::Cap(n, cap) => self.nodes[*n].replica_mut().set_relay_limit(*cap),
            Op::Meet(..) | Op::Wait(_) => {}
        }
        String::new()
    }
}

// --- The invariants of the shipped fleet --------------------------------

type Copies = BTreeMap<ItemId, (Version, i64)>;

/// Each node's live copies with their version and the TTL Epidemic reads.
fn ttls(fleet: &Fleet) -> Vec<Copies> {
    let copies = |node: &DtnNode| {
        let live = node.replica().iter_items().filter(|i| !i.is_deleted());
        live.map(|i| (i.id(), (i.version(), int(i, ATTR_TTL, TTL))))
            .collect()
    };
    fleet.nodes.iter().map(copies).collect()
}

/// Each relay hop this step delivered a TTL below the one its sender
/// stored: the sender's copy before the step is the one it sent, unless
/// the target's copy is another version (a concurrent version can come
/// back in the same encounter).
fn ttls_drop(before: &[Copies], after: &[Copies], log: &[Event]) -> Result<(), String> {
    for event in log {
        if let Event::ItemTransmitted {
            source,
            target,
            origin,
            seq,
            matched_filter: false,
            ..
        } = *event
        {
            let id = ItemId::new(ReplicaId::new(origin), seq);
            let sent = before[source as usize - 1].get(&id);
            if let (Some(sent), Some(got)) = (sent, after[target as usize - 1].get(&id)) {
                if sent.0 == got.0 && got.1 >= sent.1 {
                    return Err(format!(
                        "{id:?} went from {source} to {target} at TTL {got:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

type Vector = BTreeMap<IStr, f64>;

/// Each node's predictabilities, as it persists them.
fn vectors(fleet: &Fleet) -> Vec<Vector> {
    let vector = |node: &DtnNode| {
        let state = node.policy().save_state();
        let probs = get_addr_probs(&mut Reader::new(&state)).expect("PROPHET state");
        probs.into_iter().collect()
    };
    fleet.nodes.iter().map(vector).collect()
}

/// No predictability rose this step but through an encounter with a peer
/// at that address or predicting it.
fn rises_only_by_a_peer(op: &Op, before: &[Vector], fleet: &Fleet) -> Result<(), String> {
    let after = vectors(fleet);
    for (n, vector) in after.iter().enumerate() {
        let peer = match *op {
            Op::Meet(a, b, ..) if a != b && n == a => Some(b),
            Op::Meet(a, b, ..) if a != b && n == b => Some(a),
            _ => None,
        };
        let named = |addr: &IStr| {
            peer.is_some_and(|m| {
                fleet.nodes[m].addresses().any(|a| a == addr.as_str())
                    || before[m].contains_key(addr)
                    || after[m].contains_key(addr)
            })
        };
        for (addr, &p) in vector {
            let held = before[n].get(addr).copied().unwrap_or(0.0);
            if p > held && !named(addr) {
                return Err(format!("node {n}: P[{addr}] rose from {held} to {p}"));
            }
        }
    }
    Ok(())
}

// --- The harness ----------------------------------------------------------

/// A node's items and routing state, to show where two nodes differ.
fn describe(node: &DtnNode) -> String {
    let items: Vec<&Item> = node.replica().iter_items().collect();
    format!("{items:?} {:?}", node.policy().save_state())
}

fn run(setup: &Setup, script: &[Op]) -> Result<(), String> {
    let [mut fleet, mut model] = [Fleet::new(setup, shipped), Fleet::new(setup, naive)];
    let mut now = 0;
    for (step, op) in script.iter().enumerate() {
        let fail = |what: String| format!("step {step} ({op:?}): {what}");
        if let Op::Wait(secs) = op {
            now += secs;
        }
        let at = SimTime::from_secs(now);
        let ttls_before = (setup.kind == PolicyKind::Epidemic).then(|| ttls(&fleet));
        let vectors_before = (setup.kind == PolicyKind::Prophet).then(|| vectors(&fleet));
        let (got, want) = (fleet.apply(setup, op, at), model.apply(setup, op, at));
        if got != want {
            return Err(fail(format!("reported {got}, the reference {want}")));
        }
        let take = |fleet: &Fleet| std::mem::take(&mut *fleet.log.0.lock().expect("log"));
        let (log, want) = (take(&fleet), take(&model));
        if log != want {
            return Err(fail(format!("synced {log:?}, the reference {want:?}")));
        }
        for (n, (node, twin)) in fleet.nodes.iter().zip(&model.nodes).enumerate() {
            if node.snapshot() != twin.snapshot() {
                let (got, want) = (describe(node), describe(twin));
                return Err(fail(format!("node {n} holds {got}, the reference {want}")));
            }
        }
        if let Some(before) = ttls_before {
            ttls_drop(&before, &ttls(&fleet), &log).map_err(fail)?;
        }
        if let Some(before) = vectors_before {
            rises_only_by_a_peer(op, &before, &fleet).map_err(fail)?;
        }
    }
    Ok(())
}

/// [`run`], with a panic anywhere in it counted as a failure.
fn replay(setup: &Setup, script: &[Op]) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| run(setup, script))).unwrap_or_else(|panic| {
        let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
        let owned = panic.downcast_ref::<String>().cloned();
        Err(owned.or(text).unwrap_or_default())
    })
}

/// Fails with the script cut down, one deleted step at a time, to one
/// that still fails but passes without any one of its steps.
fn check(setup: Setup, mut script: Vec<Op>) {
    let Err(mut failure) = replay(&setup, &script) else {
        return;
    };
    let mut at = 0;
    while at < script.len() {
        let mut shorter = script.clone();
        shorter.remove(at);
        match replay(&setup, &shorter) {
            Err(shorter_failure) => (script, failure) = (shorter, shorter_failure),
            Ok(()) => at += 1,
        }
    }
    panic!("{setup:?} diverged from its reference at {failure}\nshrunk script: {script:#?}");
}

proptest! {
    /// Every policy runs every script, so each gets the whole case budget.
    /// MaxProp draws its acknowledgements node by node: a carrier without
    /// them hands on copies its peers have acknowledged.
    #[test]
    fn each_policy_fleet_equals_its_naive_fleet(
        acks in proptest::collection::vec(any::<bool>(), NODES..NODES + 1),
        script in proptest::collection::vec(arb_op(), 16..96),
    ) {
        let acks = acks.try_into().expect("a flag per node");
        for kind in PolicyKind::EXTENDED {
            check(Setup { kind, acks }, script.clone());
        }
    }
}

/// A relay copy made by a local write: node 0 delivers and acknowledges
/// the message, then readdresses its own copy away from itself, which
/// turns it into a relay copy that no grown origin or arrival names. The
/// next request node 0 serves must purge it, as the full relay-FIFO scan
/// of the reference does.
#[test]
fn a_relay_copy_made_by_a_local_write_is_purged() {
    let setup = Setup {
        kind: PolicyKind::MaxProp,
        acks: [true; NODES],
    };
    let script = [
        Op::Send(5, vec![0, 2], Some(3600)),
        Op::Meet(5, 4, SyncMode::Digest, Some(2)),
        Op::Meet(0, 4, SyncMode::Digest, None),
        Op::Rewrite([4, 0], 1, [5, 3]),
        Op::Meet(2, 0, SyncMode::Full, Some(2)),
    ];
    if let Err(failure) = replay(&setup, &script) {
        panic!("diverged from the reference at {failure}");
    }
}
