//! Parked selection ≡ naive selection: `prepare_batch` with an extension
//! that parks, against a reference written here that judges every stored
//! copy at every sync — the target's knowledge, then its filter, then the
//! extension's rule — and orders and cuts the batch as the protocol says.
//!
//! One source lives through a random script: copies arrive from three
//! origins, unicast, multicast or with no destination at all, one at a
//! time or in runs that carry an origin's counters across several of the
//! store's 64-counter stretches (the origins start at counters 63, 64 and
//! 65, either side of the first boundary); stored copies are updated here
//! or revised at their origin — both move the version to another stretch
//! — written in place, deleted one by one or a whole stretch at a time;
//! and syncs serve targets of random knowledge (single versions and
//! prefixes that end at and around the boundaries), favoured destinations
//! and item caps, with filters of four shapes — an address disjunction,
//! `all`, `none`, and a predicate on another attribute. Parks made at one
//! sync must hold, and be undone, exactly where re-judging the copy would
//! have said so.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use pfr::obs::{Obs, Registry};
use pfr::sync::{self, Candidate, ParkKeys, SendDecision, SyncRequest};
use pfr::{
    AttributeMap, CmpOp, Filter, Item, ItemId, Knowledge, Priority, PriorityClass, Replica,
    ReplicaId, RoutingState, SimTime, SyncExtension, SyncLimits, Value, Version,
};

const ADDRS: [&str; 5] = ["a", "b", "c", "d", "e"];
const SOURCE: u64 = 9;

fn rid(n: u64) -> ReplicaId {
    ReplicaId::new(n)
}

/// The addresses whose bits `mask` sets.
fn addrs(mask: u8) -> impl Iterator<Item = &'static str> {
    ADDRS
        .iter()
        .enumerate()
        .filter(move |(i, _)| mask & (1 << i) != 0)
        .map(|(_, addr)| *addr)
}

fn dests(item: &Item) -> Vec<&str> {
    match item.attrs().get("dest") {
        Some(Value::Str(s)) => vec![s.as_str()],
        Some(Value::List(values)) => values.iter().filter_map(Value::as_str).collect(),
        _ => Vec::new(),
    }
}

/// The extension's verdict on an out-of-filter copy, the same however
/// often it is asked: tombstones flood; a copy for a favoured destination
/// goes, cheapest first by sequence number, and so does one last written
/// in place with an odd mark; of the rest, every third is only skipped
/// and the others are parked.
fn rule(item: &Item, favoured: &BTreeSet<&str>) -> SendDecision {
    if item.is_deleted() {
        return SendDecision::Send(Priority::normal());
    }
    if item
        .transient()
        .get_i64("touched")
        .is_some_and(|t| t % 2 == 1)
    {
        return SendDecision::Send(Priority::new(PriorityClass::Low, 0.0));
    }
    if dests(item).iter().any(|d| favoured.contains(d)) {
        SendDecision::Send(Priority::new(PriorityClass::Normal, item.id().seq() as f64))
    } else if item.id().seq().is_multiple_of(3) {
        SendDecision::Skip
    } else {
        SendDecision::Park
    }
}

/// [`rule`] as an extension that parks under `dest` and wants the
/// destinations it favours.
struct Favouring(BTreeSet<&'static str>);

impl SyncExtension for Favouring {
    fn to_send(&mut self, candidate: &mut Candidate<'_>, _: &SyncRequest<'_>) -> SendDecision {
        rule(candidate, &self.0)
    }

    fn park_keys(&self, keys: &mut ParkKeys) {
        keys.file_under("dest");
        for addr in &self.0 {
            keys.want(addr);
        }
    }
}

/// One served batch as the reference computes it: entries (id, matched,
/// priority) in transmission order, withheld, candidates.
type Selection = (Vec<(ItemId, bool, Priority)>, usize, u64);

fn reference(
    source: &Replica,
    request: &SyncRequest<'_>,
    favoured: &BTreeSet<&str>,
    limits: SyncLimits,
) -> Selection {
    let mut selected = Vec::new();
    let (mut withheld, mut candidates) = (0, 0);
    for item in source.iter_items() {
        if request.knowledge.contains(item.version()) {
            continue;
        }
        candidates += 1;
        if request.filter.matches(item) {
            selected.push((item.id(), true, Priority::highest()));
            continue;
        }
        match rule(item, favoured) {
            SendDecision::Send(priority) => selected.push((item.id(), false, priority)),
            SendDecision::Skip | SendDecision::Park => withheld += 1,
        }
    }
    selected.sort_by(|(a, _, pa), (b, _, pb)| {
        pb.class()
            .cmp(&pa.class())
            .then(pa.cost().total_cmp(&pb.cost()))
            .then(a.cmp(b))
    });
    if let Some(max) = limits.max_items {
        withheld += selected.len().saturating_sub(max);
        selected.truncate(max);
    }
    (selected, withheld, candidates)
}

#[derive(Clone, Debug)]
enum Op {
    /// A copy from `origin` arrives, addressed to the `dests` mask (none,
    /// one, or a multicast list).
    Arrive { origin: u8, dests: u8, size: u8 },
    /// `count` copies from `origin` arrive in a row, the first addressed
    /// to the `dests` mask and each next one to the mask after it; an odd
    /// run arrives newest first.
    Bulk { origin: u8, count: u8, dests: u8 },
    /// The source writes a new version of a stored item.
    Update { pick: u8, dests: u8 },
    /// The origin of a stored item writes a new version of it, `jump`
    /// counters past its latest, and the source receives it.
    Revise { pick: u8, jump: u8, dests: u8 },
    /// The source writes transient metadata on a stored copy.
    Touch { pick: u8 },
    /// The source deletes a stored item.
    Delete { pick: u8 },
    /// The source deletes every stored item whose version shares a
    /// stretch with the picked one's, leaving that stretch empty.
    DeleteStretch { pick: u8 },
    /// A target with this filter shape, address mask, favoured mask,
    /// known-copies mask, prefix claim (see [`prefix_claim`]) and item
    /// cap (0 = none) pulls from the source.
    Sync {
        shape: u8,
        filter: u8,
        favoured: u8,
        known: u32,
        prefix: u8,
        cap: u8,
    },
}

/// Counters per stretch of the source's version index (and per word of a
/// knowledge's exceptions).
const STRETCH: u64 = 64;

/// The prefix a target claims: an origin, the source among them, and a
/// counter at or around a stretch boundary (0 claims nothing).
fn prefix_claim(prefix: u8) -> (ReplicaId, u64) {
    let origin = [1, 2, 3, SOURCE][usize::from(prefix / 8 % 4)];
    let counter = [0, 62, 63, 64, 65, 127, 128, 140][usize::from(prefix % 8)];
    (rid(origin), counter)
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let sync = (0u8..4, 0u8..32, 0u8..32, any::<u32>(), any::<u8>(), 0u8..4).prop_map(
        |(shape, filter, favoured, known, prefix, cap)| Op::Sync {
            shape,
            filter,
            favoured,
            known,
            prefix,
            cap,
        },
    );
    let op = prop_oneof![
        (0u8..3, 0u8..32, 0u8..6).prop_map(|(origin, dests, size)| Op::Arrive {
            origin,
            dests,
            size
        }),
        (0u8..3, 0u8..32, 0u8..6).prop_map(|(origin, dests, size)| Op::Arrive {
            origin,
            dests,
            size
        }),
        (0u8..3, 20u8..70, 0u8..32).prop_map(|(origin, count, dests)| Op::Bulk {
            origin,
            count,
            dests
        }),
        (any::<u8>(), 0u8..32).prop_map(|(pick, dests)| Op::Update { pick, dests }),
        (any::<u8>(), 0u8..70, 0u8..32).prop_map(|(pick, jump, dests)| Op::Revise {
            pick,
            jump,
            dests
        }),
        any::<u8>().prop_map(|pick| Op::Touch { pick }),
        any::<u8>().prop_map(|pick| Op::Delete { pick }),
        any::<u8>().prop_map(|pick| Op::DeleteStretch { pick }),
        sync.clone(),
        sync,
    ];
    proptest::collection::vec(op, 1..60)
}

/// A copy of a new item from origin `origin` (0, 1 or 2), its id and
/// version taken from the origin's next counter.
fn arrival(counters: &mut [u64; 3], origin: u8, dests: u8, size: u8) -> Item {
    let o = usize::from(origin);
    counters[o] += 1;
    let origin = rid(1 + u64::from(origin));
    let mut item = Item::builder(
        ItemId::new(origin, counters[o]),
        Version::new(origin, counters[o]),
    )
    .attr("size", i64::from(size));
    if let Some(dest) = dest_value(dests) {
        item = item.attr("dest", dest);
    }
    item.build()
}

fn dest_value(mask: u8) -> Option<Value> {
    let listed: Vec<&str> = addrs(mask).collect();
    match listed.as_slice() {
        [] => None,
        [one] => Some(Value::from(*one)),
        many => Some(Value::List(many.iter().map(|a| Value::from(*a)).collect())),
    }
}

fn attrs(dests: u8, size: u8) -> AttributeMap {
    let mut attrs = AttributeMap::new();
    if let Some(dest) = dest_value(dests) {
        attrs.set("dest", dest);
    }
    attrs.set("size", i64::from(size));
    attrs
}

fn target_filter(shape: u8, mask: u8) -> Filter {
    match shape {
        0 => Filter::any_address("dest", addrs(mask)),
        1 => Filter::All,
        2 => Filter::None,
        _ => Filter::Cmp {
            attr: "size".into(),
            op: CmpOp::Lt,
            value: Value::from(i64::from(mask % 6)),
        },
    }
}

proptest! {
    // 256 cases, or more where `PROPTEST_CASES` asks for a deeper run.
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(256)))]

    #[test]
    fn parked_selection_matches_judging_every_copy(ops in arb_ops()) {
        let registry = Arc::new(Registry::new());
        let mut source = Replica::new(rid(SOURCE), Filter::address("dest", "me"));
        source.set_observer(Obs::new(registry.clone()));
        // Each origin's first counter is 63, 64 or 65.
        let mut counters = [62u64, 63, 64];
        let mut candidates_seen = 0u64;
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(step as u64);
            let stored = source.item_ids();
            let pick = |n: u8| stored.get(usize::from(n) % stored.len().max(1)).copied();
            match op {
                Op::Arrive { origin, dests, size } => {
                    source.apply_remote(arrival(&mut counters, origin, dests, size), now);
                }
                Op::Bulk { origin, count, dests } => {
                    let mut run: Vec<Item> = (0..count)
                        .map(|n| arrival(&mut counters, origin, (dests + n) % 32, n % 6))
                        .collect();
                    if count % 2 == 1 {
                        run.reverse();
                    }
                    for item in run {
                        source.apply_remote(item, now);
                    }
                }
                Op::Update { pick: n, dests } => {
                    let Some(id) = pick(n) else { continue };
                    source.update(id, attrs(dests, n % 6), vec![n]).unwrap();
                }
                Op::Revise { pick: n, jump, dests } => {
                    let Some(id) = pick(n) else { continue };
                    let stored = source.item(id).expect("picked from the store");
                    let o = (id.origin().as_u64() - 1) as usize;
                    counters[o] += 1 + u64::from(jump);
                    let revised = Item::builder(id, Version::new(id.origin(), counters[o]))
                        .attrs(attrs(dests, n % 6))
                        .build();
                    let revised = stored
                        .ancestors()
                        .chain([stored.version()])
                        .fold(revised, Item::with_ancestor);
                    source.apply_remote(revised, now);
                }
                Op::Touch { pick: n } => {
                    let Some(id) = pick(n) else { continue };
                    source.set_transient(id, "touched", i64::from(n)).unwrap();
                }
                Op::Delete { pick: n } => {
                    let Some(id) = pick(n) else { continue };
                    source.delete(id).unwrap();
                }
                Op::DeleteStretch { pick: n } => {
                    let Some(id) = pick(n) else { continue };
                    let picked = source.item(id).expect("picked from the store").version();
                    let stretch = |v: Version| (v.replica(), v.counter() / STRETCH);
                    let mates: Vec<ItemId> = source
                        .iter_items()
                        .filter(|item| stretch(item.version()) == stretch(picked))
                        .map(Item::id)
                        .collect();
                    for id in mates {
                        source.delete(id).unwrap();
                    }
                }
                Op::Sync { shape, filter, favoured, known, prefix, cap } => {
                    let mut knowledge = Knowledge::new();
                    let (origin, counter) = prefix_claim(prefix);
                    knowledge.insert_prefix(origin, counter);
                    for (i, item) in source.iter_items().enumerate() {
                        if i < 32 && known & (1 << i) != 0 {
                            knowledge.insert(item.version());
                        }
                    }
                    let request = SyncRequest {
                        target: rid(20),
                        knowledge: Cow::Owned(knowledge),
                        filter: Cow::Owned(target_filter(shape, filter)),
                        routing: RoutingState::empty(),
                    };
                    let favoured: BTreeSet<&'static str> = addrs(favoured).collect();
                    let limits = match cap {
                        0 => SyncLimits::unlimited(),
                        n => SyncLimits::max_items(usize::from(n)),
                    };
                    let (expected, withheld, candidates) =
                        reference(&source, &request, &favoured, limits);
                    let batch = sync::prepare_batch(
                        &mut source,
                        &mut Favouring(favoured),
                        &request,
                        limits,
                        now,
                    );
                    let served: Vec<(ItemId, bool, Priority)> = batch
                        .entries
                        .iter()
                        .map(|e| (e.item.id(), e.matched_filter, e.priority))
                        .collect();
                    prop_assert_eq!(served, expected, "step {}: {}", step, request.filter);
                    prop_assert_eq!(batch.withheld, withheld, "step {}", step);
                    let counted = registry.snapshot().counter("sync.candidates");
                    prop_assert_eq!(counted - candidates_seen, candidates, "step {}", step);
                    candidates_seen = counted;
                }
            }
        }
    }
}
