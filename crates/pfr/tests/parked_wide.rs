//! Parked selection ≡ naive selection over a wide address space: more
//! destinations than a store's 62 park key bits.
//!
//! A source first receives a copy for each of 80 addresses and serves a
//! sync that parks them, so its key table is full and later parks fold.
//! Then a random script runs over a universe of 100 addresses: copies
//! arrive, unicast or multicast, one at a time or in runs; stored copies
//! are re-addressed, written in place or deleted, which frees key slots
//! for reuse; and syncs serve targets that want a few addresses through
//! their filter and a few through the extension's favoured set. Every
//! batch, `withheld` count and candidate count must equal those of a
//! reference that judges every stored copy at every sync.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use pfr::obs::{Obs, Registry};
use pfr::sync::{self, Candidate, ParkKeys, SendDecision, SyncRequest};
use pfr::{
    AttributeMap, Filter, Item, ItemId, Knowledge, Priority, Replica, ReplicaId, RoutingState,
    SimTime, SyncExtension, SyncLimits, Value, Version,
};

/// How many addresses copies are sent to.
const UNIVERSE: u8 = 100;
/// How many distinct addresses the opening fill parks copies under.
const FILL: u8 = 80;

fn rid(n: u64) -> ReplicaId {
    ReplicaId::new(n)
}

fn addr(n: u8) -> String {
    format!("node-{}", n % UNIVERSE)
}

/// The `dest` value of a copy to `first` and `extra` more addresses after
/// it, every `stride`-th.
fn dest_value(first: u8, extra: u8, stride: u8) -> Value {
    match extra {
        0 => Value::from(addr(first)),
        _ => Value::List(
            (0..=extra)
                .map(|k| Value::from(addr(first.wrapping_add(k.wrapping_mul(stride)))))
                .collect(),
        ),
    }
}

fn dests(item: &Item) -> Vec<&str> {
    match item.attrs().get("dest") {
        Some(Value::Str(s)) => vec![s.as_str()],
        Some(Value::List(values)) => values.iter().filter_map(Value::as_str).collect(),
        _ => Vec::new(),
    }
}

/// The extension's verdict, the same however often it is asked:
/// tombstones and copies with a favoured destination go, cheapest first
/// by sequence number; so does a copy last touched with an odd mark; of
/// the rest, every fifth is skipped and the others are parked.
fn rule(item: &Item, favoured: &BTreeSet<String>) -> SendDecision {
    let touched = item.transient().get_i64("touched");
    if item.is_deleted() || touched.is_some_and(|t| t % 2 == 1) {
        SendDecision::Send(Priority::normal())
    } else if dests(item).iter().any(|d| favoured.contains(*d)) {
        SendDecision::Send(Priority::new(
            pfr::PriorityClass::Normal,
            item.id().seq() as f64,
        ))
    } else if item.id().seq().is_multiple_of(5) {
        SendDecision::Skip
    } else {
        SendDecision::Park
    }
}

/// [`rule`] as an extension that parks under `dest` and wants the
/// destinations it favours.
struct Favouring(BTreeSet<String>);

impl SyncExtension for Favouring {
    fn to_send(&mut self, candidate: &mut Candidate<'_>, _: &SyncRequest<'_>) -> SendDecision {
        rule(candidate, &self.0)
    }

    fn park_keys(&self, keys: &mut ParkKeys<'_>) {
        keys.file_under("dest");
        for addr in &self.0 {
            keys.want(addr);
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// A copy to `first` (and `extra` more addresses) arrives.
    Arrive { first: u8, extra: u8, stride: u8 },
    /// `count` copies arrive in a row, to consecutive addresses.
    Bulk { first: u8, count: u8 },
    /// The source re-addresses a stored item.
    Update { pick: u8, first: u8, extra: u8 },
    /// The source writes transient metadata on a stored copy.
    Touch { pick: u8 },
    /// The source deletes a stored item.
    Delete { pick: u8 },
    /// A target pulls, its filter naming `wanted` addresses from
    /// `first` (none: the filter matches nothing) or all of them, the
    /// extension favouring `favoured` addresses from `fav`, knowing every
    /// stored copy whose index in the store `known` sets.
    Sync {
        all: bool,
        first: u8,
        wanted: u8,
        fav: u8,
        favoured: u8,
        known: u64,
    },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let sync = (
        0u8..8,
        any::<u8>(),
        0u8..4,
        any::<u8>(),
        0u8..4,
        any::<u64>(),
    )
        .prop_map(|(all, first, wanted, fav, favoured, known)| Op::Sync {
            all: all == 0,
            first,
            wanted,
            fav,
            favoured,
            known,
        });
    let op = prop_oneof![
        (any::<u8>(), 0u8..3, 1u8..40).prop_map(|(first, extra, stride)| Op::Arrive {
            first,
            extra,
            stride
        }),
        (any::<u8>(), 10u8..70).prop_map(|(first, count)| Op::Bulk { first, count }),
        (any::<u8>(), any::<u8>(), 0u8..3).prop_map(|(pick, first, extra)| Op::Update {
            pick,
            first,
            extra
        }),
        any::<u8>().prop_map(|pick| Op::Touch { pick }),
        any::<u8>().prop_map(|pick| Op::Delete { pick }),
        any::<u8>().prop_map(|pick| Op::Delete { pick }),
        sync.clone(),
        sync,
    ];
    proptest::collection::vec(op, 1..60)
}

/// One served batch as the reference computes it: entries (id, matched,
/// priority) in transmission order, withheld, candidates.
type Selection = (Vec<(ItemId, bool, Priority)>, usize, u64);

fn reference(
    source: &Replica,
    request: &SyncRequest<'_>,
    favoured: &BTreeSet<String>,
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
    (selected, withheld, candidates)
}

/// The source, with the registry that counts its candidates.
struct Source {
    replica: Replica,
    registry: Arc<Registry>,
    next: u64,
    candidates_seen: u64,
}

impl Source {
    fn arrive(&mut self, dest: Value, now: SimTime) {
        self.next += 1;
        let origin = rid(1 + self.next % 3);
        let item = Item::builder(
            ItemId::new(origin, self.next),
            Version::new(origin, self.next),
        )
        .attr("dest", dest)
        .build();
        self.replica.apply_remote(item, now);
    }

    /// Serves one sync and checks it against the reference.
    fn serve(&mut self, filter: Filter, favoured: BTreeSet<String>, known: u64, now: SimTime) {
        let mut knowledge = Knowledge::new();
        for (i, item) in self.replica.iter_items().enumerate() {
            if i < 64 && known & (1 << i) != 0 {
                knowledge.insert(item.version());
            }
        }
        let request = SyncRequest {
            target: rid(20),
            knowledge: Cow::Owned(knowledge),
            filter: Cow::Owned(filter),
            routing: RoutingState::empty(),
        };
        let (expected, withheld, candidates) = reference(&self.replica, &request, &favoured);
        let batch = sync::prepare_batch(
            &mut self.replica,
            &mut Favouring(favoured),
            &request,
            SyncLimits::unlimited(),
            now,
        );
        let served: Vec<(ItemId, bool, Priority)> = batch
            .entries
            .iter()
            .map(|e| (e.item.id(), e.matched_filter, e.priority))
            .collect();
        prop_assert_eq!(served, expected, "{}", request.filter);
        prop_assert_eq!(batch.withheld, withheld);
        let counted = self.registry.snapshot().counter("sync.candidates");
        prop_assert_eq!(counted - self.candidates_seen, candidates);
        self.candidates_seen = counted;
    }
}

proptest! {
    #[test]
    fn parked_selection_over_a_wide_address_space_matches_judging_every_copy(ops in arb_ops()) {
        let registry = Arc::new(Registry::new());
        let mut replica = Replica::new(rid(9), Filter::address("dest", "me"));
        replica.set_observer(Obs::new(registry.clone()));
        let mut source = Source { replica, registry, next: 0, candidates_seen: 0 };
        // More parked destinations than key bits: later parks fold.
        for n in 0..FILL {
            source.arrive(Value::from(addr(n)), SimTime::ZERO);
        }
        source.serve(Filter::None, BTreeSet::new(), 0, SimTime::ZERO);
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_secs(1 + step as u64);
            let stored = source.replica.item_ids();
            let pick = |n: u8| stored.get(usize::from(n) % stored.len().max(1)).copied();
            match op {
                Op::Arrive { first, extra, stride } => {
                    source.arrive(dest_value(first, extra, stride), now);
                }
                Op::Bulk { first, count } => {
                    for k in 0..count {
                        source.arrive(Value::from(addr(first.wrapping_add(k))), now);
                    }
                }
                Op::Update { pick: n, first, extra } => {
                    let Some(id) = pick(n) else { continue };
                    let mut attrs = AttributeMap::new();
                    attrs.set("dest", dest_value(first, extra, 7));
                    source.replica.update(id, attrs, vec![n]).unwrap();
                }
                Op::Touch { pick: n } => {
                    let Some(id) = pick(n) else { continue };
                    source.replica.set_transient(id, "touched", i64::from(n)).unwrap();
                }
                Op::Delete { pick: n } => {
                    let Some(id) = pick(n) else { continue };
                    source.replica.delete(id).unwrap();
                }
                Op::Sync { all, first, wanted, fav, favoured, known } => {
                    let filter = if all {
                        Filter::All
                    } else {
                        Filter::any_address("dest", (0..wanted).map(|k| addr(first.wrapping_add(k))))
                    };
                    let favoured = (0..favoured).map(|k| addr(fav.wrapping_add(k))).collect();
                    source.serve(filter, favoured, known, now);
                }
            }
        }
    }
}
