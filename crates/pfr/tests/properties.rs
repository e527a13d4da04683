//! Property-based tests for the replication substrate's core invariants:
//! knowledge algebra, at-most-once delivery, eventual filter consistency,
//! and wire-codec round trips.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pfr::wire::{from_bytes, to_bytes};
use pfr::{sync, AttributeMap, Filter, Knowledge, Replica, ReplicaId, SimTime, Value, Version};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Counters either side of the 64-bit exception words' boundaries, and
/// one below the top of the range.
const BOUNDARIES: [u64; 6] = [63, 64, 65, 127, 128, u64::MAX - 1];

/// Origins the generators draw from.
const ORIGINS: u64 = 6;

/// A counter in `1..300` (five words' worth), or one of the
/// [`BOUNDARIES`].
fn arb_counter() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..300,
        1u64..300,
        1u64..300,
        (0..BOUNDARIES.len()).prop_map(|i| BOUNDARIES[i]),
    ]
}

/// A prefix claim reaching across several words, often to right below, at
/// or right above a word boundary: the claim then swallows whole words,
/// trims one, or folds in a run that starts at bit 63 or bit 0 of the
/// next word.
fn arb_prefix() -> impl Strategy<Value = u64> {
    const AT_BOUNDARIES: [u64; 6] = [62, 63, 64, 126, 127, 128];
    prop_oneof![
        0u64..300,
        (0..AT_BOUNDARIES.len()).prop_map(|i| AT_BOUNDARIES[i]),
    ]
}

fn arb_version() -> impl Strategy<Value = Version> {
    (1..ORIGINS, arb_counter()).prop_map(|(r, c)| Version::new(ReplicaId::new(r), c))
}

/// One version at each of the [`BOUNDARIES`], each at a random origin.
fn arb_boundary_versions() -> impl Strategy<Value = Vec<Version>> {
    let n = BOUNDARIES.len();
    proptest::collection::vec(1..ORIGINS, n..n + 1).prop_map(|origins| {
        let mixed = origins.into_iter().zip(BOUNDARIES);
        mixed
            .map(|(r, c)| Version::new(ReplicaId::new(r), c))
            .collect()
    })
}

/// Random versions, always with every boundary counter mixed in.
fn arb_versions(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Version>> {
    (
        proptest::collection::vec(arb_version(), len),
        arb_boundary_versions(),
    )
        .prop_map(|(mut versions, mut mixed)| {
            versions.append(&mut mixed);
            versions
        })
}

fn arb_knowledge() -> impl Strategy<Value = Knowledge> {
    arb_versions(0..60).prop_map(|versions| {
        let mut k = Knowledge::new();
        for v in versions {
            k.insert(v);
        }
        k
    })
}

/// The counters a knowledge model is checked at: every one up to past the
/// last generated run, and both sides of the top of the range.
fn probed_counters() -> impl Iterator<Item = u64> {
    (1..330).chain([u64::MAX - 2, u64::MAX - 1, u64::MAX])
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        "[a-z]{0,8}".prop_map(Value::from),
        any::<i64>().prop_map(Value::from),
        // Finite floats only: NaN is rejected by AttributeMap by design.
        any::<i32>().prop_map(|i| Value::from(f64::from(i) / 8.0)),
        any::<bool>().prop_map(Value::from),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::from),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

// ---------------------------------------------------------------------------
// Knowledge is a join-semilattice
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn knowledge_contains_every_inserted_version(versions in arb_versions(0..80)) {
        let mut k = Knowledge::new();
        for &v in &versions {
            k.insert(v);
        }
        for &v in &versions {
            prop_assert!(k.contains(v));
        }
    }

    #[test]
    fn knowledge_merge_is_commutative(a in arb_knowledge(), b in arb_knowledge()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert!(ab.dominates(&ba) && ba.dominates(&ab));
    }

    #[test]
    fn knowledge_merge_is_associative(
        a in arb_knowledge(), b in arb_knowledge(), c in arb_knowledge()
    ) {
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert!(left.dominates(&right) && right.dominates(&left));
    }

    #[test]
    fn knowledge_merge_is_idempotent(a in arb_knowledge()) {
        let mut aa = a.clone();
        aa.merge(&a);
        prop_assert_eq!(aa, a);
    }

    #[test]
    fn knowledge_merge_dominates_both_inputs(a in arb_knowledge(), b in arb_knowledge()) {
        let mut m = a.clone();
        m.merge(&b);
        prop_assert!(m.dominates(&a));
        prop_assert!(m.dominates(&b));
    }

    #[test]
    fn knowledge_compaction_never_loses_versions(
        mut counters in proptest::collection::vec(1u64..50, 1..50)
    ) {
        // Insert a permutation of 1..=n with duplicates; the set semantics
        // must be exact regardless of compaction.
        let r = ReplicaId::new(1);
        let mut k = Knowledge::new();
        for &c in &counters {
            k.insert(Version::new(r, c));
        }
        counters.sort_unstable();
        counters.dedup();
        for c in 1..=50u64 {
            prop_assert_eq!(
                k.contains(Version::new(r, c)),
                counters.binary_search(&c).is_ok(),
                "counter {}", c
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Knowledge ≡ a plain set of versions
// ---------------------------------------------------------------------------

/// One step of a knowledge-building script.
#[derive(Clone, Debug)]
enum KnowledgeOp {
    Insert(Version),
    Prefix(ReplicaId, u64),
}

fn arb_knowledge_ops() -> impl Strategy<Value = Vec<KnowledgeOp>> {
    // Three single inserts for every prefix claim.
    let op = prop_oneof![
        arb_version().prop_map(KnowledgeOp::Insert),
        arb_version().prop_map(KnowledgeOp::Insert),
        arb_version().prop_map(KnowledgeOp::Insert),
        (1..ORIGINS, arb_prefix()).prop_map(|(r, c)| KnowledgeOp::Prefix(ReplicaId::new(r), c)),
    ];
    (
        arb_boundary_versions(),
        proptest::collection::vec(op, 0..60),
    )
        .prop_map(|(mixed, ops)| {
            // The boundary versions go in first, so later claims and inserts
            // build on them.
            mixed
                .into_iter()
                .map(KnowledgeOp::Insert)
                .chain(ops)
                .collect()
        })
}

/// Runs a script against both the compact layout and the naive model.
fn build(ops: &[KnowledgeOp]) -> (Knowledge, BTreeSet<Version>) {
    let (mut k, mut model) = (Knowledge::new(), BTreeSet::new());
    for op in ops {
        match *op {
            KnowledgeOp::Insert(v) => {
                k.insert(v);
                model.insert(v);
            }
            KnowledgeOp::Prefix(r, c) => {
                k.insert_prefix(r, c);
                model.extend((1..=c).map(|c| Version::new(r, c)));
            }
        }
    }
    (k, model)
}

/// The one representation a version set may have: built in ascending
/// order, so nothing is ever held out of order.
fn canonical(model: &BTreeSet<Version>) -> Knowledge {
    let mut k = Knowledge::new();
    for &v in model {
        k.insert(v);
    }
    k
}

proptest! {
    #[test]
    fn knowledge_matches_the_set_model(ops in arb_knowledge_ops()) {
        let (k, model) = build(&ops);
        for r in 1..ORIGINS {
            for c in probed_counters() {
                let v = Version::new(ReplicaId::new(r), c);
                prop_assert_eq!(k.contains(v), model.contains(&v), "{}", v);
            }
        }
        prop_assert_eq!(k.version_count(), model.len() as u64);
        prop_assert_eq!(k.is_empty(), model.is_empty());
        let listed: u64 = k.vector_entries().map(|(_, c)| c).sum();
        prop_assert_eq!(listed + k.exception_count() as u64, model.len() as u64);
        // Equal sets have equal representations, however they were built.
        prop_assert_eq!(&k, &canonical(&model));
    }

    #[test]
    fn knowledge_merge_and_dominates_match_the_set_model(
        a in arb_knowledge_ops(), b in arb_knowledge_ops(), c in arb_knowledge_ops()
    ) {
        let ((ka, ma), (kb, mb), (kc, mc)) = (build(&a), build(&b), build(&c));
        prop_assert_eq!(ka.dominates(&kb), ma.is_superset(&mb));

        let mut ab = ka.clone();
        let learned = ab.merge(&kb);
        prop_assert_eq!(learned, !ma.is_superset(&mb), "merge reports what it learned");
        let union: BTreeSet<Version> = ma.union(&mb).copied().collect();
        prop_assert_eq!(&ab, &canonical(&union));

        // Commutative, associative, idempotent — as equality of
        // representations, not just of contents.
        let mut ba = kb.clone();
        ba.merge(&ka);
        prop_assert_eq!(&ab, &ba);
        let mut ab_c = ab.clone();
        ab_c.merge(&kc);
        let mut bc = kb.clone();
        bc.merge(&kc);
        let mut a_bc = ka.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        prop_assert_eq!(&ab_c, &canonical(&union.union(&mc).copied().collect()));
        let before = ab.clone();
        prop_assert!(!ab.merge(&before), "merging oneself learns nothing");
        prop_assert_eq!(&ab, &before);
    }

    /// The in-place merge against the set model: it holds the union, in
    /// the one representation, and reports exactly the origins that
    /// gained a version, ascending, each once.
    #[test]
    fn knowledge_merge_reports_exactly_the_origins_that_grew(
        a in arb_knowledge_ops(), b in arb_knowledge_ops()
    ) {
        let ((ka, ma), (kb, mb)) = (build(&a), build(&b));
        let mut merged = ka.clone();
        let mut grown = Vec::new();
        merged.merge_reporting(&kb, |origin| grown.push(origin));
        let union: BTreeSet<Version> = ma.union(&mb).copied().collect();
        prop_assert_eq!(&merged, &canonical(&union));
        let gained: BTreeSet<ReplicaId> = mb.difference(&ma).map(|v| v.replica()).collect();
        prop_assert_eq!(grown, gained.into_iter().collect::<Vec<_>>());
    }

    /// A forged `(origin, u64::MAX)` prefix — what an unauthenticated
    /// acknowledgement set may claim — is taken in one step: nothing
    /// overflows, no version is enumerated (a merge that did would not
    /// finish), the origin is reported once, and the other origins merge
    /// as the set model says.
    #[test]
    fn a_forged_full_range_prefix_merges_without_enumerating(
        a in arb_knowledge_ops(), b in arb_knowledge_ops(), forged in 1..ORIGINS
    ) {
        let ((ka, ma), (mut kb, mb)) = (build(&a), build(&b));
        let forged = ReplicaId::new(forged);
        kb.insert_prefix(forged, u64::MAX);
        let mut merged = ka.clone();
        let mut grown = Vec::new();
        merged.merge_reporting(&kb, |origin| grown.push(origin));
        prop_assert_eq!(merged.base_counter(forged), u64::MAX);
        prop_assert_eq!(merged.version_count(), u64::MAX, "the count saturates");
        let gained: BTreeSet<ReplicaId> = mb
            .difference(&ma)
            .map(|v| v.replica())
            .chain((ka.base_counter(forged) < u64::MAX).then_some(forged))
            .collect();
        prop_assert_eq!(grown, gained.into_iter().collect::<Vec<_>>());
        for r in (1..ORIGINS).map(ReplicaId::new) {
            for c in probed_counters() {
                let v = Version::new(r, c);
                let held = r == forged || ma.contains(&v) || mb.contains(&v);
                prop_assert_eq!(merged.contains(v), held, "{}", v);
            }
        }
        let before = merged.clone();
        let mut again = Vec::new();
        merged.merge_reporting(&kb, |origin| again.push(origin));
        prop_assert!(again.is_empty(), "nothing left to learn");
        prop_assert_eq!(&merged, &before);
    }

    #[test]
    fn knowledge_wire_form_is_canonical(ops in arb_knowledge_ops()) {
        let (k, model) = build(&ops);
        let bytes = to_bytes(&k);
        prop_assert_eq!(&bytes, &to_bytes(&canonical(&model)), "one set, one encoding");
        let back: Knowledge = from_bytes(&bytes).expect("decode");
        prop_assert_eq!(&back, &k);
        prop_assert_eq!(to_bytes(&back), bytes);

        // Decoders accept any exception order (counter-major is what
        // earlier builds sent) and any redundancy: every version listed
        // one by one, highest first, still decodes to the same knowledge.
        let mut w = pfr::wire::Writer::new();
        w.put_varint(0);
        w.put_varint(model.len() as u64);
        for v in model.iter().rev() {
            pfr::wire::Encode::encode(v, &mut w);
        }
        let enumerated: Knowledge = from_bytes(w.as_slice()).expect("decode");
        prop_assert_eq!(&enumerated, &k);
    }
}

// ---------------------------------------------------------------------------
// Wire codec round trips
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn value_codec_roundtrip(v in arb_value()) {
        let bytes = to_bytes(&v);
        let back: Value = from_bytes(&bytes).expect("decode");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn knowledge_codec_roundtrip(k in arb_knowledge()) {
        let bytes = to_bytes(&k);
        let back: Knowledge = from_bytes(&bytes).expect("decode");
        prop_assert_eq!(back, k);
    }

    #[test]
    fn item_codec_roundtrip(
        origin in 1u64..9,
        seq in 1u64..100,
        vcounter in 1u64..100,
        ancestors in proptest::collection::vec(arb_version(), 0..5),
        attrs in proptest::collection::vec(("[a-z]{1,6}", arb_value()), 0..5),
        transient in proptest::collection::vec(("[a-z]{1,6}", -100i64..100), 0..3),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        deleted in any::<bool>(),
    ) {
        let mut builder = pfr::Item::builder(
            pfr::ItemId::new(ReplicaId::new(origin), seq),
            Version::new(ReplicaId::new(origin), vcounter),
        )
        .payload(payload)
        .deleted(deleted);
        for (name, value) in attrs {
            if !matches!(&value, Value::Float(f) if f.is_nan()) {
                builder = builder.attr(name, value);
            }
        }
        for (name, value) in transient {
            builder = builder.transient_attr(name, value);
        }
        let item = ancestors
            .into_iter()
            .fold(builder.build(), |item, v| item.with_ancestor(v));
        let bytes = to_bytes(&item);
        let back: pfr::Item = from_bytes(&bytes).expect("decode");
        prop_assert_eq!(back, item);
    }

    #[test]
    fn sync_request_codec_roundtrip(
        target in 1u64..9,
        k in arb_knowledge(),
        routing in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let request = pfr::sync::SyncRequest {
            target: ReplicaId::new(target),
            knowledge: std::borrow::Cow::Owned(k),
            filter: std::borrow::Cow::Owned(Filter::address("dest", "x")),
            routing: pfr::RoutingState::from_bytes(routing),
        };
        let bytes = to_bytes(&request);
        let back: pfr::sync::SyncRequest = from_bytes(&bytes).expect("decode");
        prop_assert_eq!(back.target, request.target);
        prop_assert_eq!(back.filter, request.filter);
        prop_assert_eq!(back.routing, request.routing);
        prop_assert!(back.knowledge.dominates(&request.knowledge));
        prop_assert!(request.knowledge.dominates(&back.knowledge));
    }

    #[test]
    fn codec_never_panics_on_corrupt_input(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Decoding arbitrary bytes must fail cleanly, never panic or OOM.
        let _ = from_bytes::<Knowledge>(&bytes);
        let _ = from_bytes::<Value>(&bytes);
        let _ = from_bytes::<pfr::sync::SyncRequest>(&bytes);
        let _ = from_bytes::<pfr::sync::SyncBatch>(&bytes);
    }
}

// ---------------------------------------------------------------------------
// Filter parser round trips
// ---------------------------------------------------------------------------

fn arb_scalar_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[a-z]{0,6}".prop_map(Value::from),
        (-1000i64..1000).prop_map(Value::from),
        any::<bool>().prop_map(Value::from),
    ]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        Just(Filter::All),
        Just(Filter::None),
        ("[a-z]{1,6}", arb_scalar_value()).prop_map(|(attr, value)| Filter::Cmp {
            attr,
            op: pfr::CmpOp::Eq,
            value,
        }),
        ("[a-z]{1,6}", (-100i64..100)).prop_map(|(attr, n)| Filter::Cmp {
            attr,
            op: pfr::CmpOp::Ge,
            value: Value::from(n),
        }),
        (
            "[a-z]{1,6}",
            proptest::collection::vec(arb_scalar_value(), 0..4)
        )
            .prop_map(|(attr, values)| Filter::In { attr, values }),
        ("[a-z]{1,6}", arb_scalar_value())
            .prop_map(|(attr, value)| Filter::Contains { attr, value }),
        "[a-z]{1,6}".prop_map(Filter::Exists),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        // And/Or need >= 2 arms: the text form of a single-arm connective
        // is indistinguishable from its arm, so it parses back collapsed.
        prop_oneof![
            inner.clone().prop_map(|f| Filter::Not(Box::new(f))),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Filter::And),
            proptest::collection::vec(inner, 2..4).prop_map(Filter::Or),
        ]
    })
}

proptest! {
    #[test]
    fn filter_display_parse_roundtrip(f in arb_filter()) {
        let text = f.to_string();
        let parsed = Filter::parse(&text)
            .unwrap_or_else(|e| panic!("parse of {text:?} failed: {e}"));
        prop_assert_eq!(parsed, f);
    }

    #[test]
    fn filter_codec_roundtrip(f in arb_filter()) {
        let bytes = to_bytes(&f);
        let back: Filter = from_bytes(&bytes).expect("decode");
        prop_assert_eq!(back, f);
    }
}

// ---------------------------------------------------------------------------
// Replication invariants over random sync schedules
// ---------------------------------------------------------------------------

/// A randomized scenario: n replicas, a set of messages (sender, dest), and
/// a random schedule of pairwise syncs.
#[derive(Debug, Clone)]
struct Scenario {
    hosts: usize,
    messages: Vec<(usize, usize)>,
    syncs: Vec<(usize, usize)>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..6).prop_flat_map(|hosts| {
        let msg = (0..hosts, 0..hosts);
        let sync = (0..hosts, 0..hosts);
        (
            Just(hosts),
            proptest::collection::vec(msg, 1..12),
            proptest::collection::vec(sync, 0..60),
        )
            .prop_map(|(hosts, messages, syncs)| Scenario {
                hosts,
                messages,
                syncs,
            })
    })
}

fn addr(i: usize) -> String {
    format!("h{i}")
}

fn build_hosts(n: usize) -> Vec<Replica> {
    (0..n)
        .map(|i| {
            Replica::new(
                ReplicaId::new(i as u64 + 1),
                Filter::address("dest", addr(i).as_str()),
            )
        })
        .collect()
}

proptest! {
    /// At-most-once delivery: whatever the sync schedule, no replica ever
    /// observes a duplicate version.
    #[test]
    fn random_sync_schedules_never_duplicate(scenario in arb_scenario()) {
        let mut hosts = build_hosts(scenario.hosts);
        for &(from, to) in &scenario.messages {
            let mut attrs = AttributeMap::new();
            attrs.set("dest", addr(to).as_str());
            attrs.set("from", addr(from).as_str());
            hosts[from].insert(attrs, vec![]).expect("insert");
        }
        for (step, &(a, b)) in scenario.syncs.iter().enumerate() {
            if a == b {
                continue;
            }
            let (src, tgt) = split_two(&mut hosts, a, b);
            let report = sync::sync_once(src, tgt, SimTime::from_secs(step as u64));
            prop_assert_eq!(report.duplicates, 0, "sync step {}", step);
        }
        for host in &hosts {
            prop_assert_eq!(host.stats().duplicates_rejected, 0);
        }
    }

    /// Eventual filter consistency: after enough rounds of all-pairs syncs,
    /// every message reaches its destination (direct encounters suffice
    /// because every pair syncs).
    #[test]
    fn all_pairs_syncing_reaches_filter_consistency(
        hosts_n in 2usize..5,
        messages in proptest::collection::vec((0usize..5, 0usize..5), 1..10)
    ) {
        let mut hosts = build_hosts(hosts_n);
        let messages: Vec<(usize, usize)> = messages
            .into_iter()
            .map(|(f, t)| (f % hosts_n, t % hosts_n))
            .collect();
        for &(from, to) in &messages {
            let mut attrs = AttributeMap::new();
            attrs.set("dest", addr(to).as_str());
            hosts[from].insert(attrs, vec![]).expect("insert");
        }
        // Two full rounds of all ordered pairs guarantee propagation along
        // any single-hop path (senders hold their own messages).
        let mut t = 0u64;
        for _round in 0..2 {
            for a in 0..hosts_n {
                for b in 0..hosts_n {
                    if a == b {
                        continue;
                    }
                    let (src, tgt) = split_two(&mut hosts, a, b);
                    sync::sync_once(src, tgt, SimTime::from_secs(t));
                    t += 1;
                }
            }
        }
        for &(from, to) in &messages {
            let delivered = hosts[to]
                .iter_items()
                .filter(|i| i.attrs().get_str("dest") == Some(&addr(to)))
                .count();
            let expected = messages
                .iter()
                .filter(|&&(_, t2)| t2 == to)
                .count();
            prop_assert_eq!(
                delivered, expected,
                "destination {} (sender {}) is missing messages", to, from
            );
        }
    }

    /// Knowledge monotonicity: a replica's knowledge only ever grows across
    /// a sync schedule.
    #[test]
    fn knowledge_grows_monotonically(scenario in arb_scenario()) {
        let mut hosts = build_hosts(scenario.hosts);
        for &(from, to) in &scenario.messages {
            let mut attrs = AttributeMap::new();
            attrs.set("dest", addr(to).as_str());
            hosts[from].insert(attrs, vec![]).expect("insert");
        }
        let mut snapshots: Vec<Knowledge> =
            hosts.iter().map(|h| h.knowledge().clone()).collect();
        for (step, &(a, b)) in scenario.syncs.iter().enumerate() {
            if a == b {
                continue;
            }
            let (src, tgt) = split_two(&mut hosts, a, b);
            sync::sync_once(src, tgt, SimTime::from_secs(step as u64));
            for (i, host) in hosts.iter().enumerate() {
                prop_assert!(
                    host.knowledge().dominates(&snapshots[i]),
                    "host {} knowledge regressed at step {}", i, step
                );
                snapshots[i] = host.knowledge().clone();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot round trips and corruption resistance
// ---------------------------------------------------------------------------

/// Builds a replica with an arbitrary mix of local writes, received items,
/// transient metadata, updates, and deletions.
fn arb_populated_replica() -> impl Strategy<Value = Replica> {
    let op = prop_oneof![
        // (kind, dest index, payload byte)
        (0u8..5, 0usize..4, any::<u8>()),
    ];
    proptest::collection::vec(op, 0..30).prop_map(|ops| {
        let mut peer = Replica::new(ReplicaId::new(9), Filter::All);
        let mut r = Replica::new(ReplicaId::new(1), Filter::address("dest", "h0"));
        r.set_relay_limit(Some(8));
        let mut my_items = Vec::new();
        for (kind, dest, payload) in ops {
            match kind {
                0 => {
                    let mut attrs = AttributeMap::new();
                    attrs.set("dest", addr(dest).as_str());
                    let id = r.insert(attrs, vec![payload]).expect("insert");
                    my_items.push(id);
                }
                1 => {
                    let mut attrs = AttributeMap::new();
                    attrs.set("dest", addr(dest).as_str());
                    let id = peer.insert(attrs, vec![payload]).expect("insert");
                    let item = peer.item(id).expect("present").clone();
                    r.apply_remote(item, SimTime::from_secs(u64::from(payload)));
                }
                2 => {
                    if let Some(&id) = my_items.get(dest % my_items.len().max(1)) {
                        let _ = r.set_transient(id, "ttl", i64::from(payload));
                    }
                }
                3 => {
                    if let Some(&id) = my_items.get(dest % my_items.len().max(1)) {
                        let mut attrs = AttributeMap::new();
                        attrs.set("dest", addr(dest).as_str());
                        let _ = r.update(id, attrs, vec![payload, payload]);
                    }
                }
                _ => {
                    if let Some(&id) = my_items.get(dest % my_items.len().max(1)) {
                        let _ = r.delete(id);
                    }
                }
            }
        }
        r
    })
}

proptest! {
    #[test]
    fn snapshot_roundtrip_for_arbitrary_replicas(replica in arb_populated_replica()) {
        let restored = Replica::restore(&replica.snapshot()).expect("restore");
        prop_assert_eq!(restored.id(), replica.id());
        prop_assert_eq!(restored.knowledge(), replica.knowledge());
        prop_assert_eq!(restored.item_ids(), replica.item_ids());
        for id in replica.item_ids() {
            prop_assert_eq!(restored.item(id), replica.item(id));
            prop_assert_eq!(restored.store_kind(id), replica.store_kind(id));
        }
        // And the restored snapshot is byte-identical (canonical form).
        prop_assert_eq!(restored.snapshot(), replica.snapshot());
    }

    #[test]
    fn corrupted_snapshots_never_panic(
        replica in arb_populated_replica(),
        cut in 0usize..1000,
        flip in 0usize..1000,
        value in any::<u8>(),
    ) {
        let mut bytes = replica.snapshot();
        if !bytes.is_empty() {
            let flip = flip % bytes.len();
            bytes[flip] ^= value;
            let cut = cut % (bytes.len() + 1);
            bytes.truncate(cut);
        }
        // Must either fail cleanly or produce some replica; never panic.
        let _ = Replica::restore(&bytes);
    }
}

// ---------------------------------------------------------------------------
// Indexed candidate selection ≡ full-store scan
// ---------------------------------------------------------------------------

/// A replica storing more than 256 versions — more than one block of the
/// version index, so an origin's run straddles a block boundary — over
/// several exception words each: its own writes (some updated, some
/// deleted) and a peer's, received with gaps.
fn arb_large_replica() -> impl Strategy<Value = Replica> {
    (480usize..640, any::<u64>()).prop_map(|(writes, seed)| {
        let mut state = seed | 1;
        let mut roll = move |sides: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % sides as u64) as usize
        };
        let mut peer = Replica::new(ReplicaId::new(9), Filter::All);
        let mut r = Replica::new(ReplicaId::new(1), Filter::address("dest", "h0"));
        let mut mine = Vec::new();
        for _ in 0..writes {
            let mut attrs = AttributeMap::new();
            attrs.set("dest", addr(roll(4)).as_str());
            match roll(8) {
                0..=3 => mine.push(r.insert(attrs, vec![]).expect("insert")),
                4 | 5 => {
                    let id = peer.insert(attrs, vec![]).expect("insert");
                    if roll(3) > 0 {
                        let item = peer.item(id).expect("present").clone();
                        r.apply_remote(item, SimTime::ZERO);
                    }
                }
                6 if !mine.is_empty() => {
                    let _ = r.update(mine[roll(mine.len())], attrs, vec![1]);
                }
                _ if !mine.is_empty() => {
                    let _ = r.delete(mine[roll(mine.len())]);
                }
                _ => {}
            }
        }
        r
    })
}

/// Exception-heavy knowledge over the two origins a large replica stores
/// versions of: a prefix, then counters scattered over several words, so
/// every origin's exception words interleave with its stored counters,
/// which is what the walk steps through. The prefix falls below an
/// origin's stored versions, among them (a partially covered origin) or
/// above them all (a covered one), and often on a word boundary.
fn arb_gappy_knowledge() -> impl Strategy<Value = Knowledge> {
    let prefix = || prop_oneof![0u64..450, arb_prefix()];
    let origin = || (prefix(), proptest::collection::vec(1u64..450, 0..200));
    (origin(), origin()).prop_map(|origins| {
        let mut k = Knowledge::new();
        for (origin, (prefix, counters)) in [1u64, 9].into_iter().zip([origins.0, origins.1]) {
            let origin = ReplicaId::new(origin);
            k.insert_prefix(origin, prefix);
            for counter in counters {
                k.insert(Version::new(origin, counter));
            }
        }
        k
    })
}

proptest! {
    /// The per-origin version index must select exactly the candidates a
    /// full store scan does, in the same order, for any store contents and
    /// any requester knowledge.
    #[test]
    fn indexed_candidate_selection_matches_scan(
        replica in arb_large_replica(),
        k in prop_oneof![arb_knowledge(), arb_gappy_knowledge()],
    ) {
        prop_assert!(replica.item_count() > 256, "{} items", replica.item_count());
        let scan: Vec<pfr::ItemId> = replica
            .iter_items()
            .filter(|item| !k.contains(item.version()))
            .map(|item| item.id())
            .collect();
        prop_assert_eq!(replica.versions_unknown_to(&k), scan);
    }
}

/// Borrow two distinct elements mutably.
fn split_two(hosts: &mut [Replica], a: usize, b: usize) -> (&mut Replica, &mut Replica) {
    assert_ne!(a, b);
    if a < b {
        let (left, right) = hosts.split_at_mut(b);
        (&mut left[a], &mut right[0])
    } else {
        let (left, right) = hosts.split_at_mut(a);
        (&mut right[0], &mut left[b])
    }
}
