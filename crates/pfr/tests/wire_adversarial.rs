//! Fuzz-style adversarial tests for the wire codec: `from_bytes` must
//! never panic — not on random bytes, not on mutated valid encodings, not
//! on pathological nesting — and every decodable protocol message must
//! re-encode to the exact bytes it was decoded from (the codec is
//! canonical, so a byte-level round trip is the strongest equality).

use std::borrow::Cow;

use proptest::prelude::*;

use pfr::sync::{BatchEntry, Priority, PriorityClass, SyncBatch, SyncRequest};
use pfr::wire::{
    encoded_len, from_bytes, sync_request_len, to_bytes, WireError, Writer, MAX_DECODE_DEPTH,
};
use pfr::{
    DigestRequest, Filter, Item, ItemId, Knowledge, KnowledgeSummary, ReplicaId, RoutingState,
    Value, Version,
};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_version() -> impl Strategy<Value = Version> {
    (1u64..8, 1u64..60).prop_map(|(r, c)| Version::new(ReplicaId::new(r), c))
}

fn arb_knowledge() -> impl Strategy<Value = Knowledge> {
    proptest::collection::vec(arb_version(), 0..40).prop_map(|versions| {
        let mut k = Knowledge::new();
        for v in versions {
            k.insert(v);
        }
        k
    })
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        Just(Filter::All),
        Just(Filter::None),
        "[a-z]{1,8}".prop_map(Filter::Exists),
        ("[a-z]{1,6}", "[a-z]{0,8}").prop_map(|(attr, v)| Filter::Cmp {
            attr,
            op: pfr::CmpOp::Eq,
            value: Value::from(v),
        }),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Filter::Not(Box::new(f))),
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Filter::And),
            proptest::collection::vec(inner, 0..3).prop_map(Filter::Or),
        ]
    })
}

fn arb_routing() -> impl Strategy<Value = RoutingState<'static>> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(RoutingState::from_bytes)
}

fn arb_item() -> impl Strategy<Value = Item> {
    (
        1u64..8,
        1u64..50,
        proptest::collection::vec(any::<u8>(), 0..48),
        "[a-z]{1,8}",
        any::<bool>(),
    )
        .prop_map(|(origin, seq, payload, dest, deleted)| {
            Item::builder(
                ItemId::new(ReplicaId::new(origin), seq),
                Version::new(ReplicaId::new(origin), seq),
            )
            .attr("dest", dest)
            .payload(payload)
            .deleted(deleted)
            .build()
        })
}

fn arb_request() -> impl Strategy<Value = SyncRequest<'static>> {
    (1u64..8, arb_knowledge(), arb_filter(), arb_routing()).prop_map(
        |(target, knowledge, filter, routing)| SyncRequest {
            target: ReplicaId::new(target),
            knowledge: std::borrow::Cow::Owned(knowledge),
            filter: std::borrow::Cow::Owned(filter),
            routing,
        },
    )
}

fn arb_batch() -> impl Strategy<Value = SyncBatch> {
    let entry = (arb_item(), 0u8..5, any::<bool>()).prop_map(|(item, class, matched)| {
        let class = [
            PriorityClass::Lowest,
            PriorityClass::Low,
            PriorityClass::Normal,
            PriorityClass::High,
            PriorityClass::Highest,
        ][class as usize];
        BatchEntry {
            item,
            priority: Priority::new(class, f64::from(class as u8)),
            matched_filter: matched,
        }
    });
    (1u64..8, proptest::collection::vec(entry, 0..6), 0usize..10).prop_map(
        |(source, entries, withheld)| SyncBatch {
            source: ReplicaId::new(source),
            entries,
            withheld,
        },
    )
}

/// Exercises every protocol decode entry point on one byte string; the
/// only acceptable outcomes are `Ok` or a typed `WireError`.
fn decode_all(bytes: &[u8]) {
    let _ = from_bytes::<SyncRequest>(bytes);
    let _ = from_bytes::<SyncBatch>(bytes);
    let _ = from_bytes::<RoutingState>(bytes);
    let _ = from_bytes::<Item>(bytes);
    let _ = from_bytes::<Filter>(bytes);
    let _ = from_bytes::<Knowledge>(bytes);
    let _ = from_bytes::<Value>(bytes);
    let _ = from_bytes::<DigestRequest>(bytes);
    let _ = from_bytes::<KnowledgeSummary>(bytes);
}

fn arb_summary() -> impl Strategy<Value = KnowledgeSummary<'static>> {
    prop_oneof![
        arb_knowledge().prop_map(|k| KnowledgeSummary::Full(Cow::Owned(k))),
        any::<u64>().prop_map(|checksum| KnowledgeSummary::Unchanged { checksum }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(arb_version(), 0..24)
        )
            .prop_map(
                |(base_checksum, checksum, learned)| KnowledgeSummary::Delta {
                    base_checksum,
                    checksum,
                    learned: Cow::Owned(learned),
                }
            ),
    ]
}

fn arb_digest_request() -> impl Strategy<Value = DigestRequest<'static>> {
    (arb_request(), arb_summary(), any::<u64>(), any::<bool>()).prop_map(
        |(request, summary, filter_fingerprint, inline)| DigestRequest {
            target: request.target,
            summary,
            filter_fingerprint,
            filter: inline.then_some(request.filter),
            routing: request.routing,
            lent: None,
        },
    )
}

// ---------------------------------------------------------------------------
// Never-panic on adversarial input
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        decode_all(&bytes);
    }

    #[test]
    fn mutated_request_encodings_never_panic(
        request in arb_request(),
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..8),
        cut in 0usize..4096,
    ) {
        let mut bytes = to_bytes(&request);
        for (pos, xor) in flips {
            if !bytes.is_empty() {
                let pos = pos % bytes.len();
                bytes[pos] ^= xor;
            }
        }
        decode_all(&bytes);
        bytes.truncate(cut % (bytes.len() + 1));
        decode_all(&bytes);
    }

    #[test]
    fn mutated_batch_encodings_never_panic(
        batch in arb_batch(),
        flips in proptest::collection::vec((0usize..8192, 1u8..255), 1..8),
        cut in 0usize..8192,
    ) {
        let mut bytes = to_bytes(&batch);
        for (pos, xor) in flips {
            if !bytes.is_empty() {
                let pos = pos % bytes.len();
                bytes[pos] ^= xor;
            }
        }
        decode_all(&bytes);
        bytes.truncate(cut % (bytes.len() + 1));
        decode_all(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile `Full` and `Delta` summaries: mangled or cut anywhere, a
    /// digest frame decodes to a value or a typed error.
    #[test]
    fn mutated_digest_request_encodings_never_panic(
        request in arb_digest_request(),
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..8),
        cut in 0usize..4096,
    ) {
        let mut bytes = to_bytes(&request);
        for (pos, xor) in flips {
            if !bytes.is_empty() {
                let pos = pos % bytes.len();
                bytes[pos] ^= xor;
            }
        }
        decode_all(&bytes);
        bytes.truncate(cut % (bytes.len() + 1));
        decode_all(&bytes);
    }
}

/// A summary may claim any number of entries; the decoder must check the
/// claim against the bytes actually present *before* reserving room for
/// them, whatever the count says.
#[test]
fn summary_counts_are_bounded_by_the_frame_before_allocation() {
    let huge = 1u64 << 40;
    // Delta (tag 4): two checksums, then a version count with no versions.
    let mut delta = Writer::new();
    delta.put_u8(4);
    delta.put_u64(1);
    delta.put_u64(2);
    delta.put_varint(huge);
    delta.put_u64(0);
    assert_eq!(
        from_bytes::<KnowledgeSummary>(delta.as_slice()),
        Err(WireError::LengthOverflow(huge))
    );
    // A count that fits the length prefix check one-byte-per-element but
    // not two: a version is at least two bytes.
    let mut tight = Writer::new();
    tight.put_u8(4);
    tight.put_u64(1);
    tight.put_u64(2);
    tight.put_varint(5);
    tight.put_u64(0);
    assert_eq!(
        from_bytes::<KnowledgeSummary>(tight.as_slice()),
        Err(WireError::LengthOverflow(5))
    );
    // Full (tag 0): a vector-entry count, then an exception count.
    for exceptions_too in [false, true] {
        let mut full = Writer::new();
        full.put_u8(0);
        if exceptions_too {
            full.put_varint(0);
        }
        full.put_varint(huge);
        full.put_u64(0);
        assert_eq!(
            from_bytes::<KnowledgeSummary>(full.as_slice()),
            Err(WireError::LengthOverflow(huge))
        );
    }
}

/// The invertible-sketch delta (tag 2) and the membership-filter summary
/// (tag 3) are retired, not reused: a frame in either old layout is
/// refused by name.
#[test]
fn retired_summary_tags_fail_as_wire_errors() {
    let mut sketch_delta = Writer::new();
    sketch_delta.put_u8(2);
    sketch_delta.put_u64(1);
    sketch_delta.put_u64(2);
    sketch_delta.put_bytes(&[0xA7, 1, 2, 3, 4, 5, 6, 7]);
    let mut filter_summary = Writer::new();
    filter_summary.put_u8(3);
    filter_summary.put_varint(4);
    filter_summary.put_bytes(&[0xB1, 0, 0, 0, 9, 9, 9, 9]);
    for (tag, old) in [(2, sketch_delta), (3, filter_summary)] {
        assert_eq!(
            from_bytes::<KnowledgeSummary>(old.as_slice()),
            Err(WireError::InvalidTag {
                what: "KnowledgeSummary",
                tag
            })
        );
    }
}

// ---------------------------------------------------------------------------
// Knowledge decodes from entries in any order
// ---------------------------------------------------------------------------

/// Hand-encodes a knowledge frame from raw entry lists, as a peer that
/// does not sort, deduplicate or canonicalise would.
fn knowledge_frame(prefixes: &[(u64, u64)], singles: &[(u64, u64)]) -> Vec<u8> {
    let mut w = Writer::new();
    for list in [prefixes, singles] {
        w.put_varint(list.len() as u64);
        for &(replica, counter) in list {
            w.put_varint(replica);
            w.put_varint(counter);
        }
    }
    w.into_bytes()
}

/// What the same entries add up to when installed one at a time.
fn knowledge_one_at_a_time(prefixes: &[(u64, u64)], singles: &[(u64, u64)]) -> Knowledge {
    let mut k = Knowledge::new();
    for &(replica, counter) in prefixes {
        k.insert_prefix(ReplicaId::new(replica), counter);
    }
    for &(replica, counter) in singles {
        k.insert(Version::new(ReplicaId::new(replica), counter));
    }
    k
}

/// Entry lists dense enough that prefixes repeat, singles fall at or
/// below a prefix, and runs of singles sit right above one — at the
/// start of the counter range and across the first two boundaries of
/// the 64-bit exception words.
fn arb_entries() -> impl Strategy<Value = Vec<(u64, u64)>> {
    let counter = prop_oneof![0u64..14, 60u64..70, 124u64..132];
    proptest::collection::vec((1u64..6, counter), 0..40)
}

proptest! {
    /// The decoder builds from all entries at once (sort, then one pass);
    /// whatever order and overlap they come in, the result is the
    /// knowledge the one-at-a-time inserts give, in its one
    /// representation: it re-encodes to the canonical frame.
    #[test]
    fn knowledge_decodes_from_any_entry_order(
        prefixes in arb_entries(),
        singles in arb_entries(),
        order in 0u8..3,
    ) {
        // As generated, descending, or ascending without repeats — the
        // last is what an honest frame looks like except that nothing
        // was folded or dropped, so it must not be taken at its word.
        let (mut prefixes, mut singles) = (prefixes, singles);
        for list in [&mut prefixes, &mut singles] {
            match order {
                1 => list.sort_unstable_by(|a, b| b.cmp(a)),
                2 => {
                    list.sort_unstable();
                    list.dedup();
                }
                _ => {}
            }
        }
        if order == 2 {
            // One nonzero prefix a replica and only singles above it:
            // all that is left to get wrong is the run adjacent to it.
            prefixes.retain(|&(_, counter)| counter > 0);
            prefixes.dedup_by_key(|&mut (replica, _)| replica);
            singles.retain(|&(origin, counter)| {
                let base = prefixes.iter().find(|p| p.0 == origin).map_or(0, |p| p.1);
                counter > base
            });
        }
        let decoded: Knowledge =
            from_bytes(&knowledge_frame(&prefixes, &singles)).expect("well-formed");
        let expected = knowledge_one_at_a_time(&prefixes, &singles);
        prop_assert_eq!(&decoded, &expected);
        prop_assert_eq!(to_bytes(&decoded), to_bytes(&expected));
        for replica in 1..6 {
            for counter in (0..16).chain(56..72).chain(120..136) {
                let v = Version::new(ReplicaId::new(replica), counter);
                prop_assert_eq!(decoded.contains(v), expected.contains(v));
            }
        }
        // The same frame inside a request and a full summary.
        let summary = KnowledgeSummary::Full(Cow::Owned(decoded.clone()));
        prop_assert_eq!(from_bytes::<KnowledgeSummary>(&to_bytes(&summary)), Ok(summary));
    }
}

/// The shapes an honest encoder never writes, one by one.
#[test]
fn knowledge_decode_canonicalises_each_hostile_shape() {
    let r = ReplicaId::new;
    // Exceptions at or below their prefix vanish.
    let k: Knowledge = from_bytes(&knowledge_frame(&[(1, 5)], &[(1, 3), (1, 5), (1, 9)])).unwrap();
    assert_eq!((k.base_counter(r(1)), k.exception_count()), (5, 1));
    // A run adjacent to the prefix folds into it, through duplicates.
    let k: Knowledge = from_bytes(&knowledge_frame(
        &[(1, 2)],
        &[(1, 4), (1, 3), (1, 3), (1, 7)],
    ))
    .unwrap();
    assert_eq!((k.base_counter(r(1)), k.exception_count()), (4, 1));
    // A run from 1 makes a prefix where the frame gave none.
    let k: Knowledge = from_bytes(&knowledge_frame(&[], &[(2, 2), (2, 1)])).unwrap();
    assert_eq!((k.base_counter(r(2)), k.replica_count()), (2, 1));
    // Repeated prefixes: the highest wins; a zero prefix is no entry.
    let k: Knowledge = from_bytes(&knowledge_frame(&[(3, 9), (3, 2), (4, 0)], &[])).unwrap();
    assert_eq!((k.base_counter(r(3)), k.replica_count()), (9, 1));
    // The top of the counter range neither overflows nor folds wrongly.
    let k: Knowledge = from_bytes(&knowledge_frame(
        &[(1, u64::MAX)],
        &[(1, u64::MAX), (2, u64::MAX)],
    ))
    .unwrap();
    assert_eq!((k.base_counter(r(1)), k.exception_count()), (u64::MAX, 1));
}

/// Decoding reserves room for the entries a frame announces only after
/// checking the announcement against the bytes present, and holds
/// nothing more than those entries: allocation is bounded by frame
/// length however the entries are ordered.
#[test]
fn knowledge_decode_allocation_is_bounded_by_the_frame() {
    let mut w = Writer::new();
    w.put_varint(1 << 40);
    w.put_u64(0);
    assert_eq!(
        from_bytes::<Knowledge>(w.as_slice()),
        Err(WireError::LengthOverflow(1 << 40))
    );
    // 50,000 descending singles: every one is kept, none twice.
    let singles: Vec<(u64, u64)> = (0..50_000u64)
        .rev()
        .map(|i| (1 + i / 100, 2 + 2 * (i % 100)))
        .collect();
    let frame = knowledge_frame(&[], &singles);
    let k: Knowledge = from_bytes(&frame).unwrap();
    assert_eq!(k.exception_count(), singles.len());
    assert!(k.exception_count() + k.replica_count() <= frame.len());
}

/// A frame in which every exception opens a 64-bit word of its own —
/// counters 64 apart, up to the top of the range — decodes to exactly
/// those exceptions and re-encodes to the same bytes: the words read back
/// out in the order the frame listed them.
#[test]
fn a_sparse_frame_round_trips_byte_identically() {
    let prefixes: Vec<(u64, u64)> = (1..=20).filter(|o| o % 2 == 1).map(|o| (o, 1)).collect();
    let singles: Vec<(u64, u64)> = (1..=20u64)
        .flat_map(|origin| {
            let spread = (0..100).map(|word| 3 + 64 * word);
            let top = [u64::MAX - 128, u64::MAX - 64, u64::MAX];
            spread.chain(top).map(move |counter| (origin, counter))
        })
        .collect();
    let frame = knowledge_frame(&prefixes, &singles);
    let k: Knowledge = from_bytes(&frame).expect("well-formed");
    assert_eq!(k.exception_count(), singles.len());
    assert_eq!(to_bytes(&k), frame);
    for &(origin, counter) in &singles {
        let r = ReplicaId::new(origin);
        assert!(k.contains(Version::new(r, counter)));
        assert!(!k.contains(Version::new(r, counter - 1)));
    }
}

// ---------------------------------------------------------------------------
// The counting pass agrees with the bytes
// ---------------------------------------------------------------------------

proptest! {
    /// `encoded_len` allocates nothing and must still be exact, for the
    /// full-mode messages and every digest-mode one (version queries and
    /// answers are pinned in `digest_properties.rs`, beside their
    /// generators).
    #[test]
    fn encoded_len_equals_encoded_bytes(
        request in arb_request(),
        batch in arb_batch(),
        digest in arb_digest_request(),
    ) {
        prop_assert_eq!(encoded_len(&request), to_bytes(&request).len());
        prop_assert_eq!(encoded_len(&batch), to_bytes(&batch).len());
        prop_assert_eq!(encoded_len(&digest), to_bytes(&digest).len());
        prop_assert_eq!(encoded_len(&digest.summary), to_bytes(&digest.summary).len());
        prop_assert_eq!(
            sync_request_len(
                request.target,
                encoded_len(request.knowledge.as_ref()),
                encoded_len(request.filter.as_ref()),
                &request.routing,
            ),
            to_bytes(&request).len()
        );
    }
}

// ---------------------------------------------------------------------------
// Canonical round trips: decode(encode(x)) re-encodes byte-identically
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn digest_request_roundtrips_byte_identically(request in arb_digest_request()) {
        let bytes = to_bytes(&request);
        let back: DigestRequest = from_bytes(&bytes).expect("valid encoding decodes");
        prop_assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn sync_request_roundtrips_byte_identically(request in arb_request()) {
        let bytes = to_bytes(&request);
        let back: SyncRequest = from_bytes(&bytes).expect("valid encoding decodes");
        prop_assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn sync_batch_roundtrips_byte_identically(batch in arb_batch()) {
        let bytes = to_bytes(&batch);
        let back: SyncBatch = from_bytes(&bytes).expect("valid encoding decodes");
        prop_assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn routing_state_roundtrips_byte_identically(routing in arb_routing()) {
        let bytes = to_bytes(&routing);
        let back: RoutingState = from_bytes(&bytes).expect("valid encoding decodes");
        prop_assert_eq!(to_bytes(&back), bytes);
        prop_assert_eq!(back, routing);
    }
}

// ---------------------------------------------------------------------------
// Pathological nesting: typed error, not a stack overflow
// ---------------------------------------------------------------------------

#[test]
fn filter_nesting_bombs_are_rejected_with_a_typed_error() {
    // One FILT_NOT tag per byte: each level used to cost a stack frame.
    for len in [MAX_DECODE_DEPTH + 1, 4096, 1 << 20] {
        let bomb = vec![6u8; len];
        assert_eq!(from_bytes::<Filter>(&bomb), Err(WireError::DepthLimit));
    }
}

#[test]
fn request_with_nesting_bomb_filter_is_rejected() {
    // A syntactically plausible SyncRequest whose filter field is a bomb:
    // target=1, empty knowledge, then a run of Not tags.
    let mut bytes = vec![1u8, 0, 0];
    bytes.extend(std::iter::repeat_n(6u8, 1 << 16));
    assert!(matches!(
        from_bytes::<SyncRequest>(&bytes),
        Err(WireError::DepthLimit)
    ));
}
