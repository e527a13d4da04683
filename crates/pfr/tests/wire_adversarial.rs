//! Fuzz-style adversarial tests for the wire codec: `from_bytes` must
//! never panic — not on random bytes, not on mutated valid encodings, not
//! on pathological nesting — and every decodable protocol message must
//! re-encode to the exact bytes it was decoded from (the codec is
//! canonical, so a byte-level round trip is the strongest equality).

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

fn arb_routing() -> impl Strategy<Value = RoutingState> {
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

fn arb_summary() -> impl Strategy<Value = KnowledgeSummary> {
    prop_oneof![
        arb_knowledge().prop_map(KnowledgeSummary::Full),
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
                    learned,
                }
            ),
    ]
}

fn arb_digest_request() -> impl Strategy<Value = DigestRequest> {
    (arb_request(), arb_summary(), any::<u64>(), any::<bool>()).prop_map(
        |(request, summary, filter_fingerprint, inline)| DigestRequest {
            target: request.target,
            summary,
            filter_fingerprint,
            filter: inline.then(|| request.filter.into_owned()),
            routing: request.routing,
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

/// The delta tag of the invertible-sketch layout is retired, not reused:
/// a frame from before the change is refused by name.
#[test]
fn old_layout_delta_frames_fail_as_wire_errors() {
    let mut old = Writer::new();
    old.put_u8(2);
    old.put_u64(1);
    old.put_u64(2);
    old.put_bytes(&[0xA7, 1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(
        from_bytes::<KnowledgeSummary>(old.as_slice()),
        Err(WireError::InvalidTag {
            what: "KnowledgeSummary",
            tag: 2
        })
    );
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
