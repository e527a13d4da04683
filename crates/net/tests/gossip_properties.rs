//! Property-based tests for the gossip membership wire frames:
//! byte-canonical round trips for messages built through the real
//! [`Membership`] path (not hand-assembled), plus adversarial never-panic
//! decoding of arbitrary and mutated byte strings, and merging of whatever
//! decodes into a built view: no panic, and our own incarnation never
//! falls.

use std::time::Duration;

use proptest::prelude::*;

use net::{Dial, GossipMessage, Membership, MembershipConfig, PeerStatus, PeerWire};
use pfr::wire::{from_bytes, to_bytes};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_addr() -> impl Strategy<Value = String> {
    // Anything a peer might claim as its listen address, printable or
    // not: decode must not assume parseability.
    prop_oneof![
        (1u8..=255, 1u16..=60_000).prop_map(|(host, port)| format!("10.0.0.{host}:{port}")),
        "[a-z0-9:.\\[\\]]{0,24}",
        ".{0,16}",
    ]
}

fn arb_peer() -> impl Strategy<Value = PeerWire> {
    (
        any::<u64>(),
        arb_addr(),
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(replica, addr, incarnation, suspect, age_ms)| PeerWire {
            replica,
            addr,
            incarnation,
            status: if suspect {
                PeerStatus::Suspect
            } else {
                PeerStatus::Alive
            },
            age_ms,
        })
}

fn arb_message() -> impl Strategy<Value = GossipMessage> {
    (arb_peer(), proptest::collection::vec(arb_peer(), 0..16))
        .prop_map(|(sender, entries)| GossipMessage { sender, entries })
}

/// One membership view, and its replica id, populated through the real
/// observe/dial/round path.
fn arb_built_view() -> impl Strategy<Value = (u64, Membership)> {
    (
        1u64..=8,
        proptest::collection::vec(
            (1u64..=64, 1u16..=60_000, any::<bool>(), 0u64..10_000),
            0..24,
        ),
        1u64..=1_000,
    )
        .prop_map(|(me, peers, seed)| {
            let mut membership = Membership::new(
                me,
                format!("10.0.0.{me}:7000"),
                MembershipConfig {
                    suspect_after: Duration::from_millis(5_000),
                    evict_after: Duration::from_millis(50_000),
                    fanout: 3,
                    seed,
                },
            );
            for (replica, port, fail, at_ms) in peers {
                let addr = format!("10.0.0.{replica}:{port}");
                membership.observe_alive(replica, &addr, at_ms);
                if fail {
                    membership.dialed(&Dial::Gossip(addr), false);
                }
            }
            membership.gossip_round(10_000);
            (me, membership)
        })
}

/// The message a built view would send.
fn arb_built_message() -> impl Strategy<Value = GossipMessage> {
    (arb_built_view(), 0u64..10_000)
        .prop_map(|((_, membership), now_offset)| membership.message(10_000 + now_offset))
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn arbitrary_messages_round_trip_byte_canonically(msg in arb_message()) {
        let bytes = to_bytes(&msg);
        let decoded: GossipMessage = from_bytes(&bytes).expect("round trip");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(to_bytes(&decoded), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn built_messages_round_trip_byte_canonically(msg in arb_built_message()) {
        let bytes = to_bytes(&msg);
        let decoded: GossipMessage = from_bytes(&bytes).expect("round trip");
        prop_assert_eq!(&decoded, &msg);
        prop_assert_eq!(to_bytes(&decoded), bytes);
    }

    /// Merging a decoded message is equivalent to merging the original:
    /// the wire layer loses nothing the membership logic reads.
    #[test]
    fn merge_after_round_trip_is_identical(msg in arb_built_message()) {
        let fresh = || Membership::new(99, "10.0.9.9:7000", MembershipConfig::default());
        let mut direct = fresh();
        let mut via_wire = fresh();
        let decoded: GossipMessage = from_bytes(&to_bytes(&msg)).expect("round trip");
        let learned_direct = direct.merge(&msg, 20_000);
        let learned_wire = via_wire.merge(&decoded, 20_000);
        prop_assert_eq!(learned_direct, learned_wire);
        prop_assert_eq!(direct.view(), via_wire.view());
    }
}

// ---------------------------------------------------------------------------
// Adversarial decode: never panic, never allocate absurdly
// ---------------------------------------------------------------------------

proptest! {
    /// Arbitrary bytes either decode to a value or return a typed error;
    /// they never panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = from_bytes::<GossipMessage>(&bytes);
    }

    /// Every truncation of a valid message errors cleanly (a decode
    /// succeeding on a strict prefix would mean trailing-byte blindness).
    #[test]
    fn truncations_error_cleanly(msg in arb_message(), cut_seed in any::<usize>()) {
        let bytes = to_bytes(&msg);
        let cut = cut_seed % bytes.len().max(1);
        if cut < bytes.len() {
            prop_assert!(from_bytes::<GossipMessage>(&bytes[..cut]).is_err());
        }
    }

    /// Single-byte mutations either decode (to something) or error; no
    /// mutation may panic or wedge.
    #[test]
    fn mutations_never_panic(
        msg in arb_message(),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = to_bytes(&msg);
        if !bytes.is_empty() {
            let pos = pos_seed % bytes.len();
            bytes[pos] ^= xor;
            let _ = from_bytes::<GossipMessage>(&bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// Adversarial merge: whatever decodes merges without panic, and never
// lowers our own incarnation
// ---------------------------------------------------------------------------

proptest! {
    /// Arbitrary messages, some carrying claims about us up to
    /// `u64::MAX`, reach a built view as bytes (some mutated) through
    /// the decoder. Whatever decodes merges without panicking, our
    /// incarnation never falls, and the view's control steps still run
    /// at any clock reading.
    #[test]
    fn decoded_messages_merge_without_lowering_our_incarnation(
        (me, mut view) in arb_built_view(),
        messages in proptest::collection::vec(
            (
                arb_message(),
                proptest::collection::vec(
                    (prop_oneof![any::<u64>(), Just(u64::MAX)], any::<bool>(), any::<u64>()),
                    0..3,
                ),
                any::<bool>(),
                any::<usize>(),
                1u8..=255,
            ),
            1..6,
        ),
        now_ms in prop_oneof![0u64..100_000, any::<u64>()],
    ) {
        view.set_cadence(Duration::from_millis(1_000), Duration::from_millis(500));
        for (mut msg, claims, mutate, pos_seed, xor) in messages {
            for (incarnation, suspect, age_ms) in claims {
                msg.entries.push(PeerWire {
                    replica: me,
                    addr: format!("10.0.0.{me}:7000"),
                    incarnation,
                    status: if suspect { PeerStatus::Suspect } else { PeerStatus::Alive },
                    age_ms,
                });
            }
            let mut bytes = to_bytes(&msg);
            let pos = pos_seed % bytes.len();
            if mutate {
                bytes[pos] ^= xor;
            }
            let Ok(decoded) = from_bytes::<GossipMessage>(&bytes) else {
                continue;
            };
            let before = view.incarnation();
            view.merge(&decoded, now_ms);
            prop_assert!(view.incarnation() >= before, "incarnation fell");
            let reply = view.message(now_ms);
            prop_assert_eq!(reply.sender.incarnation, view.incarnation());
            for dial in view.due(now_ms) {
                view.dialed(&dial, false);
            }
            let _ = view.end_round();
            let _ = view.next_due_ms();
        }
    }
}
