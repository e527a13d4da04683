//! Property-based tests for the digest-mode reconciliation layer: wire
//! round trips for every [`KnowledgeSummary`] kind, never-panic decoding
//! of adversarial digest frames, the learning journal's delta algebra,
//! and two equivalences on arbitrary schedules, restores and state losses
//! included: full-mode and digest-mode sync runs converge to identical
//! replica state, and a source that keeps only labels and resolves lent
//! requests answers exactly as one that keeps copies and resolves wire
//! bytes (label ≡ copy).
//!
//! Digest requests are generated through the real [`ReconState`] build
//! path over a real [`Replica`] (not hand-assembled), so the round-trip
//! properties cover the exact delta / unchanged / full summaries
//! production code emits.

use std::borrow::Cow;

use proptest::prelude::*;

use pfr::digest::{knowledge_checksum, ReconState, SummaryOutcome};
use pfr::exchange::{self, Pull, Reply, Request};
use pfr::sync::{self, NoExtension, SyncReport};
use pfr::wire::{encoded_len, from_bytes, to_bytes};
use pfr::{
    AttributeMap, DigestPolicy, DigestRequest, Filter, Item, ItemId, Knowledge, KnowledgeSummary,
    KnowledgeTotals, Replica, ReplicaId, RoutingState, SimTime, SyncLimits, SyncMode, Version,
};

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_version() -> impl Strategy<Value = Version> {
    (1u64..6, 1u64..40).prop_map(|(r, c)| Version::new(ReplicaId::new(r), c))
}

fn arb_versions(max: usize) -> impl Strategy<Value = Vec<Version>> {
    proptest::collection::vec(arb_version(), 0..max)
}

fn arb_policy() -> impl Strategy<Value = DigestPolicy> {
    prop_oneof![
        Just(DigestPolicy::Auto),
        Just(DigestPolicy::ForceDelta),
        Just(DigestPolicy::ForceFull),
    ]
}

fn arb_routing() -> impl Strategy<Value = RoutingState<'static>> {
    proptest::collection::vec(any::<u8>(), 0..32).prop_map(RoutingState::from_bytes)
}

/// The target every summary in this file is built for: replica 100,
/// which learns versions the way replicas do — one received item each.
fn learner() -> Replica {
    Replica::new(ReplicaId::new(100), Filter::address("dest", "a"))
}

fn learn(replica: &mut Replica, versions: &[Version]) {
    for &v in versions {
        let item = Item::builder(ItemId::new(v.replica(), v.counter()), v)
            .attr("dest", "x")
            .build();
        replica.apply_remote(item, SimTime::ZERO);
    }
}

const PEER: ReplicaId = ReplicaId::new(9);

/// Byte-identical round trip: the codec is canonical, so re-encoding the
/// decoded value must reproduce the input exactly — and the counting pass
/// must agree with the bytes.
fn assert_canonical(request: &DigestRequest) {
    let bytes = to_bytes(request);
    assert_eq!(encoded_len(request), bytes.len(), "counted length diverged");
    let back: DigestRequest = from_bytes(&bytes).expect("valid digest encoding decodes");
    assert_eq!(to_bytes(&back), bytes, "digest re-encode diverged");
}

/// Exercises the digest decode entry point; the only acceptable outcomes
/// are `Ok` or a typed `WireError`.
fn decode_all_digest(bytes: &[u8]) {
    let _ = from_bytes::<DigestRequest>(bytes);
}

// ---------------------------------------------------------------------------
// Wire round trips through the real summary construction path
// ---------------------------------------------------------------------------

proptest! {
    /// Two consecutive build_request rounds against one peer: the first
    /// covers first-contact summaries (full), and after a committed
    /// exchange the second covers the repeat paths (unchanged / delta). Every emitted request must round-trip byte-identically,
    /// and the full-mode length it accounts must be the real one.
    #[test]
    fn digest_requests_roundtrip_byte_identically(
        policy in arb_policy(),
        base in arb_versions(40),
        extra in arb_versions(12),
        routing in arb_routing(),
    ) {
        let mut state = ReconState::with_policy(policy);
        let mut target = learner();
        learn(&mut target, &base);
        for grown in [&extra[..], &[]] {
            let (digest, pending) = state.build_request(PEER, &mut target, routing.clone());
            assert_canonical(&digest);
            let mut none = NoExtension;
            let full = sync::begin_sync(&mut target, &mut none, SimTime::ZERO, None);
            let full = sync::SyncRequest { routing: routing.clone(), ..full };
            prop_assert_eq!(pending.full_bytes(), to_bytes(&full).len() as u64);
            state.commit_sent(pending);
            learn(&mut target, grown);
        }
        let (digest, _) = state.build_request(PEER, &mut target, routing);
        assert_canonical(&digest);
    }
}

// ---------------------------------------------------------------------------
// The learning journal: positions, deltas, totals
// ---------------------------------------------------------------------------

proptest! {
    /// For any learn sequence and any positions p ≤ q the journal still
    /// answers: knowledge_at(p) + learned(p..q) == knowledge_at(q), with
    /// the incrementally maintained totals equal to the from-scratch ones
    /// at every q.
    #[test]
    fn knowledge_at_p_plus_delta_is_knowledge_at_q(versions in arb_versions(60)) {
        let mut replica = learner();
        let mut history = vec![(replica.journal_position(), replica.knowledge().clone())];
        for v in versions {
            learn(&mut replica, &[v]);
            let totals = replica.knowledge_totals();
            prop_assert_eq!(totals, KnowledgeTotals::of(replica.knowledge()));
            prop_assert_eq!(totals.checksum(), knowledge_checksum(replica.knowledge()));
            prop_assert_eq!(
                totals.encoded_len(replica.knowledge()),
                to_bytes(replica.knowledge()).len()
            );
            for (p, at_p) in &history {
                let Some(learned) = replica.learned_since(*p) else { continue };
                let mut rebuilt = at_p.clone();
                for &l in learned {
                    rebuilt.insert(l);
                }
                prop_assert_eq!(&rebuilt, replica.knowledge(), "from position {}", p);
            }
            let position = replica.journal_position();
            if history.last().map(|(p, _)| *p) != Some(position) {
                history.push((position, replica.knowledge().clone()));
            }
        }
        // The journal is bounded, yet never forgets the present.
        prop_assert_eq!(replica.learned_since(replica.journal_position()), Some(&[][..]));
        prop_assert_eq!(replica.learned_since(replica.journal_position() + 1), None);
    }

    /// After a committed exchange the next summary is `Unchanged` exactly
    /// when no version was learned in between, and a delta, applied to
    /// the knowledge as of the commit, is the current knowledge.
    #[test]
    fn unchanged_iff_nothing_learned(
        force in any::<bool>(),
        base in arb_versions(40),
        extra in arb_versions(6),
    ) {
        let policy = if force { DigestPolicy::ForceDelta } else { DigestPolicy::Auto };
        let mut state = ReconState::with_policy(policy);
        let mut target = learner();
        learn(&mut target, &base);
        let (_, pending) = state.build_request(PEER, &mut target, RoutingState::empty());
        state.commit_sent(pending);
        let before = target.knowledge().clone();
        learn(&mut target, &extra);
        let current = target.knowledge().clone();
        let learned_nothing = current == before;
        let (digest, _) = state.build_request(PEER, &mut target, RoutingState::empty());
        match digest.summary {
            KnowledgeSummary::Unchanged { checksum } => {
                prop_assert!(learned_nothing);
                prop_assert_eq!(checksum, knowledge_checksum(&before));
            }
            KnowledgeSummary::Delta { base_checksum, checksum, learned } => {
                prop_assert!(!learned_nothing);
                prop_assert_eq!(base_checksum, knowledge_checksum(&before));
                let mut rebuilt = before;
                for &v in learned.iter() {
                    rebuilt.insert(v);
                }
                prop_assert_eq!(&rebuilt, &current);
                prop_assert_eq!(checksum, knowledge_checksum(&rebuilt));
            }
            KnowledgeSummary::Full(k) => {
                prop_assert!(!learned_nothing && !force, "auto only: delta was longer");
                prop_assert_eq!(&*k, &current);
            }
        }
    }

    /// A position older than the journal retains resolves to `Full`, never
    /// to a delta missing its head — under `ForceDelta` too.
    #[test]
    fn positions_beyond_the_journal_fall_back_to_full(
        force in any::<bool>(),
        early in 0u64..20,
        run in 80u64..200,
    ) {
        let policy = if force { DigestPolicy::ForceDelta } else { DigestPolicy::Auto };
        let mut state = ReconState::with_policy(policy);
        let mut target = learner();
        let origin = ReplicaId::new(1);
        let in_order = |from: u64, to: u64| -> Vec<Version> {
            (from..=to).map(|c| Version::new(origin, c)).collect()
        };
        learn(&mut target, &in_order(1, early));
        let (_, pending) = state.build_request(PEER, &mut target, RoutingState::empty());
        state.commit_sent(pending);
        // One origin in order is one knowledge entry: the journal keeps
        // only a short tail of a run this long.
        learn(&mut target, &in_order(early + 1, early + run));
        prop_assert_eq!(target.learned_since(early), None);
        let current = target.knowledge().clone();
        let (digest, _) = state.build_request(PEER, &mut target, RoutingState::empty());
        prop_assert_eq!(digest.summary, KnowledgeSummary::Full(Cow::Owned(current)));
    }
}

proptest! {
    /// **Source side.** A delta's `learned` list comes off the wire: a
    /// peer may send it in any order, repeat versions, and name ones the
    /// cached copy already covers or that close a gap right above a
    /// prefix. Applied to the copy it must give the knowledge an
    /// in-order build gives, with totals equal to the from-scratch ones;
    /// a delta that does not reproduce its checksum resolves to `Resync`
    /// and costs the cached copy (the next exchange re-seeds it).
    #[test]
    fn a_delta_resolves_whatever_order_its_versions_come_in(
        base in arb_versions(40),
        learned in arb_versions(30),
        descending in any::<bool>(),
        repeated in any::<bool>(),
        lie in any::<bool>(),
    ) {
        let mut state = ReconState::new();
        let mut held = Knowledge::new();
        for &v in &base {
            held.insert(v);
        }
        let held_totals = KnowledgeTotals::of(&held);
        state.commit_peer(PEER, Cow::Owned(held.clone()), held_totals, 0, None);

        let mut expected = held.clone();
        let mut in_order = learned.clone();
        in_order.sort_unstable_by_key(|v| (v.replica(), v.counter()));
        for &v in &in_order {
            expected.insert(v);
        }
        let mut list = learned;
        if descending {
            list.sort_unstable_by_key(|v| std::cmp::Reverse((v.replica(), v.counter())));
        }
        if repeated {
            list.extend(list.clone());
        }
        let summary = KnowledgeSummary::Delta {
            base_checksum: held_totals.checksum(),
            checksum: knowledge_checksum(&expected) ^ u64::from(lie),
            learned: Cow::Owned(list),
        };
        match state.resolve(PEER, summary, None) {
            SummaryOutcome::Resolved { knowledge, totals } => {
                prop_assert!(!lie);
                prop_assert_eq!(&*knowledge, &expected);
                prop_assert_eq!(totals, KnowledgeTotals::of(&expected));
            }
            SummaryOutcome::Resync => {
                prop_assert!(lie);
                let unchanged = KnowledgeSummary::Unchanged { checksum: held_totals.checksum() };
                prop_assert!(
                    matches!(state.resolve(PEER, unchanged, None), SummaryOutcome::Resync),
                    "the copy a bad delta was applied to is gone"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Never-panic on adversarial digest frames
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_panic_digest_decoders(
        bytes in proptest::collection::vec(any::<u8>(), 0..1024)
    ) {
        decode_all_digest(&bytes);
    }

    #[test]
    fn mutated_digest_encodings_never_panic(
        policy in arb_policy(),
        base in arb_versions(40),
        extra in arb_versions(8),
        routing in arb_routing(),
        flips in proptest::collection::vec((0usize..4096, 1u8..255), 1..8),
        cut in 0usize..4096,
    ) {
        // First-contact and repeat summaries both get mangled.
        let mut state = ReconState::with_policy(policy);
        let mut target = learner();
        learn(&mut target, &base);
        let (first, pending) = state.build_request(PEER, &mut target, routing.clone());
        let first = to_bytes(&first);
        state.commit_sent(pending);
        learn(&mut target, &extra);
        let (second, _) = state.build_request(PEER, &mut target, routing);
        for mut bytes in [first, to_bytes(&second)] {
            for &(pos, xor) in &flips {
                if !bytes.is_empty() {
                    let pos = pos % bytes.len();
                    bytes[pos] ^= xor;
                }
            }
            decode_all_digest(&bytes);
            bytes.truncate(cut % (bytes.len() + 1));
            decode_all_digest(&bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// The tentpole equivalence: digest mode replicates exactly what full
// mode replicates
// ---------------------------------------------------------------------------

fn attrs(dest: &str) -> AttributeMap {
    let mut a = AttributeMap::new();
    a.set("dest", dest);
    a
}

fn host(n: u64, addr: &str) -> Replica {
    Replica::new(ReplicaId::new(n), Filter::address("dest", addr))
}

/// One digest-mode sync in which `target` pulls from `source`, through
/// the production halves with the messages handed across in memory.
fn digest_sync(
    source: &mut Replica,
    source_recon: &mut ReconState,
    target: &mut Replica,
    target_recon: &mut ReconState,
    now: SimTime,
) -> SyncReport {
    let limits = SyncLimits::unlimited();
    let (mut source_ext, mut target_ext) = (NoExtension, NoExtension);
    let (mut pull, request) = Pull::open(
        target,
        &mut target_ext,
        target_recon,
        SyncMode::Digest,
        source.id(),
        now,
    );
    let batch = match exchange::serve(source, &mut source_ext, source_recon, request, limits, now) {
        Reply::Batch(batch) => batch,
        Reply::Resync => {
            let request = pull.resync(target).expect("a digest pull resyncs once");
            exchange::serve_resync(source, &mut source_ext, source_recon, request, limits, now)
        }
    };
    pull.finish(target, &mut target_ext, target_recon, batch, now)
        .0
}

/// One step of a two-replica schedule. `a_side` picks the replica the
/// step acts on (for syncs: the source).
#[derive(Clone, Debug)]
enum Op {
    Insert {
        a_side: bool,
        dest: String,
        byte: u8,
    },
    Sync {
        a_side: bool,
    },
    /// Snapshot and restore the replica: its journal restarts, its
    /// `ReconState` (held outside it) survives with stale positions.
    Restore {
        a_side: bool,
    },
    /// The replica's node loses its digest state, as a reboot does.
    ClearRecon {
        a_side: bool,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Mostly inserts and syncs; one step in five disturbs the caches.
    (0u8..10, any::<bool>(), "[abx]", any::<u8>()).prop_map(|(kind, a_side, dest, byte)| match kind
    {
        0..=3 => Op::Insert { a_side, dest, byte },
        4..=7 => Op::Sync { a_side },
        8 => Op::Restore { a_side },
        _ => Op::ClearRecon { a_side },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary schedules of inserts, syncs in both directions, restores
    /// from snapshot and digest-state losses, under every digest policy:
    /// every sync's report and the final replica state must match a
    /// full-mode run of the same schedule exactly, with no duplicate ever
    /// offered.
    #[test]
    fn full_and_digest_runs_converge_identically(
        policy in arb_policy(),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        // Index 0 is replica a, 1 is b; `full` syncs in full mode.
        let mut full = [host(1, "a"), host(2, "b")];
        let mut dig = [host(1, "a"), host(2, "b")];
        let mut recon = [ReconState::with_policy(policy), ReconState::with_policy(policy)];
        for (step, op) in ops.into_iter().enumerate() {
            let at = SimTime::from_secs(step as u64);
            match op {
                Op::Insert { a_side, dest, byte } => {
                    let i = usize::from(!a_side);
                    full[i].insert(attrs(&dest), vec![byte]).unwrap();
                    dig[i].insert(attrs(&dest), vec![byte]).unwrap();
                }
                Op::Sync { a_side } => {
                    let [fa, fb] = &mut full;
                    let [da, db] = &mut dig;
                    let [ra, rb] = &mut recon;
                    let (fs, ft, ds, dt, rs, rt) = if a_side {
                        (fa, fb, da, db, ra, rb)
                    } else {
                        (fb, fa, db, da, rb, ra)
                    };
                    let expected = sync::sync_once(fs, ft, at);
                    let got = digest_sync(ds, rs, dt, rt, at);
                    prop_assert_eq!(&got, &expected, "step {}", step);
                    prop_assert_eq!(got.duplicates, 0, "step {}", step);
                }
                Op::Restore { a_side } => {
                    let i = usize::from(!a_side);
                    for replicas in [&mut full, &mut dig] {
                        replicas[i] = Replica::restore(&replicas[i].snapshot()).unwrap();
                    }
                    prop_assert_eq!(dig[i].journal_position(), 0);
                }
                Op::ClearRecon { a_side } => recon[usize::from(!a_side)].clear_peers(),
            }
        }
        for i in 0..2 {
            prop_assert_eq!(full[i].snapshot(), dig[i].snapshot(), "replica {}", i);
            prop_assert_eq!(
                dig[i].knowledge_totals(),
                KnowledgeTotals::of(dig[i].knowledge())
            );
        }
    }
}

// ---------------------------------------------------------------------------
// label ≡ copy: a co-located source keeps the label of a peer's knowledge
// and resolves against what the request lends; a source across a wire keeps
// a copy and resolves against that. Both must answer every exchange alike.
// ---------------------------------------------------------------------------

/// Replicas and their digest states, as one driver leaves them.
struct Fleet {
    replicas: Vec<Replica>,
    recon: Vec<ReconState>,
}

impl Fleet {
    fn new(size: usize, policy: DigestPolicy) -> Fleet {
        Fleet {
            replicas: (0..size).map(|i| host(i as u64 + 1, addr(i))).collect(),
            recon: (0..size).map(|_| ReconState::with_policy(policy)).collect(),
        }
    }
}

fn addr(i: usize) -> &'static str {
    ["a", "b", "c", "d"][i]
}

/// Two distinct elements of one slice, both mutable.
fn pair<T>(v: &mut [T], i: usize, j: usize) -> (&mut T, &mut T) {
    assert_ne!(i, j);
    if i < j {
        let (lo, hi) = v.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

/// What one digest exchange showed on its way: equal in both drivers.
#[derive(Debug, PartialEq)]
struct Seen {
    /// The digest request's bytes, lent or not.
    request: Vec<u8>,
    /// What the source resolved the summary to; `None` for a resync.
    resolved: Option<Knowledge>,
    /// Whether the exchange took a resync round.
    resynced: bool,
    report: SyncReport,
}

/// One digest sync in which `fleet`'s `target` pulls from its `source`.
/// With `wire`, every message is served from its own bytes, so the source
/// receives owned requests; else as built, lending the target's state.
/// `refuse` has the source answer the digest with a resync unread, as a
/// session does for a frame that fails its checksum.
fn exchange_in(
    fleet: &mut Fleet,
    wire: bool,
    (source, target): (usize, usize),
    refuse: bool,
    now: SimTime,
) -> Seen {
    let limits = SyncLimits::unlimited();
    let (s, t) = pair(&mut fleet.replicas, source, target);
    let (rs, rt) = pair(&mut fleet.recon, source, target);
    let (mut source_ext, mut target_ext) = (NoExtension, NoExtension);
    let (mut pull, request) = Pull::open(t, &mut target_ext, rt, SyncMode::Digest, s.id(), now);
    let Request::Digest(digest) = request else {
        panic!("a digest pull opens with a digest");
    };
    assert!(digest.lent.is_some(), "a built request lends");
    let bytes = to_bytes(&digest);
    assert_eq!(
        encoded_len(&digest),
        bytes.len(),
        "the lend changed the count"
    );
    let digest = if wire {
        let decoded: DigestRequest = from_bytes(&bytes).expect("a digest decodes");
        assert!(decoded.lent.is_none(), "a decoded request lends nothing");
        assert_eq!(encoded_len(&decoded), bytes.len());
        decoded
    } else {
        digest
    };
    // What the source resolves the summary to, probed on a copy of its
    // state (resolving takes what it holds until the commit).
    let probe = rs
        .clone()
        .resolve(digest.target, digest.summary.clone(), digest.lent);
    let resolved = match probe {
        SummaryOutcome::Resolved { knowledge, totals } => {
            assert_eq!(totals, KnowledgeTotals::of(&knowledge));
            assert_eq!(matches!(knowledge, Cow::Owned(_)), wire, "lent or owned");
            Some(knowledge.into_owned())
        }
        SummaryOutcome::Resync => None,
    };
    let reply = if refuse {
        Reply::Resync
    } else {
        let request = Request::Digest(digest);
        exchange::serve(s, &mut source_ext, rs, request, limits, now)
    };
    let resynced = matches!(reply, Reply::Resync);
    let batch = match reply {
        Reply::Batch(batch) => batch,
        Reply::Resync => {
            let request = pull.resync(t).expect("a digest pull resyncs once");
            let request = if wire {
                from_bytes(&to_bytes(&request)).expect("a request decodes")
            } else {
                request
            };
            exchange::serve_resync(s, &mut source_ext, rs, request, limits, now)
        }
    };
    let (report, _) = pull.finish(t, &mut target_ext, rt, batch, now);
    Seen {
        request: bytes,
        resolved,
        resynced,
        report,
    }
}

/// One step of a schedule over a small fleet.
#[derive(Clone, Debug)]
enum Step {
    /// Replica `at` injects an item for `dest`.
    Learn { at: usize, dest: usize, byte: u8 },
    /// `target` pulls from `source`; with `refuse` the source forces a
    /// resync round.
    Sync {
        source: usize,
        target: usize,
        refuse: bool,
    },
    /// Replica `at` is restored from its snapshot: its journal restarts,
    /// its digest state survives with stale positions.
    Restore { at: usize },
    /// Replica `at` loses its digest state, as a reboot does.
    Clear { at: usize },
    /// Replica `at` widens its filter to also take `dest`'s items: a new
    /// fingerprint, sent inline once and elided after.
    Widen { at: usize, dest: usize },
}

fn arb_step(size: usize) -> impl Strategy<Value = Step> {
    (0u8..20, 0..size, 0..size, any::<u8>()).prop_map(move |(kind, i, j, byte)| match kind {
        0..=5 => Step::Learn {
            at: i,
            dest: j,
            byte,
        },
        6..=15 if i != j => Step::Sync {
            source: i,
            target: j,
            refuse: kind == 15,
        },
        6..=15 => Step::Sync {
            source: i,
            target: (i + 1) % size,
            refuse: kind == 15,
        },
        16 | 17 => Step::Restore { at: i },
        18 => Step::Clear { at: i },
        _ => Step::Widen { at: i, dest: j },
    })
}

fn arb_schedule() -> impl Strategy<Value = (usize, Vec<Step>)> {
    (3usize..=4)
        .prop_flat_map(|size| (Just(size), proptest::collection::vec(arb_step(size), 1..60)))
}

proptest! {
    /// Random schedules over three or four replicas, every digest policy:
    /// each exchange is served once lent and once from its own wire bytes,
    /// in two fleets that otherwise run the same schedule. The request
    /// bytes, the knowledge the summary resolves to, the resync decision
    /// and the sync report must agree at every exchange, and every
    /// replica's `ReconStats` after every step; the replicas must end
    /// byte-identical.
    #[test]
    fn a_label_answers_as_a_copy_does(
        policy in arb_policy(),
        (size, steps) in arb_schedule(),
    ) {
        let mut lent = Fleet::new(size, policy);
        let mut wire = Fleet::new(size, policy);
        for (n, step) in steps.into_iter().enumerate() {
            let now = SimTime::from_secs(n as u64);
            match step {
                Step::Learn { at, dest, byte } => {
                    for fleet in [&mut lent, &mut wire] {
                        fleet.replicas[at].insert(attrs(addr(dest)), vec![byte]).unwrap();
                    }
                }
                Step::Sync { source, target, refuse } => {
                    let by_lend = exchange_in(&mut lent, false, (source, target), refuse, now);
                    let by_bytes = exchange_in(&mut wire, true, (source, target), refuse, now);
                    prop_assert_eq!(by_lend, by_bytes, "step {}", n);
                }
                Step::Restore { at } => {
                    for fleet in [&mut lent, &mut wire] {
                        let snapshot = fleet.replicas[at].snapshot();
                        fleet.replicas[at] = Replica::restore(&snapshot).unwrap();
                    }
                }
                Step::Clear { at } => {
                    for fleet in [&mut lent, &mut wire] {
                        fleet.recon[at].clear_peers();
                    }
                }
                Step::Widen { at, dest } => {
                    for fleet in [&mut lent, &mut wire] {
                        let own = Filter::address("dest", addr(at));
                        let other = Filter::address("dest", addr(dest));
                        fleet.replicas[at].set_filter(own.or(other));
                    }
                }
            }
            let stats = |fleet: &Fleet| fleet.recon.iter().map(ReconState::stats).collect::<Vec<_>>();
            prop_assert_eq!(stats(&lent), stats(&wire), "step {}", n);
        }
        for (by_lend, by_bytes) in lent.replicas.iter().zip(&wire.replicas) {
            prop_assert_eq!(by_lend.snapshot(), by_bytes.snapshot());
        }
    }
}
