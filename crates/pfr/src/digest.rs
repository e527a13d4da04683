//! Digest-mode synchronization: a repeat exchange costs what was learned
//! since the last one.
//!
//! Full-mode sync (paper Fig. 4) ships the target's entire [`Knowledge`]
//! — version vector plus exception set — in every request. Under filtered
//! DTN replication the exception set only grows (gaps are permanent, see
//! [`Knowledge`]), so steady-state encounters resend an ever-larger
//! structure the source has mostly seen before. Knowledge is also
//! *monotone*: a replica only learns versions, in an order its journal
//! records ([`crate::journal`]). So the target remembers, per peer, the
//! journal position and checksum of what it last conveyed, the source
//! keeps one copy of that knowledge, and a request carries:
//!
//! * [`KnowledgeSummary::Unchanged`] — a checksum (nine bytes) when the
//!   journal has not moved since the last exchange with this peer.
//! * [`KnowledgeSummary::Delta`] — the versions learned since, spelled
//!   out. The source inserts them into its cached copy *in place* and
//!   checks the result against the target's checksum; a miss drops the
//!   copy and resynchronizes.
//! * [`KnowledgeSummary::Full`] — the whole structure: first contact, a
//!   delta that would be longer than the knowledge, or a position the
//!   journal no longer reaches back to.
//! * [`KnowledgeSummary::Bloom`] — a Bloom filter over the target's known
//!   versions, on first contact only when it is under half the size of
//!   the full structure (or under [`DigestPolicy::ForceBloom`]). The
//!   source screens its store against it; possible hits are confirmed in
//!   one exact [`VersionQuery`] round, so false positives cost bandwidth,
//!   never correctness. A Bloom round conveys no exact knowledge, so it
//!   cannot seed the source's copy: it *defers* the full exchange to the
//!   next meeting rather than replacing it, which is why it has to be so
//!   much smaller to be worth sending.
//!
//! Every path ends with the source holding a knowledge set that selects
//! *exactly* the candidates full mode would have selected, so digest mode
//! is invisible to delivery metrics. Any mismatch — lost or stale copy,
//! corrupt frame — resolves to [`SummaryOutcome::Resync`] and the exchange
//! falls back to a full request: degraded bandwidth, never degraded
//! convergence. Fallbacks are counted in the `recon.fallback_rounds`
//! observability counter.

use std::borrow::Cow;
use std::collections::HashMap;

use obs::{Event, EventKind};
use recon::hash::key_hash;
use recon::Bloom;

use crate::filter::Filter;
use crate::id::{ReplicaId, Version};
use crate::journal::KnowledgeTotals;
use crate::knowledge::Knowledge;
use crate::replica::Replica;
use crate::sync::{self, RoutingState, SyncExtension, SyncLimits, SyncReport, SyncRequest};
use crate::time::SimTime;
use crate::wire::{self, varint_len};

/// How sync requests travel between two replicas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncMode {
    /// Full knowledge in every request (the paper's baseline protocol).
    #[default]
    Full,
    /// Compact summaries with full-exchange fallback (this module).
    Digest,
}

/// Which summary kinds digest mode may choose. `Auto` is the production
/// setting; the `Force*` variants pin one path for tests and experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DigestPolicy {
    /// Cheapest sound summary: checksum when unchanged, the learned
    /// versions when that is shorter than the knowledge, a Bloom filter on
    /// first contact when it is under half the knowledge, else the
    /// knowledge itself.
    #[default]
    Auto,
    /// Always summarize with a Bloom filter when the version set is
    /// enumerable (first contact *and* repeat encounters). Exercises the
    /// false-positive query round.
    ForceBloom,
    /// Always send a delta when the journal reaches back to the last
    /// exchange (even when the full structure would be smaller); full
    /// knowledge otherwise.
    ForceDelta,
    /// Never summarize: full knowledge inside the digest framing.
    ForceFull,
}

/// Default Bloom filter density (bits per known version): ~1% false
/// positives, each costing one entry in the exact query round.
const BLOOM_BITS_PER_ITEM: u32 = 10;

/// Largest enumerable version set a Bloom summary will be built over.
/// Beyond this, first contact sends full knowledge (which is compact
/// precisely when the version count is dominated by vector prefixes).
const BLOOM_MAX_VERSIONS: u64 = 4096;

/// Bloom key of one concrete version.
fn version_key(v: Version) -> u128 {
    ((v.replica().as_u64() as u128) << 64) | v.counter() as u128
}

/// Order-independent checksum of a knowledge entry set, from scratch (a
/// replica keeps its own current in [`Replica::knowledge_totals`]).
pub fn knowledge_checksum(k: &Knowledge) -> u64 {
    KnowledgeTotals::of(k).checksum()
}

/// Compact stand-in for a [`Knowledge`] structure in a [`DigestRequest`].
#[derive(Clone, Debug, PartialEq)]
pub enum KnowledgeSummary {
    /// The complete structure: first contact, deltas longer than the
    /// knowledge or older than the journal, or [`DigestPolicy::ForceFull`].
    Full(Knowledge),
    /// Nothing learned since the last exchange with this peer; `checksum`
    /// lets the source confirm its cached copy is the referenced one.
    Unchanged {
        /// Checksum of the (unchanged) knowledge entry set.
        checksum: u64,
    },
    /// What the target learned since the last exchange with this peer, to
    /// be inserted into the peer's cached copy of its knowledge.
    Delta {
        /// Checksum of the previously exchanged knowledge (cache key; a
        /// mismatch means the peer lost or never had the copy).
        base_checksum: u64,
        /// Checksum of the current knowledge, verified after the
        /// versions are applied.
        checksum: u64,
        /// The versions learned since, in the order they were learned.
        learned: Vec<Version>,
    },
    /// Membership filter over every individually known version (lossy:
    /// resolves candidates, conveys no exact knowledge).
    Bloom {
        /// Number of versions inserted into the filter.
        version_count: u64,
        /// The membership filter.
        bloom: Bloom,
    },
}

impl KnowledgeSummary {
    /// Short stable label for observability: "full", "unchanged",
    /// "delta", or "bloom".
    pub fn kind(&self) -> &'static str {
        match self {
            KnowledgeSummary::Full(_) => "full",
            KnowledgeSummary::Unchanged { .. } => "unchanged",
            KnowledgeSummary::Delta { .. } => "delta",
            KnowledgeSummary::Bloom { .. } => "bloom",
        }
    }
}

/// Digest-mode replacement for [`SyncRequest`]: same target identity and
/// routing state, but knowledge travels as a [`KnowledgeSummary`] and the
/// filter is elided once the peer has acknowledged it by fingerprint.
#[derive(Clone, Debug)]
pub struct DigestRequest<'a> {
    /// The requesting (target) replica.
    pub target: ReplicaId,
    /// Compact stand-in for the target's knowledge.
    pub summary: KnowledgeSummary,
    /// Fingerprint of the target's filter (see `Filter::fingerprint`).
    pub filter_fingerprint: u64,
    /// The filter itself; `None` when the fingerprint matches the one
    /// this peer cached on an earlier exchange.
    pub filter: Option<Filter>,
    /// Policy routing data, exactly as in full mode.
    pub routing: RoutingState<'a>,
}

/// Exact membership round for Bloom summaries: versions the filter
/// flagged as possibly-known, for the target to confirm one by one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionQuery {
    /// Versions to confirm, in store order.
    pub versions: Vec<Version>,
}

/// Reply to a [`VersionQuery`]: one bit per queried version, set when the
/// target's knowledge actually contains it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionAnswer {
    count: usize,
    bits: Vec<u8>,
}

impl VersionAnswer {
    /// An all-unknown answer for `count` queried versions.
    pub fn new(count: usize) -> Self {
        VersionAnswer {
            count,
            bits: vec![0u8; count.div_ceil(8)],
        }
    }

    /// Reassembles an answer from decoded parts; `None` if the bitmap
    /// length does not match the count.
    pub fn from_parts(count: usize, bits: Vec<u8>) -> Option<Self> {
        (bits.len() == count.div_ceil(8)).then_some(VersionAnswer { count, bits })
    }

    /// Marks queried version `i` as known.
    pub fn set_known(&mut self, i: usize) {
        self.bits[i / 8] |= 1 << (i % 8);
    }

    /// Whether queried version `i` is known to the target.
    pub fn known(&self, i: usize) -> bool {
        i < self.count && self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    /// Number of queried versions this answer covers.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the answer covers no versions.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bitmap (for wire encoding).
    pub fn bits(&self) -> &[u8] {
        &self.bits
    }
}

/// Answers a [`VersionQuery`] from the target's actual knowledge.
pub fn answer_query(knowledge: &Knowledge, query: &VersionQuery) -> VersionAnswer {
    let mut answer = VersionAnswer::new(query.versions.len());
    for (i, &v) in query.versions.iter().enumerate() {
        if knowledge.contains(v) {
            answer.set_known(i);
        }
    }
    answer
}

/// Builds the synthetic knowledge a Bloom-path source syncs against: the
/// queried versions the target confirmed, as individual entries. Returns
/// the knowledge plus the false-positive count (versions the filter
/// flagged but the target does not know — they become candidates, exactly
/// as full mode would have selected them). `None` if the answer does not
/// match the query's length.
pub fn knowledge_from_answer(
    query: &VersionQuery,
    answer: &VersionAnswer,
) -> Option<(Knowledge, u64)> {
    if answer.len() != query.versions.len() {
        return None;
    }
    let mut known = Knowledge::new();
    let mut false_positives = 0u64;
    for (i, &v) in query.versions.iter().enumerate() {
        if answer.known(i) {
            known.insert(v);
        } else {
            false_positives += 1;
        }
    }
    Some((known, false_positives))
}

/// What a [`KnowledgeSummary`] resolved to on the source side.
#[derive(Clone, Debug)]
pub enum SummaryOutcome {
    /// Knowledge to select candidates against, exactly as for a full-mode
    /// request.
    Resolved {
        /// The target's knowledge, or after Bloom screening a sound
        /// conservative subset of it.
        knowledge: Knowledge,
        /// Totals of `knowledge` when it is the target's *exact*
        /// knowledge — full, unchanged and delta summaries — and may
        /// therefore be cached for the next exchange
        /// ([`ReconState::commit_peer`]); `None` after Bloom screening.
        totals: Option<KnowledgeTotals>,
    },
    /// Bloom screening needs one exact round before candidates are known.
    NeedVersions(VersionQuery),
    /// The summary references state this side does not hold, or did not
    /// reproduce the target's checksum: request a full exchange instead.
    Resync,
}

/// What this side last sent to (or heard from) one peer.
#[derive(Clone, Debug, Default)]
struct PeerRecon {
    /// Summaries built for this peer; salts successive Bloom seeds so a
    /// false positive never repeats at the next meeting.
    epoch: u64,
    /// Journal position and checksum of the knowledge this replica last
    /// conveyed to the peer (target role: where the next delta starts).
    sent: Option<(u64, u64)>,
    /// Filter fingerprint the peer has acknowledged (target role: when it
    /// matches the current filter, the filter is elided from requests).
    sent_filter_fp: Option<u64>,
    /// The peer's knowledge as of the last exchange, with its totals
    /// (source role: what the next delta is applied to). Taken out while
    /// an exchange is resolving and put back only by its commit.
    peer_knowledge: Option<(Knowledge, KnowledgeTotals)>,
    /// The peer's filter as last received, keyed by fingerprint (source
    /// role: reused when the peer elides it).
    peer_filter: Option<(u64, Filter)>,
}

/// One summarized-but-not-yet-committed exchange (returned by
/// [`ReconState::build_request`], consumed by [`ReconState::commit_sent`]
/// once the sync succeeds — a failed or corrupted exchange must not
/// advance the per-peer position).
#[derive(Clone, Copy, Debug)]
pub struct PendingExchange {
    peer: ReplicaId,
    position: u64,
    checksum: u64,
    filter_fp: u64,
    full_bytes: u64,
}

impl PendingExchange {
    /// Encoded size of the equivalent full-mode request: the bytes full
    /// mode would have spent where the digest went instead.
    pub fn full_bytes(&self) -> u64 {
        self.full_bytes
    }

    /// Re-stamps the exchange with `target`'s knowledge as it is *now* —
    /// for a target about to retransmit its full request, which conveys
    /// the current knowledge, not that of when the exchange began.
    pub fn restamp(&mut self, target: &Replica) {
        self.position = target.journal_position();
        self.checksum = target.knowledge_totals().checksum();
    }
}

/// Cumulative digest-mode counters for one replica (test and experiment
/// accounting; the authoritative stream is the `ReconDigest` event).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ReconStats {
    /// Digest exchanges resolved (any kind).
    pub exchanges: u64,
    /// Metadata bytes digest mode cost.
    pub digest_bytes: u64,
    /// Metadata bytes the equivalent full requests would have cost.
    pub full_bytes: u64,
    /// Exchanges that fell back to a full request.
    pub fallback_rounds: u64,
    /// Bloom false positives resolved by exact query rounds.
    pub false_positives: u64,
}

/// Per-replica digest-mode state: the policy knobs plus, per peer, what
/// makes exact deltas possible — as target a journal position, as source
/// one copy of the peer's knowledge.
///
/// Both advance only on [`ReconState::commit_sent`] /
/// [`ReconState::commit_peer`], which callers invoke after the exchange
/// succeeds end to end. An exchange that dies mid-flight leaves the
/// target on its old position and the source either on its old copy or —
/// if it had already applied a delta — with none, which the next exchange
/// repairs with one resync round. Never a half-advanced copy.
#[derive(Clone, Debug)]
pub struct ReconState {
    policy: DigestPolicy,
    bloom_bits_per_item: u32,
    bloom_max_versions: u64,
    peers: HashMap<ReplicaId, PeerRecon>,
    stats: ReconStats,
}

impl Default for ReconState {
    fn default() -> Self {
        ReconState::new()
    }
}

impl ReconState {
    /// Digest state with the default [`DigestPolicy::Auto`] policy.
    pub fn new() -> Self {
        ReconState {
            policy: DigestPolicy::default(),
            bloom_bits_per_item: BLOOM_BITS_PER_ITEM,
            bloom_max_versions: BLOOM_MAX_VERSIONS,
            peers: HashMap::new(),
            stats: ReconStats::default(),
        }
    }

    /// Digest state pinned to one summary policy.
    pub fn with_policy(policy: DigestPolicy) -> Self {
        ReconState {
            policy,
            ..ReconState::new()
        }
    }

    /// The active summary policy.
    pub fn policy(&self) -> DigestPolicy {
        self.policy
    }

    /// Replaces the summary policy.
    pub fn set_policy(&mut self, policy: DigestPolicy) {
        self.policy = policy;
    }

    /// Bloom filter density in bits per version (false-positive rate
    /// ≈ 0.6185^bits).
    pub fn bloom_bits_per_item(&self) -> u32 {
        self.bloom_bits_per_item
    }

    /// Sets the Bloom density, clamped to 1..=64 bits per version. Lower
    /// densities shrink first-contact digests but cost more exact query
    /// rounds; this is the knob the bandwidth sweep turns.
    pub fn set_bloom_bits_per_item(&mut self, bits: u32) {
        self.bloom_bits_per_item = bits.clamp(1, 64);
    }

    /// Cumulative digest counters for this replica.
    pub fn stats(&self) -> ReconStats {
        self.stats
    }

    /// Folds one completed exchange into [`ReconState::stats`].
    pub fn note_exchange(
        &mut self,
        digest_bytes: u64,
        full_bytes: u64,
        fallback_rounds: u64,
        false_positives: u64,
    ) {
        self.stats.exchanges += 1;
        self.stats.digest_bytes += digest_bytes;
        self.stats.full_bytes += full_bytes;
        self.stats.fallback_rounds += fallback_rounds;
        self.stats.false_positives += false_positives;
    }

    /// Drops all per-peer snapshots (a restart that loses digest state;
    /// the next exchange with every peer re-seeds via Bloom or full).
    pub fn clear_peers(&mut self) {
        self.peers.clear();
    }

    /// **Target role.** Summarizes `target`'s knowledge into a
    /// [`DigestRequest`] for `peer`, choosing the cheapest sound summary
    /// the policy allows; `routing` is the policy routing data of the
    /// equivalent full-mode request. Also returns the [`PendingExchange`]
    /// to commit once the sync succeeds. Costs what was learned since the
    /// last exchange with `peer`: the knowledge is neither walked nor
    /// cloned unless it is itself the summary.
    pub fn build_request<'a>(
        &mut self,
        peer: ReplicaId,
        target: &mut Replica,
        routing: RoutingState<'a>,
    ) -> (DigestRequest<'a>, PendingExchange) {
        let (filter_fp, filter_len) = target.filter_stamp();
        let target: &Replica = target;
        let knowledge = target.knowledge();
        let totals = target.knowledge_totals();
        let (position, checksum) = (target.journal_position(), totals.checksum());
        // Every summary but `Full` is compared against this.
        let full_len = 1 + totals.encoded_len(knowledge);
        let record = self.peers.entry(peer).or_default();
        record.epoch += 1;
        let epoch = record.epoch;
        let bloom = |max_len: usize| {
            let seed = key_hash(
                ((target.id().as_u64() as u128) << 64) | peer.as_u64() as u128,
                0x1db7_c0de ^ epoch,
            );
            let (max_versions, bits) = (self.bloom_max_versions, self.bloom_bits_per_item);
            bloom_summary(knowledge, max_versions, bits, seed, max_len)
        };
        let summary = match (self.policy, record.sent) {
            (DigestPolicy::ForceFull, _) => None,
            (DigestPolicy::ForceBloom, _) => bloom(usize::MAX),
            (_, Some((sent_position, sent_checksum))) if sent_position == position => {
                // Equal positions of one journal are equal knowledge; the
                // checksum tells a position from before a restore apart.
                (sent_checksum == checksum).then_some(KnowledgeSummary::Unchanged { checksum })
            }
            (policy, Some((sent_position, sent_checksum))) => target
                .learned_since(sent_position)
                .map(|learned| KnowledgeSummary::Delta {
                    base_checksum: sent_checksum,
                    checksum,
                    learned: learned.to_vec(),
                })
                .filter(|delta| {
                    policy == DigestPolicy::ForceDelta || wire::encoded_len(delta) < full_len
                }),
            (DigestPolicy::ForceDelta, None) => None,
            // First contact. A Bloom round cannot seed the peer's copy, so
            // the full exchange still happens at the next meeting: the
            // filter only pays when it is under half of it.
            (_, None) => bloom((full_len - 1) / 2),
        }
        .unwrap_or_else(|| KnowledgeSummary::Full(knowledge.clone()));

        let filter = (record.sent_filter_fp != Some(filter_fp)).then(|| target.filter().clone());
        let pending = PendingExchange {
            peer,
            position,
            checksum,
            filter_fp,
            full_bytes: wire::sync_request_len(target.id(), full_len - 1, filter_len, &routing)
                as u64,
        };
        let digest = DigestRequest {
            target: target.id(),
            summary,
            filter_fingerprint: filter_fp,
            filter,
            routing,
        };
        (digest, pending)
    }

    /// **Target role.** Commits a successful exchange: the peer now holds
    /// the knowledge as of this journal position, so the next summary can
    /// start from it. `knowledge_shared` says whether the exchange
    /// actually conveyed the exact knowledge set (full/unchanged/delta
    /// paths, and fallbacks that retransmitted the full request) — Bloom
    /// rounds convey a lossy view and must not move the position.
    pub fn commit_sent(&mut self, pending: PendingExchange, knowledge_shared: bool) {
        let record = self.peers.entry(pending.peer).or_default();
        if knowledge_shared {
            record.sent = Some((pending.position, pending.checksum));
        }
        record.sent_filter_fp = Some(pending.filter_fp);
    }

    /// **Source role.** The target's filter for a request: the one it
    /// carried inline, or the cached one its fingerprint names. `None`
    /// means the peer elided a filter this side never saw — a protocol
    /// desync that must resolve as [`SummaryOutcome::Resync`].
    pub fn effective_filter<'a>(
        &'a self,
        peer: ReplicaId,
        fingerprint: u64,
        inline: Option<&'a Filter>,
    ) -> Option<&'a Filter> {
        inline.or_else(|| {
            let (cached_fp, filter) = self.peers.get(&peer)?.peer_filter.as_ref()?;
            (*cached_fp == fingerprint).then_some(filter)
        })
    }

    /// **Source role.** Resolves a summary against the cached copy of the
    /// peer's knowledge and (for Bloom) the local store. Never fails hard:
    /// anything that cannot be resolved exactly comes back as
    /// [`SummaryOutcome::Resync`].
    ///
    /// Unchanged and delta summaries *take* the cached copy — a delta is
    /// applied to it in place — and hand it back in the outcome; only
    /// [`ReconState::commit_peer`] restores it. A copy that fails its
    /// checksum is dropped here, so a bad delta can never poison later
    /// exchanges: the next one resynchronizes and re-seeds it.
    pub fn resolve(
        &mut self,
        local: &Replica,
        peer: ReplicaId,
        summary: KnowledgeSummary,
    ) -> SummaryOutcome {
        let mut cached = || self.peers.get_mut(&peer)?.peer_knowledge.take();
        let exact = |(knowledge, totals)| SummaryOutcome::Resolved {
            knowledge,
            totals: Some(totals),
        };
        match summary {
            KnowledgeSummary::Full(knowledge) => {
                let totals = KnowledgeTotals::of(&knowledge);
                exact((knowledge, totals))
            }
            KnowledgeSummary::Unchanged { checksum } => cached()
                .filter(|(_, totals)| totals.checksum() == checksum)
                .map_or(SummaryOutcome::Resync, exact),
            KnowledgeSummary::Delta {
                base_checksum,
                checksum,
                learned,
            } => cached()
                .filter(|(_, totals)| totals.checksum() == base_checksum)
                .map(|(mut knowledge, mut totals)| {
                    for version in learned {
                        knowledge.insert_with(version, &mut totals);
                    }
                    (knowledge, totals)
                })
                .filter(|(_, totals)| totals.checksum() == checksum)
                .map_or(SummaryOutcome::Resync, exact),
            KnowledgeSummary::Bloom { bloom, .. } => {
                // Screen every stored current version. Definite misses
                // need no confirmation — the filter has no false
                // negatives — so only possible hits go to the query round.
                let uncertain: Vec<Version> = local
                    .stored_versions()
                    .filter(|&v| bloom.contains(version_key(v)))
                    .collect();
                if uncertain.is_empty() {
                    SummaryOutcome::Resolved {
                        knowledge: Knowledge::new(),
                        totals: None,
                    }
                } else {
                    SummaryOutcome::NeedVersions(VersionQuery {
                        versions: uncertain,
                    })
                }
            }
        }
    }

    /// **Source role.** Commits a successful exchange: caches the filter
    /// the target sent inline (if it is new), and — when the exchange
    /// conveyed it exactly — the target's knowledge for the next delta.
    pub fn commit_peer(
        &mut self,
        peer: ReplicaId,
        knowledge: Option<(Knowledge, KnowledgeTotals)>,
        filter_fp: u64,
        inline_filter: Option<&Filter>,
    ) {
        let record = self.peers.entry(peer).or_default();
        if knowledge.is_some() {
            record.peer_knowledge = knowledge;
        }
        if let Some(filter) = inline_filter {
            if record.peer_filter.as_ref().map(|(fp, _)| *fp) != Some(filter_fp) {
                record.peer_filter = Some((filter_fp, filter.clone()));
            }
        }
    }
}

/// Builds a Bloom summary over `knowledge`'s version set, or `None` when
/// the set is too large to enumerate or the summary would encode longer
/// than `max_len`. The length is closed-form, so nothing is hashed for a
/// filter that will not be sent.
fn bloom_summary(
    knowledge: &Knowledge,
    max_versions: u64,
    bits_per_item: u32,
    seed: u64,
    max_len: usize,
) -> Option<KnowledgeSummary> {
    let version_count = knowledge.version_count();
    if version_count > max_versions {
        return None;
    }
    let bloom_len = Bloom::encoded_len_for(version_count as usize, bits_per_item, seed);
    if 1 + varint_len(version_count) + varint_len(bloom_len as u64) + bloom_len > max_len {
        return None;
    }
    let mut bloom = Bloom::for_items(version_count as usize, bits_per_item, seed);
    for (replica, base) in knowledge.vector_entries() {
        for counter in 1..=base {
            bloom.insert(version_key(Version::new(replica, counter)));
        }
    }
    for v in knowledge.exceptions() {
        bloom.insert(version_key(v));
    }
    Some(KnowledgeSummary::Bloom {
        version_count,
        bloom,
    })
}

/// Runs one full one-directional **digest-mode** sync in process:
/// `target` pulls from `source`, with each side's [`ReconState`] holding
/// its per-peer state. Delivery behaviour is identical to
/// [`sync::sync_with`] — same candidates, same batch, same events — plus
/// one [`Event::ReconDigest`] accounting the metadata bytes both modes
/// would have spent. The request is built, measured, resolved and
/// committed by the same code the network entry points run; what this
/// path saves is the frames — it lends the knowledge where a transport
/// would encode it.
#[allow(clippy::too_many_arguments)]
pub fn sync_with_digest(
    source: &mut Replica,
    source_ext: &mut dyn SyncExtension,
    source_recon: &mut ReconState,
    target: &mut Replica,
    target_ext: &mut dyn SyncExtension,
    target_recon: &mut ReconState,
    limits: SyncLimits,
    now: SimTime,
) -> SyncReport {
    let source_id = source.id();
    let target_id = target.id();
    let routing = sync::generate_routing(target, target_ext, now, Some(source_id));
    let (digest_request, pending) = target_recon.build_request(source_id, target, routing);
    let full_bytes = pending.full_bytes;
    let mut digest_bytes = wire::encoded_len(&digest_request) as u64;
    let mut fallback_rounds = 0u64;
    let mut false_positives = 0u64;
    let mut kind = digest_request.summary.kind();
    let DigestRequest {
        summary,
        filter_fingerprint,
        filter: inline_filter,
        routing,
        ..
    } = digest_request;

    let outcome = source_recon.resolve(source, target_id, summary);
    // The target's filter as the source knows it, looked up once and lent
    // to the request; not knowing it is a desync like any other.
    let known_filter =
        source_recon.effective_filter(target_id, filter_fingerprint, inline_filter.as_ref());
    let outcome = match known_filter {
        Some(_) => outcome,
        None => SummaryOutcome::Resync,
    };
    // What the source syncs against, and its totals when it is the
    // target's exact knowledge (and may be cached for the next delta).
    let resynced = matches!(outcome, SummaryOutcome::Resync);
    let (knowledge, totals) = match outcome {
        SummaryOutcome::Resolved { knowledge, totals } => (Cow::Owned(knowledge), totals),
        SummaryOutcome::NeedVersions(query) => {
            fallback_rounds += 1;
            digest_bytes += wire::encoded_len(&query) as u64;
            let answer = answer_query(target.knowledge(), &query);
            digest_bytes += wire::encoded_len(&answer) as u64;
            let (known, fps) =
                knowledge_from_answer(&query, &answer).expect("answer sized to query");
            false_positives = fps;
            (Cow::Owned(known), None)
        }
        SummaryOutcome::Resync => {
            // Full retransmission: one resync byte on the wire, then the
            // plain request. Counted against digest mode — fallbacks are
            // its cost, not full mode's.
            fallback_rounds += 1;
            kind = "full";
            digest_bytes += 1 + full_bytes;
            (
                Cow::Borrowed(target.knowledge()),
                Some(target.knowledge_totals()),
            )
        }
    };

    source
        .observer()
        .emit(EventKind::ReconDigest, || Event::ReconDigest {
            replica: source_id.as_u64(),
            peer: target_id.as_u64(),
            kind,
            digest_bytes,
            full_bytes,
            fallback_rounds,
            false_positives,
        });

    // A resync retransmits the plain full request, filter included.
    let filter = match known_filter {
        Some(filter) if !resynced => filter,
        _ => target.filter(),
    };
    let request = SyncRequest {
        target: target_id,
        knowledge: Cow::Borrowed(knowledge.as_ref()),
        filter: Cow::Borrowed(filter),
        routing,
    };
    let batch = sync::prepare_batch(source, source_ext, &request, limits, now);
    drop(request);
    // The copy the source keeps is the knowledge the request conveyed —
    // taken before the batch teaches the target more.
    let exact = totals.map(|totals| (knowledge.into_owned(), totals));
    let (report, spent_entries) = sync::apply_batch_recycling(target, target_ext, batch, now);
    source.recycle_batch_entries(spent_entries);

    // Both ends saw the exchange succeed: advance the per-peer state in
    // lockstep (Bloom rounds advance only the filter caches).
    source_recon.note_exchange(digest_bytes, full_bytes, fallback_rounds, false_positives);
    target_recon.commit_sent(pending, exact.is_some());
    let sent_filter = if resynced {
        Some(target.filter())
    } else {
        inline_filter.as_ref()
    };
    source_recon.commit_peer(target_id, exact, filter_fingerprint, sent_filter);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttributeMap;
    use crate::sync::NoExtension;

    fn rid(n: u64) -> ReplicaId {
        ReplicaId::new(n)
    }

    fn dest(d: &str) -> AttributeMap {
        let mut a = AttributeMap::new();
        a.set("dest", d);
        a
    }

    fn host(n: u64, addr: &str) -> Replica {
        Replica::new(rid(n), Filter::address("dest", addr))
    }

    fn digest_sync(
        source: &mut Replica,
        source_recon: &mut ReconState,
        target: &mut Replica,
        target_recon: &mut ReconState,
        at: u64,
    ) -> SyncReport {
        sync_with_digest(
            source,
            &mut NoExtension,
            source_recon,
            target,
            &mut NoExtension,
            target_recon,
            SyncLimits::unlimited(),
            SimTime::from_secs(at),
        )
    }

    #[test]
    fn checksum_is_order_free_and_tells_entry_kinds_apart() {
        let versions = [
            Version::new(rid(9), 1),
            Version::new(rid(9), 2),
            Version::new(rid(9), 9),
            Version::new(rid(3), 2),
        ];
        let (mut forward, mut backward) = (Knowledge::new(), Knowledge::new());
        for v in versions {
            forward.insert(v);
        }
        for v in versions.into_iter().rev() {
            backward.insert(v);
        }
        assert_eq!(forward, backward);
        assert_eq!(knowledge_checksum(&forward), knowledge_checksum(&backward));
        forward.insert(Version::new(rid(3), 1));
        assert_ne!(knowledge_checksum(&forward), knowledge_checksum(&backward));
    }

    #[test]
    fn digest_sync_matches_full_sync_behaviour() {
        // Same initial state, one run per mode: delivered sets must agree.
        let mut a1 = host(1, "a");
        let mut b1 = host(2, "b");
        let mut a2 = host(1, "a");
        let mut b2 = host(2, "b");
        for i in 0..20u8 {
            let d = dest(if i % 3 == 0 { "b" } else { "x" });
            a1.insert(d.clone(), vec![i]).unwrap();
            a2.insert(d, vec![i]).unwrap();
        }
        let full = sync::sync_once(&mut a1, &mut b1, SimTime::ZERO);
        let (mut ra, mut rb) = (ReconState::new(), ReconState::new());
        let dig = digest_sync(&mut a2, &mut ra, &mut b2, &mut rb, 0);
        assert_eq!(full.delivered, dig.delivered);
        assert_eq!(full.transmitted, dig.transmitted);
        assert_eq!(b1.item_count(), b2.item_count());
    }

    #[test]
    fn repeat_encounters_settle_into_unchanged_and_delta() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut c = host(3, "c");
        let (mut ra, mut rb) = (ReconState::new(), ReconState::new());
        let (mut rc_a, mut rc) = (ReconState::new(), ReconState::new());
        for i in 0..200u8 {
            a.insert(dest("b"), vec![i]).unwrap();
        }
        // First contact seeds the snapshot caches (full or bloom).
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 0);
        // Nothing changed: the second exchange must be "unchanged".
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 1);
        assert_eq!(ra.stats().exchanges, 2);
        assert_eq!(ra.stats().fallback_rounds, 0);
        // b's knowledge changed a little (new items from c): delta path.
        for i in 0..4u8 {
            c.insert(dest("b"), vec![i]).unwrap();
        }
        digest_sync(&mut c, &mut rc_a, &mut b, &mut rc, 2);
        let before = ra.stats().digest_bytes;
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 3);
        let delta_cost = ra.stats().digest_bytes - before;
        assert_eq!(ra.stats().fallback_rounds, 0, "delta must apply cleanly");
        // The delta must be far cheaper than resending 200+ versions of
        // knowledge in full.
        assert!(
            delta_cost < ra.stats().full_bytes / 2,
            "delta {delta_cost}B vs cumulative full {}B",
            ra.stats().full_bytes
        );
        assert_eq!(b.item_count(), 204);
    }

    #[test]
    fn unchanged_costs_a_fraction_of_full() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let (mut ra, mut rb) = (ReconState::new(), ReconState::new());
        // Interleave destinations so b learns only every other version:
        // permanent gaps, so its knowledge is exception-heavy — the
        // structure full mode keeps resending and digest mode does not.
        for i in 0..100u8 {
            a.insert(dest(if i % 2 == 0 { "b" } else { "x" }), vec![i])
                .unwrap();
        }
        // First sync delivers; second conveys the now-stable knowledge
        // (summaries snapshot the pre-batch state, so the cache lags one
        // exchange); the third is the steady state digest mode is for.
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 0);
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 1);
        let (d0, f0) = (ra.stats().digest_bytes, ra.stats().full_bytes);
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 2);
        let steady = ra.stats().digest_bytes - d0;
        let steady_full = ra.stats().full_bytes - f0;
        assert!(
            steady * 4 < steady_full,
            "unchanged summary {steady}B vs full request {steady_full}B"
        );
    }

    #[test]
    fn forced_bloom_resolves_false_positives_exactly() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut rb = ReconState::with_policy(DigestPolicy::ForceBloom);
        let mut ra = ReconState::with_policy(DigestPolicy::ForceBloom);
        // b knows plenty (its own writes), a stores items b has never
        // seen plus nothing b knows — every stored version screens
        // against a populated filter.
        for i in 0..50u8 {
            b.insert(dest("b"), vec![i]).unwrap();
        }
        for i in 0..30u8 {
            a.insert(dest("b"), vec![i]).unwrap();
        }
        let report = digest_sync(&mut a, &mut ra, &mut b, &mut rb, 0);
        assert_eq!(report.delivered, 30, "bloom path delivers everything");
        // Idempotent under bloom too: b now knows a's versions, so the
        // query round confirms them and nothing is re-sent.
        let report = digest_sync(&mut a, &mut ra, &mut b, &mut rb, 1);
        assert_eq!(report.transmitted, 0);
    }

    #[test]
    fn lost_cache_falls_back_to_full_and_recovers() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let (mut ra, mut rb) = (ReconState::new(), ReconState::new());
        for i in 0..150u8 {
            a.insert(dest("b"), vec![i]).unwrap();
        }
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 0);
        // Source forgets everything (restart): the next Unchanged/Delta
        // summary references a snapshot it no longer holds.
        ra.clear_peers();
        let report = digest_sync(&mut a, &mut ra, &mut b, &mut rb, 1);
        assert_eq!(ra.stats().fallback_rounds, 1, "resync round taken");
        assert_eq!(report.duplicates, 0);
        // And the fallback re-seeded the caches: next round is cheap again.
        let before = ra.stats().digest_bytes;
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 2);
        assert!(ra.stats().digest_bytes - before < 64);
        assert_eq!(ra.stats().fallback_rounds, 1);
    }

    #[test]
    fn huge_replica_ids_digest_like_any_other() {
        let big = rid(u64::MAX - 3);
        let mut a = Replica::new(rid(1), Filter::address("dest", "a"));
        let mut b = Replica::new(big, Filter::address("dest", "b"));
        let (mut ra, mut rb) = (ReconState::new(), ReconState::new());
        b.insert(dest("b"), vec![1]).unwrap();
        a.insert(dest("b"), vec![2]).unwrap();
        for at in 0..3 {
            digest_sync(&mut a, &mut ra, &mut b, &mut rb, at);
        }
        assert_eq!(ra.stats().fallback_rounds, 0);
        assert_eq!(b.item_count(), 2);
        // full, then the delta carrying what the first batch taught b,
        // then nothing left to say.
        let before = ra.stats().digest_bytes;
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 3);
        assert!(ra.stats().digest_bytes - before < 32, "unchanged summary");
    }

    /// A source-side harness for resolving hand-made summaries: `local`
    /// (the source replica), a `ReconState` whose copy of peer 2's
    /// knowledge is `base`, and `base` itself.
    fn source_caching(base_versions: &[Version]) -> (Replica, ReconState, Knowledge) {
        let mut base = Knowledge::new();
        for &v in base_versions {
            base.insert(v);
        }
        let mut recon = ReconState::new();
        recon.commit_peer(
            rid(2),
            Some((base.clone(), KnowledgeTotals::of(&base))),
            0,
            None,
        );
        (host(1, "a"), recon, base)
    }

    /// After a failed delta the copy must be gone: even a summary naming
    /// the untouched base no longer resolves.
    fn assert_cache_dropped(local: &Replica, recon: &mut ReconState, base: &Knowledge) {
        let unchanged = KnowledgeSummary::Unchanged {
            checksum: knowledge_checksum(base),
        };
        assert!(matches!(
            recon.resolve(local, rid(2), unchanged),
            SummaryOutcome::Resync
        ));
    }

    #[test]
    fn delta_resolves_in_place_to_the_targets_knowledge() {
        let v = |c| Version::new(rid(7), c);
        let (local, mut recon, base) = source_caching(&[v(1), v(2), v(5)]);
        let mut current = base.clone();
        let learned = vec![v(3), v(9), v(4)];
        for &version in &learned {
            current.insert(version);
        }
        let summary = KnowledgeSummary::Delta {
            base_checksum: knowledge_checksum(&base),
            checksum: knowledge_checksum(&current),
            learned,
        };
        match recon.resolve(&local, rid(2), summary) {
            SummaryOutcome::Resolved { knowledge, totals } => {
                assert_eq!(knowledge, current);
                assert_eq!(totals, Some(KnowledgeTotals::of(&current)));
            }
            other => panic!("delta did not resolve: {other:?}"),
        }
        // Resolving took the copy; without a commit it stays gone.
        assert_cache_dropped(&local, &mut recon, &current);
    }

    #[test]
    fn delta_on_a_stale_base_with_a_colliding_checksum_drops_the_cache() {
        // The copy's label says "prefix 3" but its content is prefix 2 —
        // what a checksum collision between two bases would look like.
        let v = |c| Version::new(rid(7), c);
        let (mut claimed, mut held) = (Knowledge::new(), Knowledge::new());
        claimed.insert_prefix(rid(7), 3);
        held.insert_prefix(rid(7), 2);
        let local = host(1, "a");
        let mut recon = ReconState::new();
        recon.commit_peer(rid(2), Some((held, KnowledgeTotals::of(&claimed))), 0, None);
        let mut current = claimed.clone();
        current.insert(v(4));
        let summary = KnowledgeSummary::Delta {
            base_checksum: knowledge_checksum(&claimed),
            checksum: knowledge_checksum(&current),
            learned: vec![v(4)],
        };
        assert!(matches!(
            recon.resolve(&local, rid(2), summary),
            SummaryOutcome::Resync
        ));
        assert_cache_dropped(&local, &mut recon, &claimed);
    }

    #[test]
    fn hostile_learned_versions_drop_the_cache_without_panicking() {
        let v = |c| Version::new(rid(7), c);
        let (local, mut recon, base) = source_caching(&[v(1), v(2)]);
        let summary = KnowledgeSummary::Delta {
            base_checksum: knowledge_checksum(&base),
            checksum: knowledge_checksum(&base).wrapping_add(1),
            learned: vec![
                v(u64::MAX),
                v(u64::MAX - 1),
                v(0),
                Version::new(rid(u64::MAX), u64::MAX),
            ],
        };
        assert!(matches!(
            recon.resolve(&local, rid(2), summary),
            SummaryOutcome::Resync
        ));
        assert_cache_dropped(&local, &mut recon, &base);
    }

    #[test]
    fn delta_from_a_truncated_journal_drops_the_cache() {
        // The sender's checksum covers three learned versions but its
        // journal only produced the last two.
        let v = |c| Version::new(rid(7), c);
        let (local, mut recon, base) = source_caching(&[v(1)]);
        let mut current = base.clone();
        for c in [2, 3, 4] {
            current.insert(v(c));
        }
        let summary = KnowledgeSummary::Delta {
            base_checksum: knowledge_checksum(&base),
            checksum: knowledge_checksum(&current),
            learned: vec![v(3), v(4)],
        };
        assert!(matches!(
            recon.resolve(&local, rid(2), summary),
            SummaryOutcome::Resync
        ));
        assert_cache_dropped(&local, &mut recon, &base);
    }

    #[test]
    fn a_poisoned_exchange_resyncs_once_and_reseeds() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut c = host(3, "c");
        let (mut ra, mut rb) = (ReconState::new(), ReconState::new());
        // Every other version is b's: exception-heavy knowledge, against
        // which a one-version delta is the shorter message.
        for i in 0..100u8 {
            a.insert(dest(if i % 2 == 0 { "b" } else { "x" }), vec![i])
                .unwrap();
        }
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 0);
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 1);
        assert_eq!(ra.stats().fallback_rounds, 0);
        // Swap a's copy of b's knowledge for something else under the
        // label b will name, then let b learn a little: its delta lands on
        // a base that already holds the version, and adds up differently.
        c.insert(dest("b"), vec![0]).unwrap();
        let label = b.knowledge_totals();
        let mut wrong = Knowledge::new();
        wrong.insert(Version::new(rid(3), 1));
        ra.commit_peer(rid(2), Some((wrong, label)), 0, None);
        digest_sync(
            &mut c,
            &mut ReconState::new(),
            &mut b,
            &mut ReconState::new(),
            2,
        );
        let report = digest_sync(&mut a, &mut ra, &mut b, &mut rb, 3);
        assert_eq!(ra.stats().fallback_rounds, 1, "the bad delta resynced");
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.transmitted, 0, "b already had everything");
        // The resync re-seeded the copy: the next exchange is a checksum.
        let before = ra.stats().digest_bytes;
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 4);
        assert_eq!(ra.stats().fallback_rounds, 1);
        assert!(ra.stats().digest_bytes - before < 32);
    }

    #[test]
    fn auto_opens_with_full_unless_a_bloom_is_under_half_of_it() {
        // Compact knowledge (one long prefix): the filter would dwarf it.
        let mut compact = host(2, "b");
        for i in 0..200u8 {
            compact.insert(dest("x"), vec![i]).unwrap();
        }
        let (request, _) =
            ReconState::new().build_request(rid(1), &mut compact, RoutingState::empty());
        assert_eq!(request.summary.kind(), "full");
        // Exception-heavy knowledge (every other version of a long run,
        // with large counters): many bytes per version, so ten bits each
        // is under half.
        let mut sparse = host(3, "c");
        let mut origin = host(4000, "d");
        for i in 0..400u32 {
            let to = if i % 2 == 0 { "c" } else { "x" };
            origin.insert(dest(to), i.to_le_bytes().to_vec()).unwrap();
        }
        sync::sync_once(&mut origin, &mut sparse, SimTime::ZERO);
        assert!(sparse.knowledge().exception_count() > 150);
        let (request, _) =
            ReconState::new().build_request(rid(1), &mut sparse, RoutingState::empty());
        assert_eq!(request.summary.kind(), "bloom");
        assert!(2 * wire::encoded_len(&request.summary) < wire::encoded_len(sparse.knowledge()));
    }

    #[test]
    fn version_answer_bitmap_roundtrips() {
        let mut ans = VersionAnswer::new(11);
        for i in [0usize, 3, 7, 10] {
            ans.set_known(i);
        }
        for i in 0..11 {
            assert_eq!(ans.known(i), [0usize, 3, 7, 10].contains(&i));
        }
        assert!(!ans.known(11), "out of range is unknown");
        let rebuilt = VersionAnswer::from_parts(11, ans.bits().to_vec()).unwrap();
        assert_eq!(rebuilt, ans);
        assert!(VersionAnswer::from_parts(11, vec![0u8; 1]).is_none());
    }
}
