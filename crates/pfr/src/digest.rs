//! Digest-mode synchronization: compact set reconciliation in place of
//! full knowledge exchange.
//!
//! Full-mode sync (paper Fig. 4) ships the target's entire [`Knowledge`]
//! — version vector plus exception set — in every request. Under filtered
//! DTN replication the exception set only grows (gaps are permanent, see
//! [`Knowledge`]), so steady-state encounters resend an ever-larger
//! structure the source has mostly seen before. Digest mode replaces the
//! full structure with a summary sized by what *changed*:
//!
//! * [`KnowledgeSummary::Unchanged`] — a checksum (about a dozen bytes)
//!   when nothing changed since the last exchange with this peer.
//! * [`KnowledgeSummary::Delta`] — an invertible sketch ([`recon::Iblt`])
//!   over the knowledge entry set. Both sides cache the previously
//!   exchanged knowledge, so the sketch is sized by the *exact* number of
//!   changed entries; the source subtracts its cached copy and peels the
//!   sketch to recover the target's current knowledge, verified by
//!   checksum.
//! * [`KnowledgeSummary::Bloom`] — first contact, no shared snapshot: a
//!   Bloom filter over the target's known versions. The source screens its
//!   store against the filter; definite misses become candidates
//!   immediately, possible hits are confirmed in one exact
//!   [`VersionQuery`] round, so false positives cost bandwidth, never
//!   correctness.
//!
//! Every path ends with the source holding a knowledge set that selects
//! *exactly* the candidates full mode would have selected, so digest mode
//! is invisible to delivery metrics. Any mismatch — stale cache,
//! undecodable sketch, corrupt frame — resolves to
//! [`SummaryOutcome::Resync`] and the exchange falls back to a full
//! request: degraded bandwidth, never degraded convergence. Fallbacks are
//! counted in the `recon.fallback_rounds` observability counter.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

use obs::Event;
use recon::hash::key_hash;
use recon::{Bloom, Iblt};

use crate::filter::Filter;
use crate::id::{ReplicaId, Version};
use crate::knowledge::Knowledge;
use crate::replica::Replica;
use crate::sync::{self, RoutingState, SyncExtension, SyncLimits, SyncReport, SyncRequest};
use crate::time::SimTime;
use crate::wire;

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
    /// Cheapest sound summary: checksum when unchanged, exact-sized IBLT
    /// delta when a shared snapshot exists, and on first contact whichever
    /// of Bloom / full knowledge encodes smaller.
    #[default]
    Auto,
    /// Always summarize with a Bloom filter when the version set is
    /// enumerable (first contact *and* repeat encounters). Exercises the
    /// false-positive query round.
    ForceBloom,
    /// Always send an IBLT delta when a snapshot exists (even when a full
    /// structure would be smaller); full knowledge otherwise.
    ForceIblt,
    /// Never summarize: full knowledge inside the digest framing.
    ForceFull,
}

/// Replica ids above this cannot be packed into sketch keys (they need
/// the tag bit); knowledge mentioning them always travels as
/// [`KnowledgeSummary::Full`].
pub const MAX_DIGEST_REPLICA: u64 = (1 << 63) - 1;

/// Seed for the order-independent knowledge checksum.
const CHECKSUM_SEED: u64 = 0x5afe_c0de_0213_7717;

/// Default Bloom filter density (bits per known version): ~1% false
/// positives, each costing one entry in the exact query round.
const BLOOM_BITS_PER_ITEM: u32 = 10;

/// Largest enumerable version set a Bloom summary will be built over.
/// Beyond this, first contact sends full knowledge (which is compact
/// precisely when the version count is dominated by vector prefixes).
const BLOOM_MAX_VERSIONS: u64 = 4096;

/// Packs one knowledge entry — a vector watermark or an exception — into
/// a 128-bit sketch key: high word `replica << 1 | is_exception`, low
/// word the counter. The tag rides in the *low* bit of the high word so
/// vector keys of small replicas encode as short varints.
fn entry_key(replica: ReplicaId, counter: u64, exception: bool) -> u128 {
    let hi = (replica.as_u64() << 1) | exception as u64;
    ((hi as u128) << 64) | counter as u128
}

/// Sketch key for one concrete version (Bloom membership universe).
fn version_key(v: Version) -> u128 {
    entry_key(v.replica(), v.counter(), false)
}

/// Inverse of [`entry_key`]: `(replica, counter, is_exception)`.
fn key_entry(key: u128) -> (ReplicaId, u64, bool) {
    let hi = (key >> 64) as u64;
    (ReplicaId::new(hi >> 1), key as u64, hi & 1 == 1)
}

/// The knowledge entry set as sketch keys: one key per vector entry, one
/// per exception. Exact and canonical — two equal `Knowledge` values
/// yield the same key set, two different ones differ.
fn knowledge_entry_keys(k: &Knowledge) -> impl Iterator<Item = u128> + '_ {
    k.vector_entries()
        .map(|(r, c)| entry_key(r, c, false))
        .chain(
            k.exceptions()
                .map(|v| entry_key(v.replica(), v.counter(), true)),
        )
}

/// Whether every replica id in `k` fits the packed key layout.
fn digest_capable(k: &Knowledge) -> bool {
    k.vector_entries()
        .all(|(r, _)| r.as_u64() <= MAX_DIGEST_REPLICA)
        && k.exceptions()
            .all(|v| v.replica().as_u64() <= MAX_DIGEST_REPLICA)
}

/// Order-independent checksum of a knowledge entry set. Used as the delta
/// cache key (`base_checksum`) and as the post-peel reconstruction check;
/// a collision costs one fallback round, never correctness of delivery.
pub fn knowledge_checksum(k: &Knowledge) -> u64 {
    knowledge_entry_keys(k).fold(0u64, |acc, key| {
        acc.wrapping_add(key_hash(key, CHECKSUM_SEED))
    })
}

/// Rebuilds a `Knowledge` from an exact entry-key set.
fn knowledge_from_keys<I: IntoIterator<Item = u128>>(keys: I) -> Knowledge {
    let mut k = Knowledge::new();
    let mut exceptions = Vec::new();
    for key in keys {
        let (replica, counter, exception) = key_entry(key);
        if exception {
            exceptions.push(Version::new(replica, counter));
        } else {
            k.insert_prefix(replica, counter);
        }
    }
    for v in exceptions {
        k.insert(v);
    }
    k
}

/// Exact symmetric-difference size between two knowledge entry sets —
/// what lets delta sketches be sized precisely instead of estimated.
fn entry_diff_count(a: &Knowledge, b: &Knowledge) -> usize {
    let sa: BTreeSet<u128> = knowledge_entry_keys(a).collect();
    let sb: BTreeSet<u128> = knowledge_entry_keys(b).collect();
    sa.symmetric_difference(&sb).count()
}

/// Compact stand-in for a [`Knowledge`] structure in a [`DigestRequest`].
#[derive(Clone, Debug, PartialEq)]
pub enum KnowledgeSummary {
    /// The complete structure: first contact with a large enumerable
    /// set, oversized deltas, incompatible replica ids, or
    /// [`DigestPolicy::ForceFull`].
    Full(Knowledge),
    /// Nothing changed since the last exchange with this peer; `checksum`
    /// lets the source confirm its cached copy is the referenced one.
    Unchanged {
        /// Checksum of the (unchanged) knowledge entry set.
        checksum: u64,
    },
    /// Invertible sketch of the current entry set, to be subtracted
    /// against the peer's cached copy of the previous set and peeled.
    Delta {
        /// Checksum of the previously exchanged knowledge (cache key; a
        /// mismatch means the peer lost or never had the snapshot).
        base_checksum: u64,
        /// Checksum of the current knowledge, verified after
        /// reconstruction.
        checksum: u64,
        /// The sketch, sized for the exact entry difference.
        iblt: Iblt,
    },
    /// First contact without a shared snapshot: membership filter over
    /// every individually known version.
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
pub struct DigestRequest {
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
    pub routing: RoutingState,
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
    /// The target's knowledge — exact for full/unchanged/delta summaries,
    /// a sound conservative subset for resolved Bloom rounds. Proceed
    /// exactly like a full-mode request.
    Resolved(Knowledge),
    /// Bloom screening needs one exact round before candidates are known.
    NeedVersions(VersionQuery),
    /// The summary references state this side does not hold, or a sketch
    /// failed to peel: request a full exchange instead.
    Resync,
}

/// What this side last sent to (or heard from) one peer.
#[derive(Clone, Debug, Default)]
struct PeerRecon {
    /// Summaries built for this peer; salts successive sketch seeds so a
    /// peel failure never repeats with the same cell assignment.
    epoch: u64,
    /// The knowledge this replica last summarized to the peer, with its
    /// checksum (target role: the base the next delta diffs against).
    sent: Option<(Knowledge, u64)>,
    /// Filter fingerprint the peer has acknowledged (target role: when it
    /// matches the current filter, the filter is elided from requests).
    sent_filter_fp: Option<u64>,
    /// The peer's knowledge as of the last exchange, with its checksum
    /// (source role: the base the next received delta subtracts).
    peer_knowledge: Option<(Knowledge, u64)>,
    /// The peer's filter as last received, keyed by fingerprint (source
    /// role: reused when the peer elides it).
    peer_filter: Option<(u64, Filter)>,
}

/// One summarized-but-not-yet-committed exchange (returned by
/// [`ReconState::build_request`], consumed by [`ReconState::commit_sent`]
/// once the sync succeeds — a failed or corrupted exchange must not
/// advance the snapshot cache).
#[derive(Clone, Debug)]
pub struct PendingExchange {
    peer: ReplicaId,
    knowledge: Knowledge,
    checksum: u64,
    filter_fp: u64,
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

/// Per-replica digest-mode state: the policy knobs plus, per peer, the
/// cached snapshots that make exact deltas possible.
///
/// Caches advance only on [`ReconState::commit_sent`] /
/// [`ReconState::commit_peer`], which callers invoke after the exchange
/// succeeds end to end; anything that dies mid-flight leaves both sides
/// on the old (still mutually consistent) snapshot.
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

    /// **Target role.** Summarizes a full-mode request into a
    /// [`DigestRequest`] for `peer`, choosing the cheapest sound summary
    /// the policy allows. Also returns the [`PendingExchange`] to commit
    /// once the sync succeeds.
    pub fn build_request(
        &mut self,
        peer: ReplicaId,
        request: &SyncRequest<'_>,
    ) -> (DigestRequest, PendingExchange) {
        let knowledge = request.knowledge.as_ref();
        let checksum = knowledge_checksum(knowledge);
        let filter_fp = request.filter.fingerprint();
        let record = self.peers.entry(peer).or_default();
        record.epoch += 1;
        let seed = key_hash(
            ((request.target.as_u64() as u128) << 64) | peer.as_u64() as u128,
            0x1db7_c0de ^ record.epoch,
        );

        let summary = if self.policy == DigestPolicy::ForceFull || !digest_capable(knowledge) {
            KnowledgeSummary::Full(knowledge.clone())
        } else if self.policy == DigestPolicy::ForceBloom {
            bloom_summary(
                knowledge,
                self.bloom_bits_per_item,
                self.bloom_max_versions,
                seed,
            )
            .unwrap_or_else(|| KnowledgeSummary::Full(knowledge.clone()))
        } else if let Some((sent, sent_checksum)) = &record.sent {
            if sent == knowledge {
                KnowledgeSummary::Unchanged { checksum }
            } else {
                let d = entry_diff_count(knowledge, sent);
                let mut iblt = Iblt::for_expected_diff(d, seed);
                for key in knowledge_entry_keys(knowledge) {
                    iblt.insert(key);
                }
                // Auto falls back to the full structure when the sketch
                // would not actually be smaller (huge deltas relative to
                // the knowledge itself).
                if self.policy == DigestPolicy::Auto
                    && iblt.encoded_len() >= wire::to_bytes(knowledge).len()
                {
                    KnowledgeSummary::Full(knowledge.clone())
                } else {
                    KnowledgeSummary::Delta {
                        base_checksum: *sent_checksum,
                        checksum,
                        iblt,
                    }
                }
            }
        } else {
            // First contact. A Bloom is worth sending only when the
            // version set is enumerable and the filter encodes smaller
            // than the knowledge it stands in for.
            match self.policy {
                DigestPolicy::ForceIblt => KnowledgeSummary::Full(knowledge.clone()),
                _ => bloom_summary(
                    knowledge,
                    self.bloom_bits_per_item,
                    self.bloom_max_versions,
                    seed,
                )
                .filter(|s| match s {
                    KnowledgeSummary::Bloom { bloom, .. } => {
                        bloom.encoded_len() < wire::to_bytes(knowledge).len()
                    }
                    _ => false,
                })
                .unwrap_or_else(|| KnowledgeSummary::Full(knowledge.clone())),
            }
        };

        let filter = if record.sent_filter_fp == Some(filter_fp) {
            None
        } else {
            Some(request.filter.as_ref().clone())
        };
        let digest = DigestRequest {
            target: request.target,
            summary,
            filter_fingerprint: filter_fp,
            filter,
            routing: request.routing.clone(),
        };
        let pending = PendingExchange {
            peer,
            knowledge: knowledge.clone(),
            checksum,
            filter_fp,
        };
        (digest, pending)
    }

    /// **Target role.** Commits a successful exchange: the peer now holds
    /// this snapshot, so the next summary can delta against it.
    /// `knowledge_shared` says whether the exchange actually conveyed the
    /// exact knowledge set (full/unchanged/delta paths, and fallbacks
    /// that retransmitted the full request) — Bloom rounds convey a lossy
    /// view and must not seed the delta cache.
    pub fn commit_sent(&mut self, pending: PendingExchange, knowledge_shared: bool) {
        let record = self.peers.entry(pending.peer).or_default();
        if knowledge_shared {
            record.sent = Some((pending.knowledge, pending.checksum));
        }
        record.sent_filter_fp = Some(pending.filter_fp);
    }

    /// **Source role.** The target's filter for this request: carried
    /// inline, or recalled from the cache by fingerprint. `None` means
    /// the peer elided a filter this side never saw — a protocol desync
    /// that must resolve as [`SummaryOutcome::Resync`].
    pub fn effective_filter(&self, peer: ReplicaId, request: &DigestRequest) -> Option<Filter> {
        if let Some(f) = &request.filter {
            return Some(f.clone());
        }
        self.peers.get(&peer).and_then(|r| {
            r.peer_filter
                .as_ref()
                .filter(|(fp, _)| *fp == request.filter_fingerprint)
                .map(|(_, f)| f.clone())
        })
    }

    /// **Source role.** Resolves a summary against the cached snapshot
    /// and (for Bloom) the local store. Never fails hard: anything that
    /// cannot be resolved exactly comes back as
    /// [`SummaryOutcome::Resync`].
    pub fn resolve(
        &self,
        local: &Replica,
        peer: ReplicaId,
        summary: &KnowledgeSummary,
    ) -> SummaryOutcome {
        match summary {
            KnowledgeSummary::Full(k) => SummaryOutcome::Resolved(k.clone()),
            KnowledgeSummary::Unchanged { checksum } => {
                match self
                    .peers
                    .get(&peer)
                    .and_then(|r| r.peer_knowledge.as_ref())
                {
                    Some((cached, cached_sum)) if cached_sum == checksum => {
                        SummaryOutcome::Resolved(cached.clone())
                    }
                    _ => SummaryOutcome::Resync,
                }
            }
            KnowledgeSummary::Delta {
                base_checksum,
                checksum,
                iblt,
            } => {
                let Some((cached, cached_sum)) = self
                    .peers
                    .get(&peer)
                    .and_then(|r| r.peer_knowledge.as_ref())
                else {
                    return SummaryOutcome::Resync;
                };
                if cached_sum != base_checksum {
                    return SummaryOutcome::Resync;
                }
                // Rebuild the peer's previous entry set under the sketch's
                // own geometry (seed and cell count ride in its encoding),
                // subtract, and peel what remains: the exact entry-level
                // symmetric difference.
                let mut local_sketch = Iblt::with_cells(iblt.cells(), iblt.seed());
                for key in knowledge_entry_keys(cached) {
                    local_sketch.insert(key);
                }
                let Ok(sub) = iblt.subtract(&local_sketch) else {
                    return SummaryOutcome::Resync;
                };
                let Ok(diff) = sub.decode() else {
                    return SummaryOutcome::Resync;
                };
                let mut keys: BTreeSet<u128> = knowledge_entry_keys(cached).collect();
                for key in &diff.only_remote {
                    if !keys.remove(key) {
                        return SummaryOutcome::Resync;
                    }
                }
                for key in &diff.only_local {
                    if !keys.insert(*key) {
                        return SummaryOutcome::Resync;
                    }
                }
                let rebuilt = knowledge_from_keys(keys);
                if knowledge_checksum(&rebuilt) != *checksum {
                    return SummaryOutcome::Resync;
                }
                SummaryOutcome::Resolved(rebuilt)
            }
            KnowledgeSummary::Bloom { bloom, .. } => {
                // Screen every stored current version. Definite misses
                // need no confirmation — the filter has no false
                // negatives — so only possible hits go to the query round.
                let uncertain: Vec<Version> = local
                    .stored_versions()
                    .filter(|&v| bloom.contains(version_key(v)))
                    .collect();
                if uncertain.is_empty() {
                    SummaryOutcome::Resolved(Knowledge::new())
                } else {
                    SummaryOutcome::NeedVersions(VersionQuery {
                        versions: uncertain,
                    })
                }
            }
        }
    }

    /// **Source role.** Commits a successful exchange: caches the
    /// target's filter, and — when the exchange conveyed it exactly —
    /// the target's knowledge for the next delta round.
    pub fn commit_peer(
        &mut self,
        peer: ReplicaId,
        knowledge: Option<Knowledge>,
        filter_fp: u64,
        filter: &Filter,
    ) {
        let record = self.peers.entry(peer).or_default();
        if let Some(k) = knowledge {
            let sum = knowledge_checksum(&k);
            record.peer_knowledge = Some((k, sum));
        }
        if record.peer_filter.as_ref().map(|(fp, _)| *fp) != Some(filter_fp) {
            record.peer_filter = Some((filter_fp, filter.clone()));
        }
    }
}

/// Builds a Bloom summary over `knowledge`'s version set, or `None` when
/// the set is too large to enumerate.
fn bloom_summary(
    knowledge: &Knowledge,
    bits_per_item: u32,
    max_versions: u64,
    seed: u64,
) -> Option<KnowledgeSummary> {
    let version_count = knowledge.version_count();
    if version_count > max_versions {
        return None;
    }
    let mut bloom = Bloom::for_items(version_count as usize, bits_per_item, seed);
    for (replica, base) in knowledge.vector_entries() {
        for counter in 1..=base {
            bloom.insert(entry_key(replica, counter, false));
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
/// the snapshot caches. Delivery behaviour is identical to
/// [`sync::sync_with`] — same candidates, same batch, same events — plus
/// one [`Event::ReconDigest`] accounting the metadata bytes both modes
/// would have spent.
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
    let full_request = sync::begin_sync(target, target_ext, now, Some(source_id)).into_owned();
    let full_bytes = wire::to_bytes(&full_request).len() as u64;
    let (digest_request, pending) = target_recon.build_request(source_id, &full_request);
    let mut digest_bytes = wire::to_bytes(&digest_request).len() as u64;
    let mut fallback_rounds = 0u64;
    let mut false_positives = 0u64;
    let mut kind = digest_request.summary.kind();

    let outcome = match source_recon.effective_filter(target_id, &digest_request) {
        Some(_) => source_recon.resolve(source, target_id, &digest_request.summary),
        None => SummaryOutcome::Resync,
    };

    // The knowledge the source will have exchanged exactly (and may
    // therefore cache for the next delta); `None` on Bloom rounds.
    let mut source_cache: Option<Knowledge> = None;
    let request: SyncRequest<'static> = match outcome {
        SummaryOutcome::Resolved(knowledge) => {
            if kind != "bloom" {
                source_cache = Some(knowledge.clone());
            }
            let filter = source_recon
                .effective_filter(target_id, &digest_request)
                .expect("filter resolved above");
            SyncRequest {
                target: target_id,
                knowledge: Cow::Owned(knowledge),
                filter: Cow::Owned(filter),
                routing: digest_request.routing.clone(),
            }
        }
        SummaryOutcome::NeedVersions(query) => {
            fallback_rounds += 1;
            digest_bytes += wire::to_bytes(&query).len() as u64;
            let answer = answer_query(target.knowledge(), &query);
            digest_bytes += wire::to_bytes(&answer).len() as u64;
            let (known, fps) =
                knowledge_from_answer(&query, &answer).expect("answer sized to query");
            false_positives = fps;
            let filter = source_recon
                .effective_filter(target_id, &digest_request)
                .expect("filter resolved above");
            SyncRequest {
                target: target_id,
                knowledge: Cow::Owned(known),
                filter: Cow::Owned(filter),
                routing: digest_request.routing.clone(),
            }
        }
        SummaryOutcome::Resync => {
            // Full retransmission: one resync byte on the wire, then the
            // plain request. Counted against digest mode — fallbacks are
            // its cost, not full mode's.
            fallback_rounds += 1;
            kind = "full";
            digest_bytes += 1 + full_bytes;
            source_cache = Some(full_request.knowledge.as_ref().clone());
            full_request.clone()
        }
    };

    source.observer().emit(|| Event::ReconDigest {
        replica: source_id.as_u64(),
        peer: target_id.as_u64(),
        kind,
        digest_bytes,
        full_bytes,
        fallback_rounds,
        false_positives,
    });
    source_recon.note_exchange(digest_bytes, full_bytes, fallback_rounds, false_positives);

    let batch = sync::prepare_batch(source, source_ext, &request, limits, now);
    let (report, spent_entries) = sync::apply_batch_recycling(target, target_ext, batch, now);
    source.recycle_batch_entries(spent_entries);

    // Both ends saw the exchange succeed: advance the snapshot caches in
    // lockstep (Bloom rounds advance only the filter caches).
    let knowledge_shared = kind != "bloom";
    target_recon.commit_sent(pending, knowledge_shared);
    let filter_fp = digest_request.filter_fingerprint;
    source_recon.commit_peer(target_id, source_cache, filter_fp, request.filter.as_ref());
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
    fn entry_keys_roundtrip_and_checksum_is_order_free() {
        let r = rid(9);
        let mut k = Knowledge::new();
        k.insert_prefix(r, 5);
        k.insert(Version::new(r, 9));
        k.insert(Version::new(rid(3), 2));
        let keys: Vec<u128> = knowledge_entry_keys(&k).collect();
        let rebuilt = knowledge_from_keys(keys.iter().rev().copied());
        assert_eq!(rebuilt, k);
        assert_eq!(knowledge_checksum(&rebuilt), knowledge_checksum(&k));
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
        assert_eq!(ra.stats().fallback_rounds, 0, "delta must peel cleanly");
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
    fn huge_replica_ids_force_full_summaries() {
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
