//! Digest-mode synchronization: a repeat exchange costs what was learned
//! since the last one.
//!
//! Full-mode sync (paper Fig. 4) ships the target's entire [`Knowledge`]
//! — version vector plus exception set — in every request. Under filtered
//! DTN replication the exception set only grows (gaps are permanent, see
//! [`Knowledge`]), so steady-state encounters resend an ever-larger
//! structure the source has mostly seen before. Knowledge is also
//! *monotone*: a replica only learns versions, in an order its learning
//! journal records. So the target remembers, per peer, the journal
//! position and checksum of what it last conveyed, the source keeps one
//! copy of that knowledge, and a request carries:
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
//!
//! Every summary resolves to the target's exact knowledge, so the source
//! selects *exactly* the candidates full mode would have selected and
//! digest mode is invisible to delivery metrics; a session is a request
//! and a batch, as in full mode. Any mismatch — lost or stale copy,
//! corrupt frame — resolves to [`SummaryOutcome::Resync`] and the exchange
//! falls back to a full request: degraded bandwidth, never degraded
//! convergence. Fallbacks are counted in the `recon.fallback_rounds`
//! observability counter.
//!
//! This module holds the summaries and the per-peer state behind them;
//! [`crate::exchange`] runs them as the two halves of a sync.

use std::collections::HashMap;

use crate::filter::Filter;
use crate::id::{ReplicaId, Version};
use crate::journal::KnowledgeTotals;
use crate::knowledge::Knowledge;
use crate::replica::Replica;
use crate::sync::RoutingState;
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
    /// Cheapest sound summary: checksum when unchanged, the learned
    /// versions when that is shorter than the knowledge, else the
    /// knowledge itself.
    #[default]
    Auto,
    /// Always send a delta when the journal reaches back to the last
    /// exchange (even when the full structure would be smaller); full
    /// knowledge otherwise.
    ForceDelta,
    /// Never summarize: full knowledge inside the digest framing.
    ForceFull,
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
}

impl KnowledgeSummary {
    /// Short stable label for observability: "full", "unchanged" or
    /// "delta".
    pub fn kind(&self) -> &'static str {
        match self {
            KnowledgeSummary::Full(_) => "full",
            KnowledgeSummary::Unchanged { .. } => "unchanged",
            KnowledgeSummary::Delta { .. } => "delta",
        }
    }
}

/// Digest-mode replacement for [`SyncRequest`](crate::sync::SyncRequest):
/// same target identity and routing state, but knowledge travels as a
/// [`KnowledgeSummary`] and the filter is elided once the peer has
/// acknowledged it by fingerprint.
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

/// What a [`KnowledgeSummary`] resolved to on the source side.
#[derive(Clone, Debug)]
pub enum SummaryOutcome {
    /// Knowledge to select candidates against, exactly as for a full-mode
    /// request.
    Resolved {
        /// The target's exact knowledge.
        knowledge: Knowledge,
        /// Totals of `knowledge`, cached with it for the next exchange
        /// ([`ReconState::commit_peer`]).
        totals: KnowledgeTotals,
    },
    /// The summary references state this side does not hold, or did not
    /// reproduce the target's checksum: request a full exchange instead.
    Resync,
}

/// What this side last sent to (or heard from) one peer.
#[derive(Clone, Debug, Default)]
struct PeerRecon {
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
    request_bytes: u64,
}

impl PendingExchange {
    /// The peer the exchange is with.
    pub(crate) fn peer(&self) -> ReplicaId {
        self.peer
    }

    /// Encoded size of the equivalent full-mode request: the bytes full
    /// mode would have spent where the digest went instead.
    pub fn full_bytes(&self) -> u64 {
        self.full_bytes
    }

    /// Encoded size of the digest request it was built with, counted from
    /// the lengths that chose its summary.
    pub fn request_bytes(&self) -> u64 {
        self.request_bytes
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
}

/// Per-replica digest-mode state: the summary policy plus, per peer, what
/// makes exact deltas possible — as target a journal position, as source
/// one copy of the peer's knowledge.
///
/// Both advance only on [`ReconState::commit_sent`] /
/// [`ReconState::commit_peer`], which callers invoke after the exchange
/// succeeds end to end. An exchange that dies mid-flight leaves the
/// target on its old position and the source either on its old copy or —
/// if it had already applied a delta — with none, which the next exchange
/// repairs with one resync round. Never a half-advanced copy.
#[derive(Clone, Debug, Default)]
pub struct ReconState {
    policy: DigestPolicy,
    peers: HashMap<ReplicaId, PeerRecon>,
    stats: ReconStats,
}

impl ReconState {
    /// Digest state with the default [`DigestPolicy::Auto`] policy.
    pub fn new() -> Self {
        ReconState::default()
    }

    /// Digest state pinned to one summary policy.
    pub fn with_policy(policy: DigestPolicy) -> Self {
        ReconState {
            policy,
            ..ReconState::new()
        }
    }

    /// Cumulative digest counters for this replica.
    pub fn stats(&self) -> ReconStats {
        self.stats
    }

    /// Folds one completed exchange into [`ReconState::stats`].
    pub fn note_exchange(&mut self, digest_bytes: u64, full_bytes: u64, fallback_rounds: u64) {
        self.stats.exchanges += 1;
        self.stats.digest_bytes += digest_bytes;
        self.stats.full_bytes += full_bytes;
        self.stats.fallback_rounds += fallback_rounds;
    }

    /// Drops all per-peer snapshots (a restart that loses digest state;
    /// the next exchange with every peer re-seeds with a full summary).
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
        // A delta is compared against this.
        let full_len = 1 + totals.encoded_len(knowledge);
        let record = self.peers.entry(peer).or_default();
        // The summary and its encoded length, decided before anything is
        // copied: only the summary that wins is built.
        let (summary, summary_len) = match (self.policy, record.sent) {
            // First contact, or never summarize.
            (DigestPolicy::ForceFull, _) | (_, None) => None,
            (_, Some((sent_position, sent_checksum))) if sent_position == position => {
                // Equal positions of one journal are equal knowledge; the
                // checksum tells a position from before a restore apart.
                (sent_checksum == checksum)
                    .then_some((KnowledgeSummary::Unchanged { checksum }, 1 + 8))
            }
            (policy, Some((sent_position, sent_checksum))) => target
                .learned_since(sent_position)
                .map(|learned| (learned, wire::delta_summary_len(learned)))
                .filter(|&(_, len)| policy == DigestPolicy::ForceDelta || len < full_len)
                .map(|(learned, len)| {
                    let delta = KnowledgeSummary::Delta {
                        base_checksum: sent_checksum,
                        checksum,
                        learned: learned.to_vec(),
                    };
                    (delta, len)
                }),
        }
        .unwrap_or_else(|| (KnowledgeSummary::Full(knowledge.clone()), full_len));

        let filter = (record.sent_filter_fp != Some(filter_fp)).then(|| target.filter().clone());
        let request_len = wire::digest_request_len(
            target.id(),
            summary_len,
            filter.as_ref().map(|_| filter_len),
            &routing,
        );
        let pending = PendingExchange {
            peer,
            position,
            checksum,
            filter_fp,
            full_bytes: wire::sync_request_len(target.id(), full_len - 1, filter_len, &routing)
                as u64,
            request_bytes: request_len as u64,
        };
        let digest = DigestRequest {
            target: target.id(),
            summary,
            filter_fingerprint: filter_fp,
            filter,
            routing,
        };
        debug_assert_eq!(
            request_len,
            wire::encoded_len(&digest),
            "miscounted request"
        );
        (digest, pending)
    }

    /// **Target role.** Commits a successful exchange: the peer now holds
    /// the knowledge as of this journal position, so the next summary can
    /// start from it.
    pub fn commit_sent(&mut self, pending: PendingExchange) {
        let record = self.peers.entry(pending.peer).or_default();
        record.sent = Some((pending.position, pending.checksum));
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
    /// peer's knowledge. Never fails hard: anything that cannot be
    /// resolved exactly comes back as [`SummaryOutcome::Resync`].
    ///
    /// Unchanged and delta summaries *take* the cached copy — a delta is
    /// applied to it in place — and hand it back in the outcome; only
    /// [`ReconState::commit_peer`] restores it. A copy that fails its
    /// checksum is dropped here, so a bad delta can never poison later
    /// exchanges: the next one resynchronizes and re-seeds it.
    pub fn resolve(&mut self, peer: ReplicaId, summary: KnowledgeSummary) -> SummaryOutcome {
        let mut cached = || self.peers.get_mut(&peer)?.peer_knowledge.take();
        let exact = |(knowledge, totals)| SummaryOutcome::Resolved { knowledge, totals };
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
        }
    }

    /// **Source role.** Commits a successful exchange: caches the target's
    /// knowledge for the next delta, and the filter the target sent inline
    /// (if it is new).
    pub fn commit_peer(
        &mut self,
        peer: ReplicaId,
        knowledge: (Knowledge, KnowledgeTotals),
        filter_fp: u64,
        inline_filter: Option<&Filter>,
    ) {
        let record = self.peers.entry(peer).or_default();
        record.peer_knowledge = Some(knowledge);
        if let Some(filter) = inline_filter {
            if record.peer_filter.as_ref().map(|(fp, _)| *fp) != Some(filter_fp) {
                record.peer_filter = Some((filter_fp, filter.clone()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttributeMap;
    use crate::exchange::{self, Pull, Reply};
    use crate::sync::{self, NoExtension, SyncLimits, SyncReport};
    use crate::time::SimTime;

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

    /// One digest-mode sync in which `target` pulls from `source`: the
    /// production halves, with the messages handed across in memory.
    fn digest_sync(
        source: &mut Replica,
        source_recon: &mut ReconState,
        target: &mut Replica,
        target_recon: &mut ReconState,
        at: u64,
    ) -> SyncReport {
        let (now, limits) = (SimTime::from_secs(at), SyncLimits::unlimited());
        let (mut source_ext, mut target_ext) = (NoExtension, NoExtension);
        let (mut pull, request) = Pull::open(
            target,
            &mut target_ext,
            target_recon,
            SyncMode::Digest,
            source.id(),
            now,
        );
        let reply = exchange::serve(source, &mut source_ext, source_recon, request, limits, now);
        let batch = match reply {
            Reply::Batch(batch) => batch,
            Reply::Resync => {
                let request = pull.resync(target).expect("a digest pull resyncs once");
                exchange::serve_resync(source, &mut source_ext, source_recon, request, limits, now)
            }
        };
        pull.finish(target, &mut target_ext, target_recon, batch, now)
            .0
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
        // First contact seeds the snapshot caches with a full summary.
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 0);
        // Nothing changed: the second exchange must be "unchanged".
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 1);
        assert_eq!(rb.stats().exchanges, 2);
        assert_eq!(rb.stats().fallback_rounds, 0);
        // b's knowledge changed a little (new items from c): delta path.
        for i in 0..4u8 {
            c.insert(dest("b"), vec![i]).unwrap();
        }
        digest_sync(&mut c, &mut rc_a, &mut b, &mut rc, 2);
        let before = rb.stats().digest_bytes;
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 3);
        let delta_cost = rb.stats().digest_bytes - before;
        assert_eq!(rb.stats().fallback_rounds, 0, "delta must apply cleanly");
        // The delta must be far cheaper than resending 200+ versions of
        // knowledge in full.
        assert!(
            delta_cost < rb.stats().full_bytes / 2,
            "delta {delta_cost}B vs cumulative full {}B",
            rb.stats().full_bytes
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
        let (d0, f0) = (rb.stats().digest_bytes, rb.stats().full_bytes);
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 2);
        let steady = rb.stats().digest_bytes - d0;
        let steady_full = rb.stats().full_bytes - f0;
        assert!(
            steady * 4 < steady_full,
            "unchanged summary {steady}B vs full request {steady_full}B"
        );
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
        assert_eq!(rb.stats().fallback_rounds, 1, "resync round taken");
        assert_eq!(report.duplicates, 0);
        // And the fallback re-seeded the caches: next round is cheap again.
        let before = rb.stats().digest_bytes;
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 2);
        assert!(rb.stats().digest_bytes - before < 64);
        assert_eq!(rb.stats().fallback_rounds, 1);
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
        assert_eq!(rb.stats().fallback_rounds, 0);
        assert_eq!(b.item_count(), 2);
        // full, then the delta carrying what the first batch taught b,
        // then nothing left to say.
        let before = rb.stats().digest_bytes;
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 3);
        assert!(rb.stats().digest_bytes - before < 32, "unchanged summary");
    }

    /// A source-side harness for resolving hand-made summaries: a
    /// `ReconState` whose copy of peer 2's knowledge is `base`, and `base`
    /// itself.
    fn source_caching(base_versions: &[Version]) -> (ReconState, Knowledge) {
        let mut base = Knowledge::new();
        for &v in base_versions {
            base.insert(v);
        }
        let mut recon = ReconState::new();
        recon.commit_peer(rid(2), (base.clone(), KnowledgeTotals::of(&base)), 0, None);
        (recon, base)
    }

    /// After a failed delta the copy must be gone: even a summary naming
    /// the untouched base no longer resolves.
    fn assert_cache_dropped(recon: &mut ReconState, base: &Knowledge) {
        let unchanged = KnowledgeSummary::Unchanged {
            checksum: knowledge_checksum(base),
        };
        assert!(matches!(
            recon.resolve(rid(2), unchanged),
            SummaryOutcome::Resync
        ));
    }

    #[test]
    fn delta_resolves_in_place_to_the_targets_knowledge() {
        let v = |c| Version::new(rid(7), c);
        let (mut recon, base) = source_caching(&[v(1), v(2), v(5)]);
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
        match recon.resolve(rid(2), summary) {
            SummaryOutcome::Resolved { knowledge, totals } => {
                assert_eq!(knowledge, current);
                assert_eq!(totals, KnowledgeTotals::of(&current));
            }
            other => panic!("delta did not resolve: {other:?}"),
        }
        // Resolving took the copy; without a commit it stays gone.
        assert_cache_dropped(&mut recon, &current);
    }

    #[test]
    fn delta_on_a_stale_base_with_a_colliding_checksum_drops_the_cache() {
        // The copy's label says "prefix 3" but its content is prefix 2 —
        // what a checksum collision between two bases would look like.
        let v = |c| Version::new(rid(7), c);
        let (mut claimed, mut held) = (Knowledge::new(), Knowledge::new());
        claimed.insert_prefix(rid(7), 3);
        held.insert_prefix(rid(7), 2);
        let mut recon = ReconState::new();
        recon.commit_peer(rid(2), (held, KnowledgeTotals::of(&claimed)), 0, None);
        let mut current = claimed.clone();
        current.insert(v(4));
        let summary = KnowledgeSummary::Delta {
            base_checksum: knowledge_checksum(&claimed),
            checksum: knowledge_checksum(&current),
            learned: vec![v(4)],
        };
        assert!(matches!(
            recon.resolve(rid(2), summary),
            SummaryOutcome::Resync
        ));
        assert_cache_dropped(&mut recon, &claimed);
    }

    #[test]
    fn hostile_learned_versions_drop_the_cache_without_panicking() {
        let v = |c| Version::new(rid(7), c);
        let (mut recon, base) = source_caching(&[v(1), v(2)]);
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
            recon.resolve(rid(2), summary),
            SummaryOutcome::Resync
        ));
        assert_cache_dropped(&mut recon, &base);
    }

    #[test]
    fn delta_from_a_truncated_journal_drops_the_cache() {
        // The sender's checksum covers three learned versions but its
        // journal only produced the last two.
        let v = |c| Version::new(rid(7), c);
        let (mut recon, base) = source_caching(&[v(1)]);
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
            recon.resolve(rid(2), summary),
            SummaryOutcome::Resync
        ));
        assert_cache_dropped(&mut recon, &base);
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
        assert_eq!(rb.stats().fallback_rounds, 0);
        // Swap a's copy of b's knowledge for something else under the
        // label b will name, then let b learn a little: its delta lands on
        // a base that already holds the version, and adds up differently.
        c.insert(dest("b"), vec![0]).unwrap();
        let label = b.knowledge_totals();
        let mut wrong = Knowledge::new();
        wrong.insert(Version::new(rid(3), 1));
        ra.commit_peer(rid(2), (wrong, label), 0, None);
        digest_sync(
            &mut c,
            &mut ReconState::new(),
            &mut b,
            &mut ReconState::new(),
            2,
        );
        let report = digest_sync(&mut a, &mut ra, &mut b, &mut rb, 3);
        assert_eq!(rb.stats().fallback_rounds, 1, "the bad delta resynced");
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.transmitted, 0, "b already had everything");
        // The resync re-seeded the copy: the next exchange is a checksum.
        let before = rb.stats().digest_bytes;
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 4);
        assert_eq!(rb.stats().fallback_rounds, 1);
        assert!(rb.stats().digest_bytes - before < 32);
    }

    #[test]
    fn an_exception_heavy_first_contact_opens_with_full_then_summarizes() {
        // Exception-heavy knowledge (every other version of a long run,
        // with large counters): the shape a summary vector was once meant
        // to undercut. First contact still sends it whole.
        let mut sparse = host(3, "c");
        let mut origin = host(4000, "d");
        for i in 0..400u32 {
            let to = if i % 2 == 0 { "c" } else { "x" };
            origin.insert(dest(to), i.to_le_bytes().to_vec()).unwrap();
        }
        sync::sync_once(&mut origin, &mut sparse, SimTime::ZERO);
        assert!(sparse.knowledge().exception_count() > 150);
        let (mut rs, mut ra) = (ReconState::new(), ReconState::new());
        let mut a = host(1, "a");
        let (request, pending) = rs.build_request(rid(1), &mut sparse, RoutingState::empty());
        assert_eq!(request.summary.kind(), "full");
        // The full summary seeds the peer's exact copy, so the very next
        // meeting is a checksum, and one after new learning a delta.
        let outcome = ra.resolve(rid(3), request.summary);
        let SummaryOutcome::Resolved { knowledge, totals } = outcome else {
            panic!("a full summary always resolves");
        };
        rs.commit_sent(pending);
        ra.commit_peer(
            rid(3),
            (knowledge, totals),
            request.filter_fingerprint,
            None,
        );
        let (request, _) = rs.build_request(rid(1), &mut sparse, RoutingState::empty());
        assert_eq!(request.summary.kind(), "unchanged");
        assert!(matches!(
            ra.resolve(rid(3), request.summary.clone()),
            SummaryOutcome::Resolved { .. }
        ));
        a.insert(dest("c"), vec![1]).unwrap();
        digest_sync(
            &mut a,
            &mut ReconState::new(),
            &mut sparse,
            &mut ReconState::new(),
            1,
        );
        let (request, _) = rs.build_request(rid(1), &mut sparse, RoutingState::empty());
        assert_eq!(request.summary.kind(), "delta");
        assert!(2 * wire::encoded_len(&request.summary) < wire::encoded_len(sparse.knowledge()));
    }
}
