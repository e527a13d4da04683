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
//! position and checksum of what it last conveyed, the source remembers
//! that checksum as the *label* of the peer's knowledge, and a request
//! carries:
//!
//! * [`KnowledgeSummary::Unchanged`] — a checksum (nine bytes) when the
//!   journal has not moved since the last exchange with this peer.
//! * [`KnowledgeSummary::Delta`] — the versions learned since, spelled
//!   out, between the label they start from and the checksum they end at.
//! * [`KnowledgeSummary::Full`] — the whole structure: first contact, a
//!   delta that would be longer than the knowledge, or a position the
//!   journal no longer reaches back to.
//!
//! How the source resolves a summary depends on where the request comes
//! from. A co-located target *lends* its knowledge, totals and filter with
//! the request ([`Lent`]), as a full request lends them, and the source
//! keeps only labels: an `Unchanged` or `Delta` summary whose base
//! checksum equals the label resolves to the lent knowledge, because the
//! knowledge the label names, plus what was learned since, is by that
//! checksum the knowledge lent. A request decoded from a frame lends
//! nothing and owns its parts, so the source keeps a copy of the peer's
//! knowledge and filter from it, inserts a delta's versions into that copy
//! *in place* and checks the result against the target's checksum; a miss
//! drops the copy and resynchronizes. A label without a copy cannot
//! resolve a wire summary: a pair that met in process pays one resync
//! round the first time it syncs over a socket.
//!
//! Every summary resolves to the target's exact knowledge, so the source
//! selects *exactly* the candidates full mode would have selected and
//! digest mode is invisible to delivery metrics; a session is a request
//! and a batch, as in full mode. The summary is what the wire carries
//! whether or not the request is lent, so both count the same bytes. Any
//! mismatch — lost label or copy, corrupt frame — resolves to
//! [`SummaryOutcome::Resync`] and the exchange falls back to a full
//! request: degraded bandwidth, never degraded convergence. Fallbacks are
//! counted in the `recon.fallback_rounds` observability counter.
//!
//! This module holds the summaries and the per-peer state behind them;
//! [`crate::exchange`] runs them as the two halves of a sync.

use std::borrow::Cow;
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
/// A built summary borrows from the target; a decoded one owns its parts.
#[derive(Clone, Debug, PartialEq)]
pub enum KnowledgeSummary<'a> {
    /// The complete structure: first contact, deltas longer than the
    /// knowledge or older than the journal, or [`DigestPolicy::ForceFull`].
    Full(Cow<'a, Knowledge>),
    /// Nothing learned since the last exchange with this peer; `checksum`
    /// lets the source confirm its label names the referenced knowledge.
    Unchanged {
        /// Checksum of the (unchanged) knowledge entry set.
        checksum: u64,
    },
    /// What the target learned since the last exchange with this peer.
    Delta {
        /// Checksum of the previously exchanged knowledge (the source's
        /// label; a mismatch means the peer lost or never had it).
        base_checksum: u64,
        /// Checksum of the current knowledge, verified after the
        /// versions are applied to a held copy.
        checksum: u64,
        /// The versions learned since, in the order they were learned: the
        /// tail of the target's journal, or a decoded list.
        learned: Cow<'a, [Version]>,
    },
}

impl KnowledgeSummary<'_> {
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

/// What a co-located target lends with its [`DigestRequest`]: the state
/// its summary and fingerprint name, by reference. Never on the wire, and
/// built only by [`ReconState::build_request`], so it always matches its
/// summary.
#[derive(Clone, Copy, Debug)]
pub struct Lent<'a> {
    /// The target's current knowledge.
    pub(crate) knowledge: &'a Knowledge,
    /// Its totals, as the target keeps them current.
    pub(crate) totals: KnowledgeTotals,
    /// The target's current filter.
    pub(crate) filter: &'a Filter,
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
    pub summary: KnowledgeSummary<'a>,
    /// Fingerprint of the target's filter (see `Filter::fingerprint`).
    pub filter_fingerprint: u64,
    /// The filter itself; `None` when the fingerprint matches the one
    /// this peer acknowledged on an earlier exchange.
    pub filter: Option<Cow<'a, Filter>>,
    /// Policy routing data, exactly as in full mode.
    pub routing: RoutingState<'a>,
    /// The target's own state, when the request is handed across in
    /// memory ([`ReconState::build_request`] always lends it); `None` for
    /// a request decoded from a frame. Not encoded.
    pub lent: Option<Lent<'a>>,
}

/// What a [`KnowledgeSummary`] resolved to on the source side.
#[derive(Clone, Debug)]
pub enum SummaryOutcome<'a> {
    /// Knowledge to select candidates against, exactly as for a full-mode
    /// request: borrowed when the target lent it, owned when it came off
    /// a wire.
    Resolved {
        /// The target's exact knowledge.
        knowledge: Cow<'a, Knowledge>,
        /// Totals of `knowledge`, committed with it for the next exchange
        /// ([`ReconState::commit_peer`]).
        totals: KnowledgeTotals,
    },
    /// The summary references state this side does not hold, or did not
    /// reproduce the target's checksum: request a full exchange instead.
    Resync,
}

/// What a source holds of something a peer sent: the label that names
/// it and, when the peer sent it over a wire, a copy of it. A co-located
/// peer lends it again at every exchange, so its label is enough.
#[derive(Clone, Debug)]
struct Held<T> {
    label: u64,
    copy: Option<Box<T>>,
}

/// What a lend-or-own value leaves to hold: the value when owned.
fn owned<T: Clone>(value: Cow<'_, T>) -> Option<T> {
    match value {
        Cow::Owned(value) => Some(value),
        Cow::Borrowed(_) => None,
    }
}

/// Where a target's knowledge stood: a position in one of its journals,
/// and the checksum of the knowledge there.
#[derive(Clone, Copy, Debug)]
struct Stamp {
    journal: u64,
    position: u64,
    checksum: u64,
}

impl Stamp {
    fn of(target: &Replica) -> Stamp {
        Stamp {
            journal: target.journal_id(),
            position: target.journal_position(),
            checksum: target.knowledge_totals().checksum(),
        }
    }
}

/// What this side last sent to (or heard from) one peer.
#[derive(Clone, Debug, Default)]
struct PeerRecon {
    /// Where the knowledge this replica last conveyed to the peer stood
    /// (target role: where the next delta starts).
    sent: Option<Stamp>,
    /// Filter fingerprint the peer has acknowledged (target role: when it
    /// matches the current filter, the filter is elided from requests).
    sent_filter_fp: Option<u64>,
    /// The peer's knowledge as of the last exchange, labelled by its
    /// checksum; a copy carries its totals (source role: what the next
    /// summary is resolved against). Taken out while an exchange is
    /// resolving and put back only by its commit.
    peer_knowledge: Option<Held<(Knowledge, KnowledgeTotals)>>,
    /// The peer's filter as last received, labelled by its fingerprint
    /// (source role: reused when the peer elides it).
    peer_filter: Option<Held<Filter>>,
}

/// One summarized-but-not-yet-committed exchange (returned by
/// [`ReconState::build_request`], consumed by [`ReconState::commit_sent`]
/// once the sync succeeds — a failed or corrupted exchange must not
/// advance the per-peer position).
#[derive(Clone, Copy, Debug)]
pub struct PendingExchange {
    peer: ReplicaId,
    stamp: Stamp,
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
        self.stamp = Stamp::of(target);
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
/// the label of the peer's knowledge (and a copy, if it came off a wire).
///
/// Both advance only on [`ReconState::commit_sent`] /
/// [`ReconState::commit_peer`], which callers invoke after the exchange
/// succeeds end to end. An exchange that dies mid-flight leaves the
/// target on its old position and the source either on its old label or —
/// if it had already taken it to resolve a summary — with none, which the
/// next exchange repairs with one resync round. Never a half-advanced copy.
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

    /// Drops all per-peer state (a restart that loses digest state; the
    /// next exchange with every peer re-seeds with a full summary).
    pub fn clear_peers(&mut self) {
        self.peers.clear();
    }

    /// **Target role.** Summarizes `target`'s knowledge into a
    /// [`DigestRequest`] for `peer`, choosing the cheapest sound summary
    /// the policy allows; `routing` is the policy routing data of the
    /// equivalent full-mode request. Also returns the [`PendingExchange`]
    /// to commit once the sync succeeds. Costs what was learned since the
    /// last exchange with `peer`, and only to count it: the summary, the
    /// inline filter and the [`Lent`] state borrow from `target`, so the
    /// knowledge is neither walked nor cloned.
    pub fn build_request<'a>(
        &mut self,
        peer: ReplicaId,
        target: &'a mut Replica,
        routing: RoutingState<'a>,
    ) -> (DigestRequest<'a>, PendingExchange) {
        let (filter_fp, filter_len) = target.filter_stamp();
        let target: &'a Replica = target;
        let lent = Lent {
            knowledge: target.knowledge(),
            totals: target.knowledge_totals(),
            filter: target.filter(),
        };
        let stamp = Stamp::of(target);
        let checksum = stamp.checksum;
        // A delta is compared against this.
        let full_len = 1 + lent.totals.encoded_len(lent.knowledge);
        let record = self.peers.entry(peer).or_default();
        // A position in another journal (one from before a restore) says
        // nothing about this one: first contact again.
        let sent = record.sent.filter(|sent| sent.journal == stamp.journal);
        // The summary and its encoded length, decided before anything is
        // built: only the summary that wins is.
        let (summary, summary_len) = match (self.policy, sent) {
            // First contact, or never summarize.
            (DigestPolicy::ForceFull, _) | (_, None) => None,
            (_, Some(sent)) if sent.position == stamp.position => {
                // Equal positions of one journal are equal knowledge (a
                // cloned replica aside, which the checksum tells apart).
                (sent.checksum == checksum)
                    .then_some((KnowledgeSummary::Unchanged { checksum }, 1 + 8))
            }
            (policy, Some(sent)) => target
                .learned_since(sent.position)
                .map(|learned| (learned, wire::delta_summary_len(learned)))
                .filter(|&(_, len)| policy == DigestPolicy::ForceDelta || len < full_len)
                .map(|(learned, len)| {
                    let delta = KnowledgeSummary::Delta {
                        base_checksum: sent.checksum,
                        checksum,
                        learned: Cow::Borrowed(learned),
                    };
                    (delta, len)
                }),
        }
        .unwrap_or((
            KnowledgeSummary::Full(Cow::Borrowed(lent.knowledge)),
            full_len,
        ));

        let filter =
            (record.sent_filter_fp != Some(filter_fp)).then_some(Cow::Borrowed(lent.filter));
        let request_len = wire::digest_request_len(
            target.id(),
            summary_len,
            filter.as_ref().map(|_| filter_len),
            &routing,
        );
        let pending = PendingExchange {
            peer,
            stamp,
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
            lent: Some(lent),
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
        record.sent = Some(pending.stamp);
        record.sent_filter_fp = Some(pending.filter_fp);
    }

    /// **Source role.** The target's filter for a request: the one it
    /// carried inline, or — when the fingerprint names the one this side
    /// holds the label of — the one it lent, else the held copy. `None`
    /// means the peer elided a filter this side cannot produce — a
    /// protocol desync that must resolve as [`SummaryOutcome::Resync`].
    pub fn effective_filter<'a>(
        &'a self,
        peer: ReplicaId,
        fingerprint: u64,
        inline: Option<&'a Filter>,
        lent: Option<Lent<'a>>,
    ) -> Option<&'a Filter> {
        inline.or_else(|| {
            let held = self.peers.get(&peer)?.peer_filter.as_ref()?;
            if held.label != fingerprint {
                return None;
            }
            lent.map(|lent| lent.filter).or(held.copy.as_deref())
        })
    }

    /// **Source role.** Resolves a summary against what this side holds
    /// of the peer's knowledge. Never fails hard: anything that cannot be
    /// resolved exactly comes back as [`SummaryOutcome::Resync`].
    ///
    /// A `Full` summary resolves to itself. Unchanged and delta summaries
    /// *take* the held knowledge, which only [`ReconState::commit_peer`]
    /// restores, and resolve when its label is their base checksum: to
    /// the knowledge the target `lent`, else to the held copy with the
    /// delta applied in place, if that reproduces the target's checksum.
    /// A copy that fails its checksum is dropped here, so a bad delta can
    /// never poison later exchanges: the next one resynchronizes and
    /// re-seeds it.
    pub fn resolve<'a>(
        &mut self,
        peer: ReplicaId,
        summary: KnowledgeSummary<'a>,
        lent: Option<Lent<'a>>,
    ) -> SummaryOutcome<'a> {
        let (base, learned, checksum) = match summary {
            KnowledgeSummary::Full(knowledge) => {
                let totals = lent.map_or_else(|| KnowledgeTotals::of(&knowledge), |l| l.totals);
                return SummaryOutcome::Resolved { knowledge, totals };
            }
            KnowledgeSummary::Unchanged { checksum } => {
                (checksum, Cow::Borrowed(&[][..]), checksum)
            }
            KnowledgeSummary::Delta {
                base_checksum,
                checksum,
                learned,
            } => (base_checksum, learned, checksum),
        };
        let held = self
            .peers
            .get_mut(&peer)
            .and_then(|r| r.peer_knowledge.take());
        let Some(held) = held.filter(|held| held.label == base) else {
            return SummaryOutcome::Resync;
        };
        if let Some(lent) = lent {
            debug_assert_eq!(
                lent.totals.checksum(),
                checksum,
                "the summary names other knowledge than the lend"
            );
            let knowledge = Cow::Borrowed(lent.knowledge);
            return SummaryOutcome::Resolved {
                knowledge,
                totals: lent.totals,
            };
        }
        let Some(copy) = held.copy else {
            return SummaryOutcome::Resync;
        };
        let (mut knowledge, mut totals) = *copy;
        for &version in learned.iter() {
            knowledge.insert_with(version, &mut totals);
        }
        if totals.checksum() != checksum {
            return SummaryOutcome::Resync;
        }
        SummaryOutcome::Resolved {
            knowledge: Cow::Owned(knowledge),
            totals,
        }
    }

    /// **Source role.** Commits a successful exchange: labels the target's
    /// knowledge for the next summary, and the filter the target sent
    /// inline (if it is new). What arrived owned, off a wire, is kept as
    /// the copy the next wire summary resolves against; what was lent is
    /// not copied.
    pub fn commit_peer(
        &mut self,
        peer: ReplicaId,
        knowledge: Cow<'_, Knowledge>,
        totals: KnowledgeTotals,
        filter_fp: u64,
        inline_filter: Option<Cow<'_, Filter>>,
    ) {
        let record = self.peers.entry(peer).or_default();
        record.peer_knowledge = Some(Held {
            label: totals.checksum(),
            copy: owned(knowledge).map(|knowledge| Box::new((knowledge, totals))),
        });
        let Some(filter) = inline_filter else {
            return;
        };
        let copy = owned(filter).map(Box::new);
        if copy.is_some() || record.peer_filter.as_ref().map(|held| held.label) != Some(filter_fp) {
            record.peer_filter = Some(Held {
                label: filter_fp,
                copy,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttributeMap;
    use crate::exchange::{self, Pull, Reply, Request};
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
        sync_via(false, source, source_recon, target, target_recon, at)
    }

    /// The same sync with every message taken through its wire bytes when
    /// `wire` is set, so the source receives owned requests and holds
    /// copies of what they carry.
    fn sync_via(
        wire: bool,
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
        let request = match request {
            Request::Digest(digest) if wire => Request::Digest(reframed(&digest)),
            request => request,
        };
        let reply = exchange::serve(source, &mut source_ext, source_recon, request, limits, now);
        let batch = match reply {
            Reply::Batch(batch) => batch,
            Reply::Resync => {
                let request = pull.resync(target).expect("a digest pull resyncs once");
                let request = if wire { reframed(&request) } else { request };
                exchange::serve_resync(source, &mut source_ext, source_recon, request, limits, now)
            }
        };
        pull.finish(target, &mut target_ext, target_recon, batch, now)
            .0
    }

    /// A message as the peer at the far end of a wire decodes it.
    fn reframed<T: wire::Encode + wire::Decode>(message: &impl wire::Encode) -> T {
        wire::from_bytes(&wire::to_bytes(message)).expect("an encoded message decodes")
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

    /// A source-side harness for resolving hand-made wire summaries: a
    /// `ReconState` holding a copy of peer 2's knowledge `base`, as an
    /// owned request leaves one, and `base` itself.
    fn source_caching(base_versions: &[Version]) -> (ReconState, Knowledge) {
        let mut base = Knowledge::new();
        for &v in base_versions {
            base.insert(v);
        }
        let mut recon = ReconState::new();
        let totals = KnowledgeTotals::of(&base);
        recon.commit_peer(rid(2), Cow::Owned(base.clone()), totals, 0, None);
        (recon, base)
    }

    /// After a failed delta the copy must be gone: even a summary naming
    /// the untouched base no longer resolves.
    fn assert_cache_dropped(recon: &mut ReconState, base: &Knowledge) {
        let unchanged = KnowledgeSummary::Unchanged {
            checksum: knowledge_checksum(base),
        };
        assert!(matches!(
            recon.resolve(rid(2), unchanged, None),
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
            learned: Cow::Owned(learned),
        };
        match recon.resolve(rid(2), summary, None) {
            SummaryOutcome::Resolved { knowledge, totals } => {
                assert!(matches!(knowledge, Cow::Owned(_)), "the held copy");
                assert_eq!(*knowledge, current);
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
        let label = KnowledgeTotals::of(&claimed);
        recon.commit_peer(rid(2), Cow::Owned(held), label, 0, None);
        let mut current = claimed.clone();
        current.insert(v(4));
        let summary = KnowledgeSummary::Delta {
            base_checksum: knowledge_checksum(&claimed),
            checksum: knowledge_checksum(&current),
            learned: Cow::Owned(vec![v(4)]),
        };
        assert!(matches!(
            recon.resolve(rid(2), summary, None),
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
            learned: Cow::Owned(vec![
                v(u64::MAX),
                v(u64::MAX - 1),
                v(0),
                Version::new(rid(u64::MAX), u64::MAX),
            ]),
        };
        assert!(matches!(
            recon.resolve(rid(2), summary, None),
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
            learned: Cow::Owned(vec![v(3), v(4)]),
        };
        assert!(matches!(
            recon.resolve(rid(2), summary, None),
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
        // which a one-version delta is the shorter message. a and b meet
        // over a wire, so a holds a copy of b's knowledge.
        for i in 0..100u8 {
            a.insert(dest(if i % 2 == 0 { "b" } else { "x" }), vec![i])
                .unwrap();
        }
        sync_via(true, &mut a, &mut ra, &mut b, &mut rb, 0);
        sync_via(true, &mut a, &mut ra, &mut b, &mut rb, 1);
        assert_eq!(rb.stats().fallback_rounds, 0);
        // Swap a's copy of b's knowledge for something else under the
        // label b will name, then let b learn a little: its delta lands on
        // a base that already holds the version, and adds up differently.
        c.insert(dest("b"), vec![0]).unwrap();
        let label = b.knowledge_totals();
        let mut wrong = Knowledge::new();
        wrong.insert(Version::new(rid(3), 1));
        ra.commit_peer(rid(2), Cow::Owned(wrong), label, 0, None);
        digest_sync(
            &mut c,
            &mut ReconState::new(),
            &mut b,
            &mut ReconState::new(),
            2,
        );
        let report = sync_via(true, &mut a, &mut ra, &mut b, &mut rb, 3);
        assert_eq!(rb.stats().fallback_rounds, 1, "the bad delta resynced");
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.transmitted, 0, "b already had everything");
        // The resync re-seeded the copy: the next exchange is a checksum.
        let before = rb.stats().digest_bytes;
        sync_via(true, &mut a, &mut ra, &mut b, &mut rb, 4);
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
        // The full summary labels the peer's exact knowledge, so the very
        // next meeting is a checksum, and one after new learning a delta.
        let fingerprint = request.filter_fingerprint;
        let outcome = ra.resolve(rid(3), request.summary, request.lent);
        let SummaryOutcome::Resolved { knowledge, totals } = outcome else {
            panic!("a full summary always resolves");
        };
        ra.commit_peer(rid(3), knowledge, totals, fingerprint, None);
        rs.commit_sent(pending);
        let (request, _) = rs.build_request(rid(1), &mut sparse, RoutingState::empty());
        assert_eq!(request.summary.kind(), "unchanged");
        assert!(matches!(
            ra.resolve(rid(3), request.summary.clone(), request.lent),
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

    #[test]
    fn a_label_resolves_what_is_lent_and_nothing_from_a_wire() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let (mut ra, mut rb) = (ReconState::new(), ReconState::new());
        for i in 0..40u8 {
            a.insert(dest(if i % 2 == 0 { "b" } else { "x" }), vec![i])
                .unwrap();
        }
        // Two lent exchanges: a holds the label of b's settled knowledge.
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 0);
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 1);
        let (request, _) = rb.build_request(rid(1), &mut b, RoutingState::empty());
        assert_eq!(request.summary.kind(), "unchanged");
        let decoded: DigestRequest<'static> = reframed(&request);
        assert!(decoded.lent.is_none(), "a decoded request lends nothing");
        // Lent, the summary resolves to the target's own knowledge, not
        // to a copy (resolving takes the label: restore it).
        let mut probe = ra.clone();
        match probe.resolve(rid(2), request.summary, request.lent) {
            SummaryOutcome::Resolved { knowledge, .. } => {
                let lent = request.lent.expect("a built request lends");
                assert!(matches!(knowledge, Cow::Borrowed(k) if std::ptr::eq(k, lent.knowledge)));
            }
            SummaryOutcome::Resync => panic!("a lent summary resolves against its label"),
        }
        // From the wire it cannot: there is no copy to resolve against.
        assert!(matches!(
            ra.clone().resolve(rid(2), decoded.summary, None),
            SummaryOutcome::Resync
        ));
        // So the pair's first wire exchange pays one fallback round, which
        // leaves a a copy, and later wire exchanges resolve against it.
        sync_via(true, &mut a, &mut ra, &mut b, &mut rb, 2);
        assert_eq!(rb.stats().fallback_rounds, 1);
        a.insert(dest("b"), vec![99]).unwrap();
        for at in 3..6 {
            sync_via(true, &mut a, &mut ra, &mut b, &mut rb, at);
        }
        assert_eq!(rb.stats().fallback_rounds, 1);
        assert_eq!(b.item_count(), 21);
    }

    #[test]
    fn a_position_from_before_a_restore_is_no_position() {
        // b is restored under its surviving digest state and learns as
        // much as it had before: the old position is reachable in the new
        // journal, but counts other versions, so b opens with its whole
        // knowledge instead of a delta naming the wrong ones.
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut ra = ReconState::new();
        let mut rb = ReconState::with_policy(DigestPolicy::ForceDelta);
        a.insert(dest("b"), vec![0]).unwrap();
        digest_sync(&mut a, &mut ra, &mut b, &mut rb, 0);
        let (_, pending) = rb.build_request(rid(1), &mut b, RoutingState::empty());
        rb.commit_sent(pending);
        let mut b = Replica::restore(&b.snapshot()).unwrap();
        for i in 1..4u8 {
            a.insert(dest("b"), vec![i]).unwrap();
        }
        digest_sync(
            &mut a,
            &mut ReconState::new(),
            &mut b,
            &mut ReconState::new(),
            1,
        );
        assert!(b.journal_position() > 0);
        let (request, _) = rb.build_request(rid(1), &mut b, RoutingState::empty());
        assert_eq!(request.summary.kind(), "full");
    }
}
