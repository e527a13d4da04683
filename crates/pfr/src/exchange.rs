//! One sync as its two halves — the target's *pull* and the source's
//! *serve* (paper Fig. 4) — in either [`SyncMode`].
//!
//! A pull opens with a request in the target's own mode: a full
//! [`SyncRequest`], or a [`DigestRequest`] summarizing its knowledge
//! against what this source last saw (see [`crate::digest`]). A source
//! answers either shape with a [`SyncBatch`] — or, when a digest names
//! state it does not hold, with [`Reply::Resync`], after which the target
//! retransmits its full request once. Those are the four messages of a
//! sync. A driver carries them: in memory between co-located replicas, as
//! frames on a socket. Either way the same code builds, resolves, commits
//! and accounts them.
//!
//! A full pull keeps no state while it waits for its batch: the request
//! lends the target's knowledge, filter and routing data. A digest request
//! lends the same knowledge and filter beside its summary, so a co-located
//! source resolves against them and keeps only their labels; a request
//! decoded from a frame owns its parts and leaves the source a copy (see
//! [`crate::digest`]). A digest pull keeps the journal position it will
//! commit and one encoded copy of its routing data, for the full request
//! a resync needs (empty for a policy without routing state).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::borrow::Cow;

use obs::{Event, EventKind};

use crate::digest::{DigestRequest, PendingExchange, ReconState, SummaryOutcome, SyncMode};
use crate::id::ReplicaId;
use crate::journal::KnowledgeTotals;
use crate::replica::Replica;
use crate::sync::{
    self, BatchEntry, RoutingState, SyncBatch, SyncExtension, SyncLimits, SyncReport, SyncRequest,
};
use crate::time::SimTime;
use crate::wire;

/// A pull's opening request, in the target's sync mode.
#[derive(Debug)]
pub enum Request<'a> {
    /// Knowledge and filter in full: the paper's protocol.
    Full(SyncRequest<'a>),
    /// A summary of the knowledge against what the source last saw.
    Digest(DigestRequest<'a>),
}

/// A source's answer to a [`Request`].
#[derive(Debug)]
pub enum Reply {
    /// The items the target lacks. Closes the exchange.
    Batch(SyncBatch),
    /// The digest named state this source does not hold: the target must
    /// retransmit its full request ([`Pull::resync`]), which the source
    /// answers with [`serve_resync`].
    Resync,
}

/// The target's half of one sync, from its request to the batch.
#[derive(Debug)]
pub struct Pull {
    /// `None` for a full pull.
    digest: Option<DigestPull>,
}

/// What a digest pull holds across its round trip.
#[derive(Debug)]
struct DigestPull {
    /// The journal position and filter to commit once the batch is in.
    pending: PendingExchange,
    /// The request's routing data, encoded once: a resync resends it.
    routing: RoutingState<'static>,
    /// The summary kind the request opened with.
    kind: &'static str,
    /// Metadata bytes this exchange has put on the wire so far.
    bytes: u64,
    resynced: bool,
}

impl Pull {
    /// Opens a pull in which `target` asks `source` for what it lacks:
    /// announces the sync, has `ext` produce the routing data, and builds
    /// the request in `mode`. A full request borrows `target` and `ext`
    /// until it is served or encoded.
    pub fn open<'a>(
        target: &'a mut Replica,
        ext: &'a mut dyn SyncExtension,
        recon: &mut ReconState,
        mode: SyncMode,
        source: ReplicaId,
        now: SimTime,
    ) -> (Pull, Request<'a>) {
        if mode == SyncMode::Full {
            let request = sync::begin_sync(target, ext, now, Some(source));
            return (Pull { digest: None }, Request::Full(request));
        }
        let routing = sync::generate_routing(target, ext, now, Some(source)).into_owned();
        let (request, pending) = recon.build_request(source, target, routing.clone());
        let digest = DigestPull {
            pending,
            routing,
            kind: request.summary.kind(),
            bytes: pending.request_bytes(),
            resynced: false,
        };
        (
            Pull {
                digest: Some(digest),
            },
            Request::Digest(request),
        )
    }

    /// The full request to retransmit after [`Reply::Resync`]: `target`'s
    /// knowledge and filter as they are now, which the pull will commit
    /// instead of what its digest summarized. Its bytes, plus one for the
    /// resync demand, are charged to the digest exchange. `None` when the
    /// pull cannot resync: a full pull, or one that already did.
    pub fn resync<'a>(&mut self, target: &'a Replica) -> Option<SyncRequest<'a>> {
        let digest = self.digest.as_mut().filter(|d| !d.resynced)?;
        digest.pending.restamp(target);
        digest.resynced = true;
        let request = SyncRequest {
            target: target.id(),
            knowledge: Cow::Borrowed(target.knowledge()),
            filter: Cow::Borrowed(target.filter()),
            routing: digest.routing.clone(),
        };
        digest.bytes += 1 + wire::encoded_len(&request) as u64;
        Some(request)
    }

    /// Completes the pull with the source's batch: applies it, then — for
    /// a digest pull — commits the journal position, folds the exchange
    /// into `recon`'s stats and emits its [`Event::ReconDigest`]. Returns
    /// the report and the batch's drained entry buffer, which a co-located
    /// source takes back for its next batch.
    pub fn finish(
        self,
        target: &mut Replica,
        ext: &mut dyn SyncExtension,
        recon: &mut ReconState,
        batch: SyncBatch,
        now: SimTime,
    ) -> (SyncReport, Vec<BatchEntry>) {
        let applied = sync::apply_batch_recycling(target, ext, batch, now);
        if let Some(digest) = self.digest {
            let source = digest.pending.peer();
            // A resync is booked as a "full" exchange, whatever it opened
            // with: fallbacks are digest mode's cost.
            let kind = if digest.resynced { "full" } else { digest.kind };
            let fallback_rounds = u64::from(digest.resynced);
            let full_bytes = digest.pending.full_bytes();
            target
                .observer()
                .emit(EventKind::ReconDigest, || Event::ReconDigest {
                    replica: target.id().as_u64(),
                    peer: source.as_u64(),
                    kind,
                    digest_bytes: digest.bytes,
                    full_bytes,
                    fallback_rounds,
                });
            recon.note_exchange(digest.bytes, full_bytes, fallback_rounds);
            recon.commit_sent(digest.pending);
        }
        applied
    }
}

/// Answers a request as the *source*: a full request always with a batch;
/// a digest with a batch when its summary and filter resolve exactly
/// against what `recon` holds for the target (its label, and its copy if
/// the request is owned, then advance to the knowledge it conveyed), else
/// with [`Reply::Resync`].
pub fn serve(
    source: &mut Replica,
    ext: &mut dyn SyncExtension,
    recon: &mut ReconState,
    request: Request<'_>,
    limits: SyncLimits,
    now: SimTime,
) -> Reply {
    let DigestRequest {
        target,
        summary,
        filter_fingerprint,
        filter: inline_filter,
        routing,
        lent,
    } = match request {
        Request::Full(request) => {
            return Reply::Batch(sync::prepare_batch(source, ext, &request, limits, now))
        }
        Request::Digest(request) => request,
    };
    // Not knowing the filter the target elided is a desync like a lost
    // label of its knowledge: both end in a resync round, which re-seeds
    // both.
    let SummaryOutcome::Resolved { knowledge, totals } = recon.resolve(target, summary, lent)
    else {
        return Reply::Resync;
    };
    let inline = inline_filter.as_deref();
    let Some(filter) = recon.effective_filter(target, filter_fingerprint, inline, lent) else {
        return Reply::Resync;
    };
    // The knowledge is lent to the batch, then committed: labelled, and
    // kept as the copy if it is owned.
    let full = SyncRequest {
        target,
        knowledge: Cow::Borrowed(&knowledge),
        filter: Cow::Borrowed(filter),
        routing,
    };
    let batch = sync::prepare_batch(source, ext, &full, limits, now);
    drop(full);
    recon.commit_peer(target, knowledge, totals, filter_fingerprint, inline_filter);
    Reply::Batch(batch)
}

/// Serves the full request a target retransmits after [`Reply::Resync`],
/// and commits its now exactly known knowledge and filter — labels, and
/// copies of what it owns — so the next exchange can summarize again.
pub fn serve_resync(
    source: &mut Replica,
    ext: &mut dyn SyncExtension,
    recon: &mut ReconState,
    request: SyncRequest<'_>,
    limits: SyncLimits,
    now: SimTime,
) -> SyncBatch {
    let batch = sync::prepare_batch(source, ext, &request, limits, now);
    let SyncRequest {
        target,
        knowledge,
        filter,
        ..
    } = request;
    let totals = KnowledgeTotals::of(&knowledge);
    let fingerprint = filter.fingerprint();
    recon.commit_peer(target, knowledge, totals, fingerprint, Some(filter));
    batch
}
