//! Pairwise synchronization with pluggable DTN routing extensions.
//!
//! The protocol follows the paper's Figure 4:
//!
//! ```text
//! Target:  routing = ext.generate_request()
//!          send (knowledge, filter, routing) to source
//! Source:  ext.process_request(routing)
//!          for each stored item unknown to target:
//!              include if it matches target's filter, or ext.to_send() says so
//!          sort batch by priority, apply transfer limits
//! Target:  apply each received item, updating knowledge
//! ```
//!
//! "send" has two renderings. Between co-located replicas
//! ([`sync_with`]) the request *lends* all three parts: knowledge and
//! filter as borrowed [`Cow`]s, routing as a [`RoutingPayload`] the
//! target's extension keeps and the source's extension reads by
//! reference — nothing is cloned or serialized. On a wire the request is
//! encoded ([`crate::wire`]), which is where a lent payload becomes
//! bytes, and the source decodes an owned `SyncRequest<'static>` whose
//! routing is those bytes. Which rendering a request has is decided by
//! where it came from; an extension handles both through one absorb path
//! ([`RoutingState::lent`], else decode [`RoutingState::wire_form`]).
//!
//! Without an extension (the [`NoExtension`] default) this is plain
//! filtered replication: only items matching the target's filter flow.
//! Extensions add out-of-filter forwarding — the paper's pluggable DTN
//! routing policies — without changing the meaning of filters, so eventual
//! filter consistency is preserved (§IV-C).
//!
//! A verdict can outlive its sync. [`SendDecision::Park`] withholds a copy
//! until it is rewritten — unless the target's filter or the extension's
//! [`SyncExtension::park_keys`] names one of the copy's keys — and the
//! source records it on the copy's version-index entry. Later syncs then
//! count a parked copy the target lacks with one compare on that entry,
//! without lending the copy, matching the filter or asking `to_send`; a
//! copy whose keys a sync wants is judged in full, as if never parked.
//! Batches, `withheld` counts and candidate counts are exactly what
//! [`SendDecision::Skip`] would have produced. Any write to the copy
//! unparks it, and parks are never persisted.

use std::any::Any;
use std::borrow::Cow;
use std::fmt;
use std::time::Instant;

use obs::{DecisionKind, DropReason, Event, EventKind};

use crate::filter::Filter;
use crate::id::{ItemId, ReplicaId};
use crate::intern::IStr;
use crate::item::Item;
use crate::knowledge::Knowledge;
use crate::park;
use crate::replica::{ApplyOutcome, Replica};
use crate::time::SimTime;
use crate::wire::Writer;

pub use crate::park::ParkKeys;

/// What a routing extension lends to a co-located peer instead of bytes:
/// the struct it keeps its advertised state in. The peer's extension
/// downcasts it ([`RoutingState::lent`]); [`RoutingPayload::encode`]
/// produces the wire form wherever the request does meet a wire.
pub trait RoutingPayload: Any + Send + Sync {
    /// Appends the payload's wire form to `w` — what a receiver on the
    /// other end of a socket decodes.
    fn encode(&self, w: &mut Writer);
}

/// Opaque routing data carried in a sync request, produced and consumed by
/// a routing extension (e.g. PROPHET's delivery-predictability vector).
///
/// The substrate never interprets it; policies define the encoding. It is
/// either bytes (what arrived over a wire, or what an extension chose to
/// produce) or a [`RoutingPayload`] lent by the target's extension for the
/// life of the request. Two states are equal when they put the same bytes
/// on a wire.
#[derive(Clone)]
pub struct RoutingState<'a>(Repr<'a>);

#[derive(Clone)]
enum Repr<'a> {
    Bytes(Vec<u8>),
    Lent(&'a dyn RoutingPayload),
}

impl<'a> RoutingState<'a> {
    /// An empty routing state (what [`NoExtension`] produces).
    pub fn empty() -> Self {
        RoutingState(Repr::Bytes(Vec::new()))
    }

    /// Wraps encoded routing data.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        RoutingState(Repr::Bytes(bytes))
    }

    /// Lends `payload` as it is: nothing is encoded unless the request
    /// meets a wire.
    pub fn lend(payload: &'a dyn RoutingPayload) -> Self {
        RoutingState(Repr::Lent(payload))
    }

    /// The lent payload, if there is one and it is a `T`.
    pub fn lent<T: RoutingPayload>(&self) -> Option<&'a T> {
        match self.0 {
            Repr::Lent(payload) => (payload as &dyn Any).downcast_ref(),
            Repr::Bytes(_) => None,
        }
    }

    /// The wire form, for a consumer that is itself a byte edge (a
    /// decoder, an envelope): the bytes the state arrived as, borrowed —
    /// or, for a payload nobody downcast, encoded now. The in-process
    /// path of a policy that recognises its peer never calls this.
    pub fn wire_form(&self) -> Cow<'_, [u8]> {
        match &self.0 {
            Repr::Bytes(bytes) => Cow::Borrowed(bytes),
            Repr::Lent(_) => Cow::Owned(self.clone().into_bytes()),
        }
    }

    /// Appends the wire form (no length prefix) to `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        match &self.0 {
            Repr::Bytes(bytes) => w.put_slice(bytes),
            Repr::Lent(payload) => payload.encode(w),
        }
    }

    /// Length of the wire form, from a counting pass over a lent payload.
    pub fn encoded_len(&self) -> usize {
        match &self.0 {
            Repr::Bytes(bytes) => bytes.len(),
            Repr::Lent(payload) => {
                let mut w = Writer::counting();
                payload.encode(&mut w);
                w.len()
            }
        }
    }

    /// [`RoutingState::wire_form`] by value: moved out when the state
    /// arrived as bytes, encoded now when it was lent.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.0 {
            Repr::Bytes(bytes) => bytes,
            Repr::Lent(payload) => {
                let mut w = Writer::new();
                payload.encode(&mut w);
                w.into_bytes()
            }
        }
    }

    /// Detaches the state from the extension that lent it.
    pub fn into_owned(self) -> RoutingState<'static> {
        RoutingState::from_bytes(self.into_bytes())
    }
}

impl PartialEq for RoutingState<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.wire_form() == other.wire_form()
    }
}

impl Eq for RoutingState<'_> {}

impl fmt::Debug for RoutingState<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Bytes(bytes) => write!(f, "RoutingState({} bytes)", bytes.len()),
            Repr::Lent(_) => write!(f, "RoutingState(lent)"),
        }
    }
}

/// Coarse priority classes for batch ordering (paper §V-B: a "class" value
/// from lowest to highest, plus a real-valued cost to break ties).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityClass {
    /// Sent last.
    Lowest,
    /// Below normal.
    Low,
    /// Default for policy-forwarded items.
    Normal,
    /// Above normal.
    High,
    /// Sent first; filter-matched (destination-addressed) items get this.
    Highest,
}

/// A transmission priority: class plus tie-breaking cost (lower cost sends
/// earlier within a class).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Priority {
    class: PriorityClass,
    cost: f64,
}

impl Priority {
    /// Creates a priority. `cost` breaks ties within a class: lower cost
    /// transmits earlier. `NaN` costs are treated as `+inf` (sent last).
    pub fn new(class: PriorityClass, cost: f64) -> Self {
        let cost = if cost.is_nan() { f64::INFINITY } else { cost };
        Priority { class, cost }
    }

    /// Normal-class priority with zero cost.
    pub fn normal() -> Self {
        Priority::new(PriorityClass::Normal, 0.0)
    }

    /// The highest priority, used for filter-matched items.
    pub fn highest() -> Self {
        Priority::new(PriorityClass::Highest, 0.0)
    }

    /// The priority class.
    pub fn class(self) -> PriorityClass {
        self.class
    }

    /// The tie-breaking cost.
    pub fn cost(self) -> f64 {
        self.cost
    }

    /// Total order for transmission: higher class first, then lower cost.
    fn sort_key(self) -> (std::cmp::Reverse<PriorityClass>, f64) {
        (std::cmp::Reverse(self.class), self.cost)
    }
}

/// Reusable candidate-selection buffers owned by each [`Replica`].
///
/// [`prepare_batch`] runs once per sync; holding its working vectors on
/// the replica (taken with `mem::take`, returned on exit) makes the
/// steady-state encounter loop allocation-free instead of building and
/// dropping two vectors per batch. Purely an allocation cache: the
/// contents are cleared before every use, so the buffers carry no state
/// between syncs.
#[derive(Clone, Debug, Default)]
pub(crate) struct SyncScratch {
    /// What the version index reported as unknown to the requester: item
    /// id and store slot number.
    pub candidates: Vec<(ItemId, usize)>,
    /// Selection survivors: (id, priority, matched_filter, payload_len).
    pub selected: Vec<(ItemId, Priority, bool, usize)>,
    /// Recycled batch-entry buffer. [`prepare_batch`] moves it into the
    /// outgoing [`SyncBatch`]; the in-process [`sync_with`] path hands the
    /// drained vector back after the target applies the batch, so repeat
    /// syncs between co-located replicas reuse its capacity.
    pub entries: Vec<BatchEntry>,
}

/// A routing policy's verdict on forwarding one out-of-filter item.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SendDecision {
    /// Do not include the item.
    Skip,
    /// Include the item with the given priority.
    Send(Priority),
    /// Do not include the item, and do not ask again until the stored
    /// copy is rewritten — unless a sync's target filter or the values
    /// [`SyncExtension::park_keys`] names match one of the copy's keys.
    /// Only sound for a verdict nothing else can change: not the peer,
    /// not the time, not the extension's state beyond what `park_keys`
    /// names. A tombstone is never parked, and an extension that files
    /// parks under no attribute only skips. Parks belong to the extension
    /// that made them: whoever serves the replica under another one
    /// first calls [`Replica::clear_parks`].
    Park,
}

impl SendDecision {
    /// Converts to an optional priority.
    pub fn priority(self) -> Option<Priority> {
        match self {
            SendDecision::Skip | SendDecision::Park => None,
            SendDecision::Send(p) => Some(p),
        }
    }
}

/// Host-side context handed to a routing extension during a sync.
///
/// Grants the extension the paper's "existing Cimbiosys interfaces": read
/// access to the local store and the internal no-new-version mutation
/// channel for transient metadata.
pub struct HostContext<'a> {
    replica: &'a mut Replica,
    now: SimTime,
    peer: Option<ReplicaId>,
}

impl<'a> HostContext<'a> {
    /// Creates a context for `replica` at simulated time `now`.
    /// `peer` identifies the other endpoint of the sync, when known.
    pub fn new(replica: &'a mut Replica, now: SimTime, peer: Option<ReplicaId>) -> Self {
        HostContext { replica, now, peer }
    }

    /// The local replica's id.
    pub fn id(&self) -> ReplicaId {
        self.replica.id()
    }

    /// The sync partner's id, if known.
    pub fn peer(&self) -> Option<ReplicaId> {
        self.peer
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to the local replica.
    pub fn replica(&self) -> &Replica {
        self.replica
    }

    /// Sets a transient attribute on a stored item without bumping its
    /// version (see [`Replica::set_transient`]).
    pub fn set_transient(
        &mut self,
        id: ItemId,
        name: impl Into<IStr>,
        value: impl Into<crate::Value>,
    ) -> Result<(), crate::PfrError> {
        self.replica.set_transient(id, name, value)
    }

    /// Drops a relay copy (see [`Replica::purge_relay`]). Policies call
    /// this when an acknowledgement proves the message was delivered
    /// elsewhere, so a successful purge reports as an `Acked` drop.
    pub fn purge_relay(&mut self, id: ItemId) -> bool {
        let purged = self.replica.purge_relay(id);
        if purged {
            let replica = self.replica.id().as_u64();
            self.replica
                .observer()
                .emit(EventKind::MessageDropped, || Event::MessageDropped {
                    replica,
                    origin: id.origin().as_u64(),
                    seq: id.seq(),
                    reason: DropReason::Acked,
                });
        }
        purged
    }
}

impl fmt::Debug for HostContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostContext")
            .field("id", &self.replica.id())
            .field("peer", &self.peer)
            .field("now", &self.now)
            .finish()
    }
}

/// One stored item the target lacks and its filter does not select, as
/// handed to [`SyncExtension::to_send`]: the item itself (through
/// `Deref`) plus the no-new-version channel for its transient metadata.
/// Selection reaches each candidate by its store slot and lends the
/// policy that same slot, so a verdict never looks the item up.
pub struct Candidate<'a> {
    host: ReplicaId,
    slot: crate::store::Slot<'a>,
}

impl Candidate<'_> {
    /// The local (source) replica's id.
    pub fn host(&self) -> ReplicaId {
        self.host
    }

    /// Sets a transient attribute on the stored copy without bumping its
    /// version (see [`Replica::set_transient`]).
    pub fn set_transient(&mut self, name: impl Into<IStr>, value: impl Into<crate::Value>) {
        self.slot.stamp_write();
        self.slot.item.transient_mut().set(name, value);
    }
}

impl std::ops::Deref for Candidate<'_> {
    type Target = Item;

    fn deref(&self) -> &Item {
        self.slot.item
    }
}

impl fmt::Debug for Candidate<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Candidate")
            .field("host", &self.host)
            .field("item", &self.slot.item.id())
            .finish()
    }
}

/// The pluggable routing extension — the Rust rendering of the paper's
/// `IDTNPolicy` interface (Figure 3) plus an outgoing-copy transform hook.
///
/// All methods have no-op defaults, so the minimal flooding policy is a
/// one-method implementation.
pub trait SyncExtension {
    /// A short stable label identifying the policy in emitted
    /// [`Event::PolicyDecision`]s ("epidemic", "maxprop", ...).
    fn label(&self) -> &'static str {
        "ext"
    }

    /// Called on the **target** when it initiates a sync: returns routing
    /// data to attach to the request (`generateReq()` in the paper). The
    /// data may borrow from the extension ([`RoutingState::lend`]), which
    /// stays borrowed for as long as the request lives.
    fn generate_request<'a>(&'a mut self, cx: &mut HostContext<'_>) -> RoutingState<'a> {
        let _ = cx;
        RoutingState::empty()
    }

    /// Called on the **source** when a request arrives: digests the
    /// target's routing data (`processReq()` in the paper).
    fn process_request(&mut self, cx: &mut HostContext<'_>, request: &SyncRequest<'_>) {
        let _ = (cx, request);
    }

    /// Called on the **source** for each item that is unknown to the target
    /// and does **not** match the target's filter: decides whether (and how
    /// urgently) to forward it (`toSend()` in the paper).
    fn to_send(
        &mut self,
        candidate: &mut Candidate<'_>,
        request: &SyncRequest<'_>,
    ) -> SendDecision {
        let _ = (candidate, request);
        SendDecision::Skip
    }

    /// Called on the **source** once per sync, after
    /// [`SyncExtension::process_request`], by an extension that returns
    /// [`SendDecision::Park`]: files its parked copies under an attribute
    /// ([`ParkKeys::file_under`]) and names the values of it whose parked
    /// copies this sync must judge again ([`ParkKeys::want`]). The
    /// default files nothing, which makes a park a plain skip.
    fn park_keys(&self, keys: &mut ParkKeys) {
        let _ = keys;
    }

    /// Called on the **source** for every outgoing copy (filter-matched or
    /// policy-forwarded) just before transmission; mutates the in-flight
    /// copy only (TTL decrement, copy-count halving, hop-list append).
    /// `matched_filter` distinguishes a delivery to the item's destination
    /// from a relay handoff.
    fn prepare_outgoing(
        &mut self,
        cx: &mut HostContext<'_>,
        item: &mut Item,
        target: ReplicaId,
        matched_filter: bool,
    ) {
        let _ = (cx, item, target, matched_filter);
    }

    /// Called on the **target** after a batch is applied, with the ids of
    /// items newly delivered into its filtered store (used e.g. by MaxProp
    /// to originate delivery acknowledgements).
    fn on_delivered(&mut self, cx: &mut HostContext<'_>, delivered: &[ItemId]) {
        let _ = (cx, delivered);
    }

    /// Called on the **target** for each copy a batch left in its relay
    /// (or push-out) store, as it is accepted — how a policy learns that
    /// something arrived to carry without rescanning the store.
    fn on_relayed(&mut self, id: ItemId) {
        let _ = id;
    }
}

/// The trivial extension: plain filtered replication, no out-of-filter
/// forwarding. This is "basic Cimbiosys" in the paper's experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoExtension;

impl SyncExtension for NoExtension {
    fn label(&self) -> &'static str {
        "none"
    }
}

/// A synchronization request, sent by the target to the source.
///
/// Knowledge and filter ride in [`Cow`]s and routing in a
/// [`RoutingState`]: the in-process path ([`begin_sync`]) borrows the
/// first two straight from the target replica and the third from its
/// extension, so local encounters clone and encode nothing; the wire path
/// decodes owned values (`SyncRequest<'static>`).
#[derive(Clone, Debug)]
pub struct SyncRequest<'a> {
    /// The requesting (target) replica.
    pub target: ReplicaId,
    /// Everything the target already knows; the source sends only versions
    /// outside this set (at-most-once delivery).
    pub knowledge: Cow<'a, Knowledge>,
    /// The target's content filter.
    pub filter: Cow<'a, Filter>,
    /// Policy-defined routing data (paper §V-A requirement 2).
    pub routing: RoutingState<'a>,
}

impl SyncRequest<'_> {
    /// Detaches the request from any replica or extension borrow, cloning
    /// the knowledge and filter only if they are still borrowed and
    /// encoding the routing data only if it was lent.
    pub fn into_owned(self) -> SyncRequest<'static> {
        SyncRequest {
            target: self.target,
            knowledge: Cow::Owned(self.knowledge.into_owned()),
            filter: Cow::Owned(self.filter.into_owned()),
            routing: self.routing.into_owned(),
        }
    }
}

/// One item in a sync batch.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchEntry {
    /// The transmitted copy (after any in-flight transforms).
    pub item: Item,
    /// Transmission priority assigned by the filter match or the policy.
    pub priority: Priority,
    /// Whether the item matched the target's filter (as opposed to being
    /// policy-forwarded).
    pub matched_filter: bool,
}

/// An ordered batch of items from source to target.
#[derive(Clone, Debug, PartialEq)]
pub struct SyncBatch {
    /// The sending (source) replica.
    pub source: ReplicaId,
    /// Entries in transmission order (highest priority first).
    pub entries: Vec<BatchEntry>,
    /// Number of candidate items the source declined or cut due to limits,
    /// recorded for experiment accounting.
    pub withheld: usize,
}

/// Transfer limits applied to one sync (the paper's bandwidth constraint
/// allows a single message per encounter in §VI-D).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncLimits {
    /// Maximum number of items transmitted in this batch (`None` =
    /// unlimited).
    pub max_items: Option<usize>,
    /// Maximum total payload bytes transmitted in this batch (`None` =
    /// unlimited). Models an encounter that ends mid-transfer: the batch
    /// is cut at the first item that would exceed the budget, in priority
    /// order, so the highest-priority traffic goes first.
    pub max_payload_bytes: Option<usize>,
}

impl SyncLimits {
    /// No limits: every eligible item is transmitted.
    pub fn unlimited() -> Self {
        SyncLimits::default()
    }

    /// At most `n` items per batch.
    pub fn max_items(n: usize) -> Self {
        SyncLimits {
            max_items: Some(n),
            ..SyncLimits::default()
        }
    }

    /// At most `n` total payload bytes per batch.
    pub fn max_payload_bytes(n: usize) -> Self {
        SyncLimits {
            max_payload_bytes: Some(n),
            ..SyncLimits::default()
        }
    }

    /// Adds a payload-byte cap to these limits.
    pub fn with_max_payload_bytes(mut self, n: usize) -> Self {
        self.max_payload_bytes = Some(n);
        self
    }
}

/// Statistics from applying one sync batch at the target.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SyncReport {
    /// Items transmitted in the batch.
    pub transmitted: usize,
    /// Items newly visible in the target's filtered store (message
    /// deliveries, in the DTN application).
    pub delivered: usize,
    /// Ids of the newly delivered items.
    pub delivered_ids: Vec<ItemId>,
    /// Items accepted into the relay (or push-out) store for forwarding.
    pub relayed: usize,
    /// Ids of the copies stored without a delivery: the relayed items and
    /// the concurrent copies merged. With `delivered_ids`, every item
    /// the batch wrote at the target.
    pub stored_ids: Vec<ItemId>,
    /// Copies ignored as stale.
    pub stale: usize,
    /// Copies rejected as duplicates (should be zero in a correct run).
    pub duplicates: usize,
    /// Concurrent copies merged.
    pub conflicts: usize,
    /// Candidates the source withheld (declined by policy or cut by
    /// limits).
    pub withheld: usize,
}

/// Builds the target's sync request (paper Fig. 4, target side, step 1).
///
/// The returned request borrows the target's knowledge and filter, and
/// whatever routing data its extension lends, for `'a` — nothing is
/// cloned or encoded. Callers that need an owned request (to outlive the
/// borrows) can [`SyncRequest::into_owned`] it.
pub fn begin_sync<'a>(
    target: &'a mut Replica,
    ext: &'a mut dyn SyncExtension,
    now: SimTime,
    source: Option<ReplicaId>,
) -> SyncRequest<'a> {
    let routing = generate_routing(target, ext, now, source);
    let target: &'a Replica = target;
    SyncRequest {
        target: target.id(),
        knowledge: Cow::Borrowed(target.knowledge()),
        filter: Cow::Borrowed(target.filter()),
        routing,
    }
}

/// The part of [`begin_sync`] that needs the target mutably: announces
/// the sync and has the extension produce (or lend) its routing data,
/// which borrows the extension only.
pub(crate) fn generate_routing<'e>(
    target: &mut Replica,
    ext: &'e mut dyn SyncExtension,
    now: SimTime,
    source: Option<ReplicaId>,
) -> RoutingState<'e> {
    let target_id = target.id().as_u64();
    let source_id = source.map(|s| s.as_u64()).unwrap_or(0);
    target
        .observer()
        .emit(EventKind::SyncStarted, || Event::SyncStarted {
            target: target_id,
            source: source_id,
            at_secs: now.as_secs(),
        });
    let mut cx = HostContext::new(target, now, source);
    ext.generate_request(&mut cx)
}

/// Builds the source's item batch for a request (paper Fig. 4, source
/// side): processes routing state, selects filter-matched plus
/// policy-forwarded items, sorts by priority, applies limits.
pub fn prepare_batch(
    source: &mut Replica,
    ext: &mut dyn SyncExtension,
    request: &SyncRequest<'_>,
    limits: SyncLimits,
    now: SimTime,
) -> SyncBatch {
    let source_id = source.id();
    let policy = ext.label();
    let target_id = request.target.as_u64();
    // One context serves the whole batch build: request processing,
    // per-candidate policy calls, and outgoing preparation. Candidate
    // resolution reaches the replica through `cx.replica` directly.
    let mut cx = HostContext::new(source, now, Some(request.target));
    ext.process_request(&mut cx, request);
    cx.replica
        .observer()
        .emit(EventKind::PolicyDecision, || Event::PolicyDecision {
            replica: source_id.as_u64(),
            peer: target_id,
            policy,
            kind: DecisionKind::RequestProcessed,
            origin: 0,
            seq: 0,
            // What the routing data costs on a wire, counted here so an
            // unobserved in-process sync never walks a lent payload.
            cost: request.routing.encoded_len() as f64,
            at_secs: now.as_secs(),
        });

    let mut keys = ParkKeys::default();
    ext.park_keys(&mut keys);

    // Candidate scan + selection, timed only when somebody reads the
    // timing (otherwise the clock is never read, like `Span`).
    let scan_started = cx
        .replica
        .observer()
        .wants(EventKind::SyncCandidatesSelected)
        .then(Instant::now);
    // Selection runs in per-replica scratch buffers (returned before this
    // function exits), so the steady-state encounter — every candidate
    // already known, nothing selected — builds no vectors at all.
    let mut scratch = cx.replica.take_sync_scratch();
    // Parked copies the sync does not want are withheld by the walk
    // itself, uncounted among the candidates it hands back. Between
    // converged peers the walk is a step per origin: the requester's
    // vector covers each origin's highest stored counter.
    let wanted = cx.replica.parks_wanted(&request.filter, &keys);
    let passed =
        cx.replica
            .versions_unknown_to_into(&request.knowledge, wanted, &mut scratch.candidates);
    let candidate_count = (scratch.candidates.len() + passed) as u64;
    scratch.selected.clear();
    let mut withheld = passed;
    for &(id, slot) in &scratch.candidates {
        // No store lookup per candidate: the walk reported the slot, which
        // answers the filter match and the payload length the byte-budget
        // cut needs later, and is then lent to the policy for its verdict.
        let Some(slot) = cx.replica.candidate_slot(id, slot) else {
            withheld += 1;
            continue;
        };
        let payload_len = slot.item.payload().len();
        if request.filter.matches(slot.item) {
            scratch
                .selected
                .push((id, Priority::highest(), true, payload_len));
            continue;
        }
        let mut candidate = Candidate {
            host: source_id,
            slot,
        };
        let decision = ext.to_send(&mut candidate, request);
        let park = match (decision, keys.attr()) {
            (SendDecision::Park, Some(attr)) if !candidate.is_deleted() => {
                Some((candidate.version(), attr, park::entry_of(&candidate, attr)))
            }
            _ => None,
        };
        if let Some((version, attr, entry)) = park {
            cx.replica.park(version, attr, entry);
        }
        let verdict = decision.priority();
        cx.replica
            .observer()
            .emit(EventKind::PolicyDecision, || Event::PolicyDecision {
                replica: source_id.as_u64(),
                peer: target_id,
                policy,
                kind: match (verdict, park) {
                    (Some(_), _) => DecisionKind::Forward,
                    (None, Some(_)) => DecisionKind::Park,
                    (None, None) => DecisionKind::Suppress,
                },
                origin: id.origin().as_u64(),
                seq: id.seq(),
                cost: verdict.map(|p| p.cost()).unwrap_or(0.0),
                at_secs: now.as_secs(),
            });
        match verdict {
            Some(priority) => scratch.selected.push((id, priority, false, payload_len)),
            None => withheld += 1,
        }
    }
    let selected_count = scratch.selected.len() as u64;
    let scan_us = scan_started
        .map(|t| t.elapsed().as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0);
    cx.replica
        .observer()
        .emit(EventKind::SyncCandidatesSelected, || {
            Event::SyncCandidatesSelected {
                source: source_id.as_u64(),
                target: target_id,
                candidates: candidate_count,
                selected: selected_count,
                scan_us,
                at_secs: now.as_secs(),
            }
        });

    // Deterministic transmission order: priority, then item id.
    scratch
        .selected
        .sort_by(|(ida, pa, _, _), (idb, pb, _, _)| {
            let ka = pa.sort_key();
            let kb = pb.sort_key();
            ka.0.cmp(&kb.0)
                .then(ka.1.total_cmp(&kb.1))
                .then(ida.cmp(idb))
        });

    if let Some(max) = limits.max_items {
        if scratch.selected.len() > max {
            withheld += scratch.selected.len() - max;
            scratch.selected.truncate(max);
        }
    }
    if let Some(max_bytes) = limits.max_payload_bytes {
        // Cut, in priority order, at the first item that would overflow
        // the byte budget (the encounter ends there). A zero budget means
        // "no transfer at all": without the explicit guard, zero-length
        // payloads cost nothing and an empty budget would let every such
        // item through. Sizes were recorded during selection — payloads
        // are immutable after creation, so no second lookup is needed.
        let mut used = 0usize;
        let mut keep = 0usize;
        if max_bytes > 0 {
            for (_, _, _, size) in &scratch.selected {
                if used + size > max_bytes {
                    break;
                }
                used += size;
                keep += 1;
            }
        }
        if scratch.selected.len() > keep {
            withheld += scratch.selected.len() - keep;
            scratch.selected.truncate(keep);
        }
    }

    let mut entries = std::mem::take(&mut scratch.entries);
    entries.clear();
    entries.reserve(scratch.selected.len());
    let mut payload_bytes = 0u64;
    for &(id, priority, matched_filter, _) in &scratch.selected {
        let Some(mut copy) = cx.replica.item(id).cloned() else {
            continue;
        };
        ext.prepare_outgoing(&mut cx, &mut copy, request.target, matched_filter);
        let bytes = copy.payload().len() as u64;
        payload_bytes += bytes;
        cx.replica
            .observer()
            .emit(EventKind::ItemTransmitted, || Event::ItemTransmitted {
                source: source_id.as_u64(),
                target: target_id,
                origin: id.origin().as_u64(),
                seq: id.seq(),
                bytes,
                matched_filter,
                at_secs: now.as_secs(),
            });
        entries.push(BatchEntry {
            item: copy,
            priority,
            matched_filter,
        });
    }
    let entry_count = entries.len() as u64;
    cx.replica
        .observer()
        .emit(EventKind::SyncBatchSent, || Event::SyncBatchSent {
            source: source_id.as_u64(),
            target: target_id,
            entries: entry_count,
            withheld: withheld as u64,
            payload_bytes,
            at_secs: now.as_secs(),
        });
    cx.replica.restore_sync_scratch(scratch);

    SyncBatch {
        source: source_id,
        entries,
        withheld,
    }
}

/// Applies a batch at the target (paper Fig. 4, target side, step 2),
/// returning delivery statistics.
pub fn apply_batch(
    target: &mut Replica,
    ext: &mut dyn SyncExtension,
    batch: SyncBatch,
    now: SimTime,
) -> SyncReport {
    apply_batch_recycling(target, ext, batch, now).0
}

/// [`apply_batch`] that also returns the batch's drained entry buffer so
/// an in-process driver ([`sync_with`], or one running the
/// [`crate::exchange`] halves) can hand it back to the source for reuse
/// (see [`SyncScratch`]).
pub(crate) fn apply_batch_recycling(
    target: &mut Replica,
    ext: &mut dyn SyncExtension,
    mut batch: SyncBatch,
    now: SimTime,
) -> (SyncReport, Vec<BatchEntry>) {
    let mut report = SyncReport {
        transmitted: batch.entries.len(),
        withheld: batch.withheld,
        ..SyncReport::default()
    };
    let target_id = target.id().as_u64();
    let source_id = batch.source.as_u64();
    for entry in batch.entries.drain(..) {
        let id = entry.item.id();
        match target.apply_remote(entry.item, now) {
            ApplyOutcome::Accepted { delivered, kind: _ } => {
                if delivered {
                    report.delivered += 1;
                    report.delivered_ids.push(id);
                    target
                        .observer()
                        .emit(EventKind::ItemDelivered, || Event::ItemDelivered {
                            replica: target_id,
                            source: source_id,
                            origin: id.origin().as_u64(),
                            seq: id.seq(),
                            at_secs: now.as_secs(),
                        });
                } else {
                    report.relayed += 1;
                    report.stored_ids.push(id);
                    target
                        .observer()
                        .emit(EventKind::ItemRelayed, || Event::ItemRelayed {
                            replica: target_id,
                            source: source_id,
                            origin: id.origin().as_u64(),
                            seq: id.seq(),
                            at_secs: now.as_secs(),
                        });
                    ext.on_relayed(id);
                }
            }
            ApplyOutcome::Duplicate => report.duplicates += 1,
            ApplyOutcome::Stale => report.stale += 1,
            ApplyOutcome::ConflictMerged => {
                report.conflicts += 1;
                report.stored_ids.push(id);
            }
        }
    }
    if report.transmitted > 0 {
        let batch_entries = report.transmitted as u64;
        let knowledge_replicas = target.knowledge().replica_count() as u64;
        let knowledge_exceptions = target.knowledge().exception_count() as u64;
        target
            .observer()
            .emit(EventKind::KnowledgeMerged, || Event::KnowledgeMerged {
                replica: target_id,
                peer: source_id,
                batch_entries,
                knowledge_replicas,
                knowledge_exceptions,
                at_secs: now.as_secs(),
            });
    }
    // Lend the delivered-id list to the extension rather than cloning it;
    // the report gets it back untouched.
    let delivered_ids = std::mem::take(&mut report.delivered_ids);
    let mut cx = HostContext::new(target, now, Some(batch.source));
    ext.on_delivered(&mut cx, &delivered_ids);
    report.delivered_ids = delivered_ids;
    (report, batch.entries)
}

/// Runs one full one-directional sync (`target` pulls from `source`) with
/// independent extensions on each side.
pub fn sync_with(
    source: &mut Replica,
    source_ext: &mut dyn SyncExtension,
    target: &mut Replica,
    target_ext: &mut dyn SyncExtension,
    limits: SyncLimits,
    now: SimTime,
) -> SyncReport {
    let request = begin_sync(target, target_ext, now, Some(source.id()));
    let batch = prepare_batch(source, source_ext, &request, limits, now);
    // `request` borrows `target`; release it before applying the batch.
    drop(request);
    let (report, spent_entries) = apply_batch_recycling(target, target_ext, batch, now);
    // Both endpoints are in-process: return the drained entry buffer to
    // the source so its next batch reuses the capacity.
    source.recycle_batch_entries(spent_entries);
    report
}

/// Runs one plain filtered-replication sync with no routing extension and
/// no limits — basic Cimbiosys behaviour.
pub fn sync_once(source: &mut Replica, target: &mut Replica, now: SimTime) -> SyncReport {
    let mut none_src = NoExtension;
    let mut none_tgt = NoExtension;
    sync_with(
        source,
        &mut none_src,
        target,
        &mut none_tgt,
        SyncLimits::unlimited(),
        now,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttributeMap;

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

    /// Flood-everything test extension.
    struct FloodAll;
    impl SyncExtension for FloodAll {
        fn to_send(
            &mut self,
            _candidate: &mut Candidate<'_>,
            _req: &SyncRequest<'_>,
        ) -> SendDecision {
            SendDecision::Send(Priority::normal())
        }
    }

    #[test]
    fn basic_sync_delivers_only_filter_matches() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        a.insert(dest("b"), b"for b".to_vec()).unwrap();
        a.insert(dest("c"), b"for c".to_vec()).unwrap();

        let report = sync_once(&mut a, &mut b, SimTime::ZERO);
        assert_eq!(report.transmitted, 1);
        assert_eq!(report.delivered, 1);
        assert_eq!(report.withheld, 1, "out-of-filter item withheld");
        assert_eq!(b.item_count(), 1);
    }

    #[test]
    fn sync_is_idempotent() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        a.insert(dest("b"), vec![]).unwrap();
        let first = sync_once(&mut a, &mut b, SimTime::ZERO);
        assert_eq!(first.delivered, 1);
        let second = sync_once(&mut a, &mut b, SimTime::ZERO);
        assert_eq!(second.transmitted, 0, "knowledge suppresses re-send");
        assert_eq!(second.duplicates, 0);
    }

    #[test]
    fn flooding_extension_forwards_out_of_filter() {
        let mut a = host(1, "a");
        let mut c = host(3, "c");
        a.insert(dest("b"), vec![]).unwrap();
        let mut flood = FloodAll;
        let mut none = NoExtension;
        let report = sync_with(
            &mut a,
            &mut flood,
            &mut c,
            &mut none,
            SyncLimits::unlimited(),
            SimTime::ZERO,
        );
        assert_eq!(report.transmitted, 1);
        assert_eq!(report.delivered, 0);
        assert_eq!(report.relayed, 1);
        assert_eq!(c.relay_load(), 1);

        // And c can now deliver to b on a later encounter.
        let mut b = host(2, "b");
        let report = sync_once(&mut c, &mut b, SimTime::from_secs(10));
        assert_eq!(report.delivered, 1, "multi-hop delivery through relay");
    }

    #[test]
    fn batch_respects_limits_and_consistency_survives() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        for i in 0..5 {
            a.insert(dest("b"), vec![i]).unwrap();
        }
        let report = sync_with(
            &mut a,
            &mut NoExtension,
            &mut b,
            &mut NoExtension,
            SyncLimits::max_items(2),
            SimTime::ZERO,
        );
        assert_eq!(report.transmitted, 2);
        assert_eq!(report.withheld, 3);
        // The cut items are still unknown to b and arrive on later syncs.
        let report = sync_with(
            &mut a,
            &mut NoExtension,
            &mut b,
            &mut NoExtension,
            SyncLimits::max_items(2),
            SimTime::from_secs(1),
        );
        assert_eq!(report.transmitted, 2);
        let report = sync_once(&mut a, &mut b, SimTime::from_secs(2));
        assert_eq!(report.transmitted, 1);
        assert_eq!(
            b.iter_items().count(),
            5,
            "partial batches never lose items"
        );
    }

    #[test]
    fn byte_budget_cuts_batches_in_priority_order() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        for i in 0..4u8 {
            a.insert(dest("b"), vec![i; 100]).unwrap();
        }
        // 250 bytes fit two 100-byte payloads.
        let report = sync_with(
            &mut a,
            &mut NoExtension,
            &mut b,
            &mut NoExtension,
            SyncLimits::max_payload_bytes(250),
            SimTime::ZERO,
        );
        assert_eq!(report.transmitted, 2);
        assert_eq!(report.withheld, 2);
        // Later syncs drain the rest: eventual consistency survives cuts.
        sync_with(
            &mut a,
            &mut NoExtension,
            &mut b,
            &mut NoExtension,
            SyncLimits::max_payload_bytes(250),
            SimTime::from_secs(1),
        );
        assert_eq!(b.iter_items().count(), 4);
    }

    #[test]
    fn oversized_item_is_withheld_not_sent() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        a.insert(dest("b"), vec![0; 1000]).unwrap();
        let report = sync_with(
            &mut a,
            &mut NoExtension,
            &mut b,
            &mut NoExtension,
            SyncLimits::max_payload_bytes(100),
            SimTime::ZERO,
        );
        assert_eq!(report.transmitted, 0);
        assert_eq!(report.withheld, 1);
    }

    #[test]
    fn zero_limits_yield_an_empty_batch() {
        // A zero budget of either kind means "send nothing" — it must not
        // degenerate into an unbounded batch, even for zero-length
        // payloads, which cost no bytes and used to slip through the byte
        // accounting.
        let mut a = host(1, "a");
        a.insert(dest("b"), vec![]).unwrap();
        a.insert(dest("b"), vec![1, 2, 3]).unwrap();
        for limits in [SyncLimits::max_items(0), SyncLimits::max_payload_bytes(0)] {
            let mut b = host(2, "b");
            let report = sync_with(
                &mut a,
                &mut NoExtension,
                &mut b,
                &mut NoExtension,
                limits,
                SimTime::ZERO,
            );
            assert_eq!(report.transmitted, 0, "{limits:?} transmitted items");
            assert_eq!(report.withheld, 2, "{limits:?} withheld count");
            assert_eq!(b.item_count(), 0);
        }
    }

    #[test]
    fn combined_item_and_byte_limits() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        for i in 0..5u8 {
            a.insert(dest("b"), vec![i; 10]).unwrap();
        }
        let limits = SyncLimits::max_items(3).with_max_payload_bytes(25);
        let report = sync_with(
            &mut a,
            &mut NoExtension,
            &mut b,
            &mut NoExtension,
            limits,
            SimTime::ZERO,
        );
        // Item cap would allow 3, but bytes only fit 2.
        assert_eq!(report.transmitted, 2);
        assert_eq!(report.withheld, 3);
    }

    #[test]
    fn priorities_order_batches() {
        struct Classed;
        impl SyncExtension for Classed {
            fn to_send(
                &mut self,
                item: &mut Candidate<'_>,
                _req: &SyncRequest<'_>,
            ) -> SendDecision {
                // Priority derived from payload: [n] -> cost n, class Normal
                // except payload 0 which is High class.
                let n = item.payload()[0];
                if n == 0 {
                    SendDecision::Send(Priority::new(PriorityClass::High, 0.0))
                } else {
                    SendDecision::Send(Priority::new(PriorityClass::Normal, f64::from(n)))
                }
            }
        }
        let mut a = host(1, "a");
        let mut c = host(3, "c");
        // One filter-matched item and three policy items.
        a.insert(dest("c"), b"\xffmatched".to_vec()).unwrap();
        for n in [2u8, 1, 0] {
            a.insert(dest("x"), vec![n]).unwrap();
        }
        let mut none = NoExtension;
        let request = begin_sync(&mut c, &mut none, SimTime::ZERO, Some(a.id()));
        let batch = prepare_batch(
            &mut a,
            &mut Classed,
            &request,
            SyncLimits::unlimited(),
            SimTime::ZERO,
        );
        let first_bytes: Vec<u8> = batch.entries.iter().map(|e| e.item.payload()[0]).collect();
        assert_eq!(
            first_bytes,
            vec![0xff, 0, 1, 2],
            "matched first, then class/cost order"
        );
        assert!(batch.entries[0].matched_filter);
    }

    #[test]
    fn nan_cost_sorts_last() {
        let p_nan = Priority::new(PriorityClass::Normal, f64::NAN);
        assert_eq!(p_nan.cost(), f64::INFINITY);
    }

    #[test]
    fn deletion_propagates_and_clears_relays() {
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let mut c = host(3, "c");
        let id = a.insert(dest("b"), b"m".to_vec()).unwrap();

        // Flood to relay c, deliver to b.
        let mut flood = FloodAll;
        sync_with(
            &mut a,
            &mut flood,
            &mut c,
            &mut NoExtension,
            SyncLimits::unlimited(),
            SimTime::ZERO,
        );
        sync_once(&mut a, &mut b, SimTime::ZERO);
        assert!(c.contains_item(id));

        // b deletes after reading; tombstone flows b -> c (policy flood).
        b.delete(id).unwrap();
        let mut flood_b = FloodAll;
        sync_with(
            &mut b,
            &mut flood_b,
            &mut c,
            &mut NoExtension,
            SyncLimits::unlimited(),
            SimTime::from_secs(5),
        );
        let stored = c.item(id).expect("tombstone replaces relay copy");
        assert!(stored.is_deleted());
        assert_eq!(c.relay_load(), 0, "tombstones don't occupy relay budget");
    }

    #[test]
    fn on_delivered_sees_new_items() {
        struct Recorder(Vec<ItemId>);
        impl SyncExtension for Recorder {
            fn on_delivered(&mut self, _cx: &mut HostContext<'_>, delivered: &[ItemId]) {
                self.0.extend_from_slice(delivered);
            }
        }
        let mut a = host(1, "a");
        let mut b = host(2, "b");
        let id = a.insert(dest("b"), vec![]).unwrap();
        let mut rec = Recorder(Vec::new());
        sync_with(
            &mut a,
            &mut NoExtension,
            &mut b,
            &mut rec,
            SyncLimits::unlimited(),
            SimTime::from_secs(42),
        );
        assert_eq!(rec.0, vec![id]);
    }

    #[test]
    fn routing_state_is_bytes_or_a_lent_payload() {
        struct Advert(u8);
        impl RoutingPayload for Advert {
            fn encode(&self, w: &mut Writer) {
                w.put_slice(&[self.0; 3]);
            }
        }
        struct Other;
        impl RoutingPayload for Other {
            fn encode(&self, _w: &mut Writer) {}
        }

        let bytes = RoutingState::from_bytes(vec![7, 7, 7]);
        assert_eq!(&*bytes.wire_form(), &[7u8, 7, 7]);
        assert!(bytes.lent::<Advert>().is_none());
        assert!(format!("{bytes:?}").contains("3 bytes"));
        assert_eq!(RoutingState::empty().encoded_len(), 0);

        let advert = Advert(7);
        let lent = RoutingState::lend(&advert);
        assert_eq!(lent.lent::<Advert>().map(|a| a.0), Some(7));
        assert!(lent.lent::<Other>().is_none(), "another policy's payload");
        assert_eq!(lent.encoded_len(), 3);
        assert_eq!(lent, bytes, "equal is equal on a wire");
        assert!(lent.into_owned().lent::<Advert>().is_none());
    }
}
