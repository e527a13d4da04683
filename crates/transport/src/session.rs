//! The sync session protocol on a connection, as a sans-I/O state
//! machine.
//!
//! Frames in, frames out: a driver decodes frames off whatever carries
//! them and hands each to [`SessionMachine::on_frame`]; the machine
//! appends the frames it wants sent to an outbox the driver flushes. The
//! reactor in `net`, the blocking [`pump`](crate::conn::pump) behind
//! [`Peer`](crate::Peer) and the testkit's fault-injecting link all drive
//! this one machine, so they cannot disagree about the protocol.
//!
//! A session is a hello gate plus the two halves of [`pfr::exchange`], as
//! [`DtnNode`] wraps them; the machine maps frame types to their messages.
//! The *pull* half (this node is the target) awaits `SyncBatch` /
//! `ReconResync`; the *serve* half (this node is the source) awaits
//! `SyncRequest` / `SyncDigest` / `SyncDone`. Every frame type flows one
//! way relative to a role, so frames route by type and each side sends
//! whatever does not depend on a reply it has not read yet:
//!
//! ```text
//! fresh connection (6 hops)          remembered peer (4 hops)
//! I: Hello                           I: Hello + Request
//! R: Hello                           R: Hello + Batch + Request
//! I: Request                         I: Done + Batch
//! R: Batch + Request                 R: Done
//! I: Done + Batch
//! R: Done
//! ```
//!
//! Each direction's byte stream is the same frames in the same order
//! whichever column runs; only when they are written differs. Two
//! ordering rules keep a socket session equal to an in-process
//! `DtnNode::encounter`: the responder generates its own request only
//! after serving the initiator's (its pull half starts when its serve
//! half sends the batch), and the initiator serves only after applying
//! what it pulled (its serve half opens when its pull half finishes).
//!
//! The one clock the machine reads is a stopwatch for the `net_session`
//! event's `wall_micros`; no protocol decision depends on it. Protocol
//! time (`SimTime`) and membership time (`now_ms`) are inputs.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use dtn::DtnNode;
use obs::{Event, EventKind};
use parking_lot::Mutex;
use pfr::exchange::{self, Reply, Request};
use pfr::sync::{SyncBatch, SyncReport};
use pfr::wire::{
    from_bytes, from_bytes_shared, Decode, Encode, EncodeScratch, Reader as WireReader,
    Writer as WireWriter,
};
use pfr::{ReplicaId, SimTime, SyncLimits};

use crate::frame::{frame_header, FrameError, FrameType};
use crate::gossip::GossipMessage;
use crate::membership::Membership;

/// Errors that terminate a session.
#[derive(Debug)]
pub enum SessionError {
    /// Framing or payload-decode failure.
    Frame(FrameError),
    /// The peer sent a frame the current protocol state cannot accept.
    UnexpectedFrame {
        /// The protocol state the frame's half (or the hello gate) was in.
        phase: &'static str,
        /// What arrived.
        got: FrameType,
    },
    /// A pooled connection answered the hello as someone other than the
    /// peer remembered from its previous session.
    PeerMismatch {
        /// Who the connection's last session was with.
        expected: ReplicaId,
        /// Who answered.
        got: ReplicaId,
    },
    /// Socket I/O failure (reported by the driver).
    Io(std::io::Error),
    /// The connection closed mid-session.
    Eof,
    /// No forward progress within the stall timeout.
    Stalled,
    /// The reactor is at its concurrent-session cap.
    AtCapacity,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Frame(e) => write!(f, "{e}"),
            SessionError::UnexpectedFrame { phase, got } => {
                write!(f, "unexpected {got:?} frame in {phase}")
            }
            SessionError::PeerMismatch { expected, got } => {
                write!(f, "connection to {expected} answered as {got}")
            }
            SessionError::Io(e) => write!(f, "session i/o: {e}"),
            SessionError::Eof => write!(f, "connection closed mid-session"),
            SessionError::Stalled => write!(f, "session stalled past timeout"),
            SessionError::AtCapacity => write!(f, "reactor at max concurrent sessions"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Frame(e) => Some(e),
            SessionError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for SessionError {
    fn from(e: FrameError) -> Self {
        SessionError::Frame(e)
    }
}

impl From<pfr::wire::WireError> for SessionError {
    fn from(e: pfr::wire::WireError) -> Self {
        SessionError::Frame(FrameError::Decode(e))
    }
}

/// The outcome of one networked encounter (both sync directions).
#[derive(Debug, Default, Clone)]
#[non_exhaustive]
pub struct SessionReport {
    /// The remote peer's replica id.
    pub peer: Option<ReplicaId>,
    /// Report for the pull direction (remote → us).
    pub pulled: Option<SyncReport>,
    /// Report for the push direction (us → remote), as observed from the
    /// number of items we served.
    pub served: usize,
    /// The encounter clock the session ran under — the initiator's on
    /// both sides, fixed by the hello exchange. `None` when the session
    /// died before the clock was agreed (nothing replicated either).
    pub now: Option<SimTime>,
}

/// What a driver hands back for one session: whatever progress it made
/// before it completed or failed, plus the typed error that ended it (if
/// any). Faulty links routinely kill sessions mid-transfer; the partial
/// report is what lets callers and the fault harness account for the
/// state that *did* replicate before the cut.
#[derive(Debug)]
#[non_exhaustive]
pub struct SessionOutcome {
    /// Progress made before the session ended (possibly partial).
    pub report: SessionReport,
    /// The error that terminated the session, or `None` on clean close.
    pub error: Option<SessionError>,
}

impl SessionOutcome {
    /// An outcome that failed before any machine existed (a dial error,
    /// a refused registration).
    pub fn failed(error: SessionError) -> SessionOutcome {
        SessionOutcome {
            report: SessionReport::default(),
            error: Some(error),
        }
    }

    /// True when the session completed cleanly.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Converts to a `Result`, discarding partial progress on error.
    pub fn into_result(self) -> Result<SessionReport, SessionError> {
        match self.error {
            None => Ok(self.report),
            Some(e) => Err(e),
        }
    }
}

/// Peer identification exchanged when a session opens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The sender's replica id.
    pub replica: ReplicaId,
    /// The sender's clock, so both sides stamp the encounter identically.
    pub now: SimTime,
}

impl Encode for Hello {
    fn encode(&self, w: &mut WireWriter) {
        self.replica.encode(w);
        w.put_varint(self.now.as_secs());
    }
}

impl Decode for Hello {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, pfr::wire::WireError> {
        Ok(Hello {
            replica: ReplicaId::decode(r)?,
            now: SimTime::from_secs(r.get_varint()?),
        })
    }
}

/// What one `on_frame` step accomplished.
#[derive(Debug, PartialEq, Eq)]
pub enum Progress {
    /// More frames expected; keep the connection registered.
    Continue,
    /// A two-direction sync session completed; events are emitted and the
    /// node persisted. An initiator machine is finished; a responder
    /// machine has already reset to idle for the next session on this
    /// connection.
    SessionComplete,
    /// A gossip exchange completed (initiator side; the responder answers
    /// gossip from idle without leaving it).
    GossipComplete,
}

/// Which protocol role this machine plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    Initiator,
    Responder,
    Gossip,
}

/// The hello gate: nothing but `Hello` and `Gossip` passes until it is
/// `Open`, and the halves learn the peer's id from it.
#[derive(Clone, Copy, Debug)]
enum Gate {
    /// Responder between sessions: awaiting a `Hello` (or a `Gossip`
    /// exchange, answered without leaving idle). Pooled connections park
    /// here.
    Idle,
    /// Initiator sent its `Hello` — with its request right behind when
    /// the peer is remembered from this connection's last session.
    AwaitHelloReply(Option<ReplicaId>),
    /// Both hellos exchanged: the halves run.
    Open(ReplicaId),
    /// Gossip initiator: view sent, awaiting the peer's view.
    AwaitGossipReply,
    /// Terminal: session finished cleanly (initiator) or died.
    Closed,
}

impl Gate {
    fn name(&self) -> &'static str {
        match self {
            Gate::Idle => "AwaitHello",
            Gate::AwaitHelloReply(_) => "AwaitHelloReply",
            Gate::Open(_) => "Open",
            Gate::AwaitGossipReply => "GossipAwaitReply",
            Gate::Closed => "Closed",
        }
    }
}

/// The serve half: this node is the source.
enum Serve {
    /// Not open: an initiator that has not finished pulling yet.
    Pending,
    /// Awaiting the peer's request frame.
    AwaitRequest,
    /// Resync demanded, awaiting the retransmitted full request.
    AwaitResyncRequest,
    /// Batch sent, awaiting the peer's `SyncDone`.
    AwaitDone,
    /// The peer acknowledged the batch.
    Done,
}

impl Serve {
    fn name(&self) -> &'static str {
        match self {
            Serve::Pending => "ServePending",
            Serve::AwaitRequest => "ServeAwaitRequest",
            Serve::AwaitResyncRequest => "ServeAwaitResyncRequest",
            Serve::AwaitDone => "ServeAwaitDone",
            Serve::Done => "ServeDone",
        }
    }
}

/// The connection's frame encoder, with one session's byte and
/// buffer-reuse accounting behind the `transport_sync` and
/// `data_plane_reuse` events.
#[derive(Default)]
struct Tally {
    scratch: EncodeScratch,
    /// Frame payload bytes both ways.
    frame_bytes: u64,
    /// Frame payload bytes received.
    bytes_decoded: u64,
    /// Item payloads decoded as slices of a batch's receive buffer.
    payload_shares: u64,
    frames_in: u64,
    /// The encode scratch's counters when the session began.
    reuses_before: u64,
    encoded_before: u64,
}

impl Tally {
    /// Encodes one frame onto the outbox, counting its payload.
    fn put<T: Encode>(
        &mut self,
        out: &mut Vec<u8>,
        frame_type: FrameType,
        value: &T,
    ) -> Result<(), SessionError> {
        let bytes = self.scratch.encode(value);
        self.frame_bytes += bytes.len() as u64;
        Ok(append_frame(out, frame_type, bytes)?)
    }

    /// Zeroes the counts for the connection's next session.
    fn restart(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        *self = Tally {
            reuses_before: scratch.reuses(),
            encoded_before: scratch.bytes_encoded(),
            scratch,
            ..Tally::default()
        };
    }
}

/// One connection's protocol driver. Feed it frames with [`on_frame`]
/// (and checksum failures with [`on_checksum_error`]); it appends outbound
/// frames to the `out` buffer the driver flushes.
///
/// [`on_frame`]: SessionMachine::on_frame
/// [`on_checksum_error`]: SessionMachine::on_checksum_error
pub struct SessionMachine {
    node: Arc<Mutex<DtnNode>>,
    membership: Arc<Mutex<Membership>>,
    limits: SyncLimits,
    role: Role,
    gate: Gate,
    /// The pull half (this node is the target) while its request is on
    /// the wire; the batch's report lands in `report.pulled`.
    pull: Option<exchange::Pull>,
    serve: Serve,
    report: SessionReport,
    tally: Tally,
    now: SimTime,
    reused: bool,
    started: Instant,
}

impl fmt::Debug for SessionMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionMachine")
            .field("role", &self.role)
            .field("gate", &self.gate)
            .field("pull", &self.pull_phase())
            .field("serve", &self.serve.name())
            .finish()
    }
}

impl SessionMachine {
    /// An initiator machine for a connection whose far end is not known
    /// yet: the returned buffer holds the `Hello` frame to flush first,
    /// and the request follows once the reply names the peer.
    pub fn sync_initiator(
        node: Arc<Mutex<DtnNode>>,
        membership: Arc<Mutex<Membership>>,
        limits: SyncLimits,
        now: SimTime,
        reused: bool,
    ) -> Result<(Self, Vec<u8>), SessionError> {
        SessionMachine::open_sync(node, membership, limits, now, reused, None)
    }

    /// An initiator machine for a reused connection whose previous
    /// session was with `peer`: the returned buffer holds `Hello` and the
    /// pull request together, saving a round trip. A hello reply naming
    /// anyone else fails the session with
    /// [`SessionError::PeerMismatch`].
    pub fn sync_initiator_to(
        node: Arc<Mutex<DtnNode>>,
        membership: Arc<Mutex<Membership>>,
        limits: SyncLimits,
        now: SimTime,
        peer: ReplicaId,
    ) -> Result<(Self, Vec<u8>), SessionError> {
        SessionMachine::open_sync(node, membership, limits, now, true, Some(peer))
    }

    fn open_sync(
        node: Arc<Mutex<DtnNode>>,
        membership: Arc<Mutex<Membership>>,
        limits: SyncLimits,
        now: SimTime,
        reused: bool,
        known_peer: Option<ReplicaId>,
    ) -> Result<(Self, Vec<u8>), SessionError> {
        let mut machine = SessionMachine::new(node, membership, limits, Role::Initiator);
        machine.reused = reused;
        machine.now = now;
        machine.report.now = Some(now);
        machine.report.peer = known_peer;
        let mut out = Vec::new();
        machine.send_hello(&mut out)?;
        machine.gate = Gate::AwaitHelloReply(known_peer);
        if let Some(peer) = known_peer {
            machine.begin_pull(peer, &mut out)?;
        }
        Ok((machine, out))
    }

    /// A responder machine for an accepted connection: parks in idle
    /// until the remote opens a session (or gossips).
    pub fn responder(
        node: Arc<Mutex<DtnNode>>,
        membership: Arc<Mutex<Membership>>,
        limits: SyncLimits,
    ) -> Self {
        SessionMachine::new(node, membership, limits, Role::Responder)
    }

    /// A gossip-initiator machine: the returned buffer holds our view.
    pub fn gossip_initiator(
        node: Arc<Mutex<DtnNode>>,
        membership: Arc<Mutex<Membership>>,
        now_ms: u64,
        reused: bool,
    ) -> Result<(Self, Vec<u8>), SessionError> {
        let mut machine =
            SessionMachine::new(node, membership, SyncLimits::unlimited(), Role::Gossip);
        machine.reused = reused;
        let message = machine.membership.lock().message(now_ms);
        let mut out = Vec::new();
        machine.tally.put(&mut out, FrameType::Gossip, &message)?;
        machine.gate = Gate::AwaitGossipReply;
        Ok((machine, out))
    }

    fn new(
        node: Arc<Mutex<DtnNode>>,
        membership: Arc<Mutex<Membership>>,
        limits: SyncLimits,
        role: Role,
    ) -> Self {
        SessionMachine {
            node,
            membership,
            limits,
            role,
            gate: Gate::Idle,
            pull: None,
            serve: Serve::Pending,
            report: SessionReport::default(),
            tally: Tally::default(),
            now: SimTime::ZERO,
            reused: false,
            started: Instant::now(),
        }
    }

    /// True when the machine is parked in responder idle: EOF here is a
    /// clean close, and the connection may be reaped by the idle timeout.
    pub fn is_idle(&self) -> bool {
        matches!(self.gate, Gate::Idle)
    }

    /// True once the machine reached a terminal state.
    pub fn is_closed(&self) -> bool {
        matches!(self.gate, Gate::Closed)
    }

    /// The report of the session in progress, or of the last one this
    /// machine ran (a responder's is replaced when the next hello
    /// arrives).
    pub fn report(&self) -> &SessionReport {
        &self.report
    }

    /// The machine's report paired with what ended the session.
    pub fn outcome(&self, error: Option<SessionError>) -> SessionOutcome {
        SessionOutcome {
            report: self.report.clone(),
            error,
        }
    }

    /// Sends this node's `Hello`, stamped with the session clock.
    fn send_hello(&mut self, out: &mut Vec<u8>) -> Result<(), SessionError> {
        let replica = self.node.lock().id();
        let hello = Hello {
            replica,
            now: self.now,
        };
        self.tally.put(out, FrameType::Hello, &hello)
    }

    /// Starts the pull direction: writes the request, in the node's sync
    /// mode, and awaits the reply.
    fn begin_pull(&mut self, peer: ReplicaId, out: &mut Vec<u8>) -> Result<(), SessionError> {
        // A full request borrows the node: encode it under the lock.
        let mut node = self.node.lock();
        let (pull, request) = node.open_pull(peer, self.now);
        match &request {
            Request::Full(request) => self.tally.put(out, FrameType::SyncRequest, request)?,
            Request::Digest(request) => self.tally.put(out, FrameType::SyncDigest, request)?,
        }
        self.pull = Some(pull);
        Ok(())
    }

    /// Where the pull half is: not started, awaiting its batch, or done.
    fn pull_phase(&self) -> &'static str {
        match (&self.pull, &self.report.pulled) {
            (Some(_), _) => "PullAwaitBatch",
            (None, None) => "PullPending",
            (None, Some(_)) => "PullDone",
        }
    }

    /// One frame for the pull half.
    fn on_pull_frame(
        &mut self,
        frame_type: FrameType,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        let phase = self.pull_phase();
        match (self.pull.take(), frame_type) {
            (Some(pull), FrameType::SyncBatch) => {
                // Decode through the shared-buffer path: the payload
                // becomes one `Arc<[u8]>` and every item payload in the
                // batch a slice of it.
                let backing: Arc<[u8]> = payload.into();
                let (batch, shares): (SyncBatch, u64) = from_bytes_shared(&backing)?;
                self.tally.payload_shares += shares;
                let (report, _) = self.node.lock().finish_pull(pull, batch, self.now);
                self.report.pulled = Some(report);
                append_frame(out, FrameType::SyncDone, &[])?;
                // The initiator serves only after applying what it pulled.
                if self.role == Role::Initiator {
                    self.serve = Serve::AwaitRequest;
                }
                Ok(())
            }
            (Some(mut pull), FrameType::ReconResync) => {
                // The source could not resolve the digest: retransmit the
                // full request, which borrows the node.
                let node = self.node.lock();
                let request = pull
                    .resync(node.replica())
                    .ok_or(unexpected(phase, frame_type))?;
                self.tally.put(out, FrameType::SyncRequest, &request)?;
                self.pull = Some(pull);
                Ok(())
            }
            (_, got) => Err(unexpected(phase, got)),
        }
    }

    /// Sends the serve half's reply. On the responder a batch has this
    /// node's own request right behind it: nothing in the request depends
    /// on the `SyncDone` the batch will be answered with.
    fn answer(
        &mut self,
        peer: ReplicaId,
        reply: Reply,
        out: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        let Reply::Batch(batch) = reply else {
            append_frame(out, FrameType::ReconResync, &[])?;
            self.serve = Serve::AwaitResyncRequest;
            return Ok(());
        };
        self.report.served = batch.entries.len();
        self.tally.put(out, FrameType::SyncBatch, &batch)?;
        self.serve = Serve::AwaitDone;
        if self.role == Role::Responder {
            self.begin_pull(peer, out)?;
        }
        Ok(())
    }

    /// One frame for the serve half.
    fn on_serve_frame(
        &mut self,
        peer: ReplicaId,
        frame_type: FrameType,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        let (phase, limits, now) = (self.serve.name(), self.limits, self.now);
        let serve = std::mem::replace(&mut self.serve, Serve::Pending);
        match (serve, frame_type) {
            (Serve::AwaitRequest, FrameType::SyncRequest | FrameType::SyncDigest) => {
                let request = if frame_type == FrameType::SyncDigest {
                    Request::Digest(from_bytes(payload)?)
                } else {
                    Request::Full(from_bytes(payload)?)
                };
                let reply = self.node.lock().serve(request, limits, now);
                self.answer(peer, reply, out)
            }
            (Serve::AwaitResyncRequest, FrameType::SyncRequest) => {
                let request = from_bytes(payload)?;
                let batch = self.node.lock().serve_resync(request, limits, now);
                self.answer(peer, Reply::Batch(batch), out)
            }
            (Serve::AwaitDone, FrameType::SyncDone) => {
                self.serve = Serve::Done;
                Ok(())
            }
            (_, got) => Err(unexpected(phase, got)),
        }
    }

    /// After a half stepped: the session is over once both are done.
    fn progress(&mut self) -> Progress {
        if self.report.pulled.is_none() || !matches!(self.serve, Serve::Done) {
            return Progress::Continue;
        }
        self.emit_events(true);
        self.persist();
        if self.role == Role::Responder {
            // Back to idle so the connection can carry the next session.
            self.tally.restart();
            self.reused = true;
            self.serve = Serve::Pending;
            self.gate = Gate::Idle;
        } else {
            self.gate = Gate::Closed;
        }
        Progress::SessionComplete
    }

    /// Marks the session failed after a driver-level error (I/O, EOF,
    /// timeout) or a protocol error: emits the failure events and
    /// persists whatever replicated before the cut. Idle responders,
    /// finished machines and gossip machines close silently — there is no
    /// session to account — so calling it again does nothing.
    pub fn abort(&mut self) {
        if matches!(self.gate, Gate::AwaitHelloReply(_) | Gate::Open(_)) {
            self.emit_events(false);
            self.persist();
        }
        self.gate = Gate::Closed;
    }

    fn emit_events(&self, ok: bool) {
        let (my_id, obs) = {
            let node = self.node.lock();
            (node.id().as_u64(), node.replica().observer().clone())
        };
        let peer = self.report.peer.map_or(0, |p| p.as_u64());
        let delivered = self.report.pulled.as_ref().map_or(0, |p| p.delivered);
        obs.emit(EventKind::TransportSync, || Event::TransportSync {
            replica: my_id,
            peer,
            served: self.report.served as u64,
            delivered: delivered as u64,
            frame_bytes: self.tally.frame_bytes,
            ok,
        });
        obs.emit(EventKind::DataPlaneReuse, || Event::DataPlaneReuse {
            replica: my_id,
            peer,
            scratch_reuses: self.tally.scratch.reuses() - self.tally.reuses_before,
            bytes_encoded: self.tally.scratch.bytes_encoded() - self.tally.encoded_before,
            // Every frame after a session's first is decoded in place in
            // a receive buffer the session already owns.
            pool_hits: self.tally.frames_in.saturating_sub(1),
            payload_shares: self.tally.payload_shares,
            bytes_decoded: self.tally.bytes_decoded,
        });
        obs.emit(EventKind::NetSession, || Event::NetSession {
            replica: my_id,
            peer,
            inbound: self.role == Role::Responder,
            reused: self.reused,
            ok,
            wall_micros: self.started.elapsed().as_micros() as u64,
        });
    }

    /// Persists a durable node after a session — even a failed one:
    /// whatever replicated before the cut is worth keeping, and replay is
    /// idempotent. Non-durable nodes are a free no-op. A persist failure
    /// must not kill the driver (the in-memory state is still good), so
    /// it surfaces as an [`Event::StoreFault`] instead of an error.
    fn persist(&self) {
        let Some(now) = self.report.now else { return };
        let mut node = self.node.lock();
        if let Err(e) = node.persist(now) {
            let obs = node.replica().observer().clone();
            drop(node);
            obs.emit(EventKind::StoreFault, || Event::StoreFault {
                op: "persist",
                detail: e.to_string(),
            });
        }
    }

    /// A received frame failed its CRC; the stream is still aligned. With
    /// the serve half awaiting a request and no pull in flight the damaged
    /// frame can only have been that request: demand a resync, which a
    /// digest-mode peer meets by retransmitting its full request. Anywhere
    /// else it is fatal: a damaged batch cannot be told from a request.
    pub fn on_checksum_error(
        &mut self,
        error: FrameError,
        out: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        match (&self.gate, &self.serve, &self.pull) {
            (&Gate::Open(peer), Serve::AwaitRequest, None) => self.answer(peer, Reply::Resync, out),
            _ => Err(SessionError::Frame(error)),
        }
    }

    /// Feeds one decoded frame into the machine. `now_ms` is the driver's
    /// monotonic clock in milliseconds (membership freshness); outbound
    /// frames are appended to `out`.
    ///
    /// # Errors
    ///
    /// A [`SessionError`] ends the session; the caller must call
    /// [`abort`](SessionMachine::abort) before dropping the machine so
    /// the failure is accounted.
    pub fn on_frame(
        &mut self,
        frame_type: FrameType,
        payload: &[u8],
        now_ms: u64,
        out: &mut Vec<u8>,
    ) -> Result<Progress, SessionError> {
        self.tally.frame_bytes += payload.len() as u64;
        self.tally.bytes_decoded += payload.len() as u64;
        self.tally.frames_in += 1;
        match frame_type {
            FrameType::Hello => self.on_hello(payload, out),
            FrameType::Gossip => self.on_gossip(payload, now_ms, out),
            // Every other frame belongs to one half, and only once the
            // hellos are through.
            _ => {
                let Gate::Open(peer) = self.gate else {
                    return Err(unexpected(self.gate.name(), frame_type));
                };
                match frame_type {
                    FrameType::SyncBatch | FrameType::ReconResync => {
                        self.on_pull_frame(frame_type, payload, out)?
                    }
                    _ => self.on_serve_frame(peer, frame_type, payload, out)?,
                }
                Ok(self.progress())
            }
        }
    }

    fn on_hello(&mut self, payload: &[u8], out: &mut Vec<u8>) -> Result<Progress, SessionError> {
        match self.gate {
            Gate::Idle => {
                // Adopt the initiator's clock for this encounter.
                let hello: Hello = from_bytes(payload)?;
                self.report = SessionReport {
                    peer: Some(hello.replica),
                    now: Some(hello.now),
                    ..SessionReport::default()
                };
                self.now = hello.now;
                self.started = Instant::now();
                self.send_hello(out)?;
                // Direction 1: the initiator pulls from us.
                self.gate = Gate::Open(hello.replica);
                self.serve = Serve::AwaitRequest;
            }
            Gate::AwaitHelloReply(expected) => {
                let hello: Hello = from_bytes(payload)?;
                self.report.peer = Some(hello.replica);
                self.gate = Gate::Open(hello.replica);
                match expected {
                    // Direction 1: we pull from the responder.
                    None => self.begin_pull(hello.replica, out)?,
                    // The request is already on the wire, addressed to
                    // whoever this connection reached last time.
                    Some(expected) if expected == hello.replica => {}
                    Some(expected) => {
                        return Err(SessionError::PeerMismatch {
                            expected,
                            got: hello.replica,
                        })
                    }
                }
            }
            _ => return Err(unexpected(self.gate.name(), FrameType::Hello)),
        }
        Ok(Progress::Continue)
    }

    fn on_gossip(
        &mut self,
        payload: &[u8],
        now_ms: u64,
        out: &mut Vec<u8>,
    ) -> Result<Progress, SessionError> {
        match self.gate {
            Gate::Idle => {
                // Gossip is answered from idle: merge the view, reply
                // with ours, stay parked.
                let message: GossipMessage = from_bytes(payload)?;
                let reply = {
                    let mut membership = self.membership.lock();
                    membership.merge(&message, now_ms);
                    membership.message(now_ms)
                };
                self.tally.put(out, FrameType::Gossip, &reply)?;
                Ok(Progress::Continue)
            }
            Gate::AwaitGossipReply => {
                let message: GossipMessage = from_bytes(payload)?;
                self.membership.lock().merge(&message, now_ms);
                self.gate = Gate::Closed;
                Ok(Progress::GossipComplete)
            }
            _ => Err(unexpected(self.gate.name(), FrameType::Gossip)),
        }
    }
}

fn unexpected(phase: &'static str, got: FrameType) -> SessionError {
    SessionError::UnexpectedFrame { phase, got }
}

/// Appends one encoded frame (header + payload) to an outbox in a single
/// reserve — the byte layout is exactly what
/// [`write_frame`](crate::frame::write_frame) produces.
fn append_frame(
    out: &mut Vec<u8>,
    frame_type: FrameType,
    payload: &[u8],
) -> Result<(), FrameError> {
    let header = frame_header(frame_type, payload)?;
    out.reserve(header.len() + payload.len());
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameAccum;
    use crate::membership::MembershipConfig;
    use dtn::PolicyKind;
    use obs::{MemorySink, Obs};

    fn node(id: u64, addr: &str) -> Arc<Mutex<DtnNode>> {
        Arc::new(Mutex::new(DtnNode::new(
            ReplicaId::new(id),
            addr,
            PolicyKind::Epidemic,
        )))
    }

    fn membership(id: u64) -> Arc<Mutex<Membership>> {
        Arc::new(Mutex::new(Membership::new(
            id,
            format!("m{id}:1"),
            MembershipConfig::default(),
        )))
    }

    fn initiator(node: &Arc<Mutex<DtnNode>>, at: u64) -> (SessionMachine, Vec<u8>) {
        SessionMachine::sync_initiator(
            Arc::clone(node),
            membership(1),
            SyncLimits::unlimited(),
            SimTime::from_secs(at),
            false,
        )
        .unwrap()
    }

    fn responder(node: &Arc<Mutex<DtnNode>>) -> SessionMachine {
        SessionMachine::responder(Arc::clone(node), membership(2), SyncLimits::unlimited())
    }

    /// What crossed the wire while two machines were driven to the end.
    #[derive(Default, Debug, PartialEq)]
    struct Wire {
        /// One-way flushes, both directions.
        hops: usize,
        to_responder: Vec<u8>,
        to_initiator: Vec<u8>,
    }

    /// Feeds everything in `bytes` to `machine`, returning what it sends.
    fn feed(machine: &mut SessionMachine, bytes: &[u8], done: &mut bool) -> Vec<u8> {
        let mut accum = FrameAccum::new();
        accum.extend(bytes);
        let mut out = Vec::new();
        while let Some((ft, payload)) = accum.next_frame().expect("decode") {
            *done |=
                machine.on_frame(ft, payload, 0, &mut out).expect("machine") != Progress::Continue;
        }
        out
    }

    /// Drives two machines against each other entirely in memory: each
    /// side's flush is handed to the other whole, the way a socket hop
    /// would, until both report their session complete.
    fn drive(a: &mut SessionMachine, opening: Vec<u8>, b: &mut SessionMachine) -> Wire {
        let mut wire = Wire::default();
        // A responder answers gossip without leaving idle, so only the
        // initiator reports that exchange complete.
        let (mut done_a, mut done_b) = (false, a.role == Role::Gossip);
        let mut to_b = opening;
        while !(done_a && done_b) {
            assert!(!to_b.is_empty(), "deadlock: nothing in flight");
            wire.hops += 1;
            wire.to_responder.extend_from_slice(&to_b);
            let to_a = feed(b, &to_b, &mut done_b);
            if to_a.is_empty() {
                break;
            }
            wire.hops += 1;
            wire.to_initiator.extend_from_slice(&to_a);
            to_b = feed(a, &to_a, &mut done_a);
        }
        assert!(done_a && done_b, "session ended with a side unfinished");
        wire
    }

    fn pair_with_mail() -> (Arc<Mutex<DtnNode>>, Arc<Mutex<DtnNode>>) {
        let (node_a, node_b) = (node(1, "a"), node(2, "b"));
        node_a
            .lock()
            .send("b", b"ping".to_vec(), SimTime::ZERO)
            .unwrap();
        node_b
            .lock()
            .send("a", b"pong".to_vec(), SimTime::ZERO)
            .unwrap();
        (node_a, node_b)
    }

    #[test]
    fn fresh_session_takes_six_hops_and_delivers_both_ways() {
        let (node_a, node_b) = pair_with_mail();
        let (mut init, opening) = initiator(&node_a, 60);
        let mut resp = responder(&node_b);
        let wire = drive(&mut init, opening, &mut resp);
        assert_eq!(wire.hops, 6);
        assert_eq!(node_a.lock().inbox().len(), 1);
        assert_eq!(node_b.lock().inbox().len(), 1);
        assert!(init.is_closed());
        assert!(resp.is_idle(), "responder resets for the next session");
        assert_eq!(resp.report().peer, Some(ReplicaId::new(1)));
        assert_eq!(resp.report().served, 1, "the report outlives the reset");
    }

    #[test]
    fn remembered_peer_takes_four_hops_with_the_same_bytes() {
        let (fresh_a, fresh_b) = pair_with_mail();
        let (mut init, opening) = initiator(&fresh_a, 60);
        let fresh = drive(&mut init, opening, &mut responder(&fresh_b));

        let (node_a, node_b) = pair_with_mail();
        let (mut init, opening) = SessionMachine::sync_initiator_to(
            Arc::clone(&node_a),
            membership(1),
            SyncLimits::unlimited(),
            SimTime::from_secs(60),
            ReplicaId::new(2),
        )
        .unwrap();
        let known = drive(&mut init, opening, &mut responder(&node_b));

        assert_eq!(known.hops, 4);
        assert_eq!(known.to_responder, fresh.to_responder);
        assert_eq!(known.to_initiator, fresh.to_initiator);
        assert_eq!(node_a.lock().inbox().len(), 1);
        assert_eq!(node_b.lock().inbox().len(), 1);
    }

    #[test]
    fn hello_reply_from_someone_else_is_a_typed_failure() {
        let (node_a, node_b) = pair_with_mail();
        let (mut init, opening) = SessionMachine::sync_initiator_to(
            Arc::clone(&node_a),
            membership(1),
            SyncLimits::unlimited(),
            SimTime::from_secs(60),
            ReplicaId::new(9),
        )
        .unwrap();
        let mut done = false;
        let reply = feed(&mut responder(&node_b), &opening, &mut done);
        let mut accum = FrameAccum::new();
        accum.extend(&reply);
        let (ft, payload) = accum.next_frame().unwrap().unwrap();
        let err = init.on_frame(ft, payload, 0, &mut Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            SessionError::PeerMismatch { expected, got }
                if expected == ReplicaId::new(9) && got == ReplicaId::new(2)
        ));
    }

    #[test]
    fn responder_machine_carries_back_to_back_sessions() {
        let node_b = node(2, "b");
        let mut resp = responder(&node_b);
        for round in 1..=3u64 {
            let node_a = node(round + 10, "a");
            node_a
                .lock()
                .send("b", format!("msg {round}").into_bytes(), SimTime::ZERO)
                .unwrap();
            let (mut init, opening) = initiator(&node_a, 60 * round);
            drive(&mut init, opening, &mut resp);
            assert!(resp.is_idle());
        }
        assert_eq!(node_b.lock().inbox().len(), 3);
    }

    #[test]
    fn a_session_does_not_deliver_an_expired_message() {
        // The message's lifetime ended before the session's clock: its
        // origin tombstones it instead of serving it, exactly as in an
        // in-process encounter at the same clock.
        let pair = || {
            let (node_a, node_b) = (node(1, "a"), node(2, "b"));
            let lifetime = pfr::SimDuration::from_secs(60);
            node_a
                .lock()
                .send_with_lifetime("b", b"late".to_vec(), SimTime::ZERO, lifetime)
                .unwrap();
            (node_a, node_b)
        };
        let (node_a, node_b) = pair();
        let (mut init, opening) = initiator(&node_a, 120);
        drive(&mut init, opening, &mut responder(&node_b));
        assert!(node_b.lock().inbox().is_empty(), "socket session delivered");

        let (node_a, node_b) = pair();
        let later = SimTime::from_secs(120);
        node_b
            .lock()
            .encounter(&mut node_a.lock(), later, dtn::EncounterBudget::unlimited());
        assert!(node_b.lock().inbox().is_empty(), "encounter delivered");
    }

    #[test]
    fn gossip_exchange_merges_both_views() {
        let m1 = membership(1);
        let m2 = membership(2);
        m2.lock().observe_alive(3, "m3:1", 0);
        let (mut init, opening) =
            SessionMachine::gossip_initiator(node(1, "a"), Arc::clone(&m1), 100, false).unwrap();
        let mut resp =
            SessionMachine::responder(node(2, "b"), Arc::clone(&m2), SyncLimits::unlimited());
        let wire = drive(&mut init, opening, &mut resp);
        assert_eq!(wire.hops, 2);
        // The initiator learned the responder and its third member; the
        // responder learned the initiator.
        assert_eq!(m1.lock().view().len(), 2);
        assert!(m2.lock().view().iter().any(|p| p.replica == 1));
        assert!(resp.is_idle(), "gossip answered from idle");
    }

    /// Counts the `transport_sync` events a node's sink saw, by `ok`.
    fn sync_events(sink: &MemorySink) -> (usize, usize) {
        let events = sink.take();
        let count = |want: bool| {
            events
                .iter()
                .filter(|e| matches!(e, Event::TransportSync { ok, .. } if *ok == want))
                .count()
        };
        (count(true), count(false))
    }

    #[test]
    fn a_failed_session_is_accounted_once_and_abort_is_idempotent() {
        let node_b = node(2, "b");
        let sink = Arc::new(MemorySink::unbounded());
        node_b
            .lock()
            .replica_mut()
            .set_observer(Obs::new(sink.clone()));
        let mut resp = responder(&node_b);
        let mut out = Vec::new();

        // Idle: nothing to account.
        let err = resp
            .on_frame(FrameType::SyncBatch, &[], 0, &mut out)
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::UnexpectedFrame {
                phase: "AwaitHello",
                got: FrameType::SyncBatch
            }
        ));
        resp.abort();
        assert!(resp.is_closed());
        assert_eq!(sync_events(&sink), (0, 0));

        // Mid-session: one failure event, however often abort runs.
        let mut resp = responder(&node_b);
        let (_, opening) = initiator(&node(1, "a"), 60);
        let mut done = false;
        feed(&mut resp, &opening, &mut done);
        let err = resp
            .on_frame(FrameType::SyncDone, &[], 0, &mut out)
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::UnexpectedFrame {
                phase: "ServeAwaitRequest",
                ..
            }
        ));
        resp.abort();
        resp.abort();
        assert_eq!(sync_events(&sink), (0, 1));
    }

    fn bad_checksum() -> FrameError {
        FrameError::BadChecksum {
            expected: 1,
            got: 2,
        }
    }

    #[test]
    fn a_damaged_frame_is_recoverable_only_as_an_unanswered_request() {
        let (node_a, node_b) = pair_with_mail();

        // Responder after hello: the damaged frame was the request.
        let mut resp = responder(&node_b);
        let (mut init, opening) = initiator(&node_a, 60);
        let mut done = false;
        let hello = feed(&mut resp, &opening, &mut done);
        let mut out = Vec::new();
        resp.on_checksum_error(bad_checksum(), &mut out).unwrap();
        let mut accum = FrameAccum::new();
        accum.extend(&out);
        assert_eq!(
            accum.next_frame().unwrap().unwrap().0,
            FrameType::ReconResync
        );

        // Initiator with its request outstanding: a damaged batch cannot
        // be told from a damaged request.
        feed(&mut init, &hello, &mut done);
        assert!(matches!(
            init.on_checksum_error(bad_checksum(), &mut out),
            Err(SessionError::Frame(FrameError::BadChecksum { .. }))
        ));

        // Idle, and before the hello reply: nothing to resync.
        assert!(responder(&node_b)
            .on_checksum_error(bad_checksum(), &mut out)
            .is_err());
        let (mut init, _) = initiator(&node_a, 120);
        assert!(init.on_checksum_error(bad_checksum(), &mut out).is_err());
    }

    #[test]
    fn the_initiator_does_not_serve_before_it_has_applied_its_pull() {
        let (node_a, node_b) = pair_with_mail();
        let (mut init, opening) = initiator(&node_a, 60);
        let mut resp = responder(&node_b);
        let mut done = false;
        let hello = feed(&mut resp, &opening, &mut done);
        let request = feed(&mut init, &hello, &mut done);
        // The responder's flush is Batch then Request; hand the initiator
        // the Request first.
        let reply = feed(&mut resp, &request, &mut done);
        let mut accum = FrameAccum::new();
        accum.extend(&reply);
        let (batch_type, batch) = accum.next_frame().unwrap().unwrap();
        assert_eq!(batch_type, FrameType::SyncBatch);
        let batch = batch.to_vec();
        let (request_type, request) = accum.next_frame().unwrap().unwrap();
        assert_eq!(request_type, FrameType::SyncRequest);
        let err = init
            .on_frame(request_type, request, 0, &mut Vec::new())
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::UnexpectedFrame {
                phase: "ServePending",
                ..
            }
        ));
        // In order, the same frames are fine.
        let (node_a, _) = pair_with_mail();
        let (mut init, _) = initiator(&node_a, 60);
        feed(&mut init, &hello, &mut done);
        let mut out = Vec::new();
        init.on_frame(FrameType::SyncBatch, &batch, 0, &mut out)
            .unwrap();
        assert!(matches!(init.serve, Serve::AwaitRequest));
    }
}
