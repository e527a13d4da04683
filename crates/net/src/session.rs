//! The sync session protocol as a non-blocking state machine.
//!
//! [`transport::protocol`] drives a session with blocking reads: the call
//! stack *is* the protocol state. The reactor cannot block, so this module
//! turns that call stack into an explicit [`SessionMachine`]: the reactor
//! feeds it decoded frames as they arrive and collects outbound bytes from
//! an outbox, and the machine walks exactly the same transitions — hello
//! exchange, pull direction (full or digest mode with every fallback arm),
//! serve direction, role swap — with byte-for-byte identical wire traffic
//! and identical digest accounting. One machine handles both roles plus
//! the gossip exchange, and a responder machine resets to its idle state
//! after each session so a pooled connection can carry many sessions.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use dtn::{DigestQueryState, DigestResponse, DigestSessionState, DtnNode};
use obs::Event;
use parking_lot::Mutex;
use pfr::digest::{DigestRequest, VersionAnswer, VersionQuery};
use pfr::sync::SyncBatch;
use pfr::wire::{from_bytes, from_bytes_shared, Encode, EncodeScratch};
use pfr::{SimTime, SyncLimits, SyncMode};
use transport::frame::{frame_header, FrameError, FrameType};
use transport::protocol::Hello;
use transport::SessionReport;

use crate::membership::Membership;
use crate::wire::GossipMessage;

/// Errors that terminate a session machine.
#[derive(Debug)]
pub enum SessionError {
    /// Framing or payload-decode failure.
    Frame(FrameError),
    /// The peer sent a frame the current protocol state cannot accept.
    UnexpectedFrame {
        /// The protocol state the machine was in.
        phase: &'static str,
        /// What arrived.
        got: FrameType,
    },
    /// Socket I/O failure (reported by the reactor).
    Io(std::io::Error),
    /// The connection closed mid-session.
    Eof,
    /// No forward progress within the stall timeout.
    Stalled,
    /// The peer's write queue stayed over its bound past the stall
    /// timeout.
    Backpressure,
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
            SessionError::Io(e) => write!(f, "session i/o: {e}"),
            SessionError::Eof => write!(f, "connection closed mid-session"),
            SessionError::Stalled => write!(f, "session stalled past timeout"),
            SessionError::Backpressure => write!(f, "write queue over bound past timeout"),
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

/// Digest-mode pull accounting, alive from `SyncDigest` sent to commit.
/// Mirrors the locals of `transport::protocol::pull_digest`.
struct DigestPull {
    state: DigestSessionState,
    digest_bytes: u64,
    fallback_rounds: u64,
    false_positives: u64,
    knowledge_shared: bool,
}

/// The explicit protocol state (what the blocking driver keeps on its call
/// stack). `None` digest state in `PullAwaitFirst` means a full-mode pull.
enum Phase {
    /// Responder idle: awaiting a `Hello` (or a `Gossip` exchange, which
    /// is answered without leaving idle). Pooled connections park here.
    AwaitHello,
    /// Initiator sent its `Hello`, awaiting the reply.
    AwaitHelloReply,
    /// Pull direction: request sent, awaiting the first response frame.
    PullAwaitFirst(Option<Box<DigestPull>>),
    /// Digest pull: `RangeResponse` answer sent, awaiting batch or resync.
    PullAwaitAfterAnswer(Box<DigestPull>),
    /// Digest pull: full request retransmitted after a resync demand,
    /// awaiting the batch.
    PullAwaitAfterResync(Box<DigestPull>),
    /// Serve direction: awaiting the peer's request frame.
    ServeAwaitRequest,
    /// Digest serve: `RangeRequest` sent, awaiting the exact answer.
    ServeAwaitAnswer(DigestQueryState),
    /// Digest serve: resync demanded, awaiting the retransmitted full
    /// request.
    ServeAwaitResyncRequest,
    /// Serve direction: batch sent, awaiting the peer's `SyncDone`.
    ServeAwaitDone,
    /// Gossip initiator: view sent, awaiting the peer's view.
    GossipAwaitReply,
    /// Terminal: session finished cleanly (initiator) or died.
    Closed,
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::AwaitHello => "AwaitHello",
            Phase::AwaitHelloReply => "AwaitHelloReply",
            Phase::PullAwaitFirst(_) => "PullAwaitFirst",
            Phase::PullAwaitAfterAnswer(_) => "PullAwaitAfterAnswer",
            Phase::PullAwaitAfterResync(_) => "PullAwaitAfterResync",
            Phase::ServeAwaitRequest => "ServeAwaitRequest",
            Phase::ServeAwaitAnswer { .. } => "ServeAwaitAnswer",
            Phase::ServeAwaitResyncRequest => "ServeAwaitResyncRequest",
            Phase::ServeAwaitDone => "ServeAwaitDone",
            Phase::GossipAwaitReply => "GossipAwaitReply",
            Phase::Closed => "Closed",
        }
    }
}

/// One session's protocol driver. Feed it frames with [`on_frame`]
/// (and checksum failures with [`on_checksum_error`]); it appends outbound
/// frames to the `out` buffer the reactor flushes.
///
/// [`on_frame`]: SessionMachine::on_frame
/// [`on_checksum_error`]: SessionMachine::on_checksum_error
pub struct SessionMachine {
    node: Arc<Mutex<DtnNode>>,
    membership: Arc<Mutex<Membership>>,
    limits: SyncLimits,
    role: Role,
    phase: Phase,
    report: SessionReport,
    scratch: EncodeScratch,
    frame_bytes: u64,
    bytes_decoded: u64,
    payload_shares: u64,
    now: SimTime,
    inbound: bool,
    reused: bool,
    started: Instant,
}

impl fmt::Debug for SessionMachine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionMachine")
            .field("role", &self.role)
            .field("phase", &self.phase.name())
            .field("inbound", &self.inbound)
            .finish()
    }
}

impl SessionMachine {
    /// An initiator machine: the returned buffer already holds the
    /// `Hello` frame to flush first.
    pub fn sync_initiator(
        node: Arc<Mutex<DtnNode>>,
        membership: Arc<Mutex<Membership>>,
        limits: SyncLimits,
        now: SimTime,
        reused: bool,
    ) -> Result<(Self, Vec<u8>), SessionError> {
        let mut machine = SessionMachine::new(node, membership, limits, Role::Initiator, false);
        machine.reused = reused;
        machine.now = now;
        machine.report.now = Some(now);
        let my_id = machine.node.lock().id();
        let mut out = Vec::new();
        machine.send(
            &mut out,
            FrameType::Hello,
            &Hello {
                replica: my_id,
                now,
            },
        )?;
        machine.phase = Phase::AwaitHelloReply;
        Ok((machine, out))
    }

    /// A responder machine for an accepted connection: parks in idle
    /// until the remote opens a session (or gossips).
    pub fn responder(
        node: Arc<Mutex<DtnNode>>,
        membership: Arc<Mutex<Membership>>,
        limits: SyncLimits,
    ) -> Self {
        SessionMachine::new(node, membership, limits, Role::Responder, true)
    }

    /// A gossip-initiator machine: the returned buffer holds our view.
    pub fn gossip_initiator(
        node: Arc<Mutex<DtnNode>>,
        membership: Arc<Mutex<Membership>>,
        now_ms: u64,
        reused: bool,
    ) -> Result<(Self, Vec<u8>), SessionError> {
        let mut machine = SessionMachine::new(
            node,
            membership,
            SyncLimits::unlimited(),
            Role::Gossip,
            false,
        );
        machine.reused = reused;
        let message = machine.membership.lock().message(now_ms);
        let mut out = Vec::new();
        machine.send(&mut out, FrameType::Gossip, &message)?;
        machine.phase = Phase::GossipAwaitReply;
        Ok((machine, out))
    }

    fn new(
        node: Arc<Mutex<DtnNode>>,
        membership: Arc<Mutex<Membership>>,
        limits: SyncLimits,
        role: Role,
        inbound: bool,
    ) -> Self {
        SessionMachine {
            node,
            membership,
            limits,
            role,
            phase: Phase::AwaitHello,
            report: SessionReport::default(),
            scratch: EncodeScratch::default(),
            frame_bytes: 0,
            bytes_decoded: 0,
            payload_shares: 0,
            now: SimTime::ZERO,
            inbound,
            reused: false,
            started: Instant::now(),
        }
    }

    /// True when the machine is parked in responder idle: EOF here is a
    /// clean close, and the connection may be reaped by the idle timeout.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::AwaitHello)
    }

    /// True once the machine reached a terminal state.
    pub fn is_closed(&self) -> bool {
        matches!(self.phase, Phase::Closed)
    }

    /// The last completed (or partially completed) session's report.
    pub fn report(&self) -> &SessionReport {
        &self.report
    }

    /// Encodes and appends one frame to the outbox, returning the payload
    /// length (digest accounting needs it).
    fn send<T: Encode>(
        &mut self,
        out: &mut Vec<u8>,
        frame_type: FrameType,
        value: &T,
    ) -> Result<u64, SessionError> {
        let bytes = self.scratch.encode(value);
        let len = bytes.len() as u64;
        self.frame_bytes += len;
        append_frame(out, frame_type, bytes)?;
        Ok(len)
    }

    fn send_empty(&mut self, out: &mut Vec<u8>, frame_type: FrameType) -> Result<(), SessionError> {
        append_frame(out, frame_type, &[])?;
        Ok(())
    }

    /// Decodes a batch through the shared-buffer path and applies it.
    fn apply_batch(&mut self, payload: &[u8]) -> Result<(), SessionError> {
        let backing: Arc<[u8]> = payload.into();
        let (batch, shares): (SyncBatch, u64) = from_bytes_shared(&backing)?;
        self.payload_shares += shares;
        let report = self.node.lock().apply_sync(batch, self.now);
        self.report.pulled = Some(report);
        Ok(())
    }

    /// Starts the pull direction: writes the request (full or digest
    /// shape) and parks awaiting the first response frame.
    fn begin_pull(&mut self, out: &mut Vec<u8>) -> Result<(), SessionError> {
        let peer = self.report.peer.expect("peer known after hello");
        if self.node.lock().sync_mode() == SyncMode::Digest {
            let (request, state) = self.node.lock().begin_digest_session(peer, self.now);
            let digest_bytes = self.send(out, FrameType::SyncDigest, &request)?;
            let knowledge_shared = state.summary_kind() != "bloom";
            self.phase = Phase::PullAwaitFirst(Some(Box::new(DigestPull {
                state,
                digest_bytes,
                fallback_rounds: 0,
                false_positives: 0,
                knowledge_shared,
            })));
        } else {
            // Full mode: the request borrows the node's knowledge, so
            // encode it while the lock is held.
            let request_bytes = {
                let mut node = self.node.lock();
                let request = node.begin_sync_session(peer, self.now);
                self.scratch.encode(&request)
            };
            self.frame_bytes += request_bytes.len() as u64;
            append_frame(out, FrameType::SyncRequest, request_bytes)?;
            self.phase = Phase::PullAwaitFirst(None);
        }
        Ok(())
    }

    /// Serves a digest resync demand (ours or relayed): retransmits the
    /// full request, charging its bytes to digest mode.
    fn retransmit_full(
        &mut self,
        pull: &mut DigestPull,
        out: &mut Vec<u8>,
    ) -> Result<(), SessionError> {
        pull.fallback_rounds += 1;
        pull.knowledge_shared = true;
        // The request borrows the node's knowledge and filter, so encode
        // it while the lock is held.
        let request_bytes = {
            let node = self.node.lock();
            self.scratch
                .encode(&node.digest_resync_request(&mut pull.state))
        };
        pull.digest_bytes += 1 + request_bytes.len() as u64;
        self.frame_bytes += request_bytes.len() as u64;
        append_frame(out, FrameType::SyncRequest, request_bytes)?;
        Ok(())
    }

    /// Finishes the pull direction: `SyncDone` out, digest commit, then
    /// the role decides what follows.
    fn finish_pull(
        &mut self,
        pull: Option<Box<DigestPull>>,
        out: &mut Vec<u8>,
    ) -> Result<Progress, SessionError> {
        self.send_empty(out, FrameType::SyncDone)?;
        if let Some(pull) = pull {
            let peer = self.report.peer.expect("peer known after hello");
            self.node.lock().commit_digest_session(
                peer,
                pull.state,
                pull.knowledge_shared,
                pull.digest_bytes,
                pull.fallback_rounds,
                pull.false_positives,
            );
        }
        match self.role {
            // Initiator pulls first, then serves the responder's pull.
            Role::Initiator => {
                self.phase = Phase::ServeAwaitRequest;
                Ok(Progress::Continue)
            }
            // The responder's pull is the session's second direction:
            // done. Reset to idle so the pooled connection can carry the
            // next session.
            Role::Responder => {
                self.complete(true);
                Ok(Progress::SessionComplete)
            }
            Role::Gossip => unreachable!("gossip machines never pull"),
        }
    }

    /// Finishes the serve direction (the peer's `SyncDone` arrived).
    fn finish_serve(&mut self, out: &mut Vec<u8>) -> Result<Progress, SessionError> {
        match self.role {
            // Initiator serves second: session complete.
            Role::Initiator => {
                self.complete(true);
                Ok(Progress::SessionComplete)
            }
            // The responder serves first, then pulls.
            Role::Responder => {
                self.begin_pull(out)?;
                Ok(Progress::Continue)
            }
            Role::Gossip => unreachable!("gossip machines never serve"),
        }
    }

    /// Emits the session events, persists the node, and either closes
    /// (initiator) or resets to idle (responder).
    fn complete(&mut self, ok: bool) {
        self.emit_events(ok);
        self.persist();
        match self.role {
            Role::Responder if ok => {
                self.report = SessionReport::default();
                self.frame_bytes = 0;
                self.bytes_decoded = 0;
                self.payload_shares = 0;
                self.started = Instant::now();
                self.reused = true;
                self.phase = Phase::AwaitHello;
            }
            _ => self.phase = Phase::Closed,
        }
    }

    /// Marks the session failed after a reactor-level error (I/O, EOF,
    /// timeout) or a protocol error: emits the failure events and
    /// persists whatever replicated before the cut. Idle responders and
    /// gossip machines close silently — there is no session to account.
    pub fn abort(&mut self) {
        let idle = self.is_idle() || self.is_closed();
        if !idle && self.role != Role::Gossip {
            self.emit_events(false);
            self.persist();
        }
        self.phase = Phase::Closed;
    }

    fn emit_events(&self, ok: bool) {
        let (my_id, obs) = {
            let node = self.node.lock();
            (node.id(), node.replica().observer().clone())
        };
        let peer = self.report.peer.map(|p| p.as_u64()).unwrap_or(0);
        let served = self.report.served as u64;
        let delivered = self
            .report
            .pulled
            .as_ref()
            .map(|p| p.delivered as u64)
            .unwrap_or(0);
        let frame_bytes = self.frame_bytes;
        obs.emit(|| Event::TransportSync {
            replica: my_id.as_u64(),
            peer,
            served,
            delivered,
            frame_bytes,
            ok,
        });
        let (inbound, reused) = (self.inbound, self.reused);
        let wall_micros = self.started.elapsed().as_micros() as u64;
        obs.emit(|| Event::NetSession {
            replica: my_id.as_u64(),
            peer,
            inbound,
            reused,
            ok,
            wall_micros,
        });
    }

    /// Persist failures must not kill the reactor; they surface as
    /// `StoreFault` events, exactly like the blocking transport.
    fn persist(&self) {
        let Some(now) = self.report.now else { return };
        let mut node = self.node.lock();
        if let Err(e) = node.persist(now) {
            let obs = node.replica().observer().clone();
            drop(node);
            obs.emit(|| Event::StoreFault {
                op: "persist",
                detail: e.to_string(),
            });
        }
    }

    /// A received frame failed its CRC. The payload was fully consumed,
    /// so the stream is still aligned; a source awaiting a request
    /// answers `ReconResync` and recovers (the digest-mode peer
    /// retransmits its full request). Every other state treats the
    /// corruption as fatal.
    pub fn on_checksum_error(
        &mut self,
        error: FrameError,
        out: &mut Vec<u8>,
    ) -> Result<Progress, SessionError> {
        match self.phase {
            Phase::ServeAwaitRequest => {
                self.send_empty(out, FrameType::ReconResync)?;
                self.phase = Phase::ServeAwaitResyncRequest;
                Ok(Progress::Continue)
            }
            _ => Err(SessionError::Frame(error)),
        }
    }

    /// Feeds one decoded frame into the machine. `now_ms` is the local
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
        self.frame_bytes += payload.len() as u64;
        self.bytes_decoded += payload.len() as u64;
        match std::mem::replace(&mut self.phase, Phase::Closed) {
            Phase::AwaitHello => match frame_type {
                FrameType::Hello => {
                    // Adopt the initiator's clock for this encounter.
                    let hello: Hello = from_bytes(payload)?;
                    self.report.peer = Some(hello.replica);
                    self.report.now = Some(hello.now);
                    self.now = hello.now;
                    let my_id = self.node.lock().id();
                    self.send(
                        out,
                        FrameType::Hello,
                        &Hello {
                            replica: my_id,
                            now: hello.now,
                        },
                    )?;
                    // Direction 1: the initiator pulls from us.
                    self.phase = Phase::ServeAwaitRequest;
                    Ok(Progress::Continue)
                }
                FrameType::Gossip => {
                    // Gossip is answered from idle: merge the view, reply
                    // with ours, stay parked.
                    let message: GossipMessage = from_bytes(payload)?;
                    let reply = {
                        let mut membership = self.membership.lock();
                        membership.merge(&message, now_ms);
                        membership.message(now_ms)
                    };
                    self.phase = Phase::AwaitHello;
                    self.send(out, FrameType::Gossip, &reply)?;
                    Ok(Progress::Continue)
                }
                got => Err(self.unexpected_in("AwaitHello", got)),
            },
            Phase::AwaitHelloReply => match frame_type {
                FrameType::Hello => {
                    let hello: Hello = from_bytes(payload)?;
                    self.report.peer = Some(hello.replica);
                    // Direction 1: we pull from the responder.
                    self.begin_pull(out)?;
                    Ok(Progress::Continue)
                }
                got => Err(self.unexpected_in("AwaitHelloReply", got)),
            },
            Phase::PullAwaitFirst(None) => match frame_type {
                FrameType::SyncBatch => {
                    self.apply_batch(payload)?;
                    self.finish_pull(None, out)
                }
                got => Err(self.unexpected_in("PullAwaitFirst", got)),
            },
            Phase::PullAwaitFirst(Some(mut pull)) => match frame_type {
                FrameType::SyncBatch => {
                    self.apply_batch(payload)?;
                    self.finish_pull(Some(pull), out)
                }
                FrameType::RangeRequest => {
                    // Bloom path: one exact membership round screens the
                    // uncertain versions.
                    pull.fallback_rounds += 1;
                    pull.knowledge_shared = false;
                    pull.digest_bytes += payload.len() as u64;
                    let query: VersionQuery = from_bytes(payload)?;
                    let answer = self.node.lock().answer_digest_query(&query);
                    pull.false_positives =
                        (0..answer.len()).filter(|&i| !answer.known(i)).count() as u64;
                    pull.digest_bytes += self.send(out, FrameType::RangeResponse, &answer)?;
                    self.phase = Phase::PullAwaitAfterAnswer(pull);
                    Ok(Progress::Continue)
                }
                FrameType::ReconResync => {
                    self.retransmit_full(&mut pull, out)?;
                    self.phase = Phase::PullAwaitAfterResync(pull);
                    Ok(Progress::Continue)
                }
                got => Err(self.unexpected_in("PullAwaitFirst", got)),
            },
            Phase::PullAwaitAfterAnswer(mut pull) => match frame_type {
                FrameType::SyncBatch => {
                    self.apply_batch(payload)?;
                    self.finish_pull(Some(pull), out)
                }
                FrameType::ReconResync => {
                    // The source rejected the answer round; fall all the
                    // way back to a full exchange.
                    self.retransmit_full(&mut pull, out)?;
                    self.phase = Phase::PullAwaitAfterResync(pull);
                    Ok(Progress::Continue)
                }
                got => Err(self.unexpected_in("PullAwaitAfterAnswer", got)),
            },
            Phase::PullAwaitAfterResync(pull) => match frame_type {
                FrameType::SyncBatch => {
                    self.apply_batch(payload)?;
                    self.finish_pull(Some(pull), out)
                }
                got => Err(self.unexpected_in("PullAwaitAfterResync", got)),
            },
            Phase::ServeAwaitRequest => match frame_type {
                FrameType::SyncRequest => {
                    let request = from_bytes(payload)?;
                    let batch = self
                        .node
                        .lock()
                        .respond_sync(&request, self.limits, self.now);
                    self.report.served = batch.entries.len();
                    self.send(out, FrameType::SyncBatch, &batch)?;
                    self.phase = Phase::ServeAwaitDone;
                    Ok(Progress::Continue)
                }
                FrameType::SyncDigest => {
                    let request: DigestRequest = from_bytes(payload)?;
                    let response = self
                        .node
                        .lock()
                        .respond_digest(request, self.limits, self.now);
                    match response {
                        DigestResponse::Batch(batch) => {
                            self.report.served = batch.entries.len();
                            self.send(out, FrameType::SyncBatch, &batch)?;
                            self.phase = Phase::ServeAwaitDone;
                        }
                        DigestResponse::NeedVersions(pending) => {
                            self.send(out, FrameType::RangeRequest, pending.query())?;
                            self.phase = Phase::ServeAwaitAnswer(pending);
                        }
                        DigestResponse::Resync => {
                            self.send_empty(out, FrameType::ReconResync)?;
                            self.phase = Phase::ServeAwaitResyncRequest;
                        }
                    }
                    Ok(Progress::Continue)
                }
                got => Err(self.unexpected_in("ServeAwaitRequest", got)),
            },
            Phase::ServeAwaitAnswer(pending) => match frame_type {
                FrameType::RangeResponse => {
                    let answer: VersionAnswer = from_bytes(payload)?;
                    let batch = self.node.lock().respond_digest_answer(
                        pending,
                        &answer,
                        self.limits,
                        self.now,
                    );
                    match batch {
                        Some(batch) => {
                            self.report.served = batch.entries.len();
                            self.send(out, FrameType::SyncBatch, &batch)?;
                            self.phase = Phase::ServeAwaitDone;
                        }
                        None => {
                            // The answer does not cover the query;
                            // salvage with a full resync round.
                            self.send_empty(out, FrameType::ReconResync)?;
                            self.phase = Phase::ServeAwaitResyncRequest;
                        }
                    }
                    Ok(Progress::Continue)
                }
                got => Err(self.unexpected_in("ServeAwaitAnswer", got)),
            },
            Phase::ServeAwaitResyncRequest => match frame_type {
                FrameType::SyncRequest => {
                    let request = from_bytes(payload)?;
                    let batch =
                        self.node
                            .lock()
                            .respond_digest_resync(request, self.limits, self.now);
                    self.report.served = batch.entries.len();
                    self.send(out, FrameType::SyncBatch, &batch)?;
                    self.phase = Phase::ServeAwaitDone;
                    Ok(Progress::Continue)
                }
                got => Err(self.unexpected_in("ServeAwaitResyncRequest", got)),
            },
            Phase::ServeAwaitDone => match frame_type {
                FrameType::SyncDone => self.finish_serve(out),
                got => Err(self.unexpected_in("ServeAwaitDone", got)),
            },
            Phase::GossipAwaitReply => match frame_type {
                FrameType::Gossip => {
                    let message: GossipMessage = from_bytes(payload)?;
                    self.membership.lock().merge(&message, now_ms);
                    self.phase = Phase::Closed;
                    Ok(Progress::GossipComplete)
                }
                got => Err(self.unexpected_in("GossipAwaitReply", got)),
            },
            Phase::Closed => Err(self.unexpected_in("Closed", frame_type)),
        }
    }

    fn unexpected_in(&self, phase: &'static str, got: FrameType) -> SessionError {
        SessionError::UnexpectedFrame { phase, got }
    }
}

/// Appends one encoded frame (header + payload) to an outbox segment in
/// a single reserve — the byte layout is exactly what
/// [`transport::frame::write_frame`] produces on a blocking socket, so
/// the reactor's vectored flush stays wire-compatible with it.
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
    use crate::membership::MembershipConfig;
    use dtn::PolicyKind;
    use pfr::ReplicaId;
    use transport::frame::FrameAccum;

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

    /// Drives two machines against each other entirely in memory: bytes
    /// each machine emits are decoded and fed to the other until both
    /// finish — the state-machine twin of a blocking session over a pipe.
    fn drive(a: &mut SessionMachine, a_out: Vec<u8>, b: &mut SessionMachine) {
        let mut accum_a = FrameAccum::new(); // frames addressed to a
        let mut accum_b = FrameAccum::new(); // frames addressed to b
        accum_b.extend(&a_out);
        let mut done_a = false;
        let mut done_b = false;
        let mut steps = 0;
        while !(done_a && done_b) {
            steps += 1;
            assert!(steps < 100, "session did not converge");
            let mut progressed = false;
            while let Some((ft, payload)) = accum_b.next_frame().expect("decode b") {
                progressed = true;
                let mut out = Vec::new();
                match b.on_frame(ft, &payload, 0, &mut out).expect("machine b") {
                    Progress::Continue => {}
                    Progress::SessionComplete | Progress::GossipComplete => done_b = true,
                }
                accum_a.extend(&out);
            }
            while let Some((ft, payload)) = accum_a.next_frame().expect("decode a") {
                progressed = true;
                let mut out = Vec::new();
                match a.on_frame(ft, &payload, 0, &mut out).expect("machine a") {
                    Progress::Continue => {}
                    Progress::SessionComplete | Progress::GossipComplete => done_a = true,
                }
                accum_b.extend(&out);
            }
            // The responder "completes" by returning to idle; treat an
            // idle machine with no pending bytes as done.
            if !progressed {
                if b.is_idle() {
                    done_b = true;
                }
                assert!(done_a || done_b, "deadlock: no frames in flight");
            }
        }
    }

    #[test]
    fn full_session_between_machines_delivers_both_ways() {
        let node_a = node(1, "a");
        let node_b = node(2, "b");
        node_a
            .lock()
            .send("b", b"ping".to_vec(), SimTime::ZERO)
            .unwrap();
        node_b
            .lock()
            .send("a", b"pong".to_vec(), SimTime::ZERO)
            .unwrap();

        let (mut init, out) = SessionMachine::sync_initiator(
            Arc::clone(&node_a),
            membership(1),
            SyncLimits::unlimited(),
            SimTime::from_secs(60),
            false,
        )
        .unwrap();
        let mut resp =
            SessionMachine::responder(Arc::clone(&node_b), membership(2), SyncLimits::unlimited());
        drive(&mut init, out, &mut resp);

        assert_eq!(node_a.lock().inbox().len(), 1);
        assert_eq!(node_b.lock().inbox().len(), 1);
        assert!(init.is_closed());
        assert!(resp.is_idle(), "responder resets for the next session");
    }

    #[test]
    fn responder_machine_carries_back_to_back_sessions() {
        let node_b = node(2, "b");
        let mut resp =
            SessionMachine::responder(Arc::clone(&node_b), membership(2), SyncLimits::unlimited());
        for round in 1..=3u64 {
            let node_a = node(round + 10, "a");
            node_a
                .lock()
                .send("b", format!("msg {round}").into_bytes(), SimTime::ZERO)
                .unwrap();
            let (mut init, out) = SessionMachine::sync_initiator(
                Arc::clone(&node_a),
                membership(round + 10),
                SyncLimits::unlimited(),
                SimTime::from_secs(60 * round),
                false,
            )
            .unwrap();
            drive(&mut init, out, &mut resp);
            assert!(resp.is_idle());
        }
        assert_eq!(node_b.lock().inbox().len(), 3);
    }

    #[test]
    fn digest_session_between_machines_matches_blocking_accounting() {
        let node_a = node(1, "a");
        let node_b = node(2, "b");
        node_a.lock().set_sync_mode(SyncMode::Digest);
        node_b.lock().set_sync_mode(SyncMode::Digest);
        node_a
            .lock()
            .send("b", b"ping".to_vec(), SimTime::ZERO)
            .unwrap();
        node_b
            .lock()
            .send("a", b"pong".to_vec(), SimTime::ZERO)
            .unwrap();

        for round in 1..=3u64 {
            let (mut init, out) = SessionMachine::sync_initiator(
                Arc::clone(&node_a),
                membership(1),
                SyncLimits::unlimited(),
                SimTime::from_secs(60 * round),
                false,
            )
            .unwrap();
            let mut resp = SessionMachine::responder(
                Arc::clone(&node_b),
                membership(2),
                SyncLimits::unlimited(),
            );
            drive(&mut init, out, &mut resp);
        }
        assert_eq!(node_a.lock().inbox().len(), 1);
        assert_eq!(node_b.lock().inbox().len(), 1);
        let stats_a = node_a.lock().recon_stats();
        let stats_b = node_b.lock().recon_stats();
        assert_eq!(stats_a.exchanges, 3, "initiator committed every pull");
        assert_eq!(stats_b.exchanges, 3, "responder committed every pull");
        assert!(stats_a.digest_bytes > 0);
    }

    #[test]
    fn gossip_exchange_merges_both_views() {
        let m1 = membership(1);
        let m2 = membership(2);
        m2.lock().observe_alive(3, "m3:1", 0);
        let (mut init, out) =
            SessionMachine::gossip_initiator(node(1, "a"), Arc::clone(&m1), 100, false).unwrap();
        let mut resp =
            SessionMachine::responder(node(2, "b"), Arc::clone(&m2), SyncLimits::unlimited());
        drive(&mut init, out, &mut resp);
        // The initiator learned the responder and its third member; the
        // responder learned the initiator.
        assert_eq!(m1.lock().view().len(), 2);
        assert!(m2.lock().view().iter().any(|p| p.replica == 1));
        assert!(resp.is_idle(), "gossip answered from idle");
    }

    #[test]
    fn unexpected_frame_fails_the_machine() {
        let mut resp =
            SessionMachine::responder(node(2, "b"), membership(2), SyncLimits::unlimited());
        let mut out = Vec::new();
        let err = resp
            .on_frame(FrameType::SyncBatch, &[], 0, &mut out)
            .unwrap_err();
        assert!(matches!(err, SessionError::UnexpectedFrame { .. }));
        resp.abort();
        assert!(resp.is_closed());
    }
}
