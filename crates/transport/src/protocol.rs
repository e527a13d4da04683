//! The networked sync session: hello exchange plus two sync directions,
//! mirroring the paper's "two syncs per encounter, roles alternating".

use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;

use dtn::{DigestResponse, DtnNode};
use obs::{Event, Span};
use parking_lot::Mutex;
use pfr::digest::{DigestRequest, VersionAnswer, VersionQuery};
use pfr::sync::{SyncBatch, SyncReport, SyncRequest};
use pfr::wire::{
    from_bytes, from_bytes_shared, Decode, Encode, EncodeScratch, Reader as WireReader,
    Writer as WireWriter,
};
use pfr::{ReplicaId, SimTime, SyncLimits, SyncMode};

use crate::conn::Connection;
#[cfg(test)]
use crate::frame::read_frame;
use crate::frame::{read_frame_into, write_frame, BufPool, FrameError, FrameType};
use crate::peer::SessionReport;

/// Errors in the session protocol.
#[derive(Debug)]
pub enum ProtocolError {
    /// Framing or I/O failure.
    Frame(FrameError),
    /// The peer sent the wrong frame type for the protocol state.
    UnexpectedFrame {
        /// What the state machine needed.
        expected: FrameType,
        /// What arrived instead.
        got: FrameType,
    },
    /// A digest version answer did not match the query it responds to.
    AnswerMismatch,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Frame(e) => write!(f, "{e}"),
            ProtocolError::UnexpectedFrame { expected, got } => {
                write!(f, "expected {expected:?} frame, got {got:?}")
            }
            ProtocolError::AnswerMismatch => {
                write!(f, "digest version answer does not match its query")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Frame(e) => Some(e),
            ProtocolError::UnexpectedFrame { .. } | ProtocolError::AnswerMismatch => None,
        }
    }
}

impl From<FrameError> for ProtocolError {
    fn from(e: FrameError) -> Self {
        ProtocolError::Frame(e)
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

#[cfg(test)]
fn expect(reader: &mut impl Read, expected: FrameType) -> Result<Vec<u8>, ProtocolError> {
    let (frame_type, payload) = read_frame(reader)?;
    if frame_type != expected {
        return Err(ProtocolError::UnexpectedFrame {
            expected,
            got: frame_type,
        });
    }
    Ok(payload)
}

/// Per-session reusable buffers: one encode scratch for every outbound
/// frame, one receive-buffer pool for every inbound frame, and the
/// session's accounting (payloads decoded as shared slices, total frame
/// payload bytes both ways). Steady-state sessions do no per-frame
/// allocation; the counters feed [`Event::DataPlaneReuse`] and
/// [`Event::TransportSync`].
#[derive(Debug, Default)]
struct SessionBuffers {
    scratch: EncodeScratch,
    pool: BufPool,
    payload_shares: u64,
    frame_bytes: u64,
    /// Frame payload bytes received and decoded this session (the
    /// receive-side mirror of the scratch's `bytes_encoded`).
    bytes_decoded: u64,
}

/// Reads one frame of the expected type into a pooled buffer. The caller
/// returns the buffer via `pool.give` once decoded; on error it is
/// recycled here.
fn expect_pooled(
    reader: &mut impl Read,
    expected: FrameType,
    pool: &mut BufPool,
) -> Result<Vec<u8>, ProtocolError> {
    let mut payload = pool.take();
    match read_frame_into(reader, &mut payload) {
        Ok(frame_type) if frame_type == expected => Ok(payload),
        Ok(got) => {
            pool.give(payload);
            Err(ProtocolError::UnexpectedFrame { expected, got })
        }
        Err(e) => {
            pool.give(payload);
            Err(e.into())
        }
    }
}

/// Decodes a [`SyncBatch`] through the shared-buffer wire path: the frame
/// payload becomes one `Arc<[u8]>` backing buffer and every item payload
/// in the batch is a slice of it — one allocation for the whole batch
/// instead of one per item. Returns the batch and the share count.
fn decode_batch_shared(payload: &[u8]) -> Result<(SyncBatch, u64), ProtocolError> {
    let backing: Arc<[u8]> = payload.into();
    from_bytes_shared(&backing).map_err(|e| ProtocolError::Frame(FrameError::Decode(e)))
}

fn decode_payload<T: Decode>(payload: &[u8]) -> Result<T, ProtocolError> {
    from_bytes(payload).map_err(|e| ProtocolError::Frame(FrameError::Decode(e)))
}

/// Receives one frame of the expected type, folding its payload length
/// into the session byte accounting.
fn recv_expected(
    reader: &mut impl Read,
    expected: FrameType,
    bufs: &mut SessionBuffers,
) -> Result<Vec<u8>, ProtocolError> {
    let payload = expect_pooled(reader, expected, &mut bufs.pool)?;
    bufs.frame_bytes += payload.len() as u64;
    bufs.bytes_decoded += payload.len() as u64;
    Ok(payload)
}

/// Receives whatever frame comes next (the digest state machine branches
/// on the type), folding its payload length into the accounting.
fn recv_any(
    reader: &mut impl Read,
    bufs: &mut SessionBuffers,
) -> Result<(FrameType, Vec<u8>), ProtocolError> {
    let mut payload = bufs.pool.take();
    match read_frame_into(reader, &mut payload) {
        Ok(frame_type) => {
            bufs.frame_bytes += payload.len() as u64;
            bufs.bytes_decoded += payload.len() as u64;
            Ok((frame_type, payload))
        }
        Err(e) => {
            bufs.pool.give(payload);
            Err(e.into())
        }
    }
}

/// Encodes and writes one frame through the session scratch, returning
/// the payload length for digest byte accounting.
fn send_frame<T: Encode>(
    writer: &mut impl Write,
    frame_type: FrameType,
    value: &T,
    bufs: &mut SessionBuffers,
) -> Result<u64, ProtocolError> {
    let bytes = bufs.scratch.encode(value);
    let len = bytes.len() as u64;
    bufs.frame_bytes += len;
    write_frame(writer, frame_type, bytes)?;
    Ok(len)
}

/// Decodes a received batch payload through the shared-buffer path and
/// applies it to the node (target role).
fn apply_batch_payload(
    node: &Arc<Mutex<DtnNode>>,
    payload: Vec<u8>,
    now: SimTime,
    bufs: &mut SessionBuffers,
) -> Result<SyncReport, ProtocolError> {
    let (batch, shares) = decode_batch_shared(&payload)?;
    bufs.pool.give(payload);
    bufs.payload_shares += shares;
    Ok(node.lock().apply_sync(batch, now))
}

/// The outcome of one session drive: whatever progress the session made
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
    pub error: Option<ProtocolError>,
}

impl SessionOutcome {
    /// Converts to a `Result`, discarding partial progress on error.
    pub fn into_result(self) -> Result<SessionReport, ProtocolError> {
        match self.error {
            None => Ok(self.report),
            Some(e) => Err(e),
        }
    }
}

/// Drives the pull direction: this side is the target, the peer serves.
/// The node's [`SyncMode`] picks the request shape; the serve side needs
/// no negotiation because it dispatches on the request frame type.
fn pull_direction<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    node: &Arc<Mutex<DtnNode>>,
    peer: ReplicaId,
    now: SimTime,
    bufs: &mut SessionBuffers,
) -> Result<SyncReport, ProtocolError> {
    if node.lock().sync_mode() == SyncMode::Digest {
        return pull_digest(reader, writer, node, peer, now, bufs);
    }
    // Full mode: the request borrows the node's knowledge/filter, so
    // serialize it while the lock is held; only the scratch bytes leave
    // the critical section.
    let request_bytes = {
        let mut node = node.lock();
        let request = node.begin_sync_session(peer, now);
        bufs.scratch.encode(&request)
    };
    bufs.frame_bytes += request_bytes.len() as u64;
    write_frame(writer, FrameType::SyncRequest, request_bytes)?;
    let batch_payload = recv_expected(reader, FrameType::SyncBatch, bufs)?;
    let report = apply_batch_payload(node, batch_payload, now, bufs)?;
    write_frame(writer, FrameType::SyncDone, &[])?;
    Ok(report)
}

/// Digest-mode pull: sends a compact [`DigestRequest`] and follows
/// whichever continuation the source answers with — a direct batch, an
/// exact version round (Bloom summaries), or a resync demand that makes
/// this side retransmit the plain full request. Every terminal path
/// applies a batch and commits the exchange with its byte accounting.
fn pull_digest<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    node: &Arc<Mutex<DtnNode>>,
    peer: ReplicaId,
    now: SimTime,
    bufs: &mut SessionBuffers,
) -> Result<SyncReport, ProtocolError> {
    let (request, mut state) = node.lock().begin_digest_session(peer, now);
    let mut digest_bytes = send_frame(writer, FrameType::SyncDigest, &request, bufs)?;
    drop(request);
    let mut fallback_rounds = 0u64;
    let mut false_positives = 0u64;
    let mut knowledge_shared = state.summary_kind() != "bloom";

    // Serves the resync demand: retransmit the full request (its bytes
    // are charged to digest mode — fallbacks are its cost, not full
    // mode's, plus one byte for the resync frame itself).
    macro_rules! retransmit_full {
        () => {{
            fallback_rounds += 1;
            knowledge_shared = true;
            // The request borrows the node's knowledge and filter, so
            // serialize it while the lock is held.
            let request_bytes = {
                let node = node.lock();
                bufs.scratch.encode(&node.digest_resync_request(&mut state))
            };
            digest_bytes += 1 + request_bytes.len() as u64;
            bufs.frame_bytes += request_bytes.len() as u64;
            write_frame(writer, FrameType::SyncRequest, request_bytes)?;
        }};
    }

    let (frame_type, payload) = recv_any(reader, bufs)?;
    let report = match frame_type {
        FrameType::SyncBatch => apply_batch_payload(node, payload, now, bufs)?,
        FrameType::RangeRequest => {
            // Bloom path: the source screens uncertain versions through
            // one exact membership round.
            fallback_rounds += 1;
            knowledge_shared = false;
            digest_bytes += payload.len() as u64;
            let query: VersionQuery = decode_payload(&payload)?;
            bufs.pool.give(payload);
            let answer = node.lock().answer_digest_query(&query);
            false_positives = (0..answer.len()).filter(|&i| !answer.known(i)).count() as u64;
            digest_bytes += send_frame(writer, FrameType::RangeResponse, &answer, bufs)?;
            let (frame_type, payload) = recv_any(reader, bufs)?;
            match frame_type {
                FrameType::SyncBatch => apply_batch_payload(node, payload, now, bufs)?,
                FrameType::ReconResync => {
                    // The source rejected the answer round; fall all the
                    // way back to a full exchange.
                    bufs.pool.give(payload);
                    retransmit_full!();
                    let batch_payload = recv_expected(reader, FrameType::SyncBatch, bufs)?;
                    apply_batch_payload(node, batch_payload, now, bufs)?
                }
                got => {
                    bufs.pool.give(payload);
                    return Err(ProtocolError::UnexpectedFrame {
                        expected: FrameType::SyncBatch,
                        got,
                    });
                }
            }
        }
        FrameType::ReconResync => {
            bufs.pool.give(payload);
            retransmit_full!();
            let batch_payload = recv_expected(reader, FrameType::SyncBatch, bufs)?;
            apply_batch_payload(node, batch_payload, now, bufs)?
        }
        got => {
            bufs.pool.give(payload);
            return Err(ProtocolError::UnexpectedFrame {
                expected: FrameType::SyncBatch,
                got,
            });
        }
    };
    write_frame(writer, FrameType::SyncDone, &[])?;
    node.lock().commit_digest_session(
        peer,
        state,
        knowledge_shared,
        digest_bytes,
        fallback_rounds,
        false_positives,
    );
    Ok(report)
}

/// Serves the peer's pull: this side is the source. Dispatches on the
/// request frame type, so full-mode and digest-mode peers are both served
/// without prior negotiation. A request frame that fails its checksum is
/// answered with [`FrameType::ReconResync`] — the corrupt payload was
/// fully consumed, so the stream is still aligned, and a digest-mode peer
/// recovers by retransmitting its full request. Returns the number of
/// items served.
fn serve_direction<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    node: &Arc<Mutex<DtnNode>>,
    limits: SyncLimits,
    now: SimTime,
    bufs: &mut SessionBuffers,
) -> Result<usize, ProtocolError> {
    let mut payload = bufs.pool.take();
    let frame_type = match read_frame_into(reader, &mut payload) {
        Ok(frame_type) => frame_type,
        Err(FrameError::BadChecksum { .. }) => {
            bufs.pool.give(payload);
            write_frame(writer, FrameType::ReconResync, &[])?;
            let served = serve_resync(reader, writer, node, limits, now, bufs)?;
            let done = recv_expected(reader, FrameType::SyncDone, bufs)?;
            bufs.pool.give(done);
            return Ok(served);
        }
        Err(e) => {
            bufs.pool.give(payload);
            return Err(e.into());
        }
    };
    bufs.frame_bytes += payload.len() as u64;
    bufs.bytes_decoded += payload.len() as u64;
    let served = match frame_type {
        FrameType::SyncRequest => {
            let request: SyncRequest = decode_payload(&payload)?;
            bufs.pool.give(payload);
            let batch = node.lock().respond_sync(&request, limits, now);
            let served = batch.entries.len();
            send_frame(writer, FrameType::SyncBatch, &batch, bufs)?;
            served
        }
        FrameType::SyncDigest => {
            let request: DigestRequest = decode_payload(&payload)?;
            bufs.pool.give(payload);
            serve_digest(reader, writer, node, request, limits, now, bufs)?
        }
        got => {
            bufs.pool.give(payload);
            return Err(ProtocolError::UnexpectedFrame {
                expected: FrameType::SyncRequest,
                got,
            });
        }
    };
    let done = recv_expected(reader, FrameType::SyncDone, bufs)?;
    bufs.pool.give(done);
    Ok(served)
}

/// Source side of one digest request, through whichever continuation it
/// needs. Returns the number of items served.
fn serve_digest<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    node: &Arc<Mutex<DtnNode>>,
    request: DigestRequest,
    limits: SyncLimits,
    now: SimTime,
    bufs: &mut SessionBuffers,
) -> Result<usize, ProtocolError> {
    let response = node.lock().respond_digest(request, limits, now);
    match response {
        DigestResponse::Batch(batch) => {
            let served = batch.entries.len();
            send_frame(writer, FrameType::SyncBatch, &batch, bufs)?;
            Ok(served)
        }
        DigestResponse::NeedVersions(pending) => {
            send_frame(writer, FrameType::RangeRequest, pending.query(), bufs)?;
            let answer_payload = recv_expected(reader, FrameType::RangeResponse, bufs)?;
            let answer: VersionAnswer = decode_payload(&answer_payload)?;
            bufs.pool.give(answer_payload);
            match node
                .lock()
                .respond_digest_answer(pending, &answer, limits, now)
            {
                Some(batch) => {
                    let served = batch.entries.len();
                    send_frame(writer, FrameType::SyncBatch, &batch, bufs)?;
                    Ok(served)
                }
                None => {
                    // The answer does not cover the query; salvage the
                    // exchange with a full resync round.
                    write_frame(writer, FrameType::ReconResync, &[])?;
                    serve_resync(reader, writer, node, limits, now, bufs)
                }
            }
        }
        DigestResponse::Resync => {
            write_frame(writer, FrameType::ReconResync, &[])?;
            serve_resync(reader, writer, node, limits, now, bufs)
        }
    }
}

/// After this side demanded a resync: receives the peer's full request
/// and serves it, caching the now exactly-known peer state.
fn serve_resync<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    node: &Arc<Mutex<DtnNode>>,
    limits: SyncLimits,
    now: SimTime,
    bufs: &mut SessionBuffers,
) -> Result<usize, ProtocolError> {
    let request_payload = recv_expected(reader, FrameType::SyncRequest, bufs)?;
    let request: SyncRequest = decode_payload(&request_payload)?;
    bufs.pool.give(request_payload);
    let batch = node.lock().respond_digest_resync(request, limits, now);
    let served = batch.entries.len();
    send_frame(writer, FrameType::SyncBatch, &batch, bufs)?;
    Ok(served)
}

fn initiator_steps<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    node: &Arc<Mutex<DtnNode>>,
    now: SimTime,
    limits: SyncLimits,
    report: &mut SessionReport,
    bufs: &mut SessionBuffers,
) -> Result<(), ProtocolError> {
    // Hello exchange.
    let (my_id, obs) = {
        let node = node.lock();
        (node.id(), node.replica().observer().clone())
    };
    let my_hello = Hello {
        replica: my_id,
        now,
    };
    report.now = Some(now);
    send_frame(writer, FrameType::Hello, &my_hello, bufs)?;
    let hello_payload = recv_expected(reader, FrameType::Hello, bufs)?;
    let peer_hello: Hello = decode_payload(&hello_payload)?;
    bufs.pool.give(hello_payload);
    let peer = peer_hello.replica;
    report.peer = Some(peer);
    let span = Span::start(&obs, "transport.initiator", my_id.as_u64(), peer.as_u64());

    // Direction 1: we are the target and pull from the responder.
    report.pulled = Some(pull_direction(reader, writer, node, peer, now, bufs)?);

    // Direction 2: the responder pulls from us.
    report.served = serve_direction(reader, writer, node, limits, now, bufs)?;
    span.finish();
    Ok(())
}

fn responder_steps<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    node: &Arc<Mutex<DtnNode>>,
    limits: SyncLimits,
    report: &mut SessionReport,
    bufs: &mut SessionBuffers,
) -> Result<(), ProtocolError> {
    // Hello exchange: adopt the initiator's clock for this encounter.
    let hello_payload = recv_expected(reader, FrameType::Hello, bufs)?;
    let peer_hello: Hello = decode_payload(&hello_payload)?;
    bufs.pool.give(hello_payload);
    let peer = peer_hello.replica;
    let now = peer_hello.now;
    report.peer = Some(peer);
    report.now = Some(now);
    let (my_id, obs) = {
        let node = node.lock();
        (node.id(), node.replica().observer().clone())
    };
    let span = Span::start(&obs, "transport.responder", my_id.as_u64(), peer.as_u64());
    let my_hello = Hello {
        replica: my_id,
        now,
    };
    send_frame(writer, FrameType::Hello, &my_hello, bufs)?;

    // Direction 1: the initiator pulls from us.
    report.served = serve_direction(reader, writer, node, limits, now, bufs)?;

    // Direction 2: we pull from the initiator.
    report.pulled = Some(pull_direction(reader, writer, node, peer, now, bufs)?);
    span.finish();
    Ok(())
}

/// Emits the per-session `TransportSync` and `DataPlaneReuse` events from
/// whatever progress the report and buffers record, whether the session
/// completed or died mid-protocol.
fn emit_session_event(
    node: &Arc<Mutex<DtnNode>>,
    report: &SessionReport,
    ok: bool,
    bufs: &SessionBuffers,
) {
    let (my_id, obs) = {
        let node = node.lock();
        (node.id(), node.replica().observer().clone())
    };
    let peer = report.peer.map(|p| p.as_u64()).unwrap_or(0);
    let served = report.served as u64;
    let delivered = report
        .pulled
        .as_ref()
        .map(|p| p.delivered as u64)
        .unwrap_or(0);
    obs.emit(|| Event::TransportSync {
        replica: my_id.as_u64(),
        peer,
        served,
        delivered,
        frame_bytes: bufs.frame_bytes,
        ok,
    });
    obs.emit(|| Event::DataPlaneReuse {
        replica: my_id.as_u64(),
        peer,
        scratch_reuses: bufs.scratch.reuses(),
        bytes_encoded: bufs.scratch.bytes_encoded(),
        pool_hits: bufs.pool.hits(),
        payload_shares: bufs.payload_shares,
        bytes_decoded: bufs.bytes_decoded,
    });
}

/// Persists a durable node after a session — even a failed one: whatever
/// replicated before the cut is worth keeping, and replay is idempotent.
/// Non-durable nodes are a free no-op. A persist failure must not kill
/// the transport (the in-memory state is still good), so it surfaces as
/// an [`Event::StoreFault`] instead of an error.
fn persist_after_session(node: &Arc<Mutex<DtnNode>>, now: Option<SimTime>) {
    let Some(now) = now else { return };
    let mut node = node.lock();
    if let Err(e) = node.persist(now) {
        let obs = node.replica().observer().clone();
        drop(node);
        obs.emit(|| Event::StoreFault {
            op: "persist",
            detail: e.to_string(),
        });
    }
}

/// Drives the initiator side of a session over any [`Connection`]: hello,
/// pull (we are target), then serve the responder's pull (we are source).
///
/// Never panics on link faults: every failure surfaces as a typed
/// [`ProtocolError`] inside the returned [`SessionOutcome`], alongside the
/// partial [`SessionReport`] for whatever replicated before the failure.
pub fn initiate_session(
    conn: &mut dyn Connection,
    node: &Arc<Mutex<DtnNode>>,
    now: SimTime,
    limits: SyncLimits,
) -> SessionOutcome {
    let (mut reader, mut writer) = conn.halves();
    let mut report = SessionReport::default();
    let mut bufs = SessionBuffers::default();
    let error = initiator_steps(
        &mut reader,
        &mut writer,
        node,
        now,
        limits,
        &mut report,
        &mut bufs,
    )
    .err();
    emit_session_event(node, &report, error.is_none(), &bufs);
    persist_after_session(node, report.now);
    SessionOutcome { report, error }
}

/// Drives the responder side of a session accepted from any
/// [`Connection`]; see [`initiate_session`] for the failure contract.
pub fn respond_session(
    conn: &mut dyn Connection,
    node: &Arc<Mutex<DtnNode>>,
    limits: SyncLimits,
) -> SessionOutcome {
    let (mut reader, mut writer) = conn.halves();
    let mut report = SessionReport::default();
    let mut bufs = SessionBuffers::default();
    let error = responder_steps(
        &mut reader,
        &mut writer,
        node,
        limits,
        &mut report,
        &mut bufs,
    )
    .err();
    emit_session_event(node, &report, error.is_none(), &bufs);
    persist_after_session(node, report.now);
    SessionOutcome { report, error }
}

/// Runs the initiator side over split reader/writer halves, failing
/// without partial progress. Prefer [`initiate_session`] for new code.
///
/// # Errors
///
/// Any [`ProtocolError`] from the session.
pub fn run_initiator<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    node: &Arc<Mutex<DtnNode>>,
    now: SimTime,
    limits: SyncLimits,
) -> Result<SessionReport, ProtocolError> {
    let mut report = SessionReport::default();
    let mut bufs = SessionBuffers::default();
    let result = initiator_steps(reader, writer, node, now, limits, &mut report, &mut bufs);
    emit_session_event(node, &report, result.is_ok(), &bufs);
    persist_after_session(node, report.now);
    result.map(|()| report)
}

/// Runs the responder side over split reader/writer halves, failing
/// without partial progress. Prefer [`respond_session`] for new code.
///
/// # Errors
///
/// Any [`ProtocolError`] from the session.
pub fn run_responder<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    node: &Arc<Mutex<DtnNode>>,
    limits: SyncLimits,
) -> Result<SessionReport, ProtocolError> {
    let mut report = SessionReport::default();
    let mut bufs = SessionBuffers::default();
    let result = responder_steps(reader, writer, node, limits, &mut report, &mut bufs);
    emit_session_event(node, &report, result.is_ok(), &bufs);
    persist_after_session(node, report.now);
    result.map(|()| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn::PolicyKind;

    /// In-memory duplex pipe for driving both protocol sides without
    /// sockets.
    fn pipe() -> (PipeEnd, PipeEnd) {
        let (tx_a, rx_a) = std::sync::mpsc::channel::<u8>();
        let (tx_b, rx_b) = std::sync::mpsc::channel::<u8>();
        (
            PipeEnd { tx: tx_a, rx: rx_b },
            PipeEnd { tx: tx_b, rx: rx_a },
        )
    }

    struct PipeEnd {
        tx: std::sync::mpsc::Sender<u8>,
        rx: std::sync::mpsc::Receiver<u8>,
    }

    impl Read for PipeEnd {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            match self.rx.recv() {
                Ok(byte) => {
                    buf[0] = byte;
                    let mut n = 1;
                    while n < buf.len() {
                        match self.rx.try_recv() {
                            Ok(b) => {
                                buf[n] = b;
                                n += 1;
                            }
                            Err(_) => break,
                        }
                    }
                    Ok(n)
                }
                Err(_) => Ok(0),
            }
        }
    }

    impl Write for PipeEnd {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            for &b in buf {
                self.tx.send(b).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe closed")
                })?;
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn full_session_over_in_memory_pipe() {
        let (mut end_a, mut end_b) = pipe();
        let node_a = Arc::new(Mutex::new(DtnNode::new(
            ReplicaId::new(1),
            "a",
            PolicyKind::Epidemic,
        )));
        let node_b = Arc::new(Mutex::new(DtnNode::new(
            ReplicaId::new(2),
            "b",
            PolicyKind::Epidemic,
        )));
        node_a
            .lock()
            .send("b", b"ping".to_vec(), SimTime::ZERO)
            .unwrap();
        node_b
            .lock()
            .send("a", b"pong".to_vec(), SimTime::ZERO)
            .unwrap();

        let responder_node = Arc::clone(&node_b);
        let responder = std::thread::spawn(move || {
            let (mut rh, mut wh) = pipe_halves(&mut end_b);
            run_responder(&mut rh, &mut wh, &responder_node, SyncLimits::unlimited())
                .expect("responder")
        });

        let (mut rh, mut wh) = pipe_halves(&mut end_a);
        let report = run_initiator(
            &mut rh,
            &mut wh,
            &node_a,
            SimTime::from_secs(60),
            SyncLimits::unlimited(),
        )
        .expect("initiator");
        let responder_report = responder.join().expect("join");

        assert_eq!(report.peer, Some(ReplicaId::new(2)));
        assert_eq!(responder_report.peer, Some(ReplicaId::new(1)));
        assert_eq!(report.pulled.unwrap().delivered, 1);
        assert_eq!(responder_report.pulled.unwrap().delivered, 1);
        assert_eq!(node_a.lock().inbox().len(), 1);
        assert_eq!(node_b.lock().inbox().len(), 1);
    }

    /// Helper splitting one PipeEnd into independent read/write handles.
    fn pipe_halves(end: &mut PipeEnd) -> (ReadHalf<'_>, WriteHalf) {
        let tx = end.tx.clone();
        (ReadHalf { end }, WriteHalf { tx })
    }

    struct ReadHalf<'a> {
        end: &'a mut PipeEnd,
    }
    impl Read for ReadHalf<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.end.read(buf)
        }
    }

    struct WriteHalf {
        tx: std::sync::mpsc::Sender<u8>,
    }
    impl Write for WriteHalf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            for &b in buf {
                self.tx.send(b).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe closed")
                })?;
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Wraps a writer, flipping one byte in the payload of the first
    /// [`FrameType::SyncDigest`] frame that passes through — corruption
    /// the frame CRC catches on the receive side.
    struct CorruptDigest<W: Write> {
        inner: W,
        header: Vec<u8>,
        payload_left: usize,
        corrupt_next: bool,
        done: bool,
    }

    impl<W: Write> CorruptDigest<W> {
        fn new(inner: W) -> Self {
            CorruptDigest {
                inner,
                header: Vec::new(),
                payload_left: 0,
                corrupt_next: false,
                done: false,
            }
        }
    }

    impl<W: Write> Write for CorruptDigest<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let mut out = Vec::with_capacity(buf.len());
            for &b in buf {
                let mut byte = b;
                if self.payload_left == 0 {
                    self.header.push(b);
                    if self.header.len() == crate::frame::HEADER_LEN {
                        let len = u32::from_le_bytes([
                            self.header[3],
                            self.header[4],
                            self.header[5],
                            self.header[6],
                        ]) as usize;
                        if self.header[2] == FrameType::SyncDigest as u8 && !self.done && len > 0 {
                            self.corrupt_next = true;
                            self.done = true;
                        }
                        self.payload_left = len;
                        self.header.clear();
                    }
                } else {
                    self.payload_left -= 1;
                    if self.corrupt_next {
                        byte ^= 0x55;
                        self.corrupt_next = false;
                    }
                }
                out.push(byte);
            }
            self.inner.write_all(&out)?;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    fn digest_node(n: u64, addr: &str) -> Arc<Mutex<DtnNode>> {
        let mut node = DtnNode::new(ReplicaId::new(n), addr, PolicyKind::Epidemic);
        node.set_sync_mode(SyncMode::Digest);
        Arc::new(Mutex::new(node))
    }

    fn run_session(node_a: &Arc<Mutex<DtnNode>>, node_b: &Arc<Mutex<DtnNode>>, at: u64) {
        let (mut end_a, mut end_b) = pipe();
        let responder_node = Arc::clone(node_b);
        let responder = std::thread::spawn(move || {
            let (mut rh, mut wh) = pipe_halves(&mut end_b);
            run_responder(&mut rh, &mut wh, &responder_node, SyncLimits::unlimited())
                .expect("responder")
        });
        let (mut rh, mut wh) = pipe_halves(&mut end_a);
        run_initiator(
            &mut rh,
            &mut wh,
            node_a,
            SimTime::from_secs(at),
            SyncLimits::unlimited(),
        )
        .expect("initiator");
        responder.join().expect("join");
    }

    #[test]
    fn digest_sessions_deliver_and_settle_into_summaries() {
        let node_a = digest_node(1, "a");
        let node_b = digest_node(2, "b");
        node_a
            .lock()
            .send("b", b"ping".to_vec(), SimTime::ZERO)
            .unwrap();
        node_b
            .lock()
            .send("a", b"pong".to_vec(), SimTime::ZERO)
            .unwrap();

        // Three sessions: seed the snapshot caches, then exchange
        // summaries against them.
        for round in 0..3u64 {
            run_session(&node_a, &node_b, 60 * (round + 1));
        }
        assert_eq!(node_a.lock().inbox().len(), 1);
        assert_eq!(node_b.lock().inbox().len(), 1);
        // Both sides pulled in digest mode every session.
        let stats_a = node_a.lock().recon_stats();
        let stats_b = node_b.lock().recon_stats();
        assert_eq!(stats_a.exchanges, 3);
        assert_eq!(stats_b.exchanges, 3);
        assert!(stats_a.digest_bytes > 0);
        // Once warm, summaries undercut the full requests they replace.
        assert!(
            stats_a.digest_bytes < stats_a.full_bytes + stats_b.full_bytes,
            "digest {} vs full {}+{}",
            stats_a.digest_bytes,
            stats_a.full_bytes,
            stats_b.full_bytes
        );
    }

    #[test]
    fn mixed_mode_session_interoperates() {
        // Only the pulling side's mode matters: a digest-mode node is
        // served by any peer (dispatch is by frame type), and serves
        // full-mode peers unchanged.
        let node_a = digest_node(1, "a");
        let node_b = Arc::new(Mutex::new(DtnNode::new(
            ReplicaId::new(2),
            "b",
            PolicyKind::Epidemic,
        )));
        node_a
            .lock()
            .send("b", b"to full".to_vec(), SimTime::ZERO)
            .unwrap();
        node_b
            .lock()
            .send("a", b"to digest".to_vec(), SimTime::ZERO)
            .unwrap();
        run_session(&node_a, &node_b, 60);
        assert_eq!(node_a.lock().inbox().len(), 1);
        assert_eq!(node_b.lock().inbox().len(), 1);
        assert_eq!(node_a.lock().recon_stats().exchanges, 1);
        assert_eq!(node_b.lock().recon_stats().exchanges, 0);
    }

    #[test]
    fn corrupted_digest_frame_degrades_to_full_exchange() {
        let node_a = digest_node(1, "a");
        let node_b = digest_node(2, "b");
        node_a
            .lock()
            .send("b", b"survives corruption".to_vec(), SimTime::ZERO)
            .unwrap();

        let (mut end_a, mut end_b) = pipe();
        let responder_node = Arc::clone(&node_b);
        let responder = std::thread::spawn(move || {
            let (mut rh, mut wh) = pipe_halves(&mut end_b);
            run_responder(&mut rh, &mut wh, &responder_node, SyncLimits::unlimited())
                .expect("responder")
        });
        let (mut rh, wh) = pipe_halves(&mut end_a);
        // The initiator's first SyncDigest frame arrives corrupted; the
        // responder answers ReconResync and the session completes on the
        // retransmitted full request.
        let mut wh = CorruptDigest::new(wh);
        run_initiator(
            &mut rh,
            &mut wh,
            &node_a,
            SimTime::from_secs(60),
            SyncLimits::unlimited(),
        )
        .expect("initiator");
        responder.join().expect("join");

        assert_eq!(node_b.lock().inbox().len(), 1);
        let stats = node_a.lock().recon_stats();
        assert_eq!(stats.exchanges, 1);
        assert!(
            stats.fallback_rounds >= 1,
            "corruption must be accounted as a fallback round"
        );

        // The fallback seeded both snapshot caches: a clean follow-up
        // session summarizes instead of falling back again.
        run_session(&node_a, &node_b, 120);
        let stats = node_a.lock().recon_stats();
        assert_eq!(stats.exchanges, 2);
        assert_eq!(stats.fallback_rounds, 1);
    }

    #[test]
    fn unexpected_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameType::SyncDone, &[]).unwrap();
        let err = expect(&mut std::io::Cursor::new(&buf), FrameType::Hello).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::UnexpectedFrame {
                expected: FrameType::Hello,
                got: FrameType::SyncDone
            }
        ));
        assert!(err.to_string().contains("Hello"));
    }
}
