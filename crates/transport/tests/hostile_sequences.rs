//! Hostile frame *sequences* against the session machine.
//!
//! Single damaged frames are the frame codec's business; this suite is
//! about order. Each case lets an honest peer get some way into a real
//! session — so every state of the hello gate and both halves is reached —
//! and then feeds the machine well-formed frames of every type in any
//! order (real payloads and junk ones), frames with a broken checksum and
//! truncated frames, through the real blocking [`pump`], whole and one
//! byte at a time. Whatever arrives, the session must end in completion or
//! a typed [`SessionError`] — never a panic — doing the same thing however
//! the bytes were chunked, allocating in proportion to what it was sent,
//! accounting at most one failure, and `abort()` must stay safe to call
//! again afterwards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dtn::{DtnNode, PolicyKind};
use obs::{Event, MemorySink, Obs};
use parking_lot::Mutex;
use pfr::{ReplicaId, SimTime, SyncLimits, SyncMode};
use proptest::collection::vec;
use proptest::prelude::*;
use transport::frame::{write_frame, FrameAccum, FrameType};
use transport::{pump, Membership, MembershipConfig, Progress, SessionMachine};

/// Counts live heap bytes and their high-water mark. This file holds one
/// test function, so nothing else allocates while a case is measured.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are only statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ALL_TYPES: [FrameType; 7] = [
    FrameType::SyncRequest,
    FrameType::SyncBatch,
    FrameType::SyncDone,
    FrameType::Hello,
    FrameType::SyncDigest,
    FrameType::ReconResync,
    FrameType::Gossip,
];

/// Which machine is under attack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Initiator,
    /// Opens with hello and request together.
    InitiatorRememberingPeer,
    Responder,
    Gossip,
}

type Shared<T> = Arc<Mutex<T>>;

/// Two nodes that have met once (so digests have something to summarize
/// against) and have fresh mail for each other, observed by `sink`.
fn scenario(mode: SyncMode, sink: &Arc<MemorySink>) -> (Shared<DtnNode>, Shared<DtnNode>) {
    let node = |id: u64, addr: &str| {
        let mut node = DtnNode::new(ReplicaId::new(id), addr, PolicyKind::Epidemic);
        node.set_sync_mode(mode);
        node.replica_mut().set_observer(Obs::new(sink.clone()));
        Arc::new(Mutex::new(node))
    };
    let (a, b) = (node(1, "a"), node(2, "b"));
    let mail = |round: u64| {
        for (from, to) in [(&a, "b"), (&b, "a")] {
            from.lock()
                .send(
                    to,
                    format!("to {to}, round {round}").into_bytes(),
                    SimTime::from_secs(round),
                )
                .expect("inject");
        }
    };
    mail(1);
    honest_session(Kind::Initiator, &a, &b, 60);
    mail(2);
    sink.take();
    (a, b)
}

fn membership(id: u64) -> Shared<Membership> {
    Arc::new(Mutex::new(Membership::new(
        id,
        format!("m{id}:1"),
        MembershipConfig::default(),
    )))
}

fn open(kind: Kind, node: &Shared<DtnNode>, at: u64) -> (SessionMachine, Vec<u8>) {
    let (node, limits, now) = (
        Arc::clone(node),
        SyncLimits::unlimited(),
        SimTime::from_secs(at),
    );
    match kind {
        Kind::Initiator => SessionMachine::sync_initiator(node, membership(1), limits, now, false),
        Kind::InitiatorRememberingPeer => {
            SessionMachine::sync_initiator_to(node, membership(1), limits, now, ReplicaId::new(2))
        }
        Kind::Gossip => SessionMachine::gossip_initiator(node, membership(1), 0, false),
        Kind::Responder => Ok((
            SessionMachine::responder(node, membership(2), limits),
            Vec::new(),
        )),
    }
    .expect("open a machine")
}

type Frames = Vec<(FrameType, Vec<u8>)>;

/// Runs one honest exchange between `a` and a responder on `b`, returning
/// the frames each side received: (by the initiator, by the responder).
fn honest_session(
    kind: Kind,
    a: &Shared<DtnNode>,
    b: &Shared<DtnNode>,
    at: u64,
) -> (Frames, Frames) {
    let (mut initiator, mut to_responder) = open(kind, a, at);
    let (mut responder, _) = open(Kind::Responder, b, at);
    let (mut by_initiator, mut by_responder) = (Frames::new(), Frames::new());
    let mut done = false;
    while !done {
        let mut to_initiator = Vec::new();
        let mut accum = FrameAccum::new();
        accum.extend(&to_responder);
        while let Some((kind, body)) = accum.next_frame().expect("honest frame") {
            by_responder.push((kind, body.to_vec()));
            responder
                .on_frame(kind, body, 0, &mut to_initiator)
                .expect("honest responder");
        }
        to_responder.clear();
        let mut accum = FrameAccum::new();
        accum.extend(&to_initiator);
        while let Some((kind, body)) = accum.next_frame().expect("honest frame") {
            by_initiator.push((kind, body.to_vec()));
            done |= initiator
                .on_frame(kind, body, 0, &mut to_responder)
                .expect("honest initiator")
                != Progress::Continue;
        }
    }
    (by_initiator, by_responder)
}

/// One element of a hostile stream.
#[derive(Clone, Debug)]
enum Piece {
    /// A real frame from some honest transcript, wherever it lands.
    Real(usize),
    /// A well-formed frame of any type around arbitrary bytes.
    Junk(usize, Vec<u8>),
    /// A real frame with one payload or checksum bit flipped.
    BadCrc(usize, usize),
    /// A real frame cut short (what follows lands mid-frame).
    Truncated(usize, usize),
}

fn pieces() -> impl Strategy<Value = Vec<Piece>> {
    let piece = prop_oneof![
        any::<usize>().prop_map(Piece::Real),
        (0usize..ALL_TYPES.len(), vec(any::<u8>(), 0..48)).prop_map(|(t, b)| Piece::Junk(t, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(f, at)| Piece::BadCrc(f, at)),
        (any::<usize>(), any::<usize>()).prop_map(|(f, at)| Piece::Truncated(f, at)),
    ];
    vec(piece, 0..10)
}

fn framed(kind: FrameType, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, kind, payload).expect("frame fits");
    bytes
}

/// The byte stream a case feeds: an honest prefix, then the pieces.
fn stream(honest: &Frames, prefix: usize, pool: &Frames, pieces: &[Piece]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (kind, payload) in &honest[..prefix.min(honest.len())] {
        bytes.extend(framed(*kind, payload));
    }
    let real = |i: usize| {
        let (kind, payload) = &pool[i % pool.len()];
        framed(*kind, payload)
    };
    for piece in pieces {
        match piece {
            Piece::Real(i) => bytes.extend(real(*i)),
            Piece::Junk(t, payload) => bytes.extend(framed(ALL_TYPES[*t], payload)),
            Piece::BadCrc(i, at) => {
                let mut frame = real(*i);
                // Past magic, type and length: the checksum or the payload.
                let at = 7 + at % (frame.len() - 7);
                frame[at] ^= 0x10;
                bytes.extend(frame);
            }
            Piece::Truncated(i, at) => {
                let frame = real(*i);
                bytes.extend(&frame[..at % frame.len()]);
            }
        }
    }
    bytes
}

/// A scripted peer: what it says is fixed — handed out `chunk` bytes at
/// a time, then EOF — and what it is told is kept.
struct Script {
    input: Vec<u8>,
    pos: usize,
    chunk: usize,
    written: Vec<u8>,
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.input.len() - self.pos);
        buf[..n].copy_from_slice(&self.input[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for Script {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.written.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one feeding of a stream did.
#[derive(Debug, PartialEq)]
struct Verdict {
    /// `Ok` or the typed error, rendered.
    end: String,
    written: Vec<u8>,
    /// Sessions accounted as completed and as failed.
    ok: usize,
    failed: usize,
    peak_bytes: usize,
}

fn attack(kind: Kind, mode: SyncMode, input: &[u8], chunk: usize) -> Verdict {
    let sink = Arc::new(MemorySink::unbounded());
    let (a, b) = scenario(mode, &sink);
    let (mut machine, opening) = open(kind, if kind == Kind::Responder { &b } else { &a }, 120);
    let mut conn = Script {
        input: input.to_vec(),
        pos: 0,
        chunk,
        written: Vec::new(),
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let end = pump(&mut conn, &mut machine, opening, &|| 0);
    let peak_bytes = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    // The pump already aborted a failed machine; again must change nothing.
    machine.abort();
    machine.abort();
    assert!(machine.is_closed());
    let events = sink.take();
    let synced = |want: bool| {
        events
            .iter()
            .filter(|e| matches!(e, Event::TransportSync { ok, .. } if *ok == want))
            .count()
    };
    Verdict {
        end: format!("{end:?}"),
        written: conn.written,
        ok: synced(true),
        failed: synced(false),
        peak_bytes,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn any_frame_sequence_ends_typed_and_bounded(
        kind in prop_oneof![
            Just(Kind::Initiator),
            Just(Kind::InitiatorRememberingPeer),
            Just(Kind::Responder),
            Just(Kind::Gossip),
        ],
        mode in prop_oneof![Just(SyncMode::Full), Just(SyncMode::Digest)],
        prefix in 0usize..6,
        pieces in pieces(),
    ) {
        // The honest transcript for this machine, and a pool of real
        // frames of both directions to throw at it out of order.
        let sink = Arc::new(MemorySink::unbounded());
        let (a, b) = scenario(mode, &sink);
        let honest_kind = if kind == Kind::Responder { Kind::Initiator } else { kind };
        let (by_initiator, by_responder) = honest_session(honest_kind, &a, &b, 120);
        let honest = if kind == Kind::Responder { &by_responder } else { &by_initiator };
        let mut pool = by_initiator.clone();
        pool.extend(by_responder.iter().cloned());

        let input = stream(honest, prefix, &pool, &pieces);
        let whole = attack(kind, mode, &input, usize::MAX);
        let bytewise = attack(kind, mode, &input, 1);

        // Typed end, whichever: `pump` returned instead of panicking.
        // Chunking changes nothing the machine does or says.
        prop_assert_eq!(&whole.end, &bytewise.end);
        prop_assert_eq!(&whole.written, &bytewise.written);
        prop_assert_eq!((whole.ok, whole.failed), (bytewise.ok, bytewise.failed));
        // One connection fails at most one session, and only a responder
        // can complete more than one.
        prop_assert!(whole.failed <= 1, "{} failures accounted", whole.failed);
        prop_assert!(kind == Kind::Responder || whole.ok <= 1);
        // No length field, count or bitmap size read from the wire buys
        // memory the sender did not pay for in bytes.
        // (The constant covers the pump's 16 KiB read buffer.)
        let budget = 64 * 1024 + 64 * input.len();
        for verdict in [&whole, &bytewise] {
            prop_assert!(
                verdict.peak_bytes <= budget,
                "{} bytes of input held {} bytes live", input.len(), verdict.peak_bytes
            );
        }
    }
}
