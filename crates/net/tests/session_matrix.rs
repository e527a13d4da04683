//! One equivalence matrix for the one session machine.
//!
//! A scripted three-node, six-session exchange — repeat sessions between
//! one pair, a role swap, a relay hop, a node that forgets its digest
//! caches mid-way — is replayed through every driver:
//!
//! * in-process `DtnNode::encounter` (no wire at all),
//! * two [`SessionMachine`]s pumped in memory,
//! * the blocking pump on the caller's thread over TCP, behind
//!   [`transport::Peer::sync_with`] (a thread-per-connection responder)
//!   and behind [`NetNode::sync_with`] (the reactor responds),
//!
//! for all six policies, in Full mode and Digest mode (the forgetful node
//! forces a `ReconResync` round), every wired driver over fresh
//! connections and over reused ones. Every replay must leave byte-identical node snapshots and
//! identical `recon_stats`, and every wired replay must put byte-identical
//! streams on the wire in each direction — pipelining and the
//! remembered-peer opening change when frames are written, never which.
//!
//! The streams are also pinned: [`PINNED`] holds their hashes as recorded
//! from the lockstep machine of the commit before the machine learned to
//! pipeline.
//!
//! Drivers also mix: a digest pair that met in process holds labels, not
//! copies, of each other's knowledge, and pays one resync round per
//! direction on its first socket session (the last test).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dtn::{DtnNode, EncounterBudget, PolicyKind};
use net::{Membership, MembershipConfig, NetConfig, NetNode, Progress, SessionMachine};
use parking_lot::Mutex;
use pfr::digest::ReconStats;
use pfr::{ReplicaId, SimTime, SyncLimits, SyncMode};
use transport::frame::{FrameAccum, FrameType};
use transport::Peer;

const MODES: [SyncMode; 2] = [SyncMode::Full, SyncMode::Digest];

#[derive(Clone, Copy, Debug)]
enum Step {
    /// Node `from` injects a message for node `to`.
    Send { from: usize, to: usize },
    /// Node `a` initiates a session with node `b` at `at` seconds.
    Session { a: usize, b: usize, at: u64 },
    /// The node drops its digest caches, as a reboot would.
    Forget(usize),
}

const SCRIPT: &[Step] = &[
    Step::Send { from: 0, to: 1 },
    Step::Send { from: 1, to: 0 },
    Step::Send { from: 0, to: 2 },
    Step::Session { a: 0, b: 1, at: 60 },
    Step::Send { from: 0, to: 1 },
    Step::Send { from: 2, to: 0 },
    Step::Session {
        a: 0,
        b: 1,
        at: 120,
    },
    Step::Session {
        a: 1,
        b: 2,
        at: 180,
    },
    Step::Forget(1),
    Step::Session {
        a: 0,
        b: 1,
        at: 240,
    },
    Step::Session {
        a: 2,
        b: 0,
        at: 300,
    },
    Step::Session {
        a: 0,
        b: 1,
        at: 360,
    },
];

/// FNV-1a hashes of the (to-responder, to-initiator) streams of the
/// script, recorded at the parent commit by the same in-memory pump.
const PINNED: &[(PolicyKind, SyncMode, u64, u64)] = &[
    (
        PolicyKind::Direct,
        SyncMode::Full,
        0x5c2f6653e038f65c,
        0x944cdac2cbb2a8fb,
    ),
    (
        PolicyKind::Direct,
        SyncMode::Digest,
        0xc694f0b636211d2e,
        0xf4e1c05fc6855223,
    ),
    (
        PolicyKind::TwoHopRelay,
        SyncMode::Full,
        0x54b6568bc11601f1,
        0x116088880c9507c7,
    ),
    (
        PolicyKind::TwoHopRelay,
        SyncMode::Digest,
        0x1b31659aff6656cd,
        0x479f333fe9ed187f,
    ),
    (
        PolicyKind::Prophet,
        SyncMode::Full,
        0xe935fd18b334b69d,
        0x79abef9c600598b5,
    ),
    (
        PolicyKind::Prophet,
        SyncMode::Digest,
        0x9888aa98ceebcbec,
        0x57b12f0abd217630,
    ),
    (
        PolicyKind::SprayAndWait,
        SyncMode::Full,
        0x60cd77fa0c18073b,
        0xbef7f6f1962e0228,
    ),
    (
        PolicyKind::SprayAndWait,
        SyncMode::Digest,
        0x44e13625c0ff7555,
        0x08287bc3aa353598,
    ),
    (
        PolicyKind::Epidemic,
        SyncMode::Full,
        0x84cd366a294aa193,
        0x1f942936bbdf475c,
    ),
    (
        PolicyKind::Epidemic,
        SyncMode::Digest,
        0xa740de4e601a0bef,
        0x4184da62272c0382,
    ),
    (
        PolicyKind::MaxProp,
        SyncMode::Full,
        0xec0d9aa8e772501e,
        0xc9c85d7d0dc71d8d,
    ),
    (
        PolicyKind::MaxProp,
        SyncMode::Digest,
        0x892366ee116788b7,
        0xb58a28872b8c2341,
    ),
];

fn nodes(policy: PolicyKind, mode: SyncMode) -> Vec<DtnNode> {
    (1..=3u64)
        .map(|i| {
            let mut node = DtnNode::new(ReplicaId::new(i), &format!("h{i}"), policy);
            node.set_sync_mode(mode);
            node
        })
        .collect()
}

/// What a driver can do with the fleet; the script is the same for all.
trait Driver {
    fn with_node<T>(&mut self, i: usize, f: impl FnOnce(&mut DtnNode) -> T) -> T;
    fn session(&mut self, a: usize, b: usize, now: SimTime);
    fn finish(self) -> (Vec<DtnNode>, Option<WireLog>);
}

/// Per responder node: every byte sent to it and every byte it sent back,
/// over all the sessions it answered, in order.
type WireLog = BTreeMap<usize, (Vec<u8>, Vec<u8>)>;

/// What a replay leaves behind.
struct Replay {
    snapshots: Vec<Vec<u8>>,
    recon: Vec<ReconStats>,
    wire: Option<WireLog>,
}

fn replay<D: Driver>(mut driver: D) -> Replay {
    play(&mut driver, SCRIPT, &mut 0);
    let (nodes, wire) = driver.finish();
    Replay {
        snapshots: nodes.iter().map(DtnNode::snapshot).collect(),
        recon: nodes.iter().map(DtnNode::recon_stats).collect(),
        wire,
    }
}

/// Runs `script` through `driver`; `sent` numbers the injected messages.
fn play<D: Driver>(driver: &mut D, script: &[Step], sent: &mut u64) {
    for step in script {
        match *step {
            Step::Send { from, to } => {
                *sent += 1;
                let n = *sent;
                driver
                    .with_node(from, |node| {
                        node.send(
                            &format!("h{}", to + 1),
                            format!("{from}->{to} #{n}").into_bytes(),
                            SimTime::from_secs(n),
                        )
                    })
                    .expect("inject");
            }
            Step::Forget(i) => driver.with_node(i, DtnNode::clear_recon_state),
            Step::Session { a, b, at } => driver.session(a, b, SimTime::from_secs(at)),
        }
    }
}

// ---------------------------------------------------------------------
// Driver 1: no wire.
// ---------------------------------------------------------------------

struct InProcess(Vec<DtnNode>);

impl Driver for InProcess {
    fn with_node<T>(&mut self, i: usize, f: impl FnOnce(&mut DtnNode) -> T) -> T {
        f(&mut self.0[i])
    }

    fn session(&mut self, a: usize, b: usize, now: SimTime) {
        let (lo, hi) = self.0.split_at_mut(a.max(b));
        let (x, y) = (&mut lo[a.min(b)], &mut hi[0]);
        // The initiator pulls first, so the responder is the first
        // source: `responder.encounter(initiator)`.
        let (initiator, responder) = if a < b { (x, y) } else { (y, x) };
        responder.encounter(initiator, now, EncounterBudget::unlimited());
    }

    fn finish(self) -> (Vec<DtnNode>, Option<WireLog>) {
        (self.0, None)
    }
}

// ---------------------------------------------------------------------
// Driver 2: two machines, frames handed across in memory.
// ---------------------------------------------------------------------

fn membership(i: usize) -> Arc<Mutex<Membership>> {
    Arc::new(Mutex::new(Membership::new(
        i as u64 + 1,
        format!("h{}:1", i + 1),
        MembershipConfig::default(),
    )))
}

struct Memory {
    nodes: Vec<Arc<Mutex<DtnNode>>>,
    /// When reusing: one parked responder machine per (initiator,
    /// responder) pair, as a pooled connection would keep.
    parked: Option<BTreeMap<(usize, usize), SessionMachine>>,
    log: WireLog,
}

impl Memory {
    fn new(nodes: Vec<DtnNode>, reuse: bool) -> Memory {
        Memory {
            nodes: nodes.into_iter().map(|n| Arc::new(Mutex::new(n))).collect(),
            parked: reuse.then(BTreeMap::new),
            log: WireLog::new(),
        }
    }
}

impl Driver for Memory {
    fn with_node<T>(&mut self, i: usize, f: impl FnOnce(&mut DtnNode) -> T) -> T {
        f(&mut self.nodes[i].lock())
    }

    fn session(&mut self, a: usize, b: usize, now: SimTime) {
        let limits = SyncLimits::unlimited();
        let parked = self.parked.as_mut().and_then(|p| p.remove(&(a, b)));
        let (node, view) = (self.nodes[a].clone(), membership(a));
        let (mut initiator, mut to_responder) = match &parked {
            Some(_) => {
                let peer = ReplicaId::new(b as u64 + 1);
                SessionMachine::sync_initiator_to(node, view, limits, now, peer)
            }
            None => SessionMachine::sync_initiator(node, view, limits, now, false),
        }
        .expect("open a session");
        let mut responder = parked.unwrap_or_else(|| {
            SessionMachine::responder(self.nodes[b].clone(), membership(b), limits)
        });

        let log = self.log.entry(b).or_default();
        let (mut at_responder, mut at_initiator) = (FrameAccum::new(), FrameAccum::new());
        let mut to_initiator = Vec::new();
        let (mut initiator_done, mut responder_done) = (false, false);
        while !(initiator_done && responder_done) {
            assert!(!to_responder.is_empty(), "stalled with nothing in flight");
            log.0.extend_from_slice(&to_responder);
            at_responder.extend(&to_responder);
            to_responder.clear();
            while let Some((kind, body)) = at_responder.next_frame().expect("parse") {
                let progress = responder
                    .on_frame(kind, body, 0, &mut to_initiator)
                    .expect("responder step");
                responder_done |= progress == Progress::SessionComplete;
            }
            log.1.extend_from_slice(&to_initiator);
            at_initiator.extend(&to_initiator);
            to_initiator.clear();
            while let Some((kind, body)) = at_initiator.next_frame().expect("parse") {
                let progress = initiator
                    .on_frame(kind, body, 0, &mut to_responder)
                    .expect("initiator step");
                initiator_done |= progress == Progress::SessionComplete;
            }
        }
        if let Some(parked) = self.parked.as_mut() {
            parked.insert((a, b), responder);
        }
    }

    fn finish(self) -> (Vec<DtnNode>, Option<WireLog>) {
        drop(self.parked);
        let nodes = self
            .nodes
            .into_iter()
            .map(|n| Arc::into_inner(n).expect("machines dropped").into_inner())
            .collect();
        (nodes, Some(self.log))
    }
}

// ---------------------------------------------------------------------
// Drivers 3-5: real sockets, tapped by a recording proxy.
// ---------------------------------------------------------------------

/// A tee proxy in front of one node: forwards every connection to it and
/// appends the bytes of each direction to the node's log. Sessions run
/// one at a time and a byte is logged before it is forwarded, so the log
/// is in session order and complete once a session has returned.
struct Tap {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Connections forwarded so far.
    accepted: Arc<AtomicUsize>,
    accepting: std::thread::JoinHandle<()>,
}

type TapLog = Arc<Mutex<(Vec<u8>, Vec<u8>)>>;

impl Tap {
    fn start(target: SocketAddr, log: TapLog) -> Tap {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind tap");
        let addr = listener.local_addr().expect("tap addr");
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let accepted = Arc::new(AtomicUsize::new(0));
        let counting = Arc::clone(&accepted);
        let accepting = std::thread::spawn(move || {
            let mut copies = Vec::new();
            for client in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let client = client.expect("tap accept");
                counting.fetch_add(1, Ordering::SeqCst);
                let server = TcpStream::connect(target).expect("tap dial");
                client.set_nodelay(true).expect("nodelay");
                server.set_nodelay(true).expect("nodelay");
                let (c2, s2) = (client.try_clone().unwrap(), server.try_clone().unwrap());
                let (up, down) = (Arc::clone(&log), Arc::clone(&log));
                copies.push(std::thread::spawn(move || {
                    tee(client, server, |bytes| up.lock().0.extend_from_slice(bytes))
                }));
                copies.push(std::thread::spawn(move || {
                    tee(s2, c2, |bytes| down.lock().1.extend_from_slice(bytes))
                }));
            }
            for copy in copies {
                copy.join().expect("tee thread");
            }
        });
        Tap {
            addr,
            stop,
            accepted,
            accepting,
        }
    }

    /// Call once both ends of every tapped connection are closed.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.accepting.join().expect("tap thread");
    }
}

/// Copies `from` into `to` until EOF, recording every byte first.
fn tee(mut from: TcpStream, mut to: TcpStream, mut record: impl FnMut(&[u8])) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                record(&buf[..n]);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// The taps of a socket fleet: one standing tap per node when connections
/// are to be reused, a new tap — so a new address, so a fresh dial — per
/// session when they are not.
struct Taps {
    targets: Vec<SocketAddr>,
    logs: Vec<TapLog>,
    standing: Option<Vec<Tap>>,
    spent: Vec<Tap>,
}

impl Taps {
    fn new(targets: Vec<SocketAddr>, reuse: bool) -> Taps {
        let logs: Vec<TapLog> = targets.iter().map(|_| TapLog::default()).collect();
        let standing = reuse.then(|| {
            targets
                .iter()
                .zip(&logs)
                .map(|(&target, log)| Tap::start(target, Arc::clone(log)))
                .collect()
        });
        Taps {
            targets,
            logs,
            standing,
            spent: Vec::new(),
        }
    }

    /// The address to dial to reach node `b` through its tap.
    fn toward(&mut self, b: usize) -> SocketAddr {
        match &self.standing {
            Some(taps) => taps[b].addr,
            None => {
                let tap = Tap::start(self.targets[b], Arc::clone(&self.logs[b]));
                self.spent.push(tap);
                self.spent.last().expect("just pushed").addr
            }
        }
    }

    /// Connections dialed through the taps so far.
    fn dials(&self) -> usize {
        let taps = self.standing.iter().flatten().chain(&self.spent);
        taps.map(|tap| tap.accepted.load(Ordering::SeqCst)).sum()
    }

    fn finish(self) -> WireLog {
        for tap in self.standing.into_iter().flatten().chain(self.spent) {
            tap.stop();
        }
        self.logs
            .into_iter()
            .enumerate()
            .map(|(i, log)| (i, std::mem::take(&mut *log.lock())))
            .filter(|(_, log)| !log.0.is_empty())
            .collect()
    }
}

struct Blocking {
    peers: Vec<Peer>,
    taps: Taps,
}

impl Blocking {
    fn new(nodes: Vec<DtnNode>, reuse: bool) -> Blocking {
        let peers: Vec<Peer> = nodes
            .into_iter()
            .map(|n| Peer::start(n, "127.0.0.1:0").expect("bind"))
            .collect();
        let taps = Taps::new(peers.iter().map(Peer::local_addr).collect(), reuse);
        Blocking { peers, taps }
    }
}

impl Driver for Blocking {
    fn with_node<T>(&mut self, i: usize, f: impl FnOnce(&mut DtnNode) -> T) -> T {
        self.peers[i].with_node(f)
    }

    fn session(&mut self, a: usize, b: usize, now: SimTime) {
        let toward = self.taps.toward(b);
        self.peers[a]
            .sync_with(toward, now)
            .expect("blocking session");
    }

    fn finish(self) -> (Vec<DtnNode>, Option<WireLog>) {
        // Six sessions between three (initiator, responder) pairs.
        let expected = if self.taps.standing.is_some() { 3 } else { 6 };
        assert_eq!(self.taps.dials(), expected, "connections dialed");
        let nodes = self.peers.into_iter().map(Peer::stop).collect();
        (nodes, Some(self.taps.finish()))
    }
}

struct Reactor {
    fleet: Vec<NetNode>,
    taps: Taps,
}

impl Reactor {
    fn new(nodes: Vec<DtnNode>, reuse: bool) -> Reactor {
        let config = NetConfig {
            workers: 1,
            gossip_interval: Duration::ZERO,
            ..NetConfig::default()
        };
        let fleet: Vec<NetNode> = nodes
            .into_iter()
            .map(|n| NetNode::start(n, "127.0.0.1:0", config.clone()).expect("bind"))
            .collect();
        let taps = Taps::new(fleet.iter().map(NetNode::local_addr).collect(), reuse);
        Reactor { fleet, taps }
    }
}

impl Driver for Reactor {
    fn with_node<T>(&mut self, i: usize, f: impl FnOnce(&mut DtnNode) -> T) -> T {
        self.fleet[i].with_node(f)
    }

    fn session(&mut self, a: usize, b: usize, now: SimTime) {
        let toward = self.taps.toward(b).to_string();
        let outcome = self.fleet[a].sync_with(&toward, now);
        assert!(outcome.is_ok(), "reactor session: {:?}", outcome.error);
    }

    fn finish(self) -> (Vec<DtnNode>, Option<WireLog>) {
        let reuses: u64 = self.fleet.iter().map(|n| n.stats().conn_reuses).sum();
        let expected = if self.taps.standing.is_some() { 3 } else { 0 };
        assert_eq!(reuses, expected, "sessions over a pooled connection");
        let nodes = self.fleet.into_iter().map(NetNode::stop).collect();
        (nodes, Some(self.taps.finish()))
    }
}

// ---------------------------------------------------------------------
// The matrix.
// ---------------------------------------------------------------------

fn frame_types(stream: &[u8]) -> Vec<FrameType> {
    let mut accum = FrameAccum::new();
    accum.extend(stream);
    let mut types = Vec::new();
    while let Some((kind, _)) = accum.next_frame().expect("a logged stream parses") {
        types.push(kind);
    }
    assert_eq!(accum.buffered(), 0, "a logged stream ends on a frame");
    types
}

fn fnv(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Asserts `got` left what `reference` left, naming the first difference
/// (frame sequences rather than kilobytes of hex).
fn assert_same(what: &str, reference: &Replay, got: &Replay) {
    for (i, (want, have)) in reference.snapshots.iter().zip(&got.snapshots).enumerate() {
        assert!(want == have, "{what}: node {i} snapshot differs");
    }
    assert_eq!(reference.recon, got.recon, "{what}: recon_stats differ");
    let (Some(want), Some(have)) = (&reference.wire, &got.wire) else {
        return;
    };
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        have.keys().collect::<Vec<_>>(),
        "{what}: responders differ"
    );
    for (node, (up, down)) in want {
        let (got_up, got_down) = &have[node];
        assert_eq!(
            frame_types(up),
            frame_types(got_up),
            "{what}: frames to responder {node}"
        );
        assert_eq!(
            frame_types(down),
            frame_types(got_down),
            "{what}: frames from responder {node}"
        );
        assert!(up == got_up, "{what}: bytes to responder {node} differ");
        assert!(
            down == got_down,
            "{what}: bytes from responder {node} differ"
        );
    }
}

fn memory_reference(policy: PolicyKind, mode: SyncMode) -> Replay {
    replay(Memory::new(nodes(policy, mode), false))
}

#[test]
fn the_wire_is_what_it_was_before_pipelining() {
    for &(policy, mode, pinned_up, pinned_down) in PINNED {
        let reference = memory_reference(policy, mode);
        let basis = 0xcbf2_9ce4_8422_2325u64;
        let (up, down) = reference
            .wire
            .expect("a wired replay")
            .values()
            .fold((basis, basis), |(up, down), log| {
                (fnv(&log.0, up), fnv(&log.1, down))
            });
        assert_eq!(
            (up, down),
            (pinned_up, pinned_down),
            "{policy:?} {mode:?}: a direction's bytes changed"
        );
    }
    assert_eq!(PINNED.len(), PolicyKind::EXTENDED.len() * MODES.len());
}

#[test]
fn the_script_forces_every_digest_round() {
    let sent = |mode: SyncMode, kind: FrameType| {
        let wire = memory_reference(PolicyKind::Epidemic, mode).wire.unwrap();
        wire.values()
            .any(|log| frame_types(&log.0).contains(&kind) || frame_types(&log.1).contains(&kind))
    };
    assert!(sent(SyncMode::Digest, FrameType::SyncDigest));
    assert!(
        sent(SyncMode::Digest, FrameType::ReconResync),
        "forced resync"
    );
    assert!(!sent(SyncMode::Full, FrameType::SyncDigest));
}

fn every_case(check: impl Fn(PolicyKind, SyncMode, &Replay)) {
    for policy in PolicyKind::EXTENDED {
        for mode in MODES {
            check(policy, mode, &memory_reference(policy, mode));
        }
    }
}

#[test]
fn in_process_encounters_equal_the_machine() {
    every_case(|policy, mode, reference| {
        // Both drivers run the same halves and book a digest exchange on
        // its target, so every node counts the same exchanges, bytes and
        // fallback rounds, and ends up holding the same state.
        let got = replay(InProcess(nodes(policy, mode)));
        assert_same(&format!("in-process {policy:?} {mode:?}"), reference, &got);
    });
}

#[test]
fn reused_machines_equal_fresh_ones() {
    every_case(|policy, mode, reference| {
        let got = replay(Memory::new(nodes(policy, mode), true));
        assert_same(
            &format!("memory reused {policy:?} {mode:?}"),
            reference,
            &got,
        );
    });
}

#[test]
fn the_blocking_pump_over_tcp_equals_the_machine() {
    every_case(|policy, mode, reference| {
        for reuse in [false, true] {
            let got = replay(Blocking::new(nodes(policy, mode), reuse));
            let what = format!("blocking reuse={reuse} {policy:?} {mode:?}");
            assert_same(&what, reference, &got);
        }
    });
}

/// Responders on reactor workers, initiators on the caller's thread.
#[test]
fn the_caller_thread_driver_equals_the_machine() {
    every_case(|policy, mode, reference| {
        for reuse in [false, true] {
            let got = replay(Reactor::new(nodes(policy, mode), reuse));
            let what = format!("reactor reuse={reuse} {policy:?} {mode:?}");
            assert_same(&what, reference, &got);
        }
    });
}

/// A pair's first meetings, in process.
const MET_IN_PROCESS: &[Step] = &[
    Step::Send { from: 0, to: 1 },
    Step::Send { from: 1, to: 0 },
    Step::Session { a: 0, b: 1, at: 60 },
    Step::Send { from: 0, to: 2 },
    Step::Session {
        a: 1,
        b: 0,
        at: 120,
    },
];

/// The same pair's later meetings, over a wire: the first learns nothing
/// new (each side sends `Unchanged`), the later ones carry deltas.
const THEN_OVER_A_WIRE: &[&[Step]] = &[
    &[Step::Session {
        a: 0,
        b: 1,
        at: 180,
    }],
    &[
        Step::Send { from: 0, to: 1 },
        Step::Send { from: 1, to: 2 },
        Step::Session {
            a: 1,
            b: 0,
            at: 240,
        },
    ],
    &[
        Step::Send { from: 1, to: 0 },
        Step::Session {
            a: 0,
            b: 1,
            at: 300,
        },
    ],
];

/// `ReconResync` frames in a log, per direction: (sent by the responder
/// as source, sent by the initiator as source).
fn resyncs(wire: &WireLog) -> (usize, usize) {
    let count = |stream: &[u8]| {
        let types = frame_types(stream);
        types
            .iter()
            .filter(|&&t| t == FrameType::ReconResync)
            .count()
    };
    wire.values()
        .fold((0, 0), |(by_responder, by_initiator), (up, down)| {
            (by_responder + count(down), by_initiator + count(up))
        })
}

/// What mixing drivers costs: a digest pair that met in process keeps
/// only labels of each other's knowledge, so the first time it syncs over
/// a socket each side resolves nothing and demands one resync round; the
/// full requests leave copies, and from then on every summary resolves.
/// Deliveries do not notice: the nodes end as an all-wire replay leaves
/// them.
#[test]
fn a_pair_that_met_in_process_resyncs_once_over_a_wire() {
    for policy in PolicyKind::EXTENDED {
        let mut in_process = InProcess(nodes(policy, SyncMode::Digest));
        let mut sent = 0;
        play(&mut in_process, MET_IN_PROCESS, &mut sent);
        let (met, _) = in_process.finish();
        assert!(met.iter().all(|n| n.recon_stats().fallback_rounds == 0));
        let mut mixed = Memory::new(met, false);
        let mut seen = (0, 0);
        for (i, session) in THEN_OVER_A_WIRE.iter().enumerate() {
            play(&mut mixed, session, &mut sent);
            let now = resyncs(&mixed.log);
            let step = (now.0 - seen.0, now.1 - seen.1);
            let expected = if i == 0 { (1, 1) } else { (0, 0) };
            assert_eq!(step, expected, "{policy:?}: resyncs in wire session {i}");
            seen = now;
        }
        let (mixed, _) = mixed.finish();
        for pair in &mixed[..2] {
            assert_eq!(pair.recon_stats().fallback_rounds, 1, "{policy:?}");
        }

        let mut all_wire = Memory::new(nodes(policy, SyncMode::Digest), false);
        let mut sent = 0;
        play(&mut all_wire, MET_IN_PROCESS, &mut sent);
        for session in THEN_OVER_A_WIRE {
            play(&mut all_wire, session, &mut sent);
        }
        assert_eq!(resyncs(&all_wire.log), (0, 0), "{policy:?}: all wire");
        let (all_wire, _) = all_wire.finish();
        for (i, (got, want)) in mixed.iter().zip(&all_wire).enumerate() {
            assert!(
                got.snapshot() == want.snapshot(),
                "{policy:?}: node {i} differs from the all-wire replay"
            );
        }
    }
}
