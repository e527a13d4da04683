//! Integration tests: replication between real TCP peers on localhost.

use std::io::Read;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtn::{DtnNode, PolicyKind};
use parking_lot::Mutex;
use pfr::wire::to_bytes;
use pfr::{ReplicaId, SimTime, SyncLimits, SyncMode};
use transport::conn::feed;
use transport::frame::{write_frame, FrameAccum, FrameType};
use transport::session::Hello;
use transport::{pump, Membership, MembershipConfig, Peer, SessionMachine};

fn node(n: u64, addr: &str, kind: PolicyKind) -> DtnNode {
    DtnNode::new(ReplicaId::new(n), addr, kind)
}

#[test]
fn two_peers_exchange_messages_both_ways() {
    let a = Peer::start(node(1, "a", PolicyKind::Direct), "127.0.0.1:0").unwrap();
    let b = Peer::start(node(2, "b", PolicyKind::Direct), "127.0.0.1:0").unwrap();

    a.with_node(|n| n.send("b", b"a->b".to_vec(), SimTime::ZERO))
        .unwrap();
    b.with_node(|n| n.send("a", b"b->a".to_vec(), SimTime::ZERO))
        .unwrap();

    let report = a.sync_with(b.local_addr(), SimTime::from_secs(10)).unwrap();
    assert_eq!(report.peer, Some(ReplicaId::new(2)));
    assert_eq!(
        report.pulled.as_ref().unwrap().delivered,
        1,
        "a pulled its mail"
    );
    assert_eq!(report.served, 1, "a served b's mail");

    assert_eq!(a.with_node(|n| n.inbox().len()), 1);
    assert_eq!(b.with_node(|n| n.inbox().len()), 1);
}

/// Two Epidemic peers with mail for each other, `a` in `a_mode` and `b`
/// in `b_mode`.
fn pair_with_mail(a_mode: SyncMode, b_mode: SyncMode) -> (Peer, Peer) {
    let start = |n, addr, to: &str, mode| {
        let mut node = node(n, addr, PolicyKind::Epidemic);
        node.set_sync_mode(mode);
        node.send(to, format!("{addr}->{to}").into_bytes(), SimTime::ZERO)
            .unwrap();
        Peer::start(node, "127.0.0.1:0").unwrap()
    };
    (start(1, "a", "b", a_mode), start(2, "b", "a", b_mode))
}

#[test]
fn digest_sessions_commit_on_both_sides() {
    let (a, b) = pair_with_mail(SyncMode::Digest, SyncMode::Digest);
    for round in 1..=3u64 {
        a.sync_with(b.local_addr(), SimTime::from_secs(60 * round))
            .unwrap();
    }
    assert_eq!(a.with_node(|n| n.inbox().len()), 1);
    assert_eq!(b.with_node(|n| n.inbox().len()), 1);
    let stats_a = a.with_node(|n| n.recon_stats());
    let stats_b = b.with_node(|n| n.recon_stats());
    assert_eq!(stats_a.exchanges, 3, "initiator committed every pull");
    assert_eq!(stats_b.exchanges, 3, "responder committed every pull");
    // Once warm, summaries undercut the full requests they replace.
    assert!(stats_a.digest_bytes > 0);
    assert!(stats_a.digest_bytes < stats_a.full_bytes + stats_b.full_bytes);
}

#[test]
fn mixed_mode_session_interoperates() {
    // Only the pulling side's mode matters: dispatch is by frame type.
    let (a, b) = pair_with_mail(SyncMode::Digest, SyncMode::Full);
    a.sync_with(b.local_addr(), SimTime::from_secs(60)).unwrap();
    assert_eq!(a.with_node(|n| n.inbox().len()), 1);
    assert_eq!(b.with_node(|n| n.inbox().len()), 1);
    assert_eq!(a.with_node(|n| n.recon_stats().exchanges), 1);
    assert_eq!(b.with_node(|n| n.recon_stats().exchanges), 0);
}

#[test]
fn multi_hop_delivery_through_a_tcp_relay() {
    // a -> relay -> c, with epidemic forwarding over real sockets.
    let a = Peer::start(node(1, "a", PolicyKind::Epidemic), "127.0.0.1:0").unwrap();
    let relay = Peer::start(node(2, "relay", PolicyKind::Epidemic), "127.0.0.1:0").unwrap();
    let c = Peer::start(node(3, "c", PolicyKind::Epidemic), "127.0.0.1:0").unwrap();

    a.with_node(|n| n.send("c", b"via relay".to_vec(), SimTime::ZERO))
        .unwrap();

    // a never talks to c directly.
    a.sync_with(relay.local_addr(), SimTime::from_secs(1))
        .unwrap();
    assert_eq!(relay.with_node(|n| n.replica().relay_load()), 1);

    relay
        .sync_with(c.local_addr(), SimTime::from_secs(2))
        .unwrap();
    let inbox = c.with_node(|n| n.inbox());
    assert_eq!(inbox.len(), 1);
    assert_eq!(inbox[0].payload, b"via relay");
}

#[test]
fn repeated_syncs_are_idempotent() {
    let a = Peer::start(node(1, "a", PolicyKind::Direct), "127.0.0.1:0").unwrap();
    let b = Peer::start(node(2, "b", PolicyKind::Direct), "127.0.0.1:0").unwrap();
    a.with_node(|n| n.send("b", b"once".to_vec(), SimTime::ZERO))
        .unwrap();

    let first = a.sync_with(b.local_addr(), SimTime::from_secs(1)).unwrap();
    assert_eq!(first.served, 1);
    for t in 2..5 {
        let again = a.sync_with(b.local_addr(), SimTime::from_secs(t)).unwrap();
        assert_eq!(again.served, 0, "knowledge suppresses re-sends over TCP");
        assert_eq!(again.pulled.as_ref().unwrap().duplicates, 0);
    }
    assert_eq!(b.with_node(|n| n.inbox().len()), 1);
}

#[test]
fn bandwidth_limited_responder_serves_partial_batches() {
    // A `max_items(2)` responder, driven frame by frame in memory through
    // the drivers' shared step: each session moves at most two items, and
    // three drain all five.
    let a = Arc::new(Mutex::new(node(1, "a", PolicyKind::Direct)));
    let b = Arc::new(Mutex::new(node(2, "b", PolicyKind::Direct)));
    for i in 0..5u8 {
        b.lock().send("a", vec![i], SimTime::ZERO).unwrap();
    }
    let view = |n| {
        Arc::new(Mutex::new(Membership::new(
            n,
            "",
            MembershipConfig::default(),
        )))
    };
    let mut pulled = Vec::new();
    for t in 1..=3 {
        let (mut initiator, mut to_b) = SessionMachine::sync_initiator(
            Arc::clone(&a),
            view(1),
            SyncLimits::unlimited(),
            SimTime::from_secs(t),
            false,
        )
        .unwrap();
        let mut responder =
            SessionMachine::responder(Arc::clone(&b), view(2), SyncLimits::max_items(2));
        let (mut at_a, mut at_b, mut to_a) = (FrameAccum::new(), FrameAccum::new(), Vec::new());
        while !to_b.is_empty() {
            at_b.extend(&to_b);
            to_b.clear();
            feed(&mut responder, &mut at_b, 0, &mut to_a).unwrap();
            at_a.extend(&to_a);
            to_a.clear();
            feed(&mut initiator, &mut at_a, 0, &mut to_b).unwrap();
        }
        assert!(initiator.is_closed(), "session {t} ran to its end");
        pulled.push(initiator.report().pulled.as_ref().unwrap().delivered);
    }
    assert_eq!(pulled, [2, 2, 1]);
    assert_eq!(a.lock().inbox().len(), 5);
}

#[test]
fn concurrent_initiators_against_one_peer() {
    let hub = Peer::start(node(1, "hub", PolicyKind::Epidemic), "127.0.0.1:0").unwrap();
    let hub_addr = hub.local_addr();

    let mut handles = Vec::new();
    for i in 2..=6u64 {
        handles.push(std::thread::spawn(move || {
            let name = format!("n{i}");
            let peer = Peer::start(node(i, &name, PolicyKind::Epidemic), "127.0.0.1:0").unwrap();
            peer.with_node(|n| n.send("hub", vec![i as u8], SimTime::ZERO))
                .unwrap();
            peer.sync_with(hub_addr, SimTime::from_secs(i)).unwrap();
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    assert_eq!(
        hub.with_node(|n| n.inbox().len()),
        5,
        "all five messages arrived"
    );
    // At-most-once held under concurrency.
    hub.with_node(|n| assert_eq!(n.replica().stats().duplicates_rejected, 0));
}

#[test]
fn stop_returns_the_node() {
    let peer = Peer::start(node(1, "a", PolicyKind::Direct), "127.0.0.1:0").unwrap();
    let node = peer.stop();
    assert_eq!(node.id(), ReplicaId::new(1));
}

#[test]
fn durable_peers_persist_after_every_session_without_being_asked() {
    // Both sides of a session open from data directories; the transport
    // persists them after the session, so neither ever calls persist().
    let dir_a = std::env::temp_dir().join(format!("tcp-durable-a-{}", std::process::id()));
    let dir_b = std::env::temp_dir().join(format!("tcp-durable-b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);

    {
        let node_a = DtnNode::open(&dir_a, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap();
        let node_b = DtnNode::open(&dir_b, ReplicaId::new(2), "b", PolicyKind::Epidemic).unwrap();
        let a = Peer::start(node_a, "127.0.0.1:0").unwrap();
        let b = Peer::start(node_b, "127.0.0.1:0").unwrap();
        a.with_node(|n| n.send("b", b"survives".to_vec(), SimTime::ZERO))
            .unwrap();
        a.sync_with(b.local_addr(), SimTime::from_secs(5)).unwrap();
        assert_eq!(b.with_node(|n| n.inbox().len()), 1);
        // Drop both peers with no orderly persist — models kill -9 right
        // after the session's WAL appends hit disk.
    }

    let node_b = DtnNode::open(&dir_b, ReplicaId::new(2), "b", PolicyKind::Epidemic).unwrap();
    assert_eq!(node_b.inbox().len(), 1, "delivery survived the crash");
    assert_eq!(node_b.inbox()[0].payload, b"survives");
    assert_eq!(
        node_b.persisted_at(),
        Some(SimTime::from_secs(5)),
        "responder persisted under the initiator's clock"
    );

    // The restarted responder re-syncs: nothing moves, nothing duplicates.
    let node_a = DtnNode::open(&dir_a, ReplicaId::new(1), "a", PolicyKind::Epidemic).unwrap();
    let a = Peer::start(node_a, "127.0.0.1:0").unwrap();
    let b = Peer::start(node_b, "127.0.0.1:0").unwrap();
    let report = a.sync_with(b.local_addr(), SimTime::from_secs(6)).unwrap();
    assert_eq!(report.served, 0, "knowledge survived on both sides");
    assert_eq!(report.pulled.as_ref().unwrap().duplicates, 0);
    assert_eq!(b.with_node(|n| n.inbox().len()), 1);

    drop((a, b));
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}

#[test]
fn different_policies_interoperate() {
    // A MaxProp node syncing with a Direct node: routing state is opaque
    // and simply ignored by the other side.
    let a = Peer::start(node(1, "a", PolicyKind::MaxProp), "127.0.0.1:0").unwrap();
    let b = Peer::start(node(2, "b", PolicyKind::Direct), "127.0.0.1:0").unwrap();
    a.with_node(|n| n.send("b", b"x".to_vec(), SimTime::ZERO))
        .unwrap();
    let report = a.sync_with(b.local_addr(), SimTime::from_secs(1)).unwrap();
    assert_eq!(report.served, 1);
    assert_eq!(b.with_node(|n| n.inbox().len()), 1);
}

#[test]
fn one_connection_carries_back_to_back_sessions() {
    // What a pooling initiator does: the second session reuses the
    // connection and, remembering who answered, opens with its request
    // right behind the hello.
    let b = Peer::start(node(2, "b", PolicyKind::Epidemic), "127.0.0.1:0").unwrap();
    let a = Arc::new(Mutex::new(node(1, "a", PolicyKind::Epidemic)));
    let view = Arc::new(Mutex::new(Membership::new(
        1,
        "a:0",
        MembershipConfig::default(),
    )));
    let mut conn = TcpStream::connect(b.local_addr()).unwrap();
    for round in 1..=3u64 {
        a.lock()
            .send("b", format!("round {round}").into_bytes(), SimTime::ZERO)
            .unwrap();
        let (node, view, limits) = (Arc::clone(&a), Arc::clone(&view), SyncLimits::unlimited());
        let now = SimTime::from_secs(round);
        let (mut machine, opening) = if round == 1 {
            SessionMachine::sync_initiator(node, view, limits, now, false)
        } else {
            SessionMachine::sync_initiator_to(node, view, limits, now, ReplicaId::new(2))
        }
        .unwrap();
        pump(&mut conn, &mut machine, opening, &|| 0).expect("session");
        assert_eq!(machine.report().served, 1);
    }
    assert_eq!(b.with_node(|n| n.inbox().len()), 3);
}

#[test]
fn stop_cuts_a_session_parked_mid_protocol() {
    // The accept loop blocks in `accept` and a session thread blocks in
    // `read` (for ten seconds, if left alone): stopping must not wait
    // for either.
    let peer = Peer::start(node(2, "b", PolicyKind::Direct), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(peer.local_addr()).unwrap();
    let hello = Hello {
        replica: ReplicaId::new(1),
        now: SimTime::from_secs(5),
    };
    write_frame(&mut stream, FrameType::Hello, &to_bytes(&hello)).unwrap();
    let (mut accum, mut buf) = (FrameAccum::new(), [0u8; 256]);
    let reply = loop {
        if let Some((kind, _)) = accum.next_frame().unwrap() {
            break kind;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "the peer hung up before replying");
        accum.extend(&buf[..n]);
    };
    assert_eq!(reply, FrameType::Hello, "the session thread is serving");

    let started = Instant::now();
    let node = peer.stop();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "stop took {:?}",
        started.elapsed()
    );
    assert_eq!(node.id(), ReplicaId::new(2));
}
