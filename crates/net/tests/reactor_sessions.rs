//! End-to-end reactor tests over real sockets: concurrent sessions from
//! caller threads, connection pooling (and the pool/reap race), gossip
//! discovery, anti-entropy, and failure edges. That the reactor, the
//! blocking pump and in-process encounters agree is `session_matrix.rs`'
//! business.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dtn::{DtnNode, PolicyKind};
use net::{MembershipConfig, NetConfig, NetNode, PeerStatus};
use obs::{Obs, Registry};
use pfr::{ReplicaId, SimTime, SyncMode};

fn node(id: u64, addr: &str) -> DtnNode {
    DtnNode::new(ReplicaId::new(id), addr, PolicyKind::Epidemic)
}

fn quiet_config() -> NetConfig {
    NetConfig {
        gossip_interval: Duration::ZERO, // drive rounds manually
        ..NetConfig::default()
    }
}

#[test]
fn async_nodes_sync_both_ways() {
    let mut a = node(1, "a");
    let mut b = node(2, "b");
    a.send("b", b"ping".to_vec(), SimTime::ZERO).unwrap();
    b.send("a", b"pong".to_vec(), SimTime::ZERO).unwrap();

    let server = NetNode::start(b, "127.0.0.1:0", quiet_config()).unwrap();
    let client = NetNode::start(a, "127.0.0.1:0", quiet_config()).unwrap();

    let result = client.sync_with(&server.local_addr().to_string(), SimTime::from_secs(60));
    assert!(result.is_ok(), "session failed: {:?}", result.error);
    assert_eq!(result.report.peer, Some(ReplicaId::new(2)));
    assert_eq!(result.report.pulled.as_ref().unwrap().delivered, 1);

    let a = client.stop();
    let b = server.stop();
    assert_eq!(a.inbox().len(), 1);
    assert_eq!(b.inbox().len(), 1);
}

#[test]
fn digest_mode_sessions_run_through_the_reactor() {
    let mut a = node(1, "a");
    let mut b = node(2, "b");
    a.set_sync_mode(SyncMode::Digest);
    b.set_sync_mode(SyncMode::Digest);
    a.send("b", b"digest ping".to_vec(), SimTime::ZERO).unwrap();
    b.send("a", b"digest pong".to_vec(), SimTime::ZERO).unwrap();

    let server = NetNode::start(b, "127.0.0.1:0", quiet_config()).unwrap();
    let client = NetNode::start(a, "127.0.0.1:0", quiet_config()).unwrap();
    let addr = server.local_addr().to_string();

    for round in 1..=3u64 {
        let result = client.sync_with(&addr, SimTime::from_secs(60 * round));
        assert!(result.is_ok(), "round {round} failed: {:?}", result.error);
    }

    let a = client.stop();
    let b = server.stop();
    assert_eq!(a.inbox().len(), 1);
    assert_eq!(b.inbox().len(), 1);
    assert_eq!(a.recon_stats().exchanges, 3);
    assert_eq!(b.recon_stats().exchanges, 3);
}

#[test]
fn pooled_connections_carry_back_to_back_sessions() {
    let client_node = node(1, "a");
    let server_node = node(2, "b");
    let server = NetNode::start(server_node, "127.0.0.1:0", quiet_config()).unwrap();
    let client = NetNode::start(client_node, "127.0.0.1:0", quiet_config()).unwrap();
    let addr = server.local_addr().to_string();

    for round in 1..=4u64 {
        let result = client.sync_with(&addr, SimTime::from_secs(60 * round));
        assert!(result.is_ok(), "round {round} failed: {:?}", result.error);
    }
    let stats = client.stats();
    assert_eq!(stats.completed, 4);
    assert!(
        stats.conn_reuses >= 3,
        "rounds after the first reuse the pooled connection, got {}",
        stats.conn_reuses
    );
    client.stop();
    server.stop();
}

#[test]
fn a_pooled_connection_is_discarded_before_its_peer_would_reap_it() {
    // Both ends share one idle timeout. The responder closes a parked
    // connection once it has been idle that long, so an initiator that
    // still took it from the pool just short of that would race the reap
    // and die with `Eof`: the pool lets go at half the timeout instead.
    let config = NetConfig {
        idle_timeout: Duration::from_millis(240),
        ..quiet_config()
    };
    let server = NetNode::start(node(2, "b"), "127.0.0.1:0", config.clone()).unwrap();
    let client = NetNode::start(node(1, "a"), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let sync_after = |gap_ms: u64, round: u64| {
        std::thread::sleep(Duration::from_millis(gap_ms));
        let result = client.sync_with(&addr, SimTime::from_secs(60 * round));
        assert!(result.is_ok(), "gap {gap_ms} ms failed: {:?}", result.error);
        client.stats().conn_reuses
    };
    assert_eq!(sync_after(0, 1), 0, "first dial is fresh");
    assert_eq!(sync_after(20, 2), 1, "a young connection is reused");
    // Older than half the timeout, younger than the whole of it: the
    // responder still holds its end, the pool already let go.
    assert_eq!(
        sync_after(160, 3),
        1,
        "a connection past half the timeout is not"
    );
    // Across the whole window in which the responder reaps (its deadline
    // tick is 20 ms), no session may fail.
    for (round, gap_ms) in (220..=300).step_by(20).enumerate() {
        sync_after(gap_ms, 4 + round as u64);
    }
    assert_eq!(client.stats().failed, 0);
    client.stop();
    server.stop();
}

#[test]
fn detached_sessions_run_concurrently() {
    // Twenty caller threads hold sessions in flight at once against one
    // server, whose reactor serves them side by side.
    let mut client_node = node(1, "client");
    for i in 0..20 {
        client_node
            .send("server", format!("msg {i}").into_bytes(), SimTime::ZERO)
            .unwrap();
    }
    let registry = Arc::new(Registry::new());
    let mut server_node = node(2, "server");
    server_node
        .replica_mut()
        .set_observer(Obs::new(registry.clone()));
    let server = NetNode::start(server_node, "127.0.0.1:0", quiet_config()).unwrap();
    let client = NetNode::start(client_node, "127.0.0.1:0", quiet_config()).unwrap();
    let addr = server.local_addr().to_string();

    // Concurrent sessions to one address dial fresh connections: the
    // pool only holds connections whose session completed. The barrier
    // starts all twenty at once.
    let start = Barrier::new(20);
    std::thread::scope(|scope| {
        for i in 0..20 {
            let (client, addr, start) = (&client, &addr, &start);
            scope.spawn(move || {
                start.wait();
                let result = client.sync_with(addr, SimTime::from_secs(60 + i));
                assert!(result.is_ok(), "session {i} failed: {:?}", result.error);
            });
        }
    });
    let server_stats = server.stats();
    assert!(
        server_stats.peak_sessions >= 2,
        "server should see concurrent inbound sessions, peak {}",
        server_stats.peak_sessions
    );
    let server_node = server.stop();
    assert_eq!(server_node.inbox().len(), 20);
    let snap = registry.snapshot();
    assert_eq!(
        snap.histogram("net.session_micros").map(|h| h.count()),
        Some(20),
        "every served session lands one latency sample"
    );
    client.stop();
}

/// `n` nodes chained by seeds — each knows only its predecessor, and the
/// head of the chain only answers, never gossips — gossip until every
/// view holds the other `n - 1` alive, which must take at most `2n`
/// rounds. Returns the rounds taken.
fn gossip_chain_rounds(n: u64) -> u64 {
    let nodes: Vec<NetNode> = (1..=n)
        .map(|i| {
            let config = NetConfig {
                gossip_interval: Duration::ZERO,
                gossip: MembershipConfig {
                    seed: i,
                    ..MembershipConfig::default()
                },
                ..NetConfig::default()
            };
            NetNode::start(node(i, &format!("g{i}")), "127.0.0.1:0", config).unwrap()
        })
        .collect();
    for pair in nodes.windows(2) {
        pair[1].add_seed(pair[0].local_addr().to_string());
    }

    let mut rounds = 0;
    loop {
        rounds += 1;
        for node in &nodes[1..] {
            node.gossip_now();
        }
        let converged = nodes.iter().all(|node| {
            let view = node.membership();
            view.len() as u64 == n - 1 && view.iter().all(|p| p.status == PeerStatus::Alive)
        });
        if converged {
            break;
        }
        assert!(
            rounds < 2 * n,
            "a {n}-node chain failed to converge in {} rounds: the tail sees {:?}",
            2 * n,
            nodes[nodes.len() - 1].membership()
        );
    }
    for node in nodes {
        node.stop();
    }
    rounds
}

#[test]
fn gossip_rounds_discover_peers_transitively() {
    // c knows only b; b knows only a. Gossip spreads the full view.
    let rounds = gossip_chain_rounds(3);
    assert!(rounds <= 4, "transitive discovery took {rounds} rounds");
    gossip_chain_rounds(12);
}

#[test]
fn failed_dials_turn_members_suspect() {
    let a = NetNode::start(node(1, "a"), "127.0.0.1:0", quiet_config()).unwrap();
    let b = NetNode::start(node(2, "b"), "127.0.0.1:0", quiet_config()).unwrap();
    a.add_seed(b.local_addr().to_string());
    a.gossip_now();
    assert_eq!(a.membership().len(), 1);

    // b dies; a's next gossip round fails the dial and suspects it.
    b.stop();
    let mut suspected = false;
    for _ in 0..5 {
        a.gossip_now();
        if a.membership()
            .iter()
            .any(|p| p.replica == 2 && p.status == PeerStatus::Suspect)
        {
            suspected = true;
            break;
        }
    }
    assert!(
        suspected,
        "dead member never suspected: {:?}",
        a.membership()
    );
    a.stop();
}

#[test]
fn dial_to_dead_address_fails_fast() {
    let client = NetNode::start(node(1, "a"), "127.0.0.1:0", quiet_config()).unwrap();
    // Bind-then-drop: the port is (very likely) dead.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let start = Instant::now();
    let result = client.sync_with(&dead, SimTime::from_secs(60));
    assert!(!result.is_ok());
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "refused dial should fail fast"
    );
    assert_eq!(
        client.stats().failed,
        0,
        "dial failures never register a session"
    );
    client.stop();
}

#[test]
fn at_capacity_registrations_fail_fast() {
    let config = NetConfig {
        max_sessions: 0,
        ..quiet_config()
    };
    let client = NetNode::start(node(1, "a"), "127.0.0.1:0", config).unwrap();
    let result = client.sync_with("127.0.0.1:1", SimTime::from_secs(60));
    assert!(matches!(result.error, Some(net::SessionError::AtCapacity)));
    client.stop();
}

#[test]
fn anti_entropy_carries_a_message_along_a_seeded_chain() {
    // Three nodes chained only by seeds, each gossiping and running
    // anti-entropy on its own thread. The test never calls `sync_with`:
    // the message reaches the head over routes gossip found.
    let config = NetConfig {
        gossip_interval: Duration::from_millis(50),
        anti_entropy_interval: Duration::from_millis(50),
        ..NetConfig::default()
    };
    let nodes: Vec<NetNode> = (1..=3)
        .map(|i| {
            let node = node(i, &format!("n{i}"));
            NetNode::start(node, "127.0.0.1:0", config.clone()).unwrap()
        })
        .collect();
    for pair in nodes.windows(2) {
        pair[1].add_seed(pair[0].local_addr().to_string());
    }
    nodes[2]
        .with_node(|n| n.send("n1", b"along the chain".to_vec(), SimTime::ZERO))
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while nodes[0].with_node(|n| n.inbox().is_empty()) {
        assert!(
            Instant::now() < deadline,
            "the head never received the message: views {:?}",
            nodes.iter().map(NetNode::membership).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let stopped: Vec<DtnNode> = nodes.into_iter().map(NetNode::stop).collect();
    assert_eq!(stopped[0].inbox()[0].payload, b"along the chain");
}
