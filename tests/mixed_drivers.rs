//! The reactor and the blocking peer drive one session machine, so a
//! deployment may mix them: a pooling reactor initiator against a
//! thread-per-connection responder, and the other way round.

use std::time::Duration;

use replidtn::dtn::{DtnNode, PolicyKind};
use replidtn::net::{NetConfig, NetNode, PeerStatus};
use replidtn::pfr::{ReplicaId, SimTime};
use replidtn::transport::Peer;

fn node(id: u64, addr: &str) -> DtnNode {
    DtnNode::new(ReplicaId::new(id), addr, PolicyKind::Epidemic)
}

fn quiet() -> NetConfig {
    NetConfig {
        gossip_interval: Duration::ZERO,
        ..NetConfig::default()
    }
}

#[test]
fn a_reactor_initiator_pools_its_connection_to_a_blocking_peer() {
    let blocking = Peer::start(node(2, "b"), "127.0.0.1:0").unwrap();
    let reactor = NetNode::start(node(1, "a"), "127.0.0.1:0", quiet()).unwrap();
    let addr = blocking.local_addr().to_string();

    // The blocking peer keeps serving the connection the reactor pooled:
    // later sessions reuse it and open with hello and request together.
    for round in 1..=3u64 {
        reactor
            .with_node(|n| n.send("b", format!("round {round}").into_bytes(), SimTime::ZERO))
            .unwrap();
        let outcome = reactor.sync_with(&addr, SimTime::from_secs(60 * round));
        assert!(outcome.is_ok(), "round {round}: {:?}", outcome.error);
        assert_eq!(outcome.report.peer, Some(ReplicaId::new(2)));
    }
    assert_eq!(reactor.stats().conn_reuses, 2);
    assert_eq!(blocking.with_node(|n| n.inbox().len()), 3);

    // It also answers the reactor's gossip, over the same connection.
    reactor.add_seed(addr);
    assert_eq!(reactor.gossip_now().merged, 1);
    let view = reactor.membership();
    assert!(view
        .iter()
        .any(|p| p.replica == 2 && p.status == PeerStatus::Alive));

    // Stopping the blocking peer first must not wait for the reactor to
    // let go of the connection it still pools.
    blocking.stop();
    reactor.stop();
}

#[test]
fn a_blocking_initiator_syncs_with_a_reactor_responder() {
    let mut a = node(1, "a");
    let mut b = node(2, "b");
    a.send("b", b"to the reactor".to_vec(), SimTime::ZERO)
        .unwrap();
    b.send("a", b"to the blocking peer".to_vec(), SimTime::ZERO)
        .unwrap();
    let reactor = NetNode::start(b, "127.0.0.1:0", quiet()).unwrap();
    let blocking = Peer::start(a, "127.0.0.1:0").unwrap();

    for round in 1..=2u64 {
        let report = blocking
            .sync_with(reactor.local_addr(), SimTime::from_secs(60 * round))
            .expect("blocking initiator");
        assert_eq!(report.peer, Some(ReplicaId::new(2)));
    }
    assert_eq!(blocking.stop().inbox().len(), 1);
    assert_eq!(reactor.stop().inbox().len(), 1);
}
