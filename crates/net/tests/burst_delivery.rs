//! Exactly-once delivery under concurrent reactor bursts.
//!
//! Seeded multi-peer scenarios: several clients each hold many sessions
//! in flight against one server at once, each on a caller thread of its
//! own, in Full or Digest mode,
//! then a quiescing round lets every client pull the complete set. Every
//! inbox must then hold exactly what was addressed to it — every message
//! once, none twice — whatever interleaving the threads and the reactor chose.
//!
//! The base seed honours `TESTKIT_SEED` so the CI matrix sweeps it.

use std::time::Duration;

use dtn::{DtnNode, PolicyKind};
use net::{NetConfig, NetNode};
use pfr::{ReplicaId, SimTime, SyncMode};
use proptest::prelude::*;

/// The base seed for every scenario, offset by `TESTKIT_SEED` when set
/// (the CI matrix sets 0..8).
fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(0x5AAD)
}

/// Deterministic payload bytes for message `j` of node `i` under `seed`.
fn payload(seed: u64, i: u64, j: u64, len: usize) -> Vec<u8> {
    let mut state = seed ^ (i << 32) ^ j ^ 0x9E37_79B9_7F4A_7C15;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        out.push((state >> 56) as u8);
    }
    out
}

fn config() -> NetConfig {
    NetConfig {
        gossip_interval: Duration::ZERO,
        ..NetConfig::default()
    }
}

/// A sorted inbox: (sender address, payload) per delivered message.
type Inbox = Vec<(String, Vec<u8>)>;

/// Runs one burst and returns every node's sorted inbox, server first.
fn run_burst(
    seed: u64,
    clients: usize,
    burst_per_client: usize,
    messages: usize,
    payload_len: usize,
    mode: SyncMode,
) -> Vec<Inbox> {
    let mut server_node = DtnNode::new(ReplicaId::new(100), "server", PolicyKind::Epidemic);
    server_node.set_sync_mode(mode);
    for j in 0..messages as u64 {
        for i in 1..=clients as u64 {
            server_node
                .send(
                    &format!("c{i}"),
                    payload(seed, 100 + i, j, payload_len),
                    SimTime::from_secs(j),
                )
                .expect("inject");
        }
    }
    let server = NetNode::start(server_node, "127.0.0.1:0", config()).expect("server");
    let addr = server.local_addr().to_string();

    let client_nodes: Vec<NetNode> = (1..=clients as u64)
        .map(|i| {
            let mut node = DtnNode::new(ReplicaId::new(i), &format!("c{i}"), PolicyKind::Epidemic);
            node.set_sync_mode(mode);
            for j in 0..messages as u64 {
                node.send(
                    "server",
                    payload(seed, i, j, payload_len),
                    SimTime::from_secs(j),
                )
                .expect("inject");
            }
            NetNode::start(node, "127.0.0.1:0", config()).expect("client")
        })
        .collect();

    // Concurrent burst: every client holds several sessions in flight at
    // once, one caller thread each — interleaving is the threads' and the
    // reactor's to schedule.
    std::thread::scope(|scope| {
        for r in 0..burst_per_client as u64 {
            for (i, client) in client_nodes.iter().enumerate() {
                let addr = &addr;
                scope.spawn(move || {
                    let result = client.sync_with(addr, SimTime::from_secs(3600 + r));
                    assert!(
                        result.is_ok(),
                        "burst session {r} of client {i} failed: {:?}",
                        result.error
                    );
                });
            }
        }
    });
    // Quiescing round, fixed order: every client pulls the complete set.
    for client in &client_nodes {
        let result = client.sync_with(&addr, SimTime::from_secs(7200));
        assert!(result.is_ok(), "quiesce failed: {:?}", result.error);
    }

    let mut nodes = vec![server.stop()];
    nodes.extend(client_nodes.into_iter().map(NetNode::stop));
    nodes
        .iter()
        .map(|n| {
            let mut inbox: Inbox = n
                .inbox()
                .into_iter()
                .map(|m| (m.src.clone(), m.payload.clone()))
                .collect();
            inbox.sort();
            inbox
        })
        .collect()
}

/// What every inbox must hold: each message addressed to the node, once.
fn expected_inboxes(seed: u64, clients: usize, messages: usize, payload_len: usize) -> Vec<Inbox> {
    let sorted = |mut inbox: Inbox| {
        inbox.sort();
        inbox
    };
    let to_server = (1..=clients as u64)
        .flat_map(|i| {
            (0..messages as u64).map(move |j| (format!("c{i}"), payload(seed, i, j, payload_len)))
        })
        .collect();
    let mut inboxes = vec![sorted(to_server)];
    inboxes.extend((1..=clients as u64).map(|i| {
        sorted(
            (0..messages as u64)
                .map(|j| ("server".to_string(), payload(seed, 100 + i, j, payload_len)))
                .collect(),
        )
    }));
    inboxes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    #[test]
    fn concurrent_bursts_deliver_every_message_exactly_once(
        seed_offset in 0u64..1 << 48,
        clients in 2usize..4,
        burst_per_client in 1usize..4,
        messages in 1usize..4,
        payload_len in 16usize..512,
        digest in any::<bool>(),
    ) {
        let seed = base_seed() ^ seed_offset;
        let mode = if digest { SyncMode::Digest } else { SyncMode::Full };
        let inboxes = run_burst(seed, clients, burst_per_client, messages, payload_len, mode);
        prop_assert_eq!(inboxes.len(), clients + 1);
        for (i, inbox) in inboxes.iter().enumerate() {
            let expected = if i == 0 { clients * messages } else { messages };
            prop_assert_eq!(inbox.len(), expected, "node {} inbox size", i);
        }
        prop_assert_eq!(inboxes, expected_inboxes(seed, clients, messages, payload_len));
    }
}
