//! A `NetNode` serves every inbound session on one reactor thread, named
//! `reactor-{port}` after its listen port, and stops it promptly with
//! connections still parked on it.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use dtn::{DtnNode, PolicyKind};
use net::{NetConfig, NetNode};
use pfr::{ReplicaId, SimTime};

fn node(id: u64, addr: &str) -> DtnNode {
    DtnNode::new(ReplicaId::new(id), addr, PolicyKind::Epidemic)
}

fn quiet_config() -> NetConfig {
    NetConfig {
        gossip_interval: Duration::ZERO,
        ..NetConfig::default()
    }
}

/// How many of this process's threads carry `name`. Tests in one binary
/// run side by side, so each counts the name its own node's port gives.
fn threads_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

#[test]
fn a_node_serves_on_one_reactor_thread_whatever_workers_says() {
    let config = NetConfig {
        workers: 4,
        ..quiet_config()
    };
    let mut b = node(2, "b");
    b.send("a", b"to a".to_vec(), SimTime::ZERO).unwrap();
    let server = NetNode::start(b, "127.0.0.1:0", config).unwrap();
    let name = format!("reactor-{}", server.local_addr().port());

    // Several clients at once: the one loop serves them all. (A thread
    // names itself once it runs, so the count is taken after they did.)
    let clients: Vec<NetNode> = (10..14)
        .map(|id| {
            NetNode::start(node(id, &format!("c{id}")), "127.0.0.1:0", quiet_config()).unwrap()
        })
        .collect();
    let addr = server.local_addr().to_string();
    std::thread::scope(|scope| {
        for client in &clients {
            let addr = &addr;
            scope.spawn(move || {
                let result = client.sync_with(addr, SimTime::from_secs(60));
                assert!(result.is_ok(), "session failed: {:?}", result.error);
            });
        }
    });
    assert_eq!(threads_named(&name), 1);
    assert_eq!(
        server.stats().open_sessions,
        clients.len(),
        "one parked responder per client"
    );

    for client in clients {
        client.stop();
    }
    server.stop();
    assert_eq!(threads_named(&name), 0, "stop joins the reactor thread");
}

#[test]
fn stop_returns_promptly_with_parked_inbound_connections() {
    let server = NetNode::start(node(2, "b"), "127.0.0.1:0", quiet_config()).unwrap();
    let addr = server.local_addr();
    // Responders parked idle after a session, and connections that never
    // said a word.
    let client = NetNode::start(node(1, "a"), "127.0.0.1:0", quiet_config()).unwrap();
    for round in 1..=3 {
        let result = client.sync_with(&addr.to_string(), SimTime::from_secs(60 * round));
        assert!(result.is_ok(), "session failed: {:?}", result.error);
    }
    let silent: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().open_sessions < 1 + silent.len() {
        assert!(Instant::now() < deadline, "{:?}", server.stats());
        std::thread::sleep(Duration::from_millis(5));
    }

    let started = Instant::now();
    server.stop();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(200), "stop took {took:?}");
    client.stop();
    drop(silent);
}
