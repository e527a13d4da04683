//! Load generator for the async reactor (`crates/net`), run once per
//! poll backend over real loopback TCP. Each run has two phases. An
//! unmeasured warm-up bursts `sessions` detached syncs at once, which
//! leaves the standing state of a DTN hub: that many pooled client
//! connections with as many responders parked on the server. The
//! measured phase then issues the same number of sessions again, a
//! small window at a time, over that fabric — the regime where the
//! backends diverge, because a sweeping poller probes every parked
//! socket on every pass while an event-driven one touches only the
//! active few. Reported per backend: session throughput, client-side
//! per-session latency quantiles, and the reactor's syscall / wakeup
//! accounting (measured-phase deltas), so the artifact captures the
//! epoll-vs-sweep comparison directly. A final section measures gossip
//! membership convergence: a seed-chained cluster must heal to a full
//! alive view within a bounded number of rounds.
//!
//! Results land in `BENCH_net.json`; the perf guard gates structurally
//! on every run (both backend sections present, nonzero throughput,
//! p99 >= p50 > 0, zero failures, syscall counters present, bounded
//! gossip convergence) and quantitatively (epoll >= 3x sweep
//! sessions/s, epoll p99 below sweep p99, fewer syscalls per session)
//! only when the artifact claims a >= 1,000-session run — the committed
//! artifact does; CI's smoke run shrinks the burst via
//! `REPLIDTN_NET_SESSIONS`.
//!
//! `REPLIDTN_NET_SESSIONS` overrides the burst size (default 1200);
//! `REPLIDTN_NET_GOSSIP_NODES` the gossip cluster size (default 12).

use std::sync::Arc;
use std::time::{Duration, Instant};

use dtn::{DtnNode, PolicyKind};
use net::{MembershipConfig, NetConfig, NetNode, PeerStatus, PollBackend};
use obs::{Obs, Registry};
use pfr::{ReplicaId, SimTime};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// The session burst: `sessions` detached syncs against one server, all
/// registered before any is awaited. Returns the metrics JSON fragment
/// values the caller stitches together.
struct BurstResult {
    backend: &'static str,
    messages: usize,
    peak: usize,
    completed: u64,
    failed: u64,
    backpressure_stalls: u64,
    syscalls: u64,
    wakeups: u64,
    syscalls_per_session: f64,
    elapsed_s: f64,
    sessions_per_sec: f64,
    p50_micros: u64,
    p99_micros: u64,
    max_micros: u64,
}

fn session_burst(backend: PollBackend, sessions: usize) -> BurstResult {
    // Enough payload traffic that sessions move real data, small enough
    // that per-session protocol CPU does not drown the scheduling cost
    // under measurement.
    let messages = sessions.min(64);
    let registry = Arc::new(Registry::new());

    let mut server_node = DtnNode::new(ReplicaId::new(2), "server", PolicyKind::Epidemic);
    server_node
        .replica_mut()
        .set_observer(Obs::new(registry.clone()));
    let mut client_node = DtnNode::new(ReplicaId::new(1), "client", PolicyKind::Epidemic);
    // Traffic both ways: sessions pull payloads, not just knowledge.
    for i in 0..messages {
        let payload = vec![0x5A; 256];
        client_node
            .send("server", payload.clone(), SimTime::from_secs(i as u64))
            .expect("inject");
        server_node
            .send("client", payload, SimTime::from_secs(i as u64))
            .expect("inject");
    }

    let server = NetNode::start(
        server_node,
        "127.0.0.1:0",
        NetConfig {
            backend,
            max_sessions: sessions + 64,
            gossip_interval: Duration::ZERO,
            ..NetConfig::default()
        },
    )
    .expect("bind server");
    let client = NetNode::start(
        client_node,
        "127.0.0.1:0",
        NetConfig {
            backend,
            max_sessions: sessions + 64,
            gossip_interval: Duration::ZERO,
            ..NetConfig::default()
        },
    )
    .expect("bind client");
    let addr = server.local_addr().to_string();

    // Phase 1 (unmeasured warm-up): a full concurrent burst opens the
    // contact fabric — `sessions` connections that end up pooled on the
    // client with as many responders parked on the server, the standing
    // state of a DTN hub holding many open contacts.
    let tickets: Vec<_> = (0..sessions)
        .map(|i| {
            client
                .sync_detached(&addr, SimTime::from_secs(3600 + i as u64))
                .expect("register session")
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let result = ticket.wait();
        assert!(
            result.is_ok(),
            "warm-up session {i} failed: {:?}",
            result.error
        );
    }
    let warm_client = client.stats();
    let warm_server = server.stats();

    // Phase 2 (measured): the same burst size again, `WINDOW` sessions
    // in flight at a time over the standing fabric. Only a handful of
    // the open sockets are active at any instant, so a backend that
    // probes every parked connection pays for the whole fabric on every
    // pass while an event-driven one pays only for the active few.
    const WINDOW: usize = 8;
    let started = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let client = &client;
        let addr = &addr;
        let handles: Vec<_> = (0..WINDOW)
            .map(|w| {
                scope.spawn(move || {
                    let share = sessions / WINDOW + usize::from(w < sessions % WINDOW);
                    let mut lat = Vec::with_capacity(share);
                    for s in 0..share {
                        let t0 = Instant::now();
                        // Detached and awaited, not `sync_with`: that runs
                        // on this thread and would leave the client's
                        // backend out of the comparison.
                        let result = client
                            .sync_detached(addr, SimTime::from_secs(7200 + s as u64))
                            .expect("register session")
                            .wait();
                        assert!(result.is_ok(), "session failed: {:?}", result.error);
                        lat.push(t0.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("window thread"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    let server_stats = server.stats();
    let client_stats = client.stats();
    assert_eq!(client_stats.failed, 0, "client sessions failed");
    assert_eq!(
        client_stats.completed - warm_client.completed,
        sessions as u64,
        "measured sessions lost"
    );
    assert!(server_stats.peak_sessions >= 1, "no session ever opened");
    assert!(client_stats.syscalls > 0, "syscall accounting missing");
    assert!(client_stats.wakeups > 0, "wakeup accounting missing");

    let server_node = server.stop();
    let client_node = client.stop();
    assert_eq!(
        server_node.inbox().len(),
        messages,
        "at-most-once delivery broke under the burst"
    );
    assert_eq!(
        client_node.inbox().len(),
        messages,
        "pull path lost messages"
    );

    let snapshot = registry.snapshot();
    let hist = snapshot
        .histogram("net.session_micros")
        .expect("server sessions observed");
    assert!(hist.count() >= sessions as u64, "histogram missed sessions");

    latencies.sort_unstable();
    let quantile = |q: f64| latencies[((latencies.len() - 1) as f64 * q) as usize];
    // Syscall/wakeup deltas isolate the measured phase from the warm-up.
    let syscalls = (client_stats.syscalls + server_stats.syscalls)
        - (warm_client.syscalls + warm_server.syscalls);
    BurstResult {
        backend: client_stats.backend,
        messages,
        peak: server_stats.peak_sessions,
        completed: client_stats.completed - warm_client.completed,
        failed: client_stats.failed,
        backpressure_stalls: client_stats.backpressure_stalls + server_stats.backpressure_stalls,
        syscalls,
        wakeups: (client_stats.wakeups + server_stats.wakeups)
            - (warm_client.wakeups + warm_server.wakeups),
        syscalls_per_session: syscalls as f64 / sessions as f64,
        elapsed_s,
        sessions_per_sec: sessions as f64 / elapsed_s.max(1e-9),
        p50_micros: quantile(0.5),
        p99_micros: quantile(0.99),
        max_micros: *latencies.last().expect("latencies recorded"),
    }
}

/// Gossip convergence: `n` nodes chained by seeds (each knows only its
/// predecessor) gossip until every view holds all `n - 1` peers alive.
/// Returns (rounds, bound).
fn gossip_convergence(n: usize) -> (usize, usize) {
    let nodes: Vec<NetNode> = (1..=n as u64)
        .map(|i| {
            NetNode::start(
                DtnNode::new(ReplicaId::new(i), &format!("g{i}"), PolicyKind::Epidemic),
                "127.0.0.1:0",
                NetConfig {
                    gossip_interval: Duration::ZERO,
                    gossip: MembershipConfig {
                        seed: i,
                        ..MembershipConfig::default()
                    },
                    ..NetConfig::default()
                },
            )
            .expect("bind gossip node")
        })
        .collect();
    for pair in nodes.windows(2) {
        pair[1].add_seed(pair[0].local_addr().to_string());
    }

    let bound = 2 * n;
    let mut rounds = 0;
    loop {
        rounds += 1;
        for node in &nodes {
            node.gossip_now();
        }
        let converged = nodes.iter().all(|node| {
            let view = node.membership();
            view.len() == n - 1 && view.iter().all(|p| p.status == PeerStatus::Alive)
        });
        if converged {
            break;
        }
        assert!(
            rounds < bound,
            "gossip failed to converge in {bound} rounds"
        );
    }
    for node in nodes {
        node.stop();
    }
    (rounds, bound)
}

fn backend_json(burst: &BurstResult) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"backend\": \"{backend}\",\n",
            "    \"peak_concurrent_sessions\": {peak},\n",
            "    \"completed\": {completed},\n",
            "    \"failed\": {failed},\n",
            "    \"backpressure_stalls\": {stalls},\n",
            "    \"syscalls\": {syscalls},\n",
            "    \"wakeups\": {wakeups},\n",
            "    \"syscalls_per_session\": {sps:.1},\n",
            "    \"elapsed_seconds\": {elapsed:.3},\n",
            "    \"sessions_per_sec\": {rate:.1},\n",
            "    \"p50_micros\": {p50},\n",
            "    \"p99_micros\": {p99},\n",
            "    \"max_micros\": {max}\n",
            "  }}"
        ),
        backend = burst.backend,
        peak = burst.peak,
        completed = burst.completed,
        failed = burst.failed,
        stalls = burst.backpressure_stalls,
        syscalls = burst.syscalls,
        wakeups = burst.wakeups,
        sps = burst.syscalls_per_session,
        elapsed = burst.elapsed_s,
        rate = burst.sessions_per_sec,
        p50 = burst.p50_micros,
        p99 = burst.p99_micros,
        max = burst.max_micros,
    )
}

fn print_burst(burst: &BurstResult) {
    println!(
        "  burst[{}]: peak {} concurrent sessions, {:.0} sessions/s, \
         p50 {}us p99 {}us max {}us, {:.1} syscalls/session, \
         {} wakeups, {} backpressure stalls, {:.2}s",
        burst.backend,
        burst.peak,
        burst.sessions_per_sec,
        burst.p50_micros,
        burst.p99_micros,
        burst.max_micros,
        burst.syscalls_per_session,
        burst.wakeups,
        burst.backpressure_stalls,
        burst.elapsed_s
    );
}

fn main() {
    let sessions = env_usize("REPLIDTN_NET_SESSIONS", 1200);
    let gossip_nodes = env_usize("REPLIDTN_NET_GOSSIP_NODES", 12).max(2);

    println!("macro_net: {sessions}-session burst per backend, {gossip_nodes}-node gossip chain");
    let sweep = session_burst(PollBackend::Sweep, sessions);
    print_burst(&sweep);
    let epoll = session_burst(PollBackend::Epoll, sessions);
    print_burst(&epoll);
    let speedup = epoll.sessions_per_sec / sweep.sessions_per_sec.max(1e-9);
    println!("  speedup : epoll {speedup:.2}x sweep sessions/s");

    let (rounds, bound) = gossip_convergence(gossip_nodes);
    println!("  gossip  : {gossip_nodes} nodes converged in {rounds} rounds (bound {bound})");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"macro_net\",\n",
            "  \"sessions\": {sessions},\n",
            "  \"messages\": {messages},\n",
            "  \"backends\": {{\n",
            "  \"sweep\": {sweep_section},\n",
            "  \"epoll\": {epoll_section}\n",
            "  }},\n",
            "  \"epoll_speedup\": {speedup:.2},\n",
            "  \"gossip\": {{\"nodes\": {gnodes}, \"rounds_to_converge\": {rounds}, ",
            "\"bound\": {bound}, \"converged\": true}}\n",
            "}}\n",
        ),
        sessions = sessions,
        messages = sweep.messages,
        sweep_section = backend_json(&sweep),
        epoll_section = backend_json(&epoll),
        speedup = speedup,
        gnodes = gossip_nodes,
        rounds = rounds,
        bound = bound,
    );
    std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
    println!("  wrote BENCH_net.json");
}
