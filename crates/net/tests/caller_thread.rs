//! The blocking initiator on its caller's thread — what sits behind
//! `NetNode::sync_with` and `Peer::sync_with` — at its edges: a pooled
//! connection that died in the pool, a peer that goes quiet, and churn
//! from several caller threads with connections cut mid-batch. That its
//! sessions equal every other driver's is `session_matrix.rs`' business.
//!
//! Every test counts the process's open descriptors, so they run one at a
//! time.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dtn::{DtnNode, PolicyKind};
use net::{NetConfig, NetNode, SessionError};
use pfr::{ReplicaId, SimTime};
use transport::{DialConfig, Peer, TransportError};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Open descriptors of this process (`None` where `/proc` is absent).
fn open_fds() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

fn node(id: u64, addr: &str) -> DtnNode {
    DtnNode::new(ReplicaId::new(id), addr, PolicyKind::Epidemic)
}

fn quiet(stall: Duration) -> NetConfig {
    NetConfig {
        workers: 1,
        gossip_interval: Duration::ZERO,
        dial: DialConfig {
            io_timeout: stall,
            ..DialConfig::default()
        },
        ..NetConfig::default()
    }
}

const PATIENT: Duration = Duration::from_secs(10);

/// A TCP forwarder in front of one node that can cut what it carries: all
/// live connections on demand ([`Proxy::cut`]), or each connection once
/// `reply_budget` bytes of the node's replies went through.
struct Proxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    live: Arc<Mutex<Vec<(usize, TcpStream)>>>,
    accepting: std::thread::JoinHandle<()>,
}

impl Proxy {
    fn start(target: SocketAddr, reply_budget: Option<usize>) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let addr = listener.local_addr().expect("proxy addr");
        let stop = Arc::new(AtomicBool::new(false));
        let live: Arc<Mutex<Vec<(usize, TcpStream)>>> = Arc::default();
        let (stopping, registry) = (Arc::clone(&stop), Arc::clone(&live));
        let accepting = std::thread::spawn(move || {
            let mut copies = Vec::new();
            for (id, client) in listener.incoming().enumerate() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let client = client.expect("proxy accept");
                let server = TcpStream::connect(target).expect("proxy dial");
                client.set_nodelay(true).expect("nodelay");
                server.set_nodelay(true).expect("nodelay");
                let (c2, s2) = (client.try_clone().unwrap(), server.try_clone().unwrap());
                for leg in [&client, &server] {
                    let leg = leg.try_clone().unwrap();
                    registry.lock().unwrap().push((id, leg));
                }
                let registry = Arc::clone(&registry);
                copies.push(std::thread::spawn(move || {
                    forward(client, server, None);
                    registry.lock().unwrap().retain(|(live, _)| *live != id);
                }));
                copies.push(std::thread::spawn(move || forward(s2, c2, reply_budget)));
            }
            for copy in copies {
                copy.join().expect("proxy copy thread");
            }
        });
        Proxy {
            addr,
            stop,
            live,
            accepting,
        }
    }

    /// Kills every connection the proxy carries right now, both legs.
    fn cut(&self) {
        for (_, stream) in self.live.lock().unwrap().iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Stops listening and waits for every carried connection to end.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.cut();
        self.accepting.join().expect("proxy thread");
    }
}

/// Copies `from` into `to` until EOF, an error, or `budget` bytes; then
/// takes both legs down.
fn forward(mut from: TcpStream, mut to: TcpStream, budget: Option<usize>) {
    let mut buf = [0u8; 16 * 1024];
    let mut left = budget.unwrap_or(usize::MAX);
    while left > 0 {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                let n = n.min(left);
                left -= n;
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[test]
fn a_stale_pooled_connection_costs_a_redial_not_the_contact() {
    let _serial = one_at_a_time();
    let server = NetNode::start(node(2, "b"), "127.0.0.1:0", quiet(PATIENT)).unwrap();
    let reactor = NetNode::start(node(1, "a"), "127.0.0.1:0", quiet(PATIENT)).unwrap();
    let blocking = Peer::start(node(3, "c"), "127.0.0.1:0").unwrap();
    let proxy = Proxy::start(server.local_addr(), None);
    let toward = proxy.addr.to_string();

    // First sessions: both initiators pool their connection.
    assert!(reactor.sync_with(&toward, SimTime::from_secs(60)).is_ok());
    blocking
        .sync_with(proxy.addr, SimTime::from_secs(60))
        .expect("first blocking session");

    // The pooled connections die in the pool, as under a responder that
    // restarted or reaped them. The next sessions still deliver.
    proxy.cut();
    reactor
        .with_node(|n| n.send("b", b"after the cut".to_vec(), SimTime::ZERO))
        .unwrap();
    blocking
        .with_node(|n| n.send("b", b"also after".to_vec(), SimTime::ZERO))
        .unwrap();
    let outcome = reactor.sync_with(&toward, SimTime::from_secs(120));
    assert!(outcome.is_ok(), "redialed session: {:?}", outcome.error);
    blocking
        .sync_with(proxy.addr, SimTime::from_secs(120))
        .expect("redialed blocking session");
    assert_eq!(server.with_node(|n| n.inbox().len()), 2);
    let stats = reactor.stats();
    assert_eq!(
        (stats.completed, stats.failed, stats.conn_reuses),
        (2, 0, 0),
        "the dead attempt is neither a failure nor a reuse"
    );

    // A peer that is simply gone still fails, typed: nothing answers the
    // redial.
    proxy.stop();
    let outcome = reactor.sync_with(&toward, SimTime::from_secs(180));
    assert!(
        matches!(outcome.error, Some(SessionError::Io(_))),
        "{:?}",
        outcome.error
    );
    let gone = blocking.sync_with(toward.parse().unwrap(), SimTime::from_secs(180));
    assert!(matches!(gone, Err(TransportError::Io(_))), "{gone:?}");
    assert_eq!(reactor.stats().failed, 0, "a failed dial is not a session");

    blocking.stop();
    reactor.stop();
    server.stop();
}

#[test]
fn a_quiet_peer_stalls_a_caller_thread_session() {
    let _serial = one_at_a_time();
    let baseline = open_fds();
    let budget = Duration::from_millis(200);
    // The kernel completes the handshake and takes the request; nobody
    // ever answers.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let silent_addr = silent.local_addr().unwrap();

    let reactor = NetNode::start(node(1, "a"), "127.0.0.1:0", quiet(budget)).unwrap();
    for round in 1..=2u64 {
        let started = Instant::now();
        let outcome = reactor.sync_with(&silent_addr.to_string(), SimTime::from_secs(round));
        assert!(
            matches!(outcome.error, Some(SessionError::Stalled)),
            "{:?}",
            outcome.error
        );
        assert!(started.elapsed() < budget * 2, "{:?}", started.elapsed());
    }
    let stats = reactor.stats();
    assert_eq!((stats.completed, stats.failed), (0, 2));
    assert_eq!(stats.conn_reuses, 0, "a stalled connection is not pooled");
    assert_eq!(stats.open_sessions, 0);
    reactor.stop();

    let dial = DialConfig {
        io_timeout: budget,
        ..DialConfig::default()
    };
    let blocking = Peer::start_configured(node(3, "c"), "127.0.0.1:0", dial).unwrap();
    let before = open_fds();
    let started = Instant::now();
    let stalled = blocking.sync_with(silent_addr, SimTime::from_secs(3));
    assert!(
        matches!(stalled, Err(TransportError::Session(SessionError::Stalled))),
        "{stalled:?}"
    );
    assert!(started.elapsed() < budget * 2, "{:?}", started.elapsed());
    assert_eq!(open_fds(), before, "the stalled connection was closed");
    blocking.stop();

    drop(silent);
    assert_eq!(open_fds(), baseline);
}

/// 10,000 blocking sessions from four caller threads against two
/// responders, every 50th through a proxy that cuts it mid-batch.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn churn_from_four_caller_threads_leaks_nothing() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 2_500;
    let _serial = one_at_a_time();
    let baseline = open_fds();

    let responders: Vec<NetNode> = (0..2u64)
        .map(|i| {
            let mut responder = node(10 + i, &format!("r{i}"));
            for m in 0..8 {
                responder
                    .send("a", format!("r{i} #{m}").into_bytes(), SimTime::ZERO)
                    .unwrap();
            }
            NetNode::start(responder, "127.0.0.1:0", quiet(PATIENT)).unwrap()
        })
        .collect();
    let initiator = NetNode::start(node(1, "a"), "127.0.0.1:0", quiet(PATIENT)).unwrap();
    // Past the hello reply, inside the batch frame.
    let proxy = Proxy::start(responders[0].local_addr(), Some(40));
    let direct: Vec<String> = responders
        .iter()
        .map(|r| r.local_addr().to_string())
        .collect();
    let cutting = proxy.addr.to_string();
    // Every node has accepted a connection, so every thread that opens
    // descriptors of its own has done so before they are counted.
    let back = initiator.local_addr().to_string();
    assert!(responders[0].sync_with(&back, SimTime::ZERO).is_ok());
    for addr in &direct {
        assert!(initiator.sync_with(addr, SimTime::ZERO).is_ok());
    }
    let started = open_fds();

    let failures: usize = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (initiator, direct, cutting) = (&initiator, &direct, &cutting);
                scope.spawn(move || {
                    let mut failures = 0;
                    for i in 0..PER_THREAD {
                        let n = t * PER_THREAD + i;
                        let cut = n % 50 == 49;
                        let addr = if cut { cutting } else { &direct[n % 2] };
                        if i % 100 == 0 {
                            initiator
                                .with_node(|node| {
                                    node.send("r1", vec![0x5a; 64], SimTime::from_secs(n as u64))
                                })
                                .unwrap();
                        }
                        let outcome = initiator.sync_with(addr, SimTime::from_secs(n as u64));
                        match outcome.error {
                            None => assert!(!cut, "session {n} outran its cut"),
                            Some(SessionError::Eof | SessionError::Io(_)) => {
                                assert!(cut, "uncut session {n} failed");
                                failures += 1;
                            }
                            Some(other) => panic!("session {n}: {other:?}"),
                        }
                    }
                    failures
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller thread"))
            .sum()
    });

    let attempts = (THREADS * PER_THREAD) as u64;
    assert_eq!(failures as u64, attempts / 50);
    let stats = initiator.stats();
    // Two warm-up sessions, and the one it answered.
    assert_eq!(stats.completed + stats.failed, attempts + 3);
    assert_eq!(stats.failed, attempts / 50);
    assert_eq!(stats.open_sessions, 1, "the parked warm-up responder");
    assert!(stats.peak_sessions <= THREADS + 1);

    // What was opened since is the pool: at most one connection (two
    // ends) per caller thread and responder — the warm-up left one to
    // each already — and none to the proxy. Responders drop their ends
    // of cut sessions as their reactor threads get to them.
    proxy.stop();
    let bound = started.map(|fds| fds + 2 * (THREADS - 1) * responders.len());
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_fds() > bound && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(open_fds() <= bound, "{:?} > {bound:?}", open_fds());

    assert_eq!(initiator.stop().inbox().len(), 16);
    for responder in responders {
        responder.stop();
    }
    assert_eq!(open_fds(), baseline);
}
