//! A mesh node: a TCP peer plus an anti-entropy loop.
//!
//! [`Peer`] answers inbound sync sessions; a [`Mesh`] additionally *originates*
//! them, cycling through its known peers on an interval (or on demand via
//! [`Mesh::sync_now`]), which turns a set of processes into a continuously
//! converging replication group — the deployable shape of the paper's
//! system when connectivity is the network rather than bus encounters.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dtn::DtnNode;
use parking_lot::Mutex;
use pfr::SimTime;

use pfr::SyncLimits;

use crate::dial::DialConfig;
use crate::peer::{Peer, TransportError};

/// Configuration for a mesh node's anti-entropy loop.
#[derive(Clone, Copy, Debug)]
pub struct MeshConfig {
    /// Time between sync attempts (one peer per tick, round-robin).
    pub sync_interval: Duration,
    /// Dial policy for outbound sessions: connect/I-O deadlines and the
    /// reconnect backoff, so one wedged peer cannot stall the rotation.
    pub dial: DialConfig,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            sync_interval: Duration::from_secs(30),
            dial: DialConfig::default(),
        }
    }
}

/// A [`Peer`] that also runs periodic anti-entropy against a peer list.
///
/// # Examples
///
/// ```
/// use dtn::{DtnNode, PolicyKind};
/// use pfr::{ReplicaId, SimTime};
/// use transport::{Mesh, MeshConfig};
///
/// let a = Mesh::start(
///     DtnNode::new(ReplicaId::new(1), "a", PolicyKind::Epidemic),
///     "127.0.0.1:0",
///     MeshConfig::default(),
/// )?;
/// let b = Mesh::start(
///     DtnNode::new(ReplicaId::new(2), "b", PolicyKind::Epidemic),
///     "127.0.0.1:0",
///     MeshConfig::default(),
/// )?;
/// a.add_peer(b.local_addr());
/// a.with_node(|n| n.send("b", b"hi".to_vec(), SimTime::ZERO)).unwrap();
/// a.sync_now(); // or wait for the background interval
/// assert_eq!(b.with_node(|n| n.inbox().len()), 1);
/// # Ok::<(), transport::TransportError>(())
/// ```
pub struct Mesh {
    peer: Arc<Peer>,
    peers: Arc<Mutex<Vec<SocketAddr>>>,
    shutdown: Arc<AtomicBool>,
    started: Instant,
    ticker: Option<JoinHandle<()>>,
}

impl Mesh {
    /// Starts a mesh node listening on `bind` with an empty peer list.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn start(
        node: DtnNode,
        bind: impl ToSocketAddrs,
        config: MeshConfig,
    ) -> Result<Mesh, TransportError> {
        let peer = Arc::new(Peer::start_configured(
            node,
            bind,
            SyncLimits::unlimited(),
            config.dial,
        )?);
        let peers: Arc<Mutex<Vec<SocketAddr>>> = Arc::new(Mutex::new(Vec::new()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let started = Instant::now();

        let tick_peer = Arc::clone(&peer);
        let tick_peers = Arc::clone(&peers);
        let tick_shutdown = Arc::clone(&shutdown);
        let ticker = std::thread::Builder::new()
            .name("mesh-anti-entropy".to_string())
            .spawn(move || {
                let mut next = 0usize;
                while !tick_shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(config.sync_interval.min(Duration::from_millis(50)));
                    // Honor the configured cadence while staying responsive
                    // to shutdown: only sync when a full interval elapsed.
                    let due =
                        started.elapsed().as_millis() / config.sync_interval.as_millis().max(1);
                    if due as usize <= next {
                        continue;
                    }
                    next = due as usize;
                    let target = {
                        let list = tick_peers.lock();
                        if list.is_empty() {
                            continue;
                        }
                        list[next % list.len()]
                    };
                    let now = SimTime::from_secs(started.elapsed().as_secs());
                    let _ = tick_peer.sync_with(target, now);
                }
            })?;

        Ok(Mesh {
            peer,
            peers,
            shutdown,
            started,
            ticker: Some(ticker),
        })
    }

    /// The socket address this node listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.peer.local_addr()
    }

    /// Adds a peer to the anti-entropy rotation.
    pub fn add_peer(&self, addr: SocketAddr) {
        let mut list = self.peers.lock();
        if !list.contains(&addr) {
            list.push(addr);
        }
    }

    /// The current peer list.
    pub fn peers(&self) -> Vec<SocketAddr> {
        self.peers.lock().clone()
    }

    /// Runs a closure against the node under the peer lock.
    pub fn with_node<T>(&self, f: impl FnOnce(&mut DtnNode) -> T) -> T {
        self.peer.with_node(f)
    }

    /// Synchronizes with every known peer immediately (one full round).
    /// Returns the number of peers successfully synced. Unreachable peers
    /// are skipped — disruption tolerance applies to the mesh too.
    pub fn sync_now(&self) -> usize {
        let targets = self.peers();
        let now = SimTime::from_secs(self.started.elapsed().as_secs());
        let mut synced = 0;
        for addr in targets {
            match self.peer.sync_with(addr, now) {
                Ok(_) => synced += 1,
                Err(TransportError::Io(_)) => {
                    // The connection never came up, so the session machine had
                    // no chance to report it; record the failed attempt here.
                    // (Mid-session failures already self-report.)
                    let (replica, obs) =
                        self.with_node(|n| (n.id().as_u64(), n.replica().observer().clone()));
                    obs.emit(obs::EventKind::TransportSync, || {
                        obs::Event::TransportSync {
                            replica,
                            peer: 0,
                            served: 0,
                            delivered: 0,
                            frame_bytes: 0,
                            ok: false,
                        }
                    });
                }
                Err(TransportError::Session(_)) => {}
            }
        }
        synced
    }

    /// Stops the anti-entropy loop and the listener.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.ticker.take() {
            let _ = handle.join();
        }
        // Peer shuts down on drop.
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.ticker.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Mesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mesh")
            .field("local_addr", &self.local_addr())
            .field("peers", &self.peers.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn::PolicyKind;
    use pfr::ReplicaId;

    fn mesh(n: u64, addr: &str) -> Mesh {
        Mesh::start(
            DtnNode::new(ReplicaId::new(n), addr, PolicyKind::Epidemic),
            "127.0.0.1:0",
            MeshConfig {
                sync_interval: Duration::from_secs(3600), // manual ticks only
                ..MeshConfig::default()
            },
        )
        .expect("bind")
    }

    #[test]
    fn manual_rounds_converge_a_chain() {
        let a = mesh(1, "a");
        let b = mesh(2, "b");
        let c = mesh(3, "c");
        // Chain: a knows b, b knows c.
        a.add_peer(b.local_addr());
        b.add_peer(c.local_addr());

        a.with_node(|n| n.send("c", b"via mesh".to_vec(), SimTime::ZERO))
            .unwrap();
        assert_eq!(a.sync_now(), 1);
        assert_eq!(b.sync_now(), 1);
        let inbox = c.with_node(|n| n.inbox());
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].payload, b"via mesh");
        a.stop();
        b.stop();
        c.stop();
    }

    #[test]
    fn unreachable_peers_are_skipped() {
        let a = mesh(1, "a");
        let b = mesh(2, "b");
        a.add_peer(b.local_addr());
        let dead = b.local_addr();
        b.stop();
        // b is gone: the round reports zero successes but does not error.
        assert_eq!(a.peers(), vec![dead]);
        assert_eq!(a.sync_now(), 0);
        a.stop();
    }

    #[test]
    fn duplicate_peers_are_not_added() {
        let a = mesh(1, "a");
        let b = mesh(2, "b");
        a.add_peer(b.local_addr());
        a.add_peer(b.local_addr());
        assert_eq!(a.peers().len(), 1);
    }

    #[test]
    fn background_ticker_eventually_syncs() {
        let a = Mesh::start(
            DtnNode::new(ReplicaId::new(1), "a", PolicyKind::Epidemic),
            "127.0.0.1:0",
            MeshConfig {
                sync_interval: Duration::from_millis(60),
                ..MeshConfig::default()
            },
        )
        .expect("bind");
        let b = mesh(2, "b");
        a.add_peer(b.local_addr());
        a.with_node(|n| n.send("b", b"ticked".to_vec(), SimTime::ZERO))
            .unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if b.with_node(|n| n.inbox().len()) == 1 {
                break;
            }
            assert!(Instant::now() < deadline, "background sync never happened");
            std::thread::sleep(Duration::from_millis(20));
        }
        a.stop();
        b.stop();
    }
}
