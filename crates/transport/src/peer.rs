//! TCP peers: real processes replicating over sockets.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dtn::DtnNode;
use parking_lot::Mutex;
use pfr::{SimTime, SyncLimits};

use crate::conn::pump;
use crate::membership::{Membership, MembershipConfig};
use crate::session::{SessionError, SessionMachine, SessionReport};

/// Errors from running a peer.
#[derive(Debug)]
pub enum TransportError {
    /// Socket setup or I/O failure before a session began.
    Io(std::io::Error),
    /// A session failed mid-protocol.
    Session(SessionError),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
            TransportError::Session(e) => write!(f, "sync session error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Session(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<SessionError> for TransportError {
    fn from(e: SessionError) -> Self {
        TransportError::Session(e)
    }
}

/// Timeout and retry policy for outbound dials.
///
/// The original dial path blocked without bound on a stalled peer (OS
/// default connect timeout, no read deadline). Every knob here is
/// surfaced as a CLI flag on `peer`; reconnect attempts back off
/// exponentially with deterministic jitter so a herd of nodes chasing a
/// rebooted peer does not stampede it in lockstep.
#[derive(Clone, Copy, Debug)]
pub struct DialConfig {
    /// Deadline for the TCP connect itself.
    pub connect_timeout: Duration,
    /// Read/write deadline applied to the connected socket, so a peer
    /// that wedges mid-session cannot hold the dialer forever.
    pub io_timeout: Duration,
    /// Extra connect attempts after the first failure.
    pub retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Upper bound the exponential backoff saturates at.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter added to each backoff (up to
    /// half the delay). Same seed, same schedule — testable by design.
    pub jitter_seed: u64,
}

impl Default for DialConfig {
    fn default() -> Self {
        DialConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            retries: 0,
            backoff: Duration::from_millis(200),
            backoff_cap: Duration::from_secs(5),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl DialConfig {
    /// The delay to sleep before retry `attempt` (1-based): exponential
    /// backoff capped at [`DialConfig::backoff_cap`], plus deterministic
    /// jitter of up to half the delay.
    pub fn retry_delay(&self, attempt: u32) -> Duration {
        let base = self
            .backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.backoff_cap);
        let mut x = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F));
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        let half = base.as_millis() as u64 / 2;
        let jitter = if half == 0 { 0 } else { x % half };
        base + Duration::from_millis(jitter)
    }

    /// Connects to `remote`, retrying per this policy. Applies the
    /// connect deadline to each attempt and the I/O deadline to the
    /// resulting stream.
    ///
    /// # Errors
    ///
    /// The last connect error once every attempt is exhausted.
    pub fn dial(&self, remote: SocketAddr) -> std::io::Result<TcpStream> {
        let mut attempt = 0u32;
        loop {
            match TcpStream::connect_timeout(&remote, self.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.io_timeout))?;
                    stream.set_write_timeout(Some(self.io_timeout))?;
                    return Ok(stream);
                }
                Err(e) => {
                    if attempt >= self.retries {
                        return Err(e);
                    }
                    attempt += 1;
                    std::thread::sleep(self.retry_delay(attempt));
                }
            }
        }
    }
}

/// A replication peer: a [`DtnNode`] listening on a TCP socket, serving
/// sync sessions to whoever connects, and able to initiate encounters with
/// remote peers.
///
/// # Examples
///
/// ```
/// use dtn::{DtnNode, PolicyKind};
/// use pfr::{ReplicaId, SimTime};
/// use transport::Peer;
///
/// let a = Peer::start(DtnNode::new(ReplicaId::new(1), "a", PolicyKind::Epidemic),
///                     "127.0.0.1:0")?;
/// let b = Peer::start(DtnNode::new(ReplicaId::new(2), "b", PolicyKind::Epidemic),
///                     "127.0.0.1:0")?;
/// a.with_node(|n| n.send("b", b"over tcp".to_vec(), SimTime::ZERO)).unwrap();
/// let report = a.sync_with(b.local_addr(), SimTime::from_secs(1))?;
/// assert_eq!(report.served, 1);
/// assert_eq!(b.with_node(|n| n.inbox().len()), 1);
/// # Ok::<(), transport::TransportError>(())
/// ```
pub struct Peer {
    serving: Arc<Serving>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    dial: DialConfig,
}

/// What the accept loop, every session thread and the initiator side
/// share.
struct Serving {
    node: Arc<Mutex<DtnNode>>,
    /// A blocking peer runs no gossip rounds of its own, but the session
    /// machine answers a gossiping dialer from this view.
    membership: Arc<Mutex<Membership>>,
    limits: SyncLimits,
    shutdown: AtomicBool,
    /// Inbound connections being served. A pooling initiator keeps its
    /// connection open between sessions, so `stop` shuts these down
    /// rather than waiting out a parked session thread's read timeout.
    live: Mutex<Vec<(usize, TcpStream)>>,
    epoch: Instant,
}

impl Serving {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

impl Peer {
    /// Starts a peer listening on `bind` (use port 0 for an ephemeral
    /// port). The accept loop runs on a background thread until the peer
    /// is dropped or [`Peer::stop`] is called.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn start(node: DtnNode, bind: impl ToSocketAddrs) -> Result<Peer, TransportError> {
        Peer::start_with_limits(node, bind, SyncLimits::unlimited())
    }

    /// Starts a peer that serves at most `limits.max_items` items per sync
    /// (a bandwidth-constrained node).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn start_with_limits(
        node: DtnNode,
        bind: impl ToSocketAddrs,
        limits: SyncLimits,
    ) -> Result<Peer, TransportError> {
        Peer::start_configured(node, bind, limits, DialConfig::default())
    }

    /// Starts a peer with explicit serve limits and dial policy.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn start_configured(
        node: DtnNode,
        bind: impl ToSocketAddrs,
        limits: SyncLimits,
        dial: DialConfig,
    ) -> Result<Peer, TransportError> {
        let listener = TcpListener::bind(bind)?;
        let local_addr = listener.local_addr()?;
        let membership = Membership::new(
            node.id().as_u64(),
            local_addr.to_string(),
            MembershipConfig::default(),
        );
        let serving = Arc::new(Serving {
            node: Arc::new(Mutex::new(node)),
            membership: Arc::new(Mutex::new(membership)),
            limits,
            shutdown: AtomicBool::new(false),
            live: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        });
        let accept_serving = Arc::clone(&serving);
        let accept_thread = std::thread::Builder::new()
            .name(format!("peer-accept-{local_addr}"))
            .spawn(move || accept_loop(&listener, &accept_serving))?;

        Ok(Peer {
            serving,
            local_addr,
            accept_thread: Some(accept_thread),
            dial,
        })
    }

    /// The socket address the peer listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs a closure against the peer's node (replica + policy) under the
    /// peer lock.
    pub fn with_node<T>(&self, f: impl FnOnce(&mut DtnNode) -> T) -> T {
        f(&mut self.serving.node.lock())
    }

    /// Initiates a full encounter with a remote peer: pulls items we are
    /// missing, then serves the remote's pull — two syncs, exactly like a
    /// physical encounter.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] from connecting or the session protocol.
    pub fn sync_with(
        &self,
        remote: SocketAddr,
        now: SimTime,
    ) -> Result<SessionReport, TransportError> {
        let mut conn = self.dial.dial(remote)?;
        let serving = &self.serving;
        let (mut machine, opening) = SessionMachine::sync_initiator(
            Arc::clone(&serving.node),
            Arc::clone(&serving.membership),
            serving.limits,
            now,
            false,
        )?;
        pump(&mut conn, &mut machine, opening, &|| serving.now_ms())?;
        Ok(machine.report().clone())
    }

    /// Stops the accept loop and returns the node.
    pub fn stop(mut self) -> DtnNode {
        self.halt();
        // Session threads drop their clones as their connections close;
        // spin until this is the only holder.
        let mut node_arc = Arc::clone(&self.serving.node);
        drop(self);
        loop {
            match Arc::try_unwrap(node_arc) {
                Ok(mutex) => return mutex.into_inner(),
                Err(shared) => {
                    node_arc = shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// Ends the accept loop — blocked in `accept`, so woken by a
    /// connection to ourselves — and cuts every inbound connection.
    fn halt(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        self.serving.shutdown.store(true, Ordering::SeqCst);
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        while !handle.is_finished() {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            std::thread::yield_now();
        }
        // A panicked accept thread has already torn down the listener;
        // the node is still intact, so do not re-panic.
        let _ = handle.join();
        for (_, stream) in self.serving.live.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Peer {
    fn drop(&mut self) {
        self.halt();
    }
}

impl fmt::Debug for Peer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Peer")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, serving: &Arc<Serving>) {
    for (id, stream) in listener.incoming().enumerate() {
        if serving.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { return };
        // Registered here, not on the session thread: `halt` joins this
        // loop before it cuts what is registered.
        let Ok(registered) = stream.try_clone() else {
            continue;
        };
        serving.live.lock().push((id, registered));
        let serving = Arc::clone(serving);
        // One thread per connection: a blocking peer's are few.
        let _ = std::thread::Builder::new()
            .name("peer-session".to_string())
            .spawn(move || serve_connection(id, stream, &serving));
    }
}

/// Serves every session the remote opens on one accepted connection.
/// Session failures are accounted by the machine's events.
fn serve_connection(id: usize, mut stream: TcpStream, serving: &Serving) {
    let io_timeout = Some(Duration::from_secs(10));
    let configured = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(io_timeout))
        .and_then(|()| stream.set_write_timeout(io_timeout));
    if configured.is_ok() {
        let mut machine = SessionMachine::responder(
            Arc::clone(&serving.node),
            Arc::clone(&serving.membership),
            serving.limits,
        );
        let _ = pump(&mut stream, &mut machine, Vec::new(), &|| serving.now_ms());
    }
    serving.live.lock().retain(|(live_id, _)| *live_id != id);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_is_deterministic_and_grows() {
        let cfg = DialConfig::default();
        let d1 = cfg.retry_delay(1);
        let d2 = cfg.retry_delay(2);
        let d3 = cfg.retry_delay(3);
        // Same seed, same schedule.
        assert_eq!(d1, cfg.retry_delay(1));
        // Exponential growth: each delay exceeds the previous base.
        assert!(d1 >= cfg.backoff);
        assert!(d2 >= cfg.backoff * 2);
        assert!(d3 >= cfg.backoff * 4);
        // Jitter is bounded by half the base delay.
        assert!(d1 <= cfg.backoff + cfg.backoff / 2);
    }

    #[test]
    fn retry_delay_saturates_at_the_cap() {
        let cfg = DialConfig {
            backoff: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(400),
            ..DialConfig::default()
        };
        // 2^30 would overflow without saturation; the cap bounds it.
        let d = cfg.retry_delay(31);
        assert!(d <= Duration::from_millis(400 + 200));
    }

    #[test]
    fn different_seeds_give_different_jitter() {
        let a = DialConfig {
            jitter_seed: 1,
            ..DialConfig::default()
        };
        let b = DialConfig {
            jitter_seed: 2,
            ..DialConfig::default()
        };
        // Not a proof, but two herd members should not share a schedule.
        assert_ne!(
            (a.retry_delay(1), a.retry_delay(2)),
            (b.retry_delay(1), b.retry_delay(2))
        );
    }

    #[test]
    fn dial_retries_then_reports_the_connect_error() {
        // Bind-then-drop guarantees a port nobody listens on right now.
        let port = {
            let sock = TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().port()
        };
        let cfg = DialConfig {
            connect_timeout: Duration::from_millis(300),
            retries: 2,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..DialConfig::default()
        };
        let err = cfg
            .dial(SocketAddr::from(([127, 0, 0, 1], port)))
            .unwrap_err();
        // Three attempts were made and the final error surfaced.
        assert!(
            err.kind() == std::io::ErrorKind::ConnectionRefused
                || err.kind() == std::io::ErrorKind::TimedOut,
            "unexpected error kind: {err}"
        );
    }
}
