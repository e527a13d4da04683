//! TCP peers: real processes replicating over sockets, each connection
//! served on a thread of its own and every request answered in full.

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
use crate::dial::{DialConfig, Dialer, SERVE_IDLE};
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
    dialer: Dialer,
}

/// What the accept loop, every session thread and the initiator side
/// share.
struct Serving {
    node: Arc<Mutex<DtnNode>>,
    /// A blocking peer runs no gossip rounds of its own, but the session
    /// machine answers a gossiping dialer from this view.
    membership: Arc<Mutex<Membership>>,
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
        Peer::start_configured(node, bind, DialConfig::default())
    }

    /// Starts a peer whose outbound dials follow `dial`.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Io`] if binding fails.
    pub fn start_configured(
        node: DtnNode,
        bind: impl ToSocketAddrs,
        dial: DialConfig,
    ) -> Result<Peer, TransportError> {
        let listener = TcpListener::bind(bind)?;
        let local_addr = listener.local_addr()?;
        let me = node.id();
        let membership = Membership::new(
            me.as_u64(),
            local_addr.to_string(),
            MembershipConfig::default(),
        );
        let serving = Arc::new(Serving {
            node: Arc::new(Mutex::new(node)),
            membership: Arc::new(Mutex::new(membership)),
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
            dialer: Dialer::new(dial, me, SERVE_IDLE / 2),
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
    /// physical encounter. The session runs on the calling thread, over a
    /// pooled connection when an earlier session with `remote` left one.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] from connecting or the session protocol.
    pub fn sync_with(
        &self,
        remote: SocketAddr,
        now: SimTime,
    ) -> Result<SessionReport, TransportError> {
        let serving = &self.serving;
        let dialed = self.dialer.sync(
            &remote.to_string(),
            &serving.node,
            &serving.membership,
            now,
            &|| serving.now_ms(),
        )?;
        Ok(dialed.outcome.into_result()?)
    }

    /// Stops the accept loop and returns the node.
    pub fn stop(mut self) -> DtnNode {
        self.halt();
        // Session threads drop their clones as their connections close.
        let node = Arc::clone(&self.serving.node);
        drop(self);
        sole_node(node)
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

/// Takes the node out of `node` once this is its only holder, spinning
/// while threads that have ended or are ending still drop their clones.
pub fn sole_node(mut node: Arc<Mutex<DtnNode>>) -> DtnNode {
    loop {
        match Arc::try_unwrap(node) {
            Ok(mutex) => return mutex.into_inner(),
            Err(shared) => node = shared,
        }
        std::thread::sleep(Duration::from_millis(1));
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
    let io_timeout = Some(SERVE_IDLE);
    let configured = stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(io_timeout))
        .and_then(|()| stream.set_write_timeout(io_timeout));
    if configured.is_ok() {
        let mut machine = SessionMachine::responder(
            Arc::clone(&serving.node),
            Arc::clone(&serving.membership),
            SyncLimits::unlimited(),
        );
        let _ = pump(&mut stream, &mut machine, Vec::new(), &|| serving.now_ms());
    }
    serving.live.lock().retain(|(live_id, _)| *live_id != id);
}
