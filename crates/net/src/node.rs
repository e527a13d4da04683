//! [`NetNode`]: a DTN node served by the async reactor.
//!
//! The high-fanout sibling of [`transport::Peer`]: the same
//! [`SessionMachine`], served by the reactor instead of a blocking pump
//! on a thread per connection. A node is two threads: the reactor, which
//! accepts and serves every inbound session on one loop (each accepted
//! connection parks there as an idle responder that can carry many
//! back-to-back sessions), and the control thread below. Callers dial:
//! [`NetNode::sync_with`] runs its session on the caller's own thread
//! through [`transport::Dialer`], which pools idle outbound connections,
//! and concurrency comes from concurrent callers.
//!
//! Whom to dial and when is [`Membership`]'s call: a control thread,
//! running while either interval of [`NetConfig`] is on, hands the dials
//! it says are due to [`transport::run_dials`] (the step `testkit` runs
//! under virtual time), dialing each through the same dialer, and parks
//! until the next is due or [`NetNode::stop`]. Every dial, whoever asks,
//! follows [`NetConfig::dial`], retries included. A node serves every
//! request in full: no item cap, as in the paper's unconstrained runs.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dtn::DtnNode;
use parking_lot::Mutex;
use pfr::{SimTime, SyncLimits};
use transport::{
    dial::SERVE_IDLE, run_dials, Dial, DialConfig, Dialed, Dialer, GossipRoundStats, Membership,
    MembershipConfig, PeerView, SessionError, SessionMachine, SessionOutcome,
};

use crate::reactor::{Acceptor, Reactor, ReactorConfig, Shared};

/// How the reactor discovers ready sockets: edge-triggered `epoll(7)`,
/// the only backend.
///
/// This type and [`NetConfig::backend`] exist only because the benchmark
/// ledger (`ledger/src/mesh.rs`) names them; the ledger façade of ROADMAP
/// item 1(a) deletes both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollBackend {
    /// Block in `epoll_wait(2)` until a registered socket is ready.
    Epoll,
}

impl PollBackend {
    /// Always [`PollBackend::Epoll`].
    pub fn platform_default() -> PollBackend {
        PollBackend::Epoll
    }
}

/// Tunables for a [`NetNode`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Read by nothing: a node always serves on one reactor thread. Kept
    /// only because the benchmark ledger sets it; the ledger façade of
    /// ROADMAP item 1(a) deletes it with [`NetConfig::backend`].
    pub workers: usize,
    /// Read by nothing: the reactor always runs on epoll. Kept only
    /// because the benchmark ledger sets it (see [`PollBackend`]).
    pub backend: PollBackend,
    /// Concurrent-session cap: inbound connections beyond it are refused,
    /// and [`NetNode::sync_with`] fails fast with
    /// [`SessionError::AtCapacity`].
    pub max_sessions: usize,
    /// Per-session write-queue bound; a session over it stops reading
    /// until the queue drains (backpressure).
    pub write_queue_limit: usize,
    /// Idle responder connections past this are closed; pooled outbound
    /// connections are discarded at half of it, so that a node never
    /// reuses a connection its peer is about to reap. Defaults to
    /// [`SERVE_IDLE`], the idle timeout a [`transport::Peer`] serves with.
    pub idle_timeout: Duration,
    /// Every outbound dial's connect deadline, I/O deadline and retries.
    /// Its `io_timeout` is also the reactor's stall timeout: an inbound
    /// session making no forward progress that long is failed.
    pub dial: DialConfig,
    /// Gossip round period; [`Duration::ZERO`] turns scheduled rounds off
    /// ([`NetNode::gossip_now`] still runs one) and leaves anti-entropy on.
    pub gossip_interval: Duration,
    /// Membership tunables (fanout, suspicion, eviction, seed).
    pub gossip: MembershipConfig,
    /// Anti-entropy period: every interval, sync with the next live member
    /// in turn. [`Duration::ZERO`] disables it, whatever gossip does.
    pub anti_entropy_interval: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 2,
            backend: PollBackend::Epoll,
            max_sessions: 4096,
            write_queue_limit: 256 * 1024,
            idle_timeout: SERVE_IDLE,
            dial: DialConfig::default(),
            gossip_interval: Duration::from_secs(1),
            gossip: MembershipConfig::default(),
            anti_entropy_interval: Duration::ZERO,
        }
    }
}

/// Point-in-time reactor counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Sessions currently open: in flight on the reactor or on a
    /// caller's thread, plus parked responders.
    pub open_sessions: usize,
    /// High-water mark of concurrently open sessions.
    pub peak_sessions: usize,
    /// Sessions completed cleanly.
    pub completed: u64,
    /// Sessions that failed.
    pub failed: u64,
    /// Outbound sessions carried over a pooled connection.
    pub conn_reuses: u64,
    /// Backpressure episodes (write queue over its bound).
    pub backpressure_stalls: u64,
    /// Socket/poll syscalls issued by the reactor, plus the socket reads
    /// and writes of sessions run on their callers' threads.
    pub syscalls: u64,
    /// Reactor `epoll_wait` returns that found a ready socket.
    pub wakeups: u64,
}

/// A DTN node served by the async reactor; its callers dial.
pub struct NetNode {
    core: Arc<Core>,
    reactor: Reactor,
    control: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

/// What the caller-facing handle and the control thread share.
struct Core {
    node: Arc<Mutex<DtnNode>>,
    membership: Arc<Mutex<Membership>>,
    shared: Arc<Shared>,
    /// The pool of idle outbound connections and the one outbound driver
    /// over it.
    dialer: Dialer,
    /// Held through each control step: rounds never share a tally.
    stepping: Mutex<()>,
    shutdown: AtomicBool,
    config: NetConfig,
}

impl NetNode {
    /// Binds `bind` and starts the reactor thread and (when either
    /// interval is nonzero) the control thread.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listener or setting up an epoll
    /// instance; [`io::ErrorKind::Unsupported`] off Linux, where
    /// [`transport::Peer`] is the node to run.
    pub fn start(node: DtnNode, bind: &str, config: NetConfig) -> io::Result<NetNode> {
        let listener = crate::listen::bind_listener(bind)?;
        let local_addr = listener.local_addr()?;
        let me = node.id();
        let replica = me.as_u64();
        let obs = node.replica().observer().clone();
        let node = Arc::new(Mutex::new(node));
        let mut membership =
            Membership::new(replica, local_addr.to_string(), config.gossip.clone());
        membership.set_cadence(config.gossip_interval, config.anti_entropy_interval);
        let membership = Arc::new(Mutex::new(membership));
        // The far end reaps an idle connection at its idle timeout, by
        // default the one this node has: the pool lets go at half that.
        let dialer = Dialer::new(config.dial, me, config.idle_timeout / 2);
        let responder = {
            let (node, membership) = (Arc::clone(&node), Arc::clone(&membership));
            Box::new(move || {
                SessionMachine::responder(
                    Arc::clone(&node),
                    Arc::clone(&membership),
                    SyncLimits::unlimited(),
                )
            })
        };
        let reactor = Reactor::start(
            ReactorConfig {
                write_queue_limit: config.write_queue_limit,
                idle_timeout: config.idle_timeout,
                stall_timeout: config.dial.io_timeout,
            },
            Acceptor {
                listener,
                max_sessions: config.max_sessions,
                responder,
            },
            obs,
            replica,
        )?;
        let core = Arc::new(Core {
            node,
            membership,
            shared: Arc::clone(reactor.shared()),
            dialer,
            stepping: Mutex::new(()),
            shutdown: AtomicBool::new(false),
            config,
        });

        let control = core.membership.lock().next_due_ms().is_some().then(|| {
            let controlling = Arc::clone(&core);
            std::thread::Builder::new()
                .name("net-control".into())
                .spawn(move || controlling.control_loop())
                .expect("spawn control thread")
        });

        Ok(NetNode {
            core,
            reactor,
            control,
            local_addr,
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs a closure against the node under its lock.
    pub fn with_node<T>(&self, f: impl FnOnce(&mut DtnNode) -> T) -> T {
        f(&mut self.core.node.lock())
    }

    /// Registers a bootstrap peer address for gossip discovery.
    pub fn add_seed(&self, addr: impl Into<String>) {
        self.core.membership.lock().add_seed(addr);
    }

    /// A snapshot of the gossip membership view.
    pub fn membership(&self) -> Vec<PeerView> {
        self.core.membership.lock().view()
    }

    /// Current reactor counters.
    pub fn stats(&self) -> NetStats {
        let shared = &self.core.shared;
        NetStats {
            open_sessions: shared.open.load(Ordering::Relaxed),
            peak_sessions: shared.peak.load(Ordering::Relaxed),
            completed: shared.completed.load(Ordering::Relaxed),
            failed: shared.failed.load(Ordering::Relaxed),
            conn_reuses: shared.reuses.load(Ordering::Relaxed),
            backpressure_stalls: shared.stalls.load(Ordering::Relaxed),
            syscalls: shared.syscalls.load(Ordering::Relaxed),
            wakeups: shared.wakeups.load(Ordering::Relaxed),
        }
    }

    /// Runs one full sync session with `addr` on the calling thread,
    /// blocking until it completes or fails. Callers on several threads
    /// run their sessions side by side.
    pub fn sync_with(&self, addr: &str, now: SimTime) -> SessionOutcome {
        let core = &self.core;
        if core.shared.open_sessions() >= core.config.max_sessions {
            return SessionOutcome::failed(SessionError::AtCapacity);
        }
        match core.sync(addr, now) {
            Ok(outcome) => outcome,
            Err(e) => SessionOutcome::failed(SessionError::Io(e)),
        }
    }

    /// Runs one gossip round now, whatever the schedule, through the
    /// control thread's own step: membership sweep, fanout dials, merged
    /// replies. Tests and CLIs drive rounds this way.
    pub fn gossip_now(&self) -> GossipRoundStats {
        let _stepping = self.core.stepping.lock();
        let dials = self
            .core
            .membership
            .lock()
            .gossip_round(self.core.shared.now_ms());
        self.core.run(&dials).unwrap_or_default()
    }

    /// Stops the control thread and the reactor (closing the listener),
    /// returning the node with everything it replicated.
    pub fn stop(mut self) -> DtnNode {
        self.core.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.control.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
        self.reactor.stop();
        let node = Arc::clone(&self.core.node);
        drop(self);
        transport::sole_node(node)
    }
}

impl Core {
    /// Runs one outbound session on the calling thread through `run` and
    /// books it in the reactor's counters like any other session.
    fn dial(&self, run: impl FnOnce(&Dialer) -> io::Result<Dialed>) -> io::Result<SessionOutcome> {
        self.shared.session_opened();
        let dialed = run(&self.dialer);
        self.shared.caller_session_closed(dialed.as_ref().ok());
        dialed.map(|dialed| dialed.outcome)
    }

    /// One sync session with `addr`; the error is the dial's.
    fn sync(&self, addr: &str, now: SimTime) -> io::Result<SessionOutcome> {
        let now_ms = || self.shared.now_ms();
        self.dial(|dialer| dialer.sync(addr, &self.node, &self.membership, now, &now_ms))
    }

    /// The control thread: runs what [`Membership`] says is due, then
    /// parks until the next due instant; [`NetNode::stop`] unparks it.
    fn control_loop(&self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            let next = {
                let _stepping = self.stepping.lock();
                let dials = self.membership.lock().due(self.shared.now_ms());
                self.run(&dials);
                self.membership.lock().next_due_ms()
            };
            let wait = next.map_or(0, |at| at.saturating_sub(self.shared.now_ms()));
            std::thread::park_timeout(Duration::from_millis(wait));
        }
    }

    /// Runs `dials` in order on this thread (each bounded by the dial
    /// policy) through [`run_dials`], which books each outcome and closes
    /// the round, if one is open, with its event.
    fn run(&self, dials: &[Dial]) -> Option<GossipRoundStats> {
        let now_ms = || self.shared.now_ms();
        run_dials(&self.membership, dials, &self.shared.obs, |dial| {
            let outcome = match dial {
                Dial::Gossip(addr) => {
                    self.dial(|dialer| dialer.gossip(addr, &self.node, &self.membership, &now_ms))
                }
                Dial::Sync(addr) => self.sync(addr, SimTime::from_secs(now_ms() / 1000)),
            };
            outcome.is_ok_and(|outcome| outcome.is_ok())
        })
    }
}
