//! [`NetNode`]: a DTN node served by the async reactor.
//!
//! The high-fanout sibling of [`transport::Peer`]: the same
//! [`SessionMachine`], served by the reactor instead of a blocking pump
//! on a thread per connection. The reactor is inbound only: its worker 0
//! accepts, and every accepted connection parks on a worker as an idle
//! responder that can carry many back-to-back sessions. Callers dial:
//! [`NetNode::sync_with`] runs its session on the caller's own thread
//! through [`transport::Dialer`], which pools idle outbound connections,
//! and concurrency comes from concurrent callers. A gossip thread runs
//! periodic peer-exchange rounds against the membership view, each
//! exchange on that thread through the same dialer: seeds are dialed
//! until resolved, suspicion spreads and heals through incarnations, and
//! (optionally) an anti-entropy round-robin syncs with discovered members
//! so data flows over routes gossip found. A node is its reactor's
//! workers plus that one control thread.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dtn::DtnNode;
use obs::{Event, EventKind, Obs};
use parking_lot::Mutex;
use pfr::{SimTime, SyncLimits};
use transport::{
    DialConfig, Dialed, Dialer, Membership, MembershipConfig, PeerView, SessionError,
    SessionMachine, SessionOutcome,
};

use crate::reactor::{Acceptor, Reactor, ReactorConfig, Shared};

/// How reactor workers discover ready sockets: edge-triggered `epoll(7)`,
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
    /// Reactor worker threads.
    pub workers: usize,
    /// Read by nothing: the reactor always runs on epoll. Kept only
    /// because the benchmark ledger sets it (see [`PollBackend`]).
    pub backend: PollBackend,
    /// Concurrent-session cap: inbound connections beyond it are refused,
    /// and [`NetNode::sync_with`] fails fast with
    /// [`SessionError::AtCapacity`].
    pub max_sessions: usize,
    /// Listen backlog requested for the accept socket (the kernel clamps
    /// it to `net.core.somaxconn`). Deep enough by default that a
    /// high-fanout dial burst never overflows into SYN retransmits.
    pub accept_backlog: usize,
    /// Per-session write-queue bound; a session over it stops reading
    /// until the queue drains (backpressure).
    pub write_queue_limit: usize,
    /// Idle responder connections past this are closed; pooled outbound
    /// connections are discarded at half of it, so that a node never
    /// reuses a connection its (identically configured) peer is about to
    /// reap.
    pub idle_timeout: Duration,
    /// Sessions making no forward progress past this are failed (on a
    /// caller-thread session it is the socket's read and write timeout).
    pub stall_timeout: Duration,
    /// Blocking TCP connect budget for outbound dials.
    pub connect_timeout: Duration,
    /// Gossip round period; [`Duration::ZERO`] disables the thread (rounds
    /// can still be driven manually with [`NetNode::gossip_now`]).
    pub gossip_interval: Duration,
    /// Membership tunables (fanout, suspicion, eviction, seed).
    pub gossip: MembershipConfig,
    /// Anti-entropy period: every interval, sync with one discovered
    /// member round-robin. [`Duration::ZERO`] disables it.
    pub anti_entropy_interval: Duration,
    /// Sync limits applied when serving peers.
    pub limits: SyncLimits,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 2,
            backend: PollBackend::Epoll,
            max_sessions: 4096,
            accept_backlog: 1024,
            write_queue_limit: 256 * 1024,
            idle_timeout: Duration::from_secs(30),
            stall_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(5),
            gossip_interval: Duration::from_secs(1),
            gossip: MembershipConfig::default(),
            anti_entropy_interval: Duration::ZERO,
            limits: SyncLimits::unlimited(),
        }
    }
}

/// Point-in-time reactor counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Sessions currently open: in flight on a worker or on a caller's
    /// thread, plus parked responders.
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
    /// Socket/poll syscalls issued by the reactor workers, plus the
    /// socket reads and writes of sessions run on their callers' threads.
    pub syscalls: u64,
    /// Times a parked worker was woken to pick up enqueued sessions.
    pub wakeups: u64,
}

/// What one gossip round accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GossipRoundStats {
    /// Peers dialed this round.
    pub dialed: usize,
    /// Exchanges that completed (both views merged).
    pub merged: usize,
    /// Dials that failed (targets marked suspect when identifiable).
    pub failed: usize,
    /// Members believed alive after the round.
    pub alive: usize,
    /// Members under suspicion after the round.
    pub suspect: usize,
    /// Membership entries newly learned this round.
    pub learned: u64,
}

/// A DTN node served by the async reactor; its callers dial.
pub struct NetNode {
    core: Arc<Core>,
    reactor: Reactor,
    gossip_thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

/// What the caller-facing handle and the gossip loop share.
struct Core {
    node: Arc<Mutex<DtnNode>>,
    membership: Arc<Mutex<Membership>>,
    shared: Arc<Shared>,
    /// The pool of idle outbound connections and the one outbound driver
    /// over it.
    dialer: Dialer,
    shutdown: AtomicBool,
    config: NetConfig,
    obs: Obs,
    replica: u64,
}

impl NetNode {
    /// Binds `bind` and starts the reactor, whose worker 0 accepts, and
    /// (when `gossip_interval` is nonzero) the gossip thread.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listener or setting up an epoll
    /// instance; [`io::ErrorKind::Unsupported`] off Linux, where
    /// [`transport::Peer`] is the node to run.
    pub fn start(node: DtnNode, bind: &str, config: NetConfig) -> io::Result<NetNode> {
        let listener = crate::listen::bind_listener(bind, config.accept_backlog as i32)?;
        let local_addr = listener.local_addr()?;
        let replica = node.id().as_u64();
        let obs = node.replica().observer().clone();
        let node = Arc::new(Mutex::new(node));
        let membership = Membership::new(replica, local_addr.to_string(), config.gossip.clone());
        let membership = Arc::new(Mutex::new(membership));
        // Nodes share one config, so the far end reaps an idle connection
        // at `idle_timeout`: the pool lets go at half that.
        let dialer = Dialer::new(
            DialConfig {
                connect_timeout: config.connect_timeout,
                io_timeout: config.stall_timeout,
                ..DialConfig::default()
            },
            config.idle_timeout / 2,
        );
        let responder = {
            let (node, membership) = (Arc::clone(&node), Arc::clone(&membership));
            let limits = config.limits;
            Box::new(move || {
                SessionMachine::responder(Arc::clone(&node), Arc::clone(&membership), limits)
            })
        };
        let reactor = Reactor::start(
            ReactorConfig {
                workers: config.workers,
                write_queue_limit: config.write_queue_limit,
                idle_timeout: config.idle_timeout,
                stall_timeout: config.stall_timeout,
            },
            Acceptor {
                listener,
                max_sessions: config.max_sessions,
                responder,
            },
            obs.clone(),
            replica,
        )?;
        let core = Arc::new(Core {
            node,
            membership,
            shared: Arc::clone(reactor.shared()),
            dialer,
            shutdown: AtomicBool::new(false),
            config,
            obs,
            replica,
        });

        let gossip_thread = (core.config.gossip_interval > Duration::ZERO).then(|| {
            let gossiping = Arc::clone(&core);
            std::thread::Builder::new()
                .name("net-gossip".into())
                .spawn(move || gossiping.gossip_loop())
                .expect("spawn gossip thread")
        });

        Ok(NetNode {
            core,
            reactor,
            gossip_thread,
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

    /// Runs one synchronous gossip round: membership sweep, fanout dials,
    /// merge replies. The background thread does exactly this once per
    /// interval; tests and CLIs can drive rounds deterministically.
    pub fn gossip_now(&self) -> GossipRoundStats {
        self.core.gossip_round()
    }

    /// Stops the gossip thread and the reactor (closing the listener),
    /// returning the node with everything it replicated.
    pub fn stop(mut self) -> DtnNode {
        self.core.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.gossip_thread.take() {
            let _ = handle.join();
        }
        self.reactor.stop();
        // The threads have exited, so sessions no longer hold clones —
        // but finalization may lag a beat; spin until unique.
        let mut node_arc = Arc::clone(&self.core.node);
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
        self.dial(|dialer| {
            dialer.sync(
                addr,
                &self.node,
                &self.membership,
                self.config.limits,
                now,
                &now_ms,
            )
        })
    }

    /// One gossip round: suspicion sweep, fanout dials, merge replies (the
    /// session machines merge into the shared membership as replies
    /// land), then the round event.
    fn gossip_round(&self) -> GossipRoundStats {
        let now_ms = self.shared.now_ms();
        let targets = {
            let mut membership = self.membership.lock();
            membership.tick(now_ms);
            membership.fanout_targets()
        };
        let mut stats = GossipRoundStats {
            dialed: targets.len(),
            ..GossipRoundStats::default()
        };
        let now_ms = || self.shared.now_ms();
        for addr in &targets {
            let exchanged =
                self.dial(|dialer| dialer.gossip(addr, &self.node, &self.membership, &now_ms));
            if exchanged.is_ok_and(|outcome| outcome.is_ok()) {
                stats.merged += 1;
            } else {
                stats.failed += 1;
                self.mark_addr_failed(addr);
            }
        }
        {
            let mut membership = self.membership.lock();
            stats.alive = membership.alive_count();
            stats.suspect = membership.suspect_count();
            stats.learned = membership.take_learned();
        }
        self.obs
            .emit(EventKind::GossipRound, || Event::GossipRound {
                replica: self.replica,
                fanout: stats.dialed as u64,
                alive: stats.alive as u64,
                suspect: stats.suspect as u64,
                learned: stats.learned,
            });
        stats
    }

    /// A failed dial is first-hand evidence: suspect the member at that
    /// address (unresolved seeds have no member yet — they just stay
    /// seeds).
    fn mark_addr_failed(&self, addr: &str) {
        let mut membership = self.membership.lock();
        let failed: Vec<u64> = membership
            .view()
            .into_iter()
            .filter(|p| p.addr == addr)
            .map(|p| p.replica)
            .collect();
        for replica in failed {
            membership.observe_failed(replica);
        }
    }

    /// The background gossip driver: one round per interval, plus the
    /// optional anti-entropy sync round-robin over discovered members.
    fn gossip_loop(&self) {
        let config = &self.config;
        let mut last_round = Instant::now() - config.gossip_interval;
        let mut last_ae = Instant::now();
        let mut ae_cursor = 0usize;
        while !self.shutdown.load(Ordering::SeqCst) {
            if last_round.elapsed() >= config.gossip_interval {
                last_round = Instant::now();
                self.gossip_round();
            }
            if config.anti_entropy_interval > Duration::ZERO
                && last_ae.elapsed() >= config.anti_entropy_interval
            {
                last_ae = Instant::now();
                self.anti_entropy_step(&mut ae_cursor);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Route healing in action: syncs with the next live member
    /// discovered by gossip, so data flows over routes the application
    /// never configured. The sync holds the gossip thread until it ends,
    /// at most the stall timeout.
    fn anti_entropy_step(&self, cursor: &mut usize) {
        let addrs = self.membership.lock().live_addrs();
        if addrs.is_empty() {
            return;
        }
        let addr = &addrs[*cursor % addrs.len()];
        *cursor = cursor.wrapping_add(1);
        let now = SimTime::from_secs(self.shared.now_ms() / 1000);
        if self.sync(addr, now).is_err() {
            self.mark_addr_failed(addr);
        }
    }
}
