//! [`NetNode`]: a DTN node served by the async reactor.
//!
//! The high-fanout sibling of [`transport::Peer`]: the same
//! [`SessionMachine`], served by the reactor instead of a blocking pump
//! on a thread per connection. One accept thread
//! feeds inbound connections to the reactor's worker pool (each parked as
//! an idle responder that can carry many back-to-back sessions). Who
//! drives an outbound sync is decided by what the caller asked for:
//! [`NetNode::sync_with`] blocks, so the session runs on the caller's own
//! thread through the shared [`transport::Dialer`] — no queue, no worker
//! wake-up, no ticket — while [`NetNode::sync_detached`] registers the
//! session with the reactor and returns a [`SessionTicket`] immediately,
//! so one caller can hold hundreds of sessions in flight. Both take
//! connections from, and return them to, the dialer's one pool. A gossip
//! thread runs periodic
//! peer-exchange rounds against the membership view: seeds are dialed
//! until resolved, suspicion spreads and heals through incarnations, and
//! (optionally) an anti-entropy round-robin syncs with discovered members
//! so data flows over routes gossip found.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dtn::DtnNode;
use obs::{Event, EventKind, Obs};
use parking_lot::Mutex;
use pfr::{SimTime, SyncLimits};
use transport::{
    DialConfig, Dialer, Membership, MembershipConfig, PeerView, SessionError, SessionMachine,
    SessionOutcome,
};

use crate::poll::PollBackend;
use crate::reactor::{Reactor, ReactorConfig, SessionTicket, Shared};

/// Tunables for a [`NetNode`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Reactor worker threads.
    pub workers: usize,
    /// How workers discover ready sockets: edge-triggered epoll or the
    /// exhaustive sweep. Defaults from `REPLIDTN_POLL_BACKEND` when set,
    /// else the platform default (epoll on Linux).
    pub backend: PollBackend,
    /// Concurrent-session cap: inbound connections beyond it are refused,
    /// outbound registrations fail fast with
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
            backend: PollBackend::from_env(),
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
    /// Label of the readiness backend actually running (`"epoll"` or
    /// `"sweep"` — the requested backend resolved against the platform).
    pub backend: &'static str,
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

/// A DTN node listening and dialing through the async reactor.
pub struct NetNode {
    core: Arc<Core>,
    reactor: Reactor,
    accept_thread: Option<JoinHandle<()>>,
    gossip_thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

/// What the caller-facing handle, the accept loop and the gossip loop
/// share.
struct Core {
    node: Arc<Mutex<DtnNode>>,
    membership: Arc<Mutex<Membership>>,
    shared: Arc<Shared>,
    shutdown: AtomicBool,
    config: NetConfig,
    obs: Obs,
    replica: u64,
}

impl NetNode {
    /// Binds `bind` and starts the reactor, the accept loop, and (when
    /// `gossip_interval` is nonzero) the gossip thread.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the listener.
    pub fn start(node: DtnNode, bind: &str, config: NetConfig) -> io::Result<NetNode> {
        let listener = crate::listen::bind_listener(bind, config.accept_backlog as i32)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let replica = node.id().as_u64();
        let obs = node.replica().observer().clone();
        let membership = Membership::new(replica, local_addr.to_string(), config.gossip.clone());
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
        let reactor = Reactor::start(
            ReactorConfig {
                workers: config.workers,
                backend: config.backend,
                write_queue_limit: config.write_queue_limit,
                idle_timeout: config.idle_timeout,
                stall_timeout: config.stall_timeout,
            },
            dialer,
            obs.clone(),
            replica,
        );
        let core = Arc::new(Core {
            node: Arc::new(Mutex::new(node)),
            membership: Arc::new(Mutex::new(membership)),
            shared: Arc::clone(reactor.shared()),
            shutdown: AtomicBool::new(false),
            config,
            obs,
            replica,
        });

        let accepting = Arc::clone(&core);
        let accept_thread = std::thread::Builder::new()
            .name("net-accept".into())
            .spawn(move || accepting.accept_loop(&listener))
            .expect("spawn accept thread");
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
            accept_thread: Some(accept_thread),
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
            backend: shared.backend().name(),
        }
    }

    /// Starts a detached sync session with `addr` and returns its ticket
    /// without waiting: the caller can hold many sessions in flight.
    ///
    /// # Errors
    ///
    /// [`SessionError::AtCapacity`] at the session cap, or
    /// [`SessionError::Io`] when the dial fails.
    pub fn sync_detached(&self, addr: &str, now: SimTime) -> Result<SessionTicket, SessionError> {
        if self.core.shared.open_sessions() >= self.core.config.max_sessions {
            return Err(SessionError::AtCapacity);
        }
        let ticket = SessionTicket::new();
        self.core.open_sync(addr, now, Some(ticket.clone()))?;
        Ok(ticket)
    }

    /// Runs one full sync session with `addr` on the calling thread,
    /// blocking until it completes or fails.
    pub fn sync_with(&self, addr: &str, now: SimTime) -> SessionOutcome {
        let core = &self.core;
        let shared = &core.shared;
        if shared.open_sessions() >= core.config.max_sessions {
            return SessionOutcome::failed(SessionError::AtCapacity);
        }
        shared.session_opened();
        let dialed = shared.dialer.sync(
            addr,
            &core.node,
            &core.membership,
            core.config.limits,
            now,
            &|| shared.now_ms(),
        );
        shared.caller_session_closed(dialed.as_ref().ok());
        match dialed {
            Ok(dialed) => dialed.outcome,
            Err(e) => SessionOutcome::failed(SessionError::Io(e)),
        }
    }

    /// Runs one synchronous gossip round: membership sweep, fanout dials,
    /// merge replies. The background thread does exactly this once per
    /// interval; tests and CLIs can drive rounds deterministically.
    pub fn gossip_now(&self) -> GossipRoundStats {
        self.core.gossip_round()
    }

    /// Stops the accept loop, gossip thread, and reactor, returning the
    /// node with everything it replicated.
    pub fn stop(mut self) -> DtnNode {
        self.core.shutdown.store(true, Ordering::SeqCst);
        for handle in [self.accept_thread.take(), self.gossip_thread.take()]
            .into_iter()
            .flatten()
        {
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
    /// Opens one outbound sync session with `addr`, pool-first. On a
    /// pooled connection that remembers its peer the machine sends its
    /// request right behind the hello.
    fn open_sync(
        &self,
        addr: &str,
        now: SimTime,
        ticket: Option<SessionTicket>,
    ) -> Result<(), SessionError> {
        let conn = self.shared.dial(addr).map_err(SessionError::Io)?;
        let (node, membership) = (Arc::clone(&self.node), Arc::clone(&self.membership));
        let limits = self.config.limits;
        let (machine, opening) = match conn.peer {
            Some(peer) => SessionMachine::sync_initiator_to(node, membership, limits, now, peer),
            None => SessionMachine::sync_initiator(node, membership, limits, now, conn.reused),
        }?;
        self.shared
            .register_outbound(addr, conn, machine, opening, ticket);
        Ok(())
    }

    fn accept_loop(&self, listener: &TcpListener) {
        // Event-driven parking under the epoll backend: block on listener
        // readiness instead of a fixed 2 ms nap, so a dial burst is
        // drained the moment it arrives. The loop accepts to `WouldBlock`
        // before waiting again, honouring the edge-trigger contract.
        #[cfg(target_os = "linux")]
        let mut poller = if self.shared.backend() == PollBackend::Epoll {
            use std::os::unix::io::AsRawFd;
            crate::poll::EpollPoller::new()
                .and_then(|poller| {
                    poller.register(listener.as_raw_fd(), 0)?;
                    Ok(poller)
                })
                .ok()
        } else {
            None
        };
        #[cfg(target_os = "linux")]
        let mut ready: Vec<usize> = Vec::new();

        while !self.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // At the cap, refuse instead of queueing unbounded
                    // work; the remote sees a closed connection and backs
                    // off.
                    if self.shared.open_sessions() >= self.config.max_sessions {
                        drop(stream);
                        continue;
                    }
                    if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let machine = SessionMachine::responder(
                        Arc::clone(&self.node),
                        Arc::clone(&self.membership),
                        self.config.limits,
                    );
                    self.shared.register_inbound(stream, machine);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    #[cfg(target_os = "linux")]
                    if let Some(poller) = poller.as_mut() {
                        ready.clear();
                        // Bounded so the shutdown flag stays responsive.
                        if poller.wait(50, &mut ready).is_ok() {
                            continue;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
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
        let mut tickets = Vec::with_capacity(targets.len());
        for addr in &targets {
            match self.gossip_dial(addr) {
                Ok(ticket) => tickets.push((addr, ticket)),
                Err(_) => {
                    stats.failed += 1;
                    self.mark_addr_failed(addr);
                }
            }
        }
        for (addr, ticket) in tickets {
            if ticket.wait().is_ok() {
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

    /// Registers one outbound gossip exchange (pool-first, like syncs).
    fn gossip_dial(&self, addr: &str) -> Result<SessionTicket, SessionError> {
        let conn = self.shared.dial(addr).map_err(SessionError::Io)?;
        let (machine, opening) = SessionMachine::gossip_initiator(
            Arc::clone(&self.node),
            Arc::clone(&self.membership),
            self.shared.now_ms(),
            conn.reused,
        )?;
        let ticket = SessionTicket::new();
        self.shared
            .register_outbound(addr, conn, machine, opening, Some(ticket.clone()));
        Ok(ticket)
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
    /// never configured.
    fn anti_entropy_step(&self, cursor: &mut usize) {
        let addrs = self.membership.lock().live_addrs();
        if addrs.is_empty() {
            return;
        }
        let addr = &addrs[*cursor % addrs.len()];
        *cursor = cursor.wrapping_add(1);
        let now = SimTime::from_secs(self.shared.now_ms() / 1000);
        if let Err(SessionError::Io(_)) = self.open_sync(addr, now, None) {
            self.mark_addr_failed(addr);
        }
    }
}
