//! The one outbound driver: [`Dialer`] owns the pool of idle outbound
//! connections and runs every outbound session on its caller's thread.
//!
//! A caller waits for its session, so it needs no worker to run it:
//! [`Dialer::sync`] and [`Dialer::gossip`] take a pooled connection (or
//! dial one), build the initiator machine and pump it right there —
//! `write`, `read`, repeat — then return the connection to the pool.
//! [`Peer::sync_with`](crate::Peer::sync_with) and `net`'s
//! `NetNode::sync_with`, gossip rounds and anti-entropy syncs are all
//! calls into it; reactors and [`Peer`](crate::Peer) only serve inbound
//! connections.
//!
//! Pooled sockets are blocking, with the dialer's I/O timeout as read and
//! write timeout — set once, when the connection is dialed — so a peer
//! that goes quiet fails the session with [`SessionError::Stalled`]
//! instead of holding the caller. A refused connect is retried per
//! [`DialConfig`], backing off up to [`BACKOFF_CAP`] with jitter drawn
//! from the dialing node's replica id: one node's schedule never changes,
//! and two nodes almost never share one.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtn::DtnNode;
use parking_lot::Mutex;
use pfr::{ReplicaId, SimTime, SyncLimits};

use crate::conn::{give_up, turns, PumpScratch};
use crate::membership::Membership;
use crate::session::{SessionError, SessionMachine, SessionOutcome};

/// Where the exponential retry backoff saturates.
pub const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Timeout and retry policy for outbound dials.
///
/// The original dial path blocked without bound on a stalled peer (OS
/// default connect timeout, no read deadline). Every knob here is
/// surfaced as a CLI flag on `peer`; reconnect attempts back off
/// exponentially with jitter drawn from the dialing node's replica id, so
/// a herd of nodes chasing a rebooted peer does not stampede it in
/// lockstep.
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
}

impl Default for DialConfig {
    fn default() -> Self {
        DialConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            retries: 0,
            backoff: Duration::from_millis(200),
        }
    }
}

impl DialConfig {
    /// The delay node `me` sleeps before retry `attempt` (1-based):
    /// exponential backoff capped at [`BACKOFF_CAP`], plus jitter of up to
    /// half the delay. The jitter is a pure function of `me` and
    /// `attempt`: one node always keeps the same schedule, two nodes
    /// almost never share one.
    pub fn retry_delay(&self, me: ReplicaId, attempt: u32) -> Duration {
        let base = self
            .backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(BACKOFF_CAP);
        let mut x = me
            .as_u64()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F));
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        let half = base.as_millis() as u64 / 2;
        let jitter = if half == 0 { 0 } else { x % half };
        base + Duration::from_millis(jitter)
    }

    /// Node `me` connects to `remote`, retrying per this policy. Applies
    /// the connect deadline to each attempt and the I/O deadline to the
    /// resulting stream.
    ///
    /// # Errors
    ///
    /// The last connect error once every attempt is exhausted.
    pub fn dial(&self, me: ReplicaId, remote: SocketAddr) -> io::Result<TcpStream> {
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
                    std::thread::sleep(self.retry_delay(me, attempt));
                }
            }
        }
    }
}

/// An outbound connection, freshly dialed or taken from the pool. The
/// stream is blocking, with the dialer's I/O timeouts set.
struct Outbound {
    stream: TcpStream,
    /// Taken from the pool rather than dialed.
    reused: bool,
    /// Who its last sync session was with, when it had one.
    peer: Option<ReplicaId>,
}

struct PooledConn {
    stream: TcpStream,
    peer: Option<ReplicaId>,
    idle_since: Instant,
}

/// Idle outbound connections by dial address, newest last.
struct Pool {
    by_addr: HashMap<String, Vec<PooledConn>>,
    pruned_at: Instant,
}

impl Pool {
    /// The most recently pooled connection to `addr`, if it is still
    /// younger than `max_idle` (if it is not, none to `addr` is). The
    /// address keeps its (empty) entry until the next prune, so a
    /// take-and-give cycle allocates nothing.
    fn take(&mut self, addr: &str, max_idle: Duration) -> Option<PooledConn> {
        let conns = self.by_addr.get_mut(addr)?;
        let newest = conns.pop().filter(|c| c.idle_since.elapsed() < max_idle);
        if newest.is_none() {
            conns.clear();
        }
        newest
    }

    /// Pools a connection; once per `max_idle` also drops every stale
    /// one, so connections to addresses never dialed again do not pile
    /// up.
    fn give(&mut self, addr: &str, conn: PooledConn, max_idle: Duration) {
        match self.by_addr.get_mut(addr) {
            Some(conns) => conns.push(conn),
            None => {
                self.by_addr.insert(addr.to_string(), vec![conn]);
            }
        }
        if self.pruned_at.elapsed() >= max_idle {
            self.pruned_at = Instant::now();
            self.by_addr.retain(|_, conns| {
                conns.retain(|c| c.idle_since.elapsed() < max_idle);
                !conns.is_empty()
            });
        }
    }
}

/// What [`Dialer::sync`] and [`Dialer::gossip`] hand back for a session
/// that got a connection.
#[derive(Debug)]
pub struct Dialed {
    /// How the session went.
    pub outcome: SessionOutcome,
    /// It ran over a pooled connection.
    pub reused: bool,
    /// Socket `read`/`write` calls made on the caller's thread.
    pub syscalls: u64,
}

/// Counts the socket calls the pump makes.
struct Counted<'a> {
    stream: &'a TcpStream,
    calls: &'a mut u64,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        *self.calls += 1;
        self.stream.read(buf)
    }
}

impl Write for Counted<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        *self.calls += 1;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Pump scratches kept between sessions: one per caller thread that
/// overlaps another.
const SCRATCH_KEEP: usize = 8;

/// The connection pool and the blocking initiator over it.
pub struct Dialer {
    config: DialConfig,
    /// The dialing node, whose id seeds the retry jitter.
    me: ReplicaId,
    /// How long a connection may sit in the pool: half the responders'
    /// idle timeout, so a connection is never taken in the moment its far
    /// end reaps it.
    max_idle: Duration,
    pool: Mutex<Pool>,
    scratch: Mutex<Vec<PumpScratch>>,
}

impl fmt::Debug for Dialer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dialer")
            .field("config", &self.config)
            .field("me", &self.me)
            .field("max_idle", &self.max_idle)
            .finish_non_exhaustive()
    }
}

impl Dialer {
    /// Node `me`'s dialer, with an empty pool. `max_idle` is how long a
    /// connection may wait in the pool before it is discarded instead of
    /// reused.
    pub fn new(config: DialConfig, me: ReplicaId, max_idle: Duration) -> Dialer {
        Dialer {
            config,
            me,
            max_idle,
            pool: Mutex::new(Pool {
                by_addr: HashMap::new(),
                pruned_at: Instant::now(),
            }),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// A connection to `addr`, pool-first: a pooled one skips the TCP
    /// handshake entirely.
    fn checkout(&self, addr: &str) -> io::Result<Outbound> {
        match self.pool.lock().take(addr, self.max_idle) {
            Some(conn) => Ok(Outbound {
                stream: conn.stream,
                reused: true,
                peer: conn.peer,
            }),
            None => self.connect(addr),
        }
    }

    fn connect(&self, addr: &str) -> io::Result<Outbound> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        Ok(Outbound {
            stream: self.config.dial(self.me, resolved)?,
            reused: false,
            peer: None,
        })
    }

    /// Runs one full sync session with `addr` on the calling thread. On
    /// a pooled connection that remembers its peer the request goes out
    /// right behind the hello.
    ///
    /// # Errors
    ///
    /// The resolve or connect error when no connection could be had; a
    /// session that got one reports through [`Dialed::outcome`].
    pub fn sync(
        &self,
        addr: &str,
        node: &Arc<Mutex<DtnNode>>,
        membership: &Arc<Mutex<Membership>>,
        now: SimTime,
        now_ms: &dyn Fn() -> u64,
    ) -> io::Result<Dialed> {
        let limits = SyncLimits::unlimited();
        self.run(addr, now_ms, |conn| {
            let (node, membership) = (Arc::clone(node), Arc::clone(membership));
            match conn.peer {
                Some(peer) => {
                    SessionMachine::sync_initiator_to(node, membership, limits, now, peer)
                }
                None => SessionMachine::sync_initiator(node, membership, limits, now, conn.reused),
            }
        })
    }

    /// Runs one gossip exchange with `addr` on the calling thread: our
    /// view out, theirs merged into `membership`. The connection keeps
    /// the peer its last sync was with.
    ///
    /// # Errors
    ///
    /// As [`Dialer::sync`].
    pub fn gossip(
        &self,
        addr: &str,
        node: &Arc<Mutex<DtnNode>>,
        membership: &Arc<Mutex<Membership>>,
        now_ms: &dyn Fn() -> u64,
    ) -> io::Result<Dialed> {
        self.run(addr, now_ms, |conn| {
            let (node, membership) = (Arc::clone(node), Arc::clone(membership));
            SessionMachine::gossip_initiator(node, membership, now_ms(), conn.reused)
        })
    }

    /// Opens a session with `open` over a connection to `addr` and pumps
    /// it to its end. A pooled connection that turns out dead — closed or
    /// reset before a single reply byte — costs a redial, not the
    /// contact: the session is opened once more on a fresh connection,
    /// and the dead attempt is accounted nowhere. A connection is pooled
    /// again only after a clean session.
    fn run(
        &self,
        addr: &str,
        now_ms: &dyn Fn() -> u64,
        open: impl Fn(&Outbound) -> Result<(SessionMachine, Vec<u8>), SessionError>,
    ) -> io::Result<Dialed> {
        let mut conn = self.checkout(addr)?;
        let mut scratch = self.scratch.lock().pop().unwrap_or_default();
        let mut syscalls = 0;
        let outcome = loop {
            let (mut machine, mut out) = match open(&conn) {
                Ok(opened) => opened,
                Err(error) => break Ok(SessionOutcome::failed(error)),
            };
            let mut counted = Counted {
                stream: &conn.stream,
                calls: &mut syscalls,
            };
            match turns(&mut counted, &mut machine, &mut out, now_ms, &mut scratch) {
                Ok(()) => {
                    let outcome = machine.outcome(None);
                    let pooled = PooledConn {
                        stream: conn.stream,
                        peer: outcome.report.peer.or(conn.peer),
                        idle_since: Instant::now(),
                    };
                    self.pool.lock().give(addr, pooled, self.max_idle);
                    break Ok(outcome);
                }
                Err(error) if conn.reused && scratch.received == 0 && hung_up(&error) => {
                    match self.connect(addr) {
                        Ok(fresh) => conn = fresh,
                        Err(e) => break Err(e),
                    }
                }
                Err(error) => {
                    give_up(&mut counted, &mut machine, &out);
                    break Ok(machine.outcome(Some(error)));
                }
            }
        };
        let mut kept = self.scratch.lock();
        if kept.len() < SCRATCH_KEEP {
            kept.push(scratch);
        }
        Ok(Dialed {
            outcome: outcome?,
            reused: conn.reused,
            syscalls,
        })
    }
}

/// The far end is gone: it closed, reset or aborted the connection.
fn hung_up(error: &SessionError) -> bool {
    match error {
        SessionError::Eof => true,
        SessionError::Io(e) => matches!(
            e.kind(),
            ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const ME: ReplicaId = ReplicaId::new(7);

    fn schedule(cfg: &DialConfig, me: u64) -> Vec<Duration> {
        (1..=4)
            .map(|attempt| cfg.retry_delay(ReplicaId::new(me), attempt))
            .collect()
    }

    #[test]
    fn retry_delay_is_deterministic_and_grows() {
        let cfg = DialConfig::default();
        let d1 = cfg.retry_delay(ME, 1);
        let d2 = cfg.retry_delay(ME, 2);
        let d3 = cfg.retry_delay(ME, 3);
        // Same node, same schedule.
        assert_eq!(d1, cfg.retry_delay(ME, 1));
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
            ..DialConfig::default()
        };
        // 2^30 would overflow without saturation; the cap bounds it.
        for attempt in [7, 31, u32::MAX] {
            let d = cfg.retry_delay(ME, attempt);
            assert!(d >= BACKOFF_CAP && d <= BACKOFF_CAP + BACKOFF_CAP / 2);
        }
    }

    #[test]
    fn each_node_keeps_its_own_jitter() {
        let cfg = DialConfig::default();
        // Two nodes chasing one dead peer do not retry in lockstep...
        assert_ne!(schedule(&cfg, 1), schedule(&cfg, 2));
        // ...and a node's schedule does not change between dials.
        assert_eq!(schedule(&cfg, 1), schedule(&cfg, 1));
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
            ..DialConfig::default()
        };
        let err = cfg
            .dial(ME, SocketAddr::from(([127, 0, 0, 1], port)))
            .unwrap_err();
        // Three attempts were made and the final error surfaced.
        assert!(
            err.kind() == std::io::ErrorKind::ConnectionRefused
                || err.kind() == std::io::ErrorKind::TimedOut,
            "unexpected error kind: {err}"
        );
    }
}
