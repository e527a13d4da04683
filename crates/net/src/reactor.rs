//! The readiness-loop reactor: many sessions, few threads.
//!
//! No external async runtime — each worker thread owns a set of sessions
//! over nonblocking std [`TcpStream`]s and drives them: flush the
//! session's outbox until the socket would block, read whatever bytes are
//! ready, feed complete frames to the [`SessionMachine`], repeat. A
//! session costs a few hundred bytes of state rather than a thread, so
//! thousands run concurrently on a handful of workers.
//!
//! A worker learns which sessions to drive from its own `epoll(7)`
//! instance: every session socket is registered edge-triggered, and the
//! worker blocks in `epoll_wait` until something is actually ready, so
//! syscalls scale with ready sessions rather than live ones. A session
//! enqueued from another thread wakes the worker through a socketpair
//! registered in the same set. Linux only; `NetNode::start` fails
//! elsewhere.
//!
//! Writes are batched: a session's outbox is a queue of encoded-frame
//! segments flushed with vectored [`Write::write_vectored`] submissions
//! (`writev(2)`), so one syscall drains many queued frames.
//!
//! Flow control is per session: the outbox is a bounded write queue — a
//! session whose queue is over its bound stops *reading* until it drains
//! (backpressure propagates to the peer through TCP). A session making no
//! forward progress past the stall timeout is failed; an idle pooled
//! responder past the idle timeout is closed.
//!
//! The reactor drives the sessions nobody blocks on: every inbound
//! connection, and the outbound ones a caller detached (`sync_detached`,
//! gossip fan-out, anti-entropy). A caller that waits for its session
//! runs it on its own thread through [`transport::Dialer`], which also
//! owns the one pool of idle outbound connections: a worker borrows a
//! connection from it (flipping the socket nonblocking) and returns it
//! blocking again once the session completed cleanly.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::{Event, EventKind, Obs};
use parking_lot::Mutex;
use pfr::ReplicaId;
use transport::frame::{FrameAccum, FrameError};
use transport::{Dialed, Dialer, Outbound, Progress, SessionError, SessionMachine, SessionOutcome};

use crate::poll::{EpollPoller, PipeWaker};

/// How many bytes one `read` call pulls at most.
const READ_BUF: usize = 16 * 1024;
/// Read calls per session per loop pass (fairness bound).
const READS_PER_PASS: usize = 8;
/// Frame segments per vectored write submission.
const WRITEV_BATCH: usize = 16;
/// Recycled outbox segments kept per session, and the capacity above
/// which a segment is dropped instead of pooled.
const SEG_POOL: usize = 4;
const SEG_POOL_CAP: usize = 64 * 1024;
/// Deadline sweep period: how often parked sessions are checked against
/// idle/stall timeouts when no I/O wakes them.
const DEADLINE_TICK: Duration = Duration::from_millis(20);

/// Reactor tunables (filled in from [`crate::NetConfig`]).
#[derive(Clone, Debug)]
pub(crate) struct ReactorConfig {
    pub workers: usize,
    pub write_queue_limit: usize,
    pub idle_timeout: Duration,
    pub stall_timeout: Duration,
}

struct TicketInner {
    // std primitives: the workspace `parking_lot` shim has no Condvar.
    result: std::sync::Mutex<Option<SessionOutcome>>,
    cond: std::sync::Condvar,
}

/// A handle to a detached session: resolves when the reactor finishes it.
#[derive(Clone)]
pub struct SessionTicket(Arc<TicketInner>);

impl SessionTicket {
    pub(crate) fn new() -> SessionTicket {
        SessionTicket(Arc::new(TicketInner {
            result: std::sync::Mutex::new(None),
            cond: std::sync::Condvar::new(),
        }))
    }

    pub(crate) fn resolve(&self, result: SessionOutcome) {
        let mut slot = self.0.result.lock().expect("ticket lock");
        if slot.is_none() {
            *slot = Some(result);
            self.0.cond.notify_all();
        }
    }

    /// Blocks until the session completes or fails.
    pub fn wait(&self) -> SessionOutcome {
        let mut slot = self.0.result.lock().expect("ticket lock");
        while slot.is_none() {
            slot = self.0.cond.wait(slot).expect("ticket lock");
        }
        slot.take().expect("resolved")
    }
}

impl std::fmt::Debug for SessionTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTicket").finish_non_exhaustive()
    }
}

/// Outbox: a queue of encoded-frame segments flushed with vectored
/// writes, so one `writev` syscall drains up to [`WRITEV_BATCH`] queued
/// frames. Drained segments are recycled through a small per-session
/// pool, so a long-lived responder stops allocating.
#[derive(Default)]
struct OutBuf {
    segs: VecDeque<Vec<u8>>,
    /// Consumed prefix of the front segment (partial writes do not
    /// memmove the remainder).
    pos: usize,
    pending: usize,
    pool: Vec<Vec<u8>>,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.pending
    }

    /// A recycled (or fresh) segment for the machine to encode into.
    fn take_seg(&mut self) -> Vec<u8> {
        self.pool.pop().unwrap_or_default()
    }

    /// Queues a filled segment; empty ones go straight back to the pool.
    fn push_seg(&mut self, seg: Vec<u8>) {
        if seg.is_empty() {
            self.recycle(seg);
        } else {
            self.pending += seg.len();
            self.segs.push_back(seg);
        }
    }

    fn recycle(&mut self, mut seg: Vec<u8>) {
        if self.pool.len() < SEG_POOL && seg.capacity() <= SEG_POOL_CAP {
            seg.clear();
            self.pool.push(seg);
        }
    }

    fn advance(&mut self, mut n: usize) {
        self.pending -= n;
        while n > 0 {
            let left = self.segs.front().expect("advance past queue").len() - self.pos;
            if n >= left {
                n -= left;
                self.pos = 0;
                let seg = self.segs.pop_front().expect("advance past queue");
                self.recycle(seg);
            } else {
                self.pos += n;
                n = 0;
            }
        }
    }

    /// Flushes queued segments with vectored writes until the queue is
    /// empty or the socket would block, and says whether any byte went
    /// out. `Ok(0)` from the socket surfaces as [`SessionError::Eof`].
    fn flush(&mut self, stream: &TcpStream, syscalls: &mut u64) -> Result<bool, SessionError> {
        const EMPTY: &[u8] = &[];
        let mut wrote = false;
        while self.pending > 0 {
            let mut slices = [IoSlice::new(EMPTY); WRITEV_BATCH];
            let mut count = 0;
            for (i, seg) in self.segs.iter().take(WRITEV_BATCH).enumerate() {
                slices[i] = if i == 0 {
                    IoSlice::new(&seg[self.pos..])
                } else {
                    IoSlice::new(seg)
                };
                count = i + 1;
            }
            *syscalls += 1;
            match (&*stream).write_vectored(&slices[..count]) {
                Ok(0) => return Err(SessionError::Eof),
                Ok(n) => {
                    self.advance(n);
                    wrote = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(SessionError::Io(e)),
            }
        }
        Ok(wrote)
    }
}

/// One registered connection and its protocol state.
pub(crate) struct Session {
    stream: TcpStream,
    /// Dial address, for returning the connection to the pool; empty for
    /// inbound connections.
    addr: String,
    /// Who the connection's last sync session was with (outbound only);
    /// a gossip exchange over it leaves this as it was.
    known_peer: Option<ReplicaId>,
    machine: SessionMachine,
    accum: FrameAccum,
    out: OutBuf,
    ticket: Option<SessionTicket>,
    inbound: bool,
    last_progress: Instant,
    stalled: bool,
    /// Machine finished; flush the outbox, then finalize.
    finished: bool,
    /// The peer closed or reset its end (epoll said so): reads run to
    /// EOF instead of stopping at the first short one.
    hung_up: bool,
    /// When the session was handed to its worker queue (consumed by the
    /// wakeup-latency measurement on first pickup).
    enqueued_at: Instant,
}

/// State shared between the reactor handle and its workers.
pub(crate) struct Shared {
    config: ReactorConfig,
    shutdown: AtomicBool,
    queues: Vec<Mutex<Vec<Session>>>,
    /// One waker per worker: a parked worker resumes when a session
    /// lands on its queue.
    wakers: Vec<Arc<PipeWaker>>,
    next_queue: AtomicUsize,
    /// The pool of idle outbound connections and the blocking initiator
    /// over it.
    pub(crate) dialer: Dialer,
    epoch: Instant,
    obs: Obs,
    replica: u64,
    pub(crate) open: AtomicUsize,
    pub(crate) peak: AtomicUsize,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) reuses: AtomicU64,
    pub(crate) stalls: AtomicU64,
    pub(crate) syscalls: AtomicU64,
    pub(crate) wakeups: AtomicU64,
}

impl Shared {
    /// Milliseconds since the reactor started: the monotonic clock the
    /// membership layer ages entries against.
    pub(crate) fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// A connection to `addr` for a worker to drive, pool-first: taken
    /// (or dialed) blocking, handed over nonblocking. The pool holds
    /// blocking sockets, so a worker-driven session pays (and counts) one
    /// mode flip here and one back in [`finalize`].
    pub(crate) fn dial(&self, addr: &str) -> io::Result<Outbound> {
        let conn = self.dialer.checkout(addr)?;
        self.syscalls.fetch_add(1, Ordering::Relaxed);
        conn.stream.set_nonblocking(true)?;
        Ok(conn)
    }

    /// Registers an outbound session to `addr`: `opening` is what the
    /// machine wants on the wire first.
    pub(crate) fn register_outbound(
        &self,
        addr: &str,
        conn: Outbound,
        machine: SessionMachine,
        opening: Vec<u8>,
        ticket: Option<SessionTicket>,
    ) {
        if conn.reused {
            self.reuses.fetch_add(1, Ordering::Relaxed);
        }
        let mut session = Session::new(conn.stream, machine);
        session.addr = addr.to_string();
        session.known_peer = conn.peer;
        session.out.push_seg(opening);
        session.ticket = ticket;
        self.enqueue(session);
    }

    /// Counts one more open session (queued for a worker, or about to run
    /// on its caller's thread).
    pub(crate) fn session_opened(&self) {
        let open = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(open, Ordering::Relaxed);
    }

    /// Accounts what a caller-thread session did (`None`: it never got a
    /// connection, so there was no session).
    pub(crate) fn caller_session_closed(&self, dialed: Option<&Dialed>) {
        self.open.fetch_sub(1, Ordering::Relaxed);
        let Some(dialed) = dialed else { return };
        let finished = if dialed.outcome.is_ok() {
            &self.completed
        } else {
            &self.failed
        };
        finished.fetch_add(1, Ordering::Relaxed);
        if dialed.reused {
            self.reuses.fetch_add(1, Ordering::Relaxed);
        }
        self.syscalls.fetch_add(dialed.syscalls, Ordering::Relaxed);
    }

    /// Registers an accepted connection behind a responder machine.
    pub(crate) fn register_inbound(&self, stream: TcpStream, machine: SessionMachine) {
        let mut session = Session::new(stream, machine);
        session.inbound = true;
        self.enqueue(session);
    }

    /// Hands a session to the next worker round-robin and wakes that
    /// worker. The stream must already be nonblocking.
    fn enqueue(&self, session: Session) {
        self.session_opened();
        let idx = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[idx].lock().push(session);
        self.wakers[idx].wake();
    }

    pub(crate) fn open_sessions(&self) -> usize {
        self.open.load(Ordering::Relaxed)
    }
}

impl Session {
    fn new(stream: TcpStream, machine: SessionMachine) -> Session {
        Session {
            stream,
            addr: String::new(),
            known_peer: None,
            machine,
            accum: FrameAccum::new(),
            out: OutBuf::default(),
            ticket: None,
            inbound: false,
            last_progress: Instant::now(),
            stalled: false,
            finished: false,
            hung_up: false,
            enqueued_at: Instant::now(),
        }
    }

    /// Flushes the outbox; bytes written count as progress.
    fn flush(&mut self, syscalls: &mut u64) -> Result<(), SessionError> {
        if self.out.flush(&self.stream, syscalls)? {
            self.last_progress = Instant::now();
        }
        Ok(())
    }
}

/// The worker pool driving every registered session.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Starts one worker per configured thread, each on an epoll
    /// instance of its own.
    ///
    /// # Errors
    ///
    /// The first epoll setup failure, before any worker starts.
    pub(crate) fn start(
        config: ReactorConfig,
        dialer: Dialer,
        obs: Obs,
        replica: u64,
    ) -> io::Result<Reactor> {
        let workers = config.workers.max(1);
        let pollers = (0..workers)
            .map(|_| EpollPoller::new())
            .collect::<io::Result<Vec<_>>>()?;
        let wakers = pollers.iter().map(EpollPoller::waker).collect();
        let shared = Arc::new(Shared {
            config,
            shutdown: AtomicBool::new(false),
            queues: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            wakers,
            next_queue: AtomicUsize::new(0),
            dialer,
            epoch: Instant::now(),
            obs,
            replica,
            open: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            syscalls: AtomicU64::new(0),
            wakeups: AtomicU64::new(0),
        });
        let handles = pollers
            .into_iter()
            .enumerate()
            .map(|(w, poller)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("net-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w, poller))
                    .expect("spawn net worker")
            })
            .collect();
        Ok(Reactor {
            shared,
            workers: handles,
        })
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Stops the workers, failing every session still in flight.
    pub(crate) fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.shared.wakers {
            waker.wake();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What one step decided about a session's future.
enum Verdict {
    /// Still running; step it again on its socket's next edge.
    Keep,
    /// Still running, but its read stopped at the fairness bound with
    /// bytes left: step it again without waiting, since an un-drained
    /// socket fires no further edge.
    Again,
    /// Finished cleanly; the connection may return to the pool.
    Finished,
    /// Closed without error (EOF on an idle responder, idle timeout).
    Closed,
    /// Failed with an error.
    Failed(SessionError),
}

/// Per-worker telemetry: syscall/wakeup deltas accumulated locally and
/// flushed to the shared counters plus one `net_poll` event per wakeup
/// batch (and a final flush at shutdown).
#[derive(Default)]
struct PollTelemetry {
    syscalls: u64,
    wakeups: u64,
    woken: u64,
    max_latency_us: u64,
}

impl PollTelemetry {
    /// Records one wakeup that picked up `sessions` (measuring each
    /// session's enqueue→pickup latency), then emits the batch.
    fn on_wakeup(&mut self, shared: &Shared, sessions: &[Session]) {
        self.wakeups += 1;
        shared.wakeups.fetch_add(1, Ordering::Relaxed);
        for session in sessions {
            let us = session.enqueued_at.elapsed().as_micros() as u64;
            self.max_latency_us = self.max_latency_us.max(us);
            self.woken += 1;
        }
        self.emit(shared);
    }

    /// Adds a syscall delta to the shared counter and the pending event.
    fn add_syscalls(&mut self, shared: &Shared, n: u64) {
        if n > 0 {
            self.syscalls += n;
            shared.syscalls.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn emit(&mut self, shared: &Shared) {
        if self.syscalls == 0 && self.wakeups == 0 {
            return;
        }
        let (syscalls, wakeups, woken, latency) =
            (self.syscalls, self.wakeups, self.woken, self.max_latency_us);
        let replica = shared.replica;
        shared.obs.emit(EventKind::NetPoll, || Event::NetPoll {
            replica,
            syscalls,
            wakeups,
            woken,
            wakeup_latency_us: latency,
        });
        self.syscalls = 0;
        self.wakeups = 0;
        self.woken = 0;
        self.max_latency_us = 0;
    }
}

/// One worker: sessions live in a token-indexed slab, their sockets
/// registered edge-triggered with the worker's epoll instance; the worker
/// blocks in `epoll_wait` until a socket is ready or the waker fires,
/// then steps exactly the ready sessions. Sessions whose read was cut
/// short by the fairness bound stay "hot" and are re-stepped with a
/// zero-timeout wait in between (the edge-trigger contract: an
/// un-drained socket fires no further events). Deadlines are enforced by
/// a periodic sweep every [`DEADLINE_TICK`].
fn worker_loop(shared: &Shared, index: usize, mut poller: EpollPoller) {
    let mut slots: Vec<Option<Session>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut hot: Vec<usize> = Vec::new();
    let mut ready: Vec<usize> = Vec::new();
    let mut incoming: Vec<Session> = Vec::new();
    let mut read_buf = vec![0u8; READ_BUF];
    let mut telemetry = PollTelemetry::default();
    let mut last_tick = Instant::now();
    let tick_ms = DEADLINE_TICK.as_millis() as i32;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            incoming.append(&mut shared.queues[index].lock());
            for session in incoming.drain(..).chain(slots.drain(..).flatten()) {
                finalize(shared, session, Verdict::Failed(SessionError::Eof));
            }
            telemetry.emit(shared);
            return;
        }

        // Intake: adopt newly registered sessions into the slab. They are
        // stepped immediately (hot) — the initial outbox must hit the
        // wire, and a pooled/inbound socket may already hold bytes that
        // will never fire an edge.
        incoming.append(&mut shared.queues[index].lock());
        if !incoming.is_empty() {
            telemetry.on_wakeup(shared, &incoming);
            for session in incoming.drain(..) {
                let token = free.pop().unwrap_or_else(|| {
                    slots.push(None);
                    slots.len() - 1
                });
                match poller.register(&session.stream, token) {
                    Ok(()) => {
                        slots[token] = Some(session);
                        hot.push(token);
                    }
                    Err(e) => {
                        free.push(token);
                        finalize(shared, session, Verdict::Failed(SessionError::Io(e)));
                    }
                }
            }
        }

        // Wait for readiness — not at all while hot sessions need
        // re-stepping, else until the next deadline tick.
        let timeout = if hot.is_empty() { tick_ms } else { 0 };
        let mut syscalls = 1u64;
        if poller.wait(timeout, &mut ready).is_err() {
            // epoll_wait failing is unrecoverable for this worker; fail
            // everything rather than spin.
            for slot in &mut slots {
                if let Some(session) = slot.take() {
                    poller.deregister(&session.stream);
                    finalize(shared, session, Verdict::Failed(SessionError::Eof));
                }
            }
            hot.clear();
            continue;
        }
        for &token in poller.hung_up() {
            if let Some(session) = slots.get_mut(token).and_then(Option::as_mut) {
                session.hung_up = true;
            }
        }
        ready.append(&mut hot);
        ready.sort_unstable();
        ready.dedup();

        for &token in &ready {
            let Some(session) = slots.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            match step(shared, session, &mut read_buf, &mut syscalls) {
                Verdict::Keep => {}
                Verdict::Again => hot.push(token),
                verdict => {
                    let session = slots[token].take().expect("stepped session");
                    poller.deregister(&session.stream);
                    free.push(token);
                    finalize(shared, session, verdict);
                }
            }
        }

        // Deadline sweep: no event fires for a peer that simply went
        // quiet, so timeouts are enforced on a coarse periodic tick.
        if last_tick.elapsed() >= DEADLINE_TICK {
            last_tick = Instant::now();
            for (token, slot) in slots.iter_mut().enumerate() {
                let Some(session) = slot.as_ref() else {
                    continue;
                };
                if let Some(verdict) = deadline_verdict(shared, session) {
                    let session = slot.take().expect("checked session");
                    poller.deregister(&session.stream);
                    free.push(token);
                    finalize(shared, session, verdict);
                }
            }
        }
        telemetry.add_syscalls(shared, syscalls);
    }
}

/// Accounts a removed session and resolves its ticket.
fn finalize(shared: &Shared, mut session: Session, verdict: Verdict) {
    shared.open.fetch_sub(1, Ordering::Relaxed);
    let error = match verdict {
        Verdict::Keep | Verdict::Again => unreachable!(),
        // A responder that served sessions before going quiet already
        // counted them at completion; nothing to account here.
        Verdict::Closed => return,
        Verdict::Finished => {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            None
        }
        Verdict::Failed(error) => {
            shared.failed.fetch_add(1, Ordering::Relaxed);
            session.machine.abort();
            Some(error)
        }
    };
    let outcome = session.machine.outcome(error);
    // Return the outbound connection *before* resolving the ticket: a
    // caller that re-dials the moment its wait returns must find the
    // connection already pooled.
    if outcome.is_ok() && !session.inbound {
        shared.syscalls.fetch_add(1, Ordering::Relaxed);
        if session.stream.set_nonblocking(false).is_ok() {
            let peer = outcome.report.peer.or(session.known_peer);
            shared.dialer.checkin(&session.addr, session.stream, peer);
        }
    }
    if let Some(ticket) = session.ticket {
        ticket.resolve(outcome);
    }
}

/// Applies idle/stall/backpressure deadlines to a kept session, on the
/// worker's periodic tick (no event fires for a peer that went quiet).
fn deadline_verdict(shared: &Shared, session: &Session) -> Option<Verdict> {
    let quiet = session.last_progress.elapsed();
    if session.stalled {
        if quiet > shared.config.stall_timeout {
            return Some(Verdict::Failed(SessionError::Backpressure));
        }
        return None;
    }
    if session.finished {
        // Finished but the outbox will not drain: the peer stopped
        // reading. Treated as a stall like any other no-progress state.
        if quiet > shared.config.stall_timeout {
            return Some(Verdict::Failed(SessionError::Stalled));
        }
        return None;
    }
    if session.machine.is_idle() {
        if quiet > shared.config.idle_timeout {
            return Some(Verdict::Closed);
        }
    } else if quiet > shared.config.stall_timeout {
        return Some(Verdict::Failed(SessionError::Stalled));
    }
    None
}

/// One readiness pass over one session: flush, read, feed frames, flush
/// again. Each socket syscall bumps `*syscalls`.
fn step(
    shared: &Shared,
    session: &mut Session,
    read_buf: &mut [u8],
    syscalls: &mut u64,
) -> Verdict {
    // Flush the outbox until empty or the socket would block.
    if let Err(err) = session.flush(syscalls) {
        return Verdict::Failed(err);
    }

    if session.finished {
        if session.out.pending() == 0 {
            return Verdict::Finished;
        }
        return Verdict::Keep;
    }

    // Backpressure: a session over its write bound stops reading until
    // the queue drains — the peer feels it through TCP. The next
    // writability edge re-enters this step and resumes reading once under
    // the bound.
    if session.out.pending() > shared.config.write_queue_limit {
        if !session.stalled {
            session.stalled = true;
            shared.stalls.fetch_add(1, Ordering::Relaxed);
            let replica = shared.replica;
            let peer = session
                .machine
                .report()
                .peer
                .map(|p| p.as_u64())
                .unwrap_or(0);
            let queued = session.out.pending() as u64;
            shared
                .obs
                .emit(EventKind::NetBackpressure, || Event::NetBackpressure {
                    replica,
                    peer,
                    queued_bytes: queued,
                });
        }
        return Verdict::Keep;
    }
    session.stalled = false;

    // Read whatever is ready, bounded per pass for fairness. A read that
    // comes back short has drained a stream socket (epoll(7)) — no second
    // call just to be told `WouldBlock` — unless the peer hung up, when
    // only reading on finds the EOF behind the data. A session that used
    // its whole budget on full reads is not drained: it must be stepped
    // again (edge-triggered epoll will never re-announce those bytes).
    let mut saw_eof = false;
    let mut drained = true;
    let mut reads = 0;
    loop {
        if reads == READS_PER_PASS {
            drained = false;
            break;
        }
        reads += 1;
        *syscalls += 1;
        match session.stream.read(read_buf) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                session.accum.extend(&read_buf[..n]);
                session.last_progress = Instant::now();
                if n < read_buf.len() && !session.hung_up {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                reads -= 1;
                continue;
            }
            Err(e) => return Verdict::Failed(SessionError::Io(e)),
        }
    }

    // Feed complete frames to the machine, encoding replies into a
    // recycled outbox segment.
    let mut seg = session.out.take_seg();
    let now_ms = shared.now_ms();
    let fed = feed_frames(shared, session, &mut seg, now_ms);
    session.out.push_seg(seg);
    if let Err(verdict) = fed {
        return verdict;
    }

    // Flush again: frames the machine just queued would otherwise wait
    // for a writability edge that may never come (the socket is already
    // writable — edge-triggered epoll stays silent).
    if session.out.pending() > 0 {
        if let Err(err) = session.flush(syscalls) {
            return Verdict::Failed(err);
        }
    }

    if session.finished && session.out.pending() == 0 {
        return Verdict::Finished;
    }

    if saw_eof {
        // EOF with the responder parked idle and nothing queued is a
        // clean close; mid-session it is an error.
        if session.machine.is_idle() && session.out.pending() == 0 && session.accum.buffered() == 0
        {
            return Verdict::Closed;
        }
        return Verdict::Failed(SessionError::Eof);
    }

    if drained {
        Verdict::Keep
    } else {
        Verdict::Again
    }
}

/// Drains complete frames from the accumulator into the machine. Reply
/// bytes land in `seg`; errors come back as the failing verdict.
fn feed_frames(
    shared: &Shared,
    session: &mut Session,
    seg: &mut Vec<u8>,
    now_ms: u64,
) -> Result<(), Verdict> {
    loop {
        let (frame_type, payload) = match session.accum.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(e @ FrameError::BadChecksum { .. }) => {
                // The damaged frame was consumed; the machine decides
                // whether this state can recover (serve side answers
                // with a resync demand).
                match session.machine.on_checksum_error(e, seg) {
                    Ok(()) => continue,
                    Err(err) => return Err(Verdict::Failed(err)),
                }
            }
            Err(e) => return Err(Verdict::Failed(SessionError::Frame(e))),
        };
        match session.machine.on_frame(frame_type, payload, now_ms, seg) {
            Ok(Progress::Continue) => {}
            Ok(Progress::SessionComplete) if session.inbound => {
                // The responder machine reset itself to idle; the
                // connection stays registered for the next session.
                shared.completed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Progress::SessionComplete) | Ok(Progress::GossipComplete) => {
                session.finished = true;
                return Ok(());
            }
            Err(err) => return Err(Verdict::Failed(err)),
        }
    }
}
