//! The readiness-loop reactor: one thread serves every inbound session.
//!
//! No external async runtime — the reactor thread owns the listener and a
//! set of sessions over nonblocking std [`TcpStream`]s, and drives them
//! all on one loop: accept, flush a session's outbox until the socket
//! would block, read whatever bytes are ready, feed complete frames to
//! the [`SessionMachine`], repeat. A session costs a few hundred bytes of
//! state rather than a thread, so thousands run on the one loop.
//!
//! The loop learns which sessions to drive from its own `epoll(7)`
//! instance: the listener and every session socket are registered
//! edge-triggered, and the thread blocks in `epoll_wait` until something
//! is actually ready, so syscalls scale with ready sessions rather than
//! live ones. Nothing hands work to the loop from another thread: an
//! accepted connection is registered where it was accepted, and stopping
//! sets a flag the loop reads at least every 20 ms deadline tick. Linux
//! only; `NetNode::start` fails elsewhere.
//!
//! A session's outbox is one buffer the machine appends to; a session
//! over its bound stops *reading* until it drains (backpressure reaches
//! the peer through TCP). A session making no progress past the stall
//! timeout is failed; an idle responder past the idle timeout is closed.
//! Each accepted connection runs behind a responder machine that can
//! carry many back-to-back sessions.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::{Event, EventKind, Obs};
use transport::conn::feed;
use transport::frame::FrameAccum;
use transport::{Dialed, SessionMachine};

use crate::poll::EpollPoller;

/// How many bytes one `read` call pulls at most.
const READ_BUF: usize = 16 * 1024;
/// Read calls per session per loop pass (fairness bound).
const READS_PER_PASS: usize = 8;
/// A drained outbox whose capacity is above this gives it back, so an
/// idle responder that once sent a large batch does not hold it.
const OUTBOX_KEEP: usize = 64 * 1024;
/// Deadline sweep period: how often parked sessions are checked against
/// idle/stall timeouts when no I/O wakes them, and the longest
/// [`Reactor::stop`] waits for the loop to notice.
const DEADLINE_TICK: Duration = Duration::from_millis(20);
/// The listener's token; no session slot reaches it.
const LISTENER: usize = usize::MAX;

/// Reactor tunables (filled in from [`crate::NetConfig`]).
#[derive(Clone, Debug)]
pub(crate) struct ReactorConfig {
    pub write_queue_limit: usize,
    pub idle_timeout: Duration,
    pub stall_timeout: Duration,
}

/// The listener the reactor accepts on, and what it admits connections
/// with.
pub(crate) struct Acceptor {
    pub listener: TcpListener,
    /// At this many open sessions an accepted connection is closed at
    /// once: the remote sees it closed and backs off.
    pub max_sessions: usize,
    /// A responder machine for each accepted connection.
    pub responder: Box<dyn Fn() -> SessionMachine + Send>,
}

/// Outbox: one buffer the machine appends encoded frames to, and how much
/// of it the socket has already taken (partial writes do not memmove the
/// remainder).
#[derive(Default)]
struct OutBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The buffer for the machine to append to, with the written prefix
    /// dropped first, so it holds only what is still queued.
    fn queue(&mut self) -> &mut Vec<u8> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        &mut self.buf
    }

    /// Writes what is queued until it is drained or `sink` would block,
    /// and says whether any byte went out. A drained outbox is emptied,
    /// and gives its capacity back when that is above [`OUTBOX_KEEP`].
    fn flush(&mut self, mut sink: impl Write, syscalls: &mut u64) -> io::Result<bool> {
        let mut wrote = false;
        while self.pos < self.buf.len() {
            *syscalls += 1;
            match sink.write(&self.buf[self.pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.pos += n;
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(wrote),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.buf.capacity() > OUTBOX_KEEP {
            self.buf = Vec::new();
        }
        self.buf.clear();
        self.pos = 0;
        Ok(wrote)
    }
}

/// One accepted connection and its responder machine.
pub(crate) struct Session {
    stream: TcpStream,
    machine: SessionMachine,
    accum: FrameAccum,
    out: OutBuf,
    last_progress: Instant,
    stalled: bool,
    /// The peer closed or reset its end (epoll said so): reads run to
    /// EOF instead of stopping at the first short one.
    hung_up: bool,
}

/// State shared between the reactor handle, its thread and the node's
/// callers.
pub(crate) struct Shared {
    config: ReactorConfig,
    shutdown: AtomicBool,
    epoch: Instant,
    pub(crate) obs: Obs,
    pub(crate) replica: u64,
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

    /// Counts one more open session (accepted, or about to run on its
    /// caller's thread).
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

    /// Accepts until the listener would block, registering each
    /// connection behind a responder machine in the loop's own epoll set.
    /// Returns how many it registered, and whether the backlog was
    /// drained: any other error (fd exhaustion, say) cuts the drain
    /// short, and an edge-triggered listener fires no new edge for what is
    /// left, so the caller retries on its next deadline tick.
    fn accept(&self, acceptor: &Acceptor, sessions: &mut Sessions) -> (usize, bool) {
        let mut accepted = 0;
        loop {
            let stream = match acceptor.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) => return (accepted, e.kind() == ErrorKind::WouldBlock),
            };
            if self.open_sessions() >= acceptor.max_sessions
                || stream.set_nodelay(true).is_err()
                || stream.set_nonblocking(true).is_err()
            {
                continue;
            }
            self.session_opened();
            sessions.add(self, Session::new(stream, (acceptor.responder)()));
            accepted += 1;
        }
    }

    pub(crate) fn open_sessions(&self) -> usize {
        self.open.load(Ordering::Relaxed)
    }
}

impl Session {
    fn new(stream: TcpStream, machine: SessionMachine) -> Session {
        Session {
            stream,
            machine,
            accum: FrameAccum::new(),
            out: OutBuf::default(),
            last_progress: Instant::now(),
            stalled: false,
            hung_up: false,
        }
    }

    /// Flushes the outbox; bytes written count as progress.
    fn flush(&mut self, syscalls: &mut u64) -> io::Result<()> {
        if self.out.flush(&self.stream, syscalls)? {
            self.last_progress = Instant::now();
        }
        Ok(())
    }
}

/// The reactor thread driving every accepted session.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Starts the reactor thread, named `reactor-{port}` after the
    /// listen port, on an epoll instance holding `acceptor`'s listener,
    /// which closes when the thread exits.
    ///
    /// # Errors
    ///
    /// An epoll setup or thread spawn failure.
    pub(crate) fn start(
        config: ReactorConfig,
        acceptor: Acceptor,
        obs: Obs,
        replica: u64,
    ) -> io::Result<Reactor> {
        let poller = EpollPoller::new()?;
        acceptor.listener.set_nonblocking(true)?;
        poller.register(&acceptor.listener, LISTENER)?;
        let port = acceptor.listener.local_addr()?.port();
        let shared = Arc::new(Shared {
            config,
            shutdown: AtomicBool::new(false),
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
        let sessions = Sessions {
            poller,
            slots: Vec::new(),
            free: Vec::new(),
            hot: Vec::new(),
        };
        let serving = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(format!("reactor-{port}"))
            .spawn(move || serve(&serving, sessions, &acceptor))?;
        Ok(Reactor {
            shared,
            thread: Some(thread),
        })
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Stops the thread, failing every session still in flight. The loop
    /// notices within one [`DEADLINE_TICK`].
    pub(crate) fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
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
    /// Closed without error (EOF on an idle responder, idle timeout).
    Closed,
    /// Failed: an I/O or protocol error, a stall or backpressure past the
    /// stall timeout.
    Failed,
}

/// Telemetry: syscall and wakeup deltas accumulated locally and flushed
/// to the shared counters, plus one `net_poll` event per batch of
/// accepted connections (and a final flush at shutdown).
#[derive(Default)]
struct PollTelemetry {
    syscalls: u64,
    wakeups: u64,
}

impl PollTelemetry {
    /// Adds one loop pass: its syscalls, and whether its `epoll_wait`
    /// found a ready socket.
    fn add(&mut self, shared: &Shared, syscalls: u64, woke: bool) {
        self.syscalls += syscalls;
        shared.syscalls.fetch_add(syscalls, Ordering::Relaxed);
        if woke {
            self.wakeups += 1;
            shared.wakeups.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn emit(&mut self, shared: &Shared) {
        if self.syscalls == 0 && self.wakeups == 0 {
            return;
        }
        let (replica, syscalls, wakeups) = (shared.replica, self.syscalls, self.wakeups);
        shared.obs.emit(EventKind::NetPoll, || Event::NetPoll {
            replica,
            syscalls,
            wakeups,
        });
        *self = PollTelemetry::default();
    }
}

/// The loop's sessions: a token-indexed slab whose sockets are registered
/// edge-triggered with the loop's epoll instance.
struct Sessions {
    poller: EpollPoller,
    slots: Vec<Option<Session>>,
    free: Vec<usize>,
    /// Tokens to step on the next pass whether or not an edge fires.
    hot: Vec<usize>,
}

impl Sessions {
    /// Registers a newly accepted session and marks it hot: its socket
    /// may already hold bytes that will never fire an edge.
    fn add(&mut self, shared: &Shared, session: Session) {
        let token = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        match self.poller.register(&session.stream, token) {
            Ok(()) => {
                self.slots[token] = Some(session);
                self.hot.push(token);
            }
            Err(_) => {
                self.free.push(token);
                finalize(shared, session, Verdict::Failed);
            }
        }
    }

    /// Takes the session at `token` out of the slab and finalizes it.
    fn remove(&mut self, shared: &Shared, token: usize, verdict: Verdict) {
        if let Some(session) = self.slots[token].take() {
            self.free.push(token);
            finalize(shared, session, verdict);
        }
    }
}

/// The reactor loop: blocks in `epoll_wait` until a socket is ready, then
/// accepts or steps exactly the ready sessions. Sessions whose read was
/// cut short by the fairness bound stay "hot" and are re-stepped with a
/// zero-timeout wait in between (the edge-trigger contract: an un-drained
/// socket fires no further events). Deadlines are enforced by a periodic
/// sweep every [`DEADLINE_TICK`], which also retries a listener whose
/// last drain an accept error cut short.
fn serve(shared: &Shared, mut sessions: Sessions, acceptor: &Acceptor) {
    let mut ready: Vec<usize> = Vec::new();
    let mut read_buf = vec![0u8; READ_BUF];
    let mut telemetry = PollTelemetry::default();
    let mut last_tick = Instant::now();
    let mut backlog = false;
    let tick_ms = DEADLINE_TICK.as_millis() as i32;
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Wait for readiness — not at all while hot sessions need
        // re-stepping, else until the next deadline tick.
        let timeout = if sessions.hot.is_empty() { tick_ms } else { 0 };
        let mut syscalls = 1u64;
        if sessions.poller.wait(timeout, &mut ready).is_err() {
            // epoll_wait failing is unrecoverable for this loop; fail
            // everything rather than spin.
            for token in 0..sessions.slots.len() {
                sessions.remove(shared, token, Verdict::Failed);
            }
            sessions.hot.clear();
            continue;
        }
        let woke = !ready.is_empty();
        for &token in sessions.poller.hung_up() {
            if let Some(session) = sessions.slots.get_mut(token).and_then(Option::as_mut) {
                session.hung_up = true;
            }
        }
        ready.append(&mut sessions.hot);
        ready.sort_unstable();
        ready.dedup();

        let mut accepted = 0;
        for &token in &ready {
            if token == LISTENER {
                let (count, drained) = shared.accept(acceptor, &mut sessions);
                (accepted, backlog) = (accepted + count, !drained);
                continue;
            }
            let Some(session) = sessions.slots.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            match step(shared, session, &mut read_buf, &mut syscalls) {
                Verdict::Keep => {}
                Verdict::Again => sessions.hot.push(token),
                verdict => sessions.remove(shared, token, verdict),
            }
        }

        // Deadline sweep: no event fires for a peer that simply went
        // quiet, so timeouts are enforced on a coarse periodic tick.
        if last_tick.elapsed() >= DEADLINE_TICK {
            last_tick = Instant::now();
            if backlog {
                let (count, drained) = shared.accept(acceptor, &mut sessions);
                (accepted, backlog) = (accepted + count, !drained);
            }
            for token in 0..sessions.slots.len() {
                let verdict = sessions.slots[token]
                    .as_ref()
                    .and_then(|session| deadline_verdict(shared, session));
                if let Some(verdict) = verdict {
                    sessions.remove(shared, token, verdict);
                }
            }
        }
        telemetry.add(shared, syscalls, woke);
        if accepted > 0 {
            telemetry.emit(shared);
        }
    }
    for token in 0..sessions.slots.len() {
        sessions.remove(shared, token, Verdict::Failed);
    }
    telemetry.emit(shared);
}

/// Accounts a removed session; dropping it closes the socket, which also
/// takes it out of the loop's epoll set.
fn finalize(shared: &Shared, mut session: Session, verdict: Verdict) {
    shared.open.fetch_sub(1, Ordering::Relaxed);
    // A responder that served sessions before going quiet already counted
    // them at completion; only a failure is accounted here.
    if matches!(verdict, Verdict::Failed) {
        shared.failed.fetch_add(1, Ordering::Relaxed);
        session.machine.abort();
    }
}

/// Applies idle/stall/backpressure deadlines to a kept session, on the
/// loop's periodic tick (no event fires for a peer that went quiet).
fn deadline_verdict(shared: &Shared, session: &Session) -> Option<Verdict> {
    let quiet = session.last_progress.elapsed();
    let (limit, verdict) = if session.machine.is_idle() && !session.stalled {
        (shared.config.idle_timeout, Verdict::Closed)
    } else {
        (shared.config.stall_timeout, Verdict::Failed)
    };
    (quiet > limit).then_some(verdict)
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
    if session.flush(syscalls).is_err() {
        return Verdict::Failed;
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
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                reads -= 1;
                continue;
            }
            Err(_) => return Verdict::Failed,
        }
    }

    // Feed complete frames to the machine, which appends its replies to
    // the outbox. A responder resets to idle after each session; the
    // connection stays registered for the next one.
    let fed = feed(
        &mut session.machine,
        &mut session.accum,
        shared.now_ms(),
        session.out.queue(),
    );
    match fed {
        Ok(completed) => {
            shared
                .completed
                .fetch_add(completed as u64, Ordering::Relaxed);
        }
        Err(_) => return Verdict::Failed,
    }

    // Flush again: frames the machine just queued would otherwise wait
    // for a writability edge that may never come (the socket is already
    // writable — edge-triggered epoll stays silent).
    if session.out.pending() > 0 && session.flush(syscalls).is_err() {
        return Verdict::Failed;
    }

    if saw_eof {
        // EOF with the responder parked idle and nothing queued is a
        // clean close; mid-session it is an error.
        if session.machine.is_idle() && session.out.pending() == 0 && session.accum.buffered() == 0
        {
            return Verdict::Closed;
        }
        return Verdict::Failed;
    }

    if drained {
        Verdict::Keep
    } else {
        Verdict::Again
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Takes at most `room` bytes per write, then would block once.
    struct Trickle {
        got: Vec<u8>,
        room: usize,
        blocked: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.blocked {
                self.blocked = false;
                return Err(ErrorKind::WouldBlock.into());
            }
            self.blocked = true;
            let n = buf.len().min(self.room);
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn outbox_keeps_byte_order_across_partial_writes_and_gives_back_a_big_buffer() {
        let mut out = OutBuf::default();
        let mut sink = Trickle {
            got: Vec::new(),
            room: 3,
            blocked: false,
        };
        let mut syscalls = 0;
        out.queue().extend_from_slice(b"abcdefgh");
        assert!(out.flush(&mut sink, &mut syscalls).unwrap());
        assert_eq!((sink.got.as_slice(), out.pending()), (&b"abc"[..], 5));
        // Appended after a partial write, behind what is still queued.
        out.queue().extend_from_slice(b"ij");
        assert_eq!(out.pending(), 7);
        while out.pending() > 0 {
            out.flush(&mut sink, &mut syscalls).unwrap();
        }
        assert_eq!(sink.got, b"abcdefghij");
        assert_eq!(
            syscalls, 7,
            "four writes, three of them cut short by WouldBlock"
        );
        assert!(
            !out.flush(&mut sink, &mut syscalls).unwrap(),
            "nothing queued"
        );

        // A drained outbox above the cap lets its buffer go; one at or
        // under the cap keeps it for the next batch.
        out.queue().resize(OUTBOX_KEEP + 1, 7);
        sink.room = usize::MAX;
        while out.pending() > 0 {
            out.flush(&mut sink, &mut syscalls).unwrap();
        }
        assert_eq!(out.buf.capacity(), 0);
        out.queue().resize(OUTBOX_KEEP / 2, 7);
        while out.pending() > 0 {
            out.flush(&mut sink, &mut syscalls).unwrap();
        }
        assert!(out.buf.capacity() >= OUTBOX_KEEP / 2);
        assert_eq!(sink.got.len(), 10 + OUTBOX_KEEP + 1 + OUTBOX_KEEP / 2);
    }
}
