//! Readiness backends for the reactor: epoll or exhaustive sweep.
//!
//! The sweep backend (the original reactor loop) discovers readiness by
//! issuing a nonblocking syscall per live session per pass — O(sessions)
//! syscall cost and a fixed park interval as the idle-latency floor. The
//! epoll backend registers every session socket (edge-triggered) with an
//! `epoll(7)` instance per worker, so a worker blocks in `epoll_wait`
//! until a socket is actually readable/writable or new work arrives over
//! a socketpair waker — O(ready) wakeup cost and no park floor.
//!
//! Consistent with the workspace's offline, in-tree-shim policy, the
//! epoll binding is a minimal raw `extern "C"` FFI (`epoll_create1` /
//! `epoll_ctl` / `epoll_wait`) rather than an external crate; the waker
//! is a nonblocking `UnixStream` socketpair so no further FFI is needed.
//! On non-Linux platforms [`PollBackend::Epoll`] resolves to the sweep.

use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
use std::io::{self, Read, Write};
#[cfg(target_os = "linux")]
use std::os::unix::io::RawFd;
#[cfg(target_os = "linux")]
use std::os::unix::net::UnixStream;

/// How reactor workers discover ready session sockets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollBackend {
    /// Block in `epoll_wait(2)` until a registered socket is readable or
    /// writable (edge-triggered) or a waker fires: syscall cost scales
    /// with *ready* sessions, and idle workers sleep with no latency
    /// floor. Linux only; resolves to [`PollBackend::Sweep`] elsewhere.
    Epoll,
    /// Readiness by exhaustive sweep: every pass issues a nonblocking
    /// read/write per live session. Simple and portable, but syscall
    /// cost scales with *live* sessions. Kept as the A/B fallback.
    Sweep,
}

impl PollBackend {
    /// The platform default: epoll on Linux, sweep elsewhere.
    pub fn platform_default() -> PollBackend {
        if cfg!(target_os = "linux") {
            PollBackend::Epoll
        } else {
            PollBackend::Sweep
        }
    }

    /// Parses a backend name as spelled on the CLI (`epoll` / `sweep`).
    pub fn parse(name: &str) -> Option<PollBackend> {
        match name {
            "epoll" => Some(PollBackend::Epoll),
            "sweep" => Some(PollBackend::Sweep),
            _ => None,
        }
    }

    /// The backend selected by the `REPLIDTN_POLL_BACKEND` environment
    /// variable when set (CI sweeps both), else the platform default.
    pub fn from_env() -> PollBackend {
        std::env::var("REPLIDTN_POLL_BACKEND")
            .ok()
            .and_then(|v| PollBackend::parse(&v))
            .unwrap_or_else(PollBackend::platform_default)
    }

    /// Stable label for stats, events, and benchmark artifacts.
    pub fn name(self) -> &'static str {
        match self {
            PollBackend::Epoll => "epoll",
            PollBackend::Sweep => "sweep",
        }
    }

    /// What this backend resolves to on this platform (epoll falls back
    /// to the sweep off Linux).
    pub(crate) fn resolved(self) -> PollBackend {
        #[cfg(not(target_os = "linux"))]
        {
            return PollBackend::Sweep;
        }
        #[cfg(target_os = "linux")]
        self
    }
}

/// Wakes a parked reactor worker from any thread: a condvar for sweep
/// workers, a socketpair write (registered with the worker's epoll set)
/// for epoll workers.
#[derive(Clone)]
pub(crate) enum Waker {
    Cond(Arc<CondWaker>),
    #[cfg(target_os = "linux")]
    Pipe(Arc<PipeWaker>),
}

impl Waker {
    pub(crate) fn wake(&self) {
        match self {
            Waker::Cond(w) => w.wake(),
            #[cfg(target_os = "linux")]
            Waker::Pipe(w) => w.wake(),
        }
    }
}

/// Condvar-based parking for sweep workers: `park` blocks until `wake`
/// (or the timeout) instead of the old fixed `IDLE_PARK` sleep, so a
/// session enqueued onto an idle worker is picked up immediately.
///
/// std primitives: the workspace `parking_lot` shim has no Condvar.
pub(crate) struct CondWaker {
    flag: std::sync::Mutex<bool>,
    cond: std::sync::Condvar,
}

impl CondWaker {
    pub(crate) fn new() -> Arc<CondWaker> {
        Arc::new(CondWaker {
            flag: std::sync::Mutex::new(false),
            cond: std::sync::Condvar::new(),
        })
    }

    pub(crate) fn wake(&self) {
        let mut flag = self.flag.lock().expect("waker lock");
        if !*flag {
            *flag = true;
            self.cond.notify_one();
        }
    }

    /// Parks until woken — or until `timeout`, when the worker still has
    /// live sessions to sweep. The wake flag is consumed, and a wake that
    /// lands before the park returns immediately (no lost wakeups).
    pub(crate) fn park(&self, timeout: Option<Duration>) {
        let mut flag = self.flag.lock().expect("waker lock");
        match timeout {
            None => {
                while !*flag {
                    flag = self.cond.wait(flag).expect("waker lock");
                }
            }
            Some(timeout) => {
                let deadline = Instant::now() + timeout;
                while !*flag {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let (guard, _) = self.cond.wait_timeout(flag, left).expect("waker lock");
                    flag = guard;
                }
            }
        }
        *flag = false;
    }
}

/// The socketpair waker for epoll workers: `wake` writes one byte to the
/// send half; the receive half is registered with the worker's epoll set
/// and drained on wakeup. A full pipe means a wakeup is already pending,
/// so a `WouldBlock` on write is success, not failure.
#[cfg(target_os = "linux")]
pub(crate) struct PipeWaker {
    tx: UnixStream,
    rx: UnixStream,
}

#[cfg(target_os = "linux")]
impl PipeWaker {
    fn pair() -> io::Result<Arc<PipeWaker>> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Arc::new(PipeWaker { tx, rx }))
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    fn drain(&self) {
        // A short read has emptied the pipe; only a full buffer needs
        // another look.
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }

    fn raw_fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }
}

/// Raw epoll FFI: the only kernel interface the backend needs. The
/// `epoll_event` layout is packed on x86 per the kernel ABI.
#[cfg(target_os = "linux")]
mod sys {
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// The token `wait` never returns: it marks the waker pipe's events.
#[cfg(target_os = "linux")]
const WAKER_TOKEN: u64 = u64::MAX;

/// Events fetched per `epoll_wait` call.
#[cfg(target_os = "linux")]
const WAIT_BATCH: usize = 256;

/// One worker's epoll instance: session sockets registered edge-triggered
/// under their slab token, plus the waker pipe under [`WAKER_TOKEN`].
#[cfg(target_os = "linux")]
pub(crate) struct EpollPoller {
    epfd: i32,
    waker: Arc<PipeWaker>,
    events: Vec<sys::EpollEvent>,
    hung_up: Vec<usize>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    pub(crate) fn new() -> io::Result<EpollPoller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let waker = match PipeWaker::pair() {
            Ok(waker) => waker,
            Err(e) => {
                unsafe { sys::close(epfd) };
                return Err(e);
            }
        };
        let poller = EpollPoller {
            epfd,
            waker,
            events: vec![sys::EpollEvent { events: 0, data: 0 }; WAIT_BATCH],
            hung_up: Vec::new(),
        };
        // The waker only ever becomes readable; edge-triggered is fine
        // because `drain` empties the pipe on every wakeup.
        poller.ctl_add(
            poller.waker.raw_fd(),
            WAKER_TOKEN,
            sys::EPOLLIN | sys::EPOLLET,
        )?;
        Ok(poller)
    }

    pub(crate) fn waker(&self) -> Arc<PipeWaker> {
        Arc::clone(&self.waker)
    }

    fn ctl_add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut event = sys::EpollEvent {
            events,
            data: token,
        };
        if unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut event) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers a session socket edge-triggered for both directions.
    /// The caller must drive the socket to `WouldBlock` after every
    /// wakeup (the re-arm contract of edge triggering).
    pub(crate) fn register(&self, fd: RawFd, token: usize) -> io::Result<()> {
        self.ctl_add(
            fd,
            token as u64,
            sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET,
        )
    }

    /// Removes a socket from the interest list. Must run before the fd is
    /// handed to the connection pool: a pooled duplicate shares the file
    /// description, so closing the session's fd alone would NOT remove
    /// the registration and stale tokens would keep firing.
    pub(crate) fn deregister(&self, fd: RawFd) {
        let mut event = sys::EpollEvent { events: 0, data: 0 };
        unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut event) };
    }

    /// Blocks up to `timeout_ms` for readiness; pushes each ready
    /// session's token into `ready` (the waker token is consumed
    /// internally by draining the pipe).
    pub(crate) fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<usize>) -> io::Result<()> {
        let n = loop {
            let n = unsafe {
                sys::epoll_wait(
                    self.epfd,
                    self.events.as_mut_ptr(),
                    self.events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        self.hung_up.clear();
        for event in &self.events[..n] {
            let token = event.data;
            if token == WAKER_TOKEN {
                self.waker.drain();
                continue;
            }
            ready.push(token as usize);
            if event.events & (sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                self.hung_up.push(token as usize);
            }
        }
        Ok(())
    }

    /// The tokens among the last `wait`'s whose event said the peer
    /// closed or reset its end.
    pub(crate) fn hung_up(&self) -> &[usize] {
        &self.hung_up
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parsing_and_labels() {
        assert_eq!(PollBackend::parse("epoll"), Some(PollBackend::Epoll));
        assert_eq!(PollBackend::parse("sweep"), Some(PollBackend::Sweep));
        assert_eq!(PollBackend::parse("kqueue"), None);
        assert_eq!(PollBackend::Epoll.name(), "epoll");
        assert_eq!(PollBackend::Sweep.name(), "sweep");
        // The resolved backend is always runnable on this platform.
        let resolved = PollBackend::Epoll.resolved();
        if cfg!(target_os = "linux") {
            assert_eq!(resolved, PollBackend::Epoll);
        } else {
            assert_eq!(resolved, PollBackend::Sweep);
        }
    }

    #[test]
    fn cond_waker_wakes_before_and_after_park() {
        let waker = CondWaker::new();
        // Wake before park: the flag persists, park returns immediately.
        waker.wake();
        let start = Instant::now();
        waker.park(Some(Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_secs(1));
        // Wake from another thread while parked.
        let w2 = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.wake();
        });
        let start = Instant::now();
        waker.park(None);
        assert!(start.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_poller_sees_readable_sockets_and_waker() {
        use std::os::unix::io::AsRawFd;
        let mut poller = EpollPoller::new().expect("epoll");
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(a.as_raw_fd(), 7).expect("register");

        let mut ready = Vec::new();
        // Nothing readable yet (the socket is writable, so the first wait
        // reports the EPOLLOUT edge; drain it).
        poller.wait(0, &mut ready).expect("wait");
        ready.clear();
        (&b).write_all(b"x").unwrap();
        poller.wait(1000, &mut ready).expect("wait");
        assert_eq!(ready, vec![7]);

        // The waker wakes a blocked wait without yielding a token.
        ready.clear();
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        poller.wait(5_000, &mut ready).expect("wait");
        assert!(ready.is_empty(), "waker must not surface as a session");
        handle.join().unwrap();

        poller.deregister(a.as_raw_fd());
        (&b).write_all(b"y").unwrap();
        ready.clear();
        poller.wait(0, &mut ready).expect("wait");
        assert!(ready.is_empty(), "deregistered socket still firing");
    }
}
