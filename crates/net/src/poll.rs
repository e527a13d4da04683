//! The reactor's readiness backend: edge-triggered `epoll(7)`.
//!
//! Every reactor worker (and the accept loop) owns an epoll instance with
//! its sockets registered edge-triggered, and blocks in `epoll_wait` until
//! a socket is actually readable or writable or new work arrives over a
//! socketpair waker: wakeup cost scales with *ready* sessions, and an idle
//! worker sleeps with no latency floor.
//!
//! Consistent with the workspace's offline, in-tree-shim policy, the
//! binding is a minimal raw `extern "C"` FFI (`epoll_create1` /
//! `epoll_ctl` / `epoll_wait`) rather than an external crate; the waker
//! is a nonblocking `UnixStream` socketpair so no further FFI is needed.
//!
//! The reactor runs on Linux only. Elsewhere `EpollPoller::new` fails with
//! `ErrorKind::Unsupported`, so `NetNode::start` does too, and the
//! blocking `transport::Peer` is the node to run.

#[cfg(target_os = "linux")]
pub(crate) use linux::{EpollPoller, PipeWaker};
#[cfg(not(target_os = "linux"))]
pub(crate) use unsupported::{EpollPoller, PipeWaker};

#[cfg(target_os = "linux")]
mod linux {
    use std::io::{self, Read, Write};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    /// The socketpair waker: `wake` writes one byte to the send half; the
    /// receive half is registered with the worker's epoll set and drained
    /// on wakeup. A full pipe means a wakeup is already pending, so a
    /// `WouldBlock` on write is success, not failure.
    pub(crate) struct PipeWaker {
        tx: UnixStream,
        rx: UnixStream,
    }

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
    }

    /// Raw epoll FFI: the only kernel interface the backend needs. The
    /// `epoll_event` layout is packed on x86 per the kernel ABI.
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
            pub fn epoll_wait(
                epfd: i32,
                events: *mut EpollEvent,
                maxevents: i32,
                timeout: i32,
            ) -> i32;
            pub fn close(fd: i32) -> i32;
        }
    }

    /// The token `wait` never returns: it marks the waker pipe's events.
    const WAKER_TOKEN: u64 = u64::MAX;

    /// Events fetched per `epoll_wait` call.
    const WAIT_BATCH: usize = 256;

    /// One epoll instance: sockets registered edge-triggered under their
    /// token, plus the waker pipe under [`WAKER_TOKEN`].
    pub(crate) struct EpollPoller {
        epfd: i32,
        waker: Arc<PipeWaker>,
        events: Vec<sys::EpollEvent>,
        hung_up: Vec<usize>,
    }

    impl EpollPoller {
        pub(crate) fn new() -> io::Result<EpollPoller> {
            // SAFETY: takes and returns plain integers; no memory is shared.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let waker = match PipeWaker::pair() {
                Ok(waker) => waker,
                Err(e) => {
                    // SAFETY: `epfd` is the descriptor just created, owned
                    // here and closed exactly once.
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
                poller.waker.rx.as_raw_fd(),
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
            // SAFETY: `event` is a live, correctly laid out `epoll_event`
            // the kernel only reads during the call.
            if unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut event) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Registers a socket edge-triggered for both directions. The
        /// caller must drive the socket to `WouldBlock` after every wakeup
        /// (the re-arm contract of edge triggering).
        pub(crate) fn register(&self, socket: &impl AsRawFd, token: usize) -> io::Result<()> {
            self.ctl_add(
                socket.as_raw_fd(),
                token as u64,
                sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET,
            )
        }

        /// Removes a socket from the interest list. Must run before the fd
        /// is handed to the connection pool: a pooled duplicate shares the
        /// file description, so closing the session's fd alone would NOT
        /// remove the registration and stale tokens would keep firing.
        pub(crate) fn deregister(&self, socket: &impl AsRawFd) {
            let mut event = sys::EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl_add`; `EPOLL_CTL_DEL` ignores the event.
            unsafe {
                sys::epoll_ctl(
                    self.epfd,
                    sys::EPOLL_CTL_DEL,
                    socket.as_raw_fd(),
                    &mut event,
                )
            };
        }

        /// Blocks up to `timeout_ms` for readiness and replaces `ready`
        /// with the tokens of the ready sockets (the waker token is
        /// consumed internally by draining the pipe).
        pub(crate) fn wait(&mut self, timeout_ms: i32, ready: &mut Vec<usize>) -> io::Result<()> {
            ready.clear();
            let n = loop {
                // SAFETY: the kernel writes at most `events.len()` entries
                // into the buffer, which lives for the whole call.
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

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            // SAFETY: `epfd` is owned by this poller and closed only here.
            unsafe { sys::close(self.epfd) };
        }
    }
}

/// Off Linux there is no poller: [`EpollPoller::new`] fails, so neither
/// type is ever inhabited and their methods cannot run.
#[cfg(not(target_os = "linux"))]
mod unsupported {
    use std::io;
    use std::sync::Arc;

    pub(crate) enum PipeWaker {}

    impl PipeWaker {
        pub(crate) fn wake(&self) {
            match *self {}
        }
    }

    pub(crate) enum EpollPoller {}

    impl EpollPoller {
        pub(crate) fn new() -> io::Result<EpollPoller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the net reactor needs Linux epoll; run transport::Peer on this platform",
            ))
        }

        pub(crate) fn waker(&self) -> Arc<PipeWaker> {
            match *self {}
        }

        pub(crate) fn register<S>(&self, _: &S, _: usize) -> io::Result<()> {
            match *self {}
        }

        pub(crate) fn deregister<S>(&self, _: &S) {
            match *self {}
        }

        pub(crate) fn wait(&mut self, _: i32, _: &mut Vec<usize>) -> io::Result<()> {
            match *self {}
        }

        pub(crate) fn hung_up(&self) -> &[usize] {
            match *self {}
        }
    }
}

#[cfg(test)]
#[cfg(target_os = "linux")]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    #[test]
    fn epoll_poller_sees_readable_sockets_and_waker() {
        let mut poller = EpollPoller::new().expect("epoll");
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(&a, 7).expect("register");

        let mut ready = Vec::new();
        // Nothing readable yet (the socket is writable, so the first wait
        // reports the EPOLLOUT edge; drain it).
        poller.wait(0, &mut ready).expect("wait");
        (&b).write_all(b"x").unwrap();
        poller.wait(1000, &mut ready).expect("wait");
        assert_eq!(ready, vec![7]);

        // The waker wakes a blocked wait without yielding a token.
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        poller.wait(5_000, &mut ready).expect("wait");
        assert!(ready.is_empty(), "waker must not surface as a session");
        handle.join().unwrap();

        poller.deregister(&a);
        (&b).write_all(b"y").unwrap();
        poller.wait(0, &mut ready).expect("wait");
        assert!(ready.is_empty(), "deregistered socket still firing");
    }
}
