//! The reactor's readiness backend: edge-triggered `epoll(7)`.
//!
//! The reactor thread owns one epoll instance with the listener and every
//! session socket registered edge-triggered, and blocks in `epoll_wait`
//! until a socket is actually readable or writable or a connection waits
//! to be accepted: wakeup cost scales with *ready* sessions, and an idle
//! reactor sleeps until its next deadline tick.
//!
//! Consistent with the workspace's offline, in-tree-shim policy, the
//! binding is a minimal raw `extern "C"` FFI (`epoll_create1` /
//! `epoll_ctl` / `epoll_wait`) rather than an external crate.
//!
//! The reactor runs on Linux only. Elsewhere `EpollPoller::new` fails with
//! `ErrorKind::Unsupported`, so `NetNode::start` does too, and the
//! blocking `transport::Peer` is the node to run.

#[cfg(target_os = "linux")]
pub(crate) use linux::EpollPoller;
#[cfg(not(target_os = "linux"))]
pub(crate) use unsupported::EpollPoller;

#[cfg(target_os = "linux")]
mod linux {
    use std::io;
    use std::os::unix::io::{AsRawFd, RawFd};

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

    /// Events fetched per `epoll_wait` call.
    const WAIT_BATCH: usize = 256;

    /// One epoll instance: sockets registered edge-triggered under their
    /// token.
    pub(crate) struct EpollPoller {
        epfd: i32,
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
            Ok(EpollPoller {
                epfd,
                events: vec![sys::EpollEvent { events: 0, data: 0 }; WAIT_BATCH],
                hung_up: Vec::new(),
            })
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
        /// (the re-arm contract of edge triggering). Closing the socket
        /// takes it out of the set: the reactor never duplicates one.
        pub(crate) fn register(&self, socket: &impl AsRawFd, token: usize) -> io::Result<()> {
            self.ctl_add(
                socket.as_raw_fd(),
                token as u64,
                sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET,
            )
        }

        /// Blocks up to `timeout_ms` for readiness and replaces `ready`
        /// with the tokens of the ready sockets.
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

/// Off Linux there is no poller: [`EpollPoller::new`] fails, so the type
/// is never inhabited and its methods cannot run.
#[cfg(not(target_os = "linux"))]
mod unsupported {
    use std::io;

    pub(crate) enum EpollPoller {}

    impl EpollPoller {
        pub(crate) fn new() -> io::Result<EpollPoller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the net reactor needs Linux epoll; run transport::Peer on this platform",
            ))
        }

        pub(crate) fn register<S>(&self, _: &S, _: usize) -> io::Result<()> {
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

    #[test]
    fn epoll_poller_reports_exactly_the_ready_sockets() {
        let mut poller = EpollPoller::new().expect("epoll");
        let (a, b) = UnixStream::pair().expect("socketpair");
        let (c, _d) = UnixStream::pair().expect("socketpair");
        for socket in [&a, &b, &c] {
            socket.set_nonblocking(true).unwrap();
        }
        poller.register(&a, 7).expect("register");
        poller.register(&c, 9).expect("register");

        let mut ready = Vec::new();
        // Both sockets start writable: the first wait reports their
        // EPOLLOUT edges, and with nothing new a second wait reports none.
        poller.wait(0, &mut ready).expect("wait");
        ready.sort_unstable();
        assert_eq!(ready, vec![7, 9]);
        poller.wait(0, &mut ready).expect("wait");
        assert!(ready.is_empty(), "an edge reported twice: {ready:?}");

        // Bytes arriving on one socket wake a blocked wait with that
        // socket's token only.
        (&b).write_all(b"x").unwrap();
        poller.wait(1000, &mut ready).expect("wait");
        assert_eq!(ready, vec![7]);
        assert!(poller.hung_up().is_empty());

        // The peer hanging up is reported as ready and hung up.
        drop(b);
        poller.wait(1000, &mut ready).expect("wait");
        assert_eq!((ready.as_slice(), poller.hung_up()), (&[7][..], &[7][..]));

        // Closing a socket takes it out of the set.
        drop(a);
        poller.wait(0, &mut ready).expect("wait");
        assert!(ready.is_empty(), "a closed socket still firing");
    }
}
