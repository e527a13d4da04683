//! Listener construction with a deep accept backlog.
//!
//! `std::net::TcpListener::bind` hardcodes a listen backlog of 128. A
//! high-fanout dial burst overflows that in the window between two
//! passes of the accepting reactor, and every dropped SYN costs the
//! dialer a full one-second retransmit timer — three orders of
//! magnitude above any session's actual service time. On Linux the
//! socket is therefore built through the same minimal in-tree FFI
//! pattern as the epoll backend, with a backlog of [`ACCEPT_BACKLOG`] (the
//! kernel clamps it to `net.core.somaxconn`); IPv6 binds and other
//! platforms fall back to the std path unchanged.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};

/// The listen backlog requested for the accept socket: deep enough that a
/// high-fanout dial burst never overflows into SYN retransmits.
const ACCEPT_BACKLOG: i32 = 1024;

/// Binds `bind` with an [`ACCEPT_BACKLOG`]-deep accept queue where the
/// platform allows, falling back to `TcpListener::bind` (backlog 128)
/// otherwise.
pub(crate) fn bind_listener(bind: &str) -> io::Result<TcpListener> {
    let addr = resolve(bind)?;
    #[cfg(target_os = "linux")]
    if let SocketAddr::V4(v4) = addr {
        if let Ok(listener) = linux::bind_v4(v4, ACCEPT_BACKLOG) {
            return Ok(listener);
        }
    }
    TcpListener::bind(addr)
}

fn resolve(bind: &str) -> io::Result<SocketAddr> {
    bind.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "bind address resolved to nothing",
        )
    })
}

#[cfg(target_os = "linux")]
mod linux {
    use std::io;
    use std::net::{SocketAddrV4, TcpListener};
    use std::os::unix::io::FromRawFd;

    /// `struct sockaddr_in`: port and address in network byte order.
    #[repr(C)]
    struct SockAddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Closes the fd unless ownership was handed to a `TcpListener`.
    struct FdGuard(i32);

    impl Drop for FdGuard {
        fn drop(&mut self) {
            unsafe { close(self.0) };
        }
    }

    pub(super) fn bind_v4(addr: SocketAddrV4, backlog: i32) -> io::Result<TcpListener> {
        let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let guard = FdGuard(fd);
        let one: i32 = 1;
        if unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let sockaddr = SockAddrIn {
            sin_family: AF_INET as u16,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from(*addr.ip()).to_be(),
            sin_zero: [0; 8],
        };
        let len = std::mem::size_of::<SockAddrIn>() as u32;
        if unsafe { bind(fd, &sockaddr, len) } < 0 {
            return Err(io::Error::last_os_error());
        }
        if unsafe { listen(fd, backlog) } < 0 {
            return Err(io::Error::last_os_error());
        }
        std::mem::forget(guard);
        Ok(unsafe { TcpListener::from_raw_fd(fd) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn deep_backlog_listener_accepts_connections() {
        let listener = bind_listener("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(b"ping").expect("write");
        let (mut accepted, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
    }
}
