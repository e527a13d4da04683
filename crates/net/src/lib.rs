//! Async high-fanout driver for the sync session protocol.
//!
//! The protocol itself lives in [`transport`] — one sans-I/O
//! [`SessionMachine`], frames in and frames out — and so does its
//! blocking driver: [`transport::Dialer`] pumps a session on the thread
//! of the caller that waits for it, over a pooled connection. This crate
//! is the other driver: it multiplexes thousands of concurrent sessions
//! of the same machine — every inbound one, and the outbound ones nobody
//! blocks on — onto a small worker pool.
//!
//! * [`reactor`] — a readiness-loop reactor over nonblocking std TCP
//!   streams (no external async runtime): each worker blocks in an
//!   in-tree edge-triggered `epoll(7)` binding until its sockets are
//!   actually ready, and drives per-session frame accumulators and
//!   vectored-write outboxes with backpressure and idle/stall timeouts.
//!   Outbound connections come from and go back to the dialer's pool.
//! * [`node`] — [`NetNode`]: listener, reactor, dialer (`sync_with`
//!   blocks and runs on its caller's thread, `sync_detached` hands the
//!   session to a worker) and the gossip loop that
//!   runs peer-exchange rounds against [`Membership`] (the view and its
//!   wire types are re-exported from `transport`, where the machine
//!   answers `Gossip` frames from them).
//!
//! The reactor runs on Linux only: elsewhere [`NetNode::start`] fails
//! with [`std::io::ErrorKind::Unsupported`], and the blocking
//! [`transport::Peer`] — a thread per connection over the same machine —
//! is the node to run.

#![warn(missing_docs)]

pub(crate) mod listen;
pub mod node;
pub(crate) mod poll;
pub mod reactor;

pub use node::{GossipRoundStats, NetConfig, NetNode, NetStats, PollBackend};
pub use reactor::SessionTicket;

pub use transport::{
    GossipMessage, Membership, MembershipConfig, PeerStatus, PeerView, PeerWire, Progress,
    SessionError, SessionMachine, SessionOutcome, TickReport,
};
