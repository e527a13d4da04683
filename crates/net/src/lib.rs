//! Async high-fanout server for the sync session protocol.
//!
//! The protocol itself lives in [`transport`] — one sans-I/O
//! [`SessionMachine`], frames in and frames out — and so does the one
//! outbound driver: [`transport::Dialer`] pumps a session on the thread
//! of the caller that waits for it, over a pooled connection. This crate
//! is inbound only; callers dial. It multiplexes thousands of concurrent
//! inbound sessions of the same machine onto one reactor thread.
//!
//! * [`reactor`] — a readiness-loop reactor over nonblocking std TCP
//!   streams (no external async runtime): one thread blocks in an
//!   in-tree edge-triggered `epoll(7)` binding until the listener or a
//!   session socket is actually ready, accepts into the same epoll set,
//!   and drives per-session frame accumulators and one-buffer outboxes
//!   with backpressure and idle/stall timeouts.
//! * [`node`] — [`NetNode`]: the reactor thread plus one control thread.
//!   `sync_with` runs its session on the caller's thread through the
//!   dialer; the control thread runs the gossip and anti-entropy dials
//!   that [`Membership`] (re-exported from `transport`, clock-free, so
//!   `testkit` drives it under virtual time) says are due, the same way.
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

pub use node::{NetConfig, NetNode, NetStats, PollBackend};

pub use transport::{
    Dial, GossipMessage, GossipRoundStats, Membership, MembershipConfig, PeerStatus, PeerView,
    PeerWire, Progress, SessionError, SessionMachine, SessionOutcome,
};
