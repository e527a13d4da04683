//! # transport — the sync session protocol and its blocking drivers
//!
//! The paper's emulation drives replicas directly; this crate closes the
//! loop to a deployable system. It holds the one implementation of the
//! session protocol and everything that does not need a reactor:
//!
//! * [`frame`] — length-prefixed, checksummed framing and the incremental
//!   [`frame::FrameAccum`] decoder every driver reads through (the wire
//!   format of the payloads is [`pfr::wire`]).
//! * [`session`] — [`SessionMachine`]: hello, pull, serve and the gossip
//!   exchange as a sans-I/O state machine, frames in and frames out, two
//!   syncs per encounter with roles alternating as in the paper.
//! * [`membership`] + [`gossip`] — the gossip view the machine answers
//!   `Gossip` frames from.
//! * [`conn`] — the [`Connection`] seam and [`pump`], the short blocking
//!   loop that runs a machine over one.
//! * [`dial`] — [`Dialer`], the one blocking initiator: it owns the pool
//!   of idle outbound connections (each remembering its last peer, so the
//!   next session opens with hello and request in one write), takes a
//!   pooled connection or dials one, and pumps the session on its
//!   caller's thread. [`Peer::sync_with`] and `net`'s
//!   `NetNode::sync_with` are both a call into it; a pooled connection
//!   that died in the pool costs one redial, a peer that goes quiet fails
//!   the session as [`SessionError::Stalled`].
//! * [`Peer`] — a TCP listener serving sessions on a thread per
//!   connection; the `net` crate serves the same machine from a
//!   nonblocking reactor instead, runs the anti-entropy loop, and drives
//!   the outbound sessions nobody blocks on.
//!
//! ```no_run
//! use dtn::{DtnNode, PolicyKind};
//! use pfr::{ReplicaId, SimTime};
//! use transport::Peer;
//!
//! let a = Peer::start(DtnNode::new(ReplicaId::new(1), "a", PolicyKind::MaxProp),
//!                     "127.0.0.1:0")?;
//! let b = Peer::start(DtnNode::new(ReplicaId::new(2), "b", PolicyKind::MaxProp),
//!                     "127.0.0.1:0")?;
//! a.with_node(|n| n.send("b", b"hello".to_vec(), SimTime::ZERO)).unwrap();
//! a.sync_with(b.local_addr(), SimTime::from_secs(1))?;
//! # Ok::<(), transport::TransportError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conn;
pub mod dial;
pub mod frame;
pub mod gossip;
pub mod membership;
pub mod session;

mod peer;

pub use conn::{pump, Connection};
pub use dial::{DialConfig, Dialed, Dialer, Outbound};
pub use gossip::{GossipMessage, PeerStatus, PeerWire};
pub use membership::{Membership, MembershipConfig, PeerView, TickReport};
pub use peer::{Peer, TransportError};
pub use session::{Progress, SessionError, SessionMachine, SessionOutcome, SessionReport};
