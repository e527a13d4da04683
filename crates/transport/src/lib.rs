//! # transport — the sync session protocol and its blocking drivers
//!
//! The paper's emulation drives replicas directly; this crate closes the
//! loop to a deployable system. It holds the one implementation of the
//! session protocol and everything that does not need a reactor:
//!
//! * [`frame`] — length-prefixed, checksummed framing and the incremental
//!   [`frame::FrameAccum`] decoder every driver reads through (payloads
//!   are [`pfr::wire`]).
//! * [`session`] — [`SessionMachine`]: hello, pull, serve and the gossip
//!   exchange as a sans-I/O state machine, frames in and frames out.
//! * [`membership`] + [`gossip`] — the view the machine answers `Gossip`
//!   frames from, and the clock-free owner of every control decision:
//!   which gossip exchanges and anti-entropy syncs are due, and what a
//!   failed dial means. [`run_dials`] is the one step `net` and
//!   `testkit` run a round through, each with its own way to dial.
//! * [`conn`] — [`pump`], the short blocking loop that runs a machine
//!   over a [`Connection`], and [`conn::feed`], the frame step every
//!   driver (the pump, `net`'s reactor, testkit's `SimNet`) shares.
//! * [`dial`] — [`Dialer`], the one outbound driver: it pools idle
//!   outbound connections (each remembering its last peer, so the next
//!   session opens with hello and request in one write) and pumps a sync
//!   or gossip exchange on its caller's thread. A pooled connection that
//!   died in the pool costs one redial; a peer that goes quiet fails the
//!   session as [`SessionError::Stalled`].
//! * [`Peer`] — a TCP listener serving sessions on a thread per
//!   connection, every request in full. `net` serves the same machine
//!   from a reactor and runs the control loop; both only serve, and dial
//!   through the dialer.
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
pub use dial::{DialConfig, Dialed, Dialer};
pub use gossip::{GossipMessage, PeerStatus, PeerWire};
pub use membership::{run_dials, Dial, GossipRoundStats, Membership, MembershipConfig, PeerView};
pub use peer::{sole_node, Peer, TransportError};
pub use session::{Progress, SessionError, SessionMachine, SessionOutcome, SessionReport};
