//! # testkit — deterministic fault injection for the sync protocol
//!
//! The production stack replicates over a framed session protocol
//! ([`transport::SessionMachine`]); this crate turns that stack into a
//! closed, seeded simulation so its failure behaviour can be scripted and
//! asserted:
//!
//! * [`SimNet`] — an in-memory link that runs the *real* session machines
//!   of one encounter on the caller's thread, through the real frame step
//!   [`transport::conn::feed`]. Each direction re-parses the byte stream
//!   into protocol frames and damages them per a [`FaultPlan`]: drop,
//!   duplicate, reorder, truncate, corrupt, cut.
//! * [`FaultPlan`] — a declarative, printable schedule of frame faults
//!   ("corrupt the responder's first batch", "cut the session after frame
//!   3", "drop 20% of frames by seeded coin-flip").
//! * [`SimRunner`] — drives a mesh of [`dtn::DtnNode`] hosts through
//!   scripted [`Step`]s (sends, faulty encounters, partitions, crashes
//!   and snapshot restores, and gossip: each host's production
//!   [`transport::Membership`] decides what is due and the runner dials
//!   it over [`SimNet`]) under virtual [`pfr::SimTime`], records every
//!   `obs` event into a replayable [`Trace`], and checks the protocol's
//!   invariants after every step: knowledge monotonicity and bounded
//!   relay stores from node state, the event-side ones through
//!   [`Invariants`], and filter consistency at quiescence.
//! * [`Invariants`] — the paper's §III guarantees as an [`obs::Observer`]:
//!   at most one `item_delivered` per (replica, item), none before the
//!   item's `message_injected`, and a spilled replica restored with the
//!   knowledge checksum it was parked with. `SimRunner` feeds it every
//!   event it drains; `emu` replays wear it through
//!   [`Invariants::attach`] (the emulator's suites and the root
//!   end-to-end tests all do), so one checker covers scripted, spilled,
//!   crash-diced, digest and city-scale runs alike.
//! * [`DiskFaultPlan`] — the same declarative design one layer down:
//!   scripted damage (torn WAL tails, bit flips, lost checkpoints,
//!   duplicated records) to a *durable* host's data directory while it
//!   is crashed, so the storage engine's recovery runs inside the same
//!   invariant harness (see [`SimRunner::add_durable_host`]).
//!
//! * [`OverTheWire`] — wraps a routing policy so that every request it
//!   generates reaches a co-located source as the bytes a socket would
//!   have carried, never as a lent struct: the equivalence harness for
//!   the two renderings of [`pfr::RoutingState`].
//!
//! Everything is a pure function of `(seed, script)`: the same inputs
//! produce byte-identical [`Trace::to_jsonl`] renderings, and every
//! invariant failure panics with that pair so a CI hit replays locally
//! with no extra state.
//!
//! ```
//! use dtn::PolicyKind;
//! use testkit::{Direction, FaultPlan, SimRunner};
//!
//! let mut sim = SimRunner::new(42);
//! let a = sim.add_host("a", PolicyKind::SprayAndWait);
//! let b = sim.add_host("b", PolicyKind::SprayAndWait);
//! sim.send(a, "b", b"survives corruption".to_vec());
//!
//! // The first meeting happens over a dirty link...
//! let dirty = FaultPlan::clean().corrupt_frame(Direction::BToA, 1, 13, 0x80);
//! let outcome = sim.encounter_with_faults(a, b, &dirty);
//! assert!(!outcome.is_clean()); // typed error, no panic, partial report
//!
//! // ...and the protocol still converges once the link behaves.
//! sim.assert_converged();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diskfault;
pub mod fault;
pub mod simnet;
pub mod trace;

mod invariants;
mod runner;
mod wire_policy;

pub use diskfault::{DiskDamage, DiskFault, DiskFaultPlan};
pub use fault::{Direction, FaultPlan, FaultRule, FaultScope, FrameFault, FrameSelector};
pub use invariants::Invariants;
pub use runner::{EncounterOutcome, SessionPair, SimRunner, SkipReason, Step};
pub use simnet::SimNet;
pub use trace::{Trace, TraceEntry};
pub use wire_policy::OverTheWire;
