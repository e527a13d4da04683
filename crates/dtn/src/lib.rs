//! # dtn — delay-tolerant messaging over filtered replication
//!
//! The primary contribution of the ICDCS 2011 paper "Peer-to-peer Data
//! Replication Meets Delay Tolerant Networking", re-implemented in Rust:
//!
//! * a **messaging application** ([`messaging`]) in which messages are
//!   replicated items and host filters express addressing (paper §IV);
//! * a **pluggable routing-policy interface** ([`DtnPolicy`], built on
//!   [`pfr::SyncExtension`]) mirroring the paper's `IDTNPolicy` (§V-B);
//! * the four representative DTN routing protocols of §V-C as policies:
//!   [`EpidemicPolicy`], [`SprayAndWaitPolicy`], [`ProphetPolicy`], and
//!   [`MaxPropPolicy`], plus the [`DirectDelivery`] baseline;
//! * a node bundle ([`DtnNode`]) tying a replica, a policy, and a set of
//!   addresses together. Its sync steps wrap [`pfr::exchange`]'s pull and
//!   serve halves with the node's policy, digest state and message
//!   expiry; a network session drives them one side at a time, and
//!   [`DtnNode::encounter`] drives both sides of a budgeted encounter in
//!   memory.
//!
//! The underlying replication guarantees — eventual filter consistency,
//! at-most-once delivery, compact knowledge — come from the [`pfr`] crate
//! and hold unchanged under every policy.
//!
//! ## Quick example
//!
//! ```
//! use dtn::{DtnNode, EncounterBudget, PolicyKind};
//! use pfr::{ReplicaId, SimTime};
//!
//! // Three buses; a message from "a" to "c" routed through "b".
//! let mut a = DtnNode::new(ReplicaId::new(1), "a", PolicyKind::Epidemic);
//! let mut b = DtnNode::new(ReplicaId::new(2), "b", PolicyKind::Epidemic);
//! let mut c = DtnNode::new(ReplicaId::new(3), "c", PolicyKind::Epidemic);
//!
//! a.send("c", b"multi-hop".to_vec(), SimTime::ZERO)?;
//! a.encounter(&mut b, SimTime::from_secs(60), EncounterBudget::unlimited());
//! b.encounter(&mut c, SimTime::from_secs(120), EncounterBudget::unlimited());
//! assert_eq!(c.inbox().len(), 1);
//! # Ok::<(), pfr::PfrError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adhoc;

mod acks;
mod codec;
mod direct;
mod durable;
mod epidemic;
mod host;
mod maxprop;
mod policy;
#[cfg(test)]
mod policy_reference;
mod prophet;
mod spray;
mod twohop;

pub mod messaging;

pub use direct::DirectDelivery;
pub use durable::RestoreError;
pub use epidemic::{EpidemicPolicy, ATTR_TTL};
pub use host::{DtnNode, EncounterBudget, EncounterReport, SnapshotScratch};
pub use maxprop::{MaxPropPolicy, ATTR_HOPLIST};
pub use messaging::{FilterStrategy, Message};
pub use policy::{DtnPolicy, PolicyKind, PolicySummary};
pub use prophet::{ProphetParams, ProphetPolicy};
pub use spray::{SprayAndWaitPolicy, ATTR_COPIES};
pub use twohop::TwoHopRelayPolicy;
