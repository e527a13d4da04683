//! # pfr — peer-to-peer filtered replication
//!
//! A from-scratch implementation of a Cimbiosys-style peer-to-peer
//! *filtered* replication substrate, the foundation of the ICDCS 2011 paper
//! "Peer-to-peer Data Replication Meets Delay Tolerant Networking".
//!
//! The substrate provides:
//!
//! * **Versioned items** ([`Item`]) with content attributes and payloads.
//! * **Content-based filters** ([`Filter`]) — each replica stores and
//!   receives only items matching its filter (*partial replication*).
//! * **Compact knowledge** ([`Knowledge`]) — a version vector plus
//!   exceptions recording exactly which versions a replica has learned,
//!   providing *at-most-once delivery* without per-message summary vectors.
//! * **Pairwise synchronization** ([`sync`]) — topology-independent,
//!   disconnection-tolerant exchange of unknown versions, with an
//!   extension point ([`SyncExtension`]) through which DTN routing
//!   policies inject out-of-filter forwarding (paper §V). [`exchange`]
//!   splits one sync into the target's pull and the source's serve, in
//!   full or digest ([`digest`]) mode, for drivers that carry the
//!   messages in memory or on a wire.
//!
//! Given a connected synchronization topology, every item eventually
//! reaches every replica whose filter selects it (*eventual filter
//! consistency*), and no replica ever accepts the same version twice
//! (*at-most-once delivery*). Both properties are enforced by tests and
//! property tests in this crate.
//!
//! ## Quick example
//!
//! ```
//! use pfr::{sync, Filter, Replica, ReplicaId, SimTime};
//!
//! // Two replicas: `a` writes, `b` subscribes to items addressed to "b".
//! let mut a = Replica::new(ReplicaId::new(1), Filter::address("dest", "a"));
//! let mut b = Replica::new(ReplicaId::new(2), Filter::address("dest", "b"));
//!
//! let mut attrs = pfr::AttributeMap::new();
//! attrs.set("dest", "b");
//! a.insert(attrs, b"hi".to_vec())?;
//!
//! // One pairwise sync delivers the item: b is the target, a the source.
//! let report = sync::sync_once(&mut a, &mut b, SimTime::ZERO);
//! assert_eq!(report.delivered, 1);
//! assert_eq!(b.iter_items().count(), 1);
//! # Ok::<(), pfr::PfrError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attrs;
mod error;
mod filter;
mod id;
mod intern;
mod item;
mod journal;
mod knowledge;
mod ordered;
mod park;
mod payload;
mod replica;
mod snapshot;
mod store;
mod time;
mod value;

pub mod digest;
pub mod exchange;
pub mod hash;
pub mod sync;
pub mod wire;

pub use attrs::AttributeMap;
pub use digest::{DigestPolicy, DigestRequest, KnowledgeSummary, ReconState, SyncMode};
pub use error::PfrError;
pub use filter::{CmpOp, Filter};
pub use id::{ItemId, ReplicaId, Version};
pub use intern::IStr;
pub use item::{CausalRelation, Item, ItemBuilder};
pub use journal::KnowledgeTotals;
pub use knowledge::Knowledge;
pub use payload::Payload;
pub use replica::{ApplyOutcome, Replica, ReplicaStats};
pub use snapshot::{decode_item_record, ItemRecord, ReplicaParts};
pub use store::StoreKind;
pub use sync::{
    ParkKey, ParkKeys, Priority, PriorityClass, RoutingPayload, RoutingState, SendDecision,
    SyncExtension, SyncLimits,
};
pub use time::{SimDuration, SimTime};
pub use value::Value;

// Re-exported so downstream crates can reach the observability layer
// through their existing `pfr` dependency.
pub use obs;
