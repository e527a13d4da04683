//! # obs — structured observability for the replication stack
//!
//! A dependency-light event layer the rest of the workspace reports into:
//!
//! * [`Event`] — one typed enum covering the whole stack, from store-level
//!   evictions up to transport sessions. Layers stay decoupled by using raw
//!   integer ids (replica ids, item ids) rather than the substrate's types.
//! * [`Observer`] / [`Obs`] — the consumer trait and the handle the
//!   instrumented code holds. An emission site names its [`EventKind`] and
//!   costs one mask test; event construction is inside a closure that runs
//!   only when the observer subscribed to that kind
//!   ([`Observer::interest`], everything by default).
//! * [`Registry`] — sharded counters and log-scale histograms aggregated
//!   from the event stream, with a CSV summary renderer.
//! * [`MemorySink`] / [`JsonlSink`] — a bounded in-memory ring buffer (for
//!   tests) and a line-delimited JSON stream writer (for offline
//!   analysis).
//! * [`Span`] — wall-clock timing that reports as a [`Event::SpanEnded`].
//!
//! ```
//! use obs::{Event, EventKind, MemorySink, Obs};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::unbounded());
//! let handle = Obs::new(sink.clone());
//! handle.emit(EventKind::ItemEvicted, || Event::ItemEvicted { replica: 1, origin: 2, seq: 3 });
//! assert_eq!(sink.len(), 1);
//!
//! let disabled = Obs::none();
//! disabled.emit(EventKind::ItemEvicted, || unreachable!("never constructed"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod observer;
mod registry;
mod sink;
mod span;

pub use event::{DecisionKind, DropReason, Event, EventKind};
pub use observer::{Fanout, Interest, Obs, Observer};
pub use registry::{Histogram, Registry, RegistrySnapshot};
pub use sink::{JsonlSink, MemorySink};
pub use span::Span;
