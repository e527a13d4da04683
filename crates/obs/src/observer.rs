//! The consumer trait, the subscription mask, and the cheap handle
//! instrumented code holds.

use crate::{Event, EventKind};
use std::fmt;
use std::sync::Arc;

/// A set of [`EventKind`]s: what an [`Observer`] subscribes to. An event
/// of a kind nobody subscribed to is never built (see [`Obs::emit`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Interest(u64);

impl Interest {
    /// No kind at all (what a disabled [`Obs`] wants).
    pub const NONE: Interest = Interest(0);
    /// Every kind, including any added later.
    pub const ALL: Interest = Interest(u64::MAX);

    /// Exactly the listed kinds.
    pub const fn of(kinds: &[EventKind]) -> Interest {
        let mut bits = 0;
        let mut i = 0;
        while i < kinds.len() {
            bits |= 1 << kinds[i] as u8;
            i += 1;
        }
        Interest(bits)
    }

    /// Whether `kind` is in the set.
    #[inline]
    pub const fn contains(self, kind: EventKind) -> bool {
        self.0 & (1 << kind as u8) != 0
    }

    /// The kinds in either set.
    pub const fn union(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }
}

/// A consumer of [`Event`]s.
///
/// Implementations must be cheap and non-blocking where possible: they are
/// called synchronously from hot paths (batch construction, store
/// eviction). They must also be thread-safe — the transport layer emits
/// from listener and anti-entropy threads concurrently.
pub trait Observer: Send + Sync {
    /// Called once per emitted event of a kind in [`Observer::interest`].
    fn on_event(&self, event: &Event);

    /// The kinds this observer reads; the default is everything. Must not
    /// change over the observer's life: [`Obs::new`] and [`Fanout::new`]
    /// read it once, and emission sites skip building events outside it.
    fn interest(&self) -> Interest {
        Interest::ALL
    }
}

/// The handle instrumented code holds. Cloning is one `Arc` clone; the
/// default ([`Obs::none`]) is disabled. Every emission site costs one
/// mask test, and builds its event only if the observer subscribed to
/// that kind.
#[derive(Clone, Default)]
pub struct Obs {
    observer: Option<Arc<dyn Observer>>,
    /// `observer`'s interest, read once; [`Interest::NONE`] without one.
    mask: Interest,
}

impl Obs {
    /// A disabled handle: [`Obs::emit`] never constructs the event.
    pub fn none() -> Self {
        Obs::default()
    }

    /// A handle that forwards to `observer` every event of a kind in its
    /// [`Observer::interest`].
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        Obs {
            mask: observer.interest(),
            observer: Some(observer),
        }
    }

    /// Whether an observer is attached.
    pub fn enabled(&self) -> bool {
        self.observer.is_some()
    }

    /// The kinds the attached observer subscribed to.
    pub fn interest(&self) -> Interest {
        self.mask
    }

    /// Whether an event of `kind` would be delivered — for sites whose
    /// event carries something costly to obtain before the closure runs
    /// (a clock reading taken when the timed region starts).
    #[inline]
    pub fn wants(&self, kind: EventKind) -> bool {
        self.mask.contains(kind)
    }

    /// Emits one event of `kind`. The closure runs only when the observer
    /// subscribed to that kind, so event construction (and any field
    /// computation) is free otherwise.
    #[inline]
    pub fn emit(&self, kind: EventKind, f: impl FnOnce() -> Event) {
        if !self.mask.contains(kind) {
            return;
        }
        if let Some(observer) = &self.observer {
            let event = f();
            debug_assert_eq!(event.event_kind(), kind, "site announced another kind");
            observer.on_event(&event);
        }
    }

    /// Forwards an already-constructed event by reference — for relays
    /// (buffers, fan-in sinks) that hold a `&Event` and would otherwise
    /// have to clone it just to satisfy [`Obs::emit`]'s closure. Masked
    /// like `emit`.
    #[inline]
    pub fn forward(&self, event: &Event) {
        if !self.mask.contains(event.event_kind()) {
            return;
        }
        if let Some(observer) = &self.observer {
            observer.on_event(event);
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Obs")
            .field(&if self.enabled() { "enabled" } else { "none" })
            .finish()
    }
}

/// Broadcasts each event to those of several observers that subscribed to
/// its kind, in order; its own interest is the union of theirs.
pub struct Fanout(Vec<Obs>);

impl Fanout {
    /// Builds a fanout over `observers`.
    pub fn new(observers: Vec<Arc<dyn Observer>>) -> Self {
        Fanout(observers.into_iter().map(Obs::new).collect())
    }
}

impl Observer for Fanout {
    fn on_event(&self, event: &Event) {
        for observer in &self.0 {
            observer.forward(event);
        }
    }

    fn interest(&self) -> Interest {
        self.0
            .iter()
            .fold(Interest::NONE, |all, o| all.union(o.interest()))
    }
}

impl fmt::Debug for Fanout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Fanout").field(&self.0.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySink;

    #[test]
    fn disabled_handle_skips_construction() {
        let handle = Obs::none();
        assert!(!handle.enabled());
        handle.emit(EventKind::ItemEvicted, || {
            unreachable!("closure must not run")
        });
    }

    /// Subscribes to a fixed set of kinds and records what arrives.
    struct Picky(Interest, MemorySink);

    impl Observer for Picky {
        fn on_event(&self, event: &Event) {
            self.1.on_event(event);
        }

        fn interest(&self) -> Interest {
            self.0
        }
    }

    fn evicted() -> Event {
        Event::ItemEvicted {
            replica: 1,
            origin: 2,
            seq: 3,
        }
    }

    #[test]
    fn unsubscribed_kind_skips_construction() {
        let picky = Arc::new(Picky(
            Interest::of(&[EventKind::ItemEvicted]),
            MemorySink::unbounded(),
        ));
        let handle = Obs::new(picky.clone());
        assert!(handle.wants(EventKind::ItemEvicted));
        assert!(!handle.wants(EventKind::SpanEnded));
        handle.emit(EventKind::SpanEnded, || {
            unreachable!("nobody subscribed to span_ended")
        });
        handle.emit(EventKind::ItemEvicted, evicted);
        handle.forward(&Event::SweepStarted {
            jobs: 1,
            workers: 1,
        });
        assert_eq!(picky.1.events(), vec![evicted()]);
    }

    #[test]
    fn fanout_subscribes_to_the_union_and_filters_per_observer() {
        let three = [
            EventKind::MessageInjected,
            EventKind::MessageDelivered,
            EventKind::EncounterCompleted,
        ];
        let five = [
            EventKind::MessageInjected,
            EventKind::ItemDelivered,
            EventKind::ItemRelayed,
            EventKind::MessageDropped,
            EventKind::ItemEvicted,
        ];
        let a = Arc::new(Picky(Interest::of(&three), MemorySink::unbounded()));
        let b = Arc::new(Picky(Interest::of(&five), MemorySink::unbounded()));
        let fanout = Fanout::new(vec![
            a.clone() as Arc<dyn Observer>,
            b.clone() as Arc<dyn Observer>,
        ]);
        assert_eq!(
            fanout.interest(),
            Interest::of(&three).union(Interest::of(&five))
        );
        let wanted = EventKind::ALL
            .iter()
            .filter(|&&k| fanout.interest().contains(k))
            .count();
        assert_eq!(wanted, 7, "one kind is shared");
        let handle = Obs::new(Arc::new(fanout));
        handle.emit(EventKind::ItemEvicted, evicted);
        handle.emit(EventKind::SpanEnded, || unreachable!("outside the union"));
        assert_eq!(a.1.len(), 0, "the three-kind observer did not ask for it");
        assert_eq!(b.1.events(), vec![evicted()]);
    }

    #[test]
    fn fanout_reaches_every_observer() {
        let a = Arc::new(MemorySink::unbounded());
        let b = Arc::new(MemorySink::unbounded());
        let handle = Obs::new(Arc::new(Fanout::new(vec![
            a.clone() as Arc<dyn Observer>,
            b.clone() as Arc<dyn Observer>,
        ])));
        assert!(handle.enabled());
        handle.emit(EventKind::ItemEvicted, evicted);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }
}
