//! The paper's §III guarantees, checked from the event stream.
//!
//! [`Invariants`] is an [`Observer`]: whatever drives replicas — the
//! scripted [`SimRunner`](crate::SimRunner), or an `emu` replay spilled,
//! crash-diced or at city scale — can wear it, and the caller asserts
//! what it recorded. It reads three event kinds and checks:
//!
//! * **At-most-once delivery** — no `(replica, item)` pair sees a second
//!   `item_delivered`. [`Invariants::forget`] clears one replica's
//!   history: after a rollback, re-delivery is the correct behaviour.
//! * **No delivery before injection** — an `item_delivered` names an item
//!   whose `message_injected` came earlier.
//! * **Spilling keeps knowledge** — a `replica_spill` unspill carries the
//!   same `knowledge_checksum` as the spill that parked the replica. The
//!   spill side reads the totals the replica kept incrementally, the
//!   unspill side the ones its restore recomputed, so equal values also
//!   vouch for the incremental bookkeeping.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use obs::{Event, EventKind, Fanout, Interest, Observer};
use parking_lot::Mutex;

/// Violation messages kept verbatim; later ones are only counted, so a
/// defect firing on every delivery of a city-scale replay stays small.
const KEPT: usize = 16;

#[derive(Default)]
struct State {
    /// `(origin, seq)` of every injected message.
    injected: HashSet<(u64, u64)>,
    /// Per receiving replica, the `(origin, seq)` delivered to it.
    delivered: HashMap<u64, HashSet<(u64, u64)>>,
    /// Knowledge checksum of each replica parked on disk.
    spilled: HashMap<u64, u64>,
    violations: Vec<String>,
    count: usize,
}

impl State {
    fn violate(&mut self, message: String) {
        self.count += 1;
        if self.violations.len() < KEPT {
            self.violations.push(message);
        }
    }
}

/// The §III event checker. See the module docs for what it checks.
///
/// # Examples
///
/// ```
/// use obs::{Event, Observer};
/// use testkit::Invariants;
///
/// let check = Invariants::new();
/// let delivered = Event::ItemDelivered { replica: 2, source: 1, origin: 1, seq: 1, at_secs: 5 };
/// check.on_event(&delivered);
/// assert_eq!(check.violations().len(), 1); // delivered, never injected
/// ```
#[derive(Default)]
pub struct Invariants {
    state: Mutex<State>,
}

impl Invariants {
    /// The kinds the checker reads.
    const INTEREST: Interest = Interest::of(&[
        EventKind::MessageInjected,
        EventKind::ItemDelivered,
        EventKind::ReplicaSpill,
    ]);

    /// A checker that has seen nothing.
    pub fn new() -> Invariants {
        Invariants::default()
    }

    /// Puts a fresh checker into a run's observer slot, beside whatever
    /// observer is already there (through [`Fanout`]), and returns it.
    /// One checker watches one run: replica and item ids repeat across
    /// runs.
    pub fn attach(slot: &mut Option<Arc<dyn Observer>>) -> Arc<Invariants> {
        let check = Arc::new(Invariants::new());
        let mine: Arc<dyn Observer> = check.clone();
        *slot = Some(match slot.take() {
            Some(other) => Arc::new(Fanout::new(vec![other, mine])),
            None => mine,
        });
        check
    }

    /// Clears `replica`'s delivery history: it was rolled back, so what
    /// it receives again is new to it.
    pub fn forget(&self, replica: u64) {
        self.state.lock().delivered.remove(&replica);
    }

    /// The first violations seen, in event order (empty when every
    /// invariant held).
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().violations.clone()
    }

    /// Panics with the violation count and the first violations, if any.
    pub fn assert_clean(&self) {
        let state = self.state.lock();
        assert!(
            state.count == 0,
            "{} §III violation(s), first {}:\n{}",
            state.count,
            state.violations.len(),
            state.violations.join("\n")
        );
    }
}

impl Observer for Invariants {
    fn on_event(&self, event: &Event) {
        let mut state = self.state.lock();
        match *event {
            Event::MessageInjected { origin, seq, .. } => {
                state.injected.insert((origin, seq));
            }
            Event::ItemDelivered {
                replica,
                origin,
                seq,
                ..
            } => {
                if !state.injected.contains(&(origin, seq)) {
                    state.violate(format!(
                        "delivery before injection: item {origin}#{seq} reached replica \
                         {replica} before it was injected"
                    ));
                }
                if !state
                    .delivered
                    .entry(replica)
                    .or_default()
                    .insert((origin, seq))
                {
                    state.violate(format!(
                        "at-most-once violated: item {origin}#{seq} delivered twice to \
                         replica {replica}"
                    ));
                }
            }
            Event::ReplicaSpill {
                replica,
                unspill,
                knowledge_checksum,
                ..
            } => {
                if !unspill {
                    state.spilled.insert(replica, knowledge_checksum);
                } else {
                    match state.spilled.remove(&replica) {
                        Some(saved) if saved == knowledge_checksum => {}
                        Some(saved) => state.violate(format!(
                            "spill changed knowledge: replica {replica} parked with checksum \
                             {saved:#x}, restored with {knowledge_checksum:#x}"
                        )),
                        None => state.violate(format!(
                            "replica {replica} restored from the spill file without a spill"
                        )),
                    }
                }
            }
            _ => {}
        }
    }

    fn interest(&self) -> Interest {
        Invariants::INTEREST
    }
}

impl fmt::Debug for Invariants {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Invariants")
            .field("injected", &state.injected.len())
            .field("spilled", &state.spilled.len())
            .field("violations", &state.count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injected(origin: u64, seq: u64) -> Event {
        Event::MessageInjected {
            replica: origin,
            origin,
            seq,
            src: "a".into(),
            dst: "b".into(),
            at_secs: 0,
        }
    }

    fn delivered(replica: u64, origin: u64, seq: u64) -> Event {
        Event::ItemDelivered {
            replica,
            source: origin,
            origin,
            seq,
            at_secs: 1,
        }
    }

    fn spill(replica: u64, unspill: bool, knowledge_checksum: u64) -> Event {
        Event::ReplicaSpill {
            replica,
            bytes: 64,
            resident: 1,
            unspill,
            latency_us: 0,
            file_bytes: 64,
            knowledge_checksum,
        }
    }

    fn run(events: &[Event]) -> Invariants {
        let check = Invariants::new();
        for event in events {
            check.on_event(event);
        }
        check
    }

    #[test]
    fn a_clean_stream_has_no_violation() {
        let check = run(&[
            injected(1, 1),
            delivered(2, 1, 1),
            delivered(3, 1, 1),
            spill(2, false, 7),
            spill(2, true, 7),
        ]);
        assert!(check.violations().is_empty());
        check.assert_clean();
    }

    #[test]
    fn a_doubled_delivery_is_a_violation() {
        let check = run(&[injected(1, 1), delivered(2, 1, 1), delivered(2, 1, 1)]);
        let violations = check.violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("at-most-once"), "{violations:?}");
    }

    #[test]
    fn a_delivery_before_its_injection_is_a_violation() {
        let check = run(&[delivered(2, 1, 1), injected(1, 1)]);
        let violations = check.violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("before injection"), "{violations:?}");
    }

    #[test]
    fn a_spill_restored_with_other_knowledge_is_a_violation() {
        let check = run(&[spill(4, false, 0xabc), spill(4, true, 0xabd)]);
        let violations = check.violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("spill changed knowledge"),
            "{violations:?}"
        );
        let check = run(&[spill(4, true, 0xabc)]);
        assert_eq!(check.violations().len(), 1, "an unspill needs a spill");
    }

    #[test]
    fn a_forgotten_replica_may_receive_again() {
        let check = run(&[injected(1, 1), delivered(2, 1, 1), delivered(3, 1, 1)]);
        check.forget(2);
        check.on_event(&delivered(2, 1, 1));
        assert!(check.violations().is_empty(), "{:?}", check.violations());
        // Only the forgotten replica's history went.
        check.on_event(&delivered(3, 1, 1));
        assert_eq!(check.violations().len(), 1);
    }

    #[test]
    #[should_panic(expected = "1 §III violation(s)")]
    fn assert_clean_panics_on_a_violation() {
        run(&[delivered(2, 1, 1), injected(1, 1)]).assert_clean();
    }

    #[test]
    fn attach_keeps_the_observer_already_in_the_slot() {
        let sink = Arc::new(obs::MemorySink::unbounded());
        let mut slot: Option<Arc<dyn Observer>> = Some(sink.clone());
        let check = Invariants::attach(&mut slot);
        let both = slot.expect("slot filled");
        both.on_event(&delivered(2, 1, 1));
        assert_eq!(sink.take().len(), 1, "the first observer still sees events");
        assert_eq!(check.violations().len(), 1, "and so does the checker");
    }
}
