//! mask ≡ filter: subscribing to a set of event kinds is the same as
//! receiving everything and discarding the rest.
//!
//! `obs::Obs` caches its observer's [`Interest`] and emission sites skip
//! building events outside it; the engine's own listener (its commit
//! ledger) subscribes to a few kinds and passes the stream on to the
//! user's observer. Whatever the user subscribes to, it must receive
//! exactly the subsequence of those kinds a subscribe-all observer
//! receives from the same run, and the run's metrics must not notice.
//! The trace and the subscription honour `TESTKIT_SEED`.

use std::sync::Arc;

use dtn::PolicyKind;
use emu::{Emulation, EmulationConfig, ExperimentMetrics};
use obs::{Event, EventKind, Interest, MemorySink, Observer};
use testkit::Trace;
use traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace};

/// The base seed, offset by `TESTKIT_SEED` when set (the CI matrix sets
/// 0..8).
fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(0x3a5c)
}

fn scenario(seed: u64) -> (EncounterTrace, EmailWorkload) {
    let trace = DieselNetConfig {
        days: 3,
        fleet_size: 12,
        buses_per_day: 8,
        routes: 4,
        clusters: 2,
        encounters_per_day: 140,
        seed,
        ..DieselNetConfig::default()
    }
    .generate();
    let workload = EmailConfig {
        users: 12,
        injection_days: 2,
        total_messages: 50,
        contacts_per_user: 3,
        seed: seed ^ 0xe417,
        ..EmailConfig::default()
    }
    .generate();
    (trace, workload)
}

/// Subscribes to `interest` only and panics on anything else.
struct Subscriber {
    interest: Interest,
    seen: MemorySink,
}

impl Observer for Subscriber {
    fn on_event(&self, event: &Event) {
        assert!(
            self.interest.contains(event.event_kind()),
            "delivered an unsubscribed {}",
            event.event_kind().name()
        );
        self.seen.on_event(event);
    }

    fn interest(&self) -> Interest {
        self.interest
    }
}

/// The stream with its wall-clock readings normalised (see
/// [`testkit::Trace::record`]), optionally cut down to `interest`.
fn normalised(events: Vec<Event>, interest: Interest) -> Trace {
    let mut trace = Trace::new();
    for event in events {
        if interest.contains(event.event_kind()) {
            trace.record(0, 0, event);
        }
    }
    trace
}

/// Two streams must be the same events in the same order; on a mismatch
/// names the first place they part instead of printing both.
fn assert_same_stream(got: &Trace, expected: &Trace, case: &str) {
    let parted = got
        .entries()
        .iter()
        .zip(expected.entries())
        .position(|(g, e)| g != e)
        .unwrap_or(got.len().min(expected.len()));
    assert!(
        got == expected,
        "{case}: {} events against {}, parting at #{parted}: {:?} against {:?}",
        got.len(),
        expected.len(),
        got.entries().get(parted).map(|e| &e.event),
        expected.entries().get(parted).map(|e| &e.event),
    );
}

/// One run under `config` with `observer` attached.
fn run(
    trace: &EncounterTrace,
    workload: &EmailWorkload,
    config: &EmulationConfig,
    observer: Arc<dyn Observer>,
) -> ExperimentMetrics {
    let config = EmulationConfig {
        observer: Some(observer),
        ..config.clone()
    };
    Emulation::new(trace, workload, config).run()
}

#[test]
fn a_subscription_receives_exactly_its_kinds() {
    let seed = base_seed();
    let (trace, workload) = scenario(seed);
    // Kinds nobody inside the engine reads, kinds its ledger reads, the two
    // whose events cost a clock reading, and a seed-chosen mix.
    let seeded: Vec<EventKind> = EventKind::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| (seed >> (i % 24)) & 1 == 1)
        .map(|(_, &kind)| kind)
        .collect();
    let subscriptions = [
        Interest::of(&[EventKind::PolicyDecision, EventKind::ItemTransmitted]),
        Interest::of(&[
            EventKind::MessageInjected,
            EventKind::MessageDelivered,
            EventKind::ItemRelayed,
            EventKind::MessageDropped,
        ]),
        Interest::of(&[EventKind::SyncCandidatesSelected, EventKind::SpanEnded]),
        Interest::of(&seeded),
        Interest::NONE,
    ];
    let config = EmulationConfig {
        relay_limit: Some(4),
        ..EmulationConfig::for_policy(PolicyKind::MaxProp)
    };
    let everything = Arc::new(MemorySink::unbounded());
    let reference = run(&trace, &workload, &config, everything.clone());
    let everything = everything.take();
    assert!(
        everything
            .iter()
            .any(|e| e.event_kind() == EventKind::MessageDropped),
        "the scenario should evict or purge something"
    );
    for interest in subscriptions {
        let subscriber = Arc::new(Subscriber {
            interest,
            seen: MemorySink::unbounded(),
        });
        let metrics = run(&trace, &workload, &config, subscriber.clone());
        let case = format!("{interest:?} / seed {seed:#x}");
        assert_eq!(
            metrics, reference,
            "{case}: a subscription moved the metrics"
        );
        // Counted before normalising, which drops the span events.
        let wanted = everything
            .iter()
            .filter(|e| interest.contains(e.event_kind()))
            .count();
        assert_eq!(subscriber.seen.len(), wanted, "{case}: event count");
        assert_same_stream(
            &normalised(subscriber.seen.take(), Interest::ALL),
            &normalised(everything.clone(), interest),
            &format!("{case}: the mask is not the filter"),
        );
    }
}
