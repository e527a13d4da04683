//! Experiment metrics: delays, delivery rates, and storage accounting.

use std::collections::BTreeMap;

use pfr::{ItemId, SimDuration, SimTime};

/// The lifecycle record of one message in an experiment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageRecord {
    /// The message's item id.
    pub id: ItemId,
    /// Sender address (bus).
    pub src: String,
    /// Destination address (bus).
    pub dst: String,
    /// When it was injected.
    pub injected_at: SimTime,
    /// When it first reached its destination (`None` = not yet delivered).
    pub delivered_at: Option<SimTime>,
    /// Copies stored anywhere in the network at the moment of delivery.
    pub copies_at_delivery: Option<usize>,
    /// Copies stored anywhere in the network when the experiment ended.
    pub copies_at_end: usize,
}

impl MessageRecord {
    /// The delivery delay, if delivered.
    pub fn delay(&self) -> Option<SimDuration> {
        self.delivered_at
            .map(|at| at.saturating_since(self.injected_at))
    }
}

/// Per-day activity counters: the time-series view of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct DayStats {
    /// Encounters processed this day.
    pub encounters: u64,
    /// Items transmitted this day.
    pub transmissions: u64,
    /// Messages injected this day.
    pub injections: u64,
    /// First-time deliveries this day.
    pub deliveries: u64,
}

/// Aggregated metrics for one emulation run.
///
/// Implements `PartialEq`/`Eq` so determinism checks (parallel sweep vs
/// serial baseline, all-resident vs spilled) can compare whole runs
/// structurally.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExperimentMetrics {
    records: BTreeMap<ItemId, MessageRecord>,
    daily: BTreeMap<u64, DayStats>,
    /// Total items transmitted over all syncs (network traffic).
    pub transmissions: u64,
    /// Total encounters processed.
    pub encounters: u64,
    /// Copies a target received and rejected because its knowledge
    /// already held them: transmissions that carried nothing new. A source
    /// sends only versions outside the target's knowledge, so this stays
    /// 0 in a correct run. It counts wasted sends, not second deliveries:
    /// at-most-once delivery is checked per replica and item from the
    /// event stream (`testkit::Invariants`).
    pub duplicates: u64,
    /// Relay evictions under storage constraints.
    pub evictions: u64,
    /// Simulated node reboots (crash-injection runs).
    pub reboots: u64,
}

impl ExperimentMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        ExperimentMetrics::default()
    }

    /// Records one processed encounter for the per-day time series.
    pub fn record_encounter_activity(&mut self, at: SimTime, transmitted: usize) {
        let day = self.daily.entry(at.day()).or_default();
        day.encounters += 1;
        day.transmissions += transmitted as u64;
    }

    /// Per-day activity, keyed by day number.
    pub fn daily_stats(&self) -> &BTreeMap<u64, DayStats> {
        &self.daily
    }

    /// Registers an injected message.
    pub fn record_injection(&mut self, id: ItemId, src: &str, dst: &str, at: SimTime) {
        self.daily.entry(at.day()).or_default().injections += 1;
        self.records.insert(
            id,
            MessageRecord {
                id,
                src: src.to_owned(),
                dst: dst.to_owned(),
                injected_at: at,
                delivered_at: None,
                copies_at_delivery: None,
                copies_at_end: 0,
            },
        );
    }

    /// Registers the first delivery of a message. Later deliveries of the
    /// same id (e.g. after an update) are ignored.
    pub fn record_delivery(&mut self, id: ItemId, at: SimTime, copies_in_network: usize) {
        if let Some(rec) = self.records.get_mut(&id) {
            if rec.delivered_at.is_none() {
                rec.delivered_at = Some(at);
                rec.copies_at_delivery = Some(copies_in_network);
                self.daily.entry(at.day()).or_default().deliveries += 1;
            }
        }
    }

    /// Is this id a tracked message, still undelivered?
    pub fn is_pending(&self, id: ItemId) -> bool {
        self.records
            .get(&id)
            .is_some_and(|r| r.delivered_at.is_none())
    }

    /// Records the end-of-run copy count for a message.
    pub fn record_final_copies(&mut self, id: ItemId, copies: usize) {
        if let Some(rec) = self.records.get_mut(&id) {
            rec.copies_at_end = copies;
        }
    }

    /// The record of one message.
    pub fn record(&self, id: ItemId) -> Option<&MessageRecord> {
        self.records.get(&id)
    }

    /// All message records.
    pub fn records(&self) -> impl Iterator<Item = &MessageRecord> {
        self.records.values()
    }

    /// Number of injected messages.
    pub fn injected(&self) -> usize {
        self.records.len()
    }

    /// Number of delivered messages.
    pub fn delivered(&self) -> usize {
        self.records
            .values()
            .filter(|r| r.delivered_at.is_some())
            .count()
    }

    /// Fraction of messages delivered (0 when none injected).
    pub fn delivery_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.delivered() as f64 / self.records.len() as f64
    }

    /// Mean delivery delay over *delivered* messages.
    pub fn mean_delay(&self) -> Option<SimDuration> {
        let delays: Vec<u64> = self
            .records
            .values()
            .filter_map(MessageRecord::delay)
            .map(|d| d.as_secs())
            .collect();
        if delays.is_empty() {
            return None;
        }
        Some(SimDuration::from_secs(
            delays.iter().sum::<u64>() / delays.len() as u64,
        ))
    }

    /// Mean delay counting undelivered messages as delivered at `horizon`
    /// — the paper's "counting the delivery time of all messages" metric
    /// for runs where some messages are still in flight at the end.
    pub fn mean_delay_with_horizon(&self, horizon: SimTime) -> Option<SimDuration> {
        if self.records.is_empty() {
            return None;
        }
        let total: u64 = self
            .records
            .values()
            .map(|r| {
                r.delay()
                    .unwrap_or_else(|| horizon.saturating_since(r.injected_at))
                    .as_secs()
            })
            .sum();
        Some(SimDuration::from_secs(total / self.records.len() as u64))
    }

    /// Fraction of all messages delivered within `window` of injection.
    pub fn delivered_within(&self, window: SimDuration) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let hits = self
            .records
            .values()
            .filter(|r| r.delay().is_some_and(|d| d <= window))
            .count();
        hits as f64 / self.records.len() as f64
    }

    /// The worst delivery delay among delivered messages.
    pub fn max_delay(&self) -> Option<SimDuration> {
        self.records.values().filter_map(MessageRecord::delay).max()
    }

    /// Cumulative distribution points: for each multiple of `step` up to
    /// `max`, the percentage of all messages delivered within that delay.
    pub fn delay_cdf(&self, step: SimDuration, max: SimDuration) -> Vec<CdfPoint> {
        let mut points = Vec::new();
        let mut t = step;
        while t <= max {
            points.push(CdfPoint {
                delay: t,
                delivered_pct: self.delivered_within(t) * 100.0,
            });
            t = t + step;
        }
        points
    }

    /// Mean copies stored per message at the moment of its delivery
    /// (undelivered messages excluded).
    pub fn mean_copies_at_delivery(&self) -> Option<f64> {
        let counts: Vec<usize> = self
            .records
            .values()
            .filter_map(|r| r.copies_at_delivery)
            .collect();
        if counts.is_empty() {
            return None;
        }
        Some(counts.iter().sum::<usize>() as f64 / counts.len() as f64)
    }

    /// Mean copies stored per message at the end of the experiment.
    pub fn mean_copies_at_end(&self) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        Some(
            self.records
                .values()
                .map(|r| r.copies_at_end)
                .sum::<usize>() as f64
                / self.records.len() as f64,
        )
    }
}

/// One point of a delay CDF: the share of messages delivered within
/// `delay`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CdfPoint {
    /// Delay bound.
    pub delay: SimDuration,
    /// Percent of all injected messages delivered within the bound.
    pub delivered_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfr::ReplicaId;

    fn id(n: u64) -> ItemId {
        ItemId::new(ReplicaId::new(1), n)
    }

    fn metrics_with_three() -> ExperimentMetrics {
        let mut m = ExperimentMetrics::new();
        for n in 1..=3 {
            m.record_injection(id(n), "a", "b", SimTime::from_secs(0));
        }
        m.record_delivery(id(1), SimTime::from_hms(0, 2, 0, 0), 3); // 2h
        m.record_delivery(id(2), SimTime::from_hms(1, 0, 0, 0), 5); // 24h
        m
    }

    #[test]
    fn counts_and_rates() {
        let m = metrics_with_three();
        assert_eq!(m.injected(), 3);
        assert_eq!(m.delivered(), 2);
        assert!((m.delivery_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(m.is_pending(id(3)));
        assert!(!m.is_pending(id(1)));
        assert!(!m.is_pending(id(99)), "unknown ids are not pending");
    }

    #[test]
    fn delay_statistics() {
        let m = metrics_with_three();
        assert_eq!(m.mean_delay(), Some(SimDuration::from_hours(13)));
        assert_eq!(m.max_delay(), Some(SimDuration::from_hours(24)));
        // Horizon counts the undelivered third message as 48h.
        let with_horizon = m
            .mean_delay_with_horizon(SimTime::from_hms(2, 0, 0, 0))
            .unwrap();
        assert_eq!(
            with_horizon,
            SimDuration::from_secs((2 + 24 + 48) * 3600 / 3)
        );
    }

    #[test]
    fn delivered_within_windows() {
        let m = metrics_with_three();
        assert!((m.delivered_within(SimDuration::from_hours(12)) - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.delivered_within(SimDuration::from_hours(24)) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.delivered_within(SimDuration::from_hours(1)), 0.0);
    }

    #[test]
    fn cdf_points_are_monotone() {
        let m = metrics_with_three();
        let cdf = m.delay_cdf(SimDuration::from_hours(6), SimDuration::from_hours(30));
        assert_eq!(cdf.len(), 5);
        for w in cdf.windows(2) {
            assert!(w[0].delivered_pct <= w[1].delivered_pct);
        }
        assert!((cdf.last().unwrap().delivered_pct - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn copy_accounting() {
        let mut m = metrics_with_three();
        m.record_final_copies(id(1), 4);
        m.record_final_copies(id(2), 6);
        m.record_final_copies(id(3), 2);
        assert_eq!(m.mean_copies_at_delivery(), Some(4.0));
        assert_eq!(m.mean_copies_at_end(), Some(4.0));
    }

    #[test]
    fn second_delivery_is_ignored() {
        let mut m = metrics_with_three();
        m.record_delivery(id(1), SimTime::from_hms(5, 0, 0, 0), 99);
        let rec = m.record(id(1)).unwrap();
        assert_eq!(rec.delivered_at, Some(SimTime::from_hms(0, 2, 0, 0)));
        assert_eq!(rec.copies_at_delivery, Some(3));
    }

    #[test]
    fn daily_stats_accumulate() {
        let mut m = ExperimentMetrics::new();
        m.record_injection(id(1), "a", "b", SimTime::from_hms(0, 9, 0, 0));
        m.record_injection(id(2), "a", "b", SimTime::from_hms(1, 9, 0, 0));
        m.record_encounter_activity(SimTime::from_hms(0, 10, 0, 0), 3);
        m.record_encounter_activity(SimTime::from_hms(0, 11, 0, 0), 2);
        m.record_delivery(id(1), SimTime::from_hms(1, 8, 0, 0), 2);
        // Second delivery of the same id must not double-count.
        m.record_delivery(id(1), SimTime::from_hms(2, 8, 0, 0), 2);

        let daily = m.daily_stats();
        assert_eq!(daily[&0].injections, 1);
        assert_eq!(daily[&0].encounters, 2);
        assert_eq!(daily[&0].transmissions, 5);
        assert_eq!(daily[&0].deliveries, 0);
        assert_eq!(daily[&1].injections, 1);
        assert_eq!(daily[&1].deliveries, 1);
        assert!(!daily.contains_key(&2));
    }

    #[test]
    fn empty_metrics_are_well_behaved() {
        let m = ExperimentMetrics::new();
        assert_eq!(m.delivery_rate(), 0.0);
        assert_eq!(m.mean_delay(), None);
        assert_eq!(m.mean_copies_at_delivery(), None);
        assert_eq!(m.mean_copies_at_end(), None);
        assert_eq!(m.delivered_within(SimDuration::from_hours(1)), 0.0);
        assert_eq!(m.mean_delay_with_horizon(SimTime::ZERO), None);
    }
}
