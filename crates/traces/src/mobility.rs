//! Encounter traces: the mobility input of the emulation.

use std::collections::{BTreeMap, BTreeSet};

use pfr::{ReplicaId, SimDuration, SimTime};

/// One opportunistic meeting between two nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Encounter {
    /// When the meeting happens.
    pub time: SimTime,
    /// One party (by convention the smaller id, but not required).
    pub a: ReplicaId,
    /// The other party.
    pub b: ReplicaId,
    /// How long the nodes stay in range ([`SimDuration::ZERO`] when the
    /// trace does not record durations). Duration-aware bandwidth models
    /// derive per-encounter transfer budgets from this.
    pub duration: SimDuration,
}

impl Encounter {
    /// Creates an encounter with unknown duration, normalizing the pair so
    /// `a <= b`.
    pub fn new(time: SimTime, a: ReplicaId, b: ReplicaId) -> Self {
        Encounter::with_duration(time, a, b, SimDuration::ZERO)
    }

    /// Creates an encounter with a recorded contact duration.
    pub fn with_duration(time: SimTime, a: ReplicaId, b: ReplicaId, duration: SimDuration) -> Self {
        if a <= b {
            Encounter {
                time,
                a,
                b,
                duration,
            }
        } else {
            Encounter {
                time,
                a: b,
                b: a,
                duration,
            }
        }
    }

    /// The unordered node pair.
    pub fn pair(&self) -> (ReplicaId, ReplicaId) {
        (self.a, self.b)
    }
}

/// A time-ordered schedule of encounters, split into days — the shape of
/// the DieselNet bus traces the paper's experiments replay.
///
/// # Examples
///
/// ```
/// use traces::{Encounter, EncounterTrace};
/// use pfr::{ReplicaId, SimTime};
///
/// let mut trace = EncounterTrace::new();
/// trace.push(Encounter::new(
///     SimTime::from_hms(0, 9, 0, 0),
///     ReplicaId::new(1),
///     ReplicaId::new(2),
/// ));
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.days(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EncounterTrace {
    encounters: Vec<Encounter>,
}

impl EncounterTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        EncounterTrace::default()
    }

    /// Builds a trace from encounters, sorting them by time.
    pub fn from_encounters(mut encounters: Vec<Encounter>) -> Self {
        encounters.sort_by_key(|e| (e.time, e.a, e.b));
        EncounterTrace { encounters }
    }

    /// Appends an encounter, keeping the trace sorted.
    pub fn push(&mut self, encounter: Encounter) {
        let pos = self
            .encounters
            .partition_point(|e| (e.time, e.a, e.b) <= (encounter.time, encounter.a, encounter.b));
        self.encounters.insert(pos, encounter);
    }

    /// Number of encounters.
    pub fn len(&self) -> usize {
        self.encounters.len()
    }

    /// Returns `true` if the trace has no encounters.
    pub fn is_empty(&self) -> bool {
        self.encounters.is_empty()
    }

    /// All encounters in time order.
    pub fn iter(&self) -> impl Iterator<Item = &Encounter> {
        self.encounters.iter()
    }

    /// The number of days spanned (day of the last encounter + 1).
    pub fn days(&self) -> u64 {
        self.encounters
            .last()
            .map(|e| e.time.day() + 1)
            .unwrap_or(0)
    }

    /// The nodes that appear anywhere in the trace.
    pub fn nodes(&self) -> BTreeSet<ReplicaId> {
        let mut out = BTreeSet::new();
        for e in &self.encounters {
            out.insert(e.a);
            out.insert(e.b);
        }
        out
    }

    /// The nodes scheduled (appearing in an encounter) on a given day —
    /// the buses "active" that day.
    pub fn nodes_on_day(&self, day: u64) -> BTreeSet<ReplicaId> {
        let mut out = BTreeSet::new();
        for e in self.encounters_on_day(day) {
            out.insert(e.a);
            out.insert(e.b);
        }
        out
    }

    /// The encounters of one day, in time order.
    pub fn encounters_on_day(&self, day: u64) -> &[Encounter] {
        let start = self
            .encounters
            .partition_point(|e| e.time < SimTime::from_hms(day, 0, 0, 0));
        let end = self
            .encounters
            .partition_point(|e| e.time < SimTime::from_hms(day + 1, 0, 0, 0));
        &self.encounters[start..end]
    }

    /// Counts encounters per unordered node pair across the whole trace.
    pub fn pair_counts(&self) -> BTreeMap<(ReplicaId, ReplicaId), usize> {
        let mut counts = BTreeMap::new();
        for e in &self.encounters {
            *counts.entry(e.pair()).or_insert(0) += 1;
        }
        counts
    }

    /// The `k` nodes that `node` encounters most often, most-frequent
    /// first — the "selected" filter strategy's relay set (paper §VI-B).
    pub fn top_partners(&self, node: ReplicaId, k: usize) -> Vec<ReplicaId> {
        let mut counts: BTreeMap<ReplicaId, usize> = BTreeMap::new();
        for e in &self.encounters {
            if e.a == node {
                *counts.entry(e.b).or_insert(0) += 1;
            } else if e.b == node {
                *counts.entry(e.a).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(ReplicaId, usize)> = counts.into_iter().collect();
        // Sort by count desc, then id asc for determinism.
        ranked.sort_by(|(ida, ca), (idb, cb)| cb.cmp(ca).then(ida.cmp(idb)));
        ranked.into_iter().take(k).map(|(id, _)| id).collect()
    }

    /// Mean number of distinct active nodes per day.
    pub fn mean_nodes_per_day(&self) -> f64 {
        let days = self.days();
        if days == 0 {
            return 0.0;
        }
        let total: usize = (0..days).map(|d| self.nodes_on_day(d).len()).sum();
        total as f64 / days as f64
    }
}

impl FromIterator<Encounter> for EncounterTrace {
    fn from_iter<T: IntoIterator<Item = Encounter>>(iter: T) -> Self {
        EncounterTrace::from_encounters(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a EncounterTrace {
    type Item = &'a Encounter;
    type IntoIter = std::slice::Iter<'a, Encounter>;
    fn into_iter(self) -> Self::IntoIter {
        self.encounters.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u64) -> ReplicaId {
        ReplicaId::new(n)
    }

    fn enc(day: u64, hour: u64, a: u64, b: u64) -> Encounter {
        Encounter::new(SimTime::from_hms(day, hour, 0, 0), rid(a), rid(b))
    }

    #[test]
    fn encounter_normalizes_pair_order() {
        let e = Encounter::new(SimTime::ZERO, rid(5), rid(2));
        assert_eq!(e.pair(), (rid(2), rid(5)));
    }

    #[test]
    fn from_encounters_sorts() {
        let trace = EncounterTrace::from_encounters(vec![
            enc(1, 9, 1, 2),
            enc(0, 8, 3, 4),
            enc(0, 10, 1, 3),
        ]);
        let times: Vec<u64> = trace.iter().map(|e| e.time.as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn push_keeps_sorted() {
        let mut trace = EncounterTrace::new();
        trace.push(enc(0, 12, 1, 2));
        trace.push(enc(0, 8, 1, 3));
        trace.push(enc(0, 10, 2, 3));
        let hours: Vec<u64> = trace
            .iter()
            .map(|e| e.time.seconds_into_day() / 3600)
            .collect();
        assert_eq!(hours, vec![8, 10, 12]);
    }

    #[test]
    fn day_slicing() {
        let trace = EncounterTrace::from_encounters(vec![
            enc(0, 8, 1, 2),
            enc(0, 22, 1, 3),
            enc(1, 9, 2, 3),
            enc(2, 9, 4, 5),
        ]);
        assert_eq!(trace.days(), 3);
        assert_eq!(trace.encounters_on_day(0).len(), 2);
        assert_eq!(trace.encounters_on_day(1).len(), 1);
        assert_eq!(
            trace.nodes_on_day(2),
            [rid(4), rid(5)].into_iter().collect()
        );
        assert!(trace.encounters_on_day(7).is_empty());
    }

    #[test]
    fn top_partners_ranked_by_frequency() {
        let mut encounters = Vec::new();
        // node 1 meets node 2 three times, node 3 once, node 4 twice.
        for h in [8, 9, 10] {
            encounters.push(enc(0, h, 1, 2));
        }
        encounters.push(enc(0, 11, 1, 3));
        for h in [12, 13] {
            encounters.push(enc(0, h, 1, 4));
        }
        let trace = EncounterTrace::from_encounters(encounters);
        assert_eq!(trace.top_partners(rid(1), 2), vec![rid(2), rid(4)]);
        assert_eq!(trace.top_partners(rid(1), 10), vec![rid(2), rid(4), rid(3)]);
        assert!(trace.top_partners(rid(9), 3).is_empty());
    }

    #[test]
    fn stats_helpers() {
        let trace = EncounterTrace::from_encounters(vec![enc(0, 8, 1, 2), enc(1, 8, 1, 3)]);
        assert_eq!(trace.nodes().len(), 3);
        assert_eq!(trace.mean_nodes_per_day(), 2.0);
        let counts = trace.pair_counts();
        assert_eq!(counts[&(rid(1), rid(2))], 1);
        assert!(EncounterTrace::new().is_empty());
        assert_eq!(EncounterTrace::new().mean_nodes_per_day(), 0.0);
    }
}
