//! Per-day assignment of e-mail users to buses.
//!
//! "For each day in our experimental run, the experiment uniformly
//! distributes e-mail users to the buses scheduled on that day" (§VI-A):
//! a user's mail is delivered to whichever bus carries them today, so the
//! assignment is the bridge between the e-mail workload (users) and the
//! mobility trace (buses).

use std::collections::BTreeMap;

use pfr::ReplicaId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mobility::EncounterTrace;

/// For each day, which bus hosts each user.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UserAssignment {
    /// day -> (user -> bus).
    by_day: BTreeMap<u64, BTreeMap<String, ReplicaId>>,
}

impl UserAssignment {
    /// Uniformly assigns `users` to the buses scheduled on each day of the
    /// trace. Deterministic for a given seed. Days with no scheduled buses
    /// get no assignments (users are unreachable that day, as in the real
    /// trace when a bus is off duty) and cost nothing, however far apart
    /// the encounter days lie.
    pub fn uniform(trace: &EncounterTrace, users: &[String], seed: u64) -> Self {
        let mut last = None;
        let days = trace
            .iter()
            .map(|e| e.time.day())
            .filter(move |&day| last.replace(day) != Some(day));
        Self::uniform_over_schedule(
            days,
            |day| trace.nodes_on_day(day).into_iter().collect(),
            users,
            seed,
        )
    }

    /// [`uniform`](UserAssignment::uniform) for a spooled trace: same
    /// draw sequence, fed from the spool's resident per-day schedules, so
    /// an in-memory trace and its spooled twin produce *identical*
    /// assignments for the same seed.
    pub fn uniform_spooled(trace: &crate::SpooledTrace, users: &[String], seed: u64) -> Self {
        Self::uniform_over_schedule(
            trace.day_nodes().keys().copied(),
            |day| trace.nodes_on_day(day).into_iter().collect(),
            users,
            seed,
        )
    }

    /// Shared draw loop: one `StdRng`, the days that have scheduled buses
    /// in ascending order, buses in sorted (`BTreeSet`) order — any
    /// divergence here would silently desync the in-memory and spooled
    /// experiment paths.
    fn uniform_over_schedule(
        days: impl Iterator<Item = u64>,
        buses_on_day: impl Fn(u64) -> Vec<ReplicaId>,
        users: &[String],
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut by_day = BTreeMap::new();
        for day in days {
            let buses = buses_on_day(day);
            let mut today = BTreeMap::new();
            for user in users {
                let bus = buses[rng.gen_range(0..buses.len())];
                today.insert(user.clone(), bus);
            }
            by_day.insert(day, today);
        }
        UserAssignment { by_day }
    }

    /// The bus hosting `user` on `day`, if any.
    pub fn bus_of(&self, day: u64, user: &str) -> Option<ReplicaId> {
        self.by_day.get(&day)?.get(user).copied()
    }

    /// The users hosted by `bus` on `day`.
    pub fn users_of(&self, day: u64, bus: ReplicaId) -> Vec<String> {
        self.by_day
            .get(&day)
            .map(|m| {
                m.iter()
                    .filter(|(_, &b)| b == bus)
                    .map(|(u, _)| u.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Days with assignments.
    pub fn days(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_day.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dieselnet::DieselNetConfig;
    use crate::email::user_name;

    fn setup() -> (EncounterTrace, Vec<String>, UserAssignment) {
        let trace = DieselNetConfig::small().generate();
        let users: Vec<String> = (0..10).map(user_name).collect();
        let assignment = UserAssignment::uniform(&trace, &users, 7);
        (trace, users, assignment)
    }

    #[test]
    fn every_user_assigned_every_day() {
        let (trace, users, assignment) = setup();
        for day in 0..trace.days() {
            let buses = trace.nodes_on_day(day);
            for user in &users {
                let bus = assignment.bus_of(day, user).expect("assigned");
                assert!(buses.contains(&bus), "assigned bus is scheduled that day");
            }
        }
    }

    #[test]
    fn users_of_inverts_bus_of() {
        let (trace, users, assignment) = setup();
        for day in 0..trace.days() {
            for bus in trace.nodes_on_day(day) {
                for user in assignment.users_of(day, bus) {
                    assert_eq!(assignment.bus_of(day, &user), Some(bus));
                }
            }
            let total: usize = trace
                .nodes_on_day(day)
                .into_iter()
                .map(|b| assignment.users_of(day, b).len())
                .sum();
            assert_eq!(total, users.len(), "partition covers all users");
        }
    }

    #[test]
    fn assignments_change_between_days() {
        let (trace, users, assignment) = setup();
        // With 10 users and >=2 days, at least one user should move.
        let moved = users.iter().any(|u| {
            let buses: Vec<_> = (0..trace.days())
                .filter_map(|d| assignment.bus_of(d, u))
                .collect();
            buses.windows(2).any(|w| w[0] != w[1])
        });
        assert!(moved, "daily re-assignment should move someone");
    }

    #[test]
    fn deterministic_per_seed() {
        let (trace, users, _) = setup();
        let a = UserAssignment::uniform(&trace, &users, 1);
        let b = UserAssignment::uniform(&trace, &users, 1);
        let c = UserAssignment::uniform(&trace, &users, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn spooled_assignment_matches_in_memory() {
        let (trace, users, assignment) = setup();
        let dir = std::env::temp_dir().join(format!("replidtn-assign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let spooled = crate::SpooledTrace::spool(&trace, dir.join("assign.spool")).expect("spool");
        let via_spool = UserAssignment::uniform_spooled(&spooled, &users, 7);
        assert_eq!(assignment, via_spool, "identical draws either way");
    }

    /// Empty days cost nothing: a schedule whose two encounter days lie
    /// 10^12 days apart draws exactly those two.
    #[test]
    fn only_scheduled_days_are_drawn() {
        let far = 1_000_000_000_000;
        let trace = EncounterTrace::from_encounters(vec![
            crate::Encounter::new(
                pfr::SimTime::from_hms(0, 9, 0, 0),
                ReplicaId::new(5),
                ReplicaId::new(15),
            ),
            crate::Encounter::new(
                pfr::SimTime::from_hms(far, 0, 0, 0),
                ReplicaId::new(1),
                ReplicaId::new(2),
            ),
        ]);
        let users: Vec<String> = (0..4).map(user_name).collect();
        let assignment = UserAssignment::uniform(&trace, &users, 7);
        assert_eq!(assignment.days().collect::<Vec<_>>(), [0, far]);
    }

    #[test]
    fn unknown_day_or_user() {
        let (_, _, assignment) = setup();
        assert_eq!(assignment.bus_of(999, "u0"), None);
        assert_eq!(assignment.bus_of(0, "nobody"), None);
        assert!(assignment.users_of(999, ReplicaId::new(1)).is_empty());
    }
}
