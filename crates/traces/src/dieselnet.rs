//! Synthetic DieselNet-like vehicular mobility traces.
//!
//! The paper replays encounters from the CRAWDAD `umass/diesel` trace:
//! ~23 buses active per day, 17 usable days (each with encounters from
//! 08:00 to 23:00), about 16 000 encounters total. That trace requires
//! registration and cannot be redistributed, so this generator produces a
//! synthetic trace with the same macro-statistics and — crucially for the
//! experiments — the same *qualitative* meeting structure:
//!
//! * buses belong to routes, and same-route / adjacent-route buses meet
//!   far more often than unrelated ones (so choosing the most-encountered
//!   partners, the "selected" filter strategy, beats a random choice);
//! * day-to-day schedules vary (a bus may be off duty some days), so
//!   encounter patterns are only *partially* predictable — the property
//!   the paper's footnote 1 blames for PROPHET's modest gains.
//!
//! Real CRAWDAD-style traces can be loaded through [`crate::crawdad`]
//! instead; everything downstream consumes the same
//! [`EncounterTrace`](crate::EncounterTrace).

use std::convert::Infallible;

use pfr::{ReplicaId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mobility::{Encounter, EncounterTrace};

/// Configuration for the synthetic vehicular trace.
#[derive(Clone, Debug, PartialEq)]
pub struct DieselNetConfig {
    /// Number of experiment days.
    pub days: u64,
    /// Total fleet size (buses existing across the whole trace).
    pub fleet_size: usize,
    /// Buses scheduled on a given day (paper: average of 23).
    pub buses_per_day: usize,
    /// Number of routes buses are assigned to.
    pub routes: usize,
    /// Number of geographic clusters the routes are grouped into (adjacent
    /// towns in the real trace). Buses in different clusters meet only
    /// through hub routes, so a day's contact graph can be — and sometimes
    /// is — disconnected, which is what gives even flooding policies the
    /// multi-day delivery tails of Figure 7b.
    pub clusters: usize,
    /// Encounters generated per day (paper: ~16 000 over 17 days ≈ 940).
    pub encounters_per_day: usize,
    /// First encounter of each day (paper: 08:00).
    pub day_start_hour: u64,
    /// Last encounter of each day (paper: 23:00).
    pub day_end_hour: u64,
    /// Probability that a bus serves a random route instead of its home
    /// route on a given day. Day-to-day route churn is what makes the real
    /// trace only *partially* predictable.
    pub route_switch_prob: f64,
    /// Relative encounter weight for two buses on the same route.
    pub weight_same_route: f64,
    /// Relative encounter weight for buses on different routes of the same
    /// cluster (shared terminals downtown).
    pub weight_same_cluster: f64,
    /// Relative encounter weight for buses of *different* clusters when
    /// both serve their cluster's hub route (the inter-town connector).
    /// All other cross-cluster pairs never meet on the same day.
    pub weight_bridge: f64,
    /// Probability that a bus keeps yesterday's duty status today. Values
    /// near 1 give multi-day off-duty stretches — the source of the
    /// multi-day delivery tails that even flooding shows in the paper's
    /// Figure 7b (a parked bus can receive nothing).
    pub duty_persistence: f64,
    /// RNG seed: the same seed always yields the same trace.
    pub seed: u64,
}

impl Default for DieselNetConfig {
    /// The paper's macro-statistics: 17 days, ~23 buses/day, ~16 000
    /// encounters, 08:00–23:00.
    fn default() -> Self {
        DieselNetConfig {
            days: 17,
            fleet_size: 34,
            buses_per_day: 23,
            routes: 9,
            clusters: 3,
            encounters_per_day: 941,
            day_start_hour: 8,
            day_end_hour: 23,
            route_switch_prob: 0.7,
            weight_same_route: 100.0,
            weight_same_cluster: 6.0,
            weight_bridge: 1.0,
            duty_persistence: 0.85,
            seed: 0x0d1e5e1,
        }
    }
}

impl DieselNetConfig {
    /// A scaled-down configuration for fast tests and examples.
    pub fn small() -> Self {
        DieselNetConfig {
            days: 4,
            fleet_size: 12,
            buses_per_day: 8,
            routes: 4,
            clusters: 2,
            encounters_per_day: 120,
            ..DieselNetConfig::default()
        }
    }

    /// A city-scale configuration: the paper's 34-bus topology multiplied
    /// by `scale` along every axis (fleet, daily schedule, routes, towns,
    /// contact volume). Route size, cluster structure, and per-bus contact
    /// rates stay at the paper's values, so the trace is "more city", not
    /// "denser city". At `scale = 50` that is a 1 700-vehicle fleet with
    /// ~47 000 encounters/day — generate it with
    /// [`generate_spooled`](DieselNetConfig::generate_spooled); the
    /// in-memory [`generate`](DieselNetConfig::generate) builds an
    /// all-pairs weight table each day and does not scale past a few
    /// hundred vehicles.
    pub fn city(scale: usize) -> Self {
        let scale = scale.max(1);
        DieselNetConfig {
            fleet_size: 34 * scale,
            buses_per_day: 23 * scale,
            routes: 9 * scale,
            clusters: 3 * scale,
            encounters_per_day: 941 * scale,
            ..DieselNetConfig::default()
        }
    }

    fn validate(&self) {
        assert!(self.fleet_size >= 2, "need at least two buses");
        assert!(self.routes >= 1, "need at least one route");
        assert!(
            self.buses_per_day >= 2 && self.buses_per_day <= self.fleet_size,
            "buses_per_day must be within [2, fleet_size]"
        );
        assert!(
            self.day_end_hour > self.day_start_hour,
            "daily window must be non-empty"
        );
    }

    /// Generates the synthetic trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no buses, no routes, or
    /// an empty daily window).
    pub fn generate(&self) -> EncounterTrace {
        self.validate();
        let mut encounters = Vec::with_capacity((self.days as usize) * self.encounters_per_day);
        let Ok(()) = self.schedule::<PairTable, Infallible>(|day| {
            encounters.extend(day);
            Ok(())
        });
        EncounterTrace::from_encounters(encounters)
    }

    /// Generates the trace straight to an on-disk spool, one day at a
    /// time, without ever materializing the whole schedule — the
    /// city-scale path ([`DieselNetConfig::city`]).
    ///
    /// [`generate`](DieselNetConfig::generate) samples each encounter
    /// from an explicit all-pairs weight table, which is O(buses²) memory
    /// and time per day — fine for 34 buses, hopeless for 3 400. This
    /// generator draws from the identical weight *structure*
    /// (same-route ≫ same-cluster ≫ hub-bridge) by sampling the category
    /// first and then a uniform pair within it, so per-day cost is
    /// O(buses + encounters·log routes) and peak memory is one day's
    /// encounter buffer. The two generators produce different (but
    /// equally-distributed) schedules for the same seed; the spooled one
    /// is its own deterministic family.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the spool.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration, like
    /// [`generate`](DieselNetConfig::generate).
    pub fn generate_spooled(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<crate::SpooledTrace> {
        self.validate();
        let mut spool = crate::TraceSpool::create(path)?;
        self.schedule::<Categories, _>(|day| spool.push_day(day))?;
        spool.finish()
    }

    /// The day schedule both generators share, handing each day's
    /// encounters to `emit` (a day on which no pair can meet emits
    /// nothing). Per day: evolve the duty chain, top the day up to two
    /// buses, churn routes, then stamp each encounter with a pair from
    /// `S`, a time in the daily window and a duration. Everything but the
    /// durations comes from one RNG stream in exactly that order.
    fn schedule<S: PairSampler, E>(
        &self,
        mut emit: impl FnMut(Vec<Encounter>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Contact durations come from an independent stream so that adding
        // or re-tuning them never perturbs the encounter schedule itself.
        let mut dur_rng = StdRng::seed_from_u64(self.seed ^ 0xd0a7_0a7d);

        // Per-bus duty state evolves as a two-state Markov chain whose
        // stationary on-duty fraction is buses_per_day / fleet_size, with
        // `duty_persistence` controlling how long on/off stretches last.
        let pi_on = (self.buses_per_day as f64 / self.fleet_size as f64).clamp(0.05, 0.95);
        let p_on_on = self.duty_persistence.clamp(0.0, 0.999);
        // Solve the stationary equation for P(off -> off).
        let p_off_off = (1.0 - (1.0 - p_on_on) * pi_on / (1.0 - pi_on)).clamp(0.0, 0.999);
        let mut on_duty: Vec<bool> = (0..self.fleet_size)
            .map(|_| rng.gen::<f64>() < pi_on)
            .collect();

        let window_secs = (self.day_end_hour - self.day_start_hour) * 3_600;
        for day in 0..self.days {
            // Evolve duty states (the first day uses the stationary draw).
            if day > 0 {
                for state in &mut on_duty {
                    let stay = if *state { p_on_on } else { p_off_off };
                    if rng.gen::<f64>() >= stay {
                        *state = !*state;
                    }
                }
            }
            let mut today: Vec<usize> = (0..self.fleet_size).filter(|&b| on_duty[b]).collect();
            // Guarantee a minimally functional day.
            while today.len() < 2 {
                let extra = rng.gen_range(0..self.fleet_size);
                if !today.contains(&extra) {
                    today.push(extra);
                    on_duty[extra] = true;
                }
            }

            // Today's route assignment: mostly the home route (bus i
            // prefers route i % routes), with churn.
            let routes: Vec<usize> = today
                .iter()
                .map(|&bus| {
                    if rng.gen::<f64>() < self.route_switch_prob {
                        rng.gen_range(0..self.routes)
                    } else {
                        bus % self.routes
                    }
                })
                .collect();

            let Some((sampler, total)) = S::for_day(self, &today, &routes) else {
                continue; // degenerate day: no pair can meet
            };
            let mut encounters = Vec::with_capacity(self.encounters_per_day);
            for _ in 0..self.encounters_per_day {
                let pick = rng.gen::<f64>() * total;
                let (x, y) = sampler.pair(self, &mut rng, pick);
                let offset = rng.gen_range(0..window_secs);
                let time = SimTime::from_hms(day, self.day_start_hour, 0, 0)
                    + pfr::SimDuration::from_secs(offset);
                // Contact durations: mostly brief drive-bys, occasionally a
                // long shared layover (roughly geometric, 20s-600s).
                let duration_secs =
                    20 + dur_rng.gen_range(0..5u64) * dur_rng.gen_range(0..30) as u64;
                encounters.push(Encounter::with_duration(
                    time,
                    bus_id(x),
                    bus_id(y),
                    pfr::SimDuration::from_secs(duration_secs),
                ));
            }
            emit(encounters)?;
        }
        Ok(())
    }

    /// Routes are grouped into clusters of this many consecutive routes.
    fn routes_per_cluster(&self) -> usize {
        (self.routes / self.clusters).max(1)
    }

    fn cluster_of(&self, route: usize) -> usize {
        (route / self.routes_per_cluster()).min(self.clusters - 1)
    }

    /// A cluster's hub is its first route.
    fn is_hub(&self, route: usize) -> bool {
        route.is_multiple_of(self.routes_per_cluster())
    }

    /// Relative encounter weight of two buses serving `ri` and `rj`:
    /// dominated by same-route service; different routes of one cluster
    /// share terminals; different clusters touch only where both buses
    /// serve their cluster's hub route.
    fn pair_weight(&self, ri: usize, rj: usize) -> f64 {
        if ri == rj {
            self.weight_same_route
        } else if self.cluster_of(ri) == self.cluster_of(rj) {
            self.weight_same_cluster
        } else if self.is_hub(ri) && self.is_hub(rj) {
            self.weight_bridge
        } else {
            0.0
        }
    }
}

/// How a generator picks the pair of each encounter among one day's
/// on-duty buses.
trait PairSampler: Sized {
    /// The sampler for on-duty `buses` serving `routes` (index-aligned)
    /// and the day's total pair weight, or `None` when no pair can meet.
    fn for_day(config: &DieselNetConfig, buses: &[usize], routes: &[usize]) -> Option<(Self, f64)>;

    /// The pair that `pick`, uniform in `[0, total)`, lands on; any
    /// further draw comes from `rng`.
    fn pair(&self, config: &DieselNetConfig, rng: &mut StdRng, pick: f64) -> (usize, usize);
}

/// [`DieselNetConfig::generate`]'s sampler: an explicit cumulative weight
/// table over every on-duty pair.
struct PairTable {
    pairs: Vec<(usize, usize)>,
    cumulative: Vec<f64>,
}

impl PairSampler for PairTable {
    fn for_day(config: &DieselNetConfig, buses: &[usize], routes: &[usize]) -> Option<(Self, f64)> {
        let mut pairs = Vec::new();
        let mut cumulative = Vec::new();
        let mut total = 0f64;
        for i in 0..buses.len() {
            for j in i + 1..buses.len() {
                total += config.pair_weight(routes[i], routes[j]);
                pairs.push((buses[i], buses[j]));
                cumulative.push(total);
            }
        }
        (total > 0.0).then_some((PairTable { pairs, cumulative }, total))
    }

    fn pair(&self, _: &DieselNetConfig, _: &mut StdRng, pick: f64) -> (usize, usize) {
        let idx = self
            .cumulative
            .partition_point(|&c| c <= pick)
            .min(self.pairs.len() - 1);
        self.pairs[idx]
    }
}

/// [`DieselNetConfig::generate_spooled`]'s sampler: the active buses
/// bucketed by route, cluster and hub, so a pair is drawn by category
/// instead of enumerated.
struct Categories {
    route_members: Vec<Vec<usize>>,
    cluster_members: Vec<Vec<usize>>,
    hub_members: Vec<Vec<usize>>,
    /// Bus → today's route, for the same-cluster rejection draw (two
    /// buses of one cluster must serve different routes).
    route_of: Vec<usize>,
    /// In-category cumulative tables.
    route_cum: Vec<f64>,
    cluster_cum: Vec<f64>,
    cluster_cross: Vec<f64>,
    hub_cum: Vec<f64>,
    /// Unweighted pair counts of the same-route and the same-cluster
    /// categories.
    w_route: f64,
    w_cluster: f64,
    /// On-duty buses serving a hub route.
    hub_total: f64,
}

impl PairSampler for Categories {
    fn for_day(config: &DieselNetConfig, buses: &[usize], routes: &[usize]) -> Option<(Self, f64)> {
        let pairs2 = |n: usize| (n * n.saturating_sub(1) / 2) as f64;
        let mut route_members: Vec<Vec<usize>> = vec![Vec::new(); config.routes];
        let mut cluster_members: Vec<Vec<usize>> = vec![Vec::new(); config.clusters];
        let mut hub_members: Vec<Vec<usize>> = vec![Vec::new(); config.clusters];
        let mut route_of = vec![usize::MAX; config.fleet_size];
        for (&bus, &route) in buses.iter().zip(routes) {
            route_members[route].push(bus);
            cluster_members[config.cluster_of(route)].push(bus);
            if config.is_hub(route) {
                hub_members[config.cluster_of(route)].push(bus);
            }
            route_of[bus] = route;
        }

        let mut route_cum = Vec::with_capacity(config.routes);
        let mut w_route = 0.0;
        for members in &route_members {
            w_route += pairs2(members.len());
            route_cum.push(w_route);
        }
        let mut cluster_cum = Vec::with_capacity(config.clusters);
        let mut cluster_cross = Vec::with_capacity(config.clusters);
        let mut w_cluster = 0.0;
        for (c, members) in cluster_members.iter().enumerate() {
            let same_route: f64 = route_members
                .iter()
                .enumerate()
                .filter(|(r, _)| config.cluster_of(*r) == c)
                .map(|(_, m)| pairs2(m.len()))
                .sum();
            let cross = (pairs2(members.len()) - same_route).max(0.0);
            cluster_cross.push(cross);
            w_cluster += cross;
            cluster_cum.push(w_cluster);
        }
        let hub_total: f64 = hub_members.iter().map(|m| m.len() as f64).sum();
        let hub_sq: f64 = hub_members.iter().map(|m| (m.len() as f64).powi(2)).sum();
        let mut hub_cum = Vec::with_capacity(config.clusters);
        let mut acc = 0.0;
        for members in &hub_members {
            acc += members.len() as f64;
            hub_cum.push(acc);
        }
        let w_bridge = (hub_total * hub_total - hub_sq) / 2.0;

        let total = config.weight_same_route * w_route
            + config.weight_same_cluster * w_cluster
            + config.weight_bridge * w_bridge;
        let sampler = Categories {
            route_members,
            cluster_members,
            hub_members,
            route_of,
            route_cum,
            cluster_cum,
            cluster_cross,
            hub_cum,
            w_route,
            w_cluster,
            hub_total,
        };
        (total > 0.0).then_some((sampler, total))
    }

    fn pair(&self, config: &DieselNetConfig, rng: &mut StdRng, pick: f64) -> (usize, usize) {
        let route_cutoff = config.weight_same_route * self.w_route;
        let cluster_cutoff = route_cutoff + config.weight_same_cluster * self.w_cluster;
        if pick < route_cutoff {
            // Same route: route r with probability ∝ C(n_r, 2).
            let t = pick / config.weight_same_route;
            let r = pick_bucket(&self.route_cum, t, |r| self.route_members[r].len() >= 2);
            pick_pair(rng, &self.route_members[r])
        } else if pick < cluster_cutoff {
            // Same cluster, different routes: cluster ∝ its cross-route
            // pair count, then rejection-sample a distinct pair until the
            // routes differ (acceptance is the exact conditional, so the
            // pair is uniform over cross-route pairs of the cluster).
            let t = (pick - route_cutoff) / config.weight_same_cluster;
            let c = pick_bucket(&self.cluster_cum, t, |c| self.cluster_cross[c] > 0.0);
            loop {
                let (x, y) = pick_pair(rng, &self.cluster_members[c]);
                if self.route_of[x] != self.route_of[y] {
                    break (x, y);
                }
            }
        } else {
            // Bridge: hub buses of two different clusters, pair
            // probability ∝ h_i · h_j.
            let hubs = &self.hub_members;
            let t = rng.gen::<f64>() * self.hub_total;
            let ci = pick_bucket(&self.hub_cum, t, |c| !hubs[c].is_empty());
            let cj = loop {
                let t = rng.gen::<f64>() * self.hub_total;
                let cj = pick_bucket(&self.hub_cum, t, |c| !hubs[c].is_empty());
                if cj != ci {
                    break cj;
                }
            };
            (
                hubs[ci][rng.gen_range(0..hubs[ci].len())],
                hubs[cj][rng.gen_range(0..hubs[cj].len())],
            )
        }
    }
}

/// A uniform unordered pair from a bucket of distinct members.
fn pick_pair(rng: &mut StdRng, members: &[usize]) -> (usize, usize) {
    let i = rng.gen_range(0..members.len());
    let mut j = rng.gen_range(0..members.len() - 1);
    if j >= i {
        j += 1;
    }
    (members[i], members[j])
}

/// Cumulative-table draw. Float rounding at the top of the range can
/// overshoot onto a trailing zero-weight bucket, so walk left until
/// `valid` (some valid bucket always exists — the category's total weight
/// was positive).
fn pick_bucket(cum: &[f64], t: f64, valid: impl Fn(usize) -> bool) -> usize {
    let mut i = cum.partition_point(|&c| c <= t).min(cum.len() - 1);
    while !valid(i) {
        i -= 1;
    }
    i
}

/// The [`ReplicaId`] used for bus number `index` (0-based).
pub fn bus_id(index: usize) -> ReplicaId {
    ReplicaId::new(index as u64 + 1)
}

/// The conventional address string for a bus node ("bus-1", "bus-2", ...).
pub fn bus_address(id: ReplicaId) -> String {
    format!("bus-{}", id.as_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_macro_stats() {
        let trace = DieselNetConfig::default().generate();
        assert_eq!(trace.days(), 17);
        let total = trace.len();
        assert!(
            (15_000..=17_000).contains(&total),
            "paper has ~16000 encounters, got {total}"
        );
        let mean = trace.mean_nodes_per_day();
        assert!(
            (20.0..=26.0).contains(&mean),
            "paper averages 23 buses/day, got {mean}"
        );
    }

    #[test]
    fn encounters_respect_daily_window() {
        let trace = DieselNetConfig::small().generate();
        for e in trace.iter() {
            let s = e.time.seconds_into_day();
            assert!(
                (8 * 3600..23 * 3600).contains(&s),
                "encounter at {} outside 08:00-23:00",
                e.time
            );
            assert_ne!(e.a, e.b, "no self-encounters");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DieselNetConfig::small().generate();
        let b = DieselNetConfig::small().generate();
        assert_eq!(a, b);
        let c = DieselNetConfig {
            seed: 999,
            ..DieselNetConfig::small()
        }
        .generate();
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn route_structure_skews_meeting_frequencies() {
        // The most-frequent partner of a bus should meet it far more often
        // than a median partner: that skew is what "selected" exploits.
        let trace = DieselNetConfig::default().generate();
        let node = bus_id(0);
        let top = trace.top_partners(node, 1);
        assert!(!top.is_empty());
        let counts = trace.pair_counts();
        let count_with = |other: ReplicaId| -> usize {
            let key = if node <= other {
                (node, other)
            } else {
                (other, node)
            };
            counts.get(&key).copied().unwrap_or(0)
        };
        let best = count_with(top[0]);
        let all: Vec<usize> = trace
            .nodes()
            .into_iter()
            .filter(|&n| n != node)
            .map(count_with)
            .collect();
        let mean = all.iter().sum::<usize>() as f64 / all.len() as f64;
        assert!(
            best as f64 > 2.0 * mean,
            "top partner ({best}) should beat mean ({mean}) by >2x"
        );
    }

    #[test]
    fn schedules_vary_across_days() {
        let trace = DieselNetConfig::default().generate();
        let d0 = trace.nodes_on_day(0);
        let d1 = trace.nodes_on_day(1);
        assert_ne!(d0, d1, "bus schedules differ between days");
    }

    #[test]
    fn bus_naming_roundtrip() {
        let id = bus_id(4);
        assert_eq!(id.as_u64(), 5);
        assert_eq!(bus_address(id), "bus-5");
    }

    #[test]
    fn city_scales_every_axis() {
        let city = DieselNetConfig::city(50);
        assert_eq!(city.fleet_size, 1_700);
        assert_eq!(city.buses_per_day, 23 * 50);
        assert_eq!(city.routes, 9 * 50);
        assert_eq!(city.clusters, 3 * 50);
        assert_eq!(city.encounters_per_day, 941 * 50);
        assert_eq!(city.days, 17, "non-scaled axes keep the paper's values");
        assert_eq!(DieselNetConfig::city(0), DieselNetConfig::city(1));
    }

    #[test]
    fn spooled_generator_matches_trace_invariants() {
        let dir = std::env::temp_dir().join(format!("replidtn-dieselnet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("small.spool");
        let cfg = DieselNetConfig::small();
        let spooled = cfg.generate_spooled(&path).expect("generate");
        assert_eq!(spooled.days(), cfg.days);
        assert_eq!(
            spooled.len(),
            (cfg.days as usize * cfg.encounters_per_day) as u64
        );
        let mut last = None;
        for e in spooled.iter().expect("open") {
            let s = e.time.seconds_into_day();
            assert!(
                (8 * 3600..23 * 3600).contains(&s),
                "encounter at {} outside 08:00-23:00",
                e.time
            );
            assert_ne!(e.a, e.b, "no self-encounters");
            let key = (e.time, e.a, e.b);
            assert!(last <= Some(key), "stream stays time-ordered");
            last = Some(key);
        }
        // Deterministic: a second run writes a byte-identical spool.
        let again = dir.join("small-again.spool");
        cfg.generate_spooled(&again).expect("regenerate");
        assert_eq!(
            std::fs::read(&path).expect("read"),
            std::fs::read(&again).expect("read again"),
        );
    }

    #[test]
    fn spooled_generator_keeps_route_skew() {
        // Category sampling must preserve the same-route dominance that
        // the "selected" filter strategy exploits.
        let dir = std::env::temp_dir().join(format!("replidtn-dieselnet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let spooled = DieselNetConfig::default()
            .generate_spooled(dir.join("default.spool"))
            .expect("generate");
        let mut counts: std::collections::BTreeMap<(ReplicaId, ReplicaId), usize> =
            std::collections::BTreeMap::new();
        let node = bus_id(0);
        for e in spooled.iter().expect("open") {
            *counts.entry((e.a, e.b)).or_default() += 1;
        }
        let count_with = |other: ReplicaId| -> usize {
            let key = if node <= other {
                (node, other)
            } else {
                (other, node)
            };
            counts.get(&key).copied().unwrap_or(0)
        };
        let all: Vec<usize> = spooled
            .nodes()
            .iter()
            .filter(|&&n| n != node)
            .map(|&n| count_with(n))
            .collect();
        let best = *all.iter().max().unwrap();
        let mean = all.iter().sum::<usize>() as f64 / all.len() as f64;
        assert!(
            best as f64 > 2.0 * mean,
            "top partner ({best}) should beat mean ({mean}) by >2x"
        );
    }

    #[test]
    #[should_panic(expected = "at least two buses")]
    fn degenerate_config_rejected() {
        DieselNetConfig {
            fleet_size: 1,
            buses_per_day: 2,
            ..DieselNetConfig::small()
        }
        .generate();
    }
}
