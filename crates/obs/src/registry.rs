//! Sharded counters and log-scale histograms fed by the event stream.

use crate::{Event, Observer};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

const SHARDS: usize = 8;
const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket `i` covers values whose bit length is `i` (bucket 0 holds the
/// value 0, bucket 1 holds 1, bucket 2 holds 2–3, ...). Exact count, sum,
/// min, and max are tracked alongside, so means are exact and quantiles
/// are bucket-resolution estimates. Merging two histograms is
/// commutative and associative.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Order-independent: merging a set of
    /// histograms yields the same result regardless of merge order.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-resolution quantile estimate (`q` in 0..=1): the upper bound
    /// of the bucket containing the `q`-th sample. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i, clamped to the observed max.
                let hi = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return hi.min(self.max);
            }
        }
        self.max
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min())
            .field("max", &self.max)
            .finish()
    }
}

#[derive(Default)]
struct Shard {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, u64>,
    /// Buffer that composed names ("policy.<p>.<kind>") are rendered into,
    /// so an event for a name seen before allocates nothing.
    name: String,
}

/// The slot for `name`, allocating its key only on first use: every later
/// event under the same name is a lookup.
fn slot<'a, V: Default>(map: &'a mut BTreeMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("present or just inserted")
}

/// Aggregates the event stream into named counters and histograms.
///
/// Lock contention is kept low by sharding: each thread is assigned one of
/// eight shards round-robin on first use, and a [`RegistrySnapshot`]
/// merges all shards on demand. Because counter addition and
/// [`Histogram::merge`] are commutative, the merged view is independent
/// of which thread recorded what.
pub struct Registry {
    shards: Vec<Mutex<Shard>>,
    next_shard: AtomicUsize,
}

thread_local! {
    static MY_SHARD: Cell<Option<usize>> = const { Cell::new(None) };
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            next_shard: AtomicUsize::new(0),
        }
    }

    fn shard(&self) -> &Mutex<Shard> {
        let idx = MY_SHARD.with(|cell| match cell.get() {
            Some(idx) => idx,
            None => {
                let idx = self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
                cell.set(Some(idx));
                idx
            }
        });
        &self.shards[idx]
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        *slot(&mut self.shard().lock().counters, name) += delta;
    }

    /// Records one sample into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        slot(&mut self.shard().lock().histograms, name).observe(value);
    }

    /// Runs `record` on this thread's shard with `name` rendered into the
    /// shard's reusable buffer.
    fn with_name(&self, name: fmt::Arguments<'_>, record: impl FnOnce(&mut Shard, &str)) {
        let mut shard = self.shard().lock();
        let mut rendered = std::mem::take(&mut shard.name);
        rendered.clear();
        fmt::write(&mut rendered, name).expect("writing to a String cannot fail");
        record(&mut shard, &rendered);
        shard.name = rendered;
    }

    fn add_fmt(&self, name: fmt::Arguments<'_>, delta: u64) {
        self.with_name(name, |shard, name| {
            *slot(&mut shard.counters, name) += delta
        });
    }

    /// Raises the named high-water gauge to at least `value`. Gauges
    /// merge by maximum (commutative, like counters by sum), so peaks
    /// recorded from any thread survive into the snapshot.
    pub fn gauge_max(&self, name: &str, value: u64) {
        let mut shard = self.shard().lock();
        let gauge = slot(&mut shard.gauges, name);
        *gauge = (*gauge).max(value);
    }

    /// Merges all shards into one consistent snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
        let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
        for shard in &self.shards {
            let shard = shard.lock();
            for (name, value) in &shard.counters {
                *counters.entry(name.clone()).or_insert(0) += value;
            }
            for (name, hist) in &shard.histograms {
                histograms.entry(name.clone()).or_default().merge(hist);
            }
            for (name, value) in &shard.gauges {
                let slot = gauges.entry(name.clone()).or_insert(0);
                *slot = (*slot).max(*value);
            }
        }
        RegistrySnapshot {
            counters,
            histograms,
            gauges,
        }
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl Observer for Registry {
    fn on_event(&self, event: &Event) {
        match event {
            Event::MessageInjected { .. } => self.add("messages.injected", 1),
            Event::SyncStarted { .. } => self.add("sync.sessions", 1),
            Event::SyncCandidatesSelected {
                candidates,
                scan_us,
                ..
            } => {
                self.add("sync.candidates", *candidates);
                self.observe("sync.selection_us", *scan_us);
            }
            Event::SweepStarted { jobs, workers } => {
                self.add("emu.sweeps", 1);
                self.add("emu.sweep.jobs", *jobs);
                self.observe("emu.sweep_workers", *workers);
            }
            Event::SyncBatchSent {
                entries,
                withheld,
                payload_bytes,
                ..
            } => {
                self.add("sync.batches", 1);
                self.add("sync.entries", *entries);
                self.add("sync.withheld", *withheld);
                self.add("sync.payload_bytes", *payload_bytes);
                self.observe("sync.batch_items", *entries);
                self.observe("sync.batch_bytes", *payload_bytes);
            }
            Event::ItemTransmitted { bytes, .. } => {
                self.add("items.transmitted", 1);
                self.add("items.transmitted_bytes", *bytes);
            }
            Event::ItemDelivered { .. } => self.add("items.delivered", 1),
            Event::ItemRelayed { .. } => self.add("items.relayed", 1),
            Event::ItemEvicted { .. } => self.add("items.evicted", 1),
            Event::ItemExpired { .. } => self.add("items.expired", 1),
            Event::MessageDropped { reason, .. } => {
                self.add_fmt(format_args!("drops.{}", reason.label()), 1);
            }
            Event::MessageDelivered { delay_secs, .. } => {
                self.add("messages.delivered", 1);
                self.observe("delivery.delay_secs", *delay_secs);
            }
            Event::EncounterCompleted {
                transmitted,
                duplicates,
                ..
            } => {
                self.add("encounters", 1);
                self.add("encounters.duplicates", *duplicates);
                self.observe("encounter.transmitted", *transmitted);
            }
            Event::KnowledgeMerged {
                knowledge_replicas,
                knowledge_exceptions,
                ..
            } => {
                self.add("knowledge.merges", 1);
                self.observe(
                    "knowledge.entries",
                    knowledge_replicas + knowledge_exceptions,
                );
            }
            Event::PolicyDecision { policy, kind, .. } => {
                self.add_fmt(format_args!("policy.{}.{}", policy, kind.label()), 1);
            }
            Event::SpanEnded {
                name, wall_micros, ..
            } => {
                self.with_name(format_args!("span.{name}.micros"), |shard, name| {
                    slot(&mut shard.histograms, name).observe(*wall_micros)
                });
            }
            Event::TransportSync {
                served,
                frame_bytes,
                ok,
                ..
            } => {
                self.add(
                    if *ok {
                        "transport.sync_ok"
                    } else {
                        "transport.sync_failed"
                    },
                    1,
                );
                self.add("transport.served", *served);
                self.observe("transport.frame_bytes", *frame_bytes);
            }
            Event::DataPlaneReuse {
                scratch_reuses,
                bytes_encoded,
                pool_hits,
                payload_shares,
                bytes_decoded,
                ..
            } => {
                self.add("wire.scratch_reuses", *scratch_reuses);
                self.add("wire.bytes_encoded", *bytes_encoded);
                self.add("transport.pool_hits", *pool_hits);
                self.add("item.payload_shares", *payload_shares);
                self.add("wire.bytes_decoded", *bytes_decoded);
            }
            Event::ReconDigest {
                kind,
                digest_bytes,
                full_bytes,
                fallback_rounds,
                ..
            } => {
                self.add_fmt(format_args!("recon.summary.{kind}"), 1);
                self.add("recon.digest_bytes", *digest_bytes);
                self.add("recon.full_bytes", *full_bytes);
                self.add(
                    "recon.bytes_saved",
                    full_bytes.saturating_sub(*digest_bytes),
                );
                self.add("recon.fallback_rounds", *fallback_rounds);
            }
            Event::WalAppend { bytes, fsync, .. } => {
                self.add("store.wal.appends", 1);
                self.add("store.wal.bytes", *bytes);
                if *fsync {
                    self.add("store.fsyncs", 1);
                }
            }
            Event::CheckpointWritten {
                entries,
                bytes,
                wall_micros,
                ..
            } => {
                self.add("store.checkpoints", 1);
                self.add("store.checkpoint.entries", *entries);
                self.add("store.checkpoint.bytes", *bytes);
                self.observe("store.checkpoint.micros", *wall_micros);
            }
            Event::StoreRecovered {
                wal_records,
                truncated_bytes,
                wall_micros,
                ..
            } => {
                self.add("store.recoveries", 1);
                self.add("store.replayed.records", *wal_records);
                self.add("store.truncated.bytes", *truncated_bytes);
                self.observe("store.recovery.micros", *wall_micros);
            }
            Event::StoreFault { op, .. } => {
                self.add_fmt(format_args!("store.faults.{op}"), 1);
            }
            Event::NetSession {
                reused,
                ok,
                wall_micros,
                ..
            } => {
                self.add("net.sessions", 1);
                if !*ok {
                    self.add("net.sessions_failed", 1);
                }
                if *reused {
                    self.add("net.conn_reuses", 1);
                }
                self.observe("net.session_micros", *wall_micros);
            }
            Event::GossipRound {
                alive,
                suspect,
                learned,
                ..
            } => {
                self.add("net.gossip.rounds", 1);
                self.add("net.gossip.learned", *learned);
                self.add("net.gossip.suspects", *suspect);
                self.observe("net.membership", *alive);
            }
            Event::NetBackpressure { queued_bytes, .. } => {
                self.add("net.backpressure_stalls", 1);
                self.observe("net.write_queue_bytes", *queued_bytes);
            }
            Event::NetPoll {
                syscalls,
                wakeups,
                woken,
                wakeup_latency_us,
                ..
            } => {
                self.add("net.syscalls", *syscalls);
                self.add("net.wakeups", *wakeups);
                if *woken > 0 {
                    self.observe("net.wakeup_latency_us", *wakeup_latency_us);
                }
            }
            Event::ReplicaSpill {
                bytes,
                resident,
                unspill,
                latency_us,
                file_bytes,
                ..
            } => {
                if *unspill {
                    self.add("shard.unspills", 1);
                    self.observe("emu.unspill_latency_us", *latency_us);
                } else {
                    self.add("shard.spills", 1);
                    self.add("shard.evictions", 1);
                    self.add("shard.spill_bytes", *bytes);
                }
                self.observe("shard.resident", *resident);
                self.gauge_max("shard.resident_peak", *resident);
                self.gauge_max("shard.spill_file_bytes", *file_bytes);
            }
        }
    }
}

/// A merged, point-in-time view of a [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    gauges: BTreeMap<String, u64>,
}

impl RegistrySnapshot {
    /// The named counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The named high-water gauge's value (0 when never touched).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, name-sorted.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All high-water gauges, name-sorted.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Renders the snapshot as CSV: one `counter,<name>,<value>` line per
    /// counter, one `gauge,<name>,<value>` line per high-water gauge,
    /// then one
    /// `histogram,<name>,<count>,<sum>,<min>,<mean>,<p50>,<p99>,<max>`
    /// line per histogram.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter,{name},{value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge,{name},{value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram,{name},{},{},{},{:.2},{},{},{}\n",
                h.count(),
                h.sum(),
                h.min(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DropReason;

    #[test]
    fn histogram_tracks_exact_moments() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1106.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let mut parts = Vec::new();
        for chunk in [[1u64, 5, 9], [2, 1000, 0], [7, 7, 7]] {
            let mut h = Histogram::new();
            for v in chunk {
                h.observe(v);
            }
            parts.push(h);
        }
        let mut forward = Histogram::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = Histogram::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.count(), 9);
    }

    #[test]
    fn quantile_brackets_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5);
        assert!((32..=63).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn registry_aggregates_events() {
        let r = Registry::new();
        r.on_event(&Event::ItemTransmitted {
            source: 1,
            target: 2,
            origin: 1,
            seq: 1,
            bytes: 10,
            matched_filter: true,
            at_secs: 0,
        });
        r.on_event(&Event::MessageDropped {
            replica: 2,
            origin: 1,
            seq: 1,
            reason: DropReason::Evicted,
        });
        r.on_event(&Event::MessageDelivered {
            replica: 2,
            origin: 1,
            seq: 1,
            delay_secs: 120,
            at_secs: 500,
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("items.transmitted"), 1);
        assert_eq!(snap.counter("items.transmitted_bytes"), 10);
        assert_eq!(snap.counter("drops.evicted"), 1);
        assert_eq!(snap.counter("messages.delivered"), 1);
        let delay = snap.histogram("delivery.delay_secs").unwrap();
        assert_eq!(delay.count(), 1);
        assert_eq!(delay.sum(), 120);
        let csv = snap.to_csv();
        assert!(csv.contains("counter,drops.evicted,1"));
        assert!(csv.contains("histogram,delivery.delay_secs,1,120,"));
    }

    #[test]
    fn data_plane_reuse_feeds_five_counters() {
        let r = Registry::new();
        r.on_event(&Event::DataPlaneReuse {
            replica: 1,
            peer: 2,
            scratch_reuses: 3,
            bytes_encoded: 512,
            pool_hits: 4,
            payload_shares: 5,
            bytes_decoded: 640,
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("wire.scratch_reuses"), 3);
        assert_eq!(snap.counter("wire.bytes_encoded"), 512);
        assert_eq!(snap.counter("transport.pool_hits"), 4);
        assert_eq!(snap.counter("item.payload_shares"), 5);
        assert_eq!(snap.counter("wire.bytes_decoded"), 640);
    }

    #[test]
    fn recon_digest_feeds_recon_counters() {
        let r = Registry::new();
        r.on_event(&Event::ReconDigest {
            replica: 1,
            peer: 2,
            kind: "delta",
            digest_bytes: 100,
            full_bytes: 900,
            fallback_rounds: 1,
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("recon.summary.delta"), 1);
        assert_eq!(snap.counter("recon.digest_bytes"), 100);
        assert_eq!(snap.counter("recon.full_bytes"), 900);
        assert_eq!(snap.counter("recon.bytes_saved"), 800);
        assert_eq!(snap.counter("recon.fallback_rounds"), 1);
    }

    #[test]
    fn shard_events_feed_shard_counters() {
        let r = Registry::new();
        r.on_event(&Event::ReplicaSpill {
            replica: 3,
            bytes: 256,
            resident: 10,
            unspill: false,
            latency_us: 0,
            file_bytes: 4096,
            knowledge_checksum: 7,
        });
        r.on_event(&Event::ReplicaSpill {
            replica: 3,
            bytes: 256,
            resident: 11,
            unspill: true,
            latency_us: 85,
            file_bytes: 4096,
            knowledge_checksum: 7,
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("shard.spills"), 1);
        assert_eq!(snap.counter("shard.evictions"), 1);
        assert_eq!(snap.counter("shard.spill_bytes"), 256);
        assert_eq!(snap.counter("shard.unspills"), 1);
        assert_eq!(snap.histogram("shard.resident").unwrap().count(), 2);
        assert_eq!(snap.gauge("shard.resident_peak"), 11);
        assert_eq!(snap.gauge("shard.spill_file_bytes"), 4096);
        let latency = snap.histogram("emu.unspill_latency_us").unwrap();
        assert_eq!(latency.count(), 1);
        assert_eq!(latency.sum(), 85);
        let csv = snap.to_csv();
        assert!(csv.contains("gauge,shard.resident_peak,11"));
    }

    #[test]
    fn net_events_feed_net_counters() {
        let r = Registry::new();
        r.on_event(&Event::NetSession {
            replica: 1,
            peer: 2,
            inbound: false,
            reused: true,
            ok: true,
            wall_micros: 1500,
        });
        r.on_event(&Event::NetSession {
            replica: 1,
            peer: 0,
            inbound: true,
            reused: false,
            ok: false,
            wall_micros: 90,
        });
        r.on_event(&Event::GossipRound {
            replica: 1,
            fanout: 3,
            alive: 12,
            suspect: 1,
            learned: 4,
        });
        r.on_event(&Event::NetBackpressure {
            replica: 1,
            peer: 2,
            queued_bytes: 1 << 20,
        });
        r.on_event(&Event::NetPoll {
            replica: 1,
            syscalls: 42,
            wakeups: 3,
            woken: 5,
            wakeup_latency_us: 120,
        });
        r.on_event(&Event::NetPoll {
            replica: 1,
            syscalls: 8,
            wakeups: 0,
            woken: 0,
            wakeup_latency_us: 0,
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("net.sessions"), 2);
        assert_eq!(snap.counter("net.sessions_failed"), 1);
        assert_eq!(snap.counter("net.conn_reuses"), 1);
        assert_eq!(snap.counter("net.gossip.rounds"), 1);
        assert_eq!(snap.counter("net.gossip.learned"), 4);
        assert_eq!(snap.counter("net.gossip.suspects"), 1);
        assert_eq!(snap.counter("net.backpressure_stalls"), 1);
        assert_eq!(snap.counter("net.syscalls"), 50);
        assert_eq!(snap.counter("net.wakeups"), 3);
        // The zero-woken batch must not pollute the latency histogram.
        assert_eq!(snap.histogram("net.wakeup_latency_us").unwrap().count(), 1);
        assert_eq!(snap.histogram("net.session_micros").unwrap().count(), 2);
        assert_eq!(snap.histogram("net.membership").unwrap().max(), 12);
        assert_eq!(
            snap.histogram("net.write_queue_bytes").unwrap().sum(),
            1 << 20
        );
    }

    #[test]
    fn concurrent_threads_land_in_one_consistent_snapshot() {
        let r = std::sync::Arc::new(Registry::new());
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let r = r.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        r.add("hits", 1);
                        r.observe("vals", i);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("hits"), 1600);
        assert_eq!(snap.histogram("vals").unwrap().count(), 1600);
    }
}
