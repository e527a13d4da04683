//! The simulation driver: hosts, scripted steps, virtual time, and
//! invariant checking.
//!
//! A [`SimRunner`] owns a set of [`dtn::DtnNode`] hosts, advances a
//! virtual [`SimTime`] clock (no wall-clock sleeps), and drives the
//! production [`SessionMachine`] through the production blocking
//! [`pump`] between hosts over fault-injected [`SimNet`] links.
//! Every `obs` event lands in a replayable [`Trace`], and after every step
//! the runner checks the protocol's core invariants:
//!
//! * **Knowledge monotonicity** — a replica's knowledge never shrinks
//!   (except at an explicit crash-restore, which resets the watermark).
//! * **At-most-once delivery** — no `(item, replica)` pair sees a second
//!   `item_delivered` event (restore clears the replica's history: after a
//!   rollback, re-delivery is the *correct* behaviour).
//! * **Bounded stores** — a host's relay load never exceeds its configured
//!   relay limit.
//! * **Filter consistency at quiescence** — [`SimRunner::assert_converged`]
//!   runs clean rounds until no items move, then requires every surviving
//!   injected message to sit in its destination's inbox exactly once with
//!   a byte-identical payload.
//!
//! Any violation panics with the run's `(seed, script)` pair, which is all
//! that is needed to reproduce it.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dtn::{DtnNode, PolicyKind};
use obs::{Event, MemorySink, Obs};
use parking_lot::Mutex;
use pfr::{ItemId, Knowledge, SimTime, SyncLimits, SyncMode};
use transport::{pump, Membership, MembershipConfig, SessionError, SessionMachine, SessionOutcome};

use crate::diskfault::{DiskDamage, DiskFaultPlan};
use crate::fault::FaultPlan;
use crate::simnet::SimNet;
use crate::trace::Trace;

/// One scripted action. A `Vec<Step>` is a complete, printable scenario:
/// the runner logs every performed step, so a failure message carries the
/// exact script to replay.
#[derive(Clone, Debug)]
pub enum Step {
    /// Host `from` injects a message for address `dest`.
    Send {
        /// Sending host index.
        from: usize,
        /// Destination address.
        dest: String,
        /// Message body.
        payload: Vec<u8>,
    },
    /// Hosts `a` and `b` meet and run a full two-direction sync session
    /// over a link governed by `plan`.
    Encounter {
        /// Initiator host index.
        a: usize,
        /// Responder host index.
        b: usize,
        /// Frame faults applied to the link.
        plan: FaultPlan,
    },
    /// Virtual time advances by `secs` seconds.
    Advance {
        /// Seconds to advance.
        secs: u64,
    },
    /// Hosts `a` and `b` cannot meet for the next `secs` seconds of
    /// virtual time; encounters between them are skipped until then.
    Partition {
        /// One side of the partition.
        a: usize,
        /// The other side.
        b: usize,
        /// Virtual seconds the partition lasts.
        secs: u64,
    },
    /// Host `host` writes a durable snapshot of its full state.
    Snapshot {
        /// Host index.
        host: usize,
    },
    /// Host `host` crashes: it loses everything since its last snapshot
    /// and cannot meet anyone until restored.
    Crash {
        /// Host index.
        host: usize,
    },
    /// Host `host` restarts from its last snapshot.
    Restore {
        /// Host index.
        host: usize,
    },
    /// Scripted damage to a crashed durable host's data directory —
    /// torn WAL tails, flipped bytes, lost checkpoints, duplicated
    /// records — applied before the host restores from disk.
    DiskFault {
        /// Host index (must be durable and crashed).
        host: usize,
        /// The damage to apply.
        plan: DiskFaultPlan,
    },
}

/// Why an encounter did not run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// The two hosts are partitioned at the current virtual time.
    Partitioned,
    /// At least one host is crashed.
    Crashed,
}

/// Both sides' results from one encounter.
#[derive(Debug)]
pub struct SessionPair {
    /// The initiator's outcome (partial report + optional typed error).
    pub initiator: SessionOutcome,
    /// The responder's outcome.
    pub responder: SessionOutcome,
}

/// The result of one scripted encounter.
#[derive(Debug)]
pub enum EncounterOutcome {
    /// The encounter was skipped before any bytes moved.
    Skipped(SkipReason),
    /// Both sessions ran to completion or to a typed error.
    Completed(Box<SessionPair>),
}

impl EncounterOutcome {
    /// Whether both sides completed without error.
    pub fn is_clean(&self) -> bool {
        match self {
            EncounterOutcome::Skipped(_) => false,
            EncounterOutcome::Completed(pair) => {
                pair.initiator.error.is_none() && pair.responder.error.is_none()
            }
        }
    }

    /// The typed errors the encounter produced, if any.
    pub fn errors(&self) -> Vec<&SessionError> {
        match self {
            EncounterOutcome::Skipped(_) => Vec::new(),
            EncounterOutcome::Completed(pair) => pair
                .initiator
                .error
                .iter()
                .chain(pair.responder.error.iter())
                .collect(),
        }
    }
}

struct SimHost {
    address: String,
    replica: u64,
    policy: PolicyKind,
    node: Arc<Mutex<DtnNode>>,
    sink: Arc<MemorySink>,
    snapshot: Option<Vec<u8>>,
    /// `Some` for durable hosts: the store directory a crash restores
    /// from (instead of the in-memory snapshot).
    data_dir: Option<PathBuf>,
    crashed: bool,
}

impl SimHost {
    /// The view a session machine answers gossip from; sim sessions never
    /// gossip, so a fresh one per session does.
    fn membership(&self) -> Arc<Mutex<Membership>> {
        Arc::new(Mutex::new(Membership::new(
            self.replica,
            self.address.clone(),
            MembershipConfig::default(),
        )))
    }
}

struct Injected {
    id: ItemId,
    dest: String,
    payload: Vec<u8>,
}

/// The deterministic fault-injection simulation driver. See the module
/// docs for the invariants it enforces.
///
/// # Examples
///
/// ```
/// use dtn::PolicyKind;
/// use testkit::{Direction, FaultPlan, SimRunner};
///
/// let mut sim = SimRunner::new(7);
/// let a = sim.add_host("a", PolicyKind::Epidemic);
/// let b = sim.add_host("b", PolicyKind::Epidemic);
/// sim.send(a, "b", b"hello".to_vec());
/// // First encounter dies mid-session (the responder's batch is cut)...
/// let plan = FaultPlan::clean().cut_after(Direction::BToA, 1);
/// let outcome = sim.encounter_with_faults(a, b, &plan);
/// assert!(!outcome.is_clean());
/// // ...but a later clean encounter still converges.
/// sim.assert_converged();
/// ```
pub struct SimRunner {
    seed: u64,
    limits: SyncLimits,
    sync_mode: SyncMode,
    time: SimTime,
    step: usize,
    hosts: Vec<SimHost>,
    trace: Trace,
    performed: Vec<Step>,
    partitions: Vec<(usize, usize, SimTime)>,
    watermarks: BTreeMap<usize, Knowledge>,
    delivered: BTreeMap<u64, BTreeSet<(u64, u64)>>,
    injected: Vec<Injected>,
}

impl SimRunner {
    /// A runner whose fault schedules and session behaviour are a pure
    /// function of `seed` and the performed steps.
    pub fn new(seed: u64) -> SimRunner {
        SimRunner {
            seed,
            limits: SyncLimits::unlimited(),
            sync_mode: SyncMode::Full,
            time: SimTime::ZERO,
            step: 0,
            hosts: Vec::new(),
            trace: Trace::new(),
            performed: Vec::new(),
            partitions: Vec::new(),
            watermarks: BTreeMap::new(),
            delivered: BTreeMap::new(),
            injected: Vec::new(),
        }
    }

    /// The seed this run was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Puts every host — existing, future, and *restored* — in the given
    /// sync mode. Sync mode is runtime configuration, not replica state:
    /// it is not captured by snapshots, so the runner re-applies it after
    /// every [`Step::Restore`] exactly as a redeployed binary would.
    pub fn set_sync_mode(&mut self, mode: SyncMode) {
        self.sync_mode = mode;
        for host in &self.hosts {
            host.node.lock().set_sync_mode(mode);
        }
    }

    /// Adds a host with the given address and routing policy; returns its
    /// index. Replica ids are assigned densely starting at 1.
    pub fn add_host(&mut self, address: &str, policy: PolicyKind) -> usize {
        let index = self.hosts.len();
        let replica = index as u64 + 1;
        let mut node = DtnNode::new(pfr::ReplicaId::new(replica), address, policy);
        node.set_sync_mode(self.sync_mode);
        let sink = Arc::new(MemorySink::unbounded());
        node.replica_mut().set_observer(Obs::new(sink.clone()));
        self.watermarks
            .insert(index, node.replica().knowledge().clone());
        self.hosts.push(SimHost {
            address: address.to_string(),
            replica,
            policy,
            node: Arc::new(Mutex::new(node)),
            sink,
            snapshot: None,
            data_dir: None,
            crashed: false,
        });
        index
    }

    /// Adds a *durable* host whose state lives in the store directory
    /// `dir` (created if missing, recovered if it holds a previous run's
    /// state). The session machine persists the node after every
    /// encounter, so [`Step::Crash`] on a durable host models `kill -9`:
    /// [`Step::Restore`] reopens from disk — optionally after a
    /// [`Step::DiskFault`] damaged the directory — instead of from an
    /// in-memory snapshot. Store events (WAL appends, recoveries) carry
    /// wall-clock timings, so durable hosts trade byte-identical traces
    /// for real disk I/O.
    pub fn add_durable_host(
        &mut self,
        address: &str,
        policy: PolicyKind,
        dir: impl AsRef<Path>,
    ) -> usize {
        let index = self.hosts.len();
        let replica = index as u64 + 1;
        let sink = Arc::new(MemorySink::unbounded());
        let mut node = match DtnNode::open_observed(
            &dir,
            pfr::ReplicaId::new(replica),
            address,
            policy,
            Obs::new(sink.clone()),
        ) {
            Ok(node) => node,
            Err(e) => self.fail(&format!("durable host {index} failed to open: {e}")),
        };
        node.set_sync_mode(self.sync_mode);
        node.replica_mut().set_observer(Obs::new(sink.clone()));
        self.watermarks
            .insert(index, node.replica().knowledge().clone());
        self.hosts.push(SimHost {
            address: address.to_string(),
            replica,
            policy,
            node: Arc::new(Mutex::new(node)),
            sink,
            snapshot: None,
            data_dir: Some(dir.as_ref().to_path_buf()),
            crashed: false,
        });
        index
    }

    /// Caps the relay store of host `host` at `limit` items; the bounded-
    /// store invariant checks the cap after every step.
    pub fn set_relay_limit(&mut self, host: usize, limit: usize) {
        self.hosts[host]
            .node
            .lock()
            .replica_mut()
            .set_relay_limit(Some(limit));
    }

    /// Runs a closure against one host's node (for assertions).
    pub fn with_node<T>(&self, host: usize, f: impl FnOnce(&mut DtnNode) -> T) -> T {
        f(&mut self.hosts[host].node.lock())
    }

    /// Runs every step of a script in order.
    pub fn run_script(&mut self, steps: &[Step]) {
        // Dispatch by reference: cloning whole steps (fault plans, full
        // payloads) per iteration was pure churn.
        for step in steps {
            match step {
                Step::Send {
                    from,
                    dest,
                    payload,
                } => {
                    self.send(*from, dest, payload.clone());
                }
                Step::Encounter { a, b, plan } => {
                    self.encounter_with_faults(*a, *b, plan);
                }
                Step::Advance { secs } => self.advance(*secs),
                Step::Partition { a, b, secs } => self.partition(*a, *b, *secs),
                Step::Snapshot { host } => self.snapshot(*host),
                Step::Crash { host } => self.crash(*host),
                Step::Restore { host } => self.restore(*host),
                Step::DiskFault { host, plan } => {
                    self.disk_fault(*host, plan);
                }
            }
        }
    }

    /// Host `from` injects a message addressed to `dest`. Returns the
    /// message's item id.
    pub fn send(&mut self, from: usize, dest: &str, payload: Vec<u8>) -> ItemId {
        self.performed.push(Step::Send {
            from,
            dest: dest.to_string(),
            payload: payload.clone(),
        });
        if self.hosts[from].crashed {
            self.fail(&format!("script bug: send from crashed host {from}"));
        }
        let now = self.time;
        let id = match self.hosts[from]
            .node
            .lock()
            .send(dest, payload.clone(), now)
        {
            Ok(id) => id,
            Err(e) => self.fail(&format!("send from host {from} failed: {e}")),
        };
        self.injected.push(Injected {
            id,
            dest: dest.to_string(),
            payload,
        });
        self.after_step();
        id
    }

    /// Advances virtual time and expires any messages whose lifetime ends.
    pub fn advance(&mut self, secs: u64) {
        self.performed.push(Step::Advance { secs });
        self.time = SimTime::from_secs(self.time.as_secs() + secs);
        let now = self.time;
        for host in &self.hosts {
            if !host.crashed {
                host.node.lock().expire_messages(now);
            }
        }
        self.after_step();
    }

    /// Partitions hosts `a` and `b` for the next `secs` virtual seconds.
    pub fn partition(&mut self, a: usize, b: usize, secs: u64) {
        self.performed.push(Step::Partition { a, b, secs });
        let until = SimTime::from_secs(self.time.as_secs() + secs);
        self.partitions.push((a, b, until));
        self.after_step();
    }

    fn partitioned(&self, a: usize, b: usize) -> bool {
        self.partitions
            .iter()
            .any(|&(x, y, until)| until > self.time && ((x == a && y == b) || (x == b && y == a)))
    }

    /// Runs a fault-free encounter between hosts `a` and `b`.
    pub fn encounter(&mut self, a: usize, b: usize) -> EncounterOutcome {
        self.encounter_with_faults(a, b, &FaultPlan::clean())
    }

    /// Runs one full sync session (host `a` initiating) over a [`SimNet`]
    /// link governed by `plan`. Skipped encounters (partition, crash)
    /// move no bytes. Session errors do not panic — they come back as
    /// typed errors inside the outcome, and the runner's invariants are
    /// checked either way.
    pub fn encounter_with_faults(
        &mut self,
        a: usize,
        b: usize,
        plan: &FaultPlan,
    ) -> EncounterOutcome {
        self.performed.push(Step::Encounter {
            a,
            b,
            plan: plan.clone(),
        });
        if self.partitioned(a, b) {
            self.after_step();
            return EncounterOutcome::Skipped(SkipReason::Partitioned);
        }
        if self.hosts[a].crashed || self.hosts[b].crashed {
            self.after_step();
            return EncounterOutcome::Skipped(SkipReason::Crashed);
        }

        // Each step gets its own link seed so per-frame fault draws do not
        // depend on how many frames earlier steps produced.
        let link_seed = self
            .seed
            .wrapping_add((self.step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (mut end_a, mut end_b) = SimNet::pair(link_seed, plan);
        let (mut initiator, opening) = SessionMachine::sync_initiator(
            Arc::clone(&self.hosts[a].node),
            self.hosts[a].membership(),
            self.limits,
            self.time,
            false,
        )
        .expect("a hello frame always fits");
        let mut responder = SessionMachine::responder(
            Arc::clone(&self.hosts[b].node),
            self.hosts[b].membership(),
            self.limits,
        );

        // The sim runs on virtual time; nothing here gossips.
        let no_clock = || 0;
        let (initiator, responder) = std::thread::scope(|scope| {
            // Each end is dropped the moment its pump returns: hanging up
            // is what tells the other side a failed session is over, and
            // what ends the responder's wait for another one.
            let responding = scope.spawn(move || {
                let error = pump(&mut end_b, &mut responder, Vec::new(), &no_clock).err();
                responder.outcome(error)
            });
            let error = pump(&mut end_a, &mut initiator, opening, &no_clock).err();
            drop(end_a);
            let responder = responding.join().expect("responder thread panicked");
            (initiator.outcome(error), responder)
        });

        self.after_step();
        EncounterOutcome::Completed(Box::new(SessionPair {
            initiator,
            responder,
        }))
    }

    /// Snapshots host `host`'s full durable state. For a durable host
    /// this persists to its store (a WAL append); otherwise the snapshot
    /// is held in memory.
    pub fn snapshot(&mut self, host: usize) {
        self.performed.push(Step::Snapshot { host });
        if self.hosts[host].data_dir.is_some() {
            let now = self.time;
            if let Err(e) = self.hosts[host].node.lock().persist(now) {
                self.fail(&format!("durable host {host} failed to persist: {e}"));
            }
        } else {
            let bytes = self.hosts[host].node.lock().snapshot();
            self.hosts[host].snapshot = Some(bytes);
        }
        self.after_step();
    }

    /// Crashes host `host`: until restored it meets nobody, and restoring
    /// rolls it back to its last snapshot (in-memory hosts) or to what
    /// its data directory holds (durable hosts, for which this is a
    /// `kill -9` — whatever the WAL has is what survives).
    pub fn crash(&mut self, host: usize) {
        self.performed.push(Step::Crash { host });
        if self.hosts[host].snapshot.is_none() && self.hosts[host].data_dir.is_none() {
            self.fail(&format!(
                "script bug: host {host} crashed without a snapshot to restore from"
            ));
        }
        self.hosts[host].crashed = true;
        self.after_step();
    }

    /// Applies scripted disk damage to a crashed durable host's data
    /// directory (see [`DiskFaultPlan`]), returning what actually
    /// changed on disk.
    pub fn disk_fault(&mut self, host: usize, plan: &DiskFaultPlan) -> DiskDamage {
        self.performed.push(Step::DiskFault {
            host,
            plan: plan.clone(),
        });
        let dir = match &self.hosts[host].data_dir {
            Some(dir) => dir.clone(),
            None => self.fail(&format!(
                "script bug: disk fault on non-durable host {host}"
            )),
        };
        if !self.hosts[host].crashed {
            self.fail(&format!(
                "script bug: disk fault on live host {host} (crash it first)"
            ));
        }
        let damage = match plan.apply(&dir) {
            Ok(damage) => damage,
            Err(e) => self.fail(&format!("disk fault on host {host} failed: {e}")),
        };
        self.after_step();
        damage
    }

    /// Restores host `host` from its last snapshot — or, for a durable
    /// host, by reopening its data directory through the storage
    /// engine's crash recovery (torn tails truncated, corrupt
    /// checkpoints skipped). The host's knowledge watermark and delivery
    /// history reset to the restored state: re-receiving what the
    /// rollback lost is correct behaviour, not a duplicate. Messages
    /// that the crash erased from the whole network are dropped from the
    /// convergence obligation.
    pub fn restore(&mut self, host: usize) {
        self.performed.push(Step::Restore { host });
        let mut node = if let Some(dir) = self.hosts[host].data_dir.clone() {
            let id = pfr::ReplicaId::new(self.hosts[host].replica);
            let address = self.hosts[host].address.clone();
            let policy = self.hosts[host].policy;
            let obs = Obs::new(self.hosts[host].sink.clone());
            match DtnNode::open_observed(&dir, id, &address, policy, obs) {
                Ok(node) => node,
                Err(e) => self.fail(&format!("durable host {host} failed to reopen: {e}")),
            }
        } else {
            let bytes = match &self.hosts[host].snapshot {
                Some(bytes) => bytes.clone(),
                None => self.fail(&format!(
                    "script bug: restore of host {host} without snapshot"
                )),
            };
            match DtnNode::restore(&bytes) {
                Ok(node) => node,
                Err(e) => self.fail(&format!("snapshot of host {host} failed to restore: {e}")),
            }
        };
        // Sync mode is runtime config, not snapshotted — a restored node
        // starts in `SyncMode::Full` unless the runner re-applies its own.
        node.set_sync_mode(self.sync_mode);
        node.replica_mut()
            .set_observer(Obs::new(self.hosts[host].sink.clone()));
        let replica = self.hosts[host].replica;
        self.watermarks
            .insert(host, node.replica().knowledge().clone());
        self.delivered.remove(&replica);
        *self.hosts[host].node.lock() = node;
        self.hosts[host].crashed = false;

        // A message originated here after the snapshot may now exist
        // nowhere; it can never be delivered, so it leaves the obligation.
        let hosts = &self.hosts;
        self.injected.retain(|inj| {
            inj.id.origin().as_u64() != replica
                || hosts
                    .iter()
                    .any(|h| !h.crashed && h.node.lock().replica().contains_item(inj.id))
        });
        self.after_step();
    }

    /// Runs clean full-mesh rounds until a whole round moves no items
    /// (quiescence). Returns the number of rounds run. Panics if the
    /// network refuses to settle.
    pub fn settle(&mut self) -> usize {
        let live: Vec<usize> = (0..self.hosts.len())
            .filter(|&h| !self.hosts[h].crashed)
            .collect();
        let bound = 4 * live.len() * live.len() + 4;
        for round in 0..bound {
            let mut moved = 0usize;
            for (i, &a) in live.iter().enumerate() {
                for &b in &live[i + 1..] {
                    if let EncounterOutcome::Completed(pair) = self.encounter(a, b) {
                        for outcome in [&pair.initiator, &pair.responder] {
                            moved += outcome.report.served;
                            if let Some(pulled) = &outcome.report.pulled {
                                moved += pulled.transmitted;
                            }
                        }
                    }
                }
            }
            if moved == 0 {
                return round + 1;
            }
        }
        self.fail(&format!("network failed to quiesce within {bound} rounds"));
    }

    /// The quiescence check: settles the network, then requires every
    /// surviving injected message to appear in its destination's inbox
    /// exactly once, byte-identical. Crashed hosts must be restored (or
    /// the script is incomplete) and partitions must have expired.
    pub fn assert_converged(&mut self) {
        if let Some(h) = (0..self.hosts.len()).find(|&h| self.hosts[h].crashed) {
            self.fail(&format!(
                "script bug: host {h} still crashed at convergence check"
            ));
        }
        self.partitions.retain(|&(_, _, until)| until > self.time);
        if !self.partitions.is_empty() {
            self.fail("script bug: partitions still active at convergence check");
        }
        self.settle();
        for i in 0..self.injected.len() {
            let (id, dest, payload) = {
                let inj = &self.injected[i];
                (inj.id, inj.dest.clone(), inj.payload.clone())
            };
            for h in 0..self.hosts.len() {
                if self.hosts[h].address != dest {
                    continue;
                }
                let inbox = self.hosts[h].node.lock().inbox();
                let copies: Vec<_> = inbox.iter().filter(|m| m.id == id).collect();
                if copies.len() != 1 {
                    self.fail(&format!(
                        "filter consistency violated: message {id} appears {} times in \
                         host {h}'s inbox (want exactly 1)",
                        copies.len()
                    ));
                }
                if copies[0].payload != payload {
                    self.fail(&format!(
                        "payload of message {id} was corrupted in delivery to host {h}"
                    ));
                }
            }
        }
    }

    /// The recorded trace so far (all deterministic events, in order).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the runner, returning the full trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Drains every host's sink into the trace (fixed host order keeps
    /// the merge deterministic despite session threads) and checks the
    /// per-step invariants.
    fn after_step(&mut self) {
        let step = self.step;
        self.step += 1;

        // 1. Record events and enforce at-most-once delivery.
        let mut violations: Vec<String> = Vec::new();
        for h in 0..self.hosts.len() {
            let replica = self.hosts[h].replica;
            for event in self.hosts[h].sink.take() {
                if let Event::ItemDelivered {
                    replica: r,
                    origin,
                    seq,
                    ..
                } = event
                {
                    let seen = self.delivered.entry(r).or_default();
                    if !seen.insert((origin, seq)) {
                        violations.push(format!(
                            "at-most-once violated: item {origin}#{seq} delivered twice \
                             to replica {r}"
                        ));
                    }
                }
                self.trace.record(step, replica, event);
            }
        }

        // 2. Knowledge monotonicity (crashed hosts keep their watermark
        // frozen until restore resets it).
        for h in 0..self.hosts.len() {
            if self.hosts[h].crashed {
                continue;
            }
            // Clone the knowledge only when it actually grew; most steps
            // leave most hosts untouched, and the per-step clone of every
            // host's full knowledge was the runner's dominant allocation.
            let node = self.hosts[h].node.lock();
            let knowledge = node.replica().knowledge();
            let (violated, grew) = match self.watermarks.get(&h) {
                Some(prev) => (!knowledge.dominates(prev), !prev.dominates(knowledge)),
                None => (false, true),
            };
            if violated {
                violations.push(format!(
                    "knowledge monotonicity violated: host {h}'s knowledge shrank"
                ));
            }
            if grew {
                let knowledge = knowledge.clone();
                drop(node);
                self.watermarks.insert(h, knowledge);
            }
        }

        // 3. Bounded stores.
        for h in 0..self.hosts.len() {
            let node = self.hosts[h].node.lock();
            let load = node.replica().relay_load();
            if let Some(limit) = node.replica().relay_limit() {
                if load > limit {
                    violations.push(format!(
                        "store bound violated: host {h} holds {load} relay items, limit {limit}"
                    ));
                }
            }
        }

        if let Some(first) = violations.first() {
            let first = first.clone();
            self.fail(&first);
        }
    }

    /// Panics with everything needed to reproduce the failure: the
    /// message, the seed, and the full performed script.
    fn fail(&self, message: &str) -> ! {
        panic!(
            "testkit invariant violation at step {}: {message}\n\
             reproduce with seed {} and script:\n{:#?}",
            self.step, self.seed, self.performed
        );
    }
}

impl std::fmt::Debug for SimRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRunner")
            .field("seed", &self.seed)
            .field("hosts", &self.hosts.len())
            .field("step", &self.step)
            .field("now", &self.time)
            .finish()
    }
}
