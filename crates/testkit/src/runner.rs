//! The simulation driver: hosts, scripted steps, virtual time, and
//! invariant checking.
//!
//! A [`SimRunner`] owns a set of [`dtn::DtnNode`] hosts, advances a
//! virtual [`SimTime`] clock (no wall-clock sleeps), and runs the
//! production [`SessionMachine`] between hosts over fault-injected
//! [`SimNet`] links, both sides on the caller's thread.
//!
//! Each host also owns one production [`Membership`] per life, listening
//! at a sim address that a restore moves, as a restarted process moves to
//! a fresh port. [`Step::Gossip`] runs whatever that membership says is
//! due at the runner's virtual time — gossip exchanges and anti-entropy
//! syncs, each a [`SimNet`] session with the host at the dialed address —
//! through [`transport::run_dials`], the step `net`'s control thread books
//! its rounds with. A dial to a crashed, partitioned or unknown address
//! fails. Every host serves every request in full, as `net` and
//! `transport::Peer` do.
//!
//! Every `obs` event lands in a replayable [`Trace`], and after every step
//! the runner checks the protocol's core invariants:
//!
//! * **Knowledge monotonicity** — a replica's knowledge never shrinks
//!   (except at an explicit crash-restore, which resets the watermark).
//! * **The event-side §III checks** — every drained event also reaches an
//!   [`Invariants`] checker, the one `emu` replays wear: at most one
//!   `item_delivered` per `(item, replica)` and none before the item's
//!   `message_injected`. Restore makes the checker forget the replica's
//!   deliveries: after a rollback, re-delivery is the *correct* behaviour.
//! * **Bounded stores** — a host's relay load never exceeds its configured
//!   relay limit.
//! * **Filter consistency at quiescence** — [`SimRunner::assert_converged`]
//!   runs clean rounds until no items move, then requires every surviving
//!   injected message to sit in its destination's inbox exactly once with
//!   a byte-identical payload.
//!
//! Any violation panics with the run's `(seed, script)` pair, which is all
//! that is needed to reproduce it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use dtn::{DtnNode, PolicyKind};
use obs::{MemorySink, Obs, Observer};
use parking_lot::Mutex;
use pfr::{ItemId, Knowledge, SimTime, SyncLimits, SyncMode};
use transport::frame::{write_frame, FrameType};
use transport::{
    run_dials, Dial, GossipMessage, Membership, MembershipConfig, SessionError, SessionMachine,
    SessionOutcome,
};

use crate::diskfault::{DiskDamage, DiskFaultPlan};
use crate::fault::FaultPlan;
use crate::invariants::Invariants;
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
    /// A one-way partition: for the next `secs` virtual seconds host
    /// `from` cannot open a connection to host `to`, while `to` can still
    /// open one to `from` (and it carries both ways).
    Unreachable {
        /// The host whose dials fail.
        from: usize,
        /// The host it cannot reach.
        to: usize,
        /// Virtual seconds the partition lasts.
        secs: u64,
    },
    /// Host `host` runs the dials its membership says are due at the
    /// current virtual time: gossip exchanges and anti-entropy syncs.
    Gossip {
        /// Host index.
        host: usize,
    },
    /// A stranger connects to host `host` and sends `message` as its
    /// gossip view, as any socket may; the host merges it and answers.
    Forge {
        /// Host index.
        host: usize,
        /// The view the stranger claims.
        message: GossipMessage,
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
    /// Host `host` restarts from its last snapshot, in a new life: a
    /// fresh gossip view at a new sim address.
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
    /// Lives so far (a restore starts the next), this life's sim address
    /// and gossip view.
    life: u64,
    net_addr: String,
    membership: Arc<Mutex<Membership>>,
    /// What every life's view starts from: bootstrap addresses, and the
    /// gossip and anti-entropy periods.
    seeds: Vec<String>,
    cadence: (Duration, Duration),
}

impl SimHost {
    /// Starts the host's next life: a fresh view at a fresh sim address,
    /// seeded and scheduled as configured, with fanout picks drawn from
    /// `seed`.
    fn start_life(&mut self, seed: u64) {
        self.life += 1;
        self.net_addr = format!("{}@{}", self.address, self.life);
        let config = MembershipConfig {
            seed,
            ..MembershipConfig::default()
        };
        let mut view = Membership::new(self.replica, self.net_addr.clone(), config);
        view.set_cadence(self.cadence.0, self.cadence.1);
        for addr in &self.seeds {
            view.add_seed(addr.clone());
        }
        self.membership = Arc::new(Mutex::new(view));
    }
}

/// A sim host's periods until [`SimRunner::set_cadence`]: `NetConfig`'s
/// defaults, one gossip round a second and no anti-entropy.
const CADENCE: (Duration, Duration) = (Duration::from_secs(1), Duration::ZERO);

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
    sync_mode: SyncMode,
    time: SimTime,
    step: usize,
    hosts: Vec<SimHost>,
    trace: Trace,
    performed: Vec<Step>,
    partitions: Vec<(usize, usize, SimTime)>,
    watermarks: BTreeMap<usize, Knowledge>,
    invariants: Invariants,
    injected: Vec<Injected>,
}

impl SimRunner {
    /// A runner whose fault schedules and session behaviour are a pure
    /// function of `seed` and the performed steps.
    pub fn new(seed: u64) -> SimRunner {
        SimRunner {
            seed,
            sync_mode: SyncMode::Full,
            time: SimTime::ZERO,
            step: 0,
            hosts: Vec::new(),
            trace: Trace::new(),
            performed: Vec::new(),
            partitions: Vec::new(),
            watermarks: BTreeMap::new(),
            invariants: Invariants::new(),
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
        let replica = self.hosts.len() as u64 + 1;
        let node = DtnNode::new(pfr::ReplicaId::new(replica), address, policy);
        self.push_host(
            address,
            policy,
            node,
            Arc::new(MemorySink::unbounded()),
            None,
        )
    }

    /// Registers a built host in its first life.
    fn push_host(
        &mut self,
        address: &str,
        policy: PolicyKind,
        mut node: DtnNode,
        sink: Arc<MemorySink>,
        data_dir: Option<PathBuf>,
    ) -> usize {
        let index = self.hosts.len();
        let replica = node.id().as_u64();
        node.set_sync_mode(self.sync_mode);
        node.replica_mut().set_observer(Obs::new(sink.clone()));
        self.watermarks
            .insert(index, node.replica().knowledge().clone());
        let mut host = SimHost {
            address: address.to_string(),
            replica,
            policy,
            node: Arc::new(Mutex::new(node)),
            sink,
            snapshot: None,
            data_dir,
            crashed: false,
            life: 0,
            net_addr: String::new(),
            membership: Arc::new(Mutex::new(Membership::new(
                replica,
                "",
                MembershipConfig::default(),
            ))),
            seeds: Vec::new(),
            cadence: CADENCE,
        };
        host.start_life(self.seed);
        self.hosts.push(host);
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
        let node = match DtnNode::open_observed(
            &dir,
            pfr::ReplicaId::new(replica),
            address,
            policy,
            Obs::new(sink.clone()),
        ) {
            Ok(node) => node,
            Err(e) => self.fail(&format!("durable host {index} failed to open: {e}")),
        };
        self.push_host(
            address,
            policy,
            node,
            sink,
            Some(dir.as_ref().to_path_buf()),
        )
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
                Step::Unreachable { from, to, secs } => self.unreachable(*from, *to, *secs),
                Step::Gossip { host } => {
                    self.gossip(*host);
                }
                Step::Forge { host, message } => self.forge(*host, message),
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
        self.partitions.extend([(a, b, until), (b, a, until)]);
        self.after_step();
    }

    /// Keeps host `from` from opening connections to host `to` for the
    /// next `secs` virtual seconds; `to` can still reach `from`.
    pub fn unreachable(&mut self, from: usize, to: usize, secs: u64) {
        self.performed.push(Step::Unreachable { from, to, secs });
        let until = SimTime::from_secs(self.time.as_secs() + secs);
        self.partitions.push((from, to, until));
        self.after_step();
    }

    /// Whether a connection host `a` opens to host `b` fails.
    fn partitioned(&self, a: usize, b: usize) -> bool {
        self.partitions
            .iter()
            .any(|&(x, y, until)| until > self.time && x == a && y == b)
    }

    /// The virtual time in milliseconds, the clock memberships read.
    fn now_ms(&self) -> u64 {
        self.time.as_secs() * 1000
    }

    /// Each step's link seed, so per-frame fault draws do not depend on
    /// how many frames earlier steps produced.
    fn link_seed(&self) -> u64 {
        self.seed
            .wrapping_add((self.step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Sets how often host `host` gossips and runs anti-entropy syncs
    /// under [`Step::Gossip`], for this life and every later one (zero
    /// turns an activity off). A host starts at one gossip round a
    /// second and no anti-entropy, as `NetConfig` does.
    pub fn set_cadence(&mut self, host: usize, gossip: Duration, anti_entropy: Duration) {
        let host = &mut self.hosts[host];
        host.cadence = (gossip, anti_entropy);
        host.membership.lock().set_cadence(gossip, anti_entropy);
    }

    /// Gives host `host` a bootstrap address to gossip at, for this life
    /// and every later one.
    pub fn add_seed(&mut self, host: usize, addr: &str) {
        let host = &mut self.hosts[host];
        host.seeds.push(addr.to_string());
        host.membership.lock().add_seed(addr);
    }

    /// Host `host`'s sim address in its current life.
    pub fn net_addr(&self, host: usize) -> String {
        self.hosts[host].net_addr.clone()
    }

    /// Runs a closure against one host's current gossip view.
    pub fn with_membership<T>(&self, host: usize, f: impl FnOnce(&mut Membership) -> T) -> T {
        f(&mut self.hosts[host].membership.lock())
    }

    /// Host `host` runs the dials its membership says are due now, in
    /// order, each over a clean [`SimNet`] link, books each outcome and
    /// closes the round with its `gossip_round` event. Returns every dial
    /// with whether it succeeded; a crashed host dials nothing.
    pub fn gossip(&mut self, host: usize) -> Vec<(Dial, bool)> {
        self.performed.push(Step::Gossip { host });
        let mut dialed = Vec::new();
        if !self.hosts[host].crashed {
            let now_ms = self.now_ms();
            let membership = Arc::clone(&self.hosts[host].membership);
            let obs = self.hosts[host].node.lock().replica().observer().clone();
            let dials = membership.lock().due(now_ms);
            run_dials(&membership, &dials, &obs, |dial| {
                let ok = self.dial(host, dial, now_ms);
                dialed.push((dial.clone(), ok));
                ok
            });
        }
        self.after_step();
        dialed
    }

    /// One dial from host `from`: whether its session completed. The
    /// address must name a live host other than `from` that `from` can
    /// reach.
    fn dial(&self, from: usize, dial: &Dial, now_ms: u64) -> bool {
        let (Dial::Gossip(addr) | Dial::Sync(addr)) = dial;
        let Some(to) = self.hosts.iter().position(|h| h.net_addr == *addr) else {
            return false;
        };
        if to == from || self.hosts[to].crashed || self.partitioned(from, to) {
            return false;
        }
        let (node, membership) = {
            let host = &self.hosts[from];
            (Arc::clone(&host.node), Arc::clone(&host.membership))
        };
        let opened = match dial {
            Dial::Gossip(_) => SessionMachine::gossip_initiator(node, membership, now_ms, false),
            Dial::Sync(_) => SessionMachine::sync_initiator(
                node,
                membership,
                SyncLimits::unlimited(),
                self.time,
                false,
            ),
        };
        let (mut initiator, opening) = opened.expect("an opening frame always fits");
        let (initiator_error, _) = self.carry(to, &mut initiator, opening, &FaultPlan::clean());
        initiator_error.is_none()
    }

    /// Runs `initiator`'s session, opened with `opening`, against a fresh
    /// responder on host `to` over a link governed by `plan`.
    fn carry(
        &self,
        to: usize,
        initiator: &mut SessionMachine,
        opening: Vec<u8>,
        plan: &FaultPlan,
    ) -> (Option<SessionError>, SessionOutcome) {
        let host = &self.hosts[to];
        let mut responder = SessionMachine::responder(
            Arc::clone(&host.node),
            Arc::clone(&host.membership),
            SyncLimits::unlimited(),
        );
        let (initiator_error, responder_error) = SimNet::new(self.link_seed(), plan).run(
            self.now_ms(),
            initiator,
            opening,
            &mut responder,
        );
        (initiator_error, responder.outcome(responder_error))
    }

    /// A stranger dials host `host` and sends `message` as its gossip
    /// view over a clean link; the host merges it and answers from idle,
    /// as it would any inbound gossip. Nothing reaches a crashed host.
    pub fn forge(&mut self, host: usize, message: &GossipMessage) {
        self.performed.push(Step::Forge {
            host,
            message: message.clone(),
        });
        if !self.hosts[host].crashed {
            let stranger = message.sender.replica;
            let node = DtnNode::new(
                pfr::ReplicaId::new(stranger),
                "stranger",
                PolicyKind::Epidemic,
            );
            let view = Membership::new(stranger, "stranger", MembershipConfig::default());
            let (mut initiator, _) = SessionMachine::gossip_initiator(
                Arc::new(Mutex::new(node)),
                Arc::new(Mutex::new(view)),
                self.now_ms(),
                false,
            )
            .expect("a gossip frame always fits");
            let mut opening = Vec::new();
            write_frame(
                &mut opening,
                FrameType::Gossip,
                &pfr::wire::to_bytes(message),
            )
            .expect("a forged view fits a frame");
            self.carry(host, &mut initiator, opening, &FaultPlan::clean());
        }
        self.after_step();
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

        let (mut initiator, opening) = SessionMachine::sync_initiator(
            Arc::clone(&self.hosts[a].node),
            Arc::clone(&self.hosts[a].membership),
            SyncLimits::unlimited(),
            self.time,
            false,
        )
        .expect("a hello frame always fits");
        let (initiator_error, responder) = self.carry(b, &mut initiator, opening, plan);
        self.after_step();
        EncounterOutcome::Completed(Box::new(SessionPair {
            initiator: initiator.outcome(initiator_error),
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
    /// convergence obligation. The host starts a new life: a fresh gossip
    /// view, with its configured seeds and cadence, at a new sim address.
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
        self.invariants.forget(replica);
        *self.hosts[host].node.lock() = node;
        self.hosts[host].crashed = false;
        self.hosts[host].start_life(self.seed);

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

    /// Drains every host's sink into the trace (in fixed host order) and
    /// checks the per-step invariants.
    fn after_step(&mut self) {
        let step = self.step;
        self.step += 1;

        // 1. Record events and run the event-side checks on them.
        for h in 0..self.hosts.len() {
            let replica = self.hosts[h].replica;
            for event in self.hosts[h].sink.take() {
                self.invariants.on_event(&event);
                self.trace.record(step, replica, event);
            }
        }
        let mut violations = self.invariants.violations();

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
