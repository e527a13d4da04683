//! `mesh_mem` and `mesh_durable` — the paper trace replayed as real TCP
//! sync sessions over 127.0.0.1: 34 Epidemic `DtnNode`s, each behind a
//! `net::NetNode` (one reactor worker, gossip and anti-entropy off). A
//! single driver thread walks the trace; every encounter is one blocking
//! `sync_with` (closed loop, one session in flight), and the e-mails are
//! injected at their timestamps as 256-byte messages under a fixed
//! user→bus map.
//!
//! * `mesh_mem`: in-memory nodes, all 15,997 encounters. `net` reactor,
//!   `transport` framing and the `pfr::wire` codec work; `emu` and `store`
//!   are absent.
//! * `mesh_durable`: the first 2,000 of those sessions between nodes with
//!   a relay cap of 16 and an attached `store::Store` (no fsync, no
//!   checkpoint — see [`Plan::durable_nodes`]). Both sides persist after
//!   every session, so `store` does about half the work; set-up is
//!   `DtnNode::open` of the 34 populated data dirs (recovery by WAL
//!   replay) plus listener start.
//!
//! What was measured is the host's loopback interface and the sandbox's
//! disk, not a radio link and not a device.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dtn::{DtnNode, EncounterBudget, PolicyKind};
use net::{MembershipConfig, NetConfig, NetNode, PollBackend, Progress, SessionMachine};
use obs::Obs;
use pfr::sync::SyncLimits;
use pfr::{ReplicaId, SimTime};
use store::{Store, StoreConfig};
use traces::{bus_address, Encounter};
use transport::frame::FrameAccum;
use transport::Peer;

use crate::harness::{self, quantile_of, Reps, Sample, Stopwatch};
use crate::probes::{self, Watch};
use crate::Ctx;

const PAYLOAD_BYTES: usize = 256;
/// Sessions a durable repetition replays.
const DURABLE_SESSIONS: usize = 2000;
/// Relay-store cap of the durable nodes (the paper's §VI-D storage
/// constraint). Unconstrained, what a node holds after two days — and so
/// what every persist writes — swings with the seed's contact graph
/// (±12 % in sessions/s over ten seeds); under the cap it does not (±3 %).
const DURABLE_RELAY_LIMIT: usize = 16;
const SMOKE_SESSIONS: usize = 200;
/// Sessions the blocking-`Peer` probe replays.
const PEER_SESSIONS: usize = 300;

/// One message to inject: when, at which bus, for which address.
#[derive(Clone)]
struct Mail {
    time: SimTime,
    src: usize,
    dest: String,
}

/// The replay schedule: the fleet, the sessions and the mail between
/// them, all derived from the seed.
struct Plan {
    ids: Vec<ReplicaId>,
    /// Sessions as (time, initiator index, responder index).
    sessions: Vec<(SimTime, usize, usize)>,
    mail: Vec<Mail>,
    relay_limit: Option<usize>,
}

/// One step of a replay, in schedule order.
enum Step<'a> {
    /// Hand this message to its source bus.
    Inject(&'a Mail),
    /// Run a session at this time between initiator and responder.
    Session(SimTime, usize, usize),
}

impl Plan {
    /// The schedule a workload replays: all of the paper trace for
    /// `mesh_mem`, its first [`DURABLE_SESSIONS`] sessions under the relay
    /// cap for `mesh_durable` (`smoke`: [`SMOKE_SESSIONS`] of the small
    /// trace).
    fn for_workload(seed: u64, smoke: bool, durable: bool) -> Plan {
        let sessions = match (smoke, durable) {
            (true, _) => SMOKE_SESSIONS,
            (false, true) => DURABLE_SESSIONS,
            (false, false) => usize::MAX,
        };
        Plan {
            relay_limit: durable.then_some(DURABLE_RELAY_LIMIT),
            ..Plan::generate(seed, smoke).prefix(sessions)
        }
    }

    /// The whole schedule of the (smoke: small) paper trace.
    fn generate(seed: u64, smoke: bool) -> Plan {
        let (trace, workload) = crate::paper::inputs(seed, smoke);
        let ids: Vec<ReplicaId> = trace.nodes().into_iter().collect();
        let index: BTreeMap<ReplicaId, usize> =
            ids.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        let sessions: Vec<(SimTime, usize, usize)> = trace
            .iter()
            .map(|e: &Encounter| (e.time, index[&e.a], index[&e.b]))
            .collect();

        // Fixed user→bus map: user i rides bus (i·7 + seed) mod fleet for
        // the whole replay. Mail between riders of one bus never crosses
        // the network and is left out.
        let bus_of: BTreeMap<&str, usize> = workload
            .users()
            .iter()
            .enumerate()
            .map(|(i, user)| {
                (
                    user.as_str(),
                    (i * 7 + (seed % ids.len() as u64) as usize) % ids.len(),
                )
            })
            .collect();
        let mail = workload
            .events()
            .iter()
            .filter_map(|event| {
                let (src, dst) = (bus_of[event.src.as_str()], bus_of[event.dst.as_str()]);
                (src != dst).then(|| Mail {
                    time: event.time,
                    src,
                    dest: bus_address(ids[dst]),
                })
            })
            .collect();
        Plan {
            ids,
            sessions,
            mail,
            relay_limit: None,
        }
    }

    fn memory_nodes(&self, obs: &Obs) -> Vec<DtnNode> {
        self.ids
            .iter()
            .map(|&id| {
                let mut node = DtnNode::new(id, &bus_address(id), PolicyKind::Epidemic);
                node.replica_mut().set_observer(obs.clone());
                node.replica_mut().set_relay_limit(self.relay_limit);
                node
            })
            .collect()
    }

    /// Fresh durable nodes over empty `dirs`. Their stores neither fsync
    /// nor checkpoint (a checkpoint always fsyncs): a sync on the
    /// sandbox's virtual disk swings fourfold over minutes (118–610
    /// sessions/s in ten runs of identical code with the default config),
    /// so the gated workload measures the store's own work — snapshot
    /// encode and WAL append per session, WAL replay at set-up — and the
    /// default-config persist is the probe `store.persist_p50_us`.
    fn durable_nodes(&self, dirs: &[PathBuf], obs: &Obs) -> Vec<DtnNode> {
        let config = StoreConfig {
            fsync: false,
            compact_min_bytes: u64::MAX,
            ..StoreConfig::default()
        };
        self.memory_nodes(obs)
            .into_iter()
            .zip(dirs)
            .map(|(mut node, dir)| {
                node.attach_store(
                    Store::open_with(dir, config, obs.clone()).expect("open a data dir"),
                );
                node
            })
            .collect()
    }

    /// The nodes a restart finds in populated `dirs`: `DtnNode::open`
    /// recovers each from its checkpoint and WAL.
    fn recovered_nodes(&self, dirs: &[PathBuf]) -> Vec<DtnNode> {
        self.ids
            .iter()
            .zip(dirs)
            .map(|(&id, dir)| {
                DtnNode::open(dir, id, &bus_address(id), PolicyKind::Epidemic)
                    .expect("recover a data dir")
            })
            .collect()
    }

    /// The schedule in order: mail due by a session's time is injected
    /// before the session runs.
    fn steps(&self) -> impl Iterator<Item = Step<'_>> {
        let mut due = self.mail.iter().peekable();
        let mut sessions = self.sessions.iter();
        std::iter::from_fn(move || {
            let &(time, a, b) = sessions.as_slice().first()?;
            if let Some(mail) = due.next_if(|m| m.time <= time) {
                return Some(Step::Inject(mail));
            }
            sessions.next();
            Some(Step::Session(time, a, b))
        })
    }

    /// The first `sessions` sessions and the mail due by the last.
    fn prefix(&self, sessions: usize) -> Plan {
        let sessions = self.sessions[..sessions.min(self.sessions.len())].to_vec();
        let last = sessions.last().map_or(SimTime::ZERO, |s| s.0);
        Plan {
            ids: self.ids.clone(),
            relay_limit: self.relay_limit,
            mail: self
                .mail
                .iter()
                .filter(|m| m.time <= last)
                .cloned()
                .collect(),
            sessions,
        }
    }

    /// The same schedule as bare in-process encounters: the reference
    /// inbox counts a socket replay must reproduce.
    fn in_process_inboxes(&self) -> Vec<usize> {
        let mut nodes = self.memory_nodes(&Obs::none());
        for step in self.steps() {
            match step {
                Step::Inject(mail) => {
                    nodes[mail.src]
                        .send(&mail.dest, vec![0x5a; PAYLOAD_BYTES], mail.time)
                        .expect("inject a message");
                }
                Step::Session(time, a, b) => {
                    let (lo, hi) = nodes.split_at_mut(a.max(b));
                    let (x, y) = (&mut lo[a.min(b)], &mut hi[0]);
                    // A session's initiator `a` pulls first, so `b` is
                    // the first source — `b.encounter(a)`.
                    if a < b {
                        y.encounter(x, time, EncounterBudget::unlimited());
                    } else {
                        x.encounter(y, time, EncounterBudget::unlimited());
                    }
                }
            }
        }
        inboxes(&nodes)
    }
}

fn inboxes(nodes: &[DtnNode]) -> Vec<usize> {
    nodes.iter().map(|n| n.inbox().len()).collect()
}

fn net_config() -> NetConfig {
    NetConfig {
        workers: 1,
        backend: PollBackend::platform_default(),
        gossip_interval: Duration::ZERO,
        anti_entropy_interval: Duration::ZERO,
        ..NetConfig::default()
    }
}

/// A started fleet: one listening `NetNode` per bus.
struct Fleet {
    nodes: Vec<NetNode>,
    addrs: Vec<String>,
}

/// What one replay of the schedule did.
struct Replay {
    sample: Sample,
    failed: u64,
    /// Per-session microseconds, when asked for.
    session_us: Vec<f64>,
}

impl Fleet {
    /// Starts every node; returns the fleet and the seconds it took.
    fn start(nodes: Vec<DtnNode>) -> (Fleet, f64) {
        let (seconds, nodes) = harness::time(|| {
            nodes
                .into_iter()
                .map(|node| {
                    NetNode::start(node, "127.0.0.1:0", net_config()).expect("bind a listener")
                })
                .collect::<Vec<NetNode>>()
        });
        let addrs = nodes.iter().map(|n| n.local_addr().to_string()).collect();
        (Fleet { nodes, addrs }, seconds)
    }

    /// Replays the plan, one blocking session at a time.
    fn replay(&self, plan: &Plan, stopwatch: &mut Stopwatch, per_session: bool) -> Replay {
        let mut failed = 0;
        let mut session_us = Vec::new();
        if per_session {
            session_us.reserve(plan.sessions.len());
        }
        let (sample, ()) = stopwatch.time(|| {
            for step in plan.steps() {
                match step {
                    Step::Inject(mail) => {
                        self.nodes[mail.src]
                            .with_node(|n| n.send(&mail.dest, vec![0x5a; PAYLOAD_BYTES], mail.time))
                            .expect("inject a message");
                    }
                    Step::Session(time, a, b) => {
                        let (seconds, result) =
                            harness::time(|| self.nodes[a].sync_with(&self.addrs[b], time));
                        if !result.is_ok() {
                            failed += 1;
                        }
                        if per_session {
                            session_us.push(seconds * 1e6);
                        }
                    }
                }
            }
        });
        Replay {
            sample,
            failed,
            session_us,
        }
    }

    /// Reactor counters summed over the fleet:
    /// (syscalls, wakeups, connection reuses, failed sessions).
    fn stats(&self) -> (u64, u64, u64, u64) {
        self.nodes.iter().fold((0, 0, 0, 0), |acc, node| {
            let s = node.stats();
            (
                acc.0 + s.syscalls,
                acc.1 + s.wakeups,
                acc.2 + s.conn_reuses,
                acc.3 + s.failed,
            )
        })
    }

    /// Stops every node and hands the `DtnNode`s back. Each stop joins
    /// threads that poll a shutdown flag, so they are stopped side by side.
    fn stop(self) -> Vec<DtnNode> {
        std::thread::scope(|scope| {
            let stops: Vec<_> = self
                .nodes
                .into_iter()
                .map(|node| scope.spawn(move || node.stop()))
                .collect();
            stops
                .into_iter()
                .map(|stop| stop.join().expect("stop a node"))
                .collect()
        })
    }
}

/// Runs `mesh_mem`.
pub fn run_mem(ctx: &mut Ctx) {
    run(ctx, false)
}

/// Runs `mesh_durable`.
pub fn run_durable(ctx: &mut Ctx) {
    run(ctx, true)
}

fn data_dirs(ctx: &Ctx, label: &str, count: usize) -> Vec<PathBuf> {
    let root = ctx.tmp.fresh_dir(label);
    (0..count).map(|i| root.join(format!("node{i}"))).collect()
}

fn run(ctx: &mut Ctx, durable: bool) {
    let (seed, smoke) = (ctx.seed, ctx.smoke);
    let plan = Plan::for_workload(seed, smoke, durable);
    let sessions = plan.sessions.len() as u64;
    let fds_before = harness::open_fds();
    let mut stopwatch = Stopwatch::new();

    // Timed repetitions: a fresh fleet each, started outside the window.
    let mut first: Option<Vec<usize>> = None;
    let mut repeats = true;
    let mut failed = 0;
    let mut start_s = f64::INFINITY;
    let mut populated: Vec<PathBuf> = Vec::new();
    let reps = Reps::collect(ctx.seconds, ctx.min_reps(), |_| {
        let nodes = if durable {
            populated = data_dirs(ctx, "data", plan.ids.len());
            plan.durable_nodes(&populated, &Obs::none())
        } else {
            plan.memory_nodes(&Obs::none())
        };
        let (fleet, started) = Fleet::start(nodes);
        start_s = start_s.min(started);
        let replay = fleet.replay(&plan, &mut stopwatch, false);
        failed += replay.failed + fleet.stats().3;
        let delivered = inboxes(&fleet.stop());
        match &first {
            Some(reference) => repeats &= *reference == delivered,
            None => first = Some(delivered),
        }
        vec![replay.sample]
    });
    let delivered = first.expect("at least one repetition ran");

    // Set-up: generate the inputs, build (durable: recover) the 34 nodes
    // and start their listeners — everything before the first session.
    // Measured after the repetitions because recovery needs the data dirs
    // the last one populated.
    let mut recovered = true;
    let setup_s = stopwatch.setup_seconds(
        smoke,
        || {
            let plan = Plan::for_workload(seed, smoke, durable);
            let nodes = if durable {
                plan.recovered_nodes(&populated)
            } else {
                plan.memory_nodes(&Obs::none())
            };
            Fleet::start(nodes).0
        },
        |fleet| {
            let found = inboxes(&fleet.stop());
            // What the last repetition acknowledged must be what a
            // restart finds.
            recovered &= !durable || found == delivered;
        },
    );
    ctx.end_to_end(setup_s, sessions, &reps, &stopwatch);
    ctx.report.failed += failed;

    ctx.report
        .check(failed == 0, || format!("{failed} sessions failed"));
    ctx.report
        .check(repeats, || "inbox totals differ between repetitions".into());
    ctx.report.check(recovered, || {
        "re-opened data dirs lost acknowledged deliveries".into()
    });
    let injected = plan.mail.len();
    let total: usize = delivered.iter().sum();
    ctx.report.check(total <= injected, || {
        format!("{total} deliveries of {injected} injections")
    });
    // The socket path must deliver what bare in-process encounters of the
    // same schedule deliver (for `mesh_durable` that is also the
    // `mesh_mem` result over the shared prefix).
    ctx.report
        .check(plan.in_process_inboxes() == delivered, || {
            "the socket replay and the in-process replay delivered differently".into()
        });
    ctx.report.check(harness::open_fds() == fds_before, || {
        format!(
            "open fds went from {fds_before:?} to {:?} across the fleets",
            harness::open_fds()
        )
    });
    if !ctx.trace {
        return;
    }

    ctx.report.set(
        "delivered_pct",
        total as f64 / injected.max(1) as f64 * 100.0,
    );
    ctx.report
        .set("dtn.epidemic.enc_per_s", sessions as f64 / reps.typical());
    ctx.report.set("net.start_ms", start_s * 1e3);

    // Traced pass: one more repetition with the registry on every
    // replica (and store), timing each session.
    let watch = Arc::new(Watch::default());
    let obs = Obs::new(watch.clone());
    let traced_dirs = data_dirs(ctx, "traced", plan.ids.len());
    let (allocations, (_, (replay, stats, nodes))) = harness::count_allocations(|| {
        ctx.tracer.span("mesh.traced_rep", |tracer| {
            let (_, fleet) = tracer.span("net.start", |_| {
                Fleet::start(if durable {
                    plan.durable_nodes(&traced_dirs, &obs)
                } else {
                    plan.memory_nodes(&obs)
                })
                .0
            });
            let (_, replay) = tracer.span("net.sync_with", |_| {
                fleet.replay(&plan, &mut stopwatch, true)
            });
            let stats = fleet.stats();
            let (_, nodes) = tracer.span("net.stop", |_| fleet.stop());
            (replay, stats, nodes)
        })
    });
    ctx.report.check(inboxes(&nodes) == delivered, || {
        "attaching an observer changed what was delivered".into()
    });
    let per_session = |n: u64| n as f64 / sessions as f64;
    let mut session_us = replay.session_us;
    println!("  net.session: {} samples", session_us.len());
    ctx.report
        .set("net.session_p50_us", quantile_of(&mut session_us, 0.5));
    ctx.report
        .set("net.session_p99_us", quantile_of(&mut session_us, 0.99));
    ctx.report
        .set("net.syscalls_per_session", per_session(stats.0));
    ctx.report
        .set("net.wakeups_per_session", per_session(stats.1));
    ctx.report.set("net.conn_reuse_ratio", per_session(stats.2));
    ctx.report.set(
        "obs.overhead_pct",
        (replay.sample.corrected() / reps.typical() - 1.0) * 100.0,
    );
    ctx.report
        .set("obs.events_per_enc", per_session(watch.events()));
    ctx.report.set("alloc.per_enc", per_session(allocations));
    let snap = watch.registry.snapshot();
    probes::report_sync_counters(&mut ctx.report, &snap, sessions as f64);
    // Both ends of a session count every frame of it.
    let frame_bytes = snap
        .histogram("transport.frame_bytes")
        .map_or(0, |h| h.sum());
    ctx.report
        .set("wire_bytes_per_enc", per_session(frame_bytes) / 2.0);

    if durable {
        // The WAL is all these stores write: they never checkpoint.
        let wal_bytes = snap.counter("store.wal.bytes");
        let user_bytes = snap.counter("sync.payload_bytes") + (injected * PAYLOAD_BYTES) as u64;
        ctx.report
            .set("store.wal_bytes_per_session", per_session(wal_bytes));
        ctx.report.set(
            "store.write_amp",
            wal_bytes as f64 / (user_bytes as f64).max(1.0),
        );
        drop(nodes);
        store_probes(ctx, &plan, &traced_dirs);
    } else {
        machine_replay(ctx, &plan, &delivered);
        peer_replay(ctx, &plan);
        probes::frames(ctx);
        // The fullest store against an empty target: the largest batch
        // this fleet can put on the wire.
        let mut nodes = nodes;
        let source = nodes
            .iter_mut()
            .max_by_key(|n| n.replica().item_count())
            .expect("a fleet has nodes");
        let mut target = DtnNode::new(ReplicaId::new(u64::MAX), "probe", PolicyKind::Epidemic);
        let now = plan.sessions.last().map_or(SimTime::ZERO, |s| s.0);
        let request = target.begin_sync_session(source.id(), now).into_owned();
        let batch = source.respond_sync(&request, SyncLimits::unlimited(), now);
        probes::wire(ctx, &batch);
    }
}

/// `store`: the fsync'd persist a default `DtnNode::open` node pays, and
/// recovery of the populated data dirs.
fn store_probes(ctx: &mut Ctx, plan: &Plan, dirs: &[PathBuf]) {
    const PERSISTS: usize = 300;
    let watch = Arc::new(Watch::default());
    let mut nodes: Vec<DtnNode> = plan
        .ids
        .iter()
        .zip(dirs)
        .map(|(&id, dir)| {
            DtnNode::open_observed(
                dir,
                id,
                &bus_address(id),
                PolicyKind::Epidemic,
                Obs::new(watch.clone()),
            )
            .expect("recover a data dir")
        })
        .collect();
    let now = SimTime::from_secs(u64::MAX / 2);
    let mut persist_us = Vec::with_capacity(PERSISTS);
    ctx.tracer.span("probe.store.persist", |_| {
        for i in 0..PERSISTS {
            let node = &mut nodes[i % dirs.len()];
            let (seconds, wrote) = harness::time(|| node.persist(now).expect("persist a node"));
            assert!(wrote, "a durable node has a store");
            persist_us.push(seconds * 1e6);
        }
    });
    // What a session would cost under the default config: both ends
    // persist once.
    let snap = watch.registry.snapshot();
    let per_session = |n: u64| n as f64 / PERSISTS as f64 * 2.0;
    ctx.report.set(
        "store.fsyncs_per_session",
        per_session(snap.counter("store.fsyncs")),
    );
    ctx.report.set(
        "store.checkpoints_per_ksession",
        per_session(snap.counter("store.checkpoints")) * 1e3,
    );
    drop(nodes);
    println!("  store.persist: {} samples", persist_us.len());
    ctx.report
        .set("store.persist_p50_us", quantile_of(&mut persist_us, 0.5));
    ctx.report
        .set("store.persist_p99_us", quantile_of(&mut persist_us, 0.99));

    let mut recovery_ms = Vec::with_capacity(dirs.len());
    ctx.tracer.span("probe.store.recovery", |_| {
        for dir in dirs {
            let (seconds, store) = harness::time(|| store::Store::open(dir));
            assert!(
                store
                    .expect("recover a data dir")
                    .recovery()
                    .recovered_state(),
                "a populated data dir recovered nothing"
            );
            recovery_ms.push(seconds * 1e3);
        }
    });
    ctx.report
        .set("store.recovery_p50_ms", quantile_of(&mut recovery_ms, 0.5));
}

/// `net`: the whole schedule through pairs of `SessionMachine`s whose
/// frames cross a `FrameAccum` in memory — no sockets, no reactor, one
/// thread. What remains of a socket session's time after subtracting
/// this is sockets and wake-ups.
fn machine_replay(ctx: &mut Ctx, plan: &Plan, delivered: &[usize]) {
    use parking_lot::Mutex;
    let nodes: Vec<Arc<Mutex<DtnNode>>> = plan
        .memory_nodes(&Obs::none())
        .into_iter()
        .map(|n| Arc::new(Mutex::new(n)))
        .collect();
    let membership = || {
        Arc::new(Mutex::new(net::Membership::new(
            0,
            "memory",
            MembershipConfig::default(),
        )))
    };
    let limits = SyncLimits::unlimited();
    let (_, seconds) = ctx.tracer.span("probe.net.machines", |_| {
        let started = std::time::Instant::now();
        for step in plan.steps() {
            let (time, a, b) = match step {
                Step::Inject(mail) => {
                    nodes[mail.src]
                        .lock()
                        .send(&mail.dest, vec![0x5a; PAYLOAD_BYTES], mail.time)
                        .expect("inject a message");
                    continue;
                }
                Step::Session(time, a, b) => (time, a, b),
            };
            let (mut initiator, mut to_responder) =
                SessionMachine::sync_initiator(nodes[a].clone(), membership(), limits, time, false)
                    .expect("open a session");
            let mut responder = SessionMachine::responder(nodes[b].clone(), membership(), limits);
            let (mut at_responder, mut at_initiator) = (FrameAccum::new(), FrameAccum::new());
            let mut to_initiator = Vec::new();
            let (mut initiator_done, mut responder_done) = (false, false);
            while !(initiator_done && responder_done) {
                assert!(
                    !to_responder.is_empty(),
                    "the session stalled with nothing in flight"
                );
                at_responder.extend(&to_responder);
                to_responder.clear();
                while let Some((kind, body)) = at_responder.next_frame().expect("parse a frame") {
                    let progress = responder
                        .on_frame(kind, &body, 0, &mut to_initiator)
                        .expect("responder step");
                    responder_done |= progress == Progress::SessionComplete;
                }
                at_initiator.extend(&to_initiator);
                to_initiator.clear();
                while let Some((kind, body)) = at_initiator.next_frame().expect("parse a frame") {
                    let progress = initiator
                        .on_frame(kind, &body, 0, &mut to_responder)
                        .expect("initiator step");
                    initiator_done |= progress == Progress::SessionComplete;
                }
            }
        }
        started.elapsed().as_secs_f64()
    });
    let inboxes: Vec<usize> = nodes.iter().map(|n| n.lock().inbox().len()).collect();
    ctx.report.check(inboxes == delivered, || {
        "sessions pumped in memory delivered differently from socket sessions".into()
    });
    ctx.report.set(
        "net.machine_us_per_session",
        seconds * 1e6 / plan.sessions.len() as f64,
    );
}

/// `transport`: a prefix of the schedule through blocking `Peer`s — the
/// second implementation of the session protocol.
fn peer_replay(ctx: &mut Ctx, plan: &Plan) {
    let watch = Arc::new(Watch::default());
    let peers: Vec<Peer> = plan
        .memory_nodes(&Obs::new(watch.clone()))
        .into_iter()
        .map(|node| Peer::start(node, "127.0.0.1:0").expect("bind a listener"))
        .collect();
    // The blocking accept loop polls, so a session costs milliseconds.
    let prefix = plan.prefix(PEER_SESSIONS);
    let mut session_us = Vec::with_capacity(prefix.sessions.len());
    ctx.tracer.span("probe.transport.peer_sessions", |_| {
        for step in prefix.steps() {
            match step {
                Step::Inject(mail) => {
                    peers[mail.src]
                        .with_node(|n| n.send(&mail.dest, vec![0x5a; PAYLOAD_BYTES], mail.time))
                        .expect("inject a message");
                }
                Step::Session(time, a, b) => {
                    let (seconds, result) =
                        harness::time(|| peers[a].sync_with(peers[b].local_addr(), time));
                    result.expect("a blocking session");
                    session_us.push(seconds * 1e6);
                }
            }
        }
    });
    std::thread::scope(|scope| {
        for peer in peers {
            scope.spawn(move || peer.stop());
        }
    });
    let snap = watch.registry.snapshot();
    let hits = snap.counter("transport.pool_hits") as f64;
    // Every session side takes its first receive buffer cold.
    let sides = (snap.counter("transport.sync_ok") + snap.counter("transport.sync_failed")) as f64;
    ctx.report
        .set("transport.pool_hit_ratio", hits / (hits + sides).max(1.0));
    ctx.report.set(
        "transport.peer_session_p50_us",
        quantile_of(&mut session_us, 0.5),
    );
}
