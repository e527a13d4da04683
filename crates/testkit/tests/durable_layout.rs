//! The durable key layout against the specification that already exists:
//! [`DtnNode::snapshot`]. Random scripts drive a few durable nodes under
//! every policy — sends, Full and Digest encounters, relay caps, message
//! lifetimes, tombstones, address changes, stale stores re-attached,
//! persists, crashes with and without disk damage — and after every
//! persist a fresh [`DtnNode::open`] of the directory must snapshot
//! byte-identically to the live node (relay FIFO order and routing state
//! included). After a crash it must equal the snapshot at *some* earlier
//! persist: never a later one, never a mixture of two.
//!
//! The base seed honours `TESTKIT_SEED`; a failure prints the case's
//! `(seed, script)` so it can be replayed with [`run_script`].

use std::path::{Path, PathBuf};

use dtn::{DtnNode, EncounterBudget, PolicyKind};
use pfr::{ReplicaId, SimDuration, SimTime, SyncMode};
use proptest::prelude::TestRng;
use store::Store;
use testkit::DiskFaultPlan;

const CASES: u64 = 96;
const STEPS: usize = 90;

fn base_seed() -> u64 {
    std::env::var("TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0u64)
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(0x1A_70)
}

/// One step of a script. Node fields index the fleet.
#[derive(Clone, Debug)]
enum Op {
    /// `from` sends to `to`'s base address; with a lifetime, the message
    /// expires that many seconds later.
    Send {
        from: usize,
        to: usize,
        lifetime: Option<u64>,
    },
    /// One encounter, both sides in Digest mode or both in Full.
    Encounter {
        a: usize,
        b: usize,
        digest: bool,
    },
    /// Time passes (lifetimes run out at the next encounter).
    Wait {
        secs: u64,
    },
    RelayLimit {
        node: usize,
        limit: Option<usize>,
    },
    /// Tombstones the node's `nth` stored item (modulo how many it has).
    Delete {
        node: usize,
        nth: usize,
    },
    /// The node answers for its base address plus these extras.
    Addresses {
        node: usize,
        extras: Vec<usize>,
    },
    Persist {
        node: usize,
    },
    /// Copies the node's directory aside, as it stands.
    Backup {
        node: usize,
    },
    /// Re-attaches the node to a store over its backup: a directory
    /// written from an earlier state of it.
    AttachBackup {
        node: usize,
    },
    /// Drops the node without persisting, damages its directory, reopens.
    Crash {
        node: usize,
        damage: Vec<Damage>,
    },
}

#[derive(Clone, Copy, Debug)]
enum Damage {
    TornTail(u64),
    Corrupt { offset_back: u64, xor: u8 },
    DuplicateLast,
    RemoveCheckpoint,
}

fn below(rng: &mut TestRng, bound: usize) -> usize {
    (rng.next_u64() % bound as u64) as usize
}

fn random_script(rng: &mut TestRng, nodes: usize) -> Vec<Op> {
    (0..STEPS)
        .map(|_| {
            let node = below(rng, nodes);
            let other = (node + 1 + below(rng, nodes - 1)) % nodes;
            match below(rng, 40) {
                0..=9 => Op::Send {
                    from: node,
                    // Two addresses nobody answers for keep some messages
                    // travelling as relay copies for the whole script.
                    to: (node + 1 + below(rng, nodes + 1)) % (nodes + 2),
                    lifetime: (below(rng, 3) == 0).then(|| 30 + below(rng, 200) as u64),
                },
                10..=23 => Op::Encounter {
                    a: node,
                    b: other,
                    digest: below(rng, 2) == 0,
                },
                24 => Op::Wait {
                    secs: 10 + below(rng, 120) as u64,
                },
                25 | 26 => Op::RelayLimit {
                    node,
                    limit: (below(rng, 4) != 0).then(|| below(rng, 4)),
                },
                27 | 28 => Op::Delete {
                    node,
                    nth: below(rng, 8),
                },
                29 | 30 => Op::Addresses {
                    node,
                    extras: (0..below(rng, 3)).map(|_| below(rng, nodes + 2)).collect(),
                },
                31..=35 => Op::Persist { node },
                36 => Op::Backup { node },
                37 => Op::AttachBackup { node },
                _ => Op::Crash {
                    node,
                    damage: (0..below(rng, 3))
                        .map(|_| match below(rng, 5) {
                            0 | 1 => Damage::TornTail(1 + below(rng, 400) as u64),
                            2 => Damage::Corrupt {
                                offset_back: below(rng, 600) as u64,
                                xor: 1 + below(rng, 255) as u8,
                            },
                            3 => Damage::DuplicateLast,
                            _ => Damage::RemoveCheckpoint,
                        })
                        .collect(),
                },
            }
        })
        .collect()
}

fn address(node: usize) -> String {
    format!("n{node}")
}

/// One durable node of the fleet and what its directory has been told.
struct Host {
    id: ReplicaId,
    node: DtnNode,
    dir: PathBuf,
    backup: Option<PathBuf>,
    /// `node.snapshot()` at each persist the directory may still hold,
    /// oldest first, after the pristine node's.
    history: Vec<Vec<u8>>,
    /// `history` as of the backup.
    backup_history: Vec<Vec<u8>>,
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create the copy");
    for entry in std::fs::read_dir(from).expect("list the directory") {
        let entry = entry.expect("read a directory entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy a file");
    }
}

/// The node's snapshot as a restore of it re-encodes it. A crash that
/// loses a node's own writes makes it issue their version numbers again,
/// after which an item can list its own version among its ancestors; the
/// snapshot decoder drops that entry, so such a snapshot is not its own
/// restore's. Everywhere else this is `node.snapshot()`.
fn canonical(node: &DtnNode) -> Vec<u8> {
    DtnNode::restore(&node.snapshot())
        .expect("restore a snapshot")
        .snapshot()
}

impl Host {
    fn reopen(&self, policy: PolicyKind) -> DtnNode {
        let base = address(self.id.as_u64() as usize);
        DtnNode::open(&self.dir, self.id, &base, policy).expect("reopen the directory")
    }
}

/// Replays `script` over `nodes` durable nodes running `policy`,
/// asserting the layout ≡ snapshot properties at every persist and crash.
fn run_script(root: &Path, policy: PolicyKind, nodes: usize, script: &[Op]) {
    let _ = std::fs::remove_dir_all(root);
    let mut fleet: Vec<Host> = (0..nodes)
        .map(|i| {
            let id = ReplicaId::new(i as u64);
            let dir = root.join(format!("node{i}"));
            let node = DtnNode::open(&dir, id, &address(i), policy).expect("open a fresh dir");
            let history = vec![canonical(&node)];
            Host {
                id,
                node,
                dir,
                backup: None,
                history,
                backup_history: Vec::new(),
            }
        })
        .collect();
    let mut now = SimTime::from_secs(1);
    let mut attachments = 0;

    for (step, op) in script.iter().enumerate() {
        now += SimDuration::from_secs(1);
        match op {
            Op::Send { from, to, lifetime } => {
                let payload = format!("step {step}").into_bytes();
                let sender = &mut fleet[*from].node;
                match lifetime {
                    Some(secs) => sender.send_with_lifetime(
                        &address(*to),
                        payload,
                        now,
                        SimDuration::from_secs(*secs),
                    ),
                    None => sender.send(&address(*to), payload, now),
                }
                .expect("send");
            }
            Op::Encounter { a, b, digest } => {
                let (lo, hi) = fleet.split_at_mut(*a.max(b));
                let (x, y) = (&mut lo[*a.min(b)].node, &mut hi[0].node);
                let mode = if *digest {
                    SyncMode::Digest
                } else {
                    SyncMode::Full
                };
                x.set_sync_mode(mode);
                y.set_sync_mode(mode);
                x.encounter(y, now, EncounterBudget::unlimited());
            }
            Op::Wait { secs } => now += SimDuration::from_secs(*secs),
            Op::RelayLimit { node, limit } => {
                fleet[*node].node.replica_mut().set_relay_limit(*limit);
            }
            Op::Delete { node, nth } => {
                let replica = fleet[*node].node.replica_mut();
                let ids = replica.item_ids();
                if !ids.is_empty() {
                    replica.delete(ids[nth % ids.len()]).expect("listed id");
                }
            }
            Op::Addresses { node, extras } => {
                let addrs = std::iter::once(*node).chain(extras.iter().copied());
                fleet[*node].node.set_addresses(addrs.map(address));
            }
            Op::Persist { node } => {
                let host = &mut fleet[*node];
                assert!(host.node.persist(now).expect("persist"));
                let live = canonical(&host.node);
                let mut reopened = host.reopen(policy);
                assert!(
                    canonical(&reopened) == live,
                    "step {step}: the directory reopens to something other than the live node"
                );
                // Both have nothing to add to what the directory holds.
                let wal_bytes = |n: &DtnNode| n.store().expect("durable").wal_bytes();
                let before = (wal_bytes(&reopened), wal_bytes(&host.node));
                assert!(reopened.persist(now).expect("persist"));
                assert!(host.node.persist(now).expect("persist"));
                assert_eq!(
                    (wal_bytes(&reopened), wal_bytes(&host.node)),
                    before,
                    "step {step}: an unchanged node appended to its WAL"
                );
                host.history.push(live);
            }
            Op::Backup { node } => {
                let host = &mut fleet[*node];
                let backup = root.join(format!("backup{node}"));
                copy_dir(&host.dir, &backup);
                host.backup = Some(backup);
                host.backup_history = host.history.clone();
            }
            Op::AttachBackup { node } => {
                let host = &mut fleet[*node];
                let Some(backup) = &host.backup else { continue };
                // A fresh copy each time: the backup itself stays as it was.
                attachments += 1;
                host.dir = root.join(format!("node{node}-attached{attachments}"));
                copy_dir(backup, &host.dir);
                host.node
                    .attach_store(Store::open(&host.dir).expect("open the copy"));
                host.history = host.backup_history.clone();
            }
            Op::Crash { node, damage } => {
                let host = &mut fleet[*node];
                // Drop the live node first: its store must be closed.
                host.node = DtnNode::new(host.id, "crashed", policy);
                let plan = damage
                    .iter()
                    .fold(DiskFaultPlan::clean(), |plan, d| match *d {
                        Damage::TornTail(bytes) => plan.torn_tail(bytes),
                        Damage::Corrupt { offset_back, xor } => {
                            plan.corrupt_record(offset_back, xor)
                        }
                        Damage::DuplicateLast => plan.duplicate_last_record(),
                        Damage::RemoveCheckpoint => plan.remove_checkpoint(),
                    });
                if host.dir.exists() {
                    plan.apply(&host.dir).expect("damage the directory");
                }
                host.node = host.reopen(policy);
                let found = canonical(&host.node);
                let at = host.history.iter().rposition(|past| *past == found);
                if damage.is_empty() {
                    assert!(
                        at == Some(host.history.len() - 1),
                        "step {step}: a clean crash lost or invented state (found persist {at:?} \
                         of {})",
                        host.history.len() - 1
                    );
                }
                let at = at.unwrap_or_else(|| {
                    panic!("step {step}: the recovered node equals no earlier persist point")
                });
                host.history.truncate(at + 1);
            }
        }
    }
    std::fs::remove_dir_all(root).expect("cleanup");
}

#[test]
fn the_key_layout_reopens_to_the_snapshot_under_every_policy_and_fault() {
    let root = std::env::temp_dir().join(format!(
        "testkit-durable-layout-{}-{}",
        std::process::id(),
        base_seed()
    ));
    for case in 0..CASES {
        let seed = base_seed().wrapping_add(case);
        let mut rng = TestRng::seed_from_u64(seed);
        let policy = PolicyKind::EXTENDED[(case % 6) as usize];
        let nodes = 3 + below(&mut rng, 3);
        let script = random_script(&mut rng, nodes);
        let outcome = std::panic::catch_unwind(|| run_script(&root, policy, nodes, &script));
        if let Err(panic) = outcome {
            eprintln!("durable layout failed: seed {seed}, {policy:?}, {nodes} nodes, script:");
            for (step, op) in script.iter().enumerate() {
                eprintln!("  {step}: {op:?}");
            }
            let _ = std::fs::remove_dir_all(&root);
            std::panic::resume_unwind(panic);
        }
    }
}
