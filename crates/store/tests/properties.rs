//! Property-based tests for the storage engine's two core promises:
//! WAL records round-trip exactly, and recovery under arbitrary tail
//! damage never panics and never resurrects a half-written record —
//! the recovered state is always the fold of a *prefix* of the
//! operations that were applied, where a committed batch counts as one
//! operation: all of its puts and deletes, or none.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use store::crc::crc32;
use store::record::{self, Op, Record};
use store::{Batch, Store, StoreConfig};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "store-prop-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            proptest::collection::vec(any::<u8>(), 0..32),
            proptest::collection::vec(any::<u8>(), 0..128),
        )
            .prop_map(|(key, value)| Op::Put { key, value }),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(|key| Op::Delete { key }),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        arb_op().prop_map(|op| match op {
            Op::Put { key, value } => Record::Put { key, value },
            Op::Delete { key } => Record::Delete { key },
        }),
        proptest::collection::vec(arb_op(), 0..6).prop_map(Record::Batch),
    ]
}

fn arb_log() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(arb_record(), 0..20)
}

/// One put (`true`) or delete over a tiny key space, so they collide.
type KeyOp = (bool, u8, u8);

/// Appends phrased the way `Store` applies them: each entry is one
/// record — a lone put or delete, or (two ops and up) a committed batch.
fn arb_ops() -> impl Strategy<Value = Vec<Vec<KeyOp>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0u8..4, any::<u8>()), 1..5),
        1..20,
    )
}

fn apply_ops(s: &mut Store, appends: &[Vec<KeyOp>]) {
    for ops in appends {
        match ops[..] {
            [(true, key, value)] => s.put(&[key], &[value]).expect("put"),
            [(false, key, _)] => s.delete(&[key]).expect("delete"),
            _ => {
                let mut batch = Batch::new();
                for &(is_put, key, value) in ops {
                    if is_put {
                        batch.put(&[key], &[value]);
                    } else {
                        batch.delete(&[key]);
                    }
                }
                s.commit(&[&batch]).expect("commit");
            }
        }
    }
}

fn fold_ops(appends: &[Vec<KeyOp>]) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut map = BTreeMap::new();
    for &(is_put, key, value) in appends.iter().flatten() {
        if is_put {
            map.insert(vec![key], vec![value]);
        } else {
            map.remove(&vec![key]);
        }
    }
    map
}

/// Byte-at-a-time CRC-32, the definition `store::crc` must agree with.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn store_state(s: &Store) -> BTreeMap<Vec<u8>, Vec<u8>> {
    s.keys()
        .map(|k| (k.to_vec(), s.get(k).expect("listed key").to_vec()))
        .collect()
}

// ---------------------------------------------------------------------------
// Record framing round trips
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn record_encode_scan_roundtrip(records in arb_log()) {
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&r.encode());
        }
        let scan = record::scan(&log);
        prop_assert_eq!(scan.fault, None);
        prop_assert_eq!(scan.valid_len, log.len());
        let decoded: Vec<Record> = scan.records.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(decoded, records);
    }

    /// Cutting the log at any byte yields a strict prefix of the original
    /// records — never a phantom record, never a reordered one.
    #[test]
    fn truncated_log_scans_to_a_prefix(records in arb_log(), cut in 0usize..2048) {
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&r.encode());
        }
        let cut = cut % (log.len() + 1);
        let scan = record::scan(&log[..cut]);
        prop_assert!(scan.records.len() <= records.len());
        for (i, (_, r)) in scan.records.iter().enumerate() {
            prop_assert_eq!(r, &records[i], "record {} differs after cut at {}", i, cut);
        }
        prop_assert!(scan.valid_len <= cut);
    }

    /// Flipping bits anywhere in the log still yields a prefix: the scan
    /// stops at (or before) the damaged record and everything it does
    /// return is byte-for-byte one of the originals.
    #[test]
    fn corrupted_log_scans_to_a_prefix(
        records in arb_log(),
        flip in 0usize..2048,
        mask in 1u8..=255,
    ) {
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&r.encode());
        }
        if !log.is_empty() {
            let flip = flip % log.len();
            log[flip] ^= mask;
            let scan = record::scan(&log);
            for (i, (range, r)) in scan.records.iter().enumerate() {
                if range.contains(&flip) {
                    continue; // the damaged record itself may survive a lucky flip
                }
                prop_assert_eq!(r, &records[i], "undamaged record {} differs", i);
            }
        }
    }

    /// A batch is rejected as a unit: cut it or flip a bit of it at any
    /// offset and the scan returns exactly the records before it —
    /// neither the batch, nor some of its ops, nor anything after it.
    #[test]
    fn a_damaged_batch_drops_whole_with_everything_after_it(
        before in arb_log(),
        ops in proptest::collection::vec(arb_op(), 1..6),
        after in arb_log(),
        mask in 1u8..=255,
    ) {
        let encode = |records: &[Record]| -> Vec<u8> {
            records.iter().flat_map(Record::encode).collect()
        };
        let head = encode(&before);
        let batch = Record::Batch(ops).encode();
        let tail = encode(&after);
        for offset in 0..batch.len() {
            let mut torn = head.clone();
            torn.extend_from_slice(&batch[..offset]);
            let scan = record::scan(&torn);
            prop_assert_eq!(scan.valid_len, head.len(), "cut at {}", offset);
            prop_assert_eq!(scan.records.len(), before.len());

            let mut flipped = batch.clone();
            flipped[offset] ^= mask;
            let mut log = head.clone();
            log.extend_from_slice(&flipped);
            log.extend_from_slice(&tail);
            let scan = record::scan(&log);
            prop_assert_eq!(scan.valid_len, head.len(), "flip at {}", offset);
            prop_assert_eq!(scan.records.len(), before.len());
        }
    }

    /// Random bytes never make `scan` panic or claim more than it read.
    #[test]
    fn scan_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let scan = record::scan(&bytes);
        prop_assert!(scan.valid_len <= bytes.len());
        prop_assert_eq!(scan.fault.is_none(), scan.valid_len == bytes.len());
    }

    /// The sliced checksum is the bytewise one, whatever the length and
    /// wherever in memory the slice starts.
    #[test]
    fn crc32_matches_the_bytewise_definition(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        skip in 0usize..9,
    ) {
        let bytes = &bytes[skip.min(bytes.len())..];
        prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
    }

    /// Arbitrary garbage appended after valid records never extends the
    /// decoded log past the valid prefix... unless it happens to *be* a
    /// valid record, which the checksum makes vanishingly unlikely for
    /// random bytes — asserted exactly here.
    #[test]
    fn appended_garbage_never_decodes(
        records in arb_log(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&r.encode());
        }
        let valid = log.len();
        log.extend_from_slice(&garbage);
        let scan = record::scan(&log);
        prop_assert_eq!(scan.records.len(), records.len());
        prop_assert_eq!(scan.valid_len, valid);
    }
}

// ---------------------------------------------------------------------------
// Whole-store recovery under tail damage
// ---------------------------------------------------------------------------

proptest! {
    /// The flagship property: kill the store, damage its WAL tail
    /// arbitrarily (truncate and/or flip a byte), reopen. Recovery must
    /// not panic and the state must equal the fold of some prefix of the
    /// ops — no lost middles, no resurrections, no invented values.
    #[test]
    fn recovery_after_tail_damage_is_a_prefix_fold(
        ops in arb_ops(),
        chop in 0usize..64,
        flip in 0usize..512,
        mask in 0u8..=255,
    ) {
        let dir = tmp_dir("damage");
        {
            let mut s = Store::open_with(
                &dir,
                StoreConfig { fsync: false, ..StoreConfig::default() },
                obs::Obs::none(),
            ).expect("open");
            apply_ops(&mut s, &ops);
            s.sync().expect("sync");
        }

        // Damage the single live segment's tail.
        let wal = store::layout::wal_path(&dir, 1);
        let mut bytes = std::fs::read(&wal).expect("read wal");
        if !bytes.is_empty() {
            let keep = bytes.len().saturating_sub(chop % bytes.len());
            bytes.truncate(keep);
        }
        if !bytes.is_empty() && mask != 0 {
            let at = flip % bytes.len();
            bytes[at] ^= mask;
        }
        std::fs::write(&wal, &bytes).expect("write damaged wal");

        let recovered = Store::open(&dir).expect("recovery must not fail");
        let state = store_state(&recovered);
        let matches_some_prefix = (0..=ops.len())
            .any(|n| fold_ops(&ops[..n]) == state);
        prop_assert!(
            matches_some_prefix,
            "recovered state {:?} is not the fold of any prefix of {:?}",
            state, ops
        );

        // Recovery is idempotent: a second open replays the (already
        // truncated) log to the same state with nothing left to repair.
        let report = recovered.recovery().clone();
        drop(recovered);
        let again = Store::open(&dir).expect("second open");
        prop_assert_eq!(store_state(&again), state);
        prop_assert_eq!(again.recovery().truncated_bytes, 0, "first open left damage: {:?}", report);

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Checkpointed state survives loss of the *entire* live WAL segment:
    /// nothing older than the checkpoint is lost, nothing newer than the
    /// surviving log is invented.
    #[test]
    fn checkpoint_plus_damaged_wal_recovers_checkpoint_state(
        before in arb_ops(),
        after in arb_ops(),
    ) {
        let dir = tmp_dir("ckpt");
        {
            let mut s = Store::open_with(
                &dir,
                StoreConfig { fsync: false, ..StoreConfig::default() },
                obs::Obs::none(),
            ).expect("open");
            apply_ops(&mut s, &before);
            s.checkpoint().expect("checkpoint");
            apply_ops(&mut s, &after);
            s.sync().expect("sync");
        }
        // Obliterate the post-checkpoint WAL segment entirely.
        std::fs::write(store::layout::wal_path(&dir, 2), b"").expect("clear wal");

        let s = Store::open(&dir).expect("recovery");
        prop_assert_eq!(store_state(&s), fold_ops(&before));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// A crash between a retried write and its bookkeeping leaves the
    /// last record in the log twice. Whatever it was — a batch with
    /// deletes included — replaying it again changes nothing.
    #[test]
    fn a_duplicated_last_record_replays_idempotently(ops in arb_ops()) {
        let dir = tmp_dir("dup");
        {
            let mut s = Store::open_with(
                &dir,
                StoreConfig { fsync: false, ..StoreConfig::default() },
                obs::Obs::none(),
            ).expect("open");
            apply_ops(&mut s, &ops);
            s.sync().expect("sync");
        }
        let wal = store::layout::wal_path(&dir, 1);
        let mut bytes = std::fs::read(&wal).expect("read wal");
        let scan = record::scan(&bytes);
        prop_assert_eq!(scan.records.len(), ops.len());
        let (last, _) = scan.records.last().expect("ops is not empty").clone();
        bytes.extend_from_within(last);
        std::fs::write(&wal, &bytes).expect("write wal");

        let recovered = Store::open(&dir).expect("recovery");
        prop_assert_eq!(recovered.recovery().wal_records, ops.len() as u64 + 1);
        prop_assert_eq!(store_state(&recovered), fold_ops(&ops));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
