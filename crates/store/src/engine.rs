//! The storage engine: an in-memory map made durable by WAL + checkpoints.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use obs::{Event, EventKind, Obs};
use pfr::wire::Writer;

use crate::checkpoint::{self, CheckpointFault};
use crate::layout;
use crate::record::{self, Batch, Op, OpRef, Record};
use crate::StoreError;

/// Tuning knobs for a [`Store`].
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Fsync the WAL after every append (durable up to the last call)
    /// versus letting the OS flush lazily (durable up to the last
    /// checkpoint or explicit [`Store::sync`]). Defaults to `true`.
    pub fsync: bool,
    /// Never compact below this many WAL bytes, so small stores are not
    /// constantly checkpointing; above it, compact once the WAL outgrows
    /// the last checkpoint four times. Defaults to 64 KiB.
    pub compact_min_bytes: u64,
}

/// Compact once the live WAL outgrows the last checkpoint by this factor.
const COMPACT_FACTOR: u64 = 4;

/// Checkpoint generations retained: the newest is the recovery base, the
/// other the fallback for a corrupt newest — the fewest that survive a
/// torn checkpoint.
const KEEP_GENERATIONS: usize = 2;

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: true,
            compact_min_bytes: 64 * 1024,
        }
    }
}

/// What [`Store::open`] found and did while rebuilding state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// Sequence of the checkpoint used as the base (0 = started empty).
    pub checkpoint_seq: u64,
    /// Entries loaded from that checkpoint.
    pub checkpoint_entries: usize,
    /// Checkpoint files that failed validation and were skipped.
    pub corrupt_checkpoints: usize,
    /// WAL segments replayed.
    pub wal_segments: usize,
    /// Valid records replayed over the checkpoint.
    pub wal_records: u64,
    /// Torn/corrupt tail bytes truncated away.
    pub truncated_bytes: u64,
    /// Wall-clock recovery time, microseconds.
    pub wall_micros: u64,
}

impl RecoveryReport {
    /// Whether recovery found any pre-existing durable state.
    pub fn recovered_state(&self) -> bool {
        self.checkpoint_entries > 0 || self.wal_records > 0
    }
}

/// A durable map from byte keys to byte values. See the crate docs for
/// the log/checkpoint design; see [`StoreConfig`] for tuning.
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    obs: Obs,
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    active_seq: u64,
    wal: File,
    wal_bytes: u64,
    last_checkpoint_bytes: u64,
    recovery: RecoveryReport,
    /// The framed bytes of the append in progress (capacity reused).
    frame: Writer,
}

impl Store {
    /// Opens (creating if necessary) the store in `dir` with default
    /// config and no observer, running recovery.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures. Corrupt data is *not*
    /// an error — see [`Store::recovery`] for what was tolerated.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::open_with(dir, StoreConfig::default(), Obs::none())
    }

    /// Opens the store with explicit config and observer.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        obs: Obs,
    ) -> Result<Store, StoreError> {
        let started = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io("create_dir", &dir, e))?;
        for tmp in layout::temp_files(&dir).map_err(|e| StoreError::io("scan", &dir, e))? {
            std::fs::remove_file(&tmp).map_err(|e| StoreError::io("remove_tmp", &tmp, e))?;
        }

        let mut report = RecoveryReport::default();

        // Newest checkpoint that validates wins; older generations are the
        // fallback when the newest was torn or rotted.
        let mut map = BTreeMap::new();
        let checkpoints = layout::checkpoints(&dir).map_err(|e| StoreError::io("scan", &dir, e))?;
        for &(seq, ref path) in checkpoints.iter().rev() {
            match checkpoint::load(path, seq) {
                Ok(entries) => {
                    report.checkpoint_seq = seq;
                    report.checkpoint_entries = entries.len();
                    map = entries;
                    break;
                }
                Err(CheckpointFault::Unreadable(_))
                | Err(CheckpointFault::Invalid(_))
                | Err(CheckpointFault::SeqMismatch { .. }) => {
                    report.corrupt_checkpoints += 1;
                }
            }
        }

        // Replay every segment the base checkpoint does not cover,
        // truncating each at its first bad record.
        let mut wal_bytes = 0u64;
        let mut max_wal_seq = 0u64;
        let segments = layout::wal_segments(&dir).map_err(|e| StoreError::io("scan", &dir, e))?;
        for (seq, path) in segments {
            max_wal_seq = max_wal_seq.max(seq);
            if seq < report.checkpoint_seq {
                continue;
            }
            let bytes = std::fs::read(&path).map_err(|e| StoreError::io("read_wal", &path, e))?;
            let scan = record::scan(&bytes);
            report.wal_segments += 1;
            report.wal_records += scan.records.len() as u64;
            for (_, rec) in scan.records {
                replay(&mut map, rec);
            }
            if scan.valid_len < bytes.len() {
                report.truncated_bytes += (bytes.len() - scan.valid_len) as u64;
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| StoreError::io("truncate_wal", &path, e))?;
                file.set_len(scan.valid_len as u64)
                    .map_err(|e| StoreError::io("truncate_wal", &path, e))?;
                file.sync_all()
                    .map_err(|e| StoreError::io("fsync", &path, e))?;
            }
            wal_bytes += scan.valid_len as u64;
        }

        let active_seq = report.checkpoint_seq.max(max_wal_seq).max(1);
        let wal_path = layout::wal_path(&dir, active_seq);
        let fresh = !wal_path.exists();
        let wal = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&wal_path)
            .map_err(|e| StoreError::io("open_wal", &wal_path, e))?;
        if fresh {
            checkpoint::sync_dir(&wal_path).map_err(|e| StoreError::io("fsync_dir", &dir, e))?;
        }
        let last_checkpoint_bytes = if report.checkpoint_seq > 0 {
            std::fs::metadata(layout::checkpoint_path(&dir, report.checkpoint_seq))
                .map(|m| m.len())
                .unwrap_or(0)
        } else {
            0
        };

        report.wall_micros = started.elapsed().as_micros() as u64;
        let (seq, records, truncated, micros) = (
            report.checkpoint_seq,
            report.wal_records,
            report.truncated_bytes,
            report.wall_micros,
        );
        obs.emit(EventKind::StoreRecovered, || Event::StoreRecovered {
            checkpoint_seq: seq,
            wal_records: records,
            truncated_bytes: truncated,
            wall_micros: micros,
        });

        Ok(Store {
            dir,
            config,
            obs,
            map,
            active_seq,
            wal,
            wal_bytes,
            last_checkpoint_bytes,
            recovery: report,
            frame: Writer::new(),
        })
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current generation (active WAL segment) number.
    pub fn active_seq(&self) -> u64 {
        self.active_seq
    }

    /// Live WAL bytes not yet covered by a checkpoint.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// The value bound to `key`, if any.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(Vec::as_slice)
    }

    /// Whether `key` has a binding.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    /// All keys, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &[u8]> {
        self.map.keys().map(Vec::as_slice)
    }

    /// All bindings, sorted by key.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Number of live bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no bindings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Durably binds `key` to `value`: the WAL record is on disk (and
    /// fsynced, under the default config) before the in-memory map
    /// changes. May trigger compaction.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; on error the in-memory map is unchanged.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        let op = OpRef::Put { key, value };
        self.frame.clear();
        record::frame_op(&mut self.frame, op);
        self.append(std::iter::once(op))
    }

    /// Durably removes `key`'s binding. A no-op record is still written
    /// for an absent key (the caller usually cannot know).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; on error the in-memory map is unchanged.
    pub fn delete(&mut self, key: &[u8]) -> Result<(), StoreError> {
        let op = OpRef::Delete { key };
        self.frame.clear();
        record::frame_op(&mut self.frame, op);
        self.append(std::iter::once(op))
    }

    /// Durably applies `batches` in order: each non-empty batch is one
    /// WAL record — all of its ops reach the map, or after a crash none
    /// do — and the whole group costs one `write`, at most one fsync and
    /// one [`Event::WalAppend`]. Recovery keeps a prefix of the group's
    /// records, so put last what may be lost alone. Nothing staged means
    /// nothing written. May trigger compaction.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; on error the in-memory map is unchanged.
    pub fn commit(&mut self, batches: &[&Batch]) -> Result<(), StoreError> {
        self.frame.clear();
        for batch in batches.iter().filter(|b| !b.is_empty()) {
            record::frame_batch(&mut self.frame, batch);
        }
        if self.frame.is_empty() {
            return Ok(());
        }
        self.append(batches.iter().flat_map(|b| b.ops()))
    }

    /// Appends the framed bytes in `self.frame`, then applies `ops` (what
    /// those bytes encode) to the map.
    fn append<'a>(&mut self, ops: impl Iterator<Item = OpRef<'a>>) -> Result<(), StoreError> {
        let bytes = self.frame.as_slice();
        let wal_error = |op, e| StoreError::io(op, layout::wal_path(&self.dir, self.active_seq), e);
        self.wal
            .write_all(bytes)
            .map_err(|e| wal_error("append", e))?;
        if self.config.fsync {
            self.wal.sync_data().map_err(|e| wal_error("fsync", e))?;
        }
        let len = bytes.len() as u64;
        self.wal_bytes += len;
        for op in ops {
            apply(&mut self.map, op);
        }
        let (fsync, total) = (self.config.fsync, self.wal_bytes);
        self.obs.emit(EventKind::WalAppend, || Event::WalAppend {
            bytes: len,
            fsync,
            wal_bytes: total,
        });
        if self.wal_bytes
            > self
                .config
                .compact_min_bytes
                .max(COMPACT_FACTOR * self.last_checkpoint_bytes)
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Fsyncs the active WAL segment (useful with `fsync: false` configs
    /// before handing control to something that might kill the process).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.wal
            .sync_data()
            .map_err(|e| StoreError::io("fsync", layout::wal_path(&self.dir, self.active_seq), e))
    }

    /// Writes a checkpoint of the current state, rotates to a fresh WAL
    /// segment, and prunes superseded generations. Returns the new
    /// generation number.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`]; on error the previous generation is intact.
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        let started = Instant::now();
        let new_seq = self.active_seq + 1;
        let ckpt_path = layout::checkpoint_path(&self.dir, new_seq);
        let ckpt_bytes = checkpoint::write(&ckpt_path, new_seq, &self.map)
            .map_err(|e| StoreError::io("checkpoint", &ckpt_path, e))?;

        let wal_path = layout::wal_path(&self.dir, new_seq);
        let wal = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&wal_path)
            .map_err(|e| StoreError::io("open_wal", &wal_path, e))?;
        checkpoint::sync_dir(&wal_path).map_err(|e| StoreError::io("fsync_dir", &self.dir, e))?;

        self.wal = wal;
        self.active_seq = new_seq;
        self.wal_bytes = 0;
        self.last_checkpoint_bytes = ckpt_bytes;
        self.prune()?;

        let (entries, micros) = (self.map.len() as u64, started.elapsed().as_micros() as u64);
        self.obs
            .emit(EventKind::CheckpointWritten, || Event::CheckpointWritten {
                seq: new_seq,
                entries,
                bytes: ckpt_bytes,
                wall_micros: micros,
            });
        Ok(new_seq)
    }

    /// Deletes generations superseded beyond [`KEEP_GENERATIONS`].
    fn prune(&self) -> Result<(), StoreError> {
        let checkpoints =
            layout::checkpoints(&self.dir).map_err(|e| StoreError::io("scan", &self.dir, e))?;
        if checkpoints.len() <= KEEP_GENERATIONS {
            return Ok(());
        }
        let Some(&(min_keep, _)) = checkpoints.get(checkpoints.len() - KEEP_GENERATIONS) else {
            return Ok(());
        };
        for (seq, path) in &checkpoints {
            if *seq < min_keep {
                std::fs::remove_file(path).map_err(|e| StoreError::io("prune", path, e))?;
            }
        }
        let segments =
            layout::wal_segments(&self.dir).map_err(|e| StoreError::io("scan", &self.dir, e))?;
        for (seq, path) in &segments {
            if *seq < min_keep {
                std::fs::remove_file(path).map_err(|e| StoreError::io("prune", path, e))?;
            }
        }
        Ok(())
    }
}

/// Applies a recovered record, moving its owned keys and values in.
fn replay(map: &mut BTreeMap<Vec<u8>, Vec<u8>>, rec: Record) {
    let mut one = |op| match op {
        Op::Put { key, value } => {
            map.insert(key, value);
        }
        Op::Delete { key } => {
            map.remove(&key);
        }
    };
    match rec {
        Record::Put { key, value } => one(Op::Put { key, value }),
        Record::Delete { key } => one(Op::Delete { key }),
        Record::Batch(ops) => ops.into_iter().for_each(one),
    }
}

/// Applies a just-appended op: the one copy out of the caller's slices,
/// into the existing value's buffer when the key is already bound.
fn apply(map: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: OpRef<'_>) {
    match op {
        OpRef::Put { key, value } => match map.get_mut(key) {
            Some(bound) => {
                bound.clear();
                bound.extend_from_slice(value);
            }
            None => {
                map.insert(key.to_vec(), value.to_vec());
            }
        },
        OpRef::Delete { key } => {
            map.remove(key);
        }
    }
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("entries", &self.map.len())
            .field("active_seq", &self.active_seq)
            .field("wal_bytes", &self.wal_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "store-engine-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn puts_survive_reopen_without_checkpoint() {
        let dir = tmp_dir("reopen");
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(b"a", b"1").unwrap();
            s.put(b"b", b"2").unwrap();
            s.put(b"a", b"3").unwrap();
            s.delete(b"b").unwrap();
            // Dropped without checkpoint: only the WAL holds the state.
        }
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get(b"a"), Some(&b"3"[..]), "last write wins");
        assert_eq!(s.get(b"b"), None, "delete replayed");
        assert_eq!(s.recovery().wal_records, 4);
        assert_eq!(s.recovery().checkpoint_seq, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_commit_is_one_append_of_atomic_batches() {
        let dir = tmp_dir("commit");
        let sink = std::sync::Arc::new(obs::MemorySink::unbounded());
        let (mut state, mut stamp) = (Batch::new(), Batch::new());
        {
            let mut s =
                Store::open_with(&dir, StoreConfig::default(), Obs::new(sink.clone())).unwrap();
            s.put(b"gone", b"soon").unwrap();
            sink.take();
            let before = s.wal_bytes();
            s.commit(&[&state, &stamp]).unwrap();
            assert_eq!(s.wal_bytes(), before, "nothing staged, nothing appended");
            assert!(sink.take().is_empty());

            state.put(b"a", b"1");
            state.delete(b"gone");
            state.put(b"a", b"2");
            stamp.put(b"at", b"9");
            s.commit(&[&state, &stamp]).unwrap();
            assert_eq!(s.get(b"a"), Some(&b"2"[..]), "ops apply in order");
            assert!(!s.contains(b"gone"));
            let appends = sink.take();
            assert_eq!(appends.len(), 1, "one WalAppend for the group: {appends:?}");
        }
        // Tear the trailing record: the group's first batch stands whole.
        let wal = layout::wal_path(&dir, 1);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 1]).unwrap();
        {
            let s = Store::open(&dir).unwrap();
            assert_eq!(s.recovery().wal_records, 2);
            assert_eq!(s.get(b"a"), Some(&b"2"[..]));
            assert!(!s.contains(b"gone") && !s.contains(b"at"));
        }
        // Tear into the first batch: none of its ops survive.
        std::fs::write(&wal, &bytes[..bytes.len() - 20]).unwrap();
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.recovery().wal_records, 1);
        assert_eq!(s.get(b"gone"), Some(&b"soon"[..]));
        assert!(!s.contains(b"a"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn");
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(b"kept", b"yes").unwrap();
            s.put(b"torn", b"half").unwrap();
        }
        // Tear the last record: chop 2 bytes off the active segment.
        let wal = layout::wal_path(&dir, 1);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 2]).unwrap();

        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get(b"kept"), Some(&b"yes"[..]));
        assert_eq!(s.get(b"torn"), None, "half-written record not applied");
        assert!(s.recovery().truncated_bytes > 0);
        // The file was physically truncated, so appends continue cleanly.
        let len_after = std::fs::metadata(&wal).unwrap().len();
        assert!(len_after < bytes.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_after_torn_tail_recovery_are_readable() {
        let dir = tmp_dir("torn-append");
        {
            let mut s = Store::open(&dir).unwrap();
            s.put(b"a", b"1").unwrap();
            s.put(b"b", b"2").unwrap();
        }
        let wal = layout::wal_path(&dir, 1);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 1]).unwrap();
        {
            let mut s = Store::open(&dir).unwrap();
            assert_eq!(s.get(b"b"), None);
            s.put(b"c", b"3").unwrap();
        }
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get(b"a"), Some(&b"1"[..]));
        assert_eq!(s.get(b"c"), Some(&b"3"[..]));
        assert_eq!(s.recovery().truncated_bytes, 0, "tail already clean");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotates_and_prunes() {
        let dir = tmp_dir("rotate");
        let mut s = Store::open(&dir).unwrap();
        for gen in 0..4u8 {
            s.put(b"k", &[gen]).unwrap();
            s.checkpoint().unwrap();
        }
        assert_eq!(s.active_seq(), 5);
        let ckpts: Vec<u64> = layout::checkpoints(&dir)
            .unwrap()
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        assert_eq!(ckpts, vec![4, 5], "two newest generations retained");
        let wals: Vec<u64> = layout::wal_segments(&dir)
            .unwrap()
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        assert_eq!(wals, vec![4, 5]);
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get(b"k"), Some(&[3u8][..]));
        assert_eq!(s.recovery().checkpoint_seq, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_a_generation() {
        let dir = tmp_dir("fallback");
        let mut s = Store::open(&dir).unwrap();
        s.put(b"old", b"1").unwrap();
        s.checkpoint().unwrap(); // ckpt-2
        s.put(b"new", b"2").unwrap();
        s.checkpoint().unwrap(); // ckpt-3
        s.put(b"tail", b"3").unwrap(); // lives in wal-3
        drop(s);

        // Rot the newest checkpoint. Recovery must fall back to ckpt-2 and
        // rebuild the rest from wal-2 + wal-3.
        let newest = layout::checkpoint_path(&dir, 3);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let s = Store::open(&dir).unwrap();
        assert_eq!(s.recovery().checkpoint_seq, 2);
        assert_eq!(s.recovery().corrupt_checkpoints, 1);
        assert_eq!(s.get(b"old"), Some(&b"1"[..]));
        assert_eq!(s.get(b"new"), Some(&b"2"[..]));
        assert_eq!(s.get(b"tail"), Some(&b"3"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_checkpoint_recovers_from_wal_alone() {
        let dir = tmp_dir("nockpt");
        let mut s = Store::open(&dir).unwrap();
        s.put(b"a", b"1").unwrap();
        s.checkpoint().unwrap();
        s.put(b"b", b"2").unwrap();
        drop(s);
        std::fs::remove_file(layout::checkpoint_path(&dir, 2)).unwrap();

        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get(b"a"), Some(&b"1"[..]), "wal-1 still replayable");
        assert_eq!(s.get(b"b"), Some(&b"2"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_triggers_on_wal_growth() {
        let dir = tmp_dir("auto");
        let config = StoreConfig {
            compact_min_bytes: 256,
            ..StoreConfig::default()
        };
        let mut s = Store::open_with(&dir, config, Obs::none()).unwrap();
        for i in 0..64u32 {
            s.put(b"key", &i.to_le_bytes()).unwrap();
        }
        assert!(s.active_seq() > 1, "WAL growth forced a checkpoint");
        assert!(s.wal_bytes() < 256 + 64, "WAL reset by rotation");
        drop(s);
        let s = Store::open(&dir).unwrap();
        assert_eq!(s.get(b"key"), Some(&63u32.to_le_bytes()[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_cleared() {
        let dir = tmp_dir("tmp");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ckpt-9.tmp"), b"half a checkpoint").unwrap();
        let s = Store::open(&dir).unwrap();
        assert!(s.is_empty());
        assert!(layout::temp_files(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observer_sees_appends_checkpoints_and_recovery() {
        let dir = tmp_dir("obs");
        let sink = std::sync::Arc::new(obs::MemorySink::unbounded());
        let handle = Obs::new(sink.clone());
        {
            let mut s = Store::open_with(&dir, StoreConfig::default(), handle.clone()).unwrap();
            s.put(b"a", b"1").unwrap();
            s.checkpoint().unwrap();
        }
        let _ = Store::open_with(&dir, StoreConfig::default(), handle).unwrap();
        let kinds: Vec<&'static str> = sink.take().iter().map(|e| e.event_kind().name()).collect();
        assert!(kinds.contains(&"wal_append"));
        assert!(kinds.contains(&"checkpoint_written"));
        assert_eq!(kinds.iter().filter(|k| **k == "store_recovered").count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
