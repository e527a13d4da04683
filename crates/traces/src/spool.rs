//! On-disk encounter spools: city-scale traces streamed from disk.
//!
//! An [`EncounterTrace`](crate::EncounterTrace) holds every encounter in
//! memory, which caps fleet size: a 30-day city-scale trace (thousands of
//! vehicles, millions of contacts) is gigabytes of `Vec<Encounter>`. A
//! [`SpooledTrace`] keeps only the *metadata* the emulation needs up
//! front — node set, day count, per-day schedules — resident, and streams
//! the encounters themselves from a fixed-width binary file in time
//! order, so peak memory is one [`std::io::BufReader`] regardless of
//! trace length.
//!
//! The file format is deliberately dumb: an 8-byte magic, a little-endian
//! `u64` record count, then one 32-byte record per encounter (`time`,
//! `a`, `b`, `duration`, all little-endian `u64` seconds/ids). Writers
//! ([`TraceSpool`]) enforce the same `(time, a, b)` sort order
//! [`EncounterTrace::from_encounters`](crate::EncounterTrace) guarantees,
//! so a reader is exactly the in-memory trace's iterator — a property the
//! emulation's differential tests pin byte-for-byte.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pfr::{ReplicaId, SimDuration, SimTime};

use crate::mobility::{Encounter, EncounterTrace};

/// Magic bytes opening every spool file (`RDTNSPL1`).
const MAGIC: &[u8; 8] = b"RDTNSPL1";
/// Bytes per encounter record: four little-endian `u64`s.
const RECORD_BYTES: usize = 32;

/// Incremental writer producing a [`SpooledTrace`].
///
/// Push encounters in `(time, a, b)` order (the order every generator and
/// [`EncounterTrace`](crate::EncounterTrace) already produce) and call
/// [`finish`](TraceSpool::finish); out-of-order pushes are rejected so a
/// spool can never silently desynchronize from its in-memory twin.
#[derive(Debug)]
pub struct TraceSpool {
    writer: BufWriter<File>,
    path: PathBuf,
    len: u64,
    last: Option<(SimTime, ReplicaId, ReplicaId)>,
    nodes: BTreeSet<ReplicaId>,
    day_nodes: BTreeMap<u64, BTreeSet<ReplicaId>>,
}

impl TraceSpool {
    /// Creates (truncating) a spool file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<TraceSpool> {
        let path = path.as_ref().to_path_buf();
        let mut writer = BufWriter::new(File::create(&path)?);
        writer.write_all(MAGIC)?;
        writer.write_all(&0u64.to_le_bytes())?; // record count, patched by finish()
        Ok(TraceSpool {
            writer,
            path,
            len: 0,
            last: None,
            nodes: BTreeSet::new(),
            day_nodes: BTreeMap::new(),
        })
    }

    /// Appends one encounter.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when the encounter sorts before the
    /// previous one (the file must stay in `(time, a, b)` order), plus any
    /// underlying write error.
    pub fn push(&mut self, e: Encounter) -> io::Result<()> {
        let key = (e.time, e.a, e.b);
        if let Some(last) = self.last {
            if key < last {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("spool push out of order: {key:?} after {last:?}"),
                ));
            }
        }
        self.last = Some(key);
        self.writer.write_all(&e.time.as_secs().to_le_bytes())?;
        self.writer.write_all(&e.a.as_u64().to_le_bytes())?;
        self.writer.write_all(&e.b.as_u64().to_le_bytes())?;
        self.writer.write_all(&e.duration.as_secs().to_le_bytes())?;
        self.len += 1;
        self.nodes.insert(e.a);
        self.nodes.insert(e.b);
        let day = self.day_nodes.entry(e.time.day()).or_default();
        day.insert(e.a);
        day.insert(e.b);
        Ok(())
    }

    /// Appends one day's worth of encounters, sorting them first (the
    /// write-side analogue of
    /// [`EncounterTrace::from_encounters`](crate::EncounterTrace) that
    /// only ever materializes a single day).
    pub fn push_day(&mut self, mut encounters: Vec<Encounter>) -> io::Result<()> {
        encounters.sort_by_key(|e| (e.time, e.a, e.b));
        for e in encounters {
            self.push(e)?;
        }
        Ok(())
    }

    /// Flushes, patches the record count into the header, and returns the
    /// readable trace.
    pub fn finish(mut self) -> io::Result<SpooledTrace> {
        self.writer.flush()?;
        let mut file = self.writer.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(MAGIC.len() as u64))?;
        file.write_all(&self.len.to_le_bytes())?;
        file.sync_data()?;
        Ok(SpooledTrace {
            path: self.path,
            len: self.len,
            nodes: self.nodes,
            day_nodes: self.day_nodes,
        })
    }
}

/// A time-ordered encounter schedule living on disk: metadata (node sets,
/// day schedules) in memory, encounters streamed on demand.
#[derive(Clone, Debug)]
pub struct SpooledTrace {
    path: PathBuf,
    len: u64,
    nodes: BTreeSet<ReplicaId>,
    day_nodes: BTreeMap<u64, BTreeSet<ReplicaId>>,
}

impl SpooledTrace {
    /// Spools an in-memory trace to `path` (the streaming A/B twin of the
    /// trace: iterating the spool yields the identical sequence).
    pub fn spool(trace: &EncounterTrace, path: impl AsRef<Path>) -> io::Result<SpooledTrace> {
        let mut spool = TraceSpool::create(path)?;
        for e in trace.iter() {
            spool.push(*e)?;
        }
        spool.finish()
    }

    /// Opens an existing spool file, rebuilding the resident metadata
    /// (record count, node set, day schedules) with one sequential scan.
    /// The encounters themselves stay on disk, so a spool written by
    /// `gen-trace` in one process is a first-class trace source in the
    /// next.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for a bad magic or a file shorter
    /// than its header claims, plus any underlying read error.
    pub fn open(path: impl AsRef<Path>) -> io::Result<SpooledTrace> {
        let path = path.as_ref().to_path_buf();
        let mut reader = BufReader::new(File::open(&path)?);
        let len = read_header(&mut reader)?;
        let mut nodes = BTreeSet::new();
        let mut day_nodes: BTreeMap<u64, BTreeSet<ReplicaId>> = BTreeMap::new();
        let mut buf = [0u8; RECORD_BYTES];
        for record in 0..len {
            reader.read_exact(&mut buf).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("spool truncated at record {record}/{len}: {e}"),
                )
            })?;
            let [time, a, b, _] = record_words(&buf);
            let (time, a, b) = (
                SimTime::from_secs(time),
                ReplicaId::new(a),
                ReplicaId::new(b),
            );
            nodes.insert(a);
            nodes.insert(b);
            let day = day_nodes.entry(time.day()).or_default();
            day.insert(a);
            day.insert(b);
        }
        Ok(SpooledTrace {
            path,
            len,
            nodes,
            day_nodes,
        })
    }

    /// The spool file's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of encounters on disk.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the spool holds no encounters.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of days spanned (day of the last encounter + 1).
    pub fn days(&self) -> u64 {
        self.day_nodes
            .last_key_value()
            .map(|(day, _)| day + 1)
            .unwrap_or(0)
    }

    /// Every node appearing anywhere in the trace.
    pub fn nodes(&self) -> &BTreeSet<ReplicaId> {
        &self.nodes
    }

    /// The nodes scheduled on one day (empty when no encounters that day).
    pub fn nodes_on_day(&self, day: u64) -> BTreeSet<ReplicaId> {
        self.day_nodes.get(&day).cloned().unwrap_or_default()
    }

    /// Per-day scheduled-node sets, keyed by day.
    pub fn day_nodes(&self) -> &BTreeMap<u64, BTreeSet<ReplicaId>> {
        &self.day_nodes
    }

    /// Opens a streaming reader over the encounters, in file (= time)
    /// order.
    pub fn iter(&self) -> io::Result<SpooledIter> {
        let mut reader = BufReader::new(File::open(&self.path)?);
        let on_disk = read_header(&mut reader)?;
        if on_disk != self.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "spool header says {on_disk} records, metadata says {}",
                    self.len
                ),
            ));
        }
        Ok(SpooledIter {
            reader,
            remaining: self.len,
        })
    }
}

/// Reads a spool header: checks the magic and returns the record count.
fn read_header(reader: &mut impl Read) -> io::Result<u64> {
    let mut header = [0u8; 16];
    reader.read_exact(&mut header)?;
    match header.as_chunks::<8>().0 {
        [magic, count] if magic == MAGIC => Ok(u64::from_le_bytes(*count)),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a replidtn trace spool (bad magic)",
        )),
    }
}

/// The four little-endian words of one record: time, `a`, `b`, duration.
fn record_words(record: &[u8; RECORD_BYTES]) -> [u64; 4] {
    let mut words = [0; 4];
    for (word, bytes) in words.iter_mut().zip(record.as_chunks::<8>().0) {
        *word = u64::from_le_bytes(*bytes);
    }
    words
}

/// Streaming reader over a [`SpooledTrace`].
///
/// Yields encounters in time order with one buffered read per record. An
/// I/O error or truncated file mid-stream panics: the spool was written
/// by this process moments ago, so a short read is a programming error
/// (or disk failure) the emulation cannot meaningfully continue past.
#[derive(Debug)]
pub struct SpooledIter {
    reader: BufReader<File>,
    remaining: u64,
}

impl Iterator for SpooledIter {
    type Item = Encounter;

    fn next(&mut self) -> Option<Encounter> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut buf = [0u8; RECORD_BYTES];
        if let Err(e) = self.reader.read_exact(&mut buf) {
            panic!("trace spool truncated or unreadable mid-stream: {e}");
        }
        let [time, a, b, duration] = record_words(&buf);
        Some(Encounter {
            time: SimTime::from_secs(time),
            a: ReplicaId::new(a),
            b: ReplicaId::new(b),
            duration: SimDuration::from_secs(duration),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

/// A peekable prefetch window over any time-ordered encounter stream,
/// with a per-node *next-encounter* index.
///
/// Traces are fully known ahead of time (the property MaxProp exploits
/// for transfer ordering), so a consumer that streams encounters can
/// also see a bounded distance into the future for free: `Lookahead`
/// buffers up to `capacity` upcoming encounters and answers
/// [`next_need`](Lookahead::next_need) — "when is node X touched next?"
/// — in O(1). The sharded emulation engine uses this for Belady-style
/// eviction (spill the replica whose next encounter is farthest) and for
/// batch-unspilling replicas just ahead of their encounters.
///
/// Positions are *ordinals*: the index of an encounter in the underlying
/// stream, starting at 0. [`consumed`](Lookahead::consumed) is the
/// ordinal of the next encounter [`next`](Iterator::next) will yield, so
/// `next_need(id) - consumed()` is the distance (in encounters) until
/// `id` is touched again, when that lies inside the window.
#[derive(Debug)]
pub struct Lookahead<I: Iterator<Item = Encounter>> {
    inner: I,
    window: std::collections::VecDeque<Encounter>,
    /// `node -> ordinals of its windowed encounters`, each queue sorted
    /// ascending (encounters enter and leave the window in order).
    needs: std::collections::HashMap<ReplicaId, std::collections::VecDeque<u64>>,
    /// Ordinal of the window front (== encounters already yielded).
    head: u64,
    /// Ordinal the next pull from `inner` will get.
    filled: u64,
    capacity: usize,
}

impl<I: Iterator<Item = Encounter>> Lookahead<I> {
    /// Wraps `inner` with a prefetch window of `capacity` encounters
    /// (at least 1).
    pub fn new(inner: I, capacity: usize) -> Self {
        Lookahead {
            inner,
            window: std::collections::VecDeque::new(),
            needs: std::collections::HashMap::new(),
            head: 0,
            filled: 0,
            capacity: capacity.max(1),
        }
    }

    fn fill(&mut self) {
        while self.window.len() < self.capacity {
            let Some(e) = self.inner.next() else { break };
            let ord = self.filled;
            self.filled += 1;
            self.needs.entry(e.a).or_default().push_back(ord);
            if e.b != e.a {
                self.needs.entry(e.b).or_default().push_back(ord);
            }
            self.window.push_back(e);
        }
    }

    /// The next encounter without consuming it.
    pub fn peek(&mut self) -> Option<&Encounter> {
        self.fill();
        self.window.front()
    }

    /// Ordinal of the next encounter to be yielded (= encounters
    /// consumed so far).
    pub fn consumed(&self) -> u64 {
        self.head
    }

    /// The ordinal of `id`'s next encounter, when it falls inside the
    /// window; `None` means "not in the next [`window_len`] encounters"
    /// (or never again).
    ///
    /// [`window_len`]: Lookahead::window_len
    pub fn next_need(&self, id: ReplicaId) -> Option<u64> {
        self.needs.get(&id).and_then(|q| q.front().copied())
    }

    /// Encounters currently buffered ahead.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Iterates the buffered upcoming encounters in order (for
    /// prefetching state their endpoints will need). Call
    /// [`peek`](Lookahead::peek) first to fill the window.
    pub fn upcoming(&self) -> impl Iterator<Item = &Encounter> {
        self.window.iter()
    }
}

impl<I: Iterator<Item = Encounter>> Iterator for Lookahead<I> {
    type Item = Encounter;

    fn next(&mut self) -> Option<Encounter> {
        self.fill();
        let e = self.window.pop_front()?;
        let ord = self.head;
        self.head += 1;
        for id in [e.a, e.b] {
            let std::collections::hash_map::Entry::Occupied(mut slot) = self.needs.entry(id) else {
                unreachable!("windowed encounter indexed on entry")
            };
            if slot.get().front() == Some(&ord) {
                slot.get_mut().pop_front();
            }
            if slot.get().is_empty() {
                slot.remove();
            }
            if e.b == e.a {
                break;
            }
        }
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.inner.size_hint();
        let buffered = self.window.len();
        (lo.saturating_add(buffered), hi.map(|h| h + buffered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DieselNetConfig;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("replidtn-spool-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn spool_roundtrips_a_generated_trace() {
        let trace = DieselNetConfig::small().generate();
        let spooled = SpooledTrace::spool(&trace, tmp("roundtrip.spool")).expect("spool");
        assert_eq!(spooled.len(), trace.len() as u64);
        assert_eq!(spooled.days(), trace.days());
        assert_eq!(*spooled.nodes(), trace.nodes());
        for day in 0..trace.days() {
            assert_eq!(spooled.nodes_on_day(day), trace.nodes_on_day(day));
        }
        let from_disk: Vec<Encounter> = spooled.iter().expect("open").collect();
        let in_memory: Vec<Encounter> = trace.iter().copied().collect();
        assert_eq!(from_disk, in_memory);
    }

    #[test]
    fn open_rebuilds_the_exact_metadata() {
        let trace = DieselNetConfig::small().generate();
        let path = tmp("reopen.spool");
        let written = SpooledTrace::spool(&trace, &path).expect("spool");
        let reopened = SpooledTrace::open(&path).expect("open");
        assert_eq!(reopened.len(), written.len());
        assert_eq!(reopened.days(), written.days());
        assert_eq!(reopened.nodes(), written.nodes());
        assert_eq!(reopened.day_nodes(), written.day_nodes());
        let a: Vec<Encounter> = written.iter().expect("iter").collect();
        let b: Vec<Encounter> = reopened.iter().expect("iter").collect();
        assert_eq!(a, b);
    }

    #[test]
    fn open_rejects_garbage_and_truncation() {
        let garbage = tmp("garbage.spool");
        std::fs::write(&garbage, b"definitely not a spool").expect("write");
        assert_eq!(
            SpooledTrace::open(&garbage).expect_err("bad magic").kind(),
            io::ErrorKind::InvalidData
        );
        let trace = DieselNetConfig::small().generate();
        let path = tmp("truncated.spool");
        SpooledTrace::spool(&trace, &path).expect("spool");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate");
        assert_eq!(
            SpooledTrace::open(&path).expect_err("truncated").kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn out_of_order_push_is_rejected() {
        let mut spool = TraceSpool::create(tmp("order.spool")).expect("create");
        let late = Encounter::new(
            SimTime::from_hms(1, 9, 0, 0),
            ReplicaId::new(1),
            ReplicaId::new(2),
        );
        let early = Encounter::new(
            SimTime::from_hms(0, 9, 0, 0),
            ReplicaId::new(1),
            ReplicaId::new(2),
        );
        spool.push(late).expect("first push");
        let err = spool.push(early).expect_err("out of order");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn empty_spool_is_well_formed() {
        let spooled = TraceSpool::create(tmp("empty.spool"))
            .expect("create")
            .finish()
            .expect("finish");
        assert!(spooled.is_empty());
        assert_eq!(spooled.days(), 0);
        assert_eq!(spooled.iter().expect("open").count(), 0);
    }

    #[test]
    fn lookahead_yields_the_identical_sequence() {
        let trace = DieselNetConfig::default().generate();
        let direct: Vec<Encounter> = trace.iter().copied().collect();
        for capacity in [1usize, 7, 64, 100_000] {
            let windowed: Vec<Encounter> =
                Lookahead::new(trace.iter().copied(), capacity).collect();
            assert_eq!(windowed, direct, "capacity {capacity} perturbed the stream");
        }
    }

    #[test]
    fn lookahead_next_need_tracks_the_window() {
        let trace = DieselNetConfig::default().generate();
        let all: Vec<Encounter> = trace.iter().copied().collect();
        let capacity = 32usize;
        let mut la = Lookahead::new(trace.iter().copied(), capacity);
        let mut consumed = 0u64;
        // Exhaustive cross-checking is quadratic; a prefix covers every
        // code path (fills, pops, index expiry) at test-friendly cost.
        let checked_prefix = 300u64;
        while la.peek().is_some() {
            assert_eq!(la.consumed(), consumed);
            // Every windowed node's next_need is the true ordinal of its
            // next encounter in the full sequence.
            for e in (consumed < checked_prefix)
                .then(|| all.iter().skip(consumed as usize).take(capacity))
                .into_iter()
                .flatten()
            {
                for id in [e.a, e.b] {
                    let need = la.next_need(id).expect("windowed node is indexed");
                    let truth = all
                        .iter()
                        .enumerate()
                        .skip(consumed as usize)
                        .find(|(_, enc)| enc.a == id || enc.b == id)
                        .map(|(i, _)| i as u64)
                        .expect("node occurs in its own window");
                    assert_eq!(need, truth);
                }
            }
            let e = la.next().expect("peeked");
            assert_eq!(e, all[consumed as usize]);
            consumed += 1;
            // A node past its last windowed encounter must drop out of
            // the index rather than answer stale ordinals.
            if let Some(ord) = la.next_need(e.a) {
                assert!(ord >= consumed, "stale ordinal for a just-consumed node");
            }
        }
        assert_eq!(consumed, all.len() as u64);
        assert_eq!(la.window_len(), 0);
    }
}
