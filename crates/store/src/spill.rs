//! Spill files: cheap cold-state parking for the emulator.
//!
//! The sharded emulation engine keeps only the hottest replicas resident;
//! the rest are serialized ([`pfr` snapshots]) and parked on disk until
//! their next encounter. That access pattern — write, read back once per
//! park, no durability requirement beyond the process — does not want the
//! full WAL/checkpoint machinery of [`Store`]; it wants a flat file and an
//! offset. [`SpillFile`] is exactly that: write a blob, get back a
//! [`SpillSlot`] ticket, redeem the ticket for the bytes (CRC-checked, so
//! a bug that hands a stale or torn slot back is caught at read time
//! instead of corrupting a replica).
//!
//! Space is reclaimed through a size-class free list: [`SpillFile::free`]
//! returns a redeemed slot's capacity, and later writes of a similar size
//! reuse it, so a long run's file size plateaus at the peak *live* spill
//! set instead of growing with every park (at a million replicas the
//! difference is an unbounded multi-GB leak vs. a flat file). Batch
//! variants amortize the syscalls: [`SpillFile::append_batch`] coalesces
//! all fresh tail allocations into one write, and
//! [`SpillFile::read_batch`] visits slots in offset order so sequential
//! readahead works. The file itself is deleted when the `SpillFile` is
//! dropped — scratch state never outlives the run, even on panic.
//!
//! [`pfr` snapshots]: https://docs.rs/pfr
//! [`Store`]: crate::Store

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;

/// Slot capacities are rounded up to this granularity, so blobs of
/// similar size (replica snapshots cluster tightly) land in the same
/// free-list class and reuse each other's space. Bounded waste: at most
/// `GRANULE - 1` bytes per slot.
const GRANULE: u32 = 256;

fn class_of(len: u32) -> u32 {
    len.checked_add(GRANULE - 1)
        .map(|n| n & !(GRANULE - 1))
        .unwrap_or(u32::MAX)
        .max(GRANULE)
}

/// A redeemable ticket for one blob parked in a [`SpillFile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpillSlot {
    /// Byte offset of the blob within the file.
    offset: u64,
    /// Blob length in bytes.
    len: u32,
    /// Allocated slot capacity (`len` rounded up to the size class).
    cap: u32,
    /// CRC-32 of the blob, verified on read.
    crc: u32,
}

impl SpillSlot {
    /// The parked blob's length in bytes.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the parked blob is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot's allocated capacity (at least `len`).
    pub fn capacity(&self) -> u32 {
        self.cap
    }
}

/// A file of CRC-checked blobs addressed by [`SpillSlot`], with freed
/// slots recycled through a size-class free list. Deleted on drop.
#[derive(Debug)]
pub struct SpillFile {
    file: File,
    path: PathBuf,
    /// File high-water mark: tail allocations start here. Never shrinks.
    end: u64,
    /// Free slots by capacity class: `cap -> offsets`, reused LIFO.
    free: BTreeMap<u32, Vec<u64>>,
    /// Cumulative payload bytes across all writes (reused or not).
    written: u64,
    /// Writes served from the free list instead of growing the file.
    reused: u64,
    /// Scratch for coalescing tail writes, retained across batches.
    scratch: Vec<u8>,
}

impl SpillFile {
    /// Creates (truncating) a spill file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<SpillFile> {
        let path = path.as_ref().to_path_buf();
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(SpillFile {
            file,
            path,
            end: 0,
            free: BTreeMap::new(),
            written: 0,
            reused: 0,
            scratch: Vec::new(),
        })
    }

    /// The spill file's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Cumulative payload bytes written (counting slot reuse).
    pub fn bytes_written(&self) -> u64 {
        self.written
    }

    /// The file's high-water size in bytes. With slot reuse this
    /// plateaus at the peak live spill set, not the write volume.
    pub fn file_bytes(&self) -> u64 {
        self.end
    }

    /// Writes served from the free list instead of growing the file.
    pub fn reused_slots(&self) -> u64 {
        self.reused
    }

    /// Picks a free slot of at least `class` capacity, or allocates at
    /// the tail. The smallest sufficient class is reused first, keeping
    /// large slots available for large blobs.
    fn allocate(&mut self, len: u32) -> (u64, u32, bool) {
        let class = class_of(len);
        let found = self
            .free
            .range_mut(class..)
            .find_map(|(&cap, offs)| offs.pop().map(|offset| (cap, offset)));
        if let Some((cap, offset)) = found {
            if self.free.get(&cap).is_some_and(Vec::is_empty) {
                self.free.remove(&cap);
            }
            self.reused += 1;
            (offset, cap, true)
        } else {
            let offset = self.end;
            self.end += u64::from(class);
            (offset, class, false)
        }
    }

    /// Writes one blob and returns its redeemable slot, reusing a freed
    /// slot of sufficient capacity when one exists.
    pub fn append(&mut self, bytes: &[u8]) -> io::Result<SpillSlot> {
        let len = Self::blob_len(bytes)?;
        let (offset, cap, _) = self.allocate(len);
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(bytes)?;
        self.written += u64::from(len);
        Ok(SpillSlot {
            offset,
            len,
            cap,
            crc: crc32(bytes),
        })
    }

    /// Writes a batch of blobs, coalescing every fresh tail allocation
    /// into a single contiguous write (freed-slot reuses are written
    /// individually, in offset order). Returns slots in input order.
    pub fn append_batch(&mut self, blobs: &[&[u8]]) -> io::Result<Vec<SpillSlot>> {
        let mut slots = Vec::with_capacity(blobs.len());
        // (offset, blob) of reused slots, to visit in offset order.
        let mut reused: Vec<(u64, &[u8])> = Vec::new();
        let mut tail_start: Option<u64> = None;
        self.scratch.clear();
        for &bytes in blobs {
            let len = Self::blob_len(bytes)?;
            let (offset, cap, from_free) = self.allocate(len);
            if from_free {
                reused.push((offset, bytes));
            } else {
                tail_start.get_or_insert(offset);
                self.scratch.extend_from_slice(bytes);
                // Pad to capacity so the next coalesced blob starts at
                // its own slot offset.
                self.scratch
                    .resize(self.scratch.len() + (cap - len) as usize, 0);
            }
            self.written += u64::from(len);
            slots.push(SpillSlot {
                offset,
                len,
                cap,
                crc: crc32(bytes),
            });
        }
        reused.sort_by_key(|&(offset, _)| offset);
        for (offset, bytes) in reused {
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.write_all(bytes)?;
        }
        if let Some(start) = tail_start {
            self.file.seek(SeekFrom::Start(start))?;
            self.file.write_all(&self.scratch)?;
        }
        Ok(slots)
    }

    /// Reads back the blob behind `slot`.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] when the stored bytes do not match
    /// the slot's checksum (a stale ticket or torn write), plus any
    /// underlying read error.
    pub fn read(&mut self, slot: &SpillSlot) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; slot.len as usize];
        self.file.seek(SeekFrom::Start(slot.offset))?;
        self.file.read_exact(&mut buf)?;
        if crc32(&buf) != slot.crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("spill slot at offset {} failed its checksum", slot.offset),
            ));
        }
        Ok(buf)
    }

    /// Reads a batch of slots, visiting the file in offset order (so
    /// sequential readahead works) while returning blobs in input order.
    pub fn read_batch(&mut self, slots: &[SpillSlot]) -> io::Result<Vec<Vec<u8>>> {
        let mut order: Vec<(usize, &SpillSlot)> = slots.iter().enumerate().collect();
        order.sort_by_key(|&(_, slot)| slot.offset);
        let mut blobs = order
            .into_iter()
            .map(|(i, slot)| Ok((i, self.read(slot)?)))
            .collect::<io::Result<Vec<_>>>()?;
        blobs.sort_unstable_by_key(|&(i, _)| i);
        Ok(blobs.into_iter().map(|(_, blob)| blob).collect())
    }

    /// Returns a redeemed slot's space to the free list for reuse.
    pub fn free(&mut self, slot: SpillSlot) {
        self.free.entry(slot.cap).or_default().push(slot.offset);
    }

    fn blob_len(bytes: &[u8]) -> io::Result<u32> {
        u32::try_from(bytes.len()).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "spill blob exceeds u32::MAX bytes",
            )
        })
    }
}

impl Drop for SpillFile {
    /// Spill files are run-scoped scratch: deleting here (not at a
    /// clean-exit call site) means a panicking or early-returning run
    /// cannot leak multi-GB files into the spill directory.
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("replidtn-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn blobs_roundtrip_in_any_order() {
        let mut f = SpillFile::create(tmp("roundtrip.spill")).expect("create");
        let blobs: Vec<Vec<u8>> = (0u8..20).map(|i| vec![i; 10 + i as usize * 13]).collect();
        let slots: Vec<SpillSlot> = blobs.iter().map(|b| f.append(b).expect("append")).collect();
        assert_eq!(
            f.bytes_written(),
            blobs.iter().map(|b| b.len() as u64).sum::<u64>()
        );
        for (blob, slot) in blobs.iter().zip(&slots).rev() {
            assert_eq!(&f.read(slot).expect("read"), blob);
            assert_eq!(slot.len() as usize, blob.len());
            assert!(slot.capacity() >= slot.len());
        }
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmp("corrupt.spill");
        let mut f = SpillFile::create(&path).expect("create");
        let slot = f.append(b"precious replica state").expect("append");
        // Flip one byte behind the spill file's back.
        f.file.seek(SeekFrom::Start(3)).expect("seek");
        f.file.write_all(&[0xFF]).expect("scribble");
        let err = f.read(&slot).expect_err("checksum must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_blob_is_fine() {
        let mut f = SpillFile::create(tmp("empty.spill")).expect("create");
        let slot = f.append(b"").expect("append");
        assert!(slot.is_empty());
        assert_eq!(f.read(&slot).expect("read"), Vec::<u8>::new());
    }

    #[test]
    fn freed_slots_are_reused_and_the_file_plateaus() {
        let mut f = SpillFile::create(tmp("freelist.spill")).expect("create");
        // Park/free cycles of same-class blobs must not grow the file.
        let first = f.append(&vec![1u8; 300]).expect("append");
        let plateau = f.file_bytes();
        f.free(first);
        for round in 0u8..50 {
            let blob = [round, 2, 3].repeat(100); // same 300-byte class
            let s = f.append(&blob).expect("append");
            assert_eq!(
                f.file_bytes(),
                plateau,
                "round {round} grew the file past its plateau"
            );
            // The reused slot's contents and CRC must round-trip.
            assert_eq!(f.read(&s).expect("read"), blob);
            f.free(s);
        }
        assert_eq!(f.reused_slots(), 50);
        // A blob too big for any free slot grows the file.
        let big = f.append(&vec![9u8; 2000]).expect("append");
        assert!(f.file_bytes() > plateau);
        assert_eq!(f.read(&big).expect("read"), vec![9u8; 2000]);
        // ... and a smaller blob reuses the *smallest* sufficient freed
        // slot (the 300-byte-class one, not the 2000-byte-class one).
        f.free(big);
        let small = f.append(&[7u8; 100]).expect("append");
        assert_eq!(small.capacity(), class_of(300));
        assert_eq!(f.read(&small).expect("read"), vec![7u8; 100]);
    }

    #[test]
    fn batch_writes_and_reads_roundtrip() {
        let mut f = SpillFile::create(tmp("batch.spill")).expect("create");
        // Seed a free slot so the batch mixes reuse with tail appends.
        let seeded = f.append(&[0u8; 200]).expect("append");
        f.free(seeded);
        let blobs: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; 50 + i as usize * 97]).collect();
        let refs: Vec<&[u8]> = blobs.iter().map(Vec::as_slice).collect();
        let slots = f.append_batch(&refs).expect("batch write");
        assert!(f.reused_slots() >= 1, "the freed slot should be reused");
        let back = f.read_batch(&slots).expect("batch read");
        assert_eq!(back, blobs);
        // Slots stay individually redeemable too.
        for (slot, blob) in slots.iter().zip(&blobs).rev() {
            assert_eq!(&f.read(slot).expect("read"), blob);
        }
    }

    #[test]
    fn dropping_deletes_the_file() {
        let path = tmp("dropped.spill");
        {
            let mut f = SpillFile::create(&path).expect("create");
            f.append(b"scratch").expect("append");
            assert!(path.exists());
        }
        assert!(!path.exists(), "drop must remove the scratch file");
    }
}
