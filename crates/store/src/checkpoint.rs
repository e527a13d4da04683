//! Checkpoint files: the full key-value state, written atomically.
//!
//! A checkpoint is self-validating:
//!
//! ```text
//! +----------+---------+-------------+--------------+---------------+
//! | "RDTNCKPT" magic   | version u8  | varint seq   | varint count  |
//! +----------+---------+-------------+--------------+---------------+
//! | count × ( varint(klen) key varint(vlen) value )  | crc32 LE     |
//! +--------------------------------------------------+---------------+
//! ```
//!
//! with the checksum covering everything before it. Writes go to a
//! `.tmp` sibling first, are fsynced, then renamed over the final name
//! and the directory fsynced — so a crash at any point leaves either the
//! old generation or the new one, never a half-written file under the
//! checkpoint's name. Loads reject any file that fails the magic,
//! version, length, or checksum tests; the caller falls back to an older
//! generation.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use pfr::wire::{Reader, Writer};

use crate::crc::crc32;

/// Leading magic of every checkpoint file.
pub const MAGIC: &[u8; 8] = b"RDTNCKPT";

/// Checkpoint format version, bumped on layout changes.
pub const VERSION: u8 = 1;

/// Why a checkpoint file was rejected at load time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointFault {
    /// The file could not be read at all.
    Unreadable(String),
    /// Too short, wrong magic, wrong version, bad checksum, or garbled
    /// entries.
    Invalid(&'static str),
    /// The sequence number inside the file disagrees with its filename.
    SeqMismatch {
        /// Sequence parsed from the filename.
        named: u64,
        /// Sequence stored inside the file.
        stored: u64,
    },
}

/// Serializes `entries` as checkpoint generation `seq` and writes it
/// atomically to `path` (temp file + rename + directory fsync). Returns
/// the file's size in bytes.
///
/// # Errors
///
/// Any I/O failure; on error the final `path` is untouched.
pub fn write(path: &Path, seq: u64, entries: &BTreeMap<Vec<u8>, Vec<u8>>) -> io::Result<u64> {
    let mut w = Writer::new();
    w.put_u8(VERSION);
    w.put_varint(seq);
    w.put_varint(entries.len() as u64);
    for (key, value) in entries {
        w.put_bytes(key);
        w.put_bytes(value);
    }
    let mut bytes = Vec::with_capacity(w.len() + 12);
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&w.into_bytes());
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let tmp = path.with_extension("tmp");
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(path)?;
    Ok(bytes.len() as u64)
}

/// Fsyncs the directory containing `path`, making a just-renamed file
/// durable. A no-op error on platforms where directories cannot be
/// opened is deliberately *not* swallowed — this crate targets POSIX.
pub(crate) fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    File::open(dir)?.sync_all()
}

/// Loads and validates the checkpoint at `path`. `named_seq` is the
/// sequence number parsed from the filename; the file must agree.
///
/// # Errors
///
/// A [`CheckpointFault`] explaining the rejection; the caller falls back
/// to an older generation (or an empty state).
pub fn load(path: &Path, named_seq: u64) -> Result<BTreeMap<Vec<u8>, Vec<u8>>, CheckpointFault> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| CheckpointFault::Unreadable(e.to_string()))?;
    let Some((body, crc_bytes)) = bytes.split_last_chunk::<4>() else {
        return Err(CheckpointFault::Invalid("too short"));
    };
    if crc32(body) != u32::from_le_bytes(*crc_bytes) {
        return Err(CheckpointFault::Invalid("bad checksum"));
    }
    let Some((magic, rest)) = body.split_first_chunk::<{ MAGIC.len() }>() else {
        return Err(CheckpointFault::Invalid("too short"));
    };
    if magic != MAGIC {
        return Err(CheckpointFault::Invalid("bad magic"));
    }
    let mut r = Reader::new(rest);
    let parse = |r: &mut Reader<'_>| -> Result<_, pfr::wire::WireError> {
        let version = r.get_u8()?;
        if version != VERSION {
            return Err(pfr::wire::WireError::InvalidTag {
                what: "checkpoint version",
                tag: version,
            });
        }
        let seq = r.get_varint()?;
        let count = r.get_len(2)?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let key = r.get_bytes()?.to_vec();
            let value = r.get_bytes()?.to_vec();
            entries.insert(key, value);
        }
        if r.remaining() != 0 {
            return Err(pfr::wire::WireError::TrailingBytes(r.remaining()));
        }
        Ok((seq, entries))
    };
    let (stored_seq, entries) =
        parse(&mut r).map_err(|_| CheckpointFault::Invalid("garbled entries"))?;
    if stored_seq != named_seq {
        return Err(CheckpointFault::SeqMismatch {
            named: named_seq,
            stored: stored_seq,
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("store-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> BTreeMap<Vec<u8>, Vec<u8>> {
        [
            (b"a".to_vec(), b"1".to_vec()),
            (b"bb".to_vec(), vec![0; 300]),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn roundtrip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("ckpt-7.dat");
        let entries = sample();
        let bytes = write(&path, 7, &entries).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(load(&path, 7).unwrap(), entries);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_and_mismatch_are_rejected() {
        let dir = tmp_dir("reject");
        let path = dir.join("ckpt-3.dat");
        write(&path, 3, &sample()).unwrap();

        assert!(matches!(
            load(&path, 4),
            Err(CheckpointFault::SeqMismatch {
                named: 4,
                stored: 3
            })
        ));

        let good = std::fs::read(&path).unwrap();
        for (i, name) in [(0usize, "magic"), (good.len() / 2, "middle")] {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(load(&path, 3).is_err(), "flip in {name} accepted");
        }
        std::fs::write(&path, &good[..good.len() - 1]).unwrap();
        assert!(load(&path, 3).is_err(), "truncated checkpoint accepted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_tmp_residue_after_write() {
        let dir = tmp_dir("residue");
        let path = dir.join("ckpt-1.dat");
        write(&path, 1, &sample()).unwrap();
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
