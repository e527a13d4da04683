//! # store — an embedded, crash-safe keyed-blob storage engine
//!
//! The paper's §V-A requires DTN state to live in "persistent data
//! structures ... serialized to disk": a device powers off between
//! contacts, and everything the protocols rely on — replica items,
//! knowledge, routing tables — must survive. This crate is that
//! subsystem: a dependency-free log-structured store mapping byte keys to
//! byte values, built from three pieces:
//!
//! * **Write-ahead log** ([`record`]) — every mutation, or every
//!   [`Batch`] of them handed to [`Store::commit`], is appended to the
//!   active `wal-<seq>.log` segment as one length-prefixed, CRC-32-checked
//!   record (the same varint/TLV style as the sync wire codec) and
//!   optionally fsynced before the call returns.
//! * **Checkpoints** ([`checkpoint`]) — the full key-value state is
//!   periodically serialized to `ckpt-<seq>.dat`, written atomically via
//!   temp-file + rename + directory fsync, after which the WAL rotates to
//!   a fresh segment and superseded generations are deleted (compaction).
//! * **Recovery** ([`Store::open`]) — the newest checkpoint that passes
//!   its checksum is loaded (falling back to the previous generation, or
//!   to empty), then every live WAL segment is replayed over it in
//!   sequence order. A torn or corrupt record ends replay of that segment:
//!   the file is truncated at the last valid record and the store keeps
//!   running. Recovery never panics on bad bytes, and a half-written
//!   record is never applied.
//!
//! Duplicate replay is harmless by construction: records are whole-value
//! puts and deletes (a batch is several under one checksum), so applying
//! a prefix of the log twice converges to the same map (last-writer-wins
//! per key).
//!
//! Progress is observable through `obs`: [`obs::Event::WalAppend`],
//! [`obs::Event::CheckpointWritten`], and [`obs::Event::StoreRecovered`]
//! carry bytes appended, fsync counts, records replayed, and recovery
//! time.
//!
//! ```
//! use store::Store;
//! # let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut s = Store::open(&dir)?;
//! s.put(b"greeting", b"hello")?;
//! drop(s); // or SIGKILL: the WAL already has the record
//! let s = Store::open(&dir)?;
//! assert_eq!(s.get(b"greeting"), Some(&b"hello"[..]));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! # Ok::<(), store::StoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod crc;
pub mod layout;
pub mod record;
pub mod spill;

mod engine;

use std::fmt;
use std::path::PathBuf;

pub use engine::{RecoveryReport, Store, StoreConfig};
pub use record::{Batch, Record};
pub use spill::{SpillFile, SpillSlot};

/// Errors from the storage engine. Corrupt *data* is not an error — it is
/// handled by recovery (truncate, fall back a generation) — so every
/// variant here is an environmental failure the caller may want to retry
/// or surface.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// Which operation ("append", "fsync", "rename", ...).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl StoreError {
    pub(crate) fn io(op: &'static str, path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        StoreError::Io {
            op,
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "store {op} failed on {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
        }
    }
}
