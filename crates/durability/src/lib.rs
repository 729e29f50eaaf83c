//! `esd-durability` — the durability subsystem for the ESD serving stack.
//!
//! A killed serving process used to lose everything since the last manual
//! ESDX persist, and the ESD index is expensive to rebuild from scratch
//! (4-clique enumeration dominates). This crate provides the classic
//! checkpoint + log shape instead:
//!
//! * [`wal`] — an append-only, **epoch-stamped** write-ahead log of opaque
//!   payloads: CRC32-checked length-prefixed frames, group-commit fsync
//!   batching, segment rotation, transactional appends
//!   ([`wal::WalWriter::mark`]/[`wal::WalWriter::truncate_to`]), and a
//!   corruption-tolerant reader that stops at the last valid record.
//! * [`checkpoint`] — an atomic (tmp + file-fsync + rename + dir-fsync)
//!   store of **full** checkpoint files with crash-safe discovery of the
//!   newest valid one.
//! * [`crc32`] — the hand-rolled CRC-32 both formats share (the build
//!   environment is offline; no external crates).
//!
//! The crate is deliberately **index-family-agnostic**: it speaks epochs
//! and byte payloads only. `esd-serve` supplies the payload codecs
//! (serialized update batches for WAL records, `esd-core`'s edge-set
//! codec for checkpoints) and drives recovery by replaying WAL records
//! with epoch greater than the loaded checkpoint's onto its edge set. The same machinery can therefore back the truss-based
//! or parameter-free diversity variants without modification.
//!
//! ```
//! use esd_durability::wal::{read_dir, WalOptions, WalWriter};
//!
//! let dir = std::env::temp_dir().join(format!("esd_durability_doc_{}", std::process::id()));
//! let wal = WalWriter::open(&dir, WalOptions::default()).unwrap();
//! wal.append(1, b"batch-one").unwrap();
//! wal.append(2, b"batch-two").unwrap();
//! wal.sync().unwrap(); // group commit: one fsync covers both
//!
//! let replay = read_dir(&dir).unwrap();
//! assert_eq!(replay.records.len(), 2);
//! assert!(!replay.truncated);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod crc32;
pub(crate) mod sync;
pub mod wal;

pub use checkpoint::{CheckpointStore, LoadedCheckpoint};
pub use wal::{
    read_dir, repair_dir, sync_dir, WalMark, WalOptions, WalRecord, WalReplay, WalWriter,
};
