//! The checkpoint store: atomic, fsynced, checksummed full checkpoint
//! files with crash-safe discovery of the newest valid one.
//!
//! ## On-disk format
//!
//! Each checkpoint is one file in the log directory,
//! `ckpt-<epoch:016x>.full`: a complete state payload at `epoch`. The
//! file envelope is:
//!
//! ```text
//! magic "ESDK" | u32 version | u8 kind (0) | u64 base_epoch (= epoch) | u64 epoch
//! | u64 payload_len | payload | u32 crc32
//! ```
//!
//! with the CRC covering everything after the magic. Payloads are opaque
//! bytes — the serving layer encodes them with `esd-core`'s edge-set
//! codec, keeping this crate index-family-agnostic.
//!
//! Directories written by earlier versions may also hold
//! `ckpt-<base:016x>-<epoch:016x>.delta` files: kind 1 in the same
//! envelope, an incremental payload against the full checkpoint at
//! `base`. They are never read — recovery starts from the newest full
//! checkpoint and replays the WAL past it, which those versions kept from
//! their retained fallback generation on — and
//! [`CheckpointStore::purge_older_than`] deletes them.
//!
//! ## Write protocol
//!
//! [`CheckpointStore::write_full`] writes to a temporary sibling, fsyncs
//! **the file**, renames into place, then fsyncs **the directory** — the
//! full tmp+rename+fsync dance, so a crash at any byte leaves either the
//! old checkpoints or the complete new file, never a torn checkpoint with
//! a valid name.

use crate::crc32::crc32;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Checkpoint file magic.
pub const MAGIC: &[u8; 4] = b"ESDK";
/// Checkpoint envelope version.
pub const VERSION: u32 = 1;
/// The envelope's kind byte for a full checkpoint (1 marked the retired
/// delta kind).
const KIND_FULL: u8 = 0;
/// Upper bound on a checkpoint payload (1 GiB) — larger length fields are
/// treated as corruption.
const MAX_PAYLOAD: u64 = 1 << 30;

/// The newest valid full checkpoint found by
/// [`CheckpointStore::load_newest`].
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// Epoch the checkpoint restores to.
    pub epoch: u64,
    /// Its payload.
    pub payload: Vec<u8>,
    /// Newer checkpoint files that failed validation and were skipped
    /// during discovery (corruption tolerated, surfaced for
    /// observability).
    pub skipped_invalid: usize,
}

/// A directory of checkpoint files. Cheap to construct; all state is on
/// disk.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if missing) the checkpoint directory.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durably writes a full checkpoint at `epoch`.
    pub fn write_full(&self, epoch: u64, payload: &[u8]) -> io::Result<PathBuf> {
        let name = format!("ckpt-{epoch:016x}.full");
        let mut versioned = Vec::with_capacity(29 + payload.len());
        versioned.extend_from_slice(&VERSION.to_le_bytes());
        versioned.push(KIND_FULL);
        // The base epoch field equals the epoch for a full checkpoint.
        versioned.extend_from_slice(&epoch.to_le_bytes());
        versioned.extend_from_slice(&epoch.to_le_bytes());
        versioned.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        versioned.extend_from_slice(payload);
        let crc = crc32(&versioned);

        let path = self.dir.join(&name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        {
            let mut file = File::create(&tmp)?;
            file.write_all(MAGIC)?;
            file.write_all(&versioned)?;
            file.write_all(&crc.to_le_bytes())?;
            // fsync the tmp file BEFORE the rename: rename alone orders the
            // name change, not the data blocks.
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;
        // fsync the directory AFTER the rename so the new name itself is
        // durable.
        crate::wal::sync_dir(&self.dir)?;
        Ok(path)
    }

    /// Loads the highest-epoch full checkpoint that validates. Corrupt
    /// files are skipped (counted in [`LoadedCheckpoint::skipped_invalid`]);
    /// `None` when no valid full checkpoint exists.
    pub fn load_newest(&self) -> io::Result<Option<LoadedCheckpoint>> {
        let mut fulls: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(epoch) = parse_full_name(name) {
                fulls.push((epoch, entry.path()));
            }
        }
        fulls.sort_by_key(|(epoch, _)| std::cmp::Reverse(*epoch));
        for (skipped_invalid, (epoch, path)) in fulls.into_iter().enumerate() {
            if let Some(payload) = read_valid(&path, epoch) {
                return Ok(Some(LoadedCheckpoint {
                    epoch,
                    payload,
                    skipped_invalid,
                }));
            }
        }
        Ok(None)
    }

    /// Deletes full checkpoints whose epoch is below `epoch`, plus any
    /// stale `.tmp` leftovers and any `.delta` file an earlier version
    /// left (nothing reads them). Returns the number of files removed.
    /// Call with the *previous* full checkpoint's epoch to always retain
    /// one complete fallback generation.
    pub fn purge_older_than(&self, epoch: u64) -> io::Result<usize> {
        let mut removed = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = if name.starts_with("ckpt-") {
                name.ends_with(".tmp")
                    || name.ends_with(".delta")
                    || parse_full_name(name).is_some_and(|e| e < epoch)
            } else {
                false
            };
            if stale {
                std::fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

fn parse_full_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".full")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Reads and fully validates one full checkpoint file: magic, version,
/// kind, epochs matching the file name, payload length, and CRC. `None`
/// on any mismatch — never panics, never returns partially validated
/// bytes.
fn read_valid(path: &Path, epoch: u64) -> Option<Vec<u8>> {
    let bytes = std::fs::read(path).ok()?;
    // magic(4) + version(4) + kind(1) + base(8) + epoch(8) + len(8) + crc(4)
    if bytes.len() < 37 || &bytes[..4] != MAGIC {
        return None;
    }
    let crc_stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().ok()?);
    let versioned = &bytes[4..bytes.len() - 4];
    if crc32(versioned) != crc_stored {
        return None;
    }
    if u32::from_le_bytes(versioned[..4].try_into().ok()?) != VERSION {
        return None;
    }
    let body = &versioned[4..];
    let file_base = u64::from_le_bytes(body[1..9].try_into().ok()?);
    let file_epoch = u64::from_le_bytes(body[9..17].try_into().ok()?);
    let payload_len = u64::from_le_bytes(body[17..25].try_into().ok()?);
    if body[0] != KIND_FULL || file_base != epoch || file_epoch != epoch {
        return None;
    }
    if payload_len > MAX_PAYLOAD || payload_len != (body.len() - 25) as u64 {
        return None;
    }
    Some(body[25..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("esd_ckpt_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A delta checkpoint file as earlier versions wrote it: the same
    /// envelope with kind 1, named `ckpt-<base>-<epoch>.delta`.
    fn write_legacy_delta(dir: &Path, base: u64, epoch: u64, payload: &[u8]) -> PathBuf {
        let mut versioned = VERSION.to_le_bytes().to_vec();
        versioned.push(1);
        versioned.extend_from_slice(&base.to_le_bytes());
        versioned.extend_from_slice(&epoch.to_le_bytes());
        versioned.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        versioned.extend_from_slice(payload);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&versioned);
        bytes.extend_from_slice(&crc32(&versioned).to_le_bytes());
        let path = dir.join(format!("ckpt-{base:016x}-{epoch:016x}.delta"));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn newest_valid_full_wins_and_legacy_deltas_are_ignored() {
        let dir = tmp("newest");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_newest().unwrap().is_none());
        store.write_full(10, b"old").unwrap();
        write_legacy_delta(&dir, 10, 12, b"old-delta");
        store.write_full(20, b"new").unwrap();
        write_legacy_delta(&dir, 20, 24, b"new-delta");
        let loaded = store.load_newest().unwrap().unwrap();
        assert_eq!(loaded.epoch, 20);
        assert_eq!(loaded.payload, b"new");
        assert_eq!(loaded.skipped_invalid, 0, "a delta is not a checkpoint");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_deltas_alone_are_no_durable_state() {
        let dir = tmp("deltas_only");
        let store = CheckpointStore::open(&dir).unwrap();
        write_legacy_delta(&dir, 0, 4, b"delta-bytes");
        assert!(store.load_newest().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_full_falls_back_to_older_full() {
        let dir = tmp("corrupt_full");
        let store = CheckpointStore::open(&dir).unwrap();
        store.write_full(5, b"older").unwrap();
        let fpath = store.write_full(9, b"newer").unwrap();
        let mut bytes = std::fs::read(&fpath).unwrap();
        let last = bytes.len() - 10;
        bytes[last] ^= 0xFF;
        std::fs::write(&fpath, &bytes).unwrap();
        let loaded = store.load_newest().unwrap().unwrap();
        assert_eq!(loaded.epoch, 5);
        assert_eq!(loaded.payload, b"older");
        assert_eq!(loaded.skipped_invalid, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_every_length_never_panics_or_validates() {
        let dir = tmp("truncate_all");
        let store = CheckpointStore::open(&dir).unwrap();
        let path = store
            .write_full(3, b"some checkpoint payload bytes")
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for len in 0..bytes.len() {
            std::fs::write(&path, &bytes[..len]).unwrap();
            assert!(
                store.load_newest().unwrap().is_none(),
                "truncated to {len} bytes must not validate"
            );
        }
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_newest().unwrap().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn purge_keeps_the_retained_generation() {
        let dir = tmp("purge");
        let store = CheckpointStore::open(&dir).unwrap();
        store.write_full(5, b"g1").unwrap();
        write_legacy_delta(&dir, 5, 7, b"g1d");
        store.write_full(10, b"g2").unwrap();
        write_legacy_delta(&dir, 10, 12, b"g2d");
        store.write_full(15, b"g3").unwrap();
        std::fs::write(dir.join("ckpt-0000000000000014.full.tmp"), b"torn").unwrap();
        // The full below the retained epoch, both deltas and the tmp go.
        assert_eq!(store.purge_older_than(10).unwrap(), 4);
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(
            left,
            ["ckpt-000000000000000a.full", "ckpt-000000000000000f.full"]
        );
        assert_eq!(store.load_newest().unwrap().unwrap().epoch, 15);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kind_confusion_is_rejected() {
        // A delta file renamed to look like a full checkpoint must fail
        // validation (kind and epochs are inside the checksummed body).
        let dir = tmp("confusion");
        let store = CheckpointStore::open(&dir).unwrap();
        let dpath = write_legacy_delta(&dir, 4, 4, b"delta-bytes");
        let fake = dir.join(format!("ckpt-{:016x}.full", 4));
        std::fs::rename(&dpath, &fake).unwrap();
        assert!(store.load_newest().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
