//! Durable serving: the glue between the index-family-agnostic
//! `esd-durability` primitives (epoch-stamped WAL, full checkpoint
//! store) and this crate's engine.
//!
//! ## Ack contract
//!
//! With a [`DurabilityConfig`] armed, an `Ok` ack from
//! [`crate::ServiceHandle::submit`] means the batch was **applied,
//! published, and logged** — and, under [`AckPolicy::Fsync`], fsynced. An
//! `Err` ack means the window was rolled back *and* its speculative WAL
//! record was physically truncated away, so it can never be replayed:
//! recovery after a crash reconstructs exactly the acked batches, no more
//! and no less. (One unavoidable caveat: a crash in the instant between
//! the fsync completing and the ack reaching the client can recover a
//! batch the client never saw acked — the classic "ack in flight" window
//! every durable system has. Mutations are idempotent ensure-ops, so
//! client-side retry remains safe.)
//!
//! Under [`AckPolicy::Enqueue`] the fsync is deferred and batched
//! (group commit on accumulated bytes, plus a final sync at shutdown), so
//! a crash may lose the tail of *acked* batches — the documented trade
//! for fsync-free ack latency.
//!
//! ## What gets logged and checkpointed
//!
//! WAL payloads are the window's [`GraphUpdate`] list in a tiny versioned
//! codec ([`encode_updates`]/[`decode_updates`]); the WAL frame's CRC
//! covers them. Every checkpoint is a full edge set in `esd-core`'s
//! codec ([`EdgeSetSnapshot`]); writing one lets the oldest checkpoint
//! generation and old WAL segments be purged. The WAL is only purged up
//! to the *retained fallback* generation's epoch — one generation behind
//! the checkpoint just written — so that if the newest checkpoint is
//! later found corrupt, the fallback plus the surviving WAL can still
//! reconstruct every acked batch.
//!
//! ## Recovery
//!
//! [`replay`] loads the newest valid full checkpoint and replays every WAL
//! record with a greater epoch onto its edge set by
//! [`MaintainedIndex::apply_batch`]'s rules; [`recover`] then builds the
//! maintained index and the family suite from one construction pass over
//! the final graph. Corruption anywhere
//! (checkpoint or WAL) degrades gracefully: invalid checkpoints are
//! skipped, WAL replay stops at the last valid record, and nothing ever
//! panics on garbage bytes. Before the service re-opens the WAL for
//! appending, any torn tail found by replay is **physically truncated**
//! ([`esd_durability::repair_dir`]): the new writer appends to a fresh
//! segment after the tear, and replay stops at the first invalid byte, so
//! an un-repaired tear would hide — and a later crash would lose —
//! batches acked and fsynced after the restart.

use crate::service::Origin;
use esd_core::index::delta::EdgeSetSnapshot;
use esd_core::maintain::GraphUpdate;
use esd_core::{Construction, FamilySuite, MaintainedIndex};
use esd_durability::{CheckpointStore, WalOptions, WalWriter};
use esd_graph::DynamicGraph;
use std::io;
use std::path::{Path, PathBuf};

/// When an update batch is acknowledged, relative to the WAL fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckPolicy {
    /// Ack only after the window's WAL record is fsynced: an `Ok` ack
    /// survives any crash. The default.
    #[default]
    Fsync,
    /// Ack once the record is appended (OS-buffered); fsyncs are batched
    /// on accumulated bytes and at shutdown. Lower ack latency; a crash
    /// may lose the un-synced tail of acked batches.
    Enqueue,
}

/// Configuration for the durability subsystem, passed via
/// [`crate::ServiceConfig::durability`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments (`wal-*.log`) and checkpoints
    /// (`ckpt-*`). Created if missing; a non-empty directory triggers
    /// recovery, and the recovered state **wins** over the graph passed to
    /// [`crate::Service::start`].
    pub dir: PathBuf,
    /// When update batches are acknowledged (see [`AckPolicy`]).
    pub ack_policy: AckPolicy,
    /// Write a checkpoint every this many publications (≥ 1).
    pub checkpoint_interval: u64,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Under [`AckPolicy::Enqueue`], fsync once this many un-synced WAL
    /// bytes accumulate.
    pub group_bytes: u64,
}

impl DurabilityConfig {
    /// A config with the default policies rooted at `dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            ack_policy: AckPolicy::Fsync,
            checkpoint_interval: 32,
            segment_bytes: 8 << 20,
            group_bytes: 256 << 10,
        }
    }
}

/// WAL payload codec version (the frame CRC lives in `esd-durability`;
/// this byte guards against codec evolution).
const UPDATES_VERSION: u8 = 1;

/// Encodes a window's update list as a WAL payload:
/// `u8 version | u32 count | count × (u8 op | u32 u | u32 v)`.
#[must_use]
pub fn encode_updates(updates: &[GraphUpdate]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + updates.len() * 9);
    out.push(UPDATES_VERSION);
    out.extend_from_slice(&(updates.len() as u32).to_le_bytes());
    for u in updates {
        let (op, a, b) = match *u {
            GraphUpdate::Insert(a, b) => (0u8, a, b),
            GraphUpdate::Remove(a, b) => (1u8, a, b),
        };
        out.push(op);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    out
}

/// Decodes a WAL payload written by [`encode_updates`]. The WAL frame CRC
/// already vouches for integrity; this only rejects structural/codec
/// mismatches.
pub fn decode_updates(payload: &[u8]) -> io::Result<Vec<GraphUpdate>> {
    let corrupt = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    if payload.first() != Some(&UPDATES_VERSION) {
        return Err(corrupt("unknown wal payload version"));
    }
    let count = u32::from_le_bytes(
        payload
            .get(1..5)
            .ok_or_else(|| corrupt("wal payload header truncated"))?
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    let body = &payload[5..];
    if body.len() != count * 9 {
        return Err(corrupt("wal payload length mismatch"));
    }
    let mut updates = Vec::with_capacity(count);
    for chunk in body.chunks_exact(9) {
        let u = u32::from_le_bytes(chunk[1..5].try_into().expect("4 bytes"));
        let v = u32::from_le_bytes(chunk[5..9].try_into().expect("4 bytes"));
        updates.push(match chunk[0] {
            0 => GraphUpdate::Insert(u, v),
            1 => GraphUpdate::Remove(u, v),
            _ => return Err(corrupt("unknown wal update opcode")),
        });
    }
    Ok(updates)
}

/// What crash recovery found and did — exposed via
/// [`crate::Service::recovery_report`] and printed by `esd recover`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the full checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// WAL records replayed on top of the checkpoint.
    pub wal_records_replayed: u64,
    /// `true` when WAL replay stopped early at a torn/corrupt record; the
    /// valid prefix was still recovered.
    pub wal_truncated: bool,
    /// WAL segment files scanned.
    pub wal_segments: usize,
    /// Checkpoint files that failed validation and were skipped.
    pub skipped_invalid_checkpoints: usize,
    /// The epoch of the recovered state (checkpoint epoch, or the last
    /// replayed WAL record's).
    pub recovered_epoch: u64,
}

/// The durable edge set after replay: the newest valid full checkpoint
/// with the WAL tail applied, and the report describing how it was
/// reconstructed. No index is built.
#[derive(Debug)]
pub struct Replayed {
    /// The recovered graph.
    pub graph: DynamicGraph,
    /// How replay got there.
    pub report: RecoveryReport,
}

/// A recovered serving state: the rebuilt index and family suite, their
/// epoch, and the report describing how they were reconstructed.
#[derive(Debug)]
pub struct Recovered {
    /// The maintained index at the recovered state.
    pub index: MaintainedIndex,
    /// The family suite at the recovered state.
    pub families: FamilySuite,
    /// Publication epoch of that state.
    pub epoch: u64,
    /// How recovery got there.
    pub report: RecoveryReport,
}

/// Loads the newest valid full checkpoint from `dir` and replays the WAL
/// tail onto its edge set (by [`GraphUpdate::apply_to`], the rules of
/// [`MaintainedIndex::apply_batch`]). Returns `None` when the directory
/// holds no valid checkpoint (a fresh durable directory — the genesis
/// checkpoint is written before the first WAL record, so "no checkpoint"
/// means "no durable state"), and an `InvalidData` error when the WAL
/// records above the checkpoint do not run consecutively from its epoch.
pub fn replay(dir: &Path) -> io::Result<Option<Replayed>> {
    let _span = esd_telemetry::span(esd_telemetry::Stage::WalReplay);
    let store = CheckpointStore::open(dir)?;
    let Some(checkpoint) = store.load_newest()? else {
        return Ok(None);
    };
    let state = EdgeSetSnapshot::decode(&checkpoint.payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut graph = DynamicGraph::from_graph(&state.to_graph());
    let wal = esd_durability::read_dir(dir)?;
    let mut replayed = 0u64;
    let mut epoch = checkpoint.epoch;
    for record in &wal.records {
        if record.epoch <= checkpoint.epoch {
            continue;
        }
        // Each record is one publication, so the tail above the checkpoint
        // runs epoch by epoch. A jump means the records in between were
        // purged or lost: replaying past it would report an epoch whose
        // state is missing their edits.
        if record.epoch != epoch + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "wal gap above checkpoint epoch {}: epoch {} follows epoch {epoch}",
                    checkpoint.epoch, record.epoch
                ),
            ));
        }
        for update in decode_updates(&record.payload)? {
            update.apply_to(&mut graph);
        }
        replayed += 1;
        epoch = record.epoch;
    }
    esd_telemetry::add(esd_telemetry::Metric::WalReplayedRecords, replayed);
    Ok(Some(Replayed {
        graph,
        report: RecoveryReport {
            checkpoint_epoch: checkpoint.epoch,
            wal_records_replayed: replayed,
            wal_truncated: wal.truncated,
            wal_segments: wal.segments,
            skipped_invalid_checkpoints: checkpoint.skipped_invalid,
            recovered_epoch: epoch,
        },
    }))
}

/// [`replay`], then one construction pass over the result. Returns `None`
/// when the directory holds no durable state.
pub fn recover(dir: &Path) -> io::Result<Option<Recovered>> {
    recover_owned(dir, esd_core::EdgeOwnership::ALL)
}

/// [`recover`], rebuilding the index for one ownership slice: a sharded
/// engine recovers from its own `shard-<i>` directory with the same
/// ownership it serves, so the recovered forests/lists cover exactly its
/// owned edges (the WAL holds the full replicated batches either way).
pub fn recover_owned(
    dir: &Path,
    ownership: esd_core::EdgeOwnership,
) -> io::Result<Option<Recovered>> {
    let Some(Replayed { graph, report }) = replay(dir)? else {
        return Ok(None);
    };
    let (index, families) = Construction::new(&graph.to_graph()).slice(ownership);
    Ok(Some(Recovered {
        index,
        families,
        epoch: report.recovered_epoch,
        report,
    }))
}

/// The engine's per-service durable state. Only ever touched under the
/// writer lock (lock order: `writer_index`, then this), so one window's
/// append/fsync/truncate and the following checkpoint are a single
/// serialized story.
#[derive(Debug)]
pub(crate) struct DurableState {
    pub(crate) wal: WalWriter,
    pub(crate) ckpts: CheckpointStore,
    pub(crate) policy: AckPolicy,
    pub(crate) checkpoint_interval: u64,
    pub(crate) group_bytes: u64,
    /// Publications since the last checkpoint.
    pub(crate) publications: u64,
    /// Epoch of the newest checkpoint.
    pub(crate) full_epoch: u64,
    /// Epoch of the *previous* checkpoint generation, retained as a
    /// fallback until the next checkpoint supersedes it.
    pub(crate) prev_full_epoch: u64,
}

/// A durable engine's starting state: the (possibly recovered) index and
/// family suite, their epoch, the report if recovery ran, and the open
/// WAL/checkpoint handles.
#[derive(Debug)]
pub(crate) struct DurableInit {
    pub(crate) state: DurableState,
    pub(crate) index: MaintainedIndex,
    pub(crate) families: FamilySuite,
    pub(crate) epoch: u64,
    pub(crate) report: Option<RecoveryReport>,
}

/// Opens (or recovers) the durable directory. A fresh directory gets a
/// **genesis** full checkpoint of the origin graph at epoch 0 — without it
/// the graph the service started from would be unrecoverable. A non-empty
/// directory is recovered, and the recovered state wins over the origin.
pub(crate) fn open_or_recover(
    origin: &Origin<'_>,
    cfg: &DurabilityConfig,
    ownership: esd_core::EdgeOwnership,
) -> io::Result<DurableInit> {
    let (index, families, epoch, report) = match recover_owned(&cfg.dir, ownership)? {
        Some(rec) => (rec.index, rec.families, rec.epoch, Some(rec.report)),
        None => {
            let store = CheckpointStore::open(&cfg.dir)?;
            let (index, families) = origin.slice(ownership);
            store.write_full(0, &EdgeSetSnapshot::from_graph(index.graph()).encode())?;
            (index, families, 0, None)
        }
    };
    let full_epoch = report.as_ref().map_or(0, |r| r.checkpoint_epoch);
    // Physically drop any torn WAL tail before opening the writer. The
    // writer always starts a fresh segment *after* the tear, while replay
    // stops at the *first* invalid byte — so a tear left in place would
    // hide, and the next recovery would silently lose, every record
    // fsynced (and acked) from here on. Repair drops nothing recoverable:
    // `recover` above already stopped at the same boundary.
    esd_durability::repair_dir(&cfg.dir)?;
    let state = DurableState {
        wal: WalWriter::open(
            &cfg.dir,
            WalOptions {
                segment_bytes: cfg.segment_bytes.max(1),
            },
        )?,
        ckpts: CheckpointStore::open(&cfg.dir)?,
        policy: cfg.ack_policy,
        checkpoint_interval: cfg.checkpoint_interval.max(1),
        group_bytes: cfg.group_bytes.max(1),
        publications: 0,
        full_epoch,
        prev_full_epoch: full_epoch,
    };
    Ok(DurableInit {
        state,
        index,
        families,
        epoch,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_codec_roundtrips() {
        let updates = vec![
            GraphUpdate::Insert(3, 9),
            GraphUpdate::Remove(0, 4),
            GraphUpdate::Insert(7, 7), // self-loops survive the codec; the apply rejects them
        ];
        let bytes = encode_updates(&updates);
        assert_eq!(decode_updates(&bytes).unwrap(), updates);
        assert_eq!(decode_updates(&encode_updates(&[])).unwrap(), vec![]);
    }

    #[test]
    fn updates_codec_rejects_structural_garbage() {
        let bytes = encode_updates(&[GraphUpdate::Insert(1, 2)]);
        // Wrong version.
        let mut bad = bytes.clone();
        bad[0] = 99;
        assert!(decode_updates(&bad).is_err());
        // Truncated body.
        assert!(decode_updates(&bytes[..bytes.len() - 1]).is_err());
        // Unknown opcode.
        let mut bad = bytes.clone();
        bad[5] = 7;
        assert!(decode_updates(&bad).is_err());
        // Empty and header-only inputs.
        assert!(decode_updates(&[]).is_err());
        assert!(decode_updates(&[UPDATES_VERSION]).is_err());
    }

    /// A full checkpoint's file bytes are pinned: directories written by
    /// this version and by earlier ones (which also wrote delta
    /// checkpoints) stay readable by both.
    #[test]
    fn full_checkpoint_file_bytes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("esd_ckpt_pin_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).unwrap();
        let state = EdgeSetSnapshot::new(
            4,
            vec![esd_graph::Edge::new(0, 1), esd_graph::Edge::new(1, 3)],
        );
        let path = store.write_full(7, &state.encode()).unwrap();
        let hex: String = std::fs::read(&path)
            .unwrap()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "4553444b01000000000700000000000000070000000000000\
             02c00000000000000455344460100000004000000020000000\
             000000000000000010000000100000003000000874a5e9d860\
             2ae7279f018df"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_on_empty_dir_is_none() {
        let dir = std::env::temp_dir().join(format!("esd_recover_none_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(recover(&dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
