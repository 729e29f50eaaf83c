//! Durable serving: the glue between the index-family-agnostic
//! `esd-durability` primitives (epoch-stamped WAL, full/delta checkpoint
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
//! covers them. Checkpoint payloads are `esd-core`'s ESDX edge-set codec
//! ([`EdgeSetSnapshot`]/[`EdgeSetDelta`]): deltas chain off the last
//! *full* checkpoint (never delta-of-delta), and a delta whose change
//! ratio exceeds [`DurabilityConfig::delta_ratio_permille`] falls back to
//! a fresh full checkpoint, which also lets old WAL segments and the
//! oldest checkpoint generation be purged. The WAL is only purged up to
//! the *retained fallback* generation's epoch — one generation behind the
//! checkpoint just written — so that if the newest full checkpoint is
//! later found corrupt, the fallback chain plus the surviving WAL can
//! still reconstruct every acked batch.
//!
//! ## Recovery
//!
//! [`recover`] loads the newest valid checkpoint chain, replays every WAL
//! record with epoch greater than the chain's onto its edge set by
//! [`MaintainedIndex::apply_batch`]'s rules, then builds the maintained
//! index and the family suite from one construction pass over the final
//! graph. Corruption anywhere
//! (checkpoint or WAL) degrades gracefully: invalid checkpoints are
//! skipped, WAL replay stops at the last valid record, and nothing ever
//! panics on garbage bytes. Before the service re-opens the WAL for
//! appending, any torn tail found by replay is **physically truncated**
//! ([`esd_durability::repair_dir`]): the new writer appends to a fresh
//! segment after the tear, and replay stops at the first invalid byte, so
//! an un-repaired tear would hide — and a later crash would lose —
//! batches acked and fsynced after the restart.

use crate::service::Origin;
use esd_core::index::delta::{EdgeSetDelta, EdgeSetSnapshot};
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
    /// Delta checkpoints whose `(added + removed) / base_edges` ratio
    /// exceeds this many per-mille fall back to a full checkpoint.
    pub delta_ratio_permille: u32,
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
            delta_ratio_permille: 250,
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
    /// Epoch the loaded checkpoint chain restored (full, or full + delta).
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
    /// The last *full* checkpoint's edge set — the base future delta
    /// checkpoints diff against.
    pub(crate) base: EdgeSetSnapshot,
    /// Epoch of that full checkpoint.
    pub(crate) base_epoch: u64,
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Loads the newest valid checkpoint chain from `dir`, replays the WAL
/// tail onto its edge set (by [`GraphUpdate::apply_to`], the rules of
/// [`MaintainedIndex::apply_batch`]) and runs one construction pass over
/// the result. Returns `None` when the
/// directory holds no valid checkpoint (a fresh durable directory — the
/// genesis checkpoint is written before the first WAL record, so "no
/// checkpoint" means "no durable state").
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
    let _span = esd_telemetry::span(esd_telemetry::Stage::WalReplay);
    let store = CheckpointStore::open(dir)?;
    let Some(chain) = store.load_chain()? else {
        return Ok(None);
    };
    let base = EdgeSetSnapshot::decode(&chain.full_payload).map_err(invalid)?;
    let state = match &chain.delta {
        Some((_, payload)) => EdgeSetDelta::decode(payload)
            .map_err(invalid)?
            .apply(&base)
            .map_err(invalid)?,
        None => base.clone(),
    };
    let checkpoint_epoch = chain.epoch();
    let mut graph = DynamicGraph::from_graph(&state.to_graph());
    let replay = esd_durability::read_dir(dir)?;
    let mut replayed = 0u64;
    let mut epoch = checkpoint_epoch;
    for record in &replay.records {
        if record.epoch <= checkpoint_epoch {
            continue;
        }
        for update in decode_updates(&record.payload)? {
            update.apply_to(&mut graph);
        }
        replayed += 1;
        epoch = record.epoch;
    }
    esd_telemetry::add(esd_telemetry::Metric::WalReplayedRecords, replayed);
    let (index, families) = Construction::new(&graph.to_graph()).slice(ownership);
    Ok(Some(Recovered {
        index,
        families,
        epoch,
        report: RecoveryReport {
            checkpoint_epoch,
            wal_records_replayed: replayed,
            wal_truncated: replay.truncated,
            wal_segments: replay.segments,
            skipped_invalid_checkpoints: chain.skipped_invalid,
            recovered_epoch: epoch,
        },
        base,
        base_epoch: chain.full_epoch,
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
    pub(crate) delta_ratio_permille: u32,
    pub(crate) group_bytes: u64,
    /// Publications since the last checkpoint (full or delta).
    pub(crate) publications: u64,
    /// Edge set of the last *full* checkpoint — what deltas diff against.
    pub(crate) base: EdgeSetSnapshot,
    /// Epoch of that full checkpoint.
    pub(crate) base_epoch: u64,
    /// Epoch of the *previous* full checkpoint generation, retained as a
    /// fallback until the next full checkpoint supersedes it.
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
    let (index, families, epoch, report, base, base_epoch) =
        match recover_owned(&cfg.dir, ownership)? {
            Some(rec) => (
                rec.index,
                rec.families,
                rec.epoch,
                Some(rec.report),
                rec.base,
                rec.base_epoch,
            ),
            None => {
                let store = CheckpointStore::open(&cfg.dir)?;
                let (index, families) = origin.slice(ownership);
                let base = EdgeSetSnapshot::from_graph(index.graph());
                store.write_full(0, &base.encode())?;
                (index, families, 0, None, base, 0)
            }
        };
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
        delta_ratio_permille: cfg.delta_ratio_permille,
        group_bytes: cfg.group_bytes.max(1),
        publications: 0,
        base,
        base_epoch,
        prev_full_epoch: base_epoch,
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
            GraphUpdate::Insert(7, 7), // self-loops survive the codec; the pipeline rejects them
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

    #[test]
    fn recover_on_empty_dir_is_none() {
        let dir = std::env::temp_dir().join(format!("esd_recover_none_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(recover(&dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
