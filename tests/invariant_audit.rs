//! Invariant-audit integration tests.
//!
//! Three layers of defence exercised end to end:
//!
//! 1. **Differential churn** — random insert/delete streams against a
//!    [`MaintainedIndex`], auditing the full structural invariant set after
//!    every single mutation and the deep (ground-truth partition) set at the
//!    end. The `strict-invariants` feature is active here, so every mutation
//!    *also* self-audits inside the library.
//! 2. **Static builds** — every builder's output audits clean, both
//!    structurally and against ground truth recomputed from the graph.
//! 3. **Persistence** — flipping any single byte of an ESDX file (every
//!    position, several masks) must yield a [`PersistError`], never a panic
//!    and never a silently different index; same for every truncation
//!    length.

use esd_core::fixtures::fig1;
use esd_core::maintain::MaintainedIndex;
use esd_core::EsdIndex;
use esd_graph::generators;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random churn: the audit layer must stay clean after every mutation.
    #[test]
    fn maintained_index_survives_random_churn(
        seed in 0u64..1_000,
        ops in prop::collection::vec(any::<u32>(), 1..48),
    ) {
        const N: u32 = 22;
        let g = generators::erdos_renyi(N as usize, 0.18, seed);
        let mut index = MaintainedIndex::new(&g);
        for &op in &ops {
            let insert = op & 1 == 1;
            let u = (op >> 1) % N;
            let v = (op >> 9) % N;
            if insert {
                index.insert_edge(u, v);
            } else {
                index.remove_edge(u, v);
            }
            let violations = index.validate();
            prop_assert!(
                violations.is_empty(),
                "after {}({u},{v}): {violations:?}",
                if insert { "insert" } else { "remove" }
            );
        }
        let deep = index.validate_deep();
        prop_assert!(deep.is_empty(), "deep audit after churn: {deep:?}");
    }

    /// Batched churn takes different code paths (shared retract/restore);
    /// the audit must stay clean there too.
    #[test]
    fn batched_churn_audits_clean(
        seed in 0u64..1_000,
        ops in prop::collection::vec(any::<u32>(), 1..40),
    ) {
        use esd_core::maintain::GraphUpdate;
        const N: u32 = 20;
        let g = generators::erdos_renyi(N as usize, 0.2, seed);
        let mut index = MaintainedIndex::new(&g);
        let updates: Vec<GraphUpdate> = ops
            .iter()
            .map(|&op| {
                let (u, v) = ((op >> 1) % N, (op >> 9) % N);
                if op & 1 == 1 {
                    GraphUpdate::Insert(u, v)
                } else {
                    GraphUpdate::Remove(u, v)
                }
            })
            .collect();
        index.apply_batch(&updates);
        let deep = index.validate_deep();
        prop_assert!(deep.is_empty(), "deep audit after batch: {deep:?}");
    }
}

/// Every static builder's output audits clean — structurally and against
/// ground truth recomputed from the graph (including the Theorem 3 bound).
#[test]
fn static_builders_audit_clean() {
    let (fig, _) = fig1();
    let mut graphs = vec![fig];
    for seed in 0..3 {
        graphs.push(generators::clique_overlap(70, 60, 5, seed));
        graphs.push(generators::erdos_renyi(40, 0.2, seed));
    }
    for g in &graphs {
        for index in [
            EsdIndex::build_basic(g),
            EsdIndex::build_fast(g),
            EsdIndex::build_parallel(g, 4),
        ] {
            assert_eq!(index.validate_against(g), Vec::new());
        }
    }
}

/// Exhaustive single-byte corruption: for every byte position and several
/// flip masks, the loader must return an error — structural or checksum —
/// and must never panic or accept the mutated file.
#[test]
fn esdx_every_single_byte_corruption_is_rejected() {
    let (g, _) = fig1();
    let index = EsdIndex::build_fast(&g);
    let mut buf = Vec::new();
    index.write_to(&mut buf).unwrap();
    for pos in 0..buf.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = buf.clone();
            bad[pos] ^= mask;
            assert!(
                EsdIndex::read_from(bad.as_slice()).is_err(),
                "flipping byte {pos} with mask {mask:#04x} must not load"
            );
        }
    }
}

/// Every possible truncation of a valid ESDX file is rejected.
#[test]
fn esdx_every_truncation_is_rejected() {
    let (g, _) = fig1();
    let index = EsdIndex::build_fast(&g);
    let mut buf = Vec::new();
    index.write_to(&mut buf).unwrap();
    for cut in 0..buf.len() {
        assert!(
            EsdIndex::read_from(&buf[..cut]).is_err(),
            "truncation to {cut} bytes must not load"
        );
    }
}

/// A crafted file that satisfies every field-level check and carries a valid
/// checksum but breaks the cross-list nesting invariant must still be
/// rejected by the loader's structural audit.
#[test]
fn esdx_semantically_corrupt_but_checksummed_file_is_rejected() {
    // Two lists: H(1) = {(0,1): 2}, H(2) = {(2,3): 1}. Each list is locally
    // rank-ordered with canonical positive-score entries and the offsets are
    // monotone — but H(2) ⊄ H(1), which no builder can produce.
    let mut body = Vec::new();
    body.extend_from_slice(b"ESDX");
    body.extend_from_slice(&1u32.to_le_bytes()); // version
    body.extend_from_slice(&2u64.to_le_bytes()); // |C|
    body.extend_from_slice(&2u64.to_le_bytes()); // entries
    body.extend_from_slice(&1u32.to_le_bytes()); // C = {1, 2}
    body.extend_from_slice(&2u32.to_le_bytes());
    for off in [0u64, 1, 2] {
        body.extend_from_slice(&off.to_le_bytes());
    }
    for (u, v, s) in [(0u32, 1u32, 2u32), (2, 3, 1)] {
        body.extend_from_slice(&u.to_le_bytes());
        body.extend_from_slice(&v.to_le_bytes());
        body.extend_from_slice(&s.to_le_bytes());
    }
    // Valid FNV-1a trailer over the body.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &body {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    body.extend_from_slice(&h.to_le_bytes());
    let err = EsdIndex::read_from(body.as_slice());
    assert!(
        err.is_err(),
        "nesting-violating file must be rejected, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Durable-state corruption fuzzing (WAL segments + checkpoints)
// ---------------------------------------------------------------------------
//
// Layer 4: the durability subsystem's loaders face the same adversary as
// the ESDX loader above — every single-byte flip and every truncation of
// a real WAL segment, and every flip of every checkpoint file. The
// contract is weaker than ESDX's all-or-nothing (a WAL is *expected* to
// have a torn tail), but just as strict:
//
// * recovery NEVER panics and NEVER errors on corrupt contents;
// * a corrupt WAL yields exactly a valid *prefix* of the acked batches
//   (stop at the last valid record, nothing fabricated after it);
// * a corrupt checkpoint degrades recovery (older checkpoint + longer WAL
//   replay, or no state at all when the genesis full is the victim) but
//   never fabricates state.

use esd_core::maintain::MutationBatch;
use esd_serve::{AckPolicy, DurabilityConfig, Service, ServiceConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Batches written to the durable dir; batch `i` inserts the guaranteed
/// fresh edge `(i, 100 + i)`, so every batch publishes exactly one epoch
/// and epoch `e` ⇔ "the first `e` batches applied".
const FUZZ_BATCHES: u32 = 16;

fn fuzz_graph() -> esd_graph::Graph {
    generators::clique_overlap(40, 20, 4, 9)
}

/// Runs a real durable service over `FUZZ_BATCHES` acked batches and
/// returns the directory its WAL + checkpoints live in.
fn build_durable_dir(tag: &str, checkpoint_interval: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esd_fuzz_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut durability = DurabilityConfig::new(&dir);
    durability.ack_policy = AckPolicy::Fsync;
    durability.checkpoint_interval = checkpoint_interval;
    let cfg = ServiceConfig {
        workers: 0,
        durability: Some(durability),
        ..ServiceConfig::default()
    };
    let service = Service::try_start(&fuzz_graph(), &cfg).expect("fresh durable dir opens");
    for i in 0..FUZZ_BATCHES {
        let mut batch = MutationBatch::new();
        batch.insert(i, 100 + i);
        service.handle().submit(batch).expect("batch acked");
    }
    service.shutdown();
    dir
}

fn recovered_edges(index: &MaintainedIndex) -> BTreeSet<u64> {
    index
        .graph()
        .edges()
        .iter()
        .map(esd_graph::Edge::key)
        .collect()
}

/// `prefixes[e]` = the exact edge set after the first `e` batches.
fn prefix_edge_sets() -> Vec<BTreeSet<u64>> {
    let mut replay = MaintainedIndex::new(&fuzz_graph());
    let mut out = vec![recovered_edges(&replay)];
    for i in 0..FUZZ_BATCHES {
        replay.apply_batch(&[esd_core::maintain::GraphUpdate::Insert(i, 100 + i)]);
        out.push(recovered_edges(&replay));
    }
    out
}

/// The fuzz oracle: recovery of (a possibly corrupted) `dir` must succeed
/// without error and yield exactly the prefix its own report claims.
fn assert_recovers_to_valid_prefix(dir: &Path, prefixes: &[BTreeSet<u64>], what: &str) -> u64 {
    let rec = esd_serve::durability::recover(dir)
        .unwrap_or_else(|e| panic!("{what}: corrupt contents must not error recovery: {e}"))
        .unwrap_or_else(|| panic!("{what}: durable state vanished"));
    let epoch = rec.report.recovered_epoch;
    let epoch_idx = usize::try_from(epoch).unwrap();
    assert!(
        epoch_idx < prefixes.len(),
        "{what}: recovered epoch {epoch} exceeds every acked prefix"
    );
    assert_eq!(
        recovered_edges(&rec.index),
        prefixes[epoch_idx],
        "{what}: recovered state is not the acked prefix its report claims"
    );
    epoch
}

fn wal_segments_in(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .collect();
    out.sort();
    out
}

/// Exhaustive single-byte corruption of every WAL segment byte: recovery
/// must stop at the last valid record — a clean prefix, never a panic,
/// never an error, never a record past the flip.
#[test]
fn wal_every_single_byte_corruption_recovers_a_valid_prefix() {
    let dir = build_durable_dir("wal_flip", 1_000_000);
    let prefixes = prefix_edge_sets();
    // Uncorrupted baseline: the full acked history.
    assert_eq!(
        assert_recovers_to_valid_prefix(&dir, &prefixes, "baseline"),
        u64::from(FUZZ_BATCHES)
    );
    let segments = wal_segments_in(&dir);
    assert_eq!(segments.len(), 1, "the workload fits one segment");
    let seg = &segments[0];
    let pristine = std::fs::read(seg).unwrap();
    for pos in 0..pristine.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = pristine.clone();
            bad[pos] ^= mask;
            std::fs::write(seg, &bad).unwrap();
            assert_recovers_to_valid_prefix(
                &dir,
                &prefixes,
                &format!("wal byte {pos} ^ {mask:#04x}"),
            );
        }
    }
    std::fs::write(seg, &pristine).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every truncation length of the WAL segment recovers the longest prefix
/// of whole valid records the remaining bytes contain — monotonically
/// non-decreasing in the cut position.
#[test]
fn wal_every_truncation_recovers_a_valid_prefix() {
    let dir = build_durable_dir("wal_trunc", 1_000_000);
    let prefixes = prefix_edge_sets();
    let segments = wal_segments_in(&dir);
    assert_eq!(segments.len(), 1, "the workload fits one segment");
    let seg = &segments[0];
    let pristine = std::fs::read(seg).unwrap();
    let mut last_epoch = 0u64;
    for cut in 0..pristine.len() {
        std::fs::write(seg, &pristine[..cut]).unwrap();
        let epoch =
            assert_recovers_to_valid_prefix(&dir, &prefixes, &format!("wal truncated to {cut}"));
        assert!(
            epoch >= last_epoch,
            "longer tails must never recover less (cut {cut}: {epoch} < {last_epoch})"
        );
        last_epoch = epoch;
    }
    std::fs::write(seg, &pristine).unwrap();
    assert_eq!(
        assert_recovers_to_valid_prefix(&dir, &prefixes, "restored"),
        u64::from(FUZZ_BATCHES)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Exhaustive single-byte corruption of every checkpoint file: a corrupt
/// checkpoint falls back to an older one plus a longer WAL replay (same
/// final state: the workload fits one WAL segment, and the open segment
/// is never purged). A corrupt genesis checkpoint with nothing after it
/// removes the only checkpoint, and recovery reports *no* durable state
/// rather than inventing one.
#[test]
fn checkpoint_corruption_degrades_recovery_never_fabricates() {
    let prefixes = prefix_edge_sets();
    let full_state = &prefixes[FUZZ_BATCHES as usize];
    // Interval 5 over 16 epochs keeps the checkpoints at 5, 10 and 15 (the
    // one at 15 purged genesis); no interval keeps genesis alone.
    for (tag, interval, kept) in [("ckpt_flip", 5, 3), ("ckpt_flip_genesis", u64::MAX, 1)] {
        let dir = build_durable_dir(tag, interval);
        let ckpts: Vec<PathBuf> = {
            let mut v: Vec<PathBuf> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    name.starts_with("ckpt-")
                })
                .collect();
            v.sort();
            v
        };
        assert!(
            ckpts
                .iter()
                .all(|p| p.extension().is_some_and(|e| e == "full")),
            "every checkpoint is full"
        );
        assert_eq!(ckpts.len(), kept, "{tag}: checkpoints kept");
        for path in &ckpts {
            let pristine = std::fs::read(path).unwrap();
            for pos in 0..pristine.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut bad = pristine.clone();
                    bad[pos] ^= mask;
                    std::fs::write(path, &bad).unwrap();
                    let what = format!("{} byte {pos} ^ {mask:#04x}", path.display());
                    let rec = esd_serve::durability::recover(&dir).unwrap_or_else(|e| {
                        panic!("{what}: corruption must not error recovery: {e}")
                    });
                    match rec {
                        None => assert_eq!(
                            ckpts.len(),
                            1,
                            "{what}: only losing the only checkpoint may erase all durable state"
                        ),
                        Some(rec) => {
                            // Only the newest checkpoint is guaranteed to be
                            // *read* (discovery walks newest-first and stops
                            // at the first valid one); corrupting it must be
                            // noticed.
                            if Some(path) == ckpts.last() {
                                assert!(
                                    rec.report.skipped_invalid_checkpoints > 0,
                                    "{what}: the corrupt newest checkpoint must be noticed and skipped"
                                );
                            }
                            assert_eq!(
                                rec.report.recovered_epoch,
                                u64::from(FUZZ_BATCHES),
                                "{what}: the un-purged WAL must bridge to the final epoch"
                            );
                            assert_eq!(
                                &recovered_edges(&rec.index),
                                full_state,
                                "{what}: degraded recovery must still reach the exact final state"
                            );
                        }
                    }
                }
            }
            std::fs::write(path, &pristine).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A delta checkpoint file in the layout earlier versions wrote: the
/// `ESDK` envelope with kind 1 and base/epoch fields, named
/// `ckpt-<base>-<epoch>.delta`, around an `ESDD` payload
/// (`magic | u32 version | u32 n | u64 +m | u64 -m | added | removed |
/// u64 fnv1a`).
fn write_legacy_delta(dir: &Path, base: u64, epoch: u64, n: u32, added: &[(u32, u32)]) {
    let mut payload = b"ESDD".to_vec();
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&n.to_le_bytes());
    payload.extend_from_slice(&(added.len() as u64).to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    for &(u, v) in added {
        payload.extend_from_slice(&u.to_le_bytes());
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &payload {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    payload.extend_from_slice(&h.to_le_bytes());
    let mut versioned = 1u32.to_le_bytes().to_vec();
    versioned.push(1); // kind: delta
    versioned.extend_from_slice(&base.to_le_bytes());
    versioned.extend_from_slice(&epoch.to_le_bytes());
    versioned.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    versioned.extend_from_slice(&payload);
    let mut file = b"ESDK".to_vec();
    file.extend_from_slice(&versioned);
    file.extend_from_slice(&esd_durability::crc32::crc32(&versioned).to_le_bytes());
    std::fs::write(
        dir.join(format!("ckpt-{base:016x}-{epoch:016x}.delta")),
        file,
    )
    .unwrap();
}

/// A directory in the layout earlier versions wrote — genesis full
/// checkpoint, a delta checkpoint against it, and the WAL — recovers
/// through a longer WAL replay that ignores the delta, and the next full
/// checkpoint's purge deletes the delta.
#[test]
fn legacy_delta_checkpoint_is_ignored_and_purged() {
    use esd_core::maintain::GraphUpdate;
    let dir = std::env::temp_dir().join(format!("esd_fuzz_legacy_delta_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let g = fuzz_graph();
    let store = esd_durability::CheckpointStore::open(&dir).unwrap();
    let genesis =
        esd_core::index::delta::EdgeSetSnapshot::new(g.num_vertices() as u32, g.edges().to_vec());
    store.write_full(0, &genesis.encode()).unwrap();
    {
        let wal =
            esd_durability::WalWriter::open(&dir, esd_durability::WalOptions::default()).unwrap();
        for i in 0..FUZZ_BATCHES {
            let batch = [GraphUpdate::Insert(i, 100 + i)];
            wal.append(
                u64::from(i) + 1,
                &esd_serve::durability::encode_updates(&batch),
            )
            .unwrap();
        }
        wal.sync().unwrap();
    }
    let delta_epoch = 8u32;
    let added: Vec<(u32, u32)> = (0..delta_epoch).map(|i| (i, 100 + i)).collect();
    write_legacy_delta(&dir, 0, u64::from(delta_epoch), 100 + delta_epoch, &added);
    let delta_name = format!("ckpt-{:016x}-{:016x}.delta", 0, delta_epoch);
    assert!(dir.join(&delta_name).exists());

    let prefixes = prefix_edge_sets();
    let rec = esd_serve::durability::recover(&dir).unwrap().unwrap();
    assert_eq!(rec.report.checkpoint_epoch, 0, "recovery starts at genesis");
    assert_eq!(
        rec.report.wal_records_replayed,
        u64::from(FUZZ_BATCHES),
        "the WAL replays what the delta held"
    );
    assert_eq!(rec.report.skipped_invalid_checkpoints, 0);
    assert_eq!(rec.epoch, u64::from(FUZZ_BATCHES));
    assert_eq!(recovered_edges(&rec.index), prefixes[FUZZ_BATCHES as usize]);

    // A served restart on the directory, one write and a checkpoint.
    let mut durability = DurabilityConfig::new(&dir);
    durability.checkpoint_interval = 1;
    let cfg = ServiceConfig {
        workers: 0,
        durability: Some(durability),
        ..ServiceConfig::default()
    };
    let service = Service::try_start(&fuzz_graph(), &cfg).expect("legacy dir recovers");
    assert_eq!(service.recovery_report(), Some(&rec.report));
    let mut batch = MutationBatch::new();
    batch.insert(FUZZ_BATCHES, 100 + FUZZ_BATCHES);
    assert_eq!(service.handle().submit(batch).unwrap().applied, 1);
    service.shutdown();
    let mut ckpts: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ckpt-"))
        .collect();
    ckpts.sort();
    let last = u64::from(FUZZ_BATCHES) + 1;
    assert_eq!(
        ckpts,
        [
            format!("ckpt-{:016x}.full", 0),
            format!("ckpt-{last:016x}.full")
        ],
        "the checkpoint's purge deleted {delta_name}"
    );
    let rec = esd_serve::durability::recover(&dir).unwrap().unwrap();
    assert_eq!(rec.report.checkpoint_epoch, last);
    assert_eq!(rec.report.wal_records_replayed, 0);
    let mut expected = prefixes[FUZZ_BATCHES as usize].clone();
    expected.insert(esd_graph::Edge::new(FUZZ_BATCHES, 100 + FUZZ_BATCHES).key());
    assert_eq!(recovered_edges(&rec.index), expected);
    std::fs::remove_dir_all(&dir).ok();
}
