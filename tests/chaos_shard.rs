//! Chaos suite for the sharded serving fleet: kill and recover a single
//! shard's WAL while the rest of the fleet stays clean.
//!
//! The sharded ack contract mirrors the single-engine one, strengthened
//! across replicas: an `Ok` ack means the batch applied and published on
//! EVERY shard; an unhealable partial write poisons the fleet instead of
//! serving divergent merges. These scenarios drive that contract through
//! real faults:
//!
//! 1. **One shard's WAL faulted live** — injected fsync failures on shard
//!    1 only; the fan-out heals them by forward retry, nothing poisons,
//!    and every acked batch replays on a fault-free single engine.
//! 2. **Kill -9 the fleet with one shard torn mid-append** — a crash
//!    image of every per-shard WAL directory, shard 1's newest segment
//!    torn with a partial frame; a second fleet boots from the image,
//!    repairs the tear, and is query-identical to the replay, then keeps
//!    acking a second life.
//!
//! Requires the `fault-injection` feature for scenario 1 (armed for this
//! package's tests); in a disarmed build that scenario skips itself.

use esd_core::maintain::{GraphUpdate, MutationBatch};
use esd_core::MaintainedIndex;
use esd_graph::{generators, Graph};
use esd_serve::{
    AckPolicy, DurabilityConfig, EngineHandle, FaultKind, FaultPlan, FaultPoint, QueryRequest,
    ServiceConfig, ShardConfig, ShardedService, Trigger,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::{Path, PathBuf};

const N: u32 = 140;
const K_GRID: [usize; 4] = [1, 10, 50, 400];
const TAU_GRID: [u32; 3] = [1, 2, 3];

fn chaos_graph(seed: u64) -> Graph {
    generators::clique_overlap(N as usize, 100, 5, seed)
}

fn random_ops(rng: &mut StdRng) -> Vec<GraphUpdate> {
    (0..rng.gen_range(1..=3))
        .map(|_| {
            let (a, b) = loop {
                let (a, b) = (rng.gen_range(0..N), rng.gen_range(0..N));
                if a != b {
                    break (a, b);
                }
            };
            if rng.gen_bool(0.6) {
                GraphUpdate::Insert(a, b)
            } else {
                GraphUpdate::Remove(a, b)
            }
        })
        .collect()
}

fn durable_shard_config(root: &Path, shards: u32) -> ShardConfig {
    let mut durability = DurabilityConfig::new(root);
    durability.ack_policy = AckPolicy::Fsync;
    durability.checkpoint_interval = 6;
    ShardConfig {
        shards,
        per_shard: ServiceConfig {
            workers: 0,
            durability: Some(durability),
            ..ServiceConfig::default()
        },
    }
}

/// Asserts the fleet answers the whole query grid exactly like a
/// fault-free sequential replay of `acked` on a fresh strict-invariants
/// index.
fn assert_fleet_matches_replay(
    handle: &esd_serve::ShardedHandle,
    g: &Graph,
    acked: &[Vec<GraphUpdate>],
    what: &str,
) {
    let mut replay = MaintainedIndex::new(g);
    for ops in acked {
        replay.apply_batch(ops);
    }
    replay.check_consistency();
    for k in K_GRID {
        for tau in TAU_GRID {
            let resp = handle
                .execute(QueryRequest::new(k, tau))
                .unwrap_or_else(|e| panic!("{what}: query(k={k}, tau={tau}) failed: {e}"));
            assert_eq!(
                *resp.results,
                replay.query(k, tau),
                "{what}: query(k={k}, tau={tau}) diverged from fault-free replay"
            );
        }
    }
}

/// Recursive crash image of the fleet root (per-shard subdirectories
/// included), taken while the fleet is live: with ack-after-fsync every
/// acknowledged batch is on disk, so the copy is a faithful "kill -9
/// here" state for every shard at once.
fn fleet_crash_image(root: &Path) -> PathBuf {
    let image = root.with_file_name(format!(
        "{}_image",
        root.file_name().unwrap().to_string_lossy()
    ));
    std::fs::remove_dir_all(&image).ok();
    copy_tree(root, &image);
    image
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// The newest WAL segment under one shard's durable directory.
fn newest_wal_segment(shard_dir: &Path) -> PathBuf {
    let mut segments: Vec<_> = std::fs::read_dir(shard_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments.pop().expect("the shard wrote WAL segments")
}

/// Scenario 1 — live fsync faults on ONE shard's WAL: the fan-out heals
/// each failed window by forward retry (a rolled-back window is safe to
/// re-apply), so the fleet never poisons, every write acks, and the
/// merged answers stay identical to the fault-free replay.
#[test]
fn chaos_one_shard_wal_faulted_heals_without_poisoning() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0x5AAD_0001u64;
    let g = chaos_graph(seed);
    let root = std::env::temp_dir().join(format!("esd_chaos_shard_live_{seed:x}"));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let cfg = durable_shard_config(&root, 3);
    let plan = |i: u32| {
        if i == 1 {
            FaultPlan::new(seed).rule(
                FaultPoint::WalFsync,
                Trigger::EveryNth(4),
                FaultKind::IoError,
            )
        } else {
            FaultPlan::default()
        }
    };
    let service =
        ShardedService::try_start_with_faults(&g, &cfg, plan).expect("fresh fleet root opens");
    let handle = service.handle();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let mut acked = Vec::new();
    for round in 0..40 {
        let ops = random_ops(&mut rng);
        handle
            .submit(MutationBatch::from_raw(ops.clone()))
            .unwrap_or_else(|e| panic!("write {round} not healed: {e}"));
        acked.push(ops);
    }

    let faulted = handle.shard_handles()[1].metrics();
    assert!(
        faulted.faults_injected.get() > 0,
        "the shard-1 plan must actually fire"
    );
    assert!(
        faulted.wal_truncations.get() > 0,
        "failed fsync windows must truncate shard 1's WAL before the heal retry"
    );
    assert!(!handle.is_poisoned(), "healed faults must not poison");
    // Healing re-submits the batch, so shard 1 publishes every acked
    // epoch exactly once: the vector stays uniform.
    let epochs = handle.epochs();
    let first = epochs.components()[0];
    assert!(
        epochs.components().iter().all(|&e| e == first),
        "epoch vector diverged after healing: {epochs}"
    );
    assert_fleet_matches_replay(&handle, &g, &acked, "healed fleet");
    service.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// Scenario 2 — kill the fleet with shard 1's WAL torn mid-append, then
/// recover: the second fleet must repair the tear at boot (reported per
/// shard), answer the full grid exactly like the replay of everything
/// acked before the kill, and keep acking a second life whose writes
/// survive yet another kill.
#[test]
fn chaos_shard_wal_kill_and_recover() {
    let seed = 0x5AAD_0002u64;
    let g = chaos_graph(seed);
    let root = std::env::temp_dir().join(format!("esd_chaos_shard_kill_{seed:x}"));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).unwrap();
    let cfg = durable_shard_config(&root, 3);
    let service = ShardedService::try_start(&g, &cfg).expect("fresh fleet root opens");
    let handle = service.handle();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let mut acked = Vec::new();
    for _ in 0..30 {
        let ops = random_ops(&mut rng);
        handle
            .submit(MutationBatch::from_raw(ops.clone()))
            .expect("fault-free first life acks everything");
        acked.push(ops);
    }

    // Kill -9: image every shard's directory while the fleet is live,
    // then tear shard 1's newest segment with a partial frame (a crash
    // mid-append; nothing acked is inside it).
    let image = fleet_crash_image(&root);
    service.shutdown();
    {
        use std::io::Write;
        let newest = newest_wal_segment(&image.join("shard-1"));
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&newest)
            .unwrap();
        file.write_all(&[0xFF; 12]).unwrap();
    }

    // Second life, booted from the torn image.
    let cfg2 = durable_shard_config(&image, 3);
    let service2 = ShardedService::try_start(&g, &cfg2).expect("torn fleet image recovers");
    let reports = service2.recovery_reports();
    assert_eq!(reports.len(), 3);
    for (i, report) in reports.iter().enumerate() {
        let report = report.unwrap_or_else(|| panic!("shard {i} recovered nothing"));
        assert_eq!(
            report.wal_truncated,
            i == 1,
            "only shard 1's WAL was torn (shard {i}: {report:?})"
        );
    }
    let handle2 = service2.handle();
    // Every shard replays its own WAL to the same acked prefix: the
    // recovered epoch vector is uniform and the grid matches the replay.
    let epochs = handle2.epochs();
    let first = epochs.components()[0];
    assert!(
        epochs.components().iter().all(|&e| e == first),
        "recovered epoch vector diverged: {epochs}"
    );
    assert_fleet_matches_replay(&handle2, &g, &acked, "recovered fleet");

    // The recovered fleet keeps acking; a second kill keeps both lives.
    for _ in 0..15 {
        let ops = random_ops(&mut rng);
        handle2
            .submit(MutationBatch::from_raw(ops.clone()))
            .expect("fault-free second life acks everything");
        acked.push(ops);
    }
    assert_fleet_matches_replay(&handle2, &g, &acked, "second life");
    let image2 = fleet_crash_image(&image);
    service2.shutdown();

    let cfg3 = durable_shard_config(&image2, 3);
    let service3 = ShardedService::try_start(&g, &cfg3).expect("second image recovers");
    assert_fleet_matches_replay(&service3.handle(), &g, &acked, "third life");
    service3.shutdown();

    std::fs::remove_dir_all(&root).ok();
    std::fs::remove_dir_all(&image).ok();
    std::fs::remove_dir_all(&image2).ok();
}
