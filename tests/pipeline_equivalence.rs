//! Equivalence suite for the served write path.
//!
//! A served window — an inline `Service` applying a batch through
//! `MaintainedIndex::apply_window` — promises to land on the state a
//! from-scratch construction of the final graph has: same edge set, same
//! component-size catalogue with the same list lengths, same answers to
//! every `(k, τ)` query, and the per-update dispositions a plain replay of
//! the batch on the graph alone gives. These tests drive the service with
//! randomized churn over the surrogate datasets and, after every window,
//! compare its published index against `MaintainedIndex::new` on the graph
//! replayed independently with `GraphUpdate::apply_to`.
//!
//! This binary is compiled with `strict-invariants` armed (root
//! dev-dependencies), so every mutation below also runs the incremental
//! structural audits, and each test ends with the full ego-network
//! partition recomputation via `check_consistency`.

use esd::api::{GraphUpdate, MutationBatch};
use esd::core::MaintainedIndex;
use esd::datasets::churn::{churn_trace, ChurnEvent, ChurnMix};
use esd::datasets::{load, Scale};
use esd::graph::{generators, DynamicGraph, Graph};
use rand::prelude::*;
use rand::rngs::StdRng;

const K_GRID: [usize; 3] = [1, 10, 100];
const TAU_GRID: [u32; 4] = [1, 2, 3, 4];

/// Asserts the two indexes are observably identical: same edge set, same
/// component-size catalogue with same per-size list lengths, and same
/// ranked answers across the whole query grid.
fn assert_state_identical(got: &MaintainedIndex, want: &MaintainedIndex, what: &str) {
    assert_eq!(
        got.graph().edges(),
        want.graph().edges(),
        "{what}: edge sets diverged"
    );
    let sizes = want.component_sizes();
    assert_eq!(got.component_sizes(), sizes, "{what}: component catalogue");
    for &c in &sizes {
        assert_eq!(got.list_len(c), want.list_len(c), "{what}: list H({c})");
    }
    for k in K_GRID {
        for tau in TAU_GRID {
            assert_eq!(
                got.query(k, tau),
                want.query(k, tau),
                "{what}: query(k={k}, tau={tau})"
            );
        }
    }
}

fn as_update(e: &ChurnEvent) -> GraphUpdate {
    match *e {
        ChurnEvent::Insert(u, v) => GraphUpdate::Insert(u, v),
        ChurnEvent::Remove(u, v) => GraphUpdate::Remove(u, v),
    }
}

/// Random raw updates over a bounded id range: dense enough to produce
/// duplicate inserts, missing removals, and intra-batch contradictions.
fn random_batch(rng: &mut StdRng, n: u32, len: usize) -> Vec<GraphUpdate> {
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            // Self-loops are kept: the window must classify them Rejected.
            if rng.gen_bool(0.6) {
                GraphUpdate::Insert(u, v)
            } else {
                GraphUpdate::Remove(u, v)
            }
        })
        .collect()
}

/// An engine that applies every window on the calling thread.
fn inline_service(g: &Graph) -> Service {
    Service::start(
        g,
        &ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    )
}

/// The served index against a rebuild of the reference graph.
fn assert_served_matches_rebuild(service: &Service, truth: &DynamicGraph, what: &str) {
    let snapshot = service.handle().snapshot();
    let rebuilt = MaintainedIndex::new(&truth.to_graph());
    assert_state_identical(snapshot.index(), &rebuilt, what);
}

/// Serves `batch` as one raw window, replays it on the reference graph
/// alone, and checks the window's (applied, noop, rejected) counts and
/// the served state against the replay. Returns the counts.
fn serve_and_check(
    service: &Service,
    truth: &mut DynamicGraph,
    batch: &[GraphUpdate],
    what: &str,
) -> (usize, usize, usize) {
    let ack = service
        .handle()
        .submit(MutationBatch::from_raw(batch.to_vec()))
        .unwrap_or_else(|e| panic!("{what}: submit failed: {e}"));
    let mut want = (0, 0, 0);
    for &update in batch {
        let (u, v) = update.endpoints();
        if u == v {
            want.2 += 1;
        } else if update.apply_to(truth) {
            want.0 += 1;
        } else {
            want.1 += 1;
        }
    }
    let got = (ack.applied, ack.noop, ack.rejected);
    assert_eq!(got, want, "{what}: dispositions");
    assert_served_matches_rebuild(service, truth, what);
    got
}

#[test]
fn churn_batches_match_sequential_on_surrogate_datasets() {
    for name in ["Youtube", "DBLP"] {
        let g = load(name, Scale::Tiny);
        let service = inline_service(&g);
        let mut truth = DynamicGraph::from_graph(&g);
        // Three rounds of realistic churn, each compared in full before
        // the next begins.
        let events = churn_trace(&g, 90, ChurnMix::default(), 0xE5D0);
        for (round, chunk) in events.chunks(30).enumerate() {
            let batch: Vec<GraphUpdate> = chunk.iter().map(as_update).collect();
            serve_and_check(
                &service,
                &mut truth,
                &batch,
                &format!("{name} round {round}"),
            );
        }
        service.handle().snapshot().index().check_consistency();
        service.shutdown();
    }
}

#[test]
fn adversarial_random_batches_match_sequential() {
    let g = generators::clique_overlap(160, 120, 5, 21);
    let service = inline_service(&g);
    let mut truth = DynamicGraph::from_graph(&g);
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    for round in 0..6 {
        // Ids beyond the current vertex count exercise mid-batch vertex
        // growth; a tight id range maximises intra-batch conflicts.
        let batch = random_batch(&mut rng, 170, 40);
        serve_and_check(
            &service,
            &mut truth,
            &batch,
            &format!("random round {round}"),
        );
    }
    service.handle().snapshot().index().check_consistency();
    service.shutdown();
}

#[test]
fn intra_batch_insert_then_remove_leaves_state_unchanged() {
    let g = generators::clique_overlap(100, 80, 5, 9);
    let service = inline_service(&g);
    let mut truth = DynamicGraph::from_graph(&g);
    let before = service.handle().snapshot();
    // (0, 99) is absent: the insert applies, then the remove undoes it
    // within the same batch. Both updates count as applied.
    let batch = [GraphUpdate::Insert(0, 99), GraphUpdate::Remove(0, 99)];
    let counts = serve_and_check(&service, &mut truth, &batch, "insert-then-remove");
    assert_eq!(counts, (2, 0, 0));
    let after = service.handle().snapshot();
    assert_state_identical(after.index(), before.index(), "insert-then-remove");
    after.index().check_consistency();
    service.shutdown();
}

#[test]
fn intra_batch_remove_then_insert_round_trips() {
    let g = generators::clique_overlap(100, 80, 5, 9);
    let service = inline_service(&g);
    let mut truth = DynamicGraph::from_graph(&g);
    let before = service.handle().snapshot();
    let e = g.edges()[0];
    let batch = [
        GraphUpdate::Remove(e.u, e.v),
        GraphUpdate::Insert(e.u, e.v),
        // A repeat insert of the now-present edge must be a no-op.
        GraphUpdate::Insert(e.u, e.v),
    ];
    let counts = serve_and_check(&service, &mut truth, &batch, "remove-then-insert");
    assert_eq!(counts, (2, 1, 0));
    let after = service.handle().snapshot();
    assert_state_identical(after.index(), before.index(), "remove-then-insert");
    after.index().check_consistency();
    service.shutdown();
}

#[test]
fn coalesced_batches_reach_the_same_final_state() {
    let g = generators::clique_overlap(120, 90, 5, 33);
    let raw = inline_service(&g);
    let coalesced = inline_service(&g);
    let mut truth = DynamicGraph::from_graph(&g);
    let mut rng = StdRng::seed_from_u64(0xC0A1);
    for round in 0..4 {
        let updates = random_batch(&mut rng, 120, 30);
        let what = format!("coalesce round {round}");
        serve_and_check(&raw, &mut truth, &updates, &what);
        // MutationBatch keeps only the last-queued op per edge; the
        // surviving updates must still produce the identical final index.
        coalesced
            .handle()
            .submit(MutationBatch::from(updates))
            .unwrap_or_else(|e| panic!("{what}: submit failed: {e}"));
        assert_served_matches_rebuild(&coalesced, &truth, &what);
    }
    raw.handle().snapshot().index().check_consistency();
    coalesced.handle().snapshot().index().check_consistency();
    raw.shutdown();
    coalesced.shutdown();
}

// ---------------------------------------------------------------------------
// Recovery equivalence: kill the durable engine at every WAL/checkpoint
// boundary and demand the recovered index is observably identical to a
// fault-free replay of exactly the batches acked before the kill.
// ---------------------------------------------------------------------------
//
// The durable engine appends one WAL record per *publishing* batch
// (epochs 1, 2, 3, …) and interleaves checkpoint writes (each of which
// may purge older checkpoints). A real crash can land between any two of
// those I/O steps. With ack-after-fsync, the filesystem state at each
// such instant is fully determined: the WAL cut at a record boundary plus
// exactly the checkpoints on disk at that moment. The property below
// images the live directory after every ack, reconstructs every crash
// image from those and recovers each — under `strict-invariants`, with
// the full query grid compared — against an independent sequential
// replay.

use esd_serve::{AckPolicy, DurabilityConfig, Service, ServiceConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A directory's files by name.
type DirImage = BTreeMap<String, Vec<u8>>;

fn image_dir(dir: &Path) -> DirImage {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Byte offsets of every record boundary in one WAL segment:
/// `offsets[e]` = length of the file holding exactly the first `e`
/// records (`offsets[0]` = just the segment header).
fn wal_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = vec![8];
    let mut pos = 8usize;
    // Frame = [u32 len][u32 crc][len bytes: u64 epoch + payload].
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 8 + len;
        if pos > bytes.len() {
            break;
        }
        out.push(pos);
    }
    out
}

/// Writes the crash image for a kill at WAL boundary `epoch`: the WAL
/// segment holding exactly the first `epoch` records plus the checkpoint
/// files of `ckpts` (the directory image from before or after the
/// checkpoint step at `epoch`).
fn write_crash_image(dir: &Path, wal_name: &str, wal_prefix: &[u8], ckpts: &DirImage) -> PathBuf {
    let image = dir.with_file_name(format!(
        "{}_img",
        dir.file_name().unwrap().to_string_lossy()
    ));
    std::fs::remove_dir_all(&image).ok();
    std::fs::create_dir_all(&image).unwrap();
    std::fs::write(image.join(wal_name), wal_prefix).unwrap();
    for (name, bytes) in ckpts.iter().filter(|(n, _)| n.starts_with("ckpt-")) {
        std::fs::write(image.join(name), bytes).unwrap();
    }
    image
}

/// Replays acked batches sequentially until the durable epoch counter
/// (one tick per batch with `applied > 0`) reaches `epoch`.
fn replay_to_epoch(
    g: &esd::graph::Graph,
    acked: &[Vec<GraphUpdate>],
    epoch: u64,
) -> MaintainedIndex {
    let mut replay = MaintainedIndex::new(g);
    let mut reached = 0u64;
    for ops in acked {
        if reached == epoch {
            break;
        }
        if replay.apply_batch(ops).applied > 0 {
            reached += 1;
        }
    }
    assert_eq!(reached, epoch, "boundary epoch {epoch} must be reachable");
    replay
}

fn recovery_equivalence_case(seed: u64) {
    let g = generators::clique_overlap(60, 40, 4, seed ^ 0x5EED);
    let dir = std::env::temp_dir().join(format!("esd_recov_eq_{seed:x}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut durability = DurabilityConfig::new(&dir);
    durability.ack_policy = AckPolicy::Fsync;
    durability.checkpoint_interval = 3;
    let cfg = ServiceConfig {
        workers: 0,
        durability: Some(durability),
        ..ServiceConfig::default()
    };
    let service = Service::try_start(&g, &cfg).expect("fresh durable dir opens");
    // `images[e]` = the live directory once epoch `e` is acked, including
    // whatever checkpoint (and purge) that epoch's publication triggered.
    let mut images: Vec<DirImage> = vec![image_dir(&dir)];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acked: Vec<Vec<GraphUpdate>> = Vec::new();
    for _ in 0..10 {
        let ops = random_batch(&mut rng, 70, 12);
        let ack = service
            .handle()
            .submit(MutationBatch::from_raw(ops.clone()))
            .expect("batch acked");
        if ack.applied > 0 {
            images.push(image_dir(&dir));
        }
        acked.push(ops);
    }
    service.shutdown();

    let wal: Vec<String> = images
        .last()
        .unwrap()
        .keys()
        .filter(|n| n.ends_with(".log"))
        .cloned()
        .collect();
    assert_eq!(wal.len(), 1, "the workload fits one WAL segment");
    let wal_name = &wal[0];
    let wal_bytes = std::fs::read(dir.join(wal_name)).unwrap();
    let boundaries = wal_boundaries(&wal_bytes);
    assert_eq!(boundaries.len(), images.len(), "one image per WAL boundary");

    for (epoch, &wal_len) in boundaries.iter().enumerate() {
        let wal_prefix = &wal_bytes[..wal_len];
        if let Some(live) = images[epoch].get(wal_name) {
            assert_eq!(live.as_slice(), wal_prefix, "live WAL at epoch {epoch}");
        }
        let epoch = epoch as u64;
        for include_ckpt_at_epoch in [false, true] {
            // Before the checkpoint step at `epoch` the checkpoint files are
            // those of the previous ack (none before genesis).
            let empty = DirImage::new();
            let ckpts = match (include_ckpt_at_epoch, epoch) {
                (true, e) => &images[e as usize],
                (false, 0) => &empty,
                (false, e) => &images[e as usize - 1],
            };
            let image = write_crash_image(&dir, wal_name, wal_prefix, ckpts);
            let what = format!(
                "seed {seed:#x}, kill at epoch {epoch} ({}checkpoint)",
                if include_ckpt_at_epoch {
                    "post-"
                } else {
                    "pre-"
                }
            );
            let recovered = esd_serve::durability::recover(&image)
                .unwrap_or_else(|e| panic!("{what}: recovery errored: {e}"));
            match recovered {
                // A kill before even the genesis checkpoint leaves no
                // durable state — recovery must say so, not fabricate.
                None => assert_eq!(
                    (epoch, include_ckpt_at_epoch),
                    (0, false),
                    "{what}: durable state vanished"
                ),
                Some(rec) => {
                    assert_eq!(rec.epoch, epoch, "{what}: recovered epoch");
                    let replay = replay_to_epoch(&g, &acked, epoch);
                    assert_state_identical(&rec.index, &replay, &what);
                    rec.index.check_consistency();
                }
            }
            std::fs::remove_dir_all(&image).ok();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random acked workloads, recovery from a kill at EVERY WAL
    /// record boundary — both before and after any checkpoint written at
    /// that boundary — reproduces the sequential replay exactly.
    #[test]
    fn recovery_at_every_boundary_matches_fault_free_replay(seed in any::<u64>()) {
        recovery_equivalence_case(seed);
    }
}

// ---------------------------------------------------------------------------
// Cross-shard equivalence: the sharded serving fleet promises *result
// identity* at every shard count — for every query family. Each shard holds
// a full graph replica but scores only its owned hash slice of the edge-key
// space; the scatter-gather merge reassembles the global ranking. These
// tests push the same seeded churn through ShardedService at S ∈ {1, 2, 4}
// and demand every (family, k, τ) query — after every batch — matches a
// plain single-engine replay (MaintainedIndex for the component family, a
// full-ownership FamilySuite for the rest) bit for bit, under
// strict-invariants.
// ---------------------------------------------------------------------------

use esd::core::{EdgeOwnership, Family, FamilySuite};
use esd_serve::{EngineHandle, QueryRequest, ShardConfig, ShardedService};

const SERVE_K_GRID: [usize; 5] = [1, 7, 10, 100, 400];

#[test]
fn sharded_serve_matches_single_engine_ground_truth() {
    let g = generators::clique_overlap(140, 100, 5, 77);
    let events = churn_trace(&g, 120, ChurnMix::default(), 0x5AAD);
    let batches: Vec<Vec<GraphUpdate>> = events
        .chunks(24)
        .map(|c| c.iter().map(as_update).collect())
        .collect();
    for shards in [1u32, 2, 4] {
        let cfg = ShardConfig {
            shards,
            per_shard: ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        };
        let service = ShardedService::start(&g, &cfg);
        let handle = service.handle();
        let mut truth = MaintainedIndex::new(&g);
        let mut truth_families = FamilySuite::new(&g);
        for (round, ops) in batches.iter().enumerate() {
            truth.apply_batch(ops);
            truth_families.apply_window(truth.graph(), ops);
            handle
                .submit(MutationBatch::from_raw(ops.clone()))
                .unwrap_or_else(|e| panic!("S={shards} round {round}: submit failed: {e}"));
            // Every shard applies the full batch to its replica, so the
            // published epoch vector stays uniform across shards.
            let epochs = handle.epochs();
            assert_eq!(epochs.shards(), shards as usize, "S={shards}: vector width");
            let first = epochs.components()[0];
            assert!(
                epochs.components().iter().all(|&e| e == first),
                "S={shards} round {round}: shards diverged in epoch: {epochs}"
            );
            for k in SERVE_K_GRID {
                for tau in TAU_GRID {
                    let resp = handle
                        .execute(QueryRequest::new(k, tau))
                        .unwrap_or_else(|e| {
                            panic!("S={shards} round {round}: query(k={k}, tau={tau}): {e}")
                        });
                    assert_eq!(
                        *resp.results,
                        truth.query(k, tau),
                        "S={shards} round {round}: query(k={k}, tau={tau}) diverged"
                    );
                    assert_eq!(
                        resp.epochs.shards(),
                        shards as usize,
                        "S={shards}: response vector width"
                    );
                    // The family axis: every non-component family merges
                    // back to the single-engine suite's answer through the
                    // same scatter-gather path.
                    for family in Family::MAINTAINED {
                        let resp = handle
                            .execute(QueryRequest::new(k, tau).with_family(family))
                            .unwrap_or_else(|e| {
                                panic!("S={shards} round {round}: {family}(k={k}, tau={tau}): {e}")
                            });
                        assert_eq!(resp.family, family, "S={shards}: family echo");
                        assert_eq!(
                            *resp.results,
                            truth_families.query(family, k, tau),
                            "S={shards} round {round}: {family} query(k={k}, tau={tau}) diverged"
                        );
                    }
                }
            }
        }
        truth.check_consistency();
        assert_eq!(
            truth_families,
            FamilySuite::rebuild(truth.graph(), EdgeOwnership::ALL),
            "single-engine family ground truth must itself match a rebuild"
        );
        service.shutdown();
    }
}

/// Raw adversarial batches (duplicate inserts, missing removals,
/// self-loops, intra-batch contradictions) routed through the mutation
/// coalescer and fanned out to every shard still land on the identical
/// final state at every shard count.
#[test]
fn sharded_serve_final_state_matches_under_adversarial_batches() {
    let g = generators::clique_overlap(120, 90, 5, 13);
    let mut rng = StdRng::seed_from_u64(0x5AAD_F00D);
    let batches: Vec<Vec<GraphUpdate>> = (0..5).map(|_| random_batch(&mut rng, 130, 30)).collect();
    let mut truth = MaintainedIndex::new(&g);
    for ops in &batches {
        // Ground truth applies the same coalesced view the service sees.
        let batch: MutationBatch = ops.clone().into();
        truth.apply_batch(&batch.into_updates());
    }
    truth.check_consistency();
    for shards in [1u32, 2, 4] {
        let cfg = ShardConfig {
            shards,
            per_shard: ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        };
        let service = ShardedService::start(&g, &cfg);
        let handle = service.handle();
        for (round, ops) in batches.iter().enumerate() {
            handle
                .submit(MutationBatch::from_raw(ops.clone()))
                .unwrap_or_else(|e| panic!("S={shards} round {round}: submit failed: {e}"));
        }
        for k in SERVE_K_GRID {
            for tau in TAU_GRID {
                let resp = handle.execute(QueryRequest::new(k, tau)).unwrap();
                assert_eq!(
                    *resp.results,
                    truth.query(k, tau),
                    "S={shards}: final query(k={k}, tau={tau}) diverged"
                );
            }
        }
        service.shutdown();
    }
}
