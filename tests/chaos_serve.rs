//! Chaos suite for `esd-serve`: seeded, deterministic fault plans replay a
//! mixed query+mutation workload and prove graceful degradation.
//!
//! Every scenario asserts three properties:
//!
//! 1. **No deadlock** — the workload runs to completion and every thread
//!    joins (the writer and workers answer every slot even when a window
//!    fails or a worker panics).
//! 2. **No wrong answers** — the post-chaos index state is *identical* to
//!    a fault-free replay of exactly the acknowledged batches, applied in
//!    acknowledgement order, on a fresh `MaintainedIndex` (running under
//!    `strict-invariants` in this test profile). The service's error
//!    contract makes this checkable: an `Ok` ack means applied and
//!    published; an `Err` ack means the window was rolled back and
//!    nothing from it survived.
//! 3. **Recovery** — after the storm the service still answers queries;
//!    a contained worker panic never poisons the engine.
//!
//! Determinism: each scenario prints its seed and fault plan up front.
//! The mutation stream is driven by a single sequential client seeded
//! from it, and fault triggers are pure functions of the per-point call
//! number, so `chaos_determinism_two_runs_agree` can demand bit-identical
//! outcomes across runs.
//!
//! The suite requires the `fault-injection` feature (armed for this
//! package's tests via the dev-dependency); in a disarmed build every
//! test skips itself.

use esd_core::maintain::{GraphUpdate, MutationBatch};
use esd_core::{EdgeOwnership, Family, FamilySuite, MaintainedIndex};
use esd_graph::{generators, Graph};
use esd_serve::{
    AckPolicy, DurabilityConfig, FaultKind, FaultPlan, FaultPoint, QueryRequest, RetryPolicy,
    ServeError, Service, ServiceConfig, Snapshot, Trigger,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Vertices in the chaos graph (dense ids `0..N`).
const N: u32 = 160;

/// Installs (once) a panic hook that silences the *expected* injected
/// panics so test output stays readable, while forwarding every real
/// panic (assertion failures included) to the default hook.
fn quiet_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("injected panic") {
                default(info);
            }
        }));
    });
}

fn chaos_graph(seed: u64) -> Graph {
    generators::clique_overlap(N as usize, 120, 5, seed)
}

fn chaos_config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: 64,
        cache_capacity: 1024,
        // No deadlines: every mutation outcome is determinate (Ok ⇒
        // applied, Err ⇒ rolled back), which is what makes the replay
        // check sound. Liveness is proven by the suite completing.
        default_deadline: None,
        pipeline_threads: 2,
        shed_stale_epochs: 1,
        durability: None,
        ..ServiceConfig::default()
    }
}

fn reader_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_micros(200),
        cap: Duration::from_millis(5),
        max_retries: 4,
        budget: Duration::from_millis(25),
        seed,
    }
}

/// One random small batch: 1–3 non-self-loop inserts/removes.
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

struct ChaosOutcome {
    g: Graph,
    /// Acknowledged batches, in acknowledgement (= apply) order.
    acked: Vec<Vec<GraphUpdate>>,
    snapshot: Arc<Snapshot>,
    write_errors: usize,
    queries_ok: u64,
    faults_injected: u64,
    worker_restarts: u64,
}

/// Runs `writes` sequential mutations under `plan` while `readers` query
/// threads hammer the service, then verifies recovery and returns the
/// evidence for the replay check.
fn run_chaos(
    label: &str,
    seed: u64,
    plan: FaultPlan,
    writes: usize,
    readers: usize,
) -> ChaosOutcome {
    run_chaos_with_families(label, seed, plan, writes, readers, false)
}

/// [`run_chaos`] with the reader family mix selectable: when
/// `mixed_families` is set, every reader draws each query's [`Family`]
/// uniformly from [`Family::ALL`] instead of staying on the component
/// default, so family queries hit the engine while windows are failing.
fn run_chaos_with_families(
    label: &str,
    seed: u64,
    plan: FaultPlan,
    writes: usize,
    readers: usize,
    mixed_families: bool,
) -> ChaosOutcome {
    quiet_injected_panics();
    println!("chaos[{label}]: seed={seed:#x} plan={plan:?}");
    let g = chaos_graph(seed);
    let service = Service::start_with_faults(&g, &chaos_config(2), plan);
    let handle = service.handle();

    let stop = Arc::new(AtomicBool::new(false));
    let queries_ok = Arc::new(AtomicU64::new(0));
    let reader_threads: Vec<_> = (0..readers)
        .map(|r| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let queries_ok = Arc::clone(&queries_ok);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0xAB00 + r as u64));
                let policy = reader_policy(seed ^ r as u64);
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(5..200);
                    let tau = rng.gen_range(1..=3);
                    let family = if mixed_families {
                        Family::ALL[rng.gen_range(0..Family::ALL.len())]
                    } else {
                        Family::Component
                    };
                    let request = QueryRequest::new(k, tau).with_family(family);
                    match handle.execute_with_retry(request, &policy) {
                        Ok(_) => {
                            queries_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::ShuttingDown) => break,
                        // Transient failures past the retry budget are
                        // acceptable; the recovery phase below asserts
                        // the service comes back.
                        Err(_) => {}
                    }
                }
            })
        })
        .collect();

    // A single sequential mutator: batch i+1 is only submitted after
    // batch i was acknowledged, so the acked order IS the apply order.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let mut acked = Vec::new();
    let mut write_errors = 0usize;
    for _ in 0..writes {
        let ops = random_ops(&mut rng);
        match handle.submit(MutationBatch::from_raw(ops.clone())) {
            Ok(_) => acked.push(ops),
            Err(e) => {
                assert!(
                    matches!(e, ServeError::Internal(_)),
                    "unexpected write error under chaos: {e}"
                );
                write_errors += 1;
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for t in reader_threads {
        t.join().expect("reader thread survived the storm");
    }

    // Recovery: the service still answers a burst of queries (with
    // retries, since EveryNth plans keep firing).
    let recovery = RetryPolicy::new(seed ^ 0x1234);
    for k in 1..=10 {
        handle
            .execute_with_retry(QueryRequest::new(10 * k, 2), &recovery)
            .unwrap_or_else(|e| panic!("post-chaos query {k} failed (seed={seed:#x}): {e}"));
    }

    let metrics = handle.metrics();
    let outcome = ChaosOutcome {
        g,
        acked,
        snapshot: handle.snapshot(),
        write_errors,
        queries_ok: queries_ok.load(Ordering::Relaxed),
        faults_injected: metrics.faults_injected.get(),
        worker_restarts: metrics.worker_restarts.get(),
    };
    println!(
        "chaos[{label}]: acked={} write_errors={} queries_ok={} faults={} restarts={}",
        outcome.acked.len(),
        outcome.write_errors,
        outcome.queries_ok,
        outcome.faults_injected,
        outcome.worker_restarts,
    );
    service.shutdown();
    outcome
}

fn edge_keys(index: &MaintainedIndex) -> BTreeSet<u64> {
    index
        .graph()
        .edges()
        .iter()
        .map(esd_graph::Edge::key)
        .collect()
}

/// Core identity check: `served` (however it was obtained — live snapshot
/// or crash recovery) equals a fault-free replay of exactly `acked`, in
/// order, on a fresh strict-invariants index.
fn assert_index_matches_replay(
    served: &MaintainedIndex,
    g: &Graph,
    acked: &[Vec<GraphUpdate>],
    seed: u64,
    what: &str,
) {
    let mut replay = MaintainedIndex::new(g);
    for ops in acked {
        replay.apply_batch(ops);
    }
    assert_eq!(
        edge_keys(served),
        edge_keys(&replay),
        "{what}: final edge set diverged from fault-free replay (seed={seed:#x})"
    );
    assert_eq!(
        served.component_sizes(),
        replay.component_sizes(),
        "{what}: component sizes diverged from fault-free replay (seed={seed:#x})"
    );
    for (k, tau) in [(10, 1), (25, 2), (50, 3), (400, 1)] {
        assert_eq!(
            served.query(k, tau),
            replay.query(k, tau),
            "{what}: query ({k}, {tau}) diverged from fault-free replay (seed={seed:#x})"
        );
    }
}

/// Property 2: post-chaos state equals a fault-free replay of exactly the
/// acknowledged batches on a fresh index.
fn assert_matches_fault_free_replay(outcome: &ChaosOutcome, seed: u64) {
    assert_index_matches_replay(
        outcome.snapshot.index(),
        &outcome.g,
        &outcome.acked,
        seed,
        "served",
    );
}

/// Scenario 1 — injected `io::Error`s at snapshot publication: some
/// windows fail and roll back; everything acknowledged still replays.
#[test]
fn chaos_io_error_on_publish() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_0001;
    let plan = FaultPlan::new(seed).rule(
        FaultPoint::SnapshotPublish,
        Trigger::EveryNth(3),
        FaultKind::IoError,
    );
    let outcome = run_chaos("io_error_on_publish", seed, plan, 60, 2);
    assert!(outcome.faults_injected > 0, "the plan must actually fire");
    assert!(
        outcome.write_errors > 0,
        "every third publication fails, so some writes must error"
    );
    assert!(outcome.acked.len() >= 20, "most writes still land");
    assert_matches_fault_free_replay(&outcome, seed);
}

/// Scenario 2 — injected latency at every fault point: nothing fails,
/// everything is just slower; state identity is exact.
#[test]
fn chaos_latency_everywhere() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_0002;
    let lag = FaultKind::Latency(Duration::from_micros(800));
    let plan = FaultPlan::new(seed)
        .rule(FaultPoint::WriterApply, Trigger::EveryNth(5), lag)
        .rule(FaultPoint::SnapshotPublish, Trigger::EveryNth(7), lag)
        .rule(FaultPoint::WorkerDequeue, Trigger::PerMille(150), lag)
        .rule(FaultPoint::CacheLookup, Trigger::PerMille(100), lag);
    let outcome = run_chaos("latency_everywhere", seed, plan, 60, 2);
    // 60 writes ⇒ ≥ 60 WriterApply consultations ⇒ ≥ 12 deterministic
    // EveryNth(5) hits, before counting the probabilistic ones.
    assert!(outcome.faults_injected >= 12);
    assert_eq!(outcome.write_errors, 0, "latency never fails a window");
    assert_eq!(outcome.acked.len(), 60);
    assert!(outcome.queries_ok > 0);
    assert_matches_fault_free_replay(&outcome, seed);
}

/// Scenario 3 — worker panics: contained, counted, and demonstrably not
/// poisoning the service (the recovery burst inside `run_chaos` succeeds
/// while the plan keeps firing).
#[test]
fn chaos_worker_panic_does_not_poison() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_0003;
    let plan = FaultPlan::new(seed).rule(
        FaultPoint::WorkerDequeue,
        Trigger::EveryNth(4),
        FaultKind::Panic,
    );
    let outcome = run_chaos("worker_panic", seed, plan, 40, 3);
    assert!(
        outcome.worker_restarts > 0,
        "panics must be caught and counted"
    );
    assert!(
        outcome.queries_ok > 0,
        "the pool keeps serving between panics"
    );
    assert_eq!(outcome.write_errors, 0, "the write path is unaffected");
    assert_matches_fault_free_replay(&outcome, seed);
}

/// Scenario 4 — a mixed plan: writer I/O faults and panics, worker
/// panics, cache-lookup faults (degrade to recompute), publish faults.
#[test]
fn chaos_mixed_faults() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_0004;
    let plan = FaultPlan::new(seed)
        .rule(FaultPoint::WriterApply, Trigger::Nth(3), FaultKind::IoError)
        .rule(
            FaultPoint::WriterApply,
            Trigger::EveryNth(11),
            FaultKind::Panic,
        )
        .rule(
            FaultPoint::WorkerDequeue,
            Trigger::EveryNth(6),
            FaultKind::Panic,
        )
        .rule(
            FaultPoint::CacheLookup,
            Trigger::EveryNth(5),
            FaultKind::IoError,
        )
        .rule(
            FaultPoint::SnapshotPublish,
            Trigger::EveryNth(9),
            FaultKind::IoError,
        );
    let outcome = run_chaos("mixed", seed, plan, 60, 2);
    assert!(outcome.faults_injected > 0);
    assert!(
        outcome.worker_restarts > 0,
        "writer/worker panics contained"
    );
    assert!(outcome.write_errors > 0, "io faults fail some windows");
    assert!(outcome.acked.len() >= 20, "most writes still land");
    assert_matches_fault_free_replay(&outcome, seed);
}

/// Scenario 4b — mixed-family read traffic under the fault storm: readers
/// alternate across all four query families while windows fail, workers
/// panic, and cache lookups fault. Beyond the usual replay identity for
/// the component index, the post-chaos *family* state must equal a
/// from-scratch [`FamilySuite`] rebuild over the fault-free replay — a
/// rolled-back window that left family profiles behind (or vice versa)
/// would diverge here — and live family queries must answer from exactly
/// that state.
#[test]
fn chaos_mixed_family_queries_survive_faults() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_000C;
    let plan = FaultPlan::new(seed)
        .rule(
            FaultPoint::WriterApply,
            Trigger::EveryNth(7),
            FaultKind::IoError,
        )
        .rule(
            FaultPoint::WorkerDequeue,
            Trigger::EveryNth(6),
            FaultKind::Panic,
        )
        .rule(
            FaultPoint::CacheLookup,
            Trigger::EveryNth(5),
            FaultKind::IoError,
        )
        .rule(
            FaultPoint::SnapshotPublish,
            Trigger::EveryNth(9),
            FaultKind::IoError,
        );
    let outcome = run_chaos_with_families("mixed_families", seed, plan, 60, 3, true);
    assert!(outcome.faults_injected > 0, "the plan must actually fire");
    assert!(outcome.write_errors > 0, "io faults fail some windows");
    assert!(
        outcome.queries_ok > 0,
        "family queries keep completing under the storm"
    );
    assert_matches_fault_free_replay(&outcome, seed);

    // Per-family identity: replay exactly the acked batches fault-free,
    // rebuild the family state from the replayed graph, and demand the
    // served snapshot carries that state — and answers from it.
    let mut replay = MaintainedIndex::new(&outcome.g);
    for ops in &outcome.acked {
        replay.apply_batch(ops);
    }
    let expected = FamilySuite::rebuild(replay.graph(), EdgeOwnership::ALL);
    assert_eq!(
        *outcome.snapshot.families(),
        expected,
        "post-chaos family state diverged from fault-free replay (seed={seed:#x})"
    );
    for family in Family::MAINTAINED {
        for (k, tau) in [(10, 1), (25, 2), (400, 1)] {
            assert_eq!(
                outcome.snapshot.query_family(family, k, tau),
                expected.query(family, k, tau),
                "{family} query ({k}, {tau}) diverged post-chaos (seed={seed:#x})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Durable kill-and-recover scenarios
// ---------------------------------------------------------------------------

/// Fresh scratch directory for one durable scenario.
fn durable_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("esd_chaos_{tag}_{seed:x}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Byte-for-byte copy of the durable directory taken while the service is
/// still live: the crash image. The scenarios run with [`AckPolicy::Fsync`],
/// so every acknowledged batch is on disk at every instant — a copy taken
/// any time after the last ack is a faithful "kill -9 here" filesystem
/// state, unlike the real directory which a graceful shutdown tidies.
fn crash_image(dir: &std::path::Path) -> std::path::PathBuf {
    let image = dir.with_file_name(format!(
        "{}_image",
        dir.file_name().unwrap().to_string_lossy()
    ));
    std::fs::remove_dir_all(&image).ok();
    std::fs::create_dir_all(&image).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), image.join(entry.file_name())).unwrap();
    }
    image
}

struct DurableOutcome {
    g: Graph,
    /// Acknowledged batches, in acknowledgement (= apply = WAL) order.
    acked: Vec<Vec<GraphUpdate>>,
    write_errors: usize,
    dir: std::path::PathBuf,
    image: std::path::PathBuf,
    faults_injected: u64,
    wal_truncations: u64,
    ckpt_failures: u64,
    worker_restarts: u64,
}

/// Runs `writes` sequential mutations against a durable engine under
/// `plan`, snapshots the crash image *before* shutdown, and returns the
/// evidence for the recovery-equivalence check.
fn run_durable_chaos(
    label: &str,
    seed: u64,
    plan: FaultPlan,
    writes: usize,
    checkpoint_interval: u64,
) -> DurableOutcome {
    quiet_injected_panics();
    println!("chaos[{label}]: seed={seed:#x} plan={plan:?}");
    let g = chaos_graph(seed);
    let dir = durable_dir(label, seed);
    let mut cfg = chaos_config(2);
    let mut durability = DurabilityConfig::new(&dir);
    durability.ack_policy = AckPolicy::Fsync;
    durability.checkpoint_interval = checkpoint_interval;
    cfg.durability = Some(durability);
    let service =
        Service::try_start_with_faults(&g, &cfg, plan).expect("a fresh durable directory opens");
    let handle = service.handle();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let mut acked = Vec::new();
    let mut write_errors = 0usize;
    for _ in 0..writes {
        let ops = random_ops(&mut rng);
        match handle.submit(MutationBatch::from_raw(ops.clone())) {
            Ok(_) => acked.push(ops),
            Err(e) => {
                assert!(
                    matches!(e, ServeError::Internal(_)),
                    "unexpected write error under chaos: {e}"
                );
                write_errors += 1;
            }
        }
    }

    // Kill point: image the directory while the service is still running.
    let image = crash_image(&dir);
    let metrics = handle.metrics();
    let outcome = DurableOutcome {
        acked,
        write_errors,
        image,
        faults_injected: metrics.faults_injected.get(),
        wal_truncations: metrics.wal_truncations.get(),
        ckpt_failures: metrics.ckpt_failures.get(),
        worker_restarts: metrics.worker_restarts.get(),
        g,
        dir,
    };
    println!(
        "chaos[{label}]: acked={} write_errors={} faults={} truncations={} ckpt_failures={}",
        outcome.acked.len(),
        outcome.write_errors,
        outcome.faults_injected,
        outcome.wal_truncations,
        outcome.ckpt_failures,
    );
    service.shutdown();
    outcome
}

/// Recovers `dir` offline and asserts the recovered index equals a
/// fault-free replay of exactly the acknowledged batches.
fn assert_recovery_matches(
    dir: &std::path::Path,
    outcome: &DurableOutcome,
    seed: u64,
    what: &str,
) -> esd_serve::Recovered {
    let rec = esd_serve::durability::recover(dir)
        .unwrap_or_else(|e| panic!("{what}: recovery errored (seed={seed:#x}): {e}"))
        .unwrap_or_else(|| panic!("{what}: durable state missing (seed={seed:#x})"));
    assert_index_matches_replay(&rec.index, &outcome.g, &outcome.acked, seed, what);
    rec
}

fn cleanup_durable(outcome: &DurableOutcome) {
    std::fs::remove_dir_all(&outcome.dir).ok();
    std::fs::remove_dir_all(&outcome.image).ok();
}

/// Scenario 6 — injected `io::Error`s at the WAL fsync: under the
/// ack-after-fsync policy a failed sync fails the window, which must roll
/// back AND truncate the appended record, so neither the crash image nor
/// the post-shutdown directory ever replays an unacknowledged batch.
#[test]
fn chaos_wal_fsync_fault_kill_and_recover() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_0007;
    let plan = FaultPlan::new(seed).rule(
        FaultPoint::WalFsync,
        Trigger::EveryNth(4),
        FaultKind::IoError,
    );
    let outcome = run_durable_chaos("wal_fsync", seed, plan, 48, 8);
    assert!(outcome.faults_injected > 0, "the plan must actually fire");
    assert!(
        outcome.write_errors > 0,
        "a failed fsync must fail the window under AckPolicy::Fsync"
    );
    assert!(
        outcome.wal_truncations > 0,
        "failed windows that already appended must truncate the WAL"
    );
    assert!(outcome.acked.len() >= 20, "most writes still land");
    assert_recovery_matches(&outcome.image, &outcome, seed, "crash image");
    assert_recovery_matches(&outcome.dir, &outcome, seed, "post-shutdown dir");
    cleanup_durable(&outcome);
}

/// Scenario 7 — injected panics at the WAL append: contained by the
/// writer, the window rolls back, and recovery still replays exactly the
/// acked prefix.
#[test]
fn chaos_wal_append_panic_kill_and_recover() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_0008;
    let plan = FaultPlan::new(seed)
        .rule(
            FaultPoint::WalAppend,
            Trigger::EveryNth(5),
            FaultKind::Panic,
        )
        .rule(FaultPoint::WalAppend, Trigger::Nth(7), FaultKind::IoError);
    let outcome = run_durable_chaos("wal_append", seed, plan, 48, 8);
    assert!(outcome.faults_injected > 0, "the plan must actually fire");
    assert!(outcome.write_errors > 0, "append faults fail their windows");
    assert!(
        outcome.worker_restarts > 0,
        "the injected append panic is contained and counted"
    );
    assert!(outcome.acked.len() >= 20, "most writes still land");
    assert_recovery_matches(&outcome.image, &outcome, seed, "crash image");
    assert_recovery_matches(&outcome.dir, &outcome, seed, "post-shutdown dir");
    cleanup_durable(&outcome);
}

/// Scenario 8 — checkpoint writes fail (errors and panics): a checkpoint
/// is an *optimisation*, so no acked window may fail, the failures are
/// counted, and recovery falls back to a longer WAL replay with the same
/// final state.
#[test]
fn chaos_checkpoint_faults_never_fail_acked_windows() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_0009;
    let plan = FaultPlan::new(seed)
        .rule(
            FaultPoint::CheckpointWrite,
            Trigger::EveryNth(2),
            FaultKind::IoError,
        )
        .rule(
            FaultPoint::CheckpointWrite,
            Trigger::Nth(5),
            FaultKind::Panic,
        );
    let outcome = run_durable_chaos("ckpt_fault", seed, plan, 48, 3);
    assert!(outcome.faults_injected > 0, "the plan must actually fire");
    assert_eq!(
        outcome.write_errors, 0,
        "checkpoint failures must never fail an acked window"
    );
    assert_eq!(outcome.acked.len(), 48, "every write is acked");
    assert!(outcome.ckpt_failures > 0, "failures are counted");
    let rec = assert_recovery_matches(&outcome.image, &outcome, seed, "crash image");
    // With checkpoints failing, the WAL carries the weight: replay must
    // cover everything past whatever checkpoint (possibly only the
    // genesis one) survived.
    assert_eq!(
        rec.report.checkpoint_epoch + rec.report.wal_records_replayed,
        rec.epoch,
        "WAL replay bridges the checkpoint gap exactly (seed={seed:#x})"
    );
    assert_recovery_matches(&outcome.dir, &outcome, seed, "post-shutdown dir");
    cleanup_durable(&outcome);
}

/// Scenario 9 — the full durable storm: WAL faults, checkpoint faults,
/// writer faults, and worker panics at once. The ack contract holds the
/// line: recovery from the crash image equals the fault-free replay of
/// exactly the acknowledged batches.
#[test]
fn chaos_durable_mixed_storm() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_000A;
    let plan = FaultPlan::new(seed)
        .rule(
            FaultPoint::WriterApply,
            Trigger::EveryNth(9),
            FaultKind::IoError,
        )
        .rule(
            FaultPoint::WalAppend,
            Trigger::EveryNth(7),
            FaultKind::IoError,
        )
        .rule(FaultPoint::WalFsync, Trigger::Nth(11), FaultKind::IoError)
        .rule(
            FaultPoint::CheckpointWrite,
            Trigger::EveryNth(3),
            FaultKind::IoError,
        );
    let outcome = run_durable_chaos("durable_storm", seed, plan, 64, 4);
    assert!(outcome.faults_injected > 0);
    assert!(outcome.write_errors > 0, "some windows fail");
    assert!(outcome.acked.len() >= 30, "most writes still land");
    assert_recovery_matches(&outcome.image, &outcome, seed, "crash image");
    assert_recovery_matches(&outcome.dir, &outcome, seed, "post-shutdown dir");
    cleanup_durable(&outcome);
}

/// Scenario 10 — restart, then crash again. The first life runs under WAL
/// faults and is killed (crash image); we then emulate a kill mid-append
/// by writing a partial frame at the image's WAL tail. The second life
/// boots FROM that torn image — recovery must repair the tear before
/// re-opening the writer — serves more acked batches, and is killed in
/// turn. Recovery from the second image must equal a fault-free replay of
/// every batch acked in BOTH lives: a tear left in place would hide the
/// second life's fsynced records behind the first life's torn segment.
#[test]
fn chaos_restart_then_crash_keeps_second_life_acks() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_000B;
    let plan = FaultPlan::new(seed).rule(
        FaultPoint::WalFsync,
        Trigger::EveryNth(6),
        FaultKind::IoError,
    );
    let outcome = run_durable_chaos("restart_crash", seed, plan, 48, 8);
    assert!(outcome.acked.len() >= 20, "most writes still land");

    // Kill mid-append: a partial frame (prefix bytes only, bogus length)
    // lands at the tail of the newest WAL segment. Nothing acked is in it.
    let mut segments: Vec<_> = std::fs::read_dir(&outcome.image)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    let newest = segments.pop().expect("the first life wrote WAL segments");
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&newest)
            .unwrap();
        file.write_all(&[0xFF; 12]).unwrap();
    }

    // Second life: fault-free, booted on the torn image.
    let mut cfg = chaos_config(2);
    let mut durability = DurabilityConfig::new(&outcome.image);
    durability.ack_policy = AckPolicy::Fsync;
    durability.checkpoint_interval = 8;
    cfg.durability = Some(durability);
    let service = Service::try_start(&outcome.g, &cfg).expect("torn image recovers");
    let report = service
        .recovery_report()
        .expect("non-empty image recovers")
        .clone();
    assert!(report.wal_truncated, "the planted tear is seen");
    let handle = service.handle();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    let mut acked = outcome.acked.clone();
    for _ in 0..24 {
        let ops = random_ops(&mut rng);
        handle
            .submit(MutationBatch::from_raw(ops.clone()))
            .expect("fault-free second life acks everything");
        acked.push(ops);
    }
    let image2 = crash_image(&outcome.image);
    service.shutdown();

    let rec = esd_serve::durability::recover(&image2)
        .expect("second crash image recovers")
        .expect("durable state present");
    assert!(
        !rec.report.wal_truncated,
        "the first life's tear was physically repaired at restart"
    );
    assert_index_matches_replay(&rec.index, &outcome.g, &acked, seed, "second crash image");
    std::fs::remove_dir_all(&image2).ok();
    cleanup_durable(&outcome);
}

/// The reproducibility claim itself: with a single worker and no
/// concurrent readers, two runs of the same seeded plan produce
/// bit-identical acks, faults, and final state.
#[test]
fn chaos_determinism_two_runs_agree() {
    if !esd_serve::faults::enabled() {
        eprintln!("skipped: fault-injection feature not armed");
        return;
    }
    let seed = 0xC1A0_0006;
    let plan = || {
        FaultPlan::new(seed)
            .rule(
                FaultPoint::WriterApply,
                Trigger::EveryNth(3),
                FaultKind::IoError,
            )
            .rule(
                FaultPoint::SnapshotPublish,
                Trigger::EveryNth(4),
                FaultKind::IoError,
            )
    };
    let run = || run_chaos("determinism", seed, plan(), 50, 0);
    let (a, b) = (run(), run());
    assert_eq!(a.acked, b.acked, "acked batches must be identical");
    assert_eq!(a.write_errors, b.write_errors);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(edge_keys(a.snapshot.index()), edge_keys(b.snapshot.index()));
    assert_matches_fault_free_replay(&a, seed);
    assert_matches_fault_free_replay(&b, seed);
}
