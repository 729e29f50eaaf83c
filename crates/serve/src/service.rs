//! The query service: a worker pool draining a bounded request queue, a
//! single writer applying update batches to a private index, and atomic
//! snapshot publication gluing the two together.
//!
//! ## Threading model
//!
//! * **Readers** never block on writes. A query loads the current
//!   [`Snapshot`] `Arc` and runs entirely against that frozen state;
//!   concurrent publications are invisible to it (stale-but-consistent).
//! * **The writer** is the only mutator. It drains queued update requests
//!   in bounded admission windows, merges every still-live request's
//!   updates into one batch, applies it through the index's one write
//!   path ([`MaintainedIndex::apply_window`]), and publishes a fresh
//!   epoch-stamped snapshot once per window — so a storm of single-edge
//!   updates costs one list commit and one index clone, not one per edge.
//!   Per-request outcomes are recovered by slicing the window's per-update
//!   dispositions.
//! * **Backpressure**: both queues are bounded; a full queue rejects the
//!   request with [`ServeError::QueueFull`] instead of growing without
//!   bound. Every request carries a deadline; requests that are already
//!   late when a worker picks them up are answered with
//!   [`ServeError::DeadlineExceeded`] rather than executed.
//!
//! With `workers == 0` the service runs **inline**: queries and updates
//! execute on the calling thread through exactly the same engine (snapshot,
//! cache, metrics). This is the mode the `esd stream` stdin loop uses, so
//! the interactive tool and the TCP server share one code path.

use crate::cache::{CacheKey, ResultCache};
use crate::durability::{DurabilityConfig, DurableState, RecoveryReport};
use crate::faults::{FaultInjector, FaultKind, FaultPlan, FaultPoint};
use crate::metrics::MetricsRegistry;
use crate::queue::{BoundedQueue, PushRefused};
use crate::retry::RetryPolicy;
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::sync::Unpoison;
use crate::vector_epoch::VectorEpoch;
use esd_core::maintain::{BatchStats, GraphUpdate, MutationBatch, UpdateDisposition};
use esd_core::{Construction, EdgeOwnership, Family, FamilySuite, MaintainedIndex, ScoredEdge};
use esd_graph::Graph;
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Query worker threads. `0` runs the whole engine inline on the
    /// calling thread (single-threaded mode, no writer thread either).
    pub workers: usize,
    /// Capacity of the query and update queues (each).
    pub queue_capacity: usize,
    /// Result cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Ignored: every window applies through the one sequential write
    /// path. Kept for the frozen benchmark harness, which sets it
    /// (`esdbench/src/workloads.rs:99`; see `esd_core::maintain`'s
    /// `compat` module).
    #[doc(hidden)]
    pub pipeline_threads: usize,
    /// How many epochs of stale cached results publication retains for
    /// overload shedding: when the query queue refuses a request, the
    /// service may answer from a cached result up to this many epochs old
    /// instead of rejecting outright. `0` disables stale serving (only
    /// current-epoch cache hits can shed).
    pub shed_stale_epochs: u64,
    /// Arms the durability subsystem (WAL + checkpoints + recovery on
    /// start). `None` (the default) serves purely in memory. When set and
    /// the directory already holds durable state, the **recovered** state
    /// wins over the graph passed to [`Service::start`].
    pub durability: Option<DurabilityConfig>,
    /// The slice of the edge space this engine maintains score state for.
    /// [`EdgeOwnership::ALL`] (the default) is the ordinary single-engine
    /// service; [`crate::shard::ShardedService`] starts one engine per
    /// slice and merges their answers.
    pub ownership: EdgeOwnership,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 1024,
            cache_capacity: 4096,
            default_deadline: Some(Duration::from_secs(10)),
            pipeline_threads: 2,
            shed_stale_epochs: 1,
            durability: None,
            ownership: EdgeOwnership::ALL,
        }
    }
}

/// One top-`k` query, as accepted by [`ServiceHandle::execute`] — the
/// query half of the `esd::api` vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRequest {
    /// Maximum number of results.
    pub k: usize,
    /// Component-size threshold `τ` (must be ≥ 1). Families that ignore τ
    /// ([`Family::uses_tau`]) still validate it for a uniform request
    /// shape.
    pub tau: u32,
    /// Which diversity measure ranks the results. The default,
    /// [`Family::Component`], preserves the pre-family behaviour and wire
    /// format exactly.
    pub family: Family,
    /// Answer-by deadline; `None` falls back to the service default.
    pub before: Option<Instant>,
}

impl QueryRequest {
    /// A component-family request with the service's default deadline.
    #[must_use]
    pub fn new(k: usize, tau: u32) -> Self {
        Self {
            k,
            tau,
            family: Family::Component,
            before: None,
        }
    }

    /// Selects the query family (defaults to [`Family::Component`]).
    #[must_use]
    pub fn with_family(mut self, family: Family) -> Self {
        self.family = family;
        self
    }

    /// Sets an explicit answer-by deadline.
    #[must_use]
    pub fn before(mut self, deadline: Instant) -> Self {
        self.before = Some(deadline);
        self
    }
}

/// Why the service could not answer a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is full — shed load and retry.
    QueueFull,
    /// The request's deadline passed before it could be served.
    DeadlineExceeded,
    /// The service is shutting down.
    ShuttingDown,
    /// The request itself is invalid (e.g. `τ = 0`).
    BadRequest(String),
    /// The service hit an internal failure (a contained panic or an
    /// injected/real I/O fault) while handling the request. For updates
    /// this always means **not applied**: the writer rolls its working
    /// copy back to the last published snapshot before answering, so a
    /// retry is safe.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull => write!(f, "queue full"),
            Self::DeadlineExceeded => write!(f, "deadline exceeded"),
            Self::ShuttingDown => write!(f, "service shutting down"),
            Self::BadRequest(msg) => write!(f, "bad request: {msg}"),
            Self::Internal(msg) => write!(f, "internal failure: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successful query, with its provenance.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The ranked results (shared with the cache — cheap to clone).
    pub results: Arc<Vec<ScoredEdge>>,
    /// The family that ranked the results (echoed from the request).
    pub family: Family,
    /// Composite scalar epoch of the answering state: the engine epoch for
    /// a single-engine service, the **sum** of per-shard epochs for a
    /// sharded one (monotonic under publications either way). The precise
    /// per-shard picture is [`QueryResponse::epochs`].
    pub epoch: u64,
    /// The epoch vector of the snapshot(s) that answered: scalar for S = 1,
    /// one component per shard for S > 1.
    pub epochs: VectorEpoch,
    /// Whether the answer came from the result cache.
    pub cache_hit: bool,
    /// `true` when overload shedding answered from a *stale* epoch's
    /// cached result (always at most `shed_stale_epochs` behind). Normal
    /// answers — including current-epoch shed hits — are not degraded.
    pub degraded: bool,
    /// Maximum per-shard staleness of the answer: how many epochs the most
    /// lagging component of [`QueryResponse::epochs`] trails the freshest
    /// state known when the response was assembled. `0` for non-degraded
    /// answers; for a single engine this is the shed-path epoch delta.
    pub lag: u64,
    /// End-to-end latency (submission to completion).
    pub latency: Duration,
}

/// A successful update batch, with its provenance.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Updates actually applied.
    pub applied: usize,
    /// Updates the graph already satisfied (duplicate insert, missing
    /// removal).
    pub noop: usize,
    /// Updates rejected as structurally invalid (self-loops).
    pub rejected: usize,
    /// Composite scalar epoch once this batch was visible to readers (the
    /// sum of per-shard epochs for a sharded service).
    pub epoch: u64,
    /// The epoch vector once this batch was visible on every shard.
    pub epochs: VectorEpoch,
    /// End-to-end latency (submission to publication).
    pub latency: Duration,
}

impl BatchOutcome {
    /// `noop + rejected` — what the pre-split API called "skipped".
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.noop + self.rejected
    }
}

/// A one-shot response slot: the requester parks on it, the worker fills it.
#[derive(Debug)]
struct Slot<T> {
    value: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Self {
            value: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn put(&self, v: T) {
        *self.value.lock().unpoison() = Some(v);
        self.ready.notify_one();
    }

    /// Waits until the slot is filled or `deadline` passes.
    fn wait(&self, deadline: Option<Instant>) -> Option<T> {
        let mut guard = self.value.lock().unpoison();
        loop {
            if let Some(v) = guard.take() {
                return Some(v);
            }
            match deadline {
                None => guard = self.ready.wait(guard).unpoison(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    guard = self.ready.wait_timeout(guard, d - now).unpoison().0;
                }
            }
        }
    }
}

#[derive(Debug)]
struct QueryJob {
    family: Family,
    k: usize,
    tau: u32,
    deadline: Option<Instant>,
    enqueued: Instant,
    slot: Arc<Slot<Result<QueryResponse, ServeError>>>,
}

#[derive(Debug)]
struct UpdateJob {
    updates: Vec<GraphUpdate>,
    deadline: Option<Instant>,
    enqueued: Instant,
    slot: Arc<Slot<Result<BatchOutcome, ServeError>>>,
}

/// Shared engine state: everything the workers, the writer, and the
/// handles touch.
#[derive(Debug)]
pub(crate) struct Engine {
    snapshot: SnapshotCell,
    cache: ResultCache,
    metrics: MetricsRegistry,
    /// The writer's private working copy. Readers never lock this; they go
    /// through the published snapshot.
    writer_index: Mutex<MaintainedIndex>,
    /// The writer's private copy of the non-component family state,
    /// published together with `writer_index` in every snapshot. Locked
    /// **after** `writer_index` (and only while holding it), so a window's
    /// index/family updates are one serialized story.
    writer_families: Mutex<FamilySuite>,
    query_queue: BoundedQueue<QueryJob>,
    update_queue: BoundedQueue<UpdateJob>,
    inline: bool,
    default_deadline: Option<Duration>,
    shed_stale_epochs: u64,
    faults: FaultInjector,
    /// Durable commit state (WAL + checkpoint store). Locked **after**
    /// `writer_index`, and only while holding it, so a window's
    /// apply/append/fsync/checkpoint is one serialized story.
    durable: Option<Mutex<DurableState>>,
    /// What recovery found at startup, if the durable directory was
    /// non-empty.
    recovery: Option<RecoveryReport>,
}

/// The graph engines start from, with its one [`Construction`] pass built
/// on first use: every engine of a fleet that starts from the graph slices
/// the same pass, and an engine that recovers durable state never runs it.
#[derive(Debug)]
pub(crate) struct Origin<'a> {
    g: &'a Graph,
    pass: OnceCell<Construction>,
}

impl<'a> Origin<'a> {
    pub(crate) fn new(g: &'a Graph) -> Self {
        Self {
            g,
            pass: OnceCell::new(),
        }
    }

    /// The index and family suite of `ownership`'s slice of the graph.
    pub(crate) fn slice(&self, ownership: EdgeOwnership) -> (MaintainedIndex, FamilySuite) {
        self.pass
            .get_or_init(|| Construction::new(self.g))
            .slice(ownership)
    }
}

impl Engine {
    /// Infallible constructor for the common in-memory case; panics only
    /// if a configured durable directory cannot be opened or recovered.
    fn new(g: &Graph, cfg: &ServiceConfig, plan: FaultPlan) -> Self {
        Self::build(&Origin::new(g), cfg, plan).expect("durability init failed")
    }

    /// Builds the engine, opening (or recovering) the durable directory
    /// when [`ServiceConfig::durability`] is set. The recovered state wins
    /// over the origin graph; a fresh durable directory gets a genesis full
    /// checkpoint of it so the starting graph itself is recoverable.
    fn build(origin: &Origin<'_>, cfg: &ServiceConfig, plan: FaultPlan) -> std::io::Result<Self> {
        let (index, families, epoch, durable, recovery) = match &cfg.durability {
            None => {
                let (index, families) = origin.slice(cfg.ownership);
                (index, families, 0, None, None)
            }
            Some(dcfg) => {
                let init = crate::durability::open_or_recover(origin, dcfg, cfg.ownership)?;
                (
                    init.index,
                    init.families,
                    init.epoch,
                    Some(Mutex::new(init.state)),
                    init.report,
                )
            }
        };
        let engine = Self {
            snapshot: SnapshotCell::new(Snapshot::new(epoch, index.clone(), families.clone())),
            cache: ResultCache::new(cfg.cache_capacity),
            metrics: MetricsRegistry::default(),
            writer_index: Mutex::new(index),
            writer_families: Mutex::new(families),
            query_queue: BoundedQueue::new(cfg.queue_capacity),
            update_queue: BoundedQueue::new(cfg.queue_capacity),
            inline: cfg.workers == 0,
            default_deadline: cfg.default_deadline,
            shed_stale_epochs: cfg.shed_stale_epochs,
            faults: FaultInjector::from_plan(plan),
            durable,
            recovery,
        };
        if let Some(report) = &engine.recovery {
            engine
                .metrics
                .wal_replayed_records
                .add(report.wal_records_replayed);
        }
        Ok(engine)
    }

    /// Consults the fault plan at `point`. Latency faults sleep here and
    /// return `Ok`; I/O faults return a synthetic error for the call site
    /// to surface; panic faults unwind so the surrounding containment can
    /// prove it holds. Sole owner of the `faults_injected` counters.
    fn fault(&self, point: FaultPoint) -> std::io::Result<()> {
        let Some(kind) = self.faults.fire(point) else {
            return Ok(());
        };
        self.metrics.faults_injected.incr();
        esd_telemetry::add(esd_telemetry::Metric::ServeFaultsInjected, 1);
        match kind {
            FaultKind::Latency(d) => {
                std::thread::sleep(d);
                Ok(())
            }
            FaultKind::IoError => Err(std::io::Error::other(format!(
                "injected i/o fault at {}",
                point.name()
            ))),
            FaultKind::Panic => panic!("injected panic at {}", point.name()),
        }
    }

    /// Records one contained panic (worker or writer) in both registries.
    fn note_contained_panic(&self) {
        self.metrics.worker_restarts.incr();
        esd_telemetry::add(esd_telemetry::Metric::ServeWorkerRestarts, 1);
    }

    fn effective_deadline(&self, deadline: Option<Instant>) -> Option<Instant> {
        deadline.or_else(|| self.default_deadline.map(|d| Instant::now() + d))
    }

    /// Executes one query against the current snapshot, consulting and
    /// filling the cache. `started` anchors the reported latency. An
    /// injected I/O fault at the cache lookup degrades gracefully: the
    /// query bypasses the cache and recomputes from the snapshot.
    fn execute_query(&self, family: Family, k: usize, tau: u32, started: Instant) -> QueryResponse {
        let _span = esd_telemetry::span(esd_telemetry::Stage::ServeQuery);
        let snapshot = self.snapshot.load();
        let key = CacheKey {
            family,
            k: k as u64,
            tau,
            epoch: snapshot.epoch(),
        };
        let cache_usable = self.fault(FaultPoint::CacheLookup).is_ok();
        let cached = if cache_usable {
            self.cache.get(&key)
        } else {
            None
        };
        let (results, cache_hit) = match cached {
            Some(hit) => {
                self.metrics.cache_hits.incr();
                (hit, true)
            }
            None => {
                self.metrics.cache_misses.incr();
                let fresh = Arc::new(snapshot.query_family(family, k, tau));
                if cache_usable {
                    self.cache.insert(key, Arc::clone(&fresh));
                }
                (fresh, false)
            }
        };
        self.metrics.queries_served.incr();
        let latency = started.elapsed();
        self.metrics.query_latency.record(latency);
        QueryResponse {
            results,
            family,
            epoch: snapshot.epoch(),
            epochs: VectorEpoch::scalar(snapshot.epoch()),
            cache_hit,
            degraded: false,
            lag: 0,
            latency,
        }
    }

    /// [`execute_query`](Self::execute_query) with panic containment: an
    /// injected (or real) panic is caught, counted, and turned into
    /// [`ServeError::Internal`] — the serving thread survives. Shared by
    /// the worker pool and the inline path.
    fn run_query_contained(
        &self,
        family: Family,
        k: usize,
        tau: u32,
        started: Instant,
    ) -> Result<QueryResponse, ServeError> {
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.fault(FaultPoint::WorkerDequeue)
                .map_err(|e| ServeError::Internal(e.to_string()))?;
            Ok(self.execute_query(family, k, tau, started))
        }));
        match result {
            Ok(response) => response,
            Err(_) => {
                self.note_contained_panic();
                Err(ServeError::Internal(
                    "query worker panicked; worker restarted".into(),
                ))
            }
        }
    }

    /// Overload shedding: when the queue refuses a query, try to answer
    /// from the cache instead — first at the current epoch, then from up
    /// to `shed_stale_epochs` older epochs that publication retains for
    /// exactly this purpose. A slightly-stale answer beats an outright
    /// rejection. Sole owner of the `shed` counters; shed answers are
    /// *not* counted as `queries_served`/`cache_hits` so throughput
    /// numbers stay honest.
    fn shed_query(
        &self,
        family: Family,
        k: usize,
        tau: u32,
        started: Instant,
    ) -> Option<QueryResponse> {
        let current = self.snapshot.load().epoch();
        for back in 0..=self.shed_stale_epochs {
            let Some(epoch) = current.checked_sub(back) else {
                break;
            };
            let key = CacheKey {
                family,
                k: k as u64,
                tau,
                epoch,
            };
            if let Some(results) = self.cache.get(&key) {
                self.metrics.shed.incr();
                esd_telemetry::add(esd_telemetry::Metric::ServeShed, 1);
                return Some(QueryResponse {
                    results,
                    family,
                    epoch,
                    epochs: VectorEpoch::scalar(epoch),
                    cache_hit: true,
                    degraded: back > 0,
                    lag: back,
                    latency: started.elapsed(),
                });
            }
        }
        None
    }

    /// Publishes `index` as a new epoch and purges cache entries that are
    /// too old even for shedding (everything before `epoch −
    /// shed_stale_epochs`). Call with the writer lock held so no competing
    /// publication can interleave. An injected fault here fails the whole
    /// window — the caller rolls back, so a failed publication is never
    /// half-visible.
    fn publish_locked(
        &self,
        index: &MaintainedIndex,
        families: &FamilySuite,
    ) -> Result<u64, ServeError> {
        let _span = esd_telemetry::span(esd_telemetry::Stage::ServePublish);
        self.fault(FaultPoint::SnapshotPublish)
            .map_err(|e| ServeError::Internal(e.to_string()))?;
        let epoch = self.snapshot.load().epoch() + 1;
        self.snapshot.store(Arc::new(Snapshot::new(
            epoch,
            index.clone(),
            families.clone(),
        )));
        self.cache
            .purge_older_than(epoch.saturating_sub(self.shed_stale_epochs));
        self.metrics.snapshots_published.incr();
        Ok(epoch)
    }

    /// Appends the window's updates to the WAL, stamped with the epoch
    /// [`publish_locked`](Self::publish_locked) is about to assign, and —
    /// under [`crate::durability::AckPolicy::Fsync`] — makes the record
    /// durable before the publish. Called inside the window containment,
    /// so a failure (injected at `wal_append`/`wal_fsync` or real) fails
    /// the whole window and the caller truncates the speculative record.
    fn wal_commit(
        &self,
        durable: &mut DurableState,
        updates: &[GraphUpdate],
    ) -> Result<(), ServeError> {
        let internal = |e: std::io::Error| ServeError::Internal(e.to_string());
        let epoch = self.snapshot.load().epoch() + 1;
        let bytes = {
            let _span = esd_telemetry::span(esd_telemetry::Stage::WalAppend);
            self.fault(FaultPoint::WalAppend).map_err(internal)?;
            durable
                .wal
                .append(epoch, &crate::durability::encode_updates(updates))
                .map_err(internal)?
        };
        self.metrics.wal_records.incr();
        self.metrics.wal_bytes.add(bytes);
        esd_telemetry::add(esd_telemetry::Metric::WalRecords, 1);
        esd_telemetry::add(esd_telemetry::Metric::WalBytes, bytes);
        let sync_now = match durable.policy {
            crate::durability::AckPolicy::Fsync => true,
            crate::durability::AckPolicy::Enqueue => {
                durable.wal.unsynced_bytes() >= durable.group_bytes
            }
        };
        if sync_now {
            let _span = esd_telemetry::span(esd_telemetry::Stage::WalFsync);
            self.fault(FaultPoint::WalFsync).map_err(internal)?;
            durable.wal.sync().map_err(internal)?;
            self.metrics.wal_fsyncs.incr();
            esd_telemetry::add(esd_telemetry::Metric::WalFsyncs, 1);
        }
        Ok(())
    }

    /// The abort half of the transactional WAL append: physically removes
    /// everything after `mark` so a record whose window failed (and was
    /// therefore acked `Err`) can never be replayed. A failed truncate
    /// poisons the WAL writer — subsequent windows fail cleanly rather
    /// than risking an un-acked record surviving to recovery.
    fn wal_abort(
        &self,
        durable: &mut DurableState,
        mark: &esd_durability::WalMark,
        appended_at_mark: u64,
    ) {
        if durable.wal.appended() == appended_at_mark {
            return; // the window failed before its append — nothing to undo
        }
        // On Err the writer is poisoned: `WalWriter` refuses all further
        // appends, so the next window fails cleanly instead of risking an
        // un-acked record surviving to recovery. Either way the abort is
        // counted — the record will not be replayed.
        let _ = durable.wal.truncate_to(mark);
        self.metrics.wal_truncations.incr();
        esd_telemetry::add(esd_telemetry::Metric::WalTruncations, 1);
    }

    /// Checkpoint cadence: every `checkpoint_interval` publications, write
    /// a full checkpoint of the edge set; the previous checkpoint becomes
    /// the retained fallback, and every older checkpoint and the WAL prefix
    /// up to the fallback's epoch are purged, so exactly two generations
    /// remain. Runs *after* the window published, under its own panic
    /// containment: a checkpoint failure (injected at `checkpoint_write`
    /// or real) must never turn an already-acked batch into an error. It
    /// is counted and retried at the next interval.
    fn maybe_checkpoint(&self, durable: &mut DurableState, index: &MaintainedIndex, epoch: u64) {
        durable.publications += 1;
        if durable.publications < durable.checkpoint_interval {
            return;
        }
        let result = catch_unwind(AssertUnwindSafe(|| -> std::io::Result<()> {
            let _span = esd_telemetry::span(esd_telemetry::Stage::CkptWrite);
            self.fault(FaultPoint::CheckpointWrite)?;
            let current = esd_core::index::delta::EdgeSetSnapshot::from_graph(index.graph());
            durable.ckpts.write_full(epoch, &current.encode())?;
            durable.prev_full_epoch = durable.full_epoch;
            durable.full_epoch = epoch;
            // Purge only below the *retained fallback* generation, in the
            // checkpoints and in the WAL alike: if the checkpoint just
            // written later fails validation (bit rot), recovery falls
            // back to the previous checkpoint, which needs the WAL
            // records above its epoch to reconstruct the acked state. An
            // older checkpoint kept past this point would be a fallback
            // whose WAL tail is gone.
            durable.ckpts.purge_older_than(durable.prev_full_epoch)?;
            durable.wal.purge_up_to(durable.prev_full_epoch)?;
            self.metrics.ckpt_full.incr();
            esd_telemetry::add(esd_telemetry::Metric::CkptFull, 1);
            Ok(())
        }));
        match result {
            Ok(Ok(())) => durable.publications = 0,
            Ok(Err(_)) => {
                self.metrics.ckpt_failures.incr();
                esd_telemetry::add(esd_telemetry::Metric::CkptFailures, 1);
            }
            Err(_) => {
                self.note_contained_panic();
                self.metrics.ckpt_failures.incr();
                esd_telemetry::add(esd_telemetry::Metric::CkptFailures, 1);
            }
        }
    }

    /// One apply window: lock the writer's working copy, apply `updates`
    /// through the index's write path, log the window to the WAL (when durable),
    /// publish if anything changed — with injected faults and panics
    /// contained *inside* the lock scope. On any failure the working copy
    /// is rolled back to the last published snapshot **and** the window's
    /// speculative WAL record is truncated away before the error is
    /// returned, so an `Err` always means **nothing from this window was
    /// applied, published, or logged** (and the mutex is never poisoned:
    /// no panic crosses the lock boundary).
    fn apply_window(
        &self,
        updates: &[GraphUpdate],
    ) -> Result<(Vec<UpdateDisposition>, u64), ServeError> {
        type WindowResult = Result<(Vec<UpdateDisposition>, BatchStats, u64), ServeError>;
        let mut index = self.writer_index.lock().unpoison();
        let mut families = self.writer_families.lock().unpoison();
        let mut durable = self.durable.as_ref().map(|m| m.lock().unpoison());
        // Taken before containment so both failure arms can abort to it.
        let wal_mark = durable.as_ref().map(|d| (d.wal.mark(), d.wal.appended()));
        let window = catch_unwind(AssertUnwindSafe(|| -> WindowResult {
            self.fault(FaultPoint::WriterApply)
                .map_err(|e| ServeError::Internal(e.to_string()))?;
            let outcome = index.apply_window(updates);
            let epoch = if outcome.stats.applied > 0 {
                // Family state rides the same window: recomputed against
                // the post-batch graph, published in the same snapshot,
                // rolled back with the index on any failure below.
                families.apply_window(index.graph(), updates);
                if let Some(d) = durable.as_deref_mut() {
                    self.wal_commit(d, updates)?;
                }
                self.publish_locked(&index, &families)?
            } else {
                self.snapshot.load().epoch()
            };
            Ok((outcome.dispositions, outcome.stats, epoch))
        }));
        match window {
            Ok(Ok((dispositions, stats, epoch))) => {
                self.metrics.updates_applied.add(stats.applied as u64);
                self.metrics.updates_noop.add(stats.noop as u64);
                self.metrics.updates_rejected.add(stats.rejected as u64);
                if stats.applied > 0 {
                    if let Some(d) = durable.as_deref_mut() {
                        self.maybe_checkpoint(d, &index, epoch);
                    }
                }
                Ok((dispositions, epoch))
            }
            Ok(Err(e)) => {
                let published = self.snapshot.load();
                *index = published.index().clone();
                *families = published.families().clone();
                if let (Some(d), Some((mark, at))) = (durable.as_deref_mut(), &wal_mark) {
                    self.wal_abort(d, mark, *at);
                }
                Err(e)
            }
            Err(_) => {
                self.note_contained_panic();
                let published = self.snapshot.load();
                *index = published.index().clone();
                *families = published.families().clone();
                if let (Some(d), Some((mark, at))) = (durable.as_deref_mut(), &wal_mark) {
                    self.wal_abort(d, mark, *at);
                }
                Err(ServeError::Internal(
                    "writer panicked mid-window; state rolled back, nothing applied".into(),
                ))
            }
        }
    }

    /// Inline (single-threaded) update path: apply + publish on the caller.
    fn apply_inline(
        &self,
        updates: &[GraphUpdate],
        started: Instant,
    ) -> Result<BatchOutcome, ServeError> {
        let (dispositions, epoch) = self.apply_window(updates)?;
        let stats = BatchStats::from_dispositions(&dispositions);
        let latency = started.elapsed();
        self.metrics.update_latency.record(latency);
        Ok(BatchOutcome {
            applied: stats.applied,
            noop: stats.noop,
            rejected: stats.rejected,
            epoch,
            epochs: VectorEpoch::scalar(epoch),
            latency,
        })
    }

    fn shutdown(&self) {
        self.query_queue.close();
        self.update_queue.close();
    }

    /// Final WAL fsync at shutdown (best effort) — under
    /// [`crate::durability::AckPolicy::Enqueue`] this is what makes the
    /// deferred tail of acked batches durable on a clean exit.
    fn sync_durable(&self) {
        if let Some(durable) = &self.durable {
            let d = durable.lock().unpoison();
            if d.wal.sync().is_ok() {
                self.metrics.wal_fsyncs.incr();
                esd_telemetry::add(esd_telemetry::Metric::WalFsyncs, 1);
            }
        }
    }
}

/// How many queued update requests the writer coalesces into one
/// publication. Bounds writer-side latency while amortising the snapshot
/// clone across a burst.
const WRITER_CHUNK: usize = 64;

fn worker_loop(engine: &Engine) {
    while let Some(job) = engine.query_queue.pop() {
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            engine.metrics.deadline_exceeded.incr();
            job.slot.put(Err(ServeError::DeadlineExceeded));
            continue;
        }
        // Containment happens per job: a panicking query answers its own
        // slot with `Internal` and the worker thread keeps draining.
        job.slot
            .put(engine.run_query_contained(job.family, job.k, job.tau, job.enqueued));
    }
}

fn writer_loop(engine: &Engine) {
    while let Some(first) = engine.update_queue.pop() {
        let mut chunk = vec![first];
        while chunk.len() < WRITER_CHUNK {
            match engine.update_queue.try_pop() {
                Some(job) => chunk.push(job),
                None => break,
            }
        }
        // Coalesce every still-live job's updates into ONE apply window,
        // sharing one list commit and one publication. Jobs already
        // past their deadline are excluded up front; `ranges[i]` remembers
        // which slice of the merged batch belongs to live job `i` so its
        // dispositions can be handed back individually.
        let mut merged: Vec<GraphUpdate> = Vec::new();
        let mut ranges: Vec<Option<std::ops::Range<usize>>> = Vec::with_capacity(chunk.len());
        for job in &chunk {
            if job.deadline.is_some_and(|d| Instant::now() >= d) {
                ranges.push(None);
                continue;
            }
            let start = merged.len();
            merged.extend_from_slice(&job.updates);
            ranges.push(Some(start..merged.len()));
        }
        // An empty merge (every job expired, or only empty batches) has
        // nothing to apply — skip the writer lock and the apply window and
        // hand out the current epoch.
        let window = if merged.is_empty() {
            Ok((Vec::new(), engine.snapshot.load().epoch()))
        } else {
            // Faults and panics are contained inside the window; on Err
            // the writer's working copy was rolled back, so every live
            // job is answered "not applied" and the writer keeps running.
            engine.apply_window(&merged)
        };
        for (job, range) in chunk.into_iter().zip(ranges) {
            match (range, &window) {
                (Some(range), Ok((dispositions, epoch))) => {
                    let stats = BatchStats::from_dispositions(&dispositions[range]);
                    let latency = job.enqueued.elapsed();
                    engine.metrics.update_latency.record(latency);
                    job.slot.put(Ok(BatchOutcome {
                        applied: stats.applied,
                        noop: stats.noop,
                        rejected: stats.rejected,
                        epoch: *epoch,
                        epochs: VectorEpoch::scalar(*epoch),
                        latency,
                    }));
                }
                (Some(_), Err(e)) => job.slot.put(Err(e.clone())),
                (None, _) => {
                    engine.metrics.deadline_exceeded.incr();
                    job.slot.put(Err(ServeError::DeadlineExceeded));
                }
            }
        }
    }
}

/// The running service: owns the worker and writer threads. Obtain
/// [`ServiceHandle`]s via [`Service::handle`]; drop (or
/// [`Service::shutdown`]) to stop.
#[derive(Debug)]
pub struct Service {
    engine: Arc<Engine>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

/// Outer containment budget: how many times a worker/writer thread whose
/// loop itself unwinds (i.e. a panic escaping the per-job containment) is
/// restarted in place before the thread gives up. Per-job containment
/// makes reaching this path unlikely; the cap guarantees a pathological
/// panic source can never spin a thread forever.
const MAX_THREAD_RESTARTS: u32 = 16;

/// Runs `body` in a restart-in-place loop: a panic that escapes it is
/// counted and the loop re-entered, up to [`MAX_THREAD_RESTARTS`] times.
fn contained_thread_loop(engine: &Engine, body: fn(&Engine)) {
    for _ in 0..MAX_THREAD_RESTARTS {
        if catch_unwind(AssertUnwindSafe(|| body(engine))).is_ok() {
            return; // clean shutdown
        }
        engine.note_contained_panic();
    }
}

impl Service {
    /// Builds the index for `g` and starts the configured threads, with no
    /// faults armed.
    pub fn start(g: &Graph, cfg: &ServiceConfig) -> Self {
        Self::start_with_faults(g, cfg, FaultPlan::default())
    }

    /// [`start`](Self::start), but durable-directory open/recovery errors
    /// are returned instead of panicking. Prefer this whenever
    /// [`ServiceConfig::durability`] is set.
    pub fn try_start(g: &Graph, cfg: &ServiceConfig) -> std::io::Result<Self> {
        Self::try_start_with_faults(g, cfg, FaultPlan::default())
    }

    /// [`try_start`](Self::try_start) with a deterministic [`FaultPlan`]
    /// armed.
    pub fn try_start_with_faults(
        g: &Graph,
        cfg: &ServiceConfig,
        plan: FaultPlan,
    ) -> std::io::Result<Self> {
        Self::try_start_from(&Origin::new(g), cfg, plan)
    }

    /// [`try_start_with_faults`](Self::try_start_with_faults) from an
    /// origin other engines may share.
    pub(crate) fn try_start_from(
        origin: &Origin<'_>,
        cfg: &ServiceConfig,
        plan: FaultPlan,
    ) -> std::io::Result<Self> {
        Ok(Self::launch(
            Arc::new(Engine::build(origin, cfg, plan)?),
            cfg,
        ))
    }

    /// [`start`](Self::start) with a deterministic [`FaultPlan`] armed.
    ///
    /// Without the `fault-injection` cargo feature the plan is inert: the
    /// injector compiles to a zero-sized no-op and the service behaves
    /// exactly like [`start`](Self::start). The chaos suite guards on
    /// [`crate::faults::enabled`] for this reason.
    pub fn start_with_faults(g: &Graph, cfg: &ServiceConfig, plan: FaultPlan) -> Self {
        Self::launch(Arc::new(Engine::new(g, cfg, plan)), cfg)
    }

    fn launch(engine: Arc<Engine>, cfg: &ServiceConfig) -> Self {
        let mut threads = Vec::new();
        for i in 0..cfg.workers {
            let engine = Arc::clone(&engine);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("esd-worker-{i}"))
                    .spawn(move || contained_thread_loop(&engine, worker_loop))
                    .expect("spawn worker"),
            );
        }
        if cfg.workers > 0 {
            let engine = Arc::clone(&engine);
            threads.push(
                std::thread::Builder::new()
                    .name("esd-writer".into())
                    .spawn(move || contained_thread_loop(&engine, writer_loop))
                    .expect("spawn writer"),
            );
        }
        Self { engine, threads }
    }

    /// A cloneable handle for submitting queries and updates.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            engine: Arc::clone(&self.engine),
        }
    }

    /// Stops accepting work, drains the queues, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.engine.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // With the writer joined no further appends can race this.
        self.engine.sync_durable();
    }

    /// What crash recovery found at startup, if the configured durable
    /// directory held state. `None` for in-memory services and fresh
    /// durable directories.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.engine.recovery.as_ref()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A cloneable, thread-safe handle to a running [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceHandle {
    engine: Arc<Engine>,
}

impl ServiceHandle {
    /// Executes one [`QueryRequest`] (the query half of the `esd::api`
    /// vocabulary). A request without a deadline falls back to the
    /// configured default; a default of `None` waits indefinitely.
    pub fn execute(&self, request: QueryRequest) -> Result<QueryResponse, ServeError> {
        let QueryRequest {
            k,
            tau,
            family,
            before,
        } = request;
        if tau == 0 {
            return Err(ServeError::BadRequest("tau must be at least 1".into()));
        }
        let started = Instant::now();
        let deadline = self.engine.effective_deadline(before);
        if self.engine.inline {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                self.engine.metrics.deadline_exceeded.incr();
                return Err(ServeError::DeadlineExceeded);
            }
            return self.engine.run_query_contained(family, k, tau, started);
        }
        let slot = Arc::new(Slot::new());
        let job = QueryJob {
            family,
            k,
            tau,
            deadline,
            enqueued: started,
            slot: Arc::clone(&slot),
        };
        match self.engine.query_queue.try_push(job) {
            Ok(depth) => self
                .engine
                .metrics
                .queue_depth_peak
                .record_max(depth as u64),
            Err(PushRefused::Full) => {
                // Overload: before rejecting, try to shed to a cached
                // (possibly one-epoch-stale) answer.
                self.engine.metrics.rejected_queue_full.incr();
                if let Some(response) = self.engine.shed_query(family, k, tau, started) {
                    return Ok(response);
                }
                return Err(ServeError::QueueFull);
            }
            Err(PushRefused::Closed) => return Err(ServeError::ShuttingDown),
        }
        match slot.wait(deadline) {
            Some(result) => result,
            None => {
                self.engine.metrics.deadline_exceeded.incr();
                Err(ServeError::DeadlineExceeded)
            }
        }
    }

    /// Executes a query inline on the calling thread against the current
    /// published snapshot, bypassing the worker queue. Readers need no
    /// coordination with the worker pool — snapshot publication is atomic
    /// — so the sharded scatter-gather path uses this to avoid paying `S`
    /// queue round-trips per merged query: the gather thread *is* the
    /// worker. Semantics otherwise match [`execute`](Self::execute):
    /// deadline pre-check, cache, panic containment, metrics. What it
    /// gives up is queue-level backpressure (`QueueFull` shedding) — the
    /// caller bounds its own concurrency.
    pub(crate) fn execute_direct(
        &self,
        request: QueryRequest,
    ) -> Result<QueryResponse, ServeError> {
        let QueryRequest {
            k,
            tau,
            family,
            before,
        } = request;
        if tau == 0 {
            return Err(ServeError::BadRequest("tau must be at least 1".into()));
        }
        let started = Instant::now();
        let deadline = self.engine.effective_deadline(before);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.engine.metrics.deadline_exceeded.incr();
            return Err(ServeError::DeadlineExceeded);
        }
        self.engine.run_query_contained(family, k, tau, started)
    }

    /// Submits a [`MutationBatch`] with the service's default deadline. The
    /// returned outcome's epoch is already visible to subsequent queries.
    pub fn submit(&self, batch: MutationBatch) -> Result<BatchOutcome, ServeError> {
        self.submit_before(batch, None)
    }

    /// Submits a [`MutationBatch`] with an explicit deadline.
    pub fn submit_before(
        &self,
        batch: MutationBatch,
        deadline: Option<Instant>,
    ) -> Result<BatchOutcome, ServeError> {
        let updates = batch.into_updates();
        let started = Instant::now();
        let deadline = self.engine.effective_deadline(deadline);
        if self.engine.inline {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                self.engine.metrics.deadline_exceeded.incr();
                return Err(ServeError::DeadlineExceeded);
            }
            return self.engine.apply_inline(&updates, started);
        }
        let slot = Arc::new(Slot::new());
        let job = UpdateJob {
            updates,
            deadline,
            enqueued: started,
            slot: Arc::clone(&slot),
        };
        match self.engine.update_queue.try_push(job) {
            Ok(_) => {}
            Err(PushRefused::Full) => {
                self.engine.metrics.rejected_queue_full.incr();
                return Err(ServeError::QueueFull);
            }
            Err(PushRefused::Closed) => return Err(ServeError::ShuttingDown),
        }
        match slot.wait(deadline) {
            Some(result) => result,
            None => {
                self.engine.metrics.deadline_exceeded.incr();
                Err(ServeError::DeadlineExceeded)
            }
        }
    }

    /// Whether `e` is worth retrying. Transient conditions (`QueueFull`
    /// backpressure, an `Internal` fault — which for updates guarantees
    /// "not applied") always are; `DeadlineExceeded` only when each
    /// attempt gets a *fresh* deadline (no explicit `before` was given —
    /// note a timed-out update may still land, which is safe here because
    /// inserts/removes are idempotent ensure-ops).
    pub(crate) fn retryable(e: &ServeError, fresh_deadline: bool) -> bool {
        match e {
            ServeError::QueueFull | ServeError::Internal(_) => true,
            ServeError::DeadlineExceeded => fresh_deadline,
            ServeError::ShuttingDown | ServeError::BadRequest(_) => false,
        }
    }

    /// Sleeps one backoff delay if the budget allows, counting the retry.
    /// Returns `false` when the policy is exhausted.
    pub(crate) fn backoff_once(&self, delays: &mut crate::retry::Backoff) -> bool {
        match delays.next() {
            Some(d) => {
                self.engine.metrics.retries.incr();
                esd_telemetry::add(esd_telemetry::Metric::ServeRetries, 1);
                std::thread::sleep(d);
                true
            }
            None => false,
        }
    }

    /// [`execute`](Self::execute) with transient failures retried per
    /// `policy` (exponential backoff, decorrelated jitter, budget-capped).
    /// Sole owner of the `serve.retries` accounting together with
    /// [`submit_with_retry`](Self::submit_with_retry).
    pub fn execute_with_retry(
        &self,
        request: QueryRequest,
        policy: &RetryPolicy,
    ) -> Result<QueryResponse, ServeError> {
        let mut delays = policy.delays();
        loop {
            match self.execute(request) {
                Err(e) if Self::retryable(&e, request.before.is_none()) => {
                    if !self.backoff_once(&mut delays) {
                        return Err(e);
                    }
                }
                other => return other,
            }
        }
    }

    /// [`submit`](Self::submit) with transient failures retried per
    /// `policy`. Safe to retry: an `Internal` ack means the window was
    /// rolled back (nothing applied), and re-applying an already-landed
    /// batch is a no-op because mutations are idempotent ensure-ops.
    pub fn submit_with_retry(
        &self,
        batch: MutationBatch,
        policy: &RetryPolicy,
    ) -> Result<BatchOutcome, ServeError> {
        let mut delays = policy.delays();
        loop {
            match self.submit(batch.clone()) {
                Err(e) if Self::retryable(&e, true) => {
                    if !self.backoff_once(&mut delays) {
                        return Err(e);
                    }
                }
                other => return other,
            }
        }
    }

    /// The current published snapshot (stable for as long as you hold it).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.engine.snapshot.load()
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.engine.metrics
    }

    /// Renders the metrics block, including live gauges (queue depths,
    /// cache size, current epoch).
    pub fn metrics_text(&self) -> String {
        self.engine.metrics.render(&[
            ("query_queue_depth", self.engine.query_queue.len() as u64),
            ("update_queue_depth", self.engine.update_queue.len() as u64),
            ("cache_entries", self.engine.cache.len() as u64),
            ("snapshot_epoch", self.engine.snapshot.load().epoch()),
        ])
    }
}

/// The shard-transparent engine surface of `esd::api`.
///
/// Everything a protocol [`Session`](crate::Session), the TCP
/// [`Server`](crate::Server), the CLI, and the bench loadgen need from an
/// engine, abstracted over *how many* engines stand behind the handle: the
/// single-engine [`ServiceHandle`] and the scatter-gather
/// [`ShardedHandle`](crate::shard::ShardedHandle) implement it identically,
/// so every caller runs unchanged against 1 shard or N.
///
/// The request/response vocabulary is shared — [`QueryRequest`],
/// [`MutationBatch`], [`QueryResponse`], [`BatchOutcome`] — and the only
/// shard-visible difference is the [`VectorEpoch`] a response carries
/// (scalar for S = 1, per-shard vector for S > 1).
pub trait EngineHandle: Clone + Send + Sync + 'static {
    /// Executes one [`QueryRequest`].
    fn execute(&self, request: QueryRequest) -> Result<QueryResponse, ServeError>;

    /// Submits a [`MutationBatch`] with the default deadline. The returned
    /// outcome's epochs are already visible to subsequent queries.
    fn submit(&self, batch: MutationBatch) -> Result<BatchOutcome, ServeError>;

    /// Submits a [`MutationBatch`] with an explicit deadline.
    fn submit_before(
        &self,
        batch: MutationBatch,
        deadline: Option<Instant>,
    ) -> Result<BatchOutcome, ServeError>;

    /// [`execute`](EngineHandle::execute) with transient failures retried
    /// per `policy`.
    fn execute_with_retry(
        &self,
        request: QueryRequest,
        policy: &RetryPolicy,
    ) -> Result<QueryResponse, ServeError>;

    /// [`submit`](EngineHandle::submit) with transient failures retried
    /// per `policy`.
    fn submit_with_retry(
        &self,
        batch: MutationBatch,
        policy: &RetryPolicy,
    ) -> Result<BatchOutcome, ServeError>;

    /// How many shards stand behind this handle (`1` for a single engine).
    fn shards(&self) -> usize;

    /// The currently published epoch vector (scalar for S = 1).
    fn epochs(&self) -> VectorEpoch;

    /// Renders the metrics block, including live gauges.
    fn metrics_text(&self) -> String;
}

impl EngineHandle for ServiceHandle {
    fn execute(&self, request: QueryRequest) -> Result<QueryResponse, ServeError> {
        ServiceHandle::execute(self, request)
    }

    fn submit(&self, batch: MutationBatch) -> Result<BatchOutcome, ServeError> {
        ServiceHandle::submit(self, batch)
    }

    fn submit_before(
        &self,
        batch: MutationBatch,
        deadline: Option<Instant>,
    ) -> Result<BatchOutcome, ServeError> {
        ServiceHandle::submit_before(self, batch, deadline)
    }

    fn execute_with_retry(
        &self,
        request: QueryRequest,
        policy: &RetryPolicy,
    ) -> Result<QueryResponse, ServeError> {
        ServiceHandle::execute_with_retry(self, request, policy)
    }

    fn submit_with_retry(
        &self,
        batch: MutationBatch,
        policy: &RetryPolicy,
    ) -> Result<BatchOutcome, ServeError> {
        ServiceHandle::submit_with_retry(self, batch, policy)
    }

    fn shards(&self) -> usize {
        1
    }

    fn epochs(&self) -> VectorEpoch {
        VectorEpoch::scalar(self.engine.snapshot.load().epoch())
    }

    fn metrics_text(&self) -> String {
        ServiceHandle::metrics_text(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_graph::{generators, DynamicGraph, Edge, VertexId};
    use std::collections::{BTreeSet, HashSet};

    fn test_graph() -> Graph {
        generators::clique_overlap(120, 90, 5, 42)
    }

    #[test]
    fn inline_mode_answers_like_the_index() {
        let g = test_graph();
        let expected = MaintainedIndex::new(&g).query(10, 2);
        let service = Service::start(
            &g,
            &ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        );
        let resp = service.handle().execute(QueryRequest::new(10, 2)).unwrap();
        assert_eq!(*resp.results, expected);
        assert_eq!(resp.epoch, 0);
        assert!(!resp.cache_hit);
        let again = service.handle().execute(QueryRequest::new(10, 2)).unwrap();
        assert!(again.cache_hit, "second identical query hits the cache");
        service.shutdown();
    }

    #[test]
    fn threaded_mode_round_trips() {
        let g = test_graph();
        let expected = MaintainedIndex::new(&g).query(10, 2);
        let service = Service::start(
            &g,
            &ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        for _ in 0..20 {
            assert_eq!(
                *handle.execute(QueryRequest::new(10, 2)).unwrap().results,
                expected
            );
        }
        assert_eq!(handle.metrics().queries_served.get(), 20);
        service.shutdown();
    }

    #[test]
    fn tau_zero_is_a_bad_request() {
        let service = Service::start(&test_graph(), &ServiceConfig::default());
        assert!(matches!(
            service.handle().execute(QueryRequest::new(5, 0)),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn queue_full_rejects_instead_of_queueing_unboundedly() {
        // Engine with a tiny queue and NO worker threads draining it: the
        // first submission parks a job, the second must be refused.
        let cfg = ServiceConfig {
            workers: 4, // ignored: we build the Engine directly
            queue_capacity: 1,
            cache_capacity: 0,
            default_deadline: Some(Duration::from_millis(200)),
            shed_stale_epochs: 1,
            durability: None,
            ownership: EdgeOwnership::ALL,
            ..ServiceConfig::default()
        };
        let engine = Arc::new(Engine::new(&test_graph(), &cfg, FaultPlan::default()));
        let handle = ServiceHandle {
            engine: Arc::clone(&engine),
        };
        let parked = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.execute(QueryRequest::new(5, 1)))
        };
        // Wait until the first job is actually queued.
        while engine.query_queue.len() < 1 {
            std::thread::yield_now();
        }
        assert!(matches!(
            handle.execute(QueryRequest::new(5, 1)),
            Err(ServeError::QueueFull)
        ));
        assert_eq!(engine.metrics.rejected_queue_full.get(), 1);
        // The parked job times out at its deadline instead of hanging.
        assert!(matches!(
            parked.join().unwrap(),
            Err(ServeError::DeadlineExceeded)
        ));
        engine.shutdown();
        assert!(matches!(
            handle.execute(QueryRequest::new(5, 1)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn queue_full_sheds_to_cached_results_when_available() {
        // Engine with a tiny queue, NO worker threads draining it, and a
        // live cache: once an answer is cached, an overloaded queue sheds
        // to it instead of rejecting.
        let cfg = ServiceConfig {
            workers: 4, // ignored: we build the Engine directly
            queue_capacity: 1,
            cache_capacity: 64,
            default_deadline: Some(Duration::from_millis(200)),
            shed_stale_epochs: 1,
            durability: None,
            ownership: EdgeOwnership::ALL,
            ..ServiceConfig::default()
        };
        let g = test_graph();
        let engine = Arc::new(Engine::new(&g, &cfg, FaultPlan::default()));
        let handle = ServiceHandle {
            engine: Arc::clone(&engine),
        };
        // Seed the cache at the current epoch, bypassing the queue.
        let seeded = engine.execute_query(Family::Component, 5, 1, Instant::now());
        assert!(!seeded.cache_hit);
        // Fill the queue with a parked job.
        let parked = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.execute(QueryRequest::new(5, 1)))
        };
        while engine.query_queue.len() < 1 {
            std::thread::yield_now();
        }
        // Same query sheds to the cached answer (fresh epoch → not
        // degraded); an uncached query still gets QueueFull.
        let shed = handle.execute(QueryRequest::new(5, 1)).unwrap();
        assert!(shed.cache_hit && !shed.degraded);
        assert_eq!(*shed.results, *seeded.results);
        assert_eq!(engine.metrics.shed.get(), 1);
        assert!(matches!(
            handle.execute(QueryRequest::new(7, 1)),
            Err(ServeError::QueueFull)
        ));
        // A publication makes the entry one epoch stale — still servable,
        // but marked degraded.
        let existing = g.edges()[0];
        let (_, epoch) = engine
            .apply_window(&[GraphUpdate::Remove(existing.u, existing.v)])
            .unwrap();
        assert_eq!(epoch, 1);
        let stale = handle.execute(QueryRequest::new(5, 1)).unwrap();
        assert!(stale.degraded, "served from the retained stale epoch");
        assert_eq!(stale.epoch, 0);
        assert_eq!(engine.metrics.shed.get(), 2);
        assert!(matches!(
            parked.join().unwrap(),
            Err(ServeError::DeadlineExceeded)
        ));
        engine.shutdown();
    }

    #[test]
    fn retry_wrappers_eventually_give_up_and_count() {
        // No workers drain the queue, so every attempt is QueueFull after
        // the parked job fills it; the retry wrapper must retry
        // max_retries times, count them, and surface the final error.
        let cfg = ServiceConfig {
            workers: 4, // ignored: we build the Engine directly
            queue_capacity: 1,
            cache_capacity: 0,
            default_deadline: Some(Duration::from_millis(500)),
            shed_stale_epochs: 1,
            durability: None,
            ownership: EdgeOwnership::ALL,
            ..ServiceConfig::default()
        };
        let engine = Arc::new(Engine::new(&test_graph(), &cfg, FaultPlan::default()));
        let handle = ServiceHandle {
            engine: Arc::clone(&engine),
        };
        let parked = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.execute(QueryRequest::new(5, 1)))
        };
        while engine.query_queue.len() < 1 {
            std::thread::yield_now();
        }
        let policy = RetryPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(1),
            max_retries: 3,
            budget: Duration::from_millis(50),
            seed: 1,
        };
        assert!(matches!(
            handle.execute_with_retry(QueryRequest::new(9, 1), &policy),
            Err(ServeError::QueueFull)
        ));
        assert_eq!(engine.metrics.retries.get(), 3);
        // BadRequest is never retried.
        assert!(matches!(
            handle.execute_with_retry(QueryRequest::new(9, 0), &policy),
            Err(ServeError::BadRequest(_))
        ));
        assert_eq!(engine.metrics.retries.get(), 3);
        let _ = parked.join().unwrap();
        engine.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_pending_handles() {
        let service = Service::start(&test_graph(), &ServiceConfig::default());
        let handle = service.handle();
        drop(service); // Drop-based shutdown.
        assert!(matches!(
            handle.execute(QueryRequest::new(5, 1)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn submit_reports_noop_and_rejected_separately() {
        let g = test_graph();
        let service = Service::start(
            &g,
            &ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        let existing = g.edges()[0];
        // from_raw so the duplicate insert and the self-loop both reach the
        // apply path instead of being coalesced away.
        let outcome = handle
            .submit(MutationBatch::from_raw(vec![
                GraphUpdate::Insert(existing.u, existing.v), // present → noop
                GraphUpdate::Insert(3, 3),                   // self-loop → rejected
            ]))
            .unwrap();
        assert_eq!((outcome.applied, outcome.noop, outcome.rejected), (0, 1, 1));
        assert_eq!(outcome.skipped(), 2);
        assert_eq!(handle.metrics().updates_noop.get(), 1);
        assert_eq!(handle.metrics().updates_rejected.get(), 1);
        service.shutdown();
    }

    #[test]
    fn submit_coalesces_to_the_last_op_per_edge() {
        let g = test_graph();
        let service = Service::start(&g, &ServiceConfig::default());
        let handle = service.handle();
        let epoch_before = handle.snapshot().epoch();
        // Insert-then-remove of an EXISTING edge coalesces to the remove
        // (the insert would have been a no-op anyway) — cancelling the
        // pair to nothing would silently drop a real removal.
        let existing = g.edges()[0];
        let mut batch = MutationBatch::new();
        batch
            .insert(existing.u, existing.v)
            .remove(existing.u, existing.v);
        assert_eq!(batch.len(), 1);
        let outcome = handle.submit(batch).unwrap();
        assert_eq!((outcome.applied, outcome.noop, outcome.rejected), (1, 0, 0));
        assert!(
            handle.snapshot().epoch() > epoch_before,
            "the surviving removal publishes a new epoch"
        );
        // On an ABSENT edge the surviving remove is a no-op at apply time,
        // so nothing publishes.
        let epoch = handle.snapshot().epoch();
        let mut batch = MutationBatch::new();
        batch.insert(200, 201).remove(200, 201);
        let outcome = handle.submit(batch).unwrap();
        assert_eq!((outcome.applied, outcome.noop, outcome.rejected), (0, 1, 0));
        assert_eq!(
            handle.snapshot().epoch(),
            epoch,
            "a no-op batch publishes nothing"
        );
        service.shutdown();
    }

    /// Adds the blast radius of updating `(u, v)` against `g` to `out`:
    /// the edge, the triangle edges `(u, w)` and `(v, w)` for every common
    /// neighbour `w`, and every ego pair of `N(u) ∩ N(v)` — the radius the
    /// component index and the family suite share.
    fn add_blast_radius(g: &DynamicGraph, u: VertexId, v: VertexId, out: &mut BTreeSet<u64>) {
        out.insert(Edge::new(u, v).key());
        let members = g.common_neighbors(u, v);
        for (i, &a) in members.iter().enumerate() {
            out.insert(Edge::new(u, a).key());
            out.insert(Edge::new(v, a).key());
            for &b in &members[i + 1..] {
                if g.has_edge(a, b) {
                    out.insert(Edge::new(a, b).key());
                }
            }
        }
    }

    /// `(adjacency, forest, list, profile, ranking)` pages that `next`
    /// does not share with `prev`.
    fn unshared_pages(next: &Snapshot, prev: &Snapshot) -> (usize, usize, usize, usize, usize) {
        (
            next.index()
                .graph()
                .pages_unshared_with(prev.index().graph()),
            next.index().forest_pages_unshared_with(prev.index()),
            next.index().list_pages_unshared_with(prev.index()),
            next.families().pages_unshared_with(prev.families()),
            next.families().ranking_pages_unshared_with(prev.families()),
        )
    }

    /// Keys in one of two full rankings but not the other, or `None` when
    /// both are empty.
    fn key_edits(prev: Vec<ScoredEdge>, next: Vec<ScoredEdge>) -> Option<usize> {
        let a: HashSet<ScoredEdge> = prev.into_iter().collect();
        let b: HashSet<ScoredEdge> = next.into_iter().collect();
        (!a.is_empty() || !b.is_empty()).then(|| a.symmetric_difference(&b).count())
    }

    /// `key_edits` summed over τ = 1, 2, … up to the largest τ either side
    /// answers. Each list is read at τ = its own size, so every list's key
    /// edits are counted at least once.
    fn edits_at_every_tau(diff: impl FnMut(u32) -> Option<usize>) -> usize {
        (1..).map_while(diff).sum()
    }

    /// Ranked keys that differ between two suites: the symmetric difference
    /// of every family's full ranking, the truss one at every τ.
    fn ranking_edits(next: &FamilySuite, prev: &FamilySuite) -> usize {
        let diff = |family: Family, tau: u32| {
            key_edits(
                prev.query(family, usize::MAX, tau),
                next.query(family, usize::MAX, tau),
            )
        };
        [Family::ParameterFree, Family::EgoBetweenness]
            .into_iter()
            .filter_map(|f| diff(f, 1))
            .sum::<usize>()
            + edits_at_every_tau(|tau| diff(Family::Truss, tau))
    }

    /// `H(c)` keys that differ between two component indexes, counted like
    /// [`ranking_edits`] counts the truss runs.
    fn list_edits(next: &MaintainedIndex, prev: &MaintainedIndex) -> usize {
        edits_at_every_tau(|tau| {
            key_edits(prev.query(usize::MAX, tau), next.query(usize::MAX, tau))
        })
    }

    #[test]
    fn publication_copies_only_the_blast_radius() {
        let g = generators::clique_overlap(1500, 1200, 6, 7);
        let service = Service::start(
            &g,
            &ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        );
        let handle = service.handle();
        let edges = g.edges();
        let mut windows: Vec<GraphUpdate> = (0..4)
            .map(|i| {
                let e = edges[i * edges.len() / 4];
                GraphUpdate::Remove(e.u, e.v)
            })
            .collect();
        // Re-inserting a removed edge restores its 4-cliques: a non-trivial
        // insertion radius.
        let (u0, v0) = windows[0].endpoints();
        windows.push(GraphUpdate::Insert(u0, v0));
        for update in windows {
            let prev = handle.snapshot();
            let outcome = handle.submit(MutationBatch::from(vec![update])).unwrap();
            assert_eq!(outcome.applied, 1, "{update:?}");
            let next = handle.snapshot();
            assert_eq!(next.epoch(), prev.epoch() + 1);
            let (u, v) = update.endpoints();
            let mut radius = BTreeSet::new();
            add_blast_radius(prev.index().graph(), u, v, &mut radius);
            add_blast_radius(next.index().graph(), u, v, &mut radius);
            let (adjacency, forests, lists, profiles, rankings) = unshared_pages(&next, &prev);
            // A single-edge write copies the pages of its two endpoints.
            assert!(
                (1..=2).contains(&adjacency),
                "{update:?}: {adjacency} adjacency pages copied"
            );
            assert!(
                forests <= radius.len() && profiles <= radius.len(),
                "{update:?}: {forests} forest + {profiles} profile pages copied, radius {}",
                radius.len()
            );
            assert!(profiles > 0, "{update:?} rewrote no profile");
            // A key edit copies the one run page it lands on, plus one
            // more when the page splits; every other run page is shared.
            let edits = ranking_edits(next.families(), prev.families());
            assert!(
                0 < rankings && rankings <= 2 * edits,
                "{update:?}: {rankings} ranking pages copied for {edits} key edits"
            );
            // The `H(c)` runs follow the same rule.
            let edits = list_edits(next.index(), prev.index());
            assert!(
                0 < lists && lists <= 2 * edits,
                "{update:?}: {lists} list pages copied for {edits} key edits"
            );
        }
        service.shutdown();
    }

    #[test]
    fn trait_surface_matches_inherent_methods() {
        // A generic driver must see exactly what the inherent API returns —
        // the shard-transparency contract at S = 1.
        fn drive<H: EngineHandle>(handle: &H, expected: &[ScoredEdge]) {
            assert_eq!(handle.shards(), 1);
            let resp = handle.execute(QueryRequest::new(10, 2)).unwrap();
            assert_eq!(*resp.results, expected);
            assert_eq!(resp.epochs, VectorEpoch::scalar(resp.epoch));
            assert_eq!(resp.lag, 0);
            let mut batch = MutationBatch::new();
            batch.insert(200, 201);
            let outcome = handle.submit(batch).unwrap();
            assert_eq!(outcome.applied, 1);
            assert_eq!(outcome.epochs, VectorEpoch::scalar(outcome.epoch));
            assert!(handle.epochs().componentwise_ge(&outcome.epochs));
            assert!(handle.metrics_text().contains("queries_served"));
        }
        let g = test_graph();
        let expected = MaintainedIndex::new(&g).query(10, 2);
        let service = Service::start(&g, &ServiceConfig::default());
        drive(&service.handle(), &expected);
        service.shutdown();
    }

    fn durable_cfg(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig {
            workers: 0,
            durability: Some(crate::durability::DurabilityConfig::new(dir)),
            ..ServiceConfig::default()
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("esd_svc_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_service_recovers_acked_batches() {
        let g = test_graph();
        let dir = temp_dir("roundtrip");
        let mut acked = Vec::new();
        {
            let service = Service::try_start(&g, &durable_cfg(&dir)).unwrap();
            assert!(service.recovery_report().is_none(), "fresh dir");
            let handle = service.handle();
            for i in 0..10u32 {
                let mut batch = MutationBatch::new();
                batch.insert(i, 119 - i);
                if handle.submit(batch).unwrap().applied > 0 {
                    acked.push(GraphUpdate::Insert(i, 119 - i));
                }
            }
            assert!(handle.metrics().wal_records.get() > 0);
            assert!(handle.metrics().wal_fsyncs.get() > 0, "ack-after-fsync");
            service.shutdown(); // simulate a restart (WAL + genesis ckpt survive)
        }
        let service = Service::try_start(&g, &durable_cfg(&dir)).unwrap();
        let report = service.recovery_report().expect("non-empty dir recovers");
        assert_eq!(report.wal_records_replayed, acked.len() as u64);
        assert!(!report.wal_truncated);
        // Recovered state == fault-free replay of exactly the acked batches.
        let mut expected = MaintainedIndex::new(&g);
        for u in &acked {
            expected.apply_batch(std::slice::from_ref(u));
        }
        let recovered = service.handle().snapshot();
        assert_eq!(recovered.epoch(), report.recovered_epoch);
        assert_eq!(
            recovered.index().graph().edges(),
            expected.graph().edges(),
            "recovered edge set matches replayed acked batches"
        );
        assert_eq!(recovered.index().query(15, 2), expected.query(15, 2));
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_checkpoints_bound_wal_replay() {
        let g = test_graph();
        let dir = temp_dir("ckpt");
        let mut cfg = durable_cfg(&dir);
        let dcfg = cfg.durability.as_mut().unwrap();
        dcfg.checkpoint_interval = 4;
        dcfg.segment_bytes = 1; // one WAL record per segment, so purges show
        {
            let service = Service::try_start(&g, &cfg).unwrap();
            let handle = service.handle();
            for i in 0..14u32 {
                let mut batch = MutationBatch::new();
                batch.insert(i, 200 + i); // vertex 200+i is fresh → always applies
                assert_eq!(handle.submit(batch).unwrap().applied, 1);
            }
            assert_eq!(handle.metrics().ckpt_full.get(), 3, "at epochs 4, 8, 12");
            service.shutdown();
        }
        // The checkpoint at 12 keeps 8 as its fallback and purges what lies
        // below it: the checkpoint at 4 and the WAL prefix up to 8 — not up
        // to 12, which the fallback would need.
        let ckpts: Vec<String> = {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("ckpt-"))
                .collect();
            names.sort();
            names
        };
        assert_eq!(
            ckpts,
            ["ckpt-0000000000000008.full", "ckpt-000000000000000c.full"]
        );
        let wal = esd_durability::read_dir(&dir).unwrap();
        let epochs: Vec<u64> = wal.records.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, (9..=14).collect::<Vec<u64>>(), "WAL prefix purged");
        let service = Service::try_start(&g, &cfg).unwrap();
        let report = service.recovery_report().unwrap();
        assert!(
            report.checkpoint_epoch >= 8,
            "the latest checkpoint bounds replay, got {report:?}"
        );
        assert!(report.wal_records_replayed <= 4);
        assert_eq!(report.recovered_epoch, 14);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The newest WAL segment in `dir` (lexicographic order == sequence
    /// order for the fixed-width segment names).
    fn newest_wal_segment(dir: &std::path::Path) -> std::path::PathBuf {
        let mut segments: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
            })
            .collect();
        segments.sort();
        segments.pop().expect("a wal segment exists")
    }

    #[test]
    fn torn_wal_tail_is_repaired_so_post_restart_acks_survive() {
        // Regression: a crash mid-append leaves a torn record at the WAL
        // tail. The restarted writer appends to a FRESH segment after the
        // tear, but replay stops at the first invalid byte — so unless the
        // tear is physically truncated at recovery, every batch acked and
        // fsynced after the restart is silently lost by the NEXT recovery.
        let g = test_graph();
        let dir = temp_dir("torn_tail");
        let mut cfg = durable_cfg(&dir);
        // No checkpoints beyond genesis: recovery is pure WAL replay.
        cfg.durability.as_mut().unwrap().checkpoint_interval = u64::MAX;
        {
            let service = Service::try_start(&g, &cfg).unwrap();
            let handle = service.handle();
            for i in 0..4u32 {
                let mut batch = MutationBatch::new();
                batch.insert(i, 200 + i); // vertex 200+i is fresh → always applies
                assert_eq!(handle.submit(batch).unwrap().applied, 1);
            }
            service.shutdown();
        }
        // Tear the tail as a mid-append crash would: the last record
        // (epoch 4, not yet acked) loses its final bytes.
        let segment = newest_wal_segment(&dir);
        let full = std::fs::metadata(&segment).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap();
        file.set_len(full - 5).unwrap();
        drop(file);
        {
            let service = Service::try_start(&g, &cfg).unwrap();
            let report = service.recovery_report().unwrap();
            assert!(report.wal_truncated, "the tear is seen by this recovery");
            assert_eq!(report.wal_records_replayed, 3);
            let handle = service.handle();
            for i in 4..8u32 {
                let mut batch = MutationBatch::new();
                batch.insert(i, 200 + i);
                assert_eq!(handle.submit(batch).unwrap().applied, 1); // acked + fsynced
            }
            service.shutdown();
        }
        // Second recovery: everything acked after the restart must be
        // there, and the tear must be gone for good.
        let service = Service::try_start(&g, &cfg).unwrap();
        let report = service.recovery_report().unwrap();
        assert!(!report.wal_truncated, "the tear was repaired at restart");
        assert_eq!(report.wal_records_replayed, 7);
        assert_eq!(report.recovered_epoch, 7); // 3 surviving + 4 post-restart
        let snapshot = service.handle().snapshot();
        for i in 4..8u32 {
            assert!(
                snapshot.index().graph().has_edge(i, 200 + i),
                "edge ({i}, {}) acked after the restart must survive",
                200 + i
            );
        }
        assert!(
            !snapshot.index().graph().has_edge(3, 203),
            "the torn (never-acked) record must not resurrect"
        );
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
