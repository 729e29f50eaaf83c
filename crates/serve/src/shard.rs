//! Sharded serving: `S` independent engines behind one shard-transparent
//! [`EngineHandle`].
//!
//! ## Partitioning model
//!
//! Every shard keeps a **full replica of the graph** but maintains score
//! state (forests, rank lists, refcounts) only for the edges it *owns* —
//! the slice of the canonical-edge-key space that
//! [`EdgeOwnership::shard_of_key`] hashes to it. Mutations therefore fan
//! out to **all** shards (each applies the whole batch to its replica and
//! recomputes only its owned slice), while a top-k query scatter-gathers:
//! each shard answers from its owned rank lists and the handle k-way
//! merges the per-shard heads under the total result order
//! ([`ScoredEdge::ranking_cmp`]).
//!
//! Replicating the adjacency instead of partitioning it is what makes the
//! merge **result-identical** to a single engine: an edge's score depends
//! on its whole ego-network, so any cut of the graph itself would change
//! answers near the cut. Owned score sets partition the edge space exactly
//! (see `sharded_indexes_partition_the_full_index` in `esd-core`), the
//! ranking is a total order, so merging per-shard top-k lists reproduces
//! the single-engine ranking byte for byte — DESIGN.md §15 gives the full
//! argument. What sharding buys is *per-query work*: each shard's lists
//! are ~`1/S` of the index, so walks, cache entries, and recompute sets
//! shrink proportionally.
//!
//! ## Consistency
//!
//! Shards publish epochs independently; a merged response is consistent
//! *per shard* and stamps the exact per-shard snapshot vector it used as a
//! [`VectorEpoch`]. A batch acknowledgement carries the vector at which
//! the batch was visible on **every** shard; monotonic-read reasoning is
//! componentwise ([`VectorEpoch::componentwise_ge`]). With `S = 1` every
//! call delegates straight to the single [`ServiceHandle`], making the
//! sharded service byte-for-byte indistinguishable from the plain one.
//!
//! ## Failure handling
//!
//! A shard that refuses a write (backpressure, injected fault) is healed
//! by forward retry — mutations are idempotent ensure-ops, so re-applying
//! an already-landed batch is a no-op. If healing is exhausted after some
//! other shard already applied the batch, the fleet may have diverged and
//! the handle **poisons** itself: every subsequent call fails fast with
//! [`ServeError::Internal`] instead of serving answers merged from
//! inconsistent replicas.

use crate::durability::RecoveryReport;
use crate::faults::FaultPlan;
use crate::retry::RetryPolicy;
use crate::service::{
    BatchOutcome, EngineHandle, Origin, QueryRequest, QueryResponse, ServeError, Service,
    ServiceConfig, ServiceHandle,
};
use crate::sync::Unpoison;
use crate::vector_epoch::VectorEpoch;
use esd_core::maintain::MutationBatch;
use esd_core::{EdgeOwnership, Family, ScoredEdge};
use esd_graph::Graph;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tuning knobs for [`ShardedService::start`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards `S` (≥ 1), fixed for the life of the service.
    pub shards: u32,
    /// Template applied to every shard's engine.
    /// [`ServiceConfig::ownership`] is overwritten per shard with
    /// `EdgeOwnership::of(i, S)`, and a configured durability directory is
    /// re-rooted to `dir/shard-<i>` so each shard owns a private WAL and
    /// checkpoint lineage.
    pub per_shard: ServiceConfig,
}

impl ShardConfig {
    /// `shards` engines with the default per-shard [`ServiceConfig`].
    #[must_use]
    pub fn new(shards: u32) -> Self {
        Self {
            shards,
            per_shard: ServiceConfig::default(),
        }
    }
}

/// Extra results fetched from every shard in scatter round 1, beyond the
/// proportional share `k / S`. Cushions skewed score distributions so the
/// adaptive refetch round stays rare.
const OVERFETCH: usize = 8;

/// Entry cap for one generation of the merged-result cache.
const MERGED_CACHE_CAP: usize = 4096;

/// Single-generation cache of *merged* query results, keyed `(k, τ)` and
/// stamped with the per-shard epoch vector the merge used. The single
/// engine amortises repeated queries through its own result cache (an
/// `Arc` clone per hit); without a merge-level equivalent a sharded
/// repeat would still pay `S` sub-queries plus a fresh `O(k)` merge every
/// time. Any epoch advancing anywhere starts a new generation (the map is
/// cleared), so a hit is always the exact answer at the current vector —
/// invalidation is structural, exactly like the per-engine cache.
#[derive(Debug, Default)]
struct MergedCache {
    state: Mutex<MergedCacheState>,
}

#[derive(Debug, Default)]
struct MergedCacheState {
    /// The epoch vector this generation's entries were merged at.
    epochs: Vec<u64>,
    map: HashMap<(Family, u64, u32), Arc<Vec<ScoredEdge>>>,
}

impl MergedCache {
    /// A hit is only served at exactly `epochs`; observing any other
    /// vector clears the generation.
    fn get(
        &self,
        epochs: &[u64],
        family: Family,
        k: usize,
        tau: u32,
    ) -> Option<Arc<Vec<ScoredEdge>>> {
        let mut state = self.state.lock().unpoison();
        if state.epochs != epochs {
            state.map.clear();
            state.epochs = epochs.to_vec();
            return None;
        }
        state.map.get(&(family, k as u64, tau)).cloned()
    }

    /// Inserts a merged answer, dropped silently if the generation moved
    /// on while the merge ran or the generation is at capacity.
    fn insert(
        &self,
        epochs: &[u64],
        family: Family,
        k: usize,
        tau: u32,
        results: &Arc<Vec<ScoredEdge>>,
    ) {
        let mut state = self.state.lock().unpoison();
        if state.epochs != epochs || state.map.len() >= MERGED_CACHE_CAP {
            return;
        }
        state
            .map
            .insert((family, k as u64, tau), Arc::clone(results));
    }
}

/// `S` running [`Service`] engines over one logical graph. Obtain
/// [`ShardedHandle`]s via [`ShardedService::handle`]; drop (or
/// [`ShardedService::shutdown`]) to stop all shards.
#[derive(Debug)]
pub struct ShardedService {
    shards: Vec<Service>,
    poisoned: Arc<AtomicBool>,
    merged: Arc<MergedCache>,
}

impl ShardedService {
    /// Starts `cfg.shards` engines over `g`, each owning its hash slice of
    /// the edge-key space. Panics only if a configured durable directory
    /// cannot be opened or recovered (see [`ShardedService::try_start`]).
    #[must_use]
    pub fn start(g: &Graph, cfg: &ShardConfig) -> Self {
        Self::try_start(g, cfg).expect("shard durability init failed")
    }

    /// [`start`](Self::start), but durable-directory open/recovery errors
    /// are returned instead of panicking. Prefer this whenever
    /// [`ServiceConfig::durability`] is set on the template.
    pub fn try_start(g: &Graph, cfg: &ShardConfig) -> std::io::Result<Self> {
        Self::try_start_with_faults(g, cfg, |_| FaultPlan::default())
    }

    /// [`try_start`](Self::try_start) with a deterministic per-shard
    /// [`FaultPlan`]: shard `i` runs under `plan(i)`. This is how the
    /// chaos suite faults a *single* shard's WAL while the rest of the
    /// fleet stays clean; without the `fault-injection` feature every
    /// plan is inert.
    pub fn try_start_with_faults(
        g: &Graph,
        cfg: &ShardConfig,
        plan: impl Fn(u32) -> FaultPlan,
    ) -> std::io::Result<Self> {
        assert!(cfg.shards >= 1, "a sharded service needs at least 1 shard");
        // One construction pass for every shard that starts from `g`.
        let origin = Origin::new(g);
        let mut shards = Vec::with_capacity(cfg.shards as usize);
        for i in 0..cfg.shards {
            let mut per = cfg.per_shard.clone();
            per.ownership = EdgeOwnership::of(i, cfg.shards);
            if let Some(d) = &mut per.durability {
                d.dir = d.dir.join(format!("shard-{i}"));
            }
            shards.push(Service::try_start_from(&origin, &per, plan(i))?);
        }
        Ok(Self {
            shards,
            poisoned: Arc::new(AtomicBool::new(false)),
            merged: Arc::new(MergedCache::default()),
        })
    }

    /// A cloneable, shard-transparent handle. All handles of one service
    /// share the divergence flag: once any of them poisons the fleet,
    /// every handle fails fast.
    #[must_use]
    pub fn handle(&self) -> ShardedHandle {
        ShardedHandle {
            shards: self
                .shards
                .iter()
                .map(Service::handle)
                .collect::<Vec<_>>()
                .into(),
            poisoned: Arc::clone(&self.poisoned),
            merged: Arc::clone(&self.merged),
            heal: RetryPolicy::new(0x51A8_D0E5),
        }
    }

    /// What crash recovery found at startup, per shard (`None` entries for
    /// in-memory shards and fresh durable directories).
    #[must_use]
    pub fn recovery_reports(&self) -> Vec<Option<&RecoveryReport>> {
        self.shards.iter().map(Service::recovery_report).collect()
    }

    /// Stops accepting work on every shard and joins all threads.
    pub fn shutdown(self) {
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// A cloneable handle over all shards of a [`ShardedService`],
/// implementing [`EngineHandle`] by scatter-gather (queries) and fan-out
/// (mutations). With one shard it is a zero-cost wrapper over the inner
/// [`ServiceHandle`].
#[derive(Debug, Clone)]
pub struct ShardedHandle {
    shards: Arc<[ServiceHandle]>,
    /// Set when a write landed on some shards but could not be healed onto
    /// all of them — replicas may have diverged, so serving must stop.
    poisoned: Arc<AtomicBool>,
    /// Cache of fully merged answers, shared by all handles of one
    /// service; one generation per epoch vector.
    merged: Arc<MergedCache>,
    /// Internal forward-heal policy for per-shard write failures.
    heal: RetryPolicy,
}

impl ShardedHandle {
    /// The per-shard [`ServiceHandle`]s, indexed by shard id. Exposed for
    /// tests and tooling that need to address one shard (e.g. the chaos
    /// suite killing a single shard's WAL).
    #[must_use]
    pub fn shard_handles(&self) -> &[ServiceHandle] {
        &self.shards
    }

    /// Whether the fleet was poisoned by an unhealable partial write.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    fn poisoned_err() -> ServeError {
        ServeError::Internal(
            "sharded service poisoned: a write batch could not be healed onto every shard, \
             replicas may have diverged"
                .into(),
        )
    }

    /// The round-1 per-shard fetch size: a proportional share plus
    /// overfetch, rounded **up** to a power of two. Overfetching more than
    /// planned never costs exactness (it only lowers the refetch
    /// probability); what the quantisation buys is cache locality — every
    /// distinct client `k` in a power-of-two band maps to the *same*
    /// per-shard fetch size, so per-shard result caches serve round 1 for
    /// whole bands of `k` instead of one key per distinct `k`.
    fn round1_fetch(k: usize, s: usize) -> usize {
        let share = k / s + OVERFETCH;
        share
            .checked_next_power_of_two()
            .unwrap_or(share)
            .max(16)
            .min(k)
    }

    /// Merges the per-shard lists under the global total order. Each list
    /// arrives already rank-ordered (the per-shard index walks one ranked
    /// run in rank order), and owned edge sets are disjoint across shards, so
    /// this is a pure cursor merge — no sort, no dedup, stops at `k`.
    fn merge(per: &[QueryResponse], k: usize) -> Vec<ScoredEdge> {
        let total: usize = per.iter().map(|r| r.results.len()).sum();
        let mut out = Vec::with_capacity(k.min(total));
        let mut cursors = vec![0usize; per.len()];
        while out.len() < k {
            let mut best: Option<(usize, ScoredEdge)> = None;
            for (i, r) in per.iter().enumerate() {
                if let Some(&e) = r.results.get(cursors[i]) {
                    if best.is_none_or(|(_, b)| e.ranking_cmp(&b) == std::cmp::Ordering::Less) {
                        best = Some((i, e));
                    }
                }
            }
            let Some((i, e)) = best else { break };
            out.push(e);
            cursors[i] += 1;
        }
        out
    }

    /// The scatter-gather read path (`S > 1`): round 1 fetches a
    /// quantised proportional share ([`round1_fetch`](Self::round1_fetch))
    /// from every shard; shards that *saturated* their share and whose
    /// weakest returned entry still ranks at-or-before the provisional
    /// k-th cutoff are refetched at full `k` (their round-1 list is
    /// **replaced**, keeping each shard's contribution from a single
    /// snapshot). A shard whose weakest entry already ranks after the
    /// cutoff cannot contribute further entries — everything it withheld
    /// ranks later still.
    ///
    /// Sub-queries run **inline** on the gather thread
    /// ([`ServiceHandle::execute_direct`]): readers only need the
    /// atomically published snapshot, so paying `S` worker-queue round
    /// trips per merged query would buy nothing — the gather thread is
    /// the worker.
    fn scatter_gather(&self, request: QueryRequest) -> Result<QueryResponse, ServeError> {
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
        let _span = esd_telemetry::span(esd_telemetry::Stage::ShardGather);
        // Fast path: a repeat of (family, k, τ) at an unchanged epoch
        // vector is served straight from the merged-result cache — one
        // probe and an `Arc` clone, no sub-queries, no merge. The vector is
        // read from the shards' published snapshots (an atomic load each),
        // so a hit is exact at precisely the vector stamped into the
        // response.
        let current: Vec<u64> = self.shards.iter().map(|h| h.snapshot().epoch()).collect();
        if before.is_none() {
            if let Some(results) = self.merged.get(&current, family, k, tau) {
                let epochs = VectorEpoch::from_shards(current);
                return Ok(QueryResponse {
                    epoch: epochs.sum(),
                    epochs,
                    results,
                    family,
                    cache_hit: true,
                    degraded: false,
                    lag: 0,
                    latency: started.elapsed(),
                });
            }
        }
        let s = self.shards.len();
        let k1 = Self::round1_fetch(k, s);
        let mut fanout = 0u64;
        let mut per: Vec<QueryResponse> = Vec::with_capacity(s);
        for shard in self.shards.iter() {
            per.push(shard.execute_direct(QueryRequest {
                k: k1,
                tau,
                family,
                before,
            })?);
            fanout += 1;
        }
        if k1 < k {
            let provisional = Self::merge(&per, k);
            let cutoff = (provisional.len() >= k).then(|| provisional[k - 1]);
            for (i, shard) in self.shards.iter().enumerate() {
                let saturated = per[i].results.len() == k1;
                let may_contribute = match (&cutoff, per[i].results.last()) {
                    (_, None) => false,
                    // Short of k overall: anything a shard withheld helps.
                    (None, Some(_)) => true,
                    (Some(c), Some(last)) => last.ranking_cmp(c) != std::cmp::Ordering::Greater,
                };
                if saturated && may_contribute {
                    per[i] = shard.execute_direct(QueryRequest {
                        k,
                        tau,
                        family,
                        before,
                    })?;
                    fanout += 1;
                }
            }
        }
        esd_telemetry::add(esd_telemetry::Metric::ShardFanout, fanout);
        esd_telemetry::add(
            esd_telemetry::Metric::ShardMerge,
            per.iter().map(|r| r.results.len() as u64).sum(),
        );
        let results = Arc::new(Self::merge(&per, k));
        // Cache only an answer merged entirely at the vector observed
        // before the gather: a sub-query racing a write (or degraded
        // shard) yields a perfectly valid response, but one that must not
        // be replayed for later readers.
        if before.is_none()
            && per.iter().zip(&current).all(|(r, &e)| r.epoch == e)
            && !per.iter().any(|r| r.degraded)
        {
            self.merged.insert(&current, family, k, tau, &results);
        }
        let epochs = VectorEpoch::from_shards(per.iter().map(|r| r.epoch).collect());
        Ok(QueryResponse {
            results,
            family,
            epoch: epochs.sum(),
            cache_hit: per.iter().all(|r| r.cache_hit),
            degraded: per.iter().any(|r| r.degraded),
            lag: per.iter().map(|r| r.lag).max().unwrap_or(0),
            epochs,
            latency: started.elapsed(),
        })
    }

    /// One shard's submission with forward healing: the first attempt
    /// honours the caller's deadline, retries get fresh default deadlines
    /// (a batch that landed on *some* shard must converge onto the rest
    /// even past the caller's deadline — re-applying is an idempotent
    /// no-op). The second return value reports whether any attempt may
    /// have landed despite erroring (`DeadlineExceeded` acks are ambiguous:
    /// the queued window can still apply after the caller stops waiting).
    fn submit_one(
        &self,
        shard: &ServiceHandle,
        batch: &MutationBatch,
        deadline: Option<Instant>,
    ) -> (Result<BatchOutcome, ServeError>, bool) {
        let mut may_have_landed = false;
        let mut delays = self.heal.delays();
        let mut attempt_deadline = deadline;
        loop {
            match shard.submit_before(batch.clone(), attempt_deadline) {
                Ok(outcome) => return (Ok(outcome), true),
                Err(e) => {
                    may_have_landed |= matches!(e, ServeError::DeadlineExceeded);
                    if !ServiceHandle::retryable(&e, true)
                        || !self.shards[0].backoff_once(&mut delays)
                    {
                        return (Err(e), may_have_landed);
                    }
                    attempt_deadline = None;
                }
            }
        }
    }

    /// The write fan-out path (`S > 1`): submit the whole batch to every
    /// shard in turn, healing per-shard failures by forward retry
    /// ([`submit_one`](Self::submit_one)). On unhealable failure the fleet
    /// poisons itself *unless* no shard can have applied the batch (the
    /// first shard failed with every attempt guaranteed not-applied), in
    /// which case the error propagates cleanly and a caller-level retry is
    /// safe.
    fn fan_out(
        &self,
        batch: MutationBatch,
        deadline: Option<Instant>,
    ) -> Result<BatchOutcome, ServeError> {
        let s = self.shards.len();
        let started = Instant::now();
        esd_telemetry::add(esd_telemetry::Metric::ShardRoute, s as u64);
        let mut outcomes: Vec<BatchOutcome> = Vec::with_capacity(s);
        for (i, shard) in self.shards.iter().enumerate() {
            match self.submit_one(shard, &batch, deadline) {
                (Ok(outcome), _) => outcomes.push(outcome),
                (Err(e), may_have_landed) => {
                    if i == 0 && !may_have_landed {
                        return Err(e);
                    }
                    self.poisoned.store(true, Ordering::Relaxed);
                    return Err(ServeError::Internal(format!(
                        "shard {i}/{s} failed a possibly-partially-applied batch ({e}); \
                         fleet poisoned"
                    )));
                }
            }
        }
        let epochs = VectorEpoch::from_shards(outcomes.iter().map(|o| o.epoch).collect());
        // Dispositions are identical across shards (every replica applied
        // the same batch to the same graph); report shard 0's.
        let first = &outcomes[0];
        Ok(BatchOutcome {
            applied: first.applied,
            noop: first.noop,
            rejected: first.rejected,
            epoch: epochs.sum(),
            epochs,
            latency: started.elapsed(),
        })
    }

    /// Deadline-aware submit shared by [`EngineHandle::submit`] and
    /// [`EngineHandle::submit_before`].
    fn submit_impl(
        &self,
        batch: MutationBatch,
        deadline: Option<Instant>,
    ) -> Result<BatchOutcome, ServeError> {
        if self.is_poisoned() {
            return Err(Self::poisoned_err());
        }
        if self.shards.len() == 1 {
            return self.shards[0].submit_before(batch, deadline);
        }
        self.fan_out(batch, deadline)
    }
}

impl EngineHandle for ShardedHandle {
    fn execute(&self, request: QueryRequest) -> Result<QueryResponse, ServeError> {
        if self.is_poisoned() {
            return Err(Self::poisoned_err());
        }
        if self.shards.len() == 1 {
            return self.shards[0].execute(request);
        }
        self.scatter_gather(request)
    }

    fn submit(&self, batch: MutationBatch) -> Result<BatchOutcome, ServeError> {
        self.submit_impl(batch, None)
    }

    fn submit_before(
        &self,
        batch: MutationBatch,
        deadline: Option<Instant>,
    ) -> Result<BatchOutcome, ServeError> {
        self.submit_impl(batch, deadline)
    }

    fn execute_with_retry(
        &self,
        request: QueryRequest,
        policy: &RetryPolicy,
    ) -> Result<QueryResponse, ServeError> {
        let mut delays = policy.delays();
        loop {
            match EngineHandle::execute(self, request) {
                Err(e) if ServiceHandle::retryable(&e, request.before.is_none()) => {
                    // Retry accounting lands on shard 0's registry — the
                    // conventional home for fleet-level client metrics.
                    if !self.shards[0].backoff_once(&mut delays) {
                        return Err(e);
                    }
                }
                other => return other,
            }
        }
    }

    fn submit_with_retry(
        &self,
        batch: MutationBatch,
        policy: &RetryPolicy,
    ) -> Result<BatchOutcome, ServeError> {
        let mut delays = policy.delays();
        loop {
            match EngineHandle::submit(self, batch.clone()) {
                Err(e) if ServiceHandle::retryable(&e, true) => {
                    if !self.shards[0].backoff_once(&mut delays) {
                        return Err(e);
                    }
                }
                other => return other,
            }
        }
    }

    fn shards(&self) -> usize {
        self.shards.len()
    }

    fn epochs(&self) -> VectorEpoch {
        VectorEpoch::from_shards(self.shards.iter().map(|h| h.snapshot().epoch()).collect())
    }

    /// Per-shard metric blocks under `-- shard i --` headers, framed by a
    /// single final `-- end metrics --` marker so line-protocol clients
    /// still detect the end of the block. `S = 1` renders the plain
    /// single-engine block.
    fn metrics_text(&self) -> String {
        if self.shards.len() == 1 {
            return self.shards[0].metrics_text();
        }
        let mut out = String::new();
        for (i, shard) in self.shards.iter().enumerate() {
            out.push_str(&format!("-- shard {i} --\n"));
            out.push_str(shard.metrics_text().trim_end_matches("-- end metrics --\n"));
        }
        out.push_str("-- end metrics --\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esd_core::MaintainedIndex;
    use esd_graph::generators;

    fn test_graph() -> Graph {
        generators::clique_overlap(120, 90, 5, 42)
    }

    fn inline_cfg(shards: u32) -> ShardConfig {
        ShardConfig {
            shards,
            per_shard: ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        }
    }

    #[test]
    fn sharded_answers_match_the_single_engine() {
        let g = test_graph();
        let truth = MaintainedIndex::new(&g);
        for s in [1, 2, 4] {
            let service = ShardedService::start(&g, &inline_cfg(s));
            let handle = service.handle();
            assert_eq!(handle.shards(), s as usize);
            for (k, tau) in [(1, 1), (5, 2), (10, 2), (1000, 1), (7, 3)] {
                let resp = handle.execute(QueryRequest::new(k, tau)).unwrap();
                assert_eq!(
                    *resp.results,
                    truth.query(k, tau),
                    "S={s} k={k} tau={tau} diverged from the single engine"
                );
            }
            service.shutdown();
        }
    }

    #[test]
    fn mutations_fan_out_and_stay_identical() {
        let g = test_graph();
        let single = Service::start(
            &g,
            &ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        );
        let single_handle = single.handle();
        let service = ShardedService::start(&g, &inline_cfg(3));
        let handle = service.handle();

        let mut batch = MutationBatch::new();
        batch.insert(0, 117);
        batch.insert(1, 118);
        batch.remove(0, 1);
        batch.insert(0, 117); // duplicate within the batch
        let expected = single_handle.submit(batch.clone()).unwrap();
        let outcome = handle.submit(batch).unwrap();

        // Dispositions match the single engine exactly (every replica
        // applies the full batch), and the epoch vector advances in step
        // on every shard.
        assert_eq!(outcome.applied, expected.applied);
        assert_eq!(outcome.noop, expected.noop);
        assert_eq!(outcome.rejected, expected.rejected);
        assert_eq!(outcome.epochs.shards(), 3);
        assert_eq!(outcome.epochs.components(), &[expected.epoch; 3]);
        assert_eq!(
            outcome.epoch,
            3 * expected.epoch,
            "composite epoch is the vector sum"
        );

        let resp = handle.execute(QueryRequest::new(12, 2)).unwrap();
        let truth = single_handle.execute(QueryRequest::new(12, 2)).unwrap();
        assert_eq!(*resp.results, *truth.results);
        assert!(resp.epochs.componentwise_ge(&outcome.epochs));
        service.shutdown();
        single.shutdown();
    }

    #[test]
    fn adaptive_refetch_is_exact_under_skew() {
        // k large relative to the per-shard share forces round-2 refetches;
        // the merged answer must still be exact at every (k, tau).
        let g = generators::clique_overlap(200, 160, 6, 7);
        let truth = MaintainedIndex::new(&g);
        let service = ShardedService::start(&g, &inline_cfg(4));
        let handle = service.handle();
        for k in [40, 64, 100, usize::MAX] {
            let resp = handle.execute(QueryRequest::new(k, 1)).unwrap();
            assert_eq!(*resp.results, truth.query(k, 1), "k={k}");
        }
        service.shutdown();
    }

    #[test]
    fn single_shard_delegates_scalar_epochs() {
        let service = ShardedService::start(&test_graph(), &inline_cfg(1));
        let handle = service.handle();
        let resp = handle.execute(QueryRequest::new(5, 2)).unwrap();
        assert!(matches!(resp.epochs, VectorEpoch::Scalar(0)));
        assert!(matches!(handle.epochs(), VectorEpoch::Scalar(0)));
        assert!(handle.metrics_text().contains("queries_served"));
        service.shutdown();
    }

    #[test]
    fn sharded_metrics_text_is_per_shard_and_framed_once() {
        let service = ShardedService::start(&test_graph(), &inline_cfg(2));
        let handle = service.handle();
        handle.execute(QueryRequest::new(5, 2)).unwrap();
        let text = handle.metrics_text();
        assert!(text.contains("-- shard 0 --\n") && text.contains("-- shard 1 --\n"));
        assert_eq!(text.matches("-- end metrics --").count(), 1);
        assert!(text.ends_with("-- end metrics --\n"));
        service.shutdown();
    }

    #[test]
    fn tau_zero_is_a_bad_request_at_any_shard_count() {
        let service = ShardedService::start(&test_graph(), &inline_cfg(2));
        assert!(matches!(
            service.handle().execute(QueryRequest::new(5, 0)),
            Err(ServeError::BadRequest(_))
        ));
        service.shutdown();
    }
}
