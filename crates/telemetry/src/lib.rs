//! Scoped stage spans and monotonic kernel counters for the esd workspace.
//!
//! The paper's evaluation is entirely about *where time goes* — 4-clique
//! enumeration vs union–find vs list maintenance, sequential vs parallel
//! scaling. This crate gives every hot path a way to report that breakdown
//! without perturbing it:
//!
//! * [`span`] opens a scoped timer for a [`Stage`]; the returned guard
//!   records wall time into the process-global registry when dropped.
//! * [`add`] bumps a monotonic [`Metric`] counter. Hot loops count into a
//!   local and call `add` once per region, so the kernel itself never
//!   touches an atomic per event.
//! * [`snapshot`] reads the registry without stopping writers;
//!   [`Snapshot::delta_since`] turns two snapshots into a window.
//!
//! Both catalogues are **fixed enums**: every stage and counter in the
//! workspace is declared here, indexed into const-initialised static atomic
//! arrays. Recording is a handful of relaxed atomic adds — the same
//! wait-free design as `esd-serve`'s metrics registry — so instrumentation
//! is safe on paths that are themselves being measured.
//!
//! ## Feature gating
//!
//! Everything is behind the `enabled` cargo feature. Without it (the
//! default for every library crate) [`SpanGuard`] is a zero-sized type with
//! an empty `Drop`, [`add`] is an empty inline function, and the registry
//! statics are not even compiled — instrumented code optimises to exactly
//! what it was before instrumentation. The `cfg` is resolved *inside this
//! crate's functions*, never in caller-side macros, so consumers cannot
//! accidentally evaluate the feature test against their own feature set.
//!
//! The [`json`] module is a dependency-free JSON model (emit + parse) used
//! by the bench report and the `telemetry` protocol command; the build
//! environment is offline, so serde is not an option.

pub mod json;
#[cfg(all(loom, test, feature = "enabled"))]
mod loom_models;
pub(crate) mod sync;

use json::Json;

#[cfg(feature = "enabled")]
use crate::sync::atomic::Ordering;
#[cfg(feature = "enabled")]
use crate::sync::time::Instant;

/// Schema identifier stamped into [`Snapshot::to_json`] output.
pub const SCHEMA: &str = "esd-telemetry/v1";

macro_rules! catalogue {
    (
        $(#[$meta:meta])*
        $name:ident {
            $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every member of the catalogue, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of catalogue entries (the registry array length).
            pub const COUNT: usize = Self::ALL.len();

            /// The stable dotted name used in reports and JSON output.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self { $($name::$variant => $label,)+ }
            }

            /// Looks up a catalogue member by its stable dotted name —
            /// the inverse of [`Self::name`]. `None` for unknown names.
            #[must_use]
            pub fn from_name(name: &str) -> Option<$name> {
                Self::ALL.iter().copied().find(|m| m.name() == name)
            }

            #[cfg(feature = "enabled")]
            const fn index(self) -> usize {
                self as usize
            }
        }
    };
}

catalogue! {
    /// The span taxonomy: one entry per instrumented stage.
    ///
    /// Names are dotted `area.stage` strings and are part of the
    /// `esd-bench/v1` schema — renaming one is a schema change. The full
    /// taxonomy, with the paper figure each stage speaks to, is catalogued
    /// in `docs/observability.md`.
    Stage {
        /// CSR construction inside `GraphBuilder::build`.
        GraphCsr => "graph.csr",
        /// Ordering + DAG orientation (`OrientedGraph::by_degree` /
        /// `by_degeneracy`).
        GraphOrient => "graph.orient",
        /// Per-edge BFS over ego-networks (`EsdIndex::build_basic`).
        BuildBfs => "build.bfs",
        /// DAG orientation plus common-neighbourhood materialisation by the
        /// triangle kernel (sequential build).
        BuildNeighborhoods => "build.neighborhoods",
        /// 4-clique enumeration + union–find (sequential build).
        BuildEnumerate => "build.enumerate",
        /// Component extraction from the DSU arena (sequential build).
        BuildExtract => "build.extract",
        /// `H(c)` list filling (sequential build).
        BuildFill => "build.fill",
        /// Every edge's family profiles from the 4-clique pass's ego edges
        /// (`Construction::new`): the ego-edge CSR and the profile kernel.
        BuildProfiles => "build.profiles",
        /// Phase A of the parallel build: DAG orientation plus common
        /// neighbourhoods (the sequential triangle kernel).
        ParNeighborhoods => "pbuild.neighborhoods",
        /// Phase B enumerate side: workers binning DSU ops by shard.
        ParEnumerate => "pbuild.enumerate",
        /// Phase B apply side: per-shard DSU op application.
        ParApply => "pbuild.apply",
        /// Phase C: per-shard component extraction.
        ParExtract => "pbuild.extract",
        /// Phase D: parallel `H(c)` list filling.
        ParFill => "pbuild.fill",
        /// One `MaintainedIndex::insert_edge` call, end to end.
        MaintainInsert => "maintain.insert",
        /// One `MaintainedIndex::remove_edge` call, end to end.
        MaintainRemove => "maintain.remove",
        /// One `MaintainedIndex::apply_batch` call, end to end.
        MaintainBatch => "maintain.batch",
        /// Pipeline phase 1: sequential planning (blast radii + conflict
        /// groups) inside `apply_batch_parallel`.
        PbatchPlan => "pbatch.plan",
        /// Pipeline phase 2: parallel per-edge forest recomputation.
        PbatchRecompute => "pbatch.recompute",
        /// Pipeline phase 3: sequential retract/install/restore commit.
        PbatchCommit => "pbatch.commit",
        /// One dequeue-twice online top-k search.
        OnlineTopk => "online.topk",
        /// The bound pass of one online search: every edge's upper bound
        /// (OnlineBFS+: one triangle listing for all `|N(u) ∩ N(v)|`) and
        /// the heapify of the bounded entries. Nested in `online.topk`.
        OnlineBound => "online.bound",
        /// One index top-k query (`EsdIndex` or `MaintainedIndex`).
        QueryTopk => "query.topk",
        /// Serve engine: one query executed against a snapshot.
        ServeQuery => "serve.query",
        /// Serve engine: one snapshot publication (epoch advance).
        ServePublish => "serve.publish",
        /// Sharded serve: one scatter-gather query, fan-out through final
        /// k-way merge (S > 1 only; single-engine queries never open it).
        ShardGather => "shard.gather",
        /// Durability: one WAL record appended (the durable commit path).
        WalAppend => "wal.append",
        /// Durability: one WAL fsync (a group commit covering every record
        /// appended since the previous one).
        WalFsync => "wal.fsync",
        /// Durability: one recovery replay (checkpoint load + WAL replay).
        WalReplay => "wal.replay",
        /// Durability: one checkpoint written (full or delta).
        CkptWrite => "ckpt.write",
        /// Query-family layer: one `FamilySuite::apply` window (blast-radius
        /// planning plus per-edge profile recompute for every family).
        FamilyApply => "family.apply",
        /// Query-family layer: one `FamilySuite::query` top-k ranked walk.
        FamilyQuery => "family.query",
    }
}

catalogue! {
    /// The counter catalogue: monotonic event counts from the kernels.
    ///
    /// Each counter has exactly one owning call site (listed per entry), so
    /// totals are never double-counted; tests in `tests/telemetry_counters.rs`
    /// pin every counter to independently recomputed ground truth.
    Metric {
        /// Adaptive intersections resolved to the two-pointer merge kernel
        /// (recorded by the `esd-graph::intersect` dispatcher only; the
        /// two `intersect.*` counters sum to the total dispatch count).
        IntersectMerge => "intersect.merge",
        /// Adaptive intersections resolved to the galloping kernel
        /// (skewed length ratios — low-degree vertex against a hub).
        IntersectGallop => "intersect.gallop",
        /// 4-cliques emitted by `esd-graph::cliques::for_each_four_clique`
        /// (counted there only, so sequential and parallel builds,
        /// `MaintainedIndex::new` and `count_four_cliques` share one
        /// definition).
        CliquesEnumerated => "cliques.enumerated",
        /// Union–find operations performed by the sequential index build
        /// (6 per 4-clique).
        BuildUnionOps => "build.union_ops",
        /// Σ|N(u) ∩ N(v)| over all edges, as materialised by the build.
        BuildNbrTotal => "build.nbr_total",
        /// Union ops applied by parallel-build shard workers (phase B).
        ParOpsApplied => "pbuild.ops_applied",
        /// Union ops performed by dynamic maintenance (ego-net rebuilds
        /// and incremental insert paths).
        MaintainUnionOps => "maintain.union_ops",
        /// Key insertions into the maintained `H(c)` runs while restoring
        /// entries (the name predates the runs, which replaced a treap).
        TreapInserts => "maintain.treap_inserts",
        /// Key removals from the maintained `H(c)` runs while retracting
        /// entries (named like `maintain.treap_inserts`).
        TreapRemoves => "maintain.treap_removes",
        /// Edges whose scores were recomputed by maintenance updates.
        MaintainAffected => "maintain.affected_edges",
        /// Conflict-free groups formed by the pipeline planner.
        PbatchGroups => "pbatch.groups",
        /// Distinct edges whose forests the pipeline recomputed (phase 2).
        PbatchRecomputedEdges => "pbatch.recomputed_edges",
        /// Union ops performed by pipeline recompute workers (phase 2).
        PbatchUnionOps => "pbatch.union_ops",
        /// Exact ego-net evaluations by the online search (paper Fig 5's
        /// cost driver).
        OnlineExactEvals => "online.exact_evals",
        /// Priority-queue pops by the online search.
        OnlineHeapPops => "online.heap_pops",
        /// Edges enqueued by the online search (bound-order seeding).
        OnlineEnqueued => "online.enqueued",
        /// Faults injected by the `esd-serve` fault layer (non-zero only
        /// in `fault-injection` builds running an armed plan).
        ServeFaultsInjected => "serve.faults_injected",
        /// Panics caught and contained by the serve worker pool / writer
        /// (the thread keeps serving instead of poisoning the engine).
        ServeWorkerRestarts => "serve.worker_restarts",
        /// Client-side retries performed by the serve `RetryPolicy`
        /// wrappers (`execute_with_retry` / `submit_with_retry`).
        ServeRetries => "serve.retries",
        /// Queries answered from a retained cached result under overload
        /// shedding instead of being rejected with `QueueFull`.
        ServeShed => "serve.shed",
        /// Per-shard batch submissions routed by the sharded write fan-out
        /// (S per accepted batch; 0 while serving a single engine).
        ShardRoute => "shard.route",
        /// Per-shard queries dispatched by scatter-gather top-k (the round-1
        /// fan-out plus any adaptive refetches).
        ShardFanout => "shard.fanout",
        /// Candidate results entering the scatter-gather k-way merge (the
        /// sum of per-shard list lengths at the final merge).
        ShardMerge => "shard.merge",
        /// WAL records appended by the durable commit path.
        WalRecords => "wal.records",
        /// WAL bytes appended (frame bytes, including headers).
        WalBytes => "wal.bytes",
        /// WAL group-commit fsyncs performed.
        WalFsyncs => "wal.fsyncs",
        /// WAL transactional truncations (a failed window's speculative
        /// record physically removed so it can never be replayed).
        WalTruncations => "wal.truncations",
        /// WAL records replayed during crash recovery.
        WalReplayedRecords => "wal.replayed_records",
        /// Checkpoints written (every checkpoint is a full edge set).
        CkptFull => "ckpt.full",
        /// Checkpoint attempts that failed (counted and retried at the
        /// next interval; never surfaced to the acked client).
        CkptFailures => "ckpt.failures",
        /// Edges whose per-family score profiles `FamilySuite::apply`
        /// recomputed (owned, still-present edges in the blast radius).
        FamilyRecomputedEdges => "family.recomputed_edges",
        /// Edges whose family rankings `FamilySuite::apply` moved: changed
        /// recomputed profiles plus deleted ones (unchanged recomputes are
        /// skipped).
        FamilyRerankedEdges => "family.reranked_edges",
        /// Top-k ranked walks served by `FamilySuite::query` (non-component
        /// families only; component queries are counted by `query.topk`).
        FamilyQueries => "family.queries",
    }
}

#[cfg(feature = "enabled")]
mod reg {
    use super::{Metric, Stage};
    use crate::sync::atomic::{AtomicU64, Ordering};

    pub(crate) struct StageCell {
        pub(crate) total_ns: AtomicU64,
        pub(crate) count: AtomicU64,
        pub(crate) max_ns: AtomicU64,
    }

    impl StageCell {
        const fn new() -> Self {
            Self {
                total_ns: AtomicU64::new(0),
                count: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
            }
        }

        pub(crate) fn record(&self, ns: u64) {
            self.total_ns.fetch_add(ns, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }

        pub(crate) fn reset(&self) {
            self.total_ns.store(0, Ordering::Relaxed);
            self.count.store(0, Ordering::Relaxed);
            self.max_ns.store(0, Ordering::Relaxed);
        }
    }

    #[allow(
        clippy::declare_interior_mutable_const,
        reason = "each `[C; N]` repeat of this const is a fresh zeroed cell, \
                  which is exactly how a const-initialised static atomic \
                  array is built without const fn in array repeat position"
    )]
    const ZERO_CELL: StageCell = StageCell::new();
    #[allow(
        clippy::declare_interior_mutable_const,
        reason = "each `[C; N]` repeat of this const is a fresh zeroed \
                  counter, never a shared one"
    )]
    const ZERO_CTR: AtomicU64 = AtomicU64::new(0);

    pub(crate) static STAGES: [StageCell; Stage::COUNT] = [ZERO_CELL; Stage::COUNT];
    pub(crate) static COUNTERS: [AtomicU64; Metric::COUNT] = [ZERO_CTR; Metric::COUNT];
}

/// RAII guard returned by [`span`]: records the elapsed wall time for its
/// stage into the global registry when dropped.
///
/// With the `enabled` feature off this is a zero-sized type with an empty
/// `Drop` — the optimiser erases it entirely.
#[derive(Debug)]
#[must_use = "a span records its elapsed time when dropped; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    #[cfg(feature = "enabled")]
    stage: Stage,
    #[cfg(feature = "enabled")]
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        {
            let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            reg::STAGES[self.stage.index()].record(ns);
        }
    }
}

/// Opens a scoped timer for `stage`. Bind the guard to a named variable
/// (`let _span = …`) so it lives to the end of the region being measured.
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    #[cfg(not(feature = "enabled"))]
    let _ = stage;
    SpanGuard {
        #[cfg(feature = "enabled")]
        stage,
        #[cfg(feature = "enabled")]
        start: Instant::now(),
    }
}

/// Adds `n` to a counter. Call once per region with a locally accumulated
/// count, not once per event.
#[inline]
pub fn add(metric: Metric, n: u64) {
    #[cfg(feature = "enabled")]
    reg::COUNTERS[metric.index()].fetch_add(n, Ordering::Relaxed);
    #[cfg(not(feature = "enabled"))]
    let _ = (metric, n);
}

/// Whether the `enabled` feature was compiled in. `const`, so branches on
/// it fold away.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Zeroes every stage and counter. Benchmark harnesses call this between
/// benchmarks so each report section starts from a clean registry.
/// Concurrent writers are tolerated (they land in the new window).
pub fn reset() {
    #[cfg(feature = "enabled")]
    {
        for cell in &reg::STAGES {
            cell.reset();
        }
        for ctr in &reg::COUNTERS {
            ctr.store(0, Ordering::Relaxed);
        }
    }
}

/// One stage's aggregate at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSample {
    /// The stage's dotted name ([`Stage::name`]).
    pub name: &'static str,
    /// Total wall time recorded, in nanoseconds, summed across threads
    /// (concurrent spans overlap, so this can exceed elapsed wall time).
    pub total_ns: u64,
    /// Number of spans recorded.
    pub count: u64,
    /// Longest single span, in nanoseconds.
    pub max_ns: u64,
}

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// The counter's dotted name ([`Metric::name`]).
    pub name: &'static str,
    /// Monotonic count since process start (or the last [`reset`]).
    pub value: u64,
}

/// A point-in-time read of the registry. Zero rows are omitted, so an
/// untouched registry (or a disabled-feature build) snapshots as empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Stages with at least one recorded span.
    pub stages: Vec<StageSample>,
    /// Counters with a non-zero value.
    pub counters: Vec<CounterSample>,
}

/// Reads the registry without stopping writers. Rows are read one relaxed
/// load at a time, so a snapshot taken mid-flight can be slightly skewed —
/// fine for reporting, which is its only consumer.
#[must_use]
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "enabled")]
    {
        let stages = Stage::ALL
            .iter()
            .filter_map(|&s| {
                let cell = &reg::STAGES[s.index()];
                let count = cell.count.load(Ordering::Relaxed);
                (count > 0).then(|| StageSample {
                    name: s.name(),
                    total_ns: cell.total_ns.load(Ordering::Relaxed),
                    count,
                    max_ns: cell.max_ns.load(Ordering::Relaxed),
                })
            })
            .collect();
        let counters = Metric::ALL
            .iter()
            .filter_map(|&m| {
                let value = reg::COUNTERS[m.index()].load(Ordering::Relaxed);
                (value > 0).then_some(CounterSample {
                    name: m.name(),
                    value,
                })
            })
            .collect();
        Snapshot { stages, counters }
    }
    #[cfg(not(feature = "enabled"))]
    Snapshot::default()
}

impl Snapshot {
    /// Looks up a stage by dotted name.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageSample> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Looks up a counter by dotted name; absent counters read as 0.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// `true` when nothing has been recorded (always true with the
    /// `enabled` feature off).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty() && self.counters.is_empty()
    }

    /// The window between `earlier` and `self`: totals and counts are
    /// subtracted per name; rows that did not move are dropped. `max_ns`
    /// is carried from `self` (a high-water mark cannot be windowed).
    #[must_use]
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let stages = self
            .stages
            .iter()
            .filter_map(|s| {
                let before = earlier.stage(s.name);
                // Saturating: a reset() between the two snapshots must not
                // panic the reporter, just clamp to zero.
                let count = s.count.saturating_sub(before.map_or(0, |b| b.count));
                (count > 0).then(|| StageSample {
                    name: s.name,
                    total_ns: s.total_ns.saturating_sub(before.map_or(0, |b| b.total_ns)),
                    count,
                    max_ns: s.max_ns,
                })
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .filter_map(|c| {
                let value = c.value.saturating_sub(earlier.counter(c.name));
                (value > 0).then_some(CounterSample {
                    name: c.name,
                    value,
                })
            })
            .collect();
        Snapshot { stages, counters }
    }

    /// Renders the snapshot as the `esd-telemetry/v1` JSON object used by
    /// the `telemetry` protocol command and embedded (per benchmark) in
    /// `BENCH_*.json` reports.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("enabled", Json::Bool(enabled())),
            (
                "stages",
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(s.name)),
                                ("total_ns", Json::num_u64(s.total_ns)),
                                ("count", Json::num_u64(s.count)),
                                ("max_ns", Json::num_u64(s.max_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters",
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::str(c.name)),
                                ("value", Json::num_u64(c.value)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Stage::ALL
            .iter()
            .map(|s| s.name())
            .chain(Metric::ALL.iter().map(|m| m.name()))
            .collect();
        assert_eq!(names.len(), Stage::COUNT + Metric::COUNT);
        for n in &names {
            assert!(
                n.contains('.')
                    && n.chars()
                        .all(|c| c.is_ascii_lowercase() || "._".contains(c)),
                "name {n:?} is not dotted lower-snake"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            Stage::COUNT + Metric::COUNT,
            "duplicate catalogue name"
        );
    }

    #[test]
    fn catalogue_round_trips_through_names() {
        for &s in Stage::ALL {
            assert_eq!(Stage::from_name(s.name()), Some(s));
        }
        for &m in Metric::ALL {
            assert_eq!(Metric::from_name(m.name()), Some(m));
        }
        assert_eq!(Stage::from_name("no.such.stage"), None);
        assert_eq!(Metric::from_name(""), None);
        // The two catalogues share a namespace in reports: a Stage name
        // must never resolve as a Metric and vice versa.
        for &s in Stage::ALL {
            assert_eq!(Metric::from_name(s.name()), None);
        }
        for &m in Metric::ALL {
            assert_eq!(Stage::from_name(m.name()), None);
        }
    }

    #[test]
    fn snapshot_json_shape_is_stable() {
        let snap = Snapshot {
            stages: vec![StageSample {
                name: "build.enumerate",
                total_ns: 1200,
                count: 2,
                max_ns: 800,
            }],
            counters: vec![CounterSample {
                name: "cliques.enumerated",
                value: 42,
            }],
        };
        let text = snap.to_json().render_compact();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let stages = parsed.get("stages").and_then(Json::as_arr).unwrap();
        assert_eq!(stages[0].get("total_ns").and_then(Json::as_u64), Some(1200));
        let counters = parsed.get("counters").and_then(Json::as_arr).unwrap();
        assert_eq!(counters[0].get("value").and_then(Json::as_u64), Some(42));
    }

    // Registry tests share process-global state; each takes this lock so
    // reset() from one test cannot clobber another's window.
    #[cfg(feature = "enabled")]
    static REGISTRY_LOCK: crate::sync::Mutex<()> = crate::sync::Mutex::new(());

    #[cfg(feature = "enabled")]
    mod enabled_behaviour {
        use super::super::*;
        use super::REGISTRY_LOCK;
        use crate::sync::Unpoison;

        #[test]
        fn spans_and_counters_record_and_reset() {
            let _guard = REGISTRY_LOCK.lock().unpoison();
            reset();
            {
                let _span = span(Stage::BuildEnumerate);
                crate::sync::thread::sleep(std::time::Duration::from_millis(1));
            }
            add(Metric::CliquesEnumerated, 5);
            add(Metric::CliquesEnumerated, 2);
            let snap = snapshot();
            let stage = snap.stage("build.enumerate").expect("span recorded");
            assert_eq!(stage.count, 1);
            // Under loom the facade sleep is a logical yield, not wall
            // time, so the duration floor only holds in normal builds.
            #[cfg(not(loom))]
            assert!(stage.total_ns >= 1_000_000, "slept ≥ 1 ms");
            assert_eq!(stage.max_ns, stage.total_ns);
            assert_eq!(snap.counter("cliques.enumerated"), 7);
            assert!(!snap.is_empty());
            reset();
            assert!(snapshot().is_empty());
        }

        #[test]
        fn delta_since_windows_the_registry() {
            let _guard = REGISTRY_LOCK.lock().unpoison();
            reset();
            add(Metric::OnlineHeapPops, 10);
            drop(span(Stage::OnlineTopk));
            let before = snapshot();
            add(Metric::OnlineHeapPops, 3);
            add(Metric::OnlineEnqueued, 4);
            drop(span(Stage::OnlineTopk));
            let delta = snapshot().delta_since(&before);
            assert_eq!(delta.counter("online.heap_pops"), 3);
            assert_eq!(delta.counter("online.enqueued"), 4);
            assert_eq!(delta.stage("online.topk").unwrap().count, 1);
            // An unmoved window is empty.
            let snap = snapshot();
            assert!(snap.delta_since(&snap).is_empty());
        }

        #[test]
        fn concurrent_spans_sum_across_threads() {
            let _guard = REGISTRY_LOCK.lock().unpoison();
            reset();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for _ in 0..100 {
                            let _span = span(Stage::ParEnumerate);
                            add(Metric::ParOpsApplied, 2);
                        }
                    });
                }
            });
            let snap = snapshot();
            assert_eq!(snap.stage("pbuild.enumerate").unwrap().count, 400);
            assert_eq!(snap.counter("pbuild.ops_applied"), 800);
        }
    }

    #[cfg(not(feature = "enabled"))]
    mod disabled_behaviour {
        use super::super::*;

        #[test]
        fn api_is_inert_and_zero_sized() {
            assert!(!enabled());
            // The guard carries no state at all when disabled.
            assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
            {
                let _span = span(Stage::BuildEnumerate);
                add(Metric::CliquesEnumerated, 1_000_000);
            }
            let snap = snapshot();
            assert!(snap.is_empty());
            assert_eq!(snap.counter("cliques.enumerated"), 0);
            let text = snap.to_json().render_compact();
            let parsed = Json::parse(&text).unwrap();
            assert_eq!(parsed.get("enabled").and_then(Json::as_bool), Some(false));
            assert_eq!(
                parsed.get("stages").and_then(Json::as_arr).map(Vec::len),
                Some(0)
            );
        }
    }
}
