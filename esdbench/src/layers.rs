//! The per-layer replay of the traced run. After the end-to-end phase it
//! replays a prefix of the workload's script against each layer's public
//! functions, timing every call from outside the crates:
//!
//! * `esd-serve::protocol` — `parse_line`, `format_query`;
//! * `esd-serve::shard` + `cache` — `ShardedHandle::execute` on a 2-shard
//!   inline durable fleet, hit ratio from `QueryResponse::cache_hit`;
//! * `esd-core::maintain` — `MaintainedIndex::query` (what
//!   `Snapshot::query` runs), first query after a publish,
//!   `apply_batch_parallel` with its `PipelineReport`;
//! * `esd-core::family` — `FamilySuite::query` / `apply`;
//! * `esd-serve::snapshot` publish — clone and drop of index + suite;
//! * `esd-durability` — `WalWriter::append`, `CheckpointStore::write_full`;
//! * `esd-core::online` + `bounds` — the common-neighbour bound pass and
//!   `OnlineStats`;
//! * `esd-core::index` build + `esd-graph::intersect` — `BuildStats` and
//!   the kernel dispatch counters.
//!
//! Every layer runs on every workload (on that workload's graph), so each
//! per-layer metric is measured on each. The replay also checks that each
//! layer's answer agrees with the fleet's.

use crate::stats::{Dist, Metric};
use crate::workloads::{inline_config, update_of, Op, Outcome, Plan, FAMILIES};
use esd::api::{
    EngineHandle, GraphUpdate, MutationBatch, QueryRequest, ShardConfig, ShardedService,
};
use esd::core::bounds::common_neighbor_bound;
use esd::core::index::delta::EdgeSetSnapshot;
use esd::core::online::online_topk_with_stats;
use esd::core::{EsdIndex, Family, FamilySuite, MaintainedIndex, UpperBound};
use esd::datasets::churn::{churn_trace, ChurnMix};
use esd::serve::durability::encode_updates;
use esd::serve::{protocol, AckPolicy, DurabilityConfig, IdMap, ServiceConfig};
use esd_durability::{CheckpointStore, WalOptions, WalWriter};
use std::hint::black_box;
use std::time::Instant;

/// Telemetry stages reported as `tel.<stage>_ms`: time summed over the
/// whole traced run (set-up, end-to-end phase and this replay), so that
/// every stage is non-zero on every workload.
const STAGES: [&str; 15] = [
    "serve.query",
    "serve.publish",
    "shard.gather",
    "family.apply",
    "family.query",
    "pbatch.plan",
    "pbatch.recompute",
    "pbatch.commit",
    "wal.append",
    "ckpt.write",
    "online.topk",
    "build.neighborhoods",
    "build.enumerate",
    "build.extract",
    "build.fill",
];

/// Replay caps: enough samples for medians, bounded cost on every graph.
const MAX_QUERIES: usize = 1200;
const MAX_WRITES: usize = 16;
const SYNTH_BATCH: usize = 32;

/// What the replay measured, plus its exact work counts (which repeat
/// exactly for one seed).
#[derive(Debug, Default)]
pub(crate) struct LayerReport {
    pub(crate) metrics: Vec<Metric>,
    pub(crate) problems: Vec<String>,
    pub(crate) counts: Vec<u64>,
}

/// The replayed script: a prefix of the workload's own ops, topped up
/// with seeded churn windows and family queries where the workload has
/// none, so that every layer is exercised.
fn replay_ops(outcome: &Outcome, plan: &Plan) -> Vec<Op> {
    let has_writes = outcome.ops.iter().any(|op| matches!(op, Op::Write(_)));
    let has_family = outcome
        .ops
        .iter()
        .any(|op| matches!(op, Op::Query { family, .. } if *family != Family::Component));
    let mut synth = churn_trace(
        &outcome.graph,
        MAX_WRITES * SYNTH_BATCH,
        ChurnMix::default(),
        plan.seed,
    )
    .chunks(SYNTH_BATCH)
    .map(|c| c.iter().copied().map(update_of).collect::<Vec<_>>())
    .collect::<Vec<_>>()
    .into_iter();
    let (mut queries, mut writes) = (0, 0);
    let mut out = Vec::new();
    for op in &outcome.ops {
        // Stop at the first op beyond either cap, so the replayed prefix
        // keeps the workload's own mix of reads and writes.
        match op {
            Op::Write(_) if writes < MAX_WRITES => writes += 1,
            Op::Query { .. } if queries < MAX_QUERIES => queries += 1,
            _ => break,
        }
        out.push(op.clone());
        if let Op::Query { k, tau, .. } = *op {
            if !has_family && queries % 2 == 1 {
                out.push(Op::Query {
                    family: FAMILIES[(queries / 2) % 3],
                    k,
                    tau,
                });
            }
            if !has_writes && queries % 3 == 0 {
                if let Some(w) = synth.next() {
                    out.push(Op::Write(w));
                }
            }
        }
    }
    out
}

fn line_of(op: &Op) -> String {
    match op {
        Op::Query { k, tau, .. } => format!("? {k} {tau}"),
        Op::Write(w) => match w[0] {
            GraphUpdate::Insert(u, v) => format!("+ {u} {v}"),
            GraphUpdate::Remove(u, v) => format!("- {u} {v}"),
        },
    }
}

#[derive(Default)]
struct Window {
    maintain: Dist,
    family: Dist,
    clone: Dist,
    drop: Dist,
    wal: Dist,
    ckpt_ms: Dist,
    groups: u64,
    recomputed: u64,
    union_ops: u64,
    family_recomputed: u64,
    wal_bytes: u64,
    n: u64,
}

/// Runs the replay and returns the per-layer metrics. `before` is the
/// telemetry snapshot taken before the end-to-end phase.
pub(crate) fn replay(
    workload: &str,
    outcome: &Outcome,
    plan: &Plan,
    before: &esd::telemetry::Snapshot,
) -> LayerReport {
    let g = &outcome.graph;
    let ops = replay_ops(outcome, plan);
    let mut report = LayerReport::default();
    let problems = &mut report.problems;

    // esd-serve::protocol: parse every script line.
    let mut parse_ns = Dist::default();
    for op in &ops {
        let line = line_of(op);
        let t = Instant::now();
        let parsed = black_box(protocol::parse_line(black_box(&line)));
        parse_ns.push(t.elapsed().as_secs_f64() * 1e9);
        if !matches!(parsed, Ok(Some(_))) {
            problems.push(format!("{workload}: replay line `{line}` does not parse"));
        }
    }

    let dir = plan.work_dir.join("replay");
    let mut durability = DurabilityConfig::new(dir.join("fleet"));
    durability.ack_policy = AckPolicy::Enqueue;
    durability.checkpoint_interval = 4;
    let fleet = ShardedService::try_start(
        g,
        &ShardConfig {
            shards: 2,
            per_shard: ServiceConfig {
                durability: Some(durability),
                ..inline_config()
            },
        },
    )
    .expect("replay fleet starts");
    let handle = fleet.handle();
    let ids = IdMap::from_original((0..g.num_vertices() as u64).collect());
    let wal = WalWriter::open(&dir.join("wal"), WalOptions::default()).expect("replay WAL opens");
    let ckpts = CheckpointStore::open(&dir.join("ckpt")).expect("replay checkpoint store opens");
    let mut index = MaintainedIndex::new(g);
    let mut suite = FamilySuite::new(g);
    let mut published = (index.clone(), suite.clone());
    let mut cold_pending = true;

    let (mut shard_us, mut format_us, mut fleet_update_us) =
        (Dist::default(), Dist::default(), Dist::default());
    let (mut index_us, mut index_cold_us, mut family_query_us) =
        (Dist::default(), Dist::default(), Dist::default());
    let (mut hits, mut queries) = (0u64, 0u64);
    let mut win = Window::default();
    for op in &ops {
        match op {
            Op::Query { family, k, tau } => {
                let request = QueryRequest::new(*k, *tau).with_family(*family);
                let t = Instant::now();
                let resp = handle.execute(request);
                shard_us.push_us(t.elapsed());
                let Ok(resp) = resp else {
                    problems.push(format!("{workload}: replay query failed"));
                    continue;
                };
                queries += 1;
                hits += u64::from(resp.cache_hit);
                let t = Instant::now();
                black_box(protocol::format_query(&resp, &ids));
                format_us.push_us(t.elapsed());
                let (snap_index, snap_suite) = &published;
                let direct = if *family == Family::Component {
                    if cold_pending {
                        let t = Instant::now();
                        black_box(snap_index.query(*k, *tau));
                        index_cold_us.push_us(t.elapsed());
                        cold_pending = false;
                    }
                    let t = Instant::now();
                    let r = snap_index.query(*k, *tau);
                    index_us.push_us(t.elapsed());
                    r
                } else {
                    let t = Instant::now();
                    let r = snap_suite.query(*family, *k, *tau);
                    family_query_us.push_us(t.elapsed());
                    r
                };
                if direct != *resp.results {
                    problems.push(format!(
                        "{workload}: layer and fleet disagree on {} ({k}, {tau})",
                        family.name()
                    ));
                }
            }
            Op::Write(w) => {
                let mut batch = MutationBatch::new();
                for &u in w {
                    batch.push(u);
                }
                let updates = batch.updates();
                let t = Instant::now();
                let ack = handle.submit(batch);
                fleet_update_us.push_us(t.elapsed());
                if ack.is_err() {
                    problems.push(format!("{workload}: replay write failed"));
                }
                let t = Instant::now();
                let out = index.apply_batch_parallel(&updates, inline_config().pipeline_threads);
                win.maintain.push_us(t.elapsed());
                win.groups += out.report.groups as u64;
                win.recomputed += out.report.recomputed_edges;
                win.union_ops += out.report.union_ops_per_worker.iter().sum::<u64>();
                let t = Instant::now();
                let fam = suite.apply(index.graph(), &updates, inline_config().pipeline_threads);
                win.family.push_us(t.elapsed());
                win.family_recomputed += fam.recomputed as u64;
                report.counts.extend([
                    out.stats.applied as u64,
                    out.report.groups as u64,
                    out.report.recomputed_edges,
                    fam.affected as u64,
                    fam.recomputed as u64,
                ]);
                win.n += 1;
                let t = Instant::now();
                let bytes = wal
                    .append(win.n, &encode_updates(&updates))
                    .expect("replay WAL append");
                win.wal.push_us(t.elapsed());
                win.wal_bytes += bytes;
                // Publication: clone the working state into a new
                // snapshot, then release the previous one.
                let t = Instant::now();
                let next = (index.clone(), suite.clone());
                win.clone.push_us(t.elapsed());
                let old = std::mem::replace(&mut published, next);
                let t = Instant::now();
                drop(old);
                win.drop.push_us(t.elapsed());
                cold_pending = true;
                let t = Instant::now();
                ckpts
                    .write_full(win.n, &EdgeSetSnapshot::from_graph(index.graph()).encode())
                    .expect("replay checkpoint write");
                win.ckpt_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    drop(handle);
    fleet.shutdown();
    drop(published);

    // esd-core::online + bounds on the workload's starting graph.
    let mut bound_ms = Dist::default();
    for _ in 0..3 {
        let t = Instant::now();
        let mut sum = 0u64;
        for e in g.edges() {
            sum += u64::from(common_neighbor_bound(g, e.u, e.v, 2));
        }
        black_box(sum);
        bound_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let tel_build = esd::telemetry::snapshot();
    let (built, build_stats) = EsdIndex::build_fast_with_stats(g);
    let kernels = esd::telemetry::snapshot().delta_since(&tel_build);
    let online_grid = [(10, 2), (100, 4)];
    let (mut exact, mut pops, mut enqueued) = (0u64, 0u64, 0u64);
    for (k, tau) in online_grid {
        let (top, stats) = online_topk_with_stats(g, k, tau, UpperBound::CommonNeighbor);
        if top != built.query(k, tau) {
            problems.push(format!(
                "{workload}: online ({k}, {tau}) differs from the index"
            ));
        }
        exact += stats.exact_evaluations as u64;
        pops += stats.pops as u64;
        enqueued += stats.enqueued as u64;
        report
            .counts
            .extend([stats.exact_evaluations, stats.pops, stats.enqueued].map(|x| x as u64));
    }
    report.counts.extend([
        build_stats.four_cliques,
        build_stats.union_ops,
        build_stats.total_neighborhood as u64,
    ]);
    let tel = esd::telemetry::snapshot().delta_since(before);

    let per = |x: u64, n: u64| x as f64 / n.max(1) as f64;
    // The share is taken against the replay fleet's own served writes, so
    // numerator and denominator come from the same windows on every
    // workload; the end-to-end figure is printed beside it.
    let update_p50 = fleet_update_us.median();
    let e2e_update_p50 = outcome
        .metrics
        .iter()
        .find(|m| m.name == "update_p50_us")
        .map_or(f64::NAN, |m| m.value);
    let publish_us = win.clone.median() + win.drop.median();
    let grid = online_grid.len() as u64;
    let m = &mut report.metrics;
    m.extend([
        parse_ns.metric("protocol.parse_p50_ns", "ns", 50.0),
        format_us.metric("protocol.format_p50_us", "us", 50.0),
        shard_us.metric("shard.execute_p50_us", "us", 50.0),
        Metric::new("cache.hit_ratio", "ratio", per(hits, queries))
            .with_note(format!("n={queries}")),
        index_us.metric("index.query_p50_us", "us", 50.0),
        index_cold_us.metric("index.query_cold_p50_us", "us", 50.0),
        family_query_us.metric("family.query_p50_us", "us", 50.0),
        win.family.metric("family.apply_p50_us", "us", 50.0),
        Metric::new(
            "family.recomputed_per_window",
            "count",
            per(win.family_recomputed, win.n),
        ),
        win.maintain.metric("maintain.apply_p50_us", "us", 50.0),
        Metric::new(
            "maintain.groups_per_window",
            "count",
            per(win.groups, win.n),
        ),
        Metric::new(
            "maintain.recomputed_edges_per_window",
            "count",
            per(win.recomputed, win.n),
        ),
        Metric::new(
            "maintain.union_ops_per_window",
            "count",
            per(win.union_ops, win.n),
        ),
        win.clone.metric("publish.clone_p50_us", "us", 50.0),
        win.drop.metric("publish.drop_p50_us", "us", 50.0),
        Metric::new(
            "publish.share_of_update_pct",
            "%",
            100.0 * publish_us / update_p50,
        )
        .with_note(format!(
            "(clone + drop p50) / replay.update_p50_us; end-to-end update_p50_us {e2e_update_p50:.1}"
        )),
        fleet_update_us.metric("replay.update_p50_us", "us", 50.0),
        win.wal.metric("wal.append_p50_us", "us", 50.0),
        Metric::new("wal.bytes_per_window", "bytes", per(win.wal_bytes, win.n)),
        win.ckpt_ms.metric("ckpt.write_p50_ms", "ms", 50.0),
        bound_ms.metric("online.bound_pass_ms", "ms", 50.0),
        Metric::new("online.exact_evals_per_query", "count", per(exact, grid)),
        Metric::new("online.pops_per_query", "count", per(pops, grid)),
        Metric::new("online.enqueued_per_query", "count", per(enqueued, grid)),
        Metric::new(
            "build.four_cliques",
            "count",
            build_stats.four_cliques as f64,
        ),
        Metric::new("build.union_ops", "count", build_stats.union_ops as f64),
    ]);
    for name in ["intersect.merge", "intersect.gallop", "intersect.bitset"] {
        m.push(
            Metric::new(name, "count", kernels.counter(name) as f64)
                .with_note("build_fast dispatches"),
        );
    }
    for stage in STAGES {
        let ms = tel.stage(stage).map_or(0.0, |s| s.total_ns as f64 / 1e6);
        let spans = tel.stage(stage).map_or(0, |s| s.count);
        m.push(
            Metric::new(format!("tel.{stage}_ms"), "ms", ms).with_note(format!("spans={spans}")),
        );
    }
    report
}
