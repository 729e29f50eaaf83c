//! The three workloads. Each draws its whole op script from the seed
//! before timing starts, sets the program up several times (reporting the
//! median as `setup_s`), runs the script once from a single client in a
//! closed loop, and then checks every answer against a from-scratch
//! rebuild.

use crate::stats::{rss_peak_mib, Dist, Fingerprint, Metric, Phase, Rng, SEGMENTS};
use esd::api::{
    EngineHandle, GraphUpdate, MutationBatch, QueryRequest, ShardConfig, ShardedService,
};
use esd::core::{
    online_topk, EdgeOwnership, EsdIndex, Family, FamilySuite, MaintainedIndex, ScoredEdge,
    UpperBound,
};
use esd::datasets::churn::{churn_trace, ChurnEvent, ChurnMix};
use esd::datasets::{surrogates, Scale};
use esd::graph::{DynamicGraph, Graph};
use esd::serve::{
    protocol, AckPolicy, DurabilityConfig, IdMap, LineOutcome, QueryResponse, Service,
    ServiceConfig, Session, VectorEpoch,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result sizes clients ask for.
pub(crate) const K_SET: [usize; 6] = [10, 25, 50, 100, 250, 500];
/// Component-size thresholds clients ask for.
pub(crate) const TAUS: std::ops::RangeInclusive<u32> = 1..=6;
/// The non-component families, in the order `serve_read` rotates them.
pub(crate) const FAMILIES: [Family; 3] =
    [Family::Truss, Family::ParameterFree, Family::EgoBetweenness];
/// Edges per `serve_ingest` batch.
const INGEST_BATCH: usize = 32;
/// Edge changes (each followed by a rebuild) per `offline_search` pass.
const OFFLINE_UPDATES: usize = 3;
/// `FamilySuite::query` calls per `offline_search` pass.
const OFFLINE_FAMILY_QUERIES: usize = 150;

/// What the caller asked for.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    pub(crate) seed: u64,
    pub(crate) seconds: u64,
    /// Shrinks graphs to `Scale::Tiny` and scripts to a handful of ops
    /// (the self-test).
    pub(crate) tiny: bool,
    /// Scratch directory for durable state; removed by the caller.
    pub(crate) work_dir: PathBuf,
}

impl Plan {
    fn scale(&self, full: Scale) -> Scale {
        if self.tiny {
            Scale::Tiny
        } else {
            full
        }
    }

    fn setup_reps(&self) -> usize {
        if self.tiny {
            1
        } else {
            3
        }
    }
}

/// One script step, in the program's own (dense) vertex ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Op {
    Query { family: Family, k: usize, tau: u32 },
    Write(Vec<GraphUpdate>),
}

/// A finished end-to-end run.
#[derive(Debug)]
pub(crate) struct Outcome {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Correctness violations; empty means every check passed.
    pub(crate) problems: Vec<String>,
    pub(crate) metrics: Vec<Metric>,
    pub(crate) fingerprint: u64,
    /// Wall time of the measured phase.
    pub(crate) phase_s: f64,
    /// The starting graph and the script, for the per-layer replay.
    pub(crate) graph: Graph,
    pub(crate) ops: Vec<Op>,
}

/// The engine configuration `esd stream` runs: everything inline on the
/// calling thread, two recompute threads for write windows.
pub(crate) fn inline_config() -> ServiceConfig {
    ServiceConfig {
        workers: 0,
        pipeline_threads: 2,
        ..ServiceConfig::default()
    }
}

pub(crate) fn update_of(e: ChurnEvent) -> GraphUpdate {
    match e {
        ChurnEvent::Insert(u, v) => GraphUpdate::Insert(u, v),
        ChurnEvent::Remove(u, v) => GraphUpdate::Remove(u, v),
    }
}

fn apply_all(g: &mut DynamicGraph, updates: &[GraphUpdate]) {
    for &u in updates {
        match u {
            GraphUpdate::Insert(a, b) => {
                let top = a.max(b);
                g.ensure_vertex(top);
                g.insert_edge(a, b);
            }
            GraphUpdate::Remove(a, b) => {
                g.remove_edge(a, b);
            }
        }
    }
}

fn sorted_edges(g: &DynamicGraph) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
    edges.sort_unstable();
    edges
}

fn hash_results(fp: &mut Fingerprint, results: &[ScoredEdge]) {
    fp.u64(results.len() as u64);
    for s in results {
        fp.u64((u64::from(s.edge.u) << 32) | u64::from(s.edge.v));
        fp.u64(u64::from(s.score));
    }
}

/// Times `reps` program set-ups, keeping the last instance.
fn timed_setups<T>(reps: usize, mut start: impl FnMut(usize) -> T) -> (T, Dist) {
    let mut dist = Dist::default();
    let mut kept = None;
    for i in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        let made = start(i);
        dist.push(t.elapsed().as_secs_f64());
        kept = Some(made);
    }
    (kept.expect("at least one set-up"), dist)
}

fn common_metrics(setup: &Dist, phase: &Phase) -> Vec<Metric> {
    let mut metrics =
        vec![Metric::new("setup_s", "s", setup.median())
            .with_note(format!("n={} median", setup.len()))];
    metrics.extend(phase.metrics());
    metrics
}

/// The latency metrics every workload reports, each at the highest
/// percentile its samples support.
fn latency_metrics(query: &Dist, family: &Dist, update: &Dist) -> [Metric; 7] {
    [
        query.metric("query_p50_us", "us", 50.0),
        query.metric("query_p90_us", "us", 90.0),
        query.metric("query_p99_us", "us", 99.0),
        family.metric("family_p50_us", "us", 50.0),
        family.metric("family_p90_us", "us", 90.0),
        update.metric("update_p50_us", "us", 50.0),
        update.metric("update_p90_us", "us", 90.0),
    ]
}

fn rss_metric() -> Metric {
    Metric::new("rss_peak_mib", "MiB", rss_peak_mib()).with_note("VmHWM")
}

/// The result lines of a protocol reply (everything before the `#`
/// summary).
fn result_lines(reply: &str) -> &str {
    reply.rfind("\n#").map_or(reply, |i| &reply[..=i])
}

/// The epoch (vector) a query reply's summary line reports, e.g. `[3, 4]`.
fn reply_epochs(reply: &str) -> &str {
    let summary = reply.lines().last().unwrap_or("");
    let tail = summary.rsplit_once("epoch ").map_or("", |(_, e)| e);
    let end = if tail.starts_with('[') {
        tail.find(']').map_or(tail.len(), |i| i + 1)
    } else {
        tail.find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len())
    };
    &tail[..end]
}

/// Feeds a reply into the fingerprint with its latency text removed, so
/// that the fingerprint is identical across runs of one seed.
fn hash_stable_reply(fp: &mut Fingerprint, reply: &str) {
    for line in reply.lines() {
        if let (Some(a), Some(b)) = (line.find(" in "), line.find(" µs (")) {
            // Query summary: `# N result(s) in X µs (cache …, epoch …)`.
            fp.bytes(&line.as_bytes()[..a]);
            fp.bytes(&line.as_bytes()[b + " µs".len()..]);
        } else if let (Some(a), Some(b)) = (line.find(": "), line.find(" µs, ")) {
            // Update ack: `+ (u, v): ok (X µs, epoch …)`.
            let status_end = line[a..].find(" (").map_or(line.len(), |i| a + i);
            fp.bytes(&line.as_bytes()[..status_end]);
            fp.bytes(&line.as_bytes()[b + " µs".len()..]);
        } else {
            fp.bytes(line.as_bytes());
        }
        fp.bytes(b"\n");
    }
}

fn hash_str(s: &str) -> u64 {
    let mut fp = Fingerprint::default();
    fp.bytes(s.as_bytes());
    fp.value()
}

/// What the correctness checks need of one protocol reply.
#[derive(Debug)]
struct Reply {
    /// Hash of the result lines.
    body: u64,
    /// The epoch (vector) the summary reports.
    epochs: String,
    /// An update acknowledged as applied.
    ok_ack: bool,
}

impl Reply {
    fn of(text: &str) -> Self {
        Self {
            body: hash_str(result_lines(text)),
            epochs: reply_epochs(text).to_string(),
            ok_ack: text.contains(": ok ("),
        }
    }
}

/// The reply lines the protocol would print for `results`.
fn expected_lines(results: Vec<ScoredEdge>, family: Family, ids: &IdMap) -> String {
    let resp = QueryResponse {
        results: Arc::new(results),
        family,
        epoch: 0,
        epochs: VectorEpoch::scalar(0),
        cache_hit: false,
        degraded: false,
        lag: 0,
        latency: Duration::ZERO,
    };
    result_lines(&protocol::format_query(&resp, ids)).to_string()
}

fn family_index(f: Family) -> usize {
    match f {
        Family::Component => 0,
        Family::Truss => 1,
        Family::ParameterFree => 2,
        Family::EgoBetweenness => 3,
    }
}

fn all_families() -> [Family; 4] {
    [
        Family::Component,
        Family::Truss,
        Family::ParameterFree,
        Family::EgoBetweenness,
    ]
}

/// `serve_read`: protocol sessions over a 2-shard inline fleet on the
/// LiveJournal surrogate. Per 100 ops: 94 component queries, 5 family
/// queries, 1 single-edge write, shuffled within the block.
pub(crate) fn serve_read(plan: &Plan) -> Outcome {
    let g = surrogates::livejournal(plan.scale(Scale::Small));
    let blocks = if plan.tiny {
        3
    } else {
        10 * plan.seconds as usize
    };
    let mut rng = Rng::new(plan.seed);
    let writes: Vec<GraphUpdate> = churn_trace(&g, blocks, ChurnMix::default(), plan.seed)
        .into_iter()
        .map(update_of)
        .collect();
    let mut ops = Vec::with_capacity(blocks * 100);
    for (b, &w) in writes.iter().enumerate() {
        let mut block: Vec<Op> = (0..99)
            .map(|i| Op::Query {
                family: if i < 5 {
                    FAMILIES[(b * 5 + i) % 3]
                } else {
                    Family::Component
                },
                k: rng.pick(&K_SET),
                tau: 1 + rng.below(6) as u32,
            })
            .collect();
        block.push(Op::Write(vec![w]));
        rng.shuffle(&mut block);
        ops.extend(block);
    }
    let lines: Vec<(usize, String)> = ops
        .iter()
        .map(|op| match *op {
            Op::Query { family, k, tau } => (family_index(family), format!("? {k} {tau}")),
            Op::Write(ref w) => match w[0] {
                GraphUpdate::Insert(u, v) => (0, format!("+ {u} {v}")),
                GraphUpdate::Remove(u, v) => (0, format!("- {u} {v}")),
            },
        })
        .collect();

    let cfg = ShardConfig {
        shards: 2,
        per_shard: inline_config(),
    };
    let (fleet, setup) = timed_setups(plan.setup_reps(), |_| {
        ShardedService::try_start(&g, &cfg).expect("in-memory fleet starts")
    });
    let handle = fleet.handle();
    let ids = Arc::new(IdMap::from_original((0..g.num_vertices() as u64).collect()));
    let sessions: Vec<Session<_>> = all_families()
        .iter()
        .map(|f| {
            let s = Session::new(handle.clone(), Arc::clone(&ids));
            s.handle_line(&format!("family {}", f.name()));
            s
        })
        .collect();
    // Warm-up, untimed: one component query per (k, τ) and one query per
    // family, all at the boot epoch.
    for k in K_SET {
        for tau in TAUS {
            sessions[0].handle_line(&format!("? {k} {tau}"));
        }
    }
    for s in &sessions[1..] {
        s.handle_line("? 10 2");
    }

    let mut query = Dist::default();
    let mut family = Dist::default();
    let mut update = Dist::default();
    let mut replies: Vec<Reply> = Vec::with_capacity(ops.len());
    let mut fp = Fingerprint::default();
    let mut failed = 0u64;
    let mut phase = Phase::start(ops.len(), SEGMENTS);
    for (op, (session, line)) in ops.iter().zip(&lines) {
        let t = Instant::now();
        let out = sessions[*session].handle_line(line);
        let dt = t.elapsed();
        match op {
            Op::Query {
                family: Family::Component,
                ..
            } => query.push_us(dt),
            Op::Query { .. } => family.push_us(dt),
            Op::Write(_) => update.push_us(dt),
        }
        let LineOutcome::Respond(text) = out else {
            unreachable!("no quit line in the script")
        };
        failed += u64::from(text.starts_with("error:"));
        // Digest the reply now rather than keeping it: the texts of a
        // whole run would dwarf the program's own memory.
        hash_stable_reply(&mut fp, &text);
        replies.push(Reply::of(&text));
        phase.tick();
    }

    // Correctness: replay the writes on a plain graph, rebuild from
    // scratch, and compare every answer that the final state produced.
    let mut problems = Vec::new();
    let mut expected_graph = DynamicGraph::from_graph(&g);
    apply_all(&mut expected_graph, &writes);
    let served_graph = handle.shard_handles()[0].snapshot();
    if sorted_edges(served_graph.index().graph()) != sorted_edges(&expected_graph) {
        problems.push("serve_read: served graph differs from the replayed writes".into());
    }
    if (0..ids.len()).any(|d| ids.original_of(d as u32) != d as u64) {
        problems.push("serve_read: id map is not the identity".into());
    }
    let reference = MaintainedIndex::new(&expected_graph.to_graph());
    let suite = FamilySuite::rebuild(&expected_graph, EdgeOwnership::ALL);
    let mut want: HashMap<(usize, String), u64> = HashMap::new();
    for f in all_families() {
        for k in K_SET {
            for tau in TAUS {
                let results = match f {
                    Family::Component => reference.query(k, tau),
                    _ => suite.query(f, k, tau),
                };
                let expected = expected_lines(results, f, &ids);
                let line = format!("? {k} {tau}");
                let LineOutcome::Respond(got) = sessions[family_index(f)].handle_line(&line) else {
                    unreachable!("a query line never quits")
                };
                if result_lines(&got) != expected {
                    problems.push(format!(
                        "serve_read: {} `{line}` differs from a rebuild",
                        f.name()
                    ));
                }
                want.insert((family_index(f), line), hash_str(&expected));
            }
        }
    }
    // Every reply at the final epoch vector must equal the rebuild; any
    // two replies to one question at one epoch vector must agree.
    let final_epochs = handle.epochs().to_string();
    let mut seen: HashMap<(usize, &str, &str), u64> = HashMap::new();
    let mut ok_acks = 0usize;
    for ((session, line), reply) in lines.iter().zip(&replies) {
        if line.starts_with('?') {
            if reply.epochs == final_epochs
                && want.get(&(*session, line.clone())) != Some(&reply.body)
            {
                problems.push(format!(
                    "serve_read: final-epoch reply to `{line}` differs from a rebuild"
                ));
            }
            if let Some(prev) = seen.insert((*session, line, &reply.epochs), reply.body) {
                if prev != reply.body {
                    problems.push(format!(
                        "serve_read: two replies to `{line}` at one epoch differ"
                    ));
                }
            }
        } else {
            ok_acks += usize::from(reply.ok_ack);
        }
    }
    if ok_acks != writes.len() {
        problems.push(format!(
            "serve_read: {ok_acks} of {} writes acked ok",
            writes.len()
        ));
    }
    drop(sessions);
    fleet.shutdown();

    let n = ops.len() as u64;
    let mut metrics = common_metrics(&setup, &phase);
    metrics.extend(latency_metrics(&query, &family, &update));
    metrics.push(rss_metric());
    Outcome {
        attempted: n,
        failed,
        problems,
        metrics,
        fingerprint: fp.value(),
        phase_s: phase.elapsed().as_secs_f64(),
        graph: g,
        ops,
    }
}

fn durable_config(dir: &Path) -> ServiceConfig {
    let mut durability = DurabilityConfig::new(dir);
    durability.ack_policy = AckPolicy::Enqueue;
    ServiceConfig {
        durability: Some(durability),
        ..inline_config()
    }
}

/// `serve_ingest`: one durable inline engine on the DBLP surrogate. Each
/// step submits a 32-edge batch, then reads its own write twice: a
/// component top-100 at τ = 2 and a family top-100 (rotating truss,
/// parameter-free, ego-betweenness). Not listed in `BENCHMARK.json`: its
/// read-after-publish tail is not yet steady across runs (see README).
pub(crate) fn serve_ingest(plan: &Plan) -> Outcome {
    let g = surrogates::dblp(plan.scale(Scale::Small));
    let steps = if plan.tiny {
        6
    } else {
        15 * plan.seconds as usize
    };
    let events = churn_trace(&g, steps * INGEST_BATCH, ChurnMix::default(), plan.seed);
    let windows: Vec<Vec<GraphUpdate>> = events
        .chunks(INGEST_BATCH)
        .map(|c| c.iter().copied().map(update_of).collect())
        .collect();
    let batches: Vec<MutationBatch> = windows
        .iter()
        .map(|w| {
            let mut b = MutationBatch::new();
            for &u in w {
                b.push(u);
            }
            b
        })
        .collect();
    let reads: Vec<[QueryRequest; 2]> = (0..steps)
        .map(|i| {
            let read = QueryRequest::new(100, 2);
            [read, read.with_family(FAMILIES[i % 3])]
        })
        .collect();

    let dir_of = |i: usize| plan.work_dir.join(format!("ingest-{i}"));
    let (service, setup) = timed_setups(plan.setup_reps(), |i| {
        Service::try_start(&g, &durable_config(&dir_of(i))).expect("durable engine starts")
    });
    let last = plan.setup_reps() - 1;
    for i in 0..last {
        let _ = std::fs::remove_dir_all(dir_of(i));
    }
    let dir = dir_of(last);
    let handle = service.handle();
    handle.execute(reads[0][0]).expect("warm-up read");

    let (mut query, mut family, mut update) = (Dist::default(), Dist::default(), Dist::default());
    let mut steps_done = Vec::with_capacity(batches.len());
    let mut failed = 0u64;
    let lens: Vec<usize> = batches.iter().map(MutationBatch::len).collect();
    let mut phase = Phase::start(3 * batches.len(), SEGMENTS);
    for (i, batch) in batches.into_iter().enumerate() {
        let t = Instant::now();
        let ack = handle.submit(batch);
        update.push_us(t.elapsed());
        phase.tick();
        let t = Instant::now();
        let component = handle.execute(reads[i][0]);
        query.push_us(t.elapsed());
        phase.tick();
        let t = Instant::now();
        let fam = handle.execute(reads[i][1]);
        family.push_us(t.elapsed());
        phase.tick();
        failed += [ack.is_err(), component.is_err(), fam.is_err()]
            .map(u64::from)
            .iter()
            .sum::<u64>();
        steps_done.push((ack, component, fam));
    }

    let mut problems = Vec::new();
    let mut fp = Fingerprint::default();
    for (i, step) in steps_done.iter().enumerate() {
        let (Ok(ack), Ok(component), Ok(fam)) = step else {
            continue;
        };
        if ack.applied + ack.noop + ack.rejected != lens[i] {
            problems.push(format!(
                "serve_ingest: step {i} ack does not account for its batch"
            ));
        }
        for x in [ack.applied, ack.noop, ack.rejected] {
            fp.u64(x as u64);
        }
        fp.u64(ack.epoch);
        for resp in [component, fam] {
            if resp.epoch < ack.epoch {
                problems.push(format!(
                    "serve_ingest: step {i} read epoch {} < ack epoch {}",
                    resp.epoch, ack.epoch
                ));
            }
            fp.u64(resp.epoch);
            fp.u64(u64::from(resp.cache_hit));
            hash_results(&mut fp, &resp.results);
        }
    }
    let mut expected_graph = DynamicGraph::from_graph(&g);
    for w in &windows {
        apply_all(&mut expected_graph, w);
    }
    let expected_edges = sorted_edges(&expected_graph);
    let snap = handle.snapshot();
    if sorted_edges(snap.index().graph()) != expected_edges {
        problems.push("serve_ingest: served graph differs from the replayed batches".into());
    }
    let reference = MaintainedIndex::new(&expected_graph.to_graph());
    for k in [10, 100, 500] {
        for tau in TAUS {
            if snap.query(k, tau) != reference.query(k, tau) {
                problems.push(format!(
                    "serve_ingest: query ({k}, {tau}) differs from a rebuild"
                ));
            }
        }
    }
    let suite = FamilySuite::rebuild(&expected_graph, EdgeOwnership::ALL);
    if let (Some((_, Ok(component), Ok(fam))), Some([c, f])) = (steps_done.last(), reads.last()) {
        if *component.results != reference.query(c.k, c.tau)
            || *fam.results != suite.query(f.family, f.k, f.tau)
        {
            problems.push("serve_ingest: last reads differ from a rebuild".into());
        }
    }
    if *snap.families() != suite {
        problems.push("serve_ingest: family suite differs from a rebuild".into());
    }
    drop(snap);
    service.shutdown();
    match esd::serve::durability::recover(&dir) {
        Ok(Some(rec)) if sorted_edges(rec.index.graph()) == expected_edges => {}
        Ok(Some(_)) => problems.push("serve_ingest: recovered edge set differs".into()),
        Ok(None) => problems.push("serve_ingest: no durable state to recover".into()),
        Err(e) => problems.push(format!("serve_ingest: recovery failed: {e}")),
    }

    let n = 3 * lens.len() as u64;
    let mut metrics = common_metrics(&setup, &phase);
    metrics.extend(latency_metrics(&query, &family, &update));
    metrics.push(rss_metric());
    Outcome {
        attempted: n,
        failed,
        problems,
        metrics,
        fingerprint: fp.value(),
        phase_s: phase.elapsed().as_secs_f64(),
        graph: g,
        ops: windows
            .into_iter()
            .zip(&reads)
            .flat_map(|(w, reads)| {
                let query = |r: &QueryRequest| Op::Query {
                    family: r.family,
                    k: r.k,
                    tau: r.tau,
                };
                [Op::Write(w), query(&reads[0]), query(&reads[1])]
            })
            .collect(),
    }
}

/// `offline_search`: the paper's offline path, with no serve layer and no
/// maintained state. Each pass runs three blocks: the grid
/// k ∈ {10, 100} × τ ∈ 1..=6 of `OnlineBFS+` searches (`online_topk` with
/// the common-neighbour bound) in seeded order; [`OFFLINE_UPDATES`] edge
/// changes, each applied to the graph and followed by an
/// `EsdIndex::build_fast` rebuild, which is what one change costs
/// without maintenance; and [`OFFLINE_FAMILY_QUERIES`] seeded
/// `FamilySuite::query` calls against the suite built at set-up.
pub(crate) fn offline_search(plan: &Plan) -> Outcome {
    let g = surrogates::pokec(plan.scale(Scale::Bench));
    let passes = if plan.tiny {
        1
    } else {
        (plan.seconds as usize).div_ceil(7)
    };
    let (updates, family_queries) = if plan.tiny {
        (1, 3)
    } else {
        (OFFLINE_UPDATES, OFFLINE_FAMILY_QUERIES)
    };
    let mut rng = Rng::new(plan.seed);
    let mut churn = churn_trace(&g, passes * updates, ChurnMix::default(), plan.seed)
        .into_iter()
        .map(update_of);
    let mut ops = Vec::new();
    for p in 0..passes {
        let mut grid: Vec<Op> = [10, 100]
            .into_iter()
            .flat_map(|k| {
                TAUS.map(move |tau| Op::Query {
                    family: Family::Component,
                    k,
                    tau,
                })
            })
            .collect();
        rng.shuffle(&mut grid);
        ops.extend(grid);
        ops.extend(churn.by_ref().take(updates).map(|u| Op::Write(vec![u])));
        ops.extend((0..family_queries).map(|i| Op::Query {
            family: FAMILIES[(p * family_queries + i) % 3],
            k: rng.pick(&K_SET),
            tau: 1 + rng.below(6) as u32,
        }));
    }
    let (built, setup) = timed_setups(plan.setup_reps(), |_| {
        (EsdIndex::build_fast(&g), FamilySuite::new(&g))
    });
    let (index, suite) = built;

    let (mut query, mut family, mut update) = (Dist::default(), Dist::default(), Dist::default());
    let mut fp = Fingerprint::default();
    let mut answers = Vec::new();
    let mut graph = DynamicGraph::from_graph(&g);
    let mut rebuilt = None;
    let mut changed = 0usize;
    let mut phase = Phase::start(ops.len(), passes);
    for op in &ops {
        match op {
            Op::Query {
                family: Family::Component,
                k,
                tau,
            } => {
                let t = Instant::now();
                let top = online_topk(&g, *k, *tau, UpperBound::CommonNeighbor);
                query.push_us(t.elapsed());
                hash_results(&mut fp, &top);
                answers.push((Family::Component, *k, *tau, top));
            }
            Op::Query { family: f, k, tau } => {
                let t = Instant::now();
                let top = suite.query(*f, *k, *tau);
                family.push_us(t.elapsed());
                hash_results(&mut fp, &top);
                answers.push((*f, *k, *tau, top));
            }
            Op::Write(w) => {
                let t = Instant::now();
                changed += w
                    .iter()
                    .filter(|&&u| match u {
                        GraphUpdate::Insert(a, b) => {
                            graph.ensure_vertex(a.max(b));
                            graph.insert_edge(a, b)
                        }
                        GraphUpdate::Remove(a, b) => graph.remove_edge(a, b),
                    })
                    .count();
                rebuilt = Some(EsdIndex::build_fast(&graph.to_graph()));
                update.push_us(t.elapsed());
            }
        }
        phase.tick();
    }

    let mut problems = Vec::new();
    let reference_suite = FamilySuite::rebuild(&DynamicGraph::from_graph(&g), EdgeOwnership::ALL);
    for (f, k, tau, top) in &answers {
        let want = match f {
            Family::Component => index.query(*k, *tau),
            _ => reference_suite.query(*f, *k, *tau),
        };
        if *top != want {
            problems.push(format!(
                "offline_search: {} ({k}, {tau}) differs from the reference",
                f.name()
            ));
        }
    }
    let writes = ops.iter().filter(|op| matches!(op, Op::Write(_))).count();
    if changed != writes {
        problems.push(format!(
            "offline_search: {changed} of {writes} updates changed the graph"
        ));
    }
    let reference = MaintainedIndex::new(&graph.to_graph());
    if let Some(rebuilt) = &rebuilt {
        for k in [10, 100, 500] {
            for tau in TAUS {
                if rebuilt.query(k, tau) != reference.query(k, tau) {
                    problems.push(format!(
                        "offline_search: rebuilt ({k}, {tau}) differs from MaintainedIndex::new"
                    ));
                }
            }
        }
    }
    drop((index, suite, rebuilt, reference, reference_suite));

    let mut metrics = common_metrics(&setup, &phase);
    metrics.extend(latency_metrics(&query, &family, &update));
    metrics.push(rss_metric());
    Outcome {
        attempted: ops.len() as u64,
        failed: 0,
        problems,
        metrics,
        fingerprint: fp.value(),
        phase_s: phase.elapsed().as_secs_f64(),
        graph: g,
        ops,
    }
}
