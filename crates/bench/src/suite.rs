//! The `esd bench` suites: timed runs of every kernel on bundled surrogate
//! datasets, reported as an [`esd-bench/v1`](crate::report::BENCH_SCHEMA)
//! JSON document.
//!
//! Each benchmark resets the telemetry registry, runs its closure `reps`
//! times with per-repetition wall timing ([`crate::time_stats`]), then
//! snapshots the registry — so the `stages`/`counters` arrays cover exactly
//! that benchmark's repetitions. When the harness was built without the
//! `telemetry` feature the arrays are simply empty and the report says
//! `telemetry_enabled: false`; wall times are always measured by the
//! harness itself and never depend on instrumentation.

use crate::report::{counters_json, stages_json, wall_json, BENCH_SCHEMA};
use crate::time_stats;
use esd_core::index::ParallelBuildReport;
use esd_core::maintain::{GraphUpdate, MutationBatch};
use esd_core::online::{online_topk, UpperBound};
use esd_core::{EsdIndex, Family, FamilySuite, MaintainedIndex};
use esd_datasets::churn::{churn_trace, ChurnEvent, ChurnMix};
use esd_datasets::{load, Scale};
use esd_graph::{Graph, VertexId};
use esd_serve::{Service, ServiceConfig, ShardConfig, ShardedService};
use esd_telemetry::json::Json;

/// Which benchmark suite to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// One tiny dataset, a handful of repetitions — seconds, CI-friendly.
    Smoke,
    /// All five Table I surrogates at tiny scale — a few minutes.
    Full,
}

impl Suite {
    /// The suite's name as stamped into the report (`"smoke"` / `"full"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Suite::Smoke => "smoke",
            Suite::Full => "full",
        }
    }

    /// Parses a suite name (case-insensitive). `None` on unknown names.
    #[must_use]
    pub fn parse(s: &str) -> Option<Suite> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Suite::Smoke),
            "full" => Some(Suite::Full),
            _ => None,
        }
    }

    fn datasets(self) -> Vec<(&'static str, Scale)> {
        match self {
            Suite::Smoke => vec![("Youtube", Scale::Tiny)],
            Suite::Full => esd_datasets::specs()
                .iter()
                .map(|spec| (spec.name, Scale::Tiny))
                .collect(),
        }
    }
}

/// Knobs for [`run`].
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Which suite to run.
    pub suite: Suite,
    /// Repetitions per benchmark (each timed individually).
    pub reps: usize,
    /// Worker threads for the parallel-build benchmark.
    pub threads: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            suite: Suite::Smoke,
            reps: 3,
            threads: 2,
        }
    }
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Bench => "bench",
    }
}

/// Runs one benchmark: reset registry → `reps` timed calls → snapshot.
/// Returns the benchmark record plus the raw snapshot (for extras like the
/// work-balance report that the caller appends).
fn bench(name: &str, dataset: &str, reps: usize, f: impl FnMut()) -> Vec<(&'static str, Json)> {
    esd_telemetry::reset();
    let stats = time_stats(reps, f);
    let snap = esd_telemetry::snapshot();
    vec![
        ("name", Json::str(name)),
        ("dataset", Json::str(dataset)),
        ("reps", Json::num_u64(reps as u64)),
        ("wall_ns", wall_json(&stats)),
        ("stages", stages_json(&snap)),
        ("counters", counters_json(&snap)),
    ]
}

fn u64s(v: &[u64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::num_u64(x)).collect())
}

fn work_balance_json(report: &ParallelBuildReport) -> Json {
    Json::obj(vec![
        ("threads", Json::num_u64(report.threads as u64)),
        ("cliques_per_worker", u64s(&report.cliques_per_worker)),
        ("ops_per_shard", u64s(&report.ops_per_shard)),
    ])
}

/// The benchmarks run for one dataset. Appends records to `out`.
fn run_dataset(out: &mut Vec<Json>, g: &Graph, dataset: &str, cfg: &SuiteConfig) {
    let reps = cfg.reps;

    out.push(Json::obj(bench("build_seq", dataset, reps, || {
        let _ = EsdIndex::build_fast(g);
    })));

    let mut last_report: Option<ParallelBuildReport> = None;
    let mut fields = bench("build_parallel", dataset, reps, || {
        let (_, report) = EsdIndex::build_parallel_with_report(g, cfg.threads);
        last_report = Some(report);
    });
    if let Some(report) = &last_report {
        fields.push(("work_balance", work_balance_json(report)));
    }
    out.push(Json::obj(fields));

    // Maintenance: remove a prefix of edges and re-insert them, so the
    // index round-trips back to its starting state every repetition.
    let mut maintained = MaintainedIndex::new(g);
    let churn: Vec<_> = g.edges().iter().take(16).copied().collect();
    let removes: Vec<GraphUpdate> = churn
        .iter()
        .map(|e| GraphUpdate::Remove(e.u, e.v))
        .collect();
    let inserts: Vec<GraphUpdate> = churn
        .iter()
        .map(|e| GraphUpdate::Insert(e.u, e.v))
        .collect();
    out.push(Json::obj(bench("maintain", dataset, reps, || {
        let stats = maintained.apply_batch(&removes);
        assert_eq!(stats.applied, churn.len(), "removes must all apply");
        let stats = maintained.apply_batch(&inserts);
        assert_eq!(stats.applied, churn.len(), "inserts must all apply");
    })));

    // Churn batches: a realistic mixed insert/remove trace applied as one
    // batch, then undone by the exact inverse batch (reversed order, flipped
    // ops) so every repetition starts from the same graph.
    let events = churn_trace(g, 64, ChurnMix::default(), 0x5EED);
    let flip = |e: &ChurnEvent, invert: bool| match (e, invert) {
        (ChurnEvent::Insert(u, v), false) | (ChurnEvent::Remove(u, v), true) => {
            GraphUpdate::Insert(*u, *v)
        }
        (ChurnEvent::Remove(u, v), false) | (ChurnEvent::Insert(u, v), true) => {
            GraphUpdate::Remove(*u, *v)
        }
    };
    let forward: Vec<GraphUpdate> = events.iter().map(|e| flip(e, false)).collect();
    let inverse: Vec<GraphUpdate> = events.iter().rev().map(|e| flip(e, true)).collect();

    let mut maintained = MaintainedIndex::new(g);
    out.push(Json::obj(bench("churn_batch_seq", dataset, reps, || {
        let _ = maintained.apply_batch(&forward);
        let _ = maintained.apply_batch(&inverse);
    })));

    let index = EsdIndex::build_fast(g);
    out.push(Json::obj(bench("query_topk", dataset, reps, || {
        let _ = index.query(100, 2);
    })));

    out.push(Json::obj(bench("online_topk", dataset, reps, || {
        let _ = online_topk(g, 10, 2, UpperBound::CommonNeighbor);
    })));

    // The family build: one 4-clique pass plus the profile kernel over its
    // ego edges (`build.profiles`), and the ranked runs.
    out.push(Json::obj(bench("family_build", dataset, reps, || {
        let _ = FamilySuite::new(g);
    })));

    // A two-shard fleet start: one construction pass, sliced into each
    // shard's index and family suite.
    let fleet = ShardConfig {
        shards: 2,
        per_shard: ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    };
    out.push(Json::obj(bench("fleet_start", dataset, reps, || {
        ShardedService::start(g, &fleet).shutdown();
    })));

    // Family queries: the per-edge profiles are built once outside the
    // timed region (their cost is `family_build`'s), then each
    // repetition ranks top-100 under every maintained family so the
    // `family.query` span and `family.queries` counter land in the report.
    let suite = FamilySuite::new(g);
    out.push(Json::obj(bench("family_topk", dataset, reps, || {
        for family in Family::MAINTAINED {
            let _ = suite.query(family, 100, 2);
        }
    })));

    // Served write windows: each repetition is one single-edge window
    // through an inline service — index apply, family apply and snapshot
    // publication — alternately removing and re-inserting an edge that
    // closes triangles, so the window has a real blast radius and the
    // graph returns to its start every second repetition.
    let edge = g
        .edges()
        .iter()
        .copied()
        .find(|e| !g.common_neighbors(e.u, e.v).is_empty())
        .expect("every bundled dataset has a triangle");
    let service = Service::start(
        g,
        &ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let mut present = true;
    out.push(Json::obj(bench("serve_window", dataset, reps, || {
        let update = if present {
            GraphUpdate::Remove(edge.u, edge.v)
        } else {
            GraphUpdate::Insert(edge.u, edge.v)
        };
        let outcome = handle
            .submit(MutationBatch::from(vec![update]))
            .expect("inline window applies");
        assert_eq!(outcome.applied, 1, "every window changes the graph");
        present = !present;
    })));
    service.shutdown();
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One sweep of a kernel over every hub pair — the unit of work each
/// `intersect_hub_*` repetition times.
fn sweep_kernel(
    pairs: &[(Vec<VertexId>, Vec<VertexId>)],
    scratch: &mut Vec<VertexId>,
    kernel: fn(&[VertexId], &[VertexId], &mut Vec<VertexId>),
) {
    for (a, b) in pairs {
        scratch.clear();
        kernel(a, b, scratch);
        std::hint::black_box(scratch.len());
    }
}

/// The intersection-kernel benchmarks on a synthetic high-degree "hub"
/// workload: pairs of ~4k-element pseudorandom neighbour lists sharing a
/// 32k-id span (balanced lengths, so the dispatcher picks merge; see
/// `docs/kernels.md`). Each repetition sweeps several distinct pairs so
/// branch predictors see fresh data on every call, as they do inside a
/// real build. The same sweep runs through each kernel directly and once
/// through the adaptive dispatcher, so a report shows the dispatch
/// overhead and what the other kernel would have cost.
fn run_kernels(out: &mut Vec<Json>, reps: usize) {
    use esd_graph::intersect;

    const SPAN: u32 = 32 * 1024;
    const PAIRS: u64 = 8;
    let members = |seed: u64| -> Vec<VertexId> {
        (0..SPAN)
            .filter(|&x| splitmix(seed ^ u64::from(x)) & 7 == 0)
            .collect()
    };
    let pairs: Vec<(Vec<VertexId>, Vec<VertexId>)> = (0..PAIRS)
        .map(|i| (members(2 * i + 1), members(2 * i + 2)))
        .collect();
    let mut scratch: Vec<VertexId> = Vec::new();
    type KernelFn = fn(&[VertexId], &[VertexId], &mut Vec<VertexId>);
    let kernels: [(&str, KernelFn); 3] = [
        ("intersect_hub_merge", intersect::intersect_merge),
        ("intersect_hub_gallop", intersect::intersect_gallop),
        ("intersect_hub_adaptive", intersect::intersect_into),
    ];
    for (name, kernel) in kernels {
        out.push(Json::obj(bench(name, "synthetic/hub", reps, || {
            sweep_kernel(&pairs, &mut scratch, kernel);
        })));
    }
}

/// Runs the configured suite and returns the `esd-bench/v1` report. The
/// output always passes [`crate::report::validate`].
#[must_use]
pub fn run(cfg: &SuiteConfig) -> Json {
    assert!(cfg.reps > 0, "reps must be at least 1");
    assert!(cfg.threads > 0, "threads must be at least 1");
    let mut benchmarks = Vec::new();
    for (name, scale) in cfg.suite.datasets() {
        let g = load(name, scale);
        let dataset = format!("{name}/{}", scale_label(scale));
        run_dataset(&mut benchmarks, &g, &dataset, cfg);
    }
    run_kernels(&mut benchmarks, cfg.reps);
    Json::obj(vec![
        ("schema", Json::str(BENCH_SCHEMA)),
        ("suite", Json::str(cfg.suite.name())),
        ("telemetry_enabled", Json::Bool(esd_telemetry::enabled())),
        (
            "host",
            Json::obj(vec![("threads", Json::num_u64(cfg.threads as u64))]),
        ),
        ("benchmarks", Json::Arr(benchmarks)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::validate;

    #[test]
    fn suite_names_round_trip() {
        for suite in [Suite::Smoke, Suite::Full] {
            assert_eq!(Suite::parse(suite.name()), Some(suite));
        }
        assert_eq!(Suite::parse("SMOKE"), Some(Suite::Smoke));
        assert_eq!(Suite::parse("bogus"), None);
    }

    #[test]
    fn smoke_suite_produces_a_valid_report() {
        let cfg = SuiteConfig {
            suite: Suite::Smoke,
            reps: 2,
            threads: 2,
        };
        let report = run(&cfg);
        assert_eq!(validate(&report), Vec::<String>::new());
        assert_eq!(
            report.get("telemetry_enabled").and_then(Json::as_bool),
            Some(esd_telemetry::enabled())
        );
        let benches = report.get("benchmarks").and_then(Json::as_arr).unwrap();
        let names: Vec<_> = benches
            .iter()
            .map(|b| b.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "build_seq",
                "build_parallel",
                "maintain",
                "churn_batch_seq",
                "query_topk",
                "online_topk",
                "family_build",
                "fleet_start",
                "family_topk",
                "serve_window",
                "intersect_hub_merge",
                "intersect_hub_gallop",
                "intersect_hub_adaptive"
            ]
        );
        // The parallel build always carries its work-balance report.
        let parallel = &benches[1];
        let wb = parallel.get("work_balance").expect("work balance");
        assert_eq!(wb.get("threads").and_then(Json::as_u64), Some(2));

        // With telemetry armed, the counters must reflect real kernel work;
        // without it, the arrays must be empty rather than fabricated.
        let seq = &benches[0];
        let counters = seq.get("counters").and_then(Json::as_arr).unwrap();
        if esd_telemetry::enabled() {
            assert!(
                counters
                    .iter()
                    .any(|c| c.get("name").and_then(Json::as_str) == Some("cliques.enumerated")),
                "sequential build must count cliques"
            );
        } else {
            assert!(counters.is_empty());
        }

        // Round-trip: render, parse, re-validate.
        let text = report.render_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(validate(&parsed), Vec::<String>::new());
    }
}
