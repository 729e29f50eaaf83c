//! Ground-truth tests for the telemetry counters.
//!
//! Every counter in the [`esd_telemetry::Metric`] catalogue has exactly one
//! owning call site; these tests pin each one to an independently
//! recomputed total — the 4-clique counter to the generic k-clique lister,
//! the build union counter to 6× the clique count, the parallel apply
//! counter to the sequential op count, the `H(c)` key-edit counters
//! (`maintain.treap_*`, a name kept from before the runs) to each other
//! across a remove/insert round trip, and the online counters to
//! the [`OnlineStats`] the search itself returns.
//!
//! The registry is process-global, so every test takes [`REGISTRY_LOCK`]
//! before touching it — without the lock, `reset()` in one test would
//! clobber another test's measurement window.

use esd::api::{ShardConfig, ShardedService};
use esd::core::maintain::GraphUpdate;
use esd::core::online::{online_topk_with_stats, UpperBound};
use esd::core::{EsdIndex, Family, FamilySuite, MaintainedIndex};
use esd::graph::{cliques, generators};
use esd::serve::ServiceConfig;
use esd::telemetry;
use std::sync::{Mutex, PoisonError};

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

/// Serialises registry access across tests without propagating poison: a
/// failed test must not cascade into every later one (the project-wide
/// lock-hygiene policy `cargo xtask analyze` enforces).
fn registry_guard() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// This test binary must be compiled with the registry armed (the root
/// crate's dev-dependencies turn the `telemetry` feature on); everything
/// below measures real deltas, which requires a live registry.
#[test]
fn registry_is_armed_for_integration_tests() {
    assert!(
        telemetry::enabled(),
        "root dev-dependencies must arm the telemetry feature"
    );
}

#[test]
fn clique_counter_matches_enumerator_ground_truth() {
    let _guard = registry_guard();
    let g = generators::clique_overlap(150, 110, 6, 7);
    // The generic k-clique lister is an independent path that does not
    // touch the clique counter.
    let mut expected = 0u64;
    cliques::list_k_cliques(&g, 4, |_| expected += 1);
    assert!(expected > 0);

    // Every consumer of the 4-clique kernel records exactly the cliques
    // it enumerated, in one counter with one owner.
    let counted = |run: &dyn Fn()| {
        telemetry::reset();
        run();
        telemetry::snapshot().counter("cliques.enumerated")
    };
    assert_eq!(
        counted(&|| assert_eq!(cliques::count_four_cliques(&g), expected)),
        expected
    );
    for threads in [1, 2, 3] {
        let run = || drop(EsdIndex::build_parallel_with_report(&g, threads));
        assert_eq!(
            counted(&run),
            expected,
            "build_parallel at {threads} threads"
        );
    }
    assert_eq!(
        counted(&|| drop(MaintainedIndex::new(&g))),
        expected,
        "MaintainedIndex::new"
    );
    // The families read their profiles off one pass too, and a fleet runs
    // one pass for all of its shards.
    assert_eq!(
        counted(&|| drop(FamilySuite::new(&g))),
        expected,
        "FamilySuite::new"
    );
    let fleet = ShardConfig {
        shards: 2,
        per_shard: ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    };
    assert_eq!(
        counted(&|| ShardedService::start(&g, &fleet).shutdown()),
        expected,
        "2-shard ShardedService::start"
    );

    telemetry::reset();
    let (_, stats) = EsdIndex::build_fast_with_stats(&g);
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("cliques.enumerated"), expected);
    assert_eq!(stats.four_cliques, expected);
    assert_eq!(snap.counter("build.union_ops"), expected * 6);
    assert_eq!(
        snap.counter("build.nbr_total"),
        stats.total_neighborhood as u64
    );
    // The sequential build records every constructed stage.
    for stage in [
        "graph.orient",
        "build.neighborhoods",
        "build.enumerate",
        "build.extract",
        "build.fill",
    ] {
        let s = snap
            .stage(stage)
            .unwrap_or_else(|| panic!("{stage} missing"));
        assert!(s.count >= 1 && s.total_ns > 0, "{stage} recorded");
    }
    // The index build computes no profiles; the family build does, and it
    // unions nothing.
    assert!(snap.stage("build.profiles").is_none());
    telemetry::reset();
    drop(FamilySuite::new(&g));
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("build.union_ops"), 0);
    for stage in [
        "graph.orient",
        "build.neighborhoods",
        "build.enumerate",
        "build.profiles",
    ] {
        let s = snap
            .stage(stage)
            .unwrap_or_else(|| panic!("{stage} missing"));
        assert!(s.count == 1 && s.total_ns > 0, "{stage} recorded once");
    }
}

#[test]
fn parallel_apply_counter_matches_sequential_union_ops() {
    let _guard = registry_guard();
    let g = generators::clique_overlap(140, 100, 5, 11);

    telemetry::reset();
    let (_, stats) = EsdIndex::build_fast_with_stats(&g);
    let seq_ops = telemetry::snapshot().counter("build.union_ops");
    assert_eq!(seq_ops, stats.union_ops);

    telemetry::reset();
    let (_, report) = EsdIndex::build_parallel_with_report(&g, 3);
    let snap = telemetry::snapshot();
    // Same graph, same cliques: the sharded apply performs exactly the
    // sequential op count, just partitioned.
    assert_eq!(snap.counter("pbuild.ops_applied"), seq_ops);
    assert_eq!(report.ops_per_shard.iter().sum::<u64>(), seq_ops);
    assert_eq!(snap.counter("cliques.enumerated"), stats.four_cliques);
    for stage in [
        "pbuild.neighborhoods",
        "pbuild.enumerate",
        "pbuild.apply",
        "pbuild.extract",
        "pbuild.fill",
    ] {
        assert!(snap.stage(stage).is_some(), "{stage} missing");
    }
    // The parallel build must not leak into the sequential span buckets.
    for stage in ["build.neighborhoods", "build.enumerate", "build.fill"] {
        assert!(snap.stage(stage).is_none(), "{stage} must stay sequential");
    }
}

#[test]
fn maintenance_counters_balance_over_a_round_trip() {
    let _guard = registry_guard();
    let g = generators::clique_overlap(120, 90, 5, 3);
    let mut index = MaintainedIndex::new(&g);
    let churn: Vec<_> = g.edges().iter().take(12).copied().collect();

    telemetry::reset();
    for e in &churn {
        assert!(index.remove_edge(e.u, e.v));
    }
    for e in &churn {
        assert!(index.insert_edge(e.u, e.v));
    }
    let snap = telemetry::snapshot();

    // The index returned to its starting state, so every `H(c)` key that
    // was retracted was restored: inserts == removes, and both are nonzero
    // on a graph this dense.
    let inserts = snap.counter("maintain.treap_inserts");
    let removes = snap.counter("maintain.treap_removes");
    assert!(inserts > 0, "round trip must touch the H(c) runs");
    assert_eq!(inserts, removes, "round trip must balance H(c) key edits");
    assert!(snap.counter("maintain.affected_edges") > 0);
    assert!(snap.counter("maintain.union_ops") > 0);
    assert_eq!(
        snap.stage("maintain.remove").unwrap().count,
        churn.len() as u64
    );
    assert_eq!(
        snap.stage("maintain.insert").unwrap().count,
        churn.len() as u64
    );

    // The batch path measures the same work under the batch span.
    telemetry::reset();
    let removes_batch: Vec<_> = churn
        .iter()
        .map(|e| GraphUpdate::Remove(e.u, e.v))
        .collect();
    let inserts_batch: Vec<_> = churn
        .iter()
        .map(|e| GraphUpdate::Insert(e.u, e.v))
        .collect();
    assert_eq!(index.apply_batch(&removes_batch).applied, churn.len());
    assert_eq!(index.apply_batch(&inserts_batch).applied, churn.len());
    let snap = telemetry::snapshot();
    assert_eq!(snap.stage("maintain.batch").unwrap().count, 2);
    assert_eq!(
        snap.counter("maintain.treap_inserts"),
        snap.counter("maintain.treap_removes")
    );
}

#[test]
fn pipeline_counters_match_its_own_report() {
    let _guard = registry_guard();
    let g = generators::clique_overlap(120, 90, 5, 3);
    let mut index = MaintainedIndex::new(&g);
    let batch: Vec<_> = g
        .edges()
        .iter()
        .take(12)
        .map(|e| GraphUpdate::Remove(e.u, e.v))
        .collect();

    telemetry::reset();
    let outcome = index.apply_batch_parallel(&batch, 2);
    let snap = telemetry::snapshot();

    assert_eq!(outcome.stats.applied, batch.len());
    // Each pipeline counter is pinned to the report the same run returned.
    assert_eq!(snap.counter("pbatch.groups"), outcome.report.groups as u64);
    assert_eq!(
        snap.counter("pbatch.recomputed_edges"),
        outcome.report.recomputed_edges as u64
    );
    assert_eq!(
        snap.counter("pbatch.union_ops"),
        outcome.report.union_ops_per_worker.iter().sum::<u64>()
    );
    // Exactly one pass through each phase, under the shared batch span.
    for stage in ["pbatch.plan", "pbatch.recompute", "pbatch.commit"] {
        assert_eq!(snap.stage(stage).unwrap().count, 1, "{stage}");
    }
    assert_eq!(snap.stage("maintain.batch").unwrap().count, 1);
}

#[test]
fn family_counters_match_the_suite_reports() {
    let _guard = registry_guard();
    let g = generators::clique_overlap(120, 90, 5, 3);
    let mut index = MaintainedIndex::new(&g);
    let mut suite = FamilySuite::new(&g);
    let cut: Vec<GraphUpdate> = g
        .edges()
        .iter()
        .take(16)
        .map(|e| GraphUpdate::Remove(e.u, e.v))
        .collect();
    let back: Vec<GraphUpdate> = g
        .edges()
        .iter()
        .take(16)
        .map(|e| GraphUpdate::Insert(e.u, e.v))
        .collect();
    // Single-edge windows first, then the same edits as two batches.
    let windows: Vec<Vec<GraphUpdate>> = cut
        .iter()
        .chain(&back)
        .map(|&update| vec![update])
        .chain([cut.clone(), back.clone()])
        .collect();

    telemetry::reset();
    let (mut recomputed, mut reranked) = (0u64, 0u64);
    for window in &windows {
        let before = telemetry::snapshot();
        index.apply_batch(window);
        let mid = telemetry::snapshot();
        let report = suite.apply(index.graph(), window, 2);
        let after = telemetry::snapshot();
        // The truss runs share the component lists' type, not their
        // counters: a family window edits no `H(c)` key.
        for counter in ["maintain.treap_inserts", "maintain.treap_removes"] {
            assert_eq!(
                after.counter(counter) - mid.counter(counter),
                0,
                "a family window moved {counter}"
            );
        }
        assert!(report.recomputed <= report.affected);
        assert!(report.reranked <= report.affected);
        if let [update] = window.as_slice() {
            // One radius, two owners: the family's affected set is the
            // component index's `Ĝ_{N(uv)}`, and it recomputes every edge
            // of it but a removed one.
            let radius =
                mid.counter("maintain.affected_edges") - before.counter("maintain.affected_edges");
            assert_eq!(report.affected as u64, radius, "{update:?}");
            let gone = u64::from(!update.is_insert());
            assert_eq!(report.recomputed as u64, radius - gone, "{update:?}");
        }
        recomputed += report.recomputed as u64;
        reranked += report.reranked as u64;
    }
    let snap = telemetry::snapshot();
    // The counters are pinned to the reports the same windows returned, and
    // each window is one `family.apply` span.
    assert!(recomputed > 0, "churn this dense must recompute profiles");
    assert_eq!(snap.counter("family.recomputed_edges"), recomputed);
    assert!(reranked > 0, "churn this dense must move a ranking");
    // A re-rank is a deleted profile (one per removal here) or a recomputed
    // one that changed, so a removal window can re-rank more than it
    // recomputes; over this churn some recomputed profile must come back
    // unchanged and skip its re-rank.
    let removals = windows.iter().flatten().filter(|u| !u.is_insert()).count() as u64;
    assert!(
        reranked < recomputed + removals,
        "{reranked} re-ranked, {recomputed} recomputed, {removals} removed: nothing skipped"
    );
    assert_eq!(snap.counter("family.reranked_edges"), reranked);
    assert_eq!(
        snap.stage("family.apply").unwrap().count,
        windows.len() as u64
    );

    telemetry::reset();
    for family in Family::MAINTAINED {
        let _ = suite.query(family, 10, 2);
    }
    let snap = telemetry::snapshot();
    assert_eq!(
        snap.counter("family.queries"),
        Family::MAINTAINED.len() as u64
    );
    assert_eq!(
        snap.stage("family.query").unwrap().count,
        Family::MAINTAINED.len() as u64
    );
    // Queries read the suite; they must not move the apply-side counters.
    assert_eq!(snap.counter("family.recomputed_edges"), 0);
    assert_eq!(snap.counter("family.reranked_edges"), 0);
}

#[test]
fn online_counters_equal_the_search_stats() {
    let _guard = registry_guard();
    let g = generators::erdos_renyi(80, 0.15, 5);

    telemetry::reset();
    let (_, stats) = online_topk_with_stats(&g, 12, 2, UpperBound::CommonNeighbor);
    let snap = telemetry::snapshot();
    assert_eq!(
        snap.counter("online.exact_evals"),
        stats.exact_evaluations as u64
    );
    assert_eq!(snap.counter("online.heap_pops"), stats.pops as u64);
    assert_eq!(snap.counter("online.enqueued"), stats.enqueued as u64);
    let span = snap.stage("online.topk").expect("online span");
    assert_eq!(span.count, 1);
    let bound = snap.stage("online.bound").expect("bound-pass span");
    assert_eq!(bound.count, 1, "one bound pass per search");
}

#[test]
fn intersect_dispatch_counters_sum_to_the_call_count() {
    let _guard = registry_guard();
    // Skewed degrees plus dense overlap groups, so merge and gallop each
    // have realistic inputs to claim.
    let g = generators::clique_overlap(150, 110, 6, 7);

    telemetry::reset();
    let mut calls = 0u64;
    for e in g.edges() {
        // Every edge endpoint has degree >= 1, so no call takes the
        // trivially-empty early return: each one dispatches exactly once.
        let _ = g.common_neighbor_count(e.u, e.v);
        calls += 1;
    }
    let snap = telemetry::snapshot();
    let dispatched = snap.counter("intersect.merge") + snap.counter("intersect.gallop");
    assert!(calls > 0, "generator produced an empty graph");
    assert_eq!(
        dispatched, calls,
        "the two intersect.* counters partition the adaptive dispatches"
    );
}

#[test]
fn query_spans_count_queries_without_touching_counters() {
    let _guard = registry_guard();
    let g = generators::clique_overlap(100, 80, 5, 9);
    let index = EsdIndex::build_fast(&g);

    telemetry::reset();
    for k in [1, 5, 25] {
        let _ = index.query(k, 2);
    }
    let snap = telemetry::snapshot();
    assert_eq!(snap.stage("query.topk").unwrap().count, 3);
    // Queries read the index; they must not move any build/maintain counter.
    assert!(
        snap.counters.is_empty(),
        "queries own no counters: {snap:?}"
    );

    // Windowing: a delta across two more queries counts exactly those two.
    let before = telemetry::snapshot();
    let _ = index.query(10, 2);
    let _ = index.query(10, 3);
    let delta = telemetry::snapshot().delta_since(&before);
    assert_eq!(delta.stage("query.topk").unwrap().count, 2);
}
