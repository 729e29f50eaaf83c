//! Differential agreement harness for the query-family layer.
//!
//! The [`esd::core::family`] module maintains three diversity measures
//! beside the paper's component-based score — truss-based,
//! parameter-free, and ego-betweenness — behind one `QueryRequest`. Each
//! family has two independent implementations:
//!
//! * the **maintained kernel** ([`FamilySuite`]): one shared ego-network
//!   pass per edge, updated incrementally per batch window; and
//! * the **recompute oracle** ([`esd::core::family::oracle`]): full
//!   subgraph materialisation through the generic graph algorithms
//!   (bucket-peeling truss decomposition, Brandes betweenness, the static
//!   component machinery).
//!
//! This suite is the evidence the kernels compute the definitions and not
//! merely themselves:
//!
//! 1. rebuilt suites match the oracles edge-for-edge on every surrogate;
//! 2. incrementally maintained state equals a from-scratch rebuild after
//!    every seeded churn window;
//! 3. the cross-family invariants hold (truss ≤ component at every τ;
//!    parameter-free == component at τ*(e));
//! 4. a sharded fleet answers every family query identically to the
//!    oracle at S ∈ {1, 2, 4}; and
//! 5. requests that never mention a family are byte-identical — in
//!    results and on the wire — to the pre-family protocol.
//!
//! Compiled with `strict-invariants` armed (root dev-dependencies), so
//! the component index runs its structural audits under all of it.

use esd::api::{EngineHandle, GraphUpdate, MutationBatch, QueryRequest};
use esd::core::family::{oracle, tau_star};
use esd::core::score::edge_score;
use esd::core::{EdgeOwnership, Family, FamilySuite, MaintainedIndex};
use esd::datasets::churn::{churn_trace, ChurnEvent, ChurnMix};
use esd::datasets::{load, specs, Scale};
use esd::graph::{generators, Graph};
use esd_serve::{ServiceConfig, ShardConfig, ShardedService};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

const K_GRID: [usize; 3] = [1, 10, 100];
const TAU_GRID: [u32; 3] = [1, 2, 3];

fn as_update(e: &ChurnEvent) -> GraphUpdate {
    match *e {
        ChurnEvent::Insert(u, v) => GraphUpdate::Insert(u, v),
        ChurnEvent::Remove(u, v) => GraphUpdate::Remove(u, v),
    }
}

/// Asserts `suite` answers every (family, k, τ) cell exactly like the
/// recompute oracles over the static graph `g`. The oracle scores every
/// edge regardless of `k`, so each (family, τ) runs one oracle pass at
/// the widest `k` and the narrower cells are compared against its
/// prefixes (sound because the ranking is a strict total order).
fn assert_suite_matches_oracle(suite: &FamilySuite, g: &Graph, what: &str) {
    let k_max = *K_GRID.iter().max().unwrap();
    for family in Family::MAINTAINED {
        let taus: &[u32] = if family.uses_tau() { &TAU_GRID } else { &[1] };
        for &tau in taus {
            let reference = oracle::topk(g, family, k_max, tau);
            for k in K_GRID {
                assert_eq!(
                    suite.query(family, k, tau),
                    reference[..k.min(reference.len())],
                    "{what}: {family} query(k={k}, tau={tau}) diverged from oracle"
                );
            }
        }
        if !family.uses_tau() {
            // τ must be inert for the τ-free families.
            for tau in TAU_GRID {
                assert_eq!(
                    suite.query(family, k_max, tau),
                    suite.query(family, k_max, 1),
                    "{what}: {family} must ignore tau"
                );
            }
        }
    }
}

/// Suites rebuilt from scratch agree with the independent oracles on
/// every Table I surrogate — the base case of the differential argument.
#[test]
fn rebuilt_suites_match_oracles_on_all_surrogates() {
    for spec in specs() {
        let g = load(spec.name, Scale::Tiny);
        let suite = FamilySuite::new(&g);
        assert_eq!(
            suite.len(),
            g.num_edges(),
            "{}: one profile per edge",
            spec.name
        );
        assert_suite_matches_oracle(&suite, &g, spec.name);
    }
}

/// Cross-family invariants, checked per edge over the whole corpus:
///
/// * **truss ≤ component** at every τ — a component's 3-truss core is a
///   subset of the component, so it can only stop counting sooner;
/// * **parameter-free == component at τ*(e)** — the parameter-free score
///   is *defined* as the component score at the edge-local threshold, and
///   the maintained kernel must reproduce that through its own path.
#[test]
fn cross_family_invariants_hold_on_all_surrogates() {
    for spec in specs() {
        let g = load(spec.name, Scale::Tiny);
        let suite = FamilySuite::new(&g);
        let all = g.num_edges();
        for tau in [1, 2, 3, 5] {
            let comp: std::collections::HashMap<u64, u32> = g
                .edges()
                .iter()
                .map(|e| (e.key(), edge_score(&g, e.u, e.v, tau)))
                .collect();
            for s in suite.query(Family::Truss, all, tau) {
                let c = comp.get(&s.edge.key()).copied().unwrap_or(0);
                assert!(
                    s.score <= c,
                    "{}: truss score {} > component score {c} on {:?} at tau={tau}",
                    spec.name,
                    s.score,
                    s.edge
                );
            }
        }
        for s in suite.query(Family::ParameterFree, all, 1) {
            let h = g.common_neighbor_count(s.edge.u, s.edge.v);
            assert_eq!(
                s.score,
                edge_score(&g, s.edge.u, s.edge.v, tau_star(h)),
                "{}: parameter-free != component at tau* on {:?} (h={h})",
                spec.name,
                s.edge
            );
        }
    }
}

/// Incrementally maintained family state equals a from-scratch rebuild
/// after every window of realistic churn, on real surrogate topology — and
/// the final state still matches the oracles.
#[test]
fn maintained_suites_match_rebuild_under_churn() {
    for name in ["Youtube", "DBLP"] {
        let g = load(name, Scale::Tiny);
        let mut index = MaintainedIndex::new(&g);
        let mut suite = FamilySuite::new(&g);
        let events = churn_trace(&g, 90, ChurnMix::default(), 0xFA31);
        for (round, chunk) in events.chunks(30).enumerate() {
            let batch: Vec<GraphUpdate> = chunk.iter().map(as_update).collect();
            index.apply_batch(&batch);
            let report = suite.apply_window(index.graph(), &batch);
            assert!(
                report.recomputed <= report.affected,
                "{name} round {round}: recomputed > affected"
            );
            assert_eq!(
                suite,
                FamilySuite::rebuild(index.graph(), EdgeOwnership::ALL),
                "{name} round {round}: maintained family state diverged from rebuild"
            );
        }
        index.check_consistency();
        assert_suite_matches_oracle(&suite, &index.graph().to_graph(), name);
    }
}

/// Per-shard suites over the ownership slices merge back to the full
/// ranking: the sharded construction loses nothing at any width.
#[test]
fn owned_suites_partition_the_ranking() {
    let g = generators::clique_overlap(140, 100, 5, 77);
    let full = FamilySuite::new(&g);
    for shards in [2u32, 4] {
        let parts: Vec<FamilySuite> = (0..shards)
            .map(|i| FamilySuite::new_owned(&g, EdgeOwnership::of(i, shards)))
            .collect();
        assert_eq!(
            parts.iter().map(FamilySuite::len).sum::<usize>(),
            full.len(),
            "S={shards}: ownership slices must partition the edge set"
        );
        for family in Family::MAINTAINED {
            for tau in TAU_GRID {
                let mut merged: Vec<_> = parts
                    .iter()
                    .flat_map(|p| p.query(family, g.num_edges(), tau))
                    .collect();
                merged.sort_by(esd::core::ScoredEdge::ranking_cmp);
                assert_eq!(
                    merged,
                    full.query(family, g.num_edges(), tau),
                    "S={shards}: {family} merge diverged at tau={tau}"
                );
            }
        }
    }
}

/// The acceptance grid: a sharded fleet at S ∈ {1, 2, 4} answers every
/// family query — after every churn batch — exactly like the recompute
/// oracle over the served graph.
#[test]
fn sharded_family_queries_match_oracle_at_every_shard_count() {
    let g = generators::clique_overlap(120, 90, 5, 41);
    let events = churn_trace(&g, 60, ChurnMix::default(), 0xFA32);
    let batches: Vec<Vec<GraphUpdate>> = events
        .chunks(20)
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
        for (round, ops) in batches.iter().enumerate() {
            truth.apply_batch(ops);
            handle
                .submit(MutationBatch::from_raw(ops.clone()))
                .unwrap_or_else(|e| panic!("S={shards} round {round}: submit failed: {e}"));
            let snapshot = truth.graph().to_graph();
            for family in Family::ALL {
                for tau in [1u32, 2] {
                    // One oracle pass at the widest k; narrower ks are its
                    // prefixes because the ranking is a strict total order.
                    let reference = oracle::topk(&snapshot, family, 400, tau);
                    for k in K_GRID {
                        let resp = handle
                            .execute(QueryRequest::new(k, tau).with_family(family))
                            .unwrap_or_else(|e| {
                                panic!("S={shards} round {round}: {family}(k={k}, tau={tau}): {e}")
                            });
                        assert_eq!(resp.family, family, "S={shards}: response family echo");
                        assert_eq!(
                            *resp.results,
                            reference[..k.min(reference.len())],
                            "S={shards} round {round}: {family} query(k={k}, tau={tau}) diverged"
                        );
                    }
                }
            }
        }
        truth.check_consistency();
        service.shutdown();
    }
}

/// Regression pin for the default path: a `QueryRequest` that never
/// mentions a family is the component request — same value, same results,
/// and the wire protocol emits byte-identical text to the pre-family
/// protocol (no `family` annotation anywhere).
#[test]
fn family_unspecified_requests_are_byte_identical_to_component() {
    assert_eq!(Family::default(), Family::Component);
    assert_eq!(
        QueryRequest::new(7, 2),
        QueryRequest::new(7, 2).with_family(Family::Component),
        "the default request value must be the component request"
    );

    let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    let service = esd_serve::Service::start(
        &g,
        &ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    let ids = std::sync::Arc::new(esd_serve::IdMap::from_original(vec![
        100, 101, 102, 103, 104,
    ]));
    let session = esd_serve::Session::new(service.handle(), std::sync::Arc::clone(&ids));

    // The exact pre-family wire strings, pinned byte for byte.
    let respond = |line: &str| match session.handle_line(line) {
        esd_serve::LineOutcome::Respond(text) => text,
        other => panic!("{line:?}: expected a response, got {other:?}"),
    };
    assert_eq!(respond("hello"), "# esd-protocol/2 shards=1\n");
    let text = respond("? 10 2");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[..6],
        [
            "   1  (100, 101)  score 1",
            "   2  (100, 102)  score 1",
            "   3  (100, 103)  score 1",
            "   4  (101, 102)  score 1",
            "   5  (101, 103)  score 1",
            "   6  (102, 103)  score 1",
        ],
        "component result lines must be unchanged"
    );
    assert!(lines[6].starts_with("# 6 result(s) in "), "{text}");
    assert!(lines[6].ends_with("epoch 0)"), "{text}");
    assert!(
        !text.contains("family"),
        "default wire text must not mention families: {text}"
    );

    // And the executed response matches the engine's component ranking.
    let resp = service.handle().execute(QueryRequest::new(10, 2)).unwrap();
    assert_eq!(resp.family, Family::Component);
    assert_eq!(*resp.results, service.handle().snapshot().query(10, 2));
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Property suite: arbitrary insert/remove sequences.
// ---------------------------------------------------------------------------

/// Random raw updates over a bounded id range — dense enough to produce
/// duplicate inserts, missing removals, self-loops, and ids beyond the
/// current vertex count (mid-batch growth).
fn random_batch(rng: &mut StdRng, n: u32, len: usize) -> Vec<GraphUpdate> {
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if rng.gen_bool(0.6) {
                GraphUpdate::Insert(u, v)
            } else {
                GraphUpdate::Remove(u, v)
            }
        })
        .collect()
}

fn family_maintenance_case(seed: u64) {
    let g = generators::clique_overlap(80, 60, 4, seed ^ 0xFA);
    let mut index = MaintainedIndex::new(&g);
    let mut suite = FamilySuite::new(&g);
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..4 {
        let batch = random_batch(&mut rng, 90, 25);
        index.apply_batch(&batch);
        suite.apply_window(index.graph(), &batch);
        assert_eq!(
            suite,
            FamilySuite::rebuild(index.graph(), EdgeOwnership::ALL),
            "seed={seed:#x} round={round}: maintained state diverged"
        );
    }
    index.check_consistency();
    assert_suite_matches_oracle(
        &suite,
        &index.graph().to_graph(),
        &format!("seed={seed:#x}"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After arbitrary insert/remove sequences, batch-maintained family
    /// state equals a full recompute — and the final answers still match
    /// the independent oracles.
    #[test]
    fn family_maintenance_matches_full_recompute(seed in any::<u64>()) {
        family_maintenance_case(seed);
    }
}
