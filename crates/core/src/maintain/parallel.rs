//! The parallel batch-maintenance pipeline: plan → recompute → commit.
//!
//! [`MaintainedIndex::apply_batch_parallel`] processes an update batch in
//! three phases (DESIGN.md §12):
//!
//! 1. **Plan** (sequential, `pbatch.plan`): walk the batch in order against
//!    the evolving graph — classifying each update exactly as
//!    `apply_batch` would and mutating *only* the adjacency structure —
//!    while computing each applied update's blast radius (the edge set of
//!    `Ĝ_{N(uv)}`, Observations 2–3). Applied updates are partitioned into
//!    conflict-free groups: an update joins every group its blast radius
//!    overlaps (merging them into one when there are several), or starts a
//!    fresh group when it overlaps none. Groups therefore have pairwise
//!    disjoint affected-edge sets — no two groups ever touch the same
//!    forest, which is what licenses phase 2's parallelism. Each affected
//!    edge key is *owned* by the first update that touches it, so every
//!    key is recomputed exactly once.
//! 2. **Recompute** (parallel, `pbatch.recompute`): `std::thread::scope`
//!    workers (the workspace is offline, so the same mechanism as the
//!    parallel index build stands in for rayon) rebuild each owned edge's
//!    forest from the *final* graph via the same `compute_forest` kernel
//!    the sequential rebuild path uses. This is a pure function of the
//!    post-batch adjacency structure, so groups can proceed independently
//!    in any order. A window with fewer than `INLINE_RECOMPUTE` (128)
//!    edges to recompute runs on the calling thread, since a spawned
//!    worker costs more than such a window's recompute.
//! 3. **Commit** (sequential, `pbatch.commit`): retract every affected
//!    edge's list entries against the *pre-batch* forests in first-discovery
//!    order, install the recomputed forests, and restore entries — the
//!    identical retract/restore bookkeeping as the sequential path.
//!
//! The result is state-identical to sequential `apply_batch`: the per-edge
//! forests invariantly equal the connected-component partition of the
//! edge's ego-network in the current graph (this is exactly what
//! `validate_deep` asserts), so recomputing from the final graph lands on
//! the same partitions the sequential path reaches incrementally, and with
//! them the same list keys. Only DSU-internal parent pointers and where the
//! list runs' page boundaries fall may differ, and neither is observable:
//! queries and run equality read the keys alone.

use super::batch::{BatchStats, UpdateDisposition};
use super::{compute_forest, EdgeDsu, GraphUpdate, MaintainedIndex};
use esd_graph::Edge;
use std::collections::HashSet;

/// Work-balance report from one [`MaintainedIndex::apply_batch_parallel`]
/// call — the pipeline analogue of
/// [`ParallelBuildReport`](crate::index::ParallelBuildReport), surfaced by
/// `esd bench` as the churn benchmark's `work_balance` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// Worker threads used by the recompute phase: `0` when no owned
    /// edge needed a recompute, `1` when the window was small enough to
    /// recompute on the calling thread.
    pub threads: usize,
    /// Conflict-free groups formed by the planner.
    pub groups: usize,
    /// Distinct edges whose forests were recomputed (Σ of the per-worker
    /// vector).
    pub recomputed_edges: u64,
    /// Edges recomputed by each worker.
    pub recomputed_per_worker: Vec<u64>,
    /// Union operations performed by each worker.
    pub union_ops_per_worker: Vec<u64>,
}

/// Everything one pipeline run produces: the roll-up, the per-update
/// dispositions (index-aligned with the input batch), and the work-balance
/// report.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Applied/noop/rejected totals, identical to what `apply_batch` would
    /// have returned for the same batch.
    pub stats: BatchStats,
    /// One disposition per input update, in input order.
    pub dispositions: Vec<UpdateDisposition>,
    /// Plan/recompute balance numbers.
    pub report: PipelineReport,
}

/// Phase-1 output: dispositions plus the conflict-group structure.
struct BatchPlan {
    dispositions: Vec<UpdateDisposition>,
    /// Affected edge keys in first-discovery order — the retraction (and
    /// restoration) order, identical to the sequential path's.
    order: Vec<u64>,
    /// Keys owned by each conflict-free group (ownership = first group to
    /// touch the key). Concatenated, these are a permutation of `order`.
    owned: Vec<Vec<u64>>,
}

impl MaintainedIndex {
    /// Applies `updates` through the three-phase pipeline using up to
    /// `threads` recompute workers. State-identical to
    /// [`apply_batch`](MaintainedIndex::apply_batch) — same dispositions,
    /// same `H(c)` lists, same component partitions — but the dominant
    /// per-edge forest recomputation runs in parallel across conflict-free
    /// groups. `threads == 1`, or a window with fewer than 128 edges to
    /// recompute, runs the recompute on the calling thread (still
    /// phase-split).
    pub fn apply_batch_parallel(
        &mut self,
        updates: &[GraphUpdate],
        threads: usize,
    ) -> PipelineOutcome {
        let threads = threads.max(1);
        let _span = esd_telemetry::span(esd_telemetry::Stage::MaintainBatch);

        let plan = {
            let _plan_span = esd_telemetry::span(esd_telemetry::Stage::PbatchPlan);
            self.plan_batch(updates)
        };

        let (recomputed, per_worker, union_ops_per_worker) = {
            let _rc_span = esd_telemetry::span(esd_telemetry::Stage::PbatchRecompute);
            self.recompute_groups(&plan.owned, threads)
        };

        {
            let _commit_span = esd_telemetry::span(esd_telemetry::Stage::PbatchCommit);
            self.retract_entries(&plan.order);
            for (key, forest) in recomputed {
                match forest {
                    Some(dsu) => {
                        self.forests.insert(key, dsu);
                    }
                    None => {
                        self.forests.remove(key);
                    }
                }
            }
            self.restore_entries(&plan.order);
        }

        let union_ops: u64 = union_ops_per_worker.iter().sum();
        let recomputed_edges: u64 = plan.owned.iter().map(|g| g.len() as u64).sum();
        esd_telemetry::add(
            esd_telemetry::Metric::MaintainAffected,
            plan.order.len() as u64,
        );
        esd_telemetry::add(esd_telemetry::Metric::MaintainUnionOps, union_ops);
        esd_telemetry::add(esd_telemetry::Metric::PbatchGroups, plan.owned.len() as u64);
        esd_telemetry::add(
            esd_telemetry::Metric::PbatchRecomputedEdges,
            recomputed_edges,
        );
        esd_telemetry::add(esd_telemetry::Metric::PbatchUnionOps, union_ops);
        self.strict_audit();

        PipelineOutcome {
            stats: BatchStats::from_dispositions(&plan.dispositions),
            dispositions: plan.dispositions,
            report: PipelineReport {
                // The recompute phase never spawns more workers than there
                // are owned keys, so report what actually ran.
                threads: per_worker.len(),
                groups: plan.owned.len(),
                recomputed_edges,
                recomputed_per_worker: per_worker,
                union_ops_per_worker,
            },
        }
    }

    /// Phase 1: classify every update against the evolving graph (mutating
    /// only the adjacency structure — forests and lists stay pre-batch) and
    /// partition applied updates into conflict-free groups.
    fn plan_batch(&mut self, updates: &[GraphUpdate]) -> BatchPlan {
        let mut dispositions = Vec::with_capacity(updates.len());
        let mut seen: HashSet<u64> = HashSet::new();
        let mut order: Vec<u64> = Vec::new();
        // Per-group accumulated affected sets (for disjointness tests) and
        // owned keys (for recompute assignment).
        let mut group_keys: Vec<HashSet<u64>> = Vec::new();
        let mut owned: Vec<Vec<u64>> = Vec::new();
        for &update in updates {
            let disposition = self.classify(update);
            dispositions.push(disposition);
            if disposition != UpdateDisposition::Applied {
                continue;
            }
            let (u, v) = update.endpoints();
            let nuv = self.g.common_neighbors(u, v);
            let affected = super::affected_edges(&self.g, u, v, &nuv);
            // Join every group this blast radius overlaps; overlapping
            // groups merge into one, so groups stay pairwise disjoint.
            let hits: Vec<usize> = group_keys
                .iter()
                .enumerate()
                .filter(|(_, keys)| affected.iter().any(|k| keys.contains(k)))
                .map(|(i, _)| i)
                .collect();
            let gi = if let Some(&first) = hits.first() {
                for &h in hits.iter().skip(1).rev() {
                    let keys = group_keys.remove(h);
                    group_keys[first].extend(keys);
                    let own = owned.remove(h);
                    owned[first].extend(own);
                }
                first
            } else {
                group_keys.push(HashSet::new());
                owned.push(Vec::new());
                group_keys.len() - 1
            };
            for &key in &affected {
                group_keys[gi].insert(key);
                if seen.insert(key) {
                    order.push(key);
                    // Only edges this index owns are recomputed; the rest
                    // stay in `order` for the (self-skipping) retract and
                    // restore bookkeeping but belong to another shard.
                    if self.ownership.owns_key(key) {
                        owned[gi].push(key);
                    }
                }
            }
            match update {
                GraphUpdate::Insert(..) => self.g.insert_edge(u, v),
                GraphUpdate::Remove(..) => self.g.remove_edge(u, v),
            };
        }
        BatchPlan {
            dispositions,
            order,
            owned,
        }
    }

    /// Phase 2: recompute every owned key's forest from the final graph.
    /// Groups are assigned to workers greedily (largest first onto the
    /// least-loaded worker); each worker reads the shared graph immutably.
    #[allow(
        clippy::type_complexity,
        reason = "the three-part return is consumed once by apply_batch_parallel; \
                  naming a struct for it would only add indirection"
    )]
    fn recompute_groups(
        &self,
        owned: &[Vec<u64>],
        threads: usize,
    ) -> (Vec<(u64, Option<EdgeDsu>)>, Vec<u64>, Vec<u64>) {
        let total: usize = owned.iter().map(Vec::len).sum();
        if total == 0 {
            // No owned keys → no workers: the report must show zero
            // threads for zero work, and there is nothing to spawn for.
            return (Vec::new(), Vec::new(), Vec::new());
        }
        let threads = if total < super::INLINE_RECOMPUTE {
            1
        } else {
            threads.min(total)
        };

        // Greedy LPT assignment of groups to workers.
        let mut group_order: Vec<usize> = (0..owned.len()).collect();
        group_order.sort_by_key(|&gi| std::cmp::Reverse(owned[gi].len()));
        let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); threads];
        let mut load = vec![0usize; threads];
        for gi in group_order {
            let w = (0..threads).min_by_key(|&w| load[w]).expect("threads >= 1");
            assignment[w].push(gi);
            load[w] += owned[gi].len();
        }

        let g = &self.g;
        let recompute = move |groups: &[usize]| {
            let mut out = Vec::new();
            let mut union_ops = 0u64;
            for &gi in groups {
                for &key in &owned[gi] {
                    let (forest, ops) = compute_forest(g, Edge::from_key(key));
                    union_ops += ops;
                    out.push((key, forest));
                }
            }
            (out, union_ops)
        };
        // A small window runs on the calling thread: spawning a worker
        // costs more than the recompute it would take over.
        let outputs: Vec<(Vec<(u64, Option<EdgeDsu>)>, u64)> = if threads == 1 {
            vec![recompute(&assignment[0])]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = assignment
                    .iter()
                    .map(|groups| scope.spawn(move || recompute(groups)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("recompute worker panicked"))
                    .collect()
            })
        };
        let mut results: Vec<(u64, Option<EdgeDsu>)> = Vec::with_capacity(total);
        let (mut per_worker, mut union_ops_per_worker) = (Vec::new(), Vec::new());
        for (out, union_ops) in outputs {
            per_worker.push(out.len() as u64);
            union_ops_per_worker.push(union_ops);
            results.extend(out);
        }
        (results, per_worker, union_ops_per_worker)
    }
}

#[cfg(test)]
mod tests {
    use super::super::MaintainedIndex;
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_ops(n_vertices: u32, count: usize, seed: u64) -> Vec<GraphUpdate> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            let (a, b) = (rng.gen_range(0..n_vertices), rng.gen_range(0..n_vertices));
            ops.push(if rng.gen_bool(0.5) {
                GraphUpdate::Insert(a, b)
            } else {
                GraphUpdate::Remove(a, b)
            });
        }
        ops
    }

    fn assert_state_identical(a: &MaintainedIndex, b: &MaintainedIndex) {
        assert_eq!(a.graph().edges(), b.graph().edges());
        assert_eq!(a.component_sizes(), b.component_sizes());
        for c in a.component_sizes() {
            assert_eq!(a.list_len(c), b.list_len(c), "H({c}) length");
        }
        for tau in [1, 2, 3, 4] {
            for k in [1, 10, 100] {
                assert_eq!(a.query(k, tau), b.query(k, tau), "k={k} τ={tau}");
            }
        }
    }

    #[test]
    fn small_windows_recompute_inline_and_large_ones_fan_out() {
        let g = generators::clique_overlap(300, 240, 6, 5);
        let e = g.edges()[0];
        let mut piped = MaintainedIndex::new(&g);
        let outcome = piped.apply_batch_parallel(&[GraphUpdate::Remove(e.u, e.v)], 2);
        assert!(outcome.report.recomputed_edges > 0);
        assert!(outcome.report.recomputed_edges < super::super::INLINE_RECOMPUTE as u64);
        assert_eq!(outcome.report.threads, 1, "a small window spawns no worker");

        let ops = random_ops(300, 120, 0x5EED);
        let mut sequential = piped.clone();
        sequential.apply_batch(&ops);
        let outcome = piped.apply_batch_parallel(&ops, 2);
        assert!(outcome.report.recomputed_edges >= super::super::INLINE_RECOMPUTE as u64);
        assert_eq!(outcome.report.threads, 2);
        assert_eq!(
            outcome.report.recomputed_per_worker.iter().sum::<u64>(),
            outcome.report.recomputed_edges
        );
        piped.check_consistency();
        assert_state_identical(&piped, &sequential);
    }

    #[test]
    fn pipeline_matches_sequential_across_thread_counts() {
        let g = generators::clique_overlap(40, 35, 5, 11);
        let ops = random_ops(40, 60, 0xBA7C);
        let mut sequential = MaintainedIndex::new(&g);
        let seq_stats = sequential.apply_batch(&ops);
        for threads in [1, 2, 4] {
            let mut piped = MaintainedIndex::new(&g);
            let outcome = piped.apply_batch_parallel(&ops, threads);
            assert_eq!(outcome.stats, seq_stats, "threads={threads}");
            piped.check_consistency();
            assert_state_identical(&piped, &sequential);
            assert_eq!(outcome.dispositions.len(), ops.len());
            assert_eq!(
                outcome.report.recomputed_per_worker.iter().sum::<u64>(),
                outcome.report.recomputed_edges,
                "every owned key recomputed exactly once"
            );
        }
    }

    #[test]
    fn pipeline_handles_intra_batch_insert_then_remove() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let before = index.query(40, 1);
        let outcome = index.apply_batch_parallel(
            &[
                GraphUpdate::Insert(n["c"], n["d"]),
                GraphUpdate::Remove(n["c"], n["d"]),
            ],
            2,
        );
        assert_eq!(outcome.stats.applied, 2);
        index.check_consistency();
        assert_eq!(index.query(40, 1), before, "net no-op batch");
    }

    #[test]
    fn pipeline_handles_intra_batch_remove_then_insert() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let before = index.query(40, 1);
        let outcome = index.apply_batch_parallel(
            &[
                GraphUpdate::Remove(n["u"], n["k"]),
                GraphUpdate::Insert(n["u"], n["k"]),
            ],
            3,
        );
        assert_eq!(outcome.stats.applied, 2);
        index.check_consistency();
        assert_eq!(index.query(40, 1), before, "net no-op batch");
    }

    #[test]
    fn empty_and_all_skipped_batches() {
        let (g, n) = fig1();
        let mut index = MaintainedIndex::new(&g);
        let outcome = index.apply_batch_parallel(&[], 4);
        assert_eq!(outcome.stats, BatchStats::default());
        assert_eq!(outcome.report.groups, 0);
        assert_eq!(outcome.report.threads, 0, "zero workers for zero work");
        assert!(outcome.report.recomputed_per_worker.is_empty());
        let outcome = index.apply_batch_parallel(
            &[
                GraphUpdate::Insert(n["f"], n["g"]), // present → noop
                GraphUpdate::Insert(9, 9),           // self-loop → rejected
            ],
            4,
        );
        assert_eq!(
            (
                outcome.stats.applied,
                outcome.stats.noop,
                outcome.stats.rejected
            ),
            (0, 1, 1)
        );
        assert_eq!(outcome.report.recomputed_edges, 0);
        assert_eq!(outcome.report.threads, 0, "all-noop batch spawns nothing");
        index.check_consistency();
    }

    #[test]
    fn disjoint_updates_form_separate_groups() {
        // Two K5s far apart: updates inside each never share blast radii.
        let mut b = esd_graph::GraphBuilder::new(10);
        for base in [0u32, 5] {
            for i in 0..5 {
                for j in i + 1..5 {
                    if (base, i, j) != (0, 0, 1) && (base, i, j) != (5, 0, 1) {
                        b.add_edge(base + i, base + j);
                    }
                }
            }
        }
        let g = b.build();
        let mut index = MaintainedIndex::new(&g);
        let outcome =
            index.apply_batch_parallel(&[GraphUpdate::Insert(0, 1), GraphUpdate::Insert(5, 6)], 2);
        assert_eq!(outcome.stats.applied, 2);
        assert_eq!(outcome.report.groups, 2, "disjoint blast radii");
        index.check_consistency();
    }

    #[test]
    fn overlapping_updates_share_a_group() {
        let g = generators::complete(6);
        let mut index = MaintainedIndex::new(&g);
        let outcome =
            index.apply_batch_parallel(&[GraphUpdate::Remove(0, 1), GraphUpdate::Remove(0, 2)], 2);
        assert_eq!(outcome.stats.applied, 2);
        assert_eq!(outcome.report.groups, 1, "K6 updates always conflict");
        index.check_consistency();
    }

    #[test]
    fn vertex_growth_during_plan_phase() {
        let g = esd_graph::Graph::from_edges(3, &[(0, 1)]);
        let mut sequential = MaintainedIndex::new(&g);
        let mut piped = MaintainedIndex::new(&g);
        let ops = [
            GraphUpdate::Insert(7, 0),
            GraphUpdate::Insert(7, 1),
            GraphUpdate::Remove(9, 0), // out of range even after growth → noop
        ];
        let seq_stats = sequential.apply_batch(&ops);
        let outcome = piped.apply_batch_parallel(&ops, 2);
        assert_eq!(outcome.stats, seq_stats);
        assert_eq!(outcome.stats.noop, 1);
        assert_state_identical(&piped, &sequential);
    }
}
