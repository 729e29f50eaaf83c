//! Parallel index construction (the paper's `PESDIndex+`, §IV-E).
//!
//! The paper parallelises 4-clique enumeration over *directed edges* (vertex
//! parallelism is too skewed) — but its per-edge union–find structures are
//! shared, which would race. This implementation keeps the edge-parallel
//! enumeration and makes the updates sound with a two-phase scheme:
//!
//! 1. **Enumerate** (parallel): workers sweep disjoint ranges of arcs (the
//!    DAG's directed edges, in CSR order) with
//!    [`esd_graph::cliques::for_each_four_clique`], turning each 4-clique
//!    into six `(edge, slot, slot)` union ops, binned by the *shard* owning
//!    the target edge.
//! 2. **Apply** (parallel): shard `s` owns a contiguous range of edge ids
//!    (cut so every shard owns roughly the same total neighbourhood size)
//!    and its own [`ArenaDsu`]; it applies every op binned to it. Shards
//!    touch disjoint state, so no locks are needed.
//!
//! The two phases alternate in bounded-size rounds to cap the op-buffer
//! memory. Workers are plain `std::thread::scope` scoped threads — the
//! shards partition all mutable state, so no synchronisation primitives
//! beyond the scope joins are needed. Finally the `H(c)` lists are filled
//! in parallel over disjoint ranges of `C` and concatenated in order.
//! Union–find components are order-independent and each list is sorted by
//! its keys, so the result **equals the sequential builder's for every
//! thread count** — a property the tests assert.

use super::{build, EdgeComponents, EsdIndex};
use esd_dsu::ArenaDsu;
use esd_graph::{cliques, EdgeId, Graph, OrientedGraph};

/// One union operation destined for a specific edge's forest.
#[derive(Debug, Clone, Copy)]
struct Op {
    edge: u32,
    a: u32,
    b: u32,
}

/// Work-balance report of a parallel build (Figs 7/10 additionally print
/// this to demonstrate the edge-parallel balancing claim of §IV-E).
#[derive(Debug, Clone)]
pub struct ParallelBuildReport {
    /// Worker threads used.
    pub threads: usize,
    /// 4-cliques enumerated by each worker.
    pub cliques_per_worker: Vec<u64>,
    /// Union ops applied by each shard.
    pub ops_per_shard: Vec<u64>,
}

/// Builds the index with `threads` workers; returns the index and the
/// work-balance report.
pub(crate) fn build_parallel(g: &Graph, threads: usize) -> (EsdIndex, ParallelBuildReport) {
    let threads = threads.max(1);
    let m = g.num_edges();

    // ---- Phase A: per-edge common neighbourhoods (the sequential
    // triangle kernel; it is a small share of the build).
    let (dag, (nbr_offsets, nbrs)) = {
        let _span = esd_telemetry::span(esd_telemetry::Stage::ParNeighborhoods);
        let dag = OrientedGraph::by_degree(g);
        let nbrs = build::neighborhoods(g, &dag);
        (dag, nbrs)
    };
    esd_telemetry::add(esd_telemetry::Metric::BuildNbrTotal, nbrs.len() as u64);

    // ---- Shard boundaries: contiguous edge ranges balanced by Σ|N(uv)|.
    let total = *nbr_offsets.last().unwrap_or(&0);
    let mut shard_bounds = Vec::with_capacity(threads + 1);
    shard_bounds.push(0usize);
    for s in 1..threads {
        let target = total * s / threads;
        let e = nbr_offsets.partition_point(|&o| o < target).min(m);
        shard_bounds.push((*shard_bounds.last().unwrap()).max(e));
    }
    shard_bounds.push(m);

    // Per-shard forests over the shard's rebased neighbourhood offsets.
    let mut arenas: Vec<ArenaDsu> = (0..threads)
        .map(|s| {
            let (lo, hi) = (shard_bounds[s], shard_bounds[s + 1]);
            let base = nbr_offsets[lo];
            let offsets: Vec<usize> = nbr_offsets[lo..=hi].iter().map(|&o| o - base).collect();
            ArenaDsu::new(offsets)
        })
        .collect();

    // ---- Phase B: enumerate + apply, in rounds over blocks of arcs (the
    // DAG's directed edges, by CSR position).
    let mut cliques_per_worker = vec![0u64; threads];
    let mut ops_per_shard = vec![0u64; threads];

    let shard_of =
        |edge: EdgeId| -> usize { shard_bounds.partition_point(|&b| b <= edge as usize) - 1 };

    // Block size chosen so a round's op buffers stay modest while still
    // amortising the thread joins.
    let block = (m / (4 * threads)).max(4096);
    let mut cursor = 0;
    while cursor < m {
        let round = cursor..(cursor + threads * block).min(m);
        cursor = round.end;

        // Enumerate in parallel: each worker takes one arc range of the
        // round and bins its ops by target shard.
        let _enum_span = esd_telemetry::span(esd_telemetry::Stage::ParEnumerate);
        let chunk = round.len().div_ceil(threads);
        let mut all_bins: Vec<(usize, Vec<Vec<Op>>, u64)> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, lo) in round.clone().step_by(chunk).enumerate() {
                let arcs = lo..(lo + chunk).min(round.end);
                let (dag, nbr_offsets, nbrs) = (&dag, &nbr_offsets, &nbrs);
                let shard_of = &shard_of;
                handles.push(scope.spawn(move || {
                    let mut bins: Vec<Vec<Op>> = vec![Vec::new(); threads];
                    let mut found = 0u64;
                    cliques::for_each_four_clique(dag, arcs, |ids, u, v, w1, w2| {
                        found += 1;
                        for (e, x, y) in build::ego_edges(ids, u, v, w1, w2) {
                            let slot = |x| build::slot_of(nbr_offsets, nbrs, e, x) as u32;
                            bins[shard_of(e)].push(Op {
                                edge: e,
                                a: slot(x),
                                b: slot(y),
                            });
                        }
                    });
                    (w, bins, found)
                }));
            }
            for h in handles {
                all_bins.push(h.join().expect("enumeration worker"));
            }
        });
        for &(w, _, found) in &all_bins {
            cliques_per_worker[w] += found;
        }
        drop(_enum_span);

        // Apply in parallel: shard s drains every worker's bin s.
        let _apply_span = esd_telemetry::span(esd_telemetry::Stage::ParApply);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (s, arena) in arenas.iter_mut().enumerate() {
                let all_bins = &all_bins;
                let shard_bounds = &shard_bounds;
                handles.push(scope.spawn(move || {
                    let lo = shard_bounds[s];
                    let mut applied = 0u64;
                    for (_, bins, _) in all_bins {
                        for op in &bins[s] {
                            arena.union(op.edge as usize - lo, op.a as usize, op.b as usize);
                            applied += 1;
                        }
                    }
                    (s, applied)
                }));
            }
            for h in handles {
                let (s, applied) = h.join().expect("apply worker");
                ops_per_shard[s] += applied;
            }
        });
    }

    esd_telemetry::add(
        esd_telemetry::Metric::ParOpsApplied,
        ops_per_shard.iter().sum(),
    );

    // ---- Phase C: extract component sizes per shard (parallel).
    let extract_span = esd_telemetry::span(esd_telemetry::Stage::ParExtract);
    let mut pieces: Vec<(usize, EdgeComponents)> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (s, arena) in arenas.iter().enumerate() {
            let shard_bounds = &shard_bounds;
            handles.push(scope.spawn(move || {
                let len = shard_bounds[s + 1] - shard_bounds[s];
                (s, build::components_from_arena(arena, len))
            }));
        }
        for h in handles {
            pieces.push(h.join().expect("extract worker"));
        }
    });
    pieces.sort_by_key(|&(s, _)| s);
    let mut comps = EdgeComponents {
        offsets: Vec::with_capacity(m + 1),
        sizes: Vec::new(),
    };
    comps.offsets.push(0);
    for (_, piece) in pieces {
        let base = comps.sizes.len();
        comps.sizes.extend(piece.sizes);
        comps
            .offsets
            .extend(piece.offsets[1..].iter().map(|&o| o + base));
    }
    debug_assert_eq!(comps.num_edges(), m);
    drop(extract_span);

    // ---- Phase D: fill H(c) lists in parallel over disjoint C ranges.
    let _fill_span = esd_telemetry::span(esd_telemetry::Stage::ParFill);
    let csizes = build::distinct_sizes(&comps);
    let per = csizes.len().div_ceil(threads).max(1);
    let mut filled: Vec<(usize, Vec<Vec<_>>)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let lo = (t * per).min(csizes.len());
            let hi = ((t + 1) * per).min(csizes.len());
            if lo == hi {
                continue;
            }
            let comps = &comps;
            let csizes = &csizes;
            handles.push(scope.spawn(move || {
                let chunk = build::fill_lists(comps.items(g.edges()), csizes, lo..hi);
                (lo, chunk)
            }));
        }
        for h in handles {
            filled.push(h.join().expect("fill worker"));
        }
    });
    filled.sort_by_key(|&(lo, _)| lo);
    let lists = filled.into_iter().flat_map(|(_, chunk)| chunk).collect();

    (
        EsdIndex::from_lists(csizes, lists),
        ParallelBuildReport {
            threads,
            cliques_per_worker,
            ops_per_shard,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;

    /// The whole index, the clique total and the op balance, against the
    /// sequential builder at several thread counts.
    fn assert_parallel_equals_sequential(g: &Graph) {
        let sequential = EsdIndex::build_fast(g);
        let cliques = esd_graph::cliques::count_four_cliques(g);
        for threads in [1, 2, 3, 4, 7] {
            let (parallel, report) = build_parallel(g, threads);
            assert_eq!(parallel, sequential, "{threads} threads");
            assert_eq!(report.cliques_per_worker.iter().sum::<u64>(), cliques);
            let total_ops: u64 = report.ops_per_shard.iter().sum();
            assert_eq!(total_ops, cliques * 6);
        }
    }

    #[test]
    fn parallel_equals_sequential_for_all_thread_counts() {
        assert_parallel_equals_sequential(&generators::clique_overlap(120, 100, 6, 7));
        // At this size one round's arc chunks split vertices' out-arcs.
        for spec in esd_datasets::specs() {
            let g = esd_datasets::load(spec.name, esd_datasets::Scale::Tiny);
            assert_parallel_equals_sequential(&g);
        }
    }

    #[test]
    fn fig1_parallel() {
        let (g, _) = fig1();
        let index = EsdIndex::build_parallel(&g, 3);
        assert_eq!(index.component_sizes(), &[1, 2, 4, 5]);
        assert_eq!(index.list_len(4), Some(15));
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Graph::from_edges(0, &[]);
        let (idx, _) = build_parallel(&empty, 4);
        assert_eq!(idx.num_lists(), 0);
        let star = generators::star(50);
        let (idx, _) = build_parallel(&star, 2);
        assert_eq!(idx.num_lists(), 0);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let (g, _) = fig1();
        let (idx, report) = build_parallel(&g, 0);
        assert_eq!(report.threads, 1);
        assert_eq!(idx.component_sizes(), &[1, 2, 4, 5]);
    }
}
