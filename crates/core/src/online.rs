//! The dequeue-twice online search framework (Algorithm 1).
//!
//! All edges enter a max-priority queue keyed by an upper bound of their
//! structural diversity. Popping an edge the *first* time triggers the exact
//! BFS score computation and a re-push keyed by the exact score; popping it
//! a *second* time proves (the queue invariant) that no other edge can beat
//! it, so it is emitted as the next answer. Edges whose upper bound is lower
//! than the current k-th score are never scored exactly — that pruning is
//! the entire point of the framework.

pub use crate::bounds::UpperBound;
use crate::{bounds, score::ScoreScratch, ScoredEdge};
use esd_graph::{triangles, Edge, Graph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Counters describing how much work a dequeue-twice run performed; used by
/// the experiments to show the pruning power of each bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Edges whose exact score was computed by BFS (first dequeues).
    pub exact_evaluations: usize,
    /// Total priority-queue pops.
    pub pops: usize,
    /// Edges that entered the queue (upper bound > 0).
    pub enqueued: usize,
}

/// Priority-queue entry: ordered by (priority, smaller edge wins ties).
/// `exact` distinguishes the second-phase entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    priority: u32,
    /// `Reverse` so that among equal priorities the smaller edge pops first,
    /// and an exact entry pops before a bound entry of the same edge cannot
    /// occur (each edge is enqueued with one key at a time).
    edge: Reverse<Edge>,
    exact: bool,
}

/// Top-k edge structural diversity by the dequeue-twice framework
/// (Algorithm 1). `which` selects `OnlineBFS` (min-degree bound) or
/// `OnlineBFS+` (common-neighbour bound).
///
/// Returns at most `k` edges with positive score, ranked by
/// `(score desc, edge asc)` — identical to the index-based search.
///
/// # Examples
///
/// ```
/// use esd_core::online::{online_topk, UpperBound};
/// use esd_core::fixtures::fig1;
///
/// let (g, names) = fig1();
/// let top = online_topk(&g, 3, 2, UpperBound::CommonNeighbor);
/// assert_eq!(top.len(), 3);
/// assert!(top.iter().all(|s| s.score == 2));
/// ```
pub fn online_topk(g: &Graph, k: usize, tau: u32, which: UpperBound) -> Vec<ScoredEdge> {
    online_topk_with_stats(g, k, tau, which).0
}

/// [`online_topk`] plus work counters.
pub fn online_topk_with_stats(
    g: &Graph,
    k: usize,
    tau: u32,
    which: UpperBound,
) -> (Vec<ScoredEdge>, OnlineStats) {
    assert!(tau >= 1, "component size threshold must be at least 1");
    let _span = esd_telemetry::span(esd_telemetry::Stage::OnlineTopk);
    let mut stats = OnlineStats::default();
    let mut queue = {
        let _span = esd_telemetry::span(esd_telemetry::Stage::OnlineBound);
        // OnlineBFS+ takes every |N(u) ∩ N(v)| from one triangle listing,
        // recomputed on every search.
        let support = match which {
            UpperBound::MinDegree => None,
            UpperBound::CommonNeighbor => Some(triangles::edge_support(g)),
        };
        let entries: Vec<Entry> = g
            .edges()
            .iter()
            .enumerate()
            .filter_map(|(id, &edge)| {
                let ub = match &support {
                    Some(support) => support[id] / tau,
                    None => bounds::min_degree_bound(g, edge.u, edge.v, tau),
                };
                (ub > 0).then_some(Entry {
                    priority: ub,
                    edge: Reverse(edge),
                    exact: false,
                })
            })
            .collect();
        BinaryHeap::from(entries)
    };
    stats.enqueued = queue.len();

    let mut results = Vec::with_capacity(k.min(16));
    let mut scratch = ScoreScratch::new();
    while results.len() < k {
        let Some(entry) = queue.pop() else { break };
        stats.pops += 1;
        let Reverse(edge) = entry.edge;
        if entry.exact {
            // Second dequeue: the queue invariant certifies this is the next
            // best edge (Theorem 1).
            results.push(ScoredEdge {
                edge,
                score: entry.priority,
            });
            continue;
        }
        // First dequeue: replace the bound by the exact score.
        stats.exact_evaluations += 1;
        let exact = scratch.edge_score(g, edge.u, edge.v, tau);
        debug_assert!(exact <= entry.priority, "bound must dominate the score");
        if exact > 0 {
            queue.push(Entry {
                priority: exact,
                edge: Reverse(edge),
                exact: true,
            });
        }
    }
    esd_telemetry::add(
        esd_telemetry::Metric::OnlineExactEvals,
        stats.exact_evaluations as u64,
    );
    esd_telemetry::add(esd_telemetry::Metric::OnlineHeapPops, stats.pops as u64);
    esd_telemetry::add(esd_telemetry::Metric::OnlineEnqueued, stats.enqueued as u64);
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use crate::score::naive_topk;
    use esd_graph::{generators, Graph};

    #[test]
    fn matches_naive_on_fig1_all_parameters() {
        let (g, _) = fig1();
        for tau in 1..=6 {
            for k in [1, 3, 10, 40, 100] {
                let naive = naive_topk(&g, k, tau);
                for which in [UpperBound::MinDegree, UpperBound::CommonNeighbor] {
                    let online = online_topk(&g, k, tau, which);
                    assert_eq!(online, naive, "k={k} τ={tau} {which:?}");
                }
            }
        }
    }

    #[test]
    fn example3_answers() {
        let (g, n) = fig1();
        let top = online_topk(&g, 3, 5, UpperBound::CommonNeighbor);
        let mut edges: Vec<_> = top.iter().map(|s| s.edge).collect();
        edges.sort_unstable();
        let mut expect = vec![
            esd_graph::Edge::new(n["u"], n["p"]),
            esd_graph::Edge::new(n["u"], n["q"]),
            esd_graph::Edge::new(n["p"], n["q"]),
        ];
        expect.sort_unstable();
        assert_eq!(edges, expect);
    }

    #[test]
    fn tighter_bound_prunes_more() {
        let g = generators::clique_overlap(150, 120, 6, 5);
        let (_, loose) = online_topk_with_stats(&g, 10, 2, UpperBound::MinDegree);
        let (_, tight) = online_topk_with_stats(&g, 10, 2, UpperBound::CommonNeighbor);
        assert!(
            tight.exact_evaluations <= loose.exact_evaluations,
            "CN bound must evaluate no more edges ({} vs {})",
            tight.exact_evaluations,
            loose.exact_evaluations
        );
    }

    /// However the bounds are computed, the pruning must stay identical:
    /// pinned `(k, τ, bound, [evals, pops, enqueued])`, measured with
    /// per-edge adjacency intersections as the bound pass.
    #[test]
    fn work_counters_are_pinned() {
        use UpperBound::{CommonNeighbor as Cn, MinDegree as Md};
        let (fig1, _) = fig1();
        let overlap = generators::clique_overlap(150, 120, 6, 5);
        /// `(k, τ, bound, [evals, pops, enqueued])`.
        type Case = (usize, u32, UpperBound, [usize; 3]);
        let cases: [(&Graph, &[Case]); 2] = [
            (
                &fig1,
                &[
                    (3, 2, Md, [40, 43, 40]),
                    (3, 2, Cn, [3, 6, 36]),
                    (10, 1, Md, [40, 50, 40]),
                    (10, 1, Cn, [38, 48, 40]),
                    (40, 3, Md, [40, 55, 40]),
                    (40, 3, Cn, [19, 34, 19]),
                ],
            ),
            (
                &overlap,
                &[
                    (3, 2, Md, [763, 766, 773]),
                    (3, 2, Cn, [114, 117, 716]),
                    (10, 1, Md, [751, 761, 773]),
                    (10, 1, Cn, [491, 501, 761]),
                    (50, 3, Md, [771, 821, 773]),
                    (50, 3, Cn, [131, 181, 639]),
                ],
            ),
        ];
        for (g, pins) in cases {
            for &(k, tau, which, [evals, pops, enqueued]) in pins {
                let (_, stats) = online_topk_with_stats(g, k, tau, which);
                let expect = OnlineStats {
                    exact_evaluations: evals,
                    pops,
                    enqueued,
                };
                assert_eq!(stats, expect, "k={k} τ={tau} {which:?}");
            }
        }
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::erdos_renyi(60, 0.15, seed);
            for tau in [1, 2, 3] {
                let naive = naive_topk(&g, 15, tau);
                assert_eq!(online_topk(&g, 15, tau, UpperBound::MinDegree), naive);
                assert_eq!(online_topk(&g, 15, tau, UpperBound::CommonNeighbor), naive);
            }
        }
    }

    #[test]
    fn k_zero_and_empty_graph() {
        let (g, _) = fig1();
        assert!(online_topk(&g, 0, 2, UpperBound::CommonNeighbor).is_empty());
        let empty = esd_graph::Graph::from_edges(0, &[]);
        assert!(online_topk(&empty, 5, 1, UpperBound::MinDegree).is_empty());
    }

    #[test]
    fn huge_tau_returns_nothing() {
        let (g, _) = fig1();
        assert!(online_topk(&g, 10, 100, UpperBound::CommonNeighbor).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_tau_zero() {
        let (g, _) = fig1();
        let _ = online_topk(&g, 1, 0, UpperBound::MinDegree);
    }
}
