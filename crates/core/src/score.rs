//! Exact edge structural diversity computation (Definitions 1–2).

use crate::ScoredEdge;
use esd_graph::{traversal::InducedScratch, Graph, VertexId};

/// Sorted multiset of connected-component sizes of the ego-network
/// `G_{N(uv)}` — the `C_uv` of the paper.
///
/// # Examples
///
/// ```
/// use esd_core::score::component_sizes;
/// use esd_core::fixtures::fig1;
///
/// let (g, names) = fig1();
/// let f = names["f"];
/// let gv = names["g"];
/// assert_eq!(component_sizes(&g, f, gv), vec![2, 2]); // {d,e} and {h,i}
/// ```
pub fn component_sizes(g: &Graph, u: VertexId, v: VertexId) -> Vec<u32> {
    ScoreScratch::new().component_sizes(g, u, v).to_vec()
}

/// The structural diversity `score_τ(u, v)`: the number of connected
/// components of `G_{N(uv)}` with at least `τ` vertices (Definition 2).
pub fn edge_score(g: &Graph, u: VertexId, v: VertexId, tau: u32) -> u32 {
    ScoreScratch::new().edge_score(g, u, v, tau)
}

/// Reusable buffers for scoring many edges: the common neighbourhood
/// `N(uv)` and the induced-BFS scratch. [`component_sizes`] and
/// [`edge_score`] build one per call; loops over many edges (the online
/// search, the BFS index build, [`all_scores`]) keep one, so an exact
/// evaluation allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    members: Vec<VertexId>,
    bfs: InducedScratch,
}

impl ScoreScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`component_sizes`] on this scratch.
    pub fn component_sizes(&mut self, g: &Graph, u: VertexId, v: VertexId) -> &[u32] {
        self.members.clear();
        esd_graph::intersect::intersect_into(g.neighbors(u), g.neighbors(v), &mut self.members);
        self.bfs.component_sizes(g, &self.members)
    }

    /// [`edge_score`] on this scratch.
    pub fn edge_score(&mut self, g: &Graph, u: VertexId, v: VertexId, tau: u32) -> u32 {
        score_from_sizes(self.component_sizes(g, u, v), tau)
    }
}

/// Counts entries of a sorted size multiset that are ≥ `tau`.
#[inline]
pub fn score_from_sizes(sorted_sizes: &[u32], tau: u32) -> u32 {
    debug_assert!(sorted_sizes.windows(2).all(|w| w[0] <= w[1]));
    (sorted_sizes.len() - sorted_sizes.partition_point(|&s| s < tau)) as u32
}

/// Structural diversities of *all* edges at threshold `tau`; index = edge id.
/// This is the `O((αd_max)m)` brute-force pass that the online and
/// index-based algorithms avoid.
pub fn all_scores(g: &Graph, tau: u32) -> Vec<u32> {
    let mut scratch = ScoreScratch::new();
    g.edges()
        .iter()
        .map(|e| scratch.edge_score(g, e.u, e.v, tau))
        .collect()
}

/// Reference top-k by scoring every edge and sorting — the "straightforward
/// algorithm" of the paper's introduction. Returns at most `k` edges with
/// positive score, ranked by `(score desc, edge asc)`.
pub fn naive_topk(g: &Graph, k: usize, tau: u32) -> Vec<ScoredEdge> {
    let mut scored: Vec<ScoredEdge> = g
        .edges()
        .iter()
        .zip(all_scores(g, tau))
        .filter(|&(_, s)| s > 0)
        .map(|(&edge, score)| ScoredEdge { edge, score })
        .collect();
    scored.sort_by(ScoredEdge::ranking_cmp);
    scored.truncate(k);
    scored
}

/// Batch-exact top-k: score *every* edge with one 4-clique enumeration pass
/// (Algorithm 3's component machinery, skipping the `H(c)` lists) and
/// select the best `k` by a bounded heap.
///
/// No pruning, but the per-edge cost is the enumerate-each-4-clique-once
/// rate rather than OnlineBFS's revisiting BFS — so this wins over the
/// dequeue-twice search exactly when the upper bounds prune poorly (small
/// τ, flat score distributions). The `ablation` experiment quantifies the
/// crossover; [`crate::index::EsdIndex`] remains the right tool for
/// repeated queries.
pub fn batch_topk(g: &Graph, k: usize, tau: u32) -> Vec<ScoredEdge> {
    assert!(tau >= 1, "component size threshold must be at least 1");
    let comps = crate::index::EdgeComponents::by_four_cliques(g);
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<HeapEntry>> =
        std::collections::BinaryHeap::with_capacity(k.min(g.num_edges()) + 1);
    for (eid, &edge) in g.edges().iter().enumerate() {
        let score = comps.score_of(eid, tau);
        if score == 0 {
            continue;
        }
        heap.push(std::cmp::Reverse(HeapEntry(ScoredEdge { edge, score })));
        if heap.len() > k {
            heap.pop();
        }
    }
    let mut out: Vec<ScoredEdge> = heap.into_iter().map(|r| r.0 .0).collect();
    out.sort_by(ScoredEdge::ranking_cmp);
    out
}

/// Heap adapter ordering [`ScoredEdge`] by ranking (best = greatest).
#[derive(PartialEq, Eq)]
struct HeapEntry(ScoredEdge);

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // ranking_cmp returns Less when self ranks better; invert so the
        // best entry is the heap maximum.
        other.0.ranking_cmp(&self.0)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig1;
    use esd_graph::generators;

    #[test]
    fn fig1_worked_examples() {
        let (g, n) = fig1();
        // Example 2: score(f,g) = 2 for τ ∈ {1,2}, 0 for τ = 3.
        assert_eq!(edge_score(&g, n["f"], n["g"], 1), 2);
        assert_eq!(edge_score(&g, n["f"], n["g"], 2), 2);
        assert_eq!(edge_score(&g, n["f"], n["g"], 3), 0);
        // Example 3 (τ = 5): only the K6 + w edges have a size-5 component.
        assert_eq!(edge_score(&g, n["u"], n["p"], 5), 1);
        assert_eq!(edge_score(&g, n["u"], n["q"], 5), 1);
        assert_eq!(edge_score(&g, n["p"], n["q"], 5), 1);
        assert_eq!(edge_score(&g, n["j"], n["k"], 5), 0);
    }

    #[test]
    fn fig1_component_size_multisets() {
        let (g, n) = fig1();
        assert_eq!(component_sizes(&g, n["j"], n["k"]), vec![2, 4]);
        assert_eq!(component_sizes(&g, n["d"], n["e"]), vec![1, 2]);
        assert_eq!(component_sizes(&g, n["a"], n["b"]), vec![1]);
        assert_eq!(component_sizes(&g, n["u"], n["p"]), vec![5]);
    }

    #[test]
    fn score_from_sizes_boundaries() {
        assert_eq!(score_from_sizes(&[], 1), 0);
        assert_eq!(score_from_sizes(&[1, 2, 4, 5], 1), 4);
        assert_eq!(score_from_sizes(&[1, 2, 4, 5], 3), 2);
        assert_eq!(score_from_sizes(&[1, 2, 4, 5], 5), 1);
        assert_eq!(score_from_sizes(&[1, 2, 4, 5], 6), 0);
    }

    #[test]
    fn naive_topk_matches_example3() {
        let (g, n) = fig1();
        let top = naive_topk(&g, 3, 2);
        let edges: Vec<_> = top.iter().map(|s| s.edge).collect();
        let expect: Vec<esd_graph::Edge> = [(n["f"], n["g"]), (n["h"], n["i"]), (n["j"], n["k"])]
            .iter()
            .map(|&(a, b)| esd_graph::Edge::new(a, b))
            .collect();
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        let mut expect_sorted = expect.clone();
        expect_sorted.sort_unstable();
        assert_eq!(sorted, expect_sorted);
        assert!(top.iter().all(|s| s.score == 2));
    }

    #[test]
    fn naive_topk_fewer_than_k_positive() {
        let (g, _) = fig1();
        let top = naive_topk(&g, 100, 5);
        assert_eq!(top.len(), 3, "only 3 edges score at τ = 5");
    }

    #[test]
    fn batch_topk_matches_naive() {
        let (g, _) = fig1();
        for tau in 1..=6 {
            for k in [1, 3, 10, 40] {
                assert_eq!(
                    batch_topk(&g, k, tau),
                    naive_topk(&g, k, tau),
                    "k={k} τ={tau}"
                );
            }
        }
        for seed in 0..4 {
            let g = generators::clique_overlap(60, 50, 5, seed);
            assert_eq!(batch_topk(&g, 12, 2), naive_topk(&g, 12, 2), "seed {seed}");
        }
    }

    #[test]
    fn batch_topk_edge_cases() {
        let empty = esd_graph::Graph::from_edges(0, &[]);
        assert!(batch_topk(&empty, 5, 1).is_empty());
        let star = generators::star(8);
        assert!(batch_topk(&star, 5, 1).is_empty(), "no triangles");
        let (g, _) = fig1();
        assert!(batch_topk(&g, 0, 1).is_empty());
    }

    #[test]
    fn batch_topk_unbounded_k_returns_every_scored_edge() {
        let (g, _) = fig1();
        let all = naive_topk(&g, g.num_edges(), 2);
        for k in [1 << 40, usize::MAX] {
            assert_eq!(batch_topk(&g, k, 2), all, "k = {k}");
        }
    }

    #[test]
    fn tau_of_one_counts_all_components() {
        let g = generators::complete(5);
        // Ego-net of any K5 edge is a K3: one component.
        assert_eq!(edge_score(&g, 0, 1, 1), 1);
        let star = generators::star(6);
        // Star edges share no common neighbours: empty ego-net.
        assert_eq!(edge_score(&star, 0, 3, 1), 0);
    }
}
